//! Privacy through views: checking that published views do **not**
//! determine a secret query.
//!
//! ```text
//! cargo run --example privacy_views
//! ```
//!
//! The paper's introduction mentions the flip side of determinacy:
//! "we would like to release some views of the database, but in a way
//! that does not allow certain query to be computed." This example plays a
//! data officer at a clinic deciding which views of
//!
//! ```text
//! Visit(patient, doctor)      Dept(doctor, department)
//! ```
//!
//! are safe to publish when the *secret* is which patient visits which
//! department.

use cqfd::core::{Cq, Signature};
use cqfd::greenred::{search_counterexample, DeterminacyOracle, Verdict};

fn main() {
    let mut sig = Signature::new();
    sig.add_predicate("Visit", 2);
    sig.add_predicate("Dept", 2);
    let oracle = DeterminacyOracle::new(sig.clone());

    // The secret: Q0(p, dep) — patient p visits a doctor of department dep.
    let secret = Cq::parse(&sig, "Secret(p,dep) :- Visit(p,d), Dept(d,dep)").unwrap();

    println!("== Proposal 1: publish both base tables ==");
    let v1 = Cq::parse(&sig, "V1(p,d) :- Visit(p,d)").unwrap();
    let v2 = Cq::parse(&sig, "V2(d,dep) :- Dept(d,dep)").unwrap();
    match oracle.try_certify(&[v1, v2], &secret, 16).unwrap() {
        Verdict::Determined { stage } => {
            println!("   LEAKS: views determine the secret (chase stage {stage}).")
        }
        other => println!("   unexpected: {other:?}"),
    }

    println!("\n== Proposal 2: publish patient–department pairs only via doctors seen twice ==");
    // V(p, dep) is released only for doctors with at least two patients —
    // modelled here as the join through two visits.
    let v = Cq::parse(&sig, "V(p,q,dep) :- Visit(p,d), Visit(q,d), Dept(d,dep)").unwrap();
    match oracle
        .try_certify(std::slice::from_ref(&v), &secret, 12)
        .unwrap()
    {
        Verdict::Determined { stage } => {
            println!("   LEAKS anyway (chase stage {stage}): the self-join p = q");
            println!("   re-exposes every patient–department pair — aggregation by");
            println!("   pairing does not anonymize.");
        }
        other => println!("   verdict: {other:?}"),
    }

    println!("\n== Proposal 3: publish anonymized projections ==");
    // Who visits anyone, and which departments exist — no linkage.
    let v1 = Cq::parse(&sig, "V1(p) :- Visit(p,d)").unwrap();
    let v2 = Cq::parse(&sig, "V2(dep) :- Dept(d,dep)").unwrap();
    match oracle
        .try_certify(&[v1.clone(), v2.clone()], &secret, 12)
        .unwrap()
    {
        Verdict::NotDeterminedUnrestricted { stages } => {
            println!(
                "   SAFE (unrestricted): chase fixpoint after {stages} stages, secret not forced."
            )
        }
        other => println!("   verdict: {other:?}"),
    }
    // Produce a concrete privacy witness: two databases with identical
    // views but different secrets.
    match search_counterexample(&oracle, &[v1, v2], &secret, 4) {
        Some((d, witness)) => {
            println!(
                "   privacy witness found: {} atoms, views agree, secret differs at {witness:?}",
                d.atom_count()
            );
        }
        None => println!("   (no small witness found — larger domains would be needed)"),
    }

    println!("\nMoral: deciding this in general is impossible (Theorem 1) —");
    println!("the oracle is a semi-decision procedure, and that is the best any tool can be.");
}
