//! Quickstart: the determinacy oracle on classic view/query instances.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Demonstrates the chase-based semi-decision procedure of paper §IV on
//! three everyday instances: a determined one (join of views), an
//! undetermined one with a finite counter-example (projection), and one
//! where the chase cannot decide (the fundamental situation Theorem 1
//! proves unavoidable).

use cqfd::chase::ChaseBudget;
use cqfd::core::{Cq, Signature};
use cqfd::greenred::{search_counterexample, DeterminacyOracle, Verdict};

/// Renders a chase run's metrics the same way `cqfd batch` result lines do.
fn metrics_line(run: &cqfd::chase::ChaseRun) -> String {
    format!(
        "stages={} triggers={} homs={} elapsed_ms={:.1}",
        run.stage_count(),
        run.triggers_fired(),
        run.hom_nodes,
        run.elapsed.as_secs_f64() * 1e3
    )
}

fn main() {
    let mut sig = Signature::new();
    sig.add_predicate("R", 2);
    sig.add_predicate("S", 2);

    println!("== 1. Determined: V1 = R, V2 = S, Q0 = R ⋈ S ==");
    let v1 = Cq::parse(&sig, "V1(x,y) :- R(x,y)").unwrap();
    let v2 = Cq::parse(&sig, "V2(x,y) :- S(x,y)").unwrap();
    let q0 = Cq::parse(&sig, "Q0(x,z) :- R(x,y), S(y,z)").unwrap();
    let oracle = DeterminacyOracle::new(sig.clone());
    let cr = oracle.certify_run(&[v1, v2], &q0, &ChaseBudget::stages(16));
    match cr.verdict {
        Verdict::Determined { stage } => {
            println!("   determined — chase certificate at stage {stage}");
            println!("   (unrestricted determinacy, hence finite determinacy too)");
            println!("   metrics: {}", metrics_line(&cr.run));
            let report = cqfd::cert::check(&cr.certificate).expect("certificate checks");
            println!("   independently checked: {}", report.summary);
        }
        other => println!("   unexpected: {other:?}"),
    }

    println!("\n== 2. Not determined: V = ∃y R(x,y), Q0 = R(x,y) ==");
    let v = Cq::parse(&sig, "V(x) :- R(x,y)").unwrap();
    let q0 = Cq::parse(&sig, "Q0(x,y) :- R(x,y)").unwrap();
    match oracle
        .try_certify(std::slice::from_ref(&v), &q0, 16)
        .unwrap()
    {
        Verdict::NotDeterminedUnrestricted { stages } => {
            println!("   chase reached a fixpoint after {stages} stages without red(Q0)");
        }
        other => println!("   unexpected: {other:?}"),
    }
    match search_counterexample(&oracle, &[v], &q0, 3) {
        Some((d, _)) => {
            println!(
                "   finite counter-example found ({} atoms over Σ̄):",
                d.atom_count()
            );
            print!("{d}");
        }
        None => println!("   no small counter-example (unexpected)"),
    }

    println!("\n== 3. Sometimes neither side ever answers: the paper's Q∞ ==");
    // Q∞ = Compile(Precompile(T∞)) — the paper's §VII/§IX query set. Its
    // chase grows an infinite two-colored path and never reaches red(Q0),
    // yet no finite stage can rule determinacy out.
    let inst = cqfd::reduction::reduce_l2(&cqfd::separating::tinf::t_infinity());
    let oracle2 = DeterminacyOracle::from_greenred(inst.spider_ctx.greenred().clone());
    let cr = oracle2.certify_run(&inst.queries, &inst.q0, &ChaseBudget::stages(8));
    match cr.verdict {
        Verdict::Unknown { stages } => {
            println!("   chase still running after {stages} stages — no verdict.");
            println!("   Theorem 1 of the paper: no procedure decides this in general.");
            println!("   metrics: {}", metrics_line(&cr.run));
        }
        other => println!("   verdict: {other:?}"),
    }
}
