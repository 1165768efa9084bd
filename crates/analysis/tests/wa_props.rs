//! Property: the weak-acyclicity verdict is *sound* for chase termination.
//!
//! Whenever [`Termination::analyze`] says `WeaklyAcyclic`, the chase over
//! that rule set must reach a fixpoint well inside a generous stage budget
//! — at 1, 2 and 4 enumeration threads, with byte-identical results. This
//! is exactly the contract `ChaseBudget::presized_for` and the service's
//! `termination=` stamp rely on.

use cqfd_chase::{ChaseBudget, ChaseEngine, ChaseOutcome, Termination, Tgd};
use cqfd_core::{Atom, Node, Signature, Structure, Term, Var};
use proptest::prelude::*;
use std::sync::Arc;

/// Three binary predicates — enough room for feeding cycles between
/// positions without making the position graph trivial.
fn sig3() -> Arc<Signature> {
    let mut s = Signature::new();
    s.add_predicate("P", 2);
    s.add_predicate("Q", 2);
    s.add_predicate("S", 2);
    Arc::new(s)
}

/// One generated rule: `body_pred(x0, x1) -> head_pred(a, b)` where each
/// head argument is one of x0, x1, or the existential x2. Covers full
/// TGDs, existential TGDs, and self-feeding shapes like
/// `P(x,y) -> P(y,z)`.
type RuleSpec = (u8, u8, u8, u8);

fn build_rules(sig: &Arc<Signature>, specs: &[RuleSpec]) -> Vec<Tgd> {
    let preds = ["P", "Q", "S"].map(|n| sig.predicate(n).unwrap());
    specs
        .iter()
        .enumerate()
        .map(|(i, &(bp, hp, a, b))| {
            let body = vec![Atom::new(
                preds[bp as usize % 3],
                vec![Term::Var(Var(0)), Term::Var(Var(1))],
            )];
            let head = vec![Atom::new(
                preds[hp as usize % 3],
                vec![
                    Term::Var(Var(u32::from(a % 3))),
                    Term::Var(Var(u32::from(b % 3))),
                ],
            )];
            Tgd::new_unchecked(format!("t{i}"), body, head)
        })
        .collect()
}

/// A start structure where every predicate holds at least one atom, so
/// every generated rule is fireable from stage one.
fn seed(sig: &Arc<Signature>) -> Structure {
    let mut d = Structure::new(Arc::clone(sig));
    let ns: Vec<Node> = (0..3).map(|_| d.fresh_node()).collect();
    for (name, (i, j)) in [("P", (0, 1)), ("Q", (1, 2)), ("S", (2, 0))] {
        d.add(sig.predicate(name).unwrap(), &[ns[i], ns[j]]);
    }
    d
}

/// Far beyond anything a weakly acyclic set over this seed can need; if
/// the chase hits this, the verdict was wrong.
const GENEROUS_STAGES: usize = 10_000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `WeaklyAcyclic` rule sets reach a chase fixpoint without
    /// exhausting the budget, deterministically across thread counts.
    #[test]
    fn weakly_acyclic_verdicts_imply_chase_termination(
        specs in prop::collection::vec((0u8..3, 0u8..3, 0u8..3, 0u8..3), 1..5),
    ) {
        let sig = sig3();
        let tgds = build_rules(&sig, &specs);
        let verdict = Termination::analyze(&tgds);
        if !verdict.is_weakly_acyclic() {
            // Nothing claimed about non-WA sets (the criterion is a
            // sufficient condition only), but the witness must be a
            // genuine cycle: closed, and on the position graph's nodes.
            let cycle = verdict.cycle().expect("Unknown carries a witness");
            prop_assert!(cycle.len() >= 2);
            prop_assert_eq!(cycle.first(), cycle.last());
            return Ok(());
        }

        let engine = ChaseEngine::new(tgds);
        let start = seed(&sig);
        let baseline = engine.chase(&start, &ChaseBudget::stages(GENEROUS_STAGES));
        prop_assert_eq!(
            baseline.outcome,
            ChaseOutcome::Fixpoint,
            "WA set must terminate; stopped after {} stages",
            baseline.stage_count()
        );
        prop_assert_eq!(&baseline.termination, engine.termination());

        for threads in [2usize, 4] {
            let par = engine.chase(
                &start,
                &ChaseBudget::stages(GENEROUS_STAGES).with_threads(threads),
            );
            prop_assert_eq!(par.outcome, ChaseOutcome::Fixpoint, "t={}", threads);
            // Byte-identical results: same atoms, same stage/firing
            // counts, regardless of enumeration parallelism.
            prop_assert_eq!(
                format!("{:?}", baseline.structure.atoms()),
                format!("{:?}", par.structure.atoms()),
                "t={}", threads
            );
            prop_assert_eq!(baseline.stages, par.stages, "t={}", threads);
            prop_assert_eq!(baseline.firings, par.firings, "t={}", threads);
        }
    }

    /// The verdict itself is deterministic and budget-independent.
    #[test]
    fn verdict_is_stable_across_engine_rebuilds(
        specs in prop::collection::vec((0u8..3, 0u8..3, 0u8..3, 0u8..3), 1..5),
    ) {
        let sig = sig3();
        let tgds = build_rules(&sig, &specs);
        let v1 = Termination::analyze(&tgds);
        let v2 = Termination::analyze(&tgds);
        prop_assert_eq!(&v1, &v2);
        prop_assert_eq!(v1.name() == "weakly-acyclic", v1.is_weakly_acyclic());
    }
}
