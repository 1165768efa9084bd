//! Differential suite for the chase's hom engine, [`WcoPlan`].
//!
//! The chase-level bar — byte-identical structures, firings and
//! certificates at 1, 2 and 4 enumeration threads — lives with the naive
//! stage loop in `crates/chase/tests/naive_reference.rs` and in
//! `tests/parallel_chase.rs`. This file keeps what is specific to the
//! engine: its match sets against the independent backtracking
//! [`HomPlan`](cqfd_core::HomPlan) search (behind [`all_homomorphisms`]) on
//! chased structures, and its search-node counts on the fig3 lasso chases
//! against the counts the backtracking engine recorded when it still ran
//! the chase.

use cqfd_core::{all_homomorphisms, Atom, Node, Structure, Term, Var, VarMap, WcoPlan};
use cqfd_separating::theorem14::{chase_from_lasso_with, separating_budget};
use proptest::prelude::*;
use std::ops::ControlFlow;

/// Witness maps as a canonical set: each `VarMap` sorted by variable,
/// the whole collection sorted, so set equality is order-blind.
fn map_set(maps: Vec<VarMap>) -> Vec<Vec<(Var, Node)>> {
    let mut out: Vec<Vec<(Var, Node)>> = maps
        .into_iter()
        .map(|m| {
            let mut v: Vec<(Var, Node)> = m.into_iter().collect();
            v.sort_unstable();
            v
        })
        .collect();
    out.sort_unstable();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Witness maps as sets: over the chased lasso structure, `WcoPlan` and
    /// the backtracking search enumerate exactly the same set of
    /// homomorphisms for random 2-atom patterns drawn over its signature.
    #[test]
    fn witness_map_sets_agree_on_chased_structures(
        pred_pick in 0usize..4,
        shape in 0usize..3,
    ) {
        let (out, _, _) = chase_from_lasso_with(3, 1, &separating_budget(40));
        let d: &Structure = out.structure();
        // Pick a binary predicate that actually has rows.
        let sig = d.signature();
        let preds: Vec<_> = (0..sig.pred_count() as u32)
            .map(cqfd_core::PredId)
            .filter(|&p| sig.arity(p) == 2 && d.pred_count(p) > 0)
            .collect();
        assert!(!preds.is_empty(), "the chased lasso has binary edges");
        let r = preds[pred_pick % preds.len()];
        let (x, y, z) = (Var(0), Var(1), Var(2));
        let pattern = match shape {
            // A 2-path, a self-join fork, and a repeated-variable loop.
            0 => vec![
                Atom::new(r, vec![Term::Var(x), Term::Var(y)]),
                Atom::new(r, vec![Term::Var(y), Term::Var(z)]),
            ],
            1 => vec![
                Atom::new(r, vec![Term::Var(x), Term::Var(y)]),
                Atom::new(r, vec![Term::Var(x), Term::Var(z)]),
            ],
            _ => vec![Atom::new(r, vec![Term::Var(x), Term::Var(x)])],
        };
        let legacy = map_set(all_homomorphisms(&pattern, d, &VarMap::new()));
        let plan = WcoPlan::compile(&pattern, d);
        let mut wco = Vec::new();
        let limits = vec![u32::MAX; pattern.len()];
        let _: ControlFlow<()> = plan.for_each_maps(&VarMap::new(), &limits, |m| {
            wco.push(m.clone());
            ControlFlow::Continue(())
        });
        prop_assert_eq!(map_set(wco), legacy);
    }
}

/// Search nodes the backtracking `HomPlan` explored as the chase's engine
/// on the fig3 lasso chases under `separating_budget(60)`, recorded at
/// commit 85a6d9d (the last commit where the chase could run on it). Node
/// counts do not depend on the hardware or the thread count.
const RECORDED_BACKTRACKING_NODES: [((usize, usize), u64); 4] = [
    // lasso(3, 1), recorded at 85a6d9d.
    ((3, 1), 4_975),
    // lasso(4, 2), recorded at 85a6d9d.
    ((4, 2), 6_239),
    // lasso(5, 3), recorded at 85a6d9d.
    ((5, 3), 8_555),
    // lasso(6, 2), recorded at 85a6d9d.
    ((6, 2), 24_305),
];

/// The chase's engine explores strictly fewer search nodes than the
/// backtracking engine did on every fig3 lasso chase.
#[test]
fn wco_explores_fewer_nodes_than_recorded_backtracking_on_fig3() {
    for ((n, p), recorded) in RECORDED_BACKTRACKING_NODES {
        let (_, run, found) = chase_from_lasso_with(n, p, &separating_budget(60));
        assert!(found, "lasso({n}, {p}) reaches the 1-2 pattern");
        assert!(
            run.hom_nodes < recorded,
            "lasso({n}, {p}): wco explored {} nodes, the backtracking engine {recorded}",
            run.hom_nodes
        );
    }
}
