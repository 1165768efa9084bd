//! Differential suite: the legacy backtracking engine and the
//! worst-case-optimal engine must be observationally identical.
//!
//! The correctness bar is **byte identity of outputs** — chased
//! structures, oracle verdicts, encoded certificates — not identity of
//! enumeration order or node counts. Every case runs both engines at 1,
//! 2, and 4 chase threads against the legacy/threads=1 reference.

use cqfd_chase::ChaseBudget;
use cqfd_core::{all_homomorphisms, Atom, HomEngine, Node, Structure, Term, Var, VarMap, WcoPlan};
use cqfd_greengraph::{GreenGraph, LabelSpace};
use cqfd_greenred::instances;
use cqfd_greenred::DeterminacyOracle;
use cqfd_rainworm::families::{counter_worm, forever_worm, halting_worm_short};
use cqfd_rainworm::to_rules::tm_rules;
use cqfd_separating::theorem14::{chase_from_lasso_with, separating_budget};
use proptest::prelude::*;
use std::ops::ControlFlow;
use std::sync::Arc;

const THREADS: [usize; 3] = [1, 2, 4];

/// Everything observable about a chase run that must be engine- and
/// thread-invariant: the final structure (byte-rendered), the stage
/// count, and the number of applied triggers. `hom_nodes` and wall time
/// are deliberately excluded — they are *supposed* to differ.
fn digest(out: &GreenGraph, run: &cqfd_chase::ChaseRun) -> (String, usize, usize) {
    (
        out.structure().to_string(),
        run.stage_count(),
        run.triggers_fired(),
    )
}

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

    /// Random lasso geometries: chasing `T` from lasso(n, p) produces the
    /// same structure, stage count, and trigger count under both engines
    /// at every thread count.
    #[test]
    fn lasso_chases_agree_across_engines_and_threads(
        n in 3usize..=5,
        p in 1usize..=2,
    ) {
        let reference = {
            let budget = separating_budget(60).with_hom_engine(HomEngine::Legacy);
            let (out, run, found) = chase_from_lasso_with(n, p, &budget);
            (digest(&out, &run), found)
        };
        for engine in [HomEngine::Legacy, HomEngine::Wco] {
            for threads in THREADS {
                let budget = separating_budget(60)
                    .with_threads(threads)
                    .with_hom_engine(engine);
                let (out, run, found) = chase_from_lasso_with(n, p, &budget);
                prop_assert_eq!(
                    &(digest(&out, &run), found),
                    &reference,
                    "lasso({}, {}) diverged under {:?} at {} threads",
                    n, p, engine, threads
                );
            }
        }
    }

    /// Random path-view instances: the oracle's verdict and its encoded
    /// certificate are byte-identical across engines and thread counts.
    /// (The instance families here always conclude — Determined or
    /// NotDetermined — so the certificates carry no engine-dependent
    /// search-node counts.)
    #[test]
    fn oracle_certificates_agree_across_engines_and_threads(
        m in 1usize..=2,
        k in 1usize..=3,
        family in 0usize..3,
    ) {
        let inst = match family {
            0 => instances::composed_path_instance(m, k),
            1 => {
                let m = m.max(2);
                let mut k = k;
                while k.is_multiple_of(m) {
                    k += 1;
                }
                instances::mismatched_path_instance(m, k)
            }
            _ => instances::projection_instance(),
        };
        let oracle = DeterminacyOracle::new(inst.sig.clone());
        let reference = {
            let budget = ChaseBudget::stages(48).with_hom_engine(HomEngine::Legacy);
            let cr = oracle.certify_run(&inst.views, &inst.q0, &budget);
            (cr.verdict, cqfd_cert::encode(&cr.certificate))
        };
        for engine in [HomEngine::Legacy, HomEngine::Wco] {
            for threads in THREADS {
                let budget = ChaseBudget::stages(48)
                    .with_threads(threads)
                    .with_hom_engine(engine);
                let cr = oracle.certify_run(&inst.views, &inst.q0, &budget);
                prop_assert_eq!(
                    &(cr.verdict, cqfd_cert::encode(&cr.certificate)),
                    &reference,
                    "{} diverged under {:?} at {} threads",
                    inst.name, engine, threads
                );
            }
        }
    }

    /// Witness maps as sets: over the chased lasso structure, the two
    /// engines enumerate exactly the same set of homomorphisms for random
    /// 2-atom patterns drawn over its signature.
    #[test]
    fn witness_map_sets_agree_on_chased_structures(
        pred_pick in 0usize..4,
        shape in 0usize..3,
    ) {
        let budget = separating_budget(40).with_hom_engine(HomEngine::Wco);
        let (out, _, _) = chase_from_lasso_with(3, 1, &budget);
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

/// Rainworm families: chasing `T_M∆` from `DI` — the Lemma 25 workload —
/// is engine- and thread-invariant for a representative machine of each
/// family (forever, short halting, counter).
#[test]
fn rainworm_chases_agree_across_engines_and_threads() {
    for delta in [forever_worm(), halting_worm_short(), counter_worm(2)] {
        let sys = tm_rules(&delta);
        let space = Arc::new(LabelSpace::new(sys.labels()));
        let budget = ChaseBudget {
            max_stages: 24,
            max_atoms: 1 << 20,
            max_nodes: 1 << 20,
            ..ChaseBudget::default()
        };
        let reference = {
            let g = GreenGraph::di(Arc::clone(&space));
            let (out, run) = sys.chase(&g, &budget.clone().with_hom_engine(HomEngine::Legacy));
            digest(&out, &run)
        };
        for engine in [HomEngine::Legacy, HomEngine::Wco] {
            for threads in THREADS {
                let g = GreenGraph::di(Arc::clone(&space));
                let b = budget.clone().with_threads(threads).with_hom_engine(engine);
                let (out, run) = sys.chase(&g, &b);
                assert_eq!(
                    digest(&out, &run),
                    reference,
                    "T_M∆ chase diverged under {engine:?} at {threads} threads"
                );
            }
        }
    }
}

/// The wco engine must never explore *more* search nodes than legacy on
/// the fig3 lasso chases — the acceptance bar the CI perf-smoke enforces
/// on the bench output, checked here directly on the smallest geometry.
#[test]
fn wco_explores_no_more_nodes_than_legacy_on_fig3() {
    for (n, p) in [(3usize, 1usize), (4, 2)] {
        let nodes_of = |engine: HomEngine| {
            let budget = separating_budget(60).with_hom_engine(engine);
            let (_, run, _) = chase_from_lasso_with(n, p, &budget);
            run.hom_nodes
        };
        let legacy = nodes_of(HomEngine::Legacy);
        let wco = nodes_of(HomEngine::Wco);
        assert!(
            wco < legacy,
            "lasso({n}, {p}): wco explored {wco} nodes, legacy {legacy}"
        );
    }
}
