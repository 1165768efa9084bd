//! The engine's delta-driven stages against the paper's naive stages.
//!
//! Each stage of [`ChaseEngine`] enumerates only the body matches that use
//! an atom the previous stage added (or takes one full pass when that is
//! cheaper). Because every stage's frontier is canonical and trigger
//! satisfaction is monotone, that must apply exactly the triggers the
//! paper's full re-enumeration applies, in the same order. These
//! properties check it the hard way: identical atoms, node count, stage
//! history, firing log and outcome against [`naive::chase`], at 1, 2 and
//! 4 enumeration threads, on the Theorem 14 chases, three rainworm
//! families (on a lasso with `T□`, and alone from `DI`), random green-red
//! instances, and a resumed run.

mod naive;

use cqfd_chase::{ChaseBudget, ChaseEngine, ChaseHooks, ChaseRun, ResumePoint};
use cqfd_core::Structure;
use cqfd_greengraph::{GreenGraph, L2System, Label, LabelSpace};
use cqfd_greenred::{instances, DeterminacyOracle};
use cqfd_rainworm::families::{counter_worm, forever_worm, halting_worm_short};
use cqfd_rainworm::to_rules::tm_rules;
use cqfd_separating::t_square;
use cqfd_separating::theorem14::{separating_budget, separating_space, t_separating};
use cqfd_separating::tinf::lasso_model;
use proptest::prelude::*;
use std::sync::Arc;

const THREADS: [usize; 3] = [1, 2, 4];

/// Runs the engine (recording) at 1, 2 and 4 threads and checks each run
/// against the naive reference.
fn check_all_threads(engine: &ChaseEngine, start: &Structure, budget: &ChaseBudget, what: &str) {
    let engine = engine.clone().with_recording(true);
    let reference = naive::chase(&engine, start, budget, true);
    for threads in THREADS {
        let run = engine.chase(start, &budget.clone().with_threads(threads));
        naive::assert_same(&run, &reference, &format!("{what} @{threads}t"));
    }
}

/// A rainworm family's label space: its own labels plus the 1-2 pattern
/// labels.
fn worm_space(sys: &L2System) -> Arc<LabelSpace> {
    let mut labels = sys.labels();
    labels.extend([Label::ONE, Label::TWO]);
    Arc::new(LabelSpace::new(labels))
}

#[test]
fn theorem14_di_chase_matches_naive() {
    let sys = t_separating();
    let di = GreenGraph::di(separating_space());
    let engine = sys.engine(di.space());
    check_all_threads(&engine, di.structure(), &separating_budget(12), "DI");
}

#[test]
fn rainworm_chases_match_naive() {
    for (name, sys) in [
        ("forever-worm", tm_rules(&forever_worm()).union(&t_square())),
        (
            "halting-worm",
            tm_rules(&halting_worm_short()).union(&t_square()),
        ),
        (
            "counter-worm",
            tm_rules(&counter_worm(2)).union(&t_square()),
        ),
    ] {
        let g = lasso_model(worm_space(&sys), 3, 1);
        let engine = sys.engine(g.space());
        check_all_threads(&engine, g.structure(), &separating_budget(16), name);
    }
}

/// `T_M∆` alone from `DI`: the Lemma 25 workload.
#[test]
fn rainworm_chases_from_di_match_naive() {
    for (name, delta) in [
        ("forever-worm", forever_worm()),
        ("halting-worm", halting_worm_short()),
        ("counter-worm", counter_worm(2)),
    ] {
        let sys = tm_rules(&delta);
        let di = GreenGraph::di(Arc::new(LabelSpace::new(sys.labels())));
        let engine = sys.engine(di.space());
        check_all_threads(&engine, di.structure(), &ChaseBudget::stages(24), name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    #[test]
    fn theorem14_lasso_chases_match_naive(n in 3usize..6, p in 1usize..3, stages in 4usize..12) {
        let sys = t_separating();
        let g = lasso_model(separating_space(), n, p);
        let engine = sys.engine(g.space());
        check_all_threads(&engine, g.structure(), &separating_budget(stages), &format!("lasso({n},{p})"));
    }

    #[test]
    fn random_greenred_chases_match_naive(seed in 0u64..1_000_000, stages in 2usize..10) {
        for inst in instances::random_batch(seed, 3) {
            let oracle = DeterminacyOracle::new(inst.sig.clone());
            let (engine, start, _) = oracle.chase_setup(&inst.views, &inst.q0);
            check_all_threads(&engine, &start, &ChaseBudget::stages(stages), &inst.name);
        }
    }

    #[test]
    fn resumed_runs_match_naive(n in 3usize..5, cut in 1usize..6) {
        let sys = t_separating();
        let g = lasso_model(separating_space(), n, 1);
        let engine = sys.engine(g.space()).with_recording(true);
        let budget = separating_budget(10);
        let reference = naive::chase(&engine, g.structure(), &budget, true);
        let full = engine.chase(g.structure(), &budget);
        prop_assert!(cut < full.stage_count());
        // Rebuild the boundary after stage `cut` the way a write-ahead
        // stage log does: by replaying the firings of the prefix.
        let prefix: Vec<_> = full.firings.iter().filter(|f| f.stage <= cut).cloned().collect();
        let resume = ResumePoint {
            structure: engine.replay(g.structure(), &prefix),
            stages: full.stages[..cut].to_vec(),
            firings: prefix,
            start_atoms: g.structure().atom_count(),
            start_nodes: g.structure().node_count(),
        };
        let boundary = full.stage_structure(cut);
        prop_assert_eq!(resume.structure.atoms(), boundary.atoms());
        for threads in THREADS {
            let hooks = ChaseHooks { resume: Some(resume.clone()), checkpoint: None };
            let run: ChaseRun = engine.chase_with_hooks(
                g.structure(),
                &budget.clone().with_threads(threads),
                |_, _| false,
                hooks,
            );
            naive::assert_same(&run, &reference, &format!("resume after {cut} @{threads}t"));
        }
    }
}
