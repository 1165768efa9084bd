//! Determinism of the parallel chase: at every `--threads` setting the
//! engine must produce *byte-identical* output — same atom list in the
//! same order, same node numbering, same stage history, same firing log,
//! same hom-search accounting, same certificates.
//!
//! This is the load-bearing property of the parallel enumeration design
//! (Phase A fans out over a frozen snapshot, the merge is by slice index,
//! Phase B applies sequentially), so we check it the hard way: exact
//! equality on everything a `ChaseRun` records, over the Theorem 14
//! separating rules, two rainworm rule families, and random green-red
//! instances, at 1, 2 and 4 threads, and against the paper's naive
//! stage loop.

#[path = "../crates/chase/tests/naive/mod.rs"]
mod naive;

use cqfd::chase::{ChaseBudget, ChaseOutcome, ChaseRun};
use cqfd::greengraph::{GreenGraph, L2System, Label, LabelSpace};
use cqfd::rainworm::families::{counter_worm, forever_worm};
use cqfd::rainworm::to_rules::tm_rules;
use cqfd::separating::t_square;
use cqfd::separating::theorem14::{separating_budget, t_separating};
use cqfd::separating::tinf::lasso_model;
use cqfd::service::{Job, JobBudget, Pool, PoolConfig};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// Chases `g` under `sys` with recording on and the given thread count.
fn chase_threads(sys: &L2System, g: &GreenGraph, stages: usize, threads: usize) -> ChaseRun {
    let budget = separating_budget(stages).with_threads(threads);
    let engine = sys.engine(g.space()).with_recording(true);
    engine.chase(g.structure(), &budget)
}

/// Asserts every observable of two runs is equal (except wall-clock).
fn assert_runs_identical(a: &ChaseRun, b: &ChaseRun, what: &str) {
    assert_eq!(a.structure.atoms(), b.structure.atoms(), "{what}: atoms");
    assert_eq!(
        a.structure.node_count(),
        b.structure.node_count(),
        "{what}: node count"
    );
    assert_eq!(a.stages, b.stages, "{what}: stage history");
    assert_eq!(a.outcome, b.outcome, "{what}: outcome");
    assert_eq!(a.firings, b.firings, "{what}: firing log");
    assert_eq!(a.hom_nodes, b.hom_nodes, "{what}: hom-search nodes");
}

/// The label space a worm's rule family chases over (its own labels plus
/// the 1-2 pattern labels, as in the countermodel tests).
fn worm_space(sys: &L2System) -> Arc<LabelSpace> {
    let mut labels = sys.labels();
    labels.extend([Label::ONE, Label::TWO]);
    Arc::new(LabelSpace::new(labels))
}

/// The two rainworm rule families the suite exercises: a looping worm and
/// a halting counter, both joined with the grid rules `T□`.
fn worm_families() -> Vec<(&'static str, L2System)> {
    vec![
        ("forever-worm", tm_rules(&forever_worm()).union(&t_square())),
        (
            "counter-worm",
            tm_rules(&counter_worm(2)).union(&t_square()),
        ),
    ]
}

#[test]
fn theorem14_chase_is_thread_count_invariant() {
    let sys = t_separating();
    let g = lasso_model(cqfd::separating::theorem14::separating_space(), 3, 1);
    let baseline = chase_threads(&sys, &g, 14, 1);
    assert!(baseline.stage_count() > 0);
    for threads in [2, 4] {
        let run = chase_threads(&sys, &g, 14, threads);
        assert_runs_identical(&baseline, &run, &format!("lasso(3,1) @{threads}t"));
    }
}

#[test]
fn rainworm_chases_are_thread_count_invariant() {
    for (name, sys) in worm_families() {
        let g = lasso_model(worm_space(&sys), 3, 1);
        let baseline = chase_threads(&sys, &g, 20, 1);
        assert!(baseline.triggers_fired() > 0, "{name}: chase must fire");
        for threads in [2, 4] {
            let run = chase_threads(&sys, &g, 20, threads);
            assert_runs_identical(&baseline, &run, &format!("{name} @{threads}t"));
        }
    }
}

/// The fig3 lasso chases, run to the 1-2 pattern under the separating
/// budget `separate` uses: same structure, stage count, trigger count and
/// pattern verdict at every thread count.
#[test]
fn lasso_chases_to_the_pattern_are_thread_count_invariant() {
    use cqfd::separating::theorem14::chase_from_lasso_with;
    for (n, p) in [(3, 1), (4, 2), (5, 3)] {
        let digest = |threads: usize| {
            let (out, run, found) =
                chase_from_lasso_with(n, p, &separating_budget(60).with_threads(threads));
            assert!(found, "lasso({n},{p}) reaches the 1-2 pattern");
            (
                out.structure().to_string(),
                run.stage_count(),
                run.triggers_fired(),
            )
        };
        let baseline = digest(1);
        assert_eq!(baseline, digest(2), "lasso({n},{p}) @2t");
        assert_eq!(baseline, digest(4), "lasso({n},{p}) @4t");
    }
}

// Every thread count gives the single-threaded run, and that run is the
// paper's naive stage loop byte for byte: the delta-driven stages apply
// the same triggers in the same order.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn random_lasso_geometry_is_thread_count_invariant(
        n in 3usize..6,
        p in 1usize..3,
        stages in 6usize..12,
    ) {
        let sys = t_separating();
        let g = lasso_model(cqfd::separating::theorem14::separating_space(), n, p);
        let engine = sys.engine(g.space()).with_recording(true);
        let runs: Vec<ChaseRun> = [1usize, 2, 4]
            .iter()
            .map(|&t| engine.chase(g.structure(), &separating_budget(stages).with_threads(t)))
            .collect();
        assert_runs_identical(&runs[0], &runs[1], &format!("n{n}p{p} @2t"));
        assert_runs_identical(&runs[0], &runs[2], &format!("n{n}p{p} @4t"));
        let reference = naive::chase(&engine, g.structure(), &separating_budget(stages), true);
        naive::assert_same(&runs[0], &reference, &format!("n{n}p{p} vs naive"));
    }
}

/// Oracle certificates are byte-identical at every thread count: the
/// chase-trace certificate serializes node ids and firing order, so this
/// catches any renumbering the structure comparison might miss.
#[test]
fn oracle_certificates_are_thread_count_invariant() {
    use cqfd::greenred::{instances, DeterminacyOracle};
    for inst in [
        instances::projection_instance(),
        instances::composed_path_instance(1, 3),
        instances::composed_path_instance(2, 2),
        instances::composed_path_instance(2, 3),
        instances::mismatched_path_instance(2, 1),
        instances::mismatched_path_instance(2, 3),
    ] {
        let oracle = DeterminacyOracle::new(inst.sig.clone());
        let encode = |threads: usize| {
            let cr = oracle.certify_run(
                &inst.views,
                &inst.q0,
                &ChaseBudget::stages(24).with_threads(threads),
            );
            cqfd::cert::encode(&cr.certificate)
        };
        let baseline = encode(1);
        assert_eq!(baseline, encode(2), "certificate @2 threads");
        assert_eq!(baseline, encode(4), "certificate @4 threads");
    }
}

/// Cancelling a multi-threaded chase mid-stage on a pooled worker leaves
/// the worker healthy: the cancelled job reports budget-exceeded (a valid
/// prefix, not a crash or a wedged scope), and the *same* reused worker
/// then runs a clean job to the correct verdict with uncorrupted metrics.
#[test]
fn cancelled_parallel_job_leaves_a_reusable_worker() {
    let pool = Pool::new(PoolConfig::default().with_workers(1));
    // A deadline far too tight for the 80-stage separation chase: the
    // parallel enumeration workers must observe it and stop cooperatively.
    let doomed = pool
        .submit_blocking(Job::Separate {
            budget: JobBudget::default()
                .with_stages(80)
                .with_threads(4)
                .with_timeout(Duration::from_millis(5)),
        })
        .wait();
    assert_eq!(doomed.outcome.verdict(), "budget-exceeded");
    // Same worker thread, fresh job: must be unaffected by the abort.
    let clean = pool
        .submit_blocking(Job::Separate {
            budget: JobBudget::default().with_stages(60).with_threads(4),
        })
        .wait();
    assert_eq!(clean.outcome.verdict(), "separated");
    pool.shutdown();
}

/// The engine-level version of the same guarantee, without the pool: a
/// pre-fired cancel token yields `Cancelled` with a structure that is a
/// valid chase prefix (exactly the last completed stage).
#[test]
fn cancelled_parallel_chase_is_a_valid_prefix() {
    let sys = t_separating();
    let g = lasso_model(cqfd::separating::theorem14::separating_space(), 3, 1);
    let cancel = cqfd::core::CancelToken::new();
    cancel.cancel();
    let budget = ChaseBudget {
        cancel,
        ..separating_budget(30).with_threads(4)
    };
    let run = sys.engine(g.space()).chase(g.structure(), &budget);
    assert_eq!(run.outcome, ChaseOutcome::Cancelled);
    assert_eq!(
        run.stage_structure(run.stage_count()).atoms(),
        run.structure.atoms(),
        "cancelled run must stop exactly at a stage boundary"
    );
}
