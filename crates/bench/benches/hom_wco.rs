//! E-WCO: legacy backtracking vs worst-case-optimal hom search, at one
//! enumeration thread, on the fig3-grid lasso chases and the oracle's
//! final hom-check workload.
//!
//! Like `chase_parallel`, this harness hand-rolls its timing loop so it
//! can emit a machine-readable `BENCH_hom.json` at the repo root (the
//! file EXPERIMENTS.md §E-WCO quotes, and the CI perf-smoke gates on).
//! Each row records both the median wall time and `hom_nodes` — the
//! engine-reported count of search nodes expanded — because the node
//! count is the hardware-independent half of the claim: wco must explore
//! strictly fewer nodes than legacy on every fig3 case.

use cqfd_chase::ChaseBudget;
use cqfd_core::{Cq, HomEngine, Signature};
use cqfd_greenred::DeterminacyOracle;
use cqfd_separating::theorem14::{chase_from_lasso_with, separating_budget};
use std::io::Write;
use std::time::Instant;

const SAMPLES: usize = 9;
const ENGINES: [HomEngine; 2] = [HomEngine::Legacy, HomEngine::Wco];

struct Row {
    name: String,
    engine: HomEngine,
    median_ms: f64,
    min_ms: f64,
    max_ms: f64,
    hom_nodes: u64,
    intersection_steps: u64,
}

/// Delta of the global wco intersection-step counter across one run of
/// `f` (the chase publishes its thread-local counters at run end).
/// Legacy rows read 0 — the backtracking engine never intersects.
fn steps_across(f: impl FnOnce()) -> u64 {
    let before = intersection_steps_total();
    f();
    intersection_steps_total() - before
}

fn intersection_steps_total() -> u64 {
    cqfd_obs::global()
        .snapshot()
        .family("cqfd_hom_intersection_steps_total")
        .and_then(|f| f.get(&[]))
        .and_then(|v| v.as_counter())
        .unwrap_or(0)
}

/// Times `f` SAMPLES times (after one warm-up) and returns (median, min,
/// max) in milliseconds.
fn time_ms(mut f: impl FnMut()) -> (f64, f64, f64) {
    f(); // warm-up: first run pays allocation and cache misses
    let mut samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    (samples[SAMPLES / 2], samples[0], samples[SAMPLES - 1])
}

fn main() {
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut rows: Vec<Row> = Vec::new();

    // fig3-grid: chase T from lasso(n, p) to the 1-2 pattern at one
    // thread, so engine differences are not masked by parallelism. The
    // threads=1 rows of BENCH_chase.json are the same workload on the
    // default engine, which makes the two trajectory files
    // cross-checkable.
    for (n, p) in [(3usize, 1usize), (4, 2), (5, 3), (6, 2)] {
        for engine in ENGINES {
            let budget = separating_budget(100)
                .with_threads(1)
                .with_hom_engine(engine);
            let mut hom_nodes = 0u64;
            let mut intersection_steps = 0u64;
            let (median_ms, min_ms, max_ms) = time_ms(|| {
                intersection_steps = steps_across(|| {
                    let (_, run, found) = chase_from_lasso_with(n, p, &budget);
                    assert!(found);
                    hom_nodes = run.hom_nodes;
                });
            });
            let name = format!("fig3_lasso_n{n}p{p}");
            println!(
                "[E-WCO] {name} engine={engine}: median {median_ms:.3} ms, {hom_nodes} nodes, {intersection_steps} isect steps"
            );
            rows.push(Row {
                name,
                engine,
                median_ms,
                min_ms,
                max_ms,
                hom_nodes,
                intersection_steps,
            });
        }
    }

    // Oracle workload: the join-determinacy certification. Its decisive
    // step is the final hom check of Q0 into the chased view expansion,
    // the `oracle/certify_join` shape.
    let mut sig = Signature::new();
    sig.add_predicate("R", 2);
    sig.add_predicate("S", 2);
    let v1 = Cq::parse(&sig, "V1(x,y) :- R(x,y)").unwrap();
    let v2 = Cq::parse(&sig, "V2(x,y) :- S(x,y)").unwrap();
    let q0 = Cq::parse(&sig, "Q0(x,z) :- R(x,y), S(y,z)").unwrap();
    let oracle = DeterminacyOracle::new(sig);
    for engine in ENGINES {
        let budget = ChaseBudget::stages(16)
            .with_threads(1)
            .with_hom_engine(engine);
        let mut hom_nodes = 0u64;
        let mut intersection_steps = 0u64;
        let (median_ms, min_ms, max_ms) = time_ms(|| {
            intersection_steps = steps_across(|| {
                let cr = oracle.certify_run(&[v1.clone(), v2.clone()], &q0, &budget);
                assert_eq!(cr.verdict.name(), "determined");
                hom_nodes = cr.run.hom_nodes;
            });
        });
        println!(
            "[E-WCO] oracle_certify_join engine={engine}: median {median_ms:.3} ms, {hom_nodes} nodes, {intersection_steps} isect steps"
        );
        rows.push(Row {
            name: "oracle_certify_join".into(),
            engine,
            median_ms,
            min_ms,
            max_ms,
            hom_nodes,
            intersection_steps,
        });
    }

    write_json(host_cores, &rows);
}

/// Renders the rows as JSON by hand (the workspace deliberately has no
/// serde) and writes `BENCH_hom.json` at the repo root.
fn write_json(host_cores: usize, rows: &[Row]) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hom.json");
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    out.push_str(&format!("  \"samples_per_point\": {SAMPLES},\n"));
    out.push_str("  \"note\": \"medians over release builds at threads=1; hom_nodes is the engine-reported search-node count and is hardware-independent\",\n");
    out.push_str("  \"benches\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"engine\": \"{}\", \"median_ms\": {:.3}, \"min_ms\": {:.3}, \"max_ms\": {:.3}, \"hom_nodes\": {}, \"intersection_steps\": {}}}{}\n",
            r.name,
            r.engine,
            r.median_ms,
            r.min_ms,
            r.max_ms,
            r.hom_nodes,
            r.intersection_steps,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    let mut f = std::fs::File::create(path).expect("create BENCH_hom.json");
    f.write_all(out.as_bytes()).expect("write BENCH_hom.json");
    println!("[E-WCO] wrote {path}");
}
