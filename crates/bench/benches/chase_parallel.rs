//! E-PAR: wall-clock of the parallel chase at 1/2/4 enumeration threads,
//! on the fig3-grid lasso chases and an oracle certify workload.
//!
//! Unlike the criterion groups, this harness hand-rolls its timing loop so
//! it can emit a machine-readable `BENCH_chase.json` at the repo root (the
//! file EXPERIMENTS.md §E-PAR quotes). The JSON records `host_cores`
//! because thread-count speedups are only meaningful relative to the
//! parallelism the host actually offers: on a single-core runner the 2-
//! and 4-thread rows measure the coordination overhead, not a speedup.

use cqfd_chase::ChaseBudget;
use cqfd_core::{Cq, Signature};
use cqfd_greenred::DeterminacyOracle;
use cqfd_separating::theorem14::{separating_budget, t_separating};
use cqfd_separating::tinf::lasso_model;
use std::io::Write;
use std::time::Instant;

const SAMPLES: usize = 9;
const THREADS: [usize; 3] = [1, 2, 4];

struct Row {
    name: String,
    threads: usize,
    median_ms: f64,
    min_ms: f64,
    max_ms: f64,
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

    // fig3-grid: the lasso chase to the 1-2 pattern, the same workload as
    // the `fig3_grid/lasso_to_pattern` criterion group (so the threads=1
    // rows are directly comparable against that group's history).
    let sys = t_separating();
    for (n, p) in [(3usize, 1usize), (4, 2), (5, 3), (6, 2)] {
        let g = lasso_model(cqfd_separating::theorem14::separating_space(), n, p);
        for threads in THREADS {
            let budget = separating_budget(100).with_threads(threads);
            let (median_ms, min_ms, max_ms) = time_ms(|| {
                let (_, _, found) = sys.chase_until_12(&g, &budget);
                assert!(found);
            });
            let name = format!("fig3_lasso_n{n}p{p}");
            println!("[E-PAR] {name} threads={threads}: median {median_ms:.3} ms");
            rows.push(Row {
                name,
                threads,
                median_ms,
                min_ms,
                max_ms,
            });
        }
    }

    // Oracle workload: the join-determinacy certification chase (the
    // `oracle/certify_join` shape, run through the thread knob).
    let mut sig = Signature::new();
    sig.add_predicate("R", 2);
    sig.add_predicate("S", 2);
    let v1 = Cq::parse(&sig, "V1(x,y) :- R(x,y)").unwrap();
    let v2 = Cq::parse(&sig, "V2(x,y) :- S(x,y)").unwrap();
    let q0 = Cq::parse(&sig, "Q0(x,z) :- R(x,y), S(y,z)").unwrap();
    let oracle = DeterminacyOracle::new(sig);
    for threads in THREADS {
        let budget = ChaseBudget::stages(16).with_threads(threads);
        let (median_ms, min_ms, max_ms) = time_ms(|| {
            let cr = oracle.certify_run(&[v1.clone(), v2.clone()], &q0, &budget);
            assert_eq!(cr.verdict.name(), "determined");
        });
        println!("[E-PAR] oracle_certify_join threads={threads}: median {median_ms:.3} ms");
        rows.push(Row {
            name: "oracle_certify_join".into(),
            threads,
            median_ms,
            min_ms,
            max_ms,
        });
    }

    write_json(host_cores, &rows);
}

/// Renders the rows as JSON by hand (the workspace deliberately has no
/// serde) and writes `BENCH_chase.json` at the repo root.
fn write_json(host_cores: usize, rows: &[Row]) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_chase.json");
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    out.push_str(&format!("  \"samples_per_point\": {SAMPLES},\n"));
    out.push_str("  \"note\": \"medians over release builds; 2/4-thread rows on a 1-core host measure coordination overhead, not speedup\",\n");
    out.push_str("  \"benches\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"threads\": {}, \"median_ms\": {:.3}, \"min_ms\": {:.3}, \"max_ms\": {:.3}}}{}\n",
            r.name,
            r.threads,
            r.median_ms,
            r.min_ms,
            r.max_ms,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    let mut f = std::fs::File::create(path).expect("create BENCH_chase.json");
    f.write_all(out.as_bytes()).expect("write BENCH_chase.json");
    println!("[E-PAR] wrote {path}");
}
