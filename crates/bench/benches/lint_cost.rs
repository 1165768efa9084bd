//! E-LINT: the cost of static analysis relative to the chase it guards.
//!
//! The `cqfd lint` analyses (weak-acyclicity over the position graph plus
//! the safety/signature checks) run before every server/batch job, so
//! their cost has to be noise against the chase itself. This harness
//! times both sides on the same rule set — the Theorem 14 separating
//! rules — and emits `BENCH_lint.json` at the repo root (the file
//! EXPERIMENTS.md §E-LINT quotes), including the analysis∶chase ratio.

use cqfd_analysis::analyze_tgds;
use cqfd_chase::Termination;
use cqfd_greenred::DeterminacyOracle;
use cqfd_separating::theorem14::{separating_budget, separating_space, t_separating};
use cqfd_separating::tinf::lasso_model;
use cqfd_service::dispatch::classify_for;
use cqfd_service::{parse_job, Job};
use std::io::Write;
use std::time::Instant;

const SAMPLES: usize = 9;

struct Row {
    name: String,
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
    let mut rows: Vec<Row> = Vec::new();
    let push = |rows: &mut Vec<Row>, name: &str, (median_ms, min_ms, max_ms): (f64, f64, f64)| {
        println!("[E-LINT] {name}: median {median_ms:.3} ms");
        rows.push(Row {
            name: name.into(),
            median_ms,
            min_ms,
            max_ms,
        });
    };

    let space = separating_space();
    let sys = t_separating();
    let tgds = sys.tgds(&space);
    println!(
        "[E-LINT] rule set: {} TGDs over {} predicates",
        tgds.len(),
        space.signature().pred_count()
    );

    // The two analyses `lint` runs on every job over these rules.
    push(
        &mut rows,
        "analysis_termination_verdict",
        time_ms(|| {
            let v = Termination::analyze(&tgds);
            assert!(!v.is_weakly_acyclic());
        }),
    );
    push(
        &mut rows,
        "analysis_full_lint",
        time_ms(|| {
            let report = analyze_tgds(space.signature(), &tgds);
            assert!(!report.has_errors());
        }),
    );

    // The fragment classifier the dispatcher now runs in front of every
    // determinacy job (weak acyclicity over `T_Q` plus the view-shape
    // checks), on a built-in spider-fragment family.
    let Job::Determine { sig, views, q0, .. } = parse_job("determine instance=mismatch:3x4")
        .expect("job line parses")
        .expect("non-blank")
    else {
        unreachable!("a determine line parses to Job::Determine")
    };
    let oracle = DeterminacyOracle::new(sig);
    push(
        &mut rows,
        "analysis_fragment_classifier",
        time_ms(|| {
            let c = classify_for(&oracle, &views, &q0);
            assert_eq!(c.fragment.as_str(), "A302");
        }),
    );

    // The chases those analyses gate: the fig3 lasso chases to the 1-2
    // pattern (the same workloads as E-PAR's threads=1 rows).
    let mut chase_medians = Vec::new();
    for (n, p) in [(3usize, 1usize), (4, 2), (5, 3), (6, 2)] {
        let g = lasso_model(separating_space(), n, p);
        let budget = separating_budget(100);
        let sample = time_ms(|| {
            let (_, _, found) = sys.chase_until_12(&g, &budget);
            assert!(found);
        });
        chase_medians.push(sample.0);
        push(&mut rows, &format!("chase_fig3_lasso_n{n}p{p}"), sample);
    }

    // `analyze_tgds` already runs the termination verdict internally, so
    // the full-lint row IS the whole per-job analysis cost — don't sum
    // the two analysis rows.
    let analysis_ms = rows[1].median_ms;
    let classify_ms = rows[2].median_ms;
    let mean_chase_ms = chase_medians.iter().sum::<f64>() / chase_medians.len() as f64;
    let ratio = analysis_ms / mean_chase_ms;
    let classify_ratio = classify_ms / mean_chase_ms;
    println!(
        "[E-LINT] analysis {:.3} ms vs mean fig3 chase {:.3} ms — ratio {:.4}",
        analysis_ms, mean_chase_ms, ratio
    );
    println!(
        "[E-LINT] fragment classifier {:.4} ms — ratio {:.4} (gate: ≤ 0.01)",
        classify_ms, classify_ratio
    );
    write_json(&rows, analysis_ms, mean_chase_ms, ratio, classify_ratio);
}

/// Renders the rows as JSON by hand (the workspace deliberately has no
/// serde) and writes `BENCH_lint.json` at the repo root.
fn write_json(rows: &[Row], analysis_ms: f64, mean_chase_ms: f64, ratio: f64, classify_ratio: f64) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_lint.json");
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"samples_per_point\": {SAMPLES},\n"));
    out.push_str(&format!("  \"analysis_ms\": {analysis_ms:.3},\n"));
    out.push_str(&format!("  \"mean_chase_ms\": {mean_chase_ms:.3},\n"));
    out.push_str(&format!("  \"analysis_to_chase_ratio\": {ratio:.4},\n"));
    out.push_str(&format!(
        "  \"classify_to_chase_ratio\": {classify_ratio:.4},\n"
    ));
    out.push_str("  \"note\": \"ratio compares the full pre-job analysis (analyze_tgds, termination verdict included) against the mean fig3 lasso chase it gates; medians over release builds\",\n");
    out.push_str("  \"benches\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"median_ms\": {:.3}, \"min_ms\": {:.3}, \"max_ms\": {:.3}}}{}\n",
            r.name,
            r.median_ms,
            r.min_ms,
            r.max_ms,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    let mut f = std::fs::File::create(path).expect("create BENCH_lint.json");
    f.write_all(out.as_bytes()).expect("write BENCH_lint.json");
    println!("[E-LINT] wrote {path}");
}
