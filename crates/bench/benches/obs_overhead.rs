//! E-OBS: instrumentation overhead of `cqfd-obs`.
//!
//! Two questions, answered separately:
//!
//! 1. What do the primitives cost? A disabled `span!` must be a handful
//!    of nanoseconds (one relaxed atomic load, fields never evaluated);
//!    counter increments and histogram observations a few more.
//! 2. What does instrumentation cost a real workload? The Theorem 14
//!    separation chase (`chase(T, lasso(3,1))`, ~80 stages) is run with
//!    no subscriber — the shipped default, whose median must sit within
//!    2% of what the uninstrumented engine did — and again with trace
//!    capture and with the span-aggregating subscriber, to price the
//!    opt-in modes.
//! 3. What does the **always-on flight recorder** cost? `cqfd-flight`
//!    installs at every pool start, so its steady-state price is part of
//!    the shipped default too. The E-FLIGHT rows below time the fig3
//!    lasso chases with the flight sink uninstalled vs installed and
//!    emit `BENCH_flight.json` at the repo root; CI gates the overhead
//!    ratio at ≤ 2% of the mean chase cost.

use cqfd_obs::{span, Registry, Unit};
use cqfd_separating::theorem14::{
    chase_from_lasso, separating_budget, separating_space, t_separating,
};
use cqfd_separating::tinf::lasso_model;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

fn bench_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_primitives");
    group.bench_function("disabled_span", |b| {
        b.iter(|| {
            let _s = span!("bench.noop", value = black_box(7u64));
        });
    });
    group.bench_function("counter_inc", |b| {
        let reg = Registry::new();
        let ctr = reg.counter("b_ops_total", "bench", &[]);
        b.iter(|| ctr.inc());
    });
    group.bench_function("histogram_observe", |b| {
        let reg = Registry::new();
        let h = reg.histogram("b_latency", "bench", &[], Unit::None);
        b.iter(|| h.observe(black_box(12_345)));
    });
    group.bench_function("snapshot_and_render_100_series", |b| {
        let reg = Registry::new();
        for i in 0..100 {
            let label = format!("r{i}");
            reg.counter("b_wide_total", "bench", &[("rule", &label)])
                .inc();
        }
        b.iter(|| cqfd_obs::prom::render(&reg.snapshot()).len());
    });
    group.finish();
}

/// The separation chase: metrics always on (that *is* the shipped path),
/// tracing off vs. capture vs. aggregation.
fn bench_separation_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_overhead");
    group.sample_size(10);
    group.bench_function("separation_chase_no_subscriber", |b| {
        b.iter(|| chase_from_lasso(3, 1, 80).2);
    });
    group.bench_function("separation_chase_capture", |b| {
        b.iter(|| {
            cqfd_obs::trace::capture_begin(0);
            let found = chase_from_lasso(3, 1, 80).2;
            black_box(cqfd_obs::trace::capture_end().len());
            found
        });
    });
    group.bench_function("separation_chase_span_aggregator", |b| {
        cqfd_obs::trace::set_subscriber(Arc::new(cqfd_obs::trace::RegistryAggregator::new(
            cqfd_obs::global(),
        )));
        b.iter(|| chase_from_lasso(3, 1, 80).2);
        cqfd_obs::trace::clear_subscriber();
    });
    group.finish();
}

const FLIGHT_SAMPLES: usize = 9;

/// E-FLIGHT: the always-on flight recorder priced against the fig3 lasso
/// chases it rides along with, written to `BENCH_flight.json`.
fn bench_flight_overhead(_c: &mut Criterion) {
    struct Row {
        name: String,
        median_ms: f64,
        min_ms: f64,
        max_ms: f64,
    }
    fn stats(samples: &mut [f64]) -> (f64, f64, f64) {
        samples.sort_by(|a, b| a.total_cmp(b));
        (
            samples[samples.len() / 2],
            samples[0],
            samples[samples.len() - 1],
        )
    }
    let mut rows: Vec<Row> = Vec::new();
    let push = |rows: &mut Vec<Row>, name: String, (median_ms, min_ms, max_ms)| {
        println!("[E-FLIGHT] {name}: median {median_ms:.3} ms");
        rows.push(Row {
            name,
            median_ms,
            min_ms,
            max_ms,
        });
        median_ms
    };

    let sys = t_separating();
    let cases = [(3usize, 1usize), (4, 2), (5, 3), (6, 2)];
    let mut base = Vec::new();
    let mut flight = Vec::new();
    for &(n, p) in &cases {
        let g = lasso_model(separating_space(), n, p);
        let budget = separating_budget(100);
        let run = || {
            let (_, _, found) = sys.chase_until_12(&g, &budget);
            assert!(found);
        };
        // Interleave baseline and flight samples so allocator and cache
        // drift lands on both sides equally — a sequential A…A B…B sweep
        // reads systematic drift as recorder overhead.
        cqfd_flight::uninstall();
        run(); // warm-up, baseline mode
        cqfd_flight::install();
        run(); // warm-up, flight mode
        let mut base_s = Vec::with_capacity(FLIGHT_SAMPLES);
        let mut flight_s = Vec::with_capacity(FLIGHT_SAMPLES);
        for _ in 0..FLIGHT_SAMPLES {
            cqfd_flight::uninstall();
            let t0 = Instant::now();
            run();
            base_s.push(t0.elapsed().as_secs_f64() * 1e3);
            cqfd_flight::install();
            let t0 = Instant::now();
            run();
            flight_s.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        cqfd_flight::uninstall();
        let b = stats(&mut base_s);
        let f = stats(&mut flight_s);
        push(&mut rows, format!("chase_fig3_lasso_n{n}p{p}_baseline"), b);
        push(&mut rows, format!("chase_fig3_lasso_n{n}p{p}_flight"), f);
        base.push(b);
        flight.push(f);
    }

    // A chase emits a few dozen span records per run (~0.4µs each with the
    // ring installed), so the true recorder cost is tens of microseconds
    // against chases of 5–25ms — far below the run-to-run scheduler noise
    // of medians. The gated ratio therefore compares per-case *minima*
    // (both sides at their noise floor); medians are reported alongside.
    let mean = |v: &[(f64, f64, f64)], pick: fn(&(f64, f64, f64)) -> f64| {
        v.iter().map(pick).sum::<f64>() / v.len() as f64
    };
    let mean_base = mean(&base, |s| s.1);
    let mean_flight = mean(&flight, |s| s.1);
    let overhead_ratio = (mean_flight - mean_base) / mean_base;
    let median_ratio = (mean(&flight, |s| s.0) - mean(&base, |s| s.0)) / mean(&base, |s| s.0);
    println!(
        "[E-FLIGHT] mean fig3 chase {mean_base:.3} ms bare vs {mean_flight:.3} ms \
         with flight recording — overhead ratio {overhead_ratio:.4} \
         (median-based {median_ratio:.4})"
    );

    // Hand-rolled JSON (the workspace deliberately has no serde).
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_flight.json");
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"samples_per_point\": {FLIGHT_SAMPLES},\n"));
    out.push_str(&format!("  \"mean_baseline_ms\": {mean_base:.3},\n"));
    out.push_str(&format!("  \"mean_flight_ms\": {mean_flight:.3},\n"));
    out.push_str(&format!("  \"overhead_ratio\": {overhead_ratio:.4},\n"));
    out.push_str(&format!(
        "  \"median_overhead_ratio\": {median_ratio:.4},\n"
    ));
    out.push_str(
        "  \"note\": \"overhead of the always-on flight ring over the mean fig3 lasso \
         chase, release builds; overhead_ratio compares per-case minima (the recorder \
         costs ~0.4us per span record, well under median run-to-run noise) and CI \
         gates it <= 0.02; median_overhead_ratio is the noisier median-based figure\",\n",
    );
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
    let mut f = std::fs::File::create(path).expect("create BENCH_flight.json");
    f.write_all(out.as_bytes())
        .expect("write BENCH_flight.json");
    println!("[E-FLIGHT] wrote {path}");
}

criterion_group!(
    benches,
    bench_primitives,
    bench_separation_overhead,
    bench_flight_overhead
);
criterion_main!(benches);
