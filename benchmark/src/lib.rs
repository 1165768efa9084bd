//! # cqfd-layers — the end-to-end and per-layer benchmark of the gateway
//!
//! One harness (`layers`, in `src/bin/`) drives seeded job mixes through
//! the real `cqfd_gateway::Gateway` on loopback, checks every answer, and
//! reports:
//!
//! * **end-to-end** metrics — what a client of the service sees: set-up
//!   time, job latency (median and tail), throughput, server CPU per job
//!   and peak server memory — measured with tracing off;
//! * **per-layer** metrics — where a job's time goes, measured from
//!   outside the program in a separate traced run: counters scraped from
//!   `GET /metrics`, spans the program already emits on `trace=1`, and
//!   calls into each layer's public functions timed in-process.
//!
//! The modules hold everything but argument parsing:
//!
//! * [`workload`] — the four workloads, their seeded job decks and
//!   arrival schedules;
//! * [`loadgen`] — the client: two connections (one line protocol, one
//!   HTTP/JSON) driven open- or closed-loop from one epoll loop;
//! * [`normalize`] — reply masking and the paper's verdict facts;
//! * [`layers`] — span, counter and call-timed layer measurements;
//! * [`run`] — the server side of a run: set-up, the client child, and
//!   the assembled report;
//! * [`stats`], [`prom`], [`json`] — percentiles, Prometheus text and a
//!   small JSON reader/writer.
//!
//! The metric and workload names below are the ones `BENCHMARK.json`
//! lists; `tests/benchmark_json.rs` keeps the two in step.

#![forbid(unsafe_code)]

pub mod json;
pub mod layers;
pub mod loadgen;
pub mod normalize;
pub mod prom;
pub mod run;
pub mod stats;
pub mod workload;

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, bytes, counts of work).
    Lower,
    /// Larger is better (throughput, useful-work ratios).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric's name, unit and direction.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// The name printed on `METRIC` lines and used in `BENCHMARK.json`.
    pub name: &'static str,
    /// The unit printed beside every value.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", Lower),
    m("latency_p50_ms", "ms", Lower),
    m("latency_p90_ms", "ms", Lower),
    m("throughput_jobs_per_s", "jobs/s", Higher),
    m("server_cpu_ms_per_job", "ms", Lower),
    m("peak_rss_mb", "MiB", Lower),
];

/// Per-layer metrics, printed by every traced run. Layer prefixes follow
/// the repository's modules.
pub const PER_LAYER: &[MetricDef] = &[
    m("loadgen.lag_p90_ms", "ms", Lower),
    m("loadgen.latency_p99_ms", "ms", Lower),
    m("gateway.self_us", "us", Lower),
    m("gateway.queue_wait_us", "us", Lower),
    m("gateway.http_minus_line_p50_us", "us", Lower),
    m("gateway.http_parse_us", "us", Lower),
    m("gateway.sheds", "count", Lower),
    m("proto.parse_us", "us", Lower),
    m("lint.gate_us", "us", Lower),
    m("dispatch.classify_us", "us", Lower),
    m("dispatch.crosscheck_us", "us", Lower),
    m("dispatch.routed_share", "ratio", Higher),
    m("pool.exec_ms", "ms", Lower),
    m("exec.self_us", "us", Lower),
    m("render.us", "us", Lower),
    m("reply.bytes_mean", "bytes", Lower),
    m("store.job_key_us", "us", Lower),
    m("store.lookup_us", "us", Lower),
    m("store.check_us", "us", Lower),
    m("store.insert_ms", "ms", Lower),
    m("store.hit_share", "ratio", Higher),
    m("store.rejects", "count", Lower),
    m("store.bytes_per_entry", "bytes", Lower),
    m("oracle.build_ms", "ms", Lower),
    m("oracle.emit_certificate_ms", "ms", Lower),
    m("chase.enumerate_ms_per_job", "ms", Lower),
    m("chase.apply_ms_per_job", "ms", Lower),
    m("chase.stages_per_job", "count", Lower),
    m("chase.triggers_per_job", "count", Lower),
    m("chase.firing_share", "ratio", Higher),
    m("chase.atoms_per_job", "count", Lower),
    m("hom.nodes_per_job", "count", Lower),
    m("hom.backtracks_per_job", "count", Lower),
    m("hom.intersection_steps_per_job", "count", Lower),
    m("hom.plan_cache_hit_share", "ratio", Higher),
    m("cert.encode_us", "us", Lower),
    m("cert.bytes_per_cert", "bytes", Lower),
    m("trace.overhead_share", "ratio", Lower),
    m("trace.unattributed_share", "ratio", Lower),
];

/// Worker threads in the gateway's pool: the core count of the host the
/// baseline was measured on, so the pool neither idles a core nor
/// oversubscribes one.
pub const POOL_WORKERS: usize = 2;

/// Connections the client opens: one line protocol, one HTTP/JSON.
pub const CONNECTIONS: usize = 2;

/// Looks a metric up in both tables.
pub fn metric_def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Where the harness writes its report and temporary stores:
/// `$CARGO_TARGET_DIR/cqfd-bench`, else `target/cqfd-bench`, relative to
/// the working directory. Nothing is written anywhere else.
pub fn out_dir() -> std::path::PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    std::path::PathBuf::from(target).join("cqfd-bench")
}
