//! # cqfd-obs — observability for determinacy workloads
//!
//! Everything this workspace runs — the chase toward the red spider, the
//! spider-query homomorphism searches, rainworm creep — is a long-running
//! *search*, and for searches instrumentation is what separates "slow"
//! from "diverging" (the chase of Theorem 1 may legitimately never stop).
//! This crate is the one observability layer the rest of the workspace
//! threads through:
//!
//! * [`registry`] — a lock-cheap metrics [`Registry`]: counters, gauges,
//!   and log-scale histograms (p50/p95/p99) behind typed handles. A handle
//!   is registered once (one short lock) and then updated with plain
//!   relaxed atomics — safe to share across pool workers;
//! * [`trace`] — a span/event tracing facade ([`span!`], [`event!`]) with
//!   a pluggable [`Subscriber`](trace::Subscriber). When no subscriber is
//!   installed and no capture is active, the macros cost one relaxed
//!   atomic load and allocate nothing. A thread-local capture turns one
//!   job's spans into JSONL trace lines (`cqfd-service`'s `trace=1`);
//! * [`prom`] — Prometheus text exposition of a registry [`Snapshot`]
//!   (label escaping, cumulative `le` buckets, `_sum`/`_count`);
//! * [`jsonl`] — the JSONL trace-line format and its parser, so traces
//!   round-trip for tooling and tests;
//! * [`time`] — [`Stopwatch`], the single wall-clock measurement primitive
//!   the workspace uses (chase runs, job execution, CLI reporting), so
//!   every `elapsed` figure shares one semantics.
//!
//! ```
//! use cqfd_obs::{span, Registry, Unit};
//!
//! let reg = Registry::new();
//! let jobs = reg.counter("demo_jobs_total", "Jobs seen.", &[("kind", "chase")]);
//! let latency = reg.histogram("demo_seconds", "Latency.", &[], Unit::Seconds);
//!
//! let _guard = span!("demo.work", kind = "chase"); // no-op: no subscriber
//! jobs.inc();
//! latency.observe_duration(std::time::Duration::from_micros(250));
//!
//! let text = cqfd_obs::prom::render(&reg.snapshot());
//! assert!(text.contains("demo_jobs_total{kind=\"chase\"} 1"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod jsonl;
pub mod profile;
pub mod prom;
pub mod registry;
pub mod time;
pub mod trace;

pub use registry::{
    Counter, Exemplar, FamilySnapshot, Gauge, Histogram, HistogramSnapshot, MetricKind, Registry,
    Snapshot, Unit, Value,
};
pub use time::Stopwatch;
pub use trace::{RecordKind, Subscriber, TraceRecord};

use std::sync::OnceLock;

/// The process-wide registry that the workspace's instrumentation points
/// (chase, hom search, oracle, pool) publish into, and that `cqfd metrics`
/// and the service `metrics` command expose.
///
/// Initialisation registers the `cqfd_build_info` gauge (value 1, labels
/// `version` and `profile`), so every scrape of the global registry —
/// CLI or gateway — identifies the binary it came from. The
/// workspace shares one version, so this crate's is the binary's.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let reg = Registry::new();
        reg.gauge(
            "cqfd_build_info",
            "Build identity of the scraped binary; always 1.",
            &[
                ("version", env!("CARGO_PKG_VERSION")),
                (
                    "profile",
                    if cfg!(debug_assertions) {
                        "debug"
                    } else {
                        "release"
                    },
                ),
            ],
        )
        .set(1);
        reg
    })
}
