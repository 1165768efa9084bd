//! Per-layer measurements, taken from outside the program.
//!
//! Three sources, none of which adds a span or a knob to the program:
//!
//! * **span** — the harness appends `trace=1` to every other timed deck
//!   and reads back the spans the program already emits (`job.execute`,
//!   `oracle.build`, `oracle.emit_certificate`, `chase.*`): [`SpanTotals`];
//! * **counter** — deltas of the gateway's `GET /metrics` scrape over the
//!   timed phase, per completed job;
//! * **call** — the harness times each layer's public function
//!   in-process over the workload's own job lines, weighted by how often
//!   each line occurs in a deck: [`measure_calls`].
//!
//! [`per_layer`] turns the three into the metrics named in
//! [`crate::PER_LAYER`].

use crate::json::{self, Value};
use crate::loadgen::{LoadStats, Proto, Sample};
use crate::prom::Scrape;
use crate::stats::{mean, percentile, ratio, sorted};
use cqfd_core::CancelToken;
use cqfd_greenred::DeterminacyOracle;
use cqfd_service::{Job, JobResult};
use cqfd_store::{Lookup, Store};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Span time summed over the traced timed jobs.
#[derive(Debug, Default)]
pub struct SpanTotals {
    /// Traced jobs seen (including kinds that emit no spans).
    pub jobs: u64,
    /// `job.execute` nanoseconds.
    pub exec_ns: f64,
    /// Nanoseconds of the spans directly under `job.execute`.
    pub children_ns: f64,
    /// Nanoseconds per span name, at any depth.
    pub by_name: BTreeMap<String, f64>,
}

impl SpanTotals {
    /// Adds one traced job's JSONL trace lines.
    pub fn add_job(&mut self, trace: &[&str]) {
        self.jobs += 1;
        for line in trace {
            let Ok(rec) = json::parse(line) else {
                continue;
            };
            if rec.get("type").and_then(Value::as_str) != Some("span_end") {
                continue;
            }
            let name = rec.get("name").and_then(Value::as_str).unwrap_or_default();
            let ns = rec.get("elapsed_ns").and_then(Value::as_f64).unwrap_or(0.0);
            let depth = rec.get("depth").and_then(Value::as_f64).unwrap_or(-1.0);
            *self.by_name.entry(name.to_string()).or_default() += ns;
            if depth == 0.0 && name == "job.execute" {
                self.exec_ns += ns;
            } else if depth == 1.0 {
                self.children_ns += ns;
            }
        }
    }

    /// Mean microseconds of span `name` per traced job.
    pub fn per_job_us(&self, name: &str) -> f64 {
        ratio(
            self.by_name.get(name).copied().unwrap_or(0.0),
            self.jobs as f64,
        ) / 1e3
    }
}

/// One deck line for call timing.
pub struct CallInput<'a> {
    /// The job line.
    pub line: &'a str,
    /// Its copies in the deck.
    pub copies: usize,
    /// Its in-process reference result.
    pub reference: &'a JobResult,
}

/// Call-timed layer costs: per-job means over the deck unless noted.
#[derive(Debug, Default, Clone)]
pub struct CallTimes {
    /// `cqfd_service::parse_request`.
    pub proto_parse_us: f64,
    /// `cqfd_service::lint_job` (run on the reactor thread).
    pub lint_gate_us: f64,
    /// `cqfd_gateway::http::parse_request` + `json::parse_object`.
    pub http_parse_us: f64,
    /// `JobResult::render_protocol`.
    pub render_us: f64,
    /// `dispatch::classify_for`, per determinacy-shaped job.
    pub classify_us: f64,
    /// `cqfd_analysis::psv::decide`, per determinacy-shaped job.
    pub crosscheck_us: f64,
    /// Classify time the executor spends, averaged over every job.
    pub classify_per_job_us: f64,
    /// Cross-check time the executor spends (routed project-select
    /// `determine` jobs only), averaged over every job.
    pub crosscheck_per_job_us: f64,
    /// `cqfd_service::job_key`, per cacheable job.
    pub job_key_us: f64,
    /// `Store::lookup` on a hit, per cacheable job.
    pub lookup_us: f64,
    /// `cqfd_cert::parse` + `check` of the stored certificate.
    pub check_us: f64,
    /// `Store::insert` (fsync'd), per cacheable job.
    pub insert_ms: f64,
    /// `cqfd_cert::encode`, per certificate.
    pub encode_us: f64,
    /// Certificate text bytes, per certificate.
    pub cert_bytes: f64,
    /// Entry file bytes in the scratch store, per entry.
    pub bytes_per_entry: f64,
}

/// Median wall time of `f` in microseconds over up to 15 calls, stopping
/// once 20 ms have been spent (a call slower than that is timed once).
fn time_us<T>(mut f: impl FnMut() -> T) -> f64 {
    let started = Instant::now();
    let mut v = Vec::new();
    while v.is_empty() || (v.len() < 15 && started.elapsed() < Duration::from_millis(20)) {
        let t = Instant::now();
        black_box(f());
        v.push(t.elapsed().as_secs_f64() * 1e6);
    }
    crate::stats::median(&v)
}

/// A copies-weighted mean accumulator.
#[derive(Default)]
struct Weighted {
    sum: f64,
    n: f64,
}

impl Weighted {
    fn add(&mut self, value: f64, copies: usize) {
        self.sum += value * copies as f64;
        self.n += copies as f64;
    }

    fn mean(&self) -> f64 {
        ratio(self.sum, self.n)
    }
}

/// Store entries larger than this are left out of the store and
/// certificate call timings. The trusted checker's cost grows much
/// faster than the certificate: re-checking the 195 KB counter-model of
/// `counterexample instance=mismatch:7x32` takes about 28 s, where
/// computing it takes 66 ms. Every `warm_cache` entry is below the cap.
pub const ENTRY_BYTES_CAP: u64 = 64 * 1024;

/// Times every layer's public function over the deck's lines. The store
/// calls run against a scratch store in `scratch` that this populates
/// by executing each cacheable line once.
pub fn measure_calls(deck: &[CallInput], scratch: &Path) -> Result<CallTimes, String> {
    let store = Store::open(scratch).map_err(|e| format!("scratch store: {e}"))?;
    let cancel = CancelToken::new();
    let limits = cqfd_gateway::http::Limits::default();
    let (mut parse, mut lint, mut http, mut render) = Default::default();
    let (mut classify, mut cross, mut classify_all, mut cross_all) = Default::default();
    let (mut key, mut lookup, mut check, mut insert, mut encode, mut bytes) = Default::default();
    let w = |acc: &mut Weighted, v: f64, c: usize| acc.add(v, c);
    for input in deck {
        let c = input.copies;
        w(
            &mut parse,
            time_us(|| cqfd_service::parse_request(input.line)),
            c,
        );
        let job = cqfd_service::parse_job(input.line)?
            .ok_or_else(|| format!("`{}` is not a job", input.line))?;
        w(&mut lint, time_us(|| cqfd_service::lint_job(&job)), c);
        let req = crate::loadgen::encode(Proto::Http, input.line);
        w(
            &mut http,
            time_us(|| match cqfd_gateway::http::parse_request(&req, &limits) {
                cqfd_gateway::http::Parse::Complete { value, .. } => {
                    cqfd_gateway::json::parse_object(&value.body).is_ok()
                }
                _ => false,
            }),
            c,
        );
        w(
            &mut render,
            time_us(|| input.reference.render_protocol()),
            c,
        );

        let shaped = match &job {
            Job::Determine {
                sig,
                views,
                q0,
                budget,
            } => Some((sig, views, q0, budget.dispatch.routes())),
            Job::CounterexampleSearch { sig, views, q0, .. } => Some((sig, views, q0, false)),
            _ => None,
        };
        match shaped {
            Some((sig, views, q0, routes)) => {
                let oracle = DeterminacyOracle::new(sig.clone());
                let fragment = cqfd_service::dispatch::classify_for(&oracle, views, q0).fragment;
                let t_classify =
                    time_us(|| cqfd_service::dispatch::classify_for(&oracle, views, q0));
                let base = oracle.greenred().base();
                let t_cross =
                    time_us(|| cqfd_analysis::psv::decide(base, views, q0, Default::default()));
                w(&mut classify, t_classify, c);
                w(&mut cross, t_cross, c);
                w(&mut classify_all, t_classify, c);
                let runs_psv = routes && fragment == cqfd_analysis::Fragment::ProjectSelect;
                w(&mut cross_all, if runs_psv { t_cross } else { 0.0 }, c);
            }
            None => {
                w(&mut classify_all, 0.0, c);
                w(&mut cross_all, 0.0, c);
            }
        }

        let Some(k) = cqfd_service::job_key(&job) else {
            continue;
        };
        w(&mut key, time_us(|| cqfd_service::job_key(&job)), c);
        // Execute against the scratch store: a miss forces the
        // certificate and writes the entry back.
        cqfd_service::execute_stored(0, &job, &cancel, 1, Some(&store), false);
        let entry_bytes = std::fs::metadata(store.entry_path(&k.hash)).map_or(0, |m| m.len());
        if entry_bytes == 0 || entry_bytes > ENTRY_BYTES_CAP {
            continue;
        }
        let Lookup::Hit(entry) = store.lookup(&k, job.kind()) else {
            continue;
        };
        w(&mut lookup, time_us(|| store.lookup(&k, job.kind())), c);
        w(
            &mut check,
            time_us(|| cqfd_cert::parse(&entry.cert_text).map(|cert| cqfd_cert::check(&cert))),
            c,
        );
        let cert = cqfd_cert::parse(&entry.cert_text)?;
        w(&mut encode, time_us(|| cqfd_cert::encode(&cert)), c);
        w(&mut bytes, entry.cert_text.len() as f64, c);
        let t_insert = time_us(|| {
            store
                .insert(&k, job.kind(), &entry.result_line, &entry.cert_text)
                .is_ok()
        });
        w(&mut insert, t_insert / 1e3, c);
    }
    let stat = store
        .stat()
        .map_err(|e| format!("scratch store stat: {e}"))?;
    Ok(CallTimes {
        proto_parse_us: parse.mean(),
        lint_gate_us: lint.mean(),
        http_parse_us: http.mean(),
        render_us: render.mean(),
        classify_us: classify.mean(),
        crosscheck_us: cross.mean(),
        classify_per_job_us: classify_all.mean(),
        crosscheck_per_job_us: cross_all.mean(),
        job_key_us: key.mean(),
        lookup_us: lookup.mean(),
        check_us: check.mean(),
        insert_ms: insert.mean(),
        encode_us: encode.mean(),
        cert_bytes: bytes.mean(),
        bytes_per_entry: ratio(stat.entry_bytes as f64, stat.entries as f64),
    })
}

fn p50_s(samples: &[Sample], keep: impl Fn(&Sample) -> bool) -> f64 {
    let v = sorted(
        samples
            .iter()
            .filter(|s| keep(s))
            .map(|s| s.latency_s)
            .collect(),
    );
    percentile(&v, 50.0).unwrap_or(0.0)
}

/// The [`crate::PER_LAYER`] metrics of one traced run, in table order.
pub fn per_layer(stats: &LoadStats, c: &Scrape, calls: &CallTimes) -> Vec<(&'static str, f64)> {
    let jobs = stats.replies as f64;
    let per_job = |name: &str| ratio(c.get(name), jobs);
    let lags = sorted(stats.lags_s.clone());
    let all = sorted(stats.samples.iter().map(|s| s.latency_s).collect());
    let traced: Vec<&Sample> = stats.samples.iter().filter(|s| s.traced).collect();
    let traced_mean_us = mean(&traced.iter().map(|s| s.latency_s).collect::<Vec<_>>()) * 1e6;
    let http_share = ratio(
        traced.iter().filter(|s| s.proto == Proto::Http).count() as f64,
        traced.len() as f64,
    );
    let spans = &stats.spans;
    let exec_us = ratio(spans.exec_ns, spans.jobs as f64) / 1e3;
    let children_us = ratio(spans.children_ns, spans.jobs as f64) / 1e3;
    let queue_wait_us = ratio(
        c.get("cqfd_gateway_queue_wait_seconds_sum"),
        c.get("cqfd_gateway_queue_wait_seconds_count"),
    ) * 1e6;
    let untraced_p50 = p50_s(&stats.samples, |s| !s.traced);
    let traced_p50 = p50_s(&stats.samples, |s| s.traced);
    // What the spans and call timings account for of a traced job's
    // end-to-end time. The gateway's queue-wait histogram includes the
    // pool's store probe, so hits are covered there.
    let covered_us = exec_us
        + queue_wait_us
        + calls.proto_parse_us
        + calls.lint_gate_us
        + calls.render_us
        + http_share * calls.http_parse_us;
    let hits = c.get("cqfd_store_cache_hits_total");
    let hit_share = ratio(hits, hits + c.get("cqfd_store_cache_misses_total"));
    // Store hits never reach the executor, so they classify nothing.
    let executed_share = 1.0 - hit_share;
    let plan_hits = c.get("cqfd_homplan_cache_hits_total");
    vec![
        (
            "loadgen.lag_p90_ms",
            percentile(&lags, 90.0).unwrap_or(0.0) * 1e3,
        ),
        (
            "loadgen.latency_p99_ms",
            percentile(&all, 99.0).unwrap_or(0.0) * 1e3,
        ),
        ("gateway.self_us", traced_mean_us - exec_us - queue_wait_us),
        ("gateway.queue_wait_us", queue_wait_us),
        (
            "gateway.http_minus_line_p50_us",
            (p50_s(&stats.samples, |s| !s.traced && s.proto == Proto::Http)
                - p50_s(&stats.samples, |s| !s.traced && s.proto == Proto::Line))
                * 1e6,
        ),
        ("gateway.http_parse_us", calls.http_parse_us),
        ("gateway.sheds", c.get("cqfd_gateway_sheds_total")),
        ("proto.parse_us", calls.proto_parse_us),
        ("lint.gate_us", calls.lint_gate_us),
        ("dispatch.classify_us", calls.classify_us),
        ("dispatch.crosscheck_us", calls.crosscheck_us),
        (
            "dispatch.routed_share",
            ratio(
                c.get("cqfd_dispatch_routed_total"),
                c.get("cqfd_dispatch_classified_total"),
            ),
        ),
        (
            "pool.exec_ms",
            ratio(
                c.get("cqfd_pool_job_seconds_sum"),
                c.get("cqfd_pool_job_seconds_count"),
            ) * 1e3,
        ),
        (
            "exec.self_us",
            exec_us
                - children_us
                - executed_share * (calls.classify_per_job_us + calls.crosscheck_per_job_us),
        ),
        ("render.us", calls.render_us),
        (
            "reply.bytes_mean",
            ratio(stats.reply_bytes as f64, stats.replies as f64),
        ),
        ("store.job_key_us", calls.job_key_us),
        ("store.lookup_us", calls.lookup_us),
        ("store.check_us", calls.check_us),
        ("store.insert_ms", calls.insert_ms),
        ("store.hit_share", hit_share),
        ("store.rejects", c.get("cqfd_store_checker_rejects_total")),
        ("store.bytes_per_entry", calls.bytes_per_entry),
        ("oracle.build_ms", spans.per_job_us("oracle.build") / 1e3),
        (
            "oracle.emit_certificate_ms",
            spans.per_job_us("oracle.emit_certificate") / 1e3,
        ),
        (
            "chase.enumerate_ms_per_job",
            per_job("cqfd_chase_stage_enumerate_seconds_sum") * 1e3,
        ),
        (
            "chase.apply_ms_per_job",
            per_job("cqfd_chase_stage_apply_seconds_sum") * 1e3,
        ),
        ("chase.stages_per_job", per_job("cqfd_chase_stages_total")),
        (
            "chase.triggers_per_job",
            per_job("cqfd_chase_triggers_total"),
        ),
        (
            "chase.firing_share",
            ratio(
                c.get("cqfd_chase_firings_total"),
                c.get("cqfd_chase_triggers_total"),
            ),
        ),
        ("chase.atoms_per_job", per_job("cqfd_chase_atoms_total")),
        ("hom.nodes_per_job", per_job("cqfd_hom_search_nodes_total")),
        (
            "hom.backtracks_per_job",
            per_job("cqfd_hom_search_backtracks_total"),
        ),
        (
            "hom.intersection_steps_per_job",
            per_job("cqfd_hom_intersection_steps_total"),
        ),
        (
            "hom.plan_cache_hit_share",
            ratio(
                plan_hits,
                plan_hits + c.get("cqfd_homplan_cache_misses_total"),
            ),
        ),
        ("cert.encode_us", calls.encode_us),
        ("cert.bytes_per_cert", calls.cert_bytes),
        (
            "trace.overhead_share",
            if untraced_p50 > 0.0 && traced_p50 > 0.0 {
                traced_p50 / untraced_p50 - 1.0
            } else {
                0.0
            },
        ),
        (
            "trace.unattributed_share",
            if traced_mean_us > 0.0 {
                1.0 - covered_us / traced_mean_us
            } else {
                0.0
            },
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_split_execute_from_its_children() {
        let trace = [
            r#"{"seq":1,"depth":0,"job":1,"type":"span_start","name":"job.execute","fields":{}}"#,
            r#"{"seq":2,"depth":1,"job":1,"type":"span_end","name":"oracle.certify_run","elapsed_ns":600,"fields":{}}"#,
            r#"{"seq":3,"depth":2,"job":1,"type":"span_end","name":"oracle.build","elapsed_ns":100,"fields":{}}"#,
            r#"{"seq":4,"depth":0,"job":1,"type":"span_end","name":"job.execute","elapsed_ns":1000,"fields":{}}"#,
        ];
        let mut s = SpanTotals::default();
        s.add_job(&trace);
        s.add_job(&[]);
        assert_eq!(s.jobs, 2);
        assert_eq!(s.exec_ns, 1000.0);
        assert_eq!(s.children_ns, 600.0);
        assert_eq!(s.per_job_us("oracle.build"), 0.05);
    }

    #[test]
    fn every_per_layer_metric_is_produced_in_table_order() {
        let stats = LoadStats::default();
        let names: Vec<&str> = per_layer(&stats, &Scrape::default(), &CallTimes::default())
            .into_iter()
            .map(|(n, v)| {
                assert!(v.is_finite(), "{n}");
                n
            })
            .collect();
        let table: Vec<&str> = crate::PER_LAYER.iter().map(|d| d.name).collect();
        assert_eq!(names, table);
    }
}
