//! The line protocol shared by `cqfd batch` job files and the gateway.
//!
//! One job per line: a kind tag followed by `key=value` pairs; values with
//! spaces are double-quoted. Blank lines and `#` comments are skipped.
//!
//! ```text
//! determine sig=R/2,S/2 view="V1(x,y) :- R(x,y)" view="V2(x,y) :- S(x,y)" query="Q0(x,z) :- R(x,y), S(y,z)"
//! determine instance=path:2x3 stages=48
//! determine instance=projection
//! rewrite sig=R/2 view="V(x,z) :- R(x,y), R(y,z)" query="Q0(a,e) :- R(a,b), R(b,c), R(c,d), R(d,e)"
//! creep worm=counter:3 steps=100000
//! creep worm=forever steps=max timeout-ms=1000
//! reduce worm=forever
//! separate stages=80
//! counterexample sig=R/2 view="V(x) :- R(x,y)" query="Q0(x,y) :- R(x,y)" nodes=3
//! ```
//!
//! Results go back as the one-line rendering of
//! [`JobResult`](crate::JobResult)'s `Display` impl.

use crate::job::{Job, JobBudget};
use cqfd_core::{Cq, HomEngine, Signature};
use cqfd_greenred::instances;
use cqfd_rainworm::encode::tm_to_rainworm;
use cqfd_rainworm::families::{counter_worm, forever_worm, halting_worm_short};
use cqfd_rainworm::tm::TuringMachine;
use cqfd_rainworm::Delta;
use std::time::Duration;

/// Splits a protocol line into tokens, honoring double quotes inside
/// `key="value with spaces"` pairs.
fn tokenize(line: &str) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_quotes = false;
    for c in line.chars() {
        match c {
            '"' => in_quotes = !in_quotes,
            c if c.is_whitespace() && !in_quotes => {
                if !cur.is_empty() {
                    out.push(std::mem::take(&mut cur));
                }
            }
            c => cur.push(c),
        }
    }
    if in_quotes {
        return Err("unterminated quote".into());
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    Ok(out)
}

/// Key/value view of one line's tokens (after the kind tag).
struct Fields {
    pairs: Vec<(String, String)>,
}

impl Fields {
    fn parse(tokens: &[String]) -> Result<Fields, String> {
        let mut pairs = Vec::new();
        for t in tokens {
            let (k, v) = t
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got `{t}`"))?;
            pairs.push((k.to_string(), v.to_string()));
        }
        Ok(Fields { pairs })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn get_all(&self, key: &str) -> Vec<&str> {
        self.pairs
            .iter()
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing {key}="))
    }

    /// Rejects keys outside the allowed set, so typos fail loudly instead
    /// of silently running with defaults.
    fn check_keys(&self, allowed: &[&str]) -> Result<(), String> {
        for (k, _) in &self.pairs {
            if !allowed.contains(&k.as_str()) {
                return Err(format!(
                    "unknown key `{k}` (allowed: {})",
                    allowed.join(", ")
                ));
            }
        }
        Ok(())
    }

    fn usize_or(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.get(key) {
            None => Ok(default),
            Some("max") => Ok(usize::MAX),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad {key}=`{v}` (want an unsigned integer or `max`)")),
        }
    }

    /// A boolean `key=0/1/true/false` flag, absent meaning false.
    fn flag(&self, key: &str) -> Result<bool, String> {
        match self.get(key) {
            None | Some("0") | Some("false") => Ok(false),
            Some("1") | Some("true") => Ok(true),
            Some(v) => Err(format!("bad {key}=`{v}` (want 0/1/true/false)")),
        }
    }

    /// The `cert=` flag: request a certificate payload on the result.
    fn cert_flag(&self) -> Result<bool, String> {
        self.flag("cert")
    }

    /// The `trace=` flag: request a JSONL execution trace on the result.
    fn trace_flag(&self) -> Result<bool, String> {
        self.flag("trace")
    }

    /// The `lint=` flag: request a `cqfd-lint` diagnostics payload on the
    /// result.
    fn lint_flag(&self) -> Result<bool, String> {
        self.flag("lint")
    }

    /// The `cache=` flag: consult/populate the configured result store.
    /// Unlike the other flags this one defaults to **true** — `cache=0`
    /// opts a job out of the store.
    fn cache_flag(&self) -> Result<bool, String> {
        match self.get("cache") {
            None | Some("1") | Some("true") => Ok(true),
            Some("0") | Some("false") => Ok(false),
            Some(v) => Err(format!("bad cache=`{v}` (want 0/1/true/false)")),
        }
    }

    /// The `resume=` flag: maintain (and resume from) a write-ahead stage
    /// log for the job's chase.
    fn resume_flag(&self) -> Result<bool, String> {
        self.flag("resume")
    }

    /// The `threads=` key: chase enumeration worker threads. Must be a
    /// positive integer — `threads=0` is a contradiction, not "default".
    fn threads(&self) -> Result<usize, String> {
        match self.get("threads") {
            None => Ok(1),
            Some(v) => match v.parse::<usize>() {
                Ok(n) if n >= 1 => Ok(n),
                _ => Err(format!("bad threads=`{v}` (want a positive integer)")),
            },
        }
    }

    /// The `hom=` key: the homomorphism search engine for chase-based
    /// jobs. Absent means the default (worst-case-optimal) engine.
    fn hom_engine(&self) -> Result<HomEngine, String> {
        match self.get("hom") {
            None => Ok(HomEngine::default()),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad hom=`{v}` (want legacy | wco)")),
        }
    }

    /// The `dispatch=` key: the fragment-dispatch mode for
    /// determinacy-shaped jobs. Absent means the default (`auto`).
    fn dispatch(&self) -> Result<crate::dispatch::Dispatch, String> {
        match self.get("dispatch") {
            None => Ok(crate::dispatch::Dispatch::default()),
            Some(v) => crate::dispatch::Dispatch::parse(v)
                .ok_or_else(|| format!("bad dispatch=`{v}` (want semi | auto | forced:A3xx)")),
        }
    }

    /// The `worm=` spec, with parse errors naming the key and value.
    fn worm(&self) -> Result<Delta, String> {
        let spec = self.require("worm")?;
        parse_worm(spec).map_err(|e| format!("bad worm=`{spec}`: {e}"))
    }

    /// The common budget keys: `stages=`, `steps=`, `nodes=`, `timeout-ms=`,
    /// `cert=`, `trace=`, `lint=`, `threads=`, `cache=`, `resume=`, `hom=`.
    fn budget(&self) -> Result<JobBudget, String> {
        let d = JobBudget::default();
        let timeout = match self.get("timeout-ms") {
            None => None,
            Some(ms) => {
                let ms: u64 = ms
                    .parse()
                    .map_err(|_| format!("bad timeout-ms=`{ms}` (want milliseconds)"))?;
                Some(Duration::from_millis(ms))
            }
        };
        Ok(JobBudget {
            max_stages: self.usize_or("stages", d.max_stages)?,
            max_steps: self.usize_or("steps", d.max_steps)?,
            max_search_nodes: self.usize_or("nodes", d.max_search_nodes)?,
            timeout,
            emit_certificate: self.cert_flag()?,
            emit_trace: self.trace_flag()?,
            threads: self.threads()?,
            emit_lint: self.lint_flag()?,
            use_cache: self.cache_flag()?,
            resume: self.resume_flag()?,
            hom_engine: self.hom_engine()?,
            dispatch: self.dispatch()?,
        })
    }
}

/// Parses a worm spec: `forever`, `short`, `counter:M`, `tm-walker:K`,
/// `tm-zigzag:K`.
pub fn parse_worm(spec: &str) -> Result<Delta, String> {
    if let Some(m) = spec.strip_prefix("counter:") {
        return match m.parse::<u16>() {
            Ok(m) if m >= 1 => Ok(counter_worm(m)),
            _ => Err(format!("bad counter parameter `{m}` (want 1..=65535)")),
        };
    }
    if let Some(k) = spec.strip_prefix("tm-walker:") {
        // `k + 1` states must fit the machine's u16 state ids.
        return match k.parse::<u16>() {
            Ok(k) if k < u16::MAX => Ok(tm_to_rainworm(&TuringMachine::right_walker(k))),
            _ => Err(format!("bad walker parameter `{k}` (want 0..=65534)")),
        };
    }
    if let Some(k) = spec.strip_prefix("tm-zigzag:") {
        return match k.parse::<u16>() {
            Ok(k) if (2..u16::MAX).contains(&k) => Ok(tm_to_rainworm(&TuringMachine::zigzag(k))),
            _ => Err(format!("bad zigzag parameter `{k}` (want 2..=65534)")),
        };
    }
    match spec {
        "forever" => Ok(forever_worm()),
        "short" => Ok(halting_worm_short()),
        other => Err(format!("unknown worm `{other}`")),
    }
}

/// Parses a signature spec `P/k,...` (same syntax as the CLI `--sig`).
pub fn parse_sig(spec: &str) -> Result<Signature, String> {
    let mut sig = Signature::new();
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (name, arity) = part
            .split_once('/')
            .ok_or_else(|| format!("bad predicate spec `{part}` (want Name/arity)"))?;
        let arity: usize = arity
            .parse()
            .map_err(|_| format!("bad arity in `{part}`"))?;
        sig.try_add_predicate(name.trim(), arity)
            .map_err(|e| e.to_string())?;
    }
    Ok(sig)
}

/// Resolves an `instance=` shortcut into the generated families of
/// `cqfd_greenred::instances`: `projection`, `path:MxK` (determined),
/// `mismatch:MxK` (not determined).
fn parse_instance(spec: &str) -> Result<instances::Instance, String> {
    fn mxk(s: &str) -> Result<(usize, usize), String> {
        let (m, k) = s
            .split_once('x')
            .ok_or_else(|| format!("want MxK in `{s}`"))?;
        let m = m.parse().map_err(|_| format!("bad M in `{s}`"))?;
        let k = k.parse().map_err(|_| format!("bad K in `{s}`"))?;
        Ok((m, k))
    }
    if spec == "projection" {
        return Ok(instances::projection_instance());
    }
    if let Some(rest) = spec.strip_prefix("path:") {
        let (m, k) = mxk(rest)?;
        if m < 1 || k < 1 {
            return Err("path:MxK needs M,K ≥ 1".into());
        }
        return Ok(instances::composed_path_instance(m, k));
    }
    if let Some(rest) = spec.strip_prefix("mismatch:") {
        let (m, k) = mxk(rest)?;
        if m < 2 || k.is_multiple_of(m) {
            return Err("mismatch:MxK needs M ≥ 2 and M ∤ K".into());
        }
        return Ok(instances::mismatched_path_instance(m, k));
    }
    Err(format!(
        "unknown instance `{spec}` (want projection | path:MxK | mismatch:MxK)"
    ))
}

/// The `(sig, views, q0)` triple from either an `instance=` shortcut or
/// explicit `sig=`/`view=`/`query=` keys.
fn parse_cq_inputs(f: &Fields) -> Result<(Signature, Vec<Cq>, Cq), String> {
    if let Some(spec) = f.get("instance") {
        let inst = parse_instance(spec).map_err(|e| format!("bad instance=`{spec}`: {e}"))?;
        return Ok((inst.sig, inst.views, inst.q0));
    }
    let sig_spec = f.require("sig")?;
    let sig = parse_sig(sig_spec).map_err(|e| format!("bad sig=`{sig_spec}`: {e}"))?;
    let views: Vec<Cq> = f
        .get_all("view")
        .into_iter()
        .map(|v| Cq::parse(&sig, v).map_err(|e| format!("bad view=`{v}`: {e}")))
        .collect::<Result<_, _>>()?;
    if views.is_empty() {
        return Err("at least one view= required".into());
    }
    // Each view name is a predicate of the view signature, so one name
    // cannot take two arities.
    for (i, v) in views.iter().enumerate() {
        if let Some(w) = views[..i].iter().find(|w| w.name == v.name) {
            if w.arity() != v.arity() {
                return Err(format!(
                    "view `{}` declared with arity {} and again with {}",
                    v.name,
                    w.arity(),
                    v.arity()
                ));
            }
        }
    }
    let q_spec = f.require("query")?;
    let q0 = Cq::parse(&sig, q_spec).map_err(|e| format!("bad query=`{q_spec}`: {e}"))?;
    Ok((sig, views, q0))
}

/// The tenant a request without a `tenant=` key (or header) bills to.
pub const DEFAULT_TENANT: &str = "anon";

/// Which gateway dispatch lane a request asks for. The lanes only exist
/// in the gateway reactor; everywhere else the field is parsed, checked,
/// and ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// The default, low-latency lane.
    #[default]
    Interactive,
    /// The bulk lane: dispatched only when the interactive lane is empty.
    Batch,
}

impl Priority {
    /// Parses `interactive` / `batch`.
    pub fn parse(s: &str) -> Result<Priority, String> {
        match s {
            "interactive" => Ok(Priority::Interactive),
            "batch" => Ok(Priority::Batch),
            other => Err(format!("bad priority=`{other}` (want interactive | batch)")),
        }
    }
}

/// A parsed protocol line: the [`Job`] plus its routing metadata. The
/// metadata keys (`tenant=`, `priority=`, `stream=`) may appear anywhere
/// after the kind tag and are stripped before job parsing, so they are
/// valid on every job kind and never reach the job itself — two requests
/// differing only in metadata run byte-identically.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// The job to run.
    pub job: Job,
    /// Billing/quota identity (`tenant=`, default [`DEFAULT_TENANT`]).
    pub tenant: String,
    /// Requested dispatch lane (`priority=`, default interactive).
    pub priority: Priority,
    /// Stream obs trace records to the client while the job runs
    /// (`stream=1`); the gateway delivers them.
    pub stream: bool,
}

/// Is this key request routing metadata rather than part of the job?
fn is_meta_key(token: &str) -> bool {
    ["tenant=", "priority=", "stream="]
        .iter()
        .any(|p| token.starts_with(p))
}

/// Parses one protocol line into a [`JobRequest`] (job + routing
/// metadata). Returns `Ok(None)` for blank lines and `#` comments.
pub fn parse_request(line: &str) -> Result<Option<JobRequest>, String> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut tokens = tokenize(line)?;
    let mut tenant = DEFAULT_TENANT.to_string();
    let mut priority = Priority::default();
    let mut stream = false;
    // The kind tag stays put; metadata keys are peeled off the rest.
    let meta: Vec<String> = tokens
        .iter()
        .skip(1)
        .filter(|t| is_meta_key(t))
        .cloned()
        .collect();
    tokens.retain_first_and(|t| !is_meta_key(t));
    for token in &meta {
        let (key, value) = token.split_once('=').expect("meta tokens carry `=`");
        match key {
            "tenant" => {
                if value.is_empty()
                    || !value
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.')
                {
                    return Err(format!("bad tenant=`{value}` (want [A-Za-z0-9._-]+)"));
                }
                tenant = value.to_string();
            }
            "priority" => priority = Priority::parse(value)?,
            "stream" => {
                stream = match value {
                    "0" | "false" => false,
                    "1" | "true" => true,
                    other => return Err(format!("bad stream=`{other}` (want 0/1/true/false)")),
                }
            }
            _ => unreachable!("is_meta_key admits only the three keys"),
        }
    }
    let Some(job) = parse_job_tokens(tokens)? else {
        return Ok(None);
    };
    Ok(Some(JobRequest {
        job,
        tenant,
        priority,
        stream,
    }))
}

/// `Vec::retain` that always keeps element 0 (the kind tag).
trait RetainFirst {
    fn retain_first_and(&mut self, keep: impl Fn(&str) -> bool);
}

impl RetainFirst for Vec<String> {
    fn retain_first_and(&mut self, keep: impl Fn(&str) -> bool) {
        let mut idx = 0;
        self.retain(|t| {
            let first = idx == 0;
            idx += 1;
            first || keep(t)
        });
    }
}

/// Parses one protocol line into a [`Job`]. Returns `Ok(None)` for blank
/// lines and `#` comments. Routing metadata (`tenant=` etc.) is rejected
/// here — job files are jobs, not requests; use [`parse_request`] on the
/// wire.
pub fn parse_job(line: &str) -> Result<Option<Job>, String> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    parse_job_tokens(tokenize(line)?)
}

fn parse_job_tokens(tokens: Vec<String>) -> Result<Option<Job>, String> {
    // A line of only quotes (`""`) is non-blank yet has no tokens.
    let Some((kind, rest)) = tokens.split_first() else {
        return Err("empty job line (no kind tag)".into());
    };
    let f = Fields::parse(rest)?;
    let job = match kind.as_str() {
        "determine" => {
            f.check_keys(&[
                "sig",
                "view",
                "query",
                "instance",
                "stages",
                "timeout-ms",
                "cert",
                "trace",
                "lint",
                "threads",
                "cache",
                "resume",
                "hom",
                "dispatch",
            ])?;
            let (sig, views, q0) = parse_cq_inputs(&f)?;
            Job::Determine {
                sig,
                views,
                q0,
                budget: f.budget()?,
            }
        }
        "rewrite" => {
            f.check_keys(&["sig", "view", "query", "instance"])?;
            let (sig, views, q0) = parse_cq_inputs(&f)?;
            Job::Rewrite { sig, views, q0 }
        }
        "reduce" => {
            f.check_keys(&["worm"])?;
            Job::Reduce { delta: f.worm()? }
        }
        "creep" => {
            f.check_keys(&[
                "worm",
                "steps",
                "timeout-ms",
                "cert",
                "trace",
                "lint",
                "cache",
            ])?;
            Job::Creep {
                delta: f.worm()?,
                budget: f.budget()?,
            }
        }
        "separate" => {
            f.check_keys(&["stages", "cert", "trace", "lint", "threads", "cache", "hom"])?;
            // The lasso chase needs ~80 stages to exhibit the 1-2 pattern,
            // so `separate` defaults higher than the generic budget.
            Job::Separate {
                budget: JobBudget::default()
                    .with_stages(f.usize_or("stages", 80)?)
                    .with_certificate(f.cert_flag()?)
                    .with_trace(f.trace_flag()?)
                    .with_lint(f.lint_flag()?)
                    .with_threads(f.threads()?)
                    .with_cache(f.cache_flag()?)
                    .with_hom_engine(f.hom_engine()?),
            }
        }
        "counterexample" => {
            f.check_keys(&[
                "sig", "view", "query", "instance", "nodes", "cert", "trace", "lint", "cache",
                "dispatch",
            ])?;
            let (sig, views, q0) = parse_cq_inputs(&f)?;
            Job::CounterexampleSearch {
                sig,
                views,
                q0,
                budget: f.budget()?,
            }
        }
        other => return Err(format!("unknown job kind `{other}`")),
    };
    Ok(Some(job))
}

/// Parses a whole job file (one job per line), reporting the first error
/// with its 1-based line number.
pub fn parse_jobs(text: &str) -> Result<Vec<Job>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        match parse_job(line) {
            Ok(Some(job)) => out.push(job),
            Ok(None) => {}
            Err(e) => return Err(format!("line {}: {e}", i + 1)),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quoted_views_parse() {
        let job = parse_job(
            r#"determine sig=R/2,S/2 view="V1(x,y) :- R(x,y)" view="V2(x,y) :- S(x,y)" query="Q0(x,z) :- R(x,y), S(y,z)" stages=16"#,
        )
        .unwrap()
        .unwrap();
        match job {
            Job::Determine { views, budget, .. } => {
                assert_eq!(views.len(), 2);
                assert_eq!(budget.max_stages, 16);
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn instance_shortcuts_resolve() {
        for (spec, n_views) in [("projection", 1), ("path:2x3", 1), ("mismatch:2x3", 1)] {
            let line = format!("determine instance={spec}");
            match parse_job(&line).unwrap().unwrap() {
                Job::Determine { views, .. } => assert_eq!(views.len(), n_views, "{spec}"),
                other => panic!("wrong kind: {other:?}"),
            }
        }
        assert!(parse_job("determine instance=mismatch:2x4").is_err());
    }

    #[test]
    fn comments_blanks_and_errors() {
        assert!(parse_job("").unwrap().is_none());
        assert!(parse_job("  # a comment").unwrap().is_none());
        assert!(parse_job("frobnicate x=1").is_err());
        assert!(parse_job("determine instance=projection bogus=1").is_err());
        assert!(parse_job(r#"determine sig=R/2 view="unterminated"#).is_err());
    }

    #[test]
    fn creep_line_with_timeout() {
        match parse_job("creep worm=forever steps=max timeout-ms=250")
            .unwrap()
            .unwrap()
        {
            Job::Creep { budget, .. } => {
                assert_eq!(budget.max_steps, usize::MAX);
                assert_eq!(budget.timeout, Some(Duration::from_millis(250)));
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn cert_flag_parses_and_rejects_garbage() {
        match parse_job("separate stages=60 cert=1").unwrap().unwrap() {
            Job::Separate { budget } => assert!(budget.emit_certificate),
            other => panic!("wrong kind: {other:?}"),
        }
        match parse_job("creep worm=short cert=true").unwrap().unwrap() {
            Job::Creep { budget, .. } => assert!(budget.emit_certificate),
            other => panic!("wrong kind: {other:?}"),
        }
        match parse_job("determine instance=projection").unwrap().unwrap() {
            Job::Determine { budget, .. } => assert!(!budget.emit_certificate),
            other => panic!("wrong kind: {other:?}"),
        }
        assert!(parse_job("separate cert=yes").is_err());
        assert!(parse_job("rewrite instance=projection cert=1").is_err());
    }

    #[test]
    fn trace_flag_parses_and_rejects_garbage() {
        match parse_job("determine instance=projection trace=1")
            .unwrap()
            .unwrap()
        {
            Job::Determine { budget, .. } => {
                assert!(budget.emit_trace);
                assert!(!budget.emit_certificate);
            }
            other => panic!("wrong kind: {other:?}"),
        }
        match parse_job("separate trace=true cert=1").unwrap().unwrap() {
            Job::Separate { budget } => {
                assert!(budget.emit_trace);
                assert!(budget.emit_certificate);
            }
            other => panic!("wrong kind: {other:?}"),
        }
        match parse_job("creep worm=short").unwrap().unwrap() {
            Job::Creep { budget, .. } => assert!(!budget.emit_trace),
            other => panic!("wrong kind: {other:?}"),
        }
        let err = parse_job("creep worm=short trace=maybe").unwrap_err();
        assert!(err.contains("trace=`maybe`"), "{err}");
        // `rewrite` takes no budget, so it rejects the flag outright.
        assert!(parse_job("rewrite instance=projection trace=1").is_err());
    }

    #[test]
    fn lint_flag_parses_and_rejects_garbage() {
        match parse_job("determine instance=projection lint=1")
            .unwrap()
            .unwrap()
        {
            Job::Determine { budget, .. } => {
                assert!(budget.emit_lint);
                assert!(!budget.emit_certificate);
            }
            other => panic!("wrong kind: {other:?}"),
        }
        match parse_job("separate lint=true cert=1").unwrap().unwrap() {
            Job::Separate { budget } => {
                assert!(budget.emit_lint);
                assert!(budget.emit_certificate);
            }
            other => panic!("wrong kind: {other:?}"),
        }
        match parse_job("creep worm=short").unwrap().unwrap() {
            Job::Creep { budget, .. } => assert!(!budget.emit_lint),
            other => panic!("wrong kind: {other:?}"),
        }
        let err = parse_job("creep worm=short lint=maybe").unwrap_err();
        assert!(err.contains("lint=`maybe`"), "{err}");
        // `rewrite` and `reduce` take no budget, so the flag is an
        // unknown key there.
        assert!(parse_job("rewrite instance=projection lint=1").is_err());
        assert!(parse_job("reduce worm=short lint=1").is_err());
    }

    #[test]
    fn cache_and_resume_flags_parse_and_reject_garbage() {
        // `cache` defaults to *true*, unlike every other flag.
        match parse_job("determine instance=projection").unwrap().unwrap() {
            Job::Determine { budget, .. } => {
                assert!(budget.use_cache);
                assert!(!budget.resume);
            }
            other => panic!("wrong kind: {other:?}"),
        }
        match parse_job("determine instance=projection cache=0 resume=1")
            .unwrap()
            .unwrap()
        {
            Job::Determine { budget, .. } => {
                assert!(!budget.use_cache);
                assert!(budget.resume);
            }
            other => panic!("wrong kind: {other:?}"),
        }
        match parse_job("separate cache=false").unwrap().unwrap() {
            Job::Separate { budget } => assert!(!budget.use_cache),
            other => panic!("wrong kind: {other:?}"),
        }
        match parse_job("creep worm=short cache=true").unwrap().unwrap() {
            Job::Creep { budget, .. } => assert!(budget.use_cache),
            other => panic!("wrong kind: {other:?}"),
        }
        let err = parse_job("determine instance=projection cache=maybe").unwrap_err();
        assert!(err.contains("cache=`maybe`"), "{err}");
        let err = parse_job("determine instance=projection resume=maybe").unwrap_err();
        assert!(err.contains("resume=`maybe`"), "{err}");
        // Only the determinacy chase is resumable; everywhere else the key
        // is rejected rather than silently ignored.
        assert!(parse_job("separate resume=1").is_err());
        assert!(parse_job("creep worm=short resume=1").is_err());
        assert!(parse_job("rewrite instance=projection cache=0").is_err());
    }

    #[test]
    fn errors_name_the_offending_key() {
        let err = parse_job("creep worm=counter:zillion").unwrap_err();
        assert!(err.contains("worm=`counter:zillion`"), "{err}");
        assert!(err.contains("counter parameter `zillion`"), "{err}");

        let err = parse_job(r#"determine sig=R/2 view="V(x,y) :- R(x,y)" query="Q0(x) :- Z(x)""#)
            .unwrap_err();
        assert!(err.contains("query=`Q0(x) :- Z(x)`"), "{err}");

        let err = parse_job(r#"determine sig=R/2 view="V(x) :- Z(x)" query="Q0(x) :- R(x,x)""#)
            .unwrap_err();
        assert!(err.contains("view=`V(x) :- Z(x)`"), "{err}");

        let err = parse_job(r#"determine sig=R-2 view="V(x) :- R(x,x)" query="Q0(x) :- R(x,x)""#)
            .unwrap_err();
        assert!(err.contains("sig=`R-2`"), "{err}");

        let err = parse_job("determine instance=moebius:2x3").unwrap_err();
        assert!(err.contains("instance=`moebius:2x3`"), "{err}");

        let err = parse_job("determine instance=projection stages=lots").unwrap_err();
        assert!(err.contains("stages=`lots`"), "{err}");

        let err = parse_job("creep worm=short timeout-ms=soon").unwrap_err();
        assert!(err.contains("timeout-ms=`soon`"), "{err}");

        let err = parse_job("determine instance=projection threads=many").unwrap_err();
        assert!(err.contains("threads=`many`"), "{err}");
        assert!(err.contains("positive integer"), "{err}");

        let err = parse_job("separate threads=0").unwrap_err();
        assert!(err.contains("threads=`0`"), "{err}");
    }

    #[test]
    fn threads_key_parses_where_chasing_happens() {
        match parse_job("determine instance=projection threads=4")
            .unwrap()
            .unwrap()
        {
            Job::Determine { budget, .. } => assert_eq!(budget.threads, 4),
            other => panic!("wrong kind: {other:?}"),
        }
        match parse_job("separate stages=60 threads=2").unwrap().unwrap() {
            Job::Separate { budget } => assert_eq!(budget.threads, 2),
            other => panic!("wrong kind: {other:?}"),
        }
        match parse_job("separate").unwrap().unwrap() {
            Job::Separate { budget } => assert_eq!(budget.threads, 1),
            other => panic!("wrong kind: {other:?}"),
        }
        // Creep never chases, so it rejects the key outright.
        assert!(parse_job("creep worm=short threads=4").is_err());
    }

    #[test]
    fn hom_key_parses_where_chasing_happens() {
        match parse_job("determine instance=projection hom=legacy")
            .unwrap()
            .unwrap()
        {
            Job::Determine { budget, .. } => assert_eq!(budget.hom_engine, HomEngine::Legacy),
            other => panic!("wrong kind: {other:?}"),
        }
        match parse_job("separate stages=60 hom=wco").unwrap().unwrap() {
            Job::Separate { budget } => assert_eq!(budget.hom_engine, HomEngine::Wco),
            other => panic!("wrong kind: {other:?}"),
        }
        // Absent means the default engine.
        match parse_job("determine instance=projection").unwrap().unwrap() {
            Job::Determine { budget, .. } => {
                assert_eq!(budget.hom_engine, HomEngine::default());
            }
            other => panic!("wrong kind: {other:?}"),
        }
        let err = parse_job("determine instance=projection hom=quantum").unwrap_err();
        assert!(err.contains("hom=`quantum`"), "{err}");
        assert!(err.contains("legacy | wco"), "{err}");
        // Creep never chases, so it rejects the key outright.
        assert!(parse_job("creep worm=short hom=legacy").is_err());
    }

    #[test]
    fn dispatch_key_parses_where_determinacy_happens() {
        use crate::dispatch::Dispatch;
        use cqfd_analysis::Fragment;
        match parse_job("determine instance=projection dispatch=semi")
            .unwrap()
            .unwrap()
        {
            Job::Determine { budget, .. } => assert_eq!(budget.dispatch, Dispatch::Semi),
            other => panic!("wrong kind: {other:?}"),
        }
        match parse_job("counterexample instance=mismatch:2x5 dispatch=forced:A302")
            .unwrap()
            .unwrap()
        {
            Job::CounterexampleSearch { budget, .. } => {
                assert_eq!(budget.dispatch, Dispatch::Forced(Fragment::SpiderPath));
            }
            other => panic!("wrong kind: {other:?}"),
        }
        // Absent means auto, the default.
        match parse_job("determine instance=projection").unwrap().unwrap() {
            Job::Determine { budget, .. } => assert_eq!(budget.dispatch, Dispatch::Auto),
            other => panic!("wrong kind: {other:?}"),
        }
        let err = parse_job("determine instance=projection dispatch=eager").unwrap_err();
        assert!(err.contains("dispatch=`eager`"), "{err}");
        assert!(err.contains("semi | auto | forced:A3xx"), "{err}");
        // Kinds with no determinacy chase reject the key outright.
        assert!(parse_job("creep worm=short dispatch=auto").is_err());
        assert!(parse_job("separate dispatch=semi").is_err());
        assert!(parse_job("rewrite instance=projection dispatch=auto").is_err());
    }

    #[test]
    fn request_metadata_parses_and_strips() {
        let req = parse_request("creep tenant=acme worm=short priority=batch stream=1")
            .unwrap()
            .unwrap();
        assert_eq!(req.tenant, "acme");
        assert_eq!(req.priority, Priority::Batch);
        assert!(req.stream);
        assert!(matches!(req.job, Job::Creep { .. }));
        // Metadata defaults: anon tenant, interactive, no streaming.
        let req = parse_request("creep worm=short").unwrap().unwrap();
        assert_eq!(req.tenant, DEFAULT_TENANT);
        assert_eq!(req.priority, Priority::Interactive);
        assert!(!req.stream);
        // Metadata never reaches the job: the parsed jobs are equal.
        let plain = parse_job("determine instance=projection stages=16")
            .unwrap()
            .unwrap();
        let via_req = parse_request("determine tenant=t1 instance=projection stream=0 stages=16")
            .unwrap()
            .unwrap();
        assert_eq!(format!("{plain:?}"), format!("{:?}", via_req.job));
        // Blank lines and comments still skip.
        assert!(parse_request("").unwrap().is_none());
        assert!(parse_request("# hi").unwrap().is_none());
    }

    #[test]
    fn request_metadata_rejects_garbage() {
        let err = parse_request("creep worm=short tenant=").unwrap_err();
        assert!(err.contains("tenant=``"), "{err}");
        let err = parse_request("creep worm=short tenant=a/b").unwrap_err();
        assert!(err.contains("tenant=`a/b`"), "{err}");
        let err = parse_request("creep worm=short priority=urgent").unwrap_err();
        assert!(err.contains("priority=`urgent`"), "{err}");
        let err = parse_request("creep worm=short stream=maybe").unwrap_err();
        assert!(err.contains("stream=`maybe`"), "{err}");
        // Job files stay strict: metadata keys are unknown keys there.
        assert!(parse_job("creep worm=short tenant=acme").is_err());
    }

    #[test]
    fn requests_that_once_panicked_are_errors() {
        for (line, want) in [
            (r#""""#, "empty job line"),
            ("creep worm=counter:0", "bad worm=`counter:0`"),
            ("reduce worm=tm-zigzag:0", "bad worm=`tm-zigzag:0`"),
            ("reduce worm=tm-zigzag:1", "bad worm=`tm-zigzag:1`"),
            ("reduce worm=tm-walker:65535", "bad worm=`tm-walker:65535`"),
            (
                r#"rewrite sig=R/2 view="V(x,y) :- R(x,z), R(z,y)" view="V(x) :- R(x,x)" query="Q0(x,y) :- R(x,y)""#,
                "view `V` declared with arity 2 and again with 1",
            ),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(want), "{line}: {err}");
            assert!(parse_job(line).is_err(), "{line}");
        }
        assert!(parse_job("creep worm=counter:1").unwrap().is_some());
        assert!(parse_job("reduce worm=tm-zigzag:2").unwrap().is_some());
        assert!(parse_job(
            r#"determine sig=R/2 view="V(x,y) :- R(x,y)" view="V(x,y) :- R(y,x)" query="Q0(x,y) :- R(x,y)""#
        )
        .unwrap()
        .is_some());
    }

    #[test]
    fn job_file_reports_line_numbers() {
        let text = "creep worm=short\n\n# comment\nbogus\n";
        let err = parse_jobs(text).unwrap_err();
        assert!(err.starts_with("line 4:"), "{err}");
        assert_eq!(parse_jobs("creep worm=short\nseparate\n").unwrap().len(), 2);
    }
}
