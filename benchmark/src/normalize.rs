//! Reply normalisation and the paper's verdict facts.
//!
//! Two replies to the same job line are the same answer when they agree
//! after masking what legitimately differs between runs: the job id
//! (`job=`), the wall time (`elapsed_ms=`), the cache marker (`cached=`),
//! and any trace payload (`trace_lines=` and its lines — span timings and
//! sequence numbers differ on every run). On workloads with a store,
//! `homs=` is masked too: a cache miss forces certificate emission, and
//! building the certificate explores hom-search nodes a storeless run
//! does not.

/// Payload line counts announced on a result line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Payload {
    /// `cert_lines=`.
    pub cert: usize,
    /// `trace_lines=`.
    pub trace: usize,
    /// `lint_lines=`.
    pub lint: usize,
}

impl Payload {
    /// Reads the markers off a result line (absent markers count zero).
    pub fn of(result_line: &str) -> Payload {
        let mut p = Payload::default();
        for tok in result_line.split_whitespace() {
            let count = |v: &str| v.parse().unwrap_or(0);
            if let Some(v) = tok.strip_prefix("cert_lines=") {
                p.cert = count(v);
            } else if let Some(v) = tok.strip_prefix("trace_lines=") {
                p.trace = count(v);
            } else if let Some(v) = tok.strip_prefix("lint_lines=") {
                p.lint = count(v);
            }
        }
        p
    }

    /// Lines a whole reply spans: the result line plus its payloads.
    pub fn reply_lines(self) -> usize {
        1 + self.cert + self.trace + self.lint
    }
}

/// The masked form of a reply, comparable across runs and transports.
pub fn normalize(reply: &str, mask_homs: bool) -> String {
    let mut lines = reply.lines();
    let Some(first) = lines.next() else {
        return String::new();
    };
    let payload = Payload::of(first);
    let mut out: Vec<String> = Vec::with_capacity(1 + payload.cert + payload.lint);
    let head: Vec<String> = first
        .split_whitespace()
        .filter_map(|tok| match tok.split_once('=') {
            Some(("cached" | "trace_lines", _)) => None,
            Some((k @ ("job" | "elapsed_ms"), _)) => Some(format!("{k}=*")),
            Some(("homs", _)) if mask_homs => Some("homs=*".to_string()),
            _ => Some(tok.to_string()),
        })
        .collect();
    out.push(head.join(" "));
    // Payload order on the wire: certificate, then trace, then lint.
    let rest: Vec<&str> = lines.collect();
    let cert_end = payload.cert.min(rest.len());
    let trace_end = (cert_end + payload.trace).min(rest.len());
    out.extend(rest[..cert_end].iter().map(|l| l.to_string()));
    out.extend(rest[trace_end..].iter().map(|l| l.to_string()));
    out.join("\n")
}

/// The trace payload lines of a reply (empty when untraced).
pub fn trace_lines(reply: &str) -> Vec<&str> {
    let mut lines = reply.lines();
    let Some(first) = lines.next() else {
        return Vec::new();
    };
    let p = Payload::of(first);
    lines.skip(p.cert).take(p.trace).collect()
}

/// Does the reply carry the `cached=1` marker of a store hit?
pub fn is_cached(reply: &str) -> bool {
    reply
        .lines()
        .next()
        .is_some_and(|l| l.split_whitespace().any(|t| t == "cached=1"))
}

/// The value of `key=` on the reply's result line.
pub fn field<'a>(reply: &'a str, key: &str) -> Option<&'a str> {
    reply
        .lines()
        .next()?
        .split_whitespace()
        .find_map(|t| t.split_once('=').filter(|(k, _)| *k == key).map(|(_, v)| v))
}

/// Checks a reply against what the paper proves about the job families
/// the workloads draw from; `Some(reason)` on a violation.
///
/// * `path:MxK` instances are determined (an `M`-path view determines
///   every path query it composes to);
/// * `mismatch:MxK` instances (`M ∤ K`) are not determined, and a finite
///   counter-example exists;
/// * Theorem 14's separating chase shows the 1-2 pattern from the lasso
///   model and never from `DI`.
pub fn fact_violation(job_line: &str, reply: &str) -> Option<String> {
    let mut toks = job_line.split_whitespace();
    let kind = toks.next().unwrap_or_default();
    let instance = job_line
        .split_whitespace()
        .find_map(|t| t.strip_prefix("instance="))
        .unwrap_or_default();
    let verdict = field(reply, "verdict").unwrap_or_default();
    let expect = |want: &str| {
        (verdict != want).then(|| format!("`{job_line}` must be {want}, got verdict={verdict}"))
    };
    match kind {
        "determine" if instance.starts_with("path:") => expect("determined"),
        "determine" if instance.starts_with("mismatch:") => expect("not-determined"),
        "counterexample" if instance.starts_with("mismatch:") => expect("counterexample"),
        "separate" => {
            let lasso = field(reply, "lasso_pattern");
            let di = field(reply, "di_pattern");
            (lasso != Some("true") || di != Some("false")).then(|| {
                format!(
                    "`{job_line}` must give lasso_pattern=true di_pattern=false, got {reply:.120}"
                )
            })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DETERMINED: &str = "job=7 kind=determine verdict=determined stage=1 stages=1 \
        triggers=5 homs=22 peak_atoms=16 peak_nodes=12 elapsed_ms=0.1 \
        termination=unknown fragment=A302 route=spider";

    #[test]
    fn job_id_and_wall_time_do_not_matter() {
        let other = DETERMINED
            .replace("job=7", "job=9001")
            .replace("elapsed_ms=0.1", "elapsed_ms=12.5");
        assert_eq!(normalize(DETERMINED, false), normalize(&other, false));
        let cached = format!("{other} cached=1");
        assert_eq!(normalize(DETERMINED, false), normalize(&cached, false));
    }

    #[test]
    fn a_flipped_verdict_or_missing_reply_is_a_different_answer() {
        let flipped = DETERMINED.replace("verdict=determined", "verdict=not-determined");
        assert_ne!(normalize(DETERMINED, false), normalize(&flipped, false));
        assert_ne!(normalize(DETERMINED, false), normalize("", false));
        assert!(fact_violation("determine instance=path:2x4", &flipped).is_some());
        assert!(fact_violation("determine instance=path:2x4", "").is_some());
        assert!(fact_violation("determine instance=path:2x4", DETERMINED).is_none());
    }

    #[test]
    fn homs_are_masked_only_on_store_workloads() {
        let more = DETERMINED.replace("homs=22", "homs=40");
        assert_ne!(normalize(DETERMINED, false), normalize(&more, false));
        assert_eq!(normalize(DETERMINED, true), normalize(&more, true));
    }

    #[test]
    fn trace_payload_is_dropped_and_certificate_kept() {
        let reply = format!(
            "{DETERMINED} cert_lines=2 trace_lines=2\ncqfd-cert v1 chase-trace\nend\n\
             {{\"seq\":1,\"type\":\"span_start\"}}\n{{\"seq\":2,\"type\":\"span_end\"}}"
        );
        let untraced = format!("{DETERMINED} cert_lines=2\ncqfd-cert v1 chase-trace\nend");
        assert_eq!(normalize(&reply, false), normalize(&untraced, false));
        assert_eq!(trace_lines(&reply).len(), 2);
        assert_eq!(Payload::of(reply.lines().next().unwrap()).reply_lines(), 5);
        let tampered = untraced.replace("chase-trace", "finite-model");
        assert_ne!(normalize(&tampered, false), normalize(&untraced, false));
    }

    #[test]
    fn separation_must_show_the_lasso_pattern_only() {
        let good = "job=1 kind=separate verdict=separated di_pattern=false lasso_pattern=true";
        assert!(fact_violation("separate stages=50", good).is_none());
        let bad = good.replace("lasso_pattern=true", "lasso_pattern=false");
        assert!(fact_violation("separate stages=50", &bad).is_some());
        assert!(is_cached(&format!("{good} cached=1")));
        assert!(!is_cached(good));
    }
}
