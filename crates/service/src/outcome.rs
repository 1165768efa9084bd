//! Job results: verdicts plus execution metrics.

use std::fmt;
use std::time::Duration;

/// What a job concluded.
///
/// The first group of variants carries domain verdicts; the last two are
/// service-level: [`JobOutcome::BudgetExceeded`] when the cancellation
/// token fired or a deadline/step/stage limit cut the run short of any
/// conclusion, [`JobOutcome::Error`] when the job could not run at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome {
    /// Determinacy certified at the given chase stage.
    Determined {
        /// The certifying stage.
        stage: usize,
    },
    /// The chase terminated without certifying: not determined, with a
    /// finite refutation (unrestricted *and* finite determinacy fail).
    NotDetermined {
        /// Stages to the fixpoint.
        stages: usize,
    },
    /// Budget ran out before the chase could conclude (the fundamental
    /// Theorem 1 situation).
    Unknown {
        /// Stages run before giving up.
        stages: usize,
    },
    /// A CQ rewriting of `Q0` over the views exists.
    RewritingFound {
        /// The rewriting, rendered over the view signature.
        rewriting: String,
    },
    /// No CQ rewriting exists (determinacy may still hold).
    NoRewriting,
    /// The Theorem 5 reduction produced a CQfDP instance.
    Reduced {
        /// Number of view queries produced.
        queries: usize,
        /// Total body atoms across the queries.
        total_atoms: usize,
        /// The spider parameter `s`.
        s: u16,
    },
    /// The worm halted: `αη11 ⇒^{k_M} u_M`.
    Halted {
        /// `k_M`.
        steps: usize,
    },
    /// The worm was still creeping when the step budget ran out.
    StillCreeping {
        /// Steps taken.
        steps: usize,
    },
    /// The Theorem 14 separation demonstration ran.
    Separated {
        /// Did the chase from `DI` show a 1-2 pattern? (It must not.)
        di_pattern: bool,
        /// Did the chase from the lasso model show one? (It must.)
        lasso_pattern: bool,
    },
    /// A finite counter-example to determinacy was found.
    CounterexampleFound {
        /// Atoms in the counter-example (over `Σ̄`).
        atoms: usize,
    },
    /// No counter-example with at most the budgeted node count.
    NoCounterexample {
        /// The node cap that was searched.
        nodes: usize,
    },
    /// The job was cancelled or ran out of wall-clock/step budget before
    /// reaching any conclusion.
    BudgetExceeded {
        /// What gave out (e.g. `deadline`, `cancelled`, `steps`).
        detail: String,
    },
    /// The job could not be executed.
    Error {
        /// Why.
        message: String,
    },
}

impl JobOutcome {
    /// A short lowercase verdict tag for result lines.
    pub fn verdict(&self) -> &'static str {
        match self {
            JobOutcome::Determined { .. } => "determined",
            JobOutcome::NotDetermined { .. } => "not-determined",
            JobOutcome::Unknown { .. } => "unknown",
            JobOutcome::RewritingFound { .. } => "rewriting",
            JobOutcome::NoRewriting => "no-rewriting",
            JobOutcome::Reduced { .. } => "reduced",
            JobOutcome::Halted { .. } => "halted",
            JobOutcome::StillCreeping { .. } => "still-creeping",
            JobOutcome::Separated { .. } => "separated",
            JobOutcome::CounterexampleFound { .. } => "counterexample",
            JobOutcome::NoCounterexample { .. } => "no-counterexample",
            JobOutcome::BudgetExceeded { .. } => "budget-exceeded",
            JobOutcome::Error { .. } => "error",
        }
    }

    /// Is this a budget/cancellation stop?
    pub fn is_budget_exceeded(&self) -> bool {
        matches!(self, JobOutcome::BudgetExceeded { .. })
    }
}

/// Execution metrics harvested from the instrumented chase and
/// homomorphism search.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobMetrics {
    /// Chase stages run (0 for non-chase jobs).
    pub stages: usize,
    /// Trigger applications across all stages.
    pub triggers: usize,
    /// Homomorphism-search nodes explored (thread-local counter delta —
    /// covers chase trigger enumeration, oracle checks, rewriting search,
    /// and counter-example verification alike).
    pub homs: u64,
    /// Peak atom count of the structure the job built.
    pub peak_atoms: usize,
    /// Peak node count of the structure the job built.
    pub peak_nodes: u32,
    /// Wall-clock execution time (excludes queueing).
    pub elapsed: Duration,
    /// The static chase-termination verdict of the rule set the job
    /// chased (`weakly-acyclic` / `unknown`), when the job ran a chase.
    /// Rendered as the `termination=` note on result lines; deterministic,
    /// so it survives the byte-identity diff across thread counts.
    pub termination: Option<&'static str>,
    /// The `A3xx` fragment the classifier assigned
    /// ([`cqfd_analysis::Fragment::as_str`] — `A300`/`A301`/`A302`/`A399`),
    /// for determinacy-shaped jobs. Rendered as `fragment=`; a pure
    /// function of the input, so it is identical under every dispatch
    /// mode and thread count and survives byte-identity diffs.
    pub fragment: Option<&'static str>,
    /// The procedure the dispatcher actually ran
    /// ([`crate::Route::as_str`]). Rendered as `route=`; differs between
    /// `dispatch=semi` and `dispatch=auto`, so differential harnesses
    /// strip it (like `elapsed_ms=`) before diffing.
    pub route: Option<&'static str>,
    /// `true` when this result was served from the `cqfd-store` cache
    /// (after the stored certificate re-passed the trusted checker)
    /// rather than computed. Rendered as the trailing ` cached=1` marker;
    /// never written into stored entries, so cold and warm runs stay
    /// byte-comparable modulo the marker.
    pub cached: bool,
}

/// The result of one job: its id, kind, outcome, and metrics.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The pool-assigned job id (submission order, starting at 1).
    pub id: u64,
    /// The job kind tag ([`crate::Job::kind`]).
    pub kind: &'static str,
    /// What the job concluded.
    pub outcome: JobOutcome,
    /// Execution metrics.
    pub metrics: JobMetrics,
    /// An encoded `cqfd-cert` certificate for the verdict, when the job
    /// was submitted with
    /// [`JobBudget::emit_certificate`](crate::JobBudget::emit_certificate)
    /// and the kind supports one. Multi-line; excluded from `Display` —
    /// see [`JobResult::render_protocol`].
    pub certificate: Option<String>,
    /// A JSONL `cqfd-obs` trace of the execution, when the job was
    /// submitted with [`JobBudget::emit_trace`](crate::JobBudget::emit_trace)
    /// (wire `trace=1`). Multi-line; excluded from `Display` — see
    /// [`JobResult::render_protocol`].
    pub trace: Option<String>,
    /// A `cqfd-lint v1` diagnostics payload for the job's rule set, when
    /// the job was submitted with
    /// [`JobBudget::emit_lint`](crate::JobBudget::emit_lint) (wire
    /// `lint=1`). Multi-line; excluded from `Display` — see
    /// [`JobResult::render_protocol`].
    pub lint: Option<String>,
}

impl JobResult {
    /// The wire rendering: the one-line `Display` result, plus — when a
    /// certificate, trace and/or lint report is attached —
    /// ` cert_lines=<n>` / ` trace_lines=<n>` / ` lint_lines=<n>` markers
    /// on that line followed by the raw payload lines (certificate first,
    /// then trace, then lint). Readers that ignore the markers still parse
    /// the result line unchanged.
    pub fn render_protocol(&self) -> String {
        let mut out = self.to_string();
        if let Some(cert) = &self.certificate {
            out.push_str(&format!(" cert_lines={}", cert.lines().count()));
        }
        if let Some(trace) = &self.trace {
            out.push_str(&format!(" trace_lines={}", trace.lines().count()));
        }
        if let Some(lint) = &self.lint {
            out.push_str(&format!(" lint_lines={}", lint.lines().count()));
        }
        for payload in [&self.certificate, &self.trace, &self.lint]
            .into_iter()
            .flatten()
        {
            for line in payload.lines() {
                out.push('\n');
                out.push_str(line);
            }
        }
        out
    }
}

impl fmt::Display for JobResult {
    /// The one-line result format used by `cqfd batch` and the TCP
    /// protocol: `job=<id> kind=<kind> verdict=<tag> [detail...] stages=…
    /// triggers=… homs=… peak_atoms=… peak_nodes=… elapsed_ms=…`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        ResultLine {
            id: self.id,
            kind: self.kind,
            outcome: &self.outcome,
            metrics: &self.metrics,
        }
        .fmt(f)
    }
}

/// The one-line rendering of a [`JobResult`] from borrowed parts, so a
/// line can be rendered with other metrics without cloning the result's
/// payloads.
pub(crate) struct ResultLine<'a> {
    pub id: u64,
    pub kind: &'static str,
    pub outcome: &'a JobOutcome,
    pub metrics: &'a JobMetrics,
}

impl fmt::Display for ResultLine<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "job={} kind={} verdict={}",
            self.id,
            self.kind,
            self.outcome.verdict()
        )?;
        match self.outcome {
            JobOutcome::Determined { stage } => write!(f, " stage={stage}")?,
            JobOutcome::NotDetermined { stages } | JobOutcome::Unknown { stages } => {
                write!(f, " chase_stages={stages}")?
            }
            JobOutcome::RewritingFound { rewriting } => write!(f, " rewriting={rewriting:?}")?,
            JobOutcome::Reduced {
                queries,
                total_atoms,
                s,
            } => write!(f, " queries={queries} total_atoms={total_atoms} s={s}")?,
            JobOutcome::Halted { steps } | JobOutcome::StillCreeping { steps } => {
                write!(f, " steps={steps}")?
            }
            JobOutcome::Separated {
                di_pattern,
                lasso_pattern,
            } => write!(f, " di_pattern={di_pattern} lasso_pattern={lasso_pattern}")?,
            JobOutcome::CounterexampleFound { atoms } => write!(f, " atoms={atoms}")?,
            JobOutcome::NoCounterexample { nodes } => write!(f, " nodes={nodes}")?,
            JobOutcome::BudgetExceeded { detail } => write!(f, " detail={detail}")?,
            JobOutcome::Error { message } => write!(f, " message={message:?}")?,
            JobOutcome::NoRewriting => {}
        }
        let m = &self.metrics;
        write!(
            f,
            " stages={} triggers={} homs={} peak_atoms={} peak_nodes={} elapsed_ms={:.1}",
            m.stages,
            m.triggers,
            m.homs,
            m.peak_atoms,
            m.peak_nodes,
            m.elapsed.as_secs_f64() * 1e3
        )?;
        if let Some(t) = m.termination {
            write!(f, " termination={t}")?;
        }
        if let Some(fr) = m.fragment {
            write!(f, " fragment={fr}")?;
        }
        if let Some(r) = m.route {
            write!(f, " route={r}")?;
        }
        if m.cached {
            write!(f, " cached=1")?;
        }
        Ok(())
    }
}

/// Parses a one-line [`JobResult`] rendering back into its parts —
/// the inverse of `Display` for the **cacheable** verdicts (determine /
/// creep / separate / counterexample outcomes). The store uses this to
/// re-materialize a [`JobResult`] from a cache entry and, crucially, to
/// run the outcome↔certificate consistency gate before serving it.
///
/// Returns `(id, kind, outcome, metrics)`. Verdicts that are never
/// cached (`rewriting`, `reduced`, `budget-exceeded`, `error`, …) are an
/// error here, as is any malformed field: a stored line that does not
/// round-trip is treated by callers as a cache reject, never served.
pub fn parse_result_line(line: &str) -> Result<(u64, String, JobOutcome, JobMetrics), String> {
    let mut fields: Vec<(&str, &str)> = Vec::new();
    for tok in line.split_whitespace() {
        let (k, v) = tok
            .split_once('=')
            .ok_or_else(|| format!("expected key=value, got `{tok}`"))?;
        fields.push((k, v));
    }
    let get = |key: &str| -> Result<&str, String> {
        fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("missing {key}="))
    };
    fn num<T: std::str::FromStr>(key: &str, v: &str) -> Result<T, String> {
        v.parse().map_err(|_| format!("bad {key}=`{v}`"))
    }
    let id: u64 = num("job", get("job")?)?;
    let kind = get("kind")?.to_string();
    let outcome = match get("verdict")? {
        "determined" => JobOutcome::Determined {
            stage: num("stage", get("stage")?)?,
        },
        "not-determined" => JobOutcome::NotDetermined {
            stages: num("chase_stages", get("chase_stages")?)?,
        },
        "unknown" => JobOutcome::Unknown {
            stages: num("chase_stages", get("chase_stages")?)?,
        },
        "halted" => JobOutcome::Halted {
            steps: num("steps", get("steps")?)?,
        },
        "still-creeping" => JobOutcome::StillCreeping {
            steps: num("steps", get("steps")?)?,
        },
        "separated" => JobOutcome::Separated {
            di_pattern: num("di_pattern", get("di_pattern")?)?,
            lasso_pattern: num("lasso_pattern", get("lasso_pattern")?)?,
        },
        "counterexample" => JobOutcome::CounterexampleFound {
            atoms: num("atoms", get("atoms")?)?,
        },
        "no-counterexample" => JobOutcome::NoCounterexample {
            nodes: num("nodes", get("nodes")?)?,
        },
        other => return Err(format!("uncacheable verdict `{other}`")),
    };
    // `termination=` carries one of a closed set of static names; an
    // unknown name cannot be re-rendered byte-identically, so reject it.
    let termination = match fields.iter().find(|(k, _)| *k == "termination") {
        None => None,
        Some((_, "weakly-acyclic")) => Some("weakly-acyclic"),
        Some((_, "unknown")) => Some("unknown"),
        Some((_, other)) => return Err(format!("unknown termination=`{other}`")),
    };
    // `fragment=` and `route=` are closed sets too: parse back through the
    // canonical enums so only re-renderable names round-trip.
    let fragment = match fields.iter().find(|(k, _)| *k == "fragment") {
        None => None,
        Some((_, v)) => Some(
            cqfd_analysis::Fragment::parse(v)
                .ok_or_else(|| format!("unknown fragment=`{v}`"))?
                .as_str(),
        ),
    };
    let route = match fields.iter().find(|(k, _)| *k == "route") {
        None => None,
        Some((_, v)) => Some(
            crate::dispatch::Route::parse(v)
                .ok_or_else(|| format!("unknown route=`{v}`"))?
                .as_str(),
        ),
    };
    let metrics = JobMetrics {
        stages: num("stages", get("stages")?)?,
        triggers: num("triggers", get("triggers")?)?,
        homs: num("homs", get("homs")?)?,
        peak_atoms: num("peak_atoms", get("peak_atoms")?)?,
        peak_nodes: num("peak_nodes", get("peak_nodes")?)?,
        elapsed: Duration::ZERO,
        termination,
        fragment,
        route,
        cached: false,
    };
    get("elapsed_ms")?;
    Ok((id, kind, outcome, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_line_and_tagged() {
        let r = JobResult {
            id: 7,
            kind: "determine",
            outcome: JobOutcome::Determined { stage: 3 },
            metrics: JobMetrics {
                stages: 3,
                triggers: 12,
                homs: 99,
                peak_atoms: 20,
                peak_nodes: 11,
                elapsed: Duration::from_micros(1500),
                termination: Some("weakly-acyclic"),
                fragment: None,
                route: None,
                cached: false,
            },
            certificate: None,
            trace: None,
            lint: None,
        };
        let line = r.to_string();
        assert!(!line.contains('\n'));
        assert!(line.starts_with("job=7 kind=determine verdict=determined stage=3"));
        assert!(line.contains("triggers=12"));
        assert!(line.contains("homs=99"));
        assert!(line.contains("elapsed_ms=1.5"));
        assert!(line.ends_with(" termination=weakly-acyclic"));
        assert_eq!(r.render_protocol(), line, "no certificate, no extra lines");
    }

    #[test]
    fn certificate_payload_renders_with_line_count() {
        let r = JobResult {
            id: 1,
            kind: "creep",
            outcome: JobOutcome::Halted { steps: 5 },
            metrics: JobMetrics::default(),
            certificate: Some("cqfd-cert v1 creep-trace\nhalted true\nend\n".into()),
            trace: None,
            lint: None,
        };
        assert!(!r.to_string().contains('\n'), "Display stays one line");
        let wire = r.render_protocol();
        let mut lines = wire.lines();
        let head = lines.next().unwrap();
        assert!(head.contains(" cert_lines=3"), "{head}");
        assert_eq!(lines.next(), Some("cqfd-cert v1 creep-trace"));
        assert_eq!(lines.clone().count(), 2);
    }

    #[test]
    fn trace_payload_renders_after_certificate() {
        let r = JobResult {
            id: 2,
            kind: "determine",
            outcome: JobOutcome::Determined { stage: 1 },
            metrics: JobMetrics::default(),
            certificate: Some("cqfd-cert v1 chase-trace\nend\n".into()),
            trace: Some("{\"seq\":0}\n{\"seq\":1}\n".into()),
            lint: None,
        };
        let wire = r.render_protocol();
        let mut lines = wire.lines();
        let head = lines.next().unwrap();
        assert!(head.contains(" cert_lines=2 trace_lines=2"), "{head}");
        let rest: Vec<&str> = lines.collect();
        assert_eq!(
            rest,
            vec![
                "cqfd-cert v1 chase-trace",
                "end",
                "{\"seq\":0}",
                "{\"seq\":1}"
            ],
            "certificate lines first, then trace lines"
        );
        // Trace alone works too.
        let r2 = JobResult {
            certificate: None,
            ..r
        };
        let wire2 = r2.render_protocol();
        assert!(wire2.lines().next().unwrap().ends_with(" trace_lines=2"));
        assert_eq!(wire2.lines().count(), 3);
    }

    #[test]
    fn lint_payload_renders_last_with_line_count() {
        let r = JobResult {
            id: 3,
            kind: "separate",
            outcome: JobOutcome::Separated {
                di_pattern: false,
                lasso_pattern: true,
            },
            metrics: JobMetrics::default(),
            certificate: Some("cqfd-cert v1 finite-model\nend\n".into()),
            trace: None,
            lint: Some("cqfd-lint v1\ndiag code=A100 severity=warn msg=\"x\"\nend\n".into()),
        };
        let wire = r.render_protocol();
        let mut lines = wire.lines();
        let head = lines.next().unwrap();
        assert!(head.contains(" cert_lines=2 lint_lines=3"), "{head}");
        let rest: Vec<&str> = lines.collect();
        assert_eq!(
            rest,
            vec![
                "cqfd-cert v1 finite-model",
                "end",
                "cqfd-lint v1",
                "diag code=A100 severity=warn msg=\"x\"",
                "end"
            ],
            "certificate payload first, then lint payload"
        );
    }

    #[test]
    fn result_lines_round_trip_through_the_parser() {
        let r = JobResult {
            id: 9,
            kind: "separate",
            outcome: JobOutcome::Separated {
                di_pattern: false,
                lasso_pattern: true,
            },
            metrics: JobMetrics {
                stages: 83,
                triggers: 410,
                homs: 12345,
                peak_atoms: 900,
                peak_nodes: 220,
                elapsed: Duration::ZERO,
                termination: Some("unknown"),
                fragment: None,
                route: None,
                cached: false,
            },
            certificate: None,
            trace: None,
            lint: None,
        };
        let line = r.to_string();
        let (id, kind, outcome, metrics) = parse_result_line(&line).unwrap();
        assert_eq!((id, kind.as_str()), (9, "separate"));
        assert_eq!(outcome, r.outcome);
        assert_eq!(metrics, r.metrics);
        // Re-rendering the parsed parts reproduces the line byte-for-byte
        // (elapsed is zeroed on both sides).
        let rt = JobResult {
            id,
            kind: "separate",
            outcome,
            metrics,
            certificate: None,
            trace: None,
            lint: None,
        };
        assert_eq!(rt.to_string(), line);
        // Uncacheable and malformed lines are rejected.
        assert!(parse_result_line("job=1 kind=rewrite verdict=rewriting").is_err());
        assert!(parse_result_line("job=1 kind=determine verdict=determined").is_err());
    }

    #[test]
    fn fragment_and_route_round_trip_as_closed_sets() {
        let r = JobResult {
            id: 11,
            kind: "determine",
            outcome: JobOutcome::Determined { stage: 1 },
            metrics: JobMetrics {
                stages: 1,
                triggers: 2,
                homs: 3,
                peak_atoms: 4,
                peak_nodes: 5,
                elapsed: Duration::ZERO,
                termination: Some("weakly-acyclic"),
                fragment: Some("A300"),
                route: Some("psv"),
                cached: false,
            },
            certificate: None,
            trace: None,
            lint: None,
        };
        let line = r.to_string();
        assert!(
            line.contains(" termination=weakly-acyclic fragment=A300 route=psv"),
            "{line}"
        );
        let (id, _, outcome, metrics) = parse_result_line(&line).unwrap();
        assert_eq!(metrics.fragment, Some("A300"));
        assert_eq!(metrics.route, Some("psv"));
        let rt = JobResult {
            id,
            kind: "determine",
            outcome,
            metrics,
            certificate: None,
            trace: None,
            lint: None,
        };
        assert_eq!(rt.to_string(), line, "byte round-trip");
        // Outside the closed sets: reject, never re-render.
        let bad_frag = line.replace("fragment=A300", "fragment=A777");
        assert!(parse_result_line(&bad_frag).is_err());
        let bad_route = line.replace("route=psv", "route=quantum");
        assert!(parse_result_line(&bad_route).is_err());
    }

    #[test]
    fn cached_marker_renders_last() {
        let r = JobResult {
            id: 4,
            kind: "creep",
            outcome: JobOutcome::Halted { steps: 5 },
            metrics: JobMetrics {
                cached: true,
                ..Default::default()
            },
            certificate: None,
            trace: None,
            lint: None,
        };
        assert!(r.to_string().ends_with(" cached=1"));
    }

    #[test]
    fn budget_exceeded_is_flagged() {
        let o = JobOutcome::BudgetExceeded {
            detail: "deadline".into(),
        };
        assert!(o.is_budget_exceeded());
        assert_eq!(o.verdict(), "budget-exceeded");
        assert!(!JobOutcome::NoRewriting.is_budget_exceeded());
    }
}
