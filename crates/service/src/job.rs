//! Job descriptions: what to run, and under which budget.

use crate::dispatch::Dispatch;
use cqfd_core::{Cq, Signature};
use cqfd_rainworm::Delta;
use std::time::Duration;

/// Resource limits for a single job.
///
/// Every limit is cooperative: the executing code polls the budget at loop
/// boundaries (chase stages, trigger applications, creep steps) and stops
/// with [`JobOutcome::BudgetExceeded`](crate::JobOutcome::BudgetExceeded)
/// rather than being killed. A `timeout` becomes an absolute deadline when
/// the job *starts executing* (not when it is submitted), so queueing time
/// does not count against it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobBudget {
    /// Maximum chase stages (determinacy / separation jobs).
    pub max_stages: usize,
    /// Maximum counter-example search nodes (structure size cap).
    pub max_search_nodes: usize,
    /// Maximum creep steps (rainworm jobs).
    pub max_steps: usize,
    /// Wall-clock limit for the job, measured from execution start.
    pub timeout: Option<Duration>,
    /// Attach a `cqfd-cert` certificate (encoded text) to the result,
    /// where the job kind supports one (`determine`, `creep`, `separate`,
    /// `counterexample`). Off by default: certificates cost an extra
    /// encode pass and can dwarf the one-line result.
    pub emit_certificate: bool,
    /// Attach a JSONL span/event trace of the job's execution to the
    /// result (wire `trace=1`, answered with `trace_lines=`). Off by
    /// default: a trace turns on the `cqfd-obs` capture sink for the
    /// worker thread, which makes every span/event site pay for rendering.
    pub emit_trace: bool,
    /// Enumeration worker threads for chase-based jobs (wire `threads=`,
    /// CLI `--threads`). `1` (the default) is fully sequential. The chase
    /// output is byte-identical at every setting; the executor additionally
    /// caps this so that `pool workers × job threads` never oversubscribes
    /// the host (see `PoolConfig`).
    pub threads: usize,
    /// Attach a `cqfd-lint v1` diagnostics payload for the job's rule set
    /// to the result (wire `lint=1`, answered with `lint_lines=`). Off by
    /// default. Independent of the pre-pool rejection gate, which always
    /// runs on wire-submitted jobs: `lint=1` also surfaces the warnings
    /// and infos a passing job accumulated.
    pub emit_lint: bool,
    /// Consult the configured `cqfd-store` cache before executing, and
    /// write conclusive results back (wire `cache=0` to disable). On by
    /// default; a no-op when no store is configured. Not part of the
    /// canonical job hash — it controls whether the cache is used, not
    /// what the job computes.
    pub use_cache: bool,
    /// Maintain a write-ahead stage log for this job's chase (wire
    /// `resume=1`), resuming from an existing log after a crash or
    /// cancellation. Off by default (the log costs a flush per stage);
    /// a no-op when no store is configured or the job kind has no
    /// resumable chase. Not part of the canonical job hash.
    pub resume: bool,
    /// Fragment-dispatch mode for determinacy-shaped jobs (wire
    /// `dispatch=`, CLI `--dispatch`). `auto` (the default) routes
    /// decidable fragments to complete procedures; `semi` pins the plain
    /// semi-decision pipeline; `forced:A3xx` asserts the classification.
    /// **Answer-relevant** — `auto` can upgrade `unknown` outcomes to
    /// definite verdicts — so unlike `threads` this *is* part of the
    /// canonical job hash.
    pub dispatch: Dispatch,
}

impl Default for JobBudget {
    fn default() -> Self {
        JobBudget {
            max_stages: 32,
            max_search_nodes: 3,
            max_steps: 100_000,
            timeout: None,
            emit_certificate: false,
            emit_trace: false,
            threads: 1,
            emit_lint: false,
            use_cache: true,
            resume: false,
            dispatch: Dispatch::default(),
        }
    }
}

impl JobBudget {
    /// Sets the stage limit.
    pub fn with_stages(mut self, max_stages: usize) -> Self {
        self.max_stages = max_stages;
        self
    }

    /// Sets the creep-step limit.
    pub fn with_steps(mut self, max_steps: usize) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Sets the counter-example node limit.
    pub fn with_search_nodes(mut self, max_search_nodes: usize) -> Self {
        self.max_search_nodes = max_search_nodes;
        self
    }

    /// Sets the wall-clock limit.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Requests a certificate payload on the result.
    pub fn with_certificate(mut self, emit: bool) -> Self {
        self.emit_certificate = emit;
        self
    }

    /// Requests a JSONL execution trace on the result.
    pub fn with_trace(mut self, emit: bool) -> Self {
        self.emit_trace = emit;
        self
    }

    /// Sets the chase enumeration thread count (clamped to ≥ 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Requests a lint-diagnostics payload on the result.
    pub fn with_lint(mut self, emit: bool) -> Self {
        self.emit_lint = emit;
        self
    }

    /// Enables or disables result-cache use for this job.
    pub fn with_cache(mut self, use_cache: bool) -> Self {
        self.use_cache = use_cache;
        self
    }

    /// Enables the write-ahead stage log (and resume from it).
    pub fn with_resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Selects the fragment-dispatch mode for determinacy-shaped jobs.
    pub fn with_dispatch(mut self, dispatch: Dispatch) -> Self {
        self.dispatch = dispatch;
        self
    }
}

/// A unit of work for the pool — one invocation of one of the toolbox's
/// semi-decision procedures, with its inputs and budget.
///
/// The variants mirror the `cqfd` CLI commands; [`crate::exec::execute`]
/// is the single execution path shared by the pool workers, `cqfd batch`,
/// and the TCP server.
#[derive(Debug, Clone)]
pub enum Job {
    /// Run the CQfDP.3 determinacy oracle on `(views, q0)`.
    Determine {
        /// The base signature `Σ`.
        sig: Signature,
        /// The view queries `Q`.
        views: Vec<Cq>,
        /// The target query `Q0`.
        q0: Cq,
        /// Limits (stages + timeout apply).
        budget: JobBudget,
    },
    /// Look for a CQ rewriting of `q0` over the views.
    Rewrite {
        /// The base signature `Σ`.
        sig: Signature,
        /// The view queries `Q`.
        views: Vec<Cq>,
        /// The target query `Q0`.
        q0: Cq,
    },
    /// Run the Theorem 5 reduction `∆ ↦ (Q, Q0)` and report its size.
    Reduce {
        /// The rainworm instruction set.
        delta: Delta,
    },
    /// Creep a rainworm from its initial configuration.
    Creep {
        /// The rainworm instruction set.
        delta: Delta,
        /// Limits (steps + timeout apply).
        budget: JobBudget,
    },
    /// Demonstrate the Theorem 14 separating example.
    Separate {
        /// Limits (stages applies, to both the DI and the lasso chase).
        budget: JobBudget,
    },
    /// Brute-force search for a finite counter-example to determinacy.
    CounterexampleSearch {
        /// The base signature `Σ`.
        sig: Signature,
        /// The view queries `Q`.
        views: Vec<Cq>,
        /// The target query `Q0`.
        q0: Cq,
        /// Limits (search-nodes applies).
        budget: JobBudget,
    },
}

impl Job {
    /// The job's kind as a lowercase tag (used in result lines and logs).
    pub fn kind(&self) -> &'static str {
        match self {
            Job::Determine { .. } => "determine",
            Job::Rewrite { .. } => "rewrite",
            Job::Reduce { .. } => "reduce",
            Job::Creep { .. } => "creep",
            Job::Separate { .. } => "separate",
            Job::CounterexampleSearch { .. } => "counterexample",
        }
    }

    /// The job's budget, when the variant carries one.
    pub fn budget(&self) -> Option<&JobBudget> {
        match self {
            Job::Determine { budget, .. }
            | Job::Creep { budget, .. }
            | Job::Separate { budget }
            | Job::CounterexampleSearch { budget, .. } => Some(budget),
            Job::Rewrite { .. } | Job::Reduce { .. } => None,
        }
    }

    /// Mutable access to the job's budget, when the variant carries one.
    /// Used by batch drivers that override parsed budgets from the command
    /// line (e.g. `cqfd batch --threads N`).
    pub fn budget_mut(&mut self) -> Option<&mut JobBudget> {
        match self {
            Job::Determine { budget, .. }
            | Job::Creep { budget, .. }
            | Job::Separate { budget }
            | Job::CounterexampleSearch { budget, .. } => Some(budget),
            Job::Rewrite { .. } | Job::Reduce { .. } => None,
        }
    }
}
