//! The stage-indexed lazy chase (paper §II.C).

use crate::termination::Termination;
use crate::tgd::Tgd;
use cqfd_core::{
    add_hom_nodes_explored, exists_homomorphism, hom_nodes_explored, publish_hom_metrics, Binding,
    CancelToken, HomPlan, Node, Structure, Term, VarMap, WcoPlan,
};
use cqfd_obs::{span, Counter, Histogram, Stopwatch, Unit};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Resource limits for a chase run.
///
/// The chase of this paper is often deliberately infinite
/// (`chase(T∞, DI)` is an infinite path, §VII Step 1), so budgets are part
/// of the API, not an afterthought: a run reports *why* it stopped. Besides
/// the counting limits, a budget can carry a cooperative [`CancelToken`]
/// and a wall-clock deadline — the hooks the `cqfd-service` job pool uses
/// to stop runaway jobs without killing worker threads.
#[derive(Debug, Clone)]
pub struct ChaseBudget {
    /// Maximum number of stages (`chase_i` levels) to compute.
    pub max_stages: usize,
    /// Stop once the structure holds at least this many atoms.
    pub max_atoms: usize,
    /// Stop once the structure holds at least this many nodes.
    pub max_nodes: usize,
    /// Cooperative cancellation token, polled at stage and trigger
    /// boundaries. Inert by default.
    pub cancel: CancelToken,
    /// Absolute wall-clock deadline; the run stops as [`ChaseOutcome::Cancelled`]
    /// once it passes. `None` by default.
    pub deadline: Option<Instant>,
    /// Worker threads for the per-stage trigger-enumeration phase. `1`
    /// (the default) runs fully sequentially. The chase result is
    /// byte-identical at every setting: enumeration slices are merged back
    /// in deterministic `(TGD index, slice order)` order and trigger
    /// *application* is always sequential — this knob only changes
    /// wall-clock time.
    pub threads: usize,
}

/// Budgets compare by their declared *limits*; the token, deadline and
/// thread count are runtime controls, not part of the budget's identity
/// (none of them can change the result, only how fast it arrives).
impl PartialEq for ChaseBudget {
    fn eq(&self, other: &Self) -> bool {
        self.max_stages == other.max_stages
            && self.max_atoms == other.max_atoms
            && self.max_nodes == other.max_nodes
    }
}

impl Eq for ChaseBudget {}

impl Default for ChaseBudget {
    fn default() -> Self {
        ChaseBudget {
            max_stages: 64,
            max_atoms: 1 << 20,
            max_nodes: 1 << 20,
            cancel: CancelToken::inert(),
            deadline: None,
            threads: 1,
        }
    }
}

impl ChaseBudget {
    /// A budget bounded only by stage count.
    pub fn stages(max_stages: usize) -> Self {
        ChaseBudget {
            max_stages,
            ..Self::default()
        }
    }

    /// Attaches a cooperative cancellation token.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Sets a wall-clock deadline `timeout` from now.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.deadline = Some(Instant::now() + timeout);
        self
    }

    /// Sets an absolute wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the number of enumeration worker threads (clamped to ≥ 1).
    /// Purely a wall-clock knob: the chase output is identical at every
    /// setting. The engine does not cap this by the host's core count —
    /// callers that share a machine (the `cqfd-service` pool) apply their
    /// own cap.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Stage ceiling granted to runs whose TGD set is certified
    /// weakly acyclic by [`presized_for`](Self::presized_for).
    pub const PRESIZED_STAGES: usize = 1 << 20;

    /// Pre-sizes the stage budget from a static termination verdict: a
    /// [`Termination::WeaklyAcyclic`] set is guaranteed to reach fixpoint,
    /// so the stage ceiling is lifted to [`Self::PRESIZED_STAGES`] (never
    /// lowered) and the run can only stop at the fixpoint or at the
    /// atom/node size caps, which stay in place as a safety net. An
    /// `Unknown` verdict leaves the budget untouched — the caller's stage
    /// limit is then the only thing bounding a possibly-infinite chase.
    pub fn presized_for(mut self, termination: &Termination) -> Self {
        if termination.is_weakly_acyclic() {
            self.max_stages = self.max_stages.max(Self::PRESIZED_STAGES);
        }
        self
    }

    /// The cooperative stop hook: has the token been cancelled, or the
    /// deadline passed? Polled by the chase at stage and trigger
    /// boundaries; other long loops (creep, counter-example search) poll
    /// the same budget through their own drivers.
    pub fn should_stop(&self) -> bool {
        self.cancel.is_cancelled() || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Why a chase run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaseOutcome {
    /// A stage applied no trigger: the structure is a model of the TGDs.
    Fixpoint,
    /// The stage budget ran out with triggers still active.
    StageBudgetExhausted,
    /// The atom/node budget ran out mid-stage.
    SizeBudgetExhausted,
    /// The caller's monitor requested a stop after some stage.
    MonitorStopped,
    /// The budget's cancellation token fired or its deadline passed
    /// ([`ChaseBudget::should_stop`]).
    Cancelled,
}

impl ChaseOutcome {
    /// A stable lowercase name, used as the `outcome` metric label on
    /// `cqfd_chase_runs_total`.
    pub fn name(self) -> &'static str {
        match self {
            ChaseOutcome::Fixpoint => "fixpoint",
            ChaseOutcome::StageBudgetExhausted => "stage_budget",
            ChaseOutcome::SizeBudgetExhausted => "size_budget",
            ChaseOutcome::MonitorStopped => "monitor_stopped",
            ChaseOutcome::Cancelled => "cancelled",
        }
    }
}

/// Pre-registered metric handles for one chase run. Registration (the
/// only locking step) happens once per run; the chase loops then touch
/// plain atomics at stage granularity, or per applied trigger — never per
/// search node.
struct ChaseMeters {
    stage_seconds: Histogram,
    run_seconds: Histogram,
    /// Wall time of the (parallelisable) enumeration phase per stage.
    enumerate_seconds: Histogram,
    /// Wall time of the sequential application phase per stage.
    apply_seconds: Histogram,
    /// Enumeration slices dispatched to parallel workers.
    parallel_tasks: Counter,
    /// Chase stages run (one increment per stage, across all runs).
    stages: Counter,
    /// `(triggers, firings)` per TGD, parallel to `ChaseEngine::tgds`.
    per_rule: Vec<(Counter, Counter)>,
    /// Per TGD, one atoms-added counter per head atom, labelled by the
    /// head atom's predicate (duplicate predicates share a series).
    atoms_per_rule: Vec<Vec<Counter>>,
}

impl ChaseMeters {
    fn new(tgds: &[Tgd], sig: &cqfd_core::Signature) -> Self {
        let reg = cqfd_obs::global();
        ChaseMeters {
            stage_seconds: reg.histogram(
                "cqfd_chase_stage_seconds",
                "Wall time per chase stage.",
                &[],
                Unit::Seconds,
            ),
            run_seconds: reg.histogram(
                "cqfd_chase_run_seconds",
                "Wall time per chase run.",
                &[],
                Unit::Seconds,
            ),
            enumerate_seconds: reg.histogram(
                "cqfd_chase_stage_enumerate_seconds",
                "Wall time of the trigger-enumeration phase per chase stage.",
                &[],
                Unit::Seconds,
            ),
            apply_seconds: reg.histogram(
                "cqfd_chase_stage_apply_seconds",
                "Wall time of the trigger-application phase per chase stage.",
                &[],
                Unit::Seconds,
            ),
            parallel_tasks: reg.counter(
                "cqfd_chase_parallel_tasks_total",
                "Enumeration slices dispatched to parallel chase workers.",
                &[],
            ),
            stages: reg.counter(
                "cqfd_chase_stages_total",
                "Chase stages run, across all runs.",
                &[],
            ),
            atoms_per_rule: tgds
                .iter()
                .map(|t| {
                    t.head()
                        .iter()
                        .map(|a| {
                            reg.counter(
                                "cqfd_chase_atoms_total",
                                "Atoms the chase added, per head predicate.",
                                &[("predicate", sig.pred_name(a.pred))],
                            )
                        })
                        .collect()
                })
                .collect(),
            per_rule: tgds
                .iter()
                .map(|t| {
                    (
                        reg.counter(
                            "cqfd_chase_triggers_total",
                            "Distinct frontier tuples enumerated per rule: through the previous stage's atoms, or in a full pass over the snapshot.",
                            &[("rule", t.name())],
                        ),
                        reg.counter(
                            "cqfd_chase_firings_total",
                            "Triggers applied (head instantiated), per rule.",
                            &[("rule", t.name())],
                        ),
                    )
                })
                .collect(),
        }
    }

    fn finish_run(&self, clock: &Stopwatch, outcome: ChaseOutcome) {
        self.run_seconds.observe(clock.elapsed_ns());
        cqfd_obs::global()
            .counter(
                "cqfd_chase_runs_total",
                "Completed chase runs, by stop reason.",
                &[("outcome", outcome.name())],
            )
            .inc();
    }
}

/// One applied trigger, recorded when the engine runs with
/// [`ChaseEngine::with_recording`] enabled.
///
/// The assignment is the *full* body match (every body variable, not just
/// the frontier), sorted by variable. Recording the whole match is what
/// makes a trace independently checkable: a verifier can validate the
/// trigger by pure substitution and atom lookup, with no homomorphism
/// search of its own (see `cqfd-cert`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Firing {
    /// 1-based stage in which the trigger was applied.
    pub stage: usize,
    /// Index of the TGD into [`ChaseEngine::tgds`].
    pub tgd: usize,
    /// The body match, sorted by variable.
    pub assignment: Vec<(cqfd_core::Var, Node)>,
}

/// Per-stage accounting of a chase run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageInfo {
    /// Number of trigger applications performed in this stage.
    pub applications: usize,
    /// Atom count after the stage.
    pub atoms_after: usize,
    /// Node count after the stage.
    pub nodes_after: u32,
}

/// The result of a chase run: the final structure, the per-stage history
/// (`stages[i]` describes `chase_{i+1}`), and the stop reason.
#[derive(Debug, Clone)]
pub struct ChaseRun {
    /// The chased structure (the last computed stage).
    pub structure: Structure,
    /// Stage history; `stages[i]` describes the transition to `chase_{i+1}`.
    pub stages: Vec<StageInfo>,
    /// Why the run stopped.
    pub outcome: ChaseOutcome,
    /// Wall-clock time the run took.
    pub elapsed: Duration,
    /// Homomorphism-search nodes explored during the run (trigger
    /// enumeration *and* head-satisfaction checks), from the thread-local
    /// counter in `cqfd_core::hom`.
    pub hom_nodes: u64,
    /// The applied triggers, in application order — empty unless the
    /// engine ran with [`ChaseEngine::with_recording`] enabled.
    pub firings: Vec<Firing>,
    /// The static termination verdict for the engine's TGD set (computed
    /// once at engine construction). `WeaklyAcyclic` certifies that a
    /// [`ChaseOutcome::StageBudgetExhausted`] stop was a budget problem,
    /// not divergence; surfaced as the `termination=` note on job results.
    pub termination: Termination,
    start_atoms: usize,
    start_nodes: u32,
}

impl ChaseRun {
    /// Number of computed stages (not counting `chase₀` = the start).
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// Total trigger applications across all stages.
    pub fn triggers_fired(&self) -> usize {
        self.stages.iter().map(|s| s.applications).sum()
    }

    /// Did the chase reach a fixpoint (i.e. terminate)?
    pub fn reached_fixpoint(&self) -> bool {
        self.outcome == ChaseOutcome::Fixpoint
    }

    /// Atom count of the chased structure, read off the stage history,
    /// so it survives [`take_structure`](Self::take_structure).
    pub fn atom_count(&self) -> usize {
        self.stages
            .last()
            .map_or(self.start_atoms, |s| s.atoms_after)
    }

    /// Node count of the chased structure, read off the stage history,
    /// so it survives [`take_structure`](Self::take_structure).
    pub fn node_count(&self) -> u32 {
        self.stages
            .last()
            .map_or(self.start_nodes, |s| s.nodes_after)
    }

    /// Moves the chased structure out of the run, leaving an empty
    /// structure over the same signature in its place. The stage history,
    /// [`atom_count`](Self::atom_count) and
    /// [`node_count`](Self::node_count) stay as they were;
    /// [`stage_structure`](Self::stage_structure) then panics.
    pub fn take_structure(&mut self) -> Structure {
        let empty = Structure::new(std::sync::Arc::clone(self.structure.signature()));
        std::mem::replace(&mut self.structure, empty)
    }

    /// Reconstructs the structure `chase_i` for `0 ≤ i ≤ stage_count()`.
    ///
    /// Possible because the chase only ever appends atoms and nodes; the
    /// prefix of the final atom list up to the stage boundary *is* the
    /// stage. Constant-node identities are preserved.
    pub fn stage_structure(&self, i: usize) -> Structure {
        assert_eq!(
            self.structure.atom_count(),
            self.atom_count(),
            "the run's structure was taken"
        );
        let (atoms, nodes) = if i == 0 {
            (self.start_atoms, self.start_nodes)
        } else {
            let s = self.stages[i - 1];
            (s.atoms_after, s.nodes_after)
        };
        let mut out = Structure::new(std::sync::Arc::clone(self.structure.signature()));
        // Reallocate the same node ids.
        for n in 0..nodes {
            let fresh = out.fresh_node();
            debug_assert_eq!(fresh, Node(n));
        }
        for n in 0..nodes {
            if let Some(c) = self.structure.const_of_node(Node(n)) {
                out.pin_constant(c, Node(n));
            }
        }
        for a in self.structure.atoms().take(atoms) {
            out.add(a.pred, a.args);
        }
        out
    }
}

/// A stage-boundary snapshot a chase run can resume from: the structure
/// at the boundary plus the completed per-stage history. Produced by
/// replaying a write-ahead stage log (see `cqfd-store`); consumed by
/// [`ChaseEngine::chase_with_hooks`].
///
/// `start_atoms`/`start_nodes` describe the *original* start structure
/// (`chase₀`), not the snapshot — they keep
/// [`ChaseRun::stage_structure`]`(0)` correct on the resumed run.
#[derive(Debug, Clone)]
pub struct ResumePoint {
    /// The structure at the last completed stage boundary.
    pub structure: Structure,
    /// Per-stage history of the completed prefix.
    pub stages: Vec<StageInfo>,
    /// Recorded firings of the completed prefix (in application order).
    pub firings: Vec<Firing>,
    /// Atom count of the original start structure.
    pub start_atoms: usize,
    /// Node count of the original start structure.
    pub start_nodes: u32,
}

/// Per-stage checkpoint callback: 1-based stage number, the committed
/// stage's [`StageInfo`], and the firings applied in it.
pub type CheckpointFn<'a> = dyn FnMut(usize, &StageInfo, &[Firing]) + 'a;

/// Side channels for a chase run: resume from a stage-boundary snapshot,
/// and/or observe each completed stage as it commits.
///
/// The checkpoint callback fires only for stages the run *continues past*
/// — never for the stage that concludes the run (fixpoint, monitor stop,
/// mid-stage budget stop). A concluding stage may be partial (a phase-B
/// cancellation stops mid-stage), so committing it to a write-ahead log
/// would let a resumed run diverge from an uninterrupted one; the
/// stages that do get checkpointed are always complete.
#[derive(Default)]
pub struct ChaseHooks<'a> {
    /// Resume from this snapshot instead of chasing from the start
    /// structure. Already-completed stages still count against
    /// [`ChaseBudget::max_stages`], so a resumed run stops exactly where
    /// the uninterrupted run would have.
    pub resume: Option<ResumePoint>,
    /// Called after each committed (non-concluding) stage with the
    /// 1-based stage number, its [`StageInfo`], and the firings applied
    /// in that stage (empty unless recording is on).
    pub checkpoint: Option<&'a mut CheckpointFn<'a>>,
}

/// The chase engine: a fixed list of TGDs, applied stage by stage.
#[derive(Debug, Clone)]
pub struct ChaseEngine {
    tgds: Vec<Tgd>,
    record: bool,
    termination: Termination,
}

impl ChaseEngine {
    /// Creates an engine over the given dependencies.
    /// Runs the static weak-acyclicity test once, up front; the verdict is
    /// available through [`termination`](Self::termination) and stamped on
    /// every [`ChaseRun`].
    pub fn new(tgds: Vec<Tgd>) -> Self {
        let termination = Termination::analyze(&tgds);
        ChaseEngine {
            tgds,
            record: false,
            termination,
        }
    }

    /// Enables (or disables) recording of applied triggers into
    /// [`ChaseRun::firings`]. Off by default: a trace holds one full
    /// variable assignment per application, which is memory the plain
    /// chase does not need.
    pub fn with_recording(mut self, record: bool) -> Self {
        self.record = record;
        self
    }

    /// The engine's dependencies.
    pub fn tgds(&self) -> &[Tgd] {
        &self.tgds
    }

    /// The static chase-termination verdict for the engine's TGD set.
    pub fn termination(&self) -> &Termination {
        &self.termination
    }

    /// Runs the chase from `start` under `budget`.
    pub fn chase(&self, start: &Structure, budget: &ChaseBudget) -> ChaseRun {
        self.chase_with_monitor(start, budget, |_, _| false)
    }

    /// Runs the chase, calling `monitor(structure, stage)` after every stage;
    /// a `true` return stops the run with [`ChaseOutcome::MonitorStopped`].
    ///
    /// The monitor is the hook used by the determinacy oracle of §IV: after
    /// each stage it checks whether `red(Q0)` has become true.
    pub fn chase_with_monitor(
        &self,
        start: &Structure,
        budget: &ChaseBudget,
        monitor: impl FnMut(&Structure, usize) -> bool,
    ) -> ChaseRun {
        self.chase_with_hooks(start, budget, monitor, ChaseHooks::default())
    }

    /// [`chase_with_monitor`](Self::chase_with_monitor) plus side
    /// channels: resume from a [`ResumePoint`] and/or observe committed
    /// stages through a checkpoint callback (see [`ChaseHooks`]).
    ///
    /// A resumed run is byte-identical to the uninterrupted run — same
    /// stages, firings, structure, and stop reason — because the chase is
    /// deterministic stage by stage and the resume point sits exactly at
    /// a stage boundary. (Only [`ChaseRun::hom_nodes`] differs: the
    /// resumed run skips the prefix's enumeration work.)
    pub fn chase_with_hooks(
        &self,
        start: &Structure,
        budget: &ChaseBudget,
        mut monitor: impl FnMut(&Structure, usize) -> bool,
        mut hooks: ChaseHooks<'_>,
    ) -> ChaseRun {
        let clock = Stopwatch::start();
        let _run_span = span!(
            "chase.run",
            tgds = self.tgds.len(),
            start_atoms = start.atom_count()
        );
        let meters = ChaseMeters::new(&self.tgds, start.signature());
        let hom_start = hom_nodes_explored();
        let (mut d, mut run) = match hooks.resume.take() {
            Some(rp) => {
                let run = ChaseRun {
                    start_atoms: rp.start_atoms,
                    start_nodes: rp.start_nodes,
                    structure: Structure::new(std::sync::Arc::clone(rp.structure.signature())),
                    stages: rp.stages,
                    outcome: ChaseOutcome::StageBudgetExhausted,
                    elapsed: Duration::ZERO,
                    hom_nodes: 0,
                    firings: rp.firings,
                    termination: self.termination.clone(),
                };
                (rp.structure, run)
            }
            None => {
                let d = start.clone();
                let run = ChaseRun {
                    start_atoms: d.atom_count(),
                    start_nodes: d.node_count(),
                    structure: Structure::new(std::sync::Arc::clone(d.signature())),
                    stages: Vec::new(),
                    outcome: ChaseOutcome::StageBudgetExhausted,
                    elapsed: Duration::ZERO,
                    hom_nodes: 0,
                    firings: Vec::new(),
                    termination: self.termination.clone(),
                };
                (d, run)
            }
        };
        let finish = |mut run: ChaseRun, d: Structure| {
            run.structure = d;
            debug_assert_eq!(run.atom_count(), run.structure.atom_count());
            debug_assert_eq!(run.node_count(), run.structure.node_count());
            run.elapsed = clock.elapsed();
            run.hom_nodes = hom_nodes_explored() - hom_start;
            meters.finish_run(&clock, run.outcome);
            publish_hom_metrics();
            run
        };
        // Re-checked even on resume: the checkpointed prefix only holds
        // stages the original run continued past, but the log is external
        // input — never trust it to imply the monitor stayed quiet.
        if monitor(&d, run.stages.len()) {
            run.outcome = ChaseOutcome::MonitorStopped;
            return finish(run, d);
        }
        // Snapshot boundary of the previous stage (what each stage's delta
        // is measured against): for stage k+1 it is the atom count at
        // *entry* of stage k.
        let done = run.stages.len();
        let mut prev_frozen: u32 = match done {
            0 => 0,
            1 => run.start_atoms as u32,
            k => run.stages[k - 2].atoms_after as u32,
        };
        // Completed stages count against the budget, so a resumed run
        // stops exactly where the uninterrupted run would.
        for _stage in 0..budget.max_stages.saturating_sub(done) {
            if budget.should_stop() {
                run.outcome = ChaseOutcome::Cancelled;
                break;
            }
            let frozen = d.atom_count() as u32;
            let stage = run.stages.len() + 1;
            let firings_before = run.firings.len();
            let (applications, early_stop) = {
                let _stage_span = span!("chase.stage", stage = stage);
                let stage_clock = Stopwatch::start();
                let res = self.run_stage(
                    &mut d,
                    budget,
                    prev_frozen,
                    stage,
                    &mut run.firings,
                    &meters,
                );
                meters.stage_seconds.observe(stage_clock.elapsed_ns());
                meters.stages.inc();
                res
            };
            prev_frozen = frozen;
            run.stages.push(StageInfo {
                applications,
                atoms_after: d.atom_count(),
                nodes_after: d.node_count(),
            });
            // A fixpoint or a monitor hit is a *result* and outranks a
            // simultaneous budget stop; budget stops only say "gave up".
            if applications == 0 && early_stop.is_none() {
                run.outcome = ChaseOutcome::Fixpoint;
                // The empty stage proves the fixpoint; it is still recorded.
                break;
            }
            if monitor(&d, run.stages.len()) {
                run.outcome = ChaseOutcome::MonitorStopped;
                break;
            }
            if let Some(reason) = early_stop {
                run.outcome = reason;
                break;
            }
            // The run continues past this stage: it is complete, commit it.
            if let Some(cb) = hooks.checkpoint.as_mut() {
                let info = run.stages[run.stages.len() - 1];
                cb(run.stages.len(), &info, &run.firings[firings_before..]);
            }
        }
        finish(run, d)
    }

    /// Replays recorded firings from `start`, reproducing the exact node
    /// allocation of the original run: each firing's assignment is the
    /// full body match, and [`apply`](Self::apply) allocates fresh nodes
    /// for the existentials in the same sorted order the chase did. This
    /// is how a write-ahead stage log is turned back into the structure
    /// at its last committed boundary.
    pub fn replay(&self, start: &Structure, firings: &[Firing]) -> Structure {
        let mut d = start.clone();
        let mut args = Vec::new();
        for f in firings {
            let fixed: VarMap = f.assignment.iter().copied().collect();
            self.apply(&self.tgds[f.tgd], &fixed, &mut d, &mut args);
        }
        d
    }

    /// One chase stage (the `forall pairs T, b̄ …` loop of §II.C), in two
    /// phases. **Phase A** enumerates the distinct frontier tuples b̄ of
    /// the body matches that can still be active triggers, in the slices
    /// [`plan_slices`](Self::plan_slices) lays out; slices are independent
    /// read-only searches over the frozen snapshot, so with
    /// `budget.threads > 1` they fan out over a scoped worker pool and
    /// merge back in deterministic `(TGD, slice)` order. Head satisfaction
    /// is pre-checked against the frozen snapshot in the same pass.
    /// **Phase B** walks the merged frontiers in order and applies the
    /// active triggers sequentially (application mutates `d`), re-checking
    /// non-pre-satisfied heads against the live `D`.
    ///
    /// Returns `(applications, early_stop)` where `early_stop` reports a
    /// mid-stage budget violation ([`ChaseOutcome::SizeBudgetExhausted`] or
    /// [`ChaseOutcome::Cancelled`]), if any. A cancellation during phase A
    /// applies nothing: the structure is left exactly at the previous
    /// stage boundary, so the run is a valid chase prefix.
    ///
    /// `prev_frozen` is the snapshot boundary of the previous stage: the
    /// atoms `[prev_frozen, frozen)` are the ones that stage added.
    fn run_stage(
        &self,
        d: &mut Structure,
        budget: &ChaseBudget,
        prev_frozen: u32,
        stage: usize,
        firings: &mut Vec<Firing>,
        meters: &ChaseMeters,
    ) -> (usize, Option<ChaseOutcome>) {
        let frozen = d.atom_count() as u32;
        let enum_clock = Stopwatch::start();
        let merged = self.enumerate_stage(d, budget, prev_frozen, frozen, meters);
        meters.enumerate_seconds.observe(enum_clock.elapsed_ns());
        let Some(merged) = merged else {
            return (0, Some(ChaseOutcome::Cancelled));
        };
        let apply_clock = Stopwatch::start();
        let res = self.apply_stage(d, budget, stage, merged, firings, meters);
        meters.apply_seconds.observe(apply_clock.elapsed_ns());
        res
    }

    /// Lays out a stage's enumeration slices.
    ///
    /// A body match that uses no atom the previous stage added lay in that
    /// stage's snapshot, so that stage enumerated it and left its head
    /// satisfied: pre-satisfied, satisfied by an earlier application, or
    /// applied. Satisfaction is monotone, so the match is no active
    /// trigger now. Only matches through the delta `[prev_frozen, frozen)`
    /// can be, and each stage applies exactly the triggers of the paper's
    /// full re-enumeration, in the same canonical order.
    ///
    /// Per TGD, each body position whose predicate gained atoms becomes
    /// one slice seeded on those atoms (a `partition_point` range of the
    /// predicate's ascending row list). When the delta is at least half
    /// the rows of the body's predicates, one unseeded pass over the
    /// snapshot costs less than the seeded ones; it finds the same active
    /// triggers, plus old tuples the head pre-check skips. A TGD whose
    /// body predicates gained nothing gets no slice, and no plan is
    /// compiled for it.
    fn plan_slices<'a>(&self, d: &'a Structure, prev_frozen: u32, frozen: u32) -> Vec<Slice<'a>> {
        let mut slices = Vec::new();
        for (ti, tgd) in self.tgds.iter().enumerate() {
            let body = tgd.body();
            if body.is_empty() {
                // The empty match uses no atom, so it is new only when
                // every atom is (`prev_frozen == 0`, the first stage).
                if prev_frozen == 0 {
                    slices.push(Slice { ti, seed: None });
                }
                continue;
            }
            let first = slices.len();
            let (mut delta, mut rows) = (0usize, 0usize);
            for (k, atom) in body.iter().enumerate() {
                let index = d.pred_index(atom.pred);
                let lo = index.partition_point(|&r| r < prev_frozen);
                let hi = index.partition_point(|&r| r < frozen);
                delta += hi - lo;
                rows += hi;
                if hi > lo {
                    slices.push(Slice {
                        ti,
                        seed: Some((k, &index[lo..hi])),
                    });
                }
            }
            if delta > 0 && 2 * delta >= rows {
                slices.truncate(first);
                slices.push(Slice { ti, seed: None });
            }
        }
        slices
    }

    /// Phase A: enumerates every slice of the stage against the frozen
    /// snapshot and merges the results into one sorted, deduplicated
    /// frontier per TGD. Returns `None` if the budget's stop hook fired
    /// mid-enumeration (nothing was applied).
    fn enumerate_stage(
        &self,
        d: &Structure,
        budget: &ChaseBudget,
        prev_frozen: u32,
        frozen: u32,
        meters: &ChaseMeters,
    ) -> Option<Vec<Vec<Frontier>>> {
        let slices = self.plan_slices(d, prev_frozen, frozen);
        let abort = AtomicBool::new(false);
        let workers = budget.threads.max(1).min(slices.len().max(1));
        let mut results: Vec<Option<Vec<Frontier>>> = Vec::with_capacity(slices.len());
        results.resize_with(slices.len(), || None);
        if workers <= 1 {
            for (i, slice) in slices.iter().enumerate() {
                if budget.should_stop() {
                    abort.store(true, Ordering::Relaxed);
                    break;
                }
                let fr = self.enumerate_slice(d, budget, prev_frozen, frozen, *slice, &abort);
                if abort.load(Ordering::Relaxed) {
                    break;
                }
                results[i] = Some(fr);
            }
        } else {
            meters.parallel_tasks.add(slices.len() as u64);
            let next = AtomicUsize::new(0);
            let target: &Structure = d;
            let collected: Vec<WorkerYield> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        scope.spawn(|| {
                            // Fresh scoped thread: its thread-local hom
                            // counters start at zero; publish its metric
                            // work itself and report the node delta so the
                            // coordinating thread can keep `ChaseRun::
                            // hom_nodes` whole-run accurate.
                            let hom0 = hom_nodes_explored();
                            let mut local: Vec<(usize, Vec<Frontier>)> = Vec::new();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                if i >= slices.len() || abort.load(Ordering::Relaxed) {
                                    break;
                                }
                                let fr = self.enumerate_slice(
                                    target,
                                    budget,
                                    prev_frozen,
                                    frozen,
                                    slices[i],
                                    &abort,
                                );
                                if abort.load(Ordering::Relaxed) {
                                    break;
                                }
                                local.push((i, fr));
                            }
                            publish_hom_metrics();
                            (local, hom_nodes_explored() - hom0)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("chase enumeration worker panicked"))
                    .collect()
            });
            for (local, nodes) in collected {
                add_hom_nodes_explored(nodes);
                for (i, fr) in local {
                    results[i] = Some(fr);
                }
            }
        }
        if abort.load(Ordering::Relaxed) || budget.should_stop() {
            return None;
        }
        // Merge back per TGD, then **canonicalise** each TGD's frontier:
        // sort by frontier tuple and drop cross-slice duplicates (a match
        // whose atoms span several delta positions), keeping the
        // lexicographically least recorded assignment. The sorted,
        // distinct sequence — and with it application order, fresh-node
        // allocation, recorded firings, every downstream artifact —
        // depends only on the *set* of matches, never on enumeration
        // order or slicing. This is what makes the chase byte-identical
        // across thread counts, delta slicing and the paper's naive stages.
        let mut merged: Vec<Vec<Frontier>> = (0..self.tgds.len()).map(|_| Vec::new()).collect();
        for (slice, res) in slices.iter().zip(results) {
            let frontiers = res.expect("uncancelled stage enumerated every slice");
            let dst = &mut merged[slice.ti];
            if dst.is_empty() {
                *dst = frontiers;
            } else {
                dst.extend(frontiers);
            }
        }
        for dst in &mut merged {
            dst.sort_unstable_by(|a, b| a.tuple.cmp(&b.tuple));
            dst.dedup_by(|dup, kept| {
                if dup.tuple != kept.tuple {
                    return false;
                }
                if let (Some(least), Some(cand)) = (kept.full_map.as_mut(), dup.full_map.take()) {
                    if cand < *least {
                        *least = cand;
                    }
                }
                true
            });
        }
        Some(merged)
    }

    /// Enumerates one slice: the distinct frontier tuples of one TGD's
    /// body matches in the frozen snapshot (unseeded), or of those whose
    /// seed position maps to one of the slice's delta rows, each with its
    /// frozen-snapshot head pre-check.
    /// Read-only on `d`; safe to run from any worker thread. Sets `abort`
    /// and returns early (with a result that must be discarded) when the
    /// budget's stop hook fires.
    fn enumerate_slice(
        &self,
        d: &Structure,
        budget: &ChaseBudget,
        prev_frozen: u32,
        frozen: u32,
        slice: Slice<'_>,
        abort: &AtomicBool,
    ) -> Vec<Frontier> {
        let tgd = &self.tgds[slice.ti];
        let body = tgd.body();
        // One compiled plan per slice, reused across every seed.
        let body_plan = WcoPlan::compile(body, d);
        let head_plan = WcoPlan::compile(tgd.head(), d);
        let head_limits = vec![frozen; tgd.head().len()];
        let frontier_slots: Vec<u32> = tgd
            .frontier()
            .iter()
            .map(|v| {
                body_plan
                    .slot(*v)
                    .expect("frontier variable occurs in the body")
            })
            .collect();
        let head_seed_slots: Vec<Option<u32>> =
            tgd.frontier().iter().map(|v| head_plan.slot(*v)).collect();
        let recording = self.record;

        let mut out: Vec<Frontier> = Vec::new();
        let mut buckets: HashMap<u64, Vec<u32>, BuildHasherDefault<PassThroughHasher>> =
            HashMap::default();
        let mut head_seeds: Vec<(u32, Node)> = Vec::with_capacity(frontier_slots.len());
        // Scratch for the frontier tuple: most matches repeat a tuple
        // already in `out`, so the buffer is cloned only on first sight
        // instead of allocated per match.
        let mut tuple: Vec<Node> = Vec::with_capacity(frontier_slots.len());
        let mut matches = 0u64;
        let mut record = |b: &Binding| {
            // Poll the cooperative stop hook every few dozen matches so
            // cancellation latency does not regress inside long slices.
            matches += 1;
            if matches.is_multiple_of(64) && (abort.load(Ordering::Relaxed) || budget.should_stop())
            {
                abort.store(true, Ordering::Relaxed);
                return ControlFlow::Break(());
            }
            tuple.clear();
            tuple.extend(frontier_slots.iter().map(|&s| b.node(s)));
            let bucket = buckets.entry(hash_tuple(&tuple)).or_default();
            if let Some(&i) = bucket.iter().find(|&&i| out[i as usize].tuple == tuple) {
                // Duplicate frontier tuple. When recording, keep the
                // lexicographically least full assignment so the recorded
                // firing does not depend on enumeration order (slices and
                // seeds reach the same match set in different orders).
                if recording {
                    let cand = sorted_assignment(b);
                    let cur = out[i as usize]
                        .full_map
                        .as_mut()
                        .expect("recording run stores assignments");
                    if cand < *cur {
                        *cur = cand;
                    }
                }
                return ControlFlow::Continue(());
            }
            bucket.push(out.len() as u32);
            // Condition ­ against the frozen snapshot. Satisfaction is
            // monotone, so a pre-satisfied head needs no live re-check in
            // phase B; the probe runs at every thread count so search-node
            // totals stay thread-count-invariant.
            head_seeds.clear();
            for (slot, &n) in head_seed_slots.iter().zip(&tuple) {
                if let Some(s) = slot {
                    head_seeds.push((*s, n));
                }
            }
            let pre_satisfied = head_plan.exists_seeded(&head_seeds, &head_limits);
            out.push(Frontier {
                tuple: tuple.clone(),
                full_map: recording.then(|| sorted_assignment(b)),
                pre_satisfied,
            });
            ControlFlow::Continue(())
        };
        match slice.seed {
            None => {
                let limits = vec![frozen; body.len()];
                let _ = body_plan.for_each_bindings(&[], &limits, &mut record);
            }
            Some((k, rows)) => {
                // Across the TGD's seeded slices, every match with at
                // least one body atom in the delta, exactly once: seed
                // position k directly on each delta row; atoms before k
                // come from the old prefix, atoms after k from the whole
                // snapshot. (Atoms are deduplicated, so "uses a delta atom
                // at position k" is exactly "position k's image was added
                // by the previous stage".)
                let pattern_atom = &body[k];
                let mut limits: Vec<u32> = vec![prev_frozen; body.len()];
                for l in limits.iter_mut().skip(k) {
                    *l = frozen;
                }
                // Resolve the seed atom's argument shape once: the
                // per-row unification below runs for every delta row and
                // must not pay a slot-map lookup each time.
                let seed_args: Vec<SeedArg> = pattern_atom
                    .args
                    .iter()
                    .map(|t| match t {
                        Term::Const(c) => SeedArg::Const(d.existing_const_node(*c)),
                        Term::Var(v) => SeedArg::Slot(
                            body_plan
                                .slot(*v)
                                .expect("pattern variable occurs in the body"),
                        ),
                    })
                    .collect();
                let mut seeds: Vec<(u32, Node)> = Vec::with_capacity(pattern_atom.args.len());
                for &row in rows {
                    if abort.load(Ordering::Relaxed) {
                        break;
                    }
                    if !unify_seed_args(&seed_args, d.args_of(row), &mut seeds) {
                        continue;
                    }
                    let _ = body_plan.for_each_bindings(&seeds, &limits, &mut record);
                }
            }
        }
        out
    }

    /// Phase B: walks the merged frontiers in `(TGD, merge)` order and
    /// applies the active triggers.
    fn apply_stage(
        &self,
        d: &mut Structure,
        budget: &ChaseBudget,
        stage: usize,
        merged: Vec<Vec<Frontier>>,
        firings: &mut Vec<Firing>,
        meters: &ChaseMeters,
    ) -> (usize, Option<ChaseOutcome>) {
        let mut applications = 0usize;
        let mut args = Vec::new();
        for (ti, frontiers) in merged.into_iter().enumerate() {
            let tgd = &self.tgds[ti];
            meters.per_rule[ti].0.add(frontiers.len() as u64);
            for (i, f) in frontiers.into_iter().enumerate() {
                // Poll the cooperative stop hook every few hundred
                // triggers: often enough to honour deadlines promptly,
                // rarely enough to keep `Instant::now` off the hot path.
                if i % 256 == 0 && budget.should_stop() {
                    return (applications, Some(ChaseOutcome::Cancelled));
                }
                if f.pre_satisfied {
                    continue;
                }
                let fixed: VarMap = tgd
                    .frontier()
                    .iter()
                    .copied()
                    .zip(f.tuple.iter().copied())
                    .collect();
                // Condition ­: is ∃z̄ Ψ(z̄, b̄) already true in the *live* D?
                // (The frozen pre-check said no; earlier applications this
                // stage may have satisfied it since.)
                if exists_homomorphism(tgd.head(), d, &fixed) {
                    continue;
                }
                self.apply(tgd, &fixed, d, &mut args);
                if let Some(assignment) = f.full_map {
                    firings.push(Firing {
                        stage,
                        tgd: ti,
                        assignment,
                    });
                }
                applications += 1;
                meters.per_rule[ti].1.inc();
                for c in &meters.atoms_per_rule[ti] {
                    c.inc();
                }
                if d.atom_count() >= budget.max_atoms || d.node_count() as usize >= budget.max_nodes
                {
                    return (applications, Some(ChaseOutcome::SizeBudgetExhausted));
                }
            }
        }
        (applications, None)
    }

    /// Applies one active trigger: `D := D(T, b̄)` — a fresh copy of `A[Ψ]`
    /// glued to the old structure along the frontier (§II.B).
    ///
    /// The existentials get consecutive fresh nodes, in order. Each head
    /// atom is assembled in `args`, a scratch buffer the caller reuses
    /// across applications, and inserted straight from it.
    fn apply(&self, tgd: &Tgd, fixed: &VarMap, d: &mut Structure, args: &mut Vec<Node>) {
        let first_fresh = d.node_count();
        for _ in tgd.existential() {
            d.fresh_node();
        }
        for a in tgd.head() {
            args.clear();
            for t in &a.args {
                args.push(match t {
                    Term::Var(v) => match fixed.get(v) {
                        Some(&n) => n,
                        None => {
                            let i = tgd.existential().iter().position(|e| e == v);
                            Node(first_fresh + i.expect("head variable is bound") as u32)
                        }
                    },
                    Term::Const(c) => d.node_for_const(*c),
                });
            }
            d.add(a.pred, args);
        }
    }

    /// Model check: `D |= T` iff no trigger is active (both §II.B conditions).
    pub fn is_model(&self, d: &Structure) -> bool {
        self.first_violation(d).is_none()
    }

    /// Finds one active trigger `(tgd index, frontier assignment)`, if any.
    ///
    /// Compiles one body plan and one head plan per TGD against the
    /// (immutable) structure and runs the head check slot-seeded, so the
    /// model check shares the index-driven atom ordering and
    /// allocation-free inner loop of the main search.
    pub fn first_violation(&self, d: &Structure) -> Option<(usize, VarMap)> {
        for (i, tgd) in self.tgds.iter().enumerate() {
            let body_plan = HomPlan::compile(tgd.body(), d);
            let head_plan = HomPlan::compile(tgd.head(), d);
            let frontier_slots: Vec<(cqfd_core::Var, u32)> = tgd
                .frontier()
                .iter()
                .map(|v| {
                    (
                        *v,
                        body_plan
                            .slot(*v)
                            .expect("frontier variable occurs in the body"),
                    )
                })
                .collect();
            let mut head_seeds: Vec<(u32, Node)> = Vec::with_capacity(frontier_slots.len());
            let hit = body_plan.for_each_bindings(&[], |b| {
                head_seeds.clear();
                for &(v, s) in &frontier_slots {
                    if let Some(hs) = head_plan.slot(v) {
                        head_seeds.push((hs, b.node(s)));
                    }
                }
                if head_plan.exists_seeded(&head_seeds) {
                    ControlFlow::Continue(())
                } else {
                    let fixed: VarMap = frontier_slots
                        .iter()
                        .map(|&(v, s)| (v, b.node(s)))
                        .collect();
                    ControlFlow::Break(fixed)
                }
            });
            if let ControlFlow::Break(fixed) = hit {
                return Some((i, fixed));
            }
        }
        None
    }
}

/// What one enumeration worker hands back: the `(slice index, frontier)`
/// pairs it completed, plus the hom-search nodes its thread-local counter
/// accumulated (credited to the coordinating thread's counter).
type WorkerYield = (Vec<(usize, Vec<Frontier>)>, u64);

/// One parallelisable enumeration slice of a chase stage: a TGD and,
/// unless the slice is one unseeded pass over the snapshot, the body
/// position seeded on the previous stage's atoms with its predicate's
/// delta rows.
#[derive(Clone, Copy)]
struct Slice<'a> {
    ti: usize,
    seed: Option<(usize, &'a [u32])>,
}

/// One distinct frontier tuple found in phase A, bundled with everything
/// phase B needs — a single struct so the tuple/full-map/pre-check triples
/// cannot drift out of step.
struct Frontier {
    /// The frontier tuple b̄.
    tuple: Vec<Node>,
    /// Lexicographically least full body match for this tuple, sorted by
    /// variable (kept only when recording, for the `Firing` trace). Taking
    /// the least match over all duplicates keeps the recorded trace
    /// independent of enumeration order, hence of the hom engine.
    full_map: Option<Vec<(cqfd_core::Var, Node)>>,
    /// The head was already satisfied in the frozen snapshot (condition ­):
    /// monotone, so no live re-check is needed.
    pre_satisfied: bool,
}

/// A binding rendered as a `(variable, node)` assignment sorted by
/// variable — the canonical, order-comparable form stored in
/// [`Frontier::full_map`] and emitted in [`Firing::assignment`].
fn sorted_assignment(b: &Binding) -> Vec<(cqfd_core::Var, Node)> {
    let mut out: Vec<(cqfd_core::Var, Node)> = b.to_varmap().into_iter().collect();
    out.sort_unstable_by_key(|&(v, _)| v);
    out
}

fn hash_tuple(tuple: &[Node]) -> u64 {
    // Multiply-rotate word hash (the "fx" construction): the keys are
    // internal node ids probed once per body match, so SipHash's
    // flooding resistance buys nothing here.
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    let mut h = (tuple.len() as u64).wrapping_mul(SEED);
    for n in tuple {
        h = (h.rotate_left(5) ^ u64::from(n.0)).wrapping_mul(SEED);
    }
    h
}

/// Forwards an already-hashed `u64` key unchanged. The frontier dedup
/// buckets are keyed by [`hash_tuple`] output; re-hashing it would be
/// pure overhead.
#[derive(Default)]
struct PassThroughHasher(u64);

impl Hasher for PassThroughHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("pass-through hasher is only used with u64 keys");
    }

    fn write_u64(&mut self, k: u64) {
        self.0 = k;
    }
}

/// A seed atom's argument, pre-resolved against plan and target so the
/// per-delta-row unification is lookup-free.
enum SeedArg {
    /// A pattern constant's target node (`None`: absent, never matches).
    Const(Option<Node>),
    /// A variable's plan slot.
    Slot(u32),
}

/// Unifies a ground atom's arguments against the pre-resolved seed shape
/// directly into plan-slot seeds (clearing `seeds` first): returns `false`
/// on a constant/repeated-variable mismatch.
fn unify_seed_args(seed_args: &[SeedArg], args: &[Node], seeds: &mut Vec<(u32, Node)>) -> bool {
    seeds.clear();
    for (sa, &n) in seed_args.iter().zip(args) {
        match sa {
            SeedArg::Const(c) => {
                if *c != Some(n) {
                    return false;
                }
            }
            SeedArg::Slot(s) => match seeds.iter().find(|&&(s2, _)| s2 == *s) {
                Some(&(_, bound)) if bound != n => return false,
                Some(_) => {}
                None => seeds.push((*s, n)),
            },
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqfd_core::{structure_homomorphism, Atom, PredId, Signature, Var};
    use std::sync::Arc;

    fn sig_rs() -> Arc<Signature> {
        let mut s = Signature::new();
        s.add_predicate("R", 2);
        s.add_predicate("S", 2);
        Arc::new(s)
    }

    fn vat(p: PredId, vars: &[u32]) -> Atom<Term> {
        Atom::new(p, vars.iter().map(|&v| Term::Var(Var(v))).collect())
    }

    #[test]
    fn lazy_chase_skips_satisfied_triggers() {
        let sig = sig_rs();
        let r = sig.predicate("R").unwrap();
        // R(x,y) => exists z. R(x,z): already satisfied everywhere.
        let t = Tgd::new_unchecked("t", vec![vat(r, &[0, 1])], vec![vat(r, &[0, 2])]);
        let engine = ChaseEngine::new(vec![t]);
        let mut d = Structure::new(Arc::clone(&sig));
        let a = d.fresh_node();
        let b = d.fresh_node();
        d.add(r, &[a, b]);
        let run = engine.chase(&d, &ChaseBudget::default());
        assert!(run.reached_fixpoint());
        assert_eq!(run.structure.atom_count(), 1, "lazy chase adds nothing");
    }

    #[test]
    fn infinite_chase_adds_one_atom_per_stage() {
        let sig = sig_rs();
        let r = sig.predicate("R").unwrap();
        // R(x,y) => exists z. R(y,z): an infinite forward path.
        let t = Tgd::new_unchecked("t", vec![vat(r, &[0, 1])], vec![vat(r, &[1, 2])]);
        let engine = ChaseEngine::new(vec![t]);
        let mut d = Structure::new(Arc::clone(&sig));
        let a = d.fresh_node();
        let b = d.fresh_node();
        d.add(r, &[a, b]);
        let run = engine.chase(&d, &ChaseBudget::stages(10));
        assert_eq!(run.outcome, ChaseOutcome::StageBudgetExhausted);
        assert_eq!(run.stage_count(), 10);
        for s in &run.stages {
            assert_eq!(s.applications, 1, "frozen-snapshot semantics: 1/stage");
        }
        assert_eq!(run.structure.atom_count(), 11);
    }

    #[test]
    fn full_tgds_terminate_transitive_closure() {
        let sig = sig_rs();
        let r = sig.predicate("R").unwrap();
        // R(x,y) ∧ R(y,z) => R(x,z)
        let t = Tgd::new_unchecked(
            "trans",
            vec![vat(r, &[0, 1]), vat(r, &[1, 2])],
            vec![vat(r, &[0, 2])],
        );
        let engine = ChaseEngine::new(vec![t]);
        let mut d = Structure::new(Arc::clone(&sig));
        let ns: Vec<Node> = (0..5).map(|_| d.fresh_node()).collect();
        for w in ns.windows(2) {
            d.add(r, &[w[0], w[1]]);
        }
        let run = engine.chase(&d, &ChaseBudget::default());
        assert!(run.reached_fixpoint());
        // 4+3+2+1 = 10 pairs in the closure of a 4-edge path.
        assert_eq!(run.structure.atom_count(), 10);
        assert!(engine.is_model(&run.structure));
        assert!(!engine.is_model(&d));
    }

    #[test]
    fn stage_structures_are_monotone_prefixes() {
        let sig = sig_rs();
        let r = sig.predicate("R").unwrap();
        let t = Tgd::new_unchecked("t", vec![vat(r, &[0, 1])], vec![vat(r, &[1, 2])]);
        let engine = ChaseEngine::new(vec![t]);
        let mut d = Structure::new(Arc::clone(&sig));
        let a = d.fresh_node();
        let b = d.fresh_node();
        d.add(r, &[a, b]);
        let run = engine.chase(&d, &ChaseBudget::stages(5));
        let mut prev_atoms = 0;
        for i in 0..=run.stage_count() {
            let si = run.stage_structure(i);
            assert!(si.atom_count() >= prev_atoms);
            assert!(si.is_substructure_of(&run.structure));
            prev_atoms = si.atom_count();
        }
        assert_eq!(run.stage_structure(0).atom_count(), 1);
    }

    #[test]
    fn chase_is_universal_for_models() {
        let sig = sig_rs();
        let r = sig.predicate("R").unwrap();
        let s = sig.predicate("S").unwrap();
        // R(x,y) => exists z. S(y,z)
        let t = Tgd::new_unchecked("t", vec![vat(r, &[0, 1])], vec![vat(s, &[1, 2])]);
        let engine = ChaseEngine::new(vec![t]);
        let mut d = Structure::new(Arc::clone(&sig));
        let a = d.fresh_node();
        let b = d.fresh_node();
        d.add(r, &[a, b]);
        let run = engine.chase(&d, &ChaseBudget::default());
        assert!(run.reached_fixpoint());
        // A model M ⊇ D: same R edge plus S(b, b).
        let mut m = d.clone();
        m.add(s, &[b, b]);
        assert!(engine.is_model(&m));
        let h = structure_homomorphism(&run.structure, &m);
        assert!(h.is_some(), "chase must map into every model extending D");
    }

    #[test]
    fn monitor_stops_run() {
        let sig = sig_rs();
        let r = sig.predicate("R").unwrap();
        let t = Tgd::new_unchecked("t", vec![vat(r, &[0, 1])], vec![vat(r, &[1, 2])]);
        let engine = ChaseEngine::new(vec![t]);
        let mut d = Structure::new(Arc::clone(&sig));
        let a = d.fresh_node();
        let b = d.fresh_node();
        d.add(r, &[a, b]);
        let run =
            engine.chase_with_monitor(&d, &ChaseBudget::stages(100), |s, _| s.atom_count() >= 4);
        assert_eq!(run.outcome, ChaseOutcome::MonitorStopped);
        assert_eq!(run.structure.atom_count(), 4);
    }

    #[test]
    fn size_budget_stops_run() {
        let sig = sig_rs();
        let r = sig.predicate("R").unwrap();
        let t = Tgd::new_unchecked("t", vec![vat(r, &[0, 1])], vec![vat(r, &[1, 2])]);
        let engine = ChaseEngine::new(vec![t]);
        let mut d = Structure::new(Arc::clone(&sig));
        let a = d.fresh_node();
        let b = d.fresh_node();
        d.add(r, &[a, b]);
        let budget = ChaseBudget {
            max_stages: 1000,
            max_atoms: 5,
            max_nodes: 1 << 20,
            ..ChaseBudget::default()
        };
        let run = engine.chase(&d, &budget);
        assert_eq!(run.outcome, ChaseOutcome::SizeBudgetExhausted);
        assert_eq!(run.structure.atom_count(), 5);
    }

    #[test]
    fn chase_is_deterministic() {
        let sig = sig_rs();
        let r = sig.predicate("R").unwrap();
        let s = sig.predicate("S").unwrap();
        let t1 = Tgd::new_unchecked("t1", vec![vat(r, &[0, 1])], vec![vat(s, &[1, 2])]);
        let t2 = Tgd::new_unchecked("t2", vec![vat(s, &[0, 1])], vec![vat(r, &[1, 0])]);
        let engine = ChaseEngine::new(vec![t1, t2]);
        let mut d = Structure::new(Arc::clone(&sig));
        let a = d.fresh_node();
        let b = d.fresh_node();
        d.add(r, &[a, b]);
        let r1 = engine.chase(&d, &ChaseBudget::stages(6));
        let r2 = engine.chase(&d, &ChaseBudget::stages(6));
        assert_eq!(r1.structure.atoms(), r2.structure.atoms());
        assert_eq!(r1.stages, r2.stages);
    }

    #[test]
    fn parallel_enumeration_is_byte_identical() {
        let sig = sig_rs();
        let r = sig.predicate("R").unwrap();
        let s = sig.predicate("S").unwrap();
        // A branching system: transitive closure plus an existential rule,
        // several triggers per stage, so the parallel merge actually has
        // work to order.
        let t1 = Tgd::new_unchecked(
            "trans",
            vec![vat(r, &[0, 1]), vat(r, &[1, 2])],
            vec![vat(r, &[0, 2])],
        );
        let t2 = Tgd::new_unchecked("spawn", vec![vat(r, &[0, 1])], vec![vat(s, &[1, 2])]);
        let mut d = Structure::new(Arc::clone(&sig));
        let ns: Vec<Node> = (0..5).map(|_| d.fresh_node()).collect();
        for w in ns.windows(2) {
            d.add(r, &[w[0], w[1]]);
        }
        let engine = ChaseEngine::new(vec![t1, t2]).with_recording(true);
        let seq = engine.chase(&d, &ChaseBudget::stages(6));
        for threads in [2, 4, 8] {
            let par = engine.chase(&d, &ChaseBudget::stages(6).with_threads(threads));
            assert_eq!(seq.structure.atoms(), par.structure.atoms(), "t={threads}");
            assert_eq!(seq.stages, par.stages, "t={threads}");
            assert_eq!(seq.firings, par.firings, "t={threads}");
            assert_eq!(seq.outcome, par.outcome, "t={threads}");
            assert_eq!(seq.hom_nodes, par.hom_nodes, "t={threads}");
        }
    }

    #[test]
    fn cancel_mid_parallel_stage_leaves_a_valid_prefix() {
        let sig = sig_rs();
        let r = sig.predicate("R").unwrap();
        let t = Tgd::new_unchecked("t", vec![vat(r, &[0, 1])], vec![vat(r, &[1, 2])]);
        let engine = ChaseEngine::new(vec![t]);
        let mut d = Structure::new(Arc::clone(&sig));
        let a = d.fresh_node();
        let b = d.fresh_node();
        d.add(r, &[a, b]);
        let token = CancelToken::new();
        let budget = ChaseBudget::stages(10_000)
            .with_cancel(token.clone())
            .with_threads(4);
        token.cancel(); // fires before (hence during) enumeration
        let run = engine.chase(&d, &budget);
        assert_eq!(run.outcome, ChaseOutcome::Cancelled);
        // A cancelled run is still a valid chase prefix: every recorded
        // stage boundary reconstructs, and the last one is the result.
        let last = run.stage_structure(run.stage_count());
        assert_eq!(last.atoms(), run.structure.atoms());
    }

    #[test]
    fn constants_in_heads_are_pinned() {
        let mut sigm = Signature::new();
        let r = sigm.add_predicate("R", 2);
        let s = sigm.add_predicate("S", 2);
        let c = sigm.add_constant("c0");
        let sig = Arc::new(sigm);
        // R(x,y) => S(y, #c0)
        let t = Tgd::new_unchecked(
            "t",
            vec![vat(r, &[0, 1])],
            vec![Atom::new(s, vec![Term::Var(Var(1)), Term::Const(c)])],
        );
        let engine = ChaseEngine::new(vec![t]);
        let mut d = Structure::new(Arc::clone(&sig));
        let a = d.fresh_node();
        let b = d.fresh_node();
        d.add(r, &[a, b]);
        let run = engine.chase(&d, &ChaseBudget::default());
        assert!(run.reached_fixpoint());
        let cn = run.structure.existing_const_node(c).unwrap();
        assert!(run.structure.contains(s, &[b, cn]));
    }

    #[test]
    fn recording_captures_every_application() {
        let sig = sig_rs();
        let r = sig.predicate("R").unwrap();
        let t = Tgd::new_unchecked("t", vec![vat(r, &[0, 1])], vec![vat(r, &[1, 2])]);
        let engine = ChaseEngine::new(vec![t]).with_recording(true);
        let mut d = Structure::new(Arc::clone(&sig));
        let a = d.fresh_node();
        let b = d.fresh_node();
        d.add(r, &[a, b]);
        let run = engine.chase(&d, &ChaseBudget::stages(4));
        assert_eq!(run.firings.len(), run.triggers_fired());
        for (k, f) in run.firings.iter().enumerate() {
            assert_eq!(f.stage, k + 1, "one application per stage");
            assert_eq!(f.tgd, 0);
            // Full body match: both body variables bound, sorted.
            assert_eq!(f.assignment.len(), 2);
            assert!(f.assignment[0].0 < f.assignment[1].0);
        }
        // Off by default.
        let plain = ChaseEngine::new(engine.tgds().to_vec()).chase(&d, &ChaseBudget::stages(4));
        assert!(plain.firings.is_empty());
        assert_eq!(plain.structure.atoms(), run.structure.atoms());
    }

    #[test]
    fn multi_atom_head_shares_existential() {
        let sig = sig_rs();
        let r = sig.predicate("R").unwrap();
        let s = sig.predicate("S").unwrap();
        // R(x,y) => exists z. S(x,z) ∧ S(y,z)
        let t = Tgd::new_unchecked(
            "t",
            vec![vat(r, &[0, 1])],
            vec![vat(s, &[0, 2]), vat(s, &[1, 2])],
        );
        let engine = ChaseEngine::new(vec![t]);
        let mut d = Structure::new(Arc::clone(&sig));
        let a = d.fresh_node();
        let b = d.fresh_node();
        d.add(r, &[a, b]);
        let run = engine.chase(&d, &ChaseBudget::default());
        assert!(run.reached_fixpoint());
        assert_eq!(run.structure.atom_count(), 3);
        // Both new S atoms end in the same fresh node.
        let satoms: Vec<_> = run.structure.atoms_with_pred(s).collect();
        assert_eq!(satoms.len(), 2);
        assert_eq!(satoms[0].args[1], satoms[1].args[1]);
    }
}

#[cfg(test)]
mod delta_tests {
    //! Exact stage-by-stage expectations for the delta-driven stages,
    //! worked out by hand from the paper's full re-enumeration (§II.C).
    //! `crates/chase/tests/naive_reference.rs` checks the same equality
    //! against an executable naive stage loop on larger inputs.
    use super::*;
    use cqfd_core::{Atom, GroundAtom, PredId, Signature, Var};
    use std::sync::Arc;

    fn v(i: u32) -> Term {
        Term::Var(Var(i))
    }

    fn ga(p: PredId, args: &[u32]) -> GroundAtom {
        GroundAtom::new(p, args.iter().map(|&n| Node(n)).collect())
    }

    fn ground(d: &Structure) -> Vec<GroundAtom> {
        d.atoms().map(|a| a.to_ground()).collect()
    }

    fn stage(applications: usize, atoms_after: usize, nodes_after: u32) -> StageInfo {
        StageInfo {
            applications,
            atoms_after,
            nodes_after,
        }
    }

    fn trans(r: PredId) -> Tgd {
        Tgd::new_unchecked(
            "trans",
            vec![
                Atom::new(r, vec![v(0), v(1)]),
                Atom::new(r, vec![v(1), v(2)]),
            ],
            vec![Atom::new(r, vec![v(0), v(2)])],
        )
    }

    #[test]
    fn transitive_closure_stages_are_exact() {
        let mut sig = Signature::new();
        let r = sig.add_predicate("R", 2);
        let sig = Arc::new(sig);
        let engine = ChaseEngine::new(vec![trans(r)]);
        let mut d = Structure::new(Arc::clone(&sig));
        let ns: Vec<Node> = (0..5).map(|_| d.fresh_node()).collect();
        for w in ns.windows(2) {
            d.add(r, &[w[0], w[1]]);
        }
        let run = engine.chase(&d, &ChaseBudget::default());
        assert_eq!(run.outcome, ChaseOutcome::Fixpoint);
        // Stage 1 closes paths of length 2, sorted by frontier tuple;
        // stage 2 those of length 3 and 4; stage 3 finds nothing new.
        let expected: Vec<GroundAtom> = [
            [0, 1],
            [1, 2],
            [2, 3],
            [3, 4],
            [0, 2],
            [1, 3],
            [2, 4],
            [0, 3],
            [0, 4],
            [1, 4],
        ]
        .iter()
        .map(|a| ga(r, a))
        .collect();
        assert_eq!(ground(&run.structure), expected);
        assert_eq!(
            run.stages,
            vec![stage(3, 7, 5), stage(3, 10, 5), stage(0, 10, 5)]
        );
    }

    #[test]
    fn existential_chase_stages_are_exact() {
        let mut sig = Signature::new();
        let r = sig.add_predicate("R", 2);
        let s = sig.add_predicate("S", 2);
        let sig = Arc::new(sig);
        // R(x,y) ⇒ ∃z S(y,z);  S(x,y) ⇒ R(x,x): terminates after the
        // fresh S-target's R-loop turns out to be S-satisfied already.
        let t1 = Tgd::new_unchecked(
            "t1",
            vec![Atom::new(r, vec![v(0), v(1)])],
            vec![Atom::new(s, vec![v(1), v(2)])],
        );
        let t2 = Tgd::new_unchecked(
            "t2",
            vec![Atom::new(s, vec![v(0), v(1)])],
            vec![Atom::new(r, vec![v(0), v(0)])],
        );
        let engine = ChaseEngine::new(vec![t1, t2]).with_recording(true);
        let mut d = Structure::new(Arc::clone(&sig));
        let x = d.fresh_node();
        let y = d.fresh_node();
        d.add(r, &[x, y]);
        let run = engine.chase(&d, &ChaseBudget::default());
        assert_eq!(run.outcome, ChaseOutcome::Fixpoint);
        assert_eq!(
            ground(&run.structure),
            [ga(r, &[0, 1]), ga(s, &[1, 2]), ga(r, &[1, 1])]
        );
        assert_eq!(
            run.stages,
            vec![stage(1, 2, 3), stage(1, 3, 3), stage(0, 3, 3)]
        );
        assert_eq!(
            run.firings,
            vec![
                Firing {
                    stage: 1,
                    tgd: 0,
                    assignment: vec![(Var(0), x), (Var(1), y)],
                },
                Firing {
                    stage: 2,
                    tgd: 1,
                    assignment: vec![(Var(0), y), (Var(1), Node(2))],
                },
            ]
        );
    }

    #[test]
    fn single_trigger_stages_are_exact() {
        // A single-trigger-per-stage system (like T∞): one new atom per
        // stage, so from stage 3 on the delta is small and seeded.
        let mut sig = Signature::new();
        let r = sig.add_predicate("R", 2);
        let sig = Arc::new(sig);
        let t = Tgd::new_unchecked(
            "t",
            vec![Atom::new(r, vec![v(0), v(1)])],
            vec![Atom::new(r, vec![v(1), v(2)])],
        );
        let engine = ChaseEngine::new(vec![t]);
        let mut d = Structure::new(Arc::clone(&sig));
        let x = d.fresh_node();
        let y = d.fresh_node();
        d.add(r, &[x, y]);
        let run = engine.chase(&d, &ChaseBudget::stages(12));
        assert_eq!(run.outcome, ChaseOutcome::StageBudgetExhausted);
        let path: Vec<GroundAtom> = (0..13).map(|i| ga(r, &[i, i + 1])).collect();
        assert_eq!(ground(&run.structure), path);
        let expected: Vec<StageInfo> = (1..=12).map(|k| stage(1, k + 1, k as u32 + 2)).collect();
        assert_eq!(run.stages, expected);
    }

    #[test]
    fn slices_cover_only_the_delta() {
        let mut sig = Signature::new();
        let r = sig.add_predicate("R", 2);
        let s = sig.add_predicate("S", 2);
        let sig = Arc::new(sig);
        let only_s = Tgd::new_unchecked(
            "only_s",
            vec![Atom::new(s, vec![v(0), v(1)])],
            vec![Atom::new(r, vec![v(0), v(1)])],
        );
        let empty_body = Tgd::new_unchecked("empty", vec![], vec![Atom::new(s, vec![v(0), v(1)])]);
        let engine = ChaseEngine::new(vec![trans(r), only_s, empty_body]);
        let mut d = Structure::new(Arc::clone(&sig));
        let ns: Vec<Node> = (0..6).map(|_| d.fresh_node()).collect();
        for w in ns.windows(2) {
            d.add(r, &[w[0], w[1]]);
        }
        // Renders slices as `tgd:full` or `tgd:k<position>@<delta rows>`.
        let shape = |slices: Vec<Slice<'_>>| -> Vec<String> {
            slices
                .iter()
                .map(|sl| match sl.seed {
                    None => format!("{}:full", sl.ti),
                    Some((k, rows)) => format!("{}:k{k}@{rows:?}", sl.ti),
                })
                .collect()
        };
        // First stage: everything is new, one full pass per TGD with a
        // match to find (the S body has no rows, so no slice at all).
        assert_eq!(shape(engine.plan_slices(&d, 0, 5)), ["0:full", "2:full"]);
        // One new R atom among five: seeded at both body positions; the
        // S-bodied TGD gained nothing and the empty match is old.
        assert_eq!(
            shape(engine.plan_slices(&d, 4, 5)),
            ["0:k0@[4]", "0:k1@[4]"]
        );
        // Three new R atoms among five: 6 of 10 body rows, one full pass.
        assert_eq!(shape(engine.plan_slices(&d, 2, 5)), ["0:full"]);
    }

    #[test]
    fn delta_stages_are_deterministic() {
        let mut sig = Signature::new();
        let r = sig.add_predicate("R", 2);
        let s = sig.add_predicate("S", 2);
        let sig = Arc::new(sig);
        let t1 = Tgd::new_unchecked(
            "t1",
            vec![
                Atom::new(r, vec![v(0), v(1)]),
                Atom::new(s, vec![v(1), v(2)]),
            ],
            vec![Atom::new(r, vec![v(0), v(2)])],
        );
        let t2 = Tgd::new_unchecked(
            "t2",
            vec![Atom::new(r, vec![v(0), v(1)])],
            vec![Atom::new(s, vec![v(0), v(2)])],
        );
        let engine = ChaseEngine::new(vec![t1, t2]);
        let mut d = Structure::new(Arc::clone(&sig));
        let ns: Vec<Node> = (0..3).map(|_| d.fresh_node()).collect();
        d.add(r, &[ns[0], ns[1]]);
        d.add(s, &[ns[1], ns[2]]);
        let r1 = engine.chase(&d, &ChaseBudget::stages(8));
        let r2 = engine.chase(&d, &ChaseBudget::stages(8));
        assert_eq!(r1.structure.atoms(), r2.structure.atoms());
        assert_eq!(r1.stages, r2.stages);
    }
}
