//! Homomorphism search: matching conjunctions of atoms into structures.
//!
//! A *pattern* is a conjunction of [`Atom<Term>`]s; a homomorphism is an
//! assignment of pattern variables to structure nodes such that every
//! pattern atom, with constants pinned to their constant nodes, is an atom
//! of the target.
//!
//! Two compiled searches live here, each with one job:
//!
//! * [`WcoPlan`] (module [`wco`]) is the chase's engine: it enumerates every
//!   stage's triggers over the frozen snapshot, with per-atom insertion-order
//!   caps for the delta slices, and answers the head-satisfaction probes and
//!   [`exists_homomorphism`]. The chase canonicalises each stage's frontier,
//!   so only the match *set* of this engine reaches any output.
//! * [`HomPlan`] backs the ad-hoc searches — [`find_homomorphism`],
//!   [`all_homomorphisms`], [`for_each_homomorphism`],
//!   [`structure_homomorphism`] and the chase crate's model check. Its
//!   first-match order picks the witnesses that finite-model certificates
//!   record, so it stays until those witnesses are made order-independent.
//!
//! [`HomPlan`] is a classic backtracking join with two standard
//! optimisations:
//!
//! * **atom ordering**: at each step the atom with the most bound argument
//!   positions (and, among ties, the smallest candidate index) is expanded
//!   next — a greedy most-constrained-first heuristic;
//! * **index-driven candidates**: candidate target atoms come from the
//!   by-(predicate, position, node) index whenever any argument is bound,
//!   falling back to the by-predicate list otherwise.
//!
//! Patterns are **compiled** before searching: each variable gets a dense
//! slot, constants are resolved to their target nodes once, and the partial
//! assignment lives in a `Vec<Option<Node>>` indexed by slot with an undo
//! trail — no `HashMap` operations on the hot path. A [`VarMap`] is
//! materialised only at match emission (and callers that can consume raw
//! [`Binding`]s skip even that). A plan borrows its target, so it can be
//! compiled once and reused across many seeded searches as long as the
//! target is not mutated in between.
//!
//! Used by conjunctive-query evaluation (`D |= Q(ā)`, paper §II.A), by TGD
//! trigger enumeration in the chase (§II.B–C), and by the universality
//! checks of §VII (homomorphisms from the chase into finite models).

pub mod wco;

use crate::atom::{Atom, AtomRef};
use crate::fasthash::FastBuild;
use crate::structure::{Node, Structure};
use crate::term::{Term, Var};
use std::cell::Cell;
use std::collections::HashMap;
use std::ops::ControlFlow;

pub use wco::WcoPlan;

/// A (partial) assignment of pattern variables to target nodes.
pub type VarMap = HashMap<Var, Node>;

thread_local! {
    /// Candidate-binding attempts made by the search on this thread.
    static HOM_NODES: Cell<u64> = const { Cell::new(0) };
    /// Binding attempts not yet drained into the metrics registry.
    static PENDING_NODES: Cell<u64> = const { Cell::new(0) };
    /// Failed binding attempts (backtracks) not yet drained.
    static PENDING_BACKTRACKS: Cell<u64> = const { Cell::new(0) };
    /// Sorted-intersection element steps (wco engine) not yet drained.
    static PENDING_INTERSECTION_STEPS: Cell<u64> = const { Cell::new(0) };
    /// Variable-order plan-cache hits (wco engine) not yet drained.
    static PENDING_CACHE_HITS: Cell<u64> = const { Cell::new(0) };
    /// Variable-order plan-cache misses (wco engine) not yet drained.
    static PENDING_CACHE_MISSES: Cell<u64> = const { Cell::new(0) };
}

/// The number of homomorphism-search nodes (candidate-binding attempts)
/// explored on the **current thread** since it started.
///
/// The counter is monotone and thread-local: callers that want the cost of
/// one computation take a reading before and after and subtract (see
/// `cqfd-service`'s per-job metrics). Thread-locality means a worker thread
/// observes exactly its own jobs' work, with no cross-thread noise and no
/// synchronisation on the hot path.
pub fn hom_nodes_explored() -> u64 {
    HOM_NODES.get()
}

/// Resets the **current thread's** search-node counter to zero.
///
/// For long-lived worker threads that run many jobs back to back
/// (`cqfd-service` pool workers), before/after subtraction is fragile: a
/// reading taken against the wrong baseline silently charges one job with
/// a predecessor's work. Resetting at job start makes
/// [`hom_nodes_explored`] an absolute per-job figure. Do **not** call this
/// while a measurement that uses before/after subtraction (e.g. a chase
/// run) is in flight on the same thread.
pub fn reset_hom_nodes_explored() {
    HOM_NODES.set(0);
}

/// Credits `nodes` search nodes to the **current thread's** monotone
/// counter ([`hom_nodes_explored`]) without touching the pending metric
/// cells drained by [`publish_hom_metrics`].
///
/// The parallel chase fans trigger enumeration out over scoped worker
/// threads, each with its own thread-local counters. Workers publish their
/// own pending metric cells before exiting and report their node delta to
/// the coordinating thread, which calls this so that before/after
/// subtraction on the coordinator (e.g. `ChaseRun::hom_nodes`) still sees
/// the whole run's work. Crediting the pending cells here too would
/// double-count the registry totals the workers already published.
pub fn add_hom_nodes_explored(nodes: u64) {
    HOM_NODES.set(HOM_NODES.get() + nodes);
}

/// Drains this thread's hom-search work since the last call into the
/// global metrics registry (`cqfd_hom_search_nodes_total` and
/// `cqfd_hom_search_backtracks_total`).
///
/// The hot path (`try_bind`) touches only thread-local `Cell`s; this
/// flush is the single point where that work meets an atomic, so it
/// belongs at coarse boundaries — the end of a chase run, of a service
/// job, of a CLI command. Drain semantics (read-and-zero) make the flush
/// idempotent-safe: calling it twice never double-counts, and work is
/// attributed to whichever boundary drains first.
pub fn publish_hom_metrics() {
    let nodes = PENDING_NODES.replace(0);
    let backtracks = PENDING_BACKTRACKS.replace(0);
    let steps = PENDING_INTERSECTION_STEPS.replace(0);
    let hits = PENDING_CACHE_HITS.replace(0);
    let misses = PENDING_CACHE_MISSES.replace(0);
    if nodes == 0 && backtracks == 0 && steps == 0 && hits == 0 && misses == 0 {
        return;
    }
    let reg = cqfd_obs::global();
    if nodes > 0 {
        reg.counter(
            "cqfd_hom_search_nodes_total",
            "Homomorphism-search candidate-binding attempts explored.",
            &[],
        )
        .add(nodes);
    }
    if backtracks > 0 {
        reg.counter(
            "cqfd_hom_search_backtracks_total",
            "Homomorphism-search binding attempts that failed (backtracks).",
            &[],
        )
        .add(backtracks);
    }
    if steps > 0 {
        reg.counter(
            "cqfd_hom_intersection_steps_total",
            "Sorted-posting intersection element steps taken by the wco engine.",
            &[],
        )
        .add(steps);
    }
    if hits > 0 {
        reg.counter(
            "cqfd_homplan_cache_hits_total",
            "Wco variable-order plan-cache hits.",
            &[],
        )
        .add(hits);
    }
    if misses > 0 {
        reg.counter(
            "cqfd_homplan_cache_misses_total",
            "Wco variable-order plan-cache misses (orders computed).",
            &[],
        )
        .add(misses);
    }
}

/// Counts one explored search node (both the monotone thread counter and
/// the pending registry cell). Shared by [`HomPlan`] and [`WcoPlan`], so
/// both count in the same unit.
pub(crate) fn count_search_node() {
    HOM_NODES.set(HOM_NODES.get() + 1);
    PENDING_NODES.set(PENDING_NODES.get() + 1);
}

/// Counts one failed binding attempt (backtrack).
pub(crate) fn count_backtrack() {
    PENDING_BACKTRACKS.set(PENDING_BACKTRACKS.get() + 1);
}

/// Counts sorted-intersection element steps taken by the wco engine.
pub(crate) fn count_intersection_steps(steps: u64) {
    PENDING_INTERSECTION_STEPS.set(PENDING_INTERSECTION_STEPS.get() + steps);
}

/// Counts one wco plan-cache hit.
pub(crate) fn count_cache_hit() {
    PENDING_CACHE_HITS.set(PENDING_CACHE_HITS.get() + 1);
}

/// Counts one wco plan-cache miss.
pub(crate) fn count_cache_miss() {
    PENDING_CACHE_MISSES.set(PENDING_CACHE_MISSES.get() + 1);
}

/// Enumerates homomorphisms from `pattern` into `target` extending `fixed`,
/// invoking `visit` on each one found. `visit` may stop the enumeration by
/// returning [`ControlFlow::Break`].
///
/// Returns `Break(b)` if the visitor broke with value `b`, else `Continue`.
///
/// If a constant in the pattern has no node in the target, there is no
/// homomorphism (constants must be fixed, and a target without the constant
/// cannot host its atoms) — unless the constant appears in no pattern atom.
pub fn for_each_homomorphism<B>(
    pattern: &[Atom<Term>],
    target: &Structure,
    fixed: &VarMap,
    visit: impl FnMut(&VarMap) -> ControlFlow<B>,
) -> ControlFlow<B> {
    HomPlan::compile(pattern, target).for_each_maps(fixed, visit)
}

/// Finds one homomorphism from `pattern` into `target` extending `fixed`.
pub fn find_homomorphism(
    pattern: &[Atom<Term>],
    target: &Structure,
    fixed: &VarMap,
) -> Option<VarMap> {
    match for_each_homomorphism(pattern, target, fixed, |m| ControlFlow::Break(m.clone())) {
        ControlFlow::Break(m) => Some(m),
        ControlFlow::Continue(()) => None,
    }
}

/// Collects **all** homomorphisms (use only when the count is known small).
pub fn all_homomorphisms(
    pattern: &[Atom<Term>],
    target: &Structure,
    fixed: &VarMap,
) -> Vec<VarMap> {
    let mut out = Vec::new();
    let _: ControlFlow<()> = for_each_homomorphism(pattern, target, fixed, |m| {
        out.push(m.clone());
        ControlFlow::Continue(())
    });
    out
}

/// One compiled pattern argument: either a dense variable slot or a target
/// node a pattern constant resolved to at compile time. Shared by
/// [`HomPlan`] and [`WcoPlan`] so their slot numbering is interchangeable.
#[derive(Clone, Copy, Debug)]
pub(crate) enum PArg {
    Slot(u32),
    Node(Node),
}

/// One compiled pattern atom.
#[derive(Debug)]
pub(crate) struct PlanAtom {
    pub(crate) pred: crate::signature::PredId,
    pub(crate) args: Vec<PArg>,
}

/// A full assignment of a plan's variable slots, presented to raw-binding
/// visitors during enumeration.
///
/// Borrowed from the search's internal state: valid only for the duration of
/// the visitor call. Convert with [`Binding::to_varmap`] to keep it.
pub struct Binding<'a> {
    vars: &'a [Var],
    slots: &'a [Option<Node>],
}

impl<'a> Binding<'a> {
    /// Assembles a binding over a plan's slot state (crate-internal: both
    /// engines emit through this).
    pub(crate) fn new(vars: &'a [Var], slots: &'a [Option<Node>]) -> Self {
        Binding { vars, slots }
    }

    /// The node bound to `slot`. Panics if the slot is out of range or
    /// unbound — at emission every pattern slot is bound, so a panic here
    /// means the slot id came from a different plan.
    pub fn node(&self, slot: u32) -> Node {
        self.slots[slot as usize].expect("emitted binding has every pattern slot bound")
    }

    /// The node bound to variable `v`, if `v` occurs in the pattern.
    pub fn get(&self, v: Var) -> Option<Node> {
        let slot = self.vars.iter().position(|&w| w == v)?;
        self.slots[slot]
    }

    /// Materialises the binding as a [`VarMap`] over the pattern's variables.
    pub fn to_varmap(&self) -> VarMap {
        self.vars
            .iter()
            .zip(self.slots)
            .filter_map(|(&v, n)| n.map(|n| (v, n)))
            .collect()
    }
}

/// A conjunctive-query body compiled against one target structure.
///
/// Compilation assigns each pattern variable a dense slot (in order of first
/// occurrence), resolves pattern constants to their target nodes, and
/// detects up front the "dead" case where a pattern constant has no node in
/// the target (then no homomorphism exists). The search state is a
/// `Vec<Option<Node>>` indexed by slot plus an undo trail, so the per-
/// candidate hot path does no hashing and no allocation.
///
/// The plan borrows the target: it stays valid as long as the target is not
/// mutated. Ad-hoc callers go through [`for_each_homomorphism`] and
/// friends, which compile per call; the chase's model check compiles one
/// body and one head plan per TGD. The plan has no candidate caps: the
/// chase's frozen-snapshot enumeration runs on [`WcoPlan`].
///
/// Enumeration order and search-node counts are identical to the historical
/// uncompiled search: the atom-ordering heuristic and index selection read
/// the same statistics, only the representation of the partial assignment
/// changed.
pub struct HomPlan<'t> {
    target: &'t Structure,
    atoms: Vec<PlanAtom>,
    /// Slot → variable, in order of first occurrence in the pattern.
    vars: Vec<Var>,
    slot_of: HashMap<Var, u32, FastBuild>,
    /// A pattern constant has no node in the target: zero matches.
    dead: bool,
}

/// Shared front end of [`HomPlan`] and [`WcoPlan`]: the pattern lowered to
/// dense slots with constants resolved against one target. Keeping a single
/// lowering guarantees the two plans agree on slot numbering.
pub(crate) struct CompiledPattern {
    pub(crate) atoms: Vec<PlanAtom>,
    pub(crate) vars: Vec<Var>,
    pub(crate) slot_of: HashMap<Var, u32, FastBuild>,
    pub(crate) dead: bool,
}

pub(crate) fn compile_pattern(pattern: &[Atom<Term>], target: &Structure) -> CompiledPattern {
    let mut vars: Vec<Var> = Vec::new();
    let mut slot_of: HashMap<Var, u32, FastBuild> = HashMap::default();
    let mut dead = false;
    let atoms = pattern
        .iter()
        .map(|atom| PlanAtom {
            pred: atom.pred,
            args: atom
                .args
                .iter()
                .map(|t| match t {
                    Term::Var(v) => PArg::Slot(*slot_of.entry(*v).or_insert_with(|| {
                        vars.push(*v);
                        (vars.len() - 1) as u32
                    })),
                    Term::Const(c) => match target.existing_const_node(*c) {
                        Some(n) => PArg::Node(n),
                        None => {
                            dead = true;
                            PArg::Node(Node(u32::MAX))
                        }
                    },
                })
                .collect(),
        })
        .collect();
    CompiledPattern {
        atoms,
        vars,
        slot_of,
        dead,
    }
}

impl<'t> HomPlan<'t> {
    /// Compiles `pattern` against `target`.
    pub fn compile(pattern: &[Atom<Term>], target: &'t Structure) -> Self {
        let CompiledPattern {
            atoms,
            vars,
            slot_of,
            dead,
        } = compile_pattern(pattern, target);
        HomPlan {
            target,
            atoms,
            vars,
            slot_of,
            dead,
        }
    }

    /// The slot assigned to variable `v`, if `v` occurs in the pattern.
    pub fn slot(&self, v: Var) -> Option<u32> {
        self.slot_of.get(&v).copied()
    }

    /// Number of variable slots (= distinct pattern variables).
    pub fn slot_count(&self) -> usize {
        self.vars.len()
    }

    /// Slot → variable mapping, in order of first occurrence.
    pub fn vars(&self) -> &[Var] {
        &self.vars
    }

    /// Enumerates matches as raw [`Binding`]s, with slots in `seeds`
    /// pre-bound.
    ///
    /// This is the allocation-light entry point for hot loops: no `VarMap`
    /// is built unless the visitor asks for one.
    pub fn for_each_bindings<B>(
        &self,
        seeds: &[(u32, Node)],
        mut visit: impl FnMut(&Binding) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        if self.dead {
            return ControlFlow::Continue(());
        }
        // One relaxed load when no profiler is attached; while a sampling
        // window is open, the backtracking search shows up under its own
        // frame instead of vanishing into whatever span is active.
        let _frame = cqfd_obs::profile::frame("hom.search");
        let mut slots: Vec<Option<Node>> = vec![None; self.vars.len()];
        for &(s, n) in seeds {
            slots[s as usize] = Some(n);
        }
        let mut order: Vec<usize> = (0..self.atoms.len()).collect();
        let mut trail: Vec<u32> = Vec::with_capacity(self.vars.len());
        self.run(&mut slots, &mut order, &mut trail, 0, &mut |sl| {
            visit(&Binding {
                vars: &self.vars,
                slots: sl,
            })
        })
    }

    /// `true` iff at least one match exists with `seeds` pre-bound.
    ///
    /// This is the model check's head-satisfaction probe: seed the frontier
    /// slots and ask whether the head already matches.
    pub fn exists_seeded(&self, seeds: &[(u32, Node)]) -> bool {
        self.for_each_bindings(seeds, |_| ControlFlow::Break(()))
            .is_break()
    }

    /// Enumerates matches as [`VarMap`]s extending `fixed`, like
    /// [`for_each_homomorphism`]. Entries of `fixed` whose variables occur
    /// in the pattern seed the search; the rest are carried into every
    /// emitted map unchanged.
    pub fn for_each_maps<B>(
        &self,
        fixed: &VarMap,
        mut visit: impl FnMut(&VarMap) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        let mut seeds: Vec<(u32, Node)> = Vec::with_capacity(fixed.len());
        for (v, n) in fixed {
            if let Some(s) = self.slot(*v) {
                seeds.push((s, *n));
            }
        }
        let mut out = fixed.clone();
        self.for_each_bindings(&seeds, |b| {
            for (&v, n) in b.vars.iter().zip(b.slots) {
                out.insert(v, n.expect("full binding"));
            }
            visit(&out)
        })
    }

    /// Finds one match extending `fixed`.
    pub fn find(&self, fixed: &VarMap) -> Option<VarMap> {
        match self.for_each_maps(fixed, |m| ControlFlow::Break(m.clone())) {
            ControlFlow::Break(m) => Some(m),
            ControlFlow::Continue(()) => None,
        }
    }

    fn run<B, F: FnMut(&[Option<Node>]) -> ControlFlow<B>>(
        &self,
        slots: &mut Vec<Option<Node>>,
        order: &mut Vec<usize>,
        trail: &mut Vec<u32>,
        depth: usize,
        visit: &mut F,
    ) -> ControlFlow<B> {
        if depth == order.len() {
            return visit(slots);
        }
        // Pick the most-constrained remaining atom.
        let pick = self.pick_atom(slots, &order[depth..]);
        order.swap(depth, depth + pick);
        let atom_idx = order[depth];
        let atom = &self.atoms[atom_idx];

        // Enumerate candidate target atoms for `atom` straight off the
        // index slice — no per-step allocation.
        let candidates = self.candidate_slice(atom, slots);
        for &ai in candidates {
            let cand = self.target.atom(ai);
            let mark = trail.len();
            if self.try_bind(atom, cand, slots, trail) {
                let flow = self.run(slots, order, trail, depth + 1, visit);
                if flow.is_break() {
                    return flow;
                }
            }
            for &s in &trail[mark..] {
                slots[s as usize] = None;
            }
            trail.truncate(mark);
        }
        ControlFlow::Continue(())
    }

    /// Index (into the `remaining` slice) of the best atom to expand next.
    fn pick_atom(&self, slots: &[Option<Node>], remaining: &[usize]) -> usize {
        let mut best = 0usize;
        let mut best_key = (usize::MAX, usize::MAX); // (candidate count, -bound) minimised
        for (i, &ai) in remaining.iter().enumerate() {
            let atom = &self.atoms[ai];
            let mut bound = 0usize;
            let mut min_index = self.target.pred_count(atom.pred);
            for (pos, arg) in atom.args.iter().enumerate() {
                let node = match arg {
                    PArg::Slot(s) => slots[*s as usize],
                    PArg::Node(n) => Some(*n),
                };
                if let Some(n) = node {
                    bound += 1;
                    min_index = min_index.min(self.target.index_size(atom.pred, pos as u8, n));
                }
            }
            let key = (min_index, usize::MAX - bound);
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
        best
    }

    /// Candidate atom indices for a compiled atom under the current
    /// bindings: the tightest single-position index slice available,
    /// falling back to the by-predicate slice.
    fn candidate_slice(&self, atom: &PlanAtom, slots: &[Option<Node>]) -> &'t [u32] {
        let mut best: Option<(u8, Node, usize)> = None;
        for (pos, arg) in atom.args.iter().enumerate() {
            let node = match arg {
                PArg::Slot(s) => slots[*s as usize],
                PArg::Node(n) => Some(*n),
            };
            if let Some(n) = node {
                let sz = self.target.index_size(atom.pred, pos as u8, n);
                if best.is_none_or(|(_, _, b)| sz < b) {
                    best = Some((pos as u8, n, sz));
                }
            }
        }
        match best {
            Some((pos, n, _)) => self.target.pred_pos_node_index(atom.pred, pos, n),
            None => self.target.pred_index(atom.pred),
        }
    }

    /// Attempts to unify `atom` with the ground candidate, extending the
    /// slot assignment; newly bound slots are pushed onto `trail` (the
    /// caller unwinds to its mark on backtrack).
    fn try_bind(
        &self,
        atom: &PlanAtom,
        cand: AtomRef<'_>,
        slots: &mut [Option<Node>],
        trail: &mut Vec<u32>,
    ) -> bool {
        debug_assert_eq!(atom.pred, cand.pred);
        count_search_node();
        let ok = Self::bind_args(atom, cand, slots, trail);
        if !ok {
            count_backtrack();
        }
        ok
    }

    fn bind_args(
        atom: &PlanAtom,
        cand: AtomRef<'_>,
        slots: &mut [Option<Node>],
        trail: &mut Vec<u32>,
    ) -> bool {
        for (arg, &n) in atom.args.iter().zip(cand.args) {
            match arg {
                PArg::Node(m) => {
                    if *m != n {
                        return false;
                    }
                }
                PArg::Slot(s) => match slots[*s as usize] {
                    Some(m) => {
                        if m != n {
                            return false;
                        }
                    }
                    None => {
                        slots[*s as usize] = Some(n);
                        trail.push(*s);
                    }
                },
            }
        }
        true
    }
}

/// `true` iff a homomorphism from `pattern` into `target` extending `fixed`
/// exists, searched with [`WcoPlan`].
///
/// The boolean-only sibling of [`find_homomorphism`], for hot-path callers
/// that do not need the witness map (the chase's live head re-check, the
/// oracle's per-stage monitor).
pub fn exists_homomorphism(pattern: &[Atom<Term>], target: &Structure, fixed: &VarMap) -> bool {
    let plan = WcoPlan::compile(pattern, target);
    let mut seeds: Vec<(u32, Node)> = Vec::with_capacity(fixed.len());
    for (v, n) in fixed {
        if let Some(s) = plan.slot(*v) {
            seeds.push((s, *n));
        }
    }
    let limits = vec![u32::MAX; pattern.len()];
    plan.exists_seeded(&seeds, &limits)
}

/// Searches for a homomorphism `h : source → target` between structures over
/// the same signature: every atom of `source` must map to an atom of
/// `target`, constants fixed (mapped to the target's constant nodes).
///
/// Only the *active* nodes of `source` (those in atoms or constants) are
/// mapped; isolated nodes impose no constraints and are omitted from the
/// returned map.
///
/// This is the universality tool of §VII Step 2: for every finite model `M`
/// of `T` containing `DI` there is a homomorphism `chase(T, DI) → M`.
pub fn structure_homomorphism(
    source: &Structure,
    target: &Structure,
) -> Option<HashMap<Node, Node>> {
    // View each source node as a variable, except constants which become
    // constant terms.
    let pattern: Vec<Atom<Term>> = source
        .atoms()
        .map(|a| Atom {
            pred: a.pred,
            args: a
                .args
                .iter()
                .map(|&n| match source.const_of_node(n) {
                    Some(c) => Term::Const(c),
                    None => Term::Var(Var(n.0)),
                })
                .collect(),
        })
        .collect();
    let hom = find_homomorphism(&pattern, target, &VarMap::new())?;
    let mut out: HashMap<Node, Node> = hom.into_iter().map(|(v, n)| (Node(v.0), n)).collect();
    // Constants map to constant nodes.
    for n in source.active_nodes() {
        if let Some(c) = source.const_of_node(n) {
            match target.existing_const_node(c) {
                Some(m) => {
                    out.insert(n, m);
                }
                None => return None,
            }
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::Signature;
    use std::sync::Arc;

    fn path_structure(len: usize) -> (Structure, Vec<Node>) {
        let mut sig = Signature::new();
        sig.add_predicate("E", 2);
        let sig = Arc::new(sig);
        let e = sig.predicate("E").unwrap();
        let mut d = Structure::new(sig);
        let nodes: Vec<Node> = (0..=len).map(|_| d.fresh_node()).collect();
        for w in nodes.windows(2) {
            d.add(e, &[w[0], w[1]]);
        }
        (d, nodes)
    }

    fn edge_atom(d: &Structure, x: u32, y: u32) -> Atom<Term> {
        let e = d.signature().predicate("E").unwrap();
        Atom::new(e, vec![Term::Var(Var(x)), Term::Var(Var(y))])
    }

    #[test]
    fn finds_path_matches() {
        let (d, _) = path_structure(3);
        // pattern: E(x,y), E(y,z) — a path of length 2; 2 matches in a 3-path
        let pattern = vec![edge_atom(&d, 0, 1), edge_atom(&d, 1, 2)];
        let all = all_homomorphisms(&pattern, &d, &VarMap::new());
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn respects_fixed_bindings() {
        let (d, nodes) = path_structure(3);
        let pattern = vec![edge_atom(&d, 0, 1)];
        let mut fixed = VarMap::new();
        fixed.insert(Var(0), nodes[1]);
        let all = all_homomorphisms(&pattern, &d, &fixed);
        assert_eq!(all.len(), 1);
        assert_eq!(all[0][&Var(1)], nodes[2]);
    }

    #[test]
    fn no_match_when_absent() {
        let (d, nodes) = path_structure(1);
        // E(x,x) requires a self-loop
        let pattern = vec![edge_atom(&d, 0, 0)];
        assert!(find_homomorphism(&pattern, &d, &VarMap::new()).is_none());
        let mut fixed = VarMap::new();
        fixed.insert(Var(0), nodes[1]); // terminal node has no outgoing edge
        let pattern = vec![edge_atom(&d, 0, 1)];
        assert!(find_homomorphism(&pattern, &d, &fixed).is_none());
    }

    #[test]
    fn constants_pin_matches() {
        let mut sig = Signature::new();
        let e = sig.add_predicate("E", 2);
        let a = sig.add_constant("a");
        let sig = Arc::new(sig);
        let mut d = Structure::new(Arc::clone(&sig));
        let na = d.node_for_const(a);
        let x = d.fresh_node();
        let y = d.fresh_node();
        d.add(e, &[na, x]);
        d.add(e, &[y, x]);
        let pattern = vec![Atom::new(e, vec![Term::Const(a), Term::Var(Var(0))])];
        let all = all_homomorphisms(&pattern, &d, &VarMap::new());
        assert_eq!(all.len(), 1);
        assert_eq!(all[0][&Var(0)], x);
    }

    #[test]
    fn missing_constant_means_no_match() {
        let mut sig = Signature::new();
        let e = sig.add_predicate("E", 2);
        let a = sig.add_constant("a");
        let sig = Arc::new(sig);
        let mut d = Structure::new(Arc::clone(&sig));
        let x = d.fresh_node();
        let y = d.fresh_node();
        d.add(e, &[x, y]);
        let pattern = vec![Atom::new(e, vec![Term::Const(a), Term::Var(Var(0))])];
        assert!(find_homomorphism(&pattern, &d, &VarMap::new()).is_none());
    }

    #[test]
    fn early_exit_via_break() {
        let (d, _) = path_structure(5);
        let pattern = vec![edge_atom(&d, 0, 1)];
        let mut count = 0;
        let res: ControlFlow<()> = for_each_homomorphism(&pattern, &d, &VarMap::new(), |_| {
            count += 1;
            if count == 2 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert!(res.is_break());
        assert_eq!(count, 2);
    }

    #[test]
    fn structure_hom_path_into_cycle() {
        // A path of length 3 maps homomorphically into a 2-cycle.
        let (path, _) = path_structure(3);
        let mut sig = Signature::new();
        let e = sig.add_predicate("E", 2);
        let sig = Arc::new(sig);
        let mut cycle = Structure::new(sig);
        let u = cycle.fresh_node();
        let v = cycle.fresh_node();
        cycle.add(e, &[u, v]);
        cycle.add(e, &[v, u]);
        let h = structure_homomorphism(&path, &cycle).expect("path -> cycle exists");
        // All 4 active path nodes must be mapped.
        assert_eq!(h.len(), 4);
        // And the reverse direction must fail: a 2-cycle cannot map into a path
        // (paths are acyclic and homomorphisms preserve edges).
        assert!(structure_homomorphism(&cycle, &path).is_none());
    }

    #[test]
    fn structure_hom_fixes_constants() {
        let mut sig = Signature::new();
        let e = sig.add_predicate("E", 2);
        let a = sig.add_constant("a");
        let sig = Arc::new(sig);
        let mut s1 = Structure::new(Arc::clone(&sig));
        let na = s1.node_for_const(a);
        let x = s1.fresh_node();
        s1.add(e, &[na, x]);
        // Target where the constant has an edge: fine.
        let mut s2 = Structure::new(Arc::clone(&sig));
        let ma = s2.node_for_const(a);
        let y = s2.fresh_node();
        s2.add(e, &[ma, y]);
        let h = structure_homomorphism(&s1, &s2).unwrap();
        assert_eq!(h[&na], ma);
        // Target where only a non-constant node has the edge: must fail.
        let mut s3 = Structure::new(Arc::clone(&sig));
        let p = s3.fresh_node();
        let q = s3.fresh_node();
        s3.add(e, &[p, q]);
        assert!(structure_homomorphism(&s1, &s3).is_none());
    }

    #[test]
    fn empty_pattern_has_exactly_one_hom() {
        let (d, _) = path_structure(1);
        let all = all_homomorphisms(&[], &d, &VarMap::new());
        assert_eq!(all.len(), 1);
        assert!(all[0].is_empty());
    }

    #[test]
    fn plan_reuse_matches_per_call_search() {
        // One compiled plan, seeded repeatedly, must agree with the
        // compile-per-call wrappers in both matches and emission order.
        let (d, nodes) = path_structure(4);
        let pattern = vec![edge_atom(&d, 0, 1), edge_atom(&d, 1, 2)];
        let plan = HomPlan::compile(&pattern, &d);
        let s0 = plan.slot(Var(0)).unwrap();
        for &seed in &nodes {
            let mut via_plan: Vec<VarMap> = Vec::new();
            let _: ControlFlow<()> = plan.for_each_bindings(&[(s0, seed)], |b| {
                via_plan.push(b.to_varmap());
                ControlFlow::Continue(())
            });
            let mut fixed = VarMap::new();
            fixed.insert(Var(0), seed);
            let via_call = all_homomorphisms(&pattern, &d, &fixed);
            assert_eq!(via_plan.len(), via_call.len());
            for (a, b) in via_plan.iter().zip(&via_call) {
                for v in [Var(0), Var(1), Var(2)] {
                    assert_eq!(a.get(&v), b.get(&v), "seed {seed:?}, var {v:?}");
                }
            }
        }
    }

    #[test]
    fn exists_seeded_agrees_with_find() {
        let (d, nodes) = path_structure(3);
        let pattern = vec![edge_atom(&d, 0, 1), edge_atom(&d, 1, 2)];
        let plan = HomPlan::compile(&pattern, &d);
        let s0 = plan.slot(Var(0)).unwrap();
        for &n in &nodes {
            let mut fixed = VarMap::new();
            fixed.insert(Var(0), n);
            assert_eq!(
                plan.exists_seeded(&[(s0, n)]),
                find_homomorphism(&pattern, &d, &fixed).is_some()
            );
        }
    }

    #[test]
    fn fixed_vars_outside_pattern_are_carried_through() {
        let (d, nodes) = path_structure(2);
        let pattern = vec![edge_atom(&d, 0, 1)];
        let mut fixed = VarMap::new();
        fixed.insert(Var(7), nodes[0]); // not in the pattern
        let all = all_homomorphisms(&pattern, &d, &fixed);
        assert_eq!(all.len(), 2);
        for m in &all {
            assert_eq!(m[&Var(7)], nodes[0]);
        }
    }

    #[test]
    fn add_hom_nodes_credits_local_counter_only() {
        publish_hom_metrics(); // drain pending
        let before = hom_nodes_explored();
        add_hom_nodes_explored(42);
        assert_eq!(hom_nodes_explored(), before + 42);
        // Pending cells untouched: a publish now must not add the 42 to the
        // registry (workers already published their own).
        let snap = |name: &str| {
            cqfd_obs::global()
                .snapshot()
                .family(name)
                .and_then(|f| f.get(&[]))
                .and_then(|v| v.as_counter())
                .unwrap_or(0)
        };
        let nodes0 = snap("cqfd_hom_search_nodes_total");
        publish_hom_metrics();
        let nodes1 = snap("cqfd_hom_search_nodes_total");
        // Other test threads may publish concurrently, so we can only bound
        // the delta from below by zero — but our own thread added nothing.
        assert!(nodes1 >= nodes0);
    }

    #[test]
    fn publish_drains_pending_work_exactly_once() {
        // The global registry is shared across parallel tests, so assert
        // deltas on monotone counters, not absolute values.
        let read = || {
            let snap = cqfd_obs::global().snapshot();
            let get = |name: &str| {
                snap.family(name)
                    .and_then(|f| f.get(&[]))
                    .and_then(|v| v.as_counter())
                    .unwrap_or(0)
            };
            (
                get("cqfd_hom_search_nodes_total"),
                get("cqfd_hom_search_backtracks_total"),
            )
        };
        publish_hom_metrics(); // drain whatever this thread accumulated so far
        let (nodes0, _bt0) = read();
        let (d, _) = path_structure(3);
        let pattern = vec![edge_atom(&d, 0, 1), edge_atom(&d, 1, 2)];
        let local0 = hom_nodes_explored();
        let n = all_homomorphisms(&pattern, &d, &VarMap::new()).len();
        assert_eq!(n, 2);
        let local_delta = hom_nodes_explored() - local0;
        assert!(local_delta > 0);
        publish_hom_metrics();
        let (nodes1, _) = read();
        // Other test threads may publish concurrently; ours alone
        // guarantees at least `local_delta` new nodes.
        assert!(nodes1 >= nodes0 + local_delta);
        // A second publish with no new work adds nothing from this thread
        // (can't assert global equality under contention, but the pending
        // cells must be empty).
        publish_hom_metrics();
    }
}
