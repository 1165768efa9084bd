//! Worst-case-optimal homomorphism search over the columnar substrate: the
//! chase's trigger enumerator.
//!
//! The ad-hoc [`HomPlan`](super::HomPlan) search is an atom-at-a-time
//! backtracking join: it places one whole pattern atom per step, scanning
//! the tightest *single-position* index slice for candidates. This module
//! is the generic-join alternative: a **variable-at-a-time** search in the
//! leapfrog style, where binding a variable immediately intersects the
//! sorted per-position postings of *every* atom that mentions it. A
//! candidate survives only if it is consistent with all atoms at once, so
//! the engine never pays for a cross-product a later atom would refute —
//! the property that makes generic join worst-case optimal on cyclic
//! joins.
//!
//! Concretely, a [`WcoPlan`] maintains one sorted candidate-row list per
//! pattern atom (global atom ids, ascending — exactly the shape
//! [`Structure`]'s columnar postings expose). Each step picks the atom
//! with the fewest surviving candidates and then either
//!
//! * **binds one variable**: enumerate the sorted distinct values of that
//!   variable's column over the pivot's candidates, and for each value
//!   intersect the posting `(pred, pos, value)` into every atom that
//!   mentions the variable (k-way sorted intersection, counted in
//!   `cqfd_hom_intersection_steps_total`); or
//! * **binds the whole pivot row**: when only the pivot still has unbound
//!   variables, or when value enumeration would not collapse anything
//!   (every candidate row carries a distinct value), the factorised
//!   enumeration degenerates and the engine walks the pivot's candidate
//!   rows directly — one search node per row, the same unit the backtracking
//!   engine charges.
//!
//! Variable order comes from a planner that scores each variable by its
//! best (smallest) estimated average posting length — `rows ÷ distinct`
//! per mentioning position — and the computed order is memoised in a
//! thread-local **plan cache** keyed by `(structure uid, structure epoch,
//! pattern fingerprint)`, so repeated compiles of the same pattern
//! against the same frozen snapshot reuse the order
//! (`cqfd_homplan_cache_{hits,misses}_total`). On the fig3 chases the
//! measured hit rate is ~40%: distinct per-slice head patterns miss by
//! design, and every epoch bump invalidates — which is why the miss
//! path is kept allocation-lean rather than the cache being relied on.
//!
//! [`WcoPlan`] and [`HomPlan`](super::HomPlan) enumerate the same match
//! *set*; order differs. The chase canonicalises each stage's frontier
//! before applying it, so only the set reaches a structure, a verdict or a
//! certificate.

use super::{
    compile_pattern, count_backtrack, count_cache_hit, count_cache_miss, count_intersection_steps,
    count_search_node, Binding, PArg, PlanAtom, VarMap,
};
use crate::atom::Atom;
use crate::fasthash::{FastBuild, FxHasher};
use crate::structure::{Node, Structure};
use crate::term::{Term, Var};
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::ops::ControlFlow;
use std::sync::Arc;

/// Cached variable orders: `(structure uid, epoch, pattern fingerprint)` →
/// slot priority ranks. Thread-local so the hot path takes no lock; the
/// chase's worker threads each warm their own copy against the shared
/// frozen snapshot.
const PLAN_CACHE_CAP: usize = 1024;

/// Plan-cache key: `(structure uid, epoch, pattern fingerprint)`.
type PlanKey = (u64, u64, u64);

thread_local! {
    static PLAN_CACHE: RefCell<HashMap<PlanKey, Arc<[u32]>, FastBuild>> =
        RefCell::new(HashMap::default());
}

/// A pattern compiled for worst-case-optimal enumeration against one
/// target structure.
///
/// Mirrors [`HomPlan`](super::HomPlan)'s surface (`slot`,
/// `for_each_bindings`, `exists_seeded`, `for_each_maps`, `find`), plus
/// per-atom candidate caps, with identical slot numbering: both plans
/// lower through the same front end.
pub struct WcoPlan<'p, 't> {
    pattern: &'p [Atom<Term>],
    target: &'t Structure,
    atoms: Vec<PlanAtom>,
    vars: Vec<Var>,
    slot_of: HashMap<Var, u32, FastBuild>,
    dead: bool,
    /// Per slot: every `(atom index, position)` where it occurs, flattened
    /// CSR-style (`occ_starts` delimits slot `s`'s run). The chase
    /// compiles thousands of plans per run, so per-slot `Vec`s would put
    /// an allocation on the compile path for every variable.
    occ: Vec<(u32, u8)>,
    occ_starts: Vec<u32>,
    /// Per atom: its distinct slots (the pivot scan runs once per search
    /// node, so this beats re-matching on `PArg` every time). Flattened
    /// like `occ`, delimited by `slot_starts`.
    slots_flat: Vec<u32>,
    slot_starts: Vec<u32>,
    /// Per slot: planner rank (0 = bind first). Shared with the plan
    /// cache, so a cache hit is a refcount bump rather than a copy.
    priority: Arc<[u32]>,
    /// Reusable search state. The chase enumerates a slice by calling
    /// `for_each_bindings` once per delta atom and `exists_seeded` once
    /// per match against the *same* compiled plan — thousands of calls
    /// that each expand only a handful of nodes — so the per-call setup
    /// (slot vector, candidate lists, scratch pools) is kept here and
    /// recycled instead of reallocated. Guarded so a reentrant call from
    /// inside a `visit` callback falls back to a fresh local state.
    scratch: RefCell<State<'t>>,
}

/// Mutable search state: the partial slot assignment plus one sorted
/// candidate-row list per pattern atom. Lists start as borrowed views of
/// the columnar indexes (row prefixes and postings) and only become owned
/// once an intersection actually narrows them — the chase calls
/// `for_each_bindings`/`exists_seeded` once per delta atom and once per
/// match, so copying whole index slices up front would dominate the
/// search itself.
struct State<'t> {
    slots: Vec<Option<Node>>,
    cands: Vec<Cow<'t, [u32]>>,
    /// Per-atom scratch for resolving fixed argument positions at init.
    resolved: Vec<Option<Node>>,
    /// Free lists of spent scratch buffers (intersection outputs, value
    /// groups, row/undo bookkeeping), recycled on backtrack so the inner
    /// loop stops hitting the allocator: the search expands hundreds of
    /// thousands of nodes per chase and a malloc per node is the
    /// difference between winning and losing against the backtracking search.
    pool: Vec<Vec<u32>>,
    pairs_pool: Vec<Vec<(Node, u32)>>,
    unbound_pool: Vec<Vec<(usize, u32)>>,
    saved_pool: Vec<Vec<(usize, Cow<'t, [u32]>)>>,
    /// Positions of the chosen slot within the pivot atom — used strictly
    /// before recursing, so a single scratch suffices.
    positions: Vec<usize>,
    /// Per atom: this call's candidate cap, as passed to `search`.
    limits: Vec<u32>,
    /// Per atom: the length of its initial candidate list if that list
    /// was the *full* clamped predicate prefix, else `u32::MAX`. While an
    /// atom's list still has this length it is provably untouched (a
    /// narrowing that preserves the length of a sorted subset is the
    /// identity), so intersecting a posting into it can be replaced by
    /// borrowing the clamped posting outright.
    full_len: Vec<u32>,
}

/// The lifetime-free buffers of a [`State`], parked between plans. The
/// chase compiles thousands of short-lived plans per run, each serving
/// only a handful of searches — too few to amortise a cold pool — so
/// spent states hand their buffers to a thread-local stash and the next
/// plan's state starts warm.
#[derive(Default)]
struct PoolSet {
    slots: Vec<Option<Node>>,
    resolved: Vec<Option<Node>>,
    pool: Vec<Vec<u32>>,
    pairs_pool: Vec<Vec<(Node, u32)>>,
    unbound_pool: Vec<Vec<(usize, u32)>>,
    positions: Vec<usize>,
    limits: Vec<u32>,
    full_len: Vec<u32>,
}

/// A plan's spent CSR shape buffers (occurrence and distinct-slot
/// tables), parked between compiles for the same reason as [`PoolSet`]:
/// the chase compiles a fresh plan per slice.
#[derive(Default)]
struct ShapeSet {
    occ: Vec<(u32, u8)>,
    occ_starts: Vec<u32>,
    slots_flat: Vec<u32>,
    slot_starts: Vec<u32>,
}

const STASH_CAP: usize = 8;

thread_local! {
    static POOL_STASH: RefCell<Vec<PoolSet>> = const { RefCell::new(Vec::new()) };
    static SHAPE_STASH: RefCell<Vec<ShapeSet>> = const { RefCell::new(Vec::new()) };
}

impl<'t> State<'t> {
    fn new() -> Self {
        let ps = POOL_STASH
            .try_with(|s| s.borrow_mut().pop())
            .ok()
            .flatten()
            .unwrap_or_default();
        State {
            slots: ps.slots,
            cands: Vec::new(),
            resolved: ps.resolved,
            pool: ps.pool,
            pairs_pool: ps.pairs_pool,
            unbound_pool: ps.unbound_pool,
            saved_pool: Vec::new(),
            positions: ps.positions,
            limits: ps.limits,
            full_len: ps.full_len,
        }
    }

    /// Resets the assignment and recycles last call's candidate buffers,
    /// leaving the pools warm for the next search.
    fn reset(&mut self, nslots: usize) {
        let State { cands, pool, .. } = self;
        for c in cands.drain(..) {
            if let Cow::Owned(v) = c {
                pool.push(v);
            }
        }
        self.slots.clear();
        self.slots.resize(nslots, None);
        self.limits.clear();
        self.full_len.clear();
    }

    fn take_buf(&mut self) -> Vec<u32> {
        self.pool.pop().map(cleared).unwrap_or_default()
    }

    fn take_pairs(&mut self) -> Vec<(Node, u32)> {
        self.pairs_pool.pop().map(cleared).unwrap_or_default()
    }

    fn take_unbound(&mut self) -> Vec<(usize, u32)> {
        self.unbound_pool.pop().map(cleared).unwrap_or_default()
    }

    fn take_saved(&mut self) -> Vec<(usize, Cow<'t, [u32]>)> {
        self.saved_pool.pop().map(cleared).unwrap_or_default()
    }

    /// Restores atom `aj`'s candidate list, recycling the superseded
    /// owned buffer into the pool.
    fn restore(&mut self, aj: usize, old: Cow<'t, [u32]>) {
        if let Cow::Owned(v) = std::mem::replace(&mut self.cands[aj], old) {
            self.pool.push(v);
        }
    }
}

impl Drop for WcoPlan<'_, '_> {
    fn drop(&mut self) {
        let ss = ShapeSet {
            occ: std::mem::take(&mut self.occ),
            occ_starts: std::mem::take(&mut self.occ_starts),
            slots_flat: std::mem::take(&mut self.slots_flat),
            slot_starts: std::mem::take(&mut self.slot_starts),
        };
        let _ = SHAPE_STASH.try_with(|s| {
            let mut s = s.borrow_mut();
            if s.len() < STASH_CAP {
                s.push(ss);
            }
        });
    }
}

impl Drop for State<'_> {
    fn drop(&mut self) {
        // Recycle the borrowed-lifetime-free buffers for the next plan.
        // `try_with` so a drop during thread teardown stays silent.
        let State { cands, pool, .. } = self;
        for c in cands.drain(..) {
            if let Cow::Owned(v) = c {
                pool.push(v);
            }
        }
        let ps = PoolSet {
            slots: std::mem::take(&mut self.slots),
            resolved: std::mem::take(&mut self.resolved),
            pool: std::mem::take(&mut self.pool),
            pairs_pool: std::mem::take(&mut self.pairs_pool),
            unbound_pool: std::mem::take(&mut self.unbound_pool),
            positions: std::mem::take(&mut self.positions),
            limits: std::mem::take(&mut self.limits),
            full_len: std::mem::take(&mut self.full_len),
        };
        let _ = POOL_STASH.try_with(|s| {
            let mut s = s.borrow_mut();
            if s.len() < STASH_CAP {
                s.push(ps);
            }
        });
    }
}

fn cleared<T>(mut v: Vec<T>) -> Vec<T> {
    v.clear();
    v
}

impl<'p, 't> WcoPlan<'p, 't> {
    /// Compiles `pattern` against `target`, consulting the variable-order
    /// plan cache.
    pub fn compile(pattern: &'p [Atom<Term>], target: &'t Structure) -> Self {
        let compiled = compile_pattern(pattern, target);
        let nslots = compiled.vars.len();
        let ShapeSet {
            mut occ,
            mut occ_starts,
            mut slots_flat,
            mut slot_starts,
        } = SHAPE_STASH
            .try_with(|s| s.borrow_mut().pop())
            .ok()
            .flatten()
            .unwrap_or_default();
        // Occurrences, CSR in two passes: count per slot, prefix-sum,
        // scatter. `occ_starts[s]` doubles as the write cursor in the
        // scatter pass and ends up back at the run start.
        occ_starts.clear();
        occ_starts.resize(nslots + 2, 0);
        for atom in &compiled.atoms {
            for arg in &atom.args {
                if let PArg::Slot(s) = arg {
                    occ_starts[*s as usize + 2] += 1;
                }
            }
        }
        for i in 2..occ_starts.len() {
            occ_starts[i] += occ_starts[i - 1];
        }
        let total = *occ_starts.last().unwrap() as usize;
        occ.clear();
        occ.resize(total, (0u32, 0u8));
        // Distinct slots per atom in the same sweep (bodies are tiny, so
        // the linear `contains` over the atom's own run is fine).
        slots_flat.clear();
        slot_starts.clear();
        slot_starts.resize(compiled.atoms.len() + 1, 0);
        for (ai, atom) in compiled.atoms.iter().enumerate() {
            let run = slots_flat.len();
            for (pos, arg) in atom.args.iter().enumerate() {
                if let PArg::Slot(s) = arg {
                    let cursor = &mut occ_starts[*s as usize + 1];
                    occ[*cursor as usize] = (ai as u32, pos as u8);
                    *cursor += 1;
                    if !slots_flat[run..].contains(s) {
                        slots_flat.push(*s);
                    }
                }
            }
            slot_starts[ai + 1] = slots_flat.len() as u32;
        }
        occ_starts.pop();
        let priority = cached_priority(&compiled.atoms, nslots, target);
        WcoPlan {
            pattern,
            target,
            atoms: compiled.atoms,
            vars: compiled.vars,
            slot_of: compiled.slot_of,
            dead: compiled.dead,
            occ,
            occ_starts,
            slots_flat,
            slot_starts,
            priority,
            scratch: RefCell::new(State::new()),
        }
    }

    /// The `(atom, position)` occurrences of slot `s`.
    #[inline]
    fn occurrences_of(&self, s: u32) -> &[(u32, u8)] {
        let lo = self.occ_starts[s as usize] as usize;
        let hi = self.occ_starts[s as usize + 1] as usize;
        &self.occ[lo..hi]
    }

    /// The distinct slots of atom `ai`.
    #[inline]
    fn slots_of(&self, ai: usize) -> &[u32] {
        let lo = self.slot_starts[ai] as usize;
        let hi = self.slot_starts[ai + 1] as usize;
        &self.slots_flat[lo..hi]
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
    /// pre-bound; `limits[i]` caps atom `i`'s candidates to the first
    /// `limits[i]` target atoms in insertion order (`u32::MAX` = no cap).
    ///
    /// The caps are the chase's frozen-snapshot mode: a stage enumerates
    /// triggers over the atoms of `chaseᵢ` only (paper §II.C), and a delta
    /// slice restricts the atoms before its seed position to the previous
    /// stage's prefix so every trigger is enumerated exactly once. Same
    /// match set as [`HomPlan::for_each_bindings`](super::HomPlan::for_each_bindings)
    /// when no cap binds, different enumeration order.
    pub fn for_each_bindings<B>(
        &self,
        seeds: &[(u32, Node)],
        limits: &[u32],
        mut visit: impl FnMut(&Binding) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        assert_eq!(limits.len(), self.pattern.len());
        if self.dead {
            return ControlFlow::Continue(());
        }
        let _frame = cqfd_obs::profile::frame("hom.search");
        match self.scratch.try_borrow_mut() {
            Ok(mut st) => self.search(&mut st, seeds, limits, &mut |b| visit(b)),
            // Reentrant call from inside a visit callback: run on a cold
            // local state rather than aliasing the shared scratch.
            Err(_) => self.search(&mut State::new(), seeds, limits, &mut |b| visit(b)),
        }
    }

    /// The body of [`Self::for_each_bindings`], running on (usually
    /// recycled) search state `st`.
    fn search<B>(
        &self,
        st: &mut State<'t>,
        seeds: &[(u32, Node)],
        limits: &[u32],
        visit: &mut impl FnMut(&Binding) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        st.reset(self.vars.len());
        for &(s, n) in seeds {
            st.slots[s as usize] = Some(n);
        }
        // Initial candidate lists: the predicate's row prefix under the
        // atom's limit, pre-intersected with the posting of every
        // position already fixed by a constant or a seed. Borrowed until
        // a second fixed position forces a real intersection.
        for (i, atom) in self.atoms.iter().enumerate() {
            let limit = limits[i];
            let mut resolved = std::mem::take(&mut st.resolved);
            resolved.clear();
            resolved.extend(atom.args.iter().map(|arg| match arg {
                PArg::Node(n) => Some(*n),
                PArg::Slot(s) => st.slots[*s as usize],
            }));
            if !resolved.is_empty() && resolved.iter().all(Option::is_some) {
                // Fully ground atom (e.g. the chase's head-satisfaction
                // probe with every head slot seeded): atoms are
                // deduplicated, so the k-way posting intersection is a
                // singleton — find the witnessing row by scanning the
                // smallest posting instead of intersecting any of them.
                let posting_at = |pos: usize| {
                    let n = resolved[pos].expect("all positions fixed");
                    clamp(
                        self.target.pred_pos_node_index(atom.pred, pos as u8, n),
                        limit,
                    )
                };
                let best = (0..resolved.len())
                    .min_by_key(|&pos| posting_at(pos).len())
                    .expect("non-empty args");
                let hit = posting_at(best).iter().copied().find(|&row| {
                    self.target
                        .args_of(row)
                        .iter()
                        .zip(&resolved)
                        .all(|(a, r)| Some(*a) == *r)
                });
                st.resolved = resolved;
                match hit {
                    Some(row) => {
                        let mut buf = st.take_buf();
                        buf.push(row);
                        st.cands.push(Cow::Owned(buf));
                        st.limits.push(limit);
                        st.full_len.push(u32::MAX);
                    }
                    None => return ControlFlow::Continue(()),
                }
                continue;
            }
            let mut list: Option<Cow<'t, [u32]>> = None;
            for (pos, node) in resolved.iter().enumerate() {
                if let Some(n) = *node {
                    let posting = clamp(
                        self.target.pred_pos_node_index(atom.pred, pos as u8, n),
                        limit,
                    );
                    list = Some(match list {
                        // A posting is a subset of the row list, so the
                        // first fixed position replaces the prefix scan.
                        None => Cow::Borrowed(posting),
                        Some(cur) => {
                            let mut buf = st.take_buf();
                            intersect_into(&mut buf, &cur, posting);
                            if let Cow::Owned(v) = cur {
                                st.pool.push(v);
                            }
                            Cow::Owned(buf)
                        }
                    });
                }
            }
            st.resolved = resolved;
            let mut full = false;
            let list = list.unwrap_or_else(|| {
                full = true;
                Cow::Borrowed(clamp(self.target.pred_index(atom.pred), limit))
            });
            if list.is_empty() {
                if let Cow::Owned(v) = list {
                    st.pool.push(v);
                }
                return ControlFlow::Continue(());
            }
            st.limits.push(limit);
            st.full_len
                .push(if full { list.len() as u32 } else { u32::MAX });
            st.cands.push(list);
        }
        self.step(st, visit)
    }

    /// `true` iff at least one match exists with `seeds` pre-bound, under
    /// the given per-atom candidate limits.
    pub fn exists_seeded(&self, seeds: &[(u32, Node)], limits: &[u32]) -> bool {
        self.for_each_bindings(seeds, limits, |_| ControlFlow::Break(()))
            .is_break()
    }

    /// Enumerates matches as [`VarMap`]s extending `fixed`, like
    /// [`HomPlan::for_each_maps`](super::HomPlan::for_each_maps) but under
    /// per-atom candidate caps.
    pub fn for_each_maps<B>(
        &self,
        fixed: &VarMap,
        limits: &[u32],
        mut visit: impl FnMut(&VarMap) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        let mut seeds: Vec<(u32, Node)> = Vec::with_capacity(fixed.len());
        for (v, n) in fixed {
            if let Some(s) = self.slot(*v) {
                seeds.push((s, *n));
            }
        }
        let mut out = fixed.clone();
        self.for_each_bindings(&seeds, limits, |b| {
            for &v in &self.vars {
                out.insert(v, b.get(v).expect("full binding"));
            }
            visit(&out)
        })
    }

    /// Finds one match extending `fixed`, with no candidate limits.
    pub fn find(&self, fixed: &VarMap) -> Option<VarMap> {
        let limits = vec![u32::MAX; self.pattern.len()];
        match self.for_each_maps(fixed, &limits, |m| ControlFlow::Break(m.clone())) {
            ControlFlow::Break(m) => Some(m),
            ControlFlow::Continue(()) => None,
        }
    }

    /// One search step: emit if everything is bound, otherwise pick the
    /// pivot atom (fewest surviving candidates) and expand it variable- or
    /// row-at-a-time.
    fn step<B>(
        &self,
        st: &mut State<'t>,
        visit: &mut impl FnMut(&Binding) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        // Atoms that still constrain an unbound variable. Patterns here
        // are tiny (a TGD body), so a rescan beats bookkeeping.
        let mut pivot: Option<usize> = None;
        let mut open_count = 0usize;
        for ai in 0..self.atoms.len() {
            let open = self
                .slots_of(ai)
                .iter()
                .any(|s| st.slots[*s as usize].is_none());
            if open {
                open_count += 1;
                let better = match pivot {
                    None => true,
                    Some(p) => st.cands[ai].len() < st.cands[p].len(),
                };
                if better {
                    pivot = Some(ai);
                }
            }
        }
        let Some(a) = pivot else {
            // Every atom fully bound; candidate lists are non-empty by
            // invariant, so each atom has a witnessing row: a match.
            return visit(&Binding::new(&self.vars, &st.slots));
        };
        if open_count == 1 {
            // Only the pivot is unresolved: no posting can prune further,
            // enumerate its rows directly. No other atom can mention the
            // pivot's unbound slots (it would be open too), so each
            // consistent row is immediately a match — emit without
            // recursing.
            return self.expand_rows(a, true, st, visit);
        }
        if st.cands[a].len() == 1 {
            // Singleton pivot: value grouping cannot collapse anything,
            // and the one row binds every pivot slot at once.
            return self.expand_rows(a, false, st, visit);
        }
        // Variable-at-a-time: the pivot's unbound slot the planner ranks
        // most selective.
        let atom = &self.atoms[a];
        let mut slot: Option<u32> = None;
        for arg in &atom.args {
            if let PArg::Slot(s) = arg {
                if st.slots[*s as usize].is_none()
                    && slot.is_none_or(|cur| {
                        (self.priority[*s as usize], *s) < (self.priority[cur as usize], cur)
                    })
                {
                    slot = Some(*s);
                }
            }
        }
        let s = slot.expect("open atom has an unbound slot");
        // Group the pivot's candidates by that variable's value (all
        // positions carrying the slot must agree). Sorting the pairs
        // yields both the sorted distinct values and, per value, the
        // ascending row group — which IS the pivot's next candidate list,
        // so binding the pivot needs no posting lookup at all.
        st.positions.clear();
        for (pos, arg) in atom.args.iter().enumerate() {
            if matches!(arg, PArg::Slot(t) if *t == s) {
                st.positions.push(pos);
            }
        }
        let mut pairs = st.take_pairs();
        'rows: for &row in st.cands[a].iter() {
            let args = self.target.args_of(row);
            let v = args[st.positions[0]];
            for &p in &st.positions[1..] {
                if args[p] != v {
                    continue 'rows;
                }
            }
            pairs.push((v, row));
        }
        pairs.sort_unstable();
        let groups = {
            let mut g = 0usize;
            let mut last: Option<Node> = None;
            for &(v, _) in &pairs {
                if last != Some(v) {
                    g += 1;
                    last = Some(v);
                }
            }
            g
        };
        if groups >= st.cands[a].len() {
            // No fan-in: every candidate row carries its own value, so
            // factoring by value collapses nothing — walk rows instead
            // (one node per row, never more than the value walk).
            st.pairs_pool.push(pairs);
            return self.expand_rows(a, false, st, visit);
        }
        let flow = self.expand_values(s, a, &pairs, st, visit);
        st.pairs_pool.push(pairs);
        flow
    }

    /// Propagates the freshly bound slot `s` into every atom other than
    /// `skip` that mentions it, returning `false` if some atom lost its
    /// last candidate. Three tiers, cheapest first:
    ///
    /// * an atom whose slots are now *all* bound never gets read again in
    ///   this subtree (the pivot scan skips closed atoms and emission
    ///   reads only `slots`), so it needs an existence check — scan its
    ///   surviving candidates for one row matching the full assignment —
    ///   and no narrowing, no undo entry;
    /// * a still-open atom with a tiny candidate list is filtered by
    ///   direct argument comparison, skipping the posting hash lookup;
    /// * otherwise the sorted posting `(pred, pos, v)` is intersected in.
    ///
    /// The tiers agree exactly on which propagations survive, so search
    /// node counts are independent of the thresholds.
    fn propagate(
        &self,
        s: u32,
        skip: usize,
        st: &mut State<'t>,
        saved: &mut Vec<(usize, Cow<'t, [u32]>)>,
    ) -> bool {
        /// Closed-atom existence scans and open-atom filters examine each
        /// candidate row once; past these lengths the sorted posting
        /// intersection (with galloping) wins.
        const SCAN_MAX: usize = 32;
        let v = st.slots[s as usize].expect("slot just bound");
        for &(aj, pos) in self.occurrences_of(s) {
            let aj = aj as usize;
            if aj == skip {
                continue;
            }
            let cur_len = st.cands[aj].len();
            if st.full_len[aj] == cur_len as u32 {
                // Untouched full prefix: `posting ∩ cands[aj]` is the
                // clamped posting itself — swap it in as a borrow, the
                // same lazy move `HomPlan` makes at depth entry.
                let posting = clamp(
                    self.target.pred_pos_node_index(self.atoms[aj].pred, pos, v),
                    st.limits[aj],
                );
                let empty = posting.is_empty();
                saved.push((
                    aj,
                    std::mem::replace(&mut st.cands[aj], Cow::Borrowed(posting)),
                ));
                if empty {
                    return false;
                }
                continue;
            }
            if cur_len <= SCAN_MAX {
                count_intersection_steps(cur_len as u64);
                if self
                    .slots_of(aj)
                    .iter()
                    .all(|t| st.slots[*t as usize].is_some())
                {
                    let atom = &self.atoms[aj];
                    let found = st.cands[aj].iter().any(|&row| {
                        self.target
                            .args_of(row)
                            .iter()
                            .zip(&atom.args)
                            .all(|(av, parg)| match parg {
                                PArg::Node(n) => av == n,
                                PArg::Slot(t) => Some(*av) == st.slots[*t as usize],
                            })
                    });
                    if !found {
                        return false;
                    }
                    continue;
                }
                let mut buf = st.take_buf();
                for &row in st.cands[aj].iter() {
                    if self.target.args_of(row)[pos as usize] == v {
                        buf.push(row);
                    }
                }
                let empty = buf.is_empty();
                saved.push((aj, std::mem::replace(&mut st.cands[aj], Cow::Owned(buf))));
                if empty {
                    return false;
                }
                continue;
            }
            let posting = self.target.pred_pos_node_index(self.atoms[aj].pred, pos, v);
            let mut buf = st.take_buf();
            intersect_into(&mut buf, &st.cands[aj], posting);
            let empty = buf.is_empty();
            saved.push((aj, std::mem::replace(&mut st.cands[aj], Cow::Owned(buf))));
            if empty {
                return false;
            }
        }
        true
    }

    /// Binds slot `s` to each value group of pivot atom `a` in turn: the
    /// group's rows become the pivot's candidate list directly, and the
    /// value's posting is intersected into every *other* atom that
    /// mentions `s`.
    fn expand_values<B>(
        &self,
        s: u32,
        a: usize,
        pairs: &[(Node, u32)],
        st: &mut State<'t>,
        visit: &mut impl FnMut(&Binding) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        let mut saved = st.take_saved();
        let mut i = 0usize;
        while i < pairs.len() {
            let v = pairs[i].0;
            let mut j = i + 1;
            while j < pairs.len() && pairs[j].0 == v {
                j += 1;
            }
            count_search_node();
            st.slots[s as usize] = Some(v);
            // Pivot: its surviving candidates under s=v are exactly this
            // group's rows (ascending — `pairs` is sorted).
            let mut buf = st.take_buf();
            buf.extend(pairs[i..j].iter().map(|&(_, r)| r));
            saved.push((a, std::mem::replace(&mut st.cands[a], Cow::Owned(buf))));
            let ok = self.propagate(s, a, st, &mut saved);
            let flow = if ok {
                self.step(st, visit)
            } else {
                count_backtrack();
                ControlFlow::Continue(())
            };
            for (aj, old) in saved.drain(..).rev() {
                st.restore(aj, old);
            }
            st.slots[s as usize] = None;
            if flow.is_break() {
                st.saved_pool.push(saved);
                return flow;
            }
            i = j;
        }
        st.saved_pool.push(saved);
        ControlFlow::Continue(())
    }

    /// Walks the pivot's candidate rows, binding all its unbound slots
    /// from each row at once (one search node per row — the backtracking
    /// engine's unit), then propagating the new bindings into every other
    /// atom that mentions them. With `solo` set the pivot is the only
    /// open atom: propagation is vacuous and every consistent row is
    /// emitted directly instead of re-entering [`Self::step`].
    fn expand_rows<B>(
        &self,
        a: usize,
        solo: bool,
        st: &mut State<'t>,
        visit: &mut impl FnMut(&Binding) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        let atom = &self.atoms[a];
        let mut unbound = st.take_unbound();
        for (pos, arg) in atom.args.iter().enumerate() {
            if let PArg::Slot(s) = arg {
                if st.slots[*s as usize].is_none() {
                    unbound.push((pos, *s));
                }
            }
        }
        // Take the pivot's list out while iterating: propagation must not
        // touch it (the pivot becomes fully bound, and rows already agree
        // with every previously fixed position by the intersection
        // invariant).
        let rows = std::mem::replace(&mut st.cands[a], Cow::Borrowed(&[]));
        let mut newly = st.take_buf();
        let mut saved = st.take_saved();
        let mut flow: ControlFlow<B> = ControlFlow::Continue(());
        'rows: for &row in rows.iter() {
            count_search_node();
            let args = self.target.args_of(row);
            newly.clear();
            let mut ok = true;
            for &(pos, s) in &unbound {
                let v = args[pos];
                match st.slots[s as usize] {
                    None => {
                        st.slots[s as usize] = Some(v);
                        newly.push(s);
                    }
                    Some(m) if m == v => {}
                    Some(_) => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok && !solo {
                for &s in &newly {
                    if !self.propagate(s, a, st, &mut saved) {
                        ok = false;
                        break;
                    }
                }
            }
            let f = if !ok {
                count_backtrack();
                ControlFlow::Continue(())
            } else if solo {
                visit(&Binding::new(&self.vars, &st.slots))
            } else {
                self.step(st, visit)
            };
            for (aj, old) in saved.drain(..).rev() {
                st.restore(aj, old);
            }
            for &s in &newly {
                st.slots[s as usize] = None;
            }
            if f.is_break() {
                flow = f;
                break 'rows;
            }
        }
        st.cands[a] = rows;
        st.unbound_pool.push(unbound);
        st.pool.push(newly);
        st.saved_pool.push(saved);
        flow
    }
}

/// The ascending prefix of a sorted id slice with every id `< limit`.
fn clamp(rows: &[u32], limit: u32) -> &[u32] {
    if limit == u32::MAX {
        return rows;
    }
    &rows[..rows.partition_point(|&r| r < limit)]
}

/// Sorted intersection of two ascending id lists, allocating the output.
/// The engine proper always intersects into a pooled buffer via
/// [`intersect_into`]; this wrapper exists for the unit tests.
#[cfg(test)]
fn intersect(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::new();
    intersect_into(&mut out, a, b);
    out
}

/// Sorted intersection of two ascending id lists into a caller-supplied
/// (cleared) buffer, galloping through the longer side when the lengths
/// are lopsided. Every element step is counted into
/// `cqfd_hom_intersection_steps_total`.
fn intersect_into(out: &mut Vec<u32>, a: &[u32], b: &[u32]) {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    out.clear();
    out.reserve(short.len());
    let mut steps = 0u64;
    if short.len() * 16 < long.len() {
        // Gallop: binary-probe the long side once per short element.
        let mut lo = 0usize;
        for &x in short {
            steps += 1;
            let rest = &long[lo..];
            let at = rest.partition_point(|&y| y < x);
            lo += at;
            if long.get(lo) == Some(&x) {
                out.push(x);
                lo += 1;
            }
            if lo >= long.len() {
                break;
            }
        }
    } else {
        let (mut i, mut j) = (0usize, 0usize);
        while i < short.len() && j < long.len() {
            steps += 1;
            match short[i].cmp(&long[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(short[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
    }
    count_intersection_steps(steps);
}

/// The planner: rank slots by their best estimated average posting length
/// (`rows ÷ distinct` over every position mentioning the slot, smaller =
/// more selective = bound earlier), memoised per `(uid, epoch,
/// fingerprint)` in the thread-local plan cache.
fn cached_priority(atoms: &[PlanAtom], nslots: usize, target: &Structure) -> Arc<[u32]> {
    if nslots == 0 {
        return Arc::from([]);
    }
    let key = (target.uid(), target.epoch(), fingerprint(atoms));
    if let Some(hit) = PLAN_CACHE.with(|c| c.borrow().get(&key).cloned()) {
        count_cache_hit();
        return hit;
    }
    count_cache_miss();
    // Score/order live on the stack for realistic pattern widths — this
    // path runs once per (pattern, stage) and the chase compiles
    // thousands of plans per run.
    const STACK: usize = 16;
    let mut score_buf = [u64::MAX; STACK];
    let mut score_heap;
    let score: &mut [u64] = if nslots <= STACK {
        &mut score_buf[..nslots]
    } else {
        score_heap = vec![u64::MAX; nslots];
        &mut score_heap
    };
    for atom in atoms {
        let rows = target.pred_count(atom.pred) as u64;
        for (pos, arg) in atom.args.iter().enumerate() {
            if let PArg::Slot(s) = arg {
                let distinct = target.distinct_count(atom.pred, pos as u8) as u64;
                // Scaled fixed-point so near-ties still order stably.
                let avg = (rows * 256).checked_div(distinct).unwrap_or(0);
                let sc = &mut score[*s as usize];
                *sc = (*sc).min(avg);
            }
        }
    }
    let mut order_buf = [0u32; STACK];
    let mut order_heap;
    let order: &mut [u32] = if nslots <= STACK {
        &mut order_buf[..nslots]
    } else {
        order_heap = vec![0u32; nslots];
        &mut order_heap
    };
    for (i, o) in order.iter_mut().enumerate() {
        *o = i as u32;
    }
    order.sort_unstable_by_key(|&s| (score[s as usize], s));
    let mut prio_buf = [0u32; STACK];
    let mut prio_heap;
    let prio: &mut [u32] = if nslots <= STACK {
        &mut prio_buf[..nslots]
    } else {
        prio_heap = vec![0u32; nslots];
        &mut prio_heap
    };
    for (rank, &s) in order.iter().enumerate() {
        prio[s as usize] = rank as u32;
    }
    let priority: Arc<[u32]> = Arc::from(&*prio);
    PLAN_CACHE.with(|c| {
        let mut c = c.borrow_mut();
        if c.len() >= PLAN_CACHE_CAP {
            c.clear();
        }
        c.insert(key, Arc::clone(&priority));
    });
    priority
}

/// A structural fingerprint of the lowered pattern: predicates plus the
/// slot/resolved-node shape of every argument. Combined with the target's
/// `(uid, epoch)` this identifies both the join shape and the statistics
/// it was planned against.
fn fingerprint(atoms: &[PlanAtom]) -> u64 {
    let mut h = FxHasher::default();
    atoms.len().hash(&mut h);
    for atom in atoms {
        atom.pred.0.hash(&mut h);
        for arg in &atom.args {
            match arg {
                PArg::Slot(s) => (0u8, *s).hash(&mut h),
                PArg::Node(n) => (1u8, n.0).hash(&mut h),
            }
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::super::{all_homomorphisms, hom_nodes_explored, HomPlan};
    use super::*;
    use crate::signature::Signature;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    fn sorted_maps(maps: Vec<VarMap>) -> Vec<BTreeMap<Var, Node>> {
        let mut out: Vec<BTreeMap<Var, Node>> =
            maps.into_iter().map(|m| m.into_iter().collect()).collect();
        out.sort();
        out
    }

    fn wco_all(pattern: &[Atom<Term>], d: &Structure, fixed: &VarMap) -> Vec<VarMap> {
        let plan = WcoPlan::compile(pattern, d);
        let limits = vec![u32::MAX; pattern.len()];
        let mut out = Vec::new();
        let _: ControlFlow<()> = plan.for_each_maps(fixed, &limits, |m| {
            out.push(m.clone());
            ControlFlow::Continue(())
        });
        out
    }

    fn triangle_world() -> (Structure, Vec<Node>) {
        let mut sig = Signature::new();
        sig.add_predicate("E", 2);
        let sig = Arc::new(sig);
        let e = sig.predicate("E").unwrap();
        let mut d = Structure::new(sig);
        let n: Vec<Node> = (0..6).map(|_| d.fresh_node()).collect();
        // A triangle 0→1→2→0 plus distracting edges that a single-index
        // scan would chase and the multi-way intersection prunes.
        for &(x, y) in &[(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 5), (5, 3)] {
            d.add(e, &[n[x], n[y]]);
        }
        (d, n)
    }

    fn edge(d: &Structure, x: u32, y: u32) -> Atom<Term> {
        let e = d.signature().predicate("E").unwrap();
        Atom::new(e, vec![Term::Var(Var(x)), Term::Var(Var(y))])
    }

    #[test]
    fn agrees_with_legacy_on_triangles() {
        let (d, _) = triangle_world();
        // Triangle query: E(x,y), E(y,z), E(z,x) — the canonical case
        // where generic join beats pairwise joins.
        let pattern = vec![edge(&d, 0, 1), edge(&d, 1, 2), edge(&d, 2, 0)];
        let legacy = sorted_maps(all_homomorphisms(&pattern, &d, &VarMap::new()));
        let wco = sorted_maps(wco_all(&pattern, &d, &VarMap::new()));
        assert_eq!(legacy, wco);
        assert_eq!(legacy.len(), 6, "two triangles, three rotations each");
    }

    /// The insertion-order id of the ground atom `pattern[i]` maps to under
    /// `m` (atoms are deduplicated, so the id is unique).
    fn image_id(d: &Structure, atom: &Atom<Term>, m: &VarMap) -> u32 {
        let args: Vec<Node> = atom
            .args
            .iter()
            .map(|t| match t {
                Term::Var(v) => m[v],
                Term::Const(c) => d.existing_const_node(*c).expect("constant in target"),
            })
            .collect();
        *d.pred_index(atom.pred)
            .iter()
            .find(|&&row| d.args_of(row) == args.as_slice())
            .expect("a match maps every pattern atom onto a target atom")
    }

    /// The frozen-snapshot contract: under `limits`, the plan yields exactly
    /// the unlimited matches (taken from the independent backtracking
    /// [`HomPlan`]) whose image of pattern atom `i` has id `< limits[i]`.
    #[test]
    fn limits_keep_exactly_the_matches_inside_each_atom_prefix() {
        let (d, n) = triangle_world();
        let pattern = vec![edge(&d, 0, 1), edge(&d, 1, 2)];
        let reference_plan = HomPlan::compile(&pattern, &d);
        let wco_plan = WcoPlan::compile(&pattern, &d);
        let s0 = wco_plan.slot(Var(0)).unwrap();
        assert_eq!(
            reference_plan.slot(Var(0)),
            Some(s0),
            "slot numbering shared"
        );
        for limits in [
            [0u32, u32::MAX],
            [1, u32::MAX],
            [3, u32::MAX],
            [u32::MAX, 2],
            [4, 5],
            [u32::MAX, u32::MAX],
        ] {
            for &seed in &n {
                let mut reference = Vec::new();
                let _: ControlFlow<()> = reference_plan.for_each_bindings(&[(s0, seed)], |b| {
                    let m = b.to_varmap();
                    if pattern
                        .iter()
                        .zip(limits)
                        .all(|(atom, limit)| image_id(&d, atom, &m) < limit)
                    {
                        reference.push(m);
                    }
                    ControlFlow::Continue(())
                });
                let mut wco = Vec::new();
                let _: ControlFlow<()> = wco_plan.for_each_bindings(&[(s0, seed)], &limits, |b| {
                    wco.push(b.to_varmap());
                    ControlFlow::Continue(())
                });
                let reference = sorted_maps(reference);
                assert_eq!(
                    sorted_maps(wco),
                    reference,
                    "seed {seed:?} limits {limits:?}"
                );
                assert_eq!(
                    wco_plan.exists_seeded(&[(s0, seed)], &limits),
                    !reference.is_empty()
                );
            }
        }
    }

    #[test]
    fn per_atom_limits_respected_by_plan() {
        // On the path 0→1→2→3 with atom 0 limited to the first target atom,
        // only the match using that atom survives.
        let mut sig = Signature::new();
        let e = sig.add_predicate("E", 2);
        let mut d = Structure::new(Arc::new(sig));
        let n: Vec<Node> = (0..4).map(|_| d.fresh_node()).collect();
        for w in n.windows(2) {
            d.add(e, &[w[0], w[1]]);
        }
        let pattern = vec![edge(&d, 0, 1), edge(&d, 1, 2)];
        let mut count = 0usize;
        let _: ControlFlow<()> =
            WcoPlan::compile(&pattern, &d).for_each_maps(&VarMap::new(), &[1, 3], |_| {
                count += 1;
                ControlFlow::Continue(())
            });
        assert_eq!(count, 1);
    }

    #[test]
    fn repeated_variables_and_constants() {
        let mut sig = Signature::new();
        let e = sig.add_predicate("E", 2);
        let a = sig.add_constant("a");
        let sig = Arc::new(sig);
        let mut d = Structure::new(Arc::clone(&sig));
        let na = d.node_for_const(a);
        let x = d.fresh_node();
        d.add(e, &[na, na]);
        d.add(e, &[na, x]);
        d.add(e, &[x, x]);
        // Self-loop query E(v,v): two matches.
        let loop_q = vec![Atom::new(e, vec![Term::Var(Var(0)), Term::Var(Var(0))])];
        assert_eq!(
            sorted_maps(wco_all(&loop_q, &d, &VarMap::new())),
            sorted_maps(all_homomorphisms(&loop_q, &d, &VarMap::new()))
        );
        // Constant query E(a, v).
        let const_q = vec![Atom::new(e, vec![Term::Const(a), Term::Var(Var(0))])];
        assert_eq!(
            sorted_maps(wco_all(&const_q, &d, &VarMap::new())),
            sorted_maps(all_homomorphisms(&const_q, &d, &VarMap::new()))
        );
        // Missing constant: dead plan, no matches.
        let mut sig2 = Signature::new();
        let e2 = sig2.add_predicate("E", 2);
        let b = sig2.add_constant("b");
        let sig2 = Arc::new(sig2);
        let mut d2 = Structure::new(sig2);
        let p = d2.fresh_node();
        d2.add(e2, &[p, p]);
        let dead_q = vec![Atom::new(e2, vec![Term::Const(b), Term::Var(Var(0))])];
        assert!(wco_all(&dead_q, &d2, &VarMap::new()).is_empty());
    }

    #[test]
    fn empty_pattern_has_one_match() {
        let (d, _) = triangle_world();
        let all = wco_all(&[], &d, &VarMap::new());
        assert_eq!(all.len(), 1);
        assert!(all[0].is_empty());
    }

    #[test]
    fn wco_explores_fewer_nodes_on_triangle() {
        let (d, _) = triangle_world();
        let pattern = vec![edge(&d, 0, 1), edge(&d, 1, 2), edge(&d, 2, 0)];
        let measure = |f: &dyn Fn()| {
            let before = hom_nodes_explored();
            f();
            hom_nodes_explored() - before
        };
        let legacy_nodes = measure(&|| {
            all_homomorphisms(&pattern, &d, &VarMap::new());
        });
        let wco_nodes = measure(&|| {
            wco_all(&pattern, &d, &VarMap::new());
        });
        assert!(
            wco_nodes < legacy_nodes,
            "wco {wco_nodes} vs legacy {legacy_nodes}"
        );
    }

    #[test]
    fn plan_cache_keys_on_epoch() {
        let (mut d, n) = triangle_world();
        let pattern = vec![edge(&d, 0, 1), edge(&d, 1, 2)];
        let p1 = WcoPlan::compile(&pattern, &d);
        let o1 = p1.priority.clone();
        drop(p1);
        // Same epoch: second compile must agree (served from cache).
        assert_eq!(WcoPlan::compile(&pattern, &d).priority, o1);
        // Mutation moves the epoch; the plan is recomputed (possibly
        // identical, but keyed separately).
        let e = d.signature().predicate("E").unwrap();
        d.add(e, &[n[5], n[0]]);
        let _ = WcoPlan::compile(&pattern, &d);
    }

    #[test]
    fn intersect_is_exact_and_counts_steps() {
        assert_eq!(intersect(&[1, 3, 5, 7], &[2, 3, 4, 7, 9]), vec![3, 7]);
        assert_eq!(intersect(&[], &[1, 2]), Vec::<u32>::new());
        // Lopsided lists take the galloping path.
        let long: Vec<u32> = (0..1000).collect();
        assert_eq!(intersect(&[17, 900, 1500], &long), vec![17, 900]);
    }
}
