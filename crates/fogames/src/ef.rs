//! Quantifier-rank-`l` equivalence by rank-type interning.
//!
//! The rank-`l` type of a tuple `ā` in a structure `A` determines exactly
//! which FO formulas of quantifier rank ≤ `l` (with free variables for
//! `ā`) hold of it:
//!
//! * rank 0: the atomic type — the equalities among `ā` and the atoms of
//!   `A` with all arguments in `ā`;
//! * rank `k+1`: the *set* of rank-`k` types of the extensions `ā·b` over
//!   all `b ∈ A`.
//!
//! Two structures (with pinned parameter tuples, e.g. interpreted
//! constants) agree on all rank-`l` sentences iff their pinned tuples have
//! equal rank-`l` types. Types are interned in a shared [`TypeInterner`]
//! so equality is id comparison, and the recursion is memoised per
//! structure. This is the classical alternative to playing the
//! Ehrenfeucht–Fraïssé game move by move, and it handles the §IX.B
//! disjoint unions well: the `i` identical copies produce identical
//! subtree types that the interner collapses.

use cqfd_core::{Node, Structure};
use std::collections::{BTreeSet, HashMap};

/// Interned type identifier; equal ids ⇔ equal types (within one
/// interner).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TypeId(u32);

/// Shared interner for rank types.
#[derive(Debug, Default)]
pub struct TypeInterner {
    atomic: HashMap<Vec<u64>, TypeId>,
    sets: HashMap<BTreeSet<TypeId>, TypeId>,
    next: u32,
}

impl TypeInterner {
    /// Fresh interner.
    pub fn new() -> Self {
        Self::default()
    }

    fn intern_atomic(&mut self, key: Vec<u64>) -> TypeId {
        if let Some(&t) = self.atomic.get(&key) {
            return t;
        }
        let t = TypeId(self.next);
        self.next += 1;
        self.atomic.insert(key, t);
        t
    }

    fn intern_set(&mut self, key: BTreeSet<TypeId>) -> TypeId {
        if let Some(&t) = self.sets.get(&key) {
            return t;
        }
        let t = TypeId(self.next);
        self.next += 1;
        self.sets.insert(key, t);
        t
    }
}

/// Per-structure memoised computation of rank types.
struct Ranker<'a> {
    st: &'a Structure,
    domain: Vec<Node>,
    by_node: HashMap<Node, Vec<u32>>,
    memo: HashMap<(Vec<Node>, usize), TypeId>,
}

impl<'a> Ranker<'a> {
    fn new(st: &'a Structure) -> Self {
        let domain: Vec<Node> = st.active_nodes().into_iter().collect();
        let mut by_node: HashMap<Node, Vec<u32>> = HashMap::new();
        for (i, atom) in st.atoms().enumerate() {
            for &n in atom.args {
                let v = by_node.entry(n).or_default();
                if v.last() != Some(&(i as u32)) {
                    v.push(i as u32);
                }
            }
        }
        Ranker {
            st,
            domain,
            by_node,
            memo: HashMap::new(),
        }
    }

    /// Canonical encoding of the atomic type of `tuple`.
    fn atomic_key(&self, tuple: &[Node]) -> Vec<u64> {
        let mut key: Vec<u64> = Vec::new();
        // Equality pattern: for each position, the first equal position.
        for (i, &n) in tuple.iter().enumerate() {
            let first = tuple.iter().position(|&m| m == n).unwrap();
            key.push(((i as u64) << 32) | first as u64);
        }
        key.push(u64::MAX); // separator
                            // Atoms fully inside the tuple, as (pred, arg position indices).
        let inside: BTreeSet<Node> = tuple.iter().copied().collect();
        let mut candidates: BTreeSet<u32> = BTreeSet::new();
        for n in &inside {
            if let Some(v) = self.by_node.get(n) {
                candidates.extend(v.iter().copied());
            }
        }
        let mut atoms: BTreeSet<Vec<u64>> = BTreeSet::new();
        for &i in &candidates {
            let atom = self.st.atom(i);
            if atom.args.iter().all(|n| inside.contains(n)) {
                let mut enc = vec![atom.pred.0 as u64];
                for n in atom.args {
                    enc.push(tuple.iter().position(|m| m == n).unwrap() as u64);
                }
                atoms.insert(enc);
            }
        }
        for a in atoms {
            key.extend(a);
            key.push(u64::MAX - 1);
        }
        key
    }

    fn rank(&mut self, interner: &mut TypeInterner, tuple: &[Node], l: usize) -> TypeId {
        if let Some(&t) = self.memo.get(&(tuple.to_vec(), l)) {
            return t;
        }
        let t = if l == 0 {
            let key = self.atomic_key(tuple);
            interner.intern_atomic(key)
        } else {
            let mut set = BTreeSet::new();
            let mut ext = tuple.to_vec();
            for idx in 0..self.domain.len() {
                let b = self.domain[idx];
                ext.push(b);
                set.insert(self.rank(interner, &ext, l - 1));
                ext.pop();
            }
            interner.intern_set(set)
        };
        self.memo.insert((tuple.to_vec(), l), t);
        t
    }
}

/// The rank-`l` type of `pinned` in `st`, using a shared interner.
pub fn rank_type(interner: &mut TypeInterner, st: &Structure, pinned: &[Node], l: usize) -> TypeId {
    Ranker::new(st).rank(interner, pinned, l)
}

/// Do `a` (with parameters `pa`) and `b` (with `pb`) satisfy the same FO
/// formulas of quantifier rank ≤ `l`? — the Duplicator-wins predicate of
/// the `l`-round Ehrenfeucht–Fraïssé game from the pinned position.
pub fn ef_equivalent(a: &Structure, pa: &[Node], b: &Structure, pb: &[Node], l: usize) -> bool {
    assert_eq!(pa.len(), pb.len());
    let mut interner = TypeInterner::new();
    let ta = rank_type(&mut interner, a, pa, l);
    let tb = rank_type(&mut interner, b, pb, l);
    ta == tb
}

/// The smallest quantifier rank `l ≤ max_l` at which the two pinned
/// structures are distinguishable, or `None` if they agree up to `max_l`.
/// (Cost grows as `n^l`; keep `max_l` small.)
pub fn distinguishing_rank(
    a: &Structure,
    pa: &[Node],
    b: &Structure,
    pb: &[Node],
    max_l: usize,
) -> Option<usize> {
    (0..=max_l).find(|&l| !ef_equivalent(a, pa, b, pb, l))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqfd_core::Signature;
    use std::sync::Arc;

    fn sig() -> Arc<Signature> {
        let mut s = Signature::new();
        s.add_predicate("E", 2);
        Arc::new(s)
    }

    fn path(n: usize) -> Structure {
        let sig = sig();
        let e = sig.predicate("E").unwrap();
        let mut d = Structure::new(sig);
        let ns: Vec<Node> = (0..n).map(|_| d.fresh_node()).collect();
        for w in ns.windows(2) {
            d.add(e, &[w[0], w[1]]);
        }
        d
    }

    fn cycle(n: usize) -> Structure {
        let sig = sig();
        let e = sig.predicate("E").unwrap();
        let mut d = Structure::new(sig);
        let ns: Vec<Node> = (0..n).map(|_| d.fresh_node()).collect();
        for i in 0..n {
            d.add(e, &[ns[i], ns[(i + 1) % n]]);
        }
        d
    }

    #[test]
    fn isomorphic_structures_are_equivalent_at_all_small_ranks() {
        for l in 0..=3 {
            assert!(ef_equivalent(&path(4), &[], &path(4), &[], l));
            assert!(ef_equivalent(&cycle(5), &[], &cycle(5), &[], l));
        }
    }

    /// The textbook example: long paths of different lengths are rank-`l`
    /// equivalent once both are long enough, but short ones differ.
    #[test]
    fn path_lengths_and_rank() {
        // A 2-path vs a 3-path: rank 2 sees the difference
        // (∃x∃y∃z chain vs not — needs rank 3? The endpoints distinguish
        // at rank 2: a node with no predecessor whose successor has a
        // successor …). Empirically:
        assert!(!ef_equivalent(&path(2), &[], &path(3), &[], 2));
        // Paths 7 vs 8 at rank 2: Duplicator wins.
        assert!(ef_equivalent(&path(7), &[], &path(8), &[], 2));
    }

    #[test]
    fn cycles_vs_disjoint_cycles() {
        // C6 vs C3 ⊎ C3: locally identical, rank-2 equivalent; both are
        // 2-regular everywhere.
        let c6 = cycle(6);
        let sig = sig();
        let e = sig.predicate("E").unwrap();
        let mut two_c3 = Structure::new(sig);
        for _ in 0..2 {
            let ns: Vec<Node> = (0..3).map(|_| two_c3.fresh_node()).collect();
            for i in 0..3 {
                two_c3.add(e, &[ns[i], ns[(i + 1) % 3]]);
            }
        }
        assert!(ef_equivalent(&c6, &[], &two_c3, &[], 2));
        // Rank 3 distinguishes (triangle detection needs 3 variables).
        assert!(!ef_equivalent(&c6, &[], &two_c3, &[], 3));
    }

    #[test]
    fn pinned_parameters_matter() {
        let p = path(3); // nodes 0-1-2-... wait: 3 nodes, edges 0→1→2
        let ns: Vec<Node> = p.active_nodes().into_iter().collect();
        // Pin the source vs the sink: distinguishable at rank 1
        // (∃y E(c, y) holds of the source, not the sink).
        assert!(!ef_equivalent(&p, &[ns[0]], &p, &[ns[2]], 1));
        // Pinning the same node: trivially equivalent.
        assert!(ef_equivalent(&p, &[ns[1]], &p, &[ns[1]], 3));
    }

    #[test]
    fn rank0_is_atomic() {
        // Any two nonempty structures with empty pinned tuples agree at
        // rank 0 (no atoms are fully inside the empty tuple).
        assert!(ef_equivalent(&path(2), &[], &cycle(3), &[], 0));
    }

    #[test]
    fn multiplicity_blindness_of_low_rank() {
        // i vs i+1 disjoint copies of an edge: rank-1 equivalent — the
        // §IX.B counting argument ("the difference between i and i+1 is
        // not FO-noticeable" at fixed rank).
        let sig = sig();
        let e = sig.predicate("E").unwrap();
        let mk = |k: usize| {
            let mut d = Structure::new(Arc::clone(&sig));
            for _ in 0..k {
                let x = d.fresh_node();
                let y = d.fresh_node();
                d.add(e, &[x, y]);
            }
            d
        };
        assert!(ef_equivalent(&mk(3), &[], &mk(4), &[], 1));
        // Not at rank 0 with pinned witnesses, of course; and two vs one
        // copy *is* noticeable at rank 2 (∃x∃y two distinct sources).
        assert!(!ef_equivalent(&mk(1), &[], &mk(2), &[], 2));
    }
}

#[cfg(test)]
mod rank_finder_tests {
    use super::*;
    use cqfd_core::Signature;
    use std::sync::Arc;

    #[test]
    fn distinguishing_rank_on_paths() {
        let mut s = Signature::new();
        s.add_predicate("E", 2);
        let sig = Arc::new(s);
        let e = sig.predicate("E").unwrap();
        let path = |n: usize| {
            let mut d = Structure::new(Arc::clone(&sig));
            let ns: Vec<Node> = (0..n).map(|_| d.fresh_node()).collect();
            for w in ns.windows(2) {
                d.add(e, &[w[0], w[1]]);
            }
            d
        };
        // Identical paths: never distinguishable.
        assert_eq!(distinguishing_rank(&path(5), &[], &path(5), &[], 3), None);
        // 2-path vs 3-path: distinguishable at low rank.
        let r = distinguishing_rank(&path(2), &[], &path(3), &[], 3).unwrap();
        assert!((1..=2).contains(&r));
        // Long paths agree longer.
        let r78 = distinguishing_rank(&path(7), &[], &path(8), &[], 2);
        assert_eq!(r78, None);
    }
}
