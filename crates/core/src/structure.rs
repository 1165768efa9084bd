//! Finite relational structures over a columnar index substrate.

use crate::atom::AtomRef;
use crate::fasthash::{FastBuild, FxHasher};
use crate::signature::{ConstId, PredId, Signature};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An element (vertex) of a structure, local to that structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Node(pub u32);

/// Process-global source of structure identities (see [`Structure::uid`]).
static STRUCTURE_UIDS: AtomicU64 = AtomicU64::new(1);

fn next_structure_uid() -> u64 {
    STRUCTURE_UIDS.fetch_add(1, Ordering::Relaxed)
}

/// One predicate's atoms in columnar layout: the row list, one flat
/// column of argument nodes per position, and sorted per-position
/// postings.
///
/// `rows` holds the *global* atom ids of this predicate's atoms, in
/// insertion order — and insertion order is ascending, so `rows` is
/// sorted and prefix queries against a frozen snapshot boundary are a
/// `partition_point`. `cols[pos][i]` is the argument at `pos` of the atom
/// `rows[i]`. `postings[pos]` maps a node to the ascending global atom ids
/// carrying it at `pos`; each posting list is sorted for the same reason
/// `rows` is, which is what makes the worst-case-optimal search's k-way
/// sorted intersections possible.
#[derive(Debug, Clone, Default)]
struct ColumnarRel {
    rows: Vec<u32>,
    cols: Vec<Vec<Node>>,
    postings: Vec<HashMap<Node, Vec<u32>, FastBuild>>,
}

/// One [`AtomIndex`] slot: an atom id and that atom's hash.
#[derive(Debug, Clone, Copy)]
struct Slot {
    id: u32,
    hash: u32,
}

/// The id of an empty [`AtomIndex`] slot.
const EMPTY: u32 = u32::MAX;

/// The dedup index of a [`Structure`]: a linear-probing hash set of atom
/// ids. The atoms themselves stay in the structure's argument table; a
/// slot holds only an id and the atom's 32-bit hash, so a probe reads an
/// atom's arguments only on a full hash match, and growing the table
/// re-slots the stored hashes without reading any atom. Load stays at
/// most 3/4.
#[derive(Debug, Clone, Default)]
struct AtomIndex {
    slots: Vec<Slot>,
    len: usize,
}

impl AtomIndex {
    /// Looks up the atom hashed `hash` that `same` accepts: `Ok(id)` if
    /// present, else `Err(slot)`, the empty slot where it belongs.
    fn probe(&self, hash: u32, same: impl Fn(u32) -> bool) -> Result<u32, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot.id == EMPTY {
                return Err(i);
            }
            if slot.hash == hash && same(slot.id) {
                return Ok(slot.id);
            }
            i = (i + 1) & mask;
        }
    }

    /// Makes room for one more id. Call before the [`probe`](Self::probe)
    /// whose empty slot is then [`fill`](Self::fill)ed.
    fn reserve_one(&mut self) {
        if (self.len + 1) * 4 <= self.slots.len() * 3 {
            return;
        }
        let cap = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(&mut self.slots, vec![Slot { id: EMPTY, hash: 0 }; cap]);
        let mask = cap - 1;
        for slot in old.into_iter().filter(|s| s.id != EMPTY) {
            let mut i = slot.hash as usize & mask;
            while self.slots[i].id != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
        }
    }

    /// Stores `id` in the empty `slot` a probe for `hash` returned.
    fn fill(&mut self, slot: usize, hash: u32, id: u32) {
        debug_assert_eq!(self.slots[slot].id, EMPTY);
        self.slots[slot] = Slot { id, hash };
        self.len += 1;
    }
}

/// The dedup hash of `pred(args…)`: the high half of an fx hash, whose
/// low half mixes poorly.
fn atom_hash(pred: PredId, args: &[Node]) -> u32 {
    let mut h = FxHasher::default();
    h.write_u32(pred.0);
    for n in args {
        h.write_u32(n.0);
    }
    (h.finish() >> 32) as u32
}

/// A finite relational structure over a [`Signature`] (paper §II.A).
///
/// A structure is a set of positive ground atoms over a domain of [`Node`]s.
/// Constants of the signature are materialised as dedicated nodes on first
/// use and are fixed by every homomorphism.
///
/// Every atom is stored once, under its global id (insertion order, so
/// iteration is deterministic): its predicate in a per-atom column and
/// its arguments in a flat CSR table. Everything else indexes that id:
///
/// * a per-predicate **columnar substrate** ([`ColumnarRel`]), a dense
///   `Vec` indexed by [`PredId`] holding the predicate's row list, one
///   flat node column per argument position, and sorted per-position
///   postings — the lookups of both homomorphism engines
///   ([`pred_index`](Self::pred_index),
///   [`pred_pos_node_index`](Self::pred_pos_node_index),
///   [`column`](Self::column), [`distinct_count`](Self::distinct_count));
/// * a dedup hash index of atom ids that hashes `(pred, args)` and
///   compares against the CSR table, so insertions and
///   [`contains`](Self::contains) probes allocate nothing per atom.
///
/// Atoms are handed out as borrowed [`AtomRef`] views; an owned
/// [`GroundAtom`](crate::GroundAtom) is built only at API edges.
/// Insertion is append-only, so the first `k` atoms of a grown structure
/// are exactly the structure it was when it held `k` atoms.
#[derive(Debug)]
pub struct Structure {
    sig: Arc<Signature>,
    /// Atom `i`'s predicate.
    preds: Vec<PredId>,
    /// Flat CSR table of every atom's arguments: atom `i`'s args are
    /// `flat_args[arg_starts[i]..arg_starts[i+1]]`.
    flat_args: Vec<Node>,
    arg_starts: Vec<u32>,
    rels: Vec<ColumnarRel>,
    dedup: AtomIndex,
    node_count: u32,
    const_node: HashMap<ConstId, Node>,
    node_const: HashMap<Node, ConstId>,
    /// Monotone mutation counter, bumped on every atom insertion.
    epoch: u64,
    /// Process-unique identity; fresh per construction *and* per clone.
    uid: u64,
}

impl Clone for Structure {
    /// Clones the structure with a **fresh identity**: the clone gets its
    /// own [`uid`](Self::uid) so plan caches keyed by `(uid, epoch)` can
    /// never confuse a clone with its original once they diverge.
    fn clone(&self) -> Self {
        Structure {
            sig: Arc::clone(&self.sig),
            preds: self.preds.clone(),
            flat_args: self.flat_args.clone(),
            arg_starts: self.arg_starts.clone(),
            rels: self.rels.clone(),
            dedup: self.dedup.clone(),
            node_count: self.node_count,
            const_node: self.const_node.clone(),
            node_const: self.node_const.clone(),
            epoch: self.epoch,
            uid: next_structure_uid(),
        }
    }
}

impl Structure {
    /// Creates an empty structure over a signature.
    pub fn new(sig: Arc<Signature>) -> Self {
        Structure {
            sig,
            preds: Vec::new(),
            flat_args: Vec::new(),
            arg_starts: vec![0],
            rels: Vec::new(),
            dedup: AtomIndex::default(),
            node_count: 0,
            const_node: HashMap::new(),
            node_const: HashMap::new(),
            epoch: 0,
            uid: next_structure_uid(),
        }
    }

    /// Creates an empty structure, wrapping the signature in an [`Arc`].
    pub fn with_signature(sig: Signature) -> Self {
        Self::new(Arc::new(sig))
    }

    /// The structure's signature.
    pub fn signature(&self) -> &Arc<Signature> {
        &self.sig
    }

    /// A process-unique identity for this structure value. Fresh on every
    /// construction and on every clone, so `(uid, epoch)` pairs identify a
    /// specific index state without retaining a borrow — the key shape the
    /// `hom::wco` plan cache uses.
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// Monotone mutation counter: bumped on every atom insertion. A plan
    /// or statistic derived from the indexes is valid exactly as long as
    /// the epoch it was computed at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Allocates a fresh node.
    pub fn fresh_node(&mut self) -> Node {
        let n = Node(self.node_count);
        self.node_count += 1;
        n
    }

    /// The node representing a constant, allocated on first use.
    pub fn node_for_const(&mut self, c: ConstId) -> Node {
        if let Some(&n) = self.const_node.get(&c) {
            return n;
        }
        let n = self.fresh_node();
        self.const_node.insert(c, n);
        self.node_const.insert(n, c);
        n
    }

    /// The constant a node stands for, if it is a constant node.
    pub fn const_of_node(&self, n: Node) -> Option<ConstId> {
        self.node_const.get(&n).copied()
    }

    /// Pins a constant to an *already allocated* node. Used when
    /// reconstructing a structure with a prescribed node numbering (e.g.
    /// chase stage snapshots).
    ///
    /// # Panics
    /// If the node is unallocated, or the constant is already pinned to a
    /// different node, or the node already stands for another constant.
    pub fn pin_constant(&mut self, c: ConstId, n: Node) {
        assert!(n.0 < self.node_count, "node {n:?} not allocated");
        if let Some(&old) = self.const_node.get(&c) {
            assert_eq!(old, n, "constant already pinned elsewhere");
            return;
        }
        assert!(
            !self.node_const.contains_key(&n),
            "node already pinned to another constant"
        );
        self.const_node.insert(c, n);
        self.node_const.insert(n, c);
    }

    /// The node a constant is pinned to, if it has been materialised.
    pub fn existing_const_node(&self, c: ConstId) -> Option<Node> {
        self.const_node.get(&c).copied()
    }

    /// Number of nodes allocated (including constant nodes and nodes that do
    /// not occur in any atom).
    pub fn node_count(&self) -> u32 {
        self.node_count
    }

    /// Iterates over all allocated nodes.
    pub fn nodes(&self) -> impl Iterator<Item = Node> {
        (0..self.node_count).map(Node)
    }

    /// The set of nodes that occur in at least one atom or stand for a
    /// constant — the *active domain*.
    pub fn active_nodes(&self) -> BTreeSet<Node> {
        let mut s: BTreeSet<Node> = self.flat_args.iter().copied().collect();
        s.extend(self.const_node.values().copied());
        s
    }

    /// Looks up `pred(args…)` under its dedup `hash`: `Ok(id)` if the
    /// structure contains it, else `Err(slot)`, the free index slot where
    /// it belongs.
    fn find(&self, pred: PredId, args: &[Node], hash: u32) -> Result<u32, usize> {
        self.dedup.probe(hash, |id| {
            self.preds[id as usize] == pred && self.args_of(id) == args
        })
    }

    /// Inserts `pred(args…)`; returns `true` if it was new.
    ///
    /// Appends the atom to the predicate column and the CSR table under
    /// the next global id, and maintains the columnar substrate
    /// incrementally: the id is appended to the predicate's row list, each
    /// argument to its position's column, and each `(position, node)`
    /// posting — all appends of an ascending id, so every list stays
    /// sorted without re-sorting. Bumps [`epoch`](Self::epoch).
    ///
    /// # Panics
    /// If the argument count does not match the predicate's arity, or an
    /// argument node was never allocated in this structure.
    pub fn add(&mut self, pred: PredId, args: &[Node]) -> bool {
        assert!(
            args.len() == self.sig.arity(pred),
            "atom over `{}` has {} arguments, expected {} (declared arity of `{}`)",
            self.sig.pred_name(pred),
            args.len(),
            self.sig.arity(pred),
            self.sig.pred_name(pred)
        );
        for &n in args {
            assert!(n.0 < self.node_count, "node {n:?} not allocated");
        }
        self.insert_hashed(pred, args, atom_hash(pred, args))
    }

    /// [`add`](Self::add) past its argument checks, under a given dedup
    /// hash (tests force collisions through it).
    fn insert_hashed(&mut self, pred: PredId, args: &[Node], hash: u32) -> bool {
        self.dedup.reserve_one();
        let slot = match self.find(pred, args, hash) {
            Ok(_) => return false,
            Err(slot) => slot,
        };
        let idx = self.preds.len() as u32;
        self.dedup.fill(slot, hash, idx);
        let pid = pred.0 as usize;
        if self.rels.len() <= pid {
            self.rels.resize_with(pid + 1, ColumnarRel::default);
        }
        let rel = &mut self.rels[pid];
        if rel.rows.is_empty() && rel.cols.len() != args.len() {
            rel.cols = vec![Vec::new(); args.len()];
            rel.postings = vec![HashMap::default(); args.len()];
        }
        rel.rows.push(idx);
        for (pos, &n) in args.iter().enumerate() {
            rel.cols[pos].push(n);
            rel.postings[pos].entry(n).or_default().push(idx);
        }
        self.preds.push(pred);
        self.flat_args.extend_from_slice(args);
        self.arg_starts.push(self.flat_args.len() as u32);
        self.epoch += 1;
        true
    }

    /// Does the structure contain `pred(args…)`?
    pub fn contains(&self, pred: PredId, args: &[Node]) -> bool {
        self.find(pred, args, atom_hash(pred, args)).is_ok()
    }

    /// All atoms, in insertion order.
    pub fn atoms(&self) -> Atoms<'_> {
        Atoms {
            st: self,
            front: 0,
            end: self.preds.len() as u32,
        }
    }

    /// The atom with global id `id`.
    pub fn atom(&self, id: u32) -> AtomRef<'_> {
        AtomRef {
            pred: self.preds[id as usize],
            args: self.args_of(id),
        }
    }

    /// The argument tuple of the atom with global id `row`, served from
    /// the flat CSR table (one contiguous allocation — the cache-friendly
    /// read path of the hom-search inner loops).
    pub fn args_of(&self, row: u32) -> &[Node] {
        let i = row as usize;
        &self.flat_args[self.arg_starts[i] as usize..self.arg_starts[i + 1] as usize]
    }

    /// Number of atoms.
    pub fn atom_count(&self) -> usize {
        self.preds.len()
    }

    fn rel(&self, pred: PredId) -> Option<&ColumnarRel> {
        self.rels.get(pred.0 as usize)
    }

    /// Atoms with the given predicate, in insertion order.
    pub fn atoms_with_pred(&self, pred: PredId) -> impl Iterator<Item = AtomRef<'_>> {
        self.pred_index(pred).iter().map(|&i| self.atom(i))
    }

    /// Number of atoms with the given predicate.
    pub fn pred_count(&self, pred: PredId) -> usize {
        self.rel(pred).map_or(0, |r| r.rows.len())
    }

    /// Atoms with the given predicate that carry `node` at position `pos`.
    pub fn atoms_with_pred_pos_node(
        &self,
        pred: PredId,
        pos: u8,
        node: Node,
    ) -> impl Iterator<Item = AtomRef<'_>> {
        self.pred_pos_node_index(pred, pos, node)
            .iter()
            .map(|&i| self.atom(i))
    }

    /// Number of atoms matching (pred, pos, node) — used for index selection.
    pub fn index_size(&self, pred: PredId, pos: u8, node: Node) -> usize {
        self.pred_pos_node_index(pred, pos, node).len()
    }

    /// The raw by-predicate index: global ids of the atoms with this
    /// predicate, ascending. A thin view of the columnar row list; an
    /// absent predicate yields an empty slice.
    pub fn pred_index(&self, pred: PredId) -> &[u32] {
        self.rel(pred).map_or(&[], |r| r.rows.as_slice())
    }

    /// The raw by-(predicate, position, node) posting: ascending global
    /// atom ids carrying `node` at position `pos`. Companion of
    /// [`Self::pred_index`] for the hom-search hot paths; the wco engine
    /// relies on the ascending order, both to clamp a posting to a prefix
    /// of the atoms and for sorted intersection.
    pub fn pred_pos_node_index(&self, pred: PredId, pos: u8, node: Node) -> &[u32] {
        self.rel(pred)
            .and_then(|r| r.postings.get(pos as usize))
            .and_then(|p| p.get(&node))
            .map_or(&[], Vec::as_slice)
    }

    /// The flat node column of a predicate's argument position:
    /// `column(p, pos)[i]` is the argument at `pos` of the atom
    /// `pred_index(p)[i]`. This is the columnar access path the
    /// worst-case-optimal search scans for candidate values.
    pub fn column(&self, pred: PredId, pos: u8) -> &[Node] {
        self.rel(pred)
            .and_then(|r| r.cols.get(pos as usize))
            .map_or(&[], Vec::as_slice)
    }

    /// Number of distinct nodes at a predicate's argument position — the
    /// posting count, used by the wco variable-ordering planner to
    /// estimate selectivity (rows ÷ distinct = average posting length).
    pub fn distinct_count(&self, pred: PredId, pos: u8) -> usize {
        self.rel(pred)
            .and_then(|r| r.postings.get(pos as usize))
            .map_or(0, HashMap::len)
    }

    /// Is `self` a substructure of `other` (same signature family), i.e. is
    /// every atom of `self` an atom of `other`? Nodes are compared by
    /// identity, so this is the paper's literal substructure notion.
    pub fn is_substructure_of(&self, other: &Structure) -> bool {
        self.atoms().all(|a| other.contains(a.pred, a.args))
    }

    /// Inserts every atom of `src`, in order, with its nodes translated
    /// by `map` (whose images must be allocated in `self`).
    pub fn add_mapped(&mut self, src: &Structure, map: impl Fn(Node) -> Node) {
        let mut args = Vec::new();
        for a in src.atoms() {
            args.clear();
            args.extend(a.args.iter().map(|&n| map(n)));
            self.add(a.pred, &args);
        }
    }

    /// Copies all atoms of `other` into `self`, translating nodes.
    ///
    /// Constant nodes of `other` map to the corresponding constant nodes of
    /// `self`; every other node of `other` gets a fresh node in `self`
    /// (shared across atoms). Returns the node translation used.
    ///
    /// This is the "disjoint union except for constants" operation of §IX
    /// (footnote 25: constants "belong to all the copies").
    pub fn absorb(&mut self, other: &Structure) -> HashMap<Node, Node> {
        let mut map: HashMap<Node, Node> = HashMap::new();
        for n in other.nodes() {
            let image = match other.const_of_node(n) {
                Some(c) => self.node_for_const(c),
                None => self.fresh_node(),
            };
            map.insert(n, image);
        }
        self.add_mapped(other, |n| map[&n]);
        map
    }

    /// Builds the quotient of this structure under an equivalence given as a
    /// representative-choosing map (`rep(n)` must be idempotent on its own
    /// image). Returns the quotient structure and the node map into it.
    ///
    /// Used for "folding" chase prefixes (Figure 2: `h(b_t) = h(b_t')`) and
    /// for the knee-gluing step of `compile` (Definition 29).
    pub fn quotient(&self, rep: impl Fn(Node) -> Node) -> (Structure, HashMap<Node, Node>) {
        let mut q = Structure::new(Arc::clone(&self.sig));
        let mut map: HashMap<Node, Node> = HashMap::new();
        for n in self.nodes() {
            let r = rep(n);
            let image = if let Some(&m) = map.get(&r) {
                m
            } else {
                let m = match self.const_of_node(r) {
                    Some(c) => q.node_for_const(c),
                    None => q.fresh_node(),
                };
                map.insert(r, m);
                m
            };
            map.insert(n, image);
        }
        q.add_mapped(self, |n| map[&n]);
        (q, map)
    }

    /// An atom-free structure over `sig` with this structure's domain
    /// (node allocation and constants).
    fn same_domain(&self, sig: Arc<Signature>) -> Structure {
        let mut s = Structure::new(sig);
        s.node_count = self.node_count;
        s.const_node = self.const_node.clone();
        s.node_const = self.node_const.clone();
        s
    }

    /// A copy of this structure keeping only atoms selected by `keep`.
    /// The domain (node allocation, constants) is preserved unchanged.
    pub fn filter_atoms(&self, keep: impl Fn(AtomRef<'_>) -> bool) -> Structure {
        let mut s = self.same_domain(Arc::clone(&self.sig));
        for a in self.atoms().filter(|&a| keep(a)) {
            s.add(a.pred, a.args);
        }
        s
    }

    /// A copy of this structure with every atom's predicate replaced by
    /// `f(pred)`, over the given (possibly different) signature.
    ///
    /// This implements the coloring maps `G(·)`, `R(·)` and `dalt(·)` of
    /// §IV at the structure level. Arities must be preserved by `f`.
    pub fn map_predicates(&self, sig: Arc<Signature>, f: impl Fn(PredId) -> PredId) -> Structure {
        let mut s = self.same_domain(sig);
        for a in self.atoms() {
            s.add(f(a.pred), a.args);
        }
        s
    }
}

/// The atoms of a [`Structure`] in insertion order, as borrowed
/// [`AtomRef`]s; see [`Structure::atoms`]. Two listings are equal when
/// they hold the same atoms in the same order.
#[derive(Clone)]
pub struct Atoms<'a> {
    st: &'a Structure,
    front: u32,
    end: u32,
}

impl<'a> Iterator for Atoms<'a> {
    type Item = AtomRef<'a>;

    fn next(&mut self) -> Option<AtomRef<'a>> {
        if self.front == self.end {
            return None;
        }
        self.front += 1;
        Some(self.st.atom(self.front - 1))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = (self.end - self.front) as usize;
        (n, Some(n))
    }

    fn nth(&mut self, n: usize) -> Option<AtomRef<'a>> {
        let left = (self.end - self.front) as usize;
        self.front += n.min(left) as u32;
        self.next()
    }
}

impl ExactSizeIterator for Atoms<'_> {}

impl PartialEq for Atoms<'_> {
    fn eq(&self, other: &Self) -> bool {
        Iterator::eq(self.clone(), other.clone())
    }
}

impl fmt::Debug for Atoms<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.clone()).finish()
    }
}

impl fmt::Display for Structure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "structure ({} nodes, {} atoms):",
            self.node_count,
            self.atom_count()
        )?;
        for a in self.atoms() {
            writeln!(f, "  {}", a.display_with(&self.sig))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig2() -> Arc<Signature> {
        let mut sig = Signature::new();
        sig.add_predicate("R", 2);
        sig.add_predicate("S", 1);
        sig.add_constant("c");
        Arc::new(sig)
    }

    #[test]
    fn add_and_dedup() {
        let sig = sig2();
        let r = sig.predicate("R").unwrap();
        let mut d = Structure::new(sig);
        let a = d.fresh_node();
        let b = d.fresh_node();
        assert!(d.add(r, &[a, b]));
        assert!(!d.add(r, &[a, b]));
        assert!(d.add(r, &[b, a]));
        assert_eq!(d.atom_count(), 2);
        assert!(d.contains(r, &[a, b]));
        assert!(!d.contains(r, &[a, a]));
    }

    #[test]
    fn constant_nodes_are_stable() {
        let sig = sig2();
        let c = sig.constant("c").unwrap();
        let mut d = Structure::new(sig);
        let n1 = d.node_for_const(c);
        let n2 = d.node_for_const(c);
        assert_eq!(n1, n2);
        assert_eq!(d.const_of_node(n1), Some(c));
    }

    #[test]
    fn indexes_answer_lookups() {
        let sig = sig2();
        let r = sig.predicate("R").unwrap();
        let s = sig.predicate("S").unwrap();
        let mut d = Structure::new(sig);
        let a = d.fresh_node();
        let b = d.fresh_node();
        let c = d.fresh_node();
        d.add(r, &[a, b]);
        d.add(r, &[a, c]);
        d.add(r, &[b, c]);
        d.add(s, &[a]);
        assert_eq!(d.pred_count(r), 3);
        assert_eq!(d.atoms_with_pred_pos_node(r, 0, a).count(), 2);
        assert_eq!(d.atoms_with_pred_pos_node(r, 1, c).count(), 2);
        assert_eq!(d.index_size(r, 0, c), 0);
    }

    #[test]
    fn columns_mirror_rows() {
        let sig = sig2();
        let r = sig.predicate("R").unwrap();
        let mut d = Structure::new(sig);
        let a = d.fresh_node();
        let b = d.fresh_node();
        let c = d.fresh_node();
        d.add(r, &[a, b]);
        d.add(r, &[b, c]);
        d.add(r, &[a, c]);
        // column(p, pos)[i] is the argument of atom pred_index(p)[i].
        assert_eq!(d.column(r, 0), &[a, b, a]);
        assert_eq!(d.column(r, 1), &[b, c, c]);
        assert_eq!(d.distinct_count(r, 0), 2);
        assert_eq!(d.distinct_count(r, 1), 2);
        // Postings are ascending global atom ids.
        assert_eq!(d.pred_pos_node_index(r, 0, a), &[0, 2]);
        assert_eq!(d.pred_pos_node_index(r, 1, c), &[1, 2]);
        // Absent predicate/position/node: empty views, zero counts.
        let s = d.signature().predicate("S").unwrap();
        assert!(d.column(s, 0).is_empty());
        assert_eq!(d.distinct_count(s, 0), 0);
    }

    #[test]
    fn epoch_advances_only_on_new_atoms() {
        let sig = sig2();
        let r = sig.predicate("R").unwrap();
        let mut d = Structure::new(sig);
        let e0 = d.epoch();
        let a = d.fresh_node();
        let b = d.fresh_node();
        assert_eq!(d.epoch(), e0, "node allocation does not move the epoch");
        d.add(r, &[a, b]);
        let e1 = d.epoch();
        assert!(e1 > e0);
        d.add(r, &[a, b]); // duplicate: rejected, epoch unchanged
        assert_eq!(d.epoch(), e1);
        d.add(r, &[b, a]);
        assert!(d.epoch() > e1);
    }

    #[test]
    fn clones_get_fresh_uids() {
        let sig = sig2();
        let d = Structure::new(Arc::clone(&sig));
        let d2 = d.clone();
        let d3 = Structure::new(sig);
        assert_ne!(d.uid(), d2.uid());
        assert_ne!(d.uid(), d3.uid());
        assert_eq!(d.epoch(), d2.epoch());
    }

    #[test]
    fn mutating_a_clone_leaves_the_original_alone() {
        let sig = sig2();
        let r = sig.predicate("R").unwrap();
        let s = sig.predicate("S").unwrap();
        let mut d = Structure::new(sig);
        let a = d.fresh_node();
        let b = d.fresh_node();
        d.add(r, &[a, b]);
        let mut e = d.clone();
        assert_ne!(e.uid(), d.uid(), "a clone gets a fresh uid");
        assert_eq!(e.epoch(), d.epoch(), "and keeps the epoch");
        let x = e.fresh_node();
        assert!(e.add(r, &[b, b]));
        assert!(e.add(s, &[x]));
        assert!(!e.add(r, &[a, b]), "the clone shares the original's atoms");
        assert_eq!(d.atom_count(), 1);
        assert_eq!(d.node_count(), 2);
        assert!(!d.contains(r, &[b, b]));
        assert!(d.pred_index(s).is_empty());
        assert_eq!(d.pred_pos_node_index(r, 0, b), &[] as &[u32]);
        assert_eq!(d.column(r, 1), &[b]);
        assert!(d.epoch() < e.epoch());
        // The original grows independently: its next atom takes id 1.
        assert!(d.add(r, &[b, a]));
        assert_eq!(d.pred_index(r), &[0, 1]);
        assert!(!e.contains(r, &[b, a]));
    }

    #[test]
    fn index_tells_atoms_with_one_hash_apart() {
        // Three atoms forced under one hash share a bucket and a probe
        // run; only the argument comparison separates them, before and
        // after the table grows.
        let atoms: Vec<[u32; 2]> = (0..40).map(|i| [i % 7, i / 7]).collect();
        let atoms = &atoms;
        let same = |want: [u32; 2]| move |id: u32| atoms[id as usize] == want;
        let mut index = AtomIndex::default();
        for (id, &atom) in atoms.iter().enumerate() {
            index.reserve_one();
            let slot = index.probe(7, same(atom)).expect_err("not yet present");
            index.fill(slot, 7, id as u32);
            for (seen, &earlier) in atoms[..=id].iter().enumerate() {
                assert_eq!(index.probe(7, same(earlier)), Ok(seen as u32));
            }
        }
        assert!(index.slots.len() > 16, "the table grew");
        assert!(index.probe(7, same([9, 9])).is_err());
        assert!(index.probe(8, same(atoms[0])).is_err(), "other hash");
    }

    #[test]
    fn atoms_with_one_hash_stay_distinct() {
        // Three different atoms inserted under one forced hash share a
        // bucket and a probe run: only the argument comparison against
        // the CSR table tells them apart.
        let sig = sig2();
        let r = sig.predicate("R").unwrap();
        let mut d = Structure::new(sig);
        let a = d.fresh_node();
        let b = d.fresh_node();
        let atoms = [[a, b], [b, a], [a, a]];
        for args in &atoms {
            assert!(d.insert_hashed(r, args, 7));
        }
        for (id, args) in atoms.iter().enumerate() {
            assert!(!d.insert_hashed(r, args, 7), "duplicate rejected");
            assert_eq!(d.find(r, args, 7), Ok(id as u32));
        }
        assert!(d.find(r, &[b, b], 7).is_err());
        assert_eq!(d.atom_count(), 3);
        assert_eq!(d.pred_index(r), &[0, 1, 2]);
    }

    #[test]
    fn substructure_checks() {
        let sig = sig2();
        let r = sig.predicate("R").unwrap();
        let mut d1 = Structure::new(Arc::clone(&sig));
        let a = d1.fresh_node();
        let b = d1.fresh_node();
        d1.add(r, &[a, b]);
        let mut d2 = d1.clone();
        d2.add(r, &[b, b]);
        assert!(d1.is_substructure_of(&d2));
        assert!(!d2.is_substructure_of(&d1));
    }

    #[test]
    fn absorb_shares_constants_and_freshens_the_rest() {
        let sig = sig2();
        let r = sig.predicate("R").unwrap();
        let c = sig.constant("c").unwrap();
        let mut d1 = Structure::new(Arc::clone(&sig));
        let cc = d1.node_for_const(c);
        let x = d1.fresh_node();
        d1.add(r, &[cc, x]);
        let mut d2 = Structure::new(Arc::clone(&sig));
        let cc2 = d2.node_for_const(c);
        let y = d2.fresh_node();
        d2.add(r, &[cc2, y]);
        let map = d1.absorb(&d2);
        assert_eq!(map[&cc2], cc, "constant nodes are identified");
        assert_ne!(map[&y], x, "ordinary nodes stay disjoint");
        assert_eq!(d1.atom_count(), 2);
    }

    #[test]
    fn quotient_folds_nodes() {
        let sig = sig2();
        let r = sig.predicate("R").unwrap();
        let mut d = Structure::new(sig);
        let a = d.fresh_node();
        let b = d.fresh_node();
        let b2 = d.fresh_node();
        d.add(r, &[a, b]);
        d.add(r, &[a, b2]);
        // fold b2 onto b
        let (q, map) = d.quotient(|n| if n == b2 { b } else { n });
        assert_eq!(map[&b], map[&b2]);
        assert_eq!(q.atom_count(), 1, "the two atoms collapse");
    }

    #[test]
    fn filter_and_map_predicates() {
        let mut sig = Signature::new();
        let r = sig.add_predicate("R", 2);
        let g = sig.add_predicate("G_R", 2);
        let sig = Arc::new(sig);
        let mut d = Structure::new(Arc::clone(&sig));
        let a = d.fresh_node();
        let b = d.fresh_node();
        d.add(r, &[a, b]);
        d.add(g, &[b, a]);
        let only_r = d.filter_atoms(|at| at.pred == r);
        assert_eq!(only_r.atom_count(), 1);
        assert_eq!(only_r.node_count(), d.node_count(), "domain preserved");
        let swapped = d.map_predicates(Arc::clone(&sig), |p| if p == r { g } else { r });
        assert!(swapped.contains(g, &[a, b]));
        assert!(swapped.contains(r, &[b, a]));
    }

    #[test]
    #[should_panic(expected = "atom over `R` has 3 arguments, expected 2")]
    fn add_arity_panic_names_predicate_and_both_arities() {
        let sig = sig2();
        let r = sig.predicate("R").unwrap();
        let mut d = Structure::new(sig);
        let a = d.fresh_node();
        d.add(r, &[a, a, a]);
    }

    #[test]
    fn active_nodes_excludes_isolated() {
        let sig = sig2();
        let r = sig.predicate("R").unwrap();
        let mut d = Structure::new(sig);
        let a = d.fresh_node();
        let b = d.fresh_node();
        let _isolated = d.fresh_node();
        d.add(r, &[a, b]);
        let act = d.active_nodes();
        assert_eq!(act.len(), 2);
        assert!(act.contains(&a) && act.contains(&b));
    }
}
