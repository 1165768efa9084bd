//! Green graphs: edge-labelled directed graphs over a [`LabelSpace`].

use crate::label::Label;
use crate::space::LabelSpace;
use cqfd_core::{Node, Structure};
use std::fmt;
use std::sync::Arc;

/// A green graph (paper §VI, Abstraction Level 2): a structure over
/// `{H_ℓ : ℓ ∈ S̄}` with the two distinguished vertices `a`, `b`.
///
/// This is a thin typed wrapper over [`Structure`]; the underlying
/// structure is exposed ([`GreenGraph::structure`]) so the generic chase
/// and homomorphism machinery applies unchanged.
#[derive(Debug, Clone)]
pub struct GreenGraph {
    space: Arc<LabelSpace>,
    st: Structure,
    a: Node,
    b: Node,
}

impl GreenGraph {
    /// An empty green graph with `a` and `b` materialised but no edges.
    pub fn empty(space: Arc<LabelSpace>) -> Self {
        let mut st = Structure::new(Arc::clone(space.signature()));
        let a = st.node_for_const(space.a());
        let b = st.node_for_const(space.b());
        GreenGraph { space, st, a, b }
    }

    /// The initial graph `DI` of §VII Step 1: vertices `a`, `b` and the
    /// single edge `H∅(a, b)`.
    pub fn di(space: Arc<LabelSpace>) -> Self {
        let mut g = Self::empty(space);
        g.add_edge(Label::Empty, g.a, g.b);
        g
    }

    /// Wraps an existing structure over the space's signature.
    ///
    /// # Panics
    /// If the structure's signature is not the space's signature.
    pub fn from_structure(space: Arc<LabelSpace>, mut st: Structure) -> Self {
        assert!(
            Arc::ptr_eq(st.signature(), space.signature())
                || st.signature().as_ref() == space.signature().as_ref(),
            "structure is not over this label space"
        );
        let a = st.node_for_const(space.a());
        let b = st.node_for_const(space.b());
        GreenGraph { space, st, a, b }
    }

    /// The label space.
    pub fn space(&self) -> &Arc<LabelSpace> {
        &self.space
    }

    /// The underlying structure.
    pub fn structure(&self) -> &Structure {
        &self.st
    }

    /// Consumes the wrapper, returning the structure.
    pub fn into_structure(self) -> Structure {
        self.st
    }

    /// The vertex `a`.
    pub fn a(&self) -> Node {
        self.a
    }

    /// The vertex `b`.
    pub fn b(&self) -> Node {
        self.b
    }

    /// Allocates a fresh vertex.
    pub fn fresh_node(&mut self) -> Node {
        self.st.fresh_node()
    }

    /// Adds the edge `H_ℓ(from, to)`; returns `true` if new.
    pub fn add_edge(&mut self, l: Label, from: Node, to: Node) -> bool {
        self.st.add(self.space.pred(l), &[from, to])
    }

    /// Does the edge `H_ℓ(from, to)` exist?
    pub fn has_edge(&self, l: Label, from: Node, to: Node) -> bool {
        self.st.contains(self.space.pred(l), &[from, to])
    }

    /// Iterates over all edges as `(label, from, to)`.
    pub fn edges(&self) -> impl Iterator<Item = (Label, Node, Node)> + '_ {
        self.st
            .atoms()
            .map(|a| (self.space.label_of(a.pred), a.args[0], a.args[1]))
    }

    /// Edges with a given label.
    pub fn edges_with(&self, l: Label) -> impl Iterator<Item = (Node, Node)> + '_ {
        self.st
            .atoms_with_pred(self.space.pred(l))
            .map(|a| (a.args[0], a.args[1]))
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.st.atom_count()
    }

    /// Number of vertices allocated.
    pub fn node_count(&self) -> u32 {
        self.st.node_count()
    }

    /// Finds a **1-2 pattern** (Definition 11): edges `H₁(a, b)` and
    /// `H₂(a′, b)` sharing their target, where `1 = ⟨n,α,d̄,b̄⟩` and
    /// `2 = ⟨w,α,d̄,b̄⟩`. Returns `(a, a′, b)` if present.
    ///
    /// The space may lack the grid labels entirely (e.g. a pure-`T∞`
    /// experiment); then there is no pattern by definition.
    pub fn find_12_pattern(&self) -> Option<(Node, Node, Node)> {
        if !self.space.contains(Label::ONE) || !self.space.contains(Label::TWO) {
            return None;
        }
        for (x, y) in self.edges_with(Label::ONE) {
            // any TWO-edge into the same target y
            if let Some(two) = self
                .st
                .atoms_with_pred_pos_node(self.space.pred(Label::TWO), 1, y)
                .next()
            {
                return Some((x, two.args[0], y));
            }
        }
        None
    }

    /// Does the graph contain a 1-2 pattern?
    pub fn has_12_pattern(&self) -> bool {
        self.find_12_pattern().is_some()
    }

    /// Does the graph contain an `H∅` edge (the Level-2 reading of
    /// "contains the full green spider", Definition 11)?
    pub fn contains_green_spider(&self) -> bool {
        self.edges_with(Label::Empty).next().is_some()
    }
}

impl fmt::Display for GreenGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "green graph ({} vertices, {} edges; a=n{}, b=n{}):",
            self.node_count(),
            self.edge_count(),
            self.a.0,
            self.b.0
        )?;
        for (l, x, y) in self.edges() {
            writeln!(f, "  H[{l}](n{}, n{})", x.0, y.0)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space_with_grid() -> Arc<LabelSpace> {
        let mut labels = Label::all_grid_labels();
        labels.push(Label::Alpha);
        Arc::new(LabelSpace::new(labels))
    }

    #[test]
    fn di_has_one_empty_edge() {
        let sp = Arc::new(LabelSpace::new([Label::Alpha]));
        let g = GreenGraph::di(Arc::clone(&sp));
        assert_eq!(g.edge_count(), 1);
        assert!(g.has_edge(Label::Empty, g.a(), g.b()));
        assert!(g.contains_green_spider());
    }

    #[test]
    fn twelve_pattern_detection() {
        let sp = space_with_grid();
        let mut g = GreenGraph::empty(Arc::clone(&sp));
        let x = g.fresh_node();
        let xp = g.fresh_node();
        let y = g.fresh_node();
        assert!(!g.has_12_pattern());
        g.add_edge(Label::ONE, x, y);
        assert!(!g.has_12_pattern(), "ONE alone is not a pattern");
        g.add_edge(Label::TWO, xp, y);
        let (a, ap, b) = g.find_12_pattern().unwrap();
        assert_eq!((a, ap, b), (x, xp, y));
    }

    #[test]
    fn twelve_pattern_requires_shared_target() {
        let sp = space_with_grid();
        let mut g = GreenGraph::empty(Arc::clone(&sp));
        let x = g.fresh_node();
        let y = g.fresh_node();
        let z = g.fresh_node();
        g.add_edge(Label::ONE, x, y);
        g.add_edge(Label::TWO, x, z);
        assert!(!g.has_12_pattern(), "different targets: no pattern");
    }

    #[test]
    fn twelve_pattern_allows_same_source() {
        // Definition 11 does not require a ≠ a′.
        let sp = space_with_grid();
        let mut g = GreenGraph::empty(Arc::clone(&sp));
        let x = g.fresh_node();
        let y = g.fresh_node();
        g.add_edge(Label::ONE, x, y);
        g.add_edge(Label::TWO, x, y);
        assert!(g.has_12_pattern());
    }

    #[test]
    fn spaces_without_grid_labels_never_have_patterns() {
        let sp = Arc::new(LabelSpace::new([Label::Alpha]));
        let g = GreenGraph::di(sp);
        assert!(!g.has_12_pattern());
    }

    #[test]
    fn edges_iterate_with_labels() {
        let sp = space_with_grid();
        let mut g = GreenGraph::di(Arc::clone(&sp));
        let c = g.fresh_node();
        g.add_edge(Label::Alpha, g.a(), c);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 2);
        assert!(edges.contains(&(Label::Alpha, g.a(), c)));
        assert_eq!(g.edges_with(Label::Alpha).count(), 1);
    }
}
