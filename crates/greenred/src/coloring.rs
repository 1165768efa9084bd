//! The two-colored signature `Σ̄` and the maps `G`, `R`, `dalt` (paper §IV.A).

use cqfd_core::{Atom, PredId, Signature, Structure, Term};
use std::sync::Arc;

/// One of the two colors of `Σ̄`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Color {
    /// The `Σ_G` copy.
    Green,
    /// The `Σ_R` copy.
    Red,
}

impl Color {
    /// The other color.
    pub fn flip(self) -> Color {
        match self {
            Color::Green => Color::Red,
            Color::Red => Color::Green,
        }
    }
}

/// A base signature `Σ` together with its two-colored extension
/// `Σ̄ = Σ_G ∪ Σ_R` (paper §IV.A).
///
/// For each predicate `P ∈ Σ` there are predicates `G:P` and `R:P` in `Σ̄`,
/// with the same arity. Constants are *not* colored — they are copied into
/// `Σ̄` verbatim ("constants … survive in Σ̄ unharmed"), with identical
/// [`cqfd_core::ConstId`]s (the construction interns constants of `Σ̄` in the
/// same order as in `Σ`).
#[derive(Debug, Clone)]
pub struct GreenRed {
    base: Arc<Signature>,
    colored: Arc<Signature>,
    green_of: Vec<PredId>,
    red_of: Vec<PredId>,
}

impl GreenRed {
    /// Builds `Σ̄` from `Σ`.
    pub fn new(base: Arc<Signature>) -> Self {
        let mut colored = Signature::new();
        let mut green_of = Vec::with_capacity(base.pred_count());
        let mut red_of = Vec::with_capacity(base.pred_count());
        for p in base.predicates() {
            let gp = colored.add_predicate(&format!("G:{}", base.pred_name(p)), base.arity(p));
            green_of.push(gp);
        }
        for p in base.predicates() {
            let rp = colored.add_predicate(&format!("R:{}", base.pred_name(p)), base.arity(p));
            red_of.push(rp);
        }
        for c in base.constants() {
            let cc = colored.add_constant(base.const_name(c));
            debug_assert_eq!(cc, c, "constants keep their ids across Σ → Σ̄");
        }
        GreenRed {
            base,
            colored: Arc::new(colored),
            green_of,
            red_of,
        }
    }

    /// The base signature `Σ`.
    pub fn base(&self) -> &Arc<Signature> {
        &self.base
    }

    /// The two-colored signature `Σ̄`.
    pub fn colored(&self) -> &Arc<Signature> {
        &self.colored
    }

    /// The green copy of a base predicate.
    pub fn green(&self, p: PredId) -> PredId {
        self.green_of[p.0 as usize]
    }

    /// The red copy of a base predicate.
    pub fn red(&self, p: PredId) -> PredId {
        self.red_of[p.0 as usize]
    }

    /// The copy of a base predicate in the given color.
    pub fn colorize(&self, color: Color, p: PredId) -> PredId {
        match color {
            Color::Green => self.green(p),
            Color::Red => self.red(p),
        }
    }

    /// Decomposes a colored predicate into its color and base predicate.
    pub fn decompose(&self, colored: PredId) -> (Color, PredId) {
        let n = self.base.pred_count() as u32;
        if colored.0 < n {
            (Color::Green, PredId(colored.0))
        } else {
            debug_assert!(colored.0 < 2 * n);
            (Color::Red, PredId(colored.0 - n))
        }
    }

    /// `G(Ψ)` / `R(Ψ)` on a conjunction of atoms over `Σ`.
    pub fn color_formula(&self, color: Color, atoms: &[Atom<Term>]) -> Vec<Atom<Term>> {
        atoms
            .iter()
            .map(|a| Atom::new(self.colorize(color, a.pred), a.args.clone()))
            .collect()
    }

    /// `dalt(Ψ)` on a conjunction of atoms over `Σ̄`.
    pub fn dalt_formula(&self, atoms: &[Atom<Term>]) -> Vec<Atom<Term>> {
        atoms
            .iter()
            .map(|a| Atom::new(self.decompose(a.pred).1, a.args.clone()))
            .collect()
    }

    /// Paints a structure over `Σ` into a structure over `Σ̄` in one color.
    pub fn color_structure(&self, color: Color, d: &Structure) -> Structure {
        d.map_predicates(Arc::clone(&self.colored), |p| self.colorize(color, p))
    }

    /// `dalt(D)`: erases colors, producing a structure over `Σ` (atoms that
    /// differ only in color collapse).
    pub fn dalt_structure(&self, d: &Structure) -> Structure {
        d.map_predicates(Arc::clone(&self.base), |p| self.decompose(p).1)
    }

    /// `D ↾ G` (written `D_G` in the paper): the substructure of all green
    /// atoms. The domain is left untouched.
    pub fn green_part(&self, d: &Structure) -> Structure {
        d.filter_atoms(|a| self.decompose(a.pred).0 == Color::Green)
    }

    /// `D ↾ R`: the substructure of all red atoms.
    pub fn red_part(&self, d: &Structure) -> Structure {
        d.filter_atoms(|a| self.decompose(a.pred).0 == Color::Red)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqfd_core::{structure_homomorphism, Cq};

    fn base() -> Arc<Signature> {
        let mut s = Signature::new();
        s.add_predicate("R", 2);
        s.add_predicate("S", 3);
        s.add_constant("a");
        Arc::new(s)
    }

    #[test]
    fn colored_signature_shape() {
        let gr = GreenRed::new(base());
        assert_eq!(gr.colored().pred_count(), 4);
        assert_eq!(gr.colored().const_count(), 1);
        let r = gr.base().predicate("R").unwrap();
        assert_eq!(gr.colored().pred_name(gr.green(r)), "G:R");
        assert_eq!(gr.colored().pred_name(gr.red(r)), "R:R");
        assert_eq!(gr.colored().arity(gr.red(r)), 2);
    }

    #[test]
    fn decompose_inverts_colorize() {
        let gr = GreenRed::new(base());
        for p in gr.base().predicates() {
            assert_eq!(gr.decompose(gr.green(p)), (Color::Green, p));
            assert_eq!(gr.decompose(gr.red(p)), (Color::Red, p));
        }
    }

    #[test]
    fn color_then_dalt_is_identity_on_structures() {
        let gr = GreenRed::new(base());
        let r = gr.base().predicate("R").unwrap();
        let mut d = Structure::new(Arc::clone(gr.base()));
        let x = d.fresh_node();
        let y = d.fresh_node();
        d.add(r, &[x, y]);
        for color in [Color::Green, Color::Red] {
            let painted = gr.color_structure(color, &d);
            let back = gr.dalt_structure(&painted);
            assert_eq!(back.atoms(), d.atoms());
        }
    }

    #[test]
    fn parts_split_the_structure() {
        let gr = GreenRed::new(base());
        let r = gr.base().predicate("R").unwrap();
        let mut d = Structure::new(Arc::clone(gr.colored()));
        let x = d.fresh_node();
        let y = d.fresh_node();
        d.add(gr.green(r), &[x, y]);
        d.add(gr.red(r), &[y, x]);
        assert_eq!(gr.green_part(&d).atom_count(), 1);
        assert_eq!(gr.red_part(&d).atom_count(), 1);
        assert_eq!(
            gr.green_part(&d).atom_count() + gr.red_part(&d).atom_count(),
            d.atom_count()
        );
    }

    #[test]
    fn color_formula_flips_predicates_only() {
        let gr = GreenRed::new(base());
        let q = Cq::parse(gr.base(), "Q(x) :- R(x,y), S(y,x,#a)").unwrap();
        let green = gr.color_formula(Color::Green, &q.body);
        assert_eq!(green.len(), 2);
        assert_eq!(green[0].args, q.body[0].args);
        assert_eq!(gr.decompose(green[0].pred), (Color::Green, q.body[0].pred));
        let back = gr.dalt_formula(&green);
        assert_eq!(back, q.body);
    }

    /// Observation 6: for green `D` and any `Q`, `dalt(chase(T_Q, D))`
    /// maps homomorphically into `dalt(D)`. (The full statement is tested
    /// here on a representative instance; the oracle tests exercise more.)
    #[test]
    fn observation6_dalt_chase_maps_back() {
        use crate::tq::greenred_tgds;
        use cqfd_chase::{ChaseBudget, ChaseEngine};
        let gr = GreenRed::new(base());
        let q = Cq::parse(gr.base(), "V(x,y) :- R(x,z), R(z,y)").unwrap();
        let tgds = greenred_tgds(&gr, &[q]);
        let engine = ChaseEngine::new(tgds);
        let r = gr.base().predicate("R").unwrap();
        let mut d0 = Structure::new(Arc::clone(gr.base()));
        let n0 = d0.fresh_node();
        let n1 = d0.fresh_node();
        let n2 = d0.fresh_node();
        d0.add(r, &[n0, n1]);
        d0.add(r, &[n1, n2]);
        let green_d = gr.color_structure(Color::Green, &d0);
        let run = engine.chase(&green_d, &ChaseBudget::stages(8));
        let dalt_chase = gr.dalt_structure(&run.structure);
        let dalt_d = gr.dalt_structure(&green_d);
        assert!(
            structure_homomorphism(&dalt_chase, &dalt_d).is_some(),
            "Observation 6: daltonised chase must map into daltonised start"
        );
    }
}
