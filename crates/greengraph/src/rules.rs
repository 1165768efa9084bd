//! The rule language `L2` and its execution (paper §VI, Definitiones of
//! `I1&··I2 ] I3&··I4` and `I1/··I2 ] I3/··I4`).

use crate::graph::GreenGraph;
use crate::label::Label;
use crate::space::LabelSpace;
use cqfd_chase::{ChaseBudget, ChaseEngine, ChaseRun, Tgd};
use cqfd_core::{Atom, Structure, Term, Var};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// How the two edges of each side of a rule are joined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Join {
    /// `&··`: the two edges share their **target** (`H(I1,x,y) ∧ H(I2,x′,y)`)
    /// — the Level-0 reading is "spiders share their antenna".
    Antenna,
    /// `/··`: the two edges share their **source** (`H(I1,x,y) ∧ H(I2,x,y′)`)
    /// — the Level-0 reading is "spiders share their tail".
    Tail,
}

/// A green-graph rewriting rule `I1 ⋈ I2 ] I3 ⋈ I4` (an equivalence; `⋈` is
/// `&··` or `/··` according to [`Join`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct L2Rule {
    /// The join shape shared by both sides.
    pub join: Join,
    /// Left-hand labels `(I1, I2)`.
    pub lhs: (Label, Label),
    /// Right-hand labels `(I3, I4)`.
    pub rhs: (Label, Label),
}

impl L2Rule {
    /// `I1 &·· I2 ] I3 &·· I4`.
    pub fn antenna(i1: Label, i2: Label, i3: Label, i4: Label) -> Self {
        L2Rule {
            join: Join::Antenna,
            lhs: (i1, i2),
            rhs: (i3, i4),
        }
    }

    /// `I1 /·· I2 ] I3 /·· I4`.
    pub fn tail(i1: Label, i2: Label, i3: Label, i4: Label) -> Self {
        L2Rule {
            join: Join::Tail,
            lhs: (i1, i2),
            rhs: (i3, i4),
        }
    }

    /// All four labels of the rule.
    pub fn labels(&self) -> [Label; 4] {
        [self.lhs.0, self.lhs.1, self.rhs.0, self.rhs.1]
    }

    /// The two TGDs of the equivalence (forward: lhs pattern demands rhs
    /// witnesses; backward: vice versa).
    pub fn tgds(&self, space: &LabelSpace) -> [Tgd; 2] {
        [
            self.one_tgd(space, self.lhs, self.rhs, "fwd"),
            self.one_tgd(space, self.rhs, self.lhs, "bwd"),
        ]
    }

    fn one_tgd(
        &self,
        space: &LabelSpace,
        from: (Label, Label),
        to: (Label, Label),
        dir: &str,
    ) -> Tgd {
        let h = |l: Label, x: u32, y: u32| {
            Atom::new(space.pred(l), vec![Term::Var(Var(x)), Term::Var(Var(y))])
        };
        // Variables: 0, 1 = the two free endpoints; 2 = shared joined vertex
        // of the body; 3 = fresh shared joined vertex of the head.
        let (body, head) = match self.join {
            Join::Antenna => (
                vec![h(from.0, 0, 2), h(from.1, 1, 2)],
                vec![h(to.0, 0, 3), h(to.1, 1, 3)],
            ),
            Join::Tail => (
                vec![h(from.0, 2, 0), h(from.1, 2, 1)],
                vec![h(to.0, 3, 0), h(to.1, 3, 1)],
            ),
        };
        Tgd::new_unchecked(format!("{self}[{dir}]"), body, head)
    }
}

impl fmt::Display for L2Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let op = match self.join {
            Join::Antenna => "&··",
            Join::Tail => "/··",
        };
        write!(
            f,
            "{}{}{} ] {}{}{}",
            self.lhs.0, op, self.lhs.1, self.rhs.0, op, self.rhs.1
        )
    }
}

/// A set `T ⊆ L2` of green-graph rewriting rules, executable via the chase.
#[derive(Debug, Clone, Default)]
pub struct L2System {
    rules: Vec<L2Rule>,
}

impl L2System {
    /// Builds a system.
    ///
    /// # Panics
    /// If any rule mentions the reserved labels 3 or 4 — the paper's
    /// standing assumption after Definition 9 ("spiders `I3` and `I4` … do
    /// not occur in our sets of green graph rewriting rules").
    pub fn new(rules: Vec<L2Rule>) -> Self {
        for r in &rules {
            for l in r.labels() {
                assert!(
                    l != Label::Reserved3 && l != Label::Reserved4,
                    "rule {r} uses a reserved Precompile label"
                );
            }
        }
        L2System { rules }
    }

    /// The rules.
    pub fn rules(&self) -> &[L2Rule] {
        &self.rules
    }

    /// Union of two systems (e.g. `T = T∞ ∪ T□`, §VII; `TM∆ ∪ T□`, §VIII).
    pub fn union(&self, other: &L2System) -> L2System {
        let mut rules = self.rules.clone();
        rules.extend(other.rules.iter().copied());
        L2System { rules }
    }

    /// Every label mentioned by the rules.
    pub fn labels(&self) -> BTreeSet<Label> {
        self.rules.iter().flat_map(|r| r.labels()).collect()
    }

    /// A label space covering this system plus any extra labels.
    pub fn space_with(&self, extra: impl IntoIterator<Item = Label>) -> Arc<LabelSpace> {
        let mut labels = self.labels();
        labels.extend(extra);
        Arc::new(LabelSpace::new(labels))
    }

    /// The TGD compilation of all rules over the given space.
    pub fn tgds(&self, space: &LabelSpace) -> Vec<Tgd> {
        self.rules.iter().flat_map(|r| r.tgds(space)).collect()
    }

    /// The chase engine over the given space.
    pub fn engine(&self, space: &LabelSpace) -> ChaseEngine {
        ChaseEngine::new(self.tgds(space))
    }

    /// Chases a green graph under this system. The chased structure is
    /// moved into the returned graph (see [`ChaseRun::take_structure`]):
    /// read it there, and its size off the run's
    /// [`atom_count`](ChaseRun::atom_count).
    pub fn chase(&self, g: &GreenGraph, budget: &ChaseBudget) -> (GreenGraph, ChaseRun) {
        let engine = self.engine(g.space());
        let mut run = engine.chase(g.structure(), budget);
        let out = GreenGraph::from_structure(Arc::clone(g.space()), run.take_structure());
        (out, run)
    }

    /// Chases until a 1-2 pattern appears (or the budget runs out). Returns
    /// the final graph, the run, and whether the pattern was found.
    ///
    /// This is the semi-decision procedure for "`T` leads to the red
    /// spider" on the chase side (Definition 11 at Level 2): if
    /// `chase(T, DI)` develops a 1-2 pattern, every model does.
    ///
    /// As with [`chase`](Self::chase), the chased structure is moved into
    /// the returned graph.
    pub fn chase_until_12(
        &self,
        g: &GreenGraph,
        budget: &ChaseBudget,
    ) -> (GreenGraph, ChaseRun, bool) {
        let engine = self.engine(g.space());
        let space = Arc::clone(g.space());
        let mut run = engine.chase_with_monitor(g.structure(), budget, |st, _| {
            has_12_in_structure(&space, st)
        });
        let found = has_12_in_structure(&space, &run.structure);
        let out = GreenGraph::from_structure(space, run.take_structure());
        (out, run, found)
    }

    /// Exact model check: both directions of every equivalence hold.
    pub fn is_model(&self, g: &GreenGraph) -> bool {
        self.engine(g.space()).is_model(g.structure())
    }

    /// The first violated rule direction, if any (TGD index order: rule `i`
    /// owns TGDs `2i` (fwd) and `2i+1` (bwd)).
    pub fn first_violation(&self, g: &GreenGraph) -> Option<String> {
        let engine = self.engine(g.space());
        engine
            .first_violation(g.structure())
            .map(|(i, _)| engine.tgds()[i].name().to_owned())
    }
}

/// 1-2 pattern detection on a raw structure over a label space.
pub fn has_12_in_structure(space: &LabelSpace, st: &Structure) -> bool {
    if !space.contains(Label::ONE) || !space.contains(Label::TWO) {
        return false;
    }
    let one = space.pred(Label::ONE);
    let two = space.pred(Label::TWO);
    st.atoms_with_pred(one).any(|a| {
        st.atoms_with_pred_pos_node(two, 1, a.args[1])
            .next()
            .is_some()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(extra: &[Label]) -> Arc<LabelSpace> {
        let mut labels = vec![Label::Alpha, Label::Beta0, Label::Beta1];
        labels.extend_from_slice(extra);
        Arc::new(LabelSpace::new(labels))
    }

    #[test]
    fn antenna_rule_fires_forward() {
        // α &·· α ] β0 &·· β1: two α edges sharing a target force β0/β1
        // edges sharing a (fresh) target.
        let rule = L2Rule::antenna(Label::Alpha, Label::Alpha, Label::Beta0, Label::Beta1);
        let sys = L2System::new(vec![rule]);
        let space = sp(&[]);
        let mut g = GreenGraph::empty(Arc::clone(&space));
        let x = g.fresh_node();
        let xp = g.fresh_node();
        let y = g.fresh_node();
        g.add_edge(Label::Alpha, x, y);
        g.add_edge(Label::Alpha, xp, y);
        assert!(!sys.is_model(&g));
        let (out, run, _) = sys.chase_until_12(&g, &ChaseBudget::stages(8));
        assert!(run.reached_fixpoint());
        assert!(sys.is_model(&out));
        // The fresh target y' carries β0 from x and β1 from x' — and the
        // *backward* TGD is satisfied by the original α pair.
        let b0: Vec<_> = out.edges_with(Label::Beta0).collect();
        assert!(!b0.is_empty());
    }

    #[test]
    fn tail_rule_fires_forward() {
        let rule = L2Rule::tail(Label::Alpha, Label::Alpha, Label::Beta0, Label::Beta1);
        let sys = L2System::new(vec![rule]);
        let space = sp(&[]);
        let mut g = GreenGraph::empty(Arc::clone(&space));
        let x = g.fresh_node();
        let y = g.fresh_node();
        let yp = g.fresh_node();
        g.add_edge(Label::Alpha, x, y);
        g.add_edge(Label::Alpha, x, yp);
        let (out, run) = sys.chase(&g, &ChaseBudget::stages(8));
        assert!(run.reached_fixpoint());
        assert!(sys.is_model(&out));
        // Homomorphisms need not be injective: all four target pairs
        // (y,y), (y,y′), (y′,y), (y′,y′) fire, each creating a β0/β1 pair
        // that *shares its fresh source* (tail join).
        let b0: Vec<_> = out.edges_with(Label::Beta0).collect();
        let b1: Vec<_> = out.edges_with(Label::Beta1).collect();
        assert_eq!(b0.len(), 4);
        assert_eq!(b1.len(), 4);
        for &(src, tgt) in &b0 {
            let partner = b1.iter().find(|&&(s, _)| s == src);
            assert!(partner.is_some(), "β0 from {src:?} must pair with a β1");
            assert!(tgt == y || tgt == yp);
        }
        // In particular the (y, y′) match produced a pair covering both
        // original targets from one shared source.
        assert!(b0.iter().any(|&(s, t)| t == y && b1.contains(&(s, yp))));
    }

    #[test]
    fn backward_direction_also_enforced() {
        // Model check must fail when only the rhs pattern is present.
        let rule = L2Rule::antenna(Label::Alpha, Label::Alpha, Label::Beta0, Label::Beta1);
        let sys = L2System::new(vec![rule]);
        let space = sp(&[]);
        let mut g = GreenGraph::empty(Arc::clone(&space));
        let x = g.fresh_node();
        let xp = g.fresh_node();
        let y = g.fresh_node();
        g.add_edge(Label::Beta0, x, y);
        g.add_edge(Label::Beta1, xp, y);
        assert!(!sys.is_model(&g), "backward TGD demands α witnesses");
        let (out, run) = sys.chase(&g, &ChaseBudget::stages(8));
        assert!(run.reached_fixpoint());
        assert!(sys.is_model(&out));
    }

    #[test]
    fn degenerate_match_with_equal_endpoints() {
        // A single α edge matches `α &·· α` with x = x′ (homomorphisms need
        // not be injective) — the §VII Step 3 phenomenon that triggers the
        // grid rule on unfolded paths.
        let rule = L2Rule::antenna(Label::Alpha, Label::Alpha, Label::Beta0, Label::Beta1);
        let sys = L2System::new(vec![rule]);
        let space = sp(&[]);
        let mut g = GreenGraph::empty(Arc::clone(&space));
        let x = g.fresh_node();
        let y = g.fresh_node();
        g.add_edge(Label::Alpha, x, y);
        let (out, run) = sys.chase(&g, &ChaseBudget::stages(8));
        assert!(run.reached_fixpoint());
        // β0 and β1 edges from x to a shared fresh node.
        let b0: Vec<_> = out.edges_with(Label::Beta0).collect();
        assert_eq!(b0.len(), 1);
        assert_eq!(b0[0].0, x);
    }

    #[test]
    fn twelve_pattern_stops_chase() {
        // ∅ &·· ∅ ] ONE &·· TWO: DI immediately yields a 1-2 pattern.
        let rule = L2Rule::antenna(Label::Empty, Label::Empty, Label::ONE, Label::TWO);
        let sys = L2System::new(vec![rule]);
        let space = sys.space_with([]);
        let g = GreenGraph::di(Arc::clone(&space));
        let (_, _, found) = sys.chase_until_12(&g, &ChaseBudget::stages(8));
        assert!(found);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn reserved_labels_rejected() {
        let _ = L2System::new(vec![L2Rule::antenna(
            Label::Reserved3,
            Label::Alpha,
            Label::Alpha,
            Label::Alpha,
        )]);
    }

    #[test]
    fn union_concatenates() {
        let r1 = L2Rule::antenna(Label::Alpha, Label::Alpha, Label::Beta0, Label::Beta1);
        let r2 = L2Rule::tail(Label::Alpha, Label::Alpha, Label::Beta0, Label::Beta1);
        let s = L2System::new(vec![r1]).union(&L2System::new(vec![r2]));
        assert_eq!(s.rules().len(), 2);
        assert_eq!(s.labels().len(), 3);
    }

    #[test]
    fn display_format() {
        let r = L2Rule::antenna(Label::Empty, Label::Empty, Label::Alpha, Label::Eta1);
        assert_eq!(format!("{r}"), "∅&··∅ ] α&··η1");
        let r = L2Rule::tail(Label::Empty, Label::Eta1, Label::Eta0, Label::Beta1);
        assert_eq!(format!("{r}"), "∅/··η1 ] η0/··β1");
    }
}
