//! Conjunctive queries: canonical structures, evaluation, containment.

use crate::atom::Atom;
use crate::error::CoreError;
use crate::hom::{find_homomorphism, for_each_homomorphism, VarMap};
use crate::signature::Signature;
use crate::structure::{Node, Structure};
use crate::term::{Term, Var};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::ops::ControlFlow;
use std::sync::Arc;

/// The answer relation `Q(D) = {ā : D |= Q(ā)}` (paper §II.A).
pub type AnswerSet = BTreeSet<Vec<Node>>;

/// A conjunctive query: `Q(x̄) = ∃ȳ Ψ(ȳ, x̄)` with `Ψ` a conjunction of atoms.
///
/// The *free* (head) variables are `head_vars`; every other variable in the
/// body is implicitly existentially quantified. Head variables must occur in
/// the body ("safety").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cq {
    /// Query name, cosmetic (used for display and for view relations).
    pub name: String,
    /// Free variables, in answer-tuple order.
    pub head_vars: Vec<Var>,
    /// The quantifier-free part `Ψ`, a conjunction of atoms.
    pub body: Vec<Atom<Term>>,
    /// Cosmetic variable names (index = `Var.0`).
    pub var_names: Vec<String>,
}

impl Cq {
    /// Builds a query, checking arities and head safety against `sig`.
    pub fn try_new(
        sig: &Signature,
        name: impl Into<String>,
        head_vars: Vec<Var>,
        body: Vec<Atom<Term>>,
        var_names: Vec<String>,
    ) -> Result<Self, CoreError> {
        for a in &body {
            let expected = sig.arity(a.pred);
            if a.args.len() != expected {
                return Err(CoreError::ArityMismatch {
                    pred: sig.pred_name(a.pred).to_owned(),
                    expected,
                    got: a.args.len(),
                });
            }
        }
        let q = Cq {
            name: name.into(),
            head_vars,
            body,
            var_names,
        };
        for &v in &q.head_vars {
            if !q.body.iter().any(|a| a.vars().any(|w| w == v)) {
                return Err(CoreError::UnsafeHeadVariable(q.var_name(v)));
            }
        }
        Ok(q)
    }

    /// Builds a query without validation (for internal generated queries
    /// whose shape is correct by construction).
    pub fn new_unchecked(
        name: impl Into<String>,
        head_vars: Vec<Var>,
        body: Vec<Atom<Term>>,
        var_names: Vec<String>,
    ) -> Self {
        Cq {
            name: name.into(),
            head_vars,
            body,
            var_names,
        }
    }

    /// Parses the textual format, e.g. `Q(x,y) :- R(x,z), S(z,#c, y)`.
    /// See [`crate::parse`] for the grammar.
    pub fn parse(sig: &Signature, text: &str) -> Result<Self, CoreError> {
        crate::parse::parse_cq(sig, text)
    }

    /// The arity of the answer relation.
    pub fn arity(&self) -> usize {
        self.head_vars.len()
    }

    /// Cosmetic name of a variable.
    pub fn var_name(&self, v: Var) -> String {
        self.var_names
            .get(v.0 as usize)
            .cloned()
            .unwrap_or_else(|| format!("x{}", v.0))
    }

    /// All variables occurring in the body, deduplicated, in first-occurrence
    /// order.
    pub fn all_vars(&self) -> Vec<Var> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for a in &self.body {
            for v in a.vars() {
                if seen.insert(v) {
                    out.push(v);
                }
            }
        }
        out
    }

    /// The existentially quantified variables (body vars minus head vars).
    pub fn existential_vars(&self) -> Vec<Var> {
        let heads: BTreeSet<Var> = self.head_vars.iter().copied().collect();
        self.all_vars()
            .into_iter()
            .filter(|v| !heads.contains(v))
            .collect()
    }

    /// The **canonical structure** `A[Ψ]` of the body (paper §II.A): one node
    /// per variable, constants pinned; one atom per body atom. Returns the
    /// structure and the variable→node embedding.
    pub fn canonical_structure(&self, sig: Arc<Signature>) -> (Structure, HashMap<Var, Node>) {
        let mut d = Structure::new(sig);
        let mut map: HashMap<Var, Node> = HashMap::new();
        for v in self.all_vars() {
            let n = d.fresh_node();
            map.insert(v, n);
        }
        for a in &self.body {
            let args: Vec<Node> = a
                .args
                .iter()
                .map(|t| match t {
                    Term::Var(v) => map[v],
                    Term::Const(c) => d.node_for_const(*c),
                })
                .collect();
            d.add(a.pred, &args);
        }
        (d, map)
    }

    /// Evaluates the query: the full answer relation `Q(D)`.
    pub fn eval(&self, d: &Structure) -> AnswerSet {
        let mut out = AnswerSet::new();
        let _: ControlFlow<()> = for_each_homomorphism(&self.body, d, &VarMap::new(), |m| {
            out.insert(self.head_vars.iter().map(|v| m[v]).collect());
            ControlFlow::Continue(())
        });
        out
    }

    /// Does `D |= Q(ā)` hold for the given tuple?
    pub fn holds(&self, d: &Structure, tuple: &[Node]) -> bool {
        assert_eq!(tuple.len(), self.head_vars.len());
        let fixed: VarMap = self
            .head_vars
            .iter()
            .copied()
            .zip(tuple.iter().copied())
            .collect();
        find_homomorphism(&self.body, d, &fixed).is_some()
    }

    /// Boolean satisfaction `D |= Q` with all free variables existentially
    /// closed (paper §II.A: "Sometimes we also write D |= Q …").
    pub fn holds_boolean(&self, d: &Structure) -> bool {
        find_homomorphism(&self.body, d, &VarMap::new()).is_some()
    }

    /// Chandra–Merlin containment `self ⊑ other` (every structure's answers
    /// to `self` are answers to `other`): a homomorphism from `other`'s
    /// canonical structure into `self`'s, mapping head to head positionally.
    ///
    /// Requires equal arities.
    pub fn contained_in(&self, other: &Cq, sig: &Arc<Signature>) -> bool {
        assert_eq!(
            self.arity(),
            other.arity(),
            "containment needs equal arities"
        );
        let (canon, var2node) = self.canonical_structure(Arc::clone(sig));
        let fixed: VarMap = other
            .head_vars
            .iter()
            .zip(&self.head_vars)
            .map(|(&ov, &sv)| (ov, var2node[&sv]))
            .collect();
        find_homomorphism(&other.body, &canon, &fixed).is_some()
    }

    /// Equivalence up to homomorphism (mutual containment).
    pub fn equivalent_to(&self, other: &Cq, sig: &Arc<Signature>) -> bool {
        self.contained_in(other, sig) && other.contained_in(self, sig)
    }

    /// Is the query **project-select**: a single body atom (a selection on
    /// one relation with a projection in the head)? Constants in the body
    /// act as selections, repeated variables as equality selections; any
    /// subset/reordering of the atom's variables may be projected.
    ///
    /// View sets in which every view has this shape fall in the fragment
    /// where CQ finite determinacy is decidable (Zhang et al.,
    /// arXiv 2411.08874).
    pub fn is_project_select(&self) -> bool {
        self.body.len() == 1
    }

    /// The query's **path shape**, if it has one: a body that chains one
    /// binary predicate `R(v0,v1), R(v1,v2), …, R(v_{m-1},v_m)` through
    /// `m+1` distinct variables with head exactly `(v0, v_m)`. Returns the
    /// predicate and the length `m ≥ 1`.
    ///
    /// Path views and path queries over a shared binary predicate are the
    /// shape whose determinacy the red-spider machinery decides by the
    /// divisibility criterion (`m` divides `k`).
    pub fn path_shape(&self, sig: &Signature) -> Option<(crate::signature::PredId, usize)> {
        let first = self.body.first()?;
        if sig.arity(first.pred) != 2 {
            return None;
        }
        let var_of = |t: &Term| match t {
            Term::Var(v) => Some(*v),
            Term::Const(_) => None,
        };
        let mut seen = BTreeSet::new();
        let mut prev = var_of(&first.args[0])?;
        seen.insert(prev);
        for a in &self.body {
            if a.pred != first.pred {
                return None;
            }
            let (src, dst) = (var_of(&a.args[0])?, var_of(&a.args[1])?);
            if src != prev || !seen.insert(dst) {
                return None;
            }
            prev = dst;
        }
        let start = var_of(&first.args[0])?;
        if self.head_vars != [start, prev] {
            return None;
        }
        Some((first.pred, self.body.len()))
    }

    /// Renders the query over its signature.
    pub fn display_with<'a>(&'a self, sig: &'a Signature) -> impl fmt::Display + 'a {
        struct D<'a>(&'a Cq, &'a Signature);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}(", self.0.name)?;
                for (i, v) in self.0.head_vars.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{}", self.0.var_name(*v))?;
                }
                write!(f, ") :- ")?;
                let namer = |v: Var| self.0.var_name(v);
                for (i, a) in self.0.body.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", a.display_with(self.1, &namer))?;
                }
                Ok(())
            }
        }
        D(self, sig)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig() -> Arc<Signature> {
        let mut s = Signature::new();
        s.add_predicate("R", 2);
        s.add_predicate("S", 2);
        s.add_constant("c");
        Arc::new(s)
    }

    fn triangle(sig: &Arc<Signature>) -> (Structure, [Node; 3]) {
        let r = sig.predicate("R").unwrap();
        let mut d = Structure::new(Arc::clone(sig));
        let a = d.fresh_node();
        let b = d.fresh_node();
        let c = d.fresh_node();
        d.add(r, &[a, b]);
        d.add(r, &[b, c]);
        d.add(r, &[c, a]);
        (d, [a, b, c])
    }

    #[test]
    fn eval_returns_answer_tuples() {
        let sig = sig();
        let (d, [a, b, c]) = triangle(&sig);
        let q = Cq::parse(&sig, "Q(x,y) :- R(x,y)").unwrap();
        let ans = q.eval(&d);
        assert_eq!(ans.len(), 3);
        assert!(ans.contains(&vec![a, b]));
        assert!(ans.contains(&vec![b, c]));
        assert!(ans.contains(&vec![c, a]));
    }

    #[test]
    fn holds_specific_tuple() {
        let sig = sig();
        let (d, [a, b, _c]) = triangle(&sig);
        let q = Cq::parse(&sig, "Q(x,y) :- R(x,y)").unwrap();
        assert!(q.holds(&d, &[a, b]));
        assert!(!q.holds(&d, &[b, a]));
    }

    #[test]
    fn boolean_query() {
        let sig = sig();
        let (d, _) = triangle(&sig);
        let q2 = Cq::parse(&sig, "Q() :- R(x,y), R(y,z), R(z,x)").unwrap();
        assert!(q2.holds_boolean(&d));
        let qs = Cq::parse(&sig, "Q() :- S(x,y)").unwrap();
        assert!(!qs.holds_boolean(&d));
    }

    #[test]
    fn canonical_structure_shape() {
        let sig = sig();
        let q = Cq::parse(&sig, "Q(x) :- R(x,y), S(y,#c)").unwrap();
        let (canon, map) = q.canonical_structure(Arc::clone(&sig));
        assert_eq!(map.len(), 2); // x, y
        assert_eq!(canon.atom_count(), 2);
        // 2 var nodes + 1 constant node
        assert_eq!(canon.node_count(), 3);
    }

    #[test]
    fn containment_path_queries() {
        let sig = sig();
        // longer path is contained in shorter path
        let p2 = Cq::parse(&sig, "P2(x,z) :- R(x,y), R(y,z)").unwrap();
        let p1 = Cq::parse(&sig, "P1(x,y) :- R(x,y)").unwrap();
        // P2 ⊑ ∃-reachability? With equal arity: P2(x,z) vs P1(x,z)?
        // A 2-path answer need not be a 1-path answer; and vice versa.
        assert!(!p2.contained_in(&p1, &sig));
        assert!(!p1.contained_in(&p2, &sig));
        // But Q(x,y) :- R(x,y), R(x,y) is equivalent to P1.
        let p1dup = Cq::parse(&sig, "P(x,y) :- R(x,y), R(x,y)").unwrap();
        assert!(p1dup.equivalent_to(&p1, &sig));
    }

    #[test]
    fn containment_with_existentials() {
        let sig = sig();
        // Q(x) :- R(x,y), R(y,z)  ⊑  Q'(x) :- R(x,y)
        let q = Cq::parse(&sig, "Q(x) :- R(x,y), R(y,z)").unwrap();
        let q2 = Cq::parse(&sig, "Qp(x) :- R(x,y)").unwrap();
        assert!(q.contained_in(&q2, &sig));
        assert!(!q2.contained_in(&q, &sig));
    }

    #[test]
    fn unsafe_head_is_rejected() {
        let sig = sig();
        let err = Cq::parse(&sig, "Q(x,w) :- R(x,y)").unwrap_err();
        assert!(matches!(err, CoreError::UnsafeHeadVariable(_)));
    }

    #[test]
    fn eval_with_constants() {
        let sig = sig();
        let r = sig.predicate("R").unwrap();
        let c = sig.constant("c").unwrap();
        let mut d = Structure::new(Arc::clone(&sig));
        let nc = d.node_for_const(c);
        let x = d.fresh_node();
        let y = d.fresh_node();
        d.add(r, &[nc, x]);
        d.add(r, &[y, x]);
        let q = Cq::parse(&sig, "Q(z) :- R(#c,z)").unwrap();
        let ans = q.eval(&d);
        assert_eq!(ans.len(), 1);
        assert!(ans.contains(&vec![x]));
    }

    #[test]
    fn project_select_shape_is_single_atom() {
        let sig = sig();
        assert!(Cq::parse(&sig, "V(x) :- R(x,y)")
            .unwrap()
            .is_project_select());
        assert!(Cq::parse(&sig, "V(x) :- R(x,#c)")
            .unwrap()
            .is_project_select());
        assert!(Cq::parse(&sig, "V(x) :- R(x,x)")
            .unwrap()
            .is_project_select());
        assert!(!Cq::parse(&sig, "V(x) :- R(x,y), S(y,z)")
            .unwrap()
            .is_project_select());
    }

    #[test]
    fn path_shape_recognizes_chains_and_rejects_everything_else() {
        let sig = sig();
        let r = sig.predicate("R").unwrap();
        let p3 = Cq::parse(&sig, "V(x,w) :- R(x,y), R(y,z), R(z,w)").unwrap();
        assert_eq!(p3.path_shape(&sig), Some((r, 3)));
        let p1 = Cq::parse(&sig, "V(x,y) :- R(x,y)").unwrap();
        assert_eq!(p1.path_shape(&sig), Some((r, 1)));
        // Mixed predicates, broken chain, self-loop, reversed head,
        // projected head: none are paths.
        for text in [
            "V(x,z) :- R(x,y), S(y,z)",
            "V(x,w) :- R(x,y), R(z,w)",
            "V(x,x) :- R(x,x)",
            "V(y,x) :- R(x,y)",
            "V(x) :- R(x,y)",
        ] {
            let q = Cq::parse(&sig, text).unwrap();
            assert_eq!(q.path_shape(&sig), None, "{text}");
        }
    }

    #[test]
    fn display_round_trip_text() {
        let sig = sig();
        let q = Cq::parse(&sig, "Q(x,y) :- R(x,z), S(z,y)").unwrap();
        let shown = format!("{}", q.display_with(&sig));
        let q2 = Cq::parse(&sig, &shown).unwrap();
        assert!(q.equivalent_to(&q2, &sig));
    }
}
