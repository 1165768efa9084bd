//! An independent decision procedure for determinacy under
//! **project-select views** (the `A300` fragment).
//!
//! Every view is a single-atom body `V(h̄) :- R(t̄)` — a selection on one
//! relation with a projection in the head. Determinacy asks whether any
//! two instances with the same view answers agree on `Q0`; the classical
//! green–red reduction phrases this as a chase of the exchange rules
//! `T_Q` from `green(A[Q0])`. This module implements that exchange
//! closure *directly*, specialised to single-atom views, sharing no code
//! with the oracle's chase engine or hom-search machinery — which is the
//! point: the dispatcher runs it as an independent cross-check against
//! the oracle's verdict on `A300` inputs.
//!
//! The state is a pair of structures over the base signature — the green
//! and red planes, sharing one node space — and the closure alternates:
//! whenever some view answer holds in one plane but not the other, the
//! missing plane receives a fresh instantiation of the view body (head
//! variables pinned to the answer tuple, existential variables fresh).
//! That is precisely the restricted chase of `T_Q`: for a single-atom
//! view, "the head is already satisfied" *is* "the answer tuple is
//! already a view answer of the other plane".
//!
//! **Termination and completeness.** The `A300` verdict requires `T_Q`
//! weakly acyclic (the classifier checks it — a single project-select
//! view always qualifies; several views may not), so every restricted
//! chase sequence terminates, and all terminating sequences produce
//! homomorphically equivalent universal models. At the fixpoint both
//! planes have identical view answers and the green plane satisfies
//! `Q0` at the canonical tuple; determinacy holds iff the red plane
//! does too — and when it does not, the pair *is* a finite
//! counter-example, so finite determinacy fails as well. The defensive
//! [`PsvLimits`] cap exists only to keep the procedure total on inputs
//! that violate the precondition; hitting it returns `None`.

use cqfd_core::{Cq, Node, Signature, Structure, Term, Var};
use std::collections::HashMap;
use std::sync::Arc;

/// The decision, with the number of closure rounds as evidence of the
/// finite fixpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PsvVerdict {
    /// The views determine `Q0` (finitely and unrestrictedly).
    Determined {
        /// Closure rounds to the fixpoint.
        rounds: usize,
    },
    /// The fixpoint is a finite counter-example: not determined.
    NotDetermined {
        /// Closure rounds to the fixpoint.
        rounds: usize,
    },
}

impl PsvVerdict {
    /// True when the verdict certifies determinacy.
    pub fn is_determined(self) -> bool {
        matches!(self, PsvVerdict::Determined { .. })
    }
}

/// Defensive caps for [`decide`]. On `A300`-classified inputs the
/// closure terminates well inside the defaults; the caps only guard
/// against misuse on inputs outside the fragment.
#[derive(Debug, Clone, Copy)]
pub struct PsvLimits {
    /// Maximum closure rounds before giving up.
    pub max_rounds: usize,
    /// Maximum nodes in the shared node space before giving up.
    pub max_nodes: u32,
}

impl Default for PsvLimits {
    fn default() -> Self {
        PsvLimits {
            max_rounds: 10_000,
            max_nodes: 1_000_000,
        }
    }
}

/// Decides determinacy for project-select views by running the exchange
/// closure to its fixpoint. Returns `None` when some view is not
/// project-select or a [`PsvLimits`] cap is hit — callers fall back to
/// the general pipeline.
pub fn decide(
    sig: &Arc<Signature>,
    views: &[Cq],
    q0: &Cq,
    limits: PsvLimits,
) -> Option<PsvVerdict> {
    if views.is_empty() || !views.iter().all(Cq::is_project_select) {
        return None;
    }
    // The green plane starts as the canonical structure of Q0; the red
    // plane shares its node space (and constant bindings) but no atoms.
    let (mut green, var2node) = q0.canonical_structure(Arc::clone(sig));
    let tuple: Vec<Node> = q0.head_vars.iter().map(|v| var2node[v]).collect();
    let mut red = green.filter_atoms(|_| false);

    let mut rounds = 0usize;
    loop {
        if rounds >= limits.max_rounds || green.node_count() > limits.max_nodes {
            return None;
        }
        rounds += 1;
        let mut changed = false;
        for v in views {
            // Green answers missing in red, and vice versa. Each missing
            // answer gets one fresh instantiation of the view body in the
            // deficient plane (the restricted-chase firing).
            let g_ans = v.eval(&green);
            let r_ans = v.eval(&red);
            for t in g_ans.difference(&r_ans) {
                instantiate(v, t, &mut red, &mut green);
                changed = true;
            }
            for t in r_ans.difference(&g_ans) {
                instantiate(v, t, &mut green, &mut red);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    Some(if q0.holds(&red, &tuple) {
        PsvVerdict::Determined { rounds }
    } else {
        PsvVerdict::NotDetermined { rounds }
    })
}

/// Adds the view's single body atom to `target`, head variables bound to
/// the answer tuple and existential variables fresh. The sibling plane
/// mirrors every node allocation so the two planes keep one node space.
fn instantiate(view: &Cq, answer: &[Node], target: &mut Structure, sibling: &mut Structure) {
    let atom = &view.body[0];
    let mut binding: HashMap<Var, Node> = view
        .head_vars
        .iter()
        .copied()
        .zip(answer.iter().copied())
        .collect();
    let args: Vec<Node> = atom
        .args
        .iter()
        .map(|t| match t {
            Term::Var(v) => *binding.entry(*v).or_insert_with(|| {
                let n = target.fresh_node();
                let m = sibling.fresh_node();
                debug_assert_eq!(n, m, "the two planes share one node space");
                n
            }),
            Term::Const(c) => {
                let n = target.node_for_const(*c);
                let m = sibling.node_for_const(*c);
                debug_assert_eq!(n, m, "constant nodes agree across planes");
                n
            }
        })
        .collect();
    target.add(atom.pred, &args);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig_r() -> Arc<Signature> {
        let mut s = Signature::new();
        s.add_predicate("R", 2);
        s.add_predicate("S", 3);
        s.add_constant("c");
        Arc::new(s)
    }

    #[test]
    fn identity_view_determines_the_relation() {
        let sig = sig_r();
        let v = Cq::parse(&sig, "V(x,y) :- R(x,y)").unwrap();
        let q0 = Cq::parse(&sig, "Q0(x,y) :- R(x,y)").unwrap();
        let verdict = decide(&sig, &[v], &q0, PsvLimits::default()).unwrap();
        assert!(verdict.is_determined(), "{verdict:?}");
    }

    #[test]
    fn projection_view_does_not_determine() {
        let sig = sig_r();
        let v = Cq::parse(&sig, "V(x) :- R(x,y)").unwrap();
        let q0 = Cq::parse(&sig, "Q0(x,y) :- R(x,y)").unwrap();
        let verdict = decide(&sig, &[v], &q0, PsvLimits::default()).unwrap();
        assert!(!verdict.is_determined(), "{verdict:?}");
    }

    #[test]
    fn both_binary_projections_are_outside_the_precondition() {
        // V1(x) :- R(x,y) and V2(y) :- R(x,y) together put a special
        // edge on a cycle — the canonical non-weakly-acyclic pair the
        // classifier refuses to stamp A300 — and the exchange closure
        // duly diverges: each repair invents a null the other view then
        // demands to mirror. The caps must turn that into a clean `None`
        // (the dispatcher only calls `decide` after the WA check).
        let sig = sig_r();
        let v1 = Cq::parse(&sig, "V1(x) :- R(x,y)").unwrap();
        let v2 = Cq::parse(&sig, "V2(y) :- R(x,y)").unwrap();
        let q0 = Cq::parse(&sig, "Q0(x,y) :- R(x,y)").unwrap();
        let limits = PsvLimits {
            max_rounds: 50,
            max_nodes: 10_000,
        };
        assert_eq!(decide(&sig, &[v1, v2], &q0, limits), None);
    }

    #[test]
    fn selection_with_constant_determines_selected_query() {
        let sig = sig_r();
        let v = Cq::parse(&sig, "V(x) :- R(x,#c)").unwrap();
        let q0 = Cq::parse(&sig, "Q0(x) :- R(x,#c)").unwrap();
        let verdict = decide(&sig, &[v], &q0, PsvLimits::default()).unwrap();
        assert!(verdict.is_determined(), "{verdict:?}");
    }

    #[test]
    fn determined_boolean_query_over_projection() {
        // V(x) :- R(x,y) determines the boolean "is R nonempty".
        let sig = sig_r();
        let v = Cq::parse(&sig, "V(x) :- R(x,y)").unwrap();
        let q0 = Cq::parse(&sig, "Q0() :- R(x,y)").unwrap();
        let verdict = decide(&sig, &[v], &q0, PsvLimits::default()).unwrap();
        assert!(verdict.is_determined(), "{verdict:?}");
    }

    #[test]
    fn non_psv_views_are_refused() {
        let sig = sig_r();
        let v = Cq::parse(&sig, "V(x,z) :- R(x,y), R(y,z)").unwrap();
        let q0 = Cq::parse(&sig, "Q0(x,y) :- R(x,y)").unwrap();
        assert_eq!(decide(&sig, &[v], &q0, PsvLimits::default()), None);
        assert_eq!(decide(&sig, &[], &q0, PsvLimits::default()), None);
    }

    #[test]
    fn limits_stop_a_diverging_closure() {
        // Two ternary projections feed each other fresh nulls forever:
        // V1 exposes the first two columns, V2 the last two — each repair
        // invents a node the other then demands to mirror. The caps must
        // turn that into a clean `None`, not a hang.
        let sig = sig_r();
        let v1 = Cq::parse(&sig, "V1(x,y) :- S(x,y,z)").unwrap();
        let v2 = Cq::parse(&sig, "V2(y,z) :- S(x,y,z)").unwrap();
        let q0 = Cq::parse(&sig, "Q0(x,y,z) :- S(x,y,z)").unwrap();
        let limits = PsvLimits {
            max_rounds: 50,
            max_nodes: 10_000,
        };
        assert_eq!(decide(&sig, &[v1, v2], &q0, limits), None);
    }
}
