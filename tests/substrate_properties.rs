//! Property-based integration tests on the substrate invariants, using
//! random structures and query sets.

use cqfd::chase::{ChaseBudget, ChaseEngine};
use cqfd::core::{structure_homomorphism, Cq, Node, Signature, Structure};
use cqfd::greenred::{greenred_tgds, Color, GreenRed};
use proptest::prelude::*;
use std::sync::Arc;

fn sig_rs() -> Arc<Signature> {
    let mut s = Signature::new();
    s.add_predicate("R", 2);
    s.add_predicate("S", 2);
    Arc::new(s)
}

/// A random structure over {R, S} with `n` nodes and the given edges.
fn build(sig: &Arc<Signature>, n: u32, edges: &[(bool, u32, u32)]) -> Structure {
    let r = sig.predicate("R").unwrap();
    let s = sig.predicate("S").unwrap();
    let mut d = Structure::new(Arc::clone(sig));
    for _ in 0..n {
        d.fresh_node();
    }
    for &(is_r, x, y) in edges {
        d.add(if is_r { r } else { s }, &[Node(x % n), Node(y % n)]);
    }
    d
}

fn arb_edges(n: u32) -> impl Strategy<Value = Vec<(bool, u32, u32)>> {
    prop::collection::vec((any::<bool>(), 0..n, 0..n), 1..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Identity is a homomorphism; homomorphisms compose.
    #[test]
    fn homomorphisms_compose(edges in arb_edges(4), more in arb_edges(4)) {
        let sig = sig_rs();
        let d1 = build(&sig, 4, &edges);
        let mut d2 = d1.clone();
        for &(is_r, x, y) in &more {
            let p = if is_r { sig.predicate("R").unwrap() } else { sig.predicate("S").unwrap() };
            d2.add(p, &[Node(x % 4), Node(y % 4)]);
        }
        // d1 ⊆ d2, so the identity embeds d1 into d2.
        let h = structure_homomorphism(&d1, &d2);
        prop_assert!(h.is_some());
        // Collapse d2 onto a single node with all self-loops: a hom target
        // for everything over the same predicates.
        let mut point = Structure::new(Arc::clone(&sig));
        let p0 = point.fresh_node();
        for pred in sig.predicates() {
            point.add(pred, &[p0, p0]);
        }
        let g = structure_homomorphism(&d2, &point);
        prop_assert!(g.is_some());
        // Composition: d1 → point must exist too.
        prop_assert!(structure_homomorphism(&d1, &point).is_some());
    }

    /// The chase result always admits a homomorphism into any model of the
    /// TGDs extending the start (universality), tested with the green-red
    /// TGDs of a random view.
    #[test]
    fn chase_universality(edges in arb_edges(3)) {
        let sig = sig_rs();
        let gr = GreenRed::new(Arc::clone(&sig));
        let v = Cq::parse(&sig, "V(x) :- R(x,y)").unwrap();
        let tgds = greenred_tgds(&gr, &[v]);
        let engine = ChaseEngine::new(tgds);
        let d = build(&sig, 3, &edges);
        let green = gr.color_structure(Color::Green, &d);
        let run = engine.chase(&green, &ChaseBudget::stages(12));
        if run.reached_fixpoint() {
            // The "all-loops" colored point is a model.
            let mut point = Structure::new(Arc::clone(gr.colored()));
            let p0 = point.fresh_node();
            for pred in gr.colored().predicates() {
                point.add(pred, &[p0, p0]);
            }
            prop_assert!(engine.is_model(&point));
            prop_assert!(structure_homomorphism(&run.structure, &point).is_some());
        }
    }

    /// Observation 6: `dalt(chase(T_Q, D))` maps homomorphically into
    /// `dalt(D)` for green `D` — the chase's daltonisation adds nothing.
    #[test]
    fn observation6_random_instances(edges in arb_edges(3)) {
        let sig = sig_rs();
        let gr = GreenRed::new(Arc::clone(&sig));
        let v1 = Cq::parse(&sig, "V1(x,y) :- R(x,y)").unwrap();
        let v2 = Cq::parse(&sig, "V2(x) :- S(x,y)").unwrap();
        let tgds = greenred_tgds(&gr, &[v1, v2]);
        let engine = ChaseEngine::new(tgds);
        let d = build(&sig, 3, &edges);
        let green = gr.color_structure(Color::Green, &d);
        let run = engine.chase(&green, &ChaseBudget::stages(10));
        let dalt_chase = gr.dalt_structure(&run.structure);
        let dalt_start = gr.dalt_structure(&green);
        prop_assert!(
            structure_homomorphism(&dalt_chase, &dalt_start).is_some(),
            "Observation 6 violated"
        );
    }

    /// Chase monotonicity: the start is a substructure of every stage, and
    /// stages are substructures of the final result.
    #[test]
    fn chase_stages_are_monotone(edges in arb_edges(3)) {
        let sig = sig_rs();
        let gr = GreenRed::new(Arc::clone(&sig));
        let v = Cq::parse(&sig, "V(x,z) :- R(x,y), S(y,z)").unwrap();
        let engine = ChaseEngine::new(greenred_tgds(&gr, &[v]));
        let d = build(&sig, 3, &edges);
        let green = gr.color_structure(Color::Green, &d);
        let run = engine.chase(&green, &ChaseBudget::stages(6));
        let mut prev = run.stage_structure(0);
        prop_assert!(green.is_substructure_of(&prev));
        for i in 1..=run.stage_count() {
            let cur = run.stage_structure(i);
            prop_assert!(prev.is_substructure_of(&cur));
            prev = cur;
        }
        prop_assert!(prev.is_substructure_of(&run.structure));
    }

    /// Query evaluation is preserved under homomorphism-closed operations:
    /// painting then daltonising is the identity on answers.
    #[test]
    fn coloring_round_trip_preserves_answers(edges in arb_edges(4)) {
        let sig = sig_rs();
        let gr = GreenRed::new(Arc::clone(&sig));
        let q = Cq::parse(&sig, "Q(x,y) :- R(x,y)").unwrap();
        let d = build(&sig, 4, &edges);
        let before = q.eval(&d);
        let back = gr.dalt_structure(&gr.color_structure(Color::Red, &d));
        prop_assert_eq!(before, q.eval(&back));
    }
}
