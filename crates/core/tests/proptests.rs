//! Property-based tests for the relational substrate.

use cqfd_core::{
    all_homomorphisms, isomorphic, Atom, Cq, Node, Signature, Structure, Term, Var, VarMap,
};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

fn sig2() -> Arc<Signature> {
    let mut s = Signature::new();
    s.add_predicate("R", 2);
    s.add_predicate("S", 1);
    Arc::new(s)
}

fn build(sig: &Arc<Signature>, n: u32, r_edges: &[(u32, u32)], s_nodes: &[u32]) -> Structure {
    let r = sig.predicate("R").unwrap();
    let s = sig.predicate("S").unwrap();
    let mut d = Structure::new(Arc::clone(sig));
    for _ in 0..n {
        d.fresh_node();
    }
    for &(x, y) in r_edges {
        d.add(r, &[Node(x % n), Node(y % n)]);
    }
    for &x in s_nodes {
        d.add(s, &[Node(x % n)]);
    }
    d
}

/// Brute-force homomorphism count for a 2-variable pattern R(x, y).
fn brute_force_rxy(d: &Structure) -> usize {
    let r = d.signature().predicate("R").unwrap();
    let mut count = 0;
    for x in d.nodes() {
        for y in d.nodes() {
            if d.contains(r, &[x, y]) {
                count += 1;
            }
        }
    }
    count
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The indexed search agrees with brute force on single-atom patterns.
    #[test]
    fn hom_search_matches_brute_force(
        edges in prop::collection::vec((0u32..5, 0u32..5), 0..15),
    ) {
        let sig = sig2();
        let d = build(&sig, 5, &edges, &[]);
        let r = sig.predicate("R").unwrap();
        let pattern = vec![Atom::new(r, vec![Term::Var(Var(0)), Term::Var(Var(1))])];
        let found = all_homomorphisms(&pattern, &d, &VarMap::new()).len();
        prop_assert_eq!(found, brute_force_rxy(&d));
    }

    /// Hom count for the 2-path pattern equals the nested-loop count.
    #[test]
    fn two_path_count(
        edges in prop::collection::vec((0u32..4, 0u32..4), 0..12),
    ) {
        let sig = sig2();
        let d = build(&sig, 4, &edges, &[]);
        let r = sig.predicate("R").unwrap();
        let pattern = vec![
            Atom::new(r, vec![Term::Var(Var(0)), Term::Var(Var(1))]),
            Atom::new(r, vec![Term::Var(Var(1)), Term::Var(Var(2))]),
        ];
        let found = all_homomorphisms(&pattern, &d, &VarMap::new()).len();
        let mut brute = 0;
        for x in d.nodes() {
            for y in d.nodes() {
                for z in d.nodes() {
                    if d.contains(r, &[x, y]) && d.contains(r, &[y, z]) {
                        brute += 1;
                    }
                }
            }
        }
        prop_assert_eq!(found, brute);
    }

    /// Isomorphism is invariant under relabelling nodes.
    #[test]
    fn iso_invariant_under_permutation(
        edges in prop::collection::vec((0u32..4, 0u32..4), 1..10),
        perm_seed in 0u64..24,
    ) {
        let sig = sig2();
        let d1 = build(&sig, 4, &edges, &[]);
        // A fixed family of permutations of 4 elements.
        let perms: [[u32; 4]; 4] = [
            [0, 1, 2, 3],
            [1, 0, 3, 2],
            [3, 2, 1, 0],
            [2, 3, 0, 1],
        ];
        let p = perms[(perm_seed % 4) as usize];
        let permuted: Vec<(u32, u32)> =
            edges.iter().map(|&(x, y)| (p[(x % 4) as usize], p[(y % 4) as usize])).collect();
        let d2 = build(&sig, 4, &permuted, &[]);
        prop_assert!(isomorphic(&d1, &d2));
    }

    /// Quotienting is sound: there is a homomorphism onto the quotient,
    /// and the quotient never has more atoms.
    #[test]
    fn quotient_is_hom_image(
        edges in prop::collection::vec((0u32..5, 0u32..5), 1..12),
        fold in 0u32..5,
    ) {
        let sig = sig2();
        let d = build(&sig, 5, &edges, &[]);
        let target = Node(fold % 5);
        let (q, map) = d.quotient(|n| if n.0 % 2 == 0 { target } else { n });
        prop_assert!(q.atom_count() <= d.atom_count());
        // The map really is a homomorphism.
        for a in d.atoms() {
            let img: Vec<Node> = a.args.iter().map(|n| map[n]).collect();
            prop_assert!(q.contains(a.pred, &img));
        }
    }

    /// Parsing a displayed query yields an equivalent query.
    #[test]
    fn cq_display_parse_round_trip(
        n_atoms in 1usize..4,
        arcs in prop::collection::vec((0u32..3, 0u32..3), 3),
    ) {
        let sig = sig2();
        let r = sig.predicate("R").unwrap();
        let mut body = Vec::new();
        for i in 0..n_atoms {
            let (x, y) = arcs[i % arcs.len()];
            body.push(Atom::new(r, vec![Term::Var(Var(x)), Term::Var(Var(y))]));
        }
        let head = body[0].vars().take(1).collect::<Vec<_>>();
        let q = Cq::new_unchecked("Q", head, body, Vec::new());
        let shown = format!("{}", q.display_with(&sig));
        let parsed = Cq::parse(&sig, &shown).unwrap();
        prop_assert!(parsed.equivalent_to(&q, &sig));
    }

    /// Containment is reflexive and transitive on a small pool of queries.
    #[test]
    fn containment_preorder(pick in 0usize..4, pick2 in 0usize..4, pick3 in 0usize..4) {
        let sig = sig2();
        let pool: Vec<Cq> = vec![
            Cq::parse(&sig, "A(x,y) :- R(x,y)").unwrap(),
            Cq::parse(&sig, "B(x,y) :- R(x,y), R(x,x)").unwrap(),
            Cq::parse(&sig, "C(x,y) :- R(x,y), R(y,x)").unwrap(),
            Cq::parse(&sig, "D(x,y) :- R(x,y), S(x)").unwrap(),
        ];
        let (a, b, c) = (&pool[pick], &pool[pick2], &pool[pick3]);
        prop_assert!(a.contained_in(a, &sig), "reflexivity");
        if a.contained_in(b, &sig) && b.contained_in(c, &sig) {
            prop_assert!(a.contained_in(c, &sig), "transitivity");
        }
    }
}

/// Deterministic helper check outside proptest: empty structures.
#[test]
fn empty_structure_edge_cases() {
    let sig = sig2();
    let d = Structure::new(Arc::clone(&sig));
    assert_eq!(d.atom_count(), 0);
    assert!(d.active_nodes().is_empty());
    let q = Cq::parse(&sig, "Q() :- R(x,y)").unwrap();
    assert!(!q.holds_boolean(&d));
    let map: HashMap<Node, Node> = HashMap::new();
    let _ = map;
}
