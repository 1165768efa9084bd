//! `Structure` against a naive model: a `HashSet` for membership plus a
//! `Vec` for insertion order, driven by random insert sequences with
//! duplicates, several arities and constant nodes.

use cqfd_core::{Node, PredId, Signature, Structure};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

/// Plain nodes allocated before the constant's node.
const PLAIN: u32 = 4;

fn sig() -> Arc<Signature> {
    let mut s = Signature::new();
    s.add_predicate("P", 0);
    s.add_predicate("U", 1);
    s.add_predicate("R", 2);
    s.add_predicate("T", 3);
    s.add_constant("c");
    Arc::new(s)
}

/// Every tuple of `arity` nodes over `0..domain`.
fn tuples(arity: usize, domain: u32) -> Vec<Vec<Node>> {
    let mut out = vec![Vec::new()];
    for _ in 0..arity {
        out = out
            .into_iter()
            .flat_map(|t| {
                (0..domain).map(move |n| {
                    let mut t = t.clone();
                    t.push(Node(n));
                    t
                })
            })
            .collect();
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn structure_agrees_with_a_naive_model(
        ops in prop::collection::vec((0u32..4, 0u32..=PLAIN, 0u32..=PLAIN, 0u32..=PLAIN), 0..160),
    ) {
        let sig = sig();
        let c = sig.constant("c").unwrap();
        let mut d = Structure::new(Arc::clone(&sig));
        for _ in 0..PLAIN {
            d.fresh_node();
        }
        // The constant's node is the last one, `Node(PLAIN)`.
        prop_assert_eq!(d.node_for_const(c), Node(PLAIN));
        let domain = PLAIN + 1;

        let mut set: HashSet<(PredId, Vec<Node>)> = HashSet::new();
        let mut order: Vec<(PredId, Vec<Node>)> = Vec::new();
        for (p, a, b, e) in ops {
            let pred = PredId(p);
            let args: Vec<Node> = [a, b, e][..sig.arity(pred)].iter().map(|&n| Node(n)).collect();
            let fresh = set.insert((pred, args.clone()));
            if fresh {
                order.push((pred, args.clone()));
            }
            prop_assert_eq!(d.add(pred, &args), fresh);
            prop_assert!(d.contains(pred, &args));
        }

        prop_assert_eq!(d.atom_count(), order.len());
        let listed: Vec<(PredId, Vec<Node>)> =
            d.atoms().map(|a| (a.pred, a.args.to_vec())).collect();
        prop_assert_eq!(&listed, &order);
        prop_assert_eq!(d.atoms().len(), order.len());
        for (id, (pred, args)) in order.iter().enumerate() {
            prop_assert_eq!(d.args_of(id as u32), args.as_slice());
            prop_assert_eq!(d.atom(id as u32).pred, *pred);
        }
        for p in sig.predicates() {
            let arity = sig.arity(p);
            for t in tuples(arity, domain) {
                prop_assert_eq!(d.contains(p, &t), set.contains(&(p, t.clone())));
            }
            let ids: Vec<u32> = order
                .iter()
                .enumerate()
                .filter(|(_, (q, _))| *q == p)
                .map(|(i, _)| i as u32)
                .collect();
            prop_assert_eq!(d.pred_index(p), ids.as_slice());
            prop_assert_eq!(d.pred_count(p), ids.len());
            for pos in 0..arity {
                let col: Vec<Node> = ids.iter().map(|&i| order[i as usize].1[pos]).collect();
                prop_assert_eq!(d.column(p, pos as u8), col.as_slice());
                for n in 0..domain {
                    let posting: Vec<u32> = ids
                        .iter()
                        .copied()
                        .filter(|&i| order[i as usize].1[pos] == Node(n))
                        .collect();
                    prop_assert_eq!(d.pred_pos_node_index(p, pos as u8, Node(n)), posting.as_slice());
                }
            }
        }
    }
}
