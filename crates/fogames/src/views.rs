//! View images `Q(D)` as relational structures — "what the girls see".

use cqfd_core::{Cq, Node, Signature, Structure};
use std::collections::HashMap;
use std::sync::Arc;

/// Evaluates every query of `queries` on `d` and assembles the results as
/// a structure over the **view signature** (one predicate per query, arity
/// = number of free variables), restricted to the active domain.
///
/// `keep` lists distinguished nodes of `d` (the constants `a`, `b` of
/// §IX, footnote 25) that must survive into the view structure even if no
/// answer tuple mentions them; the returned map sends the kept nodes (and
/// every node occurring in an answer) to their images.
pub fn view_structure(
    queries: &[Cq],
    d: &Structure,
    keep: &[Node],
) -> (Structure, HashMap<Node, Node>) {
    let mut sig = Signature::new();
    let preds: Vec<_> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| sig.add_predicate(&format!("V{i}[{}]", q.name), q.arity()))
        .collect();
    let mut out = Structure::new(Arc::new(sig));
    let mut map: HashMap<Node, Node> = HashMap::new();
    for &k in keep {
        let img = out.fresh_node();
        map.insert(k, img);
    }
    for (q, &p) in queries.iter().zip(&preds) {
        for tuple in q.eval(d) {
            let args: Vec<Node> = tuple
                .iter()
                .map(|n| *map.entry(*n).or_insert_with(|| out.fresh_node()))
                .collect();
            out.add(p, &args);
        }
    }
    (out, map)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn views_project_answers() {
        let mut sig = Signature::new();
        let r = sig.add_predicate("R", 2);
        let sig = Arc::new(sig);
        let mut d = Structure::new(Arc::clone(&sig));
        let a = d.fresh_node();
        let b = d.fresh_node();
        let c = d.fresh_node();
        d.add(r, &[a, b]);
        d.add(r, &[b, c]);
        let q1 = Cq::parse(&sig, "V1(x) :- R(x,y)").unwrap();
        let q2 = Cq::parse(&sig, "V2(x,z) :- R(x,y), R(y,z)").unwrap();
        let (v, map) = view_structure(&[q1, q2], &d, &[a]);
        // V1 = {a, b}; V2 = {(a, c)}.
        assert_eq!(v.atom_count(), 3);
        let p1 = v.signature().predicate("V0[V1]").unwrap();
        let p2 = v.signature().predicate("V1[V2]").unwrap();
        assert_eq!(v.pred_count(p1), 2);
        assert_eq!(v.pred_count(p2), 1);
        // Node identity is preserved through the map: the V2 tuple links
        // the images of a and c.
        let t2: Vec<_> = v.atoms_with_pred(p2).collect();
        assert_eq!(t2[0].args[0], map[&a]);
        assert_eq!(t2[0].args[1], map[&c]);
    }

    #[test]
    fn kept_nodes_survive_without_answers() {
        let mut sig = Signature::new();
        let r = sig.add_predicate("R", 2);
        let sig = Arc::new(sig);
        let mut d = Structure::new(Arc::clone(&sig));
        let a = d.fresh_node();
        let _ = r;
        let (v, map) = view_structure(&[], &d, &[a]);
        assert!(map.contains_key(&a));
        assert_eq!(v.atom_count(), 0);
        assert_eq!(v.node_count(), 1);
    }

    #[test]
    fn inactive_nodes_are_dropped() {
        let mut sig = Signature::new();
        let r = sig.add_predicate("R", 2);
        let sig = Arc::new(sig);
        let mut d = Structure::new(Arc::clone(&sig));
        let a = d.fresh_node();
        let b = d.fresh_node();
        let _lonely = d.fresh_node();
        d.add(r, &[a, b]);
        let q = Cq::parse(&sig, "V(x,y) :- R(x,y)").unwrap();
        let (v, map) = view_structure(&[q], &d, &[]);
        assert_eq!(v.node_count(), 2, "only answer nodes materialise");
        assert_eq!(map.len(), 2);
    }
}
