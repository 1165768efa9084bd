//! Cores of finite structures.
//!
//! The **core** of a structure is a minimal retract: a substructure `C`
//! with a homomorphism `D → C` but no homomorphism from `C` into a proper
//! substructure of itself. Cores are unique up to isomorphism and are the
//! canonical representatives of homomorphism equivalence — useful for
//! normalising chase results, counter-examples, and rewriting candidates.
//!
//! The computation here is the classical one: repeatedly look for a
//! *proper retraction* (an endomorphism fixing everything except at least
//! one node folded onto another) and restrict to its image. Exponential in
//! the worst case — intended for the small structures this workspace
//! manipulates.

use crate::hom::{for_each_homomorphism, VarMap};
use crate::structure::{Node, Structure};
use crate::term::{Term, Var};
use std::collections::{BTreeSet, HashMap};
use std::ops::ControlFlow;
use std::sync::Arc;

/// Computes the core of `d`, together with the retraction map from `d`'s
/// active nodes onto the core's nodes.
pub fn core_of(d: &Structure) -> (Structure, HashMap<Node, Node>) {
    let mut current = d.clone();
    // total retraction map accumulated across rounds
    let mut total: HashMap<Node, Node> = d.active_nodes().into_iter().map(|n| (n, n)).collect();
    while let Some(r) = proper_retraction(&current) {
        // Apply: quotient current through r (restrict to image).
        let (folded, map) = current.quotient(|n| *r.get(&n).unwrap_or(&n));
        for v in total.values_mut() {
            let via = *r.get(v).unwrap_or(v);
            *v = map[&via];
        }
        current = folded;
    }
    (current, total)
}

/// Is `d` its own core (no proper retraction)?
pub fn is_core(d: &Structure) -> bool {
    proper_retraction(d).is_none()
}

/// Searches for an endomorphism of `d` that is not injective on active
/// nodes (a proper fold). Constants must map to themselves.
fn proper_retraction(d: &Structure) -> Option<HashMap<Node, Node>> {
    let active: BTreeSet<Node> = d.active_nodes();
    if active.len() <= 1 {
        return None;
    }
    // Pattern: every atom of d with nodes as variables (constants pinned).
    let pattern: Vec<crate::atom::Atom<Term>> = d
        .atoms()
        .map(|a| crate::atom::Atom {
            pred: a.pred,
            args: a
                .args
                .iter()
                .map(|&n| match d.const_of_node(n) {
                    Some(c) => Term::Const(c),
                    None => Term::Var(Var(n.0)),
                })
                .collect(),
        })
        .collect();
    let hit = for_each_homomorphism(&pattern, d, &VarMap::new(), |m| {
        // Non-injective on the mapped variables?
        let mut seen: BTreeSet<Node> = BTreeSet::new();
        let mut folded = false;
        for (_, &img) in m.iter() {
            if !seen.insert(img) {
                folded = true;
                break;
            }
        }
        // Also count folding a variable onto a constant node.
        if !folded {
            for (v, &img) in m.iter() {
                if Node(v.0) != img && d.const_of_node(img).is_some() {
                    folded = true;
                    break;
                }
            }
        }
        if folded {
            ControlFlow::Break(m.clone())
        } else {
            ControlFlow::Continue(())
        }
    });
    match hit {
        ControlFlow::Break(m) => {
            let mut r: HashMap<Node, Node> = m.into_iter().map(|(v, n)| (Node(v.0), n)).collect();
            for &n in &active {
                if let Some(_c) = d.const_of_node(n) {
                    r.insert(n, n);
                }
            }
            Some(r)
        }
        ControlFlow::Continue(()) => None,
    }
}

/// Convenience: are two structures hom-equivalent (mutual homomorphisms)?
/// Their cores are then isomorphic.
pub fn hom_equivalent(a: &Structure, b: &Structure) -> bool {
    crate::hom::structure_homomorphism(a, b).is_some()
        && crate::hom::structure_homomorphism(b, a).is_some()
}

/// A copy of `d` restricted to its active domain with dense renumbering —
/// a light normalisation used before core computation in pipelines.
pub fn compact(d: &Structure) -> Structure {
    let mut out = Structure::new(Arc::clone(d.signature()));
    let mut map: HashMap<Node, Node> = HashMap::new();
    for n in d.active_nodes() {
        let img = match d.const_of_node(n) {
            Some(c) => out.node_for_const(c),
            None => out.fresh_node(),
        };
        map.insert(n, img);
    }
    out.add_mapped(d, |n| map[&n]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::Signature;

    fn sig() -> Arc<Signature> {
        let mut s = Signature::new();
        s.add_predicate("E", 2);
        s.add_constant("a");
        Arc::new(s)
    }

    fn cycle(sig: &Arc<Signature>, k: usize) -> Structure {
        let e = sig.predicate("E").unwrap();
        let mut d = Structure::new(Arc::clone(sig));
        let ns: Vec<Node> = (0..k).map(|_| d.fresh_node()).collect();
        for i in 0..k {
            d.add(e, &[ns[i], ns[(i + 1) % k]]);
        }
        d
    }

    #[test]
    fn core_of_cycle_is_itself() {
        let sig = sig();
        let c3 = cycle(&sig, 3);
        assert!(is_core(&c3));
        let (core, _) = core_of(&c3);
        assert_eq!(core.atom_count(), 3);
    }

    #[test]
    fn directed_cycles_are_cores() {
        // Unlike undirected even cycles, *directed* cycles have no proper
        // retract: no directed cycle maps into a directed path.
        let sig = sig();
        for k in [3usize, 4, 6] {
            assert!(is_core(&cycle(&sig, k)), "C{k}");
        }
    }

    #[test]
    fn parallel_paths_fold_to_one() {
        // Two parallel 2-paths from s to t: the middles fold together.
        let sig = sig();
        let e = sig.predicate("E").unwrap();
        let mut d = Structure::new(Arc::clone(&sig));
        let s = d.fresh_node();
        let t = d.fresh_node();
        let m1 = d.fresh_node();
        let m2 = d.fresh_node();
        d.add(e, &[s, m1]);
        d.add(e, &[m1, t]);
        d.add(e, &[s, m2]);
        d.add(e, &[m2, t]);
        assert!(!is_core(&d));
        let (core, map) = core_of(&d);
        assert_eq!(core.atom_count(), 2, "one 2-path remains");
        assert_eq!(map[&m1], map[&m2]);
    }

    #[test]
    fn pendant_path_folds_into_the_cycle() {
        // A 3-cycle with a path of length 2 hanging off it: the path folds
        // around the cycle; the core is the 3-cycle.
        let sig = sig();
        let e = sig.predicate("E").unwrap();
        let mut d = cycle(&sig, 3);
        let p1 = d.fresh_node();
        let p2 = d.fresh_node();
        d.add(e, &[p1, Node(0)]);
        d.add(e, &[p2, p1]);
        let (core, _) = core_of(&d);
        assert_eq!(core.atom_count(), 3);
        assert!(crate::iso::isomorphic(&core, &cycle(&sig, 3)));
    }

    #[test]
    fn constants_survive_coring() {
        // E(a, x), E(a, y): folds to E(a, x); the constant stays.
        let sig = sig();
        let e = sig.predicate("E").unwrap();
        let ca = sig.constant("a").unwrap();
        let mut d = Structure::new(Arc::clone(&sig));
        let na = d.node_for_const(ca);
        let x = d.fresh_node();
        let y = d.fresh_node();
        d.add(e, &[na, x]);
        d.add(e, &[na, y]);
        let (core, map) = core_of(&d);
        assert_eq!(core.atom_count(), 1);
        assert!(core.existing_const_node(ca).is_some());
        assert_eq!(map[&x], map[&y]);
    }

    #[test]
    fn hom_equivalent_structures_have_isomorphic_cores() {
        // A 3-cycle vs a 3-cycle with a pendant path: hom-equivalent, and
        // both cores are the bare 3-cycle.
        let sig = sig();
        let e = sig.predicate("E").unwrap();
        let c3 = cycle(&sig, 3);
        let mut dressed = cycle(&sig, 3);
        let p = dressed.fresh_node();
        dressed.add(e, &[p, Node(0)]);
        assert!(hom_equivalent(&dressed, &c3));
        let (kd, _) = core_of(&dressed);
        let (k3, _) = core_of(&c3);
        assert!(crate::iso::isomorphic(&kd, &k3));
    }

    #[test]
    fn compact_densifies() {
        let sig = sig();
        let e = sig.predicate("E").unwrap();
        let mut d = Structure::new(Arc::clone(&sig));
        let _gap1 = d.fresh_node();
        let x = d.fresh_node();
        let _gap2 = d.fresh_node();
        let y = d.fresh_node();
        d.add(e, &[x, y]);
        let c = compact(&d);
        assert_eq!(c.node_count(), 2);
        assert_eq!(c.atom_count(), 1);
    }
}
