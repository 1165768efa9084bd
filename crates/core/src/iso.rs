//! Structure isomorphism for small structures (test oracle).
//!
//! Used to state laws like Lemma 30 (`decompile(compile(D)) = D`) and to
//! compare generated constructions (grids, chase stages) against expected
//! shapes without depending on node numbering.

use crate::structure::{Node, Structure};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Are the two structures isomorphic?
///
/// Isomorphism here means: a bijection between *active* nodes mapping the
/// atom set of one exactly onto the atom set of the other and each constant
/// node to the same constant's node. Intended for small structures (test
/// oracles); the search is backtracking with degree-profile pruning.
pub fn isomorphic(a: &Structure, b: &Structure) -> bool {
    if a.atom_count() != b.atom_count() {
        return false;
    }
    let an: Vec<Node> = a.active_nodes().into_iter().collect();
    let bn: Vec<Node> = b.active_nodes().into_iter().collect();
    if an.len() != bn.len() {
        return false;
    }

    // Degree profile: for each (pred, position), how many atoms carry the
    // node there. Isomorphic nodes must have identical profiles.
    let profile = |s: &Structure, n: Node| -> BTreeMap<(u32, u8), usize> {
        let mut p = BTreeMap::new();
        for atom in s.atoms() {
            for (pos, &m) in atom.args.iter().enumerate() {
                if m == n {
                    *p.entry((atom.pred.0, pos as u8)).or_insert(0) += 1;
                }
            }
        }
        p
    };
    let a_prof: HashMap<Node, _> = an.iter().map(|&n| (n, profile(a, n))).collect();
    let b_prof: HashMap<Node, _> = bn.iter().map(|&n| (n, profile(b, n))).collect();

    // Multiset of profiles must agree.
    let mut a_sorted: Vec<_> = a_prof.values().cloned().collect();
    let mut b_sorted: Vec<_> = b_prof.values().cloned().collect();
    a_sorted.sort();
    b_sorted.sort();
    if a_sorted != b_sorted {
        return false;
    }

    // Constants must be present on both sides symmetrically.
    let mut forced: HashMap<Node, Node> = HashMap::new();
    for &n in &an {
        if let Some(c) = a.const_of_node(n) {
            match b.existing_const_node(c) {
                Some(m) => {
                    forced.insert(n, m);
                }
                None => return false,
            }
        }
    }

    let mut mapping = forced.clone();
    let mut used: HashSet<Node> = forced.values().copied().collect();
    backtrack(a, b, &an, &a_prof, &b_prof, 0, &mut mapping, &mut used)
}

#[allow(clippy::too_many_arguments)]
fn backtrack(
    a: &Structure,
    b: &Structure,
    an: &[Node],
    a_prof: &HashMap<Node, BTreeMap<(u32, u8), usize>>,
    b_prof: &HashMap<Node, BTreeMap<(u32, u8), usize>>,
    idx: usize,
    mapping: &mut HashMap<Node, Node>,
    used: &mut HashSet<Node>,
) -> bool {
    if idx == an.len() {
        // All nodes mapped; verify the atom sets coincide under the mapping.
        return a.atoms().all(|atom| {
            b.contains(
                atom.pred,
                &atom.args.iter().map(|n| mapping[n]).collect::<Vec<_>>(),
            )
        });
    }
    let n = an[idx];
    if mapping.contains_key(&n) {
        return backtrack(a, b, an, a_prof, b_prof, idx + 1, mapping, used);
    }
    let want = &a_prof[&n];
    let candidates: Vec<Node> = b_prof
        .iter()
        .filter(|(m, p)| !used.contains(m) && *p == want && b.const_of_node(**m).is_none())
        .map(|(&m, _)| m)
        .collect();
    for m in candidates {
        mapping.insert(n, m);
        used.insert(m);
        // Partial consistency: every fully-mapped atom of `a` touching n must
        // exist in b.
        let consistent = a.atoms().all(|atom| {
            if !atom.args.contains(&n) {
                return true;
            }
            let img: Option<Vec<Node>> =
                atom.args.iter().map(|x| mapping.get(x).copied()).collect();
            match img {
                Some(args) => b.contains(atom.pred, &args),
                None => true,
            }
        });
        if consistent && backtrack(a, b, an, a_prof, b_prof, idx + 1, mapping, used) {
            return true;
        }
        mapping.remove(&n);
        used.remove(&m);
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::Signature;
    use std::sync::Arc;

    fn sig() -> Arc<Signature> {
        let mut s = Signature::new();
        s.add_predicate("E", 2);
        s.add_constant("a");
        Arc::new(s)
    }

    #[test]
    fn renumbered_structures_are_isomorphic() {
        let sig = sig();
        let e = sig.predicate("E").unwrap();
        let mut d1 = Structure::new(Arc::clone(&sig));
        let x = d1.fresh_node();
        let y = d1.fresh_node();
        let z = d1.fresh_node();
        d1.add(e, &[x, y]);
        d1.add(e, &[y, z]);
        let mut d2 = Structure::new(Arc::clone(&sig));
        let p = d2.fresh_node();
        let q = d2.fresh_node();
        let r = d2.fresh_node();
        d2.add(e, &[q, r]); // path r->... reordered creation
        d2.add(e, &[p, q]);
        assert!(isomorphic(&d1, &d2));
    }

    #[test]
    fn different_shapes_are_not_isomorphic() {
        let sig = sig();
        let e = sig.predicate("E").unwrap();
        // path of length 2 vs fork
        let mut path = Structure::new(Arc::clone(&sig));
        let a = path.fresh_node();
        let b = path.fresh_node();
        let c = path.fresh_node();
        path.add(e, &[a, b]);
        path.add(e, &[b, c]);
        let mut fork = Structure::new(Arc::clone(&sig));
        let p = fork.fresh_node();
        let q = fork.fresh_node();
        let r = fork.fresh_node();
        fork.add(e, &[p, q]);
        fork.add(e, &[p, r]);
        assert!(!isomorphic(&path, &fork));
    }

    #[test]
    fn constants_must_correspond() {
        let sig = sig();
        let e = sig.predicate("E").unwrap();
        let ca = sig.constant("a").unwrap();
        // E(a, x) vs E(x, a): not isomorphic because the constant moves slot.
        let mut d1 = Structure::new(Arc::clone(&sig));
        let na = d1.node_for_const(ca);
        let x = d1.fresh_node();
        d1.add(e, &[na, x]);
        let mut d2 = Structure::new(Arc::clone(&sig));
        let ma = d2.node_for_const(ca);
        let y = d2.fresh_node();
        d2.add(e, &[y, ma]);
        assert!(!isomorphic(&d1, &d2));
        // But E(a,x) vs E(a,y) are isomorphic.
        let mut d3 = Structure::new(Arc::clone(&sig));
        let ka = d3.node_for_const(ca);
        let z = d3.fresh_node();
        d3.add(e, &[ka, z]);
        assert!(isomorphic(&d1, &d3));
    }

    #[test]
    fn cycle_lengths_distinguish() {
        let sig = sig();
        let e = sig.predicate("E").unwrap();
        let mk_cycle = |k: usize| {
            let mut d = Structure::new(Arc::clone(&sig));
            let ns: Vec<_> = (0..k).map(|_| d.fresh_node()).collect();
            for i in 0..k {
                d.add(e, &[ns[i], ns[(i + 1) % k]]);
            }
            d
        };
        let c6 = mk_cycle(6);
        let mut two_c3 = Structure::new(Arc::clone(&sig));
        for _ in 0..2 {
            let ns: Vec<_> = (0..3).map(|_| two_c3.fresh_node()).collect();
            for i in 0..3 {
                two_c3.add(e, &[ns[i], ns[(i + 1) % 3]]);
            }
        }
        assert!(!isomorphic(&c6, &two_c3));
        assert!(isomorphic(&c6, &mk_cycle(6)));
    }
}
