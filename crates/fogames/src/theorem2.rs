//! The §IX constructions: `Q∞`, the Level-0 chase from the full green
//! spider, the late fragments, and Attempts 1 and 2.

use crate::ef::ef_equivalent;
use crate::views::view_structure;
use cqfd_chase::{ChaseBudget, ChaseEngine, ChaseRun};
use cqfd_core::{Cq, Node, Structure};
use cqfd_greenred::{tq::greenred_tgds, Color};
use cqfd_reduction::reduce_l2;
use cqfd_separating::tinf::t_infinity;
use cqfd_spider::{IdealSpider, SpiderContext};
use std::collections::HashMap;
use std::sync::Arc;

/// `Q∞ = Compile(Precompile(T∞))` over the spider signature. With
/// `include_start = false` the three Precompile start queries are dropped
/// (the paper's footnote 24: "we do not need to think about them now") —
/// they are irrelevant to the path structure the §IX argument analyses,
/// and keeping them adds color-symmetric junk lineages to the chase.
pub fn q_infinity(include_start: bool) -> (Arc<SpiderContext>, Vec<Cq>) {
    let inst = reduce_l2(&t_infinity());
    let queries = if include_start {
        inst.queries
    } else {
        inst.queries[3..].to_vec()
    };
    (inst.spider_ctx, queries)
}

/// The §IX world: the chase `chase(T_Q∞, I)` (Level 0) with its stage
/// history, plus the constants `a` (tail) and `b` (antenna) of the initial
/// full green spider.
#[derive(Debug)]
pub struct Theorem2World {
    /// The Level-0 context.
    pub ctx: Arc<SpiderContext>,
    /// The queries `Q∞`.
    pub queries: Vec<Cq>,
    /// The chase run from `I`.
    pub run: ChaseRun,
    /// The initial spider's tail — the constant `a` of footnote 25.
    pub a: Node,
    /// The initial spider's antenna — the constant `b`.
    pub b: Node,
}

/// Builds the world by chasing `T_Q∞` from the full green spider for
/// `stages` stages.
pub fn chase_world(stages: usize, include_start: bool) -> Theorem2World {
    let (ctx, queries) = q_infinity(include_start);
    let tgds = greenred_tgds(ctx.greenred(), &queries);
    let engine = ChaseEngine::new(tgds);
    let mut d = Structure::new(Arc::clone(ctx.colored()));
    let a = d.fresh_node();
    let b = d.fresh_node();
    ctx.build_spider(&mut d, IdealSpider::full_green(), a, b);
    let run = engine.chase(
        &d,
        &ChaseBudget {
            max_stages: stages,
            max_atoms: 1 << 22,
            max_nodes: 1 << 22,
            ..ChaseBudget::default()
        },
    );
    Theorem2World {
        ctx,
        queries,
        run,
        a,
        b,
    }
}

impl Theorem2World {
    /// `dalt(chase_i ↾ C)`: the daltonised one-color part of stage `i`.
    pub fn stage_dalt(&self, i: usize, color: Color) -> Structure {
        let st = self.run.stage_structure(i);
        let gr = self.ctx.greenred();
        let part = match color {
            Color::Green => gr.green_part(&st),
            Color::Red => gr.red_part(&st),
        };
        gr.dalt_structure(&part)
    }

    /// `dalt(chaseL_{2i} ↾ C)`: the **late fragment** — atoms added
    /// strictly after stage `i` up to stage `2i` — daltonised, one color.
    pub fn late_dalt(&self, i: usize, color: Color) -> Structure {
        assert!(2 * i <= self.run.stage_count());
        let lo = self.run.stage_structure(i).atom_count();
        let full = self.run.stage_structure(2 * i);
        let gr = self.ctx.greenred();
        let mut fragment = Structure::new(Arc::clone(self.ctx.colored()));
        // Same node ids as the chase (append-only), so a and b survive.
        for _ in 0..full.node_count() {
            fragment.fresh_node();
        }
        for c in self.ctx.colored().constants() {
            if let Some(n) = full.existing_const_node(c) {
                fragment.pin_constant(c, n);
            }
        }
        for atom in full.atoms().skip(lo) {
            fragment.add(atom.pred, atom.args);
        }
        let part = match color {
            Color::Green => gr.green_part(&fragment),
            Color::Red => gr.red_part(&fragment),
        };
        gr.dalt_structure(&part)
    }
}

/// Copies `src` into `dst`, identifying the listed node pairs (`src` node →
/// `dst` node) and sharing constant nodes; everything else gets fresh
/// nodes. The §IX disjoint union "except a and b" (footnote 25).
pub fn absorb_identifying(
    dst: &mut Structure,
    src: &Structure,
    ident: &[(Node, Node)],
) -> HashMap<Node, Node> {
    let mut map: HashMap<Node, Node> = ident.iter().copied().collect();
    for n in src.nodes() {
        if map.contains_key(&n) {
            continue;
        }
        let img = match src.const_of_node(n) {
            Some(c) => dst.node_for_const(c),
            None => dst.fresh_node(),
        };
        map.insert(n, img);
    }
    dst.add_mapped(src, |n| map[&n]);
    map
}

/// Attempt 1 (§IX.A): the views of `dalt(chaseᵢ ↾ G)` and
/// `dalt(chaseᵢ ↾ R)`. Returns the two view structures and the images of
/// `(a, b)` in each. These are *always* FO-distinguishable — the one-atom
/// difference sits next to the constants.
pub fn attempt1(world: &Theorem2World, i: usize) -> (Structure, Vec<Node>, Structure, Vec<Node>) {
    let dy = world.stage_dalt(i, Color::Green);
    let dn = world.stage_dalt(i, Color::Red);
    let (vy, my) = view_structure(&world.queries, &dy, &[world.a, world.b]);
    let (vn, mn) = view_structure(&world.queries, &dn, &[world.a, world.b]);
    (
        vy,
        vec![my[&world.a], my[&world.b]],
        vn,
        vec![mn[&world.a], mn[&world.b]],
    )
}

/// Attempt 2 (§IX.B): `Dy` = `dalt(chaseᵢ ↾ G)` ⊎ `i` copies of each late
/// fragment; `Dn` = the same with the base component's color flipped. All
/// components share `a`, `b` (and the constants of `Σ`).
pub fn attempt2(world: &Theorem2World, i: usize) -> (Structure, Vec<Node>, Structure, Vec<Node>) {
    let build = |base_color: Color| -> (Structure, Vec<Node>) {
        let mut d = world.stage_dalt(i, base_color);
        let ab = [(world.a, world.a), (world.b, world.b)];
        for color in [Color::Green, Color::Red] {
            let fragment = world.late_dalt(i, color);
            for _ in 0..i {
                absorb_identifying(&mut d, &fragment, &ab);
            }
        }
        let (v, m) = view_structure(&world.queries, &d, &[world.a, world.b]);
        (v, vec![m[&world.a], m[&world.b]])
    };
    let (vy, py) = build(Color::Green);
    let (vn, pn) = build(Color::Red);
    (vy, py, vn, pn)
}

/// Convenience: are the attempt-2 views rank-`l` equivalent at parameter
/// `i`? (The Theorem 2 experiment E-FO2.)
pub fn attempt2_equivalent(world: &Theorem2World, i: usize, l: usize) -> bool {
    let (vy, py, vn, pn) = attempt2(world, i);
    ef_equivalent(&vy, &py, &vn, &pn, l)
}

/// The §IX.A distinguisher, evaluated on a daltonised structure: the pair
/// of *endpoint-projection equalities*
///
/// * `π(IIA) = π(IIB)` — the views through the two rule-II queries,
///   projected to their two shared free endpoints, coincide;
/// * `π(IIIA) = π(IIIB)` — the same for the rule-III queries.
///
/// Ruby (the red side) satisfies **both** at every chase stage; Grace (the
/// green side) never satisfies both simultaneously — so the conjunction is
/// an FO sentence of fixed quantifier rank (independent of the stage)
/// separating every Attempt-1 pair. This reproduces the key §IX.A claim.
pub fn projection_equalities(world: &Theorem2World, d: &Structure) -> (bool, bool) {
    use std::collections::BTreeSet;
    let proj2 = |q: &Cq| -> BTreeSet<(Node, Node)> {
        q.eval(d).into_iter().map(|t| (t[0], t[1])).collect()
    };
    // Query order (with the start queries dropped): 0,1 = rule I;
    // 2,3 = (IIA),(IIB); 4,5 = (IIIA),(IIIB).
    let ii = proj2(&world.queries[2]) == proj2(&world.queries[3]);
    let iii = proj2(&world.queries[4]) == proj2(&world.queries[5]);
    (ii, iii)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q_infinity_has_six_path_queries() {
        let (_, q6) = q_infinity(false);
        assert_eq!(q6.len(), 6);
        let (_, q9) = q_infinity(true);
        assert_eq!(q9.len(), 9);
    }

    #[test]
    fn chase_world_grows_a_two_colored_path() {
        let w = chase_world(8, false);
        assert_eq!(w.run.stage_count(), 8);
        // Both colors are populated after a few stages.
        let g = w.stage_dalt(6, Color::Green);
        let r = w.stage_dalt(6, Color::Red);
        assert!(g.atom_count() > 0);
        assert!(r.atom_count() > 0);
        // Stage structures grow monotonically.
        assert!(w.stage_dalt(4, Color::Green).atom_count() <= g.atom_count());
    }

    /// E-FO1 (§IX.A): Ruby sees both projection equalities at *every*
    /// stage; Grace never sees both — the fixed-rank FO sentence
    /// "II-equal ∧ III-equal" separates every Attempt-1 pair, whatever way
    /// the infinite chase is prematurely terminated.
    #[test]
    fn attempt1_projection_sentence_distinguishes() {
        let w = chase_world(10, false);
        for i in 4..=10 {
            let dy = w.stage_dalt(i, Color::Green);
            let dn = w.stage_dalt(i, Color::Red);
            let (rn_ii, rn_iii) = projection_equalities(&w, &dn);
            assert!(rn_ii && rn_iii, "Ruby sees both equalities (i={i})");
            let (gy_ii, gy_iii) = projection_equalities(&w, &dy);
            assert!(
                !(gy_ii && gy_iii),
                "Grace never sees both equalities (i={i})"
            );
        }
    }

    /// The flip side of §IX.A, and the reason the sentence has to be that
    /// clever: the plain low-rank EF game does *not* separate the
    /// Attempt-1 views (the one-atom differences hide far from the
    /// constants).
    #[test]
    fn attempt1_is_still_low_rank_equivalent() {
        let w = chase_world(9, false);
        let (vy, py, vn, pn) = attempt1(&w, 9);
        assert!(ef_equivalent(&vy, &py, &vn, &pn, 2));
    }

    /// E-FO2 (§IX.B): Attempt 2 with `i`-fold padding is rank-1 and rank-2
    /// equivalent — the Theorem 2 phenomenon.
    #[test]
    fn attempt2_is_low_rank_equivalent() {
        let w = chase_world(8, false);
        assert!(
            attempt2_equivalent(&w, 4, 1),
            "rank 1 must not distinguish the padded views"
        );
        assert!(
            attempt2_equivalent(&w, 4, 2),
            "rank 2 must not distinguish the padded views (i = 4)"
        );
    }

    /// …and the §IX.A distinguisher is *disarmed* by the padding: on the
    /// Attempt-2 structures the projection sentence takes the same truth
    /// value on the `Dy` and `Dn` sides.
    #[test]
    fn attempt2_disarms_the_projection_sentence() {
        let w = chase_world(8, false);
        let i = 4;
        let build = |base: Color| -> Structure {
            let mut d = w.stage_dalt(i, base);
            let ab = [(w.a, w.a), (w.b, w.b)];
            for color in [Color::Green, Color::Red] {
                let fragment = w.late_dalt(i, color);
                for _ in 0..i {
                    absorb_identifying(&mut d, &fragment, &ab);
                }
            }
            d
        };
        let dy = build(Color::Green);
        let dn = build(Color::Red);
        assert_eq!(
            projection_equalities(&w, &dy),
            projection_equalities(&w, &dn),
            "the padded sides agree on the §IX.A sentence"
        );
    }
}
