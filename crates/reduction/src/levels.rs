//! The Appendix A.2 structure maps between Levels 1 and 2:
//! `deprecompile` (Definition 35) and the `precompile` structure map
//! (Definition 36), with Lemma 32's preservation laws and Lemma 34's
//! color/lowerness invariant as tests.

use crate::precompile::Precompiled;
use cqfd_chase::ChaseBudget;
use cqfd_greengraph::{GreenGraph, LabelSpace};
use cqfd_greenred::Color;
use cqfd_spider::{IdealSpider, Legs};
use cqfd_swarm::{L1System, Swarm, SwarmContext};
use std::collections::HashMap;
use std::sync::Arc;

/// Definition 35: `deprecompile(D)` — what remains of a swarm after
/// removing everything that is not a valid green-graph edge: the **full or
/// upper-1-lame green** edges (green body, no lower flip). Each surviving
/// edge `H(I^{i}, x, y)` becomes `H_{label(i)}(x, y)`.
///
/// Swarm vertices are carried to green-graph vertices one-for-one; the
/// caller supplies which swarm vertices play `a` and `b`.
pub fn deprecompile(
    pre: &Precompiled,
    space: Arc<LabelSpace>,
    swarm: &Swarm,
    a: cqfd_core::Node,
    b: cqfd_core::Node,
) -> GreenGraph {
    let mut g = GreenGraph::empty(space);
    let mut map: HashMap<cqfd_core::Node, cqfd_core::Node> =
        [(a, g.a()), (b, g.b())].into_iter().collect();
    let mut translate = |g: &mut GreenGraph, n: cqfd_core::Node| -> cqfd_core::Node {
        if let Some(&m) = map.get(&n) {
            m
        } else {
            let m = g.fresh_node();
            map.insert(n, m);
            m
        }
    };
    for e in swarm.edges() {
        if e.spider.base != Color::Green || e.spider.flips.lower.is_some() {
            continue;
        }
        let Some(label) = pre.numbering.label_of(e.spider.flips.upper) else {
            continue; // a rule-numbering leg: not a green-graph edge
        };
        let from = translate(&mut g, e.tail);
        let to = translate(&mut g, e.antenna);
        g.add_edge(label, from, to);
    }
    g
}

/// Definition 36: the `precompile` structure map — realises a green graph
/// as a swarm (`H_ℓ(x,y) ↦ H(I^{code(ℓ)}, x, y)`) and adds **one chase
/// stage** of `Precompile(T)`: exactly the red witness edges the rules
/// demand for arguments from `D`. No green edges are added.
pub fn precompile_map(
    pre: &Precompiled,
    ctx: Arc<SwarmContext>,
    g: &GreenGraph,
) -> (Swarm, cqfd_core::Node, cqfd_core::Node) {
    let mut sw = Swarm::empty(Arc::clone(&ctx));
    let mut map: HashMap<cqfd_core::Node, cqfd_core::Node> = HashMap::new();
    for n in 0..g.node_count() {
        let n = cqfd_core::Node(n);
        map.insert(n, sw.fresh_node());
    }
    for (l, x, y) in g.edges() {
        let spider = IdealSpider::green(Legs::new(pre.numbering.leg(l), None));
        sw.add_edge(spider, map[&x], map[&y]);
    }
    let sys = L1System::new(pre.rules.clone());
    let engine = cqfd_chase::ChaseEngine::new(sys.tgds(&ctx));
    let run = engine.chase(sw.structure(), &ChaseBudget::stages(1));
    let out = Swarm::from_structure(ctx, run.structure);
    (out, map[&g.a()], map[&g.b()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precompile::precompile;
    use cqfd_greengraph::{L2Rule, L2System, Label};

    fn tiny_negative() -> L2System {
        L2System::new(vec![L2Rule::antenna(
            Label::Empty,
            Label::Empty,
            Label::Alpha,
            Label::Eta1,
        )])
    }

    /// Lemma 32 round trip on a minimal green-graph model: `precompile`
    /// yields a swarm model of `Precompile(T)` with no full red spider,
    /// and `deprecompile` recovers a model of `T` (in fact, `D` itself).
    #[test]
    fn lemma32_round_trip() {
        let t = tiny_negative();
        // D = chase(T, DI): a finite minimal model of T without a 1-2
        // pattern (no grid labels at all here).
        let space = t.space_with([]);
        let d = GreenGraph::di(Arc::clone(&space));
        let (d, run) = t.chase(&d, &ChaseBudget::stages(16));
        assert!(run.reached_fixpoint());
        assert!(t.is_model(&d));

        let pre = precompile(&t);
        let ctx = Arc::new(SwarmContext::with_s(pre.s));
        let sys = L1System::new(pre.rules.clone());

        // Lemma 32(ii): the mapped swarm models Precompile(T)…
        let (sw, a, b) = precompile_map(&pre, Arc::clone(&ctx), &d);
        assert!(sys.is_model(&sw), "precompile(D) must model Precompile(T)");
        // …and contains no full red spider.
        assert!(!sw.contains_red_spider());

        // Lemma 32(i): deprecompiling it returns a model of T…
        let back = deprecompile(&pre, Arc::clone(&space), &sw, a, b);
        assert!(t.is_model(&back), "deprecompile must model T");
        assert!(!back.has_12_pattern());
        // …which is exactly D (same edge multiset up to renaming).
        assert_eq!(back.edge_count(), d.edge_count());
        let mut labels_d: Vec<Label> = d.edges().map(|(l, _, _)| l).collect();
        let mut labels_b: Vec<Label> = back.edges().map(|(l, _, _)| l).collect();
        labels_d.sort();
        labels_b.sort();
        assert_eq!(labels_d, labels_b);
    }

    /// The `precompile` map adds only red edges (Definition 36: "no green
    /// edges are added").
    #[test]
    fn precompile_map_adds_only_red() {
        let t = tiny_negative();
        let space = t.space_with([]);
        let d = GreenGraph::di(Arc::clone(&space));
        let (d, _) = t.chase(&d, &ChaseBudget::stages(16));
        let pre = precompile(&t);
        let ctx = Arc::new(SwarmContext::with_s(pre.s));
        let (sw, _, _) = precompile_map(&pre, Arc::clone(&ctx), &d);
        let green = sw
            .edges()
            .iter()
            .filter(|e| e.spider.base == Color::Green)
            .count();
        let red = sw.edges().len() - green;
        assert_eq!(green, d.edge_count(), "green part = D verbatim");
        assert!(red > 0, "the demanded witnesses are red");
    }

    /// Lemma 34's inductive content: under **lower** rules only, every
    /// edge the chase derives from the green seed is red iff its spider is
    /// lower (has a nonempty `J`).
    #[test]
    fn lemma34_red_iff_lower() {
        let t = tiny_negative();
        let pre = precompile(&t);
        let lower_rules: Vec<_> = pre.rules.iter().copied().filter(|r| r.is_lower()).collect();
        assert!(
            lower_rules.len() < pre.rules.len(),
            "the third start rule is not lower and must be dropped"
        );
        let ctx = Arc::new(SwarmContext::with_s(pre.s));
        let sys = L1System::new(lower_rules);
        let (sw, _, _) = Swarm::green_seed(Arc::clone(&ctx));
        let engine = cqfd_chase::ChaseEngine::new(sys.tgds(&ctx));
        let run = engine.chase(sw.structure(), &ChaseBudget::stages(6));
        let out = Swarm::from_structure(Arc::clone(&ctx), run.structure);
        for e in out.edges() {
            let lower = e.spider.flips.lower.is_some();
            let red = e.spider.base == Color::Red;
            assert_eq!(red, lower, "Lemma 34 violated at {:?}", e.spider);
        }
    }

    /// Numbering inverse: `label_of ∘ leg = id` on the labels in play.
    /// (Upper-leg label codes and lower-leg rule indices live on separate
    /// axes of the spider, so they may share numbers; only codes beyond
    /// the label range are unassigned.)
    #[test]
    fn numbering_inverse() {
        let t = tiny_negative();
        let pre = precompile(&t);
        for l in t.labels() {
            assert_eq!(pre.numbering.label_of(pre.numbering.leg(l)), Some(l));
        }
        assert_eq!(
            pre.numbering.label_of(Some(pre.numbering.max_code() + 1)),
            None
        );
    }
}
