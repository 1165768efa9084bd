//! `compile` / `decompile` between swarms and Level-0 structures
//! (Definitions 28 and 29, Lemma 30).

use crate::anatomy::{IdealSpider, SpiderContext};
use cqfd_core::{Node, Structure};
use std::collections::HashMap;
use std::sync::Arc;

/// One swarm atom `H(S, tail, antenna)`, in spider-level vocabulary.
/// (The `cqfd-swarm` crate owns the relational representation; this
/// lightweight form keeps the dependency direction spider ← swarm.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SwarmEdge {
    /// The ideal spider labelling the edge.
    pub spider: IdealSpider,
    /// The tail vertex.
    pub tail: Node,
    /// The antenna vertex.
    pub antenna: Node,
}

/// Definition 29: realises a swarm as a Level-0 structure. Each edge
/// becomes a real spider with a fresh head; knees are **glued** across
/// spiders by their (calf predicate, color) class — the `∼`-quotient — so
/// the structure has at most `4s` knees. Returns the structure and the
/// swarm-node → structure-node map.
pub fn compile_swarm(
    ctx: &SpiderContext,
    node_count: u32,
    edges: &[SwarmEdge],
) -> (Structure, HashMap<Node, Node>) {
    let gr = ctx.greenred();
    let mut d = Structure::new(Arc::clone(ctx.colored()));
    let mut node_map: HashMap<Node, Node> = HashMap::new();
    for n in 0..node_count {
        node_map.insert(Node(n), d.fresh_node());
    }
    let c0 = d.node_for_const(ctx.c0());
    // (leg, leg color) → the shared knee of that ∼-class.
    let mut knees: HashMap<(bool, u16, cqfd_greenred::Color), Node> = HashMap::new();
    for e in edges {
        let head = d.fresh_node();
        d.add(
            gr.colorize(e.spider.base, ctx.head_pred()),
            &[head, node_map[&e.tail], node_map[&e.antenna]],
        );
        for leg in ctx.legs().collect::<Vec<_>>() {
            let color = ctx.leg_color(e.spider, leg);
            let knee = *knees
                .entry((leg.upper, leg.idx, color))
                .or_insert_with(|| d.fresh_node());
            d.add(gr.colorize(e.spider.base, ctx.thigh(leg)), &[head, knee]);
            d.add(gr.colorize(color, ctx.calf(leg)), &[knee, c0]);
        }
    }
    (d, node_map)
}

/// Definition 28: reads a Level-0 structure as a swarm — one edge
/// `H(S, tail, antenna)` per recognisable real spider.
pub fn decompile_structure(ctx: &SpiderContext, d: &Structure) -> Vec<SwarmEdge> {
    let mut out: Vec<SwarmEdge> = ctx
        .all_spiders(d)
        .into_iter()
        .map(|(spider, tail, antenna)| SwarmEdge {
            spider,
            tail,
            antenna,
        })
        .collect();
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anatomy::Legs;
    use cqfd_greenred::Color;

    fn sample_swarm() -> (u32, Vec<SwarmEdge>) {
        let edges = vec![
            SwarmEdge {
                spider: IdealSpider::full_green(),
                tail: Node(0),
                antenna: Node(1),
            },
            SwarmEdge {
                spider: IdealSpider::green(Legs::new(Some(1), None)),
                tail: Node(0),
                antenna: Node(2),
            },
            SwarmEdge {
                spider: IdealSpider::red(Legs::new(Some(2), Some(1))),
                tail: Node(2),
                antenna: Node(1),
            },
        ];
        (3, edges)
    }

    /// Lemma 30: `decompile(compile(D)) = D`.
    #[test]
    fn decompile_compile_is_identity() {
        let ctx = SpiderContext::new(2);
        let (n, edges) = sample_swarm();
        let (d, node_map) = compile_swarm(&ctx, n, &edges);
        let back = decompile_structure(&ctx, &d);
        let mut expected: Vec<SwarmEdge> = edges
            .iter()
            .map(|e| SwarmEdge {
                spider: e.spider,
                tail: node_map[&e.tail],
                antenna: node_map[&e.antenna],
            })
            .collect();
        expected.sort();
        assert_eq!(back, expected, "no spiders lost, none invented");
    }

    /// Definition 29's size bound: at most `4s` knees plus swarm nodes,
    /// heads and `c0`.
    #[test]
    fn compile_glues_knees() {
        let ctx = SpiderContext::new(2);
        let (n, edges) = sample_swarm();
        let (d, _) = compile_swarm(&ctx, n, &edges);
        let max_nodes = n + edges.len() as u32 + 4 * ctx.s() as u32 + 1;
        assert!(
            d.node_count() <= max_nodes,
            "{} > {max_nodes}",
            d.node_count()
        );
    }

    /// Gluing respects color: a green-legged and a red-legged copy of the
    /// same leg use different knees.
    #[test]
    fn knees_split_by_color() {
        let ctx = SpiderContext::new(1);
        let edges = vec![
            SwarmEdge {
                spider: IdealSpider::full_green(),
                tail: Node(0),
                antenna: Node(1),
            },
            SwarmEdge {
                spider: IdealSpider::green(Legs::new(Some(1), None)),
                tail: Node(0),
                antenna: Node(1),
            },
        ];
        let (d, _) = compile_swarm(&ctx, 2, &edges);
        let gr = ctx.greenred();
        let leg = crate::anatomy::Leg {
            upper: true,
            idx: 1,
        };
        let green_calves: Vec<_> = d
            .atoms_with_pred(gr.colorize(Color::Green, ctx.calf(leg)))
            .collect();
        let red_calves: Vec<_> = d
            .atoms_with_pred(gr.colorize(Color::Red, ctx.calf(leg)))
            .collect();
        assert_eq!(green_calves.len(), 1);
        assert_eq!(red_calves.len(), 1);
        assert_ne!(green_calves[0].args[0], red_calves[0].args[0]);
    }

    /// An empty swarm compiles to an empty structure (modulo c0).
    #[test]
    fn empty_swarm() {
        let ctx = SpiderContext::new(2);
        let (d, _) = compile_swarm(&ctx, 0, &[]);
        assert_eq!(d.atom_count(), 0);
        assert!(decompile_structure(&ctx, &d).is_empty());
    }
}
