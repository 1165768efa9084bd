//! The swarm signature and the [`Swarm`] wrapper.

use cqfd_core::{Node, PredId, Signature, Structure};
use cqfd_spider::{IdealSpider, SpiderContext, SwarmEdge};
use std::collections::HashMap;
use std::sync::Arc;

/// The Level-1 world for a parameter `s`: one binary predicate `H[S]` per
/// ideal spider `S ∈ A`, plus the underlying [`SpiderContext`].
#[derive(Debug, Clone)]
pub struct SwarmContext {
    spider: Arc<SpiderContext>,
    sig: Arc<Signature>,
    pred_of: HashMap<IdealSpider, PredId>,
    spider_of: Vec<IdealSpider>,
}

impl SwarmContext {
    /// Builds the swarm context over a spider context.
    pub fn new(spider: Arc<SpiderContext>) -> Self {
        let mut sig = Signature::new();
        let mut pred_of = HashMap::new();
        let mut spider_of = Vec::new();
        for s in spider.ideal_spiders() {
            let p = sig.add_predicate(&format!("H[{s}]"), 2);
            pred_of.insert(s, p);
            spider_of.push(s);
        }
        SwarmContext {
            spider,
            sig: Arc::new(sig),
            pred_of,
            spider_of,
        }
    }

    /// Convenience: build both contexts from `s`.
    pub fn with_s(s: u16) -> Self {
        Self::new(Arc::new(SpiderContext::new(s)))
    }

    /// The underlying spider context.
    pub fn spider(&self) -> &Arc<SpiderContext> {
        &self.spider
    }

    /// The swarm signature.
    pub fn signature(&self) -> &Arc<Signature> {
        &self.sig
    }

    /// The predicate of an ideal spider.
    pub fn pred(&self, s: IdealSpider) -> PredId {
        self.pred_of[&s]
    }

    /// The ideal spider of a predicate.
    pub fn spider_of(&self, p: PredId) -> IdealSpider {
        self.spider_of[p.0 as usize]
    }
}

/// A swarm: a structure over the swarm signature.
#[derive(Debug, Clone)]
pub struct Swarm {
    ctx: Arc<SwarmContext>,
    st: Structure,
}

impl Swarm {
    /// An empty swarm.
    pub fn empty(ctx: Arc<SwarmContext>) -> Swarm {
        let st = Structure::new(Arc::clone(ctx.signature()));
        Swarm { ctx, st }
    }

    /// The swarm `{H(I, a, b)}` — the Level-1 start structure of
    /// Definition 11.
    pub fn green_seed(ctx: Arc<SwarmContext>) -> (Swarm, Node, Node) {
        let mut sw = Swarm::empty(ctx);
        let a = sw.st.fresh_node();
        let b = sw.st.fresh_node();
        sw.add_edge(IdealSpider::full_green(), a, b);
        (sw, a, b)
    }

    /// Wraps an existing structure.
    pub fn from_structure(ctx: Arc<SwarmContext>, st: Structure) -> Swarm {
        Swarm { ctx, st }
    }

    /// The context.
    pub fn context(&self) -> &Arc<SwarmContext> {
        &self.ctx
    }

    /// The underlying structure.
    pub fn structure(&self) -> &Structure {
        &self.st
    }

    /// Allocates a vertex.
    pub fn fresh_node(&mut self) -> Node {
        self.st.fresh_node()
    }

    /// Adds `H(S, tail, antenna)`.
    pub fn add_edge(&mut self, s: IdealSpider, tail: Node, antenna: Node) -> bool {
        self.st.add(self.ctx.pred(s), &[tail, antenna])
    }

    /// All edges in spider vocabulary.
    pub fn edges(&self) -> Vec<SwarmEdge> {
        self.st
            .atoms()
            .map(|a| SwarmEdge {
                spider: self.ctx.spider_of(a.pred),
                tail: a.args[0],
                antenna: a.args[1],
            })
            .collect()
    }

    /// Does the swarm contain an atom `H(H, _, _)` — the full red spider?
    pub fn contains_red_spider(&self) -> bool {
        self.st.pred_count(self.ctx.pred(IdealSpider::full_red())) > 0
    }

    /// Does it contain `H(I, _, _)`?
    pub fn contains_green_spider(&self) -> bool {
        self.st.pred_count(self.ctx.pred(IdealSpider::full_green())) > 0
    }

    /// Realises the swarm as a Level-0 structure (Definition 29).
    pub fn compile(&self) -> (Structure, HashMap<Node, Node>) {
        cqfd_spider::compile_swarm(self.ctx.spider(), self.st.node_count(), &self.edges())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signature_covers_all_ideal_spiders() {
        let ctx = SwarmContext::with_s(2);
        assert_eq!(
            ctx.signature().pred_count(),
            ctx.spider().ideal_spider_count()
        );
        for s in ctx.spider().ideal_spiders() {
            assert_eq!(ctx.spider_of(ctx.pred(s)), s);
        }
    }

    #[test]
    fn seed_contains_green_not_red() {
        let ctx = Arc::new(SwarmContext::with_s(2));
        let (sw, a, b) = Swarm::green_seed(ctx);
        assert!(sw.contains_green_spider());
        assert!(!sw.contains_red_spider());
        assert_eq!(sw.edges().len(), 1);
        assert_eq!(sw.edges()[0].tail, a);
        assert_eq!(sw.edges()[0].antenna, b);
    }

    #[test]
    fn swarm_compile_round_trip() {
        use cqfd_spider::decompile_structure;
        let ctx = Arc::new(SwarmContext::with_s(2));
        let (mut sw, a, b) = Swarm::green_seed(Arc::clone(&ctx));
        let c = sw.fresh_node();
        sw.add_edge(IdealSpider::full_red(), b, c);
        let (st, node_map) = sw.compile();
        let back = decompile_structure(ctx.spider(), &st);
        assert_eq!(back.len(), 2);
        assert!(back.iter().any(|e| e.spider == IdealSpider::full_green()
            && e.tail == node_map[&a]
            && e.antenna == node_map[&b]));
    }
}
