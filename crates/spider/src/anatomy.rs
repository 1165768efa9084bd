//! Spider anatomy: the signature `Σ` of Level 0, ideal spiders, and
//! real-spider construction/recognition.

use cqfd_core::{Node, PredId, Signature, Structure};
use cqfd_greenred::{Color, GreenRed};
use std::fmt;
use std::sync::Arc;

/// A leg selection `(I, J)` with `I, J ⊆ {1..s}` singletons or empty —
/// `upper`/`lower` hold the 1-based leg index if the set is a singleton.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Legs {
    /// The upper set `I`.
    pub upper: Option<u16>,
    /// The lower set `J`.
    pub lower: Option<u16>,
}

impl Legs {
    /// Both sets empty.
    pub fn none() -> Legs {
        Legs::default()
    }

    /// `(I, J)` from options.
    pub fn new(upper: Option<u16>, lower: Option<u16>) -> Legs {
        Legs { upper, lower }
    }

    /// Is `other ⊆ self` componentwise (`I′ ⊆ I ∧ J′ ⊆ J`)?
    pub fn contains(self, other: Legs) -> bool {
        (other.upper.is_none() || other.upper == self.upper)
            && (other.lower.is_none() || other.lower == self.lower)
    }

    /// Componentwise difference `(I \ I′, J \ J′)`; caller must ensure
    /// `other ⊆ self`.
    pub fn minus(self, other: Legs) -> Legs {
        Legs {
            upper: if other.upper == self.upper {
                None
            } else {
                self.upper
            },
            lower: if other.lower == self.lower {
                None
            } else {
                self.lower
            },
        }
    }
}

/// An ideal spider: `I^I_J` (`base = Green`, red legs `flips`) or `H^I_J`
/// (`base = Red`, green legs `flips`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IdealSpider {
    /// The body color.
    pub base: Color,
    /// The legs painted in the opposite color.
    pub flips: Legs,
}

impl IdealSpider {
    /// The full green spider `I`.
    pub fn full_green() -> IdealSpider {
        IdealSpider {
            base: Color::Green,
            flips: Legs::none(),
        }
    }

    /// The full red spider `H`.
    pub fn full_red() -> IdealSpider {
        IdealSpider {
            base: Color::Red,
            flips: Legs::none(),
        }
    }

    /// `I^I_J`.
    pub fn green(flips: Legs) -> IdealSpider {
        IdealSpider {
            base: Color::Green,
            flips,
        }
    }

    /// `H^I_J`.
    pub fn red(flips: Legs) -> IdealSpider {
        IdealSpider {
            base: Color::Red,
            flips,
        }
    }
}

impl fmt::Display for IdealSpider {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let body = match self.base {
            Color::Green => "I",
            Color::Red => "H",
        };
        write!(f, "{body}")?;
        if let Some(i) = self.flips.upper {
            write!(f, "^{i}")?;
        }
        if let Some(j) = self.flips.lower {
            write!(f, "_{j}")?;
        }
        Ok(())
    }
}

/// A leg address: upper or lower, 1-based index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Leg {
    /// Upper (`true`) or lower leg.
    pub upper: bool,
    /// 1-based index in `1..=s`.
    pub idx: u16,
}

/// The Level-0 world for a given parameter `s`: the base signature `Σ`
/// (HEAD, thighs, calves, the constant `c0`) and its green–red extension.
#[derive(Debug, Clone)]
pub struct SpiderContext {
    s: u16,
    gr: GreenRed,
    head: PredId,
    thigh_u: Vec<PredId>,
    thigh_l: Vec<PredId>,
    calf_u: Vec<PredId>,
    calf_l: Vec<PredId>,
    c0: cqfd_core::ConstId,
}

impl SpiderContext {
    /// Builds the context for parameter `s ≥ 1`.
    pub fn new(s: u16) -> SpiderContext {
        assert!(s >= 1);
        let mut sig = Signature::new();
        let head = sig.add_predicate("HEAD", 3);
        let mut thigh_u = Vec::new();
        let mut thigh_l = Vec::new();
        let mut calf_u = Vec::new();
        let mut calf_l = Vec::new();
        for j in 1..=s {
            thigh_u.push(sig.add_predicate(&format!("TU{j}"), 2));
            thigh_l.push(sig.add_predicate(&format!("TL{j}"), 2));
            calf_u.push(sig.add_predicate(&format!("CU{j}"), 2));
            calf_l.push(sig.add_predicate(&format!("CL{j}"), 2));
        }
        let c0 = sig.add_constant("c0");
        let gr = GreenRed::new(Arc::new(sig));
        SpiderContext {
            s,
            gr,
            head,
            thigh_u,
            thigh_l,
            calf_u,
            calf_l,
            c0,
        }
    }

    /// The parameter `s`.
    pub fn s(&self) -> u16 {
        self.s
    }

    /// The green–red context over `Σ`.
    pub fn greenred(&self) -> &GreenRed {
        &self.gr
    }

    /// The base signature `Σ`.
    pub fn base(&self) -> &Arc<Signature> {
        self.gr.base()
    }

    /// The colored signature `Σ̄`.
    pub fn colored(&self) -> &Arc<Signature> {
        self.gr.colored()
    }

    /// The `HEAD` predicate (uncolored).
    pub fn head_pred(&self) -> PredId {
        self.head
    }

    /// The calf-end constant `c0`.
    pub fn c0(&self) -> cqfd_core::ConstId {
        self.c0
    }

    /// The thigh predicate of a leg (uncolored).
    pub fn thigh(&self, leg: Leg) -> PredId {
        let v = if leg.upper {
            &self.thigh_u
        } else {
            &self.thigh_l
        };
        v[(leg.idx - 1) as usize]
    }

    /// The calf predicate of a leg (uncolored).
    pub fn calf(&self, leg: Leg) -> PredId {
        let v = if leg.upper {
            &self.calf_u
        } else {
            &self.calf_l
        };
        v[(leg.idx - 1) as usize]
    }

    /// All `2s` legs.
    pub fn legs(&self) -> impl Iterator<Item = Leg> + '_ {
        (1..=self.s)
            .map(|idx| Leg { upper: true, idx })
            .chain((1..=self.s).map(|idx| Leg { upper: false, idx }))
    }

    /// The leg color of an ideal spider at a given leg.
    pub fn leg_color(&self, spider: IdealSpider, leg: Leg) -> Color {
        let flipped = if leg.upper {
            spider.flips.upper == Some(leg.idx)
        } else {
            spider.flips.lower == Some(leg.idx)
        };
        if flipped {
            spider.base.flip()
        } else {
            spider.base
        }
    }

    /// Builds a real copy of `spider` in `d` (over `Σ̄`) with the given tail
    /// and antenna nodes; returns the head node. Fresh head and knees.
    pub fn build_spider(
        &self,
        d: &mut Structure,
        spider: IdealSpider,
        tail: Node,
        antenna: Node,
    ) -> Node {
        let gr = &self.gr;
        let h = d.fresh_node();
        d.add(gr.colorize(spider.base, self.head), &[h, tail, antenna]);
        let c0 = d.node_for_const(self.c0);
        for leg in self.legs().collect::<Vec<_>>() {
            let knee = d.fresh_node();
            d.add(gr.colorize(spider.base, self.thigh(leg)), &[h, knee]);
            let calf_color = self.leg_color(spider, leg);
            d.add(gr.colorize(calf_color, self.calf(leg)), &[knee, c0]);
        }
        h
    }

    /// Recognises a real spider rooted at a colored `HEAD` atom: if the
    /// head has, in the head's color, a thigh to some knee for every leg,
    /// and each knee a calf to `c0` in some color, returns the ideal spider
    /// (body = head color; flips = off-color legs) with its tail and
    /// antenna — provided the flips are singleton-or-empty.
    ///
    /// Used by `decompile` (Definition 28).
    pub fn spider_at(
        &self,
        d: &Structure,
        head_atom: cqfd_core::AtomRef<'_>,
    ) -> Option<(IdealSpider, Node, Node)> {
        let (base, p) = self.gr.decompose(head_atom.pred);
        if p != self.head {
            return None;
        }
        let h = head_atom.args[0];
        let tail = head_atom.args[1];
        let antenna = head_atom.args[2];
        let c0 = d.existing_const_node(self.c0)?;
        let mut flips = Legs::none();
        for leg in self.legs().collect::<Vec<_>>() {
            let thigh_pred = self.gr.colorize(base, self.thigh(leg));
            // A thigh of the body color from h…
            let mut found = None;
            for atom in d.atoms_with_pred_pos_node(thigh_pred, 0, h) {
                let knee = atom.args[1];
                // …whose knee has a calf to c0 in either color.
                for color in [base, base.flip()] {
                    let calf_pred = self.gr.colorize(color, self.calf(leg));
                    if d.contains(calf_pred, &[knee, c0]) {
                        found = Some(color);
                        break;
                    }
                }
                if found.is_some() {
                    break;
                }
            }
            match found {
                None => return None,
                Some(color) if color == base => {}
                Some(_) => {
                    // an off-color leg: record the flip, reject doubles
                    if leg.upper {
                        if flips.upper.is_some() {
                            return None;
                        }
                        flips.upper = Some(leg.idx);
                    } else {
                        if flips.lower.is_some() {
                            return None;
                        }
                        flips.lower = Some(leg.idx);
                    }
                }
            }
        }
        Some((IdealSpider { base, flips }, tail, antenna))
    }

    /// All real spiders in `d`, one per colored `HEAD` atom that passes
    /// recognition.
    pub fn all_spiders(&self, d: &Structure) -> Vec<(IdealSpider, Node, Node)> {
        let mut out = Vec::new();
        for color in [Color::Green, Color::Red] {
            let pred = self.gr.colorize(color, self.head);
            for atom in d.atoms_with_pred(pred) {
                if let Some(found) = self.spider_at(d, atom) {
                    out.push(found);
                }
            }
        }
        out
    }

    /// Does `d` contain a copy of the full red spider `H`? (The Level-0
    /// reading of "leads to the red spider", Definition 11.)
    pub fn contains_full_red(&self, d: &Structure) -> bool {
        self.all_spiders(d)
            .iter()
            .any(|(s, _, _)| *s == IdealSpider::full_red())
    }

    /// The number of ideal spiders `|A| = 2 + 4s + 2s²`.
    pub fn ideal_spider_count(&self) -> usize {
        let s = self.s as usize;
        2 * (s + 1) * (s + 1)
    }

    /// Enumerates all of `A`.
    pub fn ideal_spiders(&self) -> Vec<IdealSpider> {
        let mut out = Vec::new();
        let mut options: Vec<Option<u16>> = vec![None];
        options.extend((1..=self.s).map(Some));
        for base in [Color::Green, Color::Red] {
            for &u in &options {
                for &l in &options {
                    out.push(IdealSpider {
                        base,
                        flips: Legs::new(u, l),
                    });
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_spider_count_formula() {
        for s in 1..=4 {
            let ctx = SpiderContext::new(s);
            let all = ctx.ideal_spiders();
            assert_eq!(all.len(), ctx.ideal_spider_count());
            assert_eq!(all.len(), 2 + 4 * s as usize + 2 * (s as usize).pow(2));
        }
    }

    #[test]
    fn build_then_recognise_round_trip() {
        let ctx = SpiderContext::new(3);
        for spider in ctx.ideal_spiders() {
            let mut d = Structure::new(Arc::clone(ctx.colored()));
            let tail = d.fresh_node();
            let antenna = d.fresh_node();
            ctx.build_spider(&mut d, spider, tail, antenna);
            let found = ctx.all_spiders(&d);
            assert_eq!(found.len(), 1, "{spider}");
            assert_eq!(found[0], (spider, tail, antenna), "{spider}");
        }
    }

    #[test]
    fn legs_subset_and_difference() {
        let i12 = Legs::new(Some(1), Some(2));
        let i1 = Legs::new(Some(1), None);
        let e = Legs::none();
        assert!(i12.contains(i1));
        assert!(i12.contains(e));
        assert!(!i1.contains(i12));
        assert!(!i12.contains(Legs::new(Some(2), None)));
        assert_eq!(i12.minus(i1), Legs::new(None, Some(2)));
        assert_eq!(i12.minus(e), i12);
        assert_eq!(i12.minus(i12), e);
    }

    #[test]
    fn leg_colors() {
        let ctx = SpiderContext::new(2);
        let s = IdealSpider::green(Legs::new(Some(1), None));
        assert_eq!(
            ctx.leg_color(
                s,
                Leg {
                    upper: true,
                    idx: 1
                }
            ),
            Color::Red
        );
        assert_eq!(
            ctx.leg_color(
                s,
                Leg {
                    upper: true,
                    idx: 2
                }
            ),
            Color::Green
        );
        assert_eq!(
            ctx.leg_color(
                s,
                Leg {
                    upper: false,
                    idx: 1
                }
            ),
            Color::Green
        );
    }

    #[test]
    fn damaged_spider_is_not_recognised() {
        let ctx = SpiderContext::new(2);
        let mut d = Structure::new(Arc::clone(ctx.colored()));
        let tail = d.fresh_node();
        let antenna = d.fresh_node();
        ctx.build_spider(&mut d, IdealSpider::full_green(), tail, antenna);
        // Remove one calf: recognition must fail.
        let gr = ctx.greenred();
        let calf_pred = gr.colorize(
            Color::Green,
            ctx.calf(Leg {
                upper: true,
                idx: 1,
            }),
        );
        let damaged = d.filter_atoms(|a| a.pred != calf_pred);
        assert!(ctx.all_spiders(&damaged).is_empty());
    }

    #[test]
    fn full_red_detection() {
        let ctx = SpiderContext::new(2);
        let mut d = Structure::new(Arc::clone(ctx.colored()));
        let t = d.fresh_node();
        let a = d.fresh_node();
        ctx.build_spider(&mut d, IdealSpider::full_green(), t, a);
        assert!(!ctx.contains_full_red(&d));
        ctx.build_spider(&mut d, IdealSpider::full_red(), t, a);
        assert!(ctx.contains_full_red(&d));
    }
}
