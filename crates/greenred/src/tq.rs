//! Definition 3: the green–red TGDs `Q^{G→R}`, `Q^{R→G}` and the set `T_Q`.

use crate::coloring::{Color, GreenRed};
use cqfd_chase::Tgd;
use cqfd_core::{Cq, Var};
use std::collections::HashMap;

/// Builds `T_Q` (Definition 3): for every `Q ∈ views`, both TGDs
///
/// ```text
/// Q^{G→R} = ∀x̄,ȳ [ G(Φ)(x̄,ȳ) ⇒ ∃z̄ R(Φ)(z̄,ȳ) ]
/// Q^{R→G} = ∀x̄,ȳ [ R(Φ)(x̄,ȳ) ⇒ ∃z̄ G(Φ)(z̄,ȳ) ]
/// ```
///
/// where `ȳ` are the free variables of `Q` and `x̄` its existential ones.
/// In the head, the existential variables are renamed to fresh ids (the
/// paper's `z̄`), so the only variables shared between body and head — the
/// TGD frontier — are exactly the free variables of `Q`. That frontier is
/// "what connects the new part of the structure … to the old part" (§V.B).
pub fn greenred_tgds(gr: &GreenRed, views: &[Cq]) -> Vec<Tgd> {
    let mut out = Vec::with_capacity(views.len() * 2);
    for q in views {
        out.push(one_direction(gr, q, Color::Green));
        out.push(one_direction(gr, q, Color::Red));
    }
    out
}

/// The TGD `Q^{from→opposite(from)}`.
pub fn one_direction(gr: &GreenRed, q: &Cq, from: Color) -> Tgd {
    let body = gr.color_formula(from, &q.body);
    // Rename existential variables of Q to fresh ids in the head.
    let max_var = q
        .body
        .iter()
        .flat_map(|a| a.vars())
        .map(|v| v.0)
        .max()
        .map_or(0, |m| m + 1);
    let mut rename: HashMap<Var, Var> = HashMap::new();
    for (i, v) in q.existential_vars().into_iter().enumerate() {
        rename.insert(v, Var(max_var + i as u32));
    }
    let head_base: Vec<_> = q
        .body
        .iter()
        .map(|a| a.rename(|v| rename.get(&v).copied().unwrap_or(v)))
        .collect();
    let head = gr.color_formula(from.flip(), &head_base);
    let dir = match from {
        Color::Green => "G→R",
        Color::Red => "R→G",
    };
    Tgd::new_unchecked(format!("{}^{}", q.name, dir), body, head)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqfd_core::{Signature, Structure};
    use std::sync::Arc;

    fn gr() -> GreenRed {
        let mut s = Signature::new();
        s.add_predicate("R", 2);
        GreenRed::new(Arc::new(s))
    }

    #[test]
    fn frontier_is_the_free_variables() {
        let gr = gr();
        let q = Cq::parse(gr.base(), "V(x,y) :- R(x,z), R(z,y)").unwrap();
        let t = one_direction(&gr, &q, Color::Green);
        // frontier = {x, y}; existential head var replaces z.
        assert_eq!(t.frontier().len(), 2);
        assert_eq!(t.existential().len(), 1);
        assert_eq!(t.body().len(), 2);
        assert_eq!(t.head().len(), 2);
    }

    #[test]
    fn both_directions_generated() {
        let gr = gr();
        let q = Cq::parse(gr.base(), "V(x) :- R(x,y)").unwrap();
        let tgds = greenred_tgds(&gr, &[q]);
        assert_eq!(tgds.len(), 2);
        assert_eq!(tgds[0].name(), "V^G→R");
        assert_eq!(tgds[1].name(), "V^R→G");
        // G→R: body green, head red.
        let r = gr.base().predicate("R").unwrap();
        assert_eq!(tgds[0].body()[0].pred, gr.green(r));
        assert_eq!(tgds[0].head()[0].pred, gr.red(r));
        assert_eq!(tgds[1].body()[0].pred, gr.red(r));
        assert_eq!(tgds[1].head()[0].pred, gr.green(r));
    }

    /// Lemma 4: `D` satisfies condition ¶ — `(G(Q))(D) = (R(Q))(D)` for all
    /// `Q ∈ Q` — if and only if `D |= T_Q`.
    #[test]
    fn lemma4_on_examples() {
        use cqfd_chase::ChaseEngine;
        let gr = gr();
        let r = gr.base().predicate("R").unwrap();
        let q = Cq::parse(gr.base(), "V(x) :- R(x,y)").unwrap();
        let tgds = greenred_tgds(&gr, std::slice::from_ref(&q));
        let engine = ChaseEngine::new(tgds);

        let green_q = Cq::new_unchecked(
            "gV",
            q.head_vars.clone(),
            gr.color_formula(Color::Green, &q.body),
            q.var_names.clone(),
        );
        let red_q = Cq::new_unchecked(
            "rV",
            q.head_vars.clone(),
            gr.color_formula(Color::Red, &q.body),
            q.var_names.clone(),
        );

        // D1: G:R(a,b) and R:R(a,c) — equal projections; must model T_Q.
        let mut d1 = Structure::new(Arc::clone(gr.colored()));
        let a = d1.fresh_node();
        let b = d1.fresh_node();
        let c = d1.fresh_node();
        d1.add(gr.green(r), &[a, b]);
        d1.add(gr.red(r), &[a, c]);
        assert_eq!(green_q.eval(&d1), red_q.eval(&d1));
        assert!(engine.is_model(&d1));

        // D2: only G:R(a,b) — unequal projections; must violate T_Q.
        let mut d2 = Structure::new(Arc::clone(gr.colored()));
        let a2 = d2.fresh_node();
        let b2 = d2.fresh_node();
        d2.add(gr.green(r), &[a2, b2]);
        assert_ne!(green_q.eval(&d2), red_q.eval(&d2));
        assert!(!engine.is_model(&d2));
    }
}
