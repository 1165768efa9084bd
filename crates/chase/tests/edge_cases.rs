//! Edge-case coverage for the chase engine: nullary predicates,
//! constants-only rules, self-referential TGDs, empty rule sets,
//! interacting dependencies.

use cqfd_chase::{ChaseBudget, ChaseEngine, ChaseOutcome, Tgd};
use cqfd_core::{Atom, Signature, Structure, Term, Var};
use std::sync::Arc;

fn v(i: u32) -> Term {
    Term::Var(Var(i))
}

#[test]
fn nullary_predicates_chase() {
    let mut sig = Signature::new();
    let p = sig.add_predicate("P", 0);
    let q = sig.add_predicate("Q", 0);
    let sig = Arc::new(sig);
    // P() => Q()
    let t = Tgd::new_unchecked("t", vec![Atom::new(p, vec![])], vec![Atom::new(q, vec![])]);
    let engine = ChaseEngine::new(vec![t]);
    let mut d = Structure::new(Arc::clone(&sig));
    d.add(p, &[]);
    let run = engine.chase(&d, &ChaseBudget::default());
    assert!(run.reached_fixpoint());
    assert!(run.structure.contains(q, &[]));
    assert_eq!(run.structure.atom_count(), 2);
}

#[test]
fn constants_only_tgd() {
    let mut sig = Signature::new();
    let r = sig.add_predicate("R", 2);
    let c1 = sig.add_constant("c1");
    let c2 = sig.add_constant("c2");
    let sig = Arc::new(sig);
    // R(#c1, x) => R(x, #c2)
    let t = Tgd::new_unchecked(
        "t",
        vec![Atom::new(r, vec![Term::Const(c1), v(0)])],
        vec![Atom::new(r, vec![v(0), Term::Const(c2)])],
    );
    let engine = ChaseEngine::new(vec![t]);
    let mut d = Structure::new(Arc::clone(&sig));
    let n1 = d.node_for_const(c1);
    let x = d.fresh_node();
    d.add(r, &[n1, x]);
    let run = engine.chase(&d, &ChaseBudget::default());
    assert!(run.reached_fixpoint());
    let n2 = run.structure.existing_const_node(c2).unwrap();
    assert!(run.structure.contains(r, &[x, n2]));
}

#[test]
fn self_loop_body_matches_lazily() {
    let mut sig = Signature::new();
    let r = sig.add_predicate("R", 2);
    let sig = Arc::new(sig);
    // R(x, x) => ∃y R(x, y) — satisfied by the loop itself: no growth.
    let t = Tgd::new_unchecked(
        "t",
        vec![Atom::new(r, vec![v(0), v(0)])],
        vec![Atom::new(r, vec![v(0), v(1)])],
    );
    let engine = ChaseEngine::new(vec![t]);
    let mut d = Structure::new(Arc::clone(&sig));
    let x = d.fresh_node();
    d.add(r, &[x, x]);
    let run = engine.chase(&d, &ChaseBudget::default());
    assert!(run.reached_fixpoint());
    assert_eq!(run.structure.atom_count(), 1);
}

#[test]
fn empty_rule_set_is_immediate_fixpoint() {
    let mut sig = Signature::new();
    let r = sig.add_predicate("R", 2);
    let sig = Arc::new(sig);
    let engine = ChaseEngine::new(vec![]);
    let mut d = Structure::new(Arc::clone(&sig));
    let x = d.fresh_node();
    let y = d.fresh_node();
    d.add(r, &[x, y]);
    let run = engine.chase(&d, &ChaseBudget::default());
    assert_eq!(run.outcome, ChaseOutcome::Fixpoint);
    assert_eq!(run.stage_count(), 1, "one empty stage proves the fixpoint");
    assert!(engine.is_model(&d));
}

#[test]
fn empty_start_structure() {
    let mut sig = Signature::new();
    let r = sig.add_predicate("R", 2);
    let sig = Arc::new(sig);
    let t = Tgd::new_unchecked(
        "t",
        vec![Atom::new(r, vec![v(0), v(1)])],
        vec![Atom::new(r, vec![v(1), v(0)])],
    );
    let engine = ChaseEngine::new(vec![t]);
    let d = Structure::new(Arc::clone(&sig));
    let run = engine.chase(&d, &ChaseBudget::default());
    assert!(run.reached_fixpoint());
    assert_eq!(run.structure.atom_count(), 0);
}

#[test]
fn two_tgds_feed_each_other_until_budget() {
    let mut sig = Signature::new();
    let r = sig.add_predicate("R", 2);
    let s = sig.add_predicate("S", 2);
    let sig = Arc::new(sig);
    // R(x,y) => ∃z S(y,z);  S(x,y) => ∃z R(y,z): infinite alternation.
    let t1 = Tgd::new_unchecked(
        "t1",
        vec![Atom::new(r, vec![v(0), v(1)])],
        vec![Atom::new(s, vec![v(1), v(2)])],
    );
    let t2 = Tgd::new_unchecked(
        "t2",
        vec![Atom::new(s, vec![v(0), v(1)])],
        vec![Atom::new(r, vec![v(1), v(2)])],
    );
    let engine = ChaseEngine::new(vec![t1, t2]);
    let mut d = Structure::new(Arc::clone(&sig));
    let x = d.fresh_node();
    let y = d.fresh_node();
    d.add(r, &[x, y]);
    let run = engine.chase(&d, &ChaseBudget::stages(10));
    assert_eq!(run.outcome, ChaseOutcome::StageBudgetExhausted);
    // Each stage adds at least one atom; both relations grow.
    assert!(run.structure.pred_count(r) >= 3);
    assert!(run.structure.pred_count(s) >= 3);
}

#[test]
fn frontier_only_distinctness() {
    let mut sig = Signature::new();
    let r = sig.add_predicate("R", 2);
    let p = sig.add_predicate("P", 1);
    let sig = Arc::new(sig);
    // R(x,y) => P(x): two triggers with the same frontier value must apply
    // once (triggers are deduplicated by frontier tuple).
    let t = Tgd::new_unchecked(
        "t",
        vec![Atom::new(r, vec![v(0), v(1)])],
        vec![Atom::new(p, vec![v(0)])],
    );
    let engine = ChaseEngine::new(vec![t]);
    let mut d = Structure::new(Arc::clone(&sig));
    let x = d.fresh_node();
    let y1 = d.fresh_node();
    let y2 = d.fresh_node();
    d.add(r, &[x, y1]);
    d.add(r, &[x, y2]);
    let run = engine.chase(&d, &ChaseBudget::default());
    assert!(run.reached_fixpoint());
    assert_eq!(run.structure.pred_count(p), 1);
    assert_eq!(
        run.stages[0].applications, 1,
        "one application per frontier"
    );
}

#[test]
fn stage_structure_of_start_is_the_start() {
    let mut sig = Signature::new();
    let r = sig.add_predicate("R", 2);
    let c = sig.add_constant("c");
    let sig = Arc::new(sig);
    let t = Tgd::new_unchecked(
        "t",
        vec![Atom::new(r, vec![v(0), v(1)])],
        vec![Atom::new(r, vec![v(1), v(2)])],
    );
    let engine = ChaseEngine::new(vec![t]);
    let mut d = Structure::new(Arc::clone(&sig));
    let nc = d.node_for_const(c);
    let x = d.fresh_node();
    d.add(r, &[nc, x]);
    let run = engine.chase(&d, &ChaseBudget::stages(4));
    let s0 = run.stage_structure(0);
    assert_eq!(s0.atoms(), d.atoms());
    assert_eq!(s0.existing_const_node(c), Some(nc), "constants re-pinned");
}
