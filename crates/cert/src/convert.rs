//! Bridges from the workspace's native types to certificate specs.
//!
//! These run on the **producer** side only: the checker never touches
//! `cqfd_core` structures. Predicate/constant indices in the specs are the
//! dense interning ids of the source [`Signature`], so a spec and the
//! structure it was taken from agree symbol-for-symbol.

use crate::{
    AtomSpec, Certificate, FailsClaim, FiringSpec, HoldsClaim, PatAtom, QuerySpec, RuleSpec,
    SigSpec, StructSpec, TermSpec,
};
use cqfd_chase::{ChaseRun, Firing, Tgd};
use cqfd_core::{Atom, Cq, Node, Signature, Structure, Term, VarMap};

/// The signature, by value.
pub fn sig_spec(sig: &Signature) -> SigSpec {
    SigSpec {
        preds: sig
            .predicates()
            .map(|p| (sig.pred_name(p).to_owned(), sig.arity(p)))
            .collect(),
        consts: sig
            .constants()
            .map(|c| sig.const_name(c).to_owned())
            .collect(),
    }
}

/// A structure, by value (nodes, constant pins, atoms — insertion order).
pub fn struct_spec(d: &Structure) -> StructSpec {
    let sig = d.signature();
    StructSpec {
        nodes: d.node_count(),
        pins: sig
            .constants()
            .filter_map(|c| d.existing_const_node(c).map(|n| (c.0 as usize, n.0)))
            .collect(),
        atoms: d
            .atoms()
            .map(|a| AtomSpec {
                pred: a.pred.0 as usize,
                args: a.args.iter().map(|n| n.0).collect(),
            })
            .collect(),
    }
}

fn pat_atoms(atoms: &[Atom<Term>]) -> Vec<PatAtom> {
    atoms
        .iter()
        .map(|a| PatAtom {
            pred: a.pred.0 as usize,
            terms: a
                .args
                .iter()
                .map(|t| match t {
                    Term::Var(v) => TermSpec::Var(v.0),
                    Term::Const(c) => TermSpec::Const(c.0 as usize),
                })
                .collect(),
        })
        .collect()
}

/// A TGD, by value.
pub fn rule_spec(t: &Tgd) -> RuleSpec {
    RuleSpec {
        name: t.name().to_owned(),
        body: pat_atoms(t.body()),
        head: pat_atoms(t.head()),
    }
}

/// A conjunctive query, by value.
pub fn query_spec(q: &Cq) -> QuerySpec {
    QuerySpec {
        name: q.name.clone(),
        free: q.head_vars.iter().map(|v| v.0).collect(),
        body: pat_atoms(&q.body),
    }
}

/// A positive claim `D |= Q(ā)` with its witness map (sorted by variable).
pub fn holds_claim(q: &Cq, tuple: &[Node], witness: &VarMap) -> HoldsClaim {
    let mut w: Vec<(u32, u32)> = witness.iter().map(|(v, n)| (v.0, n.0)).collect();
    w.sort_unstable_by_key(|&(v, _)| v);
    HoldsClaim {
        query: query_spec(q),
        tuple: tuple.iter().map(|n| n.0).collect(),
        witness: w,
    }
}

/// A negative claim `D ⊭ Q(ā)`.
pub fn fails_claim(q: &Cq, tuple: &[Node]) -> FailsClaim {
    FailsClaim {
        query: query_spec(q),
        tuple: tuple.iter().map(|n| n.0).collect(),
    }
}

/// One recorded chase firing.
pub fn firing_spec(f: &Firing) -> FiringSpec {
    FiringSpec {
        stage: f.stage,
        rule: f.tgd,
        assignment: f.assignment.iter().map(|&(v, n)| (v.0, n.0)).collect(),
    }
}

/// A full chase-trace certificate from a recorded run ([`ChaseRun::firings`]
/// non-empty requires the engine ran `with_recording(true)`; an empty
/// firing list is fine for a start structure that is already a fixpoint).
pub fn chase_trace(
    sig: &Signature,
    tgds: &[Tgd],
    start: &Structure,
    run: &ChaseRun,
    goal: Option<HoldsClaim>,
) -> Certificate {
    Certificate::ChaseTrace {
        sig: sig_spec(sig),
        rules: tgds.iter().map(rule_spec).collect(),
        start: struct_spec(start),
        firings: run.firings.iter().map(firing_spec).collect(),
        final_atoms: run.structure.atom_count(),
        final_nodes: run.structure.node_count(),
        goal,
    }
}
