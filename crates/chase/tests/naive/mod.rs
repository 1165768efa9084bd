//! The paper's chase stages (§II.C), verbatim, as an executable reference
//! for the engine.
//!
//! Every stage enumerates *every* body match of every TGD over the frozen
//! snapshot `chaseᵢ`, with a plain backtracking matcher of its own, and
//! keeps one trigger per distinct frontier tuple (with the
//! lexicographically least full match, for the firing log). Then, TGD by
//! TGD and in frontier-tuple order, it applies each trigger whose head
//! holds neither in the snapshot nor in the live structure. Nothing is
//! seeded, sliced, cached or run in parallel, so any difference from
//! [`ChaseEngine`] is an engine bug.
//!
//! Shared by `crates/chase/tests/naive_reference.rs` and the root
//! `tests/parallel_chase.rs` (through `#[path]`).
#![allow(dead_code)]

use cqfd_chase::{ChaseBudget, ChaseEngine, ChaseOutcome, ChaseRun, Firing, StageInfo, Tgd};
use cqfd_core::{Atom, Node, Structure, Term, Var};
use std::collections::BTreeMap;

/// What a naive run records: the observables a [`ChaseRun`] must match.
pub struct NaiveRun {
    /// The chased structure.
    pub structure: Structure,
    /// Per-stage history, as in [`ChaseRun::stages`].
    pub stages: Vec<StageInfo>,
    /// Applied triggers in order (empty unless recording).
    pub firings: Vec<Firing>,
    /// Why the run stopped.
    pub outcome: ChaseOutcome,
}

type Match = BTreeMap<Var, Node>;

/// One trigger of a stage: its frontier tuple, its least full body match,
/// and whether its head already held in the snapshot.
type Trigger = (Vec<Node>, Vec<(Var, Node)>, bool);

/// Chases `start` under `engine`'s TGDs with the naive stage loop, honouring
/// the budget's stage and size limits (not its thread count, which cannot
/// change the result). Firings are recorded when `record` is set.
pub fn chase(
    engine: &ChaseEngine,
    start: &Structure,
    budget: &ChaseBudget,
    record: bool,
) -> NaiveRun {
    let tgds = engine.tgds();
    let mut d = start.clone();
    let mut run = NaiveRun {
        structure: Structure::new(std::sync::Arc::clone(start.signature())),
        stages: Vec::new(),
        firings: Vec::new(),
        outcome: ChaseOutcome::StageBudgetExhausted,
    };
    for stage in 1..=budget.max_stages {
        let frozen = d.atom_count() as u32;
        // Phase A: every body match over the snapshot, per TGD, keyed by
        // frontier tuple (a BTreeMap iterates in tuple order).
        let triggers: Vec<Vec<Trigger>> = tgds
            .iter()
            .map(|tgd| {
                let mut least: BTreeMap<Vec<Node>, Vec<(Var, Node)>> = BTreeMap::new();
                for_each_match(&d, tgd.body(), frozen, &mut Match::new(), &mut |m| {
                    let tuple: Vec<Node> = tgd.frontier().iter().map(|v| m[v]).collect();
                    let full: Vec<(Var, Node)> = m.iter().map(|(&v, &n)| (v, n)).collect();
                    let slot = least.entry(tuple).or_insert_with(|| full.clone());
                    if full < *slot {
                        *slot = full;
                    }
                    true
                });
                least
                    .into_iter()
                    .map(|(tuple, full)| {
                        let pre = head_holds(&d, tgd, &tuple, frozen);
                        (tuple, full, pre)
                    })
                    .collect()
            })
            .collect();
        // Phase B: apply the active ones against the live structure.
        let mut applications = 0;
        let mut size_stop = false;
        'apply: for (ti, list) in triggers.into_iter().enumerate() {
            let tgd = &tgds[ti];
            for (tuple, full, pre) in list {
                if pre || head_holds(&d, tgd, &tuple, u32::MAX) {
                    continue;
                }
                apply(tgd, &tuple, &mut d);
                if record {
                    run.firings.push(Firing {
                        stage,
                        tgd: ti,
                        assignment: full,
                    });
                }
                applications += 1;
                if d.atom_count() >= budget.max_atoms || d.node_count() as usize >= budget.max_nodes
                {
                    size_stop = true;
                    break 'apply;
                }
            }
        }
        run.stages.push(StageInfo {
            applications,
            atoms_after: d.atom_count(),
            nodes_after: d.node_count(),
        });
        if size_stop {
            run.outcome = ChaseOutcome::SizeBudgetExhausted;
            break;
        }
        if applications == 0 {
            run.outcome = ChaseOutcome::Fixpoint;
            break;
        }
    }
    run.structure = d;
    run
}

/// Asserts that an engine run and a naive run agree on everything the
/// chase determines: atoms in order, node count, stage history, firing
/// log and stop reason.
pub fn assert_same(run: &ChaseRun, naive: &NaiveRun, what: &str) {
    assert_eq!(
        run.structure.atoms(),
        naive.structure.atoms(),
        "{what}: atoms"
    );
    assert_eq!(
        run.structure.node_count(),
        naive.structure.node_count(),
        "{what}: node count"
    );
    assert_eq!(run.stages, naive.stages, "{what}: stages");
    assert_eq!(run.firings, naive.firings, "{what}: firings");
    assert_eq!(run.outcome, naive.outcome, "{what}: outcome");
}

/// Does `∃z̄ Ψ(z̄, tuple)` hold among the atoms below `limit`?
fn head_holds(d: &Structure, tgd: &Tgd, tuple: &[Node], limit: u32) -> bool {
    let mut m: Match = tgd
        .frontier()
        .iter()
        .copied()
        .zip(tuple.iter().copied())
        .collect();
    !for_each_match(d, tgd.head(), limit, &mut m, &mut |_| false)
}

/// `D := D(T, b̄)`: fresh nodes for the existentials (in variable order),
/// then the head atoms.
fn apply(tgd: &Tgd, tuple: &[Node], d: &mut Structure) {
    let mut m: Match = tgd
        .frontier()
        .iter()
        .copied()
        .zip(tuple.iter().copied())
        .collect();
    for &v in tgd.existential() {
        let n = d.fresh_node();
        m.insert(v, n);
    }
    for a in tgd.head() {
        let args: Vec<Node> = a
            .args
            .iter()
            .map(|t| match t {
                Term::Var(v) => m[v],
                Term::Const(c) => d.node_for_const(*c),
            })
            .collect();
        d.add(a.pred, &args);
    }
}

/// Calls `f` on every extension of `m` that maps `atoms`, in order, onto
/// atoms below `limit`. Returns `false` as soon as `f` does.
fn for_each_match(
    d: &Structure,
    atoms: &[Atom<Term>],
    limit: u32,
    m: &mut Match,
    f: &mut dyn FnMut(&Match) -> bool,
) -> bool {
    let Some((atom, rest)) = atoms.split_first() else {
        return f(m);
    };
    // Scan the shortest index that a bound argument allows.
    let mut rows = d.pred_index(atom.pred);
    for (pos, t) in atom.args.iter().enumerate() {
        let bound = match t {
            Term::Var(v) => m.get(v).copied(),
            Term::Const(c) => match d.existing_const_node(*c) {
                Some(n) => Some(n),
                None => return true,
            },
        };
        if let Some(n) = bound {
            let posting = d.pred_pos_node_index(atom.pred, pos as u8, n);
            if posting.len() < rows.len() {
                rows = posting;
            }
        }
    }
    for &row in rows.iter().take_while(|&&r| r < limit) {
        let mut fresh: Vec<Var> = Vec::new();
        let mut ok = true;
        for (t, &n) in atom.args.iter().zip(d.args_of(row)) {
            match t {
                Term::Const(c) => ok = d.existing_const_node(*c) == Some(n),
                Term::Var(v) => match m.get(v) {
                    Some(&b) => ok = b == n,
                    None => {
                        m.insert(*v, n);
                        fresh.push(*v);
                    }
                },
            }
            if !ok {
                break;
            }
        }
        let go_on = !ok || for_each_match(d, rest, limit, m, f);
        for v in fresh {
            m.remove(&v);
        }
        if !go_on {
            return false;
        }
    }
    true
}
