//! Certificate round-trips (property-based), checker acceptance on honest
//! certificates, and adversarial rejection of tampered ones.

use cqfd_cert::emit::{creep_certificate, pattern_certificate};
use cqfd_cert::{
    check, convert, encode, parse, AtomSpec, Certificate, FailsClaim, HoldsClaim, PatAtom,
    QuerySpec, SigSpec, StructSpec, TermSpec,
};
use cqfd_chase::{ChaseBudget, ChaseEngine, Tgd};
use cqfd_core::{Atom, Signature, Structure, Term, Var};
use cqfd_greengraph::{GreenGraph, Label, LabelSpace};
use cqfd_rainworm::families::{counter_worm, forever_worm};
use proptest::prelude::*;
use std::sync::Arc;

/// Splitmix-style generator so a single drawn seed yields a whole
/// certificate (the proptest shim has integer strategies only).
fn next(seed: &mut u64) -> u64 {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *seed >> 33
}

/// A random signature + structure, plus one structure atom to anchor
/// claims on. Names include quotes/backslashes/spaces so the wire quoting
/// is exercised.
fn gen_world(seed: &mut u64) -> (SigSpec, StructSpec) {
    let npreds = 1 + (next(seed) % 3) as usize;
    let preds = (0..npreds)
        .map(|i| {
            let name = match i % 3 {
                0 => format!("P{i}"),
                1 => format!("H[⟨n,α,d̄,b̄⟩]{i}"),
                _ => format!("odd \"name\\{i}"),
            };
            (name, 1 + (next(seed) % 3) as usize)
        })
        .collect::<Vec<_>>();
    let nconsts = (next(seed) % 3) as usize;
    let consts: Vec<String> = (0..nconsts).map(|i| format!("k {i}")).collect();
    let nodes = 2 + (next(seed) % 5) as u32;
    let pins: Vec<(usize, u32)> = (0..nconsts).map(|i| (i, i as u32)).collect();
    let natoms = 1 + (next(seed) % 6) as usize;
    let atoms: Vec<AtomSpec> = (0..natoms)
        .map(|_| {
            let pred = (next(seed) as usize) % npreds;
            let arity = preds[pred].1;
            AtomSpec {
                pred,
                args: (0..arity).map(|_| (next(seed) as u32) % nodes).collect(),
            }
        })
        .collect();
    (SigSpec { preds, consts }, StructSpec { nodes, pins, atoms })
}

/// A claim that is true by construction: the canonical query of the
/// structure's first atom, witnessed by that atom.
fn anchored_claim(st: &StructSpec) -> HoldsClaim {
    let a0 = &st.atoms[0];
    let free: Vec<u32> = (0..a0.args.len() as u32).collect();
    HoldsClaim {
        query: QuerySpec {
            name: "anchor".into(),
            free: free.clone(),
            body: vec![PatAtom {
                pred: a0.pred,
                terms: free.iter().map(|&v| TermSpec::Var(v)).collect(),
            }],
        },
        tuple: a0.args.clone(),
        witness: free.iter().map(|&v| (v, a0.args[v as usize])).collect(),
    }
}

fn gen_hom_witness(mut seed: u64) -> Certificate {
    let (sig, structure) = gen_world(&mut seed);
    let claim = anchored_claim(&structure);
    Certificate::HomWitness {
        sig,
        structure,
        claim,
    }
}

fn gen_finite_model(mut seed: u64) -> Certificate {
    let (sig, structure) = gen_world(&mut seed);
    // One trivially-satisfied full TGD per predicate: P(x̄) ⇒ P(x̄).
    let rules = sig
        .preds
        .iter()
        .enumerate()
        .map(|(p, (name, arity))| {
            let atom = PatAtom {
                pred: p,
                terms: (0..*arity as u32).map(TermSpec::Var).collect(),
            };
            cqfd_cert::RuleSpec {
                name: format!("copy-{name}"),
                body: vec![atom.clone()],
                head: vec![atom],
            }
        })
        .collect();
    let holds = vec![anchored_claim(&structure)];
    // A ground tuple absent from the structure (exists because the
    // domain is larger than the atom list).
    let a0 = &structure.atoms[0];
    let arity = a0.args.len();
    let absent = (0..structure.nodes).map(|n| vec![n; arity]).find(|t| {
        structure
            .atoms
            .iter()
            .all(|a| a.pred != a0.pred || &a.args != t)
    });
    let fails = absent
        .map(|tuple| {
            vec![FailsClaim {
                query: QuerySpec {
                    name: "absent".into(),
                    free: (0..arity as u32).collect(),
                    body: vec![PatAtom {
                        pred: a0.pred,
                        terms: (0..arity as u32).map(TermSpec::Var).collect(),
                    }],
                },
                tuple,
            }]
        })
        .unwrap_or_default();
    Certificate::FiniteModel {
        sig,
        rules,
        structure,
        holds,
        fails,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `parse(encode(c)) == c` and the checker accepts honest witnesses.
    #[test]
    fn hom_witness_roundtrips_and_checks(seed in 0u32..1_000_000) {
        let cert = gen_hom_witness(seed as u64);
        let text = encode(&cert);
        prop_assert_eq!(parse(&text).unwrap(), cert.clone());
        let report = check(&cert).unwrap();
        prop_assert!(!report.attestation);
    }

    /// Same for finite models with rules and holds/fails claims.
    #[test]
    fn finite_model_roundtrips_and_checks(seed in 0u32..1_000_000) {
        let cert = gen_finite_model(seed as u64);
        let text = encode(&cert);
        prop_assert_eq!(parse(&text).unwrap(), cert.clone());
        prop_assert!(check(&cert).is_ok(), "{:?}", check(&cert));
    }
}

/// An honest chase trace over the T∞-style path rule, produced by the
/// real recording engine.
fn path_trace(stages: usize) -> (Certificate, Vec<cqfd_cert::FiringSpec>) {
    let mut sigm = Signature::new();
    let r = sigm.add_predicate("R", 2);
    let sig = Arc::new(sigm);
    let v = |i| Term::Var(Var(i));
    let tgd = Tgd::new_unchecked(
        "path",
        vec![Atom::new(r, vec![v(0), v(1)])],
        vec![Atom::new(r, vec![v(1), v(2)])],
    );
    let engine = ChaseEngine::new(vec![tgd]).with_recording(true);
    let mut start = Structure::new(Arc::clone(&sig));
    let a = start.fresh_node();
    let b = start.fresh_node();
    start.add(r, &[a, b]);
    let run = engine.chase(&start, &ChaseBudget::stages(stages));
    let cert = convert::chase_trace(&sig, engine.tgds(), &start, &run, None);
    let firings = match &cert {
        Certificate::ChaseTrace { firings, .. } => firings.clone(),
        _ => unreachable!(),
    };
    (cert, firings)
}

#[test]
fn chase_trace_replays_and_roundtrips() {
    let (cert, firings) = path_trace(4);
    assert_eq!(firings.len(), 4);
    let report = check(&cert).unwrap();
    assert_eq!(report.steps, 4);
    assert_eq!(parse(&encode(&cert)).unwrap(), cert);
}

#[test]
fn chase_trace_goal_is_validated() {
    let (cert, _) = path_trace(3);
    let Certificate::ChaseTrace {
        sig,
        rules,
        start,
        firings,
        final_atoms,
        final_nodes,
        ..
    } = cert
    else {
        unreachable!()
    };
    // After 3 stages the path reaches R(3, 4).
    let goal = HoldsClaim {
        query: QuerySpec {
            name: "reach".into(),
            free: vec![0, 1],
            body: vec![PatAtom {
                pred: 0,
                terms: vec![TermSpec::Var(0), TermSpec::Var(1)],
            }],
        },
        tuple: vec![3, 4],
        witness: vec![(0, 3), (1, 4)],
    };
    let with_goal = Certificate::ChaseTrace {
        sig,
        rules,
        start,
        firings,
        final_atoms,
        final_nodes,
        goal: Some(goal),
    };
    assert!(check(&with_goal).is_ok());
    assert_eq!(parse(&encode(&with_goal)).unwrap(), with_goal);
}

#[test]
fn permuted_triggers_are_rejected() {
    let (cert, _) = path_trace(4);
    let Certificate::ChaseTrace {
        sig,
        rules,
        start,
        mut firings,
        final_atoms,
        final_nodes,
        goal,
    } = cert
    else {
        unreachable!()
    };
    // Stage 2's firing consumes stage 1's head atom; swapping them makes
    // the first replayed body atom nonexistent.
    firings.swap(0, 1);
    let tampered = Certificate::ChaseTrace {
        sig,
        rules,
        start,
        firings,
        final_atoms,
        final_nodes,
        goal,
    };
    let err = check(&tampered).unwrap_err();
    assert!(err.contains("not present"), "{err}");
}

#[test]
fn forged_final_counts_are_rejected() {
    let (cert, _) = path_trace(2);
    let Certificate::ChaseTrace {
        sig,
        rules,
        start,
        firings,
        final_atoms,
        final_nodes,
        goal,
    } = cert
    else {
        unreachable!()
    };
    let tampered = Certificate::ChaseTrace {
        sig,
        rules,
        start,
        firings,
        final_atoms: final_atoms + 1,
        final_nodes,
        goal,
    };
    assert!(check(&tampered).unwrap_err().contains("atoms"));
}

#[test]
fn dropped_atom_is_rejected() {
    // P(0,1) with the identity witness; deleting the atom breaks it.
    let honest = Certificate::HomWitness {
        sig: SigSpec {
            preds: vec![("P".into(), 2)],
            consts: vec![],
        },
        structure: StructSpec {
            nodes: 2,
            pins: vec![],
            atoms: vec![AtomSpec {
                pred: 0,
                args: vec![0, 1],
            }],
        },
        claim: HoldsClaim {
            query: QuerySpec {
                name: "Q".into(),
                free: vec![0, 1],
                body: vec![PatAtom {
                    pred: 0,
                    terms: vec![TermSpec::Var(0), TermSpec::Var(1)],
                }],
            },
            tuple: vec![0, 1],
            witness: vec![(0, 0), (1, 1)],
        },
    };
    assert!(check(&honest).is_ok());
    let Certificate::HomWitness {
        sig,
        mut structure,
        claim,
    } = honest
    else {
        unreachable!()
    };
    structure.atoms.clear();
    let tampered = Certificate::HomWitness {
        sig,
        structure,
        claim,
    };
    let err = check(&tampered).unwrap_err();
    assert!(err.contains("not in the structure"), "{err}");
}

#[test]
fn wrong_variable_map_is_rejected() {
    let honest = gen_hom_witness(7);
    let Certificate::HomWitness {
        sig,
        structure,
        mut claim,
    } = honest
    else {
        unreachable!()
    };
    // Redirect the first free variable somewhere else; the witness then
    // disagrees with the tuple it claims to prove.
    claim.witness[0].1 = (claim.witness[0].1 + 1) % structure.nodes;
    let tampered = Certificate::HomWitness {
        sig,
        structure,
        claim,
    };
    let err = check(&tampered).unwrap_err();
    assert!(
        err.contains("disagrees") || err.contains("not in the structure"),
        "{err}"
    );
}

#[test]
fn truncated_text_is_rejected() {
    let cert = gen_hom_witness(11);
    let text = encode(&cert);
    let truncated = text.rsplit_once("end").unwrap().0;
    assert!(parse(truncated).unwrap_err().contains("truncated"));
    assert!(parse("").unwrap_err().contains("empty"));
    assert!(parse("cqfd-cert v2 hom-witness\nend\n")
        .unwrap_err()
        .contains("version"));
}

#[test]
fn creep_trace_halting_worm() {
    let d = counter_worm(2);
    let expected = match cqfd_rainworm::creep(&d, 100_000) {
        cqfd_rainworm::CreepOutcome::Halted { steps, .. } => steps,
        other => panic!("counter_worm(2) must halt, got {other:?}"),
    };
    let cert = creep_certificate(&d, 100_000, 10);
    let report = check(&cert).unwrap();
    assert_eq!(report.steps, expected);
    assert!(
        report
            .summary
            .contains(&format!("halted at step {expected}")),
        "{}",
        report.summary
    );
    assert_eq!(parse(&encode(&cert)).unwrap(), cert);

    // Claiming the halting worm still creeps must fail…
    let Certificate::CreepTrace {
        delta, checkpoints, ..
    } = cert.clone()
    else {
        unreachable!()
    };
    let lying = Certificate::CreepTrace {
        delta,
        checkpoints,
        halted: false,
    };
    assert!(check(&lying).unwrap_err().contains("halts"));

    // …and so must a corrupted checkpoint.
    let Certificate::CreepTrace {
        delta,
        mut checkpoints,
        halted,
    } = cert
    else {
        unreachable!()
    };
    let mid = checkpoints.len() / 2;
    checkpoints[mid].1 = "α η11".into();
    let corrupt = Certificate::CreepTrace {
        delta,
        checkpoints,
        halted,
    };
    assert!(check(&corrupt).is_err());
}

#[test]
fn creep_trace_forever_worm() {
    let cert = creep_certificate(&forever_worm(), 200, 25);
    let report = check(&cert).unwrap();
    assert_eq!(report.steps, 200);
    assert!(report.summary.contains("still creeping"));
}

#[test]
fn pattern_certificate_on_a_green_graph() {
    let mut labels = Label::all_grid_labels();
    labels.push(Label::Alpha);
    let space = Arc::new(LabelSpace::new(labels));
    let mut g = GreenGraph::empty(Arc::clone(&space));
    let x = g.fresh_node();
    let xp = g.fresh_node();
    let y = g.fresh_node();
    g.add_edge(Label::ONE, x, y);
    g.add_edge(Label::TWO, xp, y);
    let cert = pattern_certificate(&g).expect("pattern present");
    assert!(check(&cert).is_ok());
    assert_eq!(parse(&encode(&cert)).unwrap(), cert);

    // Tampering the witness to point at the wrong target edge fails.
    let Certificate::FiniteModel {
        sig,
        rules,
        structure,
        mut holds,
        fails,
    } = cert
    else {
        unreachable!()
    };
    holds[0].witness[2].1 = x.0;
    let tampered = Certificate::FiniteModel {
        sig,
        rules,
        structure,
        holds,
        fails,
    };
    assert!(check(&tampered).is_err());

    // A graph without the pattern yields no certificate.
    let g2 = GreenGraph::di(space);
    assert!(pattern_certificate(&g2).is_none());
}

#[test]
fn attestation_is_flagged() {
    let cert = Certificate::NonHomRefutation {
        sig: SigSpec {
            preds: vec![("R".into(), 2)],
            consts: vec![],
        },
        what: "counterexample search over structures with ≤ 3 nodes".into(),
        bound: 3,
        explored: 12345,
    };
    let report = check(&cert).unwrap();
    assert!(report.attestation);
    assert_eq!(parse(&encode(&cert)).unwrap(), cert);
    let zero = Certificate::NonHomRefutation {
        sig: SigSpec {
            preds: vec![],
            consts: vec![],
        },
        what: "x".into(),
        bound: 0,
        explored: 0,
    };
    assert!(check(&zero).is_err());
}
