//! Regenerates every experiment series reported in EXPERIMENTS.md.
//!
//! ```text
//! cargo run --release --example experiments
//! ```
//!
//! Output is markdown-flavoured so it can be pasted into EXPERIMENTS.md.

use cqfd::chase::ChaseBudget;
use cqfd::core::Cq;
use cqfd::fogames::ef::ef_equivalent;
use cqfd::fogames::theorem2::{attempt1, attempt2_equivalent, chase_world, projection_equalities};
use cqfd::greengraph::pg::words_of;
use cqfd::greengraph::{GreenGraph, LabelSpace};
use cqfd::greenred::{search_counterexample, Color, DeterminacyOracle};
use cqfd::rainworm::countermodel::build_countermodel;
use cqfd::rainworm::encode::tm_to_rainworm;
use cqfd::rainworm::families::{counter_worm, forever_worm, halting_worm_short};
use cqfd::rainworm::run::{creep, CreepOutcome};
use cqfd::rainworm::tm::TuringMachine;
use cqfd::rainworm::to_rules::tm_rules;
use cqfd::reduction::reduce;
use cqfd::separating::theorem14::{chase_from_di, chase_from_lasso, separating_space};
use cqfd::separating::tinf::{t_infinity, tinf_labels};
use cqfd::separating::{t_square, t_square_as_printed};
use cqfd_obs::Stopwatch;
use std::sync::Arc;

fn wide(stages: usize) -> ChaseBudget {
    ChaseBudget {
        max_stages: stages,
        max_atoms: 1 << 22,
        max_nodes: 1 << 22,
        ..ChaseBudget::default()
    }
}

fn main() {
    e_fig1();
    e_fig3();
    e_fig4();
    e_sep();
    e_rw();
    e_tm();
    e_viiie();
    e_red();
    e_det();
    e_fo();
}

fn e_fig1() {
    println!("## E-FIG1 — chase(T∞, DI), the Figure 1 series\n");
    println!("| stages | edges | vertices | words | one application per stage |");
    println!("|---|---|---|---|---|");
    let sys = t_infinity();
    for stages in [4usize, 8, 16, 32] {
        let g = GreenGraph::di(Arc::new(LabelSpace::new(tinf_labels())));
        let (out, run) = sys.chase(&g, &wide(stages));
        let one_per = run.stages.iter().all(|s| s.applications == 1);
        let words = words_of(&out, 2 * stages + 4, 100_000);
        println!(
            "| {stages} | {} | {} | {} | {one_per} |",
            out.edge_count(),
            out.node_count(),
            words.len()
        );
    }
    println!();
}

fn e_fig3() {
    println!("## E-FIG3 / E-SEP — grids over folded paths (Figures 2–3)\n");
    println!("| lasso (n, period) | 1-2 pattern | stages | edges at stop |");
    println!("|---|---|---|---|");
    for (n, p) in [(3usize, 1usize), (4, 1), (4, 2), (5, 2), (5, 3), (6, 2)] {
        let (out, run, found) = chase_from_lasso(n, p, 120);
        println!(
            "| ({n}, {p}) | {found} | {} | {} |",
            run.stage_count(),
            out.edge_count()
        );
    }
    println!("\nE-GRID ablation (rules exactly as printed — the ⟨w⟩/⟨e⟩ typo):\n");
    let literal = t_infinity().union(&t_square_as_printed());
    let lasso = cqfd::separating::tinf::lasso_model(separating_space(), 3, 1);
    let (out, run, found) = literal.chase_until_12(&lasso, &wide(25));
    println!(
        "* lasso(3,1), literal rules: pattern = {found} after {} stages, {} edges, label ⟨n,α,d̄,b̄⟩ count = {}",
        run.stage_count(),
        out.edge_count(),
        out.edges_with(cqfd::greengraph::Label::ONE).count()
    );
    println!();
}

fn e_fig4() {
    println!("## E-FIG4 — harmless diagonal grids M_t (Figure 4)\n");
    println!("| prefix t | path edges | total edges at fixpoint | stages | 1-2 pattern |");
    println!("|---|---|---|---|---|");
    for t in [2usize, 3, 4, 5, 6] {
        let (g, _, _) = cqfd::separating::tinf::alpha_beta_chase_graph(separating_space(), t);
        let before = g.edge_count();
        let (out, run, found) = t_square().chase_until_12(&g, &wide(500));
        println!(
            "| {t} | {before} | {} | {} | {found} |",
            out.edge_count(),
            run.stage_count()
        );
    }
    println!();
}

fn e_sep() {
    println!("## E-SEP — Theorem 14, both halves\n");
    let (_, run, found) = chase_from_di(12);
    println!(
        "* unrestricted: chase(T, DI) for {} stages → 1-2 pattern: {found}",
        run.stage_count()
    );
    let (_, run, found) = chase_from_lasso(3, 1, 60);
    println!(
        "* finite: chase from lasso(3,1) → 1-2 pattern: {found} (after {} stages)",
        run.stage_count()
    );
    println!();
}

fn e_rw() {
    println!("## E-RW — rainworm dynamics (Lemmas 20/22/23)\n");
    println!("| machine | outcome | k_M | |u_M| | slime |");
    println!("|---|---|---|---|---|");
    for (name, d, budget) in [
        ("forever_worm", forever_worm(), 2_000usize),
        ("halting_worm_short", halting_worm_short(), 10_000),
        ("counter_worm(1)", counter_worm(1), 2_000_000),
        ("counter_worm(2)", counter_worm(2), 2_000_000),
        ("counter_worm(4)", counter_worm(4), 2_000_000),
        ("counter_worm(8)", counter_worm(8), 2_000_000),
    ] {
        match creep(&d, budget) {
            CreepOutcome::Halted {
                steps,
                final_config,
            } => println!(
                "| {name} | halts | {steps} | {} | {} |",
                final_config.len(),
                final_config.slime().len()
            ),
            CreepOutcome::StillCreeping { steps, config } => println!(
                "| {name} | creeping after {steps} | — | {} | {} |",
                config.len(),
                config.slime().len()
            ),
        }
    }
    println!();
}

fn e_tm() {
    println!("## E-TM — the TM → rainworm compiler (Lemma 21)\n");
    println!("| TM | TM halts (steps) | ∆ size | worm halts (steps) |");
    println!("|---|---|---|---|");
    let machines: Vec<(String, TuringMachine)> = vec![
        ("right_walker(2)".into(), TuringMachine::right_walker(2)),
        ("right_walker(4)".into(), TuringMachine::right_walker(4)),
        ("zigzag(3)".into(), TuringMachine::zigzag(3)),
        ("forever_right".into(), TuringMachine::forever_right()),
    ];
    for (name, tm) in machines {
        let tm_out = match tm.run(100_000) {
            cqfd::rainworm::tm::TmOutcome::Halted { steps, .. } => format!("yes ({steps})"),
            _ => "no".into(),
        };
        let delta = tm_to_rainworm(&tm);
        let worm_out = match creep(&delta, 2_000_000) {
            CreepOutcome::Halted { steps, .. } => format!("yes ({steps})"),
            _ => "no".into(),
        };
        println!("| {name} | {tm_out} | {} | {worm_out} |", delta.len());
    }
    println!();
}

fn e_viiie() {
    println!("## E-VIIIE — the §VIII.E finite counter-models\n");
    println!(
        "| worm | k_M | |M| edges | |M̂| edges | M̂ ⊨ T_M∆ | M̂ ⊨ T□ | 1-2 pattern | build time |"
    );
    println!("|---|---|---|---|---|---|---|---|");
    for (name, d) in [
        ("halting_worm_short".to_string(), halting_worm_short()),
        ("counter_worm(1)".into(), counter_worm(1)),
        ("counter_worm(2)".into(), counter_worm(2)),
        ("counter_worm(3)".into(), counter_worm(3)),
    ] {
        let t0 = Stopwatch::start();
        let cm = build_countermodel(&d, &t_square(), 2_000_000).unwrap();
        let dt = t0.elapsed();
        let tm = tm_rules(&d);
        println!(
            "| {name} | {} | {} | {} | {} | {} | {} | {dt:.2?} |",
            cm.k_m,
            cm.m.edge_count(),
            cm.m_hat.edge_count(),
            tm.is_model(&cm.m_hat),
            t_square().is_model(&cm.m_hat),
            cm.m_hat.has_12_pattern()
        );
    }
    println!();
}

fn e_red() {
    println!("## E-RED — Theorem 5 reduction sizes\n");
    println!("| machine | |∆| | L2 rules | L1 rules | CQs | s | total atoms |");
    println!("|---|---|---|---|---|---|---|");
    for (name, d) in [
        ("forever_worm".to_string(), forever_worm()),
        ("counter_worm(1)".into(), counter_worm(1)),
        ("counter_worm(2)".into(), counter_worm(2)),
        ("counter_worm(4)".into(), counter_worm(4)),
    ] {
        let s = reduce(&d).stats;
        println!(
            "| {name} | {} | {} | {} | {} | {} | {} |",
            d.len(),
            s.l2_rules,
            s.l1_rules,
            s.queries,
            s.s,
            s.total_atoms
        );
    }
    println!();
}

fn e_det() {
    println!("## E-DET — the determinacy oracle on everyday instances\n");
    let mut sig = cqfd::core::Signature::new();
    sig.add_predicate("R", 2);
    sig.add_predicate("S", 2);
    let oracle = DeterminacyOracle::new(sig.clone());
    println!("| views | Q0 | verdict | witness |");
    println!("|---|---|---|---|");
    let cases = [
        (vec!["V(x,y) :- R(x,y)"], "Q0(x,y) :- R(x,y)"),
        (
            vec!["V1(x,y) :- R(x,y)", "V2(x,y) :- S(x,y)"],
            "Q0(x,z) :- R(x,y), S(y,z)",
        ),
        (vec!["V(x) :- R(x,y)"], "Q0(x,y) :- R(x,y)"),
        (vec!["V(x,y) :- S(x,y)"], "Q0(x,y) :- R(x,y)"),
    ];
    for (views, q0s) in cases {
        let vq: Vec<Cq> = views.iter().map(|v| Cq::parse(&sig, v).unwrap()).collect();
        let q0 = Cq::parse(&sig, q0s).unwrap();
        let verdict = oracle.try_certify(&vq, &q0, 24).unwrap();
        let witness = if verdict.is_determined() {
            "—".to_string()
        } else {
            match search_counterexample(&oracle, &vq, &q0, 3) {
                Some((d, _)) => format!("{} atoms", d.atom_count()),
                None => "none ≤ 3 nodes".into(),
            }
        };
        println!(
            "| {} | {} | {:?} | {} |",
            views.join("; "),
            q0s,
            verdict,
            witness
        );
    }
    println!();
}

fn e_fo() {
    println!("## E-FO1 / E-FO2 — Theorem 2: the girls and their views\n");
    let w = chase_world(10, false);
    println!("Attempt 1 — the §IX.A projection sentence (II-eq, III-eq):\n");
    println!("| stage | Grace (green) | Ruby (red) |");
    println!("|---|---|---|");
    for i in 4..=10 {
        let dy = w.stage_dalt(i, Color::Green);
        let dn = w.stage_dalt(i, Color::Red);
        println!(
            "| {i} | {:?} | {:?} |",
            projection_equalities(&w, &dy),
            projection_equalities(&w, &dn)
        );
    }
    let (vy, py, vn, pn) = attempt1(&w, 9);
    println!(
        "\nAttempt 1 EF ranks (stage 9): rank1 = {}, rank2 = {}, rank3 = {}",
        ef_equivalent(&vy, &py, &vn, &pn, 1),
        ef_equivalent(&vy, &py, &vn, &pn, 2),
        ef_equivalent(&vy, &py, &vn, &pn, 3)
    );
    println!("\nAttempt 2 (padded) EF equivalence:\n");
    println!("| i | rank 1 | rank 2 |");
    println!("|---|---|---|");
    for i in [2usize, 3, 4] {
        println!(
            "| {i} | {} | {} |",
            attempt2_equivalent(&w, i, 1),
            attempt2_equivalent(&w, i, 2)
        );
    }
    println!();
}
