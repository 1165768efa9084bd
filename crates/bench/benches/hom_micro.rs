//! Engine-only microbenchmark: per-call cost of `for_each_bindings` /
//! `exists_seeded` on the two call shapes the chase actually issues —
//! a delta-seeded body enumeration and a fully-seeded head probe — with
//! no chase machinery in the loop. Prints ns/call per engine; emits no
//! JSON (this is a tuning aid, not a tracked trajectory).

use cqfd_core::{Atom, HomPlan, Signature, Structure, Term, Var, WcoPlan};
use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let mut sig = Signature::new();
    let r = sig.add_predicate("R", 2);
    let s = sig.add_predicate("S", 2);
    let sig = Arc::new(sig);
    let mut d = Structure::new(Arc::clone(&sig));
    // A sparse random-ish digraph: 600 nodes, ~3 out-edges each, plus an
    // S-edge per node — the density regime of a mid-chase snapshot.
    let nodes: Vec<_> = (0..600).map(|_| d.fresh_node()).collect();
    let mut x = 1u64;
    let mut rnd = || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) as usize
    };
    for i in 0..nodes.len() {
        for _ in 0..3 {
            let j = rnd() % nodes.len();
            d.add(r, &[nodes[i], nodes[j]]);
        }
        let j = rnd() % nodes.len();
        d.add(s, &[nodes[i], nodes[j]]);
    }

    // Body shape: R(x,y), S(y,z) seeded on x — the per-delta enumeration.
    let body = vec![
        Atom::new(r, vec![Term::Var(Var(0)), Term::Var(Var(1))]),
        Atom::new(s, vec![Term::Var(Var(1)), Term::Var(Var(2))]),
    ];
    // Head shape: S(x,z) fully seeded — the per-match satisfaction probe.
    let head = vec![Atom::new(s, vec![Term::Var(Var(0)), Term::Var(Var(2))])];

    let legacy_body = HomPlan::compile(&body, &d);
    let wco_body = WcoPlan::compile(&body, &d);
    let legacy_head = HomPlan::compile(&head, &d);
    let wco_head = WcoPlan::compile(&head, &d);
    let limits2 = [u32::MAX; 2];
    let limits1 = [u32::MAX; 1];

    const ITERS: usize = 200;
    let report = |name: &str, per_iter: usize, f: &mut dyn FnMut() -> u64| {
        f(); // warm
        let t0 = Instant::now();
        let mut sink = 0u64;
        for _ in 0..ITERS {
            sink = sink.wrapping_add(f());
        }
        let total = t0.elapsed().as_nanos() as u64;
        let calls = (ITERS * per_iter) as u64;
        println!("{name}: {} ns/call (sink {sink})", total / calls);
    };

    // Compile shape: the chase recompiles both plans once per slice —
    // thousands of compiles per run — so per-compile cost is hot too.
    report("legacy compile   ", 1, &mut || {
        let p = HomPlan::compile(&body, &d);
        u64::from(p.slot(Var(0)).unwrap())
    });
    report("wco    compile   ", 1, &mut || {
        let p = WcoPlan::compile(&body, &d);
        u64::from(p.slot(Var(0)).unwrap())
    });

    let s0l = legacy_body.slot(Var(0)).unwrap();
    let s0w = wco_body.slot(Var(0)).unwrap();
    report("legacy body enum ", nodes.len(), &mut || {
        let mut n = 0u64;
        for &seed in &nodes {
            let _: ControlFlow<()> =
                legacy_body.for_each_bindings(&[(s0l, seed)], &limits2, |_| {
                    n += 1;
                    ControlFlow::Continue(())
                });
        }
        n
    });
    report("wco    body enum ", nodes.len(), &mut || {
        let mut n = 0u64;
        for &seed in &nodes {
            let _: ControlFlow<()> = wco_body.for_each_bindings(&[(s0w, seed)], &limits2, |_| {
                n += 1;
                ControlFlow::Continue(())
            });
        }
        n
    });

    // Delta shape: the chase's delta-seeded slice fully grounds the seeded
    // atom (both vars of R) and caps every atom at the frozen prefix.
    let n_atoms = d.atom_count() as u32;
    let delta_limits = [n_atoms - 100, n_atoms];
    let s1l = legacy_body.slot(Var(1)).unwrap();
    let s1w = wco_body.slot(Var(1)).unwrap();
    let delta_rows: Vec<(cqfd_core::Node, cqfd_core::Node)> = d
        .atoms()
        .filter(|a| a.pred == r)
        .map(|a| (a.args[0], a.args[1]))
        .collect();
    report("legacy delta enum", delta_rows.len(), &mut || {
        let mut n = 0u64;
        for &(a0, a1) in &delta_rows {
            let _: ControlFlow<()> =
                legacy_body.for_each_bindings(&[(s0l, a0), (s1l, a1)], &delta_limits, |_| {
                    n += 1;
                    ControlFlow::Continue(())
                });
        }
        n
    });
    report("wco    delta enum", delta_rows.len(), &mut || {
        let mut n = 0u64;
        for &(a0, a1) in &delta_rows {
            let _: ControlFlow<()> =
                wco_body.for_each_bindings(&[(s0w, a0), (s1w, a1)], &delta_limits, |_| {
                    n += 1;
                    ControlFlow::Continue(())
                });
        }
        n
    });

    let h0l = legacy_head.slot(Var(0)).unwrap();
    let h2l = legacy_head.slot(Var(2)).unwrap();
    let h0w = wco_head.slot(Var(0)).unwrap();
    let h2w = wco_head.slot(Var(2)).unwrap();
    report("legacy head probe", nodes.len() - 1, &mut || {
        let mut n = 0u64;
        for w in nodes.windows(2) {
            n += u64::from(legacy_head.exists_seeded(&[(h0l, w[0]), (h2l, w[1])], &limits1));
        }
        n
    });
    report("wco    head probe", nodes.len() - 1, &mut || {
        let mut n = 0u64;
        for w in nodes.windows(2) {
            n += u64::from(wco_head.exists_seeded(&[(h0w, w[0]), (h2w, w[1])], &limits1));
        }
        n
    });
}
