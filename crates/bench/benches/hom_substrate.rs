//! Substrate baseline: homomorphism search and CQ evaluation on random
//! graphs — the engine every experiment runs on.

use cqfd_core::{Cq, Node, Signature, Structure};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn random_graph(n: u32, m: usize, seed: u64) -> (Arc<Signature>, Structure) {
    let mut sig = Signature::new();
    sig.add_predicate("E", 2);
    let sig = Arc::new(sig);
    let e = sig.predicate("E").unwrap();
    let mut d = Structure::new(Arc::clone(&sig));
    for _ in 0..n {
        d.fresh_node();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..m {
        let x = Node(rng.gen_range(0..n));
        let y = Node(rng.gen_range(0..n));
        d.add(e, &[x, y]);
    }
    (sig, d)
}

fn bench_hom(c: &mut Criterion) {
    let mut group = c.benchmark_group("hom_substrate");
    for &(n, m) in &[(50u32, 200usize), (200, 1000), (500, 3000)] {
        let (sig, d) = random_graph(n, m, 7);
        let path3 = Cq::parse(&sig, "P(w,z) :- E(w,x), E(x,y), E(y,z)").unwrap();
        group.bench_with_input(
            BenchmarkId::new("boolean_3path", format!("n{n}m{m}")),
            &(),
            |b, _| b.iter(|| path3.holds_boolean(&d)),
        );
        let tri = Cq::parse(&sig, "T() :- E(x,y), E(y,z), E(z,x)").unwrap();
        group.bench_with_input(
            BenchmarkId::new("boolean_triangle", format!("n{n}m{m}")),
            &(),
            |b, _| b.iter(|| tri.holds_boolean(&d)),
        );
    }
    // Full evaluation (all answers) on a mid-size graph.
    let (sig, d) = random_graph(100, 400, 11);
    let q = Cq::parse(&sig, "Q(x,z) :- E(x,y), E(y,z)").unwrap();
    group.bench_function("eval_2path_answers_n100", |b| b.iter(|| q.eval(&d).len()));
    group.finish();
}

criterion_group!(benches, bench_hom);
criterion_main!(benches);
