//! E-FIG3 / E-SEP: regenerating Figure 3 — grid growth over folded
//! αβ-paths until the 1-2 pattern emerges, and the E-GRID ablation with
//! the rules exactly as printed.

use cqfd_bench::wide_budget;
use cqfd_separating::theorem14::{chase_from_lasso, separating_space};
use cqfd_separating::tinf::{lasso_model, t_infinity};
use cqfd_separating::{t_square, t_square_as_printed};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_fig3(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3_grid");
    group.sample_size(10);
    for (n, p) in [(3usize, 1usize), (4, 2), (5, 3), (6, 2)] {
        group.bench_with_input(
            BenchmarkId::new("lasso_to_pattern", format!("n{n}p{p}")),
            &(n, p),
            |b, &(n, p)| {
                b.iter(|| {
                    let (_, run, found) = chase_from_lasso(n, p, 100);
                    assert!(found);
                    run.atom_count()
                });
            },
        );
    }
    // E-GRID ablation: the literal transcription never finds the pattern.
    group.bench_function("ablation_as_printed_n3p1", |b| {
        let sys = t_infinity().union(&t_square_as_printed());
        let g = lasso_model(separating_space(), 3, 1);
        b.iter(|| {
            let (_, _, found) = sys.chase_until_12(&g, &wide_budget(20));
            assert!(!found);
        });
    });
    group.finish();

    // Shape series for EXPERIMENTS.md: stages/edges until pattern, by fold.
    for (n, p) in [(3usize, 1usize), (4, 2), (5, 3)] {
        let (out, run, found) = chase_from_lasso(n, p, 100);
        println!(
            "[fig3] lasso(n={n},p={p}): pattern={found} after {} stages, {} edges",
            run.stage_count(),
            out.edge_count()
        );
    }
    let _ = t_square();
}

criterion_group!(benches, bench_fig3);
criterion_main!(benches);
