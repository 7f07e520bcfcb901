//! Benchmark: one full User-Matching run, sequential and rayon.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use snr_bench::Workload;
use snr_core::{Backend, MatchingConfig, UserMatching};
use std::hint::black_box;

fn bench_full_algorithm(c: &mut Criterion) {
    let mut group = c.benchmark_group("user_matching/full_run");
    group.sample_size(10);
    for &n in &[1_000usize, 2_000, 4_000] {
        let workload = Workload::pa(n, 10, 0.5, 0.10, 7);
        group.bench_with_input(BenchmarkId::from_parameter(n), &workload, |b, w| {
            let config = MatchingConfig::default().with_threshold(2).with_iterations(1);
            b.iter(|| {
                black_box(UserMatching::new(config.clone()).run(&w.pair.g1, &w.pair.g2, &w.seeds))
            })
        });
    }
    group.finish();
}

/// The full matcher on the rayon backend — the end-to-end number the
/// arena-scorer speedup target is recorded against.
fn bench_full_algorithm_rayon(c: &mut Criterion) {
    let mut group = c.benchmark_group("user_matching/full_run_rayon");
    group.sample_size(10);
    let workload = Workload::pa(4_000, 10, 0.5, 0.10, 7);
    group.bench_with_input(BenchmarkId::from_parameter(4_000), &workload, |b, w| {
        let config = MatchingConfig::default()
            .with_threshold(2)
            .with_iterations(1)
            .with_backend(Backend::Rayon);
        b.iter(|| {
            black_box(UserMatching::new(config.clone()).run(&w.pair.g1, &w.pair.g2, &w.seeds))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_full_algorithm, bench_full_algorithm_rayon);
criterion_main!(benches);
