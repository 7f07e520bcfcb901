//! Differential test for the common-neighbor baseline: on random PA/ER
//! graph pairs, for every execution backend and one or two passes,
//! `BaselineMatching` must produce exactly the links and per-pass counters
//! of the brute-force oracle loop `count_brute_force(.., 1, 1)` →
//! `mutual_best_pairs` → insert.

use rand::rngs::StdRng;
use rand::SeedableRng;
use snr_core::baseline::{BaselineConfig, BaselineMatching};
use snr_core::matching::mutual_best_pairs;
use snr_core::witness::count_brute_force;
use snr_core::{Backend, Linking};
use snr_generators::{gnp, preferential_attachment};
use snr_graph::{CsrGraph, NodeId};
use snr_sampling::independent::independent_deletion_symmetric;
use snr_sampling::sample_seeds;

/// One random reconciliation workload: two partial copies and seed links.
fn workload(
    use_pa: bool,
    n: usize,
    density: u32,
    seed: u64,
) -> (CsrGraph, CsrGraph, Vec<(NodeId, NodeId)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = if use_pa {
        preferential_attachment(n.max(10), 2 + density as usize, &mut rng).unwrap()
    } else {
        let p = (2.0 + density as f64) * 2.0 / n as f64;
        gnp(n, p.min(0.9), &mut rng).unwrap()
    };
    let pair = independent_deletion_symmetric(&g, 0.6, &mut rng).unwrap();
    let seeds = sample_seeds(&pair, 0.1, &mut rng).unwrap();
    (pair.g1, pair.g2, seeds)
}

/// The baseline spelled out on the oracle: every pass scores all pairs at
/// minimum degree 1, keeps the mutual bests, and inserts them. Returns the
/// final links and each pass's `(scored_pairs, new_links)`.
fn oracle_baseline(
    g1: &CsrGraph,
    g2: &CsrGraph,
    seeds: &[(NodeId, NodeId)],
    threshold: u32,
    passes: u32,
) -> (Linking, Vec<(usize, usize)>) {
    let mut links = Linking::with_seeds(g1.node_count(), g2.node_count(), seeds);
    let mut per_pass = Vec::new();
    for _ in 0..passes {
        let table = count_brute_force(g1, g2, &links, 1, 1);
        let mut new_links = 0;
        for (u, v) in mutual_best_pairs(&table, threshold) {
            if links.insert(u, v) {
                new_links += 1;
            }
        }
        per_pass.push((table.len(), new_links));
    }
    (links, per_pass)
}

fn assert_matches_oracle(use_pa: bool, n: usize, density: u32, threshold: u32, seed: u64) {
    let (g1, g2, seeds) = workload(use_pa, n, density, seed);
    for passes in [1u32, 2] {
        let (links, per_pass) = oracle_baseline(&g1, &g2, &seeds, threshold, passes);
        for backend in [Backend::Sequential, Backend::Rayon, Backend::MapReduce { workers: 2 }] {
            let label = format!("pa={use_pa} n={n} t={threshold} passes={passes} {backend:?}");
            let outcome = BaselineMatching::new(BaselineConfig { threshold, passes, backend })
                .run(&g1, &g2, &seeds);
            assert_eq!(outcome.links, links, "links ({label})");
            let got: Vec<(usize, usize)> =
                outcome.phases.iter().map(|p| (p.scored_pairs, p.new_links)).collect();
            assert_eq!(got, per_pass, "per-pass (scored_pairs, new_links) ({label})");
            for (i, phase) in outcome.phases.iter().enumerate() {
                assert_eq!(phase.iteration, i as u32 + 1, "pass number ({label})");
                assert_eq!(phase.bucket, 0, "the baseline does not bucket ({label})");
            }
        }
    }
}

proptest::proptest! {
    #[test]
    fn baseline_matches_the_brute_force_oracle_loop(
        n in 40usize..120,
        density in 0u32..4,
        threshold in 1u32..3,
        seed in 0u64..10_000,
    ) {
        assert_matches_oracle(seed % 2 == 0, n, density, threshold, seed);
    }
}

/// A fixed-size version of the property, easy to reproduce without the
/// proptest driver.
#[test]
fn baseline_matches_the_oracle_on_fixed_workloads() {
    assert_matches_oracle(true, 150, 3, 1, 5);
    assert_matches_oracle(false, 150, 2, 1, 6);
}
