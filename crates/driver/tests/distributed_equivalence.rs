//! The distributed driver is the sequential algorithm, only scheduled
//! across processes: for every worker count and every store mode, the
//! multi-process run must produce a link set **bit-identical** to
//! `UserMatching` on the same workload — same pairs, same per-phase
//! `scored_pairs` and `new_links` counters.

use rand::rngs::StdRng;
use rand::SeedableRng;
use snr_core::{MatchingConfig, UserMatching};
use snr_driver::{run_distributed, DriverConfig, DriverStore};
use snr_generators::{gnp, preferential_attachment, rmat, RmatConfig};
use snr_graph::{CsrGraph, NodeId};
use snr_sampling::independent::independent_deletion_symmetric;
use snr_sampling::{sample_seeds, RealizationPair};
use std::path::PathBuf;
use std::time::Duration;

fn workload(seed: u64, g: CsrGraph, s: f64, l: f64) -> (RealizationPair, Vec<(NodeId, NodeId)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let pair = independent_deletion_symmetric(&g, s, &mut rng).unwrap();
    let seeds = sample_seeds(&pair, l, &mut rng).unwrap();
    (pair, seeds)
}

fn pa_workload(seed: u64, n: usize, m: usize) -> (RealizationPair, Vec<(NodeId, NodeId)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = preferential_attachment(n, m, &mut rng).unwrap();
    workload(seed ^ 0xA5, g, 0.6, 0.10)
}

/// Cargo builds the worker bin before this test crate runs and exposes its
/// path at compile time — the tests never rely on directory guessing.
fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_snr-driver-worker"))
}

fn driver_config(workers: usize, store: DriverStore, matching: MatchingConfig) -> DriverConfig {
    let mut config = DriverConfig::new(workers);
    config.matching = matching;
    config.store = store;
    config.task_timeout = Duration::from_secs(120);
    config.worker_bin = Some(worker_bin());
    // Never inherit a fault spec from the ambient environment.
    config.fault = None;
    config
}

/// Runs the sequential reference and the distributed driver on one
/// workload and asserts full-outcome equality.
fn assert_driver_matches(
    pair: &RealizationPair,
    seeds: &[(NodeId, NodeId)],
    matching: MatchingConfig,
    workers: usize,
    store: DriverStore,
    label: &str,
) {
    let reference = UserMatching::new(matching.clone()).run(&pair.g1, &pair.g2, seeds);
    let config = driver_config(workers, store, matching);
    let distributed = run_distributed(&pair.g1, &pair.g2, seeds, config)
        .unwrap_or_else(|e| panic!("driver run failed on {label}: {e}"));
    assert_eq!(distributed.links, reference.links, "links differ on {label}");
    assert_eq!(distributed.phases.len(), reference.phases.len(), "phase count differs on {label}");
    for (d, r) in distributed.phases.iter().zip(&reference.phases) {
        assert_eq!(
            (d.iteration, d.bucket, d.scored_pairs, d.new_links, d.total_links),
            (r.iteration, r.bucket, r.scored_pairs, r.new_links, r.total_links),
            "phase counters differ on {label}"
        );
    }
}

#[test]
fn driver_matches_sequential_across_worker_counts_and_stores() {
    let (pair, seeds) = pa_workload(61, 1_200, 6);
    let matching = MatchingConfig::default().with_threshold(2).with_iterations(2);
    for workers in [1, 2, 4] {
        for store in [DriverStore::Mmap, DriverStore::Sharded(3)] {
            assert_driver_matches(
                &pair,
                &seeds,
                matching.clone(),
                workers,
                store,
                &format!("driver:{workers} x {store:?}"),
            );
        }
    }
}

#[test]
fn driver_matches_sequential_on_er_and_rmat_families() {
    let mut rng = StdRng::seed_from_u64(62);
    let er = gnp(1_500, 0.008, &mut rng).unwrap();
    let (pair, seeds) = workload(62, er, 0.55, 0.12);
    let matching = MatchingConfig::default().with_threshold(1).with_iterations(2);
    assert_driver_matches(&pair, &seeds, matching, 2, DriverStore::Mmap, "driver:2 on ER");

    let mut rng = StdRng::seed_from_u64(63);
    let rm = rmat(&RmatConfig::graph500(10, 8), &mut rng).unwrap();
    let (pair, seeds) = workload(63, rm, 0.6, 0.10);
    let matching = MatchingConfig::default().with_threshold(3).with_iterations(2);
    assert_driver_matches(
        &pair,
        &seeds,
        matching,
        2,
        DriverStore::Sharded(2),
        "driver:2 sharded on RMAT",
    );
}

#[test]
fn driver_matches_sequential_across_thresholds() {
    let (pair, seeds) = pa_workload(64, 900, 8);
    for threshold in [1, 3] {
        let matching = MatchingConfig::default().with_threshold(threshold).with_iterations(2);
        for store in [DriverStore::Mmap, DriverStore::Sharded(3)] {
            assert_driver_matches(
                &pair,
                &seeds,
                matching.clone(),
                2,
                store,
                &format!("driver:2 x {store:?} at T={threshold}"),
            );
        }
    }
}

#[test]
fn driver_runs_are_deterministic_across_repetitions() {
    let (pair, seeds) = pa_workload(65, 800, 6);
    let matching = MatchingConfig::default().with_threshold(2).with_iterations(2);
    let a = run_distributed(
        &pair.g1,
        &pair.g2,
        &seeds,
        driver_config(2, DriverStore::Mmap, matching.clone()),
    )
    .unwrap();
    let b =
        run_distributed(&pair.g1, &pair.g2, &seeds, driver_config(2, DriverStore::Mmap, matching))
            .unwrap();
    assert_eq!(a.links, b.links, "distributed runs are not deterministic");
}

#[test]
fn driver_matches_sequential_when_the_bucket_degree_overflows_u32() {
    // Bucket 40 asks for degree >= 2^40, which the protocol's u32 minimum
    // degree cannot carry: the driver must saturate it rather than wrap it
    // to 0, so, as in the sequential run, no node is eligible and both
    // runs keep exactly the seeds.
    let (pair, seeds) = pa_workload(66, 600, 6);
    let matching =
        MatchingConfig::default().with_threshold(1).with_iterations(1).with_min_bucket(40);
    let reference = UserMatching::new(matching.clone()).run(&pair.g1, &pair.g2, &seeds);
    let distributed =
        run_distributed(&pair.g1, &pair.g2, &seeds, driver_config(2, DriverStore::Mmap, matching))
            .expect("driver run at min_bucket 40");
    assert_eq!(distributed.links, reference.links, "links differ at min_bucket 40");
    assert_eq!(reference.links.len(), reference.links.seed_count(), "sequential keeps the seeds");
    assert_eq!(distributed.discovered(), 0, "the driver links nothing beyond the seeds");
    for (d, r) in distributed.phases.iter().zip(&reference.phases) {
        assert_eq!((d.scored_pairs, d.new_links), (0, 0), "driver scored an ineligible row");
        assert_eq!((r.scored_pairs, r.new_links), (0, 0));
    }
}
