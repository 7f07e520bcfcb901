//! Smoke check for the multi-process shard driver.
//!
//! ```text
//! cargo run --release -p snr-experiments --bin driver_smoke [--full]
//! ```
//!
//! (The worker binary must be built too: `cargo build --release -p
//! snr-driver`; a workspace build covers it.)
//!
//! Runs the Table 2 matching schedule (T = 2, one iteration) on an R-MAT
//! workload — scale 13 with 2 workers by default, scale 16 with 4 workers
//! under `--full` — three ways:
//!
//! 1. the in-process sequential matcher (the reference),
//! 2. a healthy distributed run across worker subprocesses,
//! 3. a distributed run with a **fault injected**: worker 0 is killed the
//!    first time it receives a task (`SNR_FAULT=kill:w0@round1`),
//!    forcing the coordinator to detect the death and re-assign the lost
//!    row-ranges.
//!
//! The run fails (non-zero exit) unless both distributed runs produce
//! links, per-phase counters, and good/bad link counts **bit-identical**
//! to the sequential reference.

use rand::rngs::StdRng;
use rand::SeedableRng;
use snr_core::{MatchingConfig, MatchingOutcome, UserMatching};
use snr_driver::{run_distributed, DriverConfig, DriverStore};
use snr_experiments::ExperimentArgs;
use snr_metrics::Evaluation;
use snr_sampling::independent::independent_deletion_symmetric;
use snr_sampling::{sample_seeds, RealizationPair};
use std::time::Instant;

fn driver_config(workers: usize, matching: MatchingConfig, fault: Option<&str>) -> DriverConfig {
    let mut config = DriverConfig::new(workers);
    config.matching = matching;
    config.store = DriverStore::Mmap;
    config.task_timeout = std::time::Duration::from_secs(300);
    config.fault = fault.map(str::to_owned);
    config
}

/// Scores an outcome against the ground truth and checks it is
/// bit-identical to the reference outcome.
fn check(
    label: &str,
    outcome: &MatchingOutcome,
    reference: &MatchingOutcome,
    pair: &RealizationPair,
    matchable: usize,
) -> Evaluation {
    let run = Evaluation::score_against(
        &pair.truth,
        matchable,
        &outcome.links,
        outcome.links.seed_count(),
    );
    let ref_run = Evaluation::score_against(
        &pair.truth,
        matchable,
        &reference.links,
        reference.links.seed_count(),
    );
    assert_eq!(outcome.links, reference.links, "{label}: links diverged from sequential");
    assert_eq!(
        (run.new_good, run.new_bad),
        (ref_run.new_good, ref_run.new_bad),
        "{label}: good/bad counts diverged from sequential"
    );
    for (d, r) in outcome.phases.iter().zip(&reference.phases) {
        assert_eq!(
            (d.scored_pairs, d.new_links, d.total_links),
            (r.scored_pairs, r.new_links, r.total_links),
            "{label}: phase counters diverged from sequential"
        );
    }
    run
}

fn main() {
    let args = ExperimentArgs::from_env();
    let (scale, workers): (u32, usize) = if args.full { (16, 4) } else { (13, 2) };

    // The Table 2 workload shape: R-MAT, edge survival 0.5, 10% seeds.
    let mut rng = StdRng::seed_from_u64(args.seed ^ scale as u64);
    let g = snr_generators::rmat(&snr_generators::RmatConfig::graph500(scale, 16), &mut rng)
        .expect("valid R-MAT parameters");
    let pair = independent_deletion_symmetric(&g, 0.5, &mut rng).expect("valid probability");
    drop(g);
    let seeds = sample_seeds(&pair, 0.10, &mut rng).expect("valid probability");
    let matchable = pair.matchable_nodes();
    println!(
        "RMAT-{scale}: {} nodes, {}/{} edges, {} seed links, {workers} workers",
        pair.g1.node_count(),
        pair.g1.edge_count(),
        pair.g2.edge_count(),
        seeds.len()
    );

    let matching = MatchingConfig::default().with_threshold(2).with_iterations(1);

    let start = Instant::now();
    let reference = UserMatching::new(matching.clone()).run(&pair.g1, &pair.g2, &seeds);
    let seq_secs = start.elapsed().as_secs_f64();
    println!("sequential reference: {seq_secs:.3}s, {} links", reference.links.len());

    let start = Instant::now();
    let healthy =
        run_distributed(&pair.g1, &pair.g2, &seeds, driver_config(workers, matching.clone(), None))
            .expect("healthy distributed run");
    let healthy_secs = start.elapsed().as_secs_f64();
    let eval = check("healthy", &healthy, &reference, &pair, matchable);
    println!(
        "driver x{workers} (healthy): {healthy_secs:.3}s, {} links, {} good / {} bad",
        healthy.links.len(),
        eval.new_good,
        eval.new_bad
    );

    let start = Instant::now();
    let faulted = run_distributed(
        &pair.g1,
        &pair.g2,
        &seeds,
        driver_config(workers, matching, Some("kill:w0@round1")),
    )
    .expect("a killed worker among several must be survivable");
    let faulted_secs = start.elapsed().as_secs_f64();
    check("kill:w0@round1", &faulted, &reference, &pair, matchable);
    println!(
        "driver x{workers} (worker 0 killed in round 1): {faulted_secs:.3}s, {} links — \
         re-assigned ranges converged",
        faulted.links.len()
    );
    println!("OK: both distributed runs bit-identical to the sequential matcher");
}
