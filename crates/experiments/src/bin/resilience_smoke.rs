//! Smoke check for the shard driver's self-healing paths.
//!
//! ```text
//! cargo run --release -p snr-experiments --bin resilience_smoke [--full]
//! ```
//!
//! (The worker binary must be built too: `cargo build --release -p
//! snr-driver`; a workspace build covers it.)
//!
//! Runs a two-iteration Table 2 matching schedule (T = 2) on an R-MAT
//! workload — scale 13 with 2 workers by default, scale 16 with 4 workers
//! under `--full` — through every recovery layer of `snr-driver`:
//!
//! 1. the in-process sequential matcher (the reference),
//! 2. **respawn**: workers 0 and 1 are each killed on their first round-1
//!    task (`SNR_FAULT=kill:w0@round1,kill:w1@round1`) and the respawn
//!    budget must bring replacements back,
//! 3. **checkpoint/resume**: the coordinator halts right after phase 1
//!    checkpoints (`halt@phase1`) and `ShardDriver::resume` finishes the
//!    schedule from the checkpoint,
//! 4. **degradation**: every worker is killed with a zero respawn budget
//!    and the coordinator scores the remaining row-ranges in-process.
//!
//! The run fails (non-zero exit) unless all three recovery runs produce
//! links, per-phase counters, and good/bad link counts **bit-identical**
//! to the sequential reference.

use rand::rngs::StdRng;
use rand::SeedableRng;
use snr_core::{MatchingConfig, MatchingOutcome, UserMatching};
use snr_driver::{DriverConfig, DriverError, DriverStore, ShardDriver};
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
    assert_eq!(
        outcome.phases.len(),
        reference.phases.len(),
        "{label}: phase count diverged from sequential"
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

    // Two iterations so the schedule spans multiple phases: the halted run
    // below checkpoints after phase 1 and resume has real work left.
    let matching = MatchingConfig::default().with_threshold(2).with_iterations(2);

    let start = Instant::now();
    let reference = UserMatching::new(matching.clone()).run(&pair.g1, &pair.g2, &seeds);
    let seq_secs = start.elapsed().as_secs_f64();
    println!("sequential reference: {seq_secs:.3}s, {} links", reference.links.len());

    // 1. Respawn: whichever worker takes a round-1 task dies on it; the
    //    budget (default 2, enough for both) must bring healthy
    //    replacements back that sync via Reinit. Both workers are armed
    //    because worker 1's handshake can finish after worker 0 has
    //    scored every round-1 task, so a kill on one worker may never fire.
    let kill = "kill:w0@round1,kill:w1@round1";
    let start = Instant::now();
    let driver =
        ShardDriver::new(&pair.g1, &pair.g2, driver_config(workers, matching.clone(), Some(kill)))
            .expect("snapshot graphs for driver");
    let respawned = driver.run(&seeds).expect("a killed worker must be respawned around");
    let stats = driver.last_run_stats();
    drop(driver);
    assert!(stats.respawns >= 1, "respawn machinery never engaged: {stats:?}");
    check("respawn", &respawned, &reference, &pair, matchable);
    println!(
        "driver x{workers} ({kill}, {} respawns): {:.3}s, {} links — bit-identical",
        stats.respawns,
        start.elapsed().as_secs_f64(),
        respawned.links.len()
    );

    // 2. Checkpoint/resume: the coordinator halts after phase 1; resume
    //    finishes the schedule from the checkpoint, counters included.
    let start = Instant::now();
    let driver = ShardDriver::new(
        &pair.g1,
        &pair.g2,
        driver_config(workers, matching.clone(), Some("halt@phase1")),
    )
    .expect("snapshot graphs for driver");
    match driver.run(&seeds) {
        Err(DriverError::Interrupted { phase: 1 }) => {}
        other => panic!("halt@phase1 must interrupt after phase 1, got {other:?}"),
    }
    let resumed =
        ShardDriver::resume(driver.scratch_dir(), driver_config(workers, matching.clone(), None))
            .expect("resume from the phase-1 checkpoint");
    check("checkpoint/resume", &resumed, &reference, &pair, matchable);
    println!(
        "driver x{workers} (halt@phase1 + resume): {:.3}s, {} links — bit-identical",
        start.elapsed().as_secs_f64(),
        resumed.links.len()
    );

    // 3. Degradation: every worker dies with no respawn budget; the
    //    coordinator finishes the remaining row-ranges in-process.
    let kill_all: Vec<String> = (0..workers).map(|w| format!("kill:w{w}@round1")).collect();
    let start = Instant::now();
    let mut config = driver_config(workers, matching, Some(&kill_all.join(",")));
    config.respawn_budget = 0;
    let driver = ShardDriver::new(&pair.g1, &pair.g2, config).expect("snapshot graphs for driver");
    let degraded = driver.run(&seeds).expect("total loss must degrade in-process");
    let stats = driver.last_run_stats();
    drop(driver);
    assert!(stats.degraded_tasks > 0, "degradation path never engaged: {stats:?}");
    check("degradation", &degraded, &reference, &pair, matchable);
    println!(
        "driver x{workers} (total loss, {} ranges in-process): {:.3}s, {} links — bit-identical",
        stats.degraded_tasks,
        start.elapsed().as_secs_f64(),
        degraded.links.len()
    );

    println!("OK: respawn, checkpoint/resume, and degradation all bit-identical to sequential");
}
