//! Running User-Matching as MapReduce rounds.
//!
//! ```text
//! cargo run --release --example mapreduce_rounds
//! ```
//!
//! The paper's efficiency claim is about *round complexity*: it sketches
//! each phase of the algorithm as 4 MapReduce rounds, so a full run is
//! `O(k log D)` rounds. This reproduction's engine collapses each phase to
//! a *single* round (each mapper scores whole candidate rows into a
//! selection sink and ships only its claims — row bests and column bests —
//! split by column, and each reducer finishes the mutual-best selection for
//! its column range), keeping the same `O(k log D)` bound with a 4x smaller
//! constant and a shuffle bounded by node counts instead of one record per
//! witness contribution.
//! This example runs the algorithm on the bundled in-memory MapReduce
//! engine and prints the actual rounds executed, the records and bytes
//! shuffled per round, and the phase structure, so the claims can be
//! checked against a live run rather than taken from the paper.

use rand::rngs::StdRng;
use rand::SeedableRng;
use social_reconcile::core::{Backend, MatchingConfig, UserMatching};
use social_reconcile::prelude::*;

fn main() {
    let mut rng = StdRng::seed_from_u64(9_000);

    let network = preferential_attachment(5_000, 10, &mut rng).expect("valid parameters");
    let pair = independent_deletion_symmetric(&network, 0.6, &mut rng).expect("valid probability");
    let seeds = sample_seeds(&pair, 0.08, &mut rng).expect("valid probability");

    let workers = 4;
    let config = MatchingConfig::default()
        .with_threshold(2)
        .with_iterations(2)
        .with_backend(Backend::MapReduce { workers });
    let engine = Engine::new(workers);
    let outcome = UserMatching::new(config)
        .try_run_on_engine(&pair.g1, &pair.g2, &seeds, &engine)
        .expect("in-memory rounds");
    let engine_stats = engine.stats();

    let eval = Evaluation::score(&pair, &outcome.links, outcome.links.seed_count());
    println!(
        "matched {} users ({} beyond the seeds) at {:.2}% precision\n",
        eval.good,
        outcome.discovered(),
        100.0 * eval.precision()
    );

    println!("phase structure (k iterations × degree buckets, high degree first):");
    for phase in &outcome.phases {
        println!(
            "  iteration {} bucket 2^{:<2} candidates={:<7} new links={:<6} total={}",
            phase.iteration, phase.bucket, phase.scored_pairs, phase.new_links, phase.total_links
        );
    }

    println!("\nMapReduce execution:");
    println!("  phases: {}", outcome.phases.len());
    println!(
        "  rounds: {} (= 1 fused round per phase: mappers score candidate rows and ship \
         selection claims split by column, the reduce selects mutual bests per column)",
        engine_stats.rounds
    );
    println!("  {}", engine_stats.stats_summary());
    let heaviest =
        engine_stats.per_round.iter().max_by_key(|r| r.shuffled_bytes).expect("at least one round");
    println!(
        "  heaviest round: {:?} with {} shuffled claims pieces ({} bytes) across {} reduce tasks",
        heaviest.label, heaviest.shuffled_records, heaviest.shuffled_bytes, heaviest.reduce_tasks
    );

    let max_degree = pair.g1.max_degree().max(pair.g2.max_degree());
    let log_d = (usize::BITS - max_degree.leading_zeros()) as usize;
    println!(
        "\npaper bound: O(k log D) = O({} × {}) phases — observed {} phases, {} rounds",
        2,
        log_d,
        outcome.phases.len(),
        engine_stats.rounds
    );
}
