//! Smoke check for the shuffle volume of the MapReduce witness round.
//!
//! ```text
//! cargo run --release -p snr-experiments --bin mr_shuffle_smoke [--full]
//! ```
//!
//! Runs one fused MapReduce witness phase on an R-MAT workload (scale 13 by
//! default, the Table 2 benchmark shape at scale 16 with `--full`). Map
//! tasks ship selection claims — 12 bytes per claimed row and 13 per column
//! best, split into one piece per reduce partition, 16 header bytes each —
//! instead of every scored row. The run fails (non-zero exit) unless:
//!
//! * the round's selected pairs and scored-pair count are bit-identical to
//!   the sequential arena path (`fused_phase`);
//! * the reported shuffle records and bytes equal the pieces and encoded
//!   bytes recomputed here from each map task's rows;
//! * the shuffle bytes stay within `map_tasks·(16·parts + 13·n2) + 12·n1`,
//!   a bound in node counts that no edge count enters;
//! * the shuffle bytes are at least 10× below what shipping every scored
//!   row as packed `(v, count)` entries moved (`4·rows + 8·scored_pairs`).

use rand::rngs::StdRng;
use rand::SeedableRng;
use snr_core::scoring::{
    fused_phase, mapreduce_fused_phase_on, score_row, CandidateCache, LinkCache, ScoreArena,
};
use snr_core::Linking;
use snr_experiments::ExperimentArgs;
use snr_graph::{GraphView, NodeId};
use snr_mapreduce::partition::range_partition;
use snr_mapreduce::Engine;
use snr_sampling::independent::independent_deletion_symmetric;
use snr_sampling::sample_seeds;
use std::collections::BTreeSet;
use std::time::Instant;

/// Candidate rows per map task.
const CHUNK: usize = 1_024;

/// Recomputes from the arena kernel what the round ships: per map task,
/// one piece per partition its columns hit (16 header bytes), 12 bytes per
/// claimed row and 13 per column. Returns `(pieces, bytes, non-empty rows)`.
fn expected_shuffle<G1: GraphView>(
    g1: &G1,
    cache: &LinkCache,
    n2: usize,
    candidates: &[u32],
    parts: usize,
    threshold: u32,
) -> (usize, usize, usize) {
    let mut arena = ScoreArena::new(n2);
    let (mut pieces, mut bytes, mut rows) = (0, 0, 0);
    for chunk in candidates.chunks(CHUNK) {
        let (mut columns, mut claims) = (BTreeSet::new(), 0);
        for &u in chunk {
            score_row(g1, cache, NodeId(u), &mut arena);
            let scores: Vec<u32> = arena.touched().iter().map(|&v| arena.get(v)).collect();
            columns.extend(arena.touched().iter().copied());
            rows += usize::from(!scores.is_empty());
            let best = scores.iter().copied().max().unwrap_or(0);
            claims += usize::from(
                best >= threshold && scores.iter().filter(|&&s| s == best).count() == 1,
            );
        }
        let hit: BTreeSet<usize> = columns.iter().map(|&v| range_partition(v, n2, parts)).collect();
        pieces += hit.len();
        bytes += 16 * hit.len() + 12 * claims + 13 * columns.len();
    }
    (pieces, bytes, rows)
}

fn main() {
    let args = ExperimentArgs::from_env();
    let scale: u32 = if args.full { 16 } else { 13 };
    let (min_deg, threshold) = (2usize, 2u32);

    // The bench_witnesses rmat16 workload shape: graph500 R-MAT, edge
    // survival 0.7, 2% seed links (deterministic in --seed).
    let mut rng = StdRng::seed_from_u64(args.seed ^ scale as u64);
    let g = snr_generators::rmat(&snr_generators::RmatConfig::graph500(scale, 16), &mut rng)
        .expect("valid R-MAT parameters");
    let pair = independent_deletion_symmetric(&g, 0.7, &mut rng).expect("valid probability");
    drop(g);
    let seeds = sample_seeds(&pair, 0.02, &mut rng).expect("valid probability");
    let links = Linking::with_seeds(pair.g1.node_count(), pair.g2.node_count(), &seeds);
    let (g1, g2) = (&pair.g1, &pair.g2);
    let (n1, n2) = (g1.node_count(), g2.node_count());
    println!(
        "RMAT-{scale}: {n1} nodes, {}/{} edges, {} seed links",
        g1.edge_count(),
        g2.edge_count(),
        links.len()
    );

    let candidates = CandidateCache::build(g1).eligible(
        min_deg,
        |u| links.is_linked_g1(NodeId(u)),
        |u| g1.degree(NodeId(u)),
    );
    let engine = Engine::new(4).with_chunk_size(CHUNK);
    let start = Instant::now();
    let (scored, pairs) =
        mapreduce_fused_phase_on(&engine, g1, g2, &links, candidates.clone(), min_deg, threshold)
            .expect("in-memory round cannot spill");
    let mr_secs = start.elapsed().as_secs_f64();
    let stats = engine.stats();
    let round = &stats.per_round[0];
    println!("fused MapReduce witness round: {mr_secs:.3}s, {}", stats.stats_summary());

    // Correctness: same bits as the sequential arena path.
    let expected = fused_phase(g1, g2, &links, min_deg, min_deg, threshold, false);
    assert_eq!((scored, pairs), expected, "fused MR phase must match the sequential arena path");

    // Accounting: the engine reports exactly the pieces the tasks shipped.
    let cache = LinkCache::build(g2, &links, min_deg);
    let (pieces, bytes, rows) =
        expected_shuffle(g1, &cache, n2, &candidates, engine.workers(), threshold);
    assert_eq!(
        (round.shuffled_records, round.shuffled_bytes),
        (pieces, bytes),
        "shuffle must be one claims piece per (map task, partition) at its encoded size"
    );

    // Data movement: bounded by node counts, far below the packed rows.
    let bound = round.map_tasks * (16 * round.reduce_tasks + 13 * n2) + 12 * n1;
    let packed = 4 * rows + 8 * scored;
    let ratio = packed as f64 / bytes.max(1) as f64;
    println!(
        "shuffle: {pieces} claims pieces, {bytes} bytes (bound {bound}); packed rows would \
         move {packed} bytes ({rows} rows, {scored} scored pairs): {ratio:.1}x fewer"
    );
    assert!(bytes <= bound, "shuffle bytes {bytes} exceed the node-count bound {bound}");
    assert!(
        bytes * 10 <= packed,
        "claims must shrink the shuffle at least 10x below packed rows ({ratio:.2}x)"
    );
    println!("OK: shuffle shrank {ratio:.1}x (>= 10x required), selection bit-identical");
}
