//! Property tests for the MapReduce scoring path: on random PA/ER graph
//! pairs, across thresholds and graph representations (CSR, compact, and
//! mmap-backed segments), the select-fused round `mapreduce_fused_phase` —
//! row-scoring mappers that ship selection claims split by column, and
//! reducers that finish the selection per column range — must reproduce
//! the brute-force oracle `count_brute_force` → `mutual_best_pairs`
//! bit-for-bit, while the engine's shuffle statistics confirm the round
//! moved exactly the claims pieces, far fewer bytes than the scored rows.

use rand::rngs::StdRng;
use rand::SeedableRng;
use snr_core::matching::mutual_best_pairs;
use snr_core::scoring::mapreduce_fused_phase;
use snr_core::witness::count_brute_force;
use snr_core::Linking;
use snr_generators::{gnp, preferential_attachment};
use snr_graph::{CsrGraph, GraphView, NodeId};
use snr_mapreduce::partition::range_partition;
use snr_mapreduce::Engine;
use snr_sampling::independent::independent_deletion_symmetric;
use snr_sampling::sample_seeds;
use snr_store::{write_segment_file, MmapGraph};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One random reconciliation workload: two partial copies and seed links.
fn workload(use_pa: bool, n: usize, density: u32, seed: u64) -> (CsrGraph, CsrGraph, Linking) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = if use_pa {
        preferential_attachment(n.max(10), 2 + density as usize, &mut rng).unwrap()
    } else {
        let p = (2.0 + density as f64) * 2.0 / n as f64;
        gnp(n, p.min(0.9), &mut rng).unwrap()
    };
    let pair = independent_deletion_symmetric(&g, 0.6, &mut rng).unwrap();
    let seeds = sample_seeds(&pair, 0.15, &mut rng).unwrap();
    let links = Linking::with_seeds(pair.g1.node_count(), pair.g2.node_count(), &seeds);
    (pair.g1, pair.g2, links)
}

/// Writes `g` to a unique temp segment and reopens it mmap-backed.
fn mmap_view(g: &CsrGraph, tag: &str) -> (MmapGraph, PathBuf) {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "snr-mr-combiner-{}-{tag}-{}.snrs",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    write_segment_file(g, &path).expect("write segment");
    (MmapGraph::open(&path).expect("open segment"), path)
}

/// Asserts the MapReduce round agrees with the brute-force oracle on one
/// (G1, G2) representation combination.
fn assert_matches_oracle<G1, G2>(
    engine: &Engine,
    g1: &G1,
    g2: &G2,
    links: &Linking,
    min_deg: usize,
    threshold: u32,
    label: &str,
) where
    G1: GraphView + Sync,
    G2: GraphView + Sync,
{
    let oracle = count_brute_force(g1, g2, links, min_deg, min_deg);
    let expected_pairs = mutual_best_pairs(&oracle, threshold);
    let (scored, pairs) =
        mapreduce_fused_phase(engine, g1, g2, links, min_deg, min_deg, threshold).unwrap();
    assert_eq!(scored, oracle.len(), "fused scored_pairs vs oracle table size ({label})");
    assert_eq!(pairs, expected_pairs, "fused MR selection ({label})");
}

#[test]
fn mapreduce_rounds_match_oracle_across_workloads_thresholds_and_representations() {
    let mut case = 0u64;
    for use_pa in [true, false] {
        for (n, density) in [(60usize, 1u32), (140, 2), (260, 3)] {
            case += 1;
            let (g1, g2, links) = workload(use_pa, n, density, 0xC0_FFEE ^ (case * 7919));
            let (c1, c2) = (g1.compact(), g2.compact());
            let ((m1, p1), (m2, p2)) = (mmap_view(&g1, "g1"), mmap_view(&g2, "g2"));
            let engine = Engine::new(1 + (case as usize % 4)).with_chunk_size(16);
            for min_deg in [1usize, 2, 3] {
                for threshold in [1u32, 2] {
                    let label = format!("pa={use_pa} n={n} d={min_deg} t={threshold}");
                    assert_matches_oracle(
                        &engine,
                        &g1,
                        &g2,
                        &links,
                        min_deg,
                        threshold,
                        &format!("csr {label}"),
                    );
                    assert_matches_oracle(
                        &engine,
                        &c1,
                        &c2,
                        &links,
                        min_deg,
                        threshold,
                        &format!("compact {label}"),
                    );
                    assert_matches_oracle(
                        &engine,
                        &m1,
                        &m2,
                        &links,
                        min_deg,
                        threshold,
                        &format!("mmap {label}"),
                    );
                    assert_matches_oracle(
                        &engine,
                        &g1,
                        &c2,
                        &links,
                        min_deg,
                        threshold,
                        &format!("mixed csr x compact {label}"),
                    );
                    assert_matches_oracle(
                        &engine,
                        &c1,
                        &m2,
                        &links,
                        min_deg,
                        threshold,
                        &format!("mixed compact x mmap {label}"),
                    );
                }
            }
            drop((m1, m2));
            let _ = std::fs::remove_file(p1);
            let _ = std::fs::remove_file(p2);
        }
    }
}

#[test]
fn witness_round_ships_one_claims_piece_per_task_and_partition() {
    let (g1, g2, links) = workload(true, 300, 3, 42);
    let (chunk, parts, threshold) = (32usize, 3usize, 2u32);
    let engine = Engine::new(parts).with_chunk_size(chunk);
    let oracle = count_brute_force(&g1, &g2, &links, 1, 1);
    let (scored, pairs) =
        mapreduce_fused_phase(&engine, &g1, &g2, &links, 1, 1, threshold).unwrap();
    assert_eq!(scored, oracle.len());
    assert_eq!(pairs, mutual_best_pairs(&oracle, threshold));
    let round = engine.stats().per_round[0].clone();
    assert_eq!(round.label, "witness-score");

    // Recompute the shipment from the oracle table: a map task scores a
    // chunk of candidate rows and ships, to every partition its columns
    // hit, one piece of 16 header bytes, 12 bytes per claimed row (unique
    // row best at or above the threshold) and 13 per column best.
    let (n1, n2) = (g1.node_count(), g2.node_count());
    let candidates: Vec<u32> = (0..n1 as u32)
        .filter(|&u| g1.degree(NodeId(u)) >= 1 && !links.is_linked_g1(NodeId(u)))
        .collect();
    let mut rows: BTreeMap<u32, Vec<(u32, u32)>> = BTreeMap::new();
    for (&(u, v), &count) in &oracle {
        rows.entry(u).or_default().push((v, count));
    }
    let (mut pieces, mut bytes) = (0usize, 0usize);
    for task in candidates.chunks(chunk) {
        let (mut columns, mut claims) = (BTreeSet::new(), 0usize);
        for row in task.iter().filter_map(|u| rows.get(u)) {
            columns.extend(row.iter().map(|&(v, _)| v));
            let best = row.iter().map(|&(_, c)| c).max().unwrap();
            claims += usize::from(
                best >= threshold && row.iter().filter(|&&(_, c)| c == best).count() == 1,
            );
        }
        let hit: BTreeSet<usize> = columns.iter().map(|&v| range_partition(v, n2, parts)).collect();
        pieces += hit.len();
        bytes += 16 * hit.len() + 12 * claims + 13 * columns.len();
    }
    assert_eq!(round.map_tasks, candidates.len().div_ceil(chunk));
    assert_eq!(
        (round.shuffled_records, round.shuffled_bytes),
        (pieces, bytes),
        "the shuffle must be the shipped claims pieces at their encoded size"
    );
    assert_eq!(round.map_output_records, round.shuffled_records);
    assert!(round.key_groups <= parts, "the shuffle key is the partition index");
    // Bounded by node counts, and below shipping every scored row as packed
    // (v, count) entries: a u32 key per row plus 8 bytes per scored pair.
    // (At 300 nodes and 32-row tasks each task's column bests cost about
    // as much as its rows; the 10x gate runs at R-MAT scale in
    // `mr_shuffle_smoke`.)
    assert!(round.shuffled_bytes <= round.map_tasks * (16 * parts + 13 * n2) + 12 * n1);
    let packed = 4 * rows.len() + 8 * oracle.len();
    assert!(
        round.shuffled_bytes < packed,
        "claims shuffle {} must be below the packed-row formula {packed}",
        round.shuffled_bytes
    );
}

#[test]
fn spilling_witness_round_links_are_bit_identical_to_in_memory() {
    // Force the out-of-core path: budget 0 spills every map task's
    // sorted buckets to checksummed run files, and the reduce k-way
    // merges them back. Links, scored-pair count, and the non-spill shuffle
    // statistics must be exactly what the in-memory round produces.
    let (g1, g2, links) = workload(true, 260, 3, 0xD15C);
    let scratch = std::env::temp_dir().join(format!("snr-core-spill-{}", std::process::id()));
    for (workers, budget) in [(1usize, 0u64), (1, 512), (3, 0), (3, 2048)] {
        // The partition count (= workers) shapes the shipped pieces, so the
        // reference is an in-memory engine with the same worker count.
        let in_memory = Engine::new(workers).with_chunk_size(16);
        let expected = mapreduce_fused_phase(&in_memory, &g1, &g2, &links, 2, 2, 2).unwrap();
        let engine = Engine::new(workers)
            .with_chunk_size(16)
            .with_spill_budget(Some(budget))
            .with_scratch_dir(&scratch);
        let got = mapreduce_fused_phase(&engine, &g1, &g2, &links, 2, 2, 2).unwrap();
        assert_eq!(got, expected, "workers={workers} budget={budget}");
        let round = engine.stats().per_round[0].clone();
        assert!(round.spilled_runs > 0, "budget {budget} must actually spill");
        assert!(round.spilled_bytes > 0 && round.spilled_bytes <= round.shuffled_bytes);
        let mem_round = in_memory.stats().per_round[0].clone();
        assert_eq!(round.shuffled_records, mem_round.shuffled_records);
        assert_eq!(round.shuffled_bytes, mem_round.shuffled_bytes);
        assert!(!scratch.exists(), "scratch dir removed after the round");
    }
}

#[test]
fn chunking_and_worker_count_never_change_results() {
    let (g1, g2, links) = workload(false, 200, 2, 7);
    let oracle = count_brute_force(&g1, &g2, &links, 2, 2);
    let ref_pairs = (oracle.len(), mutual_best_pairs(&oracle, 2));
    for workers in [1usize, 2, 5] {
        for chunk in [1usize, 3, 64, 10_000] {
            let engine = Engine::new(workers).with_chunk_size(chunk);
            assert_eq!(
                mapreduce_fused_phase(&engine, &g1, &g2, &links, 2, 2, 2).unwrap(),
                ref_pairs,
                "fused workers={workers} chunk={chunk}"
            );
        }
    }
}
