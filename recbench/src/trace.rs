//! The traced run: the matching schedule re-executed by calling each
//! layer's public functions directly, with spans timed here, around those
//! calls. The program itself carries no span for this.
//!
//! Each decomposition mirrors one executor's phase loop (`UserMatching`'s
//! sequential exact path, its pure-LSH path, and its MapReduce path), so its
//! links must equal that executor's. Counts are computed outside the spans,
//! and the time spent computing them is taken out of the traced wall.

use snr_core::blocking::{phase_mass, verify_proposals, Banding, DEFAULT_SKETCH_SEED};
use snr_core::scoring::{
    mapreduce_fused_phase_on, score_phase_cached, CandidateCache, LinkCache, SelectSink,
};
use snr_core::{Linking, MatchingConfig};
use snr_graph::{GraphView, NodeId};
use snr_mapreduce::{Engine, EngineError};
use snr_sketch::{propose_pairs, MinHasher, SignatureSet};
use std::path::Path;
use std::time::{Duration, Instant};

/// Runs `f` and adds its wall time to `acc` (seconds).
fn span<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *acc += start.elapsed().as_secs_f64();
    out
}

/// The schedule's phases as `(iteration, bucket)`, in execution order —
/// the same computation `UserMatching` does from the larger maximum degree.
fn schedule<G1: GraphView, G2: GraphView>(
    g1: &G1,
    g2: &G2,
    cfg: &MatchingConfig,
) -> Vec<(u32, u32)> {
    let max_degree = g1.max_degree().max(g2.max_degree());
    let top = if cfg.degree_bucketing {
        (usize::BITS - 1).saturating_sub(max_degree.max(1).leading_zeros()).max(cfg.min_bucket)
    } else {
        cfg.min_bucket
    };
    (1..=cfg.iterations).flat_map(|i| (cfg.min_bucket..=top).rev().map(move |b| (i, b))).collect()
}

/// Layer split of the sequential exact schedule.
#[derive(Default)]
pub struct ExactTrace {
    /// Traced wall time, count computation excluded.
    pub wall_s: f64,
    /// `CandidateCache::build` plus every phase's `eligible`.
    pub candidates_s: f64,
    /// `LinkCache::build`.
    pub link_cache_s: f64,
    /// `score_phase_cached` into a `SelectSink`: the row bump plus each
    /// row's fold into the sink (no public call separates the two).
    pub bump_s: f64,
    /// `SelectSink::finish`: the mutual-best join.
    pub select_s: f64,
    /// `Linking::insert_batch`.
    pub insert_s: f64,
    pub bump_ops: u64,
    pub scored_pairs: u64,
    pub cached_targets: u64,
    pub candidate_rows: u64,
    pub phases: u64,
    pub new_links: u64,
    pub links: Option<Linking>,
}

impl ExactTrace {
    /// Sum of the layer spans.
    pub fn covered_s(&self) -> f64 {
        self.candidates_s + self.link_cache_s + self.bump_s + self.select_s + self.insert_s
    }
}

pub fn exact<G1, G2>(
    g1: &G1,
    g2: &G2,
    seeds: &[(NodeId, NodeId)],
    cfg: &MatchingConfig,
) -> ExactTrace
where
    G1: GraphView + Sync,
    G2: GraphView + Sync,
{
    let start = Instant::now();
    let mut counting = Duration::ZERO;
    let mut t = ExactTrace::default();
    let n2 = g2.node_count();
    let mut links = Linking::with_seeds(g1.node_count(), n2, seeds);
    let cand_cache = span(&mut t.candidates_s, || CandidateCache::build(g1));
    for (_, bucket) in schedule(g1, g2, cfg) {
        let min_degree = 1usize << bucket;
        let candidates = span(&mut t.candidates_s, || {
            cand_cache.eligible(
                min_degree,
                |u| links.is_linked_g1(NodeId(u)),
                |u| g1.degree(NodeId(u)),
            )
        });
        let cache = span(&mut t.link_cache_s, || LinkCache::build(g2, &links, min_degree));
        let sink = span(&mut t.bump_s, || {
            score_phase_cached(g1, &cache, n2, &candidates, false, || {
                SelectSink::new(n2, cfg.threshold)
            })
        });
        let (scored, new_pairs) = span(&mut t.select_s, || sink.finish());
        let added = span(&mut t.insert_s, || links.insert_batch(&new_pairs));

        let counted = Instant::now();
        t.bump_ops += phase_mass(g1, &cache, &candidates);
        t.cached_targets += cache.cached_targets() as u64;
        t.candidate_rows += candidates.len() as u64;
        t.scored_pairs += scored as u64;
        t.new_links += added as u64;
        t.phases += 1;
        counting += counted.elapsed();
    }
    t.wall_s = (start.elapsed() - counting).as_secs_f64();
    t.links = Some(links);
    t
}

/// Layer split of the pure-LSH schedule (every phase blocked).
#[derive(Default)]
pub struct LshTrace {
    /// `SignatureSet::build` of both sides.
    pub signature_s: f64,
    /// `propose_pairs`.
    pub band_s: f64,
    /// `verify_proposals`: exact re-scoring and selection of the proposals.
    pub verify_s: f64,
    pub proposals: u64,
    /// Proposals with a non-zero exact score.
    pub verified: u64,
    pub scored_pairs: usize,
    pub links: Option<Linking>,
}

pub fn lsh<G1, G2>(
    g1: &G1,
    g2: &G2,
    seeds: &[(NodeId, NodeId)],
    cfg: &MatchingConfig,
    banding: &Banding,
) -> LshTrace
where
    G1: GraphView + Sync,
    G2: GraphView + Sync,
{
    let mut t = LshTrace::default();
    let n2 = g2.node_count();
    let mut links = Linking::with_seeds(g1.node_count(), n2, seeds);
    let cand_cache1 = CandidateCache::build(g1);
    let cand_cache2 = CandidateCache::build(g2);
    let floor = cfg.threshold as usize;
    for (iteration, bucket) in schedule(g1, g2, cfg) {
        let min_degree = 1usize << bucket;
        let candidates1 = cand_cache1.eligible(
            min_degree,
            |u| links.is_linked_g1(NodeId(u)),
            |u| g1.degree(NodeId(u)),
        );
        if links.is_empty() || candidates1.is_empty() {
            continue;
        }
        let cache = LinkCache::build(g2, &links, min_degree);
        let candidates2 = cand_cache2.eligible(
            min_degree,
            |v| links.is_linked_g2(NodeId(v)),
            |v| g2.degree(NodeId(v)),
        );
        if candidates2.is_empty() {
            continue;
        }
        // Both sides sketch the link indices adjacent to a node, numbered in
        // `Linking::pairs` order; sets below the threshold are dropped.
        let mut slot2 = vec![u32::MAX; links.g2_capacity()];
        for (k, (_, w2)) in links.pairs().enumerate() {
            slot2[w2.index()] = k as u32;
        }
        let left_items = |u: u32, out: &mut Vec<u64>| {
            out.extend(
                g1.neighbors_iter(NodeId(u)).filter_map(|w1| cache.link_slot(w1)).map(u64::from),
            );
            if out.len() < floor {
                out.clear();
            }
        };
        let right_items = |v: u32, out: &mut Vec<u64>| {
            out.extend(
                g2.neighbors_iter(NodeId(v))
                    .map(|w2| slot2[w2.index()])
                    .filter(|&k| k != u32::MAX)
                    .map(u64::from),
            );
            if out.len() < floor {
                out.clear();
            }
        };
        let seed = DEFAULT_SKETCH_SEED ^ (u64::from(iteration) << 32) ^ u64::from(bucket);
        let hasher = MinHasher::new(banding.k(), seed);
        let (left, right) = span(&mut t.signature_s, || {
            (
                SignatureSet::build(&hasher, &candidates1, left_items),
                SignatureSet::build(&hasher, &candidates2, right_items),
            )
        });
        let proposals = span(&mut t.band_s, || propose_pairs(banding, &left, &right));
        let (scored, new_pairs) = span(&mut t.verify_s, || {
            verify_proposals(g1, &cache, &proposals.pairs, n2, cfg.threshold, false)
        });
        links.insert_batch(&new_pairs);
        t.proposals += proposals.pairs.len() as u64;
        t.verified += scored as u64;
        t.scored_pairs += scored;
    }
    t.links = Some(links);
    t
}

/// The MapReduce schedule: one `mapreduce_fused_phase_on` round per phase
/// on an engine held here, so its statistics can be read afterwards.
pub struct MapReduceTrace {
    /// Wall time of the rounds, timed around each `mapreduce_fused_phase_on`.
    pub round_s: f64,
    pub scored_pairs: usize,
    pub links: Linking,
}

pub fn mapreduce<G1, G2>(
    g1: &G1,
    g2: &G2,
    seeds: &[(NodeId, NodeId)],
    cfg: &MatchingConfig,
    engine: &Engine,
) -> Result<MapReduceTrace, EngineError>
where
    G1: GraphView + Sync,
    G2: GraphView + Sync,
{
    let mut round_s = 0.0;
    let mut scored_pairs = 0;
    let mut links = Linking::with_seeds(g1.node_count(), g2.node_count(), seeds);
    let cand_cache = CandidateCache::build(g1);
    for (_, bucket) in schedule(g1, g2, cfg) {
        let min_degree = 1usize << bucket;
        let candidates = cand_cache.eligible(
            min_degree,
            |u| links.is_linked_g1(NodeId(u)),
            |u| g1.degree(NodeId(u)),
        );
        let (scored, new_pairs) = span(&mut round_s, || {
            mapreduce_fused_phase_on(engine, g1, g2, &links, candidates, min_degree, cfg.threshold)
        })?;
        scored_pairs += scored;
        links.insert_batch(&new_pairs);
    }
    Ok(MapReduceTrace { round_s, scored_pairs, links })
}

/// One segment write and reopen of both copies.
pub struct StoreTrace {
    /// `write_segment_file` of both copies.
    pub write_s: f64,
    /// `MmapGraph::open` of both copies.
    pub open_s: f64,
    pub segment_bytes: u64,
    pub views: (snr_store::MmapGraph, snr_store::MmapGraph),
}

pub fn store<G1: GraphView, G2: GraphView>(
    g1: &G1,
    g2: &G2,
    dir: &Path,
) -> Result<StoreTrace, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let (p1, p2) = (dir.join("g1.snrs"), dir.join("g2.snrs"));
    let mut write_s = 0.0;
    let mut open_s = 0.0;
    span(&mut write_s, || {
        snr_store::write_segment_file(g1, &p1)?;
        snr_store::write_segment_file(g2, &p2)
    })
    .map_err(|e| e.to_string())?;
    let views = span(&mut open_s, || {
        Ok::<_, snr_graph::GraphError>((
            snr_store::MmapGraph::open(&p1)?,
            snr_store::MmapGraph::open(&p2)?,
        ))
    })
    .map_err(|e| e.to_string())?;
    let segment_bytes = (views.0.file_len() + views.1.file_len()) as u64;
    Ok(StoreTrace { write_s, open_s, segment_bytes, views })
}
