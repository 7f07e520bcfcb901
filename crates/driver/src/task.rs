//! The one driver task path: scoring a contiguous row-range of one phase.
//!
//! A worker subprocess answers each `Task` frame through a [`TaskScorer`],
//! and the coordinator's degradation path scores the ranges no worker is
//! left to take through its own [`TaskScorer`] over the same scratch
//! segments. Both therefore run the same views, the same `LinkCache`
//! build and the same [`score_assigned_rows`] + `SelectSink` kernel, which
//! is what makes an in-process range bit-identical to a worker's.

use crate::error::DriverError;
use crate::protocol::{G1Spec, G2Spec};
use snr_core::scoring::{score_assigned_rows, LinkCache, ScoreArena, SelectSink, SinkClaims};
use snr_core::Linking;
use snr_graph::GraphView;
use snr_store::{MmapGraph, ShardedGraph};

/// The parameters every task of one phase shares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseParams {
    /// 1-based phase number (0 before the first phase starts).
    pub phase: u32,
    /// Minimum degree of candidate rows (copy 1) and eligible partners
    /// (copy 2).
    pub min_degree: u32,
    /// Selection threshold.
    pub threshold: u32,
}

/// The copy-1 view a [`G1Spec`] opens.
enum G1Graph {
    Whole(MmapGraph),
    Sharded(ShardedGraph<MmapGraph>),
}

/// Scores driver tasks over memory-mapped scratch segments.
///
/// Owns the task-local [`ScoreArena`] and a `LinkCache` stamped with the
/// phase it was built for, so it is rebuilt once per phase however many
/// ranges the phase scores.
pub struct TaskScorer {
    g1: G1Graph,
    g2: MmapGraph,
    arena: ScoreArena,
    cache: Option<(u32, LinkCache)>,
}

impl TaskScorer {
    /// Maps the segments the specs name (verifying their checksums).
    pub fn open(g1: &G1Spec, g2: &G2Spec) -> Result<TaskScorer, DriverError> {
        let g1 = match g1 {
            G1Spec::MmapWhole { path } => G1Graph::Whole(MmapGraph::open(path)?),
            G1Spec::Shards { paths } => G1Graph::Sharded(ShardedGraph::open(paths)?),
        };
        let g2 = MmapGraph::open(&g2.path)?;
        let arena = ScoreArena::new(g2.node_count());
        Ok(TaskScorer { g1, g2, arena, cache: None })
    }

    /// Builds the `LinkCache` of `params.phase` from `links` unless it is
    /// already current. `links` must be the link state the phase scores
    /// against.
    pub fn prepare(&mut self, params: &PhaseParams, links: &Linking) {
        if self.cache.as_ref().map(|&(phase, _)| phase) != Some(params.phase) {
            let cache = LinkCache::build(&self.g2, links, params.min_degree as usize);
            self.cache = Some((params.phase, cache));
        }
    }

    /// Scores rows `first_node..first_node + node_count` into a fresh
    /// `SelectSink` and returns its claims.
    pub fn score(
        &mut self,
        params: &PhaseParams,
        links: &Linking,
        first_node: u32,
        node_count: u32,
    ) -> SinkClaims {
        self.prepare(params, links);
        let cache = &self.cache.as_ref().expect("prepared above").1;
        let mut sink = SelectSink::new(self.g2.node_count(), params.threshold);
        let rows = first_node..first_node + node_count;
        let min_degree = params.min_degree as usize;
        match &self.g1 {
            G1Graph::Whole(g) => {
                score_assigned_rows(g, rows, cache, links, min_degree, &mut self.arena, &mut sink)
            }
            G1Graph::Sharded(g) => {
                score_assigned_rows(g, rows, cache, links, min_degree, &mut self.arena, &mut sink)
            }
        }
        sink.into_claims()
    }
}
