//! The one driver task path: scoring a contiguous row-range of one phase.
//!
//! A worker subprocess answers each `Task` frame through a [`TaskScorer`],
//! and the coordinator's degradation path scores the ranges no worker is
//! left to take through its own [`TaskScorer`] over the same scratch
//! segments. Both therefore run the same views, the same `LinkFrontier`
//! and the same [`score_assigned_rows`] + `SelectSink` kernel, which is
//! what makes an in-process range bit-identical to a worker's.

use crate::error::DriverError;
use crate::protocol::{G1Spec, G2Spec};
use snr_core::scoring::{score_assigned_rows, LinkFrontier, ScoreArena, SelectSink, SinkClaims};
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
/// Owns the task-local [`ScoreArena`] and a [`LinkFrontier`] that lives as
/// long as the scorer: each phase's cache is cut once, however many ranges
/// the phase scores, and each link's copy-2 neighborhood is decoded once
/// per process.
pub struct TaskScorer {
    g1: G1Graph,
    g2: MmapGraph,
    arena: ScoreArena,
    frontier: LinkFrontier,
    /// The phase the frontier's cache was cut for.
    phase: Option<u32>,
}

impl TaskScorer {
    /// Maps the segments the specs name (verifying their checksums).
    /// `degree_floor` is the lowest `min_degree` of the run's phases.
    pub fn open(g1: &G1Spec, g2: &G2Spec, degree_floor: u32) -> Result<TaskScorer, DriverError> {
        let g1 = match g1 {
            G1Spec::MmapWhole { path } => G1Graph::Whole(MmapGraph::open(path)?),
            G1Spec::Shards { paths } => G1Graph::Sharded(ShardedGraph::open(paths)?),
        };
        let g2 = MmapGraph::open(&g2.path)?;
        let arena = ScoreArena::new(g2.node_count());
        let frontier = LinkFrontier::new(degree_floor as usize);
        Ok(TaskScorer { g1, g2, arena, frontier, phase: None })
    }

    /// Forgets the decoded links, for a link state that replaces rather
    /// than extends the last one (a `Reinit` snapshot).
    pub fn reset(&mut self) {
        self.frontier.reset();
        self.phase = None;
    }

    /// Advances the link frontier to `links` and cuts the cache of
    /// `params.phase`, unless it is already current. `links` must be the
    /// link state the phase scores against.
    pub fn prepare(&mut self, params: &PhaseParams, links: &Linking) {
        if self.phase != Some(params.phase) {
            self.frontier.advance(&self.g2, links, params.min_degree as usize, false);
            self.phase = Some(params.phase);
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
        let cache = self.frontier.cache();
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
