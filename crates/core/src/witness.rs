//! Similarity-witness counting.
//!
//! Definition 1 of the paper: a linked pair `(w1, w2)` is a *similarity
//! witness* for a candidate pair `(u, v)` if `w1 ∈ N1(u)` and `w2 ∈ N2(v)`.
//! Each phase scores every candidate pair above the current degree threshold
//! by its number of witnesses.
//!
//! The computation is *seed-centric*: instead of enumerating all `|V1|·|V2|`
//! pairs, we iterate over the current links `(w1, w2)` and emit one witness
//! contribution for every `(u, v) ∈ N1(w1) × N2(w2)` whose degrees meet the
//! threshold. The total work per bucket is `Σ_{(w1,w2)∈L} d1(w1)·d2(w2)`,
//! which is exactly how the paper obtains the
//! `O((E1+E2)·min(Δ1,Δ2))`-per-bucket bound; pairs with zero witnesses are
//! never touched.
//!
//! # Reference implementations
//!
//! This module holds the sparse-table references the fast path is tested
//! against. Production phases never build a table: they run the row kernel
//! of [`crate::scoring`] and fuse mutual-best selection into it
//! ([`crate::scoring::fused_phase`], or
//! [`crate::scoring::mapreduce_fused_phase`] on the engine).
//!
//! * [`count_sequential`] — the independently implemented, link-centric
//!   count above. It is the full table the equivalence tests pin every
//!   backend against, and the only full table that scales to the sizes
//!   `theory_validation` checks, where brute force is infeasible.
//! * [`count_brute_force`] — the slow `O(n1 · n2 · d)` oracle, scoring every
//!   pair from its definition.
//!
//! Either table feeds [`crate::matching::mutual_best_pairs`], the reference
//! selection.

use crate::linking::Linking;
use snr_graph::{GraphView, NodeId};
use std::collections::HashMap;

/// A sparse table of candidate-pair scores.
///
/// Keys are `(g1_node, g2_node)` raw ids; values are the number of
/// similarity witnesses counted for that pair in the current phase.
pub type ScoreTable = HashMap<(u32, u32), u32>;

/// True if `(u, v)` is an eligible candidate in the current phase.
#[inline]
fn eligible<G1: GraphView, G2: GraphView>(
    g1: &G1,
    g2: &G2,
    links: &Linking,
    min_deg_g1: usize,
    min_deg_g2: usize,
    u: NodeId,
    v: NodeId,
) -> bool {
    g1.degree(u) >= min_deg_g1
        && g2.degree(v) >= min_deg_g2
        && !links.is_linked_g1(u)
        && !links.is_linked_g2(v)
}

/// Collects the copy-2 candidates of one link into `buf`: neighbors of `w2`
/// above the degree threshold and not yet linked. Decoding the list once per
/// link (instead of once per copy-1 neighbor) keeps the inner loop a plain
/// slice scan even when `G2` is a block-compressed representation.
#[inline]
fn eligible_g2_neighbors<G2: GraphView>(
    g2: &G2,
    links: &Linking,
    w2: NodeId,
    min_deg_g2: usize,
    buf: &mut Vec<NodeId>,
) {
    g2.neighbors_into(w2, buf);
    buf.retain(|&v| g2.degree(v) >= min_deg_g2 && !links.is_linked_g2(v));
}

/// Counts similarity witnesses for every candidate pair whose copy-1 degree
/// is at least `min_deg_g1` and copy-2 degree at least `min_deg_g2`, skipping
/// candidates that are already linked — the link-centric reference.
///
/// Excluding already-identified nodes keeps each phase's work proportional
/// to the *remaining* unknown nodes and lets the mutual-best rule keep
/// making progress on them — if linked celebrities stayed in the table they
/// would absorb the "best partner" slot of most low-degree nodes and stall
/// recall.
///
/// Generic over [`GraphView`], so the same count runs on
/// [`snr_graph::CsrGraph`] and [`snr_graph::CompactCsr`] (or a mix).
pub fn count_sequential<G1: GraphView, G2: GraphView>(
    g1: &G1,
    g2: &G2,
    links: &Linking,
    min_deg_g1: usize,
    min_deg_g2: usize,
) -> ScoreTable {
    let mut scores = ScoreTable::new();
    let mut vs: Vec<NodeId> = Vec::new();
    for (w1, w2) in links.pairs() {
        eligible_g2_neighbors(g2, links, w2, min_deg_g2, &mut vs);
        if vs.is_empty() {
            continue;
        }
        for u in g1.neighbors_iter(w1) {
            if g1.degree(u) < min_deg_g1 || links.is_linked_g1(u) {
                continue;
            }
            for &v in &vs {
                *scores.entry((u.0, v.0)).or_insert(0) += 1;
            }
        }
    }
    scores
}

/// Brute-force witness counting over all candidate pairs; `O(n1 · n2 · d)`.
/// Used only by tests as an oracle for the optimized implementations.
pub fn count_brute_force<G1: GraphView, G2: GraphView>(
    g1: &G1,
    g2: &G2,
    links: &Linking,
    min_deg_g1: usize,
    min_deg_g2: usize,
) -> ScoreTable {
    let mut scores = ScoreTable::new();
    for u in g1.nodes_iter() {
        for v in g2.nodes_iter() {
            if !eligible(g1, g2, links, min_deg_g1, min_deg_g2, u, v) {
                continue;
            }
            let mut count = 0u32;
            for w1 in g1.neighbors_iter(u) {
                if let Some(w2) = links.linked_in_g2(w1) {
                    if g2.has_edge(v, w2) {
                        count += 1;
                    }
                }
            }
            if count > 0 {
                scores.insert((u.0, v.0), count);
            }
        }
    }
    scores
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snr_generators::preferential_attachment;
    use snr_graph::CsrGraph;
    use snr_sampling::independent::independent_deletion_symmetric;
    use snr_sampling::sample_seeds;

    /// Two identical path graphs with an identity seed in the middle.
    fn tiny_case() -> (CsrGraph, CsrGraph, Linking) {
        let g1 = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let g2 = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let links = Linking::with_seeds(5, 5, &[(NodeId(2), NodeId(2))]);
        (g1, g2, links)
    }

    #[test]
    fn single_seed_scores_its_neighbor_cross_product() {
        let (g1, g2, links) = tiny_case();
        let scores = count_sequential(&g1, &g2, &links, 1, 1);
        // Seed (2,2): N1(2) = {1,3}, N2(2) = {1,3}; all 4 combinations get 1.
        assert_eq!(scores.len(), 4);
        assert_eq!(scores[&(1, 1)], 1);
        assert_eq!(scores[&(1, 3)], 1);
        assert_eq!(scores[&(3, 1)], 1);
        assert_eq!(scores[&(3, 3)], 1);
    }

    #[test]
    fn degree_threshold_filters_candidates() {
        let (g1, g2, links) = tiny_case();
        // Node 1 and 3 have degree 2; nodes 0 and 4 have degree 1.
        let scores = count_sequential(&g1, &g2, &links, 2, 2);
        assert_eq!(scores.len(), 4); // 1 and 3 survive on both sides
        let scores = count_sequential(&g1, &g2, &links, 3, 3);
        assert!(scores.is_empty());
    }

    #[test]
    fn linked_nodes_are_not_candidates() {
        // Cycle 0-1-2-3-0 in both copies; (0,0) and (1,1) are seeds.
        // Already-identified nodes only serve as witnesses; every scored
        // candidate pair involves two unlinked nodes.
        let g1 = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let g2 = g1.clone();
        let links = Linking::with_seeds(4, 4, &[(NodeId(0), NodeId(0)), (NodeId(1), NodeId(1))]);
        let scores = count_sequential(&g1, &g2, &links, 1, 1);
        for (u, v) in scores.keys() {
            assert!(*u != 0 && *u != 1, "linked g1 node {u} appeared as candidate");
            assert!(*v != 0 && *v != 1, "linked g2 node {v} appeared as candidate");
        }
        // Node 2 is adjacent to seed 1, node 3 to seed 0: one witness each.
        assert_eq!(scores[&(2, 2)], 1);
        assert_eq!(scores[&(3, 3)], 1);
    }

    #[test]
    fn multiple_seeds_accumulate() {
        // Star graphs: center 0 connected to 1..=4 in both copies.
        let edges: Vec<(u32, u32)> = (1..5).map(|i| (0, i)).collect();
        let g1 = CsrGraph::from_edges(5, &edges);
        let g2 = CsrGraph::from_edges(5, &edges);
        let links = Linking::with_seeds(
            5,
            5,
            &[(NodeId(1), NodeId(1)), (NodeId(2), NodeId(2)), (NodeId(3), NodeId(3))],
        );
        let scores = count_sequential(&g1, &g2, &links, 1, 1);
        // The centers (0,0) get 3 witnesses; that is the only candidate pair
        // (leaves' only neighbor is the center, which is unlinked, so leaf
        // pairs get no witnesses... they do not: leaf u's neighbors = {0},
        // and 0 is not linked, so no contribution).
        assert_eq!(scores.len(), 1);
        assert_eq!(scores[&(0, 0)], 3);
    }

    #[test]
    fn sequential_reference_matches_brute_force_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = preferential_attachment(300, 5, &mut rng).unwrap();
        let pair = independent_deletion_symmetric(&g, 0.6, &mut rng).unwrap();
        let seeds = sample_seeds(&pair, 0.15, &mut rng).unwrap();
        let links = Linking::with_seeds(pair.g1.node_count(), pair.g2.node_count(), &seeds);

        for (d1, d2) in [(1, 1), (2, 2), (4, 4)] {
            let oracle = count_brute_force(&pair.g1, &pair.g2, &links, d1, d2);
            let seq = count_sequential(&pair.g1, &pair.g2, &links, d1, d2);
            assert_eq!(seq, oracle, "sequential mismatch at threshold {d1}");
        }
    }

    #[test]
    fn compact_representation_produces_identical_tables() {
        use snr_graph::GraphView;
        let mut rng = StdRng::seed_from_u64(17);
        let g = preferential_attachment(400, 6, &mut rng).unwrap();
        let pair = independent_deletion_symmetric(&g, 0.6, &mut rng).unwrap();
        let seeds = sample_seeds(&pair, 0.12, &mut rng).unwrap();
        let links = Linking::with_seeds(pair.g1.node_count(), pair.g2.node_count(), &seeds);
        let (c1, c2) = (pair.g1.compact(), pair.g2.compact());
        assert!(c1.memory_bytes() < GraphView::memory_bytes(&pair.g1));

        for (d1, d2) in [(1, 1), (2, 2), (4, 4)] {
            let on_csr = count_sequential(&pair.g1, &pair.g2, &links, d1, d2);
            let on_compact = count_sequential(&c1, &c2, &links, d1, d2);
            let mixed = count_sequential(&pair.g1, &c2, &links, d1, d2);
            assert_eq!(on_compact, on_csr, "compact mismatch at threshold {d1}");
            assert_eq!(mixed, on_csr, "mixed-representation mismatch at threshold {d1}");
        }
    }

    #[test]
    fn empty_links_give_empty_scores() {
        let (g1, g2, _) = tiny_case();
        let links = Linking::new(5, 5);
        assert!(count_sequential(&g1, &g2, &links, 1, 1).is_empty());
        assert!(count_brute_force(&g1, &g2, &links, 1, 1).is_empty());
    }
}
