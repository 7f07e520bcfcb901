//! Property tests for the link frontier: over whole matching schedules on
//! random PA/ER graph pairs, the cache a `LinkFrontier` cuts at every phase
//! must equal the `LinkCache::build` of that phase's link set and degree
//! filter, and a frontier handed a linking that does not extend the last
//! one must start over instead of serving stale lists.

use rand::rngs::StdRng;
use rand::SeedableRng;
use snr_core::scoring::{score_phase_cached, CandidateCache, LinkCache, LinkFrontier, SelectSink};
use snr_core::{Linking, MatchingConfig, Phase};
use snr_generators::{gnp, preferential_attachment};
use snr_graph::{CsrGraph, NodeId};
use snr_sampling::independent::independent_deletion_symmetric;
use snr_sampling::sample_seeds;

/// One random reconciliation workload: two partial copies and seed links.
fn workload(use_pa: bool, n: usize, density: u32, seed: u64) -> (CsrGraph, CsrGraph, Linking) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = if use_pa {
        preferential_attachment(n.max(10), 2 + density as usize, &mut rng).unwrap()
    } else {
        let p = (2.0 + density as f64) * 2.0 / n as f64;
        gnp(n, p.min(0.9), &mut rng).unwrap()
    };
    let pair = independent_deletion_symmetric(&g, 0.7, &mut rng).unwrap();
    let seeds = sample_seeds(&pair, 0.15, &mut rng).unwrap();
    let links = Linking::with_seeds(pair.g1.node_count(), pair.g2.node_count(), &seeds);
    (pair.g1, pair.g2, links)
}

/// Runs `cfg`'s whole schedule through one frontier, checking its cache
/// against a fresh build before every phase's selection grows the links.
fn assert_frontier_tracks_builds(
    g1: &CsrGraph,
    g2: &CsrGraph,
    mut links: Linking,
    cfg: &MatchingConfig,
) {
    let schedule = cfg.schedule(g1.max_degree().max(g2.max_degree()));
    let candidates = CandidateCache::build(g1);
    let mut frontier = LinkFrontier::new(Phase::degree_floor(&schedule));
    let n2 = g2.node_count();
    for phase in &schedule {
        let d = phase.min_degree();
        let cache = frontier.advance(g2, &links, d, false);
        assert_eq!(cache, &LinkCache::build(g2, &links, d), "phase {phase:?}");
        let rows =
            candidates.eligible(d, |u| links.is_linked_g1(NodeId(u)), |u| g1.degree(NodeId(u)));
        let (_, pairs) =
            score_phase_cached(g1, cache, n2, &rows, false, || SelectSink::new(n2, cfg.threshold))
                .finish();
        links.insert_batch(&pairs);
    }
}

proptest::proptest! {
    #[test]
    fn frontier_cache_equals_a_fresh_build_at_every_phase(
        n in 40usize..160,
        density in 0u32..4,
        iterations in 1u32..4,
        min_bucket in 0u32..4,
        bucketing in 0u8..2,
        seed in 0u64..10_000,
    ) {
        let (g1, g2, links) = workload(seed % 2 == 0, n, density, seed);
        let cfg = MatchingConfig::default()
            .with_threshold(1 + (seed % 2) as u32)
            .with_iterations(iterations)
            .with_min_bucket(min_bucket)
            .with_degree_bucketing(bucketing == 1);
        assert_frontier_tracks_builds(&g1, &g2, links, &cfg);
    }
}

proptest::proptest! {
    #[test]
    fn frontier_cache_equals_a_fresh_build_for_any_degree_sequence(
        n in 40usize..160,
        density in 0u32..4,
        degrees in proptest::collection::vec(1usize..10, 1..8),
        grow in 0usize..6,
        seed in 0u64..10_000,
    ) {
        // Degree filters in any order (rising, repeated, not powers of
        // two) while the link set grows between phases.
        let (_, g2, mut links) = workload(seed % 2 == 1, n, density, seed);
        let mut frontier = LinkFrontier::new(1);
        let mut next = 0u32;
        for (i, &d) in degrees.iter().enumerate() {
            let cache = frontier.advance(&g2, &links, d, i % 2 == 1);
            assert_eq!(cache, &LinkCache::build(&g2, &links, d), "step {i}, min_degree {d}");
            for _ in 0..grow {
                while next < n as u32 && !links.insert(NodeId(next), NodeId(next)) {
                    next += 1;
                }
            }
        }
    }
}

#[test]
fn a_linking_that_is_not_a_superset_rebuilds_the_frontier() {
    let (_, g2, links) = workload(true, 300, 3, 17);
    let pairs = links.to_vec();
    assert!(pairs.len() >= 3, "workload must carry seed links");
    let mut frontier = LinkFrontier::new(1);
    frontier.advance(&g2, &links, 2, false);

    // A link removed.
    let dropped = Linking::with_seeds(links.g1_capacity(), links.g2_capacity(), &pairs[1..]);
    assert_eq!(frontier.advance(&g2, &dropped, 2, false), &LinkCache::build(&g2, &dropped, 2));

    // Same link count, but one copy-1 node relinked to a different partner.
    let (w1, _) = pairs[0];
    let spare = (0..g2.node_count() as u32)
        .map(NodeId)
        .find(|&v| !links.is_linked_g2(v) && g2.degree(v) > 0)
        .expect("an unlinked copy-2 node");
    let mut relinked = dropped.clone();
    relinked.insert(w1, spare);
    let mut original = dropped.clone();
    original.insert(w1, pairs[0].1);
    frontier.advance(&g2, &original, 2, false);
    assert_eq!(frontier.advance(&g2, &relinked, 2, false), &LinkCache::build(&g2, &relinked, 2));

    // A linking over a different node space.
    let wider = Linking::with_seeds(links.g1_capacity() + 5, links.g2_capacity(), &pairs);
    assert_eq!(frontier.advance(&g2, &wider, 2, false), &LinkCache::build(&g2, &wider, 2));
}

#[test]
fn a_linking_over_fewer_copy_2_ids_than_the_graph_is_served() {
    let (_, g2, links) = workload(true, 200, 2, 31);
    let n2 = g2.node_count() / 2;
    let narrow: Vec<_> = links.pairs().filter(|&(_, w2)| w2.index() < n2).collect();
    let narrow = Linking::with_seeds(links.g1_capacity(), n2, &narrow);
    let mut frontier = LinkFrontier::new(2);
    assert_eq!(frontier.advance(&g2, &narrow, 2, false), &LinkCache::build(&g2, &narrow, 2));
}

#[test]
fn a_degree_filter_below_the_floor_lowers_it() {
    let (_, g2, links) = workload(false, 200, 2, 23);
    let mut frontier = LinkFrontier::new(4);
    assert_eq!(frontier.advance(&g2, &links, 4, false), &LinkCache::build(&g2, &links, 4));
    assert_eq!(frontier.advance(&g2, &links, 1, false), &LinkCache::build(&g2, &links, 1));
    assert_eq!(frontier.advance(&g2, &links, 8, false), &LinkCache::build(&g2, &links, 8));
}

#[test]
fn reset_forgets_every_decoded_link() {
    let (_, g2, links) = workload(true, 150, 1, 29);
    let mut frontier = LinkFrontier::new(2);
    frontier.advance(&g2, &links, 2, false);
    frontier.reset();
    assert_eq!(frontier.cache(), &LinkCache::default());
    assert_eq!(frontier.advance(&g2, &links, 2, false), &LinkCache::build(&g2, &links, 2));
}
