//! The witness-scoring engine — the one kernel every phase runs on.
//!
//! A phase scores every degree-eligible, unlinked candidate pair `(u, v)`
//! by its number of similarity witnesses and keeps the mutual bests. This
//! module does that without a hash table:
//!
//! * **Candidate-centric rows.** We iterate the candidate copy-1 nodes `u`.
//!   Each row `score(u, ·)` depends only on `u`'s own neighborhood, so rows
//!   are independent: workers own disjoint sets of rows and the parallel
//!   path needs no merge of overlapping tables.
//! * **[`LinkCache`]** holds, for one phase, the threshold-filtered copy-2
//!   neighbor list of every linked pair `(w1, w2)` in one flat arena, and
//!   maps `w1` to its slice in O(1). Scoring a row is then a pure slice
//!   scan — no per-link block decoding and no hashing.
//! * **[`LinkFrontier`]** lives for a whole run and cuts every phase's
//!   cache. The link set only grows, so it decodes each link's copy-2
//!   neighborhood once, when the link appears, and afterwards only drops
//!   the targets linked since the last phase — instead of re-decoding every
//!   linked neighborhood in every phase.
//! * **[`ScoreArena`]** accumulates one row into a dense, generation-stamped
//!   scratch (`scores[v]`, `stamp[v]`, `touched`). Starting a row is O(1)
//!   (bump the epoch), and a contribution is one array increment.
//! * **[`score_row`]** is the row kernel: it fills the arena with one row.
//!   The sequential, rayon, MapReduce, driver and LSH-verify paths all call
//!   it; they differ only in which rows they score and where the rows go.
//! * **[`SelectSink`]** fuses mutual-best selection into row finalization:
//!   it keeps each row's argmax and a per-`v` running best, so no score
//!   table is ever materialized.
//!
//! The fused output is bit-for-bit identical to
//! `mutual_best_pairs(&count_sequential(..), t)` from the reference
//! implementations in [`crate::witness`]: per-row bests are exact (each
//! worker sees whole rows), and per-`v` bests merge with `Best::merge`,
//! which is associative, commutative, and preserves tie-abstention across
//! worker boundaries. `crates/core/tests/arena_scorer.rs` pins the kernel's
//! rows and the fused selection against `count_brute_force`.
//!
//! # The MapReduce round runs the same kernel
//!
//! [`mapreduce_fused_phase`] expresses one whole phase as a single
//! [`snr_mapreduce::Engine::run`] round, and a map task is exactly a
//! shard-driver task: it scores a contiguous chunk of candidate rows
//! through the phase's shared [`LinkCache`] into a [`SelectSink`] and ships
//! the sink's [`SinkClaims`] — 12 bytes per claimed row and 13 per column
//! best, not one entry per scored pair. The claims are split by copy-2
//! node `v`, so each reduce partition owns a `v` range, absorbs its pieces
//! into one sink and finishes the selection for those columns.

use crate::linking::Linking;
use crate::matching::Best;
use rayon::prelude::*;
use snr_graph::{GraphError, GraphView, NodeId};
use snr_mapreduce::partition::range_partition;
use snr_mapreduce::{Engine, EngineError, SpillCodec};

/// Sentinel in [`LinkCache::slot`] and `LinkFrontier::entry` for copy-1
/// nodes that are not linked.
const NO_LINK: u32 = u32::MAX;

/// Minimum candidate-row count before the parallel driver spawns workers.
const PARALLEL_CUTOFF: usize = 64;

/// Minimum link count before a [`LinkFrontier`] pass splits its links
/// across rayon workers; below this the per-chunk splice costs more than
/// the decode it saves.
const PARALLEL_LINK_CUTOFF: usize = 1_024;

/// One phase's decoded-neighbor cache: for every link `(w1, w2)`, the
/// threshold-eligible neighbors of `w2`, stored in one flat arena.
///
/// During a phase the link set and the eligibility predicate are fixed, so
/// each linked `w2`'s list is filtered once per phase instead of once per
/// copy-1 node adjacent to `w1`. A [`LinkFrontier`] cuts it from lists it
/// decoded in earlier phases: each link's neighborhood is decoded once per
/// run (for `CompactCsr` that decode is a varint block walk — the per-link
/// cost the ROADMAP flagged at R-MAT-18).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LinkCache {
    /// `slot[w1]` is the link index of `w1`, or [`NO_LINK`].
    slot: Vec<u32>,
    /// `offsets[k]..offsets[k + 1]` is link `k`'s slice of `targets`.
    offsets: Vec<u32>,
    /// Eligible copy-2 neighbors of every link, concatenated.
    targets: Vec<u32>,
}

impl LinkCache {
    /// The cache of one phase on its own: the first phase of a fresh
    /// [`LinkFrontier`] whose floor is `min_deg2`.
    ///
    /// Cost: `O(n1 + Σ_{(w1,w2)∈L} d2(w2))`. The slot array is sized by
    /// [`Linking::g1_capacity`], which bounds every `w1` the linking can
    /// contain (inserts are bounds-checked).
    pub fn build<G2: GraphView + Sync>(g2: &G2, links: &Linking, min_deg2: usize) -> LinkCache {
        let mut frontier = LinkFrontier::new(min_deg2);
        frontier.advance(g2, links, min_deg2, false);
        frontier.cache
    }

    /// The cached eligible copy-2 neighbors of `w1`'s link partner, or
    /// `None` if `w1` is not linked.
    #[inline]
    pub fn eligible_of(&self, w1: NodeId) -> Option<&[u32]> {
        let k = *self.slot.get(w1.index())?;
        if k == NO_LINK {
            return None;
        }
        let lo = self.offsets[k as usize] as usize;
        let hi = self.offsets[k as usize + 1] as usize;
        Some(&self.targets[lo..hi])
    }

    /// The link index of `w1` (its position in [`Linking::pairs`] order), or
    /// `None` if `w1` is not linked. Unlike [`LinkCache::eligible_of`] this
    /// ignores the eligibility filter — every link has an index even when
    /// its cached target list is empty. The blocking layer uses it to turn
    /// a copy-1 neighborhood into its witness-link set.
    #[inline]
    pub fn link_slot(&self, w1: NodeId) -> Option<u32> {
        let k = *self.slot.get(w1.index())?;
        (k != NO_LINK).then_some(k)
    }

    /// Total number of cached eligible neighbors across all links.
    pub fn cached_targets(&self) -> usize {
        self.targets.len()
    }
}

/// The run-long source of every phase's [`LinkCache`]: each link's copy-2
/// neighborhood is decoded once, when the link first appears, and kept
/// from then on as a list of live targets.
///
/// A link's live targets are the neighbors of `w2` with degree at least
/// the frontier's *floor* (the schedule's lowest `min_degree`) that are
/// still unlinked. They are held in two parts that together cost one copy:
/// the ones that passed the last phase's degree filter are that phase's
/// cache, the others sit in a compact side list. Each phase makes one pass
/// over the links in [`Linking::pairs`] order that
///
/// 1. merges a known link's two parts back into neighbor order (both are
///    ascending, as every [`GraphView`] neighbor list is), dropping the
///    targets linked since — a [`Linking`] never removes a link, so a
///    dropped target can never become eligible again. A side list none of
///    whose targets can reach the phase's filter is carried over unread;
/// 2. decodes the neighborhood of each link added since the last phase;
/// 3. splits every surviving target by the phase's `min_degree` into the
///    new cache and the new side list.
///
/// The cache that comes out is exactly [`LinkCache::build`]'s for the same
/// link set and `min_degree` (slots, offsets and target order included),
/// so every executor that scores through a frontier keeps its links and
/// `scored_pairs` bit for bit. A linking that is not a superset of the last
/// one seen, or a `min_degree` below the floor, makes the frontier start
/// over rather than serve stale lists.
#[derive(Debug, Default)]
pub struct LinkFrontier {
    /// Lowest copy-2 degree a live target can have.
    floor: usize,
    /// The last phase's cache. Its slots also number the links for
    /// `rest` and `partners`; empty offsets mark an unshaped frontier.
    cache: LinkCache,
    /// `rest_offsets[k]..rest_offsets[k + 1]` is link `k`'s slice of `rest`.
    rest_offsets: Vec<u32>,
    /// Live targets below the last phase's degree filter: per link its
    /// highest degree class, then an ascending list of ids with their degree
    /// classes ([`SideList`]). The gaps take a third to a half of the bytes
    /// plain ids would; the classes spare a degree lookup per target, and
    /// the header lets a pass copy a list that cannot reach its filter
    /// without reading it. Such a copied list may keep targets linked since
    /// it was written; they are dropped when the list is next read.
    rest: Vec<u8>,
    /// The last phase's `min_degree`: the cache's targets reach it, the
    /// side lists' targets do not.
    cut: usize,
    /// The copy-2 endpoint of every link, by link index.
    partners: Vec<u32>,
    /// Bitmap over copy-2 ids of the `partners`.
    linked: Vec<u64>,
}

/// One pass of [`LinkFrontier`] over a range of links: the range's cache
/// and side lists, with offsets local to the range.
struct Routed {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    rest_offsets: Vec<u32>,
    rest: Vec<u8>,
    /// Links of the range the frontier already held.
    known: usize,
    /// Links of the range decoded by this pass.
    decoded: usize,
    /// Targets the pass routed one by one (copied side lists not counted).
    live: usize,
    /// The current link's last side-list id, which its next gap counts from.
    prev: u32,
    /// Where the current link's side list starts in `rest`.
    side_start: usize,
    /// The highest degree class in the current link's side list.
    side_top: u8,
    /// Whether some held link changed its copy-2 endpoint.
    stale: bool,
}

impl LinkFrontier {
    /// An empty frontier keeping targets of degree at least `floor`.
    pub fn new(floor: usize) -> LinkFrontier {
        LinkFrontier { floor, ..LinkFrontier::default() }
    }

    /// Forgets every decoded link; the next phase decodes all of them.
    pub fn reset(&mut self) {
        *self = LinkFrontier::new(self.floor);
    }

    /// The cache the last [`LinkFrontier::advance`] returned (empty before
    /// the first).
    pub fn cache(&self) -> &LinkCache {
        &self.cache
    }

    /// Brings the frontier up to `links` and returns the phase's cache for
    /// copy-2 degree at least `min_deg2` — the one [`LinkCache::build`]
    /// would return. `parallel` splits the pass across rayon workers by
    /// link ranges; the cache is the same either way.
    pub fn advance<G2: GraphView + Sync>(
        &mut self,
        g2: &G2,
        links: &Linking,
        min_deg2: usize,
        parallel: bool,
    ) -> &LinkCache {
        let mut span = snr_telemetry::span!("link_cache", links = links.len());
        let t = snr_telemetry::enabled().then(std::time::Instant::now);
        if min_deg2 < self.floor || self.cache.slot.len() != links.g1_capacity() {
            self.floor = self.floor.min(min_deg2);
            self.reset();
        }
        let (routed, linked) = match self.route_all(g2, links, min_deg2, parallel) {
            Some(routed) => routed,
            None => {
                self.reset();
                self.route_all(g2, links, min_deg2, parallel)
                    .expect("an empty frontier holds no stale link")
            }
        };
        let (decoded, live) = (routed.decoded as u64, routed.live as u64);
        let mut slot = std::mem::take(&mut self.cache.slot);
        slot.resize(links.g1_capacity(), NO_LINK);
        if decoded > 0 {
            // Renumber the links: the pass read the old slots, so they are
            // only rewritten now. Without a new link nothing moved.
            self.partners.clear();
            for (k, (w1, w2)) in links.pairs().enumerate() {
                slot[w1.index()] = k as u32;
                self.partners.push(w2.0);
            }
        }
        self.cache = LinkCache { slot, offsets: routed.offsets, targets: routed.targets };
        self.rest_offsets = routed.rest_offsets;
        self.rest = routed.rest;
        self.linked = linked;
        self.cut = min_deg2;
        span.record(|| format!("decoded={decoded} live={live}"));
        snr_telemetry::Counter::LinksDecoded.add(decoded);
        snr_telemetry::Counter::LiveTargets.add(live);
        if let Some(t) = t {
            snr_telemetry::Counter::CacheBuildMicros.add(t.elapsed().as_micros() as u64);
        }
        &self.cache
    }

    /// Routes every link of `links` and returns the pass with the linking's
    /// [`LinkFrontier::linked_partners`], or `None` when `links` is not a
    /// superset of the linking the frontier last saw (a link gone, or a
    /// `w1` relinked elsewhere).
    fn route_all<G2: GraphView + Sync>(
        &self,
        g2: &G2,
        links: &Linking,
        min_deg2: usize,
        parallel: bool,
    ) -> Option<(Routed, Vec<u64>)> {
        // The decode walks each new `w2`'s neighborhood in link order —
        // close to sequential over the on-disk layout for mmap-backed
        // views — while the scoring that follows jumps rows at random.
        g2.advise_sequential();
        let linked = self.linked_partners(links, g2.node_count());
        let routed = if parallel && links.len() >= PARALLEL_LINK_CUTOFF {
            let pairs = links.to_vec();
            let chunk = pairs.len().div_ceil(rayon::current_num_threads());
            let ranges: Vec<&[(NodeId, NodeId)]> = pairs.chunks(chunk).collect();
            let parts: Vec<Routed> = ranges
                .par_iter()
                .map(|range| self.route(g2, &linked, range.iter().copied(), min_deg2))
                .collect();
            splice(parts)
        } else {
            self.route(g2, &linked, links.pairs(), min_deg2)
        };
        g2.advise_random();
        let held = self.partners.len();
        (!routed.stale && routed.known == held).then_some((routed, linked))
    }

    /// A bitmap over copy-2 ids below `n2` (or the linking's capacity, if
    /// larger) of the partners of every link of `links`: the last
    /// linking's, plus those of the links added since (a linking that is
    /// not a superset fails the pass that uses it). One bit test per target
    /// instead of a lookup in the linking.
    fn linked_partners(&self, links: &Linking, n2: usize) -> Vec<u64> {
        let words = links.g2_capacity().max(n2).div_ceil(64);
        let mut bits =
            if self.linked.len() == words { self.linked.clone() } else { vec![0; words] };
        if links.len() != self.partners.len() {
            for (w1, w2) in links.pairs() {
                if self.cache.slot.get(w1.index()).is_none_or(|&k| k == NO_LINK) {
                    bits[w2.index() / 64] |= 1 << (w2.index() % 64);
                }
            }
        }
        bits
    }

    /// One pass over `pairs` (a range of `links` in [`Linking::pairs`]
    /// order): the route of every live target into the cache (degree at
    /// least `min_deg2`) or the side lists — the one decode-and-filter loop
    /// of the scoring layer. `linked` is [`LinkFrontier::linked_partners`].
    fn route<G2: GraphView>(
        &self,
        g2: &G2,
        linked: &[u64],
        pairs: impl Iterator<Item = (NodeId, NodeId)>,
        min_deg2: usize,
    ) -> Routed {
        // Every live target clears the floor, so a phase at the floor keeps
        // whole lists without a degree lookup.
        let all_pass = min_deg2 <= self.floor;
        let bar = degree_class(min_deg2.max(1));
        // Whether a target of degree class `class` reaches `min_deg2`; only
        // a non-power-of-two `min_deg2` of the target's own class needs its
        // degree.
        let passes = |v: u32, class: u8| {
            all_pass
                || class > bar
                || (class == bar
                    && (min_deg2.is_power_of_two() || g2.degree(NodeId(v)) >= min_deg2))
        };
        // Targets in the cache have degree at least the last cut, targets in
        // the side lists below it; only the side that may cross this
        // phase's filter is looked at.
        let (cache_stays, side_stays) = (min_deg2 <= self.cut, min_deg2 >= self.cut);
        let is_linked = |v: u32| linked[v as usize / 64] >> (v % 64) & 1 == 1;
        let mut out = Routed::new();
        for (w1, w2) in pairs {
            out.begin_side();
            // A reset frontier has no slots: every link is new to it.
            let held = self.cache.slot.get(w1.index()).copied().unwrap_or(NO_LINK);
            if held == NO_LINK {
                out.decoded += 1;
                for v in g2.neighbors_iter(w2) {
                    let degree = g2.degree(v);
                    if degree >= self.floor && !is_linked(v.0) {
                        let class = degree_class(degree.max(1));
                        out.keep(v.0, class, all_pass || degree >= min_deg2);
                    }
                }
            } else {
                let k = held as usize;
                if self.partners[k] != w2.0 {
                    out.stale = true;
                    return out;
                }
                out.known += 1;
                let cached = &self.cache.targets
                    [self.cache.offsets[k] as usize..self.cache.offsets[k + 1] as usize];
                let side =
                    &self.rest[self.rest_offsets[k] as usize..self.rest_offsets[k + 1] as usize];
                let from_cache = |v: u32, out: &mut Routed| {
                    if is_linked(v) {
                        return;
                    }
                    if cache_stays {
                        out.keep(v, 0, true);
                    } else {
                        let class = degree_class(g2.degree(NodeId(v)));
                        out.keep(v, class, passes(v, class));
                    }
                };
                // A side list starts with its highest degree class, and may
                // hold targets linked since it was written.
                let (side_top, entries) = side.split_first().map_or((0, &[][..]), |(&t, e)| (t, e));
                let side_moves = !side.is_empty() && !side_stays && (all_pass || side_top >= bar);
                if cache_stays && !side_moves {
                    // Each part keeps its own output: the cache list is
                    // filtered, the side list copied whole.
                    for &v in cached {
                        from_cache(v, &mut out);
                    }
                    out.copy_side(side);
                } else {
                    let mut below =
                        SideList { bytes: entries, prev: 0 }.filter(|&(v, _)| !is_linked(v));
                    let mut next = below.next();
                    for &v in cached {
                        while let Some((u, class)) = next.filter(|&(u, _)| u < v) {
                            out.keep(u, class, passes(u, class));
                            next = below.next();
                        }
                        from_cache(v, &mut out);
                    }
                    while let Some((u, class)) = next {
                        out.keep(u, class, passes(u, class));
                        next = below.next();
                    }
                }
            }
            out.end_side();
            out.offsets.push(out.targets.len() as u32);
            out.rest_offsets.push(out.rest.len() as u32);
        }
        out
    }
}

/// `⌊log₂ degree⌋` of a degree of at least 1.
#[inline]
fn degree_class(degree: usize) -> u8 {
    (usize::BITS - 1 - degree.leading_zeros()) as u8
}

/// Appends `value` to `out` as a LEB128 varint: seven bits per byte, low
/// bits first, the high bit set on every byte but the last.
fn push_varint(out: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// The `(id, degree class)` entries of one side list. Each entry is one
/// [`push_varint`] value: the gap from the previous id shifted left by six
/// bits, over the six-bit degree class.
struct SideList<'a> {
    bytes: &'a [u8],
    prev: u32,
}

impl Iterator for SideList<'_> {
    type Item = (u32, u8);

    #[inline]
    fn next(&mut self) -> Option<(u32, u8)> {
        let mut value = 0u64;
        let mut shift = 0;
        loop {
            let (&byte, tail) = self.bytes.split_first()?;
            self.bytes = tail;
            value |= u64::from(byte & 0x7f) << shift;
            if byte < 0x80 {
                break;
            }
            shift += 7;
        }
        self.prev += (value >> 6) as u32;
        Some((self.prev, (value & 0x3f) as u8))
    }
}

impl Routed {
    fn new() -> Routed {
        Routed {
            offsets: vec![0],
            targets: Vec::new(),
            rest_offsets: vec![0],
            rest: Vec::new(),
            known: 0,
            decoded: 0,
            live: 0,
            prev: 0,
            side_start: 0,
            side_top: 0,
            stale: false,
        }
    }

    /// Opens the next link's side list behind a placeholder header.
    #[inline]
    fn begin_side(&mut self) {
        self.prev = 0;
        self.side_top = 0;
        self.side_start = self.rest.len();
        self.rest.push(0);
    }

    /// Closes the current link's side list: writes its header, or drops it
    /// when no target went to it.
    #[inline]
    fn end_side(&mut self) {
        if self.rest.len() == self.side_start + 1 {
            self.rest.pop();
        } else {
            self.rest[self.side_start] = self.side_top;
        }
    }

    /// Takes a held side list over unchanged, header included.
    #[inline]
    fn copy_side(&mut self, side: &[u8]) {
        debug_assert_eq!(self.rest.len(), self.side_start + 1, "side list already written");
        self.rest.truncate(self.side_start);
        self.rest.extend_from_slice(side);
        self.side_start = self.rest.len();
        self.rest.push(0);
    }

    /// Routes live target `v` of degree class `class` to the current link's
    /// cache list or side list.
    #[inline]
    fn keep(&mut self, v: u32, class: u8, to_cache: bool) {
        self.live += 1;
        if to_cache {
            self.targets.push(v);
        } else {
            push_varint(&mut self.rest, (u64::from(v - self.prev) << 6) | u64::from(class));
            self.prev = v;
            self.side_top = self.side_top.max(class);
        }
    }
}

/// Concatenates per-range passes in range order, rebasing their offsets.
fn splice(parts: Vec<Routed>) -> Routed {
    let mut all = Routed::new();
    all.targets.reserve_exact(parts.iter().map(|p| p.targets.len()).sum());
    all.rest.reserve_exact(parts.iter().map(|p| p.rest.len()).sum());
    for part in parts {
        let (base, rest_base) = (all.targets.len() as u32, all.rest.len() as u32);
        all.offsets.extend(part.offsets[1..].iter().map(|&o| o + base));
        all.rest_offsets.extend(part.rest_offsets[1..].iter().map(|&o| o + rest_base));
        all.targets.extend(part.targets);
        all.rest.extend(part.rest);
        all.known += part.known;
        all.decoded += part.decoded;
        all.live += part.live;
        all.stale |= part.stale;
    }
    all
}

/// Dense, generation-stamped scratch for accumulating one candidate row.
///
/// `scores[v]` is valid only where `stamp[v] == epoch`; bumping the epoch
/// invalidates the whole row in O(1), so the arena is reused across every
/// row of a phase without clearing.
pub struct ScoreArena {
    scores: Vec<u32>,
    stamp: Vec<u32>,
    epoch: u32,
    touched: Vec<u32>,
}

impl ScoreArena {
    /// An arena over `n2` copy-2 nodes.
    pub fn new(n2: usize) -> ScoreArena {
        ScoreArena { scores: vec![0; n2], stamp: vec![0; n2], epoch: 0, touched: Vec::new() }
    }

    /// Starts a new row, invalidating the previous one in O(1).
    #[inline]
    pub fn begin_row(&mut self) {
        self.touched.clear();
        if self.epoch == u32::MAX {
            // One reset every 2^32 - 1 rows keeps the stamp test exact.
            self.stamp.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    /// Adds one witness contribution for copy-2 node `v`.
    #[inline]
    pub fn bump(&mut self, v: u32) {
        let i = v as usize;
        if self.stamp[i] == self.epoch {
            self.scores[i] += 1;
        } else {
            self.stamp[i] = self.epoch;
            self.scores[i] = 1;
            self.touched.push(v);
        }
    }

    /// The copy-2 nodes with a non-zero score in the current row, in first-
    /// touch order.
    #[inline]
    pub fn touched(&self) -> &[u32] {
        &self.touched
    }

    /// The current row's score for `v`. Only meaningful for touched `v`.
    #[inline]
    pub fn get(&self, v: u32) -> u32 {
        self.scores[v as usize]
    }

    /// The current row's score for `v`, or `None` if `v` was not touched
    /// this row. Only valid after at least one [`ScoreArena::begin_row`].
    #[inline]
    pub fn current(&self, v: u32) -> Option<u32> {
        let i = v as usize;
        (self.stamp[i] == self.epoch).then(|| self.scores[i])
    }
}

/// Consumer of finished candidate rows that fuses mutual-best selection
/// into row finalization.
///
/// Finishing a row computes its argmax (the row is complete, so the
/// strict-uniqueness flag is exact) and folds every entry into a dense
/// per-`v` running best. The full score table is never materialized.
pub struct SelectSink {
    threshold: u32,
    /// Rows whose best entry met the threshold with a strictly unique
    /// score: `(u, best)` in ascending `u` order per worker.
    claims: Vec<(u32, Best)>,
    /// Running best partner for every copy-2 node; `score == 0` means no
    /// entry seen yet.
    best_v: Vec<Best>,
    /// Total number of non-zero `(u, v)` pairs seen (the `scored_pairs`
    /// phase statistic, kept identical to `ScoreTable::len`).
    scored_pairs: usize,
}

impl SelectSink {
    /// A sink selecting pairs with at least `threshold` witnesses over `n2`
    /// copy-2 nodes. A threshold of 0 is clamped to 1, matching
    /// [`crate::matching::mutual_best_pairs`].
    pub fn new(n2: usize, threshold: u32) -> SelectSink {
        SelectSink {
            threshold: threshold.max(1),
            claims: Vec::new(),
            best_v: vec![Best { partner: NO_LINK, score: 0, unique: false }; n2],
            scored_pairs: 0,
        }
    }

    /// Completes the selection: a claimed row `(u, v)` survives iff `u` is
    /// also `v`'s strictly-unique best. Returns the scored-pair count and
    /// the selected pairs in ascending `(u, v)` order — exactly
    /// `mutual_best_pairs(&table, threshold)`.
    pub fn finish(self) -> (usize, Vec<(NodeId, NodeId)>) {
        let mut out = Vec::new();
        for (u, b) in &self.claims {
            let bv = &self.best_v[b.partner as usize];
            // bv.partner == u implies bv.score == b.score >= threshold.
            if bv.unique && bv.partner == *u {
                out.push((NodeId(*u), NodeId(b.partner)));
            }
        }
        out.sort_unstable();
        (self.scored_pairs, out)
    }

    /// Consumes one complete row given as `(v, score)` entries. The caller
    /// must pass every non-zero entry of row `u` exactly once (in any
    /// order — the row best and per-`v` bests are order-independent) and
    /// must not pass an empty row.
    pub(crate) fn row_entries(&mut self, u: u32, mut entries: impl Iterator<Item = (u32, u32)>) {
        let (v0, s0) = entries.next().expect("drivers only emit non-empty rows");
        let mut best = Best { partner: v0, score: s0, unique: true };
        self.best_v[v0 as usize].consider(u, s0);
        self.scored_pairs += 1;
        for (v, score) in entries {
            self.scored_pairs += 1;
            best.consider(v, score);
            self.best_v[v as usize].consider(u, score);
        }
        if best.unique && best.score >= self.threshold {
            self.claims.push((u, best));
        }
    }

    /// Consumes the finished row `u` held in `arena` (see [`score_row`]).
    /// Empty rows are skipped — they would not appear in a sparse table
    /// either.
    #[inline]
    pub fn row(&mut self, u: u32, arena: &ScoreArena) {
        if !arena.touched().is_empty() {
            self.row_entries(u, arena.touched().iter().map(|&v| (v, arena.get(v))));
        }
    }

    /// Folds another worker's sink into this one. Rows arrive in ascending
    /// `u` order within a worker, but the sinks merge order-independently:
    /// workers score disjoint `u` rows and share the `v` axis, whose bests
    /// merge with the tie-abstaining `Best::merge`.
    pub fn merge(&mut self, mut other: SelectSink) {
        self.scored_pairs += other.scored_pairs;
        self.claims.append(&mut other.claims);
        for (mine, theirs) in self.best_v.iter_mut().zip(other.best_v) {
            if theirs.score > 0 {
                *mine = if mine.score > 0 { mine.merge(theirs) } else { theirs };
            }
        }
    }

    /// Extracts this sink's accumulated state as a serializable
    /// [`SinkClaims`] — what a distributed worker ships back to the
    /// coordinator instead of the sink itself.
    pub fn into_claims(self) -> SinkClaims {
        SinkClaims {
            scored_pairs: self.scored_pairs as u64,
            claims: self.claims.iter().map(|&(u, b)| (u, b.partner, b.score)).collect(),
            bests: self
                .best_v
                .iter()
                .enumerate()
                .filter(|(_, b)| b.score > 0)
                .map(|(v, b)| (v as u32, b.partner, b.score, b.unique))
                .collect(),
        }
    }

    /// Folds a worker's serialized claims into this sink — the wire-format
    /// counterpart of [`SelectSink::merge`]. Absorbing the [`SinkClaims`] of
    /// per-row-range sinks that together tile the candidate rows leaves this
    /// sink bit-identical to one that scored every row locally: claim order
    /// is irrelevant ([`SelectSink::finish`] sorts), `scored_pairs` is a
    /// plain sum, and the per-`v` bests merge with the associative,
    /// commutative, tie-abstaining `Best::merge`.
    ///
    /// Claims are validated before any state changes against `n1`, the
    /// copy-1 node count, and this sink's `n2`: a claimed row `u` or a
    /// column best's partner at or beyond `n1`, a copy-2 id at or beyond
    /// `n2`, a zero score, or a claim below this sink's threshold is
    /// rejected (the sink is left untouched), so a corrupt or mismatched
    /// payload can never poison the selection.
    pub fn absorb_claims(&mut self, claims: &SinkClaims, n1: usize) -> Result<(), GraphError> {
        let n2 = self.best_v.len() as u32;
        let n1 = u32::try_from(n1).unwrap_or(u32::MAX);
        for &(u, partner, score) in &claims.claims {
            if u >= n1 || partner >= n2 {
                return Err(GraphError::InvalidParameter(format!(
                    "sink claim ({u}, {partner}) out of range (n1 = {n1}, n2 = {n2})"
                )));
            }
            if score < self.threshold {
                return Err(GraphError::InvalidParameter(format!(
                    "sink claim score {score} below threshold {}",
                    self.threshold
                )));
            }
        }
        for &(v, partner, score, _) in &claims.bests {
            if v >= n2 || partner >= n1 {
                return Err(GraphError::InvalidParameter(format!(
                    "per-v best ({v}, {partner}) out of range (n1 = {n1}, n2 = {n2})"
                )));
            }
            if score == 0 {
                return Err(GraphError::InvalidParameter(format!(
                    "per-v best for {v} has zero score"
                )));
            }
        }
        self.scored_pairs += claims.scored_pairs as usize;
        // Claims are only ever pushed for strictly-unique row bests, so the
        // flag is not part of the wire format.
        self.claims.extend(
            claims
                .claims
                .iter()
                .map(|&(u, partner, score)| (u, Best { partner, score, unique: true })),
        );
        for &(v, partner, score, unique) in &claims.bests {
            let mine = &mut self.best_v[v as usize];
            let theirs = Best { partner, score, unique };
            *mine = if mine.score > 0 { mine.merge(theirs) } else { theirs };
        }
        Ok(())
    }
}

/// Serialized image of a [`SelectSink`]'s accumulated state — the unit a
/// distributed worker ships back to the coordinator after scoring its
/// assigned row-range.
///
/// The wire format is a fixed-width little-endian layout:
///
/// ```text
/// scored_pairs: u64
/// claim_count:  u32, then per claim  (u, partner, score): 3 x u32
/// best_count:   u32, then per best   (v, partner, score): 3 x u32, unique: u8
/// ```
///
/// [`SinkClaims::decode`] rejects truncated, oversized, or malformed bytes
/// with [`GraphError::InvalidBinary`]; it never panics and never allocates
/// more than the input length implies.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SinkClaims {
    scored_pairs: u64,
    /// Rows claimed by the worker: `(u, partner, score)`, unique by
    /// construction.
    claims: Vec<(u32, u32, u32)>,
    /// Non-empty per-`v` running bests: `(v, partner, score, unique)`.
    bests: Vec<(u32, u32, u32, bool)>,
}

/// Byte width of one encoded claim entry.
const CLAIM_WIDTH: usize = 12;
/// Byte width of one encoded per-`v` best entry.
const BEST_WIDTH: usize = 13;

fn claims_take<'a>(bytes: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], GraphError> {
    let end = pos
        .checked_add(n)
        .filter(|&end| end <= bytes.len())
        .ok_or_else(|| GraphError::InvalidBinary("sink claims truncated".into()))?;
    let slice = &bytes[*pos..end];
    *pos = end;
    Ok(slice)
}

fn claims_u32(bytes: &[u8], pos: &mut usize) -> Result<u32, GraphError> {
    let b = claims_take(bytes, pos, 4)?;
    Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

impl SinkClaims {
    /// Total `(u, v)` pairs the producing sink scored.
    pub fn scored_pairs(&self) -> u64 {
        self.scored_pairs
    }

    /// Length in bytes of [`SinkClaims::encode`]'s output.
    fn encoded_len(&self) -> usize {
        16 + CLAIM_WIDTH * self.claims.len() + BEST_WIDTH * self.bests.len()
    }

    /// Splits the claims into one piece per range of the copy-2 axis
    /// (`range_partition(v, n2, parts)`): a claim goes with its partner
    /// `v`, a column best with its `v`, and `scored_pairs` rides on the
    /// first piece. Returns the non-empty pieces with their range index;
    /// each piece holds everything a reducer needs to finish the
    /// selection for its columns.
    fn split_by_column(self, n2: usize, parts: usize) -> Vec<(u32, SinkClaims)> {
        let mut pieces = vec![SinkClaims::default(); parts];
        for claim in self.claims {
            pieces[range_partition(claim.1, n2, parts)].claims.push(claim);
        }
        for best in self.bests {
            pieces[range_partition(best.0, n2, parts)].bests.push(best);
        }
        let mut out: Vec<(u32, SinkClaims)> = (0..parts as u32)
            .zip(pieces)
            .filter(|(_, piece)| !piece.claims.is_empty() || !piece.bests.is_empty())
            .collect();
        // A scored pair always leaves a column best behind, so a sink with
        // scored pairs yields at least one piece.
        if let Some((_, first)) = out.first_mut() {
            first.scored_pairs = self.scored_pairs;
        }
        out
    }

    /// Serializes the claims into the fixed-width wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        out.extend_from_slice(&self.scored_pairs.to_le_bytes());
        out.extend_from_slice(&(self.claims.len() as u32).to_le_bytes());
        for &(u, partner, score) in &self.claims {
            out.extend_from_slice(&u.to_le_bytes());
            out.extend_from_slice(&partner.to_le_bytes());
            out.extend_from_slice(&score.to_le_bytes());
        }
        out.extend_from_slice(&(self.bests.len() as u32).to_le_bytes());
        for &(v, partner, score, unique) in &self.bests {
            out.extend_from_slice(&v.to_le_bytes());
            out.extend_from_slice(&partner.to_le_bytes());
            out.extend_from_slice(&score.to_le_bytes());
            out.push(unique as u8);
        }
        out
    }

    /// Parses the wire format back into claims. Any structural defect —
    /// truncation, counts that overrun the payload, a malformed uniqueness
    /// byte, trailing garbage — is an error, never a panic.
    pub fn decode(bytes: &[u8]) -> Result<SinkClaims, GraphError> {
        let mut pos = 0usize;
        let sp = claims_take(bytes, &mut pos, 8)?;
        let scored_pairs = u64::from_le_bytes(sp.try_into().expect("8-byte slice"));

        let claim_count = claims_u32(bytes, &mut pos)? as usize;
        if claim_count.saturating_mul(CLAIM_WIDTH) > bytes.len() - pos {
            return Err(GraphError::InvalidBinary(format!(
                "sink claims: claim count {claim_count} overruns {} payload bytes",
                bytes.len() - pos
            )));
        }
        let mut claims = Vec::with_capacity(claim_count);
        for _ in 0..claim_count {
            let u = claims_u32(bytes, &mut pos)?;
            let partner = claims_u32(bytes, &mut pos)?;
            let score = claims_u32(bytes, &mut pos)?;
            claims.push((u, partner, score));
        }

        let best_count = claims_u32(bytes, &mut pos)? as usize;
        if best_count.saturating_mul(BEST_WIDTH) > bytes.len() - pos {
            return Err(GraphError::InvalidBinary(format!(
                "sink claims: best count {best_count} overruns {} payload bytes",
                bytes.len() - pos
            )));
        }
        let mut bests = Vec::with_capacity(best_count);
        for _ in 0..best_count {
            let v = claims_u32(bytes, &mut pos)?;
            let partner = claims_u32(bytes, &mut pos)?;
            let score = claims_u32(bytes, &mut pos)?;
            let unique = match claims_take(bytes, &mut pos, 1)?[0] {
                0 => false,
                1 => true,
                b => {
                    return Err(GraphError::InvalidBinary(format!(
                        "sink claims: uniqueness byte {b:#04x} is not 0 or 1"
                    )))
                }
            };
            bests.push((v, partner, score, unique));
        }

        if pos != bytes.len() {
            return Err(GraphError::InvalidBinary(format!(
                "sink claims: {} trailing bytes",
                bytes.len() - pos
            )));
        }
        Ok(SinkClaims { scored_pairs, claims, bests })
    }
}

/// Collects the phase's candidate copy-1 nodes: degree at least
/// `min_degree` and not yet linked, in ascending id order.
pub(crate) fn collect_candidates<G1: GraphView>(
    g1: &G1,
    links: &Linking,
    min_degree: usize,
) -> Vec<u32> {
    (0..g1.node_count() as u32)
        .filter(|&u| g1.degree(NodeId(u)) >= min_degree && !links.is_linked_g1(NodeId(u)))
        .collect()
}

/// Per-run cache of one graph side's degree structure, replacing the
/// per-phase full rescan of `collect_candidates`.
///
/// Every phase of every iteration used to read the degree of *all* `n`
/// nodes again — `O(k · log D · n)` degree lookups, each a potential page
/// fault on an mmap-backed view. Degrees never change during a run, so this
/// cache reads them exactly once, grouping node ids by `⌊log₂ degree⌋`
/// (each group kept in ascending id order). A phase's eligible set is then
/// assembled from whole groups — only the split group of a non-power-of-two
/// `min_degree` ever re-reads a degree — filtered by the current link state.
///
/// [`CandidateCache::eligible`] returns exactly what `collect_candidates`
/// would (pinned by the equivalence tests), so cached and uncached phases
/// produce bit-identical links.
pub struct CandidateCache {
    /// `groups[j]` holds the node ids with `⌊log₂ degree⌋ == j`, ascending.
    groups: Vec<Vec<u32>>,
}

impl CandidateCache {
    /// Reads every node's degree once and groups ids by `⌊log₂ degree⌋`
    /// (degree-0 nodes are dropped — no `min_degree ≥ 1` can admit them).
    pub fn build<G: GraphView>(g: &G) -> CandidateCache {
        let mut groups: Vec<Vec<u32>> = Vec::new();
        for u in 0..g.node_count() as u32 {
            let d = g.degree(NodeId(u));
            if d == 0 {
                continue;
            }
            let j = (usize::BITS - 1 - d.leading_zeros()) as usize;
            if groups.len() <= j {
                groups.resize_with(j + 1, Vec::new);
            }
            groups[j].push(u);
        }
        CandidateCache { groups }
    }

    /// The ids with degree at least `min_degree` (≥ 1) for which
    /// `is_linked` is false, ascending — exactly
    /// `collect_candidates`' output for the matching side.
    ///
    /// Group `j` covers degrees `[2^j, 2^{j+1})`, so groups above
    /// `⌊log₂ min_degree⌋` qualify wholesale; only that boundary group needs
    /// a per-id degree check, and only when `min_degree` is not a power of
    /// two (the algorithm's buckets always are, so the check usually
    /// vanishes). `degree_of` is consulted for just that split group.
    pub fn eligible<L, D>(&self, min_degree: usize, is_linked: L, degree_of: D) -> Vec<u32>
    where
        L: Fn(u32) -> bool,
        D: Fn(u32) -> usize,
    {
        let min_degree = min_degree.max(1);
        let boundary = (usize::BITS - 1 - min_degree.leading_zeros()) as usize;
        let split = !min_degree.is_power_of_two();
        let mut out = Vec::new();
        for (j, group) in self.groups.iter().enumerate().skip(boundary) {
            for &u in group {
                if j == boundary && split && degree_of(u) < min_degree {
                    continue;
                }
                if !is_linked(u) {
                    out.push(u);
                }
            }
        }
        out.sort_unstable();
        out
    }
}

/// Splits the sorted candidate list into per-worker chunks, aligning chunk
/// boundaries with `g1`'s storage partitions when it has any (a sharded
/// view: each worker then streams candidate rows from one shard instead of
/// faulting pages across all of them). Large shards are subdivided so the
/// chunk count still scales with the worker count; which chunking is chosen
/// never changes results — rows are scored independently and the sinks
/// merge order-independently.
fn chunk_candidates<'a, G1: GraphView>(
    g1: &G1,
    candidates: &'a [u32],
    workers: usize,
) -> Vec<&'a [u32]> {
    let shard_slices: Vec<&[u32]> = match g1.storage_partitions() {
        Some(ranges) if ranges.len() > 1 => {
            // Slice at every shard boundary, keeping the pieces *between*
            // declared ranges too: a view whose partitions don't tile the
            // node space must still have every candidate row scored —
            // alignment is an optimization, coverage is correctness.
            let mut cut_ids: Vec<u32> = ranges.iter().flat_map(|r| [r.start, r.end]).collect();
            cut_ids.sort_unstable();
            cut_ids.dedup();
            let mut cut_positions: Vec<usize> = vec![0];
            cut_positions.extend(cut_ids.iter().map(|&id| candidates.partition_point(|&u| u < id)));
            cut_positions.push(candidates.len());
            cut_positions.dedup();
            cut_positions
                .windows(2)
                .map(|w| &candidates[w[0]..w[1]])
                .filter(|s| !s.is_empty())
                .collect()
        }
        _ => vec![candidates],
    };
    let total: usize = shard_slices.iter().map(|s| s.len()).sum();
    let mut chunks = Vec::with_capacity(workers + shard_slices.len());
    for slice in shard_slices {
        // Subdivide proportionally to the slice's share of the candidates.
        let pieces = (slice.len() * workers).div_ceil(total.max(1)).max(1);
        let chunk_size = slice.len().div_ceil(pieces);
        chunks.extend(slice.chunks(chunk_size));
    }
    chunks
}

/// The row kernel: scores candidate row `u` of `g1` into `arena` — one
/// [`ScoreArena::bump`] per cached eligible copy-2 neighbor of every linked
/// neighbor `w1` of `u`. Afterwards `arena.touched()` lists the row's
/// non-zero entries and `arena.get(v)` their witness counts: exactly row
/// `u` of the reference table. Every scoring path of a phase (sequential,
/// rayon, MapReduce, the shard driver and LSH verification) runs this one
/// loop; it is public so tests can read rows straight from the arena.
///
/// `u` is addressed in `g1`'s own id space (a row-range view passes its
/// local id); the neighbor ids `g1` yields are global.
#[inline]
pub fn score_row<G1: GraphView>(g1: &G1, cache: &LinkCache, u: NodeId, arena: &mut ScoreArena) {
    arena.begin_row();
    for w1 in g1.neighbors_iter(u) {
        if let Some(vs) = cache.eligible_of(w1) {
            for &v in vs {
                arena.bump(v);
            }
        }
    }
}

/// Scores a contiguous range of rows through a prebuilt per-phase
/// [`LinkCache`] into `sink` — the kernel of one shard-driver task.
///
/// `g1` holds the whole copy-1 node space (an mmap view or a sharded view
/// routing global ids), and `rows` are global ids. Candidate filtering
/// matches the fused phase exactly: a row is scored iff its degree reaches
/// `min_degree` and it is unlinked; empty rows are skipped. Running
/// disjoint ranges that tile `0..n1` through fresh [`SelectSink`]s and
/// absorbing their claims reproduces [`fused_phase`] bit-for-bit.
pub fn score_assigned_rows<G1: GraphView>(
    g1: &G1,
    rows: std::ops::Range<u32>,
    cache: &LinkCache,
    links: &Linking,
    min_degree: usize,
    arena: &mut ScoreArena,
    sink: &mut SelectSink,
) {
    // A worker reads exactly this row range; tell mmap-backed views to
    // prefetch it (no-op for in-memory views).
    g1.advise_rows(rows.clone());
    for u in rows {
        if g1.degree(NodeId(u)) < min_degree || links.is_linked_g1(NodeId(u)) {
            continue;
        }
        score_row(g1, cache, NodeId(u), arena);
        sink.row(u, arena);
    }
}

/// Scores an explicit candidate-pair list through the exact arena path —
/// the verification kernel of LSH candidate blocking.
///
/// `pairs` must be sorted by `(u, v)` and duplicate-free (what
/// `snr_sketch::propose_pairs` emits). For each distinct `u` the full row
/// is accumulated into `arena` by [`score_row`] — so every score handed on
/// is *exact* — but only the proposed `(u, v)` entries with a non-zero
/// score reach the sink. The sink therefore selects mutual bests over the
/// blocked candidate set, and its `scored_pairs` statistic counts proposed
/// non-zero pairs: the number blocking actually sent to selection, the
/// quantity the recall/speed sweeps compare against the exact path's
/// scored-pair count.
pub fn score_pair_list<G1: GraphView>(
    g1: &G1,
    cache: &LinkCache,
    pairs: &[(u32, u32)],
    arena: &mut ScoreArena,
    sink: &mut SelectSink,
) {
    let mut entries: Vec<(u32, u32)> = Vec::new();
    let mut i = 0usize;
    while i < pairs.len() {
        let u = pairs[i].0;
        let mut j = i;
        while j < pairs.len() && pairs[j].0 == u {
            j += 1;
        }
        score_row(g1, cache, NodeId(u), arena);
        entries.clear();
        for &(_, v) in &pairs[i..j] {
            if let Some(score) = arena.current(v) {
                entries.push((v, score));
            }
        }
        if !entries.is_empty() {
            sink.row_entries(u, entries.iter().copied());
        }
        i = j;
    }
}

/// Scores the candidate rows `rows` through one task-local [`ScoreArena`]
/// into `sink` — the loop of one rayon chunk and of one MapReduce map task.
fn score_rows<G1: GraphView>(
    g1: &G1,
    cache: &LinkCache,
    n2: usize,
    rows: &[u32],
    mut sink: SelectSink,
) -> SelectSink {
    let mut arena = ScoreArena::new(n2);
    for &u in rows {
        score_row(g1, cache, NodeId(u), &mut arena);
        sink.row(u, &arena);
    }
    sink
}

/// Runs one exact phase over a caller-supplied candidate list (ascending
/// copy-1 ids, already degree-eligible and unlinked — what
/// [`CandidateCache::eligible`] returns) and [`LinkCache`] (with `n2`, the
/// copy-2 node count the cache was built against), returning the merged
/// sink. This is the phase entry `UserMatching` runs on the sequential and
/// rayon backends, and the exact arm of the adaptive blocking gate.
///
/// `parallel = false` scores every row on the calling thread; `parallel =
/// true` partitions the candidate rows across rayon workers (each with a
/// private arena and sink) and merges the per-worker sinks. Both paths feed
/// identical rows to identical sinks, so the finished selection is the same
/// either way.
pub fn score_phase_cached<G1, F>(
    g1: &G1,
    cache: &LinkCache,
    n2: usize,
    candidates: &[u32],
    parallel: bool,
    make_sink: F,
) -> SelectSink
where
    G1: GraphView + Sync,
    F: Fn() -> SelectSink + Sync,
{
    let score_chunk = |rows: &[u32]| score_rows(g1, cache, n2, rows, make_sink());
    if !parallel || candidates.len() < PARALLEL_CUTOFF {
        score_chunk(candidates)
    } else {
        // Contiguous chunks of candidate rows, shard-aligned when `g1` is a
        // sharded view — chunked here rather than by the scheduler, so
        // scratch memory stays O(chunks · n2) (one arena + one sink each)
        // and the number of O(n2) sink merges stays proportional to the
        // worker count, independent of how finely the underlying pool
        // slices work. Whole rows stay on one worker either way, and merge
        // order is fixed left-to-right (the sinks are order-independent
        // regardless).
        let workers = rayon::current_num_threads().max(1);
        let chunks = chunk_candidates(g1, candidates, workers);
        let sinks: Vec<SelectSink> = chunks.par_iter().map(|chunk| score_chunk(chunk)).collect();
        let mut iter = sinks.into_iter();
        let mut acc = iter.next().expect("candidate set is non-empty in the parallel branch");
        for other in iter {
            acc.merge(other);
        }
        acc
    }
}

/// One whole fused phase: collects the candidates, builds the
/// [`LinkCache`], and runs witness scoring and mutual-best selection in a
/// single pass ([`score_phase_cached`]) without materializing a score table.
///
/// Returns `(scored_pairs, selected_pairs)` where `scored_pairs` equals the
/// length of `count_sequential`'s table and `selected_pairs` equals
/// `mutual_best_pairs(&table, threshold)` (ascending `(u, v)` order).
pub fn fused_phase<G1, G2>(
    g1: &G1,
    g2: &G2,
    links: &Linking,
    min_deg_g1: usize,
    min_deg_g2: usize,
    threshold: u32,
    parallel: bool,
) -> (usize, Vec<(NodeId, NodeId)>)
where
    G1: GraphView + Sync,
    G2: GraphView + Sync,
{
    let candidates = collect_candidates(g1, links, min_deg_g1);
    let mut frontier = LinkFrontier::new(min_deg_g2);
    let cache = frontier.advance(g2, links, min_deg_g2, parallel);
    let n2 = g2.node_count();
    score_phase_cached(g1, cache, n2, &candidates, parallel, || SelectSink::new(n2, threshold))
        .finish()
}

/// One phase of User-Matching as a single MapReduce round on the arena
/// engine. A map task is exactly a shard-driver task, and the reduce is the
/// coordinator's claim merge, split by column.
///
/// * **Map** — each task scores a contiguous chunk of candidate copy-1 rows
///   into a [`SelectSink`] and ships its [`SinkClaims`], split into one
///   piece per reduce partition: claims by partner `v`, column bests by
///   `v` ([`range_partition`] over `0..n2`). The shuffle key is the
///   partition index, and a piece costs 12 bytes per claimed row and 13
///   per column best — bounded by node counts, not by scored pairs.
/// * **Reduce** — each partition absorbs its pieces into one
///   [`SelectSink`] and finishes it. A partition holds every claim on its
///   columns and every task's best for them, so its finished pairs are
///   exactly the global selection restricted to its `v` range.
///
/// Returns `(scored_pairs, selected_pairs)`, bit-for-bit identical to
/// [`fused_phase`] and therefore to
/// `mutual_best_pairs(&count_sequential(..), threshold)`. The paper
/// sketches this phase as 4 MapReduce rounds (score, best-per-`u`,
/// best-per-`v`, join); scoring whole rows in the mappers and joining per
/// column in the reducers collapse it into one round per phase —
/// `O(k log D)` rounds total.
///
/// # Errors
///
/// Fails with [`EngineError`] only when the engine carries a spill budget
/// and the round's spill I/O fails or a run file is corrupt; an engine
/// without a budget never returns `Err`.
pub fn mapreduce_fused_phase<G1, G2>(
    engine: &Engine,
    g1: &G1,
    g2: &G2,
    links: &Linking,
    min_deg_g1: usize,
    min_deg_g2: usize,
    threshold: u32,
) -> Result<(usize, Vec<(NodeId, NodeId)>), EngineError>
where
    G1: GraphView + Sync,
    G2: GraphView + Sync,
{
    let candidates = collect_candidates(g1, links, min_deg_g1);
    mapreduce_fused_phase_on(engine, g1, g2, links, candidates, min_deg_g2, threshold)
}

/// [`mapreduce_fused_phase`] over a caller-supplied candidate list
/// (ascending copy-1 ids, already degree-eligible and unlinked): the
/// candidate rows become the round's map input directly instead of being
/// rescanned from `g1`. The phase's [`LinkCache`] is built here; a run that
/// keeps a [`LinkFrontier`] passes its cache to [`mapreduce_phase_cached`]
/// instead.
pub fn mapreduce_fused_phase_on<G1, G2>(
    engine: &Engine,
    g1: &G1,
    g2: &G2,
    links: &Linking,
    candidates: Vec<u32>,
    min_deg2: usize,
    threshold: u32,
) -> Result<(usize, Vec<(NodeId, NodeId)>), EngineError>
where
    G1: GraphView + Sync,
    G2: GraphView + Sync,
{
    let cache = LinkCache::build(g2, links, min_deg2);
    mapreduce_phase_cached(engine, g1, &cache, g2.node_count(), candidates, threshold)
}

/// One MapReduce phase over a caller-supplied candidate list and
/// [`LinkCache`] (with `n2`, the copy-2 node count the cache was built
/// against): every map task scores its rows through the one shared cache.
///
/// The round runs through [`Engine::run`]: when the engine carries a
/// memory budget the shuffle spills to checksummed run files
/// (`ClaimsCodec`, the [`SinkClaims`] wire format), and any spill I/O or
/// corruption failure surfaces as a clean [`EngineError`].
pub fn mapreduce_phase_cached<G1>(
    engine: &Engine,
    g1: &G1,
    cache: &LinkCache,
    n2: usize,
    candidates: Vec<u32>,
    threshold: u32,
) -> Result<(usize, Vec<(NodeId, NodeId)>), EngineError>
where
    G1: GraphView + Sync,
{
    let n1 = g1.node_count();
    let parts = engine.workers();
    let partitions = engine.run(
        "witness-score",
        candidates,
        |chunk: &[u32]| {
            let sink = score_rows(g1, cache, n2, chunk, SelectSink::new(n2, threshold));
            sink.into_claims().split_by_column(n2, parts)
        },
        |&p: &u32| p as usize,
        |_, piece: &SinkClaims| piece.encoded_len(),
        |_, groups: Vec<(u32, Vec<SinkClaims>)>| {
            let mut sink = SelectSink::new(n2, threshold);
            for piece in groups.iter().flat_map(|(_, pieces)| pieces) {
                // Pieces come from this round's own sinks (spilled ones
                // past a checksum), so they are always in range.
                sink.absorb_claims(piece, n1).expect("map tasks ship in-range claims");
            }
            sink.finish()
        },
        &ClaimsCodec,
    )?;
    let (mut scored_pairs, mut pairs) = (0, Vec::new());
    for (scored, selected) in partitions {
        scored_pairs += scored;
        pairs.extend(selected);
    }
    pairs.sort_unstable();
    Ok((scored_pairs, pairs))
}

/// Spill codec of the MapReduce witness round: a group is its partition
/// key, a piece count, and each piece as a `u32` length plus its
/// [`SinkClaims::encode`] bytes — the one claims wire format, so a round
/// that spills to disk reduces bit-identically to one that never did.
struct ClaimsCodec;

impl SpillCodec<u32, SinkClaims> for ClaimsCodec {
    fn encode_group(&self, key: &u32, values: &[SinkClaims], out: &mut Vec<u8>) {
        out.extend_from_slice(&key.to_le_bytes());
        out.extend_from_slice(&(values.len() as u32).to_le_bytes());
        for piece in values {
            out.extend_from_slice(&(piece.encoded_len() as u32).to_le_bytes());
            out.extend_from_slice(&piece.encode());
        }
    }

    fn decode_group(&self, bytes: &[u8]) -> Result<(u32, Vec<SinkClaims>), String> {
        let mut pos = 0usize;
        let word = |pos: &mut usize| claims_u32(bytes, pos).map_err(|e| e.to_string());
        let key = word(&mut pos)?;
        let count = word(&mut pos)?;
        let mut values = Vec::new();
        for _ in 0..count {
            let len = word(&mut pos)? as usize;
            let body = claims_take(bytes, &mut pos, len).map_err(|e| e.to_string())?;
            values.push(SinkClaims::decode(body).map_err(|e| e.to_string())?);
        }
        if pos != bytes.len() {
            return Err(format!("claims group has {} trailing bytes", bytes.len() - pos));
        }
        Ok((key, values))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::mutual_best_pairs;
    use crate::witness::{count_brute_force, count_sequential, ScoreTable};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snr_generators::preferential_attachment;
    use snr_graph::CsrGraph;
    use snr_sampling::independent::independent_deletion_symmetric;
    use snr_sampling::sample_seeds;

    fn tiny_case() -> (CsrGraph, CsrGraph, Linking) {
        let g1 = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let g2 = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let links = Linking::with_seeds(5, 5, &[(NodeId(2), NodeId(2))]);
        (g1, g2, links)
    }

    /// Every candidate row of one phase, scored by [`score_row`] and read
    /// back from the arena as a sparse table.
    fn kernel_rows(
        g1: &CsrGraph,
        g2: &CsrGraph,
        links: &Linking,
        d: usize,
        parallel: bool,
    ) -> ScoreTable {
        let mut frontier = LinkFrontier::new(d);
        let cache = frontier.advance(g2, links, d, parallel);
        let mut arena = ScoreArena::new(g2.node_count());
        let mut table = ScoreTable::new();
        for u in collect_candidates(g1, links, d) {
            score_row(g1, cache, NodeId(u), &mut arena);
            table.extend(arena.touched().iter().map(|&v| ((u, v), arena.get(v))));
        }
        table
    }

    fn pa_workload(seed: u64, n: usize, m: usize) -> (CsrGraph, CsrGraph, Linking) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = preferential_attachment(n, m, &mut rng).unwrap();
        let pair = independent_deletion_symmetric(&g, 0.6, &mut rng).unwrap();
        let seeds = sample_seeds(&pair, 0.12, &mut rng).unwrap();
        let links = Linking::with_seeds(pair.g1.node_count(), pair.g2.node_count(), &seeds);
        (pair.g1, pair.g2, links)
    }

    #[test]
    fn arena_rows_reset_in_constant_time() {
        let mut arena = ScoreArena::new(4);
        arena.begin_row();
        arena.bump(1);
        arena.bump(1);
        arena.bump(3);
        assert_eq!(arena.touched(), &[1, 3]);
        assert_eq!(arena.get(1), 2);
        assert_eq!(arena.get(3), 1);
        arena.begin_row();
        assert!(arena.touched().is_empty());
        arena.bump(1);
        assert_eq!(arena.get(1), 1, "stale score must not leak across rows");
    }

    #[test]
    fn arena_epoch_wrap_clears_stamps() {
        let mut arena = ScoreArena::new(2);
        arena.epoch = u32::MAX - 1;
        arena.begin_row(); // epoch == MAX
        arena.bump(0);
        assert_eq!(arena.get(0), 1);
        arena.begin_row(); // wraps: stamps cleared, epoch == 1
        assert_eq!(arena.epoch, 1);
        arena.bump(0);
        assert_eq!(arena.get(0), 1);
        assert_eq!(arena.touched(), &[0]);
    }

    /// `CsrGraph` wrapper pretending its rows live in shards, for testing
    /// the partition-aware chunking without a dependency on `snr-store`.
    struct FakeSharded {
        g: CsrGraph,
        parts: Vec<std::ops::Range<u32>>,
    }

    impl GraphView for FakeSharded {
        fn node_count(&self) -> usize {
            GraphView::node_count(&self.g)
        }
        fn edge_count(&self) -> usize {
            GraphView::edge_count(&self.g)
        }
        fn is_directed(&self) -> bool {
            GraphView::is_directed(&self.g)
        }
        fn max_degree(&self) -> usize {
            GraphView::max_degree(&self.g)
        }
        fn degree(&self, v: NodeId) -> usize {
            GraphView::degree(&self.g, v)
        }
        fn total_degree(&self) -> usize {
            GraphView::total_degree(&self.g)
        }
        fn neighbors_iter(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
            GraphView::neighbors_iter(&self.g, v)
        }
        fn neighbor_cursor(&self, v: NodeId) -> impl snr_graph::intersect::SortedCursor + '_ {
            GraphView::neighbor_cursor(&self.g, v)
        }
        fn memory_bytes(&self) -> usize {
            GraphView::memory_bytes(&self.g)
        }
        fn storage_partitions(&self) -> Option<Vec<std::ops::Range<u32>>> {
            Some(self.parts.clone())
        }
    }

    #[test]
    fn parallel_frontier_passes_match_sequential() {
        let (g1, g2, _) = pa_workload(31, 9_000, 6);
        let n = g1.node_count().min(g2.node_count()) as u32;
        // Enough identity links to cross the parallel cutoff, added in two
        // batches so the second phase decodes a parallel-sized delta.
        let half = |parity: u32| -> Vec<(NodeId, NodeId)> {
            (0..n / 4).map(|i| (NodeId(i * 4 + parity), NodeId(i * 4 + parity))).collect()
        };
        let (first, second) = (half(0), half(2));
        assert!(first.len() >= super::PARALLEL_LINK_CUTOFF);
        let mut links = Linking::with_seeds(g1.node_count(), g2.node_count(), &first);
        let (mut seq, mut par) = (LinkFrontier::new(1), LinkFrontier::new(1));
        for d in [1usize, 2, 4] {
            assert_eq!(par.advance(&g2, &links, d, true), seq.advance(&g2, &links, d, false));
            assert_eq!(seq.cache(), &LinkCache::build(&g2, &links, d), "d={d}");
        }
        links.insert_batch(&second);
        for d in [4usize, 2, 1] {
            assert_eq!(par.advance(&g2, &links, d, true), seq.advance(&g2, &links, d, false));
            assert_eq!(seq.cache(), &LinkCache::build(&g2, &links, d), "d={d}");
        }
    }

    #[test]
    fn chunking_aligns_with_storage_partitions_and_loses_no_rows() {
        let candidates: Vec<u32> = (0..1_000u32).filter(|u| u % 3 != 0).collect();
        let g = FakeSharded {
            g: CsrGraph::from_edges(1_000, &[(0, 1)]),
            parts: vec![0..10, 10..700, 700..1_000],
        };
        for workers in [1usize, 2, 4, 13] {
            let chunks = chunk_candidates(&g, &candidates, workers);
            let flattened: Vec<u32> = chunks.iter().flat_map(|c| c.iter().copied()).collect();
            assert_eq!(flattened, candidates, "workers={workers}");
            // No chunk straddles a shard boundary.
            for chunk in &chunks {
                let (first, last) = (chunk[0], *chunk.last().unwrap());
                assert!(
                    g.parts.iter().any(|r| r.contains(&first) && r.contains(&last)),
                    "chunk {first}..={last} straddles shards (workers={workers})"
                );
            }
        }
        // Monolithic views still get plain even chunks.
        let plain = CsrGraph::from_edges(1_000, &[(0, 1)]);
        let chunks = chunk_candidates(&plain, &candidates, 4);
        assert_eq!(chunks.iter().map(|c| c.len()).sum::<usize>(), candidates.len());
        // Partitions that do NOT tile the id space (gaps before, between,
        // and after the ranges) must still cover every candidate.
        let gappy = FakeSharded {
            g: CsrGraph::from_edges(1_000, &[(0, 1)]),
            parts: vec![100..300, 600..800],
        };
        let chunks = chunk_candidates(&gappy, &candidates, 4);
        let flattened: Vec<u32> = chunks.iter().flat_map(|c| c.iter().copied()).collect();
        assert_eq!(flattened, candidates, "gappy partitions dropped candidates");
    }

    #[test]
    fn fused_phase_is_identical_on_a_partitioned_view() {
        let (g1, g2, links) = pa_workload(37, 500, 6);
        let n1 = g1.node_count() as u32;
        let parts = vec![0..n1 / 4, n1 / 4..n1 / 2, n1 / 2..n1];
        let sharded = FakeSharded { g: g1.clone(), parts };
        for parallel in [false, true] {
            assert_eq!(
                fused_phase(&sharded, &g2, &links, 2, 2, 2, parallel),
                fused_phase(&g1, &g2, &links, 2, 2, 2, parallel),
                "parallel={parallel}"
            );
        }
    }

    #[test]
    fn link_cache_maps_linked_nodes_to_filtered_neighbors() {
        let (_g1, g2, links) = tiny_case();
        let cache = LinkCache::build(&g2, &links, 2);
        // Node 2 is linked to 2; N2(2) = {1, 3}, both degree 2 and unlinked.
        assert_eq!(cache.eligible_of(NodeId(2)), Some(&[1u32, 3][..]));
        assert_eq!(cache.eligible_of(NodeId(0)), None, "unlinked node has no cache entry");
        assert_eq!(cache.cached_targets(), 2);
        // Raising the threshold filters the cached lists.
        let cache = LinkCache::build(&g2, &links, 3);
        assert_eq!(cache.eligible_of(NodeId(2)), Some(&[][..]));
    }

    #[test]
    fn kernel_rows_match_reference_on_tiny_case() {
        let (g1, g2, links) = tiny_case();
        for d in [1usize, 2, 3] {
            let reference = count_sequential(&g1, &g2, &links, d, d);
            assert_eq!(kernel_rows(&g1, &g2, &links, d, false), reference);
            assert_eq!(kernel_rows(&g1, &g2, &links, d, true), reference);
        }
    }

    #[test]
    fn kernel_rows_match_brute_force_on_random_graphs() {
        let (g1, g2, links) = pa_workload(19, 300, 5);
        for d in [1usize, 2, 4] {
            let oracle = count_brute_force(&g1, &g2, &links, d, d);
            assert_eq!(kernel_rows(&g1, &g2, &links, d, false), oracle);
            assert_eq!(kernel_rows(&g1, &g2, &links, d, true), oracle);
        }
    }

    #[test]
    fn fused_phase_matches_unfused_pipeline() {
        let (g1, g2, links) = pa_workload(23, 400, 6);
        for d in [1usize, 2, 4] {
            for t in [1u32, 2, 3] {
                let table = count_sequential(&g1, &g2, &links, d, d);
                let expected = mutual_best_pairs(&table, t);
                for parallel in [false, true] {
                    let (scored, pairs) = fused_phase(&g1, &g2, &links, d, d, t, parallel);
                    assert_eq!(scored, table.len(), "scored_pairs d={d} t={t}");
                    assert_eq!(pairs, expected, "pairs d={d} t={t} parallel={parallel}");
                }
            }
        }
    }

    #[test]
    fn fused_phase_on_compact_and_mixed_representations() {
        let (g1, g2, links) = pa_workload(29, 350, 6);
        let (c1, c2) = (g1.compact(), g2.compact());
        let table = count_sequential(&g1, &g2, &links, 2, 2);
        let expected = mutual_best_pairs(&table, 2);
        for parallel in [false, true] {
            assert_eq!(fused_phase(&c1, &c2, &links, 2, 2, 2, parallel).1, expected);
            assert_eq!(fused_phase(&g1, &c2, &links, 2, 2, 2, parallel).1, expected);
            assert_eq!(fused_phase(&c1, &g2, &links, 2, 2, 2, parallel).1, expected);
        }
    }

    #[test]
    fn fused_phase_clamps_threshold_zero_to_one() {
        let (g1, g2, links) = tiny_case();
        assert_eq!(
            fused_phase(&g1, &g2, &links, 1, 1, 0, false),
            fused_phase(&g1, &g2, &links, 1, 1, 1, false)
        );
    }

    #[test]
    fn empty_links_score_nothing() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let links = Linking::new(4, 4);
        let (scored, pairs) = fused_phase(&g, &g.clone(), &links, 1, 1, 1, false);
        assert_eq!(scored, 0);
        assert!(pairs.is_empty());
        assert!(kernel_rows(&g, &g.clone(), &links, 1, true).is_empty());
    }

    #[test]
    fn empty_graphs_are_handled() {
        let g = CsrGraph::from_edges(0, &[]);
        let links = Linking::new(0, 0);
        let (scored, pairs) = fused_phase(&g, &g.clone(), &links, 1, 1, 2, true);
        assert_eq!(scored, 0);
        assert!(pairs.is_empty());
    }

    /// The claims of every row of one phase, split the way a map task
    /// ships them to `parts` reduce partitions.
    fn shipped_pieces(parts: usize) -> Vec<(u32, SinkClaims)> {
        let (g1, g2, links) = pa_workload(47, 300, 5);
        let cache = LinkCache::build(&g2, &links, 2);
        let n2 = g2.node_count();
        let rows = collect_candidates(&g1, &links, 2);
        let sink = score_rows(&g1, &cache, n2, &rows, SelectSink::new(n2, 2));
        sink.into_claims().split_by_column(n2, parts)
    }

    #[test]
    fn split_claims_carry_scored_pairs_once_and_partition_by_column() {
        let (g1, g2, links) = pa_workload(47, 300, 5);
        let n2 = g2.node_count();
        let whole = fused_phase(&g1, &g2, &links, 2, 2, 2, false);
        let pieces = shipped_pieces(3);
        assert!(pieces.len() > 1, "the workload must spread over partitions");
        assert_eq!(pieces.iter().map(|(_, c)| c.scored_pairs()).sum::<u64>(), whole.0 as u64);
        assert_eq!(pieces.iter().filter(|(_, c)| c.scored_pairs() > 0).count(), 1);
        let mut pairs = Vec::new();
        for (p, piece) in &pieces {
            assert!(piece.claims.iter().all(|c| range_partition(c.1, n2, 3) == *p as usize));
            assert!(piece.bests.iter().all(|b| range_partition(b.0, n2, 3) == *p as usize));
            let mut sink = SelectSink::new(n2, 2);
            sink.absorb_claims(piece, g1.node_count()).unwrap();
            pairs.extend(sink.finish().1);
        }
        pairs.sort_unstable();
        assert_eq!(pairs, whole.1, "per-column reducers join to the whole selection");
    }

    #[test]
    fn claims_codec_roundtrips_and_rejects_every_truncation() {
        let pieces: Vec<SinkClaims> = shipped_pieces(2).into_iter().map(|(_, c)| c).collect();
        assert!(pieces.iter().any(|c| !c.claims.is_empty()));
        for values in [&pieces[..], &pieces[..1], &[]] {
            let mut bytes = Vec::new();
            ClaimsCodec.encode_group(&7, values, &mut bytes);
            assert_eq!(ClaimsCodec.decode_group(&bytes).unwrap(), (7, values.to_vec()));
            for cut in 0..bytes.len() {
                assert!(ClaimsCodec.decode_group(&bytes[..cut]).is_err(), "cut at {cut} accepted");
            }
            bytes.push(0);
            assert!(ClaimsCodec.decode_group(&bytes).is_err(), "trailing byte accepted");
        }
        // A piece length that overruns the group fails without allocating.
        let mut bytes = Vec::new();
        ClaimsCodec.encode_group(&0, &pieces[..1], &mut bytes);
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(ClaimsCodec.decode_group(&bytes).is_err());
    }

    #[test]
    fn mapreduce_fused_phase_matches_sequential_fused_phase() {
        let (g1, g2, links) = pa_workload(41, 450, 6);
        for workers in [1usize, 3] {
            let engine = snr_mapreduce::Engine::new(workers).with_chunk_size(16);
            for d in [1usize, 2, 4] {
                for t in [1u32, 2, 3] {
                    let expected = fused_phase(&g1, &g2, &links, d, d, t, false);
                    let got = mapreduce_fused_phase(&engine, &g1, &g2, &links, d, d, t).unwrap();
                    assert_eq!(got, expected, "workers={workers} d={d} t={t}");
                }
            }
        }
    }

    #[test]
    fn mapreduce_fused_phase_on_compact_and_mixed_representations() {
        let (g1, g2, links) = pa_workload(43, 400, 6);
        let (c1, c2) = (g1.compact(), g2.compact());
        let engine = snr_mapreduce::Engine::new(2).with_chunk_size(32);
        let expected = fused_phase(&g1, &g2, &links, 2, 2, 2, false);
        assert_eq!(mapreduce_fused_phase(&engine, &c1, &c2, &links, 2, 2, 2).unwrap(), expected);
        assert_eq!(mapreduce_fused_phase(&engine, &g1, &c2, &links, 2, 2, 2).unwrap(), expected);
        assert_eq!(mapreduce_fused_phase(&engine, &c1, &g2, &links, 2, 2, 2).unwrap(), expected);
    }

    #[test]
    fn mapreduce_fused_phase_handles_empty_inputs() {
        let engine = snr_mapreduce::Engine::new(2);
        let g = CsrGraph::from_edges(0, &[]);
        let links = Linking::new(0, 0);
        assert_eq!(
            mapreduce_fused_phase(&engine, &g, &g.clone(), &links, 1, 1, 2).unwrap(),
            (0, vec![])
        );
        let (g1, g2, _) = tiny_case();
        let no_links = Linking::new(5, 5);
        assert_eq!(
            mapreduce_fused_phase(&engine, &g1, &g2, &no_links, 1, 1, 1).unwrap(),
            (0, vec![]),
            "no links, no witnesses"
        );
    }

    #[test]
    fn range_scored_claims_reassemble_the_fused_selection() {
        let (g1, g2, links) = pa_workload(53, 400, 6);
        let n1 = g1.node_count() as u32;
        let n2 = g2.node_count();
        for (d, t) in [(1usize, 1u32), (2, 2), (4, 3)] {
            let expected = fused_phase(&g1, &g2, &links, d, d, t, false);
            let cache = LinkCache::build(&g2, &links, d);
            let mut acc = SelectSink::new(n2, t);
            // Uneven tiling of the row space, each range scored by a fresh
            // sink whose claims make a wire round-trip before absorption.
            for start in (0..n1).step_by(97) {
                let end = (start + 97).min(n1);
                let mut arena = ScoreArena::new(n2);
                let mut sink = SelectSink::new(n2, t);
                score_assigned_rows(&g1, start..end, &cache, &links, d, &mut arena, &mut sink);
                let decoded = SinkClaims::decode(&sink.into_claims().encode()).unwrap();
                acc.absorb_claims(&decoded, n1 as usize).unwrap();
            }
            assert_eq!(acc.finish(), expected, "d={d} t={t}");
        }
    }

    #[test]
    fn whole_graph_assigned_rows_match_fused_phase() {
        let (g1, g2, links) = pa_workload(59, 300, 5);
        let n1 = g1.node_count() as u32;
        let n2 = g2.node_count();
        let expected = fused_phase(&g1, &g2, &links, 2, 2, 2, false);
        let cache = LinkCache::build(&g2, &links, 2);
        let mut arena = ScoreArena::new(n2);
        let mut sink = SelectSink::new(n2, 2);
        score_assigned_rows(&g1, 0..n1, &cache, &links, 2, &mut arena, &mut sink);
        assert_eq!(sink.finish(), expected);
    }

    #[test]
    fn sink_claims_decode_rejects_corruption() {
        let (g1, g2, links) = pa_workload(61, 250, 5);
        let cache = LinkCache::build(&g2, &links, 2);
        let n2 = g2.node_count();
        let mut arena = ScoreArena::new(n2);
        let mut sink = SelectSink::new(n2, 2);
        let n1 = g1.node_count() as u32;
        score_assigned_rows(&g1, 0..n1, &cache, &links, 2, &mut arena, &mut sink);
        let claims = sink.into_claims();
        assert!(!claims.claims.is_empty(), "workload must produce claims");
        let bytes = claims.encode();
        assert_eq!(SinkClaims::decode(&bytes).unwrap(), claims);

        // Every truncation point fails cleanly.
        for cut in 0..bytes.len() {
            assert!(SinkClaims::decode(&bytes[..cut]).is_err(), "cut at {cut} accepted");
        }
        // Trailing garbage fails.
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(SinkClaims::decode(&extended).is_err());
        // A count field inflated past the payload fails without allocating.
        let mut inflated = bytes.clone();
        inflated[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(SinkClaims::decode(&inflated).is_err());
        // A non-boolean uniqueness byte fails.
        let mut bad_unique = bytes.clone();
        let last = bad_unique.len() - 1;
        bad_unique[last] = 7;
        assert!(SinkClaims::decode(&bad_unique).is_err());
    }

    #[test]
    fn absorb_claims_rejects_out_of_range_payloads() {
        let (g1, g2, links) = pa_workload(67, 250, 5);
        let n2 = g2.node_count();
        let cache = LinkCache::build(&g2, &links, 2);
        let mut arena = ScoreArena::new(n2);
        let mut sink = SelectSink::new(n2, 2);
        let n1 = g1.node_count() as u32;
        score_assigned_rows(&g1, 0..n1, &cache, &links, 2, &mut arena, &mut sink);
        let claims = sink.into_claims();
        assert!(!claims.claims.is_empty());

        // A smaller sink rejects ids beyond its v-axis, and a smaller n1
        // rejects copy-1 ids beyond it.
        let mut small = SelectSink::new(1, 2);
        assert!(small.absorb_claims(&claims, n1 as usize).is_err());
        let mut short_g1 = SelectSink::new(n2, 2);
        assert!(short_g1.absorb_claims(&claims, 1).is_err());
        // A stricter sink rejects claims below its threshold.
        let mut strict = SelectSink::new(n2, u32::MAX);
        assert!(strict.absorb_claims(&claims, n1 as usize).is_err());
        // The matching sink accepts them.
        let mut ok = SelectSink::new(n2, 2);
        ok.absorb_claims(&claims, n1 as usize).unwrap();
        assert_eq!(ok.finish(), fused_phase(&g1, &g2, &links, 2, 2, 2, false));
    }

    #[test]
    fn claims_of_a_larger_g1_are_absorbed_and_reduced_exactly() {
        // g1 has twice g2's nodes: copy-1 ids 6..12 appear as claimed rows
        // and as column-best partners, both beyond n2.
        let g2 = CsrGraph::from_edges(6, &[(3, 0), (3, 1), (3, 2), (4, 0), (4, 1), (5, 2)]);
        let g1 = CsrGraph::from_edges(
            12,
            &[(10, 0), (10, 1), (10, 2), (11, 0), (11, 1), (9, 2), (6, 7), (7, 8)],
        );
        let seeds = [(NodeId(0), NodeId(0)), (NodeId(1), NodeId(1)), (NodeId(2), NodeId(2))];
        let links = Linking::with_seeds(12, 6, &seeds);
        let expected = fused_phase(&g1, &g2, &links, 1, 1, 1, false);
        assert!(expected.1.contains(&(NodeId(10), NodeId(3))), "{expected:?}");
        let cache = LinkCache::build(&g2, &links, 1);
        let (mut arena, mut acc) = (ScoreArena::new(6), SelectSink::new(6, 1));
        for start in [0u32, 8] {
            let mut sink = SelectSink::new(6, 1);
            score_assigned_rows(
                &g1,
                start..(start + 8).min(12),
                &cache,
                &links,
                1,
                &mut arena,
                &mut sink,
            );
            acc.absorb_claims(&sink.into_claims(), 12).unwrap();
        }
        assert_eq!(acc.finish(), expected);
        for workers in [1usize, 2, 3] {
            let engine = snr_mapreduce::Engine::new(workers).with_chunk_size(2);
            assert_eq!(
                mapreduce_fused_phase(&engine, &g1, &g2, &links, 1, 1, 1).unwrap(),
                expected
            );
        }
    }

    #[test]
    fn candidate_cache_matches_collect_candidates() {
        let (g1, _g2, links) = pa_workload(71, 600, 5);
        let cache = CandidateCache::build(&g1);
        // Power-of-two bucket sizes (the algorithm's phases) and odd
        // min_degrees that force the boundary-group degree re-check.
        for d in [1usize, 2, 3, 4, 5, 7, 8, 13, 64, 1_000] {
            let expected = collect_candidates(&g1, &links, d);
            let got =
                cache.eligible(d, |u| links.is_linked_g1(NodeId(u)), |u| g1.degree(NodeId(u)));
            assert_eq!(got, expected, "min_degree={d}");
        }
        // An empty linking and a min_degree of 0 (clamped to 1) also agree.
        let no_links = Linking::new(g1.node_count(), g1.node_count());
        assert_eq!(
            cache.eligible(0, |u| no_links.is_linked_g1(NodeId(u)), |u| g1.degree(NodeId(u))),
            collect_candidates(&g1, &no_links, 1)
        );
    }

    #[test]
    fn phase_on_cached_candidates_is_bit_identical() {
        let (g1, g2, links) = pa_workload(73, 500, 6);
        let cache = CandidateCache::build(&g1);
        let engine = snr_mapreduce::Engine::new(2).with_chunk_size(32);
        for (d, t) in [(1usize, 1u32), (2, 2), (4, 3)] {
            let candidates =
                cache.eligible(d, |u| links.is_linked_g1(NodeId(u)), |u| g1.degree(NodeId(u)));
            let expected = fused_phase(&g1, &g2, &links, d, d, t, false);
            let n2 = g2.node_count();
            for parallel in [false, true] {
                let mut frontier = LinkFrontier::new(d);
                let link_cache = frontier.advance(&g2, &links, d, parallel);
                let sink = score_phase_cached(&g1, link_cache, n2, &candidates, parallel, || {
                    SelectSink::new(n2, t)
                });
                assert_eq!(sink.finish(), expected, "d={d} t={t} parallel={parallel}");
            }
            assert_eq!(
                mapreduce_fused_phase_on(&engine, &g1, &g2, &links, candidates, d, t).unwrap(),
                expected,
                "mapreduce d={d} t={t}"
            );
        }
    }

    #[test]
    fn pair_list_over_all_nonzero_pairs_matches_fused_phase() {
        let (g1, g2, links) = pa_workload(79, 400, 6);
        let n2 = g2.node_count();
        for (d, t) in [(1usize, 1u32), (2, 2), (4, 3)] {
            let table = count_sequential(&g1, &g2, &links, d, d);
            let mut all_pairs: Vec<(u32, u32)> = table.keys().copied().collect();
            all_pairs.sort_unstable();
            let cache = LinkCache::build(&g2, &links, d);
            let mut arena = ScoreArena::new(n2);
            let mut sink = SelectSink::new(n2, t);
            score_pair_list(&g1, &cache, &all_pairs, &mut arena, &mut sink);
            assert_eq!(sink.finish(), fused_phase(&g1, &g2, &links, d, d, t, false), "d={d} t={t}");
        }
    }

    #[test]
    fn pair_list_counts_only_proposed_nonzero_pairs() {
        let (g1, g2, links) = pa_workload(83, 400, 6);
        let n2 = g2.node_count();
        let table = count_sequential(&g1, &g2, &links, 2, 2);
        let mut nonzero: Vec<(u32, u32)> = table.keys().copied().collect();
        nonzero.sort_unstable();
        // Half the true pairs plus some zero-score proposals: the sink must
        // count exactly the proposed non-zero pairs and score them exactly.
        let proposed: Vec<(u32, u32)> = nonzero
            .iter()
            .step_by(2)
            .copied()
            .chain((0..20).map(|i| (u32::MAX - 1 - i, 0)))
            .collect();
        let mut sorted = proposed.clone();
        sorted.sort_unstable();
        // Out-of-range rows would panic in neighbors_iter; keep only valid.
        let sorted: Vec<(u32, u32)> =
            sorted.into_iter().filter(|&(u, _)| (u as usize) < g1.node_count()).collect();
        let cache = LinkCache::build(&g2, &links, 2);
        let mut arena = ScoreArena::new(n2);
        let mut sink = SelectSink::new(n2, 2);
        score_pair_list(&g1, &cache, &sorted, &mut arena, &mut sink);
        let (scored, _) = sink.finish();
        assert_eq!(scored, sorted.iter().filter(|p| table.contains_key(*p)).count());
    }
}
