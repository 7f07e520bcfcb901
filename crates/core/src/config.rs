//! Algorithm configuration.

use crate::backend::Backend;
use crate::blocking::DEFAULT_LSH_MASS_FLOOR;
use serde::{Deserialize, Serialize};

/// How each phase generates the candidate `(u, v)` pairs it scores.
///
/// The exact source considers every degree-eligible pair that shares at
/// least one witness — complete, but its cost is the full witness-
/// contribution sum and at R-MAT-20+ candidate *generation* becomes the
/// wall. LSH blocking sketches both sides' witness-link sets as MinHash
/// signatures and only scores pairs that collide in at least one of `bands`
/// bands of `rows` rows; the surviving pairs are re-scored *exactly*, so
/// blocking trades bounded recall for a much smaller scored set without
/// ever corrupting the scores of pairs it keeps.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum CandidateSource {
    /// Every degree-eligible pair with at least one shared witness.
    #[default]
    Exact,
    /// MinHash/LSH candidate blocking with `bands` bands of `rows` rows
    /// (signature length `k = bands · rows`). Only supported by the
    /// in-process sequential and rayon backends.
    Lsh {
        /// Number of LSH bands `b`. More bands raise recall.
        bands: usize,
        /// Rows per band `r`. More rows sharpen the filter.
        rows: usize,
    },
}

/// Configuration of the [`crate::UserMatching`] algorithm.
///
/// The defaults correspond to the settings the paper uses most often in §5:
/// minimum matching score `T = 2`, `k = 2` outer iterations, degree
/// bucketing enabled, sequential execution.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MatchingConfig {
    /// Minimum matching score `T`: a pair is only linked if it has at least
    /// this many similarity witnesses. Higher values trade recall for
    /// precision (Figure 2 / Table 3 sweep this).
    pub threshold: u32,
    /// Number of outer iterations `k` (full sweeps over all degree buckets).
    /// The paper notes that 1–2 iterations already give good results.
    pub iterations: u32,
    /// Whether to sweep degree buckets from high to low (`j = log D .. 1`).
    /// Disabling this (the §5 ablation) scores all pairs in every phase and
    /// increases the error rate by ~50% on the Facebook experiment.
    pub degree_bucketing: bool,
    /// Lowest degree bucket to process; `1` (the paper's setting) means every
    /// node with degree ≥ 2 is eventually considered. Buckets below this are
    /// skipped, which can be used to restrict matching to higher-degree
    /// nodes.
    pub min_bucket: u32,
    /// Execution backend.
    pub backend: Backend,
    /// Candidate-pair source: exact enumeration or MinHash/LSH blocking.
    pub candidates: CandidateSource,
    /// Adaptive gate for [`CandidateSource::Lsh`]: a phase is blocked only
    /// if its estimated exact scored-pair count (bump-mass bound, then a
    /// sampled estimate — see [`crate::blocking::estimate_scored_pairs`])
    /// reaches this floor *and* the per-candidate count is high enough that
    /// sketching pays for itself. Cheap tail phases fall back to exact
    /// scoring, which is both faster and lossless there. `0` disables the
    /// gate: every phase is blocked (pure LSH — what the recall sweeps
    /// measure).
    pub lsh_mass_floor: u64,
}

impl Default for MatchingConfig {
    fn default() -> Self {
        MatchingConfig {
            threshold: 2,
            iterations: 2,
            degree_bucketing: true,
            min_bucket: 1,
            backend: Backend::Sequential,
            candidates: CandidateSource::Exact,
            lsh_mass_floor: DEFAULT_LSH_MASS_FLOOR,
        }
    }
}

impl MatchingConfig {
    /// Sets the minimum matching score `T`.
    pub fn with_threshold(mut self, t: u32) -> Self {
        self.threshold = t;
        self
    }

    /// Sets the number of outer iterations `k`.
    pub fn with_iterations(mut self, k: u32) -> Self {
        self.iterations = k.max(1);
        self
    }

    /// Enables or disables degree bucketing.
    pub fn with_degree_bucketing(mut self, enabled: bool) -> Self {
        self.degree_bucketing = enabled;
        self
    }

    /// Sets the lowest degree bucket processed.
    pub fn with_min_bucket(mut self, b: u32) -> Self {
        self.min_bucket = b.max(1);
        self
    }

    /// Sets the execution backend.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the candidate-pair source.
    pub fn with_candidates(mut self, candidates: CandidateSource) -> Self {
        self.candidates = candidates;
        self
    }

    /// Sets the adaptive-blocking mass floor (`0` = block every phase).
    pub fn with_lsh_mass_floor(mut self, floor: u64) -> Self {
        self.lsh_mass_floor = floor;
        self
    }

    /// The phase schedule: for each of the `k` iterations, the degree
    /// buckets from `⌊log₂ D⌋` down to [`MatchingConfig::min_bucket`], where
    /// `max_degree` is `D`, the larger of the two copies' maximum degrees
    /// (so the first bucket is never empty on either side). Without degree
    /// bucketing each iteration is one phase at `min_bucket`.
    ///
    /// Every executor runs this one schedule, which is what makes their
    /// per-phase statistics comparable phase for phase.
    pub fn schedule(&self, max_degree: usize) -> Vec<Phase> {
        let top_bucket = if self.degree_bucketing {
            (usize::BITS - 1).saturating_sub(max_degree.max(1).leading_zeros()).max(self.min_bucket)
        } else {
            self.min_bucket
        };
        let bucketing = self.degree_bucketing;
        (1..=self.iterations)
            .flat_map(|iteration| {
                (self.min_bucket..=top_bucket).rev().map(move |bucket| Phase {
                    iteration,
                    bucket,
                    reported_bucket: if bucketing { bucket } else { 0 },
                })
            })
            .collect()
    }
}

/// One phase of a matching run: the outer iteration it belongs to and the
/// degree bucket it scores.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Phase {
    /// Outer iteration, counted from 1.
    pub iteration: u32,
    /// Bucket exponent `j`: the phase scores the nodes of degree at least
    /// `2^j` on both sides. It also seeds the phase's LSH hash family.
    pub bucket: u32,
    /// The bucket [`crate::PhaseStats::bucket`] reports: `bucket`, or 0
    /// when the schedule does not sweep degree buckets.
    pub reported_bucket: u32,
}

impl Phase {
    /// The phase's minimum degree, `2^bucket`, saturating at `usize::MAX`
    /// when `2^bucket` does not fit (no node has that many neighbors, so
    /// the phase scores nothing either way).
    pub fn min_degree(&self) -> usize {
        1usize.checked_shl(self.bucket).unwrap_or(usize::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_papers_common_settings() {
        let c = MatchingConfig::default();
        assert_eq!(c.threshold, 2);
        assert_eq!(c.iterations, 2);
        assert!(c.degree_bucketing);
        assert_eq!(c.min_bucket, 1);
        assert_eq!(c.backend, Backend::Sequential);
        assert_eq!(c.candidates, CandidateSource::Exact);
        assert_eq!(c.lsh_mass_floor, DEFAULT_LSH_MASS_FLOOR);
    }

    #[test]
    fn builder_methods_override_fields() {
        let c = MatchingConfig::default()
            .with_threshold(5)
            .with_iterations(3)
            .with_degree_bucketing(false)
            .with_min_bucket(4)
            .with_backend(Backend::Rayon)
            .with_candidates(CandidateSource::Lsh { bands: 8, rows: 2 })
            .with_lsh_mass_floor(0);
        assert_eq!(c.threshold, 5);
        assert_eq!(c.iterations, 3);
        assert!(!c.degree_bucketing);
        assert_eq!(c.min_bucket, 4);
        assert_eq!(c.backend, Backend::Rayon);
        assert_eq!(c.candidates, CandidateSource::Lsh { bands: 8, rows: 2 });
        assert_eq!(c.lsh_mass_floor, 0);
    }

    #[test]
    fn candidate_source_serde_roundtrip() {
        for c in [CandidateSource::Exact, CandidateSource::Lsh { bands: 16, rows: 3 }] {
            let json = serde_json::to_string(&c).unwrap();
            let c2: CandidateSource = serde_json::from_str(&json).unwrap();
            assert_eq!(c, c2);
        }
    }

    #[test]
    fn schedule_sweeps_buckets_high_to_low_in_every_iteration() {
        let cfg = MatchingConfig::default().with_iterations(2);
        // D = 40: floor(log2 40) = 5, so buckets 5..=1 twice.
        let phases = cfg.schedule(40);
        let coords: Vec<(u32, u32)> = phases.iter().map(|p| (p.iteration, p.bucket)).collect();
        let expected: Vec<(u32, u32)> =
            (1..=2).flat_map(|i| (1..=5).rev().map(move |b| (i, b))).collect();
        assert_eq!(coords, expected);
        assert!(phases.iter().all(|p| p.reported_bucket == p.bucket));
        assert_eq!(phases[0].min_degree(), 32);
        // An empty or edgeless graph still runs one phase per iteration.
        assert_eq!(cfg.schedule(0).len(), 2);
    }

    #[test]
    fn schedule_without_bucketing_is_one_phase_per_iteration_reported_as_zero() {
        let cfg = MatchingConfig::default()
            .with_iterations(3)
            .with_degree_bucketing(false)
            .with_min_bucket(2);
        let phases = cfg.schedule(1_000);
        assert_eq!(phases.len(), 3);
        for (i, p) in phases.iter().enumerate() {
            assert_eq!((p.iteration, p.bucket, p.reported_bucket), (i as u32 + 1, 2, 0));
            assert_eq!(p.min_degree(), 4);
        }
    }

    #[test]
    fn min_degree_saturates_instead_of_overflowing() {
        let at = |bucket| Phase { iteration: 1, bucket, reported_bucket: bucket }.min_degree();
        assert_eq!(at(31) as u128, 1 << 31);
        assert_eq!(at(32) as u128, 1 << 32);
        assert_eq!(at(63) as u128, 1 << 63);
        assert_eq!(at(64), usize::MAX);
        assert_eq!(at(70), usize::MAX);
    }

    #[test]
    fn degenerate_values_are_clamped() {
        let c = MatchingConfig::default().with_iterations(0).with_min_bucket(0);
        assert_eq!(c.iterations, 1);
        assert_eq!(c.min_bucket, 1);
    }
}
