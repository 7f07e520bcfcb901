//! The straightforward common-neighbor baseline of §5.
//!
//! The paper compares User-Matching against "a simple algorithm that just
//! counts the number of common neighbors": no degree bucketing, a single
//! pass, and every pair above a (low) witness threshold is linked when it is
//! the mutual best. The paper reports two failure modes, both reproduced by
//! the ablation experiment:
//!
//! * under attack the baseline keeps perfect precision but recovers less
//!   than half as many nodes as User-Matching;
//! * on the Wikipedia-style workload its error rate balloons (27.9% vs
//!   17.3% in the paper).

use crate::backend::Backend;
use crate::config::{MatchingConfig, Phase};
use crate::stats::MatchingOutcome;
use crate::UserMatching;
use serde::{Deserialize, Serialize};
use snr_graph::{GraphView, NodeId};

/// Configuration of the baseline matcher.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BaselineConfig {
    /// Minimum number of common (linked) neighbors required to link a pair.
    /// The paper's straw-man uses 1.
    pub threshold: u32,
    /// Number of passes; each pass recounts witnesses with the links found
    /// so far. The paper's baseline is a single pass.
    pub passes: u32,
    /// Execution backend for witness counting.
    pub backend: Backend,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig { threshold: 1, passes: 1, backend: Backend::Sequential }
    }
}

/// The common-neighbor baseline matcher.
#[derive(Clone, Debug, Default)]
pub struct BaselineMatching {
    config: BaselineConfig,
}

impl BaselineMatching {
    /// Creates a baseline matcher with the given configuration.
    pub fn new(config: BaselineConfig) -> Self {
        BaselineMatching { config }
    }

    /// Creates a baseline matcher with the paper's straw-man settings
    /// (threshold 1, one pass).
    pub fn with_defaults() -> Self {
        BaselineMatching::default()
    }

    /// Borrow the configuration.
    pub fn config(&self) -> &BaselineConfig {
        &self.config
    }

    /// Runs the baseline on a pair of graphs (any [`GraphView`]
    /// representations) and a seed set.
    ///
    /// This is User-Matching's phase loop over a flat schedule: one phase
    /// per pass, every pass at minimum degree 1 (bucket exponent 0,
    /// reported as bucket 0), on the same exact kernel and backend.
    ///
    /// Panics only if the MapReduce backend's engine carries a spill budget
    /// (`SNR_MR_SPILL_BUDGET`) and a spill fails, like
    /// [`UserMatching::run`].
    pub fn run<G1, G2>(&self, g1: &G1, g2: &G2, seeds: &[(NodeId, NodeId)]) -> MatchingOutcome
    where
        G1: GraphView + Sync,
        G2: GraphView + Sync,
    {
        let config = MatchingConfig::default()
            .with_threshold(self.config.threshold)
            .with_backend(self.config.backend);
        let schedule: Vec<Phase> = (1..=self.config.passes.max(1))
            .map(|pass| Phase { iteration: pass, bucket: 0, reported_bucket: 0 })
            .collect();
        UserMatching::new(config)
            .run_schedule(g1, g2, seeds, &schedule, None)
            .expect("spill round failed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MatchingConfig, UserMatching};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snr_generators::preferential_attachment;
    use snr_sampling::attack::inject_attack;
    use snr_sampling::independent::independent_deletion_symmetric;
    use snr_sampling::sample_seeds;

    #[test]
    fn baseline_links_obvious_pairs() {
        let g = snr_graph::CsrGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2)]);
        let seeds = vec![(NodeId(1), NodeId(1)), (NodeId(2), NodeId(2))];
        let outcome = BaselineMatching::with_defaults().run(&g, &g.clone(), &seeds);
        assert_eq!(outcome.links.linked_in_g2(NodeId(0)), Some(NodeId(0)));
    }

    #[test]
    fn multiple_passes_grow_the_link_set() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = preferential_attachment(1_500, 8, &mut rng).unwrap();
        let pair = independent_deletion_symmetric(&g, 0.6, &mut rng).unwrap();
        let seeds = sample_seeds(&pair, 0.05, &mut rng).unwrap();
        let one = BaselineMatching::new(BaselineConfig { passes: 1, ..Default::default() })
            .run(&pair.g1, &pair.g2, &seeds);
        let two = BaselineMatching::new(BaselineConfig { passes: 2, ..Default::default() })
            .run(&pair.g1, &pair.g2, &seeds);
        assert!(two.links.len() >= one.links.len());
        assert_eq!(one.phases.len(), 1);
        assert_eq!(two.phases.len(), 2);
    }

    #[test]
    fn baseline_under_attack_recovers_fewer_nodes_than_user_matching() {
        // Reproduces the shape of the paper's ablation: under the attack
        // model the baseline's recall is much lower than User-Matching's.
        let mut rng = StdRng::seed_from_u64(6);
        let g = preferential_attachment(1_200, 10, &mut rng).unwrap();
        let clean = independent_deletion_symmetric(&g, 0.75, &mut rng).unwrap();
        let attacked = inject_attack(&clean, 0.5, &mut rng).unwrap();
        let seeds = sample_seeds(&attacked, 0.10, &mut rng).unwrap();

        let um = UserMatching::new(MatchingConfig::default().with_threshold(2).with_iterations(2))
            .run(&attacked.g1, &attacked.g2, &seeds);
        let base = BaselineMatching::with_defaults().run(&attacked.g1, &attacked.g2, &seeds);

        let correct = |o: &MatchingOutcome| {
            o.links.pairs().filter(|&(a, b)| attacked.truth.is_correct(a, b)).count()
        };
        let um_good = correct(&um);
        let base_good = correct(&base);
        assert!(
            base_good * 10 < um_good * 9,
            "baseline ({base_good}) should clearly trail User-Matching ({um_good}) under attack"
        );
    }

    #[test]
    fn default_config_matches_the_papers_strawman() {
        let c = BaselineConfig::default();
        assert_eq!(c.threshold, 1);
        assert_eq!(c.passes, 1);
    }
}
