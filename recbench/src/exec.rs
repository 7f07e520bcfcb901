//! The five executors, each driven only through the program's public entry
//! points, and the correctness checks every one of their runs must pass.

use snr_core::{Backend, CandidateSource, Linking, MatchingConfig, MatchingOutcome, UserMatching};
use snr_driver::{DriverConfig, DriverStore, ShardDriver};
use snr_graph::GraphView;
use snr_mapreduce::Engine;
use snr_metrics::Evaluation;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::workload::{Inputs, Spec};

/// Worker threads, map/reduce workers, and driver subprocesses: the load
/// stays within a 2-CPU host.
pub const WORKERS: usize = 2;

/// Spill budget of the out-of-core MapReduce engine (bytes).
pub const SPILL_BUDGET: u64 = 1 << 20;

/// Segment shards of the out-of-core driver store.
pub const OOC_SHARDS: usize = 4;

/// LSH banding of the `lsh` executor (the pure-blocking configuration).
pub const LSH_BANDS: usize = 16;
pub const LSH_ROWS: usize = 2;

/// Share of the exact run's good new links the pure-blocking run must keep
/// on the Table 2 shape (the recall floor the blocking smoke check pins).
pub const LSH_RECALL_FLOOR: f64 = 0.95;

/// The build command named when the driver worker cannot be found.
pub const WORKER_BUILD: &str = "cargo build --release -p snr-driver --bin snr-driver-worker";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Exec {
    Sequential,
    Rayon,
    MapReduce,
    Driver,
    Lsh,
}

impl Exec {
    pub const ALL: [Exec; 5] =
        [Exec::Sequential, Exec::Rayon, Exec::MapReduce, Exec::Driver, Exec::Lsh];

    /// The metric suffix of this executor.
    pub fn name(self) -> &'static str {
        match self {
            Exec::Sequential => "sequential",
            Exec::Rayon => "rayon",
            Exec::MapReduce => "mapreduce",
            Exec::Driver => "driver",
            Exec::Lsh => "lsh",
        }
    }

    /// Whether the executor must reproduce the sequential oracle bit for bit.
    pub fn is_exact(self) -> bool {
        self != Exec::Lsh
    }
}

/// Finds the driver worker by the rules `DriverConfig::worker_bin`
/// documents: an explicit path, then `SNR_DRIVER_WORKER`, then a
/// `snr-driver-worker` next to this executable.
pub fn locate_worker(explicit: Option<PathBuf>) -> Result<PathBuf, String> {
    let path = match explicit {
        Some(p) => p,
        None => match std::env::var("SNR_DRIVER_WORKER").ok().filter(|s| !s.is_empty()) {
            Some(p) => PathBuf::from(p),
            None => {
                let mut dir = std::env::current_exe().map_err(|e| e.to_string())?;
                dir.pop();
                if dir.file_name().is_some_and(|n| n == "deps") {
                    dir.pop();
                }
                dir.join(format!("snr-driver-worker{}", std::env::consts::EXE_SUFFIX))
            }
        },
    };
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "driver worker not found at {}; build it with `{WORKER_BUILD}` into the same \
             target directory, or point SNR_DRIVER_WORKER at it",
            path.display()
        ))
    }
}

/// The driver configuration of `spec`: `DriverConfig::new` defaults (mmap
/// store, checkpoints on), or a sharded store on the out-of-core workload.
/// Fault injection from the environment is switched off.
pub fn driver_config(spec: &Spec, worker: &Result<PathBuf, String>) -> DriverConfig {
    let mut cfg = DriverConfig::new(WORKERS);
    cfg.matching = spec.matching();
    cfg.fault = None;
    if spec.out_of_core {
        cfg.store = DriverStore::Sharded(OOC_SHARDS);
    }
    cfg.worker_bin = worker.as_ref().ok().cloned();
    cfg
}

/// A MapReduce engine with `WORKERS` workers; it spills into `scratch`
/// above `SPILL_BUDGET` on the out-of-core workload and never elsewhere.
pub fn engine(spec: &Spec, scratch: &Path) -> Engine {
    let budget = spec.out_of_core.then_some(SPILL_BUDGET);
    Engine::new(WORKERS).with_spill_budget(budget).with_scratch_dir(scratch.join("spill"))
}

pub fn lsh_config(spec: &Spec) -> MatchingConfig {
    spec.matching()
        .with_candidates(CandidateSource::Lsh { bands: LSH_BANDS, rows: LSH_ROWS })
        .with_lsh_mass_floor(0)
}

/// Everything an executor run needs besides the two graph views.
pub struct Env<'a> {
    pub spec: &'a Spec,
    pub inputs: &'a Inputs,
    pub scratch: &'a Path,
    pub driver: &'a ShardDriver,
    pub worker: &'a Result<PathBuf, String>,
}

/// Runs `exec` once and returns its outcome and wall time in seconds. An
/// error, a panic, or an unhealthy driver run comes back as `Err`.
pub fn run<G1, G2>(
    exec: Exec,
    env: &Env,
    g1: &G1,
    g2: &G2,
) -> Result<(MatchingOutcome, f64), String>
where
    G1: GraphView + Sync,
    G2: GraphView + Sync,
{
    if exec == Exec::Driver {
        env.worker.as_ref().map_err(Clone::clone)?;
    }
    let seeds = &env.inputs.seeds;
    let caught = catch_unwind(AssertUnwindSafe(|| {
        let start = Instant::now();
        let out = match exec {
            Exec::Sequential => UserMatching::new(env.spec.matching()).try_run(g1, g2, seeds),
            Exec::Rayon => UserMatching::new(env.spec.matching().with_backend(Backend::Rayon))
                .try_run(g1, g2, seeds),
            Exec::MapReduce => {
                let cfg = env.spec.matching().with_backend(Backend::MapReduce { workers: WORKERS });
                let engine = engine(env.spec, env.scratch);
                UserMatching::new(cfg).try_run_on_engine(g1, g2, seeds, &engine)
            }
            Exec::Driver => {
                let out = env.driver.run(seeds).map_err(|e| e.to_string());
                let secs = start.elapsed().as_secs_f64();
                let stats = env.driver.last_run_stats();
                return out.and_then(|o| {
                    if stats.respawns == 0 && stats.degraded_tasks == 0 {
                        Ok((o, secs))
                    } else {
                        Err(format!(
                            "unhealthy driver run: {} respawns, {} degraded tasks",
                            stats.respawns, stats.degraded_tasks
                        ))
                    }
                });
            }
            Exec::Lsh => UserMatching::new(lsh_config(env.spec)).try_run(g1, g2, seeds),
        };
        let secs = start.elapsed().as_secs_f64();
        out.map(|o| (o, secs)).map_err(|e| e.to_string())
    }));
    caught.unwrap_or_else(|_| Err("panicked".to_string()))
}

/// Links and summed scored pairs of a reference run.
pub struct Reference {
    pub links: Linking,
    pub scored_pairs: usize,
}

impl Reference {
    /// Whether `links` and `scored_pairs` reproduce this reference.
    pub fn check(&self, what: &str, links: &Linking, scored_pairs: usize) -> Result<(), String> {
        if *links != self.links {
            return Err(format!(
                "{what}: links differ from the reference ({} vs {} links)",
                links.len(),
                self.links.len()
            ));
        }
        if scored_pairs != self.scored_pairs {
            return Err(format!(
                "{what}: {scored_pairs} scored pairs, reference has {}",
                self.scored_pairs
            ));
        }
        Ok(())
    }
}

/// Recall and precision of a link set against the ground truth: recall is
/// good new links over matchable non-seed nodes, precision is good new links
/// over all new links.
pub fn quality(inputs: &Inputs, links: &Linking) -> (f64, f64, usize) {
    let eval =
        Evaluation::score_against(&inputs.truth, inputs.matchable, links, links.seed_count());
    let denom = inputs.matchable.saturating_sub(inputs.matchable_seeds).max(1);
    (eval.new_good as f64 / denom as f64, eval.precision(), eval.new_good)
}

/// Drops the last link of `links` — the deliberately wrong answer the
/// self-test feeds to the checks.
pub fn corrupted(links: &Linking) -> Linking {
    let mut pairs = links.to_vec();
    pairs.pop();
    let mut out = Linking::new(links.g1_capacity(), links.g2_capacity());
    out.insert_batch(&pairs);
    out
}

/// The reference links every later run is checked against: the first
/// sequential run (the oracle) and the first `lsh` run, which must itself
/// keep the workload's LSH recall floor of the oracle's good new links.
pub struct Checks {
    pub oracle: Option<Reference>,
    pub lsh: Option<Reference>,
    lsh_floor: Option<f64>,
}

impl Checks {
    pub fn new(spec: &Spec) -> Checks {
        Checks { oracle: None, lsh: None, lsh_floor: spec.lsh_recall_floor }
    }

    /// Checks one run of `exec`; with `corrupt` the run's last link is
    /// dropped first, which every check must catch.
    pub fn check(
        &mut self,
        exec: Exec,
        out: &MatchingOutcome,
        inputs: &Inputs,
        corrupt: bool,
    ) -> Result<(), String> {
        let bad;
        let links = if corrupt {
            bad = corrupted(&out.links);
            &bad
        } else {
            &out.links
        };
        let scored = out.total_scored_pairs();
        let name = exec.name();
        if exec == Exec::Sequential && self.oracle.is_none() {
            let (recall, _, good) = quality(inputs, links);
            if good == 0 || recall <= 0.0 {
                return Err(format!("{name}: the oracle identified no new true pair"));
            }
            self.oracle = Some(Reference { links: links.clone(), scored_pairs: scored });
            return Ok(());
        }
        let oracle = self.oracle.as_ref().ok_or_else(|| format!("{name}: no sequential oracle"))?;
        if exec.is_exact() {
            return oracle.check(name, links, scored);
        }
        if let Some(reference) = &self.lsh {
            return reference.check(name, links, scored);
        }
        if let Some(floor) = self.lsh_floor {
            let (_, _, exact_good) = quality(inputs, &oracle.links);
            let (_, _, lsh_good) = quality(inputs, links);
            let kept = lsh_good as f64 / exact_good.max(1) as f64;
            if kept < floor {
                return Err(format!(
                    "{name}: kept {lsh_good} of {exact_good} good new links ({kept:.3} < {floor})"
                ));
            }
        }
        self.lsh = Some(Reference { links: links.clone(), scored_pairs: scored });
        Ok(())
    }
}
