//! Reconciliation benchmark: graph pair plus seeds in, links out, for every
//! executor of User-Matching, and a traced run that splits the schedule
//! into its layers. See `README.md` in this directory.
//!
//! ```text
//! recbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!          [--tiny] [--worker-bin <path>] [--corrupt]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod exec;
mod host;
mod report;
mod trace;
mod workload;

use exec::{Checks, Env, Exec};
use host::HostSpeed;
use report::{median, Report};
use snr_core::blocking::Banding;
use snr_driver::ShardDriver;
use snr_graph::GraphView;
use snr_mapreduce::EngineStats;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;
use workload::{Inputs, Spec};

const USAGE: &str = "usage: recbench --workload <rmat17-table2|pa-late|rmat16-ooc> --seed <n> \
                     --seconds <s> --trace <0|1> [--tiny] [--worker-bin <path>] [--corrupt]";

/// Program-side set-up is repeated this many times per run; `setup_s` is
/// the median, corrected for host speed.
const SETUP_REPS: usize = 10;

/// Measurement rounds per run at least: the first round of every executor
/// (and of every traced call) is a warm-up that is checked but not timed.
const MIN_ROUNDS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    worker_bin: Option<PathBuf>,
    corrupt: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut args = Args {
            workload: String::new(),
            seed: 0,
            seconds: 0.0,
            trace: false,
            tiny: false,
            worker_bin: None,
            corrupt: false,
        };
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => {
                    seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?)
                }
                "--seconds" => {
                    let s = value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 120.0) {
                        return Err(format!("--seconds {s} must be in (0, 120]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace {other} must be 0 or 1")),
                    })
                }
                "--worker-bin" => args.worker_bin = Some(PathBuf::from(value()?)),
                "--tiny" => args.tiny = true,
                "--corrupt" => args.corrupt = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        args.workload = workload.ok_or("--workload is required")?;
        if !workload::NAMES.contains(&args.workload.as_str()) {
            return Err(format!("unknown workload {}", args.workload));
        }
        args.seed = seed.ok_or("--seed is required")?;
        args.seconds = seconds.ok_or("--seconds is required")?;
        args.trace = trace.ok_or("--trace is required")?;
        Ok(args)
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("recbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let spec = Spec::named(&args.workload, args.tiny).expect("workload name was validated");
    let inputs = Inputs::generate(&spec, args.seed);
    let scratch = std::env::temp_dir().join(format!("recbench-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("recbench: cannot create {}: {e}", scratch.display());
        std::process::exit(1);
    }
    eprintln!(
        "recbench: {} seed {}: {}/{} nodes, {}/{} edges, {} seeds, {} CPUs",
        spec.name,
        args.seed,
        inputs.g1.node_count(),
        inputs.g2.node_count(),
        inputs.g1.edge_count(),
        inputs.g2.edge_count(),
        inputs.seeds.len(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let mut report = Report::default();
    let ok = prepare_and_run(&args, &spec, &inputs, &scratch, &mut report);
    let _ = std::fs::remove_dir_all(&scratch);
    if !ok {
        std::process::exit(1);
    }
    report.print();
}

/// Program-side set-up wall times of one repetition (seconds).
#[derive(Clone, Copy)]
struct SetupTimes {
    /// `ShardDriver::new` alone.
    driver_new: f64,
    /// The whole repetition.
    total: f64,
}

/// Pays the program-side set-up `SETUP_REPS` times (a `ShardDriver`, and
/// on the out-of-core workload the segment files and mmap views it matches
/// on), then measures. Returns false when set-up itself failed.
fn prepare_and_run(
    args: &Args,
    spec: &Spec,
    inputs: &Inputs,
    scratch: &Path,
    report: &mut Report,
) -> bool {
    let worker = exec::locate_worker(args.worker_bin.clone());
    let dcfg = exec::driver_config(spec, &worker);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut host = HostSpeed::default();
    if spec.out_of_core {
        let mut prepared = None;
        for _ in 0..SETUP_REPS {
            // The previous views and driver go first: the next write
            // truncates the files they map.
            drop(prepared.take());
            host.sample();
            let views = match trace::store(&inputs.g1, &inputs.g2, &scratch.join("views")) {
                Ok(s) => s,
                Err(e) => return setup_failed(&e),
            };
            let (m1, m2) = views.views;
            let start = Instant::now();
            let driver = match ShardDriver::new(&m1, &m2, dcfg.clone()) {
                Ok(d) => d,
                Err(e) => return setup_failed(&e.to_string()),
            };
            let driver_new = start.elapsed().as_secs_f64();
            let total = views.write_s + views.open_s + driver_new;
            setups.push(SetupTimes { driver_new, total });
            prepared = Some((m1, m2, driver));
        }
        let (m1, m2, driver) = prepared.expect("SETUP_REPS > 0");
        let env = Env { spec, inputs, scratch, driver: &driver, worker: &worker };
        measure(args, &env, &setups, host, &m1, &m2, report);
    } else {
        let mut prepared = None;
        for _ in 0..SETUP_REPS {
            drop(prepared.take());
            host.sample();
            let start = Instant::now();
            let driver = match ShardDriver::new(&inputs.g1, &inputs.g2, dcfg.clone()) {
                Ok(d) => d,
                Err(e) => return setup_failed(&e.to_string()),
            };
            let driver_new = start.elapsed().as_secs_f64();
            setups.push(SetupTimes { driver_new, total: driver_new });
            prepared = Some(driver);
        }
        let driver = prepared.expect("SETUP_REPS > 0");
        let env = Env { spec, inputs, scratch, driver: &driver, worker: &worker };
        measure(args, &env, &setups, host, &inputs.g1, &inputs.g2, report);
    }
    true
}

fn setup_failed(msg: &str) -> bool {
    eprintln!("recbench: set-up failed: {msg}");
    false
}

/// Whether another round fits: at least `MIN_ROUNDS`, then as many as end
/// within `seconds` judging by the previous round's length.
fn another_round(rounds: usize, start: Instant, last_round: f64, seconds: f64) -> bool {
    rounds < MIN_ROUNDS || start.elapsed().as_secs_f64() + last_round <= seconds
}

fn measure<G1, G2>(
    args: &Args,
    env: &Env,
    setups: &[SetupTimes],
    host: HostSpeed,
    g1: &G1,
    g2: &G2,
    report: &mut Report,
) where
    G1: GraphView + Sync,
    G2: GraphView + Sync,
{
    if args.trace {
        traced(args, env, setups, g1, g2, report);
    } else {
        end_to_end(args, env, setups, host, g1, g2, report);
    }
}

/// The untraced run: every executor in turn, round after round.
fn end_to_end<G1, G2>(
    args: &Args,
    env: &Env,
    setups: &[SetupTimes],
    mut host: HostSpeed,
    g1: &G1,
    g2: &G2,
    report: &mut Report,
) where
    G1: GraphView + Sync,
    G2: GraphView + Sync,
{
    let mut checks = Checks::new(env.spec);
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); Exec::ALL.len()];
    let mut warm: Vec<f64> = vec![f64::NAN; Exec::ALL.len()];
    let mut peak_rss = None;
    report::reset_peak_rss();
    let (start, mut rounds, mut last_round) = (Instant::now(), 0, 0.0);
    while another_round(rounds, start, last_round, args.seconds) {
        let round_start = Instant::now();
        for (i, &exec) in Exec::ALL.iter().enumerate() {
            let corrupt = args.corrupt && rounds == 0 && exec == Exec::Rayon;
            host.sample();
            let result = exec::run(exec, env, g1, g2).and_then(|(out, secs)| {
                checks.check(exec, &out, env.inputs, corrupt).map(|()| secs)
            });
            if rounds == 0 && exec == Exec::Sequential {
                // The first run in the process: nothing else has grown the
                // heap yet, so this peak is what one sequential
                // reconciliation needs.
                peak_rss = report::peak_rss_mb();
            }
            match report.attempt(exec.name(), result) {
                Some(secs) if rounds > 0 => times[i].push(secs),
                Some(secs) => warm[i] = secs,
                _ => {}
            }
        }
        last_round = round_start.elapsed().as_secs_f64();
        rounds += 1;
    }
    eprintln!(
        "recbench: reference kernel median {:.5} s over {} samples; times below are wall clock",
        host.reference().unwrap_or(f64::NAN),
        host.samples()
    );
    for (i, exec) in Exec::ALL.iter().enumerate() {
        eprintln!(
            "recbench: {} warm-up {:.4} s, timed runs (s): {:.4?}",
            exec.name(),
            warm[i],
            times[i]
        );
        let corrected = host.correct(median(&times[i]));
        report.value(&format!("match_s.{}", exec.name()), "s", corrected, times[i].len());
    }
    let setup: Vec<f64> = setups.iter().map(|s| s.total).collect();
    report.value("setup_s", "s", host.correct(median(&setup)), setup.len());
    report.value("peak_rss_mb", "MiB", peak_rss, 1);
    let exact = checks.oracle.as_ref().map(|r| exec::quality(env.inputs, &r.links));
    let lsh = checks.lsh.as_ref().map(|r| exec::quality(env.inputs, &r.links));
    report.value("recall", "ratio", exact.map(|q| q.0), 1);
    report.value("precision", "ratio", exact.map(|q| q.1), 1);
    report.value("recall.lsh", "ratio", lsh.map(|q| q.0), 1);
    report.value("precision.lsh", "ratio", lsh.map(|q| q.1), 1);
    let ok = report.attempted - report.failed;
    report.value("ok_ratio", "ratio", Some(ok as f64 / report.attempted.max(1) as f64), 1);
}

/// Runs `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| Err("panicked".to_string()))
}

/// One timed repetition of the driver, seen from outside `ShardDriver::run`.
struct DriverSample {
    run_s: f64,
    /// Sum of the phase durations the run reports.
    phase_s: f64,
    phases: usize,
    respawns: u32,
    degraded_tasks: u64,
    checkpoints: u32,
}

/// The traced run: every layer's public calls, timed from here.
fn traced<G1, G2>(
    args: &Args,
    env: &Env,
    setups: &[SetupTimes],
    g1: &G1,
    g2: &G2,
    report: &mut Report,
) where
    G1: GraphView + Sync,
    G2: GraphView + Sync,
{
    let (spec, inputs) = (env.spec, env.inputs);
    let cfg = spec.matching();
    let banding = Banding::new(exec::LSH_BANDS, exec::LSH_ROWS);
    let mut checks = Checks::new(env.spec);
    let mut seq: Vec<f64> = Vec::new();
    let mut exact: Vec<trace::ExactTrace> = Vec::new();
    let mut lsh: Vec<trace::LshTrace> = Vec::new();
    let mut mr: Vec<(f64, EngineStats, f64)> = Vec::new();
    let mut drv: Vec<DriverSample> = Vec::new();
    let mut store: Vec<(f64, f64, u64)> = Vec::new();
    let (start, mut rounds, mut last_round) = (Instant::now(), 0, 0.0);
    while another_round(rounds, start, last_round, args.seconds) {
        let round_start = Instant::now();
        let timed = rounds > 0;
        // Untraced references: the sequential oracle (timed, for the
        // overhead ratio) and, once, the lsh executor.
        let result = exec::run(Exec::Sequential, env, g1, g2).and_then(|(out, secs)| {
            checks.check(Exec::Sequential, &out, inputs, false).map(|()| secs)
        });
        if let Some(secs) = report.attempt("sequential", result) {
            if timed {
                seq.push(secs);
            }
        }
        if rounds == 0 {
            let result = exec::run(Exec::Lsh, env, g1, g2)
                .and_then(|(out, _)| checks.check(Exec::Lsh, &out, inputs, false));
            report.attempt("lsh", result);
        }
        let oracle = checks.oracle.as_ref();
        let against_oracle = |what: &str, links: &snr_core::Linking, scored: usize| {
            oracle
                .ok_or_else(|| format!("{what}: no sequential oracle"))?
                .check(what, links, scored)
        };

        let result = guarded(|| {
            let t = trace::exact(g1, g2, &inputs.seeds, &cfg);
            let links = t.links.as_ref().expect("set by trace::exact");
            against_oracle("traced exact", links, t.scored_pairs as usize).map(|()| t)
        });
        if let Some(t) = report.attempt("traced exact", result) {
            if timed {
                exact.push(t);
            }
        }

        let result = guarded(|| {
            let t = trace::lsh(g1, g2, &inputs.seeds, &exec::lsh_config(spec), &banding);
            let reference = checks.lsh.as_ref().ok_or("traced lsh: no lsh reference")?;
            let links = t.links.as_ref().expect("set by trace::lsh");
            reference.check("traced lsh", links, t.scored_pairs).map(|()| t)
        });
        if let Some(t) = report.attempt("traced lsh", result) {
            if timed {
                lsh.push(t);
            }
        }

        let result = guarded(|| {
            let engine = exec::engine(spec, env.scratch);
            report::reset_peak_rss();
            let t = trace::mapreduce(g1, g2, &inputs.seeds, &cfg, &engine)
                .map_err(|e| e.to_string())?;
            let peak = report::peak_rss_mb().ok_or("traced mapreduce: no peak RSS")?;
            against_oracle("traced mapreduce", &t.links, t.scored_pairs)
                .map(|()| (t.round_s, engine.stats(), peak))
        });
        if let Some(sample) = report.attempt("traced mapreduce", result) {
            if timed {
                mr.push(sample);
            }
        }

        let result = exec::run(Exec::Driver, env, g1, g2).and_then(|(out, run_s)| {
            against_oracle("driver", &out.links, out.total_scored_pairs())?;
            let stats = env.driver.last_run_stats();
            Ok(DriverSample {
                run_s,
                phase_s: out.phases.iter().map(|p| p.duration.as_secs_f64()).sum(),
                phases: out.phases.len(),
                respawns: stats.respawns,
                degraded_tasks: stats.degraded_tasks,
                checkpoints: stats.checkpoints,
            })
        });
        if let Some(sample) = report.attempt("driver", result) {
            if timed {
                drv.push(sample);
            }
        }

        let result = guarded(|| {
            let t = trace::store(g1, g2, &env.scratch.join("store-probe"))?;
            Ok((t.write_s, t.open_s, t.segment_bytes))
        });
        if let Some(sample) = report.attempt("store", result) {
            if timed {
                store.push(sample);
            }
        }
        last_round = round_start.elapsed().as_secs_f64();
        rounds += 1;
    }

    let times = |f: &dyn Fn(&trace::ExactTrace) -> f64| exact.iter().map(f).collect::<Vec<f64>>();
    let e = exact.last();
    let count = |f: &dyn Fn(&trace::ExactTrace) -> f64| e.map(f);
    report.median("scoring.bump_s", "s", &times(&|t| t.bump_s));
    report.value("scoring.bump_ops", "count", count(&|t| t.bump_ops as f64), exact.len());
    report.value("scoring.scored_pairs", "count", count(&|t| t.scored_pairs as f64), exact.len());
    report.median("scoring.link_cache_s", "s", &times(&|t| t.link_cache_s));
    report.value(
        "scoring.link_cache_targets",
        "count",
        count(&|t| t.cached_targets as f64),
        exact.len(),
    );
    report.median("scoring.candidates_s", "s", &times(&|t| t.candidates_s));
    report.value(
        "scoring.candidate_rows",
        "count",
        count(&|t| t.candidate_rows as f64),
        exact.len(),
    );
    report.median("scoring.select_s", "s", &times(&|t| t.select_s));
    report.value(
        "scoring.link_yield",
        "ratio",
        count(&|t| t.new_links as f64 / t.scored_pairs.max(1) as f64),
        exact.len(),
    );
    report.value("algorithm.phases", "count", count(&|t| t.phases as f64), exact.len());
    report.value("algorithm.new_links", "count", count(&|t| t.new_links as f64), exact.len());
    report.median("algorithm.insert_s", "s", &times(&|t| t.insert_s));

    let l = lsh.last();
    let lsh_times = |f: &dyn Fn(&trace::LshTrace) -> f64| lsh.iter().map(f).collect::<Vec<f64>>();
    report.median("sketch.signature_s", "s", &lsh_times(&|t| t.signature_s));
    report.median("sketch.band_s", "s", &lsh_times(&|t| t.band_s));
    report.value("sketch.proposals", "count", l.map(|t| t.proposals as f64), lsh.len());
    report.median("blocking.verify_s", "s", &lsh_times(&|t| t.verify_s));
    report.value(
        "blocking.verify_yield",
        "ratio",
        l.map(|t| t.verified as f64 / t.proposals.max(1) as f64),
        lsh.len(),
    );

    let m = mr.last().map(|(_, s, _)| s);
    let sum_rounds = |f: &dyn Fn(&snr_mapreduce::RoundStats) -> f64| {
        m.map(|s| s.per_round.iter().map(f).sum::<f64>())
    };
    report.value("mapreduce.rounds", "count", m.map(|s| s.rounds as f64), mr.len());
    report.median("mapreduce.round_s", "s", &mr.iter().map(|(t, _, _)| *t).collect::<Vec<_>>());
    report.value(
        "mapreduce.map_output_records",
        "count",
        sum_rounds(&|r| r.map_output_records as f64),
        mr.len(),
    );
    report.value(
        "mapreduce.shuffled_bytes",
        "bytes",
        sum_rounds(&|r| r.shuffled_bytes as f64),
        mr.len(),
    );
    report.value(
        "mapreduce.combine_ratio",
        "ratio",
        m.map(|s| s.total_shuffled_records as f64 / s.total_map_output_records().max(1) as f64),
        mr.len(),
    );
    report.value(
        "mapreduce.spilled_bytes",
        "bytes",
        sum_rounds(&|r| r.spilled_bytes as f64),
        mr.len(),
    );
    report.value("mapreduce.spill_runs", "count", sum_rounds(&|r| r.spilled_runs as f64), mr.len());
    let merge: Vec<f64> = mr
        .iter()
        .map(|(_, s, _)| s.per_round.iter().map(|r| r.spill_merge_micros as f64 * 1e-6).sum())
        .collect();
    report.median("mapreduce.spill_merge_s", "s", &merge);
    report.median(
        "mapreduce.peak_rss_mb",
        "MiB",
        &mr.iter().map(|(_, _, p)| *p).collect::<Vec<_>>(),
    );

    let d = drv.last();
    let exact_wall = median(&times(&|t| t.wall_s));
    let phase_s = median(&drv.iter().map(|s| s.phase_s).collect::<Vec<_>>());
    report.median("driver.new_s", "s", &setups.iter().map(|s| s.driver_new).collect::<Vec<_>>());
    report.median("driver.run_s", "s", &drv.iter().map(|s| s.run_s).collect::<Vec<_>>());
    report.value("driver.phase_s", "s", phase_s, drv.len());
    report.median(
        "driver.overhead_s",
        "s",
        &drv.iter().map(|s| s.run_s - s.phase_s).collect::<Vec<_>>(),
    );
    report.value(
        "driver.tasks",
        "count",
        d.map(|s| (s.phases * env.driver.task_count()) as f64),
        drv.len(),
    );
    report.value("driver.segment_bytes", "bytes", Some(env.driver.segment_bytes() as f64), 1);
    report.value("driver.vs_sequential", "ratio", ratio(phase_s, exact_wall), drv.len());
    report.value("driver.respawns", "count", d.map(|s| s.respawns as f64), drv.len());
    report.value("driver.degraded_tasks", "count", d.map(|s| s.degraded_tasks as f64), drv.len());
    report.value("driver.checkpoints", "count", d.map(|s| s.checkpoints as f64), drv.len());

    let edges = (g1.edge_count() + g2.edge_count()).max(1) as f64;
    let bytes = store.last().map(|s| s.2 as f64);
    report.median("store.write_s", "s", &store.iter().map(|s| s.0).collect::<Vec<_>>());
    report.median("store.open_s", "s", &store.iter().map(|s| s.1).collect::<Vec<_>>());
    report.value("store.segment_bytes", "bytes", bytes, store.len());
    report.value("store.bytes_per_edge", "B/edge", bytes.map(|b| b / edges), store.len());

    report.value("trace.overhead_ratio", "ratio", ratio(exact_wall, median(&seq)), exact.len());
    let coverage: Vec<f64> = exact.iter().map(|t| t.covered_s() / t.wall_s).collect();
    report.median("trace.coverage", "ratio", &coverage);
}

fn ratio(num: Option<f64>, den: Option<f64>) -> Option<f64> {
    Some(num? / den.filter(|d| *d > 0.0)?)
}
