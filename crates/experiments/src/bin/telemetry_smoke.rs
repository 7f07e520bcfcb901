//! Smoke check for the telemetry pipeline end-to-end.
//!
//! ```text
//! cargo run --release -p snr-experiments --bin telemetry_smoke [--full]
//! ```
//!
//! (The worker binary must be built too: `cargo build --release -p
//! snr-driver`; a workspace build covers it.)
//!
//! Runs the Table 2 matching schedule on an R-MAT workload — scale 13 with
//! 2 workers by default, scale 16 with 4 workers under `--full` — through
//! the multi-process shard driver with telemetry enabled, twice:
//!
//! 1. a **healthy** distributed run, whose JSONL trace must schema-validate
//!    and contain the coordinator's `phase` spans, per-worker `task` spans
//!    (shipped home as `Stats` frames and tagged `worker=<N>`), and
//!    `checkpoint` events; and in which every worker decodes each link at
//!    most once — the `decoded` fields of its `link_cache` spans, and the
//!    `links_decoded` counter per worker, stay within the final link count,
//!    so a link frontier that silently falls back to rebuilding every
//!    phase fails here;
//! 2. a **faulted** run (every worker killed on its first round-1 task and
//!    stalled 1ms per round-2 task), whose trace must additionally carry
//!    the `respawn` event the coordinator emits when it heals a kill and the
//!    `fault_fired` events the fault registry emits — including ones
//!    recorded *inside a worker subprocess* and shipped home (the stall
//!    site).
//!
//! Both runs must stay bit-identical to the sequential matcher: telemetry
//! is observe-only, so turning it on cannot change a single link.

use rand::rngs::StdRng;
use rand::SeedableRng;
use snr_core::{MatchingConfig, MatchingOutcome, UserMatching};
use snr_driver::{run_distributed, DriverConfig, DriverStore};
use snr_experiments::ExperimentArgs;
use snr_telemetry::TraceSummary;

fn driver_config(workers: usize, matching: MatchingConfig, fault: Option<&str>) -> DriverConfig {
    let mut config = DriverConfig::new(workers);
    config.matching = matching;
    config.store = DriverStore::Mmap;
    config.task_timeout = std::time::Duration::from_secs(300);
    config.fault = fault.map(str::to_owned);
    config
}

/// Runs one driver pass with a fresh telemetry slate and returns the
/// outcome plus the schema-validated summary of the trace it wrote.
fn traced_run(
    label: &str,
    pair: &snr_sampling::RealizationPair,
    seeds: &[(snr_graph::NodeId, snr_graph::NodeId)],
    config: DriverConfig,
    trace_path: &std::path::Path,
) -> (MatchingOutcome, TraceSummary) {
    snr_telemetry::reset();
    snr_telemetry::set_trace_path(trace_path.to_path_buf());
    snr_telemetry::enable();
    let outcome = run_distributed(&pair.g1, &pair.g2, seeds, config)
        .unwrap_or_else(|e| panic!("{label}: distributed run failed: {e}"));
    snr_telemetry::write_trace_if_configured()
        .unwrap_or_else(|e| panic!("{label}: trace write failed: {e}"))
        .unwrap_or_else(|| panic!("{label}: no trace path configured"));
    snr_telemetry::disable();
    let text = std::fs::read_to_string(trace_path)
        .unwrap_or_else(|e| panic!("{label}: trace unreadable: {e}"));
    let summary = snr_telemetry::validate_jsonl(&text)
        .unwrap_or_else(|e| panic!("{label}: trace failed schema validation: {e}"));
    (outcome, summary)
}

fn span_count(summary: &TraceSummary, name: &str) -> usize {
    summary.spans.iter().filter(|s| s.name == name).count()
}

/// The summed `decoded=<n>` fields of `worker`'s `link_cache` spans: the
/// links that worker's frontier decoded over the run.
fn links_decoded_by(summary: &TraceSummary, worker: usize) -> u64 {
    let tag = format!("worker={worker} ");
    summary
        .spans
        .iter()
        .filter(|s| s.name == "link_cache" && s.fields.contains(&tag))
        .filter_map(|s| {
            s.fields
                .split_whitespace()
                .find_map(|f| f.strip_prefix("decoded=")?.parse::<u64>().ok())
        })
        .sum()
}

fn event_count(summary: &TraceSummary, name: &str) -> usize {
    summary.events.iter().filter(|e| e.name == name).count()
}

fn main() {
    let args = ExperimentArgs::from_env();
    let (scale, workers): (u32, usize) = if args.full { (16, 4) } else { (13, 2) };

    // The Table 2 workload shape: R-MAT, edge survival 0.5, 10% seeds.
    let mut rng = StdRng::seed_from_u64(args.seed ^ scale as u64);
    let g = snr_generators::rmat(&snr_generators::RmatConfig::graph500(scale, 16), &mut rng)
        .expect("valid R-MAT parameters");
    let pair = snr_sampling::independent::independent_deletion_symmetric(&g, 0.5, &mut rng)
        .expect("valid probability");
    drop(g);
    let seeds = snr_sampling::sample_seeds(&pair, 0.10, &mut rng).expect("valid probability");
    println!(
        "RMAT-{scale}: {} nodes, {}/{} edges, {} seed links, {workers} workers",
        pair.g1.node_count(),
        pair.g1.edge_count(),
        pair.g2.edge_count(),
        seeds.len()
    );

    let matching = MatchingConfig::default().with_threshold(2).with_iterations(1);
    let reference = UserMatching::new(matching.clone()).run(&pair.g1, &pair.g2, &seeds);

    let dir = std::env::temp_dir().join(format!("snr-telemetry-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create trace dir");

    // ---- 1. Healthy run: spans and counters flow end-to-end. ------------
    let trace = dir.join("healthy.jsonl");
    let (outcome, summary) = traced_run(
        "healthy",
        &pair,
        &seeds,
        driver_config(workers, matching.clone(), None),
        &trace,
    );
    assert_eq!(outcome.links, reference.links, "healthy: telemetry changed the links");
    let phases = span_count(&summary, "phase");
    assert!(
        phases >= outcome.phases.len(),
        "expected >= {} phase spans, saw {phases}",
        outcome.phases.len()
    );
    let tasks = span_count(&summary, "task");
    assert!(tasks > 0, "no per-worker task spans shipped home");
    let per_worker = (0..workers as u32)
        .filter(|w| {
            summary
                .spans
                .iter()
                .any(|s| s.name == "task" && s.fields.contains(&format!("worker={w}")))
        })
        .count();
    assert!(per_worker >= 2, "task spans from only {per_worker} worker(s) in the trace");
    assert!(event_count(&summary, "checkpoint") > 0, "no checkpoint events in the trace");
    let tasks_done = summary.counters.iter().find(|(n, _)| n == "tasks_completed");
    assert!(
        matches!(tasks_done, Some((_, v)) if *v as usize == tasks),
        "tasks_completed counter ({tasks_done:?}) disagrees with task span count ({tasks})"
    );
    // Each worker's frontier decodes a link once, when it first sees it, so
    // no worker can decode more links than the run ends with.
    let final_links = outcome.links.len() as u64;
    for w in 0..workers {
        let decoded = links_decoded_by(&summary, w);
        assert!(decoded > 0, "worker {w} shipped no link_cache span with a decoded field");
        assert!(
            decoded <= final_links,
            "worker {w} decoded {decoded} links, more than the {final_links} the run ends with"
        );
    }
    let counted = summary.counters.iter().find(|(n, _)| n == "links_decoded").map(|&(_, v)| v);
    assert!(
        matches!(counted, Some(v) if v <= final_links * workers as u64),
        "links_decoded counter ({counted:?}) exceeds {workers} x {final_links} final links"
    );
    println!(
        "healthy: {} trace lines — {phases} phase spans, {tasks} task spans from {per_worker} workers, {} checkpoint events",
        summary.meta_lines + summary.spans.len() + summary.events.len() + summary.counters.len(),
        event_count(&summary, "checkpoint"),
    );

    // ---- 2. Faulted run: fault + recovery shows up in the trace. --------
    // Every worker carries the same faults, so the assertions hold whichever
    // worker handshakes first. The first round-1 task kills an original
    // worker, whose range only a replacement can finish (any other original
    // dies on it too): a respawn launches in round 1. A replacement inherits
    // only later-round actions, so the round-2 stall survives on it and
    // on every original, and each worker that is ready when round 2 starts
    // takes a round-2 task.
    let fault: Vec<String> = (0..workers)
        .flat_map(|w| [format!("kill:w{w}@round1"), format!("stall:w{w}@round2:1ms")])
        .collect();
    let trace = dir.join("faulted.jsonl");
    let (outcome, summary) = traced_run(
        "faulted",
        &pair,
        &seeds,
        driver_config(workers, matching, Some(&fault.join(","))),
        &trace,
    );
    assert_eq!(outcome.links, reference.links, "faulted: recovery changed the links");
    assert!(event_count(&summary, "respawn") > 0, "kill healed without a respawn event");
    let fired = event_count(&summary, "fault_fired");
    // The stall fires on every round-2 task and each firing ships home in
    // that task's Stats frame; a kill's own event dies with its worker.
    assert!(fired > 0, "no fault_fired events in the trace");
    assert!(
        summary.events.iter().any(|e| e.name == "fault_fired" && e.fields.contains("site=stall")),
        "worker-side stall firing did not ship home"
    );
    println!(
        "faulted: {} respawn event(s), {fired} fault_fired event(s) — recovery visible in trace",
        event_count(&summary, "respawn"),
    );

    let _ = std::fs::remove_dir_all(&dir);
    println!("OK: traces schema-valid, observe-only, and fault/recovery events present");
}
