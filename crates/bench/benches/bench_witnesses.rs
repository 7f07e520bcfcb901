//! Microbenchmark: one fused scoring phase.
//!
//! The inner kernel of every phase. Times the fused score+select phase on
//! the sequential and rayon paths, runs the R-MAT-16 phase on every
//! executor (in-process, MapReduce in memory and spilling, LSH-blocked,
//! and the multi-process driver) and on all four graph representations
//! (CSR, compact, mmap-backed segment, sharded) with their memory
//! footprints printed for the record, and shows the effect of the degree
//! threshold on the reference count (higher buckets touch far fewer
//! candidate pairs).
//!
//! The driver labels need the `snr-driver-worker` binary; when it cannot
//! be launched the bench prints the driver's error and exits non-zero
//! before timing anything.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use snr_bench::Workload;
use snr_core::blocking::{lsh_fused_phase, Banding, DEFAULT_SKETCH_SEED};
use snr_core::scoring::{fused_phase, mapreduce_fused_phase, CandidateCache};
use snr_core::witness::count_sequential;
use snr_core::{Linking, MatchingConfig};
use snr_driver::{DriverConfig, DriverStore, ShardDriver};
use snr_graph::{GraphView, NodeId};
use snr_mapreduce::Engine;
use snr_store::{write_segment_file, MmapGraph, ShardedGraph};
use std::hint::black_box;
use std::path::PathBuf;

/// The phase's degree-eligible unlinked nodes of one copy, as the matcher
/// would assemble them for the blocked path.
fn eligible<G: GraphView>(g: &G, links: &Linking, copy1: bool, min_degree: usize) -> Vec<u32> {
    CandidateCache::build(g).eligible(
        min_degree,
        |u| if copy1 { links.is_linked_g1(NodeId(u)) } else { links.is_linked_g2(NodeId(u)) },
        |u| g.degree(NodeId(u)),
    )
}

/// Writes `g` as a segment under the temp dir (overwriting any previous
/// bench run's file) and reopens it mmap-backed.
fn mmap_of<G: GraphView>(g: &G, name: &str) -> (MmapGraph, PathBuf) {
    let dir = std::env::temp_dir().join(format!("snr-bench-segments-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench segment dir");
    let path = dir.join(format!("{name}.snrs"));
    write_segment_file(g, &path).expect("write bench segment");
    (MmapGraph::open(&path).expect("open bench segment"), path)
}

/// The arena fast path: witness scoring with mutual-best selection fused
/// into row finalization (no score table) — what one matcher phase actually
/// runs on the sequential and rayon backends.
fn bench_fused(c: &mut Criterion) {
    let workload = Workload::pa(4_000, 10, 0.6, 0.10, 42);
    let links = workload.linking();
    let (g1, g2) = (&workload.pair.g1, &workload.pair.g2);

    let mut group = c.benchmark_group("witness_counting/fused");
    group.sample_size(15);
    group.bench_function("sequential", |b| {
        b.iter(|| black_box(fused_phase(g1, g2, &links, 2, 2, 2, false)))
    });
    group.bench_function("rayon", |b| {
        b.iter(|| black_box(fused_phase(g1, g2, &links, 2, 2, 2, true)))
    });
    group.finish();
}

/// Table 2 shape at benchmark size: the fused phase on every executor and
/// graph representation at R-MAT scale 16.
fn bench_rmat16(c: &mut Criterion) {
    let workload = Workload::rmat(16, 0.7, 0.02, 46);
    let links = workload.linking();
    let (g1, g2) = (&workload.pair.g1, &workload.pair.g2);
    let (c1, c2) = workload.compact_pair();

    let mut group = c.benchmark_group("witness_counting/rmat16");
    group.sample_size(5);
    group.bench_function("csr/fused", |b| {
        b.iter(|| black_box(fused_phase(g1, g2, &links, 2, 2, 2, true)))
    });
    // Exactly csr/fused with telemetry explicitly disabled: the baseline
    // pins this label at parity with csr/fused, so any cost the disabled
    // telemetry hooks leak into the scoring hot loop fails the bench gate.
    group.bench_function("csr/telemetry_off", |b| {
        snr_telemetry::disable();
        b.iter(|| black_box(fused_phase(g1, g2, &links, 2, 2, 2, true)))
    });
    group.bench_function("compact/fused", |b| {
        b.iter(|| black_box(fused_phase(&c1, &c2, &links, 2, 2, 2, true)))
    });
    // The LSH-blocked phase (CandidateSource::Lsh): sketch both copies'
    // eligible nodes over their witness-link sets, propose pairs via 16×2
    // banding, verify proposals exactly. Same (min_degree 2, threshold 2)
    // phase as the fused labels above.
    let banding = Banding::new(16, 2);
    let (csr_c1, csr_c2) = (eligible(g1, &links, true, 2), eligible(g2, &links, false, 2));
    group.bench_function("csr/lsh_fused", |b| {
        b.iter(|| {
            black_box(lsh_fused_phase(
                g1,
                g2,
                &links,
                &csr_c1,
                &csr_c2,
                2,
                2,
                &banding,
                DEFAULT_SKETCH_SEED,
                true,
            ))
        })
    });
    let (cc_c1, cc_c2) = (eligible(&c1, &links, true, 2), eligible(&c2, &links, false, 2));
    group.bench_function("compact/lsh_fused", |b| {
        b.iter(|| {
            black_box(lsh_fused_phase(
                &c1,
                &c2,
                &links,
                &cc_c1,
                &cc_c2,
                2,
                2,
                &banding,
                DEFAULT_SKETCH_SEED,
                true,
            ))
        })
    });

    // The MapReduce backend's fused phase (row-scoring mappers that ship
    // selection claims, per-column select reducers) — what one matcher
    // phase actually runs on Backend::MapReduce.
    group.bench_function("csr/mapreduce_fused", |b| {
        let engine = Engine::new(4);
        b.iter(|| black_box(mapreduce_fused_phase(&engine, g1, g2, &links, 2, 2, 2)))
    });
    group.bench_function("compact/mapreduce_fused", |b| {
        let engine = Engine::new(4);
        b.iter(|| black_box(mapreduce_fused_phase(&engine, &c1, &c2, &links, 2, 2, 2)))
    });
    // The same fused round forced out-of-core: a zero budget makes every
    // non-empty map task spill its sorted buckets to run files that the
    // reduce k-way merges back, however small the claims shuffle gets.
    // The baseline pins the cost of the spill write + checksum + merge path
    // relative to the in-memory round above.
    group.bench_function("csr/mapreduce_spill", |b| {
        let scratch = std::env::temp_dir().join(format!("snr-bench-spill-{}", std::process::id()));
        let engine = Engine::new(4).with_spill_budget(Some(0)).with_scratch_dir(scratch);
        mapreduce_fused_phase(&engine, g1, g2, &links, 2, 2, 2).expect("spilling round");
        assert!(engine.stats().per_round[0].spilled_runs > 0, "the spill bench must spill");
        b.iter(|| black_box(mapreduce_fused_phase(&engine, g1, g2, &links, 2, 2, 2)))
    });

    // The storage subsystem on the same workload: witness pass over
    // mmap-backed segments and over the 4-shard partition.
    let ((m1, p1), (m2, p2)) = (mmap_of(g1, "rmat16-g1"), mmap_of(g2, "rmat16-g2"));
    let (s1, s2) = (ShardedGraph::partition(g1, 4), ShardedGraph::partition(g2, 4));
    println!("witness_counting/rmat16 graph memory (copy 1):");
    for (name, bytes, bpe) in [
        ("csr", GraphView::memory_bytes(g1), g1.bytes_per_edge()),
        ("compact", c1.memory_bytes(), c1.bytes_per_edge()),
        ("mmap", m1.memory_bytes(), m1.bytes_per_edge()),
        ("sharded", s1.memory_bytes(), s1.bytes_per_edge()),
    ] {
        println!("  {name:8} memory_bytes = {bytes:>12}  bytes_per_edge = {bpe:.2}");
    }
    group.bench_function("mmap/fused", |b| {
        b.iter(|| black_box(fused_phase(&m1, &m2, &links, 2, 2, 2, true)))
    });
    group.bench_function("sharded/fused", |b| {
        b.iter(|| black_box(fused_phase(&s1, &s2, &links, 2, 2, 2, true)))
    });

    // The same phase as one distributed round of the multi-process shard
    // driver (snr-driver): 2 worker subprocesses over mmap segments,
    // min_degree 2, threshold 2. Segment writing stays outside the timer;
    // each iteration pays the honest distributed cost — spawn + init
    // handshake, phase broadcast, range scoring in the workers, and the
    // claims merge. The worker binary must be in target/<profile>
    // (`cargo build --release -p snr-driver`; CI's workspace build covers
    // it).
    let seeds: Vec<_> = links.pairs().collect();
    let mut driver_config = DriverConfig::new(2);
    driver_config.matching = MatchingConfig::default()
        .with_threshold(2)
        .with_iterations(1)
        .with_degree_bucketing(false)
        .with_min_bucket(1);
    driver_config.store = DriverStore::Mmap;
    driver_config.fault = None;
    // The healing layers stay out of this label: no per-phase checkpoint
    // write, no respawn budget — the same pure round the baseline recorded.
    driver_config.checkpoints = false;
    driver_config.respawn_budget = 0;
    let driver = driver_or_exit(ShardDriver::new(g1, g2, driver_config.clone()));
    // One untimed round first: a missing or broken worker binary is a
    // setup error to report, not a panic inside the timing loop.
    driver_or_exit(driver.run(&seeds));
    group.bench_function("driver/fused", |b| {
        b.iter(|| black_box(driver.run(&seeds).expect("distributed round")))
    });
    drop(driver);
    // The same round with the self-healing machinery at its defaults —
    // respawn budget armed and a checkpoint persisted after the phase. The
    // delta against driver/fused is the price a healthy run pays for
    // recoverability (dominated by the checkpoint encode + fsync).
    driver_config.checkpoints = true;
    driver_config.respawn_budget = 2;
    let driver = driver_or_exit(ShardDriver::new(g1, g2, driver_config));
    group.bench_function("driver/respawn_overhead", |b| {
        b.iter(|| black_box(driver.run(&seeds).expect("distributed round")))
    });
    drop(driver);
    drop((m1, m2));
    let dir = p1.parent().map(std::path::Path::to_path_buf);
    let _ = std::fs::remove_file(p1);
    let _ = std::fs::remove_file(p2);
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir(dir);
    }
    group.finish();
}

/// Unwraps a driver result, or prints the error (which names how to build or
/// point at the worker binary) and exits non-zero.
fn driver_or_exit<T>(result: Result<T, snr_driver::DriverError>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("bench_witnesses: driver setup failed: {e}");
        std::process::exit(1)
    })
}

fn bench_degree_thresholds(c: &mut Criterion) {
    let workload = Workload::pa(4_000, 10, 0.6, 0.10, 43);
    let links = workload.linking();
    let (g1, g2) = (&workload.pair.g1, &workload.pair.g2);

    let mut group = c.benchmark_group("witness_counting/degree_threshold");
    group.sample_size(15);
    for min_degree in [2usize, 8, 32, 128] {
        group.bench_with_input(BenchmarkId::from_parameter(min_degree), &min_degree, |b, &d| {
            b.iter(|| black_box(count_sequential(g1, g2, &links, d, d)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fused, bench_rmat16, bench_degree_thresholds);
criterion_main!(benches);
