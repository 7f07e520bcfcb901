//! The MapReduce execution engine.

use crate::spill::{self, EngineError, MergeSource, RunReader, SpillCodec};
use crate::stats::{EngineStats, RoundStats};
use parking_lot::Mutex;
use snr_faults::{FaultRegistry, FaultSite};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Default number of input records per map task.
const DEFAULT_CHUNK: usize = 8_192;

/// Upper bound on map tasks per worker when no chunk size is configured.
///
/// Chunked mappers typically pay a per-task setup cost (the witness rounds
/// build a task-local `LinkCache`), so chunks are sized to keep the task
/// count at a small multiple of the worker count instead of letting a
/// large input explode into thousands of setup-heavy tasks.
const TASKS_PER_WORKER: usize = 4;

/// An in-memory MapReduce engine.
///
/// One engine instance corresponds to one "cluster": it owns a worker count
/// (which is also the number of shuffle partitions) and cumulative
/// [`EngineStats`] across every round it runs. A round is
/// [`Engine::run`]: chunked mappers, a caller-chosen partitioner, a
/// per-partition reduce fold, and a shuffle that spills to disk above the
/// engine's memory budget.
#[derive(Debug)]
pub struct Engine {
    workers: usize,
    /// Records per map task set by [`Engine::with_chunk_size`]; `None`
    /// sizes chunks from the input length (see [`TASKS_PER_WORKER`]).
    chunk_size: Option<usize>,
    /// Memory budget for a round's resident shuffle bytes; `None` means
    /// unlimited (never spill).
    spill_budget: Option<u64>,
    /// Scratch directory for spill runs; `None` uses a per-process
    /// directory under the system temp dir.
    scratch_dir: Option<PathBuf>,
    /// 1-based round sequence, claimed at round start — the `R` that
    /// `spill_io@roundR` / `spill_corrupt@roundR` fault selectors match.
    round_seq: AtomicU64,
    /// Fault registry consulted by the spill writer/reader (from
    /// `SNR_FAULT` by default). Behind a mutex because registries latch
    /// fire-once state through a `Cell`.
    faults: Mutex<FaultRegistry>,
    stats: Mutex<EngineStats>,
}

impl Engine {
    /// Creates an engine with `workers` map/reduce threads and the same
    /// number of shuffle partitions, no spill budget, and the fault
    /// registry from [`FaultRegistry::from_env`].
    pub fn new(workers: usize) -> Self {
        Engine {
            workers: workers.max(1),
            chunk_size: None,
            spill_budget: None,
            scratch_dir: None,
            round_seq: AtomicU64::new(0),
            faults: Mutex::new(FaultRegistry::from_env()),
            stats: Mutex::new(EngineStats::default()),
        }
    }

    /// Overrides the number of input records per map task. The given size
    /// is honored exactly (tests use tiny chunks to get multi-task rounds
    /// from small inputs); without this call, a round sizes its chunks to
    /// amortize per-task setup.
    pub fn with_chunk_size(mut self, chunk: usize) -> Self {
        self.chunk_size = Some(chunk.max(1));
        self
    }

    /// Sets the spill memory budget in bytes: when a round's resident
    /// shuffle bytes would cross it, map tasks flush their buckets to disk
    /// runs. `Some(0)` spills every non-empty task; `None` (the default)
    /// never spills. Output is bit-identical at every budget; only
    /// residency changes.
    pub fn with_spill_budget(mut self, budget: Option<u64>) -> Self {
        self.spill_budget = budget;
        self
    }

    /// Overrides the scratch directory spill runs are written under (a
    /// `round-<N>` subdirectory per round, removed when the round ends —
    /// successfully or not).
    pub fn with_scratch_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.scratch_dir = Some(dir.into());
        self
    }

    /// Replaces the fault registry consulted by the spill machinery (tests
    /// inject `spill_io` / `spill_corrupt` without touching the
    /// environment).
    pub fn with_fault_registry(mut self, faults: FaultRegistry) -> Self {
        self.faults = Mutex::new(faults);
        self
    }

    /// Number of worker threads used for map and reduce tasks, and the
    /// number of shuffle partitions (reduce tasks) per round.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// A snapshot of the cumulative statistics.
    pub fn stats(&self) -> EngineStats {
        self.stats.lock().clone()
    }

    /// Runs one MapReduce round: chunked mappers, a caller-chosen
    /// partitioner, and a per-partition reduce fold, with an out-of-core
    /// shuffle.
    ///
    /// * `map` sees a whole *chunk* of input records at a time, so it can
    ///   amortize per-task setup (decode caches, scratch arenas) and emit
    ///   already-aggregated pairs instead of one record per contribution.
    ///   Every emitted pair is shuffled.
    /// * `part_of` routes a key to a reduce partition (`0..workers`):
    ///   range-partitioning dense keys keeps each partition a contiguous,
    ///   sorted key interval.
    /// * `bytes_of` reports the payload size of one shuffled record, so
    ///   [`RoundStats::shuffled_bytes`] stays honest for variable-length
    ///   values (a packed score *row* is `4 + 8·entries` bytes, which
    ///   `size_of` cannot see through a `Vec` header). The spill budget is
    ///   charged in these bytes.
    /// * `reduce` is called once per partition with *all* of that
    ///   partition's key groups in ascending key order — values within a
    ///   key in map-task order — and folds them into a single output value,
    ///   so per-partition state (a selection sink, an accumulator) lives
    ///   across keys without a global materialization.
    /// * `codec` serializes key groups for spill runs: when the round's
    ///   resident shuffle bytes would cross the engine's spill budget
    ///   ([`Engine::with_spill_budget`]), map tasks flush their sorted
    ///   per-partition buckets to checksummed run files and the reduce side
    ///   k-way-merges the on-disk runs with the in-memory tail.
    ///
    /// Returns one output per partition, in partition order. Output is
    /// deterministic and **bit-identical** at every budget — only where the
    /// shuffle resides changes. Without a budget the round never touches
    /// disk and never returns `Err`. Spill I/O failures and run-file
    /// corruption (including the injected `spill_io` / `spill_corrupt`
    /// fault sites) surface as a clean [`EngineError::Spill`] with the
    /// round's scratch directory removed and the round excluded from
    /// [`Engine::stats`].
    #[allow(clippy::too_many_arguments)]
    pub fn run<I, K, V, O, M, P, B, R, SC>(
        &self,
        label: &str,
        input: Vec<I>,
        map: M,
        part_of: P,
        bytes_of: B,
        reduce: R,
        codec: &SC,
    ) -> Result<Vec<O>, EngineError>
    where
        I: Send,
        K: Ord + Send,
        V: Send,
        O: Send,
        M: Fn(&[I]) -> Vec<(K, V)> + Sync,
        P: Fn(&K) -> usize + Sync,
        B: Fn(&K, &V) -> usize + Sync,
        R: Fn(usize, Vec<(K, Vec<V>)>) -> O + Sync,
        SC: SpillCodec<K, V> + Sync,
    {
        let start = Instant::now();
        let _span = snr_telemetry::span!("round", label = label);
        // Claim this round's 1-based sequence number up front: it names the
        // scratch subdirectory and is the `R` that `spill_io@roundR` /
        // `spill_corrupt@roundR` fault selectors match.
        let round_no = self.round_seq.fetch_add(1, Ordering::Relaxed) as u32 + 1;
        let spill = self.spill_budget.map(|budget| SpillState {
            codec,
            budget,
            round: round_no,
            round_dir: self.scratch_base().join(format!("round-{round_no}")),
            in_mem: AtomicU64::new(0),
            spilled_bytes: AtomicU64::new(0),
            spilled_runs: AtomicU64::new(0),
            merge_micros: AtomicU64::new(0),
        });
        let result = self.run_round(input, &map, &part_of, &bytes_of, &reduce, spill.as_ref());
        // The run files were fully consumed (or the round failed): remove
        // the round's scratch subdirectory on every exit path, and prune the
        // base scratch dir too once no other round is using it
        // (`remove_dir` is non-recursive, so it only succeeds when empty).
        if let Some(sp) = &spill {
            let _ = std::fs::remove_dir_all(&sp.round_dir);
            if let Some(base) = sp.round_dir.parent() {
                let _ = std::fs::remove_dir(base);
            }
        }
        let (output, round) = result?;
        self.record_round(label, round, output.len(), start);
        Ok(output)
    }

    /// The fallible body of [`Engine::run`]: chunked map → per-bucket group
    /// → budget check (+ spill to disk runs) → shuffle → per-partition
    /// sorted group / k-way run merge → partition fold. Returns one fold
    /// output per partition plus the round's counters. Infallible unless a
    /// spill budget is present; scratch cleanup stays with the caller so it
    /// runs on error paths too.
    #[allow(clippy::type_complexity)]
    fn run_round<I, K, V, O, MF, PF, BF, RF, SC>(
        &self,
        input: Vec<I>,
        map: &MF,
        part_of: &PF,
        bytes_of: &BF,
        reduce_fold: &RF,
        spill: Option<&SpillState<'_, SC>>,
    ) -> Result<(Vec<O>, RoundCounters), EngineError>
    where
        I: Send,
        K: Ord + Send,
        V: Send,
        O: Send,
        MF: Fn(&[I]) -> Vec<(K, V)> + Sync,
        PF: Fn(&K) -> usize + Sync,
        BF: Fn(&K, &V) -> usize + Sync,
        RF: Fn(usize, Vec<(K, Vec<V>)>) -> O + Sync,
        SC: SpillCodec<K, V> + Sync,
    {
        let input_records = input.len();
        let parts = self.workers;

        // ---- Map phase -----------------------------------------------------
        // Split the input into chunks and map them on the worker pool. Each
        // worker emits `parts` buckets of key groups, already sorted by key,
        // so the reduce-side sort sees nearly-sorted runs.
        // Absent a configured chunk size, chunks hold enough records to cap
        // the task count at TASKS_PER_WORKER per worker, never fewer than
        // DEFAULT_CHUNK.
        let chunk_size = self.chunk_size.unwrap_or_else(|| {
            DEFAULT_CHUNK.max(input_records.div_ceil(self.workers * TASKS_PER_WORKER))
        });
        let chunks: Vec<(usize, Vec<I>)> =
            split_into_chunks(input, chunk_size).into_iter().enumerate().collect();
        let map_tasks = chunks.len();
        // Each map task tallies its own shuffle volume (records and bytes)
        // while the data is still hot in its worker, so the single-threaded
        // transpose below only sums per-task scalars. When a spill budget
        // is active the task then tries to *reserve* its bytes against the
        // shared budget; if the reservation would cross it, the task
        // flushes its buckets to disk runs instead and keeps only empty
        // placeholders in memory. Which tasks spill can vary run to run
        // under parallelism (reservation order races), but the merged
        // output is bit-identical regardless.
        type MapOut<K, V> = (TaskTally, Vec<Vec<(K, Vec<V>)>>, Vec<Option<PathBuf>>);
        let map_task = |(task, chunk): (usize, Vec<I>)| -> Result<MapOut<K, V>, EngineError> {
            let pairs = map(&chunk);
            drop(chunk);
            let mut tally = TaskTally { records: pairs.len(), bytes: 0 };
            let mut flat: Vec<Vec<(K, V)>> = (0..parts).map(|_| Vec::new()).collect();
            for (k, v) in pairs {
                tally.bytes += bytes_of(&k, &v);
                let p = part_of(&k);
                assert!(p < parts, "partitioner returned {p} for {parts} partitions");
                flat[p].push((k, v));
            }
            let mut buckets: Vec<Vec<(K, Vec<V>)>> = flat.into_iter().map(group_sorted).collect();
            let mut run_paths: Vec<Option<PathBuf>> = vec![None; parts];
            if let Some(sp) = spill {
                let bytes = tally.bytes as u64;
                let resident = sp.in_mem.fetch_add(bytes, Ordering::Relaxed);
                if resident + bytes > sp.budget {
                    // Over budget: undo the reservation and spill this
                    // task's non-empty buckets to one run file each.
                    sp.in_mem.fetch_sub(bytes, Ordering::Relaxed);
                    std::fs::create_dir_all(&sp.round_dir).map_err(|e| {
                        EngineError::Spill(format!(
                            "creating scratch dir {}: {e}",
                            sp.round_dir.display()
                        ))
                    })?;
                    for (p, bucket) in buckets.iter_mut().enumerate() {
                        if bucket.is_empty() {
                            continue;
                        }
                        let path = sp.round_dir.join(format!("run-t{task}-p{p}.snrr"));
                        let file_bytes = spill::write_run(
                            &path,
                            sp.round,
                            task as u32,
                            p as u32,
                            bucket,
                            sp.codec,
                            &self.faults,
                        )?;
                        snr_telemetry::event!(
                            "spill",
                            round = sp.round,
                            task = task,
                            partition = p,
                            groups = bucket.len(),
                            bytes = file_bytes,
                        );
                        sp.spilled_runs.fetch_add(1, Ordering::Relaxed);
                        *bucket = Vec::new();
                        run_paths[p] = Some(path);
                    }
                    sp.spilled_bytes.fetch_add(bytes, Ordering::Relaxed);
                }
            }
            Ok((tally, buckets, run_paths))
        };
        let mapped: Vec<Result<MapOut<K, V>, EngineError>> = if self.workers == 1 || map_tasks <= 1
        {
            chunks.into_iter().map(map_task).collect()
        } else {
            parallel_map(self.workers, chunks, map_task)
        };

        // ---- Shuffle -------------------------------------------------------
        // Transpose the per-task buckets into per-partition columns (cheap:
        // only `Vec` headers move, plus a scalar sum per task). Record
        // movement happens inside the per-partition reduce workers.
        let mut shuffled_records = 0usize;
        let mut shuffled_bytes = 0usize;
        let mut columns: Vec<Vec<Vec<(K, Vec<V>)>>> =
            (0..parts).map(|_| Vec::with_capacity(map_tasks)).collect();
        let mut run_columns: Vec<Vec<Option<PathBuf>>> =
            (0..parts).map(|_| Vec::with_capacity(map_tasks)).collect();
        for task_result in mapped {
            let (tally, mut worker_buckets, mut worker_runs) = task_result?;
            shuffled_records += tally.records;
            shuffled_bytes += tally.bytes;
            for p in (0..parts).rev() {
                let bucket = worker_buckets.pop().expect("bucket count mismatch");
                columns[p].push(bucket);
                let run = worker_runs.pop().expect("run column count mismatch");
                run_columns[p].push(run);
            }
        }

        // The spill_corrupt fault site sits between map and reduce: flip
        // one byte of the first run file so the reduce-side checksum pass
        // must catch it (clean error, never wrong output).
        if let Some(sp) = spill {
            if sp.spilled_runs.load(Ordering::Relaxed) > 0 {
                let (hit, seed) = {
                    let reg = self.faults.lock();
                    (reg.fire(FaultSite::SpillCorrupt, None, Some(sp.round)).is_some(), reg.seed())
                };
                if hit {
                    spill::corrupt_first_run(&sp.round_dir, seed);
                }
            }
        }

        // ---- Reduce --------------------------------------------------------
        type ReduceIn<K, V> = (usize, Vec<Vec<(K, Vec<V>)>>, Vec<Option<PathBuf>>);
        let tasks: Vec<ReduceIn<K, V>> = columns
            .into_iter()
            .zip(run_columns)
            .enumerate()
            .map(|(p, (col, runs))| (p, col, runs))
            .collect();
        let reduce_task = |(p, col, runs): ReduceIn<K, V>| -> Result<(usize, O), EngineError> {
            let groups = if runs.iter().any(Option::is_some) {
                // Some of this partition's buckets live on disk: k-way-merge
                // the runs with the in-memory tail, in map-task order.
                let sp = spill.expect("run files only exist when spilling");
                let merge_start = Instant::now();
                let _span = snr_telemetry::span!("spill_merge", partition = p);
                let mut sources: Vec<MergeSource<'_, K, V, SC>> = Vec::with_capacity(col.len());
                for (bucket, run) in col.into_iter().zip(runs) {
                    match run {
                        Some(path) => {
                            sources.push(MergeSource::Disk(RunReader::open(&path, sp.codec)?))
                        }
                        None => sources.push(MergeSource::Mem(bucket.into_iter())),
                    }
                }
                let merged = spill::merge_spill_sources(sources)?;
                sp.merge_micros
                    .fetch_add(merge_start.elapsed().as_micros() as u64, Ordering::Relaxed);
                merged
            } else {
                merge_sorted_buckets(col)
            };
            Ok((groups.len(), reduce_fold(p, groups)))
        };
        let reduced: Vec<Result<(usize, O), EngineError>> = if self.workers == 1 || parts <= 1 {
            tasks.into_iter().map(reduce_task).collect()
        } else {
            parallel_map(self.workers, tasks, reduce_task)
        };
        let mut key_groups = 0usize;
        let mut output: Vec<O> = Vec::with_capacity(parts);
        for r in reduced {
            let (groups, o) = r?;
            key_groups += groups;
            output.push(o);
        }

        let (spilled_bytes, spilled_runs, spill_merge_micros) = match spill {
            Some(sp) => (
                sp.spilled_bytes.load(Ordering::Relaxed) as usize,
                sp.spilled_runs.load(Ordering::Relaxed) as usize,
                sp.merge_micros.load(Ordering::Relaxed),
            ),
            None => (0, 0, 0),
        };
        let counters = RoundCounters {
            input_records,
            shuffled_records,
            shuffled_bytes,
            key_groups,
            map_tasks,
            spilled_bytes,
            spilled_runs,
            spill_merge_micros,
        };
        Ok((output, counters))
    }

    /// The engine's spill scratch base directory; each round uses a
    /// `round-<N>` subdirectory beneath it.
    fn scratch_base(&self) -> PathBuf {
        self.scratch_dir.clone().unwrap_or_else(|| {
            std::env::temp_dir().join(format!("snr-mr-spill-{}", std::process::id()))
        })
    }

    fn record_round(&self, label: &str, c: RoundCounters, output_records: usize, start: Instant) {
        let duration = start.elapsed();
        snr_telemetry::Counter::EngineRounds.add(1);
        snr_telemetry::Counter::ShuffleRecords.add(c.shuffled_records as u64);
        snr_telemetry::Counter::ShuffleBytes.add(c.shuffled_bytes as u64);
        snr_telemetry::Counter::SpilledBytes.add(c.spilled_bytes as u64);
        snr_telemetry::Counter::SpilledRuns.add(c.spilled_runs as u64);
        snr_telemetry::Histogram::RoundMicros.record(duration.as_micros() as u64);
        snr_telemetry::event!(
            "engine_round",
            label = label,
            shuffled_records = c.shuffled_records,
            shuffled_bytes = c.shuffled_bytes,
            reduce_tasks = self.workers,
            spilled_runs = c.spilled_runs,
        );
        self.stats.lock().record(RoundStats {
            label: label.to_string(),
            input_records: c.input_records,
            // Every mapped pair is shuffled: the engine has no combine stage.
            map_output_records: c.shuffled_records,
            shuffled_records: c.shuffled_records,
            shuffled_bytes: c.shuffled_bytes,
            key_groups: c.key_groups,
            output_records,
            map_tasks: c.map_tasks,
            reduce_tasks: self.workers,
            spilled_bytes: c.spilled_bytes,
            spilled_runs: c.spilled_runs,
            spill_merge_micros: c.spill_merge_micros,
            duration,
        });
    }
}

/// Per-round spill bookkeeping shared by the map and reduce workers.
struct SpillState<'a, SC> {
    codec: &'a SC,
    /// Resident shuffle bytes allowed before tasks start spilling.
    budget: u64,
    /// 1-based engine round number (fault selectors, run-file headers).
    round: u32,
    /// This round's scratch subdirectory (created lazily on first spill,
    /// removed on every exit path).
    round_dir: PathBuf,
    /// Shuffle bytes currently reserved as in-memory.
    in_mem: AtomicU64,
    /// Shuffle bytes flushed to disk runs.
    spilled_bytes: AtomicU64,
    /// Run files written.
    spilled_runs: AtomicU64,
    /// Microseconds reduce tasks spent k-way-merging runs.
    merge_micros: AtomicU64,
}

/// Per-map-task shuffle tally, computed inside the task's worker.
struct TaskTally {
    records: usize,
    bytes: usize,
}

/// Per-round counters accumulated by [`Engine::run_round`]; [`Engine::run`]
/// fills in the label, output count, and duration.
struct RoundCounters {
    input_records: usize,
    shuffled_records: usize,
    shuffled_bytes: usize,
    key_groups: usize,
    map_tasks: usize,
    spilled_bytes: usize,
    spilled_runs: usize,
    spill_merge_micros: u64,
}

/// Groups one bucket of `(key, value)` pairs into `(key, values)` runs in
/// ascending key order. The sort is stable, so values keep their emission
/// order within each key.
fn group_sorted<K: Ord, V>(mut bucket: Vec<(K, V)>) -> Vec<(K, Vec<V>)> {
    bucket.sort_by(|a, b| a.0.cmp(&b.0));
    let mut groups: Vec<(K, Vec<V>)> = Vec::new();
    for (k, v) in bucket {
        match groups.last_mut() {
            Some((lk, lvs)) if *lk == k => lvs.push(v),
            _ => groups.push((k, vec![v])),
        }
    }
    groups
}

/// Merges one partition's grouped buckets — one sorted bucket per map task —
/// into a single ascending key-group list. Buckets arrive in task order and
/// the merge sort is stable, so a key's values concatenate in task order,
/// exactly as the spill merge reproduces them.
fn merge_sorted_buckets<K: Ord, V>(buckets: Vec<Vec<(K, Vec<V>)>>) -> Vec<(K, Vec<V>)> {
    let total: usize = buckets.iter().map(Vec::len).sum();
    let mut entries: Vec<(K, Vec<V>)> = Vec::with_capacity(total);
    for bucket in buckets {
        entries.extend(bucket);
    }
    // Nearly-sorted input (each bucket is sorted): the stable merge sort
    // detects the runs, so this is close to a single merge pass.
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    let mut groups: Vec<(K, Vec<V>)> = Vec::with_capacity(entries.len());
    for (k, mut vs) in entries {
        match groups.last_mut() {
            Some((lk, lvs)) if *lk == k => lvs.append(&mut vs),
            _ => groups.push((k, vs)),
        }
    }
    groups
}

/// Splits `input` into chunks of at most `chunk_size` records.
fn split_into_chunks<I>(input: Vec<I>, chunk_size: usize) -> Vec<Vec<I>> {
    if input.is_empty() {
        return Vec::new();
    }
    let mut chunks = Vec::with_capacity(input.len() / chunk_size + 1);
    let mut current = Vec::with_capacity(chunk_size.min(input.len()));
    for record in input {
        current.push(record);
        if current.len() == chunk_size {
            chunks.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        chunks.push(current);
    }
    chunks
}

/// Applies `f` to every task on a pool of `workers` crossbeam scoped threads,
/// preserving task order in the result.
fn parallel_map<T, U, F>(workers: usize, tasks: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let task_count = tasks.len();
    let mut slots: Vec<Option<U>> = Vec::with_capacity(task_count);
    slots.resize_with(task_count, || None);
    let slots = Mutex::new(slots);
    let queue = Mutex::new(tasks.into_iter().enumerate().collect::<Vec<_>>());

    crossbeam::scope(|scope| {
        for _ in 0..workers.min(task_count).max(1) {
            scope.spawn(|_| loop {
                let next = queue.lock().pop();
                match next {
                    Some((idx, task)) => {
                        let result = f(task);
                        slots.lock()[idx] = Some(result);
                    }
                    None => break,
                }
            });
        }
    })
    .expect("mapreduce worker thread panicked");

    slots.into_inner().into_iter().map(|slot| slot.expect("task slot not filled")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::range_partition;

    /// Codec for the `(u32, u64)` test rounds: key, value count, values.
    struct TestCodec;

    impl SpillCodec<u32, u64> for TestCodec {
        fn encode_group(&self, key: &u32, values: &[u64], out: &mut Vec<u8>) {
            out.extend_from_slice(&key.to_le_bytes());
            out.extend_from_slice(&(values.len() as u32).to_le_bytes());
            for v in values {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }

        fn decode_group(&self, bytes: &[u8]) -> Result<(u32, Vec<u64>), String> {
            if bytes.len() < 8 {
                return Err("group too short".into());
            }
            let key = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
            let count = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize;
            if bytes.len() != 8 + 8 * count {
                return Err("group length mismatch".into());
            }
            Ok((
                key,
                bytes[8..]
                    .chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                    .collect(),
            ))
        }
    }

    /// Per-partition key groups, as [`group_round`] returns them.
    type Grouped = Vec<Vec<(u32, Vec<u64>)>>;

    /// One round over `(key, value)` records: keys route by `k % workers`,
    /// each record counts 12 shuffle bytes, and every partition returns its
    /// key groups unchanged.
    fn group_round(
        engine: &Engine,
        label: &str,
        input: Vec<(u32, u64)>,
    ) -> Result<Grouped, EngineError> {
        let parts = engine.workers();
        engine.run(
            label,
            input,
            |chunk: &[(u32, u64)]| chunk.to_vec(),
            move |k: &u32| *k as usize % parts,
            |_: &u32, _: &u64| 12,
            |_, groups: Vec<(u32, Vec<u64>)>| groups,
            &TestCodec,
        )
    }

    /// Flattens per-partition groups and sorts them by key.
    fn by_key(out: Grouped) -> Vec<(u32, Vec<u64>)> {
        let mut flat: Vec<(u32, Vec<u64>)> = out.into_iter().flatten().collect();
        flat.sort_by_key(|&(k, _)| k);
        flat
    }

    #[test]
    fn output_is_deterministic_across_runs_and_worker_counts() {
        let input: Vec<(u32, u64)> = (0..200u64).map(|x| ((x % 17) as u32, x)).collect();
        let run = |workers: usize| {
            group_round(&Engine::new(workers).with_chunk_size(7), "det", input.clone()).unwrap()
        };
        let reference = run(1);
        for workers in [1usize, 2, 4] {
            assert_eq!(run(workers), run(workers), "workers={workers}: repeat runs differ");
            assert_eq!(by_key(run(workers)), by_key(reference.clone()), "workers={workers}");
        }
    }

    #[test]
    fn accounting_is_pinned_on_a_known_workload() {
        // 12 records, chunks of 4 → 3 map tasks of exactly 4 records each.
        // Keys are `i % 3`; 2 workers route them by `k % 2`, so partition 0
        // owns keys {0, 2} and partition 1 owns key {1}.
        let engine = Engine::new(2).with_chunk_size(4);
        let input: Vec<(u32, u64)> = (0..12u64).map(|x| ((x % 3) as u32, x)).collect();
        let out = group_round(&engine, "pinned", input).unwrap();
        assert_eq!(
            out,
            vec![vec![(0, vec![0, 3, 6, 9]), (2, vec![2, 5, 8, 11])], vec![(1, vec![1, 4, 7, 10])],],
            "partition order, then key order, values in task order"
        );
        let stats = engine.stats();
        let round = &stats.per_round[0];
        assert_eq!(round.input_records, 12);
        assert_eq!(round.map_tasks, 3);
        assert_eq!(round.reduce_tasks, 2);
        assert_eq!(round.map_output_records, 12, "mappers emitted one pair per record");
        assert_eq!(round.shuffled_records, 12, "every mapped pair is shuffled");
        assert_eq!(round.shuffled_bytes, 12 * 12, "u32 key + u64 value");
        assert_eq!(round.key_groups, 3);
        assert_eq!(round.output_records, 2, "one fold output per partition");
        assert_eq!(stats.total_shuffled_records, 12);
        assert_eq!(stats.total_shuffled_bytes, 144);
        let summary = stats.stats_summary();
        assert!(summary.contains("1 round"), "{summary}");
        assert!(summary.contains("12 shuffled"), "{summary}");
    }

    #[test]
    fn default_chunking_caps_the_task_count_per_worker() {
        let engine = Engine::new(2);
        let input: Vec<(u32, u64)> = (0..100_000u64).map(|x| ((x % 5) as u32, x)).collect();
        group_round(&engine, "default-chunks", input).unwrap();
        assert_eq!(engine.stats().per_round[0].map_tasks, 2 * TASKS_PER_WORKER);
        let engine = Engine::new(2);
        group_round(&engine, "small", vec![(0, 0); 10]).unwrap();
        assert_eq!(engine.stats().per_round[0].map_tasks, 1, "small inputs are one chunk");
    }

    #[test]
    fn range_partitioned_output_is_globally_key_sorted() {
        let engine = Engine::new(4).with_chunk_size(5);
        let input: Vec<u32> = (0..100).rev().collect();
        let per_part: Vec<Vec<u32>> = engine
            .run(
                "range",
                input,
                |chunk: &[u32]| chunk.iter().map(|&x| (x, x as u64)).collect(),
                |k: &u32| range_partition(*k, 100, 4),
                |_: &u32, _: &u64| 12,
                |_, groups| groups.into_iter().map(|(k, _)| k).collect::<Vec<u32>>(),
                &TestCodec,
            )
            .unwrap();
        assert_eq!(per_part.len(), 4);
        let flat: Vec<u32> = per_part.into_iter().flatten().collect();
        assert_eq!(flat, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn empty_round_still_folds_every_partition_and_counts_a_round() {
        let engine = Engine::new(3);
        let out: Vec<usize> = engine
            .run(
                "empty",
                Vec::<u32>::new(),
                |chunk: &[u32]| chunk.iter().map(|&x| (x, x as u64)).collect(),
                |_: &u32| 0,
                |_: &u32, _: &u64| 12,
                |p, groups| {
                    assert!(groups.is_empty());
                    p
                },
                &TestCodec,
            )
            .unwrap();
        assert_eq!(out, vec![0, 1, 2], "one fold output per partition, in order");
        let stats = engine.stats();
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.total_input_records, 0);
        assert_eq!(stats.total_shuffled_records, 0);
        assert_eq!(stats.per_round[0].map_tasks, 0);
    }

    #[test]
    fn chained_rounds_accumulate_round_count() {
        let engine = Engine::new(2);
        let first = group_round(&engine, "r1", vec![(1, 1), (2, 2), (3, 3)]).unwrap();
        let sums: Vec<(u32, u64)> =
            by_key(first).into_iter().map(|(k, vs)| (k % 2, vs.iter().sum())).collect();
        let second = group_round(&engine, "r2", sums).unwrap();
        assert_eq!(by_key(second), vec![(0, vec![2]), (1, vec![1, 3])]);
        let stats = engine.stats();
        assert_eq!(stats.rounds, 2);
        assert_eq!(stats.per_round[1].label, "r2");
    }

    #[test]
    fn reduce_sees_all_values_for_a_key_exactly_once() {
        let engine = Engine::new(5).with_chunk_size(3);
        let input: Vec<(u32, u64)> = (0..1000u64).map(|x| ((x % 10) as u32, x)).collect();
        let out = by_key(group_round(&engine, "sum", input).unwrap());
        assert_eq!(out.len(), 10);
        for (k, vs) in out {
            // Values k, k+10, ..., k+990, each exactly once.
            let expected: Vec<u64> = (0..100).map(|i| k as u64 + 10 * i).collect();
            assert_eq!(vs, expected, "wrong values for key {k}");
        }
        let stats = engine.stats();
        assert_eq!(stats.per_round[0].reduce_tasks, 5);
        assert_eq!(stats.per_round[0].map_tasks, 334);
    }

    #[test]
    fn reduce_values_preserve_task_order_within_a_key() {
        // Values for one key must arrive in map-task order with each task's
        // emission order preserved — the contract the stable sort-based
        // shuffle and the spill merge both keep.
        let engine = Engine::new(3).with_chunk_size(2);
        let input: Vec<(u32, u64)> = (0..20u64).map(|x| (0, x)).collect();
        let out = group_round(&engine, "order", input).unwrap();
        assert_eq!(out, vec![vec![(0, (0..20).collect::<Vec<u64>>())], vec![], vec![]]);
    }

    #[test]
    fn split_into_chunks_covers_all_records() {
        let chunks = split_into_chunks((0..10).collect::<Vec<_>>(), 3);
        assert_eq!(chunks.len(), 4);
        assert_eq!(chunks.iter().map(|c| c.len()).sum::<usize>(), 10);
        assert_eq!(chunks[3], vec![9]);
        assert!(split_into_chunks(Vec::<u32>::new(), 3).is_empty());
    }

    fn spill_scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("snr-engine-spill-{}-{name}", std::process::id()))
    }

    /// Runs the reference workload (values `0..200` keyed by `x % 7`) on
    /// `engine` and returns per-partition output plus the recorded round
    /// stats.
    fn spill_workload(engine: &Engine) -> Result<(Grouped, RoundStats), EngineError> {
        let input: Vec<(u32, u64)> = (0..200u64).map(|x| ((x % 7) as u32, x)).collect();
        let out = group_round(engine, "spill-workload", input)?;
        let stats = engine.stats();
        Ok((out, stats.per_round.last().expect("round recorded").clone()))
    }

    #[test]
    fn spill_output_and_stats_are_bit_identical_across_budgets() {
        let scratch = spill_scratch("budgets");
        let make = |budget: Option<u64>| {
            Engine::new(3).with_chunk_size(16).with_spill_budget(budget).with_scratch_dir(&scratch)
        };
        // Reference: unlimited budget — never touches disk.
        let engine = make(None);
        let (reference, ref_round) = spill_workload(&engine).unwrap();
        assert_eq!(ref_round.spilled_runs, 0);
        assert_eq!(ref_round.spilled_bytes, 0);
        assert_eq!(ref_round.spill_merge_micros, 0);
        let total = ref_round.shuffled_bytes as u64;
        assert!(total > 0);

        // Budget exactly at the threshold: resident bytes never *cross* it.
        let engine = make(Some(total));
        let (out, round) = spill_workload(&engine).unwrap();
        assert_eq!(out, reference);
        assert_eq!(round.spilled_runs, 0, "at-threshold budget must not spill");

        // Tiny budget: smaller than any single map task's output, so every
        // task spills — same end state as budget 0.
        let engine = make(Some(16));
        let (out, round) = spill_workload(&engine).unwrap();
        assert_eq!(out, reference);
        assert_eq!(round.spilled_bytes, round.shuffled_bytes, "tiny budget spills every task");

        // Half the total: the first reservations stay resident, later ones
        // spill (which tasks is a race; that some but not all do is not).
        let engine = make(Some(total / 2));
        let (out, round) = spill_workload(&engine).unwrap();
        assert_eq!(out, reference);
        assert!(round.spilled_runs > 0, "half budget must spill");
        assert!(
            round.spilled_bytes > 0 && round.spilled_bytes < round.shuffled_bytes,
            "half budget spills some but not all: {} of {}",
            round.spilled_bytes,
            round.shuffled_bytes
        );

        // Budget 0: every non-empty task spills everything.
        let engine = make(Some(0));
        let (out, round) = spill_workload(&engine).unwrap();
        assert_eq!(out, reference);
        assert_eq!(round.spilled_bytes, round.shuffled_bytes, "budget 0 spills every byte");
        // 200 records / chunks of 16 = 13 map tasks, each hitting up to 3
        // partitions.
        assert!(round.spilled_runs >= 13, "every task spills at least one run");

        // The non-spill half of the stats is bit-identical throughout.
        let mut normalized = round.clone();
        normalized.spilled_bytes = 0;
        normalized.spilled_runs = 0;
        normalized.spill_merge_micros = 0;
        normalized.duration = ref_round.duration;
        assert_eq!(normalized, ref_round);

        assert!(!scratch.join("round-1").exists(), "scratch cleaned up");
        let _ = std::fs::remove_dir_all(&scratch);
    }

    #[test]
    fn parallel_spilling_engine_matches_in_memory_reference() {
        let scratch = spill_scratch("parallel");
        let (reference, _) = spill_workload(&Engine::new(4).with_chunk_size(16)).unwrap();
        let engine = Engine::new(4)
            .with_chunk_size(16)
            .with_spill_budget(Some(64))
            .with_scratch_dir(&scratch);
        let (out, round) = spill_workload(&engine).unwrap();
        assert_eq!(out, reference, "spilling must never change output");
        assert!(round.spilled_runs > 0);
        let _ = std::fs::remove_dir_all(&scratch);
    }

    #[test]
    fn unlimited_budget_never_creates_a_scratch_dir() {
        let scratch = spill_scratch("untouched");
        let engine = Engine::new(1).with_scratch_dir(&scratch);
        spill_workload(&engine).unwrap();
        assert!(!scratch.exists(), "no budget, no disk traffic");
    }

    #[test]
    fn spill_io_fault_is_a_clean_error_with_scratch_removed() {
        let scratch = spill_scratch("io-fault");
        let engine = Engine::new(1)
            .with_chunk_size(16)
            .with_spill_budget(Some(0))
            .with_scratch_dir(&scratch)
            .with_fault_registry(snr_faults::FaultRegistry::parse("spill_io@round1").unwrap());
        let err = spill_workload(&engine).expect_err("injected spill_io must fail the round");
        assert!(matches!(err, EngineError::Spill(ref why) if why.contains("spill_io")), "{err}");
        assert!(!scratch.join("round-1").exists(), "scratch removed on error");
        assert_eq!(engine.stats().rounds, 0, "failed rounds are not recorded");
        // The engine stays usable: the next round succeeds (fault fired once).
        let (out, round) = spill_workload(&engine).unwrap();
        assert!(!out.is_empty());
        assert!(round.spilled_runs > 0);
        assert!(!scratch.exists(), "scratch cleaned after the good round too");
    }

    #[test]
    fn spill_corrupt_fault_is_a_clean_error_never_wrong_output() {
        let scratch = spill_scratch("corrupt-fault");
        let engine = Engine::new(1)
            .with_chunk_size(16)
            .with_spill_budget(Some(0))
            .with_scratch_dir(&scratch)
            .with_fault_registry(snr_faults::FaultRegistry::parse("spill_corrupt@round1").unwrap());
        let err = spill_workload(&engine).expect_err("corrupted run must fail the round");
        assert!(
            matches!(err, EngineError::Spill(ref why) if why.contains("checksum") || why.contains("magic")),
            "{err}"
        );
        assert!(!scratch.exists(), "scratch removed on error");
        assert_eq!(engine.stats().rounds, 0);
        let _ = std::fs::remove_dir_all(&scratch);
    }

    proptest::proptest! {
        #[test]
        fn spilled_rounds_match_in_memory_rounds_on_random_workloads(
            values in proptest::collection::vec((0u32..9, 0u64..1000), 0..200),
            workers in 1usize..4,
            chunk in 1usize..16,
            budget in 0u64..400,
        ) {
            let reference = Engine::new(workers).with_chunk_size(chunk);
            let expected = group_round(&reference, "prop-spill", values.clone()).unwrap();
            let scratch = spill_scratch("prop");
            let spilling = Engine::new(workers)
                .with_chunk_size(chunk)
                .with_spill_budget(Some(budget))
                .with_scratch_dir(&scratch);
            let got = group_round(&spilling, "prop-spill", values).unwrap();
            proptest::prop_assert_eq!(got, expected);
        }

        #[test]
        fn mapreduce_sum_matches_direct_sum(values in proptest::collection::vec(0u64..1000, 0..300),
                                            workers in 1usize..6,
                                            chunk in 1usize..20) {
            let engine = Engine::new(workers).with_chunk_size(chunk);
            let expected: u64 = values.iter().sum();
            let out: Vec<u64> = engine
                .run(
                    "psum",
                    values,
                    |chunk: &[u64]| chunk.iter().map(|&x| (0u32, x)).collect(),
                    |_: &u32| 0,
                    |_: &u32, _: &u64| 12,
                    |_, groups: Vec<(u32, Vec<u64>)>| {
                        groups.into_iter().flat_map(|(_, vs)| vs).sum::<u64>()
                    },
                    &TestCodec,
                )
                .unwrap();
            let total: u64 = out.into_iter().sum();
            proptest::prop_assert_eq!(total, expected);
        }
    }
}
