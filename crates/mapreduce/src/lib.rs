//! # snr-mapreduce
//!
//! A small, in-memory MapReduce engine used to express the User-Matching
//! algorithm of Korula & Lattanzi in the shape the paper claims for it:
//! *"the internal for loop can be implemented efficiently with 4
//! consecutive rounds of MapReduce, so the total running time would consist
//! of `O(k log D)` MapReductions."* (With mappers that score whole rows and
//! ship only their selection claims, `snr-core` actually does each internal
//! loop in **one** round: the same `O(k log D)` bound, 4× fewer rounds than
//! the paper's sketch.)
//!
//! The engine is deliberately faithful to the programming model rather than
//! to any particular distributed runtime. It runs one round shape,
//! [`Engine::run`]: mappers see a whole input *chunk* (so they can amortize
//! setup and pre-aggregate), a caller-supplied partitioner (e.g.
//! [`partition::range_partition`]) routes keys to one reduce partition per
//! worker, and the reduce side folds each partition's sorted key groups
//! into one output value — per-partition state without a global
//! materialization. This is what lets the witness rounds of `snr-core`
//! shuffle each map task's selection claims — bounded by node counts —
//! instead of one record per *witness contribution*. Above a memory budget
//! ([`Engine::with_spill_budget`]) the shuffle spills to checksummed run
//! files through a [`SpillCodec`]; output is bit-identical at every budget.
//!
//! Rounds run on a pool of OS threads (crossbeam scoped threads); the
//! [`Engine`] records per-round statistics (records mapped, key groups
//! reduced, shuffle volume in records and bytes, spill volume) so that the
//! round-complexity *and* data-movement claims can be checked empirically —
//! see the round-counting integration tests and the witness benchmarks.
//!
//! ## Example
//!
//! ```
//! use snr_mapreduce::{Engine, SpillCodec};
//!
//! /// Spill format for `(u32, u64)` groups: key, count, values.
//! struct Codec;
//!
//! impl SpillCodec<u32, u64> for Codec {
//!     fn encode_group(&self, key: &u32, values: &[u64], out: &mut Vec<u8>) {
//!         out.extend_from_slice(&key.to_le_bytes());
//!         out.extend_from_slice(&(values.len() as u32).to_le_bytes());
//!         values.iter().for_each(|v| out.extend_from_slice(&v.to_le_bytes()));
//!     }
//!
//!     fn decode_group(&self, bytes: &[u8]) -> Result<(u32, Vec<u64>), String> {
//!         let word = |at: usize| bytes.get(at..at + 4).ok_or("truncated group");
//!         let key = u32::from_le_bytes(word(0)?.try_into().unwrap());
//!         let values = bytes[8..]
//!             .chunks_exact(8)
//!             .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
//!             .collect();
//!         Ok((key, values))
//!     }
//! }
//!
//! // Sum of the values under each key `x % 3`, on 2 workers: each mapper
//! // pre-aggregates its chunk, so every shuffled record is a partial sum.
//! let engine = Engine::new(2);
//! let per_partition: Vec<Vec<(u32, u64)>> = engine
//!     .run(
//!         "sum-by-residue",
//!         (0..30u64).collect(),
//!         |chunk: &[u64]| {
//!             let mut sums = [0u64; 3];
//!             chunk.iter().for_each(|&x| sums[(x % 3) as usize] += x);
//!             (0..3u32).map(|k| (k, sums[k as usize])).collect()
//!         },
//!         |k: &u32| *k as usize % 2,
//!         |_, _| 12,
//!         |_, groups: Vec<(u32, Vec<u64>)>| {
//!             groups.into_iter().map(|(k, partials)| (k, partials.iter().sum())).collect()
//!         },
//!         &Codec,
//!     )
//!     .expect("a round without a spill budget never fails");
//! assert_eq!(per_partition, vec![vec![(0, 135), (2, 155)], vec![(1, 145)]]);
//! assert_eq!(engine.stats().rounds, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod partition;
pub mod spill;
pub mod stats;

pub use engine::Engine;
pub use spill::{EngineError, SpillCodec};
pub use stats::{EngineStats, RoundStats};
