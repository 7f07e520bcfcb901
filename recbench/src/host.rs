//! Host-speed correction of the end-to-end wall times.
//!
//! On a shared 2-vCPU VM the host's speed changed by about 2x for tens of
//! minutes at a time (every executor and a plain CPU loop slowed alike), so
//! raw medians from runs made at different times could not be compared
//! within any useful bound. A fixed reference kernel, the benchmark's own
//! code, is therefore timed before every set-up repetition and executor
//! run, and a run's median wall times are reported as
//! `wall × REFERENCE_S / reference`, with `reference` the run's median
//! kernel time: seconds at a host speed where the kernel takes
//! `REFERENCE_S`. The kernel is independent of the program, so a change to
//! the program moves the corrected time exactly as it moves the wall time.

use crate::report::median;
use std::hint::black_box;
use std::time::Instant;

/// Reference kernel time the corrected times are scaled to (seconds).
pub const REFERENCE_S: f64 = 0.01;

/// Table size of the kernel: the copy-2 arena size of `rmat17-table2`.
const SLOTS: usize = 1 << 17;

/// Increments the kernel performs.
const BUMPS: u32 = 6_000_000;

/// Times the reference kernel: generation-stamped random increments into a
/// `SLOTS`-entry table, the access pattern of the scoring arena's row bump.
pub fn reference_s() -> f64 {
    let mut scores = vec![0u32; SLOTS];
    let mut stamp = vec![0u32; SLOTS];
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..BUMPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let v = (x as usize) & (SLOTS - 1);
        let epoch = i >> 8;
        if stamp[v] == epoch {
            scores[v] += 1;
        } else {
            stamp[v] = epoch;
            scores[v] = 1;
        }
    }
    black_box((&scores, &stamp));
    start.elapsed().as_secs_f64()
}

/// Reference kernel timings taken through one run. Their median is the
/// run's host speed, so a few slow or fast samples barely move it, while a
/// change of speed between runs is taken out of their corrected times.
#[derive(Default)]
pub struct HostSpeed {
    samples: Vec<f64>,
}

impl HostSpeed {
    /// Times the reference kernel once more.
    pub fn sample(&mut self) {
        self.samples.push(reference_s());
    }

    /// Number of kernel timings taken.
    pub fn samples(&self) -> usize {
        self.samples.len()
    }

    /// The median reference kernel time of this run (seconds).
    pub fn reference(&self) -> Option<f64> {
        median(&self.samples)
    }

    /// `wall` in seconds at the host speed where the kernel takes
    /// `REFERENCE_S`.
    pub fn correct(&self, wall: Option<f64>) -> Option<f64> {
        Some(wall? * REFERENCE_S / self.reference()?)
    }
}
