//! Phase-boundary checkpoints: the coordinator's merged link state and
//! per-phase counters, persisted in the run's scratch directory so
//! [`crate::ShardDriver::resume`] can restart from the last complete phase.
//!
//! The on-disk format follows `snr-store`'s segment discipline: a magic
//! (`SNRC`), a format version, fixed-width little-endian fields, and a
//! trailing FNV-1a checksum over everything before it. Every structural
//! defect — bad magic, bad version, truncation, inflated counts, checksum
//! mismatch, trailing bytes — is a [`DriverError::Checkpoint`], never a
//! panic and never an oversized allocation. Writes go to a temp file that
//! is atomically renamed over the previous checkpoint, so a torn write
//! leaves the prior phase's checkpoint intact (resume just redoes one more
//! phase).

use crate::driver::DriverStore;
use crate::error::DriverError;
use snr_core::PhaseStats;
use snr_store::segment::{fnv1a_checksum, VERSION as STORE_VERSION};
use std::io::Write;
use std::path::Path;
use std::time::Duration;

/// File name of the checkpoint inside the scratch directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.snrc";

/// Checkpoint magic bytes ("SNR Checkpoint").
pub const MAGIC: [u8; 4] = *b"SNRC";

/// Checkpoint format version.
pub const VERSION: u16 = 1;

/// Everything needed to restart a run at its next phase boundary.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// How the interrupted run's workers opened the scratch segments.
    pub store: DriverStore,
    /// Copy-1 node-space size.
    pub n1: u64,
    /// Copy-2 node-space size.
    pub n2: u64,
    /// `MatchingConfig::threshold` of the interrupted run.
    pub threshold: u32,
    /// `MatchingConfig::iterations` of the interrupted run.
    pub iterations: u32,
    /// `MatchingConfig::degree_bucketing` of the interrupted run.
    pub degree_bucketing: bool,
    /// `MatchingConfig::min_bucket` of the interrupted run.
    pub min_bucket: u32,
    /// The original seed list, verbatim (collisions included), so resume
    /// reconstructs the exact `Linking` — `seed_count` and all.
    pub seeds: Vec<(u32, u32)>,
    /// Every link accumulated through the last complete phase.
    pub links: Vec<(u32, u32)>,
    /// Counters of every completed phase, in execution order. Durations
    /// persist at microsecond resolution.
    pub phases: Vec<PhaseStats>,
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_pairs(out: &mut Vec<u8>, pairs: &[(u32, u32)]) {
    put_u32(out, pairs.len() as u32);
    for &(a, b) in pairs {
        put_u32(out, a);
        put_u32(out, b);
    }
}

/// Bounds-checked decoding cursor (mirrors the protocol decoder: corruption
/// can inflate counts, so every count is validated against the remaining
/// bytes before any allocation).
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DriverError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| DriverError::Checkpoint("checkpoint truncated".into()))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, DriverError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, DriverError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, DriverError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, DriverError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    fn count(&mut self, width: usize) -> Result<usize, DriverError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(width) > self.bytes.len() - self.pos {
            return Err(DriverError::Checkpoint(format!(
                "count {n} overruns {} remaining checkpoint bytes",
                self.bytes.len() - self.pos
            )));
        }
        Ok(n)
    }

    fn pairs(&mut self) -> Result<Vec<(u32, u32)>, DriverError> {
        let n = self.count(8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push((self.u32()?, self.u32()?));
        }
        Ok(out)
    }

    fn finish(self) -> Result<(), DriverError> {
        if self.pos != self.bytes.len() {
            return Err(DriverError::Checkpoint(format!(
                "{} trailing bytes after checkpoint body",
                self.bytes.len() - self.pos
            )));
        }
        Ok(())
    }
}

impl Checkpoint {
    /// Serializes the checkpoint: body then FNV-1a checksum.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        put_u16(&mut out, VERSION);
        put_u16(&mut out, STORE_VERSION);
        let (tag, shards) = match self.store {
            DriverStore::Mmap => (1u8, 0u32),
            DriverStore::Sharded(n) => (2, n as u32),
        };
        out.push(tag);
        put_u32(&mut out, shards);
        put_u64(&mut out, self.n1);
        put_u64(&mut out, self.n2);
        put_u32(&mut out, self.threshold);
        put_u32(&mut out, self.iterations);
        out.push(self.degree_bucketing as u8);
        put_u32(&mut out, self.min_bucket);
        put_pairs(&mut out, &self.seeds);
        put_pairs(&mut out, &self.links);
        put_u32(&mut out, self.phases.len() as u32);
        for p in &self.phases {
            put_u32(&mut out, p.iteration);
            put_u32(&mut out, p.bucket);
            put_u64(&mut out, p.scored_pairs as u64);
            put_u64(&mut out, p.new_links as u64);
            put_u64(&mut out, p.total_links as u64);
            put_u64(&mut out, p.duration.as_micros() as u64);
        }
        let checksum = fnv1a_checksum(&out);
        put_u64(&mut out, checksum);
        out
    }

    /// Parses and validates a serialized checkpoint.
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, DriverError> {
        if bytes.len() < MAGIC.len() + 8 {
            return Err(DriverError::Checkpoint(format!(
                "checkpoint too short ({} bytes)",
                bytes.len()
            )));
        }
        let (body, footer) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(footer.try_into().expect("8-byte footer"));
        let computed = fnv1a_checksum(body);
        if stored != computed {
            return Err(DriverError::Checkpoint(format!(
                "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            )));
        }
        let mut c = Cursor { bytes: body, pos: 0 };
        if c.take(4)? != MAGIC {
            return Err(DriverError::Checkpoint("bad checkpoint magic".into()));
        }
        let version = c.u16()?;
        if version != VERSION {
            return Err(DriverError::Checkpoint(format!(
                "unsupported checkpoint version {version} (expected {VERSION})"
            )));
        }
        let seg_version = c.u16()?;
        if seg_version != STORE_VERSION {
            return Err(DriverError::Checkpoint(format!(
                "checkpoint references segment format v{seg_version}, this build reads v{STORE_VERSION}"
            )));
        }
        let store = match (c.u8()?, c.u32()?) {
            (1, _) => DriverStore::Mmap,
            (2, n) => DriverStore::Sharded(n as usize),
            (t, _) => return Err(DriverError::Checkpoint(format!("unknown store tag {t}"))),
        };
        let n1 = c.u64()?;
        let n2 = c.u64()?;
        let threshold = c.u32()?;
        let iterations = c.u32()?;
        let degree_bucketing = match c.u8()? {
            0 => false,
            1 => true,
            b => return Err(DriverError::Checkpoint(format!("bad bucketing flag {b}"))),
        };
        let min_bucket = c.u32()?;
        let seeds = c.pairs()?;
        let links = c.pairs()?;
        let phase_count = c.count(40)?;
        let mut phases = Vec::with_capacity(phase_count);
        for _ in 0..phase_count {
            phases.push(PhaseStats {
                iteration: c.u32()?,
                bucket: c.u32()?,
                scored_pairs: c.u64()? as usize,
                new_links: c.u64()? as usize,
                total_links: c.u64()? as usize,
                duration: Duration::from_micros(c.u64()?),
            });
        }
        c.finish()?;
        let cp = Checkpoint {
            store,
            n1,
            n2,
            threshold,
            iterations,
            degree_bucketing,
            min_bucket,
            seeds,
            links,
            phases,
        };
        if let Some(last) = cp.phases.last() {
            if last.total_links != cp.links.len() {
                return Err(DriverError::Checkpoint(format!(
                    "last phase reports {} total links but {} are stored",
                    last.total_links,
                    cp.links.len()
                )));
            }
        }
        Ok(cp)
    }

    /// Writes the checkpoint atomically: temp file in the same directory,
    /// then rename over any previous checkpoint.
    pub fn write_file(&self, path: &Path) -> Result<(), DriverError> {
        let tmp = path.with_extension("snrc.tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&self.encode())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Reads and validates a checkpoint file.
    pub fn read_file(path: &Path) -> Result<Checkpoint, DriverError> {
        let bytes = std::fs::read(path)
            .map_err(|e| DriverError::Checkpoint(format!("cannot read {}: {e}", path.display())))?;
        Checkpoint::decode(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            store: DriverStore::Sharded(4),
            n1: 1000,
            n2: 999,
            threshold: 2,
            iterations: 2,
            degree_bucketing: true,
            min_bucket: 1,
            seeds: vec![(0, 0), (5, 7), (5, 7)],
            links: vec![(0, 0), (5, 7), (9, 9), (10, 11)],
            phases: vec![
                PhaseStats {
                    iteration: 1,
                    bucket: 5,
                    scored_pairs: 1234,
                    new_links: 1,
                    total_links: 3,
                    duration: Duration::from_micros(1500),
                },
                PhaseStats {
                    iteration: 1,
                    bucket: 4,
                    scored_pairs: 777,
                    new_links: 1,
                    total_links: 4,
                    duration: Duration::from_micros(900),
                },
            ],
        }
    }

    #[test]
    fn roundtrips_bit_exactly() {
        let cp = sample();
        let bytes = cp.encode();
        assert_eq!(Checkpoint::decode(&bytes).unwrap(), cp);
        let mut cp = sample();
        cp.store = DriverStore::Mmap;
        assert_eq!(Checkpoint::decode(&cp.encode()).unwrap(), cp);
    }

    #[test]
    fn every_single_byte_corruption_is_a_clean_error() {
        let cp = sample();
        let bytes = cp.encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            match Checkpoint::decode(&bad) {
                Err(DriverError::Checkpoint(_)) => {}
                Err(e) => panic!("byte {i}: wrong error type {e}"),
                // A flip in the checksum footer combined with... no: any
                // single flip breaks either the body (checksum mismatch) or
                // the footer (mismatch the other way). Decode must fail.
                Ok(_) => panic!("byte {i}: corruption went undetected"),
            }
        }
    }

    #[test]
    fn truncations_and_garbage_are_clean_errors() {
        let bytes = sample().encode();
        for len in 0..bytes.len() {
            assert!(
                matches!(Checkpoint::decode(&bytes[..len]), Err(DriverError::Checkpoint(_))),
                "truncation to {len} bytes must fail cleanly"
            );
        }
        assert!(Checkpoint::decode(&[0x55; 64]).is_err());
        assert!(Checkpoint::decode(&[]).is_err());
        // A checksum-valid body naming store tag 0, which no driver store
        // encodes (the tag byte follows magic and both versions).
        let mut tag0 = bytes[..bytes.len() - 8].to_vec();
        tag0[8] = 0;
        let checksum = fnv1a_checksum(&tag0);
        tag0.extend_from_slice(&checksum.to_le_bytes());
        assert!(matches!(Checkpoint::decode(&tag0), Err(DriverError::Checkpoint(_))));
    }

    #[test]
    fn inconsistent_totals_are_rejected() {
        let mut cp = sample();
        cp.phases.last_mut().unwrap().total_links = 99;
        let bytes = cp.encode();
        assert!(matches!(Checkpoint::decode(&bytes), Err(DriverError::Checkpoint(_))));
    }

    #[test]
    fn file_roundtrip_is_atomic_over_a_previous_checkpoint() {
        let dir = std::env::temp_dir().join(format!("snrc-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(CHECKPOINT_FILE);
        let mut cp = sample();
        cp.write_file(&path).unwrap();
        cp.phases.pop();
        cp.links.pop();
        cp.write_file(&path).unwrap();
        assert_eq!(Checkpoint::read_file(&path).unwrap(), cp);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
