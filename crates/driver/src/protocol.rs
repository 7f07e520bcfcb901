//! The coordinator ↔ worker wire protocol: length-prefixed binary frames
//! over the worker's stdin/stdout pipes.
//!
//! Every frame is a little-endian `u32` body length followed by the body; a
//! body starts with one tag byte selecting the [`Message`] variant. The
//! format is deliberately boring — fixed-width integers, length-prefixed
//! strings and arrays, no self-describing metadata — so the decoder can be
//! exhaustively bounds-checked: truncation, inflated counts, bad tags, and
//! trailing bytes are all [`DriverError::Protocol`] errors, never panics
//! and never unbounded allocations (`tests/protocol_roundtrip.rs` pins
//! this in the `snr-store` corruption-fuzz style).
//!
//! The conversation is strictly coordinator-driven:
//!
//! ```text
//! C → W   Init      segment paths + node-space sizes        (once)
//! W → C   InitOk                                            (once)
//! C → W   Reinit    phase params + full link snapshot       (once, after InitOk)
//! C → W   Phase     per-phase params + link delta           (per phase)
//! C → W   Task      one contiguous row-range                (0+ per phase)
//! W → C   TaskDone  serialized SelectSink claims            (per task)
//! W → C   Stats     telemetry delta (spans/counters/events) (0+ per task)
//! W → C   WorkerError   fatal worker-side failure           (at most once)
//! C → W   Shutdown                                          (once)
//! ```
//!
//! `Reinit` is the self-healing half of the handshake: instead of assuming
//! a worker was present for every previous phase delta, the coordinator
//! answers each `InitOk` with the *complete* accumulated link state plus
//! the current phase parameters. That makes the very same handshake serve
//! first launch, mid-phase respawn of a crashed worker, and
//! checkpoint-resume — a fresh process is always one frame away from the
//! replica state an uninterrupted worker would hold.

use crate::error::DriverError;
use std::io::{Read, Write};

/// Upper bound on one frame body. Claims frames scale with the candidate
/// rows of one task, far below this; anything larger is corruption and must
/// not turn into a giant allocation.
pub const MAX_FRAME: usize = 1 << 30;

/// How a worker should open copy-1 rows. Either way the view covers the
/// whole node space and tasks index it by global row id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum G1Spec {
    /// One whole-graph segment, memory-mapped once.
    MmapWhole {
        /// Segment file path.
        path: String,
    },
    /// Shard segment files tiling the node space, memory-mapped through
    /// `ShardedGraph::open`.
    Shards {
        /// Shard segment paths, in ascending row order.
        paths: Vec<String>,
    },
}

/// The copy-2 segment a worker memory-maps (always whole: every worker
/// scores against the full `v` axis).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct G2Spec {
    /// Segment file path.
    pub path: String,
}

/// One protocol frame body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Message {
    /// Coordinator → worker: identity, node-space sizes, and store specs.
    Init {
        /// This worker's id (0-based).
        worker_id: u32,
        /// Copy-1 node-space size.
        n1: u64,
        /// Copy-2 node-space size.
        n2: u64,
        /// How to open copy-1 rows.
        g1: G1Spec,
        /// How to open the copy-2 graph.
        g2: G2Spec,
    },
    /// Worker → coordinator: stores opened, ready for phases.
    InitOk {
        /// Echoed worker id.
        worker_id: u32,
    },
    /// Coordinator → worker: replace the worker's resident `Linking` with
    /// this full snapshot and arm the given phase. Sent in answer to every
    /// `InitOk`, so a worker spawned mid-run (respawn, resume) starts from
    /// exactly the replica state an uninterrupted worker would hold.
    Reinit {
        /// 1-based phase number the snapshot is current for.
        phase: u32,
        /// Minimum degree of candidate rows (copy 1) and of eligible
        /// partners (copy 2).
        min_degree: u32,
        /// Selection threshold.
        threshold: u32,
        /// Every link pair accumulated so far (seeds included), replacing
        /// any state the worker holds.
        links_full: Vec<(u32, u32)>,
    },
    /// Coordinator → worker: start a phase. `links_delta` is the pairs
    /// inserted since the previous phase (the seed set before phase 1);
    /// the worker folds it into its resident `Linking` and rebuilds its
    /// `LinkCache`.
    Phase {
        /// 1-based phase number.
        phase: u32,
        /// Minimum degree of candidate rows (copy 1) and of eligible
        /// partners (copy 2).
        min_degree: u32,
        /// Selection threshold.
        threshold: u32,
        /// Link pairs inserted since the last phase.
        links_delta: Vec<(u32, u32)>,
    },
    /// Coordinator → worker: score one contiguous row-range of the current
    /// phase.
    Task {
        /// Phase this task belongs to.
        phase: u32,
        /// Global id of the range's first row.
        first_node: u32,
        /// Number of rows in the range.
        node_count: u32,
    },
    /// Worker → coordinator: one finished row-range with its serialized
    /// `SelectSink` claims (see `snr_core::scoring::SinkClaims`).
    TaskDone {
        /// Phase the task belonged to.
        phase: u32,
        /// Echoed range start.
        first_node: u32,
        /// Echoed range length.
        node_count: u32,
        /// Encoded `SinkClaims`.
        claims: Vec<u8>,
    },
    /// Worker → coordinator: fatal worker-side failure (the worker exits
    /// after sending this).
    WorkerError {
        /// Human-readable failure description.
        message: String,
    },
    /// Coordinator → worker: exit cleanly.
    Shutdown,
    /// Worker → coordinator: the worker's telemetry delta since its last
    /// `Stats` frame (spans, counter increments, events). Sent after a
    /// `TaskDone` when the coordinator spawned the worker with
    /// `SNR_TELEMETRY=1`; purely observational — the coordinator folds it
    /// into its own telemetry registry and nothing about scheduling or
    /// merging reads it back.
    Stats {
        /// Reporting worker's id.
        worker_id: u32,
        /// Finished spans as `(name, fields, start_us, dur_us)`; times are
        /// in the worker's own telemetry epoch.
        spans: Vec<(String, String, u64, u64)>,
        /// Counter increments as `(name, delta)`.
        counters: Vec<(String, u64)>,
        /// Point events as `(name, fields, at_us)`.
        events: Vec<(String, String, u64)>,
    },
}

const TAG_INIT: u8 = 1;
const TAG_INIT_OK: u8 = 2;
const TAG_PHASE: u8 = 3;
const TAG_TASK: u8 = 4;
const TAG_TASK_DONE: u8 = 5;
const TAG_WORKER_ERROR: u8 = 6;
const TAG_SHUTDOWN: u8 = 7;
const TAG_REINIT: u8 = 8;
const TAG_STATS: u8 = 9;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// Bounds-checked decoding cursor over one frame body.
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
            .ok_or_else(|| DriverError::Protocol("frame body truncated".into()))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, DriverError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, DriverError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, DriverError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// Reads a length prefix that claims `width`-byte elements, rejecting
    /// counts the remaining body cannot hold (so corruption cannot force a
    /// huge allocation).
    fn count(&mut self, width: usize) -> Result<usize, DriverError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(width) > self.bytes.len() - self.pos {
            return Err(DriverError::Protocol(format!(
                "count {n} overruns {} remaining frame bytes",
                self.bytes.len() - self.pos
            )));
        }
        Ok(n)
    }

    fn bytes(&mut self) -> Result<Vec<u8>, DriverError> {
        let n = self.count(1)?;
        Ok(self.take(n)?.to_vec())
    }

    fn string(&mut self) -> Result<String, DriverError> {
        String::from_utf8(self.bytes()?)
            .map_err(|_| DriverError::Protocol("string field is not UTF-8".into()))
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
            return Err(DriverError::Protocol(format!(
                "{} trailing bytes after frame body",
                self.bytes.len() - self.pos
            )));
        }
        Ok(())
    }
}

impl G1Spec {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            G1Spec::MmapWhole { path } => {
                out.push(1);
                put_str(out, path);
            }
            G1Spec::Shards { paths } => {
                out.push(2);
                put_u32(out, paths.len() as u32);
                for p in paths {
                    put_str(out, p);
                }
            }
        }
    }

    fn decode(c: &mut Cursor<'_>) -> Result<G1Spec, DriverError> {
        match c.u8()? {
            1 => Ok(G1Spec::MmapWhole { path: c.string()? }),
            2 => {
                // Each path costs at least its 4-byte length prefix.
                let n = c.count(4)?;
                let mut paths = Vec::with_capacity(n);
                for _ in 0..n {
                    paths.push(c.string()?);
                }
                Ok(G1Spec::Shards { paths })
            }
            t => Err(DriverError::Protocol(format!("unknown g1 store tag {t}"))),
        }
    }
}

impl Message {
    /// Serializes the frame body (without the length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Message::Init { worker_id, n1, n2, g1, g2 } => {
                out.push(TAG_INIT);
                put_u32(&mut out, *worker_id);
                put_u64(&mut out, *n1);
                put_u64(&mut out, *n2);
                g1.encode(&mut out);
                put_str(&mut out, &g2.path);
            }
            Message::InitOk { worker_id } => {
                out.push(TAG_INIT_OK);
                put_u32(&mut out, *worker_id);
            }
            Message::Phase { phase, min_degree, threshold, links_delta } => {
                out.push(TAG_PHASE);
                put_u32(&mut out, *phase);
                put_u32(&mut out, *min_degree);
                put_u32(&mut out, *threshold);
                put_u32(&mut out, links_delta.len() as u32);
                for &(a, b) in links_delta {
                    put_u32(&mut out, a);
                    put_u32(&mut out, b);
                }
            }
            Message::Task { phase, first_node, node_count } => {
                out.push(TAG_TASK);
                put_u32(&mut out, *phase);
                put_u32(&mut out, *first_node);
                put_u32(&mut out, *node_count);
            }
            Message::TaskDone { phase, first_node, node_count, claims } => {
                out.push(TAG_TASK_DONE);
                put_u32(&mut out, *phase);
                put_u32(&mut out, *first_node);
                put_u32(&mut out, *node_count);
                put_bytes(&mut out, claims);
            }
            Message::WorkerError { message } => {
                out.push(TAG_WORKER_ERROR);
                put_str(&mut out, message);
            }
            Message::Shutdown => out.push(TAG_SHUTDOWN),
            Message::Stats { worker_id, spans, counters, events } => {
                out.push(TAG_STATS);
                put_u32(&mut out, *worker_id);
                put_u32(&mut out, spans.len() as u32);
                for (name, fields, start_us, dur_us) in spans {
                    put_str(&mut out, name);
                    put_str(&mut out, fields);
                    put_u64(&mut out, *start_us);
                    put_u64(&mut out, *dur_us);
                }
                put_u32(&mut out, counters.len() as u32);
                for (name, delta) in counters {
                    put_str(&mut out, name);
                    put_u64(&mut out, *delta);
                }
                put_u32(&mut out, events.len() as u32);
                for (name, fields, at_us) in events {
                    put_str(&mut out, name);
                    put_str(&mut out, fields);
                    put_u64(&mut out, *at_us);
                }
            }
            Message::Reinit { phase, min_degree, threshold, links_full } => {
                out.push(TAG_REINIT);
                put_u32(&mut out, *phase);
                put_u32(&mut out, *min_degree);
                put_u32(&mut out, *threshold);
                put_u32(&mut out, links_full.len() as u32);
                for &(a, b) in links_full {
                    put_u32(&mut out, a);
                    put_u32(&mut out, b);
                }
            }
        }
        out
    }

    /// Parses one frame body. Every structural defect is a
    /// [`DriverError::Protocol`] — never a panic.
    pub fn decode(bytes: &[u8]) -> Result<Message, DriverError> {
        let mut c = Cursor { bytes, pos: 0 };
        let msg = match c.u8()? {
            TAG_INIT => Message::Init {
                worker_id: c.u32()?,
                n1: c.u64()?,
                n2: c.u64()?,
                g1: G1Spec::decode(&mut c)?,
                g2: G2Spec { path: c.string()? },
            },
            TAG_INIT_OK => Message::InitOk { worker_id: c.u32()? },
            TAG_PHASE => Message::Phase {
                phase: c.u32()?,
                min_degree: c.u32()?,
                threshold: c.u32()?,
                links_delta: c.pairs()?,
            },
            TAG_TASK => {
                Message::Task { phase: c.u32()?, first_node: c.u32()?, node_count: c.u32()? }
            }
            TAG_TASK_DONE => Message::TaskDone {
                phase: c.u32()?,
                first_node: c.u32()?,
                node_count: c.u32()?,
                claims: c.bytes()?,
            },
            TAG_WORKER_ERROR => Message::WorkerError { message: c.string()? },
            TAG_SHUTDOWN => Message::Shutdown,
            TAG_STATS => {
                let worker_id = c.u32()?;
                // Minimum element widths: a span is two string prefixes plus
                // two u64s (24 bytes), a counter is one prefix plus a u64
                // (12), an event two prefixes plus a u64 (16) — enough to
                // keep an inflated count from forcing a huge allocation.
                let n = c.count(24)?;
                let mut spans = Vec::with_capacity(n);
                for _ in 0..n {
                    spans.push((c.string()?, c.string()?, c.u64()?, c.u64()?));
                }
                let n = c.count(12)?;
                let mut counters = Vec::with_capacity(n);
                for _ in 0..n {
                    counters.push((c.string()?, c.u64()?));
                }
                let n = c.count(16)?;
                let mut events = Vec::with_capacity(n);
                for _ in 0..n {
                    events.push((c.string()?, c.string()?, c.u64()?));
                }
                Message::Stats { worker_id, spans, counters, events }
            }
            TAG_REINIT => Message::Reinit {
                phase: c.u32()?,
                min_degree: c.u32()?,
                threshold: c.u32()?,
                links_full: c.pairs()?,
            },
            t => return Err(DriverError::Protocol(format!("unknown frame tag {t}"))),
        };
        c.finish()?;
        Ok(msg)
    }
}

/// Writes one length-prefixed frame and flushes (pipes are the transport;
/// an unflushed frame is a deadlock).
pub fn write_frame<W: Write>(w: &mut W, msg: &Message) -> std::io::Result<()> {
    let body = msg.encode();
    debug_assert!(body.len() <= MAX_FRAME);
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(&body)?;
    w.flush()
}

/// Reads one length-prefixed frame. Returns `Ok(None)` on clean EOF at a
/// frame boundary (the peer closed the pipe); EOF mid-frame, an oversized
/// length, or a malformed body is an error.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Message>, DriverError> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0usize;
    while filled < 4 {
        match r.read(&mut len_bytes[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(DriverError::Protocol("EOF inside frame length prefix".into()));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(DriverError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME {
        return Err(DriverError::Protocol(format!("frame length {len} exceeds {MAX_FRAME}")));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => DriverError::Protocol("EOF inside frame body".into()),
        _ => DriverError::Io(e),
    })?;
    Message::decode(&body).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_over_a_pipe_buffer() {
        let msgs = vec![
            Message::Init {
                worker_id: 3,
                n1: 1_000,
                n2: 999,
                g1: G1Spec::Shards { paths: vec!["a.snrs".into(), "b.snrs".into()] },
                g2: G2Spec { path: "g2.snrs".into() },
            },
            Message::InitOk { worker_id: 3 },
            Message::Reinit {
                phase: 2,
                min_degree: 4,
                threshold: 2,
                links_full: vec![(0, 5), (7, 7), (9, 2)],
            },
            Message::Phase {
                phase: 1,
                min_degree: 2,
                threshold: 2,
                links_delta: vec![(0, 5), (7, 7)],
            },
            Message::Task { phase: 1, first_node: 0, node_count: 500 },
            Message::TaskDone { phase: 1, first_node: 0, node_count: 500, claims: vec![1, 2, 3] },
            Message::Stats {
                worker_id: 3,
                spans: vec![("task".into(), "phase=1 rows=500".into(), 10, 250)],
                counters: vec![("scored_pairs".into(), 1234), ("tasks_completed".into(), 1)],
                events: vec![("fault_fired".into(), "action=stall".into(), 99)],
            },
            Message::WorkerError { message: "segment missing".into() },
            Message::Shutdown,
        ];
        let mut pipe = Vec::new();
        for m in &msgs {
            write_frame(&mut pipe, m).unwrap();
        }
        let mut r = pipe.as_slice();
        for m in &msgs {
            assert_eq!(read_frame(&mut r).unwrap().as_ref(), Some(m));
        }
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF at the boundary");
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut pipe = Vec::new();
        pipe.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(read_frame(&mut pipe.as_slice()).is_err());
    }

    #[test]
    fn unknown_tags_and_trailing_bytes_are_rejected() {
        assert!(Message::decode(&[99]).is_err());
        assert!(Message::decode(&[]).is_err());
        let mut body = Message::Shutdown.encode();
        body.push(0);
        assert!(Message::decode(&body).is_err());
    }
}
