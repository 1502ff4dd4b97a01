//! Cluster message protocol: length-prefixed, CRC-framed messages over a
//! pluggable transport.
//!
//! The process-per-shard runtime (`fup_core::cluster`) speaks this
//! protocol between the coordinator and its shard workers. Frames reuse
//! the WAL's envelope —
//!
//! ```text
//! [u32 le payload_len][u32 le crc32(payload)][payload]
//! ```
//!
//! — with the payload a type byte followed by the same varint/delta
//! [`codec`] encoding the [`wal`](crate::wal) and
//! [`PagedStore`](crate::page::PagedStore) use. Frames are wire-only: a
//! shard worker persists the rounds it stages and decides as ordinary
//! [`WalRecord`](crate::wal::WalRecord)s through the same durable log a
//! maintenance session uses, and tids on the wire are the worker's dense
//! local tids (see [`ShardSpec::local_tid`](crate::ShardSpec::local_tid)).
//!
//! Transports are deliberately dumb byte pipes: [`ChannelTransport`]
//! pairs two in-process mpsc channels (tests, single-machine
//! simulation). It carries whole frames; CRC is verified on every
//! receive, so a corrupted or truncated frame surfaces as a typed
//! [`Error::Corrupt`] rather than a garbled message.

use std::sync::mpsc;

use crate::codec;
use crate::error::{Error, FaultKind, Result};
use crate::item::ItemId;
use crate::segment::Tid;
use crate::transaction::Transaction;
use crate::wal::{crc32, FRAME_HEADER};

// ------------------------------------------------------------ messages --

const TAG_STAGE_ROUND: u8 = 1;
const TAG_ENGAGE: u8 = 2;
const TAG_COUNT_SPLIT: u8 = 3;
// Tags 4 and 6 are unassigned; the others keep their numbers.
const TAG_COUNT_DENSE: u8 = 5;
const TAG_COMMIT_ROUND: u8 = 7;
const TAG_ABORT_ROUND: u8 = 8;
const TAG_CHECKPOINT: u8 = 9;
const TAG_HEALTH_PROBE: u8 = 10;
const TAG_FETCH_ROWS: u8 = 11;
const TAG_SHUTDOWN: u8 = 12;
const TAG_STAGED_OK: u8 = 13;
const TAG_COUNTS: u8 = 14;
const TAG_SPLITS: u8 = 15;
const TAG_ROWS: u8 = 16;
const TAG_HEALTH: u8 = 17;
const TAG_OK: u8 = 18;
const TAG_ERR: u8 = 19;

/// One protocol message. The first group travels coordinator → worker,
/// the second worker → coordinator; both directions share the frame
/// format.
///
/// A counted round is `StageRound`; `CountDense` if iteration 1 needs
/// the base's item counts; `Engage` and one `CountSplit` per table for
/// the passes `k ≥ 2` that count; then `CommitRound` or `AbortRound`.
/// The worker settles its index when it applies that decision: it keeps
/// the index a committed round counted through and drops one an aborted
/// round did.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Phase 1 of a commit round: the rows this shard gains (with the
    /// local tids they will take) and the local tids it loses. The worker
    /// logs the round before acting and answers [`Message::StagedOk`]
    /// with the removed rows.
    StageRound {
        /// Coordinator round number (monotone per cluster session).
        round: u64,
        /// Inserted rows routed to this shard, ascending local tids.
        inserts: Vec<(Tid, Transaction)>,
        /// Local tids deleted from this shard.
        deletes: Vec<Tid>,
    },
    /// Engage the worker's vertical index for this round: its held index
    /// extended by the staged inserts if it covers the shard's base rows
    /// and `keep` (the coordinator's `old L₁ ∪ result L₁` item union),
    /// else a build over every item. Answered [`Message::Ok`]; repeats
    /// within a round keep the engaged index.
    Engage {
        /// Items the round's index must cover.
        keep: Vec<ItemId>,
    },
    /// Count a candidate table through the engaged index: `items` is the
    /// flat row-major item array of a `k`-itemset table
    /// (`items.len() % k == 0`). Answered with [`Message::Splits`] —
    /// per-row `(base, delta)` support splits.
    CountSplit {
        /// Itemset size of every row.
        k: u32,
        /// Flat row-major items, rows sorted lexicographically.
        items: Vec<ItemId>,
    },
    /// Dense item histogram of the shard's base rows: answered with
    /// [`Message::Counts`] where index `i` counts `ItemId(i)`; the
    /// vector may be shorter than the coordinator's dictionary (missing
    /// tail = zeros).
    CountDense,
    /// Phase 2: make the staged round effective. WAL-logged, answered
    /// [`Message::Ok`].
    CommitRound {
        /// The round being committed (must match the staged round).
        round: u64,
    },
    /// Phase 2 alternative: discard the staged round. WAL-logged,
    /// answered [`Message::Ok`].
    AbortRound {
        /// The round being aborted.
        round: u64,
    },
    /// Compact durable state: write the worker log's next checkpoint and
    /// rotate its WAL.
    Checkpoint,
    /// Liveness + progress probe, answered [`Message::Health`].
    HealthProbe,
    /// Stream the shard's live rows back (re-mine support), answered
    /// [`Message::Rows`].
    FetchRows,
    /// Orderly worker shutdown, answered [`Message::Ok`].
    Shutdown,

    /// Reply to [`Message::StageRound`]: the full rows the deletes
    /// removed (the coordinator needs them to count the delete side of
    /// FUP2 locally).
    StagedOk {
        /// Echo of the staged round number.
        round: u64,
        /// Removed rows, one per requested delete, request order.
        removed: Vec<(Tid, Transaction)>,
    },
    /// Reply to [`Message::CountDense`].
    Counts(Vec<u64>),
    /// Reply to [`Message::CountSplit`]: per-row `(base, delta)` splits.
    Splits(Vec<(u64, u64)>),
    /// Reply to [`Message::FetchRows`]: the shard's live rows under
    /// their local tids.
    Rows(Vec<(Tid, Transaction)>),
    /// Reply to [`Message::HealthProbe`].
    Health {
        /// Live transactions in the shard.
        live: u64,
        /// Highest round made effective (committed or aborted).
        decided_round: u64,
        /// A staged round awaiting its phase-2 decision, if any.
        staged_round: Option<u64>,
    },
    /// Generic success reply.
    Ok,
    /// Typed failure reply; the round must be aborted.
    Err(String),
}

fn corrupt(reason: &str, offset: usize) -> Error {
    Error::Corrupt {
        reason: reason.into(),
        offset: Some(offset),
    }
}

fn write_tid_rows(buf: &mut Vec<u8>, rows: &[(Tid, Transaction)]) {
    codec::write_varint64(buf, rows.len() as u64);
    for (Tid(tid), t) in rows {
        codec::write_varint64(buf, *tid);
        codec::encode_transaction(buf, t.items());
    }
}

fn read_tid_rows(buf: &[u8], pos: &mut usize) -> Result<Vec<(Tid, Transaction)>> {
    let n = codec::read_varint64(buf, pos)? as usize;
    let mut rows = Vec::with_capacity(n.min(buf.len()));
    let mut items = Vec::new();
    for _ in 0..n {
        let tid = Tid(codec::read_varint64(buf, pos)?);
        codec::decode_transaction(buf, pos, &mut items)?;
        rows.push((tid, Transaction::from_sorted_vec(items.clone())));
    }
    Ok(rows)
}

fn write_items(buf: &mut Vec<u8>, items: &[ItemId]) {
    codec::write_varint64(buf, items.len() as u64);
    for item in items {
        codec::write_varint(buf, item.raw());
    }
}

fn read_items(buf: &[u8], pos: &mut usize) -> Result<Vec<ItemId>> {
    let n = codec::read_varint64(buf, pos)? as usize;
    let mut items = Vec::with_capacity(n.min(buf.len()));
    for _ in 0..n {
        items.push(ItemId(codec::read_varint(buf, pos)?));
    }
    Ok(items)
}

impl Message {
    /// Encodes the message payload (type byte + body, no frame header).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Message::StageRound {
                round,
                inserts,
                deletes,
            } => {
                buf.push(TAG_STAGE_ROUND);
                codec::write_varint64(&mut buf, *round);
                write_tid_rows(&mut buf, inserts);
                codec::write_varint64(&mut buf, deletes.len() as u64);
                for Tid(tid) in deletes {
                    codec::write_varint64(&mut buf, *tid);
                }
            }
            Message::Engage { keep } => {
                buf.push(TAG_ENGAGE);
                write_items(&mut buf, keep);
            }
            Message::CountSplit { k, items } => {
                buf.push(TAG_COUNT_SPLIT);
                codec::write_varint(&mut buf, *k);
                write_items(&mut buf, items);
            }
            Message::CountDense => buf.push(TAG_COUNT_DENSE),
            Message::CommitRound { round } => {
                buf.push(TAG_COMMIT_ROUND);
                codec::write_varint64(&mut buf, *round);
            }
            Message::AbortRound { round } => {
                buf.push(TAG_ABORT_ROUND);
                codec::write_varint64(&mut buf, *round);
            }
            Message::Checkpoint => buf.push(TAG_CHECKPOINT),
            Message::HealthProbe => buf.push(TAG_HEALTH_PROBE),
            Message::FetchRows => buf.push(TAG_FETCH_ROWS),
            Message::Shutdown => buf.push(TAG_SHUTDOWN),
            Message::StagedOk { round, removed } => {
                buf.push(TAG_STAGED_OK);
                codec::write_varint64(&mut buf, *round);
                write_tid_rows(&mut buf, removed);
            }
            Message::Counts(counts) => {
                buf.push(TAG_COUNTS);
                codec::write_varint64(&mut buf, counts.len() as u64);
                for &c in counts {
                    codec::write_varint64(&mut buf, c);
                }
            }
            Message::Splits(splits) => {
                buf.push(TAG_SPLITS);
                codec::write_varint64(&mut buf, splits.len() as u64);
                for &(base, delta) in splits {
                    codec::write_varint64(&mut buf, base);
                    codec::write_varint64(&mut buf, delta);
                }
            }
            Message::Rows(rows) => {
                buf.push(TAG_ROWS);
                write_tid_rows(&mut buf, rows);
            }
            Message::Health {
                live,
                decided_round,
                staged_round,
            } => {
                buf.push(TAG_HEALTH);
                codec::write_varint64(&mut buf, *live);
                codec::write_varint64(&mut buf, *decided_round);
                match staged_round {
                    Some(r) => {
                        buf.push(1);
                        codec::write_varint64(&mut buf, *r);
                    }
                    None => buf.push(0),
                }
            }
            Message::Ok => buf.push(TAG_OK),
            Message::Err(reason) => {
                buf.push(TAG_ERR);
                codec::write_varint64(&mut buf, reason.len() as u64);
                buf.extend_from_slice(reason.as_bytes());
            }
        }
        buf
    }

    /// Decodes a payload written by [`Message::encode`].
    pub fn decode(buf: &[u8]) -> Result<Message> {
        let Some(&tag) = buf.first() else {
            return Err(corrupt("empty message payload", 0));
        };
        let pos = &mut 1usize;
        let msg = match tag {
            TAG_STAGE_ROUND => {
                let round = codec::read_varint64(buf, pos)?;
                let inserts = read_tid_rows(buf, pos)?;
                let n = codec::read_varint64(buf, pos)? as usize;
                let mut deletes = Vec::with_capacity(n.min(buf.len()));
                for _ in 0..n {
                    deletes.push(Tid(codec::read_varint64(buf, pos)?));
                }
                Message::StageRound {
                    round,
                    inserts,
                    deletes,
                }
            }
            TAG_ENGAGE => Message::Engage {
                keep: read_items(buf, pos)?,
            },
            TAG_COUNT_SPLIT => {
                let k = codec::read_varint(buf, pos)?;
                let items = read_items(buf, pos)?;
                if k == 0 || items.len() % k as usize != 0 {
                    return Err(corrupt("count-split table not k-strided", *pos));
                }
                Message::CountSplit { k, items }
            }
            TAG_COUNT_DENSE => Message::CountDense,
            TAG_COMMIT_ROUND => Message::CommitRound {
                round: codec::read_varint64(buf, pos)?,
            },
            TAG_ABORT_ROUND => Message::AbortRound {
                round: codec::read_varint64(buf, pos)?,
            },
            TAG_CHECKPOINT => Message::Checkpoint,
            TAG_HEALTH_PROBE => Message::HealthProbe,
            TAG_FETCH_ROWS => Message::FetchRows,
            TAG_SHUTDOWN => Message::Shutdown,
            TAG_STAGED_OK => {
                let round = codec::read_varint64(buf, pos)?;
                let removed = read_tid_rows(buf, pos)?;
                Message::StagedOk { round, removed }
            }
            TAG_COUNTS => {
                let n = codec::read_varint64(buf, pos)? as usize;
                let mut counts = Vec::with_capacity(n.min(buf.len()));
                for _ in 0..n {
                    counts.push(codec::read_varint64(buf, pos)?);
                }
                Message::Counts(counts)
            }
            TAG_SPLITS => {
                let n = codec::read_varint64(buf, pos)? as usize;
                let mut splits = Vec::with_capacity(n.min(buf.len()));
                for _ in 0..n {
                    let base = codec::read_varint64(buf, pos)?;
                    let delta = codec::read_varint64(buf, pos)?;
                    splits.push((base, delta));
                }
                Message::Splits(splits)
            }
            TAG_ROWS => Message::Rows(read_tid_rows(buf, pos)?),
            TAG_HEALTH => {
                let live = codec::read_varint64(buf, pos)?;
                let decided_round = codec::read_varint64(buf, pos)?;
                let staged_round = match buf.get(*pos) {
                    Some(0) => {
                        *pos += 1;
                        None
                    }
                    Some(1) => {
                        *pos += 1;
                        Some(codec::read_varint64(buf, pos)?)
                    }
                    _ => return Err(corrupt("bad staged-round presence byte", *pos)),
                };
                Message::Health {
                    live,
                    decided_round,
                    staged_round,
                }
            }
            TAG_OK => Message::Ok,
            TAG_ERR => {
                let n = codec::read_varint64(buf, pos)? as usize;
                let end = pos
                    .checked_add(n)
                    .filter(|&e| e <= buf.len())
                    .ok_or_else(|| corrupt("truncated error string", *pos))?;
                let reason = String::from_utf8(buf[*pos..end].to_vec())
                    .map_err(|_| corrupt("error string not utf-8", *pos))?;
                *pos = end;
                Message::Err(reason)
            }
            _ => return Err(corrupt("unknown message tag", 0)),
        };
        if *pos != buf.len() {
            return Err(corrupt("trailing bytes after message", *pos));
        }
        Ok(msg)
    }

    /// Encodes the message as one complete frame
    /// (`[len][crc32][payload]`) — the bytes a transport carries and a
    /// worker WAL appends.
    pub fn to_frame(&self) -> Vec<u8> {
        let payload = self.encode();
        let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        frame
    }

    /// Decodes one complete frame produced by [`Message::to_frame`],
    /// verifying length and CRC.
    pub fn from_frame(frame: &[u8]) -> Result<Message> {
        if frame.len() < FRAME_HEADER {
            return Err(corrupt("truncated frame header", frame.len()));
        }
        let len = u32::from_le_bytes(frame[0..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(frame[4..8].try_into().expect("4 bytes"));
        let payload = &frame[FRAME_HEADER..];
        if payload.len() != len {
            return Err(corrupt(
                "frame length does not match its header",
                frame.len(),
            ));
        }
        if crc32(payload) != crc {
            return Err(corrupt("frame crc mismatch", FRAME_HEADER));
        }
        Message::decode(payload)
    }
}

// ----------------------------------------------------------- transport --

/// A bidirectional, message-oriented byte pipe. Implementations carry
/// whole frames; `recv` verifies the CRC before decoding, so transport
/// corruption surfaces as [`Error::Corrupt`] and
/// a closed peer as a permanent [`Error::Io`].
pub trait Transport: Send {
    /// Sends one message.
    fn send(&mut self, msg: &Message) -> Result<()>;
    /// Receives the next message, blocking until one arrives.
    fn recv(&mut self) -> Result<Message>;
}

fn disconnected(op: &'static str) -> Error {
    Error::Io {
        op,
        file: "rpc".into(),
        kind: FaultKind::Permanent,
        reason: "transport peer disconnected".into(),
    }
}

/// In-process transport: a pair of mpsc channels carrying framed bytes.
/// The frames still round-trip through the full encode/CRC/decode path,
/// so channel tests exercise exactly the bytes a socket would carry.
pub struct ChannelTransport {
    tx: mpsc::Sender<Vec<u8>>,
    rx: mpsc::Receiver<Vec<u8>>,
}

impl ChannelTransport {
    /// Builds a connected pair: what one end sends, the other receives.
    pub fn pair() -> (ChannelTransport, ChannelTransport) {
        let (a_tx, b_rx) = mpsc::channel();
        let (b_tx, a_rx) = mpsc::channel();
        (
            ChannelTransport { tx: a_tx, rx: a_rx },
            ChannelTransport { tx: b_tx, rx: b_rx },
        )
    }
}

impl Transport for ChannelTransport {
    fn send(&mut self, msg: &Message) -> Result<()> {
        self.tx
            .send(msg.to_frame())
            .map_err(|_| disconnected("send"))
    }

    fn recv(&mut self) -> Result<Message> {
        let frame = self.rx.recv().map_err(|_| disconnected("recv"))?;
        Message::from_frame(&frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(items: &[u32]) -> Transaction {
        Transaction::from_items(items.iter().copied())
    }

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::StageRound {
                round: 7,
                inserts: vec![(Tid(100), t(&[1, 2, 3])), (Tid(101), t(&[2]))],
                deletes: vec![Tid(3), Tid(42)],
            },
            Message::Engage {
                keep: vec![ItemId(1), ItemId(9), ItemId(300)],
            },
            Message::CountSplit {
                k: 2,
                items: vec![ItemId(1), ItemId(2), ItemId(1), ItemId(3)],
            },
            Message::CountDense,
            Message::CommitRound { round: 7 },
            Message::AbortRound { round: 8 },
            Message::Checkpoint,
            Message::HealthProbe,
            Message::FetchRows,
            Message::Shutdown,
            Message::StagedOk {
                round: 7,
                removed: vec![(Tid(3), t(&[1, 9]))],
            },
            Message::Counts(vec![0, 3, 17, u64::MAX]),
            Message::Splits(vec![(4, 1), (0, 0)]),
            Message::Rows(vec![(Tid(0), t(&[])), (Tid(9), t(&[7, 8]))]),
            Message::Health {
                live: 12,
                decided_round: 6,
                staged_round: Some(7),
            },
            Message::Health {
                live: 0,
                decided_round: 0,
                staged_round: None,
            },
            Message::Ok,
            Message::Err("shard on fire".into()),
        ]
    }

    #[test]
    fn payload_roundtrips() {
        for msg in sample_messages() {
            let buf = msg.encode();
            assert_eq!(Message::decode(&buf).unwrap(), msg, "{msg:?}");
        }
    }

    #[test]
    fn frame_roundtrips() {
        for msg in sample_messages() {
            let frame = msg.to_frame();
            assert_eq!(Message::from_frame(&frame).unwrap(), msg, "{msg:?}");
        }
    }

    #[test]
    fn crc_flip_rejected() {
        let frame = Message::CommitRound { round: 3 }.to_frame();
        for bit in 0..8 {
            let mut bad = frame.clone();
            let last = bad.len() - 1;
            bad[last] ^= 1 << bit; // corrupt payload → CRC mismatch
            assert!(Message::from_frame(&bad).is_err(), "bit {bit}");
        }
        // Corrupting the stored CRC itself is equally fatal.
        let mut bad = frame.clone();
        bad[4] ^= 0xff;
        assert!(Message::from_frame(&bad).is_err());
    }

    #[test]
    fn truncated_frame_rejected() {
        let frame = Message::Counts(vec![1, 2, 3]).to_frame();
        for cut in 0..frame.len() {
            assert!(Message::from_frame(&frame[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn unknown_tag_and_trailing_bytes_rejected() {
        assert!(Message::decode(&[200]).is_err());
        assert!(Message::decode(&[]).is_err());
        let mut buf = Message::Ok.encode();
        buf.push(0);
        assert!(Message::decode(&buf).is_err());
    }

    #[test]
    fn channel_transport_carries_messages() {
        let (mut coord, mut worker) = ChannelTransport::pair();
        for msg in sample_messages() {
            coord.send(&msg).unwrap();
            assert_eq!(worker.recv().unwrap(), msg);
            worker.send(&Message::Ok).unwrap();
            assert_eq!(coord.recv().unwrap(), Message::Ok);
        }
        drop(worker);
        assert!(coord.recv().is_err());
        assert!(coord.send(&Message::Shutdown).is_err());
    }
}
