//! Append-only write-ahead log for the maintenance layer.
//!
//! Every durable mutation of a maintenance session is one framed record
//! appended to the current WAL segment *before* the in-memory effect is
//! acknowledged:
//!
//! * [`WalRecord::Stage`] — one staged update batch with its global
//!   arrival ticket. Ticket order is the staging area's global arrival
//!   order, so replaying stage records in ticket order reproduces the
//!   exact batch concatenation every commit round saw.
//! * [`WalRecord::Commit`] — a round boundary: the tickets the round
//!   consumed (in ticket order) and the state version it produced.
//! * [`WalRecord::Abort`] — a discarded set of tickets (staged work
//!   dropped without being applied).
//!
//! ## Frame format
//!
//! ```text
//! [u32 le payload_len][u32 le crc32(payload)][payload]
//! ```
//!
//! The payload is a type byte followed by the existing varint/delta
//! [`codec`] encoding (transactions exactly as
//! [`PagedStore`](crate::page::PagedStore) stores them). CRC32 is the
//! IEEE/zlib polynomial, table-driven (slicing-by-8), no dependencies.
//!
//! ## Torn tails
//!
//! A crash can leave any byte prefix of the last append. [`read_records`]
//! therefore decodes records until the first frame that is truncated or
//! fails its CRC, *drops everything from that frame on*, and reports the
//! drop as a typed [`Error::Corrupt`] with the byte offset — the caller
//! (recovery) logs it and proceeds. This is safe because records become
//! effective strictly in file order: a commit boundary always follows the
//! stage records it covers, so a valid prefix is always a consistent
//! history.
//!
//! The same prefix argument is what makes **group commit** safe: when the
//! durability layer batches the `sync` barriers of several `Stage`
//! appends (see `fup_core::DurabilityPolicy::group_commit`), a power cut
//! can only drop a *suffix* of un-synced stage records — never an
//! acknowledged boundary, which always syncs unconditionally.

use crate::codec;
use crate::error::{Error, Result};
use crate::segment::{Tid, UpdateBatch};
use crate::transaction::Transaction;

/// Bytes of frame header (`len` + `crc`).
pub const FRAME_HEADER: usize = 8;

const TAG_STAGE: u8 = 1;
const TAG_COMMIT: u8 = 2;
const TAG_ABORT: u8 = 3;

// ----------------------------------------------------------------- crc --

/// The eight slicing-by-8 lookup tables of the IEEE CRC32, built once at
/// compile time. `CRC_TABLES[0]` is the classic bytewise table;
/// `CRC_TABLES[k][b]` is the CRC register after byte `b` and then `k`
/// zero bytes, so one lookup per byte of an 8-byte word advances the
/// register past the whole word.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC32 (IEEE) of `bytes`: eight bytes per step (slicing-by-8), then the
/// tail a byte at a time.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xffff_ffffu32;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let lo = c ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

// ------------------------------------------------------------- records --

/// One durable log record. See the [module docs](self) for semantics.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A staged update batch under its global arrival ticket.
    Stage {
        /// The staging area's global arrival ticket.
        ticket: u64,
        /// The batch exactly as staged.
        batch: UpdateBatch,
    },
    /// A commit boundary: the round consumed `tickets` (ascending) and
    /// published state version `version`.
    Commit {
        /// The state version the round produced.
        version: u64,
        /// Tickets consumed by the round, ascending.
        tickets: Vec<u64>,
    },
    /// Staged tickets dropped without being applied.
    Abort {
        /// Tickets discarded, ascending.
        tickets: Vec<u64>,
    },
}

/// Encodes an [`UpdateBatch`] (insert transactions, then delete tids)
/// into `buf` — the payload layout [`WalRecord::Stage`] uses, shared with
/// the checkpoint format's embedded backlog.
pub fn encode_batch(buf: &mut Vec<u8>, batch: &UpdateBatch) {
    codec::write_varint64(buf, batch.inserts.len() as u64);
    for t in &batch.inserts {
        codec::encode_transaction(buf, t.items());
    }
    codec::write_varint64(buf, batch.deletes.len() as u64);
    for &Tid(tid) in &batch.deletes {
        codec::write_varint64(buf, tid);
    }
}

/// Decodes an [`UpdateBatch`] written by [`encode_batch`], advancing
/// `pos` past it.
pub fn decode_batch(buf: &[u8], pos: &mut usize) -> Result<UpdateBatch> {
    let n_inserts = codec::read_varint64(buf, pos)? as usize;
    let mut inserts = Vec::with_capacity(n_inserts.min(buf.len()));
    let mut items = Vec::new();
    for _ in 0..n_inserts {
        codec::decode_transaction(buf, pos, &mut items)?;
        inserts.push(Transaction::from_sorted_vec(items.clone()));
    }
    let n_deletes = codec::read_varint64(buf, pos)? as usize;
    let mut deletes = Vec::with_capacity(n_deletes.min(buf.len()));
    for _ in 0..n_deletes {
        deletes.push(Tid(codec::read_varint64(buf, pos)?));
    }
    Ok(UpdateBatch { inserts, deletes })
}

fn encode_tickets(buf: &mut Vec<u8>, tickets: &[u64]) {
    // Tickets are ascending, so delta encoding keeps them to ~1 byte.
    codec::write_varint64(buf, tickets.len() as u64);
    let mut prev = 0u64;
    for (i, &t) in tickets.iter().enumerate() {
        codec::write_varint64(buf, if i == 0 { t } else { t - prev });
        prev = t;
    }
}

fn decode_tickets(buf: &[u8], pos: &mut usize) -> Result<Vec<u64>> {
    let n = codec::read_varint64(buf, pos)? as usize;
    let mut out = Vec::with_capacity(n.min(buf.len()));
    let mut prev = 0u64;
    for i in 0..n {
        let v = codec::read_varint64(buf, pos)?;
        let t = if i == 0 {
            v
        } else {
            prev.checked_add(v).ok_or_else(|| Error::Corrupt {
                reason: "ticket delta overflows u64".into(),
                offset: Some(*pos),
            })?
        };
        if i > 0 && v == 0 {
            return Err(Error::Corrupt {
                reason: "zero ticket delta: duplicate ticket".into(),
                offset: Some(*pos),
            });
        }
        out.push(t);
        prev = t;
    }
    Ok(out)
}

impl WalRecord {
    /// Encodes the record payload (without framing) into `buf`.
    fn encode_payload(&self, buf: &mut Vec<u8>) {
        match self {
            WalRecord::Stage { ticket, batch } => {
                buf.push(TAG_STAGE);
                codec::write_varint64(buf, *ticket);
                encode_batch(buf, batch);
            }
            WalRecord::Commit { version, tickets } => {
                buf.push(TAG_COMMIT);
                codec::write_varint64(buf, *version);
                encode_tickets(buf, tickets);
            }
            WalRecord::Abort { tickets } => {
                buf.push(TAG_ABORT);
                encode_tickets(buf, tickets);
            }
        }
    }

    /// Decodes one record payload (the bytes inside a frame).
    fn decode_payload(payload: &[u8]) -> Result<Self> {
        let mut pos = 0usize;
        let Some(&tag) = payload.first() else {
            return Err(Error::Corrupt {
                reason: "empty WAL record payload".into(),
                offset: Some(0),
            });
        };
        pos += 1;
        let record = match tag {
            TAG_STAGE => {
                let ticket = codec::read_varint64(payload, &mut pos)?;
                let batch = decode_batch(payload, &mut pos)?;
                WalRecord::Stage { ticket, batch }
            }
            TAG_COMMIT => {
                let version = codec::read_varint64(payload, &mut pos)?;
                let tickets = decode_tickets(payload, &mut pos)?;
                WalRecord::Commit { version, tickets }
            }
            TAG_ABORT => {
                let tickets = decode_tickets(payload, &mut pos)?;
                WalRecord::Abort { tickets }
            }
            other => {
                return Err(Error::Corrupt {
                    reason: format!("unknown WAL record tag {other}"),
                    offset: Some(0),
                })
            }
        };
        if pos != payload.len() {
            return Err(Error::Corrupt {
                reason: "trailing bytes after WAL record".into(),
                offset: Some(pos),
            });
        }
        Ok(record)
    }

    /// Appends the framed encoding (`len` + `crc` + payload) to `buf`.
    pub fn encode_framed(&self, buf: &mut Vec<u8>) {
        let start = buf.len();
        buf.extend_from_slice(&[0u8; FRAME_HEADER]);
        self.encode_payload(buf);
        let payload = &buf[start + FRAME_HEADER..];
        let len = payload.len() as u32;
        let crc = crc32(payload);
        buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
        buf[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
    }

    /// The framed encoding as a fresh buffer.
    pub fn to_framed_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_framed(&mut buf);
        buf
    }
}

/// The outcome of scanning one WAL segment: every record in the valid
/// prefix, plus the typed reason the tail (if any) was dropped.
#[derive(Debug)]
pub struct WalScan {
    /// Records decoded from the valid prefix, in file order.
    pub records: Vec<WalRecord>,
    /// Bytes of the valid prefix (everything at and after this offset was
    /// dropped).
    pub valid_len: usize,
    /// Why the scan stopped early — `None` when the whole segment parsed.
    pub tail_error: Option<Error>,
}

/// Scans a WAL segment: decodes frames until EOF or the first frame that
/// is truncated, fails its CRC, or does not decode, then stops. Never
/// panics and never returns `Err`; a bad tail is reported in
/// [`WalScan::tail_error`] with the frame's byte offset, and every record
/// before it is kept.
pub fn read_records(bytes: &[u8]) -> WalScan {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let mut tail_error = None;
    while pos < bytes.len() {
        let remaining = bytes.len() - pos;
        if remaining < FRAME_HEADER {
            tail_error = Some(Error::Corrupt {
                reason: format!("torn WAL frame header ({remaining} bytes)"),
                offset: Some(pos),
            });
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if len > remaining - FRAME_HEADER {
            tail_error = Some(Error::Corrupt {
                reason: format!(
                    "torn WAL record: frame wants {len} payload bytes, {} remain",
                    remaining - FRAME_HEADER
                ),
                offset: Some(pos),
            });
            break;
        }
        let payload = &bytes[pos + FRAME_HEADER..pos + FRAME_HEADER + len];
        if crc32(payload) != crc {
            tail_error = Some(Error::Corrupt {
                reason: "WAL record CRC mismatch".into(),
                offset: Some(pos),
            });
            break;
        }
        match WalRecord::decode_payload(payload) {
            Ok(record) => records.push(record),
            Err(e) => {
                // A CRC-valid but undecodable payload still ends the
                // trustworthy prefix (writer bug or targeted corruption).
                tail_error = Some(match e {
                    Error::Corrupt { reason, offset } => Error::Corrupt {
                        reason,
                        offset: Some(pos + FRAME_HEADER + offset.unwrap_or(0)),
                    },
                    other => other,
                });
                break;
            }
        }
        pos += FRAME_HEADER + len;
    }
    WalScan {
        records,
        valid_len: pos,
        tail_error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx(items: &[u32]) -> Transaction {
        Transaction::from_items(items.iter().copied())
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Stage {
                ticket: 0,
                batch: UpdateBatch::insert_only(vec![tx(&[1, 2, 3]), tx(&[2])]),
            },
            WalRecord::Stage {
                ticket: 1,
                batch: UpdateBatch {
                    inserts: vec![tx(&[5, 9])],
                    deletes: vec![Tid(0), Tid(2)],
                },
            },
            WalRecord::Commit {
                version: 1,
                tickets: vec![0, 1],
            },
            WalRecord::Stage {
                ticket: 2,
                batch: UpdateBatch::delete_only(vec![Tid(4)]),
            },
            WalRecord::Abort { tickets: vec![2] },
        ]
    }

    fn encode_all(records: &[WalRecord]) -> Vec<u8> {
        let mut buf = Vec::new();
        for r in records {
            r.encode_framed(&mut buf);
        }
        buf
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414f_a339
        );
    }

    /// The CRC a byte and a bit at a time, straight from the polynomial:
    /// the reference the sliced tables must reproduce.
    fn crc32_reference(bytes: &[u8]) -> u32 {
        let mut c = 0xffff_ffffu32;
        for &b in bytes {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xedb8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        !c
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Slicing-by-8 is byte-identical to the reference on any input
        /// length 0–4 096 (every tail length past the 8-byte words) and
        /// from any start offset within a word.
        #[test]
        fn sliced_crc32_matches_the_reference(
            bytes in proptest::collection::vec(0u8..=255, 0..4_104),
            start in 0usize..8,
        ) {
            let slice = &bytes[start.min(bytes.len())..];
            proptest::prop_assert_eq!(crc32(slice), crc32_reference(slice));
        }
    }

    #[test]
    fn records_roundtrip_through_frames() {
        let records = sample_records();
        let buf = encode_all(&records);
        let scan = read_records(&buf);
        assert!(scan.tail_error.is_none());
        assert_eq!(scan.valid_len, buf.len());
        assert_eq!(scan.records, records);
    }

    #[test]
    fn empty_log_scans_clean() {
        let scan = read_records(&[]);
        assert!(scan.records.is_empty());
        assert!(scan.tail_error.is_none());
        assert_eq!(scan.valid_len, 0);
    }

    #[test]
    fn every_truncation_point_drops_only_the_tail() {
        let records = sample_records();
        let buf = encode_all(&records);
        // Frame boundaries: prefix lengths at which the log is whole.
        let mut boundaries = vec![0usize];
        {
            let mut pos = 0;
            while pos < buf.len() {
                let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
                pos += FRAME_HEADER + len;
                boundaries.push(pos);
            }
        }
        for cut in 0..=buf.len() {
            let scan = read_records(&buf[..cut]);
            let whole = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(scan.records.len(), whole, "cut at {cut}");
            assert_eq!(scan.records[..], records[..whole], "cut at {cut}");
            if boundaries.contains(&cut) {
                assert!(scan.tail_error.is_none(), "cut at {cut}");
            } else {
                let err = scan.tail_error.expect("mid-frame cut must report");
                assert!(matches!(
                    err,
                    Error::Corrupt {
                        offset: Some(_),
                        ..
                    }
                ));
            }
        }
    }

    #[test]
    fn flipped_byte_fails_crc_and_stops_scan() {
        let records = sample_records();
        let buf = encode_all(&records);
        for offset in 0..buf.len() {
            let mut corrupted = buf.clone();
            corrupted[offset] = !corrupted[offset];
            let scan = read_records(&corrupted);
            // Never a panic; never *more* records than were written, and
            // the surviving prefix matches the original records.
            assert!(scan.records.len() <= records.len());
            for (got, want) in scan.records.iter().zip(&records) {
                if got != want {
                    // A flip inside a length header can shift framing so a
                    // later "record" decodes differently — but only when
                    // the CRC happens to collide, which it does not here.
                    panic!("byte {offset}: surviving record diverged");
                }
            }
        }
    }

    #[test]
    fn commit_and_abort_ticket_lists_roundtrip_sparse() {
        let r = WalRecord::Commit {
            version: 42,
            tickets: vec![3, 4, 100, 10_000_000_007],
        };
        let buf = r.to_framed_bytes();
        let scan = read_records(&buf);
        assert_eq!(scan.records, vec![r]);
        let r = WalRecord::Abort {
            tickets: Vec::new(),
        };
        let scan = read_records(&r.to_framed_bytes());
        assert_eq!(scan.records, vec![r]);
    }

    #[test]
    fn unknown_tag_and_trailing_bytes_are_corrupt_not_panic() {
        // Hand-build a CRC-valid frame with a bogus tag.
        let payload = [9u8, 1, 2, 3];
        let mut buf = (payload.len() as u32).to_le_bytes().to_vec();
        buf.extend_from_slice(&crc32(&payload).to_le_bytes());
        buf.extend_from_slice(&payload);
        let scan = read_records(&buf);
        assert!(scan.records.is_empty());
        assert!(matches!(scan.tail_error, Some(Error::Corrupt { .. })));
    }
}
