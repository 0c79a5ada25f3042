//! The checksummed append journal: crash-consistent framing for tile
//! appends.
//!
//! Appendable archives (`LiveArchive` in `mbir-core`) never mutate
//! committed bytes. Every appended row band is first serialized into a
//! self-describing *frame* and persisted to an append-only journal; only
//! once the frame — including its trailing commit checksum — is durable
//! does the append count as committed. A crash can therefore leave exactly
//! one kind of damage: a torn byte *suffix*. Recovery ([`recover`])
//! replays frames from the start, verifies each one, and truncates at the
//! first invalid frame, provably restoring the committed prefix and
//! nothing else.
//!
//! # Frame format
//!
//! All integers little-endian:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "MBJ1"
//! 4       8     seq          (dense from 0; replay order = commit order)
//! 12      8     row_offset   (absolute first row of the band)
//! 20      8     rows         (band height, > 0)
//! 28      8     cols         (band width, > 0)
//! 36      8·n   values       (row-major f64 bit patterns, n = rows·cols)
//! 36+8n   8     commit checksum
//! ```
//!
//! The commit checksum is the frame's durability point and reuses the
//! PR-4 integrity machinery end to end: the band is expanded into
//! absolute-coordinate `(CellCoord, f64)` tuples — the exact shape a
//! [`PageEnvelope`](crate::integrity::PageEnvelope) seals — digested with
//! [`payload_checksum`], and that
//! digest is folded together with the header bytes through
//! [`fnv1a64`]. Covering *absolute*
//! coordinates means a frame whose values survived but whose placement
//! header rotted (wrong `row_offset`) fails verification just like a
//! flipped value bit.
//!
//! # What recovery guarantees
//!
//! For any byte prefix of a journal produced by [`AppendJournal`] —
//! including prefixes cut mid-frame by the write faults of
//! [`WriteFault`] — [`recover`] returns exactly
//! the records whose full frames (checksum included) survived, in seq
//! order, with dense seqs from 0. Everything after the first invalid
//! frame is reported as dropped, never partially applied.

use crate::error::ArchiveError;
use crate::extent::CellCoord;
use crate::fault::WriteFault;
use crate::grid::Grid2;
use crate::integrity::{fnv1a64, payload_checksum};

/// Journal frame magic: ASCII `MBJ1` in file order.
pub const JOURNAL_MAGIC: [u8; 4] = *b"MBJ1";

/// Fixed frame header length in bytes (magic + seq + geometry).
pub const FRAME_HEADER_LEN: usize = 4 + 8 + 8 + 8 + 8;

/// One committed append: a row band placed at an absolute row offset.
#[derive(Debug, Clone, PartialEq)]
pub struct AppendRecord {
    /// Dense commit sequence number (0-based append order).
    pub seq: u64,
    /// Absolute row index of the band's first row.
    pub row_offset: usize,
    /// The appended rows (band height × archive width).
    pub band: Grid2<f64>,
}

impl AppendRecord {
    /// The band expanded into absolute-coordinate tuples — the payload
    /// shape the integrity layer seals and digests.
    pub fn tuples(&self) -> Vec<(CellCoord, f64)> {
        self.band
            .iter()
            .map(|(c, &v)| (CellCoord::new(self.row_offset + c.row, c.col), v))
            .collect()
    }
}

/// Why a recovery scan stopped where it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TruncationReason {
    /// The journal ended exactly on a frame boundary: nothing was lost.
    CleanEnd,
    /// Bytes ran out mid-frame — a torn write or partial record.
    TornFrame,
    /// The next frame did not start with the journal magic.
    BadMagic,
    /// A complete frame's commit checksum did not verify.
    BadChecksum,
    /// A complete frame verified but carried the wrong sequence number.
    BadSequence,
    /// A complete frame declared an impossible geometry: zero rows or
    /// columns, or rows past the end of the `usize` row index space.
    BadGeometry,
}

/// Result of replaying a journal byte prefix.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredJournal {
    /// Committed records in seq order (dense from 0).
    pub records: Vec<AppendRecord>,
    /// Byte length of the valid committed prefix.
    pub committed_bytes: usize,
    /// Bytes past the committed prefix that were discarded.
    pub dropped_bytes: usize,
    /// Why the scan stopped.
    pub truncation: TruncationReason,
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(b)
}

/// The commit checksum of a frame: the integrity-layer payload digest of
/// the band's absolute-coordinate tuples, folded with the header bytes
/// through FNV-1a.
fn commit_checksum(header: &[u8], record: &AppendRecord) -> u64 {
    let payload = payload_checksum(&record.tuples());
    let mut digest_input = Vec::with_capacity(header.len() + 8);
    digest_input.extend_from_slice(header);
    digest_input.extend_from_slice(&payload.to_le_bytes());
    fnv1a64(&digest_input)
}

/// Serializes one record into its on-journal frame.
fn encode_frame(record: &AppendRecord) -> Vec<u8> {
    let n = record.band.rows() * record.band.cols();
    let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + n * 8 + 8);
    frame.extend_from_slice(&JOURNAL_MAGIC);
    put_u64(&mut frame, record.seq);
    put_u64(&mut frame, record.row_offset as u64);
    put_u64(&mut frame, record.band.rows() as u64);
    put_u64(&mut frame, record.band.cols() as u64);
    let checksum = commit_checksum(&frame[..FRAME_HEADER_LEN], record);
    for &v in record.band.as_slice() {
        put_u64(&mut frame, v.to_bits());
    }
    put_u64(&mut frame, checksum);
    frame
}

/// An append-only journal of framed row-band appends, with optional
/// injected write faults.
///
/// The journal owns the "durable bytes" the crash model reasons about:
/// [`append`](Self::append) either persists a whole frame and returns its
/// seq, or — under an armed [`WriteFault`] — persists a torn prefix,
/// latches a crashed state, and fails. A crashed journal accepts no
/// further appends; its surviving bytes are what [`recover`] replays.
///
/// # Examples
///
/// ```
/// use mbir_archive::grid::Grid2;
/// use mbir_archive::journal::{recover, AppendJournal, TruncationReason};
///
/// let mut j = AppendJournal::new();
/// j.append(0, &Grid2::filled(2, 4, 1.0)).unwrap();
/// j.append(2, &Grid2::filled(2, 4, 2.0)).unwrap();
/// let rec = recover(j.bytes());
/// assert_eq!(rec.records.len(), 2);
/// assert_eq!(rec.truncation, TruncationReason::CleanEnd);
/// ```
#[derive(Debug, Clone, Default)]
pub struct AppendJournal {
    buf: Vec<u8>,
    next_seq: u64,
    fault: Option<WriteFault>,
    crashed: bool,
}

impl AppendJournal {
    /// An empty, healthy journal.
    pub fn new() -> Self {
        AppendJournal::default()
    }

    /// Arms a write fault (builder style). At most one fault is armed; it
    /// fires once and leaves the journal crashed.
    pub fn with_write_fault(mut self, fault: WriteFault) -> Self {
        self.fault = Some(fault);
        self
    }

    /// The persisted journal bytes — everything that survives a crash.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Number of fully committed frames.
    #[cfg(test)]
    fn committed_frames(&self) -> u64 {
        self.next_seq
    }

    /// True once an armed write fault has fired; all further appends fail.
    pub fn has_crashed(&self) -> bool {
        self.crashed
    }

    /// Frames and persists one append of `band` at `row_offset`.
    ///
    /// Returns the committed seq. Under an armed [`WriteFault`] that
    /// applies to this append, persists only the fault's byte prefix and
    /// fails with [`ArchiveError::JournalCrashed`]; the append is **not**
    /// committed and the journal accepts nothing further.
    ///
    /// # Errors
    ///
    /// [`ArchiveError::JournalCrashed`] after a crash (immediately, no
    /// bytes written) or when the armed fault fires on this append.
    /// [`ArchiveError::EmptyDimension`] for an empty band.
    pub fn append(&mut self, row_offset: usize, band: &Grid2<f64>) -> Result<u64, ArchiveError> {
        if self.crashed {
            return Err(ArchiveError::JournalCrashed {
                persisted_bytes: self.buf.len(),
            });
        }
        if band.rows() == 0 || band.cols() == 0 {
            return Err(ArchiveError::EmptyDimension);
        }
        let seq = self.next_seq;
        let record = AppendRecord {
            seq,
            row_offset,
            band: band.clone(),
        };
        let frame = encode_frame(&record);
        let cut = match self.fault {
            Some(WriteFault::TornWrite {
                frame: f,
                persisted_bytes,
            }) if f == seq => Some(persisted_bytes.min(frame.len())),
            Some(WriteFault::PartialRecord { frame: f, tuples }) if f == seq => {
                // Header plus whole values, never the trailing checksum.
                let n = record.band.rows() * record.band.cols();
                Some(FRAME_HEADER_LEN + tuples.min(n) * 8)
            }
            Some(WriteFault::CrashAtOffset { offset }) if self.buf.len() + frame.len() > offset => {
                Some(offset.saturating_sub(self.buf.len()).min(frame.len()))
            }
            _ => None,
        };
        match cut {
            Some(persist) => {
                self.buf.extend_from_slice(&frame[..persist]);
                self.crashed = true;
                Err(ArchiveError::JournalCrashed {
                    persisted_bytes: self.buf.len(),
                })
            }
            None => {
                self.buf.extend_from_slice(&frame);
                self.next_seq += 1;
                Ok(seq)
            }
        }
    }
}

/// Replays a journal byte image, truncating at the first invalid frame.
///
/// Accepts *any* byte slice — a cleanly closed journal, a torn prefix
/// left by a crash, or garbage — and returns exactly the committed
/// records (dense seqs from 0, every commit checksum verified) together
/// with where and why the scan stopped. The committed prefix is closed
/// under this function: `recover(&bytes[..r.committed_bytes])` returns
/// the same records with [`TruncationReason::CleanEnd`].
pub fn recover(bytes: &[u8]) -> RecoveredJournal {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let mut expected_seq = 0u64;
    let truncation = loop {
        if pos == bytes.len() {
            break TruncationReason::CleanEnd;
        }
        let rest = &bytes[pos..];
        if rest.len() < FRAME_HEADER_LEN {
            break TruncationReason::TornFrame;
        }
        if rest[..4] != JOURNAL_MAGIC {
            break TruncationReason::BadMagic;
        }
        let seq = read_u64(rest, 4);
        let row_offset = read_u64(rest, 12);
        let rows = read_u64(rest, 20);
        let cols = read_u64(rest, 28);
        // Geometry first as a length sanity check: a torn header can
        // claim an astronomic payload, which must not overflow the
        // length arithmetic below.
        let Some(n) = rows.checked_mul(cols) else {
            break TruncationReason::TornFrame;
        };
        let Some(frame_len) = n
            .checked_mul(8)
            .and_then(|p| p.checked_add((FRAME_HEADER_LEN + 8) as u64))
        else {
            break TruncationReason::TornFrame;
        };
        if frame_len > rest.len() as u64 {
            break TruncationReason::TornFrame;
        }
        let frame_len = frame_len as usize;
        if rows == 0 || cols == 0 {
            break TruncationReason::BadGeometry;
        }
        // `AppendRecord::tuples` places local row `r` at `row_offset + r`,
        // so the band's last row must fit the row index space. `rows` fits
        // `usize`: the frame's values are in `rest`.
        let Some(row_offset) = usize::try_from(row_offset)
            .ok()
            .filter(|o| o.checked_add(rows as usize).is_some())
        else {
            break TruncationReason::BadGeometry;
        };
        let values: Vec<f64> = (0..n as usize)
            .map(|i| f64::from_bits(read_u64(rest, FRAME_HEADER_LEN + i * 8)))
            .collect();
        let band = Grid2::from_vec(rows as usize, cols as usize, values)
            .expect("length matches geometry by construction");
        let record = AppendRecord {
            seq,
            row_offset,
            band,
        };
        let stored = read_u64(rest, frame_len - 8);
        if commit_checksum(&rest[..FRAME_HEADER_LEN], &record) != stored {
            break TruncationReason::BadChecksum;
        }
        if seq != expected_seq {
            break TruncationReason::BadSequence;
        }
        records.push(record);
        expected_seq += 1;
        pos += frame_len;
    };
    RecoveredJournal {
        records,
        committed_bytes: pos,
        dropped_bytes: bytes.len() - pos,
        truncation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn band(rows: usize, cols: usize, seed: f64) -> Grid2<f64> {
        Grid2::from_fn(rows, cols, |r, c| seed + (r * cols + c) as f64 * 0.5)
    }

    fn journal_with(n: usize) -> AppendJournal {
        let mut j = AppendJournal::new();
        let mut offset = 0;
        for i in 0..n {
            j.append(offset, &band(2, 4, i as f64 * 10.0)).unwrap();
            offset += 2;
        }
        j
    }

    #[test]
    fn clean_journal_recovers_everything() {
        let j = journal_with(3);
        let rec = recover(j.bytes());
        assert_eq!(rec.truncation, TruncationReason::CleanEnd);
        assert_eq!(rec.records.len(), 3);
        assert_eq!(rec.committed_bytes, j.bytes().len());
        assert_eq!(rec.dropped_bytes, 0);
        for (i, r) in rec.records.iter().enumerate() {
            assert_eq!(r.seq, i as u64);
            assert_eq!(r.row_offset, i * 2);
            assert_eq!(r.band, band(2, 4, i as f64 * 10.0));
        }
        assert_eq!(recover(&[]).truncation, TruncationReason::CleanEnd);
    }

    #[test]
    fn every_torn_byte_offset_recovers_the_committed_prefix() {
        let j = journal_with(3);
        let bytes = j.bytes();
        let frame_len = bytes.len() / 3;
        for cut in 0..bytes.len() {
            let rec = recover(&bytes[..cut]);
            let full_frames = cut / frame_len;
            assert_eq!(
                rec.records.len(),
                full_frames,
                "cut at byte {cut} of {frame_len}-byte frames"
            );
            assert_eq!(rec.committed_bytes, full_frames * frame_len);
            if cut % frame_len == 0 {
                assert_eq!(rec.truncation, TruncationReason::CleanEnd);
            } else {
                assert_ne!(rec.truncation, TruncationReason::CleanEnd);
                // Recovery is idempotent: the committed prefix is clean.
                let again = recover(&bytes[..rec.committed_bytes]);
                assert_eq!(again.truncation, TruncationReason::CleanEnd);
                assert_eq!(again.records, rec.records);
            }
        }
    }

    #[test]
    fn torn_write_fault_crashes_and_preserves_prefix() {
        let mut j = AppendJournal::new().with_write_fault(WriteFault::TornWrite {
            frame: 1,
            persisted_bytes: 13,
        });
        j.append(0, &band(2, 4, 0.0)).unwrap();
        let err = j.append(2, &band(2, 4, 1.0)).unwrap_err();
        assert!(matches!(err, ArchiveError::JournalCrashed { .. }));
        assert!(j.has_crashed());
        assert_eq!(j.committed_frames(), 1);
        // Crashed journals refuse further appends without writing bytes.
        let len = j.bytes().len();
        assert!(j.append(2, &band(2, 4, 2.0)).is_err());
        assert_eq!(j.bytes().len(), len);
        let rec = recover(j.bytes());
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.truncation, TruncationReason::TornFrame);
        assert_eq!(rec.dropped_bytes, 13);
    }

    #[test]
    fn partial_record_fault_cuts_at_tuple_boundary() {
        let mut j = AppendJournal::new().with_write_fault(WriteFault::PartialRecord {
            frame: 0,
            tuples: 3,
        });
        assert!(j.append(0, &band(2, 4, 5.0)).is_err());
        assert_eq!(j.bytes().len(), FRAME_HEADER_LEN + 3 * 8);
        let rec = recover(j.bytes());
        assert!(rec.records.is_empty());
        assert_eq!(rec.truncation, TruncationReason::TornFrame);
    }

    #[test]
    fn crash_at_offset_fires_on_the_crossing_append() {
        let frame_len = encode_frame(&AppendRecord {
            seq: 0,
            row_offset: 0,
            band: band(2, 4, 0.0),
        })
        .len();
        let mut j = AppendJournal::new().with_write_fault(WriteFault::CrashAtOffset {
            offset: frame_len + 7,
        });
        j.append(0, &band(2, 4, 0.0)).unwrap();
        assert!(j.append(2, &band(2, 4, 1.0)).is_err());
        assert_eq!(j.bytes().len(), frame_len + 7);
        let rec = recover(j.bytes());
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.truncation, TruncationReason::TornFrame);
    }

    #[test]
    fn corrupted_header_or_payload_is_detected() {
        let j = journal_with(2);
        let frame_len = j.bytes().len() / 2;
        // Flip one payload byte of frame 1: checksum catches it.
        let mut bytes = j.bytes().to_vec();
        bytes[frame_len + FRAME_HEADER_LEN + 3] ^= 0x40;
        let rec = recover(&bytes);
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.truncation, TruncationReason::BadChecksum);
        // A rotted placement header (row_offset) fails the same way even
        // though every value byte is intact.
        let mut bytes = j.bytes().to_vec();
        bytes[frame_len + 12] ^= 0x01;
        assert_eq!(recover(&bytes).truncation, TruncationReason::BadChecksum);
        // A clobbered magic stops the scan before decoding.
        let mut bytes = j.bytes().to_vec();
        bytes[frame_len] = b'X';
        assert_eq!(recover(&bytes).truncation, TruncationReason::BadMagic);
    }

    #[test]
    fn duplicated_frame_fails_sequence_check() {
        let j = journal_with(1);
        let mut bytes = j.bytes().to_vec();
        let copy = bytes.clone();
        bytes.extend_from_slice(&copy);
        // The duplicate frame verifies (it is byte-identical) but replays
        // seq 0 where seq 1 is required.
        let rec = recover(&bytes);
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.truncation, TruncationReason::BadSequence);
    }

    #[test]
    fn astronomic_geometry_does_not_overflow() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&JOURNAL_MAGIC);
        for v in [0u64, 0, u64::MAX, u64::MAX] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        bytes.extend_from_slice(&[0u8; 64]);
        let rec = recover(&bytes);
        assert!(rec.records.is_empty());
        assert_eq!(rec.truncation, TruncationReason::TornFrame);
    }

    #[test]
    fn rows_past_the_row_index_space_are_bad_geometry() {
        // Two rows at the last row index: row 1 would sit at
        // `u64::MAX + 1`. Rejected before the checksum is computed, so the
        // stored checksum does not matter.
        let mut bytes = JOURNAL_MAGIC.to_vec();
        for v in [0, u64::MAX, 2, 1, 1.5f64.to_bits(), 2.5f64.to_bits(), 0] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let rec = recover(&bytes);
        assert!(rec.records.is_empty());
        assert_eq!(rec.truncation, TruncationReason::BadGeometry);
        assert_eq!((rec.committed_bytes, rec.dropped_bytes), (0, bytes.len()));
    }

    /// Header values that stress the length and row arithmetic.
    const EXTREMES: [u64; 5] = [0, 1, 2, u32::MAX as u64, u64::MAX];

    /// A real journal of one to three tile-aligned appends below a 4x4
    /// base (tile 2), with bytes flipped at `flips` and, for a `cut` below
    /// 2^15, truncated.
    fn damaged_journal(heights: &[usize], flips: &[usize], cut: usize) -> Vec<u8> {
        let mut journal = AppendJournal::new();
        let mut row_offset = 4;
        for (i, &h) in heights.iter().enumerate() {
            journal
                .append(row_offset, &band(2 * h, 4, i as f64))
                .unwrap();
            row_offset += 2 * h;
        }
        let mut bytes = journal.bytes().to_vec();
        for &at in flips {
            let len = bytes.len();
            bytes[at % len] ^= (at >> 12) as u8 | 1;
        }
        if cut < 1 << 15 {
            bytes.truncate(cut % (bytes.len() + 1));
        }
        bytes
    }

    /// Magic, seq 0 and the picked geometry, then `tail`, padded to a
    /// complete frame when the geometry is small enough to have one.
    fn extreme_header(picks: &[usize], tail: &[u8]) -> Vec<u8> {
        let [row_offset, rows, cols] = [0, 1, 2].map(|i| EXTREMES[picks[i]]);
        let mut bytes = JOURNAL_MAGIC.to_vec();
        for v in [0, row_offset, rows, cols] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        bytes.extend_from_slice(tail);
        let n = rows.saturating_mul(cols);
        if n <= 64 {
            bytes.resize(bytes.len().max(FRAME_HEADER_LEN + 8 * n as usize + 8), 0);
        }
        bytes
    }

    /// What `recover` promises for any byte slice.
    fn check_recovery(bytes: &[u8]) {
        let rec = recover(bytes);
        assert_eq!(rec.committed_bytes + rec.dropped_bytes, bytes.len());
        for (i, r) in rec.records.iter().enumerate() {
            assert_eq!(r.seq, i as u64);
        }
        let again = recover(&bytes[..rec.committed_bytes]);
        assert_eq!(again.truncation, TruncationReason::CleanEnd);
        // Frames compare bit for bit, NaN payloads included.
        let frames = |r: &RecoveredJournal| r.records.iter().map(encode_frame).collect::<Vec<_>>();
        assert_eq!(frames(&again), frames(&rec));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Every case feeds the decoder all three kinds of input: garbage,
        /// a damaged real journal, and a header of extreme geometry.
        #[test]
        fn recover_never_panics_and_keeps_its_contract(
            raw in proptest::collection::vec(0u16..256, 0..512),
            heights in proptest::collection::vec(1usize..3, 1..4),
            flips in proptest::collection::vec(0usize..1 << 20, 0..6),
            cut in 0usize..1 << 16,
            picks in proptest::collection::vec(0usize..5, 3),
        ) {
            let raw: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
            check_recovery(&raw);
            check_recovery(&damaged_journal(&heights, &flips, cut));
            check_recovery(&extreme_header(&picks, &raw));
        }
    }

    #[test]
    fn empty_band_is_rejected_before_any_byte() {
        let mut j = AppendJournal::new();
        let empty = Grid2::<f64>::from_vec(0, 0, Vec::new());
        // Grid2 refuses zero dimensions itself; exercise the journal's own
        // guard through a 0-row grid if constructible, else skip.
        if let Ok(g) = empty {
            assert_eq!(j.append(0, &g), Err(ArchiveError::EmptyDimension));
        }
        assert_eq!(j.bytes().len(), 0);
    }
}
