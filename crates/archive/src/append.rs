//! Crash-consistent appendable archives: journaled, tile-aligned row
//! appends with verified recovery.
//!
//! The paper's archives are living collections — new imagery and weather
//! pages arrive continuously. [`AppendableArchive`] makes ingestion
//! crash-safe with the classic write-ahead discipline:
//!
//! 1. **Journal first.** An appended row band is framed and persisted to
//!    the [`AppendJournal`] *before* any
//!    in-memory state changes. The frame's trailing commit checksum is
//!    the durability point.
//! 2. **Apply second.** Only after the frame is durable is the band
//!    spliced onto the committed grid and the commit epoch bumped.
//! 3. **Recover by replay.** After a crash
//!    ([`WriteFault`](crate::fault::WriteFault)), [`recover`](AppendableArchive::recover)
//!    replays the surviving journal bytes onto the base grid, truncates
//!    at the first invalid frame, and restores *exactly* the committed
//!    prefix — bit-identical to an archive freshly built from those
//!    bands (property-tested in `tests/append_props.rs`).
//!
//! Appends are **tile-row aligned**: the base grid and every band have a
//! row count that is a multiple of the tile size, so appends add whole
//! tile rows and never rewrite a committed page. That is what makes the
//! committed prefix immutable — page `p` of epoch `e` has the same bytes
//! in every later epoch, which the snapshot layer (`mbir-core`) relies on
//! for isolation.

use crate::error::ArchiveError;
use crate::grid::Grid2;
use crate::journal::{recover, AppendJournal, RecoveredJournal, TruncationReason};
use crate::tile::TileStore;

/// Receipt for one committed append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendCommit {
    /// Journal sequence number of the committed frame.
    pub seq: u64,
    /// Commit epoch after this append (== seq + 1; epoch 0 is the base).
    pub epoch: u64,
    /// Absolute row index where the band landed.
    pub row_offset: usize,
    /// Rows appended.
    pub rows: usize,
}

/// How a recovery replay ended.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Appends restored (the recovered commit epoch).
    pub applied: u64,
    /// Byte length of the valid committed journal prefix.
    pub committed_bytes: usize,
    /// Journal bytes discarded past the committed prefix.
    pub dropped_bytes: usize,
    /// Why the journal scan stopped.
    pub truncation: TruncationReason,
}

/// A grid archive that grows by journaled, tile-aligned row appends.
///
/// # Examples
///
/// ```
/// use mbir_archive::append::AppendableArchive;
/// use mbir_archive::grid::Grid2;
///
/// let base = Grid2::filled(4, 8, 0.0);
/// let mut arch = AppendableArchive::new(base.clone(), 4).unwrap();
/// let commit = arch.append_rows(Grid2::filled(4, 8, 1.0)).unwrap();
/// assert_eq!(commit.epoch, 1);
/// assert_eq!(arch.rows(), 8);
///
/// // A crash later: replaying the journal restores the committed state.
/// let (rec, report) = AppendableArchive::recover(base, 4, arch.journal_bytes()).unwrap();
/// assert_eq!(report.applied, 1);
/// assert_eq!(rec.grid(), arch.grid());
/// ```
#[derive(Debug, Clone)]
pub struct AppendableArchive {
    tile: usize,
    grid: Grid2<f64>,
    journal: AppendJournal,
    epoch: u64,
}

impl AppendableArchive {
    /// Wraps a base grid for appending with the given tile size.
    ///
    /// # Errors
    ///
    /// [`ArchiveError::AppendMisaligned`] when the base row count is not
    /// a multiple of `tile` (appends must start on a tile boundary so
    /// committed pages are never rewritten), or when `tile` is zero.
    pub fn new(base: Grid2<f64>, tile: usize) -> Result<Self, ArchiveError> {
        if tile == 0 {
            return Err(ArchiveError::AppendMisaligned(
                "tile size must be > 0".into(),
            ));
        }
        if !base.rows().is_multiple_of(tile) {
            return Err(ArchiveError::AppendMisaligned(format!(
                "base rows {} not a multiple of tile {}",
                base.rows(),
                tile
            )));
        }
        Ok(AppendableArchive {
            tile,
            grid: base,
            journal: AppendJournal::new(),
            epoch: 0,
        })
    }

    /// Arms a write fault on the underlying journal (builder style) — the
    /// chaos harness's crash injection point.
    pub fn with_write_fault(mut self, fault: crate::fault::WriteFault) -> Self {
        self.journal = std::mem::take(&mut self.journal).with_write_fault(fault);
        self
    }

    /// Appends a band of rows at the bottom of the archive: journals the
    /// frame first, then applies it, then bumps the commit epoch.
    ///
    /// # Errors
    ///
    /// [`ArchiveError::AppendMisaligned`] when the band's width differs
    /// from the archive's or its height is not a whole number of tile
    /// rows — nothing is written. [`ArchiveError::JournalCrashed`] when
    /// an armed write fault fires (or already fired): the in-memory state
    /// is unchanged and the archive accepts no further appends, exactly
    /// like a dead process.
    pub fn append_rows(&mut self, band: Grid2<f64>) -> Result<AppendCommit, ArchiveError> {
        if band.cols() != self.grid.cols() {
            return Err(ArchiveError::AppendMisaligned(format!(
                "band width {} != archive width {}",
                band.cols(),
                self.grid.cols()
            )));
        }
        if band.rows() == 0 || !band.rows().is_multiple_of(self.tile) {
            return Err(ArchiveError::AppendMisaligned(format!(
                "band height {} not a positive multiple of tile {}",
                band.rows(),
                self.tile
            )));
        }
        let row_offset = self.grid.rows();
        let seq = self.journal.append(row_offset, &band)?;
        self.grid
            .push_rows(&band)
            .expect("band width validated above");
        self.epoch += 1;
        Ok(AppendCommit {
            seq,
            epoch: self.epoch,
            row_offset,
            rows: band.rows(),
        })
    }

    /// Replays journal bytes onto `base`, restoring exactly the committed
    /// prefix.
    ///
    /// Beyond the journal-level frame verification
    /// ([`crate::journal::recover`]), each committed record must also
    /// splice contiguously (its `row_offset` equals the current row
    /// count, its width and tile alignment match); a record that verifies
    /// but does not fit is treated as the start of the invalid suffix,
    /// reported as [`TruncationReason::BadGeometry`].
    ///
    /// # Errors
    ///
    /// [`ArchiveError::AppendMisaligned`] when `base`/`tile` themselves
    /// are invalid (as in [`new`](Self::new)).
    pub fn recover(
        base: Grid2<f64>,
        tile: usize,
        journal_bytes: &[u8],
    ) -> Result<(Self, RecoveryReport), ArchiveError> {
        let mut arch = AppendableArchive::new(base, tile)?;
        let RecoveredJournal {
            records,
            mut committed_bytes,
            mut dropped_bytes,
            mut truncation,
        } = recover(journal_bytes);
        let mut replayed = AppendJournal::new();
        for record in records {
            let fits = record.row_offset == arch.grid.rows()
                && record.band.cols() == arch.grid.cols()
                && record.band.rows() % tile == 0;
            if !fits {
                let tail = committed_bytes;
                committed_bytes = replayed.bytes().len();
                dropped_bytes += tail - committed_bytes;
                truncation = TruncationReason::BadGeometry;
                break;
            }
            replayed
                .append(record.row_offset, &record.band)
                .expect("fresh journal cannot be crashed");
            arch.grid
                .push_rows(&record.band)
                .expect("record width validated above");
            arch.epoch += 1;
        }
        arch.journal = replayed;
        let report = RecoveryReport {
            applied: arch.epoch,
            committed_bytes,
            dropped_bytes,
            truncation,
        };
        Ok((arch, report))
    }

    /// The committed grid (base plus every committed band).
    pub fn grid(&self) -> &Grid2<f64> {
        &self.grid
    }

    /// Committed rows.
    pub fn rows(&self) -> usize {
        self.grid.rows()
    }

    /// Archive width.
    pub fn cols(&self) -> usize {
        self.grid.cols()
    }

    /// Tile size appends are aligned to.
    pub fn tile(&self) -> usize {
        self.tile
    }

    /// Commit epoch: number of committed appends (0 = base only).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// True once an armed write fault has fired.
    pub fn has_crashed(&self) -> bool {
        self.journal.has_crashed()
    }

    /// The persisted journal bytes — what survives a crash.
    pub fn journal_bytes(&self) -> &[u8] {
        self.journal.bytes()
    }

    /// Builds a [`TileStore`] over the committed grid, for paged queries.
    ///
    /// # Errors
    ///
    /// Propagates [`TileStore::new`] validation.
    pub fn store(&self) -> Result<TileStore, ArchiveError> {
        TileStore::new(self.grid.clone(), self.tile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::WriteFault;

    fn base() -> Grid2<f64> {
        Grid2::from_fn(4, 6, |r, c| (r * 6 + c) as f64)
    }

    fn band(seed: f64) -> Grid2<f64> {
        Grid2::from_fn(2, 6, |r, c| seed + (r * 6 + c) as f64 * 0.25)
    }

    #[test]
    fn construction_validates_alignment() {
        assert!(AppendableArchive::new(base(), 2).is_ok());
        assert!(matches!(
            AppendableArchive::new(base(), 0),
            Err(ArchiveError::AppendMisaligned(_))
        ));
        assert!(matches!(
            AppendableArchive::new(base(), 3),
            Err(ArchiveError::AppendMisaligned(_))
        ));
    }

    #[test]
    fn append_rejects_misfit_bands_without_writing() {
        let mut arch = AppendableArchive::new(base(), 2).unwrap();
        let wrong_width = Grid2::filled(2, 5, 0.0);
        assert!(matches!(
            arch.append_rows(wrong_width),
            Err(ArchiveError::AppendMisaligned(_))
        ));
        let wrong_height = Grid2::filled(3, 6, 0.0);
        assert!(matches!(
            arch.append_rows(wrong_height),
            Err(ArchiveError::AppendMisaligned(_))
        ));
        assert_eq!(arch.journal_bytes().len(), 0);
        assert_eq!(arch.epoch(), 0);
    }

    #[test]
    fn appends_commit_and_are_readable() {
        let mut arch = AppendableArchive::new(base(), 2).unwrap();
        let c1 = arch.append_rows(band(100.0)).unwrap();
        assert_eq!((c1.seq, c1.epoch, c1.row_offset, c1.rows), (0, 1, 4, 2));
        let c2 = arch.append_rows(band(200.0)).unwrap();
        assert_eq!((c2.seq, c2.epoch, c2.row_offset), (1, 2, 6));
        assert_eq!(arch.rows(), 8);
        assert_eq!(*arch.grid().at(4, 0), 100.0);
        assert_eq!(*arch.grid().at(6, 3), 200.75);
        // The committed prefix is immutable: the base rows are untouched.
        for r in 0..4 {
            for c in 0..6 {
                assert_eq!(arch.grid().at(r, c), base().at(r, c));
            }
        }
        let store = arch.store().unwrap();
        assert_eq!(store.rows(), 8);
        assert_eq!(store.read(7, 5).unwrap(), *arch.grid().at(7, 5));
    }

    #[test]
    fn recovery_restores_exactly_the_committed_prefix() {
        let mut arch =
            AppendableArchive::new(base(), 2)
                .unwrap()
                .with_write_fault(WriteFault::TornWrite {
                    frame: 2,
                    persisted_bytes: 21,
                });
        arch.append_rows(band(1.0)).unwrap();
        arch.append_rows(band(2.0)).unwrap();
        let err = arch.append_rows(band(3.0)).unwrap_err();
        assert!(matches!(err, ArchiveError::JournalCrashed { .. }));
        assert!(arch.has_crashed());
        // The failed append changed nothing in memory…
        assert_eq!(arch.epoch(), 2);
        assert_eq!(arch.rows(), 8);
        // …and a crashed archive refuses more work.
        assert!(arch.append_rows(band(4.0)).is_err());

        let (rec, report) = AppendableArchive::recover(base(), 2, arch.journal_bytes()).unwrap();
        assert_eq!(report.applied, 2);
        assert_eq!(report.truncation, TruncationReason::TornFrame);
        assert_eq!(report.dropped_bytes, 21);
        assert_eq!(rec.grid(), arch.grid(), "bit-identical committed prefix");
        assert_eq!(rec.epoch(), 2);

        // The recovered archive appends onward seamlessly.
        let mut rec = rec;
        let c = rec.append_rows(band(3.0)).unwrap();
        assert_eq!(c.epoch, 3);
        // Equivalent to a clean archive that never crashed.
        let mut clean = AppendableArchive::new(base(), 2).unwrap();
        for s in [1.0, 2.0, 3.0] {
            clean.append_rows(band(s)).unwrap();
        }
        assert_eq!(rec.grid(), clean.grid());
        assert_eq!(rec.journal_bytes(), clean.journal_bytes());
    }

    #[test]
    fn recovery_stops_at_non_contiguous_records() {
        // Build two journals and splice frame 1 of the second after frame
        // 0 of the first: both frames verify, but the splice replays a
        // band at the wrong row offset. (Seq continuity passes because we
        // take frame 1 after frame 0.)
        let mut a = AppendableArchive::new(base(), 2).unwrap();
        a.append_rows(band(1.0)).unwrap();
        let mut b = AppendableArchive::new(Grid2::filled(8, 6, 0.0), 2).unwrap();
        b.append_rows(band(7.0)).unwrap();
        b.append_rows(band(8.0)).unwrap();
        let frame0 = a.journal_bytes().to_vec();
        let b_bytes = b.journal_bytes();
        let frame1 = &b_bytes[b_bytes.len() / 2..];
        let mut spliced = frame0.clone();
        spliced.extend_from_slice(frame1);
        let (rec, report) = AppendableArchive::recover(base(), 2, &spliced).unwrap();
        assert_eq!(report.applied, 1, "only the contiguous prefix replays");
        assert_eq!(report.truncation, TruncationReason::BadGeometry);
        assert_eq!(report.committed_bytes, frame0.len());
        assert_eq!(rec.rows(), 6);
    }
}
