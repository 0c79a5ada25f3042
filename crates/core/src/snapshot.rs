//! Snapshot-isolated live archives: crash-consistent appends published as
//! immutable epochs.
//!
//! [`LiveArchive`] is the append path: a multi-attribute grid archive
//! that grows by journaled ([`mbir_archive::journal`]), tile-row-aligned
//! appends and publishes every committed state as an immutable,
//! `Arc`-shared [`EpochSnapshot`]. Queries — sequential,
//! parallel, batched, or sharded — run against a snapshot and therefore
//! against exactly one committed prefix, no matter how many appends land
//! while they execute.
//!
//! # The publish protocol
//!
//! An append commits in three strictly ordered steps:
//!
//! 1. **Journal durable** — every attribute's band is framed and
//!    checksummed into one shared [`AppendJournal`] (one record per
//!    attribute, all carrying the same row offset). A crash here (an armed
//!    [`WriteFault`]) leaves at most a
//!    torn suffix that recovery provably truncates.
//! 2. **Build aside** — the next epoch is derived from the published one
//!    by structural sharing: each pyramid is a pointer-copy `clone()` of
//!    the published pyramid patched by
//!    [`AggregatePyramid::extend_rows`] (bit-identical to a full
//!    rebuild), each store is [`TileStore::extended`] by the band. Shared
//!    between the two epochs: every pyramid chunk wholly before the dirty
//!    frontier and every store segment. Written anew: the band's own
//!    cells, and per pyramid level the one chunk the frontier falls in
//!    (copy-on-write — the published chunk is never touched). So an
//!    append costs O(band) time, a retained epoch O(band) memory plus
//!    those boundary chunks, and nothing a reader holds ever changes.
//!    Nothing is visible to readers yet.
//! 3. **Swap** — one atomic pointer swap publishes the new
//!    [`EpochSnapshot`]. A reader observes either the old epoch or the
//!    new one, complete — never a half-built state.
//!
//! Because appends are tile-row aligned, every page of a committed prefix
//! is immutable — a band never completes a ragged tile row, so no store
//! segment is ever written after it is published, and epochs can share
//! segments outright. Snapshots of different epochs therefore share page
//! *contents* for their common prefix, which is what lets
//! [`CachedTileSource::advance_epoch`](crate::source::CachedTileSource::advance_epoch)
//! keep prefix pages cached across commits and invalidate only the append
//! frontier.
//!
//! # Crash recovery
//!
//! [`LiveArchive::recover`] replays a journal onto the base grids. The
//! journal layer truncates at the first invalid frame
//! ([`mbir_archive::journal::recover`]); on top of that, a commit here is
//! a *group* of one record per attribute, so a crash that lands between
//! two attribute records leaves a trailing partial group that recovery
//! also drops (counted separately in [`LiveRecoveryReport`]). The result
//! is exactly the committed-epoch prefix: bit-identical grids, pyramids,
//! and journal bytes to an archive that never crashed.

use crate::error::CoreError;
use mbir_archive::fault::WriteFault;
use mbir_archive::grid::Grid2;
use mbir_archive::journal::{recover as recover_journal, AppendJournal, TruncationReason};
use mbir_archive::stats::AccessStats;
use mbir_archive::tile::TileStore;
use mbir_progressive::pyramid::AggregatePyramid;
use std::sync::{Arc, Mutex};

/// Identifier of one committed prefix: the commit epoch (0 = base) and the
/// row high-water mark it covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotEpoch {
    /// Commit epoch: number of committed appends since the base.
    pub epoch: u64,
    /// Committed rows (every attribute has exactly this many).
    pub rows: usize,
}

/// One published epoch: the pyramids and tile stores of a committed
/// prefix, immutable and shareable across threads.
///
/// Every engine family runs against a snapshot: build a
/// [`TileSource`](crate::source::TileSource) or
/// [`CachedTileSource`](crate::source::CachedTileSource) over
/// [`stores`](Self::stores) and pass [`pyramids`](Self::pyramids) to the
/// sequential, parallel, batched, or sharded entry points.
#[derive(Debug)]
pub struct EpochSnapshot {
    epoch: SnapshotEpoch,
    pyramids: Vec<AggregatePyramid>,
    stores: Vec<TileStore>,
}

impl EpochSnapshot {
    /// The epoch this snapshot publishes.
    pub fn epoch(&self) -> SnapshotEpoch {
        self.epoch
    }

    /// Committed rows visible to this snapshot.
    pub fn rows(&self) -> usize {
        self.epoch.rows
    }

    /// Per-attribute aggregate pyramids over exactly the committed prefix.
    pub fn pyramids(&self) -> &[AggregatePyramid] {
        &self.pyramids
    }

    /// Per-attribute tile stores over exactly the committed prefix.
    pub fn stores(&self) -> &[TileStore] {
        &self.stores
    }

    /// Convenience strict-resilient query against this snapshot: a
    /// [`TileSource`](crate::source::TileSource) over the snapshot stores
    /// driving [`resilient_top_k`](crate::resilient::resilient_top_k).
    ///
    /// # Errors
    ///
    /// Same as [`resilient_top_k`](crate::resilient::resilient_top_k).
    pub fn query_top_k(
        &self,
        model: &mbir_models::linear::LinearModel,
        k: usize,
        budget: &crate::resilient::ExecutionBudget,
    ) -> Result<crate::resilient::ResilientTopK, CoreError> {
        let source = crate::source::TileSource::new(&self.stores)?;
        crate::resilient::resilient_top_k(model, &self.pyramids, k, &source, budget)
    }
}

/// A cloneable handle to the latest published snapshot — what reader
/// threads hold while a writer keeps appending.
#[derive(Debug, Clone)]
pub struct SnapshotHandle {
    published: Arc<Mutex<Arc<EpochSnapshot>>>,
}

impl SnapshotHandle {
    /// The latest published snapshot (a cheap `Arc` clone; the brief lock
    /// covers only the pointer read, never a build).
    pub fn current(&self) -> Arc<EpochSnapshot> {
        Arc::clone(&self.published.lock().expect("snapshot swap lock"))
    }
}

/// How a [`LiveArchive::recover`] replay ended.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveRecoveryReport {
    /// Commit epochs restored (full attribute groups applied).
    pub applied: u64,
    /// Byte length of the valid committed journal prefix (full groups).
    pub committed_bytes: usize,
    /// Journal bytes discarded past the committed prefix.
    pub dropped_bytes: usize,
    /// Frame-valid records dropped because their commit group was torn
    /// (the crash landed between two attribute records of one append).
    pub dropped_partial_records: usize,
    /// Why the journal-level scan stopped.
    pub truncation: TruncationReason,
}

/// A multi-attribute archive that grows by journaled appends and publishes
/// immutable [`EpochSnapshot`]s.
///
/// # Examples
///
/// ```
/// use mbir_archive::grid::Grid2;
/// use mbir_core::snapshot::LiveArchive;
///
/// let bases = vec![Grid2::filled(4, 8, 1.0), Grid2::filled(4, 8, 2.0)];
/// let mut live = LiveArchive::new(bases, 4).unwrap();
/// let reader = live.handle();
/// let before = reader.current();
///
/// live.append(&[Grid2::filled(4, 8, 3.0), Grid2::filled(4, 8, 4.0)]).unwrap();
///
/// // The old snapshot still reads its own committed prefix...
/// assert_eq!(before.rows(), 4);
/// // ...while new readers see the new epoch, complete.
/// assert_eq!(reader.current().rows(), 8);
/// ```
#[derive(Debug)]
pub struct LiveArchive {
    tile: usize,
    cols: usize,
    journal: AppendJournal,
    stats: AccessStats,
    /// The last published snapshot — the only working state there is.
    published: Arc<Mutex<Arc<EpochSnapshot>>>,
}

impl LiveArchive {
    /// Wraps the per-attribute base grids for appending and publishes
    /// epoch 0.
    ///
    /// # Errors
    ///
    /// [`CoreError::Query`] when no bases are supplied, the bases disagree
    /// on shape, `tile` is zero, or the base row count is not a multiple
    /// of `tile` (appends must start on a tile boundary so committed
    /// pages are never rewritten).
    pub fn new(bases: Vec<Grid2<f64>>, tile: usize) -> Result<Self, CoreError> {
        let first = bases
            .first()
            .ok_or_else(|| CoreError::Query("no base grids supplied".into()))?;
        let (rows, cols) = (first.rows(), first.cols());
        if bases.iter().any(|g| g.rows() != rows || g.cols() != cols) {
            return Err(CoreError::Query("base grids must share a shape".into()));
        }
        if tile == 0 {
            return Err(CoreError::Query("tile size must be > 0".into()));
        }
        if rows % tile != 0 {
            return Err(CoreError::Query(format!(
                "base rows {rows} not a multiple of tile {tile}"
            )));
        }
        let stats = AccessStats::new();
        let pyramids = bases.iter().map(AggregatePyramid::build).collect();
        let stores = bases
            .into_iter()
            .map(|g| TileStore::new(g, tile).map(|s| s.with_stats(stats.clone())))
            .collect::<Result<Vec<_>, _>>()?;
        let base = EpochSnapshot {
            epoch: SnapshotEpoch { epoch: 0, rows },
            pyramids,
            stores,
        };
        Ok(LiveArchive {
            tile,
            cols,
            journal: AppendJournal::new(),
            stats,
            published: Arc::new(Mutex::new(Arc::new(base))),
        })
    }

    /// Arms a write fault on the shared journal (builder style) — the
    /// chaos harness's crash injection point.
    pub fn with_write_fault(mut self, fault: WriteFault) -> Self {
        self.journal = std::mem::take(&mut self.journal).with_write_fault(fault);
        self
    }

    /// A cloneable handle reader threads use to pick up the latest
    /// published epoch while this archive keeps appending.
    pub fn handle(&self) -> SnapshotHandle {
        SnapshotHandle {
            published: Arc::clone(&self.published),
        }
    }

    /// The latest published snapshot.
    pub fn snapshot(&self) -> Arc<EpochSnapshot> {
        self.handle().current()
    }

    /// Number of attributes.
    pub fn attrs(&self) -> usize {
        self.snapshot().stores.len()
    }

    /// Committed rows.
    pub fn rows(&self) -> usize {
        self.snapshot().rows()
    }

    /// Current commit epoch (0 = base, +1 per committed append).
    pub fn epoch(&self) -> SnapshotEpoch {
        self.snapshot().epoch
    }

    /// The shared journal bytes — what survives a crash.
    pub fn journal_bytes(&self) -> &[u8] {
        self.journal.bytes()
    }

    /// The stats handle attached to every published snapshot's stores, so
    /// page / cache / append counters aggregate across epochs.
    pub fn stats(&self) -> AccessStats {
        self.stats.clone()
    }

    /// First page index dirtied by rows at or past `row` — what a reader
    /// passes to
    /// [`CachedTileSource::advance_epoch`](crate::source::CachedTileSource::advance_epoch)
    /// after observing a commit, so only the append frontier leaves its
    /// cache.
    pub fn first_page_of_row(&self, row: usize) -> usize {
        let tiles_per_row = self.cols.div_ceil(self.tile);
        (row / self.tile) * tiles_per_row
    }

    /// Appends one band per attribute as a single commit: journals every
    /// band (step 1), derives the next epoch's pyramids and stores from
    /// the published ones, sharing all they have in common (step 2), then
    /// atomically publishes the new epoch (step 3). Returns the new epoch.
    ///
    /// # Errors
    ///
    /// [`CoreError::Query`] when the band count, widths, or tile-aligned
    /// heights don't match — nothing is written.
    /// [`CoreError::Archive`] wrapping
    /// [`JournalCrashed`](mbir_archive::error::ArchiveError::JournalCrashed)
    /// when an armed write fault fires (or already fired): the published
    /// snapshot and working state are unchanged, exactly like a dead
    /// process — recovery sees only what the journal persisted.
    pub fn append(&mut self, bands: &[Grid2<f64>]) -> Result<SnapshotEpoch, CoreError> {
        let current = self.snapshot();
        if bands.len() != current.stores.len() {
            return Err(CoreError::Query(format!(
                "append carries {} bands, archive has {} attributes",
                bands.len(),
                current.stores.len()
            )));
        }
        let height = bands.first().map(|b| b.rows()).unwrap_or(0);
        if height == 0 || !height.is_multiple_of(self.tile) {
            return Err(CoreError::Query(format!(
                "band height {height} not a positive multiple of tile {}",
                self.tile
            )));
        }
        if bands
            .iter()
            .any(|b| b.rows() != height || b.cols() != self.cols)
        {
            return Err(CoreError::Query(
                "append bands must share the archive width and one height".into(),
            ));
        }
        // Step 1: journal every attribute's band. A crash mid-group leaves
        // a torn group that recovery drops whole.
        let row_offset = current.rows();
        for band in bands {
            self.journal.append(row_offset, band)?;
        }
        // Step 2: build the next epoch aside, from the published one.
        let pyramids = current.pyramids.iter().zip(bands).map(|(pyramid, band)| {
            let mut next = pyramid.clone();
            next.extend_rows(band).map(|()| next)
        });
        let stores = current.stores.iter().zip(bands);
        let epoch = SnapshotEpoch {
            epoch: current.epoch.epoch + 1,
            rows: row_offset + height,
        };
        let next = EpochSnapshot {
            epoch,
            pyramids: pyramids.collect::<Result<_, _>>()?,
            stores: stores
                .map(|(store, band)| store.extended(band))
                .collect::<Result<_, _>>()?,
        };
        // Step 3: one atomic swap publishes the complete epoch.
        *self.published.lock().expect("snapshot swap lock") = Arc::new(next);
        Ok(epoch)
    }

    /// Replays journal bytes onto the base grids, restoring exactly the
    /// committed prefix: only full attribute groups that splice
    /// contiguously are applied, and the restored archive's grids,
    /// pyramids, published snapshot, and journal bytes are bit-identical
    /// to an archive that committed those epochs and never crashed.
    ///
    /// # Errors
    ///
    /// [`CoreError::Query`] when `bases` / `tile` themselves are invalid
    /// (as in [`new`](Self::new)).
    pub fn recover(
        bases: Vec<Grid2<f64>>,
        tile: usize,
        journal_bytes: &[u8],
    ) -> Result<(Self, LiveRecoveryReport), CoreError> {
        let mut live = LiveArchive::new(bases, tile)?;
        let attrs = live.attrs();
        let recovered = recover_journal(journal_bytes);
        let mut truncation = recovered.truncation;
        let mut dropped_partial_records = 0usize;
        let mut records = recovered.records.into_iter();
        loop {
            let group: Vec<_> = records.by_ref().take(attrs).collect();
            let Some(height) = group.first().map(|r| r.band.rows()) else {
                break;
            };
            let whole = group.len() == attrs;
            let rows = live.rows();
            let fits = whole
                && height > 0
                && height % tile == 0
                && group.iter().all(|r| {
                    r.row_offset == rows && r.band.cols() == live.cols && r.band.rows() == height
                });
            if !fits {
                if whole {
                    // A full group that does not splice is an invalid
                    // suffix, exactly like a bad frame.
                    truncation = TruncationReason::BadGeometry;
                } else {
                    dropped_partial_records = group.len();
                }
                break;
            }
            // Replay the group through the normal append path so the
            // restored journal bytes (and everything else) are
            // bit-identical to a never-crashed archive.
            let bands: Vec<Grid2<f64>> = group.into_iter().map(|r| r.band).collect();
            live.append(&bands).expect("recovered group was validated");
        }
        let committed_bytes = live.journal.bytes().len();
        debug_assert!(journal_bytes.starts_with(live.journal.bytes()));
        let report = LiveRecoveryReport {
            applied: live.epoch().epoch,
            committed_bytes,
            dropped_bytes: journal_bytes.len() - committed_bytes,
            dropped_partial_records,
            truncation,
        };
        Ok((live, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilient::ExecutionBudget;
    use mbir_archive::journal::{FRAME_HEADER_LEN, JOURNAL_MAGIC};
    use mbir_models::linear::LinearModel;
    use proptest::prelude::*;

    fn base(attr: u64) -> Grid2<f64> {
        Grid2::from_fn(4, 6, |r, c| (attr * 100) as f64 + (r * 6 + c) as f64)
    }

    fn band(attr: u64, commit: u64) -> Grid2<f64> {
        Grid2::from_fn(2, 6, |r, c| {
            (attr * 100) as f64 - ((commit * 12) as f64) - (r * 6 + c) as f64
        })
    }

    /// A clean archive that committed the same appends without ever
    /// crashing — the bit-identity reference.
    fn clean_after(commits: u64) -> LiveArchive {
        let mut live = LiveArchive::new(vec![base(0), base(1)], 2).unwrap();
        for commit in 0..commits {
            live.append(&[band(0, commit), band(1, commit)]).unwrap();
        }
        live
    }

    fn snapshots_eq(a: &EpochSnapshot, b: &EpochSnapshot) -> bool {
        a.epoch() == b.epoch()
            && a.pyramids().len() == b.pyramids().len()
            && a.pyramids()
                .iter()
                .zip(b.pyramids())
                .all(|(x, y)| x.levels() == y.levels())
            && a.stores().iter().zip(b.stores()).all(|(x, y)| {
                x.rows() == y.rows()
                    && (0..x.rows()).all(|r| {
                        (0..x.cols()).all(|c| {
                            x.read(r, c).unwrap().to_bits() == y.read(r, c).unwrap().to_bits()
                        })
                    })
            })
    }

    #[test]
    fn validates_bases_and_bands() {
        assert!(LiveArchive::new(vec![], 2).is_err());
        assert!(LiveArchive::new(vec![base(0)], 0).is_err());
        assert!(LiveArchive::new(vec![base(0)], 3).is_err(), "4 % 3 != 0");
        assert!(LiveArchive::new(vec![base(0), Grid2::filled(4, 5, 0.0)], 2).is_err());
        let mut live = LiveArchive::new(vec![base(0), base(1)], 2).unwrap();
        assert!(live.append(&[band(0, 0)]).is_err(), "band count");
        assert!(
            live.append(&[band(0, 0), Grid2::filled(1, 6, 0.0)])
                .is_err(),
            "height not tile-aligned"
        );
        assert!(
            live.append(&[band(0, 0), Grid2::filled(2, 5, 0.0)])
                .is_err(),
            "width mismatch"
        );
        assert_eq!(live.epoch().epoch, 0, "failed appends commit nothing");
        assert!(live.journal_bytes().is_empty(), "and write nothing");
        assert_eq!(live.snapshot().rows(), 4);
    }

    #[test]
    fn appends_publish_complete_epochs_and_old_snapshots_stay_frozen() {
        let mut live = LiveArchive::new(vec![base(0), base(1)], 2).unwrap();
        let reader = live.handle();
        let epoch0 = reader.current();
        assert_eq!(epoch0.epoch(), SnapshotEpoch { epoch: 0, rows: 4 });

        live.append(&[band(0, 0), band(1, 0)]).unwrap();
        live.append(&[band(0, 1), band(1, 1)]).unwrap();
        let epoch2 = reader.current();
        assert_eq!(epoch2.epoch(), SnapshotEpoch { epoch: 2, rows: 8 });

        // The old snapshot still reads exactly its prefix.
        assert_eq!(epoch0.rows(), 4);
        assert_eq!(epoch0.stores()[0].rows(), 4);
        // Shared prefix is bit-identical across epochs.
        for r in 0..4 {
            for c in 0..6 {
                assert_eq!(
                    epoch0.stores()[1].read(r, c).unwrap().to_bits(),
                    epoch2.stores()[1].read(r, c).unwrap().to_bits()
                );
            }
        }
        // The new epoch is bit-identical to a freshly built archive.
        assert!(snapshots_eq(&epoch2, &clean_after(2).snapshot()));
        // Queries against each snapshot see their own committed prefix.
        let model = LinearModel::new(vec![1.0, -1.0], 0.0).unwrap();
        let budget = ExecutionBudget::unlimited();
        let r0 = epoch0.query_top_k(&model, 3, &budget).unwrap();
        let r2 = epoch2.query_top_k(&model, 3, &budget).unwrap();
        assert_eq!(r0.completeness, 1.0);
        assert_eq!(r2.completeness, 1.0);
        let clean = clean_after(2).snapshot();
        let rc = clean.query_top_k(&model, 3, &budget).unwrap();
        for (a, b) in r2.results.iter().zip(&rc.results) {
            assert_eq!(a.cell, b.cell);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }

    #[test]
    fn crashed_append_changes_nothing_and_recovery_restores_the_prefix() {
        // Crash while journaling the *second* attribute of commit 2: the
        // journal keeps commit 0, commit 1, and a torn group.
        let mut live = LiveArchive::new(vec![base(0), base(1)], 2)
            .unwrap()
            .with_write_fault(WriteFault::TornWrite {
                frame: 5,
                persisted_bytes: 7,
            });
        live.append(&[band(0, 0), band(1, 0)]).unwrap();
        live.append(&[band(0, 1), band(1, 1)]).unwrap();
        let before = live.snapshot();
        let err = live.append(&[band(0, 2), band(1, 2)]).unwrap_err();
        assert!(matches!(
            err,
            CoreError::Archive(mbir_archive::error::ArchiveError::JournalCrashed { .. })
        ));
        assert!(live.journal.has_crashed());
        // Published state never moved past the last full commit.
        assert!(Arc::ptr_eq(&before, &live.snapshot()));
        assert_eq!(live.epoch().epoch, 2);
        // A dead writer stays dead.
        assert!(live.append(&[band(0, 2), band(1, 2)]).is_err());

        let (rec, report) =
            LiveArchive::recover(vec![base(0), base(1)], 2, live.journal_bytes()).unwrap();
        assert_eq!(report.applied, 2);
        assert_eq!(report.truncation, TruncationReason::TornFrame);
        // Frame 4 (commit 2, attr 0) verified but its group is torn.
        assert_eq!(report.dropped_partial_records, 1);
        assert!(report.dropped_bytes > 0);
        let clean = clean_after(2);
        assert_eq!(rec.journal_bytes(), clean.journal_bytes());
        assert!(snapshots_eq(&rec.snapshot(), &clean.snapshot()));
    }

    #[test]
    fn every_crash_offset_recovers_a_committed_prefix() {
        // Build the clean 3-commit journal once, then crash at every byte
        // offset: recovery must always restore a prefix of whole commits,
        // bit-identical to the clean archive of that many commits.
        let clean = clean_after(3);
        let total = clean.journal_bytes().len();
        let clean_prefixes: Vec<LiveArchive> = (0..=3).map(clean_after).collect();
        for cut in 0..=total {
            let mut live = LiveArchive::new(vec![base(0), base(1)], 2)
                .unwrap()
                .with_write_fault(WriteFault::CrashAtOffset { offset: cut });
            let mut committed = 0u64;
            for commit in 0..3 {
                match live.append(&[band(0, commit), band(1, commit)]) {
                    Ok(_) => committed += 1,
                    Err(_) => break,
                }
            }
            let (rec, report) =
                LiveArchive::recover(vec![base(0), base(1)], 2, live.journal_bytes()).unwrap();
            assert!(
                report.applied <= committed || committed < 3,
                "cut {cut}: recovered more than the writer committed"
            );
            let reference = &clean_prefixes[report.applied as usize];
            assert_eq!(
                rec.journal_bytes(),
                reference.journal_bytes(),
                "cut {cut}: journal bytes must match a clean archive"
            );
            assert!(
                snapshots_eq(&rec.snapshot(), &reference.snapshot()),
                "cut {cut}: snapshot must match a clean archive"
            );
            assert_eq!(
                report.committed_bytes + report.dropped_bytes,
                live.journal_bytes().len(),
                "cut {cut}: byte ledger must balance"
            );
        }
    }

    #[test]
    fn recovery_stops_at_non_contiguous_records() {
        // Splice frame 1 of a journal over an 8-row base after frame 0 of
        // one over the 4-row base: both frames verify and the sequence
        // stays dense, but the second band claims row 10 where row 6 is
        // next.
        let mut a = LiveArchive::new(vec![base(0)], 2).unwrap();
        a.append(&[band(0, 0)]).unwrap();
        let mut b = LiveArchive::new(vec![Grid2::filled(8, 6, 0.0)], 2).unwrap();
        b.append(&[band(0, 7)]).unwrap();
        b.append(&[band(0, 8)]).unwrap();
        let frame0 = a.journal_bytes();
        let b_bytes = b.journal_bytes();
        let spliced = [frame0, &b_bytes[b_bytes.len() / 2..]].concat();
        let (rec, report) = LiveArchive::recover(vec![base(0)], 2, &spliced).unwrap();
        assert_eq!(report.applied, 1, "only the contiguous prefix replays");
        assert_eq!(report.truncation, TruncationReason::BadGeometry);
        assert_eq!(report.committed_bytes, frame0.len());
        assert_eq!(report.dropped_bytes, spliced.len() - frame0.len());
        assert_eq!(rec.rows(), 6);
    }

    /// Journal header values that stress the length and row arithmetic.
    const EXTREMES: [u64; 5] = [0, 1, 2, u32::MAX as u64, u64::MAX];

    /// Replays `bytes` onto a one-attribute 4x4 archive (tile 2): recovery
    /// answers instead of panicking, and every byte is either committed or
    /// dropped.
    fn check_replay(bytes: &[u8]) {
        let (_, report) = LiveArchive::recover(vec![Grid2::filled(4, 4, 0.0)], 2, bytes).unwrap();
        assert_eq!(report.committed_bytes + report.dropped_bytes, bytes.len());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The three inputs of the journal decoder's own fuzz — garbage, a
        /// damaged real journal, and a header of extreme geometry padded
        /// to a complete frame — replayed through the archive.
        #[test]
        fn recover_replays_any_bytes_without_panicking(
            raw in proptest::collection::vec(0u16..256, 0..512),
            heights in proptest::collection::vec(1usize..3, 1..4),
            flips in proptest::collection::vec(0usize..1 << 20, 0..6),
            cut in 0usize..1 << 16,
            picks in proptest::collection::vec(0usize..5, 3),
        ) {
            let raw: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
            check_replay(&raw);

            let mut live = LiveArchive::new(vec![Grid2::filled(4, 4, 0.0)], 2).unwrap();
            for (i, &h) in heights.iter().enumerate() {
                live.append(&[Grid2::from_fn(2 * h, 4, |r, c| i as f64 + (r * 4 + c) as f64 * 0.5)])
                    .unwrap();
            }
            let mut damaged = live.journal_bytes().to_vec();
            for &at in &flips {
                let len = damaged.len();
                damaged[at % len] ^= (at >> 12) as u8 | 1;
            }
            if cut < 1 << 15 {
                damaged.truncate(cut % (damaged.len() + 1));
            }
            check_replay(&damaged);

            let [row_offset, rows, cols] = [0, 1, 2].map(|i| EXTREMES[picks[i]]);
            let mut extreme = JOURNAL_MAGIC.to_vec();
            for v in [0, row_offset, rows, cols] {
                extreme.extend_from_slice(&v.to_le_bytes());
            }
            extreme.extend_from_slice(&raw);
            let n = rows.saturating_mul(cols);
            if n <= 64 {
                extreme.resize(extreme.len().max(FRAME_HEADER_LEN + 8 * n as usize + 8), 0);
            }
            check_replay(&extreme);
        }
    }

    #[test]
    fn readers_during_appends_see_only_complete_epochs() {
        // One writer commits bands while reader threads continuously pull
        // snapshots and verify internal consistency: the row count, the
        // epoch, and the pyramids always describe the same committed
        // prefix, and a re-query of the snapshot is exact.
        let live = Mutex::new(LiveArchive::new(vec![base(0), base(1)], 2).unwrap());
        let reader = live.lock().unwrap().handle();
        let model = LinearModel::new(vec![1.0, 1.0], 0.0).unwrap();
        let budget = ExecutionBudget::unlimited();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let reader = reader.clone();
                let model = &model;
                let budget = &budget;
                scope.spawn(move || {
                    for _ in 0..40 {
                        let snap = reader.current();
                        let epoch = snap.epoch();
                        assert_eq!(epoch.rows, 4 + epoch.epoch as usize * 2);
                        assert_eq!(snap.stores()[0].rows(), epoch.rows);
                        assert_eq!(snap.stores()[1].rows(), epoch.rows);
                        let r = snap.query_top_k(model, 2, budget).unwrap();
                        assert_eq!(r.completeness, 1.0, "epoch {}", epoch.epoch);
                    }
                });
            }
            scope.spawn(|| {
                for commit in 0..8 {
                    live.lock()
                        .unwrap()
                        .append(&[band(0, commit), band(1, commit)])
                        .unwrap();
                }
            });
        });
        assert_eq!(reader.current().epoch().epoch, 8);
    }

    #[test]
    fn first_page_of_row_marks_the_append_frontier() {
        let live = LiveArchive::new(vec![base(0)], 2).unwrap();
        // 6 cols, tile 2 -> 3 tiles per tile-row.
        assert_eq!(live.first_page_of_row(0), 0);
        assert_eq!(live.first_page_of_row(2), 3);
        assert_eq!(live.first_page_of_row(4), 6);
    }
}
