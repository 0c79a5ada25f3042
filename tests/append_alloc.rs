//! The append-cost claim, measured in bytes so it holds on any host: a
//! `LiveArchive::append` allocates what its band costs, not what the
//! archive costs.
//!
//! A counting global allocator sums the bytes requested while an append
//! runs. This file holds one test, so nothing else allocates meanwhile.

use mbir::core::snapshot::LiveArchive;
use mbir_archive::grid::Grid2;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counter is
// the only addition and touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's contract for `alloc` is `System`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const ATTRS: usize = 2;
const COLS: usize = 96;
const TILE: usize = 8;
/// Not a multiple of the pyramid's chunk height, so the copy-on-write
/// boundary chunks are part of what is measured.
const BAND_ROWS: usize = 24;
const BASE_ROWS: usize = 256;
const APPENDS: usize = 16;

fn grids(rows: usize, first_row: usize) -> Vec<Grid2<f64>> {
    (0..ATTRS)
        .map(|a| Grid2::from_fn(rows, COLS, |r, c| ((first_row + r) * 31 + c * 7 + a) as f64))
        .collect()
}

/// Median bytes allocated by one append, over `APPENDS` consecutive
/// appends of a fixed-size band onto a `base_rows`-row archive. The
/// median drops the appends in which the in-memory journal's `Vec`
/// doubles.
fn median_append_bytes(base_rows: usize) -> u64 {
    let mut live = LiveArchive::new(grids(base_rows, 0), TILE).unwrap();
    let mut per_append: Vec<u64> = (0..APPENDS)
        .map(|_| {
            let bands = grids(BAND_ROWS, live.rows());
            let before = ALLOCATED.load(Ordering::Relaxed);
            live.append(&bands).unwrap();
            ALLOCATED.load(Ordering::Relaxed) - before
        })
        .collect();
    assert_eq!(live.rows(), base_rows + APPENDS * BAND_ROWS);
    per_append.sort_unstable();
    per_append[APPENDS / 2]
}

#[test]
fn append_allocates_for_the_band_not_for_the_archive() {
    let short = median_append_bytes(BASE_ROWS);
    let tall = median_append_bytes(4 * BASE_ROWS);
    assert!(
        tall as f64 <= 1.25 * short as f64,
        "an append onto 4x the rows allocated {tall} B against {short} B"
    );
    // What the band itself occupies once committed: its cells (8 B each)
    // and its share of every pyramid level (32 B a cell, 4/3 levels).
    let cells = (ATTRS * BAND_ROWS * COLS) as u64;
    let band_bytes = cells * 8 + cells * 32 * 4 / 3;
    assert!(
        tall <= 8 * band_bytes,
        "an append allocated {tall} B for a band of {band_bytes} B"
    );
}
