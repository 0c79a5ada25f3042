//! The append-cost claim, measured in bytes so it holds on any host: a
//! `LiveArchive::append` allocates what its band costs, not what the
//! archive costs.
//!
//! A counting global allocator sums the bytes requested while an append
//! runs. This file holds one test, so nothing else allocates meanwhile.

use mbir::core::snapshot::LiveArchive;
use mbir_archive::grid::Grid2;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocated;

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
            let before = allocated();
            live.append(&bands).unwrap();
            allocated() - before
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
    // and its share of the pyramid (8 B a cell at level 0, 24 B a cell
    // over the 1/3 as many cells above).
    let cells = (ATTRS * BAND_ROWS * COLS) as u64;
    let band_bytes = cells * 8 + cells * (8 + 24 / 3);
    // The rest is the boundary chunks copied on write, the store's page
    // table and the journal frame: 3.9x the band at this shape.
    assert!(
        tall <= 5 * band_bytes,
        "an append allocated {tall} B for a band of {band_bytes} B"
    );
}
