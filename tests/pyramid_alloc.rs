//! The pyramid's footprint, measured in bytes so it holds on any host:
//! `AggregatePyramid::build` allocates 16 bytes a base cell — 8 at level
//! 0, 24 a cell over the 1/3 as many cells above.
//!
//! Same counting allocator as `append_alloc.rs`, and for the same reason a
//! file of its own holding one test: nothing else allocates meanwhile.

use mbir_archive::grid::Grid2;
use mbir_progressive::pyramid::AggregatePyramid;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocated;

#[test]
fn build_allocates_sixteen_bytes_a_base_cell() {
    // Ragged in both directions, and not a multiple of the chunk height.
    for (rows, cols) in [(300, 210), (77, 513)] {
        let grid = Grid2::from_fn(rows, cols, |r, c| (r * 31 + c * 7) as f64);
        let before = allocated();
        let pyramid = AggregatePyramid::build(&grid);
        let built = allocated() - before;
        assert_eq!(pyramid.base_shape(), (rows, cols));
        let budget = 1.15 * (16 * rows * cols) as f64;
        assert!(
            built as f64 <= budget,
            "a {rows}x{cols} pyramid allocated {built} B, over {budget} B"
        );
    }
}
