//! Allocation-free scoring kernels over flat row-major points.
//!
//! ## The summation-order contract
//!
//! Every index and engine in this workspace originally scored a tuple as
//! `dir.iter().zip(point).map(|(a, v)| a * v).sum::<f64>()` — i.e. an
//! accumulator starting at `-0.0` (the additive identity, which is where
//! this toolchain's `f64` `Sum` starts; a `+0.0` start differs exactly
//! when every product is `-0.0`) with the products added **left to
//! right**. Floating-point addition is not associative, so any kernel
//! that reorders that sum (pairwise reduction, multiple accumulators,
//! FMA contraction) would produce different bits and, through tie-breaks
//! and bound comparisons, different top-K answers. Every kernel here
//! therefore keeps the per-point summation order exactly as above and
//! gains its speed elsewhere: points are contiguous rows
//! ([`crate::store::PointStore`]), the dimension is dispatched once per
//! *run of rows* instead of once per element, and the compiler is free to
//! vectorize **across rows** (each row's sum is an independent chain).
//! There is one such loop per dimension; it writes into a caller's slice,
//! so the flat scan scores 64-row runs into a stack array that stays in
//! L1 beside its rows (DESIGN §10) and [`score_block_into`] fills a `Vec`
//! through the same loop. The loop also tests each score against the
//! caller's top-K floor as it goes and returns whether any reached it,
//! so a run that cannot enter the heap is never read a second time.
//! Results are bit-identical to the legacy per-point paths; the
//! property tests in this crate and in `tests/parallel_props.rs` lock
//! that down.

/// Dot product with the canonical left-to-right summation order.
///
/// Bit-identical to `a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>()`.
/// Small dimensions dispatch to fixed-size loops the compiler fully
/// unrolls.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    match a.len() {
        1 => dot_fixed::<1>(a, b),
        2 => dot_fixed::<2>(a, b),
        3 => dot_fixed::<3>(a, b),
        4 => dot_fixed::<4>(a, b),
        6 => dot_fixed::<6>(a, b),
        8 => dot_fixed::<8>(a, b),
        16 => dot_fixed::<16>(a, b),
        _ => dot_dyn(a, b),
    }
}

#[inline(always)]
fn dot_fixed<const D: usize>(a: &[f64], b: &[f64]) -> f64 {
    let a: &[f64; D] = a.try_into().expect("dispatched on len");
    let b: &[f64; D] = b.try_into().expect("dispatched on len");
    let mut acc = -0.0;
    for j in 0..D {
        acc += a[j] * b[j];
    }
    acc
}

#[inline(always)]
fn dot_dyn(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = -0.0;
    for j in 0..a.len() {
        acc += a[j] * b[j];
    }
    acc
}

/// Scores every row of a flat row-major block against `dir` into `out`,
/// one score per row (`out` is resized to the row count; in steady state
/// that is a no-op). `block.len()` must be a multiple of `dims` and
/// `dir.len() == dims`.
///
/// Per-row scores are bit-identical to [`dot`]; the win is layout — one
/// linear pass over the block with the dimension dispatched once.
///
/// # Panics
///
/// Panics on a ragged block or wrong-length direction.
pub fn score_block_into(block: &[f64], dims: usize, dir: &[f64], out: &mut Vec<f64>) {
    assert_eq!(dir.len(), dims, "direction length mismatch");
    assert_eq!(block.len() % dims, 0, "ragged block");
    out.resize(block.len() / dims, 0.0);
    score_rows(block, dims, dir, out, f64::NAN);
}

/// The one per-dimension scoring loop: `out[i]` becomes row `i`'s score,
/// so a caller can score a run into a stack array. Returns whether any
/// score of the run reaches `floor`, tested in the same loop: a row
/// reaches it when `!(s < floor)`, which is true for a NaN score and for
/// a score that ties the floor (±0 included), so both go on to
/// [`TopKHeap::offer`](crate::scan::TopKHeap::offer), the one place that
/// decides ties. A NaN `floor` (no floor yet) is reached by every score.
///
/// # Panics
///
/// Panics unless `dir.len() == dims` and `block.len() == out.len() * dims`.
pub(crate) fn score_rows(
    block: &[f64],
    dims: usize,
    dir: &[f64],
    out: &mut [f64],
    floor: f64,
) -> bool {
    assert_eq!(dir.len(), dims, "direction length mismatch");
    assert_eq!(block.len(), out.len() * dims, "one score per row");
    match dims {
        1 => score_rows_fixed::<1>(block, dir, out, floor),
        2 => score_rows_fixed::<2>(block, dir, out, floor),
        3 => score_rows_fixed::<3>(block, dir, out, floor),
        4 => score_rows_fixed::<4>(block, dir, out, floor),
        6 => score_rows_fixed::<6>(block, dir, out, floor),
        8 => score_rows_fixed::<8>(block, dir, out, floor),
        16 => score_rows_fixed::<16>(block, dir, out, floor),
        _ => {
            let mut reach = false;
            for (i, row) in block.chunks_exact(dims).enumerate() {
                let s = dot_dyn(dir, row);
                out[i] = s;
                reach |= reaches(s, floor);
            }
            reach
        }
    }
}

/// The floor test of [`score_rows`] and of the Onion's scoring loop:
/// `!(s < floor)`, not `s >= floor`, so a NaN score (or floor) reaches.
#[inline(always)]
#[allow(clippy::neg_cmp_op_on_partial_ord)]
pub(crate) fn reaches(s: f64, floor: f64) -> bool {
    !(s < floor)
}

#[inline(always)]
fn score_rows_fixed<const D: usize>(
    block: &[f64],
    dir: &[f64],
    out: &mut [f64],
    floor: f64,
) -> bool {
    let dir: &[f64; D] = dir.try_into().expect("dispatched on dims");
    // Rows come from `ChunksExact::next`, not zipped with `out`: the zip's
    // random-access path loads a row element by element, ~25 % slower at
    // d = 3. The caller's length assert removes the `out[i]` check.
    let mut reach = false;
    for (i, row) in block.chunks_exact(D).enumerate() {
        let row: &[f64; D] = row.try_into().expect("chunks_exact");
        let mut acc = -0.0;
        for j in 0..D {
            acc += dir[j] * row[j];
        }
        out[i] = acc;
        reach |= reaches(acc, floor);
    }
    reach
}

/// The transposed bundle loop: calls `visit(i, scores)` for every row `i`
/// of `block`, in row order, with `scores[k]` = direction `k`'s score of
/// that row.
///
/// The bundle is transposed once up front (`t[j * m + k]` = component `j`
/// of direction `k`), so the per-row scoring loop runs stride-1 **across
/// directions**: each direction's sum is an independent left-to-right
/// chain (contract preserved per direction, every score bit-identical to
/// [`dot`]), and independent chains side by side are exactly what the
/// autovectorizer can pack into SIMD lanes.
fn for_each_bundle_score(
    block: &[f64],
    dims: usize,
    dirs: &[Vec<f64>],
    mut visit: impl FnMut(usize, &[f64]),
) {
    assert_eq!(block.len() % dims, 0, "ragged block");
    let m = dirs.len();
    let mut transposed = vec![0.0f64; m * dims];
    for (k, dir) in dirs.iter().enumerate() {
        assert_eq!(dir.len(), dims, "direction length mismatch");
        for (j, &v) in dir.iter().enumerate() {
            transposed[j * m + k] = v;
        }
    }
    let mut scores = vec![0.0f64; m];
    for (i, row) in block.chunks_exact(dims).enumerate() {
        // scores[k] = -0.0 + t[0][k]*row[0] + t[1][k]*row[1] + ... — the
        // canonical summation order of every direction at once. The first
        // component's pass writes `t*x` directly (`-0.0 + t*x` is `t*x`
        // bit for bit), so no separate zero-fill pass is needed.
        for (j, &xj) in row.iter().enumerate() {
            let t = &transposed[j * m..(j + 1) * m];
            if j == 0 {
                for (s, &tk) in scores.iter_mut().zip(t) {
                    *s = tk * xj;
                }
            } else {
                for (s, &tk) in scores.iter_mut().zip(t) {
                    *s += tk * xj;
                }
            }
        }
        visit(i, &scores);
    }
}

/// The order of a direction sweep, best first: the larger score under `>`
/// (so `-0.0` ties `+0.0`), then the smaller row. Candidates never score
/// NaN, so the order is total.
fn sweep_order(a: &(f64, u32), b: &(f64, u32)) -> std::cmp::Ordering {
    b.0.partial_cmp(&a.0)
        .expect("a candidate never scores NaN")
        .then(a.1.cmp(&b.1))
}

/// Scores `rows` of `block` against `dir` into `ranked` and moves the best
/// `keep` of them, in any order, to its front, where it cuts `ranked`
/// short. [`dot`] gives every row the bits of the transposed loop.
fn rank_rows(
    block: &[f64],
    dims: usize,
    dir: &[f64],
    rows: &[u32],
    keep: usize,
    ranked: &mut Vec<(f64, u32)>,
) {
    ranked.clear();
    ranked.extend(rows.iter().map(|&row| {
        let at = row as usize * dims;
        (dot(dir, &block[at..at + dims]), row)
    }));
    if keep < ranked.len() {
        ranked.select_nth_unstable_by(keep - 1, sweep_order);
        ranked.truncate(keep);
    }
}

/// For every direction of `dirs`, its best `capacity` rows of `block` in
/// sweep order (larger score under `>`, then the smaller row), best
/// first; a direction has fewer only when fewer of its scores are numbers.
/// A row whose score is NaN is never a candidate. One streaming pass
/// scores every row against every direction ([`for_each_bundle_score`]).
///
/// Each direction keeps up to `2 · capacity` row numbers in its slice of
/// one flat buffer and, when the slice is full, cuts it back to its best
/// `capacity` rows (scores are recomputed for that, so only 4 bytes a row
/// are kept); after the first cut a row must beat the worst kept one
/// **strictly** to enter (rows arrive in ascending order, so a tie ranks
/// behind every kept row). The branch-free any-beats check is all most
/// rows cost once every direction has been cut.
///
/// # Panics
///
/// Panics on a ragged block, a wrong-length direction, a zero `capacity`
/// or more rows than `u32` numbers.
pub(crate) fn sweep_candidates(
    block: &[f64],
    dims: usize,
    dirs: &[Vec<f64>],
    capacity: usize,
) -> Vec<Vec<u32>> {
    assert!(capacity > 0, "a candidate list holds at least one row");
    assert!(
        u32::try_from(block.len() / dims).is_ok(),
        "candidates are u32 row numbers"
    );
    let m = dirs.len();
    let stride = 2 * capacity;
    let mut kept = vec![0u32; m * stride];
    let mut len = vec![0usize; m];
    // `floor[k]`: the score of the worst row direction `k` kept at its
    // last cut; until its first cut every number enters.
    let mut floor = vec![f64::NEG_INFINITY; m];
    let mut cut = vec![false; m];
    let mut uncut = m;
    let mut ranked: Vec<(f64, u32)> = Vec::with_capacity(stride);
    for_each_bundle_score(block, dims, dirs, |row, scores| {
        let mut any = uncut > 0;
        if !any {
            for (s, f) in scores.iter().zip(&floor) {
                any |= s > f;
            }
        }
        if !any {
            return;
        }
        for (k, &s) in scores.iter().enumerate() {
            if !(s > floor[k] || (!cut[k] && !s.is_nan())) {
                continue;
            }
            let slice = &mut kept[k * stride..(k + 1) * stride];
            slice[len[k]] = row as u32;
            len[k] += 1;
            if len[k] == stride {
                rank_rows(block, dims, &dirs[k], slice, capacity, &mut ranked);
                for (slot, &(_, kept_row)) in slice.iter_mut().zip(&ranked) {
                    *slot = kept_row;
                }
                floor[k] = ranked[capacity - 1].0;
                len[k] = capacity;
                if !cut[k] {
                    cut[k] = true;
                    uncut -= 1;
                }
            }
        }
    });
    dirs.iter()
        .enumerate()
        .map(|(k, dir)| {
            let slice = &kept[k * stride..k * stride + len[k]];
            rank_rows(block, dims, dir, slice, capacity, &mut ranked);
            ranked.sort_unstable_by(sweep_order);
            ranked.iter().map(|&(_, row)| row).collect()
        })
        .collect()
}

/// Elementwise enclosure update: `lo[j] = lo[j].min(row[j])`,
/// `hi[j] = hi[j].max(row[j])`. Matches the legacy per-coordinate
/// `min`/`max` fold bit for bit.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn min_max_update(lo: &mut [f64], hi: &mut [f64], row: &[f64]) {
    assert_eq!(lo.len(), row.len(), "bound length mismatch");
    assert_eq!(hi.len(), row.len(), "bound length mismatch");
    for j in 0..row.len() {
        lo[j] = lo[j].min(row[j]);
        hi[j] = hi[j].max(row[j]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn legacy_dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    #[test]
    fn dot_matches_legacy_all_dispatch_widths() {
        for d in 1..=20usize {
            let a: Vec<f64> = (0..d).map(|j| (j as f64 + 0.5) * 1.1).collect();
            let b: Vec<f64> = (0..d).map(|j| (j as f64 - 3.0) * 0.7).collect();
            assert_eq!(dot(&a, &b).to_bits(), legacy_dot(&a, &b).to_bits(), "d={d}");
        }
    }

    #[test]
    fn dot_preserves_signed_zero() {
        // A sum of signed-zero products must come out exactly as the
        // legacy fold does — including all `-0.0` products, where a
        // `+0.0` accumulator start would give `+0.0`.
        let b = vec![1.0, 5.0, 2.0];
        for a in [[-0.0, 0.0, -0.0], [-0.0, -0.0, -0.0], [0.0, 0.0, 0.0]] {
            assert_eq!(dot(&a, &b).to_bits(), legacy_dot(&a, &b).to_bits());
            let mut scores = Vec::new();
            score_block_into(&b, 3, &a, &mut scores);
            assert_eq!(scores[0].to_bits(), legacy_dot(&a, &b).to_bits());
        }
        let mut swept = Vec::new();
        for_each_bundle_score(&b, 3, &[vec![-0.0; 3], vec![0.0; 3]], |_, scores| {
            swept.extend(scores.iter().map(|s| s.to_bits()));
        });
        assert_eq!(swept, [(-0.0f64).to_bits(), 0.0f64.to_bits()]);
    }

    #[test]
    fn score_block_matches_per_row_dot() {
        for d in [1usize, 2, 3, 4, 5, 6, 8, 16, 17] {
            let n = 13;
            let block: Vec<f64> = (0..n * d).map(|j| (j as f64).sin() * 9.0).collect();
            let dir: Vec<f64> = (0..d).map(|j| (j as f64).cos() * 2.0 - 0.5).collect();
            let mut out = Vec::new();
            score_block_into(&block, d, &dir, &mut out);
            assert_eq!(out.len(), n);
            for (i, row) in block.chunks_exact(d).enumerate() {
                assert_eq!(
                    out[i].to_bits(),
                    legacy_dot(&dir, row).to_bits(),
                    "d={d} i={i}"
                );
            }
        }
    }

    #[test]
    fn sweep_matches_per_direction_argmax() {
        // What the Onion peel reads off the candidate lists: over any set of
        // alive rows, a direction's first alive candidate is the first
        // strict maximum of a per-direction sweep in row order, as long as
        // that many rows are dead ahead of it. Scores tie often here.
        let d = 3;
        let n = 40;
        let block: Vec<f64> = (0..n * d).map(|j| ((j * 37 % 11) as f64) - 5.0).collect();
        let dirs: Vec<Vec<f64>> = vec![
            vec![1.0, 0.0, 0.0],
            vec![-0.5, 2.0, 0.25],
            vec![0.0, 0.0, -1.0],
        ];
        let lists = sweep_candidates(&block, d, &dirs, n);
        for (k, dir) in dirs.iter().enumerate() {
            assert_eq!(lists[k].len(), n);
            for step in 1..4 {
                let alive: Vec<bool> = (0..n).map(|i| i % 4 >= step).collect();
                let mut expect: Option<(usize, f64)> = None;
                for (i, row) in block.chunks_exact(d).enumerate() {
                    if !alive[i] {
                        continue;
                    }
                    let s = legacy_dot(dir, row);
                    if expect.map(|(_, bs)| s > bs).unwrap_or(true) {
                        expect = Some((i, s));
                    }
                }
                let first = lists[k].iter().map(|&i| i as usize).find(|&i| alive[i]);
                assert_eq!(first, expect.map(|(i, _)| i), "direction {k} step {step}");
            }
            // A shorter list is the longer one's prefix, whenever it trims.
            for capacity in [1usize, 3, 7, 19] {
                let short = sweep_candidates(&block, d, &dirs, capacity);
                assert_eq!(short[k], lists[k][..capacity], "capacity {capacity}");
            }
        }
        // NaN scores never enter a list.
        let mut block = block;
        block[4] = f64::NAN;
        let lists = sweep_candidates(&block, d, &dirs, n);
        assert!(lists
            .iter()
            .all(|list| list.len() == n - 1 && !list.contains(&1)));
    }

    #[test]
    fn min_max_update_works() {
        let mut lo = [0.0, 0.0];
        let mut hi = [0.0, 0.0];
        min_max_update(&mut lo, &mut hi, &[-1.0, 3.0]);
        min_max_update(&mut lo, &mut hi, &[2.0, -5.0]);
        assert_eq!(lo, [-1.0, -5.0]);
        assert_eq!(hi, [2.0, 3.0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn prop_score_rows_verdict_is_the_floor_test(seed in 0u64..1_000_000) {
            // Every dims arm (5 is the dynamic one) and every run length;
            // rows carry NaN, ±inf and all-zero rows, so scores are NaN,
            // ±inf and ±0 as well as numbers, and floors are ±0, ±inf, NaN
            // (no floor) and the run's best number (a tie).
            let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let mut next = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(11);
                state >> 11
            };
            for d in [1usize, 2, 3, 4, 5, 6, 8, 16] {
                let dir: Vec<f64> = (0..d)
                    .map(|_| match next() % 6 {
                        0 => 0.0,
                        1 => -0.0,
                        r => (r as f64 - 3.5) * (next() % 1000) as f64 / 250.0,
                    })
                    .collect();
                let mut block = Vec::with_capacity(64 * d);
                for _ in 0..64 {
                    let kind = next() % 8;
                    let special = (next() as usize) % d;
                    for j in 0..d {
                        block.push(match kind {
                            0 => [0.0, -0.0][(next() % 2) as usize],
                            1 if j == special => f64::NAN,
                            2 if j == special => [f64::INFINITY, f64::NEG_INFINITY][(next() % 2) as usize],
                            _ => (next() % 2001) as f64 / 100.0 - 10.0,
                        });
                    }
                }
                let mut out = [0.0f64; 64];
                for len in 1..=64 {
                    let rows = &block[..len * d];
                    let expect: Vec<u64> =
                        rows.chunks_exact(d).map(|row| dot(&dir, row).to_bits()).collect();
                    let best = expect
                        .iter()
                        .map(|&b| f64::from_bits(b))
                        .filter(|s| s.is_finite())
                        .fold(f64::NEG_INFINITY, f64::max);
                    for floor in [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, best] {
                        let out = &mut out[..len];
                        let verdict = score_rows(rows, d, &dir, out, floor);
                        let got: Vec<u64> = out.iter().map(|s| s.to_bits()).collect();
                        prop_assert_eq!(&got, &expect, "d={} len={}", d, len);
                        #[allow(clippy::neg_cmp_op_on_partial_ord)]
                        let any = out.iter().any(|&s| !(s < floor));
                        prop_assert_eq!(verdict, any, "d={} len={} floor={}", d, len, floor);
                    }
                }
            }
        }
    }

    proptest! {
        #[test]
        fn prop_dot_bit_identical(
            d in 1usize..12,
            seed in 0u64..10_000,
        ) {
            let mut state = seed.wrapping_mul(2654435761).wrapping_add(99);
            let mut next = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 2e3 - 1e3
            };
            let a: Vec<f64> = (0..d).map(|_| next()).collect();
            let b: Vec<f64> = (0..d).map(|_| next()).collect();
            prop_assert_eq!(dot(&a, &b).to_bits(), legacy_dot(&a, &b).to_bits());
        }

        #[test]
        fn prop_score_block_bit_identical(
            d in 1usize..9,
            n in 0usize..50,
            seed in 0u64..10_000,
        ) {
            let mut state = seed ^ 0xabcd;
            let mut next = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(7);
                ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            };
            let block: Vec<f64> = (0..n * d).map(|_| next() * 40.0).collect();
            let dir: Vec<f64> = (0..d).map(|_| next() * 4.0).collect();
            let mut out = Vec::new();
            score_block_into(&block, d, &dir, &mut out);
            let expect: Vec<u64> = block
                .chunks_exact(d)
                .map(|row| legacy_dot(&dir, row).to_bits())
                .collect();
            let got: Vec<u64> = out.iter().map(|s| s.to_bits()).collect();
            prop_assert_eq!(got, expect);
        }
    }
}
