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
//! through the same loop.
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
    score_rows(block, dims, dir, out);
}

/// The one per-dimension scoring loop: `out[i]` becomes row `i`'s score,
/// so a caller can score a run into a stack array.
///
/// # Panics
///
/// Panics unless `dir.len() == dims` and `block.len() == out.len() * dims`.
pub(crate) fn score_rows(block: &[f64], dims: usize, dir: &[f64], out: &mut [f64]) {
    assert_eq!(dir.len(), dims, "direction length mismatch");
    assert_eq!(block.len(), out.len() * dims, "one score per row");
    match dims {
        1 => score_rows_fixed::<1>(block, dir, out),
        2 => score_rows_fixed::<2>(block, dir, out),
        3 => score_rows_fixed::<3>(block, dir, out),
        4 => score_rows_fixed::<4>(block, dir, out),
        6 => score_rows_fixed::<6>(block, dir, out),
        8 => score_rows_fixed::<8>(block, dir, out),
        16 => score_rows_fixed::<16>(block, dir, out),
        _ => {
            for (i, row) in block.chunks_exact(dims).enumerate() {
                out[i] = dot_dyn(dir, row);
            }
        }
    }
}

#[inline(always)]
fn score_rows_fixed<const D: usize>(block: &[f64], dir: &[f64], out: &mut [f64]) {
    let dir: &[f64; D] = dir.try_into().expect("dispatched on dims");
    // Rows come from `ChunksExact::next`, not zipped with `out`: the zip's
    // random-access path loads a row element by element, ~25 % slower at
    // d = 3. The caller's length assert removes the `out[i]` check.
    for (i, row) in block.chunks_exact(D).enumerate() {
        let row: &[f64; D] = row.try_into().expect("chunks_exact");
        let mut acc = -0.0;
        for j in 0..D {
            acc += dir[j] * row[j];
        }
        out[i] = acc;
    }
}

/// Exact support `max dir . x` over the rows whose `alive` flag is set
/// (`NEG_INFINITY` when none are). Uses `f64::max`, matching the legacy
/// `best.max(score)` fold bit for bit.
///
/// # Panics
///
/// Panics if `alive.len() * dims != block.len()` or the direction length
/// is wrong.
pub fn max_score_alive(block: &[f64], dims: usize, alive: &[bool], dir: &[f64]) -> f64 {
    assert_eq!(dir.len(), dims, "direction length mismatch");
    assert_eq!(block.len(), alive.len() * dims, "alive mask mismatch");
    let mut best = f64::NEG_INFINITY;
    for (row, &live) in block.chunks_exact(dims).zip(alive) {
        if live {
            best = best.max(dot(dir, row));
        }
    }
    best
}

/// One row-major pass updating the running argmax of every direction in
/// `dirs` over the alive rows. `best[k]` holds `Some((row, score))` for
/// the **first strict maximum** of direction `k` seen so far — the same
/// winner a per-direction sweep in row order produces, so fanning
/// directions across threads and unioning cannot change the result.
///
/// Rows are visited once (contiguously) instead of once per direction:
/// for a peel bundle of `D` directions this turns `D` passes over a
/// pointer-chased `Vec<Vec<f64>>` into a single streaming pass. The
/// bundle is transposed once up front (`t[j * m + k]` = component `j` of
/// direction `k`), so the per-row scoring loop runs stride-1 **across
/// directions**: each direction's sum is an independent left-to-right
/// chain (contract preserved per direction), and independent chains side
/// by side are exactly what the autovectorizer can pack into SIMD lanes.
///
/// # Panics
///
/// Panics on mask/shape mismatches.
pub fn sweep_argmax_block(
    block: &[f64],
    dims: usize,
    alive: &[bool],
    dirs: &[Vec<f64>],
    best: &mut [Option<(usize, f64)>],
) {
    sweep_argmax_block_at(block, dims, alive, 0, dirs, best);
}

/// [`sweep_argmax_block`] over a sub-slice of a larger store: row `i` of
/// `block` is reported as global row `base + i`. Processing a store as
/// consecutive `(block, base)` chunks in order yields bit-identical
/// winners to one whole-store pass — the running `best` carries across
/// chunks and the first-strict-maximum rule is position-independent.
/// This is what lets a quantized coarse pass skip whole chunks whose
/// bound cannot beat the already-set winners.
///
/// # Panics
///
/// Panics on mask/shape mismatches.
pub fn sweep_argmax_block_at(
    block: &[f64],
    dims: usize,
    alive: &[bool],
    base: usize,
    dirs: &[Vec<f64>],
    best: &mut [Option<(usize, f64)>],
) {
    assert_eq!(block.len(), alive.len() * dims, "alive mask mismatch");
    assert_eq!(dirs.len(), best.len(), "one running best per direction");
    let m = dirs.len();
    if m == 0 {
        return;
    }
    let mut transposed = vec![0.0f64; m * dims];
    for (k, dir) in dirs.iter().enumerate() {
        assert_eq!(dir.len(), dims, "direction length mismatch");
        for (j, &v) in dir.iter().enumerate() {
            transposed[j * m + k] = v;
        }
    }
    // Running winners in flat arrays; `usize::MAX` marks "none yet", which
    // (like the legacy `None`) accepts the first alive row unconditionally
    // — even a NaN or -inf score — before strict `>` takes over.
    let mut best_score = vec![0.0f64; m];
    let mut best_row = vec![usize::MAX; m];
    for (k, slot) in best.iter().enumerate() {
        if let Some((row, score)) = slot {
            best_row[k] = *row;
            best_score[k] = *score;
        }
    }
    let mut scores = vec![0.0f64; m];
    for (i, (row, &live)) in block.chunks_exact(dims).zip(alive).enumerate() {
        if !live {
            continue;
        }
        // All m scores for this row in stride-1 passes over the transpose:
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
        // A running best exists for every direction after the first alive
        // row, so the steady-state check is a branch-free any-improved
        // reduction; the (rare) update pass only runs when it fires.
        let mut any_unset = false;
        let mut any_better = false;
        for k in 0..m {
            any_unset |= best_row[k] == usize::MAX;
            any_better |= scores[k] > best_score[k];
        }
        if any_unset || any_better {
            for k in 0..m {
                if best_row[k] == usize::MAX || scores[k] > best_score[k] {
                    best_row[k] = base + i;
                    best_score[k] = scores[k];
                }
            }
        }
    }
    for (k, slot) in best.iter_mut().enumerate() {
        if best_row[k] != usize::MAX {
            *slot = Some((best_row[k], best_score[k]));
        }
    }
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
        let mut best = vec![None];
        sweep_argmax_block(&b, 3, &[true], &[vec![-0.0; 3]], &mut best);
        assert_eq!(
            best[0].map(|(_, s): (usize, f64)| s.to_bits()),
            Some((-0.0f64).to_bits())
        );
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
        let d = 3;
        let n = 40;
        let block: Vec<f64> = (0..n * d).map(|j| ((j * 37 % 101) as f64) - 50.0).collect();
        let alive: Vec<bool> = (0..n).map(|i| i % 3 != 1).collect();
        let dirs: Vec<Vec<f64>> = vec![
            vec![1.0, 0.0, 0.0],
            vec![-0.5, 2.0, 0.25],
            vec![0.0, 0.0, -1.0],
        ];
        let mut best = vec![None; dirs.len()];
        sweep_argmax_block(&block, d, &alive, &dirs, &mut best);
        for (k, dir) in dirs.iter().enumerate() {
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
            assert_eq!(best[k], expect, "direction {k}");
        }
    }

    #[test]
    fn max_score_alive_matches_fold() {
        let d = 2;
        let block = [1.0, 2.0, -4.0, 9.0, 3.0, 3.0];
        let alive = [true, false, true];
        let dir = [1.0, 1.0];
        assert_eq!(max_score_alive(&block, d, &alive, &dir), 6.0);
        assert_eq!(
            max_score_alive(&block, d, &[false, false, false], &dir),
            f64::NEG_INFINITY
        );
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
