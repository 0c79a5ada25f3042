//! Quantized coarse-pass pruning over pyramid cells.
//!
//! The index layer's [`mbir_index::quant`] rejects *point rows* below the
//! top-K floor from an i8 side structure before any f64 is touched. This
//! module is the same idea one layer up: each pyramid level's per-cell
//! `[min, max]` attribute intervals are packed into a per-level, per-attribute
//! affine i8 code pair, so the descent engines can reject a whole child
//! *region* — before the exact [`bound_over_box`] interval arithmetic runs —
//! whenever the quantized cell upper bound falls strictly below the current
//! K-th floor.
//!
//! ## The prune-only contract
//!
//! The coarse pass may only **prune**, never decide. Every region it lets
//! through gets the exact bound and descends as before; every region it
//! rejects is *provably* strictly below the floor, so no cell under it could
//! have entered the top-K even on a tie (ties require exact equality, and
//! pruning requires a strict `ub < floor`). Because the frontier is ordered
//! by a total order (the engine's `Region`: upper bound, then coordinates),
//! dropping a pruned region never reorders the survivors, and
//! the engines' results, completeness, and skipped-page accounting stay
//! bit-identical to the unpruned runs at every thread count. Only the
//! *effort* differs — that is the point.
//!
//! ## The bound derivation
//!
//! For level `l` and attribute `j`, cell interval endpoints are stored as
//! `x ≈ bias_j + scale_j · q` with `q ∈ [-127, 127]`, `qmin` rounding the
//! cell minimum and `qmax` the cell maximum. The decoded interval
//! `[bias + scale·qmin − err_j, bias + scale·qmax + err_j]` contains the
//! true cell interval, with `err_j` the *measured* maximum decode deviation
//! over the level, padded by `4ε(maxabs_j + |bias_j| + 127·scale_j)` for
//! the rounding of the measurement itself.
//!
//! A prepared query folds the model in once per level:
//! `coeff_j = a_j · scale_j`, `base = intercept + Σ a_j · bias_j`, and the
//! cell bound is `base + Σ coeff_j · (coeff_j ≥ 0 ? qmax_j : qmin_j) +
//! slack`. The slack `Σ|a_j|·err_j + γ(|intercept| + M + B + 2C)` with
//! `M = Σ|a_j|·maxabs_j`, `B = Σ|a_j|·|bias_j|`,
//! `C = 127·Σ|coeff_j|`, and `γ = (2n + 8)ε` covers, simultaneously, the
//! summation error of the coarse pass itself, of the *computed*
//! [`bound_over_box`] upper bound, and of any *computed*
//! [`evaluate`](mbir_models::linear::LinearModel::evaluate) at a point
//! inside the box — the quantized bound dominates all three, which is what
//! makes prune-only sound in floating point, not just on paper. A level
//! whose magnitude sums exceed `OVERFLOW_GUARD` is unusable for that
//! query (bound `+∞`, never pruned): below the guard no partial sum can
//! overflow, ruling out NaN scores sneaking past a finite bound.
//!
//! ## Layout
//!
//! Codes are cell-major interleaved: cell `(r, c)` owns the `2·n`
//! consecutive bytes at `(r·cols + c)·2n`, attribute `j` at offsets `2j`
//! (min code) and `2j + 1` (max code). One contiguous i8 read per cell
//! check, instead of `n` scattered [`CellStats`] lookups across `n`
//! pyramid allocations.
//!
//! [`bound_over_box`]: mbir_models::linear::LinearModel::bound_over_box
//! [`CellStats`]: mbir_progressive::pyramid::CellStats

use crate::error::CoreError;
use mbir_models::linear::LinearModel;
use mbir_progressive::pyramid::AggregatePyramid;

/// Largest quantized magnitude: codes live in `[-127, 127]`.
const QMAX: f64 = 127.0;

/// Machine epsilon shorthand for the error-bound arithmetic.
const EPS: f64 = f64::EPSILON;

/// Magnitude cap above which a level is unusable for a query: with every
/// magnitude sum below this, no partial sum of the exact bound or of an
/// exact evaluation can overflow to ±∞ (and hence never produce NaN), so
/// a finite quantized bound soundly dominates them.
const OVERFLOW_GUARD: f64 = 1e300;

/// Nudges a bound upward by a relative + tiny absolute pad, absorbing the
/// rounding of the final few additions that assemble the bound.
#[inline]
fn pad_up(x: f64) -> f64 {
    x + x.abs() * (16.0 * EPS) + f64::MIN_POSITIVE
}

/// One pyramid level's quantization: interleaved per-cell code pairs plus
/// everything the per-query preparation needs.
#[derive(Debug, Clone)]
struct CoarseLevel {
    /// Grid rows at this level.
    rows: usize,
    /// Grid columns at this level.
    cols: usize,
    /// False when the level holds non-finite cell stats: such a level is
    /// never pruned (its bound is `+∞` for every query).
    usable: bool,
    /// Per-attribute quantization step (0.0 for constant attributes).
    scale: Vec<f64>,
    /// Per-attribute affine offset (the level interval midpoint).
    bias: Vec<f64>,
    /// Per-attribute measured + padded decode error bound.
    err: Vec<f64>,
    /// Per-attribute max endpoint magnitude over the level.
    maxabs: Vec<f64>,
    /// Cell-major interleaved codes: cell `(r, c)` attribute `j` lives at
    /// `(r·cols + c)·2·arity + 2j` (min code) and `+ 1` (max code).
    codes: Vec<i8>,
}

/// The i8 coarse-pass side structure over a set of attribute pyramids.
///
/// Build once per archive ([`CoarseGrid::build`]), prepare once per query
/// ([`CoarseGrid::prepare_into`], filling caller-owned scratch vectors),
/// then ask [`CoarseGrid::cell_upper_bound`] for O(arity) sound cell
/// bounds during descent.
#[derive(Debug, Clone)]
pub struct CoarseGrid {
    arity: usize,
    levels: Vec<CoarseLevel>,
}

impl CoarseGrid {
    /// Quantizes one pyramid per model attribute, level by level.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Query`] when no pyramids are given or their
    /// shapes disagree, and propagates pyramid access errors.
    pub fn build(pyramids: &[AggregatePyramid]) -> Result<Self, CoreError> {
        let arity = pyramids.len();
        if arity == 0 {
            return Err(CoreError::Query(
                "coarse grid needs at least one attribute pyramid".into(),
            ));
        }
        let level_count = pyramids[0].levels();
        for (j, p) in pyramids.iter().enumerate() {
            if p.levels() != level_count || p.base_shape() != pyramids[0].base_shape() {
                return Err(CoreError::Query(format!(
                    "pyramid {j} shape disagrees with pyramid 0"
                )));
            }
        }
        let mut levels = Vec::with_capacity(level_count);
        for l in 0..level_count {
            let (rows, cols) = pyramids[0].level_shape(l);
            levels.push(CoarseLevel::pack(pyramids, l, rows, cols)?);
        }
        Ok(CoarseGrid { arity, levels })
    }

    /// Attributes per cell (one pyramid each).
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Pyramid levels covered.
    pub fn levels(&self) -> usize {
        self.levels.len()
    }

    /// Prepares the per-query coarse state for `model` into caller-owned
    /// scratch: `qcoeff[l·arity + j]` is the scaled coefficient, and
    /// `qmeta[2l] / qmeta[2l + 1]` are the level's base term and slack
    /// (`+∞` slack disables pruning at that level). O(levels · arity).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Query`] when the model arity does not match
    /// the pyramid count.
    pub fn prepare_into(
        &self,
        model: &LinearModel,
        qcoeff: &mut Vec<f64>,
        qmeta: &mut Vec<f64>,
    ) -> Result<(), CoreError> {
        let n = self.arity;
        if model.arity() != n {
            return Err(CoreError::Query(format!(
                "model arity {} does not match the coarse grid's {n} pyramids",
                model.arity()
            )));
        }
        let a = model.coefficients();
        let imag = model.intercept().abs();
        let gamma = (2 * n + 8) as f64 * EPS;
        qcoeff.clear();
        qmeta.clear();
        for lvl in &self.levels {
            let at = qcoeff.len();
            for (aj, sj) in a.iter().zip(&lvl.scale) {
                qcoeff.push(aj * sj);
            }
            if !lvl.usable {
                qmeta.push(0.0);
                qmeta.push(f64::INFINITY);
                continue;
            }
            let c = &qcoeff[at..at + n];
            let mut base = model.intercept();
            let mut r_sum = 0.0f64;
            let mut m_sum = 0.0f64;
            let mut bmag = 0.0f64;
            let mut c_sum = 0.0f64;
            for j in 0..n {
                base += a[j] * lvl.bias[j];
                r_sum += a[j].abs() * lvl.err[j];
                m_sum += a[j].abs() * lvl.maxabs[j];
                bmag += a[j].abs() * lvl.bias[j].abs();
                c_sum += c[j].abs() * QMAX;
            }
            // Overflow guard: beyond this, the exact bound's partial sums
            // could overflow (or even produce NaN), which no finite bound
            // can dominate. `!(x <= GUARD)` also catches NaN magnitudes.
            if !(imag <= OVERFLOW_GUARD
                && m_sum <= OVERFLOW_GUARD
                && bmag <= OVERFLOW_GUARD
                && c_sum <= OVERFLOW_GUARD)
            {
                qmeta.push(0.0);
                qmeta.push(f64::INFINITY);
                continue;
            }
            let s = r_sum + gamma * (imag + m_sum + bmag + 2.0 * c_sum);
            let s = s + s * (16.0 * EPS) + f64::MIN_POSITIVE;
            qmeta.push(base);
            qmeta.push(s);
        }
        Ok(())
    }

    /// Sound upper bound on the model over cell `(row, col)` of `level`,
    /// from state prepared by [`CoarseGrid::prepare_into`]. Dominates both
    /// the computed exact
    /// [`bound_over_box`](mbir_models::linear::LinearModel::bound_over_box)
    /// upper bound for the cell and any computed evaluation at a point
    /// inside it; `+∞` when the level is unusable for this query.
    ///
    /// # Panics
    ///
    /// Panics when the scratch does not come from `prepare_into` on this
    /// grid, or the cell coordinates are out of range.
    #[inline]
    pub fn cell_upper_bound(
        &self,
        qcoeff: &[f64],
        qmeta: &[f64],
        level: usize,
        row: usize,
        col: usize,
    ) -> f64 {
        let n = self.arity;
        let slack = qmeta[2 * level + 1];
        if !slack.is_finite() {
            return f64::INFINITY;
        }
        let lvl = &self.levels[level];
        assert!(row < lvl.rows && col < lvl.cols, "cell out of range");
        let at = (row * lvl.cols + col) * 2 * n;
        let cell = &lvl.codes[at..at + 2 * n];
        let c = &qcoeff[level * n..(level + 1) * n];
        let mut s = qmeta[2 * level] + slack;
        for j in 0..n {
            // A non-negative coefficient wants the max code; scale ≥ 0, so
            // coeff and the model coefficient share a sign (or coeff is 0
            // and either corner works).
            let q = if c[j] >= 0.0 {
                cell[2 * j + 1]
            } else {
                cell[2 * j]
            };
            s += c[j] * f64::from(q);
        }
        let ub = pad_up(s);
        if ub.is_finite() {
            ub
        } else {
            f64::INFINITY
        }
    }
}

impl CoarseLevel {
    fn pack(
        pyramids: &[AggregatePyramid],
        level: usize,
        rows: usize,
        cols: usize,
    ) -> Result<Self, CoreError> {
        let arity = pyramids.len();
        let mut scale = vec![0.0f64; arity];
        let mut bias = vec![0.0f64; arity];
        let mut err = vec![0.0f64; arity];
        let mut maxabs = vec![0.0f64; arity];
        let mut codes = vec![0i8; rows * cols * 2 * arity];
        let mut usable = true;
        for (j, pyramid) in pyramids.iter().enumerate() {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            let mut amax = 0.0f64;
            'scan: for r in 0..rows {
                for c in 0..cols {
                    let s = pyramid.cell(level, r, c)?;
                    if !s.min.is_finite() || !s.max.is_finite() {
                        usable = false;
                        break 'scan;
                    }
                    lo = lo.min(s.min);
                    hi = hi.max(s.max);
                    amax = amax.max(s.min.abs()).max(s.max.abs());
                }
            }
            if !usable {
                break;
            }
            let mid = 0.5 * lo + 0.5 * hi;
            let step = (hi - lo) / (2.0 * QMAX);
            let step = if step.is_finite() && step > 0.0 {
                step
            } else {
                0.0
            };
            if !mid.is_finite() {
                usable = false;
                break;
            }
            let mut e = 0.0f64;
            for r in 0..rows {
                for c in 0..cols {
                    let s = pyramid.cell(level, r, c)?;
                    let (qlo, qhi) = if step == 0.0 {
                        (0i8, 0i8)
                    } else {
                        (
                            ((s.min - mid) / step).round().clamp(-QMAX, QMAX) as i8,
                            ((s.max - mid) / step).round().clamp(-QMAX, QMAX) as i8,
                        )
                    };
                    let at = (r * cols + c) * 2 * arity + 2 * j;
                    codes[at] = qlo;
                    codes[at + 1] = qhi;
                    e = e
                        .max((s.min - (mid + step * f64::from(qlo))).abs())
                        .max((s.max - (mid + step * f64::from(qhi))).abs());
                }
            }
            // Pad the measured deviation for the rounding of the
            // measurement itself (a 3-op f64 chain per endpoint).
            let e = e + 4.0 * EPS * (amax + mid.abs() + step * QMAX);
            if !e.is_finite() {
                usable = false;
                break;
            }
            scale[j] = step;
            bias[j] = mid;
            err[j] = e;
            maxabs[j] = amax;
        }
        Ok(CoarseLevel {
            rows,
            cols,
            usable,
            scale,
            bias,
            err,
            maxabs,
            codes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbir_archive::grid::Grid2;
    use proptest::prelude::*;

    fn smooth_grid(i: usize, rows: usize, cols: usize) -> Grid2<f64> {
        Grid2::from_fn(rows, cols, |r, c| {
            ((r as f64 / 7.0 + i as f64).sin() + (c as f64 / 5.0).cos()) * 40.0 + 80.0
        })
    }

    fn build_world(arity: usize, rows: usize, cols: usize) -> (Vec<AggregatePyramid>, CoarseGrid) {
        let pyramids: Vec<AggregatePyramid> = (0..arity)
            .map(|i| AggregatePyramid::build(&smooth_grid(i, rows, cols)))
            .collect();
        let coarse = CoarseGrid::build(&pyramids).unwrap();
        (pyramids, coarse)
    }

    /// Exhaustively checks the two domination contracts on every cell of
    /// every level: the quantized bound must be ≥ the computed exact
    /// box-bound, and ≥ the computed evaluation at every box corner.
    fn assert_dominates(model: &LinearModel, pyramids: &[AggregatePyramid], coarse: &CoarseGrid) {
        let n = model.arity();
        let mut qcoeff = Vec::new();
        let mut qmeta = Vec::new();
        coarse.prepare_into(model, &mut qcoeff, &mut qmeta).unwrap();
        let mut ranges = vec![(0.0f64, 0.0f64); n];
        for l in 0..pyramids[0].levels() {
            let (rows, cols) = pyramids[0].level_shape(l);
            for r in 0..rows {
                for c in 0..cols {
                    for (j, p) in pyramids.iter().enumerate() {
                        let s = p.cell(l, r, c).unwrap();
                        ranges[j] = (s.min, s.max);
                    }
                    let ub = coarse.cell_upper_bound(&qcoeff, &qmeta, l, r, c);
                    let (_, hi) = model.bound_over_box(&ranges).unwrap();
                    assert!(
                        ub >= hi,
                        "level {l} cell ({r},{c}): quantized {ub} < exact bound {hi}"
                    );
                    // Corners of the box are the extremal evaluations of a
                    // linear model; check all 2^n of them.
                    for mask in 0..(1usize << n) {
                        let x: Vec<f64> = (0..n)
                            .map(|j| {
                                if mask >> j & 1 == 1 {
                                    ranges[j].1
                                } else {
                                    ranges[j].0
                                }
                            })
                            .collect();
                        let y = model.evaluate(&x);
                        assert!(
                            ub >= y,
                            "level {l} cell ({r},{c}): quantized {ub} < corner eval {y}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn bound_dominates_exact_bound_and_corner_evals() {
        let (pyramids, coarse) = build_world(3, 32, 24);
        let model = LinearModel::new(vec![1.0, -0.7, 0.31], 0.25).unwrap();
        assert_dominates(&model, &pyramids, &coarse);
    }

    #[test]
    fn bound_is_tight_enough_to_prune() {
        // The bound is only useful if it is close to the exact one: on a
        // smooth world it must stay within a small absolute margin of the
        // exact box-bound at the base level.
        let (pyramids, coarse) = build_world(2, 32, 32);
        let model = LinearModel::new(vec![1.0, 0.5], 0.0).unwrap();
        let mut qcoeff = Vec::new();
        let mut qmeta = Vec::new();
        coarse
            .prepare_into(&model, &mut qcoeff, &mut qmeta)
            .unwrap();
        let mut worst = 0.0f64;
        for r in 0..32 {
            for c in 0..32 {
                let ranges: Vec<(f64, f64)> = pyramids
                    .iter()
                    .map(|p| {
                        let s = p.cell(0, r, c).unwrap();
                        (s.min, s.max)
                    })
                    .collect();
                let ub = coarse.cell_upper_bound(&qcoeff, &qmeta, 0, r, c);
                let (_, hi) = model.bound_over_box(&ranges).unwrap();
                worst = worst.max(ub - hi);
            }
        }
        // Attribute spreads are ~160 wide ⇒ one code step ~0.63 per
        // attribute; the bound should never be slack by more than a few
        // steps.
        assert!(worst < 4.0, "bound slack {worst} too loose to prune with");
    }

    #[test]
    fn constant_level_quantizes_exactly() {
        let flat = Grid2::from_fn(16, 16, |_, _| 42.0);
        let pyramids = vec![AggregatePyramid::build(&flat)];
        let coarse = CoarseGrid::build(&pyramids).unwrap();
        let model = LinearModel::new(vec![2.0], 1.0).unwrap();
        let mut qcoeff = Vec::new();
        let mut qmeta = Vec::new();
        coarse
            .prepare_into(&model, &mut qcoeff, &mut qmeta)
            .unwrap();
        let ub = coarse.cell_upper_bound(&qcoeff, &qmeta, 0, 3, 3);
        let exact = 2.0 * 42.0 + 1.0;
        assert!(ub >= exact);
        assert!(ub - exact < 1e-9, "constant cells should bound tightly");
    }

    #[test]
    fn non_finite_cells_disable_pruning_without_unsoundness() {
        let grid = Grid2::from_fn(8, 8, |r, c| {
            if (r, c) == (3, 4) {
                f64::NAN
            } else {
                (r * 8 + c) as f64
            }
        });
        let pyramids = vec![AggregatePyramid::build(&grid)];
        let coarse = CoarseGrid::build(&pyramids).unwrap();
        let model = LinearModel::new(vec![1.0], 0.0).unwrap();
        let mut qcoeff = Vec::new();
        let mut qmeta = Vec::new();
        coarse
            .prepare_into(&model, &mut qcoeff, &mut qmeta)
            .unwrap();
        // The NaN makes the whole base level unusable: every base-level
        // bound is +∞, so nothing there is ever pruned. Higher levels may
        // or may not see the NaN (CellStats merging is NaN-dropping), but
        // their bounds still dominate their own stats, which is all the
        // engines ever compare against.
        for r in 0..8 {
            for c in 0..8 {
                assert!(coarse
                    .cell_upper_bound(&qcoeff, &qmeta, 0, r, c)
                    .is_infinite());
            }
        }
    }

    #[test]
    fn huge_magnitudes_trip_the_overflow_guard() {
        let grid = Grid2::from_fn(8, 8, |r, c| (r * 8 + c) as f64 * 1e304);
        let pyramids = vec![AggregatePyramid::build(&grid)];
        let coarse = CoarseGrid::build(&pyramids).unwrap();
        let model = LinearModel::new(vec![1.0], 0.0).unwrap();
        let mut qcoeff = Vec::new();
        let mut qmeta = Vec::new();
        coarse
            .prepare_into(&model, &mut qcoeff, &mut qmeta)
            .unwrap();
        assert!(coarse
            .cell_upper_bound(&qcoeff, &qmeta, 0, 7, 7)
            .is_infinite());
    }

    #[test]
    fn build_rejects_mismatched_pyramids() {
        assert!(matches!(CoarseGrid::build(&[]), Err(CoreError::Query(_))));
        let a = AggregatePyramid::build(&smooth_grid(0, 16, 16));
        let b = AggregatePyramid::build(&smooth_grid(1, 8, 16));
        assert!(CoarseGrid::build(&[a.clone(), b]).is_err());
        assert!(CoarseGrid::build(&[a.clone(), a]).is_ok());
    }

    #[test]
    fn prepare_rejects_arity_mismatch() {
        let (_, coarse) = build_world(2, 8, 8);
        let model = LinearModel::new(vec![1.0], 0.0).unwrap();
        let mut qcoeff = Vec::new();
        let mut qmeta = Vec::new();
        assert!(matches!(
            coarse.prepare_into(&model, &mut qcoeff, &mut qmeta),
            Err(CoreError::Query(_))
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The domination contract under random data and random models,
        /// including negative coefficients, zero coefficients, and skewed
        /// magnitudes.
        #[test]
        fn prop_bound_dominates(
            seed in 0u64..1000,
            a0 in -3.0f64..3.0,
            a1 in -3.0f64..3.0,
            intercept in -10.0f64..10.0,
            scale in prop::sample::select(vec![1e-6f64, 1.0, 1e6]),
        ) {
            let grids: Vec<Grid2<f64>> = (0..2)
                .map(|i| Grid2::from_fn(13, 11, |r, c| {
                    let t = (seed as f64 + i as f64 * 17.0
                        + r as f64 * 3.1 + c as f64 * 1.7).sin();
                    t * 100.0 * scale
                }))
                .collect();
            let pyramids: Vec<AggregatePyramid> =
                grids.iter().map(AggregatePyramid::build).collect();
            let coarse = CoarseGrid::build(&pyramids).unwrap();
            let model = LinearModel::new(vec![a0, a1], intercept).unwrap();
            assert_dominates(&model, &pyramids, &coarse);
        }
    }
}
