//! The Onion technique (paper §3.2, reference \[11\]): indexing for linear
//! optimization queries by convex-hull layer peeling.
//!
//! "An indexing technique, Onion, based on convex hull was proposed in \[11\]
//! to address the issue of locating tuples that optimize (either maximize or
//! minimize) a linear model. Experimental results have shown, with
//! three-parameter Gaussian distributed data sets, a speed-up of 13,000 fold
//! ... for retrieving the top-one choice while a speed-up of 1,400 fold ...
//! for retrieving the top-ten choices, both measured against sequential scan
//! of the unindexed data set."
//!
//! ## Construction
//!
//! Points are peeled into layers, outermost first. For 2-D data each layer
//! is the exact convex hull (Andrew's monotone chain over a single global
//! sort). For d >= 3 exact hulls are replaced by direction-sweep extreme
//! sets: the union of per-direction argmax points over a fixed bundle of
//! axis + seeded-random directions. That layer is a subset of the true hull,
//! which would be unsound on its own — so correctness is restored at query
//! time (below). Peeling stops after `max_layers`; the remainder forms a
//! core bucket, stored in **radial order** (see "Data layout").
//!
//! ## Query soundness
//!
//! One private walk (`OnionIndex::walk`) serves every query entry point.
//! It visits layers outward-in, offers every member to the query's top-K
//! heap, and lets the query leave only when a
//! bound on *everything it has not examined* is **strictly** below the
//! K-th best score it holds: the heap orders by
//! [`rank_cmp`](crate::stats::rank_cmp) (score, then ascending index), so a
//! skipped tuple that merely *ties* the floor could still displace a held
//! one with a larger index; one strictly below never can. The heap keeps
//! the K best of whatever it is offered, in any order, so answers are
//! index- and bit-identical to
//! [`scan_top_k_flat`](crate::scan::scan_top_k_flat) whatever the layers
//! contain; layer quality only decides how early the walk stops. The
//! bounds (DESIGN.md §10 has the full argument):
//!
//! * **Layer end, any d** — the enclosure recorded at build time for all
//!   points at the next depth or deeper (box corner bound or enclosing
//!   sphere bound, whichever is smaller), or the stored exact support for
//!   a query parallel to a registered hint.
//! * **Layer end, exact-hull prefix (d <= 2)** — a linear maximum over a
//!   point set is attained on its hull, so the best score seen *in* layer
//!   `l` bounds every deeper layer (the Onion paper's own rule).
//! * **Run start, core bucket** — the core is sorted by descending
//!   `r(x) = |S⁻¹(x − c)|` (`c` the core enclosure's centre, `S` its
//!   per-axis half-ranges) with one radius per run of `CORE_RUN_ROWS`
//!   entries. Run `j` and every later run have `r(x) <= R_j`, so
//!   `q·x = q·c + (S q)·(S⁻¹(x − c)) <= q·c + |S q|·R_j` (Cauchy–Schwarz).
//!   That holds for **any** `c` and positive `S` — they only decide how
//!   tight the bound is — so nothing about the data or the direction is
//!   assumed; a constant column (`S = 0`) drops out of both sides.
//!
//! The sphere and run bounds are padded outward (`ball_bound`) so they
//! dominate the *computed* kernel score; a non-finite term makes the bound
//! non-finite and the stop is skipped, and a tuple with a non-finite
//! coordinate sorts to the front of the core. The degenerate input is a
//! core on one normalised shell: all run radii are equal, the stop never
//! fires, and the core is walked in permuted order (`benches/kernels.rs`
//! keeps that cost on record).
//!
//! ## Data layout
//!
//! Tuples live in a flat row-major [`PointStore`]; layers are index lists
//! into it, peeled layers ascending, the core bucket (last entry of
//! `layers` whenever the cap was hit) in radial order with its run radii
//! beside it (`RadialCore`). One `Peeler::peel` and one `finish_core`
//! serve the build and the legacy build.
//! The d >= 3 peel makes **one** streaming pass over the store for the
//! whole build, not one per layer: it keeps each direction's best rows in
//! the sweep's own order (`Candidates`), and every layer reads its
//! per-direction winners off those lists. The winners are the ones a full
//! sweep per layer finds, so layers are bit-identical to the nested-`Vec`
//! [`OnionIndex::build_legacy_with`], which still sweeps every layer and is
//! the reference in bit-identity tests. A list starts short and is swept
//! again, longer, in the rare case it runs dry.
//! The remainders are nested, so the flat build encloses them from the
//! core outward (`Extremes`): each row is folded into the boxes and hint
//! supports once, not once per layer above it. A radius scans the peeled
//! rows beneath its layer and walks the core's radial order only as far as
//! a bound on the rest can still beat the largest distance found
//! (`set_radii`). The legacy build folds every remainder from scratch.
//! The quantised *query* walk is gone: with a few dozen scattered members
//! per layer and a core left after two or three runs it had nothing to
//! prune.

use crate::kernels;
use crate::quant::{pad_up, QuantPruneReport};
use crate::scan::{self, TopKHeap};
use crate::stats::{QueryStats, TopKResult};
use crate::store::PointStore;
use mbir_models::error::ModelError;
use rand_like::DirectionBundle;

/// Deterministic pseudo-random unit directions (no `rand` dependency in
/// this crate; a splitmix-style generator is ample for direction bundles).
mod rand_like {
    /// A reproducible bundle of unit directions in `d` dimensions.
    #[derive(Debug, Clone)]
    pub(super) struct DirectionBundle {
        directions: Vec<Vec<f64>>,
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn uniform(state: &mut u64) -> f64 {
        (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
    }

    fn gaussian(state: &mut u64) -> f64 {
        let u = uniform(state).max(1e-300);
        let v = uniform(state);
        (-2.0 * u.ln()).sqrt() * (2.0 * std::f64::consts::PI * v).cos()
    }

    impl DirectionBundle {
        /// `2d` axis directions plus `extra` random unit vectors.
        pub(super) fn new(d: usize, extra: usize, seed: u64) -> Self {
            let mut directions = Vec::with_capacity(2 * d + extra);
            for i in 0..d {
                let mut plus = vec![0.0; d];
                plus[i] = 1.0;
                directions.push(plus);
                let mut minus = vec![0.0; d];
                minus[i] = -1.0;
                directions.push(minus);
            }
            let mut state = seed ^ 0x5eed_0123_4567_89ab;
            for _ in 0..extra {
                let mut v: Vec<f64> = (0..d).map(|_| gaussian(&mut state)).collect();
                let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
                if norm > 1e-12 {
                    for x in &mut v {
                        *x /= norm;
                    }
                    directions.push(v);
                }
            }
            DirectionBundle { directions }
        }

        /// The directions.
        pub(super) fn directions(&self) -> &[Vec<f64>] {
            &self.directions
        }

        /// Appends extra (already normalized) directions.
        pub(super) fn with_extra(mut self, extra: &[Vec<f64>]) -> Self {
            self.directions.extend(extra.iter().cloned());
            self
        }
    }
}

/// Entries per radius-bounded run of the core bucket: long enough that
/// the per-run stop test is amortised over the offers, short enough that
/// a walk overshoots its stopping radius by at most a few dozen tuples.
const CORE_RUN_ROWS: usize = 64;

/// Cauchy–Schwarz bound `centre_score + reach` on `q·x` over a ball,
/// padded outward so it dominates the **computed** [`kernels::dot`] score
/// of every enclosed point (the [`pad_up`] discipline of [`crate::quant`]).
///
/// `magnitude` is `Σ|q_j|·max|x_j|` over the enclosed set. What is covered:
/// the kernel's `d`-term sum and the computed `centre_score`, at most
/// `dε·magnitude` each; the computed radius and direction norm behind
/// `reach`, at most `(d + 8)ε·reach` together; squares that underflow while
/// forming those two, below `1e-150·magnitude`. `(4d + 16)ε` over
/// `magnitude + reach` is a generous cover, and `pad_up` absorbs the final
/// additions. A non-finite input gives a non-finite bound, which never
/// stops a walk.
#[inline]
fn ball_bound(centre_score: f64, reach: f64, magnitude: f64, dims: usize) -> f64 {
    let gamma = (4 * dims + 16) as f64 * f64::EPSILON;
    pad_up(centre_score + reach + gamma * (magnitude + reach))
}

/// Whether a walk may stop: `bound` is finite and **strictly** below the
/// heap floor (a tie could still change an index, see the module docs).
#[inline]
fn stops(bound: f64, floor: f64) -> bool {
    bound.is_finite() && bound < floor
}

/// Squared Euclidean distance, summed left to right.
fn dist2(point: &[f64], center: &[f64]) -> f64 {
    point
        .iter()
        .zip(center)
        .map(|(v, c)| (v - c) * (v - c))
        .sum()
}

/// Sound enclosure of a point set: bounding box plus enclosing sphere
/// (box center, max distance). For any direction the true maximum of
/// `direction . x` is at most `min(box corner bound, sphere bound)` — the
/// sphere bound `a·c + |a|·R` is much tighter for ball-like (Gaussian)
/// clouds, the box bound for axis-aligned ones.
#[derive(Debug, Clone, PartialEq)]
struct BoundingBox {
    lo: Vec<f64>,
    hi: Vec<f64>,
    center: Vec<f64>,
    /// NaN or `+∞` when a member has a non-finite coordinate (which
    /// `min`/`max` would silently skip): the enclosure then bounds nothing.
    radius: f64,
}

impl BoundingBox {
    /// Encloses the `members` rows by folding them in order: the legacy
    /// build's enclosure, which the flat build's `Extremes` and
    /// [`set_radii`] reproduce bit for bit.
    fn of<'a, M>(members: M, d: usize) -> Option<Self>
    where
        M: Iterator<Item = &'a [f64]> + Clone,
    {
        let mut lo = vec![f64::INFINITY; d];
        let mut hi = vec![f64::NEG_INFINITY; d];
        let mut any = false;
        for row in members.clone() {
            any = true;
            kernels::min_max_update(&mut lo, &mut hi, row);
        }
        if !any {
            return None;
        }
        let center: Vec<f64> = lo.iter().zip(&hi).map(|(l, h)| (l + h) / 2.0).collect();
        let mut radius: f64 = 0.0;
        for row in members {
            let d2 = dist2(row, &center);
            // A NaN distance must poison the radius, not vanish in `max`.
            if d2 > radius || d2.is_nan() {
                radius = d2;
            }
        }
        Some(BoundingBox {
            lo,
            hi,
            center,
            radius: radius.sqrt(),
        })
    }

    /// `Σ|a_j|·max|x_j|` over the box: the magnitude [`ball_bound`] pads
    /// against.
    fn magnitude(&self, direction: &[f64]) -> f64 {
        direction
            .iter()
            .zip(self.lo.iter().zip(&self.hi))
            .map(|(a, (lo, hi))| a.abs() * lo.abs().max(hi.abs()))
            .sum()
    }

    /// Sound upper bound on the computed `direction . x` over the enclosed
    /// set; `norm` is `|direction|`. The box half needs no padding: it sums
    /// term-wise larger products in the kernel's own order, and rounding is
    /// monotone. A NaN sphere half (non-finite data) is returned as is.
    fn upper_bound(&self, direction: &[f64], norm: f64) -> f64 {
        let box_bound: f64 = direction
            .iter()
            .zip(self.lo.iter().zip(&self.hi))
            .map(|(a, (lo, hi))| if *a >= 0.0 { a * hi } else { a * lo })
            .sum();
        let sphere_bound = ball_bound(
            kernels::dot(direction, &self.center),
            norm * self.radius,
            self.magnitude(direction),
            direction.len(),
        );
        if box_bound < sphere_bound {
            box_bound
        } else {
            sphere_bound
        }
    }
}

/// What makes the core bucket's radial order usable at query time. The
/// order itself is the core's entry in `layers`; the centre is the core
/// enclosure's.
#[derive(Debug, Clone, PartialEq)]
struct RadialCore {
    /// `S`: per-axis half-ranges of the core enclosure.
    half: Vec<f64>,
    /// `run_radius[j]` = largest `|S⁻¹(x − c)|` over run `j` — and, the
    /// order being descending, over every later run.
    run_radius: Vec<f64>,
}

/// Puts the alive rows (`count` of them, enclosed by `enclosure`) in
/// descending box-normalised distance from the enclosure's centre and
/// records one radius per run. Ties go to the smaller index, so the order
/// is a function of the stored coordinates alone. Returns the order as
/// `(radius, row)` pairs.
fn finish_core(
    store: &PointStore,
    alive: &[bool],
    count: usize,
    enclosure: &BoundingBox,
) -> (Vec<(f64, u32)>, RadialCore) {
    let half: Vec<f64> = enclosure
        .lo
        .iter()
        .zip(&enclosure.hi)
        .map(|(lo, hi)| (hi - lo) / 2.0)
        .collect();
    // A constant column has x = c on that axis: it adds nothing to the
    // radius (and `S q` nothing to the bound).
    let inverse: Vec<f64> = half
        .iter()
        .map(|&s| if s > 0.0 { 1.0 / s } else { 0.0 })
        .collect();
    // The sort moves each key with its row: no lookups by row number.
    let mut order: Vec<(f64, u32)> = Vec::with_capacity(count);
    for (idx, row) in store.rows().enumerate() {
        if !alive[idx] {
            continue;
        }
        let r2: f64 = row
            .iter()
            .zip(enclosure.center.iter().zip(&inverse))
            .map(|(v, (c, inv))| {
                let u = (v - c) * inv;
                u * u
            })
            .sum();
        // A radius that is not a number bounds nothing: such a tuple goes
        // first, under a run radius that disables the stop.
        let r = r2.sqrt();
        order.push((
            if r.is_finite() { r } else { f64::INFINITY },
            u32::try_from(idx).expect("the core is addressed by u32 row numbers"),
        ));
    }
    order.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    let run_radius = order.chunks(CORE_RUN_ROWS).map(|run| run[0].0).collect();
    (order, RadialCore { half, run_radius })
}

/// The core's row numbers in the order [`finish_core`] returned.
fn members(order: Vec<(f64, u32)>) -> Vec<usize> {
    // Collected into the pairs' own buffer, twice the size it needs.
    let mut members: Vec<usize> = order.into_iter().map(|(_, row)| row as usize).collect();
    members.shrink_to_fit();
    members
}

/// Everything a peel reads. `legacy_rows` selects the pre-`PointStore`
/// reference path (nested rows, one enclosure and hint-support fold over
/// the remainder and one sweep pass per direction, every layer); results
/// are bit-identical.
struct Peeler<'a> {
    store: &'a PointStore,
    legacy_rows: Option<&'a [Vec<f64>]>,
    hints: &'a [Vec<f64>],
    bundle: DirectionBundle,
    threads: usize,
}

impl Peeler<'_> {
    /// The legacy enclosure of the alive rows: one fold over all of them.
    fn enclose(&self, rows: &[Vec<f64>], alive: &[bool]) -> BoundingBox {
        fn live<'a>((row, &live): (&'a Vec<f64>, &bool)) -> Option<&'a [f64]> {
            live.then_some(row.as_slice())
        }
        BoundingBox::of(rows.iter().zip(alive).filter_map(live), self.store.dims())
            .expect("enclose is only called with rows alive")
    }

    /// The legacy hint supports of the alive rows: one fold per hint.
    fn supports(&self, rows: &[Vec<f64>], alive: &[bool]) -> Vec<f64> {
        self.hints
            .iter()
            .map(|h| support_of_rows(alive, rows, h))
            .collect()
    }

    /// Peels the alive rows onto `layers` (exact hulls for d <= 2,
    /// direction sweeps otherwise) with one enclosure and one hint-support
    /// row each, until none is left or `layers` holds `max_layers`; the rest
    /// becomes a radially ordered core bucket, whose run radii are returned.
    fn peel(
        &self,
        mut alive: Vec<bool>,
        max_layers: usize,
        layers: &mut Vec<Vec<usize>>,
        boxes: &mut Vec<BoundingBox>,
        hint_support: &mut Vec<Vec<f64>>,
    ) -> Option<RadialCore> {
        let store = self.store;
        let dims = store.dims();
        let mut remaining = alive.iter().filter(|a| **a).count();
        // x-then-y order, sorted once and reused by every 2-D hull.
        let sorted_2d: Option<Vec<usize>> = (dims == 2).then(|| {
            let mut order: Vec<usize> = (0..alive.len()).filter(|&i| alive[i]).collect();
            order.sort_by(|&a, &b| {
                store.row(a)[0]
                    .total_cmp(&store.row(b)[0])
                    .then(store.row(a)[1].total_cmp(&store.row(b)[1]))
            });
            order
        });
        // d >= 3: made by the first layer, read by every layer.
        let mut candidates: Option<Candidates> = None;
        let dirs = self.bundle.directions();
        while remaining > 0 && layers.len() < max_layers {
            if let Some(rows) = self.legacy_rows {
                boxes.push(self.enclose(rows, &alive));
                hint_support.push(self.supports(rows, &alive));
            }
            let layer = match (&sorted_2d, self.legacy_rows) {
                _ if dims == 1 => extremes_1d(store, &alive),
                (Some(order), _) => hull_2d(store, &alive, order),
                (None, Some(rows)) => sweep_layer(rows, &alive, dirs),
                (None, None) => candidates
                    .get_or_insert_with(|| Candidates::new(store, dirs, max_layers, self.threads))
                    .layer(store, dirs, &alive),
            };
            debug_assert!(!layer.is_empty(), "peel must remove at least one point");
            for &idx in &layer {
                alive[idx] = false;
            }
            remaining -= layer.len();
            layers.push(layer);
        }
        let Some(rows) = self.legacy_rows else {
            return self.enclose_core_outward(&alive, remaining, layers, boxes, hint_support);
        };
        (remaining > 0).then(|| {
            let enclosure = self.enclose(rows, &alive);
            hint_support.push(self.supports(rows, &alive));
            let (order, core) = finish_core(store, &alive, remaining, &enclosure);
            boxes.push(enclosure);
            layers.push(members(order));
            core
        })
    }

    /// The flat build's enclosures, hint supports and core bucket, from the
    /// core outward: remainder `l` is remainder `l + 1` and layer `l`, so
    /// one [`Extremes`] takes the core's rows and then one layer at a time,
    /// and each row is folded once. The core is ordered before the radii
    /// are taken: its order is what lets [`set_radii`] skip most of it.
    fn enclose_core_outward(
        &self,
        alive: &[bool],
        remaining: usize,
        layers: &mut Vec<Vec<usize>>,
        boxes: &mut Vec<BoundingBox>,
        hint_support: &mut Vec<Vec<f64>>,
    ) -> Option<RadialCore> {
        let store = self.store;
        let mut extremes = Extremes::new(store.dims(), self.hints.len());
        let mut outward = Vec::with_capacity(layers.len() + 1);
        if remaining > 0 {
            for (row, x) in store.rows().enumerate() {
                if alive[row] {
                    extremes.add(row, x, self.hints);
                }
            }
            outward.push(extremes.settle());
        }
        for layer in layers.iter().rev() {
            for &row in layer {
                extremes.add(row, store.row(row), self.hints);
            }
            outward.push(extremes.settle());
        }
        #[cfg(test)]
        tally(|work| work.rows += remaining + layers.iter().map(Vec::len).sum::<usize>());
        (*boxes, *hint_support) = outward.into_iter().rev().unzip();
        let core = (remaining > 0).then(|| {
            let enclosure = boxes.last().expect("the core has an enclosure");
            finish_core(store, alive, remaining, enclosure)
        });
        set_radii(
            store,
            boxes,
            layers,
            core.as_ref().map(|(order, radial)| (&order[..], radial)),
        );
        core.map(|(order, radial)| {
            layers.push(members(order));
            radial
        })
    }
}

/// A column's zeros over a set of rows: the first and the last in row
/// order, and one of each sign that occurs.
#[derive(Debug, Clone, Copy, Default)]
struct Zeros {
    first: Option<(usize, f64)>,
    last: Option<(usize, f64)>,
    neg: Option<f64>,
    pos: Option<f64>,
}

impl Zeros {
    /// Counts `zero`, row `row`'s `±0.0`; rows may come in any order.
    fn add(&mut self, row: usize, zero: f64) {
        if self.first.is_none_or(|(r, _)| row < r) {
            self.first = Some((row, zero));
        }
        if self.last.is_none_or(|(r, _)| row > r) {
            self.last = Some((row, zero));
        }
        if zero.is_sign_negative() {
            self.neg = Some(zero);
        } else {
            self.pos = Some(zero);
        }
    }

    /// The zero that a fold of `op` over the set in row order ends on when
    /// its extreme is a zero: from the first zero on, every zero ties what
    /// it holds. Whether `op` keeps the held operand on a `+0`/`−0` tie,
    /// takes the new one or prefers a sign — and `f64::min` / `f64::max`
    /// do one of those four — folding the first zero, one of each sign and
    /// the last zero ends on the same one.
    fn fold(&self, op: fn(f64, f64) -> f64) -> f64 {
        let (_, first) = self.first.expect("a zero extreme was reached by a zero");
        [self.neg, self.pos, self.last.map(|(_, zero)| zero)]
            .into_iter()
            .flatten()
            .fold(first, op)
    }
}

/// The folds behind one enclosure and one row of hint supports — per-axis
/// `min` and `max`, per-hint `max` score — over a set of rows that grows.
/// Rows may come in any order: the values of those folds do not depend on
/// it, and the one thing that does, which zero a fold ends on when its
/// extreme is `±0`, is kept per column (the axes, then the hints).
struct Extremes {
    lo: Vec<f64>,
    hi: Vec<f64>,
    support: Vec<f64>,
    zeros: Vec<Zeros>,
}

impl Extremes {
    fn new(dims: usize, hints: usize) -> Self {
        Extremes {
            lo: vec![f64::INFINITY; dims],
            hi: vec![f64::NEG_INFINITY; dims],
            support: vec![f64::NEG_INFINITY; hints],
            zeros: vec![Zeros::default(); dims + hints],
        }
    }

    /// Folds in row `row`, `x`, scored against every hint.
    fn add(&mut self, row: usize, x: &[f64], hints: &[Vec<f64>]) {
        kernels::min_max_update(&mut self.lo, &mut self.hi, x);
        let scores = hints.iter().map(|hint| kernels::dot(hint, x));
        for (h, s) in scores.enumerate() {
            self.support[h] = self.support[h].max(s);
            if s == 0.0 {
                self.zeros[x.len() + h].add(row, s);
            }
        }
        for (zeros, &v) in self.zeros.iter_mut().zip(x) {
            if v == 0.0 {
                zeros.add(row, v);
            }
        }
    }

    /// The enclosure (its radius left for [`set_radii`]) and the hint
    /// supports of the rows so far, bit for bit the row-order folds of
    /// [`BoundingBox::of`] and [`support_of_rows`].
    fn settle(&self) -> (BoundingBox, Vec<f64>) {
        let exact = |folded: &[f64], zeros: &[Zeros], op: fn(f64, f64) -> f64| -> Vec<f64> {
            folded
                .iter()
                .zip(zeros)
                .map(|(&v, zeros)| if v == 0.0 { zeros.fold(op) } else { v })
                .collect()
        };
        let (axes, hints) = self.zeros.split_at(self.lo.len());
        let lo = exact(&self.lo, axes, f64::min);
        let hi = exact(&self.hi, axes, f64::max);
        let center = lo.iter().zip(&hi).map(|(l, h)| (l + h) / 2.0).collect();
        let enclosure = BoundingBox {
            lo,
            hi,
            center,
            radius: 0.0,
        };
        (enclosure, exact(&self.support, hints, f64::max))
    }
}

/// The radius fold of [`BoundingBox::of`] — the largest `dist2`, unless
/// one is NaN, when the last NaN in row order wins — from rows in any
/// order.
#[derive(Debug, Default)]
struct Farthest {
    /// The largest `dist2` that is a number (0 before any).
    max: f64,
    /// The NaN `dist2` of the largest row, if any.
    nan: Option<(usize, f64)>,
}

impl Farthest {
    fn add(&mut self, row: usize, d2: f64) {
        if d2.is_nan() {
            if self.nan.is_none_or(|(r, _)| row > r) {
                self.nan = Some((row, d2));
            }
        } else if d2 > self.max {
            self.max = d2;
        }
    }

    fn radius(&self) -> f64 {
        self.nan.map_or(self.max, |(_, d2)| d2).sqrt()
    }
}

/// Bound on the computed `dist2(x, c)` of every core row `x` at
/// box-normalised radius at most `u` ([`finish_core`]), for a centre `c`
/// at computed distance `gap` from the core's centre `c_core`:
/// `|x − c| <= |x − c_core| + |c_core − c|`, and `|x − c_core| <= widest ·
/// |S⁻¹(x − c_core)|` with `widest` the largest half-range `S_j` (an axis
/// with `S_j = 0` is constant over the core). Padded like [`ball_bound`]:
/// `slack` covers the rounding of `u`, `gap` and `dist2`, the `1e-150`
/// terms the squares that underflow while forming `u` and `gap`, and
/// `pad_up` the rest. A non-finite row, centre or half-range gives a NaN
/// or infinite bound, which nothing is below.
fn core_reach2(u: f64, widest: f64, gap: f64, dims: usize) -> f64 {
    let slack = 1.0 + (4 * dims + 16) as f64 * f64::EPSILON;
    let reach = (widest * (u + 1e-150) + gap + 1e-150) * slack;
    pad_up(reach * reach)
}

/// Sets every enclosure's radius to what [`BoundingBox::of`] gives over its
/// remainder ([`Farthest`]). Enclosure `l` covers the peeled `layers[l..]`
/// and the core: those layers (at most `max_layers · m` rows) are scanned,
/// and the core is walked in its radial `order` only until
/// [`core_reach2`] puts every row left below the largest `dist2` found.
/// Once the bound is finite no row left can be NaN: its radius and both
/// centres are finite, so its coordinates are too.
fn set_radii(
    store: &PointStore,
    boxes: &mut [BoundingBox],
    layers: &[Vec<usize>],
    core: Option<(&[(f64, u32)], &RadialCore)>,
) {
    let walk = core.map(|(order, radial)| {
        let centre = boxes
            .last()
            .expect("the core has an enclosure")
            .center
            .clone();
        let widest = radial.half.iter().copied().fold(0.0, f64::max);
        (order, centre, widest)
    });
    for (l, enclosure) in boxes.iter_mut().enumerate() {
        let mut far = Farthest::default();
        for &row in layers[l..].iter().flatten() {
            far.add(row, dist2(store.row(row), &enclosure.center));
            #[cfg(test)]
            tally(|work| work.rows += 1);
        }
        if let Some((order, centre, widest)) = &walk {
            let gap = dist2(centre, &enclosure.center).sqrt();
            for &(u, row) in order.iter() {
                if core_reach2(u, *widest, gap, store.dims()) < far.max {
                    #[cfg(test)]
                    tally(|work| work.walks_cut += 1);
                    break;
                }
                let row = row as usize;
                far.add(row, dist2(store.row(row), &enclosure.center));
                #[cfg(test)]
                tally(|work| work.rows += 1);
            }
        }
        enclosure.radius = far.radius();
    }
}

/// Rows each candidate list starts with, per layer of the cap (see
/// [`Candidates::new`]).
const LIST_ROWS_PER_LAYER: usize = 4;

/// The d >= 3 peel's per-direction candidate lists, made by one pass over
/// the store before the first layer.
///
/// A full sweep of direction `k` over the alive rows keeps its first alive
/// row when that row scores NaN (nothing is `>` NaN); otherwise its winner
/// is the first alive row of `k`'s ranking of the rows that score a number
/// (the order of [`kernels::sweep_candidates`]). So a layer takes, per
/// direction, the first alive row if it scores NaN, else the first alive
/// row of the direction's list — found by a cursor that only moves
/// forward, since a row once dead stays dead.
struct Candidates {
    /// `lists[k]`: the best rows of direction `k`, best first.
    lists: Vec<Vec<u32>>,
    /// `cursor[k]`: every row ahead of it in `lists[k]` is dead.
    cursor: Vec<usize>,
    /// Every row before it is dead.
    first_alive: usize,
}

impl Candidates {
    /// One pass over `store` for all of `dirs`, dealt to up to `threads`
    /// workers as [`deal`] deals them.
    ///
    /// Size. At layer `l` every row ahead of direction `k`'s winner in its
    /// ranking is dead: it was taken by one of the `l` earlier layers, and
    /// a layer takes at most one row per direction, `m` in all. So the
    /// winner can sit `(max_layers − 1) · m` rows deep, but the rows ahead
    /// of it are in practice the winners of a few neighbouring directions:
    /// a list starts at `LIST_ROWS_PER_LAYER · max_layers` rows (at least
    /// the `m` one layer can take, at most all of them), and
    /// [`Candidates::layer`] re-sweeps one that runs dry.
    fn new(store: &PointStore, dirs: &[Vec<f64>], max_layers: usize, threads: usize) -> Self {
        let rows = LIST_ROWS_PER_LAYER
            .saturating_mul(max_layers)
            .max(dirs.len())
            .min(store.len());
        let lists = deal(dirs, threads, |part| {
            kernels::sweep_candidates(store.flat(), store.dims(), part, rows)
        });
        Candidates {
            cursor: vec![0; lists.len()],
            lists,
            first_alive: 0,
        }
    }

    /// The next layer over the `alive` rows (at least one): the union of
    /// the directions' winners, sorted and deduplicated.
    fn layer(&mut self, store: &PointStore, dirs: &[Vec<f64>], alive: &[bool]) -> Vec<usize> {
        self.first_alive += alive[self.first_alive..]
            .iter()
            .position(|&live| live)
            .expect("a layer is only peeled with rows alive");
        let first = self.first_alive;
        let mut layer: Vec<usize> = dirs
            .chunks(1)
            .zip(&mut self.lists)
            .zip(&mut self.cursor)
            .map(|((dir, list), cursor)| {
                if kernels::dot(&dir[0], store.row(first)).is_nan() {
                    return first;
                }
                loop {
                    if let Some(ahead) = list[*cursor..].iter().position(|&row| alive[row as usize])
                    {
                        *cursor += ahead;
                        return list[*cursor] as usize;
                    }
                    *cursor = list.len();
                    refill(store, dir, list);
                }
            })
            .collect();
        layer.sort_unstable();
        layer.dedup();
        layer
    }
}

/// Re-sweeps the one direction `dir` of a list that ran dry at twice its size
/// (or all rows). The sweep's ranking is a total order, so the old list is
/// the new one's prefix and a cursor into it stays where it was. A list
/// runs dry only while rows that score a number are missing from it: the
/// first alive row scores one (else it had won) and is not in it.
fn refill(store: &PointStore, dir: &[Vec<f64>], list: &mut Vec<u32>) {
    let rows = (2 * list.len()).min(store.len());
    let grown = kernels::sweep_candidates(store.flat(), store.dims(), dir, rows)
        .pop()
        .expect("one list per direction");
    assert!(
        grown.len() > list.len(),
        "a list that holds every number holds every winner"
    );
    debug_assert_eq!(grown[..list.len()], list[..]);
    *list = grown;
    #[cfg(test)]
    tally(|work| work.refills += 1);
}

#[cfg(test)]
thread_local! {
    /// What this thread's flat peels did, summed ([`PeelWork`]).
    static PEEL_WORK: std::cell::Cell<PeelWork> = const {
        std::cell::Cell::new(PeelWork { rows: 0, walks_cut: 0, refills: 0 })
    };
}

/// The flat peel's work, counted for the tests.
#[cfg(test)]
#[derive(Debug, Clone, Copy)]
struct PeelWork {
    /// Rows the enclosure, hint-support and radius stage read.
    rows: usize,
    /// Radius walks that stopped before the end of the core.
    walks_cut: usize,
    /// Candidate lists re-swept at twice their size.
    refills: usize,
}

#[cfg(test)]
fn tally(count: impl FnOnce(&mut PeelWork)) {
    PEEL_WORK.with(|work| {
        let mut sum = work.get();
        count(&mut sum);
        work.set(sum);
    });
}

/// One query's state inside [`OnionIndex::walk`].
struct WalkQuery<'a> {
    direction: &'a [f64],
    /// `|direction|`.
    norm: f64,
    /// The registered hint this direction is positively parallel to.
    hint: Option<usize>,
    /// `direction · c`, `|S direction|` and `Σ|q_j|·max|x_j|` over the core
    /// enclosure — the per-query half of the run bound.
    core_centre_score: f64,
    core_spread: f64,
    core_magnitude: f64,
    heap: TopKHeap,
    stats: QueryStats,
    /// Best score offered in the layer being visited.
    layer_max: f64,
}

impl WalkQuery<'_> {
    /// Counts a layer visit.
    fn enter_layer(&mut self) {
        self.stats.nodes_visited += 1;
        self.layer_max = f64::NEG_INFINITY;
    }

    /// Whether the heap is full and `stop` (given the query and its heap
    /// floor) says the walk is done.
    fn leaves(&self, stop: impl Fn(&Self, f64) -> bool) -> bool {
        self.heap.floor().is_some_and(|floor| stop(self, floor))
    }

    /// Bound on this query's score over every core tuple of box-normalised
    /// radius at most `radius`.
    fn core_bound(&self, radius: f64) -> f64 {
        ball_bound(
            self.core_centre_score,
            self.core_spread * radius,
            self.core_magnitude,
            self.direction.len(),
        )
    }
}

/// The Onion index over a fixed set of d-dimensional tuples.
///
/// # Examples
///
/// ```
/// use mbir_index::onion::OnionIndex;
///
/// let points = vec![vec![0.1, 0.1], vec![0.9, 0.2], vec![0.5, 0.95], vec![0.5, 0.5]];
/// let onion = OnionIndex::build(points).unwrap();
/// let top = onion.top_k_max(&[0.0, 1.0], 1).unwrap();
/// assert_eq!(top.results[0].index, 2);
/// ```
#[derive(Debug, Clone)]
pub struct OnionIndex {
    points: PointStore,
    dims: usize,
    /// Layers outermost-first; the final entry is the unpeeled core, in
    /// radial order, exactly when `core` is set.
    layers: Vec<Vec<usize>>,
    /// `remaining_box[l]` bounds every point in layers `l..`.
    remaining_box: Vec<BoundingBox>,
    /// Run radii of the core bucket; `None` when peeling emptied the set
    /// before the layer cap.
    core: Option<RadialCore>,
    /// Workload hint directions (normalized) registered at build time.
    hints: Vec<Vec<f64>>,
    /// `hint_support[l][h]` = exact max of `hints[h] . x` over layers `l..`
    /// — a tight stopping bound for queries parallel to a hint.
    hint_support: Vec<Vec<f64>>,
    /// Number of leading layers that are *exact convex hulls* (all peeled
    /// layers for d <= 2 over finite data; zero for d >= 3, whose sweep
    /// layers are hull subsets). Within this prefix the best score of a
    /// layer bounds every deeper layer.
    exact_hull_layers: usize,
}

impl OnionIndex {
    /// Builds the index with default peeling limits (64 layers, 32 extra
    /// sweep directions).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Empty`] for no points and
    /// [`ModelError::ArityMismatch`] for ragged dimensions.
    pub fn build(points: Vec<Vec<f64>>) -> Result<Self, ModelError> {
        OnionIndex::build_with_hints(points, &[], 64, 32, 7)
    }

    /// Builds with explicit limits: at most `max_layers` peels, `extra_dirs`
    /// random sweep directions (d >= 3 only), and a seed for the bundle.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Empty`] for no points and
    /// [`ModelError::ArityMismatch`] for ragged dimensions.
    pub fn build_with(
        points: Vec<Vec<f64>>,
        max_layers: usize,
        extra_dirs: usize,
        seed: u64,
    ) -> Result<Self, ModelError> {
        OnionIndex::build_with_hints(points, &[], max_layers, extra_dirs, seed)
    }

    /// Builds with *workload hints*: known model directions (this is the
    /// paper's model-specific indexing — the index is built for the model).
    /// For every hint `h` the exact support `max h·x` over each peel
    /// remainder is stored, so a query whose direction is positively
    /// parallel to a hint gets a tight stopping bound at every layer end
    /// instead of waiting for the generic ones. Hints are also added to the
    /// peel sweep so their argmax points land in the outer layers.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Empty`] for no points,
    /// [`ModelError::ArityMismatch`] for ragged dimensions or wrong-length
    /// hints, and [`ModelError::InvalidValue`] for zero/non-finite hints.
    pub fn build_with_hints(
        points: Vec<Vec<f64>>,
        hints: &[Vec<f64>],
        max_layers: usize,
        extra_dirs: usize,
        seed: u64,
    ) -> Result<Self, ModelError> {
        OnionIndex::build_with_hints_threads(points, hints, max_layers, extra_dirs, seed, 1)
    }

    /// Fully parameterized build: hints, peel limits, sweep seed, and the
    /// number of threads for the d >= 3 candidate pass (lower dimensions
    /// build their exact hulls sequentially — they are already cheap).
    /// `threads <= 1` runs entirely on the calling thread. The layer
    /// structure is **bit-identical** to the sequential build: each
    /// direction's candidate list is computed independently and
    /// deterministically, and the per-layer union is sorted and
    /// deduplicated, so how the directions are dealt to threads cannot
    /// change the result.
    ///
    /// # Errors
    ///
    /// Same as [`OnionIndex::build_with_hints`].
    pub fn build_with_hints_threads(
        points: Vec<Vec<f64>>,
        hints: &[Vec<f64>],
        max_layers: usize,
        extra_dirs: usize,
        seed: u64,
        threads: usize,
    ) -> Result<Self, ModelError> {
        OnionIndex::build_impl(points, hints, max_layers, extra_dirs, seed, threads, false)
    }

    /// Returns the index unchanged. Kept for callers written against the
    /// quantised query walk, which read a side structure stored in the
    /// index; the walk is gone (see the module docs), and so is every other
    /// use of such a structure in the Onion index.
    pub fn with_quantized(self) -> Self {
        self
    }

    /// Builds via the pre-`PointStore` reference path: nested
    /// `Vec<Vec<f64>>` rows for every enclosure, hint support and sweep,
    /// one sweep pass per direction and layer. Layers, bounds, and query
    /// answers are bit-identical to [`OnionIndex::build_with`] at the same
    /// limits; only the construction cost differs. Kept as the honest "before" baseline
    /// for the kernels benchmark and as the reference in bit-identity
    /// property tests.
    ///
    /// # Errors
    ///
    /// Same as [`OnionIndex::build_with`].
    pub fn build_legacy_with(
        points: Vec<Vec<f64>>,
        max_layers: usize,
        extra_dirs: usize,
        seed: u64,
    ) -> Result<Self, ModelError> {
        OnionIndex::build_impl(points, &[], max_layers, extra_dirs, seed, 1, true)
    }

    fn build_impl(
        points: Vec<Vec<f64>>,
        hints: &[Vec<f64>],
        max_layers: usize,
        extra_dirs: usize,
        seed: u64,
        threads: usize,
        legacy: bool,
    ) -> Result<Self, ModelError> {
        // Validates shape: `Empty` for no or zero-width rows,
        // `ArityMismatch` for ragged ones.
        let store = PointStore::from_rows(&points)?;
        // Only the legacy reference path reads the nested rows again. The
        // flat path frees them here, before the peel allocates anything
        // proportional to n, so the build's peak is the input, not input
        // plus index.
        let legacy_rows = legacy.then_some(points);
        let dims = store.dims();
        // Validate and normalize hints.
        let mut unit_hints: Vec<Vec<f64>> = Vec::with_capacity(hints.len());
        for h in hints {
            if h.len() != dims {
                return Err(ModelError::ArityMismatch {
                    expected: dims,
                    actual: h.len(),
                });
            }
            let norm: f64 = h.iter().map(|v| v * v).sum::<f64>().sqrt();
            if !norm.is_finite() || norm <= 0.0 {
                return Err(ModelError::InvalidValue(
                    "hint directions must be non-zero and finite".into(),
                ));
            }
            unit_hints.push(h.iter().map(|v| v / norm).collect());
        }

        let (mut layers, mut remaining_box, mut hint_support) =
            (Vec::new(), Vec::new(), Vec::new());
        let core = Peeler {
            store: &store,
            legacy_rows: legacy_rows.as_deref(),
            hints: &unit_hints,
            bundle: DirectionBundle::new(dims, extra_dirs, seed).with_extra(&unit_hints),
            threads,
        }
        .peel(
            vec![true; store.len()],
            max_layers,
            &mut layers,
            &mut remaining_box,
            &mut hint_support,
        );
        // For d <= 2 every peeled layer is an exact hull; the trailing core
        // bucket (present when the cap was hit) is not. Hulls of data with
        // non-finite coordinates certify nothing.
        let finite = remaining_box[0].radius.is_finite();
        let exact_hull_layers = if dims <= 2 && finite {
            layers.len() - usize::from(core.is_some())
        } else {
            0
        };
        Ok(OnionIndex {
            points: store,
            dims,
            layers,
            remaining_box,
            core,
            hints: unit_hints,
            hint_support,
            exact_hull_layers,
        })
    }

    /// Number of layers (including the core bucket, if any).
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// Sizes of each layer, outermost first.
    pub fn layer_sizes(&self) -> Vec<usize> {
        self.layers.iter().map(Vec::len).collect()
    }

    /// Top-K tuples maximizing `direction . x`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ArityMismatch`] for a wrong-length direction
    /// and [`ModelError::InvalidValue`] for `k == 0`.
    pub fn top_k_max(&self, direction: &[f64], k: usize) -> Result<TopKResult, ModelError> {
        self.walk(direction, k, kernels::dot)
    }

    /// [`OnionIndex::top_k_max`] scoring through the legacy per-point
    /// `iter().zip()` fold instead of the dispatched kernel. Bit-identical
    /// answers (the kernel preserves the summation order); kept for the
    /// before/after benchmark and bit-identity tests.
    ///
    /// # Errors
    ///
    /// Same as [`OnionIndex::top_k_max`].
    pub fn top_k_max_legacy(&self, direction: &[f64], k: usize) -> Result<TopKResult, ModelError> {
        self.walk(direction, k, |dir: &[f64], row: &[f64]| {
            dir.iter().zip(row).map(|(a, v)| a * v).sum()
        })
    }

    /// [`OnionIndex::top_k_max`] under the name the quantised query walk
    /// used to have (see the module docs; results always were
    /// bit-identical).
    ///
    /// # Errors
    ///
    /// Same as [`OnionIndex::top_k_max`].
    pub fn top_k_max_quant(&self, direction: &[f64], k: usize) -> Result<TopKResult, ModelError> {
        self.top_k_max(direction, k)
    }

    /// [`OnionIndex::top_k_max_quant`] with a work report: every examined
    /// row is exact-scored and none is pruned.
    ///
    /// # Errors
    ///
    /// Same as [`OnionIndex::top_k_max`].
    pub fn top_k_max_quant_report(
        &self,
        direction: &[f64],
        k: usize,
    ) -> Result<(TopKResult, QuantPruneReport), ModelError> {
        let result = self.top_k_max(direction, k)?;
        let report = QuantPruneReport {
            rows_exact: result.stats.tuples_examined,
            ..QuantPruneReport::default()
        };
        Ok((result, report))
    }

    /// Top-K tuples minimizing `direction . x` (scores reported are the
    /// *minimized* values, ascending).
    ///
    /// # Errors
    ///
    /// Same as [`OnionIndex::top_k_max`].
    pub fn top_k_min(&self, direction: &[f64], k: usize) -> Result<TopKResult, ModelError> {
        let negated: Vec<f64> = direction.iter().map(|a| -a).collect();
        let mut result = self.top_k_max(&negated, k)?;
        for item in &mut result.results {
            item.score = -item.score;
        }
        Ok(result)
    }

    /// Per-query set-up of the walk: hint match and the direction's half
    /// of the core run bound.
    fn prepare<'a>(&self, direction: &'a [f64], k: usize) -> WalkQuery<'a> {
        let norm: f64 = direction.iter().map(|a| a * a).sum::<f64>().sqrt();
        // Is the query positively parallel to a registered hint? Then the
        // stored exact support gives a tight stopping bound. (A zero
        // direction divides to NaN and matches none.)
        let hint = self
            .hints
            .iter()
            .position(|h| kernels::dot(h, direction) / norm > 1.0 - 1e-9);
        let (mut core_centre_score, mut core_spread, mut core_magnitude) = (0.0, 0.0, 0.0);
        if let (Some(core), Some(enclosure)) = (&self.core, self.remaining_box.last()) {
            core_centre_score = kernels::dot(direction, &enclosure.center);
            core_spread = direction
                .iter()
                .zip(&core.half)
                .map(|(a, s)| (a * s) * (a * s))
                .sum::<f64>()
                .sqrt();
            core_magnitude = enclosure.magnitude(direction);
        }
        WalkQuery {
            direction,
            norm,
            hint,
            core_centre_score,
            core_spread,
            core_magnitude,
            heap: TopKHeap::new(k),
            stats: QueryStats::new(),
            layer_max: f64::NEG_INFINITY,
        }
    }

    /// Scores `rows` and offers them to the query's heap, a run-sized
    /// chunk at a time: the chunk's rows are fetched by one tight scoring
    /// loop (the scattered loads overlap), then admitted behind the heap's
    /// cached floor. The heap sees its offers in row order.
    fn offer_rows<F: Fn(&[f64], &[f64]) -> f64>(
        &self,
        rows: &[usize],
        q: &mut WalkQuery<'_>,
        score: &F,
    ) {
        let mut scores = [0.0f64; CORE_RUN_ROWS];
        for chunk in rows.chunks(CORE_RUN_ROWS) {
            let scores = &mut scores[..chunk.len()];
            for (s, &idx) in scores.iter_mut().zip(chunk) {
                *s = score(q.direction, self.points.row(idx));
                q.layer_max = q.layer_max.max(*s);
            }
            // The flat scan's cached-floor admission.
            scan::offer_run(&mut q.heap, scores, chunk.iter().copied());
            q.stats.tuples_examined += chunk.len() as u64;
        }
    }

    /// The one layer walk (see "Query soundness" in the module docs):
    /// peeled layers with the stop tests at each layer end, then the core
    /// bucket run by run with the radial test before each run.
    fn walk<F: Fn(&[f64], &[f64]) -> f64>(
        &self,
        direction: &[f64],
        k: usize,
        score: F,
    ) -> Result<TopKResult, ModelError> {
        if direction.len() != self.dims {
            return Err(ModelError::ArityMismatch {
                expected: self.dims,
                actual: direction.len(),
            });
        }
        if k == 0 {
            return Err(ModelError::InvalidValue("k must be >= 1".into()));
        }
        let mut q = self.prepare(direction, k);
        let peeled = &self.layers[..self.layers.len() - usize::from(self.core.is_some())];
        let mut left = false;
        for (l, layer) in peeled.iter().enumerate() {
            q.enter_layer();
            self.offer_rows(layer, &mut q, &score);
            // Without a core bucket the last peeled layer has nothing
            // beneath it.
            let Some(next_box) = self.remaining_box.get(l + 1) else {
                break;
            };
            left = q.leaves(|q, floor| {
                // Exact-hull prefix: this layer's best score bounds every
                // deeper layer.
                if l < self.exact_hull_layers && q.layer_max < floor {
                    return true;
                }
                let mut bound = next_box.upper_bound(q.direction, q.norm);
                if let Some(h) = q.hint {
                    let hinted = q.norm * self.hint_support[l + 1][h];
                    if hinted < bound {
                        bound = hinted;
                    }
                }
                stops(bound, floor)
            });
            if left {
                break;
            }
        }
        if let (false, Some(core), Some(members)) = (left, &self.core, self.layers.last()) {
            q.enter_layer();
            for (run, &radius) in members.chunks(CORE_RUN_ROWS).zip(&core.run_radius) {
                if q.leaves(|q, floor| stops(q.core_bound(radius), floor)) {
                    break;
                }
                self.offer_rows(run, &mut q, &score);
            }
        }
        // One comparison per examined tuple: the floor precheck stands in
        // for the rejected offers.
        let mut stats = q.stats;
        stats.comparisons = stats.tuples_examined;
        Ok(TopKResult {
            results: q.heap.into_sorted(),
            stats,
        })
    }
}

/// Exact support `max dir . x` over the alive rows of the nested legacy
/// representation: one `f64::max` fold in row order.
fn support_of_rows(alive: &[bool], points: &[Vec<f64>], dir: &[f64]) -> f64 {
    let mut best = f64::NEG_INFINITY;
    for (i, p) in points.iter().enumerate() {
        if alive[i] {
            let s: f64 = dir.iter().zip(p).map(|(a, v)| a * v).sum();
            best = best.max(s);
        }
    }
    best
}

/// 1-D "hull": the min and max of the remaining points.
fn extremes_1d(store: &PointStore, alive: &[bool]) -> Vec<usize> {
    let mut lo: Option<usize> = None;
    let mut hi: Option<usize> = None;
    for (i, p) in store.rows().enumerate() {
        if !alive[i] {
            continue;
        }
        if lo.map(|j| p[0] < store.row(j)[0]).unwrap_or(true) {
            lo = Some(i);
        }
        if hi.map(|j| p[0] > store.row(j)[0]).unwrap_or(true) {
            hi = Some(i);
        }
    }
    let mut out = Vec::new();
    if let Some(l) = lo {
        out.push(l);
    }
    if let Some(h) = hi {
        if Some(h) != lo {
            out.push(h);
        }
    }
    out
}

/// Exact 2-D convex hull (monotone chain) over the still-alive points,
/// reusing a global x-then-y sorted order.
fn hull_2d(store: &PointStore, alive: &[bool], order: &[usize]) -> Vec<usize> {
    let live: Vec<usize> = order.iter().copied().filter(|&i| alive[i]).collect();
    if live.len() <= 2 {
        return live;
    }
    let cross = |o: usize, a: usize, b: usize| -> f64 {
        let (po, pa, pb) = (store.row(o), store.row(a), store.row(b));
        (pa[0] - po[0]) * (pb[1] - po[1]) - (pa[1] - po[1]) * (pb[0] - po[0])
    };
    let mut lower: Vec<usize> = Vec::new();
    for &p in &live {
        while lower.len() >= 2 && cross(lower[lower.len() - 2], lower[lower.len() - 1], p) <= 0.0 {
            lower.pop();
        }
        lower.push(p);
    }
    let mut upper: Vec<usize> = Vec::new();
    for &p in live.iter().rev() {
        while upper.len() >= 2 && cross(upper[upper.len() - 2], upper[upper.len() - 1], p) <= 0.0 {
            upper.pop();
        }
        upper.push(p);
    }
    lower.pop();
    upper.pop();
    lower.extend(upper);
    // Collinear degenerate inputs can produce duplicates; dedup to keep the
    // peel making progress.
    lower.sort_unstable();
    lower.dedup();
    lower
}

/// Argmax of `dir . x` over the alive points: the *first* strict maximum,
/// which is deterministic regardless of which thread evaluates it.
fn sweep_argmax(points: &[Vec<f64>], alive: &[bool], dir: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, p) in points.iter().enumerate() {
        if !alive[i] {
            continue;
        }
        let s: f64 = dir.iter().zip(p).map(|(a, v)| a * v).sum();
        if best.map(|(_, bs)| s > bs).unwrap_or(true) {
            best = Some((i, s));
        }
    }
    best.map(|(i, _)| i)
}

/// Deals `dirs` to up to `threads` scoped workers in contiguous chunks
/// (`threads <= 1` runs on the calling thread) and concatenates what `work`
/// returns for each chunk, in chunk order. When `work` returns one item per
/// direction, item `k` belongs to direction `k` at every thread count.
fn deal<T, F>(dirs: &[Vec<f64>], threads: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(&[Vec<f64>]) -> Vec<T> + Sync,
{
    let workers = threads.max(1).min(dirs.len()).max(1);
    if workers <= 1 {
        return work(dirs);
    }
    let chunk = dirs.len().div_ceil(workers);
    let work = &work;
    std::thread::scope(|scope| {
        // Collecting the handles is what makes this parallel: a lazy
        // chain would join each worker before spawning the next.
        #[allow(clippy::needless_collect)]
        let handles: Vec<_> = dirs
            .chunks(chunk)
            .map(|part| scope.spawn(move || work(part)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    })
}

/// Legacy direction-sweep extreme set for d >= 3 over nested points: one
/// pass over `Vec<Vec<f64>>` per direction, then the union, sorted and
/// deduplicated. What the flat build's `Candidates` reproduce.
fn sweep_layer(points: &[Vec<f64>], alive: &[bool], dirs: &[Vec<f64>]) -> Vec<usize> {
    let mut layer: Vec<usize> = dirs
        .iter()
        .filter_map(|dir| sweep_argmax(points, alive, dir))
        .collect();
    layer.sort_unstable();
    layer.dedup();
    layer
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::{scan_top_k, scan_top_k_flat};
    use proptest::prelude::*;

    fn gaussian_points(seed: u64, n: usize, d: usize) -> Vec<Vec<f64>> {
        // Deterministic pseudo-Gaussian points without rand (test helper).
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        (0..n)
            .map(|_| {
                (0..d)
                    .map(|_| (0..12).map(|_| next()).sum::<f64>())
                    .collect()
            })
            .collect()
    }

    /// Gaussian points snapped to a half-unit grid: many exact duplicate
    /// points, and exactly tied scores between distinct points whenever
    /// the direction is on the grid too.
    fn snapped_points(seed: u64, n: usize, d: usize) -> Vec<Vec<f64>> {
        let mut points = gaussian_points(seed, n, d);
        for v in points.iter_mut().flatten() {
            *v = (*v * 2.0).round() / 2.0;
        }
        points
    }

    /// `count` directions from `seed`; every other one sits on the
    /// half-unit grid of [`snapped_points`].
    fn test_directions(seed: u64, count: usize, d: usize) -> Vec<Vec<f64>> {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(99);
            ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        (0..count)
            .map(|q| {
                (0..d)
                    .map(|_| {
                        let a = next() * 4.0;
                        if q % 2 == 0 {
                            a
                        } else {
                            (a * 2.0).round() / 2.0
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// What "equal to the scan" means: the same indexes carrying the same
    /// score bits, in the same order (NaN scores included).
    fn bits(result: &TopKResult) -> Vec<(usize, u64)> {
        result
            .results
            .iter()
            .map(|item| (item.index, item.score.to_bits()))
            .collect()
    }

    /// Points where the sweep's tie rules pick the winners: half-unit grid
    /// values (tied scores, duplicate rows) or, with `zeros`, coordinates
    /// from {−1, −½, −0, +0} alone, so that ±0 is often the best score of
    /// an axis direction; then NaN / ±∞ / ±0 coordinates and copied rows
    /// planted at random, and with `nan_first` a non-number in row 0.
    fn edge_points(seed: u64, n: usize, d: usize, zeros: bool, nan_first: bool) -> Vec<Vec<f64>> {
        const SPECIAL: [f64; 5] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0];
        let mut points = snapped_points(seed, n, d);
        let mut state = seed ^ 0x0dd5_eed5;
        let mut next = move |below: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % below
        };
        if zeros {
            for v in points.iter_mut().flatten() {
                *v = [-1.0, -0.5, -0.0, 0.0][next(4)];
            }
        }
        for _ in 0..=n / 8 {
            let (row, col) = (next(n), next(d));
            points[row][col] = SPECIAL[next(SPECIAL.len())];
        }
        for _ in 0..=n / 8 {
            let (to, from) = (next(n), next(n));
            points[to] = points[from].clone();
        }
        if nan_first {
            points[0][next(d)] = SPECIAL[next(3)];
        }
        points
    }

    /// Everything a build peels, by bits (NaN != NaN under `PartialEq`):
    /// layers, enclosures, core run radii and hint supports.
    #[allow(clippy::type_complexity)]
    fn peel_bits(
        onion: &OnionIndex,
    ) -> (
        Vec<Vec<usize>>,
        Vec<Vec<u64>>,
        Option<(Vec<u64>, Vec<u64>)>,
        Vec<Vec<u64>>,
    ) {
        let of = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let boxes = onion
            .remaining_box
            .iter()
            .map(|b| [of(&b.lo), of(&b.hi), of(&b.center), of(&[b.radius])].concat())
            .collect();
        let core = onion
            .core
            .as_ref()
            .map(|c| (of(&c.half), of(&c.run_radius)));
        let hints = onion.hint_support.iter().map(|h| of(h)).collect();
        (onion.layers.clone(), boxes, core, hints)
    }

    #[test]
    fn build_validates() {
        assert!(matches!(OnionIndex::build(vec![]), Err(ModelError::Empty)));
        assert!(OnionIndex::build(vec![vec![]]).is_err());
        assert!(OnionIndex::build(vec![vec![1.0], vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn layers_partition_the_points() {
        let points = gaussian_points(3, 500, 2);
        let onion = OnionIndex::build(points).unwrap();
        let mut all: Vec<usize> = onion.layers.iter().flatten().copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 500, "every point in exactly one layer");
    }

    #[test]
    fn query_matches_scan_2d() {
        let points = gaussian_points(5, 800, 2);
        let onion = OnionIndex::build(points.clone()).unwrap();
        for (k, dir) in [
            (1usize, vec![1.0, 0.3]),
            (5, vec![-0.7, 1.0]),
            (10, vec![0.0, -1.0]),
        ] {
            let fast = onion.top_k_max(&dir, k).unwrap();
            let slow = scan_top_k(&points, k, |p| dir.iter().zip(p).map(|(a, v)| a * v).sum());
            assert!(
                fast.score_equivalent(&slow, 1e-9),
                "k={k} dir={dir:?}: {:?} vs {:?}",
                fast.results,
                slow.results
            );
            assert!(fast.stats.tuples_examined < slow.stats.tuples_examined);
        }
    }

    #[test]
    fn query_matches_scan_3d_gaussian() {
        // The paper's experimental setting: 3-attribute Gaussian data.
        let points = gaussian_points(11, 2000, 3);
        let onion = OnionIndex::build(points.clone()).unwrap();
        for k in [1usize, 10] {
            let dir = vec![0.5, -1.0, 0.25];
            let fast = onion.top_k_max(&dir, k).unwrap();
            let slow = scan_top_k(&points, k, |p| dir.iter().zip(p).map(|(a, v)| a * v).sum());
            assert!(fast.score_equivalent(&slow, 1e-9));
            // The tuples examined by Onion are roughly N-independent (the
            // layer walk stops once the remaining-set bound falls under the
            // floor), so at this small N the ratio is modest; the paper-
            // scale factors emerge at large N and are measured by the E1
            // bench.
            let speedup = fast.stats.speedup_vs(&slow.stats).unwrap();
            assert!(speedup > 2.0, "expected a real speedup, got {speedup}");
        }
    }

    #[test]
    fn min_query_is_negated_max() {
        let points = gaussian_points(13, 300, 2);
        let onion = OnionIndex::build(points.clone()).unwrap();
        let dir = vec![1.0, 1.0];
        let mins = onion.top_k_min(&dir, 3).unwrap();
        let slow = scan_top_k(&points, 3, |p| -(p[0] + p[1]));
        for (m, s) in mins.results.iter().zip(&slow.results) {
            assert_eq!(m.index, s.index);
            assert!((m.score + s.score).abs() < 1e-12);
        }
        // Min scores ascend.
        assert!(mins.results[0].score <= mins.results[2].score);
    }

    #[test]
    fn query_validates() {
        let onion = OnionIndex::build(vec![vec![1.0, 2.0]]).unwrap();
        assert!(onion.top_k_max(&[1.0], 1).is_err());
        assert!(onion.top_k_max(&[1.0, 1.0], 0).is_err());
    }

    #[test]
    fn degenerate_collinear_points_still_work() {
        let points: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64, 2.0 * i as f64]).collect();
        let onion = OnionIndex::build(points).unwrap();
        let fast = onion.top_k_max(&[1.0, 0.0], 3).unwrap();
        assert_eq!(fast.indexes(), vec![19, 18, 17]);
    }

    #[test]
    fn duplicate_points_are_handled() {
        let points = vec![vec![1.0, 1.0]; 10];
        let onion = OnionIndex::build(points).unwrap();
        let r = onion.top_k_max(&[1.0, 0.0], 3).unwrap();
        assert_eq!(r.results.len(), 3);
        assert!(r.results.iter().all(|s| (s.score - 1.0).abs() < 1e-12));
    }

    #[test]
    fn core_bucket_is_reachable_and_exact() {
        // Tiny layer cap forces queries into the core bucket.
        let points = gaussian_points(17, 500, 2);
        let onion = OnionIndex::build_with(points.clone(), 2, 8, 1).unwrap();
        assert!(onion.layer_count() <= 3);
        // k larger than outer layers forces core examination; still exact.
        let k = 50;
        let dir = vec![0.3, 0.7];
        let fast = onion.top_k_max(&dir, k).unwrap();
        let slow = scan_top_k(&points, k, |p| dir.iter().zip(p).map(|(a, v)| a * v).sum());
        assert!(fast.score_equivalent(&slow, 1e-9));
    }

    #[test]
    fn hinted_queries_stop_earlier_on_hostile_data() {
        // Skewed, high-dimensional data where the generic box/sphere bounds
        // converge slowly: counts and bounded ratios with wildly different
        // query weights.
        let mut state = 99u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(7);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let points: Vec<Vec<f64>> = (0..20_000)
            .map(|_| {
                vec![
                    (next() * 10.0).floor(),
                    next() * 40.0,
                    next(),
                    next() * 20.0,
                    (next() * 5.0).floor(),
                    (next() * 3.0).floor(),
                ]
            })
            .collect();
        let weights = vec![22.0, -4.0, 120.0, -2.5, 15.0, 70.0];
        let plain = OnionIndex::build(points.clone()).unwrap();
        let hinted =
            OnionIndex::build_with_hints(points.clone(), std::slice::from_ref(&weights), 64, 32, 7)
                .unwrap();
        let k = 10;
        let slow = scan_top_k(&points, k, |p| {
            weights.iter().zip(p).map(|(a, v)| a * v).sum()
        });
        let plain_result = plain.top_k_max(&weights, k).unwrap();
        let hinted_result = hinted.top_k_max(&weights, k).unwrap();
        assert!(plain_result.score_equivalent(&slow, 1e-9));
        assert!(hinted_result.score_equivalent(&slow, 1e-9));
        assert!(
            hinted_result.stats.tuples_examined * 5 < plain_result.stats.tuples_examined,
            "hint should slash examined tuples: {} vs {}",
            hinted_result.stats.tuples_examined,
            plain_result.stats.tuples_examined
        );
        // Scaled queries still match the hint.
        let doubled: Vec<f64> = weights.iter().map(|w| w * 2.0).collect();
        let scaled = hinted.top_k_max(&doubled, k).unwrap();
        assert_eq!(scaled.indexes(), hinted_result.indexes());
        assert_eq!(
            scaled.stats.tuples_examined,
            hinted_result.stats.tuples_examined
        );
    }

    #[test]
    fn hull_rule_stops_2d_queries_without_bounds() {
        // Uniform square data with a diagonal query: the box-corner bound
        // (max_x + max_y) is never attained, so the generic bound is loose;
        // the exact-hull rule must stop the walk anyway.
        let mut state = 77u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(13);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let points: Vec<Vec<f64>> = (0..20_000).map(|_| vec![next(), next()]).collect();
        let store = PointStore::from_rows(&points).unwrap();
        let onion = OnionIndex::build(points).unwrap();
        let dir = vec![1.0, 1.0];
        for k in [1usize, 5, 10] {
            let fast = onion.top_k_max(&dir, k).unwrap();
            assert_eq!(
                fast.results,
                scan_top_k_flat(&store, &dir, k).results,
                "k={k}"
            );
            // A layer's best score bounds everything beneath it, so the
            // walk needs at most one layer beyond the k of the "j-th best
            // lies in the first j layers" theorem: the one that shows
            // nothing deeper even ties the floor.
            assert!(
                fast.stats.nodes_visited <= k as u64 + 1,
                "k={k}: visited {} layers",
                fast.stats.nodes_visited
            );
            assert!(
                fast.stats.tuples_examined < 2_000,
                "k={k}: examined {}",
                fast.stats.tuples_examined
            );
        }
    }

    #[test]
    fn k_layers_rule_would_return_the_wrong_duplicate() {
        // Why the d <= 2 stop is `layer_max < floor` and not the classical
        // "the j-th best lies in the first j layers": that theorem is about
        // scores. A hull keeps one copy of a duplicated vertex (here the
        // later row), the copy with the smaller row number peels a layer
        // deeper, and the scan's tie-break wants exactly that one.
        let mut points = gaussian_points(9, 400, 2);
        points[7] = vec![9.0, 0.5];
        points[300] = vec![9.0, 0.5];
        let store = PointStore::from_rows(&points).unwrap();
        let onion = OnionIndex::build(points).unwrap();
        assert!(onion.exact_hull_layers > 2);
        let (dir, k) = (vec![1.0, 0.0], 1usize);
        let truth = scan_top_k_flat(&store, &dir, k);
        assert_eq!(truth.indexes(), vec![7]);
        assert!(
            onion.layers[0].contains(&300) && onion.layers[1].contains(&7),
            "row 7 lies outside the first k layers: stopping there returns row 300"
        );
        let fast = onion.top_k_max(&dir, k).unwrap();
        assert_eq!(bits(&fast), bits(&truth));
        // k + 1 layers: the one past the theorem's k that holds row 7.
        assert_eq!(fast.stats.nodes_visited, 2);
    }

    #[test]
    fn parallel_build_is_bit_identical() {
        // d >= 3 exercises the threaded direction sweep; the private layer
        // structure (not just query answers) must match exactly.
        for d in [3usize, 4] {
            let points = gaussian_points(31 + d as u64, 600, d);
            let baseline = OnionIndex::build(points.clone()).unwrap();
            for threads in [1usize, 2, 4, 8] {
                let par =
                    OnionIndex::build_with_hints_threads(points.clone(), &[], 64, 32, 7, threads)
                        .unwrap();
                assert_eq!(par.layers, baseline.layers, "d={d} threads={threads}");
                assert_eq!(par.remaining_box, baseline.remaining_box);
                assert_eq!(par.exact_hull_layers, baseline.exact_hull_layers);
                let q: Vec<f64> = (0..d).map(|i| 1.0 - 0.4 * i as f64).collect();
                let a = par.top_k_max(&q, 7).unwrap();
                let b = baseline.top_k_max(&q, 7).unwrap();
                assert_eq!(a.results, b.results);
                assert_eq!(a.stats.tuples_examined, b.stats.tuples_examined);
            }
        }
        // Hinted parallel builds match hinted sequential builds too.
        let points = gaussian_points(53, 400, 3);
        let hint = vec![0.5, -0.25, 1.0];
        let seq =
            OnionIndex::build_with_hints(points.clone(), std::slice::from_ref(&hint), 16, 16, 3)
                .unwrap();
        let par = OnionIndex::build_with_hints_threads(points, &[hint], 16, 16, 3, 4).unwrap();
        assert_eq!(par.layers, seq.layers);
        assert_eq!(par.hint_support, seq.hint_support);
    }

    #[test]
    fn identical_rows_peel_one_row_a_layer() {
        // Every score ties, so every direction's winner is the first alive
        // row: each layer takes one row, and at layer l every candidate
        // list has l dead rows ahead of its winner. With n = 64 the
        // capacity is capped at n and the last layer reads the last slot.
        for n in [1usize, 63, 64, 65, 200] {
            let points = vec![vec![0.5, -1.5, 2.0]; n];
            let kernel = OnionIndex::build_with(points.clone(), 64, 32, 7).unwrap();
            let legacy = OnionIndex::build_legacy_with(points, 64, 32, 7).unwrap();
            assert_eq!(peel_bits(&kernel), peel_bits(&legacy), "n={n}");
            let peeled = n.min(64);
            for (l, layer) in kernel.layers[..peeled].iter().enumerate() {
                assert_eq!(layer, &vec![l], "n={n}");
            }
            assert_eq!(kernel.layers.len(), peeled + usize::from(n > 64));
        }
    }

    /// This thread's [`PeelWork`] since the last call.
    fn take_work() -> PeelWork {
        PEEL_WORK.with(|work| {
            work.replace(PeelWork {
                rows: 0,
                walks_cut: 0,
                refills: 0,
            })
        })
    }

    #[test]
    fn peel_matches_legacy_where_walks_stop_and_lists_refill() {
        // At n < 250 no radius walk stops inside the core and no candidate
        // list runs dry; at 20,000 rows both happen. Gaussian rows with far
        // outliers; axis 2 is non-negative with zeros of both signs, so
        // every remainder's `lo[2]` is a zero, and so is the best score of
        // the hint (0, 0, −1). The second set adds NaN and ±∞ coordinates,
        // one per row: a NaN row sits in the core and makes every radius
        // NaN, and the enclosures that hold a ±∞ row have no finite centre.
        let n = 20_000;
        let mut finite = gaussian_points(404, n, 3);
        for point in &mut finite {
            point[2] = point[2].abs();
        }
        for k in 0..30 {
            finite[(k * 661 + 5) % n].iter_mut().for_each(|v| *v *= 1e3);
        }
        for k in 0..200 {
            finite[(k * 97 + 3) % n][2] = [-0.0, 0.0][k % 2];
        }
        let mut edge = finite.clone();
        const SPECIAL: [f64; 5] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0];
        for k in 0..60 {
            edge[(k * 331 + 17) % n][k % 2] = SPECIAL[k % SPECIAL.len()];
        }
        // The finite set at 64 layers, where some candidate list runs dry;
        // the other at 16, whose lists' 64 rows hold every winner.
        for (points, cap, nan) in [(&finite, 64usize, false), (&edge, 16, true)] {
            take_work();
            let kernel = OnionIndex::build_with(points.clone(), cap, 32, 7).unwrap();
            let work = take_work();
            let legacy = OnionIndex::build_legacy_with(points.clone(), cap, 32, 7).unwrap();
            assert_eq!(peel_bits(&kernel), peel_bits(&legacy), "cap={cap}");
            assert_eq!(kernel.layer_count(), cap + 1);
            assert!(kernel
                .remaining_box
                .iter()
                .all(|b| b.lo[2] == 0.0 && b.radius.is_nan() == nan));
            // Every walk from a finite centre stops inside the core.
            let centred = kernel
                .remaining_box
                .iter()
                .filter(|b| b.center.iter().all(|c| c.is_finite()))
                .count();
            assert!(centred > cap / 2, "cap={cap}: {centred} finite centres");
            assert_eq!(work.walks_cut, centred, "cap={cap}");
            assert_eq!(work.refills > 0, cap == 64, "cap={cap}: {work:?}");
        }
        // Hinted and threaded, against the legacy path with the same hints.
        let hints = [vec![0.0, 0.0, -1.0], vec![0.3, -0.2, 0.9]];
        let oracle = OnionIndex::build_impl(edge.clone(), &hints, 16, 32, 7, 1, true).unwrap();
        assert!(oracle.hint_support.iter().all(|h| h[0] == 0.0));
        let hinted = OnionIndex::build_with_hints_threads(edge, &hints, 16, 32, 7, 2).unwrap();
        assert_eq!(peel_bits(&hinted), peel_bits(&oracle));
    }

    #[test]
    fn flat_enclosures_read_each_row_about_once() {
        // The gate against one pass over all rows per layer coming back:
        // 64 layers over 50,000 rows would read 3.2 million. The suffix
        // folds read each row once, the radii each peeled row once per
        // enclosure above it and a core walk's rows beside.
        let n = 50_000;
        let points = gaussian_points(505, n, 3);
        take_work();
        let onion =
            OnionIndex::build_with_hints(points, &[vec![1.0, -2.0, 0.5]], 64, 32, 7).unwrap();
        let work = take_work();
        assert_eq!(onion.layer_count(), 65);
        // 127,684 rows here: 50,000 folded, ~62,000 peeled-row distances
        // (about 30 rows a layer, each read once per enclosure above it)
        // and ~15,000 walked.
        assert!(work.rows <= 3 * n, "read {} rows for n = {n}", work.rows);
    }

    #[test]
    fn legacy_build_and_query_are_bit_identical() {
        // The whole point of the kernel rewrite: same bits, fewer cycles.
        // Layer structure, bounds, and query results (values *and* work
        // accounting) must match the nested-representation reference
        // exactly, for the 2-D hull path and the d >= 3 sweep path alike.
        for d in [2usize, 3, 5] {
            let points = gaussian_points(101 + d as u64, 700, d);
            let kernel = OnionIndex::build(points.clone()).unwrap();
            let legacy = OnionIndex::build_legacy_with(points, 64, 32, 7).unwrap();
            assert_eq!(kernel.layers, legacy.layers, "d={d}");
            assert_eq!(kernel.remaining_box, legacy.remaining_box, "d={d}");
            assert_eq!(kernel.exact_hull_layers, legacy.exact_hull_layers);
            for k in [1usize, 5, 20] {
                let dir: Vec<f64> = (0..d).map(|i| 0.9 - 0.33 * i as f64).collect();
                let a = kernel.top_k_max(&dir, k).unwrap();
                let b = legacy.top_k_max_legacy(&dir, k).unwrap();
                assert_eq!(a, b, "d={d} k={k}");
            }
        }
    }

    #[test]
    fn unhinted_gaussian_query_leaves_the_core_early() {
        // Few layers + big core bucket and no hint: the radial order is
        // all that stops the walk, at 8 layers as at 64.
        let points = gaussian_points(303, 40_000, 3);
        let store = PointStore::from_rows(&points).unwrap();
        for cap in [8usize, 64] {
            let onion = OnionIndex::build_with(points.clone(), cap, 16, 7).unwrap();
            for dir in [vec![0.443, 0.222, 0.153], vec![-0.8, 0.1, 0.6]] {
                let exact = onion.top_k_max(&dir, 10).unwrap();
                assert_eq!(exact.results, scan_top_k_flat(&store, &dir, 10).results);
                assert!(
                    exact.stats.tuples_examined * 20 < 40_000,
                    "cap={cap} dir={dir:?}: examined {} of 40000",
                    exact.stats.tuples_examined
                );
                // The quantised entry points are the same walk.
                let (coarse, report) = onion.top_k_max_quant_report(&dir, 10).unwrap();
                assert_eq!(coarse, exact);
                assert_eq!(report.rows_exact, exact.stats.tuples_examined);
                assert_eq!(report.rows_pruned, 0);
            }
        }
    }

    #[test]
    fn hint_validation() {
        let points = vec![vec![0.0, 0.0], vec![1.0, 1.0]];
        assert!(OnionIndex::build_with_hints(points.clone(), &[vec![1.0]], 4, 4, 1).is_err());
        assert!(OnionIndex::build_with_hints(points.clone(), &[vec![0.0, 0.0]], 4, 4, 1).is_err());
        assert!(OnionIndex::build_with_hints(points, &[vec![f64::NAN, 1.0]], 4, 4, 1).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]
        #[test]
        fn prop_onion_equals_scan(
            seed in 0u64..1000,
            n in 10usize..300,
            d in 1usize..5,
            k in 1usize..12,
            cap in prop::sample::select(vec![0usize, 1, 2, 3, 5, 64]),
            dir_seed in 0u64..100,
        ) {
            // Duplicate-heavy data: only a strict stop keeps the index
            // tie-breaks of the scan. Small caps put most rows in the core.
            let points = snapped_points(seed, n, d);
            let store = PointStore::from_rows(&points).unwrap();
            let onion = OnionIndex::build_with(points, cap, 8, 7).unwrap();
            for dir in test_directions(dir_seed, 2, d) {
                let fast = onion.top_k_max(&dir, k).unwrap();
                prop_assert_eq!(bits(&fast), bits(&scan_top_k_flat(&store, &dir, k)));
            }
        }

        #[test]
        fn prop_run_bound_dominates_computed_scores(
            seed in 0u64..1000,
            n in 1usize..400,
            d in 1usize..5,
            cap in 0usize..4,
            kind in 0usize..7,
            dir_seed in 0u64..100,
        ) {
            let mut points = match kind {
                // A one-point core, and a core shorter than one run.
                0 => gaussian_points(seed, 1, d),
                1 => gaussian_points(seed, 2 + n % (CORE_RUN_ROWS - 2), d),
                2 => snapped_points(seed, n, d),
                _ => gaussian_points(seed, n, d),
            };
            let rows = points.len();
            match kind {
                // A constant column: half-range 0.
                3 => points.iter_mut().for_each(|p| p[0] = 3.25),
                // Coordinates at 1e12 beside coordinates at 1e-6.
                4 => {
                    for (i, v) in points.iter_mut().flatten().enumerate() {
                        *v *= if (i + seed as usize).is_multiple_of(3) { 1e12 } else { 1e-6 };
                    }
                }
                // A coordinate that is not a number.
                5 => {
                    let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][seed as usize % 3];
                    points[seed as usize % rows][dir_seed as usize % d] = bad;
                }
                _ => {}
            }
            let cap = if kind <= 1 { 0 } else { cap };
            let store = PointStore::from_rows(&points).unwrap();
            let onion = OnionIndex::build_with(points, cap, 8, 7).unwrap();
            let mut dirs = test_directions(dir_seed, 3, d);
            dirs.push(vec![0.0; d]);
            for dir in &dirs {
                if let Some(core) = &onion.core {
                    let members = onion.layers.last().unwrap();
                    prop_assert_eq!(core.run_radius.len(), members.len().div_ceil(CORE_RUN_ROWS));
                    let query = onion.prepare(dir, 1);
                    for (j, &radius) in core.run_radius.iter().enumerate() {
                        let bound = query.core_bound(radius);
                        if !bound.is_finite() {
                            continue;
                        }
                        // Run j and every later run.
                        for &idx in &members[j * CORE_RUN_ROWS..] {
                            let score = kernels::dot(dir, store.row(idx));
                            prop_assert!(
                                score <= bound,
                                "kind={} run {}: row {} scores {} over bound {}",
                                kind, j, idx, score, bound
                            );
                        }
                    }
                }
                // Whatever the bounds did, the answer is the scan's.
                for k in [1usize, 7] {
                    let fast = onion.top_k_max(dir, k).unwrap();
                    prop_assert_eq!(bits(&fast), bits(&scan_top_k_flat(&store, dir, k)));
                }
            }
        }

        #[test]
        fn prop_kernel_build_bit_identical_to_legacy(
            seed in 0u64..500,
            n in 10usize..200,
            d in 1usize..5,
            k in 1usize..10,
            cap in prop::sample::select(vec![0usize, 1, 2, 3, 5, 64]),
            dir_seed in 0u64..100,
        ) {
            let points = gaussian_points(seed.wrapping_add(7_000), n, d);
            let kernel = OnionIndex::build_with(points.clone(), cap, 32, 7).unwrap();
            let legacy = OnionIndex::build_legacy_with(points, cap, 32, 7).unwrap();
            prop_assert_eq!(&kernel.layers, &legacy.layers);
            prop_assert_eq!(&kernel.remaining_box, &legacy.remaining_box);
            prop_assert_eq!(&kernel.core, &legacy.core);
            let dir = test_directions(dir_seed, 1, d).remove(0);
            let a = kernel.top_k_max(&dir, k).unwrap();
            let b = legacy.top_k_max_legacy(&dir, k).unwrap();
            prop_assert_eq!(a, b);
        }

        #[test]
        fn prop_peel_keeps_the_sweep_tie_rules(
            seed in 0u64..10_000,
            n in 1usize..250,
            d in 3usize..5,
            kind in 0usize..4,
            cap in prop::sample::select(vec![0usize, 1, 2, 3, 7, 64]),
            extra in prop::sample::select(vec![0usize, 1, 5, 32]),
        ) {
            // The one-pass candidate peel against the legacy sweep of every
            // layer, where NaN, ±∞, ±0 and tied scores decide the winners.
            let points = edge_points(seed, n, d, kind & 1 == 1, kind & 2 == 2);
            let kernel = OnionIndex::build_with(points.clone(), cap, extra, 7).unwrap();
            let legacy = OnionIndex::build_legacy_with(points.clone(), cap, extra, 7).unwrap();
            prop_assert_eq!(peel_bits(&kernel), peel_bits(&legacy));
            // Hinted: the legacy path with the same hints is the oracle of
            // the threaded candidate peel, hint supports included.
            let hints = vec![
                (0..d).map(|j| ((seed as usize + j) % 5) as f64 - 2.0).collect::<Vec<f64>>(),
                (0..d).map(|j| if j == 0 { -1.0 } else { 0.5 }).collect(),
            ];
            let oracle =
                OnionIndex::build_impl(points.clone(), &hints, cap, extra, 7, 1, true).unwrap();
            for threads in [1usize, 2, 4] {
                let hinted = OnionIndex::build_with_hints_threads(
                    points.clone(), &hints, cap, extra, 7, threads,
                ).unwrap();
                prop_assert_eq!(peel_bits(&hinted), peel_bits(&oracle), "threads={}", threads);
            }
        }
    }
}
