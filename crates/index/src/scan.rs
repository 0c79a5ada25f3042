//! Sequential-scan baseline: evaluate the model on every tuple, keep a
//! top-K heap. Every index speedup in the paper is quoted against this.

use crate::kernels;
use crate::quant::{QuantPruneReport, QuantizedStore, QUANT_SUB_ROWS};
use crate::stats::{rank_cmp, sort_desc, QueryStats, ScoredItem, TopKResult};
use crate::store::PointStore;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Min-heap adapter so the heap root is the current K-th best: the heap
/// max under this order is the *worst-ranked* item held.
#[derive(Debug, PartialEq)]
struct MinScored(ScoredItem);

impl Eq for MinScored {}

impl PartialOrd for MinScored {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for MinScored {
    fn cmp(&self, other: &Self) -> Ordering {
        // The one canonical order (score desc, index asc): under
        // `rank_cmp`, `Less` ranks better, so the BinaryHeap max — its
        // `rank_cmp`-greatest element — is the worst item and is evicted
        // first. `offer` uses the same comparator.
        rank_cmp(&self.0, &other.0)
    }
}

/// A bounded top-K accumulator (max scores win).
#[derive(Debug)]
pub struct TopKHeap {
    k: usize,
    heap: BinaryHeap<MinScored>,
    comparisons: u64,
}

impl TopKHeap {
    /// Creates an accumulator for the best `k` items.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "top-K needs k >= 1");
        TopKHeap {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
            comparisons: 0,
        }
    }

    /// Offers an item; returns whether it was kept. A full heap keeps the
    /// newcomer exactly when it ranks strictly better (under
    /// [`rank_cmp`]) than the worst item held, which that item then
    /// leaves — so the held set is always the K best seen.
    pub fn offer(&mut self, item: ScoredItem) -> bool {
        self.comparisons += 1;
        if self.heap.len() < self.k {
            self.heap.push(MinScored(item));
            return true;
        }
        let keep = self
            .heap
            .peek()
            .map(|worst| rank_cmp(&item, &worst.0) == Ordering::Less)
            .unwrap_or(false);
        if keep {
            self.heap.pop();
            self.heap.push(MinScored(item));
        }
        keep
    }

    /// The current K-th best score (`None` until K items are held). Any
    /// candidate with an upper bound at or below this cannot change the
    /// result set's scores.
    pub fn floor(&self) -> Option<f64> {
        if self.heap.len() < self.k {
            None
        } else {
            self.heap.peek().map(|m| m.0.score)
        }
    }

    /// Comparisons performed so far.
    pub fn comparisons(&self) -> u64 {
        self.comparisons
    }

    /// Extracts the results in descending score order.
    pub fn into_sorted(self) -> Vec<ScoredItem> {
        let mut items: Vec<ScoredItem> = self.heap.into_iter().map(|m| m.0).collect();
        sort_desc(&mut items);
        items
    }
}

/// Scans `data`, scoring each tuple with `score`, returning the top-K
/// maximizers with full work accounting.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn scan_top_k<T, F: FnMut(&T) -> f64>(data: &[T], k: usize, mut score: F) -> TopKResult {
    let mut heap = TopKHeap::new(k);
    for (index, tuple) in data.iter().enumerate() {
        heap.offer(ScoredItem {
            index,
            score: score(tuple),
        });
    }
    let comparisons = heap.comparisons();
    TopKResult {
        results: heap.into_sorted(),
        stats: QueryStats {
            tuples_examined: data.len() as u64,
            nodes_visited: 0,
            comparisons,
        },
    }
}

/// Rows per run of [`scan_top_k_flat`]: a run's 512 bytes of scores and
/// its rows stay in L1 between the scoring pass and the reach test (the
/// DESIGN §10 sweep: 64 and 128 tie, 256 and up lose).
const RUN_ROWS: usize = 64;

/// Offers one scored run to `heap`, `scores[i]` as the item with the
/// `i`-th of `indexes`, under the cached-floor discipline every exact
/// scorer shares. A score strictly below the floor can never be kept
/// (`rank_cmp` ranks it worse than the worst item held), so one
/// branch-free pass first asks whether any score of the run reaches the
/// floor, and only then does the per-row loop run — a predictable float
/// compare per row instead of a heap probe. `!(s < floor)` is true for
/// NaN and for a (±0.0-)tied score, which fall through to
/// [`TopKHeap::offer`], the one place that decides ties, so the kept set
/// is what offering every row would keep. The test *is* each row's one
/// comparison: callers charge one comparison per scored row.
pub(crate) fn offer_run(
    heap: &mut TopKHeap,
    scores: &[f64],
    indexes: impl IntoIterator<Item = usize>,
) {
    let mut floor = heap.floor();
    if let Some(f) = floor {
        // `!(s < f)`, not `s >= f`: a NaN score must reach `offer`.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        let reaches = scores.iter().fold(false, |reach, &s| reach | !(s < f));
        if !reaches {
            return;
        }
    }
    for (&score, index) in scores.iter().zip(indexes) {
        if floor.is_some_and(|f| score < f) {
            continue;
        }
        if heap.offer(ScoredItem { index, score }) {
            floor = heap.floor();
        }
    }
}

/// Scans a flat [`PointStore`], returning the top-K maximizers of
/// `direction . x` — bit-identical to
/// `scan_top_k(rows, k, |p| direction.iter().zip(p).map(|(a, v)| a * v).sum())`
/// on the same data, but scoring contiguous 64-row runs into a stack
/// array instead of chasing a pointer per tuple, and touching the heap
/// only for runs with a score that reaches its floor. Nothing is
/// allocated but the heap.
///
/// # Panics
///
/// Panics if `k == 0` or the direction length does not match the store.
pub fn scan_top_k_flat(store: &PointStore, direction: &[f64], k: usize) -> TopKResult {
    assert_eq!(
        direction.len(),
        store.dims(),
        "direction length must match store dims"
    );
    let dims = store.dims();
    let mut heap = TopKHeap::new(k);
    let mut scores = [0.0f64; RUN_ROWS];
    for (r, run) in store.flat().chunks(RUN_ROWS * dims).enumerate() {
        let scores = &mut scores[..run.len() / dims];
        kernels::score_rows(run, dims, direction, scores);
        offer_run(&mut heap, scores, r * RUN_ROWS..);
    }
    TopKResult {
        results: heap.into_sorted(),
        stats: QueryStats {
            tuples_examined: store.len() as u64,
            nodes_visited: 0,
            comparisons: store.len() as u64,
        },
    }
}

/// Quantized coarse-pass scan: like [`scan_top_k_flat`], but consults an
/// i8 [`QuantizedStore`] first. Once the heap holds K items, a whole
/// 512-row block is rejected by one O(d) bound check when its quantized
/// upper bound is **strictly** below the floor — no f64 row data is
/// touched. Surviving blocks cascade to per-sub-block corner bounds
/// (one O(d) check per [`QUANT_SUB_ROWS`] rows); only sub-blocks whose
/// corner clears the floor are scored by the exact f64 kernel.
///
/// Pruning requires strict `ub < floor`, and the bound soundly dominates
/// the exact kernel score (see [`crate::quant`]), so every pruned row
/// would have been rejected by the heap anyway — `results` are
/// bit-identical to [`scan_top_k_flat`]. Work accounting differs by
/// design: `tuples_examined` and `comparisons` count only exact-scored
/// rows, and the returned [`QuantPruneReport`] breaks down what the
/// coarse pass rejected.
///
/// # Panics
///
/// Panics if `k == 0`, the direction length does not match, or `quant`
/// was not built over a store of the same shape.
pub fn scan_top_k_quant(
    store: &PointStore,
    quant: &QuantizedStore,
    direction: &[f64],
    k: usize,
) -> (TopKResult, QuantPruneReport) {
    assert_eq!(
        direction.len(),
        store.dims(),
        "direction length must match store dims"
    );
    assert_eq!(quant.dims(), store.dims(), "quantized store dims mismatch");
    assert_eq!(quant.rows(), store.len(), "quantized store rows mismatch");
    let dims = store.dims();
    let qq = quant.prepare(direction);
    let mut heap = TopKHeap::new(k);
    let mut report = QuantPruneReport {
        blocks_total: quant.blocks() as u64,
        ..QuantPruneReport::default()
    };
    let mut sub_ubs: Vec<f64> = Vec::new();
    let mut scores = [0.0f64; QUANT_SUB_ROWS];
    let flat = store.flat();
    for b in 0..quant.blocks() {
        let (_, m) = quant.block_range(b);
        // Snapshot of the floor for this block's prune decisions; the
        // floor only rises, so a stale snapshot is merely less tight.
        let f0 = heap.floor();
        if let Some(f) = f0 {
            if qq.block_upper_bound(b) < f {
                report.blocks_pruned += 1;
                report.rows_pruned += m as u64;
                continue;
            }
            qq.sub_upper_bounds(quant, b, &mut sub_ubs);
        }
        // `sub_ubs` is only populated when a floor exists, so the index
        // loop cannot become an iterator over it.
        #[allow(clippy::needless_range_loop)]
        for s in 0..quant.subs(b) {
            let (sub_start, sub_m) = quant.sub_range(b, s);
            if let Some(f) = f0 {
                if sub_ubs[s] < f {
                    report.subblocks_pruned += 1;
                    report.rows_pruned += sub_m as u64;
                    continue;
                }
            }
            // Exact scoring of the surviving sub-block.
            let scores = &mut scores[..sub_m];
            kernels::score_rows(
                &flat[sub_start * dims..(sub_start + sub_m) * dims],
                dims,
                direction,
                scores,
            );
            report.rows_exact += sub_m as u64;
            offer_run(&mut heap, scores, sub_start..);
        }
    }
    (
        TopKResult {
            results: heap.into_sorted(),
            stats: QueryStats {
                tuples_examined: report.rows_exact,
                nodes_visited: 0,
                comparisons: report.rows_exact,
            },
        },
        report,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn scan_finds_exact_top_k() {
        let data: Vec<f64> = vec![3.0, 9.0, 1.0, 7.0, 5.0];
        let r = scan_top_k(&data, 3, |x| *x);
        assert_eq!(r.indexes(), vec![1, 3, 4]);
        assert_eq!(r.stats.tuples_examined, 5);
    }

    #[test]
    fn k_larger_than_data_returns_everything() {
        let data = vec![2.0, 1.0];
        let r = scan_top_k(&data, 10, |x| *x);
        assert_eq!(r.indexes(), vec![0, 1]);
    }

    #[test]
    fn ties_break_by_ascending_index() {
        let data = vec![1.0, 1.0, 1.0, 1.0];
        let r = scan_top_k(&data, 2, |x| *x);
        assert_eq!(r.indexes(), vec![0, 1]);
    }

    #[test]
    fn boundary_tie_eviction_keeps_smallest_indices() {
        // A strictly better late arrival forces one eviction at a tied
        // floor; the heap must pop the *largest* index among the tied
        // elements so the kept set is the K best under (score desc,
        // index asc). Order of offers is adversarial: the tied items
        // arrive before the heap is full.
        let data = vec![1.0, 1.0, 1.0, 9.0, 5.0];
        let r = scan_top_k(&data, 3, |x| *x);
        assert_eq!(r.indexes(), vec![3, 4, 0]);
    }

    #[test]
    fn floor_tracks_kth_best() {
        let mut heap = TopKHeap::new(2);
        assert_eq!(heap.floor(), None);
        heap.offer(ScoredItem {
            index: 0,
            score: 5.0,
        });
        assert_eq!(heap.floor(), None);
        heap.offer(ScoredItem {
            index: 1,
            score: 9.0,
        });
        assert_eq!(heap.floor(), Some(5.0));
        heap.offer(ScoredItem {
            index: 2,
            score: 7.0,
        });
        assert_eq!(heap.floor(), Some(7.0));
        assert!(!heap.offer(ScoredItem {
            index: 3,
            score: 6.0
        }));
    }

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn zero_k_panics() {
        let _ = TopKHeap::new(0);
    }

    #[test]
    fn offer_and_sort_share_one_tie_order() {
        // Locks the PR-2 tie-eviction fix through the shared comparator:
        // with the heap full at a tied floor, a smaller index must evict
        // the largest tied index, and a larger index must be rejected —
        // exactly what `rank_cmp` says, with no second opinion in
        // `offer`.
        let mut heap = TopKHeap::new(2);
        heap.offer(ScoredItem {
            index: 5,
            score: 1.0,
        });
        heap.offer(ScoredItem {
            index: 3,
            score: 1.0,
        });
        assert!(
            !heap.offer(ScoredItem {
                index: 7,
                score: 1.0
            }),
            "worse-ranked tie must be rejected"
        );
        assert!(
            heap.offer(ScoredItem {
                index: 1,
                score: 1.0
            }),
            "better-ranked tie must evict index 5"
        );
        assert_eq!(
            heap.into_sorted()
                .iter()
                .map(|s| s.index)
                .collect::<Vec<_>>(),
            vec![1, 3]
        );
    }

    #[test]
    fn flat_scan_matches_legacy_scan() {
        let rows: Vec<Vec<f64>> = (0..500)
            .map(|i| vec![(i as f64 * 0.37).sin(), (i as f64 * 0.91).cos(), i as f64])
            .collect();
        let store = PointStore::from_rows(&rows).unwrap();
        let dir = vec![2.0, -1.5, 0.01];
        for k in [1usize, 7, 100] {
            let flat = scan_top_k_flat(&store, &dir, k);
            let legacy = scan_top_k(&rows, k, |p| dir.iter().zip(p).map(|(a, v)| a * v).sum());
            assert_eq!(flat, legacy, "k={k}");
        }
    }

    /// A result's answers as bits (so NaN compares equal to itself) beside
    /// its work counters.
    fn bits(r: &TopKResult) -> (Vec<(usize, u64)>, QueryStats) {
        let answers = r.results.iter().map(|s| (s.index, s.score.to_bits()));
        (answers.collect(), r.stats)
    }

    /// The K best of `scores` by sorting them all.
    fn sorted_top_k(scores: &[f64], k: usize) -> Vec<ScoredItem> {
        let mut all: Vec<ScoredItem> = scores
            .iter()
            .enumerate()
            .map(|(index, &score)| ScoredItem { index, score })
            .collect();
        sort_desc(&mut all);
        all.truncate(k);
        all
    }

    #[test]
    fn kth_score_tied_across_run_boundaries() {
        // One 9.0, then 5.0 on both sides of every 64-row boundary and on
        // the last row; K = 3 puts the K-th score on the tie, so every
        // later tied row passes the reach test and must still be refused
        // (scan order) or must evict (reversed order, where the smaller
        // index arrives in the later run).
        for n in [63usize, 64, 65, 128, 129] {
            let mut scores = vec![1.0; n];
            scores[0] = 9.0;
            for i in [62, 63, 64, 127, 128, n - 1] {
                if i < n {
                    scores[i] = 5.0;
                }
            }
            let expect = sorted_top_k(&scores, 3);
            let rows: Vec<Vec<f64>> = scores.iter().map(|&s| vec![s]).collect();
            let store = PointStore::from_rows(&rows).unwrap();
            let flat = scan_top_k_flat(&store, &[1.0], 3);
            assert_eq!(flat.results, expect, "n={n} scan order");

            let mut heap = TopKHeap::new(3);
            let reversed: Vec<usize> = (0..n).rev().collect();
            for run in reversed.chunks(RUN_ROWS) {
                let run_scores: Vec<f64> = run.iter().map(|&i| scores[i]).collect();
                offer_run(&mut heap, &run_scores, run.iter().copied());
            }
            assert_eq!(heap.into_sorted(), expect, "n={n} reversed order");
        }
    }

    #[test]
    fn offer_run_admits_a_tie_with_a_smaller_index() {
        let mut heap = TopKHeap::new(2);
        heap.offer(ScoredItem {
            index: 10,
            score: 5.0,
        });
        heap.offer(ScoredItem {
            index: 20,
            score: 3.0,
        });
        let mut scores = [1.0; RUN_ROWS];
        scores[40] = 3.0;
        let indexes = (0..RUN_ROWS).map(|i| if i == 40 { 7 } else { 100 + i });
        offer_run(&mut heap, &scores, indexes);
        // Only the tie reached `offer`; every other row stopped at the
        // floor.
        assert_eq!(heap.comparisons(), 3);
        assert_eq!(
            heap.into_sorted(),
            vec![
                ScoredItem {
                    index: 10,
                    score: 5.0
                },
                ScoredItem {
                    index: 7,
                    score: 3.0
                },
            ]
        );
    }

    #[test]
    fn quant_scan_matches_flat_scan_and_prunes() {
        let mut state = 42u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(11);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        let rows: Vec<Vec<f64>> = (0..6000)
            .map(|_| (0..3).map(|_| next() * 20.0).collect())
            .collect();
        let dir = vec![0.443, 0.222, 0.153];
        let store = PointStore::from_rows(&rows).unwrap();
        let quant = QuantizedStore::build(&store);
        for k in [1usize, 10, 100] {
            let flat = scan_top_k_flat(&store, &dir, k);
            let (q, report) = scan_top_k_quant(&store, &quant, &dir, k);
            assert_eq!(q.results, flat.results, "k={k}");
            assert_eq!(
                report.rows_pruned + report.rows_exact,
                store.len() as u64,
                "every row is accounted for"
            );
            // One comparison per exact-scored row, the flat scan's rule.
            assert_eq!(q.stats.tuples_examined, report.rows_exact, "k={k}");
            assert_eq!(q.stats.comparisons, report.rows_exact, "k={k}");
        }
        // Small K over uniform data: almost everything sits far below the
        // floor, so the coarse pass must actually reject work.
        let (_, report) = scan_top_k_quant(&store, &quant, &dir, 1);
        assert!(
            report.prune_rate() > 0.5,
            "expected real pruning, got rate {}",
            report.prune_rate()
        );
    }

    proptest! {
        #[test]
        fn prop_quant_scan_bit_identical_to_flat(
            n in 1usize..1200,
            d in 1usize..6,
            k in 1usize..12,
            seed in 0u64..3_000,
        ) {
            let mut state = seed ^ 0x9e37;
            let mut next = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(7);
                ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            };
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..d).map(|_| next() * 20.0).collect())
                .collect();
            let dir: Vec<f64> = (0..d).map(|_| next() * 4.0).collect();
            let store = PointStore::from_rows(&rows).unwrap();
            let quant = QuantizedStore::build(&store);
            let flat = scan_top_k_flat(&store, &dir, k);
            let (q, _) = scan_top_k_quant(&store, &quant, &dir, k);
            prop_assert_eq!(q.results, flat.results);
        }

        #[test]
        fn prop_scan_matches_full_sort(
            data in proptest::collection::vec(-1e6f64..1e6, 1..200),
            k in 1usize..20,
        ) {
            let r = scan_top_k(&data, k, |x| *x);
            prop_assert_eq!(r.results, sorted_top_k(&data, k));
        }

        #[test]
        fn prop_scan_matches_full_sort_with_heavy_ties(
            // Scores drawn from five values force constant floor ties, the
            // adversarial regime for offer-time eviction order.
            data in proptest::collection::vec(0u8..5, 1..200),
            k in 1usize..20,
        ) {
            let data: Vec<f64> = data.into_iter().map(f64::from).collect();
            let r = scan_top_k(&data, k, |x| *x);
            prop_assert_eq!(r.results, sorted_top_k(&data, k));
        }

        #[test]
        fn prop_flat_scan_bit_identical_to_legacy(
            n in 1usize..301,
            d in 1usize..6,
            k_pick in 0usize..10_000,
            mode in 0usize..3,
            seed in 0u64..5_000,
        ) {
            let mut state = seed ^ 0x5ca9;
            let mut next = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(11);
                ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            };
            // Mode 0 draws continuous values; mode 1 a small pool of
            // duplicates and signed zeros (ties everywhere); mode 2 adds
            // ±inf and NaN of both signs with payloads, one coordinate a
            // row at most: where two NaNs meet in one sum, which payload
            // survives is the compiler's choice (Rust leaves it
            // unspecified), so no two code paths can promise its bits.
            const POOL: [f64; 11] = [
                1.5,
                1.5,
                -2.0,
                0.0,
                -0.0,
                3.25,
                -0.0,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::from_bits(0x7ff8_0000_0000_0001),
                f64::from_bits(0xfff8_0000_0000_0abc),
            ];
            let finite = [0, 7, 7][mode];
            let mut value = |special: bool| {
                let u = next();
                let pool = &POOL[..if special { POOL.len() } else { finite }];
                if pool.is_empty() {
                    u * 20.0
                } else {
                    pool[((u + 0.5) * pool.len() as f64) as usize % pool.len()]
                }
            };
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|i| (0..d).map(|j| value(mode == 2 && j == i % d)).collect())
                .collect();
            // Directions with signed zeros among continuous components.
            let dir: Vec<f64> = (0..d)
                .map(|j| match (seed as usize + j) % 4 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => next() * 4.0,
                })
                .collect();
            // K up to n + 5: a heap that never fills offers every row.
            let k = 1 + k_pick % (n + 5);
            let store = PointStore::from_rows(&rows).unwrap();
            let flat = scan_top_k_flat(&store, &dir, k);
            let legacy =
                scan_top_k(&rows, k, |p| dir.iter().zip(p).map(|(a, v)| a * v).sum());
            prop_assert_eq!(bits(&flat), bits(&legacy));
        }
    }
}
