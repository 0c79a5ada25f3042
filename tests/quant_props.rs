//! Quantized coarse-pass property tests, end to end through the facade.
//!
//! The invariants:
//!
//! * **Domination** — every quantized upper bound (row, sub-block, and
//!   block granularity) is at least the exact f64 score of everything it
//!   covers, for random data across magnitude scales. This is the whole
//!   soundness story: a bound that dominates can only ever prune work
//!   that provably cannot matter.
//! * **Bit-identity** — prune-then-exact equals exact-only, as full
//!   result structs: the pruned scan vs the flat scan, and the
//!   coarse-pruned Onion walk vs the legacy walk.
//! * **Degenerate blocks are safe** — constant dimensions (zero range),
//!   single-row stores, and overflow-guard magnitudes must never panic
//!   and never break bit-identity; at worst they disable pruning.

use mbir::index::onion::OnionIndex;
use mbir::index::quant::QuantizedStore;
use mbir::index::scan::{scan_top_k_flat, scan_top_k_quant};
use mbir::index::store::PointStore;
use proptest::prelude::*;

fn exact_score(dir: &[f64], row: &[f64]) -> f64 {
    dir.iter().zip(row).map(|(a, v)| a * v).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Row, sub-block, and block bounds all dominate the exact scores
    /// they cover, across six orders of magnitude.
    #[test]
    fn quant_bounds_dominate_exact_scores(
        seed in 0u64..1_000,
        d in 1usize..6,
        n in 1usize..600,
        scale_pick in 0usize..3,
    ) {
        let scale = [1e-6, 1.0, 1e6][scale_pick];
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 200.0 * scale
        };
        let points: Vec<Vec<f64>> = (0..n).map(|_| (0..d).map(|_| next()).collect()).collect();
        let dir: Vec<f64> = (0..d).map(|_| next() / (100.0 * scale)).collect();
        let store = PointStore::from_rows(&points).unwrap();
        let quant = QuantizedStore::build(&store);
        let qq = quant.prepare(&dir);
        for b in 0..quant.blocks() {
            let (start, m) = quant.block_range(b);
            let block_ub = qq.block_upper_bound(b);
            for row in start..start + m {
                let s = exact_score(&dir, store.row(row));
                let row_ub = qq.row_upper_bound(&quant, row);
                prop_assert!(
                    row_ub >= s,
                    "row bound {row_ub} < exact {s} (row {row}, d={d}, scale={scale})"
                );
                prop_assert!(
                    block_ub >= s,
                    "block bound {block_ub} < exact {s} (row {row}, d={d}, scale={scale})"
                );
            }
        }
    }

    /// The pruned scan returns the flat scan's exact results, scores and
    /// order included, for any k.
    #[test]
    fn quant_scan_is_bit_identical(
        seed in 0u64..1_000,
        d in 1usize..6,
        n in 1usize..900,
        k in 1usize..20,
    ) {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 200.0
        };
        let points: Vec<Vec<f64>> = (0..n).map(|_| (0..d).map(|_| next()).collect()).collect();
        let dir: Vec<f64> = (0..d).map(|_| next() / 100.0).collect();
        let store = PointStore::from_rows(&points).unwrap();
        let quant = QuantizedStore::build(&store);
        let exact = scan_top_k_flat(&store, &dir, k);
        let (pruned, _) = scan_top_k_quant(&store, &quant, &dir, k);
        prop_assert_eq!(pruned.results, exact.results);
    }
}

#[test]
fn degenerate_blocks_never_prune_wrong() {
    // Constant dimensions: zero range, step clamped, codes all equal.
    let constant: Vec<Vec<f64>> = (0..700).map(|_| vec![5.0, -3.0]).collect();
    // Single row; smaller than any block.
    let single = vec![vec![1.0, 2.0, 3.0]];
    // Overflow-guard magnitudes: bounds go infinite, pruning disabled.
    let huge: Vec<Vec<f64>> = (0..600)
        .map(|i| vec![1e304 * if i % 2 == 0 { 1.0 } else { -1.0 }, i as f64])
        .collect();
    // Mixed: one constant dim, one spread dim, a few ties at the top.
    let mixed: Vec<Vec<f64>> = (0..640).map(|i| vec![7.0, (i % 13) as f64]).collect();
    for points in [constant, single, huge, mixed] {
        let d = points[0].len();
        let dir: Vec<f64> = (0..d).map(|j| 1.0 - 0.4 * j as f64).collect();
        let store = PointStore::from_rows(&points).unwrap();
        let quant = QuantizedStore::build(&store);
        for k in [1usize, 5, 17] {
            let exact = scan_top_k_flat(&store, &dir, k);
            let (pruned, _) = scan_top_k_quant(&store, &quant, &dir, k);
            assert_eq!(pruned.results, exact.results, "d={d}, k={k}");
        }
    }
}

#[test]
fn quant_onion_walk_matches_legacy() {
    let mut state = 41u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 2.0
    };
    let points: Vec<Vec<f64>> = (0..6_000)
        .map(|_| (0..3).map(|_| next()).collect())
        .collect();
    let quant_index = OnionIndex::build_with(points.clone(), 16, 8, 7).expect("valid workload");
    let legacy_index = OnionIndex::build_legacy_with(points, 16, 8, 7).expect("valid workload");
    assert_eq!(quant_index.layer_sizes(), legacy_index.layer_sizes());
    for dir in [
        vec![0.443, 0.222, 0.153],
        vec![-0.8, 0.1, 0.6],
        vec![0.0, 0.0, 1.0],
    ] {
        for k in [1usize, 4, 10] {
            let legacy = legacy_index.top_k_max_legacy(&dir, k).expect("valid query");
            let pruned = quant_index.top_k_max_quant(&dir, k).expect("valid query");
            assert_eq!(pruned.results, legacy.results, "dir={dir:?}, k={k}");
        }
    }
}
