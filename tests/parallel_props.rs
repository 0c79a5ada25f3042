//! Property tests for the parallel execution layer.
//!
//! The central contract: every parallel engine is **bit-identical** to its
//! sequential counterpart at every thread count — on healthy archives and
//! on faulty ones (through the resilient engine); the batched engine's
//! counterpart lives in `batch_props.rs`. Budget-exhausted runs are schedule-dependent in *where* they
//! stop, so those assert the soundness invariants instead: at most K
//! entries, sound bounds, an honest budget stop, and the true winner
//! confirmed or covered.

use mbir::core::engine::{pyramid_top_k, staged_top_k};
use mbir::core::parallel::{par_resilient_top_k, par_staged_top_k, WorkerPool, THREADS_ENV};
use mbir::core::resilient::{resilient_top_k, BudgetStop, ExecutionBudget};
use mbir::core::source::{PyramidSource, TileSource};
use mbir::index::onion::OnionIndex;
use mbir::index::scan::{scan_top_k, scan_top_k_flat};
use mbir::index::store::PointStore;
use mbir::models::linear::{LinearModel, ProgressiveLinearModel};
use mbir::progressive::pyramid::AggregatePyramid;
use mbir_archive::fault::{FaultProfile, ResilienceConfig, RetryPolicy};
use mbir_archive::grid::Grid2;
use mbir_archive::tile::TileStore;
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn world(
    seed: u64,
    side: usize,
    arity: usize,
    tile: usize,
) -> (LinearModel, Vec<AggregatePyramid>, Vec<TileStore>) {
    let grids: Vec<Grid2<f64>> = (0..arity)
        .map(|i| {
            Grid2::from_fn(side, side, |r, c| {
                let h = seed
                    .wrapping_add(i as u64)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add((r * 8191 + c * 127) as u64)
                    .wrapping_mul(2862933555777941757);
                let noise = (h >> 11) as f64 / (1u64 << 53) as f64;
                ((r as f64 / 7.0).sin() + (c as f64 / 9.0).cos()) * 20.0 + noise * 15.0
            })
        })
        .collect();
    let pyramids = grids.iter().map(AggregatePyramid::build).collect();
    let stores = grids
        .iter()
        .map(|g| TileStore::new(g.clone(), tile).unwrap())
        .collect();
    let coeffs: Vec<f64> = (0..arity)
        .map(|i| match (seed as usize + i) % 3 {
            0 => 1.0,
            1 => -0.7,
            _ => 0.4,
        })
        .collect();
    (LinearModel::new(coeffs, 0.1).unwrap(), pyramids, stores)
}

/// Deterministic pseudo-random points for the kernel-vs-legacy tests.
fn pseudo_points(seed: u64, n: usize, d: usize) -> Vec<Vec<f64>> {
    let mut state = seed ^ 0xfeed;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 40.0
    };
    (0..n).map(|_| (0..d).map(|_| next()).collect()).collect()
}

/// A deterministic pseudo-random subset of pages derived from `seed`.
fn fault_pages(seed: u64, page_count: usize) -> Vec<usize> {
    (0..page_count)
        .filter(|p| {
            seed.wrapping_mul(0x9e3779b97f4a7c15)
                .wrapping_add(*p as u64)
                .wrapping_mul(6364136223846793005)
                >> 61
                == 0
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn par_pyramid_bit_identical_across_thread_counts(
        seed in 0u64..500,
        side in 16usize..48,
        arity in 1usize..4,
        k in 1usize..16,
    ) {
        let (model, pyramids, _) = world(seed, side, arity, 8);
        let sequential = pyramid_top_k(&model, &pyramids, k).unwrap();
        // The parallel `pyramid_top_k`: the resilient engine over the
        // pyramids' own level 0 with an unlimited budget.
        let source = PyramidSource::new(&pyramids);
        let unlimited = ExecutionBudget::unlimited();
        for threads in THREAD_COUNTS {
            let pool = WorkerPool::new(threads);
            let parallel =
                par_resilient_top_k(&model, &pyramids, k, &source, &unlimited, &pool).unwrap();
            prop_assert!(!parallel.is_degraded(), "threads={}", threads);
            prop_assert_eq!(&parallel.exact_cells(), &sequential.results, "threads={}", threads);
        }
    }

    #[test]
    fn par_staged_bit_identical_across_thread_counts(
        seed in 0u64..500,
        n in 1usize..400,
        arity in 2usize..5,
        k in 1usize..12,
    ) {
        let (model, pyramids, _) = world(seed, 16, arity, 8);
        let ranges: Vec<(f64, f64)> = pyramids
            .iter()
            .map(|p| { let r = p.root(); (r.min, r.max) })
            .collect();
        let prog = ProgressiveLinearModel::new(model, &ranges).unwrap();
        let tuples: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..arity)
                    .map(|a| pyramids[a].cell(0, (i / 16) % 16, i % 16).unwrap().mean)
                    .collect()
            })
            .collect();
        let sequential = staged_top_k(&prog, &tuples, k).unwrap();
        for threads in THREAD_COUNTS {
            let pool = WorkerPool::new(threads);
            let parallel = par_staged_top_k(&prog, &tuples, k, &pool).unwrap();
            prop_assert_eq!(&parallel.results, &sequential.results, "threads={}", threads);
        }
    }

    #[test]
    fn par_resilient_bit_identical_under_faults(
        seed in 0u64..300,
        side in 24usize..48,
        k in 1usize..10,
        fault_seed in 0u64..100,
    ) {
        let (model, pyramids, stores) = world(seed, side, 2, 8);
        let pages = fault_pages(fault_seed, stores[0].page_count());
        // Mix of permanent losses and healed transients, plus retries so
        // some transients are invisible and some faults quarantine.
        let profile = pages.iter().enumerate().fold(
            FaultProfile::new(),
            |p, (i, pg)| {
                if i % 2 == 0 { p.permanent(*pg) } else { p.transient(*pg, 1) }
            },
        );
        let stores: Vec<TileStore> = stores
            .into_iter()
            .map(|s| {
                s.with_faults(profile.clone())
                    .with_resilience(ResilienceConfig::new(RetryPolicy::retries(1), Some(3)))
            })
            .collect();
        let src = TileSource::new(&stores).unwrap();
        let budget = ExecutionBudget::unlimited();
        let sequential = resilient_top_k(&model, &pyramids, k, &src, &budget).unwrap();
        for threads in THREAD_COUNTS {
            let pool = WorkerPool::new(threads);
            let parallel =
                par_resilient_top_k(&model, &pyramids, k, &src, &budget, &pool).unwrap();
            prop_assert_eq!(&parallel.results, &sequential.results, "threads={}", threads);
            prop_assert_eq!(parallel.completeness, sequential.completeness);
            prop_assert_eq!(&parallel.skipped_pages, &sequential.skipped_pages);
            prop_assert_eq!(parallel.budget_stop, sequential.budget_stop);
        }
    }

    #[test]
    fn flat_scan_kernel_bit_identical_to_legacy(
        seed in 0u64..500,
        n in 1usize..400,
        d in 1usize..8,
        k in 1usize..16,
    ) {
        // The flat (PointStore + kernels) scan must return exactly the
        // same TopKResult — scores bit for bit — as the legacy
        // iterator-zip scan over nested rows.
        let points = pseudo_points(seed, n, d);
        let dir: Vec<f64> = pseudo_points(seed ^ 0xd1, 1, d).remove(0);
        let store = PointStore::from_rows(&points).unwrap();
        let flat = scan_top_k_flat(&store, &dir, k);
        let legacy = scan_top_k(&points, k, |p| {
            dir.iter().zip(p).map(|(a, v)| a * v).sum()
        });
        prop_assert_eq!(flat, legacy);
    }

    #[test]
    fn onion_kernel_build_and_query_bit_identical_to_legacy(
        seed in 0u64..200,
        n in 4usize..250,
        d in 2usize..5,
        k in 1usize..10,
    ) {
        // Kernel-path build (at every thread count) and query must agree
        // bit for bit with the nested-Vec legacy build and the legacy
        // iterator-zip query path.
        let points = pseudo_points(seed, n, d);
        let legacy = OnionIndex::build_legacy_with(points.clone(), 32, 16, 7).unwrap();
        let dir: Vec<f64> = pseudo_points(seed ^ 0xa7, 1, d).remove(0);
        for threads in THREAD_COUNTS {
            let kernel =
                OnionIndex::build_with_hints_threads(points.clone(), &[], 32, 16, 7, threads)
                    .unwrap();
            prop_assert_eq!(
                kernel.layer_sizes(),
                legacy.layer_sizes(),
                "threads={}",
                threads
            );
            let kq = kernel.top_k_max(&dir, k).unwrap();
            prop_assert_eq!(&kq, &legacy.top_k_max_legacy(&dir, k).unwrap(),
                "threads={}", threads);
            prop_assert_eq!(&kq, &legacy.top_k_max(&dir, k).unwrap(),
                "threads={}", threads);
        }
    }

    #[test]
    fn par_resilient_exhausted_budget_stays_sound(
        seed in 0u64..200,
        k in 1usize..8,
        budget_ma in 1u64..2000,
    ) {
        let (model, pyramids, stores) = world(seed, 48, 2, 8);
        let src = TileSource::new(&stores).unwrap();
        let truth = pyramid_top_k(&model, &pyramids, 1).unwrap().results[0].score;
        let budget = ExecutionBudget::unlimited().with_max_multiply_adds(budget_ma);
        for threads in THREAD_COUNTS {
            let pool = WorkerPool::new(threads);
            let r = par_resilient_top_k(&model, &pyramids, k, &src, &budget, &pool).unwrap();
            prop_assert!(r.results.len() <= k);
            prop_assert!((0.0..=1.0).contains(&r.completeness));
            if r.budget_stop.is_none() {
                // Finished within budget: must be the exact answer.
                prop_assert_eq!(r.completeness, 1.0);
                prop_assert!(r.results.iter().all(|h| h.exact));
            } else {
                prop_assert_eq!(r.budget_stop, Some(BudgetStop::MultiplyAdds));
            }
            // Sound bounds on every entry. When the report is not full, no
            // candidate was truncated away, so the true winner must be
            // confirmed exactly or covered by some candidate's bounds. (A
            // full report ranks k candidates by *estimate*; the winner's
            // covering region may legitimately rank below them.)
            for h in &r.results {
                prop_assert!(h.bounds.lo <= h.score && h.score <= h.bounds.hi);
            }
            prop_assert!(
                r.results.len() == k
                    || r.results
                        .iter()
                        .any(|h| (h.exact && h.score == truth)
                            || (!h.exact && h.bounds.hi >= truth)),
                "threads={}: true winner lost", threads
            );
        }
    }
}

#[test]
fn default_parallelism_honors_env_override() {
    // Safe in edition 2021; no other test in this binary touches the
    // variable.
    std::env::set_var(THREADS_ENV, "3");
    assert_eq!(WorkerPool::with_default_parallelism().threads(), 3);
    std::env::set_var(THREADS_ENV, "not-a-number");
    assert!(WorkerPool::with_default_parallelism().threads() >= 1);
    std::env::remove_var(THREADS_ENV);
    assert!(WorkerPool::with_default_parallelism().threads() >= 1);
}
