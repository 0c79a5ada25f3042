//! Batched multi-query property tests: random batches against the
//! shared-frontier engines.
//!
//! The invariants (DESIGN.md §15):
//!
//! * For any batch size Q ∈ {1, 2, 8, 32}, every query's batched answer —
//!   results, effort, completeness, skipped pages, stop reason — is
//!   bit-identical to its solo [`resilient_top_k`] run. Sharing the
//!   descent is a pure execution detail, invisible in the answer.
//! * The batch never reads more pages than the Q solo runs combined —
//!   memoized cell reads can only amortize physical work, never add it.
//! * The identity holds under fault cocktails drawn from the *stateless*
//!   families (permanent, corrupt, latency, and transients that heal
//!   within one logical read): a page's verdict is then independent of
//!   how many physical reads reach it, so memoization cannot change it.
//! * The parallel batched engine agrees with the solo answers at every
//!   thread count in {1, 2, 4, 8}.
//!
//! [`resilient_top_k`]: mbir::core::resilient::resilient_top_k

use mbir::core::batched::batched_top_k;
use mbir::core::parallel::{par_batched_top_k, WorkerPool};
use mbir::core::resilient::{resilient_top_k, ExecutionBudget};
use mbir::core::source::{CellSource, TileSource};
use mbir::models::linear::LinearModel;
use mbir::progressive::pyramid::AggregatePyramid;
use mbir_archive::fault::{FaultProfile, ResilienceConfig, RetryPolicy};
use mbir_archive::grid::Grid2;
use mbir_archive::tile::TileStore;
use proptest::prelude::*;

const BATCH_SIZES: [usize; 4] = [1, 2, 8, 32];

fn world(seed: u64, side: usize) -> (Vec<AggregatePyramid>, Vec<Grid2<f64>>) {
    let grids: Vec<Grid2<f64>> = (0..2)
        .map(|i| {
            Grid2::from_fn(side, side, |r, c| {
                let phase = (seed % 13) as f64 * 0.37 + i as f64;
                ((r as f64 / 6.0 + phase).sin() + (c as f64 / 8.0 - phase).cos()) * 30.0
                    + (seed % 7) as f64
            })
        })
        .collect();
    let pyramids = grids.iter().map(AggregatePyramid::build).collect();
    (pyramids, grids)
}

/// Q query directions over the two shared attributes, spread by the seed
/// so floors mature at different paces and some queries overlap heavily
/// while others diverge.
fn batch(seed: u64, q: usize) -> Vec<LinearModel> {
    (0..q)
        .map(|qi| {
            let tilt = (seed % 9) as f64 * 0.11;
            let coeffs = vec![
                1.0 + 0.15 * qi as f64 - tilt,
                0.4 - 0.09 * qi as f64 + tilt * 0.5,
            ];
            LinearModel::new(coeffs, 0.2 * qi as f64).unwrap()
        })
        .collect()
}

fn page_hash(seed: u64, page: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(page as u64)
        .wrapping_mul(0x5851_f42d_4c95_7f2d)
        >> 32
}

/// Fresh stores with a stateless fault cocktail: permanent, corrupt,
/// injected latency, and transients that heal within the retry policy —
/// families whose page verdict is independent of physical read count, so
/// the batched memo and the solo re-reads must agree. Built fresh per
/// run because transient fault state lives in the store.
fn cocktail_stores(grids: &[Grid2<f64>], tile: usize, fate_seed: u64) -> Vec<TileStore> {
    grids
        .iter()
        .map(|g| {
            let store = TileStore::new(g.clone(), tile).unwrap();
            if fate_seed == 0 {
                return store; // Healthy world.
            }
            let mut profile = FaultProfile::new();
            for page in 0..store.page_count() {
                match page_hash(fate_seed, page) % 16 {
                    0 => profile = profile.corrupt(page),
                    1 | 2 => profile = profile.permanent(page),
                    3..=5 => {
                        let fails = 1 + (page_hash(fate_seed, page) % 3) as u32;
                        profile = profile.transient(page, fails);
                    }
                    6 | 7 => profile = profile.latency(page, 3),
                    _ => {}
                }
            }
            store
                .with_faults(profile)
                .with_resilience(ResilienceConfig::new(RetryPolicy::retries(3), None))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every query of a random batch gets exactly its solo answer, and
    /// the batch reads no more pages than the solo runs combined —
    /// healthy worlds and stateless fault cocktails alike.
    #[test]
    fn prop_batched_queries_are_bit_identical_to_solo_runs(
        seed in 0u64..120,
        side_pow in 4u32..6,   // 16..32
        tile in 2usize..6,
        k in 1usize..7,
        q_idx in 0usize..4,
        fate_raw in 0u64..4,   // 0 = healthy, else cocktail seed
    ) {
        let side = 1usize << side_pow;
        let q = BATCH_SIZES[q_idx];
        let fate_seed = if fate_raw == 0 { 0 } else { seed.wrapping_mul(31).wrapping_add(fate_raw) };
        let (pyramids, grids) = world(seed, side);
        let models = batch(seed, q);
        let budget = ExecutionBudget::unlimited();

        let batch_stores = cocktail_stores(&grids, tile, fate_seed);
        let batch_src = TileSource::new(&batch_stores).unwrap();
        let out = batched_top_k(&models, &pyramids, k, &batch_src, &budget).unwrap();
        prop_assert_eq!(out.queries.len(), q);
        prop_assert!(out.cell_requests >= out.cells_fetched);
        prop_assert!(out.bound_requests >= out.bound_evals);

        let mut solo_pages = 0u64;
        for (qi, model) in models.iter().enumerate() {
            // Fresh faulted stores per solo run: fault state (transient
            // heal counters) must start where the batch's single physical
            // pass started.
            let solo_stores = cocktail_stores(&grids, tile, fate_seed);
            let solo_src = TileSource::new(&solo_stores).unwrap();
            let solo = resilient_top_k(model, &pyramids, k, &solo_src, &budget).unwrap();
            solo_pages += solo_src.pages_read();
            prop_assert_eq!(&out.queries[qi], &solo, "q={}/{} fate={}", qi, q, fate_seed);
        }
        prop_assert!(
            out.pages_read <= solo_pages,
            "batch read {} pages, solos read {}", out.pages_read, solo_pages
        );
    }

    /// The parallel batched engine returns the same per-query answers as
    /// the solo sequential engine at every thread count.
    #[test]
    fn prop_par_batched_matches_solo_at_every_thread_count(
        seed in 0u64..120,
        side_pow in 4u32..6,
        tile in 2usize..6,
        k in 1usize..7,
        q_idx in 0usize..4,
        threads_idx in 0usize..4,
    ) {
        let side = 1usize << side_pow;
        let q = BATCH_SIZES[q_idx];
        let threads = [1usize, 2, 4, 8][threads_idx];
        let (pyramids, grids) = world(seed, side);
        let models = batch(seed, q);
        let budget = ExecutionBudget::unlimited();
        let stores = cocktail_stores(&grids, tile, 0);

        let pool = WorkerPool::new(threads);
        let src = TileSource::new(&stores).unwrap();
        let out = par_batched_top_k(&models, &pyramids, k, &src, &budget, &pool).unwrap();
        for (qi, model) in models.iter().enumerate() {
            let solo_src = TileSource::new(&stores).unwrap();
            let solo = resilient_top_k(model, &pyramids, k, &solo_src, &budget).unwrap();
            prop_assert_eq!(
                &out.queries[qi].results, &solo.results,
                "threads={} q={}/{}", threads, qi, q
            );
            prop_assert_eq!(out.queries[qi].completeness, 1.0);
            prop_assert_eq!(out.queries[qi].budget_stop, None);
            prop_assert!(out.queries[qi].skipped_pages.is_empty());
        }
    }
}
