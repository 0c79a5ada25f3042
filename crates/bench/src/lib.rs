//! Shared workload builders for the experiment benches and the `repro`
//! binary. Every builder is seeded and deterministic, so criterion benches
//! and EXPERIMENTS.md tables are regenerated from identical inputs.

use mbir_archive::dem::Dem;
use mbir_archive::grid::Grid2;
use mbir_archive::scene::{BandId, SyntheticScene};
use mbir_archive::synth::{gaussian_tuples, GaussianField};
use mbir_archive::tile::TileStore;
use mbir_models::linear::{HpsRiskModel, LinearModel, ProgressiveLinearModel};
use mbir_progressive::pyramid::AggregatePyramid;
use mbir_progressive::semantics::{GaussianClassifier, LandCover};

/// The E1 workload: the Onion paper's "three-parameter Gaussian distributed
/// data sets" plus a canonical query direction.
pub fn onion_workload(seed: u64, n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    (gaussian_tuples(seed, n, 3), vec![0.443, 0.222, 0.153])
}

/// The R7 workload: Gaussian tuples at an arbitrary dimensionality plus a
/// mixed-magnitude query direction, for the quantized-kernel sweeps. The
/// direction reuses the E1 lead coefficient and decays linearly so every
/// dimension contributes without any one dominating — the regime where a
/// coarse i8 bound has to be tight to prune at all.
pub fn quant_workload(seed: u64, n: usize, d: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let direction: Vec<f64> = (0..d).map(|j| 0.443 - 0.061 * j as f64).collect();
    (gaussian_tuples(seed, n, d), direction)
}

/// The E2 workload: a two-band scene with planted spatial coherence and a
/// fitted two-class land-cover classifier.
pub fn classification_world(
    seed: u64,
    rows: usize,
    cols: usize,
) -> (Vec<Grid2<f64>>, Vec<AggregatePyramid>, GaussianClassifier) {
    let bands: Vec<Grid2<f64>> = (0..2)
        .map(|i| {
            GaussianField::new(seed + i)
                .with_roughness(0.35)
                .generate(rows, cols)
                .normalized(0.0, 255.0)
        })
        .collect();
    let pyramids = bands.iter().map(AggregatePyramid::build).collect();
    let mut clf = GaussianClassifier::new(2);
    clf.fit_class(
        LandCover::Forest,
        &[vec![60.0, 80.0], vec![70.0, 95.0], vec![55.0, 85.0]],
    );
    clf.fit_class(
        LandCover::BareSoil,
        &[vec![180.0, 150.0], vec![195.0, 165.0], vec![175.0, 140.0]],
    );
    (bands, pyramids, clf)
}

/// The E3 workload: a fine grid with a distinctive planted tile, its 2x
/// coarse reduction, and the tile size used for matching.
pub fn texture_world(seed: u64, side: usize, tile: usize) -> (Grid2<f64>, Grid2<f64>, usize) {
    let base = GaussianField::new(seed)
        .with_roughness(0.5)
        .generate(side, side)
        .normalized(0.0, 100.0);
    // Plant a high-frequency checkerboard patch with a distinctive mean.
    let planted_tile = (side / tile - 2, side / tile - 1);
    let fine = Grid2::from_fn(side, side, |r, c| {
        if r / tile == planted_tile.0 && c / tile == planted_tile.1 {
            150.0 + ((r + c) % 2) as f64 * 60.0
        } else {
            *base.at(r, c)
        }
    });
    let coarse = Grid2::from_fn(side / 2, side / 2, |r, c| {
        (fine.at(2 * r, 2 * c)
            + fine.at(2 * r + 1, 2 * c)
            + fine.at(2 * r, 2 * c + 1)
            + fine.at(2 * r + 1, 2 * c + 1))
            / 4.0
    });
    (fine, coarse, tile)
}

/// The E4 workload: per-component fuzzy score lists for SPROC.
pub fn sproc_workload(seed: u64, components: usize, objects: usize) -> Vec<Vec<f64>> {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..components)
        .map(|_| (0..objects).map(|_| next()).collect())
        .collect()
}

/// The E5/E6 workload: the full HPS world — co-registered scene + DEM
/// pyramids, the published model, and its progressive decomposition.
pub fn hps_world(
    seed: u64,
    rows: usize,
    cols: usize,
) -> (Vec<AggregatePyramid>, HpsRiskModel, ProgressiveLinearModel) {
    let scene = SyntheticScene::new(seed, rows, cols).generate();
    let dem = Dem::synthetic(seed + 1, rows, cols, 0.0, 2500.0);
    let pyramids: Vec<AggregatePyramid> = vec![
        AggregatePyramid::build(scene.band(BandId::TM4).expect("band present")),
        AggregatePyramid::build(scene.band(BandId::TM5).expect("band present")),
        AggregatePyramid::build(scene.band(BandId::TM7).expect("band present")),
        AggregatePyramid::build(dem.grid()),
    ];
    let model = HpsRiskModel::paper();
    let ranges: Vec<(f64, f64)> = pyramids
        .iter()
        .map(|p| {
            let root = p.root();
            (root.min, root.max)
        })
        .collect();
    let progressive =
        ProgressiveLinearModel::new(model.model().clone(), &ranges).expect("ranges match arity");
    (pyramids, model, progressive)
}

/// The R1 workload: the HPS world with its base bands additionally held
/// in paged [`TileStore`]s, for the resilience benches and the
/// repro-under-fault experiment. The stores carry no faults; callers
/// attach profiles with [`TileStore::with_faults`].
pub fn hps_paged_world(
    seed: u64,
    rows: usize,
    cols: usize,
    tile: usize,
) -> (
    Vec<AggregatePyramid>,
    Vec<TileStore>,
    HpsRiskModel,
    ProgressiveLinearModel,
) {
    let scene = SyntheticScene::new(seed, rows, cols).generate();
    let dem = Dem::synthetic(seed + 1, rows, cols, 0.0, 2500.0);
    let bands: Vec<Grid2<f64>> = vec![
        scene.band(BandId::TM4).expect("band present").clone(),
        scene.band(BandId::TM5).expect("band present").clone(),
        scene.band(BandId::TM7).expect("band present").clone(),
        dem.grid().clone(),
    ];
    let pyramids: Vec<AggregatePyramid> = bands.iter().map(AggregatePyramid::build).collect();
    let stores: Vec<TileStore> = bands
        .into_iter()
        .map(|b| TileStore::new(b, tile).expect("valid tile size"))
        .collect();
    let model = HpsRiskModel::paper();
    let ranges: Vec<(f64, f64)> = pyramids
        .iter()
        .map(|p| {
            let root = p.root();
            (root.min, root.max)
        })
        .collect();
    let progressive =
        ProgressiveLinearModel::new(model.model().clone(), &ranges).expect("ranges match arity");
    (pyramids, stores, model, progressive)
}

/// The R2 workload: a rough (low-coherence) multi-band world whose pyramid
/// descent cannot prune aggressively, so the frontier is wide and the
/// parallel engines have real work to split. Bands are also held in paged
/// [`TileStore`]s sharing one [`AccessStats`](mbir_archive::stats::AccessStats) so batch runs can report
/// cache hit rates.
pub fn parallel_world(
    seed: u64,
    side: usize,
    arity: usize,
    tile: usize,
) -> (
    Vec<AggregatePyramid>,
    LinearModel,
    Vec<TileStore>,
    mbir_archive::stats::AccessStats,
) {
    let bands: Vec<Grid2<f64>> = (0..arity)
        .map(|i| {
            GaussianField::new(seed + i as u64)
                .with_roughness(0.85)
                .generate(side, side)
                .normalized(0.0, 100.0)
        })
        .collect();
    let pyramids: Vec<AggregatePyramid> = bands.iter().map(AggregatePyramid::build).collect();
    let stats = mbir_archive::stats::AccessStats::new();
    let stores: Vec<TileStore> = bands
        .into_iter()
        .map(|b| {
            TileStore::new(b, tile)
                .expect("valid tile size")
                .with_stats(stats.clone())
        })
        .collect();
    // Mixed-sign coefficients: no single band dominates, which keeps the
    // level bounds loose and the descent busy.
    let coeffs: Vec<f64> = (0..arity)
        .map(|i| match i % 4 {
            0 => 1.0,
            1 => -0.8,
            2 => 0.6,
            _ => -0.4,
        })
        .collect();
    let model = LinearModel::new(coeffs, 0.0).expect("valid coefficients");
    (pyramids, model, stores, stats)
}

/// The R4 chaos world: N independent replicas of the HPS paged archive
/// (the `hps_paged_world` bands), each replica group sharing one stats
/// handle, plus the pyramids and risk model. Replicas hold bit-identical
/// data — corruption and loss are injected per replica by the caller.
#[allow(clippy::type_complexity)]
pub fn replicated_world(
    seed: u64,
    rows: usize,
    cols: usize,
    tile: usize,
    replicas: usize,
) -> (
    Vec<AggregatePyramid>,
    HpsRiskModel,
    Vec<(Vec<TileStore>, mbir_archive::stats::AccessStats)>,
) {
    let scene = SyntheticScene::new(seed, rows, cols).generate();
    let dem = Dem::synthetic(seed + 1, rows, cols, 0.0, 2500.0);
    let bands: Vec<Grid2<f64>> = vec![
        scene.band(BandId::TM4).expect("band present").clone(),
        scene.band(BandId::TM5).expect("band present").clone(),
        scene.band(BandId::TM7).expect("band present").clone(),
        dem.grid().clone(),
    ];
    let pyramids: Vec<AggregatePyramid> = bands.iter().map(AggregatePyramid::build).collect();
    let groups: Vec<(Vec<TileStore>, mbir_archive::stats::AccessStats)> = (0..replicas)
        .map(|_| {
            let stats = mbir_archive::stats::AccessStats::new();
            let stores: Vec<TileStore> = bands
                .iter()
                .map(|b| {
                    TileStore::new(b.clone(), tile)
                        .expect("valid tile size")
                        .with_stats(stats.clone())
                })
                .collect();
            (stores, stats)
        })
        .collect();
    (pyramids, HpsRiskModel::paper(), groups)
}

/// One shard of the R6 fault-domain world: the shard's band pyramids plus
/// N replica store groups over the same band (each group shares one stats
/// handle — one tick clock and page ledger per replica).
pub struct ShardWorld {
    /// Per-attribute pyramids built over the shard's row band.
    pub pyramids: Vec<AggregatePyramid>,
    /// Replica groups: each a full set of band stores plus the group's
    /// shared access stats. Faults are injected per group by the caller.
    pub groups: Vec<(Vec<TileStore>, mbir_archive::stats::AccessStats)>,
    /// First global row of the shard's band.
    pub row_offset: usize,
}

/// The R6 scatter-gather world: the HPS archive split into tile-aligned
/// row-band shards by a [`ShardPlan`](mbir_archive::shard::ShardPlan),
/// each shard an independent failure domain with its own band pyramids
/// and its own replica groups. Also returns the unsharded global pyramids
/// (the bit-identity reference) and the plan itself.
#[allow(clippy::type_complexity)]
pub fn sharded_world(
    seed: u64,
    rows: usize,
    cols: usize,
    tile: usize,
    shards: usize,
    replicas: usize,
) -> (
    Vec<AggregatePyramid>,
    HpsRiskModel,
    Vec<ShardWorld>,
    mbir_archive::shard::ShardPlan,
) {
    let plan = mbir_archive::shard::ShardPlan::row_bands(rows, cols, shards, tile)
        .expect("valid shard plan");
    let (global_pyramids, model, worlds) = sharded_world_for_plan(seed, &plan, replicas);
    (global_pyramids, model, worlds, plan)
}

/// The HPS attribute grids (TM4/TM5/TM7 reflectances plus elevation) the
/// sharded worlds are built from — deterministic in `seed`.
fn hps_attribute_grids(seed: u64, rows: usize, cols: usize) -> Vec<Grid2<f64>> {
    let scene = SyntheticScene::new(seed, rows, cols).generate();
    let dem = Dem::synthetic(seed + 1, rows, cols, 0.0, 2500.0);
    vec![
        scene.band(BandId::TM4).expect("band present").clone(),
        scene.band(BandId::TM5).expect("band present").clone(),
        scene.band(BandId::TM7).expect("band present").clone(),
        dem.grid().clone(),
    ]
}

/// Like [`sharded_world`], but over a caller-supplied [`ShardPlan`](mbir_archive::shard::ShardPlan)
/// — the R9 resharding harness uses this to build the *destination*
/// topology directly as the bit-identity reference for a completed
/// migration.
#[allow(clippy::type_complexity)]
pub fn sharded_world_for_plan(
    seed: u64,
    plan: &mbir_archive::shard::ShardPlan,
    replicas: usize,
) -> (Vec<AggregatePyramid>, HpsRiskModel, Vec<ShardWorld>) {
    let (rows, cols) = plan.shape();
    let tile = plan.tile_size();
    let bands = hps_attribute_grids(seed, rows, cols);
    let global_pyramids: Vec<AggregatePyramid> =
        bands.iter().map(AggregatePyramid::build).collect();
    let worlds = plan
        .bands()
        .iter()
        .map(|band| {
            let slices: Vec<Grid2<f64>> = bands
                .iter()
                .map(|b| plan.extract_band(b, band.shard).expect("band in range"))
                .collect();
            let groups = (0..replicas)
                .map(|_| {
                    let stats = mbir_archive::stats::AccessStats::new();
                    let stores: Vec<TileStore> = slices
                        .iter()
                        .map(|s| {
                            TileStore::new(s.clone(), tile)
                                .expect("valid tile size")
                                .with_stats(stats.clone())
                        })
                        .collect();
                    (stores, stats)
                })
                .collect();
            ShardWorld {
                pyramids: slices.iter().map(AggregatePyramid::build).collect(),
                groups,
                row_offset: band.row_offset,
            }
        })
        .collect();
    (global_pyramids, HpsRiskModel::paper(), worlds)
}

/// A wide linear model (many attributes, skewed coefficients) over smooth
/// fields — the regime where progressive-model staging pays off; used by
/// the E6 ablation.
pub fn wide_model_world(
    seed: u64,
    rows: usize,
    cols: usize,
    arity: usize,
) -> (Vec<AggregatePyramid>, LinearModel, ProgressiveLinearModel) {
    let pyramids: Vec<AggregatePyramid> = (0..arity)
        .map(|i| {
            AggregatePyramid::build(
                &GaussianField::new(seed + i as u64)
                    .with_roughness(0.4)
                    .generate(rows, cols)
                    .normalized(0.0, 100.0),
            )
        })
        .collect();
    // Geometrically decaying coefficients: a few dominate.
    let coeffs: Vec<f64> = (0..arity).map(|i| 2.0 * 0.5f64.powi(i as i32)).collect();
    let model = LinearModel::new(coeffs, 0.0).expect("valid coefficients");
    let ranges: Vec<(f64, f64)> = pyramids
        .iter()
        .map(|p| {
            let root = p.root();
            (root.min, root.max)
        })
        .collect();
    let progressive =
        ProgressiveLinearModel::new(model.clone(), &ranges).expect("ranges match arity");
    (pyramids, model, progressive)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_deterministic() {
        let (a, _) = onion_workload(1, 100);
        let (b, _) = onion_workload(1, 100);
        assert_eq!(a, b);
        assert_eq!(sproc_workload(2, 3, 10), sproc_workload(2, 3, 10));
        let (qa, da) = quant_workload(7, 50, 8);
        let (qb, db) = quant_workload(7, 50, 8);
        assert_eq!(qa, qb);
        assert_eq!(da, db);
        assert_eq!(qa[0].len(), 8);
        assert_eq!(da.len(), 8);
    }

    #[test]
    fn hps_world_shapes_agree() {
        let (pyramids, model, prog) = hps_world(5, 32, 32);
        assert_eq!(pyramids.len(), model.model().arity());
        assert_eq!(prog.stages(), 4);
        assert_eq!(pyramids[0].base_shape(), (32, 32));
    }

    #[test]
    fn texture_world_has_planted_patch() {
        let (fine, coarse, tile) = texture_world(3, 128, 16);
        assert_eq!(fine.rows(), 128);
        assert_eq!(coarse.rows(), 64);
        assert_eq!(tile, 16);
        // The planted patch has a higher mean than the background.
        let patch = fine
            .window(mbir_archive::extent::CellCoord::new(6 * 16, 7 * 16), 16, 16)
            .unwrap();
        assert!(patch.mean() > fine.mean() + 20.0);
    }

    #[test]
    fn parallel_world_is_deterministic_and_paged() {
        let (pyr_a, model_a, stores_a, _) = parallel_world(29, 64, 4, 16);
        let (pyr_b, model_b, _, _) = parallel_world(29, 64, 4, 16);
        assert_eq!(model_a.coefficients(), model_b.coefficients());
        assert_eq!(pyr_a.len(), 4);
        for (a, b) in pyr_a.iter().zip(&pyr_b) {
            assert_eq!(a.root().mean, b.root().mean);
        }
        assert_eq!(stores_a.len(), 4);
        assert!(stores_a[0].page_count() > 1);
    }

    #[test]
    fn wide_model_coefficients_decay() {
        let (_, model, prog) = wide_model_world(1, 16, 16, 8);
        let c = model.coefficients();
        assert!(c[0] > c[7] * 50.0);
        assert_eq!(prog.term_order()[0], 0);
    }
}
