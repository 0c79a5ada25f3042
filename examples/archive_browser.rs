//! Archive management: the substrate the retrieval framework stands on.
//!
//! Shows the parts of a large-archive deployment that the other examples
//! take for granted: the metadata catalog (the coarsest abstraction level),
//! paged access with I/O accounting, wavelet compression of stored scenes,
//! temporal stacks with the recursive R(x,y,t) model, and demographic
//! weight layers for §4.1 cost evaluation.
//!
//! Run with: `cargo run --example archive_browser`

use mbir::core::metrics::{total_cost, CostParams};
use mbir::models::linear::TemporalHpsModel;
use mbir::progressive::compress::CompressedGrid;
use mbir_archive::catalog::{Catalog, DatasetMeta, Modality};
use mbir_archive::extent::GeoExtent;
use mbir_archive::region::{Polygon, Region, RegionLayer};
use mbir_archive::synth::{GaussianField, OccurrenceSampler};
use mbir_archive::temporal::TemporalStack;
use mbir_archive::tile::TileStore;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Catalog: screen datasets before touching a single pixel ---------
    let mut catalog = Catalog::new();
    let study_area = GeoExtent::new(0.0, 0.0, 60.0, 60.0);
    catalog.register(
        DatasetMeta::new("tm-1998-193", "TM scene, Jul 1998", Modality::Imagery)
            .with_extent(GeoExtent::new(0.0, 0.0, 90.0, 90.0)),
    );
    catalog.register(
        DatasetMeta::new("dem-srtm", "elevation", Modality::Elevation)
            .with_extent(GeoExtent::new(0.0, 0.0, 120.0, 120.0)),
    );
    catalog.register(
        DatasetMeta::new("wx-station-7", "weather feed", Modality::SeriesFeed)
            .with_extent(GeoExtent::new(200.0, 200.0, 201.0, 201.0)),
    );
    let candidates = catalog.covering(&study_area);
    println!(
        "catalog: {} datasets, {} cover the study area:",
        catalog.len(),
        candidates.len()
    );
    for meta in &candidates {
        println!("  {:<12} {:<22} [{}]", meta.id, meta.name, meta.modality);
    }

    // --- Paged access with I/O accounting --------------------------------
    let scene = GaussianField::new(7)
        .with_roughness(0.45)
        .generate(256, 256)
        .normalized(0.0, 255.0);
    let store = TileStore::new(scene.clone(), 32)?;
    // Read one 3x3 neighbourhood: costs pages, not the whole raster.
    for r in 100..103 {
        for c in 100..103 {
            let _ = store.read(r, c)?;
        }
    }
    println!(
        "\npaged store: {} pages total; a 3x3 read touched {} tuples / {} page reads",
        store.page_count(),
        store.stats().tuples_touched(),
        store.stats().pages_read()
    );

    // --- Compressed storage ----------------------------------------------
    println!("\nwavelet compression of the stored scene (refs [1]-[3]):");
    println!(
        "{:>12} {:>16} {:>10}",
        "retention", "storage fraction", "RMSE"
    );
    for keep in [0.02, 0.05, 0.20] {
        let compressed = CompressedGrid::compress(&scene, 5, keep);
        println!(
            "{:>11.0}% {:>15.1}% {:>10.2}",
            keep * 100.0,
            compressed.storage_fraction() * 100.0,
            compressed.rmse(&scene)
        );
    }

    // --- Temporal stack + recursive risk model ----------------------------
    let mut stack = TemporalStack::new(64, 64);
    for t in 0..6 {
        let frame = GaussianField::new(100 + t)
            .with_roughness(0.4)
            .generate(64, 64)
            .normalized(0.0, 1.0);
        stack.push(t as i64 * 16, frame)?;
    }
    let temporal = TemporalHpsModel::new([0.4, 0.3, 0.3], 0.5)?;
    // Track one cell's risk through the acquisitions (using the frame value
    // for all three observation slots for brevity).
    let series = stack.cell_series(32, 32)?;
    let observations: Vec<[f64; 3]> = series.iter().map(|(_, v)| [*v, *v, *v]).collect();
    let trajectory = temporal.run(&observations, 0.0);
    println!(
        "\ntemporal risk R(x,y,t) at cell (32,32) over {} acquisitions:",
        series.len()
    );
    for ((day, obs), risk) in series.iter().zip(&trajectory) {
        println!(
            "  day {:>3}: observation {:.2} -> risk {:.3}",
            day, obs, risk
        );
    }

    // --- Demographic weights for §4.1 costs -------------------------------
    let risk = GaussianField::new(9)
        .with_roughness(0.4)
        .generate(64, 64)
        .normalized(0.0, 1.0);
    // Put the town on the risk hotspot, so population weighting matters.
    let (hot_row, hot_col) = risk
        .iter()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(cc, _)| (cc.row, cc.col))
        .expect("non-empty risk grid");
    let (hx, hy) = study_area.cell_center(
        mbir_archive::extent::CellCoord::new(hot_row, hot_col),
        64,
        64,
    );
    let mut regions = RegionLayer::new().with_background(1.0);
    regions.push(Region {
        name: "ranchland".into(),
        polygon: Polygon::rectangle(&GeoExtent::new(0.0, 0.0, 60.0, 30.0)),
        weight: 5.0,
    });
    regions.push(Region {
        name: "town".into(),
        polygon: Polygon::rectangle(&GeoExtent::new(hx - 8.0, hy - 8.0, hx + 8.0, hy + 8.0)),
        weight: 80.0,
    });
    let weights = regions.rasterize(&study_area, 64, 64);
    let occurrences = OccurrenceSampler::new(10)
        .with_base_rate(2.0)
        .sample(&risk.map(|&v| if v > 0.7 { v } else { 0.0 }));
    let params = CostParams {
        miss_cost: 10.0,
        false_alarm_cost: 1.0,
        threshold: 0.6,
    };
    let unweighted = total_cost(&risk, &occurrences, None, params)?;
    let weighted = total_cost(&risk, &occurrences, Some(&weights), params)?;
    println!(
        "\n§4.1 cost with population weights: unweighted C_T = {:.0}, weighted C_T = {:.0}",
        unweighted.total_cost, weighted.total_cost
    );
    println!(
        "(same {} misses and {} false alarms — the town's 80x weight is what moves the cost)",
        weighted.misses, weighted.false_alarms
    );
    Ok(())
}
