//! Lithology classes and synthetic stratigraphic columns.

use crate::randx;
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use std::fmt;

/// Rock types distinguished by the geology knowledge model (paper Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum Lithology {
    /// Fine-grained, high gamma-ray response.
    Shale,
    /// Coarse-grained reservoir rock, low gamma.
    Sandstone,
    /// Between shale and sandstone in grain size and gamma.
    Siltstone,
    /// Carbonate, low gamma.
    Limestone,
    /// Organic, very high gamma.
    Coal,
}

impl Lithology {
    /// All lithologies, in declaration order.
    pub const ALL: [Lithology; 5] = [
        Lithology::Shale,
        Lithology::Sandstone,
        Lithology::Siltstone,
        Lithology::Limestone,
        Lithology::Coal,
    ];

    /// Typical gamma-ray response `(mean, std_dev)` in API units.
    ///
    /// Values follow standard petrophysical ranges: shales ~90 API,
    /// clean sandstones ~35 API, siltstones in between.
    pub fn gamma_profile(&self) -> (f64, f64) {
        match self {
            Lithology::Shale => (95.0, 12.0),
            Lithology::Sandstone => (35.0, 8.0),
            Lithology::Siltstone => (62.0, 10.0),
            Lithology::Limestone => (25.0, 6.0),
            Lithology::Coal => (130.0, 15.0),
        }
    }
}

impl fmt::Display for Lithology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Lithology::Shale => "shale",
            Lithology::Sandstone => "sandstone",
            Lithology::Siltstone => "siltstone",
            Lithology::Limestone => "limestone",
            Lithology::Coal => "coal",
        };
        f.write_str(name)
    }
}

/// A contiguous layer in a stratigraphic column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Layer {
    /// Rock type of the layer.
    pub lithology: Lithology,
    /// Layer thickness in feet.
    pub thickness_ft: f64,
}

/// Seeded generator of stratigraphic columns.
///
/// Layers alternate through a Markov chain over lithologies (no self
/// transitions — consecutive identical layers merge physically) with
/// exponential thicknesses. A configurable fraction of generated wells have a
/// *planted* riverbed signature — shale over sandstone over siltstone with
/// thin beds — so retrieval experiments have known positives.
#[derive(Debug, Clone)]
pub struct ColumnGenerator {
    seed: u64,
    mean_thickness_ft: f64,
    plant_riverbed: bool,
}

impl ColumnGenerator {
    /// Creates a generator with 20 ft mean layer thickness.
    pub fn new(seed: u64) -> Self {
        ColumnGenerator {
            seed,
            mean_thickness_ft: 20.0,
            plant_riverbed: false,
        }
    }

    /// Plants a riverbed signature (shale / sandstone / siltstone, each
    /// under 10 ft) at a random depth in the column.
    pub fn with_riverbed(mut self) -> Self {
        self.plant_riverbed = true;
        self
    }

    /// Generates a column totalling at least `total_depth_ft` feet.
    ///
    /// # Panics
    ///
    /// Panics if `total_depth_ft <= 0`.
    pub fn generate(&self, total_depth_ft: f64) -> Vec<Layer> {
        assert!(total_depth_ft > 0.0, "total depth must be positive");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut layers = Vec::new();
        let mut depth = 0.0;
        let mut current = Lithology::ALL[rng.random_range(0..Lithology::ALL.len())];
        while depth < total_depth_ft {
            let thickness_ft = randx::exponential(&mut rng, 1.0 / self.mean_thickness_ft).max(2.0);
            layers.push(Layer {
                lithology: current,
                thickness_ft,
            });
            depth += thickness_ft;
            current = self.next_lithology(&mut rng, current);
        }
        if self.plant_riverbed && layers.len() >= 3 {
            let pos = rng.random_range(0..layers.len().saturating_sub(2));
            let beds = [Lithology::Shale, Lithology::Sandstone, Lithology::Siltstone];
            for (i, lith) in beds.iter().enumerate() {
                layers[pos + i] = Layer {
                    lithology: *lith,
                    thickness_ft: 4.0 + rng.random::<f64>() * 5.0,
                };
            }
        }
        layers
    }

    fn next_lithology<R: Rng + ?Sized>(&self, rng: &mut R, current: Lithology) -> Lithology {
        // Uniform over the other lithologies, biased toward the
        // shale/sand/silt triad which dominates clastic basins.
        let weights: Vec<(Lithology, f64)> = Lithology::ALL
            .iter()
            .filter(|l| **l != current)
            .map(|l| {
                let w = match l {
                    Lithology::Shale => 3.0,
                    Lithology::Sandstone => 2.5,
                    Lithology::Siltstone => 2.5,
                    Lithology::Limestone => 1.0,
                    Lithology::Coal => 0.5,
                };
                (*l, w)
            })
            .collect();
        let total: f64 = weights.iter().map(|(_, w)| w).sum();
        let mut draw = rng.random::<f64>() * total;
        for (l, w) in &weights {
            draw -= w;
            if draw <= 0.0 {
                return *l;
            }
        }
        weights.last().expect("at least one alternative").0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_reaches_depth_and_is_deterministic() {
        let a = ColumnGenerator::new(5).generate(500.0);
        let b = ColumnGenerator::new(5).generate(500.0);
        assert_eq!(a, b);
        let total: f64 = a.iter().map(|l| l.thickness_ft).sum();
        assert!(total >= 500.0);
        assert!(a.iter().all(|l| l.thickness_ft >= 2.0));
    }

    #[test]
    fn no_consecutive_identical_layers_without_plant() {
        let layers = ColumnGenerator::new(8).generate(2000.0);
        for pair in layers.windows(2) {
            assert_ne!(pair[0].lithology, pair[1].lithology);
        }
    }

    #[test]
    fn planted_riverbed_is_present() {
        let layers = ColumnGenerator::new(3).with_riverbed().generate(800.0);
        let found = layers.windows(3).any(|w| {
            w[0].lithology == Lithology::Shale
                && w[1].lithology == Lithology::Sandstone
                && w[2].lithology == Lithology::Siltstone
                && w.iter().all(|l| l.thickness_ft < 10.0)
        });
        assert!(found, "riverbed signature missing: {layers:?}");
    }

    #[test]
    fn gamma_profiles_are_ordered_sensibly() {
        let (shale, _) = Lithology::Shale.gamma_profile();
        let (sand, _) = Lithology::Sandstone.gamma_profile();
        let (silt, _) = Lithology::Siltstone.gamma_profile();
        assert!(shale > silt && silt > sand);
    }
}
