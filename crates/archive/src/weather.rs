//! Synthetic weather-station feeds.
//!
//! The fire-ants finite-state model (paper Fig. 1) consumes exactly two
//! observables per region-day: whether it rained and whether the temperature
//! reached 25 °C. The generator below produces daily series with realistic
//! wet/dry run-length statistics (two-state Markov rain process) and seasonal
//! temperature, which is all the model is sensitive to.

use crate::randx;
use crate::series::TimeSeries;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// One day of weather at a station.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeatherDay {
    /// Rainfall in millimetres (0 on dry days).
    pub rain_mm: f64,
    /// Mean temperature in degrees Celsius.
    pub temp_c: f64,
}

impl WeatherDay {
    /// Whether any rain fell.
    pub fn rained(&self) -> bool {
        self.rain_mm > 0.0
    }

    /// Whether the fire-ants temperature threshold (T >= 25 °C) is met.
    pub fn warm(&self) -> bool {
        self.temp_c >= 25.0
    }
}

/// Seeded generator of daily weather series.
///
/// Rain occurrence follows a two-state Markov chain with configurable
/// `p(wet | dry)` and `p(wet | wet)`; rain amounts are exponential.
/// Temperature is a seasonal sinusoid (period 365 d) plus Gaussian noise and
/// a wet-day cooling offset.
///
/// # Examples
///
/// ```
/// use mbir_archive::weather::WeatherGenerator;
///
/// let series = WeatherGenerator::new(7).generate(0, 365);
/// assert_eq!(series.len(), 365);
/// ```
#[derive(Debug, Clone)]
pub struct WeatherGenerator {
    seed: u64,
    p_wet_after_dry: f64,
    p_wet_after_wet: f64,
    mean_rain_mm: f64,
    temp_mean_c: f64,
    temp_amplitude_c: f64,
    temp_noise_c: f64,
}

impl WeatherGenerator {
    /// Creates a generator with a humid-subtropical default climate
    /// (the fire-ant belt of the southern United States).
    pub fn new(seed: u64) -> Self {
        WeatherGenerator {
            seed,
            p_wet_after_dry: 0.25,
            p_wet_after_wet: 0.55,
            mean_rain_mm: 8.0,
            temp_mean_c: 20.0,
            temp_amplitude_c: 10.0,
            temp_noise_c: 2.5,
        }
    }

    /// Sets the Markov rain persistence probabilities (clamped to `[0, 1]`).
    #[cfg(test)]
    fn with_rain_chain(mut self, p_wet_after_dry: f64, p_wet_after_wet: f64) -> Self {
        self.p_wet_after_dry = p_wet_after_dry.clamp(0.0, 1.0);
        self.p_wet_after_wet = p_wet_after_wet.clamp(0.0, 1.0);
        self
    }

    /// Sets the mean rainfall on wet days in millimetres.
    #[cfg(test)]
    fn with_mean_rain(mut self, mean_rain_mm: f64) -> Self {
        self.mean_rain_mm = mean_rain_mm.max(0.1);
        self
    }

    /// Sets the seasonal temperature profile: annual mean, seasonal
    /// amplitude, and day-to-day noise (all °C).
    pub fn with_temperature(mut self, mean_c: f64, amplitude_c: f64, noise_c: f64) -> Self {
        self.temp_mean_c = mean_c;
        self.temp_amplitude_c = amplitude_c;
        self.temp_noise_c = noise_c.abs();
        self
    }

    /// Generates `days` consecutive daily samples starting at `start_day`
    /// (day 0 is mid-winter, day ~182 peak summer).
    ///
    /// # Panics
    ///
    /// Panics if `days == 0`.
    pub fn generate(&self, start_day: i64, days: usize) -> TimeSeries<WeatherDay> {
        assert!(days > 0, "must generate at least one day");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut wet = false;
        let mut values = Vec::with_capacity(days);
        for i in 0..days {
            let day = start_day + i as i64;
            let p = if wet {
                self.p_wet_after_wet
            } else {
                self.p_wet_after_dry
            };
            wet = rng.random::<f64>() < p;
            let rain_mm = if wet {
                randx::exponential(&mut rng, 1.0 / self.mean_rain_mm)
            } else {
                0.0
            };
            let season = (2.0 * std::f64::consts::PI * (day as f64 - 182.0) / 365.0).cos();
            let mut temp_c = self.temp_mean_c
                + self.temp_amplitude_c * season
                + randx::normal(&mut rng, 0.0, self.temp_noise_c);
            if wet {
                temp_c -= 2.0; // wet days run cooler
            }
            values.push(WeatherDay { rain_mm, temp_c });
        }
        TimeSeries::new(start_day, 1, values).expect("days > 0 validated above")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = WeatherGenerator::new(3).generate(0, 200);
        let b = WeatherGenerator::new(3).generate(0, 200);
        assert_eq!(a, b);
        let c = WeatherGenerator::new(4).generate(0, 200);
        assert_ne!(a, c);
    }

    #[test]
    fn wet_fraction_matches_chain_stationary_distribution() {
        // Stationary wet fraction = p_wd / (1 - p_ww + p_wd).
        let generator = WeatherGenerator::new(11).with_rain_chain(0.2, 0.6);
        let series = generator.generate(0, 20_000);
        let wet =
            series.values().iter().filter(|d| d.rained()).count() as f64 / series.len() as f64;
        let expected = 0.2 / (1.0 - 0.6 + 0.2);
        assert!(
            (wet - expected).abs() < 0.02,
            "wet {wet} expected {expected}"
        );
    }

    #[test]
    fn summer_is_warmer_than_winter() {
        let series = WeatherGenerator::new(5)
            .with_temperature(20.0, 10.0, 1.0)
            .generate(0, 365);
        let days = series.values();
        let winter: f64 = days[..30].iter().map(|d| d.temp_c).sum::<f64>() / 30.0;
        let summer: f64 = days[170..200].iter().map(|d| d.temp_c).sum::<f64>() / 30.0;
        assert!(summer > winter + 10.0, "summer {summer} winter {winter}");
    }

    #[test]
    fn dry_days_have_zero_rain() {
        let series = WeatherGenerator::new(1).generate(0, 500);
        for (_, d) in series.iter() {
            if !d.rained() {
                assert_eq!(d.rain_mm, 0.0);
            } else {
                assert!(d.rain_mm > 0.0);
            }
        }
    }

    #[test]
    fn mean_rain_scales_wet_day_amounts() {
        let light = WeatherGenerator::new(3)
            .with_mean_rain(2.0)
            .generate(0, 5000);
        let heavy = WeatherGenerator::new(3)
            .with_mean_rain(20.0)
            .generate(0, 5000);
        let mean_of = |s: &TimeSeries<WeatherDay>| {
            let wet: Vec<f64> = s
                .values()
                .iter()
                .filter(|d| d.rained())
                .map(|d| d.rain_mm)
                .collect();
            wet.iter().sum::<f64>() / wet.len() as f64
        };
        let (ml, mh) = (mean_of(&light), mean_of(&heavy));
        assert!((ml - 2.0).abs() < 0.3, "light mean {ml}");
        assert!((mh - 20.0).abs() < 2.0, "heavy mean {mh}");
    }

    #[test]
    fn warm_threshold_is_25c() {
        let d = WeatherDay {
            rain_mm: 0.0,
            temp_c: 25.0,
        };
        assert!(d.warm());
        let d = WeatherDay {
            rain_mm: 0.0,
            temp_c: 24.9,
        };
        assert!(!d.warm());
    }
}
