//! The fire-ants finite-state model of paper Fig. 1.
//!
//! "The fire ants of a region will fly if the region has some rain fall, and
//! then remain dry for at least three days. In addition, the temperature
//! needs to reach 25 degrees Celsius or higher for that region."
//!
//! States (as drawn): Rain, Dry-for-one-day, Dry-for-two-days,
//! Dry-for-three-days-or-more, Fire-Ants-Fly. Transitions consume one
//! classified day: `Rains`, `No rain, T >= 25`, `No rain, T < 25`.
//!
//! Besides the exact machine, this module provides the progressive pieces:
//! a coarse state partition for [`super::Fsm::coarsen`]-based screening and
//! a block-summary screen ([`BlockSummary`]) that decides from aggregate
//! (coarse-resolution) weather whether a region can possibly have a fly
//! event — a *necessary* condition, so screening never drops a true event.

use crate::error::ModelError;
use crate::fsm::{Fsm, StateId};
use mbir_archive::series::TimeSeries;
use mbir_archive::weather::WeatherDay;
use std::fmt;

/// One day of weather classified into the fire-ants alphabet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DayClass {
    /// Any rainfall.
    Rains,
    /// No rain, temperature at or above 25 °C.
    DryWarm,
    /// No rain, temperature below 25 °C.
    DryCool,
}

impl DayClass {
    /// The full alphabet.
    pub const ALPHABET: [DayClass; 3] = [DayClass::Rains, DayClass::DryWarm, DayClass::DryCool];

    /// Classifies a weather day.
    pub fn of(day: &WeatherDay) -> Self {
        if day.rained() {
            DayClass::Rains
        } else if day.warm() {
            DayClass::DryWarm
        } else {
            DayClass::DryCool
        }
    }
}

impl fmt::Display for DayClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            DayClass::Rains => "rains",
            DayClass::DryWarm => "dry T>=25",
            DayClass::DryCool => "dry T<25",
        };
        f.write_str(name)
    }
}

/// The state ids of the fire-ants machine, in construction order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FireAntStates {
    /// "Rain" state.
    pub rain: StateId,
    /// "Dry for one day".
    pub dry1: StateId,
    /// "Dry for two days".
    pub dry2: StateId,
    /// "Dry for three days or more".
    pub dry3_plus: StateId,
    /// "Fire ants fly" (accepting).
    pub fly: StateId,
}

/// Builds the Fig. 1 machine. Returns the machine and its named states.
///
/// The start state is `Rain`-pending: we start in `dry3_plus`-like neutral?
/// No — the figure's entry is the `Rain` state: a fly event requires rain
/// first, so before any rain the machine idles in a pre-rain loop. We model
/// that by starting in `dry3_plus` with no fly transition armed... — see
/// the transition table below: the machine starts in `Dry-3+` but `Fly` is
/// reachable only *after* visiting `Rain`, which is encoded by `Dry-3+`
/// (pre-rain) not offering a warm-day fly edge. Instead of a sixth state we
/// start in `Rain` only when the first rain arrives; concretely the start
/// state is a neutral interpretation of `Dry-3+` **without** fly edges:
/// that needs a distinct state, so the machine has six states, the sixth
/// being `idle` (never rained yet).
pub fn fire_ants_fsm() -> (Fsm<DayClass>, FireAntStates) {
    let mut fsm = Fsm::new();
    let idle = fsm.add_state("idle (no rain yet)");
    let rain = fsm.add_state("rain");
    let dry1 = fsm.add_state("dry for one day");
    let dry2 = fsm.add_state("dry for two days");
    let dry3_plus = fsm.add_state("dry for three days or more");
    let fly = fsm.add_state("fire ants fly");
    fsm.set_start(idle).expect("state exists");
    fsm.set_accepting(fly, true).expect("state exists");

    let t = |fsm: &mut Fsm<DayClass>, from, sym, to| {
        fsm.add_transition(from, sym, to).expect("states exist");
    };
    // Idle: wait for the first rain.
    t(&mut fsm, idle, DayClass::Rains, rain);
    t(&mut fsm, idle, DayClass::DryWarm, idle);
    t(&mut fsm, idle, DayClass::DryCool, idle);
    // Rain: stays while raining, first dry day moves to dry-1.
    t(&mut fsm, rain, DayClass::Rains, rain);
    t(&mut fsm, rain, DayClass::DryWarm, dry1);
    t(&mut fsm, rain, DayClass::DryCool, dry1);
    // Dry-1: rain resets; second dry day moves on.
    t(&mut fsm, dry1, DayClass::Rains, rain);
    t(&mut fsm, dry1, DayClass::DryWarm, dry2);
    t(&mut fsm, dry1, DayClass::DryCool, dry2);
    // Dry-2: a third dry day completes the dry spell — warm triggers the
    // flight (Fig. 1's "No rain T>25" edge into Fly), cool parks in dry-3+.
    t(&mut fsm, dry2, DayClass::Rains, rain);
    t(&mut fsm, dry2, DayClass::DryWarm, fly);
    t(&mut fsm, dry2, DayClass::DryCool, dry3_plus);
    // Dry-3+: waits for a warm day; rain resets.
    t(&mut fsm, dry3_plus, DayClass::Rains, rain);
    t(&mut fsm, dry3_plus, DayClass::DryWarm, fly);
    t(&mut fsm, dry3_plus, DayClass::DryCool, dry3_plus);
    // Fly: a new cycle needs new rain.
    t(&mut fsm, fly, DayClass::Rains, rain);
    t(&mut fsm, fly, DayClass::DryWarm, fly);
    t(&mut fsm, fly, DayClass::DryCool, fly);

    (
        fsm,
        FireAntStates {
            rain,
            dry1,
            dry2,
            dry3_plus,
            fly,
        },
    )
}

/// A coarse 4-group partition (idle | rain | dry* merged | fly) for
/// [`Fsm::coarsen`]: a cheap screening automaton with the
/// over-approximation guarantee. The accepting state keeps its own group —
/// merging it into the dry group would make every post-rain dry day look
/// accepting and destroy the screen's pruning power.
pub fn coarse_partition() -> Vec<usize> {
    // idle, rain, dry1, dry2, dry3+, fly
    vec![0, 1, 2, 2, 2, 3]
}

/// Classifies a weather series into the fire-ants alphabet.
pub fn classify_series(series: &TimeSeries<WeatherDay>) -> Vec<DayClass> {
    series.values().iter().map(DayClass::of).collect()
}

/// Detects fly events: the day numbers at which the machine enters `Fly`.
///
/// # Errors
///
/// Propagates machine-run errors (cannot occur for the built-in machine,
/// whose transition table is total).
pub fn detect_fly_days(series: &TimeSeries<WeatherDay>) -> Result<Vec<i64>, ModelError> {
    let (fsm, _) = fire_ants_fsm();
    let symbols = classify_series(series);
    let events = fsm.acceptance_events(&symbols)?;
    Ok(events.into_iter().map(|i| series.day_of(i)).collect())
}

/// Aggregate summary of a block of consecutive days, composable across
/// blocks — the coarse-resolution representation used to screen regions
/// without reading their daily series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockSummary {
    /// Days in the block.
    pub days: usize,
    /// Whether any day had rain.
    pub any_rain: bool,
    /// Maximum temperature over the block.
    pub max_temp_c: f64,
    /// Longest run of dry days fully inside the block.
    pub longest_dry_run: usize,
    /// Length of the dry prefix (dry days before the first rain).
    pub dry_prefix: usize,
    /// Length of the dry suffix (dry days after the last rain).
    pub dry_suffix: usize,
}

impl BlockSummary {
    /// Summarizes a slice of days.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn of(days: &[WeatherDay]) -> Self {
        assert!(!days.is_empty(), "block must be non-empty");
        let mut longest = 0usize;
        let mut current = 0usize;
        let mut max_temp = f64::NEG_INFINITY;
        let mut any_rain = false;
        for d in days {
            max_temp = max_temp.max(d.temp_c);
            if d.rained() {
                any_rain = true;
                current = 0;
            } else {
                current += 1;
                longest = longest.max(current);
            }
        }
        let dry_suffix = current;
        let dry_prefix = days.iter().take_while(|d| !d.rained()).count();
        BlockSummary {
            days: days.len(),
            any_rain,
            max_temp_c: max_temp,
            longest_dry_run: longest,
            dry_prefix,
            dry_suffix,
        }
    }

    /// Composes two adjacent blocks (self followed by `next`), preserving
    /// the exactness of the dry-run statistics.
    pub fn merge(&self, next: &BlockSummary) -> BlockSummary {
        let bridged = self.dry_suffix + next.dry_prefix;
        BlockSummary {
            days: self.days + next.days,
            any_rain: self.any_rain || next.any_rain,
            max_temp_c: self.max_temp_c.max(next.max_temp_c),
            longest_dry_run: self.longest_dry_run.max(next.longest_dry_run).max(bridged),
            dry_prefix: if self.any_rain {
                self.dry_prefix
            } else {
                self.days + next.dry_prefix
            },
            dry_suffix: if next.any_rain {
                next.dry_suffix
            } else {
                next.days + self.dry_suffix
            },
        }
    }
}

/// The coarse screen: whether a region summarized by `summary` can possibly
/// contain a fly event. The conditions (some rain, a >= 3-day dry run, and
/// a day reaching 25 °C) are each *necessary* for a fly event, so a `false`
/// here soundly prunes the region; a `true` sends it to full FSM refinement.
pub fn may_have_fly_event(summary: &BlockSummary) -> bool {
    summary.any_rain && summary.longest_dry_run >= 3 && summary.max_temp_c >= 25.0
}

/// Work accounting for a screened multi-region detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScreenStats {
    /// Regions in the archive.
    pub regions: usize,
    /// Regions pruned by the coarse summary.
    pub screened_out: usize,
    /// Daily readings consumed by full FSM runs.
    pub readings_processed: u64,
    /// Daily readings a screen-less run would have consumed.
    pub readings_total: u64,
}

impl ScreenStats {
    /// The "data touched" speedup of screening (≥ 1).
    pub fn speedup(&self) -> f64 {
        if self.readings_processed == 0 {
            return 1.0;
        }
        self.readings_total as f64 / self.readings_processed as f64
    }
}

/// Progressive multi-region fly detection (the F1 pipeline as a library
/// call): screens every region with composable `block_days`-sized
/// summaries, runs the exact Fig. 1 machine only on survivors, and returns
/// per-region fly days plus work accounting. Pruned regions report no
/// events — soundly, since the screen is a necessary condition (verified
/// by the equivalence test against unscreened detection).
///
/// # Errors
///
/// Propagates machine-run errors; returns [`ModelError::InvalidValue`]
/// when `block_days == 0`.
pub fn screened_fly_detection(
    regions: &[TimeSeries<WeatherDay>],
    block_days: usize,
) -> Result<(Vec<Vec<i64>>, ScreenStats), ModelError> {
    if block_days == 0 {
        return Err(ModelError::InvalidValue("block_days must be >= 1".into()));
    }
    let mut stats = ScreenStats {
        regions: regions.len(),
        ..ScreenStats::default()
    };
    let mut events = Vec::with_capacity(regions.len());
    for series in regions {
        stats.readings_total += series.len() as u64;
        let summary = series
            .values()
            .chunks(block_days)
            .map(BlockSummary::of)
            .reduce(|a, b| a.merge(&b))
            .expect("series are non-empty by construction");
        if !may_have_fly_event(&summary) {
            stats.screened_out += 1;
            events.push(Vec::new());
            continue;
        }
        stats.readings_processed += series.len() as u64;
        events.push(detect_fly_days(series)?);
    }
    Ok((events, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbir_archive::weather::WeatherGenerator;

    fn day(rain: f64, temp: f64) -> WeatherDay {
        WeatherDay {
            rain_mm: rain,
            temp_c: temp,
        }
    }

    #[test]
    fn machine_is_total_over_alphabet() {
        let (fsm, _) = fire_ants_fsm();
        for state in 0..fsm.names.len() {
            for sym in DayClass::ALPHABET {
                assert!(fsm.step(state, sym).is_some(), "{state} on {sym:?}");
            }
        }
    }

    #[test]
    fn textbook_sequence_fires_on_third_warm_dry_day() {
        let days = vec![
            day(5.0, 20.0), // rain
            day(0.0, 22.0), // dry 1 (cool)
            day(0.0, 24.0), // dry 2 (cool)
            day(0.0, 26.0), // dry 3, warm -> FLY
        ];
        let series = TimeSeries::new(100, 1, days).unwrap();
        let events = detect_fly_days(&series).unwrap();
        assert_eq!(events, vec![103]);
    }

    #[test]
    fn no_rain_means_no_flight_even_if_warm_and_dry() {
        let days = vec![day(0.0, 30.0); 10];
        let series = TimeSeries::new(0, 1, days).unwrap();
        assert!(detect_fly_days(&series).unwrap().is_empty());
    }

    #[test]
    fn rain_resets_the_dry_counter() {
        let days = vec![
            day(5.0, 20.0), // rain
            day(0.0, 26.0), // dry 1
            day(0.0, 26.0), // dry 2
            day(2.0, 26.0), // rain again — reset
            day(0.0, 26.0), // dry 1
            day(0.0, 26.0), // dry 2
            day(0.0, 26.0), // dry 3 warm -> FLY (day 6)
        ];
        let series = TimeSeries::new(0, 1, days).unwrap();
        assert_eq!(detect_fly_days(&series).unwrap(), vec![6]);
    }

    #[test]
    fn cool_third_day_defers_until_first_warm_day() {
        let days = vec![
            day(5.0, 20.0), // rain
            day(0.0, 20.0), // dry 1
            day(0.0, 20.0), // dry 2
            day(0.0, 20.0), // dry 3 cool -> dry3+
            day(0.0, 20.0), // dry 4 cool -> dry3+
            day(0.0, 28.0), // warm -> FLY (day 5)
        ];
        let series = TimeSeries::new(0, 1, days).unwrap();
        assert_eq!(detect_fly_days(&series).unwrap(), vec![5]);
    }

    #[test]
    fn repeated_cycles_fire_repeatedly() {
        let cycle = vec![
            day(5.0, 20.0),
            day(0.0, 26.0),
            day(0.0, 26.0),
            day(0.0, 26.0), // fly
        ];
        let mut days = cycle.clone();
        days.extend(cycle);
        let series = TimeSeries::new(0, 1, days).unwrap();
        assert_eq!(detect_fly_days(&series).unwrap(), vec![3, 7]);
    }

    #[test]
    fn block_summary_composes_exactly() {
        let generator = WeatherGenerator::new(42);
        let series = generator.generate(0, 365);
        let whole = BlockSummary::of(series.values());
        // Compose from 30-day blocks.
        let composed = series
            .values()
            .chunks(30)
            .map(BlockSummary::of)
            .reduce(|a, b| a.merge(&b))
            .unwrap();
        assert_eq!(whole, composed);
    }

    #[test]
    fn screen_is_a_necessary_condition() {
        // Over many seeds: whenever the full FSM finds a fly event, the
        // screen must pass.
        for seed in 0..40 {
            let series = WeatherGenerator::new(seed)
                .with_temperature(22.0, 8.0, 2.0)
                .generate(0, 365);
            let events = detect_fly_days(&series).unwrap();
            let summary = BlockSummary::of(series.values());
            if !events.is_empty() {
                assert!(
                    may_have_fly_event(&summary),
                    "seed {seed}: screen dropped a region with {} events",
                    events.len()
                );
            }
        }
    }

    #[test]
    fn screen_rejects_impossible_regions() {
        // Cold region: never reaches 25 C.
        let series = WeatherGenerator::new(1)
            .with_temperature(5.0, 5.0, 1.0)
            .generate(0, 365);
        let summary = BlockSummary::of(series.values());
        assert!(!may_have_fly_event(&summary));
        assert!(detect_fly_days(&series).unwrap().is_empty());
    }

    #[test]
    fn screened_detection_equals_unscreened() {
        let regions: Vec<_> = (0..60u64)
            .map(|seed| {
                WeatherGenerator::new(seed)
                    .with_temperature(6.0 + (seed % 15) as f64 * 1.5, 8.0, 2.0)
                    .generate(0, 365)
            })
            .collect();
        let (events, stats) = screened_fly_detection(&regions, 30).unwrap();
        assert_eq!(events.len(), regions.len());
        for (series, got) in regions.iter().zip(&events) {
            assert_eq!(*got, detect_fly_days(series).unwrap());
        }
        assert!(stats.screened_out > 0, "cold regions should be pruned");
        assert!(stats.speedup() > 1.0);
        assert_eq!(stats.regions, 60);
        assert_eq!(stats.readings_total, 60 * 365);
    }

    #[test]
    fn screened_detection_validates_block_size() {
        let region = WeatherGenerator::new(1).generate(0, 30);
        assert!(matches!(
            screened_fly_detection(&[region], 0),
            Err(ModelError::InvalidValue(_))
        ));
        // Empty archive is fine.
        let (events, stats) = screened_fly_detection(&[], 30).unwrap();
        assert!(events.is_empty());
        assert_eq!(stats.speedup(), 1.0);
    }

    #[test]
    fn coarse_fsm_partition_screens_soundly() {
        let (fsm, _) = fire_ants_fsm();
        let coarse = fsm.coarsen(&coarse_partition()).unwrap();
        for seed in 0..20 {
            let series = WeatherGenerator::new(seed).generate(0, 200);
            let symbols = classify_series(&series);
            let events = fsm.acceptance_events(&symbols).unwrap();
            if !events.is_empty() {
                assert!(coarse.may_reach_accepting(&symbols), "seed {seed}");
            }
        }
    }
}
