//! Standing continuous queries over a live archive: the fire-ants FSM
//! re-armed as new pages commit.
//!
//! The paper's Fig. 1 model detects *events* (fire-ant flights) in a
//! weather series. Against a static archive that is a batch run
//! ([`mbir_models::fsm::fire_ants::detect_fly_days`]); against a
//! [`LiveArchive`](crate::snapshot::LiveArchive) the series keeps growing,
//! so the detection becomes a *standing query*: a driver that holds the
//! machine's state across commits and, on every poll, consumes exactly the
//! newly committed rows of the current snapshot.
//!
//! Two determinism guarantees make the driver trustworthy:
//!
//! * **Schedule independence** — the concatenated alerts over *any* poll
//!   schedule (after every commit, once at the end, or anything between)
//!   equal the batch events over the final committed series, because the
//!   machine is deterministic and the driver's cursor advances over
//!   exactly the committed prefix.
//! * **Snapshot isolation** — a poll reads one [`EpochSnapshot`], so a
//!   commit landing mid-poll cannot split a day or show a torn band; the
//!   new rows are simply picked up by the next poll.

use crate::error::CoreError;
use crate::snapshot::EpochSnapshot;
use mbir_archive::weather::WeatherDay;
use mbir_models::fsm::fire_ants::{fire_ants_fsm, DayClass};
use mbir_models::fsm::{Fsm, StateId};

/// Incremental fire-ants event detection: feeds days into the Fig. 1
/// machine as they arrive, emitting an alert each time the machine
/// *enters* the accepting state — the streaming counterpart of
/// [`Fsm::acceptance_events`].
///
/// # Examples
///
/// ```
/// use mbir_archive::weather::WeatherDay;
/// use mbir_core::continuous::ContinuousDetector;
///
/// let mut det = ContinuousDetector::new();
/// let day = |rain, temp| WeatherDay { rain_mm: rain, temp_c: temp };
/// assert!(det.observe(&[day(5.0, 20.0), day(0.0, 26.0)]).is_empty());
/// // Two more dry days complete the spell; the warm third day fires.
/// assert_eq!(det.observe(&[day(0.0, 26.0), day(0.0, 26.0)]), vec![3]);
/// ```
#[derive(Debug)]
pub struct ContinuousDetector {
    fsm: Fsm<DayClass>,
    state: StateId,
    accepting: bool,
    days_seen: usize,
}

impl ContinuousDetector {
    /// A fresh detector in the machine's start state.
    pub fn new() -> Self {
        let (fsm, _) = fire_ants_fsm();
        let state = fsm.start().expect("fire-ants machine has a start state");
        let accepting = fsm.is_accepting(state);
        ContinuousDetector {
            fsm,
            state,
            accepting,
            days_seen: 0,
        }
    }

    /// Days consumed so far.
    #[cfg(test)]
    fn days_seen(&self) -> usize {
        self.days_seen
    }

    /// Consumes the next `days` of the series, returning the absolute day
    /// indexes (0-based from the start of the stream) at which the
    /// machine entered the accepting state. Feeding the same series in
    /// any chunking yields the same concatenated events as
    /// [`Fsm::acceptance_events`] over the whole series.
    pub fn observe(&mut self, days: &[WeatherDay]) -> Vec<usize> {
        let mut events = Vec::new();
        for day in days {
            let sym = DayClass::of(day);
            self.state = self
                .fsm
                .step(self.state, sym)
                .expect("fire-ants transition table is total");
            let now = self.fsm.is_accepting(self.state);
            if now && !self.accepting {
                events.push(self.days_seen);
            }
            self.accepting = now;
            self.days_seen += 1;
        }
        events
    }
}

impl Default for ContinuousDetector {
    fn default() -> Self {
        ContinuousDetector::new()
    }
}

/// A standing fire-ants query over a live archive: rows are days, one
/// attribute column carries rainfall and another temperature, and every
/// [`poll`](Self::poll) re-arms the FSM over exactly the rows committed
/// since the last poll.
#[derive(Debug)]
pub struct ContinuousQueryDriver {
    detector: ContinuousDetector,
    rain_attr: usize,
    temp_attr: usize,
    col: usize,
    cursor: usize,
}

impl ContinuousQueryDriver {
    /// A driver reading rainfall from attribute `rain_attr` and
    /// temperature from attribute `temp_attr`, both at column `col`.
    pub fn new(rain_attr: usize, temp_attr: usize, col: usize) -> Self {
        ContinuousQueryDriver {
            detector: ContinuousDetector::new(),
            rain_attr,
            temp_attr,
            col,
            cursor: 0,
        }
    }

    /// Rows (days) consumed so far.
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// Consumes the rows `snapshot` committed past the driver's cursor,
    /// returning the day indexes (row numbers) of new fly alerts. Polling
    /// the same epoch twice is a no-op; snapshots only ever extend the
    /// committed prefix, so the cursor never re-reads a day.
    ///
    /// # Errors
    ///
    /// [`CoreError::Query`] when the snapshot has fewer rows than the
    /// driver already consumed (snapshots of a different archive), or the
    /// configured attributes / column are out of range. Archive read
    /// errors propagate as [`CoreError::Archive`].
    pub fn poll(&mut self, snapshot: &EpochSnapshot) -> Result<Vec<usize>, CoreError> {
        let stores = snapshot.stores();
        let attrs = stores.len();
        if self.rain_attr >= attrs || self.temp_attr >= attrs {
            return Err(CoreError::Query(format!(
                "driver attributes ({}, {}) out of range for {attrs}-attribute snapshot",
                self.rain_attr, self.temp_attr
            )));
        }
        let rows = snapshot.rows();
        if rows < self.cursor {
            return Err(CoreError::Query(format!(
                "snapshot has {rows} rows but the driver already consumed {}; \
                 committed prefixes never shrink, so this snapshot belongs to \
                 a different archive",
                self.cursor
            )));
        }
        if self.col >= stores[0].cols() {
            return Err(CoreError::Query(format!(
                "driver column {} out of range for width {}",
                self.col,
                stores[0].cols()
            )));
        }
        let mut days = Vec::with_capacity(rows - self.cursor);
        for row in self.cursor..rows {
            days.push(WeatherDay {
                rain_mm: stores[self.rain_attr].read(row, self.col)?,
                temp_c: stores[self.temp_attr].read(row, self.col)?,
            });
        }
        let alerts = self.detector.observe(&days);
        self.cursor = rows;
        Ok(alerts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::LiveArchive;
    use mbir_archive::grid::Grid2;
    use mbir_archive::weather::WeatherGenerator;
    use mbir_models::fsm::fire_ants::detect_fly_days;

    #[test]
    fn chunked_observation_equals_batch_detection() {
        let series = WeatherGenerator::new(7)
            .with_temperature(22.0, 8.0, 2.0)
            .generate(0, 240);
        let (fsm, _) = fire_ants_fsm();
        let symbols: Vec<DayClass> = series.values().iter().map(DayClass::of).collect();
        let batch = fsm.acceptance_events(&symbols).unwrap();
        for chunk in [1usize, 3, 7, 30, 240] {
            let mut det = ContinuousDetector::new();
            let mut streamed = Vec::new();
            for days in series.values().chunks(chunk) {
                streamed.extend(det.observe(days));
            }
            assert_eq!(streamed, batch, "chunk size {chunk}");
            assert_eq!(det.days_seen(), 240);
        }
    }

    /// Weather bands as grids: attribute 0 is rainfall, attribute 1 is
    /// temperature; each row is one day, replicated across columns.
    fn weather_bands(days: &[WeatherDay], cols: usize) -> Vec<Grid2<f64>> {
        vec![
            Grid2::from_fn(days.len(), cols, |r, _| days[r].rain_mm),
            Grid2::from_fn(days.len(), cols, |r, _| days[r].temp_c),
        ]
    }

    #[test]
    fn driver_alerts_match_batch_detection_under_any_poll_schedule() {
        let series = WeatherGenerator::new(11)
            .with_temperature(22.0, 8.0, 2.0)
            .generate(0, 96);
        let days = series.values();
        let batch: Vec<usize> = detect_fly_days(&series)
            .unwrap()
            .into_iter()
            .map(|d| d as usize)
            .collect();

        // Poll after every commit, after every other commit, once at the
        // end: the concatenated alerts never change.
        for poll_every in [1usize, 2, 12] {
            let mut live = LiveArchive::new(weather_bands(&days[..8], 3), 4).unwrap();
            let mut driver = ContinuousQueryDriver::new(0, 1, 1);
            let mut alerts = driver.poll(&live.snapshot()).unwrap();
            for (i, band) in days[8..].chunks(8).enumerate() {
                live.append(&weather_bands(band, 3)).unwrap();
                if (i + 1) % poll_every == 0 {
                    alerts.extend(driver.poll(&live.snapshot()).unwrap());
                }
            }
            alerts.extend(driver.poll(&live.snapshot()).unwrap());
            assert_eq!(alerts, batch, "poll_every {poll_every}");
            assert_eq!(driver.cursor(), 96);
            // Re-polling the same epoch is a no-op.
            assert!(driver.poll(&live.snapshot()).unwrap().is_empty());
        }
    }

    #[test]
    fn driver_validates_attributes_and_rejects_foreign_snapshots() {
        let live =
            LiveArchive::new(vec![Grid2::filled(4, 2, 0.0), Grid2::filled(4, 2, 30.0)], 2).unwrap();
        let snap = live.snapshot();
        assert!(ContinuousQueryDriver::new(0, 2, 0).poll(&snap).is_err());
        assert!(ContinuousQueryDriver::new(0, 1, 9).poll(&snap).is_err());
        let mut ok = ContinuousQueryDriver::new(0, 1, 0);
        ok.poll(&snap).unwrap();
        // A snapshot with fewer rows than the cursor is a foreign archive.
        let small =
            LiveArchive::new(vec![Grid2::filled(2, 2, 0.0), Grid2::filled(2, 2, 30.0)], 2).unwrap();
        assert!(ok.poll(&small.snapshot()).is_err());
    }
}
