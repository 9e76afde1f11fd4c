//! Measurement plumbing for the simulators.
//!
//! * [`TimeWeighted`] — integrates a piecewise-constant signal over
//!   simulated time (utilization, queue length, instantaneous power).
//! * [`EnergyMeter`] — a `TimeWeighted` specialized to power→energy.

/// A signal update arrived with a timestamp earlier than the previous one.
///
/// Returned by [`TimeWeighted::try_set`]; carries both instants so the
/// caller can log or journal the skew before deciding how to proceed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockSkewError {
    /// The out-of-order timestamp that was offered, seconds.
    pub at_s: f64,
    /// The integrator's latest accepted timestamp, seconds.
    pub last_s: f64,
}

impl std::fmt::Display for ClockSkewError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "time must not go backwards: update at {} s precedes last update at {} s",
            self.at_s, self.last_s
        )
    }
}

impl std::error::Error for ClockSkewError {}

/// Integrates a piecewise-constant signal over time.
#[derive(Debug, Clone)]
pub struct TimeWeighted {
    start: f64,
    last_t: f64,
    value: f64,
    integral: f64,
}

impl TimeWeighted {
    /// Starts integrating `initial` at time `t0`.
    pub fn new(t0: f64, initial: f64) -> Self {
        TimeWeighted {
            start: t0,
            last_t: t0,
            value: initial,
            integral: 0.0,
        }
    }

    /// Records that the signal changed to `value` at time `t`.
    ///
    /// # Panics
    /// Panics if `t` is earlier than the last update. Use
    /// [`TimeWeighted::try_set`] for the non-panicking variant.
    pub fn set(&mut self, t: f64, value: f64) {
        assert!(t >= self.last_t, "time must not go backwards");
        self.integral += self.value * (t - self.last_t);
        self.last_t = t;
        self.value = value;
    }

    /// Non-panicking [`TimeWeighted::set`]: on a backwards timestamp the
    /// integrator is left untouched and a [`ClockSkewError`] describing
    /// the skew is returned, so callers can report the anomaly instead of
    /// aborting a long simulation.
    pub fn try_set(&mut self, t: f64, value: f64) -> Result<(), ClockSkewError> {
        if t < self.last_t {
            return Err(ClockSkewError {
                at_s: t,
                last_s: self.last_t,
            });
        }
        self.integral += self.value * (t - self.last_t);
        self.last_t = t;
        self.value = value;
        Ok(())
    }

    /// Integral of the signal from start through time `t` (the signal is
    /// assumed to hold its current value up to `t`).
    pub fn integral_until(&self, t: f64) -> f64 {
        assert!(t >= self.last_t, "time must not go backwards");
        self.integral + self.value * (t - self.last_t)
    }

    /// Time-weighted average over `[start, t]`.
    pub fn average_until(&self, t: f64) -> f64 {
        let span = t - self.start;
        if span <= 0.0 {
            self.value
        } else {
            self.integral_until(t) / span
        }
    }
}

/// Integrates instantaneous power (watts) into energy (joules).
#[derive(Debug, Clone)]
pub struct EnergyMeter {
    inner: TimeWeighted,
}

impl EnergyMeter {
    /// Starts metering `initial_watts` at time `t0` (seconds).
    pub fn new(t0: f64, initial_watts: f64) -> Self {
        EnergyMeter {
            inner: TimeWeighted::new(t0, initial_watts),
        }
    }

    /// Records a power change.
    ///
    /// A backwards timestamp does **not** abort the run: the skew is
    /// journaled as a [`eprons_obs::Event::ClockSkew`] event (when
    /// telemetry is enabled), counted under `sim.meter.clock_skews`, and
    /// the new wattage is applied at the meter's current time instead, so
    /// energy accounting never runs backwards.
    pub fn set_power(&mut self, t: f64, watts: f64) {
        if let Err(skew) = self.inner.try_set(t, watts) {
            if eprons_obs::enabled() {
                eprons_obs::registry()
                    .counter("sim.meter.clock_skews")
                    .inc();
                eprons_obs::record(eprons_obs::Event::ClockSkew {
                    at_s: skew.at_s,
                    last_s: skew.last_s,
                });
            }
            // Hold time still and take the new level from "now" onwards.
            let now = self.inner.last_t;
            self.inner
                .try_set(now, watts)
                .expect("setting at the current instant cannot skew");
        }
    }

    /// Energy in joules consumed through time `t`.
    pub fn energy_until(&self, t: f64) -> f64 {
        self.inner.integral_until(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_weighted_constant_signal() {
        let tw = TimeWeighted::new(0.0, 5.0);
        assert_eq!(tw.integral_until(10.0), 50.0);
        assert_eq!(tw.average_until(10.0), 5.0);
    }

    #[test]
    fn time_weighted_step_changes() {
        let mut tw = TimeWeighted::new(0.0, 1.0);
        tw.set(2.0, 3.0); // 1.0 for 2s = 2
        tw.set(4.0, 0.0); // 3.0 for 2s = 6
        assert_eq!(tw.integral_until(10.0), 8.0); // 0.0 for 6s = 0
        assert!((tw.average_until(10.0) - 0.8).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn time_weighted_rejects_backwards_time() {
        let mut tw = TimeWeighted::new(5.0, 1.0);
        tw.set(4.0, 2.0);
    }

    #[test]
    fn try_set_reports_skew_without_mutating() {
        let mut tw = TimeWeighted::new(5.0, 1.0);
        let err = tw.try_set(4.0, 2.0).unwrap_err();
        assert_eq!(
            err,
            ClockSkewError {
                at_s: 4.0,
                last_s: 5.0
            }
        );
        // Integrator untouched: still 1.0 from t=5.
        assert_eq!(tw.integral_until(6.0), 1.0);
        // And the error formats usefully.
        assert!(err.to_string().contains("backwards"));
        // A forward update still works afterwards.
        tw.try_set(7.0, 0.0).unwrap();
        assert_eq!(tw.integral_until(7.0), 2.0);
    }

    #[test]
    fn energy_meter_survives_clock_skew() {
        let mut m = EnergyMeter::new(0.0, 100.0);
        m.set_power(10.0, 50.0);
        // Out-of-order update: applied at t=10 (held time), not t=5.
        m.set_power(5.0, 80.0);
        // 100 W for 10 s, then 80 W for 10 s (the 50 W level was replaced
        // at the same instant it was set).
        assert_eq!(m.energy_until(20.0), 1800.0);
    }

    #[test]
    fn energy_meter_joules_and_watts() {
        let mut m = EnergyMeter::new(0.0, 100.0);
        m.set_power(60.0, 50.0);
        // 100 W for 60 s + 50 W for 60 s = 9000 J
        assert_eq!(m.energy_until(120.0), 9000.0);
        // Still drawing 50 W: another 60 s adds 3000 J.
        assert_eq!(m.energy_until(180.0), 12000.0);
    }
}
