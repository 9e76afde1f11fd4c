//! Adversarial day traces: flash crowds, step loads, and correlated
//! switch failures during a ramp.
//!
//! The sinusoidal [`crate::diurnal`] profile is the paper's benign
//! regime. An *online* controller earns its keep on the traces that
//! punish epoch-batch re-optimization: a flash crowd whose edges make a
//! batch controller flap switches every epoch, a step load that parks
//! demand exactly on a candidate boundary, and switch failures that
//! arrive correlated with the ramp (operators know this one: the surge
//! is what kills the marginal line card). Everything here is pure data —
//! per-minute demand vectors and failure tuples — deterministic in the
//! RNG seed, so day replays stay bit-reproducible.

use eprons_sim::SimRng;

use crate::diurnal::{DiurnalProfile, MINUTES_PER_DAY};
use crate::replay::ReplayTrace;

/// A flash crowd riding on a diurnal base: demand ramps up linearly over
/// `ramp_minutes`, holds at `base + surge` for `hold_minutes`, and decays
/// linearly back over `decay_minutes`. Values clamp to the base profile's
/// `[floor, ceil]` band so a surge cannot demand more than the plant
/// serves at peak.
#[derive(Debug, Clone)]
pub struct FlashCrowd {
    /// The diurnal profile the crowd rides on.
    pub base: DiurnalProfile,
    /// Minute of day the ramp starts.
    pub start_minute: usize,
    /// Minutes from base level to full surge.
    pub ramp_minutes: usize,
    /// Minutes the surge holds at full amplitude.
    pub hold_minutes: usize,
    /// Minutes from full surge back to base level.
    pub decay_minutes: usize,
    /// Surge amplitude added to the base value at full strength.
    pub surge: f64,
}

impl FlashCrowd {
    /// The reference flash-crowd day used by the fig harness and CI: a
    /// mid-morning surge (minute 540 = 09:00) on the paper's search-load
    /// profile, ramping for 40 min, holding 80 min, decaying 60 min.
    pub fn reference() -> Self {
        FlashCrowd {
            base: DiurnalProfile::search_load(),
            start_minute: 540,
            ramp_minutes: 40,
            hold_minutes: 80,
            decay_minutes: 60,
            surge: 0.45,
        }
    }

    /// The surge envelope in `[0, 1]` at a minute of day: 0 outside the
    /// event, 1 during the hold, linear on the ramp and decay edges.
    fn envelope_at(&self, minute: f64) -> f64 {
        let m = minute - self.start_minute as f64;
        let ramp = self.ramp_minutes as f64;
        let hold = self.hold_minutes as f64;
        let decay = self.decay_minutes as f64;
        if m < 0.0 {
            0.0
        } else if m < ramp {
            if ramp > 0.0 {
                m / ramp
            } else {
                1.0
            }
        } else if m < ramp + hold {
            1.0
        } else if m < ramp + hold + decay {
            if decay > 0.0 {
                1.0 - (m - ramp - hold) / decay
            } else {
                0.0
            }
        } else {
            0.0
        }
    }

    /// The minute window `[start, end)` covering the ramp and the hold —
    /// the span during which correlated failures are most damaging.
    pub fn ramp_window(&self) -> (usize, usize) {
        (
            self.start_minute,
            (self.start_minute + self.ramp_minutes + self.hold_minutes).min(MINUTES_PER_DAY),
        )
    }

    /// The noiseless trace value at a minute of day.
    pub fn value_at(&self, minute: f64) -> f64 {
        (self.base.value_at(minute) + self.surge * self.envelope_at(minute))
            .clamp(self.base.floor, self.base.ceil)
    }
}

/// A step load: `low` until `step_minute`, `high` until `end_minute`,
/// then `low` again. The classic boundary-parking adversary — pick
/// `high` on a consolidation-candidate threshold and an epoch-batch
/// controller re-decides the same coin flip every epoch.
#[derive(Debug, Clone)]
pub struct StepLoad {
    /// Demand outside the step window.
    pub low: f64,
    /// Demand inside the step window.
    pub high: f64,
    /// Minute of day the step rises.
    pub step_minute: usize,
    /// Minute of day the step falls (clamped to the end of day).
    pub end_minute: usize,
    /// Uniform noise half-width applied when sampling a trace.
    pub noise: f64,
}

impl StepLoad {
    /// The noiseless trace value at a minute of day.
    pub fn value_at(&self, minute: f64) -> f64 {
        let m = minute;
        if m >= self.step_minute as f64 && m < self.end_minute as f64 {
            self.high
        } else {
            self.low
        }
    }
}

/// A day-long demand trace: the benign diurnal profile or one of the
/// adversarial generators. All variants sample one value per minute,
/// deterministic in the RNG seed, and the `Diurnal` variant reproduces
/// [`DiurnalProfile::sample_day`] bit for bit (the day loop's default
/// traces route through here).
#[derive(Debug, Clone)]
pub enum TraceScenario {
    /// The paper's sinusoidal diurnal profile (Fig. 14).
    Diurnal(DiurnalProfile),
    /// A flash crowd on top of a diurnal base.
    FlashCrowd(FlashCrowd),
    /// A step load.
    Step(StepLoad),
    /// A committed per-minute trace, replayed verbatim (noise-free: the
    /// recorded day already contains whatever noise production had).
    Replay(ReplayTrace),
}

impl TraceScenario {
    /// The noiseless trace value at a minute of day.
    pub fn value_at(&self, minute: f64) -> f64 {
        match self {
            TraceScenario::Diurnal(p) => p.value_at(minute),
            TraceScenario::FlashCrowd(f) => f.value_at(minute),
            TraceScenario::Step(s) => s.value_at(minute),
            TraceScenario::Replay(t) => t.value_at(minute),
        }
    }

    /// Samples a per-minute 24 h trace with the scenario's noise
    /// (deterministic in the RNG seed).
    pub fn sample_day(&self, rng: &mut SimRng) -> Vec<f64> {
        match self {
            TraceScenario::Diurnal(p) => p.sample_day(rng),
            TraceScenario::FlashCrowd(f) => (0..MINUTES_PER_DAY)
                .map(|m| {
                    let noise = rng.uniform_range(-f.base.noise, f.base.noise);
                    (f.value_at(m as f64) + noise).clamp(f.base.floor, f.base.ceil)
                })
                .collect(),
            TraceScenario::Step(s) => (0..MINUTES_PER_DAY)
                .map(|m| {
                    let noise = rng.uniform_range(-s.noise, s.noise);
                    (s.value_at(m as f64) + noise).clamp(0.0, 1.0)
                })
                .collect(),
            // Verbatim and RNG-free: the recorded day *is* the sample.
            TraceScenario::Replay(t) => t.minutes().to_vec(),
        }
    }
}

/// One correlated failure: a switch goes down at `fail_minute` and comes
/// back `downtime_minutes` later. Plain data — the caller converts these
/// into its failure-schedule representation (this crate stays below the
/// network layer).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorrelatedFailure {
    /// Minute of day the switch fails.
    pub fail_minute: f64,
    /// Node index of the failed switch.
    pub switch: usize,
    /// Minutes until the switch recovers.
    pub downtime_minutes: f64,
}

/// Samples `count` switch failures correlated with a demand ramp: fail
/// times are drawn uniformly inside `[window.0, window.1)` (the surge is
/// when marginal hardware dies), victims uniformly from `switches`
/// without replacement, downtimes uniformly in
/// `[downtime_minutes/2, downtime_minutes·3/2]`. Deterministic in the
/// RNG; returns fewer than `count` failures only when there are fewer
/// candidate switches.
pub fn correlated_failures_during_ramp(
    window: (usize, usize),
    switches: &[usize],
    count: usize,
    downtime_minutes: f64,
    rng: &mut SimRng,
) -> Vec<CorrelatedFailure> {
    assert!(window.1 > window.0, "ramp window must be non-empty");
    assert!(downtime_minutes > 0.0, "downtime must be positive");
    let mut pool: Vec<usize> = switches.to_vec();
    let mut out = Vec::with_capacity(count.min(pool.len()));
    for _ in 0..count {
        if pool.is_empty() {
            break;
        }
        let pick = (rng.uniform_range(0.0, pool.len() as f64) as usize).min(pool.len() - 1);
        let switch = pool.swap_remove(pick);
        let fail_minute = rng.uniform_range(window.0 as f64, window.1 as f64);
        let downtime = rng.uniform_range(downtime_minutes * 0.5, downtime_minutes * 1.5);
        out.push(CorrelatedFailure {
            fail_minute,
            switch,
            downtime_minutes: downtime,
        });
    }
    out.sort_by(|a, b| {
        a.fail_minute
            .partial_cmp(&b.fail_minute)
            .expect("finite minutes")
            .then(a.switch.cmp(&b.switch))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diurnal_variant_is_bit_identical_to_the_profile() {
        let p = DiurnalProfile::search_load();
        let mut r1 = SimRng::seed_from_u64(9);
        let mut r2 = SimRng::seed_from_u64(9);
        let direct = p.sample_day(&mut r1);
        let via_scenario = TraceScenario::Diurnal(p).sample_day(&mut r2);
        assert_eq!(direct, via_scenario);
    }

    #[test]
    fn flash_crowd_envelope_shape() {
        let f = FlashCrowd::reference();
        assert_eq!(f.envelope_at(f.start_minute as f64 - 1.0), 0.0);
        assert_eq!(f.envelope_at(f.start_minute as f64 + 20.0), 0.5);
        assert_eq!(f.envelope_at(f.start_minute as f64 + 60.0), 1.0);
        let after = (f.start_minute + f.ramp_minutes + f.hold_minutes + f.decay_minutes) as f64;
        assert_eq!(f.envelope_at(after + 1.0), 0.0);
        // Surge raises demand above the base everywhere inside the hold.
        let hold_m = (f.start_minute + f.ramp_minutes + 10) as f64;
        assert!(f.value_at(hold_m) > f.base.value_at(hold_m));
        // Clamped to the base ceiling.
        for m in 0..MINUTES_PER_DAY {
            assert!(f.value_at(m as f64) <= f.base.ceil + 1e-12);
        }
    }

    #[test]
    fn step_load_rises_and_falls_on_the_minute() {
        let s = StepLoad {
            low: 0.2,
            high: 0.8,
            step_minute: 600,
            end_minute: 700,
            noise: 0.0,
        };
        assert_eq!(s.value_at(599.0), 0.2);
        assert_eq!(s.value_at(600.0), 0.8);
        assert_eq!(s.value_at(699.0), 0.8);
        assert_eq!(s.value_at(700.0), 0.2);
    }

    #[test]
    fn sampled_traces_are_deterministic() {
        let sc = TraceScenario::FlashCrowd(FlashCrowd::reference());
        let a = sc.sample_day(&mut SimRng::seed_from_u64(3));
        let b = sc.sample_day(&mut SimRng::seed_from_u64(3));
        assert_eq!(a, b);
        assert_eq!(a.len(), MINUTES_PER_DAY);
    }

    #[test]
    fn correlated_failures_land_in_the_window() {
        let f = FlashCrowd::reference();
        let window = f.ramp_window();
        let switches: Vec<usize> = (16..20).collect();
        let mut rng = SimRng::seed_from_u64(11);
        let fails = correlated_failures_during_ramp(window, &switches, 3, 30.0, &mut rng);
        assert_eq!(fails.len(), 3);
        for cf in &fails {
            assert!(cf.fail_minute >= window.0 as f64 && cf.fail_minute < window.1 as f64);
            assert!(switches.contains(&cf.switch));
            assert!(cf.downtime_minutes >= 15.0 && cf.downtime_minutes <= 45.0);
        }
        // Distinct victims (sampled without replacement).
        let mut ids: Vec<usize> = fails.iter().map(|c| c.switch).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 3);
        // Capped by the pool.
        let mut rng2 = SimRng::seed_from_u64(12);
        let few = correlated_failures_during_ramp(window, &[16, 17], 5, 30.0, &mut rng2);
        assert_eq!(few.len(), 2);
    }
}
