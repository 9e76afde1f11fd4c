//! RAII scoped timers recording wall-clock durations into histograms.

use crate::metrics::{Registry, DURATION_EDGES_S};
use std::time::Instant;

/// Measures the lifetime of a scope and records it (in seconds) into a
/// duration histogram on drop.
///
/// ```
/// {
///     let _t = eprons_obs::Timer::scoped("lp.solve_s");
///     // ... timed work ...
/// } // recorded here (no-op while telemetry is disabled)
/// ```
#[must_use = "a timer records on drop; binding it to `_` drops immediately"]
pub struct Timer {
    armed: Option<(crate::metrics::Histogram, Instant)>,
}

impl Timer {
    /// Times into the global registry; inert (a single atomic load, no
    /// clock read) while telemetry is disabled.
    pub fn scoped(name: &str) -> Timer {
        if crate::enabled() {
            Timer::scoped_in(crate::registry(), name)
        } else {
            Timer { armed: None }
        }
    }

    /// Times into an explicit registry, unconditionally.
    fn scoped_in(registry: &Registry, name: &str) -> Timer {
        Timer {
            armed: Some((registry.histogram(name, DURATION_EDGES_S), Instant::now())),
        }
    }
}

impl Drop for Timer {
    fn drop(&mut self) {
        if let Some((hist, start)) = self.armed.take() {
            hist.observe(start.elapsed().as_secs_f64());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_timers_record_independently_and_inner_is_shorter() {
        let reg = Registry::new();
        {
            let _outer = Timer::scoped_in(&reg, "outer_s");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = Timer::scoped_in(&reg, "inner_s");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let snap = reg.snapshot();
        let get = |name: &str| {
            snap.histograms
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, h)| h.clone())
                .unwrap_or_else(|| panic!("{name} missing"))
        };
        let outer = get("outer_s");
        let inner = get("inner_s");
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        assert!(
            inner.sum < outer.sum,
            "inner scope ({}s) must be shorter than outer ({}s)",
            inner.sum,
            outer.sum
        );
    }

    #[test]
    fn same_name_accumulates() {
        let reg = Registry::new();
        for _ in 0..3 {
            let _t = Timer::scoped_in(&reg, "loop_s");
        }
        assert_eq!(
            reg.histogram("loop_s", DURATION_EDGES_S).snapshot().count,
            3
        );
    }

    #[test]
    fn disabled_global_timer_is_inert() {
        // Not using the global enable flag here (other tests own it):
        // a Timer built with armed=None must not record or panic.
        let t = Timer { armed: None };
        drop(t);
    }
}
