//! Replay traces: committed per-minute production demand profiles.
//!
//! The diurnal and adversarial scenarios *generate* their day; a replay
//! trace **is** the day — 1440 per-minute values captured once and
//! committed as an artifact, so a production-shaped day (plateaus,
//! bursts, a high-QPS spine) can be fed through the controller
//! bit-reproducibly with no generator or noise in the loop. The text
//! format is one value per line, `#` comments allowed.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use crate::diurnal::MINUTES_PER_DAY;

/// A committed per-minute day trace (1440 values in `[0, 1]`).
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayTrace {
    minutes: Vec<f64>,
}

impl ReplayTrace {
    /// Wraps a per-minute vector. Panics unless it holds exactly
    /// [`MINUTES_PER_DAY`] finite values in `[0, 1]` — a replay trace is
    /// a day, not a window.
    pub fn new(minutes: Vec<f64>) -> ReplayTrace {
        assert_eq!(
            minutes.len(),
            MINUTES_PER_DAY,
            "a replay trace holds one value per minute of day"
        );
        assert!(
            minutes
                .iter()
                .all(|v| v.is_finite() && (0.0..=1.0).contains(v)),
            "replay trace values must be finite fractions in [0, 1]"
        );
        ReplayTrace { minutes }
    }

    /// A constant-demand day (`level` every minute) — the degenerate
    /// trace tests use to pin cache-counter arithmetic.
    pub fn constant(level: f64) -> ReplayTrace {
        ReplayTrace::new(vec![level; MINUTES_PER_DAY])
    }

    /// The trace value at a minute of day (clamped to the last minute).
    pub fn value_at(&self, minute: f64) -> f64 {
        let m = (minute.max(0.0) as usize).min(MINUTES_PER_DAY - 1);
        self.minutes[m]
    }

    /// The full per-minute day, verbatim.
    pub fn minutes(&self) -> &[f64] {
        &self.minutes
    }

    /// Writes the trace (one value per line).
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "# eprons replay trace: one per-minute value per line")?;
        for v in &self.minutes {
            writeln!(w, "{v:.6}")?;
        }
        w.flush()
    }

    /// Reads a trace written by [`ReplayTrace::save`].
    ///
    /// # Errors
    /// I/O failures, malformed values, out-of-range values, or a line
    /// count other than [`MINUTES_PER_DAY`].
    pub fn load(path: &Path) -> std::io::Result<ReplayTrace> {
        let r = BufReader::new(std::fs::File::open(path)?);
        let mut minutes = Vec::with_capacity(MINUTES_PER_DAY);
        let bad = |lineno: usize, msg: String| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("line {}: {msg}", lineno + 1),
            )
        };
        for (lineno, line) in r.lines().enumerate() {
            let line = line?;
            let t = line.trim();
            if t.is_empty() || t.starts_with('#') {
                continue;
            }
            let v: f64 = t.parse().map_err(|e| bad(lineno, format!("{e}")))?;
            if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                return Err(bad(lineno, format!("value {v} outside [0, 1]")));
            }
            minutes.push(v);
        }
        if minutes.len() != MINUTES_PER_DAY {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "expected {MINUTES_PER_DAY} per-minute values, got {}",
                    minutes.len()
                ),
            ));
        }
        Ok(ReplayTrace { minutes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("eprons-replay-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn round_trips_through_disk() {
        let minutes: Vec<f64> = (0..MINUTES_PER_DAY)
            .map(|m| 0.25 + 0.5 * (m as f64 / MINUTES_PER_DAY as f64))
            .collect();
        let t = ReplayTrace::new(minutes);
        let path = tmp("roundtrip.trace");
        t.save(&path).unwrap();
        let loaded = ReplayTrace::load(&path).unwrap();
        // 6 decimal places of the save format: equal to within 5e-7.
        assert_eq!(loaded.minutes().len(), MINUTES_PER_DAY);
        for (a, b) in t.minutes().iter().zip(loaded.minutes()) {
            assert!((a - b).abs() < 5e-7);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn value_at_clamps_and_indexes_by_minute() {
        let mut minutes = vec![0.5; MINUTES_PER_DAY];
        minutes[0] = 0.1;
        minutes[MINUTES_PER_DAY - 1] = 0.9;
        let t = ReplayTrace::new(minutes);
        assert_eq!(t.value_at(-5.0), 0.1);
        assert_eq!(t.value_at(0.4), 0.1);
        assert_eq!(t.value_at(720.0), 0.5);
        assert_eq!(t.value_at(1e9), 0.9);
    }

    #[test]
    fn load_rejects_bad_traces() {
        let path = tmp("bad.trace");
        std::fs::write(&path, "0.5\n0.5\n").unwrap();
        assert!(ReplayTrace::load(&path).is_err(), "wrong length");
        let long = "1.5\n".repeat(MINUTES_PER_DAY);
        std::fs::write(&path, long).unwrap();
        assert!(ReplayTrace::load(&path).is_err(), "out of range");
        std::fs::remove_file(&path).ok();
    }
}
