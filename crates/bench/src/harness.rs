//! In-repo wall-clock benchmark harness.
//!
//! The workspace builds with zero external crates, so the old `criterion`
//! benches and the `perfbench` binary both run on this: warm up, run until
//! a time target (or an iteration floor) is hit, and report mean/min/max
//! per-iteration wall time. Results accumulate in a [`Runner`] and can be
//! exported as a [`Json`] object (the `BENCH_cluster.json` schema).

use std::time::Instant;

use eprons_obs::Json;

/// One benchmark's timing summary.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Benchmark name, `group/case` style.
    pub name: String,
    /// Timed iterations (after one warm-up iteration).
    pub iters: u64,
    /// Mean seconds per iteration.
    pub mean_s: f64,
    /// Fastest iteration, seconds.
    pub min_s: f64,
    /// Slowest iteration, seconds.
    pub max_s: f64,
}

impl Sample {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("iters".into(), Json::Num(self.iters as f64)),
            ("mean_s".into(), Json::Num(self.mean_s)),
            ("min_s".into(), Json::Num(self.min_s)),
            ("max_s".into(), Json::Num(self.max_s)),
        ];
        // A one-shot measurement has no spread: mean == min == max by
        // construction. Flag it so consumers (the CI smoke check) don't
        // treat the degenerate ordering as suspicious.
        if self.iters == 1 {
            fields.push(("single_sample".into(), Json::Bool(true)));
        }
        Json::Obj(fields)
    }
}

/// Runs benchmarks and collects their [`Sample`]s.
pub struct Runner {
    target_s: f64,
    min_iters: u64,
    max_iters: u64,
    /// All results in execution order.
    pub samples: Vec<Sample>,
}

impl Runner {
    /// A runner that times each benchmark for roughly `target_s` seconds,
    /// but always at least `min_iters` iterations.
    pub fn new(target_s: f64, min_iters: u64) -> Self {
        Runner {
            target_s,
            min_iters: min_iters.max(1),
            max_iters: 1_000_000,
            samples: Vec::new(),
        }
    }

    /// The default config honoring `--quick` / `EPRONS_QUICK` (tiny
    /// durations for CI smoke runs).
    pub fn from_env() -> Self {
        if crate::quick() {
            Runner::new(0.05, 2)
        } else {
            Runner::new(1.0, 5)
        }
    }

    /// Times `f`, prints one summary line, and records the sample. The
    /// closure's return value is passed through [`std::hint::black_box`]
    /// so the optimizer cannot elide the work.
    pub fn bench<T>(&mut self, name: &str, mut f: impl FnMut() -> T) -> &Sample {
        self.bench_with_setup(name, || (), |()| f())
    }

    /// [`Runner::bench`] timing `f` on the output of an untimed `setup`
    /// made afresh for each call, e.g. a cache state that `f` consumes.
    pub fn bench_with_setup<S, T>(
        &mut self,
        name: &str,
        mut setup: impl FnMut() -> S,
        mut f: impl FnMut(S) -> T,
    ) -> &Sample {
        // One untimed warm-up: fills caches (and, for the cluster suites,
        // the shared convolution prefix) exactly like a steady-state run.
        std::hint::black_box(f(setup()));
        let started = Instant::now();
        let mut iters = 0u64;
        let mut total = 0.0f64;
        let mut min = f64::INFINITY;
        let mut max = 0.0f64;
        while (iters < self.min_iters || started.elapsed().as_secs_f64() < self.target_s)
            && iters < self.max_iters
        {
            let input = setup();
            let t0 = Instant::now();
            std::hint::black_box(f(input));
            let dt = t0.elapsed().as_secs_f64();
            total += dt;
            min = min.min(dt);
            max = max.max(dt);
            iters += 1;
        }
        let sample = Sample {
            name: name.to_string(),
            iters,
            mean_s: total / iters as f64,
            min_s: min,
            max_s: max,
        };
        println!(
            "{:<44} {:>8} iters  mean {:>12}  min {:>12}  max {:>12}",
            sample.name,
            sample.iters,
            format_secs(sample.mean_s),
            format_secs(sample.min_s),
            format_secs(sample.max_s),
        );
        self.samples.push(sample);
        self.samples.last().expect("just pushed")
    }

    /// The mean of the most recent sample named `name`.
    pub fn mean_of(&self, name: &str) -> Option<f64> {
        self.samples
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map(|s| s.mean_s)
    }

    /// The fastest iteration of the most recent sample named `name` —
    /// the statistic ratio gates compare (means absorb scheduler noise,
    /// minima track the work itself).
    pub fn min_of(&self, name: &str) -> Option<f64> {
        self.samples
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map(|s| s.min_s)
    }

    /// All samples as a JSON array (the `suites` field of
    /// `BENCH_cluster.json`).
    pub fn to_json(&self) -> Json {
        Json::Arr(self.samples.iter().map(Sample::to_json).collect())
    }
}

/// Human-friendly seconds (`1.23 s`, `45.6 ms`, `789 µs`, `12 ns`).
pub fn format_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1.0e-3 {
        format!("{:.3} ms", s * 1.0e3)
    } else if s >= 1.0e-6 {
        format!("{:.3} µs", s * 1.0e6)
    } else {
        format!("{:.1} ns", s * 1.0e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_records_positive_times() {
        let mut r = Runner::new(0.0, 3);
        r.bench("noop", || 1 + 1);
        let s = &r.samples[0];
        assert_eq!(s.iters, 3);
        assert!(s.min_s <= s.mean_s && s.mean_s <= s.max_s);
    }

    #[test]
    fn setup_runs_untimed_before_every_call() {
        let mut r = Runner::new(0.0, 3);
        let mut made = 0;
        r.bench_with_setup(
            "setup",
            || {
                made += 1;
                made
            },
            |n| n,
        );
        // The warm-up call and each timed call get their own setup.
        assert_eq!(made, 4);
        assert_eq!(r.samples[0].iters, 3);
    }

    #[test]
    fn json_round_trips() {
        let mut r = Runner::new(0.0, 2);
        r.bench("a", || ());
        r.bench("b", || ());
        let j = r.to_json();
        let arr = j.as_arr().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].get("name").unwrap().as_str(), Some("a"));
        assert!(arr[1].get("mean_s").unwrap().as_f64().is_some());
    }

    #[test]
    fn single_sample_flag_marks_one_shot_runs() {
        let mut r = Runner::new(0.0, 1);
        r.bench("one-shot", || ());
        let j = r.to_json();
        let s = &j.as_arr().unwrap()[0];
        assert_eq!(s.get("single_sample").unwrap().as_bool(), Some(true));

        let mut r = Runner::new(0.0, 2);
        r.bench("multi", || ());
        let j = r.to_json();
        assert!(j.as_arr().unwrap()[0].get("single_sample").is_none());
    }

    #[test]
    fn format_secs_units() {
        assert!(format_secs(2.0).ends_with(" s"));
        assert!(format_secs(2.0e-3).ends_with(" ms"));
        assert!(format_secs(2.0e-6).ends_with(" µs"));
        assert!(format_secs(2.0e-9).ends_with(" ns"));
    }
}
