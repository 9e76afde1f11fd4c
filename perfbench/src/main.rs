//! One measured process of the controller-day benchmark.
//!
//! ```text
//! eprons-perfbench setup <workload> <seed>    time one ScenarioContext::build
//! eprons-perfbench day <workload> <seed>      run the day with telemetry off
//! eprons-perfbench traced <workload> <seed>   run the day with telemetry on
//! ```
//!
//! Each mode prints one JSON object. Every measurement runs in a fresh
//! process so that no process-wide state (the telemetry registry and
//! journal, the server-eval memo, the VP equivalent-distribution cache,
//! the cache toggles) carries from one measurement into the next.

use std::time::Instant;

use eprons_bench::obsctl::{audit, flame_leaf_coverage};
use eprons_core::controller::{day_churn_count, day_total_energy_j, day_transition_energy_j};
use eprons_core::scenario::ScenarioContext;
use eprons_core::{simulate_day_with_failures, thread_budget, DayRecord};
use eprons_obs::Json;
use eprons_perfbench::layers::{median, per_layer, Direct};
use eprons_perfbench::workload::{Day, Workload};
use eprons_topo::FatTree;

/// Least share of the day's wall time the traced leaf spans must cover.
const MIN_SPAN_COVERAGE: f64 = 0.95;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [mode, workload, seed] = args.as_slice() else {
        fail("usage: eprons-perfbench (setup|day|traced) <workload> <seed>");
    };
    let Some(workload) = Workload::parse(workload) else {
        fail(&format!("unknown workload {workload:?}"));
    };
    let Ok(seed) = seed.parse::<u64>() else {
        fail(&format!(
            "seed must be a non-negative integer, got {seed:?}"
        ));
    };
    let day = workload.day(seed);
    let out = match mode.as_str() {
        "setup" => setup(&day),
        "day" => run_day(&day, false),
        "traced" => run_day(&day, true),
        _ => fail(&format!("unknown mode {mode:?}")),
    };
    println!("{out}");
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Wall time of one context build at the day's first operating point.
fn setup(day: &Day) -> Json {
    let spec = day.first_epoch_spec();
    let t0 = Instant::now();
    let ctx = ScenarioContext::build(&day.cfg, &spec);
    let setup_s = t0.elapsed().as_secs_f64();
    std::hint::black_box(&ctx);
    obj(vec![("setup_s", Json::Num(setup_s))])
}

fn run_day(day: &Day, traced: bool) -> Json {
    let fattree_build_s = traced.then(|| {
        let samples: Vec<f64> = (0..5)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(FatTree::new(day.cfg.fat_tree_k, day.cfg.link_capacity_mbps));
                t0.elapsed().as_secs_f64()
            })
            .collect();
        median(&samples)
    });
    eprons_obs::set_enabled(traced);
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let records = simulate_day_with_failures(&day.cfg, &day.strategy, &day.day, &day.schedule);
    let day_s = t0.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;
    eprons_obs::set_enabled(false);

    let mut fields = outcome(day, &records);
    fields.push(("day_s", Json::Num(day_s)));
    fields.push(("peak_rss_mb", Json::Num(peak_rss_mb())));
    if let Some(fattree_build_s) = fattree_build_s {
        let entries = eprons_obs::journal().snapshot();
        let journal_dropped = eprons_obs::journal().dropped();
        let span_coverage = flame_leaf_coverage(&entries).unwrap_or(0.0);
        let mut problems: Vec<String> = audit(&entries, 1e-9).violations;
        if journal_dropped > 0 {
            problems.push(format!("journal dropped {journal_dropped} event(s)"));
        }
        if span_coverage < MIN_SPAN_COVERAGE {
            problems.push(format!(
                "leaf spans cover {span_coverage:.3} of the day, below {MIN_SPAN_COVERAGE}"
            ));
        }
        let direct = Direct {
            fattree_build_s,
            threads: thread_budget(),
            cpu_per_wall: cpu_s / day_s,
            span_coverage,
            journal_dropped,
        };
        let layers = per_layer(
            &entries,
            &eprons_obs::registry().snapshot(),
            &records,
            &direct,
        );
        let layer_fields: Vec<(String, Json)> = layers
            .into_iter()
            .map(|m| {
                let v = obj(vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.into())),
                ]);
                (m.name, v)
            })
            .collect();
        fields.push(("layers", Json::Obj(layer_fields)));
        fields.push((
            "problems",
            Json::Arr(problems.into_iter().map(Json::Str).collect()),
        ));
    }
    obj(fields)
}

/// The day's results: what a user of the controller sees, plus a
/// per-epoch fingerprint for bit-identity checks across processes.
fn outcome(day: &Day, records: &[DayRecord]) -> Vec<(&'static str, Json)> {
    let energy_j = day_total_energy_j(records, &day.day)
        + day_transition_energy_j(records, &day.cfg.failure.transition);
    let deferred: f64 = records.iter().map(|r| r.deferred_mbps_min).sum();
    let drained: f64 = records.iter().map(|r| r.drained_mbps_min).sum();
    // Everything still queued at day end is flushed as dropped, so the
    // queue's books close as enqueued = drained + dropped.
    let dropped = (deferred - drained).max(0.0);
    let mbps_min_per_util = day.cfg.link_capacity_mbps * day.day.epoch_minutes as f64;
    let admitted: f64 = records
        .iter()
        .map(|r| r.background_util * mbps_min_per_util)
        .sum();
    let misses = records.iter().filter(|r| !r.feasible).count();
    vec![
        ("epochs", Json::Num(records.len() as f64)),
        ("sla_miss_epochs", Json::Num(misses as f64)),
        ("energy_j", Json::Num(energy_j)),
        ("churn", Json::Num(day_churn_count(records) as f64)),
        ("deferred_mbps_min", Json::Num(deferred)),
        ("drained_mbps_min", Json::Num(drained)),
        ("dropped_mbps_min", Json::Num(dropped)),
        ("admitted_mbps_min", Json::Num(admitted)),
        (
            "fingerprint",
            Json::Arr(
                records
                    .iter()
                    .map(|r| Json::Str(format!("{:016x}", epoch_fingerprint(r))))
                    .collect(),
            ),
        ),
    ]
}

/// FNV-1a over an epoch's total power bits, active switch ids and SLA
/// verdict.
fn epoch_fingerprint(r: &DayRecord) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(r.breakdown.total_w().to_bits());
    eat(r.active_switch_ids.len() as u64);
    for &id in &r.active_switch_ids {
        eat(id as u64);
    }
    eat(u64::from(r.feasible));
    h
}

/// User plus system CPU seconds of this process (all threads), from
/// `/proc/self/stat` in clock ticks of 1/100 s.
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<f64>().expect("numeric tick count");
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set (`VmHWM`) of this process, in megabytes.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1000.0
}
