//! Replay day: day-scoped incremental evaluation vs. per-epoch rebuild
//! on a committed production-shaped trace.
//!
//! The day replays `data/replay_qps.trace` — a bursty high-QPS search
//! day with long plateaus and three demand bursts — plus the matching
//! background-batch trace through the online controller on a k=16
//! fat-tree, with a core switch dying inside the midday burst (minute
//! 730, recovering at 770). Both runs use day-scope semantics (constant
//! master seed, demand snapped to the warm-start grid), so they evaluate
//! bit-identical epoch specs; they differ only in *how* each epoch's
//! context is produced:
//!
//! * **rebuild** — `DayScopeConfig { incremental: false }`: every epoch
//!   rebuilds its `ScenarioContext` from scratch (the baseline);
//! * **incremental** — `DayScopeConfig { incremental: true }`: epochs
//!   draw contexts from the day's [`eprons_core::DayContext`] LRU
//!   (plan memos, result memos and stage-3 reuse lists surviving across
//!   epochs with them).
//!
//! Asserted contract (gated in CI via the committed `BENCH_replay.json`):
//!
//! * the incremental day's total energy is **bit-identical** to the
//!   rebuild day's (`f64::to_bits`, per-epoch and day-total) — caching
//!   must be invisible in results;
//! * full mode only: incremental wall-clock is >= 4x faster than
//!   per-epoch rebuild.
//!
//! The incremental timeline lands in `results/replay_day.csv`
//! (bit-identical across reruns), and the metrics land in
//! `BENCH_replay.json` for the CI regression gate.

use std::time::Instant;

use eprons_bench::harness::{format_secs, Runner, Sample};
use eprons_bench::{banner, finish, quick, BASE_SEED};
use eprons_core::controller::{day_total_energy_j, save_day_csv, DayConfig, DayRecord};
use eprons_core::optimizer::{aggregation_candidates, scale_factor_candidates};
use eprons_core::report::Table;
use eprons_core::{
    simulate_day_with_failures, ClusterConfig, DayScopeConfig, DayStrategy, FailureEvent,
    FailureEventKind, FailureSchedule, OnlineConfig, ReplayTrace, TraceScenario,
};
use eprons_obs::Json;
use eprons_topo::FatTree;

/// The `--k <arity>` (or `--k=<arity>`) argument; defaults to 16 (the
/// headline 1024-server replay).
fn k_arg() -> usize {
    let args: Vec<String> = std::env::args().collect();
    let parse = |s: &str| {
        s.parse::<usize>()
            .ok()
            .filter(|k| *k >= 4 && k % 2 == 0)
            .unwrap_or_else(|| {
                eprintln!("error: --k requires an even fat-tree arity >= 4, got {s:?}");
                std::process::exit(2);
            })
    };
    for (i, a) in args.iter().enumerate() {
        if a == "--k" {
            let Some(v) = args.get(i + 1) else {
                eprintln!("error: --k requires an arity");
                std::process::exit(2);
            };
            return parse(v);
        }
        if let Some(v) = a.strip_prefix("--k=") {
            return parse(v);
        }
    }
    16
}

/// The `--out <path>` (or `--out=<path>`) argument; defaults to the
/// committed `BENCH_replay.json` (CI quick runs point elsewhere so they
/// never clobber the full-run artifact the gate reads).
fn out_arg() -> std::path::PathBuf {
    let args: Vec<String> = std::env::args().collect();
    for (i, a) in args.iter().enumerate() {
        if a == "--out" {
            match args.get(i + 1) {
                Some(p) => return p.into(),
                None => {
                    eprintln!("error: --out requires a path");
                    std::process::exit(2);
                }
            }
        }
        if let Some(p) = a.strip_prefix("--out=") {
            return p.into();
        }
    }
    "BENCH_replay.json".into()
}

/// Times one full day simulation and records it as a one-shot sample.
/// A day is far too expensive to iterate, so the harness's warm-up +
/// repeat loop is skipped; `single_sample` marks the degenerate spread.
fn time_day(
    r: &mut Runner,
    name: &str,
    cfg: &ClusterConfig,
    strategy: &DayStrategy,
    day: &DayConfig,
    schedule: &FailureSchedule,
) -> (Vec<DayRecord>, f64) {
    let t0 = Instant::now();
    let records = simulate_day_with_failures(cfg, strategy, day, schedule);
    let dt = t0.elapsed().as_secs_f64();
    println!("{name:<44} {:>8} iters  wall {:>12}", 1, format_secs(dt));
    r.samples.push(Sample {
        name: name.to_string(),
        iters: 1,
        mean_s: dt,
        min_s: dt,
        max_s: dt,
    });
    (records, dt)
}

fn counter(name: &str) -> u64 {
    eprons_obs::registry().counter(name).get()
}

fn main() {
    banner(
        "Replay day",
        "incremental day-scoped evaluation vs per-epoch rebuild on a committed trace",
    );
    // Telemetry stays on even without --journal: the artifact reports
    // the day-cache counters, which only tick while obs is enabled. The
    // overhead applies to both timed runs equally.
    eprons_obs::set_enabled(true);

    let qps = ReplayTrace::load(std::path::Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/data/replay_qps.trace"
    )))
    .expect("load replay_qps.trace");
    let bg = ReplayTrace::load(std::path::Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/data/replay_bg.trace"
    )))
    .expect("load replay_bg.trace");

    let mut cfg = ClusterConfig {
        fat_tree_k: k_arg(),
        ..ClusterConfig::default()
    };
    // Same egress cap as failure_day: one flow per peer means per-flow
    // demand must shrink as the host count grows, or the K-scaled
    // aggregate oversubscribes the 1 Gbps edge uplinks at k >= 8.
    let n = cfg.num_servers() as f64;
    cfg.query_flow_mbps = cfg.query_flow_mbps.min(300.0 / (n - 1.0));
    println!(
        "fat-tree k = {} ({} servers)",
        cfg.fat_tree_k,
        cfg.num_servers()
    );

    // A core switch dies inside the midday burst and recovers 40 minutes
    // later; both runs replay the identical schedule.
    let ft = FatTree::new(cfg.fat_tree_k, cfg.link_capacity_mbps);
    let core = ft.core(0, 0).0;
    let schedule = FailureSchedule::scripted(vec![
        FailureEvent {
            minute: 730.0,
            switch: core,
            kind: FailureEventKind::Fail,
        },
        FailureEvent {
            minute: 770.0,
            switch: core,
            kind: FailureEventKind::Recover,
        },
    ]);
    println!("injecting: switch {core} (core 0,0) fails at minute 730, recovers at 770\n");

    let large_k = cfg.fat_tree_k >= 12;
    let rebuild_day = DayConfig {
        // Full mode reconfigures on the paper's 10-minute optimization
        // period (§IV-B) — 144 epochs, where a plateau-heavy production
        // day revisits the same few operating points over and over and
        // per-epoch rebuild is almost entirely redundant work. Quick
        // mode coarsens to 6 epochs for the CI smoke pass.
        epoch_minutes: if quick() { 240 } else { 10 },
        sim_seconds: match (quick(), large_k) {
            (true, _) => 0.5,
            (false, true) => 1.0,
            (false, false) => 2.0,
        },
        peak_utilization: 0.5,
        seed: BASE_SEED,
        warm_start: true,
        search_trace: TraceScenario::Replay(qps),
        background_trace: TraceScenario::Replay(bg),
        online: Some(OnlineConfig::enabled()),
        day_scope: Some(DayScopeConfig { incremental: false }),
    };
    let incremental_day = DayConfig {
        day_scope: Some(DayScopeConfig::default()),
        ..rebuild_day.clone()
    };
    let strategy = DayStrategy::Eprons {
        candidates: if large_k {
            scale_factor_candidates(2)
        } else {
            aggregation_candidates()
        },
    };

    // The incremental day runs first: any process warm-up benefit (page
    // tables, allocator arenas) then accrues to the rebuild baseline,
    // making the reported speedup conservative.
    let mut r = Runner::new(0.0, 1);
    let dc_hits0 = counter("core.daycache.hits");
    let dc_misses0 = counter("core.daycache.misses");
    let dc_evict0 = counter("core.daycache.evictions");
    let ec_hits0 = counter("core.evalcache.hits");
    let ec_misses0 = counter("core.evalcache.misses");
    let sv_hits0 = counter("core.serveval.hits");
    let sv_misses0 = counter("core.serveval.misses");
    let (incremental, incremental_s) = time_day(
        &mut r,
        "day_replay/incremental",
        &cfg,
        &strategy,
        &incremental_day,
        &schedule,
    );
    let dc_hits = counter("core.daycache.hits") - dc_hits0;
    let dc_misses = counter("core.daycache.misses") - dc_misses0;
    let dc_evictions = counter("core.daycache.evictions") - dc_evict0;
    let ec_hits = counter("core.evalcache.hits") - ec_hits0;
    let ec_misses = counter("core.evalcache.misses") - ec_misses0;
    let sv_hits = counter("core.serveval.hits") - sv_hits0;
    let sv_misses = counter("core.serveval.misses") - sv_misses0;
    let (rebuild, rebuild_s) = time_day(
        &mut r,
        "day_replay/rebuild",
        &cfg,
        &strategy,
        &rebuild_day,
        &schedule,
    );
    assert_eq!(rebuild.len(), incremental.len());

    let mut t = Table::new(
        "rebuild vs incremental on the replay day",
        &["minute", "load", "bg", "rebuild-W", "incr-W", "sw", "ok"],
    );
    for (b, i) in rebuild.iter().zip(&incremental) {
        t.row(&[
            format!("{:.0}", i.minute),
            format!("{:.2}", i.search_load),
            format!("{:.2}", i.background_util),
            format!("{:.0}", b.breakdown.total_w()),
            format!("{:.0}", i.breakdown.total_w()),
            format!("{}", i.active_switches),
            format!("{}", i.feasible),
        ]);
    }
    println!("{t}");

    // --- Bit identity: caching must be invisible in results. ---
    let rebuild_j = day_total_energy_j(&rebuild, &rebuild_day);
    let incremental_j = day_total_energy_j(&incremental, &incremental_day);
    let mut bit_identical = rebuild_j.to_bits() == incremental_j.to_bits();
    for (e, (b, i)) in rebuild.iter().zip(&incremental).enumerate() {
        let same = b.breakdown.total_w().to_bits() == i.breakdown.total_w().to_bits()
            && b.active_switches == i.active_switches
            && b.feasible == i.feasible;
        if !same {
            eprintln!(
                "epoch {e} (minute {:.0}): rebuild {} W / {} sw, incremental {} W / {} sw",
                b.minute,
                b.breakdown.total_w(),
                b.active_switches,
                i.breakdown.total_w(),
                i.active_switches,
            );
            bit_identical = false;
        }
    }
    assert!(
        bit_identical,
        "incremental day diverged from the rebuild baseline \
         (rebuild {rebuild_j} J vs incremental {incremental_j} J)"
    );

    let speedup = rebuild_s / incremental_s;
    let sv_rate = sv_hits as f64 / (sv_hits + sv_misses).max(1) as f64;
    println!(
        "wall:     rebuild {}, incremental {} ({speedup:.2}x)",
        format_secs(rebuild_s),
        format_secs(incremental_s)
    );
    println!("energy:   {rebuild_j:.1} J, bit-identical across modes");
    println!(
        "serveval: {sv_hits} hits / {sv_misses} misses ({:.1}% hit rate)",
        sv_rate * 100.0
    );
    println!("daycache: {dc_hits} hits / {dc_misses} misses / {dc_evictions} evictions");
    println!("evalcache: {ec_hits} hits / {ec_misses} misses");

    const SPEEDUP_TARGET: f64 = 4.0;
    let met = bit_identical && speedup >= SPEEDUP_TARGET;

    std::fs::create_dir_all("results").expect("create results/");
    let csv = std::path::Path::new("results/replay_day.csv");
    save_day_csv(&incremental, csv).expect("write timeline CSV");
    println!("timeline written to {}", csv.display());

    // Machine-readable artifact for the CI gate (committed from a full
    // run as BENCH_replay.json).
    let report = Json::Obj(vec![
        ("schema".into(), Json::Str("eprons.bench.replay/v1".into())),
        ("quick".into(), Json::Bool(quick())),
        ("seed".into(), Json::Num(BASE_SEED as f64)),
        ("k".into(), Json::Num(cfg.fat_tree_k as f64)),
        (
            "epoch_minutes".into(),
            Json::Num(rebuild_day.epoch_minutes as f64),
        ),
        ("suites".into(), r.to_json()),
        (
            "speedup".into(),
            Json::Obj(vec![
                ("incremental_over_rebuild".into(), Json::Num(speedup)),
                ("target".into(), Json::Num(SPEEDUP_TARGET)),
                ("met".into(), Json::Bool(met)),
            ]),
        ),
        (
            "serveval".into(),
            Json::Obj(vec![
                ("hits".into(), Json::Num(sv_hits as f64)),
                ("misses".into(), Json::Num(sv_misses as f64)),
                ("hit_rate".into(), Json::Num(sv_rate)),
            ]),
        ),
        (
            "daycache".into(),
            Json::Obj(vec![
                ("hits".into(), Json::Num(dc_hits as f64)),
                ("misses".into(), Json::Num(dc_misses as f64)),
                ("evictions".into(), Json::Num(dc_evictions as f64)),
            ]),
        ),
        (
            "evalcache".into(),
            Json::Obj(vec![
                ("hits".into(), Json::Num(ec_hits as f64)),
                ("misses".into(), Json::Num(ec_misses as f64)),
            ]),
        ),
        ("bit_identical".into(), Json::Bool(bit_identical)),
        ("energy_j".into(), Json::Num(rebuild_j)),
    ]);
    let out = out_arg();
    std::fs::write(&out, format!("{report}\n")).unwrap_or_else(|e| {
        eprintln!("failed to write {}: {e}", out.display());
        std::process::exit(1);
    });
    println!("metrics written to {}", out.display());
    finish();

    // The wall-clock contract is asserted last so a miss still leaves
    // the artifact, timeline, and journal on disk for diagnosis.
    if quick() {
        println!("\n(quick mode: {SPEEDUP_TARGET}x wall-clock target reported, not asserted)");
    } else {
        assert!(
            speedup >= SPEEDUP_TARGET,
            "incremental speedup {speedup:.2}x below the {SPEEDUP_TARGET}x target"
        );
        println!("\ncontract holds: bit-identical energy, >={SPEEDUP_TARGET}x wall-clock");
    }
}
