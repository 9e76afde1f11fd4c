//! perfbench — the tracked performance benchmark for the sharded cluster
//! simulator (writes `BENCH_cluster.json` at the repo root).
//!
//! Three layers are timed, bottom up:
//!
//! * `convolve/*` — the FFT convolution kernel, with and without the
//!   thread-local plan cache (the plan-construction overhead the cache
//!   removes from every equivalent-request convolution);
//! * `vp_decision/*` — one VP-engine decision over a 16-deep queue, cold
//!   (a fresh `VpLadder` each iteration) and warm (a fresh engine on a
//!   ladder an earlier engine grew);
//! * `run_cluster` / `optimize_total_power/*` — the end-to-end simulator
//!   and the 4-candidate aggregation-ladder optimizer, the last in three
//!   variants: `serial_cold` (one thread, fresh context per sweep, the
//!   NetworkPlan memo off, exhaustive sweep — the pre-warm-start shape),
//!   `serial_warm` (one thread, shared context, plan memo on, the
//!   bound-pruned sweep with the previous winner as ordering hint — the
//!   controller's steady-state epoch shape; the report's `vp_ladder`
//!   object gives its context's ladder levels, spectrum bytes and
//!   conditioned-slot bytes), and
//!   `parallel_warm` (the warm shape under a thread budget equal to host
//!   parallelism; skipped with a recorded reason on a single-core host,
//!   where it could only re-measure `serial_warm` plus thread overhead);
//! * `ladder_warm_start/*` — the consolidation MILP's LP relaxation
//!   chained across a descending K ladder: the cold chain re-solves
//!   every rung from scratch (phase 1 + phase 2 per rung), the warm
//!   chain threads each rung's optimal `Basis` into the next via
//!   `Standardized::solve_warm` (descending K only shrinks demands, so
//!   the previous basis stays primal-feasible and phase 1 is skipped),
//!   with the per-chain simplex pivot totals recorded alongside the
//!   wall-clock;
//! * `scenario_reuse/*` — the same 4-candidate sweep with a fresh
//!   `run_cluster` per candidate and cold caches (what every sweep paid
//!   before the staged pipeline) vs one shared `ScenarioContext`
//!   evaluated per candidate;
//! * `scale_ladder/*` — asymptotic curves over fat-tree size: topology
//!   `build` and greedy `consolidate` up the full k=4..24 ladder, path
//!   `arena` materialization up to k=16, the end-to-end `optimize` epoch
//!   up the whole ladder (k>=12 rides the pod-decomposed consolidation
//!   strategy via the `Auto` default — the hierarchical solver is what
//!   makes the k=20/24 rungs finish at all), plus a forced
//!   dense-vs-sparse simplex shoot-out on the k=8 consolidation
//!   relaxation (`lp_dense`/`lp_sparse`) whose ratio is
//!   `speedup.scale_ladder.sparse_over_dense_k8`;
//! * `pod_decomp/*` — the hierarchical consolidation head-to-head: one
//!   full `optimize_total_power` epoch with the strategy pinned to
//!   `Monolithic` vs pinned to `PodDecomposed`, same config otherwise
//!   (k=16 full, k=8 `--quick`). `speedup.pod_decomp` divides the two
//!   and records the equivalence fields (total-power relative diff and
//!   feasibility-verdict agreement) the CI smoke gates on.
//!
//! The headline `speedup.optimize_total_power.combined` divides the
//! serial-cold mean by the parallel-warm mean (or the serial-warm mean
//! when the parallel suite is skipped): plan-memo reuse and bound
//! pruning are measurable on any machine, thread scaling contributes on
//! multi-core hosts. Both thread budgets land in the report's `threads`
//! object. `speedup.scenario_reuse.shared_over_cold` isolates the
//! context-reuse win itself (both variants walk candidates serially, so
//! thread count cannot flatter it).
//!
//! Flags: `--quick` (tiny durations for the CI smoke run), `--out <path>`
//! (default `<repo root>/BENCH_cluster.json`), `--journal <path>` (dump
//! the telemetry journal and summary tables, like the fig binaries).

use eprons_bench::harness::Runner;
use eprons_bench::{banner, finish, quick, BASE_SEED};
use eprons_core::scenario::{ScenarioContext, ScenarioSpec};
use eprons_core::{
    optimize_in_context_pruned, optimize_total_power, run_cluster, set_thread_budget,
    ClusterConfig, ClusterRun, ConsolidateStrategy, ConsolidationSpec, ServerScheme,
};
use eprons_lp::LpEngine;
use eprons_lp::Standardized;
use eprons_net::consolidate::path::build_path_model;
use eprons_net::flow::FlowSet;
use eprons_net::{ConsolidationConfig, Consolidator, FlowClass, GreedyConsolidator, PathArena};
use eprons_num::complex::Complex;
use eprons_num::conv::{clear_plan_cache, convolve_fft};
use eprons_num::fft::FftPlan;
use eprons_num::Pmf;
use eprons_obs::Json;
use eprons_server::{ServiceModel, VpEngine, VpLadder};
use eprons_topo::{AggregationLevel, FatTree};
use std::sync::Arc;

fn out_path() -> std::path::PathBuf {
    let args: Vec<String> = std::env::args().collect();
    for (i, a) in args.iter().enumerate() {
        if a == "--out" {
            if let Some(p) = args.get(i + 1) {
                return p.into();
            }
            eprintln!("error: --out requires a path");
            std::process::exit(2);
        }
        if let Some(p) = a.strip_prefix("--out=") {
            return p.into();
        }
    }
    // crates/bench/../../ = repo root.
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_cluster.json")
}

fn main() {
    banner("perfbench", "tracked wall-clock benchmarks");
    let mut r = Runner::from_env();
    let host_threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);

    // --- Convolution kernel. ---
    let taps: Vec<f64> = (0..700).map(|i| 1.0 / (i + 1) as f64).collect();
    r.bench("convolve/fft_planned/700x700", || {
        convolve_fft(&taps, &taps)
    });
    r.bench("convolve/fft_plan_per_call/2048", || {
        // What every call paid before the plan cache: build the twiddle
        // tables, transform, multiply, inverse.
        let n = 2048;
        let plan = FftPlan::new(n);
        let mut fa: Vec<Complex> = taps.iter().map(|&x| Complex::from_real(x)).collect();
        fa.resize(n, Complex::ZERO);
        let mut fb = fa.clone();
        plan.forward(&mut fa);
        plan.forward(&mut fb);
        for (x, y) in fa.iter_mut().zip(&fb) {
            *x *= *y;
        }
        plan.inverse(&mut fa);
        fa
    });

    // --- VP decisions. ---
    let service = ServiceModel::new(
        Pmf::from_masses(2.7e-4, 2.7e-4, vec![0.1, 0.3, 0.3, 0.2, 0.1]),
        0.1e-3,
    );
    let deadlines: Vec<f64> = (1..=16).map(|i| i as f64 * 2.0e-3).collect();
    r.bench("vp_decision/cold/queue16", || {
        // A fresh ladder: every level is convolved.
        let mut engine = VpEngine::new(service.clone());
        engine.decision(0.0, None, &deadlines).len()
    });
    let warm_ladder = Arc::new(VpLadder::new(service.clone()));
    let _ = VpEngine::shared(Arc::clone(&warm_ladder)).decision(0.0, None, &deadlines);
    r.bench("vp_decision/warm/queue16", || {
        // Fresh engine each iteration on a ladder an earlier engine grew.
        let mut engine = VpEngine::shared(Arc::clone(&warm_ladder));
        engine.decision(0.0, None, &deadlines).len()
    });

    // --- End-to-end cluster run. ---
    let cfg = ClusterConfig::default();
    let duration_s = if quick() { 0.25 } else { 2.0 };
    let cluster = ClusterRun {
        scheme: ServerScheme::EpronsServer,
        consolidation: ConsolidationSpec::GreedyK(2.0),
        server_utilization: 0.3,
        background_util: 0.2,
        duration_s,
        warmup_s: 0.0,
        seed: BASE_SEED,
    };
    r.bench("run_cluster/eprons_greedy", || {
        run_cluster(&cfg, &cluster).unwrap().cpu_power_w
    });

    // --- The 4-candidate aggregation-ladder optimizer. ---
    let template = ClusterRun {
        consolidation: ConsolidationSpec::AllOn,
        ..cluster.clone()
    };
    let candidates = [
        ConsolidationSpec::AllOn,
        ConsolidationSpec::Level(AggregationLevel::Agg1),
        ConsolidationSpec::Level(AggregationLevel::Agg2),
        ConsolidationSpec::Level(AggregationLevel::Agg3),
    ];
    // `serial_cold` replays the pre-warm-start pipeline exactly: one
    // thread, a fresh ScenarioContext per sweep (so no memo of an earlier
    // sweep can serve it, and its VP ladder starts empty), the thread's
    // FFT plan cache cleared, and the
    // exhaustive (unpruned) candidate sweep.
    let serial_budget = 1usize;
    set_thread_budget(Some(serial_budget));
    r.bench("optimize_total_power/agg_ladder/serial_cold", || {
        clear_plan_cache();
        optimize_total_power(&cfg, &template, &candidates)
            .unwrap()
            .spec
    });
    // `serial_warm` is the controller's steady-state epoch shape on a
    // revived context: one shared context whose plan and result memos
    // answer every candidate already evaluated, the bound-pruned sweep
    // skipping dominated candidates, and the previous sweep's winner as
    // the ordering hint — the same spec the cold sweep picks, by the
    // determinism contract.
    let warm_ctx = ScenarioContext::for_template(&cfg, &template);
    let mut warm_hint: Option<ConsolidationSpec> = None;
    r.bench("optimize_total_power/agg_ladder/serial_warm", || {
        let choice =
            optimize_in_context_pruned(&warm_ctx, template.scheme, &candidates, &[], warm_hint)
                .0
                .unwrap();
        warm_hint = Some(choice.spec);
        choice.spec
    });
    set_thread_budget(None);
    // The parallel variant needs real cores to say anything: a 1-core
    // host would just re-measure `serial_warm` under thread overhead, so
    // it is skipped there (with the reason recorded in the report) and
    // the combined speedup falls back to the serial-warm mean.
    let parallel_budget = host_threads;
    let parallel_skip = if host_threads > 1 {
        set_thread_budget(Some(parallel_budget));
        let ctx = ScenarioContext::for_template(&cfg, &template);
        let mut hint: Option<ConsolidationSpec> = None;
        r.bench("optimize_total_power/agg_ladder/parallel_warm", || {
            let choice = optimize_in_context_pruned(&ctx, template.scheme, &candidates, &[], hint)
                .0
                .unwrap();
            hint = Some(choice.spec);
            choice.spec
        });
        set_thread_budget(None);
        None
    } else {
        let reason = format!("single-core host (available parallelism {host_threads})");
        println!("optimize_total_power/agg_ladder/parallel_warm      skipped: {reason}");
        Some(reason)
    };

    // --- LP warm-start chaining over the consolidation K ladder. ---
    //
    // Adjacent K rungs of the consolidation MILP share one standard
    // form (K only rescales latency-sensitive demands — matrix
    // coefficients change, dimensions don't), so each rung's optimal
    // simplex basis is a ready starting point for the next. The ladder
    // descends: shrinking demands keep the previous basis primal-
    // feasible, letting `solve_warm` skip phase 1 entirely. The cold
    // chain solves every rung's LP relaxation from scratch; the warm
    // chain threads the `Basis` rung to rung. Both closures return the
    // chain's total simplex pivot count, so the pivot deltas come from
    // one plain call — no counters needed.
    let ft = FatTree::new(4, 1000.0);
    let arena = PathArena::build(&ft);
    let ladder_flows = {
        let hosts = ft.hosts();
        let mut fs = FlowSet::new();
        // Cross-pod demand matrix: enough flows that the relaxation
        // does real phase-1 work, small enough that a full chain fits a
        // bench iteration.
        for (i, &(a, b, d)) in [
            (0usize, 8usize, 120.0),
            (1, 12, 80.0),
            (5, 9, 140.0),
            (10, 3, 70.0),
            (2, 14, 90.0),
            (6, 11, 60.0),
        ]
        .iter()
        .enumerate()
        {
            fs.add(
                hosts[a],
                hosts[b],
                d,
                if i % 2 == 0 {
                    FlowClass::LatencySensitive
                } else {
                    FlowClass::LatencyTolerant
                },
            );
        }
        fs
    };
    let k_ladder = [2.5, 2.0, 1.5, 1.0];
    let rungs: Vec<Standardized> = k_ladder
        .iter()
        .map(|&k| {
            Standardized::from_model(
                &build_path_model(&arena, &ladder_flows, &ConsolidationConfig::with_k(k)).model,
            )
        })
        .collect();
    let cold_chain = || {
        rungs
            .iter()
            .map(|sf| sf.solve_with_stats().unwrap().1.iterations)
            .sum::<u64>()
    };
    let warm_chain = || {
        let mut basis = None;
        rungs
            .iter()
            .map(|sf| {
                let (_, stats, b) = sf.solve_warm(basis.as_ref()).unwrap();
                basis = Some(b);
                stats.iterations
            })
            .sum::<u64>()
    };
    let (chain_pivots_cold, chain_pivots_warm) = (cold_chain(), warm_chain());
    r.bench("ladder_warm_start/cold_chain", cold_chain);
    r.bench("ladder_warm_start/warm_chain", warm_chain);

    // --- Scenario reuse: the staged pipeline's raison d'être. ---
    //
    // Both variants sweep the same 4 candidates serially so the measured
    // gap is context reuse alone. `cold_per_candidate` replays the
    // pre-staged shape — one `run_cluster` process-equivalent per
    // candidate, each rebuilding topology, service model, VP ladder and
    // workloads, with a cold FFT plan cache (the clear inside the loop
    // models the fresh-process-per-point sweep scripts this pipeline
    // replaces).
    // `shared_context` builds one ScenarioContext and evaluates each
    // candidate against it.
    //
    // The scenario build is a *fixed* per-sweep cost (~2 ms: service-model
    // fit, workload generation) while candidate evaluation scales with the
    // simulated horizon, so this suite uses a short horizon to measure the
    // fixed cost the pipeline eliminates rather than drown it in
    // horizon-proportional DVFS simulation. The reuse win shrinks as
    // horizons grow; `run_cluster/eprons_greedy` above tracks the
    // long-horizon cost.
    let reuse_run = ClusterRun {
        duration_s: if quick() { 0.1 } else { 0.15 },
        ..cluster.clone()
    };
    set_thread_budget(Some(1));
    r.bench("scenario_reuse/cold_per_candidate", || {
        candidates
            .iter()
            .map(|&spec| {
                clear_plan_cache();
                let run = ClusterRun {
                    consolidation: spec,
                    ..reuse_run.clone()
                };
                run_cluster(&cfg, &run).unwrap().breakdown.total_w()
            })
            .sum::<f64>()
    });
    let sweep_spec = ScenarioSpec {
        server_utilization: reuse_run.server_utilization,
        background_util: reuse_run.background_util,
        duration_s: reuse_run.duration_s,
        warmup_s: reuse_run.warmup_s,
        seed: reuse_run.seed,
    };
    r.bench("scenario_reuse/shared_context", || {
        let ctx = ScenarioContext::build(&cfg, &sweep_spec);
        candidates
            .iter()
            .map(|&spec| {
                ctx.evaluate(ServerScheme::EpronsServer, spec)
                    .unwrap()
                    .breakdown
                    .total_w()
            })
            .sum::<f64>()
    });
    set_thread_budget(None);

    // --- Scale ladder: asymptotic curves over fat-tree k. ---
    //
    // Four curves, bottom up: topology construction (`build`), candidate
    // path materialization (`arena`), one full greedy consolidation pass
    // over an all-hosts antipodal flow set (`consolidate`), and the
    // end-to-end joint optimizer epoch (`optimize`). Build, consolidate,
    // and optimize climb the whole ladder (k=20/24 included — the
    // optimizer rides the pod-decomposed strategy there via the `Auto`
    // default, which is what turned those rungs from a lunch break into
    // a benchmark iteration); the arena curve stops at k=16, where the
    // monolithic enumeration it measures stops being relevant. The
    // `lp_dense`/`lp_sparse` pair forces both simplex engines over the
    // same k=8 consolidation relaxation; their ratio is the headline
    // sparse-core win (`speedup.scale_ladder.sparse_over_dense_k8`).
    //
    // Long points (k>=16) run in a one-shot runner: a second timed
    // iteration would double the wall clock for a second data point on
    // a curve whose shape one point per k already fixes. The LP pair
    // gets its own runner so `--quick` stays a smoke test while full
    // runs still average a few solves.
    let ladder_ks: &[usize] = if quick() {
        &[4, 8]
    } else {
        &[4, 8, 16, 20, 24]
    };
    let mut slow = Runner::new(0.0, 1);
    let mut lp_runner = if quick() {
        Runner::new(0.0, 1)
    } else {
        Runner::new(0.0, 2)
    };
    // One 50 Mbps flow per host to its antipodal peer, classes
    // alternating: every edge uplink carries traffic, so consolidation
    // cannot shortcut, yet K=2.0-scaled demands stay far under capacity
    // at every k (<= 100 Mbps * K per uplink against 1 Gbps links).
    let antipodal_flows = |ft: &FatTree| {
        let hosts = ft.hosts();
        let n = hosts.len();
        let mut fs = FlowSet::new();
        for i in 0..n {
            fs.add(
                hosts[i],
                hosts[(i + n / 2) % n],
                50.0,
                if i % 2 == 0 {
                    FlowClass::LatencySensitive
                } else {
                    FlowClass::LatencyTolerant
                },
            );
        }
        fs
    };
    let greedy_cfg = ConsolidationConfig::with_k(2.0);
    for &k in ladder_ks {
        r.bench(&format!("scale_ladder/build/k{k}"), || {
            FatTree::new(k, 1000.0).hosts().len()
        });
        let ft = FatTree::new(k, 1000.0);
        if k <= 16 {
            let runner = if k >= 16 { &mut slow } else { &mut r };
            runner.bench(&format!("scale_ladder/arena/k{k}"), || {
                PathArena::build(&ft).arena_bytes()
            });
        }
        let flows = antipodal_flows(&ft);
        let runner = if k >= 16 { &mut slow } else { &mut r };
        runner.bench(&format!("scale_ladder/consolidate/k{k}"), || {
            GreedyConsolidator
                .consolidate(&ft, &flows, &greedy_cfg)
                .unwrap()
        });
    }
    // Engine shoot-out on the k=8 relaxation: six cross-pod flows give
    // a ~1300-row standard form — big enough that the dense tableau's
    // O(rows*cols) pivots dominate while the revised core touches only
    // nonzeros, small enough that the dense oracle stays a benchmark
    // iteration rather than a sit-in.
    let lp_ft = FatTree::new(8, 1000.0);
    let lp_arena = PathArena::build(&lp_ft);
    let lp_flows = {
        let hosts = lp_ft.hosts();
        let n = hosts.len();
        let mut fs = FlowSet::new();
        for i in 0..6 {
            fs.add(
                hosts[i],
                hosts[(i + n / 2) % n],
                40.0 + 10.0 * (i % 5) as f64,
                if i % 2 == 0 {
                    FlowClass::LatencySensitive
                } else {
                    FlowClass::LatencyTolerant
                },
            );
        }
        fs
    };
    let lp_sf =
        Standardized::from_model(&build_path_model(&lp_arena, &lp_flows, &greedy_cfg).model);
    lp_runner.bench("scale_ladder/lp_dense/k8", || {
        lp_sf
            .solve_warm_with(None, LpEngine::Dense)
            .unwrap()
            .0
            .objective
    });
    lp_runner.bench("scale_ladder/lp_sparse/k8", || {
        lp_sf
            .solve_warm_with(None, LpEngine::Sparse)
            .unwrap()
            .0
            .objective
    });
    // End-to-end optimizer epochs. Default per-pair query demand
    // oversubscribes edge uplinks once k >= 8 (the all-pairs flow count
    // grows as n^2 against a fixed uplink budget), so the ladder scales
    // the per-flow rate to hold total egress per host at 300 Mbps — the
    // same epoch shape at every k, feasible at all of them. The config
    // keeps the default `Auto` strategy: k < 12 runs the monolithic
    // consolidator, k >= 12 the pod-decomposed one, exactly what the
    // controller would pick at each size.
    for &k in ladder_ks {
        let mut kcfg = ClusterConfig {
            fat_tree_k: k,
            ..ClusterConfig::default()
        };
        let n = kcfg.num_servers() as f64;
        kcfg.query_flow_mbps = (300.0 / (n - 1.0)).min(10.0);
        let ktemplate = ClusterRun {
            scheme: ServerScheme::EpronsServer,
            consolidation: ConsolidationSpec::AllOn,
            server_utilization: 0.3,
            background_util: 0.0,
            duration_s: 0.02,
            warmup_s: 0.0,
            seed: BASE_SEED,
        };
        let kcand = [ConsolidationSpec::GreedyK(2.0)];
        let runner = if k >= 16 { &mut slow } else { &mut r };
        runner.bench(&format!("scale_ladder/optimize/k{k}"), || {
            optimize_total_power(&kcfg, &ktemplate, &kcand)
                .unwrap()
                .result
                .breakdown
                .total_w()
        });
    }
    // --- Pod decomposition head-to-head: same epoch, strategy pinned. ---
    //
    // The scale ladder above rides the `Auto` strategy, so its k >= 12
    // rungs are already decomposed; this pair pins the strategy both
    // ways on one config so the ratio is the decomposition win itself
    // and nothing else. One-shot runner: the monolithic k=16 epoch is
    // the expensive half, and the ratio needs matched conditions more
    // than it needs averaging. The closures also capture each epoch's
    // objective and SLA verdict so the report carries the equivalence
    // fields the CI smoke gates on.
    let pd_k: usize = if quick() { 8 } else { 16 };
    let pd_cfg = |strategy| {
        let mut c = ClusterConfig {
            fat_tree_k: pd_k,
            consolidate_strategy: strategy,
            ..ClusterConfig::default()
        };
        let n = c.num_servers() as f64;
        c.query_flow_mbps = (300.0 / (n - 1.0)).min(10.0);
        c
    };
    let pd_mono_cfg = pd_cfg(ConsolidateStrategy::Monolithic);
    let pd_dec_cfg = pd_cfg(ConsolidateStrategy::PodDecomposed);
    let pd_template = ClusterRun {
        scheme: ServerScheme::EpronsServer,
        consolidation: ConsolidationSpec::AllOn,
        server_utilization: 0.3,
        background_util: 0.0,
        duration_s: 0.02,
        warmup_s: 0.0,
        seed: BASE_SEED,
    };
    let pd_cand = [ConsolidationSpec::GreedyK(2.0)];
    let mut pd_mono = (f64::NAN, false);
    slow.bench(&format!("pod_decomp/optimize/monolithic/k{pd_k}"), || {
        let c = optimize_total_power(&pd_mono_cfg, &pd_template, &pd_cand).unwrap();
        pd_mono = (
            c.result.breakdown.total_w(),
            c.result.is_feasible(&pd_mono_cfg),
        );
        pd_mono.0
    });
    let mut pd_dec = (f64::NAN, false);
    slow.bench(&format!("pod_decomp/optimize/decomposed/k{pd_k}"), || {
        let c = optimize_total_power(&pd_dec_cfg, &pd_template, &pd_cand).unwrap();
        pd_dec = (
            c.result.breakdown.total_w(),
            c.result.is_feasible(&pd_dec_cfg),
        );
        pd_dec.0
    });

    r.samples.append(&mut lp_runner.samples);
    r.samples.append(&mut slow.samples);

    // --- Report. ---
    let serial_cold = r
        .mean_of("optimize_total_power/agg_ladder/serial_cold")
        .expect("suite ran");
    let serial_warm = r
        .mean_of("optimize_total_power/agg_ladder/serial_warm")
        .expect("suite ran");
    // On a skipped parallel run the warm serial mean stands in: the
    // combined headline then measures pure cache-and-pruning reuse.
    let parallel_warm = r
        .mean_of("optimize_total_power/agg_ladder/parallel_warm")
        .unwrap_or(serial_warm);
    let combined = serial_cold / parallel_warm;
    let ladder_cold = r
        .mean_of("ladder_warm_start/cold_chain")
        .expect("suite ran");
    let ladder_warm = r
        .mean_of("ladder_warm_start/warm_chain")
        .expect("suite ran");
    let reuse_cold = r
        .mean_of("scenario_reuse/cold_per_candidate")
        .expect("suite ran");
    let reuse_shared = r
        .mean_of("scenario_reuse/shared_context")
        .expect("suite ran");
    let shared_over_cold = reuse_cold / reuse_shared;
    let lp_dense = r.mean_of("scale_ladder/lp_dense/k8").expect("suite ran");
    let lp_sparse = r.mean_of("scale_ladder/lp_sparse/k8").expect("suite ran");
    let sparse_over_dense = lp_dense / lp_sparse;
    // The greedy pass is ~O(flows * candidates): flows grow as k^3/4 and
    // candidates as k^2/4, so k=4 -> k=8 predicts ~2^5 = 32x; the bound
    // leaves headroom for constant-factor noise but catches an
    // accidental return to a super-polynomial substrate (the per-path
    // allocation regime this ladder was built to retire).
    let cons_k4 = r.min_of("scale_ladder/consolidate/k4").expect("suite ran");
    let cons_k8 = r.min_of("scale_ladder/consolidate/k8").expect("suite ran");
    let cons_blowup = cons_k8 / cons_k4;
    const CONS_BLOWUP_BOUND: f64 = 150.0;
    // One-shot samples: min == mean, but min_of documents the intent
    // (matched single-epoch conditions, no averaging across states).
    let pd_mono_s = r
        .min_of(&format!("pod_decomp/optimize/monolithic/k{pd_k}"))
        .expect("suite ran");
    let pd_dec_s = r
        .min_of(&format!("pod_decomp/optimize/decomposed/k{pd_k}"))
        .expect("suite ran");
    let pd_speedup = pd_mono_s / pd_dec_s;
    // One-sided, mirroring the differential suite's contract: the
    // decomposition may beat the order-myopic monolithic greedy (gap
    // negative), but must not cost more than 0.5 % of the objective.
    let pd_rel_gap = (pd_dec.0 - pd_mono.0) / pd_mono.0;
    let pd_verdicts_agree = pd_mono.1 == pd_dec.1;
    // The 3x target is calibrated for the full-run k=16 pair; at the
    // quick run's k=8 the pods are too small for the decomposition to
    // pay for its stitch phase, so `met` is advisory there and CI's
    // speedup gate reads the committed full-run BENCH instead.
    const PD_TARGET: f64 = 3.0;
    let vp_ladder = warm_ctx.vp_ladder();
    let report = Json::Obj(vec![
        ("schema".into(), Json::Str("eprons.bench.cluster/v1".into())),
        ("quick".into(), Json::Bool(quick())),
        ("seed".into(), Json::Num(BASE_SEED as f64)),
        (
            "threads".into(),
            Json::Obj(vec![
                ("serial_budget".into(), Json::Num(serial_budget as f64)),
                ("parallel_budget".into(), Json::Num(parallel_budget as f64)),
                ("host".into(), Json::Num(host_threads as f64)),
                (
                    "parallel_warm_skipped".into(),
                    match &parallel_skip {
                        Some(reason) => Json::Str(reason.clone()),
                        None => Json::Bool(false),
                    },
                ),
            ]),
        ),
        ("suites".into(), r.to_json()),
        (
            "speedup".into(),
            Json::Obj(vec![
                (
                    "optimize_total_power".into(),
                    Json::Obj(vec![
                        (
                            "parallel_over_serial".into(),
                            Json::Num(serial_warm / parallel_warm),
                        ),
                        (
                            "warm_cache_over_cold".into(),
                            Json::Num(serial_cold / serial_warm),
                        ),
                        ("combined".into(), Json::Num(combined)),
                        ("target".into(), Json::Num(2.0)),
                        ("met".into(), Json::Bool(combined >= 2.0)),
                    ]),
                ),
                (
                    "scenario_reuse".into(),
                    Json::Obj(vec![
                        ("shared_over_cold".into(), Json::Num(shared_over_cold)),
                        ("target".into(), Json::Num(1.5)),
                        ("met".into(), Json::Bool(shared_over_cold >= 1.5)),
                    ]),
                ),
                (
                    "ladder_warm_start".into(),
                    Json::Obj(vec![
                        (
                            "warm_over_cold".into(),
                            Json::Num(ladder_cold / ladder_warm),
                        ),
                        (
                            "chain_pivots_cold".into(),
                            Json::Num(chain_pivots_cold as f64),
                        ),
                        (
                            "chain_pivots_warm".into(),
                            Json::Num(chain_pivots_warm as f64),
                        ),
                        (
                            "pivots_reduced".into(),
                            Json::Bool(chain_pivots_warm < chain_pivots_cold),
                        ),
                    ]),
                ),
                (
                    "scale_ladder".into(),
                    Json::Obj(vec![
                        ("sparse_over_dense_k8".into(), Json::Num(sparse_over_dense)),
                        ("target".into(), Json::Num(5.0)),
                        ("met".into(), Json::Bool(sparse_over_dense >= 5.0)),
                        ("consolidate_k8_over_k4".into(), Json::Num(cons_blowup)),
                        ("blowup_bound".into(), Json::Num(CONS_BLOWUP_BOUND)),
                        (
                            "within_bound".into(),
                            Json::Bool(cons_blowup <= CONS_BLOWUP_BOUND),
                        ),
                    ]),
                ),
                (
                    "pod_decomp".into(),
                    Json::Obj(vec![
                        ("k".into(), Json::Num(pd_k as f64)),
                        ("decomposed_over_monolithic".into(), Json::Num(pd_speedup)),
                        ("target".into(), Json::Num(PD_TARGET)),
                        ("met".into(), Json::Bool(pd_speedup >= PD_TARGET)),
                        ("power_rel_gap".into(), Json::Num(pd_rel_gap)),
                        ("verdicts_agree".into(), Json::Bool(pd_verdicts_agree)),
                    ]),
                ),
            ]),
        ),
        (
            "vp_ladder".into(),
            Json::Obj(vec![
                ("levels".into(), Json::Num(vp_ladder.levels() as f64)),
                (
                    "spectrum_bytes".into(),
                    Json::Num(vp_ladder.spectrum_bytes() as f64),
                ),
                (
                    "conditioned_bytes".into(),
                    Json::Num(vp_ladder.conditioned_bytes() as f64),
                ),
            ]),
        ),
    ]);
    let path = out_path();
    std::fs::write(&path, format!("{report}\n")).unwrap_or_else(|e| {
        eprintln!("failed to write {}: {e}", path.display());
        std::process::exit(1);
    });
    println!(
        "\nspeedup(optimize_total_power): parallel/serial {:.2}x, warm/cold {:.2}x, combined {:.2}x (target 2.0x, budgets {serial_budget}/{parallel_budget}, host {host_threads})",
        serial_warm / parallel_warm,
        serial_cold / serial_warm,
        combined,
    );
    println!(
        "speedup(scenario_reuse): shared/cold {shared_over_cold:.2}x (target 1.5x, 4-candidate sweep)"
    );
    println!(
        "speedup(ladder_warm_start): warm/cold {:.2}x, chain pivots {chain_pivots_cold} -> {chain_pivots_warm}",
        ladder_cold / ladder_warm,
    );
    println!(
        "speedup(scale_ladder): sparse/dense k8 LP {sparse_over_dense:.2}x (target 5.0x), consolidate k8/k4 {cons_blowup:.1}x (bound {CONS_BLOWUP_BOUND:.0}x)"
    );
    println!(
        "speedup(pod_decomp): decomposed/monolithic k{pd_k} {pd_speedup:.2}x (target {PD_TARGET:.1}x), objective gap {:+.3}%, verdicts agree: {pd_verdicts_agree}",
        pd_rel_gap * 100.0,
    );
    println!("wrote {}", path.display());
    finish();
}
