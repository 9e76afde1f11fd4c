//! Parallel == serial, bit for bit.
//!
//! The sharded cluster simulator and the parallel optimizer must produce
//! byte-identical results no matter how many worker threads the budget
//! grants: per-server RNG seeds are drawn serially before the fan-out,
//! shards share no mutable state, and reductions fold shard results in
//! index order. These tests pin that contract by running every entry
//! point under `set_thread_budget(Some(1))` and `Some(4)` and comparing
//! float *bits*, not approximate values.
//!
//! This file is its own test binary (own process), so overriding the
//! process-wide budget here cannot race the unit tests in the library.
//! CI machines with any core count exercise both paths: budget 4 still
//! spawns helper threads on a single-core runner.

use eprons_core::scenario::{ScenarioContext, ScenarioSpec};
use eprons_core::{
    candidate_power_floor_w, optimize_in_context_masked, optimize_in_context_pruned,
    optimize_total_power, run_cluster, set_thread_budget, ClusterConfig, ClusterRun,
    ClusterRunResult, ConsolidationSpec, ServerScheme,
};
use eprons_server::vp::InflightHead;
use eprons_server::VpEngine;
use eprons_topo::AggregationLevel;
use std::sync::Arc;

fn short_run(scheme: ServerScheme, consolidation: ConsolidationSpec) -> ClusterRun {
    ClusterRun {
        scheme,
        consolidation,
        server_utilization: 0.3,
        background_util: 0.2,
        duration_s: 1.0,
        warmup_s: 0.0,
        seed: 7,
    }
}

/// Every float in the result, as exact bits.
fn result_bits(r: &ClusterRunResult) -> Vec<u64> {
    let mut v = vec![
        r.breakdown.server_w.to_bits(),
        r.breakdown.network_w.to_bits(),
        r.cpu_power_w.to_bits(),
        r.active_switches as u64,
        r.max_link_utilization.to_bits(),
        r.query_count as u64,
        r.e2e_miss_rate.to_bits(),
        r.server_miss_rate.to_bits(),
    ];
    for s in [
        &r.net_latency,
        &r.server_latency,
        &r.e2e_latency,
        &r.query_e2e_latency,
    ] {
        v.extend([s.mean_s.to_bits(), s.p95_s.to_bits(), s.p99_s.to_bits()]);
    }
    v.extend(r.active_switch_ids.iter().map(|&id| id as u64));
    v
}

fn with_budget<R>(budget: usize, f: impl FnOnce() -> R) -> R {
    set_thread_budget(Some(budget));
    let r = f();
    set_thread_budget(None);
    r
}

#[test]
fn run_cluster_is_bit_identical_serial_vs_parallel() {
    let cfg = ClusterConfig::default();
    for (scheme, consolidation) in [
        (ServerScheme::EpronsServer, ConsolidationSpec::GreedyK(2.0)),
        (
            ServerScheme::Rubik,
            ConsolidationSpec::Level(AggregationLevel::Agg2),
        ),
        (ServerScheme::TimeTrader, ConsolidationSpec::AllOn),
    ] {
        let run = short_run(scheme, consolidation);
        let serial = with_budget(1, || run_cluster(&cfg, &run).unwrap());
        let parallel = with_budget(4, || run_cluster(&cfg, &run).unwrap());
        assert_eq!(
            result_bits(&serial),
            result_bits(&parallel),
            "{} / {} diverged between 1 and 4 threads",
            scheme.name(),
            consolidation.label()
        );
    }
}

#[test]
fn optimizer_is_bit_identical_serial_vs_parallel() {
    let cfg = ClusterConfig::default();
    let template = short_run(ServerScheme::EpronsServer, ConsolidationSpec::AllOn);
    let candidates = [
        ConsolidationSpec::AllOn,
        ConsolidationSpec::Level(AggregationLevel::Agg1),
        ConsolidationSpec::Level(AggregationLevel::Agg2),
        ConsolidationSpec::Level(AggregationLevel::Agg3),
    ];
    let serial = with_budget(1, || {
        optimize_total_power(&cfg, &template, &candidates).unwrap()
    });
    let parallel = with_budget(4, || {
        optimize_total_power(&cfg, &template, &candidates).unwrap()
    });
    assert_eq!(serial.spec, parallel.spec, "candidate choice diverged");
    assert_eq!(serial.feasible, parallel.feasible);
    assert_eq!(result_bits(&serial.result), result_bits(&parallel.result));
}

#[test]
fn staged_pipeline_matches_run_cluster_bit_for_bit() {
    // The golden equality pin for the staged refactor: evaluating any
    // (scheme, consolidation) pair against one shared ScenarioContext must
    // reproduce the one-shot `run_cluster` wrapper (which builds a fresh
    // context per call) exactly — every scheme, every aggregation level,
    // every float bit. Context reuse can never leak into the numbers.
    let cfg = ClusterConfig::default();
    let schemes = [
        ServerScheme::NoPowerManagement,
        ServerScheme::Rubik,
        ServerScheme::RubikPlus,
        ServerScheme::TimeTrader,
        ServerScheme::EpronsServer,
        ServerScheme::DeepSleep,
    ];
    let template = short_run(ServerScheme::EpronsServer, ConsolidationSpec::AllOn);
    let ctx = ScenarioContext::build(&cfg, &ScenarioSpec::of_run(&template));
    for scheme in schemes {
        for level in AggregationLevel::ALL {
            let spec = ConsolidationSpec::Level(level);
            let run = short_run(scheme, spec);
            let monolithic = run_cluster(&cfg, &run).unwrap();
            let staged = ctx.evaluate(scheme, spec).unwrap();
            assert_eq!(
                result_bits(&monolithic),
                result_bits(&staged),
                "{} / {} diverged between fresh and shared context",
                scheme.name(),
                spec.label()
            );
        }
    }
    // GreedyK and the serial/parallel axis too: a shared context under
    // budget 1 equals a fresh build under budget 4.
    let spec = ConsolidationSpec::GreedyK(2.0);
    let run = short_run(ServerScheme::EpronsServer, spec);
    let fresh = with_budget(4, || run_cluster(&cfg, &run).unwrap());
    let shared = with_budget(1, || {
        ctx.evaluate(ServerScheme::EpronsServer, spec).unwrap()
    });
    assert_eq!(result_bits(&fresh), result_bits(&shared));
}

#[test]
fn evaluate_grid_matches_fresh_builds_bit_for_bit() {
    // The grid call builds one plan and runs every (scheme, SLA) pair on
    // it: the build and the plan are SLA-independent, so each run must
    // equal a from-scratch `run_cluster` under its own SLA, bit for bit.
    // TimeTrader reads the SLA for its frequency target and EPRONS for
    // its per-request budgets; the tight SLA flips both infeasible, so a
    // run that read the wrong SLA could not pass.
    let cfg = ClusterConfig::default();
    let mut tight = cfg.clone();
    tight.sla = tight.sla.with_total(9.0e-3);
    let spec = ConsolidationSpec::Level(AggregationLevel::Agg2);
    let template = short_run(ServerScheme::EpronsServer, spec);
    let ctx = ScenarioContext::build(&cfg, &ScenarioSpec::of_run(&template));
    let schemes = [ServerScheme::EpronsServer, ServerScheme::TimeTrader];
    let cfgs = [&cfg, &tight];
    let runs: Vec<_> = schemes
        .iter()
        .flat_map(|&s| cfgs.map(|c| (s, c.sla.clone())))
        .collect();
    let grid = ctx.evaluate_grid(spec, &runs);
    assert_eq!(grid.len(), runs.len());
    for (i, got) in grid.into_iter().enumerate() {
        let (scheme, run_cfg) = (schemes[i / 2], cfgs[i % 2]);
        let got = got.unwrap();
        let fresh = run_cluster(run_cfg, &short_run(scheme, spec)).unwrap();
        assert_eq!(
            result_bits(&fresh),
            result_bits(&got),
            "{} under a {} s SLA diverged from a fresh build",
            scheme.name(),
            run_cfg.sla.total_s()
        );
        assert_eq!(
            got.is_feasible(run_cfg),
            i % 2 == 0,
            "{}: only the default SLA is met",
            scheme.name()
        );
    }
}

#[test]
fn pruned_warm_sweep_matches_exhaustive_cold_sweep_bit_for_bit() {
    // The warm path (shared context and its memos, bound-ordered pruned
    // sweep, optional ordering hint) must pick the same candidate with
    // the same float bits as the cold path (a fresh context, exhaustive
    // sweep) — for every server scheme over the full aggregation
    // ladder, and for a GreedyK ladder. Pruning may
    // only skip candidates whose *sound* power lower bound strictly
    // exceeds a feasible incumbent's measured total, and hints only
    // reorder evaluation, so the chosen spec, feasibility flag, and every
    // number in the winning result must be identical.
    let cfg = ClusterConfig::default();
    let template = short_run(ServerScheme::EpronsServer, ConsolidationSpec::AllOn);
    let ladder: Vec<ConsolidationSpec> = std::iter::once(ConsolidationSpec::AllOn)
        .chain(AggregationLevel::ALL.map(ConsolidationSpec::Level))
        .collect();
    let greedy: Vec<ConsolidationSpec> = [1.0, 2.0, 3.0].map(ConsolidationSpec::GreedyK).to_vec();
    let schemes = [
        ServerScheme::NoPowerManagement,
        ServerScheme::Rubik,
        ServerScheme::RubikPlus,
        ServerScheme::TimeTrader,
        ServerScheme::EpronsServer,
        ServerScheme::DeepSleep,
    ];
    for candidates in [&ladder, &greedy] {
        for scheme in schemes {
            // The cold reference gets its own fresh context, so none of
            // the warm context's memos can serve it.
            let cold_ctx = ScenarioContext::build(&cfg, &ScenarioSpec::of_run(&template));
            let (cold, cold_fail) = optimize_in_context_masked(&cold_ctx, scheme, candidates, &[]);
            let ctx = ScenarioContext::build(&cfg, &ScenarioSpec::of_run(&template));
            // Hints are ordering advice: correct, wrong, and absent hints
            // must all reproduce the cold sweep exactly.
            let hints = [None, Some(candidates[0]), cold.as_ref().map(|c| c.spec)];
            for hint in hints {
                let (warm, warm_fail) =
                    optimize_in_context_pruned(&ctx, scheme, candidates, &[], hint);
                match (&cold, &warm) {
                    (Some(c), Some(w)) => {
                        assert_eq!(c.spec, w.spec, "{}: spec diverged", scheme.name());
                        assert_eq!(c.feasible, w.feasible, "{}: feasibility", scheme.name());
                        assert_eq!(
                            result_bits(&c.result),
                            result_bits(&w.result),
                            "{}: result bits diverged warm vs cold",
                            scheme.name()
                        );
                    }
                    (None, None) => {}
                    _ => panic!(
                        "{}: warm and cold disagree on having a choice",
                        scheme.name()
                    ),
                }
                assert_eq!(cold_fail.len(), warm_fail.len());
            }
        }
    }
}

#[test]
fn candidate_power_floor_never_exceeds_measured_total() {
    // Pruning is only sound if the analytic floor really is a lower
    // bound: for every candidate the ladder can see, the bound computed
    // without simulation must sit at or below the simulated total power.
    let cfg = ClusterConfig::default();
    let template = short_run(ServerScheme::EpronsServer, ConsolidationSpec::AllOn);
    let ctx = ScenarioContext::build(&cfg, &ScenarioSpec::of_run(&template));
    let candidates: Vec<ConsolidationSpec> = std::iter::once(ConsolidationSpec::AllOn)
        .chain(AggregationLevel::ALL.map(ConsolidationSpec::Level))
        .chain([1.0, 2.0, 3.0].map(ConsolidationSpec::GreedyK))
        .collect();
    for scheme in [
        ServerScheme::NoPowerManagement,
        ServerScheme::EpronsServer,
        ServerScheme::DeepSleep,
    ] {
        for &spec in &candidates {
            let floor = candidate_power_floor_w(&ctx, scheme, spec, &[]);
            let measured = ctx.evaluate(scheme, spec).unwrap();
            assert!(
                floor <= measured.breakdown.total_w() + 1e-9,
                "{} / {}: floor {floor:.3} W exceeds measured {:.3} W",
                scheme.name(),
                spec.label(),
                measured.breakdown.total_w()
            );
        }
    }
}

#[test]
fn pruning_skips_dominated_candidates_at_light_load() {
    // At very light load the server draw sits near its idle floor, so the
    // expensive network presets' bounds exceed the aggressive preset's
    // measured total and the pruned sweep must evaluate strictly fewer
    // candidates than the exhaustive one — while choosing identically.
    let cfg = ClusterConfig::default();
    let mut template = short_run(ServerScheme::EpronsServer, ConsolidationSpec::AllOn);
    template.server_utilization = 0.05;
    template.background_util = 0.05;
    let ctx = ScenarioContext::build(&cfg, &ScenarioSpec::of_run(&template));
    let candidates: Vec<ConsolidationSpec> = std::iter::once(ConsolidationSpec::AllOn)
        .chain(AggregationLevel::ALL.map(ConsolidationSpec::Level))
        .collect();
    let (cold, _) = optimize_in_context_masked(&ctx, ServerScheme::EpronsServer, &candidates, &[]);
    let (warm, _) =
        optimize_in_context_pruned(&ctx, ServerScheme::EpronsServer, &candidates, &[], None);
    let (cold, warm) = (cold.unwrap(), warm.unwrap());
    assert_eq!(cold.spec, warm.spec);
    assert_eq!(result_bits(&cold.result), result_bits(&warm.result));
    assert_eq!(cold.evaluated, candidates.len() as u64);
    assert!(
        warm.evaluated < cold.evaluated,
        "pruned sweep evaluated {} of {} — expected at least one prune at light load",
        warm.evaluated,
        cold.evaluated
    );
}

#[test]
fn pre_grown_vp_ladder_is_invisible_to_results() {
    // A fresh context grows only the ladder levels, spectra and
    // conditioned slots its own evaluation needs. A context whose shared
    // ladder was grown far deeper first — levels, their FFT spectra at
    // several sizes, and the conditioned sums of heads at every bin of the
    // work PMF — must agree with it exactly: each level is a pure function
    // of the previous one, each spectrum of its level and FFT size, and
    // each conditioned sum's masses of its head class and level, so where
    // they came from can never leak into the numbers.
    let cfg = ClusterConfig::default();
    let run = short_run(ServerScheme::EpronsServer, ConsolidationSpec::GreedyK(2.0));
    let fresh = run_cluster(&cfg, &run).unwrap();

    let ctx = ScenarioContext::for_template(&cfg, &run);
    let ladder = ctx.vp_ladder();
    let mut engine = VpEngine::shared(Arc::clone(ladder));
    let top = engine.service().work_pmf().max_value();
    let deadlines: Vec<f64> = (1..=48).map(|i| i as f64 * 1.0e-3).collect();
    // Heads at a third of the way into every bin fill the conditioned
    // slots at origins the evaluation's heads will not share, under
    // budgets of 1–3 ms: the ladder has been asked no further yet, so the
    // slots keep only what such short budgets read.
    let work = engine.service().work_pmf().clone();
    for bin in 0..=work.len() {
        let head = InflightHead {
            done_work_gc: work.origin() + (bin as f64 + 0.3) * work.step(),
            rem_fixed_s: 0.0,
        };
        let _ = engine.decision(0.0, Some(head), &deadlines[..3]);
    }
    for eighth in 1..8 {
        // Conditioned heads of different lengths need different FFT sizes.
        let head = InflightHead {
            done_work_gc: top * eighth as f64 / 8.0,
            rem_fixed_s: 0.0,
        };
        let _ = engine.decision(0.0, Some(head), &deadlines);
    }
    let (levels, bytes) = (ladder.levels(), ladder.spectrum_bytes());
    assert!(levels >= 47, "pre-grown to {levels} levels");
    assert!(bytes > 0, "pre-grown spectra");
    assert!(
        ladder.conditioned_bytes() > 0,
        "pre-filled conditioned slots"
    );
    assert!(ladder.head_bytes() > 0, "pre-filled head classes");
    assert!(
        engine.tally().conditioned_hits > 0,
        "repeated head bins hit"
    );

    // The evaluation's longer budgets must widen some of the slots filled
    // under 1–3 ms deadlines: the too-short path runs too.
    let widened = ladder.widened();
    let warm = ctx.evaluate(run.scheme, run.consolidation).unwrap();
    assert_eq!(result_bits(&fresh), result_bits(&warm));
    assert!(
        ladder.widened() > widened,
        "no evaluation widened a slot ({widened} before)"
    );
}
