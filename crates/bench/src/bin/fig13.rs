//! Figure 13 — total system power vs. tail-latency constraint under the
//! four aggregation levels, at (a) 1 %, (b) 20 %, (c) 50 % background
//! traffic. Server utilization 30 %, EPRONS-Server on the servers.
//!
//! Paper shape: power falls as the constraint loosens; more aggressive
//! aggregation saves network power but loses feasibility at tight
//! constraints (aggregation 3 needs ≥29 ms at 20 % background and is
//! infeasible at 50 %); between ~29–31 ms, *turning a switch on*
//! (aggregation 3 → 2) lowers **total** power because the extra network
//! slack lets EPRONS-Server run slower — the paper's headline insight.
//!
//! One [`ScenarioContext`] per background panel, and one plan per
//! configuration: each configuration's 8 constraints run on that plan
//! through [`ScenarioContext::evaluate_grid`] — 3 workload builds and 15
//! plans for 120 runs.

use eprons_bench::{banner, cfg_with_total_ms, sweep_duration_s, BASE_SEED};
use eprons_core::report::Table;
use eprons_core::scenario::{ScenarioContext, ScenarioSpec};
use eprons_core::{ClusterRunResult, ConsolidationSpec, ServerScheme};
use eprons_topo::AggregationLevel;

const CONSTRAINTS_MS: [f64; 8] = [19.0, 22.0, 25.0, 28.0, 31.0, 34.0, 37.0, 40.0];

fn main() {
    banner(
        "Fig. 13",
        "total system power vs constraint × aggregation × background",
    );
    for (label, bg) in [("(a) 1%", 0.01), ("(b) 20%", 0.2), ("(c) 50%", 0.5)] {
        let base = ScenarioContext::build(
            &cfg_with_total_ms(CONSTRAINTS_MS[0]),
            &ScenarioSpec {
                server_utilization: 0.3,
                background_util: bg,
                duration_s: sweep_duration_s(),
                warmup_s: 0.0,
                seed: BASE_SEED,
            },
        );
        let mut t = Table::new(
            format!("{label} background traffic — total power (W); '-' = SLA infeasible"),
            &["constraint-ms", "no-pm", "agg0", "agg1", "agg2", "agg3"],
        );
        let cfgs = CONSTRAINTS_MS.map(cfg_with_total_ms);
        // One column per configuration (the no-power-management reference,
        // then each aggregation level), one row per constraint.
        let column = |scheme, spec: ConsolidationSpec, expect: &str| -> Vec<ClusterRunResult> {
            let runs = cfgs.clone().map(|cfg| (scheme, cfg.sla));
            base.evaluate_grid(spec, &runs)
                .into_iter()
                .map(|r| r.expect(expect))
                .collect()
        };
        let nopm = column(
            ServerScheme::NoPowerManagement,
            ConsolidationSpec::AllOn,
            "all-on never fails",
        );
        let levels = AggregationLevel::ALL.map(|level| {
            column(
                ServerScheme::EpronsServer,
                ConsolidationSpec::Level(level),
                "aggregation routing places all flows",
            )
        });
        for (i, (total, cfg)) in CONSTRAINTS_MS.iter().zip(&cfgs).enumerate() {
            let mut row = vec![format!("{total:.0}")];
            row.push(format!("{:.0}", nopm[i].breakdown.total_w()));
            for r in levels.iter().map(|column| &column[i]) {
                if r.is_feasible(cfg) {
                    row.push(format!("{:.0}", r.breakdown.total_w()));
                } else {
                    row.push(format!("-({:.0})", r.breakdown.total_w()));
                }
            }
            t.row(&row);
        }
        println!("{t}");
    }
    println!("paper shape: deeper aggregation = lower total power where feasible;");
    println!("aggregation 3 loses feasibility first as background traffic grows;");
    println!("near the feasibility edge, stepping back to aggregation 2 (turning switches ON)");
    println!("yields lower total power than an infeasible-or-strained aggregation 3");
    eprons_bench::finish();
}
