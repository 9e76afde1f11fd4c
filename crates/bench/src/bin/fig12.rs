//! Figure 12 — server power management in isolation (no network power
//! management; 20 % background traffic; full network on).
//!
//! (a) server utilization 10–50 % vs. CPU power at a 30 ms constraint
//!     (25 ms server + 5 ms network): ordering no-PM > Rubik > TimeTrader
//!     ≥ Rubik+ > EPRONS-Server (TimeTrader wins only at very low load);
//! (b) request tail-latency constraint 18–40 ms vs. CPU power at 30 %
//!     utilization: nothing meets <18 ms; EPRONS-Server lowest beyond;
//! (c) EPRONS-Server power across the (utilization × constraint) grid.
//!
//! The scenario build is SLA-independent, so each (utilization, seed)
//! point builds its workload once and runs every (scheme, constraint)
//! pair on one all-on plan through [`ScenarioContext::evaluate_grid`] —
//! panel (b) shares 2 builds and 2 plans across its 50 runs. TimeTrader
//! needs its own context per point: its 5 s feedback loop must settle, so
//! it simulates a 60 s warmup the other schemes skip.

use eprons_bench::{banner, cfg_with_total_ms, sweep_duration_s, BASE_SEED};
use eprons_core::config::SlaConfig;
use eprons_core::report::Table;
use eprons_core::scenario::{ScenarioContext, ScenarioSpec};
use eprons_core::{ClusterRunResult, ConsolidationSpec, ServerScheme};

fn context(util: f64, total_ms: f64, seed: u64, warmup_s: f64) -> ScenarioContext {
    ScenarioContext::build(
        &cfg_with_total_ms(total_ms),
        &ScenarioSpec {
            server_utilization: util,
            background_util: 0.2,
            duration_s: sweep_duration_s(),
            warmup_s,
            seed,
        },
    )
}

/// Every `(scheme, SLA)` run on the all-on network, in run order.
/// TimeTrader's feedback loop needs warmup, so its runs go to
/// `timetrader`; everything else is stationary from the first request and
/// shares the warmup-free `plain` context.
fn all_on(
    plain: &ScenarioContext,
    timetrader: &ScenarioContext,
    runs: &[(ServerScheme, SlaConfig)],
) -> Vec<ClusterRunResult> {
    let is_tt = |scheme: ServerScheme| scheme == ServerScheme::TimeTrader;
    let grid = |ctx: &ScenarioContext, tt: bool| {
        let subset: Vec<_> = runs.iter().filter(|r| is_tt(r.0) == tt).cloned().collect();
        ctx.evaluate_grid(ConsolidationSpec::AllOn, &subset)
            .into_iter()
            .map(|r| r.expect("all-on routing always succeeds"))
    };
    let (mut tt, mut rest) = (grid(timetrader, true), grid(plain, false));
    runs.iter()
        .map(|r| if is_tt(r.0) { tt.next() } else { rest.next() })
        .map(|r| r.expect("one result per run"))
        .collect()
}

fn main() {
    banner(
        "Fig. 12",
        "server power sensitivity (CPU watts, 16 servers × 12 cores)",
    );
    let schemes = ServerScheme::ALL;

    let mut a = Table::new(
        "(a) CPU power (W) vs server utilization, 30 ms constraint",
        &["util%", "no-pm", "rubik", "timetrader", "rubik+", "eprons"],
    );
    let sla_30 = cfg_with_total_ms(30.0).sla;
    for util in [0.1, 0.2, 0.3, 0.4, 0.5] {
        let plain = context(util, 30.0, BASE_SEED, 0.0);
        let tt = context(util, 30.0, BASE_SEED, 60.0);
        let runs = schemes.map(|s| (s, sla_30.clone()));
        let mut row = vec![format!("{:.0}", util * 100.0)];
        for r in all_on(&plain, &tt, &runs) {
            row.push(format!("{:.1}", r.cpu_power_w));
        }
        a.row(&row);
    }
    println!("{a}");
    println!(
        "paper shape (a): Rubik highest of the managed schemes; EPRONS-Server lowest everywhere;"
    );
    println!("Rubik+ and EPRONS beat TimeTrader except possibly at 10% load\n");

    let mut b = Table::new(
        "(b) CPU power (W) and e2e miss rate vs tail-latency constraint, 30% utilization",
        &[
            "constraint-ms",
            "no-pm",
            "rubik",
            "timetrader",
            "rubik+",
            "eprons",
            "eprons-miss%",
        ],
    );
    let plain_b = context(0.3, 30.0, BASE_SEED + 1, 0.0);
    let tt_b = context(0.3, 30.0, BASE_SEED + 1, 60.0);
    let totals_b = [18.0, 19.0, 20.0, 22.0, 25.0, 28.0, 31.0, 34.0, 37.0, 40.0];
    let runs_b: Vec<_> = totals_b
        .iter()
        .flat_map(|&total| schemes.map(|s| (s, cfg_with_total_ms(total).sla)))
        .collect();
    let results_b = all_on(&plain_b, &tt_b, &runs_b);
    for (total, results) in totals_b.iter().zip(results_b.chunks(schemes.len())) {
        let mut row = vec![format!("{total:.0}")];
        let mut eprons_miss = 0.0;
        for (s, r) in schemes.iter().zip(results) {
            row.push(format!("{:.1}", r.cpu_power_w));
            if *s == ServerScheme::EpronsServer {
                eprons_miss = r.e2e_miss_rate;
            }
        }
        row.push(format!("{:.1}", eprons_miss * 100.0));
        b.row(&row);
    }
    println!("{b}");
    println!(
        "paper shape (b): EPRONS-Server misses the 5% budget below ≈22 ms (miss rate climbs);"
    );
    println!("power falls as the constraint loosens; EPRONS-Server lowest from ≈19 ms on\n");

    let mut c = Table::new(
        "(c) EPRONS-Server CPU power (W) across (utilization, constraint)",
        &["constraint-ms", "10%", "20%", "30%", "40%", "50%"],
    );
    let totals_c = [19.0, 22.0, 25.0, 28.0, 31.0, 34.0, 37.0, 40.0];
    let runs_c = totals_c.map(|total| (ServerScheme::EpronsServer, cfg_with_total_ms(total).sla));
    // One column per utilization, one row per constraint.
    let columns_c: Vec<Vec<ClusterRunResult>> = [0.1, 0.2, 0.3, 0.4, 0.5]
        .iter()
        .map(|&util| {
            context(util, 30.0, BASE_SEED + 2, 0.0)
                .evaluate_grid(ConsolidationSpec::AllOn, &runs_c)
                .into_iter()
                .map(|r| r.expect("all-on routing always succeeds"))
                .collect()
        })
        .collect();
    for (i, total) in totals_c.iter().enumerate() {
        let mut row = vec![format!("{total:.0}")];
        for column in &columns_c {
            row.push(format!("{:.1}", column[i].cpu_power_w));
        }
        c.row(&row);
    }
    println!("{c}");
    println!("paper shape (c): power drops steeply as the constraint first loosens, at every load");
    eprons_bench::finish();
}
