//! The end-to-end cluster simulator (paper §V-A's platform).
//!
//! One run reproduces the paper's MiniNet experiment: a 4-ary fat-tree
//! carrying background elephants plus partition–aggregate search queries
//! (a random aggregator broadcasts sub-queries to the other 15 ISNs), with
//!
//! 1. traffic consolidation choosing the active subgraph and flow paths,
//! 2. per-sub-query network latencies sampled from the utilization→latency
//!    model along the assigned paths,
//! 3. per-ISN DVFS simulation under the selected server scheme, with the
//!    request network slack transferred into each request's compute budget
//!    for the slack-aware schemes, and
//! 4. power and tail-latency accounting across both layers.
//!
//! This module owns the run *vocabulary* (schemes, candidate specs,
//! results) and the one-shot [`run_cluster`] entry point; the stages
//! themselves live in [`crate::scenario`], where
//! [`crate::scenario::ScenarioContext`] lets callers
//! that evaluate many candidates of one scenario (the optimizer, the day
//! controller, the figure sweeps) pay the workload build once.

use eprons_net::ConsolidationError;
use eprons_topo::AggregationLevel;

use crate::accounting::PowerBreakdown;
use crate::config::ClusterConfig;
use crate::scenario::ScenarioContext;

/// The server power-management scheme under test (Fig. 12's lines).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServerScheme {
    /// Always `f_max`.
    NoPowerManagement,
    /// Max-VP criterion, no network slack.
    Rubik,
    /// Max-VP criterion with per-request network slack.
    RubikPlus,
    /// 5 s feedback on the measured tail; whole network budget when the
    /// DCN is uncongested.
    TimeTrader,
    /// EPRONS-Server: average-VP criterion, EDF, per-request slack.
    EpronsServer,
    /// Extension: deep idle sleep + max-VP DVFS with per-request slack
    /// (the DynSleep/SleepScale direction; not one of the paper's
    /// baselines, hence excluded from [`ServerScheme::ALL`]).
    DeepSleep,
}

impl ServerScheme {
    /// Every scheme, baseline first.
    pub const ALL: [ServerScheme; 5] = [
        ServerScheme::NoPowerManagement,
        ServerScheme::Rubik,
        ServerScheme::TimeTrader,
        ServerScheme::RubikPlus,
        ServerScheme::EpronsServer,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            ServerScheme::NoPowerManagement => "no-power-management",
            ServerScheme::Rubik => "rubik",
            ServerScheme::RubikPlus => "rubik+",
            ServerScheme::TimeTrader => "timetrader",
            ServerScheme::EpronsServer => "eprons-server",
            ServerScheme::DeepSleep => "deep-sleep",
        }
    }

    /// Whether per-request network slack extends this scheme's deadlines.
    pub(crate) fn uses_request_slack(&self) -> bool {
        matches!(
            self,
            ServerScheme::RubikPlus | ServerScheme::EpronsServer | ServerScheme::DeepSleep
        )
    }
}

/// How the network layer is configured for a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConsolidationSpec {
    /// Everything on, ECMP-balanced — the "no network power management"
    /// baseline (also TimeTrader's network, which saves no DCN power).
    AllOn,
    /// A fixed Fig. 9 aggregation preset.
    Level(AggregationLevel),
    /// Greedy latency-aware consolidation with scale factor `K`.
    GreedyK(f64),
}

impl ConsolidationSpec {
    /// Short label used in journal events and optimizer traces
    /// (`all-on`, `agg2`, `k=3`).
    pub fn label(&self) -> String {
        match self {
            ConsolidationSpec::AllOn => "all-on".to_string(),
            ConsolidationSpec::Level(l) => format!("agg{}", l.index()),
            ConsolidationSpec::GreedyK(k) => format!("k={k}"),
        }
    }
}

/// Parameters of one cluster run.
#[derive(Debug, Clone)]
pub struct ClusterRun {
    /// Server scheme.
    pub scheme: ServerScheme,
    /// Network configuration.
    pub consolidation: ConsolidationSpec,
    /// Target per-ISN utilization (drives the query rate).
    pub server_utilization: f64,
    /// Background traffic as a fraction of link capacity (0 disables).
    pub background_util: f64,
    /// Simulated seconds of query arrivals *measured*.
    pub duration_s: f64,
    /// Warmup seconds simulated before measurement starts (lets the 5 s
    /// TimeTrader control loop settle; model-based per-request schemes are
    /// stationary from the first request and need none).
    pub warmup_s: f64,
    /// Master seed.
    pub seed: u64,
}

impl Default for ClusterRun {
    fn default() -> Self {
        ClusterRun {
            scheme: ServerScheme::EpronsServer,
            consolidation: ConsolidationSpec::AllOn,
            server_utilization: 0.3,
            background_util: 0.2,
            duration_s: 20.0,
            warmup_s: 0.0,
            seed: 2018,
        }
    }
}

/// Everything a run measures.
#[derive(Debug, Clone)]
pub struct ClusterRunResult {
    /// Power split (servers incl. static; network switches + links).
    pub breakdown: PowerBreakdown,
    /// CPU-only power across all servers, watts (Fig. 12's y-axis).
    pub cpu_power_w: f64,
    /// Active switches after consolidation.
    pub active_switches: usize,
    /// Node indices of the active switches (for churn accounting).
    pub active_switch_ids: Vec<usize>,
    /// Peak link utilization (actual carried load).
    pub max_link_utilization: f64,
    /// Number of queries issued.
    pub query_count: usize,
    /// Per-query network latency (max over ISNs of request+reply, the
    /// partition–aggregate straggler effect of Figs. 10–11), seconds.
    pub net_latency: LatencySummary,
    /// Per-sub-query server latency, seconds.
    pub server_latency: LatencySummary,
    /// Per-sub-request end-to-end latency (request + server + reply —
    /// the SLA currency of Figs. 12–13), seconds.
    pub e2e_latency: LatencySummary,
    /// Per-query end-to-end latency (max over ISNs), seconds.
    pub query_e2e_latency: LatencySummary,
    /// Fraction of sub-requests whose end-to-end latency exceeded the
    /// SLA total.
    pub e2e_miss_rate: f64,
    /// Fraction of sub-queries whose server latency exceeded their own
    /// budget.
    pub server_miss_rate: f64,
}

/// Mean and tail percentiles of a latency population.
#[derive(Debug, Clone, Copy)]
pub struct LatencySummary {
    /// Arithmetic mean, seconds.
    pub mean_s: f64,
    /// 95th percentile, seconds.
    pub p95_s: f64,
    /// 99th percentile, seconds.
    pub p99_s: f64,
}

impl LatencySummary {
    pub(crate) fn from_samples(samples: &[f64]) -> LatencySummary {
        if samples.is_empty() {
            return LatencySummary {
                mean_s: 0.0,
                p95_s: 0.0,
                p99_s: 0.0,
            };
        }
        let [p95_s, p99_s] = eprons_num::quantile::percentiles(samples, [0.95, 0.99]);
        LatencySummary {
            mean_s: samples.iter().sum::<f64>() / samples.len() as f64,
            p95_s,
            p99_s,
        }
    }
}

impl ClusterRunResult {
    /// Whether this configuration met the end-to-end SLA (with a small
    /// simulation-noise margin on the miss budget).
    pub fn is_feasible(&self, cfg: &ClusterConfig) -> bool {
        self.e2e_miss_rate <= cfg.sla.miss_budget() + 0.03
    }
}

/// Run failures.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// The consolidator could not place the offered traffic.
    Consolidation(ConsolidationError),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Consolidation(e) => write!(f, "consolidation failed: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// Runs one cluster experiment.
///
/// A thin wrapper over the staged pipeline: it builds a fresh
/// [`ScenarioContext`] for the run's scenario axes and evaluates the
/// run's (scheme, consolidation) pair against it. Callers that evaluate
/// several candidates of the *same* scenario should build the context
/// once and call [`ScenarioContext::evaluate`] per candidate instead —
/// the results are bit-identical either way.
///
/// ```
/// use eprons_core::{run_cluster, ClusterConfig, ClusterRun, ServerScheme, ConsolidationSpec};
/// let cfg = ClusterConfig::default();
/// let run = ClusterRun {
///     scheme: ServerScheme::EpronsServer,
///     consolidation: ConsolidationSpec::GreedyK(2.0),
///     server_utilization: 0.2,
///     background_util: 0.1,
///     duration_s: 1.0,
///     warmup_s: 0.0,
///     seed: 1,
/// };
/// let r = run_cluster(&cfg, &run).unwrap();
/// assert!(r.breakdown.total_w() > 0.0);
/// assert!(r.active_switches <= 20);
/// ```
pub fn run_cluster(
    cfg: &ClusterConfig,
    run: &ClusterRun,
) -> Result<ClusterRunResult, ClusterError> {
    let ctx = ScenarioContext::for_template(cfg, run);
    ctx.evaluate(run.scheme, run.consolidation)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_run() -> ClusterRun {
        ClusterRun {
            scheme: ServerScheme::EpronsServer,
            consolidation: ConsolidationSpec::Level(AggregationLevel::Agg0),
            server_utilization: 0.3,
            background_util: 0.2,
            duration_s: 5.0,
            warmup_s: 0.0,
            seed: 42,
        }
    }

    #[test]
    fn smoke_run_produces_sane_numbers() {
        let cfg = ClusterConfig::default();
        let r = run_cluster(&cfg, &base_run()).unwrap();
        assert!(r.query_count > 100, "queries: {}", r.query_count);
        // 16 servers: static 320 W + CPU in [16×12×1.4, 16×12×4.4].
        assert!(r.breakdown.server_w > 320.0 + 16.0 * 12.0 * 1.3);
        assert!(r.breakdown.server_w < 320.0 + 16.0 * 12.0 * 4.5);
        // Full network on Agg0.
        assert_eq!(r.active_switches, 20);
        assert!(r.net_latency.p95_s > 0.0);
        // The three journaled tails are ordered by construction:
        // `core.cluster.e2e_p95_s` is per sub-request (request + server +
        // reply), so every sample dominates its `core.cluster.server_p95_s`
        // counterpart, and `core.cluster.query_e2e_p95_s` takes the max of
        // those sub-requests over a query's 15 ISNs.
        assert!(r.e2e_latency.p95_s >= r.server_latency.p95_s);
        assert!(r.query_e2e_latency.p95_s >= r.e2e_latency.p95_s);
        assert!(r.net_latency.p95_s >= 0.8e-3, "6-hop base ≈ 0.8 ms");
        assert!(r.max_link_utilization > 0.1 && r.max_link_utilization < 1.5);
    }

    #[test]
    fn eprons_saves_cpu_power_vs_no_pm() {
        let cfg = ClusterConfig::default();
        let mut run = base_run();
        let eprons = run_cluster(&cfg, &run).unwrap();
        run.scheme = ServerScheme::NoPowerManagement;
        let nopm = run_cluster(&cfg, &run).unwrap();
        assert!(
            eprons.cpu_power_w < nopm.cpu_power_w,
            "eprons {} vs no-pm {}",
            eprons.cpu_power_w,
            nopm.cpu_power_w
        );
        // And stays feasible.
        assert!(eprons.is_feasible(&cfg), "miss {}", eprons.e2e_miss_rate);
    }

    #[test]
    fn aggregation_trades_network_power_for_latency() {
        let cfg = ClusterConfig::default();
        let mut run = base_run();
        let agg0 = run_cluster(&cfg, &run).unwrap();
        run.consolidation = ConsolidationSpec::Level(AggregationLevel::Agg3);
        let agg3 = run_cluster(&cfg, &run).unwrap();
        assert!(agg3.breakdown.network_w < agg0.breakdown.network_w);
        assert!(agg3.active_switches == 13 && agg0.active_switches == 20);
        assert!(
            agg3.net_latency.p95_s > agg0.net_latency.p95_s,
            "consolidation must raise the network tail: {} vs {}",
            agg3.net_latency.p95_s,
            agg0.net_latency.p95_s
        );
    }

    #[test]
    fn network_slack_helps_rubik_plus() {
        let cfg = ClusterConfig::default();
        let mut run = base_run();
        run.scheme = ServerScheme::Rubik;
        let rubik = run_cluster(&cfg, &run).unwrap();
        run.scheme = ServerScheme::RubikPlus;
        let plus = run_cluster(&cfg, &run).unwrap();
        assert!(
            plus.cpu_power_w <= rubik.cpu_power_w + 1.0,
            "rubik+ {} should not exceed rubik {}",
            plus.cpu_power_w,
            rubik.cpu_power_w
        );
    }

    #[test]
    fn greedy_consolidation_turns_switches_off() {
        let cfg = ClusterConfig::default();
        let mut run = base_run();
        run.consolidation = ConsolidationSpec::GreedyK(1.0);
        let r = run_cluster(&cfg, &run).unwrap();
        assert!(
            r.active_switches < 20,
            "greedy should power down unused switches, kept {}",
            r.active_switches
        );
    }

    #[test]
    fn deep_sleep_extension_saves_most_at_low_load() {
        let cfg = ClusterConfig::default();
        let mut run = base_run();
        run.server_utilization = 0.05;
        run.scheme = ServerScheme::DeepSleep;
        let sleep = run_cluster(&cfg, &run).unwrap();
        run.scheme = ServerScheme::EpronsServer;
        let eprons = run_cluster(&cfg, &run).unwrap();
        assert!(
            sleep.cpu_power_w < eprons.cpu_power_w,
            "at 5% load sleeping ({}) must beat DVFS ({})",
            sleep.cpu_power_w,
            eprons.cpu_power_w
        );
        assert!(sleep.is_feasible(&cfg), "miss {}", sleep.e2e_miss_rate);
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = ClusterConfig::default();
        let run = base_run();
        let a = run_cluster(&cfg, &run).unwrap();
        let b = run_cluster(&cfg, &run).unwrap();
        assert_eq!(a.cpu_power_w, b.cpu_power_w);
        assert_eq!(a.e2e_latency.p95_s, b.e2e_latency.p95_s);
        assert_eq!(a.query_count, b.query_count);
    }
}
