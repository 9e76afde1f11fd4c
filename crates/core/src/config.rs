//! Cluster-wide configuration: every calibrated constant in one place.

use eprons_net::{LatencyModel, NetworkPowerModel, TransitionModel};
use eprons_server::{CpuPowerModel, FreqLadder};

/// How the controller reacts when a switch dies mid-epoch (the
/// degradation ladder of `eprons_net::failure`, making §IV-B's
/// "backup paths" remark concrete).
#[derive(Debug, Clone)]
pub struct FailurePolicyConfig {
    /// Rung 1: try an in-epoch repair that re-routes only the victim
    /// flows, waking backup switches and charging their boot energy.
    pub attempt_repair: bool,
    /// Rung 2: if repair fails, re-consolidate the whole epoch with the
    /// failed switches masked out of every candidate.
    pub attempt_reconsolidate: bool,
    /// Mean time to failure for sampled schedules, minutes (default one
    /// week — failures are rare but not negligible).
    pub mttf_minutes: f64,
    /// Mean time to repair for sampled schedules, minutes.
    pub mttr_minutes: f64,
    /// Switch transition overheads used to price repairs (§IV-B's
    /// measured 72.52 s power-on time).
    pub transition: TransitionModel,
}

impl Default for FailurePolicyConfig {
    fn default() -> Self {
        FailurePolicyConfig {
            attempt_repair: true,
            attempt_reconsolidate: true,
            mttf_minutes: 10_080.0,
            mttr_minutes: 30.0,
            transition: TransitionModel::default(),
        }
    }
}

/// Temporal deferral of latency-tolerant background flows into demand
/// troughs ("Dynamic Deferral of Workload for Capacity Provisioning in
/// Data Centers", PAPERS.md).
///
/// Background (elephant) traffic above `defer_threshold` of link
/// capacity is shaved into a bounded queue — at most `max_defer_fraction`
/// of the epoch's demand, and only while the queue holds less than
/// `queue_cap_mbps_min` megabit-minutes. Each enqueued slab carries a
/// slack budget of `slack_epochs`; the queue drains greedily (FIFO)
/// whenever demand sits below `drain_headroom`, and slabs that outlive
/// their slack are dropped (counted, journaled, and conserved by
/// `obsctl audit`: enqueued == drained + dropped).
#[derive(Debug, Clone)]
pub struct DeferralConfig {
    /// Background utilization above which demand is shaved into the queue.
    pub defer_threshold: f64,
    /// Background utilization the drain path is allowed to fill up to.
    pub drain_headroom: f64,
    /// Largest fraction of an epoch's background demand that may defer.
    pub max_defer_fraction: f64,
    /// Queue bound, megabit-minutes of deferred traffic.
    pub queue_cap_mbps_min: f64,
    /// Epochs a deferred slab may wait before it is dropped.
    pub slack_epochs: usize,
}

impl Default for DeferralConfig {
    fn default() -> Self {
        DeferralConfig {
            defer_threshold: 0.35,
            drain_headroom: 0.30,
            max_defer_fraction: 0.5,
            // Two utilization-epochs at a 1 Gbps link and 60-minute
            // epochs: enough to shave both diurnal background peaks
            // without becoming an unbounded sink for dropped work.
            queue_cap_mbps_min: 120_000.0,
            slack_epochs: 12,
        }
    }
}

/// The online streaming controller's knobs: workload deferral, the one
/// cross-epoch mechanism. `OnlineConfig::default()` leaves it off
/// (sequential streaming only, every epoch identical to the batch
/// loop's); [`OnlineConfig::enabled`] turns it on with its default tuning.
#[derive(Debug, Clone, Default)]
pub struct OnlineConfig {
    /// Background-flow deferral; `None` admits all demand immediately.
    pub deferral: Option<DeferralConfig>,
}

impl OnlineConfig {
    /// Deferral on, default tuning.
    pub fn enabled() -> Self {
        OnlineConfig {
            deferral: Some(DeferralConfig::default()),
        }
    }
}

/// Day-scoped evaluation semantics: one scenario context per *day*
/// instead of one per epoch.
///
/// Under day scope the controller evaluates every epoch at a **constant
/// master seed** (the day seed, instead of a per-epoch derivation) and
/// quantizes demand onto the warm-start grid (5 % utilization steps), so
/// adjacent epochs at the same operating point present bit-identical
/// scenario specs. That is what makes cross-epoch reuse sound *and*
/// profitable: the [`crate::scenario::DayContext`] revives whole
/// contexts with every per-context memo in them: the plan memo, the
/// result memo, and the stage-3 reuse list
/// (`ScenarioData::server_evals`), which short-circuits repeated per-ISN
/// DVFS runs.
///
/// These semantics hold for the *rebuild baseline too*: a day-scoped
/// run with `incremental: false` rebuilds the context every epoch but
/// visits the same operating points, so the incremental path is
/// bit-identical to it (the replay harness pins
/// `day_total_energy_j` via `f64::to_bits`). `None` on
/// [`crate::DayConfig::day_scope`] keeps the legacy per-epoch-seed
/// behavior and every historical golden.
#[derive(Debug, Clone)]
pub struct DayScopeConfig {
    /// Reuse contexts/caches across epochs (`true`; the day then runs
    /// its epochs in sequence) or rebuild per epoch while keeping
    /// day-scope semantics (`false`, the baseline the speedup is
    /// measured against).
    pub incremental: bool,
}

impl Default for DayScopeConfig {
    fn default() -> Self {
        DayScopeConfig { incremental: true }
    }
}

/// Which consolidation architecture `GreedyK` network plans run.
///
/// `Monolithic` is the flat greedy over all flows — the differential
/// oracle. `PodDecomposed` solves each pod's intra traffic locally
/// (parallel across pods) and stitches inter-pod flows at the core
/// layer, falling back to monolithic whenever the decomposition cannot
/// place everything. `Auto` picks per fabric size: small trees stay
/// monolithic (bit-stable with historical goldens), large trees
/// decompose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConsolidateStrategy {
    /// Flat greedy consolidation over the whole flow set.
    Monolithic,
    /// Pod-local solves stitched at the core layer.
    PodDecomposed,
    /// `PodDecomposed` for k ≥ 12 fabrics, `Monolithic` below.
    #[default]
    Auto,
}

impl ConsolidateStrategy {
    /// Resolves `Auto` for a k-ary fat-tree.
    pub fn effective(self, fat_tree_k: usize) -> ConsolidateStrategy {
        match self {
            ConsolidateStrategy::Auto => {
                if fat_tree_k >= 12 {
                    ConsolidateStrategy::PodDecomposed
                } else {
                    ConsolidateStrategy::Monolithic
                }
            }
            other => other,
        }
    }

    /// Stable name for reports and bench schemas.
    pub fn name(self) -> &'static str {
        match self {
            ConsolidateStrategy::Monolithic => "monolithic",
            ConsolidateStrategy::PodDecomposed => "pod_decomposed",
            ConsolidateStrategy::Auto => "auto",
        }
    }
}

impl std::str::FromStr for ConsolidateStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "monolithic" | "mono" => Ok(ConsolidateStrategy::Monolithic),
            "pod_decomposed" | "pod" => Ok(ConsolidateStrategy::PodDecomposed),
            "auto" => Ok(ConsolidateStrategy::Auto),
            other => Err(format!(
                "unknown consolidate strategy {other:?} (expected monolithic|pod_decomposed|auto)"
            )),
        }
    }
}

/// The SLA split between network and servers (paper §V-B2: "30 ms
/// constraint (25 ms server budget and 5 ms network budget)").
#[derive(Debug, Clone)]
pub struct SlaConfig {
    /// Server compute budget, seconds.
    pub server_budget_s: f64,
    /// Network budget, seconds (request + reply combined).
    pub network_budget_s: f64,
    /// Fraction of the network budget attributed to the request direction
    /// (only request slack is transferred to the server, §IV-C).
    pub request_fraction: f64,
    /// SLA percentile (0.95).
    pub percentile: f64,
}

impl Default for SlaConfig {
    fn default() -> Self {
        SlaConfig {
            server_budget_s: 25.0e-3,
            network_budget_s: 5.0e-3,
            request_fraction: 0.5,
            percentile: 0.95,
        }
    }
}

impl SlaConfig {
    /// The end-to-end tail-latency constraint.
    pub fn total_s(&self) -> f64 {
        self.server_budget_s + self.network_budget_s
    }

    /// Miss-rate budget implied by the percentile (5 % at p95).
    pub fn miss_budget(&self) -> f64 {
        1.0 - self.percentile
    }

    /// Network budget for the request direction.
    pub fn request_budget_s(&self) -> f64 {
        self.network_budget_s * self.request_fraction
    }

    /// An SLA with the same structure but a different total constraint:
    /// the network budget keeps its size, the server gets the rest
    /// (how Figs. 12b and 13 sweep the constraint).
    pub fn with_total(&self, total_s: f64) -> SlaConfig {
        SlaConfig {
            server_budget_s: (total_s - self.network_budget_s).max(1.0e-3),
            ..self.clone()
        }
    }
}

/// Everything the cluster simulator needs.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Fat-tree arity (4 → 16 servers, 20 switches).
    pub fat_tree_k: usize,
    /// Link capacity, Mbps (1 Gbps).
    pub link_capacity_mbps: f64,
    /// Safety margin subtracted from usable link capacity, Mbps.
    pub safety_margin_mbps: f64,
    /// Per-(aggregator, ISN) query-traffic demand, Mbps.
    pub query_flow_mbps: f64,
    /// SLA split.
    pub sla: SlaConfig,
    /// DVFS ladder.
    pub ladder: FreqLadder,
    /// CPU power model.
    pub cpu: CpuPowerModel,
    /// Network power model.
    pub net_power: NetworkPowerModel,
    /// Utilization→latency model.
    pub latency: LatencyModel,
    /// Link-utilization threshold above which TimeTrader's congestion
    /// signal (ECN/queue build-up) withdraws its network slack.
    pub congestion_threshold: f64,
    /// Service-time log size used to fit the work PMF.
    pub service_log_samples: usize,
    /// Work-PMF resolution (bins).
    pub work_pmf_bins: usize,
    /// Switch-failure degradation policy.
    pub failure: FailurePolicyConfig,
    /// Consolidation architecture for `GreedyK` network plans.
    pub consolidate_strategy: ConsolidateStrategy,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            fat_tree_k: 4,
            link_capacity_mbps: 1000.0,
            safety_margin_mbps: 50.0,
            query_flow_mbps: 10.0,
            sla: SlaConfig::default(),
            ladder: FreqLadder::paper_default(),
            cpu: CpuPowerModel::default(),
            net_power: NetworkPowerModel::default(),
            latency: LatencyModel::default(),
            congestion_threshold: 0.7,
            service_log_samples: 30_000,
            work_pmf_bins: 160,
            failure: FailurePolicyConfig::default(),
            consolidate_strategy: ConsolidateStrategy::default(),
        }
    }
}

impl ClusterConfig {
    /// Number of servers (fat-tree hosts).
    pub fn num_servers(&self) -> usize {
        let half = self.fat_tree_k / 2;
        self.fat_tree_k * half * half
    }

    /// The cluster-wide query rate that produces a target per-ISN
    /// utilization, given the mean service time at `f_max`.
    ///
    /// Each query occupies every server except its aggregator, so the
    /// per-server arrival rate is `rate × (n−1)/n`.
    pub fn query_rate_for_utilization(&self, util: f64, mean_service_s: f64) -> f64 {
        let n = self.num_servers() as f64;
        util / mean_service_s * n / (n - 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = ClusterConfig::default();
        assert_eq!(c.num_servers(), 16);
        assert!((c.sla.total_s() - 30.0e-3).abs() < 1e-12);
        assert!((c.sla.miss_budget() - 0.05).abs() < 1e-12);
        assert!((c.sla.request_budget_s() - 2.5e-3).abs() < 1e-12);
    }

    #[test]
    fn with_total_preserves_network_budget() {
        let sla = SlaConfig::default().with_total(22.0e-3);
        assert!((sla.network_budget_s - 5.0e-3).abs() < 1e-12);
        assert!((sla.server_budget_s - 17.0e-3).abs() < 1e-12);
        assert!((sla.total_s() - 22.0e-3).abs() < 1e-12);
    }

    #[test]
    fn query_rate_accounts_for_aggregator_exclusion() {
        let c = ClusterConfig::default();
        // 30% util at 5 ms mean: per-server rate 60/s; cluster rate
        // 60 × 16/15 = 64/s.
        let r = c.query_rate_for_utilization(0.3, 5.0e-3);
        assert!((r - 64.0).abs() < 1e-9);
    }

    #[test]
    fn strategy_auto_resolves_by_fabric_size() {
        assert_eq!(
            ConsolidateStrategy::Auto.effective(4),
            ConsolidateStrategy::Monolithic
        );
        assert_eq!(
            ConsolidateStrategy::Auto.effective(8),
            ConsolidateStrategy::Monolithic
        );
        assert_eq!(
            ConsolidateStrategy::Auto.effective(12),
            ConsolidateStrategy::PodDecomposed
        );
        assert_eq!(
            ConsolidateStrategy::Auto.effective(16),
            ConsolidateStrategy::PodDecomposed
        );
        // Explicit choices pass through untouched.
        assert_eq!(
            ConsolidateStrategy::Monolithic.effective(24),
            ConsolidateStrategy::Monolithic
        );
        assert_eq!(
            ConsolidateStrategy::PodDecomposed.effective(4),
            ConsolidateStrategy::PodDecomposed
        );
        for s in ["monolithic", "pod_decomposed", "auto", "pod", "mono"] {
            let parsed: ConsolidateStrategy = s.parse().unwrap();
            let _ = parsed.name();
        }
        assert!("bogus".parse::<ConsolidateStrategy>().is_err());
    }

    #[test]
    fn online_defaults_are_coherent() {
        let d = OnlineConfig::enabled().deferral.unwrap();
        // Draining must stop below the defer threshold or the controller
        // would re-defer what it just drained, ping-ponging the queue.
        assert!(d.drain_headroom <= d.defer_threshold);
        assert!(d.max_defer_fraction > 0.0 && d.max_defer_fraction <= 1.0);
        assert!(d.queue_cap_mbps_min > 0.0 && d.slack_epochs >= 1);
        // Off by default: the epoch-batch day loop stays the default path.
        let off = OnlineConfig::default();
        assert!(off.deferral.is_none());
    }
}
