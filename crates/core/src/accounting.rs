//! Power breakdowns, savings arithmetic (Fig. 15b's bars), and the final
//! accounting stage of the staged cluster pipeline.

use crate::cluster::{ClusterRunResult, LatencySummary};
use crate::scenario::{NetworkPlan, ScenarioContext, ServerEvaluation};

/// Stage 4 of the pipeline: folds the per-server shards and the network
/// plan's latencies into a [`ClusterRunResult`].
///
/// The reduction walks shards in server-index order so floating-point
/// accumulation (and therefore every derived statistic) is bit-identical
/// to the monolithic serial loop, regardless of how many threads ran the
/// server stage.
pub(crate) fn assemble(
    ctx: &ScenarioContext,
    plan: &NetworkPlan,
    eval: &ServerEvaluation,
) -> ClusterRunResult {
    let _t = eprons_obs::Timer::scoped("core.stage.accounting_s");
    let _sp = eprons_obs::Span::enter("stage.accounting");
    let d = &*ctx.data;
    let cfg = &ctx.cfg;

    let mut cpu_power_w = 0.0;
    let mut server_w = 0.0;
    let mut server_latencies: Vec<f64> = Vec::new();
    let mut server_misses = 0usize;
    let mut server_completions = 0usize;
    // Warmup queries are simulated but not scored. Queries are generated
    // in arrival order with ids equal to their index, so the scored ones
    // are the suffix from id `first`.
    let first = d.queries.partition_point(|q| q.time_s < d.warmup_s);
    let scored = &d.queries[first..];
    // Server latency per (server, scored query), flat: shard `s`'s row
    // holds one slot per scored query, NaN until its sub-query completes.
    let nq = scored.len();
    let mut lat_of = vec![f64::NAN; eval.shards.len() * nq];
    for (s, shard) in eval.shards.iter().enumerate() {
        cpu_power_w += cfg.cpu.cores as f64 * shard.avg_core_w;
        server_w += cfg.cpu.server_w(shard.avg_core_w);
        for &(tag, lat, budget) in &shard.completions {
            server_latencies.push(lat);
            server_completions += 1;
            if lat > budget {
                server_misses += 1;
            }
            if let Some(i) = (tag as usize).checked_sub(first) {
                lat_of[s * nq + i] = lat;
            }
        }
    }

    // --- Query- and request-level assembly. ---
    let n = d.hosts.len();
    let mut query_net: Vec<f64> = Vec::with_capacity(d.queries.len());
    let mut query_e2e: Vec<f64> = Vec::with_capacity(d.queries.len());
    let mut e2e: Vec<f64> = Vec::with_capacity(d.queries.len() * n);
    for q in scored {
        let mut worst_net: f64 = 0.0;
        let mut worst_e2e: f64 = 0.0;
        for &(s, req, rep) in &plan.net_lat[q.id as usize] {
            let srv = lat_of[s * nq + q.id as usize - first];
            assert!(!srv.is_nan(), "every sub-query completes");
            worst_net = worst_net.max(req + rep);
            worst_e2e = worst_e2e.max(req + srv + rep);
            e2e.push(req + srv + rep);
        }
        query_net.push(worst_net);
        query_e2e.push(worst_e2e);
    }
    let e2e_misses = e2e.iter().filter(|&&l| l > cfg.sla.total_s()).count();

    let network_w = plan.assignment.network_power_w(&d.ft, &cfg.net_power);
    let active_switch_ids: Vec<usize> =
        d.ft.topology()
            .switches()
            .into_iter()
            .filter(|&node| plan.assignment.state().node_on(node))
            .map(|node| node.0)
            .collect();
    ClusterRunResult {
        breakdown: PowerBreakdown {
            server_w,
            network_w,
        },
        cpu_power_w,
        active_switches: plan.assignment.active_switch_count(&d.ft),
        active_switch_ids,
        max_link_utilization: plan.max_link_utilization,
        query_count: query_net.len(),
        net_latency: LatencySummary::from_samples(&query_net),
        server_latency: LatencySummary::from_samples(&server_latencies),
        e2e_latency: LatencySummary::from_samples(&e2e),
        query_e2e_latency: LatencySummary::from_samples(&query_e2e),
        e2e_miss_rate: if e2e.is_empty() {
            0.0
        } else {
            e2e_misses as f64 / e2e.len() as f64
        },
        server_miss_rate: if server_completions == 0 {
            0.0
        } else {
            server_misses as f64 / server_completions as f64
        },
    }
}

/// A total-power snapshot split into its two layers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerBreakdown {
    /// All servers (static + CPU), watts.
    pub server_w: f64,
    /// DCN (switches + links), watts.
    pub network_w: f64,
}

impl PowerBreakdown {
    /// Total watts.
    pub fn total_w(&self) -> f64 {
        self.server_w + self.network_w
    }

    /// Fractional saving of `self` relative to a baseline (positive =
    /// saving). Returns per-layer and total savings.
    pub fn saving_vs(&self, baseline: &PowerBreakdown) -> Savings {
        let frac = |ours: f64, base: f64| {
            if base > 0.0 {
                (base - ours) / base
            } else {
                0.0
            }
        };
        Savings {
            server: frac(self.server_w, baseline.server_w),
            network: frac(self.network_w, baseline.network_w),
            total: frac(self.total_w(), baseline.total_w()),
        }
    }
}

/// Fractional savings per layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Savings {
    /// Server-layer saving fraction.
    pub server: f64,
    /// Network-layer saving fraction.
    pub network: f64,
    /// Total saving fraction.
    pub total: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_savings() {
        let base = PowerBreakdown {
            server_w: 1000.0,
            network_w: 600.0,
        };
        let ours = PowerBreakdown {
            server_w: 800.0,
            network_w: 300.0,
        };
        assert_eq!(base.total_w(), 1600.0);
        let s = ours.saving_vs(&base);
        assert!((s.server - 0.2).abs() < 1e-12);
        assert!((s.network - 0.5).abs() < 1e-12);
        assert!((s.total - 500.0 / 1600.0).abs() < 1e-12);
    }

    #[test]
    fn zero_baseline_is_safe() {
        let base = PowerBreakdown {
            server_w: 0.0,
            network_w: 0.0,
        };
        let ours = base;
        let s = ours.saving_vs(&base);
        assert_eq!(s.total, 0.0);
    }

    #[test]
    fn negative_saving_when_worse() {
        let base = PowerBreakdown {
            server_w: 100.0,
            network_w: 100.0,
        };
        let worse = PowerBreakdown {
            server_w: 150.0,
            network_w: 100.0,
        };
        assert!(worse.saving_vs(&base).server < 0.0);
    }
}
