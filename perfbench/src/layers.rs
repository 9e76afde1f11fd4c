//! Per-layer metrics folded from one traced day: the journal's span
//! forest (self-time by span name), the metric registry's counters and
//! gauges, and the day's records.

use std::collections::BTreeMap;

use eprons_bench::obsctl::span_forest;
use eprons_core::DayRecord;
use eprons_obs::{JournalEntry, MetricsSnapshot};

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Wall seconds each span name spent in itself, excluding its child
/// spans, summed over every span of that name.
pub fn self_time_by_name(entries: &[JournalEntry]) -> BTreeMap<String, f64> {
    let forest = span_forest(entries);
    let mut out = BTreeMap::new();
    for (i, s) in forest.spans.iter().enumerate() {
        *out.entry(s.name.clone()).or_insert(0.0) += forest.self_s(i);
    }
    out
}

/// `hits / lookups`, or 0 when nothing was looked up (a cache the
/// workload never consults, such as the day cache on a cold day).
pub fn hit_ratio(hits: u64, lookups: u64) -> f64 {
    if lookups == 0 {
        0.0
    } else {
        hits as f64 / lookups as f64
    }
}

/// The nearest-rank median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    v[(v.len() - 1) / 2]
}

/// Measurements the benchmark takes itself rather than reading from the
/// program's telemetry.
pub struct Direct {
    /// Median wall seconds of `FatTree::new` for the workload's arity.
    pub fattree_build_s: f64,
    /// The thread budget the day ran under.
    pub threads: usize,
    /// Process CPU seconds spent during the day, over its wall seconds.
    pub cpu_per_wall: f64,
    /// Share of the day's wall time the leaf spans cover.
    pub span_coverage: f64,
    /// Events the journal dropped at its cap.
    pub journal_dropped: u64,
}

/// Folds one traced day into the per-layer metrics, in a fixed order.
pub fn per_layer(
    entries: &[JournalEntry],
    snap: &MetricsSnapshot,
    records: &[DayRecord],
    direct: &Direct,
) -> Vec<Metric> {
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };
    let gauge = |name: &str| {
        snap.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let self_s = self_time_by_name(entries);
    let own = |names: &[&str]| -> f64 { names.iter().filter_map(|n| self_s.get(*n)).sum() };
    let forest = span_forest(entries);
    let elapsed_s = |name: &str| -> Vec<f64> {
        forest
            .spans
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| s.elapsed_s)
            .collect()
    };
    let epoch_ms: Vec<f64> = elapsed_s("epoch").iter().map(|s| s * 1.0e3).collect();
    let shards_s = elapsed_s("server_shard");
    let shard_total_s: f64 = shards_s.iter().sum();
    let evaluated = elapsed_s("optimizer.candidate").len() as u64;
    let pruned = counter("core.optimizer.pruned");
    let vp_decisions = counter("server.vp.decisions");
    let lookups =
        |prefix: &str| counter(&format!("{prefix}.hits")) + counter(&format!("{prefix}.misses"));
    let pods_hits = counter("net.pods.cache_hits");
    let pods_lookups = pods_hits + counter("net.pods.solved");

    let sum = |f: fn(&DayRecord) -> f64| records.iter().map(f).sum::<f64>();
    let deferred = sum(|r| r.deferred_mbps_min);
    let drained = sum(|r| r.drained_mbps_min);

    let m = |name: &str, value: f64, unit: &'static str| Metric {
        name: name.to_string(),
        value,
        unit,
    };
    let count = |name: &str, value: u64| m(name, value as f64, "count");
    vec![
        m("topo.fattree_build_s", direct.fattree_build_s, "s"),
        m("net.arena_bytes", gauge("net.arena.bytes"), "bytes"),
        m("scenario.build_s", own(&["scenario.build"]), "s"),
        count("scenario.builds", counter("core.scenario.builds")),
        m("scenario.rebind_s", own(&["scenario.rebind"]), "s"),
        count("scenario.rebinds", counter("core.scenario.rebinds")),
        m(
            "scenario.daycache_hit_ratio",
            hit_ratio(counter("core.daycache.hits"), lookups("core.daycache")),
            "ratio",
        ),
        count("scenario.daycache_lookups", lookups("core.daycache")),
        m(
            "scenario.evalcache_hit_ratio",
            hit_ratio(counter("core.evalcache.hits"), lookups("core.evalcache")),
            "ratio",
        ),
        count("scenario.evalcache_lookups", lookups("core.evalcache")),
        m(
            "scenario.plan_cache_hit_ratio",
            hit_ratio(counter("core.plan_cache.hits"), lookups("core.plan_cache")),
            "ratio",
        ),
        count("scenario.plan_cache_lookups", lookups("core.plan_cache")),
        count("scenario.evaluations", counter("core.cluster.runs")),
        m(
            "optimizer.search_s",
            own(&["optimizer.search", "optimizer.candidate"]),
            "s",
        ),
        m("optimizer.bounds_s", own(&["optimizer.bounds"]), "s"),
        count("optimizer.evaluated", evaluated),
        count("optimizer.pruned", pruned),
        m(
            "optimizer.prune_ratio",
            hit_ratio(pruned, pruned + evaluated),
            "ratio",
        ),
        m(
            "net.consolidate_s",
            own(&[
                "net.consolidate",
                "pod.consolidate",
                "pod.stitch",
                "lp.solve",
                "lp.milp",
            ]),
            "s",
        ),
        count("net.consolidate_passes", counter("net.consolidate.passes")),
        count(
            "net.consolidate_infeasible",
            counter("net.consolidate.infeasible"),
        ),
        count("net.pods_solved", counter("net.pods.solved")),
        count("net.pods_cache_hits", pods_hits),
        m(
            "net.pod_cache_hit_ratio",
            hit_ratio(pods_hits, pods_lookups),
            "ratio",
        ),
        count("net.pod_cache_lookups", pods_lookups),
        count("net.pods_fallbacks", counter("net.pods.fallbacks")),
        m("net.repair_s", own(&["net.repair"]), "s"),
        m("net.latency_sample_s", own(&["latency_sample"]), "s"),
        m("server.shard_s", own(&["server_shard"]), "s"),
        count("server.shards", shards_s.len() as u64),
        m("server.arrivals_s", own(&["server_arrivals"]), "s"),
        count("server.vp_decisions", vp_decisions),
        m(
            "server.vp_decisions_per_s",
            if shard_total_s > 0.0 {
                vp_decisions as f64 / shard_total_s
            } else {
                0.0
            },
            "1/s",
        ),
        count(
            "server.dvfs_transitions",
            counter("server.dvfs.transitions"),
        ),
        m(
            "server.serveval_hit_ratio",
            hit_ratio(counter("core.serveval.hits"), lookups("core.serveval")),
            "ratio",
        ),
        count("server.serveval_lookups", lookups("core.serveval")),
        m("accounting_s", own(&["stage.accounting"]), "s"),
        m("controller.epoch_p50_ms", median(&epoch_ms), "ms"),
        m(
            "controller.epoch_max_ms",
            epoch_ms.iter().copied().fold(0.0, f64::max),
            "ms",
        ),
        count(
            "controller.holds",
            records.iter().filter(|r| r.held_by_hysteresis).count() as u64,
        ),
        m("controller.deferred_mbps_min", deferred, "Mbit-min"),
        m("controller.drained_mbps_min", drained, "Mbit-min"),
        m(
            "controller.dropped_mbps_min",
            (deferred - drained).max(0.0),
            "Mbit-min",
        ),
        count(
            "controller.degraded_epochs",
            records.iter().filter(|r| r.degradation.is_some()).count() as u64,
        ),
        count(
            "controller.sla_miss_epochs",
            records.iter().filter(|r| !r.feasible).count() as u64,
        ),
        count("parallel.threads", direct.threads as u64),
        m("parallel.cpu_per_wall", direct.cpu_per_wall, "ratio"),
        m("obs.span_coverage", direct.span_coverage, "ratio"),
        count("obs.journal_dropped", direct.journal_dropped),
    ]
}
