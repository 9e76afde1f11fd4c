//! Tests for the benchmark's own folding of journals and counters.

use std::collections::BTreeMap;

use eprons_obs::{Event, JournalEntry, Json, MetricsSnapshot};
use eprons_perfbench::layers::{hit_ratio, median, per_layer, self_time_by_name, Direct};

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A journal of completed spans `(id, parent, name, start_s, elapsed_s)`.
fn journal(spans: &[(u64, u64, &str, f64, f64)]) -> Vec<JournalEntry> {
    let mut events = Vec::new();
    for &(id, parent, name, start_s, _) in spans {
        events.push(Event::SpanStart {
            id,
            parent,
            thread: 0,
            name: name.to_string(),
            start_s,
        });
    }
    for &(id, _, name, _, elapsed_s) in spans.iter().rev() {
        events.push(Event::SpanEnd {
            id,
            name: name.to_string(),
            elapsed_s,
            detail: String::new(),
        });
    }
    events
        .into_iter()
        .enumerate()
        .map(|(seq, event)| JournalEntry {
            seq: seq as u64,
            event,
        })
        .collect()
}

fn direct() -> Direct {
    Direct {
        fattree_build_s: 0.001,
        threads: 2,
        cpu_per_wall: 1.5,
        span_coverage: 0.99,
        journal_dropped: 0,
    }
}

#[test]
fn self_time_subtracts_children_and_folds_by_name() {
    // day [0, 10) > epoch [1, 9) > {server_shard [2, 5), net.consolidate
    // [5, 8)}, plus a second epoch-less shard directly under the day.
    let entries = journal(&[
        (1, 0, "day", 0.0, 10.0),
        (2, 1, "epoch", 1.0, 8.0),
        (3, 2, "server_shard", 2.0, 3.0),
        (4, 2, "net.consolidate", 5.0, 3.0),
        (5, 1, "server_shard", 9.0, 0.5),
    ]);
    let s = self_time_by_name(&entries);
    let close = |name: &str, want: f64| {
        let got = s[name];
        assert!((got - want).abs() < 1e-12, "{name}: {got} != {want}");
    };
    close("day", 10.0 - 8.0 - 0.5);
    close("epoch", 8.0 - 3.0 - 3.0);
    close("server_shard", 3.0 + 0.5);
    close("net.consolidate", 3.0);
    assert_eq!(s.len(), 4);
}

#[test]
fn self_time_clamps_parallel_children_at_zero() {
    // Two shards ran side by side on two threads: their summed time
    // exceeds the parent's wall time, which must not go negative.
    let entries = journal(&[
        (1, 0, "stage.server_eval", 0.0, 1.0),
        (2, 1, "server_shard", 0.0, 0.9),
        (3, 1, "server_shard", 0.0, 0.9),
    ]);
    let s = self_time_by_name(&entries);
    assert_eq!(s["stage.server_eval"], 0.0);
    assert!((s["server_shard"] - 1.8).abs() < 1e-12);
}

#[test]
fn ratios_with_no_lookups_read_zero_not_nan() {
    assert_eq!(hit_ratio(0, 0), 0.0);
    assert_eq!(hit_ratio(3, 4), 0.75);
    // A cold day consults no day cache, result memo or pod cache.
    let metrics = per_layer(&[], &MetricsSnapshot::default(), &[], &direct());
    for m in &metrics {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
    let value = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} missing"))
            .value
    };
    for ratio in [
        "scenario.daycache_hit_ratio",
        "scenario.evalcache_hit_ratio",
        "scenario.plan_cache_hit_ratio",
        "net.pod_cache_hit_ratio",
        "server.serveval_hit_ratio",
        "optimizer.prune_ratio",
    ] {
        assert_eq!(value(ratio), 0.0, "{ratio}");
    }
    assert_eq!(value("scenario.daycache_lookups"), 0.0);
    assert_eq!(value("server.vp_decisions_per_s"), 0.0);
}

#[test]
fn hit_ratios_read_the_program_counters() {
    let snap = MetricsSnapshot {
        counters: vec![
            ("core.daycache.hits".into(), 3),
            ("core.daycache.misses".into(), 1),
            ("net.pods.cache_hits".into(), 6),
            ("net.pods.solved".into(), 2),
        ],
        ..MetricsSnapshot::default()
    };
    let metrics = per_layer(&[], &snap, &[], &direct());
    let value = |name: &str| metrics.iter().find(|m| m.name == name).expect(name).value;
    assert_eq!(value("scenario.daycache_hit_ratio"), 0.75);
    assert_eq!(value("scenario.daycache_lookups"), 4.0);
    assert_eq!(value("net.pod_cache_hit_ratio"), 0.75);
    assert_eq!(value("net.pod_cache_lookups"), 8.0);
}

#[test]
fn every_emitted_name_is_legal_and_unique() {
    let metrics = per_layer(&[], &MetricsSnapshot::default(), &[], &direct());
    let mut names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
    for n in &names {
        assert!(valid_name(n), "illegal metric name {n:?}");
    }
    let all = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), all, "duplicate metric names");
    for bad in [
        "",
        "has space",
        "slash/name",
        ".leading",
        "ünïcode",
        "x".repeat(65).as_str(),
    ] {
        assert!(!valid_name(bad), "{bad:?} accepted");
    }
}

#[test]
fn median_takes_the_lower_middle() {
    assert_eq!(median(&[]), 0.0);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
}

#[test]
fn benchmark_json_lists_every_emitted_per_layer_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let listed: BTreeMap<&str, &str> = doc
        .get("per_layer")
        .and_then(Json::as_arr)
        .expect("per_layer list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect("name and unit");
            (field("name"), field("unit"))
        })
        .collect();
    let metrics = per_layer(&[], &MetricsSnapshot::default(), &[], &direct());
    let mut emitted: BTreeMap<&str, &str> =
        metrics.iter().map(|m| (m.name.as_str(), m.unit)).collect();
    // Measured by run.py across an untraced and a traced process.
    emitted.insert("obs.overhead_ratio", "ratio");
    assert_eq!(listed, emitted);
}
