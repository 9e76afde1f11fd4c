//! Golden wire format: one journal line per event kind, with a fixed
//! payload, against text captured from the encoder before the schema
//! became one declaration.
//!
//! A round trip cannot catch a renamed field or a reordered key, because
//! the encoder and decoder change together; stored journals and the CI
//! smoke steps would. This pins the bytes.

use eprons_obs::{Event, JournalEntry, Snapshot};

/// One event of every kind, in declaration order. Strings exercise the
/// escape paths, floats the integer/fraction split of the number writer.
fn golden_events() -> Vec<Event> {
    vec![
        Event::DayStart {
            strategy: "eprons".into(),
            epochs: 144,
        },
        Event::EpochStart {
            epoch: 3,
            minute: 30.0,
            search_load: 0.62,
            background_util: 0.25,
        },
        Event::EpochSnapshot(Snapshot {
            epoch: 3,
            minute: 30.0,
            strategy: "eprons".into(),
            choice: "k=2".into(),
            server_w: 4000.0,
            network_w: 1120.5,
            active_switches: 12,
            e2e_p95_us: 61_250.0,
            feasible: true,
            boot_energy_j: 2610.72,
        }),
        Event::OptimizerCandidate {
            k: "k=2".into(),
            total_w: 5120.5,
            p95_us: 61_250.0,
            feasible: false,
        },
        Event::CandidateFailed {
            k: "k=8".into(),
            error: "path \"a\\b\"\nline2\t\u{1}é🦀".into(),
        },
        Event::CandidatePruned {
            k: "agg0".into(),
            bound_w: 1356.8,
            incumbent_w: 1212.4,
        },
        Event::OptimizerChoice {
            k: "k=2".into(),
            total_w: 5120.5,
            p95_us: 61_250.0,
            feasible: true,
            evaluated: 4,
        },
        Event::LpSolve {
            rows: 48,
            cols: 96,
            iters: 131,
            binding_constraints: vec!["cap[e12]".into(), "demand[f3]".into()],
        },
        Event::FreqTransition {
            policy: "eprons".into(),
            transitions: 812,
            decisions: 4096,
            final_ghz: 1.8,
        },
        Event::LinkStateChange {
            links_on: 2,
            links_off: 14,
            switches_on: 0,
            switches_off: 3,
        },
        Event::ConsolidationPass {
            algo: "greedy".into(),
            flows: 272,
            placed: 270,
            active_switches: 12,
        },
        Event::PodConsolidation {
            pods: 16,
            solved: 16,
            resolves: 1,
            rounds: 2,
            balanced: 1,
            fallback: false,
        },
        Event::ClockSkew {
            at_s: 1.25,
            last_s: -0.0,
        },
        Event::RunTag {
            scheme: "eprons".into(),
            consolidation: "k=1.5".into(),
            seed: 2018,
        },
        Event::ScenarioBuilt {
            seed: 9_007_199_254_740_991,
            queries: 20_000,
            flows: 272,
            servers: 16,
        },
        Event::FailureInjected {
            switch: 17,
            minute: 730.5,
            kind: "fail".into(),
        },
        Event::RepairOutcome {
            switch: 17,
            minute: 730.5,
            outcome: "repaired".into(),
            rerouted: 6,
            woken: 1,
            boot_energy_j: 2610.72,
        },
        Event::DegradedEpoch {
            epoch: 73,
            reason: "switch 17 failed mid-epoch; repair found no path".into(),
            fallback: "all-on-fallback".into(),
        },
        Event::SpanStart {
            id: 42,
            parent: 7,
            thread: 3,
            name: "stage.server_eval".into(),
            start_s: 0.0051234,
        },
        Event::SpanEnd {
            id: 42,
            name: "stage.server_eval".into(),
            elapsed_s: 1.3e-7,
            detail: String::new(),
        },
        Event::PowerSegment {
            epoch: 73,
            from_min: 730.0,
            to_min: 730.5,
            server_w: 4000.0,
            network_w: 1120.5,
        },
        Event::DayEnergy {
            strategy: "eprons".into(),
            epochs: 144,
            energy_j: 4.42e8,
            boot_energy_j: 5221.44,
        },
        Event::DeferralEnqueued {
            epoch: 75,
            mbps_min: 1200.0,
            queue_mbps_min: 1800.25,
            slack_epochs: 6,
        },
        Event::DeferralDrained {
            epoch: 76,
            drained_mbps_min: 900.0,
            dropped_mbps_min: 0.0,
            queue_mbps_min: 900.0,
        },
        Event::DayCacheReport {
            cache: "core.daycache".into(),
            hits: 130,
            misses: 14,
            evictions: 2,
            bytes: 18_874_368,
        },
    ]
}

/// `golden_events()` encoded with `seq` = its index, one line each.
const GOLDEN: &str = r#"{"seq":0,"t":"DayStart","strategy":"eprons","epochs":144}
{"seq":1,"t":"EpochStart","epoch":3,"minute":30,"search_load":0.62,"background_util":0.25}
{"seq":2,"t":"EpochSnapshot","epoch":3,"minute":30,"strategy":"eprons","choice":"k=2","server_w":4000,"network_w":1120.5,"active_switches":12,"e2e_p95_us":61250,"feasible":true,"boot_energy_j":2610.72}
{"seq":3,"t":"OptimizerCandidate","k":"k=2","total_w":5120.5,"p95_us":61250,"feasible":false}
{"seq":4,"t":"CandidateFailed","k":"k=8","error":"path \"a\\b\"\nline2\t\u0001é🦀"}
{"seq":5,"t":"CandidatePruned","k":"agg0","bound_w":1356.8,"incumbent_w":1212.4}
{"seq":6,"t":"OptimizerChoice","k":"k=2","total_w":5120.5,"p95_us":61250,"feasible":true,"evaluated":4}
{"seq":7,"t":"LpSolve","rows":48,"cols":96,"iters":131,"binding_constraints":["cap[e12]","demand[f3]"]}
{"seq":8,"t":"FreqTransition","policy":"eprons","transitions":812,"decisions":4096,"final_ghz":1.8}
{"seq":9,"t":"LinkStateChange","links_on":2,"links_off":14,"switches_on":0,"switches_off":3}
{"seq":10,"t":"ConsolidationPass","algo":"greedy","flows":272,"placed":270,"active_switches":12}
{"seq":11,"t":"PodConsolidation","pods":16,"solved":16,"resolves":1,"rounds":2,"balanced":1,"fallback":false}
{"seq":12,"t":"ClockSkew","at_s":1.25,"last_s":0}
{"seq":13,"t":"RunTag","scheme":"eprons","consolidation":"k=1.5","seed":2018}
{"seq":14,"t":"ScenarioBuilt","seed":9007199254740991,"queries":20000,"flows":272,"servers":16}
{"seq":15,"t":"FailureInjected","switch":17,"minute":730.5,"kind":"fail"}
{"seq":16,"t":"RepairOutcome","switch":17,"minute":730.5,"outcome":"repaired","rerouted":6,"woken":1,"boot_energy_j":2610.72}
{"seq":17,"t":"DegradedEpoch","epoch":73,"reason":"switch 17 failed mid-epoch; repair found no path","fallback":"all-on-fallback"}
{"seq":18,"t":"SpanStart","id":42,"parent":7,"thread":3,"name":"stage.server_eval","start_s":0.0051234}
{"seq":19,"t":"SpanEnd","id":42,"name":"stage.server_eval","elapsed_s":0.00000013,"detail":""}
{"seq":20,"t":"PowerSegment","epoch":73,"from_min":730,"to_min":730.5,"server_w":4000,"network_w":1120.5}
{"seq":21,"t":"DayEnergy","strategy":"eprons","epochs":144,"energy_j":442000000,"boot_energy_j":5221.44}
{"seq":22,"t":"DeferralEnqueued","epoch":75,"mbps_min":1200,"queue_mbps_min":1800.25,"slack_epochs":6}
{"seq":23,"t":"DeferralDrained","epoch":76,"drained_mbps_min":900,"dropped_mbps_min":0,"queue_mbps_min":900}
{"seq":24,"t":"DayCacheReport","cache":"core.daycache","hits":130,"misses":14,"evictions":2,"bytes":18874368}
"#;

#[test]
fn every_kind_encodes_to_its_golden_line() {
    let events = golden_events();
    let kinds: Vec<&str> = events.iter().map(Event::kind).collect();
    assert_eq!(kinds, Event::KINDS, "one golden line per kind");
    let lines: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(lines.len(), events.len());
    for (seq, (event, want)) in events.into_iter().zip(lines).enumerate() {
        let entry = JournalEntry {
            seq: seq as u64,
            event,
        };
        assert_eq!(
            entry.to_json_line(),
            want,
            "{} encodes differently",
            entry.event.kind()
        );
        assert_eq!(JournalEntry::from_json_line(want).unwrap(), entry);
    }
}
