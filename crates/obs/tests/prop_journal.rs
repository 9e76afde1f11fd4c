//! Property suite for the journal wire format (deterministic seeded
//! cases via `eprons-proplite`): every [`Event`] variant, filled with
//! adversarial payloads — arbitrary finite `f64` bit patterns, u64s up
//! to the 2^53 integer-exactness limit the JSON number model guarantees,
//! strings with quotes/backslashes/control bytes/multi-byte UTF-8 —
//! must survive `to_json_line` → `from_json_line` bit for bit.
//!
//! `obsctl diff`'s exact mode and `obsctl audit`'s energy reconciliation
//! both assume this losslessness; a float that moved by one ulp through
//! the journal would show up as a phantom conservation violation.

use eprons_obs::{parse_jsonl, Event, Journal, JournalEntry, Snapshot};
use eprons_proplite::{cases, Gen};

/// Any finite `f64`, drawn from raw bit patterns so subnormals, huge
/// exponents, and negative zero all appear.
fn arb_f64(g: &mut Gen) -> f64 {
    loop {
        let v = f64::from_bits(g.u64());
        if v.is_finite() {
            return v;
        }
    }
}

/// Journal integers are carried as JSON numbers, exact up to 2^53.
fn arb_u64(g: &mut Gen) -> u64 {
    g.u64() & ((1 << 53) - 1)
}

/// A string over a palette that exercises every escape path of the
/// writer: quotes, backslashes, control characters, and multi-byte
/// UTF-8.
fn arb_string(g: &mut Gen) -> String {
    const PALETTE: &[char] = &[
        'a', 'Z', '0', ' ', '"', '\\', '\n', '\t', '\r', '\u{0}', '\u{1f}', '/', 'é', '愛', '🦀',
    ];
    let len = g.usize_in(0, 12);
    (0..len).map(|_| *g.choose(PALETTE)).collect()
}

/// One instance of every `Event` variant with randomized payloads, in
/// declaration order. `kind_tags_are_distinct_and_stable` fails when the
/// enum gains a kind this list lacks.
fn all_variants(g: &mut Gen) -> Vec<Event> {
    vec![
        Event::DayStart {
            strategy: arb_string(g),
            epochs: arb_u64(g),
        },
        Event::EpochStart {
            epoch: arb_u64(g),
            minute: arb_f64(g),
            search_load: arb_f64(g),
            background_util: arb_f64(g),
        },
        Event::EpochSnapshot(Snapshot {
            epoch: arb_u64(g),
            minute: arb_f64(g),
            strategy: arb_string(g),
            choice: arb_string(g),
            server_w: arb_f64(g),
            network_w: arb_f64(g),
            active_switches: arb_u64(g),
            e2e_p95_us: arb_f64(g),
            feasible: g.bool(),
            boot_energy_j: arb_f64(g),
        }),
        Event::OptimizerCandidate {
            k: arb_string(g),
            total_w: arb_f64(g),
            p95_us: arb_f64(g),
            feasible: g.bool(),
        },
        Event::CandidateFailed {
            k: arb_string(g),
            error: arb_string(g),
        },
        Event::CandidatePruned {
            k: arb_string(g),
            bound_w: arb_f64(g),
            incumbent_w: arb_f64(g),
        },
        Event::OptimizerChoice {
            k: arb_string(g),
            total_w: arb_f64(g),
            p95_us: arb_f64(g),
            feasible: g.bool(),
            evaluated: arb_u64(g),
        },
        Event::LpSolve {
            rows: arb_u64(g),
            cols: arb_u64(g),
            iters: arb_u64(g),
            binding_constraints: (0..g.usize_in(0, 4)).map(|_| arb_string(g)).collect(),
        },
        Event::FreqTransition {
            policy: arb_string(g),
            transitions: arb_u64(g),
            decisions: arb_u64(g),
            final_ghz: arb_f64(g),
        },
        Event::LinkStateChange {
            links_on: arb_u64(g),
            links_off: arb_u64(g),
            switches_on: arb_u64(g),
            switches_off: arb_u64(g),
        },
        Event::ConsolidationPass {
            algo: arb_string(g),
            flows: arb_u64(g),
            placed: arb_u64(g),
            active_switches: arb_u64(g),
        },
        Event::PodConsolidation {
            pods: arb_u64(g),
            solved: arb_u64(g),
            resolves: arb_u64(g),
            rounds: arb_u64(g),
            balanced: arb_u64(g),
            fallback: g.bool(),
        },
        Event::ClockSkew {
            at_s: arb_f64(g),
            last_s: arb_f64(g),
        },
        Event::RunTag {
            scheme: arb_string(g),
            consolidation: arb_string(g),
            seed: arb_u64(g),
        },
        Event::ScenarioBuilt {
            seed: arb_u64(g),
            queries: arb_u64(g),
            flows: arb_u64(g),
            servers: arb_u64(g),
        },
        Event::FailureInjected {
            switch: arb_u64(g),
            minute: arb_f64(g),
            kind: arb_string(g),
        },
        Event::RepairOutcome {
            switch: arb_u64(g),
            minute: arb_f64(g),
            outcome: arb_string(g),
            rerouted: arb_u64(g),
            woken: arb_u64(g),
            boot_energy_j: arb_f64(g),
        },
        Event::DegradedEpoch {
            epoch: arb_u64(g),
            reason: arb_string(g),
            fallback: arb_string(g),
        },
        Event::SpanStart {
            id: arb_u64(g),
            parent: arb_u64(g),
            thread: arb_u64(g),
            name: arb_string(g),
            start_s: arb_f64(g),
        },
        Event::SpanEnd {
            id: arb_u64(g),
            name: arb_string(g),
            elapsed_s: arb_f64(g),
            detail: arb_string(g),
        },
        Event::PowerSegment {
            epoch: arb_u64(g),
            from_min: arb_f64(g),
            to_min: arb_f64(g),
            server_w: arb_f64(g),
            network_w: arb_f64(g),
        },
        Event::DayEnergy {
            strategy: arb_string(g),
            epochs: arb_u64(g),
            energy_j: arb_f64(g),
            boot_energy_j: arb_f64(g),
        },
        Event::DeferralEnqueued {
            epoch: arb_u64(g),
            mbps_min: arb_f64(g),
            queue_mbps_min: arb_f64(g),
            slack_epochs: arb_u64(g),
        },
        Event::DeferralDrained {
            epoch: arb_u64(g),
            drained_mbps_min: arb_f64(g),
            dropped_mbps_min: arb_f64(g),
            queue_mbps_min: arb_f64(g),
        },
        Event::DayCacheReport {
            cache: arb_string(g),
            hits: arb_u64(g),
            misses: arb_u64(g),
            evictions: arb_u64(g),
            bytes: arb_u64(g),
        },
    ]
}

#[test]
fn every_variant_round_trips_line_by_line() {
    cases(48, |g, case| {
        for (i, event) in all_variants(g).into_iter().enumerate() {
            let entry = JournalEntry {
                seq: arb_u64(g),
                event,
            };
            let line = entry.to_json_line();
            let back = JournalEntry::from_json_line(&line)
                .unwrap_or_else(|e| panic!("case {case}, variant {i}: {e}\nline: {line}"));
            assert_eq!(
                back, entry,
                "case {case}, variant {i} mutated through JSON:\n{line}"
            );
        }
    });
}

#[test]
fn whole_journals_round_trip_through_jsonl() {
    cases(16, |g, case| {
        let j = Journal::with_capacity(4096);
        // A few shuffled copies of the full variant set, so multi-line
        // parsing, blank-line skipping, and seq assignment are covered.
        for _ in 0..g.usize_in(1, 3) {
            for e in all_variants(g) {
                j.record(e);
            }
        }
        let mut text = j.to_jsonl();
        text.push('\n'); // trailing blank line must be tolerated
        let parsed = parse_jsonl(&text).unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(parsed, j.snapshot(), "case {case}");
        assert!(
            parsed.windows(2).all(|w| w[0].seq < w[1].seq),
            "case {case}: seq not monotone"
        );
    });
}

#[test]
fn kind_tags_are_distinct_and_stable() {
    let mut g = Gen::from_seed(7);
    let kinds: Vec<&'static str> = all_variants(&mut g).iter().map(Event::kind).collect();
    assert_eq!(kinds, Event::KINDS, "all_variants must cover every kind");
    let unique: std::collections::BTreeSet<_> = kinds.iter().collect();
    assert_eq!(unique.len(), kinds.len(), "duplicate kind tag");
    // The wire names CI greps for; renaming one is a breaking change to
    // every stored journal.
    for expected in [
        "DayStart",
        "EpochSnapshot",
        "SpanStart",
        "SpanEnd",
        "PowerSegment",
        "DayEnergy",
        "RepairOutcome",
        "DeferralEnqueued",
        "DeferralDrained",
    ] {
        assert!(kinds.contains(&expected), "missing kind {expected}");
    }
}
