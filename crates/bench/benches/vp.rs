//! Violation-probability engine benchmarks.
//!
//! Paper anchors (§III-C): equivalent distributions are cached at
//! departure instants; arrival instants pay n fresh convolutions (here one
//! product and one inverse transform each against a cached level
//! spectrum, and none once a head of the same bin has been seen); "the
//! time it takes to determine the operating frequency is shortened by
//! applying binary search on the average VP … it takes less than 30 µs".

use eprons_bench::harness::Runner;
use eprons_server::policy::DvfsPolicy;
use eprons_server::vp::InflightHead;
use eprons_server::{AvgVpPolicy, FreqLadder, ServiceModel, VpEngine};
use eprons_sim::SimRng;
use std::hint::black_box;

fn service() -> ServiceModel {
    let mut rng = SimRng::seed_from_u64(3);
    ServiceModel::synthetic_xapian(&mut rng, 20_000, 160)
}

fn main() {
    let mut r = Runner::from_env();
    for depth in [1usize, 2, 4, 8] {
        let mut engine = VpEngine::new(service());
        // Warm the cache like a running server would.
        let _ = engine.equivalent(depth);
        let deadlines: Vec<f64> = (0..depth).map(|i| 10.0e-3 + 3.0e-3 * i as f64).collect();
        r.bench(&format!("decision_departure/queue/{depth}"), || {
            engine.decision(black_box(0.0), None, black_box(&deadlines))
        });
    }
    // Arrival instants condition the in-flight head and convolve it with
    // each level — the expensive path the paper describes. Each timed
    // decision gets a fresh ladder that a head one bin further on has
    // grown: every level and spectrum is cached, no conditioned slot of
    // this head's bin is filled.
    let svc = service();
    let arrival = |done_work_gc| InflightHead {
        done_work_gc,
        rem_fixed_s: 0.0,
    };
    let mid = svc.work_pmf().mean() * 0.5;
    let next_bin = mid + svc.work_pmf().step();
    for depth in [1usize, 2, 4, 8] {
        let deadlines: Vec<f64> = (0..=depth).map(|i| 10.0e-3 + 3.0e-3 * i as f64).collect();
        let setup = || {
            let mut engine = VpEngine::new(svc.clone());
            let _ = engine.decision(0.0, Some(arrival(next_bin)), &deadlines);
            engine
        };
        let mut probe = setup();
        let before = probe.tally();
        let _ = probe.decision(0.0, Some(arrival(mid)), &deadlines);
        let work = probe.tally().since(before);
        assert_eq!(
            (work.convolutions, work.conditioned_hits, work.spectra_built),
            (depth as u64, 0, 0),
            "the arrival suite must convolve every level on cached spectra"
        );
        r.bench_with_setup(
            &format!("decision_arrival/queue/{depth}"),
            setup,
            |mut engine| engine.decision(black_box(0.0), Some(arrival(mid)), black_box(&deadlines)),
        );
    }
    // The same head bin again on a warm engine: every level comes from
    // its conditioned slot.
    for depth in [1usize, 8] {
        let mut engine = VpEngine::new(svc.clone());
        let deadlines: Vec<f64> = (0..=depth).map(|i| 10.0e-3 + 3.0e-3 * i as f64).collect();
        let _ = engine.decision(0.0, Some(arrival(mid)), &deadlines);
        let before = engine.tally();
        let _ = engine.decision(0.0, Some(arrival(mid)), &deadlines);
        let work = engine.tally().since(before);
        assert_eq!(
            (work.convolutions, work.conditioned_hits),
            (0, depth as u64),
            "a repeated head bin must hit every level's conditioned slot"
        );
        r.bench(&format!("decision_arrival_repeat/queue/{depth}"), || {
            engine.decision(black_box(0.0), Some(arrival(mid)), black_box(&deadlines))
        });
    }
    // Dispatch instants (a head that has executed nothing yet) are served
    // from the cached ladder.
    for depth in [1usize, 2, 4, 8] {
        let mut engine = VpEngine::new(svc.clone());
        let _ = engine.equivalent(depth + 1);
        let deadlines: Vec<f64> = (0..=depth).map(|i| 10.0e-3 + 3.0e-3 * i as f64).collect();
        r.bench(&format!("decision_dispatch/queue/{depth}"), || {
            engine.decision(black_box(0.0), Some(arrival(0.0)), black_box(&deadlines))
        });
    }
    // The first arrival-instant decision on a fresh ladder: it grows the
    // levels and builds their spectra, which the warm suites above reuse.
    for depth in [1usize, 8] {
        let deadlines: Vec<f64> = (0..=depth).map(|i| 10.0e-3 + 3.0e-3 * i as f64).collect();
        r.bench(&format!("decision_arrival_cold/queue/{depth}"), || {
            let mut engine = VpEngine::new(svc.clone());
            engine.decision(black_box(0.0), Some(arrival(mid)), black_box(&deadlines))
        });
    }
    // The paper's "<30 µs" step: binary search over the ladder given a
    // prepared decision.
    let mut engine = VpEngine::new(service());
    let deadlines = [9.0e-3, 12.0e-3, 15.0e-3, 20.0e-3];
    let decision = engine.decision(0.0, None, &deadlines);
    let ladder = FreqLadder::paper_default();
    let mut policy = AvgVpPolicy::eprons();
    r.bench("frequency_selection/avg_vp_binary_search", || {
        policy.choose_frequency(0.0, black_box(&decision), &ladder)
    });
}
