//! Violation-probability engine benchmarks.
//!
//! Paper anchors (§III-C): equivalent distributions are cached at
//! departure instants; arrival instants pay n fresh convolutions (here one
//! product and one inverse transform each against a cached level
//! spectrum); "the time it takes to determine the operating frequency is
//! shortened by applying binary search on the average VP … it takes less
//! than 30 µs".

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
    // each level — the expensive path the paper describes; after the
    // first iteration every level spectrum is cached. Dispatch instants (a
    // head that has executed nothing yet) are served from the cached
    // ladder.
    for (instant, head_done) in [("arrival", 0.5), ("dispatch", 0.0)] {
        for depth in [1usize, 2, 4, 8] {
            let mut engine = VpEngine::new(service());
            let _ = engine.equivalent(depth + 1);
            let head = InflightHead {
                done_work_gc: engine.service().work_pmf().mean() * head_done,
                rem_fixed_s: 0.0,
            };
            let deadlines: Vec<f64> = (0..=depth).map(|i| 10.0e-3 + 3.0e-3 * i as f64).collect();
            r.bench(&format!("decision_{instant}/queue/{depth}"), || {
                engine.decision(black_box(0.0), Some(head), black_box(&deadlines))
            });
        }
    }
    // The first arrival-instant decision on a fresh ladder: it grows the
    // levels and builds their spectra, which the warm suites above reuse.
    let svc = service();
    for depth in [1usize, 8] {
        let deadlines: Vec<f64> = (0..=depth).map(|i| 10.0e-3 + 3.0e-3 * i as f64).collect();
        let head = InflightHead {
            done_work_gc: svc.work_pmf().mean() * 0.5,
            rem_fixed_s: 0.0,
        };
        r.bench(&format!("decision_arrival_cold/queue/{depth}"), || {
            let mut engine = VpEngine::new(svc.clone());
            engine.decision(black_box(0.0), Some(head), black_box(&deadlines))
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
