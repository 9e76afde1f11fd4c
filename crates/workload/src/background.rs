//! Background (latency-tolerant) elephant-flow generation.
//!
//! The paper's experiments set "the background traffic … to achieve X %
//! network utilization" (§V-B). We realize a target utilization with one
//! elephant per host at `util × capacity` Mbps, destinations forming a
//! locality-biased *perfect matching*: every host sends exactly one
//! elephant and receives exactly one (uplinks sit at exactly the target in
//! both directions, no receive hotspots), with a configurable share of
//! traffic staying rack-local / pod-local — data-center traffic matrices
//! are strongly rack-local, and an all-cross-pod matrix would overload the
//! core far earlier than the paper's measurements show.

use eprons_sim::SimRng;
use eprons_topo::{FatTree, NodeId};

/// A generated background flow (endpoints + demand in Mbps).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackgroundFlow {
    /// Source host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// Demand in Mbps.
    pub demand_mbps: f64,
}

/// Destination-locality mix for the background matrix. The remainder
/// (`1 − same_edge − same_pod`) goes cross-pod.
#[derive(Debug, Clone, Copy)]
struct LocalityMix {
    /// Probability a flow targets a host under the same edge switch.
    pub same_edge: f64,
    /// Probability a flow targets another edge of the same pod.
    pub same_pod: f64,
}

impl Default for LocalityMix {
    fn default() -> Self {
        // Rack-heavy, per common DCN traffic studies. The matching
        // constraint dilutes the requested probabilities (a 4-ary tree has
        // a single same-edge partner per host), so these are set above the
        // desired effective fractions.
        LocalityMix {
            same_edge: 0.55,
            same_pod: 0.25,
        }
    }
}

/// `background_flows_with_mix` with the default locality mix.
pub fn background_flows(
    ft: &FatTree,
    rng: &mut SimRng,
    util_frac: f64,
    capacity_mbps: f64,
) -> Vec<BackgroundFlow> {
    background_flows_with_mix(ft, rng, util_frac, capacity_mbps, LocalityMix::default())
}

/// One elephant per host at `util_frac × capacity` Mbps; destinations form
/// a perfect matching (each host receives exactly one) biased by `mix`.
///
/// # Panics
/// Panics if `util_frac` is outside `(0, 1]` or the mix probabilities are
/// invalid.
fn background_flows_with_mix(
    ft: &FatTree,
    rng: &mut SimRng,
    util_frac: f64,
    capacity_mbps: f64,
    mix: LocalityMix,
) -> Vec<BackgroundFlow> {
    assert!(util_frac > 0.0 && util_frac <= 1.0, "utilization in (0,1]");
    assert!(
        mix.same_edge >= 0.0 && mix.same_pod >= 0.0 && mix.same_edge + mix.same_pod <= 1.0,
        "locality probabilities must be a sub-distribution"
    );
    let hosts = ft.hosts();
    let n = hosts.len();
    let mut taken = vec![false; n];
    let mut dst_of: Vec<Option<usize>> = vec![None; n];

    // Visit sources in random order so late sources aren't systematically
    // starved of local destinations.
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.index(i + 1);
        order.swap(i, j);
    }

    for &i in &order {
        let src = hosts[i];
        let src_edge = ft.host_edge(src);
        let src_pod = ft.host_pod(src);
        let r = rng.uniform();
        let preferred = if r < mix.same_edge {
            0
        } else if r < mix.same_edge + mix.same_pod {
            1
        } else {
            2
        };
        // Try the preferred category first, then fall back outward/inward.
        let category_order: [usize; 3] = match preferred {
            0 => [0, 1, 2],
            1 => [1, 2, 0],
            _ => [2, 1, 0],
        };
        let mut chosen = None;
        for cat in category_order {
            let pool: Vec<usize> = (0..n)
                .filter(|&j| {
                    if j == i || taken[j] {
                        return false;
                    }
                    let d = hosts[j];
                    match cat {
                        0 => ft.host_edge(d) == src_edge,
                        1 => ft.host_pod(d) == src_pod && ft.host_edge(d) != src_edge,
                        _ => ft.host_pod(d) != src_pod,
                    }
                })
                .collect();
            if !pool.is_empty() {
                chosen = Some(pool[rng.index(pool.len())]);
                break;
            }
        }
        let j = match chosen {
            Some(j) => j,
            None => {
                // Only the source's own slot remains: steal an earlier
                // assignment's destination and hand that flow `i`'s slot.
                let k = order
                    .iter()
                    .copied()
                    .find(|&k| k != i && dst_of[k].is_some_and(|d| d != i))
                    .expect("some earlier flow can donate its destination");
                let donated = dst_of[k].expect("checked above");
                dst_of[k] = Some(i);
                taken[i] = true;
                donated
            }
        };
        taken[j] = true;
        dst_of[i] = Some(j);
    }

    (0..n)
        .map(|i| BackgroundFlow {
            src: hosts[i],
            dst: hosts[dst_of[i].expect("all assigned")],
            demand_mbps: util_frac * capacity_mbps,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_matching_at_target_demand() {
        let ft = FatTree::new(4, 1000.0);
        let mut rng = SimRng::seed_from_u64(31);
        let flows = background_flows(&ft, &mut rng, 0.2, 1000.0);
        assert_eq!(flows.len(), 16);
        for f in &flows {
            assert_eq!(f.demand_mbps, 200.0);
            assert_ne!(f.src, f.dst);
        }
        // Each host sends exactly once AND receives exactly once.
        let mut srcs: Vec<NodeId> = flows.iter().map(|f| f.src).collect();
        srcs.sort();
        srcs.dedup();
        assert_eq!(srcs.len(), 16);
        let mut dsts: Vec<NodeId> = flows.iter().map(|f| f.dst).collect();
        dsts.sort();
        dsts.dedup();
        assert_eq!(dsts.len(), 16, "every host receives exactly one elephant");
    }

    #[test]
    fn matching_holds_across_seeds() {
        let ft = FatTree::new(4, 1000.0);
        for seed in 0..50 {
            let mut rng = SimRng::seed_from_u64(seed);
            let flows = background_flows(&ft, &mut rng, 0.3, 1000.0);
            let mut dsts: Vec<NodeId> = flows.iter().map(|f| f.dst).collect();
            dsts.sort();
            dsts.dedup();
            assert_eq!(dsts.len(), 16, "seed {seed}: not a perfect matching");
            assert!(
                flows.iter().all(|f| f.src != f.dst),
                "seed {seed}: self-flow"
            );
        }
    }

    #[test]
    fn locality_mix_is_respected_on_average() {
        let ft = FatTree::new(4, 1000.0);
        let mut rng = SimRng::seed_from_u64(32);
        let mut same_edge = 0usize;
        let mut same_pod = 0usize;
        let mut total = 0usize;
        for _ in 0..200 {
            for f in background_flows(&ft, &mut rng, 0.2, 1000.0) {
                total += 1;
                if ft.host_edge(f.src) == ft.host_edge(f.dst) {
                    same_edge += 1;
                } else if ft.host_pod(f.src) == ft.host_pod(f.dst) {
                    same_pod += 1;
                }
            }
        }
        let fe = same_edge as f64 / total as f64;
        let fp = same_pod as f64 / total as f64;
        // The matching constraint dilutes the requested mix; check the
        // effective fractions stay rack-heavy with a real cross-pod share.
        assert!((0.2..0.6).contains(&fe), "same-edge fraction {fe}");
        assert!((0.1..0.45).contains(&fp), "same-pod fraction {fp}");
        assert!(1.0 - fe - fp > 0.15, "cross-pod share vanished");
    }

    #[test]
    fn all_cross_pod_mix_works() {
        let ft = FatTree::new(4, 1000.0);
        let mut rng = SimRng::seed_from_u64(33);
        let flows = background_flows_with_mix(
            &ft,
            &mut rng,
            0.5,
            1000.0,
            LocalityMix {
                same_edge: 0.0,
                same_pod: 0.0,
            },
        );
        let cross = flows
            .iter()
            .filter(|f| ft.host_pod(f.src) != ft.host_pod(f.dst))
            .count();
        assert!(cross >= 14, "should be (almost) all cross-pod: {cross}/16");
    }

    #[test]
    fn deterministic_in_seed() {
        let ft = FatTree::new(4, 1000.0);
        let mut r1 = SimRng::seed_from_u64(34);
        let mut r2 = SimRng::seed_from_u64(34);
        assert_eq!(
            background_flows(&ft, &mut r1, 0.5, 1000.0),
            background_flows(&ft, &mut r2, 0.5, 1000.0)
        );
    }

    #[test]
    #[should_panic(expected = "utilization in (0,1]")]
    fn rejects_bad_utilization() {
        let ft = FatTree::new(4, 1000.0);
        let mut rng = SimRng::seed_from_u64(35);
        background_flows(&ft, &mut rng, 1.5, 1000.0);
    }
}
