//! The paper's aggregation policies (Fig. 9).
//!
//! "From Aggregation 0 to Aggregation 3, we gradually turn off the
//! core-level switches and the corresponding aggregation-level switches"
//! (§V-B1). Concretely, on the k-ary fat-tree:
//!
//! | level | core groups on | cores per group | agg switches per pod |
//! |-------|----------------|-----------------|----------------------|
//! | 0     | all            | all             | all                  |
//! | 1     | all            | 1               | all                  |
//! | 2     | 1              | all             | 1                    |
//! | 3     | 1              | 1               | 1                    |
//!
//! Edge switches always stay on (hosts hang off them). For `k = 4` this
//! yields 20 / 18 / 14 / 13 active switches — the four consolidated
//! topologies of Fig. 9.

use crate::fattree::FatTree;
use crate::graph::{LinkId, NodeId};

/// One of the paper's four consolidation presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AggregationLevel {
    /// Everything on.
    Agg0,
    /// One core per group.
    Agg1,
    /// One core group (all its cores) and one aggregation switch per pod.
    Agg2,
    /// Minimal connected subnet: one core, one aggregation switch per pod.
    Agg3,
}

impl AggregationLevel {
    /// All levels, mildest first.
    pub const ALL: [AggregationLevel; 4] = [
        AggregationLevel::Agg0,
        AggregationLevel::Agg1,
        AggregationLevel::Agg2,
        AggregationLevel::Agg3,
    ];

    /// Numeric level, 0–3.
    pub fn index(self) -> usize {
        match self {
            AggregationLevel::Agg0 => 0,
            AggregationLevel::Agg1 => 1,
            AggregationLevel::Agg2 => 2,
            AggregationLevel::Agg3 => 3,
        }
    }

    /// Level from its index.
    ///
    /// # Panics
    /// Panics if `i > 3`.
    pub fn from_index(i: usize) -> Self {
        Self::ALL[i]
    }

    /// The switches left active under this policy.
    pub fn active_switches(self, ft: &FatTree) -> Vec<NodeId> {
        let half = ft.k() / 2;
        let (groups_on, cores_per_group, aggs_per_pod) = match self {
            AggregationLevel::Agg0 => (half, half, half),
            AggregationLevel::Agg1 => (half, 1, half),
            AggregationLevel::Agg2 => (1, half, 1),
            AggregationLevel::Agg3 => (1, 1, 1),
        };
        let mut active: Vec<NodeId> = ft.edge_switches().to_vec();
        for p in 0..ft.k() {
            for j in 0..aggs_per_pod {
                active.push(ft.agg(p, j));
            }
        }
        for g in 0..groups_on {
            for m in 0..cores_per_group {
                active.push(ft.core(g, m));
            }
        }
        active
    }

    /// The links whose both endpoints are active (hosts count as active).
    pub fn active_links(self, ft: &FatTree) -> Vec<LinkId> {
        let topo = ft.topology();
        let on = topo.node_mask(self.active_switches(ft));
        topo.links()
            .filter(|(_, l)| on[l.a.0] && on[l.b.0])
            .map(|(id, _)| id)
            .collect()
    }

    /// Number of active switches under this policy for the given tree.
    pub fn active_switch_count(self, ft: &FatTree) -> usize {
        self.active_switches(ft).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::bfs_path;

    #[test]
    fn four_ary_active_counts_match_fig9() {
        let ft = FatTree::new(4, 1000.0);
        let counts: Vec<usize> = AggregationLevel::ALL
            .iter()
            .map(|l| l.active_switch_count(&ft))
            .collect();
        assert_eq!(counts, vec![20, 18, 14, 13]);
    }

    #[test]
    fn every_level_keeps_all_edges() {
        let ft = FatTree::new(4, 1000.0);
        for level in AggregationLevel::ALL {
            let active = level.active_switches(&ft);
            for &e in ft.edge_switches() {
                assert!(active.contains(&e), "{level:?} must keep edge switches");
            }
        }
    }

    #[test]
    fn all_levels_keep_full_host_connectivity() {
        let ft = FatTree::new(4, 1000.0);
        let hosts = ft.hosts().to_vec();
        for level in AggregationLevel::ALL {
            let active = level.active_switches(&ft);
            let ok = |n: NodeId| !ft.topology().node(n).kind.is_switch() || active.contains(&n);
            // Spot-check all pairs from the first host plus a cross-pod pair.
            for &dst in &hosts[1..] {
                let p = bfs_path(ft.topology(), hosts[0], dst, ok, |_| true);
                assert!(p.is_some(), "{level:?} disconnects {dst:?}");
            }
        }
    }

    #[test]
    fn levels_shrink_monotonically() {
        // Switch counts strictly decrease with the level; Agg0 contains
        // every other level's active set, and Agg3 ⊆ Agg2.
        let ft = FatTree::new(4, 1000.0);
        let mut prev = usize::MAX;
        for level in AggregationLevel::ALL {
            let n = level.active_switch_count(&ft);
            assert!(n < prev, "{level:?} should strictly shrink");
            prev = n;
        }
        let all = AggregationLevel::Agg0.active_switches(&ft);
        for level in &AggregationLevel::ALL[1..] {
            assert!(level.active_switches(&ft).iter().all(|s| all.contains(s)));
        }
        let a2 = AggregationLevel::Agg2.active_switches(&ft);
        assert!(AggregationLevel::Agg3
            .active_switches(&ft)
            .iter()
            .all(|s| a2.contains(s)));
    }

    #[test]
    fn active_links_shrink_with_level() {
        let ft = FatTree::new(4, 1000.0);
        let mut prev = usize::MAX;
        for level in AggregationLevel::ALL {
            let n = level.active_links(&ft).len();
            assert!(n <= prev, "{level:?} should not add links");
            prev = n;
        }
        // Agg0 keeps everything.
        assert_eq!(
            AggregationLevel::Agg0.active_links(&ft).len(),
            ft.topology().num_links()
        );
    }

    #[test]
    fn active_links_match_a_membership_scan() {
        for k in [4usize, 8] {
            let ft = FatTree::new(k, 1000.0);
            for level in AggregationLevel::ALL {
                let active = level.active_switches(&ft);
                let is_on =
                    |n: NodeId| !ft.topology().node(n).kind.is_switch() || active.contains(&n);
                let scan: Vec<LinkId> = ft
                    .topology()
                    .links()
                    .filter(|(_, l)| is_on(l.a) && is_on(l.b))
                    .map(|(id, _)| id)
                    .collect();
                assert_eq!(level.active_links(&ft), scan, "k={k} {level:?}");
            }
        }
    }

    #[test]
    fn index_round_trip() {
        for level in AggregationLevel::ALL {
            assert_eq!(AggregationLevel::from_index(level.index()), level);
        }
    }

    #[test]
    fn k8_counts_are_consistent() {
        let ft = FatTree::new(8, 1000.0);
        // edges=32 always; agg0: 32+32+16=80; agg3: 32+8+1=41.
        assert_eq!(AggregationLevel::Agg0.active_switch_count(&ft), 80);
        assert_eq!(AggregationLevel::Agg3.active_switch_count(&ft), 41);
    }
}
