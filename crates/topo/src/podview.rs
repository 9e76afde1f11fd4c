//! Borrowed per-pod views over a fat-tree.
//!
//! A k-ary fat-tree is structurally hierarchical: a pod's hosts and
//! edge/aggregation switches form a self-contained 2-tier Clos, and the
//! only way in or out is the `(k/2)²` agg→core uplinks. [`PodView`]
//! exposes exactly that sub-fabric as contiguous slices of the owning
//! [`FatTree`] plus its internal and uplink links — no graph copies, no
//! allocation. The pod-decomposed consolidator keys its per-pod
//! sub-problems on these views and hands only the uplink aggregates to
//! the core-stitch phase.

use crate::fattree::FatTree;
use crate::graph::{LinkId, NodeId};

/// A borrowed view of one pod of a [`FatTree`]: its hosts, edge and
/// aggregation switches, and its agg→core uplinks.
///
/// All lookups are O(1) against the tree's pod/tier remap tables; the
/// view itself is two words.
///
/// ```
/// use eprons_topo::FatTree;
/// let ft = FatTree::new(4, 1000.0);
/// let pv = ft.pod_view(2);
/// assert_eq!(pv.hosts().len(), 4);
/// assert_eq!(pv.aggs().len(), 2);
/// assert!(pv.contains(ft.edge(2, 0)));
/// assert!(!pv.contains(ft.edge(1, 0)));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct PodView<'a> {
    ft: &'a FatTree,
    pod: usize,
}

impl<'a> PodView<'a> {
    /// View of `pod` in `ft`.
    ///
    /// # Panics
    /// Panics if `pod >= ft.num_pods()`.
    pub fn new(ft: &'a FatTree, pod: usize) -> Self {
        assert!(pod < ft.num_pods(), "pod {pod} out of range (k={})", ft.k());
        PodView { ft, pod }
    }

    /// Edge/agg switches per tier (= `k/2`).
    #[inline]
    pub fn width(&self) -> usize {
        self.ft.k() / 2
    }

    /// This pod's hosts, ordered by `(edge index, slot)` — a contiguous
    /// slice of [`FatTree::hosts`].
    #[inline]
    pub fn hosts(&self) -> &'a [NodeId] {
        let per_pod = self.width() * self.width();
        &self.ft.hosts()[self.pod * per_pod..(self.pod + 1) * per_pod]
    }

    /// This pod's edge switches, ordered by index — a contiguous slice
    /// of [`FatTree::edge_switches`].
    #[inline]
    pub fn edges(&self) -> &'a [NodeId] {
        let half = self.width();
        &self.ft.edge_switches()[self.pod * half..(self.pod + 1) * half]
    }

    /// This pod's aggregation switches, ordered by index — a contiguous
    /// slice of [`FatTree::agg_switches`].
    #[inline]
    pub fn aggs(&self) -> &'a [NodeId] {
        let half = self.width();
        &self.ft.agg_switches()[self.pod * half..(self.pod + 1) * half]
    }

    /// Edge switch `i` of this pod.
    #[inline]
    pub fn edge(&self, i: usize) -> NodeId {
        self.ft.edge(self.pod, i)
    }

    /// Aggregation switch `j` of this pod.
    #[inline]
    pub fn agg(&self, j: usize) -> NodeId {
        self.ft.agg(self.pod, j)
    }

    /// Whether `n` (host, edge, or agg) belongs to this pod. Cores are
    /// never contained — they belong to the stitch layer.
    #[inline]
    pub fn contains(&self, n: NodeId) -> bool {
        self.ft.pod_of(n) == Some(self.pod)
    }

    /// The intra-pod link between edge `i` and agg `j` (full bipartite,
    /// so it always exists).
    pub fn edge_agg_link(&self, i: usize, j: usize) -> LinkId {
        self.ft
            .topology()
            .link_between(self.edge(i), self.agg(j))
            .expect("fat-tree invariant: pod edge-agg tier is full bipartite")
    }

    /// The uplink from agg `j` of this pod to core `(j, m)`. Group is
    /// implied by `j`: agg `j` only reaches cores of group `j`.
    fn core_uplink(&self, j: usize, m: usize) -> LinkId {
        self.ft
            .topology()
            .link_between(self.agg(j), self.ft.core(j, m))
            .expect("fat-tree invariant: agg j connects to every core of group j")
    }

    /// Visits every agg→core uplink of this pod as
    /// `(agg index j, core member m, core node, link)`, in `(j, m)`
    /// order — the same group-major order candidate paths enumerate
    /// cores in.
    pub fn for_each_core_uplink(&self, mut f: impl FnMut(usize, usize, NodeId, LinkId)) {
        let half = self.width();
        for j in 0..half {
            for m in 0..half {
                f(j, m, self.ft.core(j, m), self.core_uplink(j, m));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_partition_the_tree() {
        let ft = FatTree::new(8, 1000.0);
        let mut hosts = Vec::new();
        let mut edges = Vec::new();
        let mut aggs = Vec::new();
        for p in 0..ft.num_pods() {
            let pv = ft.pod_view(p);
            assert_eq!(pv.hosts().len(), 16);
            assert_eq!(pv.edges().len(), 4);
            assert_eq!(pv.aggs().len(), 4);
            hosts.extend_from_slice(pv.hosts());
            edges.extend_from_slice(pv.edges());
            aggs.extend_from_slice(pv.aggs());
        }
        assert_eq!(hosts, ft.hosts());
        assert_eq!(edges, ft.edge_switches());
        assert_eq!(aggs, ft.agg_switches());
    }

    #[test]
    fn ordinal_remaps_invert_accessors() {
        let ft = FatTree::new(6, 1000.0);
        for p in 0..6 {
            let pv = ft.pod_view(p);
            for i in 0..3 {
                assert_eq!(ft.edge_ordinal(pv.edge(i)), Some((p, i)));
                assert_eq!(ft.agg_ordinal(pv.agg(i)), Some((p, i)));
                for s in 0..3 {
                    assert_eq!(ft.host_slot(ft.host(p, i, s)), Some((p, i, s)));
                }
            }
        }
        // Wrong-kind lookups miss.
        assert_eq!(ft.edge_ordinal(ft.agg(0, 0)), None);
        assert_eq!(ft.core_ordinal(ft.core(1, 2)), Some((1, 2)));
        assert_eq!(ft.core_ordinal(ft.host(0, 0, 0)), None);
        assert_eq!(ft.pod_of(ft.core(0, 0)), None);
    }

    #[test]
    fn containment_excludes_cores_and_other_pods() {
        let ft = FatTree::new(4, 1000.0);
        let pv = ft.pod_view(1);
        assert!(pv.contains(ft.host(1, 0, 1)));
        assert!(pv.contains(ft.agg(1, 1)));
        assert!(!pv.contains(ft.host(0, 0, 0)));
        assert!(!pv.contains(ft.core(0, 0)));
    }

    #[test]
    fn links_match_topology_wiring() {
        let ft = FatTree::new(4, 1000.0);
        let t = ft.topology();
        for p in 0..4 {
            let pv = ft.pod_view(p);
            for i in 0..2 {
                for j in 0..2 {
                    let l = pv.edge_agg_link(i, j);
                    assert!(t.link(l).touches(pv.edge(i)));
                    assert!(t.link(l).touches(pv.agg(j)));
                }
            }
            let mut seen = 0;
            pv.for_each_core_uplink(|j, m, core, l| {
                assert_eq!(ft.core_ordinal(core), Some((j, m)));
                assert!(t.link(l).touches(pv.agg(j)));
                assert!(t.link(l).touches(core));
                seen += 1;
            });
            assert_eq!(seen, 4);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_pod_rejected() {
        let ft = FatTree::new(4, 1000.0);
        let _ = ft.pod_view(4);
    }
}
