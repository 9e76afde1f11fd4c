//! k-ary fat-tree builder.
//!
//! A k-ary fat-tree (k even) has `k` pods, each with `k/2` edge switches
//! and `k/2` aggregation switches; `(k/2)²` core switches; and `k/2` hosts
//! per edge switch — `k³/4` hosts in total. The paper's platform is the
//! `k = 4` instance: 16 hosts, 20 switches, 1 Gbps links (§V-A).
//!
//! Core switches are organized into `k/2` *groups*; group `j` contains
//! `k/2` switches, each connected to aggregation switch `j` of every pod.

use crate::graph::{LinkId, NodeId, NodeKind, Topology};

/// A k-ary fat-tree with index helpers on top of [`Topology`].
///
/// ```
/// use eprons_topo::FatTree;
/// let ft = FatTree::new(4, 1000.0); // the paper's platform
/// assert_eq!(ft.hosts().len(), 16);
/// assert_eq!(ft.topology().switches().len(), 20);
/// ```
#[derive(Debug, Clone)]
pub struct FatTree {
    k: usize,
    topo: Topology,
    hosts: Vec<NodeId>,
    edges: Vec<NodeId>,
    aggs: Vec<NodeId>,
    cores: Vec<NodeId>,
    /// `NodeId.0` → host ordinal in `hosts`, or `u32::MAX` for
    /// non-hosts. Makes `host_pod`/`host_edge` O(1) instead of a linear
    /// scan — at k=16 those run once per flow (~1M flows per scenario).
    host_index: Vec<u32>,
    /// `NodeId.0` → owning pod for hosts/edges/aggs, `u32::MAX` for
    /// cores. The O(1) ordinal-remapping table [`PodView`] and the pod-
    /// decomposed consolidator key their sub-problems on.
    ///
    /// [`PodView`]: crate::podview::PodView
    pod_index: Vec<u32>,
    /// `NodeId.0` → tier-local ordinal: aggs/edges get their in-pod index
    /// `j`/`i`, hosts their in-pod ordinal `i·(k/2)+slot`, cores their
    /// global `(group·(k/2)+member)` rank. Paired with `pod_index` this
    /// inverts every `edge(p,i)`/`agg(p,j)`/`core(g,m)` accessor in O(1).
    tier_local: Vec<u32>,
}

impl FatTree {
    /// Builds a k-ary fat-tree with the given uniform link capacity.
    ///
    /// # Panics
    /// Panics if `k` is odd or less than 2, or capacity is non-positive.
    pub fn new(k: usize, capacity_mbps: f64) -> Self {
        assert!(
            k >= 2 && k.is_multiple_of(2),
            "fat-tree arity must be even and >= 2"
        );
        let half = k / 2;
        // Closed-form totals: k³/4 hosts + k²/4 cores + k²/2 aggs +
        // k²/2 edges nodes; 3·k³/4 links (host–edge, edge–agg, agg–core
        // tiers contribute k³/4 each).
        let n_nodes = k * k * k / 4 + 5 * k * k / 4;
        let n_links = 3 * k * k * k / 4;
        let mut topo = Topology::with_capacity(n_nodes, n_links);

        // Core switches: group j in 0..half, member m in 0..half.
        let mut cores = Vec::with_capacity(half * half);
        for j in 0..half {
            for m in 0..half {
                cores.push(topo.add_node(NodeKind::CoreSwitch, format!("core[{j}][{m}]")));
            }
        }

        let mut aggs = Vec::with_capacity(k * half);
        let mut edges = Vec::with_capacity(k * half);
        let mut hosts = Vec::with_capacity(k * half * half);
        for p in 0..k {
            for j in 0..half {
                aggs.push(topo.add_node(NodeKind::AggSwitch, format!("agg[{p}][{j}]")));
            }
            for i in 0..half {
                edges.push(topo.add_node(NodeKind::EdgeSwitch, format!("edge[{p}][{i}]")));
            }
            for i in 0..half {
                for h in 0..half {
                    hosts.push(topo.add_node(NodeKind::Host, format!("host[{p}][{i}][{h}]")));
                }
            }
        }

        let ft_indices = |p: usize, j: usize| p * half + j;

        // Host <-> edge links.
        for p in 0..k {
            for i in 0..half {
                let e = edges[ft_indices(p, i)];
                for h in 0..half {
                    let host = hosts[(p * half + i) * half + h];
                    topo.add_link(host, e, capacity_mbps);
                }
            }
        }
        // Edge <-> agg links (full bipartite within a pod).
        for p in 0..k {
            for i in 0..half {
                let e = edges[ft_indices(p, i)];
                for j in 0..half {
                    let a = aggs[ft_indices(p, j)];
                    topo.add_link(e, a, capacity_mbps);
                }
            }
        }
        // Agg <-> core links: agg j of each pod connects to all cores in
        // group j.
        for p in 0..k {
            for j in 0..half {
                let a = aggs[ft_indices(p, j)];
                for m in 0..half {
                    let c = cores[j * half + m];
                    topo.add_link(a, c, capacity_mbps);
                }
            }
        }

        debug_assert_eq!(topo.num_nodes(), n_nodes, "fat-tree node total (k={k})");
        debug_assert_eq!(topo.num_links(), n_links, "fat-tree link total (k={k})");

        let mut host_index = vec![u32::MAX; topo.num_nodes()];
        for (ord, h) in hosts.iter().enumerate() {
            host_index[h.0] = ord as u32;
        }
        let mut pod_index = vec![u32::MAX; topo.num_nodes()];
        let mut tier_local = vec![u32::MAX; topo.num_nodes()];
        for (ord, c) in cores.iter().enumerate() {
            tier_local[c.0] = ord as u32;
        }
        for (ord, a) in aggs.iter().enumerate() {
            pod_index[a.0] = (ord / half) as u32;
            tier_local[a.0] = (ord % half) as u32;
        }
        for (ord, e) in edges.iter().enumerate() {
            pod_index[e.0] = (ord / half) as u32;
            tier_local[e.0] = (ord % half) as u32;
        }
        for (ord, h) in hosts.iter().enumerate() {
            pod_index[h.0] = (ord / (half * half)) as u32;
            tier_local[h.0] = (ord % (half * half)) as u32;
        }

        FatTree {
            k,
            topo,
            hosts,
            edges,
            aggs,
            cores,
            host_index,
            pod_index,
            tier_local,
        }
    }

    /// Ordinal of `host` in `hosts()`, i.e. its `(pod, edge, slot)` rank.
    fn host_ordinal(&self, host: NodeId) -> usize {
        let ord = self.host_index.get(host.0).copied().unwrap_or(u32::MAX);
        assert_ne!(ord, u32::MAX, "not a host of this fat-tree");
        ord as usize
    }

    /// The arity `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The underlying topology.
    #[inline]
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// All hosts, ordered by `(pod, edge, slot)`.
    #[inline]
    pub fn hosts(&self) -> &[NodeId] {
        &self.hosts
    }

    /// All edge switches, ordered by `(pod, index)`.
    #[inline]
    pub fn edge_switches(&self) -> &[NodeId] {
        &self.edges
    }

    /// All aggregation switches, ordered by `(pod, index)`.
    #[inline]
    pub fn agg_switches(&self) -> &[NodeId] {
        &self.aggs
    }

    /// All core switches, ordered by `(group, member)`.
    #[inline]
    pub fn core_switches(&self) -> &[NodeId] {
        &self.cores
    }

    /// Host by `(pod, edge index, slot)`.
    pub fn host(&self, pod: usize, edge: usize, slot: usize) -> NodeId {
        let half = self.k / 2;
        self.hosts[(pod * half + edge) * half + slot]
    }

    /// Edge switch by `(pod, index)`.
    pub fn edge(&self, pod: usize, idx: usize) -> NodeId {
        self.edges[pod * (self.k / 2) + idx]
    }

    /// Aggregation switch by `(pod, index)`.
    pub fn agg(&self, pod: usize, idx: usize) -> NodeId {
        self.aggs[pod * (self.k / 2) + idx]
    }

    /// Core switch by `(group, member)`.
    pub fn core(&self, group: usize, member: usize) -> NodeId {
        self.cores[group * (self.k / 2) + member]
    }

    /// Pod of a host.
    pub fn host_pod(&self, host: NodeId) -> usize {
        let half = self.k / 2;
        self.host_ordinal(host) / (half * half)
    }

    /// Edge switch a host hangs off.
    pub fn host_edge(&self, host: NodeId) -> NodeId {
        self.edges[self.host_ordinal(host) / (self.k / 2)]
    }

    /// The uplink of a host (host↔edge link).
    pub fn host_uplink(&self, host: NodeId) -> LinkId {
        let e = self.host_edge(host);
        self.topo
            .link_between(host, e)
            .expect("fat-tree invariant: host connects to its edge switch")
    }

    /// Number of pods (= `k`).
    #[inline]
    pub fn num_pods(&self) -> usize {
        self.k
    }

    /// Owning pod of a host, edge, or aggregation switch; `None` for
    /// cores (they belong to the stitch layer, not a pod) and foreign
    /// ids.
    #[inline]
    pub fn pod_of(&self, n: NodeId) -> Option<usize> {
        match self.pod_index.get(n.0).copied() {
            Some(p) if p != u32::MAX => Some(p as usize),
            _ => None,
        }
    }

    /// Inverts [`FatTree::edge`]: the `(pod, index)` of an edge switch.
    pub fn edge_ordinal(&self, n: NodeId) -> Option<(usize, usize)> {
        if self.topo.node(n).kind == crate::graph::NodeKind::EdgeSwitch {
            Some((self.pod_index[n.0] as usize, self.tier_local[n.0] as usize))
        } else {
            None
        }
    }

    /// Inverts [`FatTree::agg`]: the `(pod, index)` of an agg switch.
    pub fn agg_ordinal(&self, n: NodeId) -> Option<(usize, usize)> {
        if self.topo.node(n).kind == crate::graph::NodeKind::AggSwitch {
            Some((self.pod_index[n.0] as usize, self.tier_local[n.0] as usize))
        } else {
            None
        }
    }

    /// Inverts [`FatTree::core`]: the `(group, member)` of a core switch.
    pub fn core_ordinal(&self, n: NodeId) -> Option<(usize, usize)> {
        if self.topo.node(n).kind == crate::graph::NodeKind::CoreSwitch {
            let r = self.tier_local[n.0] as usize;
            let half = self.k / 2;
            Some((r / half, r % half))
        } else {
            None
        }
    }

    /// Inverts [`FatTree::host`]: the `(pod, edge index, slot)` of a host.
    pub fn host_slot(&self, n: NodeId) -> Option<(usize, usize, usize)> {
        let ord = self.host_index.get(n.0).copied()?;
        if ord == u32::MAX {
            return None;
        }
        let half = self.k / 2;
        let local = self.tier_local[n.0] as usize;
        Some((self.pod_index[n.0] as usize, local / half, local % half))
    }

    /// A borrowed [`crate::PodView`] over one pod's sub-fabric.
    ///
    /// # Panics
    /// Panics if `pod >= k`.
    pub fn pod_view(&self, pod: usize) -> crate::podview::PodView<'_> {
        crate::podview::PodView::new(self, pod)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_ary_counts_match_paper() {
        let ft = FatTree::new(4, 1000.0);
        assert_eq!(ft.hosts().len(), 16);
        assert_eq!(ft.edge_switches().len(), 8);
        assert_eq!(ft.agg_switches().len(), 8);
        assert_eq!(ft.core_switches().len(), 4);
        assert_eq!(ft.topology().switches().len(), 20);
        // links: 16 host-edge + 16 edge-agg + 16 agg-core = 48
        assert_eq!(ft.topology().num_links(), 48);
    }

    #[test]
    fn generic_k_counts() {
        for k in [2usize, 4, 6, 8] {
            let ft = FatTree::new(k, 1000.0);
            let half = k / 2;
            assert_eq!(ft.hosts().len(), k * half * half, "k={k}");
            assert_eq!(ft.core_switches().len(), half * half);
            assert_eq!(ft.agg_switches().len(), k * half);
            assert_eq!(ft.edge_switches().len(), k * half);
        }
    }

    #[test]
    fn closed_form_totals_up_to_k24() {
        // The builder pre-sizes from these formulas and debug-asserts
        // them; this re-checks in release builds across the scale
        // ladder, including the k=20/24 build-only bench points.
        for k in [4usize, 8, 12, 16, 20, 24] {
            let ft = FatTree::new(k, 1000.0);
            let t = ft.topology();
            assert_eq!(t.num_nodes(), k * k * k / 4 + 5 * k * k / 4, "nodes k={k}");
            assert_eq!(t.num_links(), 3 * k * k * k / 4, "links k={k}");
            assert_eq!(ft.hosts().len(), k * k * k / 4, "hosts k={k}");
        }
    }

    #[test]
    fn host_lookups_are_consistent_at_scale() {
        let ft = FatTree::new(8, 1000.0);
        let half = 4;
        for (ord, &h) in ft.hosts().iter().enumerate() {
            assert_eq!(ft.host_pod(h), ord / (half * half));
            assert_eq!(ft.host_edge(h), ft.edge_switches()[ord / half]);
        }
    }

    #[test]
    fn degrees_are_regular() {
        let ft = FatTree::new(4, 1000.0);
        let t = ft.topology();
        for &h in ft.hosts() {
            assert_eq!(t.degree(h), 1);
        }
        for &e in ft.edge_switches() {
            assert_eq!(t.degree(e), 4); // 2 hosts + 2 aggs
        }
        for &a in ft.agg_switches() {
            assert_eq!(t.degree(a), 4); // 2 edges + 2 cores
        }
        for &c in ft.core_switches() {
            assert_eq!(t.degree(c), 4); // one agg per pod
        }
    }

    #[test]
    fn core_group_wiring() {
        let ft = FatTree::new(4, 1000.0);
        let t = ft.topology();
        // Core (0, m) connects to agg(p, 0) for all pods p, never agg(p, 1).
        for m in 0..2 {
            let c = ft.core(0, m);
            for p in 0..4 {
                assert!(t.link_between(c, ft.agg(p, 0)).is_some());
                assert!(t.link_between(c, ft.agg(p, 1)).is_none());
            }
        }
    }

    #[test]
    fn pod_internal_wiring() {
        let ft = FatTree::new(4, 1000.0);
        let t = ft.topology();
        for p in 0..4 {
            for i in 0..2 {
                for j in 0..2 {
                    assert!(t.link_between(ft.edge(p, i), ft.agg(p, j)).is_some());
                }
                // No cross-pod edge-agg links.
                let q = (p + 1) % 4;
                assert!(t.link_between(ft.edge(p, i), ft.agg(q, 0)).is_none());
            }
        }
    }

    #[test]
    fn host_helpers_agree() {
        let ft = FatTree::new(4, 1000.0);
        let h = ft.host(2, 1, 0);
        assert_eq!(ft.host_pod(h), 2);
        assert_eq!(ft.host_edge(h), ft.edge(2, 1));
        let up = ft.host_uplink(h);
        assert!(ft.topology().link(up).touches(h));
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_arity_rejected() {
        let _ = FatTree::new(3, 1000.0);
    }
}
