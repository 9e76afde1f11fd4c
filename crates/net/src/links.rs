//! Active-subgraph state: switch/link on-off bits and per-direction link
//! load.
//!
//! Links are **full duplex** (the paper's 1 Gbps switch ports, Fig. 8):
//! each undirected link carries independent capacity in each direction, so
//! load and utilization are tracked per `(link, direction)`. Direction 0
//! is `a → b` in the topology's link record, direction 1 is `b → a`.

use eprons_topo::{LinkId, NodeId, PathRef, Topology};

/// Which switches and links are powered on, and how much traffic each link
/// direction carries. Hosts are always "on".
#[derive(Debug, Clone)]
pub struct NetworkState {
    /// `true` per node id if powered (hosts always `true`).
    node_on: Vec<bool>,
    /// `true` per link id if powered.
    link_on: Vec<bool>,
    /// Carried load per link *direction* in Mbps: index `2·link + dir`.
    load_mbps: Vec<f64>,
    /// Capacity per link in Mbps (per direction; copied from topology).
    capacity_mbps: Vec<f64>,
}

/// Direction index of traversing `link` starting from node `from`.
///
/// # Panics
/// Panics if `from` is not an endpoint of the link.
pub fn direction_from(topo: &Topology, link: LinkId, from: NodeId) -> usize {
    let l = topo.link(link);
    if from == l.a {
        0
    } else if from == l.b {
        1
    } else {
        panic!("node {from:?} is not an endpoint of link {link:?}")
    }
}

impl NetworkState {
    /// A state with everything on and no load.
    pub fn all_on(topo: &Topology) -> Self {
        NetworkState {
            node_on: vec![true; topo.num_nodes()],
            link_on: vec![true; topo.num_links()],
            load_mbps: vec![0.0; topo.num_links() * 2],
            capacity_mbps: topo.links().map(|(_, l)| l.capacity_mbps).collect(),
        }
    }

    /// A state with only the listed switches active (plus all hosts); a
    /// link is on iff both endpoints are on.
    pub fn with_active_switches(topo: &Topology, active: &[NodeId]) -> Self {
        let mut node_on = vec![false; topo.num_nodes()];
        for (id, n) in topo.nodes() {
            if !n.kind.is_switch() {
                node_on[id.0] = true;
            }
        }
        for &s in active {
            node_on[s.0] = true;
        }
        let link_on = topo
            .links()
            .map(|(_, l)| node_on[l.a.0] && node_on[l.b.0])
            .collect();
        NetworkState {
            node_on,
            link_on,
            load_mbps: vec![0.0; topo.num_links() * 2],
            capacity_mbps: topo.links().map(|(_, l)| l.capacity_mbps).collect(),
        }
    }

    /// Is this node powered?
    #[inline]
    pub fn node_on(&self, n: NodeId) -> bool {
        self.node_on[n.0]
    }

    /// Is this link powered?
    #[inline]
    pub fn link_on(&self, l: LinkId) -> bool {
        self.link_on[l.0]
    }

    /// Powers a switch on/off (re-derive link state with
    /// [`NetworkState::refresh_links`] after batch changes).
    pub fn set_node(&mut self, n: NodeId, on: bool) {
        self.node_on[n.0] = on;
    }

    /// Powers a single link on/off directly (consolidation powers down
    /// unused links even between active switches).
    pub fn set_link(&mut self, l: LinkId, on: bool) {
        self.link_on[l.0] = on;
    }

    /// Recomputes link on/off from node states (a link is on iff both
    /// endpoints are on).
    pub fn refresh_links(&mut self, topo: &Topology) {
        for (id, l) in topo.links() {
            self.link_on[id.0] = self.node_on[l.a.0] && self.node_on[l.b.0];
        }
    }

    /// Carried load of one direction of a link, Mbps.
    #[inline]
    pub fn load_dir(&self, l: LinkId, dir: usize) -> f64 {
        self.load_mbps[l.0 * 2 + dir]
    }

    /// The heavier direction's load, Mbps.
    pub fn load(&self, l: LinkId) -> f64 {
        self.load_dir(l, 0).max(self.load_dir(l, 1))
    }

    /// Utilization of one direction in `[0, ∞)` (can exceed 1 transiently
    /// when a prediction was wrong; the latency model clamps).
    #[inline]
    fn utilization_dir(&self, l: LinkId, dir: usize) -> f64 {
        self.load_dir(l, dir) / self.capacity_mbps[l.0]
    }

    /// Utilization of the heavier direction.
    pub fn utilization(&self, l: LinkId) -> f64 {
        self.load(l) / self.capacity_mbps[l.0]
    }

    /// Adds `mbps` of load along a path (directional). Accepts owned
    /// paths (`&Path`) and borrowed views ([`PathRef`]) alike.
    pub fn add_path_load<'a>(&mut self, topo: &Topology, path: impl Into<PathRef<'a>>, mbps: f64) {
        for (from, _, l) in path.into().hops() {
            let dir = direction_from(topo, l, from);
            self.load_mbps[l.0 * 2 + dir] += mbps;
        }
    }

    /// Removes `mbps` of load along a path (clamped at zero).
    pub fn remove_path_load<'a>(
        &mut self,
        topo: &Topology,
        path: impl Into<PathRef<'a>>,
        mbps: f64,
    ) {
        for (from, _, l) in path.into().hops() {
            let dir = direction_from(topo, l, from);
            let slot = &mut self.load_mbps[l.0 * 2 + dir];
            *slot = (*slot - mbps).max(0.0);
        }
    }

    /// Utilizations along a path in hop order, each taken in the
    /// traversal direction, into a caller-owned buffer (cleared first).
    /// The cluster pipeline samples two paths per (query, ISN) pair and
    /// reuses one buffer across the whole sweep instead of allocating per
    /// call.
    pub fn path_utilizations_into<'a>(
        &self,
        topo: &Topology,
        path: impl Into<PathRef<'a>>,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.extend(
            path.into()
                .hops()
                .map(|(from, _, l)| self.utilization_dir(l, direction_from(topo, l, from))),
        );
    }

    /// Utilizations along a borrowed path view, as an iterator — the
    /// buffer-free counterpart of [`Self::path_utilizations_into`] for
    /// arena-backed candidate walks.
    pub fn path_utilizations_ref<'a>(
        &'a self,
        topo: &'a Topology,
        path: PathRef<'a>,
    ) -> impl Iterator<Item = f64> + 'a {
        path.hops()
            .map(move |(from, _, l)| self.utilization_dir(l, direction_from(topo, l, from)))
    }

    /// Whether every node and link of `path` is powered.
    pub fn path_available<'a>(&self, path: impl Into<PathRef<'a>>) -> bool {
        let path = path.into();
        path.nodes.iter().all(|&n| self.node_on[n.0])
            && path.links.iter().all(|&l| self.link_on[l.0])
    }

    /// Count of powered switches.
    pub fn active_switch_count(&self, topo: &Topology) -> usize {
        topo.nodes()
            .filter(|(id, n)| n.kind.is_switch() && self.node_on[id.0])
            .count()
    }

    /// Count of powered links.
    pub fn active_link_count(&self) -> usize {
        self.link_on.iter().filter(|&&b| b).count()
    }

    /// Counts of switches/links that change power state going from `self`
    /// to `next`. Both states must come from the same topology (same node
    /// and link counts); host nodes never toggle so only switches count.
    ///
    /// # Panics
    /// Panics if the two states have different node or link counts.
    pub fn delta(&self, topo: &Topology, next: &NetworkState) -> StateDelta {
        assert_eq!(
            self.node_on.len(),
            next.node_on.len(),
            "node count mismatch"
        );
        assert_eq!(
            self.link_on.len(),
            next.link_on.len(),
            "link count mismatch"
        );
        let mut d = StateDelta::default();
        for (id, n) in topo.nodes() {
            if !n.kind.is_switch() {
                continue;
            }
            match (self.node_on[id.0], next.node_on[id.0]) {
                (false, true) => d.switches_on += 1,
                (true, false) => d.switches_off += 1,
                _ => {}
            }
        }
        for (was, is) in self.link_on.iter().zip(&next.link_on) {
            match (was, is) {
                (false, true) => d.links_on += 1,
                (true, false) => d.links_off += 1,
                _ => {}
            }
        }
        d
    }
}

/// Power-state churn between two [`NetworkState`]s (see
/// [`NetworkState::delta`]): how many switches and links were toggled on
/// or off across an epoch boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StateDelta {
    /// Links powered up in the newer state.
    pub links_on: usize,
    /// Links powered down in the newer state.
    pub links_off: usize,
    /// Switches powered up in the newer state.
    pub switches_on: usize,
    /// Switches powered down in the newer state.
    pub switches_off: usize,
}

impl StateDelta {
    /// `true` when nothing toggled.
    pub fn is_empty(&self) -> bool {
        self.links_on == 0 && self.links_off == 0 && self.switches_on == 0 && self.switches_off == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eprons_topo::{paths::candidate_paths, AggregationLevel, FatTree};

    #[test]
    fn all_on_initial_state() {
        let ft = FatTree::new(4, 1000.0);
        let st = NetworkState::all_on(ft.topology());
        assert_eq!(st.active_switch_count(ft.topology()), 20);
        assert_eq!(st.active_link_count(), 48);
        for (id, _) in ft.topology().links() {
            assert_eq!(st.load(id), 0.0);
            assert_eq!(st.utilization(id), 0.0);
        }
    }

    #[test]
    fn with_active_switches_matches_aggregation() {
        let ft = FatTree::new(4, 1000.0);
        let active = AggregationLevel::Agg3.active_switches(&ft);
        let st = NetworkState::with_active_switches(ft.topology(), &active);
        assert_eq!(st.active_switch_count(ft.topology()), 13);
        assert_eq!(
            st.active_link_count(),
            AggregationLevel::Agg3.active_links(&ft).len()
        );
        for &h in ft.hosts() {
            assert!(st.node_on(h));
        }
    }

    #[test]
    fn load_accounting_is_directional() {
        let ft = FatTree::new(4, 1000.0);
        let topo = ft.topology();
        let mut st = NetworkState::all_on(topo);
        let p = &candidate_paths(&ft, ft.host(0, 0, 0), ft.host(1, 0, 0))[0];
        st.add_path_load(topo, p, 300.0);
        // Forward direction loaded, reverse untouched.
        for (from, _, l) in p.hops() {
            let dir = direction_from(topo, l, from);
            assert_eq!(st.load_dir(l, dir), 300.0);
            assert_eq!(st.load_dir(l, 1 - dir), 0.0);
        }
        st.remove_path_load(topo, p, 300.0);
        for &l in &p.links {
            assert_eq!(st.load(l), 0.0);
        }
    }

    #[test]
    fn full_duplex_directions_are_independent() {
        // Opposite flows on the same links don't contend (full duplex).
        let ft = FatTree::new(4, 1000.0);
        let topo = ft.topology();
        let mut st = NetworkState::all_on(topo);
        let a = ft.host(0, 0, 0);
        let b = ft.host(0, 0, 1);
        let fwd = &candidate_paths(&ft, a, b)[0];
        let rev = &candidate_paths(&ft, b, a)[0];
        st.add_path_load(topo, fwd, 800.0);
        st.add_path_load(topo, rev, 800.0);
        for &l in &fwd.links {
            // Each direction at 0.8, never 1.6 summed.
            assert!((st.utilization(l) - 0.8).abs() < 1e-12);
        }
    }

    #[test]
    fn remove_clamps_at_zero() {
        let ft = FatTree::new(4, 1000.0);
        let topo = ft.topology();
        let mut st = NetworkState::all_on(topo);
        let p = &candidate_paths(&ft, ft.host(0, 0, 0), ft.host(0, 0, 1))[0];
        st.add_path_load(topo, p, 10.0);
        st.remove_path_load(topo, p, 100.0);
        assert_eq!(st.load(p.links[0]), 0.0);
    }

    #[test]
    fn path_availability_tracks_switch_state() {
        let ft = FatTree::new(4, 1000.0);
        let mut st = NetworkState::all_on(ft.topology());
        let paths = candidate_paths(&ft, ft.host(0, 0, 0), ft.host(1, 0, 0));
        assert!(st.path_available(&paths[0]));
        let core = paths[0].nodes[3];
        st.set_node(core, false);
        st.refresh_links(ft.topology());
        assert!(!st.path_available(&paths[0]));
        assert!(paths.iter().any(|p| st.path_available(p)));
    }

    #[test]
    fn utilizations_along_path_follow_direction() {
        let ft = FatTree::new(4, 1000.0);
        let topo = ft.topology();
        let mut st = NetworkState::all_on(topo);
        let p = &candidate_paths(&ft, ft.host(2, 0, 0), ft.host(2, 1, 0))[0];
        st.add_path_load(topo, p, 500.0);
        let mut utils = Vec::new();
        st.path_utilizations_into(topo, p, &mut utils);
        assert_eq!(utils.len(), p.hop_count());
        assert!(utils.iter().all(|&u| (u - 0.5).abs() < 1e-12));
        // The reverse path sees empty links.
        let rev = &candidate_paths(&ft, ft.host(2, 1, 0), ft.host(2, 0, 0))[0];
        // Reverse of the same agg choice may differ; check its own
        // direction is unloaded wherever it shares links with `p`.
        for (from, _, l) in rev.hops() {
            if p.links.contains(&l) {
                let dir = direction_from(topo, l, from);
                assert_eq!(st.load_dir(l, dir), 0.0);
            }
        }
    }

    #[test]
    fn delta_counts_toggled_switches_and_links() {
        let ft = FatTree::new(4, 1000.0);
        let topo = ft.topology();
        let all = NetworkState::all_on(topo);
        // No change → empty delta.
        assert!(all.delta(topo, &all).is_empty());
        // all-on → Agg3 subtree: 20−13 = 7 switches power down, nothing up.
        let active = AggregationLevel::Agg3.active_switches(&ft);
        let agg = NetworkState::with_active_switches(topo, &active);
        let down = all.delta(topo, &agg);
        assert_eq!(down.switches_off, 7);
        assert_eq!(down.switches_on, 0);
        assert_eq!(down.links_off, 48 - agg.active_link_count());
        assert_eq!(down.links_on, 0);
        // And the reverse direction mirrors it.
        let up = agg.delta(topo, &all);
        assert_eq!(up.switches_on, 7);
        assert_eq!(up.switches_off, 0);
        assert_eq!(up.links_on, down.links_off);
        assert_eq!(up.links_off, 0);
    }
}
