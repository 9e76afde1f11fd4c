//! Path representation and enumeration.
//!
//! The consolidation optimizer chooses, per flow, one path out of the flow's
//! ECMP candidate set (no splitting — paper eq. 9 forbids it to avoid packet
//! reordering). [`candidate_paths`] enumerates that set for a fat-tree;
//! [`bfs_path`] routes on an arbitrary active subgraph (used to verify
//! connectivity of aggregation policies and as a fallback router).

use std::collections::VecDeque;

use crate::fattree::FatTree;
use crate::graph::{LinkId, NodeId, Topology};

/// A simple path: `nodes.len() == links.len() + 1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Path {
    /// Visited nodes, source first.
    pub nodes: Vec<NodeId>,
    /// Traversed links, in order.
    pub links: Vec<LinkId>,
}

impl Path {
    /// Number of hops (links).
    #[inline]
    pub fn hop_count(&self) -> usize {
        self.links.len()
    }

    /// Source node.
    #[inline]
    pub fn src(&self) -> NodeId {
        self.nodes[0]
    }

    /// Destination node.
    #[inline]
    pub fn dst(&self) -> NodeId {
        *self.nodes.last().expect("paths are non-empty")
    }

    /// The switches on the path (all interior nodes).
    pub fn interior(&self) -> &[NodeId] {
        &self.nodes[1..self.nodes.len() - 1]
    }

    /// Iterates the path's hops as `(from, to, link)` triples — the
    /// directed view needed for full-duplex capacity accounting.
    pub fn hops(&self) -> impl Iterator<Item = (NodeId, NodeId, LinkId)> + '_ {
        self.links
            .iter()
            .enumerate()
            .map(|(i, &l)| (self.nodes[i], self.nodes[i + 1], l))
    }

    /// Validates internal consistency against a topology (each link joins
    /// consecutive nodes). Used by tests and debug assertions.
    pub fn is_consistent(&self, topo: &Topology) -> bool {
        if self.nodes.len() != self.links.len() + 1 {
            return false;
        }
        self.links.iter().enumerate().all(|(i, &l)| {
            let link = topo.link(l);
            link.touches(self.nodes[i])
                && link.touches(self.nodes[i + 1])
                && self.nodes[i] != self.nodes[i + 1]
        })
    }
}

/// A borrowed view of a path: two slices into storage owned elsewhere
/// (a [`Path`], or an arena's flat buffers). Lets path consumers walk
/// candidate sets without a heap allocation per path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathRef<'a> {
    /// Visited nodes, source first.
    pub nodes: &'a [NodeId],
    /// Traversed links, in order; `nodes.len() == links.len() + 1`.
    pub links: &'a [LinkId],
}

impl<'a> PathRef<'a> {
    /// Borrows an owned [`Path`].
    #[inline]
    pub fn of(path: &'a Path) -> Self {
        PathRef {
            nodes: &path.nodes,
            links: &path.links,
        }
    }

    /// Number of hops (links).
    #[inline]
    pub fn hop_count(&self) -> usize {
        self.links.len()
    }

    /// Source node.
    #[inline]
    pub fn src(&self) -> NodeId {
        self.nodes[0]
    }

    /// Destination node.
    #[inline]
    pub fn dst(&self) -> NodeId {
        *self.nodes.last().expect("paths are non-empty")
    }

    /// The switches on the path (all interior nodes).
    #[inline]
    pub fn interior(&self) -> &'a [NodeId] {
        &self.nodes[1..self.nodes.len() - 1]
    }

    /// Iterates the path's hops as `(from, to, link)` triples.
    pub fn hops(&self) -> impl Iterator<Item = (NodeId, NodeId, LinkId)> + 'a {
        let nodes = self.nodes;
        self.links
            .iter()
            .enumerate()
            .map(move |(i, &l)| (nodes[i], nodes[i + 1], l))
    }

    /// Copies into an owned [`Path`].
    pub fn to_path(&self) -> Path {
        Path {
            nodes: self.nodes.to_vec(),
            links: self.links.to_vec(),
        }
    }

    /// Validates internal consistency against a topology (each link joins
    /// consecutive nodes). Mirror of [`Path::is_consistent`].
    pub fn is_consistent(&self, topo: &Topology) -> bool {
        if self.nodes.len() != self.links.len() + 1 {
            return false;
        }
        self.links.iter().enumerate().all(|(i, &l)| {
            let link = topo.link(l);
            link.touches(self.nodes[i])
                && link.touches(self.nodes[i + 1])
                && self.nodes[i] != self.nodes[i + 1]
        })
    }
}

impl<'a> From<&'a Path> for PathRef<'a> {
    #[inline]
    fn from(path: &'a Path) -> Self {
        PathRef::of(path)
    }
}

fn link(topo: &Topology, a: NodeId, b: NodeId) -> LinkId {
    topo.link_between(a, b)
        .expect("fat-tree wiring guarantees this link exists")
}

fn path_via(topo: &Topology, nodes: Vec<NodeId>) -> Path {
    let links = nodes.windows(2).map(|w| link(topo, w[0], w[1])).collect();
    Path { nodes, links }
}

/// Enumerates every up/down ECMP candidate path between two distinct hosts
/// of a fat-tree:
///
/// * same edge switch: the single 2-hop path through that switch;
/// * same pod, different edge: one 4-hop path per aggregation switch;
/// * different pods: one 6-hop path per core switch.
///
/// # Panics
/// Panics if `src == dst` or either is not a host of `ft`.
pub fn candidate_paths(ft: &FatTree, src: NodeId, dst: NodeId) -> Vec<Path> {
    assert_ne!(src, dst, "src and dst must differ");
    let topo = ft.topology();
    let half = ft.k() / 2;
    let se = ft.host_edge(src);
    let de = ft.host_edge(dst);
    if se == de {
        return vec![path_via(topo, vec![src, se, dst])];
    }
    let sp = ft.host_pod(src);
    let dp = ft.host_pod(dst);
    if sp == dp {
        // One path per aggregation switch of the pod.
        (0..half)
            .map(|j| path_via(topo, vec![src, se, ft.agg(sp, j), de, dst]))
            .collect()
    } else {
        // One path per core switch: up via agg(sp, group), across the core,
        // down via agg(dp, group).
        let mut out = Vec::with_capacity(half * half);
        for group in 0..half {
            for m in 0..half {
                out.push(path_via(
                    topo,
                    vec![
                        src,
                        se,
                        ft.agg(sp, group),
                        ft.core(group, m),
                        ft.agg(dp, group),
                        de,
                        dst,
                    ],
                ));
            }
        }
        out
    }
}

/// Breadth-first shortest path from `src` to `dst` using only nodes and
/// links accepted by the filters (`src`/`dst` are always accepted).
pub fn bfs_path(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    node_ok: impl Fn(NodeId) -> bool,
    link_ok: impl Fn(LinkId) -> bool,
) -> Option<Path> {
    if src == dst {
        return Some(Path {
            nodes: vec![src],
            links: vec![],
        });
    }
    let n = topo.num_nodes();
    let mut prev: Vec<Option<(NodeId, LinkId)>> = vec![None; n];
    let mut seen = vec![false; n];
    seen[src.0] = true;
    let mut queue = VecDeque::new();
    queue.push_back(src);
    'bfs: while let Some(u) = queue.pop_front() {
        for &(v, l) in topo.neighbors(u) {
            if seen[v.0] || !link_ok(l) {
                continue;
            }
            if v != dst && !node_ok(v) {
                continue;
            }
            seen[v.0] = true;
            prev[v.0] = Some((u, l));
            if v == dst {
                break 'bfs;
            }
            queue.push_back(v);
        }
    }
    if !seen[dst.0] {
        return None;
    }
    // Reconstruct.
    let mut nodes = vec![dst];
    let mut links = Vec::new();
    let mut cur = dst;
    while let Some((p, l)) = prev[cur.0] {
        nodes.push(p);
        links.push(l);
        cur = p;
    }
    nodes.reverse();
    links.reverse();
    Some(Path { nodes, links })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_edge_single_path() {
        let ft = FatTree::new(4, 1000.0);
        let a = ft.host(0, 0, 0);
        let b = ft.host(0, 0, 1);
        let ps = candidate_paths(&ft, a, b);
        assert_eq!(ps.len(), 1);
        assert_eq!(ps[0].hop_count(), 2);
        assert!(ps[0].is_consistent(ft.topology()));
        assert_eq!(ps[0].interior(), &[ft.edge(0, 0)]);
    }

    #[test]
    fn same_pod_paths_one_per_agg() {
        let ft = FatTree::new(4, 1000.0);
        let a = ft.host(1, 0, 0);
        let b = ft.host(1, 1, 0);
        let ps = candidate_paths(&ft, a, b);
        assert_eq!(ps.len(), 2);
        for p in &ps {
            assert_eq!(p.hop_count(), 4);
            assert!(p.is_consistent(ft.topology()));
        }
        // Paths differ in the aggregation switch used.
        assert_ne!(ps[0].nodes[2], ps[1].nodes[2]);
    }

    #[test]
    fn cross_pod_paths_one_per_core() {
        let ft = FatTree::new(4, 1000.0);
        let a = ft.host(0, 0, 0);
        let b = ft.host(3, 1, 1);
        let ps = candidate_paths(&ft, a, b);
        assert_eq!(ps.len(), 4); // (k/2)² = 4 cores
        let mut cores_used: Vec<NodeId> = ps.iter().map(|p| p.nodes[3]).collect();
        cores_used.sort();
        cores_used.dedup();
        assert_eq!(cores_used.len(), 4, "each path crosses a distinct core");
        for p in &ps {
            assert_eq!(p.hop_count(), 6);
            assert!(p.is_consistent(ft.topology()));
            assert_eq!(p.src(), a);
            assert_eq!(p.dst(), b);
        }
    }

    #[test]
    fn k8_cross_pod_path_count() {
        let ft = FatTree::new(8, 1000.0);
        let a = ft.host(0, 0, 0);
        let b = ft.host(7, 3, 3);
        assert_eq!(candidate_paths(&ft, a, b).len(), 16); // (8/2)²
    }

    #[test]
    fn bfs_finds_shortest() {
        let ft = FatTree::new(4, 1000.0);
        let a = ft.host(0, 0, 0);
        let b = ft.host(2, 0, 0);
        let p = bfs_path(ft.topology(), a, b, |_| true, |_| true).unwrap();
        assert_eq!(p.hop_count(), 6);
        assert!(p.is_consistent(ft.topology()));
    }

    #[test]
    fn bfs_respects_node_filter() {
        let ft = FatTree::new(4, 1000.0);
        let a = ft.host(0, 0, 0);
        let b = ft.host(1, 0, 0);
        // Forbid every core except core(0,0): path must use it.
        let allowed_core = ft.core(0, 0);
        let cores: Vec<NodeId> = ft.core_switches().to_vec();
        let p = bfs_path(
            ft.topology(),
            a,
            b,
            |n| !cores.contains(&n) || n == allowed_core,
            |_| true,
        )
        .unwrap();
        assert!(p.nodes.contains(&allowed_core));
    }

    #[test]
    fn bfs_reports_disconnection() {
        let ft = FatTree::new(4, 1000.0);
        let a = ft.host(0, 0, 0);
        let b = ft.host(1, 0, 0);
        // Block all cores: cross-pod traffic is impossible.
        let cores: Vec<NodeId> = ft.core_switches().to_vec();
        let p = bfs_path(ft.topology(), a, b, |n| !cores.contains(&n), |_| true);
        assert!(p.is_none());
    }

    #[test]
    fn bfs_trivial_self_path() {
        let ft = FatTree::new(4, 1000.0);
        let a = ft.host(0, 0, 0);
        let p = bfs_path(ft.topology(), a, a, |_| true, |_| true).unwrap();
        assert_eq!(p.hop_count(), 0);
    }

    #[test]
    fn candidate_paths_avoid_duplicate_links() {
        let ft = FatTree::new(4, 1000.0);
        let a = ft.host(0, 0, 0);
        let b = ft.host(2, 1, 1);
        for p in candidate_paths(&ft, a, b) {
            let mut ls = p.links.clone();
            ls.sort();
            ls.dedup();
            assert_eq!(ls.len(), p.links.len(), "no repeated links");
        }
    }
}
