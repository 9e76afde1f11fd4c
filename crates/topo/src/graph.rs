//! An undirected multigraph with typed nodes and capacitated links.

/// Handle to a node (host or switch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Handle to an undirected link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub usize);

/// The role of a node in the data center.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// A server (end host).
    Host,
    /// Top-of-rack / edge-level switch.
    EdgeSwitch,
    /// Aggregation-level switch.
    AggSwitch,
    /// Core-level switch.
    CoreSwitch,
}

impl NodeKind {
    /// `true` for any switch kind.
    #[inline]
    pub fn is_switch(self) -> bool {
        !matches!(self, NodeKind::Host)
    }
}

/// A node.
#[derive(Debug, Clone)]
pub struct Node {
    /// Role.
    pub kind: NodeKind,
    /// Human-readable name, e.g. `"agg[p1]\[1\]"`.
    pub name: String,
}

/// An undirected link with a capacity in Mbps.
#[derive(Debug, Clone)]
pub struct Link {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Capacity in Mbps (the paper uses 1 Gbps links = 1000 Mbps).
    pub capacity_mbps: f64,
}

impl Link {
    /// The endpoint opposite `n`.
    ///
    /// # Panics
    /// Panics if `n` is not an endpoint of this link.
    pub fn other(&self, n: NodeId) -> NodeId {
        if n == self.a {
            self.b
        } else if n == self.b {
            self.a
        } else {
            panic!("node {:?} is not an endpoint of this link", n)
        }
    }

    /// `true` iff `n` is an endpoint.
    #[inline]
    pub fn touches(&self, n: NodeId) -> bool {
        n == self.a || n == self.b
    }
}

/// Flat CSR adjacency: node `i`'s neighbors live in
/// `nbr[off[i]..off[i+1]]`. One contiguous buffer instead of a
/// `Vec<Vec<_>>` of per-node allocations, so neighbor walks at k=16–24
/// scale stay cache-resident. Per-node neighbor order equals link
/// insertion order, matching the old per-node push order exactly (BFS
/// and path enumeration stay bit-identical).
#[derive(Debug, Clone)]
struct CsrAdj {
    off: Vec<u32>,
    nbr: Vec<(NodeId, LinkId)>,
}

/// The topology: nodes, links, adjacency.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// Built lazily from `links` on first neighbor query; cleared by any
    /// mutation. A build from an immutable borrow is safe to race — both
    /// writers compute the same value.
    csr: std::sync::OnceLock<CsrAdj>,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty topology with pre-sized node/link storage —
    /// builders that know their closed-form counts (fat-tree,
    /// leaf–spine) avoid every reallocation during construction.
    pub fn with_capacity(nodes: usize, links: usize) -> Self {
        Topology {
            nodes: Vec::with_capacity(nodes),
            links: Vec::with_capacity(links),
            csr: std::sync::OnceLock::new(),
        }
    }

    fn csr(&self) -> &CsrAdj {
        self.csr.get_or_init(|| {
            let n = self.nodes.len();
            let mut off = vec![0u32; n + 1];
            for l in &self.links {
                off[l.a.0 + 1] += 1;
                off[l.b.0 + 1] += 1;
            }
            for i in 0..n {
                off[i + 1] += off[i];
            }
            let mut cursor: Vec<u32> = off[..n].to_vec();
            let mut nbr = vec![(NodeId(0), LinkId(0)); 2 * self.links.len()];
            for (i, l) in self.links.iter().enumerate() {
                let id = LinkId(i);
                nbr[cursor[l.a.0] as usize] = (l.b, id);
                cursor[l.a.0] += 1;
                nbr[cursor[l.b.0] as usize] = (l.a, id);
                cursor[l.b.0] += 1;
            }
            CsrAdj { off, nbr }
        })
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, kind: NodeKind, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            kind,
            name: name.into(),
        });
        self.csr.take();
        id
    }

    /// Adds an undirected link and returns its id.
    ///
    /// # Panics
    /// Panics on unknown endpoints, self-loops, or non-positive capacity.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, capacity_mbps: f64) -> LinkId {
        assert!(
            a.0 < self.nodes.len() && b.0 < self.nodes.len(),
            "unknown endpoint"
        );
        assert_ne!(a, b, "self-loops are not allowed");
        assert!(capacity_mbps > 0.0, "capacity must be positive");
        let id = LinkId(self.links.len());
        self.links.push(Link {
            a,
            b,
            capacity_mbps,
        });
        self.csr.take();
        id
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links.
    #[inline]
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Node data.
    #[inline]
    pub fn node(&self, n: NodeId) -> &Node {
        &self.nodes[n.0]
    }

    /// Link data.
    #[inline]
    pub fn link(&self, l: LinkId) -> &Link {
        &self.links[l.0]
    }

    /// All nodes with their ids.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i), n))
    }

    /// All links with their ids.
    pub fn links(&self) -> impl Iterator<Item = (LinkId, &Link)> {
        self.links.iter().enumerate().map(|(i, l)| (LinkId(i), l))
    }

    /// Neighbors of `n` as `(neighbor, connecting link)` pairs.
    ///
    /// Pairs appear in link-insertion order; the slice points into one
    /// flat CSR buffer shared by all nodes.
    #[inline]
    pub fn neighbors(&self, n: NodeId) -> &[(NodeId, LinkId)] {
        let csr = self.csr();
        &csr.nbr[csr.off[n.0] as usize..csr.off[n.0 + 1] as usize]
    }

    /// All host nodes.
    pub fn hosts(&self) -> Vec<NodeId> {
        self.nodes()
            .filter(|(_, n)| n.kind == NodeKind::Host)
            .map(|(id, _)| id)
            .collect()
    }

    /// All switch nodes.
    pub fn switches(&self) -> Vec<NodeId> {
        self.nodes()
            .filter(|(_, n)| n.kind.is_switch())
            .map(|(id, _)| id)
            .collect()
    }

    /// Per-node flags indexed by `NodeId.0`: `true` for every non-switch
    /// node and for each of `switches`. Turns "is this node on?" against
    /// a switch set into one load.
    pub fn node_mask(&self, switches: impl IntoIterator<Item = NodeId>) -> Vec<bool> {
        let mut on: Vec<bool> = self.nodes.iter().map(|n| !n.kind.is_switch()).collect();
        for s in switches {
            on[s.0] = true;
        }
        on
    }

    /// The link between `a` and `b`, if any (first match).
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        self.neighbors(a)
            .iter()
            .find(|(n, _)| *n == b)
            .map(|&(_, l)| l)
    }

    /// Degree of a node.
    #[inline]
    pub fn degree(&self, n: NodeId) -> usize {
        self.neighbors(n).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> (Topology, [NodeId; 3], [LinkId; 3]) {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Host, "a");
        let b = t.add_node(NodeKind::EdgeSwitch, "b");
        let c = t.add_node(NodeKind::CoreSwitch, "c");
        let ab = t.add_link(a, b, 1000.0);
        let bc = t.add_link(b, c, 1000.0);
        let ca = t.add_link(c, a, 1000.0);
        (t, [a, b, c], [ab, bc, ca])
    }

    #[test]
    fn construction_and_counts() {
        let (t, [a, b, c], _) = triangle();
        assert_eq!(t.num_nodes(), 3);
        assert_eq!(t.num_links(), 3);
        assert_eq!(t.degree(a), 2);
        assert_eq!(t.node(b).kind, NodeKind::EdgeSwitch);
        assert_eq!(t.node(c).name, "c");
    }

    #[test]
    fn adjacency_is_symmetric() {
        let (t, [a, b, _], [ab, ..]) = triangle();
        assert!(t.neighbors(a).contains(&(b, ab)));
        assert!(t.neighbors(b).contains(&(a, ab)));
    }

    #[test]
    fn link_lookup_and_other() {
        let (t, [a, b, c], [ab, _, _]) = triangle();
        assert_eq!(t.link_between(a, b), Some(ab));
        assert_eq!(t.link_between(b, a), Some(ab));
        let l = t.link(ab);
        assert_eq!(l.other(a), b);
        assert_eq!(l.other(b), a);
        assert!(l.touches(a) && !l.touches(c));
    }

    #[test]
    fn hosts_and_switches_partition() {
        let (t, _, _) = triangle();
        assert_eq!(t.hosts().len(), 1);
        assert_eq!(t.switches().len(), 2);
    }

    #[test]
    fn csr_rebuilds_after_mutation() {
        let (mut t, [a, b, c], _) = triangle();
        // Force the CSR to materialize, then mutate.
        assert_eq!(t.degree(a), 2);
        let d = t.add_node(NodeKind::Host, "d");
        assert_eq!(t.degree(d), 0);
        let cd = t.add_link(c, d, 1000.0);
        assert!(t.neighbors(c).contains(&(d, cd)));
        assert!(t.neighbors(d).contains(&(c, cd)));
        assert_eq!(t.degree(c), 3);
        assert_eq!(t.degree(b), 2);
        assert_eq!(t.link_between(d, c), Some(cd));
    }

    #[test]
    fn neighbor_order_is_link_insertion_order() {
        let (t, [a, b, c], [ab, _, ca]) = triangle();
        // a's links were added in order ab (first), ca (last).
        assert_eq!(t.neighbors(a), &[(b, ab), (c, ca)]);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Host, "a");
        t.add_link(a, a, 1.0);
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn other_panics_for_non_endpoint() {
        let (t, [_, _, c], [ab, _, _]) = triangle();
        let _ = t.link(ab).other(c);
    }
}
