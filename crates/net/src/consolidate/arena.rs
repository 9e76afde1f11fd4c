//! Shared candidate-path arena.
//!
//! Every consolidator asks the topology for each flow's ECMP candidate
//! paths. Enumeration walks the graph and allocates per call, and the K
//! ladder repeats the identical question once per candidate — the demands
//! scale with `K` but the endpoints never change. [`PathArena`] answers
//! from precomputed storage. It implements [`MultipathTopology`] itself,
//! so the greedy, aggregation-preset, and MILP consolidators all benefit
//! through the trait without code changes.
//!
//! # Storage
//!
//! Naive per-host-pair caching is quadratic in hosts and explodes at
//! scale: a k=16 fat-tree has ~1M ordered host pairs × 64 candidates,
//! gigabytes of duplicated switch sequences. But when every host is
//! single-homed (degree 1 — true of fat-trees and leaf–spines), a
//! candidate path factors as `[src] + interior + [dst]` with
//! `[uplink(src)] + interior_links + [uplink(dst)]`, and the interior
//! depends only on the ordered pair of *access switches*. The arena
//! therefore stores one flat interior-segment table per access pair —
//! `(k²/4)²` entries instead of `(k³/4)²` — and assembles full paths on
//! demand from contiguous `u32` slices. Any topology with a multi-homed
//! host falls back to per-host-pair owned paths.

use std::collections::HashMap;
use std::ops::ControlFlow;

use eprons_topo::{LinkId, MultipathTopology, NodeId, Path, PathRef, Topology};

/// Interior segments shared across all host pairs with the same ordered
/// access-switch pair. All index vectors are flat SoA over `u32` ids.
#[derive(Debug, Clone)]
struct SharedStore {
    /// `NodeId.0` → host ordinal, `u32::MAX` for non-hosts.
    host_ord: Vec<u32>,
    /// Per host ordinal: its single access switch.
    access: Vec<NodeId>,
    /// Per host ordinal: its uplink.
    uplink: Vec<LinkId>,
    /// `NodeId.0` → compact access-switch index, `u32::MAX` otherwise.
    acc_idx: Vec<u32>,
    n_acc: usize,
    /// Ordered access pair `i * n_acc + j` → candidate-id range
    /// `pair_off[p]..pair_off[p + 1]`.
    pair_off: Vec<u32>,
    /// Candidate id → interior-node range in `seg_nodes`.
    cand_node_off: Vec<u32>,
    /// Candidate id → interior-link range in `seg_links`.
    cand_link_off: Vec<u32>,
    seg_nodes: Vec<u32>,
    seg_links: Vec<u32>,
    /// Longest interior node segment — sizes assembly scratch exactly.
    max_seg: usize,
}

impl SharedStore {
    /// The ordered access pair `i * n_acc + j` of `(src, dst)`, if both
    /// are distinct known hosts.
    fn access_pair(&self, src: NodeId, dst: NodeId) -> Option<usize> {
        if src == dst {
            return None;
        }
        let so = *self.host_ord.get(src.0)?;
        let do_ = *self.host_ord.get(dst.0)?;
        if so == u32::MAX || do_ == u32::MAX {
            return None;
        }
        let i = self.acc_idx[self.access[so as usize].0] as usize;
        let j = self.acc_idx[self.access[do_ as usize].0] as usize;
        Some(i * self.n_acc + j)
    }

    /// Candidate-id range for `(src, dst)` if both are known hosts with
    /// distinct access info resolvable in this store.
    fn pair_candidates(&self, src: NodeId, dst: NodeId) -> Option<std::ops::Range<usize>> {
        let p = self.access_pair(src, dst)?;
        Some(self.pair_off[p] as usize..self.pair_off[p + 1] as usize)
    }

    /// Assembles candidate `c` for `(src, dst)` into the scratch buffers.
    fn assemble(
        &self,
        src: NodeId,
        dst: NodeId,
        c: usize,
        nodes: &mut Vec<NodeId>,
        links: &mut Vec<LinkId>,
    ) {
        let so = self.host_ord[src.0] as usize;
        let do_ = self.host_ord[dst.0] as usize;
        nodes.clear();
        links.clear();
        nodes.push(src);
        let nr = self.cand_node_off[c] as usize..self.cand_node_off[c + 1] as usize;
        for &v in &self.seg_nodes[nr] {
            nodes.push(NodeId(v as usize));
        }
        nodes.push(dst);
        links.push(self.uplink[so]);
        let lr = self.cand_link_off[c] as usize..self.cand_link_off[c + 1] as usize;
        for &l in &self.seg_links[lr] {
            links.push(LinkId(l as usize));
        }
        links.push(self.uplink[do_]);
    }

    fn bytes(&self) -> usize {
        self.overhead_bytes() + self.seg_nodes.len() * 4 + self.seg_links.len() * 4
    }

    /// Everything except the interior segments themselves: host remap
    /// tables and offset arrays, not attributable to any one access pair.
    fn overhead_bytes(&self) -> usize {
        self.host_ord.len() * 4
            + self.access.len() * std::mem::size_of::<NodeId>()
            + self.uplink.len() * std::mem::size_of::<LinkId>()
            + self.acc_idx.len() * 4
            + self.pair_off.len() * 4
            + self.cand_node_off.len() * 4
            + self.cand_link_off.len() * 4
    }
}

/// Backing storage: shared interior segments, or per-pair owned paths
/// when the single-homed-host factoring doesn't hold.
#[derive(Debug, Clone)]
enum Store {
    Shared(SharedStore),
    PerPair(HashMap<(NodeId, NodeId), Vec<Path>>),
}

/// A precomputed candidate-path table over an inner topology.
///
/// Cheap to share: build once per scenario (`ScenarioContext` holds one)
/// and pass `&arena` wherever a `&dyn MultipathTopology` is expected.
/// Lookup order has no effect on results — the arena returns exactly what
/// the inner topology would, so consolidation stays bit-identical.
#[derive(Debug, Clone)]
pub struct PathArena<T> {
    inner: T,
    store: Store,
}

impl<T: MultipathTopology> PathArena<T> {
    /// Builds the arena. Single-homed hosts (every fat-tree and
    /// leaf–spine) get the shared-segment store, enumerating one
    /// representative host pair per ordered access pair; otherwise every
    /// ordered host pair is enumerated and stored outright.
    pub fn build(inner: T) -> Self {
        let store = Self::build_shared(&inner).unwrap_or_else(|| Self::build_per_pair(&inner));
        let arena = PathArena { inner, store };
        eprons_obs::registry()
            .gauge("net.arena.bytes")
            .set(arena.arena_bytes() as f64);
        arena
    }

    /// Shared-segment store, or `None` if the topology's candidate paths
    /// don't factor through access-switch pairs.
    fn build_shared(inner: &T) -> Option<Store> {
        let topo = inner.topology();
        let hosts = inner.host_list();
        if hosts.is_empty() {
            return Some(Store::Shared(SharedStore {
                host_ord: Vec::new(),
                access: Vec::new(),
                uplink: Vec::new(),
                acc_idx: Vec::new(),
                n_acc: 0,
                pair_off: vec![0],
                cand_node_off: vec![0],
                cand_link_off: vec![0],
                seg_nodes: Vec::new(),
                seg_links: Vec::new(),
                max_seg: 0,
            }));
        }

        let mut host_ord = vec![u32::MAX; topo.num_nodes()];
        let mut access = Vec::with_capacity(hosts.len());
        let mut uplink = Vec::with_capacity(hosts.len());
        for (ord, &h) in hosts.iter().enumerate() {
            let nbrs = topo.neighbors(h);
            if nbrs.len() != 1 {
                return None; // multi-homed host: factoring invalid
            }
            host_ord[h.0] = ord as u32;
            access.push(nbrs[0].0);
            uplink.push(nbrs[0].1);
        }

        // Compact access-switch indexing, plus up to two representative
        // hosts per access switch (two are needed for the diagonal).
        let mut acc_idx = vec![u32::MAX; topo.num_nodes()];
        let mut acc_nodes: Vec<NodeId> = Vec::new();
        let mut reps: Vec<(NodeId, Option<NodeId>)> = Vec::new();
        for (ord, &a) in access.iter().enumerate() {
            let h = hosts[ord];
            if acc_idx[a.0] == u32::MAX {
                acc_idx[a.0] = acc_nodes.len() as u32;
                acc_nodes.push(a);
                reps.push((h, None));
            } else {
                let r = &mut reps[acc_idx[a.0] as usize];
                if r.1.is_none() {
                    r.1 = Some(h);
                }
            }
        }
        let n_acc = acc_nodes.len();

        let mut pair_off: Vec<u32> = Vec::with_capacity(n_acc * n_acc + 1);
        pair_off.push(0);
        let mut cand_node_off: Vec<u32> = vec![0];
        let mut cand_link_off: Vec<u32> = vec![0];
        let mut seg_nodes: Vec<u32> = Vec::new();
        let mut seg_links: Vec<u32> = Vec::new();
        let mut max_seg = 0usize;
        let mut n_cand = 0u32;

        for i in 0..n_acc {
            for j in 0..n_acc {
                let pair = if i == j {
                    // Two distinct hosts under the same access switch;
                    // if there is only one, the pair is never queried.
                    reps[i].1.map(|b| (reps[i].0, b))
                } else {
                    Some((reps[i].0, reps[j].0))
                };
                if let Some((ra, rb)) = pair {
                    for p in inner.candidate_paths(ra, rb) {
                        let n = p.nodes.len();
                        // The factoring assumption, checked on the
                        // representative: endpoints in place, first/last
                        // hop are the hosts' uplinks.
                        let ok = n >= 3
                            && p.nodes[0] == ra
                            && p.nodes[n - 1] == rb
                            && p.nodes[1] == access[host_ord[ra.0] as usize]
                            && p.nodes[n - 2] == access[host_ord[rb.0] as usize]
                            && p.links[0] == uplink[host_ord[ra.0] as usize]
                            && p.links[p.links.len() - 1] == uplink[host_ord[rb.0] as usize];
                        if !ok {
                            return None;
                        }
                        for &v in &p.nodes[1..n - 1] {
                            seg_nodes.push(v.0 as u32);
                        }
                        for &l in &p.links[1..p.links.len() - 1] {
                            seg_links.push(l.0 as u32);
                        }
                        max_seg = max_seg.max(n - 2);
                        cand_node_off.push(seg_nodes.len() as u32);
                        cand_link_off.push(seg_links.len() as u32);
                        n_cand += 1;
                    }
                }
                pair_off.push(n_cand);
            }
        }

        Some(Store::Shared(SharedStore {
            host_ord,
            access,
            uplink,
            acc_idx,
            n_acc,
            pair_off,
            cand_node_off,
            cand_link_off,
            seg_nodes,
            seg_links,
            max_seg,
        }))
    }

    fn build_per_pair(inner: &T) -> Store {
        let hosts: Vec<NodeId> = inner.host_list().to_vec();
        let mut paths = HashMap::with_capacity(hosts.len() * hosts.len());
        for &src in &hosts {
            for &dst in &hosts {
                if src != dst {
                    paths.insert((src, dst), inner.candidate_paths(src, dst));
                }
            }
        }
        Store::PerPair(paths)
    }

    /// Approximate bytes held by the arena's path storage (reported as
    /// the `net.arena.bytes` gauge).
    pub fn arena_bytes(&self) -> usize {
        match &self.store {
            Store::Shared(s) => s.bytes(),
            Store::PerPair(map) => {
                map.values()
                    .flatten()
                    .map(|p| {
                        p.nodes.len() * std::mem::size_of::<NodeId>()
                            + p.links.len() * std::mem::size_of::<LinkId>()
                    })
                    .sum::<usize>()
                    + map.len() * 2 * std::mem::size_of::<NodeId>()
            }
        }
    }

    /// `true` when the compact shared-segment store is in use.
    pub fn is_shared(&self) -> bool {
        matches!(self.store, Store::Shared(_))
    }

    /// The wrapped topology.
    pub fn inner(&self) -> &T {
        &self.inner
    }
}

impl<T: MultipathTopology> MultipathTopology for PathArena<T> {
    fn topology(&self) -> &Topology {
        self.inner.topology()
    }

    fn host_list(&self) -> &[NodeId] {
        self.inner.host_list()
    }

    fn candidate_paths(&self, src: NodeId, dst: NodeId) -> Vec<Path> {
        match &self.store {
            Store::Shared(s) => match s.pair_candidates(src, dst) {
                Some(range) => {
                    let mut out = Vec::with_capacity(range.len());
                    let mut nodes = Vec::with_capacity(s.max_seg + 2);
                    let mut links = Vec::with_capacity(s.max_seg + 1);
                    for c in range {
                        s.assemble(src, dst, c, &mut nodes, &mut links);
                        out.push(Path {
                            nodes: nodes.clone(),
                            links: links.clone(),
                        });
                    }
                    out
                }
                // Not a host pair (e.g. a switch endpoint): delegate.
                None => self.inner.candidate_paths(src, dst),
            },
            Store::PerPair(map) => match map.get(&(src, dst)) {
                Some(p) => p.clone(),
                None => self.inner.candidate_paths(src, dst),
            },
        }
    }

    fn for_each_candidate(
        &self,
        src: NodeId,
        dst: NodeId,
        f: &mut dyn FnMut(PathRef<'_>) -> ControlFlow<()>,
    ) {
        match &self.store {
            Store::Shared(s) => match s.pair_candidates(src, dst) {
                Some(range) => {
                    // Two scratch buffers per call, reused across
                    // candidates — no per-path allocation. A break skips
                    // assembling the rest.
                    let mut nodes = Vec::with_capacity(s.max_seg + 2);
                    let mut links = Vec::with_capacity(s.max_seg + 1);
                    for c in range {
                        s.assemble(src, dst, c, &mut nodes, &mut links);
                        let step = f(PathRef {
                            nodes: &nodes,
                            links: &links,
                        });
                        if step.is_break() {
                            return;
                        }
                    }
                }
                None => self.inner.for_each_candidate(src, dst, f),
            },
            Store::PerPair(map) => match map.get(&(src, dst)) {
                Some(ps) => {
                    for p in ps {
                        if f(PathRef::of(p)).is_break() {
                            return;
                        }
                    }
                }
                None => self.inner.for_each_candidate(src, dst, f),
            },
        }
    }

    fn nth_candidate(&self, src: NodeId, dst: NodeId, idx: usize) -> Option<Path> {
        match &self.store {
            Store::Shared(s) => match s.pair_candidates(src, dst) {
                Some(range) => {
                    let c = range.start + idx;
                    if c >= range.end {
                        return None;
                    }
                    let mut nodes = Vec::with_capacity(s.max_seg + 2);
                    let mut links = Vec::with_capacity(s.max_seg + 1);
                    s.assemble(src, dst, c, &mut nodes, &mut links);
                    Some(Path { nodes, links })
                }
                None => self.inner.nth_candidate(src, dst, idx),
            },
            Store::PerPair(map) => match map.get(&(src, dst)) {
                Some(ps) => ps.get(idx).cloned(),
                None => self.inner.nth_candidate(src, dst, idx),
            },
        }
    }

    fn nth_candidate_into(
        &self,
        src: NodeId,
        dst: NodeId,
        idx: usize,
        nodes: &mut Vec<NodeId>,
        links: &mut Vec<LinkId>,
    ) -> bool {
        match &self.store {
            Store::Shared(s) => match s.pair_candidates(src, dst) {
                Some(range) => {
                    let c = range.start + idx;
                    if c >= range.end {
                        return false;
                    }
                    s.assemble(src, dst, c, nodes, links);
                    true
                }
                None => self.inner.nth_candidate_into(src, dst, idx, nodes, links),
            },
            Store::PerPair(map) => match map.get(&(src, dst)) {
                Some(ps) => match ps.get(idx) {
                    Some(p) => {
                        nodes.clear();
                        links.clear();
                        nodes.extend_from_slice(&p.nodes);
                        links.extend_from_slice(&p.links);
                        true
                    }
                    None => false,
                },
                None => self.inner.nth_candidate_into(src, dst, idx, nodes, links),
            },
        }
    }

    /// The ordered access-switch pair in the shared store: every host
    /// pair under the same two access switches is served the same
    /// interior segments, so the pair is an access class by construction.
    /// The per-pair store has no such grouping.
    fn access_class(&self, src: NodeId, dst: NodeId) -> Option<usize> {
        match &self.store {
            Store::Shared(s) => s.access_pair(src, dst),
            Store::PerPair(_) => None,
        }
    }

    fn access_classes(&self) -> usize {
        match &self.store {
            Store::Shared(s) => s.n_acc * s.n_acc,
            Store::PerPair(_) => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eprons_topo::{FatTree, LeafSpine, NodeKind};

    #[test]
    fn arena_serves_identical_paths() {
        let ft = FatTree::new(4, 1000.0);
        let arena = PathArena::build(&ft);
        assert!(arena.is_shared());
        let hosts = arena.host_list().to_vec();
        for &src in &hosts {
            for &dst in &hosts {
                if src == dst {
                    continue;
                }
                assert_eq!(
                    arena.candidate_paths(src, dst),
                    ft.candidate_paths(src, dst),
                    "arena must be invisible to results"
                );
            }
        }
        assert_eq!(arena.topology().num_links(), ft.topology().num_links());
    }

    #[test]
    fn arena_is_shareable_through_the_trait() {
        let ft = std::sync::Arc::new(FatTree::new(4, 1000.0));
        let arena = PathArena::build(ft.clone());
        let dynamic: &dyn MultipathTopology = &arena;
        let paths = dynamic.candidate_paths(dynamic.host_list()[0], dynamic.host_list()[15]);
        assert_eq!(paths.len(), 4);
    }

    #[test]
    fn visitors_match_owned_enumeration() {
        let ls = LeafSpine::new(3, 2, 4, 1000.0);
        let arena = PathArena::build(&ls);
        assert!(arena.is_shared());
        let hosts = arena.host_list().to_vec();
        for &src in &hosts {
            for &dst in &hosts {
                if src == dst {
                    continue;
                }
                let owned = ls.candidate_paths(src, dst);
                let mut seen = Vec::new();
                arena.for_each_candidate(src, dst, &mut |p| {
                    seen.push(p.to_path());
                    ControlFlow::Continue(())
                });
                assert_eq!(seen, owned);
                // Breaking after the first candidate visits only it.
                let mut first = Vec::new();
                arena.for_each_candidate(src, dst, &mut |p| {
                    first.push(p.to_path());
                    ControlFlow::Break(())
                });
                assert_eq!(first[..], owned[..1]);
                for (i, p) in owned.iter().enumerate() {
                    assert_eq!(arena.nth_candidate(src, dst, i).as_ref(), Some(p));
                }
                assert!(arena.nth_candidate(src, dst, owned.len()).is_none());
            }
        }
        assert!(arena.arena_bytes() > 0);
    }

    /// A toy fabric with one dual-homed host — the access-pair factoring
    /// does not apply, so the arena must take the per-pair store.
    #[derive(Debug)]
    struct DualHomed {
        topo: Topology,
        hosts: Vec<NodeId>,
    }

    impl DualHomed {
        fn new() -> Self {
            let mut topo = Topology::new();
            let a = topo.add_node(NodeKind::Host, "a");
            let b = topo.add_node(NodeKind::Host, "b");
            let s1 = topo.add_node(NodeKind::EdgeSwitch, "s1");
            let s2 = topo.add_node(NodeKind::EdgeSwitch, "s2");
            topo.add_link(a, s1, 1000.0);
            topo.add_link(a, s2, 1000.0); // dual-homed
            topo.add_link(b, s1, 1000.0);
            topo.add_link(b, s2, 1000.0);
            DualHomed {
                topo,
                hosts: vec![a, b],
            }
        }
    }

    impl MultipathTopology for DualHomed {
        fn topology(&self) -> &Topology {
            &self.topo
        }

        fn host_list(&self) -> &[NodeId] {
            &self.hosts
        }

        fn candidate_paths(&self, src: NodeId, dst: NodeId) -> Vec<Path> {
            assert_ne!(src, dst);
            [2usize, 3]
                .iter()
                .map(|&s| {
                    let sw = NodeId(s);
                    Path {
                        nodes: vec![src, sw, dst],
                        links: vec![
                            self.topo.link_between(src, sw).unwrap(),
                            self.topo.link_between(sw, dst).unwrap(),
                        ],
                    }
                })
                .collect()
        }
    }

    #[test]
    fn access_classes_group_host_pairs_by_access_switches() {
        let ft = FatTree::new(4, 1000.0);
        let arena = PathArena::build(&ft);
        assert_eq!(arena.access_classes(), 8 * 8);
        let class = |a, b| arena.access_class(a, b);
        let (a0, a1) = (ft.host(0, 0, 0), ft.host(0, 0, 1));
        let (b0, b1) = (ft.host(2, 1, 0), ft.host(2, 1, 1));
        assert!(class(a0, b0).is_some());
        assert_eq!(class(a0, b0), class(a1, b1));
        assert_eq!(class(a0, b1), class(a1, b0));
        // Same access class ⇒ same interiors, in the same order.
        let interiors = |a, b| {
            arena
                .candidate_paths(a, b)
                .into_iter()
                .map(|p| {
                    (
                        p.nodes[1..p.nodes.len() - 1].to_vec(),
                        p.links[1..p.links.len() - 1].to_vec(),
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(interiors(a0, b0), interiors(a1, b1));
        // Direction and the access switch both matter; a host with itself
        // has no class.
        assert_ne!(class(a0, b0), class(b0, a0));
        assert_ne!(class(a0, b0), class(a0, ft.host(2, 0, 0)));
        assert_eq!(class(a0, a1), class(a1, a0));
        assert_eq!(class(a0, a0), None);
        // Forwarded through references and `Arc`, absent on the bare tree.
        let arc = std::sync::Arc::new(PathArena::build(ft.clone()));
        assert_eq!(arc.access_class(a0, b0), class(a0, b0));
        assert_eq!(arc.access_classes(), 64);
        assert_eq!(ft.access_class(a0, b0), None);
        assert_eq!(ft.access_classes(), 0);
        // The dual-homed fabric and its per-pair store offer none.
        let fabric = DualHomed::new();
        let pp = PathArena::build(&fabric);
        let (a, b) = (fabric.hosts[0], fabric.hosts[1]);
        assert_eq!(fabric.access_class(a, b), None);
        assert_eq!(pp.access_class(a, b), None);
        assert_eq!(pp.access_classes(), 0);
    }

    #[test]
    fn multi_homed_hosts_fall_back_to_per_pair() {
        let fabric = DualHomed::new();
        let arena = PathArena::build(&fabric);
        assert!(!arena.is_shared());
        let (a, b) = (fabric.hosts[0], fabric.hosts[1]);
        assert_eq!(arena.candidate_paths(a, b), fabric.candidate_paths(a, b));
        let mut seen = Vec::new();
        arena.for_each_candidate(a, b, &mut |p| {
            seen.push(p.to_path());
            ControlFlow::Continue(())
        });
        assert_eq!(seen, fabric.candidate_paths(a, b));
        let mut first = Vec::new();
        arena.for_each_candidate(a, b, &mut |p| {
            first.push(p.to_path());
            ControlFlow::Break(())
        });
        assert_eq!(first[..], fabric.candidate_paths(a, b)[..1]);
        assert_eq!(
            arena.nth_candidate(a, b, 1),
            Some(fabric.candidate_paths(a, b)[1].clone())
        );
        assert!(arena.arena_bytes() > 0);
    }
}
