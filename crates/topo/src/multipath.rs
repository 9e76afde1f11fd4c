//! Topology abstraction for consolidation.
//!
//! The paper notes that "our optimization model is independent of the
//! network topology" (§IV-B). [`MultipathTopology`] captures exactly what
//! the consolidators need — the graph, the host list, and each host pair's
//! ECMP candidate-path set — so the same greedy/MILP machinery runs on any
//! multipath fabric ([`crate::FatTree`], [`crate::LeafSpine`], …).

use std::ops::ControlFlow;

use crate::graph::{NodeId, Topology};
use crate::paths::{Path, PathRef};

/// A topology offering a finite candidate-path set per host pair.
pub trait MultipathTopology {
    /// The underlying graph.
    fn topology(&self) -> &Topology;

    /// All end hosts.
    fn host_list(&self) -> &[NodeId];

    /// The ECMP candidate paths from `src` to `dst` (both hosts).
    ///
    /// # Panics
    /// Implementations may panic if `src == dst` or either is not a host.
    fn candidate_paths(&self, src: NodeId, dst: NodeId) -> Vec<Path>;

    /// Visits each candidate path as a borrowed [`PathRef`], in the same
    /// order as [`candidate_paths`](Self::candidate_paths), until `f`
    /// returns [`ControlFlow::Break`]: a selection loop that knows no
    /// later candidate can win stops there, and the rest are never
    /// assembled. Implementors with arena-backed storage override this to
    /// avoid allocating a `Vec<Path>` per pair; the default delegates to
    /// `candidate_paths`.
    fn for_each_candidate(
        &self,
        src: NodeId,
        dst: NodeId,
        f: &mut dyn FnMut(PathRef<'_>) -> ControlFlow<()>,
    ) {
        for p in self.candidate_paths(src, dst) {
            if f(PathRef::of(&p)).is_break() {
                return;
            }
        }
    }

    /// The `idx`-th candidate path (same order as
    /// [`candidate_paths`](Self::candidate_paths)), or `None` past the
    /// end. Lets a caller materialize only the one path it selected.
    fn nth_candidate(&self, src: NodeId, dst: NodeId, idx: usize) -> Option<Path> {
        self.candidate_paths(src, dst).into_iter().nth(idx)
    }

    /// Assembles the `idx`-th candidate into caller-owned buffers (cleared
    /// first), or returns `false` past the end. Lets the winners of flows
    /// without an access class and bulk path materialization reuse two
    /// scratch buffers instead of paying two heap allocations per
    /// [`nth_candidate`](Self::nth_candidate) call — at fat-tree scale
    /// (10⁷ flows) the allocator traffic dominates the arithmetic.
    fn nth_candidate_into(
        &self,
        src: NodeId,
        dst: NodeId,
        idx: usize,
        nodes: &mut Vec<NodeId>,
        links: &mut Vec<crate::graph::LinkId>,
    ) -> bool {
        match self.nth_candidate(src, dst, idx) {
            Some(p) => {
                nodes.clear();
                links.clear();
                nodes.extend_from_slice(&p.nodes);
                links.extend_from_slice(&p.links);
                true
            }
            None => false,
        }
    }

    /// The *access class* of `(src, dst)` with its candidate table, or
    /// `None` when the topology offers no such grouping.
    ///
    /// All host pairs of one class are offered candidates with the same
    /// interior segments, in the same order, and the class serves them
    /// as one [`ClassTable`]: candidate `c` of the pair is
    /// `[src] + table.interior(c) + [dst]` over the links
    /// `[uplink(src)] + table.hops(c) + [uplink(dst)]`. A consolidator
    /// reads a class flow's candidates from that table, so the sharing
    /// holds by construction, and may key per-pass state on
    /// [`AccessClass::id`]: work that depends only on candidate interiors
    /// is then done once per class rather than once per flow.
    /// Implementations must only return `Some` when every host is
    /// single-homed and the table matches
    /// [`candidate_paths`](Self::candidate_paths) candidate for
    /// candidate. The default offers no classes.
    fn access_class(&self, _src: NodeId, _dst: NodeId) -> Option<AccessClass<'_>> {
        None
    }

    /// The number of access classes: every [`AccessClass::id`] is below
    /// it (`0` when [`access_class`](Self::access_class) is always
    /// `None`).
    fn access_classes(&self) -> usize {
        0
    }
}

/// An access class of a host pair: its id and its candidates' interiors
/// (see [`MultipathTopology::access_class`]).
#[derive(Debug, Clone, Copy)]
pub struct AccessClass<'a> {
    /// The class, in `0..`[`access_classes`](MultipathTopology::access_classes).
    pub id: usize,
    /// The class's candidates, in candidate order.
    pub table: ClassTable<'a>,
}

/// The interiors of one access class's candidates as borrowed flat
/// tables.
///
/// Candidate `c`'s interior switches are
/// `nodes[node_off[c]..node_off[c + 1]]` and its interior links are
/// `hops[hop_off[c]..hop_off[c + 1]]`, each stored as the *directed hop*
/// `link * 2 + dir`: `dir` is 0 when the path crosses the link from its
/// record's `a` endpoint to `b`, and 1 the other way. `hop >> 1` is the
/// link. The offsets index the whole `nodes` and `hops` slices.
#[derive(Debug, Clone, Copy)]
pub struct ClassTable<'a> {
    node_off: &'a [u32],
    hop_off: &'a [u32],
    nodes: &'a [u32],
    hops: &'a [u32],
}

impl<'a> ClassTable<'a> {
    /// A table over the given offsets (one entry more than there are
    /// candidates, each array) and flat interiors: switch ids
    /// (`NodeId.0`) and directed hops, candidate after candidate.
    ///
    /// # Panics
    /// Panics if the offset arrays differ in length or are empty, or if
    /// their last entries lie past the ends of `nodes` and `hops`.
    pub fn new(node_off: &'a [u32], hop_off: &'a [u32], nodes: &'a [u32], hops: &'a [u32]) -> Self {
        assert!(
            !node_off.is_empty() && node_off.len() == hop_off.len(),
            "one offset per candidate, plus one, in each array"
        );
        assert!(
            node_off[node_off.len() - 1] as usize <= nodes.len()
                && hop_off[hop_off.len() - 1] as usize <= hops.len(),
            "offsets within the tables"
        );
        ClassTable {
            node_off,
            hop_off,
            nodes,
            hops,
        }
    }

    /// The number of candidates.
    #[inline]
    pub fn len(&self) -> usize {
        self.node_off.len() - 1
    }

    /// Whether the class has no candidate.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Candidate `c`'s interior switch ids, source side first.
    #[inline]
    pub fn interior(&self, c: usize) -> &'a [u32] {
        &self.nodes[self.node_off[c] as usize..self.node_off[c + 1] as usize]
    }

    /// Candidate `c`'s interior links as directed hops, in path order.
    #[inline]
    pub fn hops(&self, c: usize) -> &'a [u32] {
        &self.hops[self.hop_off[c] as usize..self.hop_off[c + 1] as usize]
    }
}

impl<T: MultipathTopology + ?Sized> MultipathTopology for &T {
    fn topology(&self) -> &Topology {
        (**self).topology()
    }

    fn host_list(&self) -> &[NodeId] {
        (**self).host_list()
    }

    fn candidate_paths(&self, src: NodeId, dst: NodeId) -> Vec<Path> {
        (**self).candidate_paths(src, dst)
    }

    fn for_each_candidate(
        &self,
        src: NodeId,
        dst: NodeId,
        f: &mut dyn FnMut(PathRef<'_>) -> ControlFlow<()>,
    ) {
        (**self).for_each_candidate(src, dst, f)
    }

    fn nth_candidate(&self, src: NodeId, dst: NodeId, idx: usize) -> Option<Path> {
        (**self).nth_candidate(src, dst, idx)
    }

    fn nth_candidate_into(
        &self,
        src: NodeId,
        dst: NodeId,
        idx: usize,
        nodes: &mut Vec<NodeId>,
        links: &mut Vec<crate::graph::LinkId>,
    ) -> bool {
        (**self).nth_candidate_into(src, dst, idx, nodes, links)
    }

    fn access_class(&self, src: NodeId, dst: NodeId) -> Option<AccessClass<'_>> {
        (**self).access_class(src, dst)
    }

    fn access_classes(&self) -> usize {
        (**self).access_classes()
    }
}

impl<T: MultipathTopology + ?Sized> MultipathTopology for std::sync::Arc<T> {
    fn topology(&self) -> &Topology {
        (**self).topology()
    }

    fn host_list(&self) -> &[NodeId] {
        (**self).host_list()
    }

    fn candidate_paths(&self, src: NodeId, dst: NodeId) -> Vec<Path> {
        (**self).candidate_paths(src, dst)
    }

    fn for_each_candidate(
        &self,
        src: NodeId,
        dst: NodeId,
        f: &mut dyn FnMut(PathRef<'_>) -> ControlFlow<()>,
    ) {
        (**self).for_each_candidate(src, dst, f)
    }

    fn nth_candidate(&self, src: NodeId, dst: NodeId, idx: usize) -> Option<Path> {
        (**self).nth_candidate(src, dst, idx)
    }

    fn nth_candidate_into(
        &self,
        src: NodeId,
        dst: NodeId,
        idx: usize,
        nodes: &mut Vec<NodeId>,
        links: &mut Vec<crate::graph::LinkId>,
    ) -> bool {
        (**self).nth_candidate_into(src, dst, idx, nodes, links)
    }

    fn access_class(&self, src: NodeId, dst: NodeId) -> Option<AccessClass<'_>> {
        (**self).access_class(src, dst)
    }

    fn access_classes(&self) -> usize {
        (**self).access_classes()
    }
}

impl MultipathTopology for crate::FatTree {
    fn topology(&self) -> &Topology {
        crate::FatTree::topology(self)
    }

    fn host_list(&self) -> &[NodeId] {
        self.hosts()
    }

    fn candidate_paths(&self, src: NodeId, dst: NodeId) -> Vec<Path> {
        crate::paths::candidate_paths(self, src, dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FatTree;

    #[test]
    fn fat_tree_implements_the_trait() {
        let ft = FatTree::new(4, 1000.0);
        let t: &dyn MultipathTopology = &ft;
        assert_eq!(t.host_list().len(), 16);
        let paths = t.candidate_paths(t.host_list()[0], t.host_list()[15]);
        assert_eq!(paths.len(), 4);
        assert_eq!(t.topology().num_links(), 48);
    }

    #[test]
    fn default_visitors_agree_with_candidate_paths() {
        let ft = FatTree::new(4, 1000.0);
        let (a, b) = (ft.hosts()[0], ft.hosts()[15]);
        let owned = ft.candidate_paths(a, b);
        let mut seen = Vec::new();
        ft.for_each_candidate(a, b, &mut |p| {
            seen.push(p.to_path());
            ControlFlow::Continue(())
        });
        assert_eq!(seen, owned);
        for (i, p) in owned.iter().enumerate() {
            assert_eq!(ft.nth_candidate(a, b, i).as_ref(), Some(p));
        }
        assert!(ft.nth_candidate(a, b, owned.len()).is_none());
        // Blanket impls forward the visitors too.
        let arc = std::sync::Arc::new(FatTree::new(4, 1000.0));
        let mut n = 0usize;
        arc.for_each_candidate(arc.host_list()[0], arc.host_list()[15], &mut |_| {
            n += 1;
            ControlFlow::Continue(())
        });
        assert_eq!(n, 4);
        // A visitor that breaks sees no later candidate.
        let mut n = 0usize;
        arc.for_each_candidate(arc.host_list()[0], arc.host_list()[15], &mut |_| {
            n += 1;
            if n == 2 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(n, 2);
    }
}
