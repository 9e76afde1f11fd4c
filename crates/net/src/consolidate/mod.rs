//! Latency-aware traffic consolidation (paper §II and §IV-B).
//!
//! A *consolidator* maps a flow set onto paths of the fat-tree so that the
//! active subgraph (and hence DCN power) is minimal while every flow's
//! **scaled** demand — latency-sensitive flows inflated by the factor `K` —
//! fits under each link's usable capacity (capacity minus safety margin).
//!
//! Three interchangeable implementations:
//!
//! * [`arc::ArcMilpConsolidator`] — the faithful arc-based MILP of paper
//!   eqs. 2–9 (exact, small instances only — the paper itself reports
//!   42 min for 3000 flows on CPLEX);
//! * [`path::PathMilpConsolidator`] — an equivalent path-based MILP over
//!   ECMP candidate paths (exact on fat-trees, far fewer binaries);
//! * [`greedy::GreedyConsolidator`] — the deployable greedy bin-packing
//!   heuristic (the paper's §IV-B accelerated design, after \[2\]).
//!
//! [`AggregationRouter`] additionally routes on a *fixed* aggregation level
//! (Fig. 9 presets) for the sensitivity experiments of Figs. 10 and 13.

pub mod arc;
pub mod arena;
pub mod greedy;
pub mod path;
pub mod pod;

use std::ops::ControlFlow;

use eprons_topo::{
    AccessClass, ClassTable, FatTree, LinkId, MultipathTopology, NodeId, Path, PathRef,
};

use crate::flow::FlowSet;
use crate::links::NetworkState;
use crate::power::NetworkPowerModel;

/// Consolidation parameters.
#[derive(Debug, Clone)]
pub struct ConsolidationConfig {
    /// The scale factor `K ≥ 1` applied to latency-sensitive demands.
    pub scale_k: f64,
    /// Safety margin subtracted from every link capacity (50 Mbps in the
    /// paper's Fig. 2 example).
    pub safety_margin_mbps: f64,
    /// Power model used in optimization objectives.
    pub power: NetworkPowerModel,
    /// Switches no consolidator may route through or power on — the
    /// failure mask of §IV-B's backup-path handling. Keep sorted so
    /// downstream iteration stays deterministic. Empty by default.
    pub excluded: Vec<NodeId>,
}

impl Default for ConsolidationConfig {
    fn default() -> Self {
        ConsolidationConfig {
            scale_k: 1.0,
            safety_margin_mbps: 50.0,
            power: NetworkPowerModel::default(),
            excluded: Vec::new(),
        }
    }
}

impl ConsolidationConfig {
    /// Convenience: the paper's defaults with a given `K`.
    pub fn with_k(scale_k: f64) -> Self {
        ConsolidationConfig {
            scale_k,
            ..Default::default()
        }
    }

    /// Usable capacity of a link after the safety margin.
    pub fn usable_capacity(&self, capacity_mbps: f64) -> f64 {
        (capacity_mbps - self.safety_margin_mbps).max(0.0)
    }

    /// These defaults with the given switches masked out (sorted).
    pub fn with_excluded(mut self, mut excluded: Vec<NodeId>) -> Self {
        excluded.sort_unstable();
        excluded.dedup();
        self.excluded = excluded;
        self
    }

    /// Whether a node is masked out by the failure mask.
    #[inline]
    pub fn is_excluded(&self, n: NodeId) -> bool {
        !self.excluded.is_empty() && self.excluded.contains(&n)
    }
}

/// Consolidation failure modes.
#[derive(Debug, Clone, PartialEq)]
pub enum ConsolidationError {
    /// No candidate path had enough residual capacity for a flow.
    NoFeasiblePath {
        /// Index of the offending flow.
        flow: usize,
    },
    /// The optimization model is infeasible (demands exceed the topology).
    Infeasible,
    /// The underlying solver failed (iteration/node limit).
    SolverFailed(String),
}

impl std::fmt::Display for ConsolidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConsolidationError::NoFeasiblePath { flow } => {
                write!(f, "no feasible path for flow {flow}")
            }
            ConsolidationError::Infeasible => write!(f, "consolidation model infeasible"),
            ConsolidationError::SolverFailed(m) => write!(f, "solver failed: {m}"),
        }
    }
}

impl std::error::Error for ConsolidationError {}

/// One flow's path inside a [`PathCollector`]'s flat pools.
#[derive(Debug, Clone, Copy)]
struct PathSpan {
    node_off: u32,
    link_off: u32,
    /// Hop count; `u32::MAX` marks a slot not yet filled.
    hops: u32,
}

const UNSET_SPAN: PathSpan = PathSpan {
    node_off: 0,
    link_off: 0,
    hops: u32::MAX,
};

/// Flat, pooled storage for one chosen path per flow.
///
/// An all-pairs mesh on a k=24 fat-tree is ~1.2·10⁷ flows; holding each
/// path as an owned [`Path`] (two heap `Vec`s) keeps ~2.4·10⁷ small
/// allocations live at once, which costs tens of seconds of allocator
/// time on its own — an order of magnitude more than computing the paths.
/// The collector instead appends every path into three shared pools and
/// hands out [`PathRef`] views, so an assignment of any size is exactly
/// three allocations.
#[derive(Debug, Clone, Default)]
pub struct PathCollector {
    nodes: Vec<NodeId>,
    links: Vec<LinkId>,
    spans: Vec<PathSpan>,
}

impl PathCollector {
    /// An empty collector expecting sequential [`push`](Self::push)es.
    pub fn new() -> Self {
        Self::default()
    }

    /// A collector with one pre-sized slot per flow, for consolidators
    /// that place flows out of flow-id order (set each slot with
    /// [`set`](Self::set)).
    pub fn for_flows(n: usize) -> Self {
        PathCollector {
            nodes: Vec::new(),
            links: Vec::new(),
            spans: vec![UNSET_SPAN; n],
        }
    }

    /// Pre-sizes the pools for `flows` paths of at most `max_hops` hops
    /// each. Growth-by-doubling would copy the (large) pools several
    /// times; on machines where faulting in fresh pages is the dominant
    /// cost of bulk storage, reserving once roughly halves the bill.
    pub fn reserve(&mut self, flows: usize, max_hops: usize) {
        self.spans.reserve(flows);
        self.nodes.reserve(flows * (max_hops + 1));
        self.links.reserve(flows * max_hops);
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Heap bytes of the three pools.
    fn heap_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<NodeId>()
            + self.links.capacity() * std::mem::size_of::<LinkId>()
            + self.spans.capacity() * std::mem::size_of::<PathSpan>()
    }

    /// Whether the collector has no slots.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The span of a `hops`-hop path appended at the pools' ends.
    fn next_span(&self, hops: usize) -> PathSpan {
        PathSpan {
            node_off: u32::try_from(self.nodes.len()).expect("node pool fits u32 offsets"),
            link_off: u32::try_from(self.links.len()).expect("link pool fits u32 offsets"),
            hops: hops as u32,
        }
    }

    fn append(&mut self, p: PathRef<'_>) -> PathSpan {
        debug_assert_eq!(p.nodes.len(), p.links.len() + 1, "malformed path");
        let span = self.next_span(p.links.len());
        self.nodes.extend_from_slice(p.nodes);
        self.links.extend_from_slice(p.links);
        span
    }

    /// Appends candidate `c` of a class flow from its table parts. Each
    /// pool reserves the whole path before it is written, so the pools
    /// grow exactly as [`append`](Self::append) of the assembled path
    /// grows them. Pushed part by part, a pool would double from a
    /// different first capacity and could end up to twice the size it
    /// needs; a day holds several assignments, so that showed as ~2 MB
    /// more peak RSS on a k=8 replay day.
    fn append_class(&mut self, f: &ClassFlow<'_>, c: usize) -> PathSpan {
        let (interior, hops) = (f.table.interior(c), f.table.hops(c));
        let span = self.next_span(hops.len() + 2);
        self.nodes.reserve(interior.len() + 2);
        self.nodes.push(f.src);
        self.nodes
            .extend(interior.iter().map(|&n| NodeId(n as usize)));
        self.nodes.push(f.dst);
        self.links.reserve(hops.len() + 2);
        self.links.push(LinkId(f.up >> 1));
        self.links
            .extend(hops.iter().map(|&h| LinkId((h >> 1) as usize)));
        self.links.push(LinkId(f.down >> 1));
        span
    }

    /// Appends the next flow's path (flow-id order).
    pub fn push(&mut self, p: PathRef<'_>) {
        let span = self.append(p);
        self.spans.push(span);
    }

    /// Sets flow `i`'s path. Replacing an already-set slot appends fresh
    /// storage and strands the old bytes — fine for the rare repair path,
    /// wasteful in a loop.
    pub fn set(&mut self, i: usize, p: PathRef<'_>) {
        self.spans[i] = self.append(p);
    }

    /// [`push`](Self::push) of candidate `c` of a class flow.
    fn push_class(&mut self, f: &ClassFlow<'_>, c: usize) {
        let span = self.append_class(f, c);
        self.spans.push(span);
    }

    /// [`set`](Self::set) of flow `i` to candidate `c` of a class flow.
    fn set_class(&mut self, i: usize, f: &ClassFlow<'_>, c: usize) {
        self.spans[i] = self.append_class(f, c);
    }

    /// Flow `i`'s path as a borrowed view.
    #[inline]
    pub fn get(&self, i: usize) -> PathRef<'_> {
        let s = self.spans[i];
        debug_assert_ne!(s.hops, u32::MAX, "slot {i} never set");
        let (no, lo, h) = (s.node_off as usize, s.link_off as usize, s.hops as usize);
        PathRef {
            nodes: &self.nodes[no..no + h + 1],
            links: &self.links[lo..lo + h],
        }
    }

    /// Iterates all paths in flow-id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = PathRef<'_>> + '_ {
        (0..self.spans.len()).map(|i| self.get(i))
    }
}

/// The result of consolidation: one path per flow plus the implied active
/// subgraph and (unscaled) link loads.
#[derive(Debug, Clone)]
pub struct Assignment {
    store: PathCollector,
    state: NetworkState,
}

impl Assignment {
    /// Builds an assignment from collected paths: switches on a path are
    /// activated, links used by at least one flow are activated, and each
    /// flow's *actual* (unscaled) demand is added along its path.
    pub fn from_collector(
        net: &dyn MultipathTopology,
        flows: &FlowSet,
        store: PathCollector,
    ) -> Self {
        assert_eq!(store.len(), flows.len(), "one path per flow");
        let topo = net.topology();
        let mut state = NetworkState::with_active_switches(topo, &[]);
        // Activate path switches. Walk spans rather than the raw pools:
        // replaced slots may have stranded stale bytes in the pools.
        for p in store.iter() {
            for &n in p.nodes {
                state.set_node(n, true);
            }
        }
        state.refresh_links(topo);
        // Only links actually carrying traffic stay on.
        let mut used = vec![false; topo.num_links()];
        for p in store.iter() {
            for &l in p.links {
                used[l.0] = true;
            }
        }
        for (id, _) in topo.links() {
            if !used[id.0] {
                // refresh_links turned on every link between active nodes;
                // power down the unused ones.
                state.set_link(id, false);
            }
        }
        for (i, flow) in flows.flows().iter().enumerate() {
            state.add_path_load(topo, store.get(i), flow.demand_mbps);
        }
        Assignment { store, state }
    }

    /// [`Self::from_collector`] over owned paths, for small-instance
    /// callers (the MILP consolidators, tests) that already hold a
    /// `Vec<Path>`.
    pub fn from_paths(net: &dyn MultipathTopology, flows: &FlowSet, paths: Vec<Path>) -> Self {
        let mut store = PathCollector::new();
        for p in &paths {
            store.push(PathRef::of(p));
        }
        Self::from_collector(net, flows, store)
    }

    /// The chosen path of a flow, as a view into the pooled storage.
    #[inline]
    pub fn path(&self, flow: crate::flow::FlowId) -> PathRef<'_> {
        self.store.get(flow.0)
    }

    /// All paths, flow-id order.
    #[inline]
    pub fn iter_paths(&self) -> impl ExactSizeIterator<Item = PathRef<'_>> + '_ {
        self.store.iter()
    }

    /// The resulting network state (active sets + loads).
    #[inline]
    pub fn state(&self) -> &NetworkState {
        &self.state
    }

    /// Number of active switches.
    pub fn active_switch_count(&self, net: &dyn MultipathTopology) -> usize {
        self.state.active_switch_count(net.topology())
    }

    /// DCN power under a power model.
    pub fn network_power_w(&self, net: &dyn MultipathTopology, model: &NetworkPowerModel) -> f64 {
        model.power_w(net.topology(), &self.state)
    }

    /// Heap bytes the assignment holds: its path pools and its link
    /// state.
    pub fn heap_bytes(&self) -> usize {
        self.store.heap_bytes() + self.state.heap_bytes()
    }

    /// Highest link utilization (actual loads).
    pub fn max_utilization(&self, net: &dyn MultipathTopology) -> f64 {
        net.topology()
            .links()
            .map(|(id, _)| self.state.utilization(id))
            .fold(0.0, f64::max)
    }

    /// Verifies that scaled demands respect usable per-direction
    /// capacities and that every path is available. Returns a description
    /// of the first violation, if any.
    pub fn validate(
        &self,
        net: &dyn MultipathTopology,
        flows: &FlowSet,
        cfg: &ConsolidationConfig,
    ) -> Result<(), String> {
        let topo = net.topology();
        let mut reserved = vec![0.0; topo.num_links() * 2];
        for (flow, p) in flows.flows().iter().zip(self.store.iter()) {
            if p.src() != flow.src || p.dst() != flow.dst {
                return Err(format!("flow {:?} routed between wrong endpoints", flow.id));
            }
            if !p.is_consistent(topo) {
                return Err(format!("flow {:?} has an inconsistent path", flow.id));
            }
            if !self.state.path_available(p) {
                return Err(format!("flow {:?} uses a powered-off element", flow.id));
            }
            for (from, _, l) in p.hops() {
                let dir = crate::links::direction_from(topo, l, from);
                reserved[l.0 * 2 + dir] += flow.scaled_demand(cfg.scale_k);
            }
        }
        for (id, l) in topo.links() {
            let usable = cfg.usable_capacity(l.capacity_mbps);
            for dir in 0..2 {
                if reserved[id.0 * 2 + dir] > usable + 1e-6 {
                    return Err(format!(
                        "link {:?} dir {} over-reserved: {} > {} Mbps",
                        id,
                        dir,
                        reserved[id.0 * 2 + dir],
                        usable
                    ));
                }
            }
        }
        Ok(())
    }
}

impl Assignment {
    /// Repairs the assignment after a switch failure: every flow whose
    /// path crosses `failed` is re-routed onto its best surviving
    /// candidate path (fewest newly-activated switches, then lowest
    /// bottleneck), activating additional switches if needed — the
    /// runtime counterpart of §IV-B's "backup paths" mitigation.
    ///
    /// Returns the indices of re-routed flows, or an error naming the
    /// first flow that has no surviving path. The repair is atomic: on
    /// `Err` the assignment is exactly its pre-call state (no half-moved
    /// loads, no paths through a down switch).
    pub fn repair_after_switch_failure(
        &mut self,
        net: &dyn MultipathTopology,
        flows: &FlowSet,
        failed: NodeId,
    ) -> Result<Vec<usize>, ConsolidationError> {
        let topo = net.topology();
        // Mark the switch down and power off only its incident links: a
        // wholesale refresh_links would re-enable links the consolidator
        // deliberately powered down between active switches.
        let take_down = |state: &mut NetworkState| {
            state.set_node(failed, false);
            for &(_, l) in topo.neighbors(failed) {
                state.set_link(l, false);
            }
        };
        let mut rerouted = Vec::new();
        // Which flows cross the failed switch?
        let victims: Vec<usize> = (0..flows.len())
            .filter(|&i| self.store.get(i).nodes.contains(&failed))
            .collect();
        if victims.is_empty() {
            take_down(&mut self.state);
            return Ok(rerouted);
        }
        let checkpoint = self.clone();
        // Remove the victims' load, then mark the switch down.
        for &i in &victims {
            let demand = flows.flows()[i].demand_mbps;
            let Assignment { store, state } = &mut *self;
            state.remove_path_load(topo, store.get(i), demand);
        }
        take_down(&mut self.state);

        for &i in &victims {
            let flow = &flows.flows()[i];
            let mut best: Option<(usize, f64, usize)> = None; // (new switches, bottleneck, idx)
            let mut idx = 0usize;
            net.for_each_candidate(flow.src, flow.dst, &mut |p| {
                let this = idx;
                idx += 1;
                if p.nodes.contains(&failed) {
                    return ControlFlow::Continue(());
                }
                let new_switches = p
                    .interior()
                    .iter()
                    .filter(|&&n| !self.state.node_on(n))
                    .count();
                let bottleneck = self
                    .state
                    .path_utilizations_ref(topo, p)
                    .fold(0.0, f64::max);
                let key = (new_switches, bottleneck, this);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
                ControlFlow::Continue(())
            });
            let Some((_, _, idx)) = best else {
                *self = checkpoint;
                return Err(ConsolidationError::NoFeasiblePath { flow: i });
            };
            let p = net
                .nth_candidate(flow.src, flow.dst, idx)
                .expect("index valid");
            for &n in &p.nodes {
                if n != failed {
                    self.state.set_node(n, true);
                }
            }
            for &l in &p.links {
                self.state.set_link(l, true);
            }
            self.state.add_path_load(topo, &p, flow.demand_mbps);
            self.store.set(i, PathRef::of(&p));
            rerouted.push(i);
        }
        Ok(rerouted)
    }
}

/// The interface every consolidation strategy implements. Strategies are
/// topology-generic (§IV-B: "our optimization model is independent of the
/// network topology"): any [`MultipathTopology`] — fat-tree, leaf–spine —
/// can be consolidated.
pub trait Consolidator {
    /// Chooses a path per flow, minimizing DCN power subject to scaled
    /// demands fitting under usable link capacities.
    fn consolidate(
        &self,
        net: &dyn MultipathTopology,
        flows: &FlowSet,
        cfg: &ConsolidationConfig,
    ) -> Result<Assignment, ConsolidationError>;
}

/// A flow of an access class ([`MultipathTopology::access_class`]):
/// its endpoints, its two host links as directed hops `link * 2 + dir`
/// (the same index as a per-direction reservation), and the class's
/// candidate table. Every candidate of the flow is
/// `[src] + table.interior(c) + [dst]` over `[up] + table.hops(c) +
/// [down]`, so a selection loop tests the host hops once and scans only
/// the interiors.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ClassFlow<'a> {
    pub src: NodeId,
    pub dst: NodeId,
    /// The source's uplink, upward.
    pub up: usize,
    /// The destination's link, downward.
    pub down: usize,
    /// The class id, for per-class state.
    pub class: usize,
    pub table: ClassTable<'a>,
}

impl<'a> ClassFlow<'a> {
    /// `(src, dst)` as a class flow, or `None` when `net` offers the
    /// pair no access class.
    pub fn of(net: &'a dyn MultipathTopology, src: NodeId, dst: NodeId) -> Option<Self> {
        let AccessClass { id, table } = net.access_class(src, dst)?;
        let [(up, up_dir), (down, down_dir)] = host_hops(net.topology(), src, dst)?;
        Some(ClassFlow {
            src,
            dst,
            up: up.0 * 2 + up_dir,
            down: down.0 * 2 + down_dir,
            class: id,
            table,
        })
    }

    /// Adds `demand` to the reservation of every directed hop of
    /// candidate `c`.
    pub fn reserve(&self, c: usize, reserved: &mut [f64], demand: f64) {
        reserved[self.up] += demand;
        for &h in self.table.hops(c) {
            reserved[h as usize] += demand;
        }
        reserved[self.down] += demand;
    }
}

/// The two links every candidate of `(src, dst)` shares when both hosts
/// are single-homed: the source uplink and the destination downlink, each
/// as `(link, direction)` in its traversal direction.
pub(crate) fn host_hops(
    topo: &eprons_topo::Topology,
    src: NodeId,
    dst: NodeId,
) -> Option<[(LinkId, usize); 2]> {
    match (topo.neighbors(src), topo.neighbors(dst)) {
        (&[(_, up)], &[(access, down)]) => Some([
            (up, crate::links::direction_from(topo, up, src)),
            (down, crate::links::direction_from(topo, down, access)),
        ]),
        _ => None,
    }
}

/// Routes flows on a *fixed* active topology (an aggregation level of
/// Fig. 9), balancing load by picking, per flow, the available candidate
/// path whose most-loaded link ends up least loaded. Unlike the optimizing
/// consolidators it never powers anything down below the preset and does
/// not enforce capacity (overload shows up as latency, which is exactly the
/// effect Figs. 10 and 13 study).
#[derive(Debug, Clone)]
pub struct AggregationRouter {
    /// Switches allowed to carry traffic.
    pub active: Vec<NodeId>,
}

impl AggregationRouter {
    /// Router restricted to an aggregation level's active set.
    pub fn for_level(ft: &FatTree, level: eprons_topo::AggregationLevel) -> Self {
        AggregationRouter {
            active: level.active_switches(ft),
        }
    }
}

impl Consolidator for AggregationRouter {
    fn consolidate(
        &self,
        net: &dyn MultipathTopology,
        flows: &FlowSet,
        cfg: &ConsolidationConfig,
    ) -> Result<Assignment, ConsolidationError> {
        let _t = eprons_obs::Timer::scoped("net.consolidate.aggregation_s");
        let mut sp = eprons_obs::Span::enter("net.consolidate");
        if eprons_obs::enabled() {
            sp.note(format!("algo=aggregation flows={}", flows.len()));
        }
        let topo = net.topology();
        // Hosts, plus the preset's switches the failure mask spares.
        let allowed = topo.node_mask(self.active.iter().copied().filter(|&s| !cfg.is_excluded(s)));
        let mut reserved = vec![0.0; topo.num_links() * 2];
        let mut chosen = PathCollector::new();
        let mut nbuf = Vec::new();
        let mut lbuf = Vec::new();
        let mut candidates = 0u64;
        // Per access class, built on the class's first flow: the indices
        // of its candidates whose interiors lie wholly inside `allowed`,
        // as a range of `pool`. Hosts are always allowed, so the list
        // holds for every flow of the class.
        let mut lists: Vec<Option<(u32, u32)>> = vec![None; net.access_classes()];
        let mut pool: Vec<u32> = Vec::new();
        let no_path = |candidates: u64, flow: usize| {
            if eprons_obs::enabled() {
                eprons_obs::registry()
                    .counter("net.consolidate.candidates")
                    .add(candidates);
            }
            Err(ConsolidationError::NoFeasiblePath { flow })
        };
        for flow in flows.flows() {
            let demand = flow.scaled_demand(cfg.scale_k);
            // A later candidate replaces the best only if it lowers the
            // bottleneck by more than 1e-9. A single-homed endpoint's one
            // link is on every candidate, so its directional reservation
            // (`floor`) bounds every bottleneck from below. Once the best
            // is within 1e-9 of that bound, no later candidate can beat it.
            let mut best: Option<(f64, usize)> = None;
            let mut keep = |bottleneck: f64, this: usize, floor: f64| {
                if best.is_none_or(|(b, _)| bottleneck < b - 1e-9) {
                    best = Some((bottleneck, this));
                }
                match best {
                    Some((b, _)) if floor >= b - 1e-9 => ControlFlow::Break(()),
                    _ => ControlFlow::Continue(()),
                }
            };
            if let Some(cf) = ClassFlow::of(net, flow.src, flow.dst) {
                let t = cf.table;
                let (off, len) =
                    *lists[cf.class].get_or_insert_with(|| {
                        let off = pool.len();
                        pool.extend((0..t.len() as u32).filter(|&c| {
                            t.interior(c as usize).iter().all(|&n| allowed[n as usize])
                        }));
                        candidates += t.len() as u64;
                        (off as u32, (pool.len() - off) as u32)
                    });
                let floor = (reserved[cf.up] + demand).max(reserved[cf.down] + demand);
                for &c in &pool[off as usize..(off + len) as usize] {
                    candidates += 1;
                    // The bottleneck directional reservation if this path
                    // were chosen (full-duplex links: only the traversal
                    // direction contends): `floor` covers the host hops.
                    let bottleneck = t
                        .hops(c as usize)
                        .iter()
                        .fold(floor, |m, &h| m.max(reserved[h as usize] + demand));
                    if keep(bottleneck, c as usize, floor).is_break() {
                        break;
                    }
                }
                let Some((_, c)) = best else {
                    return no_path(candidates, flow.id.0);
                };
                cf.reserve(c, &mut reserved, demand);
                chosen.push_class(&cf, c);
                continue;
            }
            let floor = match host_hops(topo, flow.src, flow.dst) {
                Some([(up, up_dir), (down, down_dir)]) => (reserved[up.0 * 2 + up_dir] + demand)
                    .max(reserved[down.0 * 2 + down_dir] + demand),
                None => f64::NEG_INFINITY,
            };
            let mut idx = 0usize;
            net.for_each_candidate(flow.src, flow.dst, &mut |p| {
                idx += 1;
                candidates += 1;
                if !p.nodes.iter().all(|&n| allowed[n.0]) {
                    return ControlFlow::Continue(());
                }
                let bottleneck = p
                    .hops()
                    .map(|(from, _, l)| {
                        reserved[l.0 * 2 + crate::links::direction_from(topo, l, from)] + demand
                    })
                    .fold(0.0, f64::max);
                keep(bottleneck, idx - 1, floor)
            });
            let Some((_, idx)) = best else {
                return no_path(candidates, flow.id.0);
            };
            assert!(
                net.nth_candidate_into(flow.src, flow.dst, idx, &mut nbuf, &mut lbuf),
                "index valid"
            );
            let p = PathRef {
                nodes: &nbuf,
                links: &lbuf,
            };
            for (from, _, l) in p.hops() {
                let dir = crate::links::direction_from(topo, l, from);
                reserved[l.0 * 2 + dir] += demand;
            }
            chosen.push(p);
        }
        // The preset keeps its whole active set powered (that is the point
        // of the Fig. 10/13 experiments), so build state from the preset,
        // not from used paths. Masked (failed) switches stay dark.
        let mut assignment = Assignment::from_collector(net, flows, chosen);
        for &s in &self.active {
            if !cfg.is_excluded(s) {
                assignment.state.set_node(s, true);
            }
        }
        assignment.state.refresh_links(topo);
        if eprons_obs::enabled() {
            let reg = eprons_obs::registry();
            reg.counter("net.consolidate.candidates").add(candidates);
            reg.counter("net.consolidate.passes").inc();
            eprons_obs::record(eprons_obs::Event::ConsolidationPass {
                algo: "aggregation".into(),
                flows: flows.len() as u64,
                placed: flows.len() as u64,
                active_switches: assignment.active_switch_count(net) as u64,
            });
        }
        Ok(assignment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowClass;
    use eprons_topo::AggregationLevel;

    fn three_flow_setup() -> (FatTree, FlowSet) {
        let ft = FatTree::new(4, 1000.0);
        let mut fs = FlowSet::new();
        fs.add(
            ft.host(0, 0, 0),
            ft.host(1, 0, 0),
            900.0,
            FlowClass::LatencyTolerant,
        );
        fs.add(
            ft.host(0, 0, 1),
            ft.host(2, 0, 0),
            20.0,
            FlowClass::LatencySensitive,
        );
        fs.add(
            ft.host(0, 1, 0),
            ft.host(3, 0, 0),
            20.0,
            FlowClass::LatencySensitive,
        );
        (ft, fs)
    }

    #[test]
    fn aggregation_router_stays_on_active_set() {
        let (ft, fs) = three_flow_setup();
        let router = AggregationRouter::for_level(&ft, AggregationLevel::Agg3);
        let cfg = ConsolidationConfig::with_k(1.0);
        let a = router.consolidate(&ft, &fs, &cfg).unwrap();
        let active = AggregationLevel::Agg3.active_switches(&ft);
        for p in a.iter_paths() {
            for &n in p.interior() {
                assert!(active.contains(&n), "path used inactive switch");
            }
        }
        assert_eq!(a.active_switch_count(&ft), 13);
    }

    #[test]
    fn aggregation_router_balances_on_agg0() {
        let (ft, fs) = three_flow_setup();
        let router = AggregationRouter::for_level(&ft, AggregationLevel::Agg0);
        let cfg = ConsolidationConfig::with_k(1.0);
        let a = router.consolidate(&ft, &fs, &cfg).unwrap();
        // With everything on, the two query flows should avoid the
        // elephant's bottleneck links.
        let elephant = a.path(crate::flow::FlowId(0));
        let q1 = a.path(crate::flow::FlowId(1));
        let shared: Vec<_> = q1
            .links
            .iter()
            .filter(|l| elephant.links.contains(l))
            .collect();
        assert!(
            shared.is_empty(),
            "load-balanced routing should separate the query from the elephant"
        );
    }

    #[test]
    fn assignment_loads_are_unscaled() {
        let (ft, fs) = three_flow_setup();
        let router = AggregationRouter::for_level(&ft, AggregationLevel::Agg3);
        let cfg = ConsolidationConfig::with_k(3.0);
        let a = router.consolidate(&ft, &fs, &cfg).unwrap();
        // Total load across host uplinks equals total unscaled demand on
        // the sending side.
        let src_up = ft.host_uplink(ft.host(0, 0, 0));
        assert!((a.state().load(src_up) - 900.0).abs() < 1e-9);
    }

    #[test]
    fn validate_catches_over_reservation() {
        let ft = FatTree::new(4, 1000.0);
        let mut fs = FlowSet::new();
        // Two 600 Mbps elephants from the same host pair: any single path
        // over-reserves (1200 > 950).
        fs.add(
            ft.host(0, 0, 0),
            ft.host(0, 0, 1),
            600.0,
            FlowClass::LatencyTolerant,
        );
        fs.add(
            ft.host(0, 0, 0),
            ft.host(0, 0, 1),
            600.0,
            FlowClass::LatencyTolerant,
        );
        let router = AggregationRouter::for_level(&ft, AggregationLevel::Agg0);
        let cfg = ConsolidationConfig::with_k(1.0);
        // Same-edge pairs have exactly one path, so the router must pack
        // both onto it; validation flags the over-reservation.
        let a = router.consolidate(&ft, &fs, &cfg).unwrap();
        assert!(a.validate(&ft, &fs, &cfg).is_err());
    }

    #[test]
    fn usable_capacity_applies_margin() {
        let cfg = ConsolidationConfig::default();
        assert_eq!(cfg.usable_capacity(1000.0), 950.0);
        assert_eq!(cfg.usable_capacity(20.0), 0.0);
    }
}
