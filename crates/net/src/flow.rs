//! Flows: the unit of traffic the consolidator places.

use eprons_topo::NodeId;

/// Handle to a flow within a flow set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub usize);

/// Traffic class. The scale factor `K` applies to latency-sensitive flows
/// (requests/replies of search queries, §II); background elephants are
/// packed at their predicted demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowClass {
    /// Search-query request/reply traffic with a deadline.
    LatencySensitive,
    /// Background bulk traffic (backups, index updates, …).
    LatencyTolerant,
}

/// A unidirectional flow between two hosts with a bandwidth demand.
#[derive(Debug, Clone)]
pub struct Flow {
    /// Identifier (index in the flow set).
    pub id: FlowId,
    /// Source host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// Predicted bandwidth demand in Mbps (before any `K` scaling).
    pub demand_mbps: f64,
    /// Traffic class.
    pub class: FlowClass,
}

impl Flow {
    /// The demand the consolidator must reserve: latency-sensitive flows
    /// are inflated by `K` (paper §II), background flows are not.
    pub fn scaled_demand(&self, k: f64) -> f64 {
        match self.class {
            FlowClass::LatencySensitive => self.demand_mbps * k,
            FlowClass::LatencyTolerant => self.demand_mbps,
        }
    }
}

/// An ordered collection of flows with stable ids.
#[derive(Debug, Clone, Default)]
pub struct FlowSet {
    flows: Vec<Flow>,
}

impl FlowSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a flow, returning its id.
    ///
    /// # Panics
    /// Panics if `src == dst` or the demand is not positive and finite.
    pub fn add(&mut self, src: NodeId, dst: NodeId, demand_mbps: f64, class: FlowClass) -> FlowId {
        assert_ne!(src, dst, "flow endpoints must differ");
        assert!(
            demand_mbps > 0.0 && demand_mbps.is_finite(),
            "flow demand must be positive and finite"
        );
        let id = FlowId(self.flows.len());
        self.flows.push(Flow {
            id,
            src,
            dst,
            demand_mbps,
            class,
        });
        id
    }

    /// All flows, id order.
    #[inline]
    pub fn flows(&self) -> &[Flow] {
        &self.flows
    }

    /// A flow by id.
    #[inline]
    pub fn get(&self, id: FlowId) -> &Flow {
        &self.flows[id.0]
    }

    /// Number of flows.
    #[inline]
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// `true` iff no flows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eprons_topo::FatTree;

    #[test]
    fn add_and_lookup() {
        let ft = FatTree::new(4, 1000.0);
        let mut fs = FlowSet::new();
        let id = fs.add(
            ft.host(0, 0, 0),
            ft.host(1, 0, 0),
            900.0,
            FlowClass::LatencyTolerant,
        );
        assert_eq!(fs.len(), 1);
        assert_eq!(fs.get(id).demand_mbps, 900.0);
    }

    #[test]
    fn scale_factor_only_inflates_sensitive_flows() {
        let ft = FatTree::new(4, 1000.0);
        let mut fs = FlowSet::new();
        let bg = fs.add(
            ft.host(0, 0, 0),
            ft.host(1, 0, 0),
            900.0,
            FlowClass::LatencyTolerant,
        );
        let q = fs.add(
            ft.host(0, 0, 1),
            ft.host(2, 0, 0),
            20.0,
            FlowClass::LatencySensitive,
        );
        assert_eq!(fs.get(bg).scaled_demand(3.0), 900.0);
        assert_eq!(fs.get(q).scaled_demand(3.0), 60.0);
        assert_eq!(fs.get(q).scaled_demand(1.0), 20.0);
    }

    #[test]
    #[should_panic(expected = "endpoints must differ")]
    fn self_flow_rejected() {
        let ft = FatTree::new(4, 1000.0);
        let mut fs = FlowSet::new();
        let h = ft.host(0, 0, 0);
        fs.add(h, h, 10.0, FlowClass::LatencySensitive);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_demand_rejected() {
        let ft = FatTree::new(4, 1000.0);
        let mut fs = FlowSet::new();
        fs.add(
            ft.host(0, 0, 0),
            ft.host(0, 0, 1),
            0.0,
            FlowClass::LatencySensitive,
        );
    }
}
