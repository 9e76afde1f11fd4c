//! Data-center network topology substrate.
//!
//! The paper evaluates on a 4-ary fat-tree with 16 servers (§V-A). This
//! crate provides:
//!
//! * [`graph`] — an undirected multigraph with typed nodes (hosts and
//!   edge/aggregation/core switches) and capacitated links;
//! * [`fattree`] — the k-ary fat-tree builder and index helpers;
//! * [`paths`] — candidate-path enumeration between hosts (the ECMP path
//!   set the consolidation optimizer chooses from) and generic BFS routing
//!   restricted to an active subgraph;
//! * [`aggregation`] — the paper's Fig. 9 aggregation policies 0–3:
//!   progressively switching off core- and aggregation-level switches;
//! * [`multipath`] — the topology abstraction the consolidators run on
//!   (§IV-B: "our optimization model is independent of the network
//!   topology");
//! * [`leafspine`] — a second fabric (2-tier Clos) exercising that
//!   independence.

#![warn(missing_docs)]

pub mod aggregation;
pub mod fattree;
pub mod graph;
pub mod leafspine;
pub mod multipath;
pub mod paths;
pub mod podview;

pub use aggregation::AggregationLevel;
pub use fattree::FatTree;
pub use graph::{LinkId, NodeId, NodeKind, Topology};
pub use leafspine::LeafSpine;
pub use multipath::{AccessClass, ClassTable, MultipathTopology};
pub use paths::{Path, PathRef};
pub use podview::PodView;
