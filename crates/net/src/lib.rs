//! EPRONS-Network: latency-aware traffic consolidation (paper §II, §IV-B).
//!
//! This crate implements the network half of EPRONS:
//!
//! * [`flow`] — flows with a class (latency-sensitive query traffic vs.
//!   latency-tolerant background "elephants"), sources/destinations on a
//!   fat-tree, and bandwidth demands in Mbps.
//! * [`links`] — the active-subgraph state: which switches/links are on,
//!   per-link carried load and utilization.
//! * [`latency`] — the utilization→latency model with the queueing *knee*
//!   of the paper's Fig. 1 (≈139 µs flat region exploding to ≈12 ms), plus
//!   per-path latency sampling used to measure tail latencies.
//! * [`predict`] — the 90th-percentile bandwidth predictor with safety
//!   margin (§II step i).
//! * [`consolidate`] — three consolidators: the faithful arc-based MILP of
//!   eqs. 2–9, a practical path-based MILP over ECMP candidate paths, and
//!   the greedy bin-packing heuristic the paper deploys; all honor the
//!   scale factor *K* on latency-sensitive flows.
//! * [`power`] — switch/link power accounting (36 W constant-power
//!   switches per \[23\]; the measured HPE curve of Fig. 8).
//! * [`transition`] — switch on/off transition overheads (§IV-B's 72.52 s
//!   measured power-on time) and reconfiguration churn.
//! * [`failure`] — deterministic fault injection (scripted fail/recover
//!   schedules) and the graceful-degradation ladder that makes §IV-B's
//!   "backup paths" remark concrete.

#![warn(missing_docs)]

pub mod consolidate;
pub mod failure;
pub mod flow;
pub mod latency;
pub mod links;
pub mod power;
pub mod predict;
pub mod transition;

pub use consolidate::{
    arc::ArcMilpConsolidator,
    arena::PathArena,
    greedy::GreedyConsolidator,
    path::PathMilpConsolidator,
    pod::{consolidate_pod_decomposed, PodDecompReport, PodDecompStats, PodRunner, PodSolve},
    Assignment, ConsolidationConfig, ConsolidationError, Consolidator,
};
pub use failure::{
    DegradationPolicy, DegradationStage, FailureEvent, FailureEventKind, FailureSchedule,
    RepairReport,
};
pub use flow::{Flow, FlowClass, FlowId};
pub use latency::LatencyModel;
pub use links::{NetworkState, StateDelta};
pub use power::NetworkPowerModel;
pub use predict::DemandPredictor;
pub use transition::{Churn, TransitionModel};
