//! EPRONS — joint server and network energy saving for latency-sensitive
//! data-center applications (IPDPS 2018).
//!
//! This crate is the paper's primary contribution assembled from the
//! substrate crates: the full data-center model (16-server
//! partition–aggregate search on a 4-ary fat-tree), the cross-layer slack
//! transfer, the joint optimizer over the scale factor `K` / aggregation
//! level, and the SDN-controller epoch loop of Fig. 7.
//!
//! * [`config`] — one [`config::ClusterConfig`] holding every calibrated
//!   parameter (SLA split, power models, latency knee, DVFS ladder…).
//! * [`cluster`] — the end-to-end cluster simulator: consolidation →
//!   per-query network latency sampling → per-ISN DVFS simulation →
//!   power/latency accounting. The workhorse behind Figs. 10–13 and 15.
//! * [`optimizer`] — the joint power optimizer: evaluate candidate
//!   consolidation configurations, keep the SLA-feasible ones, pick the
//!   minimum-total-power one (§IV).
//! * [`controller`] — the SDN-controller epoch loop over a 24 h diurnal
//!   day (10-minute optimization period, §IV-B), producing the Fig. 15
//!   power timeline.
//! * [`scenario`] — the staged evaluation pipeline: build a
//!   [`scenario::ScenarioContext`] once per (config, seed, load) point,
//!   then evaluate many candidate configurations against it.
//! * [`accounting`] — power breakdowns and savings arithmetic, plus the
//!   pipeline's final accounting stage.
//! * [`parallel`] — a scoped-thread parallel map for parameter sweeps.
//! * [`report`] — plain-text table output shared by the figure harnesses.

#![warn(missing_docs)]

pub mod accounting;
pub mod cluster;
pub mod config;
pub mod controller;
mod memo;
pub mod optimizer;
pub mod parallel;
pub mod report;
pub mod scenario;

pub use accounting::PowerBreakdown;
pub use cluster::ClusterError;
pub use cluster::{run_cluster, ClusterRun, ClusterRunResult, ConsolidationSpec, ServerScheme};
pub use config::{
    ClusterConfig, ConsolidateStrategy, DayScopeConfig, DeferralConfig, FailurePolicyConfig,
    OnlineConfig,
};
pub use controller::{
    day_churn, day_churn_count, day_total_energy_j, day_transition_energy_j, simulate_day,
    simulate_day_with_failures, DayConfig, DayRecord, DayStrategy,
};
pub use eprons_net::failure::{DegradationStage, FailureEvent, FailureEventKind, FailureSchedule};
pub use eprons_workload::adversarial::{FlashCrowd, StepLoad, TraceScenario};
pub use eprons_workload::replay::ReplayTrace;
pub use optimizer::{
    adaptive_k, adaptive_k_in_context, candidate_power_floor_w, optimize_in_context,
    optimize_in_context_masked, optimize_in_context_pruned, optimize_total_power,
    optimize_total_power_traced, JointChoice,
};
pub use parallel::{parallel_map, parallel_map_range, set_thread_budget, thread_budget};
pub use scenario::{DayContext, NetworkPlan, ScenarioContext, ScenarioSpec, ServerEvaluation};
