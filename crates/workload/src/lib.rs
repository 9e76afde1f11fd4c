//! Workload substrate for the EPRONS reproduction.
//!
//! The paper's evaluation drives a 16-server partition–aggregate search
//! cluster with Poisson query arrivals whose intensity follows a Wikipedia
//! 24-hour diurnal trace, a background-traffic trace, and service times
//! logged from Xapian over a Wikipedia index (§V-A, Fig. 14). This crate
//! generates all of those synthetically (see the substitution table in
//! DESIGN.md):
//!
//! * [`arrivals`] — homogeneous and non-homogeneous (thinned) Poisson
//!   arrival processes;
//! * [`diurnal`] — the 24 h search-load and background-traffic profiles
//!   (Fig. 14's shape: diurnal swing with noise);
//! * [`adversarial`] — flash-crowd / step-load day traces and
//!   ramp-correlated switch failures for stressing online controllers;
//! * [`queries`] — partition–aggregate query generation (random
//!   aggregator broadcasting sub-queries to the other 15 ISNs);
//! * [`background`] — latency-tolerant elephant-flow sets targeting a
//!   given link utilization;
//! * [`service_dist`] — the synthetic Xapian-like service-time log
//!   (heavy-tailed mixture) from which servers build their work PMFs.

#![warn(missing_docs)]

pub mod adversarial;
pub mod arrivals;
pub mod background;
pub mod diurnal;
pub mod queries;
pub mod replay;
pub mod service_dist;

pub use adversarial::{
    correlated_failures_during_ramp, CorrelatedFailure, FlashCrowd, StepLoad, TraceScenario,
};
pub use arrivals::{poisson_times, thinned_poisson_times};
pub use diurnal::DiurnalProfile;
pub use queries::{per_isn_arrivals, Query, QueryGenerator};
pub use replay::ReplayTrace;
pub use service_dist::xapian_like_samples;
