//! EPRONS-Server (paper §III) and the baseline server power-management
//! schemes it is evaluated against.
//!
//! The server side of EPRONS is a per-request DVFS scheme: at every request
//! arrival and departure instant it picks the lowest CPU frequency such
//! that the **average** deadline-violation probability (VP) over all queued
//! requests stays within the SLA miss budget (5 % for a 95th-percentile
//! SLA) — in contrast to Rubik, which bounds the **maximum** VP and
//! therefore over-provisions every request but the limiting one (Fig. 4).
//!
//! * [`request`] — requests with per-request deadlines (server budget plus
//!   measured network slack — the deadline is *variable*, §III).
//! * [`freq`] — the DVFS ladder (1.2–2.7 GHz in 100 MHz steps, §V-A).
//! * [`service`] — the frequency-dependent service model
//!   `t(f) = t_fixed + work / f` ("taking into account the frequency
//!   independent part of the execution", paper footnote 1 citing Rubik).
//! * [`power`] — the measured Xeon E5-2697v2 core power curve (1.4 W at
//!   1.2 GHz, 4.4 W at 2.7 GHz), 12 cores, 20 W static per server.
//! * [`vp`] — the violation-probability engine: equivalent-request
//!   convolutions (cached, FFT-backed), CCDF queries (eq. 1), conditioning
//!   of the in-flight request on completed cycles (§III-B).
//! * [`policy`] — [`policy::MaxFreqPolicy`] (no power management),
//!   [`policy::MaxVpPolicy`] (Rubik / Rubik+), [`policy::AvgVpPolicy`]
//!   (EPRONS-Server), [`policy::TimeTraderPolicy`] (5 s feedback).
//! * [`coresim`] — the per-core discrete-event simulator that drives a
//!   policy with an arrival trace and accounts latency and energy.

#![warn(missing_docs)]

pub mod coresim;
pub mod freq;
pub mod policy;
pub mod power;
pub mod request;
pub mod service;
pub mod vp;

pub use coresim::{simulate_core, CoreSimConfig, CoreSimResult};
pub use freq::FreqLadder;
pub use policy::{
    AvgVpPolicy, DeepSleepPolicy, DvfsPolicy, MaxFreqPolicy, MaxVpPolicy, TimeTraderPolicy,
};
pub use power::CpuPowerModel;
pub use request::ArrivalSpec;
pub use service::ServiceModel;
pub use vp::{VpEngine, VpLadder, VpTally};
