//! Discrete-event simulation kernel for the EPRONS reproduction.
//!
//! The paper evaluates EPRONS on MiniNet with a *search-engine simulator*
//! inside each virtual host (§V-A). This crate is the equivalent substrate:
//! a small, deterministic discrete-event engine that the network and server
//! simulators build on.
//!
//! * [`rng`] — seeded random-variate generation (exponential, log-normal,
//!   …) so every experiment is reproducible from a single `u64` seed.
//! * [`recorder`] — measurement plumbing: time-weighted integrators (power
//!   → energy).

#![warn(missing_docs)]

pub mod recorder;
pub mod rng;

pub use recorder::{ClockSkewError, EnergyMeter, TimeWeighted};
pub use rng::SimRng;
