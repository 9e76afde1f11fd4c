//! Numerics substrate for the EPRONS reproduction.
//!
//! This crate provides everything number-shaped the rest of the workspace
//! needs, built from scratch so the reproduction has no opaque numerical
//! dependencies:
//!
//! * [`complex`] — a minimal `Complex` type used by the FFT.
//! * [`fft`] — an iterative radix-2 Cooley–Tukey FFT (the paper reports
//!   ~20 µs per convolution using FFT; see `bench/benches/numerics.rs`).
//! * [`conv`] — direct and FFT-based convolution of non-negative sequences,
//!   the core operation behind *equivalent request* distributions (§III-B).
//! * [`pmf`] — gridded discrete probability mass functions: the
//!   representation of per-request **work** distributions, with CDF/CCDF
//!   queries and convolution.
//! * [`quantile`] — exact quantiles of latency samples.

#![warn(missing_docs)]

pub mod complex;
pub mod conv;
pub mod fft;
pub mod pmf;
pub mod quantile;

pub use complex::Complex;
pub use pmf::{Pmf, PmfPrefix, PreparedPmf};
pub use quantile::percentile;
