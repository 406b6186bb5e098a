//! # dvh-bench
//!
//! The benchmark harness that regenerates every table and figure of
//! the DVH paper's evaluation (§4). [`repro::ARTIFACTS`] has one row
//! per table, figure and experiment, and `dvh repro <artifact>` prints
//! it exactly as `tests/golden/<artifact>.txt` holds it; `dvh repro
//! --help` lists them.
//!
//! All of these print simulated cycles, which are deterministic. The
//! host speed of the simulator itself is measured by the separate
//! `hostbench/` package (see its README), which reuses
//! [`harness::APP_TXNS`] and [`parallel`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod repro;

pub use dvh_workloads::parallel;
