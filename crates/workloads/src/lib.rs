//! # dvh-workloads
//!
//! Workload models for the DVH paper's evaluation (§4): the four
//! microbenchmarks of Table 1 and the seven application benchmarks of
//! Table 2, expressed as per-transaction mixes of
//! virtualization-visible events.
//!
//! The paper normalizes all application results to native execution.
//! What separates the configurations in Figs. 7–10 is therefore the
//! per-transaction count of trapping events (doorbells, interrupts,
//! timer programming, IPIs, idle transitions, data copies) multiplied
//! by the per-configuration cost of each event. The mixes here encode
//! those counts, calibrated against the paper's reported native
//! throughput numbers; the per-event costs come from the simulator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod figures;
pub mod micro;
pub mod parallel;
pub mod runner;

pub use apps::{all_apps, AppId};
pub use micro::{run_micro, MicroResults};
pub use runner::{run_app, MixKind, TxnMix, WorkloadResult};
