//! # dvh-bench
//!
//! The benchmark harness that regenerates every table and figure of
//! the DVH paper's evaluation (§4). Each experiment has a binary that
//! prints the same rows/series the paper reports:
//!
//! | target | paper artifact |
//! |---|---|
//! | `cargo run -p dvh-bench --bin table3` | Table 3 (microbenchmark cycles) |
//! | `cargo run -p dvh-bench --bin fig7` | Fig. 7 (application overhead, L2) |
//! | `cargo run -p dvh-bench --bin fig8` | Fig. 8 (DVH technique breakdown) |
//! | `cargo run -p dvh-bench --bin fig9` | Fig. 9 (application overhead, L3) |
//! | `cargo run -p dvh-bench --bin fig10` | Fig. 10 (Xen guest hypervisor) |
//! | `cargo run -p dvh-bench --bin migration` | §4 migration experiment |
//! | `cargo run -p dvh-bench --bin recursion` | §3.5 recursion beyond L3 (extension) |
//!
//! `summary`, `ablations` and `arm` print the whole evaluation, the
//! design ablations and the ARM comparison. All of these print
//! simulated cycles, which are deterministic. The host speed of the
//! simulator itself is measured by the separate `hostbench/` package
//! (see its README), which reuses [`harness::APP_TXNS`] and
//! [`parallel`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod parallel;
