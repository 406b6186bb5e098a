//! # dvh-obs
//!
//! Observability for the DVH nested-virtualization simulator: the
//! layer that turns the engine's cycle-accurate bookkeeping into
//! things a human (or a dashboard) can look at.
//!
//! The paper's whole argument is an attribution story — Table 3 and
//! Fig. 7 are per-level, per-exit-reason cycle breakdowns — so the
//! subsystem is built around *attribution-preserving* exports:
//!
//! * [`metrics`] — a registry of counters, gauges, and histograms with
//!   fixed cycle-bucket boundaries
//!   ([`dvh_arch::cycles::CYCLE_BUCKET_BOUNDS`]). Keys carry the
//!   (level, reason) structure of the engine's ledgers, and the
//!   deterministic snapshot serializer means two runs diff cleanly.
//! * [`json`] — a minimal JSON value model with a parser and a
//!   canonical serializer, so exported traces can be round-tripped and
//!   verified without external dependencies. The hypervisor's trace
//!   export writes its Chrome trace-event documents with it.
//! * [`causal`] — reconstructs the causal forest of outermost exits
//!   from trace events: every nested trap becomes a child interval of
//!   the exit that caused it, which yields emergent per-level exit
//!   multiplication factors (Table 3), folded-stack flamegraph lines,
//!   and exact self-cycle attribution that conserves against
//!   `cycles_by_reason`.
//! * [`percentiles`] — p50/p95/p99/p999 outermost-exit latency from
//!   the fixed bucket ladder, deterministic across runs and mergeable
//!   across sweep cells.
//! * [`diff`] — snapshot documents plus a differential analyzer with
//!   per-metric relative thresholds and directionality, the
//!   `dvh obs diff` backend CI gates on.
//! * [`prom`] — Prometheus text exposition format for the registry.
//!
//! The registry itself is passive: the hypervisor's `World` owns one
//! behind the same enabled-flag pattern as its tracer, so a disabled
//! registry costs one predicted branch per instrumentation point and
//! nothing else. Feeding it never touches simulated time — enabling
//! metrics cannot change any pinned ledger.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod causal;
pub mod diff;
pub mod json;
pub mod metrics;
pub mod percentiles;
pub mod prom;

pub use metrics::{Histogram, MetricKey, MetricsRegistry};
