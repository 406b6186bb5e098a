//! The metrics registry: counters, gauges, and fixed-bucket
//! histograms keyed by (name, level, reason, tag).
//!
//! Everything is deterministic: keys order lexicographically
//! (`BTreeMap`), histogram buckets are the fixed geometric ladder of
//! [`CYCLE_BUCKET_BOUNDS`], and [`MetricsRegistry::snapshot`] renders
//! one sorted line per metric — two identical runs produce
//! byte-identical snapshots, so `diff` is a regression test.

use dvh_arch::cycles::{cycle_bucket_index, CYCLE_BUCKET_BOUNDS};
use dvh_arch::vmx::ExitReason;
use dvh_arch::Cycles;
use std::collections::BTreeMap;
use std::fmt;

/// Metric name vocabulary. Fixed strings so keys are comparable across
/// crates without allocation; the snapshot format and DESIGN.md §10
/// document each.
pub mod names {
    /// Histogram, keyed (level, reason): simulated cycles attributed
    /// to each *outermost* exit, folded from the same `Completed`
    /// events as `RunStats::cycles_by_reason`.
    pub const EXIT_CYCLES: &str = "exit_cycles";
    /// Histogram, keyed (level): end-to-end latency of delivering one
    /// exit to a guest hypervisor at that level (reflection through
    /// re-entry, nested traps included).
    pub const INTERVENTION_CYCLES: &str = "intervention_cycles";
    /// Counter, tagged by mechanism: exits a DVH extension handled
    /// entirely at L0, folded from the same `DvhIntercept` events as
    /// `RunStats::dvh_intercepts`.
    pub const DVH_INTERCEPTS: &str = "dvh_intercepts";
    /// Counter, tagged `posted` or `injected`: leaf interrupt
    /// deliveries by path.
    pub const IRQ_DELIVERIES: &str = "irq_deliveries";
    /// Histogram: cycles a halted vCPU had been idle when an interrupt
    /// woke it.
    pub const IRQ_WAKE_IDLE_CYCLES: &str = "irq_wake_idle_cycles";
    /// Histogram: pages transferred per pre-copy round (bucketed on
    /// the same ladder; a page count, not cycles).
    pub const PRECOPY_ROUND_PAGES: &str = "precopy_round_pages";
    /// Histogram: simulated cycles per pre-copy round.
    pub const PRECOPY_ROUND_CYCLES: &str = "precopy_round_cycles";
    /// Counter, tagged by queue: lifetime doorbell kicks.
    pub const VIRTQUEUE_KICKS: &str = "virtqueue_kicks";
    /// Counter, tagged by queue: lifetime completion interrupts.
    pub const VIRTQUEUE_INTERRUPTS: &str = "virtqueue_interrupts";
    /// Gauge, tagged by queue: descriptors currently in flight.
    pub const VIRTQUEUE_IN_FLIGHT: &str = "virtqueue_in_flight";
    /// Counter, tagged by device: vhost TX packets.
    pub const VHOST_TX_PACKETS: &str = "vhost_tx_packets";
    /// Counter, tagged by device: vhost RX packets.
    pub const VHOST_RX_PACKETS: &str = "vhost_rx_packets";
    /// Counter, tagged by device: vhost TX bytes.
    pub const VHOST_TX_BYTES: &str = "vhost_tx_bytes";
    /// Counter, tagged by device: vhost RX bytes.
    pub const VHOST_RX_BYTES: &str = "vhost_rx_bytes";
    /// Counter, tagged by device: frames vhost dropped.
    pub const VHOST_DROPPED: &str = "vhost_dropped";
}

/// A metric key: a fixed name plus the optional dimensions the engine
/// attributes by. Ordering (and therefore snapshot order) is
/// lexicographic on (name, level, reason, tag).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name from [`names`].
    pub name: &'static str,
    /// Virtualization level, where the metric is per-level.
    pub level: Option<usize>,
    /// Architectural exit reason, where the metric is per-reason.
    pub reason: Option<ExitReason>,
    /// Free-form static tag (mechanism, queue, delivery path).
    pub tag: Option<&'static str>,
}

impl MetricKey {
    /// A key with no dimensions.
    pub const fn plain(name: &'static str) -> MetricKey {
        MetricKey {
            name,
            level: None,
            reason: None,
            tag: None,
        }
    }

    /// A per-level key.
    pub const fn at_level(name: &'static str, level: usize) -> MetricKey {
        MetricKey {
            name,
            level: Some(level),
            reason: None,
            tag: None,
        }
    }

    /// A per-(level, reason) key — the exit-attribution shape.
    pub const fn exit(name: &'static str, level: usize, reason: ExitReason) -> MetricKey {
        MetricKey {
            name,
            level: Some(level),
            reason: Some(reason),
            tag: None,
        }
    }

    /// A tagged key.
    pub const fn tagged(name: &'static str, tag: &'static str) -> MetricKey {
        MetricKey {
            name,
            level: None,
            reason: None,
            tag: Some(tag),
        }
    }
}

impl fmt::Display for MetricKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name)?;
        if self.level.is_none() && self.reason.is_none() && self.tag.is_none() {
            return Ok(());
        }
        write!(f, "{{")?;
        let mut sep = "";
        if let Some(level) = self.level {
            write!(f, "level={level}")?;
            sep = ",";
        }
        if let Some(reason) = self.reason {
            write!(f, "{sep}reason={reason}")?;
            sep = ",";
        }
        if let Some(tag) = self.tag {
            write!(f, "{sep}tag={tag}")?;
        }
        write!(f, "}}")
    }
}

/// Index of the explicit overflow bucket: where every observation
/// above the top ladder bound (2^23 cycles) lands. The overflow bucket
/// participates in `count` like any other bucket (so
/// [`Histogram::is_consistent`] and the checker's conservation lints
/// account for it), and percentile math reports ranks falling there as
/// [`crate::percentiles::OVERFLOW_VALUE`] rather than inventing a
/// finite bound.
pub const OVERFLOW_BUCKET: usize = CYCLE_BUCKET_BOUNDS.len();

/// Bucket count of every histogram: one per bound plus the overflow
/// bucket.
pub const HISTOGRAM_BUCKETS: usize = CYCLE_BUCKET_BOUNDS.len() + 1;

/// A fixed-bucket histogram over the shared cycle ladder.
///
/// `sum` is exact (saturating only at `u64::MAX`, like [`Cycles`]
/// arithmetic), which is what lets the checker prove histogram totals
/// conserve against the engine's attribution ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        self.buckets[cycle_bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of observed values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Per-bucket counts (last entry is the overflow bucket).
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// Observations above the top ladder bound (2^23 cycles) — the
    /// explicit overflow bucket's count.
    pub fn overflow(&self) -> u64 {
        self.buckets[OVERFLOW_BUCKET]
    }

    /// Whether the bucket counts add up to `count` — the structural
    /// invariant the checker's metrics pass verifies.
    pub fn is_consistent(&self) -> bool {
        self.buckets.iter().sum::<u64>() == self.count
    }

    /// Adds every bucket, count, and sum of `other` into this
    /// histogram.
    pub fn merge(&mut self, other: &Histogram) {
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += src;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }
}

/// The registry: every metric the instrumented crates feed.
///
/// Purely host-side state — recording never advances simulated time —
/// and deterministic: iteration and snapshots follow `BTreeMap` key
/// order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: BTreeMap<MetricKey, u64>,
    gauges: BTreeMap<MetricKey, i64>,
    histograms: BTreeMap<MetricKey, Histogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Increments a counter by one.
    pub fn inc(&mut self, key: MetricKey) {
        self.add(key, 1);
    }

    /// Increments a counter by `n`.
    pub fn add(&mut self, key: MetricKey, n: u64) {
        *self.counters.entry(key).or_insert(0) += n;
    }

    /// Sets a counter to an absolute value (for exporting lifetime
    /// counters maintained elsewhere, e.g. virtqueue kick counts).
    pub fn set_counter(&mut self, key: MetricKey, value: u64) {
        self.counters.insert(key, value);
    }

    /// Sets a gauge.
    pub fn set_gauge(&mut self, key: MetricKey, value: i64) {
        self.gauges.insert(key, value);
    }

    /// Records a histogram observation.
    pub fn observe(&mut self, key: MetricKey, value: u64) {
        self.histograms.entry(key).or_default().observe(value);
    }

    /// Records a cycle-valued histogram observation.
    pub fn observe_cycles(&mut self, key: MetricKey, value: Cycles) {
        self.observe(key, value.as_u64());
    }

    /// Attributes `spent` cycles to the outermost exit (level, reason)
    /// — the engine's per-exit instrumentation point.
    pub fn observe_exit(&mut self, level: usize, reason: ExitReason, spent: Cycles) {
        self.observe_cycles(MetricKey::exit(names::EXIT_CYCLES, level, reason), spent);
    }

    /// Records one guest-hypervisor intervention latency at `level`.
    pub fn observe_intervention(&mut self, level: usize, spent: Cycles) {
        self.observe_cycles(
            MetricKey::at_level(names::INTERVENTION_CYCLES, level),
            spent,
        );
    }

    /// Counts one DVH interception by `mechanism`.
    pub fn record_dvh(&mut self, mechanism: &'static str) {
        self.inc(MetricKey::tagged(names::DVH_INTERCEPTS, mechanism));
    }

    /// A counter's value (0 when never touched).
    pub fn counter(&self, key: &MetricKey) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// A gauge's value, if set.
    pub fn gauge(&self, key: &MetricKey) -> Option<i64> {
        self.gauges.get(key).copied()
    }

    /// A histogram, if any observation was recorded under `key`.
    pub fn histogram(&self, key: &MetricKey) -> Option<&Histogram> {
        self.histograms.get(key)
    }

    /// Iterates every histogram in key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&MetricKey, &Histogram)> {
        self.histograms.iter()
    }

    /// Iterates every counter in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&MetricKey, u64)> {
        self.counters.iter().map(|(k, &v)| (k, v))
    }

    /// Iterates every gauge in key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&MetricKey, i64)> {
        self.gauges.iter().map(|(k, &v)| (k, v))
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// The per-(level, reason) (exit count, cycle total) of the
    /// [`names::EXIT_CYCLES`] histograms — keyed like the engine's
    /// `outermost_exits` and `cycles_by_reason` ledgers so the checker
    /// can compare them entry by entry.
    pub fn exit_totals(&self) -> BTreeMap<(usize, ExitReason), (u64, u64)> {
        self.histograms
            .iter()
            .filter(|(k, _)| k.name == names::EXIT_CYCLES)
            .filter_map(|(k, h)| Some(((k.level?, k.reason?), (h.count(), h.sum()))))
            .collect()
    }

    /// Adds every metric of `other` into this registry (sweep-cell
    /// aggregation). Gauges take the other registry's value.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            *self.counters.entry(*k).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(*k, *v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(*k).or_default().merge(h);
        }
    }

    /// Renders the deterministic snapshot: one line per metric, sorted
    /// by kind then key, buckets inline. Identical runs produce
    /// byte-identical snapshots.
    pub fn snapshot(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        for (k, v) in &self.counters {
            let _ = writeln!(out, "counter {k} {v}");
        }
        for (k, v) in &self.gauges {
            let _ = writeln!(out, "gauge {k} {v}");
        }
        for (k, h) in &self.histograms {
            let _ = write!(
                out,
                "histogram {k} count={} sum={} buckets=",
                h.count, h.sum
            );
            for (i, b) in h.buckets.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{b}");
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_sum() {
        let mut h = Histogram::default();
        h.observe(100); // bucket 0 (<= 256)
        h.observe(300); // bucket 1 (<= 512)
        h.observe(u64::MAX); // overflow bucket, saturating sum
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[1], 1);
        assert_eq!(h.buckets()[HISTOGRAM_BUCKETS - 1], 1);
        assert!(h.is_consistent());
    }

    #[test]
    fn overflow_boundary_is_exact() {
        // The ladder's top bound is inclusive: exactly 2^23 is the last
        // bounded bucket; one more cycle is overflow. Both are counted
        // (is_consistent holds), so conservation lints see every
        // observation regardless of magnitude.
        let mut h = Histogram::default();
        h.observe(1 << 23);
        assert_eq!(h.overflow(), 0);
        assert_eq!(h.buckets()[HISTOGRAM_BUCKETS - 2], 1);
        h.observe((1 << 23) + 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.buckets()[OVERFLOW_BUCKET], 1);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), (1 << 24) + 1);
        assert!(h.is_consistent());
    }

    #[test]
    fn overflow_merges_like_any_bucket() {
        let mut a = Histogram::default();
        a.observe(u64::MAX);
        let mut b = Histogram::default();
        b.observe((1 << 23) + 7);
        a.merge(&b);
        assert_eq!(a.overflow(), 2);
        assert!(a.is_consistent());
    }

    #[test]
    fn exit_totals_mirror_ledger_shape() {
        let mut m = MetricsRegistry::new();
        m.observe_exit(2, ExitReason::Vmcall, Cycles::new(100));
        m.observe_exit(2, ExitReason::Vmcall, Cycles::new(50));
        m.observe_exit(1, ExitReason::Hlt, Cycles::new(7));
        let totals = m.exit_totals();
        assert_eq!(totals[&(2, ExitReason::Vmcall)], (2, 150));
        assert_eq!(totals[&(1, ExitReason::Hlt)], (1, 7));
        assert_eq!(totals.len(), 2);
    }

    #[test]
    fn snapshot_is_deterministic_and_sorted() {
        let mut a = MetricsRegistry::new();
        a.record_dvh("vtimer");
        a.observe_exit(2, ExitReason::MsrWrite, Cycles::new(1000));
        a.set_gauge(MetricKey::tagged(names::VIRTQUEUE_IN_FLIGHT, "net-tx"), 3);
        let mut b = MetricsRegistry::new();
        // Same data, different insertion order.
        b.set_gauge(MetricKey::tagged(names::VIRTQUEUE_IN_FLIGHT, "net-tx"), 3);
        b.observe_exit(2, ExitReason::MsrWrite, Cycles::new(1000));
        b.record_dvh("vtimer");
        assert_eq!(a.snapshot(), b.snapshot());
        let snap = a.snapshot();
        assert!(
            snap.contains("counter dvh_intercepts{tag=vtimer} 1"),
            "{snap}"
        );
        assert!(
            snap.contains("histogram exit_cycles{level=2,reason=MsrWrite}"),
            "{snap}"
        );
        assert!(
            snap.contains("gauge virtqueue_in_flight{tag=net-tx} 3"),
            "{snap}"
        );
    }

    #[test]
    fn merge_adds_counters_and_histograms() {
        let mut a = MetricsRegistry::new();
        a.observe_exit(2, ExitReason::Vmcall, Cycles::new(10));
        a.inc(MetricKey::tagged(names::IRQ_DELIVERIES, "posted"));
        let mut b = MetricsRegistry::new();
        b.observe_exit(2, ExitReason::Vmcall, Cycles::new(5));
        b.inc(MetricKey::tagged(names::IRQ_DELIVERIES, "posted"));
        a.merge(&b);
        assert_eq!(a.exit_totals()[&(2, ExitReason::Vmcall)], (2, 15));
        assert_eq!(
            a.counter(&MetricKey::tagged(names::IRQ_DELIVERIES, "posted")),
            2
        );
        let h = a
            .histogram(&MetricKey::exit(names::EXIT_CYCLES, 2, ExitReason::Vmcall))
            .unwrap();
        assert_eq!(h.count(), 2);
        assert!(h.is_consistent());
    }

    #[test]
    fn key_display_formats_dimensions() {
        assert_eq!(MetricKey::plain("x").to_string(), "x");
        assert_eq!(MetricKey::at_level("x", 2).to_string(), "x{level=2}");
        assert_eq!(
            MetricKey::exit("x", 2, ExitReason::Hlt).to_string(),
            "x{level=2,reason=Hlt}"
        );
        assert_eq!(MetricKey::tagged("x", "t").to_string(), "x{tag=t}");
    }
}
