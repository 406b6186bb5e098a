//! Run statistics: exit counts by level and reason, interventions,
//! cycle accounting.

use dvh_arch::vmx::ExitReason;
use dvh_arch::Cycles;
use std::collections::BTreeMap;
use std::fmt;

/// One row per level in [`ExitLedger`]: a slot for every basic exit
/// reason number (the largest architectural discriminant we model is
/// [`ExitReason::ApicWrite`] = 56).
const REASON_SLOTS: usize = 57;

/// Dense per-(level, reason) exit counters.
///
/// `record` is on the engine's innermost path (once per simulated
/// hardware exit), so the ledger is a flat `Vec` indexed by
/// `level * REASON_SLOTS + reason.number()` instead of an ordered map.
/// Iteration yields only touched entries, sorted by `(level, reason)`
/// exactly like the `BTreeMap<(usize, ExitReason), u64>` it replaced:
/// `ExitReason`'s derived `Ord` compares discriminants, which are the
/// reason numbers the row is indexed by.
#[derive(Debug, Clone, Default)]
pub struct ExitLedger {
    counts: Vec<u64>,
}

impl ExitLedger {
    /// Creates an empty ledger.
    pub fn new() -> ExitLedger {
        ExitLedger::default()
    }

    /// Increments the counter for (`level`, `reason`), growing the
    /// level rows on first use.
    #[inline(always)]
    pub fn record(&mut self, level: usize, reason: ExitReason) {
        self.add(level, reason, 1);
    }

    /// Adds `n` to the counter for (`level`, `reason`).
    #[inline(always)]
    pub fn add(&mut self, level: usize, reason: ExitReason, n: u64) {
        let idx = level * REASON_SLOTS + reason.number() as usize;
        if idx >= self.counts.len() {
            self.counts.resize((level + 1) * REASON_SLOTS, 0);
        }
        self.counts[idx] += n;
    }

    /// The count for (`level`, `reason`).
    pub fn get(&self, level: usize, reason: ExitReason) -> u64 {
        self.counts
            .get(level * REASON_SLOTS + reason.number() as usize)
            .copied()
            .unwrap_or(0)
    }

    /// Sum over all levels and reasons.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Sum over all reasons for one level.
    pub fn level_total(&self, level: usize) -> u64 {
        let start = (level * REASON_SLOTS).min(self.counts.len());
        let end = ((level + 1) * REASON_SLOTS).min(self.counts.len());
        self.counts[start..end].iter().sum()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&n| n == 0)
    }

    /// Iterates touched `((level, reason), count)` entries in
    /// `(level, reason)` order.
    pub fn iter(&self) -> impl Iterator<Item = ((usize, ExitReason), u64)> + '_ {
        self.counts.iter().enumerate().filter_map(|(idx, &n)| {
            if n == 0 {
                return None;
            }
            let level = idx / REASON_SLOTS;
            let reason = ExitReason::from_number((idx % REASON_SLOTS) as u16)
                .expect("ledger row holds only valid reason numbers");
            Some(((level, reason), n))
        })
    }

    /// Adds every entry of `other` into this ledger.
    pub fn merge(&mut self, other: &ExitLedger) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (dst, src) in self.counts.iter_mut().zip(other.counts.iter()) {
            *dst += src;
        }
    }
}

impl PartialEq for ExitLedger {
    fn eq(&self, other: &ExitLedger) -> bool {
        // Trailing all-zero rows are representation artifacts, not
        // content; compare touched entries only.
        self.iter().eq(other.iter())
    }
}

impl Eq for ExitLedger {}

/// Dense per-level intervention counters, indexed directly by the
/// guest hypervisor's level. Like [`ExitLedger`] this sits on the
/// reflection path (once per delivered exit), so it is a flat `Vec`
/// rather than an ordered map; iteration order and equality match the
/// `BTreeMap<usize, u64>` it replaced.
#[derive(Debug, Clone, Default)]
pub struct InterventionLedger {
    counts: Vec<u64>,
}

impl InterventionLedger {
    /// Creates an empty ledger.
    pub fn new() -> InterventionLedger {
        InterventionLedger::default()
    }

    /// Increments the counter for `level`, growing on first use.
    #[inline(always)]
    pub fn record(&mut self, level: usize) {
        self.add(level, 1);
    }

    /// Adds `n` to the counter for `level`.
    #[inline(always)]
    pub fn add(&mut self, level: usize, n: u64) {
        if let Some(c) = self.counts.get_mut(level) {
            *c += n;
        } else {
            // Cold: first intervention at this level.
            self.counts.resize(level + 1, 0);
            *self.counts.last_mut().expect("just resized to level + 1") += n;
        }
    }

    /// The count for `level`.
    pub fn get(&self, level: usize) -> u64 {
        self.counts.get(level).copied().unwrap_or(0)
    }

    /// Sum over all levels.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&n| n == 0)
    }

    /// Iterates touched `(level, count)` entries in level order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter_map(|(level, &n)| if n == 0 { None } else { Some((level, n)) })
    }

    /// Adds every entry of `other` into this ledger.
    pub fn merge(&mut self, other: &InterventionLedger) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (dst, src) in self.counts.iter_mut().zip(other.counts.iter()) {
            *dst += src;
        }
    }
}

impl PartialEq for InterventionLedger {
    fn eq(&self, other: &InterventionLedger) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for InterventionLedger {}

/// Statistics accumulated while a simulated machine runs.
///
/// The exit ledger is the backbone of the test suite: DVH claims are
/// claims about *which exits stop happening* (e.g. with virtual timers
/// enabled, a nested VM's timer writes are never delivered to the guest
/// hypervisor).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Hardware exits, keyed by (exiting level, reason). Every exit
    /// lands at L0 first (single-level architectural support); this
    /// records where it came *from*.
    pub exits: ExitLedger,
    /// Exits that were delivered to a guest hypervisor at the indexed
    /// level (1-based) — the "guest hypervisor interventions" the paper
    /// counts as the root cause of nested overhead.
    pub interventions: InterventionLedger,
    /// Exits handled entirely by L0 on behalf of a nested VM thanks to
    /// a DVH mechanism.
    pub dvh_intercepts: BTreeMap<&'static str, u64>,
    /// Posted interrupts delivered without any exit.
    pub posted_deliveries: u64,
    /// Interrupts that required exit-based injection.
    pub injected_interrupts: u64,
    /// Cycles spent with a physical CPU halted (not burned).
    pub idle_cycles: Cycles,
    /// Cycles burned busy-polling instead of halting (the `idle=poll`
    /// alternative §3.4 contrasts with virtual idle).
    pub burned_idle_cycles: Cycles,
    /// Cycles attributed to each *outermost* exit, by (level, reason):
    /// the full cost of handling that exit, including every nested
    /// trap it caused. Answers "where did the time go?".
    pub cycles_by_reason: BTreeMap<(usize, ExitReason), Cycles>,
}

impl RunStats {
    /// Creates empty statistics.
    pub fn new() -> RunStats {
        RunStats::default()
    }

    /// Records a hardware exit from `level` with `reason`.
    #[inline(always)]
    pub fn record_exit(&mut self, level: usize, reason: ExitReason) {
        self.exits.record(level, reason);
    }

    /// Records delivery of an exit to the guest hypervisor at `level`.
    #[inline(always)]
    pub fn record_intervention(&mut self, level: usize) {
        self.interventions.record(level);
    }

    /// Records a DVH interception by mechanism name.
    pub fn record_dvh(&mut self, mechanism: &'static str) {
        *self.dvh_intercepts.entry(mechanism).or_insert(0) += 1;
    }

    /// Attributes `cycles` to the outermost exit (level, reason).
    pub fn attribute_cycles(&mut self, level: usize, reason: ExitReason, cycles: Cycles) {
        *self
            .cycles_by_reason
            .entry((level, reason))
            .or_insert(Cycles::ZERO) += cycles;
    }

    /// Total attributed cycles across all outermost exits.
    pub fn total_attributed_cycles(&self) -> Cycles {
        self.cycles_by_reason.values().copied().sum()
    }

    /// Total hardware exits from all levels.
    pub fn total_exits(&self) -> u64 {
        self.exits.total()
    }

    /// Total exits from the given level.
    pub fn exits_from_level(&self, level: usize) -> u64 {
        self.exits.level_total(level)
    }

    /// Exits from `level` with `reason`.
    pub fn exits_with(&self, level: usize, reason: ExitReason) -> u64 {
        self.exits.get(level, reason)
    }

    /// Total guest-hypervisor interventions (any level >= 1).
    pub fn total_interventions(&self) -> u64 {
        self.interventions.total()
    }

    /// Total DVH interceptions.
    pub fn total_dvh_intercepts(&self) -> u64 {
        self.dvh_intercepts.values().sum()
    }

    /// Merges another stats block into this one.
    pub fn merge(&mut self, other: &RunStats) {
        self.exits.merge(&other.exits);
        self.interventions.merge(&other.interventions);
        for (k, v) in &other.dvh_intercepts {
            *self.dvh_intercepts.entry(k).or_insert(0) += v;
        }
        self.posted_deliveries += other.posted_deliveries;
        self.injected_interrupts += other.injected_interrupts;
        self.idle_cycles += other.idle_cycles;
        self.burned_idle_cycles += other.burned_idle_cycles;
        for (k, v) in &other.cycles_by_reason {
            *self.cycles_by_reason.entry(*k).or_insert(Cycles::ZERO) += *v;
        }
    }
}

impl fmt::Display for RunStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "exits={} interventions={} dvh={} posted={} injected={}",
            self.total_exits(),
            self.total_interventions(),
            self.total_dvh_intercepts(),
            self.posted_deliveries,
            self.injected_interrupts
        )?;
        for ((level, reason), n) in self.exits.iter() {
            writeln!(f, "  L{level} {reason}: {n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_ledger() {
        let mut s = RunStats::new();
        s.record_exit(2, ExitReason::Vmcall);
        s.record_exit(2, ExitReason::Vmcall);
        s.record_exit(1, ExitReason::Vmresume);
        assert_eq!(s.total_exits(), 3);
        assert_eq!(s.exits_from_level(2), 2);
        assert_eq!(s.exits_with(2, ExitReason::Vmcall), 2);
        assert_eq!(s.exits_with(3, ExitReason::Vmcall), 0);
    }

    #[test]
    fn interventions_and_dvh() {
        let mut s = RunStats::new();
        s.record_intervention(1);
        s.record_intervention(1);
        s.record_dvh("vtimer");
        assert_eq!(s.total_interventions(), 2);
        assert_eq!(s.total_dvh_intercepts(), 1);
    }

    #[test]
    fn merge_sums() {
        let mut a = RunStats::new();
        a.record_exit(1, ExitReason::Hlt);
        let mut b = RunStats::new();
        b.record_exit(1, ExitReason::Hlt);
        b.posted_deliveries = 3;
        a.merge(&b);
        assert_eq!(a.exits_with(1, ExitReason::Hlt), 2);
        assert_eq!(a.posted_deliveries, 3);
    }

    #[test]
    fn display_lists_reasons() {
        let mut s = RunStats::new();
        s.record_exit(2, ExitReason::Hlt);
        let text = s.to_string();
        assert!(text.contains("L2 Hlt: 1"));
    }
}
