//! Run statistics: exit counts by level and reason, interventions,
//! cycle accounting.

use crate::trace::TraceEvent;
use dvh_arch::vmx::ExitReason;
use dvh_arch::Cycles;
use std::collections::BTreeMap;
use std::fmt;
use std::iter::Sum;
use std::ops::{AddAssign, Sub};

/// One row per level in a [`ReasonLedger`]: a slot for every basic
/// exit reason number (the largest architectural discriminant we model
/// is [`ExitReason::ApicWrite`] = 56).
const REASON_SLOTS: usize = 57;

/// Dense per-(level, reason) ledger of counts ([`ExitLedger`]) or
/// cycles ([`CycleLedger`]).
///
/// `add` is on the engine's innermost path (once per simulated
/// hardware exit, once per outermost exit attributed), so the ledger
/// is a flat `Vec` indexed by `level * REASON_SLOTS + reason.number()`
/// instead of an ordered map. Iteration yields only non-zero entries,
/// sorted by `(level, reason)` exactly like the `BTreeMap<(usize,
/// ExitReason), _>` it replaced: `ExitReason`'s derived `Ord` compares
/// discriminants, which are the reason numbers the row is indexed by.
#[derive(Debug, Clone)]
pub struct ReasonLedger<T> {
    cells: Vec<T>,
}

/// Exit counts per (level, reason).
pub type ExitLedger = ReasonLedger<u64>;

/// Cycles per (level, reason).
pub type CycleLedger = ReasonLedger<Cycles>;

/// What a [`ReasonLedger`] can hold: counts and cycles.
pub trait LedgerValue: Copy + Default + Eq + AddAssign + Sub<Output = Self> + Sum {}

impl<T: Copy + Default + Eq + AddAssign + Sub<Output = T> + Sum> LedgerValue for T {}

impl<T> Default for ReasonLedger<T> {
    fn default() -> Self {
        ReasonLedger { cells: Vec::new() }
    }
}

impl<T: LedgerValue> ReasonLedger<T> {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cell of (`level`, `reason`). Exit summaries store cells, so
    /// that a replay skips the index arithmetic.
    #[inline(always)]
    fn index(level: usize, reason: ExitReason) -> usize {
        level * REASON_SLOTS + reason.number() as usize
    }

    /// Adds `v` to the entry for (`level`, `reason`).
    #[inline(always)]
    pub fn add(&mut self, level: usize, reason: ExitReason, v: T) {
        self.add_at(Self::index(level, reason), v);
    }

    /// Adds `v` to cell `idx` (see `ReasonLedger::index`), growing
    /// the level rows on first use.
    #[inline(always)]
    pub(crate) fn add_at(&mut self, idx: usize, v: T) {
        match self.cells.get_mut(idx) {
            Some(c) => *c += v,
            None => self.grow_and_add(idx, v),
        }
    }

    /// The cold path of [`ReasonLedger::add_at`]: the first entry of a
    /// new level row.
    #[inline(never)]
    fn grow_and_add(&mut self, idx: usize, v: T) {
        self.cells
            .resize((idx / REASON_SLOTS + 1) * REASON_SLOTS, T::default());
        self.cells[idx] += v;
    }

    /// The value of cell `idx`, zero if never touched.
    fn at(&self, idx: usize) -> T {
        self.cells.get(idx).copied().unwrap_or_default()
    }

    /// The entry for (`level`, `reason`).
    pub fn get(&self, level: usize, reason: ExitReason) -> T {
        self.at(Self::index(level, reason))
    }

    /// Mutable access to the entry for (`level`, `reason`), growing the
    /// level rows on first use.
    pub fn get_mut(&mut self, level: usize, reason: ExitReason) -> &mut T {
        let idx = Self::index(level, reason);
        self.add_at(idx, T::default());
        &mut self.cells[idx]
    }

    /// Sum over all levels and reasons.
    pub fn total(&self) -> T {
        self.cells.iter().copied().sum()
    }

    /// Sum over all reasons for one level.
    pub fn level_total(&self, level: usize) -> T {
        let start = (level * REASON_SLOTS).min(self.cells.len());
        let end = ((level + 1) * REASON_SLOTS).min(self.cells.len());
        self.cells[start..end].iter().copied().sum()
    }

    /// Whether every entry is zero.
    pub fn is_empty(&self) -> bool {
        self.cells.iter().all(|&v| v == T::default())
    }

    /// Number of non-zero entries.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// Iterates non-zero `((level, reason), value)` entries in
    /// `(level, reason)` order.
    pub fn iter(&self) -> impl Iterator<Item = ((usize, ExitReason), T)> + '_ {
        self.cells.iter().enumerate().filter_map(|(idx, &v)| {
            if v == T::default() {
                return None;
            }
            let level = idx / REASON_SLOTS;
            let reason = ExitReason::from_number((idx % REASON_SLOTS) as u16)
                .expect("ledger row holds only valid reason numbers");
            Some(((level, reason), v))
        })
    }

    /// Iterates `(cell index, self − before)` over the cells that grew
    /// since `before`, an earlier copy of this ledger.
    pub(crate) fn growth_since<'a>(
        &'a self,
        before: &'a Self,
    ) -> impl Iterator<Item = (usize, T)> + 'a {
        self.cells.iter().enumerate().filter_map(|(idx, &v)| {
            let was = before.at(idx);
            (v != was).then(|| (idx, v - was))
        })
    }

    /// The change of cell `idx` since `before`.
    pub(crate) fn growth_at(&self, before: &Self, idx: usize) -> T {
        self.at(idx) - before.at(idx)
    }

    /// Adds every entry of `other` into this ledger.
    pub fn merge(&mut self, other: &Self) {
        if self.cells.len() < other.cells.len() {
            self.cells.resize(other.cells.len(), T::default());
        }
        for (dst, &src) in self.cells.iter_mut().zip(other.cells.iter()) {
            *dst += src;
        }
    }
}

impl ExitLedger {
    /// Increments the counter for (`level`, `reason`).
    #[inline(always)]
    pub fn record(&mut self, level: usize, reason: ExitReason) {
        self.add(level, reason, 1);
    }
}

impl<T: LedgerValue> PartialEq for ReasonLedger<T> {
    fn eq(&self, other: &Self) -> bool {
        // Trailing all-zero rows are representation artifacts, not
        // content; compare non-zero entries only.
        self.iter().eq(other.iter())
    }
}

impl<T: LedgerValue> Eq for ReasonLedger<T> {}

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
    pub cycles_by_reason: CycleLedger,
    /// The outermost exits `cycles_by_reason` attributes, by (level,
    /// reason): unlike `exits`, no nested exit is counted.
    pub outermost_exits: ExitLedger,
}

impl RunStats {
    /// Creates empty statistics.
    pub fn new() -> RunStats {
        RunStats::default()
    }

    /// Folds one engine event into the ledgers: `Exit` counts an exit,
    /// `Intervention` and `Relay` count an intervention, `DvhIntercept`
    /// counts an interception and `Completed` attributes its cycles.
    /// The exit engine's only writer of those four ledgers (see
    /// `World::record`); exit summaries replay recorded deltas.
    #[inline(always)]
    pub(crate) fn fold(&mut self, e: &TraceEvent) {
        match *e {
            TraceEvent::Exit {
                from_level, reason, ..
            } => self.exits.record(from_level, reason),
            TraceEvent::Intervention { hv_level, .. } | TraceEvent::Relay { hv_level, .. } => {
                self.interventions.record(hv_level)
            }
            TraceEvent::DvhIntercept { mechanism, .. } => {
                *self.dvh_intercepts.entry(mechanism).or_insert(0) += 1
            }
            TraceEvent::Completed {
                from_level,
                reason,
                spent,
                ..
            } => {
                self.outermost_exits.record(from_level, reason);
                self.attribute(from_level, reason, spent)
            }
            TraceEvent::Returned { .. } | TraceEvent::IrqDelivered { .. } => {}
        }
    }

    /// Adds `cycles` to the outermost exit (level, reason).
    #[inline]
    pub(crate) fn attribute(&mut self, level: usize, reason: ExitReason, cycles: Cycles) {
        self.cycles_by_reason.add(level, reason, cycles);
    }

    /// Total attributed cycles across all outermost exits.
    pub fn total_attributed_cycles(&self) -> Cycles {
        self.cycles_by_reason.total()
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

    /// The names of the ledgers in which `self` and `other` differ, in
    /// declaration order. The destructuring is exhaustive, so a ledger
    /// added to [`RunStats`] does not compile until it is listed here.
    #[rustfmt::skip]
    pub(crate) fn differing_ledgers(&self, other: &RunStats) -> Vec<&'static str> {
        let RunStats {
            exits, interventions, dvh_intercepts, posted_deliveries, injected_interrupts,
            idle_cycles, burned_idle_cycles, cycles_by_reason, outermost_exits,
        } = self;
        macro_rules! differing {
            ($($f:ident),*) => { [$((stringify!($f), *$f != other.$f)),*] };
        }
        let ledgers = differing![
            exits, interventions, dvh_intercepts, posted_deliveries, injected_interrupts,
            idle_cycles, burned_idle_cycles, cycles_by_reason, outermost_exits
        ];
        ledgers.into_iter().filter_map(|(name, differs)| differs.then_some(name)).collect()
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
        self.outermost_exits.merge(&other.outermost_exits);
        self.cycles_by_reason.merge(&other.cycles_by_reason);
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
        s.exits.record(2, ExitReason::Vmcall);
        s.exits.record(2, ExitReason::Vmcall);
        s.exits.record(1, ExitReason::Vmresume);
        assert_eq!(s.total_exits(), 3);
        assert_eq!(s.exits_from_level(2), 2);
        assert_eq!(s.exits_with(2, ExitReason::Vmcall), 2);
        assert_eq!(s.exits_with(3, ExitReason::Vmcall), 0);
    }

    #[test]
    fn interventions_and_dvh() {
        let (at, cpu, reason) = (Cycles::ZERO, 0, ExitReason::Vmcall);
        let mut s = RunStats::new();
        for e in [
            TraceEvent::Intervention {
                at,
                cpu,
                hv_level: 1,
                reason,
            },
            TraceEvent::Relay {
                at,
                cpu,
                hv_level: 1,
            },
            TraceEvent::DvhIntercept {
                at,
                cpu,
                mechanism: "vtimer",
            },
        ] {
            s.fold(&e);
        }
        assert_eq!(s.interventions.get(1), 2);
        assert_eq!(s.total_dvh_intercepts(), 1);
        assert_eq!(s.total_exits(), 0, "only Exit events count exits");
    }

    #[test]
    fn merge_sums() {
        let mut a = RunStats::new();
        a.exits.record(1, ExitReason::Hlt);
        let mut b = RunStats::new();
        b.exits.record(1, ExitReason::Hlt);
        b.posted_deliveries = 3;
        a.merge(&b);
        assert_eq!(a.exits_with(1, ExitReason::Hlt), 2);
        assert_eq!(a.posted_deliveries, 3);
    }

    #[test]
    fn display_lists_reasons() {
        let mut s = RunStats::new();
        s.exits.record(2, ExitReason::Hlt);
        let text = s.to_string();
        assert!(text.contains("L2 Hlt: 1"));
    }
}
