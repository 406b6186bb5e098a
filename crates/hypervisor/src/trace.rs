//! Execution tracing: a per-world event log of everything the exit
//! engine does, for debugging, visualization, and fine-grained tests.
//!
//! A [`TraceEvent`] is also the unit of accounting: the engine states
//! each fact once, through `World::record`, which folds it into the
//! `RunStats` ledger and, while observing, into the metrics registry
//! and the trace buffer. Tracing is off by default (zero overhead
//! beyond a branch); enable it with [`World::enable_tracing`] and
//! drain events with [`World::take_trace`].

use crate::world::World;
use dvh_arch::vmx::ExitReason;
use dvh_arch::Cycles;
use std::fmt;

/// Trace buffer capacity of every observed run (the CLI's observed
/// commands and the checker's workloads): large enough that no checker
/// workload truncates.
pub const TRACE_CAPACITY: usize = 1 << 20;

/// One traced event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A hardware VM exit landed at L0.
    Exit {
        /// Simulated time on the exiting CPU.
        at: Cycles,
        /// CPU the exit happened on.
        cpu: usize,
        /// Level the guest was running at.
        from_level: usize,
        /// Architectural reason.
        reason: ExitReason,
        /// For `Vmread`/`Vmwrite` exits, the VMCS field encoding the
        /// guest hypervisor was accessing (used by the trace linter to
        /// catch shadow-bypass reflections); `None` otherwise.
        vmcs_field: Option<u32>,
    },
    /// An outermost exit finished: the CPU re-entered the level it
    /// exited from, with `spent` simulated cycles consumed end to end.
    /// Emitted only for top-level exits (`exit_depth` returning to 0);
    /// folding it is what fills `RunStats::cycles_by_reason`.
    Completed {
        /// Time the exit finished (re-entry to the guest).
        at: Cycles,
        /// CPU.
        cpu: usize,
        /// Level whose exit this completes.
        from_level: usize,
        /// The architectural reason of the completed exit.
        reason: ExitReason,
        /// Cycles consumed between the exit and this completion.
        spent: Cycles,
    },
    /// A *nested* (non-outermost) exit finished its round trip: the
    /// handler chain for it ran to completion and control returned to
    /// the enclosing exit's handling. Together with [`Exit`] this
    /// gives every inner exit an exact, non-overlapping interval
    /// `[exit.at, returned.at]`, which is what lets the causality
    /// layer ([`dvh_obs::causal`]) rebuild the full causal tree of an
    /// outermost exit and partition its cycles into per-frame self
    /// times. Outermost exits close with [`Completed`] instead (which
    /// additionally carries the attributed `spent` for the ledger).
    ///
    /// [`Exit`]: TraceEvent::Exit
    /// [`Completed`]: TraceEvent::Completed
    Returned {
        /// Time the nested exit's handling finished.
        at: Cycles,
        /// CPU.
        cpu: usize,
        /// Level whose nested exit this closes.
        from_level: usize,
        /// The architectural reason of the closed exit.
        reason: ExitReason,
    },
    /// An exit was delivered to a guest hypervisor.
    Intervention {
        /// Time of delivery.
        at: Cycles,
        /// CPU.
        cpu: usize,
        /// The guest hypervisor's level.
        hv_level: usize,
        /// The reason being delivered.
        reason: ExitReason,
    },
    /// A guest hypervisor relayed an interrupt toward the leaf outside
    /// any exit: its timer-emulation or interrupt-remapping layer ran
    /// for a host interrupt (a timer expiry, a device completion).
    /// Counted as an intervention at `hv_level`, like an exit
    /// delivered to it, but it never sits inside an open exit.
    Relay {
        /// Time the relaying hypervisor started running.
        at: Cycles,
        /// CPU.
        cpu: usize,
        /// The relaying guest hypervisor's level.
        hv_level: usize,
    },
    /// A DVH mechanism handled an exit at L0.
    DvhIntercept {
        /// Time of interception.
        at: Cycles,
        /// CPU.
        cpu: usize,
        /// Mechanism name ("vtimer", "vipi", ...).
        mechanism: &'static str,
    },
    /// An interrupt became visible to the leaf vCPU.
    IrqDelivered {
        /// Time of delivery on the destination CPU.
        at: Cycles,
        /// Destination CPU.
        cpu: usize,
        /// Vector delivered.
        vector: u8,
        /// Whether the destination had been halted.
        woke: bool,
    },
}

impl TraceEvent {
    /// The event's timestamp.
    pub fn at(&self) -> Cycles {
        match self {
            TraceEvent::Exit { at, .. }
            | TraceEvent::Completed { at, .. }
            | TraceEvent::Returned { at, .. }
            | TraceEvent::Intervention { at, .. }
            | TraceEvent::Relay { at, .. }
            | TraceEvent::DvhIntercept { at, .. }
            | TraceEvent::IrqDelivered { at, .. } => *at,
        }
    }

    /// The CPU the event occurred on.
    pub fn cpu(&self) -> usize {
        match self {
            TraceEvent::Exit { cpu, .. }
            | TraceEvent::Completed { cpu, .. }
            | TraceEvent::Returned { cpu, .. }
            | TraceEvent::Intervention { cpu, .. }
            | TraceEvent::Relay { cpu, .. }
            | TraceEvent::DvhIntercept { cpu, .. }
            | TraceEvent::IrqDelivered { cpu, .. } => *cpu,
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::Exit {
                at,
                cpu,
                from_level,
                reason,
                vmcs_field,
            } => {
                write!(f, "[{at}] cpu{cpu} exit L{from_level} {reason}")?;
                if let Some(enc) = vmcs_field {
                    write!(f, " field {enc:#06x}")?;
                }
                Ok(())
            }
            TraceEvent::Completed {
                at,
                cpu,
                from_level,
                reason,
                spent,
            } => write!(
                f,
                "[{at}] cpu{cpu} resume L{from_level} {reason} (spent {spent})"
            ),
            TraceEvent::Returned {
                at,
                cpu,
                from_level,
                reason,
            } => write!(f, "[{at}] cpu{cpu} return L{from_level} {reason}"),
            TraceEvent::Intervention {
                at,
                cpu,
                hv_level,
                reason,
            } => write!(f, "[{at}] cpu{cpu} -> L{hv_level} hypervisor ({reason})"),
            TraceEvent::Relay { at, cpu, hv_level } => {
                write!(f, "[{at}] cpu{cpu} -> L{hv_level} hypervisor (irq relay)")
            }
            TraceEvent::DvhIntercept { at, cpu, mechanism } => {
                write!(f, "[{at}] cpu{cpu} DVH {mechanism}")
            }
            TraceEvent::IrqDelivered {
                at,
                cpu,
                vector,
                woke,
            } => write!(
                f,
                "[{at}] cpu{cpu} irq {vector:#x}{}",
                if *woke { " (woke)" } else { "" }
            ),
        }
    }
}

/// A bounded trace buffer (oldest events are dropped when full).
///
/// Eviction is a compacting ring: events append to a backing `Vec`
/// allowed to grow to twice the logical capacity; when it fills, the
/// stale front half is drained in one batch. Each event is moved at
/// most once per `capacity` evictions — amortized O(1) per record,
/// where the old `Vec::remove(0)` was O(n) per event (quadratic over
/// a full traced run) — while the live window stays contiguous, so
/// [`Tracer::events`] is still a borrowed oldest-first slice.
#[derive(Debug, Default)]
pub struct Tracer {
    events: Vec<TraceEvent>,
    capacity: usize,
    /// Lifetime events recorded (retained + evicted).
    total: u64,
}

impl Tracer {
    /// Creates a tracer holding up to `capacity` events.
    ///
    /// The buffer is reserved up front (capped, so pathological
    /// capacities don't allocate gigabytes eagerly) — recording an
    /// event on the hot path never grows the Vec until the cap.
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            events: Vec::with_capacity(capacity.saturating_mul(2).min(1 << 16)),
            capacity,
            total: 0,
        }
    }

    /// Records an event.
    pub fn record(&mut self, e: TraceEvent) {
        self.total += 1;
        if self.capacity == 0 {
            return;
        }
        if self.events.len() >= self.capacity.saturating_mul(2) {
            // One O(capacity) compaction per `capacity` evictions.
            self.events.drain(..self.events.len() - self.capacity);
        }
        self.events.push(e);
    }

    /// Events recorded, oldest first (the most recent `capacity` of
    /// them).
    pub fn events(&self) -> &[TraceEvent] {
        let start = self.events.len().saturating_sub(self.capacity);
        &self.events[start..]
    }

    /// How many events were evicted because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.total.saturating_sub(self.capacity as u64)
    }

    /// Consumes the tracer, returning the retained events oldest
    /// first.
    pub fn into_events(mut self) -> Vec<TraceEvent> {
        let start = self.events.len().saturating_sub(self.capacity);
        if start > 0 {
            self.events.drain(..start);
        }
        self.events
    }
}

impl World {
    /// Turns on tracing with the given buffer capacity.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.tracer = Some(Tracer::new(capacity));
        self.observing = true;
    }

    /// Stops tracing and returns the recorded events.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        let events = self.tracer.take().map(Tracer::into_events);
        self.observing = self.metrics.is_some();
        events.unwrap_or_default()
    }

    /// Events recorded so far without stopping tracing (empty when
    /// tracing is off).
    pub fn trace_events(&self) -> &[TraceEvent] {
        self.tracer.as_ref().map(|t| t.events()).unwrap_or(&[])
    }

    /// How many trace events have been evicted from the bounded
    /// buffer. The trace linter refuses to certify a truncated trace.
    pub fn trace_dropped(&self) -> u64 {
        self.tracer.as_ref().map(|t| t.dropped()).unwrap_or(0)
    }

    /// States one engine fact. The event always folds into the
    /// `RunStats` ledger; while observing it also folds into the
    /// metrics registry and the trace buffer. Every write of the exit,
    /// intervention, DVH-intercept and attributed-cycle ledgers goes
    /// through here, so the three views agree by construction. The
    /// unobserved path is the ledger update plus one predicted branch
    /// on [`World::observing`].
    #[inline(always)]
    pub(crate) fn record(&mut self, e: TraceEvent) {
        self.stats.fold(&e);
        if self.observing {
            self.observe_event(e);
        }
    }

    /// Out-of-line observing path of [`World::record`].
    #[inline(never)]
    fn observe_event(&mut self, e: TraceEvent) {
        if let Some(m) = self.metrics.as_deref_mut() {
            match e {
                TraceEvent::Completed {
                    from_level,
                    reason,
                    spent,
                    ..
                } => m.observe_exit(from_level, reason, spent),
                TraceEvent::DvhIntercept { mechanism, .. } => m.record_dvh(mechanism),
                _ => {}
            }
        }
        if let Some(t) = self.tracer.as_mut() {
            t.record(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorldConfig;
    use dvh_arch::costs::CostModel;

    #[test]
    fn trace_captures_exit_chain() {
        let mut w = World::new(CostModel::calibrated(), WorldConfig::baseline(2));
        w.enable_tracing(4096);
        w.guest_hypercall(0);
        let events = w.take_trace();
        assert!(!events.is_empty());
        // First event is the leaf's Vmcall exit.
        assert!(matches!(
            events[0],
            TraceEvent::Exit {
                from_level: 2,
                reason: ExitReason::Vmcall,
                ..
            }
        ));
        // Exactly one intervention (the L1 hypervisor handles it).
        let interventions = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Intervention { .. }))
            .count();
        assert_eq!(interventions, 1);
        // Timestamps are monotone per CPU.
        let mut last = Cycles::ZERO;
        for e in &events {
            if e.cpu() == 0 {
                assert!(e.at() >= last);
                last = e.at();
            }
        }
    }

    #[test]
    fn nested_exits_are_closed_by_returned_events() {
        let mut w = World::new(CostModel::calibrated(), WorldConfig::baseline(2));
        w.enable_tracing(1 << 16);
        w.guest_hypercall(0);
        let events = w.take_trace();
        let count = |f: fn(&TraceEvent) -> bool| events.iter().filter(|e| f(e)).count();
        let exits = count(|e| matches!(e, TraceEvent::Exit { .. }));
        let returned = count(|e| matches!(e, TraceEvent::Returned { .. }));
        let completed = count(|e| matches!(e, TraceEvent::Completed { .. }));
        assert!(returned > 0, "a reflected L2 hypercall must nest");
        assert_eq!(completed, 1, "exactly one outermost exit");
        assert_eq!(
            exits,
            returned + completed,
            "every exit closes exactly once"
        );
        // A Returned never closes the outermost exit: the Completed is
        // the last engine close event.
        let last_close = events
            .iter()
            .rposition(|e| matches!(e, TraceEvent::Returned { .. }))
            .unwrap();
        let completed_at = events
            .iter()
            .position(|e| matches!(e, TraceEvent::Completed { .. }))
            .unwrap();
        assert!(last_close < completed_at);
    }

    #[test]
    fn tracing_off_records_nothing() {
        let mut w = World::new(CostModel::calibrated(), WorldConfig::baseline(2));
        w.guest_hypercall(0);
        assert!(w.take_trace().is_empty());
    }

    #[test]
    fn bounded_buffer_drops_oldest() {
        let mut t = Tracer::new(2);
        for i in 0..5u8 {
            t.record(TraceEvent::IrqDelivered {
                at: Cycles::new(i as u64),
                cpu: 0,
                vector: i,
                woke: false,
            });
        }
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.dropped(), 3);
        assert_eq!(t.events()[0].at(), Cycles::new(3));
    }

    fn irq_at(i: u64) -> TraceEvent {
        TraceEvent::IrqDelivered {
            at: Cycles::new(i),
            cpu: 0,
            vector: (i % 256) as u8,
            woke: false,
        }
    }

    #[test]
    fn eviction_keeps_oldest_first_across_compactions() {
        // Capacity 4, 11 events: crosses the 2x-capacity compaction
        // boundary more than once. The window must always be the most
        // recent 4, oldest first.
        let mut t = Tracer::new(4);
        for i in 0..11 {
            t.record(irq_at(i));
            let events = t.events();
            let expect_len = ((i + 1) as usize).min(4);
            assert_eq!(events.len(), expect_len);
            let oldest = (i + 1).saturating_sub(4);
            for (k, e) in events.iter().enumerate() {
                assert_eq!(e.at(), Cycles::new(oldest + k as u64));
            }
        }
        assert_eq!(t.dropped(), 7);
    }

    #[test]
    fn at_capacity_nothing_is_dropped() {
        let mut t = Tracer::new(3);
        for i in 0..3 {
            t.record(irq_at(i));
        }
        assert_eq!(t.dropped(), 0);
        assert_eq!(t.events().len(), 3);
        assert_eq!(t.events()[0].at(), Cycles::ZERO);
        // One past capacity evicts exactly one.
        t.record(irq_at(3));
        assert_eq!(t.dropped(), 1);
        assert_eq!(t.events()[0].at(), Cycles::new(1));
    }

    #[test]
    fn into_events_matches_events_view() {
        for n in [2u64, 3, 4, 7, 16] {
            let mut t = Tracer::new(3);
            for i in 0..n {
                t.record(irq_at(i));
            }
            let view: Vec<TraceEvent> = t.events().to_vec();
            assert_eq!(t.into_events(), view, "{n} events");
        }
    }

    #[test]
    fn take_trace_agrees_with_trace_events_past_capacity() {
        let mut w = World::new(CostModel::calibrated(), WorldConfig::baseline(2));
        // Small enough that a hypercall overflows it.
        w.enable_tracing(8);
        w.guest_hypercall(0);
        assert!(w.trace_dropped() > 0, "trace should have wrapped");
        let view: Vec<TraceEvent> = w.trace_events().to_vec();
        assert_eq!(view.len(), 8);
        let taken = w.take_trace();
        assert_eq!(taken, view);
        // Timestamps still monotone (per CPU; this run is CPU 0 only).
        for pair in taken.windows(2) {
            assert!(pair[0].at() <= pair[1].at());
        }
    }

    #[test]
    fn take_trace_agrees_with_trace_events_at_capacity() {
        let mut w = World::new(CostModel::calibrated(), WorldConfig::baseline(2));
        w.enable_tracing(1 << 16);
        w.guest_hypercall(0);
        assert_eq!(w.trace_dropped(), 0);
        let view: Vec<TraceEvent> = w.trace_events().to_vec();
        assert_eq!(w.take_trace(), view);
    }

    #[test]
    fn display_is_informative() {
        let e = TraceEvent::Exit {
            at: Cycles::new(100),
            cpu: 1,
            from_level: 2,
            reason: ExitReason::Hlt,
            vmcs_field: None,
        };
        let s = e.to_string();
        assert!(s.contains("cpu1") && s.contains("L2") && s.contains("Hlt"));
    }

    #[test]
    fn dvh_intercepts_are_traced() {
        use crate::extension::{Intercept, L0Extension};
        use dvh_arch::vmx::ExitQualification;

        struct Claim;
        impl L0Extension for Claim {
            fn name(&self) -> &'static str {
                "claim-all"
            }
            fn try_intercept(
                &mut self,
                w: &mut World,
                cpu: usize,
                _from: usize,
                _reason: ExitReason,
                _qual: &ExitQualification,
            ) -> Intercept {
                w.compute(cpu, Cycles::new(1));
                Intercept::Handled
            }
        }
        let mut w = World::new(CostModel::calibrated(), WorldConfig::baseline(2));
        w.register_extension(Box::new(Claim));
        w.enable_tracing(128);
        w.guest_hypercall(0);
        let events = w.take_trace();
        assert!(events.iter().any(|e| matches!(
            e,
            TraceEvent::DvhIntercept {
                mechanism: "claim-all",
                ..
            }
        )));
    }
}
