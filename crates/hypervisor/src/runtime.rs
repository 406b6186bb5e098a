//! Idle and interrupt runtime: halt chains, wake paths, IPI and
//! posted-interrupt delivery.
//!
//! The paper's virtual idle (§3.4) and virtual IPIs (§3.3) are about
//! exactly these paths: who blocks a nested vCPU, who wakes it, and how
//! many hypervisor levels stand between an interrupt and its target.

use crate::trace::TraceEvent;
use crate::world::World;
use dvh_arch::apic::IcrValue;
use dvh_arch::vmx::{ExitQualification, ExitReason};
use dvh_arch::Cycles;
use dvh_obs::metrics::names;
use dvh_obs::MetricKey;

/// How an interrupt reaches the leaf vCPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IrqPath {
    /// Posted directly into the running guest (APICv / VT-d PI / DVH
    /// virtual IPIs): no exit on the receiving side.
    PostedDirect,
    /// Injected by L0 via an exit on the receiving CPU.
    ExitInjected,
}

impl World {
    /// The guest services every deliverable interrupt on `dest`:
    /// dispatch from the IRR, run the (cheap, APICv-accelerated)
    /// handler entry, and EOI — no exits anywhere on this path.
    fn leaf_service_interrupts(&mut self, dest: usize) {
        while self.lapic[dest].dispatch().is_some() {
            self.compute(dest, Cycles::new(80));
            self.lapic[dest].eoi();
        }
    }

    /// Marks the leaf vCPU on `cpu` as busy-polling for events.
    pub(crate) fn set_polling(&mut self, cpu: usize) {
        self.polling[cpu] = true;
    }

    /// Whether the leaf vCPU on `cpu` is busy-polling.
    pub fn is_polling(&self, cpu: usize) -> bool {
        self.polling[cpu]
    }

    /// Blocks the leaf vCPU on `cpu` at L0 and halts the physical CPU.
    /// Called when L0 owns a `hlt` exit (L1 guests, or nested guests
    /// under virtual idle).
    pub(crate) fn l0_halt_vcpu(&mut self, cpu: usize, _from_level: usize) {
        self.compute(cpu, self.costs.vcpu_block);
        self.push_halt_level(cpu, 0);
        self.compute(cpu, self.costs.hlt_enter);
        self.polling[cpu] = false;
    }

    /// Appends `level` to the halt chain of `cpu`.
    pub(crate) fn push_halt_level(&mut self, cpu: usize, level: usize) {
        self.halt_chains[cpu].push(level);
    }

    /// Delivers `vector` to the leaf vCPU on `dest`, waking it if
    /// halted. `event_time` is when the triggering event happened on
    /// its source CPU (receiver clock synchronizes to it). Returns the
    /// time at which the interrupt is visible to leaf software.
    pub fn deliver_leaf_interrupt(
        &mut self,
        dest: usize,
        vector: u8,
        event_time: Cycles,
        path: IrqPath,
    ) -> Cycles {
        let path_tag = match path {
            IrqPath::PostedDirect => "posted",
            IrqPath::ExitInjected => "injected",
        };
        let pre_sync = self.now(dest);
        self.sync_cpu(dest, event_time);
        if self.is_paused(dest) {
            // Parked for migration: queue in the PIR (SN suppresses
            // the notification); delivery completes at resume.
            self.pi_desc[dest].post(vector);
            return self.now(dest);
        }
        let woke = self.is_halted(dest);
        let notify = self.pi_desc[dest].post(vector);
        let polling = self.is_polling(dest);
        if polling {
            // idle=poll: the waiting span was burned, not saved; the
            // wake itself is nearly free (the poll loop notices the
            // pending bit).
            self.stats.burned_idle_cycles += self.now(dest) - pre_sync;
            self.polling[dest] = false;
            self.compute(dest, Cycles::new(50));
        } else if woke {
            // The span between halting and the wake event was spent in
            // a real low-power state — saved, not burned (§3.4).
            let idle_span = self.now(dest) - pre_sync;
            self.stats.idle_cycles += idle_span;
            self.wake_chain(dest);
            self.observe(|m| {
                m.observe_cycles(MetricKey::plain(names::IRQ_WAKE_IDLE_CYCLES), idle_span)
            });
        } else if path == IrqPath::PostedDirect {
            // Hardware posts into the running guest; no exit.
            if notify {
                self.compute(dest, self.costs.posted_intr_delivery);
            }
            self.stats.posted_deliveries += 1;
        } else {
            // The running guest is kicked out; L0 injects on entry.
            let leaf = self.leaf_level();
            self.vmexit(
                leaf,
                dest,
                ExitReason::ExternalInterrupt,
                ExitQualification::default(),
            );
            self.compute(dest, self.costs.event_injection);
            self.stats.injected_interrupts += 1;
        }
        for v in self.pi_desc[dest].drain() {
            self.lapic[dest].accept(v);
        }
        self.leaf_service_interrupts(dest);
        self.observe(|m| m.inc(MetricKey::tagged(names::IRQ_DELIVERIES, path_tag)));
        self.record(TraceEvent::IrqDelivered {
            at: self.now(dest),
            cpu: dest,
            vector,
            woke: woke || polling,
        });
        self.now(dest)
    }

    /// Replays the halt chain of `cpu` in reverse: L0 wakes the
    /// physical CPU, then each blocked hypervisor level wakes its vCPU
    /// and resumes its guest — the multi-level wake cost the paper's
    /// virtual idle eliminates.
    fn wake_chain(&mut self, cpu: usize) {
        if self.halt_chains[cpu].is_empty() {
            return;
        }
        // The vCPU runs again from here on; the chain's buffer goes
        // back once replayed, for the next halt to reuse.
        let mut chain = std::mem::take(&mut self.halt_chains[cpu]);
        self.polling[cpu] = false;

        // L0 side: C1 wake latency, scheduler kick.
        self.compute(cpu, self.costs.idle_wake);
        self.compute(cpu, self.costs.vcpu_kick);

        // Hypervisor levels that blocked, in ascending order (L0 last
        // in the chain; strip it).
        chain.sort_unstable();
        let levels = &chain[chain.partition_point(|&l| l == 0)..];

        self.hv_vmptrld(0, cpu);
        if levels.is_empty() {
            // The leaf was blocked directly at L0 (L1 VM, or virtual
            // idle): re-enter it straight away.
            self.compute(cpu, self.costs.event_injection);
            self.l0_vmentry(cpu);
        } else {
            // Enter the lowest blocked hypervisor, then let each
            // blocked level wake its own guest vCPU and resume — with
            // every resume trapping down the chain.
            self.l0_vmentry(cpu);
            for &j in levels {
                self.compute(cpu, self.costs.vcpu_kick);
                self.compute(cpu, self.costs.event_injection);
                self.resume_program(j, cpu);
            }
        }
        chain.clear();
        self.halt_chains[cpu] = chain;
    }

    /// The terminal, physical IPI send performed by L0 (for its own
    /// needs or while emulating a guest's ICR write).
    pub(crate) fn send_physical_ipi(&mut self, sender_cpu: usize, icr: IcrValue) {
        self.compute(sender_cpu, self.costs.ipi_send);
        let dest = icr.dest as usize;
        if dest >= self.num_cpus() || dest == sender_cpu {
            return;
        }
        let t = self.now(sender_cpu);
        self.deliver_leaf_interrupt(dest, icr.vector, t, IrqPath::PostedDirect);
    }

    /// The guest hypervisor at `level` starts relaying an interrupt
    /// toward the leaf on `cpu`, outside any exit: one intervention.
    pub(crate) fn relay(&mut self, level: usize, cpu: usize) {
        self.record(TraceEvent::Relay {
            at: self.now(cpu),
            cpu,
            hv_level: level,
        });
    }

    /// A hardware timer expiry on `cpu`: the host's hrtimer fires and
    /// the (possibly emulated, possibly multi-level) timer interrupt
    /// propagates to the leaf.
    ///
    /// `dvh_direct` selects the virtual-timer delivery optimization
    /// (§3.2): L0 posts the timer interrupt directly to the nested VM.
    /// Without it, each intermediate hypervisor's timer emulation layer
    /// forwards the interrupt (its hrtimer callback runs, it raises its
    /// guest's timer, and so on).
    pub fn fire_timer(&mut self, cpu: usize, dvh_direct: bool) -> Cycles {
        let vector = 0xEC; // typical LAPIC timer vector
        self.timers[cpu].disarm();
        // L0's hrtimer interrupt.
        self.compute(cpu, self.costs.external_intr);
        let n = self.leaf_level();
        if n >= 2 && !dvh_direct {
            // Each intermediate hypervisor's timer-emulation layer
            // runs: hrtimer callback, raise guest timer interrupt,
            // re-enter — a full intervention per level.
            for j in 1..n {
                self.relay(j, cpu);
                self.exit_side_program(j, cpu);
                self.compute(cpu, self.costs.hrtimer_program);
                self.compute(cpu, self.costs.event_injection);
                self.resume_program(j, cpu);
            }
        }
        let t = self.now(cpu);
        self.deliver_leaf_interrupt(cpu, vector, t, IrqPath::PostedDirect)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorldConfig;
    use dvh_arch::costs::CostModel;

    fn world(levels: usize) -> World {
        World::new(CostModel::calibrated(), WorldConfig::baseline(levels))
    }

    #[test]
    fn halt_then_wake_l1() {
        let mut w = world(1);
        w.guest_hlt(0);
        assert!(w.is_halted(0));
        assert_eq!(w.halt_chain(0).unwrap(), &[0]);
        let t = w.now(1);
        w.deliver_leaf_interrupt(0, 0x41, t, IrqPath::PostedDirect);
        assert!(!w.is_halted(0));
    }

    #[test]
    fn nested_halt_builds_full_chain() {
        let mut w = world(3);
        w.guest_hlt(0);
        // L3 guest halts -> L2 blocks -> L1 blocks -> L0 halts pcpu.
        assert_eq!(w.halt_chain(0).unwrap(), &[2, 1, 0]);
    }

    #[test]
    fn wake_of_nested_chain_costs_more_than_direct() {
        let mut deep = world(3);
        deep.guest_hlt(0);
        let t0 = deep.now(0);
        deep.deliver_leaf_interrupt(0, 0x41, t0, IrqPath::PostedDirect);
        let deep_cost = deep.now(0) - t0;

        let mut shallow = world(1);
        shallow.guest_hlt(0);
        let t0 = shallow.now(0);
        shallow.deliver_leaf_interrupt(0, 0x41, t0, IrqPath::PostedDirect);
        let shallow_cost = shallow.now(0) - t0;
        assert!(
            deep_cost > shallow_cost * 5,
            "deep wake {deep_cost} should dwarf shallow wake {shallow_cost}"
        );
    }

    #[test]
    fn posted_delivery_to_running_vcpu_causes_no_exit() {
        let mut w = world(2);
        let before = w.stats.total_exits();
        w.deliver_leaf_interrupt(1, 0x50, Cycles::ZERO, IrqPath::PostedDirect);
        assert_eq!(w.stats.total_exits(), before);
        assert_eq!(w.stats.posted_deliveries, 1);
    }

    #[test]
    fn exit_injected_delivery_exits_once_from_leaf() {
        let mut w = world(2);
        w.deliver_leaf_interrupt(1, 0x50, Cycles::ZERO, IrqPath::ExitInjected);
        assert_eq!(w.stats.exits_with(2, ExitReason::ExternalInterrupt), 1);
        assert_eq!(w.stats.injected_interrupts, 1);
    }

    #[test]
    fn timer_fire_without_dvh_intervenes_per_level() {
        let mut w = world(3);
        w.fire_timer(0, false);
        assert!(w.stats.total_interventions() >= 2);

        let mut w2 = world(3);
        w2.fire_timer(0, true);
        assert_eq!(w2.stats.total_interventions(), 0);
    }
}
