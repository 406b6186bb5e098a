//! vCPU lifecycle: pausing and resuming the leaf VM, as live
//! migration's stop-and-copy phase requires.
//!
//! A paused vCPU accepts no interrupts — they accumulate in its
//! posted-interrupt descriptor with the suppress-notification bit set
//! (exactly how KVM parks vCPUs) and are delivered in order when the
//! vCPU resumes. Nothing is lost across a migration blackout.

use crate::world::World;
use dvh_arch::Cycles;

impl World {
    /// Whether the leaf vCPU on `cpu` is paused.
    pub fn is_paused(&self, cpu: usize) -> bool {
        self.paused[cpu]
    }

    /// Pauses one leaf vCPU: kick it out of guest mode if running and
    /// park it; pending interrupt notifications are suppressed.
    pub fn pause_vcpu(&mut self, cpu: usize) {
        if self.paused[cpu] {
            return;
        }
        if !self.is_halted(cpu) {
            // Kick: an IPI-induced exit plus scheduler dequeue.
            self.vmexit(
                self.leaf_level(),
                cpu,
                dvh_arch::vmx::ExitReason::ExternalInterrupt,
                dvh_arch::vmx::ExitQualification::default(),
            );
            self.compute(cpu, self.costs.vcpu_block);
        }
        self.paused[cpu] = true;
        self.pi_desc[cpu].sn = true;
    }

    /// Pauses every leaf vCPU (migration stop-and-copy).
    pub fn pause_all(&mut self) {
        for cpu in 0..self.num_cpus() {
            self.pause_vcpu(cpu);
        }
    }

    /// Resumes a paused vCPU, delivering everything that queued while
    /// it was paused.
    pub fn resume_vcpu(&mut self, cpu: usize) {
        if !self.paused[cpu] {
            return;
        }
        self.paused[cpu] = false;
        self.pi_desc[cpu].sn = false;
        self.compute(cpu, self.costs.vcpu_kick);
        self.l0_vmentry(cpu);
        for v in self.pi_desc[cpu].drain() {
            self.lapic[cpu].accept(v);
        }
        self.service_after_resume(cpu);
    }

    /// Resumes every leaf vCPU.
    pub fn resume_all(&mut self) {
        for cpu in 0..self.num_cpus() {
            self.resume_vcpu(cpu);
        }
    }

    fn service_after_resume(&mut self, cpu: usize) {
        while self.lapic[cpu].dispatch().is_some() {
            self.compute(cpu, Cycles::new(80));
            self.lapic[cpu].eoi();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorldConfig;
    use crate::runtime::IrqPath;
    use dvh_arch::costs::CostModel;

    fn world() -> World {
        World::new(CostModel::calibrated(), WorldConfig::baseline(2))
    }

    #[test]
    fn pause_resume_round_trip() {
        let mut w = world();
        w.pause_vcpu(0);
        assert!(w.is_paused(0));
        w.resume_vcpu(0);
        assert!(!w.is_paused(0));
    }

    #[test]
    fn interrupts_during_pause_are_queued_not_lost() {
        let mut w = world();
        w.pause_vcpu(0);
        let before = w.lapic[0].accepted_count();
        let t = w.now(1);
        w.deliver_leaf_interrupt(0, 0x71, t, IrqPath::PostedDirect);
        w.deliver_leaf_interrupt(0, 0x72, t, IrqPath::PostedDirect);
        // Still parked: nothing accepted yet, both pending in the PIR.
        assert_eq!(w.lapic[0].accepted_count(), before);
        assert!(w.pi_desc[0].is_pending(0x71));
        assert!(w.pi_desc[0].is_pending(0x72));
        w.resume_vcpu(0);
        assert_eq!(w.lapic[0].accepted_count(), before + 2);
        assert_eq!(w.lapic[0].eoi_count(), before + 2);
        assert!(!w.pi_desc[0].has_pending());
    }

    #[test]
    fn pause_is_idempotent() {
        let mut w = world();
        w.pause_vcpu(0);
        let t = w.now(0);
        w.pause_vcpu(0);
        assert_eq!(w.now(0), t, "second pause is free");
        w.resume_vcpu(0);
        let t = w.now(0);
        w.resume_vcpu(0);
        assert_eq!(w.now(0), t, "second resume is free");
    }

    #[test]
    fn pause_all_covers_every_vcpu() {
        let mut w = world();
        w.pause_all();
        for cpu in 0..w.num_cpus() {
            assert!(w.is_paused(cpu));
        }
        w.resume_all();
        for cpu in 0..w.num_cpus() {
            assert!(!w.is_paused(cpu));
        }
    }

    #[test]
    fn pausing_a_running_vcpu_costs_an_exit() {
        let mut w = world();
        let before = w.stats.total_exits();
        w.pause_vcpu(0);
        assert!(w.stats.total_exits() > before);
    }
}
