//! Guest-visible operations: what leaf-VM software can do.
//!
//! These are the entry points workloads drive. Each models one
//! architectural action by the guest OS in the leaf VM and runs the
//! whole machine reaction to completion (synchronously, as the paper's
//! microbenchmarks measure them).

use crate::world::World;
use dvh_arch::apic::IcrValue;
use dvh_arch::msr;
use dvh_arch::vmx::{ExitQualification, ExitReason};
use dvh_arch::Cycles;

impl World {
    /// The guest executes `vmcall` (the Hypercall microbenchmark,
    /// Table 1): switch to the (guest) hypervisor and immediately back.
    /// Returns elapsed cycles on `cpu`.
    pub fn guest_hypercall(&mut self, cpu: usize) -> Cycles {
        let t0 = self.now(cpu);
        self.vmexit(
            self.leaf_level(),
            cpu,
            ExitReason::Vmcall,
            ExitQualification::default(),
        );
        self.now(cpu) - t0
    }

    /// The guest programs its LAPIC timer in TSC-deadline mode (the
    /// ProgramTimer microbenchmark). Returns elapsed cycles.
    pub fn guest_program_timer(&mut self, cpu: usize, deadline: u64) -> Cycles {
        let t0 = self.now(cpu);
        self.vmexit(
            self.leaf_level(),
            cpu,
            ExitReason::MsrWrite,
            ExitQualification::msr_write(msr::IA32_TSC_DEADLINE, deadline),
        );
        self.now(cpu) - t0
    }

    /// The guest sends a fixed IPI to another of its vCPUs (the
    /// SendIPI microbenchmark measures send + receive with an idle
    /// destination). Returns `(sender_elapsed, receive_completion)` —
    /// the latter is the destination CPU's clock when the interrupt is
    /// visible there.
    pub fn guest_send_ipi(&mut self, cpu: usize, dest: usize, vector: u8) -> (Cycles, Cycles) {
        assert!(dest < self.num_cpus(), "IPI destination out of range");
        let t0 = self.now(cpu);
        let icr = IcrValue::fixed(vector, dest as u32);
        self.vmexit(
            self.leaf_level(),
            cpu,
            ExitReason::MsrWrite,
            ExitQualification::msr_write(msr::IA32_X2APIC_ICR, icr.encode()),
        );
        (self.now(cpu) - t0, self.now(dest))
    }

    /// The guest executes `hlt`: the vCPU blocks through however many
    /// hypervisor levels are configured to intercept idle (§3.4).
    ///
    /// With [`crate::World::poll_idle`] set, the guest busy-polls
    /// instead: no exit at all, instant wake — but every waiting cycle
    /// is burned on the physical CPU (accounted in
    /// `stats.burned_idle_cycles` when the wake event arrives).
    pub fn guest_hlt(&mut self, cpu: usize) {
        if self.poll_idle {
            self.set_polling(cpu);
            return;
        }
        self.vmexit(
            self.leaf_level(),
            cpu,
            ExitReason::Hlt,
            ExitQualification::default(),
        );
    }

    /// Native-speed guest computation (never traps).
    pub fn guest_compute(&mut self, cpu: usize, c: Cycles) {
        self.compute(cpu, c);
    }

    /// Convenience for benchmarks: the full SendIPI round as Table 1
    /// defines it — destination is idle, wakes, and receives. Returns
    /// total latency from the sender's ICR write to receive completion.
    pub fn send_ipi_to_idle(&mut self, cpu: usize, dest: usize) -> Cycles {
        // Ensure the destination is idle.
        if !self.is_halted(dest) {
            self.guest_hlt(dest);
        }
        // The destination halted at some time; the send starts now.
        let t0 = self.now(cpu).max(self.now(dest));
        self.sync_cpu(cpu, t0);
        let (_, delivered) = self.guest_send_ipi(cpu, dest, 0xED);
        delivered - t0
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
    fn l1_hypercall_hits_calibration_target() {
        let mut w = world(1);
        let c = w.guest_hypercall(0);
        // Paper Table 3, VM column: 1,575 cycles. Calibration must be
        // within a tight band.
        let c = c.as_u64();
        assert!((1_400..=1_800).contains(&c), "L1 hypercall cost {c}");
    }

    #[test]
    fn nested_hypercall_multiplies() {
        let mut w1 = world(1);
        let c1 = w1.guest_hypercall(0).as_u64();
        let mut w2 = world(2);
        let c2 = w2.guest_hypercall(0).as_u64();
        assert!(
            c2 > 10 * c1,
            "exit multiplication should make L2 ({c2}) >> L1 ({c1})"
        );
    }

    #[test]
    fn l3_hypercall_multiplies_again() {
        let mut w2 = world(2);
        let c2 = w2.guest_hypercall(0).as_u64();
        let mut w3 = world(3);
        let c3 = w3.guest_hypercall(0).as_u64();
        assert!(
            c3 > 10 * c2,
            "L3 ({c3}) should be an order of magnitude above L2 ({c2})"
        );
    }

    #[test]
    fn hypercall_always_reaches_guest_hypervisor() {
        // DVH cannot help hypercalls (§4): they are the guest
        // hypervisor's business by definition.
        let mut w = world(2);
        w.guest_hypercall(0);
        assert!(w.stats.total_interventions() > 0);
    }

    #[test]
    fn timer_program_costs_more_nested() {
        let mut w1 = world(1);
        let c1 = w1.guest_program_timer(0, 1000).as_u64();
        assert!((1_700..=2_400).contains(&c1), "L1 timer cost {c1}");
        let mut w2 = world(2);
        let c2 = w2.guest_program_timer(0, 1000).as_u64();
        assert!(c2 > 10 * c1, "L2 timer {c2} vs L1 {c1}");
    }

    #[test]
    fn guest_timer_deadline_survives_guest_hypervisor_rearms() {
        // Every guest hypervisor re-arms its own hrtimer (a trapped
        // TSC_DEADLINE write of u64::MAX) on its way back into the
        // leaf; only the leaf's write may program the leaf's timer.
        for levels in 1..=3 {
            let mut w = world(levels);
            w.guest_program_timer(0, 1_000);
            assert_eq!(w.timers[0].deadline, Some(1_000), "L{levels}");
        }
    }

    #[test]
    fn send_ipi_to_idle_destination() {
        let mut w = world(1);
        let total = w.send_ipi_to_idle(0, 1).as_u64();
        assert!((2_500..=4_200).contains(&total), "L1 SendIPI {total}");
    }

    #[test]
    fn guest_compute_never_exits() {
        let mut w = world(3);
        w.guest_compute(0, Cycles::new(1_000_000));
        assert_eq!(w.stats.total_exits(), 0);
        assert_eq!(w.now(0), Cycles::new(1_000_000));
    }
}
