//! Virtual timers (§3.2): per-vCPU LAPIC timers provided by the host
//! hypervisor directly to nested VMs.
//!
//! Without DVH, a nested VM programming its TSC-deadline timer exits,
//! is reflected to its guest hypervisor, whose hrtimer machinery arms
//! *its* timer with another trapped `wrmsr`, and so on — Table 3's
//! 43,359-cycle ProgramTimer at L2. With virtual timers, L0 sees the
//! exit, confirms the virtual timer is enabled in the (merged) VMCS
//! controls, combines the TSC offsets it already tracks, and programs
//! its own hrtimer: one inexpensive exit, no guest hypervisor
//! intervention, at any nesting depth.

use crate::capability::effectively_enabled;
use dvh_arch::msr;
use dvh_arch::vmx::{ctrl, field, ExitQualification, ExitReason};
use dvh_hypervisor::{Intercept, L0Extension, World};

/// The virtual-timer L0 extension.
///
/// Registered on the [`World`] by [`crate::machine::Machine`] when
/// `DvhFlags::virtual_timers` is set; the guest-side enablement (the
/// capability/control bits) is configured via
/// [`crate::capability::apply_recursive_enable`].
#[derive(Debug, Default)]
pub struct VirtualTimers;

impl VirtualTimers {
    /// Creates the extension.
    pub fn new() -> VirtualTimers {
        VirtualTimers
    }
}

impl L0Extension for VirtualTimers {
    fn name(&self) -> &'static str {
        "vtimer"
    }

    fn try_intercept(
        &mut self,
        w: &mut World,
        cpu: usize,
        from_level: usize,
        reason: ExitReason,
        qual: &ExitQualification,
    ) -> Intercept {
        if reason != ExitReason::MsrWrite || qual.msr != msr::IA32_TSC_DEADLINE {
            return Intercept::NotHandled;
        }
        if from_level != w.leaf_level() {
            return Intercept::NotHandled;
        }
        if !effectively_enabled(w, from_level, cpu, ctrl::dvh::VIRTUAL_TIMER) {
            // §3.5 partial enablement: "the Lk hypervisor will forward
            // the Ln VM timer access to the Lk+1 hypervisor
            // recursively, where k starts from 0, until a hypervisor
            // Li finds a hypervisor Li+1 with the enable bit set, or
            // control reaches the Ln-1 hypervisor" — i.e. the access
            // is reflected only as far as the hypervisor just below
            // the first disabled level, not all the way to Ln-1.
            // Handler = Li where Li+1 is the first hypervisor (walking
            // up from L1) with the enable bit set; if none has it,
            // control reaches Ln-1 (ordinary full reflection).
            let handler = (1..from_level)
                .find(|&k| {
                    w.vmcs(k, cpu)
                        .has_bits(field::DVH_EXEC_CONTROLS, ctrl::dvh::VIRTUAL_TIMER)
                })
                .map(|k| k - 1)
                .unwrap_or(from_level - 1);
            if handler >= 1 && handler < from_level - 1 {
                // Claim the exit and forward it the short way: the
                // handler emulates the timer for the nested VM using
                // the virtual timer the chain below provides it.
                w.reflect_to(handler, from_level, cpu, ExitReason::MsrWrite, *qual);
                return Intercept::Handled;
            }
            return Intercept::NotHandled;
        }

        // Confirm the enable bit in the merged execution controls
        // (one native vmread) and locate the nested state in memory.
        w.hv_vmread(0, cpu, field::DVH_EXEC_CONTROLS);
        w.compute(cpu, w.costs().walk_mem_ref); // vmcs12 lookup

        // Account for the time-base difference: the combined TSC
        // offset is already maintained in the VMCS for the nested VM
        // (§3.2), so this is arithmetic, not more vmreads.
        w.compute(cpu, w.costs().rdtsc);
        let offset = w.combined_tsc_offset(from_level - 1, cpu);
        w.compute(cpu, dvh_arch::Cycles::new(100));

        // Record the guest-programmed deadline in the virtual timer
        // and the vector for direct posted delivery later.
        let deadline = qual.msr_value.wrapping_add(offset);
        w.vmcs_mut(from_level - 1, cpu)
            .write(field::DVH_VTIMER_DEADLINE, deadline);
        w.timers[cpu].arm(qual.msr_value);
        w.compute(cpu, w.costs().walk_mem_ref); // fetch programmed vector
        w.compute(cpu, w.costs().pi_desc_update); // set up direct delivery

        // Program the emulation backend (hrtimer) and the hardware.
        w.compute(cpu, w.costs().hrtimer_program);
        w.hv_wrmsr(0, cpu, msr::IA32_TSC_DEADLINE, deadline);
        w.compute(cpu, dvh_arch::Cycles::new(400)); // DVH bookkeeping

        // Advance RIP and re-enter the nested VM directly.
        w.hv_vmwrite(0, cpu, field::GUEST_RIP, 0);
        w.l0_vmentry(cpu);
        Intercept::Handled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capability::enable_everywhere;
    use dvh_arch::costs::CostModel;
    use dvh_hypervisor::WorldConfig;

    fn dvh_world(levels: usize) -> World {
        let mut w = World::new(CostModel::calibrated(), WorldConfig::baseline(levels));
        enable_everywhere(&mut w, ctrl::dvh::VIRTUAL_TIMER);
        w.register_extension(Box::new(VirtualTimers::new()));
        w
    }

    #[test]
    fn nested_timer_write_is_cheap_and_intervention_free() {
        let mut w = dvh_world(2);
        let c = w.guest_program_timer(0, 50_000).as_u64();
        assert!((2_800..=3_800).contains(&c), "DVH L2 timer cost {c}");
        assert_eq!(w.stats.total_interventions(), 0);
        assert_eq!(w.stats.dvh_intercepts.get("vtimer"), Some(&1));
    }

    #[test]
    fn dvh_timer_cost_is_level_invariant() {
        let mut w2 = dvh_world(2);
        let c2 = w2.guest_program_timer(0, 1).as_u64();
        let mut w3 = dvh_world(3);
        let c3 = w3.guest_program_timer(0, 1).as_u64();
        let diff = c3.abs_diff(c2);
        assert!(
            diff * 10 <= c2,
            "DVH removes level dependence: L2={c2}, L3={c3}"
        );
    }

    #[test]
    fn disabled_chain_falls_back_to_reflection() {
        let mut w = World::new(CostModel::calibrated(), WorldConfig::baseline(2));
        w.register_extension(Box::new(VirtualTimers::new()));
        // No enable bits set: the extension must decline.
        let c = w.guest_program_timer(0, 1).as_u64();
        assert!(c > 30_000, "without enablement cost stays nested: {c}");
        assert!(w.stats.total_interventions() > 0);
    }

    #[test]
    fn timer_state_is_recorded_with_combined_offset() {
        let mut w = dvh_world(2);
        w.guest_program_timer(0, 5_000);
        assert_eq!(w.timers[0].deadline, Some(5_000));
        let expect = 5_000 + w.combined_tsc_offset(1, 0);
        assert_eq!(w.vmcs(1, 0).read(field::DVH_VTIMER_DEADLINE), expect);
    }

    #[test]
    fn partial_enablement_forwards_the_short_way() {
        // 4 levels; the L1 hypervisor declines virtual timers but L2
        // and L3 enable them. §3.5: the leaf's timer access is
        // forwarded only to L1 (the hypervisor below the first
        // disabled level is L1 itself here: level 1 lacks the bit), so
        // cost sits between full DVH and full reflection.
        use crate::capability::{apply_recursive_enable, Policy};
        let mk = |policies: &[Policy]| {
            let mut w = World::new(CostModel::calibrated(), WorldConfig::baseline(4));
            apply_recursive_enable(&mut w, ctrl::dvh::VIRTUAL_TIMER, policies);
            w.register_extension(Box::new(VirtualTimers::new()));
            w
        };
        // All enabled: flat DVH cost.
        let mut full = mk(&[Policy::Enable, Policy::Enable, Policy::Enable]);
        let c_full = full.guest_program_timer(0, 1).as_u64();
        // None enabled: full reflection to L3.
        let mut none = mk(&[Policy::Disable, Policy::Disable, Policy::Disable]);
        let c_none = none.guest_program_timer(0, 1).as_u64();
        // L1 disabled, deeper hypervisors enabled: forwarded to L1
        // only — dramatically cheaper than reflecting to L3, but not
        // free.
        // Note apply_recursive_enable's AND rule clears shallower bits
        // when deeper ones are clear; set the partial pattern directly.
        let mut partial = mk(&[Policy::Enable, Policy::Enable, Policy::Enable]);
        for cpu in 0..partial.num_cpus() {
            partial
                .vmcs_mut(1, cpu)
                .clear_bits(field::DVH_EXEC_CONTROLS, ctrl::dvh::VIRTUAL_TIMER);
        }
        let c_partial = partial.guest_program_timer(0, 1).as_u64();
        assert!(c_full < c_partial, "full {c_full} < partial {c_partial}");
        assert!(
            c_partial < c_none / 10,
            "partial {c_partial} must be far below full reflection {c_none}"
        );
        assert_eq!(partial.stats.dvh_intercepts.get("vtimer"), Some(&1));
    }

    #[test]
    fn l1_timer_writes_are_not_intercepted() {
        // DVH provides no benefit for non-nested VMs (§3) and the
        // extension must not fire for them.
        let mut w = dvh_world(1);
        let c = w.guest_program_timer(0, 1).as_u64();
        assert!((1_700..=2_400).contains(&c));
        assert!(w.stats.dvh_intercepts.is_empty());
    }
}
