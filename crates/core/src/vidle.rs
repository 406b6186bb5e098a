//! Virtual idle (§3.4): nested VMs enter and leave low-power mode with
//! only host-hypervisor involvement.
//!
//! Unlike the other mechanisms, virtual idle needs **no new virtual
//! hardware**: it re-uses the architectural ability to configure
//! whether `hlt` traps. The host hypervisor keeps intercepting `hlt`;
//! every guest hypervisor stops. When a nested VM halts, the exit
//! reaches L0, L0 checks the guest hypervisor's VMCS configuration
//! (which it can read, §3.2), sees `hlt` is not intercepted above it,
//! and simply blocks the vCPU itself — waking it directly on the next
//! event. The configuration half lives in
//! [`crate::capability::enable_virtual_idle`]; the architectural
//! reflect-policy half is ordinary nested-virtualization behaviour in
//! the substrate hypervisor.
//!
//! Unlike disabling `hlt` exits everywhere or `idle=poll`, the CPU
//! really halts: cycles are *saved*, not burned.
//!
//! §3.4 enables virtual idle only when the guest hypervisor has no
//! other runnable nested VM on the vCPU, since it could otherwise
//! schedule that VM on idle. Every simulated vCPU runs exactly one
//! nested VM, so `Machine::build` always enables it.

use dvh_hypervisor::World;

/// Measures the halt-to-wake latency for the leaf VM on `cpu`: the
/// vCPU halts, an event arrives immediately, and the vCPU resumes.
/// Returns elapsed cycles on `cpu`.
pub fn halt_wake_round_trip(w: &mut World, cpu: usize) -> dvh_arch::Cycles {
    let t0 = w.now(cpu);
    w.guest_hlt(cpu);
    let t = w.now(cpu);
    w.deliver_leaf_interrupt(cpu, 0x60, t, dvh_hypervisor::IrqPath::PostedDirect);
    w.now(cpu) - t0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capability::enable_virtual_idle;
    use dvh_arch::costs::CostModel;
    use dvh_hypervisor::{World, WorldConfig};

    #[test]
    fn virtual_idle_keeps_halts_at_l0() {
        let mut w = World::new(CostModel::calibrated(), WorldConfig::baseline(3));
        enable_virtual_idle(&mut w);
        w.guest_hlt(0);
        // The halt chain must be exactly [0]: no guest hypervisor
        // blocked anything.
        assert_eq!(w.halt_chain(0).unwrap(), &[0]);
        assert_eq!(w.stats.total_interventions(), 0);
    }

    #[test]
    fn vanilla_nested_idle_is_much_slower() {
        let mut vanilla = World::new(CostModel::calibrated(), WorldConfig::baseline(2));
        let slow = halt_wake_round_trip(&mut vanilla, 0);

        let mut vidle = World::new(CostModel::calibrated(), WorldConfig::baseline(2));
        enable_virtual_idle(&mut vidle);
        let fast = halt_wake_round_trip(&mut vidle, 0);
        assert!(
            slow.as_u64() > 5 * fast.as_u64(),
            "vanilla {slow} vs virtual idle {fast}"
        );
    }

    #[test]
    fn virtual_idle_round_trip_close_to_l1() {
        let mut l1 = World::new(CostModel::calibrated(), WorldConfig::baseline(1));
        let base = halt_wake_round_trip(&mut l1, 0).as_u64();

        let mut w = World::new(CostModel::calibrated(), WorldConfig::baseline(3));
        enable_virtual_idle(&mut w);
        let nested = halt_wake_round_trip(&mut w, 0).as_u64();
        assert!(
            nested <= base + base / 2,
            "L3 with virtual idle ({nested}) should be near L1 ({base})"
        );
    }

    #[test]
    fn idle_cycles_are_recorded_not_burned() {
        let mut w = World::new(CostModel::calibrated(), WorldConfig::baseline(2));
        enable_virtual_idle(&mut w);
        w.guest_hlt(0);
        let halted_at = w.now(0);
        // Event arrives much later on another CPU's timeline.
        let later = halted_at + dvh_arch::Cycles::new(1_000_000);
        w.deliver_leaf_interrupt(0, 0x60, later, dvh_hypervisor::IrqPath::PostedDirect);
        assert!(w.stats.idle_cycles.as_u64() >= 1_000_000);
    }

    #[test]
    fn polling_wakes_instantly_but_burns_the_wait() {
        // §3.4: "those options simply consume and waste physical CPU
        // cycles when the nested VM does nothing. Using virtual idle,
        // the host hypervisor only runs the nested VM when it has jobs
        // to run."
        let wait = dvh_arch::Cycles::new(2_000_000);

        let mut poll = World::new(CostModel::calibrated(), WorldConfig::baseline(2));
        poll.poll_idle = true;
        poll.guest_hlt(0);
        assert!(poll.is_polling(0));
        let t = poll.now(0) + wait;
        poll.deliver_leaf_interrupt(0, 0x33, t, dvh_hypervisor::IrqPath::PostedDirect);
        assert!(poll.stats.burned_idle_cycles >= wait);
        assert_eq!(poll.stats.idle_cycles.as_u64(), 0);
        assert_eq!(poll.stats.total_exits(), 0, "polling never exits");

        let mut vidle = World::new(CostModel::calibrated(), WorldConfig::baseline(2));
        enable_virtual_idle(&mut vidle);
        vidle.guest_hlt(0);
        let t = vidle.now(0) + wait;
        vidle.deliver_leaf_interrupt(0, 0x33, t, dvh_hypervisor::IrqPath::PostedDirect);
        assert!(
            vidle.stats.idle_cycles >= wait,
            "the wait was saved, not burned"
        );
        assert_eq!(vidle.stats.burned_idle_cycles.as_u64(), 0);
    }
}
