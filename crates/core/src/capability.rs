//! DVH capability discovery and recursive enablement (§3.2, §3.5).
//!
//! Virtual hardware is advertised like real hardware: through
//! capability bits in a VMX capability MSR
//! ([`dvh_arch::msr::IA32_VMX_DVH_CAP`]) and enabled per VM through
//! bits in a DVH execution-control VMCS field. For more than two
//! levels, §3.5's rule applies: a hypervisor enables a virtual-hardware
//! feature for its nested VM **only if every deeper hypervisor enabled
//! it too** — the enable bits of all guest hypervisors AND together.

use dvh_arch::vmx::{ctrl, field};
use dvh_hypervisor::World;

/// Per-hypervisor enablement policy for one DVH feature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// This hypervisor wants the feature for its nested VM.
    Enable,
    /// This hypervisor declines the feature.
    Disable,
}

/// Applies the recursive enable rule for the feature controlled by
/// `control_bit`, given each guest hypervisor's `policy` (index 0 is
/// the L1 hypervisor). Returns the effective (ANDed) enable as seen by
/// the host hypervisor.
///
/// Following §3.5: "the enable bits of all guest hypervisors are
/// combined using an and operation into the single enable bit that the
/// L1 hypervisor sets" — concretely, hypervisor k sets the bit in its
/// VMCS only if its own policy says enable *and* the hypervisor above
/// it (k+1) set its bit.
pub fn apply_recursive_enable(w: &mut World, control_bit: u64, policies: &[Policy]) -> bool {
    let levels = w.config.levels;
    assert!(
        policies.len() + 1 >= levels,
        "need a policy for each guest hypervisor (levels 1..{})",
        levels
    );
    // Walk from the deepest guest hypervisor (level levels-1) down to
    // L1, propagating the AND.
    let mut enabled_above = true;
    for k in (1..levels).rev() {
        let this = policies[k - 1] == Policy::Enable && enabled_above;
        for cpu in 0..w.num_cpus() {
            if this {
                w.vmcs_mut(k, cpu)
                    .set_bits(field::DVH_EXEC_CONTROLS, control_bit);
            } else {
                w.vmcs_mut(k, cpu)
                    .clear_bits(field::DVH_EXEC_CONTROLS, control_bit);
            }
        }
        enabled_above = this;
    }
    enabled_above && levels >= 2
}

/// Whether the feature controlled by `control_bit` is effectively
/// enabled for an exit from `from_level` on `cpu`: every guest
/// hypervisor between L1 and the exiting VM must have set its bit.
pub fn effectively_enabled(w: &World, from_level: usize, cpu: usize, control_bit: u64) -> bool {
    if from_level < 2 {
        return false;
    }
    (1..from_level).all(|k| {
        w.vmcs(k, cpu)
            .has_bits(field::DVH_EXEC_CONTROLS, control_bit)
    })
}

/// Convenience: enable a feature at every guest hypervisor (the common
/// "everyone cooperates" configuration the paper benchmarks).
pub fn enable_everywhere(w: &mut World, control_bit: u64) {
    let n = w.config.levels.max(1);
    let policies = vec![Policy::Enable; n.saturating_sub(1).max(1)];
    apply_recursive_enable(w, control_bit, &policies);
}

/// Configures virtual idle (§3.4): every *guest* hypervisor stops
/// intercepting `hlt` for its VM; only L0 keeps intercepting. See
/// [`crate::vidle`] for the behavioural discussion.
pub fn enable_virtual_idle(w: &mut World) {
    let levels = w.config.levels;
    for k in 1..levels {
        for cpu in 0..w.num_cpus() {
            w.vmcs_mut(k, cpu)
                .clear_bits(field::CPU_BASED_EXEC_CONTROLS, ctrl::cpu::HLT_EXITING);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvh_arch::costs::CostModel;
    use dvh_arch::vmx::cap;
    use dvh_hypervisor::WorldConfig;

    fn world(levels: usize) -> World {
        World::new(CostModel::calibrated(), WorldConfig::baseline(levels))
    }

    #[test]
    fn capabilities_advertise_all_three_bits() {
        let c = world(2).dvh_advertised;
        assert_ne!(c & cap::VIRTUAL_TIMER, 0);
        assert_ne!(c & cap::VIRTUAL_IPI, 0);
        assert_ne!(c & cap::VCIMTAR, 0);
    }

    #[test]
    fn all_enable_yields_effective() {
        let mut w = world(3);
        let eff = apply_recursive_enable(
            &mut w,
            ctrl::dvh::VIRTUAL_TIMER,
            &[Policy::Enable, Policy::Enable],
        );
        assert!(eff);
        assert!(effectively_enabled(&w, 3, 0, ctrl::dvh::VIRTUAL_TIMER));
    }

    #[test]
    fn one_decliner_disables_the_chain_below() {
        // L1 enables, L2 declines: per §3.5 the AND is false, so the
        // L1 hypervisor must not set its bit either.
        let mut w = world(3);
        let eff = apply_recursive_enable(
            &mut w,
            ctrl::dvh::VIRTUAL_TIMER,
            &[Policy::Enable, Policy::Disable],
        );
        assert!(!eff);
        assert!(!effectively_enabled(&w, 3, 0, ctrl::dvh::VIRTUAL_TIMER));
        assert!(!w
            .vmcs(1, 0)
            .has_bits(field::DVH_EXEC_CONTROLS, ctrl::dvh::VIRTUAL_TIMER));
    }

    #[test]
    fn shallow_decliner_masks_deep_enabler() {
        let mut w = world(3);
        apply_recursive_enable(
            &mut w,
            ctrl::dvh::VIRTUAL_IPI,
            &[Policy::Disable, Policy::Enable],
        );
        // The deep hypervisor's bit can be set, but effectiveness for
        // the L3 VM requires the whole chain.
        assert!(!effectively_enabled(&w, 3, 0, ctrl::dvh::VIRTUAL_IPI));
    }

    #[test]
    fn single_level_never_effective() {
        let mut w = world(1);
        enable_everywhere(&mut w, ctrl::dvh::VIRTUAL_TIMER);
        assert!(!effectively_enabled(&w, 1, 0, ctrl::dvh::VIRTUAL_TIMER));
    }

    #[test]
    fn virtual_idle_clears_guest_hlt_intercepts_only() {
        let mut w = world(3);
        enable_virtual_idle(&mut w);
        // L0 keeps intercepting.
        assert!(w
            .vmcs(0, 0)
            .has_bits(field::CPU_BASED_EXEC_CONTROLS, ctrl::cpu::HLT_EXITING));
        for k in 1..3 {
            assert!(!w
                .vmcs(k, 0)
                .has_bits(field::CPU_BASED_EXEC_CONTROLS, ctrl::cpu::HLT_EXITING));
        }
    }
}
