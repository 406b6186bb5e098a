//! VM-entry consistency checking: the runtime half of `dvh-checker`.
//!
//! Real hardware validates a VMCS at every VM entry (Intel SDM Vol. 3
//! §26) and refuses inconsistent entries. The simulator models entries
//! as cycle charges, so the equivalent is a *check hook*: every path
//! that simulates a VM entry funnels through [`World::l0_vmentry`] (for
//! L0's native entries) or `World::on_vmentry` (for emulated nested
//! entries), and when checking is enabled each entered VMCS is run
//! through [`dvh_arch::vmx::validate::validate_vmentry`].
//!
//! Checking is off by default and costs one branch per entry. Enable
//! it with [`World::enable_vmentry_checks`]; [`World::take_vmentry_findings`]
//! drains the collected findings together with a static sweep of the
//! whole hierarchy.

use crate::world::World;
use dvh_arch::vmx::validate::{validate_vmentry, VmentryViolation};
use std::collections::BTreeSet;
use std::fmt;

/// A VM-entry consistency violation, located in the VMCS hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmentryFinding {
    /// The hypervisor level owning the offending VMCS (`vmcs[level]`
    /// controls the VM at `level + 1`).
    pub level: usize,
    /// The vCPU whose VMCS is inconsistent.
    pub cpu: usize,
    /// The rule that fired, with the field encoding at fault.
    pub violation: VmentryViolation,
}

impl fmt::Display for VmentryFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{} cpu{}: {}", self.level, self.cpu, self.violation)
    }
}

impl World {
    /// Turns on VM-entry consistency checking for every subsequent
    /// simulated entry.
    pub fn enable_vmentry_checks(&mut self) {
        self.vmentry_checks = true;
    }

    /// The VM-entry pass over this world: a static sweep of every VMCS
    /// in the hierarchy, as hardware would validate it at the next
    /// entry, then the findings collected while entries ran with
    /// checking on (drained). The same broken field seen at every entry
    /// is reported once per (level, cpu, rule, field).
    pub fn take_vmentry_findings(&mut self) -> Vec<VmentryFinding> {
        let (levels, cpus) = (self.config.levels, self.config.leaf_vcpus);
        let sweep = (0..levels).flat_map(|level| (0..cpus).map(move |cpu| (level, cpu)));
        let mut findings: Vec<_> = sweep.flat_map(|(l, c)| self.findings_at(l, c)).collect();
        findings.append(&mut self.vmentry_findings);
        let mut seen = BTreeSet::new();
        findings.retain(|f| seen.insert((f.level, f.cpu, f.violation.rule, f.violation.field)));
        findings
    }

    /// What entering the VMCS owned by `level` on `cpu` would violate.
    fn findings_at(&self, level: usize, cpu: usize) -> impl Iterator<Item = VmentryFinding> {
        let violations = validate_vmentry(self.vmcs(level, cpu), self.dvh_advertised);
        violations.into_iter().map(move |violation| VmentryFinding {
            level,
            cpu,
            violation,
        })
    }

    /// A simulated VM entry into the VMCS owned by `level` on `cpu`:
    /// validates the entered VMCS when checking is enabled. The
    /// disabled path — every entry of a production run — is a single
    /// inlined branch; validation itself stays out of line so it does
    /// not bloat the exit engine's hot loop.
    #[inline(always)]
    pub(crate) fn on_vmentry(&mut self, level: usize, cpu: usize) {
        if !self.vmentry_checks {
            return;
        }
        self.validate_entry(level, cpu);
    }

    /// Out-of-line checking-enabled path of [`World::on_vmentry`].
    #[inline(never)]
    fn validate_entry(&mut self, level: usize, cpu: usize) {
        let found = self.findings_at(level, cpu);
        self.vmentry_findings.extend(found);
    }

    /// L0's native VM entry on `cpu`: charges the entry cost and (when
    /// enabled) validates vmcs01. Every simulated entry from root mode
    /// goes through here instead of charging `vmentry_from_root` raw,
    /// so the consistency checker sees them all.
    pub fn l0_vmentry(&mut self, cpu: usize) {
        self.compute(cpu, self.costs.vmentry_from_root);
        self.on_vmentry(0, cpu);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorldConfig;
    use dvh_arch::costs::CostModel;
    use dvh_arch::vmx::field;

    #[test]
    fn default_worlds_are_consistent() {
        for levels in 1..=4 {
            let mut w = World::new(CostModel::calibrated(), WorldConfig::baseline(levels));
            assert!(
                w.take_vmentry_findings().is_empty(),
                "baseline({levels}) hierarchy inconsistent"
            );
            let mut w = World::new(CostModel::calibrated(), WorldConfig::dvh(levels));
            assert!(w.take_vmentry_findings().is_empty());
        }
    }

    /// Breaks `field` of the VMCS owned by `level` on cpu 0, runs a
    /// hypercall, and restores the field, so that only what the entries
    /// themselves saw can be reported.
    fn hypercall_with_broken(w: &mut World, level: usize, field: u32) {
        let saved = w.vmcs(level, 0).read(field);
        w.vmcs_mut(level, 0).write(field, 0);
        w.guest_hypercall(0);
        w.vmcs_mut(level, 0).write(field, saved);
    }

    #[test]
    fn checks_off_by_default_and_free() {
        let mut w = World::new(CostModel::calibrated(), WorldConfig::baseline(2));
        hypercall_with_broken(&mut w, 0, field::EPT_POINTER);
        assert!(w.take_vmentry_findings().is_empty());
    }

    #[test]
    fn workload_under_checks_is_clean() {
        let mut w = World::new(CostModel::calibrated(), WorldConfig::baseline(3));
        w.enable_vmentry_checks();
        w.guest_hypercall(0);
        w.guest_program_timer(0, 1_000_000);
        assert!(w.take_vmentry_findings().is_empty());
    }

    #[test]
    fn tampered_ept_pointer_is_caught_at_entry() {
        let mut w = World::new(CostModel::calibrated(), WorldConfig::baseline(2));
        w.enable_vmentry_checks();
        hypercall_with_broken(&mut w, 0, field::EPT_POINTER);
        let findings = w.take_vmentry_findings();
        assert!(!findings.is_empty());
        let f = &findings[0];
        assert_eq!((f.level, f.cpu), (0, 0));
        assert_eq!(f.violation.rule, "ept-pointer");
        assert!(f.to_string().contains("L0 cpu0"));
    }

    #[test]
    fn nested_entry_validates_guest_hypervisor_vmcs() {
        // Tamper with vmcs11 (L1's VMCS for L2): the violation must be
        // attributed to level 1, caught when L1's vmresume is emulated.
        let mut w = World::new(CostModel::calibrated(), WorldConfig::baseline(2));
        w.enable_vmentry_checks();
        hypercall_with_broken(&mut w, 1, field::EPT_POINTER);
        let findings = w.take_vmentry_findings();
        assert!(findings.iter().any(|f| f.level == 1));
    }

    #[test]
    fn unadvertised_dvh_control_is_caught() {
        use dvh_arch::vmx::ctrl;
        let mut w = World::new(CostModel::calibrated(), WorldConfig::baseline(2));
        w.dvh_advertised = 0;
        w.enable_vmentry_checks();
        w.vmcs_mut(0, 0)
            .set_bits(field::DVH_EXEC_CONTROLS, ctrl::dvh::VIRTUAL_TIMER);
        w.guest_hypercall(0);
        let findings = w.take_vmentry_findings();
        assert!(findings
            .iter()
            .any(|f| f.violation.rule == "dvh-capability"));
    }
}
