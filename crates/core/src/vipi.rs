//! Virtual IPIs (§3.3): a virtual interrupt command register plus the
//! virtual CPU interrupt mapping table (VCIMT).
//!
//! Sending an IPI from a nested VM normally traps to the guest
//! hypervisor, which updates the destination's posted-interrupt
//! descriptor and asks the hardware — through *another* trapped ICR
//! write — to send the notification (the paper's Fig. 4). The host
//! hypervisor cannot short-circuit this on its own because it does not
//! know where the nested VM's virtual CPUs run.
//!
//! The VCIMT fixes exactly that: a per-VM table, maintained by the
//! guest hypervisor and advertised to the host through the VCIMTAR
//! register, mapping nested vCPU numbers to their PI descriptors
//! (which contain the physical destination). With it, L0 handles the
//! whole send side in one exit (Fig. 5).

use crate::capability::effectively_enabled;
use dvh_arch::apic::IcrValue;
use dvh_arch::msr;
use dvh_arch::vmx::{ctrl, field, ExitQualification, ExitReason};
use dvh_hypervisor::{Intercept, IrqPath, L0Extension, World};

/// The virtual CPU interrupt mapping table: nested vCPU number → PI
/// descriptor identifier (each PI descriptor names the physical CPU to
/// notify).
///
/// The table is a plain in-memory structure owned by the guest
/// hypervisor; the host reads it through the address programmed in
/// VCIMTAR. In the simulator we hold it directly and account the
/// memory-walk costs at lookup time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Vcimt {
    entries: Vec<Option<u32>>,
}

impl Vcimt {
    /// Creates an identity table for `vcpus` vCPUs (vCPU i's PI
    /// descriptor is descriptor i) — the pinned configuration the
    /// paper's evaluation uses.
    pub fn identity(vcpus: usize) -> Vcimt {
        Vcimt {
            entries: (0..vcpus as u32).map(Some).collect(),
        }
    }

    /// Creates an empty table with `vcpus` slots.
    pub fn new(vcpus: usize) -> Vcimt {
        Vcimt {
            entries: vec![None; vcpus],
        }
    }

    /// Sets the mapping for `vcpu`.
    pub fn set(&mut self, vcpu: usize, pi_desc: u32) {
        if vcpu >= self.entries.len() {
            self.entries.resize(vcpu + 1, None);
        }
        self.entries[vcpu] = Some(pi_desc);
    }

    /// Looks up the PI descriptor for `vcpu`.
    pub fn lookup(&self, vcpu: usize) -> Option<u32> {
        self.entries.get(vcpu).copied().flatten()
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table has no slots.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The virtual-IPI L0 extension.
#[derive(Debug, Default)]
pub struct VirtualIpis {
    /// The mapping table shared by the guest hypervisor (VCIMTAR).
    pub vcimt: Vcimt,
}

impl VirtualIpis {
    /// Creates the extension with the identity table for `vcpus`.
    pub fn new(vcpus: usize) -> VirtualIpis {
        VirtualIpis {
            vcimt: Vcimt::identity(vcpus),
        }
    }
}

impl L0Extension for VirtualIpis {
    fn name(&self) -> &'static str {
        "vipi"
    }

    fn try_intercept(
        &mut self,
        w: &mut World,
        cpu: usize,
        from_level: usize,
        reason: ExitReason,
        qual: &ExitQualification,
    ) -> Intercept {
        if reason != ExitReason::MsrWrite || qual.msr != msr::IA32_X2APIC_ICR {
            return Intercept::NotHandled;
        }
        if from_level != w.leaf_level()
            || !effectively_enabled(w, from_level, cpu, ctrl::dvh::VIRTUAL_IPI)
        {
            return Intercept::NotHandled;
        }
        let icr = IcrValue::decode(qual.msr_value);
        // The host can only resolve the destination if the guest
        // hypervisor programmed the VCIMT for it.
        let Some(pi_desc) = self.vcimt.lookup(icr.dest as usize) else {
            return Intercept::NotHandled;
        };

        // Confirm enablement (native vmread of merged controls) and
        // read the VCIMTAR + table entry (guest-memory walks, Fig. 5
        // step 2).
        w.hv_vmread(0, cpu, field::DVH_EXEC_CONTROLS);
        w.hv_vmread(0, cpu, field::DVH_VCIMTAR);
        w.compute(cpu, w.costs().walk_mem_ref * 3);
        w.compute(cpu, dvh_arch::Cycles::new(800)); // DVH bookkeeping

        // Emulate the ICR write: update the PI descriptor named by the
        // table and notify its physical CPU.
        w.compute(cpu, w.costs().icr_emulate);
        w.compute(cpu, w.costs().pi_desc_update);
        let dest_cpu = w.pi_desc[pi_desc as usize].ndst as usize;
        w.compute(cpu, w.costs().ipi_send);
        let t = w.now(cpu);
        w.deliver_leaf_interrupt(dest_cpu, icr.vector, t, IrqPath::PostedDirect);

        // Advance RIP and re-enter the nested VM.
        w.hv_vmwrite(0, cpu, field::GUEST_RIP, 0);
        w.l0_vmentry(cpu);
        Intercept::Handled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capability::{enable_everywhere, enable_virtual_idle};
    use dvh_arch::costs::CostModel;
    use dvh_hypervisor::WorldConfig;

    fn dvh_world(levels: usize) -> World {
        let mut w = World::new(CostModel::calibrated(), WorldConfig::baseline(levels));
        enable_everywhere(&mut w, ctrl::dvh::VIRTUAL_IPI);
        enable_virtual_idle(&mut w);
        let vcpus = w.num_cpus();
        w.register_extension(Box::new(VirtualIpis::new(vcpus)));
        w
    }

    #[test]
    fn nested_ipi_send_is_cheap_and_intervention_free() {
        let mut w = dvh_world(2);
        let c = w.send_ipi_to_idle(0, 1).as_u64();
        assert!((4_200..=6_200).contains(&c), "DVH L2 SendIPI {c}");
        assert_eq!(w.stats.total_interventions(), 0);
        assert_eq!(w.stats.dvh_intercepts.get("vipi"), Some(&1));
    }

    #[test]
    fn dvh_ipi_cost_is_level_invariant() {
        let mut w2 = dvh_world(2);
        let c2 = w2.send_ipi_to_idle(0, 1).as_u64();
        let mut w3 = dvh_world(3);
        let c3 = w3.send_ipi_to_idle(0, 1).as_u64();
        assert!(c3.abs_diff(c2) * 10 <= c2, "L2={c2} L3={c3}");
    }

    #[test]
    fn vcimt_indirection_is_honoured() {
        // Map nested vCPU 1 to PI descriptor 2 (physical CPU 2): the
        // IPI must land on CPU 2, not CPU 1.
        let mut w = World::new(CostModel::calibrated(), WorldConfig::baseline(2));
        enable_everywhere(&mut w, ctrl::dvh::VIRTUAL_IPI);
        let mut ext = VirtualIpis::new(w.num_cpus());
        ext.vcimt.set(1, 2);
        w.register_extension(Box::new(ext));
        let before_cpu2 = w.now(2);
        w.guest_send_ipi(0, 1, 0x55);
        assert!(w.now(2) > before_cpu2, "cpu2 should have received work");
    }

    #[test]
    fn missing_vcimt_entry_falls_back_to_guest_hypervisor() {
        let mut w = World::new(CostModel::calibrated(), WorldConfig::baseline(2));
        enable_everywhere(&mut w, ctrl::dvh::VIRTUAL_IPI);
        let mut ext = VirtualIpis::new(0);
        ext.vcimt = Vcimt::new(0); // nothing mapped
        w.register_extension(Box::new(ext));
        w.guest_send_ipi(0, 1, 0x55);
        assert!(w.stats.total_interventions() > 0);
    }

    #[test]
    fn vcimt_table_ops() {
        let mut t = Vcimt::new(2);
        assert_eq!(t.lookup(0), None);
        t.set(0, 7);
        t.set(5, 9); // grows
        assert_eq!(t.lookup(0), Some(7));
        assert_eq!(t.lookup(5), Some(9));
        assert_eq!(t.len(), 6);
        assert!(!t.is_empty());
    }
}
