//! The exit engine: hardware exits, L0 dispatch, reflection to guest
//! hypervisors, and the emergent exit-multiplication recursion.
//!
//! Control flow follows the paper's Fig. 1a exactly:
//!
//! 1. Any privileged action by software at level k ≥ 1 causes a
//!    hardware exit that lands at L0 (single-level architectural
//!    support, §2).
//! 2. L0 either handles the exit itself (its own guest's exits, exits
//!    that architecturally belong to it, or DVH-intercepted exits —
//!    Fig. 1b) or *reflects* it to the owning guest hypervisor.
//! 3. A reflected exit makes the guest hypervisor run its exit handler
//!    as ordinary guest code — and every privileged instruction in
//!    that handler traps again, recursively. Nothing in this file
//!    knows "an L2 exit costs 24x an L1 exit"; that ratio emerges from
//!    the recursion.

use crate::config::IoModel;
use crate::summary::{Probe, Program};
use crate::world::World;
use dvh_arch::apic::IcrValue;
use dvh_arch::msr;
use dvh_arch::vmx::{ctrl, field, ExitQualification, ExitReason};

/// What the owner's reason handler wants done after it ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HandlerFlow {
    /// Resume the exiting guest (the common case).
    Resume,
    /// The vCPU blocked (HLT); do not resume.
    Halted,
}

impl World {
    /// A hardware VM exit from the guest at `from_level` on `cpu`,
    /// handled to completion: when this returns, all costs for the
    /// full round trip (including re-entry, or the halt) are charged.
    pub fn vmexit(
        &mut self,
        from_level: usize,
        cpu: usize,
        reason: ExitReason,
        qual: ExitQualification,
    ) {
        // Load-bearing in release builds too: a bad level would charge
        // cycles to a nonexistent layer and corrupt the attribution
        // ledger (checked by dvh-checker's cycle-conservation lint).
        assert!(
            from_level >= 1 && from_level <= self.leaf_level(),
            "vmexit from level {from_level} outside 1..={}",
            self.leaf_level()
        );
        // A guest hypervisor's trapped primitive: its subtree may be
        // memoized (see `summary.rs`). Leaf exits never are — their
        // handling depends on device, timer and interrupt state.
        if from_level >= 2
            && from_level < self.leaf_level()
            && self.summarized_exit(from_level, cpu, reason, &qual)
        {
            return;
        }
        self.vmexit_full(from_level, cpu, reason, qual);
    }

    /// Handles a guest-hypervisor primitive through its exit summary:
    /// applies it on a hit, or runs and records the full recursion on
    /// the first occurrence. Returns `false` when the exit must take
    /// the plain full recursion instead.
    #[inline(never)]
    fn summarized_exit(
        &mut self,
        from_level: usize,
        cpu: usize,
        reason: ExitReason,
        qual: &ExitQualification,
    ) -> bool {
        let t0 = self.now(cpu);
        let probe = self.summary_probe(from_level, cpu, reason, qual);
        if matches!(probe, Probe::Full) {
            return false;
        }
        self.run_probe(probe, cpu, |w| {
            w.vmexit_nested(from_level, cpu, reason, *qual)
        });
        // No trace or metrics can be on here (they bypass summaries),
        // so the ledger line is the whole attribution tail.
        if self.exit_depth[cpu] == 0 {
            let spent = self.now(cpu) - t0;
            self.stats.attribute_cycles(from_level, reason, spent);
        }
        true
    }

    /// The full recursion of one exit, with its attribution tail.
    fn vmexit_full(
        &mut self,
        from_level: usize,
        cpu: usize,
        reason: ExitReason,
        qual: ExitQualification,
    ) {
        let outermost = self.exit_depth[cpu] == 0;
        let t0 = if outermost { Some(self.now(cpu)) } else { None };
        self.vmexit_nested(from_level, cpu, reason, qual);
        if let Some(t0) = t0 {
            let spent = self.now(cpu) - t0;
            self.stats.attribute_cycles(from_level, reason, spent);
            // The metrics twin of the ledger line above; the checker's
            // metrics pass proves the two stay equal.
            self.observe(|m| m.observe_exit(from_level, reason, spent));
            self.trace(|w| crate::trace::TraceEvent::Completed {
                at: w.now(cpu),
                cpu,
                from_level,
                reason,
                spent,
            });
        } else {
            // A nested exit: close its interval so the causal tree of
            // the enclosing outermost exit can be rebuilt exactly.
            self.trace(|w| crate::trace::TraceEvent::Returned {
                at: w.now(cpu),
                cpu,
                from_level,
                reason,
            });
        }
    }

    /// Runs the handling of one exit one nesting level deeper.
    #[inline(always)]
    fn vmexit_nested(
        &mut self,
        from_level: usize,
        cpu: usize,
        reason: ExitReason,
        qual: ExitQualification,
    ) {
        self.exit_depth[cpu] += 1;
        self.vmexit_inner(from_level, cpu, reason, qual);
        self.exit_depth[cpu] -= 1;
    }

    fn vmexit_inner(
        &mut self,
        from_level: usize,
        cpu: usize,
        reason: ExitReason,
        qual: ExitQualification,
    ) {
        // Record the exit at the moment it occurs (before any cycles
        // are charged) so a Completed event's `spent` equals exactly
        // `completed.at - exit.at` for outermost exits.
        self.stats.record_exit(from_level, reason);
        let qual_field = qual.vmcs_field;
        self.trace(|w| crate::trace::TraceEvent::Exit {
            at: w.now(cpu),
            cpu,
            from_level,
            reason,
            vmcs_field: matches!(reason, ExitReason::Vmread | ExitReason::Vmwrite)
                .then_some(qual_field),
        });
        self.compute(cpu, self.costs.vmexit_to_root);
        self.compute(cpu, self.costs.l0_dispatch);

        // EPT violations are owned by whichever hypervisor's stage is
        // missing the page (encoded in the qualification by the fault
        // path), not necessarily the VM's immediate parent.
        if reason == ExitReason::EptViolation {
            let stage = qual.raw as usize;
            if stage == 0 || from_level == 1 {
                self.l0_handle(cpu, from_level, reason, &qual);
            } else {
                self.reflect_to(stage, from_level, cpu, reason, qual);
            }
            return;
        }
        // Exits from L0's own guest are always L0's business.
        if from_level == 1 {
            self.l0_handle(cpu, from_level, reason, &qual);
            return;
        }
        // Architectural rules that let L0 keep a nested exit.
        if self.l0_owns(cpu, from_level, reason, &qual) {
            self.l0_handle(cpu, from_level, reason, &qual);
            return;
        }
        // DVH extensions (virtual hardware) get the next chance. The
        // take/restore dance (needed so extensions can re-enter the
        // world) is skipped entirely when no extension is registered —
        // the common case for non-DVH configurations, on the hot path.
        if !self.extensions.is_empty() {
            let mut exts = std::mem::take(&mut self.extensions);
            let mut handled = None;
            for e in exts.iter_mut() {
                if e.try_intercept(self, cpu, from_level, reason, &qual)
                    == crate::extension::Intercept::Handled
                {
                    handled = Some(e.name());
                    break;
                }
            }
            self.extensions = exts;
            if let Some(name) = handled {
                self.taint_summaries();
                self.stats.record_dvh(name);
                self.observe(|m| m.record_dvh(name));
                self.trace(|w| crate::trace::TraceEvent::DvhIntercept {
                    at: w.now(cpu),
                    cpu,
                    mechanism: name,
                });
                return;
            }
        }
        // Otherwise: reflect to the guest hypervisor that owns the VM.
        self.reflect(from_level, cpu, reason, qual);
    }

    /// Architectural reasons for L0 to keep an exit from a nested VM,
    /// mirroring KVM's `nested_vmx_l0_wants_exit`.
    fn l0_owns(
        &self,
        cpu: usize,
        from_level: usize,
        reason: ExitReason,
        qual: &ExitQualification,
    ) -> bool {
        match reason {
            // External interrupts are always taken by the host.
            ExitReason::ExternalInterrupt => true,
            // HLT: reflected only if the guest hypervisor asked to
            // intercept it in its VMCS. Virtual idle (§3.4) works by
            // guest hypervisors *clearing* this bit.
            ExitReason::Hlt => !self
                .vmcs(from_level - 1, cpu)
                .has_bits(field::CPU_BASED_EXEC_CONTROLS, ctrl::cpu::HLT_EXITING),
            // MMIO to a region backed by an L0-owned device: under
            // virtual-passthrough the nested VM's doorbell writes land
            // on L0's virtio device, so L0 handles them directly —
            // this is the essence of Fig. 2c and needs no DVH-specific
            // hypervisor changes.
            ExitReason::EptMisconfig => {
                self.config.io_model == IoModel::VirtualPassthrough
                    && self.gpa_is_l0_device(qual.guest_physical)
            }
            _ => false,
        }
    }

    /// Whether `gpa` falls in the BAR of the L0-provided virtio device.
    pub(crate) fn gpa_is_l0_device(&self, gpa: u64) -> bool {
        let Some(bar) = self.virtio[0].pci().bar(0) else {
            return false;
        };
        gpa >= bar.base && gpa < bar.base + bar.len
    }

    // ---- L0 native handling ---------------------------------------------

    /// L0's native handler for an exit it owns, including the VM entry
    /// back into the guest.
    pub(crate) fn l0_handle(
        &mut self,
        cpu: usize,
        from_level: usize,
        reason: ExitReason,
        qual: &ExitQualification,
    ) {
        // Read the hot exit fields, natively.
        for f in [
            field::VM_EXIT_REASON,
            field::EXIT_QUALIFICATION,
            field::GUEST_RIP,
            field::VM_EXIT_INSTRUCTION_LEN,
        ] {
            self.hv_vmread(0, cpu, f);
        }
        let flow = match reason {
            ExitReason::Vmcall => {
                self.compute(cpu, self.costs.hypercall_body);
                HandlerFlow::Resume
            }
            ExitReason::MsrWrite => self.l0_wrmsr_body(cpu, from_level, qual),
            ExitReason::MsrRead => {
                self.compute(cpu, self.costs.vmx_insn_emulate);
                HandlerFlow::Resume
            }
            ExitReason::Hlt => {
                self.l0_halt_vcpu(cpu, from_level);
                HandlerFlow::Halted
            }
            ExitReason::EptViolation => {
                let leaf_pfn = qual.guest_physical >> 12;
                self.populate_stage(0, cpu, leaf_pfn);
                // The faulting instruction re-executes: enter without
                // advancing RIP.
                self.l0_vmentry(cpu);
                return;
            }
            ExitReason::EptMisconfig => {
                self.l0_doorbell(cpu, from_level, qual);
                HandlerFlow::Resume
            }
            ExitReason::Vmread | ExitReason::Vmwrite | ExitReason::Vmptrst => {
                // Emulate the VMX instruction for L1 against vmcs12 in
                // memory (the value movement itself is done by the
                // primitive that raised this exit).
                self.compute(cpu, self.costs.vmx_insn_emulate);
                HandlerFlow::Resume
            }
            ExitReason::Vmptrld | ExitReason::Vmclear => {
                self.compute(cpu, self.costs.vmx_insn_emulate);
                self.compute(cpu, self.costs.vmptrld);
                HandlerFlow::Resume
            }
            ExitReason::Invept | ExitReason::Invvpid => {
                self.compute(cpu, self.costs.vmx_insn_emulate);
                self.compute(cpu, self.costs.invept);
                HandlerFlow::Resume
            }
            ExitReason::Vmresume | ExitReason::Vmlaunch => {
                // Emulate the nested VM entry: merge vmcs12 into
                // vmcs02 and launch it (KVM's prepare_vmcs02).
                self.compute(cpu, self.costs.vmcs02_merge);
                for f in field::VMCS12_DIRTY_FIELDS {
                    let v = self.vmcs(from_level, cpu).read(*f);
                    self.hv_vmwrite_trap(0, cpu, *f, v);
                    self.vmcs_copy(0, from_level, cpu, *f);
                }
                // The merge is where hardware's VM-entry checks run on
                // the guest hypervisor's vmcs12.
                self.on_vmentry(from_level, cpu);
                self.hv_vmptrld(0, cpu);
                self.l0_vmentry(cpu);
                return; // entry is the resume; no RIP advance
            }
            ExitReason::ApicWrite | ExitReason::ApicAccess | ExitReason::EoiInduced => {
                self.compute(cpu, self.costs.pi_desc_update);
                HandlerFlow::Resume
            }
            ExitReason::ExternalInterrupt => {
                self.compute(cpu, self.costs.external_intr);
                HandlerFlow::Resume
            }
            _ => HandlerFlow::Resume,
        };
        if flow == HandlerFlow::Resume {
            self.hv_vmwrite_trap(0, cpu, field::GUEST_RIP, 0);
            self.vmcs_set(0, cpu, field::GUEST_RIP, 0);
            self.l0_vmentry(cpu);
        }
    }

    /// L0's `wrmsr` exit body, dispatching on the MSR.
    fn l0_wrmsr_body(
        &mut self,
        cpu: usize,
        from_level: usize,
        qual: &ExitQualification,
    ) -> HandlerFlow {
        match qual.msr {
            msr::IA32_TSC_DEADLINE => {
                // Emulate the LAPIC timer with an hrtimer, then arm
                // the hardware timer.
                self.compute(cpu, self.costs.rdtsc);
                self.compute(cpu, self.costs.hrtimer_program);
                self.hv_wrmsr(0, cpu, msr::IA32_TSC_DEADLINE, qual.msr_value);
                // Only the leaf's own deadline programs the emulated
                // LAPIC timer; a guest hypervisor's hrtimer re-arm that
                // L0 handles (from L1) must not clobber it.
                if from_level == self.leaf_level() {
                    self.arm_leaf_timer(cpu, qual.msr_value);
                }
            }
            msr::IA32_X2APIC_ICR => {
                // Send the IPI: update the destination's PI descriptor
                // and fire the physical notification.
                let icr = IcrValue::decode(qual.msr_value);
                self.compute(cpu, self.costs.icr_emulate);
                self.compute(cpu, self.costs.pi_desc_update);
                self.send_physical_ipi(cpu, icr);
            }
            _ => {
                self.compute(cpu, self.costs.vmx_insn_emulate);
            }
        }
        HandlerFlow::Resume
    }

    // ---- Reflection to guest hypervisors ---------------------------------

    /// Reflects an exit from `from_level` to its owning guest
    /// hypervisor at `from_level - 1`, running the full forwarding
    /// chain, the owner's handler, and the resume chain.
    fn reflect(
        &mut self,
        from_level: usize,
        cpu: usize,
        reason: ExitReason,
        qual: ExitQualification,
    ) {
        self.reflect_to(from_level - 1, from_level, cpu, reason, qual);
    }

    /// Reflects an exit to an explicit owning hypervisor — used for
    /// EPT violations (owned by whichever hypervisor's stage misses
    /// the page) and by DVH extensions implementing §3.5's partial
    /// recursive enablement, where a timer access is forwarded only as
    /// far as the first hypervisor below a disabled level.
    pub fn reflect_to(
        &mut self,
        owner: usize,
        from_level: usize,
        cpu: usize,
        reason: ExitReason,
        qual: ExitQualification,
    ) {
        // Promoted from a debug assertion: reflecting "to L0" would
        // silently loop an exit back into the host and double-charge
        // it; fail loudly in release builds as well.
        assert!(
            owner >= 1,
            "cannot reflect an exit to L0 (owner must be >= 1)"
        );
        self.stats.record_intervention(owner);
        self.trace(|w| crate::trace::TraceEvent::Intervention {
            at: w.now(cpu),
            cpu,
            hv_level: owner,
            reason,
        });
        // Intervention latency spans the whole delivery: forwarding
        // chain, owner handler, and resume. Reading the clock twice is
        // gated so the disabled path stays a single branch.
        let obs_t0 = if self.metrics_on {
            Some(self.now(cpu))
        } else {
            None
        };

        // L0's native reflect step: decide the exit is not ours, build
        // the synthetic exit state in vmcs12, switch to vmcs01, enter L1.
        self.compute(cpu, self.costs.nested_exit_triage);
        for f in [
            field::VM_EXIT_REASON,
            field::EXIT_QUALIFICATION,
            field::VM_EXIT_INTR_INFO,
            field::IDT_VECTORING_INFO,
        ] {
            self.hv_vmread(0, cpu, f);
        }
        self.compute(cpu, self.costs.nested_reflect_build);
        self.write_synthetic_exit(1, cpu, reason, &qual);
        self.hv_vmptrld(0, cpu);
        self.l0_vmentry(cpu);

        // Intermediate hypervisors forward the exit upward: each takes
        // a full world switch, triages, rebuilds exit state for the
        // next hypervisor, and resumes it.
        for j in 1..owner {
            self.exit_side_program(j, cpu);
            self.compute(cpu, self.costs.nested_exit_triage);
            self.compute(cpu, self.costs.nested_reflect_build);
            self.write_synthetic_exit(j + 1, cpu, reason, &qual);
            self.entry_side_program(j, cpu);
            self.vmresume_insn(j, cpu);
        }

        // The owner handles the exit for its nested VM.
        self.exit_side_program(owner, cpu);
        let flow = self.owner_reason_handler(owner, cpu, from_level, reason, &qual);
        if flow == HandlerFlow::Resume {
            self.entry_side_program(owner, cpu);
            self.vmresume_insn(owner, cpu);
        }
        if let Some(t0) = obs_t0 {
            let spent = self.now(cpu) - t0;
            self.observe(|m| m.observe_intervention(owner, spent));
        }
    }

    /// Writes synthetic exit state into the VMCS the hypervisor at
    /// `reader_level` will read (its "vmcs12"). In-memory stores for
    /// the writer; the read cost is charged when the reader reads.
    fn write_synthetic_exit(
        &mut self,
        reader_level: usize,
        cpu: usize,
        reason: ExitReason,
        qual: &ExitQualification,
    ) {
        for (f, value) in [
            (field::VM_EXIT_REASON, reason.number() as u64),
            (field::EXIT_QUALIFICATION, qual.raw),
            (field::GUEST_PHYSICAL_ADDRESS, qual.guest_physical),
        ] {
            self.vmcs_set(reader_level, cpu, f, value);
        }
    }

    /// Arms the leaf's emulated LAPIC timer on `cpu`.
    fn arm_leaf_timer(&mut self, cpu: usize, deadline: u64) {
        self.taint_summaries();
        self.timers[cpu].arm(deadline);
    }

    /// The `vmresume` instruction executed by the hypervisor at
    /// `level`: native for L0, a trapped-and-emulated VMX instruction
    /// for everyone else. After it completes, the hardware is running
    /// the deepest guest again.
    pub(crate) fn vmresume_insn(&mut self, level: usize, cpu: usize) {
        if level == 0 {
            self.hv_vmptrld(0, cpu);
            self.l0_vmentry(cpu);
        } else {
            self.vmexit(
                level,
                cpu,
                ExitReason::Vmresume,
                ExitQualification::default(),
            );
        }
    }

    /// The exit-side world-switch program of the hypervisor at
    /// `level` ≥ 1 (see [`crate::profile::HvProfile`]).
    pub(crate) fn exit_side_program(&mut self, level: usize, cpu: usize) {
        self.run_program(level, cpu, Program::ExitSide, World::exit_side_body);
    }

    fn exit_side_body(&mut self, level: usize, cpu: usize) {
        // Iterate the profile's field lists by index: `hv_vmread` takes
        // `&mut self` (it may recursively vmexit and re-enter this very
        // function for an intermediate level), so the lists cannot be
        // borrowed across the call — but copying out one `u32` per step
        // keeps this allocation-free where it used to clone both Vecs
        // on every single exit.
        #[allow(clippy::needless_range_loop)]
        for i in 0..self.profile.hot_reads.len() {
            let f = self.profile.hot_reads[i];
            self.hv_vmread(level, cpu, f);
        }
        #[allow(clippy::needless_range_loop)]
        for i in 0..self.profile.cold_reads.len() {
            let f = self.profile.cold_reads[i];
            self.hv_vmread(level, cpu, f);
        }
        for _ in 0..self.profile.exit_msr_reads {
            self.hv_rdmsr(level, cpu, 0x48 /* IA32_SPEC_CTRL */);
        }
        self.compute(cpu, self.profile.exit_software);
    }

    /// The entry-side world-switch program of the hypervisor at
    /// `level` ≥ 1.
    pub(crate) fn entry_side_program(&mut self, level: usize, cpu: usize) {
        self.run_program(level, cpu, Program::EntrySide, World::entry_side_body);
    }

    fn entry_side_body(&mut self, level: usize, cpu: usize) {
        // Index iteration for the same reentrancy reason as
        // `exit_side_program`: no per-exit clone of the field lists.
        #[allow(clippy::needless_range_loop)]
        for i in 0..self.profile.hot_writes.len() {
            let f = self.profile.hot_writes[i];
            self.write_back(level, cpu, f);
        }
        #[allow(clippy::needless_range_loop)]
        for i in 0..self.profile.cold_writes.len() {
            let f = self.profile.cold_writes[i];
            self.write_back(level, cpu, f);
        }
        for i in 0..self.profile.entry_msr_writes {
            if i == 0 {
                self.hv_wrmsr(level, cpu, 0x48 /* IA32_SPEC_CTRL */, 0);
            } else {
                // hrtimer re-arm for the hypervisor's own tick.
                self.hv_wrmsr(level, cpu, msr::IA32_TSC_DEADLINE, u64::MAX);
            }
        }
        for _ in 0..self.profile.apic_maintenance {
            if level == 1 {
                // APICv covers L1's own APIC accesses.
                self.compute(cpu, self.costs.pi_desc_update);
            } else {
                self.vmexit(
                    level,
                    cpu,
                    ExitReason::ApicWrite,
                    ExitQualification::default(),
                );
            }
        }
        self.compute(cpu, self.profile.entry_software);
    }

    /// A `vmwrite` by the hypervisor at `level` of field `f`'s own
    /// current value. Its trap only touches lower levels' VMCSs, so the
    /// store changes no value and exit summaries need not log it (the
    /// recording run on this CPU already set the written-bit).
    fn write_back(&mut self, level: usize, cpu: usize, f: u32) {
        let v = self.vmcs(level, cpu).read(f);
        self.hv_vmwrite_trap(level, cpu, f, v);
        self.vmcs_store(level, cpu).write(f, v);
    }

    /// The reason-specific handler run by a guest hypervisor (`owner`
    /// ≥ 1) emulating hardware for its nested VM at `from_level`.
    fn owner_reason_handler(
        &mut self,
        owner: usize,
        cpu: usize,
        from_level: usize,
        reason: ExitReason,
        qual: &ExitQualification,
    ) -> HandlerFlow {
        match reason {
            ExitReason::Vmcall => {
                self.compute(cpu, self.costs.hypercall_body);
                self.advance_guest_rip(owner, cpu);
                HandlerFlow::Resume
            }
            ExitReason::MsrWrite => match qual.msr {
                msr::IA32_TSC_DEADLINE => {
                    // Emulate the nested VM's timer with the owner's
                    // hrtimer machinery. The owner consults the TSC
                    // offset it programmed for the nested VM (a cold
                    // VMCS field) and arming its own hardware timer is
                    // itself a trapped wrmsr — exit multiplication.
                    self.hv_vmread(owner, cpu, field::TSC_OFFSET);
                    self.compute(cpu, self.costs.rdtsc);
                    self.compute(cpu, self.costs.hrtimer_program);
                    if from_level == self.leaf_level() {
                        self.arm_leaf_timer(cpu, qual.msr_value);
                    }
                    self.hv_wrmsr(owner, cpu, msr::IA32_TSC_DEADLINE, qual.msr_value);
                    self.advance_guest_rip(owner, cpu);
                    HandlerFlow::Resume
                }
                msr::IA32_X2APIC_ICR => {
                    // Fig. 4: the owner updates the destination's PI
                    // descriptor and asks the hardware (via its own
                    // trapped ICR write) to send the posted interrupt.
                    self.compute(cpu, self.costs.icr_emulate);
                    self.compute(cpu, self.costs.pi_desc_update);
                    self.hv_wrmsr(owner, cpu, msr::IA32_X2APIC_ICR, qual.msr_value);
                    self.advance_guest_rip(owner, cpu);
                    HandlerFlow::Resume
                }
                _ => {
                    self.compute(cpu, self.costs.vmx_insn_emulate);
                    self.advance_guest_rip(owner, cpu);
                    HandlerFlow::Resume
                }
            },
            ExitReason::MsrRead => {
                self.compute(cpu, self.costs.vmx_insn_emulate);
                self.advance_guest_rip(owner, cpu);
                HandlerFlow::Resume
            }
            ExitReason::Hlt => {
                // Block the nested vCPU; with nothing else to run, the
                // owner idles too — recursively, down to L0.
                self.compute(cpu, self.costs.vcpu_block);
                self.push_halt_level(cpu, owner);
                self.vmexit(owner, cpu, ExitReason::Hlt, ExitQualification::default());
                HandlerFlow::Halted
            }
            ExitReason::EptViolation => {
                // The owner's EPT stage lacks the page: populate it
                // (its own TLB invalidation traps), then resume; the
                // faulting access re-executes, so no RIP advance.
                let leaf_pfn = qual.guest_physical >> 12;
                self.populate_stage(owner, cpu, leaf_pfn);
                HandlerFlow::Resume
            }
            ExitReason::EptMisconfig => {
                // The nested VM kicked the doorbell of the virtio
                // device this owner provides (cascade model). MMIO
                // emulation decodes the guest instruction: it needs the
                // faulting linear address (a cold VMCS field) and the
                // instruction bytes (a guest page-table walk).
                self.hv_vmread(owner, cpu, field::GUEST_PHYSICAL_ADDRESS);
                self.hv_vmread(owner, cpu, field::GUEST_LINEAR_ADDRESS);
                self.compute(cpu, self.costs.walk_mem_ref * 4);
                self.compute(cpu, self.costs.mmio_decode);
                self.compute(cpu, self.costs.mmio_bus_lookup);
                self.compute(cpu, self.costs.ioeventfd_signal);
                self.owner_doorbell(owner, cpu);
                self.advance_guest_rip(owner, cpu);
                HandlerFlow::Resume
            }
            ExitReason::Vmread | ExitReason::Vmwrite | ExitReason::Vmptrst => {
                self.compute(cpu, self.costs.vmx_insn_emulate);
                self.advance_guest_rip(owner, cpu);
                HandlerFlow::Resume
            }
            ExitReason::Vmptrld | ExitReason::Vmclear => {
                self.compute(cpu, self.costs.vmx_insn_emulate);
                self.hv_vmptrld(owner, cpu);
                self.advance_guest_rip(owner, cpu);
                HandlerFlow::Resume
            }
            ExitReason::Invept | ExitReason::Invvpid => {
                self.compute(cpu, self.costs.vmx_insn_emulate);
                self.hv_invept(owner, cpu);
                self.advance_guest_rip(owner, cpu);
                HandlerFlow::Resume
            }
            ExitReason::Vmresume | ExitReason::Vmlaunch => {
                // Emulate the nested hypervisor's VM entry: merge its
                // vmcs12 into the owner's vmcs02-equivalent. Every
                // field write is a (mostly cold) VMCS access by the
                // owner.
                self.compute(cpu, self.costs.vmcs02_merge);
                for f in field::VMCS12_DIRTY_FIELDS {
                    let v = self.vmcs(from_level, cpu).read(*f);
                    self.hv_vmwrite_trap(owner, cpu, *f, v);
                    self.vmcs_copy(owner, from_level, cpu, *f);
                }
                self.on_vmentry(from_level, cpu);
                self.hv_vmptrld(owner, cpu);
                HandlerFlow::Resume
            }
            ExitReason::ApicWrite | ExitReason::ApicAccess | ExitReason::EoiInduced => {
                self.compute(cpu, self.costs.pi_desc_update);
                self.advance_guest_rip(owner, cpu);
                HandlerFlow::Resume
            }
            _ => {
                self.compute(cpu, self.costs.vmx_insn_emulate);
                self.advance_guest_rip(owner, cpu);
                HandlerFlow::Resume
            }
        }
    }

    /// Advances the exiting guest's RIP past the emulated instruction.
    fn advance_guest_rip(&mut self, owner: usize, cpu: usize) {
        let rip = self.vmcs(owner, cpu).read(field::GUEST_RIP);
        let next = rip.wrapping_add(crate::summary::RIP_ADVANCE);
        self.hv_vmwrite_trap(owner, cpu, field::GUEST_RIP, next);
        self.vmcs_add_rip(owner, cpu);
    }

    /// Combined TSC offset from L0 down to (and including) the
    /// hypervisor at `upto` — what the host needs to emulate a nested
    /// VM's timer with the correct time base (§3.2).
    pub fn combined_tsc_offset(&self, upto: usize, cpu: usize) -> u64 {
        (0..=upto)
            .map(|k| self.vmcs(k, cpu).read(field::TSC_OFFSET))
            .fold(0u64, u64::wrapping_add)
    }
}
