//! The simulated machine: physical CPUs, the VMCS hierarchy, devices,
//! and the privileged-operation primitives from which all hypervisor
//! behaviour is built.
//!
//! # Structure
//!
//! A [`World`] models the paper's stacked configuration: L0 runs an L1
//! VM, whose hypervisor runs an L2 VM, and so on; the VM at
//! `config.levels` is the *leaf* guest where workloads run. vCPU `i` of
//! every level is pinned to physical CPU `i`, as in the paper's
//! experimental setup.
//!
//! `vmcs[k][i]` is the VMCS that the hypervisor at level `k` maintains
//! for vCPU `i` of the VM at level `k + 1` (KVM's vmcs01/vmcs12/vmcs23
//! chain). Only L0 touches real hardware; every privileged operation by
//! a hypervisor at level ≥ 1 traps and is emulated down the chain —
//! that recursion lives in `exits.rs` and is where exit multiplication
//! comes from.

use crate::config::{HvKind, IoModel, WorldConfig};
use crate::extension::L0Extension;
use crate::profile::HvProfile;
use crate::stats::RunStats;
use crate::trace::Tracer;
use dvh_arch::apic::{LapicState, LapicTimer, PiDescriptor};
use dvh_arch::costs::CostModel;
use dvh_arch::cpu::{CpuId, PhysCpu};
use dvh_arch::vmx::{ctrl, field, ShadowFieldSet, Vmcs};
use dvh_arch::Cycles;
use dvh_devices::iommu::{Iommu, VirtualIommu};
use dvh_devices::nic::{Frame, Nic};
use dvh_devices::pci::Bdf;
use dvh_devices::vhost::VhostNet;
use dvh_devices::virtio::blk::VirtioBlk;
use dvh_devices::virtio::net::VirtioNet;
use dvh_memory::ept::Ept;
use dvh_memory::iommu_pt::{IoTable, ShadowIoTable};
use dvh_memory::sparse::SparseMemory;
use dvh_memory::{DirtyBitmap, Perms};
use dvh_obs::MetricsRegistry;

/// PFN offset added by each translation stage in the simulator's
/// canonical memory layout: the VM at level `k`'s guest-physical page
/// `p` lives at level `k-1` page `p + STAGE_PFN_OFFSET`. Tests use this
/// to verify end-to-end translation.
pub const STAGE_PFN_OFFSET: u64 = 0x100_000; // 4 GiB

/// First leaf PFN of the virtio ring buffer pool.
pub const LEAF_BUF_BASE_PFN: u64 = 0x100;

/// The per-vCPU posted-interrupt notification vector.
pub const PI_NOTIFICATION_VECTOR: u8 = 0xF2;

/// Host-physical base address of the per-vCPU posted-interrupt
/// descriptor array programmed into every VMCS (64 bytes per vCPU).
pub const PI_DESC_BASE: u64 = 0x3000;

/// Host-physical address of the shadow VMCS linked from vmcs01 when
/// VMCS shadowing is enabled.
pub const SHADOW_VMCS_ADDR: u64 = 0x8000;

/// The simulated machine.
pub struct World {
    /// Cycle-cost model in force, fixed at construction: exit summaries
    /// replay the cycles recorded under it.
    pub(crate) costs: CostModel,
    /// Machine configuration.
    pub config: WorldConfig,
    /// World-switch footprint of guest hypervisors. Changed only
    /// through [`World::profile_mut`], which drops stale summaries.
    pub(crate) profile: HvProfile,
    shadow: ShadowFieldSet,
    cpus: Vec<PhysCpu>,
    vmcs: Vec<Vec<Vmcs>>,
    /// Per leaf-vCPU halt chain: hypervisor levels that blocked this
    /// vCPU, outermost (deepest level) first, always ending in 0 when
    /// the physical CPU actually halted. Empty = running; a wake
    /// clears the chain but keeps its buffer.
    pub(crate) halt_chains: Vec<Vec<usize>>,
    /// Per leaf-vCPU posted-interrupt descriptors.
    pub pi_desc: Vec<PiDescriptor>,
    /// Per leaf-vCPU LAPIC timer state (as emulated for the leaf).
    pub timers: Vec<LapicTimer>,
    /// Per leaf-vCPU LAPIC interrupt state (IRR/ISR; APICv-virtualized
    /// so acceptance and EOI never exit).
    pub lapic: Vec<LapicState>,
    /// Statistics ledger.
    pub stats: RunStats,
    /// Host physical memory.
    pub host_mem: SparseMemory,
    /// Dirty leaf-GPA pages (guest writes + device DMA), the source
    /// for nested-VM migration.
    pub leaf_dirty: DirtyBitmap,
    /// Dirty L1-GPA pages as tracked by L0 for L1-VM migration.
    pub l1_dirty: DirtyBitmap,
    /// The physical NIC.
    pub nic: Nic,
    /// Virtio devices: `virtio[k]` is provided by the hypervisor at
    /// level `k`. The cascade model uses all of them; virtual-
    /// passthrough uses only `virtio[0]`.
    pub virtio: Vec<VirtioNet>,
    /// vhost backends, one per virtio device.
    pub vhost: Vec<VhostNet>,
    /// The virtual block device (provided by L0 under
    /// virtual-passthrough, by the leaf's parent otherwise; there is
    /// no SR-IOV disk, matching the paper's testbed).
    pub blk: VirtioBlk,
    /// Virtual IOMMUs: `viommus[k]` is provided by the hypervisor at
    /// level `k` to the hypervisor at level `k+1` (virtual-passthrough
    /// only). Their domains map level-(k+2) GPAs to level-(k+1) GPAs.
    pub viommus: Vec<VirtualIommu>,
    /// L0's own DMA stage: L1 GPA → host PFN.
    pub l0_io_stage: IoTable,
    /// The combined shadow I/O table (leaf GPA → host PFN) under
    /// virtual-passthrough.
    pub shadow_io: Option<ShadowIoTable>,
    /// The physical IOMMU (passthrough model).
    pub phys_iommu: Iommu,
    /// Extended page tables: `epts[k]` is the stage built by the
    /// hypervisor at level `k` for the VM at level `k+1` (lazy; see
    /// `memory_virt.rs`).
    pub epts: Vec<Ept>,
    pub(crate) extensions: Vec<Box<dyn L0Extension>>,
    /// Whether L0 has cached the nested doorbell GPA resolution (KVM's
    /// MMIO fast path): the first nested doorbell pays the full nested
    /// EPT walk, subsequent ones hit the cache. The paper notes this
    /// distinction: "more realistic I/O device usage that accesses
    /// data would have much less overhead" than the DevNotify
    /// microbenchmark (Table 3 discussion).
    pub(crate) mmio_doorbell_cached: bool,
    pub(crate) tracer: Option<Tracer>,
    /// Observability registry (None until [`World::enable_metrics`]).
    pub(crate) metrics: Option<Box<MetricsRegistry>>,
    /// Cached `tracer.is_some() || metrics.is_some()`: every
    /// observation point in the engine is a single predicted branch on
    /// this bool when nothing observes.
    pub(crate) observing: bool,
    /// In-flight block request (bytes), if a blk doorbell chain is
    /// being processed; see `io.rs`.
    pub(crate) pending_blk_bytes: Option<u64>,
    /// The buffer [`World::patterned_packet_arrival`] builds frames in.
    pub(crate) rx_frame: Frame,
    /// Use `idle=poll` in the leaf guest instead of `hlt` (the
    /// cycle-wasting alternative §3.4 contrasts with virtual idle).
    pub poll_idle: bool,
    /// Per leaf-vCPU pause state (migration stop-and-copy).
    pub(crate) paused: Vec<bool>,
    /// Per-CPU exit-handling nesting depth (0 = guest code running):
    /// lets the dispatcher attribute cycles to outermost exits only.
    /// Per-CPU so that exits on a woken sibling (e.g. the destination
    /// side of an IPI) are attributed on their own CPU rather than
    /// silently folded into the sender's exit.
    pub(crate) exit_depth: Vec<u32>,
    /// The DVH capability word the platform advertises (the simulated
    /// `IA32_VMX_DVH_CAP`). Enabling a DVH control a level was never
    /// offered is a VM-entry consistency violation (§3.5).
    pub dvh_advertised: u64,
    /// Whether VM-entry consistency checks run on every simulated
    /// entry (see `check.rs`). Off by default.
    pub(crate) vmentry_checks: bool,
    /// Violations collected while `vmentry_checks` is on.
    pub(crate) vmentry_findings: Vec<crate::check::VmentryFinding>,
    /// Memoized guest-hypervisor primitives (see `summary.rs`); built
    /// lazily by the first occurrence of each primitive.
    pub(crate) summaries: Box<crate::summary::SummaryMemo>,
}

impl World {
    /// Builds a machine for `config` with the given cost model.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`WorldConfig::validate`]); use `validate` first for a
    /// recoverable check.
    pub fn new(costs: CostModel, config: WorldConfig) -> World {
        if let Err(e) = config.validate() {
            panic!("invalid configuration: {e}");
        }
        let n = config.levels;
        let v = config.leaf_vcpus;
        let profile = match config.guest_hv {
            HvKind::Kvm => HvProfile::kvm(),
            HvKind::Xen => HvProfile::xen(),
            HvKind::KvmArm => HvProfile::kvm_arm(),
        };
        let mut vmcs = Vec::with_capacity(n);
        for k in 0..n {
            let mut per_cpu = Vec::with_capacity(v);
            for i in 0..v {
                let mut m = Vmcs::new();
                // Every hypervisor traps HLT by default (virtual idle,
                // when enabled, clears this in guest hypervisors).
                m.set_bits(field::CPU_BASED_EXEC_CONTROLS, ctrl::cpu::HLT_EXITING);
                m.set_bits(
                    field::CPU_BASED_EXEC_CONTROLS,
                    ctrl::cpu::USE_TSC_OFFSETTING | ctrl::cpu::USE_MSR_BITMAPS,
                );
                // A synthetic per-level TSC offset so offset-combining
                // logic is observable.
                m.write(field::TSC_OFFSET, (k as u64 + 1) * 0x1000);
                // Baseline architectural consistency, as checked at
                // every simulated VM entry (SDM §26 / `check.rs`):
                // secondary controls activated, EPT enabled with a
                // programmed EPTP, posted interrupts with a valid
                // notification vector and non-null descriptor.
                m.set_bits(
                    field::CPU_BASED_EXEC_CONTROLS,
                    ctrl::cpu::SECONDARY_CONTROLS,
                );
                m.set_bits(field::SECONDARY_EXEC_CONTROLS, ctrl::secondary::ENABLE_EPT);
                m.write(
                    field::EPT_POINTER,
                    ((0x10 + k as u64) << 12) | 0x1e, // root PFN | WB, 4-level walk
                );
                m.set_bits(field::PIN_BASED_EXEC_CONTROLS, ctrl::pin::POSTED_INTERRUPTS);
                m.write(
                    field::POSTED_INTR_NOTIFICATION_VECTOR,
                    PI_NOTIFICATION_VECTOR as u64,
                );
                m.write(field::POSTED_INTR_DESC_ADDR, PI_DESC_BASE + i as u64 * 64);
                if k == 0 && config.vmcs_shadowing && profile.uses_shadowing {
                    // L0 shadows L1's hot vmcs12 fields: vmcs01 carries
                    // the shadow-VMCS control and a usable link pointer.
                    m.set_bits(field::SECONDARY_EXEC_CONTROLS, ctrl::secondary::SHADOW_VMCS);
                    m.write(field::VMCS_LINK_POINTER, SHADOW_VMCS_ADDR);
                }
                per_cpu.push(m);
            }
            vmcs.push(per_cpu);
        }
        let nic = Nic::new(Bdf::new(1, 0, 0), 8);
        let virtio_count = match config.io_model {
            IoModel::Virtio => n,
            IoModel::VirtualPassthrough => 1,
            IoModel::Passthrough => 0,
        };
        let virtio: Vec<VirtioNet> = (0..virtio_count.max(1))
            .map(|k| VirtioNet::new(Bdf::new(0, 4 + k as u8, 0), 256))
            .collect();
        let vhost = (0..virtio.len()).map(|_| VhostNet::new()).collect();

        let mut virtio = virtio;
        for (i, dev) in virtio.iter_mut().enumerate() {
            // The owning driver programs the RX completion vector
            // (entry 1) at initialization and unmasks it.
            dev.msix.program(
                1,
                dvh_devices::msi::MsiMessage::remappable(i as u32, crate::io::RX_VECTOR),
            );
            dev.msix.unmask(1);
        }
        let mut w = World {
            costs,
            profile,
            shadow: if config.vmcs_shadowing {
                ShadowFieldSet::kvm_default()
            } else {
                ShadowFieldSet::empty()
            },
            cpus: (0..v as u32).map(|i| PhysCpu::new(CpuId(i))).collect(),
            vmcs,
            halt_chains: vec![Vec::new(); v],
            pi_desc: (0..v)
                .map(|i| PiDescriptor::new(i as u32, PI_NOTIFICATION_VECTOR))
                .collect(),
            timers: vec![LapicTimer::default(); v],
            lapic: vec![LapicState::new(); v],
            stats: RunStats::new(),
            host_mem: SparseMemory::new(),
            leaf_dirty: DirtyBitmap::new(),
            l1_dirty: DirtyBitmap::new(),
            nic,
            virtio,
            vhost,
            blk: VirtioBlk::new(Bdf::new(0, 9, 0), 128, 1 << 21), // 1 GiB
            viommus: Vec::new(),
            l0_io_stage: IoTable::new(),
            shadow_io: None,
            phys_iommu: Iommu::new(),
            epts: (0..n).map(|_| Ept::new()).collect(),
            extensions: Vec::new(),
            mmio_doorbell_cached: false,
            tracer: None,
            metrics: None,
            observing: false,
            pending_blk_bytes: None,
            rx_frame: Frame::default(),
            poll_idle: false,
            paused: vec![false; v],
            exit_depth: vec![0; v],
            dvh_advertised: dvh_arch::vmx::cap::VIRTUAL_TIMER
                | dvh_arch::vmx::cap::VIRTUAL_IPI
                | dvh_arch::vmx::cap::VCIMTAR,
            vmentry_checks: false,
            vmentry_findings: Vec::new(),
            summaries: Default::default(),
            config,
        };
        w.setup_io();
        w
    }

    /// Sets up the I/O plumbing for the configured model: translation
    /// stages, shadow tables, IOMMU attachment.
    fn setup_io(&mut self) {
        let n = self.config.levels;
        // Each VM's buffer pool: 64 pages starting at LEAF_BUF_BASE_PFN
        // in its own GPA space, shifted one stage per level downward.
        let pages = 64;
        match self.config.io_model {
            IoModel::VirtualPassthrough => {
                // Intermediate hypervisors each expose a vIOMMU. The
                // hypervisor at level k (1 <= k <= n-1) programs the
                // vIOMMU provided by level k-1 with mappings for the
                // VM at level k+1 ... only levels that pass the device
                // further need one; the vIOMMU provided by hv k serves
                // hv k+1. There are n-1 vIOMMUs for an n-level stack
                // (the last-level hypervisor needs none for its own
                // VM but uses the one below it).
                let pi = self.config.dvh.viommu_posted_interrupts;
                self.viommus = (0..n.saturating_sub(1))
                    .map(|_| VirtualIommu::new(pi))
                    .collect();
                let bdf = self.virtio[0].pci().bdf();
                // Stage tables: vIOMMU[k] is programmed by the
                // hypervisor at level k+1 with mappings from level-(k+2)
                // GPA to level-(k+1) GPA. In the canonical layout each
                // stage adds one STAGE_PFN_OFFSET, so the innermost
                // stage (index n-2) maps the leaf's buffer pool at its
                // own base, and stage k maps it at (n-2-k) offsets in.
                let base = LEAF_BUF_BASE_PFN;
                for (k, vm) in self.viommus.iter_mut().enumerate() {
                    vm.attach(bdf);
                    let hops_in = (n - 2 - k) as u64;
                    vm.map(
                        bdf,
                        base + hops_in * STAGE_PFN_OFFSET,
                        base + (hops_in + 1) * STAGE_PFN_OFFSET,
                        pages,
                        Perms::RW,
                    );
                    // The guest hypervisor programs the device's RX
                    // interrupt into the vIOMMU remapping tables. With
                    // posted-interrupt support the entry points at the
                    // destination vCPU's PI descriptor (delivery with
                    // no exits); without it, the interrupt is remapped
                    // to the owning vCPU and relayed in software.
                    let target = if pi {
                        dvh_devices::iommu::IrteTarget::Posted { pi_desc: 0 }
                    } else {
                        dvh_devices::iommu::IrteTarget::Remapped {
                            dest: 0,
                            vector: crate::io::RX_VECTOR,
                        }
                    };
                    vm.unit_mut()
                        .remap_interrupt(bdf, crate::io::RX_VECTOR, target);
                }
                // L0's own stage: L1 GPA -> host PFN.
                self.l0_io_stage.map(
                    base + (n as u64 - 1) * STAGE_PFN_OFFSET,
                    base + n as u64 * STAGE_PFN_OFFSET,
                    pages,
                    Perms::RW,
                );
                self.rebuild_shadow_io();
            }
            IoModel::Passthrough => {
                // Assign VF 1 to the leaf; the physical IOMMU maps the
                // leaf's IOVAs (its GPAs) straight to host PFNs.
                let vf = self.nic.function_bdf(1);
                self.phys_iommu.attach(vf);
                self.phys_iommu.map(
                    vf,
                    LEAF_BUF_BASE_PFN,
                    LEAF_BUF_BASE_PFN + n as u64 * STAGE_PFN_OFFSET,
                    pages,
                    Perms::RW,
                );
            }
            IoModel::Virtio => {
                // Cascaded virtio: each level's backend copies between
                // adjacent address spaces. Only the L0-adjacent hop
                // materializes bytes: L0's device serves the L1 VM, so
                // its stage maps L1 GPAs to host PFNs.
                self.l0_io_stage.map(
                    LEAF_BUF_BASE_PFN + (n as u64 - 1) * STAGE_PFN_OFFSET,
                    LEAF_BUF_BASE_PFN + n as u64 * STAGE_PFN_OFFSET,
                    pages,
                    Perms::RW,
                );
            }
        }
    }

    /// Rebuilds the combined shadow I/O table from the vIOMMU chain
    /// plus L0's stage (Fig. 6). Called whenever a stage changes.
    pub fn rebuild_shadow_io(&mut self) {
        if self.config.io_model != IoModel::VirtualPassthrough {
            return;
        }
        let bdf = self.virtio[0].pci().bdf();
        // Innermost stage first: the deepest vIOMMU (closest to the
        // leaf) is the one provided by the second-to-last hypervisor.
        let mut stages: Vec<&IoTable> = Vec::new();
        for vm in self.viommus.iter().rev() {
            if let Some(d) = vm.unit().domain(bdf) {
                stages.push(d);
            }
        }
        stages.push(&self.l0_io_stage);
        self.shadow_io = Some(ShadowIoTable::build(&stages));
    }

    /// Invalidates the cached nested doorbell resolution, forcing the
    /// next nested MMIO doorbell to take the slow path (used by the
    /// DevNotify microbenchmark, which measures the uncached cost).
    pub fn invalidate_mmio_cache(&mut self) {
        self.taint_summaries();
        self.mmio_doorbell_cached = false;
    }

    /// Registers an L0 extension (a DVH mechanism). Extensions are
    /// consulted, in registration order, before L0 reflects an exit
    /// from a nested VM to its guest hypervisor.
    pub fn register_extension(&mut self, ext: Box<dyn L0Extension>) {
        self.extensions.push(ext);
        // Extensions see exits before reflection, so every recorded
        // subtree may now run differently.
        self.summaries.invalidate();
    }

    // ---- Clock and accounting helpers ---------------------------------

    /// The cycle-cost model in force.
    pub fn costs(&self) -> &CostModel {
        &self.costs
    }

    /// The world-switch footprint of guest hypervisors.
    pub fn profile(&self) -> &HvProfile {
        &self.profile
    }

    /// Mutable access to the guest-hypervisor footprint. Every
    /// recorded exit summary may now run differently, so the memo is
    /// dropped.
    pub fn profile_mut(&mut self) -> &mut HvProfile {
        self.summaries.invalidate();
        &mut self.profile
    }

    /// Number of physical CPUs (= leaf vCPUs).
    pub fn num_cpus(&self) -> usize {
        self.cpus.len()
    }

    /// Current simulated time of CPU `cpu`.
    #[inline(always)]
    pub fn now(&self, cpu: usize) -> Cycles {
        self.cpus[cpu].now()
    }

    /// Charges `c` cycles of native-speed execution on `cpu`.
    /// Compute never traps, regardless of privilege level.
    #[inline(always)]
    pub fn compute(&mut self, cpu: usize, c: Cycles) {
        self.cpus[cpu].advance(c);
    }

    /// Synchronizes CPU `cpu` to at least time `t` (causal wait).
    pub fn sync_cpu(&mut self, cpu: usize, t: Cycles) {
        self.cpus[cpu].sync_to(t);
    }

    /// Runs `f` with mutable access to the physical CPU `cpu`.
    pub(crate) fn with_cpu<R>(&mut self, cpu: usize, f: impl FnOnce(&mut PhysCpu) -> R) -> R {
        f(&mut self.cpus[cpu])
    }

    /// Runs `f` with shared access to the physical CPU `cpu`.
    pub(crate) fn with_cpu_ref<R>(&self, cpu: usize, f: impl FnOnce(&PhysCpu) -> R) -> R {
        f(&self.cpus[cpu])
    }

    /// The deepest (leaf) virtualization level.
    pub fn leaf_level(&self) -> usize {
        self.config.levels
    }

    // ---- VMCS store access (no cost; cost is charged by callers) ------

    /// Immutable access to the VMCS maintained by hypervisor `owner`
    /// for vCPU `cpu` of the VM at `owner + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `owner >= levels` or `cpu` is out of range.
    #[inline(always)]
    pub fn vmcs(&self, owner: usize, cpu: usize) -> &Vmcs {
        &self.vmcs[owner][cpu]
    }

    /// Mutable access; see [`World::vmcs`]. A store through this
    /// accessor while an exit summary is being recorded is one the
    /// summary's effect log does not describe, so it taints the
    /// recording.
    #[inline(always)]
    pub fn vmcs_mut(&mut self, owner: usize, cpu: usize) -> &mut Vmcs {
        self.taint_summaries();
        &mut self.vmcs[owner][cpu]
    }

    /// Mutable access for the exit engine's own stores: ones the
    /// exit-summary effect log records or replays, and the
    /// value-preserving write-backs of `entry_side_program`.
    #[inline(always)]
    pub(crate) fn vmcs_store(&mut self, owner: usize, cpu: usize) -> &mut Vmcs {
        &mut self.vmcs[owner][cpu]
    }

    /// The virtio device provided by the hypervisor at `level`
    /// (bounds-checked here so dispatch paths never index raw).
    pub fn virtio_dev_mut(&mut self, level: usize) -> &mut VirtioNet {
        &mut self.virtio[level]
    }

    /// The EPT stage built by the hypervisor at `stage` for the VM at
    /// `stage + 1`.
    pub fn ept_stage_mut(&mut self, stage: usize) -> &mut Ept {
        &mut self.epts[stage]
    }

    /// The set of vmcs12 fields L0 shadows for L1 (empty when VMCS
    /// shadowing is disabled). The trace linter uses this to prove no
    /// shadowed access was ever reflected.
    pub fn shadow_fields(&self) -> &ShadowFieldSet {
        &self.shadow
    }

    /// Resets the statistics ledger to zero. Checker harnesses call
    /// this right after [`World::enable_observability`] so the ledger,
    /// the registry and the trace fold exactly the same events.
    pub fn reset_stats(&mut self) {
        self.stats = RunStats::new();
    }

    // ---- Observability (dvh-obs) --------------------------------------

    /// Turns on metrics collection. Recording never advances simulated
    /// time, so enabling metrics cannot perturb any cycle ledger; with
    /// metrics off, every instrumentation point costs one predicted
    /// branch (same contract as [`World::enable_tracing`]).
    pub fn enable_metrics(&mut self) {
        if self.metrics.is_none() {
            self.metrics = Some(Box::default());
        }
        self.observing = true;
    }

    /// Arms the full observability stack in one call: tracing (with the
    /// given event capacity) plus metrics. Everything downstream of the
    /// trace — causal trees, folded flamegraphs, latency percentiles —
    /// needs both, so the CLI and the checker harness arm them
    /// together.
    pub fn enable_observability(&mut self, trace_capacity: usize) {
        self.enable_tracing(trace_capacity);
        self.enable_metrics();
    }

    /// The live metrics registry, if metrics were enabled.
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.metrics.as_deref()
    }

    /// Stops metrics collection and returns the registry.
    pub fn take_metrics(&mut self) -> Option<MetricsRegistry> {
        let reg = self.metrics.take().map(|m| *m);
        self.observing = self.tracer.is_some();
        reg
    }

    /// Feeds the registry a measurement no ledger holds (intervention
    /// latency, interrupt deliveries, pre-copy rounds); ledger facts go
    /// through `World::record` instead. The disabled path is a single
    /// inlined branch on `World::observing`; the closure only ever
    /// captures plain copies (levels, reasons, cycle deltas), so with
    /// nothing observing the optimizer deletes the capture setup at
    /// every call site.
    #[inline(always)]
    pub fn observe(&mut self, f: impl FnOnce(&mut MetricsRegistry)) {
        if self.observing {
            if let Some(m) = self.metrics.as_deref_mut() {
                f(m);
            }
        }
    }

    /// Snapshots every device's lifetime counters (virtqueue kicks,
    /// interrupts, in-flight; vhost packet/byte/drop totals) into the
    /// metrics registry. Exports are absolute values, so calling this
    /// repeatedly (e.g. once per sweep cell) never double-counts; a
    /// no-op when metrics are disabled.
    pub fn export_device_metrics(&mut self) {
        let Some(reg) = self.metrics.as_deref_mut() else {
            return;
        };
        for (lvl, dev) in self.virtio.iter().enumerate() {
            dev.rx.export_metrics(reg, virtio_queue_tag(lvl, true));
            dev.tx.export_metrics(reg, virtio_queue_tag(lvl, false));
        }
        for (lvl, vh) in self.vhost.iter().enumerate() {
            vh.export_metrics(reg, vhost_tag(lvl));
        }
    }

    /// Whether the leaf vCPU on `cpu` is halted.
    pub fn is_halted(&self, cpu: usize) -> bool {
        self.halt_chain(cpu).is_some()
    }

    /// The halt chain of `cpu`, if halted.
    pub fn halt_chain(&self, cpu: usize) -> Option<&[usize]> {
        let chain = &self.halt_chains[cpu];
        (!chain.is_empty()).then_some(chain)
    }

    // ---- Privileged-operation primitives --------------------------------
    //
    // Each primitive is executed *by the hypervisor at `level`* on
    // `cpu`. Level 0 is native; level >= 1 may trap. The target VMCS of
    // a hypervisor's vmread/vmwrite is its current one: vmcs[level][cpu].

    /// `vmread` of `f` by the hypervisor at `level`.
    #[inline]
    pub fn hv_vmread(&mut self, level: usize, cpu: usize, f: u32) -> u64 {
        if level == 0 {
            self.compute(cpu, self.costs.vmread);
        } else if level == 1 && self.profile.uses_shadowing && self.shadow.covers_read(f) {
            self.compute(cpu, self.costs.shadow_vmread);
        } else {
            self.vmexit(
                level,
                cpu,
                dvh_arch::vmx::ExitReason::Vmread,
                dvh_arch::vmx::ExitQualification::vmread(f),
            );
        }
        self.vmcs[level][cpu].read(f)
    }

    /// `vmwrite` of `f = v` by the hypervisor at `level`.
    #[inline]
    pub fn hv_vmwrite(&mut self, level: usize, cpu: usize, f: u32, v: u64) {
        self.hv_vmwrite_trap(level, cpu, f, v);
        // The exit engine's own vmwrites store through `vmcs_store`;
        // this one is outside any exit-summary effect log.
        self.taint_summaries();
        self.vmcs[level][cpu].write(f, v);
    }

    /// The instruction half of [`World::hv_vmwrite`]: charges the
    /// `vmwrite` (native, shadowed, or trapped and reflected) without
    /// storing the value; the caller stores it.
    #[inline]
    pub(crate) fn hv_vmwrite_trap(&mut self, level: usize, cpu: usize, f: u32, v: u64) {
        if level == 0 {
            self.compute(cpu, self.costs.vmwrite);
        } else if level == 1 && self.profile.uses_shadowing && self.shadow.covers_write(f) {
            self.compute(cpu, self.costs.shadow_vmwrite);
        } else {
            self.vmexit(
                level,
                cpu,
                dvh_arch::vmx::ExitReason::Vmwrite,
                dvh_arch::vmx::ExitQualification::vmwrite(f, v),
            );
        }
    }

    /// `vmptrld` by the hypervisor at `level`.
    pub fn hv_vmptrld(&mut self, level: usize, cpu: usize) {
        if level == 0 {
            self.compute(cpu, self.costs.vmptrld);
        } else {
            self.vmexit(
                level,
                cpu,
                dvh_arch::vmx::ExitReason::Vmptrld,
                dvh_arch::vmx::ExitQualification::default(),
            );
        }
    }

    /// `invept` by the hypervisor at `level`.
    pub fn hv_invept(&mut self, level: usize, cpu: usize) {
        if level == 0 {
            self.compute(cpu, self.costs.invept);
        } else {
            self.vmexit(
                level,
                cpu,
                dvh_arch::vmx::ExitReason::Invept,
                dvh_arch::vmx::ExitQualification::default(),
            );
        }
    }

    /// `rdmsr` by the hypervisor at `level` (of a trapped MSR).
    pub fn hv_rdmsr(&mut self, level: usize, cpu: usize, msr: u32) {
        if level == 0 {
            self.compute(cpu, self.costs.rdmsr);
        } else {
            self.vmexit(
                level,
                cpu,
                dvh_arch::vmx::ExitReason::MsrRead,
                dvh_arch::vmx::ExitQualification {
                    msr,
                    ..Default::default()
                },
            );
        }
    }

    /// `wrmsr` by the hypervisor at `level` (of a trapped MSR).
    ///
    /// For level 0 this is the terminal hardware write (e.g. arming the
    /// real LAPIC timer, sending the real posted-interrupt IPI).
    pub fn hv_wrmsr(&mut self, level: usize, cpu: usize, msr: u32, value: u64) {
        if level == 0 {
            self.compute(cpu, self.costs.wrmsr);
        } else {
            self.vmexit(
                level,
                cpu,
                dvh_arch::vmx::ExitReason::MsrWrite,
                dvh_arch::vmx::ExitQualification::msr_write(msr, value),
            );
        }
    }
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("levels", &self.config.levels)
            .field("io_model", &self.config.io_model)
            .field("cpus", &self.cpus.len())
            .field("total_exits", &self.stats.total_exits())
            .finish()
    }
}

/// Static metric tag for the virtio device provided by the hypervisor
/// at `level` (metric tags are `&'static str`; levels beyond the
/// modeled maximum share a catch-all tag).
fn virtio_queue_tag(level: usize, rx: bool) -> &'static str {
    match (level, rx) {
        (0, true) => "l0-rx",
        (0, false) => "l0-tx",
        (1, true) => "l1-rx",
        (1, false) => "l1-tx",
        (2, true) => "l2-rx",
        (2, false) => "l2-tx",
        (3, true) => "l3-rx",
        (3, false) => "l3-tx",
        (_, true) => "ln-rx",
        (_, false) => "ln-tx",
    }
}

/// Static metric tag for the vhost backend at `level`; see
/// [`virtio_queue_tag`].
fn vhost_tag(level: usize) -> &'static str {
    match level {
        0 => "l0-vhost",
        1 => "l1-vhost",
        2 => "l2-vhost",
        3 => "l3-vhost",
        _ => "ln-vhost",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world(levels: usize) -> World {
        World::new(CostModel::calibrated(), WorldConfig::baseline(levels))
    }

    #[test]
    fn construction_shapes() {
        let w = world(3);
        assert_eq!(w.num_cpus(), 4);
        assert_eq!(w.vmcs.len(), 3);
        assert_eq!(w.leaf_level(), 3);
        assert!(w
            .vmcs(0, 0)
            .has_bits(field::CPU_BASED_EXEC_CONTROLS, ctrl::cpu::HLT_EXITING));
    }

    #[test]
    fn l0_vmread_is_cheap_and_correct() {
        let mut w = world(2);
        w.vmcs_mut(0, 0).write(field::GUEST_RIP, 77);
        let t0 = w.now(0);
        let v = w.hv_vmread(0, 0, field::GUEST_RIP);
        assert_eq!(v, 77);
        assert_eq!(w.now(0) - t0, w.costs.vmread);
        assert_eq!(w.stats.total_exits(), 0);
    }

    #[test]
    fn shadowed_l1_vmread_does_not_exit() {
        let mut w = world(2);
        let t0 = w.now(0);
        w.hv_vmread(1, 0, field::VM_EXIT_REASON);
        assert_eq!(w.now(0) - t0, w.costs.shadow_vmread);
        assert_eq!(w.stats.total_exits(), 0);
    }

    #[test]
    fn cold_l1_vmread_exits_once() {
        let mut w = world(2);
        w.hv_vmread(1, 0, field::TSC_OFFSET);
        assert_eq!(w.stats.exits_with(1, dvh_arch::vmx::ExitReason::Vmread), 1);
    }

    #[test]
    fn no_shadowing_makes_hot_fields_trap() {
        let mut cfg = WorldConfig::baseline(2);
        cfg.vmcs_shadowing = false;
        let mut w = World::new(CostModel::calibrated(), cfg);
        w.hv_vmread(1, 0, field::VM_EXIT_REASON);
        assert_eq!(w.stats.exits_with(1, dvh_arch::vmx::ExitReason::Vmread), 1);
    }

    #[test]
    fn vp_world_builds_shadow_io() {
        let mut cfg = WorldConfig::baseline(2);
        cfg.io_model = IoModel::VirtualPassthrough;
        let w = World::new(CostModel::calibrated(), cfg);
        let s = w.shadow_io.as_ref().unwrap();
        // Leaf buffer page 0x100 should resolve to host page
        // 0x100 + 2 * STAGE_PFN_OFFSET for a 2-level stack.
        assert_eq!(
            s.lookup(LEAF_BUF_BASE_PFN).unwrap().0,
            LEAF_BUF_BASE_PFN + 2 * STAGE_PFN_OFFSET
        );
    }

    #[test]
    #[should_panic(expected = "invalid configuration")]
    fn invalid_config_panics() {
        world(0);
    }
}
