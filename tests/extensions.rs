//! Integration tests for the reproduction's extension features: the
//! ARM port, block I/O, tracing, polling idle, lifecycle, and EPT
//! fault handling.

use dvh_core::{Machine, MachineConfig};
use dvh_hypervisor::world::LEAF_BUF_BASE_PFN;
use dvh_hypervisor::{IrqPath, TraceEvent};
use dvh_memory::Gpa;
use dvh_migration::{migrate_nested_vm, MigrationConfig};
use dvh_workloads::{run_app, AppId};

// ---- ARM port -------------------------------------------------------------

#[test]
fn arm_exit_multiplication_holds() {
    let mut l1 = Machine::build(MachineConfig::arm_baseline(1));
    let c1 = l1.hypercall(0).as_u64();
    let mut l2 = Machine::build(MachineConfig::arm_baseline(2));
    let c2 = l2.hypercall(0).as_u64();
    assert!(c2 > 20 * c1, "ARM hvc: L2 {c2} vs L1 {c1}");
}

#[test]
fn arm_nested_is_relatively_worse_than_x86_nested() {
    // No shadowing analogue on ARM: the L2/L1 blow-up exceeds x86's.
    let ratio = |mk: fn(usize) -> MachineConfig| {
        let mut l1 = Machine::build(mk(1));
        let c1 = l1.hypercall(0).as_u64() as f64;
        let mut l2 = Machine::build(mk(2));
        l2.hypercall(0).as_u64() as f64 / c1
    };
    let x86 = ratio(MachineConfig::baseline);
    let arm = ratio(MachineConfig::arm_baseline);
    assert!(arm > x86, "ARM ratio {arm:.1} vs x86 ratio {x86:.1}");
}

#[test]
fn arm_virtual_passthrough_removes_io_interventions() {
    let apache = AppId::Apache.mix();
    let mut nested = Machine::build(MachineConfig::arm_baseline(2));
    let o_nested = run_app(&mut nested, &apache, 100).overhead;
    let mut vp = Machine::build(MachineConfig::arm_dvh_vp(2));
    let o_vp = run_app(&mut vp, &apache, 100).overhead;
    assert!(o_vp < o_nested * 0.75, "ARM VP {o_vp} vs nested {o_nested}");
}

#[test]
fn arm_full_dvh_is_rejected_as_in_the_paper() {
    // The paper only ported virtual-passthrough to ARM.
    let mut cfg = MachineConfig::arm_baseline(2);
    cfg.world.dvh = dvh_core::DvhFlags::ALL;
    assert!(cfg.world.validate().is_err());
}

// ---- Block I/O --------------------------------------------------------------

#[test]
fn blk_io_cascades_even_under_nic_passthrough() {
    // The paper's testbed has no SR-IOV disk: MySQL's log writes keep
    // paying guest hypervisor interventions in the passthrough config.
    let mut m = Machine::build(MachineConfig::passthrough(2));
    let before = m.world().stats.total_interventions();
    m.blk_io(0, 16 * 1024, true);
    assert!(
        m.world().stats.total_interventions() > before,
        "blk must cascade under NIC passthrough"
    );
}

#[test]
fn blk_io_under_full_dvh_never_reaches_the_guest_hypervisor() {
    let mut m = Machine::build(MachineConfig::dvh(2));
    m.blk_io(0, 16 * 1024, true);
    assert_eq!(m.world().stats.total_interventions(), 0);
}

#[test]
fn blk_costs_rank_across_io_models() {
    let cost = |cfg: MachineConfig| {
        let mut m = Machine::build(cfg);
        m.blk_io(0, 8192, true).as_u64()
    };
    let l1 = cost(MachineConfig::baseline(1));
    let nested = cost(MachineConfig::baseline(2));
    let dvh = cost(MachineConfig::dvh(2));
    assert!(nested > 5 * l1, "nested blk {nested} vs L1 {l1}");
    assert!(dvh < nested / 2, "DVH blk {dvh} vs nested {nested}");
}

// ---- Tracing -----------------------------------------------------------------

#[test]
fn trace_explains_the_cost_difference() {
    let mut vanilla = Machine::build(MachineConfig::baseline(2));
    vanilla.world_mut().enable_tracing(1 << 16);
    vanilla.program_timer(0);
    let vanilla_events = vanilla.world_mut().take_trace();

    let mut dvh = Machine::build(MachineConfig::dvh(2));
    dvh.world_mut().enable_tracing(1 << 16);
    dvh.program_timer(0);
    let dvh_events = dvh.world_mut().take_trace();

    let exits = |evs: &[TraceEvent]| {
        evs.iter()
            .filter(|e| matches!(e, TraceEvent::Exit { .. }))
            .count()
    };
    assert!(exits(&vanilla_events) > 10);
    assert_eq!(exits(&dvh_events), 1, "DVH: exactly one exit, to L0");
    assert!(dvh_events.iter().any(|e| matches!(
        e,
        TraceEvent::DvhIntercept {
            mechanism: "vtimer",
            ..
        }
    )));
}

// ---- Polling vs halting ---------------------------------------------------------

#[test]
fn polling_trades_cycles_for_latency() {
    let mut halt = Machine::build(MachineConfig::baseline(2));
    halt.world_mut().guest_hlt(0);
    let t = halt.now(0);
    halt.world_mut()
        .deliver_leaf_interrupt(0, 0x33, t, IrqPath::PostedDirect);
    let halt_wake = (halt.now(0) - t).as_u64();

    let mut poll = Machine::build(MachineConfig::baseline(2));
    poll.world_mut().poll_idle = true;
    poll.world_mut().guest_hlt(0);
    let t = poll.now(0);
    poll.world_mut()
        .deliver_leaf_interrupt(0, 0x33, t, IrqPath::PostedDirect);
    let poll_wake = (poll.now(0) - t).as_u64();

    assert!(
        poll_wake < halt_wake / 10,
        "poll {poll_wake} vs halt {halt_wake}"
    );
    assert_eq!(poll.world().stats.total_exits(), 0);
}

// ---- Lifecycle + migration ----------------------------------------------------------

#[test]
fn interrupts_arriving_during_migration_blackout_survive() {
    let mut m = Machine::build(MachineConfig::dvh(2));
    m.world_mut().guest_write_memory(
        0,
        dvh_memory::Gpa::from_pfn(dvh_hypervisor::world::LEAF_BUF_BASE_PFN),
        &[7; 64],
    );
    let accepted_before = m.world().lapic[0].accepted_count();
    // Deliver a packet-completion interrupt mid-migration by hooking
    // the per-round workload (the VM is running between rounds, paused
    // only at cut-over; here we also check the paused path directly).
    m.world_mut().pause_vcpu(0);
    let t = m.now(1);
    m.world_mut()
        .deliver_leaf_interrupt(0, 0x66, t, IrqPath::PostedDirect);
    assert_eq!(m.world().lapic[0].accepted_count(), accepted_before);
    let r = migrate_nested_vm(m.world_mut(), MigrationConfig::default(), |_| {}).unwrap();
    assert!(r.verified);
    // migrate's resume_all delivered the queued vector.
    assert_eq!(m.world().lapic[0].accepted_count(), accepted_before + 1);
}

// ---- MSI-X masking ----------------------------------------------------------------

#[test]
fn masked_rx_vector_defers_the_interrupt_until_unmask() {
    use dvh_devices::nic::Frame;
    let mut m = Machine::build(MachineConfig::dvh(2));
    let idx = m.world().leaf_device_idx();
    m.world_mut().virtio[idx].msix.mask(1);
    let accepted = m.world().lapic[0].accepted_count();
    m.world_mut()
        .external_packet_arrival(0, &Frame::patterned(600, 5));
    // Data landed but no interrupt was delivered.
    assert_eq!(m.world().lapic[0].accepted_count(), accepted);
    assert!(m.world().virtio[idx].msix.is_pending(1));
    // Unmasking fires the latched completion.
    m.world_mut()
        .unmask_rx_vector(0)
        .expect("pending interrupt fires");
    assert_eq!(m.world().lapic[0].accepted_count(), accepted + 1);
}

// ---- Cycle attribution ---------------------------------------------------------------

#[test]
fn cycle_attribution_accounts_for_every_handling_cycle() {
    use dvh_arch::vmx::ExitReason;
    let mut m = Machine::build(MachineConfig::baseline(3));
    let t0 = m.now(0);
    m.hypercall(0);
    m.program_timer(0);
    let handled = (m.now(0) - t0).as_u64();
    let attributed = m.world().stats.total_attributed_cycles().as_u64();
    assert_eq!(
        attributed, handled,
        "every cycle spent handling exits must be attributed to an outermost exit"
    );
    // The L3 hypercall's full recursive cost lands on the Vmcall entry.
    let vmcall = m
        .world()
        .stats
        .cycles_by_reason
        .get(3, ExitReason::Vmcall)
        .as_u64();
    assert!(vmcall > 800_000, "L3 hypercall attribution {vmcall}");
    // No cycles are attributed to inner reflected ops directly.
    let inner = m
        .world()
        .stats
        .cycles_by_reason
        .get(1, ExitReason::Vmresume);
    assert_eq!(inner, dvh_arch::Cycles::ZERO);
}

// ---- Failure injection -----------------------------------------------------------------

#[test]
fn dma_to_an_unmapped_shadow_page_is_dropped_silently() {
    use dvh_devices::nic::Frame;
    // Sabotage the shadow I/O table: remove the RX buffer mapping.
    let mut m = Machine::build(MachineConfig::dvh(2));
    let bdf = m.world().virtio[0].pci().bdf();
    let rx_buf = dvh_hypervisor::world::LEAF_BUF_BASE_PFN + 32;
    m.world_mut().viommus[0].unmap(bdf, rx_buf);
    m.world_mut().rebuild_shadow_io();

    let accepted = m.world().lapic[0].accepted_count();
    m.world_mut()
        .external_packet_arrival(0, &Frame::patterned(700, 1));
    // The DMA faulted at the (shadow) IOMMU: packet dropped, memory
    // untouched, and the vhost backend recorded the drop.
    assert_eq!(m.world().vhost[0].stats.dropped, 1);
    assert_eq!(m.world().vhost[0].stats.rx_packets, 0);
    let buf = m
        .world()
        .guest_read_memory(dvh_memory::Gpa::from_pfn(rx_buf), 16);
    assert_eq!(buf, vec![0; 16], "no bytes may land past a revoked mapping");
    // No phantom interrupt for a dropped frame... the completion
    // interrupt may still fire (used-ring entry with 0 bytes) in our
    // model, but nothing was accepted beyond at most one vector.
    assert!(m.world().lapic[0].accepted_count() <= accepted + 1);
}

#[test]
fn detached_passthrough_device_stops_transmitting() {
    let mut m = Machine::build(MachineConfig::passthrough(2));
    let vf = m.world().nic.function_bdf(1);
    m.world_mut().phys_iommu.detach(vf);
    m.net_tx(0, 2, 900);
    assert!(
        m.world().nic.wire().is_empty(),
        "DMA from a detached device must fault, not leak data"
    );
    assert!(m.world().phys_iommu.fault_count() >= 2);
    // Receive DMA faults the same way: the IOMMU logs it, and nothing
    // lands in the leaf's RX buffer.
    let rx_buf = Gpa::from_pfn(LEAF_BUF_BASE_PFN + 32);
    let before = m.world().guest_read_memory(rx_buf, 800);
    let faults = m.world().phys_iommu.fault_count();
    m.net_rx(0, 800);
    assert_eq!(m.world().phys_iommu.fault_count(), faults + 1);
    assert_eq!(m.world().guest_read_memory(rx_buf, 800), before);
}

#[test]
fn faulting_passthrough_dma_evicts_nothing_from_a_full_ring() {
    use dvh_devices::nic::WIRE_CAPACITY;
    let mut m = Machine::build(MachineConfig::passthrough(2));
    for _ in 0..WIRE_CAPACITY / 8 + 1 {
        m.net_tx(0, 8, 1500);
    }
    let before = m.world().nic.wire().clone();
    let sent = m.world().nic.tx_frames();
    assert_eq!(before.len(), WIRE_CAPACITY);
    let vf = m.world().nic.function_bdf(1);
    m.world_mut().phys_iommu.detach(vf);
    m.net_tx(0, 2, 900);
    assert_eq!(
        *m.world().nic.wire(),
        before,
        "a dropped frame must not evict a frame already on the wire"
    );
    assert_eq!(m.world().nic.tx_frames(), sent);
}
