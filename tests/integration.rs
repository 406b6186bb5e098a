//! Cross-crate integration tests: end-to-end scenarios spanning the
//! architecture model, memory system, devices, hypervisor, DVH
//! mechanisms, workloads, and migration.

use dvh_arch::vmx::ExitReason;
use dvh_core::{migration_cap, Machine, MachineConfig};
use dvh_devices::nic::{Frame, WIRE_CAPACITY};
use dvh_devices::vhost::VhostStats;
use dvh_hypervisor::world::{LEAF_BUF_BASE_PFN, LEAF_RX_BUF_PFN, STAGE_PFN_OFFSET};
use dvh_memory::Gpa;
use dvh_migration::{migrate_nested_vm, MigrationConfig};
use dvh_workloads::{run_app, run_micro, AppId};

// ---- Virtual-passthrough datapath --------------------------------------

#[test]
fn vp_tx_data_flows_end_to_end_through_three_levels() {
    // An L3 VM transmits through a virtual-passthrough device: the
    // payload must cross two vIOMMU stages plus L0's stage and arrive
    // intact on the wire, with zero guest-hypervisor interventions.
    let mut m = Machine::build(MachineConfig::dvh(3));
    let payload: Vec<u8> = (0..1400u32).map(|i| (i * 7 % 251) as u8).collect();
    m.world_mut()
        .guest_write_memory(0, Gpa::from_pfn(LEAF_BUF_BASE_PFN), &payload);
    let before = m.world().stats.total_interventions();
    m.net_tx(0, 1, payload.len() as u32);
    assert_eq!(m.world().stats.total_interventions(), before);
    let wire = m.world().nic.wire();
    assert_eq!(wire.len(), 1);
    assert_eq!(wire[0].bytes(), payload);
}

#[test]
fn vp_rx_dma_lands_in_leaf_memory_and_is_dirty_tracked() {
    let mut m = Machine::build(MachineConfig::dvh(2));
    let frame = Frame::patterned(1200, 0x42);
    m.world_mut().external_packet_arrival(0, &frame);
    // The RX buffer the device model posts is at leaf PFN base+32.
    let got = m
        .world()
        .guest_read_memory(Gpa::from_pfn(LEAF_BUF_BASE_PFN + 32), 1200);
    assert_eq!(got, frame.bytes());
    // And the DMA was dirty-logged for migration, as the leaf page and
    // as the L1 page backing it.
    assert!(m.world().leaf_dirty.is_dirty(LEAF_BUF_BASE_PFN + 32));
    assert!(m
        .world()
        .l1_dirty
        .is_dirty(LEAF_BUF_BASE_PFN + 32 + STAGE_PFN_OFFSET));
}

#[test]
fn passthrough_rx_is_not_dirty_tracked() {
    // The flip side of §3.6: physical passthrough DMA is invisible to
    // the hypervisor.
    let mut m = Machine::build(MachineConfig::passthrough(2));
    m.world_mut()
        .external_packet_arrival(0, &Frame::patterned(800, 1));
    assert!(m.world().leaf_dirty.is_clean());
}

#[test]
fn passthrough_rx_counts_real_bytes_and_queues_nothing() {
    // The VF DMAs each frame straight into the leaf: its byte counter
    // must see every frame, and no placeholder may pile up in its RX
    // queue.
    let mut m = Machine::build(MachineConfig::passthrough(2));
    let n = 50u64;
    for _ in 0..n {
        m.net_rx(0, 800);
    }
    let vf = m.world_mut().nic.function_mut(1);
    assert!(
        vf.rx_queue.is_empty(),
        "{} frames queued",
        vf.rx_queue.len()
    );
    assert_eq!(vf.rx_bytes, n * 800);
}

#[test]
fn passthrough_rx_counts_no_bytes_for_a_faulted_frame() {
    // With the VF detached from the physical IOMMU its receive DMA
    // faults: the frame is dropped, so the VF has received nothing.
    let mut m = Machine::build(MachineConfig::passthrough(2));
    let vf = m.world().nic.function_bdf(1);
    m.world_mut().phys_iommu.detach(vf);
    let faults = m.world().phys_iommu.fault_count();
    m.net_rx(0, 800);
    assert!(m.world().phys_iommu.fault_count() > faults);
    assert_eq!(m.world_mut().nic.function_mut(1).rx_bytes, 0);
}

#[test]
fn passthrough_leaves_the_vhost_backend_idle() {
    // The VF does its own DMA through the physical IOMMU: L0's vhost
    // backend neither receives nor transmits a frame.
    for levels in [1, 2] {
        for app in [AppId::NetperfMaerts, AppId::NetperfRr] {
            let mut m = Machine::build(MachineConfig::passthrough(levels));
            run_app(&mut m, &app.mix(), 20);
            assert!(
                m.world_mut().nic.function_mut(1).rx_bytes > 0,
                "{app:?} at L{levels}"
            );
            assert_eq!(
                m.world().vhost[0].stats,
                VhostStats::default(),
                "{app:?} at L{levels}"
            );
        }
    }
}

// ---- Bounded wire ----------------------------------------------------------

#[test]
fn a_tx_batch_larger_than_the_ring_reaches_the_wire_whole() {
    // 300 frames do not fit a 256-descriptor ring: the driver kicks the
    // batch queued so far when the ring fills, and sends the rest after.
    for (name, cfg) in [
        ("L2+PT", MachineConfig::passthrough(2)),
        ("L2 virtio", MachineConfig::baseline(2)),
        ("L2 DVH-VP", MachineConfig::dvh_vp(2)),
    ] {
        let mut m = Machine::build(cfg);
        let sent = m.world().nic.tx_frames();
        m.world_mut().guest_net_tx(0, 300, 100);
        assert_eq!(m.world().nic.tx_frames(), sent + 300, "{name}");
    }
}

#[test]
fn long_maerts_runs_keep_a_full_ring_and_count_every_frame() {
    // MAERTS flushes 43 frames per transaction in 6 kicks of 7: 42
    // frames per transaction reach the wire, far more than it keeps.
    let txns = 2_000u32;
    for (name, cfg, via_vhost) in [
        ("L1", MachineConfig::baseline(1), true),
        ("L1+PT", MachineConfig::passthrough(1), false),
        ("L2+DVH", MachineConfig::dvh(2), true),
    ] {
        let mut m = Machine::build(cfg);
        run_app(&mut m, &AppId::NetperfMaerts.mix(), txns);
        let w = m.world();
        assert_eq!(w.nic.wire().len(), WIRE_CAPACITY, "{name}");
        assert_eq!(w.nic.tx_frames(), 42 * txns as u64, "{name}");
        if via_vhost {
            assert_eq!(w.nic.tx_frames(), w.vhost[0].stats.tx_packets, "{name}");
        }
    }
}

#[test]
fn recycled_wire_buffers_carry_exact_short_payloads() {
    // Fill the ring with full-size frames first; a short guest payload
    // must still arrive with its exact length and bytes, with no stale
    // tail, though its buffer page has held longer frames.
    for (name, cfg) in [
        ("L1 virtio", MachineConfig::baseline(1)),
        ("L2 shadow I/O", MachineConfig::dvh(2)),
        ("L2 physical IOMMU", MachineConfig::passthrough(2)),
    ] {
        let mut m = Machine::build(cfg);
        for _ in 0..WIRE_CAPACITY / 8 + 1 {
            m.net_tx(0, 8, 1500);
        }
        let payload: Vec<u8> = (0..200u32).map(|i| (i * 13 % 251) as u8 + 1).collect();
        m.world_mut()
            .guest_write_memory(0, Gpa::from_pfn(LEAF_BUF_BASE_PFN), &payload);
        m.net_tx(0, 1, payload.len() as u32);
        let wire = m.world().nic.wire();
        assert_eq!(wire.len(), WIRE_CAPACITY, "{name}");
        assert_eq!(wire.back().unwrap().bytes(), payload, "{name}");
        assert_eq!(wire[WIRE_CAPACITY - 2].len(), 1500, "{name}");
    }
}

#[test]
fn frames_on_the_wire_keep_their_bytes_when_the_guest_rewrites_the_buffer() {
    // A frame shares the guest's TX page copy-on-write: the guest's
    // next store into that page must not reach the frame already sent.
    for (name, cfg) in [
        ("L1 virtio", MachineConfig::baseline(1)),
        ("L2 shadow I/O", MachineConfig::dvh(2)),
        ("L2 physical IOMMU", MachineConfig::passthrough(2)),
        ("L3 virtio cascade", MachineConfig::baseline(3)),
    ] {
        let mut m = Machine::build(cfg);
        let old: Vec<u8> = (0..600u32).map(|i| (i * 7 % 251) as u8).collect();
        let new = [0xEE; 600];
        let buf = Gpa::from_pfn(LEAF_BUF_BASE_PFN).offset(100);
        m.world_mut().guest_write_memory(0, buf, &old);
        m.net_tx(0, 1, 700);
        m.world_mut().guest_write_memory(0, buf, &new);
        assert_eq!(m.world().nic.wire()[0].bytes()[100..], old, "{name}");
        m.net_tx(0, 1, 700);
        let wire = m.world().nic.wire();
        assert_eq!(wire.len(), 2, "{name}");
        assert_eq!(wire[0].bytes()[100..], old, "{name}");
        assert_eq!(wire[1].bytes()[100..], new, "{name}");
        assert_eq!(wire[1].bytes()[..100], [0; 100], "{name}");
    }
}

#[test]
fn cascade_rx_lands_in_the_posted_rx_buffer() {
    for levels in [2, 3] {
        let mut m = Machine::build(MachineConfig::baseline(levels));
        let frame = Frame::patterned(1000, 0x33);
        m.world_mut().external_packet_arrival(0, &frame);
        let w = m.world();
        let got = w.guest_read_memory(Gpa::from_pfn(LEAF_RX_BUF_PFN), 1000);
        assert_eq!(got, frame.bytes(), "L{levels}");
        assert!(w.leaf_dirty.is_dirty(LEAF_RX_BUF_PFN), "L{levels}");
        // TX buffer 0 is neither written nor dirtied.
        let tx0 = w.leaf_host_pfn(LEAF_BUF_BASE_PFN);
        assert!(w.host_mem.page(tx0).is_none(), "L{levels}");
        assert!(!w.leaf_dirty.is_dirty(LEAF_BUF_BASE_PFN), "L{levels}");
    }
}

#[test]
fn shadow_io_table_composes_the_canonical_stage_chain() {
    for levels in [2usize, 3, 4] {
        let m = Machine::build(MachineConfig::dvh_vp(levels));
        let shadow = m.world().shadow_io.as_ref().expect("shadow table built");
        let host = shadow.lookup(LEAF_BUF_BASE_PFN).expect("mapped").0;
        assert_eq!(
            host,
            LEAF_BUF_BASE_PFN + levels as u64 * STAGE_PFN_OFFSET,
            "levels={levels}"
        );
    }
}

// ---- Exit-ledger invariants ---------------------------------------------

#[test]
fn dvh_timer_eliminates_guest_hypervisor_timer_interventions() {
    let mut vanilla = Machine::build(MachineConfig::baseline(2));
    vanilla.program_timer(0);
    assert!(vanilla.world().stats.total_interventions() > 0);

    let mut dvh = Machine::build(MachineConfig::dvh(2));
    for _ in 0..10 {
        dvh.program_timer(0);
    }
    assert_eq!(dvh.world().stats.total_interventions(), 0);
    assert_eq!(dvh.world().stats.dvh_intercepts["vtimer"], 10);
    // The leaf still exits — to L0 only (DVH trades guest-hypervisor
    // exits for host-hypervisor exits, §3).
    assert_eq!(dvh.world().stats.exits_with(2, ExitReason::MsrWrite), 10);
}

#[test]
fn every_hardware_exit_comes_from_a_real_level() {
    let mut m = Machine::build(MachineConfig::baseline(3));
    m.hypercall(0);
    m.program_timer(0);
    m.send_ipi(0, 1);
    for ((level, _), _) in m.world().stats.exits.iter() {
        assert!((1..=3).contains(&level));
    }
}

#[test]
fn hypercall_exit_counts_grow_with_depth() {
    let mut counts = Vec::new();
    for levels in 1..=3 {
        let mut m = Machine::build(MachineConfig::baseline(levels));
        m.hypercall(0);
        counts.push(m.world().stats.total_exits());
    }
    assert_eq!(counts[0], 1, "an L1 hypercall is exactly one exit");
    assert!(counts[1] > 10 * counts[0]);
    assert!(counts[2] > 10 * counts[1]);
}

// ---- Timer semantics across levels ----------------------------------------

#[test]
fn vtimer_combines_tsc_offsets_across_the_chain() {
    let mut m = Machine::build(MachineConfig::dvh(3));
    m.world_mut().guest_program_timer(0, 12_345);
    // The host-programmed deadline accounts for every level's offset
    // (the synthetic per-level offsets are k * 0x1000, k starting at 1).
    let expected_offset = m.world().combined_tsc_offset(2, 0);
    assert_eq!(expected_offset, 0x1000 + 0x2000 + 0x3000);
    let deadline = m
        .world()
        .vmcs(2, 0)
        .read(dvh_arch::vmx::field::DVH_VTIMER_DEADLINE);
    assert_eq!(deadline, 12_345 + expected_offset);
}

#[test]
fn timer_fire_reaches_an_idle_nested_vm() {
    let mut m = Machine::build(MachineConfig::dvh(2));
    m.world_mut().guest_program_timer(0, 1_000);
    assert_eq!(m.world().timers[0].deadline, Some(1_000));
    m.world_mut().guest_hlt(0);
    assert!(m.world().is_halted(0));
    m.world_mut().fire_timer(0, true);
    assert!(!m.world().is_halted(0));
    assert_eq!(m.world().timers[0].deadline, None);
}

// ---- Microbenchmark / workload coherence ----------------------------------

#[test]
fn micro_and_app_results_tell_the_same_story() {
    // If the microbenchmarks say DVH wins at L2, the application
    // overheads must agree, for every app.
    let mix_ids = [AppId::Apache, AppId::Memcached, AppId::NetperfRr];
    for id in mix_ids {
        let mix = id.mix();
        let mut vanilla = Machine::build(MachineConfig::baseline(2));
        let o_vanilla = run_app(&mut vanilla, &mix, 100).overhead;
        let mut dvh = Machine::build(MachineConfig::dvh(2));
        let o_dvh = run_app(&mut dvh, &mix, 100).overhead;
        assert!(
            o_dvh < o_vanilla / 2.0,
            "{}: {o_dvh} !< {o_vanilla}/2",
            mix.name
        );
    }
}

#[test]
fn run_micro_is_deterministic_across_machines() {
    let mut a = Machine::build(MachineConfig::baseline(2));
    let mut b = Machine::build(MachineConfig::baseline(2));
    assert_eq!(run_micro(&mut a, 4), run_micro(&mut b, 4));
}

// ---- Migration end-to-end ---------------------------------------------------

#[test]
fn migrated_nested_vm_memory_is_bit_identical_under_io_load() {
    let mut m = Machine::build(MachineConfig::dvh(2));
    // Working set with recognizable content.
    for i in 0..40u64 {
        let data: Vec<u8> = (0..256).map(|b| (b as u64 * i % 255) as u8).collect();
        m.world_mut()
            .guest_write_memory(0, Gpa::from_pfn(LEAF_BUF_BASE_PFN + i % 60), &data);
    }
    // Device DMA during migration rounds.
    let mut rounds = 3;
    let report = migrate_nested_vm(m.world_mut(), MigrationConfig::default(), |w| {
        if rounds > 0 {
            rounds -= 1;
            w.external_packet_arrival(0, &Frame::patterned(900, rounds as u8));
        }
    })
    .unwrap();
    assert!(report.converged);
    assert!(report.verified, "destination must match source exactly");
}

#[test]
fn device_state_capture_reflects_traffic_and_round_trips() {
    let mut m = Machine::build(MachineConfig::dvh(2));
    let s0 = migration_cap::capture_device_state(m.world_mut()).unwrap();
    m.net_tx(0, 3, 500);
    let s1 = migration_cap::capture_device_state(m.world_mut()).unwrap();
    assert_ne!(s0, s1, "traffic must change captured device state");
    assert!(migration_cap::state_matches(m.world_mut(), &s1));
}

// ---- Xen guest hypervisor ---------------------------------------------------

#[test]
fn xen_guest_hypervisor_is_slower_but_vp_still_works() {
    let apache = AppId::Apache.mix();
    let mut kvm = Machine::build(MachineConfig::baseline(2));
    let o_kvm = run_app(&mut kvm, &apache, 100).overhead;
    let mut xen = Machine::build(MachineConfig::baseline(2).with_xen_guest());
    let o_xen = run_app(&mut xen, &apache, 100).overhead;
    assert!(o_xen > o_kvm * 1.3, "xen {o_xen} vs kvm {o_kvm}");

    // Virtual-passthrough needs no guest hypervisor awareness, so it
    // helps Xen too (Fig. 10).
    let mut xen_vp = Machine::build(MachineConfig::dvh_vp(2).with_xen_guest());
    let o_vp = run_app(&mut xen_vp, &apache, 100).overhead;
    assert!(o_vp < o_xen * 0.75, "vp {o_vp} vs xen nested {o_xen}");
}

// ---- Multi-vCPU interactions -------------------------------------------------

#[test]
fn ipis_between_all_vcpu_pairs_work() {
    let mut m = Machine::build(MachineConfig::dvh(2));
    let n = m.vcpus();
    for src in 0..n {
        for dst in 0..n {
            if src != dst {
                let c = m.send_ipi(src, dst);
                assert!(c.as_u64() > 0);
            }
        }
    }
    assert_eq!(m.world().stats.total_interventions(), 0);
}

#[test]
fn per_cpu_clocks_only_move_forward() {
    let mut m = Machine::build(MachineConfig::baseline(2));
    let mut last = vec![0u64; m.vcpus()];
    for i in 0..20 {
        m.hypercall(i % 2);
        m.send_ipi(i % 2, (i + 1) % 2);
        for (cpu, l) in last.iter_mut().enumerate() {
            let now = m.now(cpu).as_u64();
            assert!(now >= *l, "cpu{cpu} went backwards");
            *l = now;
        }
    }
}
