//! Tests that encode the paper's *design figures* as event-sequence
//! assertions, using the tracer: Fig. 1 (exit multiplication vs DVH),
//! Fig. 4 (nested IPI delivery) and Fig. 5 (nested IPI delivery with
//! virtual IPIs).

use dvh_arch::vmx::ExitReason;
use dvh_core::{Machine, MachineConfig};
use dvh_hypervisor::TraceEvent;

fn trace_of(mut m: Machine, op: impl FnOnce(&mut Machine)) -> Vec<TraceEvent> {
    m.world_mut().enable_tracing(1 << 16);
    op(&mut m);
    m.world_mut().take_trace()
}

/// Fig. 1a: an L2 hardware access without DVH — the access traps, the
/// exit is forwarded to L1 with multiple traps to L0, L1 emulates,
/// and switching back costs more traps.
#[test]
fn figure_1a_hardware_access_without_dvh() {
    let events = trace_of(Machine::build(MachineConfig::baseline(2)), |m| {
        m.program_timer(0);
    });
    // Step 1: the nested VM's access exits (lands at L0 first).
    assert!(matches!(
        events[0],
        TraceEvent::Exit {
            from_level: 2,
            reason: ExitReason::MsrWrite,
            ..
        }
    ));
    // Steps 2–4: the exit is delivered to the L1 hypervisor, and the
    // switch to and from L1 causes multiple further traps to L0.
    let interventions: Vec<_> = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Intervention { hv_level: 1, .. }))
        .collect();
    assert_eq!(interventions.len(), 1, "the timer exit is L1's to handle");
    let l1_traps = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Exit { from_level: 1, .. }))
        .count();
    assert!(
        l1_traps >= 5,
        "switching to/from L1 must itself trap repeatedly (got {l1_traps})"
    );
}

/// Fig. 1b: the same access with DVH — L0 emulates the hardware for
/// L2 directly and returns; no guest-hypervisor involvement at all.
#[test]
fn figure_1b_hardware_access_with_dvh() {
    let events = trace_of(Machine::build(MachineConfig::dvh(2)), |m| {
        m.program_timer(0);
    });
    assert!(matches!(
        events[0],
        TraceEvent::Exit {
            from_level: 2,
            reason: ExitReason::MsrWrite,
            ..
        }
    ));
    assert!(events.iter().any(|e| matches!(
        e,
        TraceEvent::DvhIntercept {
            mechanism: "vtimer",
            ..
        }
    )));
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, TraceEvent::Intervention { .. })),
        "Fig. 1b removes steps 2 and 4: no guest hypervisor switch"
    );
    assert_eq!(
        events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Exit { .. }))
            .count(),
        1,
        "one exit total: access -> L0 -> return"
    );
}

/// Fig. 4: sending an IPI between nested VM vCPUs without virtual
/// IPIs. The ICR write traps (1), L0 enters L1 for ICR emulation (2),
/// L1 updates the PI descriptor (3) and asks the hardware to post —
/// which traps again (4), L0 sends the posted interrupt (5), and the
/// destination receives it without any exit on its side (6–7).
#[test]
fn figure_4_nested_ipi_without_virtual_ipis() {
    let events = trace_of(Machine::build(MachineConfig::baseline(2)), |m| {
        m.world_mut().guest_send_ipi(0, 1, 0x41);
    });
    // Step 1: ICR write exit from L2 on cpu0.
    assert!(matches!(
        events[0],
        TraceEvent::Exit {
            from_level: 2,
            cpu: 0,
            reason: ExitReason::MsrWrite,
            ..
        }
    ));
    // Step 2: L1 is entered to emulate the ICR.
    let pos_intervention = events
        .iter()
        .position(|e| matches!(e, TraceEvent::Intervention { hv_level: 1, .. }))
        .expect("L1 must be involved");
    // Steps 3–5: while emulating, L1's own posted-interrupt request is
    // ANOTHER MsrWrite trap from level 1 (the ICR write by L1).
    let l1_icr_trap = events[pos_intervention..]
        .iter()
        .position(|e| {
            matches!(
                e,
                TraceEvent::Exit {
                    from_level: 1,
                    reason: ExitReason::MsrWrite,
                    ..
                }
            )
        })
        .expect("L1's own ICR write must trap (Fig. 4 steps 4-5)");
    // Steps 6–7: the destination receives the interrupt on cpu1 with
    // no exit on the receiving side.
    let delivery = events
        .iter()
        .position(|e| matches!(e, TraceEvent::IrqDelivered { cpu: 1, .. }))
        .expect("destination must receive the IPI");
    assert!(delivery > pos_intervention + l1_icr_trap);
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, TraceEvent::Exit { cpu: 1, .. })),
        "no hypervisor intervention is necessary on the receiving side"
    );
}

/// Fig. 5: the same IPI with virtual IPIs — the trap is handled by L0
/// directly via the VCIMT; the L1 hypervisor is not involved; the
/// receiving side is unchanged.
#[test]
fn figure_5_nested_ipi_with_virtual_ipis() {
    let events = trace_of(Machine::build(MachineConfig::dvh(2)), |m| {
        m.world_mut().guest_send_ipi(0, 1, 0x41);
    });
    assert!(matches!(
        events[0],
        TraceEvent::Exit {
            from_level: 2,
            cpu: 0,
            reason: ExitReason::MsrWrite,
            ..
        }
    ));
    assert!(events.iter().any(|e| matches!(
        e,
        TraceEvent::DvhIntercept {
            mechanism: "vipi",
            ..
        }
    )));
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, TraceEvent::Intervention { .. })),
        "the L1 hypervisor is not involved (Fig. 5)"
    );
    // Exactly one exit in the whole sequence: the sender's ICR write.
    assert_eq!(
        events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Exit { .. }))
            .count(),
        1
    );
    assert!(events
        .iter()
        .any(|e| matches!(e, TraceEvent::IrqDelivered { cpu: 1, .. })));
}

/// Every figure scenario above, re-run under the dvh-checker: the
/// VM-entry checker, the trace linter, the metrics pass and the causal
/// pass certify the exact traces the figure tests assert on (zero
/// invariant violations).
#[test]
fn figure_traces_are_certified() {
    use dvh_checker::harness::certify;

    type Scenario = (&'static str, MachineConfig, fn(&mut Machine));
    let scenarios: Vec<Scenario> = vec![
        ("fig1a", MachineConfig::baseline(2), |m| {
            m.program_timer(0);
        }),
        ("fig1b", MachineConfig::dvh(2), |m| {
            m.program_timer(0);
        }),
        ("fig4", MachineConfig::baseline(2), |m| {
            m.world_mut().guest_send_ipi(0, 1, 0x41);
        }),
        ("fig5", MachineConfig::dvh(2), |m| {
            m.world_mut().guest_send_ipi(0, 1, 0x41);
        }),
        ("fig6", MachineConfig::dvh_vp(4), |m| {
            m.net_rx(0, 1500);
        }),
    ];
    for (name, config, op) in scenarios {
        let violations = certify(&mut Machine::build(config), op);
        assert!(violations.is_empty(), "{name}: {violations:#?}");
    }
}

/// Fig. 6: recursive virtual-passthrough — "only the virtual IOMMU
/// provided by the host hypervisor is used when the virtual I/O
/// device accesses Ln memory": a 4-level DMA resolves in ONE combined
/// lookup, not one per stage.
#[test]
fn figure_6_single_combined_lookup() {
    let m = Machine::build(MachineConfig::dvh_vp(4));
    let shadow = m.world().shadow_io.as_ref().unwrap();
    let leaf = dvh_hypervisor::world::LEAF_BUF_BASE_PFN;
    let t = shadow.translate(leaf, dvh_memory::Perms::RW).unwrap();
    // One 4-level radix walk, not 4 stage walks of 4 levels each.
    assert_eq!(t.walk_refs, 4);
    assert_eq!(t.pfn, m.world().leaf_host_pfn(leaf));
}
