//! Integration tests for the dvh-checker invariant layer.
//!
//! Positive direction: every configuration the paper's figures use
//! (Fig. 7, 8, 9) runs the standard workload under VM-entry checking
//! and trace linting with zero violations.
//!
//! Negative direction: one deliberately-broken fixture per invariant,
//! proving each check actually fires — a checker that never fails
//! verifies nothing.

use dvh_arch::costs::CostModel;
use dvh_arch::vmx::{ctrl, field, ExitReason, ShadowFieldSet};
use dvh_arch::Cycles;
use dvh_checker::causal_lint::lint_causal;
use dvh_checker::harness::vmentry_violations;
use dvh_checker::harness::{check_machine, exercise, fig7_configs, TRACE_CAPACITY};
use dvh_checker::source_lint::lint_file_text;
use dvh_checker::trace_lint::{lint_trace, TraceContext};
use dvh_checker::Violation;
use dvh_core::{DvhFlags, Machine, MachineConfig};
use dvh_hypervisor::{TraceEvent, World, WorldConfig};

// ---- Positive: paper-figure configurations are certified -----------------

fn assert_certified(name: &str, config: MachineConfig) {
    let violations = check_machine(config);
    assert!(violations.is_empty(), "{name}: {violations:#?}");
}

#[test]
fn fig7_configs_certified() {
    for (name, config) in fig7_configs() {
        assert_certified(name, config);
    }
}

#[test]
fn fig8_incremental_dvh_configs_certified() {
    let pi = DvhFlags {
        viommu_posted_interrupts: true,
        ..DvhFlags::NONE
    };
    let pi_ipi = DvhFlags {
        virtual_ipis: true,
        ..pi
    };
    let pi_ipi_t = DvhFlags {
        virtual_timers: true,
        ..pi_ipi
    };
    for (name, config) in [
        ("fig8/+PI", MachineConfig::dvh_partial(2, pi)),
        ("fig8/+vIPI", MachineConfig::dvh_partial(2, pi_ipi)),
        ("fig8/+vtimer", MachineConfig::dvh_partial(2, pi_ipi_t)),
        ("fig8/+vidle", MachineConfig::dvh(2)),
    ] {
        assert_certified(name, config);
    }
}

#[test]
fn fig9_l3_configs_certified() {
    for (name, config) in [
        ("fig9/l3", MachineConfig::baseline(3)),
        ("fig9/l3-pt", MachineConfig::passthrough(3)),
        ("fig9/l3-dvh-vp", MachineConfig::dvh_vp(3)),
        ("fig9/l3-dvh", MachineConfig::dvh(3)),
    ] {
        assert_certified(name, config);
    }
}

#[test]
fn xen_guest_hypervisor_certified() {
    assert_certified("fig10/xen", MachineConfig::baseline(2).with_xen_guest());
}

// ---- Negative: VM-entry invariants fire on broken worlds -----------------

fn rules(vs: &[Violation]) -> Vec<&'static str> {
    vs.iter().map(|v| v.rule).collect()
}

/// Breaks one VMCS field on a running world and asserts the named
/// vmentry rule fires, attributed to the right level.
fn broken_world_fires(tamper: impl FnOnce(&mut World), expect_rule: &str, expect_level: usize) {
    let mut w = World::new(CostModel::calibrated(), WorldConfig::baseline(2));
    w.enable_vmentry_checks();
    tamper(&mut w);
    w.guest_hypercall(0);
    w.guest_program_timer(0, 1 << 30);
    let vs = vmentry_violations(&mut w);
    assert!(
        vs.iter()
            .any(|v| v.rule == expect_rule && v.location.contains(&format!("L{expect_level}"))),
        "expected {expect_rule} at L{expect_level}, got {vs:#?}"
    );
}

#[test]
fn broken_pi_descriptor_fires() {
    broken_world_fires(
        |w| w.vmcs_mut(0, 0).write(field::POSTED_INTR_DESC_ADDR, 0),
        "posted-interrupt-descriptor",
        0,
    );
}

#[test]
fn broken_pi_vector_fires() {
    broken_world_fires(
        |w| {
            w.vmcs_mut(1, 0)
                .write(field::POSTED_INTR_NOTIFICATION_VECTOR, 6)
        },
        "posted-interrupt-vector",
        1,
    );
}

#[test]
fn broken_shadow_link_pointer_fires() {
    broken_world_fires(
        |w| w.vmcs_mut(0, 0).write(field::VMCS_LINK_POINTER, 0),
        "shadow-vmcs-link-pointer",
        0,
    );
}

#[test]
fn broken_ept_pointer_fires() {
    broken_world_fires(
        |w| w.vmcs_mut(1, 1).write(field::EPT_POINTER, 0),
        "ept-pointer",
        1,
    );
}

#[test]
fn secondary_without_activation_fires() {
    broken_world_fires(
        |w| {
            w.vmcs_mut(0, 0).clear_bits(
                field::CPU_BASED_EXEC_CONTROLS,
                ctrl::cpu::SECONDARY_CONTROLS,
            )
        },
        "secondary-controls-activated",
        0,
    );
}

#[test]
fn unadvertised_dvh_control_fires() {
    broken_world_fires(
        |w| {
            w.dvh_advertised = 0;
            w.vmcs_mut(1, 0)
                .set_bits(field::DVH_EXEC_CONTROLS, ctrl::dvh::VIRTUAL_TIMER);
        },
        "dvh-capability",
        1,
    );
}

// ---- Negative: trace invariants fire on broken logs ----------------------

fn ctx_for(leaf_level: usize) -> TraceContext<'static> {
    TraceContext {
        leaf_level,
        shadow: None,
        dropped: 0,
    }
}

fn exit(at: u64, cpu: usize, from_level: usize, reason: ExitReason) -> TraceEvent {
    TraceEvent::Exit {
        at: Cycles::new(at),
        cpu,
        from_level,
        reason,
        vmcs_field: None,
    }
}

fn completed(at: u64, cpu: usize, from_level: usize, reason: ExitReason, spent: u64) -> TraceEvent {
    TraceEvent::Completed {
        at: Cycles::new(at),
        cpu,
        from_level,
        reason,
        spent: Cycles::new(spent),
    }
}

#[test]
fn trace_nonmonotonic_time_fires() {
    let events = [
        exit(100, 0, 2, ExitReason::Vmcall),
        TraceEvent::Intervention {
            at: Cycles::new(50), // earlier than the exit
            cpu: 0,
            hv_level: 1,
            reason: ExitReason::Vmcall,
        },
    ];
    assert!(rules(&lint_trace(&events, &ctx_for(2))).contains(&"time-monotone"));
}

#[test]
fn trace_intervention_outside_exit_fires() {
    let events = [TraceEvent::Intervention {
        at: Cycles::new(10),
        cpu: 0,
        hv_level: 1,
        reason: ExitReason::MsrWrite,
    }];
    assert!(rules(&lint_trace(&events, &ctx_for(3))).contains(&"exit-nesting"));
}

#[test]
fn trace_intervention_at_or_above_exiting_level_fires() {
    let events = [
        exit(10, 0, 2, ExitReason::Vmcall),
        TraceEvent::Intervention {
            at: Cycles::new(20),
            cpu: 0,
            hv_level: 2, // must be strictly below the exiting level
            reason: ExitReason::Vmcall,
        },
    ];
    assert!(rules(&lint_trace(&events, &ctx_for(3))).contains(&"exit-nesting"));
}

#[test]
fn trace_relay_inside_an_exit_or_past_hierarchy_fires() {
    // A relay runs for a host interrupt outside any exit; inside one it
    // would be an exit delivery, which only `Intervention` may record.
    let relay = |hv_level| TraceEvent::Relay {
        at: Cycles::new(20),
        cpu: 0,
        hv_level,
    };
    assert!(lint_trace(&[relay(1)], &ctx_for(2)).is_empty());
    let events = [exit(10, 0, 2, ExitReason::Vmcall), relay(1)];
    let vs = lint_trace(&events, &ctx_for(2));
    assert_eq!(rules(&vs), ["exit-nesting", "completed-balance"]);
    let vs = lint_trace(&[relay(2)], &ctx_for(2));
    assert_eq!(rules(&vs), ["reflection-depth"]);
}

#[test]
fn trace_reflection_past_hierarchy_fires() {
    // An exit from a level deeper than the hierarchy supports.
    let events = [exit(10, 0, 4, ExitReason::Vmcall)];
    assert!(rules(&lint_trace(&events, &ctx_for(3))).contains(&"reflection-depth"));
    // leaf_level() == 1 worlds have no guest hypervisor to reflect to.
    let events = [
        exit(10, 0, 1, ExitReason::Vmcall),
        TraceEvent::Intervention {
            at: Cycles::new(20),
            cpu: 0,
            hv_level: 1,
            reason: ExitReason::Vmcall,
        },
    ];
    assert!(rules(&lint_trace(&events, &ctx_for(1))).contains(&"reflection-depth"));
}

#[test]
fn trace_unbalanced_exit_fires() {
    let events = [exit(10, 0, 2, ExitReason::Vmcall)]; // never completed
    assert!(rules(&lint_trace(&events, &ctx_for(2))).contains(&"completed-balance"));
    let events = [completed(10, 0, 2, ExitReason::Vmcall, 5)]; // never opened
    assert!(rules(&lint_trace(&events, &ctx_for(2))).contains(&"completed-balance"));
}

#[test]
fn trace_wrong_spent_cycles_fires() {
    let events = [
        exit(100, 0, 2, ExitReason::Vmcall),
        completed(300, 0, 2, ExitReason::Vmcall, 150), // actually spent 200
    ];
    assert!(rules(&lint_trace(&events, &ctx_for(2))).contains(&"cycle-attribution"));
}

#[test]
fn trace_shadowed_field_reflection_fires() {
    let shadow = ShadowFieldSet::kvm_default();
    assert!(shadow.covers_read(field::GUEST_RIP));
    let ctx = TraceContext {
        leaf_level: 2,
        shadow: Some(&shadow),
        dropped: 0,
    };
    let events = [TraceEvent::Exit {
        at: Cycles::new(10),
        cpu: 0,
        from_level: 1,
        reason: ExitReason::Vmread,
        vmcs_field: Some(field::GUEST_RIP),
    }];
    assert!(rules(&lint_trace(&events, &ctx)).contains(&"shadow-bypass"));
}

#[test]
fn trace_dvh_then_reflection_fires() {
    let events = [
        exit(10, 0, 2, ExitReason::MsrWrite),
        TraceEvent::DvhIntercept {
            at: Cycles::new(20),
            cpu: 0,
            mechanism: "vtimer",
        },
        TraceEvent::Intervention {
            at: Cycles::new(30),
            cpu: 0,
            hv_level: 1,
            reason: ExitReason::MsrWrite,
        },
    ];
    assert!(rules(&lint_trace(&events, &ctx_for(2))).contains(&"dvh-reflected"));
}

#[test]
fn truncated_trace_refused() {
    let mut m = Machine::build(MachineConfig::baseline(2));
    m.world_mut().enable_tracing(4); // absurdly small: guarantees drops
    exercise(&mut m);
    let w = m.world();
    assert!(w.trace_dropped() > 0);
    let ctx = TraceContext::for_world(w);
    assert_eq!(
        rules(&lint_trace(w.trace_events(), &ctx)),
        ["trace-truncated"]
    );
}

#[test]
fn tampered_stats_ledger_breaks_conservation() {
    let mut m = Machine::build(MachineConfig::baseline(2));
    {
        let w = m.world_mut();
        w.enable_tracing(TRACE_CAPACITY);
        w.reset_stats();
    }
    m.hypercall(0);
    // Siphon cycles out of the ledger behind the trace's back.
    let w = m.world_mut();
    *w.stats.cycles_by_reason.get_mut(2, ExitReason::Vmcall) -= Cycles::new(1);
    let vs = lint_causal(w.trace_events(), w.num_cpus(), w.trace_dropped(), &w.stats);
    assert_eq!(rules(&vs), ["causal-roots-conserved"], "{vs:#?}");
    assert!(vs[0].location.contains("Vmcall"));
}

// ---- Negative: source lints fire on synthetic sources --------------------

#[test]
fn source_lints_fire_on_synthetic_files() {
    let debug = lint_file_text(
        "crates/hypervisor/src/exits.rs",
        "fn f(level: usize) {\n    debug_assert!(level >= 1);\n}\n",
    );
    assert_eq!(rules_src(&debug), ["debug-assert-exit-path"]);

    let raw = format!(
        "fn f(w: &mut World) {{\n    w{}{}1][0].write(2, 3);\n}}\n",
        ".vmcs", "["
    );
    let vmcs = lint_file_text("crates/core/src/machine.rs", &raw);
    assert_eq!(rules_src(&vmcs), ["raw-vmcs-index"]);

    let level = lint_file_text(
        "crates/hypervisor/src/io.rs",
        "fn f(&mut self, owner: usize) {\n    self.virtio[owner].kick();\n}\n",
    );
    assert_eq!(rules_src(&level), ["unchecked-level-index"]);
}

fn rules_src(vs: &[Violation]) -> Vec<&'static str> {
    vs.iter().map(|v| v.rule).collect()
}

// ---- End-to-end: the checked engine still reproduces the paper -----------

#[test]
fn checking_does_not_change_simulated_costs() {
    // The checker must observe, never perturb: identical cycle totals
    // with and without checks enabled.
    let run = |checked: bool| {
        let mut m = Machine::build(MachineConfig::dvh(2));
        if checked {
            m.world_mut().enable_vmentry_checks();
            m.world_mut().enable_tracing(TRACE_CAPACITY);
        }
        exercise(&mut m);
        m.now(0)
    };
    assert_eq!(run(false), run(true));
}
