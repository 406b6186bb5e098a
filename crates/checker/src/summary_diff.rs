//! Differential certification of exit summaries.
//!
//! The exit engine memoizes guest-hypervisor primitives (exit
//! summaries, `dvh-hypervisor`'s `summary.rs`) and replays them instead
//! of re-running their recursion. This pass is the oracle for that fast
//! path: it runs each scenario twice, once with summaries and once with
//! [`World::disable_exit_summaries`], and requires the two worlds to
//! agree bit for bit in every field `dvh-hypervisor` classifies as
//! simulated state ([`World::state_diff`]): every `RunStats` ledger,
//! every per-CPU clock, every VMCS (values and written-bitset) and every
//! watched component (PI descriptors, LAPICs, timers, halt chains,
//! memory, dirty logs, devices, IOMMUs and the rest), write epochs
//! included. This module only maps each difference to a violation.
//!
//! Scenarios: the Table 3 matrix, every Fig. 7–10 configuration ×
//! application at [`FIGURE_TXNS`] transactions, the recursion
//! experiment's operations at L1–L6, and `run_micro` from L4 up to a
//! caller-chosen depth.

use crate::{Pass, Violation};
use dvh_core::{Machine, MachineConfig};
use dvh_hypervisor::{StateDiff, World};
use dvh_workloads::figures::{figure_spec, table3_configs};
use dvh_workloads::parallel::{available_workers, pmap_with_workers};
use dvh_workloads::{run_app, run_micro, AppId};

/// Transactions per figure cell in the differential run.
pub const FIGURE_TXNS: u32 = 25;

/// Deepest level of the recursion experiment that is certified against
/// full recursion (beyond it the full recursion is infeasible).
pub const RECURSION_LEVELS: usize = 6;

/// What one scenario runs on a freshly built machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `run_micro` with this many iterations.
    Micro(u32),
    /// `run_app` of one application for this many transactions.
    App(AppId, u32),
    /// One hypercall, then one timer programming, on CPU 0 (the
    /// recursion experiment's baseline row).
    HypercallTimer,
    /// One timer programming on CPU 0 (its DVH row).
    Timer,
}

impl Workload {
    fn run(self, m: &mut Machine) {
        match self {
            Workload::Micro(iters) => {
                run_micro(m, iters);
            }
            Workload::App(app, txns) => {
                run_app(m, &app.mix(), txns);
            }
            Workload::HypercallTimer => {
                m.hypercall(0);
                m.program_timer(0);
            }
            Workload::Timer => {
                m.program_timer(0);
            }
        }
    }
}

/// One differential scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Stable name, used as the violation scope.
    pub name: String,
    /// The machine it builds.
    pub config: MachineConfig,
    /// What it runs.
    pub workload: Workload,
}

/// Every scenario of the pass, with `run_micro` certified at L4 through
/// `micro_max_level`.
pub fn scenarios(micro_max_level: usize) -> Vec<Scenario> {
    let mut out = Vec::new();
    let mut push = |name: String, config: MachineConfig, workload| {
        out.push(Scenario {
            name,
            config,
            workload,
        })
    };
    for (label, config) in table3_configs() {
        push(format!("table3/{label}"), config, Workload::Micro(5));
    }
    for figure in [7, 8, 9, 10] {
        let (_, columns) = figure_spec(figure).expect("figures 7-10 are defined");
        for (label, config) in columns {
            for app in AppId::ALL {
                push(
                    format!("fig{figure}/{label}/{}", app.cli_name()),
                    config.clone(),
                    Workload::App(app, FIGURE_TXNS),
                );
            }
        }
    }
    for levels in 1..=RECURSION_LEVELS {
        push(
            format!("recursion/L{levels}"),
            MachineConfig::baseline(levels),
            Workload::HypercallTimer,
        );
        push(
            format!("recursion/L{levels}-dvh"),
            MachineConfig::dvh(levels),
            Workload::Timer,
        );
    }
    for levels in 4..=micro_max_level {
        push(
            format!("micro/L{levels}"),
            MachineConfig::baseline(levels),
            Workload::Micro(1),
        );
    }
    out
}

fn violation(rule: &'static str, location: String, detail: String) -> Violation {
    Violation {
        pass: Pass::Summary,
        rule,
        location,
        detail,
    }
}

/// Maps every difference in simulated state ([`World::state_diff`])
/// between a world run with exit summaries (`fast`) and the same run
/// with full recursion (`full`) to a violation.
pub fn diff_worlds(fast: &World, full: &World) -> Vec<Violation> {
    let vs = fast.state_diff(full).into_iter().map(|d| match d {
        StateDiff::Ledger(name) => violation(
            "summary-ledger",
            format!("RunStats.{name}"),
            "summarized run differs from full recursion".into(),
        ),
        StateDiff::Clock(cpu, this, other) => violation(
            "summary-clock",
            format!("cpu{cpu}"),
            format!("clock {this} vs full recursion {other}"),
        ),
        StateDiff::Vmcs(level, cpu, first) => violation(
            "summary-vmcs",
            format!("L{level} cpu{cpu}"),
            first.map_or_else(
                || "written fields or launch state differ".into(),
                |(p, q)| format!("{p:x?} vs full recursion {q:x?}"),
            ),
        ),
        StateDiff::Watched(name, x, y) => violation(
            "summary-component",
            format!("World.{name}"),
            format!("differs from full recursion (write epochs {x} vs {y})"),
        ),
    });
    vs.collect()
}

/// Runs one scenario with and without exit summaries and diffs the
/// results.
pub fn check_scenario(s: &Scenario) -> Vec<Violation> {
    let mut fast = Machine::build(s.config.clone());
    let mut full = Machine::build(s.config.clone());
    full.world_mut().disable_exit_summaries();
    s.workload.run(&mut fast);
    s.workload.run(&mut full);
    let mut out = diff_worlds(fast.world(), full.world());
    out.extend(unexercised(fast.world(), full.world()));
    out
}

/// The `summary-exercised` rule. A guest hypervisor (at any level ≥ 1)
/// that handled an exit ran its world-switch programs, so the run with
/// summaries (`fast`) must have recorded at least one; otherwise the
/// comparison with the full recursion (`full`) certifies nothing.
fn unexercised(fast: &World, full: &World) -> Option<Violation> {
    let intervened = full.stats.total_interventions() > 0;
    (intervened && fast.exit_summary_count() == 0).then(|| {
        violation(
            "summary-exercised",
            "memo".into(),
            "no exit summary was recorded, so the scenario certifies nothing".into(),
        )
    })
}

/// Runs [`check_scenario`] over every scenario of
/// [`scenarios`]`(micro_max_level)`, on every available worker;
/// returns the scenario count and the violations, in scenario order,
/// each located by its scenario name.
pub fn check_exit_summaries(micro_max_level: usize) -> (usize, Vec<Violation>) {
    let all = scenarios(micro_max_level);
    let out = pmap_with_workers(available_workers(), &all, |s| {
        let mut vs = check_scenario(s);
        for v in &mut vs {
            v.location = format!("{}: {}", s.name, v.location);
        }
        vs
    });
    (all.len(), out.into_iter().flatten().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_matrix_covers_every_figure_cell() {
        let s = scenarios(5);
        let cells = s
            .iter()
            .filter(|s| matches!(s.workload, Workload::App(..)))
            .count();
        assert_eq!(cells, (6 + 6 + 6 + 5) * AppId::ALL.len());
        assert_eq!(s.iter().filter(|s| s.name.starts_with("micro/")).count(), 2);
        assert_eq!(
            s.iter()
                .filter(|s| s.name.starts_with("recursion/"))
                .count(),
            2 * RECURSION_LEVELS
        );
    }

    #[test]
    fn an_l2_scenario_that_records_nothing_is_vacuous() {
        let (_, columns) = figure_spec(7).unwrap();
        let (_, nested) = columns.into_iter().find(|(l, _)| *l == "Nested").unwrap();
        let run = |summaries: bool| {
            let mut m = Machine::build(nested.clone());
            if !summaries {
                m.world_mut().disable_exit_summaries();
            }
            Workload::App(AppId::ALL[0], 2).run(&mut m);
            m
        };
        let (fast, full) = (run(true), run(false));
        assert!(full.world().stats.interventions.get(1) > 0);
        assert!(unexercised(fast.world(), full.world()).is_none());
        let v = unexercised(full.world(), full.world()).expect("vacuous run passed");
        assert_eq!(v.rule, "summary-exercised");
    }

    #[test]
    fn reflection_summaries_agree_after_every_op() {
        // A replay that goes wrong and is later overwritten by a full
        // run leaves no trace in the final state, so the worlds are
        // compared after every single operation.
        type Op = fn(&mut Machine);
        let ops: [(&str, Op); 7] = [
            ("hypercall", |m| {
                m.hypercall(0);
            }),
            ("program_timer", |m| {
                m.program_timer(0);
            }),
            ("send_ipi", |m| {
                m.send_ipi(0, 1);
            }),
            ("idle_round", |m| {
                m.idle_round(0);
            }),
            ("net_tx", |m| {
                m.net_tx(0, 4, 1500);
            }),
            ("net_rx_burst", |m| {
                m.net_rx_burst(0, 8, 1500);
            }),
            ("blk_io", |m| {
                m.blk_io(0, 4096, true);
            }),
        ];
        let configs = [
            ("baseline(2)", MachineConfig::baseline(2)),
            ("baseline(3)", MachineConfig::baseline(3)),
            ("passthrough(2)", MachineConfig::passthrough(2)),
            ("dvh_vp(3)", MachineConfig::dvh_vp(3)),
            (
                "xen baseline(2)",
                MachineConfig::baseline(2).with_xen_guest(),
            ),
        ];
        for (label, config) in configs {
            let mut fast = Machine::build(config.clone());
            let mut full = Machine::build(config);
            full.world_mut().disable_exit_summaries();
            for round in 1..=3 {
                for (op, run) in ops {
                    run(&mut fast);
                    run(&mut full);
                    let vs = diff_worlds(fast.world(), full.world());
                    assert!(vs.is_empty(), "{label} {op} #{round}: {vs:?}");
                }
            }
            assert!(fast.world().exit_summary_count() > 0, "{label}");
        }
    }

    #[test]
    fn a_divergent_vmcs_is_reported() {
        let mut a = Machine::build(MachineConfig::baseline(3));
        let b = Machine::build(MachineConfig::baseline(3));
        a.world_mut()
            .vmcs_mut(1, 2)
            .write(dvh_arch::vmx::field::GUEST_RIP, 3);
        let vs = diff_worlds(a.world(), b.world());
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].rule, "summary-vmcs");
        assert_eq!(vs[0].location, "L1 cpu2");
    }

    #[test]
    fn a_divergent_component_is_reported() {
        let mut a = Machine::build(MachineConfig::baseline(3));
        let b = Machine::build(MachineConfig::baseline(3));
        a.world_mut().virtio[0].tx.kick();
        let vs = diff_worlds(a.world(), b.world());
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].rule, "summary-component");
        assert_eq!(vs[0].location, "World.virtio");
    }

    #[test]
    fn a_divergent_ledger_and_clock_are_reported() {
        let mut a = Machine::build(MachineConfig::baseline(3));
        let b = Machine::build(MachineConfig::baseline(3));
        a.world_mut().stats.interventions.record(2);
        a.world_mut().compute(1, dvh_arch::Cycles::new(1));
        let rules: Vec<_> = diff_worlds(a.world(), b.world())
            .iter()
            .map(|v| v.rule)
            .collect();
        assert_eq!(rules, ["summary-ledger", "summary-clock"]);
    }
}
