//! Differential certification of exit summaries.
//!
//! The exit engine memoizes guest-hypervisor primitives (exit
//! summaries, `dvh-hypervisor`'s `summary.rs`) and replays them instead
//! of re-running their recursion. This pass is the oracle for that fast
//! path: it runs each scenario twice, once with summaries and once with
//! [`World::disable_exit_summaries`], and requires the two worlds to
//! agree bit for bit — every `RunStats` field, every per-CPU clock,
//! every VMCS (values and written-bitset), the emulated LAPIC timers
//! and the halt chains.
//!
//! Scenarios: the Table 3 matrix, every Fig. 7–10 configuration ×
//! application at [`FIGURE_TXNS`] transactions, the recursion
//! experiment's operations at L1–L6, and `run_micro` from L4 up to a
//! caller-chosen depth.

use crate::{Pass, Violation};
use dvh_core::{Machine, MachineConfig};
use dvh_hypervisor::World;
use dvh_workloads::figures::{figure_spec, table3_configs};
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

/// Compares the simulated state of a world run with exit summaries
/// (`fast`) against the same run with full recursion (`full`).
pub fn diff_worlds(fast: &World, full: &World) -> Vec<Violation> {
    let mut out = Vec::new();
    let (a, b) = (&fast.stats, &full.stats);
    let ledgers = [
        ("exits", a.exits == b.exits),
        ("interventions", a.interventions == b.interventions),
        ("dvh_intercepts", a.dvh_intercepts == b.dvh_intercepts),
        (
            "posted_deliveries",
            a.posted_deliveries == b.posted_deliveries,
        ),
        (
            "injected_interrupts",
            a.injected_interrupts == b.injected_interrupts,
        ),
        ("idle_cycles", a.idle_cycles == b.idle_cycles),
        (
            "burned_idle_cycles",
            a.burned_idle_cycles == b.burned_idle_cycles,
        ),
        ("cycles_by_reason", a.cycles_by_reason == b.cycles_by_reason),
    ];
    for (name, equal) in ledgers {
        if !equal {
            out.push(violation(
                "summary-ledger",
                format!("RunStats.{name}"),
                "summarized run differs from full recursion".into(),
            ));
        }
    }
    for cpu in 0..full.num_cpus() {
        if fast.now(cpu) != full.now(cpu) {
            out.push(violation(
                "summary-clock",
                format!("cpu{cpu}"),
                format!(
                    "clock {} vs full recursion {}",
                    fast.now(cpu),
                    full.now(cpu)
                ),
            ));
        }
        if fast.timers[cpu] != full.timers[cpu] {
            out.push(violation(
                "summary-timer",
                format!("cpu{cpu}"),
                format!(
                    "{:?} vs full recursion {:?}",
                    fast.timers[cpu], full.timers[cpu]
                ),
            ));
        }
        if fast.halt_chain(cpu) != full.halt_chain(cpu) {
            out.push(violation(
                "summary-halt-chain",
                format!("cpu{cpu}"),
                format!(
                    "{:?} vs full recursion {:?}",
                    fast.halt_chain(cpu),
                    full.halt_chain(cpu)
                ),
            ));
        }
        for level in 0..full.leaf_level() {
            let (x, y) = (fast.vmcs(level, cpu), full.vmcs(level, cpu));
            if x != y {
                // Name the first differing field (a value or a
                // written-bit that only one side has).
                let first = x
                    .iter()
                    .zip(y.iter())
                    .find(|(p, q)| p != q)
                    .map(|(p, q)| format!("{p:x?} vs full recursion {q:x?}"))
                    .unwrap_or_else(|| "written fields or launch state differ".into());
                out.push(violation(
                    "summary-vmcs",
                    format!("L{level} cpu{cpu}"),
                    first,
                ));
            }
        }
    }
    out
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
    // A guest hypervisor at level >= 2 that handled an exit executed
    // trapping primitives, so summaries must have been recorded;
    // otherwise the comparison certifies nothing.
    let deep_handlers = full.world().stats.interventions.iter().any(|(l, _)| l >= 2);
    if deep_handlers && fast.world().exit_summary_count() == 0 {
        out.push(violation(
            "summary-exercised",
            "memo".into(),
            "no exit summary was recorded, so the scenario certifies nothing".into(),
        ));
    }
    out
}

/// Runs [`check_scenario`] over every scenario of
/// [`scenarios`]`(micro_max_level)`; returns the scenario count and
/// the violations, each located by its scenario name.
pub fn check_exit_summaries(micro_max_level: usize) -> (usize, Vec<Violation>) {
    let all = scenarios(micro_max_level);
    let mut out = Vec::new();
    for s in &all {
        out.extend(check_scenario(s).into_iter().map(|mut v| {
            v.location = format!("{}: {}", s.name, v.location);
            v
        }));
    }
    (all.len(), out)
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
    fn a_divergent_ledger_and_clock_are_reported() {
        let mut a = Machine::build(MachineConfig::baseline(3));
        let b = Machine::build(MachineConfig::baseline(3));
        a.world_mut().stats.record_intervention(2);
        a.world_mut().compute(1, dvh_arch::Cycles::new(1));
        let rules: Vec<_> = diff_worlds(a.world(), b.world())
            .iter()
            .map(|v| v.rule)
            .collect();
        assert_eq!(rules, ["summary-ledger", "summary-clock"]);
    }
}
