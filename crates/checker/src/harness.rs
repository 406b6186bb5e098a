//! The checker harness: runs representative workloads with VM-entry
//! checking and tracing enabled, then runs every pass. This is what
//! `dvh check` executes.

use crate::causal_lint::lint_causal;
use crate::metrics_lint::{lint_chrome_export, lint_metrics};
use crate::source_lint::lint_sources;
use crate::summary_diff::check_exit_summaries;
use crate::trace_lint::{lint_trace, TraceContext};
use crate::{Report, Violation};
use dvh_core::{Machine, MachineConfig};
use std::path::Path;

/// Trace capacity used by the harness — large enough that no harness
/// workload ever truncates (truncation is itself a violation).
pub const TRACE_CAPACITY: usize = 1 << 20;

/// The paper's Fig. 7 configuration matrix (the default `dvh check`
/// workload set).
pub fn fig7_configs() -> Vec<(&'static str, MachineConfig)> {
    vec![
        ("fig7/vm", MachineConfig::baseline(1)),
        ("fig7/vm-pt", MachineConfig::passthrough(1)),
        ("fig7/nested", MachineConfig::baseline(2)),
        ("fig7/nested-pt", MachineConfig::passthrough(2)),
        ("fig7/nested-dvh-vp", MachineConfig::dvh_vp(2)),
        ("fig7/nested-dvh", MachineConfig::dvh(2)),
    ]
}

/// A workload that touches every mechanism the invariants speak about:
/// hypercalls (reflection), timers and IPIs (DVH interception), MMIO
/// doorbells (I/O cascade), network and block I/O, and idle rounds
/// (halt chains and wakeups).
pub fn exercise(m: &mut Machine) {
    m.hypercall(0);
    m.program_timer(0);
    if m.vcpus() > 1 {
        m.send_ipi(0, 1);
    }
    m.device_notify(0);
    m.net_tx(0, 4, 1500);
    m.net_rx(0, 1500);
    m.blk_io(0, 4096, true);
    m.idle_round(0);
    m.timer_sleep_round(0);
    m.hypercall(0);
}

/// One pinned ledger row: what [`exercise`] must produce on a fresh
/// machine of the named Fig. 7 configuration.
#[derive(Debug, Clone, Copy)]
pub struct PinnedFixture {
    /// Configuration name (matches [`fig7_configs`]).
    pub name: &'static str,
    /// Total hardware exits.
    pub exits: u64,
    /// Total guest-hypervisor interventions.
    pub interventions: u64,
    /// Total DVH interceptions.
    pub dvh: u64,
    /// Total cycles attributed to outermost exits.
    pub cycles: u64,
    /// CPU 0's simulated clock after the workload.
    pub now0: u64,
}

/// The ledger [`exercise`] produced on every Fig. 7 configuration
/// *before* the engine's storage/dispatch optimizations (dense VMCS
/// slots, dense exit ledger, lazy tracing) landed. The optimizations
/// claim to change how fast the simulator runs and nothing else; this
/// pass holds them to it, bit for bit. A mismatch means an
/// "optimization" changed simulated behavior — reject it.
pub const PINNED_FIG7: [PinnedFixture; 6] = [
    PinnedFixture {
        name: "fig7/vm",
        exits: 10,
        interventions: 0,
        dvh: 0,
        cycles: 31_761,
        now0: 35_483,
    },
    PinnedFixture {
        name: "fig7/vm-pt",
        exits: 8,
        interventions: 0,
        dvh: 0,
        cycles: 19_211,
        now0: 22_388,
    },
    PinnedFixture {
        name: "fig7/nested",
        exits: 160,
        interventions: 13,
        dvh: 0,
        cycles: 518_027,
        now0: 490_974,
    },
    PinnedFixture {
        name: "fig7/nested-pt",
        exits: 122,
        interventions: 10,
        dvh: 0,
        cycles: 384_742,
        now0: 355_089,
    },
    PinnedFixture {
        name: "fig7/nested-dvh-vp",
        exits: 119,
        interventions: 10,
        dvh: 0,
        cycles: 378_336,
        now0: 350_378,
    },
    PinnedFixture {
        name: "fig7/nested-dvh",
        exits: 32,
        interventions: 2,
        dvh: 3,
        cycles: 112_981,
        now0: 116_703,
    },
];

/// Runs [`exercise`] on a fresh machine per configuration (checking
/// and tracing off — exactly how the fixture was captured) and
/// compares every ledger total against [`PINNED_FIG7`].
pub fn check_pinned_fixture() -> Vec<Violation> {
    let mut out = Vec::new();
    let configs = fig7_configs();
    for pinned in PINNED_FIG7 {
        let Some((_, config)) = configs.iter().find(|(n, _)| *n == pinned.name) else {
            out.push(Violation {
                pass: crate::Pass::Fixture,
                rule: "pinned-config-exists",
                location: pinned.name.to_string(),
                detail: "pinned fixture has no matching fig7 configuration".into(),
            });
            continue;
        };
        let mut m = Machine::build(config.clone());
        exercise(&mut m);
        let w = m.world_mut();
        let got = [
            ("exits", w.stats.total_exits(), pinned.exits),
            (
                "interventions",
                w.stats.total_interventions(),
                pinned.interventions,
            ),
            ("dvh", w.stats.total_dvh_intercepts(), pinned.dvh),
            (
                "cycles",
                w.stats.total_attributed_cycles().as_u64(),
                pinned.cycles,
            ),
            ("now0", w.now(0).as_u64(), pinned.now0),
        ];
        for (what, actual, expected) in got {
            if actual != expected {
                out.push(Violation {
                    pass: crate::Pass::Fixture,
                    rule: "ledger-matches-pinned",
                    location: pinned.name.to_string(),
                    detail: format!(
                        "{what} = {actual}, pinned pre-optimization fixture says {expected}"
                    ),
                });
            }
        }
    }
    out
}

/// Builds a machine for `config`, arms checking, tracing, and metrics,
/// runs the standard workload, and returns all vmentry-, trace-,
/// metrics-, and causal-pass violations (empty = certified).
pub fn check_machine(config: MachineConfig) -> Vec<Violation> {
    let mut m = Machine::build(config);
    {
        let w = m.world_mut();
        w.enable_tracing(TRACE_CAPACITY);
        w.enable_metrics();
        w.enable_vmentry_checks();
        // Stats, trace, and metrics must cover the same window for
        // cycle conservation to be exact.
        w.reset_stats();
    }
    exercise(&mut m);
    let w = m.world_mut();
    let mut out = crate::vmentry::check_world(w);
    let ctx = TraceContext::for_world(w);
    out.extend(lint_trace(w.trace_events(), &ctx));
    if let Some(reg) = w.metrics() {
        out.extend(lint_metrics(reg, &w.stats));
    }
    out.extend(lint_chrome_export(
        w.trace_events(),
        w.num_cpus(),
        w.leaf_level(),
        &w.stats,
    ));
    out.extend(lint_causal(
        w.trace_events(),
        w.num_cpus(),
        w.trace_dropped(),
        &w.stats,
    ));
    out
}

/// Deepest `run_micro` level `dvh check` certifies against full
/// recursion (the test suite also certifies one level deeper).
pub const SUMMARY_MICRO_MAX_LEVEL: usize = 5;

/// Runs every pass: vmentry, trace, and metrics over each Fig. 7
/// configuration, the pinned fixture, the exit-summary differential,
/// and the source lint over `source_root` when given (pass the repo
/// root; `None` skips the source pass, e.g. when running from an
/// installed binary with no checkout around).
pub fn run_all(source_root: Option<&Path>) -> std::io::Result<Report> {
    let mut report = Report::new();
    for (name, config) in fig7_configs() {
        let violations = check_machine(config);
        report.add(
            format!(
                "vmentry+trace+metrics+causal {name}: {} violation(s)",
                violations.len()
            ),
            name,
            violations,
        );
    }
    let pinned = check_pinned_fixture();
    report.add(
        format!(
            "pinned fixture: {} configuration(s), {} violation(s)",
            PINNED_FIG7.len(),
            pinned.len()
        ),
        "pinned-fixture",
        pinned,
    );
    let (count, summary) = check_exit_summaries(SUMMARY_MICRO_MAX_LEVEL);
    report.add(
        format!(
            "exit-summary differential: {count} scenario(s), {} violation(s)",
            summary.len()
        ),
        "exit-summary",
        summary,
    );
    if let Some(root) = source_root {
        let outcome = lint_sources(root)?;
        report.add(
            format!(
                "source lint: {} files, {} violation(s)",
                outcome.files_scanned,
                outcome.violations.len()
            ),
            "",
            outcome.violations,
        );
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_fig7_config_is_certified() {
        for (name, config) in fig7_configs() {
            let violations = check_machine(config);
            assert!(violations.is_empty(), "{name}: {:?}", violations);
        }
    }

    #[test]
    fn exit_summaries_match_full_recursion_through_l6() {
        let (count, violations) = check_exit_summaries(SUMMARY_MICRO_MAX_LEVEL + 1);
        assert!(count > 150, "{count} scenarios");
        assert!(violations.is_empty(), "{violations:#?}");
    }

    #[test]
    fn engine_matches_pinned_pre_optimization_fixture() {
        let violations = check_pinned_fixture();
        assert!(violations.is_empty(), "{violations:?}");
    }
}
