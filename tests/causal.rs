//! Integration tests for the causality layer: causal trees rebuilt
//! from the trace must conserve the engine's attribution ledger bit
//! for bit, and the exit-multiplication factor they expose must be
//! *emergent* — it falls out of the recursive reflection in
//! `exits.rs`, is never hard-coded, and lands in the range the
//! paper's Table 3 measured on real hardware.

use dvh_core::{Machine, MachineConfig};
use dvh_hypervisor::trace::TRACE_CAPACITY;
use dvh_hypervisor::trace_export::causal_forest;
use dvh_obs::causal::Forest;
use dvh_obs::diff::{diff, snapshot_value, DiffConfig};
use dvh_workloads::{run_app, AppId};

const TXNS: u32 = 25;

/// Runs `work` on a fresh machine with observability armed and
/// returns the rebuilt causal forest plus the machine itself.
fn observed(config: MachineConfig, work: impl FnOnce(&mut Machine)) -> (Forest, Machine) {
    let mut m = Machine::build(config);
    {
        let w = m.world_mut();
        w.enable_observability(TRACE_CAPACITY);
        w.reset_stats();
    }
    work(&mut m);
    let w = m.world_mut();
    let events = w.take_trace();
    assert_eq!(w.trace_dropped(), 0, "harness capacity must not truncate");
    let forest = causal_forest(&events, w.num_cpus());
    (forest, m)
}

#[test]
fn causal_roots_conserve_the_ledger_bit_for_bit() {
    let (forest, mut m) = observed(MachineConfig::baseline(2), |m| {
        run_app(m, &AppId::NetperfRr.mix(), TXNS);
    });
    let w = m.world_mut();
    assert_eq!(forest.incomplete, 0, "every exit must close");
    assert_eq!(forest.total_exits(), w.stats.total_exits());

    // Root spans, taken verbatim from `Completed`, reproduce the
    // engine's cycles_by_reason ledger exactly — both directions.
    let roots = forest.root_cycle_totals();
    let ledger = &w.stats.cycles_by_reason;
    assert!(!ledger.is_empty());
    assert_eq!(roots.len(), ledger.len());
    for ((level, reason), cycles) in ledger.iter() {
        assert_eq!(
            roots.get(&(level, reason)).copied(),
            Some(cycles.as_u64()),
            "(L{level}, {reason})"
        );
    }
}

#[test]
fn folded_output_conserves_the_ledger_total() {
    let (forest, mut m) = observed(MachineConfig::baseline(2), |m| {
        run_app(m, &AppId::NetperfRr.mix(), TXNS);
    });
    let folded = forest.folded();
    assert!(!folded.is_empty());
    let mut folded_total = 0u64;
    for line in folded.lines() {
        let (path, cycles) = line.rsplit_once(' ').expect("`path cycles` shape");
        assert!(path.starts_with('L'), "{line}");
        folded_total += cycles.parse::<u64>().expect("cycle count parses");
    }
    let ledger_total = m.world_mut().stats.total_attributed_cycles().as_u64();
    assert_eq!(folded_total, ledger_total, "no cycle invented or lost");
}

#[test]
fn exit_multiplication_is_emergent_and_matches_table3() {
    // The paper's Table 3: a hypercall costs 1,575 cycles in a VM and
    // 37,733 in a nested VM — a 23.96x multiplication born entirely
    // from L0 trapping each L1 handler instruction. Rebuild both
    // numbers from causal trees and check the ratio lands in range.
    let (l1, _) = observed(MachineConfig::baseline(1), |m| {
        m.hypercall(0);
    });
    let (l2, _) = observed(MachineConfig::baseline(2), |m| {
        m.hypercall(0);
    });
    let cycles = |f: &Forest| -> u64 { f.root_cycle_totals().values().sum() };
    let ratio = cycles(&l2) as f64 / cycles(&l1) as f64;
    let paper = 37_733.0 / 1_575.0; // 23.96x
    assert!(
        (18.0..=32.0).contains(&ratio),
        "L2/L1 hypercall cycle ratio {ratio:.2} outside Table 3 range (paper: {paper:.2})"
    );

    // The per-tree trap fan-out agrees: one L2 root decomposes into
    // dozens of L1 operations, each an L0 round trip.
    let factors = l2.multiplication_factors();
    let f2 = factors
        .iter()
        .find(|f| f.root_level == 2)
        .expect("L2 roots present");
    assert!(
        f2.factor > 10.0,
        "one L2 exit must fan into many traps, got {:.2}",
        f2.factor
    );
    assert!(f2.per_level.contains_key(&1), "L1 handler traps recorded");
}

#[test]
fn netperf_forest_multiplication_stays_in_range() {
    let (forest, _) = observed(MachineConfig::baseline(2), |m| {
        run_app(m, &AppId::NetperfRr.mix(), TXNS);
    });
    let factors = forest.multiplication_factors();
    let f2 = factors
        .iter()
        .find(|f| f.root_level == 2)
        .expect("L2 roots present");
    assert!(
        f2.factor > 5.0 && f2.factor < 100.0,
        "netperf multiplication {:.2} implausible",
        f2.factor
    );
}

#[test]
fn diff_is_zero_on_self_and_flags_a_real_regression() {
    // Self-diff: a snapshot compared with itself reports nothing.
    let snap = |config: MachineConfig, label: &str| {
        let (_, mut m) = observed(config, |m| {
            run_app(m, &AppId::NetperfRr.mix(), TXNS);
        });
        let w = m.world_mut();
        w.export_device_metrics();
        let reg = w.take_metrics().expect("metrics enabled");
        snapshot_value(&reg, label)
    };
    let dvh = snap(MachineConfig::dvh(2), "netperf-rr@L2/dvh");
    let report = diff(&dvh, &dvh, DiffConfig::default()).unwrap();
    assert!(report.regressions().is_empty(), "{}", report.to_text());

    // Real regression: the baseline(2) configuration reflects every
    // L1 trap through L0, so against a DVH baseline its exit rate
    // collapses — far beyond the 30% synthetic-regression bar.
    let base = snap(MachineConfig::baseline(2), "netperf-rr@L2/base");
    let report = diff(&dvh, &base, DiffConfig { threshold: 0.30 }).unwrap();
    let flagged: Vec<&str> = report
        .regressions()
        .iter()
        .map(|e| e.metric.as_str())
        .collect();
    assert!(
        !flagged.is_empty(),
        "baseline-vs-DVH must regress somewhere:\n{}",
        report.to_text()
    );
}
