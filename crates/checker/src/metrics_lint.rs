//! The metrics-conservation pass: certifies the dvh-obs observability
//! layer against the exit engine's own accounting.
//!
//! The engine states each outermost exit once, as a `Completed` event
//! that `World::record` folds into both the `RunStats` ledger and the
//! metrics registry; the Chrome trace export re-derives the same
//! totals from serialized spans. This pass proves the folds and the
//! export agree, key for key:
//!
//! - `exit-cycles-conserved`: the registry's per-(level, reason) exit
//!   cycle totals equal [`RunStats::cycles_by_reason`] in both
//!   directions — no missing keys, no phantom keys, no drift between
//!   the two arms of the fold.
//! - `exit-counts-conserved`: the observation count of each of those
//!   histograms equals [`RunStats::outermost_exits`], both directions.
//! - `histogram-consistent`: every histogram's bucket counts sum to
//!   its observation count (the invariant `Histogram::is_consistent`
//!   encodes).
//! - `chrome-round-trip` / `chrome-spans-conserved`: the serialized
//!   Chrome trace document parses back to an identical document, and
//!   its `outermost: true` span durations sum to the attribution
//!   ledger exactly.
//!
//! A violation here means the observability layer is lying about where
//! cycles went — the one failure mode a profiling tool must not have.

use crate::{cycle_ledger, ledger_conservation, Pass, Violation};
use dvh_hypervisor::trace_export::{chrome_json, chrome_outermost_totals};
use dvh_hypervisor::{RunStats, TraceEvent};
use dvh_obs::json;
use dvh_obs::MetricsRegistry;

/// Checks the registry's exit cycle totals and exit counts against the
/// engine ledgers (both directions) and every histogram's internal
/// consistency.
pub fn lint_metrics(reg: &MetricsRegistry, stats: &RunStats) -> Vec<Violation> {
    let totals = reg.exit_totals();
    let cycles = totals.iter().map(|(&key, &(_, sum))| (key, sum)).collect();
    let counts = totals.iter().map(|(&key, &(n, _))| (key, n)).collect();
    let mut out = ledger_conservation(
        Pass::Metrics,
        "exit-cycles-conserved",
        "metrics registry",
        &cycles,
        cycle_ledger(stats),
        "cycles",
        |reason| reason,
    );
    out.extend(ledger_conservation(
        Pass::Metrics,
        "exit-counts-conserved",
        "metrics registry",
        &counts,
        stats.outermost_exits.iter(),
        "exits",
        |reason| reason,
    ));
    for (key, h) in reg.histograms() {
        if !h.is_consistent() {
            out.push(Violation {
                pass: Pass::Metrics,
                rule: "histogram-consistent",
                location: key.to_string(),
                detail: format!(
                    "bucket counts sum to {} but the histogram recorded {} observations",
                    h.buckets().iter().sum::<u64>(),
                    h.count()
                ),
            });
        }
    }
    out
}

/// Serializes the trace as a Chrome document, parses it back, and
/// certifies both the round trip and that the outermost span durations
/// sum to the attribution ledger — the export path itself is what gets
/// checked, not the in-memory events.
pub fn lint_chrome_export(
    events: &[TraceEvent],
    num_cpus: usize,
    levels: usize,
    stats: &RunStats,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let text = chrome_json(events, num_cpus, levels);
    let doc = match json::parse(&text) {
        Ok(doc) => doc,
        Err(e) => {
            out.push(Violation {
                pass: Pass::Metrics,
                rule: "chrome-round-trip",
                location: "chrome export".into(),
                detail: format!("serialized trace does not parse: {e}"),
            });
            return out;
        }
    };
    if doc.to_json() != text {
        out.push(Violation {
            pass: Pass::Metrics,
            rule: "chrome-round-trip",
            location: "chrome export".into(),
            detail: "parse(serialize(trace)) is not the identity".into(),
        });
    }

    out.extend(ledger_conservation(
        Pass::Metrics,
        "chrome-spans-conserved",
        "chrome export",
        &chrome_outermost_totals(&doc),
        cycle_ledger(stats),
        "cycles",
        |reason| reason.to_string(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvh_arch::vmx::ExitReason;
    use dvh_arch::Cycles;
    use dvh_core::{Machine, MachineConfig};
    use dvh_hypervisor::trace::TRACE_CAPACITY;

    fn observed_machine() -> Machine {
        let mut m = Machine::build(MachineConfig::dvh(2));
        {
            let w = m.world_mut();
            w.enable_tracing(TRACE_CAPACITY);
            w.enable_metrics();
            w.reset_stats();
        }
        m.hypercall(0);
        m.net_tx(0, 4, 1500);
        m.idle_round(0);
        m
    }

    #[test]
    fn clean_run_has_no_metrics_violations() {
        let mut m = observed_machine();
        let w = m.world_mut();
        let reg = w.metrics().expect("metrics enabled");
        assert!(lint_metrics(reg, &w.stats).is_empty());
        let violations =
            lint_chrome_export(w.trace_events(), w.num_cpus(), w.leaf_level(), &w.stats);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn tampered_registry_is_caught_both_directions() {
        let mut m = observed_machine();
        let w = m.world_mut();
        let stats = w.stats.clone();
        let mut reg = w.take_metrics().expect("metrics enabled");
        // A phantom key the ledger never attributed...
        reg.observe_exit(3, ExitReason::Hlt, Cycles::new(7));
        let phantom = lint_metrics(&reg, &stats);
        assert!(phantom.iter().any(|v| v.pass == Pass::Metrics
            && v.rule == "exit-cycles-conserved"
            && v.detail.contains("never attributed")));
        // ...and drift on a key both sides know about.
        let ((level, reason), _) = stats.cycles_by_reason.iter().next().expect("some exits");
        reg.observe_exit(level, reason, Cycles::new(1));
        let drifted = lint_metrics(&reg, &stats);
        assert!(drifted.len() > phantom.len());
    }

    #[test]
    fn tampered_exit_count_is_caught_both_directions() {
        let mut m = observed_machine();
        let w = m.world_mut();
        let stats = w.stats.clone();
        let mut reg = w.take_metrics().expect("metrics enabled");
        // A zero-cycle observation moves one histogram's count and not
        // its sum: only the count rule can see it.
        let ((level, reason), _) = stats.cycles_by_reason.iter().next().expect("some exits");
        reg.observe_exit(level, reason, Cycles::ZERO);
        let drifted = lint_metrics(&reg, &stats);
        assert_eq!(drifted.len(), 1, "{drifted:?}");
        assert_eq!(drifted[0].rule, "exit-counts-conserved");
        assert!(drifted[0].detail.contains("ledger says"), "{drifted:?}");
        // A phantom key trips it from the registry's side too.
        reg.observe_exit(3, ExitReason::Hlt, Cycles::ZERO);
        let phantom = lint_metrics(&reg, &stats);
        assert!(phantom
            .iter()
            .any(|v| v.rule == "exit-counts-conserved" && v.detail.contains("never attributed")));
    }

    #[test]
    fn missing_ledger_key_is_caught() {
        let mut m = observed_machine();
        let w = m.world_mut();
        let reg = MetricsRegistry::new();
        let violations = lint_metrics(&reg, &w.stats);
        assert!(!violations.is_empty());
        // Each ledger key is missing once from the cycle totals and
        // once from the exit counts.
        let rule_count = |rule| violations.iter().filter(|v| v.rule == rule).count();
        assert_eq!(
            rule_count("exit-cycles-conserved"),
            w.stats.cycles_by_reason.len()
        );
        assert_eq!(
            rule_count("exit-counts-conserved"),
            w.stats.cycles_by_reason.len()
        );
        assert!(violations.iter().all(|v| v.detail.contains("no entry")));
    }
}
