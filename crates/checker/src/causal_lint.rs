//! The causal-conservation pass: certifies `dvh_obs::causal` — the
//! layer that turns a flat trace into causal trees of exits — against
//! the engine's own ledgers.
//!
//! The causality layer is where the paper's exit-multiplication story
//! is *derived* rather than asserted: one outermost exit's tree shows
//! every nested trap its handling caused. That derivation is only
//! trustworthy if it conserves, so this pass proves, on a complete
//! (untruncated) trace:
//!
//! - `causal-roots-conserved`: the forest's per-(level, reason) root
//!   spans equal [`RunStats::cycles_by_reason`] in both directions —
//!   the tree view attributes exactly what the engine attributed, key
//!   for key, bit for bit.
//! - `causal-well-formed`: every node's interval is ordered, every
//!   child lies inside its parent, and siblings do not overlap — the
//!   geometry that makes `self_cycles` (span minus children) exact.
//! - `causal-balance`: nothing was orphaned during reconstruction; a
//!   complete trace must build a complete forest.
//! - `causal-exit-count`: the forest holds exactly one node per
//!   hardware exit the engine counted ([`RunStats::total_exits`]).
//! - `folded-conserved`: the folded flamegraph rendering, re-parsed
//!   from its own text output, sums per root frame to the same root
//!   totals — what a flamegraph viewer would display conserves too.

use crate::{cycle_ledger, ledger_conservation, Pass, Violation};
use dvh_hypervisor::{RunStats, TraceEvent};
use dvh_obs::causal::{CausalNode, Forest};
use std::collections::BTreeMap;

fn violation(rule: &'static str, location: String, detail: String) -> Violation {
    Violation {
        pass: Pass::Causal,
        rule,
        location,
        detail,
    }
}

/// Lints the causal forest reconstructed from `events` against the
/// engine ledger. `dropped` is the trace buffer's eviction count; a
/// truncated trace cannot be certified and short-circuits like the
/// trace pass does.
pub fn lint_causal(
    events: &[TraceEvent],
    num_cpus: usize,
    dropped: u64,
    stats: &RunStats,
) -> Vec<Violation> {
    let mut out = Vec::new();
    if dropped > 0 {
        out.push(violation(
            "trace-truncated",
            "trace buffer".into(),
            format!(
                "{dropped} events were evicted; a truncated trace cannot certify \
                 causal conservation"
            ),
        ));
        return out;
    }
    let forest = dvh_hypervisor::trace_export::causal_forest(events, num_cpus);

    if forest.incomplete > 0 {
        out.push(violation(
            "causal-balance",
            "causal forest".into(),
            format!(
                "{} exits could not be placed in a tree although the trace is complete",
                forest.incomplete
            ),
        ));
    }

    out.extend(ledger_conservation(
        Pass::Causal,
        "causal-roots-conserved",
        "causal forest",
        &forest.root_cycle_totals(),
        cycle_ledger(stats),
        "cycles",
        |reason| reason,
    ));

    let total = forest.total_exits();
    if total != stats.total_exits() {
        out.push(violation(
            "causal-exit-count",
            "causal forest".into(),
            format!(
                "forest holds {total} exits, engine counted {}",
                stats.total_exits()
            ),
        ));
    }

    for tree in &forest.trees {
        check_node(&tree.root, tree.cpu, &mut out);
    }

    out.extend(lint_folded(&forest));
    out
}

/// Recursively checks interval geometry: ordered spans, containment,
/// and non-overlapping siblings.
fn check_node(node: &CausalNode, cpu: usize, out: &mut Vec<Violation>) {
    let here = format!("cpu{cpu} {} [{}, {}]", node.frame(), node.start, node.end);
    if node.start > node.end {
        out.push(violation(
            "causal-well-formed",
            here.clone(),
            "node interval is reversed".into(),
        ));
    }
    let mut prev_end = node.start;
    for child in &node.children {
        if child.start < node.start || child.end > node.end {
            out.push(violation(
                "causal-well-formed",
                here.clone(),
                format!(
                    "child {} [{}, {}] escapes its parent",
                    child.frame(),
                    child.start,
                    child.end
                ),
            ));
        }
        if child.start < prev_end {
            out.push(violation(
                "causal-well-formed",
                here.clone(),
                format!(
                    "child {} [{}, {}] overlaps its preceding sibling",
                    child.frame(),
                    child.start,
                    child.end
                ),
            ));
        }
        prev_end = child.end.max(prev_end);
        check_node(child, cpu, out);
    }
}

/// Re-parses the folded flamegraph text and proves the per-root-frame
/// sums equal the forest's root totals.
fn lint_folded(forest: &Forest) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut by_root: BTreeMap<String, u64> = BTreeMap::new();
    for line in forest.folded().lines() {
        let Some((path, cycles)) = line.rsplit_once(' ') else {
            out.push(violation(
                "folded-conserved",
                "folded output".into(),
                format!("unparseable folded line: '{line}'"),
            ));
            continue;
        };
        let Ok(cycles) = cycles.parse::<u64>() else {
            out.push(violation(
                "folded-conserved",
                "folded output".into(),
                format!("non-numeric cycle count: '{line}'"),
            ));
            continue;
        };
        let root = path.split(';').next().unwrap_or(path).to_string();
        *by_root.entry(root).or_insert(0) += cycles;
    }
    for ((level, reason), cycles) in forest.root_cycle_totals() {
        let frame = format!("L{level} {reason}");
        let got = by_root.get(&frame).copied().unwrap_or(0);
        if got != cycles {
            out.push(violation(
                "folded-conserved",
                frame,
                format!("folded lines sum to {got} cycles, root totals say {cycles}"),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvh_core::{Machine, MachineConfig};
    use dvh_hypervisor::trace::TRACE_CAPACITY;

    fn traced_machine() -> Machine {
        let mut m = Machine::build(MachineConfig::baseline(2));
        {
            let w = m.world_mut();
            w.enable_tracing(TRACE_CAPACITY);
            w.reset_stats();
        }
        m.hypercall(0);
        m.net_tx(0, 4, 1500);
        m.idle_round(0);
        m
    }

    #[test]
    fn clean_nested_run_certifies() {
        let mut m = traced_machine();
        let w = m.world_mut();
        let violations = lint_causal(w.trace_events(), w.num_cpus(), w.trace_dropped(), &w.stats);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn truncated_trace_is_refused() {
        let violations = lint_causal(&[], 1, 5, &RunStats::new());
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].rule, "trace-truncated");
    }

    #[test]
    fn tampered_ledger_breaks_root_conservation() {
        let mut m = traced_machine();
        let w = m.world_mut();
        let mut stats = w.stats.clone();
        let ((level, reason), _) = stats.cycles_by_reason.iter().next().expect("some exits");
        *stats.cycles_by_reason.get_mut(level, reason) = dvh_arch::Cycles::new(1);
        let violations = lint_causal(w.trace_events(), w.num_cpus(), w.trace_dropped(), &stats);
        assert!(
            violations
                .iter()
                .any(|v| v.rule == "causal-roots-conserved"),
            "{violations:?}"
        );
    }

    #[test]
    fn dropped_events_break_balance_or_count() {
        // Feed the linter a trace with its opening events cut off:
        // either balance or the exit count must trip.
        let mut m = traced_machine();
        let w = m.world_mut();
        let events: Vec<_> = w.trace_events().iter().skip(3).cloned().collect();
        let violations = lint_causal(&events, w.num_cpus(), 0, &w.stats);
        assert!(
            violations
                .iter()
                .any(|v| v.rule == "causal-balance" || v.rule == "causal-exit-count"),
            "{violations:?}"
        );
    }
}
