//! # dvh-checker
//!
//! Static analysis and invariant verification for the DVH simulator's
//! exit engine. Six passes, all runnable from `dvh check` and from
//! the test suite:
//!
//! 1. **VM-entry consistency** ([`harness::vmentry_violations`]):
//!    every simulated VM entry validates the entered VMCS against
//!    Intel SDM §26-style rules (posted-interrupt descriptor and
//!    vector, shadow-VMCS link pointer, secondary-control activation,
//!    EPT pointer, DVH capability gating), reporting violations with
//!    the owning level and field encoding.
//! 2. **Trace linting** ([`trace_lint`]): a pass over the
//!    [`dvh_hypervisor::TraceEvent`] log proving structural invariants
//!    of the exit engine — well-formed exit/intervention nesting,
//!    per-CPU time monotonicity, bounded reflection depth, exact cycle
//!    conservation against the [`dvh_hypervisor::RunStats`] ledger, no
//!    reflection of shadowed VMCS accesses, and no reflection after a
//!    DVH interception.
//! 3. **Source linting** ([`source_lint`]): std-only lints over
//!    `crates/*/src` for project-specific hazards — load-bearing
//!    `debug_assert!` in exit-path code, raw VMCS container indexing
//!    that bypasses the tracked accessors, and unchecked level-keyed
//!    indexing in hypervisor dispatch paths.
//! 4. **Metrics conservation** ([`metrics_lint`]): certifies the
//!    dvh-obs observability layer against the engine's own ledgers —
//!    the registry's per-(level, reason) exit cycle totals and exit
//!    counts must equal [`dvh_hypervisor::RunStats::cycles_by_reason`]
//!    and [`dvh_hypervisor::RunStats::outermost_exits`] key for key in
//!    both directions, every histogram must be internally consistent,
//!    and the serialized Chrome trace export must round-trip with
//!    outermost span durations summing to the same ledger.
//! 5. **Causal conservation** ([`causal_lint`]): certifies the
//!    causality layer (`dvh_obs::causal`) that rebuilds each outermost
//!    exit's tree of nested traps — root spans must reproduce the
//!    attribution ledger bit for bit, tree geometry must partition
//!    (children inside parents, siblings non-overlapping), the forest
//!    must hold exactly one node per counted hardware exit, and the
//!    folded flamegraph text must re-parse to the same totals.
//! 6. **Exit-summary differential** ([`summary_diff`]): every Table
//!    3, Fig. 7–10, recursion and deep micro scenario runs with the
//!    engine's memoized exit summaries and with full recursion; the
//!    two machines must agree bit for bit (ledger, clocks, VMCSs,
//!    timers, halt chains).
//!
//! The [`harness`] module runs passes 1, 2, 4 and 5 over representative
//! workloads (the paper's Fig. 7 configurations), then the exit-summary
//! differential and, given a checkout, the source lint: together that
//! is `dvh check`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod causal_lint;
pub mod harness;
pub mod metrics_lint;
pub mod source_lint;
pub mod summary_diff;
pub mod trace_lint;

use dvh_hypervisor::RunStats;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Which checker pass produced a violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Pass {
    /// VM-entry consistency checking.
    Vmentry,
    /// Trace-log invariant linting.
    Trace,
    /// Source-code linting.
    Source,
    /// Pinned-fixture certification (simulated results must be
    /// bit-for-bit identical to the pre-optimization engine's).
    Fixture,
    /// Metrics-conservation certification (the dvh-obs registry and
    /// trace export must agree with the engine's attribution ledger).
    Metrics,
    /// Causal-conservation certification (the causal forest rebuilt
    /// from the trace must reproduce the attribution ledger and
    /// partition exactly).
    Causal,
    /// Exit-summary differential certification (memoized exit
    /// summaries must reproduce full recursion bit for bit).
    Summary,
}

impl fmt::Display for Pass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Pass::Vmentry => "vmentry",
            Pass::Trace => "trace",
            Pass::Source => "source",
            Pass::Fixture => "fixture",
            Pass::Metrics => "metrics",
            Pass::Causal => "causal",
            Pass::Summary => "summary",
        })
    }
}

/// One invariant violation found by any pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The pass that found it.
    pub pass: Pass,
    /// Stable kebab-case rule identifier.
    pub rule: &'static str,
    /// Where: "L1 cpu0 field 0x2016", "event #42", or "file:line".
    pub location: String,
    /// What went wrong.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}/{}] {}: {}",
            self.pass, self.rule, self.location, self.detail
        )
    }
}

/// The attribution ledger's per-(level, reason) cycle totals.
pub(crate) fn cycle_ledger(
    stats: &RunStats,
) -> impl Iterator<Item = ((usize, dvh_arch::vmx::ExitReason), u64)> + '_ {
    stats
        .cycles_by_reason
        .iter()
        .map(|(key, c)| (key, c.as_u64()))
}

/// Compares per-(level, reason) totals of `unit` derived by `view`
/// (the metrics registry, the Chrome export, the causal forest) with a
/// `RunStats` ledger in both directions: one `rule` violation per key
/// whose totals differ, or that only one side has.
pub(crate) fn ledger_conservation<R: Ord + fmt::Display>(
    pass: Pass,
    rule: &'static str,
    view: &str,
    derived: &BTreeMap<(usize, R), u64>,
    ledger: impl IntoIterator<Item = ((usize, dvh_arch::vmx::ExitReason), u64)>,
    unit: &str,
    reason_key: impl Fn(dvh_arch::vmx::ExitReason) -> R,
) -> Vec<Violation> {
    let ledger: BTreeMap<(usize, R), u64> = ledger
        .into_iter()
        .map(|((level, reason), n)| ((level, reason_key(reason)), n))
        .collect();
    let keys: BTreeSet<&(usize, R)> = derived.keys().chain(ledger.keys()).collect();
    let mut out = Vec::new();
    for key in keys {
        let detail = match (derived.get(key), ledger.get(key)) {
            (Some(got), Some(want)) if got == want => continue,
            (Some(got), Some(want)) => format!("{view} has {got} {unit}, ledger says {want}"),
            (None, Some(want)) => {
                format!("ledger attributes {want} {unit} but the {view} has no entry")
            }
            (Some(got), None) => {
                format!("{view} has {got} {unit} for a key the ledger never attributed")
            }
            (None, None) => continue,
        };
        out.push(Violation {
            pass,
            rule,
            location: format!("L{} {}", key.0, key.1),
            detail,
        });
    }
    out
}

/// The combined result of a checker run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// One human-readable line per pass/workload executed.
    pub ran: Vec<String>,
    /// Everything found, in discovery order.
    pub violations: Vec<Violation>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Report {
        Report::default()
    }

    /// Whether every pass came back clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Records that a pass ran, with its violations; `scope` prefixes
    /// each violation's location so reports from multiple workloads
    /// stay attributable.
    pub fn add(&mut self, ran: String, scope: &str, violations: Vec<Violation>) {
        self.ran.push(ran);
        self.violations.extend(violations.into_iter().map(|mut v| {
            if !scope.is_empty() {
                v.location = format!("{scope}: {}", v.location);
            }
            v
        }));
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for line in &self.ran {
            writeln!(f, "  {line}")?;
        }
        if self.is_clean() {
            writeln!(f, "dvh-checker: all invariants hold")
        } else {
            for v in &self.violations {
                writeln!(f, "{v}")?;
            }
            writeln!(
                f,
                "dvh-checker: {} violation(s) found",
                self.violations.len()
            )
        }
    }
}
