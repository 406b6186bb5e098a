//! The trace linter: structural invariants of the exit engine, proved
//! over a recorded [`TraceEvent`] log.
//!
//! Invariants (one rule id each):
//!
//! - `trace-truncated` — the bounded trace buffer evicted events; a
//!   truncated log proves nothing, so linting refuses it.
//! - `exit-nesting` — every `Intervention` happens inside an open exit
//!   and delivers to a hypervisor *below* the exiting level; every
//!   `Relay` (an interrupt relayed by a guest hypervisor) happens
//!   outside any open exit.
//! - `time-monotone` — per-CPU simulated time never goes backwards
//!   (engine events only; `IrqDelivered` carries the sender's clock).
//! - `reflection-depth` — exits come from levels `1..=leaf_level`, and
//!   reflections and relays target levels `1..leaf_level`: reflection
//!   never recurses past the hierarchy.
//! - `completed-balance` — every outermost exit is closed by exactly
//!   one matching `Completed`, and none is left open at the end.
//! - `return-balance` — every `Returned` closes the deepest open
//!   *nested* exit (matching level and reason) and never the outermost
//!   one, which only `Completed` may close: the events nest like
//!   brackets, which is what lets `dvh_obs::causal` rebuild exact
//!   causal trees.
//! - `cycle-attribution` — each `Completed.spent` equals exactly the
//!   simulated time between its exit and its completion.
//! - `shadow-bypass` — with VMCS shadowing on, no L1 `vmread`/`vmwrite`
//!   of a shadowed field ever exits (shadow hardware should have
//!   absorbed it).
//! - `dvh-reflected` — a `DvhIntercept` is never followed by a
//!   reflection of the same exit (DVH handled it; reflecting too would
//!   double-charge the guest hypervisor).
//!
//! That `Completed` cycles add up to the attribution ledger needs no
//! rule here: the ledger is folded from those very events, and the
//! causal pass's `causal-roots-conserved` checks the sums.

use crate::{Pass, Violation};
use dvh_arch::vmx::{ExitReason, ShadowFieldSet};
use dvh_arch::Cycles;
use dvh_hypervisor::{TraceEvent, World};
use std::collections::BTreeMap;

/// Everything the linter needs to know about the world that produced
/// the trace.
pub struct TraceContext<'a> {
    /// Deepest virtualization level of the producing world.
    pub leaf_level: usize,
    /// The shadowed field set, when VMCS shadowing is in effect
    /// (`None` disables the `shadow-bypass` rule).
    pub shadow: Option<&'a ShadowFieldSet>,
    /// Events evicted from the bounded trace buffer.
    pub dropped: u64,
}

impl<'a> TraceContext<'a> {
    /// Builds the context straight from a world.
    pub fn for_world(w: &'a World) -> TraceContext<'a> {
        TraceContext {
            leaf_level: w.leaf_level(),
            shadow: (w.config.vmcs_shadowing && w.profile().uses_shadowing)
                .then(|| w.shadow_fields()),
            dropped: w.trace_dropped(),
        }
    }
}

#[derive(Default)]
struct CpuState {
    /// Open exits: every `Exit` since the last `Completed`. The bottom
    /// entry is the outermost exit; deeper entries are the nested
    /// traps its handling caused.
    stack: Vec<(usize, ExitReason, Cycles)>,
    last_at: Option<Cycles>,
    /// Whether the most recent engine event was a `DvhIntercept`.
    last_was_dvh: bool,
}

fn violation(rule: &'static str, idx: usize, e: &TraceEvent, detail: String) -> Violation {
    Violation {
        pass: Pass::Trace,
        rule,
        location: format!("event #{idx} ({e})"),
        detail,
    }
}

/// Lints `events` against the exit-engine invariants. Returns every
/// violation found (empty = the trace is certified).
pub fn lint_trace(events: &[TraceEvent], ctx: &TraceContext) -> Vec<Violation> {
    let mut out = Vec::new();
    if ctx.dropped > 0 {
        out.push(Violation {
            pass: Pass::Trace,
            rule: "trace-truncated",
            location: "trace buffer".into(),
            detail: format!(
                "{} events were evicted; a truncated trace cannot be certified \
                 (enlarge the capacity passed to enable_tracing)",
                ctx.dropped
            ),
        });
        return out;
    }

    let mut cpus: BTreeMap<usize, CpuState> = BTreeMap::new();

    for (idx, e) in events.iter().enumerate() {
        let st = cpus.entry(e.cpu()).or_default();
        if !matches!(e, TraceEvent::IrqDelivered { .. }) {
            if let Some(last) = st.last_at {
                if e.at() < last {
                    out.push(violation(
                        "time-monotone",
                        idx,
                        e,
                        format!("timestamp went backwards (previous event was at {last})"),
                    ));
                }
            }
            st.last_at = Some(e.at());
        }
        match e {
            TraceEvent::Exit {
                at,
                from_level,
                reason,
                vmcs_field,
                ..
            } => {
                if *from_level < 1 || *from_level > ctx.leaf_level {
                    out.push(violation(
                        "reflection-depth",
                        idx,
                        e,
                        format!(
                            "exit from level {from_level} outside 1..={}",
                            ctx.leaf_level
                        ),
                    ));
                }
                if let (1, Some(f), Some(shadow)) = (*from_level, *vmcs_field, ctx.shadow) {
                    let covered = match reason {
                        ExitReason::Vmread => shadow.covers_read(f),
                        ExitReason::Vmwrite => shadow.covers_write(f),
                        _ => false,
                    };
                    if covered {
                        out.push(violation(
                            "shadow-bypass",
                            idx,
                            e,
                            format!(
                                "L1 {reason} of field {f:#06x} exited although the field \
                                 is covered by the VMCS shadow"
                            ),
                        ));
                    }
                }
                st.stack.push((*from_level, *reason, *at));
                st.last_was_dvh = false;
            }
            TraceEvent::Completed {
                at,
                from_level,
                reason,
                spent,
                ..
            } => {
                match st.stack.first().copied() {
                    None => out.push(violation(
                        "completed-balance",
                        idx,
                        e,
                        "completion with no open exit on this CPU".into(),
                    )),
                    Some((fl, r, t0)) => {
                        if fl != *from_level || r != *reason {
                            out.push(violation(
                                "completed-balance",
                                idx,
                                e,
                                format!(
                                    "completion does not match the outermost open exit \
                                     (L{fl} {r})"
                                ),
                            ));
                        } else if *at < t0 || *at - t0 != *spent {
                            out.push(violation(
                                "cycle-attribution",
                                idx,
                                e,
                                format!(
                                    "spent {spent} but the exit opened at {t0} and \
                                     completed at {at}"
                                ),
                            ));
                        }
                    }
                }
                // The outermost exit closing also closes every nested
                // exit its handling caused.
                st.stack.clear();
                st.last_was_dvh = false;
            }
            TraceEvent::Returned {
                from_level, reason, ..
            } => {
                match st.stack.len() {
                    0 => out.push(violation(
                        "return-balance",
                        idx,
                        e,
                        "return with no open exit on this CPU".into(),
                    )),
                    1 => out.push(violation(
                        "return-balance",
                        idx,
                        e,
                        "return would close the outermost exit, which only a \
                         completion may close"
                            .into(),
                    )),
                    _ => {
                        let (fl, r, _) = st.stack.pop().expect("len checked above");
                        if fl != *from_level || r != *reason {
                            out.push(violation(
                                "return-balance",
                                idx,
                                e,
                                format!("return does not match the deepest open exit (L{fl} {r})"),
                            ));
                        }
                    }
                }
                // A return after a DVH intercept is normal unwinding,
                // not a reflection of the intercepted exit.
                st.last_was_dvh = false;
            }
            TraceEvent::Intervention { hv_level, .. } | TraceEvent::Relay { hv_level, .. } => {
                if *hv_level < 1 || *hv_level >= ctx.leaf_level.max(1) {
                    out.push(violation(
                        "reflection-depth",
                        idx,
                        e,
                        format!("delivery to level {hv_level} outside 1..{}", ctx.leaf_level),
                    ));
                }
                let relay = matches!(e, TraceEvent::Relay { .. });
                let nesting = match st.stack.last() {
                    Some((fl, r, _)) if relay => {
                        Some(format!("interrupt relay inside the open exit L{fl} {r}"))
                    }
                    None if !relay => Some("intervention outside any open exit".into()),
                    Some((fl, _, _)) if !relay && hv_level >= fl => Some(format!(
                        "intervention at level {hv_level} not below the exiting level {fl}"
                    )),
                    _ => None,
                };
                if let Some(detail) = nesting {
                    out.push(violation("exit-nesting", idx, e, detail));
                }
                if st.last_was_dvh && !relay {
                    out.push(violation(
                        "dvh-reflected",
                        idx,
                        e,
                        "exit was DVH-intercepted and then reflected anyway".into(),
                    ));
                }
            }
            TraceEvent::DvhIntercept { .. } => st.last_was_dvh = true,
            TraceEvent::IrqDelivered { .. } => {}
        }
    }

    for (cpu, st) in &cpus {
        if let Some((fl, r, t0)) = st.stack.first() {
            out.push(Violation {
                pass: Pass::Trace,
                rule: "completed-balance",
                location: format!("cpu{cpu} end of trace"),
                detail: format!("exit L{fl} {r} opened at {t0} never completed"),
            });
        }
    }

    out
}
