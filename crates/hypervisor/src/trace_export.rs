//! Trace export: converting [`TraceEvent`] streams into Chrome
//! trace-event JSON and JSONL, and rebuilding their causal forest.
//!
//! # Chrome track layout (DESIGN.md §10)
//!
//! Each simulated CPU becomes one process (`pid` = CPU index); each
//! virtualization level becomes one thread within it (`tid` = level).
//! Exit spans are the nodes of the trace's causal forest
//! ([`causal_forest`]), so the per-CPU replay of open exits exists only
//! in [`dvh_obs::causal`]. A tree's root, an outermost exit, renders
//! as a complete ("X") span on the track of the level that exited,
//! with `ts = completed.at - spent` and `dur = spent` taken verbatim
//! from the engine's `Completed` event — so summing the durations of
//! `outermost: true` spans per (level, reason) reproduces
//! `RunStats::cycles_by_reason` *exactly*, which is what the checker's
//! metrics pass certifies. Nested exits (the multiplication itself)
//! render as inner spans on their own level's track, closing at their
//! `Returned` event, so inner spans nest inside their parent without
//! overlapping. Interventions, interrupt relays, DVH intercepts and
//! interrupt deliveries are instant ("i") events.
//!
//! Timestamps are simulated cycles written verbatim; the viewer labels
//! them microseconds, but only relative magnitude matters and cycles
//! keep the export exact.

use crate::trace::TraceEvent;
use dvh_arch::vmx::ExitReason;
use dvh_obs::causal::CausalNode;
use dvh_obs::json::Value;
use std::collections::BTreeMap;

/// A JSON object with the given members, in order.
fn obj<'a>(members: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    Value::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn int(n: u64) -> Value {
    Value::Int(n as i64)
}

fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

/// A metadata ("M") record naming the track of CPU `pid` (and of
/// level `tid` within it, when given).
fn track_name(pid: usize, tid: Option<usize>, name: String) -> Value {
    let kind = if tid.is_some() {
        "thread_name"
    } else {
        "process_name"
    };
    let mut members = vec![
        ("name", text(kind)),
        ("ph", text("M")),
        ("pid", int(pid as u64)),
    ];
    members.extend(tid.map(|tid| ("tid", int(tid as u64))));
    members.push(("args", obj([("name", Value::Str(name))])));
    obj(members)
}

/// Adds `node` and its subtree as complete ("X") spans on CPU `cpu`'s
/// tracks.
fn add_spans(records: &mut Vec<Value>, cpu: usize, node: &CausalNode, outermost: bool) {
    records.push(obj([
        ("name", Value::Str(format!("exit {}", node.frame()))),
        ("cat", text("exit")),
        ("ph", text("X")),
        ("ts", int(node.start)),
        ("dur", int(node.span())),
        ("pid", int(cpu as u64)),
        ("tid", int(node.level as u64)),
        (
            "args",
            obj([
                ("level", int(node.level as u64)),
                ("reason", Value::Str(node.reason.to_string())),
                ("outermost", Value::Bool(outermost)),
            ]),
        ),
    ]));
    for child in &node.children {
        add_spans(records, cpu, child, false);
    }
}

/// Converts a trace into a serialized Chrome trace-event document with
/// one process per simulated CPU and one thread per level.
pub fn chrome_json(events: &[TraceEvent], num_cpus: usize, levels: usize) -> String {
    let mut records = Vec::new();
    for cpu in 0..num_cpus {
        records.push(track_name(cpu, None, format!("cpu{cpu}")));
        for lvl in 1..=levels {
            records.push(track_name(cpu, Some(lvl), format!("L{lvl}")));
        }
    }
    for tree in &causal_forest(events, num_cpus).trees {
        add_spans(&mut records, tree.cpu, &tree.root, true);
    }
    for e in events {
        let (name, cat, tid, args) = match e {
            TraceEvent::Exit { .. }
            | TraceEvent::Returned { .. }
            | TraceEvent::Completed { .. } => continue,
            TraceEvent::Intervention {
                hv_level, reason, ..
            } => (
                format!("intervene L{hv_level}"),
                "intervention",
                *hv_level,
                vec![("reason", Value::Str(reason.to_string()))],
            ),
            TraceEvent::Relay { hv_level, .. } => {
                (format!("relay L{hv_level}"), "relay", *hv_level, vec![])
            }
            TraceEvent::DvhIntercept { mechanism, .. } => (
                format!("DVH {mechanism}"),
                "dvh",
                0,
                vec![("mechanism", text(mechanism))],
            ),
            TraceEvent::IrqDelivered { vector, woke, .. } => (
                format!("irq {vector:#x}"),
                "irq",
                0,
                vec![
                    ("vector", int((*vector).into())),
                    ("woke", Value::Bool(*woke)),
                ],
            ),
        };
        // An instant ("i") event, scoped to its thread ("s": "t").
        records.push(obj([
            ("name", Value::Str(name)),
            ("cat", text(cat)),
            ("ph", text("i")),
            ("s", text("t")),
            ("ts", int(e.at().as_u64())),
            ("pid", int(e.cpu() as u64)),
            ("tid", int(tid as u64)),
            ("args", obj(args)),
        ]));
    }
    obj([
        ("traceEvents", Value::Arr(records)),
        ("displayTimeUnit", text("ns")),
    ])
    .to_json()
}

/// One JSON object per event, one event per line — the
/// machine-readable sibling of the `Display` text format.
pub fn jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&event_value(e).to_json());
        out.push('\n');
    }
    out
}

/// A single trace event as a JSON value.
pub fn event_value(e: &TraceEvent) -> Value {
    let exit = |level: usize, reason: ExitReason| {
        vec![
            ("level", int(level as u64)),
            ("reason", Value::Str(reason.to_string())),
        ]
    };
    let (kind, mut fields) = match *e {
        TraceEvent::Exit {
            from_level,
            reason,
            vmcs_field,
            ..
        } => {
            let mut fields = exit(from_level, reason);
            fields.extend(vmcs_field.map(|f| ("vmcs_field", int(f.into()))));
            ("exit", fields)
        }
        TraceEvent::Completed {
            from_level,
            reason,
            spent,
            ..
        } => {
            let mut fields = exit(from_level, reason);
            fields.push(("spent", int(spent.as_u64())));
            ("completed", fields)
        }
        TraceEvent::Returned {
            from_level, reason, ..
        } => ("returned", exit(from_level, reason)),
        TraceEvent::Intervention {
            hv_level, reason, ..
        } => ("intervention", exit(hv_level, reason)),
        TraceEvent::Relay { hv_level, .. } => ("relay", vec![("level", int(hv_level as u64))]),
        TraceEvent::DvhIntercept { mechanism, .. } => ("dvh", vec![("mechanism", text(mechanism))]),
        TraceEvent::IrqDelivered { vector, woke, .. } => (
            "irq",
            vec![("vector", int(vector.into())), ("woke", Value::Bool(woke))],
        ),
    };
    let mut members = vec![
        ("type", text(kind)),
        ("at", int(e.at().as_u64())),
        ("cpu", int(e.cpu() as u64)),
    ];
    members.append(&mut fields);
    obj(members)
}

/// Rebuilds the causal forest of a trace: one tree per outermost exit,
/// with every nested exit a child of the exit whose handling caused it
/// (DESIGN.md §11). The bridge between the engine's event vocabulary
/// and the level-agnostic builder in [`dvh_obs::causal`]: `Exit` opens
/// a node, `Returned` closes a nested one, `Completed` closes the
/// outermost — with the root interval taken verbatim from
/// `[at - spent, at]` so root spans reproduce the attribution ledger
/// bit for bit (the trace linter's `cycle-attribution` rule proves
/// `at - spent` is the recorded exit time).
pub fn causal_forest(events: &[TraceEvent], num_cpus: usize) -> dvh_obs::causal::Forest {
    let mut b = dvh_obs::causal::CausalBuilder::new(num_cpus);
    for e in events {
        match e {
            TraceEvent::Exit {
                at,
                cpu,
                from_level,
                reason,
                ..
            } => b.exit(*cpu, at.as_u64(), *from_level, *reason),
            TraceEvent::Returned { at, cpu, .. } => b.returned(*cpu, at.as_u64()),
            TraceEvent::Completed {
                at,
                cpu,
                from_level,
                reason,
                spent,
            } => b.completed(*cpu, at.as_u64(), *from_level, *reason, spent.as_u64()),
            TraceEvent::Intervention { .. }
            | TraceEvent::Relay { .. }
            | TraceEvent::DvhIntercept { .. }
            | TraceEvent::IrqDelivered { .. } => {}
        }
    }
    b.finish()
}

/// Sums the durations of `outermost: true` spans in a *parsed* chrome
/// document, keyed by (level, rendered reason). Re-deriving the totals
/// from the serialized JSON (rather than from the events) is what lets
/// the checker certify the export itself, round trip included.
pub fn chrome_outermost_totals(doc: &Value) -> BTreeMap<(usize, String), u64> {
    let mut totals: BTreeMap<(usize, String), u64> = BTreeMap::new();
    let Some(events) = doc.get("traceEvents").and_then(Value::items) else {
        return totals;
    };
    for e in events {
        if e.get("ph").and_then(Value::as_str) != Some("X") {
            continue;
        }
        let Some(args) = e.get("args") else { continue };
        if args.get("outermost") != Some(&Value::Bool(true)) {
            continue;
        }
        let (Some(lvl), Some(reason), Some(dur)) = (
            args.get("level").and_then(Value::as_int),
            args.get("reason").and_then(Value::as_str),
            e.get("dur").and_then(Value::as_int),
        ) else {
            continue;
        };
        *totals
            .entry((lvl as usize, reason.to_string()))
            .or_insert(0) += dur as u64;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorldConfig;
    use crate::trace::TRACE_CAPACITY;
    use crate::world::World;
    use dvh_arch::costs::CostModel;
    use dvh_obs::json;

    fn traced_world() -> (World, Vec<TraceEvent>) {
        let mut w = World::new(CostModel::calibrated(), WorldConfig::baseline(2));
        w.enable_tracing(TRACE_CAPACITY);
        w.guest_hypercall(0);
        w.guest_hypercall(0);
        let events = w.take_trace();
        (w, events)
    }

    #[test]
    fn chrome_export_round_trips() {
        let (w, events) = traced_world();
        let text = chrome_json(&events, w.num_cpus(), w.leaf_level());
        let doc = json::parse(&text).expect("export must parse");
        assert_eq!(doc.to_json(), text, "round trip must be the identity");
        assert!(!doc.get("traceEvents").unwrap().items().unwrap().is_empty());
    }

    #[test]
    fn document_round_trips() {
        let (w, events) = traced_world();
        let text = chrome_json(&events, w.num_cpus(), w.leaf_level());
        let doc = json::parse(&text).unwrap();
        assert_eq!(doc.to_json(), text);
        assert_eq!(
            doc.get("displayTimeUnit").and_then(Value::as_str),
            Some("ns")
        );
        let records = doc.get("traceEvents").unwrap().items().unwrap();
        // Each record kind carries the members trace viewers read, in a
        // fixed order.
        let first = |ph: &str| {
            records
                .iter()
                .find(|r| r.get("ph").and_then(Value::as_str) == Some(ph))
                .unwrap_or_else(|| panic!("no {ph} record"))
        };
        let keys = |r: &Value| match r {
            Value::Obj(members) => members.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
            other => panic!("not an object: {other:?}"),
        };
        assert_eq!(keys(first("M")), ["name", "ph", "pid", "args"]);
        assert_eq!(records[1].get("tid").and_then(Value::as_int), Some(1));
        let span = first("X");
        assert_eq!(
            keys(span),
            ["name", "cat", "ph", "ts", "dur", "pid", "tid", "args"]
        );
        assert!(span.get("dur").and_then(Value::as_int) > Some(0));
        assert_eq!(
            span.get("args").unwrap().get("outermost"),
            Some(&Value::Bool(true))
        );
        assert_eq!(
            keys(first("i")),
            ["name", "cat", "ph", "s", "ts", "pid", "tid", "args"]
        );
    }

    #[test]
    fn outermost_span_totals_equal_attribution_ledger() {
        let (w, events) = traced_world();
        let text = chrome_json(&events, w.num_cpus(), w.leaf_level());
        let doc = json::parse(&text).unwrap();
        let from_json = chrome_outermost_totals(&doc);
        assert!(!from_json.is_empty());
        let ledger = &w.stats.cycles_by_reason;
        assert_eq!(from_json.len(), ledger.len());
        for ((lvl, reason), c) in ledger.iter() {
            let got = from_json
                .get(&(lvl, reason.to_string()))
                .copied()
                .unwrap_or(0);
            assert_eq!(got, c.as_u64(), "(L{lvl}, {reason})");
        }
    }

    #[test]
    fn span_totals_helper_matches_ledger() {
        // The spans are the forest's nodes, so its root totals are what
        // the outermost spans sum to.
        let (w, events) = traced_world();
        let roots = causal_forest(&events, w.num_cpus()).root_cycle_totals();
        let ledger: BTreeMap<_, _> = w
            .stats
            .cycles_by_reason
            .iter()
            .map(|(k, c)| (k, c.as_u64()))
            .collect();
        assert_eq!(roots, ledger);
    }

    #[test]
    fn nested_spans_are_emitted_for_exit_multiplication() {
        let (w, events) = traced_world();
        let doc = json::parse(&chrome_json(&events, w.num_cpus(), w.leaf_level())).unwrap();
        let spans: Vec<_> = doc
            .get("traceEvents")
            .unwrap()
            .items()
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .collect();
        // A reflected L2 hypercall traps recursively: there must be
        // inner spans beyond the outermost ones.
        assert!(spans
            .iter()
            .any(|s| s.get("args").unwrap().get("outermost") == Some(&Value::Bool(false))));
        // Inner spans sit on their own level's thread track.
        for s in &spans {
            assert_eq!(
                s.get("tid").and_then(Value::as_int),
                s.get("args").unwrap().get("level").and_then(Value::as_int)
            );
        }
    }

    #[test]
    fn jsonl_lines_parse_individually() {
        let (_, events) = traced_world();
        let text = jsonl(&events);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), events.len());
        for line in lines {
            let v = json::parse(line).expect("every line is a JSON object");
            assert!(v.get("type").and_then(Value::as_str).is_some());
            assert!(v.get("at").and_then(Value::as_int).is_some());
        }
    }
}
