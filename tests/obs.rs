//! Integration tests for the dvh-obs observability layer: the Fig. 7
//! L2 netperf scenario, traced and metered end to end.
//!
//! The contract under test is exactness, not plausibility — the
//! metrics registry, the serialized Chrome trace, and the engine's
//! `RunStats` attribution ledger are three folds of one event stream,
//! and they must agree key for key. The second contract is
//! invisibility: enabling observability must not change a single
//! simulated cycle.

use dvh_arch::vmx::ExitReason;
use dvh_checker::metrics_lint::{lint_chrome_export, lint_metrics};
use dvh_core::analysis::attribution;
use dvh_core::{Machine, MachineConfig};
use dvh_hypervisor::trace::TRACE_CAPACITY;
use dvh_hypervisor::trace_export::{causal_forest, chrome_json, chrome_outermost_totals, jsonl};
use dvh_hypervisor::{RunStats, TraceEvent};
use dvh_obs::json::{self, Value};
use dvh_obs::metrics::names;
use dvh_workloads::{run_app, AppId};
use std::collections::BTreeMap;

const TXNS: u32 = 25;

/// The Fig. 7 "Nested" column running Netperf RR: an L2 VM with
/// paravirtual I/O, the paper's headline 2x-overhead scenario.
fn fig7_l2_netperf() -> Machine {
    let mut m = Machine::build(MachineConfig::baseline(2));
    {
        let w = m.world_mut();
        w.enable_tracing(TRACE_CAPACITY);
        w.enable_metrics();
        w.reset_stats();
    }
    run_app(&mut m, &AppId::NetperfRr.mix(), TXNS);
    m
}

/// The engine ledgers' per-(level, reason) (exit count, cycle total),
/// keyed like `MetricsRegistry::exit_totals`; a key either ledger
/// lacks reads 0 there.
fn ledger_exit_totals(stats: &RunStats) -> BTreeMap<(usize, ExitReason), (u64, u64)> {
    let mut totals = BTreeMap::new();
    for (key, n) in stats.outermost_exits.iter() {
        totals.entry(key).or_insert((0, 0)).0 = n;
    }
    for (key, c) in stats.cycles_by_reason.iter() {
        totals.entry(key).or_insert((0, 0)).1 = c.as_u64();
    }
    totals
}

#[test]
fn chrome_export_round_trips_and_matches_ledger_exactly() {
    let mut m = fig7_l2_netperf();
    let w = m.world_mut();
    let events = w.take_trace();
    assert!(!events.is_empty());

    let text = chrome_json(&events, w.num_cpus(), w.leaf_level());
    let doc = json::parse(&text).expect("chrome export must parse");
    assert_eq!(doc.to_json(), text, "round trip must be the identity");

    // Per-(level, reason) outermost span totals, re-derived from the
    // serialized JSON, equal the attribution ledger — both directions.
    let from_json = chrome_outermost_totals(&doc);
    let ledger = &w.stats.cycles_by_reason;
    assert!(!ledger.is_empty());
    assert_eq!(from_json.len(), ledger.len());
    for ((level, reason), cycles) in ledger.iter() {
        assert_eq!(
            from_json.get(&(level, reason.to_string())).copied(),
            Some(cycles.as_u64()),
            "(L{level}, {reason})"
        );
    }
}

#[test]
fn metrics_registry_is_the_ledgers_twin() {
    let mut m = fig7_l2_netperf();
    let w = m.world_mut();
    let reg = w.metrics().expect("metrics enabled");
    assert_eq!(reg.exit_totals(), ledger_exit_totals(&w.stats));
    // And the checker's metrics pass certifies the same machine clean.
    assert!(lint_metrics(reg, &w.stats).is_empty());
    let violations = lint_chrome_export(w.trace_events(), w.num_cpus(), w.leaf_level(), &w.stats);
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn observability_never_perturbs_the_simulation() {
    let bare = {
        let mut m = Machine::build(MachineConfig::baseline(2));
        run_app(&mut m, &AppId::NetperfRr.mix(), TXNS);
        m.world_mut().stats.clone()
    };
    let mut observed = fig7_l2_netperf();
    let w = observed.world_mut();
    assert_eq!(bare.cycles_by_reason, w.stats.cycles_by_reason);
    assert_eq!(bare.total_exits(), w.stats.total_exits());
    assert_eq!(bare.idle_cycles, w.stats.idle_cycles);
}

#[test]
fn profile_rows_sum_to_the_ledger() {
    let mut m = fig7_l2_netperf();
    let w = m.world_mut();
    let reg = w.metrics().expect("metrics enabled");
    let rows = attribution(&w.stats);
    let row_total: u64 = rows.iter().map(|r| r.cycles).sum();
    let ledger_total = w.stats.total_attributed_cycles().as_u64();
    assert_eq!(row_total, ledger_total);
    let pct: f64 = rows.iter().map(|r| r.percent).sum();
    assert!((pct - 100.0).abs() < 1e-6, "{pct}");
    // Each row is also what the registry's histogram for its key holds,
    // and the registry holds no other exit histogram.
    let from_rows: BTreeMap<_, _> = rows
        .iter()
        .map(|r| ((r.level, r.reason), (r.count, r.cycles)))
        .collect();
    assert_eq!(from_rows, reg.exit_totals());
}

#[test]
fn jsonl_export_covers_every_event() {
    let mut m = fig7_l2_netperf();
    let events = m.world_mut().take_trace();
    let text = jsonl(&events);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), events.len());
    // The completions' cycles, re-read from the lines, are the ledger.
    let mut spent: BTreeMap<(i64, String), u64> = BTreeMap::new();
    for line in &lines {
        let v = json::parse(line).expect("every jsonl line parses");
        if v.get("type").and_then(Value::as_str) == Some("completed") {
            let level = v.get("level").and_then(Value::as_int).unwrap();
            let reason = v.get("reason").and_then(Value::as_str).unwrap();
            *spent.entry((level, reason.to_string())).or_insert(0) +=
                v.get("spent").and_then(Value::as_int).unwrap() as u64;
        }
    }
    let ledger: BTreeMap<(i64, String), u64> = m
        .world()
        .stats
        .cycles_by_reason
        .iter()
        .map(|((l, r), c)| ((l as i64, r.to_string()), c.as_u64()))
        .collect();
    assert_eq!(spent, ledger);
}

/// Every view is a fold of the one event stream `World::record` sees:
/// per level and key, the trace, the `RunStats` ledger and the metrics
/// registry hold the same interventions, DVH intercepts and attributed
/// cycles on every Fig. 7 column under netperf RR. Interventions
/// include the interrupt relays of guest hypervisors, which are
/// traced as `Relay` events outside any exit.
#[test]
fn every_fig7_column_conserves_under_netperf() {
    for (name, config) in dvh_checker::harness::fig7_configs() {
        let mut m = Machine::build(config);
        m.world_mut().enable_observability(TRACE_CAPACITY);
        run_app(&mut m, &AppId::NetperfRr.mix(), TXNS);
        let w = m.world_mut();
        assert_eq!(w.trace_dropped(), 0, "{name}");
        let mut interventions: BTreeMap<usize, u64> = BTreeMap::new();
        let mut dvh: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut cycles = BTreeMap::new();
        for e in w.trace_events() {
            match *e {
                TraceEvent::Intervention { hv_level, .. } | TraceEvent::Relay { hv_level, .. } => {
                    *interventions.entry(hv_level).or_insert(0) += 1
                }
                TraceEvent::DvhIntercept { mechanism, .. } => {
                    *dvh.entry(mechanism).or_insert(0) += 1
                }
                TraceEvent::Completed {
                    from_level,
                    reason,
                    spent,
                    ..
                } => *cycles.entry((from_level, reason)).or_default() += spent,
                _ => {}
            }
        }
        let stats = &w.stats;
        let ledger: BTreeMap<usize, u64> = stats.interventions.iter().collect();
        assert_eq!(interventions, ledger, "{name}: interventions");
        assert_eq!(dvh, stats.dvh_intercepts, "{name}: DVH intercepts");
        let reg = w.metrics().expect("metrics enabled");
        let registry: BTreeMap<&'static str, u64> = reg
            .counters()
            .filter(|(k, _)| k.name == names::DVH_INTERCEPTS)
            .map(|(k, n)| (k.tag.unwrap(), n))
            .collect();
        assert_eq!(
            registry, stats.dvh_intercepts,
            "{name}: registry DVH intercepts"
        );
        let ledger: BTreeMap<_, _> = stats.cycles_by_reason.iter().collect();
        assert_eq!(cycles, ledger, "{name}: cycles");
        assert_eq!(reg.exit_totals(), ledger_exit_totals(stats), "{name}");
    }
}

/// The Chrome export's spans are the causal forest's nodes, one thread
/// track per level: one `X` span per exit on its level's track, one
/// `outermost: true` span per tree, and every inner span inside its
/// parent on the same CPU.
#[test]
fn trace_track_layout_is_one_thread_per_level() {
    let mut m = fig7_l2_netperf();
    let w = m.world_mut();
    assert_eq!(w.trace_dropped(), 0);
    let (num_cpus, leaf) = (w.num_cpus(), w.leaf_level());
    let events = w.take_trace();
    let forest = causal_forest(&events, num_cpus);
    assert_eq!(forest.incomplete, 0);
    let doc = json::parse(&chrome_json(&events, num_cpus, leaf)).unwrap();
    let int = |e: &Value, k: &str| e.get(k).and_then(Value::as_int).unwrap();
    // (pid, ts, end, outermost) per span.
    let mut spans: Vec<(i64, i64, i64, bool)> = Vec::new();
    for e in doc.get("traceEvents").unwrap().items().unwrap() {
        if e.get("ph").and_then(Value::as_str) != Some("X") {
            continue;
        }
        let args = e.get("args").unwrap();
        // A span's thread track is the level it executed at.
        assert_eq!(int(e, "tid"), int(args, "level"));
        let (ts, outermost) = (
            int(e, "ts"),
            args.get("outermost") == Some(&Value::Bool(true)),
        );
        spans.push((int(e, "pid"), ts, ts + int(e, "dur"), outermost));
    }
    assert_eq!(spans.len() as u64, forest.total_exits());
    assert_eq!(spans.iter().filter(|s| s.3).count(), forest.trees.len());
    // Sweep each CPU's spans by start (longest first on ties): the
    // innermost span still open when a span starts is its parent.
    spans.sort_by_key(|&(pid, ts, end, _)| (pid, ts, std::cmp::Reverse(end)));
    let mut open: Vec<(i64, i64, i64, bool)> = Vec::new();
    for s in spans {
        while open.last().is_some_and(|top| top.0 != s.0 || top.2 <= s.1) {
            open.pop();
        }
        match open.last() {
            None => assert!(s.3, "inner span {s:?} has no parent"),
            Some(parent) => assert!(!s.3 && s.2 <= parent.2, "{s:?} escapes {parent:?}"),
        }
        open.push(s);
    }
}

#[test]
fn jsonl_round_trip_agrees_with_chrome_export() {
    // Satellite contract: the JSONL stream and the Chrome trace are two
    // serializations of the same events, so pushing the JSONL through
    // `obs::json` and re-deriving totals must agree with the Chrome
    // export on both event count and cycle sum.
    let mut m = fig7_l2_netperf();
    let w = m.world_mut();
    let events = w.take_trace();
    let (num_cpus, leaf) = (w.num_cpus(), w.leaf_level());

    let mut completed = 0u64;
    let mut spent_sum = 0u64;
    for line in jsonl(&events).lines() {
        let v = json::parse(line).expect("jsonl line parses");
        // Round trip through obs::json is the identity, line by line.
        assert_eq!(v.to_json(), line);
        if v.get("type").and_then(Value::as_str) == Some("completed") {
            completed += 1;
            spent_sum += v.get("spent").and_then(Value::as_int).unwrap() as u64;
        }
    }

    let doc = json::parse(&chrome_json(&events, num_cpus, leaf)).unwrap();
    let mut outermost_spans = 0u64;
    let mut dur_sum = 0u64;
    for e in doc.get("traceEvents").unwrap().items().unwrap() {
        if e.get("ph").and_then(Value::as_str) != Some("X") {
            continue;
        }
        if e.get("args").unwrap().get("outermost") != Some(&Value::Bool(true)) {
            continue;
        }
        outermost_spans += 1;
        dur_sum += e.get("dur").and_then(Value::as_int).unwrap() as u64;
    }

    assert!(completed > 0);
    assert_eq!(
        completed, outermost_spans,
        "one outermost span per completion"
    );
    assert_eq!(spent_sum, dur_sum, "both exports account the same cycles");
}

#[test]
fn device_metrics_export_is_idempotent() {
    let mut m = fig7_l2_netperf();
    let w = m.world_mut();
    w.export_device_metrics();
    let once = w.metrics().unwrap().snapshot();
    w.export_device_metrics();
    let twice = w.metrics().unwrap().snapshot();
    assert_eq!(once, twice, "re-export must not double-count");
    assert!(once.contains("virtqueue_kicks"), "{once}");
}
