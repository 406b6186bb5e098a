//! The traced run's layer suite: host time of calls into each crate's
//! public functions, timed from here. It is the same on every workload,
//! so every traced run reports every per-layer metric.

use crate::cells::{self, observed_machine, Cell, Kind, OBS_TXNS};
use crate::spans::Spans;
use crate::{serial_leg, Metric, Reference};
use dvh_arch::vmx::{Vmcs, SLOT_ENCODINGS};
use dvh_checker::harness::fig7_configs;
use dvh_core::{Machine, MachineConfig};
use dvh_devices::virtio::Descriptor;
use dvh_devices::{Bdf, Iommu, VirtQueue, VirtualIommu};
use dvh_hypervisor::trace_export;
use dvh_memory::ept::Ept;
use dvh_memory::iommu_pt::{IoTable, ShadowIoTable};
use dvh_memory::sparse::SparseMemory;
use dvh_memory::{Gpa, Hpa, Perms};
use dvh_workloads::{run_app, AppId};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Time spent on each timed operation.
const BUDGET: Duration = Duration::from_millis(20);

/// The median host ns per call of `f`. Calls run in batches long
/// enough that the clock read is noise, for about [`BUDGET`] and at
/// least five batches.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let mut batch = 1u32;
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        if t.elapsed() >= Duration::from_micros(20) || batch >= 1 << 16 {
            break;
        }
        batch *= 2;
    }
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 5 || start.elapsed() < BUDGET {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t.elapsed().as_nanos() as f64 / f64::from(batch));
    }
    crate::median(&mut samples)
}

/// The machine configurations the Table 1 rows are reported for.
fn table1_configs() -> [(&'static str, MachineConfig); 5] {
    [
        ("L1", MachineConfig::baseline(1)),
        ("L2", MachineConfig::baseline(2)),
        ("L2-dvh", MachineConfig::dvh(2)),
        ("L3", MachineConfig::baseline(3)),
        ("L3-dvh", MachineConfig::dvh(3)),
    ]
}

type Op = fn(&mut Machine);

/// Host µs and simulated exits of one call of `op` on a fresh machine,
/// after one warm-up call.
fn op_cost(config: &MachineConfig, op: Op) -> (f64, u64) {
    let mut m = Machine::build(config.clone());
    op(&mut m);
    let before = m.world().stats.total_exits();
    op(&mut m);
    let exits = m.world().stats.total_exits() - before;
    (ns_per_call(|| op(&mut m)) / 1e3, exits)
}

fn hypervisor_ops(out: &mut Vec<Metric>) {
    let ops: [(&str, Op); 4] = [
        ("hypercall", |m| {
            m.hypercall(0);
        }),
        ("program_timer", |m| {
            m.program_timer(0);
        }),
        ("send_ipi", |m| {
            m.send_ipi(0, 1);
        }),
        ("device_notify", |m| {
            m.device_notify(0);
        }),
    ];
    for (name, op) in ops {
        for (cfg, config) in table1_configs() {
            let (us, exits) = op_cost(&config, op);
            out.push(Metric::new(format!("hypervisor.{name}_us.{cfg}"), us, "us"));
            out.push(Metric::new(
                format!("hypervisor.{name}_exits.{cfg}"),
                exits as f64,
                "count",
            ));
        }
    }
    // Five levels deep: one hypercall is ~150k exits, the depth that
    // exit multiplication makes expensive.
    let (us, _) = op_cost(&MachineConfig::baseline(5), |m| {
        m.hypercall(0);
    });
    out.push(Metric::new("hypervisor.hypercall_us.L5", us, "us"));
}

fn core_ops(out: &mut Vec<Metric>) {
    let ops: [(&str, Op); 4] = [
        ("net_tx", |m| {
            m.net_tx(0, 1, 1400);
        }),
        ("net_rx_burst", |m| {
            m.net_rx_burst(0, 4, 1500);
        }),
        ("blk_io", |m| {
            m.blk_io(0, 4096, true);
        }),
        ("idle_round", |m| {
            m.idle_round(0);
        }),
    ];
    let configs = [
        ("L2", MachineConfig::baseline(2)),
        ("L2-pt", MachineConfig::passthrough(2)),
        ("L2-dvh", MachineConfig::dvh(2)),
        ("L3", MachineConfig::baseline(3)),
    ];
    for (name, op) in ops {
        for (cfg, config) in &configs {
            let (us, _) = op_cost(config, op);
            out.push(Metric::new(format!("core.{name}_us.{cfg}"), us, "us"));
        }
    }
    let configs = fig7_configs();
    let build_us: f64 = configs
        .iter()
        .map(|(_, c)| ns_per_call(|| drop(black_box(Machine::build(c.clone())))) / 1e3)
        .sum::<f64>()
        / configs.len() as f64;
    out.push(Metric::new("core.build_us", build_us, "us"));
}

fn arch_ops(out: &mut Vec<Metric>) {
    let mut vmcs = Vmcs::new();
    for (i, &field) in SLOT_ENCODINGS.iter().enumerate() {
        vmcs.write(field, i as u64);
    }
    let n = SLOT_ENCODINGS.len() as f64;
    let read = ns_per_call(|| {
        for &field in &SLOT_ENCODINGS {
            black_box(vmcs.read(black_box(field)));
        }
    });
    out.push(Metric::new("arch.vmcs_read_ns", read / n, "ns"));
    let write = ns_per_call(|| {
        for (i, &field) in SLOT_ENCODINGS.iter().enumerate() {
            vmcs.write(black_box(field), i as u64);
        }
    });
    out.push(Metric::new("arch.vmcs_write_ns", write / n, "ns"));
}

/// A pseudo-random walk over `pages` page numbers.
fn pfn_walk(pages: u64) -> impl FnMut() -> u64 {
    let mut i = 0u64;
    move || {
        i = i.wrapping_add(1);
        i.wrapping_mul(2_654_435_761) % pages
    }
}

fn memory_ops(out: &mut Vec<Metric>) {
    const PAGES: u64 = 4096;
    let mut ept = Ept::new();
    ept.map_ram(Gpa::new(0), Hpa::new(1 << 32), PAGES);
    let mut next = pfn_walk(PAGES);
    let access = ns_per_call(|| {
        black_box(ept.access(Gpa::from_pfn(next()), Perms::RO));
    });
    out.push(Metric::new("memory.ept_access_ns", access, "ns"));
    let map = ns_per_call(|| {
        let mut e = Ept::new();
        e.map_ram(Gpa::new(0), Hpa::new(1 << 32), 512);
        black_box(e);
    });
    out.push(Metric::new("memory.ept_map_ns", map / 512.0, "ns"));

    let mut io = IoTable::new();
    io.map(0, 1 << 20, PAGES, Perms::RW);
    let translate = ns_per_call(|| {
        black_box(io.translate(next(), Perms::RO)).ok();
    });
    out.push(Metric::new("memory.iotable_translate_ns", translate, "ns"));
    let mut outer = IoTable::new();
    outer.map(1 << 20, 1 << 24, PAGES, Perms::RW);
    let shadow = ns_per_call(|| {
        black_box(ShadowIoTable::build(&[&io, &outer]));
    });
    out.push(Metric::new("memory.shadow_io_build_us", shadow / 1e3, "us"));

    let mut mem = SparseMemory::new();
    let data = [0xABu8; 256];
    let write = ns_per_call(|| mem.write(Gpa::from_pfn(next() % 256).offset(128), &data));
    out.push(Metric::new("memory.sparse_write_ns", write, "ns"));
    let mut buf = [0u8; 256];
    let read = ns_per_call(|| {
        mem.read_into(Gpa::from_pfn(next() % 256).offset(128), &mut buf);
        black_box(&buf);
    });
    out.push(Metric::new("memory.sparse_read_ns", read, "ns"));
}

fn device_ops(out: &mut Vec<Metric>) {
    let mut q = VirtQueue::new(256);
    let roundtrip = ns_per_call(|| {
        q.add_chain(vec![Descriptor {
            addr: Gpa::new(0x10_0000),
            len: 1500,
            device_writes: false,
        }])
        .expect("an empty queue has room for one chain");
        let chain = q.pop_avail().expect("the chain just added");
        q.push_used(chain.head, 0);
        black_box(q.pop_used());
    });
    out.push(Metric::new(
        "devices.virtqueue_roundtrip_ns",
        roundtrip,
        "ns",
    ));

    const PAGES: u64 = 4096;
    let bdf = Bdf::new(0, 3, 0);
    let mut iommu = Iommu::new();
    iommu.attach(bdf);
    iommu.map(bdf, 0, 1 << 20, PAGES, Perms::RW);
    let mut next = pfn_walk(PAGES);
    let translate = ns_per_call(|| {
        black_box(iommu.translate(bdf, next(), Perms::RO)).ok();
    });
    out.push(Metric::new("devices.iommu_translate_ns", translate, "ns"));
    let map = ns_per_call(|| {
        let mut v = VirtualIommu::new(true);
        v.attach(bdf);
        for pfn in 0..256 {
            v.map(bdf, pfn, (1 << 20) + pfn, 1, Perms::RW);
        }
        black_box(v);
    });
    out.push(Metric::new("devices.viommu_map_ns", map / 256.0, "ns"));
}

fn migration_ops(out: &mut Vec<Metric>) {
    const RUNS: u64 = 10;
    let cell = Cell {
        id: "migration/dvh".into(),
        kind: Kind::Migration {
            config: MachineConfig::dvh(2),
            include_hv: false,
        },
    };
    let mut s = Spans::default();
    for _ in 0..RUNS {
        cells::run_cell(&cell, Some(&mut s));
    }
    out.push(Metric::new(
        "migration.migrate_ms",
        s.ns("migrate") as f64 / RUNS as f64 / 1e6,
        "ms",
    ));
    out.push(Metric::new(
        "migration.pages",
        (s.total("migrate.pages") / RUNS) as f64,
        "count",
    ));
    out.push(Metric::new(
        "migration.rounds",
        (s.total("migrate.rounds") / RUNS) as f64,
        "count",
    ));
}

/// The `observe` workload's cells, traced, plus the Chrome export and
/// JSON parse that `lint_chrome_export` performs, timed apart.
/// Returns the serial leg so its operations count toward the run.
fn obs_ops(out: &mut Vec<Metric>, reference: &Reference) -> crate::Leg {
    let cells = cells::cells("observe").expect("observe is a workload");
    let mut s = Spans::default();
    let leg = serial_leg(&cells, reference, Some(&mut s));

    let (mut chrome_ns, mut parse_ns, mut bytes) = (0u64, 0u64, 0u64);
    // (bytes, parse ns) of the smallest and largest document.
    let mut docs: Vec<(u64, u64)> = Vec::new();
    for (_, config) in fig7_configs() {
        let (mut m, _) = observed_machine(&config);
        run_app(&mut m, &AppId::NetperfRr.mix(), OBS_TXNS);
        let w = m.world_mut();
        let events = w.take_trace();
        let t = Instant::now();
        let text = trace_export::chrome_json(&events, w.num_cpus(), w.leaf_level());
        chrome_ns += t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let parsed = dvh_obs::json::parse(&text);
        let ns = t.elapsed().as_nanos() as u64;
        assert!(parsed.is_ok(), "the chrome export must parse");
        parse_ns += ns;
        bytes += text.len() as u64;
        docs.push((text.len() as u64, ns));
    }
    docs.sort_unstable();
    let per_byte = |(b, ns): (u64, u64)| ns as f64 / b as f64;

    let ms = |name: &str| s.ns(name) as f64 / 1e6;
    out.extend([
        Metric::new("obs.trace_events", s.total("trace_events") as f64, "count"),
        Metric::new(
            "obs.trace_dropped",
            s.total("trace_dropped") as f64,
            "count",
        ),
        Metric::new("obs.chrome_bytes", bytes as f64, "B"),
        Metric::new("obs.chrome_json_ms", chrome_ns as f64 / 1e6, "ms"),
        Metric::new("obs.jsonl_ms", ms("jsonl"), "ms"),
        Metric::new("obs.causal_forest_ms", ms("causal_forest"), "ms"),
        Metric::new("obs.folded_ms", ms("folded"), "ms"),
        Metric::new("obs.snapshot_ms", ms("snapshot"), "ms"),
        Metric::new("obs.diff_ms", ms("diff"), "ms"),
        Metric::new("obs.json_parse_ms", parse_ns as f64 / 1e6, "ms"),
        Metric::new(
            "obs.json_parse_ns_per_byte.small",
            per_byte(docs[0]),
            "ns/B",
        ),
        Metric::new(
            "obs.json_parse_ns_per_byte.large",
            per_byte(docs[docs.len() - 1]),
            "ns/B",
        ),
        Metric::new("obs.recording_overhead", recording_overhead(), "x"),
        Metric::new("checker.lint_trace_ms", ms("lint_trace"), "ms"),
        Metric::new("checker.lint_metrics_ms", ms("lint_metrics"), "ms"),
        Metric::new(
            "checker.lint_chrome_export_ms",
            ms("lint_chrome_export"),
            "ms",
        ),
        Metric::new("checker.lint_causal_ms", ms("lint_causal"), "ms"),
        Metric::new("checker.check_machine_ms", ms("check_machine"), "ms"),
        Metric::new("checker.pinned_fixture_ms", ms("pinned_fixture"), "ms"),
        Metric::new("checker.violations", s.total("violations") as f64, "count"),
    ]);
    leg
}

/// Host ns per exit of the same netperf-RR cell with observability on,
/// divided by the same with it off; medians of seven runs each.
fn recording_overhead() -> f64 {
    let config = MachineConfig::baseline(2);
    let mix = AppId::NetperfRr.mix();
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..7 {
        for observed in [false, true] {
            let mut m = if observed {
                observed_machine(&config).0
            } else {
                Machine::build(config.clone())
            };
            let t = Instant::now();
            run_app(&mut m, &mix, OBS_TXNS);
            let ns_per_exit = t.elapsed().as_nanos() as f64 / m.world().stats.total_exits() as f64;
            if observed { &mut on } else { &mut off }.push(ns_per_exit);
        }
    }
    crate::median(&mut on) / crate::median(&mut off)
}

/// Runs the layer suite. Returns its metrics and the leg of `observe`
/// cells it ran.
pub fn layer_suite(reference: &Reference) -> (Vec<Metric>, crate::Leg) {
    let mut out = Vec::new();
    hypervisor_ops(&mut out);
    core_ops(&mut out);
    arch_ops(&mut out);
    memory_ops(&mut out);
    device_ops(&mut out);
    migration_ops(&mut out);
    let leg = obs_ops(&mut out, reference);
    (out, leg)
}
