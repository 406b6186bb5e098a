//! Steady-state simulation makes no heap allocations.
//!
//! This binary installs a counting global allocator. Only allocations
//! made by a thread that has switched counting on are counted, so the
//! test harness's other threads cannot disturb a measurement. Every
//! application of Figs. 7–10 runs on every configuration column of
//! those figures: once warmed up, 20 more transactions must allocate
//! nothing.

use dvh_core::{Machine, MachineConfig};
use dvh_devices::nic::WIRE_CAPACITY;
use dvh_workloads::figures::figure_spec;
use dvh_workloads::{run_app, AppId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            ALLOCATIONS.with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter touches only const-initialized thread-locals, which never
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap allocations (fresh or grown) `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    f();
    COUNTING.with(|on| on.set(false));
    ALLOCATIONS.with(Cell::get)
}

/// Transactions per measured run (and per warm-up run).
const TXNS: u32 = 20;

/// Warms `app` up on a fresh `config` machine, then returns the heap
/// allocations of `TXNS` more transactions.
///
/// Warm-up runs the very event sequence that is measured (each
/// `run_app` call restarts its event accumulators), so every exit
/// summary the measured run replays is already recorded and every
/// queue has reached its working depth. The NIC wire is then filled
/// with frames of the application's size, so transmission recycles
/// evicted buffers as it does in any long run.
fn steady_state_allocations(app: AppId, config: &MachineConfig) -> u64 {
    let mix = app.mix();
    let mut m = Machine::build(config.clone());
    run_app(&mut m, &mix, TXNS);
    if mix.tx_packets > 0.0 {
        let short = WIRE_CAPACITY - m.world().nic.wire().len();
        m.net_tx(0, short as u32, mix.tx_bytes);
        assert_eq!(m.world().nic.wire().len(), WIRE_CAPACITY);
    }
    run_app(&mut m, &mix, TXNS);
    allocations_in(|| {
        run_app(&mut m, &mix, TXNS);
    })
}

/// Checks every application on the columns of `figure` that no
/// earlier figure (in 7, 8, 9, 10 order) already has.
fn check_figure(figure: u32) {
    let mut seen: Vec<MachineConfig> = Vec::new();
    for earlier in (7..figure).filter_map(figure_spec) {
        seen.extend(earlier.1.into_iter().map(|(_, c)| c));
    }
    let (_, columns) = figure_spec(figure).expect("an application figure");
    let mut failures = Vec::new();
    for (column, config) in columns.iter().filter(|(_, c)| !seen.contains(c)) {
        for app in AppId::ALL {
            let n = steady_state_allocations(app, config);
            if n > 0 {
                failures.push(format!("{} on {column}: {n}", app.cli_name()));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "Fig. {figure}: heap allocations in {TXNS} steady-state txns: {failures:?}"
    );
}

#[test]
fn fig7_steady_state_allocates_nothing() {
    check_figure(7);
}

#[test]
fn fig8_steady_state_allocates_nothing() {
    check_figure(8);
}

#[test]
fn fig9_steady_state_allocates_nothing() {
    check_figure(9);
}

#[test]
fn fig10_steady_state_allocates_nothing() {
    check_figure(10);
}

#[test]
fn the_counter_sees_this_threads_allocations() {
    let n = allocations_in(|| {
        std::hint::black_box(vec![0u8; 64]);
    });
    assert_eq!(n, 1);
}
