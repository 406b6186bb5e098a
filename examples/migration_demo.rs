//! Live migration of a nested VM that uses a DVH virtual-passthrough
//! device — the feature combination device passthrough cannot offer
//! (§3.6).
//!
//! The demo runs a pre-copy migration while the nested VM keeps
//! dirtying memory through CPU writes *and* device DMA; the guest
//! hypervisor harvests the DMA dirty log through the PCI migration
//! capability. It then shows that physical passthrough refuses to
//! migrate at all.
//!
//! Run with:
//! ```text
//! cargo run --release --example migration_demo
//! ```

use dvh_core::{Machine, MachineConfig};
use dvh_devices::nic::Frame;
use dvh_hypervisor::world::LEAF_BUF_BASE_PFN;
use dvh_memory::Gpa;
use dvh_migration::{migrate_nested_vm, resume_on, MigrationConfig, MigrationError};

fn main() {
    let mut m = Machine::build(MachineConfig::dvh(2));

    // Give the nested VM a working set: CPU writes...
    for i in 0..48u64 {
        m.world_mut().guest_write_memory(
            0,
            Gpa::from_pfn(LEAF_BUF_BASE_PFN + i % 60),
            &[i as u8; 512],
        );
    }
    // ...and device DMA (an RX packet lands in guest memory through
    // the shadow I/O table).
    m.world_mut()
        .external_packet_arrival(0, &Frame::patterned(1400, 9));

    println!("Migrating a nested VM with a virtual-passthrough NIC (268 Mb/s)...");
    let mut busy_rounds = 4;
    let report = migrate_nested_vm(m.world_mut(), MigrationConfig::default(), |w| {
        // The VM keeps running during pre-copy: more dirty pages.
        if busy_rounds > 0 {
            busy_rounds -= 1;
            for i in 0..10u64 {
                w.guest_write_memory(0, Gpa::from_pfn(LEAF_BUF_BASE_PFN + i), &[0xEE; 256]);
            }
        }
    })
    .expect("DVH nested VMs are migratable");

    for (i, round) in report.rounds.iter().enumerate() {
        println!(
            "  round {}: {:>4} pages, {:>7.2} ms",
            i,
            round.pages,
            round.time.as_secs_f64() * 1e3
        );
    }
    println!(
        "  cut-over: {} pages + {} bytes of encapsulated device state",
        report.downtime_pages, report.device_state_bytes
    );
    println!(
        "  total {:.3} s, downtime {:.2} ms, converged: {}, destination verified: {}",
        report.total_time.as_secs_f64(),
        report.downtime.as_secs_f64() * 1e3,
        report.converged,
        report.verified
    );

    // Resume at the destination: a second host machine with the same
    // configuration receives the image and encapsulated device state.
    let src_config = m.world().config.clone();
    let mut dst = Machine::build(MachineConfig::dvh(2));
    let installed = resume_on(dst.world_mut(), &src_config, &report)
        .expect("same host hypervisor type at source and destination");
    println!(
        "\nDestination resumed with {installed} pages installed; first page matches: {}",
        dst.world()
            .guest_read_memory(Gpa::from_pfn(LEAF_BUF_BASE_PFN), 8)
            == m.world()
                .guest_read_memory(Gpa::from_pfn(LEAF_BUF_BASE_PFN), 8)
    );

    // The contrast: physical passthrough cannot migrate.
    let mut pt = Machine::build(MachineConfig::passthrough(2));
    match migrate_nested_vm(pt.world_mut(), MigrationConfig::default(), |_| {}) {
        Err(MigrationError::PassthroughNotMigratable) => {
            println!("\nPhysical passthrough: migration refused, as on real hardware —");
            println!("the hypervisor can see neither the device state nor the DMA-dirtied pages.");
        }
        other => panic!("expected refusal, got {other:?}"),
    }
}
