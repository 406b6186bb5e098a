//! The machine configurations of the paper's Table 3 and Figs. 7–10,
//! shared by the figure harness and the checker's differential passes.

use dvh_core::{DvhFlags, MachineConfig};

/// The five Table 3 columns: VM, nested VM (with and without DVH) and
/// L3 VM (with and without DVH).
pub fn table3_configs() -> [(&'static str, MachineConfig); 5] {
    [
        ("VM", MachineConfig::baseline(1)),
        ("nested VM", MachineConfig::baseline(2)),
        ("nested VM + DVH", MachineConfig::dvh(2)),
        ("L3 VM", MachineConfig::baseline(3)),
        ("L3 VM + DVH", MachineConfig::dvh(3)),
    ]
}

/// The (title, configuration columns) of application figure 7, 8, 9
/// or 10, or `None` for any other number.
pub fn figure_spec(figure: u32) -> Option<(&'static str, Vec<(&'static str, MachineConfig)>)> {
    Some(match figure {
        7 => (
            "Figure 7: Application performance (overhead vs native)",
            vec![
                ("VM", MachineConfig::baseline(1)),
                ("VM+PT", MachineConfig::passthrough(1)),
                ("Nested", MachineConfig::baseline(2)),
                ("Nested+PT", MachineConfig::passthrough(2)),
                ("DVH-VP", MachineConfig::dvh_vp(2)),
                ("DVH", MachineConfig::dvh(2)),
            ],
        ),
        8 => {
            let pi = DvhFlags {
                viommu_posted_interrupts: true,
                ..DvhFlags::NONE
            };
            let pi_ipi = DvhFlags {
                virtual_ipis: true,
                ..pi
            };
            let pi_ipi_t = DvhFlags {
                virtual_timers: true,
                ..pi_ipi
            };
            (
                "Figure 8: Application performance breakdown (incremental DVH)",
                vec![
                    ("Nested", MachineConfig::baseline(2)),
                    ("DVH-VP", MachineConfig::dvh_vp(2)),
                    ("+PI", MachineConfig::dvh_partial(2, pi)),
                    ("+vIPI", MachineConfig::dvh_partial(2, pi_ipi)),
                    ("+vtimer", MachineConfig::dvh_partial(2, pi_ipi_t)),
                    ("+vidle", MachineConfig::dvh(2)),
                ],
            )
        }
        9 => (
            "Figure 9: Application performance in L3 VM (overhead vs native)",
            vec![
                ("VM", MachineConfig::baseline(1)),
                ("VM+PT", MachineConfig::passthrough(1)),
                ("L3", MachineConfig::baseline(3)),
                ("L3+PT", MachineConfig::passthrough(3)),
                ("L3+DVH-VP", MachineConfig::dvh_vp(3)),
                ("L3+DVH", MachineConfig::dvh(3)),
            ],
        ),
        10 => (
            "Figure 10: Application performance, Xen guest hypervisor on KVM",
            vec![
                ("VM", MachineConfig::baseline(1)),
                ("VM+PT", MachineConfig::passthrough(1)),
                ("Nested(Xen)", MachineConfig::baseline(2).with_xen_guest()),
                ("Nested+PT", MachineConfig::passthrough(2).with_xen_guest()),
                ("DVH-VP", MachineConfig::dvh_vp(2).with_xen_guest()),
            ],
        ),
        _ => return None,
    })
}
