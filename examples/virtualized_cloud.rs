//! Domain scenario: a virtualized cloud host — two-dimensional
//! translation, hypervisor-induced sharing, and content deduplication.
//!
//! A guest VM runs a memory-intensive workload. The example compares the
//! nested-translation baseline against hybrid virtual caching with
//! delayed 2D translation, and demonstrates KSM-style page deduplication
//! using the paper's read-only optimization (no synonym-filter traffic).
//!
//! ```sh
//! cargo run --release --example virtualized_cloud
//! ```

use hvc::core::{SystemConfig, SystemSim, VirtScheme};
use hvc::os::AllocPolicy;
use hvc::types::{GuestPhysAddr, HvcError};
use hvc::virt::Hypervisor;
use hvc::workloads::apps;

const GIB: u64 = 1 << 30;

fn run(scheme: VirtScheme, refs: usize) -> Result<f64, HvcError> {
    let (policy, eager) = match scheme {
        VirtScheme::HybridNestedSegments => (AllocPolicy::EagerSegments { split: 1 }, true),
        _ => (AllocPolicy::DemandPaging, false),
    };
    let mut hv = Hypervisor::new(8 * GIB);
    let vm = hv.create_vm(2 * GIB, policy, eager)?;
    let guest_kernel = hv.guest_kernel_mut(vm)?;
    let mut workload = apps::gups(128 << 20).instantiate(guest_kernel, 9)?;
    let mut sim = SystemSim::virtualized(hv, vm, SystemConfig::isca2016(), scheme)?;
    let report = sim.run(&mut workload, refs);
    Ok(report.ipc())
}

fn main() -> Result<(), HvcError> {
    let refs = 150_000;
    println!("virtualized cloud host — gups guest, {refs} references per scheme\n");

    let base = run(VirtScheme::NestedBaseline, refs)?;
    println!("nested baseline (2D walker + nested TLB):     IPC {base:.3}");
    let hyb = run(VirtScheme::HybridDelayedNested(4096), refs)?;
    println!(
        "hybrid + delayed nested translation:          IPC {hyb:.3}  (×{:.3})",
        hyb / base
    );
    let seg = run(VirtScheme::HybridNestedSegments, refs)?;
    println!(
        "hybrid + 2D (guest+host) segment translation: IPC {seg:.3}  (×{:.3})\n",
        seg / base
    );

    // --- KSM-style deduplication with the r/o optimization ---
    let mut hv = Hypervisor::new(8 * GIB);
    let vm1 = hv.create_vm(GIB, AllocPolicy::DemandPaging, false)?;
    let vm2 = hv.create_vm(GIB, AllocPolicy::DemandPaging, false)?;
    let g1 = GuestPhysAddr::new(0x40_0000);
    let g2 = GuestPhysAddr::new(0x80_0000);
    hv.machine_addr(vm1, g1)?;
    hv.machine_addr(vm2, g2)?;

    let before = hv.free_machine_frames();
    hv.dedup_ro((vm1, g1), (vm2, g2))?;
    println!("content dedup: merged identical guest pages across two VMs");
    println!(
        "  machine frames reclaimed: {}",
        hv.free_machine_frames() - before
    );
    println!(
        "  host-filter insertions:   {} (r/o sharing stays out of the synonym filter)",
        hv.stats().host_filter_insertions
    );

    // A guest write breaks the sharing transparently.
    hv.break_dedup(vm2, g2)?;
    println!(
        "  after a guest write: copy-on-write breaks the sharing ({} break)",
        hv.stats().cow_breaks
    );
    Ok(())
}
