//! A CMP run: four SMT cores with private L1 levels sharing one
//! L2/DRAM backend, stepped in fixed core order on one host thread.
//!
//! ```sh
//! cargo run --release --example cmp_run
//! # bigger machine / bigger run:
//! MEDSIM_CORES=8 MEDSIM_SCALE=0.01 cargo run --release --example cmp_run
//! ```

use medsim::core::machine;
use medsim::core::sim::{SimConfig, Simulation};
use medsim::workloads::{trace::SimdIsa, WorkloadSpec};
use std::time::Instant;

fn main() {
    let scale = std::env::var("MEDSIM_SCALE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(2e-3);
    // Honor MEDSIM_CORES when set; a 1-core machine has nothing to
    // demo, so only then fall back to four cores.
    let cores = match machine::cores_from_env() {
        1 => 4,
        n => n,
    };
    let spec = WorkloadSpec::new(scale);
    let config = SimConfig::new(SimdIsa::Mom, 2)
        .with_cores(cores)
        .with_spec(spec);
    println!(
        "CMP of {cores} SMT cores x {} thread contexts at scale {scale:.0e} \
         (one shared L2/DRAM backend)",
        config.threads,
    );
    if machine::cores_from_env() == 1 {
        println!("(MEDSIM_CORES unset or 1: demoing a 4-core machine)");
    }
    println!();

    let start = Instant::now();
    let result = Simulation::run(&config);
    let wall_s = start.elapsed().as_secs_f64();
    println!(
        "wall clock {wall_s:.2}s ({:.2}M cycles, EIPC {:.2})",
        result.cycles as f64 / 1e6,
        result.equiv_ipc(),
    );
    println!(
        "machine: {} programs completed over {} contexts, IPC {:.2}, \
         shared L2 hit rate {:.1}%, mem stalls {}",
        result.programs_completed,
        cores * config.threads,
        result.ipc(),
        result.l2_hit_rate * 100.0,
        result.mem_stalls,
    );
}
