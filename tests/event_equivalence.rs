//! End-to-end differential proof over the figure-5 grid: the batched
//! stream-request path must produce bitwise identical [`RunResult`]s to
//! the seed's per-element memory requests across the whole
//! ISA × thread-count × hierarchy space the paper evaluates, on the
//! real synthesized workloads.

use medsim::core::sim::{SimConfig, Simulation};
use medsim::core::RunResult;
use medsim::mem::HierarchyKind;
use medsim::workloads::trace::SimdIsa;
use medsim::workloads::WorkloadSpec;

fn spec() -> WorkloadSpec {
    WorkloadSpec {
        scale: 1.2e-5,
        seed: 77,
    }
}

/// The figure-5 grid (both ISAs, the paper's thread counts) plus the
/// hierarchy ablations, at test scale.
fn grid() -> Vec<SimConfig> {
    let mut configs = Vec::new();
    for &isa in &SimdIsa::ALL {
        for &threads in &[1usize, 2, 4, 8] {
            configs.push(SimConfig::new(isa, threads).with_spec(spec()));
        }
        for &h in &HierarchyKind::ALL {
            configs.push(SimConfig::new(isa, 4).with_hierarchy(h).with_spec(spec()));
        }
    }
    configs
}

fn run_all(stream_batch: bool) -> Vec<RunResult> {
    grid()
        .into_iter()
        .map(|c| Simulation::run(&c.with_stream_batch(stream_batch)))
        .collect()
}

#[test]
fn fig5_grid_is_bitwise_identical_across_stream_paths() {
    let reference = run_all(false);
    assert_eq!(
        run_all(true),
        reference,
        "batched streams diverge from the seed path"
    );
}
