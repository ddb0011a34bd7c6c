//! The outside-in traced runner must reproduce `Simulation::run`
//! exactly. It mirrors the machine layer's serial schedule from public
//! calls, so a machine-layer change it no longer mirrors fails here
//! instead of silently skewing the per-layer numbers.

use medsim_core::{SimConfig, Simulation, TraceCache};
use medsim_mem::HierarchyKind;
use medsim_perfbench::traced::run_traced;
use medsim_perfbench::{Fingerprint, Shape, FAST_SCALE, SHAPES};
use medsim_workloads::trace::SimdIsa;
use medsim_workloads::WorkloadSpec;

fn spec() -> WorkloadSpec {
    WorkloadSpec {
        scale: FAST_SCALE,
        seed: 11,
    }
}

fn assert_traced_matches(name: &str, config: &SimConfig) {
    let untraced = Simulation::run(config);
    let traced = run_traced(config, &TraceCache::from_env());
    assert_eq!(
        traced.fingerprint,
        Fingerprint::of(&untraced),
        "{name}: the traced runner diverged from Simulation::run"
    );
    let l = traced.layers;
    assert!(
        l.stepped_cycles > 0 && l.stepped_cycles <= untraced.cycles,
        "{name}: {l:?}"
    );
    assert!(l.decoded_insts >= untraced.committed, "{name}: {l:?}");
    assert!(l.mem.calls() > 0, "{name}: {l:?}");
    assert!(
        l.cpu_self_s() > 0.0 && l.total_s >= l.step_s,
        "{name}: {l:?}"
    );
}

#[test]
fn traced_runner_reproduces_every_benchmark_shape() {
    for shape in SHAPES {
        assert_traced_matches(shape.name, &shape.config(spec()));
    }
}

#[test]
fn traced_runner_reproduces_one_core_with_decoupled_fetch() {
    let config = Shape::by_name("smt8_mom_conv")
        .expect("shape exists")
        .config(spec())
        .with_decouple(true);
    assert_traced_matches("1 core, decoupled fetch", &config);
}

#[test]
fn traced_runner_reproduces_a_shared_l2_without_decoupling() {
    let config = SimConfig::new(SimdIsa::Mmx, 2)
        .with_cores(4)
        .with_hierarchy(HierarchyKind::Conventional)
        .with_spec(spec());
    assert_traced_matches("4 cores sharing L2", &config);
}

#[test]
fn runahead_calls_appear_only_with_decoupled_fetch() {
    let cache = TraceCache::from_env();
    for shape in SHAPES {
        let layers = run_traced(&shape.config(spec()), &cache).layers;
        assert_eq!(
            layers.mem.runahead > 0,
            shape.decouple,
            "{}: {layers:?}",
            shape.name
        );
    }
}
