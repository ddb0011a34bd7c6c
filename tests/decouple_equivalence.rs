//! Differential proof for the decoupled run-ahead vector-fetch unit.
//!
//! Off-path: `decouple = false` and the structurally decoupled but
//! never-issuing `decouple = true, depth = 0` machine must both be
//! bitwise the baseline across the hierarchy × threads × ISA grid —
//! the same discipline the per-element stream path
//! (`MEDSIM_STREAM_BATCH=0`) gets.
//!
//! On-path properties: the run-ahead distance never exceeds the
//! configured window depth, redirect flushes leave no stale replies
//! (flush accounting is consistent and runs stay deterministic), and
//! a 2-core CMP with the unit on runs ahead and stays deterministic.

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
/// hierarchy ablations, at test scale. Both sides of every comparison
/// pin `decouple` explicitly — the suite must prove the same identity
/// under `MEDSIM_DECOUPLE=1` (the CI knob axis re-runs it so).
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

#[test]
fn knob_off_and_empty_window_are_bitwise_the_baseline() {
    let baseline: Vec<RunResult> = grid()
        .into_iter()
        .map(|c| Simulation::run(&c.with_decouple(false)))
        .collect();
    let depth0: Vec<RunResult> = grid()
        .into_iter()
        .map(|c| Simulation::run(&c.with_decouple(true).with_decouple_depth(0)))
        .collect();
    assert_eq!(
        depth0, baseline,
        "a decoupled unit with an empty run-ahead window must be bitwise the coupled machine"
    );
    for r in &baseline {
        assert_eq!(
            r.vfetch,
            Default::default(),
            "the off path must never wake the unit"
        );
    }
}

/// A stream-heavy configuration where the unit demonstrably works
/// ahead of execute.
fn mom(h: HierarchyKind) -> SimConfig {
    SimConfig::new(SimdIsa::Mom, 4)
        .with_hierarchy(h)
        .with_spec(spec())
}

#[test]
fn runahead_distance_is_bounded_by_the_window_depth() {
    for h in [HierarchyKind::Conventional, HierarchyKind::Decoupled] {
        for depth in [1usize, 2, 8] {
            let r = Simulation::run(&mom(h).with_decouple(true).with_decouple_depth(depth));
            assert!(
                r.vfetch.max_runahead <= depth as u64,
                "{h:?} depth {depth}: observed run-ahead {} exceeds the window",
                r.vfetch.max_runahead
            );
            assert!(
                r.vfetch.runahead_elems > 0,
                "{h:?} depth {depth}: a stream-heavy run must actually run ahead"
            );
            assert!(
                r.vfetch.drains > 0,
                "{h:?} depth {depth}: execute must drain buffered streams"
            );
        }
    }
}

#[test]
fn streamless_machines_are_untouched_by_the_knob() {
    // Only MOM stream loads decouple; an MMX machine has nothing to
    // run ahead of, so turning the unit on must be bitwise invisible.
    for h in [HierarchyKind::Conventional, HierarchyKind::Decoupled] {
        let cfg = SimConfig::new(SimdIsa::Mmx, 4)
            .with_hierarchy(h)
            .with_spec(spec());
        let off = Simulation::run(&cfg.clone().with_decouple(false));
        let on = Simulation::run(&cfg.with_decouple(true));
        assert_eq!(on, off, "{h:?}: MMX must be unaffected by MEDSIM_DECOUPLE");
    }
}

#[test]
fn redirect_flush_leaves_no_stale_replies() {
    // Flush accounting is self-consistent: discarded elements exist
    // exactly when flushes happened, and everything discarded was
    // previously issued early.
    let r = Simulation::run(&mom(HierarchyKind::Conventional).with_decouple(true));
    assert_eq!(
        r.vfetch.flushes == 0,
        r.vfetch.flushed_elems == 0,
        "flush event and element counters must agree: {:?}",
        r.vfetch
    );
    // No stale state survives a flush: the run is a pure function of
    // its config. A stale buffered reply (an element counted issued
    // but re-issued anyway, or vice versa) would desynchronize the
    // two executions' port and MSHR schedules.
    let again = Simulation::run(&mom(HierarchyKind::Conventional).with_decouple(true));
    assert_eq!(r, again, "decoupled runs must be deterministic");
}

#[test]
fn two_core_cmp_is_deterministic_with_the_unit_on() {
    // Two cores' run-ahead streams contend on one shared L2: the
    // machine must still be a pure function of its config, and the
    // unit must actually run ahead on the CMP.
    let cmp = mom(HierarchyKind::Conventional)
        .with_cores(2)
        .with_decouple(true);
    let first = Simulation::run(&cmp);
    let again = Simulation::run(&cmp);
    assert_eq!(first, again, "decoupled CMP runs must be deterministic");
    assert!(
        first.vfetch.runahead_elems > 0,
        "the CMP run must exercise the unit"
    );
}
