//! Golden statistics corpus for the pipeline: every statistic of a
//! fixed set of runs, pinned byte for byte in
//! `tests/golden/pipeline_stats.txt`.
//!
//! The differential suites compare alternate paths inside one build;
//! this corpus compares the only path against what an earlier build
//! produced, so a rewrite of the pipeline's internals that changes any
//! simulated outcome fails here. Every configuration is built
//! explicitly — no field is left to the `MEDSIM_*` environment — so the
//! CI axes cannot change what the corpus simulates.
//!
//! After an intentional change to the timing model, regenerate with
//! `cargo test --test golden_stats -- --ignored` and review the diff.

use medsim::core::machine;
use medsim::core::sim::SimConfig;
use medsim::core::TraceCache;
use medsim::cpu::config::DEFAULT_DECOUPLE_DEPTH;
use medsim::cpu::events::DEFAULT_WHEEL_SLOTS;
use medsim::cpu::{Cpu, CpuConfig};
use medsim::isa::prelude::*;
use medsim::mem::{HierarchyKind, MemConfig, MemSystem};
use medsim::workloads::trace::{InstSource, SimdIsa, StreamSource, VecStream};
use medsim::workloads::{Workload, WorkloadSpec};
use std::fmt::Write as _;
use std::path::PathBuf;

const GOLDEN: &str = "tests/golden/pipeline_stats.txt";

/// §5.1 workload scale of the direct pipeline runs.
const PIPELINE_SPEC: WorkloadSpec = WorkloadSpec {
    scale: 1.0e-5,
    seed: 2001,
};

/// Workload scale of the whole-machine runs of the benchmark shapes.
const SHAPE_SPEC: WorkloadSpec = WorkloadSpec {
    scale: 5.0e-6,
    seed: 90_413,
};

/// The stream-heavy synthetic mix of `crates/cpu/tests/differential.rs`
/// (dense and strided MOM loads/stores, overlapping scalar traffic,
/// divides and a mispredicting branch pattern).
fn synthetic_program(seed: u64) -> Vec<Inst> {
    let mut insts = Vec::new();
    let base = 0x40_0000 + seed * 0x1_0000;
    for i in 0..160u64 {
        let blk = base + (i % 13) * 640;
        insts.push(Inst::mom_load(stream(0), int(1), blk, 8, 16).at(0x1000 + 4 * (i % 32)));
        insts
            .push(Inst::mom_load(stream(1), int(2), blk + 0x200, 48, 12).at(0x1080 + 4 * (i % 32)));
        insts.push(
            Inst::mom_store(stream(2), int(3), blk + 0x1400, 8, 10).at(0x1100 + 4 * (i % 32)),
        );
        insts.push(Inst::mom(MomOp::VaddW, stream(3), stream(0), stream(1), 16).at(0x1200));
        insts.push(Inst::load(MemOp::LoadW, int(4), int(10), blk + 8).at(0x1300));
        insts.push(Inst::store(MemOp::StoreW, int(4), int(10), blk + 0x1408).at(0x1304));
        if i % 5 == 0 {
            insts.push(Inst::int_rrr(IntOp::Div, int(7), int(4), int(2)).at(0x1310));
        }
        insts.push(Inst::branch(CtlOp::Bne, int(7), i % 3 == 0, 0x1000).at(0x1320));
    }
    insts
}

/// The pipeline configuration with every environment-defaulted field
/// pinned.
fn cpu_config(isa: SimdIsa, threads: usize, decouple: bool) -> CpuConfig {
    CpuConfig {
        wheel_slots: DEFAULT_WHEEL_SLOTS,
        stream_batch: true,
        decouple,
        decouple_depth: DEFAULT_DECOUPLE_DEPTH,
        ..CpuConfig::paper(threads, isa)
    }
}

/// One `Cpu::run_to_idle` run, every statistic formatted as in the
/// differential suite.
fn pipeline_run(
    config: CpuConfig,
    hierarchy: HierarchyKind,
    source: impl Fn(usize) -> Box<dyn InstSource>,
) -> String {
    let threads = config.threads;
    let mut cpu = Cpu::new(config, MemSystem::new(MemConfig::paper_with(hierarchy)));
    for t in 0..threads {
        cpu.attach_source(t, source(t));
    }
    assert!(cpu.run_to_idle(100_000_000), "program must drain");
    format!(
        "{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{:?}",
        cpu.stats(),
        cpu.mem().stats(),
        cpu.mem().l1d_stats(),
        cpu.mem().l1i_stats(),
        cpu.mem().l2_stats(),
        cpu.mem().dram_stats(),
        cpu.now(),
    )
}

/// A benchmark shape's whole-machine `RunResult`, with every
/// environment-defaulted field pinned.
fn shape_run(
    isa: SimdIsa,
    cores: usize,
    threads: usize,
    hierarchy: HierarchyKind,
    decouple: bool,
) -> String {
    let config = SimConfig {
        cores,
        hierarchy,
        spec: SHAPE_SPEC,
        stream_batch: true,
        decouple,
        decouple_depth: DEFAULT_DECOUPLE_DEPTH,
        ..SimConfig::new(isa, threads)
    };
    format!("{:?}", machine::run(&config, &TraceCache::disabled()))
}

/// The whole corpus, one `== label` section per run.
fn corpus() -> String {
    let mut out = String::new();
    let workload = Workload::new(PIPELINE_SPEC);
    for isa in SimdIsa::ALL {
        let decouples: &[bool] = match isa {
            SimdIsa::Mmx => &[false],
            SimdIsa::Mom => &[false, true],
        };
        for threads in [1usize, 4, 8] {
            for hierarchy in HierarchyKind::ALL {
                for &decouple in decouples {
                    let label =
                        format!("{isa:?} threads={threads} {hierarchy:?} decouple={decouple}");
                    let config = cpu_config(isa, threads, decouple);
                    let suite = pipeline_run(config.clone(), hierarchy, |t| {
                        workload.source_for_slot(t, isa)
                    });
                    writeln!(out, "== §5.1 {label}\n{suite}").unwrap();
                    let synthetic = pipeline_run(config, hierarchy, |t| {
                        Box::new(StreamSource::new(Box::new(VecStream::new(
                            synthetic_program(t as u64),
                        ))))
                    });
                    writeln!(out, "== synthetic {label}\n{synthetic}").unwrap();
                }
            }
        }
    }
    for (name, isa, cores, threads, hierarchy, decouple) in [
        (
            "smt8_mmx_ideal",
            SimdIsa::Mmx,
            1,
            8,
            HierarchyKind::Ideal,
            false,
        ),
        (
            "smt8_mom_conv",
            SimdIsa::Mom,
            1,
            8,
            HierarchyKind::Conventional,
            false,
        ),
        (
            "cmp4x2_mom_dec",
            SimdIsa::Mom,
            4,
            2,
            HierarchyKind::Decoupled,
            true,
        ),
    ] {
        let r = shape_run(isa, cores, threads, hierarchy, decouple);
        writeln!(out, "== RunResult {name}\n{r}").unwrap();
    }
    out
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(GOLDEN)
}

#[test]
fn pipeline_statistics_match_the_golden_corpus() {
    let expected = std::fs::read_to_string(golden_path()).expect("golden corpus present");
    let got = corpus();
    if got != expected {
        let first = got
            .lines()
            .zip(expected.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| got.lines().count().min(expected.lines().count()));
        panic!(
            "pipeline statistics diverge from {GOLDEN} at line {}:\n  got:      {}\n  expected: {}",
            first + 1,
            got.lines().nth(first).unwrap_or("<end>"),
            expected.lines().nth(first).unwrap_or("<end>"),
        );
    }
}

/// Rewrite the corpus from the current build (run with `--ignored`).
#[test]
#[ignore = "regenerates the golden corpus"]
fn regenerate_golden_corpus() {
    let path = golden_path();
    std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
    std::fs::write(&path, corpus()).expect("write golden corpus");
}
