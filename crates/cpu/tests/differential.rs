//! Differential proof at the pipeline level: the batched stream-request
//! path and the completion wheel's horizon must be *invisible*
//! optimizations. Both stream paths are run over stream-heavy synthetic
//! programs on every cache hierarchy, and every statistic the machine
//! keeps — pipeline counters, cache hit/miss/LRU-driven outcomes,
//! MSHR/write-buffer/bank/DRAM counters — must be bit-for-bit identical
//! to the seed's per-element requests.

use medsim_cpu::{Cpu, CpuConfig};
use medsim_isa::prelude::*;
use medsim_mem::{HierarchyKind, MemConfig, MemSystem};
use medsim_workloads::trace::{SimdIsa, VecStream};

/// A stream-heavy mix: dense and strided MOM vector loads/stores
/// (same-line runs, line crossings, L2-line crossings), scalar loads
/// and stores into overlapping lines, prefetches, long-latency divides
/// and a mispredicting branch pattern — everything that schedules
/// completions at short and far horizons.
pub fn program(seed: u64) -> Vec<Inst> {
    let mut insts = Vec::new();
    let base = 0x40_0000 + seed * 0x1_0000;
    for i in 0..160u64 {
        let blk = base + (i % 13) * 640;
        // Dense stream: 16 elements of 8B, stride 8 — two 32B lines per
        // four elements, several elements per line.
        insts.push(Inst::mom_load(stream(0), int(1), blk, 8, 16).at(0x1000 + 4 * (i % 32)));
        // Strided stream crossing lines (and often L2 banks).
        insts
            .push(Inst::mom_load(stream(1), int(2), blk + 0x200, 48, 12).at(0x1080 + 4 * (i % 32)));
        // Stream store, dense.
        insts.push(
            Inst::mom_store(stream(2), int(3), blk + 0x1400, 8, 10).at(0x1100 + 4 * (i % 32)),
        );
        insts.push(Inst::mom(MomOp::VaddW, stream(3), stream(0), stream(1), 16).at(0x1200));
        // Scalar traffic into the same lines (coherence + wbuf overlap).
        insts.push(Inst::load(MemOp::LoadW, int(4), int(10), blk + 8).at(0x1300));
        insts.push(Inst::store(MemOp::StoreW, int(4), int(10), blk + 0x1408).at(0x1304));
        if i % 5 == 0 {
            insts.push(Inst::int_rrr(IntOp::Div, int(7), int(4), int(2)).at(0x1310));
        }
        insts.push(Inst::branch(CtlOp::Bne, int(7), i % 3 == 0, 0x1000).at(0x1320));
    }
    insts
}

pub fn run(
    hierarchy: HierarchyKind,
    threads: usize,
    stream_batch: bool,
    wheel_slots: usize,
) -> String {
    let config = CpuConfig::paper(threads, SimdIsa::Mom).with_stream_batch(stream_batch);
    let config = CpuConfig {
        wheel_slots,
        ..config
    };
    let mut cpu = Cpu::new(config, MemSystem::new(MemConfig::paper_with(hierarchy)));
    for t in 0..threads {
        cpu.attach_thread(t, Box::new(VecStream::new(program(t as u64))));
    }
    assert!(cpu.run_to_idle(10_000_000), "program must drain");
    // Every observable statistic, formatted for exact comparison.
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

#[test]
fn wheel_and_batched_streams_match_the_seed_bitwise() {
    for &hierarchy in &HierarchyKind::ALL {
        for threads in [1usize, 2, 4] {
            let reference = run(hierarchy, threads, false, 256);
            let got = run(hierarchy, threads, true, 256);
            assert_eq!(
                got, reference,
                "{hierarchy:?} x {threads} threads: batched streams diverge"
            );
        }
    }
}

#[test]
fn tiny_wheel_overflows_are_still_exact() {
    // A 64-slot wheel forces DRAM-class completions into the overflow
    // bucket constantly; results must not change.
    for &hierarchy in &[HierarchyKind::Conventional, HierarchyKind::Decoupled] {
        let reference = run(hierarchy, 2, false, 256);
        let small = run(hierarchy, 2, true, 64);
        assert_eq!(small, reference, "{hierarchy:?}: 64-slot wheel diverges");
    }
}
