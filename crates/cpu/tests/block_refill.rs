//! The decode buffer is a window of the thread's current trace block,
//! so the instructions fetched but not yet dispatched must carry over
//! every block refill. In-tree sources deliver blocks of about
//! `BLOCK_INSTS` instructions, which makes a refill rare; here a source
//! delivers blocks of one to three instructions, so nearly every fetch
//! group crosses a refill with a non-empty buffer, and every statistic
//! must equal a run of the same program delivered in full blocks.

use medsim_cpu::config::DEFAULT_DECOUPLE_DEPTH;
use medsim_cpu::events::DEFAULT_WHEEL_SLOTS;
use medsim_cpu::{Cpu, CpuConfig};
use medsim_isa::Inst;
use medsim_mem::{HierarchyKind, MemConfig, MemSystem};
use medsim_workloads::trace::{InstSource, SimdIsa, VecSource};
use medsim_workloads::{Workload, WorkloadSpec};

const THREADS: usize = 4;

/// Delivers a program in blocks of 1, 2, 3, 1, 2, 3, … instructions.
struct TinyBlocks {
    insts: Vec<Inst>,
    pos: usize,
    blocks: usize,
}

impl InstSource for TinyBlocks {
    fn next_block(&mut self, out: &mut Vec<Inst>) -> bool {
        out.clear();
        let end = (self.pos + 1 + self.blocks % 3).min(self.insts.len());
        out.extend_from_slice(&self.insts[self.pos..end]);
        self.pos = end;
        self.blocks += 1;
        !out.is_empty()
    }
}

/// The §5.1 program of `slot`, materialized.
fn program(slot: usize, isa: SimdIsa) -> Vec<Inst> {
    let spec = WorkloadSpec {
        scale: 1.0e-5,
        seed: 4242,
    };
    let mut source = Workload::new(spec).source_for_slot(slot, isa);
    let (mut insts, mut block) = (Vec::new(), Vec::new());
    while source.next_block(&mut block) {
        insts.extend_from_slice(&block);
    }
    insts
}

/// Every statistic of one `run_to_idle` run with `source` feeding each
/// context.
fn run(
    config: &CpuConfig,
    hierarchy: HierarchyKind,
    fast_forward: bool,
    source: impl Fn(Vec<Inst>) -> Box<dyn InstSource>,
) -> String {
    let mut cpu = Cpu::new(
        config.clone(),
        MemSystem::new(MemConfig::paper_with(hierarchy)),
    );
    cpu.set_fast_forward(fast_forward);
    for t in 0..config.threads {
        cpu.attach_source(t, source(program(t, config.isa)));
    }
    assert!(cpu.run_to_idle(100_000_000), "program must drain");
    assert!(cpu.stats().committed() > 1000, "the programs must be real");
    if config.decouple {
        assert!(
            cpu.stats().vfetch_runahead_elems > 0,
            "the unit must run ahead"
        );
    }
    format!(
        "{:?}\n{:?}\n{:?}\n{:?}\n{:?}",
        cpu.stats(),
        cpu.mem().stats(),
        cpu.mem().l1d_stats(),
        cpu.mem().l1i_stats(),
        cpu.now(),
    )
}

fn config(isa: SimdIsa, decouple: bool) -> CpuConfig {
    CpuConfig {
        wheel_slots: DEFAULT_WHEEL_SLOTS,
        stream_batch: true,
        decouple,
        decouple_depth: DEFAULT_DECOUPLE_DEPTH,
        ..CpuConfig::paper(THREADS, isa)
    }
}

/// Tiny blocks and full blocks of the same program give identical runs.
fn assert_refill_is_invisible(config: &CpuConfig, hierarchy: HierarchyKind) {
    for fast_forward in [true, false] {
        let full = run(config, hierarchy, fast_forward, |insts| {
            Box::new(VecSource::new(insts))
        });
        let tiny = run(config, hierarchy, fast_forward, |insts| {
            Box::new(TinyBlocks {
                insts,
                pos: 0,
                blocks: 0,
            })
        });
        assert_eq!(
            tiny, full,
            "{:?} {hierarchy:?} decouple={} fast_forward={fast_forward}",
            config.isa, config.decouple
        );
    }
}

#[test]
fn mmx_tiny_blocks_match_full_blocks() {
    assert_refill_is_invisible(&config(SimdIsa::Mmx, false), HierarchyKind::Conventional);
}

#[test]
fn mom_tiny_blocks_match_full_blocks() {
    assert_refill_is_invisible(&config(SimdIsa::Mom, false), HierarchyKind::Conventional);
}

#[test]
fn mom_decoupled_fetch_tiny_blocks_match_full_blocks() {
    assert_refill_is_invisible(&config(SimdIsa::Mom, true), HierarchyKind::Decoupled);
}
