//! The outside-in traced runner: the §5.1 run of `medsim_core::machine`
//! rebuilt from public calls, with a timing wrapper around the memory
//! port and around every program's instruction source.
//!
//! The runner mirrors the machine layer's serial schedule step for step
//! (cores stepped in fixed order, chip-wide idle fast-forward, refill of
//! drained contexts from one program list). `tests/traced_equivalence.rs`
//! checks that it reproduces `Simulation::run` exactly, so a change to
//! the machine layer that the mirror misses fails there instead of
//! skewing the per-layer numbers.

use crate::{Fingerprint, LIST_PROGRAMS};
use medsim_core::{SimConfig, TraceCache};
use medsim_cpu::{Cpu, CpuConfig, Cycle, MemPort};
use medsim_isa::Inst;
use medsim_mem::{
    L2Backend, MemConfig, MemReply, MemRequest, MemSystem, Stall, StreamReply, StreamRequest,
};
use medsim_workloads::trace::InstSource;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

fn nanos_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Calls into the memory layer and the host time spent inside them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemTally {
    /// Host nanoseconds inside the four forwarded calls.
    pub nanos: u64,
    /// Instruction fetches.
    pub ifetches: u64,
    /// Scalar data requests.
    pub requests: u64,
    /// Scalar data requests refused with a [`Stall`].
    pub refused: u64,
    /// Stream element-group requests.
    pub streams: u64,
    /// Run-ahead stream requests of the decoupled vector-fetch unit.
    pub runahead: u64,
}

impl MemTally {
    /// Every call into the memory layer.
    #[must_use]
    pub fn calls(&self) -> u64 {
        self.ifetches + self.requests + self.streams + self.runahead
    }

    fn add(&mut self, o: &MemTally) {
        self.nanos += o.nanos;
        self.ifetches += o.ifetches;
        self.requests += o.requests;
        self.refused += o.refused;
        self.streams += o.streams;
        self.runahead += o.runahead;
    }
}

/// A [`MemSystem`] behind a timing [`MemPort`]. Only the four calls the
/// serial pipeline makes are forwarded; the quantum-park predicates keep
/// their defaults, which the serial schedule never consults.
pub struct TimedMem {
    inner: MemSystem,
    tally: MemTally,
}

impl MemPort for TimedMem {
    fn ifetch(&mut self, now: Cycle, tid: u8, addr: u64) -> Cycle {
        let t = Instant::now();
        let r = self.inner.ifetch(now, tid, addr);
        self.tally.nanos += nanos_since(t);
        self.tally.ifetches += 1;
        r
    }

    fn request(&mut self, now: Cycle, req: MemRequest) -> Result<MemReply, Stall> {
        let t = Instant::now();
        let r = self.inner.request(now, req);
        self.tally.nanos += nanos_since(t);
        self.tally.requests += 1;
        self.tally.refused += u64::from(r.is_err());
        r
    }

    fn request_stream(&mut self, now: Cycle, req: StreamRequest) -> StreamReply {
        let t = Instant::now();
        let r = self.inner.request_stream(now, req);
        self.tally.nanos += nanos_since(t);
        self.tally.streams += 1;
        r
    }

    fn request_stream_runahead(&mut self, now: Cycle, req: StreamRequest) -> StreamReply {
        let t = Instant::now();
        let r = self.inner.request_stream_runahead(now, req);
        self.tally.nanos += nanos_since(t);
        self.tally.runahead += 1;
        r
    }
}

/// Host time spent producing decoded instruction blocks, shared by
/// every source of one run (sources must be `Send`, hence atomics).
#[derive(Debug, Default)]
struct DecodeTally {
    nanos: AtomicU64,
    insts: AtomicU64,
}

/// An instruction source behind a timing wrapper.
struct TimedSource {
    inner: Box<dyn InstSource>,
    tally: Arc<DecodeTally>,
}

impl InstSource for TimedSource {
    fn next_block(&mut self, out: &mut Vec<Inst>) -> bool {
        let t = Instant::now();
        let more = self.inner.next_block(out);
        self.tally
            .nanos
            .fetch_add(nanos_since(t), Ordering::Relaxed);
        self.tally
            .insts
            .fetch_add(out.len() as u64, Ordering::Relaxed);
        more
    }
}

/// Per-layer host times and counts of one traced run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Layers {
    /// Whole run, machine construction included (s).
    pub total_s: f64,
    /// `Cpu::new`, `MemSystem` and shared-L2 construction (s).
    pub build_s: f64,
    /// Time inside `Cpu::cycle_no_ff` across all cores (s).
    pub step_s: f64,
    /// Time inside the instruction-source wrappers (s).
    pub decode_s: f64,
    /// Instructions the sources delivered.
    pub decoded_insts: u64,
    /// Memory-port calls and time, summed over cores.
    pub mem: MemTally,
    /// Machine cycles actually stepped (the rest were fast-forwarded).
    pub stepped_cycles: u64,
}

impl Layers {
    /// Pipeline self time: stepping minus the two wrappers, which are
    /// only ever entered from inside `cycle_no_ff`.
    #[must_use]
    pub fn cpu_self_s(&self) -> f64 {
        self.step_s - self.decode_s - self.mem_s()
    }

    /// Time inside the memory-port wrapper (s).
    #[must_use]
    pub fn mem_s(&self) -> f64 {
        self.mem.nanos as f64 * 1e-9
    }
}

/// A finished traced run.
#[derive(Debug, Clone, Copy)]
pub struct TracedRun {
    /// Simulated outcome, comparable with `Fingerprint::of(&RunResult)`.
    pub fingerprint: Fingerprint,
    /// Host-time split.
    pub layers: Layers,
}

/// The §5.1 program list in `(core, tid)` context order, as the machine
/// layer keeps it.
struct ProgramList {
    ctx_slot: Vec<usize>,
    next_slot: usize,
    completed: [bool; LIST_PROGRAMS],
}

impl ProgramList {
    fn all_done(&self) -> bool {
        self.completed.iter().all(|&c| c)
    }

    fn refill(
        &mut self,
        core: usize,
        threads: usize,
        cpu: &mut Cpu<TimedMem>,
        source_for: &impl Fn(usize) -> Box<dyn InstSource>,
    ) {
        for tid in 0..threads {
            if !cpu.thread_idle(tid) {
                continue;
            }
            let ctx = core * threads + tid;
            let slot = self.ctx_slot[ctx];
            if slot < LIST_PROGRAMS {
                self.completed[slot] = true;
            }
            cpu.note_program_completed(tid);
            if self.all_done() {
                continue;
            }
            cpu.attach_source(tid, source_for(self.next_slot));
            self.ctx_slot[ctx] = self.next_slot;
            self.next_slot += 1;
        }
    }
}

fn build_machine(config: &SimConfig) -> Vec<Cpu<TimedMem>> {
    let mem_config = config
        .mem_override
        .clone()
        .unwrap_or_else(|| MemConfig::paper_with(config.hierarchy));
    let cpu_config = CpuConfig::paper(config.threads, config.isa)
        .with_policy(config.fetch_policy)
        .with_decouple(config.decouple)
        .with_decouple_depth(config.decouple_depth);
    let timed = |inner| TimedMem {
        inner,
        tally: MemTally::default(),
    };
    let n_cores = config.cores.max(1);
    if n_cores == 1 {
        return vec![Cpu::new(cpu_config, timed(MemSystem::new(mem_config)))];
    }
    let shared = L2Backend::shared(&mem_config);
    (0..n_cores)
        .map(|_| {
            Cpu::new(
                cpu_config.clone(),
                timed(MemSystem::with_shared_backend(
                    mem_config.clone(),
                    shared.clone(),
                )),
            )
        })
        .collect()
}

fn fingerprint(cores: &[Cpu<TimedMem>]) -> Fingerprint {
    let sum = |f: &dyn Fn(&Cpu<TimedMem>) -> u64| -> u64 { cores.iter().map(f).sum() };
    let (hits, reads) = cores.iter().fold((0u64, 0u64), |(h, r), c| {
        let s = c.mem().inner.l1d_stats();
        (h + s.hits, r + s.reads())
    });
    Fingerprint {
        cycles: cores[0].stats().cycles,
        committed: sum(&|c| c.stats().committed()),
        committed_equiv: sum(&|c| c.stats().committed_equiv()),
        programs_completed: sum(&|c| c.stats().threads.iter().map(|t| t.programs_completed).sum()),
        mem_stalls: sum(&|c| c.stats().mem_stalls),
        vector_only_cycles: sum(&|c| c.stats().vector_only_cycles),
        l1_hit_rate: if reads == 0 {
            1.0
        } else {
            hits as f64 / reads as f64
        },
        // The DRAM channel is chip-shared: read it once.
        dram_bytes: cores[0].mem().inner.dram_stats().bytes,
    }
}

/// Run `config` through the outside-in runner, drawing every program
/// from `cache`.
///
/// # Panics
///
/// Panics if the run exceeds `config.max_cycles`, or if `config` asks
/// for stream-length clamping, which the benchmark's shapes never do.
#[must_use]
pub fn run_traced(config: &SimConfig, cache: &TraceCache) -> TracedRun {
    assert_eq!(
        config.max_stream_len,
        medsim_isa::MAX_STREAM_LEN,
        "the traced runner does not clamp stream lengths"
    );
    let start = Instant::now();
    let mut layers = Layers::default();
    let mut cores = build_machine(config);
    layers.build_s = start.elapsed().as_secs_f64();

    let threads = config.threads;
    let decode = Arc::new(DecodeTally::default());
    let source_for = |slot: usize| -> Box<dyn InstSource> {
        Box::new(TimedSource {
            inner: cache.source_for(&config.spec, slot, config.isa),
            tally: Arc::clone(&decode),
        })
    };
    let contexts = cores.len() * threads;
    let mut list = ProgramList {
        ctx_slot: (0..contexts).collect(),
        next_slot: contexts,
        completed: [false; LIST_PROGRAMS],
    };
    for (core, cpu) in cores.iter_mut().enumerate() {
        for tid in 0..threads {
            cpu.attach_source(tid, source_for(core * threads + tid));
        }
    }
    let mut step_nanos = 0u64;
    loop {
        let t = Instant::now();
        let mut any_activity = false;
        for cpu in &mut cores {
            any_activity |= cpu.cycle_no_ff();
        }
        step_nanos += nanos_since(t);
        layers.stepped_cycles += 1;
        if !any_activity {
            if let Some(wake) = cores.iter().filter_map(Cpu::fast_forward_wake).min() {
                for cpu in &mut cores {
                    cpu.apply_fast_forward(wake);
                }
            }
        }
        for (core, cpu) in cores.iter_mut().enumerate() {
            list.refill(core, threads, cpu, &source_for);
        }
        if list.all_done() {
            break;
        }
        assert!(
            cores[0].now() < config.max_cycles,
            "simulation exceeded {} cycles — model deadlock?",
            config.max_cycles
        );
    }
    for cpu in &mut cores {
        cpu.detach_sources();
        layers.mem.add(&cpu.mem().tally);
    }
    layers.total_s = start.elapsed().as_secs_f64();
    layers.step_s = step_nanos as f64 * 1e-9;
    layers.decode_s = decode.nanos.load(Ordering::Relaxed) as f64 * 1e-9;
    layers.decoded_insts = decode.insts.load(Ordering::Relaxed);
    TracedRun {
        fingerprint: fingerprint(&cores),
        layers,
    }
}
