//! The CMP machine layer: N SMT cores sharing an L2/DRAM backend,
//! stepped serially in fixed core order.
//!
//! The paper's machine is one SMT core. This module scales the *machine
//! model* along the scale-out axis: every core is a full
//! [`Cpu`] pipeline with private L1 levels (data/instruction caches,
//! MSHRs, write buffer, ports, banks), and all cores contend on one
//! [`L2Backend`] — the shared-cache pressure that decides throughput
//! for low-operational-intensity media kernels.
//!
//! ## The per-cycle bus arbiter
//!
//! Each machine cycle steps every core one cycle ([`Cpu::cycle_no_ff`])
//! on one host thread, **in fixed core order**. That order is the bus
//! arbiter: the shared backend always observes the same deterministic,
//! monotonic request sequence, so results are seed-stable and
//! independent of the host. A 1-core machine is stat-for-stat the
//! pre-CMP pipeline (`tests/cmp_equivalence.rs`).
//!
//! Host parallelism lives one level up: [`crate::runner::run_grid`]
//! runs independent grid points on worker threads. A single run's cores
//! interact through the shared L2 every few cycles (media kernels miss
//! L1 often), so stepping them on separate threads costs more in
//! synchronization than it saves.
//!
//! The idle fast-forward generalizes per-chip: when *no* core had any
//! activity this cycle, the whole chip jumps to the earliest per-core
//! wakeup (idle cycles touch no shared state, so the jump is exact).
//!
//! The §5.1 program list generalizes to context order `(core, tid)`:
//! context `(c, t)` starts with list slot `c × threads + t`, drained
//! contexts pull the next slot from a machine-global counter, and the
//! run ends when the first eight list entries complete — at one core
//! this is exactly the paper's methodology.
//!
//! Environment knob (resolved once per process):
//!
//! * `MEDSIM_CORES` — cores of the simulated CMP (default 1: the
//!   paper's machine, reproducing its figures unchanged).

use crate::metrics::RunResult;
use crate::runner::TraceCache;
use crate::runreport::{Roofline, Sampler};
use crate::sim::SimConfig;
use medsim_cpu::{Cpu, CpuConfig};
use medsim_mem::{L2Backend, MemConfig, MemSystem};
use medsim_obs::{EventKind, LANE_MACHINE};
use medsim_workloads::trace::{ClampSource, InstSource};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Number of program-list entries that must complete before a run ends
/// (§5.1: the first eight entries of the cycling list).
pub const PROGRAMS_TO_COMPLETE: usize = 8;

/// Cores of the simulated CMP from `MEDSIM_CORES` (default 1 — the
/// paper's single-core machine; clamped to `1..=64`). Resolved once per
/// process.
#[must_use]
pub fn cores_from_env() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::env::var("MEDSIM_CORES")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .map_or(1, |n| n.clamp(1, 64))
    })
}

/// The memory configuration a run actually simulates — the ablation
/// override when present, else the paper hierarchy's defaults.
pub(crate) fn mem_config_of(config: &SimConfig) -> MemConfig {
    config
        .mem_override
        .clone()
        .unwrap_or_else(|| MemConfig::paper_with(config.hierarchy))
}

/// The §5.1 program-list scheduler generalized to `(core, tid)`
/// context order.
struct ProgramList {
    /// Current list slot per global context (`core × threads + tid`).
    ctx_slot: Vec<usize>,
    /// Next list slot to hand out.
    next_slot: usize,
    /// Which of the first eight list entries have completed.
    completed: [bool; PROGRAMS_TO_COMPLETE],
}

impl ProgramList {
    fn new(contexts: usize) -> Self {
        ProgramList {
            ctx_slot: (0..contexts).collect(),
            next_slot: contexts,
            completed: [false; PROGRAMS_TO_COMPLETE],
        }
    }

    fn all_done(&self) -> bool {
        self.completed.iter().all(|&x| x)
    }

    /// Refill the drained contexts of core `core` with the next
    /// programs in the list (run after every machine cycle, in fixed
    /// core order).
    fn refill(
        &mut self,
        core: usize,
        threads: usize,
        cpu: &mut Cpu,
        source_for: impl Fn(usize) -> Box<dyn InstSource>,
    ) {
        for tid in 0..threads {
            if !cpu.thread_idle(tid) {
                continue;
            }
            let ctx = core * threads + tid;
            let slot = self.ctx_slot[ctx];
            if slot < PROGRAMS_TO_COMPLETE {
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

/// Build the machine's cores: private L1 levels each, one shared
/// L2/DRAM backend when there is more than one core (a single core
/// owns its backend exclusively — the zero-overhead pre-CMP layout).
fn build_cores(config: &SimConfig, n_cores: usize) -> Vec<Cpu> {
    let mem_config = mem_config_of(config);
    let cpu_config = CpuConfig::paper(config.threads, config.isa)
        .with_policy(config.fetch_policy)
        .with_stream_batch(config.stream_batch)
        .with_decouple(config.decouple)
        .with_decouple_depth(config.decouple_depth);
    let mut cores: Vec<Cpu> = if n_cores == 1 {
        vec![Cpu::new(cpu_config, MemSystem::new(mem_config))]
    } else {
        let shared = L2Backend::shared(&mem_config);
        (0..n_cores)
            .map(|_| {
                Cpu::new(
                    cpu_config.clone(),
                    MemSystem::with_shared_backend(mem_config.clone(), shared.clone()),
                )
            })
            .collect()
    };
    // Cosmetic trace-lane tags — never read by the timing model.
    #[allow(clippy::cast_possible_truncation)]
    for (i, cpu) in cores.iter_mut().enumerate() {
        cpu.set_obs_lane(i as u32);
    }
    cores
}

/// End-of-run observability outputs: the per-run JSON report
/// (`MEDSIM_REPORT_JSON`) and the Chrome trace (`MEDSIM_TRACE_EVENTS`
/// naming a path). The event sink is process-global with one-run scope:
/// concurrent grid runs interleave their events and the last finisher
/// wins the file — point the knobs at single-run invocations (the
/// intended use), not at grid sweeps.
fn write_obs_outputs(
    config: &SimConfig,
    result: &RunResult,
    cores: &[&Cpu],
    sampler: Option<&Sampler>,
) {
    if medsim_obs::tracing() {
        medsim_obs::emit(
            result.cycles,
            LANE_MACHINE,
            EventKind::RunEnd,
            result.committed,
        );
        if let Some(path) = medsim_obs::trace_path() {
            let (events, dropped) = medsim_obs::drain_events();
            let json = medsim_obs::chrome_trace_json(&events, dropped);
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("medsim: failed to write trace {path}: {e}");
            }
        }
        // No path (programmatic buffer-only mode): leave the events in
        // the sink for the caller to drain.
    }
    if let Some(path) = medsim_obs::report_path() {
        let peak = mem_config_of(config).dram.bytes_per_cycle as f64;
        let roofline = Roofline::collect(cores, peak);
        let json = crate::runreport::report_json(config, result, roofline, sampler);
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("medsim: failed to write run report {path}: {e}");
        }
    }
}

/// The instruction source for program-list `slot`: trace synthesis or
/// packed decode through the cache, with MOM stream lengths clamped
/// when the config caps them.
fn source_for(config: &SimConfig, cache: &TraceCache, slot: usize) -> Box<dyn InstSource> {
    let s = cache.source_for(&config.spec, slot, config.isa);
    if config.max_stream_len < medsim_isa::MAX_STREAM_LEN {
        Box::new(ClampSource::new(s, config.max_stream_len))
    } else {
        s
    }
}

/// Process-wide count of runs the machine layer actually *executed*
/// (stepped pipeline cycles for), as opposed to runs served from the
/// result cache, which never reach this layer at all. The warm-grid
/// tests assert a zero delta across an all-hits grid.
static RUNS_EXECUTED: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the process-wide executed-run counter.
#[must_use]
pub fn runs_executed() -> u64 {
    RUNS_EXECUTED.load(Ordering::Relaxed)
}

/// Execute one run on the machine the config describes. This is what
/// [`crate::sim::Simulation::run_resulted`] calls on a result-cache
/// miss.
///
/// # Panics
///
/// Panics if the run exceeds `config.max_cycles` (indicates a
/// deadlocked model — should never happen).
#[must_use]
pub fn run(config: &SimConfig, cache: &TraceCache) -> RunResult {
    RUNS_EXECUTED.fetch_add(1, Ordering::Relaxed);
    run_with(config, cache, true)
}

/// [`run`] with the machine-level idle fast-forward switchable
/// (differential testing: the jump must be stats-invisible). Steps
/// every core, one cycle each, in core order on the calling thread.
///
/// # Panics
///
/// Panics if the run exceeds `config.max_cycles`.
#[must_use]
pub fn run_with(config: &SimConfig, cache: &TraceCache, fast_forward: bool) -> RunResult {
    let n_cores = config.cores.max(1);
    let mut list = ProgramList::new(n_cores * config.threads);
    let mut sampler = Sampler::from_knob(n_cores);
    if medsim_obs::tracing() {
        medsim_obs::emit(0, LANE_MACHINE, EventKind::RunBegin, n_cores as u64);
    }
    let mut cores = build_cores(config, n_cores);
    for (core, cpu) in cores.iter_mut().enumerate() {
        for tid in 0..config.threads {
            cpu.attach_source(tid, source_for(config, cache, core * config.threads + tid));
        }
    }
    loop {
        let mut any_activity = false;
        for cpu in &mut cores {
            any_activity |= cpu.cycle_no_ff();
        }
        if fast_forward && !any_activity {
            chip_fast_forward(&mut cores);
        }
        if let Some(s) = sampler.as_mut() {
            let now = cores[0].now();
            s.maybe_sample(now, cores.iter_mut());
        }
        for (core, cpu) in cores.iter_mut().enumerate() {
            list.refill(core, config.threads, cpu, |slot| {
                source_for(config, cache, slot)
            });
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
    let refs: Vec<&Cpu> = cores.iter().collect();
    let result = RunResult::collect_cores(config, &refs);
    write_obs_outputs(config, &result, &refs, sampler.as_ref());
    result
}

/// Machine-level idle fast-forward: every core just finished a cycle
/// with no activity anywhere, so jump the whole chip to the earliest
/// per-core wakeup (idle cycles touch no shared state, so each core's
/// replicated statistics are exact — see [`Cpu::apply_fast_forward`]).
fn chip_fast_forward(cores: &mut [Cpu]) {
    let wake = cores.iter().filter_map(|c| c.fast_forward_wake()).min();
    if let Some(w) = wake {
        for cpu in cores {
            cpu.apply_fast_forward(w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_knobs_freeze() {
        let cores = cores_from_env();
        crate::testenv::with_env_vars(&[("MEDSIM_CORES", "7")], || {
            assert_eq!(cores_from_env(), cores, "cores resolve once");
        });
    }

    #[test]
    fn program_list_cycles_and_terminates() {
        let mut list = ProgramList::new(2);
        assert_eq!(list.ctx_slot, vec![0, 1]);
        assert!(!list.all_done());
        for s in 0..PROGRAMS_TO_COMPLETE {
            list.completed[s] = true;
        }
        assert!(list.all_done());
    }
}
