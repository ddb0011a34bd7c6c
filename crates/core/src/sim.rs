//! One simulation run with the paper's §5.1 methodology.
//!
//! *"We selected a random order of the 8 programs… Simulation starts
//! with as many programs concurrently as the number of contexts allowed
//! by the machine. When a program completes, the next program from the
//! list is initiated. In case that no further programs are available, we
//! initiate again selecting programs from the same list from the
//! beginning. This process is repeated until the end of the 8th context.
//! This avoids having fractions of time with less threads than those
//! allowed by the machine."*

use crate::machine;
use crate::metrics::RunResult;
use crate::resultstore::{ResultCache, ResultKey};
use crate::runner::TraceCache;
use medsim_cpu::{EnvKnobs, FetchPolicy};
use medsim_mem::{HierarchyKind, MemConfig};
use medsim_workloads::trace::SimdIsa;
use medsim_workloads::WorkloadSpec;
use serde::{Deserialize, Serialize};

/// Configuration of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// μ-SIMD extension under evaluation.
    pub isa: SimdIsa,
    /// Hardware thread contexts **per core** (1, 2, 4 or 8).
    pub threads: usize,
    /// Cores of the simulated CMP, each a full SMT pipeline with
    /// private L1 levels, all sharing one L2/DRAM backend. The default
    /// of `1` is the paper's machine.
    pub cores: usize,
    /// Cache-hierarchy organization.
    pub hierarchy: HierarchyKind,
    /// SMT fetch policy.
    pub fetch_policy: FetchPolicy,
    /// Workload scaling/seeding.
    pub spec: WorkloadSpec,
    /// Safety limit on simulated cycles.
    pub max_cycles: u64,
    /// Full memory-system override (ablation studies); when set, its
    /// `hierarchy` field wins over [`SimConfig::hierarchy`].
    pub mem_override: Option<MemConfig>,
    /// Cap on MOM stream lengths (ablation): stream instructions longer
    /// than this are split. `16` (the architectural maximum) disables it.
    pub max_stream_len: u8,
    /// Batched stream-request path (`false` = per-element reference).
    pub stream_batch: bool,
    /// Decoupled vector-fetch unit (`MEDSIM_DECOUPLE`, default off): a
    /// vector access queue runs ahead of execute, issuing stream loads
    /// early and buffering the replies execute drains in order. Off
    /// keeps the paper-faithful coupled pipeline, bitwise (enforced by
    /// `tests/decouple_equivalence.rs`).
    pub decouple: bool,
    /// Run-ahead window of the decoupled unit (`MEDSIM_DECOUPLE_DEPTH`,
    /// default 8): how many vector loads may sit ahead of execute with
    /// early-issued elements. `0` disables run-ahead issuing entirely —
    /// bitwise identical to `decouple = false`.
    pub decouple_depth: usize,
}

impl SimConfig {
    /// Paper defaults: conventional hierarchy, round-robin fetch,
    /// default workload scale.
    #[must_use]
    pub fn new(isa: SimdIsa, threads: usize) -> Self {
        // Environment-defaulted knobs come from the process-wide
        // EnvKnobs snapshot, so configs built at different times can
        // never disagree because the environment changed in between.
        let knobs = EnvKnobs::get();
        SimConfig {
            isa,
            threads,
            cores: machine::cores_from_env(),
            hierarchy: HierarchyKind::Conventional,
            fetch_policy: FetchPolicy::RoundRobin,
            spec: WorkloadSpec::default(),
            max_cycles: 2_000_000_000,
            mem_override: None,
            max_stream_len: medsim_isa::MAX_STREAM_LEN,
            stream_batch: knobs.stream_batch,
            decouple: knobs.decouple,
            decouple_depth: knobs.decouple_depth,
        }
    }

    /// Builder: size the CMP (cores sharing one L2/DRAM backend).
    #[must_use]
    pub fn with_cores(mut self, cores: usize) -> Self {
        self.cores = cores;
        self
    }

    /// Builder: enable/disable the batched stream-request path
    /// (differential testing).
    #[must_use]
    pub fn with_stream_batch(mut self, enabled: bool) -> Self {
        self.stream_batch = enabled;
        self
    }

    /// Builder: enable/disable the decoupled vector-fetch unit.
    #[must_use]
    pub fn with_decouple(mut self, enabled: bool) -> Self {
        self.decouple = enabled;
        self
    }

    /// Builder: set the decoupled unit's run-ahead window (`0` issues
    /// nothing early — bitwise identical to the unit being off).
    #[must_use]
    pub fn with_decouple_depth(mut self, depth: usize) -> Self {
        self.decouple_depth = depth;
        self
    }

    /// Builder: override the full memory configuration (ablations).
    #[must_use]
    pub fn with_mem(mut self, mem: MemConfig) -> Self {
        self.hierarchy = mem.hierarchy;
        self.mem_override = Some(mem);
        self
    }

    /// Builder: cap MOM stream lengths (ablations).
    #[must_use]
    pub fn with_max_stream_len(mut self, cap: u8) -> Self {
        self.max_stream_len = cap;
        self
    }

    /// Builder: set the hierarchy.
    #[must_use]
    pub fn with_hierarchy(mut self, h: HierarchyKind) -> Self {
        self.hierarchy = h;
        self
    }

    /// Builder: set the fetch policy.
    #[must_use]
    pub fn with_policy(mut self, p: FetchPolicy) -> Self {
        self.fetch_policy = p;
        self
    }

    /// Builder: set the workload spec.
    #[must_use]
    pub fn with_spec(mut self, spec: WorkloadSpec) -> Self {
        self.spec = spec;
        self
    }
}

/// Namespace for running simulations.
#[derive(Debug)]
pub struct Simulation;

impl Simulation {
    /// Execute one run and collect its metrics.
    ///
    /// Equivalent to [`Simulation::run_cached`] with a run-local trace
    /// cache: program slots that cycle back to the same list entry
    /// replay the memoized trace instead of regenerating it.
    ///
    /// # Panics
    ///
    /// Panics if the run exceeds `config.max_cycles` (indicates a
    /// deadlocked model — should never happen).
    #[must_use]
    pub fn run(config: &SimConfig) -> RunResult {
        Simulation::run_cached(config, &TraceCache::from_env())
    }

    /// Execute one run, drawing program traces through `cache` (shared
    /// by [`crate::runner::run_grid`] across a whole grid of runs).
    ///
    /// # Panics
    ///
    /// Panics if the run exceeds `config.max_cycles` (indicates a
    /// deadlocked model — should never happen).
    #[must_use]
    pub fn run_cached(config: &SimConfig, cache: &TraceCache) -> RunResult {
        Simulation::run_resulted(config, cache, &ResultCache::from_env())
    }

    /// Execute one run through the content-addressed **result cache**
    /// ([`crate::resultstore`]): a warm hit returns the stored
    /// [`RunResult`] without stepping a single pipeline cycle; a miss
    /// simulates and writes the store back. With the cache inactive
    /// (no `MEDSIM_RESULT_DIR`, `MEDSIM_RESULT_CACHE=0`, or
    /// observability output requested — a cached run has no timeline
    /// to trace) this is exactly [`Simulation::run_cached`]'s
    /// uncached behavior, and either way the returned result is
    /// bitwise identical: the store only ever holds what an identical
    /// run produced.
    ///
    /// The run is executed by the machine layer ([`crate::machine`]):
    /// one core by default, or a CMP of [`SimConfig::cores`] SMT cores
    /// sharing an L2/DRAM backend, stepped serially in core order.
    ///
    /// # Panics
    ///
    /// Panics if the run exceeds `config.max_cycles` (indicates a
    /// deadlocked model — should never happen).
    #[must_use]
    pub fn run_resulted(
        config: &SimConfig,
        cache: &TraceCache,
        results: &ResultCache,
    ) -> RunResult {
        if !results.active() {
            return machine::run(config, cache);
        }
        let key = ResultKey::of(config, cache);
        if let Some(hit) = results.load(&key) {
            return hit;
        }
        let result = machine::run(config, cache);
        results.save(&key, &result);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> WorkloadSpec {
        WorkloadSpec {
            scale: 2e-5,
            seed: 42,
        }
    }

    #[test]
    fn single_thread_run_completes_all_eight_programs() {
        let cfg = SimConfig::new(SimdIsa::Mmx, 1).with_spec(tiny_spec());
        let r = Simulation::run(&cfg);
        assert!(r.cycles > 0);
        assert!(
            r.programs_completed >= 8,
            "all list entries ran: {}",
            r.programs_completed
        );
        assert!(r.ipc() > 0.5, "IPC {}", r.ipc());
    }

    #[test]
    fn more_threads_do_not_lose_throughput_under_ideal_memory() {
        let base = SimConfig::new(SimdIsa::Mmx, 1)
            .with_hierarchy(HierarchyKind::Ideal)
            .with_spec(tiny_spec());
        let smt = SimConfig::new(SimdIsa::Mmx, 4)
            .with_hierarchy(HierarchyKind::Ideal)
            .with_spec(tiny_spec());
        let r1 = Simulation::run(&base);
        let r4 = Simulation::run(&smt);
        assert!(
            r4.equiv_ipc() > r1.equiv_ipc() * 1.15,
            "4 threads {} vs 1 thread {}",
            r4.equiv_ipc(),
            r1.equiv_ipc()
        );
    }

    #[test]
    fn mom_run_reports_equivalent_work() {
        let cfg = SimConfig::new(SimdIsa::Mom, 2)
            .with_hierarchy(HierarchyKind::Ideal)
            .with_spec(tiny_spec());
        let r = Simulation::run(&cfg);
        assert!(r.committed_equiv > r.committed, "MOM streams expand");
    }

    #[test]
    fn deterministic_runs() {
        let cfg = SimConfig::new(SimdIsa::Mmx, 2).with_spec(tiny_spec());
        let a = Simulation::run(&cfg);
        let b = Simulation::run(&cfg);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.committed, b.committed);
    }
}
