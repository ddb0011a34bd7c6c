//! Performance metrics: IPC, EIPC and run-result collection.
//!
//! §5.1 of the paper: *"the IPC is not a good measure of performance
//! when comparing different ISAs, as every ISA needs a different number
//! of instructions to execute a given benchmark. Therefore … EIPC stands
//! for Equivalent IPC, and intuitively indicates the IPC a SMT+MMX
//! processor should reach in order to match the performance of the
//! SMT+MOM processor"*:
//!
//! ```text
//! EIPC_MOM = (instructions_MMX / instructions_MOM) × IPC_MOM
//! ```
//!
//! where the instruction counts are the workload totals under each ISA
//! (Table 3's `#ins` row) and `IPC_MOM` counts equivalent (stream-length
//! expanded) instructions per cycle.

use crate::sim::SimConfig;
use medsim_cpu::Cpu;
use medsim_mem::HierarchyKind;
use medsim_workloads::trace::SimdIsa;
use medsim_workloads::{Benchmark, WorkloadSpec};
use serde::{Deserialize, Serialize};

/// The `I_MMX / I_MOM` ratio for a workload spec, computed from the
/// generated traces (the model's own Table-3 `#ins` row).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EipcFactor {
    /// Suite total equivalent instructions under MMX.
    pub mmx_insts: u64,
    /// Suite total equivalent instructions under MOM.
    pub mom_insts: u64,
}

impl EipcFactor {
    /// Walk the eight program slots under both ISAs and total their
    /// equivalent instruction counts. Costs one trace generation pass
    /// per ISA; cache the result across experiments.
    #[must_use]
    pub fn compute(spec: &WorkloadSpec) -> Self {
        EipcFactor::compute_cached(spec, &crate::runner::TraceCache::disabled())
    }

    /// [`EipcFactor::compute`] drawing traces through `cache`, so a
    /// grid driver pays for trace generation once across the factor
    /// computation and all of its runs. The per-slot totals come from
    /// the packed traces' precomputed equivalent counts
    /// ([`crate::runner::TraceCache::equiv_total_for`]) — no decode
    /// pass, and resolved traces stay resident for the runs that
    /// follow.
    #[must_use]
    pub fn compute_cached(spec: &WorkloadSpec, cache: &crate::runner::TraceCache) -> Self {
        let total = |isa: SimdIsa| -> u64 {
            (0..Benchmark::PAPER_ORDER.len())
                .map(|slot| cache.equiv_total_for(spec, slot, isa))
                .sum()
        };
        EipcFactor {
            mmx_insts: total(SimdIsa::Mmx),
            mom_insts: total(SimdIsa::Mom),
        }
    }

    /// The ratio `I_MMX / I_MOM` (≈ 1429/1087 ≈ 1.31 in the paper).
    #[must_use]
    pub fn ratio(&self) -> f64 {
        self.mmx_insts as f64 / self.mom_insts.max(1) as f64
    }
}

/// Decoupled vector-fetch unit counters, summed across a machine's
/// cores (the max-runahead field takes the per-core maximum instead).
///
/// All zeros with the unit off. `RunResult` equality covers them, so
/// the knob-off equivalence suite proves the off path never wakes the
/// unit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VfetchCounters {
    /// Stream elements issued early, ahead of execute.
    pub runahead_elems: u64,
    /// Vector loads fully issued by the run-ahead unit and drained by
    /// execute without touching a memory port.
    pub drains: u64,
    /// Maximum run-ahead distance observed (streams holding
    /// early-issued elements ahead of execute); bounded by the
    /// configured window depth.
    pub max_runahead: u64,
    /// Redirect flushes that discarded run-ahead state.
    pub flushes: u64,
    /// Early-issued elements discarded by redirect flushes.
    pub flushed_elems: u64,
    /// Cycles the vector access queue was non-empty (summed).
    pub busy_cycles: u64,
    /// Occupancy integral over those busy cycles.
    pub occupancy_sum: u64,
}

impl VfetchCounters {
    /// Average access-queue occupancy while the unit had work.
    #[must_use]
    pub fn avg_occupancy(&self) -> f64 {
        if self.busy_cycles == 0 {
            0.0
        } else {
            self.occupancy_sum as f64 / self.busy_cycles as f64
        }
    }
}

/// Everything measured in one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// The ISA the run used.
    pub isa: SimdIsa,
    /// Thread count (per core).
    pub threads: usize,
    /// Cores of the simulated CMP (1 = the paper's machine).
    pub cores: usize,
    /// Hierarchy organization.
    pub hierarchy: HierarchyKind,
    /// Cycles to complete the §5.1 workload.
    pub cycles: u64,
    /// Raw instructions committed.
    pub committed: u64,
    /// Equivalent instructions committed.
    pub committed_equiv: u64,
    /// Programs completed across all contexts.
    pub programs_completed: u64,
    /// Branch misprediction rate.
    pub mispredict_rate: f64,
    /// Instruction-cache hit rate (Table 4 row 1).
    pub icache_hit_rate: f64,
    /// L1 data hit rate (Table 4 row 2).
    pub l1_hit_rate: f64,
    /// Average L1 data latency in cycles (Table 4 row 3).
    pub l1_avg_latency: f64,
    /// L2 hit rate.
    pub l2_hit_rate: f64,
    /// Cycles in which only vector instructions issued (§5.3).
    pub vector_only_cycles: u64,
    /// Memory-system stall events observed at issue.
    pub mem_stalls: u64,
    /// Bytes moved over the (chip-shared) DRAM channel — the roofline
    /// numerator, surfaced here so sweeps can report pct-of-roof
    /// without re-deriving it.
    pub dram_bytes: u64,
    /// Decoupled vector-fetch unit counters (all zeros when off).
    pub vfetch: VfetchCounters,
}

impl RunResult {
    /// Collect metrics from a finished single-core simulation.
    #[must_use]
    pub fn collect(config: &SimConfig, cpu: &Cpu) -> Self {
        RunResult::collect_cores(config, &[cpu])
    }

    /// Collect metrics from a finished machine of one or more cores:
    /// per-core counters are summed, rate denominators are summed
    /// before dividing, and the shared L2/DRAM side is read once (every
    /// core of a CMP sees the same backend). At one core this is
    /// arithmetic-identical to the pre-CMP collection.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is empty.
    #[must_use]
    pub fn collect_cores(config: &SimConfig, cores: &[&Cpu]) -> Self {
        assert!(!cores.is_empty(), "a machine has at least one core");
        let cycles = cores[0].stats().cycles;
        debug_assert!(
            cores.iter().all(|c| c.stats().cycles == cycles),
            "lockstep cores share one clock"
        );
        let sum = |f: &dyn Fn(&Cpu) -> u64| -> u64 { cores.iter().map(|c| f(c)).sum() };
        let branches = sum(&|c| c.stats().threads.iter().map(|t| t.branches).sum());
        let mispredicts = sum(&|c| c.stats().threads.iter().map(|t| t.mispredicts).sum());
        let rate = |num: u64, den: u64, empty: f64| {
            if den == 0 {
                empty
            } else {
                num as f64 / den as f64
            }
        };
        let (ihits, ireads) = cores.iter().fold((0u64, 0u64), |(h, r), c| {
            let s = c.mem().l1i_stats();
            (h + s.hits, r + s.reads())
        });
        let (dhits, dreads) = cores.iter().fold((0u64, 0u64), |(h, r), c| {
            let s = c.mem().l1d_stats();
            (h + s.hits, r + s.reads())
        });
        let (lat_sum, lat_n) = cores.iter().fold((0u64, 0u64), |(s, n), c| {
            let p = c.mem().private_stats();
            (s + p.l1_latency_sum, n + p.l1_accesses)
        });
        RunResult {
            isa: config.isa,
            threads: config.threads,
            cores: cores.len(),
            hierarchy: config.hierarchy,
            cycles,
            committed: sum(&|c| c.stats().committed()),
            committed_equiv: sum(&|c| c.stats().committed_equiv()),
            programs_completed: sum(&|c| {
                c.stats().threads.iter().map(|t| t.programs_completed).sum()
            }),
            mispredict_rate: rate(mispredicts, branches, 0.0),
            icache_hit_rate: rate(ihits, ireads, 1.0),
            l1_hit_rate: rate(dhits, dreads, 1.0),
            l1_avg_latency: rate(lat_sum, lat_n, 0.0),
            l2_hit_rate: cores[0].mem().l2_stats().hit_rate(),
            vector_only_cycles: sum(&|c| c.stats().vector_only_cycles),
            mem_stalls: sum(&|c| c.stats().mem_stalls),
            // The DRAM channel is chip-shared: read it once.
            dram_bytes: cores[0].mem().dram_stats().bytes,
            vfetch: VfetchCounters {
                runahead_elems: sum(&|c| c.stats().vfetch_runahead_elems),
                drains: sum(&|c| c.stats().vfetch_drains),
                max_runahead: cores
                    .iter()
                    .map(|c| c.stats().vfetch_max_runahead)
                    .max()
                    .unwrap_or(0),
                flushes: sum(&|c| c.stats().vfetch_flushes),
                flushed_elems: sum(&|c| c.stats().vfetch_flushed_elems),
                busy_cycles: sum(&|c| c.stats().vfetch_cycles),
                occupancy_sum: sum(&|c| c.stats().vfetch_occupancy_sum),
            },
        }
    }

    /// Raw instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        self.committed as f64 / self.cycles.max(1) as f64
    }

    /// Equivalent instructions per cycle.
    #[must_use]
    pub fn equiv_ipc(&self) -> f64 {
        self.committed_equiv as f64 / self.cycles.max(1) as f64
    }

    /// The figure-of-merit the paper plots: IPC for MMX runs, EIPC for
    /// MOM runs (needs the workload's instruction-count factor).
    #[must_use]
    pub fn figure_of_merit(&self, factor: &EipcFactor) -> f64 {
        match self.isa {
            SimdIsa::Mmx => self.equiv_ipc(),
            SimdIsa::Mom => factor.ratio() * self.equiv_ipc(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eipc_factor_is_above_one() {
        // MOM fuses instructions: the suite needs fewer of them, so the
        // MMX/MOM ratio exceeds 1 (paper: ≈1.31).
        let spec = WorkloadSpec {
            scale: 2e-5,
            seed: 7,
        };
        let f = EipcFactor::compute(&spec);
        assert!(
            f.mmx_insts > f.mom_insts,
            "{} vs {}",
            f.mmx_insts,
            f.mom_insts
        );
        let r = f.ratio();
        assert!(r > 1.05 && r < 2.0, "ratio {r}");
    }

    #[test]
    fn figure_of_merit_scales_mom_by_the_factor() {
        let f = EipcFactor {
            mmx_insts: 1429,
            mom_insts: 1087,
        };
        let mk = |isa: SimdIsa| RunResult {
            isa,
            threads: 1,
            cores: 1,
            hierarchy: HierarchyKind::Ideal,
            cycles: 100,
            committed: 200,
            committed_equiv: 300,
            programs_completed: 8,
            mispredict_rate: 0.0,
            icache_hit_rate: 1.0,
            l1_hit_rate: 1.0,
            l1_avg_latency: 1.0,
            l2_hit_rate: 1.0,
            vector_only_cycles: 0,
            mem_stalls: 0,
            dram_bytes: 0,
            vfetch: VfetchCounters::default(),
        };
        let mmx = mk(SimdIsa::Mmx);
        assert!(
            (mmx.figure_of_merit(&f) - 3.0).abs() < 1e-12,
            "MMX: plain equivalent IPC"
        );
        let mom = mk(SimdIsa::Mom);
        let expect = 1429.0 / 1087.0 * 3.0;
        assert!((mom.figure_of_merit(&f) - expect).abs() < 1e-12);
    }

    #[test]
    fn ipc_guards_against_zero_cycles() {
        let r = RunResult {
            isa: SimdIsa::Mmx,
            threads: 1,
            cores: 1,
            hierarchy: HierarchyKind::Ideal,
            cycles: 0,
            committed: 0,
            committed_equiv: 0,
            programs_completed: 0,
            mispredict_rate: 0.0,
            icache_hit_rate: 1.0,
            l1_hit_rate: 1.0,
            l1_avg_latency: 0.0,
            l2_hit_rate: 1.0,
            vector_only_cycles: 0,
            mem_stalls: 0,
            dram_bytes: 0,
            vfetch: VfetchCounters::default(),
        };
        assert_eq!(r.ipc(), 0.0);
    }
}
