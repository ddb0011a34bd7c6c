//! Benchmark harness for medsim: the workloads, the environment check,
//! the shared checks and the outside-in traced runner.
//!
//! The harness reaches the simulator only through its public items. It
//! deliberately avoids the host-parallel and reference-model selectors
//! (`ExecMode`, `FrontendKind`, `with_quantum`, `SchedulerKind`,
//! `CacheModel`, `with_stream_batch`, the `MemPort` park predicates): it
//! pins `MEDSIM_JOBS=1` instead, so the machine layer steps serially and
//! the frontend runs inline whatever those selectors default to.

pub mod report;
pub mod traced;

use medsim_core::{RunResult, SimConfig, TraceCache};
use medsim_mem::HierarchyKind;
use medsim_workloads::trace::SimdIsa;
use medsim_workloads::WorkloadSpec;

/// Programs on the §5.1 list: slots past 8 replay slot `slot % 8`, so
/// these eight traces are the whole instruction supply of a run.
pub const LIST_PROGRAMS: usize = 8;

/// Workload scale of a measured run, chosen so one repetition takes
/// about 0.1 s on a 2-vCPU host: short repetitions fit into the quiet
/// spells between bursts of interference from other tenants.
pub const SCALE: f64 = 1e-4;

/// Workload scale of the quick smoke-test mode.
pub const FAST_SCALE: f64 = 2e-5;

/// One benchmark workload: a point of the paper's design space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// μ-SIMD extension.
    pub isa: SimdIsa,
    /// Cores of the simulated CMP.
    pub cores: usize,
    /// Hardware contexts per core.
    pub threads: usize,
    /// Cache hierarchy.
    pub hierarchy: HierarchyKind,
    /// Decoupled vector-fetch unit on.
    pub decouple: bool,
}

/// The benchmark's workloads (see `README.md` for why each was chosen).
pub const SHAPES: [Shape; 3] = [
    Shape {
        name: "smt8_mmx_ideal",
        isa: SimdIsa::Mmx,
        cores: 1,
        threads: 8,
        hierarchy: HierarchyKind::Ideal,
        decouple: false,
    },
    Shape {
        name: "smt8_mom_conv",
        isa: SimdIsa::Mom,
        cores: 1,
        threads: 8,
        hierarchy: HierarchyKind::Conventional,
        decouple: false,
    },
    Shape {
        name: "cmp4x2_mom_dec",
        isa: SimdIsa::Mom,
        cores: 4,
        threads: 2,
        hierarchy: HierarchyKind::Decoupled,
        decouple: true,
    },
];

impl Shape {
    /// Look a workload up by name.
    #[must_use]
    pub fn by_name(name: &str) -> Option<Shape> {
        SHAPES.iter().copied().find(|s| s.name == name)
    }

    /// The simulator configuration of one run of this shape on `spec`.
    #[must_use]
    pub fn config(&self, spec: WorkloadSpec) -> SimConfig {
        SimConfig::new(self.isa, self.threads)
            .with_cores(self.cores)
            .with_hierarchy(self.hierarchy)
            .with_decouple(self.decouple)
            .with_spec(spec)
    }
}

/// The one environment setting the harness runs under.
pub const REQUIRED_ENV: (&str, &str) = ("MEDSIM_JOBS", "1");

/// Refuse to run under any `MEDSIM_*` setting other than
/// [`REQUIRED_ENV`]: a result directory would turn repetitions into file
/// reads, a trace directory would turn set-up into file reads, the
/// observability knobs add output work, and the reference-model knobs
/// select other implementations than the ones users run.
///
/// # Errors
///
/// Returns a message naming the offending variables.
pub fn check_env(vars: impl IntoIterator<Item = (String, String)>) -> Result<(), String> {
    let mut jobs_ok = false;
    let mut bad = Vec::new();
    for (k, v) in vars {
        if k == REQUIRED_ENV.0 && v == REQUIRED_ENV.1 {
            jobs_ok = true;
        } else if k.starts_with("MEDSIM_") {
            bad.push(format!("{k}={v}"));
        }
    }
    if !bad.is_empty() {
        return Err(format!("unset these variables: {}", bad.join(" ")));
    }
    if !jobs_ok {
        return Err(format!("set {}={}", REQUIRED_ENV.0, REQUIRED_ENV.1));
    }
    Ok(())
}

/// A fresh trace cache with every program of the run's list
/// synthesized and packed — the run's whole instruction supply, built
/// from nothing (no persistent store: [`check_env`] refuses
/// `MEDSIM_TRACE_DIR`).
#[must_use]
pub fn build_supply(spec: &WorkloadSpec, isa: SimdIsa) -> TraceCache {
    let cache = TraceCache::from_env();
    for slot in 0..LIST_PROGRAMS {
        drop(cache.source_for(spec, slot, isa));
    }
    cache
}

/// The simulated outcome a run must reproduce exactly: the fields of
/// [`RunResult`] the traced runner can read back from outside the
/// machine layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fingerprint {
    /// Simulated cycles.
    pub cycles: u64,
    /// Raw instructions committed.
    pub committed: u64,
    /// MMX-equivalent instructions committed.
    pub committed_equiv: u64,
    /// Programs completed across all contexts.
    pub programs_completed: u64,
    /// Memory-system stall events observed at issue.
    pub mem_stalls: u64,
    /// Cycles in which only vector instructions issued.
    pub vector_only_cycles: u64,
    /// L1 data read hit rate.
    pub l1_hit_rate: f64,
    /// Bytes moved over the DRAM channel.
    pub dram_bytes: u64,
}

impl Fingerprint {
    /// The fingerprint of a finished [`RunResult`].
    #[must_use]
    pub fn of(r: &RunResult) -> Self {
        Fingerprint {
            cycles: r.cycles,
            committed: r.committed,
            committed_equiv: r.committed_equiv,
            programs_completed: r.programs_completed,
            mem_stalls: r.mem_stalls,
            vector_only_cycles: r.vector_only_cycles,
            l1_hit_rate: r.l1_hit_rate,
            dram_bytes: r.dram_bytes,
        }
    }

    /// The §5.1 sanity checks every run must pass; returns the breaches.
    #[must_use]
    pub fn breaches(&self, isa: SimdIsa) -> Vec<String> {
        let mut out = Vec::new();
        if self.programs_completed < LIST_PROGRAMS as u64 {
            out.push(format!(
                "programs_completed {} < {LIST_PROGRAMS}",
                self.programs_completed
            ));
        }
        if self.committed_equiv < self.committed {
            out.push(format!(
                "committed_equiv {} < committed {}",
                self.committed_equiv, self.committed
            ));
        }
        if isa == SimdIsa::Mmx && self.committed_equiv != self.committed {
            out.push(format!(
                "MMX committed_equiv {} != committed {}",
                self.committed_equiv, self.committed
            ));
        }
        out
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB, or `None` where
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The CPUs this process may run on, ascending; empty where unknown.
#[must_use]
pub fn allowed_cpus() -> Vec<usize> {
    affinity::allowed()
}

/// Pin the calling thread to `cpu`; `false` if the kernel refused.
pub fn pin_to_cpu(cpu: usize) -> bool {
    affinity::pin(cpu)
}

#[cfg(target_os = "linux")]
mod affinity {
    /// Words of a glibc `cpu_set_t` (1024 CPUs).
    const SET_WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    pub(crate) fn allowed() -> Vec<usize> {
        let mut mask = [0u64; SET_WORDS];
        // SAFETY: `mask` is writable and exactly `size` bytes long, and
        // pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..SET_WORDS * 64)
            .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }

    pub(crate) fn pin(cpu: usize) -> bool {
        if cpu >= SET_WORDS * 64 {
            return false;
        }
        let mut mask = [0u64; SET_WORDS];
        mask[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `mask` is readable and exactly `size` bytes long, and
        // pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub(crate) fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub(crate) fn pin(_cpu: usize) -> bool {
        false
    }
}

/// Return the heap's free pages to the kernel, then reset this
/// process's `VmHWM` to its current resident set, so that a later
/// [`peak_rss_mb`] covers only what follows and not memory an earlier
/// phase freed. Returns `false` where the kernel cannot reset `VmHWM`.
#[must_use]
pub fn release_and_reset_peak_rss() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::ffi::c_int;
        }
        // SAFETY: `malloc_trim` takes no pointers and only releases
        // memory the allocator holds free; glibc allows calling it at
        // any time from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The `q`-quantile of `xs` (linear interpolation between order
/// statistics); `xs` must be non-empty.
#[must_use]
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
            .collect()
    }

    #[test]
    fn env_check_requires_jobs_1_and_nothing_else() {
        assert!(check_env(env(&[("MEDSIM_JOBS", "1"), ("HOME", "/x")])).is_ok());
        assert!(check_env(env(&[])).is_err());
        assert!(check_env(env(&[("MEDSIM_JOBS", "2")])).is_err());
        let err = check_env(env(&[("MEDSIM_JOBS", "1"), ("MEDSIM_RESULT_DIR", "r")]))
            .expect_err("a result directory is refused");
        assert!(err.contains("MEDSIM_RESULT_DIR"), "{err}");
    }

    #[test]
    fn pinning_to_an_allowed_cpu_succeeds() {
        let cpus = allowed_cpus();
        if let Some(&last) = cpus.last() {
            assert!(pin_to_cpu(last));
            assert_eq!(allowed_cpus(), vec![last]);
        }
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(quantile(&xs, 0.5), 2.5);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn shapes_are_named_uniquely() {
        for s in SHAPES {
            assert_eq!(Shape::by_name(s.name), Some(s));
        }
        assert_eq!(Shape::by_name("nope"), None);
    }
}
