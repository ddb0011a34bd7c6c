//! # medsim-core — the simulator facade
//!
//! Ties the substrates together into the experiments of *"DLP + TLP
//! Processors for the Next Generation of Media Workloads"* (HPCA 2001):
//!
//! * [`sim`] — a single simulation run: the multiprogrammed §5.1
//!   methodology (program list cycling through the eight contexts until
//!   the first eight list entries complete) over a configured SMT
//!   processor and memory hierarchy;
//! * [`machine`] — the CMP machine layer: `MEDSIM_CORES` SMT cores
//!   with private L1 levels sharing one L2/DRAM backend, stepped on one
//!   host thread in fixed core order — the deterministic bus arbiter;
//! * [`metrics`] — IPC, the **EIPC** metric for cross-ISA comparison
//!   (`EIPC = (I_MMX / I_MOM) × IPC_MOM`, §5.1), and speedups;
//! * [`runner`] — the parallel experiment engine: [`runner::run_grid`]
//!   fans a grid of configurations out across OS threads over a shared
//!   memoized trace cache (packed `medsim-trace` encoding, layered over
//!   the persistent `MEDSIM_TRACE_DIR` store), bit-identical to serial
//!   execution — the only place the simulator uses host threads;
//! * [`experiments`] — one driver per table/figure of the paper's
//!   evaluation (Tables 1–4, Figures 4–6, 8, 9), all routed through the
//!   grid runner;
//! * [`resultstore`] — the content-addressed **result** cache
//!   (`MEDSIM_RESULT_DIR`): write-once, versioned, checksummed files
//!   keyed by the complete simulation identity (every config knob plus
//!   the workload's packed-trace checksums), read through by
//!   [`sim::Simulation::run_resulted`] and the grid runner so warm
//!   sweeps cost file reads instead of simulation — multi-process safe
//!   via the same atomic temp-file + rename protocol as the trace
//!   store;
//! * [`report`] — plain-text rendering of the experiment results in the
//!   paper's table shapes;
//! * [`runreport`] — the machine-readable per-run JSON report
//!   (`MEDSIM_REPORT_JSON`): interval time-series sampling
//!   (`MEDSIM_SAMPLE_CYCLES`) and roofline analysis against the DRDRAM
//!   bandwidth roof.
//!
//! ## Example
//!
//! ```no_run
//! use medsim_core::sim::{SimConfig, Simulation};
//! use medsim_workloads::{trace::SimdIsa, WorkloadSpec};
//!
//! let config = SimConfig::new(SimdIsa::Mom, 8).with_spec(WorkloadSpec::new(0.001));
//! let result = Simulation::run(&config);
//! println!("equivalent IPC {:.2}", result.equiv_ipc());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod machine;
pub mod metrics;
pub mod report;
pub mod resultstore;
pub mod runner;
pub mod runreport;
pub mod sim;

pub use metrics::{EipcFactor, RunResult, VfetchCounters};
pub use resultstore::{ResultCache, ResultKey, ResultStore, RESULT_FORMAT_VERSION};
pub use runner::{run_grid, CacheStats, TraceCache};
pub use runreport::{Roofline, SampleRow, Sampler, REPORT_SCHEMA};
pub use sim::{SimConfig, Simulation};

#[cfg(test)]
pub(crate) mod testenv {
    //! Serialized environment mutation for knob tests: `cargo test`
    //! runs tests on concurrent threads, and `set_var`/`remove_var`
    //! racing other tests that *read* the environment is undefined
    //! behavior territory on POSIX. Every test that mutates the
    //! environment must go through [`with_env_vars`].

    /// Run `f` with `vars` set, restoring the previous values after —
    /// all under one process-wide lock.
    pub(crate) fn with_env_vars<T>(vars: &[(&str, &str)], f: impl FnOnce() -> T) -> T {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let prev: Vec<_> = vars
            .iter()
            .map(|(k, _)| (*k, std::env::var(k).ok()))
            .collect();
        for (k, v) in vars {
            std::env::set_var(k, v);
        }
        let out = f();
        for (k, v) in prev {
            match v {
                Some(v) => std::env::set_var(k, v),
                None => std::env::remove_var(k),
            }
        }
        out
    }
}
