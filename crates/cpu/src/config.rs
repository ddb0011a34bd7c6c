//! Processor configuration, with the paper's parameters as defaults.

use crate::events::wheel_slots_from_env;
use medsim_workloads::SimdIsa;
use serde::{Deserialize, Serialize};

/// SMT fetch selection policy (§5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FetchPolicy {
    /// Classic round-robin over runnable threads.
    RoundRobin,
    /// Priority to threads with the fewest instructions decoded but not
    /// issued (Tullsen et al., ISCA-23).
    ICount,
    /// Like ICOUNT but counts stream *operations* using the
    /// stream-length register: a queued MOM instruction of length `L`
    /// weighs `L`.
    OCount,
    /// Mixes scalar and vector fetch: when the vector pipeline is empty,
    /// threads that fetched vector instructions last time get priority;
    /// otherwise threads that did not. Round-robin breaks ties.
    Balance,
}

impl FetchPolicy {
    /// All policies in figure-6 presentation order.
    pub const ALL: [FetchPolicy; 4] = [
        FetchPolicy::RoundRobin,
        FetchPolicy::ICount,
        FetchPolicy::OCount,
        FetchPolicy::Balance,
    ];

    /// Short label used in experiment output (paper's abbreviations).
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            FetchPolicy::RoundRobin => "RR",
            FetchPolicy::ICount => "IC",
            FetchPolicy::OCount => "OC",
            FetchPolicy::Balance => "BL",
        }
    }
}

impl core::fmt::Display for FetchPolicy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// Physical-register and window sizing (Table 1 of the paper: values
/// found by a near-saturation sweep per thread count; the published
/// table is partially illegible, so these are our sweep's results —
/// regenerate with the `table1_params` bench).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SizingParams {
    /// Physical integer registers (shared pool).
    pub int_regs: usize,
    /// Physical FP registers.
    pub fp_regs: usize,
    /// Physical MMX registers.
    pub simd_regs: usize,
    /// Physical MOM stream registers (each 16 × 64 bit; the paper notes
    /// lane organization keeps their area manageable).
    pub stream_regs: usize,
    /// Physical packed accumulators.
    pub acc_regs: usize,
    /// Entries per instruction queue (int/mem/fp/simd).
    pub queue_entries: usize,
    /// Graduation-window (ROB) entries per thread.
    pub rob_per_thread: usize,
}

impl SizingParams {
    /// Near-saturation sizing for `threads` hardware contexts.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is not 1, 2, 4 or 8.
    #[must_use]
    pub fn for_threads(threads: usize) -> Self {
        match threads {
            1 => SizingParams {
                int_regs: 80,
                fp_regs: 72,
                simd_regs: 72,
                stream_regs: 24,
                acc_regs: 4,
                queue_entries: 32,
                rob_per_thread: 64,
            },
            2 => SizingParams {
                int_regs: 128,
                fp_regs: 112,
                simd_regs: 112,
                stream_regs: 40,
                acc_regs: 6,
                queue_entries: 48,
                rob_per_thread: 64,
            },
            4 => SizingParams {
                int_regs: 224,
                fp_regs: 192,
                simd_regs: 192,
                stream_regs: 72,
                acc_regs: 10,
                queue_entries: 64,
                rob_per_thread: 64,
            },
            8 => SizingParams {
                int_regs: 400,
                fp_regs: 336,
                simd_regs: 336,
                stream_regs: 136,
                acc_regs: 18,
                queue_entries: 96,
                rob_per_thread: 64,
            },
            other => panic!("unsupported thread count {other} (the paper evaluates 1, 2, 4, 8)"),
        }
    }

    /// Minimum registers needed to hold every thread's architectural
    /// state (sanity bound used by the rename stage).
    #[must_use]
    pub fn architectural_floor(threads: usize) -> SizingParams {
        SizingParams {
            int_regs: 32 * threads + 8,
            fp_regs: 32 * threads + 8,
            simd_regs: 32 * threads + 8,
            stream_regs: 16 * threads + 4,
            acc_regs: 2 * threads + 1,
            queue_entries: 8,
            rob_per_thread: 8,
        }
    }
}

/// Full processor configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpuConfig {
    /// Hardware thread contexts (1, 2, 4 or 8).
    pub threads: usize,
    /// Which μ-SIMD extension the pipeline is built for.
    pub isa: SimdIsa,
    /// Fetch policy.
    pub fetch_policy: FetchPolicy,
    /// Threads fetched per cycle (paper: 2 groups).
    pub fetch_threads: usize,
    /// Instructions fetched per thread group (paper: 4).
    pub fetch_width: usize,
    /// Decode/rename width (paper: 8-way).
    pub decode_width: usize,
    /// Integer issue width (paper: 4).
    pub int_issue: usize,
    /// Memory issue width (paper: 4 loads or stores).
    pub mem_issue: usize,
    /// FP issue width (paper: 4).
    pub fp_issue: usize,
    /// SIMD queue issue width (2 for MMX; 1 for MOM).
    pub simd_issue: usize,
    /// Parallel vector pipes of the MOM media unit (paper: 2).
    pub vector_lanes: usize,
    /// Commit width (graduation, shared across threads).
    pub commit_width: usize,
    /// Sizing (registers, queues, ROB).
    pub sizing: SizingParams,
    /// Extra fetch-redirect penalty after a resolved misprediction.
    pub mispredict_penalty: u64,
    /// Integer multiply latency.
    pub lat_int_mul: u64,
    /// Integer divide latency (unpipelined).
    pub lat_int_div: u64,
    /// FP add/sub latency.
    pub lat_fp_add: u64,
    /// FP multiply / FMA latency.
    pub lat_fp_mul: u64,
    /// FP divide latency.
    pub lat_fp_div: u64,
    /// Packed-multiply latency (MMX or per-group MOM).
    pub lat_simd_mul: u64,
    /// Completion-count wheel horizon in cycles (wheel slot count).
    pub wheel_slots: usize,
    /// Resolve stream memory instructions through the batched
    /// [`medsim_mem::MemSystem::request_stream`] path (`false` = the
    /// per-element reference path).
    pub stream_batch: bool,
    /// Decoupled run-ahead vector fetch: dispatch enqueues vector
    /// loads into a small vector access queue that issues their stream
    /// requests ahead of the memory-issue stage (default off — the
    /// paper-faithful coupled core).
    pub decouple: bool,
    /// Vector access-queue window: how many queued vector loads the
    /// run-ahead unit may work ahead over. `0` with `decouple` on is
    /// the degenerate case — structurally decoupled, but never issuing
    /// early — and is bitwise identical to `decouple` off.
    pub decouple_depth: usize,
}

impl CpuConfig {
    /// The paper's processor for `threads` contexts under `isa`:
    /// SMT+MMX issues up to 2 MMX ops/cycle on two media FUs; SMT+MOM
    /// has a single media unit of width 2 (issue width 1, two pipes).
    #[must_use]
    pub fn paper(threads: usize, isa: SimdIsa) -> Self {
        let knobs = EnvKnobs::get();
        CpuConfig {
            threads,
            isa,
            fetch_policy: FetchPolicy::RoundRobin,
            fetch_threads: 2,
            fetch_width: 4,
            decode_width: 8,
            int_issue: 4,
            mem_issue: 4,
            fp_issue: 4,
            simd_issue: if isa == SimdIsa::Mmx { 2 } else { 1 },
            vector_lanes: 2,
            commit_width: 8,
            sizing: SizingParams::for_threads(threads),
            mispredict_penalty: 2,
            lat_int_mul: 3,
            lat_int_div: 12,
            lat_fp_add: 2,
            lat_fp_mul: 4,
            lat_fp_div: 12,
            lat_simd_mul: 3,
            wheel_slots: knobs.wheel_slots,
            stream_batch: knobs.stream_batch,
            decouple: knobs.decouple,
            decouple_depth: knobs.decouple_depth,
        }
    }

    /// Same configuration with a different fetch policy.
    #[must_use]
    pub fn with_policy(mut self, policy: FetchPolicy) -> Self {
        self.fetch_policy = policy;
        self
    }

    /// Same configuration with the batched stream-request path enabled
    /// or disabled.
    #[must_use]
    pub fn with_stream_batch(mut self, enabled: bool) -> Self {
        self.stream_batch = enabled;
        self
    }

    /// Same configuration with the decoupled run-ahead vector-fetch
    /// unit enabled or disabled.
    #[must_use]
    pub fn with_decouple(mut self, enabled: bool) -> Self {
        self.decouple = enabled;
        self
    }

    /// Same configuration with a different vector access-queue window.
    #[must_use]
    pub fn with_decouple_depth(mut self, depth: usize) -> Self {
        self.decouple_depth = depth;
        self
    }
}

/// Default vector access-queue window of the decoupled fetch unit.
pub const DEFAULT_DECOUPLE_DEPTH: usize = 8;

/// Decoupled vector fetch from `MEDSIM_DECOUPLE` (set and not `0`
/// enables; unset or `0` keeps the paper-faithful coupled core).
///
/// Raw environment read — prefer [`EnvKnobs::get`], which resolves it
/// once per process.
#[must_use]
pub fn decouple_from_env() -> bool {
    std::env::var("MEDSIM_DECOUPLE").is_ok_and(|v| v != "0")
}

/// Vector access-queue window from `MEDSIM_DECOUPLE_DEPTH` (clamped to
/// `0..=64`; unset or unparsable falls back to
/// [`DEFAULT_DECOUPLE_DEPTH`]).
///
/// Raw environment read — prefer [`EnvKnobs::get`], which resolves it
/// once per process.
#[must_use]
pub fn decouple_depth_from_env() -> usize {
    std::env::var("MEDSIM_DECOUPLE_DEPTH")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map_or(DEFAULT_DECOUPLE_DEPTH, |n| n.min(64))
}

/// Batched stream requests from `MEDSIM_STREAM_BATCH` (`0` disables —
/// the per-element reference path; anything else, or unset, batches).
///
/// Raw environment read — prefer [`EnvKnobs::get`], which resolves it
/// once per process.
#[must_use]
pub fn stream_batch_from_env() -> bool {
    std::env::var("MEDSIM_STREAM_BATCH").map_or(true, |v| v != "0")
}

/// The pipeline's environment knobs, resolved **once** per process.
///
/// Config constructors ([`CpuConfig::paper`],
/// `medsim_core::sim::SimConfig::new`) read their defaults from here
/// instead of the ambient environment, so two configs built at
/// different times can never disagree because something mutated the
/// environment in between (a hazard for multi-threaded test binaries
/// in particular — `std::env::set_var` mid-process is otherwise
/// racy with these reads). Builder methods still override per config.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnvKnobs {
    /// `MEDSIM_STREAM_BATCH`: batched stream-request path.
    pub stream_batch: bool,
    /// `MEDSIM_WHEEL_SLOTS`: completion-count wheel horizon.
    pub wheel_slots: usize,
    /// `MEDSIM_DECOUPLE`: decoupled run-ahead vector fetch.
    pub decouple: bool,
    /// `MEDSIM_DECOUPLE_DEPTH`: vector access-queue window.
    pub decouple_depth: usize,
}

impl EnvKnobs {
    /// The process-wide knob values (first call resolves the
    /// environment; later calls return the frozen copy).
    #[must_use]
    pub fn get() -> EnvKnobs {
        static KNOBS: std::sync::OnceLock<EnvKnobs> = std::sync::OnceLock::new();
        *KNOBS.get_or_init(|| EnvKnobs {
            stream_batch: stream_batch_from_env(),
            wheel_slots: wheel_slots_from_env(),
            decouple: decouple_from_env(),
            decouple_depth: decouple_depth_from_env(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_widths_match_section3() {
        let mmx = CpuConfig::paper(8, SimdIsa::Mmx);
        assert_eq!(
            mmx.fetch_threads * mmx.fetch_width,
            8,
            "fetch up to 8 per cycle"
        );
        assert_eq!(mmx.int_issue, 4);
        assert_eq!(mmx.mem_issue, 4);
        assert_eq!(mmx.fp_issue, 4);
        assert_eq!(mmx.simd_issue, 2, "two MMX ops per cycle");
        let mom = CpuConfig::paper(8, SimdIsa::Mom);
        assert_eq!(mom.simd_issue, 1, "MOM needs only issue width 1");
        assert_eq!(mom.vector_lanes, 2, "two parallel vector pipes");
    }

    #[test]
    fn sizing_grows_with_threads() {
        let mut prev = 0;
        for t in [1, 2, 4, 8] {
            let s = SizingParams::for_threads(t);
            assert!(s.int_regs > prev);
            prev = s.int_regs;
            let floor = SizingParams::architectural_floor(t);
            assert!(s.int_regs >= floor.int_regs, "{t} threads int");
            assert!(s.simd_regs >= floor.simd_regs, "{t} threads simd");
            assert!(s.stream_regs >= floor.stream_regs, "{t} threads stream");
            assert!(s.acc_regs >= floor.acc_regs, "{t} threads acc");
        }
    }

    #[test]
    #[should_panic(expected = "unsupported thread count")]
    fn odd_thread_counts_rejected() {
        let _ = SizingParams::for_threads(3);
    }

    /// Serialized, restoring environment mutation for knob tests: the
    /// process-wide lock keeps parallel test threads from interleaving
    /// `set_var` calls, and every variable is restored to its previous
    /// value (or removed) before returning.
    fn with_env_vars<T>(vars: &[(&str, &str)], f: impl FnOnce() -> T) -> T {
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

    #[test]
    fn env_knobs_are_frozen_at_first_use() {
        let first = EnvKnobs::get();
        // A mid-process environment change must not produce configs
        // that disagree with earlier ones. Only knobs no parallel test
        // reads raw are mutated here.
        let second = with_env_vars(
            &[
                ("MEDSIM_STREAM_BATCH", "0"),
                ("MEDSIM_WHEEL_SLOTS", "64"),
                ("MEDSIM_DECOUPLE_DEPTH", "2"),
            ],
            EnvKnobs::get,
        );
        assert_eq!(first, second, "knobs resolve once per process");
        let cfg = CpuConfig::paper(1, SimdIsa::Mmx);
        assert_eq!(cfg.stream_batch, first.stream_batch);
        assert_eq!(cfg.wheel_slots, first.wheel_slots);
    }

    #[test]
    fn decouple_knobs_parse() {
        with_env_vars(&[("MEDSIM_DECOUPLE", "0")], || {
            assert!(!decouple_from_env(), "0 keeps the coupled core");
        });
        with_env_vars(&[("MEDSIM_DECOUPLE", "1")], || {
            assert!(decouple_from_env());
        });
        with_env_vars(&[("MEDSIM_DECOUPLE_DEPTH", "200")], || {
            assert_eq!(decouple_depth_from_env(), 64, "clamped");
        });
        with_env_vars(&[("MEDSIM_DECOUPLE_DEPTH", "junk")], || {
            assert_eq!(decouple_depth_from_env(), DEFAULT_DECOUPLE_DEPTH);
        });
    }

    #[test]
    fn policy_labels_match_figure6() {
        assert_eq!(FetchPolicy::RoundRobin.label(), "RR");
        assert_eq!(FetchPolicy::ICount.label(), "IC");
        assert_eq!(FetchPolicy::OCount.label(), "OC");
        assert_eq!(FetchPolicy::Balance.label(), "BL");
    }
}
