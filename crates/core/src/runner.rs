//! The parallel experiment engine.
//!
//! The paper's evaluation is a grid: every figure/table sweeps
//! `(μ-SIMD ISA × {1,2,4,8} threads × hierarchy × fetch policy)`. Each
//! grid point is an independent simulation, so [`run_grid`] fans the
//! points out across OS threads with a work-stealing index and collects
//! the results back **in input order** — bit-identical to running each
//! config through [`Simulation::run`] serially (enforced by the
//! `grid_equivalence` integration tests).
//!
//! The second lever is the [`TraceCache`]: all grid points over one
//! [`WorkloadSpec`] consume the same eight program traces, and trace
//! generation is a large fraction of small-scale runs. The cache holds
//! each trace as an [`Arc`]`<`[`PackedTrace`]`>` — the compact
//! `medsim-trace` encoding at about an eighth of the 64 B/inst cost of
//! the former `Vec<Inst>` (scale 2e-4), which raises the cacheable
//! scale accordingly under the same budget — keyed by
//! `(slot, isa, spec)`. Every
//! consumer, the one whose miss synthesized the trace included,
//! replays it through the chunked [`PackedStream`] decoder.
//!
//! The cache also layers over the **persistent on-disk trace store**
//! ([`TraceStore`]): when `MEDSIM_TRACE_DIR` is set, misses read through
//! the store before synthesizing, and synthesized traces are written
//! back — so repeated figure/bench invocations across *processes* skip
//! trace generation entirely. Corrupt or version-mismatched store files
//! silently fall back to synthesis (counted in [`TraceCache::stats`]).
//!
//! Environment knobs:
//!
//! * `MEDSIM_JOBS` — worker threads (default: available parallelism);
//! * `MEDSIM_TRACE_CACHE` — set to `0` to disable trace memoization;
//! * `MEDSIM_TRACE_CACHE_MAX_BYTES` — approximate in-memory budget for
//!   packed traces (default 256 MiB). Traces whose estimated packed
//!   size does not fit the remaining budget fall back to streamed
//!   generation. (`MEDSIM_TRACE_CACHE_MAX_INSTS` is still honored as a
//!   legacy alias, converted at the old 64 B/inst resident cost.)
//! * `MEDSIM_TRACE_DIR` — directory of the persistent trace store
//!   (unset: persistence disabled);
//! * `MEDSIM_RESULT_DIR` / `MEDSIM_RESULT_CACHE` — the persistent
//!   **result** store ([`crate::resultstore`]): grid points whose
//!   complete identity hash matches a stored run return its
//!   [`RunResult`] without simulating at all.

use crate::metrics::RunResult;
use crate::resultstore::ResultCache;
use crate::sim::{SimConfig, Simulation};
use medsim_trace::{PackedStream, PackedTrace, StoreStats, TraceKey, TraceStore};
use medsim_workloads::trace::{BlockStream, InstSource, InstStream, SimdIsa, StreamIter};
use medsim_workloads::{Workload, WorkloadSpec};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Default in-memory budget for packed traces: 256 MiB. The former
/// `Vec<Inst>` ceiling (4M insts × 64 B) allowed the same bytes, so the
/// packed encoding admits roughly 4× the instructions by default.
const DEFAULT_BYTE_BUDGET: u64 = 256 * 1024 * 1024;

/// Resident bytes per instruction of the old `Vec<Inst>` representation
/// (legacy `MEDSIM_TRACE_CACHE_MAX_INSTS` conversion).
const UNPACKED_BYTES_PER_INST: u64 = 64;

/// Conservative packed-size estimate used for budget admission before a
/// trace is synthesized (the real suite averages ~8 resident B/inst at
/// scale 2e-4, table included; the acceptance tests pin ≤ 10).
const EST_PACKED_BYTES_PER_INST: f64 = 10.0;

/// Counters describing the cache's behavior, including the on-disk
/// store layer (zeros when no store is configured).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Traces synthesized from workload generators (in-memory and store
    /// both missed, or the trace did not fit the budget).
    pub synthesized: u64,
    /// Approximate packed bytes resident in the in-memory cache.
    pub bytes_used: u64,
    /// On-disk store counters (all zero without `MEDSIM_TRACE_DIR`).
    pub store: StoreStats,
}

/// Resolve the in-memory byte budget from the two knob values:
/// `MEDSIM_TRACE_CACHE_MAX_BYTES` wins; the legacy
/// `MEDSIM_TRACE_CACHE_MAX_INSTS` instruction-count ceiling is
/// converted at the 64 B/inst resident cost instructions had when that
/// knob was introduced; unparseable or absent values fall back to the
/// 256 MiB default.
fn byte_budget_from(max_bytes: Option<&str>, legacy_max_insts: Option<&str>) -> u64 {
    max_bytes
        .and_then(|v| v.parse::<u64>().ok())
        .or_else(|| {
            legacy_max_insts
                .and_then(|v| v.parse::<u64>().ok())
                .map(|insts| insts.saturating_mul(UNPACKED_BYTES_PER_INST))
        })
        .unwrap_or(DEFAULT_BYTE_BUDGET)
}

fn cache_key(spec: &WorkloadSpec, slot: usize, isa: SimdIsa) -> TraceKey {
    TraceKey {
        // Streams cycle through the eight-entry program list, so slot 8
        // replays slot 0's trace (§5.1).
        slot: slot % 8,
        isa,
        scale_bits: spec.scale.to_bits(),
        seed: spec.seed,
    }
}

/// Memoizes packed program traces per `(slot, isa, spec)`, layered over
/// the optional persistent [`TraceStore`].
///
/// Shared across the workers of a grid (and usable across grids over
/// the same spec). Thread-safe; concurrent misses on the same key may
/// generate the trace twice, but the generators are deterministic so
/// either result is identical and one wins the insert.
#[derive(Debug)]
pub struct TraceCache {
    enabled: bool,
    byte_budget: u64,
    bytes_used: AtomicU64,
    synthesized: AtomicU64,
    store: Option<TraceStore>,
    map: Mutex<HashMap<TraceKey, Arc<PackedTrace>>>,
    /// Memoized [`PackedTrace::content_checksum`] per key — the result
    /// cache hashes the eight workload traces into every
    /// [`crate::resultstore::ResultKey`], and this keeps that from
    /// costing more than one resolution per trace per grid.
    checksums: Mutex<HashMap<TraceKey, u64>>,
    /// Memoized equivalent-instruction totals per key (the EIPC
    /// factor's Table-3 `#ins` inputs), so the factor computation never
    /// decodes a trace it — or any run in the grid — already resolved.
    equiv_totals: Mutex<HashMap<TraceKey, u64>>,
}

impl TraceCache {
    /// A cache configured from the environment (see module docs).
    #[must_use]
    pub fn from_env() -> Self {
        let enabled = std::env::var("MEDSIM_TRACE_CACHE").map_or(true, |v| v != "0");
        let byte_budget = byte_budget_from(
            std::env::var("MEDSIM_TRACE_CACHE_MAX_BYTES")
                .ok()
                .as_deref(),
            std::env::var("MEDSIM_TRACE_CACHE_MAX_INSTS")
                .ok()
                .as_deref(),
        );
        TraceCache {
            enabled,
            byte_budget,
            bytes_used: AtomicU64::new(0),
            synthesized: AtomicU64::new(0),
            store: TraceStore::from_env(),
            map: Mutex::new(HashMap::new()),
            checksums: Mutex::new(HashMap::new()),
            equiv_totals: Mutex::new(HashMap::new()),
        }
    }

    /// A cache that never memoizes (every stream is generated afresh).
    #[must_use]
    pub fn disabled() -> Self {
        TraceCache {
            enabled: false,
            byte_budget: 0,
            bytes_used: AtomicU64::new(0),
            synthesized: AtomicU64::new(0),
            store: None,
            map: Mutex::new(HashMap::new()),
            checksums: Mutex::new(HashMap::new()),
            equiv_totals: Mutex::new(HashMap::new()),
        }
    }

    /// Builder: attach an explicit persistent store (tests, tools) in
    /// place of the `MEDSIM_TRACE_DIR` one.
    #[must_use]
    pub fn with_store(mut self, store: TraceStore) -> Self {
        self.store = Some(store);
        self
    }

    /// Number of memoized traces.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked while holding the cache lock.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.lock().expect("trace cache poisoned").len()
    }

    /// Whether the cache holds no traces.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the cache and store counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            synthesized: self.synthesized.load(Ordering::Relaxed),
            bytes_used: self.bytes_used.load(Ordering::Relaxed),
            store: self
                .store
                .as_ref()
                .map(TraceStore::stats)
                .unwrap_or_default(),
        }
    }

    /// The block-oriented instruction source for program-list `slot`
    /// under `isa`, memoized when enabled and the estimated packed size
    /// fits the byte budget; read through (and written back to) the
    /// persistent store when one is configured. This is the interface
    /// the CPU model consumes.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked while holding the cache lock.
    #[must_use]
    pub fn source_for(
        &self,
        spec: &WorkloadSpec,
        slot: usize,
        isa: SimdIsa,
    ) -> Box<dyn InstSource> {
        let workload = Workload::new(*spec);
        if !self.enabled {
            return workload.source_for_slot(slot, isa);
        }
        // Map lookup first: a hit costs no new budget, so it must not
        // be subject to admission (a near-full cache would otherwise
        // re-synthesize traces it already holds).
        let key = cache_key(spec, slot, isa);
        if let Some(trace) = self.map.lock().expect("trace cache poisoned").get(&key) {
            return Box::new(PackedStream::new(Arc::clone(trace)));
        }
        if !self.admits(spec, slot, isa) {
            self.synthesized.fetch_add(1, Ordering::Relaxed);
            return workload.source_for_slot(slot, isa);
        }
        // Resolve the miss outside the lock: store reads and synthesis
        // can take a while and other workers may need other traces.
        let trace = self.load_or_synthesize(&workload, &key, slot, isa);
        let mut map = self.map.lock().expect("trace cache poisoned");
        let entry = map.entry(key).or_insert_with(|| {
            self.bytes_used
                .fetch_add(trace.packed_bytes() as u64, Ordering::Relaxed);
            trace
        });
        Box::new(PackedStream::new(Arc::clone(entry)))
    }

    /// [`TraceCache::source_for`] as a per-instruction stream
    /// (analysis consumers and tests).
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked while holding the cache lock.
    #[must_use]
    pub fn stream_for(
        &self,
        spec: &WorkloadSpec,
        slot: usize,
        isa: SimdIsa,
    ) -> Box<dyn InstStream> {
        Box::new(BlockStream::new(self.source_for(spec, slot, isa)))
    }

    /// Store read-through, falling back to synthesis plus write-back.
    /// Synthesis packs straight from the generator stream: no
    /// `Vec<Inst>` of the program is ever materialized.
    fn load_or_synthesize(
        &self,
        workload: &Workload,
        key: &TraceKey,
        slot: usize,
        isa: SimdIsa,
    ) -> Arc<PackedTrace> {
        if let Some(store) = &self.store {
            if let Some(trace) = store.load(key) {
                return Arc::new(trace);
            }
        }
        self.synthesized.fetch_add(1, Ordering::Relaxed);
        let trace = Arc::new(PackedTrace::pack(StreamIter(
            workload.stream_for_slot(slot, isa),
        )));
        if let Some(store) = &self.store {
            // Write-back failures are non-fatal: the store is a cache,
            // and its `io_errors` counter records the event.
            let _ = store.store(key, &trace);
        }
        trace
    }

    /// Stable content checksum of the packed trace for `(spec, slot,
    /// isa)` — what the result cache folds into its keys. Memoized per
    /// key; resolves through the in-memory map, then the persistent
    /// store, then synthesis (which, when the trace is admitted,
    /// leaves it resident for the simulation that asked).
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked while holding a cache lock.
    #[must_use]
    pub fn trace_checksum(&self, spec: &WorkloadSpec, slot: usize, isa: SimdIsa) -> u64 {
        let key = cache_key(spec, slot, isa);
        if let Some(&sum) = self
            .checksums
            .lock()
            .expect("checksum memo poisoned")
            .get(&key)
        {
            return sum;
        }
        let sum = self.compute_checksum(&key, spec, slot, isa);
        self.checksums
            .lock()
            .expect("checksum memo poisoned")
            .insert(key, sum);
        sum
    }

    fn compute_checksum(
        &self,
        key: &TraceKey,
        spec: &WorkloadSpec,
        slot: usize,
        isa: SimdIsa,
    ) -> u64 {
        if self.enabled {
            if let Some(trace) = self.map.lock().expect("trace cache poisoned").get(key) {
                return trace.content_checksum();
            }
        }
        // Same miss resolution as `source_for`: store read-through,
        // else synthesize + write back. The packed trace is then kept
        // resident when admissible — whoever asked for the checksum is
        // about to run (or hit the result cache for) this very config.
        let workload = Workload::new(*spec);
        let trace = self.load_or_synthesize(&workload, key, slot, isa);
        let sum = trace.content_checksum();
        if self.enabled && self.admits(spec, slot, isa) {
            let mut map = self.map.lock().expect("trace cache poisoned");
            map.entry(*key).or_insert_with(|| {
                self.bytes_used
                    .fetch_add(trace.packed_bytes() as u64, Ordering::Relaxed);
                trace
            });
        }
        sum
    }

    /// Total equivalent instructions of the trace for `(spec, slot,
    /// isa)` — the Table-3 `#ins` input of
    /// [`crate::metrics::EipcFactor`]. Memoized per key. Resolution
    /// order mirrors [`TraceCache::source_for`]: an in-memory hit reads
    /// the packed trace's precomputed total (O(1), no decode); a miss
    /// resolves through the store / synthesis — leaving the trace
    /// resident when admissible, since the factor computation always
    /// precedes the grid that consumes the same traces — and a
    /// disabled cache walks a fresh stream.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked while holding a cache lock.
    #[must_use]
    pub fn equiv_total_for(&self, spec: &WorkloadSpec, slot: usize, isa: SimdIsa) -> u64 {
        let key = cache_key(spec, slot, isa);
        if let Some(&t) = self
            .equiv_totals
            .lock()
            .expect("equiv-total memo poisoned")
            .get(&key)
        {
            return t;
        }
        let total = self.compute_equiv_total(&key, spec, slot, isa);
        self.equiv_totals
            .lock()
            .expect("equiv-total memo poisoned")
            .insert(key, total);
        total
    }

    fn compute_equiv_total(
        &self,
        key: &TraceKey,
        spec: &WorkloadSpec,
        slot: usize,
        isa: SimdIsa,
    ) -> u64 {
        if self.enabled {
            if let Some(trace) = self.map.lock().expect("trace cache poisoned").get(key) {
                return trace.equiv_total();
            }
            if self.admits(spec, slot, isa) {
                let workload = Workload::new(*spec);
                let trace = self.load_or_synthesize(&workload, key, slot, isa);
                let total = trace.equiv_total();
                let mut map = self.map.lock().expect("trace cache poisoned");
                map.entry(*key).or_insert_with(|| {
                    self.bytes_used
                        .fetch_add(trace.packed_bytes() as u64, Ordering::Relaxed);
                    trace
                });
                return total;
            }
        }
        // Disabled or not admissible: stream the generator once and sum
        // (exactly what the pre-memo EIPC pass did per call).
        self.synthesized.fetch_add(1, Ordering::Relaxed);
        let workload = Workload::new(*spec);
        StreamIter(workload.stream_for_slot(slot, isa))
            .map(|i| i.equivalent_count())
            .sum()
    }

    /// Budget admission: memoize only traces whose estimated packed
    /// size (from the paper's Table-3 instruction counts, scaled) fits
    /// the *remaining* byte budget — full-scale runs stream their
    /// multi-hundred-million instruction traces instead of holding them
    /// resident.
    fn admits(&self, spec: &WorkloadSpec, slot: usize, isa: SimdIsa) -> bool {
        let benchmark = Workload::slot_benchmark(slot);
        let estimated_insts = benchmark.paper_minsts(isa) * 1.0e6 * spec.scale;
        let estimated_bytes = estimated_insts * EST_PACKED_BYTES_PER_INST;
        let used = self.bytes_used.load(Ordering::Relaxed);
        estimated_bytes <= self.byte_budget.saturating_sub(used) as f64
    }
}

/// Host worker threads of the process: `MEDSIM_JOBS` if set, else the
/// machine's available parallelism. Resolved once per process.
#[must_use]
pub fn total_workers() -> usize {
    static TOTAL: OnceLock<usize> = OnceLock::new();
    *TOTAL.get_or_init(|| {
        std::env::var("MEDSIM_JOBS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&j| j > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            })
    })
}

/// Worker-thread count for a grid of `n_configs` runs: the process's
/// [`total_workers`] (`MEDSIM_JOBS`, else available parallelism),
/// capped at the number of runs.
#[must_use]
pub fn effective_jobs(n_configs: usize) -> usize {
    total_workers().min(n_configs).max(1)
}

/// Run every configuration and return the results in input order.
///
/// Fans out across OS threads (see [`effective_jobs`]) with a shared
/// [`TraceCache`]. Results are bit-identical to mapping
/// [`Simulation::run`] over the slice serially.
#[must_use]
pub fn run_grid(configs: &[SimConfig]) -> Vec<RunResult> {
    let cache = TraceCache::from_env();
    run_grid_with(configs, effective_jobs(configs.len()), &cache)
}

/// [`run_grid`] with explicit worker count and trace cache. The
/// result cache is the environment-configured one, constructed once
/// for the whole grid.
///
/// # Panics
///
/// Propagates panics from worker threads (a panicking simulation run
/// aborts the grid).
#[must_use]
pub fn run_grid_with(configs: &[SimConfig], jobs: usize, cache: &TraceCache) -> Vec<RunResult> {
    run_grid_resulted(configs, jobs, cache, &ResultCache::from_env())
}

/// [`run_grid_with`] with an explicit result cache: every grid point
/// is a read-through lookup (warm hits skip simulation entirely) with
/// write-back after cold runs. Results are bit-identical either way —
/// the store only ever returns what an identical run produced.
///
/// # Panics
///
/// Propagates panics from worker threads (a panicking simulation run
/// aborts the grid).
#[must_use]
pub fn run_grid_resulted(
    configs: &[SimConfig],
    jobs: usize,
    cache: &TraceCache,
    results: &ResultCache,
) -> Vec<RunResult> {
    if configs.is_empty() {
        return Vec::new();
    }
    if jobs <= 1 || configs.len() == 1 {
        return configs
            .iter()
            .map(|c| Simulation::run_resulted(c, cache, results))
            .collect();
    }
    let workers = jobs.min(configs.len());
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(configs.len()));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                let Some(config) = configs.get(idx) else {
                    break;
                };
                let result = Simulation::run_resulted(config, cache, results);
                done.lock()
                    .expect("result sink poisoned")
                    .push((idx, result));
            });
        }
    });
    let mut indexed = done.into_inner().expect("result sink poisoned");
    indexed.sort_by_key(|&(idx, _)| idx);
    debug_assert_eq!(indexed.len(), configs.len());
    indexed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use medsim_workloads::WorkloadSpec;

    fn tiny() -> WorkloadSpec {
        WorkloadSpec {
            scale: 1.5e-5,
            seed: 3,
        }
    }

    fn unique_dir(tag: &str) -> std::path::PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "medsim-runner-test-{tag}-{}-{n}",
            std::process::id()
        ))
    }

    #[test]
    fn cached_streams_replay_generated_streams() {
        let spec = tiny();
        let cache = TraceCache::from_env();
        for isa in SimdIsa::ALL {
            for slot in 0..8 {
                let mut fresh = Workload::new(spec).stream_for_slot(slot, isa);
                let mut cached = cache.stream_for(&spec, slot, isa);
                let mut n = 0u64;
                loop {
                    let (a, b) = (fresh.next_inst(), cached.next_inst());
                    assert_eq!(a, b, "{isa} slot {slot} inst {n}");
                    if a.is_none() {
                        break;
                    }
                    n += 1;
                }
                assert!(n > 0);
            }
        }
        assert_eq!(cache.len(), 16, "2 ISAs x 8 slots memoized");
        let stats = cache.stats();
        assert_eq!(stats.synthesized, 16, "each trace synthesized once");
        assert!(stats.bytes_used > 0, "byte accounting tracks inserts");
    }

    #[test]
    fn cycling_slots_share_cache_entries() {
        let spec = tiny();
        let cache = TraceCache::from_env();
        let _ = cache.stream_for(&spec, 0, SimdIsa::Mmx);
        let _ = cache.stream_for(&spec, 8, SimdIsa::Mmx);
        assert_eq!(cache.len(), 1, "slot 8 replays slot 0 (§5.1 cycling)");
        assert_eq!(cache.stats().synthesized, 1);
    }

    #[test]
    fn oversized_traces_are_not_memoized() {
        let spec = WorkloadSpec {
            scale: 1.0,
            seed: 1,
        };
        let cache = TraceCache::from_env();
        assert!(
            !cache.admits(&spec, 0, SimdIsa::Mmx),
            "full-scale mpeg2enc (~640M insts, ~6 GB packed) must stream"
        );
        assert!(cache.admits(&tiny(), 0, SimdIsa::Mmx));
    }

    #[test]
    fn byte_budget_is_cumulative() {
        // A budget that fits roughly one tiny trace: admission must
        // tighten as bytes accumulate instead of counting entries.
        let spec = tiny();
        let probe = TraceCache::from_env();
        let _ = probe.stream_for(&spec, 0, SimdIsa::Mmx);
        let one_trace_bytes = probe.stats().bytes_used;
        assert!(one_trace_bytes > 0);

        // Admission uses the conservative 10 B/inst estimate, inserts
        // account actual packed bytes; a budget of (estimate + half a
        // trace) admits exactly one.
        let estimate = (Workload::slot_benchmark(0).paper_minsts(SimdIsa::Mmx)
            * 1.0e6
            * spec.scale
            * EST_PACKED_BYTES_PER_INST)
            .ceil() as u64;
        let mut small = TraceCache::from_env();
        small.byte_budget = estimate + one_trace_bytes / 2;
        assert!(small.admits(&spec, 0, SimdIsa::Mmx));
        let _ = small.stream_for(&spec, 0, SimdIsa::Mmx);
        // Same benchmark under a different seed: distinct key, same
        // estimate — but the remaining budget no longer covers it.
        let reseeded = WorkloadSpec {
            seed: spec.seed + 1,
            ..spec
        };
        assert!(
            !small.admits(&reseeded, 0, SimdIsa::Mmx),
            "remaining budget too small for a second trace"
        );
        let _ = small.stream_for(&reseeded, 0, SimdIsa::Mmx);
        assert_eq!(small.len(), 1, "second trace streamed, not memoized");
        assert_eq!(small.stats().synthesized, 2);
        // A key already in the map must be served from the map even
        // with the budget exhausted — hits cost no new bytes.
        let _ = small.stream_for(&spec, 0, SimdIsa::Mmx);
        assert_eq!(
            small.stats().synthesized,
            2,
            "cached key served from memory despite full budget"
        );
    }

    #[test]
    fn zero_byte_budget_admits_nothing_but_still_streams() {
        let spec = tiny();
        let mut cache = TraceCache::from_env();
        cache.byte_budget = 0;
        assert!(!cache.admits(&spec, 0, SimdIsa::Mmx));
        // Streams still flow — straight from synthesis, unmemoized.
        let mut want = Vec::new();
        let mut s = Workload::new(spec).stream_for_slot(0, SimdIsa::Mmx);
        while let Some(i) = s.next_inst() {
            want.push(i);
        }
        let mut got = Vec::new();
        let mut s = cache.stream_for(&spec, 0, SimdIsa::Mmx);
        while let Some(i) = s.next_inst() {
            got.push(i);
        }
        assert_eq!(got, want);
        assert_eq!(cache.len(), 0, "nothing memoized under a zero budget");
        assert_eq!(cache.stats().bytes_used, 0);
        assert_eq!(cache.stats().synthesized, 1);
    }

    #[test]
    fn legacy_max_insts_knob_converts_at_64_bytes_per_inst() {
        // MAX_BYTES wins when both are set.
        assert_eq!(byte_budget_from(Some("12345"), Some("99")), 12345);
        // The legacy instruction ceiling converts at the 64 B/inst
        // resident cost of the former Vec<Inst> representation.
        assert_eq!(
            byte_budget_from(None, Some("1000")),
            1000 * UNPACKED_BYTES_PER_INST
        );
        // Saturating: a huge legacy count must not wrap.
        assert_eq!(
            byte_budget_from(None, Some(&u64::MAX.to_string())),
            u64::MAX
        );
        // Unparseable or absent values fall back to the default.
        assert_eq!(byte_budget_from(Some("oops"), None), DEFAULT_BYTE_BUDGET);
        assert_eq!(byte_budget_from(None, Some("-3")), DEFAULT_BYTE_BUDGET);
        assert_eq!(byte_budget_from(None, None), DEFAULT_BYTE_BUDGET);
        // And an unparseable MAX_BYTES still honors the legacy knob.
        assert_eq!(
            byte_budget_from(Some(""), Some("2")),
            2 * UNPACKED_BYTES_PER_INST
        );
    }

    #[test]
    fn estimate_fits_but_real_size_overshoots_the_budget() {
        // At microscopic scales the admission estimate (paper Table-3
        // counts x scale x 10 B) is a handful of bytes, but generators
        // floor at one work unit, so the real packed trace is orders of
        // magnitude bigger. Admission is by estimate (the trace does
        // not exist yet); the insert then accounts *actual* bytes, so
        // the budget overshoots once and subsequent admissions see a
        // saturated pool — the documented "approximate budget"
        // behavior.
        let spec = WorkloadSpec {
            scale: 1e-9,
            seed: 5,
        };
        let estimate = (Workload::slot_benchmark(0).paper_minsts(SimdIsa::Mmx)
            * 1.0e6
            * spec.scale
            * EST_PACKED_BYTES_PER_INST)
            .ceil() as u64;
        let mut cache = TraceCache::from_env();
        cache.byte_budget = estimate + 8;
        assert!(cache.admits(&spec, 0, SimdIsa::Mmx), "estimate fits");
        let mut s = cache.stream_for(&spec, 0, SimdIsa::Mmx);
        let mut n = 0u64;
        while s.next_inst().is_some() {
            n += 1;
        }
        assert!(n > 100, "one floored work unit is much bigger: {n} insts");
        let stats = cache.stats();
        assert_eq!(cache.len(), 1, "the admitted trace is memoized anyway");
        assert!(
            stats.bytes_used > cache.byte_budget,
            "actual packed bytes ({}) overshoot the budget ({})",
            stats.bytes_used,
            cache.byte_budget
        );
        // The pool is saturated: the same benchmark under another seed
        // (same estimate) is no longer admitted...
        let reseeded = WorkloadSpec {
            seed: spec.seed + 1,
            ..spec
        };
        assert!(!cache.admits(&reseeded, 0, SimdIsa::Mmx));
        // ...but the resident key keeps serving from memory.
        let _ = cache.stream_for(&spec, 0, SimdIsa::Mmx);
        assert_eq!(cache.stats().synthesized, 1, "no re-synthesis on a hit");
    }

    #[test]
    fn store_read_through_and_write_back() {
        let dir = unique_dir("readthrough");
        let spec = tiny();

        // First cache: cold store — synthesizes and writes back.
        let cold = TraceCache::from_env().with_store(medsim_trace::TraceStore::at(&dir));
        let mut a = Vec::new();
        let mut s = cold.stream_for(&spec, 0, SimdIsa::Mom);
        while let Some(i) = s.next_inst() {
            a.push(i);
        }
        let cold_stats = cold.stats();
        assert_eq!(cold_stats.synthesized, 1);
        assert_eq!(cold_stats.store.writes, 1);
        assert_eq!(cold_stats.store.misses, 1);

        // Second cache (fresh process, same dir): warm store — loads
        // without synthesizing.
        let warm = TraceCache::from_env().with_store(medsim_trace::TraceStore::at(&dir));
        let mut b = Vec::new();
        let mut s = warm.stream_for(&spec, 0, SimdIsa::Mom);
        while let Some(i) = s.next_inst() {
            b.push(i);
        }
        assert_eq!(a, b, "store round-trip is lossless");
        let warm_stats = warm.stats();
        assert_eq!(warm_stats.synthesized, 0, "no synthesis on a warm store");
        assert_eq!(warm_stats.store.hits, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_store_files_fall_back_to_synthesis() {
        let dir = unique_dir("corrupt");
        let spec = tiny();
        let seed_cache = TraceCache::from_env().with_store(medsim_trace::TraceStore::at(&dir));
        let mut want = Vec::new();
        let mut s = seed_cache.stream_for(&spec, 2, SimdIsa::Mmx);
        while let Some(i) = s.next_inst() {
            want.push(i);
        }

        // Garble every stored file.
        for entry in std::fs::read_dir(&dir).expect("store dir") {
            let path = entry.expect("entry").path();
            let mut bytes = std::fs::read(&path).expect("read");
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xff;
            std::fs::write(&path, &bytes).expect("garble");
        }

        let cache = TraceCache::from_env().with_store(medsim_trace::TraceStore::at(&dir));
        let mut got = Vec::new();
        let mut s = cache.stream_for(&spec, 2, SimdIsa::Mmx);
        while let Some(i) = s.next_inst() {
            got.push(i);
        }
        assert_eq!(got, want, "fallback synthesis yields the same trace");
        let stats = cache.stats();
        assert_eq!(stats.store.corrupt, 1, "corruption detected and counted");
        assert_eq!(stats.synthesized, 1, "trace re-synthesized");
        assert_eq!(stats.store.writes, 1, "store self-heals on write-back");

        // Third cache over the healed store: a clean hit again.
        let healed = TraceCache::from_env().with_store(medsim_trace::TraceStore::at(&dir));
        let mut s = healed.stream_for(&spec, 2, SimdIsa::Mmx);
        let mut n = 0usize;
        while s.next_inst().is_some() {
            n += 1;
        }
        assert_eq!(n, want.len());
        assert_eq!(healed.stats().store.hits, 1);
        assert_eq!(healed.stats().synthesized, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_grid_is_fine() {
        assert!(run_grid(&[]).is_empty());
    }
}
