//! Simulator-performance tracking: times the headline drivers and
//! emits `BENCH_runs.json` (see [`medsim_bench::BenchRecorder`]).
//!
//! Measured rows:
//!
//! * `fig5_real` — the full figure-5 grid through the parallel engine
//!   at the `MEDSIM_SCALE` workload scale (the PR-over-PR wall-clock
//!   target);
//! * `grid_parallel` vs `grid_serial` — the same 8-run grid through
//!   [`medsim_core::runner::run_grid`] and through serial
//!   [`Simulation::run`] calls, printing the observed speedup;
//! * `pipeline_1thread` — a single small run, whose
//!   `sim_cycles_per_sec` is the raw hot-path throughput metric;
//! * `obs_off_overhead` — a mid-size SMT+MOM run with every
//!   observability knob off: the wall-clock price of the dormant
//!   `medsim_obs::tracing()` checks threaded through the hot paths,
//!   which must stay indistinguishable from zero (gated);
//! * `packed_decode` — full decode of one packed program trace through
//!   the per-instruction pull interface; its `sim_cycles` column holds
//!   *instructions decoded*, so `sim_cycles_per_sec` reads as decode
//!   insts/sec;
//! * `packed_block_decode` — the same trace through
//!   [`PackedStream::next_block_into`] (whole blocks into a reused
//!   buffer, each instruction a copy of its table template) — the
//!   decoder the CPU model actually drives, printed against the
//!   per-inst row;
//! * `stream_batch` — a stream-heavy SMT+MOM run with the batched
//!   `request_stream` path (the default), printed against the
//!   per-element reference path;
//! * `decoupled_vector` — the stream-heavy run again with the
//!   decoupled run-ahead vector-fetch unit on (gated), printed against
//!   the coupled reference; a depth-0 run is asserted bitwise equal to
//!   the coupled machine (the structural off-path);
//! * `cmp_4core` — one 4-core × 2-thread CMP run (private L1s, one
//!   shared L2/DRAM backend);
//! * `fig5_real_cold_store` / `fig5_real_warm_store` — the figure-5
//!   grid with a persistent trace store (`MEDSIM_TRACE_DIR`), first
//!   against an empty directory (synthesize + write-back), then against
//!   the populated one (decode-only) — the PR's trace-store headline.
//!
//! `MEDSIM_JOBS` caps the worker threads; the grid comparison uses a
//! reduced scale (one quarter of `MEDSIM_SCALE`) to keep smoke runs
//! fast.

use medsim_bench::{spec_from_env, timed_secs, BenchRecorder};
use medsim_core::experiments::fig5_real;
use medsim_core::runner::{effective_jobs, run_grid};
use medsim_core::sim::{SimConfig, Simulation};
use medsim_isa::Inst;
use medsim_trace::{PackedStream, PackedTrace};
use medsim_workloads::trace::SimdIsa;
use medsim_workloads::{Benchmark, StreamIter, WorkloadSpec};
use std::sync::Arc;

fn main() {
    let spec = spec_from_env();
    let mut recorder = BenchRecorder::new();

    let fig5 = recorder.measure("fig5_real", || fig5_real(&spec), sum_fig5_cycles);
    println!(
        "fig5_real: {} runs, {:.2}s wall",
        fig5.ideal.len() * 4 + fig5.real.len() * 4,
        recorder.entries()[0].wall_s
    );

    // Grid vs serial on an 8-run sweep (both ISAs × thread counts).
    let grid_spec = WorkloadSpec {
        scale: (spec.scale / 4.0).max(1e-6),
        ..spec
    };
    let configs: Vec<SimConfig> = SimdIsa::ALL
        .iter()
        .flat_map(|&isa| {
            [1usize, 2, 4, 8]
                .iter()
                .map(move |&t| SimConfig::new(isa, t).with_spec(grid_spec))
        })
        .collect();
    let (parallel, par_s) = timed_secs(|| run_grid(&configs));
    recorder.record(
        "grid_parallel",
        par_s,
        parallel.iter().map(|r| r.cycles).sum(),
    );
    let (serial, ser_s) = timed_secs(|| configs.iter().map(Simulation::run).collect::<Vec<_>>());
    recorder.record("grid_serial", ser_s, serial.iter().map(|r| r.cycles).sum());
    assert_eq!(
        parallel, serial,
        "run_grid must be bit-identical to the serial path"
    );
    println!(
        "grid of {}: parallel {par_s:.2}s vs serial {ser_s:.2}s ({:.2}x, {} jobs)",
        configs.len(),
        ser_s / par_s.max(1e-9),
        effective_jobs(configs.len()),
    );

    // Raw pipeline throughput.
    let tiny = SimConfig::new(SimdIsa::Mmx, 1).with_spec(WorkloadSpec {
        scale: 5e-6,
        seed: 3,
    });
    let (run, wall_s) = timed_secs(|| Simulation::run(&tiny));
    recorder.record("pipeline_1thread", wall_s, run.cycles);
    println!(
        "pipeline_1thread: {:.0} simulated cycles/sec",
        recorder
            .entries()
            .last()
            .expect("just recorded")
            .sim_cycles_per_sec()
    );

    // Observability off-path: a mid-size run with every obs knob off,
    // so the row prices the dormant `tracing()` checks on the fetch /
    // issue / commit / miss paths. The assert keeps the row honest —
    // if a knob leaks on in the bench environment, fail loudly rather
    // than silently measuring the on-path.
    assert!(
        !medsim_obs::tracing() && medsim_obs::sample_cycles() == 0,
        "obs_off_overhead must run with observability off"
    );
    let obs_cfg = SimConfig::new(SimdIsa::Mom, 4).with_spec(WorkloadSpec {
        scale: 5e-5,
        seed: 3,
    });
    let (obs_run, obs_s) = timed_secs(|| Simulation::run(&obs_cfg));
    recorder.record("obs_off_overhead", obs_s, obs_run.cycles);
    println!(
        "obs_off_overhead: {:.0} simulated cycles/sec with tracing/sampling off",
        obs_run.cycles as f64 / obs_s.max(1e-9),
    );

    // Packed-trace density and decode throughput.
    let insts: Vec<Inst> = StreamIter(Benchmark::Mpeg2Enc.stream(0, SimdIsa::Mmx, &spec)).collect();
    let packed = Arc::new(PackedTrace::pack(insts.iter().copied()));
    let (decoded, dec_s) =
        timed_secs(|| StreamIter(PackedStream::new(Arc::clone(&packed))).count() as u64);
    recorder.record("packed_decode", dec_s, decoded);
    println!(
        "packed_decode: {:.2} B/inst ({}x vs Vec<Inst>), {:.0} insts/sec",
        packed.bytes_per_inst(),
        (std::mem::size_of::<Inst>() as f64 / packed.bytes_per_inst()).round(),
        decoded as f64 / dec_s.max(1e-9),
    );

    // Block decode of the same trace: whole blocks into a reused
    // buffer — the replay path the CPU model drives.
    let (block_decoded, blk_s) = timed_secs(|| {
        let mut s = PackedStream::new(Arc::clone(&packed));
        let mut buf: Vec<Inst> = Vec::new();
        let mut n = 0u64;
        while s.next_block_into(&mut buf) {
            n += buf.len() as u64;
        }
        n
    });
    assert_eq!(block_decoded, decoded, "both decoders cover the trace");
    recorder.record("packed_block_decode", blk_s, block_decoded);
    println!(
        "packed_block_decode: {:.0} insts/sec ({:.2}x the per-inst decode)",
        block_decoded as f64 / blk_s.max(1e-9),
        dec_s / blk_s.max(1e-9),
    );

    // Batched stream requests on a stream-heavy SMT+MOM run over the
    // decoupled hierarchy (§5.4 — every vector element otherwise pays
    // its own L2 tag walk), printed against the per-element reference
    // path (identical results, by the differential suite).
    let mom = SimConfig::new(SimdIsa::Mom, 4)
        .with_hierarchy(medsim_mem::HierarchyKind::Decoupled)
        .with_spec(WorkloadSpec {
            scale: 2e-5,
            seed: 3,
        });
    let (batched, batched_s) = timed_secs(|| Simulation::run(&mom.clone().with_stream_batch(true)));
    recorder.record("stream_batch", batched_s, batched.cycles);
    let (per_elem, per_elem_s) =
        timed_secs(|| Simulation::run(&mom.clone().with_stream_batch(false)));
    assert_eq!(batched, per_elem, "stream batching must be invisible");
    println!(
        "stream_batch: batched {batched_s:.3}s vs per-element {per_elem_s:.3}s ({:.2}x)",
        per_elem_s / batched_s.max(1e-9),
    );

    // Decoupled run-ahead vector fetch on the same stream-heavy
    // SMT+MOM configuration: the gated row times the unit on; the
    // coupled reference is timed alongside and its simulated-cycle
    // delta printed (the run-ahead unit is a *timing* feature — the
    // two runs legitimately differ). The depth-0 leg pins the
    // structural off-path: decoupled with an empty window must be
    // bitwise the coupled machine.
    let (dec_on, dec_on_s) = timed_secs(|| Simulation::run(&mom.clone().with_decouple(true)));
    recorder.record("decoupled_vector", dec_on_s, dec_on.cycles);
    let (dec_off, dec_off_s) = timed_secs(|| Simulation::run(&mom.clone().with_decouple(false)));
    let depth0 = Simulation::run(&mom.clone().with_decouple(true).with_decouple_depth(0));
    assert_eq!(
        depth0, dec_off,
        "an empty run-ahead window must be bitwise the coupled machine"
    );
    println!(
        "decoupled_vector: on {dec_on_s:.3}s vs coupled {dec_off_s:.3}s; \
         {} cycles vs {} coupled ({:+.2}% sim cycles, {} elems run ahead)",
        dec_on.cycles,
        dec_off.cycles,
        (dec_on.cycles as f64 / dec_off.cycles.max(1) as f64 - 1.0) * 100.0,
        dec_on.vfetch.runahead_elems,
    );

    // Memory-hierarchy hot path: the same stream-heavy run under the
    // packed line-state model (the default) and under the
    // `MEDSIM_CACHE=ref` reference model. The packed planes are a
    // representation change, not a model change, so the two runs must
    // be bitwise identical — the row gates the memory hot path's wall
    // clock and re-proves the equivalence end to end on every CI axis.
    // The model knob is read at cache construction, so the legs force
    // it explicitly and restore the ambient value afterwards (this
    // section runs no worker threads).
    let prev_cache = std::env::var("MEDSIM_CACHE").ok();
    std::env::set_var("MEDSIM_CACHE", "packed");
    let (mem_packed, mem_packed_s) = timed_secs(|| Simulation::run(&mom));
    std::env::set_var("MEDSIM_CACHE", "ref");
    let (mem_ref, mem_ref_s) = timed_secs(|| Simulation::run(&mom));
    match prev_cache {
        Some(v) => std::env::set_var("MEDSIM_CACHE", v),
        None => std::env::remove_var("MEDSIM_CACHE"),
    }
    assert_eq!(
        mem_packed, mem_ref,
        "packed and reference line-state models must be stat-identical"
    );
    recorder.record("mem_hot_path", mem_packed_s, mem_packed.cycles);
    println!(
        "mem_hot_path: packed {mem_packed_s:.3}s vs ref {mem_ref_s:.3}s ({:.2}x)",
        mem_ref_s / mem_packed_s.max(1e-9),
    );

    // A 4-core × 2-thread CMP run (8 contexts, one shared L2/DRAM
    // backend) at the full MEDSIM_SCALE: the only row that exercises
    // the multi-core machine layer.
    let cmp = SimConfig::new(SimdIsa::Mom, 2)
        .with_cores(4)
        .with_spec(spec);
    let (cmp_run, cmp_s) = timed_secs(|| Simulation::run(&cmp));
    recorder.record("cmp_4core", cmp_s, cmp_run.cycles);
    println!(
        "cmp_4core: {cmp_s:.2}s (4 cores x 2 threads, shared L2 hit rate {:.1}%)",
        cmp_run.l2_hit_rate * 100.0,
    );

    // Cold vs warm persistent trace store around the fig5 grid. The
    // cold row is only meaningful against an *empty* store, so a
    // scratch directory is always used (a user-set MEDSIM_TRACE_DIR
    // would already be populated by the measurements above) and the
    // prior value is restored afterwards.
    let preset_dir = std::env::var("MEDSIM_TRACE_DIR").ok();
    let store_dir = std::env::temp_dir().join(format!("medsim-bench-store-{}", std::process::id()));
    std::fs::remove_dir_all(&store_dir).ok();
    std::env::set_var("MEDSIM_TRACE_DIR", &store_dir);
    let cold = recorder.measure("fig5_real_cold_store", || fig5_real(&spec), sum_fig5_cycles);
    let warm = recorder.measure("fig5_real_warm_store", || fig5_real(&spec), sum_fig5_cycles);
    assert_eq!(cold, warm, "store replay must be bit-identical");
    let rows = recorder.entries();
    let (cold_s, warm_s) = (rows[rows.len() - 2].wall_s, rows[rows.len() - 1].wall_s);
    println!(
        "trace store ({}): fig5_real cold {cold_s:.2}s vs warm {warm_s:.2}s ({:.2}x)",
        store_dir.display(),
        cold_s / warm_s.max(1e-9),
    );
    match preset_dir {
        Some(d) => std::env::set_var("MEDSIM_TRACE_DIR", d),
        None => std::env::remove_var("MEDSIM_TRACE_DIR"),
    }
    std::fs::remove_dir_all(&store_dir).ok();

    // Cold vs warm *result* store around the same grid: where the
    // trace store only skips synthesis, a warm result store skips the
    // pipelines entirely (`MEDSIM_RESULT_DIR` read-through in
    // `run_grid`). Same scratch-directory discipline as above.
    let preset_results = std::env::var("MEDSIM_RESULT_DIR").ok();
    let result_dir =
        std::env::temp_dir().join(format!("medsim-bench-results-{}", std::process::id()));
    std::fs::remove_dir_all(&result_dir).ok();
    std::env::set_var("MEDSIM_RESULT_DIR", &result_dir);
    let (grid_cold, grid_cold_s) = timed_secs(|| fig5_real(&spec));
    let grid_warm = recorder.measure("warm_grid", || fig5_real(&spec), sum_fig5_cycles);
    assert_eq!(
        grid_cold, grid_warm,
        "result-cache replay must be bit-identical"
    );
    let grid_warm_s = recorder.entries().last().expect("row just recorded").wall_s;
    println!(
        "result store ({}): fig5_real cold {grid_cold_s:.2}s vs warm {grid_warm_s:.2}s ({:.2}x)",
        result_dir.display(),
        grid_cold_s / grid_warm_s.max(1e-9),
    );
    // The whole point of the cache: warm sweeps are (nearly) free. Only
    // enforced when the cold run is long enough to measure — at smoke
    // scales both sides sit in process-startup noise.
    assert!(
        grid_cold_s >= 5.0 * grid_warm_s || grid_cold_s < 0.25,
        "warm grid should be >= 5x faster than cold \
         ({grid_cold_s:.3}s cold vs {grid_warm_s:.3}s warm)"
    );
    match preset_results {
        Some(d) => std::env::set_var("MEDSIM_RESULT_DIR", d),
        None => std::env::remove_var("MEDSIM_RESULT_DIR"),
    }
    std::fs::remove_dir_all(&result_dir).ok();

    recorder.write_default().expect("write BENCH_runs.json");
}

fn sum_fig5_cycles(fig: &medsim_core::experiments::Fig5) -> u64 {
    fig.ideal
        .iter()
        .chain(fig.real.iter())
        .flat_map(|c| c.runs.iter().map(|r| r.cycles))
        .sum()
}
