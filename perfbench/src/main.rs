//! `medsim-perfbench`: one timed or traced benchmark run of one
//! workload, reported as a single JSON line on standard output.
//!
//! ```text
//! medsim-perfbench timed  --workload W --seed N --seconds S [--fast]
//! medsim-perfbench traced --workload W --seed N --seconds S [--fast]
//! ```
//!
//! `perfbench/run.py` builds this binary, runs it under a scrubbed
//! environment and assembles the benchmark's result; see `README.md`.

use medsim_core::metrics::EipcFactor;
use medsim_core::{RunResult, SimConfig, Simulation, TraceCache};
use medsim_perfbench::report::{metric, Outcome};
use medsim_perfbench::traced::{run_traced, TracedRun};
use medsim_perfbench::{
    allowed_cpus, build_supply, check_env, peak_rss_mb, pin_to_cpu, quantile,
    release_and_reset_peak_rss, Fingerprint, Shape, FAST_SCALE, LIST_PROGRAMS, REQUIRED_ENV, SCALE,
};
use medsim_trace::PackedTrace;
use medsim_workloads::trace::{SimdIsa, StreamIter};
use medsim_workloads::{Workload, WorkloadSpec};
use std::cell::RefCell;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Cold builds of the instruction supply per timed run, spread evenly
/// over its measured time; `setup_s` is the fastest of them.
const SETUP_BUILDS: usize = 20;

/// Fewest measured repetitions a run makes, however short `--seconds`.
const MIN_REPS: usize = 3;

struct Args {
    mode: &'static str,
    shape: Shape,
    seed: u64,
    seconds: f64,
    fast: bool,
}

const USAGE: &str =
    "usage: medsim-perfbench <timed|traced> --workload W --seed N --seconds S [--fast]";

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mode = match it.next().as_deref() {
        Some("timed") => "timed",
        Some("traced") => "traced",
        other => return Err(format!("unknown mode {other:?}\n{USAGE}")),
    };
    let (mut shape, mut seed, mut seconds, mut fast) = (None, None, None, false);
    while let Some(flag) = it.next() {
        if flag == "--fast" {
            fast = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                shape = Some(Shape::by_name(&value).ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            _ => return Err(format!("unknown flag {flag:?}\n{USAGE}")),
        }
    }
    Ok(Args {
        mode,
        shape: shape.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        fast,
    })
}

fn settings(args: &Args, config: &SimConfig) -> Vec<(&'static str, String)> {
    let parallelism = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    vec![
        (REQUIRED_ENV.0, REQUIRED_ENV.1.to_string()),
        ("other MEDSIM_* variables", "none".to_string()),
        ("machine stepping", "serial (MEDSIM_JOBS=1)".to_string()),
        ("frontend", "inline (MEDSIM_JOBS=1)".to_string()),
        ("result cache", "off".to_string()),
        ("trace store", "off".to_string()),
        ("isa", config.isa.to_string()),
        ("cores", config.cores.to_string()),
        ("threads_per_core", config.threads.to_string()),
        ("hierarchy", format!("{:?}", config.hierarchy)),
        ("decouple", config.decouple.to_string()),
        ("decouple_depth", config.decouple_depth.to_string()),
        ("scale", config.spec.scale.to_string()),
        ("seed", config.spec.seed.to_string()),
        ("fast", args.fast.to_string()),
        ("host_parallelism", parallelism.to_string()),
        (
            "repetitions alternate over CPUs",
            format!("{:?}", allowed_cpus()),
        ),
    ]
}

/// Run `f`, turning a panic into an error message.
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<&str>()
            .map(ToString::to_string)
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".to_string())
    })
}

/// Repeat `rep` (after one warm-up) until `--seconds` have passed and at
/// least [`MIN_REPS`] repetitions were measured (exactly one in fast
/// mode), calling `between` untimed before each measured repetition.
/// Successive repetitions run on successive allowed CPUs: interference from
/// other tenants often loads one CPU and not another for minutes, so
/// the fastest repetition is taken over all of them.
/// Returns the warm-up's value and each passing repetition's host
/// seconds; a repetition fails if it panics or if `same` says it differs
/// from the warm-up.
fn repeat<T>(
    out: &mut Outcome,
    args: &Args,
    mut rep: impl FnMut() -> T,
    same: impl Fn(&T, &T) -> bool,
    mut between: impl FnMut(),
) -> Option<(T, Vec<f64>)> {
    out.attempted += 1;
    let reference = match guarded(&mut rep) {
        Ok(r) => r,
        Err(e) => {
            out.fail(format!("warm-up repetition panicked: {e}"));
            return None;
        }
    };
    let cpus = allowed_cpus();
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut times = Vec::new();
    for i in 1.. {
        between();
        if cpus.len() > 1 && !pin_to_cpu(cpus[i % cpus.len()]) {
            out.breaches
                .push(format!("cannot pin to CPU {}", cpus[i % cpus.len()]));
            return None;
        }
        out.attempted += 1;
        let t = Instant::now();
        let r = guarded(&mut rep);
        let dt = t.elapsed().as_secs_f64();
        match r {
            Ok(r) if same(&r, &reference) => times.push(dt),
            Ok(_) => out.fail(format!("repetition {i} differs from the warm-up")),
            Err(e) => out.fail(format!("repetition {i} panicked: {e}")),
        }
        if args.fast || (i >= MIN_REPS && start.elapsed() >= budget) {
            break;
        }
    }
    Some((reference, times))
}

/// The larger of two peaks; unavailable if either is.
fn higher(a: Option<f64>, b: Option<f64>) -> Option<f64> {
    Some(a?.max(b?))
}

/// The cold builds of a timed run's instruction supply, spread over the
/// run so that a burst of host interference cannot slow all of them.
/// Set-up's memory is accounted apart from the simulation's: its
/// transient peak (a program materialized in a vector grown by doubling)
/// jumps with program length, and so with the seed.
struct Setup {
    spec: WorkloadSpec,
    isa: SimdIsa,
    build_s: Vec<f64>,
    last: Instant,
    setup_peak_mb: Option<f64>,
    run_peak_mb: Option<f64>,
}

impl Setup {
    /// Replace `cache` with a supply built from nothing. The peak
    /// resident set up to here belongs to the simulation phase before.
    fn rebuild(&mut self, cache: &mut Option<TraceCache>) {
        self.run_peak_mb = higher(self.run_peak_mb, peak_rss_mb());
        drop(cache.take());
        let t = Instant::now();
        *cache = Some(black_box(build_supply(&self.spec, self.isa)));
        self.build_s.push(t.elapsed().as_secs_f64());
        self.setup_peak_mb = higher(self.setup_peak_mb, peak_rss_mb());
        if !release_and_reset_peak_rss() {
            self.setup_peak_mb = None;
        }
        self.last = Instant::now();
    }
}

fn timed(args: &Args, config: &SimConfig, out: &mut Outcome) {
    let builds = if args.fast { 1 } else { SETUP_BUILDS };
    let rebuild_every = Duration::from_secs_f64(args.seconds / builds as f64);
    let mut setup = Setup {
        spec: config.spec,
        isa: config.isa,
        build_s: Vec::with_capacity(builds + 1),
        last: Instant::now(),
        setup_peak_mb: Some(0.0),
        run_peak_mb: Some(0.0),
    };
    let cache = RefCell::new(None);
    setup.rebuild(&mut cache.borrow_mut());
    let run = || {
        let cache = cache.borrow();
        let cache = cache.as_ref().expect("the supply is built");
        black_box(Simulation::run_cached(black_box(config), cache))
    };
    let between = || {
        if !args.fast && setup.last.elapsed() >= rebuild_every {
            setup.rebuild(&mut cache.borrow_mut());
        }
    };
    let repeated = repeat(out, args, run, RunResult::eq, between);
    setup.run_peak_mb = higher(setup.run_peak_mb, peak_rss_mb());
    let Some((reference, times)) = repeated else {
        return;
    };
    let fp = Fingerprint::of(&reference);
    out.fingerprint = Some(fp);
    for b in fp.breaches(config.isa) {
        out.fail(b);
    }
    if times.is_empty() {
        return;
    }
    let fastest = quantile(&times, 0.0);
    let p50 = quantile(&times, 0.5);
    out.metrics = vec![
        metric(
            "sim_minsts_per_s",
            reference.committed_equiv as f64 / fastest / 1e6,
            "Minst/s",
        ),
        metric("setup_s", quantile(&setup.build_s, 0.0), "s"),
        metric("host.rep_s_min", fastest, "s"),
        metric("host.rep_s_p50", p50, "s"),
        metric("host.rep_s_p90", quantile(&times, 0.9), "s"),
        metric("host.interference", p50 / fastest, "ratio"),
        metric("host.reps", times.len() as f64, "count"),
        metric("host.setup_builds", setup.build_s.len() as f64, "count"),
    ];
    match (setup.run_peak_mb, setup.setup_peak_mb) {
        (Some(run_mb), Some(setup_mb)) => {
            out.metrics.push(metric("peak_rss_mb", run_mb, "MB"));
            out.metrics
                .push(metric("trace.setup_peak_rss_mb", setup_mb, "MB"));
        }
        _ => out
            .breaches
            .push("VmHWM unavailable or not resettable".into()),
    }
}

/// Synthesis and packing of every list program, timed from outside.
fn supply_layers(spec: &WorkloadSpec, isa: SimdIsa) -> (f64, f64, f64) {
    let workload = Workload::new(*spec);
    let (mut synth_s, mut pack_s, mut bytes, mut insts) = (0.0, 0.0, 0usize, 0usize);
    for slot in 0..LIST_PROGRAMS {
        let t = Instant::now();
        let program: Vec<_> = StreamIter(workload.stream_for_slot(slot, isa)).collect();
        synth_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let packed = black_box(PackedTrace::pack(program.iter().copied()));
        pack_s += t.elapsed().as_secs_f64();
        bytes += packed.packed_bytes();
        insts += packed.len();
    }
    (synth_s, pack_s, bytes as f64 / insts.max(1) as f64)
}

fn traced(args: &Args, config: &SimConfig, out: &mut Outcome) {
    let spec = config.spec;
    let (synth_s, pack_s, bytes_per_inst) = supply_layers(&spec, config.isa);
    let cache: TraceCache = build_supply(&spec, config.isa);
    let mut runs: Vec<TracedRun> = Vec::new();
    let rep = || {
        let r = run_traced(config, &cache);
        runs.push(r);
        r.fingerprint
    };
    let Some((fp, _)) = repeat(out, args, rep, Fingerprint::eq, || ()) else {
        return;
    };
    out.fingerprint = Some(fp);
    for b in fp.breaches(config.isa) {
        out.fail(b);
    }
    // Layer numbers come from the fastest passing repetition (the
    // warm-up, at index 0, only warms).
    let Some(best) = runs[1..]
        .iter()
        .filter(|r| r.fingerprint == fp)
        .min_by(|a, b| a.layers.total_s.total_cmp(&b.layers.total_s))
    else {
        return;
    };
    let l = best.layers;
    let factor = match config.isa {
        SimdIsa::Mmx => 1.0,
        SimdIsa::Mom => EipcFactor::compute_cached(&spec, &cache).ratio(),
    };
    let cycles = fp.cycles as f64;
    let requests = l.mem.requests.max(1) as f64;
    out.metrics = vec![
        metric("workloads.synth_s", synth_s, "s"),
        metric("trace.pack_s", pack_s, "s"),
        metric("trace.bytes_per_inst", bytes_per_inst, "B/inst"),
        metric("trace.decode_s", l.decode_s, "s"),
        metric(
            "trace.decode_ns_per_inst",
            l.decode_s * 1e9 / l.decoded_insts.max(1) as f64,
            "ns/inst",
        ),
        metric("cpu.self_s", l.cpu_self_s(), "s"),
        metric(
            "cpu.ns_per_stepped_cycle",
            l.cpu_self_s() * 1e9 / l.stepped_cycles.max(1) as f64,
            "ns/cycle",
        ),
        metric("cpu.stepped_cycles", l.stepped_cycles as f64, "cycles"),
        metric(
            "cpu.ff_skipped_ratio",
            (cycles - l.stepped_cycles as f64) / cycles.max(1.0),
            "ratio",
        ),
        metric("mem.self_s", l.mem_s(), "s"),
        metric("mem.calls", l.mem.calls() as f64, "count"),
        metric(
            "mem.ns_per_call",
            l.mem.nanos as f64 / l.mem.calls().max(1) as f64,
            "ns/call",
        ),
        metric(
            "mem.request_refused_ratio",
            l.mem.refused as f64 / requests,
            "ratio",
        ),
        metric("mem.runahead_calls", l.mem.runahead as f64, "count"),
        metric("machine.build_s", l.build_s, "s"),
        metric("host.traced_s", l.total_s, "s"),
        metric("model.sim_cycles", cycles, "cycles"),
        metric("model.committed_equiv", fp.committed_equiv as f64, "inst"),
        metric(
            "model.eipc",
            factor * fp.committed_equiv as f64 / cycles.max(1.0),
            "inst/cycle",
        ),
        metric("model.l1d_hit_rate", fp.l1_hit_rate, "ratio"),
        metric("model.dram_bytes", fp.dram_bytes as f64, "B"),
    ];
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("medsim-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = check_env(std::env::vars()) {
        eprintln!("medsim-perfbench: refusing to run: {e}");
        return ExitCode::from(2);
    }
    let scale = if args.fast { FAST_SCALE } else { SCALE };
    let config = args.shape.config(WorkloadSpec {
        scale,
        seed: args.seed,
    });
    let mut out = Outcome {
        mode: args.mode,
        workload: args.shape.name.to_string(),
        seed: args.seed,
        settings: settings(&args, &config),
        ..Outcome::default()
    };
    if args.mode == "timed" {
        timed(&args, &config, &mut out);
    } else {
        traced(&args, &config, &mut out);
    }
    println!("{}", out.to_json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
