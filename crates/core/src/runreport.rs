//! The machine-readable per-run JSON report: interval time-series and
//! roofline analysis for one machine run.
//!
//! When `MEDSIM_REPORT_JSON` names a path, the machine layer writes a
//! versioned report there at the end of every run (schema
//! [`REPORT_SCHEMA`], versioned like the persistent trace store). The
//! report has four sections:
//!
//! * `config` — what was simulated (ISA, threads, cores, hierarchy,
//!   workload scale/seed);
//! * `result` — the end-of-run [`RunResult`] counters and rates;
//! * `roofline` — operational intensity and achieved vs. DRAM-bound
//!   bandwidth from the DRDRAM channel model (see [`Roofline`]);
//! * `samples` — the interval sampler's per-core time-series
//!   (`MEDSIM_SAMPLE_CYCLES` sets the period; omitted rows when off).
//!
//! JSON is hand-emitted (the workspace's `serde` is an offline no-op
//! shim) and the schema-shape test validates it with the
//! dependency-free parser in `medsim-obs`.

use crate::metrics::RunResult;
use crate::sim::SimConfig;
use medsim_cpu::Cpu;
use medsim_obs::{escape_json, json_f64};

/// Schema tag of the per-run report (bump on breaking shape changes).
pub const REPORT_SCHEMA: &str = "medsim-run-report/v2";

/// One row of the interval time-series: one core over one sampling
/// interval. Rates are **interval deltas** (what happened since the
/// previous sample), occupancies are instantaneous at the sample
/// cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleRow {
    /// Machine cycle the sample was taken at.
    pub cycle: u64,
    /// Core index.
    pub core: u32,
    /// Committed instructions per cycle over the interval.
    pub ipc: f64,
    /// L1 data read hit rate over the interval (1.0 when no reads).
    pub l1d_hit_rate: f64,
    /// I-cache read hit rate over the interval (1.0 when no reads).
    pub l1i_hit_rate: f64,
    /// Write-buffer entries occupied at the sample cycle.
    pub wbuf_occupancy: usize,
    /// Write-buffer capacity.
    pub wbuf_capacity: usize,
    /// Scalar-data MSHRs outstanding at the sample cycle.
    pub mshr_outstanding: usize,
    /// Scalar-data MSHR capacity.
    pub mshr_capacity: usize,
}

/// Per-core counter snapshot the sampler diffs against.
#[derive(Debug, Clone, Copy, Default)]
struct CoreSnap {
    cycle: u64,
    committed: u64,
    l1d_hits: u64,
    l1d_reads: u64,
    l1i_hits: u64,
    l1i_reads: u64,
}

fn snap_of(cpu: &Cpu, cycle: u64) -> CoreSnap {
    let d = cpu.mem().l1d_stats();
    let i = cpu.mem().l1i_stats();
    CoreSnap {
        cycle,
        committed: cpu.stats().committed(),
        l1d_hits: d.hits,
        l1d_reads: d.reads(),
        l1i_hits: i.hits,
        l1i_reads: i.reads(),
    }
}

/// The interval sampler: snapshots every core every
/// `MEDSIM_SAMPLE_CYCLES` machine cycles into [`SampleRow`]s. The
/// machine layer probes it once per machine cycle; with the knob off
/// no sampler exists and the probe is a `None` check. Idle
/// fast-forward can jump the clock across several intervals — the
/// sampler records one row batch at the crossing and skips the
/// intervals the jump proved empty.
#[derive(Debug)]
pub struct Sampler {
    interval: u64,
    next: u64,
    last: Vec<CoreSnap>,
    rows: Vec<SampleRow>,
}

impl Sampler {
    /// A sampler when `MEDSIM_SAMPLE_CYCLES` (or its programmatic
    /// override) is a positive period, else `None`.
    #[must_use]
    pub fn from_knob(n_cores: usize) -> Option<Sampler> {
        let interval = medsim_obs::sample_cycles();
        (interval > 0).then(|| Sampler {
            interval,
            next: interval,
            last: vec![CoreSnap::default(); n_cores],
            rows: Vec::new(),
        })
    }

    /// The configured period in cycles.
    #[must_use]
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// The rows collected so far.
    #[must_use]
    pub fn rows(&self) -> &[SampleRow] {
        &self.rows
    }

    /// Record a row batch if `clock` reached the next sample boundary.
    pub fn maybe_sample<'a>(&mut self, clock: u64, cores: impl Iterator<Item = &'a mut Cpu>) {
        if clock < self.next {
            return;
        }
        for (core, cpu) in cores.enumerate() {
            let snap = snap_of(cpu, clock);
            let prev = self.last[core];
            let dc = snap.cycle - prev.cycle;
            let rate = |hits: u64, reads: u64| {
                if reads == 0 {
                    1.0
                } else {
                    hits as f64 / reads as f64
                }
            };
            let now = cpu.now();
            let (wbuf_occupancy, wbuf_capacity) = cpu.mem_mut().wbuf_occupancy(now);
            let (mshr_outstanding, mshr_capacity) = cpu.mem_mut().dmshr_occupancy(now);
            #[allow(clippy::cast_possible_truncation)]
            self.rows.push(SampleRow {
                cycle: clock,
                core: core as u32,
                ipc: if dc == 0 {
                    0.0
                } else {
                    (snap.committed - prev.committed) as f64 / dc as f64
                },
                l1d_hit_rate: rate(
                    snap.l1d_hits - prev.l1d_hits,
                    snap.l1d_reads - prev.l1d_reads,
                ),
                l1i_hit_rate: rate(
                    snap.l1i_hits - prev.l1i_hits,
                    snap.l1i_reads - prev.l1i_reads,
                ),
                wbuf_occupancy,
                wbuf_capacity,
                mshr_outstanding,
                mshr_capacity,
            });
            self.last[core] = snap;
        }
        // One batch per crossing: intervals a fast-forward jumped over
        // were provably idle, so their rows would repeat this one.
        self.next = (clock / self.interval + 1) * self.interval;
    }
}

/// The roofline section: operational intensity of the run against the
/// DRDRAM channel's bandwidth roof.
///
/// The FLOP proxy is the equivalent committed FP + SIMD-arithmetic
/// operation count (stream-length expanded — the paper's comparison
/// currency), and bytes are actual DRAM channel traffic, so the
/// operational intensity is `flop_proxy / dram_bytes`. The only roof
/// the model derives from first principles is the memory roof
/// (`peak_bytes_per_cycle` from the DRDRAM config, 4 B/cycle for the
/// paper's channel); no compute ceiling is fabricated, so
/// `pct_of_memory_roof` is exactly the achieved fraction of channel
/// bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Roofline {
    /// Equivalent committed FP + SIMD-arithmetic operations.
    pub flop_proxy: u64,
    /// Bytes moved over the DRAM channel.
    pub dram_bytes: u64,
    /// Run length in cycles.
    pub cycles: u64,
    /// The channel's peak transfer rate in bytes per cycle.
    pub peak_bytes_per_cycle: f64,
}

impl Roofline {
    /// Gather roofline inputs from a finished machine's cores.
    #[must_use]
    pub fn collect(cores: &[&Cpu], peak_bytes_per_cycle: f64) -> Roofline {
        let flop_proxy = cores
            .iter()
            .map(|c| {
                let by_kind = c.stats().committed_by_kind;
                by_kind[1] + by_kind[2] // Fp + SimdArith
            })
            .sum();
        Roofline {
            flop_proxy,
            // The DRAM channel is chip-shared: read it once.
            dram_bytes: cores[0].mem().dram_stats().bytes,
            cycles: cores[0].stats().cycles,
            peak_bytes_per_cycle,
        }
    }

    /// Operational intensity in FLOP-proxy per DRAM byte; `None` when
    /// the run produced no DRAM traffic (e.g. the ideal hierarchy).
    #[must_use]
    pub fn operational_intensity(&self) -> Option<f64> {
        (self.dram_bytes > 0).then(|| self.flop_proxy as f64 / self.dram_bytes as f64)
    }

    /// Achieved FLOP-proxy throughput per cycle.
    #[must_use]
    pub fn achieved_flops_per_cycle(&self) -> f64 {
        self.flop_proxy as f64 / self.cycles.max(1) as f64
    }

    /// Achieved DRAM bandwidth in bytes per cycle.
    #[must_use]
    pub fn achieved_bytes_per_cycle(&self) -> f64 {
        self.dram_bytes as f64 / self.cycles.max(1) as f64
    }

    /// The memory roof at this intensity: the FLOP-proxy rate the run
    /// would reach if it saturated the channel (`OI × peak BW`).
    #[must_use]
    pub fn memory_roof_flops_per_cycle(&self) -> Option<f64> {
        self.operational_intensity()
            .map(|oi| oi * self.peak_bytes_per_cycle)
    }

    /// Fraction of the memory roof achieved, in `[0, 1]` — identically
    /// the channel-bandwidth utilization.
    #[must_use]
    pub fn pct_of_memory_roof(&self) -> Option<f64> {
        (self.dram_bytes > 0).then(|| self.achieved_bytes_per_cycle() / self.peak_bytes_per_cycle)
    }

    /// Coarse classification for the report: `"dram-bound"` above 80%
    /// channel utilization, `"below-memory-roof"` otherwise,
    /// `"no-dram-traffic"` when the channel never moved a byte.
    #[must_use]
    pub fn bound(&self) -> &'static str {
        match self.pct_of_memory_roof() {
            None => "no-dram-traffic",
            Some(p) if p >= 0.8 => "dram-bound",
            Some(_) => "below-memory-roof",
        }
    }

    fn to_json(self) -> String {
        let oi = self
            .operational_intensity()
            .map_or("null".to_string(), json_f64);
        let roof = self
            .memory_roof_flops_per_cycle()
            .map_or("null".to_string(), json_f64);
        let pct = self
            .pct_of_memory_roof()
            .map_or("null".to_string(), json_f64);
        format!(
            "{{\n      \"flop_proxy\": {},\n      \"dram_bytes\": {},\n      \"cycles\": {},\n      \
             \"operational_intensity\": {},\n      \"achieved_flops_per_cycle\": {},\n      \
             \"achieved_bytes_per_cycle\": {},\n      \"peak_bytes_per_cycle\": {},\n      \
             \"memory_roof_flops_per_cycle\": {},\n      \"pct_of_memory_roof\": {},\n      \
             \"bound\": \"{}\"\n    }}",
            self.flop_proxy,
            self.dram_bytes,
            self.cycles,
            oi,
            self.achieved_flops_per_cycle(),
            json_f64(self.achieved_bytes_per_cycle()),
            json_f64(self.peak_bytes_per_cycle),
            roof,
            pct,
            self.bound(),
        )
    }
}

fn sample_row_json(r: &SampleRow) -> String {
    format!(
        "{{\"cycle\": {}, \"core\": {}, \"ipc\": {}, \"l1d_hit_rate\": {}, \
         \"l1i_hit_rate\": {}, \"wbuf_occupancy\": {}, \"wbuf_capacity\": {}, \
         \"mshr_outstanding\": {}, \"mshr_capacity\": {}}}",
        r.cycle,
        r.core,
        json_f64(r.ipc),
        json_f64(r.l1d_hit_rate),
        json_f64(r.l1i_hit_rate),
        r.wbuf_occupancy,
        r.wbuf_capacity,
        r.mshr_outstanding,
        r.mshr_capacity,
    )
}

/// Render the full per-run report as JSON (schema [`REPORT_SCHEMA`]).
#[must_use]
pub fn report_json(
    config: &SimConfig,
    result: &RunResult,
    roofline: Roofline,
    sampler: Option<&Sampler>,
) -> String {
    let mut out = String::with_capacity(2048);
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{}\",\n", REPORT_SCHEMA));
    out.push_str(&format!(
        "  \"config\": {{\n    \"isa\": \"{}\",\n    \"threads\": {},\n    \"cores\": {},\n    \
         \"hierarchy\": \"{}\",\n    \"scale\": {},\n    \"seed\": {}\n  }},\n",
        escape_json(&format!("{:?}", config.isa)),
        config.threads,
        config.cores.max(1),
        escape_json(&format!("{:?}", config.hierarchy)),
        json_f64(config.spec.scale),
        config.spec.seed,
    ));
    out.push_str(&format!(
        "  \"result\": {{\n    \"cycles\": {},\n    \"committed\": {},\n    \
         \"committed_equiv\": {},\n    \"ipc\": {},\n    \"equiv_ipc\": {},\n    \
         \"programs_completed\": {},\n    \"mispredict_rate\": {},\n    \
         \"icache_hit_rate\": {},\n    \"l1_hit_rate\": {},\n    \"l1_avg_latency\": {},\n    \
         \"l2_hit_rate\": {},\n    \"vector_only_cycles\": {},\n    \"mem_stalls\": {}\n  }},\n",
        result.cycles,
        result.committed,
        result.committed_equiv,
        json_f64(result.ipc()),
        json_f64(result.equiv_ipc()),
        result.programs_completed,
        json_f64(result.mispredict_rate),
        json_f64(result.icache_hit_rate),
        json_f64(result.l1_hit_rate),
        json_f64(result.l1_avg_latency),
        json_f64(result.l2_hit_rate),
        result.vector_only_cycles,
        result.mem_stalls,
    ));
    out.push_str(&format!("  \"roofline\": {},\n", roofline.to_json()));
    match sampler {
        Some(sampler) => {
            out.push_str(&format!(
                "  \"samples\": {{\n    \"interval_cycles\": {},\n    \"rows\": [",
                sampler.interval()
            ));
            for (i, r) in sampler.rows().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("\n      ");
                out.push_str(&sample_row_json(r));
            }
            out.push_str("\n    ]\n  }\n");
        }
        None => out.push_str("  \"samples\": null\n"),
    }
    out.push('}');
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use medsim_mem::HierarchyKind;
    use medsim_workloads::trace::SimdIsa;

    fn tiny_result() -> RunResult {
        RunResult {
            isa: SimdIsa::Mom,
            threads: 2,
            cores: 1,
            hierarchy: HierarchyKind::Conventional,
            cycles: 100,
            committed: 150,
            committed_equiv: 400,
            programs_completed: 8,
            mispredict_rate: 0.03,
            icache_hit_rate: 0.98,
            l1_hit_rate: 0.91,
            l1_avg_latency: 2.4,
            l2_hit_rate: 0.7,
            vector_only_cycles: 9,
            mem_stalls: 3,
            dram_bytes: 0,
            vfetch: crate::metrics::VfetchCounters::default(),
        }
    }

    #[test]
    fn roofline_derivations() {
        let r = Roofline {
            flop_proxy: 800,
            dram_bytes: 400,
            cycles: 1000,
            peak_bytes_per_cycle: 4.0,
        };
        assert_eq!(r.operational_intensity(), Some(2.0));
        assert!((r.achieved_flops_per_cycle() - 0.8).abs() < 1e-12);
        assert!((r.achieved_bytes_per_cycle() - 0.4).abs() < 1e-12);
        assert_eq!(r.memory_roof_flops_per_cycle(), Some(8.0));
        assert_eq!(r.pct_of_memory_roof(), Some(0.1));
        assert_eq!(r.bound(), "below-memory-roof");

        let saturated = Roofline {
            dram_bytes: 4000,
            ..r
        };
        assert_eq!(saturated.pct_of_memory_roof(), Some(1.0));
        assert_eq!(saturated.bound(), "dram-bound");

        let ideal = Roofline { dram_bytes: 0, ..r };
        assert_eq!(ideal.operational_intensity(), None);
        assert_eq!(ideal.bound(), "no-dram-traffic");
    }

    #[test]
    fn report_json_is_valid_and_tagged() {
        let config = SimConfig::new(SimdIsa::Mom, 2);
        let result = tiny_result();
        let roofline = Roofline {
            flop_proxy: 10,
            dram_bytes: 5,
            cycles: 100,
            peak_bytes_per_cycle: 4.0,
        };
        let json = report_json(&config, &result, roofline, None);
        medsim_obs::validate_json(&json).expect("report must be valid JSON");
        assert!(json.contains(REPORT_SCHEMA));
        assert!(json.contains("\"samples\": null"));
        assert!(json.contains("\"roofline\""));
    }
}
