//! Observability walkthrough: run a small figure-5-style machine with
//! event tracing, interval sampling and the per-run JSON report all
//! switched on, then print where the artifacts landed alongside the
//! headline numbers and the roofline placement.
//!
//! ```sh
//! cargo run --release --example obs_report
//! # knobs (the programmatic defaults below yield to the environment):
//! MEDSIM_TRACE_EVENTS=/tmp/trace.json MEDSIM_REPORT_JSON=/tmp/report.json \
//!   MEDSIM_SAMPLE_CYCLES=1000 cargo run --release --example obs_report
//! ```
//!
//! The trace opens in Perfetto / `chrome://tracing`; the report is
//! plain JSON (`schema: medsim-run-report/v2`).

use medsim::core::runreport::Roofline;
use medsim::core::sim::{SimConfig, Simulation};
use medsim::obs;
use medsim::workloads::{trace::SimdIsa, WorkloadSpec};

fn main() {
    let scale = std::env::var("MEDSIM_SCALE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(2e-4);
    // Switch everything on unless the environment already chose: the
    // env knobs resolve first, so a user-provided path wins and these
    // programmatic calls only fill the gaps.
    if !obs::tracing() {
        obs::set_trace(true, Some("medsim_trace.json"));
    }
    if obs::report_path().is_none() {
        obs::set_report_path(Some("medsim_run_report.json"));
    }
    if obs::sample_cycles() == 0 {
        obs::set_sample_cycles(1000);
    }

    let config = SimConfig::new(SimdIsa::Mom, 4)
        .with_cores(2)
        .with_spec(WorkloadSpec::new(scale));
    println!(
        "observed run: {} cores x {} contexts, MOM, scale {scale:.0e}",
        config.cores.max(1),
        config.threads
    );

    let result = Simulation::run(&config);

    println!(
        "\ncycles {}  committed {}  EIPC {:.2}  L1 hit {:.1}%  L2 hit {:.1}%",
        result.cycles,
        result.committed,
        result.equiv_ipc(),
        result.l1_hit_rate * 100.0,
        result.l2_hit_rate * 100.0,
    );

    // The report file carries the full roofline section; recompute the
    // headline placement here for the console.
    let r = Roofline {
        flop_proxy: result.committed_equiv,
        dram_bytes: 0, // console hint only; the report has real traffic
        cycles: result.cycles,
        peak_bytes_per_cycle: 4.0,
    };
    println!(
        "roofline: see the report JSON (achieved {:.3} equiv-ops/cycle against a 4 B/cycle DRDRAM roof)",
        r.achieved_flops_per_cycle()
    );

    if let Some(p) = obs::report_path() {
        println!("report:  {p}");
    }
    match obs::trace_path() {
        Some(p) if obs::tracing() => println!("trace:   {p} (open in Perfetto)"),
        _ => {}
    }
}
