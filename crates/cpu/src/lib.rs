//! # medsim-cpu — the SMT out-of-order pipeline model
//!
//! Implements the processor of *"DLP + TLP Processors for the Next
//! Generation of Media Workloads"* (HPCA 2001, §3, figure 2): an 8-way
//! fetch out-of-order superscalar "closely resembling an 8-way version
//! of a MIPS R10000", extended with:
//!
//! * **SMT** following Tullsen et al.: the fetch engine selects up to
//!   two groups of four instructions per cycle from the runnable
//!   threads; per-thread rename tables share a common physical register
//!   pool; the graduation window retires per thread in order;
//! * **four instruction queues** (integer, memory, FP, multimedia) with
//!   out-of-order issue: 4 integer + 4 memory + 4 FP per cycle, plus
//!   2 MMX ops **or** 1 MOM stream op over two vector pipes (two μ-SIMD
//!   sub-instructions per cycle from the same stream);
//! * **fetch policies** — round-robin, ICOUNT, OCOUNT (stream-length
//!   aware) and BALANCE (§5.3);
//! * trace-driven **branch prediction** (gshare + BTB): mispredictions
//!   stall the thread's fetch until the branch resolves.
//!
//! The pipeline consumes instruction traces via
//! [`medsim_workloads::trace::InstStream`] and times memory through
//! [`medsim_mem::MemSystem`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod events;
pub mod fetch;
pub mod pipeline;
pub mod predictor;
pub mod rename;
pub mod stats;

pub use config::{CpuConfig, EnvKnobs, FetchPolicy, SizingParams};
pub use events::CountWheel;
pub use pipeline::{Cpu, MemPort};
pub use stats::CpuStats;

/// Simulation time in CPU cycles.
pub type Cycle = u64;
