//! # medsim-trace — packed traces and the persistent trace store
//!
//! The simulator is trace-driven: every run consumes the dynamic
//! instruction streams of the paper's eight-program workload. This crate
//! is the canonical trace representation across the workspace, in three
//! layers:
//!
//! * [`packed`] — [`PackedTrace`], a compact lossless encoding of an
//!   instruction sequence: per instruction, a 32-bit index into the
//!   trace's table of distinct 64-bit architectural words from
//!   [`medsim_isa::encode`] (each kept once beside its decoded
//!   template), plus a varint *sidecar* carrying the dynamic fields (PC
//!   deltas, effective addresses as delta-compressed varints, branch
//!   outcomes, stream shapes). At scale 2e-4 the suite averages ~8
//!   resident bytes per instruction, table included — about 8× denser
//!   than the 64-byte in-memory [`medsim_isa::Inst`];
//! * [`store`] — [`TraceStore`], a write-once on-disk directory of
//!   versioned, checksummed trace files keyed by `(slot, isa, spec)`
//!   content hash. Files hold the full word plane; corrupt, truncated
//!   or version-mismatched files are detected and reported as misses
//!   (callers fall back to synthesis);
//! * [`stream`] — [`PackedStream`], a block streaming decoder
//!   implementing [`medsim_workloads::InstSource`] (and the
//!   per-instruction [`medsim_workloads::InstStream`] view), so the CPU
//!   model consumes packed traces directly without materializing
//!   `Vec<Inst>`. Decoding an instruction copies its table template
//!   and patches in the sidecar fields — loopy media traces replay at
//!   near-`memcpy` rates.
//!
//! `medsim_core::runner::TraceCache` layers the three: an in-memory
//! `Arc<PackedTrace>` cache with an approximate byte budget, read-through
//! to the on-disk store (enabled by setting `MEDSIM_TRACE_DIR`), falling
//! back to workload synthesis — which then writes the store back.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod packed;
pub mod store;
pub mod stream;

pub use packed::{PackError, PackedTrace};
pub use store::{unique_tmp_name, StoreStats, TraceKey, TraceStore, FORMAT_VERSION};
pub use stream::PackedStream;
