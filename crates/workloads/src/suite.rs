//! The multiprogrammed workload of the paper (§4.1, §5.1, Table 2).
//!
//! Eight program instances approximate a full MPEG-4 application. The
//! run order is the paper's: *"MPEG-2 encoder, GSM decoder, MPEG-2
//! decoder, GSM encoder, JPEG decoder, JPEG encoder, mesa and MPEG-2
//! decoder (2nd time)"* — with MPEG-2 decode included twice to round the
//! list to eight.
//!
//! Work is expressed in *units* (macroblocks, MCUs, speech frames,
//! vertex batches). [`WorkloadSpec::scale`] scales every program's unit
//! count relative to the paper's full-size runs (Table 3's instruction
//! counts, in millions), so the instruction-count *ratios* between
//! benchmarks match the paper at any scale.

use crate::trace::gsm_gen::{GsmDecGen, GsmEncGen};
use crate::trace::jpeg_gen::{JpegDecGen, JpegEncGen};
use crate::trace::mesa_gen::MesaGen;
use crate::trace::mpeg2_gen::{Mpeg2DecGen, Mpeg2EncGen};
use crate::trace::{BlockStream, ChunkSource, InstSource, InstStream, SimdIsa};
use serde::{Deserialize, Serialize};

/// One of the seven Mediabench programs in the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Benchmark {
    /// MPEG-2 video encoder (MPEG-4 video profile).
    Mpeg2Enc,
    /// MPEG-2 video decoder (MPEG-4 video profile).
    Mpeg2Dec,
    /// JPEG encoder (MPEG-4 still-image profile, 2D).
    JpegEnc,
    /// JPEG decoder (MPEG-4 still-image profile, 2D).
    JpegDec,
    /// GSM 06.10 speech encoder (MPEG-4 audio profile).
    GsmEnc,
    /// GSM 06.10 speech decoder (MPEG-4 audio profile).
    GsmDec,
    /// OpenGL software rendering (MPEG-4 still-image profile, 3D).
    Mesa,
}

impl Benchmark {
    /// All seven programs.
    pub const ALL: [Benchmark; 7] = [
        Benchmark::Mpeg2Enc,
        Benchmark::Mpeg2Dec,
        Benchmark::JpegEnc,
        Benchmark::JpegDec,
        Benchmark::GsmEnc,
        Benchmark::GsmDec,
        Benchmark::Mesa,
    ];

    /// The paper's §5.1 run order (8 slots; MPEG-2 decode twice).
    pub const PAPER_ORDER: [Benchmark; 8] = [
        Benchmark::Mpeg2Enc,
        Benchmark::GsmDec,
        Benchmark::Mpeg2Dec,
        Benchmark::GsmEnc,
        Benchmark::JpegDec,
        Benchmark::JpegEnc,
        Benchmark::Mesa,
        Benchmark::Mpeg2Dec,
    ];

    /// Short name.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Benchmark::Mpeg2Enc => "mpeg2enc",
            Benchmark::Mpeg2Dec => "mpeg2dec",
            Benchmark::JpegEnc => "jpegenc",
            Benchmark::JpegDec => "jpegdec",
            Benchmark::GsmEnc => "gsmenc",
            Benchmark::GsmDec => "gsmdec",
            Benchmark::Mesa => "mesa",
        }
    }

    /// Table-2 description.
    #[must_use]
    pub const fn description(self) -> &'static str {
        match self {
            Benchmark::Mpeg2Enc => "MPEG-2 video encoder (motion estimation, DCT, VLC)",
            Benchmark::Mpeg2Dec => "MPEG-2 video decoder (VLC decode, IDCT, motion comp)",
            Benchmark::JpegEnc => "JPEG still-image encoder (color convert, DCT, Huffman)",
            Benchmark::JpegDec => "JPEG still-image decoder (Huffman, IDCT, color out)",
            Benchmark::GsmEnc => "GSM 06.10 full-rate speech encoder (LPC, LTP, RPE)",
            Benchmark::GsmDec => "GSM 06.10 full-rate speech decoder (synthesis filter)",
            Benchmark::Mesa => "OpenGL software renderer (transform, light, rasterize)",
        }
    }

    /// Table-2 data set description.
    #[must_use]
    pub const fn data_set(self) -> &'static str {
        match self {
            Benchmark::Mpeg2Enc | Benchmark::Mpeg2Dec => "synthetic SIF video, 352x240, 4:2:0",
            Benchmark::JpegEnc | Benchmark::JpegDec => "synthetic RGB image, 256x192",
            Benchmark::GsmEnc | Benchmark::GsmDec => "synthetic voiced speech, 8 kHz",
            Benchmark::Mesa => "rotating vertex batches into a 256x256 framebuffer",
        }
    }

    /// Table-2 characteristics note.
    #[must_use]
    pub const fn characteristics(self) -> &'static str {
        match self {
            Benchmark::Mpeg2Enc => "DLP-heavy: SAD search + DCT; VLC scalar tail",
            Benchmark::Mpeg2Dec => "mixed: scalar VLC decode, vector IDCT/MC",
            Benchmark::JpegEnc => "elementwise kernels + dominant Huffman scalar",
            Benchmark::JpegDec => "Huffman-decode bound, vector IDCT",
            Benchmark::GsmEnc => "scalar saturating arithmetic; vector autocorrelation",
            Benchmark::GsmDec => "recursive synthesis filter: not vectorizable",
            Benchmark::Mesa => "scalar FP pipeline: not vectorized (no FP u-SIMD)",
        }
    }

    /// Table 3 `#ins` row: dynamic instructions in millions at full
    /// scale, under each ISA (equivalent-instruction counting).
    #[must_use]
    pub const fn paper_minsts(self, isa: SimdIsa) -> f64 {
        match (self, isa) {
            (Benchmark::Mpeg2Enc, SimdIsa::Mmx) => 642.7,
            (Benchmark::Mpeg2Enc, SimdIsa::Mom) => 364.9,
            (Benchmark::Mpeg2Dec, SimdIsa::Mmx) => 69.8,
            (Benchmark::Mpeg2Dec, SimdIsa::Mom) => 59.8,
            (Benchmark::JpegEnc, SimdIsa::Mmx) => 160.3,
            (Benchmark::JpegEnc, SimdIsa::Mom) => 135.8,
            (Benchmark::JpegDec, SimdIsa::Mmx) => 109.4,
            (Benchmark::JpegDec, SimdIsa::Mom) => 106.4,
            (Benchmark::GsmEnc, SimdIsa::Mmx) => 177.9,
            (Benchmark::GsmEnc, SimdIsa::Mom) => 161.3,
            (Benchmark::GsmDec, SimdIsa::Mmx) => 105.2,
            (Benchmark::GsmDec, SimdIsa::Mom) => 105.0,
            (Benchmark::Mesa, _) => 93.8,
        }
    }

    /// Work units (macroblocks / MCUs / frames / batches) at full scale,
    /// calibrated so the generated MMX instruction counts reproduce the
    /// Table-3 `#ins` ratios (see EXPERIMENTS.md for the measured
    /// per-unit costs behind these values).
    #[must_use]
    pub const fn units_full(self) -> u64 {
        match self {
            Benchmark::Mpeg2Enc => 70_000,
            Benchmark::Mpeg2Dec => 8_700,
            Benchmark::JpegEnc => 13_800,
            Benchmark::JpegDec => 10_200,
            Benchmark::GsmEnc => 16_100,
            Benchmark::GsmDec => 17_250,
            Benchmark::Mesa => 14_600,
        }
    }

    /// Work units at the given scale (at least 1).
    #[must_use]
    pub fn units(self, scale: f64) -> u64 {
        ((self.units_full() as f64 * scale).round() as u64).max(1)
    }

    /// Build the block-oriented instruction source for this benchmark
    /// as program instance `instance` under `isa` — the interface the
    /// CPU model consumes.
    #[must_use]
    pub fn source(self, instance: usize, isa: SimdIsa, spec: &WorkloadSpec) -> Box<dyn InstSource> {
        let units = self.units(spec.scale);
        let seed = spec.seed ^ ((instance as u64) << 8) ^ self as u64;
        match self {
            Benchmark::Mpeg2Enc => Box::new(ChunkSource::new(Mpeg2EncGen::new(
                instance, isa, units, seed,
            ))),
            Benchmark::Mpeg2Dec => Box::new(ChunkSource::new(Mpeg2DecGen::new(
                instance, isa, units, seed,
            ))),
            Benchmark::JpegEnc => Box::new(ChunkSource::new(JpegEncGen::new(
                instance, isa, units, seed,
            ))),
            Benchmark::JpegDec => Box::new(ChunkSource::new(JpegDecGen::new(
                instance, isa, units, seed,
            ))),
            Benchmark::GsmEnc => {
                Box::new(ChunkSource::new(GsmEncGen::new(instance, isa, units, seed)))
            }
            Benchmark::GsmDec => {
                Box::new(ChunkSource::new(GsmDecGen::new(instance, isa, units, seed)))
            }
            Benchmark::Mesa => Box::new(ChunkSource::new(MesaGen::new(instance, isa, units, seed))),
        }
    }

    /// Build the instruction stream for this benchmark as program
    /// instance `instance` under `isa` (a per-instruction view over
    /// [`Benchmark::source`]).
    #[must_use]
    pub fn stream(self, instance: usize, isa: SimdIsa, spec: &WorkloadSpec) -> Box<dyn InstStream> {
        Box::new(BlockStream::new(self.source(instance, isa, spec)))
    }
}

impl core::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Scaling and seeding of a workload run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Fraction of the paper's full-size instruction counts (1.0 ≈ 1.4G
    /// instructions across the suite; the default regenerates every
    /// figure in minutes).
    pub scale: f64,
    /// Base random seed (content + data-dependent branches).
    pub seed: u64,
}

impl WorkloadSpec {
    /// Spec with the given scale and the default seed.
    #[must_use]
    pub fn new(scale: f64) -> Self {
        WorkloadSpec {
            scale,
            seed: 0x5eed_2001,
        }
    }
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec::new(0.002)
    }
}

/// The §5.1 multiprogrammed workload: an unbounded sequence of program
/// slots cycling through [`Benchmark::PAPER_ORDER`].
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    spec: WorkloadSpec,
}

impl Workload {
    /// Build the workload.
    #[must_use]
    pub fn new(spec: WorkloadSpec) -> Self {
        Workload { spec }
    }

    /// The spec in use.
    #[must_use]
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// The benchmark run in slot `slot` (cycling past 8, per §5.1: "in
    /// case that no further programs are available, we initiate again
    /// selecting programs from the same list from the beginning").
    #[must_use]
    pub fn slot_benchmark(slot: usize) -> Benchmark {
        Benchmark::PAPER_ORDER[slot % Benchmark::PAPER_ORDER.len()]
    }

    /// Block-oriented instruction source for slot `slot` under `isa`.
    #[must_use]
    pub fn source_for_slot(&self, slot: usize, isa: SimdIsa) -> Box<dyn InstSource> {
        Workload::slot_benchmark(slot).source(slot % 8, isa, &self.spec)
    }

    /// Instruction stream for slot `slot` under `isa`.
    #[must_use]
    pub fn stream_for_slot(&self, slot: usize, isa: SimdIsa) -> Box<dyn InstStream> {
        Workload::slot_benchmark(slot).stream(slot % 8, isa, &self.spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_order_matches_section_5_1() {
        use Benchmark::*;
        assert_eq!(
            Benchmark::PAPER_ORDER,
            [Mpeg2Enc, GsmDec, Mpeg2Dec, GsmEnc, JpegDec, JpegEnc, Mesa, Mpeg2Dec]
        );
    }

    #[test]
    fn paper_instruction_totals_match_table3() {
        let mmx: f64 = Benchmark::PAPER_ORDER
            .iter()
            .map(|b| b.paper_minsts(SimdIsa::Mmx))
            .sum();
        let mom: f64 = Benchmark::PAPER_ORDER
            .iter()
            .map(|b| b.paper_minsts(SimdIsa::Mom))
            .sum();
        assert!((mmx - 1429.0).abs() < 1.0, "Table 3 total: {mmx}");
        assert!((mom - 1087.0).abs() < 1.5, "Table 3 total: {mom}");
    }

    #[test]
    fn unvectorized_programs_have_equal_counts() {
        assert_eq!(
            Benchmark::Mesa.paper_minsts(SimdIsa::Mmx),
            Benchmark::Mesa.paper_minsts(SimdIsa::Mom)
        );
    }

    #[test]
    fn units_scale_and_floor_at_one() {
        assert_eq!(
            Benchmark::Mpeg2Enc.units(1.0),
            Benchmark::Mpeg2Enc.units_full()
        );
        assert!(Benchmark::GsmDec.units(1e-9) == 1);
        assert!(Benchmark::Mpeg2Enc.units(0.002) > 50);
    }

    #[test]
    fn slots_cycle() {
        assert_eq!(Workload::slot_benchmark(0), Benchmark::Mpeg2Enc);
        assert_eq!(Workload::slot_benchmark(7), Benchmark::Mpeg2Dec);
        assert_eq!(Workload::slot_benchmark(8), Benchmark::Mpeg2Enc);
        assert_eq!(Workload::slot_benchmark(15), Benchmark::Mpeg2Dec);
    }

    #[test]
    fn streams_are_constructible_for_all_benchmarks() {
        use crate::trace::InstStream as _;
        let spec = WorkloadSpec {
            scale: 1e-5,
            seed: 1,
        };
        for b in Benchmark::ALL {
            for isa in SimdIsa::ALL {
                let mut s = b.stream(0, isa, &spec);
                assert!(s.next_inst().is_some(), "{b}/{isa} emits something");
            }
        }
    }

    #[test]
    fn every_table2_field_is_nonempty() {
        for b in Benchmark::ALL {
            assert!(!b.name().is_empty());
            assert!(!b.description().is_empty());
            assert!(!b.data_set().is_empty());
            assert!(!b.characteristics().is_empty());
        }
    }
}
