//! Instruction-trace generation.
//!
//! Each benchmark is a [`ChunkGen`]: a generator that emits the
//! instruction stream of one *work unit* at a time (a macroblock row, a
//! speech frame, a group of triangles), walking the real kernel loop
//! nests over the modeled address space.
//!
//! Consumers pull instructions through one of two interfaces:
//!
//! * [`InstSource`] — the **block** interface the CPU model consumes:
//!   whole buffers of decoded instructions at a time (about
//!   [`BLOCK_INSTS`] each), so the per-instruction hot path is an
//!   indexed read with no virtual dispatch. [`ChunkSource`] adapts a
//!   generator; [`VecSource`] replays a materialized trace by memcpy.
//! * [`InstStream`] — the original pull-per-instruction interface, kept
//!   for analysis consumers (mix counting, trace packing, tests).
//!   [`BlockStream`] views any source as a stream; [`StreamSource`]
//!   adapts the other way.
//!
//! Both interfaces deliver the exact same instruction sequence for the
//! same generator — block boundaries are invisible to consumers.
//!
//! Every generator comes in two vectorizations selected by [`SimdIsa`]:
//! MMX-style (packed ops with explicit unpack/pack and reduction trees,
//! plus the loop control to step through kernels 8 bytes at a time) and
//! MOM-style (stream instructions covering up to 16 element groups, with
//! packed-accumulator reductions and strided stream memory accesses).

pub mod emitter;
pub mod gsm_gen;
pub mod jpeg_gen;
pub mod mesa_gen;
pub mod mpeg2_gen;
pub mod scalar_phases;
pub mod simd_kernels;

use medsim_isa::Inst;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Which μ-SIMD extension a trace is vectorized with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SimdIsa {
    /// MMX-like packed μ-SIMD (67 opcodes, 32 registers).
    Mmx,
    /// MOM streaming μ-SIMD (121 opcodes, 16 stream registers).
    Mom,
}

impl SimdIsa {
    /// Both ISAs in the paper's presentation order.
    pub const ALL: [SimdIsa; 2] = [SimdIsa::Mmx, SimdIsa::Mom];

    /// Label used in experiment output.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            SimdIsa::Mmx => "MMX",
            SimdIsa::Mom => "MOM",
        }
    }
}

impl core::fmt::Display for SimdIsa {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// A source of decoded instructions (one software thread's trace).
///
/// `Send` is a supertrait so a core holding boxed streams stays
/// `Send`.
pub trait InstStream: Send {
    /// Produce the next instruction, or `None` when the program ends.
    fn next_inst(&mut self) -> Option<Inst>;
}

/// Target instruction count of one block delivered by an
/// [`InstSource`]: large enough to amortize a virtual call over ~1k
/// instructions, small enough (64 KiB of `Inst`) to
/// stay cache-resident while the consumer drains it.
pub const BLOCK_INSTS: usize = 1024;

/// A **block-oriented** source of decoded instructions — the interface
/// the CPU model's fetch stage consumes.
///
/// `Send` is a supertrait so a core holding boxed sources stays
/// `Send`.
pub trait InstSource: Send {
    /// Clear `out` and refill it with the next block of the program
    /// (about [`BLOCK_INSTS`] instructions; adapters that expand
    /// instructions may exceed it). Returns `true` iff at least one
    /// instruction was delivered; `false` means the program has ended
    /// and `out` is left empty.
    fn next_block(&mut self, out: &mut Vec<Inst>) -> bool;
}

/// A generator that emits instructions one work unit at a time.
pub trait ChunkGen {
    /// Emit the next work unit into `out`. Returns `false` when the
    /// program is finished (nothing was appended).
    fn next_chunk(&mut self, out: &mut Vec<Inst>) -> bool;
}

/// Adapts a [`ChunkGen`] into an [`InstSource`]: work units are packed
/// into ~[`BLOCK_INSTS`]-sized blocks with no intermediate buffering —
/// the generator appends straight into the consumer's block.
pub struct ChunkSource<G> {
    generator: G,
    finished: bool,
}

impl<G: ChunkGen + Send> ChunkSource<G> {
    /// Wrap a generator.
    pub fn new(generator: G) -> Self {
        ChunkSource {
            generator,
            finished: false,
        }
    }
}

impl<G: ChunkGen + Send> InstSource for ChunkSource<G> {
    fn next_block(&mut self, out: &mut Vec<Inst>) -> bool {
        out.clear();
        while !self.finished && out.len() < BLOCK_INSTS {
            if !self.generator.next_chunk(out) {
                self.finished = true;
            }
        }
        !out.is_empty()
    }
}

/// Views an [`InstSource`] as a pull-per-instruction [`InstStream`]
/// (analysis consumers: mix counting, trace packing, tests).
pub struct BlockStream<S> {
    source: S,
    block: Vec<Inst>,
    pos: usize,
    finished: bool,
}

impl<S: InstSource> BlockStream<S> {
    /// Wrap a source.
    pub fn new(source: S) -> Self {
        BlockStream {
            source,
            block: Vec::new(),
            pos: 0,
            finished: false,
        }
    }
}

impl<S: InstSource> InstStream for BlockStream<S> {
    fn next_inst(&mut self) -> Option<Inst> {
        loop {
            if let Some(&inst) = self.block.get(self.pos) {
                self.pos += 1;
                return Some(inst);
            }
            if self.finished {
                return None;
            }
            self.pos = 0;
            if !self.source.next_block(&mut self.block) {
                self.finished = true;
                self.block.clear();
            }
        }
    }
}

/// Adapts any [`InstStream`] into an [`InstSource`] by pulling up to
/// [`BLOCK_INSTS`] instructions per block (compatibility path for
/// per-instruction streams fed to the block-oriented pipeline).
pub struct StreamSource<S> {
    stream: S,
    finished: bool,
}

impl<S: InstStream> StreamSource<S> {
    /// Wrap a stream.
    pub fn new(stream: S) -> Self {
        StreamSource {
            stream,
            finished: false,
        }
    }
}

impl<S: InstStream> InstSource for StreamSource<S> {
    fn next_block(&mut self, out: &mut Vec<Inst>) -> bool {
        out.clear();
        while !self.finished && out.len() < BLOCK_INSTS {
            match self.stream.next_inst() {
                Some(inst) => out.push(inst),
                None => self.finished = true,
            }
        }
        !out.is_empty()
    }
}

/// An [`InstSource`] over a materialized instruction vector: blocks are
/// straight `memcpy` slices of the backing storage (the replay path for
/// freshly synthesized traces).
#[derive(Debug, Clone)]
pub struct VecSource {
    insts: Vec<Inst>,
    pos: usize,
}

impl VecSource {
    /// Source over `insts`.
    #[must_use]
    pub fn new(insts: Vec<Inst>) -> Self {
        VecSource { insts, pos: 0 }
    }
}

impl InstSource for VecSource {
    fn next_block(&mut self, out: &mut Vec<Inst>) -> bool {
        out.clear();
        let end = (self.pos + BLOCK_INSTS).min(self.insts.len());
        out.extend_from_slice(&self.insts[self.pos..end]);
        self.pos = end;
        !out.is_empty()
    }
}

/// Adapts a [`ChunkGen`] into an [`InstStream`] with bounded buffering
/// (a per-instruction view over [`ChunkSource`] blocks).
pub struct ChunkedStream<G> {
    inner: BlockStream<ChunkSource<G>>,
}

impl<G: ChunkGen + Send> ChunkedStream<G> {
    /// Wrap a generator.
    pub fn new(generator: G) -> Self {
        ChunkedStream {
            inner: BlockStream::new(ChunkSource::new(generator)),
        }
    }
}

impl<G: ChunkGen + Send> InstStream for ChunkedStream<G> {
    fn next_inst(&mut self) -> Option<Inst> {
        self.inner.next_inst()
    }
}

impl<S: InstStream + ?Sized> InstStream for Box<S> {
    fn next_inst(&mut self) -> Option<Inst> {
        (**self).next_inst()
    }
}

impl<S: InstStream + ?Sized + Send> InstStream for &mut S {
    fn next_inst(&mut self) -> Option<Inst> {
        (**self).next_inst()
    }
}

impl<S: InstSource + ?Sized> InstSource for Box<S> {
    fn next_block(&mut self, out: &mut Vec<Inst>) -> bool {
        (**self).next_block(out)
    }
}

/// An [`InstStream`] adapter that caps MOM stream lengths at `max_vl`,
/// strip-mining longer stream instructions into several shorter ones
/// plus the loop overhead a compiler would emit (ablation studies on
/// the benefit of long streams).
pub struct ClampStream<S> {
    inner: S,
    max_vl: u8,
    pending: VecDeque<Inst>,
}

impl<S: InstStream> ClampStream<S> {
    /// Wrap `inner`, capping stream lengths at `max_vl`.
    ///
    /// # Panics
    ///
    /// Panics if `max_vl` is zero.
    pub fn new(inner: S, max_vl: u8) -> Self {
        assert!(max_vl >= 1, "stream length cap must be at least 1");
        ClampStream {
            inner,
            max_vl,
            pending: VecDeque::new(),
        }
    }
}

/// Strip-mine one stream instruction into chunks of at most `max_vl`
/// element groups, with the index-update and loop-branch overhead a
/// compiler would emit between chunks. Instructions that need no
/// clamping are pushed through unchanged. Shared by [`ClampStream`] and
/// [`ClampSource`] so the two paths cannot diverge.
fn strip_mine_into(inst: Inst, max_vl: u8, push: &mut impl FnMut(Inst)) {
    use medsim_isa::prelude::*;
    if !inst.op.is_stream() || inst.slen <= max_vl {
        push(inst);
        return;
    }
    let mut remaining = inst.slen;
    let mut chunk_idx = 0u8;
    while remaining > 0 {
        let take = remaining.min(max_vl);
        let mut piece = inst.with_slen(take);
        if let Some(m) = inst.mem {
            let skip = u64::from(chunk_idx) * u64::from(max_vl);
            piece.mem = Some(medsim_isa::MemRef::stream(
                (m.addr as i64 + m.stride * skip as i64) as u64,
                m.size,
                m.stride,
                take,
                m.is_store,
            ));
        }
        push(piece);
        remaining -= take;
        chunk_idx += 1;
        if remaining > 0 {
            // Strip-mine loop overhead.
            push(Inst::int_rri(IntOp::Addi, int(21), int(21), 1).at(inst.pc + 4));
            push(Inst::branch(CtlOp::Bne, int(21), true, inst.pc).at(inst.pc + 8));
        }
    }
}

impl<S: InstStream> InstStream for ClampStream<S> {
    fn next_inst(&mut self) -> Option<Inst> {
        if let Some(i) = self.pending.pop_front() {
            return Some(i);
        }
        let inst = self.inner.next_inst()?;
        if !inst.op.is_stream() || inst.slen <= self.max_vl {
            return Some(inst);
        }
        let pending = &mut self.pending;
        strip_mine_into(inst, self.max_vl, &mut |i| pending.push_back(i));
        self.pending.pop_front()
    }
}

/// An [`InstSource`] adapter that caps MOM stream lengths at `max_vl`
/// block by block — the block-oriented twin of [`ClampStream`]
/// (ablation studies on the benefit of long streams).
pub struct ClampSource<S> {
    inner: S,
    max_vl: u8,
    inbuf: Vec<Inst>,
}

impl<S: InstSource> ClampSource<S> {
    /// Wrap `inner`, capping stream lengths at `max_vl`.
    ///
    /// # Panics
    ///
    /// Panics if `max_vl` is zero.
    pub fn new(inner: S, max_vl: u8) -> Self {
        assert!(max_vl >= 1, "stream length cap must be at least 1");
        ClampSource {
            inner,
            max_vl,
            inbuf: Vec::new(),
        }
    }
}

impl<S: InstSource> InstSource for ClampSource<S> {
    fn next_block(&mut self, out: &mut Vec<Inst>) -> bool {
        if !self.inner.next_block(&mut self.inbuf) {
            out.clear();
            return false;
        }
        out.clear();
        for &inst in &self.inbuf {
            strip_mine_into(inst, self.max_vl, &mut |i| out.push(i));
        }
        // Strip-mining only ever expands, so a non-empty input block
        // yields a non-empty output block.
        true
    }
}

/// An [`InstStream`] over a fixed instruction vector (tests, synthetic
/// microbenchmarks).
#[derive(Debug, Clone)]
pub struct VecStream {
    insts: std::vec::IntoIter<Inst>,
}

impl VecStream {
    /// Stream over `insts`.
    #[must_use]
    pub fn new(insts: Vec<Inst>) -> Self {
        VecStream {
            insts: insts.into_iter(),
        }
    }
}

impl InstStream for VecStream {
    fn next_inst(&mut self) -> Option<Inst> {
        self.insts.next()
    }
}

/// Adapts any [`InstStream`] into a standard [`Iterator`], so stream
/// consumers (trace packers, mix counters) can use iterator combinators
/// without materializing the trace. Works over owned streams, boxed
/// trait objects and `&mut` borrows alike.
pub struct StreamIter<S>(pub S);

impl<S: InstStream> Iterator for StreamIter<S> {
    type Item = Inst;
    fn next(&mut self) -> Option<Inst> {
        self.0.next_inst()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medsim_isa::prelude::*;

    struct CountGen {
        chunks_left: usize,
        per_chunk: usize,
    }

    impl ChunkGen for CountGen {
        fn next_chunk(&mut self, out: &mut Vec<Inst>) -> bool {
            if self.chunks_left == 0 {
                return false;
            }
            self.chunks_left -= 1;
            for _ in 0..self.per_chunk {
                out.push(Inst::int_rrr(IntOp::Add, int(1), int(2), int(3)));
            }
            true
        }
    }

    #[test]
    fn chunked_stream_delivers_all_instructions() {
        let mut s = ChunkedStream::new(CountGen {
            chunks_left: 5,
            per_chunk: 7,
        });
        let mut n = 0;
        while s.next_inst().is_some() {
            n += 1;
        }
        assert_eq!(n, 35);
        assert!(s.next_inst().is_none(), "stream stays finished");
    }

    #[test]
    fn empty_generator_yields_nothing() {
        let mut s = ChunkedStream::new(CountGen {
            chunks_left: 0,
            per_chunk: 9,
        });
        assert!(s.next_inst().is_none());
    }

    #[test]
    fn vec_stream_round_trip() {
        let insts = vec![
            Inst::int_rri(IntOp::Addi, int(1), int(0), 4),
            Inst::jump(0x40),
        ];
        let mut s = VecStream::new(insts.clone());
        assert_eq!(s.next_inst(), Some(insts[0]));
        assert_eq!(s.next_inst(), Some(insts[1]));
        assert_eq!(s.next_inst(), None);
    }

    #[test]
    fn stream_iter_adapts_streams_to_iterators() {
        let insts = vec![
            Inst::int_rri(IntOp::Addi, int(1), int(0), 4),
            Inst::int_rri(IntOp::Addi, int(2), int(1), 8),
            Inst::jump(0x40),
        ];
        let collected: Vec<Inst> = StreamIter(VecStream::new(insts.clone())).collect();
        assert_eq!(collected, insts);

        // Borrowed and boxed forms drive the same adapter.
        let mut s = VecStream::new(insts.clone());
        assert_eq!(StreamIter(&mut s).count(), 3);
        let boxed: Box<dyn InstStream> = Box::new(VecStream::new(insts));
        assert_eq!(StreamIter(boxed).count(), 3);
    }

    #[test]
    fn chunk_source_packs_units_into_blocks() {
        // 5 chunks x 7 insts: well under one block => a single block.
        let mut s = ChunkSource::new(CountGen {
            chunks_left: 5,
            per_chunk: 7,
        });
        let mut block = Vec::new();
        assert!(s.next_block(&mut block));
        assert_eq!(block.len(), 35);
        assert!(!s.next_block(&mut block), "source stays finished");
        assert!(block.is_empty());

        // Enough chunks to exceed BLOCK_INSTS: blocks stop at the first
        // chunk boundary at or past the target.
        let mut s = ChunkSource::new(CountGen {
            chunks_left: 100,
            per_chunk: 300,
        });
        let mut total = 0usize;
        let mut blocks = 0usize;
        while s.next_block(&mut block) {
            assert!(block.len() >= 300, "blocks aggregate whole chunks");
            total += block.len();
            blocks += 1;
        }
        assert_eq!(total, 100 * 300);
        assert!(blocks > 1, "long programs span several blocks");
    }

    #[test]
    fn block_and_stream_adapters_preserve_the_sequence() {
        // Property-style: random instruction sequences round-trip
        // through every adapter composition bit-exactly.
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0xb10c);
        for case in 0..32 {
            let n = rng.gen_range(0..3000usize);
            let insts: Vec<Inst> = (0..n)
                .map(|i| {
                    let imm: i32 = rng.gen_range(-9000..9000);
                    Inst::int_rri(IntOp::Addi, int((i % 30) as u8 + 1), int(0), imm)
                        .at(4 * i as u64)
                })
                .collect();
            // VecSource -> BlockStream == the original sequence.
            let via_source: Vec<Inst> =
                StreamIter(BlockStream::new(VecSource::new(insts.clone()))).collect();
            assert_eq!(via_source, insts, "case {case}: VecSource/BlockStream");
            // VecStream -> StreamSource -> BlockStream == identity too.
            let round: Vec<Inst> = StreamIter(BlockStream::new(StreamSource::new(VecStream::new(
                insts.clone(),
            ))))
            .collect();
            assert_eq!(round, insts, "case {case}: StreamSource round trip");
        }
    }

    #[test]
    fn clamp_source_matches_clamp_stream() {
        // The block-oriented clamp must emit exactly the per-inst
        // clamp's sequence for a stream-heavy mixed program.
        let mut insts = Vec::new();
        for i in 0..200u64 {
            insts.push(Inst::mom_load(stream(0), int(1), 0x1000 + i * 64, 8, 16).at(0x100 + 4 * i));
            insts.push(
                Inst::mom(
                    MomOp::VaddW,
                    stream(1),
                    stream(0),
                    stream(0),
                    (i % 16 + 1) as u8,
                )
                .at(0x104 + 4 * i),
            );
            insts.push(Inst::int_rrr(IntOp::Add, int(1), int(2), int(3)).at(0x108 + 4 * i));
        }
        for max_vl in [1u8, 3, 4, 8, 15] {
            let a: Vec<Inst> =
                StreamIter(ClampStream::new(VecStream::new(insts.clone()), max_vl)).collect();
            let b: Vec<Inst> = StreamIter(BlockStream::new(ClampSource::new(
                VecSource::new(insts.clone()),
                max_vl,
            )))
            .collect();
            assert_eq!(a, b, "max_vl={max_vl}");
        }
    }

    #[test]
    fn isa_labels() {
        assert_eq!(SimdIsa::Mmx.to_string(), "MMX");
        assert_eq!(SimdIsa::Mom.to_string(), "MOM");
    }

    #[test]
    fn clamp_stream_passes_short_instructions_through() {
        let insts = vec![
            Inst::int_rrr(IntOp::Add, int(1), int(2), int(3)),
            Inst::mom(MomOp::VaddW, stream(0), stream(1), stream(2), 4),
        ];
        let mut s = ClampStream::new(VecStream::new(insts.clone()), 8);
        assert_eq!(s.next_inst(), Some(insts[0]));
        assert_eq!(s.next_inst(), Some(insts[1]));
        assert_eq!(s.next_inst(), None);
    }

    #[test]
    fn clamp_stream_strip_mines_long_streams() {
        let inst = Inst::mom(MomOp::VaddW, stream(0), stream(1), stream(2), 16).at(0x100);
        let mut s = ClampStream::new(VecStream::new(vec![inst]), 4);
        let mut pieces = Vec::new();
        while let Some(i) = s.next_inst() {
            pieces.push(i);
        }
        // 4 chunks of 4 + 3 × (addi + branch) overhead = 10 instructions.
        assert_eq!(pieces.len(), 10);
        let total_vl: u64 = pieces
            .iter()
            .filter(|i| i.op.is_stream())
            .map(|i| u64::from(i.slen))
            .sum();
        assert_eq!(total_vl, 16, "work is preserved");
        assert!(pieces.iter().filter(|i| i.is_cond_branch()).count() == 3);
    }

    #[test]
    fn clamp_stream_splits_memory_addresses() {
        let inst = Inst::mom_load(stream(0), int(1), 0x1000, 64, 8).at(0x200);
        let mut s = ClampStream::new(VecStream::new(vec![inst]), 4);
        let mut loads = Vec::new();
        while let Some(i) = s.next_inst() {
            if let Some(m) = i.mem {
                loads.push(m);
            }
        }
        assert_eq!(loads.len(), 2);
        assert_eq!(loads[0].addr, 0x1000);
        assert_eq!(loads[0].count, 4);
        assert_eq!(
            loads[1].addr,
            0x1000 + 4 * 64,
            "second chunk starts after the first"
        );
        assert_eq!(loads[1].count, 4);
    }
}
