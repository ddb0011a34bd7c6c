//! Streaming decoder: packed traces as block [`InstSource`]s.
//!
//! [`PackedStream`] owns an `Arc<PackedTrace>` and decodes it block by
//! block, so the CPU model replays a packed trace with no per-run
//! materialization — the resident cost of a cached program is its
//! packed bytes, not 64 B per instruction.
//!
//! The primary interface is [`PackedStream::next_block_into`]: a whole
//! block of instructions decoded straight into a caller-owned, reused
//! buffer. Each instruction is a copy of its decoded template from the
//! trace's table plus the sidecar's dynamic-field patches. A stream
//! keeps no decode state beyond its cursor: every context replaying
//! the same trace shares its one table. The per-instruction
//! [`InstStream`] view remains for analysis consumers.

use crate::packed::{Cursor, PackedTrace};
use medsim_isa::Inst;
use medsim_workloads::trace::{InstSource, InstStream, BLOCK_INSTS};
use std::sync::Arc;

/// An [`InstSource`] (and [`InstStream`]) that decodes a shared
/// [`PackedTrace`] block by block.
pub struct PackedStream {
    trace: Arc<PackedTrace>,
    cursor: Cursor,
    /// Buffer backing the per-instruction [`InstStream`] view.
    buf: Vec<Inst>,
    /// Read position inside `buf`.
    pos: usize,
}

impl PackedStream {
    /// Stream over `trace` from the beginning.
    #[must_use]
    pub fn new(trace: Arc<PackedTrace>) -> Self {
        PackedStream {
            trace,
            cursor: Cursor::new(),
            buf: Vec::new(),
            pos: 0,
        }
    }

    /// The shared trace this stream decodes.
    #[must_use]
    pub fn trace(&self) -> &Arc<PackedTrace> {
        &self.trace
    }

    /// Decode the next block of instructions into `out` (cleared
    /// first), reusing its capacity. Returns `false` at the end of the
    /// trace. Mixing with [`InstStream::next_inst`] is allowed: any
    /// instructions already buffered for the per-inst view are
    /// delivered first, so the overall sequence is preserved.
    pub fn next_block_into(&mut self, out: &mut Vec<Inst>) -> bool {
        out.clear();
        if self.pos < self.buf.len() {
            out.extend_from_slice(&self.buf[self.pos..]);
            self.buf.clear();
            self.pos = 0;
            return true;
        }
        // Packs are validated at construction; decode cannot fail.
        match self.cursor.decode_block(&self.trace, out, BLOCK_INSTS) {
            Ok(n) => n > 0,
            Err(e) => {
                debug_assert!(false, "corrupt packed trace: {e}");
                false
            }
        }
    }

    fn refill(&mut self) {
        self.buf.clear();
        self.pos = 0;
        match self
            .cursor
            .decode_block(&self.trace, &mut self.buf, BLOCK_INSTS)
        {
            Ok(_) => {}
            Err(e) => debug_assert!(false, "corrupt packed trace: {e}"),
        }
    }
}

impl InstSource for PackedStream {
    fn next_block(&mut self, out: &mut Vec<Inst>) -> bool {
        self.next_block_into(out)
    }
}

impl InstStream for PackedStream {
    fn next_inst(&mut self) -> Option<Inst> {
        if self.pos == self.buf.len() {
            self.refill();
        }
        let inst = self.buf.get(self.pos).copied();
        self.pos += inst.is_some() as usize;
        inst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medsim_isa::prelude::*;

    fn trace_of(n: u64) -> (Vec<Inst>, Arc<PackedTrace>) {
        let mut insts = Vec::new();
        for i in 0..n {
            insts.push(Inst::int_rri(IntOp::Addi, int(1), int(1), 1).at(i * 4));
            if i % 7 == 0 {
                insts.push(Inst::load(MemOp::LoadW, int(2), int(1), 0x1000 + i * 8).at(i * 4 + 4));
            }
            if i % 11 == 0 {
                insts.push(Inst::branch(CtlOp::Bne, int(2), i % 22 == 0, i * 4).at(i * 4 + 8));
            }
            if i % 13 == 0 {
                // Oversized immediate: exercises the RAW_IMM sidecar.
                insts.push(Inst::int_rri(IntOp::Addi, int(3), int(0), 1 << 20).at(i * 4 + 12));
            }
        }
        let packed = Arc::new(PackedTrace::pack(insts.iter().copied()));
        (insts, packed)
    }

    #[test]
    fn streams_the_whole_trace_in_order() {
        // Lengths straddling the block size, including 0 and exact
        // multiples.
        for n in [0u64, 1, 100, 1023, 1024, 1025, 5000] {
            let (insts, packed) = trace_of(n);
            let mut s = PackedStream::new(packed);
            let mut got = Vec::new();
            while let Some(i) = s.next_inst() {
                got.push(i);
            }
            assert_eq!(got, insts, "n={n}");
            assert!(s.next_inst().is_none(), "stream stays finished");
        }
    }

    #[test]
    fn block_decode_matches_per_inst_decode() {
        for n in [0u64, 1, 500, 1024, 4000] {
            let (insts, packed) = trace_of(n);
            let mut s = PackedStream::new(packed);
            let mut got = Vec::new();
            let mut block = Vec::new();
            while s.next_block_into(&mut block) {
                assert!(!block.is_empty(), "true delivery is non-empty");
                got.extend_from_slice(&block);
            }
            assert_eq!(got, insts, "n={n}");
            assert!(!s.next_block_into(&mut block), "source stays finished");
            assert!(block.is_empty());
        }
    }

    #[test]
    fn mixing_per_inst_and_block_reads_preserves_the_sequence() {
        let (insts, packed) = trace_of(3000);
        let mut s = PackedStream::new(packed);
        let mut got = Vec::new();
        let mut block = Vec::new();
        // A few per-inst pulls buffer a block internally...
        for _ in 0..10 {
            got.push(s.next_inst().expect("trace long enough"));
        }
        // ...then block reads must first drain that buffer.
        while s.next_block_into(&mut block) {
            got.extend_from_slice(&block);
        }
        assert_eq!(got, insts);
    }

    #[test]
    fn many_streams_share_one_trace() {
        let (insts, packed) = trace_of(300);
        let mut a = PackedStream::new(Arc::clone(&packed));
        let mut b = PackedStream::new(Arc::clone(&packed));
        // Interleave two readers: independent cursors, shared bytes.
        for inst in &insts {
            assert_eq!(a.next_inst().as_ref(), Some(inst));
        }
        for inst in &insts {
            assert_eq!(b.next_inst().as_ref(), Some(inst));
        }
        assert_eq!(Arc::strong_count(&packed), 3);
    }
}
