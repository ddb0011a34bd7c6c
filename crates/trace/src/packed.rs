//! The packed trace encoding.
//!
//! Each instruction is stored as two pieces:
//!
//! * a `u32` **index** into the trace's table of distinct 64-bit
//!   architectural words from [`medsim_isa::encode`] (opcode,
//!   registers, 14-bit immediate, stream length). The table keeps each
//!   word once, in first-appearance order, beside its decoded [`Inst`]
//!   template. Media traces are loop nests — a program has a few hundred
//!   to a few thousand distinct words against tens of thousands to
//!   millions of dynamic instructions — so the index plane costs 4 B per
//!   instruction, and decoding one is a template copy;
//! * a variable-length **sidecar record** carrying the dynamic trace
//!   fields a timing simulator needs: the PC (delta-encoded, free for
//!   sequential code), the effective address (delta against a
//!   stride-advanced predictor, so unit-stride streams cost one byte),
//!   the branch outcome (one flag bit plus a target delta) and the
//!   memory-access shape (size/stride/count, with the common cases
//!   elided entirely).
//!
//! The index plane and table are the in-memory form only: the
//! serialized form ([`PackedTrace::words`], the on-disk store and
//! [`PackedTrace::content_checksum`]) is the full word plane, one
//! `u64` per instruction, then the sidecar.
//!
//! The flags byte that leads every sidecar record:
//!
//! ```text
//! bit 0  HAS_MEM        a MemRef record follows
//! bit 1  HAS_BRANCH     a BranchInfo record follows
//! bit 2  BRANCH_TAKEN   dynamic outcome of the branch
//! bit 3  MEM_IS_STORE   the access writes memory
//! bit 4  RAW_IMM        immediate outside 14 bits; i32 follows
//! bit 5  PC_SEQ         pc == prev_pc + 4 (no PC bytes)
//! bit 6  MEM_SIZE8      mem.size == 8 (no size byte)
//! bit 7  MEM_CNT_SLEN   mem.count == slen (no count byte)
//! ```
//!
//! The encoding is **lossless**: `unpack(pack(t)) == t` for any `Inst`
//! sequence, including immediates beyond the architectural field (they
//! ride in the sidecar) — property-tested in this module and fuzzed in
//! `tests/roundtrip.rs`.

use medsim_isa::encode::{decode, encode_lossy_imm, DecodeInstError};
use medsim_isa::{BranchInfo, Inst, MemRef};

const HAS_MEM: u8 = 1 << 0;
const HAS_BRANCH: u8 = 1 << 1;
const BRANCH_TAKEN: u8 = 1 << 2;
const MEM_IS_STORE: u8 = 1 << 3;
const RAW_IMM: u8 = 1 << 4;
const PC_SEQ: u8 = 1 << 5;
const MEM_SIZE8: u8 = 1 << 6;
const MEM_CNT_SLEN: u8 = 1 << 7;

/// The decoder's initial PC predictor: chosen so an instruction at
/// PC 0 still counts as sequential.
const PC_INIT: u64 = 0u64.wrapping_sub(4);

/// Errors surfaced when reconstructing a [`PackedTrace`] from raw parts
/// (an on-disk payload) that do not describe a valid trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackError {
    /// An architectural word failed to decode.
    Word(DecodeInstError),
    /// The sidecar ended before every instruction was decoded.
    Truncated,
    /// The sidecar holds bytes beyond the last instruction.
    TrailingBytes,
}

impl core::fmt::Display for PackError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PackError::Word(e) => write!(f, "bad architectural word: {e}"),
            PackError::Truncated => write!(f, "sidecar truncated"),
            PackError::TrailingBytes => write!(f, "sidecar has trailing bytes"),
        }
    }
}

impl std::error::Error for PackError {}

/// A losslessly packed instruction trace (see the module docs for the
/// layout). Cheap to clone behind an `Arc`; decoded by
/// [`PackedTrace::iter`] or streamed by [`crate::PackedStream`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedTrace {
    /// Index plane: each instruction's entry in `table`.
    index: Vec<u32>,
    /// The distinct architectural words, in first-appearance order.
    table: Vec<u64>,
    /// The decoded template of each `table` word (dynamic fields
    /// zeroed), indexed like `table`.
    templates: Vec<Inst>,
    sidecar: Vec<u8>,
    /// Total equivalent instructions (Σ [`Inst::equivalent_count`]) —
    /// a pure function of the words (op + stream length), carried here
    /// so Table-3 / EIPC consumers never pay a sidecar decode pass just
    /// to count.
    equiv_total: u64,
    /// The first instruction whose word does not decode, and why.
    /// Decoding ends there. Only payloads assembled by
    /// [`PackedTrace::from_parts_trusted`] can hold such a word.
    bad: Option<(usize, DecodeInstError)>,
}

impl PackedTrace {
    /// Pack an instruction sequence. Never fails: immediates that do
    /// not fit the architectural field are carried in the sidecar.
    pub fn pack(insts: impl IntoIterator<Item = Inst>) -> Self {
        let insts = insts.into_iter();
        let mut table = TableBuilder::with_capacity(insts.size_hint().0);
        let mut sidecar = Vec::new();
        let mut prev_pc = PC_INIT;
        let mut prev_addr = 0u64;
        for inst in insts {
            let (word, raw_imm) = encode_lossy_imm(&inst);
            table.push(word);

            let mut flags = 0u8;
            let pc_seq = inst.pc == prev_pc.wrapping_add(4);
            if pc_seq {
                flags |= PC_SEQ;
            }
            if raw_imm {
                flags |= RAW_IMM;
            }
            if let Some(b) = inst.branch {
                flags |= HAS_BRANCH;
                if b.taken {
                    flags |= BRANCH_TAKEN;
                }
            }
            if let Some(m) = inst.mem {
                flags |= HAS_MEM;
                if m.is_store {
                    flags |= MEM_IS_STORE;
                }
                if m.size == 8 {
                    flags |= MEM_SIZE8;
                }
                if m.count == inst.slen {
                    flags |= MEM_CNT_SLEN;
                }
            }
            sidecar.push(flags);

            if !pc_seq {
                put_zigzag(
                    &mut sidecar,
                    inst.pc.wrapping_sub(prev_pc.wrapping_add(4)) as i64,
                );
            }
            if raw_imm {
                sidecar.extend_from_slice(&inst.imm.to_le_bytes());
            }
            if let Some(b) = inst.branch {
                put_zigzag(&mut sidecar, b.target.wrapping_sub(inst.pc) as i64);
            }
            if let Some(m) = inst.mem {
                put_zigzag(&mut sidecar, m.addr.wrapping_sub(prev_addr) as i64);
                if m.size != 8 {
                    sidecar.push(m.size);
                }
                put_zigzag(&mut sidecar, m.stride);
                if m.count != inst.slen {
                    sidecar.push(m.count);
                }
                prev_addr = predict_next(&m);
            }
            prev_pc = inst.pc;
        }
        table.finish(sidecar)
    }

    /// Reassemble a trace from its serialized parts (the word plane,
    /// one word per instruction, and the sidecar), fully validating
    /// that the payload decodes.
    ///
    /// # Errors
    ///
    /// Returns a [`PackError`] if a word holds an unassigned opcode or a
    /// malformed register, or if the sidecar length does not match.
    pub fn from_parts(
        words: impl IntoIterator<Item = u64>,
        sidecar: Vec<u8>,
    ) -> Result<Self, PackError> {
        let trace = PackedTrace::from_parts_trusted(words, sidecar);
        let mut cursor = Cursor::new();
        for _ in 0..trace.len() {
            cursor.next(&trace)?.ok_or(PackError::Truncated)?;
        }
        if cursor.side != trace.sidecar.len() {
            return Err(PackError::TrailingBytes);
        }
        Ok(trace)
    }

    /// Assemble parts **without** the validating decode pass — for
    /// callers that have already integrity-checked the payload (the
    /// store's header checksum). Only the distinct words are decoded,
    /// to build the table. A structurally bad payload then surfaces
    /// lazily as an early stream end rather than an error, so this
    /// stays crate-internal.
    pub(crate) fn from_parts_trusted(
        words: impl IntoIterator<Item = u64>,
        sidecar: Vec<u8>,
    ) -> Self {
        let words = words.into_iter();
        let mut table = TableBuilder::with_capacity(words.size_hint().0);
        for word in words {
            table.push(word);
        }
        table.finish(sidecar)
    }

    /// Total equivalent instructions in the trace (scalar/MMX count 1,
    /// MOM instructions their stream length — the paper's §4.2 counting
    /// rule). Precomputed; O(1).
    #[must_use]
    pub fn equiv_total(&self) -> u64 {
        self.equiv_total
    }

    /// Number of instructions in the trace.
    #[must_use]
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the trace holds no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Resident size in bytes: the index plane, the table's words and
    /// templates, and the sidecar.
    #[must_use]
    pub fn packed_bytes(&self) -> usize {
        std::mem::size_of_val(self.index.as_slice())
            + std::mem::size_of_val(self.table.as_slice())
            + std::mem::size_of_val(self.templates.as_slice())
            + self.sidecar.len()
    }

    /// Amortized resident bytes per instruction (`0.0` for an empty
    /// trace).
    #[must_use]
    pub fn bytes_per_inst(&self) -> f64 {
        if self.index.is_empty() {
            0.0
        } else {
            self.packed_bytes() as f64 / self.index.len() as f64
        }
    }

    /// The architectural word of every instruction, in order — the
    /// serialized word plane.
    pub fn words(&self) -> impl ExactSizeIterator<Item = u64> + '_ {
        self.index.iter().map(|&ix| self.table[ix as usize])
    }

    /// The dynamic sidecar plane (serialization).
    #[must_use]
    pub fn sidecar(&self) -> &[u8] {
        &self.sidecar
    }

    /// Stable FNV-1a checksum of the serialized content (the word
    /// plane, then the sidecar) — the same digest the on-disk store
    /// records in its file header, computable without serializing.
    /// Content-addressed consumers (the result cache) fold it into
    /// their keys, so any behavioral change to trace generation
    /// invalidates downstream entries automatically.
    #[must_use]
    pub fn content_checksum(&self) -> u64 {
        crate::store::payload_fnv(self.words(), &self.sidecar)
    }

    /// Borrowed decoding iterator over the instructions.
    #[must_use]
    pub fn iter(&self) -> PackedIter<'_> {
        PackedIter {
            trace: self,
            cursor: Cursor::new(),
        }
    }

    /// Fully materialize the trace (tests, small traces). Prefer
    /// [`crate::PackedStream`] for simulation.
    #[must_use]
    pub fn unpack(&self) -> Vec<Inst> {
        self.iter().collect()
    }

    /// The error of the undecodable word at instruction `idx`, if that
    /// is where decoding ends.
    fn bad_word_at(&self, idx: usize) -> Result<(), PackError> {
        match self.bad {
            Some((at, e)) if at == idx => Err(PackError::Word(e)),
            _ => Ok(()),
        }
    }
}

impl<'a> IntoIterator for &'a PackedTrace {
    type Item = Inst;
    type IntoIter = PackedIter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Borrowed decoding iterator (see [`PackedTrace::iter`]).
pub struct PackedIter<'a> {
    trace: &'a PackedTrace,
    cursor: Cursor,
}

impl Iterator for PackedIter<'_> {
    type Item = Inst;
    fn next(&mut self) -> Option<Inst> {
        // Packs built by `pack` or validated by `from_parts` cannot
        // fail to decode; treat failure as end (debug-asserted).
        match self.cursor.next(self.trace) {
            Ok(next) => next,
            Err(e) => {
                debug_assert!(false, "corrupt packed trace: {e}");
                None
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.trace.len() - self.cursor.idx;
        (left, Some(left))
    }
}

/// Marks an empty [`TableBuilder`] slot. Never a table index: a table
/// holds fewer than `u32::MAX` words.
const EMPTY: u32 = u32::MAX;

/// One open-addressing slot: a table word and its index.
#[derive(Debug, Clone, Copy)]
struct Slot {
    word: u64,
    ix: u32,
}

/// Builds a trace's index plane and table. Word lookup is an
/// open-addressing map with linear probing, whose slots carry the word
/// itself, kept at most half full; it lives only while the trace is
/// built.
struct TableBuilder {
    slots: Vec<Slot>,
    /// `64 - log2(slots.len())`: the multiplicative hash keeps the top
    /// bits.
    shift: u32,
    index: Vec<u32>,
    table: Vec<u64>,
    templates: Vec<Inst>,
    /// Equivalent instructions of each table entry; an undecodable
    /// word counts as one, like the stream slot it would have taken.
    equiv: Vec<u64>,
    equiv_total: u64,
    bad: Option<(usize, DecodeInstError)>,
}

impl TableBuilder {
    /// Initial slots (512 words at half load); a program's few hundred
    /// to few thousand distinct words take at most a few doublings.
    const INITIAL_SLOTS: usize = 1024;

    fn with_capacity(insts: usize) -> Self {
        TableBuilder {
            slots: vec![Slot { word: 0, ix: EMPTY }; Self::INITIAL_SLOTS],
            shift: 64 - Self::INITIAL_SLOTS.trailing_zeros(),
            index: Vec::with_capacity(insts),
            table: Vec::new(),
            templates: Vec::new(),
            equiv: Vec::new(),
            equiv_total: 0,
            bad: None,
        }
    }

    #[inline]
    fn slot_of(&self, word: u64) -> usize {
        (word.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// Append the next instruction's word to the index plane, adding
    /// it to the table on its first appearance.
    #[inline]
    fn push(&mut self, word: u64) {
        let mask = self.slots.len() - 1;
        let mut s = self.slot_of(word);
        let ix = loop {
            let slot = self.slots[s];
            if slot.ix == EMPTY {
                break self.insert(word, s);
            }
            if slot.word == word {
                break slot.ix;
            }
            s = (s + 1) & mask;
        };
        self.equiv_total += self.equiv[ix as usize];
        self.index.push(ix);
    }

    /// Add `word` (absent, whose probe ended at empty slot `s`) to the
    /// table. The first undecodable word marks where decoding ends: no
    /// instruction before it carries a bad word, since this is the
    /// first appearance of each.
    #[cold]
    fn insert(&mut self, word: u64, s: usize) -> u32 {
        assert!(
            self.table.len() < EMPTY as usize,
            "a trace holds fewer than 2^32 - 1 distinct words"
        );
        let ix = self.table.len() as u32;
        let (template, equiv) = match decode(word) {
            Ok(t) => (t, t.equivalent_count()),
            Err(e) => {
                self.bad.get_or_insert((self.index.len(), e));
                // Never copied out: decoding stops at the bad word.
                (decode(0).expect("the all-zero word decodes"), 1)
            }
        };
        self.table.push(word);
        self.templates.push(template);
        self.equiv.push(equiv);
        self.slots[s] = Slot { word, ix };
        if self.table.len() * 2 > self.slots.len() {
            self.grow();
        }
        ix
    }

    /// Double the slots and re-insert every table word.
    fn grow(&mut self) {
        let n = self.slots.len() * 2;
        self.slots = vec![Slot { word: 0, ix: EMPTY }; n];
        self.shift -= 1;
        let mask = n - 1;
        for (ix, &word) in self.table.iter().enumerate() {
            let mut s = self.slot_of(word);
            while self.slots[s].ix != EMPTY {
                s = (s + 1) & mask;
            }
            self.slots[s] = Slot {
                word,
                ix: ix as u32,
            };
        }
    }

    fn finish(mut self, mut sidecar: Vec<u8>) -> PackedTrace {
        self.index.shrink_to_fit();
        self.table.shrink_to_fit();
        self.templates.shrink_to_fit();
        sidecar.shrink_to_fit();
        PackedTrace {
            index: self.index,
            table: self.table,
            templates: self.templates,
            sidecar,
            equiv_total: self.equiv_total,
            bad: self.bad,
        }
    }
}

/// Decode state: the position in both planes plus the two predictors.
/// Shared by the borrowed iterator and the owning [`crate::PackedStream`].
#[derive(Debug, Clone)]
pub(crate) struct Cursor {
    pub(crate) idx: usize,
    side: usize,
    prev_pc: u64,
    prev_addr: u64,
}

impl Cursor {
    pub(crate) fn new() -> Self {
        Cursor {
            idx: 0,
            side: 0,
            prev_pc: PC_INIT,
            prev_addr: 0,
        }
    }

    /// Decode the next instruction of `trace`, or `Ok(None)` at the
    /// end. Built on the same [`read_pc`]/[`apply_sidecar`] record
    /// decoders as [`Cursor::decode_block`], so the two paths cannot
    /// drift.
    pub(crate) fn next(&mut self, trace: &PackedTrace) -> Result<Option<Inst>, PackError> {
        let Some(&ix) = trace.index.get(self.idx) else {
            return Ok(None);
        };
        trace.bad_word_at(self.idx)?;
        let side = trace.sidecar.as_slice();
        let mut si = self.side;
        let mut prev_addr = self.prev_addr;
        let flags = *side.get(si).ok_or(PackError::Truncated)?;
        si += 1;
        let pc = read_pc(flags, self.prev_pc, side, &mut si)?;
        let mut inst = trace.templates[ix as usize];
        inst.pc = pc;
        apply_sidecar(&mut inst, flags, pc, side, &mut si, &mut prev_addr)?;
        self.side = si;
        self.prev_addr = prev_addr;
        self.prev_pc = pc;
        self.idx += 1;
        Ok(Some(inst))
    }

    /// Decode up to `max` instructions into `out` (appended). Returns
    /// the number of instructions appended (0 at end of trace).
    /// Produces exactly the sequence repeated [`Cursor::next`] calls
    /// would — the block shape is invisible, and an undecodable word
    /// ends a block early, then fails the next call.
    ///
    /// This is the hot replay loop: cursor state lives in locals
    /// (committed back only on success), each instruction is its table
    /// template copied once straight into `out` and patched in place,
    /// and the dominant path (sequential PC, no sidecar records beyond
    /// the flags byte) is a flag compare plus that copy.
    pub(crate) fn decode_block(
        &mut self,
        trace: &PackedTrace,
        out: &mut Vec<Inst>,
        max: usize,
    ) -> Result<usize, PackError> {
        let templates = trace.templates.as_slice();
        let side = trace.sidecar.as_slice();
        let stop = trace.bad.map_or(trace.len(), |(at, _)| at);
        if self.idx == stop {
            trace.bad_word_at(stop)?;
        }
        let n = max.min(stop - self.idx);
        out.reserve(n);
        let mut si = self.side;
        let mut prev_pc = self.prev_pc;
        let mut prev_addr = self.prev_addr;
        for &ix in &trace.index[self.idx..self.idx + n] {
            let flags = *side.get(si).ok_or(PackError::Truncated)?;
            si += 1;
            let pc = read_pc(flags, prev_pc, side, &mut si)?;
            out.push(templates[ix as usize]);
            let inst = out.last_mut().expect("just pushed");
            inst.pc = pc;
            // Anything beyond a plain sequential instruction peels off
            // to the shared record decoder (the combined check keeps
            // the dominant no-record path a single compare).
            if flags & (RAW_IMM | HAS_BRANCH | HAS_MEM) != 0 {
                apply_sidecar(inst, flags, pc, side, &mut si, &mut prev_addr)?;
            }
            prev_pc = pc;
        }
        // Commit the cursor only on success; an error leaves the trace
        // poisoned for this stream, which callers treat as end-of-trace
        // (packs built by `pack`/`from_parts` cannot get here).
        self.idx += n;
        self.side = si;
        self.prev_pc = prev_pc;
        self.prev_addr = prev_addr;
        Ok(n)
    }
}

/// The PC of the instruction whose flags byte was just consumed:
/// sequential for free, otherwise a zigzag delta record.
#[inline]
fn read_pc(flags: u8, prev_pc: u64, side: &[u8], si: &mut usize) -> Result<u64, PackError> {
    if flags & PC_SEQ != 0 {
        Ok(prev_pc.wrapping_add(4))
    } else {
        let delta = take_zigzag_at(side, si)?;
        Ok(prev_pc.wrapping_add(4).wrapping_add(delta as u64))
    }
}

/// Decode the RAW_IMM / HAS_BRANCH / HAS_MEM sidecar records onto a
/// freshly copied table template — the single implementation both
/// [`Cursor::next`] and [`Cursor::decode_block`] drive, so the per-inst
/// and block paths decode bit-identically by construction.
#[inline]
fn apply_sidecar(
    inst: &mut Inst,
    flags: u8,
    pc: u64,
    side: &[u8],
    si: &mut usize,
    prev_addr: &mut u64,
) -> Result<(), PackError> {
    if flags & RAW_IMM != 0 {
        let stop = si.checked_add(4).ok_or(PackError::Truncated)?;
        let bytes = side.get(*si..stop).ok_or(PackError::Truncated)?;
        inst.imm = i32::from_le_bytes(bytes.try_into().expect("4-byte slice"));
        *si = stop;
    }
    if flags & HAS_BRANCH != 0 {
        let delta = take_zigzag_at(side, si)?;
        inst.branch = Some(BranchInfo {
            taken: flags & BRANCH_TAKEN != 0,
            target: pc.wrapping_add(delta as u64),
        });
    }
    if flags & HAS_MEM != 0 {
        let delta = take_zigzag_at(side, si)?;
        let addr = prev_addr.wrapping_add(delta as u64);
        let size = if flags & MEM_SIZE8 != 0 {
            8
        } else {
            take_byte_at(side, si)?
        };
        let stride = take_zigzag_at(side, si)?;
        let count = if flags & MEM_CNT_SLEN != 0 {
            inst.slen
        } else {
            take_byte_at(side, si)?
        };
        let m = MemRef {
            addr,
            size,
            stride,
            count,
            is_store: flags & MEM_IS_STORE != 0,
        };
        *prev_addr = predict_next(&m);
        inst.mem = Some(m);
    }
    Ok(())
}

/// One sidecar byte against a caller-local position (the block decoder
/// keeps its state in registers).
#[inline]
fn take_byte_at(side: &[u8], si: &mut usize) -> Result<u8, PackError> {
    let b = *side.get(*si).ok_or(PackError::Truncated)?;
    *si += 1;
    Ok(b)
}

/// One zigzag LEB128 varint against a caller-local position, with a
/// fast path for single-byte varints — PC deltas, predicted addresses
/// and small strides, i.e. nearly every record of a media trace.
#[inline]
fn take_zigzag_at(side: &[u8], si: &mut usize) -> Result<i64, PackError> {
    let b = *side.get(*si).ok_or(PackError::Truncated)?;
    *si += 1;
    let mut v = u64::from(b & 0x7f);
    if b & 0x80 != 0 {
        let mut shift = 7u32;
        loop {
            let b = *side.get(*si).ok_or(PackError::Truncated)?;
            *si += 1;
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                break;
            }
            shift += 7;
            if shift >= 64 {
                return Err(PackError::Truncated);
            }
        }
    }
    Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
}

/// The address predictor after an access: one stride past its last
/// element, where back-to-back unit-stride streams land for free.
fn predict_next(m: &MemRef) -> u64 {
    (m.addr as i64).wrapping_add(m.stride.wrapping_mul(i64::from(m.count))) as u64
}

/// Append `v` to `out` as a zigzag LEB128 varint.
fn put_zigzag(out: &mut Vec<u8>, v: i64) {
    let mut z = ((v << 1) ^ (v >> 63)) as u64;
    loop {
        if z < 0x80 {
            out.push(z as u8);
            return;
        }
        out.push((z & 0x7f) as u8 | 0x80);
        z >>= 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medsim_isa::prelude::*;

    fn sample() -> Vec<Inst> {
        vec![
            Inst::int_rri(IntOp::Addi, int(1), int(0), 64).at(0x1000),
            Inst::load(MemOp::LoadW, int(2), int(1), 0x8000).at(0x1004),
            Inst::mmx_load(simd(0), int(1), 0x8040).at(0x1008),
            Inst::mom_load(stream(0), int(1), 0x9000, 8, 16).at(0x100c),
            Inst::mom(MomOp::VaddW, stream(1), stream(0), stream(0), 16).at(0x1010),
            Inst::mom_store(stream(1), int(2), 0x9080, 8, 16).at(0x1014),
            Inst::branch(CtlOp::Bne, int(1), true, 0x1000).at(0x1018),
            Inst::store(MemOp::StoreB, int(2), int(3), 0xa001).at(0x101c),
            Inst::jump(0x2000).at(0x1020),
        ]
    }

    #[test]
    fn round_trips_sample_trace() {
        let insts = sample();
        let packed = PackedTrace::pack(insts.iter().copied());
        assert_eq!(packed.len(), insts.len());
        assert_eq!(packed.unpack(), insts);
    }

    #[test]
    fn sequential_stream_code_is_compact() {
        // A unit-stride MOM loop body: the dominant pattern of the
        // suite must stay far below the 10 B/inst budget: a 4-byte
        // index, a three-word table and a few sidecar bytes.
        let mut insts = Vec::new();
        let mut pc = 0x4000u64;
        let mut addr = 0x1_0000u64;
        for _ in 0..1000 {
            insts.push(Inst::mom_load(stream(0), int(1), addr, 8, 16).at(pc));
            insts.push(Inst::mom(MomOp::VaddW, stream(1), stream(0), stream(0), 16).at(pc + 4));
            insts.push(Inst::mom_store(stream(1), int(2), addr, 8, 16).at(pc + 8));
            pc += 12;
            addr += 128;
        }
        let packed = PackedTrace::pack(insts.iter().copied());
        assert_eq!(packed.unpack(), insts);
        assert!(
            packed.bytes_per_inst() < 7.0,
            "loop code at {:.2} B/inst",
            packed.bytes_per_inst()
        );
    }

    #[test]
    fn oversized_immediates_survive() {
        let insts = vec![
            Inst::int_rri(IntOp::Addi, int(1), int(0), i32::MAX).at(0),
            Inst::int_rri(IntOp::Addi, int(2), int(0), i32::MIN).at(4),
            Inst::int_rri(IntOp::Addi, int(3), int(0), -8192).at(8),
        ];
        let packed = PackedTrace::pack(insts.iter().copied());
        assert_eq!(packed.unpack(), insts);
    }

    #[test]
    fn mem_count_distinct_from_slen_survives() {
        // ClampStream-style splits can leave count != slen shapes.
        let mut i = Inst::mom_load(stream(0), int(1), 0x100, 64, 9).at(0);
        i.mem = Some(MemRef::stream(0x100, 4, 64, 3, false));
        let packed = PackedTrace::pack([i]);
        assert_eq!(packed.unpack(), vec![i]);
    }

    #[test]
    fn empty_trace() {
        let packed = PackedTrace::pack([]);
        assert!(packed.is_empty());
        assert_eq!(packed.bytes_per_inst(), 0.0);
        assert_eq!(packed.unpack(), Vec::<Inst>::new());
        assert_eq!(packed.equiv_total(), 0);
    }

    /// The precomputed equivalent total must match the decoded walk on
    /// every constructor path (pack and the store's trusted reassembly).
    #[test]
    fn equiv_total_matches_decoded_walk() {
        let insts = sample();
        let walked: u64 = insts.iter().map(Inst::equivalent_count).sum();
        let packed = PackedTrace::pack(insts.iter().copied());
        assert_eq!(packed.equiv_total(), walked);
        let reassembled = PackedTrace::from_parts(packed.words(), packed.sidecar().to_vec())
            .expect("valid parts");
        assert_eq!(reassembled.equiv_total(), walked);
        assert_eq!(reassembled, packed);
    }

    #[test]
    fn from_parts_validates() {
        let packed = PackedTrace::pack(sample());
        let ok = PackedTrace::from_parts(packed.words(), packed.sidecar().to_vec())
            .expect("valid parts");
        assert_eq!(ok, packed);

        // Truncated sidecar.
        let mut short = packed.sidecar().to_vec();
        short.truncate(short.len() - 1);
        assert!(matches!(
            PackedTrace::from_parts(packed.words(), short),
            Err(PackError::Truncated)
        ));

        // Trailing garbage.
        let mut long = packed.sidecar().to_vec();
        long.push(0);
        assert!(matches!(
            PackedTrace::from_parts(packed.words(), long),
            Err(PackError::TrailingBytes)
        ));

        // Unassigned opcode in the word plane.
        let mut words: Vec<u64> = packed.words().collect();
        words[0] = 0x3ff;
        assert!(matches!(
            PackedTrace::from_parts(words, packed.sidecar().to_vec()),
            Err(PackError::Word(_))
        ));
    }

    /// The sample plus a loopy tail of repeated words: every sidecar
    /// record kind, and a table much smaller than the trace.
    fn loopy() -> Vec<Inst> {
        let mut insts = sample();
        for i in 0..2000u64 {
            insts.push(Inst::int_rri(IntOp::Addi, int(1), int(1), 1).at(0x5000 + i * 4));
            if i % 3 == 0 {
                insts.push(Inst::mom_load(stream(0), int(1), 0x2_0000 + i * 128, 8, 16).at(0x6000));
            }
        }
        insts
    }

    /// Drain `trace` through the block decoder, `block_size` at a time,
    /// until it ends (`None`) or fails.
    fn decode_blocks(trace: &PackedTrace, block_size: usize) -> (Vec<Inst>, Option<PackError>) {
        let mut cursor = Cursor::new();
        let mut got = Vec::new();
        loop {
            match cursor.decode_block(trace, &mut got, block_size) {
                Ok(0) => return (got, None),
                Ok(_) => {}
                Err(e) => return (got, Some(e)),
            }
        }
    }

    #[test]
    fn decode_block_matches_per_inst_cursor() {
        let insts = loopy();
        let packed = PackedTrace::pack(insts.iter().copied());
        assert_eq!(packed.unpack(), insts, "per-inst cursor");
        for block_size in [1usize, 7, 256, 4096] {
            let (got, err) = decode_blocks(&packed, block_size);
            assert_eq!(err, None, "block_size={block_size}");
            assert_eq!(got, insts, "block_size={block_size}");
        }
    }

    #[test]
    fn undecodable_word_ends_both_paths_without_a_fabricated_instruction() {
        // An unassigned opcode can only reach the decoder via
        // `from_parts_trusted` (a checksum-valid but garbage payload).
        // Both paths must deliver the instructions before it, then
        // fail with the word's error — never a filler template.
        let good = PackedTrace::pack(sample());
        let mut words: Vec<u64> = good.words().collect();
        for at in [0usize, 3, words.len() - 1] {
            let saved = words[at];
            words[at] = u64::MAX;
            let garbage =
                PackedTrace::from_parts_trusted(words.iter().copied(), good.sidecar().to_vec());
            words[at] = saved;

            let mut per_inst = Cursor::new();
            let mut want = Vec::new();
            let want_err = loop {
                match per_inst.next(&garbage) {
                    Ok(Some(i)) => want.push(i),
                    Ok(None) => panic!("at {at}: the bad word must fail the per-inst path"),
                    Err(e) => break e,
                }
            };
            assert!(
                matches!(want_err, PackError::Word(_)),
                "at {at}: {want_err:?}"
            );
            assert_eq!(
                want,
                sample()[..at],
                "at {at}: instructions before the bad word"
            );
            for block_size in [1usize, 2, 16] {
                let (got, got_err) = decode_blocks(&garbage, block_size);
                assert_eq!(got_err, Some(want_err), "at {at}, block_size={block_size}");
                assert_eq!(
                    got, want,
                    "at {at}, block_size={block_size}: no fabricated instruction"
                );
            }
        }
    }

    #[test]
    fn table_keeps_each_distinct_word_once_in_first_appearance_order() {
        let insts = loopy();
        let packed = PackedTrace::pack(insts.iter().copied());
        let mut first_seen = Vec::new();
        for w in packed.words() {
            if !first_seen.contains(&w) {
                first_seen.push(w);
            }
        }
        assert_eq!(packed.table, first_seen);
        assert_eq!(packed.table.len(), first_seen.len());
        assert!(packed.table.len() < 16, "the loop repeats a few words");
        for (w, t) in packed.table.iter().zip(&packed.templates) {
            assert_eq!(decode(*w).as_ref(), Ok(t), "template of {w:#x}");
        }
        // Resident bytes: 4 B of index per instruction plus the table
        // and the sidecar.
        assert_eq!(
            packed.packed_bytes(),
            insts.len() * 4
                + packed.table.len() * (8 + std::mem::size_of::<Inst>())
                + packed.sidecar().len()
        );
    }

    #[test]
    fn table_growth_keeps_every_word() {
        // More distinct words than the builder's initial slots hold at
        // half load: the table must grow and still map every word.
        let insts: Vec<Inst> = (0..5000i32)
            .map(|i| Inst::int_rri(IntOp::Addi, int(1), int(2), i % 3000).at(4 * i as u64))
            .collect();
        let packed = PackedTrace::pack(insts.iter().copied());
        assert_eq!(packed.table.len(), 3000);
        assert_eq!(packed.unpack(), insts);
    }

    #[test]
    fn words_round_trip_through_from_parts() {
        for insts in [Vec::new(), sample(), loopy()] {
            let packed = PackedTrace::pack(insts.iter().copied());
            assert_eq!(packed.words().len(), insts.len());
            let back = PackedTrace::from_parts(packed.words(), packed.sidecar().to_vec())
                .expect("valid parts");
            assert_eq!(back, packed);
            assert_eq!(back.content_checksum(), packed.content_checksum());
        }
    }

    #[test]
    fn content_checksum_is_pinned() {
        // The checksum digests the serialized word plane and sidecar,
        // whatever the in-memory layout; result-cache keys fold it in,
        // so a change here orphans every stored result.
        assert_eq!(
            PackedTrace::pack(sample()).content_checksum(),
            0x6768_6522_688b_44a2
        );
        assert_eq!(
            PackedTrace::pack(loopy()).content_checksum(),
            0x13b9_e553_cc0b_707e
        );
    }

    #[test]
    fn zigzag_varint_round_trips() {
        let mut buf = Vec::new();
        let values = [
            0i64,
            1,
            -1,
            63,
            -64,
            64,
            0x3fff,
            -0x4000,
            i64::MAX,
            i64::MIN,
        ];
        for &v in &values {
            buf.clear();
            put_zigzag(&mut buf, v);
            let mut si = 0usize;
            assert_eq!(take_zigzag_at(&buf, &mut si).unwrap(), v, "{v}");
            assert_eq!(si, buf.len(), "{v}: every byte consumed");
        }
    }
}
