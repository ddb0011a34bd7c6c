//! The assembled SMT out-of-order pipeline.
//!
//! Cycle phases, in order: **complete** (count the executions that
//! finish now and resolve the branches due now), **commit** (per-thread
//! in-order graduation), **issue** (oldest-first from the four queues,
//! within per-queue widths and functional-unit occupancy; issue also
//! times every result, see [`Cpu::schedule`]), **dispatch**
//! (rename + queue insertion, up to the decode width), **fetch** (up to
//! two thread groups of four, chosen by the fetch policy, through the
//! I-cache).
//!
//! MOM stream instructions occupy the single media unit for
//! `⌈stream_length / lanes⌉` cycles (two parallel vector pipes); stream
//! memory instructions issue their element-group accesses over multiple
//! cycles through the memory ports — the latency-tolerance mechanism the
//! paper's §5.4 exploits with the decoupled cache hierarchy.

use crate::config::CpuConfig;
use crate::events::CountWheel;
use crate::fetch::{rotate_threads, select_threads, ThreadFetchInfo, MAX_THREADS};
use crate::predictor::Predictor;
use crate::rename::{PhysReg, RenameFile, READY};
use crate::stats::CpuStats;
use crate::Cycle;
use medsim_isa::{CtlOp, FpOp, Inst, IntOp, MemOp, MemRef, MmxOp, MomOp, Op, OpKind, QueueKind};
use medsim_mem::{AccessKind, MemReply, MemRequest, MemSystem, Stall, StreamReply, StreamRequest};
use medsim_workloads::trace::{InstSource, InstStream, SimdIsa, StreamSource, BLOCK_INSTS};
use std::collections::VecDeque;

/// Decode-buffer capacity per thread: fetch selects only a thread
/// whose buffer has room for a whole fetch group, so at most this many
/// undispatched instructions carry over a block refill.
const DECODE_BUF_CAP: usize = 16;
const ICACHE_LINE: u64 = 32;

/// The pipeline's window onto the memory hierarchy.
///
/// The CPU model is written against this trait rather than a concrete
/// [`MemSystem`], so a core can be timed over an exclusively owned
/// hierarchy (the single-core case), over per-core private levels
/// backed by a CMP's shared L2 ([`MemSystem::with_shared_backend`]),
/// or over a mock in tests. All three calls carry the current cycle
/// and must be made with non-decreasing `now` values.
pub trait MemPort {
    /// Instruction fetch of one cache line for thread `tid`; returns
    /// the cycle the line is available.
    fn ifetch(&mut self, now: Cycle, tid: u8, addr: u64) -> Cycle;

    /// Issue a data access, or report back-pressure.
    ///
    /// # Errors
    ///
    /// Returns a [`Stall`] when no port is free, the MSHRs are
    /// exhausted (load miss) or the write buffer is full (store).
    fn request(&mut self, now: Cycle, req: MemRequest) -> Result<MemReply, Stall>;

    /// Issue one stream instruction's element group for this cycle in
    /// a single call (see [`MemSystem::request_stream`]).
    fn request_stream(&mut self, now: Cycle, req: StreamRequest) -> StreamReply;

    /// Run-ahead variant of [`MemPort::request_stream`], used by the
    /// decoupled vector-fetch unit: loads only, and the port may hold
    /// the whole request back (issuing nothing) to keep MSHR headroom
    /// for demand traffic. The default has no headroom policy and just
    /// issues the stream.
    fn request_stream_runahead(&mut self, now: Cycle, req: StreamRequest) -> StreamReply {
        self.request_stream(now, req)
    }

    /// Tell the port which observability lane (core index) its trace
    /// events belong to. Cosmetic; the default ignores it.
    fn set_obs_lane(&mut self, _lane: u32) {}
}

impl MemPort for MemSystem {
    #[inline]
    fn ifetch(&mut self, now: Cycle, tid: u8, addr: u64) -> Cycle {
        MemSystem::ifetch(self, now, tid, addr)
    }

    #[inline]
    fn request(&mut self, now: Cycle, req: MemRequest) -> Result<MemReply, Stall> {
        MemSystem::request(self, now, req)
    }

    #[inline]
    fn request_stream(&mut self, now: Cycle, req: StreamRequest) -> StreamReply {
        MemSystem::request_stream(self, now, req)
    }

    #[inline]
    fn request_stream_runahead(&mut self, now: Cycle, req: StreamRequest) -> StreamReply {
        MemSystem::request_stream_runahead(self, now, req)
    }

    #[inline]
    fn set_obs_lane(&mut self, lane: u32) {
        MemSystem::set_obs_lane(self, lane);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InstState {
    InQueue,
    /// Issued: the result is available from [`DynInst::done_at`] on,
    /// and the instruction may commit from then.
    Executing,
}

/// One vector load tracked by the decoupled vector-fetch unit, in
/// dispatch order. The entry stays queued until execute drains the
/// instruction, so fully issued streams hold their window slot — that
/// is the vector-data-queue backpressure: at most
/// [`CpuConfig::decouple_depth`] streams can be ahead of execute.
#[derive(Debug, Clone, Copy)]
struct VFetchEntry {
    id: u32,
    tid: usize,
    /// The run-ahead unit issued elements for this entry (as opposed
    /// to the demand path). Flushed entries re-issue on demand.
    early: bool,
}

/// How issue times a non-memory instruction: the functional-unit
/// latency it pays and the unpipelined unit or media unit it holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LatClass {
    One,
    IntMul,
    /// Occupies the unpipelined integer divider.
    IntDiv,
    FpAdd,
    FpMul,
    /// Occupies the unpipelined FP divider.
    FpDiv,
    /// MMX packed multiply.
    SimdMul,
    /// MOM stream: holds the media unit for its stream length.
    Stream,
    /// MOM stream multiply: the media unit plus the multiply pipe.
    StreamMul,
    /// Memory access: timed by the memory system, not by issue.
    Mem,
}

/// A branch the decode-stage predictor sees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Predict {
    None,
    Conditional,
    Indirect,
}

/// Everything the pipeline derives from an opcode, looked up once per
/// instruction at dispatch (see [`op_class`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OpClass {
    /// Index of the dispatch queue in [`Cpu::queues`].
    queue: u8,
    /// [`Op::kind`].
    kind: OpKind,
    /// Path through the memory hierarchy (meaningful for memory-queue
    /// operations).
    access: AccessKind,
    lat: LatClass,
    /// A MOM stream operation ([`Op::is_stream`]): its equivalent count
    /// is its stream length.
    stream: bool,
    /// Implicitly reads the stream-length register (every MOM operation
    /// but `SetVl`, which writes it).
    reads_vl: bool,
    predict: Predict,
}

/// Index of a dispatch queue in [`Cpu::queues`].
const fn queue_idx(q: QueueKind) -> usize {
    match q {
        QueueKind::Int => 0,
        QueueKind::Mem => 1,
        QueueKind::Fp => 2,
        QueueKind::Simd => 3,
    }
}

const MEM_QUEUE: usize = queue_idx(QueueKind::Mem);

/// The classification of one opcode (evaluated at compile time into
/// [`OP_CLASS`]).
const fn classify(op: Op) -> OpClass {
    let queue = op.queue();
    let access = match op {
        Op::Mem(MemOp::Prefetch) | Op::Mom(MomOp::Vprefetch) => AccessKind::Prefetch,
        Op::Mem(_) if op.is_store() => AccessKind::ScalarStore,
        Op::Mem(_) => AccessKind::ScalarLoad,
        // MMX and MOM packed/stream accesses use the vector path.
        _ if op.is_store() => AccessKind::VectorStore,
        _ => AccessKind::VectorLoad,
    };
    let lat = match op {
        _ if op.is_mem() => LatClass::Mem,
        Op::Int(IntOp::Mul | IntOp::Mulh) => LatClass::IntMul,
        Op::Int(IntOp::Div | IntOp::Rem) => LatClass::IntDiv,
        Op::Fp(FpOp::FDiv | FpOp::FSqrt) => LatClass::FpDiv,
        Op::Fp(FpOp::FMul | FpOp::FMadd) => LatClass::FpMul,
        Op::Fp(_) => LatClass::FpAdd,
        Op::Mmx(m) if m.is_mul() => LatClass::SimdMul,
        Op::Mom(m) if m.is_mul() => LatClass::StreamMul,
        Op::Mom(_) => LatClass::Stream,
        _ => LatClass::One,
    };
    let predict = match op {
        Op::Ctl(c) if c.is_conditional() => Predict::Conditional,
        Op::Ctl(c) if c.is_indirect() => Predict::Indirect,
        _ => Predict::None,
    };
    OpClass {
        queue: queue_idx(queue) as u8,
        kind: op.kind(),
        access,
        lat,
        stream: op.is_stream(),
        reads_vl: matches!(op, Op::Mom(m) if !matches!(m, MomOp::SetVl)),
        predict,
    }
}

/// Opcodes per [`Op`] variant, in variant order.
const VARIANT_OPS: [usize; 6] = [
    IntOp::ALL.len(),
    FpOp::ALL.len(),
    MemOp::ALL.len(),
    CtlOp::ALL.len(),
    MmxOp::ALL.len(),
    MomOp::ALL.len(),
];

/// Index of each variant's first opcode in [`OP_CLASS`].
const VARIANT_BASE: [usize; 6] = {
    let mut base = [0; 6];
    let mut v = 1;
    while v < 6 {
        base[v] = base[v - 1] + VARIANT_OPS[v - 1];
        v += 1;
    }
    base
};

/// Dense index of `op` in [`OP_CLASS`]: its variant's base plus the
/// sub-opcode's discriminant. Written as two matches that each read one
/// byte of the `Op`, so it compiles to a table load and an add rather
/// than a jump through a table, which a mixed instruction stream would
/// keep mispredicting.
#[inline]
const fn op_index(op: Op) -> usize {
    let variant = match op {
        Op::Int(_) => 0,
        Op::Fp(_) => 1,
        Op::Mem(_) => 2,
        Op::Ctl(_) => 3,
        Op::Mmx(_) => 4,
        Op::Mom(_) => 5,
    };
    let sub = match op {
        Op::Int(o) => o as usize,
        Op::Fp(o) => o as usize,
        Op::Mem(o) => o as usize,
        Op::Ctl(o) => o as usize,
        Op::Mmx(o) => o as usize,
        Op::Mom(o) => o as usize,
    };
    VARIANT_BASE[variant] + sub
}

/// Store `classify(Op::$variant(o))` for every `o` in `$sub::ALL` at
/// `op_index`, checking that `ALL` lists the opcodes in discriminant
/// order (which makes the index dense).
macro_rules! classify_all {
    ($table:ident, $variant:ident, $sub:ident) => {{
        let mut i = 0;
        while i < $sub::ALL.len() {
            let o = $sub::ALL[i];
            assert!(o as usize == i, "ALL is in discriminant order");
            $table[op_index(Op::$variant(o))] = classify(Op::$variant(o));
            i += 1;
        }
    }};
}

/// [`classify`] of every opcode, indexed by [`op_index`].
static OP_CLASS: [OpClass; VARIANT_BASE[5] + VARIANT_OPS[5]] = {
    let mut table = [classify(Op::Int(IntOp::Add)); VARIANT_BASE[5] + VARIANT_OPS[5]];
    classify_all!(table, Int, IntOp);
    classify_all!(table, Fp, FpOp);
    classify_all!(table, Mem, MemOp);
    classify_all!(table, Ctl, CtlOp);
    classify_all!(table, Mmx, MmxOp);
    classify_all!(table, Mom, MomOp);
    table
};

/// The pre-computed [`OpClass`] of `op`: one table load.
#[inline]
fn op_class(op: Op) -> &'static OpClass {
    &OP_CLASS[op_index(op)]
}

/// One in-flight instruction, in its thread's slot of the
/// ROB-indexed slab (see [`Cpu::slab`]). It keeps only what issue,
/// complete and commit read; everything is computed once at dispatch,
/// and the [`Inst`] itself stays behind in the trace block. `repr(C)`
/// keeps the fields complete and commit read in the slot's first 12
/// bytes; the whole slot is one 64-byte cache line.
#[derive(Debug, Clone)]
#[repr(C, align(64))]
struct DynInst {
    state: InstState,
    tid: u8,
    /// [`Inst::kind`].
    kind: OpKind,
    /// The instruction is a control transfer.
    branch: bool,
    mispredicted: bool,
    /// [`Inst::equivalent_count`] (at most the maximum stream length).
    equiv: u8,
    mem_elems_issued: u8,
    access: AccessKind,
    /// Renamed destination and the mapping it replaced, both [`READY`]
    /// when there is none: marking the sentinel ready and releasing it
    /// are no-ops, so complete and commit need no branch.
    dst: PhysReg,
    prev_dst: PhysReg,
    op: Op,
    slen: u8,
    lat: LatClass,
    /// Renamed sources, padded with [`READY`]; the queue entry carries
    /// a copy (see [`QueueEntry`]).
    srcs: [PhysReg; 4],
    /// While a memory access issues, the latest reply of its elements;
    /// once [`InstState::Executing`], the completion cycle.
    done_at: Cycle,
    mem: Option<MemRef>,
}

const _: () = assert!(size_of::<DynInst>() <= 64);

impl DynInst {
    /// Filler for slab slots no instruction occupies yet.
    fn vacant() -> Self {
        DynInst {
            state: InstState::InQueue,
            tid: 0,
            kind: OpKind::Integer,
            branch: false,
            mispredicted: false,
            equiv: 1,
            mem_elems_issued: 0,
            access: AccessKind::ScalarLoad,
            dst: READY,
            prev_dst: READY,
            op: Op::Int(IntOp::Add),
            slen: 1,
            lat: LatClass::One,
            srcs: [READY; 4],
            done_at: 0,
            mem: None,
        }
    }
}

/// An issue-queue entry: the slab slot plus the renamed sources, so the
/// oldest-first scans test readiness against the flat ready array
/// without touching the slab. Every queued instruction is
/// [`InstState::InQueue`].
#[derive(Debug, Clone, Copy)]
struct QueueEntry {
    id: u32,
    srcs: [PhysReg; 4],
}

/// Keep `e`, just read from `queue[pos - 1]`, at the compaction point
/// `write` of an issue scan. Until an entry leaves the queue,
/// `write == pos - 1` and `e` is already in place.
#[inline]
fn keep_entry(queue: &mut [QueueEntry], write: &mut usize, pos: usize, e: QueueEntry) {
    if *write + 1 != pos {
        queue[*write] = e;
    }
    *write += 1;
}

/// Close the holes the issued entries of a scan left: slide the
/// unexamined tail `pos..` down to `write`. Nothing moves when no entry
/// left the queue.
#[inline]
fn close_holes(queue: &mut Vec<QueueEntry>, write: usize, pos: usize) {
    if write != pos {
        let len = queue.len();
        queue.copy_within(pos..len, write);
        queue.truncate(write + (len - pos));
    }
}

/// One hardware context. `repr(C)` keeps the counters every stage
/// reads each cycle together, followed by the decode-buffer and fetch
/// positions, ahead of the block and the source.
#[repr(C)]
struct ThreadCtx {
    exhausted: bool,
    fetched_vector_last: bool,
    blocked_on_branch: Option<u32>,
    fetch_blocked_until: Cycle,
    last_fetch_line: u64,
    /// Ring position of the oldest in-flight instruction in this
    /// thread's ROB (its slab slots start at `tid × rob_per_thread`).
    rob_head: usize,
    /// In-flight instructions (dispatched, not yet committed).
    rob_len: usize,
    icount: usize,
    ocount: u64,
    /// The decode buffer is `block[dec_head..block_pos]`: fetched,
    /// not yet dispatched, at most [`DECODE_BUF_CAP`] instructions.
    dec_head: usize,
    /// Fetch position inside `block`.
    block_pos: usize,
    /// Current decoded block. Fetch and dispatch read instructions in
    /// place; the only copy after trace decode is the carry of the
    /// decode buffer over a refill (see [`ThreadCtx::refill`]).
    block: Vec<Inst>,
    /// Scratch for that carry.
    carry: Vec<Inst>,
    /// Completion cycle of the `blocked_on_branch` branch once it has
    /// issued (the thread's bit in [`Cpu::resolving`] is then set).
    resolve_at: Cycle,
    /// Block-oriented instruction supply (a generator adapter or a
    /// packed trace decoder).
    source: Option<Box<dyn InstSource>>,
}

impl ThreadCtx {
    fn empty() -> Self {
        ThreadCtx {
            source: None,
            block: Vec::new(),
            carry: Vec::with_capacity(DECODE_BUF_CAP),
            block_pos: 0,
            dec_head: 0,
            fetch_blocked_until: 0,
            blocked_on_branch: None,
            resolve_at: 0,
            last_fetch_line: u64::MAX,
            exhausted: true,
            rob_head: 0,
            rob_len: 0,
            icount: 0,
            ocount: 0,
            fetched_vector_last: false,
        }
    }

    /// Instructions in the decode buffer.
    #[inline]
    fn decode_len(&self) -> usize {
        self.block_pos - self.dec_head
    }

    /// The oldest instruction in the decode buffer.
    #[inline]
    fn decode_front(&self) -> Option<&Inst> {
        (self.dec_head < self.block_pos).then(|| &self.block[self.dec_head])
    }

    /// Fetch reached the end of `block`: refill it from the source,
    /// carrying the undispatched decode buffer (at most
    /// [`DECODE_BUF_CAP`] instructions) to the front of the new block.
    /// Returns whether an instruction is now at `block_pos`; `false`
    /// means the program ended, which exhausts the thread and drops its
    /// source (the buffer still drains through dispatch).
    #[cold]
    fn refill(&mut self) -> bool {
        let Some(src) = self.source.as_mut() else {
            return false;
        };
        self.carry.clear();
        self.carry
            .extend_from_slice(&self.block[self.dec_head..self.block_pos]);
        let more = src.next_block(&mut self.block);
        if !more {
            self.block.clear();
            self.exhausted = true;
            self.source = None;
        }
        // Room for the carry (a source may exceed `BLOCK_INSTS`)
        // without the doubling `splice` would do.
        self.block.reserve_exact(self.carry.len());
        self.block.splice(0..0, self.carry.iter().copied());
        self.dec_head = 0;
        self.block_pos = self.carry.len();
        more
    }
}

/// The SMT processor, timed over any [`MemPort`].
pub struct Cpu<M: MemPort = MemSystem> {
    config: CpuConfig,
    now: Cycle,
    mem: M,
    rename: RenameFile,
    /// Every in-flight instruction, `threads × rob_per_thread` slots:
    /// thread `tid`'s ROB is the ring of slots `tid × rob_per_thread
    /// ..` with head and length in its [`ThreadCtx`], so an
    /// instruction's slot (its id in the queues) is fixed at dispatch
    /// and commit frees it by advancing the head.
    slab: Vec<DynInst>,
    queues: [Vec<QueueEntry>; 4],
    threads: Vec<ThreadCtx>,
    predictors: Vec<Predictor>,
    /// Issued instructions counted by completion cycle.
    completions: CountWheel,
    /// Threads whose ROB head may be [`InstState::Executing`] (a
    /// superset: [`Cpu::schedule`] sets a thread's bit, commit clears
    /// it when the head is not executing), so commit visits only these.
    head_mask: u64,
    /// Threads whose `blocked_on_branch` has issued and resolves at the
    /// thread's `resolve_at`.
    resolving: u64,
    stats: CpuStats,
    rr_cursor: usize,
    media_unit_free: Cycle,
    int_div_free: Cycle,
    fp_div_free: Cycle,
    /// Per-queue ready cursor: entries before it are known to be
    /// waiting on source registers, so the issue scan resumes here.
    /// Valid until any register may have become ready — a cycle with
    /// completions — then reset to 0.
    scan_from: [usize; 4],
    /// Issue saw an entry with ready sources that still could not
    /// (fully) issue this cycle — port or media-unit pressure, so the
    /// idle fast-forward must not skip ahead.
    issue_blocked_ready: bool,
    /// Event-driven idle skip enabled (identical results either way;
    /// see [`Cpu::set_fast_forward`]).
    fast_forward: bool,
    /// Observability lane (core index) trace events report under;
    /// cosmetic, never read by the timing model.
    obs_lane: u32,
    /// Decoupled vector-fetch access queue (dispatch-ordered vector
    /// loads still ahead of execute). Empty unless
    /// [`CpuConfig::decouple`] is set.
    vfetch: VecDeque<VFetchEntry>,
}

impl<M: MemPort> Cpu<M> {
    /// Build a processor over a memory port.
    #[must_use]
    pub fn new(config: CpuConfig, mem: M) -> Self {
        let threads = config.threads;
        assert!(
            threads <= MAX_THREADS,
            "thread sets are {MAX_THREADS}-bit masks: {threads} threads"
        );
        let rename = RenameFile::new(threads, &config.sizing);
        Cpu {
            stats: CpuStats::new(threads),
            rename,
            mem,
            now: 0,
            slab: vec![DynInst::vacant(); threads * config.sizing.rob_per_thread],
            queues: Default::default(),
            threads: (0..threads).map(|_| ThreadCtx::empty()).collect(),
            predictors: (0..threads).map(|_| Predictor::new(12)).collect(),
            completions: CountWheel::new(config.wheel_slots),
            head_mask: 0,
            resolving: 0,
            rr_cursor: 0,
            media_unit_free: 0,
            int_div_free: 0,
            fp_div_free: 0,
            scan_from: [0; 4],
            issue_blocked_ready: false,
            fast_forward: true,
            obs_lane: 0,
            vfetch: VecDeque::new(),
            config,
        }
    }

    /// Enable or disable the event-driven idle fast-forward (on by
    /// default). When every fetch unit is stalled and no instruction
    /// can issue, the model jumps straight to the next completion or
    /// I-fetch wakeup instead of ticking empty cycles. Results are
    /// cycle-for-cycle identical either way (enforced by the
    /// `fast_forward_is_invisible` test); the switch exists for that
    /// test and for profiling.
    pub fn set_fast_forward(&mut self, enabled: bool) {
        self.fast_forward = enabled;
    }

    /// Current cycle.
    #[must_use]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Statistics so far.
    #[must_use]
    pub fn stats(&self) -> &CpuStats {
        &self.stats
    }

    /// The memory port (for its statistics).
    #[must_use]
    pub fn mem(&self) -> &M {
        &self.mem
    }

    /// Mutable access to the memory port (occupancy probes of the
    /// interval sampler).
    pub fn mem_mut(&mut self) -> &mut M {
        &mut self.mem
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &CpuConfig {
        &self.config
    }

    /// Set the observability lane (core index) this core and its
    /// memory port report trace events under. Cosmetic; the timing
    /// model never reads it.
    pub fn set_obs_lane(&mut self, lane: u32) {
        self.obs_lane = lane;
        self.mem.set_obs_lane(lane);
    }

    /// Attach a block-oriented instruction source to hardware context
    /// `tid` — the primary attach path.
    ///
    /// # Panics
    ///
    /// Panics if the context still has instructions in flight.
    pub fn attach_source(&mut self, tid: usize, source: Box<dyn InstSource>) {
        assert!(self.thread_idle(tid), "context {tid} still busy");
        let t = &mut self.threads[tid];
        t.source = Some(source);
        t.block.clear();
        // One allocation holds a full block plus the carry of a refill.
        t.block.reserve(BLOCK_INSTS + DECODE_BUF_CAP);
        t.block_pos = 0;
        t.dec_head = 0;
        t.exhausted = false;
        t.last_fetch_line = u64::MAX;
        t.fetch_blocked_until = self.now;
        t.blocked_on_branch = None;
        self.resolving &= !(1 << tid);
    }

    /// Attach a per-instruction stream to hardware context `tid`
    /// (wrapped into blocks; see [`Cpu::attach_source`]).
    ///
    /// # Panics
    ///
    /// Panics if the context still has instructions in flight.
    pub fn attach_thread(&mut self, tid: usize, stream: Box<dyn InstStream>) {
        self.attach_source(tid, Box::new(StreamSource::new(stream)));
    }

    /// Drop every context's instruction source, releasing the decoders
    /// and trace buffers they hold once a run completes; all statistics
    /// stay intact. The core must not be cycled afterwards.
    pub fn detach_sources(&mut self) {
        for t in &mut self.threads {
            t.source = None;
        }
    }

    /// Whether context `tid` has fully drained (stream ended, no
    /// buffered or in-flight instructions).
    #[must_use]
    pub fn thread_idle(&self, tid: usize) -> bool {
        let t = &self.threads[tid];
        t.exhausted && t.decode_len() == 0 && t.rob_len == 0
    }

    /// Whether every context is idle.
    #[must_use]
    pub fn all_idle(&self) -> bool {
        (0..self.threads.len()).all(|t| self.thread_idle(t))
    }

    /// Record that the program in context `tid` completed (§5.1
    /// program-list scheduling bookkeeping).
    pub fn note_program_completed(&mut self, tid: usize) {
        self.stats.threads[tid].programs_completed += 1;
    }

    /// Advance one cycle (plus any provably idle cycles after it —
    /// see [`Cpu::set_fast_forward`]).
    pub fn cycle(&mut self) {
        let any_activity = self.cycle_no_ff();
        if self.fast_forward && !any_activity {
            self.fast_forward_idle();
        }
    }

    /// Advance exactly one cycle — no idle fast-forward — returning
    /// whether anything moved (`false` means nothing can move until a
    /// completion or an I-fetch wakeup: the fast-forward precondition).
    /// A CMP machine steps every core with this, in fixed core order,
    /// and applies a machine-level fast-forward only when *no* core had
    /// activity (all cores share one clock, so no core may jump alone).
    pub fn cycle_no_ff(&mut self) -> bool {
        let completed = self.complete();
        let committed = self.commit();
        // Registers become ready only at completion cycles: every queue
        // prefix that was known-blocked must then be rescanned.
        if completed != 0 {
            self.scan_from = [0; 4];
        }
        self.issue_blocked_ready = false;
        let int_i = self.issue_queue(QueueKind::Int, self.config.int_issue);
        let fp_i = self.issue_queue(QueueKind::Fp, self.config.fp_issue);
        let simd_i = self.issue_queue(QueueKind::Simd, self.config.simd_issue);
        let mem_i = self.issue_mem();
        self.stats.issued[0] += int_i as u64;
        self.stats.issued[1] += mem_i as u64;
        self.stats.issued[2] += fp_i as u64;
        self.stats.issued[3] += simd_i as u64;
        // The decoupled vector-fetch unit runs after demand issue (it
        // uses whatever ports demand traffic left free) and before
        // dispatch (entries dispatched this cycle wait a cycle before
        // running ahead).
        let vfetch_issued = self.vfetch_run();
        let dispatched = self.dispatch();
        let fetched_before = self.stats.fetched;
        let fetch_active = self.fetch();
        // §5.3 diagnostic: cycles where only the vector pipe issued.
        if simd_i > 0 && int_i == 0 && fp_i == 0 && mem_i == 0 {
            self.stats.vector_only_cycles += 1;
        }
        let issued = int_i + mem_i + fp_i + simd_i;
        if issued == 0 {
            self.stats.idle_cycles += 1;
        }
        if medsim_obs::tracing() {
            use medsim_obs::EventKind;
            let fetched = self.stats.fetched - fetched_before;
            if fetched > 0 {
                medsim_obs::emit(self.now, self.obs_lane, EventKind::Fetch, fetched);
            }
            if issued > 0 {
                medsim_obs::emit(self.now, self.obs_lane, EventKind::Issue, issued as u64);
            }
            if committed > 0 {
                medsim_obs::emit(self.now, self.obs_lane, EventKind::Commit, committed as u64);
            }
        }
        self.now += 1;
        self.stats.cycles = self.now;
        completed + committed + dispatched + issued != 0
            || fetch_active
            || vfetch_issued > 0
            || self.issue_blocked_ready
    }

    /// Jump from the current (already advanced) cycle to the next cycle
    /// at which the machine state can change: the earliest pending
    /// completion or the earliest I-fetch unblock. Replicates exactly
    /// the per-cycle statistics the skipped idle cycles would have
    /// accumulated, so results are identical to ticking through them.
    fn fast_forward_idle(&mut self) {
        if let Some(wake) = self.fast_forward_wake() {
            self.apply_fast_forward(wake);
        }
    }

    /// The next cycle at which this core's state can change, given the
    /// cycle just finished had no activity: the earliest pending
    /// completion or I-fetch unblock. `None` when nothing is pending
    /// (the core is drained, or blocked solely on branch resolution
    /// that will never come — impossible after a no-activity cycle).
    #[must_use]
    pub fn fast_forward_wake(&self) -> Option<Cycle> {
        let mut wake: Option<Cycle> = self.completions.next_due();
        let prev = self.now - 1; // the idle cycle just simulated
        for t in &self.threads {
            if t.exhausted || t.blocked_on_branch.is_some() {
                continue;
            }
            if t.fetch_blocked_until > prev {
                wake = Some(wake.map_or(t.fetch_blocked_until, |w| w.min(t.fetch_blocked_until)));
            }
        }
        wake
    }

    /// Skip idle cycles up to `wake` (at most this core's own
    /// [`Cpu::fast_forward_wake`] — a CMP machine passes the minimum
    /// over its cores so the chip stays in lockstep), replicating the
    /// per-cycle statistics the skipped cycles would have accumulated.
    pub fn apply_fast_forward(&mut self, wake: Cycle) {
        let mut branch_blocked = 0u64;
        let mut time_blocked = 0u64;
        let prev = self.now - 1; // the idle cycle just simulated
        for t in &self.threads {
            if t.exhausted {
                continue;
            }
            if t.blocked_on_branch.is_some() {
                branch_blocked += 1;
            } else if t.fetch_blocked_until > prev {
                time_blocked += 1;
            }
        }
        let Some(skipped) = wake.checked_sub(self.now) else {
            return;
        };
        if skipped == 0 {
            return;
        }
        // Stall accounting the skipped fetch stages would have done.
        self.stats.fetch_branch_stalls += skipped * branch_blocked;
        self.stats.fetch_icache_stalls += skipped * time_blocked;
        // Dispatch would have re-hit the same head-of-buffer stall.
        let (rob, queue, reg) = self.dispatch_stall_profile();
        self.stats.dispatch_rob_stalls += skipped * rob;
        self.stats.dispatch_queue_stalls += skipped * queue;
        self.stats.dispatch_reg_stalls += skipped * reg;
        self.stats.idle_cycles += skipped;
        // The vector-fetch occupancy gauge the skipped cycles would
        // have sampled (their queue composition cannot change during
        // an idle stretch: draining an entry is issue activity).
        if self.config.decouple && !self.vfetch.is_empty() {
            self.stats.vfetch_cycles += skipped;
            self.stats.vfetch_occupancy_sum += skipped * self.vfetch.len() as u64;
        }
        self.rr_cursor = (self.rr_cursor + skipped as usize) % self.threads.len();
        self.now = wake;
        self.stats.cycles = self.now;
    }

    /// The per-cycle dispatch stall counters an idle cycle produces:
    /// one per thread whose decode buffer head cannot enter the window,
    /// by stall reason. Read-only twin of the bookkeeping in
    /// [`Cpu::dispatch`] for the fast-forward path.
    fn dispatch_stall_profile(&self) -> (u64, u64, u64) {
        let (mut rob, mut queue, mut reg) = (0u64, 0u64, 0u64);
        for t in &self.threads {
            let Some(inst) = t.decode_front() else {
                continue;
            };
            if t.rob_len >= self.config.sizing.rob_per_thread {
                rob += 1;
            } else if self.queues[usize::from(op_class(inst.op).queue)].len()
                >= self.config.sizing.queue_entries
            {
                queue += 1;
            } else {
                // The head must be blocked on a free physical register:
                // were it dispatchable, the cycle would have dispatched
                // it and fast-forward would not have been entered.
                reg += 1;
            }
        }
        (rob, queue, reg)
    }

    /// Run until all attached threads drain or `max_cycles` elapse.
    /// Returns `true` if everything drained.
    pub fn run_to_idle(&mut self, max_cycles: u64) -> bool {
        let limit = self.now + max_cycles;
        while !self.all_idle() {
            if self.now >= limit {
                return false;
            }
            self.cycle();
        }
        true
    }

    // ---- pipeline phases -------------------------------------------------

    fn complete(&mut self) -> usize {
        // Issue already made every result visible at its cycle (see
        // [`Cpu::schedule`]); what is left is the count, which tells the
        // issue scans that registers may have become ready, and the
        // branches that resolve now.
        let completed = self.completions.take_due(self.now);
        if self.resolving != 0 {
            self.resolve_branches();
        }
        completed
    }

    /// Unblock the fetch of every thread whose blocking branch completes
    /// now (plus the redirect penalty).
    fn resolve_branches(&mut self) {
        let mut due = self.resolving;
        while due != 0 {
            let tid = due.trailing_zeros() as usize;
            due &= due - 1;
            let t = &mut self.threads[tid];
            if t.resolve_at > self.now {
                continue;
            }
            self.resolving &= !(1 << tid);
            t.blocked_on_branch = None;
            t.fetch_blocked_until = self.now + self.config.mispredict_penalty;
            // A redirect discards the thread's run-ahead state: the
            // buffered vector data is stale, so its loads re-issue on
            // the demand path.
            if self.config.decouple {
                self.vfetch_flush(tid);
            }
        }
    }

    /// Time an instruction that issues now and completes at `due`: its
    /// destination reads as ready from `due` on, commit may retire it
    /// from `due` on, and the completion is counted at `due`. If fetch
    /// is blocked on it, its thread resolves at `due`. It leaves the
    /// thread's not-yet-issued counts.
    #[inline(always)]
    fn schedule(&mut self, id: u32, due: Cycle) {
        let d = &mut self.slab[id as usize];
        d.state = InstState::Executing;
        d.done_at = due;
        self.rename.set_ready_at(d.dst, due);
        self.completions.push(due);
        let tid = usize::from(d.tid);
        self.head_mask |= 1 << tid;
        let (mispredicted, equiv) = (d.mispredicted, u64::from(d.equiv));
        let t = &mut self.threads[tid];
        t.icount -= 1;
        t.ocount -= equiv;
        if mispredicted && t.blocked_on_branch == Some(id) {
            t.resolve_at = due;
            self.resolving |= 1 << tid;
        }
    }

    fn commit(&mut self) -> usize {
        let n = self.threads.len();
        let rob = self.config.sizing.rob_per_thread;
        let now = self.now;
        let mut budget = self.config.commit_width;
        // Visit the threads whose head may be executing, rotating the
        // starting thread for fairness.
        let cursor = self.rr_cursor;
        let mut order = rotate_threads(self.head_mask, cursor, n);
        while order != 0 && budget > 0 {
            let mut tid = cursor + order.trailing_zeros() as usize;
            order &= order - 1;
            if tid >= n {
                tid -= n;
            }
            let t = &mut self.threads[tid];
            // The thread's ROB ring; the head is read in place and its
            // slot is free once the head moves past it. Counts
            // accumulate locally and reach the stats once per thread.
            let ring = &self.slab[tid * rob..(tid + 1) * rob];
            let limit = budget.min(t.rob_len);
            let mut head = t.rob_head;
            let (mut done, mut equiv_sum, mut branches, mut mispredicts) = (0, 0, 0, 0);
            while done < limit {
                let d = &ring[head];
                if d.state != InstState::Executing || d.done_at > now {
                    break;
                }
                self.rename.release(d.prev_dst);
                let equiv = u64::from(d.equiv);
                equiv_sum += equiv;
                branches += u64::from(d.branch);
                // Only a branch can be mispredicted.
                mispredicts += u64::from(d.mispredicted);
                self.stats.record_commit_kind(d.kind, equiv);
                head += 1;
                if head == rob {
                    head = 0;
                }
                done += 1;
            }
            if done > 0 {
                t.rob_head = head;
                t.rob_len -= done;
                budget -= done;
                let ts = &mut self.stats.threads[tid];
                ts.committed += done as u64;
                ts.committed_equiv += equiv_sum;
                ts.branches += branches;
                ts.mispredicts += mispredicts;
            }
            // Only issue makes a head executing, and issue sets the bit.
            if t.rob_len == 0 || ring[head].state != InstState::Executing {
                self.head_mask &= !(1 << tid);
            }
        }
        self.config.commit_width - budget
    }

    /// Debug-build check of an issue-queue entry against its slab slot:
    /// queued instructions are always waiting to issue, and the entry's
    /// sources are the ones renamed at dispatch.
    #[inline]
    fn debug_check_entry(&self, e: &QueueEntry) {
        // Gated as a whole: the slab index alone would keep a bounds
        // check in release builds.
        if cfg!(debug_assertions) {
            let d = &self.slab[e.id as usize];
            assert_eq!(
                d.state,
                InstState::InQueue,
                "queued instruction not InQueue"
            );
            assert_eq!(d.srcs, e.srcs, "queue entry sources diverge from the slab");
        }
    }

    /// Execution latency of a non-memory instruction, plus any
    /// unpipelined-unit occupancy bookkeeping.
    fn exec_latency(&mut self, lat: LatClass, slen: u8) -> Cycle {
        match lat {
            LatClass::One => 1,
            LatClass::IntMul => self.config.lat_int_mul,
            LatClass::IntDiv => {
                let start = self.int_div_free.max(self.now);
                self.int_div_free = start + self.config.lat_int_div;
                (start - self.now) + self.config.lat_int_div
            }
            LatClass::FpAdd => self.config.lat_fp_add,
            LatClass::FpMul => self.config.lat_fp_mul,
            LatClass::FpDiv => {
                let start = self.fp_div_free.max(self.now);
                self.fp_div_free = start + self.config.lat_fp_div;
                (start - self.now) + self.config.lat_fp_div
            }
            LatClass::SimdMul => self.config.lat_simd_mul,
            LatClass::Stream => self.media_occupancy(slen),
            LatClass::StreamMul => self.media_occupancy(slen) + self.config.lat_simd_mul - 1,
            LatClass::Mem => unreachable!("memory ops issue via issue_mem"),
        }
    }

    /// Cycles a MOM stream of `slen` elements holds the media unit.
    #[inline]
    fn media_occupancy(&self, slen: u8) -> Cycle {
        Cycle::from(slen)
            .div_ceil(self.config.vector_lanes as u64)
            .max(1)
    }

    /// Issue from one of the non-memory queues, oldest first.
    ///
    /// Steady-state allocation-free: issued entries are compacted out
    /// of the queue in place (no scratch `Vec`, no O(n²) `retain`), and
    /// the scan resumes at [`Cpu::scan_from`] — the prefix before it is
    /// known to be waiting on source registers, which can only change
    /// at a completion cycle (see [`Cpu::cycle_no_ff`]). Readiness is
    /// tested on the entry's own sources; only entries that are ready
    /// touch the slab.
    fn issue_queue(&mut self, q: QueueKind, width: usize) -> usize {
        let qi = queue_idx(q);
        let len = self.queues[qi].len();
        let start = self.scan_from[qi].min(len);
        if start >= len || width == 0 {
            return 0;
        }
        // The MOM media unit is a single occupied resource.
        let media_gated = q == QueueKind::Simd && self.config.isa == SimdIsa::Mom;
        let mut queue = std::mem::take(&mut self.queues[qi]);
        let mut issued = 0usize;
        let mut write = start;
        let mut pos = start;
        // First kept entry that is ready but resource-blocked (the scan
        // must come back to it even without a new ready event).
        let mut cursor_stop: Option<usize> = None;
        while pos < len && issued < width {
            let e = queue[pos];
            pos += 1;
            self.debug_check_entry(&e);
            if !self.rename.sources_ready(&e.srcs, self.now) {
                keep_entry(&mut queue, &mut write, pos, e);
                continue;
            }
            let d = &self.slab[e.id as usize];
            let (lat, slen) = (d.lat, d.slen);
            let is_stream = media_gated && matches!(lat, LatClass::Stream | LatClass::StreamMul);
            if is_stream && self.media_unit_free > self.now {
                cursor_stop.get_or_insert(write);
                self.issue_blocked_ready = true;
                keep_entry(&mut queue, &mut write, pos, e);
                continue;
            }
            let lat = self.exec_latency(lat, slen);
            if is_stream {
                self.media_unit_free = self.now + self.media_occupancy(slen);
            }
            self.schedule(e.id, self.now + lat);
            issued += 1; // hole closed by the compaction below
        }
        // Resume point: the first ready-but-blocked survivor, else the
        // first unexamined entry (which lands at `write` after the tail
        // is compacted down).
        let resume = cursor_stop.unwrap_or(write);
        close_holes(&mut queue, write, pos);
        self.queues[qi] = queue;
        self.scan_from[qi] = resume;
        issued
    }

    /// Issue element-group accesses from the memory queue. Same
    /// in-place compaction, ready-cursor and entry-readiness scheme as
    /// [`Cpu::issue_queue`]; partially issued stream accesses stay at
    /// the front and pin the cursor (ports free up over time, not
    /// through ready events).
    fn issue_mem(&mut self) -> usize {
        let qi = MEM_QUEUE;
        let len = self.queues[qi].len();
        let start = self.scan_from[qi].min(len);
        if start >= len {
            return 0;
        }
        let mut queue = std::mem::take(&mut self.queues[qi]);
        let mut slots = self.config.mem_issue;
        let mut issued_count = 0;
        let mut write = start;
        let mut pos = start;
        let mut cursor_stop: Option<usize> = None;
        while pos < len && slots > 0 {
            let e = queue[pos];
            pos += 1;
            self.debug_check_entry(&e);
            if !self.rename.sources_ready(&e.srcs, self.now) {
                keep_entry(&mut queue, &mut write, pos, e);
                continue;
            }
            let id = e.id;
            let d = &self.slab[id as usize];
            let Some(mem) = d.mem else {
                // Dispatch routes an instruction to the memory queue
                // only for memory opcodes, and every constructor of
                // those carries a MemRef.
                unreachable!("memory-queue instruction without an access: {:?}", d.op)
            };
            let tid = usize::from(d.tid);
            let kind = d.access;
            let elems_before = d.mem_elems_issued;
            let mut mem_done = d.done_at;
            // Decoupled drain: the run-ahead unit already issued the
            // whole stream, so execute consumes the buffered replies
            // in order — one issue slot, no memory port.
            if self.config.decouple && elems_before == mem.count {
                self.schedule(id, mem_done.max(self.now + 1));
                self.vfetch_forget(id);
                self.stats.vfetch_drains += 1;
                issued_count += 1;
                slots -= 1;
                continue;
            }
            let mut elems = elems_before;
            if self.config.stream_batch && mem.count > 1 {
                // Batched path: hand the whole element group for this
                // cycle to the memory system in one call (identical
                // timing and statistics to the per-element loop below —
                // enforced by the differential suite).
                let want = (mem.count - elems).min(slots.min(usize::from(u8::MAX)) as u8);
                let reply = self.mem.request_stream(
                    self.now,
                    StreamRequest {
                        tid: tid as u8,
                        base: mem.elem_addr(elems),
                        stride: mem.stride,
                        count: want,
                        size: mem.size,
                        kind,
                    },
                );
                elems += reply.issued;
                slots -= reply.issued as usize;
                mem_done = mem_done.max(reply.done_at);
                match reply.stall {
                    Some(Stall::PortBusy) => {
                        self.stats.mem_stalls += 1;
                        slots = 0; // ports exhausted this cycle
                    }
                    Some(_) => self.stats.mem_stalls += 1,
                    None => {}
                }
            } else {
                while elems < mem.count && slots > 0 {
                    let req = MemRequest {
                        tid: tid as u8,
                        addr: mem.elem_addr(elems),
                        size: mem.size,
                        kind,
                    };
                    match self.mem.request(self.now, req) {
                        Ok(reply) => {
                            elems += 1;
                            slots -= 1;
                            mem_done = mem_done.max(reply.done_at);
                        }
                        Err(Stall::PortBusy) => {
                            self.stats.mem_stalls += 1;
                            slots = 0; // ports exhausted this cycle
                            break;
                        }
                        Err(_) => {
                            self.stats.mem_stalls += 1;
                            break;
                        }
                    }
                }
            }
            let d = &mut self.slab[id as usize];
            d.mem_elems_issued = elems;
            d.done_at = mem_done;
            if elems > elems_before {
                issued_count += 1;
            }
            if elems == mem.count {
                self.schedule(id, mem_done.max(self.now + 1));
                // Fully issued: drop from the queue (hole compacted).
                // A partially run-ahead stream finished on the demand
                // path leaves the access queue here.
                if self.config.decouple {
                    self.vfetch_forget(id);
                }
            } else {
                // Ready but port/MSHR/write-buffer limited: keep, and
                // make sure the next scan starts at or before it.
                cursor_stop.get_or_insert(write);
                self.issue_blocked_ready = true;
                keep_entry(&mut queue, &mut write, pos, e);
            }
        }
        let resume = cursor_stop.unwrap_or(write);
        close_holes(&mut queue, write, pos);
        self.queues[qi] = queue;
        self.scan_from[qi] = resume;
        issued_count
    }

    /// Step the decoupled vector-fetch unit: issue stream element
    /// groups for the oldest queued vector loads ahead of execute,
    /// strictly in order, through whatever memory ports demand issue
    /// left free this cycle. Only the first
    /// [`CpuConfig::decouple_depth`] entries — the run-ahead window,
    /// which doubles as the vector-data-queue capacity since a fully
    /// issued stream keeps its slot until execute drains it — are
    /// eligible; a stalled entry (ports, MSHR headroom) blocks the
    /// younger entries behind it. Returns the elements issued early
    /// this cycle.
    fn vfetch_run(&mut self) -> u64 {
        if !self.config.decouple || self.vfetch.is_empty() {
            return 0;
        }
        self.stats.vfetch_cycles += 1;
        self.stats.vfetch_occupancy_sum += self.vfetch.len() as u64;
        let window = self.config.decouple_depth.min(self.vfetch.len());
        let mut issued_total = 0u64;
        for i in 0..window {
            let e = self.vfetch[i];
            let d = &self.slab[e.id as usize];
            debug_assert_eq!(
                d.state,
                InstState::InQueue,
                "drained entries leave the access queue"
            );
            let Some(mem) = d.mem else {
                continue;
            };
            if d.mem_elems_issued >= mem.count {
                continue; // buffered, waiting for execute to drain
            }
            let want = mem.count - d.mem_elems_issued;
            let reply = self.mem.request_stream_runahead(
                self.now,
                StreamRequest {
                    tid: e.tid as u8,
                    base: mem.elem_addr(d.mem_elems_issued),
                    stride: mem.stride,
                    count: want,
                    size: mem.size,
                    kind: AccessKind::VectorLoad,
                },
            );
            let d = &mut self.slab[e.id as usize];
            d.mem_elems_issued += reply.issued;
            d.done_at = d.done_at.max(reply.done_at);
            let stalled = d.mem_elems_issued < mem.count;
            if reply.issued > 0 {
                self.vfetch[i].early = true;
                issued_total += u64::from(reply.issued);
            }
            if stalled {
                // Port or MSHR-headroom stall: strictly in order, so
                // nothing younger runs ahead past this entry — and the
                // idle fast-forward must not skip the retry cycles.
                self.issue_blocked_ready = true;
                break;
            }
        }
        self.stats.vfetch_runahead_elems += issued_total;
        // Run-ahead distance: entries holding early-issued elements
        // ahead of execute. Entries only move toward the queue front,
        // so every flagged entry sits inside the window — the distance
        // is bounded by the configured depth (property-tested).
        let dist = self.vfetch.iter().filter(|e| e.early).count() as u64;
        self.stats.vfetch_max_runahead = self.stats.vfetch_max_runahead.max(dist);
        if issued_total > 0 && medsim_obs::tracing() {
            medsim_obs::emit(
                self.now,
                self.obs_lane,
                medsim_obs::EventKind::VfetchIssue,
                issued_total,
            );
        }
        issued_total
    }

    /// Remove a drained (completed) vector load from the access queue.
    fn vfetch_forget(&mut self, id: u32) {
        self.vfetch.retain(|e| e.id != id);
    }

    /// Precise redirect flush: discard thread `tid`'s run-ahead state.
    /// Entries stay queued (this model redirects by stalling fetch —
    /// the queued instructions themselves are not squashed), but their
    /// early-issued elements are discarded and re-issue on the demand
    /// path, modelling the re-fetch of a buffered stream the redirect
    /// invalidated.
    fn vfetch_flush(&mut self, tid: usize) {
        let mut flushed = 0u64;
        for i in 0..self.vfetch.len() {
            let e = self.vfetch[i];
            if e.tid != tid || !e.early {
                continue;
            }
            let d = &mut self.slab[e.id as usize];
            debug_assert_eq!(d.state, InstState::InQueue);
            flushed += u64::from(d.mem_elems_issued);
            d.mem_elems_issued = 0;
            d.done_at = 0;
            self.vfetch[i].early = false;
        }
        if flushed > 0 {
            self.stats.vfetch_flushes += 1;
            self.stats.vfetch_flushed_elems += flushed;
            if medsim_obs::tracing() {
                medsim_obs::emit(
                    self.now,
                    self.obs_lane,
                    medsim_obs::EventKind::VfetchFlush,
                    flushed,
                );
            }
        }
    }

    fn dispatch(&mut self) -> usize {
        let n = self.threads.len();
        let rob = self.config.sizing.rob_per_thread;
        let queue_cap = self.config.sizing.queue_entries;
        let run_ahead_on = self.config.decouple && self.config.decouple_depth > 0;
        let mut dispatched = 0;
        let mut budget = self.config.decode_width;
        let mut tid = self.rr_cursor;
        for _ in 0..n {
            if budget == 0 {
                break;
            }
            let t = &mut self.threads[tid];
            while budget > 0 {
                let Some(inst) = t.decode_front() else {
                    break;
                };
                if t.rob_len >= rob {
                    self.stats.dispatch_rob_stalls += 1;
                    break;
                }
                let class = op_class(inst.op);
                let qi = usize::from(class.queue);
                if self.queues[qi].len() >= queue_cap {
                    self.stats.dispatch_queue_stalls += 1;
                    break;
                }
                // Rename sources first (they must see the old mappings),
                // then the destination.
                let mut srcs = [
                    self.rename.lookup_src(tid, inst.src1),
                    self.rename.lookup_src(tid, inst.src2),
                    self.rename.lookup_src(tid, inst.src3),
                    READY,
                ];
                // MOM instructions implicitly read the stream-length
                // register (integer r31, renamed through the int pool).
                if class.reads_vl {
                    srcs[3] = self
                        .rename
                        .lookup(tid, medsim_isa::regs::int(medsim_isa::regs::STREAM_LEN_REG));
                }
                let (dst, prev_dst) = match inst.dst {
                    Some(dreg) if !dreg.is_zero() => match self.rename.allocate(tid, dreg) {
                        Some((new, prev)) => (new, prev),
                        None => {
                            self.stats.dispatch_reg_stalls += 1;
                            break;
                        }
                    },
                    _ => (READY, READY),
                };

                // Branch prediction at decode: a wrong prediction blocks
                // this thread's fetch until the branch resolves.
                let mispredicted = match (class.predict, inst.branch) {
                    (Predict::Conditional, Some(b)) => {
                        !self.predictors[tid].predict_conditional(inst.pc, b.taken)
                    }
                    (Predict::Indirect, Some(b)) => {
                        !self.predictors[tid].predict_indirect(inst.pc, b.target)
                    }
                    _ => false,
                };
                // Stream loads also enter the decoupled vector-fetch
                // unit's access queue (stream addresses are known at
                // dispatch — source operands gate execute, not fetch).
                // Only MOM stream instructions decouple: a single
                // packed MMX load is one demand access with nothing to
                // run ahead of, and on the conventional hierarchy it
                // would only fight demand misses for MSHR headroom.
                // An empty window (depth 0) keeps the unit fully
                // dormant — nothing is enqueued, so not even the
                // occupancy bookkeeping can diverge from the coupled
                // machine.
                let run_ahead = run_ahead_on
                    && class.stream
                    && qi == MEM_QUEUE
                    && class.access == AccessKind::VectorLoad;

                // The thread's next ROB ring position is its slab slot.
                let mut pos = t.rob_head + t.rob_len;
                if pos >= rob {
                    pos -= rob;
                }
                let id = (tid * rob + pos) as u32;
                self.slab[id as usize] = DynInst {
                    state: InstState::InQueue,
                    tid: tid as u8,
                    kind: class.kind,
                    branch: inst.branch.is_some(),
                    mispredicted,
                    equiv: if class.stream { inst.slen } else { 1 },
                    mem_elems_issued: 0,
                    access: class.access,
                    dst,
                    prev_dst,
                    op: inst.op,
                    slen: inst.slen,
                    lat: class.lat,
                    srcs,
                    done_at: 0,
                    mem: inst.mem,
                };
                t.dec_head += 1;
                t.rob_len += 1;
                self.queues[qi].push(QueueEntry { id, srcs });
                if run_ahead {
                    self.vfetch.push_back(VFetchEntry {
                        id,
                        tid,
                        early: false,
                    });
                }
                if mispredicted {
                    // A younger misprediction takes over the block: the
                    // older branch no longer unblocks fetch.
                    t.blocked_on_branch = Some(id);
                    self.resolving &= !(1 << tid);
                }
                dispatched += 1;
                budget -= 1;
            }
            tid += 1;
            if tid == n {
                tid = 0;
            }
        }
        dispatched
    }

    /// Fetch into the decode buffers. Returns whether anything moved:
    /// a thread was selected (even a fruitless selection touches the
    /// I-cache or exhausts a stream) — when `false`, fetch is fully
    /// stalled and contributes nothing until a wakeup time.
    fn fetch(&mut self) -> bool {
        // Build the runnable set and account stall reasons in one pass
        // over the thread contexts.
        let mut runnable = 0u64;
        let (mut branch_stalls, mut icache_stalls) = (0, 0);
        // Non-short-circuit `&`: the per-thread conditions are data
        // dependent, so evaluating all of them beats branching on each.
        for (tid, t) in self.threads.iter().enumerate() {
            let live = !t.exhausted;
            let branch_blocked = t.blocked_on_branch.is_some();
            let time_blocked = t.fetch_blocked_until > self.now;
            let fits = t.decode_len() + self.config.fetch_width <= DECODE_BUF_CAP;
            runnable |= u64::from(live & !branch_blocked & !time_blocked & fits) << tid;
            branch_stalls += u64::from(live & branch_blocked);
            icache_stalls += u64::from(live & !branch_blocked & time_blocked);
        }
        self.stats.fetch_branch_stalls += branch_stalls;
        self.stats.fetch_icache_stalls += icache_stalls;
        let mut chosen = [0u8; MAX_THREADS];
        // The selection only ever picks runnable threads, so with none
        // runnable it is a no-op — skip it.
        let n_chosen = if runnable == 0 {
            0
        } else {
            let threads = &self.threads;
            select_threads(
                self.config.fetch_policy,
                runnable,
                threads.len(),
                self.rr_cursor,
                self.queues[queue_idx(QueueKind::Simd)].is_empty(),
                |t| ThreadFetchInfo {
                    icount: threads[t].icount,
                    ocount: threads[t].ocount,
                    fetched_vector_last: threads[t].fetched_vector_last,
                },
                &mut chosen[..self.config.fetch_threads.min(threads.len())],
            )
        };
        for &tid in &chosen[..n_chosen] {
            let tid = usize::from(tid);
            let t = &mut self.threads[tid];
            let mut any_vector = false;
            let (mut fetched, mut ocount) = (0, 0);
            for _ in 0..self.config.fetch_width {
                // Peek the next instruction; it is consumed only once
                // its I-cache line is available.
                if t.block_pos == t.block.len() && !t.refill() {
                    break;
                }
                let inst = &t.block[t.block_pos];
                // I-cache: a new line must be fetched before its
                // instructions can be consumed.
                let line = inst.pc & !(ICACHE_LINE - 1);
                if line != t.last_fetch_line {
                    let ready = self.mem.ifetch(self.now, tid as u8, line);
                    t.last_fetch_line = line;
                    if ready > self.now + 1 {
                        t.fetch_blocked_until = ready;
                        break;
                    }
                }
                any_vector |= inst.op.is_simd();
                fetched += 1;
                ocount += inst.equivalent_count();
                // Fetch stops at a taken control transfer.
                let taken = inst.branch.is_some_and(|b| b.taken);
                t.block_pos += 1;
                if taken {
                    break;
                }
            }
            t.icount += fetched;
            t.ocount += ocount;
            self.stats.fetched += fetched as u64;
            t.fetched_vector_last = any_vector;
        }
        self.rr_cursor += 1;
        if self.rr_cursor == self.threads.len() {
            self.rr_cursor = 0;
        }
        n_chosen > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medsim_isa::prelude::*;
    use medsim_mem::MemConfig;
    use medsim_workloads::trace::VecStream;

    fn cpu(threads: usize, isa: SimdIsa) -> Cpu {
        Cpu::new(
            CpuConfig::paper(threads, isa),
            MemSystem::new(MemConfig::ideal()),
        )
    }

    fn independent_ints(n: usize) -> Vec<Inst> {
        (0..n)
            .map(|i| {
                Inst::int_rrr(IntOp::Add, int(1 + (i % 8) as u8), int(10), int(11))
                    .at(0x1000 + 4 * i as u64)
            })
            .collect()
    }

    #[test]
    fn runs_a_simple_program_to_completion() {
        let mut c = cpu(1, SimdIsa::Mmx);
        c.attach_thread(0, Box::new(VecStream::new(independent_ints(100))));
        assert!(c.run_to_idle(10_000));
        assert_eq!(c.stats().committed(), 100);
        assert!(
            c.stats().cycles < 200,
            "100 independent adds shouldn't take {} cycles",
            c.stats().cycles
        );
    }

    #[test]
    fn ipc_bounded_by_int_issue_width() {
        let mut c = cpu(1, SimdIsa::Mmx);
        c.attach_thread(0, Box::new(VecStream::new(independent_ints(4000))));
        assert!(c.run_to_idle(100_000));
        let ipc = c.stats().ipc();
        assert!(ipc <= 4.05, "int issue width is 4: {ipc}");
        assert!(ipc > 2.0, "independent adds should flow: {ipc}");
    }

    #[test]
    fn dependent_chain_executes_serially() {
        // r1 = r1 + r1, repeated: one per cycle at best.
        let insts: Vec<Inst> = (0..500)
            .map(|i| Inst::int_rrr(IntOp::Add, int(1), int(1), int(1)).at(0x1000 + 4 * i as u64))
            .collect();
        let mut c = cpu(1, SimdIsa::Mmx);
        c.attach_thread(0, Box::new(VecStream::new(insts)));
        assert!(c.run_to_idle(100_000));
        assert!(
            c.stats().cycles >= 500,
            "dependent chain is serial: {}",
            c.stats().cycles
        );
    }

    #[test]
    fn per_thread_retirement_is_in_order() {
        // A long-latency divide followed by a cheap add: the add must not
        // commit before the divide (same thread, program order).
        let insts = vec![
            Inst::int_rrr(IntOp::Div, int(1), int(2), int(3)).at(0x1000),
            Inst::int_rrr(IntOp::Add, int(4), int(5), int(6)).at(0x1004),
        ];
        let mut c = cpu(1, SimdIsa::Mmx);
        // Step true single cycles: the idle fast-forward would jump
        // straight over the divide's latency.
        c.set_fast_forward(false);
        c.attach_thread(0, Box::new(VecStream::new(insts)));
        // Run a few cycles: the add finishes fast but cannot commit alone.
        for _ in 0..6 {
            c.cycle();
        }
        assert_eq!(
            c.stats().committed(),
            0,
            "nothing commits before the divide resolves"
        );
        assert!(c.run_to_idle(1000));
        assert_eq!(c.stats().committed(), 2);
    }

    #[test]
    fn two_threads_beat_one_on_throughput() {
        let run = |threads: usize| {
            let mut c = cpu(threads, SimdIsa::Mmx);
            for t in 0..threads {
                // Dependent chains: single-thread IPC ≈ 1, leaving room.
                let insts: Vec<Inst> = (0..2000)
                    .map(|i| {
                        Inst::int_rrr(IntOp::Add, int(1), int(1), int(2))
                            .at(0x1000 + 4 * (i % 64) as u64)
                    })
                    .collect();
                c.attach_thread(t, Box::new(VecStream::new(insts)));
            }
            assert!(c.run_to_idle(1_000_000));
            c.stats().ipc()
        };
        let one = run(1);
        let two = run(2);
        assert!(
            two > one * 1.6,
            "SMT hides dependency stalls: {one} vs {two}"
        );
    }

    #[test]
    fn mom_stream_occupies_media_unit() {
        // Two independent full streams: ⌈16/2⌉ = 8 cycles each, serialized
        // on the single media unit.
        let insts = vec![
            Inst::mom(MomOp::VaddW, stream(0), stream(1), stream(2), 16).at(0x1000),
            Inst::mom(MomOp::VaddW, stream(3), stream(4), stream(5), 16).at(0x1004),
        ];
        let mut c = cpu(1, SimdIsa::Mom);
        c.attach_thread(0, Box::new(VecStream::new(insts)));
        assert!(c.run_to_idle(1000));
        assert!(
            c.stats().cycles >= 16,
            "two 8-cycle streams serialize: {}",
            c.stats().cycles
        );
        assert_eq!(c.stats().committed_equiv(), 32, "16 + 16 equivalent ops");
    }

    #[test]
    fn mmx_pair_issues_in_parallel() {
        let insts: Vec<Inst> = (0..512)
            .map(|i| {
                Inst::mmx(MmxOp::PaddW, simd((i % 12) as u8), simd(20), simd(21))
                    .at(0x1000 + 4 * (i % 32) as u64)
            })
            .collect();
        let mut c = cpu(1, SimdIsa::Mmx);
        c.attach_thread(0, Box::new(VecStream::new(insts)));
        assert!(c.run_to_idle(100_000));
        // 512 ops at 2/cycle ≥ 256 cycles, but well under serial 512.
        assert!(
            c.stats().cycles < 450,
            "MMX dual issue: {}",
            c.stats().cycles
        );
    }

    #[test]
    fn branch_mispredictions_are_counted_and_resolved() {
        // Alternating taken/not-taken pattern on one PC is hard for the
        // first iterations; the pipeline must keep making progress.
        let mut insts = Vec::new();
        for i in 0..200 {
            insts.push(Inst::int_rrr(IntOp::Add, int(1), int(2), int(3)).at(0x1000 + (i % 4) * 16));
            insts.push(
                Inst::branch(CtlOp::Bne, int(1), i % 3 == 0, 0x1000).at(0x1004 + (i % 4) * 16),
            );
        }
        let mut c = cpu(1, SimdIsa::Mmx);
        c.attach_thread(0, Box::new(VecStream::new(insts)));
        assert!(c.run_to_idle(1_000_000));
        assert_eq!(c.stats().committed(), 400);
        assert!(c.stats().threads[0].branches == 200);
        assert!(
            c.stats().threads[0].mispredicts > 0,
            "pattern must cost something"
        );
        assert!(c.stats().mispredict_rate() < 0.9);
    }

    #[test]
    fn memory_loads_flow_through_the_cache() {
        let insts: Vec<Inst> = (0..256)
            .map(|i| {
                Inst::load(
                    MemOp::LoadW,
                    int(1 + (i % 8) as u8),
                    int(10),
                    0x10_0000 + (i as u64) * 4,
                )
                .at(0x1000 + 4 * (i % 16) as u64)
            })
            .collect();
        let mut c = Cpu::new(
            CpuConfig::paper(1, SimdIsa::Mmx),
            MemSystem::new(MemConfig::paper()),
        );
        c.attach_thread(0, Box::new(VecStream::new(insts)));
        assert!(c.run_to_idle(1_000_000));
        assert_eq!(c.stats().committed(), 256);
        assert!(c.mem().l1d_stats().accesses() >= 256);
    }

    #[test]
    fn mom_stream_load_issues_elements_over_cycles() {
        let insts = vec![Inst::mom_load(stream(0), int(1), 0x10_0000, 8, 16).at(0x1000)];
        let mut c = Cpu::new(
            CpuConfig::paper(1, SimdIsa::Mom),
            MemSystem::new(MemConfig::paper()),
        );
        c.attach_thread(0, Box::new(VecStream::new(insts)));
        assert!(c.run_to_idle(100_000));
        assert_eq!(c.stats().committed(), 1);
        assert_eq!(c.stats().committed_equiv(), 16);
        // 16 element accesses through at most 4 ports/cycle ⇒ ≥ 4 cycles.
        assert!(c.stats().cycles >= 4);
    }

    #[test]
    fn attach_after_drain_reuses_context() {
        let mut c = cpu(1, SimdIsa::Mmx);
        c.attach_thread(0, Box::new(VecStream::new(independent_ints(10))));
        assert!(c.run_to_idle(10_000));
        assert!(c.thread_idle(0));
        c.attach_thread(0, Box::new(VecStream::new(independent_ints(10))));
        assert!(!c.all_idle());
        assert!(c.run_to_idle(10_000));
        assert_eq!(c.stats().committed(), 20);
    }

    #[test]
    #[should_panic(expected = "still busy")]
    fn attach_to_busy_context_panics() {
        let mut c = cpu(1, SimdIsa::Mmx);
        c.attach_thread(0, Box::new(VecStream::new(independent_ints(100))));
        c.cycle();
        c.cycle();
        c.attach_thread(0, Box::new(VecStream::new(independent_ints(1))));
    }

    #[test]
    fn setvl_serializes_following_stream_ops() {
        // SetVl writes r31; the stream op implicitly reads it.
        let insts = vec![
            Inst::new(Op::Mom(MomOp::SetVl))
                .with_dst(int(31))
                .with_imm(8)
                .at(0x1000),
            Inst::mom(MomOp::VaddW, stream(0), stream(1), stream(2), 8).at(0x1004),
        ];
        let mut c = cpu(1, SimdIsa::Mom);
        c.attach_thread(0, Box::new(VecStream::new(insts)));
        assert!(c.run_to_idle(1000));
        assert_eq!(c.stats().committed(), 2);
    }

    #[test]
    fn fast_forward_is_invisible() {
        // A latency-heavy mix under the real memory system (long DRAM
        // gaps ⇒ plenty of idle cycles to skip): every statistic must
        // be identical with the fast-forward on and off.
        let program = || -> Vec<Inst> {
            let mut insts = Vec::new();
            for i in 0..120u64 {
                insts.push(
                    Inst::load(
                        MemOp::LoadW,
                        int(1 + (i % 6) as u8),
                        int(10),
                        0x30_0000 + i * 512,
                    )
                    .at(0x1000 + 4 * (i % 32)),
                );
                insts.push(Inst::int_rrr(IntOp::Div, int(7), int(1), int(2)).at(0x1100));
                insts.push(Inst::int_rrr(IntOp::Add, int(8), int(7), int(7)).at(0x1104));
                insts.push(Inst::branch(CtlOp::Bne, int(8), i % 3 == 0, 0x1000).at(0x1108));
            }
            insts
        };
        let run = |fast_forward: bool| {
            let mut c = Cpu::new(
                CpuConfig::paper(2, SimdIsa::Mmx),
                MemSystem::new(MemConfig::paper()),
            );
            c.set_fast_forward(fast_forward);
            c.attach_thread(0, Box::new(VecStream::new(program())));
            c.attach_thread(1, Box::new(VecStream::new(program())));
            assert!(c.run_to_idle(1_000_000));
            (
                c.stats().clone(),
                c.mem().l1d_stats().accesses(),
                c.mem().stats().l1_latency_sum,
            )
        };
        let (slow, slow_l1, slow_lat) = run(false);
        let (fast, fast_l1, fast_lat) = run(true);
        assert!(
            slow.idle_cycles > 0,
            "the mix must actually have idle cycles"
        );
        assert_eq!(slow, fast, "fast-forward must not change any statistic");
        assert_eq!(slow_l1, fast_l1);
        assert_eq!(slow_lat, fast_lat);
    }

    #[test]
    fn rob_ring_wraps_many_times_and_drains() {
        // Twenty ROBs' worth of one thread's instructions: loads,
        // dependent adds, divides and branches, so slots retire out of
        // issue order and the ring wraps repeatedly.
        let c0 = cpu(1, SimdIsa::Mmx);
        let rob = c0.config().sizing.rob_per_thread;
        let n = 20 * rob + 5;
        let insts: Vec<Inst> = (0..n as u64)
            .map(|i| {
                let pc = 0x1000 + 4 * (i % 64);
                match i % 8 {
                    0 => Inst::load(MemOp::LoadW, int(1), int(10), 0x20_0000 + 8 * i).at(pc),
                    3 => Inst::int_rrr(IntOp::Div, int(2), int(1), int(3)).at(pc),
                    7 => Inst::branch(CtlOp::Bne, int(2), i % 3 == 0, 0x1000).at(pc),
                    _ => Inst::int_rrr(IntOp::Add, int(4 + (i % 4) as u8), int(1), int(2)).at(pc),
                }
            })
            .collect();
        let mut c = cpu(1, SimdIsa::Mmx);
        c.attach_thread(0, Box::new(VecStream::new(insts)));
        assert!(c.run_to_idle(1_000_000));
        assert_eq!(c.stats().committed(), n as u64);
        assert_eq!(c.stats().threads[0].branches, n as u64 / 8);
        assert!(c.thread_idle(0));
        let t = &c.threads[0];
        assert_eq!(t.rob_len, 0, "every slot committed");
        assert_eq!(t.rob_head, n % rob, "the head advanced once per commit");
    }

    #[test]
    fn full_rob_stalls_dispatch_and_counts_each_cycle() {
        // A chain of five dependent divides (12 cycles each) heads the
        // ROB. The adds behind it write the zero register, so they take
        // no physical register, issue and complete at once, but cannot
        // commit: the 64-entry ROB fills and dispatch stalls once per
        // cycle until the chain retires. The count is the seed
        // pipeline's, so the ROB ring must stall exactly as the
        // per-thread deque did.
        let mut insts: Vec<Inst> = (0..5)
            .map(|i| Inst::int_rrr(IntOp::Div, int(1), int(1), int(3)).at(0x1000 + 4 * i))
            .collect();
        insts.extend((0..200u64).map(|i| {
            Inst::int_rrr(IntOp::Add, int(0), int(10), int(11)).at(0x1014 + 4 * (i % 32))
        }));
        let run = |fast_forward: bool| {
            let mut c = cpu(1, SimdIsa::Mmx);
            c.set_fast_forward(fast_forward);
            c.attach_thread(0, Box::new(VecStream::new(insts.clone())));
            assert!(c.run_to_idle(100_000));
            assert_eq!(c.stats().committed(), 205);
            c.stats().clone()
        };
        let stepped = run(false);
        assert_eq!(stepped.dispatch_rob_stalls, ROB_STALLS);
        assert_eq!(stepped.dispatch_queue_stalls, 0);
        assert_eq!(stepped.dispatch_reg_stalls, 0);
        assert_eq!(run(true), stepped, "the idle skip replays the same stalls");
    }

    #[test]
    fn op_class_table_is_dense_and_matches_the_op_predicates() {
        let mut seen = vec![false; OP_CLASS.len()];
        for op in Op::all() {
            let i = op_index(op);
            assert!(!seen[i], "{op:?} shares index {i}");
            seen[i] = true;
            let c = op_class(op);
            assert_eq!(*c, classify(op), "{op:?}");
            assert_eq!(usize::from(c.queue) == MEM_QUEUE, op.is_mem(), "{op:?}");
            if op.is_mem() {
                assert_eq!(c.access.is_store(), op.is_store(), "{op:?}");
            }
            let predicted = matches!(op, Op::Ctl(o) if o.is_conditional() || o.is_indirect());
            assert_eq!(c.predict != Predict::None, predicted, "{op:?}");
        }
        assert!(seen.iter().all(|&s| s), "the index is dense");
        for (op, access) in [
            (Op::Mem(MemOp::LoadW), AccessKind::ScalarLoad),
            (Op::Mem(MemOp::StoreD), AccessKind::ScalarStore),
            (Op::Mem(MemOp::Prefetch), AccessKind::Prefetch),
            (Op::Mmx(MmxOp::LoadQ), AccessKind::VectorLoad),
            (Op::Mmx(MmxOp::StoreQ), AccessKind::VectorStore),
            (Op::Mom(MomOp::VloadStride), AccessKind::VectorLoad),
            (Op::Mom(MomOp::VstoreQ), AccessKind::VectorStore),
            (Op::Mom(MomOp::Vprefetch), AccessKind::Prefetch),
        ] {
            assert_eq!(op_class(op).access, access, "{op:?}");
        }
        assert!(!op_class(Op::Mom(MomOp::SetVl)).reads_vl);
        assert!(op_class(Op::Mom(MomOp::VaddW)).reads_vl);
        assert!(!op_class(Op::Mmx(MmxOp::PaddW)).reads_vl);
    }

    /// `dispatch_rob_stalls` of the seed pipeline on the divide-chain
    /// program above.
    const ROB_STALLS: u64 = 45;

    #[test]
    fn equivalent_counting_matches_kind_buckets() {
        let insts = vec![
            Inst::int_rrr(IntOp::Add, int(1), int(2), int(3)).at(0x1000),
            Inst::mom(MomOp::VaddW, stream(0), stream(1), stream(2), 10).at(0x1004),
            Inst::mom_load(stream(3), int(1), 0x20_0000, 8, 12).at(0x1008),
        ];
        let mut c = cpu(1, SimdIsa::Mom);
        c.attach_thread(0, Box::new(VecStream::new(insts)));
        assert!(c.run_to_idle(10_000));
        assert_eq!(c.stats().committed_by_kind[0], 1);
        assert_eq!(c.stats().committed_by_kind[2], 10);
        assert_eq!(c.stats().committed_by_kind[3], 12);
        assert_eq!(c.stats().committed_equiv(), 23);
    }
}
