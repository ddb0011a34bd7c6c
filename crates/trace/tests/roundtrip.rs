//! Property/fuzz tests of the packed encoding: random instruction
//! sequences round-trip bit-identically, and the real workload suite
//! packs within the ≤ 10 B/inst budget the trace cache's admission
//! estimate assumes.

use medsim_isa::prelude::*;
use medsim_trace::{PackedStream, PackedTrace};
use medsim_workloads::trace::InstStream;
use medsim_workloads::{Benchmark, SimdIsa, StreamIter, Workload, WorkloadSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn arb_reg(rng: &mut SmallRng) -> Option<LogicalReg> {
    if rng.gen_bool(0.25) {
        return None;
    }
    let class = RegClass::ALL[rng.gen_range(0..5usize)];
    let index: u8 = rng.gen_range(0..32);
    Some(LogicalReg {
        class,
        index: index % class.logical_count(),
    })
}

/// Edge immediates first, then uniform draws — exercises both the
/// 14-bit architectural field and the RAW_IMM sidecar path.
fn arb_imm(rng: &mut SmallRng, case: usize) -> i32 {
    const EDGES: [i32; 8] = [
        0,
        1,
        -1,
        8191,  // IMM_MAX
        -8192, // IMM_MIN
        8192,  // first value that no longer fits
        i32::MAX,
        i32::MIN,
    ];
    if case < EDGES.len() {
        EDGES[case]
    } else if rng.gen_bool(0.5) {
        rng.gen_range(-8192..8192)
    } else {
        rng.gen_range(i32::MIN..i32::MAX)
    }
}

fn arb_inst(rng: &mut SmallRng, ops: &[Op], case: usize, pc: &mut u64) -> Inst {
    let op = ops[rng.gen_range(0..ops.len())];
    let slen: u8 = rng.gen_range(1..MAX_STREAM_LEN + 1);
    let mut inst = Inst::new(op)
        .at(*pc)
        .with_imm(arb_imm(rng, case))
        .with_slen(slen);
    inst.dst = arb_reg(rng);
    inst.src1 = arb_reg(rng);
    inst.src2 = arb_reg(rng);
    inst.src3 = arb_reg(rng);
    if rng.gen_bool(0.35) {
        inst.mem = Some(MemRef {
            addr: rng.gen_range(0..u64::MAX),
            size: [1u8, 2, 4, 8][rng.gen_range(0..4usize)],
            stride: rng.gen_range(-(1 << 20)..(1 << 20)),
            count: rng.gen_range(0..256usize) as u8,
            is_store: rng.gen_bool(0.5),
        });
    }
    if rng.gen_bool(0.2) {
        inst.branch = Some(BranchInfo {
            taken: rng.gen_bool(0.5),
            target: rng.gen_range(0..u64::MAX),
        });
    }
    // Mostly sequential PCs with occasional far jumps, like real traces.
    *pc = if rng.gen_bool(0.9) {
        pc.wrapping_add(4)
    } else {
        rng.gen_range(0..u64::MAX)
    };
    inst
}

#[test]
fn random_sequences_round_trip_bit_identical() {
    let ops: Vec<Op> = Op::all().collect();
    let mut rng = SmallRng::seed_from_u64(0x7ace_5eed);
    for round in 0..64 {
        let len = rng.gen_range(1..400usize);
        let mut pc = rng.gen_range(0..u64::MAX);
        let insts: Vec<Inst> = (0..len)
            .map(|case| arb_inst(&mut rng, &ops, case, &mut pc))
            .collect();
        let packed = PackedTrace::pack(insts.iter().copied());
        assert_eq!(packed.len(), insts.len());
        assert_eq!(packed.unpack(), insts, "round {round}");

        // The streaming decoder agrees with the batch decoder.
        let mut stream = PackedStream::new(Arc::new(packed));
        for (i, want) in insts.iter().enumerate() {
            assert_eq!(
                stream.next_inst().as_ref(),
                Some(want),
                "round {round} inst {i}"
            );
        }
        assert!(stream.next_inst().is_none());
    }
}

#[test]
fn max_stream_len_and_all_register_classes_round_trip() {
    let mut insts = Vec::new();
    for slen in 1..=MAX_STREAM_LEN {
        insts.push(
            Inst::new(Op::Mom(MomOp::AccMacW))
                .at(u64::from(slen) * 4)
                .with_dst(acc(1))
                .with_srcs(&[stream(15), stream(3), simd(31)])
                .with_slen(slen),
        );
    }
    for class_probe in [
        Inst::int_rrr(IntOp::Add, int(31), int(0), int(15)),
        Inst::fp_rrr(FpOp::FMadd, fp(31), fp(0), fp(15)),
        Inst::mmx(MmxOp::PaddsW, simd(31), simd(0), simd(15)),
        Inst::mom(MomOp::VaddW, stream(15), stream(0), stream(7), 16),
    ] {
        insts.push(class_probe.at(0x8000));
    }
    let packed = PackedTrace::pack(insts.iter().copied());
    assert_eq!(packed.unpack(), insts);
}

/// Acceptance gate: ≤ 10 resident B/inst (index plane, table and
/// sidecar) amortized over the paper's eight-program suite, under both
/// ISAs, with a lossless round-trip of every stream. The trace cache
/// admits traces at this estimate, so it must stay conservative.
#[test]
fn suite_packs_under_10_bytes_per_inst() {
    let spec = WorkloadSpec {
        scale: 2e-4,
        seed: 0x5eed_2001,
    };
    let workload = Workload::new(spec);
    let mut total_bytes = 0usize;
    let mut total_insts = 0usize;
    for isa in SimdIsa::ALL {
        for slot in 0..Benchmark::PAPER_ORDER.len() {
            let insts: Vec<Inst> = StreamIter(workload.stream_for_slot(slot, isa)).collect();
            let packed = PackedTrace::pack(insts.iter().copied());
            assert_eq!(packed.unpack(), insts, "{isa} slot {slot} lossless");
            total_bytes += packed.packed_bytes();
            total_insts += packed.len();
            eprintln!(
                "{isa} slot {slot} ({}): {} insts, {:.2} B/inst",
                Workload::slot_benchmark(slot).name(),
                packed.len(),
                packed.bytes_per_inst()
            );
        }
    }
    assert!(total_insts > 100_000, "suite large enough to be meaningful");
    let amortized = total_bytes as f64 / total_insts as f64;
    eprintln!("suite amortized: {amortized:.2} B/inst over {total_insts} insts");
    assert!(
        amortized <= 10.0,
        "packed suite at {amortized:.2} B/inst exceeds the 10 B budget"
    );
}
