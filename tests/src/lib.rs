//! Cross-crate integration tests for the CAPE system live in `tests/`.
//!
//! This library holds only the fixtures several of those suites share:
//! the full operation list and the deterministic register seeding the
//! differential and parity suites sweep.

use cape_csb::Csb;
use cape_ucode::{LogicOp, VectorOp};

/// Every operation shape the sequencer accepts, with registers chosen to
/// satisfy the aliasing rules (vd=3, vs1=1, vs2=2, mask v0) and scalars
/// covering zero, small, sign-bit and all-ones specializations.
pub fn all_ops() -> Vec<VectorOp> {
    let mut ops = vec![
        VectorOp::Add {
            vd: 3,
            vs1: 1,
            vs2: 2,
        },
        VectorOp::Add {
            vd: 1,
            vs1: 1,
            vs2: 2,
        }, // vd aliases vs1
        VectorOp::Add {
            vd: 2,
            vs1: 1,
            vs2: 2,
        }, // vd aliases vs2
        VectorOp::Sub {
            vd: 3,
            vs1: 1,
            vs2: 2,
        },
        VectorOp::Sub {
            vd: 2,
            vs1: 1,
            vs2: 2,
        }, // vd aliases the subtrahend
        VectorOp::Mul {
            vd: 3,
            vs1: 1,
            vs2: 2,
        },
        VectorOp::And {
            vd: 3,
            vs1: 1,
            vs2: 2,
        },
        VectorOp::Or {
            vd: 3,
            vs1: 1,
            vs2: 2,
        },
        VectorOp::Xor {
            vd: 3,
            vs1: 1,
            vs2: 2,
        },
        VectorOp::Mseq {
            vd: 3,
            vs1: 1,
            vs2: 2,
        },
        VectorOp::Msne {
            vd: 3,
            vs1: 1,
            vs2: 2,
        },
        VectorOp::Mslt {
            vd: 3,
            vs1: 1,
            vs2: 2,
            signed: false,
        },
        VectorOp::Mslt {
            vd: 3,
            vs1: 1,
            vs2: 2,
            signed: true,
        },
        VectorOp::MinMax {
            vd: 3,
            vs1: 1,
            vs2: 2,
            max: false,
            signed: false,
        },
        VectorOp::MinMax {
            vd: 3,
            vs1: 1,
            vs2: 2,
            max: true,
            signed: true,
        },
        VectorOp::Macc {
            vd: 3,
            vs1: 1,
            vs2: 2,
        },
        VectorOp::Mv { vd: 3, vs: 1 },
        VectorOp::Merge {
            vd: 3,
            vs1: 1,
            vs2: 2,
        },
        VectorOp::RedSum { vd: 3, vs: 1 },
        VectorOp::Cpop { vs: 4 },
        VectorOp::First { vs: 4 },
        VectorOp::Vid { vd: 3 },
        VectorOp::Increment { vd: 3 },
    ];
    for rs in [0u32, 1, 0x7F, 0x8000_0001, u32::MAX] {
        ops.extend([
            VectorOp::AddScalar { vd: 3, vs1: 1, rs },
            VectorOp::SubScalar { vd: 3, vs1: 1, rs },
            VectorOp::RsubScalar { vd: 3, vs1: 1, rs },
            VectorOp::MulScalar { vd: 3, vs1: 1, rs },
            VectorOp::MseqScalar { vd: 3, vs1: 1, rs },
            VectorOp::MsneScalar { vd: 3, vs1: 1, rs },
            VectorOp::MsltScalar {
                vd: 3,
                vs1: 1,
                rs,
                signed: false,
            },
            VectorOp::MsltScalar {
                vd: 3,
                vs1: 1,
                rs,
                signed: true,
            },
            VectorOp::MinMaxScalar {
                vd: 3,
                vs1: 1,
                rs,
                max: false,
                signed: true,
            },
            VectorOp::MinMaxScalar {
                vd: 3,
                vs1: 1,
                rs,
                max: true,
                signed: false,
            },
            VectorOp::LogicScalar {
                op: LogicOp::And,
                vd: 3,
                vs1: 1,
                rs,
            },
            VectorOp::LogicScalar {
                op: LogicOp::Or,
                vd: 3,
                vs1: 1,
                rs,
            },
            VectorOp::LogicScalar {
                op: LogicOp::Xor,
                vd: 3,
                vs1: 1,
                rs,
            },
            VectorOp::Broadcast { vd: 3, rs },
        ]);
    }
    for sh in [0u32, 1, 7, 31, 35] {
        ops.extend([
            VectorOp::ShiftLeft { vd: 3, vs: 1, sh },
            VectorOp::ShiftRight { vd: 3, vs: 1, sh },
            VectorOp::ShiftRightArith { vd: 3, vs: 1, sh },
        ]);
    }
    ops
}

/// Seeds a CSB's registers deterministically: pseudorandom words in
/// v0..v3 (v0 doubles as the mask) and a sparse bit pattern in v4 (for
/// `vfirst`/`vcpop`).
pub fn seed_registers(csb: &mut Csb) {
    let n = csb.max_vl();
    let mut state = 0x9E37_79B9_u32;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 17;
        state ^= state << 5;
        state
    };
    for reg in [0usize, 1, 2, 3] {
        let vals: Vec<u32> = (0..n).map(|_| next()).collect();
        csb.write_vector(reg, &vals);
    }
    let sparse: Vec<u32> = (0..n).map(|e| u32::from(e % 97 == 41)).collect();
    csb.write_vector(4, &sparse);
}
