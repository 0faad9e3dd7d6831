//! Differential tests at the sequencer layer: [`Sequencer::run_program`]
//! (one broadcast of the compiled program, then the post-broadcast step)
//! must match the scalar [`Chain`] reference model ([`reference_sweep`])
//! plus the RVV semantics of the post step — same scalar result (checked
//! against a golden computed from the input elements), the program's
//! static microop statistics, and the same register file — for every
//! vector operation, every SEW, masked/tail windows and the worker pool.
//!
//! `block_differential` checks the CSB broadcast alone; this file adds
//! what the sequencer does on top of it: the `vredsum` fold and its
//! element-0 write, `vcpop`, `vfirst`'s scan and `vid`'s index writes.

use cape_csb::{reference_sweep, Chain, Csb, CsbGeometry, DATA_ROWS};
use cape_integration::{all_ops, seed_registers};
use cape_ucode::{CompiledOp, Sequencer, VectorOp};

/// A CSB with the shared deterministic register seeding.
fn seeded_csb(chains: usize) -> Csb {
    let mut csb = Csb::new(CsbGeometry::new(chains));
    seed_registers(&mut csb);
    csb
}

/// The low `sew` bits of a word.
fn sew_mask(sew: usize) -> u32 {
    if sew >= 32 {
        u32::MAX
    } else {
        (1u32 << sew) - 1
    }
}

/// The scalar result `op` must return on the window `[vstart, vl)` of
/// `csb` (read before the operation runs), or `None` for operations
/// without one.
fn golden_scalar(csb: &Csb, op: &VectorOp, sew: usize) -> Option<i64> {
    let window = csb.vstart()..csb.vl();
    match *op {
        VectorOp::RedSum { vs, .. } => {
            let sum = window.fold(0u32, |acc, e| acc.wrapping_add(csb.read_element(vs, e)));
            Some(i64::from(sum & sew_mask(sew)))
        }
        VectorOp::Cpop { vs } => {
            Some(window.filter(|&e| csb.read_element(vs, e) & 1 == 1).count() as i64)
        }
        VectorOp::First { vs } => Some(
            window
                .into_iter()
                .find(|&e| csb.read_element(vs, e) & 1 == 1)
                .map_or(-1, |e| e as i64),
        ),
        _ => None,
    }
}

/// Runs `op` through the sequencer on one CSB and through scalar
/// reference chains seeded with identical state, then asserts bit-exact
/// agreement of the scalar result, the recorded microop statistics and
/// every data register.
fn assert_sequencer_matches_reference(
    op: &VectorOp,
    sew: usize,
    vstart: usize,
    vl: usize,
    chains: usize,
) {
    let mut csb = seeded_csb(chains);
    csb.set_active_window(vstart, vl);

    let mut reference: Vec<Chain> = (0..chains).map(|c| csb.chain(c)).collect();
    let windows: Vec<u32> = (0..chains).map(|c| csb.window(c)).collect();
    let want_scalar = golden_scalar(&csb, op, sew);

    let compiled = CompiledOp::compile(op, sew);
    let out = Sequencer::with_width(&mut csb, sew).run_program(&compiled);
    reference_sweep(&mut reference, &windows, compiled.program().ops());

    let ctx = format!("{op:?} sew={sew} window={vstart}..{vl} chains={chains}");
    assert_eq!(out.scalar, want_scalar, "scalar result: {ctx}");
    assert_eq!(
        out.stats,
        compiled.program().stats(),
        "microop stats: {ctx}"
    );

    // The post step writes registers after the broadcast: vredsum's sum
    // lands in element 0 of vd, vid writes each active element's index.
    let geometry = csb.geometry();
    let expected = |reg: usize, e: usize| -> u32 {
        match *op {
            VectorOp::RedSum { vd, .. } if reg == vd && e == 0 => want_scalar.unwrap() as u32,
            VectorOp::Vid { vd } if reg == vd && (vstart..vl).contains(&e) => {
                e as u32 & sew_mask(sew)
            }
            _ => {
                let loc = geometry.locate(e);
                reference[loc.chain].read_element(reg, loc.col)
            }
        }
    };
    let n = csb.max_vl();
    for reg in 0..DATA_ROWS {
        let want: Vec<u32> = (0..n).map(|e| expected(reg, e)).collect();
        assert_eq!(csb.read_vector(reg, n), want, "register v{reg}: {ctx}");
    }
}

#[test]
fn every_op_matches_at_every_sew_full_window() {
    for op in &all_ops() {
        for sew in [8usize, 16, 32] {
            assert_sequencer_matches_reference(op, sew, 0, 128, 4);
        }
    }
}

#[test]
fn every_op_matches_on_masked_and_tail_windows() {
    // vstart > 0 (restart), vl < max (tail), and both at once.
    for op in &all_ops() {
        for &(vstart, vl) in &[(0usize, 77usize), (13, 128), (5, 99)] {
            assert_sequencer_matches_reference(op, 32, vstart, vl, 4);
        }
    }
}

#[test]
fn representative_ops_match_through_the_worker_pool() {
    // 600 chains with a partial window: enough active chains that the
    // CSB's threaded broadcast path engages (when the host has >1 CPU),
    // with some chains fully masked off.
    let ops = [
        VectorOp::Add {
            vd: 3,
            vs1: 1,
            vs2: 2,
        },
        VectorOp::MseqScalar {
            vd: 3,
            vs1: 1,
            rs: 0x7F,
        },
        VectorOp::RedSum { vd: 3, vs: 1 },
        VectorOp::Cpop { vs: 4 },
        VectorOp::First { vs: 4 },
        VectorOp::Merge {
            vd: 3,
            vs1: 1,
            vs2: 2,
        },
        VectorOp::Vid { vd: 3 },
    ];
    let vl = 600 * 32 - 1000;
    for op in &ops {
        assert_sequencer_matches_reference(op, 32, 3, vl, 600);
    }
}
