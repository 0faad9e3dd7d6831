//! Release gate for the block-SoA kernel layer: a fast differential
//! harness plus a coarse performance ratio check.
//!
//! 1. **Differential:** representative vector ops (bit-serial adder,
//!    signed compare, reduction, scalar compare) run through the
//!    block-backed [`Csb`] and through scalar reference [`Chain`]s
//!    ([`reference_sweep`]) seeded with identical state, on full and
//!    partial windows; every reduction sum and every chain's final state
//!    must be bit-exact.
//! 2. **Ratio:** a whole `vadd.vv` program through the block path must
//!    be no slower than the scalar chain-at-a-time broadcast sweep it
//!    replaced, with a generous 1.2× noise margin.
//!
//! Exits non-zero (panics) on any mismatch, so CI can run it as-is.

use std::time::Instant;

use cape_csb::{reference_sweep, Chain, Csb, CsbGeometry};
use cape_ucode::{CompiledOp, VectorOp};

const CHAINS: usize = 1024;

/// Deterministically seeded CSB (same scheme as the differential tests).
fn seeded_csb() -> Csb {
    let mut csb = Csb::new(CsbGeometry::new(CHAINS));
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
    csb
}

fn differential(op: &VectorOp, vstart: usize, vl: usize) {
    let mut csb = seeded_csb();
    csb.set_active_window(vstart, vl);
    let mut reference: Vec<Chain> = (0..CHAINS).map(|c| csb.chain(c)).collect();
    let windows: Vec<u32> = (0..CHAINS).map(|c| csb.window(c)).collect();

    let compiled = CompiledOp::compile(op, 32);
    let block_sums = csb.execute_program(compiled.program());
    let ref_sums = reference_sweep(&mut reference, &windows, compiled.program().ops());

    let ctx = format!("{op:?} window={vstart}..{vl}");
    assert_eq!(block_sums, ref_sums, "reduction sums diverged: {ctx}");
    for (c, want) in reference.iter().enumerate() {
        assert_eq!(&csb.chain(c), want, "chain {c} diverged: {ctx}");
    }
    println!("  ok: {ctx}");
}

fn main() {
    println!("kernel-smoke: block-SoA kernels vs scalar Chain reference");
    println!("[1/2] differential ({CHAINS} chains)");
    let ops = [
        VectorOp::Add {
            vd: 3,
            vs1: 1,
            vs2: 2,
        },
        VectorOp::Mslt {
            vd: 3,
            vs1: 1,
            vs2: 2,
            signed: true,
        },
        VectorOp::RedSum { vd: 3, vs: 1 },
        VectorOp::MseqScalar {
            vd: 3,
            vs1: 1,
            rs: 0x7F,
        },
    ];
    let max_vl = CHAINS * 32;
    for op in &ops {
        differential(op, 0, max_vl); // full window
        differential(op, 7, max_vl * 6 / 10); // restart + tail gating
    }

    println!("[2/2] coarse ratio (vadd.vv, {CHAINS} chains, best of 5)");
    let compiled = CompiledOp::compile(&ops[0], 32);
    let iters = 5;

    let mut csb = seeded_csb();
    let mut block_best = u128::MAX;
    for _ in 0..iters {
        let t = Instant::now();
        csb.execute_program(compiled.program());
        block_best = block_best.min(t.elapsed().as_nanos());
    }

    let seed = seeded_csb();
    let mut reference: Vec<Chain> = (0..CHAINS).map(|c| seed.chain(c)).collect();
    let windows: Vec<u32> = (0..CHAINS).map(|c| seed.window(c)).collect();
    let mut scalar_best = u128::MAX;
    for _ in 0..iters {
        let t = Instant::now();
        reference_sweep(&mut reference, &windows, compiled.program().ops());
        scalar_best = scalar_best.min(t.elapsed().as_nanos());
    }

    let ratio = block_best as f64 / scalar_best as f64;
    println!("  block  {block_best} ns");
    println!("  scalar {scalar_best} ns");
    println!("  ratio  {ratio:.3} (must be <= 1.2)");
    assert!(
        ratio <= 1.2,
        "block kernel path slower than the scalar sweep: {block_best} ns vs {scalar_best} ns"
    );
    println!("kernel-smoke: PASS");
}
