//! Fusion windows: several compiled vector operations concatenated into
//! one super-program so the whole window costs a single CSB broadcast and
//! a single join.
//!
//! The CP/VCU boundary buffers back-to-back vector instructions whose
//! [`PostProcess`] is [`PostProcess::None`] (nothing crosses back to the
//! scalar side between them) until a fusion barrier — a scalar read of a
//! vector result, a VMU load/store, an *effective* `vl`/`vstart` change,
//! or a slice preemption point. A `vsetvli`/`vsetstart` that provably
//! leaves the active window unchanged is a no-op marker, not a barrier,
//! and SEW transitions fuse freely: width only parameterizes each part's
//! own lowering and its (absent) post-processing, so a mixed-SEW window
//! is an ordinary concatenation of plans compiled at their own widths.
//!
//! [`fuse_window`] compiles the buffered ops' lowered programs — in
//! issue order ([`MicroProgram::windowed`](cape_csb::MicroProgram::windowed)),
//! or through the v2 window compiler
//! ([`MicroProgram::windowed_scheduled`](cape_csb::MicroProgram::windowed_scheduled)),
//! which schedules the parts over their RAW/WAR/WAW dependence graph and
//! then re-runs step fusion across the op seams plus the cross-op
//! plan-level peepholes (liveness-cascading dead-store elimination,
//! adjacent `TagCombine` merging).
//!
//! Fused windows are cacheable exactly like single compiled ops: the
//! program depends only on the `(VectorOp, SEW)` sequence, never on CSB
//! data, so the VCU's program cache keys them by a fingerprint of that
//! sequence (`cape_vcu::window_fingerprint`).

use cape_csb::MicroProgram;

use crate::sequencer::{CompiledOp, PostProcess};

/// Compiles several buffered operations into one fused window program.
///
/// The result replays every part with one broadcast and one join, after
/// cross-seam step fusion and the plan-level peephole passes. With
/// `reorder` false the parts are concatenated in issue order (the PR 9
/// pipeline, [`MicroProgram::windowed`](cape_csb::MicroProgram::windowed));
/// with `reorder` true the window compiler builds the RAW/WAR/WAW
/// dependence graph over subarray rows, tags and accumulators and
/// list-schedules independent parts before re-running the (upgraded)
/// peepholes
/// ([`MicroProgram::windowed_scheduled`](cape_csb::MicroProgram::windowed_scheduled)).
/// Either way, CSB state afterwards is bit-identical to running the
/// parts back to back.
///
/// Parts may disagree on element width: every fusible op has
/// [`PostProcess::None`], and SEW only parameterizes post-processing and
/// each part's already-lowered microops, so a mixed-SEW window is just a
/// concatenation of plans that were each compiled at their own width.
/// (The fused op carries the first part's width; nothing reads it.)
///
/// # Panics
///
/// Panics if `parts` is empty or if any part's post-process step is not
/// [`PostProcess::None`] (such ops are fusion barriers — their results
/// cross back to the scalar side and must execute unfused).
pub fn fuse_window(parts: &[&CompiledOp], reorder: bool) -> CompiledOp {
    let first = parts.first().expect("fusion window must be non-empty");
    let width = first.width();
    for p in parts {
        assert_eq!(
            p.post(),
            PostProcess::None,
            "ops with scalar post-processing are fusion barriers"
        );
    }
    let programs: Vec<&MicroProgram> = parts.iter().map(|p| p.program()).collect();
    let program = if reorder {
        MicroProgram::windowed_scheduled(&programs)
    } else {
        MicroProgram::windowed(&programs)
    };
    CompiledOp::from_parts(program, PostProcess::None, width)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequencer::Sequencer;
    use crate::vop::VectorOp;
    use cape_csb::{Csb, CsbGeometry};

    fn ops() -> Vec<VectorOp> {
        vec![
            VectorOp::Add {
                vd: 3,
                vs1: 1,
                vs2: 2,
            },
            VectorOp::Xor {
                vd: 4,
                vs1: 3,
                vs2: 1,
            },
            VectorOp::Sub {
                vd: 5,
                vs1: 4,
                vs2: 2,
            },
            VectorOp::AddScalar {
                vd: 6,
                vs1: 5,
                rs: 7,
            },
        ]
    }

    fn seeded() -> Csb {
        let mut csb = Csb::new(CsbGeometry::new(2));
        csb.write_vector(1, &[10, 20, 30, 0xdead, 5]);
        csb.write_vector(2, &[1, 2, 3, 4, 5]);
        csb.set_active_window(1, 5);
        csb
    }

    #[test]
    fn fused_window_matches_back_to_back_execution() {
        let parts: Vec<CompiledOp> = ops().iter().map(|op| CompiledOp::compile(op, 32)).collect();

        let mut baseline = seeded();
        {
            let mut seq = Sequencer::new(&mut baseline);
            for p in &parts {
                seq.run_program(p);
            }
        }

        for reorder in [false, true] {
            let mut fused_csb = seeded();
            let fused = fuse_window(&parts.iter().collect::<Vec<_>>(), reorder);
            {
                let mut seq = Sequencer::new(&mut fused_csb);
                let outcome = seq.run_program(&fused);
                assert_eq!(outcome.scalar, None);
            }
            assert_eq!(
                baseline.save_registers(),
                fused_csb.save_registers(),
                "reorder={reorder}"
            );
        }
    }

    #[test]
    fn mixed_sew_window_matches_back_to_back_execution() {
        // The same dependence chain compiled at alternating widths: a
        // genuinely mixed-SEW window, fused without a barrier.
        let widths = [8usize, 16, 8, 32];
        let parts: Vec<CompiledOp> = ops()
            .iter()
            .zip(widths)
            .map(|(op, w)| CompiledOp::compile(op, w))
            .collect();

        let mut baseline = seeded();
        {
            let mut seq = Sequencer::new(&mut baseline);
            for p in &parts {
                seq.run_program(p);
            }
        }

        for reorder in [false, true] {
            let mut fused_csb = seeded();
            let fused = fuse_window(&parts.iter().collect::<Vec<_>>(), reorder);
            Sequencer::new(&mut fused_csb).run_program(&fused);
            assert_eq!(
                baseline.save_registers(),
                fused_csb.save_registers(),
                "reorder={reorder}"
            );
        }
    }

    #[test]
    fn dead_intermediate_shrinks_the_fused_plan() {
        // v3 is written by the add, never read, then fully overwritten by
        // the broadcast (full-window writes) — the add's stores are dead.
        let seq = [
            VectorOp::Add {
                vd: 3,
                vs1: 1,
                vs2: 2,
            },
            VectorOp::Broadcast { vd: 3, rs: 0xab },
        ];
        let parts: Vec<CompiledOp> = seq.iter().map(|op| CompiledOp::compile(op, 32)).collect();
        let total: usize = parts.iter().map(|p| p.program().plan_len()).sum();
        let fused = fuse_window(&parts.iter().collect::<Vec<_>>(), false);
        assert!(
            fused.program().plan_len() < total,
            "cross-op dead-store elimination should shrink the fused plan ({} vs {total})",
            fused.program().plan_len()
        );
        assert!(fused.program().dead_stores() > 0, "the win is measurable");
        let scheduled = fuse_window(&parts.iter().collect::<Vec<_>>(), true);
        assert!(
            scheduled.program().dead_stores() >= fused.program().dead_stores(),
            "the v2 pipeline retires at least as much on real lowerings"
        );
        // The *op* list stays the unoptimized concatenation so recorded
        // stats (cycles, energy, golden replay) match per-op execution.
        assert_eq!(
            fused.program().len(),
            parts.iter().map(|p| p.program().len()).sum::<usize>()
        );

        let mut baseline = seeded();
        {
            let mut s = Sequencer::new(&mut baseline);
            for p in &parts {
                s.run_program(p);
            }
        }
        let mut fused_csb = seeded();
        Sequencer::new(&mut fused_csb).run_program(&fused);
        assert_eq!(baseline.save_registers(), fused_csb.save_registers());
    }

    #[test]
    #[should_panic(expected = "fusion barriers")]
    fn reduction_ops_refuse_to_fuse() {
        let add = CompiledOp::compile(
            &VectorOp::Add {
                vd: 3,
                vs1: 1,
                vs2: 2,
            },
            32,
        );
        let red = CompiledOp::compile(&VectorOp::RedSum { vd: 4, vs: 3 }, 32);
        fuse_window(&[&add, &red], false);
    }
}
