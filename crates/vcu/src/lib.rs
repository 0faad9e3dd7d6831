//! CAPE's Vector Control Unit (VCU, Section V-D of the paper).
//!
//! The VCU receives committed vector instructions from the control
//! processor, loads the corresponding truth table into the (distributed)
//! chain controllers over the pipelined global command bus, and sequences
//! the CSB microoperations. This crate layers the *timing* model on top
//! of `cape-ucode`'s functional sequencer:
//!
//! * **Instruction cycles** come from Table I's closed-form counts for
//!   the instructions the paper lists (e.g. `vadd` = 8n+2), and from the
//!   emulator's exact microop count for the rest (`.vx` specializations,
//!   shifts, `vcpop`, …).
//! * **Global command distribution** adds a constant pipelined overhead
//!   per vector instruction, growing with the H-tree depth (i.e. with
//!   the chain count) — the effect that caps the text-processing
//!   applications' scalability in Section VI-E.
//! * **Reductions** add the reduction-tree drain latency
//!   (5 pipeline stages at 1,024 chains, Section VI-C).
//!
//! [`Vcu::execute`] is the one entry point: it looks the instruction's
//! compiled program up in a [`ProgramCache`] (compiling on a miss),
//! broadcasts it with
//! [`Csb::execute_program`](cape_csb::Csb::execute_program), and
//! reports malformed operations as a typed [`SequencerError`]. A fusion
//! window that defers its broadcast charges the same cycles up front
//! through [`Vcu::plan_cycles`]; fused windows are cached under
//! [`window_fingerprint`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;

use cape_csb::{Csb, MicroOpStats, ReductionTree};
use cape_ucode::metrics::{extension_cycles, paper_row};
use cape_ucode::{Sequencer, SequencerError, VectorOp};
use serde::{Deserialize, Serialize};

pub use cache::{window_fingerprint, ProgramCache, TenantCacheStats};

/// Result of executing one vector instruction through the VCU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VcuResult {
    /// Modeled CSB cycles, including command distribution and reduction
    /// drain.
    pub cycles: u64,
    /// Scalar result for reductions and mask queries.
    pub scalar: Option<i64>,
    /// Microops the instruction emitted (energy accounting input).
    pub stats: MicroOpStats,
}

/// The vector control unit's timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Vcu {
    cmd_dist_cycles: u64,
    tree_stages: u64,
}

impl Vcu {
    /// Builds the VCU model for a CSB with `num_chains` chains.
    ///
    /// The command-distribution overhead models the pipelined Metal-4
    /// H-tree from the global control unit to every chain controller: one
    /// pipeline stage per two tree levels plus setup, so it grows with
    /// log2 of the chain count.
    pub fn new(num_chains: usize) -> Self {
        assert!(num_chains > 0, "VCU needs at least one chain");
        let levels = usize::BITS - (num_chains - 1).leading_zeros();
        Self {
            cmd_dist_cycles: u64::from(levels.div_ceil(2)) + 2,
            tree_stages: u64::from(ReductionTree::new(num_chains).stages()),
        }
    }

    /// Constant command-distribution overhead charged per vector
    /// instruction.
    pub fn cmd_dist_cycles(&self) -> u64 {
        self.cmd_dist_cycles
    }

    /// Reduction-tree pipeline depth.
    pub fn tree_stages(&self) -> u64 {
        self.tree_stages
    }

    /// Executes a vector operation at element width `sew_bits` (SEW = 8,
    /// 16 or 32; narrow elements walk fewer bit positions, Section V-A)
    /// and returns its modeled cost.
    ///
    /// The compiled microop program is looked up in `cache` (compiling
    /// on a miss) and broadcast to the CSB with one fan-out for the whole
    /// program; the timing model is then layered over its statistics.
    ///
    /// # Errors
    ///
    /// Malformed operations (unsupported SEW, destination aliasing a
    /// source) surface as the [`SequencerError`] from
    /// [`ProgramCache::try_get_or_compile`] and leave the CSB untouched,
    /// so a long-running host can fail the one bad job and keep serving.
    pub fn execute(
        &self,
        csb: &mut Csb,
        op: &VectorOp,
        sew_bits: u32,
        cache: &mut ProgramCache,
    ) -> Result<VcuResult, SequencerError> {
        let compiled = cache.try_get_or_compile(op, sew_bits)?;
        let outcome = Sequencer::with_width(csb, sew_bits as usize).run_program(compiled);
        Ok(VcuResult {
            cycles: self.plan_cycles(op, &outcome.stats, sew_bits),
            scalar: outcome.scalar,
            stats: outcome.stats,
        })
    }

    /// Modeled cycle cost of one instruction given its (data-independent)
    /// microop statistics — exactly what [`Vcu::execute`] would charge,
    /// without executing anything.
    ///
    /// Microop emission never inspects CSB data, so the statistics of a
    /// compiled program
    /// ([`MicroProgram::stats`](cape_csb::MicroProgram::stats)) fully
    /// determine the instruction's timing. This is what lets a fusion
    /// window charge each buffered instruction's cycles at issue while
    /// deferring its broadcast: the deferred execution can't change the
    /// bill.
    pub fn plan_cycles(&self, op: &VectorOp, stats: &MicroOpStats, sew_bits: u32) -> u64 {
        let base = self.base_cycles(op, stats, sew_bits);
        let reduction_drain = if self.uses_reduction_tree(op) {
            self.tree_stages
        } else {
            0
        };
        base + reduction_drain + self.cmd_dist_cycles
    }

    fn uses_reduction_tree(&self, op: &VectorOp) -> bool {
        matches!(
            op,
            VectorOp::RedSum { .. } | VectorOp::Cpop { .. } | VectorOp::First { .. }
        )
    }

    /// Cycle count before distribution/reduction overheads: Table I's
    /// formula where the paper gives one for this exact instruction form,
    /// the emulator's microop count otherwise.
    fn base_cycles(&self, op: &VectorOp, stats: &MicroOpStats, sew_bits: u32) -> u64 {
        let kind = op.kind();
        let table_applies = match op {
            // Table I lists the .vv forms of these...
            VectorOp::Add { .. }
            | VectorOp::Sub { .. }
            | VectorOp::Mul { .. }
            | VectorOp::And { .. }
            | VectorOp::Or { .. }
            | VectorOp::Xor { .. }
            | VectorOp::Mseq { .. }
            | VectorOp::Mslt { .. }
            | VectorOp::Merge { .. }
            | VectorOp::RedSum { .. } => true,
            // ...and vmseq.vx explicitly.
            VectorOp::MseqScalar { .. } => true,
            _ => false,
        };
        if table_applies {
            if let Some(row) = paper_row(kind) {
                return row.total_cycles.eval(sew_bits);
            }
        }
        if let Some(formula) = extension_cycles(kind) {
            return formula.eval(sew_bits);
        }
        // Scalar-specialized forms and anything else: the emulator's
        // exact microop count (each microop is one CSB cycle).
        stats.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cape_csb::CsbGeometry;

    fn csb() -> Csb {
        let mut csb = Csb::new(CsbGeometry::new(1024));
        let a: Vec<u32> = (0..256).collect();
        csb.write_vector(1, &a);
        csb.write_vector(2, &a);
        csb
    }

    /// Executes `op` at `sew` bits through a fresh program cache.
    fn run_sew(vcu: &Vcu, csb: &mut Csb, op: VectorOp, sew: u32) -> VcuResult {
        vcu.execute(csb, &op, sew, &mut ProgramCache::default())
            .unwrap()
    }

    fn run(vcu: &Vcu, csb: &mut Csb, op: VectorOp) -> VcuResult {
        run_sew(vcu, csb, op, 32)
    }

    const ADD: VectorOp = VectorOp::Add {
        vd: 3,
        vs1: 1,
        vs2: 2,
    };

    #[test]
    fn paper_configuration_overheads() {
        let vcu = Vcu::new(1024);
        assert_eq!(vcu.tree_stages(), 5);
        assert_eq!(vcu.cmd_dist_cycles(), 7);
        // CAPE131k: deeper tree, longer distribution.
        let big = Vcu::new(4096);
        assert!(big.cmd_dist_cycles() > vcu.cmd_dist_cycles());
        assert_eq!(big.tree_stages(), 6);
    }

    #[test]
    fn vadd_uses_table_one_cycles() {
        let vcu = Vcu::new(1024);
        let r = run(&vcu, &mut csb(), ADD);
        // 8n+2 = 258 plus command distribution.
        assert_eq!(r.cycles, 258 + vcu.cmd_dist_cycles());
    }

    #[test]
    fn logic_is_three_cycles_plus_distribution() {
        let vcu = Vcu::new(1024);
        let r = run(
            &vcu,
            &mut csb(),
            VectorOp::And {
                vd: 3,
                vs1: 1,
                vs2: 2,
            },
        );
        assert_eq!(r.cycles, 3 + vcu.cmd_dist_cycles());
    }

    #[test]
    fn redsum_adds_tree_drain() {
        let vcu = Vcu::new(1024);
        let r = run(&vcu, &mut csb(), VectorOp::RedSum { vd: 3, vs: 1 });
        assert_eq!(r.cycles, 32 + 5 + vcu.cmd_dist_cycles());
        assert_eq!(r.scalar, Some((0..256).sum::<i64>()));
    }

    #[test]
    fn redsum_is_roughly_eight_times_faster_than_vadd() {
        // Section V-G: "a vector redsum instruction is thus eight times
        // faster than an element-wise vector addition".
        let vcu = Vcu::new(1024);
        let mut csb = csb();
        let add = run(&vcu, &mut csb, ADD).cycles;
        let red = run(&vcu, &mut csb, VectorOp::RedSum { vd: 4, vs: 1 }).cycles;
        let ratio = add as f64 / red as f64;
        assert!((4.0..9.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn scalar_forms_use_measured_cycles() {
        let vcu = Vcu::new(1024);
        let mut csb = csb();
        // Adding zero specializes away most truth-table entries.
        let r0 = run(
            &vcu,
            &mut csb,
            VectorOp::AddScalar {
                vd: 3,
                vs1: 1,
                rs: 0,
            },
        );
        let r1 = run(
            &vcu,
            &mut csb,
            VectorOp::AddScalar {
                vd: 3,
                vs1: 1,
                rs: u32::MAX,
            },
        );
        assert!(r0.cycles < r1.cycles, "rs=0 must be cheaper than rs=-1");
        let vv = run(&vcu, &mut csb, ADD);
        assert!(r1.cycles <= vv.cycles + vcu.cmd_dist_cycles());
    }

    #[test]
    fn mul_is_quadratic() {
        let vcu = Vcu::new(1024);
        let r = run(
            &vcu,
            &mut csb(),
            VectorOp::Mul {
                vd: 3,
                vs1: 1,
                vs2: 2,
            },
        );
        assert_eq!(r.cycles, 3968 + vcu.cmd_dist_cycles());
        // Section VI-B: vmul performs >3,000 searches and updates.
        assert!(r.stats.searches() + r.stats.updates() > 3000);
    }

    #[test]
    fn narrow_widths_scale_table_one_cycles() {
        let vcu = Vcu::new(1024);
        let mut csb = csb();
        let r8 = run_sew(&vcu, &mut csb, ADD, 8);
        let r32 = run_sew(
            &vcu,
            &mut csb,
            VectorOp::Add {
                vd: 4,
                vs1: 1,
                vs2: 2,
            },
            32,
        );
        // 8n+2 at n=8 vs n=32.
        assert_eq!(r8.cycles, 66 + vcu.cmd_dist_cycles());
        assert_eq!(r32.cycles, 258 + vcu.cmd_dist_cycles());
    }

    #[test]
    fn plan_cycles_match_executed_cycles_from_static_stats() {
        use cape_ucode::CompiledOp;
        let vcu = Vcu::new(1024);
        let ops = [
            ADD,
            VectorOp::AddScalar {
                vd: 4,
                vs1: 1,
                rs: 12345,
            },
            VectorOp::RedSum { vd: 5, vs: 1 },
            VectorOp::ShiftLeft {
                vd: 6,
                vs: 1,
                sh: 3,
            },
        ];
        for sew in [8u32, 16, 32] {
            for op in ops {
                let static_stats = CompiledOp::compile(&op, sew as usize).program().stats();
                let executed = run_sew(&vcu, &mut csb(), op, sew);
                assert_eq!(
                    vcu.plan_cycles(&op, &static_stats, sew),
                    executed.cycles,
                    "{op:?} at sew {sew}"
                );
                assert_eq!(static_stats, executed.stats, "{op:?} at sew {sew}");
            }
        }
    }

    #[test]
    fn try_execute_rejects_malformed_op_without_touching_csb() {
        let vcu = Vcu::new(8);
        let mut cache = ProgramCache::default();
        let mut csb = Csb::new(CsbGeometry::new(8));
        csb.write_vector(1, &[3, 5, 7]);
        csb.set_active_window(0, 3);
        let before = csb.read_vector(1, 3);
        let err = vcu
            .execute(
                &mut csb,
                &VectorOp::Mul {
                    vd: 1,
                    vs1: 1,
                    vs2: 2,
                },
                32,
                &mut cache,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            SequencerError::DestAliasesSource {
                mnemonic: "vmul",
                vd: 1
            }
        ));
        assert_eq!(csb.read_vector(1, 3), before, "CSB must be untouched");
        // The good path through the same API still works.
        let ok = vcu
            .execute(
                &mut csb,
                &VectorOp::AddScalar {
                    vd: 2,
                    vs1: 1,
                    rs: 10,
                },
                32,
                &mut cache,
            )
            .unwrap();
        assert!(ok.cycles > 0);
        assert_eq!(csb.read_vector(2, 3), vec![13, 15, 17]);
    }

    #[test]
    fn results_match_functional_semantics() {
        let vcu = Vcu::new(8);
        let mut csb = Csb::new(CsbGeometry::new(8));
        csb.write_vector(1, &[3, 5, 7]);
        csb.set_active_window(0, 3);
        run(
            &vcu,
            &mut csb,
            VectorOp::AddScalar {
                vd: 2,
                vs1: 1,
                rs: 10,
            },
        );
        assert_eq!(csb.read_vector(2, 3), vec![13, 15, 17]);
    }
}
