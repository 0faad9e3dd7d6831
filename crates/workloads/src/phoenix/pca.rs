//! Principal component analysis, Phoenix-style: column means followed by
//! the covariance matrix.
//!
//! The mean of each column must be known before its covariance terms can
//! be computed — the inter-iteration dependence that (per Section VI-E)
//! prevents the replica-load trick from boosting vector utilization, so
//! `pca`'s speedup stays flat from CAPE32k to CAPE131k.

use cape_baseline::{OooCore, SimdProfile};
use cape_isa::{fnv1a_words, AluOp, Program, Reg, VReg};
use cape_mem::MainMemory;

use super::map::{OUT, SRC1};
use crate::gen;
use crate::harness::{BaselineRun, Workload};

/// PCA over a `rows x dims` matrix stored column-major.
#[derive(Debug, Clone, Copy)]
pub struct Pca {
    /// Observations per column.
    pub rows: usize,
    /// Number of columns (dimensions).
    pub dims: usize,
}

impl Pca {
    fn input(&self) -> Vec<u32> {
        gen::matrix(self.dims, self.rows, 1024, 101) // column-major: dims rows of `rows` values
    }

    fn out_words(&self) -> usize {
        self.dims + self.dims * (self.dims + 1) / 2
    }
}

impl Workload for Pca {
    fn name(&self) -> &'static str {
        "pca"
    }

    fn cape_setup(&self, mem: &mut MainMemory) -> Program {
        mem.write_u32_slice(SRC1 as u64, &self.input());
        let rows = self.rows as i64;
        let dims = self.dims as i64;
        let cov_base = OUT + dims * 4;
        let mut p = Program::builder();
        p.li(Reg::S3, dims);
        p.li(Reg::S4, rows);
        // ----- pass 1: column means -----
        p.li(Reg::S5, 0); // d
        p.label("mean_d");
        p.mul(Reg::T4, Reg::S5, Reg::S4);
        p.slli(Reg::T4, Reg::T4, 2);
        p.li(Reg::T5, SRC1);
        p.add(Reg::S1, Reg::T5, Reg::T4);
        p.mv(Reg::S0, Reg::S4);
        p.vsetvli(Reg::T0, Reg::S0);
        p.vmv_vx(VReg::V6, Reg::ZERO);
        p.label("mean_strip");
        p.vsetvli(Reg::T0, Reg::S0);
        p.vle32(VReg::V1, Reg::S1);
        p.vredsum(VReg::V6, VReg::V1, VReg::V6);
        p.sub(Reg::S0, Reg::S0, Reg::T0);
        p.slli(Reg::T1, Reg::T0, 2);
        p.add(Reg::S1, Reg::S1, Reg::T1);
        p.bnez(Reg::S0, "mean_strip");
        p.vmv_xs(Reg::T2, VReg::V6);
        p.op(AluOp::Divu, Reg::T2, Reg::T2, Reg::S4);
        p.slli(Reg::T4, Reg::S5, 2);
        p.li(Reg::T5, OUT);
        p.add(Reg::T4, Reg::T5, Reg::T4);
        p.sw(Reg::T2, 0, Reg::T4);
        p.addi(Reg::S5, Reg::S5, 1);
        p.blt(Reg::S5, Reg::S3, "mean_d");
        // ----- pass 2: covariance upper triangle -----
        p.li(Reg::S5, 0); // d1
        p.li(Reg::S7, 0); // output slot
        p.label("cov_d1");
        p.mv(Reg::S6, Reg::S5); // d2
        p.label("cov_d2");
        p.slli(Reg::T4, Reg::S5, 2);
        p.li(Reg::T5, OUT);
        p.add(Reg::T4, Reg::T5, Reg::T4);
        p.lw(Reg::S10, 0, Reg::T4); // mean(d1)
        p.slli(Reg::T4, Reg::S6, 2);
        p.add(Reg::T4, Reg::T5, Reg::T4);
        p.lw(Reg::S11, 0, Reg::T4); // mean(d2)
        p.mul(Reg::T4, Reg::S5, Reg::S4);
        p.slli(Reg::T4, Reg::T4, 2);
        p.li(Reg::T5, SRC1);
        p.add(Reg::S1, Reg::T5, Reg::T4);
        p.mul(Reg::T4, Reg::S6, Reg::S4);
        p.slli(Reg::T4, Reg::T4, 2);
        p.add(Reg::S2, Reg::T5, Reg::T4);
        p.mv(Reg::S0, Reg::S4);
        p.vsetvli(Reg::T0, Reg::S0);
        p.vmv_vx(VReg::V6, Reg::ZERO);
        p.label("cov_strip");
        p.vsetvli(Reg::T0, Reg::S0);
        p.vle32(VReg::V1, Reg::S1);
        p.vop_vx(cape_isa::VAluOp::Sub, VReg::V1, VReg::V1, Reg::S10);
        p.vle32(VReg::V2, Reg::S2);
        p.vop_vx(cape_isa::VAluOp::Sub, VReg::V2, VReg::V2, Reg::S11);
        p.vmul_vv(VReg::V3, VReg::V1, VReg::V2);
        p.vredsum(VReg::V6, VReg::V3, VReg::V6);
        p.sub(Reg::S0, Reg::S0, Reg::T0);
        p.slli(Reg::T1, Reg::T0, 2);
        p.add(Reg::S1, Reg::S1, Reg::T1);
        p.add(Reg::S2, Reg::S2, Reg::T1);
        p.bnez(Reg::S0, "cov_strip");
        p.vmv_xs(Reg::T2, VReg::V6);
        p.slli(Reg::T4, Reg::S7, 2);
        p.li(Reg::T5, cov_base);
        p.add(Reg::T4, Reg::T5, Reg::T4);
        p.sw(Reg::T2, 0, Reg::T4);
        p.addi(Reg::S7, Reg::S7, 1);
        p.addi(Reg::S6, Reg::S6, 1);
        p.blt(Reg::S6, Reg::S3, "cov_d2");
        p.addi(Reg::S5, Reg::S5, 1);
        p.blt(Reg::S5, Reg::S3, "cov_d1");
        p.halt();
        p.build().expect("pca program")
    }

    fn digest(&self, mem: &MainMemory) -> u64 {
        fnv1a_words(mem.read_u32_slice(OUT as u64, self.out_words()))
    }

    fn run_baseline(&self) -> BaselineRun {
        let data = self.input();
        let (rows, dims) = (self.rows, self.dims);
        let col = |d: usize| &data[d * rows..(d + 1) * rows];
        let mut core = OooCore::table3();
        let mut out = Vec::with_capacity(self.out_words());
        // Means.
        let mut means = Vec::with_capacity(dims);
        for d in 0..dims {
            let mut sum = 0u32;
            for (i, &x) in col(d).iter().enumerate() {
                core.load(SRC1 as u64 + ((d * rows + i) as u64) * 4);
                core.op(1);
                core.branch(1);
                sum = sum.wrapping_add(x);
            }
            let mean = sum / rows as u32;
            core.op(1);
            core.store(OUT as u64 + (d as u64) * 4);
            means.push(mean);
            out.push(mean);
        }
        // Covariances (wrapping fixed-point, identical to the RVV math).
        for d1 in 0..dims {
            for d2 in d1..dims {
                let mut acc = 0u32;
                for i in 0..rows {
                    core.load(SRC1 as u64 + ((d1 * rows + i) as u64) * 4);
                    core.load(SRC1 as u64 + ((d2 * rows + i) as u64) * 4);
                    core.op(3);
                    core.mul(1);
                    core.branch(1);
                    let a = col(d1)[i].wrapping_sub(means[d1]);
                    let b = col(d2)[i].wrapping_sub(means[d2]);
                    acc = acc.wrapping_add(a.wrapping_mul(b));
                }
                core.store(OUT as u64);
                out.push(acc);
            }
        }
        let pair_rows = (dims * (dims + 1) / 2 * rows) as u64;
        BaselineRun {
            report: core.finish(),
            digest: fnv1a_words(out),
            simd: SimdProfile {
                vec_ops: 2 * pair_rows,
                vec_mul_ops: pair_rows,
                vec_red_ops: pair_rows + (dims * rows) as u64,
                scalar_ops: (dims * dims) as u64,
            },
            parallel_fraction: 0.97,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run_cape;
    use cape_core::CapeConfig;

    #[test]
    fn cape_and_baseline_covariances_match() {
        let w = Pca { rows: 300, dims: 3 };
        let cape = run_cape(&w, &CapeConfig::tiny(4));
        assert_eq!(cape.digest, w.run_baseline().digest);
    }

    #[test]
    fn variance_of_constant_column_is_zero() {
        // A 1-D PCA over a constant column: covariance must be 0.
        let w = Pca { rows: 64, dims: 1 };
        let mut mem = MainMemory::new();
        let prog = w.cape_setup(&mut mem);
        // Overwrite the generated column with a constant.
        mem.write_u32_slice(SRC1 as u64, &vec![7u32; 64]);
        let mut machine = cape_core::CapeMachine::new(CapeConfig::tiny(2));
        machine.run(&prog, &mut mem).unwrap();
        assert_eq!(mem.read_u32(OUT as u64), 7); // mean
        assert_eq!(mem.read_u32((OUT + 4) as u64), 0); // variance
    }
}
