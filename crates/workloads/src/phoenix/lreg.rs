//! Linear regression: least-squares fit over fixed-point points.
//!
//! The vector version is four streaming reductions (`sum x`, `sum y`,
//! `sum x*x`, `sum x*y`) — the pattern that benefits from CAPE's cheap
//! `vredsum` (Section V-G's "vertical vs. horizontal" discussion).

use cape_baseline::{OooCore, SimdProfile};
use cape_isa::{fnv1a_words, Program, Reg, VReg};
use cape_mem::MainMemory;

use super::map::{OUT, SRC1, SRC2};
use crate::gen;
use crate::harness::{BaselineRun, Workload};

/// The linear-regression workload over `n` points.
#[derive(Debug, Clone, Copy)]
pub struct LinearRegression {
    /// Point count.
    pub n: usize,
}

impl LinearRegression {
    fn inputs(&self) -> (Vec<u32>, Vec<u32>) {
        gen::linear_points(self.n, 3, 40, 81)
    }

    /// The model outputs: the four wrapped sums plus the fitted slope in
    /// per-mille fixed point (computed identically on both sides).
    fn outputs(sums: [u32; 4], n: u64) -> Vec<u32> {
        let [sx, sy, sxx, sxy] = sums;
        let n = n as i64;
        let num = n.wrapping_mul(i64::from(sxy)) - i64::from(sx).wrapping_mul(i64::from(sy));
        let den = n.wrapping_mul(i64::from(sxx)) - i64::from(sx).wrapping_mul(i64::from(sx));
        let slope_milli = if den == 0 {
            0
        } else {
            num.wrapping_mul(1000) / den
        };
        vec![sx, sy, sxx, sxy, slope_milli as u32]
    }
}

impl Workload for LinearRegression {
    fn name(&self) -> &'static str {
        "lreg"
    }

    fn cape_setup(&self, mem: &mut MainMemory) -> Program {
        let (xs, ys) = self.inputs();
        mem.write_u32_slice(SRC1 as u64, &xs);
        mem.write_u32_slice(SRC2 as u64, &ys);
        let mut p = Program::builder();
        p.li(Reg::S0, self.n as i64);
        p.li(Reg::S1, SRC1);
        p.li(Reg::S2, SRC2);
        p.vsetvli(Reg::T0, Reg::S0);
        p.vmv_vx(VReg::V10, Reg::ZERO); // sum x
        p.vmv_vx(VReg::V11, Reg::ZERO); // sum y
        p.vmv_vx(VReg::V12, Reg::ZERO); // sum x*x
        p.vmv_vx(VReg::V13, Reg::ZERO); // sum x*y
        p.label("strip");
        p.vsetvli(Reg::T0, Reg::S0);
        p.vle32(VReg::V1, Reg::S1);
        p.vle32(VReg::V2, Reg::S2);
        p.vredsum(VReg::V10, VReg::V1, VReg::V10);
        p.vredsum(VReg::V11, VReg::V2, VReg::V11);
        p.vmul_vv(VReg::V3, VReg::V1, VReg::V1);
        p.vredsum(VReg::V12, VReg::V3, VReg::V12);
        p.vmul_vv(VReg::V4, VReg::V1, VReg::V2);
        p.vredsum(VReg::V13, VReg::V4, VReg::V13);
        p.sub(Reg::S0, Reg::S0, Reg::T0);
        p.slli(Reg::T1, Reg::T0, 2);
        p.add(Reg::S1, Reg::S1, Reg::T1);
        p.add(Reg::S2, Reg::S2, Reg::T1);
        p.bnez(Reg::S0, "strip");
        // Store the four sums; the CP computes the slope.
        p.li(Reg::A0, OUT);
        p.vmv_xs(Reg::T2, VReg::V10);
        p.sw(Reg::T2, 0, Reg::A0);
        p.mv(Reg::S4, Reg::T2); // sx
        p.vmv_xs(Reg::T2, VReg::V11);
        p.sw(Reg::T2, 4, Reg::A0);
        p.mv(Reg::S5, Reg::T2); // sy
        p.vmv_xs(Reg::T2, VReg::V12);
        p.sw(Reg::T2, 8, Reg::A0);
        p.mv(Reg::S6, Reg::T2); // sxx
        p.vmv_xs(Reg::T2, VReg::V13);
        p.sw(Reg::T2, 12, Reg::A0);
        p.mv(Reg::S7, Reg::T2); // sxy
                                // slope_milli = (n*sxy - sx*sy) * 1000 / (n*sxx - sx*sx)
        p.li(Reg::T3, self.n as i64);
        p.mul(Reg::T4, Reg::T3, Reg::S7);
        p.mul(Reg::T5, Reg::S4, Reg::S5);
        p.sub(Reg::T4, Reg::T4, Reg::T5); // num
        p.mul(Reg::T5, Reg::T3, Reg::S6);
        p.mul(Reg::T6, Reg::S4, Reg::S4);
        p.sub(Reg::T5, Reg::T5, Reg::T6); // den
        p.li(Reg::T6, 1000);
        p.mul(Reg::T4, Reg::T4, Reg::T6);
        p.op(cape_isa::AluOp::Div, Reg::T4, Reg::T4, Reg::T5);
        p.sw(Reg::T4, 16, Reg::A0);
        p.halt();
        p.build().expect("lreg program")
    }

    fn digest(&self, mem: &MainMemory) -> u64 {
        fnv1a_words(mem.read_u32_slice(OUT as u64, 5))
    }

    fn run_baseline(&self) -> BaselineRun {
        let (xs, ys) = self.inputs();
        let mut core = OooCore::table3();
        let (mut sx, mut sy, mut sxx, mut sxy) = (0u32, 0u32, 0u32, 0u32);
        for i in 0..self.n {
            core.load(SRC1 as u64 + (i as u64) * 4);
            core.load(SRC2 as u64 + (i as u64) * 4);
            core.mul(2);
            core.op(4);
            core.branch(1);
            sx = sx.wrapping_add(xs[i]);
            sy = sy.wrapping_add(ys[i]);
            sxx = sxx.wrapping_add(xs[i].wrapping_mul(xs[i]));
            sxy = sxy.wrapping_add(xs[i].wrapping_mul(ys[i]));
        }
        core.mul(5);
        core.op(4);
        for w in 0..5 {
            core.store(OUT as u64 + w * 4);
        }
        BaselineRun {
            report: core.finish(),
            digest: fnv1a_words(Self::outputs([sx, sy, sxx, sxy], self.n as u64)),
            simd: SimdProfile {
                vec_ops: 2 * self.n as u64,
                vec_mul_ops: 2 * self.n as u64,
                vec_red_ops: 4 * self.n as u64,
                ..Default::default()
            },
            parallel_fraction: 0.99,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run_cape;
    use cape_core::CapeConfig;

    #[test]
    fn cape_and_baseline_sums_match() {
        let w = LinearRegression { n: 900 };
        let cape = run_cape(&w, &CapeConfig::tiny(4));
        let base = w.run_baseline();
        assert_eq!(cape.digest, base.digest);
    }

    #[test]
    fn recovered_slope_is_close_to_three() {
        let w = LinearRegression { n: 4000 };
        let mut mem = MainMemory::new();
        let prog = w.cape_setup(&mut mem);
        let mut machine = cape_core::CapeMachine::new(CapeConfig::tiny(8));
        machine.run(&prog, &mut mem).unwrap();
        let slope_milli = mem.read_u32((OUT + 16) as u64) as i32;
        assert!((2900..3100).contains(&slope_milli), "slope {slope_milli}");
    }
}
