//! Dense matrix multiplication, vectorized exactly as Section V-G
//! prescribes: (1) a unit-stride load brings multiple rows of `A` into
//! one ultra-long vector register, (2) the *replica vector load* `vlrw`
//! tiles one row of `B`-transposed across the register, and (3) windowed
//! `vredsum`s (via the reconfigurable active window of Section V-F)
//! produce one output element per row.

use cape_baseline::{OooCore, SimdProfile};
use cape_isa::{fnv1a_words, Program, Reg, VReg};
use cape_mem::MainMemory;

use super::map::{OUT, SRC1, SRC2};
use crate::gen;
use crate::harness::{BaselineRun, Workload};

/// `n x n` matrix multiply (`C = A x B`), with `B` stored transposed.
///
/// The CAPE program requires `n <= MAX_VL` of the machine it runs on
/// (one matrix row must fit a row window).
#[derive(Debug, Clone, Copy)]
pub struct Matmul {
    /// Matrix dimension.
    pub n: usize,
}

impl Matmul {
    fn inputs(&self) -> (Vec<u32>, Vec<u32>) {
        let a = gen::matrix(self.n, self.n, 64, 91);
        let bt = gen::matrix(self.n, self.n, 64, 92);
        (a, bt)
    }
}

impl Workload for Matmul {
    fn name(&self) -> &'static str {
        "matmul"
    }

    fn cape_setup(&self, mem: &mut MainMemory) -> Program {
        let (a, bt) = self.inputs();
        mem.write_u32_slice(SRC1 as u64, &a);
        mem.write_u32_slice(SRC2 as u64, &bt);
        let n = self.n as i64;
        let mut p = Program::builder();
        p.li(Reg::S3, n);
        p.li(Reg::S0, n * n); // remaining elements of A
        p.li(Reg::S1, SRC1);
        p.li(Reg::S8, OUT);
        p.li(Reg::S2, 0); // base row of the current block
        p.slli(Reg::S9, Reg::S3, 2); // Bt row stride in bytes
                                     // Zero register for the reduction seed.
        p.vsetvli(Reg::T0, Reg::S0);
        p.vmv_vx(VReg::V31, Reg::ZERO);
        p.label("block");
        // Take as many whole rows of A as fit the hardware vector length.
        p.vsetvli(Reg::T0, Reg::S0);
        p.op(cape_isa::AluOp::Divu, Reg::T2, Reg::T0, Reg::S3); // rows
        p.mul(Reg::T3, Reg::T2, Reg::S3); // vl actually used
        p.vsetvli(Reg::T0, Reg::T3);
        p.vle32(VReg::V1, Reg::S1);
        p.li(Reg::S4, 0); // j
        p.li(Reg::S5, SRC2); // Bt row pointer
        p.label("jloop");
        // Restore the full block window (vsetvli resets vstart).
        p.vsetvli(Reg::T6, Reg::T3);
        p.vlrw(VReg::V2, Reg::S5, Reg::S3); // replicate Bt row j
        p.vmul_vv(VReg::V3, VReg::V1, VReg::V2);
        p.li(Reg::S6, 0); // i within the block
        p.label("iloop");
        // Reduce the window [i*n, (i+1)*n) of the products.
        p.addi(Reg::T4, Reg::S6, 1);
        p.mul(Reg::T4, Reg::T4, Reg::S3);
        p.vsetvli(Reg::T5, Reg::T4);
        p.mul(Reg::T5, Reg::S6, Reg::S3);
        p.vsetstart(Reg::T5);
        p.vredsum(VReg::V4, VReg::V3, VReg::V31);
        p.vmv_xs(Reg::T5, VReg::V4);
        // C[(base + i) * n + j]
        p.add(Reg::T4, Reg::S2, Reg::S6);
        p.mul(Reg::T4, Reg::T4, Reg::S3);
        p.add(Reg::T4, Reg::T4, Reg::S4);
        p.slli(Reg::T4, Reg::T4, 2);
        p.add(Reg::T4, Reg::T4, Reg::S8);
        p.sw(Reg::T5, 0, Reg::T4);
        p.addi(Reg::S6, Reg::S6, 1);
        p.blt(Reg::S6, Reg::T2, "iloop");
        p.addi(Reg::S4, Reg::S4, 1);
        p.add(Reg::S5, Reg::S5, Reg::S9);
        p.blt(Reg::S4, Reg::S3, "jloop");
        p.sub(Reg::S0, Reg::S0, Reg::T3);
        p.slli(Reg::T4, Reg::T3, 2);
        p.add(Reg::S1, Reg::S1, Reg::T4);
        p.add(Reg::S2, Reg::S2, Reg::T2);
        p.bnez(Reg::S0, "block");
        p.halt();
        p.build().expect("matmul program")
    }

    fn digest(&self, mem: &MainMemory) -> u64 {
        fnv1a_words(mem.read_u32_slice(OUT as u64, self.n * self.n))
    }

    fn run_baseline(&self) -> BaselineRun {
        let (a, bt) = self.inputs();
        let n = self.n;
        let mut core = OooCore::table3();
        let mut c = vec![0u32; n * n];
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0u32;
                for k in 0..n {
                    core.load(SRC1 as u64 + ((i * n + k) as u64) * 4);
                    core.load(SRC2 as u64 + ((j * n + k) as u64) * 4);
                    core.mul(1);
                    core.op(1);
                    core.branch(1);
                    acc = acc.wrapping_add(a[i * n + k].wrapping_mul(bt[j * n + k]));
                }
                core.store(OUT as u64 + ((i * n + j) as u64) * 4);
                c[i * n + j] = acc;
            }
        }
        let n3 = (n * n * n) as u64;
        BaselineRun {
            report: core.finish(),
            digest: fnv1a_words(c),
            simd: SimdProfile {
                vec_mul_ops: n3,
                vec_red_ops: n3,
                scalar_ops: (n * n) as u64,
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
    fn cape_and_baseline_products_match() {
        let w = Matmul { n: 12 };
        let cape = run_cape(&w, &CapeConfig::tiny(4));
        assert_eq!(cape.digest, w.run_baseline().digest);
    }

    #[test]
    fn known_product_is_exact() {
        // 2x2 identity-ish check through the whole stack.
        let w = Matmul { n: 8 };
        let mut mem = MainMemory::new();
        let prog = w.cape_setup(&mut mem);
        let mut machine = cape_core::CapeMachine::new(CapeConfig::tiny(2));
        machine.run(&prog, &mut mem).unwrap();
        let (a, bt) = w.inputs();
        let c = mem.read_u32_slice(OUT as u64, 64);
        for i in 0..8 {
            for j in 0..8 {
                let want: u32 = (0..8).map(|k| a[i * 8 + k] * bt[j * 8 + k]).sum();
                assert_eq!(c[i * 8 + j], want, "C[{i}][{j}]");
            }
        }
    }

    #[test]
    fn block_loop_handles_multiple_blocks() {
        // n=8 on a 64-lane machine: 8 rows per block, 8 blocks... n*n=64
        // fits exactly; use n=10 so blocks split unevenly (6 rows then 4).
        let w = Matmul { n: 10 };
        let cape = run_cape(&w, &CapeConfig::tiny(2));
        assert_eq!(cape.digest, w.run_baseline().digest);
    }
}
