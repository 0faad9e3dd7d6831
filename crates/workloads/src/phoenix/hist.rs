//! Histogram: bucket an image's pixel values.
//!
//! The thread-parallel baseline updates a shared 256-entry table per
//! pixel; the CAPE version turns the algorithm inside out and issues a
//! brute-force *search* for every possible pixel value (Section II calls
//! this out explicitly, reporting a 13x win for exactly this trick).

use cape_baseline::{OooCore, SimdProfile};
use cape_isa::{fnv1a_words, Program, Reg, VReg};
use cape_mem::MainMemory;

use super::map::{OUT, SRC1};
use crate::gen;
use crate::harness::{BaselineRun, Workload};

const BUCKETS: usize = 256;

/// The histogram workload over `n` pixels.
#[derive(Debug, Clone, Copy)]
pub struct Histogram {
    /// Pixel count.
    pub n: usize,
}

impl Workload for Histogram {
    fn name(&self) -> &'static str {
        "hist"
    }

    fn cape_setup(&self, mem: &mut MainMemory) -> Program {
        mem.write_u32_slice(SRC1 as u64, &gen::image(self.n, 71));
        let mut p = Program::builder();
        p.li(Reg::S10, OUT);
        p.li(Reg::S11, BUCKETS as i64);
        // Zero the histogram.
        p.li(Reg::T3, 0);
        p.label("zero");
        p.slli(Reg::T5, Reg::T3, 2);
        p.add(Reg::T5, Reg::T5, Reg::S10);
        p.sw(Reg::ZERO, 0, Reg::T5);
        p.addi(Reg::T3, Reg::T3, 1);
        p.blt(Reg::T3, Reg::S11, "zero");
        // Strip-mine the image; search each bucket value per strip.
        p.li(Reg::S0, self.n as i64);
        p.li(Reg::S1, SRC1);
        p.label("strip");
        p.vsetvli(Reg::T0, Reg::S0);
        p.vle32(VReg::V1, Reg::S1);
        p.li(Reg::T3, 0);
        p.label("bucket");
        p.vmseq_vx(VReg::V2, VReg::V1, Reg::T3);
        p.vcpop(Reg::T4, VReg::V2);
        p.slli(Reg::T5, Reg::T3, 2);
        p.add(Reg::T5, Reg::T5, Reg::S10);
        p.lw(Reg::T6, 0, Reg::T5);
        p.add(Reg::T6, Reg::T6, Reg::T4);
        p.sw(Reg::T6, 0, Reg::T5);
        p.addi(Reg::T3, Reg::T3, 1);
        p.blt(Reg::T3, Reg::S11, "bucket");
        p.sub(Reg::S0, Reg::S0, Reg::T0);
        p.slli(Reg::T1, Reg::T0, 2);
        p.add(Reg::S1, Reg::S1, Reg::T1);
        p.bnez(Reg::S0, "strip");
        p.halt();
        p.build().expect("hist program")
    }

    fn digest(&self, mem: &MainMemory) -> u64 {
        fnv1a_words(mem.read_u32_slice(OUT as u64, BUCKETS))
    }

    fn run_baseline(&self) -> BaselineRun {
        let pixels = gen::image(self.n, 71);
        let mut core = OooCore::table3();
        let mut hist = vec![0u32; BUCKETS];
        for (i, &px) in pixels.iter().enumerate() {
            core.load(SRC1 as u64 + (i as u64) * 4);
            // Index computation + dependent table read-modify-write.
            core.op(1);
            core.rmw(OUT as u64 + u64::from(px) * 4);
            core.branch(1);
            hist[px as usize] += 1;
        }
        BaselineRun {
            report: core.finish(),
            digest: fnv1a_words(hist),
            // The table update has a loop-carried dependence per bucket;
            // SIMD helps only the value compute, so most work is scalar.
            simd: SimdProfile {
                vec_ops: self.n as u64,
                scalar_ops: 2 * self.n as u64,
                ..Default::default()
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
    fn cape_and_baseline_histograms_match() {
        let w = Histogram { n: 900 };
        let cape = run_cape(&w, &CapeConfig::tiny(4));
        let base = w.run_baseline();
        assert_eq!(cape.digest, base.digest);
    }

    #[test]
    fn histogram_counts_sum_to_n() {
        let w = Histogram { n: 700 };
        let mut mem = MainMemory::new();
        let prog = w.cape_setup(&mut mem);
        let mut machine = cape_core::CapeMachine::new(CapeConfig::tiny(4));
        machine.run(&prog, &mut mem).unwrap();
        let total: u32 = mem.read_u32_slice(OUT as u64, BUCKETS).iter().sum();
        assert_eq!(total, 700);
    }
}
