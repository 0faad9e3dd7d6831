//! String match: locate needle tokens in a text stream.
//!
//! Each needle is searched with one bulk `vmseq` per strip; its matches
//! are counted with the reduction tree and the *first* occurrence is
//! extracted with `vfirst` and then re-verified by a scalar load on the
//! control processor — the serialized per-match post-processing the
//! paper describes for the text workloads.

use cape_baseline::{OooCore, SimdProfile};
use cape_isa::{fnv1a_words, Program, Reg, VReg};
use cape_mem::MainMemory;

use super::map::{AUX, OUT, SRC1};
use crate::gen;
use crate::harness::{BaselineRun, Workload};

/// Search `needles` keys over a text of `n` tokens; report per needle
/// its occurrence count and first position (or -1).
#[derive(Debug, Clone, Copy)]
pub struct StringMatch {
    /// Token count of the text.
    pub n: usize,
    /// Number of needles.
    pub needles: usize,
}

impl StringMatch {
    fn inputs(&self) -> (Vec<u32>, Vec<u32>) {
        let text = gen::zipf_words(self.n, 2048, 141);
        // Alternate guaranteed-present (frequent) and likely-absent keys.
        let keys = (0..self.needles)
            .map(|i| {
                if i % 2 == 0 {
                    i as u32 / 2
                } else {
                    3000 + i as u32
                }
            })
            .collect();
        (text, keys)
    }
}

impl Workload for StringMatch {
    fn name(&self) -> &'static str {
        "strmatch"
    }

    fn cape_setup(&self, mem: &mut MainMemory) -> Program {
        let (text, keys) = self.inputs();
        mem.write_u32_slice(SRC1 as u64, &text);
        mem.write_u32_slice(AUX as u64, &keys);
        let p_needles = self.needles as i64;
        let mut p = Program::builder();
        // Init per-needle state: count = 0, first = -1.
        p.li(Reg::T3, 0);
        p.li(Reg::T4, p_needles);
        p.li(Reg::T5, OUT);
        p.li(Reg::T6, -1);
        p.label("init");
        p.sw(Reg::ZERO, 0, Reg::T5); // count
        p.sw(Reg::T6, 4, Reg::T5); // first
        p.addi(Reg::T5, Reg::T5, 8);
        p.addi(Reg::T3, Reg::T3, 1);
        p.blt(Reg::T3, Reg::T4, "init");
        // Strip over the text; search every needle per strip.
        p.li(Reg::S0, self.n as i64);
        p.li(Reg::S1, SRC1);
        p.li(Reg::S2, 0); // base element index
        p.li(Reg::S11, p_needles);
        p.label("strip");
        p.vsetvli(Reg::T0, Reg::S0);
        p.vle32(VReg::V1, Reg::S1);
        p.li(Reg::S4, 0); // needle index
        p.li(Reg::S5, AUX);
        p.label("needle");
        p.lw(Reg::S10, 0, Reg::S5);
        p.vmseq_vx(VReg::V2, VReg::V1, Reg::S10);
        p.vcpop(Reg::T3, VReg::V2);
        // count += matches
        p.slli(Reg::T4, Reg::S4, 3);
        p.li(Reg::T5, OUT);
        p.add(Reg::T4, Reg::T4, Reg::T5);
        p.lw(Reg::T6, 0, Reg::T4);
        p.add(Reg::T6, Reg::T6, Reg::T3);
        p.sw(Reg::T6, 0, Reg::T4);
        // first = base + vfirst, if unset and the strip matched
        p.lw(Reg::T6, 4, Reg::T4);
        p.bge(Reg::T6, Reg::ZERO, "have_first");
        p.beqz(Reg::T3, "have_first");
        p.vfirst(Reg::T5, VReg::V2);
        p.add(Reg::T5, Reg::T5, Reg::S2);
        // Serialized verification: reload the text word and re-compare.
        p.slli(Reg::T6, Reg::T5, 2);
        p.li(Reg::A0, SRC1);
        p.add(Reg::T6, Reg::T6, Reg::A0);
        p.lw(Reg::A0, 0, Reg::T6);
        p.bne(Reg::A0, Reg::S10, "have_first"); // never taken; models the check
        p.sw(Reg::T5, 4, Reg::T4);
        p.label("have_first");
        p.addi(Reg::S4, Reg::S4, 1);
        p.addi(Reg::S5, Reg::S5, 4);
        p.blt(Reg::S4, Reg::S11, "needle");
        p.sub(Reg::S0, Reg::S0, Reg::T0);
        p.slli(Reg::T1, Reg::T0, 2);
        p.add(Reg::S1, Reg::S1, Reg::T1);
        p.add(Reg::S2, Reg::S2, Reg::T0);
        p.bnez(Reg::S0, "strip");
        p.halt();
        p.build().expect("strmatch program")
    }

    fn digest(&self, mem: &MainMemory) -> u64 {
        fnv1a_words(mem.read_u32_slice(OUT as u64, 2 * self.needles))
    }

    fn run_baseline(&self) -> BaselineRun {
        let (text, keys) = self.inputs();
        let mut core = OooCore::table3();
        let mut out = Vec::with_capacity(2 * keys.len());
        for &k in &keys {
            core.load(AUX as u64);
            let mut count = 0u32;
            let mut first = -1i32;
            for (i, &w) in text.iter().enumerate() {
                core.load(SRC1 as u64 + (i as u64) * 4);
                core.op(1);
                core.branch(1);
                if w == k {
                    core.op(2);
                    count += 1;
                    if first < 0 {
                        first = i as i32;
                    }
                }
            }
            core.store(OUT as u64);
            core.store(OUT as u64 + 4);
            out.push(count);
            out.push(first as u32);
        }
        BaselineRun {
            report: core.finish(),
            digest: fnv1a_words(out),
            simd: SimdProfile {
                vec_ops: (text.len() * keys.len()) as u64,
                vec_red_ops: (text.len() * keys.len()) as u64,
                scalar_ops: 4 * keys.len() as u64,
                ..Default::default()
            },
            parallel_fraction: 0.90,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run_cape;
    use cape_core::CapeConfig;

    #[test]
    fn cape_and_baseline_matches_agree() {
        let w = StringMatch { n: 500, needles: 4 };
        let cape = run_cape(&w, &CapeConfig::tiny(4));
        assert_eq!(cape.digest, w.run_baseline().digest);
    }

    #[test]
    fn absent_needles_report_minus_one() {
        let w = StringMatch { n: 400, needles: 4 };
        let mut mem = MainMemory::new();
        let prog = w.cape_setup(&mut mem);
        let mut machine = cape_core::CapeMachine::new(CapeConfig::tiny(2));
        machine.run(&prog, &mut mem).unwrap();
        let out = mem.read_u32_slice(OUT as u64, 8);
        // Needle 1 (key 3001) and 3 (key 3003) are absent.
        assert_eq!(out[2], 0);
        assert_eq!(out[3], u32::MAX);
        assert_eq!(out[6], 0);
        assert_eq!(out[7], u32::MAX);
        // Needle 0 (key 0, Zipf head) is present with a valid first index.
        assert!(out[0] > 0);
        assert!((out[1] as usize) < 400);
    }
}
