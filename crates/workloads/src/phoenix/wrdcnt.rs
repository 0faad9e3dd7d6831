//! Word count over a Zipf-distributed token stream.
//!
//! The input "file" must first be traversed sequentially (the parsing
//! pass Phoenix performs) — that scalar tail, plus the per-word count
//! table, is what caps this application's scaling in the paper (its
//! speedup *drops* from CAPE32k to CAPE131k). Counting itself is CAPE
//! gold: one bulk search plus a tree popcount per (strip, word).

use cape_baseline::{OooCore, SimdProfile};
use cape_isa::{fnv1a_words, Program, Reg, VReg};
use cape_mem::MainMemory;

use super::map::{OUT, SRC1};
use crate::gen;
use crate::harness::{BaselineRun, Workload};

/// Count the `top` most-frequent word ids in a stream of `n` tokens.
#[derive(Debug, Clone, Copy)]
pub struct WordCount {
    /// Token count.
    pub n: usize,
    /// Vocabulary size of the generator.
    pub vocab: usize,
    /// How many (low, i.e. frequent) word ids to count.
    pub top: usize,
}

impl WordCount {
    fn input(&self) -> Vec<u32> {
        gen::zipf_words(self.n, self.vocab, 121)
    }
}

impl Workload for WordCount {
    fn name(&self) -> &'static str {
        "wrdcnt"
    }

    fn cape_setup(&self, mem: &mut MainMemory) -> Program {
        mem.write_u32_slice(SRC1 as u64, &self.input());
        let top = self.top as i64;
        let mut p = Program::builder();
        // ----- sequential traversal ("parsing"), a scalar pass -----
        // Unrolled 4x, as a compiler would emit it; the tail is handled
        // by choosing n as a multiple of 4 (the generator guarantees it).
        assert_eq!(self.n % 4, 0, "token count must be a multiple of 4");
        p.li(Reg::S0, (self.n / 4) as i64);
        p.li(Reg::S1, SRC1);
        p.li(Reg::S4, 0); // checksum
        p.label("parse");
        p.lw(Reg::T2, 0, Reg::S1);
        p.add(Reg::S4, Reg::S4, Reg::T2);
        p.lw(Reg::T2, 4, Reg::S1);
        p.add(Reg::S4, Reg::S4, Reg::T2);
        p.lw(Reg::T2, 8, Reg::S1);
        p.add(Reg::S4, Reg::S4, Reg::T2);
        p.lw(Reg::T2, 12, Reg::S1);
        p.add(Reg::S4, Reg::S4, Reg::T2);
        p.addi(Reg::S1, Reg::S1, 16);
        p.addi(Reg::S0, Reg::S0, -1);
        p.bnez(Reg::S0, "parse");
        // ----- zero the count table -----
        p.li(Reg::T3, 0);
        p.li(Reg::T5, OUT);
        p.label("zcnt");
        p.sw(Reg::ZERO, 0, Reg::T5);
        p.addi(Reg::T5, Reg::T5, 4);
        p.addi(Reg::T3, Reg::T3, 1);
        p.li(Reg::T4, top);
        p.blt(Reg::T3, Reg::T4, "zcnt");
        // ----- vector counting pass -----
        p.li(Reg::S0, self.n as i64);
        p.li(Reg::S1, SRC1);
        p.li(Reg::S11, top);
        p.label("strip");
        p.vsetvli(Reg::T0, Reg::S0);
        p.vle32(VReg::V1, Reg::S1);
        p.li(Reg::T3, 0); // word id
        p.label("word");
        p.vmseq_vx(VReg::V2, VReg::V1, Reg::T3);
        p.vcpop(Reg::T4, VReg::V2);
        p.slli(Reg::T5, Reg::T3, 2);
        p.li(Reg::T6, OUT);
        p.add(Reg::T5, Reg::T5, Reg::T6);
        p.lw(Reg::T6, 0, Reg::T5);
        p.add(Reg::T6, Reg::T6, Reg::T4);
        p.sw(Reg::T6, 0, Reg::T5);
        p.addi(Reg::T3, Reg::T3, 1);
        p.blt(Reg::T3, Reg::S11, "word");
        p.sub(Reg::S0, Reg::S0, Reg::T0);
        p.slli(Reg::T1, Reg::T0, 2);
        p.add(Reg::S1, Reg::S1, Reg::T1);
        p.bnez(Reg::S0, "strip");
        // Store the traversal checksum after the counts.
        p.li(Reg::T5, OUT + 4 * top);
        p.sw(Reg::S4, 0, Reg::T5);
        p.halt();
        p.build().expect("wrdcnt program")
    }

    fn digest(&self, mem: &MainMemory) -> u64 {
        fnv1a_words(mem.read_u32_slice(OUT as u64, self.top + 1))
    }

    fn run_baseline(&self) -> BaselineRun {
        let words = self.input();
        let mut core = OooCore::table3();
        let mut counts = vec![0u32; self.top];
        let mut checksum = 0u32;
        for (i, &w) in words.iter().enumerate() {
            core.load(SRC1 as u64 + (i as u64) * 4);
            core.op(5); // checksum + word hashing + bound check
            core.branch(2);
            checksum = checksum.wrapping_add(w);
            if (w as usize) < self.top {
                core.rmw(OUT as u64 + u64::from(w) * 4);
                counts[w as usize] += 1;
            }
        }
        let mut out = counts;
        out.push(checksum);
        BaselineRun {
            report: core.finish(),
            digest: fnv1a_words(out),
            simd: SimdProfile {
                vec_ops: self.n as u64,
                vec_red_ops: self.n as u64,
                // Parsing + table updates stay scalar.
                scalar_ops: 2 * self.n as u64,
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
    fn cape_and_baseline_counts_match() {
        let w = WordCount {
            n: 600,
            vocab: 64,
            top: 8,
        };
        let cape = run_cape(&w, &CapeConfig::tiny(4));
        assert_eq!(cape.digest, w.run_baseline().digest);
    }

    #[test]
    fn zipf_head_dominates_counts() {
        let w = WordCount {
            n: 2000,
            vocab: 64,
            top: 8,
        };
        let mut mem = MainMemory::new();
        let prog = w.cape_setup(&mut mem);
        let mut machine = cape_core::CapeMachine::new(CapeConfig::tiny(4));
        machine.run(&prog, &mut mem).unwrap();
        let counts = mem.read_u32_slice(OUT as u64, 8);
        assert!(counts[0] > counts[7] * 3, "head {counts:?}");
    }
}
