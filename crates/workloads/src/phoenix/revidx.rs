//! Reverse index: which documents contain which vocabulary words.
//!
//! The corpus is a flat token array partitioned into fixed-length
//! documents. The CAPE version searches every word over a full strip at
//! once, then walks the per-document windows (the reconfigurable active
//! window of Section V-F) to test membership — a *serialized*
//! post-processing pass per (word, document) pair, which is exactly the
//! scaling bottleneck the paper attributes to this application.

use cape_baseline::{OooCore, SimdProfile};
use cape_isa::{fnv1a_words, AluOp, Program, Reg, VReg};
use cape_mem::MainMemory;

use super::map::{OUT, SRC1};
use crate::gen;
use crate::harness::{BaselineRun, Workload};

/// Build a `vocab x docs` membership matrix over a synthetic corpus.
///
/// `words_per_doc` must be a multiple of 32 (documents then never
/// straddle a strip boundary, since `MAX_VL` is a multiple of 32).
#[derive(Debug, Clone, Copy)]
pub struct ReverseIndex {
    /// Number of documents.
    pub docs: usize,
    /// Tokens per document.
    pub words_per_doc: usize,
    /// Vocabulary words to index (ids `0..vocab`).
    pub vocab: usize,
}

impl ReverseIndex {
    fn input(&self) -> Vec<u32> {
        gen::zipf_words(self.docs * self.words_per_doc, 512.max(self.vocab), 131)
    }
}

impl Workload for ReverseIndex {
    fn name(&self) -> &'static str {
        "revidx"
    }

    fn cape_setup(&self, mem: &mut MainMemory) -> Program {
        assert_eq!(
            self.words_per_doc % 32,
            0,
            "documents must be strip-alignable (multiple of 32 tokens)"
        );
        mem.write_u32_slice(SRC1 as u64, &self.input());
        let total = (self.docs * self.words_per_doc) as i64;
        let l = self.words_per_doc as i64;
        let mut p = Program::builder();
        p.li(Reg::S0, total); // remaining tokens
        p.li(Reg::S1, SRC1);
        p.li(Reg::S2, 0); // base document index of this strip
        p.li(Reg::S3, l);
        p.li(Reg::S11, self.vocab as i64);
        p.li(Reg::A6, self.docs as i64);
        p.label("strip");
        // Whole documents only: vl = docs_this_strip * L.
        p.vsetvli(Reg::T0, Reg::S0);
        p.op(AluOp::Divu, Reg::S8, Reg::T0, Reg::S3); // docs this strip
        p.mul(Reg::T3, Reg::S8, Reg::S3); // tokens used
        p.vsetvli(Reg::T0, Reg::T3);
        p.vle32(VReg::V1, Reg::S1);
        p.li(Reg::S4, 0); // word id
        p.label("word");
        p.vsetvli(Reg::T6, Reg::T3); // full strip window
        p.vmseq_vx(VReg::V2, VReg::V1, Reg::S4);
        p.li(Reg::S5, 0); // document within strip
        p.label("doc");
        // Window the document: [d*L, (d+1)*L).
        p.addi(Reg::T4, Reg::S5, 1);
        p.mul(Reg::T4, Reg::T4, Reg::S3);
        p.vsetvli(Reg::T5, Reg::T4);
        p.mul(Reg::T5, Reg::S5, Reg::S3);
        p.vsetstart(Reg::T5);
        p.vcpop(Reg::T4, VReg::V2);
        p.op(AluOp::Sltu, Reg::T4, Reg::ZERO, Reg::T4); // contains? 0/1
                                                        // OUT[word * docs + (base + d)]
        p.mul(Reg::T5, Reg::S4, Reg::A6);
        p.add(Reg::T5, Reg::T5, Reg::S2);
        p.add(Reg::T5, Reg::T5, Reg::S5);
        p.slli(Reg::T5, Reg::T5, 2);
        p.li(Reg::T6, OUT);
        p.add(Reg::T5, Reg::T5, Reg::T6);
        p.sw(Reg::T4, 0, Reg::T5);
        p.addi(Reg::S5, Reg::S5, 1);
        p.blt(Reg::S5, Reg::S8, "doc");
        p.addi(Reg::S4, Reg::S4, 1);
        p.blt(Reg::S4, Reg::S11, "word");
        p.sub(Reg::S0, Reg::S0, Reg::T3);
        p.slli(Reg::T1, Reg::T3, 2);
        p.add(Reg::S1, Reg::S1, Reg::T1);
        p.add(Reg::S2, Reg::S2, Reg::S8);
        p.bnez(Reg::S0, "strip");
        p.halt();
        p.build().expect("revidx program")
    }

    fn digest(&self, mem: &MainMemory) -> u64 {
        fnv1a_words(mem.read_u32_slice(OUT as u64, self.vocab * self.docs))
    }

    fn run_baseline(&self) -> BaselineRun {
        let corpus = self.input();
        let mut core = OooCore::table3();
        let mut matrix = vec![0u32; self.vocab * self.docs];
        // One corpus pass; membership bits set per token.
        for (i, &w) in corpus.iter().enumerate() {
            core.load(SRC1 as u64 + (i as u64) * 4);
            core.op(2);
            core.branch(2);
            if (w as usize) < self.vocab {
                let d = i / self.words_per_doc;
                let slot = w as usize * self.docs + d;
                core.rmw(OUT as u64 + (slot as u64) * 4);
                matrix[slot] = 1;
            }
        }
        BaselineRun {
            report: core.finish(),
            digest: fnv1a_words(matrix),
            simd: SimdProfile {
                vec_ops: corpus.len() as u64,
                // The index updates serialize on the shared table.
                scalar_ops: 2 * corpus.len() as u64,
                ..Default::default()
            },
            parallel_fraction: 0.88,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run_cape;
    use cape_core::CapeConfig;

    #[test]
    fn cape_and_baseline_indexes_match() {
        let w = ReverseIndex {
            docs: 6,
            words_per_doc: 32,
            vocab: 6,
        };
        let cape = run_cape(&w, &CapeConfig::tiny(4));
        assert_eq!(cape.digest, w.run_baseline().digest);
    }

    #[test]
    fn frequent_words_appear_in_every_document() {
        let w = ReverseIndex {
            docs: 4,
            words_per_doc: 64,
            vocab: 4,
        };
        let mut mem = MainMemory::new();
        let prog = w.cape_setup(&mut mem);
        let mut machine = cape_core::CapeMachine::new(CapeConfig::tiny(4));
        machine.run(&prog, &mut mem).unwrap();
        // Word 0 is Zipf-dominant: present in all 4 documents.
        let row = mem.read_u32_slice(OUT as u64, 4);
        assert_eq!(row, vec![1, 1, 1, 1]);
    }
}
