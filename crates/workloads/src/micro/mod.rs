//! Microbenchmarks (Section VI-D; set reconstructed — see DESIGN.md).
//!
//! * [`Vvadd`] — element-wise vector addition (streaming, memory-bound).
//! * [`DotProd`] — inner product (vmul + accumulated vredsum).
//! * [`Memcpy`] — pure data movement through the VMU.
//! * [`SearchCount`] — count occurrences of a key (CAPE's bulk search).
//! * [`IdxSearch`] — find each key's first index (`idxsrch` in the
//!   paper): parallel searches with *serialized* per-key post-processing,
//!   the Amdahl pattern the Roofline discussion highlights.

use cape_baseline::{OooCore, SimdProfile};
use cape_isa::{fnv1a_words, Program, Reg, VReg};
use cape_mem::MainMemory;

use crate::gen;
use crate::harness::{BaselineRun, Workload};

const SRC1: i64 = 0x0001_0000;
const SRC2: i64 = 0x0100_0000;
const DST: i64 = 0x0200_0000;
const OUT: i64 = 0x0300_0000;
const KEYS: i64 = 0x0400_0000;

fn advance(p: &mut cape_isa::ProgramBuilder, granted: Reg, ptrs: &[Reg]) {
    p.slli(Reg::T1, granted, 2);
    for &r in ptrs {
        p.add(r, r, Reg::T1);
    }
}

/// `vvadd`: `c[i] = a[i] + b[i]`.
#[derive(Debug, Clone, Copy)]
pub struct Vvadd {
    /// Element count.
    pub n: usize,
}

impl Workload for Vvadd {
    fn name(&self) -> &'static str {
        "vvadd"
    }

    fn cape_setup(&self, mem: &mut MainMemory) -> Program {
        let a = gen::matrix(1, self.n, 1 << 30, 11);
        let b = gen::matrix(1, self.n, 1 << 30, 12);
        mem.write_u32_slice(SRC1 as u64, &a);
        mem.write_u32_slice(SRC2 as u64, &b);
        let mut p = Program::builder();
        p.li(Reg::S0, self.n as i64);
        p.li(Reg::S1, SRC1);
        p.li(Reg::S2, SRC2);
        p.li(Reg::S3, DST);
        p.label("strip");
        p.vsetvli(Reg::T0, Reg::S0);
        p.vle32(VReg::V1, Reg::S1);
        p.vle32(VReg::V2, Reg::S2);
        p.vadd_vv(VReg::V3, VReg::V1, VReg::V2);
        p.vse32(VReg::V3, Reg::S3);
        p.sub(Reg::S0, Reg::S0, Reg::T0);
        advance(&mut p, Reg::T0, &[Reg::S1, Reg::S2, Reg::S3]);
        p.bnez(Reg::S0, "strip");
        p.halt();
        p.build().expect("vvadd program")
    }

    fn digest(&self, mem: &MainMemory) -> u64 {
        fnv1a_words(mem.read_u32_slice(DST as u64, self.n))
    }

    fn run_baseline(&self) -> BaselineRun {
        let a = gen::matrix(1, self.n, 1 << 30, 11);
        let b = gen::matrix(1, self.n, 1 << 30, 12);
        let mut core = OooCore::table3();
        let mut out = Vec::with_capacity(self.n);
        for i in 0..self.n {
            core.load(SRC1 as u64 + (i as u64) * 4);
            core.load(SRC2 as u64 + (i as u64) * 4);
            core.op(1);
            core.branch(1);
            core.store(DST as u64 + (i as u64) * 4);
            out.push(a[i].wrapping_add(b[i]));
        }
        BaselineRun {
            report: core.finish(),
            digest: fnv1a_words(out),
            simd: SimdProfile {
                vec_ops: self.n as u64,
                ..Default::default()
            },
            parallel_fraction: 0.99,
        }
    }
}

/// `dotprod`: `sum(a[i] * b[i])` (wrapping, as 32-bit RVV arithmetic).
#[derive(Debug, Clone, Copy)]
pub struct DotProd {
    /// Element count.
    pub n: usize,
}

impl Workload for DotProd {
    fn name(&self) -> &'static str {
        "dotprod"
    }

    fn cape_setup(&self, mem: &mut MainMemory) -> Program {
        let a = gen::matrix(1, self.n, 1000, 21);
        let b = gen::matrix(1, self.n, 1000, 22);
        mem.write_u32_slice(SRC1 as u64, &a);
        mem.write_u32_slice(SRC2 as u64, &b);
        let mut p = Program::builder();
        p.li(Reg::S0, self.n as i64);
        p.li(Reg::S1, SRC1);
        p.li(Reg::S2, SRC2);
        p.vsetvli(Reg::T0, Reg::S0);
        p.vmv_vx(VReg::V6, Reg::ZERO); // running sum in v6[0]
        p.label("strip");
        p.vsetvli(Reg::T0, Reg::S0);
        p.vle32(VReg::V1, Reg::S1);
        p.vle32(VReg::V2, Reg::S2);
        p.vmul_vv(VReg::V3, VReg::V1, VReg::V2);
        p.vredsum(VReg::V6, VReg::V3, VReg::V6);
        p.sub(Reg::S0, Reg::S0, Reg::T0);
        advance(&mut p, Reg::T0, &[Reg::S1, Reg::S2]);
        p.bnez(Reg::S0, "strip");
        p.vmv_xs(Reg::T5, VReg::V6);
        p.li(Reg::A0, OUT);
        p.sw(Reg::T5, 0, Reg::A0);
        p.halt();
        p.build().expect("dotprod program")
    }

    fn digest(&self, mem: &MainMemory) -> u64 {
        fnv1a_words([mem.read_u32(OUT as u64)])
    }

    fn run_baseline(&self) -> BaselineRun {
        let a = gen::matrix(1, self.n, 1000, 21);
        let b = gen::matrix(1, self.n, 1000, 22);
        let mut core = OooCore::table3();
        let mut acc = 0u32;
        for i in 0..self.n {
            core.load(SRC1 as u64 + (i as u64) * 4);
            core.load(SRC2 as u64 + (i as u64) * 4);
            core.mul(1);
            core.op(1);
            core.branch(1);
            acc = acc.wrapping_add(a[i].wrapping_mul(b[i]));
        }
        core.store(OUT as u64);
        BaselineRun {
            report: core.finish(),
            digest: fnv1a_words([acc]),
            simd: SimdProfile {
                vec_mul_ops: self.n as u64,
                vec_red_ops: self.n as u64,
                ..Default::default()
            },
            parallel_fraction: 0.99,
        }
    }
}

/// `memcpy`: `b[i] = a[i]`, pure VMU streaming.
#[derive(Debug, Clone, Copy)]
pub struct Memcpy {
    /// Element count.
    pub n: usize,
}

impl Workload for Memcpy {
    fn name(&self) -> &'static str {
        "memcpy"
    }

    fn cape_setup(&self, mem: &mut MainMemory) -> Program {
        let a = gen::matrix(1, self.n, u32::MAX, 31);
        mem.write_u32_slice(SRC1 as u64, &a);
        let mut p = Program::builder();
        p.li(Reg::S0, self.n as i64);
        p.li(Reg::S1, SRC1);
        p.li(Reg::S3, DST);
        p.label("strip");
        p.vsetvli(Reg::T0, Reg::S0);
        p.vle32(VReg::V1, Reg::S1);
        p.vse32(VReg::V1, Reg::S3);
        p.sub(Reg::S0, Reg::S0, Reg::T0);
        advance(&mut p, Reg::T0, &[Reg::S1, Reg::S3]);
        p.bnez(Reg::S0, "strip");
        p.halt();
        p.build().expect("memcpy program")
    }

    fn digest(&self, mem: &MainMemory) -> u64 {
        fnv1a_words(mem.read_u32_slice(DST as u64, self.n))
    }

    fn run_baseline(&self) -> BaselineRun {
        let a = gen::matrix(1, self.n, u32::MAX, 31);
        let mut core = OooCore::table3();
        for i in 0..self.n {
            core.load(SRC1 as u64 + (i as u64) * 4);
            core.store(DST as u64 + (i as u64) * 4);
            core.branch(1);
        }
        BaselineRun {
            report: core.finish(),
            digest: fnv1a_words(a),
            simd: SimdProfile {
                vec_ops: self.n as u64,
                ..Default::default()
            },
            parallel_fraction: 0.99,
        }
    }
}

/// `search`: count the occurrences of one key — CAPE's signature
/// bit-parallel search plus the reduction tree.
#[derive(Debug, Clone, Copy)]
pub struct SearchCount {
    /// Element count.
    pub n: usize,
    /// The key to count.
    pub key: u32,
}

impl Workload for SearchCount {
    fn name(&self) -> &'static str {
        "search"
    }

    fn cape_setup(&self, mem: &mut MainMemory) -> Program {
        let a = gen::zipf_words(self.n, 256, 41);
        mem.write_u32_slice(SRC1 as u64, &a);
        let mut p = Program::builder();
        p.li(Reg::S0, self.n as i64);
        p.li(Reg::S1, SRC1);
        p.li(Reg::S4, 0);
        p.li(Reg::S5, i64::from(self.key));
        p.label("strip");
        p.vsetvli(Reg::T0, Reg::S0);
        p.vle32(VReg::V1, Reg::S1);
        p.vmseq_vx(VReg::V2, VReg::V1, Reg::S5);
        p.vcpop(Reg::T2, VReg::V2);
        p.add(Reg::S4, Reg::S4, Reg::T2);
        p.sub(Reg::S0, Reg::S0, Reg::T0);
        advance(&mut p, Reg::T0, &[Reg::S1]);
        p.bnez(Reg::S0, "strip");
        p.li(Reg::A0, OUT);
        p.sw(Reg::S4, 0, Reg::A0);
        p.halt();
        p.build().expect("search program")
    }

    fn digest(&self, mem: &MainMemory) -> u64 {
        fnv1a_words([mem.read_u32(OUT as u64)])
    }

    fn run_baseline(&self) -> BaselineRun {
        let a = gen::zipf_words(self.n, 256, 41);
        let mut core = OooCore::table3();
        let mut count = 0u32;
        for (i, &word) in a.iter().enumerate().take(self.n) {
            core.load(SRC1 as u64 + (i as u64) * 4);
            core.op(1);
            core.branch(1);
            if word == self.key {
                count += 1;
            }
        }
        core.store(OUT as u64);
        BaselineRun {
            report: core.finish(),
            digest: fnv1a_words([count]),
            simd: SimdProfile {
                vec_ops: self.n as u64,
                vec_red_ops: self.n as u64,
                ..Default::default()
            },
            parallel_fraction: 0.99,
        }
    }
}

/// `idxsrch`: for each of `keys` keys, find the index of its first
/// occurrence (or -1). The searches are massively parallel but each
/// match is post-processed serially on the control processor.
#[derive(Debug, Clone, Copy)]
pub struct IdxSearch {
    /// Haystack length.
    pub n: usize,
    /// Number of keys to look up.
    pub keys: usize,
}

impl IdxSearch {
    fn inputs(&self) -> (Vec<u32>, Vec<u32>) {
        let hay = gen::zipf_words(self.n, 4096, 51);
        // Mix present and absent keys.
        let keys = (0..self.keys)
            .map(|i| {
                if i % 3 == 2 {
                    5000 + i as u32
                } else {
                    (i as u32) * 7 % 4096
                }
            })
            .collect();
        (hay, keys)
    }
}

impl Workload for IdxSearch {
    fn name(&self) -> &'static str {
        "idxsrch"
    }

    fn cape_setup(&self, mem: &mut MainMemory) -> Program {
        let (hay, keys) = self.inputs();
        mem.write_u32_slice(SRC1 as u64, &hay);
        mem.write_u32_slice(KEYS as u64, &keys);
        let mut p = Program::builder();
        p.li(Reg::S6, KEYS);
        p.li(Reg::S7, self.keys as i64);
        p.li(Reg::S8, OUT);
        p.label("key_loop");
        p.lw(Reg::S5, 0, Reg::S6);
        p.li(Reg::S0, self.n as i64);
        p.li(Reg::S1, SRC1);
        p.li(Reg::S9, 0); // strip base index
        p.label("strip");
        p.vsetvli(Reg::T0, Reg::S0);
        p.vle32(VReg::V1, Reg::S1);
        p.vmseq_vx(VReg::V2, VReg::V1, Reg::S5);
        p.vfirst(Reg::T2, VReg::V2);
        p.bge(Reg::T2, Reg::ZERO, "found");
        p.sub(Reg::S0, Reg::S0, Reg::T0);
        advance(&mut p, Reg::T0, &[Reg::S1]);
        p.add(Reg::S9, Reg::S9, Reg::T0);
        p.bnez(Reg::S0, "strip");
        p.li(Reg::T2, -1);
        p.j("store");
        p.label("found");
        p.add(Reg::T2, Reg::T2, Reg::S9);
        p.label("store");
        p.sw(Reg::T2, 0, Reg::S8);
        p.addi(Reg::S8, Reg::S8, 4);
        p.addi(Reg::S6, Reg::S6, 4);
        p.addi(Reg::S7, Reg::S7, -1);
        p.bnez(Reg::S7, "key_loop");
        p.halt();
        p.build().expect("idxsrch program")
    }

    fn digest(&self, mem: &MainMemory) -> u64 {
        fnv1a_words(mem.read_u32_slice(OUT as u64, self.keys))
    }

    fn run_baseline(&self) -> BaselineRun {
        let (hay, keys) = self.inputs();
        let mut core = OooCore::table3();
        let mut out = Vec::with_capacity(keys.len());
        let mut scanned = 0u64;
        for &k in &keys {
            core.load(KEYS as u64); // key fetch
            let mut found = -1i32;
            for (i, &w) in hay.iter().enumerate() {
                core.load(SRC1 as u64 + (i as u64) * 4);
                core.op(1);
                core.branch(1);
                scanned += 1;
                if w == k {
                    found = i as i32;
                    break;
                }
            }
            core.store(OUT as u64);
            out.push(found as u32);
        }
        BaselineRun {
            report: core.finish(),
            digest: fnv1a_words(out),
            simd: SimdProfile {
                vec_ops: scanned,
                scalar_ops: keys.len() as u64 * 4,
                ..Default::default()
            },
            // Per-key searches are independent, but matches are resolved
            // serially.
            parallel_fraction: 0.85,
        }
    }
}

/// The standard microbenchmark set at a given scale.
pub fn suite(n: usize) -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(Vvadd { n }),
        Box::new(DotProd { n }),
        Box::new(Memcpy { n }),
        Box::new(SearchCount { n, key: 3 }),
        Box::new(IdxSearch { n, keys: 24 }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run_cape;
    use cape_core::CapeConfig;

    fn check(w: &dyn Workload) {
        let cape = run_cape(w, &CapeConfig::tiny(4));
        let base = w.run_baseline();
        assert_eq!(cape.digest, base.digest, "{} results must match", w.name());
        assert!(cape.report.cycles > 0);
        assert!(base.report.cycles > 0);
    }

    #[test]
    fn vvadd_matches_baseline() {
        check(&Vvadd { n: 700 });
    }

    #[test]
    fn dotprod_matches_baseline() {
        check(&DotProd { n: 700 });
    }

    #[test]
    fn memcpy_matches_baseline() {
        check(&Memcpy { n: 700 });
    }

    #[test]
    fn search_matches_baseline() {
        check(&SearchCount { n: 700, key: 3 });
    }

    #[test]
    fn idxsrch_matches_baseline() {
        check(&IdxSearch { n: 500, keys: 9 });
    }

    #[test]
    fn idxsrch_handles_missing_keys() {
        let w = IdxSearch { n: 300, keys: 6 };
        let cape = run_cape(&w, &CapeConfig::tiny(2));
        let mut mem = MainMemory::new();
        let _ = w.cape_setup(&mut mem);
        // key index 2 and 5 are the absent (5000+) ones.
        let _ = cape; // digest equality already covers this; ensure the
                      // generator really made them absent:
        let (hay, keys) = w.inputs();
        assert!(!hay.contains(&keys[2]));
    }
}
