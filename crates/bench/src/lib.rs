//! Shared helpers for the table/figure regeneration binaries.
//!
//! Every binary prints a self-contained report to stdout; EXPERIMENTS.md
//! records paper-vs-measured for each. Set `CAPE_BENCH_SCALE=quick` to
//! run the figure harnesses at reduced input sizes (same shapes, faster).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cape_baseline::MulticoreModel;
use cape_core::CapeConfig;
use cape_workloads::{run_cape, BaselineRun, CapeRun, Workload};

/// One workload evaluated on one CAPE configuration plus its baseline.
#[derive(Debug)]
pub struct Measurement {
    /// Workload name.
    pub name: &'static str,
    /// CAPE run.
    pub cape: CapeRun,
    /// Baseline single-core run.
    pub baseline: BaselineRun,
}

impl Measurement {
    /// Runs a workload on `config` and its baseline, asserting that both
    /// implementations produced identical results.
    pub fn take(workload: &dyn Workload, config: &CapeConfig) -> Self {
        let cape = run_cape(workload, config);
        let baseline = workload.run_baseline();
        assert_eq!(
            cape.digest,
            baseline.digest,
            "{}: CAPE and baseline results diverge",
            workload.name()
        );
        Self {
            name: workload.name(),
            cape,
            baseline,
        }
    }

    /// Speedup of the CAPE run over the single-core baseline.
    pub fn speedup_1core(&self) -> f64 {
        self.baseline.report.time_ms() / self.cape.report.time_ms()
    }

    /// Speedup over an `n`-core baseline (Amdahl + bandwidth model).
    pub fn speedup_ncore(&self, cores: u32) -> f64 {
        let multi = MulticoreModel::new(self.baseline.parallel_fraction);
        multi.time_ms(&self.baseline.report, cores) / self.cape.report.time_ms()
    }
}

/// The fusion-gate workload: a Phoenix-style string-match scan sized
/// for a 4k-chain machine, shared by the `fused_window` Criterion group
/// and the `fusion_smoke` release gate.
///
/// The text window is loaded once and stays CSB-resident; every
/// iteration then runs *exactly one fusion window* (32 fusible ops) of
/// short-microprogram work — per pattern: scalar-xor, low-byte mask,
/// equality probe, id broadcast, masked merge, coverage accumulate —
/// followed by a shift-xor rolling-hash step that evolves the text so
/// iterations are not redundant. This is the regime fusion targets: the
/// per-op broadcast plans are 1–34 steps, so per-dispatch overhead (not
/// bit-serial compute) dominates the unfused path. All scalar operands
/// are loop-invariant, so each iteration replays the same
/// `(op, sew)` sequence and the fused-window cache amortizes the fusion
/// pass across iterations. Reductions and stores happen once, after the
/// loop.
pub mod fusion {
    use cape_core::CapeConfig;
    use cape_isa::{Program, Reg, Sew, VAluOp, VReg};
    use cape_mem::MainMemory;

    /// Chains in the gate machine (`max_vl` = 4096 × 32 = 131 072 —
    /// the paper's CAPE131k scale point).
    pub const CHAINS: usize = 4096;
    /// Input base for the resident text words.
    pub const IN_TEXT: u64 = 0x10_0000;
    /// Output base: per-element matched-pattern ids, then the coverage
    /// checksum.
    pub const OUT: u64 = 0x30_0000;
    /// Pattern keys the scan searches for — loop-invariant scalars. An
    /// element matches pattern `k` when its low byte equals the key's
    /// (the xor of text and key vanishes under the `0xff` mask).
    pub const PATTERNS: [u32; 5] = [
        0x6b65_7931,
        0x7061_7437,
        0x3133_3700,
        0x6361_7065,
        0x002a_2a2a,
    ];

    /// The gate machine: `CapeConfig::tiny` geometry at 4k chains, so
    /// the whole dataset is one full vector window.
    pub fn config() -> CapeConfig {
        CapeConfig::tiny(CHAINS)
    }

    /// Text words for a machine with `max_vl` lanes (one full window).
    pub fn input(max_vl: usize) -> MainMemory {
        let mut mem = MainMemory::new();
        let text: Vec<u32> = (0..max_vl as u32)
            .map(|i| i.wrapping_mul(2_654_435_761).rotate_right(7))
            .collect();
        mem.write_u32_slice(IN_TEXT, &text);
        mem
    }

    /// The kernel: `iters` scan sweeps of `max_vl` resident text words
    /// against [`PATTERNS`], then one reduction + vector store.
    ///
    /// Each sweep emits exactly 32 fusible vector ops — 5 patterns ×
    /// (xor.vx, and.vx, vmseq.vx, vmv.v.x, vmerge, vor.vv) plus the
    /// two-op rolling-hash text evolution — so with the default
    /// `fusion_window = 32` every iteration is one whole window and the
    /// window cache hits from the second sweep on.
    pub fn phoenix_loop(max_vl: usize, iters: usize) -> Program {
        let mut p = Program::builder();
        p.li(Reg::S0, max_vl as i64);
        p.li(Reg::S1, IN_TEXT as i64);
        p.li(Reg::S3, OUT as i64);
        p.li(Reg::S4, iters as i64);
        // Loop-invariant scalars, set once: pattern keys in A0-A4, the
        // low-byte mask in A5, pattern ids (k + 1) in S5-S9.
        let keys = [Reg::A0, Reg::A1, Reg::A2, Reg::A3, Reg::A4];
        let ids = [Reg::S5, Reg::S6, Reg::S7, Reg::S8, Reg::S9];
        for (k, pat) in PATTERNS.iter().enumerate() {
            p.li(keys[k], i64::from(*pat));
            p.li(ids[k], k as i64 + 1);
        }
        p.li(Reg::A5, 0xff);
        p.vsetvli(Reg::T0, Reg::S0);
        // The id/coverage initializers fuse into their own short window;
        // the text load is a barrier, so the loop starts with an empty
        // buffer and each sweep aligns exactly with one fusion window.
        p.vmv_vx(VReg::V11, Reg::ZERO); // matched-pattern ids
        p.vmv_vx(VReg::V12, Reg::ZERO); // coverage accumulator
        p.vle32(VReg::V1, Reg::S1); // text, resident
        p.label("sweep");
        for k in 0..PATTERNS.len() {
            p.vop_vx(VAluOp::Xor, VReg::V3, VReg::V1, keys[k]);
            p.vop_vx(VAluOp::And, VReg::V5, VReg::V3, Reg::A5);
            p.vmseq_vx(VReg::V0, VReg::V5, Reg::ZERO);
            p.vmv_vx(VReg::V6, ids[k]);
            p.vmerge(VReg::V11, VReg::V11, VReg::V6);
            p.vop_vv(VAluOp::Or, VReg::V12, VReg::V12, VReg::V3);
        }
        // Rolling-hash evolution: text ^= text << 1, so successive
        // sweeps scan fresh data (scalars stay loop-invariant).
        p.vsll_vi(VReg::V4, VReg::V1, 1);
        p.vop_vv(VAluOp::Xor, VReg::V1, VReg::V1, VReg::V4);
        p.addi(Reg::S4, Reg::S4, -1);
        p.bnez(Reg::S4, "sweep");
        // Barrier tail: store the ids, reduce the coverage checksum.
        p.vse32(VReg::V11, Reg::S3);
        p.vmv_vx(VReg::V13, Reg::ZERO);
        p.vredsum(VReg::V13, VReg::V12, VReg::V13);
        p.vmv_xs(Reg::T2, VReg::V13);
        p.li(Reg::A6, (OUT + 4 * max_vl as u64) as i64);
        p.sw(Reg::T2, 0, Reg::A6);
        p.halt();
        p.build().expect("fusion gate kernel builds")
    }

    /// FNV-1a digest of the kernel's output region.
    pub fn digest(mem: &MainMemory, max_vl: usize) -> u64 {
        cape_isa::fnv1a_words(mem.read_u32_slice(OUT, max_vl + 1))
    }

    /// Mixed-SEW variant of [`phoenix_loop`]: the first four pattern
    /// groups scan at e8 (the low-byte probe only needs a byte), then an
    /// unchanged-`vl` `vsetvli` retargets to e16 *mid-sweep* for the
    /// fifth group and the rolling-hash evolution. Still exactly 32
    /// fusible ops per sweep, so with `fusion_window = 32` every sweep
    /// is one whole window **containing both element widths** — the SEW
    /// changes join the window as no-ops instead of flushing it.
    ///
    /// The fifth group is a *two-stage* probe: a coarse low-byte
    /// equality test immediately superseded by the exact match. The
    /// coarse probe's tag store is dead — overwritten by the exact
    /// probe's `Set` before anything reads the mask — which only the v2
    /// window compiler's tag-aware liveness pass can prove, so this
    /// kernel is also the dead-store gate: `fusion_reorder = true` must
    /// retire strictly more stores than the in-order pipeline on it.
    pub fn phoenix_loop_mixed(max_vl: usize, iters: usize) -> Program {
        let mut p = Program::builder();
        p.li(Reg::S0, max_vl as i64);
        p.li(Reg::S1, IN_TEXT as i64);
        p.li(Reg::S3, OUT as i64);
        p.li(Reg::S4, iters as i64);
        let keys = [Reg::A0, Reg::A1, Reg::A2, Reg::A3, Reg::A4];
        let ids = [Reg::S5, Reg::S6, Reg::S7, Reg::S8, Reg::S9];
        for (k, pat) in PATTERNS.iter().enumerate() {
            p.li(keys[k], i64::from(*pat));
            p.li(ids[k], k as i64 + 1);
        }
        p.li(Reg::A5, 0xff);
        p.vsetvli(Reg::T0, Reg::S0);
        p.vmv_vx(VReg::V11, Reg::ZERO);
        p.vmv_vx(VReg::V12, Reg::ZERO);
        p.vle32(VReg::V1, Reg::S1);
        p.label("sweep");
        // Same vl, narrower element: joins the pending window (empty
        // here) as a no-op rather than ending it.
        p.vsetvli_sew(Reg::T1, Reg::S0, Sew::E8);
        for k in 0..4 {
            p.vop_vx(VAluOp::Xor, VReg::V3, VReg::V1, keys[k]);
            p.vop_vx(VAluOp::And, VReg::V5, VReg::V3, Reg::A5);
            p.vmseq_vx(VReg::V0, VReg::V5, Reg::ZERO);
            p.vmv_vx(VReg::V6, ids[k]);
            p.vmerge(VReg::V11, VReg::V11, VReg::V6);
            p.vop_vv(VAluOp::Or, VReg::V12, VReg::V12, VReg::V3);
        }
        // Mid-window retarget: 24 e8 ops are already buffered; this
        // must NOT flush them (vl and vstart are provably unchanged).
        p.vsetvli_sew(Reg::T1, Reg::S0, Sew::E16);
        {
            let k = 4;
            p.vop_vx(VAluOp::Xor, VReg::V3, VReg::V1, keys[k]);
            // Two-stage probe: the coarse low-byte test's mask is
            // overwritten by the exact match before anything reads it —
            // a dead match store only tag-aware liveness retires.
            p.vmseq_vx(VReg::V0, VReg::V3, Reg::A5);
            p.vmseq_vx(VReg::V0, VReg::V3, Reg::ZERO);
            p.vmv_vx(VReg::V6, ids[k]);
            p.vmerge(VReg::V11, VReg::V11, VReg::V6);
            p.vop_vv(VAluOp::Or, VReg::V12, VReg::V12, VReg::V3);
        }
        p.vsll_vi(VReg::V4, VReg::V1, 1);
        p.vop_vv(VAluOp::Xor, VReg::V1, VReg::V1, VReg::V4);
        p.addi(Reg::S4, Reg::S4, -1);
        p.bnez(Reg::S4, "sweep");
        // Barrier tail at full width (again an unchanged-`vl` no-op).
        p.vsetvli_sew(Reg::T1, Reg::S0, Sew::E32);
        p.vse32(VReg::V11, Reg::S3);
        p.vmv_vx(VReg::V13, Reg::ZERO);
        p.vredsum(VReg::V13, VReg::V12, VReg::V13);
        p.vmv_xs(Reg::T2, VReg::V13);
        p.li(Reg::A6, (OUT + 4 * max_vl as u64) as i64);
        p.sw(Reg::T2, 0, Reg::A6);
        p.halt();
        p.build().expect("mixed-SEW fusion kernel builds")
    }
}

/// Geometric mean of a non-empty slice.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of nothing");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// True when the harness should run at reduced scale.
pub fn quick_scale() -> bool {
    std::env::var("CAPE_BENCH_SCALE").is_ok_and(|v| v == "quick")
}

/// Prints a rule-delimited section header.
pub fn section(title: &str) {
    println!("\n{}", "=".repeat(72));
    println!("{title}");
    println!("{}", "=".repeat(72));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_constants() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn measurement_cross_checks_digests() {
        let w = cape_workloads::micro::Vvadd { n: 300 };
        let m = Measurement::take(&w, &CapeConfig::tiny(2));
        assert!(m.speedup_1core() > 0.0);
        assert!(m.speedup_ncore(2) > 0.0);
    }
}
