//! K-means clustering of 2-D fixed-point points.
//!
//! Per iteration: assign each point to its nearest centroid (distances
//! via `vsub`/`vmul`/`vadd`, running minimum via `vmslt` + `vmerge`),
//! then rebuild centroids with masked reductions (`vmseq` + `vcpop` +
//! `vmerge` + `vredsum`).
//!
//! This is the paper's capacity-sensitivity showcase: when the dataset
//! fits in the CSB it is loaded once and reused every iteration; when it
//! does not, every iteration re-streams it from HBM (the CAPE32k vs
//! CAPE131k cliff behind kmeans' 426x outlier in Fig. 11).

use cape_baseline::{OooCore, SimdProfile};
use cape_isa::{fnv1a_words, AluOp, Program, Reg, VAluOp, VReg};
use cape_mem::MainMemory;

use super::map::{ACC, AUX, OUT, SRC1, SRC2};
use crate::gen;
use crate::harness::{BaselineRun, Workload};

/// K-means over `n` points, `k` clusters, a fixed number of iterations.
#[derive(Debug, Clone, Copy)]
pub struct Kmeans {
    /// Point count.
    pub n: usize,
    /// Cluster count.
    pub k: usize,
    /// Fixed iteration count (both implementations run exactly this
    /// many, for determinism).
    pub iters: usize,
}

impl Kmeans {
    fn inputs(&self) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
        let (xs, ys, _) = gen::gaussian_clusters(self.n, self.k, 111);
        // Initial centroids: the first k points (shared by both sides).
        let mut init = Vec::with_capacity(2 * self.k);
        for c in 0..self.k {
            init.push(xs[c]);
            init.push(ys[c]);
        }
        (xs, ys, init)
    }

    fn out_words(&self) -> usize {
        3 * self.k // final (cx, cy) pairs + per-cluster counts
    }

    /// Emits the per-strip assignment + accumulation body (points in
    /// v1/v2, centroids at AUX, sums/counts at ACC). `tag` makes labels
    /// unique between the resident and streaming variants.
    fn assign_and_accumulate(
        p: &mut cape_isa::ProgramBuilder,
        sumy_base: i64,
        cnt_base: i64,
        tag: &str,
    ) {
        p.li(Reg::A5, i64::from(u32::MAX >> 1));
        p.vmv_vx(VReg::V10, Reg::A5); // best distance
        p.vmv_vx(VReg::V11, Reg::ZERO); // best index
        p.li(Reg::S4, 0); // centroid c
        p.li(Reg::S5, AUX);
        p.label(format!("{tag}_assign"));
        p.lw(Reg::S10, 0, Reg::S5); // cx
        p.lw(Reg::S11, 4, Reg::S5); // cy
        p.vop_vx(VAluOp::Sub, VReg::V3, VReg::V1, Reg::S10);
        p.vmul_vv(VReg::V4, VReg::V3, VReg::V3);
        p.vop_vx(VAluOp::Sub, VReg::V5, VReg::V2, Reg::S11);
        p.vmul_vv(VReg::V6, VReg::V5, VReg::V5);
        p.vadd_vv(VReg::V7, VReg::V4, VReg::V6); // squared distance
        p.vmsltu_vv(VReg::V0, VReg::V7, VReg::V10);
        p.vmerge(VReg::V10, VReg::V10, VReg::V7); // best = m ? d : best
        p.vmv_vx(VReg::V12, Reg::S4);
        p.vmerge(VReg::V11, VReg::V11, VReg::V12);
        p.addi(Reg::S4, Reg::S4, 1);
        p.addi(Reg::S5, Reg::S5, 8);
        p.blt(Reg::S4, Reg::S3, format!("{tag}_assign"));
        p.li(Reg::S4, 0);
        p.label(format!("{tag}_accum"));
        p.vmseq_vx(VReg::V0, VReg::V11, Reg::S4);
        p.vcpop(Reg::T3, VReg::V0);
        p.slli(Reg::T4, Reg::S4, 2);
        p.li(Reg::T5, cnt_base);
        p.add(Reg::T4, Reg::T4, Reg::T5);
        p.lw(Reg::T6, 0, Reg::T4);
        p.add(Reg::T6, Reg::T6, Reg::T3);
        p.sw(Reg::T6, 0, Reg::T4);
        p.vmv_vx(VReg::V13, Reg::ZERO);
        p.vmerge(VReg::V14, VReg::V13, VReg::V1); // x where assigned
        p.vredsum(VReg::V15, VReg::V14, VReg::V13);
        p.vmv_xs(Reg::T3, VReg::V15);
        p.slli(Reg::T4, Reg::S4, 2);
        p.li(Reg::T5, ACC);
        p.add(Reg::T4, Reg::T4, Reg::T5);
        p.lw(Reg::T6, 0, Reg::T4);
        p.add(Reg::T6, Reg::T6, Reg::T3);
        p.sw(Reg::T6, 0, Reg::T4);
        p.vmerge(VReg::V14, VReg::V13, VReg::V2); // y where assigned
        p.vredsum(VReg::V15, VReg::V14, VReg::V13);
        p.vmv_xs(Reg::T3, VReg::V15);
        p.slli(Reg::T4, Reg::S4, 2);
        p.li(Reg::T5, sumy_base);
        p.add(Reg::T4, Reg::T4, Reg::T5);
        p.lw(Reg::T6, 0, Reg::T4);
        p.add(Reg::T6, Reg::T6, Reg::T3);
        p.sw(Reg::T6, 0, Reg::T4);
        p.addi(Reg::S4, Reg::S4, 1);
        p.blt(Reg::S4, Reg::S3, format!("{tag}_accum"));
    }

    /// Emits the centroid-update loop (the cluster count is already in
    /// register S3).
    fn update_centroids(
        p: &mut cape_isa::ProgramBuilder,
        sumy_base: i64,
        cnt_base: i64,
        tag: &str,
    ) {
        p.li(Reg::S4, 0);
        p.label(format!("{tag}_update"));
        p.slli(Reg::T4, Reg::S4, 2);
        p.li(Reg::T5, cnt_base);
        p.add(Reg::T6, Reg::T4, Reg::T5);
        p.lw(Reg::T3, 0, Reg::T6); // count
        p.beqz(Reg::T3, format!("{tag}_skip_update"));
        p.li(Reg::T5, ACC);
        p.add(Reg::T6, Reg::T4, Reg::T5);
        p.lw(Reg::T2, 0, Reg::T6);
        p.op(AluOp::Divu, Reg::T2, Reg::T2, Reg::T3);
        p.slli(Reg::T6, Reg::S4, 3);
        p.li(Reg::T5, AUX);
        p.add(Reg::T6, Reg::T6, Reg::T5);
        p.sw(Reg::T2, 0, Reg::T6);
        p.li(Reg::T5, sumy_base);
        p.add(Reg::A0, Reg::T4, Reg::T5);
        p.lw(Reg::T2, 0, Reg::A0);
        p.op(AluOp::Divu, Reg::T2, Reg::T2, Reg::T3);
        p.sw(Reg::T2, 4, Reg::T6);
        p.label(format!("{tag}_skip_update"));
        p.addi(Reg::S4, Reg::S4, 1);
        p.blt(Reg::S4, Reg::S3, format!("{tag}_update"));
    }
}

impl Workload for Kmeans {
    fn name(&self) -> &'static str {
        "kmeans"
    }

    fn cape_setup(&self, mem: &mut MainMemory) -> Program {
        let (xs, ys, init) = self.inputs();
        mem.write_u32_slice(SRC1 as u64, &xs);
        mem.write_u32_slice(SRC2 as u64, &ys);
        mem.write_u32_slice(AUX as u64, &init);
        let k = self.k as i64;
        let sumy_base = ACC + 4 * k;
        let cnt_base = ACC + 8 * k;
        let mut p = Program::builder();
        p.li(Reg::S3, k);

        // Runtime dispatch on the granted vector length (the VLA pattern
        // of Section V-F): if the whole dataset fits the CSB, load it
        // once and reuse it across iterations — the capacity effect
        // behind the paper's kmeans cliff at CAPE131k.
        p.li(Reg::T0, self.n as i64);
        p.vsetvli(Reg::T1, Reg::T0);
        p.blt(Reg::T1, Reg::T0, "streaming");

        // ---- resident variant: points live in v1/v2 for the whole run.
        p.li(Reg::S1, SRC1);
        p.li(Reg::S2, SRC2);
        p.vle32(VReg::V1, Reg::S1);
        p.vle32(VReg::V2, Reg::S2);
        p.li(Reg::S7, self.iters as i64);
        p.label("r_iter");
        p.li(Reg::T3, 0);
        p.li(Reg::T4, 3 * k);
        p.li(Reg::T5, ACC);
        p.label("r_zacc");
        p.sw(Reg::ZERO, 0, Reg::T5);
        p.addi(Reg::T5, Reg::T5, 4);
        p.addi(Reg::T3, Reg::T3, 1);
        p.blt(Reg::T3, Reg::T4, "r_zacc");
        Self::assign_and_accumulate(&mut p, sumy_base, cnt_base, "r");
        Self::update_centroids(&mut p, sumy_base, cnt_base, "r");
        p.addi(Reg::S7, Reg::S7, -1);
        p.bnez(Reg::S7, "r_iter");
        p.j("emit");

        // ---- streaming variant: reload the points every iteration.
        p.label("streaming");
        p.li(Reg::S7, self.iters as i64);
        p.label("iter");
        p.li(Reg::T3, 0);
        p.li(Reg::T4, 3 * k);
        p.li(Reg::T5, ACC);
        p.label("zacc");
        p.sw(Reg::ZERO, 0, Reg::T5);
        p.addi(Reg::T5, Reg::T5, 4);
        p.addi(Reg::T3, Reg::T3, 1);
        p.blt(Reg::T3, Reg::T4, "zacc");
        p.li(Reg::S0, self.n as i64);
        p.li(Reg::S1, SRC1);
        p.li(Reg::S2, SRC2);
        p.label("strip");
        p.vsetvli(Reg::T0, Reg::S0);
        p.vle32(VReg::V1, Reg::S1); // x
        p.vle32(VReg::V2, Reg::S2); // y
        Self::assign_and_accumulate(&mut p, sumy_base, cnt_base, "s");
        p.sub(Reg::S0, Reg::S0, Reg::T0);
        p.slli(Reg::T1, Reg::T0, 2);
        p.add(Reg::S1, Reg::S1, Reg::T1);
        p.add(Reg::S2, Reg::S2, Reg::T1);
        p.bnez(Reg::S0, "strip");
        Self::update_centroids(&mut p, sumy_base, cnt_base, "s");
        p.addi(Reg::S7, Reg::S7, -1);
        p.bnez(Reg::S7, "iter");

        // ---- emit centroids then counts.
        p.label("emit");
        p.li(Reg::T3, 0);
        p.li(Reg::T4, 2 * k);
        p.li(Reg::T5, AUX);
        p.li(Reg::T6, OUT);
        p.label("emit_c");
        p.lw(Reg::A0, 0, Reg::T5);
        p.sw(Reg::A0, 0, Reg::T6);
        p.addi(Reg::T5, Reg::T5, 4);
        p.addi(Reg::T6, Reg::T6, 4);
        p.addi(Reg::T3, Reg::T3, 1);
        p.blt(Reg::T3, Reg::T4, "emit_c");
        p.li(Reg::T3, 0);
        p.li(Reg::T5, cnt_base);
        p.label("emit_n");
        p.lw(Reg::A0, 0, Reg::T5);
        p.sw(Reg::A0, 0, Reg::T6);
        p.addi(Reg::T5, Reg::T5, 4);
        p.addi(Reg::T6, Reg::T6, 4);
        p.addi(Reg::T3, Reg::T3, 1);
        p.blt(Reg::T3, Reg::S3, "emit_n");
        p.halt();
        p.build().expect("kmeans program")
    }

    fn digest(&self, mem: &MainMemory) -> u64 {
        fnv1a_words(mem.read_u32_slice(OUT as u64, self.out_words()))
    }

    fn run_baseline(&self) -> BaselineRun {
        let (xs, ys, init) = self.inputs();
        let (n, k) = (self.n, self.k);
        let mut cent = init;
        let mut core = OooCore::table3();
        let mut counts = vec![0u32; k];
        for _ in 0..self.iters {
            let mut sumx = vec![0u32; k];
            let mut sumy = vec![0u32; k];
            counts = vec![0u32; k];
            for i in 0..n {
                core.load(SRC1 as u64 + (i as u64) * 4);
                core.load(SRC2 as u64 + (i as u64) * 4);
                let mut best = u32::MAX >> 1;
                let mut best_c = 0usize;
                for c in 0..k {
                    core.load(AUX as u64 + (c as u64) * 8);
                    core.load(AUX as u64 + (c as u64) * 8 + 4);
                    core.op(4); // two subs, add, compare
                    core.mul(2);
                    core.branch(1);
                    let dx = xs[i].wrapping_sub(cent[2 * c]);
                    let dy = ys[i].wrapping_sub(cent[2 * c + 1]);
                    let d = dx.wrapping_mul(dx).wrapping_add(dy.wrapping_mul(dy));
                    if d < best {
                        best = d;
                        best_c = c;
                    }
                }
                core.op(3);
                core.branch(1);
                sumx[best_c] = sumx[best_c].wrapping_add(xs[i]);
                sumy[best_c] = sumy[best_c].wrapping_add(ys[i]);
                counts[best_c] += 1;
            }
            for c in 0..k {
                core.op(2);
                core.branch(1);
                if let Some(cx) = sumx[c].checked_div(counts[c]) {
                    cent[2 * c] = cx;
                    cent[2 * c + 1] = sumy[c] / counts[c];
                }
                core.store(AUX as u64 + (c as u64) * 8);
                core.store(AUX as u64 + (c as u64) * 8 + 4);
            }
        }
        let mut out = cent.clone();
        out.extend_from_slice(&counts);
        let point_iters = (n * k * self.iters) as u64;
        BaselineRun {
            report: core.finish(),
            digest: fnv1a_words(out),
            simd: SimdProfile {
                vec_ops: 5 * point_iters,
                vec_mul_ops: 2 * point_iters,
                vec_red_ops: 2 * (n * self.iters) as u64,
                scalar_ops: (k * self.iters * 4) as u64,
            },
            parallel_fraction: 0.98,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run_cape;
    use cape_core::CapeConfig;

    #[test]
    fn cape_and_baseline_clusterings_match_streaming() {
        // 240 points on 128 lanes: the program takes the streaming path.
        let w = Kmeans {
            n: 240,
            k: 3,
            iters: 3,
        };
        let cape = run_cape(&w, &CapeConfig::tiny(4));
        assert_eq!(cape.digest, w.run_baseline().digest);
    }

    #[test]
    fn cape_and_baseline_clusterings_match_resident() {
        // 100 points fit the 128-lane CSB: the resident path runs, with
        // identical results and less memory traffic per iteration.
        let w = Kmeans {
            n: 100,
            k: 3,
            iters: 3,
        };
        let cape = run_cape(&w, &CapeConfig::tiny(4));
        assert_eq!(cape.digest, w.run_baseline().digest);
        let streaming = run_cape(&w, &CapeConfig::tiny(2)); // 64 lanes
        assert_eq!(streaming.digest, cape.digest);
        assert!(
            cape.report.hbm_bytes_read < streaming.report.hbm_bytes_read,
            "resident path must load the dataset once"
        );
    }

    #[test]
    fn every_point_is_assigned() {
        let w = Kmeans {
            n: 200,
            k: 4,
            iters: 2,
        };
        let mut mem = MainMemory::new();
        let prog = w.cape_setup(&mut mem);
        let mut machine = cape_core::CapeMachine::new(CapeConfig::tiny(4));
        machine.run(&prog, &mut mem).unwrap();
        let out = mem.read_u32_slice(OUT as u64, w.out_words());
        let total: u32 = out[2 * w.k..].iter().sum();
        assert_eq!(total, 200);
    }

    #[test]
    fn centroids_land_near_cluster_centers() {
        let w = Kmeans {
            n: 600,
            k: 2,
            iters: 6,
        };
        let mut mem = MainMemory::new();
        let prog = w.cape_setup(&mut mem);
        let mut machine = cape_core::CapeMachine::new(CapeConfig::tiny(8));
        machine.run(&prog, &mut mem).unwrap();
        let (_, _, _init) = w.inputs();
        let (_, _, truth) = gen::gaussian_clusters(600, 2, 111);
        let out = mem.read_u32_slice(OUT as u64, 4);
        // Each recovered centroid should be within the cluster spread of
        // some true center.
        for c in 0..2 {
            let (cx, cy) = (i64::from(out[2 * c]), i64::from(out[2 * c + 1]));
            let near = truth.iter().any(|&(tx, ty)| {
                (cx - i64::from(tx)).abs() < 200 && (cy - i64::from(ty)).abs() < 200
            });
            assert!(near, "centroid {c} at ({cx},{cy}) far from {truth:?}");
        }
    }
}
