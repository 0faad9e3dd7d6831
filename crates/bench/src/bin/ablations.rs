//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. the replica vector load (`vlrw`) vs refetching the replicated
//!    chunk at full vector width (memory-traffic ablation, Section V-G);
//! 2. `vredsum` vs an equivalent chain of element-wise additions (the
//!    "8x faster than a vector addition" trade-off of Section V-G);
//! 3. global command distribution growth vs chain count (the
//!    text-application scaling ceiling of Section VI-E);
//! 4. element interleaving across chains vs a blocked layout (VMU
//!    sub-request consumption, Section V-E).

use cape_bench::{quick_scale, section, Measurement};
use cape_core::CapeConfig;
use cape_csb::{Csb, CsbGeometry};
use cape_ucode::metrics::paper_row;
use cape_ucode::{VectorOp, VectorOpKind};
use cape_vcu::{ProgramCache, Vcu};
use cape_workloads::phoenix::{Matmul, WordCount};

fn main() {
    let quick = quick_scale();

    section("Ablation 1 — replica vector load (vlrw) on matmul");
    let n = if quick { 16 } else { 64 };
    let w = Matmul { n };
    let m = Measurement::take(&w, &CapeConfig::cape32k());
    let read = m.cape.report.hbm_bytes_read;
    // Without vlrw, every Bt-row replication becomes a full-vl fetch:
    // each of the n j-iterations per block would stream rows*n elements
    // instead of n.
    let blocks = ((n * n) as u64).div_ceil(CapeConfig::cape32k().max_vl() as u64);
    let rows_per_block = (n as u64).min(CapeConfig::cape32k().max_vl() as u64 / n as u64);
    let without = read + (n as u64) * blocks * (rows_per_block - 1) * (n as u64) * 4;
    println!("matmul n={n}: HBM reads with vlrw  = {read} B");
    println!("              HBM reads without    = {without} B (refetching replicas)");
    println!(
        "              traffic saved        = {:.1}x",
        without as f64 / read as f64
    );

    section("Ablation 2 — vredsum vs element-wise additions");
    let add = paper_row(VectorOpKind::Add)
        .expect("table row")
        .total_cycles
        .eval(32);
    let red = paper_row(VectorOpKind::RedSum)
        .expect("table row")
        .total_cycles
        .eval(32);
    let tree = cape_csb::ReductionTree::new(1024);
    println!(
        "vadd.vv: {add} cycles; vredsum.vs: {} cycles (incl. {}-stage tree)",
        red + u64::from(tree.stages()),
        tree.stages()
    );
    println!(
        "redsum advantage: {:.1}x (the paper quotes ~8x, Section V-G)",
        add as f64 / (red + u64::from(tree.stages())) as f64
    );

    section("Ablation 3 — command distribution vs chain count (wrdcnt)");
    println!(
        "{:<10} {:>10} {:>14} {:>12}",
        "chains", "lanes", "cmd-dist cyc", "speedup/1c"
    );
    println!("{}", "-".repeat(50));
    let wc = if quick {
        WordCount {
            n: 20_000,
            vocab: 128,
            top: 12,
        }
    } else {
        WordCount {
            n: 120_000,
            vocab: 512,
            top: 24,
        }
    };
    for chains in [256usize, 1024, 4096] {
        let mut cfg = CapeConfig::cape32k();
        cfg.chains = chains;
        let vcu = Vcu::new(chains);
        let m = Measurement::take(&wc, &cfg);
        println!(
            "{:<10} {:>10} {:>14} {:>11.1}x",
            chains,
            chains * 32,
            vcu.cmd_dist_cycles(),
            m.speedup_1core()
        );
    }
    println!("Text-style applications stop scaling (and can regress) as the");
    println!("distribution tree deepens while their serial fraction persists.");

    section("Ablation 4 — narrow element types (Section V-A)");
    println!("{:<12} {:>10} {:>10} {:>10}", "instr", "e8", "e16", "e32");
    println!("{}", "-".repeat(46));
    for (name, op) in [
        (
            "vadd.vv",
            VectorOp::Add {
                vd: 3,
                vs1: 1,
                vs2: 2,
            },
        ),
        (
            "vmul.vv",
            VectorOp::Mul {
                vd: 3,
                vs1: 1,
                vs2: 2,
            },
        ),
        (
            "vmseq.vx",
            VectorOp::MseqScalar {
                vd: 3,
                vs1: 1,
                rs: 42,
            },
        ),
        ("vredsum.vs", VectorOp::RedSum { vd: 3, vs: 1 }),
    ] {
        let uops = |w: u32| {
            let mut csb = Csb::new(CsbGeometry::new(1));
            csb.write_vector(1, &[1, 2, 3]);
            csb.write_vector(2, &[4, 5, 6]);
            Vcu::new(1)
                .execute(&mut csb, &op, w, &mut ProgramCache::default())
                .expect("ablation ops are well-formed")
                .stats
                .total()
        };
        println!(
            "{:<12} {:>10} {:>10} {:>10}",
            name,
            uops(8),
            uops(16),
            uops(32)
        );
    }
    println!("Bit-serial cost is linear (quadratic for vmul) in the element");
    println!("width, so e8 data gets a ~4x (vmul: ~16x) microop discount.");

    section("Ablation 5 — element interleaving vs blocked layout");
    let cfg = CapeConfig::cape32k();
    let packet_elems = u64::from(cfg.hbm.packet_bytes) / 4;
    println!(
        "A {}B sub-request carries {} elements.",
        cfg.hbm.packet_bytes, packet_elems
    );
    println!(
        "* interleaved (CAPE): consecutive elements land in {} distinct",
        packet_elems
    );
    println!("  chains -> one CSB cycle per sub-request (Section V-E).");
    let lanes_per_chain = 32u64;
    let chains_touched = packet_elems.div_ceil(lanes_per_chain);
    println!(
        "* blocked: the same {} elements hit only {} chains, which must",
        packet_elems, chains_touched
    );
    println!(
        "  each absorb {} element writes serially -> {}x slower intake.",
        packet_elems / chains_touched,
        packet_elems / chains_touched
    );
}
