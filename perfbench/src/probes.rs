//! Layer probes: direct calls to one public entry point each, timed at
//! the geometry of the workload whose host time the layer is predicted
//! to move. `CapeMachine::run` cannot be split from outside, so these
//! are the per-layer busy times of a pass.

use std::hint::black_box;
use std::time::{Duration, Instant};

use cape_bench::fusion;
use cape_core::{CapeConfig, CapeMachine};
use cape_csb::Csb;
use cape_ucode::{fuse_window, CompiledOp, LogicOp, VectorOp};
use cape_vcu::ProgramCache;

use crate::metrics::{median, Metrics};
use crate::workloads::Scale;

/// One probe's result.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// Median seconds per call.
    pub per_call_s: f64,
    /// Calls made (warm-up included).
    pub calls: u64,
}

/// Calls `f` in batches of `batch` until `budget` has passed and at
/// least five batches ran; reports the median per-call time.
pub fn time_calls(budget: Duration, batch: u64, mut f: impl FnMut()) -> Probe {
    f();
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || start.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t.elapsed().as_secs_f64() / batch as f64);
    }
    Probe {
        per_call_s: median(&samples),
        calls: 1 + batch * samples.len() as u64,
    }
}

/// One sweep of `cape_bench::fusion::phoenix_loop` (the fusion gate
/// kernel) as VCU operations: five patterns of
/// (xor.vx, and.vx, vmseq.vx, vmv.v.x, vmerge, vor.vv) plus the
/// two-op text evolution — exactly one 32-op window.
pub fn sweep_window() -> Vec<VectorOp> {
    let mut ops = Vec::with_capacity(32);
    for (k, &key) in fusion::PATTERNS.iter().enumerate() {
        ops.extend([
            VectorOp::LogicScalar {
                op: LogicOp::Xor,
                vd: 3,
                vs1: 1,
                rs: key,
            },
            VectorOp::LogicScalar {
                op: LogicOp::And,
                vd: 5,
                vs1: 3,
                rs: 0xff,
            },
            VectorOp::MseqScalar {
                vd: 0,
                vs1: 5,
                rs: 0,
            },
            VectorOp::Broadcast {
                vd: 6,
                rs: k as u32 + 1,
            },
            VectorOp::Merge {
                vd: 11,
                vs1: 6,
                vs2: 11,
            },
            VectorOp::Or {
                vd: 12,
                vs1: 12,
                vs2: 3,
            },
        ]);
    }
    ops.push(VectorOp::ShiftLeft {
        vd: 4,
        vs: 1,
        sh: 1,
    });
    ops.push(VectorOp::Xor {
        vd: 1,
        vs1: 1,
        vs2: 4,
    });
    ops
}

/// Runs every probe and returns per-call times and call counts.
pub fn run(scale: Scale) -> Metrics {
    let (budget, small, large, serving_cfg) = match scale {
        Scale::Full => (
            Duration::from_millis(150),
            CapeConfig::cape32k(),
            CapeConfig::cape131k(),
            CapeConfig::tiny(64),
        ),
        Scale::Tiny => (
            Duration::from_millis(2),
            CapeConfig::tiny(4),
            CapeConfig::tiny(16),
            CapeConfig::tiny(4),
        ),
    };
    let mut m = Metrics::default();
    let mut record = |name: &str, calls: &str, scale_us: f64, unit: &'static str, p: Probe| {
        m.set(name, p.per_call_s * scale_us, unit);
        m.set(calls, p.calls as f64, "count");
    };

    // phoenix: active-window updates and VMU transposed I/O.
    for (config, size) in [(small, "32k"), (large, "131k")] {
        let mut csb = Csb::new(config.geometry());
        let max_vl = csb.max_vl();
        // A sliding sub-window, as matmul/revidx/hist issue every
        // iteration, alternating with the full window.
        let w = (max_vl / 4).min(96);
        let windows = [(0, max_vl), (0, w), (w, 2 * w), (0, max_vl / 2 + 7)];
        let mut i = 0;
        let p = time_calls(budget, 1, || {
            let (vstart, vl) = windows[i % windows.len()];
            csb.set_active_window(vstart, vl);
            i += 1;
        });
        record(
            &format!("csb.set_active_window_us.{size}"),
            &format!("csb.set_active_window_calls.{size}"),
            1e6,
            "us",
            p,
        );
        if size == "131k" {
            csb.set_active_window(0, max_vl);
            let values: Vec<u32> = (0..max_vl as u32)
                .map(|x| x.wrapping_mul(2_654_435_761))
                .collect();
            let p = time_calls(budget, 1, || csb.write_vector_at(1, 0, &values));
            record(
                "vmu.write_vector_us",
                "vmu.write_vector_calls",
                1e6,
                "us",
                p,
            );
            let p = time_calls(budget, 1, || {
                black_box(csb.read_vector_at(1, 0, max_vl));
            });
            record("vmu.read_vector_us", "vmu.read_vector_calls", 1e6, "us", p);
        }
    }

    // VCU compile and cached lookup (+ the clone the machine makes),
    // the per-vector-instruction path of every workload.
    let mut ops = sweep_window();
    ops.extend([
        VectorOp::Add {
            vd: 2,
            vs1: 1,
            vs2: 3,
        },
        VectorOp::Mul {
            vd: 2,
            vs1: 1,
            vs2: 3,
        },
        VectorOp::RedSum { vd: 2, vs: 1 },
    ]);
    let mut i = 0;
    let p = time_calls(budget, 1, || {
        black_box(CompiledOp::compile(&ops[i % ops.len()], 32));
        i += 1;
    });
    record("vcu.compile_us", "vcu.compile_calls", 1e6, "us", p);
    let mut cache = ProgramCache::new(64);
    for op in &ops {
        cache.get_or_compile(op, 32);
    }
    let mut i = 0;
    let p = time_calls(budget, 256, || {
        black_box(cache.get_or_compile(&ops[i % ops.len()], 32).clone());
        i += 1;
    });
    record("vcu.lookup_ns", "vcu.lookup_calls", 1e9, "ns", p);

    // Window compile, and the broadcast of one fused 32-op window at
    // 131k (4096 chains): the layers a fusion window loads.
    let parts: Vec<CompiledOp> = sweep_window()
        .iter()
        .map(|op| CompiledOp::compile(op, 32))
        .collect();
    let refs: Vec<&CompiledOp> = parts.iter().collect();
    let p = time_calls(budget, 1, || {
        black_box(fuse_window(&refs, true));
    });
    record(
        "ucode.fuse_window_us",
        "ucode.fuse_window_calls",
        1e6,
        "us",
        p,
    );
    let fused = fuse_window(&refs, true);
    let mut csb = Csb::new(large.geometry());
    let p = time_calls(budget, 1, || {
        black_box(csb.execute_program(fused.program()));
    });
    record(
        "csb.execute_program_us",
        "csb.execute_program_calls",
        1e6,
        "us",
        p,
    );
    drop(csb);

    // serving: a context save + restore pair at the fleet's geometry.
    let mut machine = CapeMachine::new(serving_cfg);
    let p = time_calls(budget, 1, || {
        let ctx = machine.save_context();
        machine.restore_context(&ctx);
    });
    record(
        "core.save_restore_us",
        "core.save_restore_calls",
        1e6,
        "us",
        p,
    );
    m
}
