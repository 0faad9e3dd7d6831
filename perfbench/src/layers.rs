//! The metric catalogue: every end-to-end and per-layer metric the
//! benchmark prints, by name and unit. `BENCHMARK.json` lists the same
//! names (checked by a self-test).

use crate::totals::{FLUSH_REASONS, MICROOP_KINDS};

/// End-to-end metrics (`--trace 0`), all lower-is-better.
pub const END_TO_END: [(&str, &str); 4] = [
    ("host_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_cycles", "cycles"),
];

/// Span names whose self time the traced run reports.
pub const SPANS: [&str; 17] = [
    "pass",
    "yardstick",
    "setup",
    "workloads.gen",
    "baseline.ref",
    "setup.build",
    "input.copy",
    "core.new",
    "core.run",
    "core.drop",
    "digest",
    "cluster.new",
    "cluster.submit",
    "cluster.step",
    "cluster.strike",
    "cluster.report",
    "cluster.drop",
];

/// Per-layer metrics (`--trace 1`), in print order. A layer a workload
/// does not reach reports 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| v.push((name.to_string(), unit));
    add("workloads.gen_ms", "ms");
    add("baseline.ref_ms", "ms");
    add("core.new_ms", "ms");
    for app in cape_workloads::phoenix::tiny_suite() {
        for size in ["32k", "131k"] {
            add(&format!("core.run_ms.{}.{size}", app.name()), "ms");
        }
    }
    add("core.us_per_vinstr", "us");
    add("core.save_restore_us", "us");
    add("core.save_restore_calls", "count");
    for c in ["instructions", "vector", "scalar", "mem_ops"] {
        add(&format!("cp.{c}"), "count");
    }
    add("vcu.hits", "count");
    add("vcu.misses", "count");
    add("vcu.hit_rate", "ratio");
    add("vcu.window_hits", "count");
    add("vcu.window_misses", "count");
    add("vcu.window_hit_rate", "ratio");
    add("vcu.compile_us", "us");
    add("vcu.compile_calls", "count");
    add("vcu.lookup_ns", "ns");
    add("vcu.lookup_calls", "count");
    add("ucode.fused_windows", "count");
    add("ucode.fused_ops", "count");
    add("ucode.fused_op_share", "ratio");
    add("ucode.joins_saved", "count");
    add("ucode.dead_stores", "count");
    for reason in FLUSH_REASONS {
        add(&format!("ucode.flush.{reason}"), "count");
    }
    add("ucode.fuse_window_us", "us");
    add("ucode.fuse_window_calls", "count");
    for kind in MICROOP_KINDS {
        add(&format!("csb.microops.{kind}"), "count");
    }
    add("csb.lane_ops", "count");
    for f in ["detected", "scrubs", "remaps"] {
        add(&format!("csb.fault.{f}"), "count");
    }
    for size in ["32k", "131k"] {
        add(&format!("csb.set_active_window_us.{size}"), "us");
        add(&format!("csb.set_active_window_calls.{size}"), "count");
    }
    add("csb.execute_program_us", "us");
    add("csb.execute_program_calls", "count");
    add("vmu.cycles", "cycles");
    add("mem.hbm_bytes_read", "bytes");
    add("mem.hbm_bytes_written", "bytes");
    add("vmu.write_vector_us", "us");
    add("vmu.write_vector_calls", "count");
    add("vmu.read_vector_us", "us");
    add("vmu.read_vector_calls", "count");
    add("engine.batches", "count");
    add("engine.context_switches", "count");
    add("engine.context_switch_cycles", "cycles");
    add("engine.retries", "count");
    add("engine.cross_tenant_hit_rate", "ratio");
    add("engine.step_ms.p50", "ms");
    add("engine.step_ms.max", "ms");
    add("engine.queue_p50_cycles", "cycles");
    add("engine.queue_p90_cycles", "cycles");
    add("cluster.makespan_cycles", "cycles");
    add("cluster.migrations", "count");
    add("cluster.resubmissions", "count");
    add("cluster.transitions", "count");
    add("cluster.strikes", "count");
    add("cluster.utilization_skew", "ratio");
    add("cluster.submit_us", "us");
    add("model.energy_uj", "uJ");
    add("pass.host_s", "s");
    add("setup.host_s", "s");
    add("yardstick_ms", "ms");
    add("trace.coverage", "ratio");
    add("trace.overhead_s", "s");
    for span in SPANS {
        add(&format!("span.self_ms.{span}"), "ms");
    }
    v
}
