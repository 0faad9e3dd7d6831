//! Modeled counters summed over a pass's jobs.
//!
//! Every value here is exact: a function of the programs and inputs
//! only, never of host speed. The benchmark compares them bitwise
//! between passes and between the traced and untraced run.

use cape_core::{RunReport, WindowFlushes};

use crate::metrics::Metrics;

/// Sum of per-job [`RunReport`]s plus the window-cache counters the
/// reports do not carry.
#[derive(Debug, Clone, Default)]
pub struct Totals {
    /// Σ modeled cycles of the jobs.
    pub cycles: u64,
    /// Σ CSB energy (µJ), summed in canonical job order.
    pub energy_uj: f64,
    instructions: u64,
    vector: u64,
    scalar: u64,
    mem_ops: u64,
    hits: u64,
    misses: u64,
    /// Fused-window cache hits.
    pub window_hits: u64,
    /// Fused-window cache misses.
    pub window_misses: u64,
    fused_windows: u64,
    fused_ops: u64,
    joins_saved: u64,
    dead_stores: u64,
    flushes: WindowFlushes,
    microops: [u64; 9],
    lane_ops: u64,
    vmu_cycles: u64,
    hbm_read: u64,
    hbm_written: u64,
}

/// Microop kinds, in `MicroOpStats` field order.
pub const MICROOP_KINDS: [&str; 9] = [
    "searches_bs",
    "searches_bp",
    "updates_bs",
    "updates_bp",
    "updates_prop",
    "reads",
    "writes",
    "reduces",
    "tag_combines",
];

/// Window-flush causes, in `WindowFlushes` field order.
pub const FLUSH_REASONS: [&str; 8] = [
    "vsetvli",
    "scalar_result",
    "vmu",
    "preempt",
    "ctx_switch",
    "fault",
    "drain",
    "capacity",
];

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl Totals {
    /// Adds one job's report.
    pub fn add_run(&mut self, r: &RunReport) {
        self.cycles += r.cycles;
        self.energy_uj += r.csb_energy_uj;
        self.instructions += r.cp.instructions;
        self.vector += r.cp.vector;
        self.scalar += r.cp.scalar;
        self.mem_ops += r.cp.mem_ops;
        self.hits += r.program_cache_hits;
        self.misses += r.program_cache_misses;
        self.fused_windows += r.fused_windows;
        self.fused_ops += r.fused_ops;
        self.joins_saved += r.fused_joins_saved;
        self.dead_stores += r.dead_stores_eliminated;
        self.flushes.accumulate(&r.window_flushes);
        let m = &r.microops;
        let kinds = [
            m.searches_bs,
            m.searches_bp,
            m.updates_bs,
            m.updates_bp,
            m.updates_prop,
            m.reads,
            m.writes,
            m.reduces,
            m.tag_combines,
        ];
        for (acc, k) in self.microops.iter_mut().zip(kinds) {
            *acc += k;
        }
        self.lane_ops += r.lane_ops;
        self.vmu_cycles += r.vmu_cycles;
        self.hbm_read += r.hbm_bytes_read;
        self.hbm_written += r.hbm_bytes_written;
    }

    /// Writes the cp, vcu, ucode, csb, vmu/mem and model counters.
    pub fn write(&self, m: &mut Metrics) {
        m.set("cp.instructions", self.instructions as f64, "count");
        m.set("cp.vector", self.vector as f64, "count");
        m.set("cp.scalar", self.scalar as f64, "count");
        m.set("cp.mem_ops", self.mem_ops as f64, "count");
        m.set("vcu.hits", self.hits as f64, "count");
        m.set("vcu.misses", self.misses as f64, "count");
        m.set(
            "vcu.hit_rate",
            ratio(self.hits, self.hits + self.misses),
            "ratio",
        );
        m.set("vcu.window_hits", self.window_hits as f64, "count");
        m.set("vcu.window_misses", self.window_misses as f64, "count");
        let windows = self.window_hits + self.window_misses;
        m.set(
            "vcu.window_hit_rate",
            ratio(self.window_hits, windows),
            "ratio",
        );
        m.set("ucode.fused_windows", self.fused_windows as f64, "count");
        m.set("ucode.fused_ops", self.fused_ops as f64, "count");
        m.set(
            "ucode.fused_op_share",
            ratio(self.fused_ops, self.vector),
            "ratio",
        );
        m.set("ucode.joins_saved", self.joins_saved as f64, "count");
        m.set("ucode.dead_stores", self.dead_stores as f64, "count");
        let f = &self.flushes;
        let flushes = [
            f.vsetvli,
            f.scalar_result,
            f.vmu,
            f.preempt,
            f.ctx_switch,
            f.fault,
            f.drain,
            f.capacity,
        ];
        for (reason, n) in FLUSH_REASONS.iter().zip(flushes) {
            m.set(format!("ucode.flush.{reason}"), n as f64, "count");
        }
        for (kind, n) in MICROOP_KINDS.iter().zip(self.microops) {
            m.set(format!("csb.microops.{kind}"), n as f64, "count");
        }
        m.set("csb.lane_ops", self.lane_ops as f64, "count");
        m.set("vmu.cycles", self.vmu_cycles as f64, "cycles");
        m.set("mem.hbm_bytes_read", self.hbm_read as f64, "bytes");
        m.set("mem.hbm_bytes_written", self.hbm_written as f64, "bytes");
        m.set("model.energy_uj", self.energy_uj, "uJ");
    }
}
