//! The workload abstraction shared by the figure harnesses.

use cape_baseline::{BaselineReport, SimdProfile};
use cape_core::{CapeConfig, CapeMachine, RunReport};
use cape_isa::Program;
use cape_mem::MainMemory;

/// Result of running a workload's CAPE program.
#[derive(Debug, Clone)]
pub struct CapeRun {
    /// Machine-level report (cycles, energy, traffic, roofline inputs).
    pub report: RunReport,
    /// Digest of the outputs, for cross-checking against the baseline.
    pub digest: u64,
}

/// Result of running a workload's baseline kernel.
#[derive(Debug, Clone)]
pub struct BaselineRun {
    /// Single-core out-of-order timing report.
    pub report: BaselineReport,
    /// Digest of the outputs (must equal the CAPE digest).
    pub digest: u64,
    /// Vectorization profile for the SVE model (Fig. 12).
    pub simd: SimdProfile,
    /// Thread-parallel fraction for the multicore model (Fig. 11).
    pub parallel_fraction: f64,
}

/// One evaluation workload.
pub trait Workload {
    /// Short name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Writes the workload's inputs into `mem` and returns the CAPE
    /// RISC-V vector program.
    fn cape_setup(&self, mem: &mut MainMemory) -> Program;

    /// Digests the workload outputs from memory after a CAPE run.
    fn digest(&self, mem: &MainMemory) -> u64;

    /// Runs the instrumented baseline kernel.
    fn run_baseline(&self) -> BaselineRun;
}

/// Runs a workload's CAPE program on a fresh machine of the given
/// configuration.
///
/// # Panics
///
/// Panics if the program faults or exceeds the instruction budget —
/// workload programs are expected to be correct.
pub fn run_cape(workload: &dyn Workload, config: &CapeConfig) -> CapeRun {
    let mut mem = MainMemory::new();
    let program = workload.cape_setup(&mut mem);
    let mut machine = CapeMachine::new(*config);
    let report = machine
        .run(&program, &mut mem)
        .unwrap_or_else(|e| panic!("{} CAPE program failed: {e}", workload.name()));
    CapeRun {
        report,
        digest: workload.digest(&mem),
    }
}
