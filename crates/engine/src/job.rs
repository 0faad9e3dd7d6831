//! Job descriptions, identities and per-job results.

use std::hash::{Hash, Hasher};

use cape_core::RunReport;
use cape_isa::{Fnv1a, Program};
use cape_mem::MainMemory;
use serde::{Deserialize, Serialize};

/// Identifier handed out at admission. Job ids are unique for the
/// lifetime of an [`Engine`](crate::Engine) and double as the tenant id
/// under which the job's program-cache traffic is attributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct JobId(pub u32);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// One unit of work submitted to the engine: a CAPE vector program, the
/// private memory image holding its input vectors, and scheduling
/// metadata.
///
/// Each job owns its address space outright — co-scheduled tenants can
/// never alias each other's memory, so isolation reduces to the vector
/// register file, which the engine context-switches.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Human-readable label carried into the report.
    pub name: String,
    /// The RISC-V vector program to run to its `halt`.
    pub program: Program,
    /// The job's private address space (inputs pre-written, outputs
    /// read back after completion).
    pub mem: MainMemory,
    /// Scheduling priority — higher runs first among jobs with equal
    /// deadline pressure.
    pub priority: u8,
    /// Optional absolute deadline in engine cycles; jobs with deadlines
    /// are served earliest-deadline-first ahead of priority.
    pub deadline: Option<u64>,
    /// Test hook: arm a Section V-C page fault at this element index
    /// for the job's first vector memory instruction.
    pub fault_at_element: Option<usize>,
    /// Caller-owned stable identity, carried verbatim into the
    /// [`JobReport`]. Engine-local [`JobId`]s change when a job is
    /// drained off one machine and resubmitted to another; a cluster
    /// stamps its own job id here so a migrated job's reports stay
    /// correlatable across machines.
    pub tag: Option<u64>,
}

impl JobSpec {
    /// A job with default scheduling metadata (priority 0, no deadline).
    pub fn new(name: impl Into<String>, program: Program, mem: MainMemory) -> Self {
        Self {
            name: name.into(),
            program,
            mem,
            priority: 0,
            deadline: None,
            fault_at_element: None,
            tag: None,
        }
    }

    /// Sets the priority (higher = more urgent).
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Sets an absolute deadline in engine cycles.
    pub fn with_deadline(mut self, deadline: u64) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Arms a one-shot page fault at `elem` for the job's first vector
    /// memory instruction (Section V-C restart testing).
    pub fn with_fault_at(mut self, elem: usize) -> Self {
        self.fault_at_element = Some(elem);
        self
    }

    /// Stamps a stable caller-owned identity (see [`JobSpec::tag`]).
    pub fn with_tag(mut self, tag: u64) -> Self {
        self.tag = Some(tag);
        self
    }
}

/// FNV-1a over a program's instruction stream — the batching key.
///
/// Two jobs with equal fingerprints run the identical static code, so
/// their vector instructions compile to the same cached microprograms
/// and co-scheduling them turns every lookup after the first into a
/// cross-tenant cache hit.
pub fn fingerprint(program: &Program) -> u64 {
    let mut h = Fnv1a::default();
    for instr in program.iter() {
        instr.hash(&mut h);
    }
    h.finish()
}

/// Why a job failed, typed so a caller can tell a program bug
/// ([`JobError::Processor`]) from machine-side resource exhaustion
/// (watchdog, retries, spares) and decide whether resubmission can
/// possibly help.
#[derive(Debug, Clone, PartialEq, Eq)]
#[must_use = "a job error distinguishes program bugs from recoverable machine faults"]
pub enum JobError {
    /// The control processor terminated the run with a typed error —
    /// bad address, instruction budget, or a vector instruction the
    /// microcode sequencer rejected. Deterministic: resubmitting the
    /// same program will fail the same way.
    Processor {
        /// `Display` form of the [`CpError`](cape_cp::CpError).
        detail: String,
    },
    /// The slice watchdog kept firing: every checkpointed re-execution
    /// exhausted its fuel without reaching a halt or sync point.
    WatchdogTimeout {
        /// Re-executions attempted before giving up.
        retries: u32,
    },
    /// Injected hardware faults corrupted every attempt at one slice;
    /// the retry bound was reached with detections still latching.
    FaultRetriesExhausted {
        /// Re-executions attempted before giving up.
        retries: u32,
    },
    /// Faulty blocks could not be remapped because the CSB is out of
    /// spare blocks. The machine is permanently degraded; every
    /// subsequent job on it fails the same way.
    SparesExhausted {
        /// Faulty blocks still pending quarantine.
        pending_blocks: usize,
    },
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Processor { detail } => write!(f, "processor error: {detail}"),
            JobError::WatchdogTimeout { retries } => {
                write!(f, "slice watchdog fired after {retries} retries")
            }
            JobError::FaultRetriesExhausted { retries } => {
                write!(f, "hardware faults persisted across {retries} retries")
            }
            JobError::SparesExhausted { pending_blocks } => {
                write!(
                    f,
                    "{pending_blocks} faulty blocks pending with no spares left"
                )
            }
        }
    }
}

impl std::error::Error for JobError {}

/// Everything the engine measured about one completed job.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// The id assigned at admission.
    pub id: JobId,
    /// The stable caller-owned identity from [`JobSpec::tag`], if any —
    /// constant across drain/resubmit migrations while `id` is not.
    pub tag: Option<u64>,
    /// The label from the [`JobSpec`].
    pub name: String,
    /// The program fingerprint the scheduler batched on.
    pub fingerprint: u64,
    /// Priority the job ran with.
    pub priority: u8,
    /// Deadline the job was admitted with, if any.
    pub deadline: Option<u64>,
    /// Engine cycle at which the job was admitted to the queue.
    pub admit_cycle: u64,
    /// Engine cycle at which the job's first slice began.
    pub start_cycle: u64,
    /// Engine cycle at which the job halted (or failed).
    pub finish_cycle: u64,
    /// Slices the job ran in.
    pub slices: u64,
    /// Times the job was preempted at a sync point (slices that did not
    /// end in `halt`).
    pub preemptions: u64,
    /// The job's own execution report: cycles are the job's private CP
    /// clock (as if it ran alone), activity counters are the deltas
    /// attributed to this job's slices only.
    pub report: RunReport,
    /// Page faults this job's vector memory instructions took.
    pub faults: u64,
    /// Checkpointed slice re-executions forced by the watchdog or by
    /// hardware fault detections (zero outside fault mode).
    pub retries: u64,
    /// Why the job failed; `None` for a clean halt.
    pub error: Option<JobError>,
}

impl JobReport {
    /// Cycles spent waiting between admission and first execution.
    pub fn queue_cycles(&self) -> u64 {
        self.start_cycle - self.admit_cycle
    }

    /// Whether the job finished by its deadline (`None` if it had none).
    pub fn met_deadline(&self) -> Option<bool> {
        self.deadline.map(|d| self.finish_cycle <= d)
    }

    /// True if the job halted cleanly.
    pub fn succeeded(&self) -> bool {
        self.error.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cape_isa::assemble;

    #[test]
    fn fingerprint_is_stable_and_code_sensitive() {
        let a = assemble("li t0, 4\nvsetvli t1, t0\nhalt").unwrap();
        let b = assemble("li t0, 4\nvsetvli t1, t0\nhalt").unwrap();
        let c = assemble("li t0, 5\nvsetvli t1, t0\nhalt").unwrap();
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&a), fingerprint(&c));
    }

    #[test]
    fn spec_builders_set_metadata() {
        let prog = assemble("halt").unwrap();
        let spec = JobSpec::new("j", prog, MainMemory::new())
            .with_priority(7)
            .with_deadline(1_000)
            .with_fault_at(3);
        assert_eq!(spec.priority, 7);
        assert_eq!(spec.deadline, Some(1_000));
        assert_eq!(spec.fault_at_element, Some(3));
    }
}
