//! Pins the benchmark to one CPU (`phoenix` only; see
//! `workloads::pinned`).
//!
//! The simulator fans broadcasts out over one worker thread per CPU it
//! may use. On a 2-vCPU guest of a shared server that fork-join turned
//! the host's drifting speed into run-to-run spreads of 15–33% on
//! `phoenix`, against 4–8% for the single-threaded `serving` jobs in
//! the same periods: each broadcast waits for the slower vCPU. Pinned
//! to one CPU, the simulator sees one CPU and runs every broadcast on
//! the calling thread, so the benchmark measures the program's work,
//! not the scheduling of its workers.

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread, and every thread it starts later, to
/// the CPU it is running on. Returns that CPU.
pub fn to_current_cpu() -> Result<usize, String> {
    // SAFETY: no arguments; returns a CPU number or -1.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).map_err(|_| "sched_getcpu failed".to_string())?;
    let mut mask = [0u64; 16];
    let word = mask
        .get_mut(cpu / 64)
        .ok_or(format!("CPU {cpu} is past the affinity mask"))?;
    *word |= 1 << (cpu % 64);
    // SAFETY: `mask` is a valid CPU set of the size passed; pid 0 is the
    // calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}
