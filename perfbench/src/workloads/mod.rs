//! The benchmark workloads and what they share.
//!
//! A workload is built once by `setup` (inputs, reference digests, one
//! machine or fleet construction) and then replayed pass after pass.
//! Each pass runs every job on fresh machines, checks every output
//! against its reference, and returns the exact modeled counters.

mod phoenix;
mod serving;

pub use phoenix::Phoenix;
pub use serving::Serving;

use crate::metrics::Metrics;
use crate::trace::Tracer;
use crate::yardstick::Yardstick;

/// Input scale: the benchmark's own, or a seconds-long self-test one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured configuration.
    Full,
    /// Same shapes, tiny inputs and machines (the self-tests).
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

/// The outcome of one pass over a workload's jobs.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Jobs attempted.
    pub attempted: u64,
    /// Jobs that errored, diverged from their reference, or were lost.
    pub failed: u64,
    /// Exact modeled counters (`sim_cycles` plus per-layer counts).
    pub counts: Metrics,
    /// Host seconds of each separately timed part (a job, or a serving
    /// burst), in a seed-independent order.
    pub part_s: Vec<f64>,
    /// Per part, in the same order: the mean of the yardstick's times
    /// (s) just before and just after it.
    pub part_yard_s: Vec<f64>,
}

/// A set-up workload.
pub trait Bench {
    /// Runs every job once, measuring `yardstick` around each part.
    fn pass(&self, tr: &mut Tracer, yardstick: &mut Yardstick) -> Pass;

    /// Flips one bit of one reference digest, so that the job it
    /// belongs to must be counted as failed.
    #[cfg(test)]
    fn corrupt_reference(&mut self);
}

/// The workloads, by command-line name.
pub const NAMES: [&str; 2] = ["phoenix", "serving"];

/// Whether workload `name` runs pinned to one CPU: those whose machines
/// are large enough for the CSB worker pool (see `pin`). `serving`'s
/// 64-chain machines never start it, and pinning would change what they
/// model: the CSB shards its chains by CPU count, and modeled cycles
/// and peak memory follow the shard count.
pub fn pinned(name: &str) -> bool {
    name == "phoenix"
}

/// Builds workload `name` from `seed`.
pub fn setup(name: &str, seed: u64, scale: Scale, tr: &mut Tracer) -> Option<Box<dyn Bench>> {
    Some(match name {
        "phoenix" => Box::new(Phoenix::setup(seed, scale, tr)),
        "serving" => Box::new(Serving::setup(seed, scale, tr)),
        _ => return None,
    })
}

/// SplitMix64: the benchmark's seeded generator (inputs, orders,
/// priorities, strike schedules).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..4)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..4)
            .scan(Rng::new(8), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut xs: Vec<usize> = (0..16).collect();
        Rng::new(3).shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>());
    }

    /// Each workload at tiny scale: every job passes, counts repeat
    /// exactly, and a corrupted reference digest is one failed job.
    #[test]
    fn every_workload_passes_repeats_and_counts_corruption() {
        for name in NAMES {
            let mut bench = setup(name, 11, Scale::Tiny, &mut Tracer::off()).unwrap();
            let mut yard = Yardstick::new();
            let first = bench.pass(&mut Tracer::off(), &mut yard);
            assert!(first.attempted > 0, "{name}: nothing attempted");
            assert_eq!(first.failed, 0, "{name}: a job failed");
            assert_eq!(first.part_yard_s.len(), first.part_s.len(), "{name}");
            assert!(first.part_yard_s.iter().all(|&y| y > 0.0), "{name}");
            assert!(first.counts.get("sim_cycles").unwrap() > 0.0, "{name}");
            let again = bench.pass(&mut Tracer::off(), &mut yard);
            assert!(first.counts.differing(&again.counts).is_empty(), "{name}");
            let fresh = setup(name, 11, Scale::Tiny, &mut Tracer::off()).unwrap();
            let replay = fresh.pass(&mut Tracer::off(), &mut yard);
            assert!(first.counts.differing(&replay.counts).is_empty(), "{name}");
            bench.corrupt_reference();
            let corrupted = bench.pass(&mut Tracer::off(), &mut yard);
            assert_eq!(corrupted.failed, 1, "{name}: corruption not counted");
            assert_eq!(corrupted.attempted, first.attempted, "{name}");
        }
    }
}
