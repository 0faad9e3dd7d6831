//! The yardstick: a fixed loop that host times are scaled by.
//!
//! On a shared host the simulator's speed drifts by up to 1.9× in
//! stretches of tens of seconds, as other tenants come and go, and one
//! run often sits in a single stretch; so raw host seconds move with the
//! host more than with the program. The drift shows in process CPU
//! time as well (no page faults, no steal), and it slows memory-bound
//! code: a pure-ALU loop kept its speed through it, while this
//! memory-streaming loop slowed along with the simulator. Timed right
//! before and right after every timed part, it measures the host's
//! speed at that moment; a change to the program cannot move it, because
//! it shares no code with the simulator. `host_s` and `setup_s` are
//! reported as seconds on a reference host, one where the loop takes
//! [`REFERENCE_S`].

use std::hint::black_box;
use std::time::Instant;

use crate::metrics::release_free_memory;
use crate::trace::{Tracer, TRACK_PASS};

/// Buffer words: 32 MiB, more than the shared cache, so the loop leans
/// on the memory bandwidth that other tenants contend for. (A 4 MiB
/// buffer followed the `phoenix` drift less closely.)
const WORDS: u64 = 1 << 22;
/// Sweeps over the buffer per timing (about 10 ms).
const SWEEPS: u64 = 1;
/// Timings per measurement; the fastest counts, so that one interrupt
/// does not.
const REPS: usize = 3;
/// The loop's time on the reference host: about its median on a
/// 2-vCPU KVM guest of a shared Xeon server.
pub const REFERENCE_S: f64 = 10.0e-3;

/// `host_s` seconds measured while the loop took `yard_s`, as seconds
/// on the reference host.
pub fn at_reference(host_s: f64, yard_s: f64) -> f64 {
    host_s * REFERENCE_S / yard_s
}

/// The yardstick loop and its buffer.
pub struct Yardstick {
    buf: Vec<u64>,
}

impl Yardstick {
    /// Allocates and fills the buffer.
    pub fn new() -> Self {
        Self {
            buf: (0..WORDS)
                .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .collect(),
        }
    }

    /// Resident size of the buffer, in MiB.
    pub fn buffer_mb(&self) -> f64 {
        std::mem::size_of_val(self.buf.as_slice()) as f64 / (1024.0 * 1024.0)
    }

    /// Times the loop [`REPS`] times; returns the fastest, in seconds.
    pub fn measure_s(&mut self, tr: &mut Tracer) -> f64 {
        let s = tr.begin("yardstick", TRACK_PASS, String::new);
        let mut best = f64::INFINITY;
        for _ in 0..REPS {
            let t = Instant::now();
            let mut acc = 0u64;
            for sweep in 0..black_box(SWEEPS) {
                for w in self.buf.iter_mut() {
                    *w = w.rotate_left(7) ^ (*w >> 3) ^ sweep;
                    acc = acc.wrapping_add(u64::from(w.count_ones()));
                }
            }
            black_box(acc);
            best = best.min(t.elapsed().as_secs_f64());
        }
        tr.end(s);
        best
    }
}

/// Times each part of a pass (or each set-up) and the yardstick around
/// it.
pub struct PartTimer<'a> {
    yardstick: &'a mut Yardstick,
    before_s: f64,
    start: Instant,
}

impl<'a> PartTimer<'a> {
    /// Measures the yardstick once before the first part.
    pub fn new(yardstick: &'a mut Yardstick, tr: &mut Tracer) -> Self {
        let before_s = yardstick.measure_s(tr);
        Self {
            yardstick,
            before_s,
            start: Instant::now(),
        }
    }

    /// Starts timing a part.
    pub fn start(&mut self) {
        self.start = Instant::now();
    }

    /// Ends the part started last; returns its host seconds and the
    /// mean of the yardstick's times just before and just after it.
    /// Frees the heap's spare memory before the next part.
    pub fn stop(&mut self, tr: &mut Tracer) -> (f64, f64) {
        let part_s = self.start.elapsed().as_secs_f64();
        release_free_memory();
        let after_s = self.yardstick.measure_s(tr);
        let yard_s = (self.before_s + after_s) / 2.0;
        self.before_s = after_s;
        (part_s, yard_s)
    }
}
