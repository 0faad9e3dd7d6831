//! CAPE's memory-only modes (Section VII of the paper).
//!
//! When associative compute is not needed, the chip can reconfigure a
//! CAPE tile's CSB as storage. Three modes are modeled:
//!
//! * [`Scratchpad`] — plain addressable memory (the VMU accepts remote
//!   loads/stores and performs physical-address indexing).
//! * [`KvStore`] — content-addressable key-value storage: a lookup is a
//!   single bulk *search* over a key row, so it needs no index
//!   structure. With 32-bit keys and values, a chain holds 16 x 32 = 512
//!   pairs — about half a million pairs in CAPE32k, exactly the paper's
//!   capacity arithmetic. The control processor maintains the free list,
//!   as the paper suggests.
//! * [`VictimCache`] — key-value storage specialized as a victim cache
//!   (e.g. behind an L2): lines are found by searching their address tag.
//!   We store lines column-wise (tag + data words bit-sliced in one
//!   lane) rather than the paper's row-wise sketch; this keeps the same
//!   content-addressable lookup while reusing the compute-mode layout —
//!   the deviation is documented in DESIGN.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod kv;
mod scratchpad;
mod victim;

use cape_csb::{MicroOp, MicroProgram, Probe, TagDest, TagMode, SUBARRAYS_PER_CHAIN};

pub use kv::{KvError, KvStore};
pub use scratchpad::Scratchpad;
pub use victim::VictimCache;

/// The exact-match lookup both keyed modes broadcast as one program: a
/// bit-parallel search of `key` against vector register `reg` (bit `i`
/// in subarray `i`), then a tag fold that ANDs the per-bit matches down
/// the chain, leaving the full-key match in the last subarray's tags.
/// Each microop costs one cycle, so the lookup costs `len()` cycles.
fn match_program(reg: usize, key: u32) -> MicroProgram {
    let search = MicroOp::Search {
        probes: (0..SUBARRAYS_PER_CHAIN)
            .map(|i| Probe::row(i, reg, key >> i & 1 == 1))
            .collect(),
        gates: vec![],
        dest: TagDest::Tags,
        mode: TagMode::Set,
    };
    let fold = (1..SUBARRAYS_PER_CHAIN).map(|i| MicroOp::TagCombine {
        src: i - 1,
        dst: i,
        op: TagMode::And,
    });
    MicroProgram::new(std::iter::once(search).chain(fold).collect())
}
