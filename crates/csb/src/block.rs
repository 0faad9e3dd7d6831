//! Block-SoA chain kernels: the vectorized broadcast hot path.
//!
//! A [`ChainBlock`] packs [`BLOCK_LANES`] chains in structure-of-arrays
//! form: row `r` of subarray `s` across all chains of the block is one
//! contiguous `[u32; BLOCK_LANES]` (one 64-byte cache line), and the
//! per-subarray tag and accumulator registers are laid out the same way.
//! Every broadcast microop runs the identical operation on every chain,
//! so the lowered [`PlanOp`] interpreter becomes a set of tight loops
//! over those contiguous slices — shapes rustc/LLVM auto-vectorizes
//! without `unsafe` or nightly SIMD. This is the transform FPGA CAPP
//! reproductions use to get row-parallel throughput: lay the same
//! bit-slice of many processing elements contiguously so one wide
//! operation serves the whole row.
//!
//! Invariants (see DESIGN.md §13):
//!
//! * Lane `l` of a block holds the chain with local index
//!   `block * BLOCK_LANES + l`; chain counts that are not a multiple of
//!   `BLOCK_LANES` pad the last block with all-zero lanes whose window
//!   mask is permanently 0.
//! * A lane whose window mask is 0 is *never mutated* by a kernel — not
//!   even by `Set`-mode tag latches — so a block kernel is bit-exact
//!   with the scalar path that skips power-gated chains entirely
//!   (Section V-F), and padding lanes stay zero forever.
//! * Reduction partial sums are plain additions, so summing lanes in a
//!   different order than the chain-serial path yields identical totals.
//!
//! The scalar [`Chain`] keeps the one-chain-at-a-time implementation as
//! the reference model; the differential tests below (and the
//! `kernel-smoke` release gate) pin every kernel here bit-exact against
//! it.

use crate::bitmat::transpose32;
use crate::chain::{Chain, ChainState, META_ROWS};
use crate::geometry::{SUBARRAYS_PER_CHAIN, SUBARRAY_COLS};
use crate::microop::{TagDest, TagMode};
use crate::program::{PlanOp, PlanProbe, PlanWrite};
use crate::subarray::{DATA_ROWS, TOTAL_ROWS};

/// Chains per block: 16 `u32` row-slices = one 64-byte cache line.
pub const BLOCK_LANES: usize = 16;

/// One row-slice (or tag/acc/window-slice): the same word of every chain
/// in the block, contiguously.
pub(crate) type Lanes = [u32; BLOCK_LANES];

/// All-ones activity mask when the lane's window is non-zero, all-zeros
/// when the lane is power-gated — the branchless select the kernels use
/// to keep masked lanes byte-identical to the skipped scalar path.
#[inline]
fn lane_act(window: u32) -> u32 {
    0u32.wrapping_sub(u32::from(window != 0))
}

/// XOR-fold of a row-slice: the per-row parity word the write path
/// maintains. One u32 per `[u32; BLOCK_LANES]` cache line.
#[inline]
fn lane_fold(line: &Lanes) -> u32 {
    let mut f = 0u32;
    for &w in line {
        f ^= w;
    }
    f
}

/// Position-mixed hash of one row's parity mismatch, XOR-accumulated
/// into the block syndrome. `splitmix64` over (subarray, row, delta) so
/// mismatches on *different* rows can never cancel each other the way
/// raw deltas could; a mismatch that genuinely disappears (a transient
/// flipped back by a second identical strike) cancels exactly.
#[inline]
fn row_term_hash(s: usize, r: usize, delta: u32) -> u64 {
    if delta == 0 {
        return 0;
    }
    let mut z = ((s as u64) << 40) ^ ((r as u64) << 32) ^ u64::from(delta);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// [`BLOCK_LANES`] chains in structure-of-arrays layout.
///
/// `rows[s][r]` is row `r` of subarray `s` across the block's lanes;
/// `tags[s]`/`acc[s]` are the match registers of subarray `s` across the
/// lanes. All kernels take the block's window-slice (`win[l]` is lane
/// `l`'s active-column mask) and leave `win[l] == 0` lanes untouched.
///
/// # Incremental parity (DESIGN.md §15)
///
/// `parity[s][r]` is the XOR-fold of row-slice `rows[s][r]` as seen by
/// the *write path*: every legitimate mutation — a kernel row write, a
/// per-lane data-transfer write, a context-restore unpack — XOR-folds
/// the old and new cache line into it, so on a fault-free block
/// `parity[s][r] == lane_fold(rows[s][r])` at all times. The fault
/// injectors ([`ChainBlock::flip_bits`], [`ChainBlock::force_bits`],
/// [`ChainBlock::scramble`]) mutate row data *without* updating parity
/// (a strike bypasses the write path), creating a per-row mismatch that
/// subsequent legitimate writes provably preserve: a write updates the
/// data fold and the parity word by the same XOR delta, so the mismatch
/// survives until the block is quarantined — corruption is never
/// silently absorbed, even by a full overwrite of the struck row.
///
/// `syndrome` is the XOR of [`row_term_hash`] over every mismatching
/// row, maintained at the *injection sites only* (the single places
/// where a fold/parity divergence can change). Detection therefore
/// reads one word per block instead of rehashing its ~80 KB of state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ChainBlock {
    rows: [[Lanes; TOTAL_ROWS]; SUBARRAYS_PER_CHAIN],
    tags: [Lanes; SUBARRAYS_PER_CHAIN],
    acc: [Lanes; SUBARRAYS_PER_CHAIN],
    parity: [[u32; TOTAL_ROWS]; SUBARRAYS_PER_CHAIN],
    syndrome: u64,
}

impl Default for ChainBlock {
    fn default() -> Self {
        Self::new()
    }
}

impl ChainBlock {
    /// A zero-initialized block. All-zero parity words are consistent
    /// with the all-zero row data, so a fresh block is born clean.
    pub fn new() -> Self {
        Self {
            rows: [[[0; BLOCK_LANES]; TOTAL_ROWS]; SUBARRAYS_PER_CHAIN],
            tags: [[0; BLOCK_LANES]; SUBARRAYS_PER_CHAIN],
            acc: [[0; BLOCK_LANES]; SUBARRAYS_PER_CHAIN],
            parity: [[0; TOTAL_ROWS]; SUBARRAYS_PER_CHAIN],
            syndrome: 0,
        }
    }

    /// Executes one lowered microop across every lane of the block.
    /// Returns the window-masked tag popcount summed over the lanes for
    /// [`PlanOp::ReduceTags`], `None` otherwise. `Read` is a no-op here:
    /// row data is chain-local and consumers read block state after the
    /// program completes.
    ///
    /// `PARITY` monomorphizes the row-write kernels: `true` fuses the
    /// per-row XOR-fold parity update into every write loop (fault mode),
    /// `false` compiles the exact pre-parity kernels (clean mode keeps
    /// full speed). The branch is on a const, so each instantiation is
    /// branch-free.
    pub fn execute_plan<const PARITY: bool>(&mut self, op: &PlanOp, win: &Lanes) -> Option<u64> {
        match op {
            PlanOp::SearchOne { probe, dest, mode } => {
                let m = self.probe_match(probe, win);
                self.accumulate(probe.subarray as usize, &m, *dest, *mode, win);
                None
            }
            PlanOp::Step {
                probe,
                dest,
                mode,
                nwrites,
                writes,
            } => {
                let m = self.probe_match(probe, win);
                self.accumulate(probe.subarray as usize, &m, *dest, *mode, win);
                self.plan_write::<PARITY>(&writes[0], win);
                if *nwrites == 2 {
                    self.plan_write::<PARITY>(&writes[1], win);
                }
                None
            }
            PlanOp::Search {
                probes,
                gates,
                dest,
                mode,
            } => {
                let mut gate = [u32::MAX; BLOCK_LANES];
                for g in gates.iter() {
                    self.and_probe(g, &mut gate);
                }
                for p in probes.iter() {
                    let mut m = *win;
                    for l in 0..BLOCK_LANES {
                        m[l] &= gate[l];
                    }
                    self.and_probe(p, &mut m);
                    self.accumulate(p.subarray as usize, &m, *dest, *mode, win);
                }
                None
            }
            PlanOp::UpdateOne { write } => {
                self.plan_write::<PARITY>(write, win);
                None
            }
            PlanOp::UpdateTwo { writes } => {
                self.plan_write::<PARITY>(&writes[0], win);
                self.plan_write::<PARITY>(&writes[1], win);
                None
            }
            PlanOp::Update { writes } => {
                debug_assert!(
                    distinct_subarrays(writes),
                    "update writes two rows of one subarray"
                );
                for w in writes.iter() {
                    self.plan_write::<PARITY>(w, win);
                }
                None
            }
            PlanOp::Read { .. } => None,
            PlanOp::Write {
                subarray,
                row,
                data,
                mask,
            } => {
                let r = &mut self.rows[*subarray as usize][*row as usize];
                if PARITY {
                    let mut delta = 0u32;
                    for l in 0..BLOCK_LANES {
                        let m = mask & win[l];
                        delta ^= (r[l] ^ data) & m;
                        r[l] = (r[l] & !m) | (data & m);
                    }
                    self.parity[*subarray as usize][*row as usize] ^= delta;
                } else {
                    for l in 0..BLOCK_LANES {
                        let m = mask & win[l];
                        r[l] = (r[l] & !m) | (data & m);
                    }
                }
                None
            }
            PlanOp::ReduceTags { subarray } => {
                let t = &self.tags[*subarray as usize];
                let mut sum = 0u64;
                for l in 0..BLOCK_LANES {
                    sum += u64::from((t[l] & win[l]).count_ones());
                }
                Some(sum)
            }
            PlanOp::TagCombine { src, dst, op } => {
                let m = self.tags[*src as usize];
                let d = &mut self.tags[*dst as usize];
                match op {
                    TagMode::Set => {
                        for l in 0..BLOCK_LANES {
                            let act = lane_act(win[l]);
                            d[l] = (m[l] & act) | (d[l] & !act);
                        }
                    }
                    TagMode::And => {
                        for l in 0..BLOCK_LANES {
                            d[l] &= m[l] | !win[l];
                        }
                    }
                    TagMode::Or => {
                        for l in 0..BLOCK_LANES {
                            d[l] |= m[l] & win[l];
                        }
                    }
                }
                None
            }
        }
    }

    /// ANDs the probe's branchless key matches into `m`: per key row,
    /// `m[l] &= rows[l] ^ inv` over the contiguous row-slice.
    #[inline]
    fn and_probe(&self, p: &PlanProbe, m: &mut Lanes) {
        let sub = &self.rows[p.subarray as usize];
        for k in 0..p.nkeys as usize {
            let row = &sub[p.rows[k] as usize];
            let inv = p.inv[k];
            for l in 0..BLOCK_LANES {
                m[l] &= row[l] ^ inv;
            }
        }
    }

    /// Window-masked single-probe match across the block's lanes.
    #[inline]
    fn probe_match(&self, p: &PlanProbe, win: &Lanes) -> Lanes {
        let mut m = *win;
        self.and_probe(p, &mut m);
        m
    }

    /// Latches a pre-window-masked match-slice `m` into the tags or
    /// accumulator of `sub`. `Set` blends through the lane-activity mask
    /// so power-gated lanes keep their register value, exactly like the
    /// scalar path that never executes them.
    #[inline]
    fn accumulate(&mut self, sub: usize, m: &Lanes, dest: TagDest, mode: TagMode, win: &Lanes) {
        let reg = match dest {
            TagDest::Tags => &mut self.tags[sub],
            TagDest::Acc => &mut self.acc[sub],
        };
        match mode {
            TagMode::Set => {
                for l in 0..BLOCK_LANES {
                    let act = lane_act(win[l]);
                    reg[l] = (m[l] & act) | (reg[l] & !act);
                }
            }
            TagMode::And => {
                for l in 0..BLOCK_LANES {
                    reg[l] &= m[l] | !win[l];
                }
            }
            TagMode::Or => {
                for l in 0..BLOCK_LANES {
                    reg[l] |= m[l];
                }
            }
        }
    }

    /// One lowered row write across the block: `sel` picks the per-lane
    /// column source (window, tags or accumulator of `src`). With
    /// `PARITY` the XOR-fold of the changed bits (`cols & !row` for a
    /// set, `cols & row` for a clear) folds into the row's parity word —
    /// one extra XOR per lane word, branchless alongside the write.
    #[inline]
    fn plan_write<const PARITY: bool>(&mut self, w: &PlanWrite, win: &Lanes) {
        let mut cols = *win;
        match w.sel {
            1 => {
                let t = &self.tags[w.src as usize];
                for l in 0..BLOCK_LANES {
                    cols[l] &= t[l];
                }
            }
            2 => {
                let a = &self.acc[w.src as usize];
                for l in 0..BLOCK_LANES {
                    cols[l] &= a[l];
                }
            }
            _ => {}
        }
        let row = &mut self.rows[w.subarray as usize][w.row as usize];
        if PARITY {
            let mut delta = 0u32;
            if w.value {
                for l in 0..BLOCK_LANES {
                    delta ^= cols[l] & !row[l];
                    row[l] |= cols[l];
                }
            } else {
                for l in 0..BLOCK_LANES {
                    delta ^= cols[l] & row[l];
                    row[l] &= !cols[l];
                }
            }
            self.parity[w.subarray as usize][w.row as usize] ^= delta;
        } else if w.value {
            for l in 0..BLOCK_LANES {
                row[l] |= cols[l];
            }
        } else {
            for l in 0..BLOCK_LANES {
                row[l] &= !cols[l];
            }
        }
    }

    // ----- per-lane access (data transfer, context switch, bring-up) ----

    /// Current tag bits of subarray `s` in lane `lane`.
    pub fn tags(&self, lane: usize, s: usize) -> u32 {
        self.tags[s][lane]
    }

    /// Overwrites the tag bits of subarray `s` in lane `lane`.
    pub fn set_tags(&mut self, lane: usize, s: usize, v: u32) {
        self.tags[s][lane] = v;
    }

    /// Current accumulator bits of subarray `s` in lane `lane`.
    pub fn acc(&self, lane: usize, s: usize) -> u32 {
        self.acc[s][lane]
    }

    /// Overwrites the accumulator bits of subarray `s` in lane `lane`.
    pub fn set_acc(&mut self, lane: usize, s: usize, v: u32) {
        self.acc[s][lane] = v;
    }

    /// Row `r` of subarray `s` in lane `lane`.
    pub fn row(&self, lane: usize, s: usize, r: usize) -> u32 {
        self.rows[s][r][lane]
    }

    /// Writes `data` into row `r` of subarray `s` in lane `lane` at the
    /// columns selected by `mask`. Maintains the row's parity word
    /// unconditionally — one extra XOR, negligible off the hot path.
    pub fn write_row(&mut self, lane: usize, s: usize, r: usize, data: u32, mask: u32) {
        let w = &mut self.rows[s][r][lane];
        let n = (*w & !mask) | (data & mask);
        self.parity[s][r] ^= *w ^ n;
        *w = n;
    }

    /// Deposits a 32-bit `value` into vector register `reg` at column
    /// `col` of lane `lane`, bit-slicing it across the 32 subarrays.
    pub fn write_element(&mut self, lane: usize, reg: usize, col: usize, value: u32) {
        assert!(reg < DATA_ROWS, "vector register {reg} out of range");
        assert!(col < SUBARRAY_COLS, "column {col} out of range");
        let bit = 1u32 << col;
        for (s, sub) in self.rows.iter_mut().enumerate() {
            let r = &mut sub[reg][lane];
            let n = if value >> s & 1 == 1 {
                *r | bit
            } else {
                *r & !bit
            };
            self.parity[s][reg] ^= *r ^ n;
            *r = n;
        }
    }

    /// Reads back the 32-bit element of register `reg` at column `col`
    /// of lane `lane`.
    pub fn read_element(&self, lane: usize, reg: usize, col: usize) -> u32 {
        assert!(reg < DATA_ROWS, "vector register {reg} out of range");
        assert!(col < SUBARRAY_COLS, "column {col} out of range");
        let mut v = 0u32;
        for (s, sub) in self.rows.iter().enumerate() {
            v |= (sub[reg][lane] >> col & 1) << s;
        }
        v
    }

    /// Bulk-reads vector register `reg` of lane `lane` across all 32
    /// columns through one 32×32 [`transpose32`] — the wide-transfer
    /// path of [`Chain::read_column_block`], lifted to the block layout.
    pub fn read_column_block(&self, lane: usize, reg: usize) -> [u32; SUBARRAY_COLS] {
        assert!(reg < DATA_ROWS, "vector register {reg} out of range");
        let mut m = [0u32; SUBARRAY_COLS];
        for (s, sub) in self.rows.iter().enumerate() {
            m[s] = sub[reg][lane];
        }
        transpose32(&mut m);
        m
    }

    /// Bulk-deposits up to 32 elements into register `reg` of lane
    /// `lane`, one per column selected by `col_mask`, through one 32×32
    /// [`transpose32`] — the inverse of [`ChainBlock::read_column_block`].
    pub fn write_column_block(
        &mut self,
        lane: usize,
        reg: usize,
        values: &[u32; SUBARRAY_COLS],
        col_mask: u32,
    ) {
        assert!(reg < DATA_ROWS, "vector register {reg} out of range");
        let mut m = *values;
        transpose32(&mut m);
        for (s, sub) in self.rows.iter_mut().enumerate() {
            let r = &mut sub[reg][lane];
            let n = (*r & !col_mask) | (m[s] & col_mask);
            self.parity[s][reg] ^= *r ^ n;
            *r = n;
        }
    }

    /// Packs lane `lane` into a [`ChainState`] — the same image
    /// [`Chain::save_state`] produces, so context switches through the
    /// block layout round-trip bit-exactly against the scalar model.
    pub fn save_state(&self, lane: usize) -> ChainState {
        let mut state = ChainState::zeroed();
        for r in 0..DATA_ROWS {
            state.regs[r] = self.read_column_block(lane, r);
        }
        for s in 0..SUBARRAYS_PER_CHAIN {
            for m in 0..META_ROWS {
                state.meta[s][m] = self.rows[s][DATA_ROWS + m][lane];
            }
            state.tags[s] = self.tags[s][lane];
            state.acc[s] = self.acc[s][lane];
        }
        state
    }

    /// Unpacks a [`ChainState`] into lane `lane` — the inverse of
    /// [`ChainBlock::save_state`].
    pub fn load_state(&mut self, lane: usize, state: &ChainState) {
        for r in 0..DATA_ROWS {
            self.write_column_block(lane, r, &state.regs[r], u32::MAX);
        }
        for s in 0..SUBARRAYS_PER_CHAIN {
            for m in 0..META_ROWS {
                let w = &mut self.rows[s][DATA_ROWS + m][lane];
                self.parity[s][DATA_ROWS + m] ^= *w ^ state.meta[s][m];
                *w = state.meta[s][m];
            }
            self.tags[s][lane] = state.tags[s];
            self.acc[s][lane] = state.acc[s];
        }
    }

    /// Materializes lane `lane` as a scalar [`Chain`] (reference-model
    /// view; test/bring-up hook, not a hot path).
    pub fn to_chain(&self, lane: usize) -> Chain {
        let mut chain = Chain::new();
        chain.load_state(&self.save_state(lane));
        chain
    }

    // ----- fault-layer hooks (parity rebuild + seeded injection) -------

    /// Current fold-vs-parity mismatch term of row `r` of subarray `s`
    /// (0 when the row is consistent).
    #[inline]
    fn row_term(&self, s: usize, r: usize) -> u64 {
        row_term_hash(s, r, lane_fold(&self.rows[s][r]) ^ self.parity[s][r])
    }

    /// The block syndrome: 0 iff no row's parity mismatches its data
    /// (up to hash collision odds; see DESIGN.md §15). Injectors keep
    /// this exact, so detection is a one-word read per block.
    pub fn syndrome(&self) -> u64 {
        self.syndrome
    }

    /// Recomputes every row's parity word from current data and clears
    /// the syndrome — used when a block enters fault-tracked service
    /// (arming, remap onto a spare), never on the broadcast path.
    pub fn rebuild_parity(&mut self) {
        for (s, sub) in self.rows.iter().enumerate() {
            for (r, row) in sub.iter().enumerate() {
                self.parity[s][r] = lane_fold(row);
            }
        }
        self.syndrome = 0;
    }

    /// Lists `(subarray, row)` coordinates whose stored parity disagrees
    /// with the data fold — the strike localization the detector reports.
    /// O(block), only walked once a nonzero syndrome flags the block.
    pub fn struck_rows(&self) -> Vec<(u8, u8)> {
        let mut out = Vec::new();
        for (s, sub) in self.rows.iter().enumerate() {
            for (r, row) in sub.iter().enumerate() {
                if lane_fold(row) != self.parity[s][r] {
                    out.push((s as u8, r as u8));
                }
            }
        }
        out
    }

    /// Test hook: true when every row's parity equals its data fold and
    /// the syndrome is zero — the invariant legitimate execution must
    /// preserve exactly.
    pub fn parity_consistent(&self) -> bool {
        self.syndrome == 0
            && self
                .rows
                .iter()
                .enumerate()
                .all(|(s, sub)| (0..TOTAL_ROWS).all(|r| lane_fold(&sub[r]) == self.parity[s][r]))
    }

    /// Transient strike: XOR-flips `mask` bits of row `r` of subarray
    /// `s` in lane `lane`, updating the struck row's syndrome term —
    /// the O(1 cache line) in-array parity check a real CAPE substrate
    /// evaluates on the row it just disturbed.
    pub fn flip_bits(&mut self, lane: usize, s: usize, r: usize, mask: u32) {
        let old = self.row_term(s, r);
        self.rows[s][r][lane] ^= mask;
        self.syndrome ^= old ^ self.row_term(s, r);
    }

    /// Stuck-at assertion: wedges `mask` bits of row `r` of subarray `s`
    /// in lane `lane` to `value`. Returns true if the word changed (an
    /// unchanged word leaves no parity trace — the march-test scrub is
    /// what catches such latent defects).
    pub fn force_bits(&mut self, lane: usize, s: usize, r: usize, mask: u32, value: bool) -> bool {
        let w = self.rows[s][r][lane];
        let forced = if value { w | mask } else { w & !mask };
        if forced == w {
            return false;
        }
        let old = self.row_term(s, r);
        self.rows[s][r][lane] = forced;
        self.syndrome ^= old ^ self.row_term(s, r);
        true
    }

    /// Dead-block assertion: scrambles every row, tag and accumulator
    /// slice to seeded xorshift garbage, then recomputes the whole-block
    /// syndrome (O(block), storm-only). Tags and accumulators carry no
    /// parity, but a dead block always scrambles its rows too, so the
    /// row syndrome flags it.
    pub fn scramble(&mut self, seed: u32) {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            state
        };
        for sub in &mut self.rows {
            for row in sub {
                for w in row {
                    *w = next();
                }
            }
        }
        for slice in self.tags.iter_mut().chain(self.acc.iter_mut()) {
            for w in slice {
                *w = next();
            }
        }
        let mut syn = 0u64;
        for s in 0..SUBARRAYS_PER_CHAIN {
            for r in 0..TOTAL_ROWS {
                syn ^= self.row_term(s, r);
            }
        }
        self.syndrome = syn;
    }
}

/// True when every write targets a distinct subarray (the hardware
/// writes at most one row per subarray per update). Validated once at
/// plan lowering; kernels only `debug_assert!` it.
fn distinct_subarrays(writes: &[PlanWrite]) -> bool {
    let mut seen = 0u32;
    for w in writes {
        let bit = 1u32 << w.subarray;
        if seen & bit != 0 {
            return false;
        }
        seen |= bit;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::reference_sweep;
    use crate::microop::{ColSel, MicroOp, Probe, WriteSpec};
    use crate::program::MicroProgram;

    /// Deterministic pseudorandom word stream.
    fn rng(seed: u32) -> impl FnMut() -> u32 {
        let mut state = seed | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            state
        }
    }

    /// A block and the per-lane scalar reference chains, seeded with the
    /// same pseudorandom registers, tags and accumulators.
    fn seeded_pair(seed: u32) -> (ChainBlock, Vec<Chain>) {
        let mut next = rng(seed);
        let mut block = ChainBlock::new();
        let mut chains = vec![Chain::new(); BLOCK_LANES];
        for (lane, chain) in chains.iter_mut().enumerate() {
            for reg in 0..6 {
                for col in 0..SUBARRAY_COLS {
                    let v = next();
                    block.write_element(lane, reg, col, v);
                    chain.write_element(reg, col, v);
                }
            }
            for s in 0..SUBARRAYS_PER_CHAIN {
                let (t, a) = (next(), next());
                block.set_tags(lane, s, t);
                chain.set_tags(s, t);
                block.set_acc(lane, s, a);
                chain.set_acc(s, a);
            }
        }
        (block, chains)
    }

    /// A messy microop soup covering every kernel shape: gated and
    /// ungated searches, all tag modes and destinations, tag-selected
    /// and window updates, raw writes, tag combines and reductions.
    fn sample_ops() -> Vec<MicroOp> {
        vec![
            MicroOp::Search {
                probes: vec![Probe::row(0, 1, true)],
                gates: vec![],
                dest: TagDest::Tags,
                mode: TagMode::Set,
            },
            MicroOp::Update {
                writes: vec![WriteSpec {
                    subarray: 1,
                    row: 4,
                    value: true,
                    cols: ColSel::Tags(0),
                }],
            },
            MicroOp::Search {
                probes: vec![Probe::new(2, vec![(1, true), (3, false)])],
                gates: vec![Probe::row(9, 0, true)],
                dest: TagDest::Acc,
                mode: TagMode::Set,
            },
            MicroOp::Search {
                probes: vec![Probe::row(3, 2, false)],
                gates: vec![],
                dest: TagDest::Tags,
                mode: TagMode::Or,
            },
            MicroOp::Search {
                probes: vec![Probe::row(4, 0, true)],
                gates: vec![],
                dest: TagDest::Tags,
                mode: TagMode::And,
            },
            MicroOp::Update {
                writes: vec![
                    WriteSpec {
                        subarray: 2,
                        row: 5,
                        value: false,
                        cols: ColSel::Acc(2),
                    },
                    WriteSpec {
                        subarray: 3,
                        row: crate::ROW_CARRY,
                        value: true,
                        cols: ColSel::Tags(2),
                    },
                ],
            },
            MicroOp::Write {
                subarray: 7,
                row: 6,
                data: 0xA5A5_5A5A,
                mask: 0x0FF0_F00F,
            },
            MicroOp::TagCombine {
                src: 0,
                dst: 5,
                op: TagMode::Set,
            },
            MicroOp::TagCombine {
                src: 5,
                dst: 6,
                op: TagMode::And,
            },
            MicroOp::TagCombine {
                src: 6,
                dst: 7,
                op: TagMode::Or,
            },
            MicroOp::ReduceTags { subarray: 7 },
            MicroOp::Update {
                writes: (0..SUBARRAYS_PER_CHAIN)
                    .map(|i| WriteSpec {
                        subarray: i,
                        row: 8,
                        value: i % 3 == 0,
                        cols: ColSel::Window,
                    })
                    .collect(),
            },
            MicroOp::Read {
                subarray: 1,
                row: 4,
            },
            MicroOp::ReduceTags { subarray: 0 },
        ]
    }

    /// Runs the lowered plan on the block and the original microops on
    /// the per-lane reference chains (skipping power-gated lanes), then
    /// asserts bit-exact state and identical reduction sums.
    fn assert_block_matches_reference(win: Lanes, seed: u32) {
        let (mut block, mut chains) = seeded_pair(seed);
        let program = MicroProgram::new(sample_ops());

        let mut block_sums = Vec::new();
        for op in program.plan() {
            if let Some(s) = block.execute_plan::<true>(op, &win) {
                block_sums.push(s);
            }
        }
        assert!(
            block.parity_consistent(),
            "legit execution broke parity (seed {seed})"
        );

        let ref_sums = reference_sweep(&mut chains, &win, program.ops());

        assert_eq!(block_sums, ref_sums, "reduction sums (seed {seed})");
        for (lane, chain) in chains.iter().enumerate() {
            assert_eq!(
                &block.to_chain(lane),
                chain,
                "lane {lane} diverged (seed {seed}, win {:#x})",
                win[lane]
            );
        }
    }

    #[test]
    fn kernels_match_scalar_chain_full_window() {
        assert_block_matches_reference([u32::MAX; BLOCK_LANES], 0xC0FF_EE01);
    }

    #[test]
    fn kernels_match_scalar_chain_mixed_windows() {
        let mut next = rng(0xBEEF);
        let mut win = [0u32; BLOCK_LANES];
        for w in win.iter_mut() {
            *w = next();
        }
        // Force a couple of fully-gated and one fully-open lane.
        win[3] = 0;
        win[11] = 0;
        win[5] = u32::MAX;
        assert_block_matches_reference(win, 0xDEAD_0001);
    }

    #[test]
    fn power_gated_lanes_are_never_mutated() {
        let (mut block, chains) = seeded_pair(7);
        let before = block.to_chain(4);
        let mut win = [u32::MAX; BLOCK_LANES];
        win[4] = 0;
        let program = MicroProgram::new(sample_ops());
        for op in program.plan() {
            block.execute_plan::<false>(op, &win);
        }
        assert_eq!(block.to_chain(4), before, "gated lane must not change");
        drop(chains);
    }

    #[test]
    fn parity_off_and_on_kernels_are_bit_identical() {
        let win = [0x0F0F_F0F0u32; BLOCK_LANES];
        let (mut with, _) = seeded_pair(0x7A51);
        let (mut without, _) = seeded_pair(0x7A51);
        let program = MicroProgram::new(sample_ops());
        for op in program.plan() {
            assert_eq!(
                with.execute_plan::<true>(op, &win),
                without.execute_plan::<false>(op, &win)
            );
        }
        for lane in 0..BLOCK_LANES {
            assert_eq!(with.to_chain(lane), without.to_chain(lane), "lane {lane}");
        }
        assert!(with.parity_consistent());
    }

    #[test]
    fn strike_survives_full_row_overwrite_and_localizes() {
        let (mut block, _) = seeded_pair(0x0BAD);
        block.rebuild_parity();
        assert!(block.parity_consistent());
        block.flip_bits(3, 7, 5, 0x10);
        assert_ne!(block.syndrome(), 0, "strike must raise the syndrome");
        assert_eq!(block.struck_rows(), vec![(7, 5)]);
        // A legitimate full overwrite of the struck row shifts data and
        // parity by the same delta: the mismatch (and syndrome) persist.
        let win = [u32::MAX; BLOCK_LANES];
        let op = PlanOp::Write {
            subarray: 7,
            row: 5,
            data: 0xFFFF_FFFF,
            mask: u32::MAX,
        };
        block.execute_plan::<true>(&op, &win);
        assert_ne!(block.syndrome(), 0, "overwrite must not absorb the strike");
        assert_eq!(block.struck_rows(), vec![(7, 5)]);
        // Rebuild (quarantine/remap path) clears it.
        block.rebuild_parity();
        assert!(block.parity_consistent());
    }

    #[test]
    fn element_roundtrip_and_column_block_agree() {
        let mut block = ChainBlock::new();
        let mut next = rng(42);
        let mut vals = [0u32; SUBARRAY_COLS];
        for v in vals.iter_mut() {
            *v = next();
        }
        block.write_column_block(9, 6, &vals, u32::MAX);
        for (col, &v) in vals.iter().enumerate() {
            assert_eq!(block.read_element(9, 6, col), v, "col {col}");
        }
        assert_eq!(block.read_column_block(9, 6), vals);
        // Other lanes untouched.
        assert_eq!(block.read_column_block(8, 6), [0; SUBARRAY_COLS]);
    }

    #[test]
    fn chain_state_roundtrips_through_block() {
        let (block, chains) = seeded_pair(0x5EED);
        for (lane, chain) in chains.iter().enumerate() {
            let state = block.save_state(lane);
            assert_eq!(state, chain.save_state(), "lane {lane}");
            let mut fresh = ChainBlock::new();
            fresh.load_state(lane, &state);
            assert_eq!(fresh.save_state(lane), state, "lane {lane} reload");
        }
    }
}
