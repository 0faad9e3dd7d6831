//! A CAPE chain: 32 subarrays, tag bits, accumulators, and the tag bus.

use crate::bitmat::transpose32;
use crate::geometry::{SUBARRAYS_PER_CHAIN, SUBARRAY_COLS};
use crate::microop::{ColSel, MicroOp, Probe, TagDest, TagMode, WriteSpec};
use crate::subarray::{Subarray, DATA_ROWS, TOTAL_ROWS};

/// Number of metadata rows per subarray (carry, flag, two scratch rows).
pub(crate) const META_ROWS: usize = TOTAL_ROWS - DATA_ROWS;

/// Full state of one chain, captured at a microprogram sync point:
/// the 32 vector registers in lane-major element form (moved through the
/// bulk 32×32 transpose path), the per-subarray metadata rows, and the
/// tag/accumulator match registers.
///
/// Metadata rows and match registers are transient within one microop
/// program, but they are captured anyway so a context switch between any
/// two sync points is unconditionally bit-exact — no assumption about
/// which lowering initializes which row first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainState {
    /// `regs[r][col]` is the element of vector register `r` at lane `col`.
    pub(crate) regs: Box<[[u32; SUBARRAY_COLS]; DATA_ROWS]>,
    /// `meta[s][m]` is metadata row `DATA_ROWS + m` of subarray `s`.
    pub(crate) meta: Box<[[u32; META_ROWS]; SUBARRAYS_PER_CHAIN]>,
    pub(crate) tags: [u32; SUBARRAYS_PER_CHAIN],
    pub(crate) acc: [u32; SUBARRAYS_PER_CHAIN],
}

impl ChainState {
    /// The all-zero chain state — what a freshly constructed chain holds.
    pub fn zeroed() -> Self {
        Self {
            regs: Box::new([[0; SUBARRAY_COLS]; DATA_ROWS]),
            meta: Box::new([[0; META_ROWS]; SUBARRAYS_PER_CHAIN]),
            tags: [0; SUBARRAYS_PER_CHAIN],
            acc: [0; SUBARRAYS_PER_CHAIN],
        }
    }
}

impl Default for ChainState {
    fn default() -> Self {
        Self::zeroed()
    }
}

/// A chain of 32 subarrays with per-subarray tag bits and accumulators.
///
/// A chain stores 32 lanes x 32 vector registers x 32 bits. Operands are
/// *bit-sliced*: bit `i` of an element lives in subarray `i`, at the row
/// named by the vector register and the column named by the lane
/// (Section IV-B, Fig. 5). Bit-slicing gives *operand locality*: a
/// bit-serial search or update touches only one or two subarrays, which is
/// what keeps those microops fast and low-energy (Table II).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chain {
    /// Inline (not boxed): a chain is one contiguous ~4.9 KB block, so a
    /// shard's chains form a single slab and the broadcast hot loop never
    /// chases a heap pointer per subarray access.
    subarrays: [Subarray; SUBARRAYS_PER_CHAIN],
    tags: [u32; SUBARRAYS_PER_CHAIN],
    acc: [u32; SUBARRAYS_PER_CHAIN],
}

impl Default for Chain {
    fn default() -> Self {
        Self::new()
    }
}

impl Chain {
    /// Number of lanes (columns) in a chain.
    pub const LANES: usize = SUBARRAY_COLS;

    /// Creates a zero-initialized chain.
    pub fn new() -> Self {
        Self {
            subarrays: [Subarray::new(); SUBARRAYS_PER_CHAIN],
            tags: [0; SUBARRAYS_PER_CHAIN],
            acc: [0; SUBARRAYS_PER_CHAIN],
        }
    }

    /// Immutable access to subarray `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 32`.
    pub fn subarray(&self, i: usize) -> &Subarray {
        &self.subarrays[i]
    }

    /// Mutable access to subarray `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 32`.
    pub fn subarray_mut(&mut self, i: usize) -> &mut Subarray {
        &mut self.subarrays[i]
    }

    /// Current tag bits of subarray `i`.
    pub fn tags(&self, i: usize) -> u32 {
        self.tags[i]
    }

    /// Current accumulator bits of subarray `i`.
    pub fn acc(&self, i: usize) -> u32 {
        self.acc[i]
    }

    /// Overwrites the tag bits of subarray `i` (test/bring-up hook; real
    /// programs set tags through searches).
    pub fn set_tags(&mut self, i: usize, tags: u32) {
        self.tags[i] = tags;
    }

    /// Overwrites the accumulator bits of subarray `i` (context-restore
    /// hook; real programs set accumulators through searches).
    pub fn set_acc(&mut self, i: usize, acc: u32) {
        self.acc[i] = acc;
    }

    /// Captures the chain's full state. Vector registers move through the
    /// bulk transpose path ([`Chain::read_column_block`]); metadata rows
    /// and match registers are copied directly.
    pub fn save_state(&self) -> ChainState {
        let mut state = ChainState::zeroed();
        for r in 0..DATA_ROWS {
            state.regs[r] = self.read_column_block(r);
        }
        for (s, sub) in self.subarrays.iter().enumerate() {
            for m in 0..META_ROWS {
                state.meta[s][m] = sub.row(DATA_ROWS + m);
            }
        }
        state.tags = self.tags;
        state.acc = self.acc;
        state
    }

    /// Restores the chain to a previously captured state — the inverse of
    /// [`Chain::save_state`], using the bulk transpose path
    /// ([`Chain::write_column_block`]) for the vector registers.
    pub fn load_state(&mut self, state: &ChainState) {
        for r in 0..DATA_ROWS {
            self.write_column_block(r, &state.regs[r], u32::MAX);
        }
        for (s, sub) in self.subarrays.iter_mut().enumerate() {
            for m in 0..META_ROWS {
                sub.write_row(DATA_ROWS + m, state.meta[s][m], u32::MAX);
            }
        }
        self.tags = state.tags;
        self.acc = state.acc;
    }

    /// Executes one broadcast microop against this chain.
    ///
    /// `window` is the active-window column mask (from `vstart`/`vl`):
    /// searches are masked so inactive columns never set tags, and updates
    /// never write outside the window. Returns row data for `Read` and the
    /// tag population count for `ReduceTags`, `None` otherwise.
    ///
    /// # Panics
    ///
    /// Panics if an update writes more than one row in the same subarray
    /// (the hardware writes at most one row per subarray per update) or if
    /// a search probes more than 4 rows of one subarray.
    pub fn execute(&mut self, microop: &MicroOp, window: u32) -> Option<u32> {
        match microop {
            MicroOp::Search {
                probes,
                gates,
                dest,
                mode,
            } => {
                let mut gate_match = u32::MAX;
                for g in gates {
                    gate_match &= self.subarrays[g.subarray].search(&g.keys);
                }
                for p in probes {
                    let m = self.subarrays[p.subarray].search(&p.keys) & gate_match & window;
                    self.accumulate(p.subarray, m, *dest, *mode, window);
                }
                None
            }
            MicroOp::Update { writes } => {
                self.check_one_row_per_subarray(writes);
                // All writes of one update happen in the same cycle, off
                // the pre-update match registers — which holds for direct
                // reads too, since updates write rows, never tags/acc.
                for w in writes {
                    let cols = match w.cols {
                        ColSel::Window => window,
                        ColSel::Tags(s) => self.tags[s] & window,
                        ColSel::Acc(s) => self.acc[s] & window,
                    };
                    self.subarrays[w.subarray].update_row(w.row, w.value, cols);
                }
                None
            }
            MicroOp::Read { subarray, row } => Some(self.subarrays[*subarray].row(*row)),
            MicroOp::Write {
                subarray,
                row,
                data,
                mask,
            } => {
                self.subarrays[*subarray].write_row(*row, *data, *mask & window);
                None
            }
            MicroOp::ReduceTags { subarray } => Some((self.tags[*subarray] & window).count_ones()),
            MicroOp::TagCombine { src, dst, op } => {
                let m = self.tags[*src];
                self.tags[*dst] = match op {
                    TagMode::Set => m,
                    TagMode::And => self.tags[*dst] & (m | !window),
                    TagMode::Or => self.tags[*dst] | (m & window),
                };
                None
            }
        }
    }

    fn accumulate(&mut self, subarray: usize, m: u32, dest: TagDest, mode: TagMode, window: u32) {
        let reg = match dest {
            TagDest::Tags => &mut self.tags[subarray],
            TagDest::Acc => &mut self.acc[subarray],
        };
        *reg = match mode {
            TagMode::Set => m,
            TagMode::And => *reg & (m | !window),
            TagMode::Or => *reg | m,
        };
    }

    /// Structural validation of the one-row-per-subarray update rule. The
    /// broadcast path validates once per program at plan lowering
    /// ([`crate::program::lower`]); the reference model checks every
    /// update it executes, in every build profile, so the oracle can
    /// never accept an op the broadcast path would reject.
    fn check_one_row_per_subarray(&self, writes: &[WriteSpec]) {
        let mut seen = 0u32;
        for w in writes {
            let bit = 1u32 << w.subarray;
            assert!(
                seen & bit == 0,
                "update writes two rows of subarray {}",
                w.subarray
            );
            seen |= bit;
        }
    }

    /// Deposits a 32-bit `value` into vector register `reg` at lane `col`,
    /// bit-slicing it across the 32 subarrays. This is the functional
    /// equivalent of a vector-load transfer into one lane (the VMU performs
    /// one such deposit per element of a sub-request, Section V-E).
    ///
    /// # Panics
    ///
    /// Panics if `reg >= 32` or `col >= 32`.
    pub fn write_element(&mut self, reg: usize, col: usize, value: u32) {
        assert!(reg < DATA_ROWS, "vector register {reg} out of range");
        for (i, sub) in self.subarrays.iter_mut().enumerate() {
            sub.set_bit(reg, col, (value >> i) & 1 == 1);
        }
    }

    /// Reads back the 32-bit element of register `reg` at lane `col`.
    ///
    /// # Panics
    ///
    /// Panics if `reg >= 32` or `col >= 32`.
    pub fn read_element(&self, reg: usize, col: usize) -> u32 {
        assert!(reg < DATA_ROWS, "vector register {reg} out of range");
        let mut v = 0u32;
        for (i, sub) in self.subarrays.iter().enumerate() {
            if sub.bit(reg, col) {
                v |= 1 << i;
            }
        }
        v
    }

    /// Bulk-deposits up to 32 elements into vector register `reg`, one per
    /// lane, in a single pass: `values[col]` goes to lane `col` for every
    /// column selected by `col_mask`. The lane-major values are bit-sliced
    /// with one 32×32 [`transpose32`] and written as 32 masked row words —
    /// the wide-transfer path the VMU uses for vector loads (Section V-E)
    /// — instead of 1,024 single-bit pokes.
    ///
    /// # Panics
    ///
    /// Panics if `reg >= 32`.
    pub fn write_column_block(&mut self, reg: usize, values: &[u32; SUBARRAY_COLS], col_mask: u32) {
        assert!(reg < DATA_ROWS, "vector register {reg} out of range");
        let mut m = *values;
        transpose32(&mut m);
        for (i, sub) in self.subarrays.iter_mut().enumerate() {
            sub.write_row(reg, m[i], col_mask);
        }
    }

    /// Bulk-reads vector register `reg` across all 32 lanes: returns one
    /// value per column. Inverse of [`Chain::write_column_block`]; 32 row
    /// reads plus one transpose instead of a per-element, per-bit walk.
    ///
    /// # Panics
    ///
    /// Panics if `reg >= 32`.
    pub fn read_column_block(&self, reg: usize) -> [u32; SUBARRAY_COLS] {
        assert!(reg < DATA_ROWS, "vector register {reg} out of range");
        let mut m = [0u32; SUBARRAY_COLS];
        for (i, sub) in self.subarrays.iter().enumerate() {
            m[i] = sub.row(reg);
        }
        transpose32(&mut m);
        m
    }

    /// Convenience: builds a search probe for a single row of a single
    /// subarray.
    pub fn probe(subarray: usize, row: usize, want: bool) -> Probe {
        Probe::row(subarray, row, want)
    }
}

/// Broadcasts `ops` over scalar reference chains — the oracle every
/// broadcast path is differentially tested against.
///
/// Runs chain by chain, op by op, through [`Chain::execute`] under
/// `windows[c]` (the column mask chain `c` holds), skips power-gated
/// chains (window 0) entirely, and returns one summed popcount per
/// [`MicroOp::ReduceTags`], in op order — exactly what
/// [`Csb::execute_program`](crate::Csb::execute_program) returns for
/// the same ops on the same state.
///
/// # Panics
///
/// Panics if `chains` and `windows` differ in length, or on an op
/// [`Chain::execute`] rejects.
pub fn reference_sweep(chains: &mut [Chain], windows: &[u32], ops: &[MicroOp]) -> Vec<u64> {
    assert_eq!(chains.len(), windows.len(), "one window per chain");
    let is_reduce = |op: &MicroOp| matches!(op, MicroOp::ReduceTags { .. });
    let mut sums = vec![0u64; ops.iter().filter(|op| is_reduce(op)).count()];
    for (chain, &window) in chains.iter_mut().zip(windows) {
        if window == 0 {
            continue; // power-gated chain: never executes anything
        }
        let mut k = 0;
        for op in ops {
            let r = chain.execute(op, window);
            if is_reduce(op) {
                sums[k] += u64::from(r.expect("ReduceTags returns a count"));
                k += 1;
            }
        }
    }
    sums
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::microop::{ColSel, WriteSpec};

    fn search(probes: Vec<Probe>, mode: TagMode) -> MicroOp {
        MicroOp::Search {
            probes,
            gates: vec![],
            dest: TagDest::Tags,
            mode,
        }
    }

    #[test]
    fn element_roundtrip_bit_slices_across_subarrays() {
        let mut c = Chain::new();
        c.write_element(4, 7, 0xA5A5_0F0F);
        assert_eq!(c.read_element(4, 7), 0xA5A5_0F0F);
        // Bit 0 lives in subarray 0, bit 31 in subarray 31.
        assert!(c.subarray(0).bit(4, 7)); // LSB of 0x...0F is 1
        assert!(c.subarray(31).bit(4, 7)); // MSB of 0xA5.. is 1
        assert!(!c.subarray(4).bit(4, 7)); // bit 4 of 0x...0F is 0
    }

    #[test]
    fn search_sets_tags_within_window() {
        let mut c = Chain::new();
        c.write_element(1, 0, 1); // lane 0: bit 0 = 1
        c.write_element(1, 3, 1); // lane 3: bit 0 = 1
        let op = search(vec![Chain::probe(0, 1, true)], TagMode::Set);
        c.execute(&op, u32::MAX);
        assert_eq!(c.tags(0), 0b1001);
        // Restrict the window to lane 0 only.
        c.execute(&op, 0b0001);
        assert_eq!(c.tags(0), 0b0001);
    }

    #[test]
    fn search_into_accumulator_is_independent_of_tags() {
        let mut c = Chain::new();
        c.write_element(1, 2, 1);
        c.set_tags(0, 0b1000);
        let op = MicroOp::Search {
            probes: vec![Chain::probe(0, 1, true)],
            gates: vec![],
            dest: TagDest::Acc,
            mode: TagMode::Set,
        };
        c.execute(&op, u32::MAX);
        assert_eq!(c.acc(0), 0b0100);
        assert_eq!(c.tags(0), 0b1000); // untouched
    }

    #[test]
    fn gated_search_ands_the_gate_match() {
        let mut c = Chain::new();
        // Gate: subarray 9 row 0 == 1 holds in columns 0 and 2.
        c.subarray_mut(9).write_row(0, 0b101, u32::MAX);
        // Probe: subarray 1 row 2 == 1 holds in columns 1 and 2.
        c.subarray_mut(1).write_row(2, 0b110, u32::MAX);
        let op = MicroOp::Search {
            probes: vec![Chain::probe(1, 2, true)],
            gates: vec![Chain::probe(9, 0, true)],
            dest: TagDest::Tags,
            mode: TagMode::Set,
        };
        c.execute(&op, u32::MAX);
        assert_eq!(c.tags(1), 0b100);
    }

    #[test]
    fn tag_and_accumulation_ignores_masked_columns() {
        let mut c = Chain::new();
        c.set_tags(0, 0b1111);
        // Search that matches nothing, but only lane 0 is in the window:
        // lanes outside the window must keep their tag value.
        let op = search(vec![Chain::probe(0, 0, true)], TagMode::And);
        c.execute(&op, 0b0001);
        assert_eq!(c.tags(0), 0b1110);
    }

    #[test]
    fn update_own_tags_writes_only_tagged_columns() {
        let mut c = Chain::new();
        c.set_tags(2, 0b0110);
        let op = MicroOp::Update {
            writes: vec![WriteSpec {
                subarray: 2,
                row: 5,
                value: true,
                cols: ColSel::Tags(2),
            }],
        };
        c.execute(&op, u32::MAX);
        assert_eq!(c.subarray(2).row(5), 0b0110);
    }

    #[test]
    fn update_prev_tags_propagates_to_next_subarray() {
        // Fig. 5: tags of subarray i select the columns updated in i+1.
        let mut c = Chain::new();
        c.set_tags(3, 0b1010);
        let op = MicroOp::Update {
            writes: vec![WriteSpec {
                subarray: 4,
                row: crate::ROW_CARRY,
                value: true,
                cols: ColSel::Tags(3),
            }],
        };
        c.execute(&op, u32::MAX);
        assert_eq!(c.subarray(4).row(crate::ROW_CARRY), 0b1010);
    }

    #[test]
    fn dual_subarray_update_uses_pre_update_snapshot() {
        let mut c = Chain::new();
        c.set_tags(0, 0b0001);
        c.set_tags(1, 0b0010);
        let op = MicroOp::Update {
            writes: vec![
                WriteSpec {
                    subarray: 1,
                    row: 0,
                    value: true,
                    cols: ColSel::Tags(1),
                },
                WriteSpec {
                    subarray: 2,
                    row: 0,
                    value: true,
                    cols: ColSel::Tags(1),
                },
            ],
        };
        c.execute(&op, u32::MAX);
        assert_eq!(c.subarray(1).row(0), 0b0010);
        assert_eq!(c.subarray(2).row(0), 0b0010);
    }

    #[test]
    fn tag_combine_folds_neighbouring_tags() {
        let mut c = Chain::new();
        c.set_tags(0, 0b0110);
        c.set_tags(1, 0b0011);
        c.execute(
            &MicroOp::TagCombine {
                src: 0,
                dst: 1,
                op: TagMode::And,
            },
            u32::MAX,
        );
        assert_eq!(c.tags(1), 0b0010);
        c.set_tags(2, 0b1000);
        c.execute(
            &MicroOp::TagCombine {
                src: 1,
                dst: 2,
                op: TagMode::Or,
            },
            u32::MAX,
        );
        assert_eq!(c.tags(2), 0b1010);
        c.execute(
            &MicroOp::TagCombine {
                src: 0,
                dst: 3,
                op: TagMode::Set,
            },
            u32::MAX,
        );
        assert_eq!(c.tags(3), 0b0110);
    }

    #[test]
    fn reduce_tags_counts_within_window() {
        let mut c = Chain::new();
        c.set_tags(7, 0b1111_0000);
        let op = MicroOp::ReduceTags { subarray: 7 };
        assert_eq!(c.clone().execute(&op, u32::MAX), Some(4));
        assert_eq!(c.execute(&op, 0b0011_0000), Some(2));
    }

    #[test]
    fn read_returns_row_write_respects_window() {
        let mut c = Chain::new();
        let w = MicroOp::Write {
            subarray: 3,
            row: 9,
            data: u32::MAX,
            mask: u32::MAX,
        };
        c.execute(&w, 0x0000_FFFF);
        assert_eq!(
            c.execute(
                &MicroOp::Read {
                    subarray: 3,
                    row: 9
                },
                u32::MAX
            ),
            Some(0x0000_FFFF)
        );
    }

    #[test]
    fn column_block_matches_per_element_path() {
        let mut bulk = Chain::new();
        let mut serial = Chain::new();
        let mut vals = [0u32; SUBARRAY_COLS];
        let mut x: u32 = 0xC0FF_EE01;
        for v in vals.iter_mut() {
            x = x.wrapping_mul(0x9E37_79B9).rotate_left(13);
            *v = x;
        }
        bulk.write_column_block(6, &vals, u32::MAX);
        for (col, &v) in vals.iter().enumerate() {
            serial.write_element(6, col, v);
        }
        assert_eq!(bulk, serial);
        assert_eq!(bulk.read_column_block(6), vals);
    }

    #[test]
    fn masked_column_block_preserves_unselected_lanes() {
        let mut c = Chain::new();
        for col in 0..Chain::LANES {
            c.write_element(2, col, 0xDEAD_0000 | col as u32);
        }
        let vals = [0x1234_5678u32; SUBARRAY_COLS];
        c.write_column_block(2, &vals, 0x0000_00F0); // lanes 4..8 only
        for col in 0..Chain::LANES {
            let want = if (4..8).contains(&col) {
                0x1234_5678
            } else {
                0xDEAD_0000 | col as u32
            };
            assert_eq!(c.read_element(2, col), want, "lane {col}");
        }
    }

    #[test]
    #[should_panic(expected = "two rows of subarray")]
    fn update_rejects_two_rows_in_one_subarray() {
        let mut c = Chain::new();
        let op = MicroOp::Update {
            writes: vec![
                WriteSpec {
                    subarray: 1,
                    row: 0,
                    value: true,
                    cols: ColSel::Window,
                },
                WriteSpec {
                    subarray: 1,
                    row: 1,
                    value: true,
                    cols: ColSel::Window,
                },
            ],
        };
        c.execute(&op, u32::MAX);
    }
}
