//! The four CSB microoperations (plus reduction), as broadcast commands.
//!
//! A [`MicroOp`] is the unit of work the Vector Control Unit distributes to
//! every chain over the 143-bit chain command bus (Fig. 7). All chains
//! execute the same microop in lockstep; per-chain behaviour differs only
//! through the active-window column mask and each chain's own stored data.
//!
//! Each subarray has **two** per-column match registers: the *tag bits*
//! and the *tag-bit accumulator* (both appear in the subarray periphery
//! list of Section VI-A, and the TTM carries an "accumulator enable" bit,
//! Section V-D). Having two registers lets an associative algorithm latch
//! two disjoint truth-table match groups before performing any update,
//! which avoids re-matching elements that an earlier update of the same
//! bit position already transformed.

use serde::{Deserialize, Serialize};

use crate::stats::MicroOpKind;

/// Which match register of a subarray a search latches into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TagDest {
    /// The primary tag bits (also the input of the reduction popcount).
    Tags,
    /// The tag-bit accumulator.
    Acc,
}

/// How a search result combines with the destination register's current
/// value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TagMode {
    /// Replace with the new match mask.
    Set,
    /// AND the new match mask in (used e.g. by `vmseq` to combine per-bit
    /// equality across subarrays).
    And,
    /// OR the new match mask in (used to merge several truth-table search
    /// patterns before a single update).
    Or,
}

/// Which columns an update writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ColSel {
    /// Every column inside the active window (an unconditional bulk write,
    /// e.g. clearing the carry row at the start of an instruction).
    Window,
    /// Columns whose *tag* bit is set in the given subarray. Selecting the
    /// tags of subarray `i` while writing subarray `i+1` is the
    /// inter-subarray propagation link of Fig. 5 (carry/borrow write).
    Tags(usize),
    /// Columns whose *accumulator* bit is set in the given subarray.
    Acc(usize),
}

impl ColSel {
    /// The subarray whose match register drives the column selection, if
    /// any.
    pub fn source_subarray(&self) -> Option<usize> {
        match self {
            ColSel::Window => None,
            ColSel::Tags(s) | ColSel::Acc(s) => Some(*s),
        }
    }
}

/// One subarray's contribution to a search: which rows to drive and with
/// which key bits. Rows not listed are "don't care".
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Probe {
    /// Subarray index within the chain (`0..32`).
    pub subarray: usize,
    /// `(row, expected_bit)` pairs; at most 4 per subarray.
    pub keys: Vec<(usize, bool)>,
}

impl Probe {
    /// Convenience constructor.
    pub fn new(subarray: usize, keys: Vec<(usize, bool)>) -> Self {
        Self { subarray, keys }
    }

    /// A probe for a single row.
    pub fn row(subarray: usize, row: usize, want: bool) -> Self {
        Self::new(subarray, vec![(row, want)])
    }
}

/// One subarray-row write performed by an update microop.
///
/// The hardware writes at most one row per subarray per update, but may
/// write rows in *two* subarrays simultaneously (e.g. the destination bit
/// in subarray `i` and the carry in subarray `i+1`, Table I discussion).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WriteSpec {
    /// Subarray index within the chain.
    pub subarray: usize,
    /// Row to write.
    pub row: usize,
    /// Bit value driven on the bitlines.
    pub value: bool,
    /// Column selection source.
    pub cols: ColSel,
}

/// A broadcast CSB command.
///
/// `Search`/`Update` pairs are the workhorses of associative computing;
/// `Read`/`Write` support element transfers and the memory-only modes;
/// `ReduceTags` feeds per-chain population counts into the global
/// reduction tree (Section IV-E); `TagCombine` moves match information
/// between neighbouring subarrays over the tag bus (used by the bit-serial
/// post-processing of `vmseq`, Table I discussion).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum MicroOp {
    /// Per-subarray searches, optionally gated by extra probes whose
    /// combined (ANDed) match is broadcast on the tag bus and ANDed into
    /// every probe's match (e.g. the multiplier bit `vs2[j]` during
    /// `vmul`, or the mask register during `vmerge`). Every probed
    /// subarray latches its own (gated) match into the selected register.
    Search {
        /// Per-subarray probes.
        probes: Vec<Probe>,
        /// Gate probes; their matches are ANDed into every probe's match.
        gates: Vec<Probe>,
        /// Destination match register.
        dest: TagDest,
        /// Accumulation mode.
        mode: TagMode,
    },
    /// Bulk update: write constant bits into at most one row per subarray,
    /// at columns chosen by each write's [`ColSel`].
    Update {
        /// Per-subarray row writes (at most one row per subarray).
        writes: Vec<WriteSpec>,
    },
    /// Single-row read of one subarray (returns the row's column bits).
    Read {
        /// Subarray index.
        subarray: usize,
        /// Row index.
        row: usize,
    },
    /// Single-row write with explicit per-column data.
    Write {
        /// Subarray index.
        subarray: usize,
        /// Row index.
        row: usize,
        /// Data bits, one per column.
        data: u32,
        /// Column write mask.
        mask: u32,
    },
    /// Population count of one subarray's tag bits (within the active
    /// window), to be summed by the global reduction tree.
    ReduceTags {
        /// Subarray whose tags are counted.
        subarray: usize,
    },
    /// Combine the tags of `src` into the tags of `dst` over the tag bus:
    /// `tags[dst] = tags[dst] <op> tags[src]`.
    TagCombine {
        /// Source subarray.
        src: usize,
        /// Destination subarray.
        dst: usize,
        /// Combination operator (`And` or `Or`; `Set` copies).
        op: TagMode,
    },
}

impl MicroOp {
    /// Number of distinct subarrays this op activates, used by the energy
    /// model to distinguish bit-serial (1–2 subarrays) from bit-parallel
    /// (many subarrays) flavours (Table II).
    pub fn active_subarrays(&self) -> usize {
        match self {
            MicroOp::Search { probes, gates, .. } => probes.len() + gates.len(),
            MicroOp::Update { writes } => writes.len(),
            MicroOp::Read { .. } | MicroOp::Write { .. } | MicroOp::ReduceTags { .. } => 1,
            MicroOp::TagCombine { .. } => 2,
        }
    }

    /// True when the op touches many subarrays — the paper's bit-parallel
    /// flavour. Bit-serial truth-table steps touch at most two subarrays
    /// plus up to two gate probes (`vmul`'s multiplier bit), so the
    /// threshold sits above four.
    pub fn is_bit_parallel(&self) -> bool {
        self.active_subarrays() > 4
    }

    /// The statistics bucket this op is charged to, plus its
    /// bit-parallel flavour — the one classification shared by the CSB's
    /// live ledger ([`Csb::execute_program`](crate::Csb::execute_program)
    /// recording) and the static mirror
    /// ([`MicroProgram::stats`](crate::MicroProgram::stats)). Keeping a
    /// single source of truth is what lets a fusion window charge an
    /// instruction's modeled time and energy at issue while deferring its
    /// broadcast: the deferred ledger is equal by construction.
    pub fn classify(&self) -> (MicroOpKind, bool) {
        let kind = match self {
            MicroOp::Search { .. } => MicroOpKind::Search,
            MicroOp::Update { .. } if self.propagates() => MicroOpKind::UpdateWithPropagation,
            MicroOp::Update { .. } => MicroOpKind::Update,
            MicroOp::Read { .. } => MicroOpKind::Read,
            MicroOp::Write { .. } => MicroOpKind::Write,
            MicroOp::ReduceTags { .. } => MicroOpKind::Reduce,
            MicroOp::TagCombine { .. } => MicroOpKind::TagCombine,
        };
        (kind, self.is_bit_parallel())
    }

    /// True for updates whose column selection crosses subarrays (carry or
    /// borrow propagation over the Fig. 5 link).
    pub fn propagates(&self) -> bool {
        match self {
            MicroOp::Update { writes } => writes
                .iter()
                .any(|w| w.cols.source_subarray().is_some_and(|s| s != w.subarray)),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_subarray_counts() {
        let s = MicroOp::Search {
            probes: vec![Probe::row(0, 0, true), Probe::row(1, 1, false)],
            gates: vec![],
            dest: TagDest::Tags,
            mode: TagMode::Set,
        };
        assert_eq!(s.active_subarrays(), 2);
        assert!(!s.is_bit_parallel());

        let gated = MicroOp::Search {
            probes: vec![Probe::row(4, 0, true)],
            gates: vec![Probe::row(2, 1, true)],
            dest: TagDest::Tags,
            mode: TagMode::Set,
        };
        assert_eq!(gated.active_subarrays(), 2);

        let u = MicroOp::Update {
            writes: (0..32)
                .map(|i| WriteSpec {
                    subarray: i,
                    row: 0,
                    value: false,
                    cols: ColSel::Window,
                })
                .collect(),
        };
        assert_eq!(u.active_subarrays(), 32);
        assert!(u.is_bit_parallel());
    }

    #[test]
    fn propagation_detection() {
        let same = MicroOp::Update {
            writes: vec![WriteSpec {
                subarray: 3,
                row: 0,
                value: true,
                cols: ColSel::Tags(3),
            }],
        };
        assert!(!same.propagates());
        let prop = MicroOp::Update {
            writes: vec![WriteSpec {
                subarray: 4,
                row: 0,
                value: true,
                cols: ColSel::Tags(3),
            }],
        };
        assert!(prop.propagates());
        let window = MicroOp::Update {
            writes: vec![WriteSpec {
                subarray: 4,
                row: 0,
                value: true,
                cols: ColSel::Window,
            }],
        };
        assert!(!window.propagates());
    }

    #[test]
    fn reads_and_writes_are_single_subarray() {
        assert_eq!(
            MicroOp::Read {
                subarray: 3,
                row: 1
            }
            .active_subarrays(),
            1
        );
        assert_eq!(
            MicroOp::Write {
                subarray: 3,
                row: 1,
                data: 0,
                mask: 0
            }
            .active_subarrays(),
            1
        );
        assert_eq!(MicroOp::ReduceTags { subarray: 0 }.active_subarrays(), 1);
        assert_eq!(
            MicroOp::TagCombine {
                src: 0,
                dst: 1,
                op: TagMode::And
            }
            .active_subarrays(),
            2
        );
    }

    #[test]
    fn col_sel_source_subarray() {
        assert_eq!(ColSel::Window.source_subarray(), None);
        assert_eq!(ColSel::Tags(5).source_subarray(), Some(5));
        assert_eq!(ColSel::Acc(7).source_subarray(), Some(7));
    }
}
