//! Microop *programs*: the program-granularity unit of broadcast.
//!
//! A [`MicroProgram`] is the compiled form of one vector instruction — a
//! fixed microop sequence plus its *sync points*. A sync point is a
//! microop whose result leaves the chains ([`MicroOp::ReduceTags`] feeds
//! the global reduction tree, [`MicroOp::Read`] returns row data); every
//! other microop is chain-local, so a worker owning a subset of chains
//! can run the whole program without talking to anyone and surrender its
//! partial reduction sums at a single join. This is what lets
//! [`Csb::execute_program`](crate::Csb::execute_program) pay one
//! fan-out/fan-in per *instruction* instead of one per *microop*.

use std::sync::Arc;

use crate::geometry::SUBARRAYS_PER_CHAIN;
use crate::microop::{MicroOp, Probe, TagDest, TagMode, WriteSpec};
use crate::stats::MicroOpStats;
use crate::subarray::TOTAL_ROWS;

/// The kind of value a sync point produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncKind {
    /// A [`MicroOp::ReduceTags`] op: per-chain popcounts summed by the
    /// reduction tree into one scalar.
    Reduce,
    /// A [`MicroOp::Read`] op: per-chain row data (chain-local; consumers
    /// read chain state after the program completes).
    Read,
}

/// One result-producing microop inside a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncPoint {
    /// Index of the microop within the program.
    pub op_index: usize,
    /// What the op produces.
    pub kind: SyncKind,
}

/// A search probe lowered for the broadcast hot loop: key rows live in a
/// fixed inline array (no nested heap to chase per chain) and key polarity
/// is an XOR mask (`0` to match ones, `!0` to match zeros), so the match
/// loop is branchless: `m &= row ^ inv`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PlanProbe {
    pub subarray: u8,
    pub nkeys: u8,
    pub rows: [u8; 4],
    pub inv: [u32; 4],
}

/// A row write lowered to four bytes: `sel` picks the column source
/// (0 = window, 1 = `tags[src]`, 2 = `acc[src]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PlanWrite {
    pub subarray: u8,
    pub row: u8,
    pub sel: u8,
    pub src: u8,
    pub value: bool,
}

/// A microop lowered into the dense, pre-validated form the broadcast
/// executor runs. Structural checks (probe key counts, one row per
/// subarray per update, index ranges) happen once here, at compile time,
/// instead of once per chain per op in the fan-out. The dominant
/// bit-serial shapes — a single ungated probe, an update of one or two
/// rows — get inline variants so the hot loop touches no per-op heap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum PlanOp {
    /// One ungated probe (most bit-serial truth-table searches).
    SearchOne {
        probe: PlanProbe,
        dest: TagDest,
        mode: TagMode,
    },
    /// A fused truth-table step: one ungated search immediately followed
    /// by a one- or two-row update (`nwrites` ∈ {1, 2}) — the paper's TTM
    /// search-phase/update-phase pair issued as a single command. Produced
    /// by the peephole pass in [`MicroProgram::new`]; executing it is
    /// exactly the search followed by the update.
    Step {
        probe: PlanProbe,
        dest: TagDest,
        mode: TagMode,
        nwrites: u8,
        writes: [PlanWrite; 2],
    },
    /// General search: several probes and/or gate probes.
    Search {
        probes: Box<[PlanProbe]>,
        gates: Box<[PlanProbe]>,
        dest: TagDest,
        mode: TagMode,
    },
    /// Single-row update (e.g. a carry write).
    UpdateOne {
        write: PlanWrite,
    },
    /// Two-row update (e.g. result bit + carry propagation).
    UpdateTwo {
        writes: [PlanWrite; 2],
    },
    /// General update (bit-parallel clears/copies touching many subarrays).
    Update {
        writes: Box<[PlanWrite]>,
    },
    Read {
        subarray: u8,
        row: u8,
    },
    Write {
        subarray: u8,
        row: u8,
        data: u32,
        mask: u32,
    },
    ReduceTags {
        subarray: u8,
    },
    TagCombine {
        src: u8,
        dst: u8,
        op: TagMode,
    },
}

fn lower_probe(p: &Probe) -> PlanProbe {
    assert!(
        p.keys.len() <= 4,
        "hardware searches at most 4 rows, got {}",
        p.keys.len()
    );
    assert!(
        p.subarray < SUBARRAYS_PER_CHAIN,
        "subarray {} out of range",
        p.subarray
    );
    let mut rows = [0u8; 4];
    let mut inv = [0u32; 4];
    for (k, &(row, want)) in p.keys.iter().enumerate() {
        assert!(row < TOTAL_ROWS, "row {row} out of range");
        rows[k] = row as u8;
        inv[k] = if want { 0 } else { u32::MAX };
    }
    PlanProbe {
        subarray: p.subarray as u8,
        nkeys: p.keys.len() as u8,
        rows,
        inv,
    }
}

fn lower_write(w: &WriteSpec) -> PlanWrite {
    assert!(
        w.subarray < SUBARRAYS_PER_CHAIN,
        "subarray {} out of range",
        w.subarray
    );
    assert!(w.row < TOTAL_ROWS, "row {} out of range", w.row);
    let (sel, src) = match w.cols {
        crate::microop::ColSel::Window => (0u8, 0usize),
        crate::microop::ColSel::Tags(s) => (1, s),
        crate::microop::ColSel::Acc(s) => (2, s),
    };
    assert!(src < SUBARRAYS_PER_CHAIN, "subarray {src} out of range");
    PlanWrite {
        subarray: w.subarray as u8,
        row: w.row as u8,
        sel,
        src: src as u8,
        value: w.value,
    }
}

fn check_index(i: usize) -> u8 {
    assert!(i < SUBARRAYS_PER_CHAIN, "subarray {i} out of range");
    i as u8
}

/// Peephole pass: fuses each single-probe search with a directly
/// following small update into one [`PlanOp::Step`]. Neither fused op
/// produces a result, so running both under a single dispatch is
/// observationally identical — it just halves the op-loop overhead on the
/// dominant search/update alternation of bit-serial arithmetic.
fn fuse_steps(plan: Vec<PlanOp>) -> Vec<PlanOp> {
    let mut out: Vec<PlanOp> = Vec::with_capacity(plan.len());
    for op in plan {
        let fused = match (out.last(), &op) {
            (Some(PlanOp::SearchOne { .. }), PlanOp::UpdateOne { write }) => Some((
                1u8,
                [
                    *write,
                    PlanWrite {
                        subarray: 0,
                        row: 0,
                        sel: 0,
                        src: 0,
                        value: false,
                    },
                ],
            )),
            (Some(PlanOp::SearchOne { .. }), PlanOp::UpdateTwo { writes }) => Some((2, *writes)),
            _ => None,
        };
        match fused {
            Some((nwrites, writes)) => {
                let Some(PlanOp::SearchOne { probe, dest, mode }) = out.pop() else {
                    unreachable!("guard matched SearchOne")
                };
                out.push(PlanOp::Step {
                    probe,
                    dest,
                    mode,
                    nwrites,
                    writes,
                });
            }
            None => out.push(op),
        }
    }
    out
}

/// Collapses *adjacent identical* [`PlanOp::TagCombine`]s, which show up
/// at fusion-window seams when one instruction ends and the next begins
/// with the same tag-bus transfer. All three modes are idempotent —
/// `Set` re-copies the unchanged source, `And`/`Or` re-apply an absorbed
/// mask — and nothing executes between adjacent plan ops, so dropping
/// the repeat is observationally identical.
fn dedup_tag_combines(plan: Vec<PlanOp>) -> Vec<PlanOp> {
    let mut out: Vec<PlanOp> = Vec::with_capacity(plan.len());
    for op in plan {
        if let (
            Some(PlanOp::TagCombine {
                src: a,
                dst: b,
                op: m,
            }),
            PlanOp::TagCombine { src, dst, op: mode },
        ) = (out.last(), &op)
        {
            if a == src && b == dst && m == mode {
                continue;
            }
        }
        out.push(op);
    }
    out
}

/// Row-granular dead-store elimination across a fusion window.
///
/// A row write whose every written column is overwritten by a later write
/// in the same window — with nothing reading the row in between — cannot
/// affect final row state, and final state is the only thing the next
/// window (or the golden fault replay, which compares end states) can
/// observe. Coverage is decidable statically because every write's column
/// set is a subset of the active window (`plan_write` masks tag/acc
/// selectors with `win`; `PlanOp::Write` masks with `mask & win`) and the
/// window cannot change inside a program (`vsetvli` is a fusion barrier):
/// a later `ColSel::Window` write (`sel == 0`), or a raw row write with a
/// full mask, covers *any* earlier write to the same `(subarray, row)`.
///
/// Walks the plan backwards with a per-row "covered" latch; probe key
/// rows, gate rows and `PlanOp::Read`s clear the latch. Covered writes
/// inside a fused [`PlanOp::Step`] are stripped down to the surviving
/// search half. The op list (and thus recorded stats, sync points, and
/// modeled cycles/energy) is untouched — this shrinks host broadcast
/// work only.
fn dead_store_eliminate(plan: Vec<PlanOp>) -> Vec<PlanOp> {
    let mut covered = [[false; TOTAL_ROWS]; SUBARRAYS_PER_CHAIN];
    fn uncover(covered: &mut [[bool; TOTAL_ROWS]; SUBARRAYS_PER_CHAIN], p: &PlanProbe) {
        for k in 0..p.nkeys as usize {
            covered[p.subarray as usize][p.rows[k] as usize] = false;
        }
    }
    /// Reverse-order visit of one write: `None` when it is dead, `Some`
    /// when it survives (latching coverage if it is a full-window write).
    fn visit(
        covered: &mut [[bool; TOTAL_ROWS]; SUBARRAYS_PER_CHAIN],
        w: PlanWrite,
    ) -> Option<PlanWrite> {
        let cell = &mut covered[w.subarray as usize][w.row as usize];
        if *cell {
            return None;
        }
        if w.sel == 0 {
            *cell = true;
        }
        Some(w)
    }
    let mut kept: Vec<PlanOp> = Vec::with_capacity(plan.len());
    for op in plan.into_iter().rev() {
        match op {
            PlanOp::UpdateOne { write } => {
                if let Some(w) = visit(&mut covered, write) {
                    kept.push(PlanOp::UpdateOne { write: w });
                }
            }
            PlanOp::UpdateTwo { writes } => {
                // Later-executing write first (backward scan).
                let b = visit(&mut covered, writes[1]);
                let a = visit(&mut covered, writes[0]);
                match (a, b) {
                    (Some(a), Some(b)) => kept.push(PlanOp::UpdateTwo { writes: [a, b] }),
                    (Some(w), None) | (None, Some(w)) => kept.push(PlanOp::UpdateOne { write: w }),
                    (None, None) => {}
                }
            }
            PlanOp::Update { writes } => {
                let mut survivors: Vec<PlanWrite> = writes
                    .iter()
                    .rev()
                    .filter_map(|w| visit(&mut covered, *w))
                    .collect();
                survivors.reverse();
                match survivors.as_slice() {
                    [] => {}
                    [w] => kept.push(PlanOp::UpdateOne { write: *w }),
                    [a, b] => kept.push(PlanOp::UpdateTwo { writes: [*a, *b] }),
                    _ => kept.push(PlanOp::Update {
                        writes: survivors.into_boxed_slice(),
                    }),
                }
            }
            PlanOp::Write {
                subarray,
                row,
                data,
                mask,
            } => {
                let cell = &mut covered[subarray as usize][row as usize];
                if !*cell {
                    if mask == u32::MAX {
                        *cell = true;
                    }
                    kept.push(PlanOp::Write {
                        subarray,
                        row,
                        data,
                        mask,
                    });
                }
            }
            PlanOp::Step {
                probe,
                dest,
                mode,
                nwrites,
                writes,
            } => {
                // The step's writes execute after its search: visit them
                // first, then let the probe's key rows clear coverage.
                let b = (nwrites == 2)
                    .then(|| visit(&mut covered, writes[1]))
                    .flatten();
                let a = visit(&mut covered, writes[0]);
                uncover(&mut covered, &probe);
                let mut surviving = [writes[0]; 2];
                let mut n = 0u8;
                for w in [a, b].into_iter().flatten() {
                    surviving[n as usize] = w;
                    n += 1;
                }
                if n == 0 {
                    kept.push(PlanOp::SearchOne { probe, dest, mode });
                } else {
                    kept.push(PlanOp::Step {
                        probe,
                        dest,
                        mode,
                        nwrites: n,
                        writes: surviving,
                    });
                }
            }
            PlanOp::SearchOne { probe, dest, mode } => {
                uncover(&mut covered, &probe);
                kept.push(PlanOp::SearchOne { probe, dest, mode });
            }
            PlanOp::Search {
                probes,
                gates,
                dest,
                mode,
            } => {
                for p in probes.iter().chain(gates.iter()) {
                    uncover(&mut covered, p);
                }
                kept.push(PlanOp::Search {
                    probes,
                    gates,
                    dest,
                    mode,
                });
            }
            PlanOp::Read { subarray, row } => {
                covered[subarray as usize][row as usize] = false;
                kept.push(PlanOp::Read { subarray, row });
            }
            other @ (PlanOp::ReduceTags { .. } | PlanOp::TagCombine { .. }) => kept.push(other),
        }
    }
    kept.reverse();
    kept
}

/// The cross-op peephole pipeline a fusion window's plan runs through
/// (on top of the seam-crossing [`fuse_steps`] that
/// [`MicroProgram::new`] already applies to the concatenated op list).
fn optimize_window_plan(plan: Vec<PlanOp>) -> Vec<PlanOp> {
    dead_store_eliminate(dedup_tag_combines(plan))
}

/// The v2 window-compiler pipeline: `TagCombine` dedup followed by the
/// liveness-cascading dead-store pass that also retires dead *match*
/// stores ([`dead_store_eliminate_tagged`]). Runs over the scheduled
/// part order, where co-writer clustering exposes the most coverage.
fn optimize_window_plan_scheduled(plan: Vec<PlanOp>) -> Vec<PlanOp> {
    dead_store_eliminate_tagged(dedup_tag_combines(plan))
}

/// Stores a plan performs: row writes (`PlanWrite`s and raw
/// [`PlanOp::Write`]s), search match stores (one per probe — the tag/acc
/// latch), and tag-bus transfers. The peephole passes only ever remove
/// stores, so the before/after difference of this count is the window's
/// `dead_stores_eliminated` ledger. `fuse_steps` merges ops without
/// dropping stores, so the count is invariant under step fusion — and
/// the multiset of stores is order-independent, so the issue-order and
/// scheduled pre-optimization plans count identically.
fn store_count(plan: &[PlanOp]) -> usize {
    plan.iter()
        .map(|op| match op {
            PlanOp::SearchOne { .. } => 1,
            PlanOp::Step { nwrites, .. } => 1 + *nwrites as usize,
            PlanOp::Search { probes, .. } => probes.len(),
            PlanOp::UpdateOne { .. } => 1,
            PlanOp::UpdateTwo { .. } => 2,
            PlanOp::Update { writes } => writes.len(),
            PlanOp::Write { .. } => 1,
            PlanOp::TagCombine { .. } => 1,
            PlanOp::Read { .. } | PlanOp::ReduceTags { .. } => 0,
        })
        .sum()
}

/// Backward liveness over the three per-subarray register files the
/// window can observe: row cells, tags, and accumulators. A register is
/// *covered* when a later op in the window fully rewrites its active
/// lanes with nothing reading it in between.
struct Liveness {
    rows: [[bool; TOTAL_ROWS]; SUBARRAYS_PER_CHAIN],
    tags: [bool; SUBARRAYS_PER_CHAIN],
    acc: [bool; SUBARRAYS_PER_CHAIN],
}

impl Liveness {
    fn new() -> Self {
        Self {
            rows: [[false; TOTAL_ROWS]; SUBARRAYS_PER_CHAIN],
            tags: [false; SUBARRAYS_PER_CHAIN],
            acc: [false; SUBARRAYS_PER_CHAIN],
        }
    }

    fn reg_mut(&mut self, dest: TagDest, sub: u8) -> &mut bool {
        match dest {
            TagDest::Tags => &mut self.tags[sub as usize],
            TagDest::Acc => &mut self.acc[sub as usize],
        }
    }

    fn uncover_probe(&mut self, p: &PlanProbe) {
        for k in 0..p.nkeys as usize {
            self.rows[p.subarray as usize][p.rows[k] as usize] = false;
        }
    }

    /// Reverse-order visit of one row write: `None` when covered. A kept
    /// tag/acc-selected write reads its source register, pinning earlier
    /// match stores to it.
    fn visit_write(&mut self, w: PlanWrite) -> Option<PlanWrite> {
        let cell = &mut self.rows[w.subarray as usize][w.row as usize];
        if *cell {
            return None;
        }
        match w.sel {
            0 => *cell = true,
            1 => self.tags[w.src as usize] = false,
            _ => self.acc[w.src as usize] = false,
        }
        Some(w)
    }

    /// Reverse-order visit of one search's match store into
    /// `dest[sub]`. Returns `true` when the store is dead: a later op
    /// fully rewrites the register's active lanes and nothing read it in
    /// between — every tag/acc mutation is confined to active lanes, so
    /// final register state is unaffected. A surviving `Set` store
    /// covers earlier stores; surviving `And`/`Or` stores read the
    /// register they blend into.
    fn visit_store(&mut self, dest: TagDest, mode: TagMode, sub: u8) -> bool {
        let reg = self.reg_mut(dest, sub);
        if *reg {
            return true;
        }
        *reg = mode == TagMode::Set;
        false
    }
}

/// The v2 dead-store pass: row-granular elimination (as
/// [`dead_store_eliminate`]) extended with tag/accumulator liveness, so
/// it also retires dead *match* stores — and, by dropping them, the
/// probe reads they performed, letting row coverage cascade through
/// searches the PR 9 pass had to treat as barriers.
///
/// Soundness rests on the same window invariant as the row pass: the
/// active window cannot change inside a fused program, every tag/acc
/// mutation (`Set` latch, `And`/`Or` blend) touches active lanes only,
/// and a later `Set`-mode store fully determines those lanes. A search
/// whose only effect is a covered match store therefore cannot affect
/// any final register file and is dropped whole; a [`PlanOp::Step`]
/// whose match store is covered but whose row writes survive demotes to
/// the bare update, and vice versa.
fn dead_store_eliminate_tagged(plan: Vec<PlanOp>) -> Vec<PlanOp> {
    let mut live = Liveness::new();
    let mut kept: Vec<PlanOp> = Vec::with_capacity(plan.len());
    for op in plan.into_iter().rev() {
        match op {
            PlanOp::UpdateOne { write } => {
                if let Some(w) = live.visit_write(write) {
                    kept.push(PlanOp::UpdateOne { write: w });
                }
            }
            PlanOp::UpdateTwo { writes } => {
                let b = live.visit_write(writes[1]);
                let a = live.visit_write(writes[0]);
                match (a, b) {
                    (Some(a), Some(b)) => kept.push(PlanOp::UpdateTwo { writes: [a, b] }),
                    (Some(w), None) | (None, Some(w)) => kept.push(PlanOp::UpdateOne { write: w }),
                    (None, None) => {}
                }
            }
            PlanOp::Update { writes } => {
                let mut survivors: Vec<PlanWrite> = writes
                    .iter()
                    .rev()
                    .filter_map(|w| live.visit_write(*w))
                    .collect();
                survivors.reverse();
                match survivors.as_slice() {
                    [] => {}
                    [w] => kept.push(PlanOp::UpdateOne { write: *w }),
                    [a, b] => kept.push(PlanOp::UpdateTwo { writes: [*a, *b] }),
                    _ => kept.push(PlanOp::Update {
                        writes: survivors.into_boxed_slice(),
                    }),
                }
            }
            PlanOp::Write {
                subarray,
                row,
                data,
                mask,
            } => {
                let cell = &mut live.rows[subarray as usize][row as usize];
                if !*cell {
                    if mask == u32::MAX {
                        *cell = true;
                    }
                    kept.push(PlanOp::Write {
                        subarray,
                        row,
                        data,
                        mask,
                    });
                }
            }
            PlanOp::Step {
                probe,
                dest,
                mode,
                nwrites,
                writes,
            } => {
                // Temporal order inside a step is search, then writes:
                // visit the writes first (they may read the tags the
                // search itself latched, pinning it), then the match
                // store, then the probe's key-row reads.
                let b = (nwrites == 2)
                    .then(|| live.visit_write(writes[1]))
                    .flatten();
                let a = live.visit_write(writes[0]);
                let store_dead = live.visit_store(dest, mode, probe.subarray);
                let mut surviving = [writes[0]; 2];
                let mut n = 0u8;
                for w in [a, b].into_iter().flatten() {
                    surviving[n as usize] = w;
                    n += 1;
                }
                match (store_dead, n) {
                    (true, 0) => {}
                    (true, 1) => kept.push(PlanOp::UpdateOne {
                        write: surviving[0],
                    }),
                    (true, _) => kept.push(PlanOp::UpdateTwo { writes: surviving }),
                    (false, 0) => {
                        live.uncover_probe(&probe);
                        kept.push(PlanOp::SearchOne { probe, dest, mode });
                    }
                    (false, n) => {
                        live.uncover_probe(&probe);
                        kept.push(PlanOp::Step {
                            probe,
                            dest,
                            mode,
                            nwrites: n,
                            writes: surviving,
                        });
                    }
                }
            }
            PlanOp::SearchOne { probe, dest, mode } => {
                if !live.visit_store(dest, mode, probe.subarray) {
                    live.uncover_probe(&probe);
                    kept.push(PlanOp::SearchOne { probe, dest, mode });
                }
            }
            PlanOp::Search {
                probes,
                gates,
                dest,
                mode,
            } => {
                // Per-probe match stores land in the probe's own
                // subarray; the op is dead only when every one is
                // covered. A kept op executes all of them, so visit
                // each (latching `Set` coverage, unpinning `And`/`Or`
                // reads) and then uncover every probed row.
                let all_dead = probes.iter().all(|p| *live.reg_mut(dest, p.subarray));
                if all_dead {
                    continue;
                }
                for p in probes.iter() {
                    live.visit_store(dest, mode, p.subarray);
                }
                for p in probes.iter().chain(gates.iter()) {
                    live.uncover_probe(p);
                }
                kept.push(PlanOp::Search {
                    probes,
                    gates,
                    dest,
                    mode,
                });
            }
            PlanOp::Read { subarray, row } => {
                live.rows[subarray as usize][row as usize] = false;
                kept.push(PlanOp::Read { subarray, row });
            }
            PlanOp::ReduceTags { subarray } => {
                live.tags[subarray as usize] = false;
                kept.push(PlanOp::ReduceTags { subarray });
            }
            PlanOp::TagCombine { src, dst, op } => {
                if live.tags[dst as usize] {
                    continue;
                }
                live.tags[dst as usize] = op == TagMode::Set;
                live.tags[src as usize] = false;
                kept.push(PlanOp::TagCombine { src, dst, op });
            }
        }
    }
    kept.reverse();
    kept
}

/// Lowers one microop, running its structural validation once.
pub(crate) fn lower(op: &MicroOp) -> PlanOp {
    match op {
        MicroOp::Search {
            probes,
            gates,
            dest,
            mode,
        } => {
            if gates.is_empty() && probes.len() == 1 {
                PlanOp::SearchOne {
                    probe: lower_probe(&probes[0]),
                    dest: *dest,
                    mode: *mode,
                }
            } else {
                PlanOp::Search {
                    probes: probes.iter().map(lower_probe).collect(),
                    gates: gates.iter().map(lower_probe).collect(),
                    dest: *dest,
                    mode: *mode,
                }
            }
        }
        MicroOp::Update { writes } => {
            let mut seen = 0u32;
            for w in writes {
                assert!(
                    w.subarray < SUBARRAYS_PER_CHAIN,
                    "subarray {} out of range",
                    w.subarray
                );
                let bit = 1u32 << w.subarray;
                assert!(
                    seen & bit == 0,
                    "update writes two rows of subarray {}",
                    w.subarray
                );
                seen |= bit;
            }
            match writes.as_slice() {
                [w] => PlanOp::UpdateOne {
                    write: lower_write(w),
                },
                [a, b] => PlanOp::UpdateTwo {
                    writes: [lower_write(a), lower_write(b)],
                },
                ws => PlanOp::Update {
                    writes: ws.iter().map(lower_write).collect(),
                },
            }
        }
        MicroOp::Read { subarray, row } => {
            assert!(*row < TOTAL_ROWS, "row {row} out of range");
            PlanOp::Read {
                subarray: check_index(*subarray),
                row: *row as u8,
            }
        }
        MicroOp::Write {
            subarray,
            row,
            data,
            mask,
        } => {
            assert!(*row < TOTAL_ROWS, "row {row} out of range");
            PlanOp::Write {
                subarray: check_index(*subarray),
                row: *row as u8,
                data: *data,
                mask: *mask,
            }
        }
        MicroOp::ReduceTags { subarray } => PlanOp::ReduceTags {
            subarray: check_index(*subarray),
        },
        MicroOp::TagCombine { src, dst, op } => PlanOp::TagCombine {
            src: check_index(*src),
            dst: check_index(*dst),
            op: *op,
        },
    }
}

/// A compiled, immutable microop sequence executed as one broadcast unit.
///
/// The op list (and its lowered broadcast plan) is reference-counted so a
/// cached program can be handed to every pool worker without deep-copying
/// microops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MicroProgram {
    ops: Arc<Vec<MicroOp>>,
    plan: Arc<Vec<PlanOp>>,
    sync_points: Vec<SyncPoint>,
    /// Stores the window peephole passes removed from the broadcast
    /// plan relative to plain concatenation — compile-time metadata, so
    /// cached windows keep reporting their win on every execution.
    dead_stores: u32,
}

impl MicroProgram {
    /// Wraps an op sequence, locating its sync points and lowering the ops
    /// into the dense plan the broadcast executor runs.
    pub fn new(ops: Vec<MicroOp>) -> Self {
        let sync_points = ops
            .iter()
            .enumerate()
            .filter_map(|(i, op)| match op {
                MicroOp::ReduceTags { .. } => Some(SyncPoint {
                    op_index: i,
                    kind: SyncKind::Reduce,
                }),
                MicroOp::Read { .. } => Some(SyncPoint {
                    op_index: i,
                    kind: SyncKind::Read,
                }),
                _ => None,
            })
            .collect();
        let plan = fuse_steps(ops.iter().map(lower).collect());
        Self {
            ops: Arc::new(ops),
            plan: Arc::new(plan),
            sync_points,
            dead_stores: 0,
        }
    }

    /// Compiles a *fusion window*: several instructions' programs
    /// concatenated into one broadcast unit executed with a single
    /// fan-out/fan-in. [`MicroProgram::new`] over the concatenated op
    /// list gives the seam-crossing `fuse_steps` for free (an op ending
    /// in a search fuses with a successor's opening update); the window
    /// plan then runs the cross-op peephole passes — adjacent
    /// [`MicroOp::TagCombine`] dedup and row-granular dead-store
    /// elimination (an intermediate `vd` fully rewritten later in the
    /// window, unread in between, is never materialized).
    ///
    /// The *op* list is the unoptimized concatenation, so recorded
    /// [`MicroOpStats`] — and everything derived from them (modeled
    /// cycles, energy, the golden fault replay) — are identical to
    /// running the parts one at a time; only the host broadcast plan
    /// shrinks.
    pub fn windowed(parts: &[&MicroProgram]) -> Self {
        Self::windowed_inner(parts, false)
    }

    /// Compiles a fusion window through the v2 pipeline: summarize each
    /// part's architectural footprint, build the RAW/WAR/WAW dependence
    /// graph over subarray row cells, tags and accumulators, and
    /// list-schedule independent parts so co-writers cluster
    /// (`schedule.rs`). The scheduled per-part plans are then
    /// re-fused across the *new* seams and run through the upgraded
    /// peepholes (`TagCombine` dedup plus the liveness-cascading
    /// dead-store pass that also retires dead match stores).
    ///
    /// Exactly like [`Self::windowed`], the op list stays the
    /// issue-order concatenation: stats, sync-point order, modeled
    /// cycles/energy and the golden fault replay are bit-identical to
    /// per-op execution — only the host broadcast plan is rescheduled.
    pub fn windowed_scheduled(parts: &[&MicroProgram]) -> Self {
        Self::windowed_inner(parts, true)
    }

    fn windowed_inner(parts: &[&MicroProgram], reorder: bool) -> Self {
        let ops: Vec<MicroOp> = parts.iter().flat_map(|p| p.ops().iter().cloned()).collect();
        let mut fused = Self::new(ops);
        let before = store_count(fused.plan.as_ref());
        let plan = if reorder {
            let access: Vec<crate::schedule::PlanAccess> = parts
                .iter()
                .map(|p| crate::schedule::PlanAccess::of(p.plan()))
                .collect();
            let order = crate::schedule::schedule(&access);
            let concatenated: Vec<PlanOp> = order
                .iter()
                .flat_map(|&i| parts[i].plan().iter().cloned())
                .collect();
            optimize_window_plan_scheduled(fuse_steps(concatenated))
        } else {
            optimize_window_plan(fused.plan.as_ref().clone())
        };
        fused.dead_stores = (before - store_count(&plan)) as u32;
        fused.plan = Arc::new(plan);
        fused
    }

    /// Stores the window peephole passes eliminated from this program's
    /// broadcast plan (row writes, search match stores, tag-bus
    /// transfers) relative to plain per-op concatenation. Zero for
    /// single-instruction programs.
    pub fn dead_stores(&self) -> u32 {
        self.dead_stores
    }

    /// The microops in broadcast order.
    pub fn ops(&self) -> &[MicroOp] {
        &self.ops
    }

    /// The statistics ledger one broadcast of this program charges,
    /// computed statically from the op list (microop classification is
    /// data-independent). This is what lets an instruction's modeled
    /// time and energy be charged at issue while its broadcast is
    /// deferred into a fusion window: the deferred execution records
    /// exactly these stats.
    pub fn stats(&self) -> MicroOpStats {
        let mut s = MicroOpStats::new();
        for op in self.ops.iter() {
            let (kind, bp) = op.classify();
            s.record(kind, bp);
        }
        s
    }

    /// Number of microops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the program contains no microops (e.g. `vid.v`, which is
    /// modeled functionally).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The result-producing microops, in program order.
    pub fn sync_points(&self) -> &[SyncPoint] {
        &self.sync_points
    }

    /// Number of reduction sync points — the length of the sum vector
    /// [`Csb::execute_program`](crate::Csb::execute_program) returns.
    pub fn reduce_count(&self) -> usize {
        self.sync_points
            .iter()
            .filter(|s| s.kind == SyncKind::Reduce)
            .count()
    }

    /// Number of broadcast plan steps the host actually executes. Equal
    /// to [`Self::len`] minus the steps removed by `fuse_steps` and
    /// (for windows) the cross-op peephole passes — the observable size
    /// of the fusion win.
    pub fn plan_len(&self) -> usize {
        self.plan.len()
    }

    /// The lowered broadcast plan, op for op parallel to [`Self::ops`].
    pub(crate) fn plan(&self) -> &[PlanOp] {
        &self.plan
    }

    /// Shared handle to the lowered plan (cheap clone for pool workers).
    pub(crate) fn plan_arc(&self) -> Arc<Vec<PlanOp>> {
        Arc::clone(&self.plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::microop::{Probe, TagDest, TagMode};

    #[test]
    fn sync_points_locate_reduces_and_reads() {
        let prog = MicroProgram::new(vec![
            MicroOp::Search {
                probes: vec![Probe::row(0, 1, true)],
                gates: vec![],
                dest: TagDest::Tags,
                mode: TagMode::Set,
            },
            MicroOp::ReduceTags { subarray: 0 },
            MicroOp::Read {
                subarray: 0,
                row: 1,
            },
            MicroOp::ReduceTags { subarray: 1 },
        ]);
        assert_eq!(prog.len(), 4);
        assert_eq!(prog.reduce_count(), 2);
        assert_eq!(
            prog.sync_points(),
            &[
                SyncPoint {
                    op_index: 1,
                    kind: SyncKind::Reduce
                },
                SyncPoint {
                    op_index: 2,
                    kind: SyncKind::Read
                },
                SyncPoint {
                    op_index: 3,
                    kind: SyncKind::Reduce
                },
            ]
        );
    }

    #[test]
    fn empty_program() {
        let prog = MicroProgram::new(vec![]);
        assert!(prog.is_empty());
        assert_eq!(prog.reduce_count(), 0);
    }

    fn search1(sub: usize, row: usize) -> MicroOp {
        MicroOp::Search {
            probes: vec![Probe::row(sub, row, true)],
            gates: vec![],
            dest: TagDest::Tags,
            mode: TagMode::Set,
        }
    }

    fn upd1(sub: usize, row: usize, value: bool) -> MicroOp {
        MicroOp::Update {
            writes: vec![WriteSpec {
                subarray: sub,
                row,
                value,
                cols: crate::microop::ColSel::Window,
            }],
        }
    }

    #[test]
    fn windowed_fuses_steps_across_op_seams() {
        let a = MicroProgram::new(vec![search1(0, 1)]);
        let b = MicroProgram::new(vec![upd1(0, 2, true)]);
        assert!(matches!(a.plan()[0], PlanOp::SearchOne { .. }));
        assert!(matches!(b.plan()[0], PlanOp::UpdateOne { .. }));
        let fused = MicroProgram::windowed(&[&a, &b]);
        assert_eq!(fused.len(), 2, "op list is the plain concatenation");
        assert_eq!(fused.plan().len(), 1, "seam search+update fuse to a step");
        assert!(matches!(fused.plan()[0], PlanOp::Step { nwrites: 1, .. }));
    }

    #[test]
    fn windowed_collapses_adjacent_identical_tag_combines() {
        let tc = MicroOp::TagCombine {
            src: 3,
            dst: 4,
            op: TagMode::Or,
        };
        let a = MicroProgram::new(vec![tc.clone()]);
        let b = MicroProgram::new(vec![tc.clone(), tc]);
        let fused = MicroProgram::windowed(&[&a, &b]);
        assert_eq!(fused.len(), 3);
        assert_eq!(fused.plan().len(), 1, "idempotent transfer deduped");
    }

    #[test]
    fn windowed_eliminates_covered_dead_stores() {
        // Op k materializes (5, 3); op k+1 fully rewrites it with the
        // window unchanged and nothing reading it in between.
        let a = MicroProgram::new(vec![upd1(5, 3, true)]);
        let b = MicroProgram::new(vec![upd1(5, 3, false)]);
        let fused = MicroProgram::windowed(&[&a, &b]);
        assert_eq!(fused.len(), 2, "stats still charge both updates");
        assert_eq!(fused.plan().len(), 1, "first store is dead");
        assert!(
            matches!(fused.plan()[0], PlanOp::UpdateOne { write } if !write.value),
            "the surviving store is the later one"
        );
    }

    #[test]
    fn intervening_read_blocks_dead_store_elimination() {
        let a = MicroProgram::new(vec![
            upd1(5, 3, true),
            MicroOp::Read {
                subarray: 5,
                row: 3,
            },
        ]);
        let b = MicroProgram::new(vec![upd1(5, 3, false)]);
        let fused = MicroProgram::windowed(&[&a, &b]);
        assert_eq!(fused.plan().len(), 3, "read pins the earlier store");
    }

    #[test]
    fn intervening_probe_blocks_dead_store_elimination() {
        let a = MicroProgram::new(vec![upd1(5, 3, true)]);
        let probe = MicroProgram::new(vec![search1(5, 3)]);
        let b = MicroProgram::new(vec![upd1(5, 3, false)]);
        let fused = MicroProgram::windowed(&[&a, &probe, &b]);
        // The probe fuses with the trailing update into a step, but the
        // first store must survive: the search reads the row.
        let writes: usize = fused
            .plan()
            .iter()
            .map(|p| match p {
                PlanOp::UpdateOne { .. } => 1,
                PlanOp::Step { nwrites, .. } => *nwrites as usize,
                _ => 0,
            })
            .sum();
        assert_eq!(writes, 2, "both stores execute");
    }

    #[test]
    fn tag_selected_store_is_dead_under_full_window_rewrite() {
        let a = MicroProgram::new(vec![MicroOp::Update {
            writes: vec![WriteSpec {
                subarray: 7,
                row: 0,
                value: true,
                cols: crate::microop::ColSel::Tags(7),
            }],
        }]);
        let b = MicroProgram::new(vec![upd1(7, 0, false)]);
        let fused = MicroProgram::windowed(&[&a, &b]);
        assert_eq!(
            fused.plan().len(),
            1,
            "tag-selected columns are a subset of the window"
        );
    }

    #[test]
    fn scheduled_window_retires_orphaned_searches() {
        // Op A is a fused search/update step; op B kills A's row write
        // (full-window rewrite, nothing reading in between); op C's
        // `Set`-mode search overwrites A's match store. The PR 9 pass
        // strips A down to an orphaned search — the v2 liveness cascade
        // sees its match store is covered too and drops the whole step.
        let a = MicroProgram::new(vec![search1(5, 3), upd1(5, 4, true)]);
        let b = MicroProgram::new(vec![upd1(5, 4, false)]);
        let c = MicroProgram::new(vec![search1(5, 10)]);
        let refs = [&a, &b, &c];
        let v1 = MicroProgram::windowed(&refs);
        assert_eq!(v1.plan_len(), 3, "PR 9 pipeline keeps the orphan search");
        assert_eq!(v1.dead_stores(), 1);
        let v2 = MicroProgram::windowed_scheduled(&refs);
        assert_eq!(v2.plan_len(), 2, "cascade drops the orphaned search");
        assert_eq!(v2.dead_stores(), 2, "row write and match store retired");
        assert_eq!(v2.len(), 4, "op list stays the issue-order concatenation");
    }

    #[test]
    fn covered_tag_combine_is_dead_in_the_scheduled_pipeline() {
        // Two *different* Set-mode transfers into tags[9]: adjacency
        // dedup cannot touch them, but the later one fully rewrites the
        // destination with nothing reading it in between.
        let tc = |src: usize| MicroOp::TagCombine {
            src,
            dst: 9,
            op: TagMode::Set,
        };
        let a = MicroProgram::new(vec![tc(2)]);
        let b = MicroProgram::new(vec![tc(4)]);
        let v1 = MicroProgram::windowed(&[&a, &b]);
        assert_eq!(v1.plan_len(), 2, "PR 9 pipeline keeps both transfers");
        let v2 = MicroProgram::windowed_scheduled(&[&a, &b]);
        assert_eq!(v2.plan_len(), 1, "covered transfer retired");
        assert_eq!(v2.dead_stores(), 1);
    }

    #[test]
    fn reduce_pins_the_match_store_it_reads() {
        // search -> reduce -> search: the reduction reads tags[3], so
        // the first match store must survive the v2 pass.
        let parts = [
            MicroProgram::new(vec![search1(3, 1)]),
            MicroProgram::new(vec![MicroOp::ReduceTags { subarray: 3 }]),
            MicroProgram::new(vec![search1(3, 2)]),
        ];
        let refs: Vec<&MicroProgram> = parts.iter().collect();
        let v2 = MicroProgram::windowed_scheduled(&refs);
        assert_eq!(v2.plan_len(), 3, "reduce pins the earlier search");
        assert_eq!(v2.dead_stores(), 0);
    }

    #[test]
    fn tag_selected_write_pins_its_source_register() {
        // search Set tags[6], then a row write selecting tags[6], then a
        // covering search: the sel=1 write reads the first match store,
        // so only stores *after* the read may be treated as covered.
        let sel_write = MicroOp::Update {
            writes: vec![WriteSpec {
                subarray: 6,
                row: 8,
                value: true,
                cols: crate::microop::ColSel::Tags(6),
            }],
        };
        let parts = [
            MicroProgram::new(vec![search1(6, 1)]),
            MicroProgram::new(vec![sel_write]),
            MicroProgram::new(vec![search1(6, 2)]),
        ];
        let refs: Vec<&MicroProgram> = parts.iter().collect();
        let v2 = MicroProgram::windowed_scheduled(&refs);
        // Seam step-fusion merges the first search with the selected
        // write; the liveness pass must retire nothing, because that
        // write reads the match store the later search would otherwise
        // cover.
        assert_eq!(v2.dead_stores(), 0, "the selected write pins the search");
        assert_eq!(v2.plan_len(), 2);
    }

    #[test]
    fn single_instruction_programs_report_no_dead_stores() {
        let prog = MicroProgram::new(vec![search1(0, 1), upd1(0, 2, true)]);
        assert_eq!(prog.dead_stores(), 0);
    }

    #[test]
    fn static_stats_mirror_the_live_classification() {
        let prog = MicroProgram::new(vec![
            search1(0, 1),
            upd1(1, 2, true),
            MicroOp::Update {
                writes: vec![WriteSpec {
                    subarray: 2,
                    row: 0,
                    value: true,
                    cols: crate::microop::ColSel::Tags(1),
                }],
            },
            MicroOp::ReduceTags { subarray: 0 },
            MicroOp::TagCombine {
                src: 0,
                dst: 1,
                op: TagMode::And,
            },
        ]);
        let s = prog.stats();
        assert_eq!(s.searches_bs, 1);
        assert_eq!(s.updates_bs, 1);
        assert_eq!(s.updates_prop, 1);
        assert_eq!(s.reduces, 1);
        assert_eq!(s.tag_combines, 1);
        assert_eq!(s.total(), 5);
    }
}

/// Satellite property test: the whole fusion pipeline — `fuse_steps`
/// across seams plus the cross-op peephole passes — is
/// semantics-preserving on *arbitrary* generated op sequences, not just
/// the shapes today's instruction lowerings emit. Every broadcast of the
/// same ops on identically seeded CSBs — one concatenated program, and
/// fused windows split at arbitrary instruction boundaries — must match
/// the scalar [`Chain`](crate::Chain) reference bit for bit in final
/// chain state and reduction sums, and record exactly the program's
/// static stats.
#[cfg(test)]
mod window_properties {
    use super::*;
    use crate::chain::{reference_sweep, Chain};
    use crate::csb::Csb;
    use crate::geometry::CsbGeometry;
    use crate::microop::ColSel;
    use proptest::prelude::*;

    const CHAINS: usize = 8;

    fn seeded_csb(vstart_raw: usize, vl_raw: usize) -> Csb {
        let mut csb = Csb::new(CsbGeometry::new(CHAINS));
        for i in 0..CHAINS {
            for sub in 0..SUBARRAYS_PER_CHAIN {
                let x = (i * 131 + sub * 7919 + 17) as u32;
                csb.write_chain_row(i, sub, sub % TOTAL_ROWS, x.wrapping_mul(0x9E37), u32::MAX);
                csb.set_chain_tags(i, sub, x.wrapping_mul(0x85EB).rotate_left(sub as u32));
                csb.set_chain_acc(i, sub, x.wrapping_mul(0xC2B2).rotate_left(i as u32));
            }
        }
        let vl = vl_raw % (csb.max_vl() + 1);
        csb.set_active_window(vstart_raw % (vl + 1), vl);
        csb
    }

    fn arb_probe() -> impl Strategy<Value = Probe> {
        (
            0..SUBARRAYS_PER_CHAIN,
            proptest::collection::vec((0..TOTAL_ROWS, any::<bool>()), 1..=4),
        )
            .prop_map(|(s, keys)| Probe::new(s, keys))
    }

    fn arb_mode() -> impl Strategy<Value = TagMode> {
        prop_oneof![Just(TagMode::Set), Just(TagMode::And), Just(TagMode::Or)]
    }

    fn arb_dest() -> impl Strategy<Value = TagDest> {
        prop_oneof![Just(TagDest::Tags), Just(TagDest::Acc)]
    }

    fn arb_colsel() -> impl Strategy<Value = ColSel> {
        prop_oneof![
            Just(ColSel::Window),
            (0..SUBARRAYS_PER_CHAIN).prop_map(ColSel::Tags),
            (0..SUBARRAYS_PER_CHAIN).prop_map(ColSel::Acc),
        ]
    }

    fn arb_update() -> impl Strategy<Value = MicroOp> {
        proptest::collection::vec(
            (
                0..SUBARRAYS_PER_CHAIN,
                0..TOTAL_ROWS,
                any::<bool>(),
                arb_colsel(),
            ),
            1..=4,
        )
        .prop_map(|raw| {
            // The hardware writes at most one row per subarray per update.
            let mut seen = 0u64;
            let writes: Vec<WriteSpec> = raw
                .into_iter()
                .filter(|(sub, ..)| {
                    let bit = 1u64 << sub;
                    let fresh = seen & bit == 0;
                    seen |= bit;
                    fresh
                })
                .map(|(subarray, row, value, cols)| WriteSpec {
                    subarray,
                    row,
                    value,
                    cols,
                })
                .collect();
            MicroOp::Update { writes }
        })
    }

    fn arb_op() -> impl Strategy<Value = MicroOp> {
        prop_oneof![
            (
                proptest::collection::vec(arb_probe(), 1..=3),
                proptest::collection::vec(arb_probe(), 0..=2),
                arb_dest(),
                arb_mode(),
            )
                .prop_map(|(probes, gates, dest, mode)| MicroOp::Search {
                    probes,
                    gates,
                    dest,
                    mode,
                }),
            arb_update(),
            (0..SUBARRAYS_PER_CHAIN, 0..TOTAL_ROWS)
                .prop_map(|(subarray, row)| MicroOp::Read { subarray, row }),
            (
                0..SUBARRAYS_PER_CHAIN,
                0..TOTAL_ROWS,
                any::<u32>(),
                any::<u32>()
            )
                .prop_map(|(subarray, row, data, mask)| MicroOp::Write {
                    subarray,
                    row,
                    data,
                    mask,
                }),
            (0..SUBARRAYS_PER_CHAIN).prop_map(|subarray| MicroOp::ReduceTags { subarray }),
            (0..SUBARRAYS_PER_CHAIN, 0..SUBARRAYS_PER_CHAIN, arb_mode())
                .prop_map(|(src, dst, op)| MicroOp::TagCombine { src, dst, op }),
        ]
    }

    type Outcome = (Vec<Chain>, Vec<u64>, MicroOpStats);

    /// The oracle: `ops` swept over the seeded CSB's scalar chains, and
    /// the stats ledger any broadcast of them must record.
    fn run_reference(ops: &[MicroOp], vstart: usize, vl: usize) -> Outcome {
        let csb = seeded_csb(vstart, vl);
        let mut chains: Vec<Chain> = (0..CHAINS).map(|c| csb.chain(c)).collect();
        let windows: Vec<u32> = (0..CHAINS).map(|c| csb.window(c)).collect();
        let sums = reference_sweep(&mut chains, &windows, ops);
        (chains, sums, MicroProgram::new(ops.to_vec()).stats())
    }

    fn run_program(prog: &MicroProgram, vstart: usize, vl: usize) -> Outcome {
        let mut csb = seeded_csb(vstart, vl);
        let sums = csb.execute_program(prog);
        let chains = (0..CHAINS).map(|c| csb.chain(c)).collect();
        (chains, sums, csb.stats())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn fusion_window_preserves_semantics(
            ops in proptest::collection::vec(arb_op(), 1..16),
            cuts in proptest::collection::vec(any::<bool>(), 16),
            vstart_raw in 0usize..1024,
            vl_raw in 0usize..1024,
        ) {
            let baseline = run_reference(&ops, vstart_raw, vl_raw);

            let whole = MicroProgram::new(ops.clone());
            let as_program = run_program(&whole, vstart_raw, vl_raw);
            prop_assert_eq!(&baseline, &as_program);

            // Split at arbitrary "instruction" boundaries and fuse.
            let mut parts: Vec<MicroProgram> = Vec::new();
            let mut current: Vec<MicroOp> = Vec::new();
            for (i, op) in ops.iter().enumerate() {
                current.push(op.clone());
                if cuts[i % cuts.len()] {
                    parts.push(MicroProgram::new(std::mem::take(&mut current)));
                }
            }
            if !current.is_empty() {
                parts.push(MicroProgram::new(current));
            }
            let refs: Vec<&MicroProgram> = parts.iter().collect();
            let fused = MicroProgram::windowed(&refs);
            let as_window = run_program(&fused, vstart_raw, vl_raw);
            prop_assert_eq!(&baseline, &as_window);

            // The v2 pipeline — dependence-graph scheduling plus the
            // liveness-cascading dead-store pass — must be just as
            // invisible, including reduction-sum order.
            let scheduled = MicroProgram::windowed_scheduled(&refs);
            let as_scheduled = run_program(&scheduled, vstart_raw, vl_raw);
            prop_assert_eq!(&baseline, &as_scheduled);
            prop_assert!(
                scheduled.plan_len() <= fused.len(),
                "scheduling never grows the plan past the op list"
            );
        }
    }
}
