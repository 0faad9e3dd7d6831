//! The microcode sequencer: compiles vector operations into microop
//! *programs* and runs them against the CSB.
//!
//! This mirrors the chain controller FSM of Fig. 7 — (1) idle, (2) read
//! TTM, (3) generate comparand/mask for search, (4) generate data/mask for
//! update, (5) reduce — executed here against the functional CSB model.
//! Every microop emitted corresponds to one CSB cycle.
//!
//! Execution is split in two. [`CompiledOp::compile`] lowers a
//! [`VectorOp`] to an immutable [`MicroProgram`] plus a [`PostProcess`]
//! step that turns reduction sums into the scalar result. Compilation is a
//! pure function of the operation and the element width — microop
//! emission never inspects CSB data (even the scalar-specialized forms
//! depend only on the scalar's bits) — which is what makes compiled
//! programs cacheable (the VCU keeps an LRU program cache) and
//! broadcastable in one fan-out per instruction
//! ([`Csb::execute_program`](cape_csb::Csb::execute_program)).

use cape_csb::{
    ColSel, Csb, MicroOp, MicroOpStats, MicroProgram, Probe, TagDest, TagMode, WriteSpec,
    ROW_CARRY, ROW_FLAG, ROW_SCRATCH0, SUBARRAYS_PER_CHAIN,
};

use crate::truth_table::{BitSerialAlgorithm, GroupUpdate, Pattern};
use crate::vop::{LogicOp, VectorOp};

/// Operand width in bits (one subarray per bit).
const N: usize = SUBARRAYS_PER_CHAIN;

/// Result of executing one vector operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOutcome {
    /// Scalar result for reductions (`vredsum`, `vcpop`) and mask queries
    /// (`vfirst`, which returns `-1` when no bit is set), `None` for
    /// purely vector-to-vector operations.
    pub scalar: Option<i64>,
    /// Microops emitted by this operation alone.
    pub stats: MicroOpStats,
}

/// The addend operand of a bit-serial pass: a vector register row or an
/// already-known scalar whose bits specialize the truth table.
#[derive(Debug, Clone, Copy)]
enum Addend {
    Reg(usize),
    Scalar(u32),
}

/// The post-broadcast step of a compiled operation: how the program's
/// reduction sums (in emission order) and functional fix-ups produce the
/// scalar result and finalize register state.
///
/// These are exactly the points where a result crosses from the chains
/// back to the sequencer, so they run *after* the program's single join —
/// no mid-program synchronization is ever needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PostProcess {
    /// Vector-to-vector operation: nothing to do.
    None,
    /// `vredsum`: fold the MSB-first bit-plane popcounts into the sum and
    /// deposit it in element 0 of `vd` (Fig. 6).
    RedSum {
        /// Destination register receiving the scalar sum.
        vd: usize,
    },
    /// `vcpop`: the single reduction sum is the scalar result.
    Cpop,
    /// `vfirst`: global priority encode, modeled as a functional scan of
    /// `vs` over the active window (the timing model charges the tree).
    First {
        /// Mask register being scanned.
        vs: usize,
    },
    /// `vid.v`: chain-local index generation (see DESIGN.md), modeled
    /// functionally.
    Vid {
        /// Destination register receiving element indices.
        vd: usize,
    },
}

impl PostProcess {
    /// Applies the step given the program's reduction sums, returning the
    /// instruction's scalar result (if any).
    fn apply(&self, csb: &mut Csb, width: usize, sums: &[u64]) -> Option<i64> {
        match *self {
            PostProcess::None => None,
            PostProcess::RedSum { vd } => {
                let mut acc: u64 = 0;
                for &count in sums {
                    acc = (acc << 1).wrapping_add(count);
                }
                // RVV: the SEW-wide result lands in element 0 of vd.
                let wrapped = acc as u32 & width_mask(width);
                csb.write_element(vd, 0, wrapped);
                Some(i64::from(wrapped))
            }
            PostProcess::Cpop => Some(sums.first().copied().unwrap_or(0) as i64),
            PostProcess::First { vs } => {
                let (vstart, vl) = (csb.vstart(), csb.vl());
                for e in vstart..vl {
                    if csb.read_element(vs, e) & 1 == 1 {
                        return Some(e as i64);
                    }
                }
                Some(-1)
            }
            PostProcess::Vid { vd } => {
                let (vstart, vl) = (csb.vstart(), csb.vl());
                let mask = width_mask(width);
                for e in vstart..vl {
                    csb.write_element(vd, e, e as u32 & mask);
                }
                None
            }
        }
    }
}

/// Error produced when a vector operation cannot be lowered to a microop
/// program.
///
/// A malformed operation surfaces here as a value instead of a panic, so a
/// long-running host (e.g. the job-serving engine) can reject the one bad
/// job and keep serving the rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SequencerError {
    /// The requested element width is not one of the supported SEWs.
    UnsupportedWidth(usize),
    /// A bit-serial truth table referenced an addend operand, but the
    /// lowering supplied none — the algorithm and operand shape disagree.
    MissingAddend,
    /// The operation's destination register aliases one of its sources,
    /// which the in-place lowering cannot support (`vmul`, `vmacc`, the
    /// mask-producing comparisons and `vmin`/`vmax.vx`).
    DestAliasesSource {
        /// Mnemonic of the offending operation, e.g. `"vmul"`.
        mnemonic: &'static str,
        /// The destination register that aliases a source.
        vd: usize,
    },
}

impl std::fmt::Display for SequencerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SequencerError::UnsupportedWidth(_) => write!(f, "SEW must be 8, 16 or 32"),
            SequencerError::MissingAddend => {
                write!(f, "truth table references an addend but none was supplied")
            }
            SequencerError::DestAliasesSource { mnemonic, vd } => {
                write!(f, "{mnemonic} destination v{vd} must not alias a source")
            }
        }
    }
}

impl std::error::Error for SequencerError {}

/// A vector operation lowered to its broadcast form: the microop program,
/// the post-processing step, and the element width it was compiled for.
///
/// Compiled operations are immutable and independent of CSB state, so one
/// `CompiledOp` can be cached and replayed for every dynamic instance of
/// the same `(VectorOp, SEW)` pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledOp {
    program: MicroProgram,
    post: PostProcess,
    width: usize,
}

impl CompiledOp {
    /// Compiles `op` for `width`-bit elements (SEW = 8, 16 or 32).
    ///
    /// # Panics
    ///
    /// Panics unless `width` is 8, 16 or 32, if a register index is out of
    /// range, or on the destination aliasing restrictions documented on
    /// [`VectorOp`] (`vmul` and the mask-producing comparisons require
    /// `vd` distinct from sources). Use [`CompiledOp::try_compile`] for a
    /// non-panicking variant.
    pub fn compile(op: &VectorOp, width: usize) -> Self {
        Self::try_compile(op, width).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Compiles `op` for `width`-bit elements, reporting malformed
    /// operations as a typed [`SequencerError`] instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`SequencerError::UnsupportedWidth`] unless `width` is 8,
    /// 16 or 32, and [`SequencerError::MissingAddend`] if a truth table
    /// references an addend the lowering did not supply.
    pub fn try_compile(op: &VectorOp, width: usize) -> Result<Self, SequencerError> {
        if !matches!(width, 8 | 16 | 32) {
            return Err(SequencerError::UnsupportedWidth(width));
        }
        let mut builder = ProgramBuilder {
            ops: Vec::new(),
            width,
            error: None,
        };
        let post = builder.dispatch(op);
        if let Some(e) = builder.error {
            return Err(e);
        }
        Ok(Self {
            program: MicroProgram::new(builder.ops),
            post,
            width,
        })
    }

    /// Assembles a compiled operation from already-lowered parts. Used by
    /// the fusion window builder (`crate::window`), which concatenates the
    /// programs of several compiled ops into one.
    pub(crate) fn from_parts(program: MicroProgram, post: PostProcess, width: usize) -> Self {
        Self {
            program,
            post,
            width,
        }
    }

    /// The compiled microop program.
    pub fn program(&self) -> &MicroProgram {
        &self.program
    }

    /// The post-broadcast step.
    pub fn post(&self) -> PostProcess {
        self.post
    }

    /// Element width this operation was compiled for.
    pub fn width(&self) -> usize {
        self.width
    }
}

/// Executes [`VectorOp`]s against a CSB by compiling them to microop
/// programs and broadcasting those.
#[derive(Debug)]
pub struct Sequencer<'a> {
    csb: &'a mut Csb,
    /// Element width in bits (SEW): 8, 16 or 32. Narrow elements use
    /// only the low subarrays and finish their bit-serial walks early —
    /// the paper's "element types smaller than 32 bits" configuration
    /// (Section V-A).
    width: usize,
}

impl<'a> Sequencer<'a> {
    /// Wraps a CSB for 32-bit instruction execution.
    pub fn new(csb: &'a mut Csb) -> Self {
        Self::with_width(csb, 32)
    }

    /// Wraps a CSB for `width`-bit elements (SEW = 8, 16 or 32).
    ///
    /// Compute instructions read operand bits `[0, width)` and write the
    /// destination zero-extended to 32 bits, so values behave as
    /// integers modulo `2^width`.
    ///
    /// # Panics
    ///
    /// Panics unless `width` is 8, 16 or 32.
    pub fn with_width(csb: &'a mut Csb, width: usize) -> Self {
        assert!(matches!(width, 8 | 16 | 32), "SEW must be 8, 16 or 32");
        Self { csb, width }
    }

    /// Executes one vector operation, returning its scalar result (if any)
    /// and the microops it emitted: compiles it, then broadcasts the
    /// program with [`Sequencer::run_program`].
    ///
    /// # Panics
    ///
    /// Panics if a register index is out of range, or on the destination
    /// aliasing restrictions documented on [`VectorOp`] (`vmul` and the
    /// mask-producing comparisons require `vd` distinct from sources).
    pub fn execute(&mut self, op: &VectorOp) -> ExecOutcome {
        let compiled = CompiledOp::compile(op, self.width);
        self.run_program(&compiled)
    }

    /// Runs a (possibly cached) compiled operation: one broadcast fan-out
    /// for the whole program
    /// ([`Csb::execute_program`](cape_csb::Csb::execute_program)), then
    /// the post-processing step.
    pub fn run_program(&mut self, compiled: &CompiledOp) -> ExecOutcome {
        let before = self.csb.stats();
        let sums = self.csb.execute_program(&compiled.program);
        let scalar = compiled.post.apply(self.csb, compiled.width, &sums);
        ExecOutcome {
            scalar,
            stats: self.csb.stats().since(&before),
        }
    }
}

/// Accumulates the microop program of one vector operation.
///
/// Hosts the emission helpers shared by every instruction lowering; each
/// pushes microops instead of executing them, so the same code path serves
/// compilation for caching and direct execution.
struct ProgramBuilder {
    ops: Vec<MicroOp>,
    width: usize,
    /// First structural error hit during lowering; checked after
    /// `dispatch` so emission helpers stay infallible at their call sites.
    error: Option<SequencerError>,
}

impl ProgramBuilder {
    fn emit(&mut self, op: MicroOp) {
        self.ops.push(op);
    }

    /// Latches a destination-aliasing error and aborts the lowering of the
    /// offending operation. The first error wins, matching the
    /// `MissingAddend` latch in [`ProgramBuilder::bit_serial`].
    fn alias_error(&mut self, mnemonic: &'static str, vd: usize) -> PostProcess {
        self.error
            .get_or_insert(SequencerError::DestAliasesSource { mnemonic, vd });
        PostProcess::None
    }

    fn dispatch(&mut self, op: &VectorOp) -> PostProcess {
        match *op {
            VectorOp::Add { vd, vs1, vs2 } => {
                // Addition commutes, so aliasing vd with either source
                // reduces to the in-place case.
                let (a, b) = if vd == vs2 { (vs2, vs1) } else { (vs1, vs2) };
                self.copy_reg(vd, a);
                self.bit_serial(
                    &BitSerialAlgorithm::adder(),
                    vd,
                    Some(Addend::Reg(b)),
                    0,
                    &[],
                );
                PostProcess::None
            }
            VectorOp::AddScalar { vd, vs1, rs } => {
                self.copy_reg(vd, vs1);
                self.bit_serial(
                    &BitSerialAlgorithm::adder(),
                    vd,
                    Some(Addend::Scalar(rs)),
                    0,
                    &[],
                );
                PostProcess::None
            }
            VectorOp::Sub { vd, vs1, vs2 } => {
                if vd != vs2 || vd == vs1 {
                    self.copy_reg(vd, vs1);
                    self.bit_serial(
                        &BitSerialAlgorithm::subtractor(),
                        vd,
                        Some(Addend::Reg(vs2)),
                        0,
                        &[],
                    );
                } else {
                    // vd aliases the subtrahend: vs1 - vd = vs1 + !vd + 1.
                    self.not_reg(vd);
                    let mut adder = BitSerialAlgorithm::adder();
                    adder.carry_init = true;
                    self.bit_serial(&adder, vd, Some(Addend::Reg(vs1)), 0, &[]);
                }
                PostProcess::None
            }
            VectorOp::SubScalar { vd, vs1, rs } => {
                self.copy_reg(vd, vs1);
                self.bit_serial(
                    &BitSerialAlgorithm::subtractor(),
                    vd,
                    Some(Addend::Scalar(rs)),
                    0,
                    &[],
                );
                PostProcess::None
            }
            VectorOp::Mul { vd, vs1, vs2 } => {
                if vd == vs1 || vd == vs2 {
                    return self.alias_error("vmul", vd);
                }
                self.clear_reg(vd);
                for j in 0..self.width {
                    let gate = Probe::row(j, vs2, true);
                    self.bit_serial(
                        &BitSerialAlgorithm::adder(),
                        vd,
                        Some(Addend::Reg(vs1)),
                        j,
                        std::slice::from_ref(&gate),
                    );
                }
                PostProcess::None
            }
            VectorOp::MulScalar { vd, vs1, rs } => {
                if vd == vs1 {
                    return self.alias_error("vmul", vd);
                }
                self.clear_reg(vd);
                for j in 0..self.width {
                    if rs >> j & 1 == 1 {
                        self.bit_serial(
                            &BitSerialAlgorithm::adder(),
                            vd,
                            Some(Addend::Reg(vs1)),
                            j,
                            &[],
                        );
                    }
                }
                PostProcess::None
            }
            VectorOp::And { vd, vs1, vs2 } => {
                self.logic(vd, vs1, vs2, &[(true, true)], true);
                PostProcess::None
            }
            VectorOp::Or { vd, vs1, vs2 } => {
                self.logic(vd, vs1, vs2, &[(false, false)], false);
                PostProcess::None
            }
            VectorOp::Xor { vd, vs1, vs2 } => {
                self.logic(vd, vs1, vs2, &[(true, false), (false, true)], true);
                PostProcess::None
            }
            VectorOp::Mseq { vd, vs1, vs2 } => {
                if vd == vs1 || vd == vs2 {
                    return self.alias_error("vmseq", vd);
                }
                // Per-subarray bit equality, then an AND fold across the
                // chain (the bit-serial post-processing of Table I).
                self.search_all(|_| vec![(vs1, true), (vs2, true)], TagMode::Set);
                self.search_all(|_| vec![(vs1, false), (vs2, false)], TagMode::Or);
                self.fold_tags_and();
                self.write_mask_from_tags(vd, self.width - 1);
                PostProcess::None
            }
            VectorOp::MseqScalar { vd, vs1, rs } => {
                if vd == vs1 {
                    return self.alias_error("vmseq", vd);
                }
                // CAPE's signature operation: one bit-parallel search
                // against the scalar key (Fig. 4).
                self.search_all(|i| vec![(vs1, rs >> i & 1 == 1)], TagMode::Set);
                self.fold_tags_and();
                self.write_mask_from_tags(vd, self.width - 1);
                PostProcess::None
            }
            VectorOp::Mslt {
                vd,
                vs1,
                vs2,
                signed,
            } => {
                if vd == vs1 || vd == vs2 {
                    return self.alias_error("vmslt", vd);
                }
                self.mslt(vd, vs1, MsltRhs::Reg(vs2), signed);
                PostProcess::None
            }
            VectorOp::MsltScalar {
                vd,
                vs1,
                rs,
                signed,
            } => {
                if vd == vs1 {
                    return self.alias_error("vmslt", vd);
                }
                self.mslt(vd, vs1, MsltRhs::Scalar(rs), signed);
                PostProcess::None
            }
            VectorOp::LogicScalar { op, vd, vs1, rs } => {
                self.logic_scalar(op, vd, vs1, rs);
                PostProcess::None
            }
            VectorOp::Msne { vd, vs1, vs2 } => {
                if vd == vs1 || vd == vs2 {
                    return self.alias_error("vmsne", vd);
                }
                self.search_all(|_| vec![(vs1, true), (vs2, true)], TagMode::Set);
                self.search_all(|_| vec![(vs1, false), (vs2, false)], TagMode::Or);
                self.fold_tags_and();
                self.write_inverted_mask_from_tags(vd, self.width - 1);
                PostProcess::None
            }
            VectorOp::MsneScalar { vd, vs1, rs } => {
                if vd == vs1 {
                    return self.alias_error("vmsne", vd);
                }
                self.search_all(|i| vec![(vs1, rs >> i & 1 == 1)], TagMode::Set);
                self.fold_tags_and();
                self.write_inverted_mask_from_tags(vd, self.width - 1);
                PostProcess::None
            }
            VectorOp::MinMax {
                vd,
                vs1,
                vs2,
                max,
                signed,
            } => {
                // Ordered compare into a scratch metadata row, then a
                // masked select — no architectural mask register is
                // clobbered, as RVV requires.
                self.mslt_into_scratch(vs1, MsltRhs::Reg(vs2), signed);
                let (on_true, on_false) = if max { (vs2, vs1) } else { (vs1, vs2) };
                self.merge_with_mask(vd, on_true, on_false, 0, ROW_SCRATCH0);
                PostProcess::None
            }
            VectorOp::MinMaxScalar {
                vd,
                vs1,
                rs,
                max,
                signed,
            } => {
                if vd == vs1 {
                    return self.alias_error(if max { "vmax" } else { "vmin" }, vd);
                }
                self.mslt_into_scratch(vs1, MsltRhs::Scalar(rs), signed);
                // Materialize the scalar side in vd, then select in place.
                self.broadcast(vd, rs);
                let (on_true, on_false) = if max { (vd, vs1) } else { (vs1, vd) };
                self.merge_with_mask(vd, on_true, on_false, 0, ROW_SCRATCH0);
                PostProcess::None
            }
            VectorOp::RsubScalar { vd, vs1, rs } => {
                // rs - vs1 = rs + !vs1 + 1.
                self.copy_reg(vd, vs1);
                self.not_reg(vd);
                let mut adder = BitSerialAlgorithm::adder();
                adder.carry_init = true;
                self.bit_serial(&adder, vd, Some(Addend::Scalar(rs)), 0, &[]);
                PostProcess::None
            }
            VectorOp::Macc { vd, vs1, vs2 } => {
                if vd == vs1 || vd == vs2 {
                    return self.alias_error("vmacc", vd);
                }
                // Exactly vmul's shift-and-add passes, accumulating into
                // the existing destination instead of a cleared one.
                self.zero_upper(vd);
                for j in 0..self.width {
                    let gate = Probe::row(j, vs2, true);
                    self.bit_serial(
                        &BitSerialAlgorithm::adder(),
                        vd,
                        Some(Addend::Reg(vs1)),
                        j,
                        std::slice::from_ref(&gate),
                    );
                }
                PostProcess::None
            }
            VectorOp::Mv { vd, vs } => {
                self.copy_reg(vd, vs);
                PostProcess::None
            }
            VectorOp::ShiftRightArith { vd, vs, sh } => {
                self.sra(vd, vs, sh);
                PostProcess::None
            }
            VectorOp::Merge { vd, vs1, vs2 } => {
                // Mask register is the architectural v0, bit 0 => subarray 0.
                self.merge_with_mask(vd, vs1, vs2, 0, 0);
                PostProcess::None
            }
            VectorOp::RedSum { vd, vs } => {
                // Fig. 6: echo each bit-plane through the tags (MSB first),
                // popcount per chain, and fold through the global tree. The
                // per-bit sums surface at the program's reduction sync
                // points; PostProcess::RedSum folds them.
                for i in (0..self.width).rev() {
                    self.emit(MicroOp::Search {
                        probes: vec![Probe::row(i, vs, true)],
                        gates: vec![],
                        dest: TagDest::Tags,
                        mode: TagMode::Set,
                    });
                    self.emit(MicroOp::ReduceTags { subarray: i });
                }
                PostProcess::RedSum { vd }
            }
            VectorOp::Cpop { vs } => {
                self.emit(MicroOp::Search {
                    probes: vec![Probe::row(0, vs, true)],
                    gates: vec![],
                    dest: TagDest::Tags,
                    mode: TagMode::Set,
                });
                self.emit(MicroOp::ReduceTags { subarray: 0 });
                PostProcess::Cpop
            }
            VectorOp::First { vs } => {
                self.emit(MicroOp::Search {
                    probes: vec![Probe::row(0, vs, true)],
                    gates: vec![],
                    dest: TagDest::Tags,
                    mode: TagMode::Set,
                });
                // Global priority encode over the chains (modeled
                // functionally in PostProcess::First; the timing model
                // charges the tree latency).
                PostProcess::First { vs }
            }
            VectorOp::Broadcast { vd, rs } => {
                self.broadcast(vd, rs);
                PostProcess::None
            }
            VectorOp::ShiftLeft { vd, vs, sh } => {
                self.shift(vd, vs, sh, true);
                PostProcess::None
            }
            VectorOp::ShiftRight { vd, vs, sh } => {
                self.shift(vd, vs, sh, false);
                PostProcess::None
            }
            VectorOp::Vid { vd } => {
                // Chain-local index generation (see DESIGN.md): modeled
                // functionally; the VCU charges one write per column.
                PostProcess::Vid { vd }
            }
            VectorOp::Increment { vd } => {
                self.zero_upper(vd);
                self.bit_serial(&BitSerialAlgorithm::incrementer(), vd, None, 0, &[]);
                PostProcess::None
            }
        }
    }

    // ----- building blocks ---------------------------------------------

    /// Bulk-clears a row in every subarray (one bit-parallel update).
    fn clear_reg(&mut self, row: usize) {
        self.emit(MicroOp::Update {
            writes: (0..N)
                .map(|i| WriteSpec {
                    subarray: i,
                    row,
                    value: false,
                    cols: ColSel::Window,
                })
                .collect(),
        });
    }

    /// Copies register `vs` into `vd` (3 bit-parallel microops, with
    /// zero-extension past the element width); no-op if they alias.
    fn copy_reg(&mut self, vd: usize, vs: usize) {
        if vd == vs {
            self.zero_upper(vd);
            return;
        }
        self.search_all(|_| vec![(vs, true)], TagMode::Set);
        self.clear_reg(vd);
        self.set_reg_from_own_tags(vd);
    }

    /// In-place bitwise NOT of `vd` (3 bit-parallel microops).
    fn not_reg(&mut self, vd: usize) {
        self.search_all(|_| vec![(vd, false)], TagMode::Set);
        self.clear_reg(vd);
        self.set_reg_from_own_tags(vd);
    }

    /// Zero-extends `vd` past the element width (one bulk update); no-op
    /// at full width.
    fn zero_upper(&mut self, vd: usize) {
        if self.width == N {
            return;
        }
        self.emit(MicroOp::Update {
            writes: (self.width..N)
                .map(|i| WriteSpec {
                    subarray: i,
                    row: vd,
                    value: false,
                    cols: ColSel::Window,
                })
                .collect(),
        });
    }

    /// One bit-parallel search over the active element width, with
    /// per-subarray keys given by `keys(i)`.
    fn search_all(&mut self, keys: impl Fn(usize) -> Vec<(usize, bool)>, mode: TagMode) {
        self.emit(MicroOp::Search {
            probes: (0..self.width).map(|i| Probe::new(i, keys(i))).collect(),
            gates: vec![],
            dest: TagDest::Tags,
            mode,
        });
    }

    /// Sets `row` to 1 in every active-width subarray at the columns
    /// tagged in that same subarray (one bit-parallel update).
    fn set_reg_from_own_tags(&mut self, row: usize) {
        self.emit(MicroOp::Update {
            writes: (0..self.width)
                .map(|i| WriteSpec {
                    subarray: i,
                    row,
                    value: true,
                    cols: ColSel::Tags(i),
                })
                .collect(),
        });
    }

    /// ANDs the tags of the active-width subarrays into subarray
    /// `width-1` over the tag bus, one neighbour hop per cycle (the
    /// "bit-serial post-processing" of the comparisons in Table I).
    fn fold_tags_and(&mut self) {
        for i in 1..self.width {
            self.emit(MicroOp::TagCombine {
                src: i - 1,
                dst: i,
                op: TagMode::And,
            });
        }
    }

    /// Broadcasts a scalar into every active element of `vd` — a single
    /// bulk update: every subarray writes its bit of the scalar to all
    /// active columns.
    fn broadcast(&mut self, vd: usize, rs: u32) {
        let w = self.width;
        self.emit(MicroOp::Update {
            writes: (0..N)
                .map(|i| WriteSpec {
                    subarray: i,
                    row: vd,
                    value: i < w && rs >> i & 1 == 1,
                    cols: ColSel::Window,
                })
                .collect(),
        });
    }

    /// Scalar-specialized bit-parallel logic: the scalar's bit at plane
    /// `i` decides that subarray's behaviour, so no broadcast register is
    /// needed (3-4 microops, like the .vv forms).
    fn logic_scalar(&mut self, op: LogicOp, vd: usize, vs1: usize, rs: u32) {
        let w = self.width;
        let ones: Vec<usize> = (0..w).filter(|&i| rs >> i & 1 == 1).collect();
        let zeros: Vec<usize> = (0..w).filter(|&i| rs >> i & 1 == 0).collect();
        // Latch the source planes the result copies (possibly inverted).
        let (copy_subs, inv_subs): (&[usize], &[usize]) = match op {
            LogicOp::And => (&ones, &[]),    // x=1 -> vs; x=0 -> 0
            LogicOp::Or => (&zeros, &[]),    // x=0 -> vs; x=1 -> 1
            LogicOp::Xor => (&zeros, &ones), // x=0 -> vs; x=1 -> !vs
        };
        // The two groups probe disjoint subarrays, and each subarray's tag
        // register is independent — both searches latch with Set.
        if !copy_subs.is_empty() {
            self.emit(MicroOp::Search {
                probes: copy_subs
                    .iter()
                    .map(|&i| Probe::row(i, vs1, true))
                    .collect(),
                gates: vec![],
                dest: TagDest::Tags,
                mode: TagMode::Set,
            });
        }
        if !inv_subs.is_empty() {
            self.emit(MicroOp::Search {
                probes: inv_subs
                    .iter()
                    .map(|&i| Probe::row(i, vs1, false))
                    .collect(),
                gates: vec![],
                dest: TagDest::Tags,
                mode: TagMode::Set,
            });
        }
        // Fill: OR forces 1 where x=1; everything else starts at 0.
        self.emit(MicroOp::Update {
            writes: (0..N)
                .map(|i| WriteSpec {
                    subarray: i,
                    row: vd,
                    value: i < w && op == LogicOp::Or && rs >> i & 1 == 1,
                    cols: ColSel::Window,
                })
                .collect(),
        });
        let tagged: Vec<usize> = copy_subs.iter().chain(inv_subs).copied().collect();
        if !tagged.is_empty() {
            self.emit(MicroOp::Update {
                writes: tagged
                    .iter()
                    .map(|&i| WriteSpec {
                        subarray: i,
                        row: vd,
                        value: true,
                        cols: ColSel::Tags(i),
                    })
                    .collect(),
            });
        }
    }

    /// Writes an *inverted* mask result: bit 0 of `vd` is 1 where the
    /// folded tags are 0.
    fn write_inverted_mask_from_tags(&mut self, vd: usize, tag_sub: usize) {
        self.clear_reg(vd);
        self.emit(MicroOp::Update {
            writes: vec![WriteSpec {
                subarray: 0,
                row: vd,
                value: true,
                cols: ColSel::Window,
            }],
        });
        self.emit(MicroOp::Update {
            writes: vec![WriteSpec {
                subarray: 0,
                row: vd,
                value: false,
                cols: ColSel::Tags(tag_sub),
            }],
        });
    }

    /// Ordered compare `vs1 < rhs` into the scratch metadata row of
    /// subarray 0 (used by min/max, which must not clobber a register).
    fn mslt_into_scratch(&mut self, vs1: usize, rhs: MsltRhs, signed: bool) {
        self.mslt_raw(0, ROW_SCRATCH0, vs1, rhs, signed);
    }

    /// Masked element-wise select with the mask bit at (`mask_sub`,
    /// `mask_row`): `vd[e] = mask[e] ? vs1[e] : vs2[e]`.
    fn merge_with_mask(
        &mut self,
        vd: usize,
        vs1: usize,
        vs2: usize,
        mask_sub: usize,
        mask_row: usize,
    ) {
        let taken = Probe::row(mask_sub, mask_row, true);
        let not_taken = Probe::row(mask_sub, mask_row, false);
        self.emit(MicroOp::Search {
            probes: (0..self.width).map(|i| Probe::row(i, vs1, true)).collect(),
            gates: vec![taken],
            dest: TagDest::Tags,
            mode: TagMode::Set,
        });
        self.emit(MicroOp::Search {
            probes: (0..self.width).map(|i| Probe::row(i, vs2, true)).collect(),
            gates: vec![not_taken],
            dest: TagDest::Tags,
            mode: TagMode::Or,
        });
        self.clear_reg(vd);
        self.set_reg_from_own_tags(vd);
    }

    /// Writes a mask result: clears `vd` and sets bit 0 (subarray 0) at
    /// the columns tagged in `tag_sub`.
    fn write_mask_from_tags(&mut self, vd: usize, tag_sub: usize) {
        self.clear_reg(vd);
        self.emit(MicroOp::Update {
            writes: vec![WriteSpec {
                subarray: 0,
                row: vd,
                value: true,
                cols: ColSel::Tags(tag_sub),
            }],
        });
    }

    /// Two-operand bit-parallel logic: elements matching any of the
    /// per-bit `patterns` get `result_on_match` in `vd`, the rest get its
    /// complement.
    fn logic(
        &mut self,
        vd: usize,
        vs1: usize,
        vs2: usize,
        patterns: &[(bool, bool)],
        result_on_match: bool,
    ) {
        for (k, &(b1, b2)) in patterns.iter().enumerate() {
            let mode = if k == 0 { TagMode::Set } else { TagMode::Or };
            self.search_all(|_| vec![(vs1, b1), (vs2, b2)], mode);
        }
        // Fill the default value (zero past the element width), then
        // overwrite the matches. Searches ran first, so vd may alias a
        // source.
        let w = self.width;
        self.emit(MicroOp::Update {
            writes: (0..N)
                .map(|i| WriteSpec {
                    subarray: i,
                    row: vd,
                    value: i < w && !result_on_match,
                    cols: ColSel::Window,
                })
                .collect(),
        });
        self.emit(MicroOp::Update {
            writes: (0..w)
                .map(|i| WriteSpec {
                    subarray: i,
                    row: vd,
                    value: result_on_match,
                    cols: ColSel::Tags(i),
                })
                .collect(),
        });
    }

    /// Cross-subarray row copy implementing logical shifts: `vd[i] =
    /// vs[i -/+ sh]`, vacated bits zeroed.
    fn shift(&mut self, vd: usize, vs: usize, sh: u32, left: bool) {
        let sh = sh as usize;
        let w = self.width;
        if sh < w {
            // Latch every source bit-plane in its own subarray's tags.
            self.search_all(|_| vec![(vs, true)], TagMode::Set);
        }
        self.clear_reg(vd);
        if sh >= w {
            return;
        }
        let writes: Vec<WriteSpec> = (0..w - sh)
            .map(|k| {
                let (dst, src) = if left { (k + sh, k) } else { (k, k + sh) };
                WriteSpec {
                    subarray: dst,
                    row: vd,
                    value: true,
                    cols: ColSel::Tags(src),
                }
            })
            .collect();
        self.emit(MicroOp::Update { writes });
    }

    /// Arithmetic shift right: logical shift plus sign replication into
    /// the vacated bit planes (the shift's search tags still hold every
    /// source plane, including the sign).
    fn sra(&mut self, vd: usize, vs: usize, sh: u32) {
        let w = self.width;
        if (sh as usize) < w {
            self.shift(vd, vs, sh, false);
            if sh > 0 {
                self.emit(MicroOp::Update {
                    writes: (w - sh as usize..w)
                        .map(|i| WriteSpec {
                            subarray: i,
                            row: vd,
                            value: true,
                            cols: ColSel::Tags(w - 1),
                        })
                        .collect(),
                });
            }
        } else {
            // Fully shifted out: every bit becomes the sign bit.
            self.search_all(|_| vec![(vs, true)], TagMode::Set);
            self.clear_reg(vd);
            self.emit(MicroOp::Update {
                writes: (0..w)
                    .map(|i| WriteSpec {
                        subarray: i,
                        row: vd,
                        value: true,
                        cols: ColSel::Tags(w - 1),
                    })
                    .collect(),
            });
        }
    }

    /// Ordered comparison `vs1 < rhs` into mask register `vd`.
    fn mslt(&mut self, vd: usize, vs1: usize, rhs: MsltRhs, signed: bool) {
        self.clear_reg(vd);
        self.mslt_raw(0, vd, vs1, rhs, signed);
    }

    /// Ordered comparison `vs1 < rhs` into the single bit at
    /// (`dest_sub`, `dest_row`).
    ///
    /// Walks from the MSB with a per-element "undecided" flag (ROW_FLAG of
    /// subarray 1): the first differing bit decides the outcome and clears
    /// the flag. The sign bit inverts the comparison for signed operands.
    ///
    /// # Panics
    ///
    /// Panics if `dest_sub` collides with the flag subarray.
    fn mslt_raw(
        &mut self,
        dest_sub: usize,
        dest_row: usize,
        vs1: usize,
        rhs: MsltRhs,
        signed: bool,
    ) {
        const FLAG_SUB: usize = 1;
        assert_ne!(
            dest_sub, FLAG_SUB,
            "result and flag must live in distinct subarrays"
        );
        // Clear the result bit and arm the undecided flag in one update
        // (distinct subarrays, one row each).
        self.emit(MicroOp::Update {
            writes: vec![
                WriteSpec {
                    subarray: dest_sub,
                    row: dest_row,
                    value: false,
                    cols: ColSel::Window,
                },
                WriteSpec {
                    subarray: FLAG_SUB,
                    row: ROW_FLAG,
                    value: true,
                    cols: ColSel::Window,
                },
            ],
        });
        for i in (0..self.width).rev() {
            let msb = i == self.width - 1;
            let flip = signed && msb;
            // lt: vs1 bit is "smaller" at this position; gt: "larger".
            let (lt_keys, gt_keys): (Option<Vec<_>>, Option<Vec<_>>) = match rhs {
                MsltRhs::Reg(vs2) => {
                    let lt = if flip {
                        vec![(vs1, true), (vs2, false)]
                    } else {
                        vec![(vs1, false), (vs2, true)]
                    };
                    let gt = if flip {
                        vec![(vs1, false), (vs2, true)]
                    } else {
                        vec![(vs1, true), (vs2, false)]
                    };
                    (Some(lt), Some(gt))
                }
                MsltRhs::Scalar(x) => {
                    let xb = x >> i & 1 == 1;
                    // lt requires vs1 bit != xb with vs1 "smaller".
                    let lt = (xb != flip).then(|| vec![(vs1, flip)]);
                    let gt = (xb == flip).then(|| vec![(vs1, !flip)]);
                    (lt, gt)
                }
            };
            let gate = Probe::row(FLAG_SUB, ROW_FLAG, true);
            if let Some(keys) = lt_keys {
                self.emit(MicroOp::Search {
                    probes: vec![Probe::new(i, keys)],
                    gates: vec![gate.clone()],
                    dest: TagDest::Tags,
                    mode: TagMode::Set,
                });
                // Decided less-than: set the result bit and retire the flag.
                self.emit(MicroOp::Update {
                    writes: vec![
                        WriteSpec {
                            subarray: dest_sub,
                            row: dest_row,
                            value: true,
                            cols: ColSel::Tags(i),
                        },
                        WriteSpec {
                            subarray: FLAG_SUB,
                            row: ROW_FLAG,
                            value: false,
                            cols: ColSel::Tags(i),
                        },
                    ],
                });
            }
            if let Some(keys) = gt_keys {
                self.emit(MicroOp::Search {
                    probes: vec![Probe::new(i, keys)],
                    gates: vec![gate],
                    dest: TagDest::Tags,
                    mode: TagMode::Set,
                });
                // Decided greater-than: just retire the flag.
                self.emit(MicroOp::Update {
                    writes: vec![WriteSpec {
                        subarray: FLAG_SUB,
                        row: ROW_FLAG,
                        value: false,
                        cols: ColSel::Tags(i),
                    }],
                });
            }
        }
    }

    /// Emits one bit-serial pass of a truth-table algorithm over the
    /// destination register, least significant bit first.
    ///
    /// `j_off` shifts the destination bit position relative to the addend
    /// bit (the partial-product offset of `vmul`); `gates` are extra
    /// search gates ANDed into every pattern match (the multiplier bit).
    fn bit_serial(
        &mut self,
        alg: &BitSerialAlgorithm,
        d_reg: usize,
        addend: Option<Addend>,
        j_off: usize,
        gates: &[Probe],
    ) {
        // Initialize the carry/borrow rows.
        self.clear_reg(ROW_CARRY);
        if alg.carry_init {
            self.emit(MicroOp::Update {
                writes: vec![WriteSpec {
                    subarray: j_off,
                    row: ROW_CARRY,
                    value: true,
                    cols: ColSel::Window,
                }],
            });
        }
        for i in 0..self.width - j_off {
            let d_sub = i + j_off;
            // The carry group first: its update writes only the next
            // carry, so it cannot perturb the destination-flipping groups
            // that still need to search this bit's pristine state.
            let hit = self.search_group(
                &alg.carry_patterns,
                d_reg,
                d_sub,
                i,
                addend,
                gates,
                TagDest::Tags,
            );
            if hit {
                self.group_update(
                    &GroupUpdate {
                        write_d: None,
                        write_carry: true,
                    },
                    d_reg,
                    d_sub,
                    TagDest::Tags,
                );
            }
            let acc_hit = self.search_group(
                &alg.acc_patterns,
                d_reg,
                d_sub,
                i,
                addend,
                gates,
                TagDest::Acc,
            );
            let tag_hit = self.search_group(
                &alg.tag_patterns,
                d_reg,
                d_sub,
                i,
                addend,
                gates,
                TagDest::Tags,
            );
            if acc_hit {
                self.group_update(&alg.acc_update, d_reg, d_sub, TagDest::Acc);
            }
            if tag_hit {
                self.group_update(&alg.tag_update, d_reg, d_sub, TagDest::Tags);
            }
        }
    }

    /// Emits the searches of one truth-table group at bit position
    /// (`d_sub`, addend bit `a_bit`). Returns whether any pattern survived
    /// scalar specialization (if none did, the group's update must be
    /// skipped because the match register holds stale data).
    ///
    /// The hit flag depends only on the patterns and the scalar's bits —
    /// never on CSB contents — so compilation stays a pure function of
    /// `(VectorOp, width)`.
    #[allow(clippy::too_many_arguments)]
    fn search_group(
        &mut self,
        patterns: &[Pattern],
        d_reg: usize,
        d_sub: usize,
        a_bit: usize,
        addend: Option<Addend>,
        gates: &[Probe],
        dest: TagDest,
    ) -> bool {
        let mut first = true;
        for p in patterns {
            let mut keys: Vec<(usize, bool)> = Vec::with_capacity(3);
            if let Some(v) = p.d {
                keys.push((d_reg, v));
            }
            if let Some(v) = p.c {
                keys.push((ROW_CARRY, v));
            }
            let mut extra_gates = gates.to_vec();
            match (addend, p.a) {
                (_, None) => {}
                (Some(Addend::Reg(a_reg)), Some(v)) => {
                    if a_bit == d_sub {
                        keys.push((a_reg, v));
                    } else {
                        extra_gates.push(Probe::row(a_bit, a_reg, v));
                    }
                }
                (Some(Addend::Scalar(x)), Some(v)) => {
                    if (x >> a_bit & 1 == 1) != v {
                        continue; // pattern cannot match this bit position
                    }
                }
                (None, Some(_)) => {
                    self.error.get_or_insert(SequencerError::MissingAddend);
                    continue; // the pattern is unusable without an addend
                }
            }
            let mode = if first { TagMode::Set } else { TagMode::Or };
            self.emit(MicroOp::Search {
                probes: vec![Probe::new(d_sub, keys)],
                gates: extra_gates,
                dest,
                mode,
            });
            first = false;
        }
        !first
    }

    /// Emits one group's bulk update at bit position `d_sub`, writing the
    /// destination bit and/or propagating a carry into subarray
    /// `d_sub + 1` (dropped past the MSB — wrapping arithmetic).
    fn group_update(&mut self, upd: &GroupUpdate, d_reg: usize, d_sub: usize, src: TagDest) {
        let cols = match src {
            TagDest::Tags => ColSel::Tags(d_sub),
            TagDest::Acc => ColSel::Acc(d_sub),
        };
        let mut writes = Vec::with_capacity(2);
        if let Some(v) = upd.write_d {
            writes.push(WriteSpec {
                subarray: d_sub,
                row: d_reg,
                value: v,
                cols,
            });
        }
        if upd.write_carry && d_sub + 1 < self.width {
            writes.push(WriteSpec {
                subarray: d_sub + 1,
                row: ROW_CARRY,
                value: true,
                cols,
            });
        }
        if !writes.is_empty() {
            self.emit(MicroOp::Update { writes });
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum MsltRhs {
    Reg(usize),
    Scalar(u32),
}

/// All-ones mask of the low `width` bits.
fn width_mask(width: usize) -> u32 {
    if width >= 32 {
        u32::MAX
    } else {
        (1u32 << width) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cape_csb::CsbGeometry;

    const VL: usize = 48; // 2 chains, partially filled second column

    fn csb_with(regs: &[(usize, &[u32])]) -> Csb {
        let mut csb = Csb::new(CsbGeometry::new(2));
        for (reg, vals) in regs {
            csb.write_vector(*reg, vals);
        }
        csb.set_active_window(0, VL.min(64));
        csb
    }

    fn sample_a() -> Vec<u32> {
        (0..VL as u32)
            .map(|i| i.wrapping_mul(0x9E37_79B9).rotate_left(7))
            .collect()
    }

    fn sample_b() -> Vec<u32> {
        (0..VL as u32)
            .map(|i| i.wrapping_mul(0x85EB_CA6B) ^ 0xDEAD_BEEF)
            .collect()
    }

    fn run(csb: &mut Csb, op: VectorOp) -> ExecOutcome {
        Sequencer::new(csb).execute(&op)
    }

    #[test]
    fn add_vv_matches_wrapping_add() {
        let (a, b) = (sample_a(), sample_b());
        let mut csb = csb_with(&[(1, &a), (2, &b)]);
        run(
            &mut csb,
            VectorOp::Add {
                vd: 3,
                vs1: 1,
                vs2: 2,
            },
        );
        let want: Vec<u32> = a.iter().zip(&b).map(|(x, y)| x.wrapping_add(*y)).collect();
        assert_eq!(csb.read_vector(3, VL), want);
        // Sources intact.
        assert_eq!(csb.read_vector(1, VL), a);
        assert_eq!(csb.read_vector(2, VL), b);
    }

    #[test]
    fn add_in_place_aliases() {
        let (a, b) = (sample_a(), sample_b());
        let want: Vec<u32> = a.iter().zip(&b).map(|(x, y)| x.wrapping_add(*y)).collect();
        // vd == vs1
        let mut csb = csb_with(&[(1, &a), (2, &b)]);
        run(
            &mut csb,
            VectorOp::Add {
                vd: 1,
                vs1: 1,
                vs2: 2,
            },
        );
        assert_eq!(csb.read_vector(1, VL), want);
        // vd == vs2
        let mut csb = csb_with(&[(1, &a), (2, &b)]);
        run(
            &mut csb,
            VectorOp::Add {
                vd: 2,
                vs1: 1,
                vs2: 2,
            },
        );
        assert_eq!(csb.read_vector(2, VL), want);
        // vd == vs1 == vs2 (doubling)
        let mut csb = csb_with(&[(1, &a)]);
        run(
            &mut csb,
            VectorOp::Add {
                vd: 1,
                vs1: 1,
                vs2: 1,
            },
        );
        let doubled: Vec<u32> = a.iter().map(|x| x.wrapping_add(*x)).collect();
        assert_eq!(csb.read_vector(1, VL), doubled);
    }

    #[test]
    fn add_vx_matches_scalar_add() {
        let a = sample_a();
        for rs in [0u32, 1, 0xFFFF_FFFF, 0x8000_0001] {
            let mut csb = csb_with(&[(1, &a)]);
            run(&mut csb, VectorOp::AddScalar { vd: 4, vs1: 1, rs });
            let want: Vec<u32> = a.iter().map(|x| x.wrapping_add(rs)).collect();
            assert_eq!(csb.read_vector(4, VL), want, "rs={rs:#x}");
        }
    }

    #[test]
    fn sub_vv_matches_wrapping_sub() {
        let (a, b) = (sample_a(), sample_b());
        let mut csb = csb_with(&[(1, &a), (2, &b)]);
        run(
            &mut csb,
            VectorOp::Sub {
                vd: 3,
                vs1: 1,
                vs2: 2,
            },
        );
        let want: Vec<u32> = a.iter().zip(&b).map(|(x, y)| x.wrapping_sub(*y)).collect();
        assert_eq!(csb.read_vector(3, VL), want);
    }

    #[test]
    fn sub_aliasing_cases() {
        let (a, b) = (sample_a(), sample_b());
        let want: Vec<u32> = a.iter().zip(&b).map(|(x, y)| x.wrapping_sub(*y)).collect();
        // vd == vs1 (in place)
        let mut csb = csb_with(&[(1, &a), (2, &b)]);
        run(
            &mut csb,
            VectorOp::Sub {
                vd: 1,
                vs1: 1,
                vs2: 2,
            },
        );
        assert_eq!(csb.read_vector(1, VL), want);
        // vd == vs2 (two's-complement path)
        let mut csb = csb_with(&[(1, &a), (2, &b)]);
        run(
            &mut csb,
            VectorOp::Sub {
                vd: 2,
                vs1: 1,
                vs2: 2,
            },
        );
        assert_eq!(csb.read_vector(2, VL), want);
        // x - x == 0
        let mut csb = csb_with(&[(1, &a)]);
        run(
            &mut csb,
            VectorOp::Sub {
                vd: 1,
                vs1: 1,
                vs2: 1,
            },
        );
        assert_eq!(csb.read_vector(1, VL), vec![0; VL]);
    }

    #[test]
    fn sub_vx_matches_scalar_sub() {
        let a = sample_a();
        let mut csb = csb_with(&[(1, &a)]);
        run(
            &mut csb,
            VectorOp::SubScalar {
                vd: 3,
                vs1: 1,
                rs: 0x1234_5678,
            },
        );
        let want: Vec<u32> = a.iter().map(|x| x.wrapping_sub(0x1234_5678)).collect();
        assert_eq!(csb.read_vector(3, VL), want);
    }

    #[test]
    fn mul_vv_matches_wrapping_mul() {
        let (a, b) = (sample_a(), sample_b());
        let mut csb = csb_with(&[(1, &a), (2, &b)]);
        run(
            &mut csb,
            VectorOp::Mul {
                vd: 3,
                vs1: 1,
                vs2: 2,
            },
        );
        let want: Vec<u32> = a.iter().zip(&b).map(|(x, y)| x.wrapping_mul(*y)).collect();
        assert_eq!(csb.read_vector(3, VL), want);
    }

    #[test]
    fn mul_vx_matches_scalar_mul() {
        let a = sample_a();
        for rs in [0u32, 1, 3, 0x8000_0000, 0xFFFF_FFFF] {
            let mut csb = csb_with(&[(1, &a)]);
            run(&mut csb, VectorOp::MulScalar { vd: 3, vs1: 1, rs });
            let want: Vec<u32> = a.iter().map(|x| x.wrapping_mul(rs)).collect();
            assert_eq!(csb.read_vector(3, VL), want, "rs={rs:#x}");
        }
    }

    #[test]
    #[should_panic(expected = "must not alias")]
    fn mul_rejects_aliased_destination() {
        let mut csb = csb_with(&[(1, &sample_a())]);
        run(
            &mut csb,
            VectorOp::Mul {
                vd: 1,
                vs1: 1,
                vs2: 2,
            },
        );
    }

    #[test]
    fn try_compile_surfaces_aliasing_as_typed_error() {
        // Every aliasing restriction must latch a typed error so a
        // long-running host can reject the one bad op without aborting.
        let cases: [(VectorOp, &str); 5] = [
            (
                VectorOp::Mul {
                    vd: 1,
                    vs1: 1,
                    vs2: 2,
                },
                "vmul",
            ),
            (
                VectorOp::MseqScalar {
                    vd: 4,
                    vs1: 4,
                    rs: 7,
                },
                "vmseq",
            ),
            (
                VectorOp::Mslt {
                    vd: 2,
                    vs1: 3,
                    vs2: 2,
                    signed: true,
                },
                "vmslt",
            ),
            (
                VectorOp::Macc {
                    vd: 5,
                    vs1: 5,
                    vs2: 6,
                },
                "vmacc",
            ),
            (
                VectorOp::MinMaxScalar {
                    vd: 7,
                    vs1: 7,
                    rs: 1,
                    max: true,
                    signed: false,
                },
                "vmax",
            ),
        ];
        for (op, mnemonic) in cases {
            let err = CompiledOp::try_compile(&op, 32).unwrap_err();
            match err {
                SequencerError::DestAliasesSource { mnemonic: m, .. } => {
                    assert_eq!(m, mnemonic, "{op:?}")
                }
                other => panic!("{op:?} produced {other:?}"),
            }
            assert!(err.to_string().contains("must not alias"), "{op:?}");
        }
    }

    #[test]
    fn try_compile_rejects_unsupported_width() {
        let op = VectorOp::Add {
            vd: 3,
            vs1: 1,
            vs2: 2,
        };
        assert_eq!(
            CompiledOp::try_compile(&op, 24),
            Err(SequencerError::UnsupportedWidth(24))
        );
        assert_eq!(
            SequencerError::UnsupportedWidth(24).to_string(),
            "SEW must be 8, 16 or 32"
        );
    }

    #[test]
    fn try_compile_matches_compile_on_valid_ops() {
        let op = VectorOp::Add {
            vd: 3,
            vs1: 1,
            vs2: 2,
        };
        assert_eq!(
            CompiledOp::try_compile(&op, 32).unwrap(),
            CompiledOp::compile(&op, 32)
        );
    }

    #[test]
    fn missing_addend_surfaces_as_error_not_panic() {
        // Drive the lowering helper directly with an addend-consuming
        // truth table but no addend — the shape the engine must survive.
        let mut builder = ProgramBuilder {
            ops: Vec::new(),
            width: 32,
            error: None,
        };
        builder.bit_serial(&BitSerialAlgorithm::adder(), 3, None, 0, &[]);
        assert_eq!(builder.error, Some(SequencerError::MissingAddend));
        assert_eq!(
            SequencerError::MissingAddend.to_string(),
            "truth table references an addend but none was supplied"
        );
    }

    #[test]
    fn logic_ops_match_bitwise_semantics() {
        let (a, b) = (sample_a(), sample_b());
        let mut csb = csb_with(&[(1, &a), (2, &b)]);
        run(
            &mut csb,
            VectorOp::And {
                vd: 3,
                vs1: 1,
                vs2: 2,
            },
        );
        run(
            &mut csb,
            VectorOp::Or {
                vd: 4,
                vs1: 1,
                vs2: 2,
            },
        );
        run(
            &mut csb,
            VectorOp::Xor {
                vd: 5,
                vs1: 1,
                vs2: 2,
            },
        );
        let and: Vec<u32> = a.iter().zip(&b).map(|(x, y)| x & y).collect();
        let or: Vec<u32> = a.iter().zip(&b).map(|(x, y)| x | y).collect();
        let xor: Vec<u32> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
        assert_eq!(csb.read_vector(3, VL), and);
        assert_eq!(csb.read_vector(4, VL), or);
        assert_eq!(csb.read_vector(5, VL), xor);
    }

    #[test]
    fn logic_ops_allow_aliasing() {
        let (a, b) = (sample_a(), sample_b());
        let mut csb = csb_with(&[(1, &a), (2, &b)]);
        run(
            &mut csb,
            VectorOp::Xor {
                vd: 1,
                vs1: 1,
                vs2: 2,
            },
        );
        let xor: Vec<u32> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
        assert_eq!(csb.read_vector(1, VL), xor);
    }

    #[test]
    fn logic_ops_are_cheap_and_bit_parallel() {
        let (a, b) = (sample_a(), sample_b());
        let mut csb = csb_with(&[(1, &a), (2, &b)]);
        let out = run(
            &mut csb,
            VectorOp::And {
                vd: 3,
                vs1: 1,
                vs2: 2,
            },
        );
        // Table I: vand executes in 3 cycles (1 search + 2 updates).
        assert_eq!(out.stats.total(), 3);
        assert_eq!(out.stats.searches_bp, 1);
        let out = run(
            &mut csb,
            VectorOp::Xor {
                vd: 3,
                vs1: 1,
                vs2: 2,
            },
        );
        // Table I: vxor executes in 4 cycles.
        assert_eq!(out.stats.total(), 4);
    }

    #[test]
    fn add_microop_count_tracks_paper_model() {
        let (a, b) = (sample_a(), sample_b());
        let mut csb = csb_with(&[(1, &a), (2, &b)]);
        let out = run(
            &mut csb,
            VectorOp::Add {
                vd: 1,
                vs1: 1,
                vs2: 2,
            },
        );
        // Paper models vadd as 8n+2 cycles; the emulated in-place sequence
        // is 8 microops per bit (the MSB drops its carry ops) plus carry
        // initialization.
        let total = out.stats.total();
        assert!(
            (8 * 32 - 10..=8 * 32 + 4).contains(&(total as i64)),
            "got {total}"
        );
    }

    #[test]
    fn mseq_vv_and_vx_build_equality_masks() {
        let mut a = sample_a();
        let mut b = a.clone();
        b[7] ^= 0x10;
        b[21] = 0;
        let mut csb = csb_with(&[(1, &a), (2, &b)]);
        run(
            &mut csb,
            VectorOp::Mseq {
                vd: 3,
                vs1: 1,
                vs2: 2,
            },
        );
        let mask = csb.read_vector(3, VL);
        for e in 0..VL {
            assert_eq!(mask[e] & 1 == 1, a[e] == b[e], "element {e}");
        }
        // vx form: search for a known key placed at a few positions.
        a[5] = 0xCAFE;
        a[13] = 0xCAFE;
        let mut csb = csb_with(&[(1, &a)]);
        run(
            &mut csb,
            VectorOp::MseqScalar {
                vd: 3,
                vs1: 1,
                rs: 0xCAFE,
            },
        );
        let mask = csb.read_vector(3, VL);
        for e in 0..VL {
            assert_eq!(mask[e] & 1 == 1, a[e] == 0xCAFE, "element {e}");
        }
    }

    #[test]
    fn mslt_signed_and_unsigned() {
        let a = sample_a();
        let b = sample_b();
        let mut csb = csb_with(&[(1, &a), (2, &b)]);
        run(
            &mut csb,
            VectorOp::Mslt {
                vd: 3,
                vs1: 1,
                vs2: 2,
                signed: false,
            },
        );
        run(
            &mut csb,
            VectorOp::Mslt {
                vd: 4,
                vs1: 1,
                vs2: 2,
                signed: true,
            },
        );
        let mu = csb.read_vector(3, VL);
        let ms = csb.read_vector(4, VL);
        for e in 0..VL {
            assert_eq!(mu[e] & 1 == 1, a[e] < b[e], "unsigned element {e}");
            assert_eq!(
                ms[e] & 1 == 1,
                (a[e] as i32) < (b[e] as i32),
                "signed element {e}"
            );
        }
    }

    #[test]
    fn mslt_vx_forms() {
        let a = sample_a();
        for rs in [0u32, 0x8000_0000, 0x7FFF_FFFF, 12345] {
            let mut csb = csb_with(&[(1, &a)]);
            run(
                &mut csb,
                VectorOp::MsltScalar {
                    vd: 3,
                    vs1: 1,
                    rs,
                    signed: false,
                },
            );
            run(
                &mut csb,
                VectorOp::MsltScalar {
                    vd: 4,
                    vs1: 1,
                    rs,
                    signed: true,
                },
            );
            let mu = csb.read_vector(3, VL);
            let ms = csb.read_vector(4, VL);
            for e in 0..VL {
                assert_eq!(mu[e] & 1 == 1, a[e] < rs, "unsigned e={e} rs={rs:#x}");
                assert_eq!(
                    ms[e] & 1 == 1,
                    (a[e] as i32) < (rs as i32),
                    "signed e={e} rs={rs:#x}"
                );
            }
        }
    }

    #[test]
    fn mslt_equal_elements_are_not_less() {
        let a = sample_a();
        let mut csb = csb_with(&[(1, &a), (2, &a)]);
        run(
            &mut csb,
            VectorOp::Mslt {
                vd: 3,
                vs1: 1,
                vs2: 2,
                signed: true,
            },
        );
        assert!(csb.read_vector(3, VL).iter().all(|&m| m & 1 == 0));
    }

    #[test]
    fn merge_selects_by_mask() {
        let (a, b) = (sample_a(), sample_b());
        let mask: Vec<u32> = (0..VL as u32).map(|i| u32::from(i % 3 == 0)).collect();
        let mut csb = csb_with(&[(0, &mask), (1, &a), (2, &b)]);
        let out = run(
            &mut csb,
            VectorOp::Merge {
                vd: 3,
                vs1: 1,
                vs2: 2,
            },
        );
        // Table I: vmerge completes in 4 cycles.
        assert_eq!(out.stats.total(), 4);
        let got = csb.read_vector(3, VL);
        for e in 0..VL {
            let want = if mask[e] & 1 == 1 { a[e] } else { b[e] };
            assert_eq!(got[e], want, "element {e}");
        }
    }

    #[test]
    fn redsum_matches_wrapping_sum_and_writes_element_zero() {
        let a = sample_a();
        let mut csb = csb_with(&[(1, &a)]);
        let out = run(&mut csb, VectorOp::RedSum { vd: 5, vs: 1 });
        let want: u32 = a.iter().fold(0u32, |s, &x| s.wrapping_add(x));
        assert_eq!(out.scalar, Some(i64::from(want)));
        assert_eq!(csb.read_element(5, 0), want);
        // n searches + n reduces.
        assert_eq!(out.stats.reduces, 32);
        assert_eq!(out.stats.searches(), 32);
    }

    #[test]
    fn redsum_respects_active_window() {
        let a = vec![5u32; 64];
        let mut csb = Csb::new(CsbGeometry::new(2));
        csb.write_vector(1, &a);
        csb.set_active_window(0, 10);
        let out = run(&mut csb, VectorOp::RedSum { vd: 5, vs: 1 });
        assert_eq!(out.scalar, Some(50));
    }

    #[test]
    fn cpop_and_first_query_masks() {
        let mask: Vec<u32> = (0..VL as u32)
            .map(|i| u32::from(i == 9 || i == 30))
            .collect();
        let mut csb = csb_with(&[(2, &mask)]);
        assert_eq!(run(&mut csb, VectorOp::Cpop { vs: 2 }).scalar, Some(2));
        assert_eq!(run(&mut csb, VectorOp::First { vs: 2 }).scalar, Some(9));
        let zero = vec![0u32; VL];
        let mut csb = csb_with(&[(2, &zero)]);
        assert_eq!(run(&mut csb, VectorOp::First { vs: 2 }).scalar, Some(-1));
    }

    #[test]
    fn broadcast_is_one_microop() {
        let mut csb = csb_with(&[]);
        let out = run(
            &mut csb,
            VectorOp::Broadcast {
                vd: 7,
                rs: 0x1357_9BDF,
            },
        );
        assert_eq!(out.stats.total(), 1);
        assert_eq!(csb.read_vector(7, VL), vec![0x1357_9BDF; VL]);
    }

    #[test]
    fn shifts_match_logical_semantics() {
        let a = sample_a();
        for sh in [0u32, 1, 7, 31, 32] {
            let mut csb = csb_with(&[(1, &a)]);
            run(&mut csb, VectorOp::ShiftLeft { vd: 3, vs: 1, sh });
            run(&mut csb, VectorOp::ShiftRight { vd: 4, vs: 1, sh });
            let wl: Vec<u32> = a
                .iter()
                .map(|&x| if sh < 32 { x << sh } else { 0 })
                .collect();
            let wr: Vec<u32> = a
                .iter()
                .map(|&x| if sh < 32 { x >> sh } else { 0 })
                .collect();
            assert_eq!(csb.read_vector(3, VL), wl, "sll sh={sh}");
            assert_eq!(csb.read_vector(4, VL), wr, "srl sh={sh}");
        }
    }

    #[test]
    fn vid_writes_element_indices() {
        let mut csb = csb_with(&[]);
        run(&mut csb, VectorOp::Vid { vd: 6 });
        let got = csb.read_vector(6, VL);
        assert!(got.iter().enumerate().all(|(i, &v)| v == i as u32));
    }

    #[test]
    fn increment_matches_figure_one() {
        let a = vec![0u32, 1, 2, 3, u32::MAX, 0x7FFF_FFFF];
        let mut csb = csb_with(&[(1, &a)]);
        csb.set_active_window(0, a.len());
        run(&mut csb, VectorOp::Increment { vd: 1 });
        let want: Vec<u32> = a.iter().map(|x| x.wrapping_add(1)).collect();
        assert_eq!(csb.read_vector(1, a.len()), want);
    }

    #[test]
    fn operations_respect_vstart() {
        let (a, b) = (sample_a(), sample_b());
        let mut csb = csb_with(&[(1, &a), (2, &b), (3, &[0xABCD; VL])]);
        csb.set_active_window(4, 20);
        run(
            &mut csb,
            VectorOp::Add {
                vd: 3,
                vs1: 1,
                vs2: 2,
            },
        );
        let got = csb.read_vector(3, VL);
        for e in 0..VL {
            if (4..20).contains(&e) {
                assert_eq!(got[e], a[e].wrapping_add(b[e]), "active element {e}");
            } else {
                assert_eq!(got[e], 0xABCD, "inactive element {e} must be untouched");
            }
        }
    }

    #[test]
    fn logic_scalar_forms_match_bitwise_semantics() {
        let a = sample_a();
        for rs in [0u32, u32::MAX, 0xF0F0_A5A5, 1] {
            let mut csb = csb_with(&[(1, &a)]);
            run(
                &mut csb,
                VectorOp::LogicScalar {
                    op: crate::vop::LogicOp::And,
                    vd: 3,
                    vs1: 1,
                    rs,
                },
            );
            run(
                &mut csb,
                VectorOp::LogicScalar {
                    op: crate::vop::LogicOp::Or,
                    vd: 4,
                    vs1: 1,
                    rs,
                },
            );
            run(
                &mut csb,
                VectorOp::LogicScalar {
                    op: crate::vop::LogicOp::Xor,
                    vd: 5,
                    vs1: 1,
                    rs,
                },
            );
            let (and, or, xor) = (
                csb.read_vector(3, VL),
                csb.read_vector(4, VL),
                csb.read_vector(5, VL),
            );
            for e in 0..VL {
                assert_eq!(and[e], a[e] & rs, "and rs={rs:#x} e={e}");
                assert_eq!(or[e], a[e] | rs, "or rs={rs:#x} e={e}");
                assert_eq!(xor[e], a[e] ^ rs, "xor rs={rs:#x} e={e}");
            }
        }
    }

    #[test]
    fn logic_scalar_stays_bit_parallel_cheap() {
        let a = sample_a();
        let mut csb = csb_with(&[(1, &a)]);
        let out = run(
            &mut csb,
            VectorOp::LogicScalar {
                op: crate::vop::LogicOp::Xor,
                vd: 3,
                vs1: 1,
                rs: 0x1234_5678,
            },
        );
        assert!(out.stats.total() <= 4, "{}", out.stats.total());
    }

    #[test]
    fn msne_is_the_complement_of_mseq() {
        let a = sample_a();
        let mut b = a.clone();
        b[3] ^= 1;
        let mut csb = csb_with(&[(1, &a), (2, &b)]);
        run(
            &mut csb,
            VectorOp::Msne {
                vd: 3,
                vs1: 1,
                vs2: 2,
            },
        );
        run(
            &mut csb,
            VectorOp::MsneScalar {
                vd: 4,
                vs1: 1,
                rs: a[7],
            },
        );
        for e in 0..VL {
            assert_eq!(csb.read_element(3, e) & 1 == 1, a[e] != b[e], "vv e={e}");
            assert_eq!(csb.read_element(4, e) & 1 == 1, a[e] != a[7], "vx e={e}");
        }
    }

    #[test]
    fn min_max_all_variants() {
        let (a, b) = (sample_a(), sample_b());
        let mut csb = csb_with(&[(1, &a), (2, &b)]);
        run(
            &mut csb,
            VectorOp::MinMax {
                vd: 3,
                vs1: 1,
                vs2: 2,
                max: false,
                signed: false,
            },
        );
        run(
            &mut csb,
            VectorOp::MinMax {
                vd: 4,
                vs1: 1,
                vs2: 2,
                max: true,
                signed: false,
            },
        );
        run(
            &mut csb,
            VectorOp::MinMax {
                vd: 5,
                vs1: 1,
                vs2: 2,
                max: false,
                signed: true,
            },
        );
        run(
            &mut csb,
            VectorOp::MinMax {
                vd: 6,
                vs1: 1,
                vs2: 2,
                max: true,
                signed: true,
            },
        );
        for e in 0..VL {
            assert_eq!(csb.read_element(3, e), a[e].min(b[e]), "minu e={e}");
            assert_eq!(csb.read_element(4, e), a[e].max(b[e]), "maxu e={e}");
            assert_eq!(
                csb.read_element(5, e) as i32,
                (a[e] as i32).min(b[e] as i32),
                "min e={e}"
            );
            assert_eq!(
                csb.read_element(6, e) as i32,
                (a[e] as i32).max(b[e] as i32),
                "max e={e}"
            );
        }
    }

    #[test]
    fn min_max_scalar_variants() {
        let a = sample_a();
        for rs in [0u32, 0x8000_0000, 12345] {
            let mut csb = csb_with(&[(1, &a)]);
            run(
                &mut csb,
                VectorOp::MinMaxScalar {
                    vd: 3,
                    vs1: 1,
                    rs,
                    max: false,
                    signed: false,
                },
            );
            run(
                &mut csb,
                VectorOp::MinMaxScalar {
                    vd: 4,
                    vs1: 1,
                    rs,
                    max: true,
                    signed: true,
                },
            );
            for (e, &av) in a.iter().enumerate().take(VL) {
                assert_eq!(csb.read_element(3, e), av.min(rs), "minu rs={rs:#x}");
                assert_eq!(
                    csb.read_element(4, e) as i32,
                    (av as i32).max(rs as i32),
                    "max rs={rs:#x}"
                );
            }
        }
    }

    #[test]
    fn min_max_tolerates_destination_aliasing() {
        let (a, b) = (sample_a(), sample_b());
        let mut csb = csb_with(&[(1, &a), (2, &b)]);
        run(
            &mut csb,
            VectorOp::MinMax {
                vd: 1,
                vs1: 1,
                vs2: 2,
                max: false,
                signed: false,
            },
        );
        let want: Vec<u32> = a.iter().zip(&b).map(|(&x, &y)| x.min(y)).collect();
        assert_eq!(csb.read_vector(1, VL), want);
    }

    #[test]
    fn rsub_reverses_subtraction() {
        let a = sample_a();
        let mut csb = csb_with(&[(1, &a)]);
        run(
            &mut csb,
            VectorOp::RsubScalar {
                vd: 3,
                vs1: 1,
                rs: 1000,
            },
        );
        let want: Vec<u32> = a.iter().map(|&x| 1000u32.wrapping_sub(x)).collect();
        assert_eq!(csb.read_vector(3, VL), want);
        // In place.
        let mut csb = csb_with(&[(1, &a)]);
        run(
            &mut csb,
            VectorOp::RsubScalar {
                vd: 1,
                vs1: 1,
                rs: 7,
            },
        );
        let want: Vec<u32> = a.iter().map(|&x| 7u32.wrapping_sub(x)).collect();
        assert_eq!(csb.read_vector(1, VL), want);
    }

    #[test]
    fn macc_accumulates_products() {
        let (a, b) = (sample_a(), sample_b());
        let acc: Vec<u32> = (0..VL as u32).map(|i| i * 11).collect();
        let mut csb = csb_with(&[(1, &a), (2, &b), (3, &acc)]);
        run(
            &mut csb,
            VectorOp::Macc {
                vd: 3,
                vs1: 1,
                vs2: 2,
            },
        );
        let want: Vec<u32> = (0..VL)
            .map(|e| acc[e].wrapping_add(a[e].wrapping_mul(b[e])))
            .collect();
        assert_eq!(csb.read_vector(3, VL), want);
    }

    #[test]
    fn mv_copies_registers() {
        let a = sample_a();
        let mut csb = csb_with(&[(1, &a)]);
        let out = run(&mut csb, VectorOp::Mv { vd: 9, vs: 1 });
        assert_eq!(csb.read_vector(9, VL), a);
        assert!(out.stats.total() <= 3);
    }

    #[test]
    fn sra_matches_arithmetic_shift() {
        let a = sample_a();
        for sh in [0u32, 1, 7, 31, 32] {
            let mut csb = csb_with(&[(1, &a)]);
            run(&mut csb, VectorOp::ShiftRightArith { vd: 3, vs: 1, sh });
            let want: Vec<u32> = a
                .iter()
                .map(|&x| {
                    let sh = sh.min(31);
                    ((x as i32) >> sh) as u32
                })
                .collect();
            assert_eq!(csb.read_vector(3, VL), want, "sra sh={sh}");
        }
    }

    // ----- narrow element widths (SEW = 8/16, Section V-A) -------------

    fn run_w(csb: &mut Csb, width: usize, op: VectorOp) -> ExecOutcome {
        Sequencer::with_width(csb, width).execute(&op)
    }

    #[test]
    fn narrow_add_wraps_at_the_element_width() {
        let a: Vec<u32> = (0..VL as u32).map(|i| (i * 37) & 0xFF).collect();
        let b: Vec<u32> = (0..VL as u32).map(|i| (i * 91) & 0xFF).collect();
        let mut csb = csb_with(&[(1, &a), (2, &b)]);
        run_w(
            &mut csb,
            8,
            VectorOp::Add {
                vd: 3,
                vs1: 1,
                vs2: 2,
            },
        );
        for e in 0..VL {
            assert_eq!(csb.read_element(3, e), (a[e] + b[e]) & 0xFF, "e={e}");
        }
    }

    #[test]
    fn narrow_add_is_faster_than_wide() {
        let a: Vec<u32> = vec![0x55; VL];
        let mut csb = csb_with(&[(1, &a), (2, &a)]);
        let w8 = run_w(
            &mut csb,
            8,
            VectorOp::Add {
                vd: 3,
                vs1: 1,
                vs2: 2,
            },
        )
        .stats
        .total();
        let w32 = run_w(
            &mut csb,
            32,
            VectorOp::Add {
                vd: 4,
                vs1: 1,
                vs2: 2,
            },
        )
        .stats
        .total();
        assert!(w8 * 3 < w32, "8-bit {w8} vs 32-bit {w32}");
    }

    #[test]
    fn narrow_mul_and_redsum() {
        let a: Vec<u32> = (0..VL as u32).map(|i| i & 0xFF).collect();
        let b: Vec<u32> = (0..VL as u32).map(|i| (255 - i) & 0xFF).collect();
        let mut csb = csb_with(&[(1, &a), (2, &b)]);
        run_w(
            &mut csb,
            8,
            VectorOp::Mul {
                vd: 3,
                vs1: 1,
                vs2: 2,
            },
        );
        for e in 0..VL {
            assert_eq!(csb.read_element(3, e), (a[e] * b[e]) & 0xFF, "mul e={e}");
        }
        let out = run_w(&mut csb, 16, VectorOp::RedSum { vd: 4, vs: 1 });
        let want = a.iter().sum::<u32>() & 0xFFFF;
        assert_eq!(out.scalar, Some(i64::from(want)));
    }

    #[test]
    fn narrow_comparisons_use_the_narrow_sign_bit() {
        let a: Vec<u32> = vec![0x80, 0x7F, 0x01, 0xFF];
        let b: Vec<u32> = vec![0x01, 0x80, 0x02, 0x00];
        let mut csb = csb_with(&[(1, &a), (2, &b)]);
        csb.set_active_window(0, 4);
        run_w(
            &mut csb,
            8,
            VectorOp::Mslt {
                vd: 3,
                vs1: 1,
                vs2: 2,
                signed: true,
            },
        );
        run_w(
            &mut csb,
            8,
            VectorOp::Mslt {
                vd: 4,
                vs1: 1,
                vs2: 2,
                signed: false,
            },
        );
        for e in 0..4 {
            let (x, y) = (a[e] as u8 as i8, b[e] as u8 as i8);
            assert_eq!(csb.read_element(3, e) & 1 == 1, x < y, "signed e={e}");
            assert_eq!(
                csb.read_element(4, e) & 1 == 1,
                (a[e] as u8) < (b[e] as u8),
                "unsigned e={e}"
            );
        }
    }

    #[test]
    fn narrow_results_are_zero_extended() {
        // Stale wide bits in vd must be cleared by narrow writes.
        let wide: Vec<u32> = vec![0xFFFF_FFFF; VL];
        let small: Vec<u32> = vec![3; VL];
        let mut csb = csb_with(&[(1, &small), (2, &small), (3, &wide)]);
        run_w(
            &mut csb,
            8,
            VectorOp::Add {
                vd: 3,
                vs1: 1,
                vs2: 2,
            },
        );
        assert_eq!(csb.read_vector(3, VL), vec![6u32; VL]);
    }

    #[test]
    fn narrow_broadcast_and_shift() {
        let mut csb = csb_with(&[]);
        run_w(
            &mut csb,
            16,
            VectorOp::Broadcast {
                vd: 1,
                rs: 0xABCD_1234,
            },
        );
        assert_eq!(csb.read_element(1, 0), 0x1234);
        run_w(
            &mut csb,
            16,
            VectorOp::ShiftLeft {
                vd: 2,
                vs: 1,
                sh: 4,
            },
        );
        assert_eq!(csb.read_element(2, 0), 0x2340);
    }
}
