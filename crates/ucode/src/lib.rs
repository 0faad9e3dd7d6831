//! Associative algorithms and the microcode sequencer that drives CAPE's
//! Compute-Storage Block.
//!
//! The Vector Control Unit (VCU) breaks every RISC-V vector instruction
//! into a sequence of CSB microoperations — searches, updates, reads,
//! writes and reductions (Section V-D of the CAPE paper, HPCA 2021). The
//! *shape* of that sequence is an **associative algorithm**: a truth table
//! walked bit-serially (arithmetic), a handful of bit-parallel
//! search/update pairs (logic), or a search feeding the reduction tree
//! (`vredsum`).
//!
//! This crate provides:
//!
//! * [`VectorOp`] — the operation set the VCU accepts (the semantic layer
//!   under the RISC-V vector instructions of `cape-isa`).
//! * [`truth_table`] — the symbolic truth-table representation stored in
//!   each chain controller's truth-table memory (TTM), including the
//!   packed binary encoding distributed over the command bus.
//! * [`CompiledOp`] — a [`VectorOp`] lowered to the exact microop
//!   program the hardware would emit, plus its post-processing step; a
//!   pure function of the operation and the element width, so the VCU
//!   caches it.
//! * [`Sequencer`] — runs a compiled program against a
//!   [`Csb`](cape_csb::Csb) as one broadcast
//!   ([`Csb::execute_program`](cape_csb::Csb::execute_program), the
//!   CSB's only broadcast path) and returns per-instruction microop
//!   statistics.
//! * [`fuse_window`] — several compiled operations fused into one
//!   broadcast program (the VCU caches these too, keyed by
//!   `cape_vcu::window_fingerprint`).
//! * [`metrics`] — Table I of the paper (per-instruction truth-table
//!   entries, active rows, cycle counts and energy), both the published
//!   values and the values measured from this emulator.
//!
//! # Example
//!
//! ```
//! use cape_csb::{Csb, CsbGeometry};
//! use cape_ucode::{Sequencer, VectorOp};
//!
//! let mut csb = Csb::new(CsbGeometry::new(2));
//! csb.write_vector(1, &[10, 20, 30]);
//! csb.write_vector(2, &[1, 2, 3]);
//! csb.set_active_window(0, 3);
//!
//! let mut seq = Sequencer::new(&mut csb);
//! seq.execute(&VectorOp::Add { vd: 3, vs1: 1, vs2: 2 });
//! assert_eq!(csb.read_vector(3, 3), vec![11, 22, 33]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod truth_table;

mod sequencer;
mod vop;
mod window;

pub use sequencer::{CompiledOp, ExecOutcome, PostProcess, Sequencer, SequencerError};
pub use vop::{LogicOp, VectorOp, VectorOpKind};
pub use window::fuse_window;
