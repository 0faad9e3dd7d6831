//! RISC-V instruction-set layer for CAPE: RV64I/M scalar subset plus the
//! standard vector extension subset CAPE implements (Section V-A of the
//! paper), with binary encode/decode, a text assembler, and a program
//! builder with label resolution.
//!
//! CAPE is programmed with *standard* RISC-V vector code — that is the
//! paper's programmability claim — so this crate deliberately mirrors the
//! RV32/RV64 encoding formats (R/I/S/B/U/J types and the OP-V major
//! opcode). One instruction is CAPE-specific: the replica vector load
//! `vlrw.v vd, rs1, rs2` (Section V-G), encoded on the *custom-0* major
//! opcode as the paper suggests for vendor extensions.
//!
//! # Example
//!
//! ```
//! use cape_isa::{Instr, Program, Reg, VReg};
//!
//! let mut p = Program::builder();
//! p.li(Reg::T0, 1024);
//! p.vsetvli(Reg::T1, Reg::T0);
//! p.vadd_vv(VReg::V3, VReg::V1, VReg::V2);
//! p.halt();
//! let prog = p.build().unwrap();
//! assert_eq!(prog.len(), 4);
//!
//! // Instructions round-trip through the binary encoding.
//! let word = prog.instr(2).encode();
//! assert_eq!(Instr::decode(word).unwrap(), *prog.instr(2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod asm;
mod encode;
mod fnv;
mod instr;
mod program;
mod reg;

pub use asm::{assemble, AsmError};
pub use encode::{DecodeError, EncodeError};
pub use fnv::{fnv1a_words, Fnv1a};
pub use instr::{AluOp, BranchCond, Instr, Sew, VAluOp};
pub use program::{Program, ProgramBuilder, ProgramError};
pub use reg::{Reg, VReg};
