//! # tinyevm-analysis
//!
//! Static bytecode analysis for TinyEVM, in the spirit of upload-time code
//! validation in `frame/revive`: decode a contract **once** into basic
//! blocks, derive everything the runtime repeatedly needs (jumpdest
//! bitmaps, per-block static gas and stack effects), and judge the code
//! with a typed verdict *before* it reaches a constrained device.
//!
//! The crate sits directly above `tinyevm-crypto` in the layer stack and
//! below `tinyevm-evm`: it owns the opcode table (re-exported by the EVM
//! crate) and knows nothing about execution state, so the channel layer's
//! deployment gate can use it without pulling in the interpreter.
//!
//! Three consumers:
//!
//! * the **interpreter** batches gas/instruction-limit checks at
//!   basic-block entry. Frames that run code many times borrow a shared
//!   [`CodeAnalysis`] (via [`AnalysisCache`], keyed by code hash); frames
//!   that run code once — init code above all — decode blocks on first
//!   entry through [`LazyBlocks`], which shares [`analyze`]'s block decoder
//!   and jumpdest scan;
//! * the **deploy-time gate** (`tinyevm-evm`'s `deploy` module and its
//!   contract store) rejects code whose verdict is [`Verdict::Rejected`];
//! * the **fleet gate** (channel endpoints) refuses to install statically
//!   invalid contract templates, and the experiments harness tabulates
//!   verdicts over the whole contract corpus.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyzer;
mod blocks;
pub mod cache;
pub mod certificate;
pub mod opcode;
mod symbolic;

pub use analyzer::{analyze, AnalysisError, CodeAnalysis, Diagnostic, UnprovenReason, Verdict};
pub use blocks::{push_word, BasicBlock, BlockExit, Instruction, LazyBlocks};
pub use cache::AnalysisCache;
pub use certificate::GasCertificate;
pub use opcode::{Opcode, OpcodeCategory, OpcodeInfo};
