//! The customized Ethereum Virtual Machine at the heart of TinyEVM.
//!
//! This crate is the paper's primary contribution: an EVM that keeps the
//! 256-bit word size (so unmodified Ethereum bytecode runs), but is adapted
//! to a low-power IoT device:
//!
//! * **Resource-limited** — stack, random-access memory, bytecode size and
//!   off-chain storage are bounded by an [`EvmConfig`] profile; the default
//!   [`EvmConfig::cc2538`] profile mirrors the paper's 3 KB stack / 8 KB RAM
//!   / 8 KB code / 1 KB storage allocation.
//! * **Off-chain** — gas metering is disabled ([`GasMode::Unmetered`]) and
//!   the six blockchain-information opcodes trap, because there is no chain
//!   to ask during local execution. A metered mode is retained for the
//!   on-chain template contract run by `tinyevm-chain`.
//! * **IoT-extended** — the unused opcode `0x0C` is repurposed as the
//!   [`IOT` opcode](opcode::Opcode::Iot): contracts can read sensors and
//!   drive actuators through the host's [`IotEnvironment`].
//!
//! The crate also ships an [`asm`] assembler/disassembler used by the test
//! suite, the contract corpus generator and the examples, and a
//! [`deploy`](mod@deploy) module implementing constructor-style contract deployment with
//! the metrics (peak stack pointer, memory high-water mark, executed
//! instruction histogram) that the paper's evaluation reports.
//!
//! # Example
//!
//! ```
//! use tinyevm_evm::{asm, Evm, EvmConfig, ExecOutcome};
//!
//! // PUSH1 21, PUSH1 2, MUL, PUSH1 0, MSTORE, PUSH1 32, PUSH1 0, RETURN
//! let code = asm::assemble(
//!     "PUSH1 0x15 PUSH1 0x02 MUL PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN",
//! ).unwrap();
//! let mut evm = Evm::new(EvmConfig::cc2538());
//! let result = evm.execute(&code, &[]).unwrap();
//! assert_eq!(result.outcome, ExecOutcome::Return);
//! assert_eq!(result.output[31], 42);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
pub mod config;
pub mod deploy;
pub mod error;
pub mod host;
pub mod interpreter;
pub mod iot;
pub mod memory;
pub mod metrics;
pub mod stack;
pub mod storage;

/// The opcode table now lives in `tinyevm-analysis` (the static analyzer
/// needs it without depending on the interpreter); re-exported here so
/// `tinyevm_evm::opcode::*` paths keep working.
pub use tinyevm_analysis::opcode;

pub use config::{EvmConfig, GasMode};
pub use deploy::{deploy, deploy_with, DeployError, DeployResult};
pub use error::{ExecError, TrapReason};
pub use host::{CallOutcome, ContractStore, Host, NullHost};
pub use interpreter::{CallContext, Evm, ExecOutcome, ExecResult};
pub use iot::{IotEnvironment, IotRequest, NullIotEnvironment, ScriptedSensors};
pub use metrics::ExecMetrics;
pub use opcode::{Opcode, OpcodeCategory, OpcodeInfo};
pub use stack::Stack;
pub use storage::{SideChainStorage, WordStorage};
