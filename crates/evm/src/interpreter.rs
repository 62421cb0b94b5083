//! The TinyEVM bytecode interpreter.
//!
//! Frames take their jumpdest bitmap and basic blocks from one of two
//! sources in `tinyevm-analysis`, picked by the entry point:
//!
//! * [`Evm::execute_analyzed`] borrows a shared [`CodeAnalysis`], which
//!   callers that run the same code many times (the contract store) analyze
//!   once and cache;
//! * [`Evm::execute_in_frame`] and the conveniences over it run code once
//!   (init code above all), so they decode each block the first time the
//!   frame enters it, through [`LazyBlocks`], and skip the whole-code
//!   analysis.
//!
//! Either way, basic blocks are accounted *per block*. At block entry one
//! check each covers the instruction limit, the gas, and the stack: the
//! entry depth must be at least the block's `stack_required`, and the
//! depth plus its `max_stack_growth` must fit the limit. The entry then
//! charges the block's instructions, cycles and gas, raises the stack's
//! high-water mark to `depth + max_stack_growth`, and bumps the frame's
//! entry count for the block. The block then runs as one tight loop over
//! its pre-decoded instruction stream: pushes take their ready immediate,
//! and every other opcode goes through `step`, the one implementation of
//! opcode semantics, with no per-instruction pc, decode, budget or
//! stack-depth check (`Stack`'s data operations are unchecked).
//!
//! Hoisting the stack checks is exact. Only net +1 opcodes (`PUSHn`,
//! `DUPn` and the zero-input getters) can overflow, and none of them can
//! trap before its push, so checking room before an opcode runs (per
//! opcode) or before a block runs (per block) traps exactly where the
//! push would. A batched block either completes, and its pushes reach
//! exactly `entry + max_stack_growth`, or it traps, and a trap reports no
//! high-water mark. The opcode histogram is not updated per entry either:
//! the frame folds its entry counts × each block's stream into it once,
//! when the frame ends.
//!
//! If a batched block traps before its last instruction (memory, storage,
//! hashing, calldata, copy, log or IoT opcodes can), the trap folds the
//! histogram and then refunds the stream's instructions after the trapping
//! one. Five cases fall back to the per-opcode path, which checks every
//! opcode's budgets and stack depth in a preamble: blocks with a call or
//! `CREATE` before their last instruction (the sub-frame adds instructions
//! mid-block), blocks whose budgets are nearly exhausted, blocks ending at
//! an undefined byte, blocks with off-chain-removed opcodes, and blocks
//! with a metered `GAS`. Execution results, gas accounting, [`ExecMetrics`],
//! trap PCs and retired-instruction counts stay byte-identical to
//! per-opcode interpretation (`EvmConfig::per_op_metering` forces the
//! per-opcode path everywhere for differential testing).

use tinyevm_analysis::{push_word, BasicBlock, BlockExit, CodeAnalysis, Instruction, LazyBlocks};
use tinyevm_trace::{TraceEvent, TraceHandle};
use tinyevm_types::{Address, I256, U256};

use crate::config::{EvmConfig, GasMode};
use crate::error::{ExecError, TrapReason};
use crate::host::{CallKind, CallRequest, Host, LogEntry, NullHost};
use crate::iot::{IotEnvironment, IotRequest, NullIotEnvironment};
use crate::memory::Memory;
use crate::metrics::ExecMetrics;
use crate::opcode::Opcode;
use crate::stack::Stack;
use crate::storage::{SideChainStorage, StorageBackend};

/// Identity and inputs of one execution frame.
#[derive(Debug, Clone)]
pub struct CallContext {
    /// The executing contract's own address (`ADDRESS`).
    pub address: Address,
    /// The immediate caller (`CALLER`).
    pub caller: Address,
    /// The transaction originator (`ORIGIN`).
    pub origin: Address,
    /// Value transferred with the call (`CALLVALUE`).
    pub call_value: U256,
    /// Call data bytes.
    pub call_data: Vec<u8>,
}

impl Default for CallContext {
    fn default() -> Self {
        CallContext {
            address: Address::ZERO,
            caller: Address::ZERO,
            origin: Address::ZERO,
            call_value: U256::ZERO,
            call_data: Vec::new(),
        }
    }
}

/// How a frame finished (traps are reported as [`ExecError`] instead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecOutcome {
    /// `STOP` or running off the end of the code.
    Stop,
    /// `RETURN` with output data.
    Return,
    /// `REVERT` with revert data; state changes must be discarded.
    Revert,
    /// `SELFDESTRUCT`.
    SelfDestruct,
}

/// The result of a completed (non-trapping) frame.
#[derive(Debug, Clone)]
pub struct ExecResult {
    /// How the frame finished.
    pub outcome: ExecOutcome,
    /// Return or revert data.
    pub output: Vec<u8>,
    /// Metrics collected over the frame and its sub-frames.
    pub metrics: ExecMetrics,
}

impl ExecResult {
    /// True unless the frame reverted.
    pub fn is_success(&self) -> bool {
        self.outcome != ExecOutcome::Revert
    }
}

/// The TinyEVM virtual machine.
///
/// An [`Evm`] value is little more than a configuration; each call to an
/// `execute*` method runs one frame with fresh stack and memory, which is
/// exactly how the MCU implementation works (a static arena reused per
/// execution).
///
/// # Example
///
/// ```
/// use tinyevm_evm::{asm, Evm, EvmConfig};
///
/// let code = asm::assemble("PUSH1 0x05 PUSH1 0x07 ADD PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN").unwrap();
/// let mut evm = Evm::new(EvmConfig::cc2538());
/// let result = evm.execute(&code, &[]).unwrap();
/// assert_eq!(result.output[31], 12);
/// ```
#[derive(Debug, Clone)]
pub struct Evm {
    config: EvmConfig,
    tracer: TraceHandle,
}

impl Evm {
    /// Creates a machine with the given resource profile.
    pub fn new(config: EvmConfig) -> Self {
        Evm {
            config,
            tracer: TraceHandle::default(),
        }
    }

    /// Attaches a tracer: every completed frame publishes a
    /// [`TraceEvent::ContractCall`] with the opcode-category cycle
    /// breakdown. The default handle is a no-op.
    pub fn with_tracer(mut self, tracer: TraceHandle) -> Self {
        self.tracer = tracer;
        self
    }

    /// The machine's configuration.
    pub fn config(&self) -> &EvmConfig {
        &self.config
    }

    /// Executes `code` standalone: default context, fresh side-chain
    /// storage, no host accounts, no IoT peripherals.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] if the execution traps.
    pub fn execute(&mut self, code: &[u8], call_data: &[u8]) -> Result<ExecResult, ExecError> {
        let mut storage = SideChainStorage::new(self.config.max_storage_bytes);
        let mut host = NullHost::new();
        let mut iot = NullIotEnvironment;
        let context = CallContext {
            call_data: call_data.to_vec(),
            ..CallContext::default()
        };
        let depth = self.config.max_call_depth;
        self.execute_in_frame(
            code,
            context,
            &mut storage,
            &mut host,
            &mut iot,
            false,
            depth,
        )
    }

    /// Executes `code` standalone but with an IoT environment, so contracts
    /// using the `0x0C` opcode can reach sensors and actuators.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] if the execution traps.
    pub fn execute_with_iot(
        &mut self,
        code: &[u8],
        call_data: &[u8],
        iot: &mut dyn IotEnvironment,
    ) -> Result<ExecResult, ExecError> {
        let mut storage = SideChainStorage::new(self.config.max_storage_bytes);
        let mut host = NullHost::new();
        let context = CallContext {
            call_data: call_data.to_vec(),
            ..CallContext::default()
        };
        let depth = self.config.max_call_depth;
        self.execute_in_frame(code, context, &mut storage, &mut host, iot, false, depth)
    }

    /// Executes one frame with explicit storage, host and IoT environment.
    ///
    /// This is the entry point for code that runs once, such as a
    /// constructor: instead of analyzing the whole code up front, the frame
    /// decodes each basic block the first time it enters it. `execute`,
    /// `execute_with_iot` and `deploy_with` go through it; code that runs
    /// many times belongs on [`Evm::execute_analyzed`].
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] if the execution traps (resource exhaustion,
    /// invalid jump, unsupported opcode, and so on).
    #[allow(clippy::too_many_arguments)]
    pub fn execute_in_frame(
        &mut self,
        code: &[u8],
        context: CallContext,
        storage: &mut dyn StorageBackend,
        host: &mut dyn Host,
        iot: &mut dyn IotEnvironment,
        static_mode: bool,
        depth_remaining: usize,
    ) -> Result<ExecResult, ExecError> {
        self.run_frame(
            code,
            Blocks::Lazy(LazyBlocks::new(code)),
            context,
            storage,
            host,
            iot,
            static_mode,
            depth_remaining,
        )
    }

    /// Executes one frame against a precomputed [`CodeAnalysis`] for `code`.
    ///
    /// This is the path for code that runs many times: callers that run the
    /// same contract repeatedly (the contract store, the payment-channel
    /// runtime) analyze the code once — typically through
    /// `tinyevm_analysis::AnalysisCache`, keyed by code hash — and every
    /// frame after that borrows the shared artifact. `analysis` must have
    /// been produced from exactly this `code`.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] if the execution traps.
    #[allow(clippy::too_many_arguments)]
    pub fn execute_analyzed(
        &mut self,
        code: &[u8],
        analysis: &CodeAnalysis,
        context: CallContext,
        storage: &mut dyn StorageBackend,
        host: &mut dyn Host,
        iot: &mut dyn IotEnvironment,
        static_mode: bool,
        depth_remaining: usize,
    ) -> Result<ExecResult, ExecError> {
        debug_assert_eq!(analysis.code_len(), code.len());
        self.run_frame(
            code,
            Blocks::Shared(analysis),
            context,
            storage,
            host,
            iot,
            static_mode,
            depth_remaining,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn run_frame(
        &mut self,
        code: &[u8],
        blocks: Blocks<'_>,
        context: CallContext,
        storage: &mut dyn StorageBackend,
        host: &mut dyn Host,
        iot: &mut dyn IotEnvironment,
        static_mode: bool,
        depth_remaining: usize,
    ) -> Result<ExecResult, ExecError> {
        let mut blocks = blocks;
        let result = Frame {
            config: &self.config,
            code,
            context,
            storage,
            host,
            iot,
            static_mode,
            depth_remaining,
            stack: Stack::new(self.config.max_stack_depth),
            memory: Memory::new(self.config.max_memory_bytes),
            metrics: ExecMetrics::new(),
            return_data: Vec::new(),
            gas_remaining: match self.config.gas_mode {
                GasMode::Metered { limit } => limit,
                GasMode::Unmetered => u64::MAX,
            },
            pc: 0,
            block_limit: 0,
            block_jump_proven: false,
            entries: Vec::new(),
        }
        .run(&mut blocks);
        self.tracer.event(|| match &result {
            Ok(exec) => {
                let outcome = match exec.outcome {
                    ExecOutcome::Stop => "stop",
                    ExecOutcome::Return => "return",
                    ExecOutcome::Revert => "revert",
                    ExecOutcome::SelfDestruct => "selfdestruct",
                };
                contract_call_event(outcome, &exec.metrics)
            }
            Err(error) => {
                let mut metrics = ExecMetrics::new();
                metrics.instructions = error.instructions_executed;
                contract_call_event("trap", &metrics)
            }
        });
        result
    }
}

/// Builds the per-frame trace event, splitting the cycle budget by opcode
/// category. Only runs when a recorder is attached.
fn contract_call_event(outcome: &str, metrics: &ExecMetrics) -> TraceEvent {
    use tinyevm_analysis::opcode::OpcodeCategory;
    let mut by_category = [0u64; 5];
    for byte in 0..=255u8 {
        let executions = metrics.opcode_histogram[byte as usize];
        if executions == 0 {
            continue;
        }
        if let Some(opcode) = Opcode::from_byte(byte) {
            let info = opcode.info();
            let index = match info.category {
                OpcodeCategory::Operation => 0,
                OpcodeCategory::SmartContract => 1,
                OpcodeCategory::Memory => 2,
                OpcodeCategory::Blockchain => 3,
                OpcodeCategory::Iot => 4,
            };
            by_category[index] += executions * info.mcu_cycles as u64;
        }
    }
    TraceEvent::ContractCall {
        outcome: outcome.to_string(),
        instructions: metrics.instructions,
        mcu_cycles: metrics.mcu_cycles,
        operation_cycles: by_category[0],
        smart_contract_cycles: by_category[1],
        memory_cycles: by_category[2],
        blockchain_cycles: by_category[3],
        iot_cycles: by_category[4],
        keccak_invocations: metrics.keccak_invocations,
    }
}

/// Where a frame gets its jumpdest bitmap and basic blocks from.
enum Blocks<'a> {
    /// A whole-code analysis, shared by every frame that runs the code.
    Shared(&'a CodeAnalysis),
    /// Blocks decoded the first time this frame enters them.
    Lazy(LazyBlocks<'a>),
}

impl Blocks<'_> {
    /// The index of the block whose leader is `pc`, decoding it on the
    /// first request when the blocks are lazy.
    #[inline]
    fn index_at(&mut self, pc: usize) -> Option<usize> {
        match self {
            Blocks::Shared(analysis) => analysis.block_index(pc),
            Blocks::Lazy(table) => table.block_index(pc),
        }
    }

    /// The block [`Blocks::index_at`] returned `index` for.
    #[inline]
    fn get(&self, index: usize) -> &BasicBlock {
        match self {
            Blocks::Shared(analysis) => &analysis.blocks()[index],
            Blocks::Lazy(table) => &table.blocks()[index],
        }
    }

    #[inline]
    fn is_jumpdest(&self, pc: usize) -> bool {
        match self {
            Blocks::Shared(analysis) => analysis.is_jumpdest(pc),
            Blocks::Lazy(table) => table.is_jumpdest(pc),
        }
    }
}

/// One in-flight execution frame. Its blocks are not a field: the frame
/// borrows them beside itself, so a batched block's stream stays borrowed
/// while `step` mutates the frame.
struct Frame<'a> {
    config: &'a EvmConfig,
    code: &'a [u8],
    context: CallContext,
    storage: &'a mut dyn StorageBackend,
    host: &'a mut dyn Host,
    iot: &'a mut dyn IotEnvironment,
    static_mode: bool,
    depth_remaining: usize,
    stack: Stack,
    memory: Memory,
    metrics: ExecMetrics,
    return_data: Vec<u8>,
    gas_remaining: u64,
    pc: usize,
    /// First pc past the current per-opcode block; reaching it (or jumping,
    /// which resets it to 0) re-enters block accounting.
    block_limit: usize,
    /// True while executing a block whose terminating jump's destination the
    /// static analyzer proved to be a valid `JUMPDEST`, so the runtime
    /// bitmap check can be skipped.
    block_jump_proven: bool,
    /// Per block index: how many times the frame entered the block batched.
    /// Folded into the opcode histogram when the frame ends.
    entries: Vec<u64>,
}

enum Step {
    Continue,
    Finish(ExecOutcome, Vec<u8>),
}

impl<'a> Frame<'a> {
    fn run(mut self, blocks: &mut Blocks<'_>) -> Result<ExecResult, ExecError> {
        while self.pc < self.code.len() {
            let step = match self.enter_block(blocks) {
                Some(index) => self.run_batched(blocks, index)?,
                None => self.run_per_op(blocks)?,
            };
            if let Step::Finish(outcome, output) = step {
                return Ok(self.finish(blocks, outcome, output));
            }
        }
        Ok(self.finish(blocks, ExecOutcome::Stop, Vec::new()))
    }

    /// Runs a block whose budgets [`Frame::enter_block`] charged in full:
    /// one pass over its pre-decoded stream, with no per-instruction pc,
    /// decode, budget or stack-depth checks. Pushes take their ready
    /// immediate; every other opcode goes through [`Frame::step`].
    fn run_batched(&mut self, blocks: &Blocks<'_>, index: usize) -> Result<Step, ExecError> {
        let block = blocks.get(index);
        for (position, instruction) in block.stream.iter().enumerate() {
            if instruction.opcode.push_bytes() > 0 {
                self.stack.push(instruction.immediate);
                continue;
            }
            self.pc = instruction.pc as usize;
            match self.step(instruction.opcode, blocks) {
                Ok(Step::Continue) => {}
                Ok(finish) => return Ok(finish),
                Err(reason) => {
                    return Err(self.trap(blocks, reason, &block.stream[position + 1..]));
                }
            }
        }
        // A jump set the pc itself; any other block falls through to its
        // end (a trailing push never went through `step`).
        if !matches!(block.exit, BlockExit::Jump(_) | BlockExit::JumpI(_)) {
            self.pc = block.end;
        }
        Ok(Step::Continue)
    }

    /// Runs the current block one opcode at a time, each behind the full
    /// preamble: decode, instruction limit, gas, off-chain removal and
    /// stack depth. Stops at the block's end or at a jump.
    fn run_per_op(&mut self, blocks: &Blocks<'_>) -> Result<Step, ExecError> {
        while self.pc < self.block_limit {
            let byte = self.code[self.pc];
            let Some(opcode) = Opcode::from_byte(byte) else {
                return Err(self.trap(blocks, TrapReason::UndefinedInstruction { byte }, &[]));
            };
            self.metrics.record(opcode);
            if self.metrics.instructions > self.config.instruction_limit {
                let limit = self.config.instruction_limit;
                return Err(self.trap(blocks, TrapReason::InstructionLimitExceeded { limit }, &[]));
            }
            if let GasMode::Metered { limit } = self.config.gas_mode {
                let cost = opcode.info().gas;
                if cost > self.gas_remaining {
                    return Err(self.trap(blocks, TrapReason::OutOfGas { limit }, &[]));
                }
                self.gas_remaining -= cost;
                self.metrics.gas_used += cost;
            }
            if self.config.off_chain && opcode.removed_off_chain() {
                return Err(self.trap(blocks, TrapReason::UnsupportedOpcode { opcode }, &[]));
            }
            if let Err(reason) = self.stack.require(opcode) {
                return Err(self.trap(blocks, reason, &[]));
            }
            match self.step(opcode, blocks) {
                Ok(Step::Continue) => {}
                Ok(finish) => return Ok(finish),
                Err(reason) => return Err(self.trap(blocks, reason, &[])),
            }
        }
        Ok(Step::Continue)
    }

    /// Called whenever execution crosses into a new basic block. Decides
    /// between batched accounting (charge the whole block's instruction
    /// count, gas and cycles now, count the entry for the histogram, and
    /// return the block's index for [`Frame::run_batched`]) and the
    /// per-opcode slow path (`None`).
    ///
    /// Batching is only chosen when it is observationally equivalent:
    /// the budget checks below rule out limit, gas, underflow and overflow
    /// traps anywhere in the block; no call or `CREATE` may sit before the
    /// last instruction (`interior_call`: its sub-frame's instructions would
    /// count against the limit mid-block); and the block must not contain
    /// opcodes whose behaviour depends on the accounting state itself
    /// (`GAS` under metering, off-chain-removed opcodes whose trap fires in
    /// the per-opcode preamble). Any other trap may fire mid-block:
    /// [`Frame::trap`] then refunds the instructions after the trapping one,
    /// so the reported pc and instruction count match the per-opcode
    /// interpreter exactly.
    fn enter_block(&mut self, blocks: &mut Blocks<'_>) -> Option<usize> {
        let Some(index) = blocks.index_at(self.pc) else {
            // Not a block leader (cannot happen for analyses produced from
            // this code); run per-opcode, one instruction at a time.
            self.block_limit = self.pc + 1;
            self.block_jump_proven = false;
            return None;
        };
        let block = blocks.get(index);
        self.block_limit = block.end.min(self.code.len());
        self.block_jump_proven = block.jump_target_proven;
        if self.config.per_op_metering
            || block.interior_call
            || block.has_undefined
            || (self.config.off_chain && block.has_removed_off_chain)
        {
            return None;
        }
        let metered = matches!(self.config.gas_mode, GasMode::Metered { .. });
        if metered && (block.has_gas_op || block.static_gas > self.gas_remaining) {
            return None;
        }
        let instructions = block.stream.len() as u64;
        if self.metrics.instructions + instructions > self.config.instruction_limit {
            return None;
        }
        // Last, because on success it raises the stack's high-water mark.
        if !self
            .stack
            .reserve(block.stack_required, block.max_stack_growth)
        {
            return None;
        }
        self.metrics.instructions += instructions;
        self.metrics.mcu_cycles += block.mcu_cycles;
        if metered {
            self.gas_remaining -= block.static_gas;
            self.metrics.gas_used += block.static_gas;
        }
        if index >= self.entries.len() {
            self.entries.resize(index + 1, 0);
        }
        self.entries[index] += 1;
        Some(index)
    }

    /// Adds each batched block's opcodes, times its entries, to the opcode
    /// histogram, and zeroes the entry counts.
    fn fold_histogram(&mut self, blocks: &Blocks<'_>) {
        for (index, entries) in self.entries.iter_mut().enumerate() {
            if *entries == 0 {
                continue;
            }
            for instruction in &blocks.get(index).stream {
                self.metrics.opcode_histogram[instruction.opcode.to_byte() as usize] += *entries;
            }
            *entries = 0;
        }
    }

    fn finish(mut self, blocks: &Blocks<'_>, outcome: ExecOutcome, output: Vec<u8>) -> ExecResult {
        self.fold_histogram(blocks);
        self.metrics.max_stack_pointer = self.stack.max_pointer();
        self.metrics.memory_high_water = self
            .metrics
            .memory_high_water
            .max(self.memory.high_water_mark());
        self.metrics.storage_bytes = self.storage.resident_bytes();
        ExecResult {
            outcome,
            output,
            metrics: self.metrics,
        }
    }

    /// Ends the frame on a trap at `self.pc`. `rest` is what a batched
    /// block charged at entry but never ran: the instructions after the
    /// trapping one. They are refunded after the histogram fold, so the
    /// frame's counters are exactly what per-opcode metering leaves. The
    /// error carries the instruction count; no high-water mark leaves a
    /// trapped frame.
    fn trap(&mut self, blocks: &Blocks<'_>, reason: TrapReason, rest: &[Instruction]) -> ExecError {
        self.fold_histogram(blocks);
        let metered = matches!(self.config.gas_mode, GasMode::Metered { .. });
        for instruction in rest {
            let info = instruction.opcode.info();
            self.metrics.instructions -= 1;
            self.metrics.mcu_cycles -= info.mcu_cycles as u64;
            self.metrics.opcode_histogram[instruction.opcode.to_byte() as usize] -= 1;
            if metered {
                self.gas_remaining += info.gas;
                self.metrics.gas_used -= info.gas;
            }
        }
        ExecError {
            reason,
            pc: self.pc,
            instructions_executed: self.metrics.instructions,
        }
    }

    /// Runs one opcode whose stack depth and budgets the caller checked:
    /// the one implementation of every opcode's semantics.
    #[inline(always)]
    fn step(&mut self, opcode: Opcode, blocks: &Blocks<'_>) -> Result<Step, TrapReason> {
        use Opcode::*;
        let mut next_pc = self.pc + 1;
        match opcode {
            Stop => return Ok(Step::Finish(ExecOutcome::Stop, Vec::new())),

            // --- arithmetic ------------------------------------------------
            Add => self.binary_op(|a, b| a.wrapping_add(b)),
            Mul => self.binary_op(|a, b| a.wrapping_mul(b)),
            Sub => self.binary_op(|a, b| a.wrapping_sub(b)),
            Div => self.binary_op(|a, b| a.div(b)),
            SDiv => self.binary_op(|a, b| I256::from(a).sdiv(I256::from(b)).into_raw()),
            Mod => self.binary_op(|a, b| a.rem(b)),
            SMod => self.binary_op(|a, b| I256::from(a).smod(I256::from(b)).into_raw()),
            AddMod => self.ternary_op(|a, b, m| a.add_mod(b, m)),
            MulMod => self.ternary_op(|a, b, m| a.mul_mod(b, m)),
            Exp => self.binary_op(|a, b| a.wrapping_pow(b)),
            SignExtend => self.binary_op(|index, value| value.sign_extend(index)),

            // --- comparison / bitwise -------------------------------------
            Lt => self.binary_op(|a, b| bool_word(a < b)),
            Gt => self.binary_op(|a, b| bool_word(a > b)),
            Slt => self.binary_op(|a, b| bool_word(I256::from(a).slt(I256::from(b)))),
            Sgt => self.binary_op(|a, b| bool_word(I256::from(a).sgt(I256::from(b)))),
            Eq => self.binary_op(|a, b| bool_word(a == b)),
            IsZero => self.unary_op(|a| bool_word(a.is_zero())),
            And => self.binary_op(|a, b| a & b),
            Or => self.binary_op(|a, b| a | b),
            Xor => self.binary_op(|a, b| a ^ b),
            Not => self.unary_op(|a| !a),
            Byte => self.binary_op(|index, value| {
                U256::from(value.byte_be(index.to_usize().unwrap_or(usize::MAX).min(32)) as u64)
            }),
            Shl => self.binary_op(|shift, value| value.shl(shift_amount(shift))),
            Shr => self.binary_op(|shift, value| value.shr(shift_amount(shift))),
            Sar => self.binary_op(|shift, value| value.sar(shift_amount(shift))),

            // --- hashing ---------------------------------------------------
            Sha3 => {
                let offset = self.pop_usize();
                let len = self.pop_usize();
                let digest = tinyevm_crypto::keccak256(self.memory.slice(offset, len)?);
                self.metrics.keccak_invocations += 1;
                self.metrics.keccak_bytes += len as u64;
                self.stack.push(U256::from_be_bytes(digest));
            }

            // --- IoT opcode ------------------------------------------------
            Iot => {
                let selector = self.stack.pop();
                let parameter = self.stack.pop();
                let request = IotRequest::decode(selector, parameter);
                self.metrics.iot_invocations += 1;
                match self.iot.handle(request) {
                    Some(value) => self.stack.push(value),
                    None => {
                        return Err(TrapReason::IotUnavailable {
                            id: request.peripheral_id(),
                        })
                    }
                }
            }

            // --- environment ----------------------------------------------
            Address => self.stack.push(self.context.address.to_u256()),
            Balance => {
                let address = tinyevm_types::Address::from_u256(self.stack.pop());
                let balance = self.host.balance(&address);
                self.stack.push(balance);
            }
            Origin => self.stack.push(self.context.origin.to_u256()),
            Caller => self.stack.push(self.context.caller.to_u256()),
            CallValue => self.stack.push(self.context.call_value),
            CallDataLoad => {
                let offset = self.pop_usize();
                let mut word = [0u8; 32];
                for (i, byte) in word.iter_mut().enumerate() {
                    *byte = self
                        .context
                        .call_data
                        .get(offset.saturating_add(i))
                        .copied()
                        .unwrap_or(0);
                }
                self.stack.push(U256::from_be_bytes(word));
            }
            CallDataSize => self.stack.push(U256::from(self.context.call_data.len())),
            CallDataCopy => {
                let dest = self.pop_usize();
                let src = self.pop_usize();
                let len = self.pop_usize();
                self.memory
                    .copy_padded(dest, &self.context.call_data, src, len)?;
            }
            CodeSize => self.stack.push(U256::from(self.code.len())),
            CodeCopy => {
                let dest = self.pop_usize();
                let src = self.pop_usize();
                let len = self.pop_usize();
                self.memory.copy_padded(dest, self.code, src, len)?;
            }
            GasPrice => self.stack.push(U256::ZERO),
            ExtCodeSize => {
                let address = tinyevm_types::Address::from_u256(self.stack.pop());
                self.stack.push(U256::from(self.host.code(&address).len()));
            }
            ExtCodeCopy => {
                let address = tinyevm_types::Address::from_u256(self.stack.pop());
                let dest = self.pop_usize();
                let src = self.pop_usize();
                let len = self.pop_usize();
                let code = self.host.code(&address);
                self.memory.copy_padded(dest, &code, src, len)?;
            }
            ReturnDataSize => self.stack.push(U256::from(self.return_data.len())),
            ReturnDataCopy => {
                let dest = self.pop_usize();
                let src = self.pop_usize();
                let len = self.pop_usize();
                self.memory.copy_padded(dest, &self.return_data, src, len)?;
            }
            ExtCodeHash => {
                let address = tinyevm_types::Address::from_u256(self.stack.pop());
                let code = self.host.code(&address);
                if code.is_empty() {
                    self.stack.push(U256::ZERO);
                } else {
                    self.stack
                        .push(U256::from_be_bytes(tinyevm_crypto::keccak256(&code)));
                }
            }

            // --- blockchain information (on-chain mode only) ----------------
            BlockHash => {
                self.stack.pop();
                self.stack.push(U256::ZERO);
            }
            Coinbase | Timestamp | Number | Difficulty | GasLimit => {
                self.stack.push(U256::ZERO);
            }

            // --- stack / memory / storage -----------------------------------
            Pop => {
                self.stack.pop();
            }
            MLoad => {
                let offset = self.pop_usize();
                let value = self.memory.load_word(offset)?;
                self.stack.push(value);
            }
            MStore => {
                let offset = self.pop_usize();
                let value = self.stack.pop();
                self.memory.store_word(offset, value)?;
            }
            MStore8 => {
                let offset = self.pop_usize();
                let value = self.stack.pop();
                self.memory.store_byte(offset, value.byte_le(0))?;
            }
            SLoad => {
                let key = self.stack.pop();
                self.stack.push(self.storage.load(key));
            }
            SStore => {
                if self.static_mode {
                    return Err(TrapReason::StaticModeViolation);
                }
                let key = self.stack.pop();
                let value = self.stack.pop();
                self.storage.store(key, value)?;
            }
            Jump => {
                let destination = self.pop_usize();
                self.validate_jump(blocks, destination)?;
                next_pc = destination;
                self.block_limit = 0;
            }
            JumpI => {
                let destination = self.pop_usize();
                let condition = self.stack.pop();
                if !condition.is_zero() {
                    self.validate_jump(blocks, destination)?;
                    next_pc = destination;
                    self.block_limit = 0;
                }
            }
            Pc => self.stack.push(U256::from(self.pc)),
            MSize => self.stack.push(U256::from(self.memory.size())),
            Gas => self.stack.push(U256::from(self.gas_remaining)),
            JumpDest => {}

            // --- pushes, dups, swaps ----------------------------------------
            Push1 | Push2 | Push3 | Push4 | Push5 | Push6 | Push7 | Push8 | Push9 | Push10
            | Push11 | Push12 | Push13 | Push14 | Push15 | Push16 | Push17 | Push18 | Push19
            | Push20 | Push21 | Push22 | Push23 | Push24 | Push25 | Push26 | Push27 | Push28
            | Push29 | Push30 | Push31 | Push32 => {
                let count = opcode.push_bytes();
                self.stack.push(push_word(self.code, self.pc + 1, count));
                next_pc = self.pc + 1 + count;
            }
            Dup1 | Dup2 | Dup3 | Dup4 | Dup5 | Dup6 | Dup7 | Dup8 | Dup9 | Dup10 | Dup11
            | Dup12 | Dup13 | Dup14 | Dup15 | Dup16 => {
                self.stack.dup(opcode.dup_depth());
            }
            Swap1 | Swap2 | Swap3 | Swap4 | Swap5 | Swap6 | Swap7 | Swap8 | Swap9 | Swap10
            | Swap11 | Swap12 | Swap13 | Swap14 | Swap15 | Swap16 => {
                self.stack.swap(opcode.swap_depth());
            }

            // --- logging -----------------------------------------------------
            Log0 | Log1 | Log2 | Log3 | Log4 => {
                if self.static_mode {
                    return Err(TrapReason::StaticModeViolation);
                }
                let offset = self.pop_usize();
                let len = self.pop_usize();
                let mut topics = Vec::with_capacity(opcode.log_topics());
                for _ in 0..opcode.log_topics() {
                    topics.push(self.stack.pop());
                }
                let data = self.memory.load_slice(offset, len)?;
                self.host.emit_log(LogEntry {
                    address: self.context.address,
                    topics,
                    data,
                });
            }

            // --- calls and creation ------------------------------------------
            Create => {
                if self.static_mode {
                    return Err(TrapReason::StaticModeViolation);
                }
                let value = self.stack.pop();
                let offset = self.pop_usize();
                let len = self.pop_usize();
                if self.depth_remaining == 0 {
                    return Err(TrapReason::CallDepthExceeded {
                        limit: self.config.max_call_depth,
                    });
                }
                let init_code = self.memory.load_slice(offset, len)?;
                let outcome = self.host.create(
                    self.context.address,
                    value,
                    &init_code,
                    self.depth_remaining,
                    self.iot,
                );
                self.metrics.absorb(&outcome.metrics);
                self.return_data = if outcome.success {
                    Vec::new()
                } else {
                    outcome.output
                };
                match outcome.created {
                    Some(address) if outcome.success => self.stack.push(address.to_u256()),
                    _ => self.stack.push(U256::ZERO),
                }
            }
            Call | CallCode | DelegateCall | StaticCall => {
                let step = self.do_call(opcode)?;
                if let Step::Finish(..) = step {
                    return Ok(step);
                }
            }
            Return => {
                let offset = self.pop_usize();
                let len = self.pop_usize();
                let output = self.memory.load_slice(offset, len)?;
                return Ok(Step::Finish(ExecOutcome::Return, output));
            }
            Revert => {
                let offset = self.pop_usize();
                let len = self.pop_usize();
                let output = self.memory.load_slice(offset, len)?;
                return Ok(Step::Finish(ExecOutcome::Revert, output));
            }
            Invalid => return Err(TrapReason::InvalidOpcode),
            SelfDestruct => {
                if self.static_mode {
                    return Err(TrapReason::StaticModeViolation);
                }
                let beneficiary = tinyevm_types::Address::from_u256(self.stack.pop());
                self.host.selfdestruct(self.context.address, beneficiary);
                return Ok(Step::Finish(ExecOutcome::SelfDestruct, Vec::new()));
            }
        }
        self.pc = next_pc;
        Ok(Step::Continue)
    }

    fn do_call(&mut self, opcode: Opcode) -> Result<Step, TrapReason> {
        // gas operand is ignored in unmetered mode but still popped.
        let _gas = self.stack.pop();
        let target = tinyevm_types::Address::from_u256(self.stack.pop());
        let value = if matches!(opcode, Opcode::Call | Opcode::CallCode) {
            self.stack.pop()
        } else {
            U256::ZERO
        };
        let in_offset = self.pop_usize();
        let in_len = self.pop_usize();
        let out_offset = self.pop_usize();
        let out_len = self.pop_usize();

        if self.static_mode && !value.is_zero() {
            return Err(TrapReason::StaticModeViolation);
        }
        if self.depth_remaining == 0 {
            return Err(TrapReason::CallDepthExceeded {
                limit: self.config.max_call_depth,
            });
        }

        let input = self.memory.load_slice(in_offset, in_len)?;
        let kind = match opcode {
            Opcode::DelegateCall | Opcode::CallCode => CallKind::Delegate,
            Opcode::StaticCall => CallKind::Static,
            _ => CallKind::Call,
        };
        let context_address = match kind {
            CallKind::Delegate => self.context.address,
            _ => target,
        };
        let request = CallRequest {
            kind,
            caller: self.context.address,
            target,
            context_address,
            value,
            input,
            depth_remaining: self.depth_remaining,
        };
        let outcome = self.host.call(request, self.iot);
        self.metrics.absorb(&outcome.metrics);
        self.return_data = outcome.output.clone();
        let copy_len = out_len.min(outcome.output.len());
        self.memory
            .copy_padded(out_offset, &outcome.output, 0, copy_len)?;
        self.stack.push(bool_word(outcome.success));
        Ok(Step::Continue)
    }

    fn validate_jump(&self, blocks: &Blocks<'_>, destination: usize) -> Result<(), TrapReason> {
        if self.block_jump_proven {
            // The analyzer proved the destination this block's jump pops
            // is a valid JUMPDEST on every path (a PUSH right before the
            // jump, or the symbolic pass); skip the bitmap probe.
            debug_assert!(blocks.is_jumpdest(destination));
            return Ok(());
        }
        if !blocks.is_jumpdest(destination) {
            return Err(TrapReason::InvalidJump { destination });
        }
        Ok(())
    }

    fn unary_op<F: FnOnce(U256) -> U256>(&mut self, f: F) {
        let a = self.stack.pop();
        self.stack.push(f(a));
    }

    fn binary_op<F: FnOnce(U256, U256) -> U256>(&mut self, f: F) {
        let a = self.stack.pop();
        let b = self.stack.pop();
        self.stack.push(f(a, b));
    }

    fn ternary_op<F: FnOnce(U256, U256, U256) -> U256>(&mut self, f: F) {
        let a = self.stack.pop();
        let b = self.stack.pop();
        let c = self.stack.pop();
        self.stack.push(f(a, b, c));
    }

    /// Pops an offset, length or jump destination. A word past `usize`
    /// saturates to `usize::MAX`: as a jump destination it is invalid, as
    /// a source offset it reads zeros, and as a memory extent it exceeds
    /// any budget, unless the range is empty.
    fn pop_usize(&mut self) -> usize {
        self.stack.pop().to_usize().unwrap_or(usize::MAX)
    }
}

fn bool_word(value: bool) -> U256 {
    if value {
        U256::ONE
    } else {
        U256::ZERO
    }
}

fn shift_amount(shift: U256) -> u32 {
    shift.to_usize().map(|s| s.min(256) as u32).unwrap_or(256)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::iot::ScriptedSensors;

    fn run(source: &str) -> ExecResult {
        let code = assemble(source).expect("assembly failed");
        Evm::new(EvmConfig::cc2538())
            .execute(&code, &[])
            .expect("execution failed")
    }

    fn run_expect_trap(source: &str) -> TrapReason {
        let code = assemble(source).expect("assembly failed");
        Evm::new(EvmConfig::cc2538())
            .execute(&code, &[])
            .expect_err("expected a trap")
            .reason
    }

    fn returned_word(result: &ExecResult) -> U256 {
        U256::from_be_slice(&result.output).unwrap()
    }

    #[test]
    fn empty_code_stops_cleanly() {
        let mut evm = Evm::new(EvmConfig::cc2538());
        let result = evm.execute(&[], &[]).unwrap();
        assert_eq!(result.outcome, ExecOutcome::Stop);
        assert!(result.output.is_empty());
        assert_eq!(result.metrics.instructions, 0);
    }

    #[test]
    fn arithmetic_add_and_return() {
        let result =
            run("PUSH1 0x05 PUSH1 0x07 ADD PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN");
        assert_eq!(result.outcome, ExecOutcome::Return);
        assert_eq!(returned_word(&result), U256::from(12u64));
    }

    #[test]
    fn arithmetic_division_by_zero_yields_zero() {
        let result =
            run("PUSH1 0x00 PUSH1 0x07 DIV PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN");
        assert_eq!(returned_word(&result), U256::ZERO);
    }

    #[test]
    fn signed_division() {
        // -10 / 3 = -3 (SDIV truncates toward zero)
        let result = run(
            "PUSH1 0x03 PUSH1 0x0a PUSH1 0x00 SUB SDIV PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN",
        );
        // Result should be -3 mod 2^256
        assert_eq!(returned_word(&result), U256::from(3u64).wrapping_neg());
    }

    #[test]
    fn comparisons_and_bitwise() {
        let result = run("PUSH1 0x02 PUSH1 0x01 LT PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN");
        assert_eq!(returned_word(&result), U256::ONE); // 1 < 2
        let result = run("PUSH1 0x0f PUSH1 0xf0 OR PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN");
        assert_eq!(returned_word(&result), U256::from(0xffu64));
        let result = run("PUSH1 0x01 ISZERO PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN");
        assert_eq!(returned_word(&result), U256::ZERO);
    }

    #[test]
    fn exp_and_mulmod() {
        let result =
            run("PUSH1 0x0a PUSH1 0x02 EXP PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN");
        assert_eq!(returned_word(&result), U256::from(1024u64));
        let result =
            run("PUSH1 0x05 PUSH1 0x09 PUSH1 0x07 MULMOD PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN");
        assert_eq!(returned_word(&result), U256::from(3u64)); // 7*9 mod 5
    }

    #[test]
    fn byte_and_shifts() {
        let result =
            run("PUSH1 0xff PUSH1 0x1f BYTE PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN");
        assert_eq!(returned_word(&result), U256::from(0xffu64)); // byte 31 of 0xff
        let result =
            run("PUSH1 0x01 PUSH1 0x04 SHL PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN");
        assert_eq!(returned_word(&result), U256::from(16u64));
        let result =
            run("PUSH1 0x10 PUSH1 0x04 SHR PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN");
        assert_eq!(returned_word(&result), U256::ONE);
    }

    #[test]
    fn sha3_hashes_memory() {
        // keccak256 of 32 zero bytes.
        let result =
            run("PUSH1 0x20 PUSH1 0x00 SHA3 PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN");
        let expected = tinyevm_crypto::keccak256(&[0u8; 32]);
        assert_eq!(result.output, expected.to_vec());
        assert_eq!(result.metrics.keccak_invocations, 1);
        assert_eq!(result.metrics.keccak_bytes, 32);
    }

    #[test]
    fn memory_and_msize() {
        let result = run(
            "PUSH1 0x2a PUSH1 0x40 MSTORE MSIZE PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN",
        );
        // Storing at 0x40 expands memory to 0x60 = 96 bytes.
        assert_eq!(returned_word(&result), U256::from(96u64));
    }

    #[test]
    fn mstore8_writes_single_byte() {
        let result = run("PUSH1 0xab PUSH1 0x00 MSTORE8 PUSH1 0x20 PUSH1 0x00 RETURN");
        assert_eq!(result.output[0], 0xab);
        assert!(result.output[1..].iter().all(|&b| b == 0));
    }

    #[test]
    fn storage_round_trip() {
        let result = run(
            "PUSH1 0x2a PUSH1 0x07 SSTORE PUSH1 0x07 SLOAD PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN",
        );
        assert_eq!(returned_word(&result), U256::from(0x2au64));
        assert!(result.metrics.storage_bytes > 0);
    }

    #[test]
    fn jumps_and_conditional_jumps() {
        // Jump over an INVALID opcode.
        let result = run("PUSH1 0x04 JUMP INVALID JUMPDEST PUSH1 0x07 PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN");
        assert_eq!(returned_word(&result), U256::from(7u64));
        // JUMPI not taken falls through to INVALID → trap.
        let reason = run_expect_trap("PUSH1 0x00 PUSH1 0x06 JUMPI INVALID JUMPDEST STOP");
        assert_eq!(reason, TrapReason::InvalidOpcode);
    }

    #[test]
    fn invalid_jump_target_traps() {
        let reason = run_expect_trap("PUSH1 0x03 JUMP STOP");
        assert_eq!(reason, TrapReason::InvalidJump { destination: 3 });
        // Jumping into push data is invalid even if the byte there is 0x5b.
        let reason = run_expect_trap("PUSH1 0x02 JUMP PUSH1 0x5b STOP");
        assert!(matches!(reason, TrapReason::InvalidJump { .. }));
    }

    #[test]
    fn calldata_opcodes() {
        let code = assemble("PUSH1 0x00 CALLDATALOAD PUSH1 0x00 MSTORE CALLDATASIZE PUSH1 0x20 MSTORE PUSH1 0x40 PUSH1 0x00 RETURN").unwrap();
        let mut calldata = vec![0u8; 32];
        calldata[31] = 99;
        calldata.push(0xaa); // 33 bytes total
        let result = Evm::new(EvmConfig::cc2538())
            .execute(&code, &calldata)
            .unwrap();
        assert_eq!(
            U256::from_be_slice(&result.output[..32]).unwrap(),
            U256::from(99u64)
        );
        assert_eq!(
            U256::from_be_slice(&result.output[32..]).unwrap(),
            U256::from(33u64)
        );
    }

    #[test]
    fn codesize_and_codecopy() {
        let result = run("CODESIZE PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN");
        assert_eq!(returned_word(&result), U256::from(9u64));
    }

    #[test]
    fn environment_opcodes_default_context() {
        let result = run("CALLER ADDRESS ORIGIN CALLVALUE ADD ADD ADD PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN");
        assert_eq!(returned_word(&result), U256::ZERO);
    }

    #[test]
    fn dup_and_swap_families() {
        let result = run(
            "PUSH1 0x01 PUSH1 0x02 PUSH1 0x03 DUP3 PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN",
        );
        assert_eq!(returned_word(&result), U256::ONE);
        let result =
            run("PUSH1 0x01 PUSH1 0x02 SWAP1 PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN");
        assert_eq!(returned_word(&result), U256::ONE);
    }

    #[test]
    fn push32_and_pc() {
        let result = run("PUSH32 0x0102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f20 PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN");
        assert_eq!(result.output[0], 0x01);
        assert_eq!(result.output[31], 0x20);
        let result = run("PC PC ADD PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN");
        assert_eq!(returned_word(&result), U256::from(1u64)); // 0 + 1
    }

    #[test]
    fn revert_returns_data_and_flags_failure() {
        let result = run("PUSH1 0x2a PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 REVERT");
        assert_eq!(result.outcome, ExecOutcome::Revert);
        assert!(!result.is_success());
        assert_eq!(returned_word(&result), U256::from(0x2au64));
    }

    #[test]
    fn stack_underflow_and_overflow_trap() {
        let reason = run_expect_trap("ADD");
        assert!(matches!(reason, TrapReason::StackUnderflow { .. }));

        // Push more than the 96-element CC2538 stack allows.
        let mut source = String::new();
        for _ in 0..100 {
            source.push_str("PUSH1 0x01 ");
        }
        let reason = run_expect_trap(&source);
        assert_eq!(reason, TrapReason::StackOverflow { limit: 96 });
    }

    #[test]
    fn memory_budget_trap() {
        // Store beyond the 8 KB budget.
        let reason = run_expect_trap("PUSH1 0x01 PUSH2 0x2100 MSTORE");
        assert!(matches!(reason, TrapReason::MemoryLimitExceeded { .. }));
    }

    #[test]
    fn undefined_instruction_traps() {
        let mut evm = Evm::new(EvmConfig::cc2538());
        let error = evm.execute(&[0x0d], &[]).unwrap_err();
        assert_eq!(
            error.reason,
            TrapReason::UndefinedInstruction { byte: 0x0d }
        );
    }

    #[test]
    fn blockchain_opcodes_trap_off_chain_but_not_on_chain() {
        let reason = run_expect_trap("TIMESTAMP");
        assert_eq!(
            reason,
            TrapReason::UnsupportedOpcode {
                opcode: Opcode::Timestamp
            }
        );
        let reason = run_expect_trap("GAS");
        assert_eq!(
            reason,
            TrapReason::UnsupportedOpcode {
                opcode: Opcode::Gas
            }
        );

        // The unconstrained (full-node) profile answers them instead.
        let code = assemble("TIMESTAMP NUMBER ADD PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN")
            .unwrap();
        let result = Evm::new(EvmConfig::unconstrained())
            .execute(&code, &[])
            .unwrap();
        assert_eq!(result.outcome, ExecOutcome::Return);
    }

    #[test]
    fn iot_opcode_reads_scripted_sensor() {
        // Selector 0 (read sensor 0), parameter 0.
        let code =
            assemble("PUSH1 0x00 PUSH1 0x00 IOT PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN")
                .unwrap();
        let mut sensors = ScriptedSensors::new().with_reading(0, U256::from(215u64));
        let result = Evm::new(EvmConfig::cc2538())
            .execute_with_iot(&code, &[], &mut sensors)
            .unwrap();
        assert_eq!(
            U256::from_be_slice(&result.output).unwrap(),
            U256::from(215u64)
        );
        assert_eq!(result.metrics.iot_invocations, 1);
    }

    #[test]
    fn iot_opcode_traps_without_peripherals() {
        let reason = run_expect_trap("PUSH1 0x00 PUSH1 0x00 IOT");
        assert_eq!(reason, TrapReason::IotUnavailable { id: 0 });
    }

    #[test]
    fn instruction_limit_guards_infinite_loops() {
        let mut config = EvmConfig::cc2538();
        config.instruction_limit = 1_000;
        let code = assemble("JUMPDEST PUSH1 0x00 JUMP").unwrap();
        let error = Evm::new(config).execute(&code, &[]).unwrap_err();
        assert_eq!(
            error.reason,
            TrapReason::InstructionLimitExceeded { limit: 1_000 }
        );
    }

    #[test]
    fn metered_mode_runs_out_of_gas() {
        let config = EvmConfig::unconstrained().with_gas_mode(GasMode::Metered { limit: 10 });
        let code =
            assemble("PUSH1 0x01 PUSH1 0x02 ADD PUSH1 0x03 ADD PUSH1 0x04 ADD STOP").unwrap();
        let error = Evm::new(config).execute(&code, &[]).unwrap_err();
        assert_eq!(error.reason, TrapReason::OutOfGas { limit: 10 });
    }

    #[test]
    fn metrics_track_stack_and_memory_high_water() {
        let result =
            run("PUSH1 0x01 PUSH1 0x02 PUSH1 0x03 POP POP POP PUSH1 0x2a PUSH1 0x60 MSTORE STOP");
        assert_eq!(result.metrics.max_stack_pointer, 3);
        assert_eq!(result.metrics.memory_high_water, 0x60 + 32);
        assert!(result.metrics.instructions >= 10);
        assert!(result.metrics.mcu_cycles > 0);
        assert_eq!(result.metrics.count(Opcode::MStore), 1);
    }

    #[test]
    fn logs_reach_the_host() {
        let code =
            assemble("PUSH1 0x2a PUSH1 0x00 MSTORE PUSH1 0xbb PUSH1 0x20 PUSH1 0x00 LOG1 STOP")
                .unwrap();
        let mut evm = Evm::new(EvmConfig::cc2538());
        let mut storage = SideChainStorage::new(1024);
        let mut host = NullHost::new();
        let mut iot = NullIotEnvironment;
        let result = evm
            .execute_in_frame(
                &code,
                CallContext::default(),
                &mut storage,
                &mut host,
                &mut iot,
                false,
                4,
            )
            .unwrap();
        assert_eq!(result.outcome, ExecOutcome::Stop);
        assert_eq!(host.logs().len(), 1);
        assert_eq!(host.logs()[0].topics, vec![U256::from(0xbbu64)]);
        assert_eq!(host.logs()[0].data.len(), 32);
    }

    #[test]
    fn static_mode_rejects_state_changes() {
        let code = assemble("PUSH1 0x01 PUSH1 0x00 SSTORE STOP").unwrap();
        let mut evm = Evm::new(EvmConfig::cc2538());
        let mut storage = SideChainStorage::new(1024);
        let mut host = NullHost::new();
        let mut iot = NullIotEnvironment;
        let error = evm
            .execute_in_frame(
                &code,
                CallContext::default(),
                &mut storage,
                &mut host,
                &mut iot,
                true,
                4,
            )
            .unwrap_err();
        assert_eq!(error.reason, TrapReason::StaticModeViolation);
    }

    #[test]
    fn jumpdest_analysis_skips_push_data() {
        let code = assemble("PUSH2 0x5b5b JUMPDEST STOP").unwrap();
        let dests = tinyevm_analysis::analyze(&code).jumpdests().to_vec();
        assert!(!dests[1]);
        assert!(!dests[2]);
        assert!(dests[3]);
    }

    #[test]
    fn balance_of_unknown_account_is_zero() {
        let result = run("PUSH1 0x42 BALANCE PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN");
        assert_eq!(returned_word(&result), U256::ZERO);
    }

    #[test]
    fn extcode_opcodes_with_null_host() {
        let result = run("PUSH1 0x42 EXTCODESIZE PUSH1 0x42 EXTCODEHASH ADD PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN");
        assert_eq!(returned_word(&result), U256::ZERO);
    }

    #[test]
    fn returndata_is_empty_without_calls() {
        let result = run("RETURNDATASIZE PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN");
        assert_eq!(returned_word(&result), U256::ZERO);
    }

    #[test]
    fn call_to_null_host_pushes_failure() {
        let result = run(
            "PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 PUSH1 0x42 PUSH1 0x00 CALL PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN",
        );
        assert_eq!(returned_word(&result), U256::ZERO);
    }

    #[test]
    fn mid_block_trap_reports_the_per_op_instruction_count() {
        // One block with no interior call, so it batches. MSTORE traps
        // mid-block on the memory budget; the four instructions after it
        // were charged at block entry and must be refunded.
        let code =
            assemble("PUSH1 0x01 PUSH2 0x2100 MSTORE PUSH1 0x00 PUSH1 0x00 ADD POP STOP").unwrap();
        let batched = Evm::new(EvmConfig::cc2538())
            .execute(&code, &[])
            .unwrap_err();
        let per_op = Evm::new(EvmConfig::cc2538().with_per_op_metering(true))
            .execute(&code, &[])
            .unwrap_err();
        assert_eq!(batched, per_op);
        assert_eq!(batched.pc, 5);
        assert_eq!(batched.instructions_executed, 3);
    }

    #[test]
    fn copy_opcodes_read_zeros_past_a_huge_source_offset() {
        // Each copy reads two bytes from source offset 2^64 - 1. Adding 1
        // to that offset overflows: a wrapping add would read the source's
        // first byte, and a checked one panics in debug builds.
        const HUGE: &str = "PUSH1 0x02 PUSH8 0xffffffffffffffff";
        let code = assemble(&format!(
            "{HUGE} PUSH1 0x00 CODECOPY PUSH1 0x20 PUSH1 0x00 RETURN"
        ))
        .unwrap();
        let result = Evm::new(EvmConfig::cc2538()).execute(&code, &[]).unwrap();
        assert_eq!(result.output, vec![0u8; 32]);
        let code = assemble(&format!(
            "{HUGE} PUSH1 0x00 CALLDATACOPY PUSH1 0x20 PUSH1 0x00 RETURN"
        ))
        .unwrap();
        let result = Evm::new(EvmConfig::cc2538())
            .execute(&code, &[0xaa, 0xbb])
            .unwrap();
        assert_eq!(result.output, vec![0u8; 32]);

        // RETURNDATACOPY and EXTCODECOPY read from a callee whose code and
        // return data both start with a non-zero byte.
        let mut world = crate::host::ContractStore::new(EvmConfig::cc2538());
        let callee = Address::from_low_u64(0x42);
        let caller = Address::from_low_u64(0x43);
        world.install_code(
            callee,
            assemble("PUSH1 0xaa PUSH1 0x00 MSTORE8 PUSH1 0x20 PUSH1 0x00 RETURN").unwrap(),
        );
        world.install_code(
            caller,
            assemble(&format!(
                "PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 PUSH1 0x42 PUSH1 0x00 CALL POP
                 {HUGE} PUSH1 0x00 RETURNDATACOPY
                 {HUGE} PUSH1 0x20 PUSH1 0x42 EXTCODECOPY
                 PUSH1 0x01 PUSH1 0x00 PUSH1 0x40 RETURNDATACOPY
                 PUSH1 0x01 PUSH1 0x00 PUSH1 0x41 PUSH1 0x42 EXTCODECOPY
                 PUSH1 0x42 PUSH1 0x00 RETURN"
            ))
            .unwrap(),
        );
        let outcome = world.execute_contract(
            Address::ZERO,
            caller,
            U256::ZERO,
            &[],
            &mut NullIotEnvironment,
        );
        assert!(outcome.success);
        // In range, both sources yield their first byte...
        assert_eq!(&outcome.output[0x40..], &[0xaa, 0x60]);
        // ...and past a huge offset, zeros.
        assert_eq!(&outcome.output[..0x40], &[0u8; 0x40][..]);
    }

    #[test]
    fn operands_past_usize_saturate() {
        // Each probe pops an operand of 2^64 (PUSH9 0x01 0x00...).
        const HUGE: &str = "PUSH9 0x010000000000000000";
        let run_both = |source: String| {
            let code = assemble(&source).unwrap();
            let batched = Evm::new(EvmConfig::cc2538()).execute(&code, &[0xaa; 4]);
            let per_op =
                Evm::new(EvmConfig::cc2538().with_per_op_metering(true)).execute(&code, &[0xaa; 4]);
            match (&batched, &per_op) {
                (Ok(a), Ok(b)) => assert_eq!((&a.output, &a.metrics), (&b.output, &b.metrics)),
                (a, b) => assert_eq!(a.as_ref().err(), b.as_ref().err()),
            }
            batched
        };
        let zero_word = vec![0u8; 32];
        let store_and_return = "PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN";

        // A taken jump past usize is invalid, as the analyzer saturates it.
        let error = run_both(format!("{HUGE} JUMP")).unwrap_err();
        assert_eq!(
            error.reason,
            TrapReason::InvalidJump {
                destination: usize::MAX
            }
        );
        // A JUMPI that is not taken never looks at its destination.
        let result = run_both(format!("PUSH1 0x00 {HUGE} JUMPI")).unwrap();
        assert_eq!(result.outcome, ExecOutcome::Stop);
        // Source offsets past usize read zeros.
        let result = run_both(format!("{HUGE} CALLDATALOAD {store_and_return}")).unwrap();
        assert_eq!(result.output, zero_word);
        let result = run_both(format!(
            "PUSH1 0x20 {HUGE} PUSH1 0x00 CODECOPY PUSH1 0x20 PUSH1 0x00 RETURN"
        ))
        .unwrap();
        assert_eq!(result.output, zero_word);
        // A zero-length memory range never traps, wherever it starts.
        let result = run_both(format!("PUSH1 0x00 {HUGE} SHA3 {store_and_return}")).unwrap();
        assert_eq!(result.output, tinyevm_crypto::keccak256(&[]).to_vec());
        let result = run_both(format!("PUSH1 0x00 {HUGE} RETURN")).unwrap();
        assert_eq!(result.outcome, ExecOutcome::Return);
        assert!(result.output.is_empty());
        // A non-empty range there still exceeds the memory budget.
        let error = run_both(format!("PUSH1 0x01 {HUGE} SHA3")).unwrap_err();
        assert_eq!(
            error.reason,
            TrapReason::MemoryLimitExceeded {
                requested: usize::MAX,
                limit: 8 * 1024
            }
        );
    }

    #[test]
    fn signextend_opcode() {
        let result =
            run("PUSH1 0xff PUSH1 0x00 SIGNEXTEND PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN");
        assert_eq!(returned_word(&result), U256::MAX);
    }
}
