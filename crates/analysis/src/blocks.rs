//! Basic blocks: the one module that decides what a block is.
//!
//! A block starts at a *leader* — pc 0, a `JUMPDEST`, or the instruction
//! after a jump, a terminator or an undefined byte — and runs to the first
//! of: a block-ending instruction (included), the next `JUMPDEST`
//! (excluded), or the end of the code. [`decode_block`] builds one
//! [`BasicBlock`] from its leader, including the block's pre-decoded
//! instruction stream, and two consumers share it:
//!
//! * [`analyze`](crate::analyze) decodes every block up front, in code
//!   order, and runs the CFG, symbolic and certificate passes over their
//!   streams;
//! * [`LazyBlocks`] decodes a block the first time execution enters it, so
//!   a frame that runs its code once pays only for the blocks it executes.
//!
//! Both rely on the same jumpdest scan, [`scan_jumpdests`].

use tinyevm_types::U256;

use crate::opcode::Opcode;

/// How control leaves a basic block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockExit {
    /// Execution continues into the next block (its leader is a
    /// `JUMPDEST`).
    FallThrough,
    /// Unconditional `JUMP`. `Some` when the destination is the immediate
    /// of a `PUSH` directly before the jump.
    Jump(Option<usize>),
    /// Conditional `JUMPI`: the constant branch target (if known) plus the
    /// fall-through edge.
    JumpI(Option<usize>),
    /// `STOP`, `RETURN`, `REVERT`, `INVALID` or `SELFDESTRUCT`.
    Terminate,
    /// The block reaches the end of the code (implicit `STOP`), or ends at
    /// an undefined byte (which traps).
    RunOff,
}

/// One defined instruction of a block's pre-decoded stream: what the
/// interpreter's batched loop runs instead of re-decoding the bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instruction {
    /// For `PUSHn`, the zero-padded big-endian immediate (a push truncated
    /// by the end of the code reads zeros for its missing bytes); zero for
    /// every other opcode.
    pub immediate: U256,
    /// Program counter of the opcode byte. Code is indexed in 32 bits: a
    /// block table for code of 4 GiB or more would not fit in memory.
    pub pc: u32,
    /// The opcode.
    pub opcode: Opcode,
}

/// One straight-line run of instructions with single entry (its leader) and
/// single exit (its last instruction).
///
/// Every field except `successors`, `unreachable` and a symbolically proven
/// `jump_target_proven` depends on the block's own bytes only, so
/// [`LazyBlocks`] and [`analyze`](crate::analyze) agree on them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlock {
    /// Program counter of the first instruction.
    pub start: usize,
    /// One past the last byte of the block (including push immediates).
    /// Fall-through execution enters the next block exactly here.
    pub end: usize,
    /// Sum of the static gas costs of the block's instructions.
    pub static_gas: u64,
    /// Sum of the modelled MCU cycle costs of the block's instructions.
    pub mcu_cycles: u64,
    /// Net stack-height change from entry to exit.
    pub net_stack: i32,
    /// Minimum stack depth at entry for no instruction to underflow. A
    /// batched block checks it once at entry, so its instructions run
    /// without per-instruction underflow checks.
    pub stack_required: usize,
    /// Maximum stack growth above the entry depth after any instruction of
    /// the block. A batched block checks at entry that the stack has room
    /// for it, and raises the high-water mark to `entry + max_stack_growth`
    /// (exactly where a completed block's pushes take it).
    pub max_stack_growth: usize,
    /// The block's defined instructions, in order, with push immediates
    /// already converted. An undefined trailing byte is not part of it: the
    /// interpreter traps on that byte before counting it. Besides feeding
    /// the batched loop, the stream is what the analyzer's passes walk, and
    /// what the interpreter folds into the opcode histogram (entries ×
    /// stream) when a frame ends.
    pub stream: Vec<Instruction>,
    /// How the block exits.
    pub exit: BlockExit,
    /// Indices of successor blocks along statically-known edges: constant
    /// jump targets, fall-throughs, and — when the symbolic pass resolved
    /// the whole contract — resolved dynamic-jump edges, with provably dead
    /// `JUMPI` branches pruned. Unresolved dynamic jumps contribute no edge.
    /// Only [`analyze`](crate::analyze) fills it; [`LazyBlocks`] leaves it
    /// empty.
    pub successors: Vec<u32>,
    /// True when the block ends in a `JUMP`/`JUMPI` whose destination is
    /// statically proven to be this exact constant *and* a valid
    /// `JUMPDEST` — the interpreter may then skip the runtime
    /// jumpdest-bitmap check for this block's jump. The decoder proves it
    /// for a `PUSH` directly before the jump; [`analyze`](crate::analyze)
    /// also proves it for jumps its symbolic pass resolves.
    pub jump_target_proven: bool,
    /// True when a call or `CREATE` sits *before the last instruction*. Its
    /// sub-frame adds instructions mid-block, so the block must keep the
    /// per-opcode instruction-limit check. Any other mid-block trap
    /// (memory, storage, hashing, calldata, copies, logs, `IOT`) is fine
    /// to batch: the interpreter refunds the instructions after the trap.
    pub interior_call: bool,
    /// True when the block ends at an undefined byte.
    pub has_undefined: bool,
    /// True when the block contains an opcode TinyEVM removes off-chain;
    /// off-chain profiles must then run the block per-opcode so the trap
    /// fires exactly where the per-opcode interpreter fires it.
    pub has_removed_off_chain: bool,
    /// True when the block contains `GAS`; metered profiles must then run
    /// the block per-opcode because `GAS` observes the remaining gas.
    pub has_gas_op: bool,
    /// True when no statically-known path from the entry reaches the block.
    /// Only [`analyze`](crate::analyze) sets it.
    pub unreachable: bool,
}

/// True for the opcodes that run a sub-frame, whose absorbed metrics change
/// the caller's instruction count (and cost) mid-block.
pub(crate) fn runs_sub_frame(op: Opcode) -> bool {
    matches!(
        op,
        Opcode::Create
            | Opcode::Call
            | Opcode::CallCode
            | Opcode::DelegateCall
            | Opcode::StaticCall
    )
}

/// Marks every byte position holding a `JUMPDEST` opcode that is not
/// push-immediate data: the valid jump destinations of `code`.
pub(crate) fn scan_jumpdests(code: &[u8]) -> Vec<bool> {
    let mut jumpdests = vec![false; code.len()];
    let mut pc = 0usize;
    while pc < code.len() {
        let byte = code[pc];
        if byte == Opcode::JumpDest.to_byte() {
            jumpdests[pc] = true;
        }
        // Every byte in 0x60..=0x7f is a PUSHn; skip its immediates.
        if (0x60..=0x7f).contains(&byte) {
            pc += (byte - 0x5f) as usize;
        }
        pc += 1;
    }
    jumpdests
}

/// Decodes the block whose leader is `start`. `start` must be a leader of
/// `code` (and in range); `jumpdests` is [`scan_jumpdests`] of `code`.
///
/// # Panics
///
/// Panics when `code` is 4 GiB or longer (see [`Instruction::pc`]).
pub(crate) fn decode_block(code: &[u8], jumpdests: &[bool], start: usize) -> BasicBlock {
    debug_assert!(start < code.len());
    let len = code.len();
    let mut block = BasicBlock {
        start,
        end: start,
        static_gas: 0,
        mcu_cycles: 0,
        net_stack: 0,
        stack_required: 0,
        max_stack_growth: 0,
        stream: Vec::new(),
        exit: BlockExit::RunOff,
        successors: Vec::new(),
        jump_target_proven: false,
        interior_call: false,
        has_undefined: false,
        has_removed_off_chain: false,
        has_gas_op: false,
        unreachable: false,
    };
    let mut height = 0i64; // relative to entry depth
    let mut max_height = 0i64;
    let mut pc = start;
    while pc < len {
        let byte = code[pc];
        let op = Opcode::from_byte(byte);
        if pc != start && op == Some(Opcode::JumpDest) {
            block.exit = BlockExit::FallThrough;
            break;
        }
        let previous = block.stream.last().copied();
        if previous.is_some_and(|previous| runs_sub_frame(previous.opcode)) {
            block.interior_call = true;
        }
        let op = match op {
            Some(op) => op,
            None => {
                // The interpreter traps before recording the undefined
                // byte, so it contributes nothing to the aggregates.
                block.has_undefined = true;
                block.end = pc + 1;
                break;
            }
        };
        let info = op.info();
        block.static_gas += info.gas;
        block.mcu_cycles += info.mcu_cycles as u64;
        // Stack effect: the interpreter checks `inputs` before dispatch,
        // so the entry-depth requirement at this op is inputs - height.
        let needed = info.inputs as i64 - height;
        if needed > block.stack_required as i64 {
            block.stack_required = needed as usize;
        }
        height += info.outputs as i64 - info.inputs as i64;
        max_height = max_height.max(height);
        block.has_removed_off_chain |= op.removed_off_chain();
        block.has_gas_op |= op == Opcode::Gas;

        let push_bytes = op.push_bytes();
        let next = pc + 1 + push_bytes;
        block.end = next;
        block.stream.push(Instruction {
            immediate: if push_bytes == 0 {
                U256::ZERO
            } else {
                push_word(code, pc + 1, push_bytes)
            },
            pc: u32::try_from(pc).expect("code is shorter than 4 GiB"),
            opcode: op,
        });
        if op.is_terminator() {
            block.exit = BlockExit::Terminate;
            break;
        }
        if matches!(op, Opcode::Jump | Opcode::JumpI) {
            // A PUSH immediate directly before the jump is exactly what the
            // interpreter pops, so validity here is unconditional. Anything
            // beyond `usize::MAX` cannot be a valid destination; it
            // saturates so the verdict logic rejects it.
            let target = previous
                .filter(|previous| previous.opcode.push_bytes() > 0)
                .map(|push| push.immediate.to_usize().unwrap_or(usize::MAX));
            block.jump_target_proven = target.is_some_and(|t| t < len && jumpdests[t]);
            block.exit = if op == Opcode::Jump {
                BlockExit::Jump(target)
            } else {
                BlockExit::JumpI(target)
            };
            break;
        }
        pc = next;
    }
    block.net_stack = height as i32;
    block.max_stack_growth = max_height as usize;
    block
}

/// The `count`-byte big-endian word at `code[start..]`, reading zeros past
/// the end of the code.
pub fn push_word(code: &[u8], start: usize, count: usize) -> U256 {
    let mut word = [0u8; 32];
    for (offset, byte) in word[32 - count..].iter_mut().enumerate() {
        *byte = code.get(start + offset).copied().unwrap_or(0);
    }
    U256::from_be_bytes(word)
}

/// A block table for one frame's code, filled on demand: it scans the
/// jumpdest bitmap once and decodes a block the first time execution asks
/// for its leader.
///
/// This is the cheap alternative to a full [`analyze`](crate::analyze) for
/// code that runs once — init code, above all, whose constructor typically
/// executes a handful of blocks before `RETURN`ing the runtime code. Code
/// that runs many times is better served by a shared
/// [`CodeAnalysis`](crate::CodeAnalysis).
///
/// # Example
///
/// ```
/// use tinyevm_analysis::{BlockExit, LazyBlocks};
///
/// // PUSH1 4, JUMP, INVALID, JUMPDEST, STOP
/// let code = [0x60, 0x04, 0x56, 0xfe, 0x5b, 0x00];
/// let mut blocks = LazyBlocks::new(&code);
/// assert!(blocks.is_jumpdest(4));
/// let entry = blocks.block_at(0).unwrap();
/// assert_eq!(entry.exit, BlockExit::Jump(Some(4)));
/// assert!(entry.jump_target_proven);
/// assert_eq!(blocks.block_at(4).unwrap().stream.len(), 2);
/// assert_eq!(blocks.blocks().len(), 2); // the INVALID block was never decoded
/// ```
#[derive(Debug, Clone)]
pub struct LazyBlocks<'a> {
    code: &'a [u8],
    jumpdests: Vec<bool>,
    /// Per byte: 0 while no block has been decoded from there, else the
    /// block's index in `blocks` plus one.
    slots: Vec<u32>,
    blocks: Vec<BasicBlock>,
}

impl<'a> LazyBlocks<'a> {
    /// Scans `code`'s jumpdests; decodes no block yet.
    pub fn new(code: &'a [u8]) -> Self {
        LazyBlocks {
            code,
            jumpdests: scan_jumpdests(code),
            slots: vec![0; code.len()],
            blocks: Vec::new(),
        }
    }

    /// True when `pc` is a valid jump destination.
    #[inline]
    pub fn is_jumpdest(&self, pc: usize) -> bool {
        pc < self.jumpdests.len() && self.jumpdests[pc]
    }

    /// The block whose leader is `pc`, decoded on the first request; `None`
    /// past the end of the code. `pc` must be a block leader: 0, a valid
    /// jump destination, or the `end` of a block this table returned.
    #[inline]
    pub fn block_at(&mut self, pc: usize) -> Option<&BasicBlock> {
        let index = self.block_index(pc)?;
        Some(&self.blocks[index])
    }

    /// Like [`LazyBlocks::block_at`], but returns the block's index in
    /// [`LazyBlocks::blocks`]: blocks are numbered in the order they were
    /// first requested.
    #[inline]
    pub fn block_index(&mut self, pc: usize) -> Option<usize> {
        let slot = *self.slots.get(pc)?;
        if slot != 0 {
            return Some(slot as usize - 1);
        }
        self.blocks
            .push(decode_block(self.code, &self.jumpdests, pc));
        self.slots[pc] = self.blocks.len() as u32;
        Some(self.blocks.len() - 1)
    }

    /// The blocks decoded so far, in decode order.
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }
}
