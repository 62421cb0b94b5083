//! Basic blocks: the one module that decides what a block is.
//!
//! A block starts at a *leader* — pc 0, a `JUMPDEST`, or the instruction
//! after a jump, a terminator or an undefined byte — and runs to the first
//! of: a block-ending instruction (included), the next `JUMPDEST`
//! (excluded), or the end of the code. [`decode_block`] builds one
//! [`BasicBlock`] from its leader, and two consumers share it:
//!
//! * [`analyze`](crate::analyze) decodes every block up front, in code
//!   order, and runs the CFG, symbolic and certificate passes over them;
//! * [`LazyBlocks`] decodes a block the first time execution enters it, so
//!   a frame that runs its code once pays only for the blocks it executes.
//!
//! Both rely on the same jumpdest scan, [`scan_jumpdests`].

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
    /// Number of defined instructions in the block (an undefined trailing
    /// byte is excluded: the interpreter traps on it before counting it).
    pub instructions: u32,
    /// Sum of the static gas costs of the block's instructions.
    pub static_gas: u64,
    /// Sum of the modelled MCU cycle costs of the block's instructions.
    pub mcu_cycles: u64,
    /// Net stack-height change from entry to exit.
    pub net_stack: i32,
    /// Minimum stack depth at entry for no instruction to underflow.
    pub stack_required: usize,
    /// Maximum stack growth above the entry depth anywhere in the block.
    pub max_stack_growth: usize,
    /// Per-opcode execution counts `(opcode byte, count)`, so a batched
    /// block entry can update the metrics histogram without replaying the
    /// instructions.
    pub histogram: Vec<(u8, u32)>,
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

/// One decoded instruction (transient; not part of any artifact).
pub(crate) struct Decoded {
    pub(crate) pc: usize,
    pub(crate) opcode: Option<Opcode>,
    /// Missing immediate bytes for a truncated trailing push.
    pub(crate) push_missing: usize,
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

/// Decodes the block whose leader is `start`, handing each instruction to
/// `visit` in order. `start` must be a leader of `code` (and in range);
/// `jumpdests` is [`scan_jumpdests`] of `code`.
pub(crate) fn decode_block(
    code: &[u8],
    jumpdests: &[bool],
    start: usize,
    mut visit: impl FnMut(Decoded),
) -> BasicBlock {
    debug_assert!(start < code.len());
    let len = code.len();
    let mut block = BasicBlock {
        start,
        end: start,
        instructions: 0,
        static_gas: 0,
        mcu_cycles: 0,
        net_stack: 0,
        stack_required: 0,
        max_stack_growth: 0,
        histogram: Vec::new(),
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
    // The previous instruction of this block: (pc, opcode).
    let mut previous: Option<(usize, Opcode)> = None;
    let mut pc = start;
    while pc < len {
        let byte = code[pc];
        let op = Opcode::from_byte(byte);
        if pc != start && op == Some(Opcode::JumpDest) {
            block.exit = BlockExit::FallThrough;
            break;
        }
        if let Some((_, previous_op)) = previous {
            if runs_sub_frame(previous_op) {
                block.interior_call = true;
            }
        }
        let op = match op {
            Some(op) => op,
            None => {
                // The interpreter traps before recording the undefined
                // byte, so it contributes nothing to the aggregates.
                visit(Decoded {
                    pc,
                    opcode: None,
                    push_missing: 0,
                });
                block.has_undefined = true;
                block.end = pc + 1;
                break;
            }
        };
        let info = op.info();
        block.instructions += 1;
        block.static_gas += info.gas;
        block.mcu_cycles += info.mcu_cycles as u64;
        match block.histogram.iter_mut().find(|(seen, _)| *seen == byte) {
            Some((_, count)) => *count += 1,
            None => block.histogram.push((byte, 1)),
        }
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

        let next = pc + 1 + op.push_bytes();
        block.end = next;
        visit(Decoded {
            pc,
            opcode: Some(op),
            push_missing: next.saturating_sub(len),
        });
        if op.is_terminator() {
            block.exit = BlockExit::Terminate;
            break;
        }
        if matches!(op, Opcode::Jump | Opcode::JumpI) {
            let target = previous.and_then(|(push_pc, push)| push_immediate(code, push_pc, push));
            // A PUSH immediate directly before the jump is exactly what the
            // interpreter pops, so validity here is unconditional.
            block.jump_target_proven = target.is_some_and(|t| t < len && jumpdests[t]);
            block.exit = if op == Opcode::Jump {
                BlockExit::Jump(target)
            } else {
                BlockExit::JumpI(target)
            };
            break;
        }
        previous = Some((pc, op));
        pc = next;
    }
    block.net_stack = height as i32;
    block.max_stack_growth = max_height as usize;
    block
}

/// The zero-padded big-endian immediate of the `PUSHn` at `pc`, or `None`
/// when `op` is not a push. Anything beyond `usize::MAX` cannot be a valid
/// destination; it saturates so the verdict logic rejects it.
fn push_immediate(code: &[u8], pc: usize, op: Opcode) -> Option<usize> {
    let count = op.push_bytes();
    if count == 0 {
        return None;
    }
    let mut value: u128 = 0;
    let mut saturated = false;
    for offset in 0..count {
        let byte = code.get(pc + 1 + offset).copied().unwrap_or(0);
        if value > (u128::MAX >> 8) {
            saturated = true;
        }
        value = (value << 8) | byte as u128;
    }
    if saturated || value > usize::MAX as u128 {
        Some(usize::MAX)
    } else {
        Some(value as usize)
    }
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
/// assert_eq!(blocks.block_at(4).unwrap().instructions, 2);
/// assert_eq!(blocks.decoded(), 2); // the INVALID block was never decoded
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
        let slot = *self.slots.get(pc)?;
        let index = if slot == 0 {
            self.blocks
                .push(decode_block(self.code, &self.jumpdests, pc, |_| {}));
            self.slots[pc] = self.blocks.len() as u32;
            self.blocks.len() - 1
        } else {
            slot as usize - 1
        };
        Some(&self.blocks[index])
    }

    /// Number of blocks decoded so far.
    pub fn decoded(&self) -> usize {
        self.blocks.len()
    }
}
