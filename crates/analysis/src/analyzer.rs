//! The static bytecode analyzer.
//!
//! [`analyze`] decodes a contract once, up front, into the [`CodeAnalysis`]
//! artifact the rest of the system shares:
//!
//! * the **jumpdest bitmap** the interpreter needs on every `JUMP`/`JUMPI`;
//! * the **basic blocks** of the code, each carrying its static gas cost,
//!   MCU-cycle cost, instruction count, net stack effect and minimum entry
//!   stack depth, so the interpreter can check a whole block's budgets at
//!   block entry instead of per opcode. The bitmap and the blocks come from
//!   the same jumpdest scan and per-block decoder that
//!   [`crate::LazyBlocks`] runs on demand;
//! * a conservative **control-flow graph** over those blocks (constant jump
//!   edges and fall-throughs), used for reachability;
//! * **diagnostics** (truncated `PUSH` immediates, undefined opcode bytes,
//!   unreachable blocks, statically-invalid jump targets) and a three-valued
//!   [`Verdict`] that deployment gates consult before code ever reaches a
//!   device.
//!
//! The verdict is deliberately conservative, in the style of `revive`'s
//! upload-time validation: [`Verdict::Accepted`] is a *proof* that execution
//! can never trap on an invalid jump, an undefined instruction or a stack
//! underflow; [`Verdict::Rejected`] marks code with a statically-certain
//! defect on a reachable path; everything the analyzer cannot decide (for
//! example computed jump targets) is [`Verdict::Unproven`] and simply runs
//! under the ordinary per-opcode checks.

use crate::blocks::{decode_block, scan_jumpdests, BasicBlock, BlockExit};
use crate::certificate::{self, GasCertificate};
use crate::opcode::Opcode;
use crate::symbolic;

/// Stack heights are tracked up to this many elements; beyond it the
/// interval analysis saturates. Comfortably above the Ethereum spec limit
/// of 1024, so saturation never weakens an underflow proof for any profile
/// the workspace uses.
const STACK_TRACK_CAP: usize = 2048;

/// Sentinel in the per-byte leader index for "not a block leader".
const NO_BLOCK: u32 = u32::MAX;

/// A statically-certain defect: executing the contract is guaranteed to
/// reach (or the deployment gate refuses to find out) a byte sequence the
/// machine cannot run. These are the typed errors the deploy-time gate
/// reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalysisError {
    /// A reachable byte does not decode to any TinyEVM opcode.
    UndefinedInstruction {
        /// Program counter of the byte.
        pc: usize,
        /// The raw byte value.
        byte: u8,
    },
    /// A reachable `PUSHn` immediate runs off the end of the code. The
    /// interpreter zero-pads the missing bytes, but shipped code relying on
    /// that is almost certainly corrupt, so the gate rejects it.
    TruncatedPush {
        /// Program counter of the `PUSHn` opcode.
        pc: usize,
        /// The push opcode in question.
        opcode: Opcode,
        /// How many immediate bytes are missing.
        missing: usize,
    },
    /// A reachable `JUMP`/`JUMPI` whose statically-known (pushed) target is
    /// not a valid `JUMPDEST`.
    InvalidJumpTarget {
        /// Program counter of the jump.
        pc: usize,
        /// The constant destination it would jump to.
        target: usize,
    },
    /// An opcode on a reachable path is guaranteed to find fewer stack
    /// items than it needs, whatever path execution took to get there.
    StackUnderflow {
        /// Program counter of the opcode.
        pc: usize,
        /// The opcode that underflows.
        opcode: Opcode,
        /// Stack items it needs.
        needed: usize,
        /// Maximum stack depth any path can supply at that point.
        available: usize,
    },
}

impl core::fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AnalysisError::UndefinedInstruction { pc, byte } => {
                write!(f, "undefined instruction byte 0x{byte:02x} at pc {pc}")
            }
            AnalysisError::TruncatedPush {
                pc,
                opcode,
                missing,
            } => write!(
                f,
                "{} at pc {pc} is missing {missing} immediate byte(s)",
                opcode.info().name
            ),
            AnalysisError::InvalidJumpTarget { pc, target } => {
                write!(f, "jump at pc {pc} targets invalid destination {target}")
            }
            AnalysisError::StackUnderflow {
                pc,
                opcode,
                needed,
                available,
            } => write!(
                f,
                "{} at pc {pc} needs {needed} stack item(s), at most {available} available",
                opcode.info().name
            ),
        }
    }
}

impl std::error::Error for AnalysisError {}

/// Why the analyzer could not fully verify a contract (the code still runs,
/// under the ordinary per-opcode checks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnprovenReason {
    /// A reachable `JUMP`/`JUMPI` takes its destination from the stack
    /// rather than an immediately preceding `PUSH`.
    DynamicJump {
        /// Program counter of the jump.
        pc: usize,
    },
    /// Some path may reach an opcode with too few stack items (but other
    /// paths supply enough, so it is not a certain defect).
    PossibleUnderflow {
        /// Program counter of the opcode.
        pc: usize,
    },
}

/// The analyzer's overall judgement of one contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Statically verified: execution can never trap on an invalid jump, an
    /// undefined instruction or a stack underflow.
    Accepted,
    /// Nothing statically wrong, but not provable either; runs with full
    /// per-opcode checking.
    Unproven(UnprovenReason),
    /// A statically-certain defect; deploy-time gates refuse this code.
    Rejected(AnalysisError),
}

impl Verdict {
    /// True for [`Verdict::Accepted`].
    pub fn is_accepted(&self) -> bool {
        matches!(self, Verdict::Accepted)
    }

    /// True for [`Verdict::Rejected`].
    pub fn is_rejected(&self) -> bool {
        matches!(self, Verdict::Rejected(_))
    }
}

/// A non-fatal observation about the code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Diagnostic {
    /// A `PUSHn` immediate runs off the end of the code (the interpreter
    /// zero-pads it).
    TruncatedPush {
        /// Program counter of the push.
        pc: usize,
        /// Missing immediate bytes.
        missing: usize,
    },
    /// A byte that decodes to no opcode (traps if executed).
    UndefinedOpcode {
        /// Program counter of the byte.
        pc: usize,
        /// The raw byte.
        byte: u8,
    },
    /// A basic block no constant-edge path reaches (frequently the data
    /// segment of CODECOPY-style init code).
    UnreachableCode {
        /// First byte of the block.
        start: usize,
        /// One past the last byte of the block.
        end: usize,
    },
    /// A jump whose constant target is not a valid `JUMPDEST`.
    InvalidJumpTarget {
        /// Program counter of the jump.
        pc: usize,
        /// The constant destination.
        target: usize,
    },
}

/// The artifact produced by [`analyze`]: everything the interpreter, the
/// deployment gates and the experiments need to know about one contract's
/// bytecode, computed once.
#[derive(Debug, Clone)]
pub struct CodeAnalysis {
    code_len: usize,
    instruction_count: usize,
    jumpdests: Vec<bool>,
    blocks: Vec<BasicBlock>,
    leader_index: Vec<u32>,
    diagnostics: Vec<Diagnostic>,
    verdict: Verdict,
    worst_case_stack: Option<usize>,
    resolved_jumps: Vec<(usize, usize)>,
    certificate: GasCertificate,
}

impl CodeAnalysis {
    /// Length of the analyzed code in bytes.
    pub fn code_len(&self) -> usize {
        self.code_len
    }

    /// Number of decoded instructions (defined opcodes plus undefined
    /// bytes; push immediates are not instructions).
    pub fn instruction_count(&self) -> usize {
        self.instruction_count
    }

    /// The jumpdest bitmap: `true` at every byte position holding a
    /// `JUMPDEST` opcode that is not push-immediate data.
    pub fn jumpdests(&self) -> &[bool] {
        &self.jumpdests
    }

    /// True when `pc` is a valid jump destination.
    #[inline]
    pub fn is_jumpdest(&self, pc: usize) -> bool {
        pc < self.jumpdests.len() && self.jumpdests[pc]
    }

    /// The basic blocks, in code order.
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    /// The block whose leader is exactly `pc`, if any.
    #[inline]
    pub fn block_at(&self, pc: usize) -> Option<&BasicBlock> {
        self.block_index(pc).map(|index| &self.blocks[index])
    }

    /// The index in [`CodeAnalysis::blocks`] of the block whose leader is
    /// exactly `pc`, if any.
    #[inline]
    pub fn block_index(&self, pc: usize) -> Option<usize> {
        match self.leader_index.get(pc) {
            Some(&index) if index != NO_BLOCK => Some(index as usize),
            _ => None,
        }
    }

    /// Non-fatal observations about the code.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// The analyzer's judgement.
    pub fn verdict(&self) -> &Verdict {
        &self.verdict
    }

    /// Upper bound on the stack depth any execution can reach, when the
    /// control flow was fully resolvable (`None` in the presence of dynamic
    /// jumps). Saturates at an internal tracking cap well above the
    /// Ethereum spec limit.
    pub fn worst_case_stack_height(&self) -> Option<usize> {
        self.worst_case_stack
    }

    /// `(jump pc, destination)` for every dynamic jump the symbolic pass
    /// resolved into a real CFG edge, in code order. Empty when the code
    /// has no dynamic jumps or when resolution failed.
    pub fn resolved_jumps(&self) -> &[(usize, usize)] {
        &self.resolved_jumps
    }

    /// The static whole-execution cost certificate: a proven worst-case
    /// gas/cycle bound over the resolved CFG, or a typed reason no bound
    /// exists. Budget deploy gates consult this.
    pub fn gas_certificate(&self) -> &GasCertificate {
        &self.certificate
    }
}

/// Statically analyzes `code`, producing the shared [`CodeAnalysis`]
/// artifact.
///
/// The function is total: any byte string is analyzable. Its jumpdest
/// bitmap and blocks are exactly what [`crate::LazyBlocks`] produces for
/// the same code; only the CFG edges, reachability and symbolically proven
/// jump targets come from the passes that need the whole code.
pub fn analyze(code: &[u8]) -> CodeAnalysis {
    let len = code.len();

    // Pass 1: the jumpdest bitmap, then the blocks in code order. Execution
    // can only ever sit on decode boundaries: it starts at 0, advances
    // instruction by instruction, and jumps only to JUMPDEST bytes that are
    // themselves decode boundaries. Each block's leader is the previous
    // block's end, so the blocks' instructions are the linear decode.
    let jumpdests = scan_jumpdests(code);
    let mut instruction_count = 0usize;
    let mut blocks: Vec<BasicBlock> = Vec::new();
    let mut leader_index = vec![NO_BLOCK; len];
    // Fatal findings (pc, error), filtered by reachability later.
    let mut fatal_candidates: Vec<(u32, AnalysisError)> = Vec::new();
    let mut diagnostics: Vec<Diagnostic> = Vec::new();
    // (block index, pc) of jumps with statically-unknown targets.
    let mut dynamic_jumps: Vec<(u32, usize)> = Vec::new();

    let mut pc = 0usize;
    while pc < len {
        let block_index = blocks.len() as u32;
        let block = decode_block(code, &jumpdests, pc);
        instruction_count += block.stream.len() + block.has_undefined as usize;
        // Only a block's last byte can be undefined (it ends the block),
        // and only its last push can run off the end of the code.
        if block.has_undefined {
            let pc = block.end - 1;
            let byte = code[pc];
            diagnostics.push(Diagnostic::UndefinedOpcode { pc, byte });
            fatal_candidates.push((
                block_index,
                AnalysisError::UndefinedInstruction { pc, byte },
            ));
        } else if block.end > len {
            let push = block
                .stream
                .last()
                .expect("a block past the end ends in a push");
            let (pc, missing) = (push.pc as usize, block.end - len);
            diagnostics.push(Diagnostic::TruncatedPush { pc, missing });
            fatal_candidates.push((
                block_index,
                AnalysisError::TruncatedPush {
                    pc,
                    opcode: push.opcode,
                    missing,
                },
            ));
        }
        // A jump is one byte, so it sits at `end - 1`.
        match block.exit {
            BlockExit::Jump(None) | BlockExit::JumpI(None) => {
                dynamic_jumps.push((block_index, block.end - 1));
            }
            BlockExit::Jump(Some(target)) | BlockExit::JumpI(Some(target))
                if !block.jump_target_proven =>
            {
                let pc = block.end - 1;
                diagnostics.push(Diagnostic::InvalidJumpTarget { pc, target });
                fatal_candidates
                    .push((block_index, AnalysisError::InvalidJumpTarget { pc, target }));
            }
            _ => {}
        }
        leader_index[pc] = block_index;
        pc = block.end;
        blocks.push(block);
    }

    // Pass 2: constant-edge successors.
    for index in 0..blocks.len() {
        let mut successors: Vec<u32> = Vec::new();
        let next = (index + 1) as u32;
        match blocks[index].exit {
            BlockExit::FallThrough => successors.push(next),
            BlockExit::Jump(Some(target)) => {
                if let Some(succ) = leader_of(&leader_index, target, len) {
                    successors.push(succ);
                }
            }
            BlockExit::JumpI(target) => {
                if let Some(target) = target {
                    if let Some(succ) = leader_of(&leader_index, target, len) {
                        successors.push(succ);
                    }
                }
                if (index + 1) < blocks.len() {
                    successors.push(next);
                }
            }
            BlockExit::Jump(None) | BlockExit::Terminate | BlockExit::RunOff => {}
        }
        blocks[index].successors = successors;
    }

    // Pass 3: symbolic constant propagation to a fixpoint. On success the
    // dynamic jumps are resolved into real edges and provably dead `JUMPI`
    // branches are pruned; on failure (some reachable destination is not a
    // propagated constant) the conservative treatment below stands.
    let resolution = symbolic::resolve(&blocks, &jumpdests, &leader_index);
    let mut resolved_jumps: Vec<(usize, usize)> = Vec::new();
    if let Some(resolution) = &resolution {
        for (index, block) in blocks.iter_mut().enumerate() {
            block.successors = resolution.successors[index].clone();
            block.jump_target_proven = resolution.proven_valid[index];
        }
        for &(block, pc, target) in &resolution.invalid_jumps {
            diagnostics.push(Diagnostic::InvalidJumpTarget { pc, target });
            fatal_candidates.push((block, AnalysisError::InvalidJumpTarget { pc, target }));
        }
        resolved_jumps.clone_from(&resolution.resolved_jumps);
    }

    // Pass 4: reachability. With a resolved CFG the entry block is the only
    // root; otherwise dynamic jumps can target any JUMPDEST, so when one is
    // reachable the jumpdest blocks all become conservative roots.
    let mut reachable = vec![false; blocks.len()];
    if !blocks.is_empty() {
        bfs(&blocks, &mut reachable, [0u32].iter().copied());
    }
    let has_dynamic = if resolution.is_some() {
        false
    } else {
        let reachable_dynamic: Vec<&(u32, usize)> = dynamic_jumps
            .iter()
            .filter(|(block, _)| reachable[*block as usize])
            .collect();
        if reachable_dynamic.is_empty() {
            false
        } else {
            let jumpdest_roots: Vec<u32> = blocks
                .iter()
                .enumerate()
                .filter(|(_, block)| block.start < len && jumpdests[block.start])
                .map(|(index, _)| index as u32)
                .collect();
            bfs(&blocks, &mut reachable, jumpdest_roots.into_iter());
            true
        }
    };
    for (index, block) in blocks.iter_mut().enumerate() {
        if !reachable[index] {
            block.unreachable = true;
            diagnostics.push(Diagnostic::UnreachableCode {
                start: block.start,
                end: block.end,
            });
        }
    }

    // Pass 5: stack dataflow over the reachable graph (only meaningful when
    // every jump is statically resolved).
    let mut fatal: Vec<(usize, AnalysisError)> = fatal_candidates
        .into_iter()
        .filter(|(block, _)| reachable[*block as usize])
        .map(|(_, error)| (error_pc(&error), error))
        .collect();
    let mut unproven: Option<UnprovenReason> = None;
    let mut worst_case_stack = None;
    let mut unresolved_jump_pc = None;
    if has_dynamic {
        let pc = dynamic_jumps
            .iter()
            .filter(|(block, _)| reachable[*block as usize])
            .map(|&(_, pc)| pc)
            .min()
            .unwrap_or(0);
        unresolved_jump_pc = Some(pc);
        unproven = Some(UnprovenReason::DynamicJump { pc });
    } else if !blocks.is_empty() {
        let (findings, worst) = stack_dataflow(&blocks, &reachable);
        worst_case_stack = Some(worst);
        for finding in findings {
            match finding {
                StackFinding::Definite { pc, error } => fatal.push((pc, error)),
                StackFinding::Possible { pc } => {
                    let keep = match unproven {
                        Some(UnprovenReason::PossibleUnderflow { pc: existing }) => pc < existing,
                        _ => true,
                    };
                    if keep {
                        unproven = Some(UnprovenReason::PossibleUnderflow { pc });
                    }
                }
            }
        }
    } else {
        worst_case_stack = Some(0);
    }

    fatal.sort_by_key(|(pc, _)| *pc);
    let verdict = match fatal.into_iter().next() {
        Some((_, error)) => Verdict::Rejected(error),
        None => match unproven {
            Some(reason) => Verdict::Unproven(reason),
            None => Verdict::Accepted,
        },
    };

    // Pass 6: the whole-execution cost certificate over the final graph.
    let certificate = certificate::certify(&blocks, &reachable, unresolved_jump_pc);

    CodeAnalysis {
        code_len: len,
        instruction_count,
        jumpdests,
        blocks,
        leader_index,
        diagnostics,
        verdict,
        worst_case_stack,
        resolved_jumps,
        certificate,
    }
}

fn error_pc(error: &AnalysisError) -> usize {
    match error {
        AnalysisError::UndefinedInstruction { pc, .. }
        | AnalysisError::TruncatedPush { pc, .. }
        | AnalysisError::InvalidJumpTarget { pc, .. }
        | AnalysisError::StackUnderflow { pc, .. } => *pc,
    }
}

/// Resolves a constant jump target to the block it leads, when the target
/// is a valid jumpdest (every valid jumpdest is a block leader).
fn leader_of(leader_index: &[u32], target: usize, len: usize) -> Option<u32> {
    if target < len && leader_index[target] != NO_BLOCK {
        Some(leader_index[target])
    } else {
        None
    }
}

fn bfs(blocks: &[BasicBlock], reachable: &mut [bool], roots: impl Iterator<Item = u32>) {
    let mut queue: Vec<u32> = Vec::new();
    for root in roots {
        if !reachable[root as usize] {
            reachable[root as usize] = true;
            queue.push(root);
        }
    }
    while let Some(index) = queue.pop() {
        for &succ in &blocks[index as usize].successors {
            if !reachable[succ as usize] {
                reachable[succ as usize] = true;
                queue.push(succ);
            }
        }
    }
}

enum StackFinding {
    Definite { pc: usize, error: AnalysisError },
    Possible { pc: usize },
}

/// Interval dataflow over entry stack depths. Each reachable block gets the
/// interval `[lo, hi]` of depths any path can reach it with; `lo` is sound
/// for proving the *absence* of underflow, `hi` for proving its *presence*.
fn stack_dataflow(blocks: &[BasicBlock], reachable: &[bool]) -> (Vec<StackFinding>, usize) {
    let n = blocks.len();
    let mut entry_lo = vec![usize::MAX; n]; // MAX = not yet visited
    let mut entry_hi = vec![0usize; n];
    let mut queue: Vec<usize> = Vec::new();
    entry_lo[0] = 0;
    entry_hi[0] = 0;
    queue.push(0);
    while let Some(index) = queue.pop() {
        let block = &blocks[index];
        let lo = entry_lo[index];
        let hi = entry_hi[index];
        let exit_lo = clamp_height(lo as i64 + block.net_stack as i64);
        let exit_hi = clamp_height(hi as i64 + block.net_stack as i64);
        for &succ in &block.successors {
            let succ = succ as usize;
            let (new_lo, new_hi) = if entry_lo[succ] == usize::MAX {
                (exit_lo, exit_hi)
            } else {
                (entry_lo[succ].min(exit_lo), entry_hi[succ].max(exit_hi))
            };
            if new_lo != entry_lo[succ] || new_hi != entry_hi[succ] {
                entry_lo[succ] = new_lo;
                entry_hi[succ] = new_hi;
                queue.push(succ);
            }
        }
    }

    let mut findings = Vec::new();
    let mut worst = 0usize;
    for (index, block) in blocks.iter().enumerate() {
        if !reachable[index] || entry_lo[index] == usize::MAX {
            continue;
        }
        let lo = entry_lo[index];
        let hi = entry_hi[index];
        worst = worst.max(hi.saturating_add(block.max_stack_growth));
        if block.stack_required > lo {
            // Re-walk the block to name the first offending opcode at the
            // depth bound in question.
            if block.stack_required > hi {
                if let Some((pc, opcode, needed, available)) = first_underflow(block, hi) {
                    findings.push(StackFinding::Definite {
                        pc,
                        error: AnalysisError::StackUnderflow {
                            pc,
                            opcode,
                            needed,
                            available,
                        },
                    });
                    continue;
                }
            }
            if let Some((pc, _, _, _)) = first_underflow(block, lo) {
                findings.push(StackFinding::Possible { pc });
            }
        }
    }
    (findings, worst)
}

fn clamp_height(value: i64) -> usize {
    value.clamp(0, STACK_TRACK_CAP as i64) as usize
}

/// Walks a block with the given entry depth and returns the first opcode
/// that would underflow, as `(pc, opcode, needed, available)`.
fn first_underflow(
    block: &BasicBlock,
    entry_depth: usize,
) -> Option<(usize, Opcode, usize, usize)> {
    let mut depth = entry_depth as i64;
    for instr in &block.stream {
        let info = instr.opcode.info();
        if depth < info.inputs as i64 {
            return Some((
                instr.pc as usize,
                instr.opcode,
                info.inputs,
                depth.max(0) as usize,
            ));
        }
        depth += info.outputs as i64 - info.inputs as i64;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    const PUSH1: u8 = 0x60;
    const PUSH2: u8 = 0x61;
    const ADD: u8 = 0x01;
    const POP: u8 = 0x50;
    const JUMP: u8 = 0x56;
    const JUMPI: u8 = 0x57;
    const JUMPDEST: u8 = 0x5b;
    const PC: u8 = 0x58;
    const STOP: u8 = 0x00;
    const UNDEFINED: u8 = 0x0e;

    #[test]
    fn empty_code_is_accepted() {
        let analysis = analyze(&[]);
        assert_eq!(*analysis.verdict(), Verdict::Accepted);
        assert!(analysis.blocks().is_empty());
        assert_eq!(analysis.worst_case_stack_height(), Some(0));
    }

    #[test]
    fn straight_line_block_aggregates() {
        // PUSH1 1, PUSH1 2, ADD, STOP
        let code = [PUSH1, 1, PUSH1, 2, ADD, STOP];
        let analysis = analyze(&code);
        assert_eq!(*analysis.verdict(), Verdict::Accepted);
        assert_eq!(analysis.blocks().len(), 1);
        let block = &analysis.blocks()[0];
        assert_eq!(block.start, 0);
        assert_eq!(block.end, code.len());
        assert_eq!(block.stream.len(), 4);
        assert_eq!(block.net_stack, 1);
        assert_eq!(block.stack_required, 0);
        assert_eq!(block.max_stack_growth, 2);
        assert_eq!(block.exit, BlockExit::Terminate);
        let expected_gas: u64 = [PUSH1, PUSH1, ADD, STOP]
            .iter()
            .map(|&byte| Opcode::from_byte(byte).unwrap().info().gas)
            .sum();
        assert_eq!(block.static_gas, expected_gas);
        assert_eq!(analysis.worst_case_stack_height(), Some(2));
    }

    #[test]
    fn jumpdest_inside_push_data_is_not_a_destination() {
        // PUSH1 0x5b, STOP — the 0x5b byte is immediate data.
        let code = [PUSH1, JUMPDEST, STOP];
        let analysis = analyze(&code);
        assert!(!analysis.is_jumpdest(1));
        assert_eq!(analysis.instruction_count(), 2);
    }

    #[test]
    fn constant_jump_to_valid_dest_is_accepted() {
        // PUSH1 4, JUMP, <undefined>, JUMPDEST, STOP
        let code = [PUSH1, 4, JUMP, UNDEFINED, JUMPDEST, STOP];
        let analysis = analyze(&code);
        assert_eq!(*analysis.verdict(), Verdict::Accepted);
        // The undefined byte sits in an unreachable block: diagnostics only.
        assert!(analysis
            .diagnostics()
            .iter()
            .any(|d| matches!(d, Diagnostic::UndefinedOpcode { pc: 3, .. })));
        assert!(analysis
            .diagnostics()
            .iter()
            .any(|d| matches!(d, Diagnostic::UnreachableCode { start: 3, .. })));
    }

    #[test]
    fn constant_jump_to_invalid_dest_is_rejected() {
        // PUSH1 3, JUMP, STOP — 3 is not a JUMPDEST.
        let code = [PUSH1, 3, JUMP, STOP];
        let analysis = analyze(&code);
        assert_eq!(
            *analysis.verdict(),
            Verdict::Rejected(AnalysisError::InvalidJumpTarget { pc: 2, target: 3 })
        );
    }

    #[test]
    fn reachable_undefined_byte_is_rejected() {
        let code = [PUSH1, 1, POP, UNDEFINED];
        let analysis = analyze(&code);
        assert_eq!(
            *analysis.verdict(),
            Verdict::Rejected(AnalysisError::UndefinedInstruction {
                pc: 3,
                byte: UNDEFINED
            })
        );
    }

    #[test]
    fn truncated_push_is_rejected_with_missing_count() {
        let code = [PUSH2, 0xaa];
        let analysis = analyze(&code);
        assert_eq!(
            *analysis.verdict(),
            Verdict::Rejected(AnalysisError::TruncatedPush {
                pc: 0,
                opcode: Opcode::Push2,
                missing: 1
            })
        );
        assert!(analysis
            .diagnostics()
            .iter()
            .any(|d| matches!(d, Diagnostic::TruncatedPush { pc: 0, missing: 1 })));
    }

    #[test]
    fn definite_stack_underflow_is_rejected() {
        let code = [ADD, STOP];
        let analysis = analyze(&code);
        assert_eq!(
            *analysis.verdict(),
            Verdict::Rejected(AnalysisError::StackUnderflow {
                pc: 0,
                opcode: Opcode::Add,
                needed: 2,
                available: 0
            })
        );
    }

    #[test]
    fn dynamic_jump_is_unproven() {
        // PC, JUMP — destination comes from the stack, not a push.
        let code = [PC, JUMP];
        let analysis = analyze(&code);
        assert_eq!(
            *analysis.verdict(),
            Verdict::Unproven(UnprovenReason::DynamicJump { pc: 1 })
        );
        assert_eq!(analysis.worst_case_stack_height(), None);
    }

    #[test]
    fn path_sensitive_underflow_is_unproven() {
        // CALLDATASIZE, PUSH1 6, JUMPI, PUSH1 1, JUMPDEST, POP, STOP
        // The condition is genuinely dynamic: the taken branch reaches POP
        // with an empty stack, the fall-through supplies one item.
        // Possible, not certain.
        let code = [0x36, PUSH1, 6, JUMPI, PUSH1, 1, JUMPDEST, POP, STOP];
        let analysis = analyze(&code);
        assert_eq!(
            *analysis.verdict(),
            Verdict::Unproven(UnprovenReason::PossibleUnderflow { pc: 7 })
        );
    }

    #[test]
    fn constant_zero_jumpi_prunes_the_dead_branch() {
        // PUSH1 0, PUSH1 7, JUMPI, PUSH1 1, JUMPDEST, POP, STOP
        // The condition is the constant 0: the taken edge (which would
        // reach POP with an empty stack) is provably dead, so the old
        // PossibleUnderflow false positive discharges to Accepted.
        let code = [PUSH1, 0, PUSH1, 7, JUMPI, PUSH1, 1, JUMPDEST, POP, STOP];
        let analysis = analyze(&code);
        assert_eq!(*analysis.verdict(), Verdict::Accepted);
        // The JUMPI block keeps only its fall-through edge.
        assert_eq!(analysis.blocks()[0].successors, vec![1]);
    }

    #[test]
    fn shuffled_push_target_jump_is_resolved_and_accepted() {
        // PUSH1 8, PUSH1 0xAA, SWAP1, DUP1, POP, JUMP, <unreachable>,
        // JUMPDEST(8), POP, STOP — the destination is pushed first, then
        // shuffled through SWAP/DUP/POP before the jump consumes it.
        let code = [
            PUSH1, 8, PUSH1, 0xaa, 0x90, 0x80, POP, JUMP, JUMPDEST, POP, STOP,
        ];
        let analysis = analyze(&code);
        assert_eq!(*analysis.verdict(), Verdict::Accepted);
        assert_eq!(analysis.resolved_jumps(), &[(7, 8)]);
        assert!(analysis.blocks()[0].jump_target_proven);
        assert!(analysis.worst_case_stack_height().is_some());
    }

    #[test]
    fn folded_constant_jump_is_resolved_through_add() {
        // PUSH1 5, PUSH1 1, ADD, JUMP, <unreachable>, JUMPDEST(6), STOP —
        // the corpus's dynamic-jump family: 5 + 1 folds to the valid
        // destination 6.
        let code = [PUSH1, 5, PUSH1, 1, ADD, JUMP, JUMPDEST, STOP];
        let analysis = analyze(&code);
        assert_eq!(*analysis.verdict(), Verdict::Accepted);
        assert_eq!(analysis.resolved_jumps(), &[(5, 6)]);
    }

    #[test]
    fn resolved_jump_to_invalid_destination_is_rejected() {
        // PUSH1 3, PUSH1 1, ADD, JUMP, STOP — 3 + 1 = 4, not a JUMPDEST.
        let code = [PUSH1, 3, PUSH1, 1, ADD, JUMP, STOP];
        let analysis = analyze(&code);
        assert_eq!(
            *analysis.verdict(),
            Verdict::Rejected(AnalysisError::InvalidJumpTarget { pc: 5, target: 4 })
        );
        assert!(!analysis.blocks()[0].jump_target_proven);
    }

    #[test]
    fn merge_of_disagreeing_constants_stays_unproven() {
        // A diamond whose two arms push *different* destinations for the
        // join block's JUMP: the join demotes the slot to unknown, so the
        // jump stays dynamic and the verdict stays Unproven.
        let diamond = [
            0x36, // 0: CALLDATASIZE (unknown condition)
            PUSH1, 9,     // 1: PUSH1 9 (taken arm)
            JUMPI, // 3
            PUSH1, 13, // 4: destination A = 13
            PUSH1, 12,       // 6: PUSH1 12 (jump to the join)
            JUMP,     // 8
            JUMPDEST, // 9: taken arm
            PUSH1, 14,       // 10: destination B = 14 (disagrees with A = 13)
            JUMPDEST, // 12: join block
            JUMP,     // 13: dynamic jump with conflicting constant inputs
            JUMPDEST, // 14
            STOP,     // 15
        ];
        let analysis = analyze(&diamond);
        assert!(matches!(
            analysis.verdict(),
            Verdict::Unproven(UnprovenReason::DynamicJump { pc: 13 })
        ));
        assert!(analysis.resolved_jumps().is_empty());
        assert!(matches!(
            analysis.gas_certificate(),
            GasCertificate::Uncertified { pc: 13 }
        ));
    }

    #[test]
    fn straight_line_certificate_matches_the_static_sums() {
        let code = [PUSH1, 1, PUSH1, 2, ADD, STOP];
        let analysis = analyze(&code);
        let block = &analysis.blocks()[0];
        assert_eq!(
            *analysis.gas_certificate(),
            GasCertificate::Bounded {
                max_gas: block.static_gas,
                max_mcu_cycles: block.mcu_cycles,
            }
        );
    }

    #[test]
    fn branchier_path_bounds_take_the_maximum() {
        // CALLDATASIZE, PUSH1 6, JUMPI, PUSH1 1, POP, JUMPDEST?, ...
        //  0: CALLDATASIZE
        //  1: PUSH1 7
        //  3: JUMPI            -> 7 (cheap) / 4 (expensive fall-through)
        //  4: PUSH1 1
        //  6: POP? -- pc 6 POP then JUMPDEST@7:
        let code = [0x36, PUSH1, 7, JUMPI, PUSH1, 1, POP, JUMPDEST, STOP];
        let analysis = analyze(&code);
        let blocks = analysis.blocks();
        let expensive: u64 = blocks[0].static_gas + blocks[1].static_gas + blocks[2].static_gas;
        assert_eq!(
            analysis.gas_certificate().bounds().map(|(gas, _)| gas),
            Some(expensive)
        );
    }

    #[test]
    fn loop_certificate_is_unbounded_at_the_loop_head() {
        // PUSH1 5, JUMPDEST(2), PUSH1 1, SWAP1, SUB, DUP1, PUSH1 2, JUMPI, STOP
        let code = [
            PUSH1, 5, JUMPDEST, PUSH1, 1, 0x90, 0x03, 0x80, PUSH1, 2, JUMPI, STOP,
        ];
        let analysis = analyze(&code);
        assert_eq!(
            *analysis.gas_certificate(),
            GasCertificate::Unbounded { loop_head: 2 }
        );
    }

    #[test]
    fn call_bearing_code_is_uncertified() {
        // PUSHx0 CALL args... simplest: 7 zero pushes then CALL, STOP.
        let mut code = Vec::new();
        for _ in 0..7 {
            code.extend_from_slice(&[PUSH1, 0]);
        }
        code.push(0xf1); // CALL
        code.push(STOP);
        let analysis = analyze(&code);
        assert_eq!(
            *analysis.gas_certificate(),
            GasCertificate::Uncertified { pc: 14 }
        );
        assert!(!analysis.gas_certificate().within_gas_budget(u64::MAX));
    }

    #[test]
    fn unreachable_loops_do_not_defeat_the_certificate() {
        // PUSH1 4, JUMP, <dead infinite loop: JUMPDEST? no>, JUMPDEST, STOP
        // Dead code after an unconditional jump: JUMPDEST@3, PUSH1 3, JUMP
        // would be reachable via the conservative rule pre-resolution; with
        // the resolved CFG it is not.
        let code = [PUSH1, 7, JUMP, JUMPDEST, PUSH1, 3, JUMP, JUMPDEST, STOP];
        let analysis = analyze(&code);
        assert_eq!(*analysis.verdict(), Verdict::Accepted);
        assert!(analysis.gas_certificate().is_bounded());
    }

    #[test]
    fn code_after_terminator_is_unreachable_not_rejected() {
        // STOP followed by junk bytes (the CODECOPY data-segment pattern).
        let code = [STOP, UNDEFINED, 0xaa, 0xbb];
        let analysis = analyze(&code);
        assert_eq!(*analysis.verdict(), Verdict::Accepted);
        assert!(analysis.blocks().iter().skip(1).all(|b| b.unreachable));
    }

    #[test]
    fn loop_with_constant_back_edge_is_accepted() {
        // PUSH1 5, JUMPDEST(2), PUSH1 1, SWAP1, SUB, DUP1, PUSH1 2, JUMPI, STOP
        let code = [
            PUSH1, 5, JUMPDEST, PUSH1, 1, 0x90, 0x03, 0x80, PUSH1, 2, JUMPI, STOP,
        ];
        let analysis = analyze(&code);
        assert_eq!(*analysis.verdict(), Verdict::Accepted);
        assert!(analysis.worst_case_stack_height().is_some());
    }

    #[test]
    fn jumpdest_bitmap_matches_reference_scan() {
        // Reference semantics: 0x5b counts unless it is push-immediate data.
        let code = [PUSH2, JUMPDEST, JUMPDEST, JUMPDEST, PUSH1, 0, JUMP];
        let analysis = analyze(&code);
        assert!(!analysis.is_jumpdest(1));
        assert!(!analysis.is_jumpdest(2));
        assert!(analysis.is_jumpdest(3));
    }

    #[test]
    fn gas_and_removed_flags_are_set() {
        // GAS, POP, TIMESTAMP, POP, STOP
        let code = [0x5a, POP, 0x42, POP, STOP];
        let analysis = analyze(&code);
        let block = &analysis.blocks()[0];
        assert!(block.has_gas_op);
        assert!(block.has_removed_off_chain);
        assert!(!block.interior_call);
    }

    #[test]
    fn interior_call_flags_the_block_but_interior_mstore_does_not() {
        // PUSH1 0, PUSH1 0, MSTORE, STOP — an interior MSTORE may trap, but
        // the interpreter refunds the rest of the block, so it batches.
        let code = [PUSH1, 0, PUSH1, 0, 0x52, STOP];
        let analysis = analyze(&code);
        assert!(!analysis.blocks()[0].interior_call);
        // Seven zero pushes, CALL, STOP — the CALL's sub-frame adds
        // instructions mid-block.
        let mut code = Vec::new();
        for _ in 0..7 {
            code.extend_from_slice(&[PUSH1, 0]);
        }
        code.extend_from_slice(&[0xf1, STOP]);
        assert!(analyze(&code).blocks()[0].interior_call);
        // When the call is the block's last instruction it can be batched:
        // the next block entry sees the callee's instructions.
        code.pop();
        assert!(!analyze(&code).blocks()[0].interior_call);
    }
}
