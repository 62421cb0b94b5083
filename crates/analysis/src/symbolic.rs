//! Symbolic constant propagation over the control-flow graph.
//!
//! The block analyzer ([`crate::analyzer::analyze`]) stops at `Unproven`
//! whenever a `JUMP`/`JUMPI` takes its destination from the stack rather
//! than an immediately preceding `PUSH`. This module closes that gap with a
//! classic abstract interpretation over a two-point value lattice:
//!
//! * every stack slot is either [`SymValue::Const`] (the same 256-bit value
//!   on **every** execution path reaching that program point) or
//!   [`SymValue::Unknown`];
//! * `PUSHn` produces constants, `DUPn`/`SWAPn`/`POP` shuffle them, and
//!   `ADD`/`SUB`/`MUL`/`AND`/`OR` fold when both operands are constant —
//!   with exactly the interpreter's wrapping 256-bit semantics;
//! * block entry states are joined pointwise from the **top** of the stack
//!   (a slot stays constant only if every predecessor agrees), so anything
//!   the analysis reports constant is constant at runtime.
//!
//! Run to a fixpoint, the abstract states resolve dynamic jumps into real
//! CFG edges and prove `JUMPI` conditions always- or never-taken, which
//! prunes dead branches. Both refinements feed the analyzer's verdict
//! (reclassifying `DynamicJump` and `PossibleUnderflow`) and the
//! [`crate::GasCertificate`] computed over the resolved graph.

use crate::blocks::{BasicBlock, BlockExit, Instruction};
use crate::opcode::Opcode;
use tinyevm_types::U256;

/// Symbolic stack slots are tracked to this depth below the top; deeper
/// slots are forgotten (sound: forgetting only loses precision).
const SYM_STACK_CAP: usize = 64;

/// Abort threshold for pathological graphs: total block transfer-function
/// evaluations before the pass gives up and the analyzer falls back to the
/// conservative dynamic-jump treatment.
const FIXPOINT_BUDGET: usize = 200_000;

/// One abstract stack slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SymValue {
    /// The slot holds this exact value on every path reaching this point.
    Const(U256),
    /// The slot's value differs between paths or defied folding.
    Unknown,
}

/// An abstract operand stack: the known suffix nearest the top (top at the
/// end of the vec). Slots beneath `values[0]` exist at runtime but are not
/// tracked; popping past the known region yields [`SymValue::Unknown`].
#[derive(Debug, Clone, PartialEq, Eq)]
struct SymStack {
    values: Vec<SymValue>,
}

impl SymStack {
    fn empty() -> Self {
        SymStack { values: Vec::new() }
    }

    fn push(&mut self, value: SymValue) {
        if self.values.len() == SYM_STACK_CAP {
            // Forget the deepest tracked slot to make room.
            self.values.remove(0);
        }
        self.values.push(value);
    }

    fn pop(&mut self) -> SymValue {
        self.values.pop().unwrap_or(SymValue::Unknown)
    }

    /// The slot `depth` positions below the top (`1` = top).
    fn peek(&self, depth: usize) -> SymValue {
        if depth >= 1 && depth <= self.values.len() {
            self.values[self.values.len() - depth]
        } else {
            SymValue::Unknown
        }
    }

    /// Pointwise join, aligned at the top of the stack. Returns `true` when
    /// `self` changed. Slots only known in one input are dropped and
    /// constants that disagree become unknown, so the join only moves down
    /// the lattice — the fixpoint terminates.
    fn join(&mut self, other: &SymStack) -> bool {
        let keep = self.values.len().min(other.values.len());
        let mut changed = self.values.len() != keep;
        self.values.drain(..self.values.len() - keep);
        let offset = other.values.len() - keep;
        for (index, slot) in self.values.iter_mut().enumerate() {
            let theirs = other.values[offset + index];
            if *slot != theirs && *slot != SymValue::Unknown {
                *slot = SymValue::Unknown;
                changed = true;
            }
        }
        changed
    }
}

/// What the fixpoint concluded about the final `JUMP`/`JUMPI` of a block
/// whose target is not a syntactic `PUSH` immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JumpState {
    /// The block has not been reached yet (or has no dynamic jump).
    NoInfo,
    /// Every visit so far agreed on this constant destination.
    Resolved(usize),
    /// The destination is not provably constant; the whole pass fails.
    Unresolved,
}

/// What the fixpoint concluded about a `JUMPI` condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CondState {
    NoInfo,
    /// Constant zero on every path: the branch is never taken.
    NeverTaken,
    /// Constant non-zero on every path: the fall-through is dead.
    AlwaysTaken,
    /// Not provably constant: both edges live.
    Either,
}

/// The successful outcome of the symbolic pass: a fully resolved CFG.
#[derive(Debug)]
pub(crate) struct Resolution {
    /// Refined successor lists (resolved dynamic-jump edges added, dead
    /// `JUMPI` branches pruned), indexed like `blocks`.
    pub(crate) successors: Vec<Vec<u32>>,
    /// `(jump pc, destination)` for every dynamic jump the pass resolved to
    /// a constant destination (valid or not), in code order.
    pub(crate) resolved_jumps: Vec<(usize, usize)>,
    /// Per block: the final `JUMP`/`JUMPI` destination is statically proven
    /// to be a valid `JUMPDEST` (the interpreter may skip its bitmap check).
    pub(crate) proven_valid: Vec<bool>,
    /// Resolved dynamic jumps whose constant destination is *not* a valid
    /// jumpdest: `(block, jump pc, destination)` — fatal if reachable.
    pub(crate) invalid_jumps: Vec<(u32, usize, usize)>,
}

/// Runs the symbolic fixpoint. Returns `None` when any reachable dynamic
/// jump could not be resolved to a constant destination (the caller then
/// falls back to the conservative any-jumpdest treatment), or when the
/// iteration budget is exhausted.
pub(crate) fn resolve(
    blocks: &[BasicBlock],
    jumpdests: &[bool],
    leader_index: &[u32],
) -> Option<Resolution> {
    let code_len = jumpdests.len();
    if blocks.is_empty() {
        return Some(Resolution {
            successors: Vec::new(),
            resolved_jumps: Vec::new(),
            proven_valid: Vec::new(),
            invalid_jumps: Vec::new(),
        });
    }

    let n = blocks.len();
    let mut entry: Vec<Option<SymStack>> = vec![None; n];
    let mut jump_state = vec![JumpState::NoInfo; n];
    let mut cond_state = vec![CondState::NoInfo; n];
    let mut worklist: Vec<usize> = vec![0];
    let mut queued = vec![false; n];
    queued[0] = true;
    entry[0] = Some(SymStack::empty());
    let mut budget = FIXPOINT_BUDGET;

    while let Some(index) = worklist.pop() {
        queued[index] = false;
        budget = budget.checked_sub(1)?;
        let block = &blocks[index];
        let mut stack = entry[index].clone().expect("queued blocks have a state");

        // Walk the block; capture the jump operands just before the jump
        // (always the block's last instruction) consumes them.
        let mut jump_target = SymValue::Unknown;
        let mut jump_cond = SymValue::Unknown;
        for instr in &block.stream {
            if matches!(instr.opcode, Opcode::Jump | Opcode::JumpI) {
                jump_target = stack.peek(1);
                jump_cond = stack.peek(2);
            }
            transfer(&mut stack, instr);
        }

        // Classify the exit under the current abstract state.
        let mut successors: Vec<(usize, &SymStack)> = Vec::new();
        let next = index + 1;
        match block.exit {
            BlockExit::Terminate | BlockExit::RunOff => {}
            BlockExit::FallThrough => successors.push((next, &stack)),
            BlockExit::Jump(syntactic) => {
                let target = match syntactic {
                    Some(target) => Some(target),
                    None => match advance_jump_state(&mut jump_state[index], jump_target) {
                        Ok(target) => target,
                        Err(()) => return None,
                    },
                };
                if let Some(target) = target {
                    if let Some(succ) = leader_of(leader_index, target, code_len) {
                        successors.push((succ as usize, &stack));
                    }
                }
            }
            BlockExit::JumpI(syntactic) => {
                advance_cond_state(&mut cond_state[index], jump_cond);
                let cond = cond_state[index];
                let target = match syntactic {
                    Some(target) => Some(target),
                    None if cond == CondState::NeverTaken => {
                        // The branch provably never fires; its destination
                        // need not resolve (it is popped and discarded).
                        None
                    }
                    None => match advance_jump_state(&mut jump_state[index], jump_target) {
                        Ok(target) => target,
                        Err(()) => return None,
                    },
                };
                if cond != CondState::NeverTaken {
                    if let Some(target) = target {
                        if let Some(succ) = leader_of(leader_index, target, code_len) {
                            successors.push((succ as usize, &stack));
                        }
                    }
                }
                if cond != CondState::AlwaysTaken && next < n {
                    successors.push((next, &stack));
                }
            }
        }

        for (succ, out) in successors {
            let changed = match &mut entry[succ] {
                Some(existing) => existing.join(out),
                state @ None => {
                    *state = Some(out.clone());
                    true
                }
            };
            if changed && !queued[succ] {
                queued[succ] = true;
                worklist.push(succ);
            }
        }
    }

    // The pass succeeds when no visited dynamic jump degraded to
    // `Unresolved` (enforced above by early return) — collect the results.
    let mut resolution = Resolution {
        successors: vec![Vec::new(); n],
        resolved_jumps: Vec::new(),
        proven_valid: vec![false; n],
        invalid_jumps: Vec::new(),
    };
    for index in 0..n {
        let block = &blocks[index];
        // A jump is one byte and ends its block.
        let last_pc = block.end - 1;
        let next = (index + 1) as u32;
        let mut successors = Vec::new();
        match block.exit {
            BlockExit::Terminate | BlockExit::RunOff => {}
            BlockExit::FallThrough => successors.push(next),
            BlockExit::Jump(syntactic) => {
                let target = match (syntactic, jump_state[index]) {
                    (Some(target), _) => Some(target),
                    (None, JumpState::Resolved(target)) => {
                        resolution.resolved_jumps.push((last_pc, target));
                        Some(target)
                    }
                    // Never visited: unreachable under the resolved CFG.
                    (None, JumpState::NoInfo) => None,
                    (None, JumpState::Unresolved) => unreachable!("early return above"),
                };
                if let Some(target) = target {
                    let valid = target < code_len && jumpdests[target];
                    resolution.proven_valid[index] = valid;
                    if !valid && syntactic.is_none() {
                        resolution
                            .invalid_jumps
                            .push((index as u32, last_pc, target));
                    }
                    // Like the syntactic pass, keep the edge even for an
                    // invalid destination that happens to land on a block
                    // leader: reachability stays an over-approximation and
                    // the fatal invalid-target finding drives the verdict.
                    if let Some(succ) = leader_of(leader_index, target, code_len) {
                        successors.push(succ);
                    }
                }
            }
            BlockExit::JumpI(syntactic) => {
                let cond = cond_state[index];
                let target = match (syntactic, jump_state[index]) {
                    (Some(target), _) => Some(target),
                    (None, JumpState::Resolved(target)) => {
                        resolution.resolved_jumps.push((last_pc, target));
                        Some(target)
                    }
                    (None, JumpState::NoInfo) => None,
                    (None, JumpState::Unresolved) => unreachable!("early return above"),
                };
                if let Some(target) = target {
                    let valid = target < code_len && jumpdests[target];
                    resolution.proven_valid[index] = valid;
                    if !valid && syntactic.is_none() && cond != CondState::NeverTaken {
                        resolution
                            .invalid_jumps
                            .push((index as u32, last_pc, target));
                    }
                    if cond != CondState::NeverTaken {
                        if let Some(succ) = leader_of(leader_index, target, code_len) {
                            successors.push(succ);
                        }
                    }
                }
                if cond != CondState::AlwaysTaken && (index + 1) < n {
                    successors.push(next);
                }
            }
        }
        resolution.successors[index] = successors;
    }
    resolution.resolved_jumps.sort_unstable();
    Some(resolution)
}

fn leader_of(leader_index: &[u32], target: usize, len: usize) -> Option<u32> {
    if target < len && leader_index[target] != u32::MAX {
        Some(leader_index[target])
    } else {
        None
    }
}

/// Folds one jump-destination observation into a block's resolution state.
/// `Err(())` means the destination is not provably constant and the whole
/// pass must fail.
fn advance_jump_state(state: &mut JumpState, observed: SymValue) -> Result<Option<usize>, ()> {
    let target = match observed {
        // Destinations beyond `usize` can never be valid; saturate so the
        // caller records an invalid target rather than losing resolution.
        SymValue::Const(value) => value.to_usize().unwrap_or(usize::MAX),
        SymValue::Unknown => {
            *state = JumpState::Unresolved;
            return Err(());
        }
    };
    match *state {
        JumpState::NoInfo => {
            *state = JumpState::Resolved(target);
            Ok(Some(target))
        }
        JumpState::Resolved(existing) if existing == target => Ok(Some(target)),
        _ => {
            *state = JumpState::Unresolved;
            Err(())
        }
    }
}

/// Folds one `JUMPI`-condition observation into a block's condition state.
/// The state only moves towards [`CondState::Either`], so re-queued blocks
/// can un-prune an edge but never re-prune one.
fn advance_cond_state(state: &mut CondState, observed: SymValue) {
    let now = match observed {
        SymValue::Const(value) if value.is_zero() => CondState::NeverTaken,
        SymValue::Const(_) => CondState::AlwaysTaken,
        SymValue::Unknown => CondState::Either,
    };
    *state = match (*state, now) {
        (CondState::NoInfo, new) => new,
        (old, new) if old == new => old,
        _ => CondState::Either,
    };
}

/// The abstract transfer function of one instruction, mirroring the
/// interpreter exactly: `binary_op` pops `a` (top) then `b` and pushes
/// `f(a, b)`, pushes push their zero-padded big-endian immediate, and
/// `DUP`/`SWAP` shuffle by depth.
fn transfer(stack: &mut SymStack, instr: &Instruction) {
    let op = instr.opcode;
    if op.push_bytes() > 0 {
        stack.push(SymValue::Const(instr.immediate));
        return;
    }
    let dup = op.dup_depth();
    if dup > 0 {
        let value = stack.peek(dup);
        stack.push(value);
        return;
    }
    let swap = op.swap_depth();
    if swap > 0 {
        let len = stack.values.len();
        if len > swap {
            stack.values.swap(len - 1, len - swap - 1);
        } else if len >= 1 {
            // The counterpart slot is untracked: the old top sinks into the
            // unknown region and an unknown value surfaces.
            stack.values[len - 1] = SymValue::Unknown;
        }
        return;
    }
    match op {
        Opcode::Pop => {
            stack.pop();
        }
        Opcode::Add | Opcode::Sub | Opcode::Mul | Opcode::And | Opcode::Or => {
            let a = stack.pop();
            let b = stack.pop();
            let folded = match (a, b) {
                (SymValue::Const(a), SymValue::Const(b)) => SymValue::Const(match op {
                    Opcode::Add => a.wrapping_add(b),
                    Opcode::Sub => a.wrapping_sub(b),
                    Opcode::Mul => a.wrapping_mul(b),
                    Opcode::And => a & b,
                    Opcode::Or => a | b,
                    _ => unreachable!(),
                }),
                _ => SymValue::Unknown,
            };
            stack.push(folded);
        }
        _ => {
            let info = op.info();
            for _ in 0..info.inputs {
                stack.pop();
            }
            for _ in 0..info.outputs {
                stack.push(SymValue::Unknown);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_aligns_at_the_top() {
        let mut a = SymStack::empty();
        a.push(SymValue::Const(U256::from(9u64)));
        a.push(SymValue::Const(U256::from(7u64)));
        let mut b = SymStack::empty();
        b.push(SymValue::Const(U256::from(7u64)));
        // Different depths, same top: the join keeps the top constant.
        assert!(a.join(&b));
        assert_eq!(a.values, vec![SymValue::Const(U256::from(7u64))]);
        // Idempotent afterwards.
        assert!(!a.join(&b));
    }

    #[test]
    fn join_demotes_disagreeing_constants() {
        let mut a = SymStack::empty();
        a.push(SymValue::Const(U256::from(1u64)));
        let mut b = SymStack::empty();
        b.push(SymValue::Const(U256::from(2u64)));
        assert!(a.join(&b));
        assert_eq!(a.values, vec![SymValue::Unknown]);
    }

    #[test]
    fn swap_beyond_tracked_depth_degrades_the_top() {
        let mut stack = SymStack::empty();
        stack.push(SymValue::Const(U256::from(3u64)));
        let instr = Instruction {
            immediate: U256::ZERO,
            pc: 0,
            opcode: Opcode::Swap2,
        };
        transfer(&mut stack, &instr);
        assert_eq!(stack.values, vec![SymValue::Unknown]);
    }

    #[test]
    fn cond_state_never_re_prunes() {
        let mut state = CondState::NoInfo;
        advance_cond_state(&mut state, SymValue::Const(U256::ZERO));
        assert_eq!(state, CondState::NeverTaken);
        advance_cond_state(&mut state, SymValue::Unknown);
        assert_eq!(state, CondState::Either);
        advance_cond_state(&mut state, SymValue::Const(U256::ZERO));
        assert_eq!(state, CondState::Either);
    }
}
