//! The 256-bit operand stack.

use crate::error::TrapReason;
use crate::opcode::Opcode;
use tinyevm_types::U256;

/// The EVM operand stack, bounded by the device profile and instrumented
/// with the maximum-stack-pointer statistic that the paper's Figure 3c
/// reports.
///
/// The data operations (`push`, `pop`, `dup`, `swap`) do not check depth:
/// the caller proves it first, per opcode with [`Stack::require`] or for a
/// whole basic block with [`Stack::reserve`]. Both checks also raise the
/// high-water mark to the depth the checked instructions reach.
///
/// # Example
///
/// ```
/// use tinyevm_evm::{Opcode, Stack};
/// use tinyevm_types::U256;
///
/// let mut stack = Stack::new(96);
/// stack.require(Opcode::Push1).unwrap();
/// stack.push(U256::from(1u64));
/// stack.require(Opcode::Push1).unwrap();
/// stack.push(U256::from(2u64));
/// assert_eq!(stack.pop(), U256::from(2u64));
/// assert_eq!(stack.max_pointer(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Stack {
    items: Vec<U256>,
    limit: usize,
    max_pointer: usize,
}

impl Stack {
    /// Creates an empty stack with the given element limit.
    pub fn new(limit: usize) -> Self {
        Stack {
            items: Vec::with_capacity(limit.min(64)),
            limit,
            max_pointer: 0,
        }
    }

    /// Current number of elements (the stack pointer).
    pub fn depth(&self) -> usize {
        self.items.len()
    }

    /// Highest stack pointer observed since creation (Figure 3c metric).
    pub fn max_pointer(&self) -> usize {
        self.max_pointer
    }

    /// Configured element limit.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Returns `true` when no elements are present.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The per-opcode check: `opcode` finds its inputs, and the stack has
    /// room for what it leaves (`depth − inputs + outputs ≤ limit`). On
    /// success, raises the high-water mark to that depth.
    ///
    /// Checking room before the opcode runs is exact: only net +1 opcodes
    /// (`PUSHn`, `DUPn` and the zero-input getters) can overflow, and none
    /// of them can trap before its push.
    ///
    /// # Errors
    ///
    /// Returns [`TrapReason::StackUnderflow`] naming the opcode, or
    /// [`TrapReason::StackOverflow`].
    #[inline]
    pub fn require(&mut self, opcode: Opcode) -> Result<(), TrapReason> {
        let info = opcode.info();
        let depth = self.items.len();
        if depth < info.inputs {
            return Err(TrapReason::StackUnderflow {
                opcode,
                needed: info.inputs,
                available: depth,
            });
        }
        let after = depth - info.inputs + info.outputs;
        if after > self.limit {
            return Err(TrapReason::StackOverflow { limit: self.limit });
        }
        self.max_pointer = self.max_pointer.max(after);
        Ok(())
    }

    /// The per-block check: a block needing `required` elements at entry
    /// and growing at most `growth` above its entry depth neither
    /// underflows nor overflows. On success, raises the high-water mark to
    /// `depth + growth`, which is exactly where the block's pushes take it
    /// if it completes (a trapping block reports no high-water mark).
    #[inline]
    pub fn reserve(&mut self, required: usize, growth: usize) -> bool {
        let depth = self.items.len();
        if depth < required || depth + growth > self.limit {
            return false;
        }
        self.max_pointer = self.max_pointer.max(depth + growth);
        true
    }

    /// Pushes a word. The caller has checked that there is room.
    #[inline]
    pub fn push(&mut self, value: U256) {
        debug_assert!(self.items.len() < self.limit, "unchecked stack overflow");
        self.items.push(value);
    }

    /// Pops a word.
    ///
    /// # Panics
    ///
    /// Panics on an empty stack: the caller has checked the depth.
    #[inline]
    pub fn pop(&mut self) -> U256 {
        self.items
            .pop()
            .expect("stack depth checked before the pop")
    }

    /// Reads the element `depth_from_top` positions below the top (0 = top)
    /// without removing it.
    pub fn peek(&self, depth_from_top: usize) -> Option<U256> {
        let len = self.items.len();
        if depth_from_top < len {
            Some(self.items[len - 1 - depth_from_top])
        } else {
            None
        }
    }

    /// Duplicates the element at 1-based `depth` onto the top (`DUPn`).
    /// The caller has checked the depth and the room.
    #[inline]
    pub fn dup(&mut self, depth: usize) {
        let value = self.items[self.items.len() - depth];
        self.push(value);
    }

    /// Swaps the top with the element at 1-based `depth` below it
    /// (`SWAPn`). The caller has checked that `depth + 1` elements are
    /// present.
    #[inline]
    pub fn swap(&mut self, depth: usize) {
        let top = self.items.len() - 1;
        self.items.swap(top, top - depth);
    }

    /// A read-only view of the elements, bottom first (used by tests and the
    /// disassembling tracer).
    pub fn as_slice(&self) -> &[U256] {
        &self.items
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn word(v: u64) -> U256 {
        U256::from(v)
    }

    /// Pushes `values` as a run of checked `PUSH1`s.
    fn pushed(limit: usize, values: &[u64]) -> Stack {
        let mut stack = Stack::new(limit);
        for &value in values {
            stack.require(Opcode::Push1).unwrap();
            stack.push(word(value));
        }
        stack
    }

    #[test]
    fn push_pop_round_trip() {
        let mut stack = pushed(16, &[1, 2]);
        assert_eq!(stack.depth(), 2);
        assert_eq!(stack.pop(), word(2));
        assert_eq!(stack.pop(), word(1));
        assert!(stack.is_empty());
        assert!(stack.require(Opcode::Pop).is_err());
    }

    #[test]
    fn overflow_at_limit() {
        let mut stack = pushed(3, &[0, 1, 2]);
        assert_eq!(
            stack.require(Opcode::Push1),
            Err(TrapReason::StackOverflow { limit: 3 })
        );
        // Net-zero and shrinking opcodes still fit on a full stack.
        assert!(stack.require(Opcode::Swap1).is_ok());
        assert!(stack.require(Opcode::Add).is_ok());
    }

    #[test]
    fn max_pointer_tracks_high_water_mark() {
        let mut stack = pushed(16, &[1, 2, 3]);
        stack.pop();
        stack.pop();
        stack.require(Opcode::Push1).unwrap();
        stack.push(word(4));
        assert_eq!(stack.depth(), 2);
        assert_eq!(stack.max_pointer(), 3);
    }

    #[test]
    fn require_names_the_opcode() {
        let mut stack = Stack::new(16);
        let err = stack.require(Opcode::Add).unwrap_err();
        assert_eq!(
            err,
            TrapReason::StackUnderflow {
                opcode: Opcode::Add,
                needed: 2,
                available: 0
            }
        );
    }

    #[test]
    fn reserve_checks_a_whole_block_and_raises_the_mark() {
        let mut stack = pushed(8, &[1, 2]);
        assert!(!stack.reserve(3, 0), "underflow");
        assert!(!stack.reserve(0, 7), "overflow");
        assert_eq!(stack.max_pointer(), 2, "a refused block leaves the mark");
        assert!(stack.reserve(2, 6));
        assert_eq!(stack.max_pointer(), 8);
    }

    #[test]
    fn peek_views_without_popping() {
        let stack = pushed(16, &[10, 20]);
        assert_eq!(stack.peek(0), Some(word(20)));
        assert_eq!(stack.peek(1), Some(word(10)));
        assert_eq!(stack.peek(2), None);
        assert_eq!(stack.depth(), 2);
    }

    #[test]
    fn dup_copies_deep_element() {
        let mut stack = pushed(16, &[1, 2, 3]);
        stack.require(Opcode::Dup3).unwrap();
        stack.dup(3);
        assert_eq!(stack.peek(0), Some(word(1)));
        assert_eq!(stack.depth(), 4);
        assert!(stack.require(Opcode::Dup16).is_err());
    }

    #[test]
    fn swap_exchanges_with_depth() {
        let mut stack = pushed(16, &[1, 2, 3]);
        stack.require(Opcode::Swap2).unwrap();
        stack.swap(2);
        assert_eq!(stack.peek(0), Some(word(1)));
        assert_eq!(stack.peek(2), Some(word(3)));
        assert!(stack.require(Opcode::Swap16).is_err());
    }

    #[test]
    fn dup_respects_limit() {
        let mut stack = pushed(2, &[1, 2]);
        assert_eq!(
            stack.require(Opcode::Dup1),
            Err(TrapReason::StackOverflow { limit: 2 })
        );
    }

    #[test]
    fn as_slice_is_bottom_first() {
        let stack = pushed(4, &[1, 2]);
        assert_eq!(stack.as_slice(), &[word(1), word(2)]);
    }
}
