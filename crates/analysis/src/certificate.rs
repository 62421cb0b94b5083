//! Static whole-execution cost certificates.
//!
//! Once the symbolic pass has resolved every jump, the CFG is exact and a
//! contract's worst-case cost becomes a graph property: if no cycle is
//! reachable, the most expensive root-to-exit path bounds **every**
//! execution — each block an execution enters charges at most its static
//! aggregate, and on an acyclic graph no block is entered twice. The
//! longest-path sums of per-block static gas and modelled MCU cycles are
//! therefore sound upper bounds on the `ExecMetrics` any terminating (or
//! trapping) run of the frame can report.
//!
//! Two things defeat certification: a cycle (the bound is the loop count,
//! which is dynamic) and instructions whose cost is not carried by this
//! bytecode — an unresolved dynamic jump, or a `CALL`/`CREATE`-family
//! opcode whose callee's metrics are absorbed into the caller's frame.

use crate::blocks::{runs_sub_frame, BasicBlock};

/// A typed static claim about one contract's whole-execution cost, computed
/// by [`crate::analyze`] alongside the verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GasCertificate {
    /// The resolved CFG is acyclic and self-contained: no run of this frame
    /// — terminating or trapping — charges more than `max_gas` gas or
    /// `max_mcu_cycles` modelled device cycles.
    Bounded {
        /// Worst-case static gas over any path from the entry block.
        max_gas: u64,
        /// Worst-case modelled MCU cycles over the same graph.
        max_mcu_cycles: u64,
    },
    /// A reachable cycle exists: execution cost depends on a dynamic trip
    /// count, so no finite static bound exists.
    Unbounded {
        /// `JUMPDEST` program counter of a block on the reachable cycle.
        loop_head: usize,
    },
    /// No claim either way: the instruction at `pc` defeats static cost
    /// accounting — an unresolved dynamic jump, or a call/create whose
    /// callee cost is not part of this bytecode.
    Uncertified {
        /// Program counter of the defeating instruction.
        pc: usize,
    },
}

impl GasCertificate {
    /// True for [`GasCertificate::Bounded`].
    pub fn is_bounded(&self) -> bool {
        matches!(self, GasCertificate::Bounded { .. })
    }

    /// The proven `(max_gas, max_mcu_cycles)` bounds, when bounded.
    pub fn bounds(&self) -> Option<(u64, u64)> {
        match self {
            GasCertificate::Bounded {
                max_gas,
                max_mcu_cycles,
            } => Some((*max_gas, *max_mcu_cycles)),
            _ => None,
        }
    }

    /// True when this certificate proves a worst-case gas cost within
    /// `budget` — the predicate every budget deploy gate applies. Unbounded
    /// and uncertified contracts never fit a budget: admission requires a
    /// proof, not the absence of one.
    pub fn within_gas_budget(&self, budget: u64) -> bool {
        matches!(self, GasCertificate::Bounded { max_gas, .. } if *max_gas <= budget)
    }
}

impl core::fmt::Display for GasCertificate {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            GasCertificate::Bounded {
                max_gas,
                max_mcu_cycles,
            } => write!(f, "bounded: ≤ {max_gas} gas, ≤ {max_mcu_cycles} MCU cycles"),
            GasCertificate::Unbounded { loop_head } => {
                write!(f, "unbounded: reachable loop headed at pc {loop_head}")
            }
            GasCertificate::Uncertified { pc } => {
                write!(
                    f,
                    "uncertified: instruction at pc {pc} defeats static costing"
                )
            }
        }
    }
}

/// Computes the certificate over the final (resolved, pruned) CFG.
///
/// `unresolved` carries the pc of the first reachable dynamic jump when the
/// symbolic pass failed; `reachable` must then be ignored (it was computed
/// with conservative any-jumpdest roots).
pub(crate) fn certify(
    blocks: &[BasicBlock],
    reachable: &[bool],
    unresolved: Option<usize>,
) -> GasCertificate {
    if let Some(pc) = unresolved {
        return GasCertificate::Uncertified { pc };
    }
    if blocks.is_empty() {
        return GasCertificate::Bounded {
            max_gas: 0,
            max_mcu_cycles: 0,
        };
    }

    // A reachable call/create defeats the own-frame bound.
    for (index, block) in blocks.iter().enumerate() {
        if !reachable[index] {
            continue;
        }
        if let Some(call) = block
            .stream
            .iter()
            .find(|instr| runs_sub_frame(instr.opcode))
        {
            return GasCertificate::Uncertified {
                pc: call.pc as usize,
            };
        }
    }

    // Iterative DFS from the entry block: cycle detection plus a postorder
    // whose reverse is a topological order of the (acyclic) reachable graph.
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let mut color = vec![WHITE; blocks.len()];
    let mut postorder: Vec<u32> = Vec::with_capacity(blocks.len());
    let mut stack: Vec<(u32, usize)> = vec![(0, 0)];
    color[0] = GRAY;
    while let Some(&(node, child)) = stack.last() {
        let successors = &blocks[node as usize].successors;
        if child < successors.len() {
            stack.last_mut().expect("non-empty").1 += 1;
            let succ = successors[child];
            match color[succ as usize] {
                WHITE => {
                    color[succ as usize] = GRAY;
                    stack.push((succ, 0));
                }
                GRAY => {
                    return GasCertificate::Unbounded {
                        loop_head: blocks[succ as usize].start,
                    };
                }
                _ => {}
            }
        } else {
            color[node as usize] = BLACK;
            postorder.push(node);
            stack.pop();
        }
    }

    // Longest-path dynamic programming in topological order. Saturating
    // arithmetic: a bound that saturates is still a bound.
    let mut max_gas = vec![0u64; blocks.len()];
    let mut max_cycles = vec![0u64; blocks.len()];
    let mut best = (0u64, 0u64);
    for &node in postorder.iter().rev() {
        let block = &blocks[node as usize];
        let gas = max_gas[node as usize].saturating_add(block.static_gas);
        let cycles = max_cycles[node as usize].saturating_add(block.mcu_cycles);
        best.0 = best.0.max(gas);
        best.1 = best.1.max(cycles);
        for &succ in &block.successors {
            max_gas[succ as usize] = max_gas[succ as usize].max(gas);
            max_cycles[succ as usize] = max_cycles[succ as usize].max(cycles);
        }
    }
    GasCertificate::Bounded {
        max_gas: best.0,
        max_mcu_cycles: best.1,
    }
}
