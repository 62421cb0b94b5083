//! Agreement between the static analyzer and the interpreter: pinned
//! truncated-PUSH semantics, the deploy-time gate's typed rejections, and
//! property suites — `Accepted` verdicts really do rule out the static
//! trap classes; block-batched accounting, on lazily decoded and on shared
//! analyzed blocks, is observationally identical to per-opcode metering on
//! arbitrary bytecode, on programs built to trap mid-block and on counted
//! loops that re-enter their blocks and trap on a late iteration; and the
//! lazy block table decodes exactly the blocks `analyze` does.

use proptest::prelude::*;
use tinyevm::analysis::{
    analyze, AnalysisError, BlockExit, Diagnostic, LazyBlocks, Opcode, Verdict,
};
use tinyevm::evm::error::TrapReason;
use tinyevm::evm::{
    deploy, CallContext, DeployError, Evm, EvmConfig, ExecError, ExecOutcome, ExecResult, NullHost,
    NullIotEnvironment, SideChainStorage,
};

// --- truncated-PUSH semantics, pinned on both sides ------------------------

#[test]
fn interpreter_zero_pads_a_truncated_push_and_runs_off_the_end() {
    // PUSH2 with only one immediate byte: the interpreter fills the missing
    // byte with zero, the pc lands past the end of the code, and the frame
    // stops — no trap, exactly one instruction executed, one stack slot.
    let result = Evm::new(EvmConfig::cc2538())
        .execute(&[0x61, 0xaa], &[])
        .expect("truncated push must not trap");
    assert_eq!(result.outcome, ExecOutcome::Stop);
    assert_eq!(result.metrics.instructions, 1);
    assert_eq!(result.metrics.max_stack_pointer, 1);

    // The degenerate case: a PUSH1 with no immediate at all behaves the same.
    let result = Evm::new(EvmConfig::cc2538())
        .execute(&[0x60], &[])
        .expect("empty push immediate must not trap");
    assert_eq!(result.outcome, ExecOutcome::Stop);
    assert_eq!(result.metrics.instructions, 1);
}

#[test]
fn analyzer_reports_the_truncated_push_with_the_missing_byte_count() {
    let analysis = analyze(&[0x61, 0xaa]);
    match analysis.verdict() {
        Verdict::Rejected(AnalysisError::TruncatedPush { pc, missing, .. }) => {
            assert_eq!(*pc, 0);
            assert_eq!(*missing, 1);
        }
        other => panic!("expected a TruncatedPush rejection, got {other:?}"),
    }
    assert!(analysis
        .diagnostics()
        .iter()
        .any(|d| matches!(d, Diagnostic::TruncatedPush { pc: 0, missing: 1 })));

    // A 32-byte push with no immediate is missing all 32 bytes.
    match analyze(&[0x7f]).verdict() {
        Verdict::Rejected(AnalysisError::TruncatedPush { missing, .. }) => {
            assert_eq!(*missing, 32)
        }
        other => panic!("expected a TruncatedPush rejection, got {other:?}"),
    }
}

#[test]
fn deploy_gate_turns_the_diagnostic_into_a_typed_error() {
    let gated = EvmConfig::cc2538().with_deploy_validation(true);
    match deploy(&gated, &[0x61, 0xaa]) {
        Err(DeployError::InitCodeRejected(AnalysisError::TruncatedPush { .. })) => {}
        other => panic!("expected InitCodeRejected(TruncatedPush), got {other:?}"),
    }
    // Without the gate the constructor runs (and zero-pads), so whatever
    // error comes back is about deployment semantics, not static analysis.
    if let Err(DeployError::InitCodeRejected(_)) = deploy(&EvmConfig::cc2538(), &[0x61, 0xaa]) {
        panic!("ungated deployment must not consult the analyzer")
    }
}

// --- property suites -------------------------------------------------------

/// Programs stitched from mostly-benign fragments with occasional junk:
/// enough structure that the analyzer accepts a good fraction, enough chaos
/// to exercise every rejection path.
fn fragment_soup() -> impl Strategy<Value = Vec<u8>> {
    // Each u16 picks a fragment with its high byte; the low byte doubles as
    // the junk byte for the wildcard arm.
    proptest::collection::vec(any::<u16>(), 0..48).prop_map(|picks| {
        let mut code = Vec::new();
        for pick in picks {
            let junk = (pick & 0xff) as u8;
            match (pick >> 8) % 16 {
                0..=3 => code.extend_from_slice(&[0x60, 0x01]), // PUSH1 1
                4..=5 => code.extend_from_slice(&[0x60, 0x00]), // PUSH1 0
                6..=7 => code.push(0x01),                       // ADD
                8..=9 => code.push(0x80),                       // DUP1
                10..=11 => code.push(0x50),                     // POP
                12 => code.push(0x5b),                          // JUMPDEST
                13 => code.push(0x15),                          // ISZERO
                14 => code.push(0x00),                          // STOP
                _ => code.push(junk),
            }
        }
        code
    })
}

/// The trap classes an `Accepted` verdict statically rules out.
fn is_statically_excluded_trap(reason: &TrapReason) -> bool {
    matches!(
        reason,
        TrapReason::InvalidJump { .. }
            | TrapReason::UndefinedInstruction { .. }
            | TrapReason::StackUnderflow { .. }
    )
}

/// `Evm::execute` on a shared whole-code analysis instead of lazily
/// decoded blocks: same context, storage, host and IoT environment.
fn execute_analyzed(config: EvmConfig, code: &[u8]) -> Result<ExecResult, ExecError> {
    let mut storage = SideChainStorage::new(config.max_storage_bytes);
    let depth = config.max_call_depth;
    Evm::new(config).execute_analyzed(
        code,
        &analyze(code),
        CallContext::default(),
        &mut storage,
        &mut NullHost::new(),
        &mut NullIotEnvironment,
        false,
        depth,
    )
}

/// Outcome, output and metrics agree, or both lanes trapped with the same
/// reason, pc and instruction count.
fn same_execution(a: &Result<ExecResult, ExecError>, b: &Result<ExecResult, ExecError>) -> bool {
    match (a, b) {
        (Ok(a), Ok(b)) => a.outcome == b.outcome && a.output == b.output && a.metrics == b.metrics,
        (Err(a), Err(b)) => a == b,
        _ => false,
    }
}

/// Runs `code` with a small instruction budget three ways — per-opcode
/// metering, batched on lazily decoded blocks (`execute`), and batched on
/// a shared analysis (`execute_analyzed`) — and asserts observational
/// equality.
fn assert_batched_matches_per_op(code: &[u8]) -> Result<(), TestCaseError> {
    let mut per_op_config = EvmConfig::cc2538().with_per_op_metering(true);
    per_op_config.instruction_limit = 20_000;
    let mut batched_config = EvmConfig::cc2538();
    batched_config.instruction_limit = 20_000;
    let per_op = Evm::new(per_op_config).execute(code, &[]);
    let lazy = Evm::new(batched_config.clone()).execute(code, &[]);
    let shared = execute_analyzed(batched_config, code);
    prop_assert!(
        same_execution(&per_op, &lazy),
        "lazy blocks: {per_op:?} vs {lazy:?}"
    );
    prop_assert!(
        same_execution(&per_op, &shared),
        "shared analysis: {per_op:?} vs {shared:?}"
    );
    Ok(())
}

/// Values that straddle the 8 KB memory budget (`0x1ff0`, `0x2000`,
/// `0xffff`).
const VALUES: [u16; 6] = [0, 1, 0x40, 0x1ff0, 0x2000, 0xffff];

/// Appends `PUSH2 value`.
fn push2(code: &mut Vec<u8>, value: u16) {
    let [high, low] = value.to_be_bytes();
    code.extend_from_slice(&[0x61, high, low]);
}

/// One letter of the mid-block-trap alphabet: `None` for a pushed operand
/// (`VALUES[pick & 0xff]`), or an opcode byte — a memory, storage,
/// hashing, calldata, copy, log, IoT, call or create opcode, a block
/// boundary, or junk.
fn letter(pick: u16) -> Option<u8> {
    let low = (pick & 0xff) as u8;
    match (pick >> 8) % 20 {
        0..=4 => None,
        5 => Some(0x52),  // MSTORE
        6 => Some(0x51),  // MLOAD
        7 => Some(0x53),  // MSTORE8
        8 => Some(0x20),  // SHA3
        9 => Some(0x55),  // SSTORE
        10 => Some(0x54), // SLOAD
        11 => Some(0x35), // CALLDATALOAD
        12 => Some(0x37), // CALLDATACOPY
        13 => Some(0x39), // CODECOPY
        14 => Some(0xa1), // LOG1
        15 => Some(0x0c), // IOT
        16 => Some(0xf1), // CALL
        17 => Some(0xf0), // CREATE
        // JUMPDEST, or now and then STOP
        18 => Some(if low < 0xe0 { 0x5b } else { 0x00 }),
        _ => Some(low), // junk
    }
}

fn operand(pick: u16) -> u16 {
    VALUES[(pick & 0xff) as usize % VALUES.len()]
}

/// Programs whose blocks batch and then trap mid-block. Each first pushes
/// `pushes.len()` values, so blocks find the stack depth they need, and
/// then spells `body` in the [`letter`] alphabet.
fn mid_block_trap_program(pushes: &[u8], body: &[u16]) -> Vec<u8> {
    let mut code = Vec::new();
    for &pick in pushes {
        push2(&mut code, VALUES[pick as usize % VALUES.len()]);
    }
    for &pick in body {
        match letter(pick) {
            None => push2(&mut code, operand(pick)),
            Some(byte) => code.push(byte),
        }
    }
    code
}

/// The corpus generator's counted loop, which keeps `[limit, i]` on the
/// stack: `PUSH3 trips PUSH1 0 JUMPDEST body PUSH1 1 ADD DUP2 DUP2 LT
/// PUSH2 head JUMPI POP POP STOP`, with `body` spelled in the [`letter`]
/// alphabet. The body stays stack-neutral: before each opcode it pushes
/// the operands the opcode would otherwise take from the loop's own
/// words, and at the end it pops what it left. One operand in two is the
/// counter times 0x40, so memory, hashing, copy and storage opcodes trap
/// on a late iteration, and long bodies run into the instruction budget
/// mid-loop.
fn counted_loop_program(trips: u32, body: &[u16]) -> Vec<u8> {
    const HEAD: u8 = 6;
    let [_, t2, t1, t0] = trips.to_be_bytes();
    let mut code = vec![0x62, t2, t1, t0, 0x60, 0x00, 0x5b];
    // Stack items the body holds above the loop's `[limit, i]`.
    let mut height = 0usize;
    let push_operand = |code: &mut Vec<u8>, height: &mut usize, pick: u16| {
        if (pick >> 15) == 0 && *height < 16 {
            // DUPn of the counter, then PUSH1 0x40 MUL.
            code.extend_from_slice(&[0x80 + *height as u8, 0x60, 0x40, 0x02]);
        } else {
            push2(code, operand(pick));
        }
        *height += 1;
    };
    for &pick in body {
        let Some(byte) = letter(pick) else {
            push_operand(&mut code, &mut height, pick);
            continue;
        };
        let (inputs, outputs) =
            Opcode::from_byte(byte).map_or((0, 0), |op| (op.info().inputs, op.info().outputs));
        let mut salt = pick;
        while height < inputs {
            salt = salt.wrapping_mul(31).wrapping_add(17);
            push_operand(&mut code, &mut height, salt);
        }
        code.push(byte);
        // A junk PUSHn takes zero immediates rather than swallowing the
        // bytes after it.
        code.extend(
            std::iter::repeat(0).take(Opcode::from_byte(byte).map_or(0, |op| op.push_bytes())),
        );
        height = height - inputs + outputs;
    }
    code.extend(std::iter::repeat(0x50).take(height)); // POP
    code.extend_from_slice(&[0x60, 0x01, 0x01, 0x81, 0x81, 0x10, 0x61, 0x00, HEAD, 0x57]);
    code.extend_from_slice(&[0x50, 0x50, 0x00]);
    code
}

#[test]
fn a_counted_loop_traps_on_a_late_iteration_in_every_lane() {
    // Body: MSTORE at the counter times 0x40. Iteration 128 writes past the
    // 8 KB budget, long after the loop's blocks were first entered.
    let body = [0x5001, 0x0000, 0x0500];
    let code = counted_loop_program(300, &body);
    let error = Evm::new(EvmConfig::cc2538())
        .execute(&code, &[])
        .expect_err("the store at 128 * 0x40 is past the budget");
    assert!(matches!(
        error.reason,
        TrapReason::MemoryLimitExceeded { .. }
    ));
    assert!(error.instructions_executed > 128 * 10);
    assert_batched_matches_per_op(&code).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn accepted_verdicts_exclude_the_static_trap_classes(code in fragment_soup()) {
        let analysis = analyze(&code);
        if analysis.verdict().is_accepted() {
            if let Err(trap) = Evm::new(EvmConfig::cc2538()).execute(&code, &[]) {
                prop_assert!(
                    !is_statically_excluded_trap(&trap.reason),
                    "Accepted code trapped on {:?} at pc {}",
                    trap.reason,
                    trap.pc
                );
            }
        }
    }

    #[test]
    fn batched_accounting_matches_per_op_on_fragment_soup(code in fragment_soup()) {
        assert_batched_matches_per_op(&code)?;
    }

    #[test]
    fn batched_accounting_matches_per_op_on_arbitrary_bytes(
        code in proptest::collection::vec(any::<u8>(), 0..160)
    ) {
        assert_batched_matches_per_op(&code)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn batched_accounting_matches_per_op_on_mid_block_traps(
        pushes in proptest::collection::vec(any::<u8>(), 8..41),
        body in proptest::collection::vec(any::<u16>(), 0..48)
    ) {
        assert_batched_matches_per_op(&mid_block_trap_program(&pushes, &body))?;
    }

    #[test]
    fn batched_accounting_matches_per_op_on_loops(
        trips in 1u32..=300,
        body in proptest::collection::vec(any::<u16>(), 0..8)
    ) {
        assert_batched_matches_per_op(&counted_loop_program(trips, &body))?;
    }

    #[test]
    fn lazy_blocks_decode_what_analyze_decodes(
        code in proptest::collection::vec(any::<u8>(), 0..160)
    ) {
        let analysis = analyze(&code);
        let mut lazy = LazyBlocks::new(&code);
        for block in analysis.blocks() {
            let mut decoded = lazy.block_at(block.start).expect("leader in range").clone();
            // Only the whole-code passes fill in the CFG edges and
            // reachability, and prove dynamic jumps' targets.
            decoded.successors.clone_from(&block.successors);
            decoded.unreachable = block.unreachable;
            if matches!(decoded.exit, BlockExit::Jump(None) | BlockExit::JumpI(None)) {
                decoded.jump_target_proven = block.jump_target_proven;
            }
            prop_assert_eq!(&decoded, block);
        }
        prop_assert_eq!(lazy.blocks().len(), analysis.blocks().len());
        for pc in 0..code.len() {
            prop_assert_eq!(lazy.is_jumpdest(pc), analysis.is_jumpdest(pc));
        }
    }
}
