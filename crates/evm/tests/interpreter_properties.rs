//! Property-based tests for the interpreter.
//!
//! These check that the interpreter's arithmetic agrees with the host-side
//! `U256` implementation for arbitrary operands (i.e. the stack plumbing
//! introduces no corruption), that assembled programs always round-trip
//! through the disassembler, and that deployment metrics respect their
//! definitional invariants for arbitrary generated runtime code.

use proptest::prelude::*;
use tinyevm_evm::{asm, deploy, Evm, EvmConfig, ExecOutcome, Opcode};
use tinyevm_types::U256;

/// Builds a program that pushes `b`, pushes `a`, applies `op`, and returns
/// the 32-byte result.
fn binary_program(op: &str, a: U256, b: U256) -> Vec<u8> {
    let source = format!(
        "PUSH32 0x{:064x} PUSH32 0x{:064x} {op} PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN",
        b, a
    );
    asm::assemble(&source).expect("valid program")
}

fn run_program(code: &[u8]) -> U256 {
    let result = Evm::new(EvmConfig::cc2538())
        .execute(code, &[])
        .expect("program must not trap");
    assert_eq!(result.outcome, ExecOutcome::Return);
    U256::from_be_slice(&result.output).unwrap()
}

fn arb_u256() -> impl Strategy<Value = U256> {
    proptest::array::uniform4(any::<u64>()).prop_map(U256::from_limbs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn add_agrees_with_host_arithmetic(a in arb_u256(), b in arb_u256()) {
        prop_assert_eq!(run_program(&binary_program("ADD", a, b)), a.wrapping_add(b));
    }

    #[test]
    fn sub_agrees_with_host_arithmetic(a in arb_u256(), b in arb_u256()) {
        prop_assert_eq!(run_program(&binary_program("SUB", a, b)), a.wrapping_sub(b));
    }

    #[test]
    fn mul_agrees_with_host_arithmetic(a in arb_u256(), b in arb_u256()) {
        prop_assert_eq!(run_program(&binary_program("MUL", a, b)), a.wrapping_mul(b));
    }

    #[test]
    fn div_and_mod_agree_with_host_arithmetic(a in arb_u256(), b in arb_u256()) {
        prop_assert_eq!(run_program(&binary_program("DIV", a, b)), a.div(b));
        prop_assert_eq!(run_program(&binary_program("MOD", a, b)), a.rem(b));
    }

    #[test]
    fn comparisons_agree_with_host_ordering(a in arb_u256(), b in arb_u256()) {
        let lt = run_program(&binary_program("LT", a, b));
        let gt = run_program(&binary_program("GT", a, b));
        let eq = run_program(&binary_program("EQ", a, b));
        prop_assert_eq!(lt == U256::ONE, a < b);
        prop_assert_eq!(gt == U256::ONE, a > b);
        prop_assert_eq!(eq == U256::ONE, a == b);
        // Exactly one of lt/gt/eq holds.
        let sum = lt.wrapping_add(gt).wrapping_add(eq);
        prop_assert_eq!(sum, U256::ONE);
    }

    #[test]
    fn bitwise_ops_agree_with_host(a in arb_u256(), b in arb_u256()) {
        prop_assert_eq!(run_program(&binary_program("AND", a, b)), a & b);
        prop_assert_eq!(run_program(&binary_program("OR", a, b)), a | b);
        prop_assert_eq!(run_program(&binary_program("XOR", a, b)), a ^ b);
    }

    #[test]
    fn mstore_mload_round_trip(value in arb_u256(), slot in 0u8..=6) {
        let offset = slot as usize * 32;
        let source = format!(
            "PUSH32 0x{value:064x} PUSH2 0x{offset:04x} MSTORE PUSH2 0x{offset:04x} MLOAD PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN",
        );
        let code = asm::assemble(&source).unwrap();
        prop_assert_eq!(run_program(&code), value);
    }

    #[test]
    fn sstore_sload_round_trip(value in arb_u256(), key in 0u8..=255) {
        let source = format!(
            "PUSH32 0x{value:064x} PUSH1 0x{key:02x} SSTORE PUSH1 0x{key:02x} SLOAD PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN",
        );
        let code = asm::assemble(&source).unwrap();
        prop_assert_eq!(run_program(&code), value);
    }

    #[test]
    fn push_values_survive_the_stack(bytes in proptest::collection::vec(any::<u8>(), 1..=32)) {
        let hex_immediate = tinyevm_types::hex::encode(&bytes);
        let source = format!(
            "PUSH{} 0x{hex_immediate} PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN",
            bytes.len()
        );
        let code = asm::assemble(&source).unwrap();
        let expected = U256::from_be_slice(&bytes).unwrap();
        prop_assert_eq!(run_program(&code), expected);
    }

    #[test]
    fn disassemble_never_panics_on_random_bytes(code in proptest::collection::vec(any::<u8>(), 0..400)) {
        let listing = asm::disassemble(&code);
        // Every byte of input is accounted for by at least one line.
        if !code.is_empty() {
            prop_assert!(!listing.is_empty());
        }
    }

    #[test]
    fn execute_never_panics_on_random_bytecode(code in proptest::collection::vec(any::<u8>(), 0..300)) {
        // Arbitrary byte soup must either run to completion or trap with a
        // structured error — never panic and never loop forever (the
        // instruction budget guarantees termination).
        let mut config = EvmConfig::cc2538();
        config.instruction_limit = 20_000;
        let _ = Evm::new(config).execute(&code, &[]);
    }

    #[test]
    fn wrapped_init_code_deploys_any_runtime_under_the_limit(
        runtime in proptest::collection::vec(any::<u8>(), 1..2048)
    ) {
        let init = asm::wrap_as_init_code(&runtime);
        let result = deploy(&EvmConfig::cc2538(), &init).unwrap();
        prop_assert_eq!(&result.runtime_code, &runtime);
        // Fig. 3b invariant: deployed memory never exceeds what was shipped.
        prop_assert!(result.deployed_memory_bytes <= init.len());
        // The constructor prologue touches only a handful of stack slots.
        prop_assert!(result.metrics.max_stack_pointer <= 4);
    }

    #[test]
    fn jumpdest_analysis_flags_only_jumpdest_bytes(code in proptest::collection::vec(any::<u8>(), 0..300)) {
        let dests = tinyevm_analysis::analyze(&code).jumpdests().to_vec();
        prop_assert_eq!(dests.len(), code.len());
        for (i, &valid) in dests.iter().enumerate() {
            if valid {
                prop_assert_eq!(code[i], Opcode::JumpDest.to_byte());
            }
        }
    }
}
