//! The EVM bytecode of the off-chain contracts (paper Listings 1 and 2).
//!
//! The paper writes its template and payment-channel contracts in Solidity
//! with a line of inline assembly for the IoT opcode. This workspace has no
//! Solidity compiler, so the equivalent contracts are assembled directly:
//!
//! * [`payment_channel_init_code`] — the payment channel's constructor: it
//!   executes the IoT opcode to read a sensor, stores the reading at slot
//!   `0x0C` (as in Listing 2), stores the channel id, runs a short
//!   solc-style memory-initialisation loop (so its execution profile
//!   resembles compiler output rather than hand-minimised code), and returns
//!   the runtime code.
//! * The runtime code dispatches on the first calldata byte:
//!   `0x01` records a payment (sequence, cumulative amount) into storage and
//!   returns the new cumulative amount; `0x02` returns the stored sensor
//!   reading; `0x03` returns the highest recorded sequence number; anything
//!   else reverts.
//! * [`template_runtime_code`] — the factory: calling it with selector
//!   `0x01` CREATEs a new payment channel from the embedded init code and
//!   returns the child address, mirroring Listing 1's
//!   `CreatePaymentChannel`.
//!
//! Every channel open builds a constructor, so the payment channel's code
//! is assembled from its source once per process: a constructor for other
//! parameters is that assembly with its two `PUSH8` immediates (the sensor
//! selector and the channel id) patched.

use std::sync::OnceLock;

use tinyevm_evm::asm::{assemble, wrap_as_init_code};
use tinyevm_evm::Opcode;

/// Storage slot that holds the sensor reading (the paper stores it at the
/// IoT opcode's own number, `0x0C`).
pub const SLOT_SENSOR: u8 = 0x0c;
/// Storage slot holding the channel identifier.
pub const SLOT_CHANNEL_ID: u8 = 0x01;
/// Storage slot holding the highest recorded sequence number.
pub const SLOT_SEQUENCE: u8 = 0x02;
/// Storage slot holding the cumulative amount paid to the receiver.
pub const SLOT_CUMULATIVE: u8 = 0x03;

/// Calldata selector for recording a payment.
pub const FN_RECORD_PAYMENT: u8 = 0x01;
/// Calldata selector for reading the stored sensor value.
pub const FN_READ_SENSOR: u8 = 0x02;
/// Calldata selector for reading the highest sequence number.
pub const FN_READ_SEQUENCE: u8 = 0x03;

/// The payment channel's runtime code.
///
/// Calldata layout for [`FN_RECORD_PAYMENT`]: byte 0 is the selector, bytes
/// 1..33 the sequence number, bytes 33..65 the cumulative amount (both
/// 32-byte big-endian words).
pub fn payment_channel_runtime_code() -> Vec<u8> {
    init_template().runtime.clone()
}

/// [`payment_channel_runtime_code`], assembled from its source.
fn assemble_runtime_code() -> Vec<u8> {
    let source = format!(
        "
        ; dispatcher: selector = first calldata byte
        PUSH1 0x00 CALLDATALOAD PUSH1 0xf8 SHR

        DUP1 PUSH1 0x{record:02x} EQ PUSHLABEL @record JUMPI
        DUP1 PUSH1 0x{sensor:02x} EQ PUSHLABEL @sensor JUMPI
        DUP1 PUSH1 0x{sequence:02x} EQ PUSHLABEL @sequence JUMPI
        ; unknown selector -> revert
        PUSH1 0x00 PUSH1 0x00 REVERT

        @record: JUMPDEST
        POP
        ; sequence = calldata[1..33]
        PUSH1 0x01 CALLDATALOAD
        ; must be strictly greater than the stored sequence
        DUP1 PUSH1 0x{slot_seq:02x} SLOAD LT ISZERO PUSHLABEL @stale JUMPI
        PUSH1 0x{slot_seq:02x} SSTORE
        ; cumulative = calldata[33..65]
        PUSH1 0x21 CALLDATALOAD
        DUP1 PUSH1 0x{slot_cum:02x} SSTORE
        ; return the new cumulative amount
        PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN

        @stale: JUMPDEST
        PUSH1 0x00 PUSH1 0x00 REVERT

        @sensor: JUMPDEST
        POP
        PUSH1 0x{slot_sensor:02x} SLOAD PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN

        @sequence: JUMPDEST
        POP
        PUSH1 0x{slot_seq:02x} SLOAD PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN
        ",
        record = FN_RECORD_PAYMENT,
        sensor = FN_READ_SENSOR,
        sequence = FN_READ_SEQUENCE,
        slot_seq = SLOT_SEQUENCE,
        slot_cum = SLOT_CUMULATIVE,
        slot_sensor = SLOT_SENSOR,
    );
    assemble(&source).expect("payment channel runtime assembles")
}

/// The payment channel's init code (constructor).
///
/// The constructor mirrors the paper's Listing 2: it reads sensor
/// `sensor_id` through the IoT opcode, stores the reading at slot `0x0C`,
/// stores the channel id passed as `channel_id`, performs a solc-style
/// memory-zeroing loop (64 words) so that its execution cost is
/// representative of compiled constructors, and finally returns the runtime
/// code.
pub fn payment_channel_init_code(sensor_id: u64, channel_id: u64) -> Vec<u8> {
    let template = init_template();
    let mut code = template.init.clone();
    code[template.sensor_at..][..8].copy_from_slice(&sensor_id.to_be_bytes());
    code[template.channel_at..][..8].copy_from_slice(&channel_id.to_be_bytes());
    code
}

/// The payment channel's code, assembled once, and where its
/// constructor's two `PUSH8` immediates sit.
struct InitTemplate {
    runtime: Vec<u8>,
    /// The init code for sensor 0 and channel 0.
    init: Vec<u8>,
    sensor_at: usize,
    channel_at: usize,
}

fn init_template() -> &'static InitTemplate {
    static TEMPLATE: OnceLock<InitTemplate> = OnceLock::new();
    TEMPLATE.get_or_init(|| {
        let runtime = assemble_runtime_code();
        let constructor = assemble_constructor(0, 0);
        let pushes = push8_immediates(&constructor);
        let [sensor_at, channel_at] = pushes[..] else {
            panic!("the constructor has two PUSH8s, found {}", pushes.len());
        };
        InitTemplate {
            init: prepend_constructor(constructor, &runtime),
            runtime,
            sensor_at,
            channel_at,
        }
    })
}

/// Offsets of the immediates of every `PUSH8` in `code`, in order.
fn push8_immediates(code: &[u8]) -> Vec<usize> {
    let mut offsets = Vec::new();
    let mut pc = 0;
    while pc < code.len() {
        let width = Opcode::from_byte(code[pc]).map_or(0, Opcode::push_bytes);
        if code[pc] == Opcode::Push8.to_byte() {
            offsets.push(pc + 1);
        }
        pc += 1 + width;
    }
    offsets
}

/// [`payment_channel_init_code`], assembled from its source.
#[cfg(test)]
fn assemble_init_code(sensor_id: u64, channel_id: u64) -> Vec<u8> {
    let constructor = assemble_constructor(sensor_id, channel_id);
    prepend_constructor(constructor, &assemble_runtime_code())
}

/// The constructor proper, without the tail that returns the runtime.
fn assemble_constructor(sensor_id: u64, channel_id: u64) -> Vec<u8> {
    // Selector word for "read sensor `sensor_id`": op byte 0 plus the id in
    // the next 8 bytes (see IotRequest::decode).
    let constructor = format!(
        "
        ; --- solc-style prologue: free-memory pointer + zero a scratch area
        PUSH1 0x80 PUSH1 0x40 MSTORE
        PUSH1 0x00                      ; loop counter i
        @zeroloop: JUMPDEST
        DUP1 PUSH2 0x0800 MSTORE        ; scratch writes keep memory warm
        PUSH1 0x01 ADD
        DUP1 PUSH1 0x40 GT PUSHLABEL @zeroloop JUMPI
        POP

        ; --- IoT sensor read (Listing 2's inline assembly 0x0c)
        PUSH1 0x00                      ; parameter
        PUSH8 0x{sensor_selector:016x} PUSH1 0x08 SHL ; sensor id into selector bytes 1..9
        IOT
        PUSH1 0x{slot_sensor:02x} SSTORE

        ; --- store the channel id issued by the template's logical clock
        PUSH8 0x{channel_id:016x}
        PUSH1 0x{slot_channel:02x} SSTORE

        ; --- bind the parties: hash caller and origin into slot 4
        CALLER PUSH1 0x00 MSTORE
        ORIGIN PUSH1 0x20 MSTORE
        PUSH1 0x40 PUSH1 0x00 SHA3
        PUSH1 0x04 SSTORE
        ",
        sensor_selector = sensor_id,
        slot_sensor = SLOT_SENSOR,
        channel_id = channel_id,
        slot_channel = SLOT_CHANNEL_ID,
    );
    assemble(&constructor).expect("payment channel constructor assembles")
}

/// Builds init code that first runs `constructor_code` (which must not
/// terminate execution) and then returns `runtime` via CODECOPY.
fn prepend_constructor(mut constructor_code: Vec<u8>, runtime: &[u8]) -> Vec<u8> {
    // Tail: PUSH2 len DUP1 PUSH2 offset PUSH1 0 CODECOPY PUSH1 0 RETURN <runtime>
    let tail_prologue_len = 13usize;
    let offset = constructor_code.len() + tail_prologue_len;
    let len = runtime.len();
    let tail = vec![
        Opcode::Push2.to_byte(),
        (len >> 8) as u8,
        len as u8,
        Opcode::Dup1.to_byte(),
        Opcode::Push2.to_byte(),
        (offset >> 8) as u8,
        offset as u8,
        Opcode::Push1.to_byte(),
        0x00,
        Opcode::CodeCopy.to_byte(),
        Opcode::Push1.to_byte(),
        0x00,
        Opcode::Return.to_byte(),
    ];
    debug_assert_eq!(tail.len(), tail_prologue_len);
    constructor_code.extend_from_slice(&tail);
    constructor_code.extend_from_slice(runtime);
    constructor_code
}

/// The template (factory) runtime: on selector `0x01` it CREATEs a new
/// payment channel from the child init code embedded after the code proper,
/// stores the new address at storage slot 0 and returns it.
pub fn template_runtime_code(child_init_code: &[u8]) -> Vec<u8> {
    // The child init code is appended after the dispatcher; its offset is
    // only known once the dispatcher is assembled, so assemble with a
    // placeholder first and patch the two PUSH2 immediates afterwards.
    let build = |offset: usize, len: usize| -> Vec<u8> {
        let source = format!(
            "
            PUSH1 0x00 CALLDATALOAD PUSH1 0xf8 SHR
            DUP1 PUSH1 0x01 EQ PUSHLABEL @create JUMPI
            PUSH1 0x00 PUSH1 0x00 REVERT

            @create: JUMPDEST
            POP
            ; copy the embedded child init code into memory
            PUSH2 0x{len:04x} PUSH2 0x{offset:04x} PUSH1 0x00 CODECOPY
            ; CREATE(value = 0, offset = 0, size = len)
            PUSH2 0x{len:04x} PUSH1 0x00 PUSH1 0x00 CREATE
            ; store and return the new channel address
            DUP1 PUSH1 0x00 SSTORE
            PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN
            "
        );
        assemble(&source).expect("template runtime assembles")
    };
    // First pass with zero placeholders to learn the dispatcher length.
    let dispatcher_len = build(0, 0).len();
    let mut code = build(dispatcher_len, child_init_code.len());
    debug_assert_eq!(code.len(), dispatcher_len);
    code.extend_from_slice(child_init_code);
    code
}

/// Init code deploying the template factory itself (used when the template
/// is staged on the device or deployed to the chain simulator).
pub fn template_init_code(child_init_code: &[u8]) -> Vec<u8> {
    wrap_as_init_code(&template_runtime_code(child_init_code))
}

/// Builds the calldata for [`FN_RECORD_PAYMENT`].
pub fn record_payment_calldata(sequence: u64, cumulative: tinyevm_types::U256) -> Vec<u8> {
    let mut data = Vec::with_capacity(65);
    data.push(FN_RECORD_PAYMENT);
    data.extend_from_slice(&tinyevm_types::U256::from(sequence).to_be_bytes());
    data.extend_from_slice(&cumulative.to_be_bytes());
    data
}

/// Builds the calldata for a read-only selector (`FN_READ_SENSOR` /
/// `FN_READ_SEQUENCE`).
pub fn read_calldata(selector: u8) -> Vec<u8> {
    vec![selector]
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinyevm_evm::{deploy, Evm, EvmConfig, ExecOutcome, ScriptedSensors};
    use tinyevm_types::U256;

    fn sensors() -> ScriptedSensors {
        ScriptedSensors::new().with_reading(0, U256::from(2150u64))
    }

    #[test]
    fn runtime_code_is_reasonably_sized() {
        let runtime = payment_channel_runtime_code();
        assert!(runtime.len() > 40);
        assert!(runtime.len() < 1024);
        let init = payment_channel_init_code(0, 1);
        assert!(init.len() > runtime.len());
        assert!(init.len() < 8 * 1024, "must fit the device limit");
    }

    #[test]
    fn constructor_reads_sensor_and_returns_runtime() {
        let init = payment_channel_init_code(0, 7);
        let mut iot = sensors();
        let result = tinyevm_evm::deploy_with(
            &EvmConfig::cc2538(),
            &init,
            &[],
            &mut tinyevm_evm::NullHost::new(),
            &mut iot,
        )
        .unwrap();
        assert_eq!(result.runtime_code, payment_channel_runtime_code());
        assert_eq!(result.metrics.iot_invocations, 1);
        // The constructor executes a realistic number of instructions
        // (solc-style prologue), not just a handful.
        assert!(result.metrics.instructions > 200);
    }

    #[test]
    fn constructor_without_sensor_traps() {
        let init = payment_channel_init_code(0, 7);
        assert!(deploy(&EvmConfig::cc2538(), &init).is_err());
    }

    #[test]
    fn record_payment_updates_storage_and_rejects_stale() {
        let runtime = payment_channel_runtime_code();
        let mut evm = Evm::new(EvmConfig::cc2538());
        // First payment: sequence 1, cumulative 100 — runs against fresh
        // storage, so execute the calls through one storage instance.
        let mut storage = tinyevm_evm::SideChainStorage::new(1024);
        let mut host = tinyevm_evm::NullHost::new();
        let mut iot = tinyevm_evm::NullIotEnvironment;
        let run = |evm: &mut Evm,
                   storage: &mut tinyevm_evm::SideChainStorage,
                   host: &mut tinyevm_evm::NullHost,
                   iot: &mut tinyevm_evm::NullIotEnvironment,
                   data: Vec<u8>| {
            evm.execute_in_frame(
                &runtime,
                tinyevm_evm::CallContext {
                    call_data: data,
                    ..Default::default()
                },
                storage,
                host,
                iot,
                false,
                4,
            )
            .unwrap()
        };

        let result = run(
            &mut evm,
            &mut storage,
            &mut host,
            &mut iot,
            record_payment_calldata(1, U256::from(100u64)),
        );
        assert_eq!(result.outcome, ExecOutcome::Return);
        assert_eq!(
            U256::from_be_slice(&result.output).unwrap(),
            U256::from(100u64)
        );

        // Higher sequence supersedes.
        let result = run(
            &mut evm,
            &mut storage,
            &mut host,
            &mut iot,
            record_payment_calldata(2, U256::from(250u64)),
        );
        assert_eq!(result.outcome, ExecOutcome::Return);

        // Stale sequence reverts.
        let result = run(
            &mut evm,
            &mut storage,
            &mut host,
            &mut iot,
            record_payment_calldata(2, U256::from(999u64)),
        );
        assert_eq!(result.outcome, ExecOutcome::Revert);

        // Sequence query returns 2.
        let result = run(
            &mut evm,
            &mut storage,
            &mut host,
            &mut iot,
            read_calldata(FN_READ_SEQUENCE),
        );
        assert_eq!(
            U256::from_be_slice(&result.output).unwrap(),
            U256::from(2u64)
        );
    }

    #[test]
    fn unknown_selector_reverts() {
        let runtime = payment_channel_runtime_code();
        let mut evm = Evm::new(EvmConfig::cc2538());
        let result = evm.execute(&runtime, &[0x77]).unwrap();
        assert_eq!(result.outcome, ExecOutcome::Revert);
        let result = evm.execute(&runtime, &[]).unwrap();
        assert_eq!(result.outcome, ExecOutcome::Revert);
    }

    #[test]
    fn template_factory_creates_channels_via_create_opcode() {
        use tinyevm_evm::{ContractStore, Host};
        use tinyevm_types::Address;

        // Child init code must not need a sensor here, so use the
        // zero-sensor variant with a scripted environment.
        let child_init = payment_channel_init_code(0, 1);
        let template_runtime = template_runtime_code(&child_init);

        let mut world = ContractStore::new(EvmConfig::cc2538());
        let template_address = Address::from_low_u64(0xFAC);
        world.install_code(template_address, template_runtime);

        let caller = Address::from_low_u64(0xCA);
        let mut iot = sensors();
        let outcome =
            world.execute_contract(caller, template_address, U256::ZERO, &[0x01], &mut iot);
        assert!(outcome.success, "factory call failed: {outcome:?}");
        let child_address = Address::from_u256(U256::from_be_slice(&outcome.output).unwrap());
        assert_ne!(child_address, Address::ZERO);
        // The child is now a real contract with the payment-channel runtime.
        assert_eq!(world.code(&child_address), payment_channel_runtime_code());
        // And its constructor stored the sensor reading.
        assert_eq!(
            world.storage_of(&child_address, U256::from(SLOT_SENSOR as u64)),
            U256::from(2150u64)
        );
    }

    #[test]
    fn patched_init_code_matches_a_fresh_assembly() {
        assert_eq!(payment_channel_runtime_code(), assemble_runtime_code());
        let mut pairs = vec![(0, 0), (u64::MAX, u64::MAX), (0, u64::MAX), (u64::MAX, 0)];
        // SplitMix64 steps: seeded, spread over all 64 bits.
        let mut state = 0x5EED_C0DEu64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for _ in 0..32 {
            let (sensor, channel) = (next(), next());
            pairs.extend([(sensor, channel), (sensor & 0xff, channel >> 40)]);
        }
        for (sensor, channel) in pairs {
            assert_eq!(
                payment_channel_init_code(sensor, channel),
                assemble_init_code(sensor, channel),
                "sensor {sensor:#x}, channel {channel:#x}"
            );
        }
    }

    #[test]
    fn calldata_builders() {
        let data = record_payment_calldata(7, U256::from(123u64));
        assert_eq!(data.len(), 65);
        assert_eq!(data[0], FN_RECORD_PAYMENT);
        assert_eq!(data[32], 7);
        assert_eq!(read_calldata(FN_READ_SENSOR), vec![FN_READ_SENSOR]);
    }
}
