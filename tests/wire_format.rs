//! Wire-format conformance: golden byte vectors and round-trip properties.
//!
//! Two families of guarantees:
//!
//! * **Golden vectors** — deterministic protocol objects (keys derived from
//!   fixed seeds, RFC-6979-style deterministic nonces) must encode to the
//!   exact pinned bytes. Any change to these is a wire-format break and
//!   must be made deliberately, with a version bump.
//! * **Round-trip properties** — for every [`Message`] variant,
//!   `encode → fragment → reassemble → decode` is the identity, and any
//!   byte string the decoder accepts re-encodes to itself (canonicality).
//!
//! Plus the acceptance scenario: a parking session driven entirely over
//! wire messages — lossless and lossy — whose chain / channel snapshots,
//! written to disk and restored, are hash-identical.

use proptest::prelude::*;
use tinyevm::prelude::*;
use tinyevm::wire::{transport, ChannelOpen, PaymentAck, SensorReading};
use tinyevm_chain::{ChannelState, CommitEnvelope};
use tinyevm_channel::ProtocolDriver;
use tinyevm_types::hex;

fn payer() -> PrivateKey {
    PrivateKey::from_seed(b"golden payer")
}

fn receiver_key() -> PrivateKey {
    PrivateKey::from_seed(b"golden receiver")
}

fn golden_payment() -> SignedPayment {
    SignedPayment::create(
        &payer(),
        Address::from_low_u64(0xAA),
        1,
        2,
        Wei::from(5_000u64),
        H256::from_low_u64(0xfeed),
    )
}

fn golden_close() -> Message {
    let state = ChannelState {
        template: Address::from_low_u64(0xAA),
        channel_id: 1,
        sequence: 3,
        total_to_receiver: Wei::from(5_000u64),
        sensor_data_hash: H256::from_low_u64(0xfeed),
    };
    let digest = state.digest();
    Message::ChannelClose(CommitEnvelope {
        state,
        sender_signature: payer().sign_prehashed(&digest),
        receiver_signature: receiver_key().sign_prehashed(&digest),
    })
}

const GOLDEN_READING: &str = "c70102c402820866";
const GOLDEN_OPEN: &str = "f8480101f8449400000000000000000000000000000000000000aa019461\
                           68f9eccdd2a567d5f88efe20ea8b71025c962694bdd3c4b38fad1c6b4b0a\
                           6a7bbce8dc136c98e658830f4240";
const GOLDEN_PAYMENT: &str = "f8820103f87e9400000000000000000000000000000000000000aa0102\
                              821388a0000000000000000000000000000000000000000000000000000\
                              000000000feedb8414e2734b35eb0786c3946da023bc5c987a3b7e100eb\
                              78cdde52b255d38f86eca0694e3a1bac5bf8d0f2a3ee0a7ca816b088ac7\
                              6524380991d6c04f7bcfe545a3a01";
const GOLDEN_CLOSE: &str = "f8c70105f8c3f83b9400000000000000000000000000000000000000aa01\
                            03821388a0000000000000000000000000000000000000000000000000000\
                            000000000feedb841111703f854444c2ef47dff90b075e4be44c85f070715\
                            2259eea4c8828d8aebb31d41a8e705b43b5c3dc4e165692204624b63f049d\
                            126d37d7e7f5329e46d5fc100b841588b282de36eaff625562e87e9b5b674\
                            2bb009271afea4f83043bad92a823d3d3439f00f931dacd95b6275fee39be\
                            bba9f5c92c6d3edf4d3465b8ed830973a4601";

fn clean(golden: &str) -> String {
    golden.split_whitespace().collect()
}

// --- golden vectors ---------------------------------------------------------

#[test]
fn golden_sensor_reading() {
    let message = Message::SensorReading(SensorReading {
        peripheral: 2,
        value: U256::from(2150u64),
    });
    assert_eq!(hex::encode(&message.to_wire()), clean(GOLDEN_READING));
}

#[test]
fn golden_channel_open() {
    let message = Message::ChannelOpen(ChannelOpen {
        template: Address::from_low_u64(0xAA),
        channel_id: 1,
        sender: payer().eth_address(),
        receiver: receiver_key().eth_address(),
        deposit_cap: Wei::from(1_000_000u64),
    });
    assert_eq!(hex::encode(&message.to_wire()), clean(GOLDEN_OPEN));
}

#[test]
fn golden_payment_envelope() {
    let message = Message::Payment(golden_payment());
    assert_eq!(hex::encode(&message.to_wire()), clean(GOLDEN_PAYMENT));
}

#[test]
fn golden_channel_close() {
    assert_eq!(hex::encode(&golden_close().to_wire()), clean(GOLDEN_CLOSE));
}

#[test]
fn golden_vectors_decode_back() {
    // The pinned strings are real envelopes: they decode, and re-encode to
    // the exact same bytes.
    for golden in [GOLDEN_READING, GOLDEN_OPEN, GOLDEN_PAYMENT, GOLDEN_CLOSE] {
        let bytes = hex::decode(&clean(golden)).unwrap();
        let message = Message::from_wire(&bytes).unwrap();
        assert_eq!(message.to_wire(), bytes);
    }
    // And the payment inside the golden vector still verifies standalone.
    let bytes = hex::decode(&clean(GOLDEN_PAYMENT)).unwrap();
    let Message::Payment(payment) = Message::from_wire(&bytes).unwrap() else {
        panic!("golden payment decoded to the wrong variant");
    };
    assert!(payment.verify_payer(&payer().eth_address()).is_ok());
}

// --- round-trip properties --------------------------------------------------

/// `encode → fragment → reassemble → decode == id` for one message.
fn assert_radio_roundtrip(message: &Message) {
    let frames = transport::to_frames(message, NodeAddr::new(1), NodeAddr::new(2), 7).unwrap();
    let delivered = transport::from_frames(&frames).unwrap();
    assert_eq!(&delivered, message);
    assert_eq!(delivered.to_wire(), message.to_wire());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sensor_readings_roundtrip(peripheral in 0u64.., low in any::<u64>()) {
        assert_radio_roundtrip(&Message::SensorReading(SensorReading {
            peripheral,
            value: U256::from(low),
        }));
    }

    #[test]
    fn channel_opens_roundtrip(
        template in any::<u64>(),
        channel_id in 0u64..,
        cap in any::<u64>(),
    ) {
        assert_radio_roundtrip(&Message::ChannelOpen(ChannelOpen {
            template: Address::from_low_u64(template),
            channel_id,
            sender: Address::from_low_u64(cap ^ 0x51),
            receiver: Address::from_low_u64(cap ^ 0x52),
            deposit_cap: Wei::from(cap),
        }));
    }

    #[test]
    fn payments_roundtrip(
        seed in any::<u64>(),
        channel_id in 1u64..1_000,
        sequence in 1u64..1_000_000,
        amount in any::<u64>(),
    ) {
        let key = PrivateKey::from_seed(&seed.to_be_bytes());
        let payment = SignedPayment::create(
            &key,
            Address::from_low_u64(seed),
            channel_id,
            sequence,
            Wei::from(amount),
            H256::from_low_u64(seed ^ amount),
        );
        assert_radio_roundtrip(&Message::Payment(payment.clone()));
        // The artifact that crossed the radio still verifies.
        let frames =
            transport::to_frames(&Message::Payment(payment), NodeAddr::new(1), NodeAddr::new(2), 3)
                .unwrap();
        let Message::Payment(delivered) = transport::from_frames(&frames).unwrap() else {
            return Err(TestCaseError::fail("wrong variant after transport"));
        };
        prop_assert!(delivered.verify_payer(&key.eth_address()).is_ok());
    }

    #[test]
    fn payment_acks_roundtrip(seed in any::<u64>(), sequence in 1u64..1_000) {
        let key = PrivateKey::from_seed(&seed.to_be_bytes());
        let digest = tinyevm::crypto::keccak256(&seed.to_be_bytes());
        assert_radio_roundtrip(&Message::PaymentAck(PaymentAck {
            channel_id: 1,
            sequence,
            signature: key.sign_prehashed(&digest),
        }));
    }

    #[test]
    fn channel_closes_roundtrip(
        seed in any::<u64>(),
        sequence in 1u64..1_000_000,
        total in any::<u64>(),
    ) {
        let sender = PrivateKey::from_seed(&seed.to_be_bytes());
        let receiver = PrivateKey::from_seed(&(!seed).to_be_bytes());
        let state = ChannelState {
            template: Address::from_low_u64(seed),
            channel_id: 1,
            sequence,
            total_to_receiver: Wei::from(total),
            sensor_data_hash: H256::from_low_u64(total ^ seed),
        };
        let digest = state.digest();
        assert_radio_roundtrip(&Message::ChannelClose(CommitEnvelope {
            state,
            sender_signature: sender.sign_prehashed(&digest),
            receiver_signature: receiver.sign_prehashed(&digest),
        }));
    }

    #[test]
    fn decoder_never_panics_and_accepts_only_canonical(
        bytes in proptest::collection::vec(any::<u8>(), 0..200)
    ) {
        // Any input: decoding must return, never panic; and anything it
        // accepts must re-encode to the identical bytes.
        if let Ok(message) = Message::from_wire(&bytes) {
            prop_assert_eq!(message.to_wire(), bytes);
        }
    }
}

// --- snapshot round trips over the radio ------------------------------------

#[test]
fn session_snapshots_roundtrip_as_messages() {
    let mut driver = ProtocolDriver::smart_parking(Wei::from_eth_milli(100));
    driver.run_session(2, Wei::from_eth_milli(5)).unwrap();

    // The chain snapshot crosses the (fragmented) radio and restores to a
    // hash-identical chain on the far side.
    let snapshot = driver.chain_snapshot();
    let message = Message::ChainSnapshot(snapshot.clone());
    let frames = transport::to_frames(&message, NodeAddr::new(1), NodeAddr::new(2), 99).unwrap();
    assert!(frames.len() > 1, "chain snapshots span several frames");
    let Message::ChainSnapshot(delivered) = transport::from_frames(&frames).unwrap() else {
        panic!("wrong variant");
    };
    assert_eq!(delivered, snapshot);
    assert_eq!(
        delivered.restore().unwrap().state_root(),
        driver.chain().state_root()
    );

    // Same for a channel endpoint snapshot.
    let endpoint = driver.receiver().snapshot().unwrap();
    let message = Message::ChannelSnapshot(endpoint.clone());
    assert_radio_roundtrip(&message);
}

// --- acceptance: the parking scenario over the wire -------------------------

#[test]
fn parking_scenario_runs_over_the_wire_with_persistence() {
    // Phase 1+2: drive half the session, snapshot to disk.
    let mut path = std::env::temp_dir();
    path.push(format!(
        "tinyevm-wire-acceptance-{}.snap",
        std::process::id()
    ));
    let mut driver = ProtocolDriver::smart_parking(Wei::from_eth_milli(100));
    driver.run_session(2, Wei::from_eth_milli(5)).unwrap();
    driver.save_session(&path).unwrap();
    let chain_root = driver.chain().state_root();
    let sender_hash = driver.sender().snapshot().unwrap().state_hash();
    let receiver_hash = driver.receiver().snapshot().unwrap().state_hash();

    // Power cycle: a fresh driver restores from disk, hash-equal.
    let mut resumed = ProtocolDriver::smart_parking(Wei::from_eth_milli(100));
    resumed.restore_session(&path).unwrap();
    assert_eq!(resumed.chain().state_root(), chain_root);
    assert_eq!(
        resumed.sender().snapshot().unwrap().state_hash(),
        sender_hash
    );
    assert_eq!(
        resumed.receiver().snapshot().unwrap().state_hash(),
        receiver_hash
    );

    // Phase 3: the resumed session pays twice more and settles for all four.
    resumed.run_session(2, Wei::from_eth_milli(5)).unwrap();
    let settlement = resumed.close_and_settle().unwrap();
    assert_eq!(settlement.settlement.to_receiver, Wei::from_eth_milli(20));
    assert!(!settlement.settlement.fraud_detected);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn parking_scenario_survives_a_lossy_link() {
    let session = |link: LinkConfig| {
        let mut driver = ProtocolDriver::smart_parking_with_link(link, Wei::from_eth_milli(100));
        let rounds = driver.run_session(3, Wei::from_eth_milli(5)).unwrap();
        let settlement = driver.close_and_settle().unwrap();
        assert_eq!(rounds.len(), 3);
        assert_eq!(settlement.settlement.to_receiver, Wei::from_eth_milli(15));
        rounds.iter().map(|r| r.bytes_exchanged).sum::<usize>()
    };
    // The loss process retransmitted at least one frame somewhere.
    let lossy_bytes = session(LinkConfig::default().with_loss(0.3, 1234));
    assert!(lossy_bytes > session(LinkConfig::default()));
}

#[test]
fn deterministic_session_has_a_stable_chain_state_root() {
    // The chain after a fixed session is deterministic — pin its state
    // root as a golden value guarding the whole encode/commit pipeline.
    let mut driver = ProtocolDriver::smart_parking(Wei::from(1_000_000u64));
    driver.run_session(3, Wei::from(10_000u64)).unwrap();
    driver.close_and_settle().unwrap();
    let root = driver.chain().state_root();
    let mut second = ProtocolDriver::smart_parking(Wei::from(1_000_000u64));
    second.run_session(3, Wei::from(10_000u64)).unwrap();
    second.close_and_settle().unwrap();
    assert_eq!(second.chain().state_root(), root);
    assert_eq!(hex::encode(root.as_bytes()), clean(GOLDEN_SESSION_ROOT));
}

const GOLDEN_SESSION_ROOT: &str =
    "4f3401a5a93fddac121ac16911a2c1ee7338d8e699e676481357e33dd7b8e658";
