//! # TinyEVM
//!
//! A full-system Rust reproduction of *TinyEVM: Off-Chain Smart Contracts on
//! Low-Power IoT Devices* (ICDCS 2020): a customized Ethereum Virtual
//! Machine for resource-constrained devices, an off-chain payment-channel
//! protocol built on logical clocks, and the simulated device / radio /
//! main-chain substrates needed to evaluate them end to end.
//!
//! This crate is the umbrella: it re-exports the public API of every
//! subsystem crate and gathers the most used items in [`prelude`].
//!
//! ## Subsystems
//!
//! | module | crate | what it provides |
//! |---|---|---|
//! | [`types`] | `tinyevm-types` | 256-bit arithmetic, addresses, hashes, RLP |
//! | [`crypto`] | `tinyevm-crypto` | Keccak-256, SHA-256, secp256k1 ECDSA |
//! | [`analysis`] | `tinyevm-analysis` | static bytecode verifier, CFG, cached code analysis |
//! | [`evm`] | `tinyevm-evm` | the customized EVM (IoT opcode, resource limits) |
//! | [`device`] | `tinyevm-device` | CC2538-class device model: timing, energy, sensors |
//! | [`net`] | `tinyevm-net` | 802.15.4 / BLE link simulator |
//! | [`chain`] | `tinyevm-chain` | template contract, commits, challenge periods |
//! | [`wire`] | `tinyevm-wire` | canonical RLP wire format, snapshots, persistence |
//! | [`channel`] | `tinyevm-channel` | signed payments, side-chain logs, the protocol driver |
//! | [`corpus`] | `tinyevm-corpus` | the synthetic 7,000-contract corpus |
//! | [`sim`] | `tinyevm-sim` | virtual-clock event scheduler, contending fleet simulation |
//!
//! ## Quickstart
//!
//! ```
//! use tinyevm::prelude::*;
//!
//! // Run one parking session: open a channel, make three payments, settle.
//! let mut driver = ProtocolDriver::smart_parking(Wei::from_eth_milli(100));
//! driver.publish_template()?;
//! driver.open_channel()?;
//! for _ in 0..3 {
//!     driver.pay(Wei::from_eth_milli(5))?;
//! }
//! let outcome = driver.close_and_settle()?;
//! assert_eq!(outcome.settlement.to_receiver, Wei::from_eth_milli(15));
//! # Ok::<(), tinyevm::channel::ProtocolError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tinyevm_analysis as analysis;
pub use tinyevm_chain as chain;
pub use tinyevm_channel as channel;
pub use tinyevm_corpus as corpus;
pub use tinyevm_crypto as crypto;
pub use tinyevm_device as device;
pub use tinyevm_evm as evm;
pub use tinyevm_net as net;
pub use tinyevm_sim as sim;
pub use tinyevm_trace as trace;
pub use tinyevm_types as types;
pub use tinyevm_wire as wire;

/// The most commonly used items, importable with one `use`.
pub mod prelude {
    pub use tinyevm_chain::{Blockchain, TemplateConfig, TemplateContract};
    pub use tinyevm_channel::{
        ChannelRole, OffChainNode, PaymentChannel, ProtocolDriver, SignedPayment,
    };
    pub use tinyevm_corpus::{realistic_7000, CorpusConfig};
    pub use tinyevm_crypto::secp256k1::PrivateKey;
    pub use tinyevm_crypto::{keccak256, sha256};
    pub use tinyevm_device::{Device, EnergyMeter, Mcu, PowerState};
    pub use tinyevm_evm::{asm, deploy, Evm, EvmConfig, Opcode};
    pub use tinyevm_net::{Link, LinkConfig, LinkProfile, NodeAddr, SharedMedium};
    pub use tinyevm_trace::{TraceHandle, TraceSnapshot};
    pub use tinyevm_types::{Address, Wei, H256, U256};
    pub use tinyevm_wire::{ChainSnapshot, ChannelSnapshot, Message, WireError};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_a_working_stack() {
        // A tiny end-to-end smoke test across every crate: hash, sign,
        // assemble, execute, and account for a device.
        let digest = keccak256(b"smoke");
        let key = PrivateKey::from_seed(b"smoke");
        let signature = key.sign_prehashed(&digest);
        assert!(key.public_key().verify_prehashed(&digest, &signature));

        let code = asm::assemble(
            "PUSH1 0x01 PUSH1 0x02 ADD PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN",
        )
        .unwrap();
        let result = Evm::new(EvmConfig::cc2538()).execute(&code, &[]).unwrap();
        assert_eq!(result.output[31], 3);

        let mut device = Device::openmote_b("smoke-node");
        let (_, time) = device.sign_payload(b"payload");
        assert!(time.as_millis() >= 350);
        assert_eq!(U256::from(2u64) + U256::from(2u64), U256::from(4u64));
        assert!(Wei::from_eth(1) > Wei::from_eth_milli(999));
    }
}
