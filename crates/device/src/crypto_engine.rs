//! The CC2538 cryptographic engine model.
//!
//! The paper offloads ECDSA and SHA-256 to the SoC's hardware engine
//! (clocked at 250 MHz) and runs Keccak-256 in software; Table V gives the
//! measured latencies. This module wraps the real implementations from
//! `tinyevm-crypto` with those latencies, so callers get correct signatures
//! *and* device-faithful timing / energy accounting.

use std::time::Duration;

use tinyevm_crypto::secp256k1::{PrivateKey, PublicKey, Signature};
use tinyevm_crypto::{keccak256, sha256};

use crate::energy::{EnergyMeter, PowerState};

/// Latency model of one cryptographic operation class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CryptoLatencies {
    /// ECDSA signature generation (hardware, Table V: 350 ms).
    pub ecdsa_sign: Duration,
    /// ECDSA verification / public-key recovery (hardware; the paper does
    /// not list it separately, the engine takes a comparable time to a
    /// signature).
    pub ecdsa_verify: Duration,
    /// SHA-256 (hardware, Table V: 1 ms).
    pub sha256: Duration,
    /// Keccak-256 (software on the MCU, Table V: 5 ms).
    pub keccak256: Duration,
}

impl CryptoLatencies {
    /// The Table V latencies.
    pub fn cc2538() -> Self {
        CryptoLatencies {
            ecdsa_sign: Duration::from_millis(350),
            ecdsa_verify: Duration::from_millis(350),
            sha256: Duration::from_millis(1),
            keccak256: Duration::from_millis(5),
        }
    }
}

/// The hardware crypto engine plus the software Keccak path.
///
/// Every operation records its time into the supplied [`EnergyMeter`]:
/// hardware operations as [`PowerState::CryptoEngine`], the software Keccak
/// as [`PowerState::CpuActive`].
///
/// # Example
///
/// ```
/// use tinyevm_device::{CryptoEngine, EnergyMeter};
/// use tinyevm_crypto::secp256k1::PrivateKey;
///
/// let engine = CryptoEngine::cc2538();
/// let mut meter = EnergyMeter::cc2538();
/// let key = PrivateKey::from_seed(b"sensor");
/// let digest = engine.keccak256(&mut meter, b"payment");
/// let signature = engine.sign(&mut meter, &key, &digest);
/// assert!(engine.verify(&mut meter, &key.public_key(), &digest, &signature));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct CryptoEngine {
    latencies: CryptoLatencies,
}

impl CryptoEngine {
    /// Engine with the CC2538 latencies.
    pub fn cc2538() -> Self {
        CryptoEngine {
            latencies: CryptoLatencies::cc2538(),
        }
    }

    /// Engine with custom latencies (for ablations).
    pub fn with_latencies(latencies: CryptoLatencies) -> Self {
        CryptoEngine { latencies }
    }

    /// The configured latencies.
    pub fn latencies(&self) -> CryptoLatencies {
        self.latencies
    }

    /// Total crypto time of one transaction round (one Keccak + one SHA-256
    /// + one ECDSA signature), the paper's Table V "total" row (356 ms).
    pub fn transaction_round_time(&self) -> Duration {
        self.latencies.keccak256 + self.latencies.sha256 + self.latencies.ecdsa_sign
    }

    /// Keccak-256 (software): hashes `data` and charges CPU time.
    pub fn keccak256(&self, meter: &mut EnergyMeter, data: &[u8]) -> [u8; 32] {
        meter.record(PowerState::CpuActive, self.latencies.keccak256);
        keccak256(data)
    }

    /// SHA-256 (hardware engine).
    pub fn sha256(&self, meter: &mut EnergyMeter, data: &[u8]) -> [u8; 32] {
        meter.record(PowerState::CryptoEngine, self.latencies.sha256);
        sha256(data)
    }

    /// ECDSA signature over a prehashed digest (hardware engine).
    pub fn sign(&self, meter: &mut EnergyMeter, key: &PrivateKey, digest: &[u8; 32]) -> Signature {
        meter.record(PowerState::CryptoEngine, self.latencies.ecdsa_sign);
        key.sign_prehashed(digest)
    }

    /// ECDSA verification (hardware engine).
    pub fn verify(
        &self,
        meter: &mut EnergyMeter,
        public_key: &PublicKey,
        digest: &[u8; 32],
        signature: &Signature,
    ) -> bool {
        meter.record(PowerState::CryptoEngine, self.latencies.ecdsa_verify);
        public_key.verify_prehashed(digest, signature)
    }
}

impl Default for CryptoEngine {
    fn default() -> Self {
        CryptoEngine::cc2538()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latencies_match_table_five() {
        let latencies = CryptoLatencies::cc2538();
        assert_eq!(latencies.ecdsa_sign, Duration::from_millis(350));
        assert_eq!(latencies.sha256, Duration::from_millis(1));
        assert_eq!(latencies.keccak256, Duration::from_millis(5));
        // Total transaction round: 356 ms (Table V).
        assert_eq!(
            CryptoEngine::cc2538().transaction_round_time(),
            Duration::from_millis(356)
        );
    }

    #[test]
    fn operations_charge_the_meter() {
        let engine = CryptoEngine::cc2538();
        let mut meter = EnergyMeter::cc2538();
        let key = PrivateKey::from_seed(b"meter test");
        let digest = engine.keccak256(&mut meter, b"data");
        let _ = engine.sha256(&mut meter, b"data");
        let signature = engine.sign(&mut meter, &key, &digest);
        assert!(engine.verify(&mut meter, &key.public_key(), &digest, &signature));
        assert_eq!(
            meter.time_in(PowerState::CpuActive),
            Duration::from_millis(5)
        );
        assert_eq!(
            meter.time_in(PowerState::CryptoEngine),
            Duration::from_millis(1 + 350 + 350)
        );
    }

    #[test]
    fn signatures_produced_by_the_engine_are_real() {
        let engine = CryptoEngine::cc2538();
        let mut meter = EnergyMeter::cc2538();
        let key = PrivateKey::from_seed(b"real signature");
        let digest = keccak256(b"channel state 7");
        let signature = engine.sign(&mut meter, &key, &digest);
        // Verifiable both through the engine and directly with the library.
        assert!(engine.verify(&mut meter, &key.public_key(), &digest, &signature));
        assert_eq!(signature.recover_address(&digest), Ok(key.eth_address()));
        // A wrong digest does not verify, nor recover the same address.
        let other = keccak256(b"tampered");
        assert!(!engine.verify(&mut meter, &key.public_key(), &other, &signature));
        assert_ne!(signature.recover_address(&other), Ok(key.eth_address()));
    }

    #[test]
    fn custom_latencies_apply() {
        let engine = CryptoEngine::with_latencies(CryptoLatencies {
            ecdsa_sign: Duration::from_millis(10),
            ecdsa_verify: Duration::from_millis(10),
            sha256: Duration::from_millis(2),
            keccak256: Duration::from_millis(3),
        });
        assert_eq!(engine.transaction_round_time(), Duration::from_millis(15));
        assert_eq!(engine.latencies().sha256, Duration::from_millis(2));
    }
}
