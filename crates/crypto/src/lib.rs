//! Cryptographic primitives for TinyEVM, implemented from scratch.
//!
//! The TinyEVM prototype runs on a TI-CC2538 SoC whose cryptographic engine
//! provides SHA-256 and ECDSA in hardware, while Keccak-256 (needed for EVM
//! compatibility) runs in software. This crate reimplements all three in
//! portable Rust:
//!
//! * [`keccak256`] — the Keccak-f\[1600\] permutation and the 256-bit digest
//!   the EVM uses for `SHA3`, contract addresses and payment hashes.
//! * [`sha256()`] / [`hmac_sha256`] — the hash the crypto engine accelerates,
//!   also used for deterministic ECDSA nonces.
//! * [`secp256k1`] — prime-field and curve arithmetic, ECDSA signing,
//!   verification and public-key recovery, which is how signed off-chain
//!   payments are validated and attributed to a channel party.
//!
//! The *latency and energy cost* of these operations on the IoT device is
//! not modelled here — that lives in `tinyevm-device`, which wraps these
//! functions with the CC2538 timing from the paper's Table V.
//!
//! # Example
//!
//! ```
//! use tinyevm_crypto::{keccak256, secp256k1::PrivateKey};
//!
//! let digest = keccak256(b"parking payment #1");
//! let key = PrivateKey::from_seed(b"vehicle key");
//! let signature = key.sign_prehashed(&digest);
//! assert!(key.public_key().verify_prehashed(&digest, &signature));
//! let recovered = signature.recover(&digest).unwrap();
//! assert_eq!(recovered.eth_address(), key.public_key().eth_address());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod keccak;
pub mod secp256k1;
pub mod sha256;

pub use keccak::{keccak256, Keccak256};
pub use sha256::{hmac_sha256, sha256, Sha256};

use tinyevm_types::H256;

/// Convenience wrapper returning the Keccak-256 digest as an [`H256`].
pub fn keccak256_h256(data: &[u8]) -> H256 {
    H256::from_bytes(keccak256(data))
}

/// Convenience wrapper returning the SHA-256 digest as an [`H256`].
pub fn sha256_h256(data: &[u8]) -> H256 {
    H256::from_bytes(sha256(data))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn h256_wrappers_agree_with_raw_digests() {
        let data = b"tinyevm";
        assert_eq!(keccak256_h256(data).to_bytes(), keccak256(data));
        assert_eq!(sha256_h256(data).to_bytes(), sha256(data));
        assert_ne!(keccak256_h256(data), sha256_h256(data));
    }
}
