//! secp256k1 elliptic-curve arithmetic and ECDSA.
//!
//! Signed off-chain payments are the trust anchor of the TinyEVM protocol:
//! each payment is a stand-alone artifact that can later claim money from
//! the main chain, so it must carry an Ethereum-compatible ECDSA signature.
//! The CC2538 produces these with its hardware crypto engine (≈350 ms per
//! signature, Table V); this module is the functional equivalent in portable
//! Rust: prime-field arithmetic, curve arithmetic, deterministic
//! (RFC-6979-style) signing, verification, batch verification, and
//! public-key recovery.
//!
//! The module is split by layer:
//!
//! * [`field`] — arithmetic modulo the field prime `p` on 4×64-bit limbs: a
//!   schoolbook product and a dedicated squaring, reduced by folding the
//!   high half back in through the one-limb constant `2^256 − p =
//!   2^32 + 977`; branch-free limb addition and subtraction; safegcd
//!   inversion, an addition-chain square root and Montgomery-trick batch
//!   inversion;
//! * [`scalar`] — arithmetic modulo the group order `n` on the same limb
//!   products, reduced by folding limb by limb through the 129-bit
//!   complement `2^256 − n`, with the same safegcd inversion;
//! * `modinv` — the one inverter both use: Bernstein–Yang safegcd on
//!   signed 62-bit limbs, a port of libsecp256k1's `modinv64_var`;
//! * [`point`] — affine points (kept as the slow, obviously-correct
//!   reference) and Jacobian projective points, doubled and added by
//!   libsecp256k1's formulas (3M + 4S and 8M + 3S), with wNAF scalar
//!   multiplication, Shamir/Straus multi-scalar multiplication, and
//!   Lim–Lee combs stored as affine pairs: two 10-tooth ones for the
//!   generator (over `G` and `2^13·G`, 13 columns), which signing rides on,
//!   and 7-tooth ones (127 entries, ≈8 KB, 37 columns) for `u1·G + u2·Q`
//!   against a key that is used many times;
//! * [`ecdsa`] — keys, signatures, signing, verification, recovery, batch
//!   verification, and [`VerifyingKey`], which checks a known signer's
//!   recoverable signatures on its comb instead of recovering each one.
//!
//! The implementation favours clarity over constant-time guarantees — it is
//! a simulator substrate, not a hardened wallet library — but it is a full,
//! correct implementation of the curve, not a mock. In particular,
//! inversion is variable-time (its steps depend on the value inverted,
//! including the nonce during signing), and [`point::generator_mul`] indexes
//! its tables by the nonce's bits. Signatures are bit-for-bit identical to
//! the original affine double-and-add implementation (pinned by the
//! known-answer tests in `tests/ecdsa_kat.rs`): each formula change moves
//! only the projective representative, never the affine point.

pub mod ecdsa;
pub mod field;
mod modinv;
pub mod point;
pub mod scalar;

pub use ecdsa::{verify_batch, BatchItem, PrivateKey, PublicKey, Signature, VerifyingKey};
pub use field::FieldElement;
pub use point::{JacobianPoint, Point};
pub use scalar::Scalar;

use tinyevm_types::U256;

/// The field prime `p = 2^256 - 2^32 - 977`.
pub const FIELD_PRIME: U256 = U256::from_limbs([
    0xFFFF_FFFE_FFFF_FC2F,
    0xFFFF_FFFF_FFFF_FFFF,
    0xFFFF_FFFF_FFFF_FFFF,
    0xFFFF_FFFF_FFFF_FFFF,
]);

/// The group order `n`.
pub const CURVE_ORDER: U256 = U256::from_limbs([
    0xBFD2_5E8C_D036_4141,
    0xBAAE_DCE6_AF48_A03B,
    0xFFFF_FFFF_FFFF_FFFE,
    0xFFFF_FFFF_FFFF_FFFF,
]);

/// Errors returned by signing, verification and recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CryptoError {
    /// A private key scalar was zero or not less than the curve order.
    InvalidPrivateKey,
    /// A public key was not a valid point on the curve.
    InvalidPublicKey,
    /// A signature component was out of range or recovery failed.
    InvalidSignature,
    /// The recovery id was not 0 or 1.
    InvalidRecoveryId(u8),
    /// A serialized signature had the wrong length.
    InvalidLength {
        /// Bytes the encoding requires.
        expected: usize,
        /// Bytes that were supplied.
        got: usize,
    },
}

impl core::fmt::Display for CryptoError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CryptoError::InvalidPrivateKey => write!(f, "invalid private key scalar"),
            CryptoError::InvalidPublicKey => write!(f, "point is not on the secp256k1 curve"),
            CryptoError::InvalidSignature => write!(f, "signature components out of range"),
            CryptoError::InvalidRecoveryId(v) => write!(f, "invalid recovery id {v}"),
            CryptoError::InvalidLength { expected, got } => {
                write!(f, "signature must be {expected} bytes, got {got}")
            }
        }
    }
}

impl std::error::Error for CryptoError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keccak256;

    #[test]
    fn field_prime_and_order_have_expected_hex() {
        assert_eq!(
            FIELD_PRIME.to_hex(),
            "0xfffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f"
        );
        assert_eq!(
            CURVE_ORDER.to_hex(),
            "0xfffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141"
        );
    }

    #[test]
    fn generator_is_on_curve() {
        assert!(Point::generator().is_on_curve());
        assert!(Point::INFINITY.is_on_curve());
    }

    #[test]
    fn field_add_sub_round_trip() {
        let a = FieldElement::new(U256::from(123456u64));
        let b = FieldElement::new(FIELD_PRIME.wrapping_sub(U256::from(17u64)));
        assert_eq!(a.add(b).sub(b), a);
        assert_eq!(a.sub(a), FieldElement::ZERO);
        assert_eq!(a.add(a.negate()), FieldElement::ZERO);
        assert_eq!(FieldElement::ZERO.negate(), FieldElement::ZERO);
    }

    #[test]
    fn field_mul_matches_generic_mulmod() {
        let a = FieldElement::new(U256::MAX.wrapping_sub(U256::from(123u64)));
        let b = FieldElement::new(U256::MAX.shr(1));
        let expected = a.to_u256().mul_mod(b.to_u256(), FIELD_PRIME);
        assert_eq!(a.mul(b).to_u256(), expected);
    }

    #[test]
    fn field_inverse() {
        let a = FieldElement::new(U256::from(0xdead_beefu64));
        assert_eq!(a.mul(a.invert()), FieldElement::ONE);
        let b = FieldElement::new(FIELD_PRIME.wrapping_sub(U256::ONE));
        assert_eq!(b.mul(b.invert()), FieldElement::ONE);
    }

    /// Inputs for the inverters: 1, 2, `m − 1`, `m − 2`, every power of
    /// two below `2^256` (the safegcd steps run longest on sparse inputs),
    /// and a few small and one-limb values.
    fn inverse_seeds(modulus: U256) -> Vec<U256> {
        let mut seeds = vec![
            U256::ONE,
            U256::from(2u64),
            modulus.wrapping_sub(U256::ONE),
            modulus.wrapping_sub(U256::from(2u64)),
        ];
        seeds.extend((0..256).map(|k| U256::ONE.shl(k)));
        seeds.extend([3u64, 41, 977, 0xdead_beef, u64::MAX].map(U256::from));
        seeds
    }

    #[test]
    fn field_inverse_matches_generic_pow() {
        // The inverter must agree with naive square-and-multiply over the
        // Fermat exponent p − 2.
        let exp = FIELD_PRIME.wrapping_sub(U256::from(2u64));
        for seed in inverse_seeds(FIELD_PRIME) {
            let a = FieldElement::new(seed);
            assert_eq!(a.invert(), a.pow(exp), "{seed:?}");
        }
    }

    #[test]
    #[should_panic(expected = "invert zero")]
    fn field_inverse_of_zero_panics() {
        let _ = FieldElement::ZERO.invert();
    }

    #[test]
    fn field_sqrt_of_square_round_trips() {
        let a = FieldElement::new(U256::from(987654321u64));
        let square = a.square();
        let root = square.sqrt().unwrap();
        assert!(root == a || root == a.negate());
        // y² = x³ + 7 fails for roughly half of x values; find one quickly.
        let mut x = FieldElement::new(U256::from(2u64));
        let mut found_invalid = false;
        for _ in 0..20 {
            let rhs = x.square().mul(x).add(FieldElement::new(U256::from(7u64)));
            if rhs.sqrt().is_none() {
                found_invalid = true;
                break;
            }
            x = x.add(FieldElement::ONE);
        }
        assert!(found_invalid, "expected to find a non-residue quickly");
    }

    #[test]
    fn field_sqrt_matches_generic_pow() {
        // (p + 1) / 4 — the exponent the addition chain hard-codes.
        let exp = FIELD_PRIME.wrapping_add(U256::ONE).shr(2);
        for seed in [4u64, 9, 1234567, 0xffff_ffff] {
            let a = FieldElement::new(U256::from(seed)).square();
            let candidate = a.pow(exp);
            assert_eq!(a.sqrt(), Some(candidate));
        }
    }

    #[test]
    fn field_batch_invert_matches_single() {
        let mut elements: Vec<FieldElement> = (2u64..12)
            .map(|v| FieldElement::new(U256::from(v * v + 1)))
            .collect();
        let expected: Vec<FieldElement> = elements.iter().map(|e| e.invert()).collect();
        FieldElement::batch_invert(&mut elements);
        assert_eq!(elements, expected);
    }

    #[test]
    fn scalar_arithmetic() {
        let a = Scalar::new(CURVE_ORDER.wrapping_sub(U256::ONE));
        let b = Scalar::new(U256::from(5u64));
        assert_eq!(a.add(b), Scalar::new(U256::from(4u64)));
        assert_eq!(a.add(a.negate()), Scalar::ZERO);
        assert_eq!(b.mul(b.invert()), Scalar::ONE);
        assert!(Scalar::new(CURVE_ORDER).is_zero());
    }

    #[test]
    fn scalar_mul_matches_generic_mulmod() {
        let a = Scalar::new(CURVE_ORDER.wrapping_sub(U256::from(12345u64)));
        let b = Scalar::new(U256::MAX);
        let expected = a.to_u256().mul_mod(b.to_u256(), CURVE_ORDER);
        assert_eq!(a.mul(b).to_u256(), expected);
    }

    #[test]
    fn scalar_inverse_matches_generic_pow_mod() {
        let exp = CURVE_ORDER.wrapping_sub(U256::from(2u64));
        for seed in inverse_seeds(CURVE_ORDER) {
            let a = Scalar::new(seed);
            let expected = Scalar::new(a.to_u256().pow_mod(exp, CURVE_ORDER));
            assert_eq!(a.invert(), expected, "{seed:?}");
        }
    }

    #[test]
    #[should_panic(expected = "invert zero")]
    fn scalar_inverse_of_zero_panics() {
        let _ = Scalar::ZERO.invert();
    }

    #[test]
    fn point_double_and_add_consistency() {
        let g = Point::generator();
        let two_g = g.double();
        assert!(two_g.is_on_curve());
        assert_eq!(g.add(&g), two_g);
        let three_g = two_g.add(&g);
        assert!(three_g.is_on_curve());
        assert_eq!(g.scalar_mul(Scalar::new(U256::from(3u64))), three_g);
    }

    #[test]
    fn two_g_matches_known_coordinates() {
        // 2·G, a standard published value for secp256k1.
        let two_g = Point::generator().double();
        assert_eq!(
            two_g.x.to_u256().to_hex(),
            "0xc6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5"
        );
    }

    #[test]
    fn scalar_mul_by_order_is_infinity() {
        let g = Point::generator();
        // n·G = O, so (n-1)·G + G = O as well.
        let n_minus_1 = Scalar::new(CURVE_ORDER.wrapping_sub(U256::ONE));
        let almost = g.scalar_mul(n_minus_1);
        assert!(almost.is_on_curve());
        assert_eq!(almost.add(&g), Point::INFINITY);
        assert_eq!(almost, g.negate());
    }

    #[test]
    fn addition_with_infinity_and_inverse() {
        let g = Point::generator();
        assert_eq!(g.add(&Point::INFINITY), g);
        assert_eq!(Point::INFINITY.add(&g), g);
        assert_eq!(g.add(&g.negate()), Point::INFINITY);
        assert_eq!(Point::INFINITY.double(), Point::INFINITY);
        assert_eq!(
            Point::INFINITY.scalar_mul(Scalar::new(U256::from(5u64))),
            Point::INFINITY
        );
    }

    #[test]
    fn scalar_mul_distributes_over_addition() {
        let g = Point::generator();
        let a = Scalar::new(U256::from(123_456_789u64));
        let b = Scalar::new(U256::from(987_654_321u64));
        let lhs = g.scalar_mul(a.add(b));
        let rhs = g.scalar_mul(a).add(&g.scalar_mul(b));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn jacobian_is_on_curve_without_normalizing() {
        let g = JacobianPoint::from_affine(&Point::generator());
        let p = g.double().add(&g); // 3·G with a non-trivial Z
        assert!(p.is_on_curve());
        assert!(JacobianPoint::INFINITY.is_on_curve());
        // A corrupted point is off the curve.
        let mut bad = p;
        bad.x = bad.x.add(FieldElement::ONE);
        assert!(!bad.is_on_curve());
    }

    #[test]
    fn from_affine_validates() {
        let g = Point::generator();
        assert!(Point::from_affine(g.x.to_u256(), g.y.to_u256()).is_ok());
        assert_eq!(
            Point::from_affine(g.x.to_u256(), g.y.to_u256().wrapping_add(U256::ONE)),
            Err(CryptoError::InvalidPublicKey)
        );
    }

    #[test]
    fn from_x_recovers_both_parities() {
        let g = Point::generator();
        let even = Point::from_x(g.x.to_u256(), false).unwrap();
        let odd = Point::from_x(g.x.to_u256(), true).unwrap();
        assert_ne!(even, odd);
        assert_eq!(even.add(&odd), Point::INFINITY);
        assert!(even == g || odd == g);
    }

    #[test]
    fn private_key_construction_rules() {
        assert!(PrivateKey::from_scalar(Scalar::ZERO).is_err());
        assert!(PrivateKey::from_bytes(&[0u8; 32]).is_err());
        assert!(PrivateKey::from_bytes(&[1u8; 32]).is_ok());
        let a = PrivateKey::from_seed(b"node A");
        let b = PrivateKey::from_seed(b"node B");
        assert_ne!(a.eth_address(), b.eth_address());
        // Deterministic.
        assert_eq!(a.to_bytes(), PrivateKey::from_seed(b"node A").to_bytes());
    }

    #[test]
    fn random_keys_are_distinct() {
        let mut rng = rand::rngs::mock::StepRng::new(42, 7);
        let a = PrivateKey::random(&mut rng);
        let b = PrivateKey::random(&mut rng);
        assert_ne!(a.to_bytes(), b.to_bytes());
    }

    #[test]
    fn sign_verify_round_trip() {
        let key = PrivateKey::from_seed(b"parking sensor");
        let digest = keccak256(b"payment 1: 5 milliwei");
        let signature = key.sign_prehashed(&digest);
        assert!(key.public_key().verify_prehashed(&digest, &signature));
        // Tampered digest fails.
        let other = keccak256(b"payment 1: 500 milliwei");
        assert!(!key.public_key().verify_prehashed(&other, &signature));
        // Other key fails.
        let other_key = PrivateKey::from_seed(b"vehicle");
        assert!(!other_key.public_key().verify_prehashed(&digest, &signature));
    }

    #[test]
    fn signing_is_deterministic_and_low_s() {
        let key = PrivateKey::from_seed(b"determinism");
        let digest = keccak256(b"same message");
        let sig1 = key.sign_prehashed(&digest);
        let sig2 = key.sign_prehashed(&digest);
        assert_eq!(sig1, sig2);
        assert!(sig1.s <= CURVE_ORDER.shr(1));
    }

    #[test]
    fn recover_returns_signer() {
        let key = PrivateKey::from_seed(b"recoverable");
        let digest = keccak256(b"channel close, seq 17");
        let signature = key.sign_prehashed(&digest);
        let recovered = signature.recover(&digest).unwrap();
        assert_eq!(recovered, key.public_key());
        assert_eq!(
            signature.recover_address(&digest).unwrap(),
            key.eth_address()
        );
        // Recovery against a different digest yields a different key (or an
        // error), never the signer.
        let other = keccak256(b"different digest");
        if let Ok(pk) = signature.recover(&other) {
            assert_ne!(pk, key.public_key());
        }
    }

    #[test]
    fn sign_message_hashes_with_keccak() {
        let key = PrivateKey::from_seed(b"hash convention");
        let message = b"off-chain payment";
        let signature = key.sign_message(message);
        assert!(key.public_key().verify_message(message, &signature));
        assert!(key
            .public_key()
            .verify_prehashed(&keccak256(message), &signature));
    }

    #[test]
    fn signature_byte_round_trip() {
        let key = PrivateKey::from_seed(b"serialization");
        let digest = keccak256(b"bytes");
        let signature = key.sign_prehashed(&digest);
        let bytes = signature.to_bytes();
        assert_eq!(Signature::from_bytes(&bytes).unwrap(), signature);

        let mut bad_v = bytes;
        bad_v[64] = 9;
        assert_eq!(
            Signature::from_bytes(&bad_v),
            Err(CryptoError::InvalidRecoveryId(9))
        );
        let zero = [0u8; 65];
        assert_eq!(
            Signature::from_bytes(&zero),
            Err(CryptoError::InvalidSignature)
        );
    }

    #[test]
    fn eth_address_is_stable_for_known_key() {
        // Private key 1 has a well-known Ethereum address.
        let mut one = [0u8; 32];
        one[31] = 1;
        let key = PrivateKey::from_bytes(&one).unwrap();
        assert_eq!(
            key.eth_address().to_hex(),
            "0x7e5f4552091a69125d5dfcb7b8c2659029395bdf"
        );
    }

    #[test]
    fn tampered_signature_fails_verification() {
        let key = PrivateKey::from_seed(b"tamper");
        let digest = keccak256(b"original");
        let signature = key.sign_prehashed(&digest);
        let tampered = Signature {
            r: signature.r,
            s: signature.s.wrapping_add(U256::ONE),
            recovery_id: signature.recovery_id,
        };
        assert!(!key.public_key().verify_prehashed(&digest, &tampered));
    }

    #[test]
    fn batch_verification_accepts_valid_and_rejects_tampered() {
        let items: Vec<BatchItem> = (0..8u32)
            .map(|i| {
                let key = PrivateKey::from_seed(&i.to_be_bytes());
                let digest = keccak256(format!("payment {i}").as_bytes());
                BatchItem {
                    digest,
                    signature: key.sign_prehashed(&digest),
                    public_key: key.public_key(),
                }
            })
            .collect();
        assert!(verify_batch(&items));
        assert!(verify_batch(&[]));
        assert!(verify_batch(&items[..1]));

        // One tampered signature poisons the whole batch.
        let mut bad = items.clone();
        bad[3].signature.s = bad[3].signature.s.wrapping_add(U256::ONE);
        assert!(!verify_batch(&bad));

        // A signature moved to the wrong public key poisons it too.
        let mut swapped = items;
        swapped[0].public_key = swapped[1].public_key;
        assert!(!verify_batch(&swapped));
    }

    #[test]
    fn debug_output_does_not_leak_private_scalar() {
        let key = PrivateKey::from_seed(b"secret");
        let debug = format!("{key:?}");
        let scalar_hex = tinyevm_types::hex::encode(&key.to_bytes());
        assert!(!debug.contains(&scalar_hex));
        assert!(debug.contains("address"));
    }
}
