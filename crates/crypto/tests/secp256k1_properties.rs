//! Property-based cross-checks of the fast secp256k1 paths against the
//! retained affine reference implementation.
//!
//! The affine formulas (`Point::add`, `Point::double`,
//! `Point::scalar_mul_reference`) perform one field inversion per group
//! operation and are kept precisely so these tests can pin the
//! inversion-free Jacobian arithmetic, the wNAF/fixed-base/Shamir scalar
//! multiplication, and the addition-chain inversions to an
//! obviously-correct baseline on random inputs.

use proptest::prelude::*;
use tinyevm_crypto::secp256k1::{
    point, verify_batch, BatchItem, FieldElement, JacobianPoint, Point, PrivateKey, Scalar,
    CURVE_ORDER, FIELD_PRIME,
};
use tinyevm_types::U256;

fn arb_u256() -> impl Strategy<Value = U256> {
    proptest::array::uniform4(any::<u64>()).prop_map(U256::from_limbs)
}

fn arb_scalar() -> impl Strategy<Value = Scalar> {
    arb_u256().prop_map(Scalar::new)
}

fn arb_nonzero_scalar() -> impl Strategy<Value = Scalar> {
    arb_scalar().prop_map(|s| if s.is_zero() { Scalar::ONE } else { s })
}

/// Operands for the limb kernels: one of the edge values half of the
/// time, otherwise random limbs with each limb forced to all ones (one time
/// in four) or to zero (one in eight) — the carry chains break on exactly
/// those.
struct KernelOperand(Vec<U256>);

impl Strategy for KernelOperand {
    type Value = U256;

    fn generate(&self, rng: &mut TestRng) -> U256 {
        let pick = rng.below(2 * self.0.len() as u128) as usize;
        if let Some(edge) = self.0.get(pick) {
            return *edge;
        }
        U256::from_limbs(std::array::from_fn(|_| match rng.below(8) {
            0 | 1 => u64::MAX,
            2 => 0,
            _ => rng.next_u64(),
        }))
    }
}

/// Field operands around the reduction's edges: 0, 1, the fold constant
/// `2^32 + 977`, `p − 1`, `p − 2`, `2^256 − p` (the same value as the fold
/// constant, reached by wrapping) and `(p − 1)/2`.
fn arb_field_operand() -> impl Strategy<Value = FieldElement> {
    let p_minus_1 = FIELD_PRIME.wrapping_sub(U256::ONE);
    KernelOperand(vec![
        U256::ZERO,
        U256::ONE,
        U256::from(0x1_0000_03D1u64),
        p_minus_1,
        FIELD_PRIME.wrapping_sub(U256::from(2u64)),
        FIELD_PRIME.wrapping_neg(),
        p_minus_1.shr(1),
    ])
    .prop_map(FieldElement::new)
}

/// Scalar operands around the order's edges: 0, 1, `n − 1`, `n − 2`,
/// `2^128` and `2^256 − n`.
fn arb_scalar_operand() -> impl Strategy<Value = Scalar> {
    KernelOperand(vec![
        U256::ZERO,
        U256::ONE,
        CURVE_ORDER.wrapping_sub(U256::ONE),
        CURVE_ORDER.wrapping_sub(U256::from(2u64)),
        U256::ONE.shl(128),
        CURVE_ORDER.wrapping_neg(),
    ])
    .prop_map(Scalar::new)
}

/// A random finite curve point, via the (separately cross-checked)
/// fixed-base table.
fn arb_point() -> impl Strategy<Value = Point> {
    arb_nonzero_scalar().prop_map(|k| point::generator_mul(k).to_affine())
}

proptest! {
    // --- field layer ------------------------------------------------------

    /// The limb kernel against the interpreter's generic 512-bit `MULMOD`,
    /// which shares no code with it.
    #[test]
    fn field_mul_and_square_match_generic_mulmod(a in arb_field_operand(), b in arb_field_operand()) {
        let (x, y) = (a.to_u256(), b.to_u256());
        prop_assert_eq!(a.mul(b).to_u256(), x.mul_mod(y, FIELD_PRIME));
        prop_assert_eq!(a.square().to_u256(), x.mul_mod(x, FIELD_PRIME));
    }

    #[test]
    fn field_invert_chain_matches_generic_pow(v in arb_u256()) {
        let a = FieldElement::new(v);
        prop_assume!(!a.is_zero());
        let exp = FIELD_PRIME.wrapping_sub(U256::from(2u64));
        prop_assert_eq!(a.invert(), a.pow(exp));
        prop_assert_eq!(a.mul(a.invert()), FieldElement::ONE);
    }

    #[test]
    fn field_sqrt_chain_matches_generic_pow(v in arb_u256()) {
        let square = FieldElement::new(v).square();
        let exp = FIELD_PRIME.wrapping_add(U256::ONE).shr(2);
        prop_assert_eq!(square.sqrt(), Some(square.pow(exp)));
    }

    #[test]
    fn field_batch_invert_matches_singles(values in proptest::collection::vec(arb_u256(), 1..12)) {
        let mut elements: Vec<FieldElement> = values
            .into_iter()
            .map(|v| {
                let e = FieldElement::new(v);
                if e.is_zero() { FieldElement::ONE } else { e }
            })
            .collect();
        let expected: Vec<FieldElement> = elements.iter().map(|e| e.invert()).collect();
        FieldElement::batch_invert(&mut elements);
        prop_assert_eq!(elements, expected);
    }

    // --- scalar layer -----------------------------------------------------

    #[test]
    fn scalar_mul_matches_generic_mulmod(a in arb_scalar_operand(), b in arb_scalar_operand()) {
        let (x, y) = (a.to_u256(), b.to_u256());
        prop_assert_eq!(a.mul(b).to_u256(), x.mul_mod(y, CURVE_ORDER));
        prop_assert_eq!(a.square().to_u256(), x.mul_mod(x, CURVE_ORDER));
    }

    #[test]
    fn scalar_add_matches_generic_addmod(a in arb_scalar(), b in arb_scalar()) {
        let expected = a.to_u256().add_mod(b.to_u256(), CURVE_ORDER);
        prop_assert_eq!(a.add(b).to_u256(), expected);
    }

    #[test]
    fn scalar_invert_matches_generic_pow_mod(a in arb_nonzero_scalar()) {
        let exp = CURVE_ORDER.wrapping_sub(U256::from(2u64));
        let expected = a.to_u256().pow_mod(exp, CURVE_ORDER);
        prop_assert_eq!(a.invert().to_u256(), expected);
        prop_assert_eq!(a.mul(a.invert()), Scalar::ONE);
    }

    // --- Jacobian point arithmetic vs the affine reference ----------------

    #[test]
    fn jacobian_add_matches_affine(p in arb_point(), q in arb_point()) {
        let expected = p.add(&q);
        let jacobian = JacobianPoint::from_affine(&p)
            .add(&JacobianPoint::from_affine(&q));
        prop_assert_eq!(jacobian.to_affine(), expected);
        prop_assert!(jacobian.is_on_curve());
    }

    #[test]
    fn jacobian_double_matches_affine(p in arb_point()) {
        let expected = p.double();
        let jacobian = JacobianPoint::from_affine(&p).double();
        prop_assert_eq!(jacobian.to_affine(), expected);
        prop_assert!(jacobian.is_on_curve());
    }

    #[test]
    fn mixed_addition_matches_full_addition(p in arb_point(), q in arb_point()) {
        // Give the left operand a non-trivial Z by scaling through a double.
        let left = JacobianPoint::from_affine(&p).double().add_affine(&p);
        let full = left.add(&JacobianPoint::from_affine(&q));
        let mixed = left.add_affine(&q);
        prop_assert_eq!(mixed, full);
    }

    #[test]
    fn jacobian_add_handles_inverse_and_self(p in arb_point()) {
        let p_j = JacobianPoint::from_affine(&p);
        prop_assert!(p_j.add(&p_j.negate()).is_infinity());
        prop_assert_eq!(p_j.add(&p_j), p_j.double());
        prop_assert_eq!(p_j.add(&JacobianPoint::INFINITY), p_j);
        prop_assert_eq!(JacobianPoint::INFINITY.add(&p_j), p_j);
    }
}

proptest! {
    // The reference scalar multiplication pays a field inversion per point
    // operation (~ms per case), so these run fewer cases.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn wnaf_scalar_mul_matches_reference(p in arb_point(), k in arb_scalar()) {
        prop_assert_eq!(p.scalar_mul(k), p.scalar_mul_reference(k));
    }

    #[test]
    fn generator_mul_matches_reference(k in arb_scalar()) {
        prop_assert_eq!(
            point::generator_mul(k).to_affine(),
            Point::generator().scalar_mul_reference(k)
        );
    }

    #[test]
    fn shamir_matches_independent_scalar_muls(u1 in arb_scalar(), u2 in arb_scalar(), q in arb_point()) {
        let fast = point::double_scalar_mul_generator(u1, u2, &q).to_affine();
        let slow = Point::generator()
            .scalar_mul_reference(u1)
            .add(&q.scalar_mul_reference(u2));
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn multi_scalar_mul_matches_reference_sum(
        k_gen in arb_scalar(),
        k1 in arb_scalar(),
        k2 in arb_scalar(),
        p1 in arb_point(),
        p2 in arb_point(),
    ) {
        let fast = point::multi_scalar_mul(k_gen, &[(k1, p1), (k2, p2)]).to_affine();
        let slow = Point::generator()
            .scalar_mul_reference(k_gen)
            .add(&p1.scalar_mul_reference(k1))
            .add(&p2.scalar_mul_reference(k2));
        prop_assert_eq!(fast, slow);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn sign_verify_recover_round_trip(seed in any::<u64>(), message in any::<u64>()) {
        let key = PrivateKey::from_seed(&seed.to_be_bytes());
        let digest = tinyevm_crypto::keccak256(&message.to_be_bytes());
        let signature = key.sign_prehashed(&digest);
        prop_assert!(key.public_key().verify_prehashed(&digest, &signature));
        prop_assert_eq!(signature.recover(&digest).unwrap(), key.public_key());
    }

    #[test]
    fn batch_verification_agrees_with_individual(seeds in proptest::collection::vec(any::<u64>(), 1..6)) {
        let items: Vec<BatchItem> = seeds
            .iter()
            .map(|seed| {
                let key = PrivateKey::from_seed(&seed.to_be_bytes());
                let digest = tinyevm_crypto::keccak256(&seed.to_le_bytes());
                BatchItem {
                    digest,
                    signature: key.sign_prehashed(&digest),
                    public_key: key.public_key(),
                }
            })
            .collect();
        prop_assert!(verify_batch(&items));
        // Tamper with one digest: the batch must reject.
        let mut tampered = items;
        tampered[0].digest[0] ^= 0x01;
        prop_assert!(!verify_batch(&tampered));
    }
}
