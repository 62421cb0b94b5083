//! Property-based cross-checks of the fast secp256k1 paths against the
//! retained affine reference implementation and generic arithmetic.
//!
//! The affine formulas (`Point::add`, `Point::double`,
//! `Point::scalar_mul_reference`) perform one field inversion per group
//! operation and are kept precisely so these tests can pin the
//! inversion-free Jacobian arithmetic and the wNAF, comb and Shamir scalar
//! multiplication to an obviously-correct baseline on random inputs. The
//! limb kernels (field and scalar products, field addition and
//! subtraction, the safegcd inverter and the square-root chain) are pinned
//! to the generic `U256` modular arithmetic the interpreter uses, which
//! shares no code with them. The per-signer comb check is pinned to
//! recover-and-compare, the check it replaces.

use proptest::prelude::*;
use tinyevm_crypto::keccak256;
use tinyevm_crypto::secp256k1::{
    point, verify_batch, BatchItem, FieldElement, JacobianPoint, Point, PrivateKey, PublicKey,
    Scalar, Signature, VerifyingKey, CURVE_ORDER, FIELD_PRIME,
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

/// [`arb_field_operand`] with zero, which has no inverse, mapped to one.
fn arb_nonzero_field_operand() -> impl Strategy<Value = FieldElement> {
    arb_field_operand().prop_map(|a| if a.is_zero() { FieldElement::ONE } else { a })
}

/// [`arb_scalar_operand`] with zero, which has no inverse, mapped to one.
fn arb_nonzero_scalar_operand() -> impl Strategy<Value = Scalar> {
    arb_scalar_operand().prop_map(|a| if a.is_zero() { Scalar::ONE } else { a })
}

/// A random finite curve point, via the (separately cross-checked)
/// fixed-base table.
fn arb_point() -> impl Strategy<Value = Point> {
    arb_nonzero_scalar().prop_map(|k| point::generator_mul(k).to_affine())
}

/// Scalars the comb walks treat specially: 0, 1, `n − 1`, `2^255` (the
/// highest bit of both combs' top teeth), and scalars whose bits lie only
/// in the first column a walk reads: column 51 of a key's 5-tooth comb
/// (bits 51, 103, 155 and 207) and column 25 of the generator's 10-tooth
/// comb (bits 25, 51, …, 233). The generator's top tooth holds only bits
/// 234 to 255, so its lowest bit, and all of its bits together, are edges
/// too.
fn comb_edge_scalars() -> Vec<Scalar> {
    let any_of = |bits: &[u32]| {
        bits.iter()
            .fold(U256::ZERO, |acc, &bit| acc | U256::ONE.shl(bit))
    };
    let key_first_column = [51, 103, 155, 207];
    let generator_first_column: Vec<u32> = (25..256).step_by(26).collect();
    [
        U256::ZERO,
        U256::ONE,
        CURVE_ORDER.wrapping_sub(U256::ONE),
        U256::ONE.shl(255),
        U256::ONE.shl(key_first_column[0]),
        U256::ONE.shl(key_first_column[3]),
        any_of(&key_first_column),
        U256::ONE.shl(233),
        any_of(&generator_first_column),
        U256::ONE.shl(234),
        U256::MAX.shl(234),
    ]
    .map(Scalar::new)
    .to_vec()
}

/// Every mutation of a genuine signature over `digest` that the per-signer
/// check must judge exactly as recovery does, labelled for failure
/// messages. `other` is another key's signature over the same digest.
fn mutations(
    digest: [u8; 32],
    genuine: Signature,
    other: Signature,
    flipped_bit: usize,
) -> Vec<(&'static str, [u8; 32], Signature)> {
    let (r, s, v) = (genuine.r, genuine.s, genuine.recovery_id);
    let (n, one) = (CURVE_ORDER, U256::ONE);
    let p_minus_n = FIELD_PRIME.wrapping_sub(n);
    let mut flipped = digest;
    flipped[flipped_bit / 8] ^= 1 << (flipped_bit % 8);
    let cases = [
        ("genuine", r, s, v),
        ("flipped v", r, s, v ^ 1),
        ("v = 2", r, s, 2),
        ("r + 1", r.wrapping_add(one), s, v),
        ("r - 1", r.wrapping_sub(one), s, v),
        ("s + 1", r, s.wrapping_add(one), v),
        ("s - 1", r, s.wrapping_sub(one), v),
        ("n - s", r, n.wrapping_sub(s), v),
        ("n - s, flipped v", r, n.wrapping_sub(s), v ^ 1),
        ("r = 0", U256::ZERO, s, v),
        ("r = n", n, s, v),
        ("s = 0", r, U256::ZERO, v),
        ("s = n", r, n, v),
        // Both parities of the lifted nonce, whatever the genuine one was.
        ("r = n - 1", n.wrapping_sub(one), s, v),
        ("r = n - 1, flipped v", n.wrapping_sub(one), s, v ^ 1),
        ("r = p - n", p_minus_n, s, v),
        ("r = p - n, flipped v", p_minus_n, s, v ^ 1),
    ];
    let mut all: Vec<_> = cases
        .into_iter()
        .map(|(label, r, s, recovery_id)| (label, digest, Signature { r, s, recovery_id }))
        .collect();
    all.push(("bit-flipped digest", flipped, genuine));
    all.push(("another key's signature", digest, other));
    all
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

    /// Subtraction is checked as `a + (p − b)`, computed by the generic
    /// `ADDMOD` too.
    #[test]
    fn field_add_sub_match_generic_addmod(a in arb_field_operand(), b in arb_field_operand()) {
        let (x, y) = (a.to_u256(), b.to_u256());
        prop_assert_eq!(a.add(b).to_u256(), x.add_mod(y, FIELD_PRIME));
        let minus_y = FIELD_PRIME.wrapping_sub(y);
        prop_assert_eq!(a.sub(b).to_u256(), x.add_mod(minus_y, FIELD_PRIME));
    }

    #[test]
    fn field_invert_matches_generic_pow(a in arb_nonzero_field_operand()) {
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
    fn scalar_invert_matches_generic_pow_mod(a in arb_nonzero_scalar_operand()) {
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
    fn comb_walk_matches_reference_sum(u1 in arb_scalar_operand(), u2 in arb_scalar_operand(), q in arb_point()) {
        let fast = point::double_scalar_mul_comb(u1, u2, &point::CombTable::new(&q)).to_affine();
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

    /// The per-signer comb check accepts exactly what recover-and-compare
    /// accepts: random keys and digests, and every mutation in
    /// [`mutations`]. Recovery is the oracle; the expected outcomes of the
    /// mutations it is known to accept or reject are pinned as well.
    #[test]
    fn verify_recoverable_agrees_with_recover_and_compare(
        seed in any::<u64>(),
        digest in arb_u256(),
        flipped_bit in 0usize..256,
    ) {
        let key = PrivateKey::from_seed(&seed.to_be_bytes());
        let other = PrivateKey::from_seed(&seed.wrapping_add(1).to_be_bytes());
        let verifier = VerifyingKey::new(key.public_key());
        let digest = digest.to_be_bytes();
        let genuine = key.sign_prehashed(&digest);
        for (label, digest, signature) in
            mutations(digest, genuine, other.sign_prehashed(&digest), flipped_bit)
        {
            let recovered = signature.recover(&digest) == Ok(key.public_key());
            prop_assert!(
                verifier.verify_recoverable(&digest, &signature) == recovered,
                "{}: recovery says {}, {:?}",
                label,
                recovered,
                signature
            );
            let pinned = match label {
                "genuine" | "n - s, flipped v" => Some(true),
                "v = 2" => Some(genuine.recovery_id == 0),
                "flipped v" | "n - s" | "another key's signature" => Some(false),
                "r = 0" | "r = n" | "s = 0" | "s = n" => Some(false),
                _ => None,
            };
            if let Some(expected) = pinned {
                prop_assert!(recovered == expected, "{}: recovery says {}", label, recovered);
            }
        }
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

/// The comb walk on every pair of edge scalars, against the generator and
/// another point. With `q = G` both combs add the same entry in the same
/// column (the mixed addition's doubling case), and `u2 = n − u1` sums to
/// the identity.
#[test]
fn comb_walk_matches_reference_on_edge_scalars() {
    let g = Point::generator();
    let other = g.scalar_mul(Scalar::new(U256::from(0xc0ffee_u64)));
    let edges = comb_edge_scalars();
    for q in [g, other] {
        let comb = point::CombTable::new(&q);
        let reference: Vec<(Point, Point)> = edges
            .iter()
            .map(|k| (g.scalar_mul_reference(*k), q.scalar_mul_reference(*k)))
            .collect();
        for (u1, (u1_g, _)) in edges.iter().zip(&reference) {
            for (u2, (_, u2_q)) in edges.iter().zip(&reference) {
                let fast = point::double_scalar_mul_comb(*u1, *u2, &comb).to_affine();
                assert_eq!(fast, u1_g.add(u2_q), "u1 {u1:?}, u2 {u2:?}");
            }
        }
    }
    let g_comb = point::CombTable::new(&g);
    for u in &edges {
        let cancel = point::double_scalar_mul_comb(*u, u.negate(), &g_comb);
        assert!(cancel.is_infinity(), "u {u:?}");
    }
}

/// The generator's comb walk on every edge scalar, against the reference.
#[test]
fn generator_mul_matches_reference_on_edge_scalars() {
    let g = Point::generator();
    for k in comb_edge_scalars() {
        assert_eq!(
            point::generator_mul(k).to_affine(),
            g.scalar_mul_reference(k),
            "k {k:?}"
        );
    }
}

/// A nonce point whose x lies in `[n, p)`: plain ECDSA reduces x to
/// `r = x − n` and accepts, but recovery lifts the nonce from `x = r`,
/// reaches another point and another key. The per-signer check must
/// side with recovery.
#[test]
fn verify_recoverable_rejects_a_nonce_x_above_the_order() {
    let (nonce, r) = (1u64..)
        .find_map(|t| {
            let x = CURVE_ORDER.wrapping_add(U256::from(t));
            Point::from_x(x, false).ok().map(|p| (p, U256::from(t)))
        })
        .expect("some x in [n, p) is on the curve");
    let s = Scalar::new(U256::from(0x1234_5678u64));
    let digest = keccak256(b"nonce x above the order");
    let z = Scalar::from_bytes(&digest);
    // The key for which (r, s) is valid with this nonce: Q = r⁻¹(s·R − z·G).
    let q = nonce
        .scalar_mul(s)
        .add(&Point::generator().scalar_mul(z).negate())
        .scalar_mul(Scalar::new(r).invert());
    let key = PublicKey::from_point(q).unwrap();
    let verifier = VerifyingKey::new(key);
    for recovery_id in [0, 1] {
        let signature = Signature {
            r,
            s: s.to_u256(),
            recovery_id,
        };
        assert!(key.verify_prehashed(&digest, &signature));
        assert_ne!(signature.recover(&digest), Ok(key));
        assert!(!verifier.verify_recoverable(&digest, &signature));
    }
}
