//! Property-based cross-checks of the fast secp256k1 paths against the
//! affine reference implementation and generic arithmetic.
//!
//! The affine formulas (`Point::add`, `Point::double`, and
//! [`support::scalar_mul_reference`], which lives only here) perform one
//! field inversion per group operation and are kept precisely so these
//! tests can pin the inversion-free Jacobian arithmetic and the wNAF, comb
//! and Shamir scalar multiplication to an obviously-correct baseline on
//! random inputs. The limb kernels (field and scalar products, field
//! addition, subtraction and halving, the safegcd inverter and the
//! square-root chain) are pinned to the generic `U256` modular arithmetic
//! the interpreter uses, which shares no code with them. The per-signer
//! comb check is pinned to recover-and-compare, the check it replaces.

mod support;

use proptest::prelude::*;
use support::scalar_mul_reference;
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

/// The scalar with exactly the given bits set.
fn bits_set(bits: impl IntoIterator<Item = u32>) -> U256 {
    bits.into_iter()
        .fold(U256::ZERO, |acc, bit| acc | U256::ONE.shl(bit))
}

/// Scalars the comb walks treat specially.
///
/// * 0, 1, `n − 1` and `2^255`, the lone top bit.
/// * `2^255 − 1`, whose every column mask is all ones wherever the teeth
///   reach below bit 255.
/// * The key's 7-tooth comb (teeth 37 bits apart): the first column a walk
///   reads, 36 (bits 36, 73, …, 221), and the last, 0, whose mask holds
///   all seven teeth (bits 0, 37, …, 222).
/// * The generator's two 10-tooth combs (teeth 26 bits apart) that
///   `generator_mul` walks in 13 columns: the first column it reads, 12,
///   in the low comb (bits 12, 38, …, 246) and in the high one (bits 25,
///   51, …, 233), and column 0 of both (bits 0, 13, 26, 39, …). The top
///   tooth holds bits 234 to 255, so its lowest bit, the high comb's share
///   of it (bit 247) and all of its bits are edges too.
/// * The generator's comb inside the check, whose first column is 25.
fn comb_edge_scalars() -> Vec<Scalar> {
    [
        U256::ZERO,
        U256::ONE,
        CURVE_ORDER.wrapping_sub(U256::ONE),
        U256::ONE.shl(255),
        U256::ONE.shl(255).wrapping_sub(U256::ONE),
        U256::ONE.shl(36),
        U256::ONE.shl(221),
        bits_set((36..256).step_by(37)),
        bits_set((0..256).step_by(37)),
        bits_set((12..256).step_by(26)),
        bits_set((25..256).step_by(26)),
        bits_set((0..256).step_by(13)),
        U256::ONE.shl(234),
        U256::ONE.shl(247),
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

    /// Halving against `a·2⁻¹`, with `2⁻¹ = (p + 1)/2` multiplied in by
    /// the generic `MULMOD`.
    #[test]
    fn field_half_matches_generic_mulmod(a in arb_field_operand()) {
        let inverse_of_two = FIELD_PRIME.wrapping_add(U256::ONE).shr(1);
        prop_assert_eq!(a.half().to_u256(), a.to_u256().mul_mod(inverse_of_two, FIELD_PRIME));
        prop_assert_eq!(a.half().double(), a);
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

    /// Doubling and mixed addition from a point with a non-trivial `Z`,
    /// against the affine reference: a generic pair, both `H = 0` branches
    /// (`P + P` doubles, `P + (−P)` is infinity) and infinity on either
    /// side.
    #[test]
    fn doubling_and_mixed_addition_match_affine(p in arb_point(), q in arb_point(), via in arb_point()) {
        // (p − via) + via by the full addition: p, with a non-trivial Z.
        let left = JacobianPoint::from_affine(&p.add(&via.negate()))
            .add(&JacobianPoint::from_affine(&via));
        prop_assert_eq!(left.to_affine(), p);
        prop_assert_eq!(left.double().to_affine(), p.double());
        let sum = left.add_affine(&q);
        prop_assert_eq!(sum.to_affine(), p.add(&q));
        prop_assert!(sum.is_on_curve());
        prop_assert_eq!(left.add_affine(&p).to_affine(), p.double());
        prop_assert!(left.add_affine(&p.negate()).is_infinity());
        prop_assert_eq!(left.add_affine(&Point::INFINITY), left);
        prop_assert_eq!(JacobianPoint::INFINITY.add_affine(&q).to_affine(), q);
        prop_assert!(JacobianPoint::INFINITY.double().is_infinity());
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
        prop_assert_eq!(p.scalar_mul(k), scalar_mul_reference(&p, k));
    }

    #[test]
    fn generator_mul_matches_reference(k in arb_scalar()) {
        prop_assert_eq!(
            point::generator_mul(k).to_affine(),
            scalar_mul_reference(&Point::generator(), k)
        );
    }

    #[test]
    fn shamir_matches_independent_scalar_muls(u1 in arb_scalar(), u2 in arb_scalar(), q in arb_point()) {
        let fast = point::double_scalar_mul_generator(u1, u2, &q).to_affine();
        let slow = scalar_mul_reference(&Point::generator(), u1)
            .add(&scalar_mul_reference(&q, u2));
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn comb_walk_matches_reference_sum(u1 in arb_scalar_operand(), u2 in arb_scalar_operand(), q in arb_point()) {
        let fast = point::double_scalar_mul_comb(u1, u2, &point::CombTable::new(&q)).to_affine();
        let slow = scalar_mul_reference(&Point::generator(), u1)
            .add(&scalar_mul_reference(&q, u2));
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
        let slow = scalar_mul_reference(&Point::generator(), k_gen)
            .add(&scalar_mul_reference(&p1, k1))
            .add(&scalar_mul_reference(&p2, k2));
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
            .map(|k| (scalar_mul_reference(&g, *k), scalar_mul_reference(&q, *k)))
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

/// The build of a key's 7-tooth comb, two teeth at a time in affine
/// additions, entry by entry against Jacobian subset sums of tooth bases
/// doubled by the affine reference. A walk reads one entry alone in its last column: the scalar
/// with bits `37·i` for the set bits `i` of mask `m` walks to entry `m − 1`
/// exactly.
#[test]
fn key_comb_entries_match_jacobian_subset_sums() {
    const TEETH: u32 = point::KEY_COMB_TEETH as u32;
    let g = Point::generator();
    for q in [g, g.scalar_mul(Scalar::new(U256::from(0xc0ffee_u64)))] {
        let comb = point::CombTable::new(&q);
        let mut bases = vec![q];
        for _ in 1..TEETH {
            let mut base = *bases.last().unwrap();
            for _ in 0..37 {
                base = base.double();
            }
            bases.push(base);
        }
        for mask in 1..(1u32 << TEETH) {
            let teeth = (0..TEETH).filter(|tooth| mask >> tooth & 1 == 1);
            let sum = teeth.clone().fold(JacobianPoint::INFINITY, |acc, tooth| {
                acc.add(&JacobianPoint::from_affine(&bases[tooth as usize]))
            });
            let column = Scalar::new(bits_set(teeth.map(|tooth| 37 * tooth)));
            let entry = point::double_scalar_mul_comb(Scalar::ZERO, column, &comb);
            assert_eq!(entry.to_affine(), sum.to_affine(), "mask {mask:#09b}");
        }
    }
}

/// Width-5 wNAF on fixed scalars, against the reference.
#[test]
fn wnaf_scalar_mul_matches_reference_on_seeds() {
    let g = Point::generator();
    for seed in [1u64, 2, 3, 0xdead_beef, u64::MAX] {
        let k = Scalar::new(U256::from_be_bytes(keccak256(&seed.to_be_bytes())));
        assert_eq!(g.scalar_mul(k), scalar_mul_reference(&g, k), "seed {seed}");
    }
}

/// The generator's two-comb walk on fixed scalars, 0 and 1, against the
/// reference.
#[test]
fn generator_mul_matches_reference_on_seeds() {
    let g = Point::generator();
    for seed in [1u64, 7, 16, 255, 0xffff_ffff_ffff_ffff] {
        let k = Scalar::new(U256::from_be_bytes(keccak256(&seed.to_le_bytes())));
        assert_eq!(
            point::generator_mul(k).to_affine(),
            scalar_mul_reference(&g, k),
            "seed {seed}"
        );
    }
    assert_eq!(
        point::generator_mul(Scalar::ZERO).to_affine(),
        Point::INFINITY
    );
    assert_eq!(point::generator_mul(Scalar::ONE).to_affine(), g);
}

/// One Straus pass on fixed scalar pairs, zeros included, against two
/// reference products.
#[test]
fn shamir_matches_reference_on_seeds() {
    let g = Point::generator();
    let q = g.scalar_mul(Scalar::new(U256::from(0xabcdefu64)));
    for (a, b) in [(5u64, 7u64), (0, 9), (11, 0), (u64::MAX, 1)] {
        let u1 = Scalar::new(U256::from_be_bytes(keccak256(&a.to_be_bytes())));
        let u2 = Scalar::new(U256::from_be_bytes(keccak256(&b.to_be_bytes())));
        let fast = point::double_scalar_mul_generator(u1, u2, &q).to_affine();
        let slow = scalar_mul_reference(&g, u1).add(&scalar_mul_reference(&q, u2));
        assert_eq!(fast, slow, "({a}, {b})");
    }
}

/// The generator's comb walk on every edge scalar, against the reference.
#[test]
fn generator_mul_matches_reference_on_edge_scalars() {
    let g = Point::generator();
    for k in comb_edge_scalars() {
        assert_eq!(
            point::generator_mul(k).to_affine(),
            scalar_mul_reference(&g, k),
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
