//! Arithmetic modulo the secp256k1 group order `n` (private keys, nonces,
//! signature components).
//!
//! The order satisfies `2^256 = n + C` with the 129-bit complement
//! `C = 2^256 − n`, so a 512-bit product reduces by folding its high part
//! back in as `hi·C` — limb by limb, three limb products per high limb, no
//! long division. Three folds shrink the high part from 256 bits to 130,
//! to 4, to at most a carry bit, and one conditional subtraction makes the
//! result canonical. Products and squares come from the same limb-level
//! `mul_wide`/`square_wide` the field layer uses, and inversion from the
//! same variable-time safegcd inverter (`modinv`).

use super::field::{adc, canonical, mac, mul_wide, square_wide};
use super::{modinv, CURVE_ORDER};
use tinyevm_types::U256;

/// `C = 2^256 − n`, the 129-bit fold constant for reduction modulo the
/// order, as little-endian limbs.
const ORDER_COMPLEMENT: [u64; 4] = [0x402D_A173_2FC9_BEBF, 0x4551_2319_50B7_5FC4, 1, 0];

/// The limbs of [`ORDER_COMPLEMENT`] below its zero top limb.
const COMPLEMENT_LIMBS: usize = 3;

/// A scalar modulo the curve order `n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scalar(pub(crate) U256);

impl Scalar {
    /// The zero scalar.
    pub const ZERO: Scalar = Scalar(U256::ZERO);
    /// The one scalar.
    pub const ONE: Scalar = Scalar(U256::ONE);

    /// Reduces an arbitrary 256-bit value modulo `n`.
    ///
    /// Any `U256` is below `2n` (because `n > 2^255`), so a single
    /// conditional subtraction fully reduces.
    pub fn new(value: U256) -> Self {
        if value >= CURVE_ORDER {
            Scalar(value.wrapping_sub(CURVE_ORDER))
        } else {
            Scalar(value)
        }
    }

    /// Builds a scalar from 32 big-endian bytes, reducing modulo `n`.
    pub fn from_bytes(bytes: &[u8; 32]) -> Self {
        Scalar::new(U256::from_be_bytes(*bytes))
    }

    /// The canonical representative in `[0, n)`.
    pub fn to_u256(self) -> U256 {
        self.0
    }

    /// Returns `true` for the zero scalar.
    pub fn is_zero(&self) -> bool {
        self.0.is_zero()
    }

    /// Scalar addition modulo `n`.
    pub fn add(self, rhs: Scalar) -> Scalar {
        let (sum, carry) = self.0.overflowing_add(rhs.0);
        if carry {
            // The true sum is 2^256 + sum ≡ sum + C, and since the operands
            // are below n, sum < 2^256 − 2C, so sum + C < n: fully reduced.
            Scalar(sum.wrapping_add(U256::from_limbs(ORDER_COMPLEMENT)))
        } else {
            Scalar::new(sum)
        }
    }

    /// Scalar multiplication modulo `n`: a limb-level 512-bit product,
    /// folded by the complement `2^256 − n`.
    #[inline]
    pub fn mul(self, rhs: Scalar) -> Scalar {
        reduce(mul_wide(self.0.limbs(), rhs.0.limbs()))
    }

    /// Scalar squaring, with the dedicated 10-product `square_wide`.
    #[inline]
    pub fn square(self) -> Scalar {
        reduce(square_wide(self.0.limbs()))
    }

    /// Scalar negation modulo `n`.
    pub fn negate(self) -> Scalar {
        if self.is_zero() {
            self
        } else {
            Scalar(CURVE_ORDER.wrapping_sub(self.0))
        }
    }

    /// Multiplicative inverse, by the variable-time safegcd inverter.
    ///
    /// # Panics
    ///
    /// Panics when called on zero.
    pub fn invert(self) -> Scalar {
        assert!(!self.is_zero(), "attempted to invert zero scalar");
        Scalar(U256::from_limbs(modinv::invert(
            self.0.limbs(),
            &modinv::ORDER,
        )))
    }

    /// Returns `true` when the scalar is greater than `n / 2` — used for the
    /// Ethereum low-s signature normalization.
    pub fn is_high(&self) -> bool {
        self.0 > CURVE_ORDER.shr(1)
    }
}

/// `lo + hi·C` for `C = 2^256 − n`, limb by limb: each high limb adds its
/// three limb products with `C` at its own offset, and the carry ripples
/// up through the accumulator.
#[inline(always)]
fn fold(lo: &[u64], hi: &[u64]) -> [u64; 8] {
    let mut acc = [0u64; 8];
    acc[..4].copy_from_slice(lo);
    for (i, &limb) in hi.iter().enumerate() {
        let mut carry = 0;
        for (j, &c) in ORDER_COMPLEMENT[..COMPLEMENT_LIMBS].iter().enumerate() {
            (acc[i + j], carry) = mac(limb, c, acc[i + j], carry);
        }
        for slot in &mut acc[i + COMPLEMENT_LIMBS..] {
            (*slot, carry) = adc(*slot, 0, carry);
        }
    }
    acc
}

/// Reduces a 512-bit product modulo the curve order with three folds of
/// the high part: below `2^386` (7 limbs), below `2^260` (5 limbs), then
/// below `2^256 + 2^133` (a carry bit), which one conditional subtraction
/// of `n` makes canonical.
#[inline(always)]
fn reduce(w: [u64; 8]) -> Scalar {
    let m = fold(&w[..4], &w[4..]);
    let m = fold(&m[..4], &m[4..7]);
    let m = fold(&m[..4], &m[4..5]);
    Scalar(canonical([m[0], m[1], m[2], m[3]], m[4], ORDER_COMPLEMENT))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinyevm_types::U512;

    #[test]
    fn reduce_folds_a_carry_out_of_the_third_fold() {
        // Built backwards from a second-fold result of 2^257 − 1, whose
        // third fold carries out of 256 bits — random products reach that
        // with probability about 2^-123.
        let wide = [
            0xCE4B_AE2C_C83A_24B7,
            0x803E_4AA9_906F_95D3,
            0x0000_0000_0000_0000,
            0x0000_0000_0000_0000,
            0x951D_884B_3ED3_98BF,
            0x04AB_B798_7120_E74B,
            0x90B6_E3CD_8D59_2676,
            0x9E87_383E_D50A_D6E2,
        ];
        let expected = U512::from_limbs(wide).rem_u256(CURVE_ORDER);
        assert_eq!(expected.to_hex(), "0x28aa24632a16ebf88805b42e65f937d7d");
        assert_eq!(reduce(wide).to_u256(), expected);
    }
}
