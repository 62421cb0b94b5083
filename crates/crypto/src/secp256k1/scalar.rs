//! Arithmetic modulo the secp256k1 group order `n` (private keys, nonces,
//! signature components).
//!
//! The order satisfies `2^256 = n + C` with the 129-bit complement
//! `C = 2^256 − n`, so a 512-bit product reduces by folding its high part
//! back in as `hi·C` — limb by limb, three limb products per high limb, no
//! long division. Three folds shrink the high part from 256 bits to 130,
//! to 4, to at most a carry bit, and one conditional subtraction makes the
//! result canonical. Products and squares come from the same limb-level
//! `mul_wide`/`square_wide` the field layer uses. Inversion uses a
//! fixed-exponent chain for `n − 2`: an addition-chain block for its
//! leading run of 127 one-bits, then plain square-and-multiply over the
//! remaining 129 (compile-time constant) bits.

use super::field::{adc, canonical, mac, mul_wide, square_wide};
use super::CURVE_ORDER;
use tinyevm_types::U256;

/// `C = 2^256 − n`, the 129-bit fold constant for reduction modulo the
/// order, as little-endian limbs.
const ORDER_COMPLEMENT: [u64; 4] = [0x402D_A173_2FC9_BEBF, 0x4551_2319_50B7_5FC4, 1, 0];

/// The limbs of [`ORDER_COMPLEMENT`] below its zero top limb.
const COMPLEMENT_LIMBS: usize = 3;

/// The low 129 bits of `n − 2` (everything below the leading run of 127
/// one-bits); bit 128 is zero.
const ORDER_MINUS_2_TAIL: U256 = U256::from_limbs([
    0xBFD2_5E8C_D036_413F,
    0xBAAE_DCE6_AF48_A03B,
    0x0000_0000_0000_0000,
    0x0000_0000_0000_0000,
]);

/// Number of bits in [`ORDER_MINUS_2_TAIL`] (including the zero bit 128).
const ORDER_TAIL_BITS: usize = 129;

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

    /// Multiplicative inverse via Fermat's little theorem (`a^(n-2)`).
    ///
    /// `n − 2` is a run of 127 one-bits followed by the fixed 129-bit tail
    /// `ORDER_MINUS_2_TAIL`; the run is built with a
    /// `1→2→3→6→12→24→48→96→120→126→127` addition chain and the tail is
    /// consumed by square-and-multiply over the compile-time constant — no
    /// bit-scan of a runtime exponent, and every multiply uses the fast
    /// fold reduction rather than 512÷256 division.
    ///
    /// # Panics
    ///
    /// Panics when called on zero.
    pub fn invert(self) -> Scalar {
        assert!(!self.is_zero(), "attempted to invert zero scalar");
        // u_k = self^(2^k - 1).
        let u1 = self;
        let u2 = u1.sqn(1).mul(u1);
        let u3 = u2.sqn(1).mul(u1);
        let u6 = u3.sqn(3).mul(u3);
        let u12 = u6.sqn(6).mul(u6);
        let u24 = u12.sqn(12).mul(u12);
        let u48 = u24.sqn(24).mul(u24);
        let u96 = u48.sqn(48).mul(u48);
        let u120 = u96.sqn(24).mul(u24);
        let u126 = u120.sqn(6).mul(u6);
        let u127 = u126.sqn(1).mul(u1);
        // Shift the 127-one block above the tail, multiplying the tail's set
        // bits in as they stream past.
        let mut result = u127;
        for i in (0..ORDER_TAIL_BITS).rev() {
            result = result.square();
            if ORDER_MINUS_2_TAIL.bit(i) {
                result = result.mul(u1);
            }
        }
        result
    }

    /// `n` successive squarings: `self^(2^n)`.
    fn sqn(self, n: u32) -> Scalar {
        let mut result = self;
        for _ in 0..n {
            result = result.square();
        }
        result
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
