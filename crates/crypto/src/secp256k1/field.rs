//! Arithmetic in the secp256k1 base field GF(p), `p = 2^256 - 2^32 - 977`.
//!
//! Multiplication works on the four 64-bit limbs directly: a 16-product
//! schoolbook `mul_wide` (or a 10-product `square_wide` for squares)
//! forms the 512-bit product, and the reduction folds its high half back in
//! with the identity `2^256 ≡ 2^32 + 977 (mod p)`. Because that constant
//! fits in one limb, the fold is four limb products; the ≤34-bit carry it
//! leaves folds once more, and a single conditional subtraction makes the
//! result canonical. Addition and subtraction are limb carry chains whose
//! final correction is a mask, not a branch. Inversion is the
//! variable-time safegcd inverter in `modinv`, which the point formulas
//! above this layer need only once per normalization; the square root
//! keeps a hard-coded addition chain for its fixed exponent `(p + 1)/4`.
//! [`FieldElement::batch_invert`] shares one inversion across many elements
//! (Montgomery's trick) for table normalization.

use super::modinv;
use super::FIELD_PRIME;
use tinyevm_types::U256;

/// `2^256 − p = 2^32 + 977`: the one-limb constant the high half of a
/// product folds in with.
const REDUCTION_CONSTANT: u64 = 0x1_0000_03D1;

/// An element of the secp256k1 base field GF(p).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldElement(pub(crate) U256);

impl FieldElement {
    /// The additive identity.
    pub const ZERO: FieldElement = FieldElement(U256::ZERO);
    /// The multiplicative identity.
    pub const ONE: FieldElement = FieldElement(U256::ONE);

    /// Reduces an arbitrary 256-bit value into the field.
    pub fn new(value: U256) -> Self {
        if value >= FIELD_PRIME {
            FieldElement(value.wrapping_sub(FIELD_PRIME))
        } else {
            FieldElement(value)
        }
    }

    /// The canonical representative in `[0, p)`.
    pub fn to_u256(self) -> U256 {
        self.0
    }

    /// Returns `true` for the zero element.
    pub fn is_zero(&self) -> bool {
        self.0.is_zero()
    }

    /// Returns `true` if the canonical representative is odd.
    pub fn is_odd(&self) -> bool {
        self.0.bit(0)
    }

    /// Field addition: a limb carry chain, then a subtraction of `p` under
    /// a mask.
    #[inline]
    pub fn add(self, rhs: FieldElement) -> FieldElement {
        let (a, b) = (self.0.limbs(), rhs.0.limbs());
        let mut sum = [0u64; 4];
        let mut carry = 0;
        for i in 0..4 {
            (sum[i], carry) = adc(a[i], b[i], carry);
        }
        FieldElement(canonical(sum, carry, [REDUCTION_CONSTANT, 0, 0, 0]))
    }

    /// Field subtraction: a limb borrow chain, then `p` added back under a
    /// mask. After a borrow the wrapped difference is `a − b + 2^256`, and
    /// adding `p` is subtracting `2^256 − p` from it, which cannot borrow
    /// again because `a − b + 2^256 > 2^256 − p`.
    #[inline]
    pub fn sub(self, rhs: FieldElement) -> FieldElement {
        let (a, b) = (self.0.limbs(), rhs.0.limbs());
        let mut diff = [0u64; 4];
        let mut borrow = 0;
        for i in 0..4 {
            (diff[i], borrow) = sbb(a[i], b[i], borrow);
        }
        let correction = [REDUCTION_CONSTANT & borrow.wrapping_neg(), 0, 0, 0];
        borrow = 0;
        for i in 0..4 {
            (diff[i], borrow) = sbb(diff[i], correction[i], borrow);
        }
        FieldElement(U256::from_limbs(diff))
    }

    /// Field negation.
    pub fn negate(self) -> FieldElement {
        if self.is_zero() {
            self
        } else {
            FieldElement(FIELD_PRIME.wrapping_sub(self.0))
        }
    }

    /// Doubling, `2a` — cheaper to name than `a.add(a)` in point formulas.
    pub fn double(self) -> FieldElement {
        self.add(self)
    }

    /// Field multiplication: a limb-level 512-bit product folded with
    /// `2^256 ≡ 2^32 + 977 (mod p)`.
    #[inline]
    pub fn mul(self, rhs: FieldElement) -> FieldElement {
        reduce(mul_wide(self.0.limbs(), rhs.0.limbs()))
    }

    /// Field squaring, with the dedicated 10-product `square_wide`.
    #[inline]
    pub fn square(self) -> FieldElement {
        reduce(square_wide(self.0.limbs()))
    }

    /// `n` successive squarings: `self^(2^n)`.
    fn sqn(self, n: u32) -> FieldElement {
        let mut result = self;
        for _ in 0..n {
            result = result.square();
        }
        result
    }

    /// Multiplicative inverse, by the variable-time safegcd inverter.
    ///
    /// # Panics
    ///
    /// Panics if called on zero, which has no inverse; callers guard against
    /// it (point arithmetic never inverts zero denominators).
    pub fn invert(self) -> FieldElement {
        assert!(!self.is_zero(), "attempted to invert zero field element");
        FieldElement(U256::from_limbs(modinv::invert(
            self.0.limbs(),
            &modinv::FIELD,
        )))
    }

    /// Exponentiation by squaring (generic, variable exponent).
    pub fn pow(self, exponent: U256) -> FieldElement {
        let mut result = FieldElement::ONE;
        let mut base = self;
        let bits = exponent.bits();
        for i in 0..bits {
            if exponent.bit(i as usize) {
                result = result.mul(base);
            }
            base = base.square();
        }
        result
    }

    /// Square root for `p ≡ 3 (mod 4)`: `a^((p+1)/4)`, computed with a
    /// fixed addition chain for that exponent (223 one-bits then the 31-bit
    /// tail `0x3FFF_FF0C`), in which `x_k` denotes `a^(2^k − 1)`.
    ///
    /// Returns `None` if the element is not a quadratic residue.
    pub fn sqrt(self) -> Option<FieldElement> {
        if self.is_zero() {
            return Some(self);
        }
        let x1 = self;
        let x2 = x1.sqn(1).mul(x1);
        let x3 = x2.sqn(1).mul(x1);
        let x6 = x3.sqn(3).mul(x3);
        let x9 = x6.sqn(3).mul(x3);
        let x11 = x9.sqn(2).mul(x2);
        let x22 = x11.sqn(11).mul(x11);
        let x44 = x22.sqn(22).mul(x22);
        let x88 = x44.sqn(44).mul(x44);
        let x176 = x88.sqn(88).mul(x88);
        let x220 = x176.sqn(44).mul(x44);
        let x223 = x220.sqn(3).mul(x3);
        // Tail bits of (p + 1)/4 below the 223-one run: 0
        // 1111111111111111111111 000011 00.
        let candidate = x223.sqn(23).mul(x22).sqn(6).mul(x2).sqn(2);
        if candidate.square() == self {
            Some(candidate)
        } else {
            None
        }
    }

    /// Inverts every element in place, sharing a single field inversion
    /// across the whole slice (Montgomery's trick): one prefix-product
    /// sweep, one inversion, one suffix sweep — `3(k-1)` multiplications
    /// plus one `invert` instead of `k` inversions. This is what makes
    /// normalizing a Jacobian precomputation table to affine cheap.
    ///
    /// # Panics
    ///
    /// Panics if any element is zero.
    pub fn batch_invert(elements: &mut [FieldElement]) {
        let values = elements.to_vec();
        Self::batch_invert_into(&values, elements);
    }

    /// [`FieldElement::batch_invert`] into a separate slice:
    /// `inverses[i] = elements[i]⁻¹`. `inverses` also holds the prefix
    /// products on the way, so the call allocates nothing, and a
    /// fixed-size table normalizes on the stack.
    ///
    /// # Panics
    ///
    /// Panics if any element is zero or the slices differ in length.
    pub(crate) fn batch_invert_into(elements: &[FieldElement], inverses: &mut [FieldElement]) {
        assert_eq!(elements.len(), inverses.len(), "one inverse per element");
        if elements.is_empty() {
            return;
        }
        // inverses[i] = elements[0] * ... * elements[i]
        let mut acc = FieldElement::ONE;
        for (element, prefix) in elements.iter().zip(inverses.iter_mut()) {
            assert!(!element.is_zero(), "attempted to invert zero field element");
            acc = acc.mul(*element);
            *prefix = acc;
        }
        // Invert the grand product once, then peel one element per step.
        let mut inv = acc.invert();
        for i in (1..elements.len()).rev() {
            inverses[i] = inv.mul(inverses[i - 1]);
            inv = inv.mul(elements[i]);
        }
        inverses[0] = inv;
    }
}

/// `a·b + acc + carry` as `(low, high)` limbs; the sum always fits in 128
/// bits.
#[inline(always)]
pub(super) fn mac(a: u64, b: u64, acc: u64, carry: u64) -> (u64, u64) {
    let wide = u128::from(a) * u128::from(b) + u128::from(acc) + u128::from(carry);
    (wide as u64, (wide >> 64) as u64)
}

/// `a + b + carry` as `(sum, carry out)`.
#[inline(always)]
pub(super) fn adc(a: u64, b: u64, carry: u64) -> (u64, u64) {
    let wide = u128::from(a) + u128::from(b) + u128::from(carry);
    (wide as u64, (wide >> 64) as u64)
}

/// `a − b − borrow` as `(difference, borrow out)`.
#[inline(always)]
fn sbb(a: u64, b: u64, borrow: u64) -> (u64, u64) {
    let wide = u128::from(a).wrapping_sub(u128::from(b) + u128::from(borrow));
    (wide as u64, (wide >> 127) as u64)
}

/// The 512-bit product of two little-endian 4-limb values (schoolbook, 16
/// limb products).
#[inline(always)]
pub(super) fn mul_wide(a: [u64; 4], b: [u64; 4]) -> [u64; 8] {
    let mut out = [0u64; 8];
    for i in 0..4 {
        let mut carry = 0;
        for j in 0..4 {
            (out[i + j], carry) = mac(a[i], b[j], out[i + j], carry);
        }
        out[i + 4] = carry;
    }
    out
}

/// The 512-bit square of a little-endian 4-limb value: the six cross
/// products once, doubled by a shift, plus the four diagonal squares — 10
/// limb products instead of 16.
#[inline(always)]
pub(super) fn square_wide(a: [u64; 4]) -> [u64; 8] {
    let mut out = [0u64; 8];
    for i in 0..3 {
        let mut carry = 0;
        for j in (i + 1)..4 {
            (out[i + j], carry) = mac(a[i], a[j], out[i + j], carry);
        }
        out[i + 4] = carry;
    }
    // The cross products sum to less than 2^511, so doubling cannot lose a
    // bit.
    let mut shifted_out = 0;
    for limb in out.iter_mut() {
        let top = *limb >> 63;
        *limb = (*limb << 1) | shifted_out;
        shifted_out = top;
    }
    let mut carry = 0;
    for i in 0..4 {
        let (low, high) = mac(a[i], a[i], out[2 * i], carry);
        out[2 * i] = low;
        (out[2 * i + 1], carry) = adc(out[2 * i + 1], high, 0);
    }
    out
}

/// Makes `r + carry·2^256`, a value below `2m` with `carry` 0 or 1,
/// canonical modulo `m = 2^256 − complement` with one subtraction of `m`
/// under a mask. The value is at least `m` exactly when a carry is pending
/// or `r + complement` overflows, and then that wrapped sum is the value
/// minus `m`. (A pending carry leaves `r` far too small for the sum to
/// overflow.)
#[inline(always)]
pub(super) fn canonical(r: [u64; 4], carry: u64, complement: [u64; 4]) -> U256 {
    let mut sum = [0u64; 4];
    let mut overflow = 0;
    for i in 0..4 {
        (sum[i], overflow) = adc(r[i], complement[i], overflow);
    }
    let take_sum = (carry | overflow).wrapping_neg();
    U256::from_limbs(std::array::from_fn(|i| r[i] ^ ((r[i] ^ sum[i]) & take_sum)))
}

/// Reduces a 512-bit product `lo + hi·2^256` modulo `p` as
/// `lo + hi·(2^32 + 977)`: one limb product per high limb leaves a carry
/// of at most 34 bits, which folds once more; what overflows that second
/// fold leaves the low limbs below `2^67`, so the conditional subtraction
/// in [`canonical`] finishes it.
#[inline(always)]
fn reduce(w: [u64; 8]) -> FieldElement {
    let mut r = [0u64; 4];
    let mut carry = 0;
    for i in 0..4 {
        (r[i], carry) = mac(w[i + 4], REDUCTION_CONSTANT, w[i], carry);
    }
    let (fold_lo, fold_hi) = mac(carry, REDUCTION_CONSTANT, 0, 0);
    (r[0], carry) = adc(r[0], fold_lo, 0);
    (r[1], carry) = adc(r[1], fold_hi, carry);
    (r[2], carry) = adc(r[2], 0, carry);
    (r[3], carry) = adc(r[3], 0, carry);
    FieldElement(canonical(r, carry, [REDUCTION_CONSTANT, 0, 0, 0]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinyevm_types::U512;

    #[test]
    fn reduce_folds_a_carry_out_of_the_second_fold() {
        // The first fold of 2^512 − 1 leaves low limbs within 2^67 of
        // 2^256, so folding its carry overflows once more — a path products
        // of canonical elements essentially never take.
        let wide = [u64::MAX; 8];
        let expected = U512::from_limbs(wide).rem_u256(FIELD_PRIME);
        assert_eq!(reduce(wide).to_u256(), expected);
    }
}
