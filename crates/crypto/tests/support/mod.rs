//! The test oracle for scalar multiplication.

use tinyevm_crypto::secp256k1::{Point, Scalar};

/// `k·P` by affine double-and-add: the original implementation, one field
/// inversion per point operation, which shares nothing with the wNAF, comb
/// and Straus paths it checks but the affine `Point::add` and
/// `Point::double`.
pub fn scalar_mul_reference(point: &Point, scalar: Scalar) -> Point {
    let k = scalar.to_u256();
    let mut result = Point::INFINITY;
    if point.infinity {
        return result;
    }
    let mut addend = *point;
    for i in 0..k.bits() {
        if k.bit(i as usize) {
            result = result.add(&addend);
        }
        addend = addend.double();
    }
    result
}
