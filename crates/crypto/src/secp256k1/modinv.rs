//! Modular inversion by safegcd (Bernstein and Yang, "Fast constant-time
//! gcd computation and modular inversion", TCHES 2019), ported from
//! libsecp256k1's variable-time `modinv64_var`. One inverter serves both
//! moduli: [`FIELD`] for `p` and [`ORDER`] for `n`.
//!
//! Values live in five signed 62-bit limbs ([`Signed62`]). Each round runs
//! 62 divsteps on the low limbs of `f` and `g` alone, as a 2×2 transition
//! matrix scaled by `2^62`, then applies the matrix to the full `f`, `g`
//! and to the Bézout coefficients `d`, `e`, whose updates add the multiple
//! of the modulus that makes their low 62 bits vanish. Once `g` reaches
//! zero, `f = ±1` and `±d` is the inverse. A 256-bit input takes about ten
//! rounds.
//!
//! The number of rounds and the steps inside them depend on the input, so
//! the running time does too.

/// The low 62 bits of a limb.
const M62: u64 = u64::MAX >> 2;

/// A value `Σ v[i]·2^(62·i)` in five signed limbs. Canonical values have
/// every limb in `[0, 2^62)` (the top one below `2^8`); intermediate ones
/// may carry signs and a top limb of any size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Signed62([i64; 5]);

impl Signed62 {
    /// Splits four little-endian 64-bit limbs into canonical 62-bit ones.
    fn from_limbs(a: [u64; 4]) -> Signed62 {
        Signed62(
            [
                a[0],
                a[0] >> 62 | a[1] << 2,
                a[1] >> 60 | a[2] << 4,
                a[2] >> 58 | a[3] << 6,
                a[3] >> 56,
            ]
            .map(|limb| (limb & M62) as i64),
        )
    }

    /// Joins canonical 62-bit limbs back into four 64-bit ones.
    fn to_limbs(self) -> [u64; 4] {
        let [a0, a1, a2, a3, a4] = self.0.map(|limb| limb as u64);
        [
            a0 | a1 << 62,
            a1 >> 2 | a2 << 60,
            a2 >> 4 | a3 << 58,
            a3 >> 6 | a4 << 56,
        ]
    }
}

/// An odd modulus below `2^256`, with its inverse modulo `2^62` for the
/// Bézout updates.
pub(super) struct Modulus {
    limbs: Signed62,
    inv62: u64,
}

/// `p = 2^256 − (2^32 + 977)`: one negative low limb and `2^8` on top.
pub(super) const FIELD: Modulus = Modulus {
    limbs: Signed62([-0x1_0000_03D1, 0, 0, 0, 256]),
    inv62: 0x27C7_F6E2_2DDA_CACF,
};

/// `n`, the group order.
pub(super) const ORDER: Modulus = Modulus {
    limbs: Signed62([0x3FD2_5E8C_D036_4141, 0x2ABB_739A_BD22_80EE, -0x15, 0, 256]),
    inv62: 0x34F2_0099_AA77_4EC1,
};

/// The transition matrix `[[u, v], [q, r]]` of 62 divsteps: it maps the
/// `(f, g)` they started from to `2^62·(f, g)` after them.
struct Transition {
    u: i64,
    v: i64,
    q: i64,
    r: i64,
}

/// The inverse of `value` modulo `modulus`, both as little-endian 64-bit
/// limbs; `value` must be non-zero and below the modulus.
pub(super) fn invert(value: [u64; 4], modulus: &Modulus) -> [u64; 4] {
    let mut d = Signed62([0; 5]);
    let mut e = Signed62([1, 0, 0, 0, 0]);
    let mut f = modulus.limbs;
    let mut g = Signed62::from_limbs(value);
    // eta = −delta, and delta starts at 1.
    let mut eta = -1;
    let mut len = 5;
    loop {
        let (next_eta, t) = divsteps_62(eta, f.0[0] as u64, g.0[0] as u64);
        eta = next_eta;
        update_de(&mut d, &mut e, &t, modulus);
        update_fg(len, &mut f, &mut g, &t);
        if g.0[..len].iter().all(|&limb| limb == 0) {
            break;
        }
        // Once the top limbs of f and g are both 0 or −1, fold their sign
        // into the limb below and stop multiplying by them.
        let (top_f, top_g) = (f.0[len - 1], g.0[len - 1]);
        if len > 1 && (top_f ^ (top_f >> 63)) | (top_g ^ (top_g >> 63)) == 0 {
            f.0[len - 2] |= ((top_f as u64) << 62) as i64;
            g.0[len - 2] |= ((top_g as u64) << 62) as i64;
            len -= 1;
        }
    }
    // g = 0 leaves f = ±gcd = ±1, so d is ± the inverse.
    normalize(&mut d, f.0[len - 1], modulus);
    d.to_limbs()
}

/// Runs 62 divsteps on the low 64 bits `f0` (odd) and `g0` of `f` and
/// `g`, skipping runs of even `g` in one shift and cancelling up to six
/// low bits of `g` per odd step. Returns the new `eta` and the matrix.
fn divsteps_62(mut eta: i64, f0: u64, g0: u64) -> (i64, Transition) {
    let (mut u, mut v, mut q, mut r) = (1u64, 0u64, 0u64, 1u64);
    let (mut f, mut g) = (f0, g0);
    let mut remaining = 62;
    loop {
        // A sentinel bit stops the zero count at the steps left.
        let zeros = (g | u64::MAX << remaining).trailing_zeros();
        g >>= zeros;
        u <<= zeros;
        v <<= zeros;
        eta -= i64::from(zeros);
        remaining -= zeros;
        if remaining == 0 {
            break;
        }
        // f and g are both odd here. Cancel as many low bits of g as the
        // steps left and eta allow: past eta + 1 its sign would flip.
        let w;
        if eta < 0 {
            eta = -eta;
            (f, g) = (g, f.wrapping_neg());
            (u, q) = (q, u.wrapping_neg());
            (v, r) = (r, v.wrapping_neg());
            let limit = (eta + 1).min(i64::from(remaining)) as u32;
            let mask = (u64::MAX >> (64 - limit)) & 63;
            // −g/f mod 64, as f·g·(f² − 2).
            w = f
                .wrapping_mul(g)
                .wrapping_mul(f.wrapping_mul(f).wrapping_sub(2))
                & mask;
        } else {
            let limit = (eta + 1).min(i64::from(remaining)) as u32;
            let mask = (u64::MAX >> (64 - limit)) & 15;
            // −g/f mod 16, with f⁻¹ mod 16 as f + ((f + 1) & 4)·2.
            let f_inv = f.wrapping_add((f.wrapping_add(1) & 4) << 1);
            w = f_inv.wrapping_neg().wrapping_mul(g) & mask;
        }
        g = g.wrapping_add(f.wrapping_mul(w));
        q = q.wrapping_add(u.wrapping_mul(w));
        r = r.wrapping_add(v.wrapping_mul(w));
    }
    let t = Transition {
        u: u as i64,
        v: v as i64,
        q: q as i64,
        r: r as i64,
    };
    (eta, t)
}

/// `(d, e) ← (t·(d, e) + modulus·(md, me)) / 2^62`, with `md`, `me` chosen
/// to clear the low 62 bits and to keep both in `(−2·modulus, modulus)`.
fn update_de(d: &mut Signed62, e: &mut Signed62, t: &Transition, modulus: &Modulus) {
    let (u, v, q, r) = (
        i128::from(t.u),
        i128::from(t.v),
        i128::from(t.q),
        i128::from(t.r),
    );
    let m = modulus.limbs.0;
    // Start from [u, q] if d is negative, plus [v, r] if e is.
    let (sign_d, sign_e) = (d.0[4] >> 63, e.0[4] >> 63);
    let mut md = (t.u & sign_d) + (t.v & sign_e);
    let mut me = (t.q & sign_d) + (t.r & sign_e);
    let (d0, e0) = (i128::from(d.0[0]), i128::from(e.0[0]));
    let mut cd = u * d0 + v * e0;
    let mut ce = q * d0 + r * e0;
    // Correct md, me so the low 62 bits of the sums cancel.
    md -= (modulus
        .inv62
        .wrapping_mul(cd as u64)
        .wrapping_add(md as u64)
        & M62) as i64;
    me -= (modulus
        .inv62
        .wrapping_mul(ce as u64)
        .wrapping_add(me as u64)
        & M62) as i64;
    cd += i128::from(m[0]) * i128::from(md);
    ce += i128::from(m[0]) * i128::from(me);
    debug_assert!(cd as u64 & M62 == 0 && ce as u64 & M62 == 0);
    cd >>= 62;
    ce >>= 62;
    for i in 1..5 {
        let (di, ei) = (i128::from(d.0[i]), i128::from(e.0[i]));
        cd += u * di + v * ei + i128::from(m[i]) * i128::from(md);
        ce += q * di + r * ei + i128::from(m[i]) * i128::from(me);
        d.0[i - 1] = (cd as u64 & M62) as i64;
        e.0[i - 1] = (ce as u64 & M62) as i64;
        cd >>= 62;
        ce >>= 62;
    }
    d.0[4] = cd as i64;
    e.0[4] = ce as i64;
}

/// `(f, g) ← t·(f, g) / 2^62` over the low `len` limbs, the rest being
/// sign extension.
fn update_fg(len: usize, f: &mut Signed62, g: &mut Signed62, t: &Transition) {
    let (u, v, q, r) = (
        i128::from(t.u),
        i128::from(t.v),
        i128::from(t.q),
        i128::from(t.r),
    );
    let (f0, g0) = (i128::from(f.0[0]), i128::from(g.0[0]));
    let mut cf = u * f0 + v * g0;
    let mut cg = q * f0 + r * g0;
    debug_assert!(cf as u64 & M62 == 0 && cg as u64 & M62 == 0);
    cf >>= 62;
    cg >>= 62;
    for i in 1..len {
        let (fi, gi) = (i128::from(f.0[i]), i128::from(g.0[i]));
        cf += u * fi + v * gi;
        cg += q * fi + r * gi;
        f.0[i - 1] = (cf as u64 & M62) as i64;
        g.0[i - 1] = (cg as u64 & M62) as i64;
        cf >>= 62;
        cg >>= 62;
    }
    f.0[len - 1] = cf as i64;
    g.0[len - 1] = cg as i64;
}

/// Brings `d` from `(−2·modulus, modulus)` to canonical limbs in
/// `[0, modulus)`, negating it first when `sign` (the top limb of the
/// final `f`) is negative.
fn normalize(d: &mut Signed62, sign: i64, modulus: &Modulus) {
    let m = modulus.limbs.0;
    let mut r = d.0;
    let add = r[4] >> 63;
    let negate = sign >> 63;
    for (limb, m) in r.iter_mut().zip(m) {
        *limb = ((*limb + (m & add)) ^ negate) - negate;
    }
    carry(&mut r);
    let add = r[4] >> 63;
    for (limb, m) in r.iter_mut().zip(m) {
        *limb += m & add;
    }
    carry(&mut r);
    d.0 = r;
}

/// Moves each limb's bits above 62 into the next limb up.
fn carry(r: &mut [i64; 5]) {
    for i in 0..4 {
        r[i + 1] += r[i] >> 62;
        r[i] &= M62 as i64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::secp256k1::{CURVE_ORDER, FIELD_PRIME};
    use tinyevm_types::U256;

    #[test]
    fn each_modulus_is_its_prime_and_carries_its_inverse_mod_2_62() {
        for (modulus, prime) in [(&FIELD, FIELD_PRIME), (&ORDER, CURVE_ORDER)] {
            let low = modulus.limbs.0[0] as u64;
            assert_eq!(low.wrapping_mul(modulus.inv62) & M62, 1);
            let mut limbs = modulus.limbs.0;
            carry(&mut limbs);
            assert_eq!(Signed62(limbs).to_limbs(), prime.limbs());
        }
    }

    #[test]
    fn limb_conversions_round_trip() {
        let pattern = [
            0x0123_4567_89AB_CDEF,
            0xFEDC_BA98_7654_3210,
            0xC000_0000_0000_0003,
            0x8000_0000_0000_0001,
        ];
        for value in [
            [0; 4],
            [1, 0, 0, 0],
            [u64::MAX; 4],
            FIELD_PRIME.wrapping_sub(U256::ONE).limbs(),
            CURVE_ORDER.wrapping_sub(U256::ONE).limbs(),
            pattern,
        ] {
            let split = Signed62::from_limbs(value);
            assert!(split.0.iter().all(|&limb| (0..1 << 62).contains(&limb)));
            assert_eq!(split.to_limbs(), value);
        }
    }
}
