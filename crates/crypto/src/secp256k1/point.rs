//! Curve points: the affine reference implementation and the fast Jacobian
//! projective paths.
//!
//! The affine [`Point`] formulas (one field inversion per add/double) are
//! retained verbatim from the original implementation as the
//! obviously-correct reference — [`Point::scalar_mul_reference`] is the old
//! double-and-add — and the property tests cross-check everything below
//! against them. Production traffic goes through [`JacobianPoint`]:
//!
//! * add/double are inversion-free (a = 0 short-Weierstrass formulas from
//!   the EFD: `dbl-2009-l`, `add-2007-bl`, `madd-2007-bl`);
//! * variable-base scalar multiplication uses width-5 wNAF over a table of
//!   odd multiples normalized to affine with one shared inversion
//!   (Montgomery's trick), so every table hit is a cheap mixed addition;
//! * [`multi_scalar_mul`] interleaves wNAF tracks for
//!   `k_G·G + Σ k_i·P_i` in a single doubling pass (Shamir/Straus), which
//!   is what ECDSA verification, recovery and batch verification ride on;
//! * a [`CombTable`] is a Lim–Lee comb (Lim and Lee, CRYPTO 1994) for one
//!   fixed point: with `t` teeth spaced `s = ⌈256/t⌉` bits apart, its
//!   `2^t − 1` affine subset sums of `2^(s·i)·P` turn a 256-bit scalar into
//!   `s` columns, walked with one doubling between neighbours;
//! * the generator has a 10-tooth comb (1,023 entries, ≈74 KB, built once
//!   behind a [`OnceLock`]), so [`generator_mul`] is 25 doublings and at
//!   most 26 mixed additions;
//! * any long-lived key can build a 5-tooth comb (31 entries, ≈2.2 KB,
//!   about half the cost of a recovery), and [`double_scalar_mul_comb`]
//!   evaluates `u1·G + u2·Q` on the key's 52 columns, adding the
//!   generator's entry in the low 26 of them — the check a channel runs on
//!   every signature after a peer's first.

use std::sync::OnceLock;

use super::field::FieldElement;
use super::scalar::Scalar;
use super::CryptoError;
use tinyevm_types::U256;

/// x-coordinate of the generator point G.
const GENERATOR_X: U256 = U256::from_limbs([
    0x59F2_815B_16F8_1798,
    0x029B_FCDB_2DCE_28D9,
    0x55A0_6295_CE87_0B07,
    0x79BE_667E_F9DC_BBAC,
]);

/// y-coordinate of the generator point G.
const GENERATOR_Y: U256 = U256::from_limbs([
    0x9C47_D08F_FB10_D4B8,
    0xFD17_B448_A685_5419,
    0x5DA4_FBFC_0E11_08A8,
    0x483A_DA77_26A3_C465,
]);

/// wNAF window width for variable-base and multi-scalar multiplication:
/// digits are odd in `[-15, 15]`, tables hold the 8 odd multiples.
const WNAF_WIDTH: u32 = 5;

/// Entries per wNAF table: the odd multiples `1P, 3P, …, 15P`.
const WNAF_TABLE: usize = 1 << (WNAF_WIDTH - 2);

/// Teeth of the generator's comb. Ten, spaced 26 bits apart: 1,023
/// entries make [`generator_mul`] 26 columns, and the generator half of
/// [`double_scalar_mul_comb`] fits in the low 26 of a key comb's 52.
const GENERATOR_COMB_TEETH: usize = 10;

/// Teeth of a key's [`CombTable`]. Five, not six: a sixth would make the
/// check ~13% cheaper but each table ~30% dearer to build, and a fleet
/// gateway builds one per sensor.
pub const KEY_COMB_TEETH: usize = 5;

// ---------------------------------------------------------------------------
// Affine points (the reference implementation)
// ---------------------------------------------------------------------------

/// A point on the secp256k1 curve in affine coordinates, or the point at
/// infinity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Point {
    /// x-coordinate; meaningless when `infinity` is true.
    pub x: FieldElement,
    /// y-coordinate; meaningless when `infinity` is true.
    pub y: FieldElement,
    /// Marker for the group identity.
    pub infinity: bool,
}

impl Point {
    /// The group identity (point at infinity).
    pub const INFINITY: Point = Point {
        x: FieldElement::ZERO,
        y: FieldElement::ZERO,
        infinity: true,
    };

    /// The standard generator point G.
    pub fn generator() -> Point {
        Point {
            x: FieldElement(GENERATOR_X),
            y: FieldElement(GENERATOR_Y),
            infinity: false,
        }
    }

    /// Builds an affine point, checking the curve equation.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidPublicKey`] if `(x, y)` does not satisfy
    /// `y² = x³ + 7`.
    pub fn from_affine(x: U256, y: U256) -> Result<Point, CryptoError> {
        let point = Point {
            x: FieldElement::new(x),
            y: FieldElement::new(y),
            infinity: false,
        };
        if point.is_on_curve() {
            Ok(point)
        } else {
            Err(CryptoError::InvalidPublicKey)
        }
    }

    /// Reconstructs a point from an x-coordinate and the parity of y
    /// (`odd = true` means the odd root); used by public-key recovery.
    pub fn from_x(x: U256, odd: bool) -> Result<Point, CryptoError> {
        let x = FieldElement::new(x);
        // y² = x³ + 7
        let rhs = x.square().mul(x).add(FieldElement::new(U256::from(7u64)));
        let mut y = rhs.sqrt().ok_or(CryptoError::InvalidSignature)?;
        if y.is_odd() != odd {
            y = y.negate();
        }
        Ok(Point {
            x,
            y,
            infinity: false,
        })
    }

    /// Checks the curve equation `y² = x³ + 7`.
    pub fn is_on_curve(&self) -> bool {
        if self.infinity {
            return true;
        }
        let lhs = self.y.square();
        let rhs = self
            .x
            .square()
            .mul(self.x)
            .add(FieldElement::new(U256::from(7u64)));
        lhs == rhs
    }

    /// Point doubling (affine reference: one field inversion).
    pub fn double(&self) -> Point {
        if self.infinity || self.y.is_zero() {
            return Point::INFINITY;
        }
        // lambda = 3x² / 2y
        let three = FieldElement::new(U256::from(3u64));
        let two = FieldElement::new(U256::from(2u64));
        let numerator = three.mul(self.x.square());
        let denominator = two.mul(self.y).invert();
        let lambda = numerator.mul(denominator);
        let x3 = lambda.square().sub(self.x).sub(self.x);
        let y3 = lambda.mul(self.x.sub(x3)).sub(self.y);
        Point {
            x: x3,
            y: y3,
            infinity: false,
        }
    }

    /// Point addition (affine reference: one field inversion).
    pub fn add(&self, other: &Point) -> Point {
        if self.infinity {
            return *other;
        }
        if other.infinity {
            return *self;
        }
        if self.x == other.x {
            if self.y == other.y {
                return self.double();
            }
            return Point::INFINITY;
        }
        let lambda = other.y.sub(self.y).mul(other.x.sub(self.x).invert());
        let x3 = lambda.square().sub(self.x).sub(other.x);
        let y3 = lambda.mul(self.x.sub(x3)).sub(self.y);
        Point {
            x: x3,
            y: y3,
            infinity: false,
        }
    }

    /// Point negation (mirror over the x-axis).
    pub fn negate(&self) -> Point {
        if self.infinity {
            return *self;
        }
        Point {
            x: self.x,
            y: self.y.negate(),
            infinity: false,
        }
    }

    /// Scalar multiplication — the fast path: width-5 wNAF over Jacobian
    /// coordinates with a batch-normalized odd-multiples table, one affine
    /// normalization at the end.
    pub fn scalar_mul(&self, scalar: Scalar) -> Point {
        if scalar.to_u256().is_zero() || self.infinity {
            return Point::INFINITY;
        }
        let table = WnafTable::new(self);
        let wnaf = Wnaf::new(scalar);
        let digits = wnaf.digits();
        let mut acc = JacobianPoint::INFINITY;
        for index in (0..digits.len()).rev() {
            acc = acc.double();
            acc = table.select_into(acc, digits[index]);
        }
        acc.to_affine()
    }

    /// Scalar multiplication by affine double-and-add — the original
    /// implementation, kept as the reference the property tests (and the
    /// before/after benches) compare the fast paths against. One field
    /// inversion per point operation; do not use on hot paths.
    pub fn scalar_mul_reference(&self, scalar: Scalar) -> Point {
        let k = scalar.to_u256();
        if k.is_zero() || self.infinity {
            return Point::INFINITY;
        }
        let mut result = Point::INFINITY;
        let mut addend = *self;
        let bits = k.bits();
        for i in 0..bits {
            if k.bit(i as usize) {
                result = result.add(&addend);
            }
            addend = addend.double();
        }
        result
    }

    /// Uncompressed SEC1 encoding without the `0x04` prefix (64 bytes:
    /// x ‖ y), the form Ethereum hashes to derive addresses.
    pub fn to_uncompressed(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        out[..32].copy_from_slice(&self.x.to_u256().to_be_bytes());
        out[32..].copy_from_slice(&self.y.to_u256().to_be_bytes());
        out
    }
}

// ---------------------------------------------------------------------------
// Jacobian projective points
// ---------------------------------------------------------------------------

/// A point in Jacobian projective coordinates: `(X, Y, Z)` represents the
/// affine point `(X/Z², Y/Z³)`; `Z = 0` is the point at infinity.
///
/// Additions and doublings are inversion-free; [`Self::to_affine`] pays the
/// single inversion at the end of a computation.
#[derive(Debug, Clone, Copy)]
pub struct JacobianPoint {
    /// Projective X; the affine x is `X/Z²`.
    pub(crate) x: FieldElement,
    /// Projective Y; the affine y is `Y/Z³`.
    pub(crate) y: FieldElement,
    /// The projective denominator; zero encodes the point at infinity.
    pub(crate) z: FieldElement,
}

impl JacobianPoint {
    /// The group identity (Z = 0).
    pub const INFINITY: JacobianPoint = JacobianPoint {
        x: FieldElement::ONE,
        y: FieldElement::ONE,
        z: FieldElement::ZERO,
    };

    /// Lifts an affine point (Z = 1).
    pub fn from_affine(point: &Point) -> JacobianPoint {
        if point.infinity {
            return JacobianPoint::INFINITY;
        }
        JacobianPoint {
            x: point.x,
            y: point.y,
            z: FieldElement::ONE,
        }
    }

    /// Returns `true` for the point at infinity.
    pub fn is_infinity(&self) -> bool {
        self.z.is_zero()
    }

    /// Normalizes back to affine coordinates — the one place an inversion
    /// is paid.
    pub fn to_affine(&self) -> Point {
        if self.is_infinity() {
            return Point::INFINITY;
        }
        self.to_affine_with(self.z.invert())
    }

    /// Normalizes a finite point whose `Z⁻¹` is already known.
    fn to_affine_with(self, z_inv: FieldElement) -> Point {
        let z_inv2 = z_inv.square();
        Point {
            x: self.x.mul(z_inv2),
            y: self.y.mul(z_inv2).mul(z_inv),
            infinity: false,
        }
    }

    /// Point negation.
    pub fn negate(&self) -> JacobianPoint {
        JacobianPoint {
            x: self.x,
            y: self.y.negate(),
            z: self.z,
        }
    }

    /// Checks the projective curve equation `Y² = X³ + 7·Z⁶` — no
    /// normalization (and hence no inversion) required.
    pub fn is_on_curve(&self) -> bool {
        if self.is_infinity() {
            return true;
        }
        let z2 = self.z.square();
        let z6 = z2.square().mul(z2);
        let lhs = self.y.square();
        let rhs = self
            .x
            .square()
            .mul(self.x)
            .add(FieldElement::new(U256::from(7u64)).mul(z6));
        lhs == rhs
    }

    /// Inversion-free doubling (`dbl-2009-l`, a = 0).
    pub fn double(&self) -> JacobianPoint {
        if self.is_infinity() || self.y.is_zero() {
            return JacobianPoint::INFINITY;
        }
        let a = self.x.square();
        let b = self.y.square();
        let c = b.square();
        // D = 2·((X + B)² − A − C)
        let d = self.x.add(b).square().sub(a).sub(c).double();
        let e = a.double().add(a); // 3·A
        let f = e.square();
        let x3 = f.sub(d.double());
        let y3 = e.mul(d.sub(x3)).sub(c.double().double().double()); // 8·C
        let z3 = self.y.mul(self.z).double();
        JacobianPoint {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Inversion-free full Jacobian addition (`add-2007-bl`).
    pub fn add(&self, other: &JacobianPoint) -> JacobianPoint {
        if self.is_infinity() {
            return *other;
        }
        if other.is_infinity() {
            return *self;
        }
        let z1z1 = self.z.square();
        let z2z2 = other.z.square();
        let u1 = self.x.mul(z2z2);
        let u2 = other.x.mul(z1z1);
        let s1 = self.y.mul(other.z).mul(z2z2);
        let s2 = other.y.mul(self.z).mul(z1z1);
        let h = u2.sub(u1);
        let r = s2.sub(s1).double();
        if h.is_zero() {
            if r.is_zero() {
                return self.double();
            }
            return JacobianPoint::INFINITY;
        }
        let i = h.double().square();
        let j = h.mul(i);
        let v = u1.mul(i);
        let x3 = r.square().sub(j).sub(v.double());
        let y3 = r.mul(v.sub(x3)).sub(s1.mul(j).double());
        let z3 = self.z.add(other.z).square().sub(z1z1).sub(z2z2).mul(h);
        JacobianPoint {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Mixed addition with an affine operand, `Z2 = 1` (`madd-2007-bl`) —
    /// three field multiplications cheaper than the full addition, which is
    /// why every precomputed table is normalized to affine.
    pub fn add_affine(&self, other: &Point) -> JacobianPoint {
        if other.infinity {
            return *self;
        }
        if self.is_infinity() {
            return JacobianPoint::from_affine(other);
        }
        let z1z1 = self.z.square();
        let u2 = other.x.mul(z1z1);
        let s2 = other.y.mul(self.z).mul(z1z1);
        let h = u2.sub(self.x);
        let r = s2.sub(self.y).double();
        if h.is_zero() {
            if r.is_zero() {
                return self.double();
            }
            return JacobianPoint::INFINITY;
        }
        let hh = h.square();
        let i = hh.double().double(); // 4·HH
        let j = h.mul(i);
        let v = self.x.mul(i);
        let x3 = r.square().sub(j).sub(v.double());
        let y3 = r.mul(v.sub(x3)).sub(self.y.mul(j).double());
        let z3 = self.z.add(h).square().sub(z1z1).sub(hh);
        JacobianPoint {
            x: x3,
            y: y3,
            z: z3,
        }
    }
}

impl PartialEq for JacobianPoint {
    /// Projective equality: compares the underlying affine points by
    /// cross-multiplying denominators (no inversion).
    fn eq(&self, other: &JacobianPoint) -> bool {
        match (self.is_infinity(), other.is_infinity()) {
            (true, true) => return true,
            (false, false) => {}
            _ => return false,
        }
        let z1z1 = self.z.square();
        let z2z2 = other.z.square();
        if self.x.mul(z2z2) != other.x.mul(z1z1) {
            return false;
        }
        self.y.mul(other.z).mul(z2z2) == other.y.mul(self.z).mul(z1z1)
    }
}

impl Eq for JacobianPoint {}

// ---------------------------------------------------------------------------
// wNAF and precomputed tables
// ---------------------------------------------------------------------------

/// Width-5 non-adjacent form: little-endian digits, each zero or odd in
/// `[-15, 15]`, at most one non-zero digit in any 5-bit window. Cuts the
/// expected additions per 256-bit scalar from ~128 (double-and-add) to ~43.
/// A scalar below `2^256` has at most 257 digits; they live inline, so a
/// recoding allocates nothing.
struct Wnaf {
    digits: [i8; 257],
    len: usize,
}

impl Wnaf {
    fn new(scalar: Scalar) -> Wnaf {
        let mut k = scalar.to_u256();
        let radix = 1u64 << WNAF_WIDTH;
        let half = 1u64 << (WNAF_WIDTH - 1);
        let mut wnaf = Wnaf {
            digits: [0; 257],
            len: 0,
        };
        while !k.is_zero() {
            if k.bit(0) {
                let word = k.low_u64() & (radix - 1);
                if word >= half {
                    // Negative digit; borrow from the bits above.
                    wnaf.digits[wnaf.len] = (word as i64 - radix as i64) as i8;
                    k = k.wrapping_add(U256::from(radix - word));
                } else {
                    wnaf.digits[wnaf.len] = word as i8;
                    k = k.wrapping_sub(U256::from(word));
                }
            }
            wnaf.len += 1;
            k = k.shr(1);
        }
        wnaf
    }

    /// The digits, least significant first; empty for the zero scalar.
    fn digits(&self) -> &[i8] {
        &self.digits[..self.len]
    }
}

/// The odd multiples `1P, 3P, …, 15P` of a point, normalized to affine with
/// a single shared inversion so the scan loop pays only mixed additions.
struct WnafTable {
    odd: [Point; WNAF_TABLE],
}

impl WnafTable {
    /// Precomputes the table for a finite point.
    fn new(point: &Point) -> WnafTable {
        let base = JacobianPoint::from_affine(point);
        let step = base.double();
        let mut jacobians = [base; WNAF_TABLE];
        for index in 1..WNAF_TABLE {
            jacobians[index] = jacobians[index - 1].add(&step);
        }
        WnafTable {
            odd: batch_to_affine(&jacobians),
        }
    }

    /// Adds `digit · P` to the accumulator (no-op for the zero digit).
    fn select_into(&self, acc: JacobianPoint, digit: i8) -> JacobianPoint {
        match digit.cmp(&0) {
            core::cmp::Ordering::Greater => acc.add_affine(&self.odd[(digit as usize - 1) / 2]),
            core::cmp::Ordering::Less => {
                acc.add_affine(&self.odd[((-digit) as usize - 1) / 2].negate())
            }
            core::cmp::Ordering::Equal => acc,
        }
    }
}

/// Normalizes a fixed-size table of finite Jacobian points to affine with
/// one shared field inversion (Montgomery's trick), entirely on the stack.
fn batch_to_affine<const N: usize>(points: &[JacobianPoint; N]) -> [Point; N] {
    let z = points.map(|point| point.z);
    let mut z_inv = [FieldElement::ZERO; N];
    FieldElement::batch_invert_into(&z, &mut z_inv);
    std::array::from_fn(|index| points[index].to_affine_with(z_inv[index]))
}

/// The generator's precomputed tables, built once per process.
struct GeneratorTables {
    /// G's comb: fixed-base multiplication and the generator half of
    /// [`double_scalar_mul_comb`].
    comb: CombTable<GENERATOR_COMB_TEETH>,
    /// The odd multiples of G for wNAF tracks in multi-scalar products.
    odd: [Point; WNAF_TABLE],
}

static GENERATOR_TABLES: OnceLock<GeneratorTables> = OnceLock::new();

fn generator_tables() -> &'static GeneratorTables {
    GENERATOR_TABLES.get_or_init(|| {
        let g = Point::generator();
        GeneratorTables {
            comb: CombTable::new(&g),
            odd: WnafTable::new(&g).odd,
        }
    })
}

/// Fixed-base scalar multiplication `k·G` on the generator's comb: 26
/// columns, 25 doublings, at most 26 mixed additions.
pub fn generator_mul(scalar: Scalar) -> JacobianPoint {
    let comb = &generator_tables().comb;
    let teeth = CombTable::<GENERATOR_COMB_TEETH>::teeth(scalar);
    let mut acc = JacobianPoint::INFINITY;
    for column in (0..CombTable::<GENERATOR_COMB_TEETH>::SPACING).rev() {
        acc = acc.double();
        acc = comb.select_into(acc, &teeth, column);
    }
    acc
}

/// Straus/Shamir multi-scalar multiplication:
/// `gen_scalar·G + Σ scalarᵢ·pointᵢ` in a single interleaved-wNAF pass —
/// one shared doubling track, one table hit per non-zero digit. ECDSA
/// verification calls this with one pair, recovery with one pair, batch
/// verification with `2k` pairs.
pub fn multi_scalar_mul(gen_scalar: Scalar, pairs: &[(Scalar, Point)]) -> JacobianPoint {
    let track = |(scalar, point): &(Scalar, Point)| {
        (!scalar.is_zero() && !point.infinity).then(|| (Wnaf::new(*scalar), WnafTable::new(point)))
    };
    // One pair — a verification or a recovery — keeps its track inline.
    if let [pair] = pairs {
        return straus(gen_scalar, track(pair).as_slice());
    }
    let mut tracks = Vec::with_capacity(pairs.len());
    tracks.extend(pairs.iter().filter_map(track));
    straus(gen_scalar, &tracks)
}

/// The interleaved-wNAF pass of [`multi_scalar_mul`] over prepared tracks.
fn straus(gen_scalar: Scalar, tracks: &[(Wnaf, WnafTable)]) -> JacobianPoint {
    let gen_wnaf = Wnaf::new(gen_scalar);
    let gen_digits = gen_wnaf.digits();
    let length = tracks
        .iter()
        .map(|(wnaf, _)| wnaf.len)
        .chain(std::iter::once(gen_digits.len()))
        .max()
        .unwrap_or(0);
    let gen_odd = if gen_digits.is_empty() {
        None
    } else {
        Some(&generator_tables().odd)
    };
    let mut acc = JacobianPoint::INFINITY;
    for index in (0..length).rev() {
        acc = acc.double();
        if let (Some(odd), Some(&digit)) = (gen_odd, gen_digits.get(index)) {
            acc = select_from(odd, acc, digit);
        }
        for (wnaf, table) in tracks {
            if let Some(&digit) = wnaf.digits().get(index) {
                acc = table.select_into(acc, digit);
            }
        }
    }
    acc
}

/// Adds `digit · P` from a raw odd-multiples table (the generator's).
fn select_from(odd: &[Point; WNAF_TABLE], acc: JacobianPoint, digit: i8) -> JacobianPoint {
    match digit.cmp(&0) {
        core::cmp::Ordering::Greater => acc.add_affine(&odd[(digit as usize - 1) / 2]),
        core::cmp::Ordering::Less => acc.add_affine(&odd[((-digit) as usize - 1) / 2].negate()),
        core::cmp::Ordering::Equal => acc,
    }
}

/// `u1·G + u2·Q` — the shape of the ECDSA verification equation.
pub fn double_scalar_mul_generator(u1: Scalar, u2: Scalar, q: &Point) -> JacobianPoint {
    multi_scalar_mul(u1, &[(u2, *q)])
}

/// A `TEETH`-tooth Lim–Lee comb for one fixed point `P`, with teeth
/// `SPACING = ⌈256/TEETH⌉` bits apart: entry `m − 1` is
/// `Σ 2^(SPACING·i)·P` over the set bits `i` of the tooth mask `m`, all
/// `2^TEETH − 1` normalized to affine with one shared inversion.
///
/// A scalar's bits `c, c + SPACING, …` form the mask of column `c`, so
/// `k·P` is `SPACING` table hits on a track of `SPACING − 1` doublings —
/// for five teeth 52 hits and 51 doublings, against 256 doublings and a
/// fresh odd-multiples table per product for wNAF. Worth building for a
/// point that is used many times, such as a channel peer's public key.
#[derive(Clone)]
pub struct CombTable<const TEETH: usize> {
    entries: Box<[Point]>,
}

impl<const TEETH: usize> CombTable<TEETH> {
    /// Bits between neighbouring teeth: the fewest that let the teeth
    /// cover 256 bits.
    const SPACING: usize = 256usize.div_ceil(TEETH);

    /// Builds the comb for a finite point: `(TEETH − 1)·SPACING` doublings
    /// for the tooth bases, one addition per remaining subset sum, one
    /// inversion.
    pub fn new(point: &Point) -> CombTable<TEETH> {
        assert!(!point.infinity, "a comb needs a finite base point");
        let mut sums = vec![JacobianPoint::INFINITY; (1 << TEETH) - 1];
        let mut base = JacobianPoint::from_affine(point);
        for tooth in 0..TEETH {
            if tooth > 0 {
                for _ in 0..Self::SPACING {
                    base = base.double();
                }
            }
            // Masks with `tooth` as their top bit extend the lower ones.
            let bit = 1 << tooth;
            sums[bit - 1] = base;
            for lower in 1..bit {
                sums[bit + lower - 1] = sums[lower - 1].add(&base);
            }
        }
        let mut z_inv: Vec<FieldElement> = sums.iter().map(|sum| sum.z).collect();
        FieldElement::batch_invert(&mut z_inv);
        CombTable {
            entries: sums
                .iter()
                .zip(z_inv)
                .map(|(sum, z_inv)| sum.to_affine_with(z_inv))
                .collect(),
        }
    }

    /// Splits a scalar into its tooth words: word `i` holds bits
    /// `SPACING·i ..` up to the next tooth (the top word only what is left
    /// of 256 bits).
    fn teeth(scalar: Scalar) -> [u64; TEETH] {
        let limbs = scalar.to_u256().limbs();
        std::array::from_fn(|tooth| {
            let start = tooth * Self::SPACING;
            let (limb, offset) = (start / 64, start % 64);
            let mut word = limbs[limb] >> offset;
            if offset != 0 && limb + 1 < limbs.len() {
                word |= limbs[limb + 1] << (64 - offset);
            }
            word & ((1 << Self::SPACING) - 1)
        })
    }

    /// Adds the entry for column `column` of a scalar split by
    /// `Self::teeth` (no-op for an empty column).
    fn select_into(
        &self,
        acc: JacobianPoint,
        teeth: &[u64; TEETH],
        column: usize,
    ) -> JacobianPoint {
        let mask = teeth.iter().enumerate().fold(0, |mask, (tooth, bits)| {
            mask | (((bits >> column) & 1) as usize) << tooth
        });
        if mask == 0 {
            acc
        } else {
            acc.add_affine(&self.entries[mask - 1])
        }
    }
}

/// `u1·G + u2·Q` over the generator's comb and `q`'s: 52 columns, one
/// shared doubling between neighbouring columns, a mixed addition from
/// `q`'s comb in each and from the generator's in the low 26.
pub fn double_scalar_mul_comb(
    u1: Scalar,
    u2: Scalar,
    q: &CombTable<KEY_COMB_TEETH>,
) -> JacobianPoint {
    let g = &generator_tables().comb;
    let gen_teeth = CombTable::<GENERATOR_COMB_TEETH>::teeth(u1);
    let key_teeth = CombTable::<KEY_COMB_TEETH>::teeth(u2);
    let mut acc = JacobianPoint::INFINITY;
    for column in (0..CombTable::<KEY_COMB_TEETH>::SPACING).rev() {
        acc = acc.double();
        if column < CombTable::<GENERATOR_COMB_TEETH>::SPACING {
            acc = g.select_into(acc, &gen_teeth, column);
        }
        acc = q.select_into(acc, &key_teeth, column);
    }
    acc
}
