//! ECDSA keys, signatures, verification, recovery and batch verification.
//!
//! All hot paths ride the fast point arithmetic in [`super::point`]:
//!
//! * key derivation and signing multiply the generator on its two
//!   precomputed 10-tooth combs, and signing allocates nothing;
//! * verification evaluates `u1·G + u2·Q` in one Shamir/Straus pass and
//!   checks the `r` equation projectively (`r·Z² = X`), so it performs no
//!   field inversion at all;
//! * recovery evaluates `(s·r⁻¹)·R − (z·r⁻¹)·G` in one pass;
//! * a [`VerifyingKey`] keeps a known signer's key with its Lim–Lee comb,
//!   and [`VerifyingKey::verify_recoverable`] accepts exactly the
//!   signatures that recover to that key — recovery id included — for
//!   about half the cost of recovering;
//! * [`verify_batch`] folds `k` signatures into a single multi-scalar
//!   product using the recovery id to reconstruct each nonce point `R`.
//!
//! Signatures are byte-identical to the original affine implementation:
//! the nonce derivation, low-s normalization and recovery-id logic are
//! unchanged, only the group arithmetic underneath got faster.

use super::field::FieldElement;
use super::point::{
    double_scalar_mul_comb, double_scalar_mul_generator, generator_mul, multi_scalar_mul,
    CombTable, Point, KEY_COMB_TEETH,
};
use super::scalar::Scalar;
use super::{CryptoError, CURVE_ORDER, FIELD_PRIME};
use crate::{hmac_sha256, keccak256, sha256};
use tinyevm_types::{Address, H256, U256};

/// A secp256k1 private key.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct PrivateKey(Scalar);

impl PrivateKey {
    /// Builds a private key from a scalar.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidPrivateKey`] for the zero scalar.
    pub fn from_scalar(scalar: Scalar) -> Result<Self, CryptoError> {
        if scalar.is_zero() {
            return Err(CryptoError::InvalidPrivateKey);
        }
        Ok(PrivateKey(scalar))
    }

    /// Builds a private key from 32 big-endian bytes (reduced modulo `n`).
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidPrivateKey`] if the reduced scalar is
    /// zero.
    pub fn from_bytes(bytes: &[u8; 32]) -> Result<Self, CryptoError> {
        Self::from_scalar(Scalar::from_bytes(bytes))
    }

    /// Derives a private key deterministically from an arbitrary seed by
    /// hashing it with SHA-256 — handy for tests, examples and simulations
    /// where reproducible identities matter.
    pub fn from_seed(seed: &[u8]) -> Self {
        let mut digest = sha256(seed);
        loop {
            let scalar = Scalar::from_bytes(&digest);
            if !scalar.is_zero() {
                return PrivateKey(scalar);
            }
            digest = sha256(&digest);
        }
    }

    /// Generates a random private key from the provided entropy source.
    pub fn random<R: rand::RngCore>(rng: &mut R) -> Self {
        loop {
            let mut bytes = [0u8; 32];
            rng.fill_bytes(&mut bytes);
            if let Ok(key) = Self::from_bytes(&bytes) {
                return key;
            }
        }
    }

    /// The 32-byte big-endian scalar.
    pub fn to_bytes(&self) -> [u8; 32] {
        self.0.to_u256().to_be_bytes()
    }

    /// The corresponding public key `d·G` (fixed-base table multiply).
    pub fn public_key(&self) -> PublicKey {
        PublicKey(generator_mul(self.0).to_affine())
    }

    /// Signs a 32-byte message digest, producing a recoverable signature.
    ///
    /// The nonce is derived deterministically from the key and digest with
    /// HMAC-SHA-256 (RFC-6979 style), so no RNG is needed at signing time —
    /// exactly the property a constrained IoT device wants.
    pub fn sign_prehashed(&self, digest: &[u8; 32]) -> Signature {
        let z = Scalar::from_bytes(digest);
        let mut counter: u32 = 0;
        loop {
            let k = derive_nonce(&self.to_bytes(), digest, counter);
            counter += 1;
            if k.is_zero() {
                continue;
            }
            let r_point = generator_mul(k).to_affine();
            if r_point.infinity {
                continue;
            }
            let r = Scalar::new(r_point.x.to_u256());
            if r.is_zero() {
                continue;
            }
            // s = k^-1 (z + r d) mod n
            let s = k.invert().mul(z.add(r.mul(self.0)));
            if s.is_zero() {
                continue;
            }
            let mut recovery_id = u8::from(r_point.y.is_odd());
            let mut s_final = s;
            if s.is_high() {
                // Ethereum requires the low-s form; flipping s mirrors R over
                // the x-axis, so the recovery id flips too.
                s_final = s.negate();
                recovery_id ^= 1;
            }
            return Signature {
                r: r.to_u256(),
                s: s_final.to_u256(),
                recovery_id,
            };
        }
    }

    /// Signs an arbitrary message by Keccak-256 hashing it first (the
    /// Ethereum convention).
    pub fn sign_message(&self, message: &[u8]) -> Signature {
        self.sign_prehashed(&keccak256(message))
    }

    /// The Ethereum-style address of this key's public key.
    pub fn eth_address(&self) -> Address {
        self.public_key().eth_address()
    }
}

impl core::fmt::Debug for PrivateKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print the scalar itself.
        write!(f, "PrivateKey(address={})", self.eth_address())
    }
}

/// The nonce for one signing attempt: `HMAC-SHA-256(key, digest ‖ counter)`.
fn derive_nonce(key: &[u8; 32], digest: &[u8; 32], counter: u32) -> Scalar {
    let mut message = [0u8; 36];
    message[..32].copy_from_slice(digest);
    message[32..].copy_from_slice(&counter.to_be_bytes());
    Scalar::from_bytes(&hmac_sha256(key, &message))
}

/// A secp256k1 public key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublicKey(Point);

impl PublicKey {
    /// Wraps a curve point.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidPublicKey`] for the point at infinity or
    /// a point off the curve.
    pub fn from_point(point: Point) -> Result<Self, CryptoError> {
        if point.infinity || !point.is_on_curve() {
            return Err(CryptoError::InvalidPublicKey);
        }
        Ok(PublicKey(point))
    }

    /// The underlying curve point.
    pub fn point(&self) -> &Point {
        &self.0
    }

    /// Uncompressed 64-byte encoding (x ‖ y).
    pub fn to_uncompressed(&self) -> [u8; 64] {
        self.0.to_uncompressed()
    }

    /// The Ethereum address: low 20 bytes of `keccak256(x ‖ y)`.
    pub fn eth_address(&self) -> Address {
        let digest = keccak256(&self.to_uncompressed());
        Address::from_hash(&H256::from_bytes(digest))
    }

    /// Verifies a signature over a 32-byte digest.
    ///
    /// Computes `R' = u1·G + u2·Q` in a single Shamir/Straus pass and
    /// accepts iff `R'.x ≡ r (mod n)`, checked projectively against both
    /// field representatives of `r` — no inversion, no normalization.
    pub fn verify_prehashed(&self, digest: &[u8; 32], signature: &Signature) -> bool {
        let Some((r, s)) = signature.scalars() else {
            return false;
        };
        let z = Scalar::from_bytes(digest);
        let s_inv = s.invert();
        let u1 = z.mul(s_inv);
        let u2 = r.mul(s_inv);
        let point = double_scalar_mul_generator(u1, u2, &self.0);
        if point.is_infinity() {
            return false;
        }
        // x_affine = X/Z² must satisfy x_affine mod n == r, i.e.
        // x_affine == r, or x_affine == r + n when that fits below p.
        let z2 = point.z.square();
        if FieldElement::new(r.to_u256()).mul(z2) == point.x {
            return true;
        }
        if r.to_u256() < FIELD_PRIME.wrapping_sub(CURVE_ORDER) {
            let lifted = r.to_u256().wrapping_add(CURVE_ORDER);
            return FieldElement::new(lifted).mul(z2) == point.x;
        }
        false
    }

    /// Verifies a signature over an arbitrary message (Keccak-256 hashed).
    pub fn verify_message(&self, message: &[u8], signature: &Signature) -> bool {
        self.verify_prehashed(&keccak256(message), signature)
    }
}

/// A public key prepared for checking many signatures: the key plus its
/// 7-tooth [`CombTable`] (127 affine entries, ≈8 KB, built once for about
/// four fifths of the cost of one recovery).
///
/// [`VerifyingKey::verify_recoverable`] is the check a channel runs on each
/// message from a peer whose key it already knows, in place of recovering
/// the signer and comparing.
///
/// ```
/// use tinyevm_crypto::{keccak256, secp256k1::{PrivateKey, VerifyingKey}};
///
/// let key = PrivateKey::from_seed(b"sensor");
/// let verifier = VerifyingKey::new(key.public_key());
/// let digest = keccak256(b"payment #2");
/// let mut signature = key.sign_prehashed(&digest);
/// assert!(verifier.verify_recoverable(&digest, &signature));
/// // A flipped recovery id would recover another key: rejected.
/// signature.recovery_id ^= 1;
/// assert!(!verifier.verify_recoverable(&digest, &signature));
/// ```
#[derive(Clone)]
pub struct VerifyingKey {
    key: PublicKey,
    comb: CombTable<KEY_COMB_TEETH>,
}

impl VerifyingKey {
    /// Builds the comb for `key`.
    pub fn new(key: PublicKey) -> Self {
        let comb = CombTable::new(&key.0);
        VerifyingKey { key, comb }
    }

    /// Accepts exactly when `signature.recover(digest) == Ok(key)`.
    ///
    /// Recovery succeeds with this key iff the nonce point `R` it lifts
    /// from `(r, v)` equals `R' = u1·G + u2·Q` (`u1 = z·s⁻¹`,
    /// `u2 = r·s⁻¹`), so this evaluates `R'` on the two combs and checks
    /// what the lift fixes: `r` and `s` in range, `R'` finite, its affine
    /// x equal to `r` itself (the lift never uses `r + n`), and its y
    /// parity equal to the recovery id (odd iff `v == 1`). A bare ECDSA
    /// verify would skip the last two and accept a flipped `v`.
    pub fn verify_recoverable(&self, digest: &[u8; 32], signature: &Signature) -> bool {
        let Some((r, s)) = signature.scalars() else {
            return false;
        };
        let z = Scalar::from_bytes(digest);
        let s_inv = s.invert();
        let point = double_scalar_mul_comb(z.mul(s_inv), r.mul(s_inv), &self.comb);
        if point.is_infinity() {
            return false;
        }
        let z2 = point.z.square();
        if FieldElement::new(signature.r).mul(z2) != point.x {
            return false;
        }
        // y = Y/Z³: one inversion, paid only once x has matched.
        let y = point.y.mul(z2.mul(point.z).invert());
        y.is_odd() == (signature.recovery_id == 1)
    }
}

impl core::fmt::Debug for VerifyingKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // The comb is 127 derived points; the key identifies it.
        f.debug_struct("VerifyingKey")
            .field("key", &self.key)
            .finish_non_exhaustive()
    }
}

/// One `(digest, signature, public key)` triple for [`verify_batch`].
#[derive(Debug, Clone, Copy)]
pub struct BatchItem {
    /// The 32-byte message digest that was signed.
    pub digest: [u8; 32],
    /// The recoverable signature.
    pub signature: Signature,
    /// The claimed signer.
    pub public_key: PublicKey,
}

/// Verifies many ECDSA signatures in one multi-scalar multiplication.
///
/// Each signature's nonce point `Rᵢ` is reconstructed from `(r, v)` (the
/// recovery id pins the y parity), turning every verification equation into
/// the group identity `u1ᵢ·G + u2ᵢ·Qᵢ − Rᵢ = O`. A random linear
/// combination with 128-bit coefficients `aᵢ` (derived by hashing the whole
/// batch, so an adversary cannot choose them independently of the
/// signatures) folds all equations into one:
///
/// `(Σ aᵢ·u1ᵢ)·G + Σ aᵢ·u2ᵢ·Qᵢ + Σ (−aᵢ)·Rᵢ = O`
///
/// evaluated as a single Straus pass over `2k` points plus the shared
/// generator track. The batch shares one doubling track and one final
/// infinity check across all signatures (~25% cheaper per signature at
/// batch size 16; per-point table building bounds the gain). Returns
/// `false` if **any** signature in the batch is invalid (callers that need
/// to know *which one* fall back to per-signature verification).
pub fn verify_batch(items: &[BatchItem]) -> bool {
    if items.is_empty() {
        return true;
    }
    // Reconstruct nonce points and u-coefficients per item.
    let mut gen_scalar = Scalar::ZERO;
    let mut pairs: Vec<(Scalar, Point)> = Vec::with_capacity(items.len() * 2);
    let coefficients = batch_coefficients(items);
    for (item, coefficient) in items.iter().zip(coefficients) {
        let Some((r, s)) = item.signature.scalars() else {
            return false;
        };
        let Ok(r_point) = Point::from_x(item.signature.r, item.signature.recovery_id == 1) else {
            return false;
        };
        let z = Scalar::from_bytes(&item.digest);
        let s_inv = s.invert();
        let u1 = z.mul(s_inv);
        let u2 = r.mul(s_inv);
        gen_scalar = gen_scalar.add(coefficient.mul(u1));
        pairs.push((coefficient.mul(u2), item.public_key.0));
        // −aᵢ·Rᵢ as aᵢ·(−Rᵢ): keeps the 128-bit coefficient (and thus a
        // half-length wNAF track) instead of the ~256-bit n − aᵢ.
        pairs.push((coefficient, r_point.negate()));
    }
    multi_scalar_mul(gen_scalar, &pairs).is_infinity()
}

/// Derives the per-item 128-bit random-linear-combination coefficients by
/// chaining SHA-256 over the whole batch; the first coefficient is pinned
/// to 1 (a standard batch-verification optimization).
fn batch_coefficients(items: &[BatchItem]) -> Vec<Scalar> {
    let mut transcript = Vec::with_capacity(items.len() * (32 + 65 + 64));
    for item in items {
        transcript.extend_from_slice(&item.digest);
        transcript.extend_from_slice(&item.signature.to_bytes());
        transcript.extend_from_slice(&item.public_key.to_uncompressed());
    }
    let seed = sha256(&transcript);
    let mut coefficients = Vec::with_capacity(items.len());
    coefficients.push(Scalar::ONE);
    for index in 1..items.len() {
        let mut input = [0u8; 36];
        input[..32].copy_from_slice(&seed);
        input[32..].copy_from_slice(&(index as u32).to_be_bytes());
        let digest = sha256(&input);
        // Keep coefficients at 128 bits: half-width scalars halve the wNAF
        // track length. A zero coefficient (probability 2^-128) would skip
        // an item, so nudge it to one.
        let mut low = [0u8; 32];
        low[16..].copy_from_slice(&digest[..16]);
        let coefficient = Scalar::from_bytes(&low);
        coefficients.push(if coefficient.is_zero() {
            Scalar::ONE
        } else {
            coefficient
        });
    }
    coefficients
}

/// A recoverable ECDSA signature `(r, s, recovery_id)`.
///
/// The 65-byte serialized form is `r ‖ s ‖ v`, the layout carried inside
/// TinyEVM's signed off-chain payments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    /// The x-coordinate of the nonce point, modulo `n`.
    pub r: U256,
    /// The (low-s normalized) signature scalar.
    pub s: U256,
    /// Parity of the nonce point's y-coordinate (0 or 1).
    pub recovery_id: u8,
}

impl Signature {
    /// Serializes to 65 bytes (`r ‖ s ‖ v`).
    pub fn to_bytes(&self) -> [u8; 65] {
        let mut out = [0u8; 65];
        out[..32].copy_from_slice(&self.r.to_be_bytes());
        out[32..64].copy_from_slice(&self.s.to_be_bytes());
        out[64] = self.recovery_id;
        out
    }

    /// Parses the 65-byte form.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidRecoveryId`] if the last byte is not 0
    /// or 1, and [`CryptoError::InvalidSignature`] if `r` or `s` is zero or
    /// not below the curve order.
    pub fn from_bytes(bytes: &[u8; 65]) -> Result<Self, CryptoError> {
        let recovery_id = bytes[64];
        if recovery_id > 1 {
            return Err(CryptoError::InvalidRecoveryId(recovery_id));
        }
        let mut r_bytes = [0u8; 32];
        r_bytes.copy_from_slice(&bytes[..32]);
        let mut s_bytes = [0u8; 32];
        s_bytes.copy_from_slice(&bytes[32..64]);
        let signature = Signature {
            r: U256::from_be_bytes(r_bytes),
            s: U256::from_be_bytes(s_bytes),
            recovery_id,
        };
        if signature.scalars().is_none() {
            return Err(CryptoError::InvalidSignature);
        }
        Ok(signature)
    }

    /// Parses the 65-byte form from an arbitrary slice, checking the length
    /// first — the entry point wire decoders use on untrusted input.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidLength`] when the slice is not exactly
    /// 65 bytes, then everything [`Signature::from_bytes`] rejects.
    pub fn from_slice(bytes: &[u8]) -> Result<Self, CryptoError> {
        let exact: &[u8; 65] = bytes.try_into().map_err(|_| CryptoError::InvalidLength {
            expected: 65,
            got: bytes.len(),
        })?;
        Self::from_bytes(exact)
    }

    /// Returns `(r, s)` as scalars if both are in the valid range.
    pub(crate) fn scalars(&self) -> Option<(Scalar, Scalar)> {
        if self.r.is_zero() || self.s.is_zero() || self.r >= CURVE_ORDER || self.s >= CURVE_ORDER {
            return None;
        }
        Some((Scalar(self.r), Scalar(self.s)))
    }

    /// Recovers the public key that produced this signature over `digest`.
    ///
    /// Evaluates `Q = (s·r⁻¹)·R + (−z·r⁻¹)·G` in one Shamir/Straus pass.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidSignature`] when the signature is out of
    /// range or the recovered point is not valid.
    pub fn recover(&self, digest: &[u8; 32]) -> Result<PublicKey, CryptoError> {
        let (r, s) = self.scalars().ok_or(CryptoError::InvalidSignature)?;
        let r_point = Point::from_x(self.r, self.recovery_id == 1)?;
        let r_inv = r.invert();
        let z = Scalar::from_bytes(digest);
        // Q = r^-1 (s·R - z·G)
        let u_gen = z.mul(r_inv).negate();
        let u_nonce = s.mul(r_inv);
        let q = multi_scalar_mul(u_gen, &[(u_nonce, r_point)]).to_affine();
        PublicKey::from_point(q)
    }

    /// Recovers the signer's Ethereum address directly.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`Signature::recover`].
    pub fn recover_address(&self, digest: &[u8; 32]) -> Result<Address, CryptoError> {
        Ok(self.recover(digest)?.eth_address())
    }
}
