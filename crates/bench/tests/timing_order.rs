//! The two crypto fast paths must beat the general path they replace: the
//! generator's comb table against wNAF variable-base multiplication, and
//! one Straus pass over a fleet's closing signatures against checking them
//! one by one. The `crypto` bench reports by how much.

use std::hint::black_box;
use std::time::{Duration, Instant};

use tinyevm_crypto::keccak256;
use tinyevm_crypto::secp256k1::{point, verify_batch, BatchItem, PrivateKey, Scalar};
use tinyevm_types::U256;

/// The fastest of nine interleaved timings of `a` and `b`. Taking turns
/// exposes both to the same machine load, and each side's minimum is its
/// least disturbed run, so a burst of load on another tenant cannot flip
/// their order.
fn interleaved_minimums(mut a: impl FnMut(), mut b: impl FnMut()) -> (Duration, Duration) {
    let mut fastest = (Duration::MAX, Duration::MAX);
    for _ in 0..9 {
        let start = Instant::now();
        a();
        fastest.0 = fastest.0.min(start.elapsed());
        let start = Instant::now();
        b();
        fastest.1 = fastest.1.min(start.elapsed());
    }
    fastest
}

#[test]
fn generator_comb_beats_variable_base_multiplication() {
    let scalar = Scalar::new(U256::from_be_bytes(keccak256(b"bench scalar")));
    let public = *PrivateKey::from_seed(b"bench key").public_key().point();
    // With the affine normalization, as signing pays it.
    let (comb, wnaf) = interleaved_minimums(
        || {
            black_box(point::generator_mul(black_box(scalar)).to_affine());
        },
        || {
            black_box(public.scalar_mul(black_box(scalar)));
        },
    );
    assert!(comb < wnaf, "comb {comb:?} vs wNAF {wnaf:?}");
}

#[test]
fn one_straus_pass_beats_checking_closing_signatures_one_by_one() {
    // Eight signatures, each by its own sensor key: the shape of a gateway
    // settling eight channels in `finalize_closes`.
    let closes: Vec<BatchItem> = (0..8u64)
        .map(|index| {
            let key = PrivateKey::from_seed(format!("settle sensor {index}").as_bytes());
            let digest = keccak256(&index.to_be_bytes());
            BatchItem {
                digest,
                signature: key.sign_prehashed(&digest),
                public_key: key.public_key(),
            }
        })
        .collect();
    let (serial, batch) = interleaved_minimums(
        || {
            for item in black_box(&closes) {
                assert!(item
                    .public_key
                    .verify_prehashed(&item.digest, &item.signature));
            }
        },
        || assert!(verify_batch(black_box(&closes))),
    );
    assert!(batch < serial, "batch {batch:?} vs serial {serial:?}");
}
