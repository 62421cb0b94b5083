//! Host-side cost of the cryptographic primitives (Table V measures their
//! cost on the CC2538; these benches measure the real Rust implementations).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tinyevm_crypto::secp256k1::{point, BatchItem, FieldElement, PrivateKey, Scalar, VerifyingKey};
use tinyevm_crypto::{keccak256, sha256};
use tinyevm_types::U256;

/// A deterministic batch of `count` signatures, each by its own key.
fn sample_batch(count: u32) -> Vec<BatchItem> {
    (0..count)
        .map(|index| {
            let key = PrivateKey::from_seed(&index.to_be_bytes());
            let digest = sha256(&index.to_le_bytes());
            BatchItem {
                digest,
                signature: key.sign_prehashed(&digest),
                public_key: key.public_key(),
            }
        })
        .collect()
}

/// The fleet-settlement workload: `count` channels' dual-signable closing
/// states, each signed by its own sensor key — what the gateway endpoint
/// batch-verifies in `finalize_closes`.
fn sample_close_batch(count: u32) -> Vec<BatchItem> {
    (0..count)
        .map(|index| {
            let key = PrivateKey::from_seed(format!("settle sensor {index}").as_bytes());
            let state = tinyevm_chain::ChannelState {
                template: tinyevm_types::Address::from_low_u64(0xA000 + u64::from(index)),
                channel_id: u64::from(index) + 1,
                sequence: 4,
                total_to_receiver: tinyevm_types::Wei::from(7_500u64),
                sensor_data_hash: tinyevm_types::H256::from_low_u64(u64::from(index)),
            };
            let digest = state.digest();
            BatchItem {
                digest,
                signature: key.sign_prehashed(&digest),
                public_key: key.public_key(),
            }
        })
        .collect()
}

fn bench_crypto(c: &mut Criterion) {
    let short = vec![0xabu8; 64];
    let long = vec![0xcdu8; 4096];
    let key = PrivateKey::from_seed(b"bench key");
    let digest = keccak256(b"benchmark payment payload");
    let signature = key.sign_prehashed(&digest);
    let public_key = key.public_key();
    let pub_point = *public_key.point();
    let scalar = Scalar::new(U256::from_be_bytes(keccak256(b"bench scalar")));
    let batch = sample_batch(16);

    let mut group = c.benchmark_group("crypto");
    group.sample_size(30);
    group.bench_function("keccak256_64B", |bencher| {
        bencher.iter(|| keccak256(black_box(&short)))
    });
    group.bench_function("keccak256_4KiB", |bencher| {
        bencher.iter(|| keccak256(black_box(&long)))
    });
    group.bench_function("sha256_64B", |bencher| {
        bencher.iter(|| sha256(black_box(&short)))
    });
    group.bench_function("ecdsa_sign", |bencher| {
        bencher.iter(|| key.sign_prehashed(black_box(&digest)))
    });
    group.bench_function("ecdsa_verify", |bencher| {
        bencher.iter(|| public_key.verify_prehashed(black_box(&digest), black_box(&signature)))
    });
    group.bench_function("ecdsa_verify_batch16", |bencher| {
        // One multi-scalar pass over 16 signatures; divide by 16 for the
        // amortized per-signature cost.
        bencher.iter(|| {
            assert!(tinyevm_crypto::secp256k1::verify_batch(black_box(&batch)));
        })
    });
    group.bench_function("ecdsa_recover", |bencher| {
        bencher.iter(|| signature.recover(black_box(&digest)).unwrap())
    });
    // A channel checks every message after a peer's first on that peer's
    // comb instead of recovering the signer. These three lanes rotate over
    // the same 64 signers' signatures: on one repeated input recovery
    // reads 15–20% faster than on fresh ones.
    let signed = sample_batch(64);
    let verifiers: Vec<VerifyingKey> = signed
        .iter()
        .map(|item| VerifyingKey::new(item.public_key))
        .collect();
    group.bench_function("ecdsa_recover_rotating", |bencher| {
        let mut items = signed.iter().cycle();
        bencher.iter(|| {
            let item = items.next().unwrap();
            item.signature.recover(black_box(&item.digest)).unwrap()
        })
    });
    group.bench_function("ecdsa_verify_signer_comb", |bencher| {
        let mut pairs = signed.iter().zip(&verifiers).cycle();
        bencher.iter(|| {
            let (item, verifier) = pairs.next().unwrap();
            assert!(verifier.verify_recoverable(black_box(&item.digest), &item.signature));
        })
    });
    group.bench_function("signer_comb_build", |bencher| {
        let mut items = signed.iter().cycle();
        bencher.iter(|| VerifyingKey::new(black_box(items.next().unwrap().public_key)))
    });
    // The gateway settlement workload: 8 channels' closing-state
    // signatures, checked the pre-redesign way (one at a time) and the
    // endpoint way (one Straus pass) — the same items `finalize_closes`
    // verifies.
    let closes = sample_close_batch(8);
    group.bench_function("gateway_settle_serial8", |bencher| {
        bencher.iter(|| {
            for item in black_box(&closes) {
                assert!(item
                    .public_key
                    .verify_prehashed(&item.digest, &item.signature));
            }
        })
    });
    group.bench_function("gateway_settle_batch8", |bencher| {
        bencher.iter(|| {
            assert!(tinyevm_crypto::secp256k1::verify_batch(black_box(&closes)));
        })
    });
    group.bench_function("scalar_mul_wnaf", |bencher| {
        bencher.iter(|| pub_point.scalar_mul(black_box(scalar)))
    });
    group.bench_function("generator_mul_comb", |bencher| {
        // With the affine normalization, as signing pays it.
        bencher.iter(|| point::generator_mul(black_box(scalar)).to_affine())
    });
    // The two inversions each signature and each comb check pay: `Z⁻¹`
    // and the y parity's in the field, `k⁻¹` and `s⁻¹` modulo the order.
    let element = FieldElement::new(scalar.to_u256());
    group.bench_function("field_invert", |bencher| {
        bencher.iter(|| black_box(element).invert())
    });
    group.bench_function("scalar_invert", |bencher| {
        bencher.iter(|| black_box(scalar).invert())
    });
    group.finish();

    // The retained affine double-and-add reference, so a single bench run
    // shows the fast-path speedup directly.
    let mut reference = c.benchmark_group("crypto_reference");
    reference.sample_size(10);
    reference.bench_function("scalar_mul_affine_reference", |bencher| {
        bencher.iter(|| pub_point.scalar_mul_reference(black_box(scalar)))
    });
    reference.finish();
}

criterion_group!(benches, bench_crypto);
criterion_main!(benches);
