//! Integration tests of the security properties claimed in the paper's
//! Section V: detection of stale-state replay, non-repudiation of payments,
//! overspend detection via the Merkle-Sum-Tree / deposit audit, and the
//! time-limited challenge window.

use tinyevm::chain::{
    Blockchain, ChannelState, CommitEnvelope, MerkleSumTree, SumLeaf, TemplateConfig, TemplateError,
};
use tinyevm::channel::{
    ChannelConfig, ChannelError, ChannelRole, PaymentChannel, PaymentError, SignedPayment,
};
use tinyevm::prelude::*;

struct World {
    chain: Blockchain,
    template: Address,
    car: PrivateKey,
    lot: PrivateKey,
}

fn world(deposit_milli: u64) -> World {
    let car = PrivateKey::from_seed(b"security car");
    let lot = PrivateKey::from_seed(b"security lot");
    let mut chain = Blockchain::new();
    chain.fund(car.eth_address(), Wei::from_eth(1));
    let template = chain
        .publish_template(TemplateConfig {
            sender: car.eth_address(),
            receiver: lot.eth_address(),
            deposit: Wei::from_eth_milli(deposit_milli),
            challenge_period_blocks: 10,
        })
        .unwrap();
    World {
        chain,
        template,
        car,
        lot,
    }
}

fn dual_signed(world: &World, sequence: u64, milli: u64) -> CommitEnvelope {
    let state = ChannelState {
        template: world.template,
        channel_id: 1,
        sequence,
        total_to_receiver: Wei::from_eth_milli(milli),
        sensor_data_hash: H256::from_low_u64(sequence),
    };
    CommitEnvelope {
        sender_signature: world.car.sign_prehashed(&state.digest()),
        receiver_signature: world.lot.sign_prehashed(&state.digest()),
        state,
    }
}

#[test]
fn detection_stale_states_cannot_win() {
    let mut w = world(100);
    w.chain
        .create_payment_channel(w.car.eth_address(), w.template)
        .unwrap();
    // Honest latest state is sequence 9 / 70 mETH; the car tries to settle
    // with sequence 3 / 10 mETH.
    let stale = dual_signed(&w, 3, 10);
    let latest = dual_signed(&w, 9, 70);
    w.chain
        .commit_channel_state(w.car.eth_address(), w.template, &stale)
        .unwrap();
    w.chain.start_exit(w.car.eth_address(), w.template).unwrap();
    w.chain
        .commit_channel_state(w.lot.eth_address(), w.template, &latest)
        .unwrap();
    // Re-submitting the stale state afterwards is rejected outright.
    let err = w
        .chain
        .commit_channel_state(w.car.eth_address(), w.template, &stale)
        .unwrap_err();
    assert!(format!("{err}").contains("sequence"));
    w.chain.advance_blocks(12);
    let settlement = w
        .chain
        .finalize_template(w.lot.eth_address(), w.template)
        .unwrap();
    assert_eq!(settlement.to_receiver, Wei::from_eth_milli(70));
}

#[test]
fn non_repudiation_forged_and_tampered_payments_never_verify() {
    let car = PrivateKey::from_seed(b"payer");
    let lot = PrivateKey::from_seed(b"payee");
    let mallory = PrivateKey::from_seed(b"mallory");
    let config = ChannelConfig {
        template: Address::from_low_u64(1),
        channel_id: 1,
        sender: car.eth_address(),
        receiver: lot.eth_address(),
        deposit_cap: Wei::from_eth_milli(100),
    };
    let mut receiver_side = PaymentChannel::new(config, ChannelRole::Receiver);

    // A payment forged by a third party is rejected.
    let forged = SignedPayment::create(
        &mallory,
        Address::from_low_u64(1),
        1,
        1,
        Wei::from_eth_milli(1),
        H256::ZERO,
    );
    assert!(receiver_side.accept_payment(&forged).is_err());

    // A genuine payment with a tampered amount is rejected.
    let mut genuine = SignedPayment::create(
        &car,
        Address::from_low_u64(1),
        1,
        1,
        Wei::from_eth_milli(1),
        H256::ZERO,
    );
    genuine.cumulative = Wei::from_eth_milli(90);
    assert!(receiver_side.accept_payment(&genuine).is_err());

    // The untampered one is accepted, and its signature pins the payer.
    let genuine = SignedPayment::create(
        &car,
        Address::from_low_u64(1),
        1,
        1,
        Wei::from_eth_milli(1),
        H256::ZERO,
    );
    receiver_side.accept_payment(&genuine).unwrap();
    assert_eq!(genuine.payer().unwrap(), car.eth_address());

    // Once the payer's key is learned, later payments are checked against
    // it rather than recovered: the same forgeries still fail, and leave
    // the channel where it was.
    let next = |key: &PrivateKey| {
        SignedPayment::create(
            key,
            Address::from_low_u64(1),
            1,
            2,
            Wei::from_eth_milli(2),
            H256::ZERO,
        )
    };
    let mut tampered = next(&car);
    tampered.cumulative = Wei::from_eth_milli(90);
    let mut flipped_v = next(&car);
    flipped_v.signature.recovery_id ^= 1;
    for forgery in [next(&mallory), tampered, flipped_v] {
        assert!(matches!(
            receiver_side.accept_payment(&forgery),
            Err(ChannelError::Payment(PaymentError::BadSignature))
        ));
        assert_eq!(receiver_side.sequence(), 1);
        assert_eq!(receiver_side.cumulative(), Wei::from_eth_milli(1));
    }
    receiver_side.accept_payment(&next(&car)).unwrap();
    assert_eq!(receiver_side.cumulative(), Wei::from_eth_milli(2));
}

#[test]
fn overspend_attempts_forfeit_the_insurance() {
    let mut w = world(50);
    w.chain
        .create_payment_channel(w.car.eth_address(), w.template)
        .unwrap();
    // 40 of the 50 mETH deposit are legitimately committed.
    let fine = dual_signed(&w, 4, 40);
    w.chain
        .commit_channel_state(w.lot.eth_address(), w.template, &fine)
        .unwrap();
    // A dual-signed state claiming 70 mETH exceeds the deposit: the sum
    // audit rejects it and flags fraud.
    let overspend = dual_signed(&w, 7, 70);
    let error = w
        .chain
        .commit_channel_state(w.lot.eth_address(), w.template, &overspend)
        .unwrap_err();
    assert!(format!("{error}").contains("exceeds"));
    assert!(w.chain.template(&w.template).unwrap().fraud_detected());

    // Settlement gives the whole insurance deposit to the wronged party.
    w.chain.start_exit(w.lot.eth_address(), w.template).unwrap();
    w.chain.advance_blocks(12);
    let settlement = w
        .chain
        .finalize_template(w.lot.eth_address(), w.template)
        .unwrap();
    assert!(settlement.fraud_detected);
    assert_eq!(settlement.to_receiver, Wei::from_eth_milli(50));
    assert_eq!(settlement.to_sender, Wei::ZERO);
}

#[test]
fn time_limit_late_challenges_are_rejected_and_funds_released() {
    let mut w = world(100);
    w.chain
        .create_payment_channel(w.car.eth_address(), w.template)
        .unwrap();
    let committed = dual_signed(&w, 2, 20);
    w.chain
        .commit_channel_state(w.car.eth_address(), w.template, &committed)
        .unwrap();
    w.chain.start_exit(w.car.eth_address(), w.template).unwrap();

    // The receiver sleeps through the challenge window.
    w.chain.advance_blocks(15);
    let late = dual_signed(&w, 8, 90);
    let error = w
        .chain
        .commit_channel_state(w.lot.eth_address(), w.template, &late)
        .unwrap_err();
    assert!(matches!(
        error,
        tinyevm::chain::ChainError::Template(TemplateError::WrongPhase { .. })
    ));
    let settlement = w
        .chain
        .finalize_template(w.car.eth_address(), w.template)
        .unwrap();
    // Only the committed 20 mETH are paid out; the rest returns to the car.
    assert_eq!(settlement.to_receiver, Wei::from_eth_milli(20));
    assert_eq!(settlement.to_sender, Wei::from_eth_milli(80));
}

#[test]
fn merkle_sum_tree_audits_the_total_claim() {
    // The sum tree is the on-chain contract's overspend detector: the root
    // sum equals the total claimed, and inclusion proofs survive only for
    // genuine leaves.
    let mut tree = MerkleSumTree::new();
    for i in 0..10u64 {
        tree.push(SumLeaf::new(H256::from_low_u64(i), Wei::from(10u64)));
    }
    assert_eq!(tree.total(), Wei::from(100u64));
    assert!(!tree.exceeds_deposit(Wei::from(100u64)));
    assert!(tree.exceeds_deposit(Wei::from(99u64)));
    let root = tree.root();
    for i in 0..10usize {
        let proof = tree.prove(i).unwrap();
        assert!(MerkleSumTree::verify(&root, &proof));
    }
    let mut forged = tree.prove(5).unwrap();
    forged.leaf.sum = Wei::from(1_000u64);
    assert!(!MerkleSumTree::verify(&root, &forged));
}

#[test]
fn side_chain_logs_expose_omitted_transactions() {
    use tinyevm::channel::SideChainLog;
    let mut log = SideChainLog::new(H256::from_low_u64(0xA0C));
    for i in 1..=5u64 {
        log.append(1, i, Wei::from(i * 10), H256::from_low_u64(i));
    }
    assert!(log.verify());
    // Dropping an intermediate transition is detectable.
    let mut pruned = log.clone();
    let mut entries: Vec<_> = pruned.entries().to_vec();
    entries.remove(2);
    pruned = SideChainLog::new(H256::from_low_u64(0xA0C));
    for entry in &entries {
        pruned.append(
            entry.channel_id,
            entry.sequence,
            entry.cumulative,
            entry.state_digest,
        );
    }
    // The rebuilt log is internally consistent but no longer matches the
    // original head — the omission is visible to anyone holding the head.
    assert!(pruned.verify());
    assert_ne!(pruned.head(), log.head());
}
