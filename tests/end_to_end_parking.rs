//! End-to-end integration test of the full TinyEVM stack: template on the
//! simulated chain, off-chain channel between two simulated devices over the
//! simulated radio, signed payments, side-chain logs, on-chain settlement.

use std::time::Duration;

use tinyevm::channel::{ProtocolDriver, ProtocolError};
use tinyevm::device::PowerState;
use tinyevm::prelude::*;

#[test]
fn full_three_phase_flow_settles_the_exact_amount() {
    let mut driver = ProtocolDriver::smart_parking(Wei::from_eth_milli(100));

    // Phase 1: template published, deposit locked.
    let template = driver.publish_template().unwrap();
    assert!(driver.chain().template(&template).is_some());

    // Phase 2: channel opened, contract deployed on both devices through
    // the IoT-aware constructor.
    let open = driver.open_channel().unwrap();
    assert_eq!(open.channel_id, 1);
    assert!(open.sender_create_time > Duration::ZERO);
    assert!(open.receiver_create_time > Duration::ZERO);

    // Several off-chain payments.
    let mut last_cumulative = Wei::ZERO;
    for i in 1..=6u64 {
        let round = driver.pay(Wei::from_eth_milli(3)).unwrap();
        assert_eq!(round.sequence, i);
        assert!(round.cumulative > last_cumulative);
        last_cumulative = round.cumulative;
    }

    // Both side-chain logs verified and in agreement.
    assert_eq!(driver.sender().side_chain().len(), 6);
    assert_eq!(driver.receiver().side_chain().len(), 6);
    assert!(driver.sender().side_chain().verify());
    assert!(driver.receiver().side_chain().verify());
    let head = |log: &tinyevm::channel::SideChainLog| {
        let last = log.entries().last().expect("six entries");
        (last.channel_id, last.sequence, last.cumulative)
    };
    assert_eq!(head(driver.sender().side_chain()), (1, 6, last_cumulative));
    assert_eq!(
        head(driver.receiver().side_chain()),
        (1, 6, last_cumulative)
    );

    // Phase 3: settlement pays the receiver exactly the cumulative amount.
    let settlement = driver.close_and_settle().unwrap();
    assert_eq!(settlement.settlement.to_receiver, Wei::from_eth_milli(18));
    assert_eq!(settlement.settlement.to_sender, Wei::from_eth_milli(82));
    assert!(!settlement.settlement.fraud_detected);
    assert_eq!(settlement.receiver_balance, Wei::from_eth_milli(18));

    // Off-chain scaling: 6 payments, but only a handful of chain txs.
    assert!(settlement.on_chain_transactions < 6);
}

#[test]
fn payment_latency_and_energy_are_in_the_papers_regime() {
    let mut driver = ProtocolDriver::smart_parking(Wei::from_eth_milli(100));
    let rounds = driver.run_session(3, Wei::from_eth_milli(2)).unwrap();

    for round in &rounds {
        // Paper: 584 ms average to complete an off-chain payment; the
        // dominant term is the 350 ms hardware ECDSA signature. Our model
        // lands in the same sub-two-second, crypto-dominated regime.
        assert!(round.sender_sign_time >= Duration::from_millis(350));
        assert!(round.end_to_end_latency >= round.sender_sign_time);
        assert!(round.end_to_end_latency < Duration::from_secs(2));
    }

    let energy = driver.sender_energy();
    // Table IV: the crypto engine dominates the round's energy.
    assert!(energy.share_of(PowerState::CryptoEngine) > 0.4);
    // The whole 3-payment session plus channel creation stays within a few
    // hundred millijoules.
    assert!(energy.total_energy_mj() < 300.0);
    // Figure 5: the timeline interleaves radio, CPU, crypto and sleep.
    let timeline = driver.sender_timeline();
    let states: std::collections::BTreeSet<_> =
        timeline.iter().map(|e| format!("{:?}", e.state)).collect();
    assert!(states.len() >= 4, "timeline uses at least 4 power states");
}

#[test]
fn channel_cannot_pay_more_than_the_deposit() {
    let mut driver = ProtocolDriver::smart_parking(Wei::from(100u64));
    driver.publish_template().unwrap();
    driver.open_channel().unwrap();
    driver.pay(Wei::from(60u64)).unwrap();
    let error = driver.pay(Wei::from(60u64)).unwrap_err();
    assert!(matches!(error, ProtocolError::Channel(_)));
    // The channel still settles correctly for the amount that was paid.
    let settlement = driver.close_and_settle().unwrap();
    assert_eq!(settlement.settlement.to_receiver, Wei::from(60u64));
}

#[test]
fn sessions_over_a_lossy_link_still_complete() {
    use tinyevm::channel::{ChannelRole, OffChainNode};
    use tinyevm::net::{LinkConfig, LinkProfile};

    let link = LinkConfig::lossless(LinkProfile::Tsch).with_loss(0.2, 42);
    let mut driver = ProtocolDriver::new(
        OffChainNode::new("lossy-car", ChannelRole::Sender),
        OffChainNode::new("lossy-lot", ChannelRole::Receiver),
        link,
        Wei::from_eth_milli(50),
    );
    let rounds = driver.run_session(2, Wei::from_eth_milli(1)).unwrap();
    assert_eq!(rounds.len(), 2);
    // Retransmissions cost more airtime than the lossless case would need.
    assert!(rounds.iter().all(|r| r.bytes_exchanged > 100));
    let settlement = driver.close_and_settle().unwrap();
    assert_eq!(settlement.settlement.to_receiver, Wei::from_eth_milli(2));
}

#[test]
fn parking_scenario_helper_matches_manual_driving() {
    let mut driver = ProtocolDriver::smart_parking(Wei::from_eth_milli(40));
    let rounds = driver.run_session(3, Wei::from_eth_milli(10)).unwrap();
    let crypto_share = driver.sender_energy().share_of(PowerState::CryptoEngine);
    let settlement = driver.close_and_settle().unwrap();
    assert_eq!(settlement.settlement.to_receiver, Wei::from_eth_milli(30));
    assert_eq!(settlement.settlement.to_sender, Wei::from_eth_milli(10));
    assert_eq!(rounds.len(), 3);
    assert!(crypto_share > 0.3);
}

/// Bytes of the records both nodes of a channel keep for its history:
/// device activities, side-chain entries, peer acknowledgements and round
/// latencies, each counted as entries × the record's size.
fn retained_record_bytes(driver: &ProtocolDriver) -> usize {
    use std::mem::size_of_val;
    use tinyevm::channel::OffChainNode;

    let node_bytes = |node: &OffChainNode, peer: &OffChainNode| {
        let latencies = node.endpoint().latencies(peer.node_addr()).unwrap_or(&[]);
        size_of_val(node.device().activities())
            + size_of_val(node.side_chain().entries())
            + size_of_val(node.peer_signatures())
            + size_of_val(latencies)
    };
    node_bytes(driver.sender(), driver.receiver()) + node_bytes(driver.receiver(), driver.sender())
}

/// A long-lived channel: 100,000 payments, then close and settle. The
/// settlement pays exactly what was paid, both side-chain logs still
/// verify from their anchor, and the records the two nodes keep stay
/// under 750 bytes per payment (744 B: 27 16-byte activities, two 112-byte
/// side-chain entries, a 72-byte ack and a 16-byte latency).
///
/// About 20 s in release:
/// `cargo test --release --test end_to_end_parking -- --ignored`.
#[test]
#[ignore = "soak: 100,000 payments, run in release"]
fn a_hundred_thousand_payments_settle_and_retain_under_750_bytes_each() {
    const PAYMENTS: u64 = 100_000;
    let mut driver = ProtocolDriver::smart_parking(Wei::from_eth(1));
    driver.publish_template().unwrap();
    driver.open_channel().unwrap();
    let mut paid = Wei::ZERO;
    for index in 0..PAYMENTS {
        let amount = Wei::from(1_000_000 + index % 1_000);
        let round = driver.pay(amount).unwrap();
        paid = paid.saturating_add(amount);
        assert_eq!((round.sequence, round.cumulative), (index + 1, paid));
    }

    let settlement = driver.close_and_settle().unwrap();
    assert_eq!(settlement.settlement.to_receiver, paid);
    assert_eq!(settlement.payments_exchanged, PAYMENTS);
    for node in [driver.sender(), driver.receiver()] {
        let log = node.side_chain();
        assert!(log.len() as u64 >= PAYMENTS);
        assert!(log.verify());
        let records = log.export_entries();
        assert_eq!(records[0].previous_hash, log.anchor());
        assert!(tinyevm::channel::SideChainLog::from_parts(log.anchor(), &records).is_some());
    }

    let per_payment = retained_record_bytes(&driver) as f64 / PAYMENTS as f64;
    println!("retained record bytes per payment: {per_payment:.1}");
    assert!(per_payment <= 750.0, "{per_payment:.1} B per payment");
}
