//! A seeded fault storm over both deployment shapes, ending in clean
//! settlements: the robustness story of the protocol in one run.
//!
//! A two-party channel pays through a link that corrupts, duplicates,
//! reorders and replays frames on top of 10% loss — every payment either
//! lands (after retransmissions) or aborts with a typed error that leaves
//! committed state untouched. Then a four-sensor fleet rides out a
//! partitioned sensor and quarantines a misbehaving one, and the healthy
//! channels still settle on-chain (the quarantined channel stays open for
//! a later unilateral challenge).
//!
//! Everything is seeded and virtual-clock: running this twice prints
//! byte-identical output.
//!
//! ```sh
//! cargo run --release --example chaos
//! ```

use tinyevm::channel::{CrashSchedule, EndpointError, ProtocolError};
use tinyevm::net::{FaultConfig, MessageWindow};
use tinyevm::prelude::*;
use tinyevm::sim::{FleetConfig, FleetScheduler};

fn main() {
    two_party_storm();
    fleet_degradation();
}

/// One payment channel, one very bad link, one power cycle.
fn two_party_storm() {
    println!("=== two-party channel through a fault storm ===");
    let link = LinkConfig::default().with_loss(0.10, 42);
    let mut driver = ProtocolDriver::smart_parking_with_link(link, Wei::from(1_000_000u64));
    driver.publish_template().expect("template publishes");
    driver.open_channel().expect("channel opens");
    driver
        .set_link_faults(FaultConfig {
            corrupt_rate: 0.06,
            duplicate_rate: 0.08,
            reorder_rate: 0.06,
            replay_rate: 0.04,
            ..FaultConfig::quiet(0xC4A05)
        })
        .expect("fault rates are valid");
    // And, for good measure, power-cycle the receiver mid-session.
    driver.schedule_crash(CrashSchedule {
        target: driver.receiver().node_addr(),
        after_message: driver.messages_conveyed() + 9,
    });

    for round in 1..=6 {
        match driver.pay(Wei::from(1_000u64)) {
            Ok(report) => println!(
                "  round {round}: paid, sequence {} ({} wire bytes, {:.1} ms end to end)",
                report.sequence,
                report.bytes_exchanged,
                report.end_to_end_latency.as_secs_f64() * 1000.0
            ),
            Err(ProtocolError::Endpoint(EndpointError::RoundAborted { attempts, .. })) => {
                println!("  round {round}: aborted after {attempts} attempts — state unchanged")
            }
            Err(ProtocolError::Crashed { node }) => {
                println!("  round {round}: node {node} power-cycled at a crash point");
                driver.power_cycle(node).expect("flash state survives");
                driver.resume().expect("session reconverges from flash");
                println!("           rebooted from flash and reconverged");
            }
            Err(error) => panic!("the storm must only produce typed aborts: {error}"),
        }
    }

    driver.clear_link_faults();
    driver
        .pay(Wei::from(1_000u64))
        .expect("a clean link always pays");
    let report = driver.close_and_settle().expect("the channel settles");
    println!(
        "  settled: {} wei to the receiver over {} on-chain transactions\n",
        report.settlement.to_receiver.amount(),
        report.on_chain_transactions
    );
}

/// Four sensors, one gateway: a partition and a quarantine, then partial
/// settlement of the healthy channels.
fn fleet_degradation() {
    println!("=== fleet degradation: partition + quarantine ===");
    let mut fleet = FleetScheduler::new(FleetConfig::single_slot(4));
    fleet.open_all().expect("all channels open");

    // Sensor 0 drops off the network entirely.
    fleet
        .set_sensor_faults(
            0,
            FaultConfig {
                partition: Some(MessageWindow {
                    from_message: 0,
                    to_message: u64::MAX,
                }),
                ..FaultConfig::quiet(7)
            },
        )
        .expect("sensor 0 exists");
    fleet
        .run(2, Wei::from(750u64))
        .expect("the fleet pays around the dead sensor");

    // Sensor 2 repeatedly tries to overdraw its deposit — violations, not
    // transport noise — until the gateway quarantines it.
    for _ in 0..tinyevm::channel::QUARANTINE_THRESHOLD {
        let refused = fleet.pay(2, Wei::from(50_000_000u64));
        assert!(refused.is_err(), "an overdraw is always refused");
    }

    // The partition heals; the fleet runs one more round.
    fleet.clear_sensor_faults(0).expect("sensor 0 exists");
    fleet
        .run(1, Wei::from(750u64))
        .expect("the recovered sensor rejoins");

    for (index, summary) in fleet.sensor_summaries().iter().enumerate() {
        println!(
            "  sensor {index}: {:?} ({} violations), paid {} wei in {} payments",
            summary.health,
            summary.violations,
            summary.paid.amount(),
            summary.payments
        );
    }

    let report = fleet.settle_all().expect("healthy channels settle");
    println!(
        "  settled {} of 4 channels for {} wei total; {} quarantined channel stays open",
        report.settlements.len(),
        report.total_to_gateway.amount(),
        fleet.quarantined_count()
    );
}
