//! Fleet-simulation invariants.
//!
//! * **Lockstep equivalence** — the contention-free single-slot schedule
//!   is byte-identical to the legacy `GatewayDriver` (clocks, rounds,
//!   medium accounting, settlement).
//! * **Two-party equivalence** — a one-sensor contention-free fleet moves
//!   exactly the money a `ProtocolDriver` session moves.
//! * **Determinism** — same seed ⇒ identical fingerprint at any `jobs`
//!   value (proptest over seeds).
//! * **Conservation** — medium busy time = Σ per-sensor airtime +
//!   collision-wasted airtime, to the nanosecond.
//! * **Backoff deadlines** — a partition window spanning exactly the
//!   backoff cap reconverges, and the waits show up on the virtual clock.
//! * **Golden schedules** — digests of contended CSMA, lossy CSMA, slotted
//!   ALOHA, slot-aligned and single-sensor sessions pin the schedules
//!   themselves, not just their agreement with each other.

use std::time::Duration;

use proptest::prelude::*;
use tinyevm_channel::gateway::{GatewayDriver, GatewaySettlementReport};
use tinyevm_channel::{ProtocolDriver, RetryPolicy};
use tinyevm_net::{FaultConfig, LinkConfig, MessageWindow};
use tinyevm_sim::{FleetConfig, FleetScheduler};
use tinyevm_types::Wei;

const DEPOSIT: u64 = 1_000_000;
const AMOUNT: u64 = 1_000;

fn run_fleet(config: FleetConfig, rounds: usize) -> FleetScheduler {
    let mut fleet = FleetScheduler::new(config);
    fleet.open_all().expect("channels open");
    fleet.run(rounds, Wei::from(AMOUNT)).expect("rounds run");
    fleet
}

#[test]
fn single_slot_fleet_is_byte_identical_to_gateway_driver() {
    let sensors = 4;
    let rounds = 2;

    let mut driver = GatewayDriver::new(sensors, LinkConfig::default(), Wei::from(DEPOSIT));
    driver.open_all().expect("driver opens");
    driver.run(rounds, Wei::from(AMOUNT)).expect("driver runs");

    let mut config = FleetConfig::single_slot(sensors);
    config.deposit = Wei::from(DEPOSIT);
    let mut fleet = run_fleet(config, rounds);

    // Every virtual clock agrees to the nanosecond.
    for (node, endpoint) in driver.sensors().iter().zip(fleet.sensors()) {
        assert_eq!(
            node.device().now(),
            endpoint.device().now(),
            "sensor {} clock diverged",
            endpoint.addr()
        );
    }
    assert_eq!(
        driver.gateway().device().now(),
        fleet.gateway().device().now(),
        "gateway clock diverged"
    );

    // Every payment round agrees field for field.
    assert_eq!(driver.rounds().len(), fleet.rounds().len());
    for (a, b) in driver.rounds().iter().zip(fleet.rounds()) {
        assert_eq!(a.sensor, b.sensor);
        assert_eq!(a.sequence, b.sequence);
        assert_eq!(a.cumulative, b.cumulative);
        assert_eq!(a.end_to_end_latency, b.end_to_end_latency);
        assert_eq!(a.bytes_exchanged, b.bytes_exchanged);
    }

    // The medium moved the same bytes for the same airtime.
    let inner = fleet.medium().inner();
    assert_eq!(driver.medium().total_messages(), inner.total_messages());
    assert_eq!(driver.medium().total_wire_bytes(), inner.total_wire_bytes());
    assert_eq!(driver.medium().total_airtime(), inner.total_airtime());
    assert_eq!(fleet.medium().collision_events(), 0);
    assert_eq!(fleet.medium().collision_airtime(), Duration::ZERO);

    // Settlement is identical on both chains.
    let a = driver.settle_all().expect("driver settles");
    let b = fleet.settle_all().expect("fleet settles");
    assert_eq!(a.total_to_gateway, b.total_to_gateway);
    assert_eq!(a.gateway_balance, b.gateway_balance);
    assert_eq!(a.on_chain_transactions, b.on_chain_transactions);
    assert_eq!(a.settlements.len(), b.settlements.len());
    for ((addr_a, s_a), (addr_b, s_b)) in a.settlements.iter().zip(&b.settlements) {
        assert_eq!(addr_a, addr_b);
        assert_eq!(s_a.to_receiver, s_b.to_receiver);
        assert_eq!(s_a.to_sender, s_b.to_sender);
    }
}

#[test]
fn one_sensor_contention_free_fleet_moves_protocol_driver_money() {
    let payments = 3;

    let mut driver = ProtocolDriver::smart_parking(Wei::from(DEPOSIT));
    driver.publish_template().expect("template publishes");
    driver.open_channel().expect("channel opens");
    for _ in 0..payments {
        driver.pay(Wei::from(AMOUNT)).expect("payment lands");
    }
    let outcome = driver.close_and_settle().expect("settles");

    let mut config = FleetConfig::single_slot(1);
    config.deposit = Wei::from(DEPOSIT);
    let mut fleet = run_fleet(config, payments);
    let report = fleet.settle_all().expect("fleet settles");

    // Same money state: sequences, cumulative and what the chain paid out.
    assert_eq!(fleet.rounds().len(), payments);
    for (index, round) in fleet.rounds().iter().enumerate() {
        assert_eq!(round.sequence, index as u64 + 1);
        assert_eq!(round.cumulative, Wei::from(AMOUNT * (index as u64 + 1)));
    }
    assert_eq!(
        outcome.settlement.to_receiver,
        report.settlements[0].1.to_receiver
    );
    assert_eq!(report.total_to_gateway, Wei::from(AMOUNT * payments as u64));
}

#[test]
fn csma_fleet_settles_every_sensor_under_contention() {
    let sensors = 16;
    let rounds = 2;
    let mut config = FleetConfig::csma(sensors, 0xC0FFEE);
    config.deposit = Wei::from(DEPOSIT);
    let mut fleet = run_fleet(config, rounds);

    assert_eq!(
        fleet.rounds().len(),
        sensors * rounds,
        "every sensor completes every round"
    );
    assert_eq!(fleet.aborted_rounds(), 0);
    assert!(
        fleet.medium().collision_events() > 0,
        "16 sensors starting at once must collide at least once"
    );

    let report = fleet.settle_all().expect("fleet settles");
    assert_eq!(report.settlements.len(), sensors);
    assert_eq!(
        report.total_to_gateway,
        Wei::from(AMOUNT * (sensors * rounds) as u64)
    );
}

#[test]
fn medium_airtime_is_conserved_under_contention() {
    let mut config = FleetConfig::csma(8, 7);
    config.deposit = Wei::from(DEPOSIT);
    let fleet = run_fleet(config, 2);

    let medium = fleet.medium();
    let per_endpoint: Duration = fleet
        .sensors()
        .iter()
        .map(|sensor| {
            medium
                .stats(sensor.addr())
                .map(|stats| stats.airtime)
                .unwrap_or_default()
        })
        .sum();
    // Successful transfers attribute their airtime to an endpoint; what
    // collisions wasted is tracked separately. Nothing else may burn air.
    assert_eq!(medium.inner().total_airtime(), per_endpoint);
    assert_eq!(
        medium.total_busy_airtime(),
        per_endpoint + medium.collision_airtime()
    );
    assert!(medium.collision_events() > 0, "contention must occur");
    assert!(medium.collision_airtime() > Duration::ZERO);
}

fn fleet_fingerprint(sensors: usize, seed: u64, jobs: usize) -> String {
    let mut config = FleetConfig::csma(sensors, seed);
    config.deposit = Wei::from(DEPOSIT);
    config.jobs = jobs;
    let mut fleet = run_fleet(config, 1);
    fleet.settle_all().expect("fleet settles");
    fleet.fingerprint()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Same seed ⇒ byte-identical outcome at any `--jobs` value: the
    /// worker-thread count may only change host wall-clock, never a single
    /// simulated byte.
    #[test]
    fn fingerprint_is_identical_across_jobs(seed in 1u64..u64::MAX) {
        let baseline = fleet_fingerprint(6, seed, 1);
        for jobs in [2usize, 8] {
            prop_assert_eq!(&baseline, &fleet_fingerprint(6, seed, jobs));
        }
    }
}

/// The headline scale point: 1024 sensors all contending on one CSMA
/// medium, every round completing and every channel settling. Ignored by
/// default (it needs a release build to be quick); the experiments binary
/// runs the same sweep point.
#[test]
#[ignore = "release-scale sweep; run with --release -- --ignored"]
fn kilo_sensor_fleet_settles_under_csma() {
    let sensors = 1024;
    let mut config = FleetConfig::csma(sensors, 99);
    config.deposit = Wei::from(DEPOSIT);
    config.jobs = 8;
    let mut fleet = run_fleet(config, 1);
    assert_eq!(fleet.rounds().len(), sensors, "every sensor pays");
    assert_eq!(fleet.aborted_rounds(), 0);
    assert!(fleet.medium().collision_events() > 0);
    let report = fleet.settle_all().expect("kilofleet settles");
    assert_eq!(report.settlements.len(), sensors);
    assert_eq!(report.total_to_gateway, Wei::from(AMOUNT * sensors as u64));
}

#[test]
fn different_seeds_produce_different_schedules() {
    assert_ne!(fleet_fingerprint(6, 11, 1), fleet_fingerprint(6, 12, 1));
}

/// FNV-1a over the fleet's `fingerprint()` and every settlement: a slot
/// drawn differently, a clock moved by a nanosecond or a payout changed by
/// a wei changes the value.
fn golden_digest(fleet: &FleetScheduler, settlement: &GatewaySettlementReport) -> u64 {
    let mut text = fleet.fingerprint();
    for (addr, settled) in &settlement.settlements {
        text.push_str(&format!(
            "settlement {addr} {} {} {}\n",
            settled.to_receiver, settled.to_sender, settled.fraud_detected
        ));
    }
    text.push_str(&format!(
        "total {} balance {} txs {}\n",
        settlement.total_to_gateway, settlement.gateway_balance, settlement.on_chain_transactions
    ));
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

// Golden schedules. Every other test here compares runs with each other, so
// a change that shifted every schedule alike would pass them; these pin the
// contended schedules themselves. The digests were captured before the
// event loop learned to jump over idle slots and must never be edited to
// follow a code change: a mismatch means the simulation changed.

#[test]
fn golden_csma_fleet_schedule() {
    let mut config = FleetConfig::csma(16, 0xC0FFEE);
    config.deposit = Wei::from(DEPOSIT);
    let mut fleet = run_fleet(config, 2);
    let settlement = fleet.settle_all().expect("fleet settles");
    assert_eq!(golden_digest(&fleet, &settlement), 0x4905_ba20_12f9_d67f);
}

/// Lost frames exhaust their link retries: senders take the
/// `on_transport_error` back-off path, the gateway retransmits replies, and
/// a two-attempt budget aborts a round and degrades its sensor.
#[test]
fn golden_lossy_csma_fleet_schedule() {
    let mut config = FleetConfig::csma(8, 0x1055);
    config.deposit = Wei::from(DEPOSIT);
    config.link = LinkConfig {
        max_retries: 1,
        ..LinkConfig::default().with_loss(0.3, 17)
    };
    config.retry = Some(RetryPolicy {
        max_attempts: 2,
        base_backoff: Duration::from_millis(100),
        max_backoff: Duration::from_millis(400),
    });
    let mut fleet = run_fleet(config, 2);
    assert!(
        fleet.aborted_rounds() > 0,
        "the lossy link must abort a round"
    );
    let settlement = fleet.settle_all().expect("fleet settles");
    assert_eq!(golden_digest(&fleet, &settlement), 0xa7f4_49fa_5866_6a43);
}

#[test]
fn golden_slotted_aloha_fleet_schedule() {
    let mut config = FleetConfig::aloha(12, 0.2, 0xA10A);
    config.deposit = Wei::from(DEPOSIT);
    let mut fleet = run_fleet(config, 2);
    assert!(fleet.medium().collision_events() > 0, "ALOHA must collide");
    let settlement = fleet.settle_all().expect("fleet settles");
    assert_eq!(golden_digest(&fleet, &settlement), 0x1bc3_45da_2c82_1aff);
}

/// A link whose every uplink frame takes exactly one contention slot: each
/// delivery lands on a slot boundary, so deliveries and slots tie to the
/// nanosecond and only their scheduling order separates them.
#[test]
fn golden_slot_aligned_deliveries() {
    let mut config = FleetConfig::csma(8, 0x71E5);
    config.deposit = Wei::from(DEPOSIT);
    config.link = LinkConfig {
        bitrate: 8_000_000_000_000,
        frame_overhead: config.contention.slot,
        ..LinkConfig::default()
    };
    let mut fleet = run_fleet(config, 2);
    let settlement = fleet.settle_all().expect("fleet settles");
    assert_eq!(golden_digest(&fleet, &settlement), 0xacdd_7271_944e_a554);
}

/// `pay()` on one sensor of a contended fleet: the event loop runs with a
/// single active sender.
#[test]
fn golden_contended_single_sensor_payment() {
    let mut config = FleetConfig::csma(4, 0x5EED);
    config.deposit = Wei::from(DEPOSIT);
    let mut fleet = run_fleet(config, 0);
    fleet.pay(2, Wei::from(AMOUNT)).expect("payment lands");
    fleet
        .pay(2, Wei::from(AMOUNT))
        .expect("second payment lands");
    let settlement = fleet.settle_all().expect("fleet settles");
    assert_eq!(golden_digest(&fleet, &settlement), 0xf5a6_1844_ba62_25ec);
}

/// Satellite regression for deadline-based retransmission: a partition
/// window that swallows every transmission until the exponential backoff
/// reaches its cap must reconverge on the attempt that fires at the cap
/// deadline — and those waits must be visible on the virtual clock.
#[test]
fn partition_window_of_exactly_the_backoff_cap_reconverges() {
    let policy = RetryPolicy {
        max_attempts: 5,
        base_backoff: Duration::from_millis(200),
        max_backoff: Duration::from_millis(800),
    };
    let mut driver = ProtocolDriver::smart_parking(Wei::from(DEPOSIT));
    driver.set_retry_policy(policy);
    driver.publish_template().expect("template publishes");
    driver.open_channel().expect("channel opens");
    driver.pay(Wei::from(AMOUNT)).expect("clean payment lands");

    // Swallow the next 4 transfers: attempts back off 200 → 400 → 800 ms,
    // so the link heals exactly when the doubled backoff hits the cap and
    // the final budgeted attempt carries the payment.
    let conveyed = driver.messages_conveyed();
    driver
        .set_link_faults(FaultConfig {
            partition: Some(MessageWindow {
                from_message: conveyed,
                to_message: conveyed + 4,
            }),
            ..FaultConfig::quiet(0)
        })
        .expect("fault plan is valid");

    let before = driver.sender().device().now();
    driver.pay(Wei::from(AMOUNT)).expect("round reconverges");
    let waited = driver.sender().device().now() - before;
    assert!(
        waited >= Duration::from_millis(200 + 400 + 800),
        "the backoff ladder up to the cap must run on the virtual clock \
         (only {waited:?} elapsed)"
    );

    driver.clear_link_faults();
    let outcome = driver.close_and_settle().expect("settles after healing");
    assert_eq!(outcome.settlement.to_receiver, Wei::from(2 * AMOUNT));
}
