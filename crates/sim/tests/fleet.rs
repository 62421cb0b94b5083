//! Fleet-simulation invariants.
//!
//! * **Lockstep and contended fleets** — both refuse unknown and
//!   quarantined sensors, degrade and quarantine without blocking the
//!   fleet, and settle exactly what was paid, across a save/restore too.
//! * **Two-party equivalence** — a one-sensor contention-free fleet moves
//!   exactly the money a `ProtocolDriver` session moves.
//! * **Determinism** — same seed ⇒ identical fingerprint at any `jobs`
//!   value (proptest over seeds).
//! * **Conservation** — medium busy time = Σ per-sensor airtime +
//!   collision-wasted airtime, to the nanosecond.
//! * **Backoff deadlines** — a partition window spanning exactly the
//!   backoff cap reconverges, and the waits show up on the virtual clock.
//! * **Golden schedules** — digests of contended CSMA, lossy CSMA,
//!   slot-aligned and single-sensor sessions pin the schedules themselves,
//!   not just their agreement with each other.

use std::path::PathBuf;
use std::time::Duration;

use proptest::prelude::*;
use tinyevm_channel::gateway::{GatewaySettlementReport, GATEWAY_ADDR};
use tinyevm_channel::session::{read_session, write_session};
use tinyevm_channel::{
    ChannelEndpoint, ProtocolDriver, ProtocolError, RetryPolicy, SensorHealth, QUARANTINE_THRESHOLD,
};
use tinyevm_net::{FaultConfig, LinkConfig, MessageWindow, NodeAddr};
use tinyevm_sim::{FleetConfig, FleetScheduler};
use tinyevm_types::Wei;
use tinyevm_wire::WireError;

const DEPOSIT: u64 = 1_000_000;
const AMOUNT: u64 = 1_000;

fn run_fleet(config: FleetConfig, rounds: usize) -> FleetScheduler {
    let mut fleet = FleetScheduler::new(config);
    fleet.open_all().expect("channels open");
    fleet.run(rounds, Wei::from(AMOUNT)).expect("rounds run");
    fleet
}

/// The lockstep fleet and a contended one of the same size.
fn both_schemes(sensors: usize, deposit: u64) -> [FleetConfig; 2] {
    [
        FleetConfig::single_slot(sensors),
        FleetConfig::csma(sensors, 5),
    ]
    .map(|mut config| {
        config.deposit = Wei::from(deposit);
        config
    })
}

fn session_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tinyevm-fleet-{tag}-{}.snap", std::process::id()))
}

#[test]
fn fleet_has_distinct_identities_and_addresses() {
    for config in both_schemes(4, DEPOSIT) {
        let fleet = FleetScheduler::new(config);
        // Distinct payment identities; sensors at 1..=N, the gateway apart.
        let mut accounts: Vec<_> = fleet.sensors().iter().map(|s| s.account()).collect();
        accounts.push(fleet.gateway().account());
        accounts.sort();
        accounts.dedup();
        assert_eq!(accounts.len(), 5, "all payment identities are distinct");
        let addrs: Vec<_> = fleet.sensors().iter().map(ChannelEndpoint::addr).collect();
        assert_eq!(addrs, (1..=4).map(NodeAddr::new).collect::<Vec<_>>());
        assert_eq!(fleet.gateway().addr(), GATEWAY_ADDR);
    }
}

#[test]
fn four_sensors_pay_and_settle_on_one_chain() {
    let mut fleet = run_fleet(FleetConfig::single_slot(4), 0);
    fleet.run(3, Wei::from(2_500u64)).expect("rounds run");
    assert_eq!(fleet.rounds().len(), 12);
    // One sensor owns the medium at a time: nothing ever collides.
    assert_eq!(fleet.medium().collision_events(), 0);
    assert_eq!(fleet.medium().collision_airtime(), Duration::ZERO);

    // Every sensor's channel and both side-chain logs advanced.
    for sensor in fleet.sensors() {
        assert_eq!(sensor.channel(GATEWAY_ADDR).unwrap().payments_seen(), 3);
        let log = sensor.side_chain(GATEWAY_ADDR).unwrap();
        assert_eq!(log.len(), 3);
        assert!(log.verify());
        assert_eq!(sensor.peer_acks(GATEWAY_ADDR).unwrap().len(), 3);
        let gateway_log = fleet.gateway().side_chain(sensor.addr()).unwrap();
        assert_eq!(gateway_log.len(), 3);
        assert!(gateway_log.verify());
    }

    let report = fleet.settle_all().expect("fleet settles");
    assert_eq!(report.settlements.len(), 4);
    assert_eq!(report.total_to_gateway, Wei::from(4 * 3 * 2_500u64));
    assert_eq!(report.gateway_balance, report.total_to_gateway);
    for (_, settlement) in &report.settlements {
        assert!(!settlement.fraud_detected);
        assert_eq!(settlement.to_receiver, Wei::from(7_500u64));
    }
    // Each sensor got its unspent deposit back.
    for sensor in fleet.sensors() {
        assert!(fleet.chain().balance(&sensor.account()) >= Wei::from(992_500u64));
    }
}

#[test]
fn payments_must_wait_for_open_all() {
    let out_of_order = |result| matches!(result, Err(ProtocolError::OutOfOrder(_)));
    for config in both_schemes(2, DEPOSIT) {
        let mut fleet = FleetScheduler::new(config);
        assert!(out_of_order(fleet.pay(0, Wei::from(1u64))));
        fleet.open_all().expect("channels open");
        assert!(out_of_order(fleet.open_all()));
        // An index outside the fleet is refused, not a panic.
        assert!(out_of_order(fleet.pay(9, Wei::from(1u64))));
    }
}

#[test]
fn repeated_violations_quarantine_one_sensor_without_blocking_the_fleet() {
    for config in both_schemes(4, 10_000) {
        let mut fleet = run_fleet(config, 0);
        fleet.run(1, Wei::from(2_000u64)).expect("first round runs");
        // Sensor 1 repeatedly tries to overdraw its deposit — a channel
        // rule violation, refused every time with a typed error.
        for _ in 0..QUARANTINE_THRESHOLD {
            let error = fleet.pay(1, Wei::from(50_000u64)).unwrap_err();
            assert!(matches!(error, ProtocolError::Channel(_)));
        }
        assert_eq!(fleet.sensor_health(1), Some(SensorHealth::Quarantined));
        assert_eq!(fleet.quarantined_count(), 1);
        // Further payments by the quarantined sensor are refused outright
        // and record no round.
        assert!(matches!(
            fleet.pay(1, Wei::from(100u64)),
            Err(ProtocolError::Quarantined { sensor }) if sensor == NodeAddr::new(2)
        ));
        assert_eq!(fleet.rounds().len(), 4);
        // The rest of the fleet keeps paying (run skips the quarantined
        // sensor) and settles normally.
        fleet.run(1, Wei::from(2_000u64)).expect("round runs");
        assert_eq!(fleet.rounds().len(), 7);
        let report = fleet.settle_all().expect("fleet settles");
        assert_eq!(report.settlements.len(), 3, "quarantined sensor excluded");
        // Healthy sensors paid two rounds, the quarantined one only the
        // first — and its first-round payment is NOT settled (its channel
        // stays open for a later unilateral challenge).
        assert_eq!(report.total_to_gateway, Wei::from(3 * 2 * 2_000u64));
        let summaries = fleet.sensor_summaries();
        assert_eq!(summaries[1].health, SensorHealth::Quarantined);
        assert_eq!(summaries[1].violations, QUARANTINE_THRESHOLD);
        assert!(summaries
            .iter()
            .enumerate()
            .all(|(i, s)| i == 1 || s.health == SensorHealth::Healthy));
    }
}

#[test]
fn a_partitioned_sensor_degrades_and_recovers() {
    let mut fleet = run_fleet(FleetConfig::single_slot(3), 0);
    fleet.run(1, Wei::from(500u64)).expect("clean round runs");
    // Partition sensor 0 permanently; its round aborts after the retry
    // budget and the health state records the degradation.
    fleet
        .set_sensor_faults(
            0,
            FaultConfig {
                partition: Some(MessageWindow {
                    from_message: 0,
                    to_message: u64::MAX,
                }),
                ..FaultConfig::quiet(5)
            },
        )
        .expect("sensor 0 exists");
    fleet.run(1, Wei::from(500u64)).expect("round runs");
    assert_eq!(fleet.sensor_health(0), Some(SensorHealth::Degraded));
    let violations = fleet.sensor_summaries()[0].violations;
    assert_eq!(violations, 0, "transport trouble never counts");
    // The other sensors were unaffected.
    assert_eq!(fleet.sensor_health(1), Some(SensorHealth::Healthy));
    // The partition lifts; the next clean round restores the sensor.
    fleet.clear_sensor_faults(0).expect("sensor 0 exists");
    fleet.run(1, Wei::from(500u64)).expect("the sensor rejoins");
    assert_eq!(fleet.sensor_health(0), Some(SensorHealth::Healthy));
    let report = fleet.settle_all().expect("fleet settles");
    assert_eq!(report.settlements.len(), 3);
    // Nothing was lost: sensor 0 had already signed the partitioned
    // round's payment, so its cumulative value folded into the next
    // successful payment and the gateway settles for all 3 × 3 rounds.
    assert_eq!(report.total_to_gateway, Wei::from(3 * 3 * 500u64));
    assert!(matches!(
        fleet.set_sensor_faults(3, FaultConfig::quiet(5)),
        Err(ProtocolError::OutOfOrder("no such sensor"))
    ));
}

#[test]
fn per_sensor_statistics_are_reported_and_sum_to_the_medium() {
    for config in both_schemes(4, DEPOSIT) {
        let fleet = run_fleet(config, 2);
        let summaries = fleet.sensor_summaries();
        assert_eq!(summaries.len(), 4);
        let mut wire_total = 0u64;
        for summary in &summaries {
            assert_eq!(summary.payments, 2);
            assert_eq!(summary.paid, Wei::from(2 * AMOUNT));
            assert!(summary.mean_latency > Duration::from_millis(300));
            assert!(summary.energy_mj > 1.0);
            assert!(summary.wire.uplink_wire_bytes > 0);
            assert!(summary.wire.downlink_wire_bytes > 0);
            wire_total += summary.wire.wire_bytes();
        }
        assert_eq!(wire_total, fleet.medium().inner().total_wire_bytes());
    }
}

#[test]
fn settlement_batch_verifies_every_close_signature_in_one_pass() {
    // The gateway device's activity log shows exactly one batched
    // verification covering all N channels, on either schedule.
    for config in both_schemes(3, DEPOSIT) {
        let mut fleet = run_fleet(config, 1);
        fleet.settle_all().expect("fleet settles");
        let activities = fleet.gateway().device().activities();
        let batches = activities
            .iter()
            .filter(|a| a.label.as_str() == "batch verify payloads");
        assert_eq!(batches.count(), 1, "one Straus pass for the whole fleet");
    }
}

/// Save after two rounds, restore into a fresh fleet, pay a third round:
/// every channel settles for exactly what its sensor paid in both lives.
fn power_cycle_round_trip(config: FleetConfig, tag: &str) {
    let sensors = config.sensors;
    let path = session_path(tag);
    let first_life = run_fleet(config.clone(), 2);
    first_life.save_session(&path).expect("session saves");

    let mut resumed = FleetScheduler::new(config);
    resumed.restore_session(&path).expect("session restores");
    std::fs::remove_file(&path).expect("session file exists");
    let root = first_life.chain().state_root();
    assert_eq!(resumed.chain().state_root(), root);
    for (restored, original) in resumed.sensors().iter().zip(first_life.sensors()) {
        assert_eq!(
            restored.channel(GATEWAY_ADDR).unwrap().cumulative(),
            original.channel(GATEWAY_ADDR).unwrap().cumulative()
        );
        assert!(restored.side_chain(GATEWAY_ADDR).unwrap().verify());
        // Measurement history belongs to the lost process.
        assert!(restored.latencies(GATEWAY_ADDR).unwrap().is_empty());
    }
    assert!(resumed.rounds().is_empty());
    assert!(matches!(
        resumed.open_all(),
        Err(ProtocolError::OutOfOrder(_))
    ));

    // The fleet keeps paying and settles for everything.
    resumed
        .run(1, Wei::from(AMOUNT))
        .expect("resumed fleet pays");
    assert_eq!(resumed.rounds().len(), sensors);
    let report = resumed.settle_all().expect("resumed fleet settles");
    assert_eq!(report.settlements.len(), sensors);
    for (_, settlement) in &report.settlements {
        assert_eq!(settlement.to_receiver, Wei::from(3 * AMOUNT));
        assert!(!settlement.fraud_detected);
    }
}

#[test]
fn multi_session_state_survives_a_power_cycle() {
    power_cycle_round_trip(FleetConfig::single_slot(3), "single-slot");
}

#[test]
fn a_csma_session_survives_a_power_cycle_and_settles_what_was_paid() {
    power_cycle_round_trip(FleetConfig::csma(6, 0x5E55), "csma");
}

#[test]
fn foreign_or_incomplete_session_files_are_rejected() {
    let path = session_path("bad");
    let mut fleet = run_fleet(FleetConfig::single_slot(2), 0);
    fleet.pay(0, Wei::from(100u64)).expect("payment lands");
    fleet.save_session(&path).expect("session saves");
    let gateway = fleet.gateway().account();
    let parties: Vec<_> = fleet
        .sensors()
        .iter()
        .map(|s| (s.account(), gateway))
        .collect();
    let (_, channels) = read_session(&path, &parties).expect("the saved file validates");
    let refusal = |sensors: usize| {
        let mut resumed = FleetScheduler::new(FleetConfig::single_slot(sensors));
        let error = resumed.restore_session(&path).unwrap_err();
        // A refusal changes nothing: the fleet still opens.
        resumed
            .open_all()
            .expect("a refused restore leaves it unopened");
        error
    };
    let truncated = |error| matches!(error, ProtocolError::Wire(WireError::Truncated));
    let invalid = |error| matches!(error, ProtocolError::Wire(WireError::Value(_)));

    // A fleet of a different size must refuse the file.
    assert!(truncated(refusal(3)));
    // A chain-snapshot-only file is incomplete.
    write_session(&path, fleet.chain(), []).expect("file writes");
    assert!(truncated(refusal(2)));
    // The receiver's half from a session with another deposit: the two
    // endpoint snapshots describe different channels.
    let mut other = FleetConfig::single_slot(2);
    other.deposit = Wei::from(2 * DEPOSIT);
    let foreign_half = run_fleet(other, 0).gateway().snapshot(NodeAddr::new(1));
    let mut spliced = channels.clone();
    spliced[0].1 = foreign_half.expect("channel open");
    write_session(&path, fleet.chain(), spliced).expect("file writes");
    assert!(invalid(refusal(2)));
    // Templates the chain never saw.
    let unopened = FleetScheduler::new(FleetConfig::single_slot(2));
    write_session(&path, unopened.chain(), channels).expect("file writes");
    assert!(invalid(refusal(2)));
    std::fs::remove_file(&path).expect("session file exists");
}

/// A close the gateway refuses is booked against its sensor the way `run`
/// books a refused payment, and never blocks the rest of the lockstep
/// fleet's settlement. Under 20% frame corruption sensor 0's third round
/// aborts before the gateway accepts it, while the sensor's own channel
/// already counts the payment, so its close proposes a state the gateway's
/// side never reached; the gateway refuses it, that channel stays open and
/// the other seven settle.
#[test]
fn a_refused_close_never_blocks_the_rest_of_the_lockstep_fleet() {
    let sensors = 8;
    let mut fleet = run_fleet(FleetConfig::single_slot(sensors), 0);
    for index in 0..sensors {
        let plan = FaultConfig {
            corrupt_rate: 0.2,
            ..FaultConfig::quiet(400 + index as u64)
        };
        fleet.set_sensor_faults(index, plan).expect("sensor exists");
    }
    fleet.run(3, Wei::from(AMOUNT)).expect("rounds run");
    for index in 0..sensors {
        fleet.clear_sensor_faults(index).expect("sensor exists");
    }
    let before = fleet.sensor_summaries();
    let report = fleet.settle_all().expect("the other channels settle");
    assert_eq!(
        report.settlements.len(),
        sensors - 1,
        "one close is refused"
    );
    for (addr, settlement) in &report.settlements {
        let gateway_side = fleet.gateway().channel(*addr).expect("channel");
        assert_eq!(settlement.to_receiver, gateway_side.cumulative());
    }
    for (before, after) in before.iter().zip(fleet.sensor_summaries()) {
        let settled = report
            .settlements
            .iter()
            .any(|(addr, _)| *addr == after.addr);
        assert_eq!(
            after.violations,
            before.violations + u32::from(!settled),
            "sensor {}",
            after.addr
        );
    }
}

/// Channel-open proposals and close requests get no reply: one parked at
/// a busy gateway leaves its sender quiescent, yet the phase must handle
/// it, or `open_all` returns with a channel unopened (8 sensors, seed 0)
/// and `settle_all` silently leaves a channel out (32 sensors, seed 15).
#[test]
fn a_frame_parked_at_a_busy_gateway_is_handled_before_the_phase_ends() {
    let opened = run_fleet(FleetConfig::csma(8, 0), 0);
    let gateway = opened.gateway();
    assert!(opened
        .sensors()
        .iter()
        .all(|s| gateway.channel(s.addr()).is_some()));
    let sensors = 32;
    let mut fleet = run_fleet(FleetConfig::csma(sensors, 15), 1);
    let report = fleet.settle_all().expect("fleet settles");
    assert_eq!(report.settlements.len(), sensors);
    assert_eq!(report.total_to_gateway, Wei::from(AMOUNT * sensors as u64));
    assert_eq!(fleet.medium().inner().rx_queue_depth(), 0);
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
