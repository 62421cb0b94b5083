//! `fleet_csma` — `FleetScheduler` with 256 sensors under
//! `FleetConfig::csma` at `jobs = 1`.
//!
//! * **Shape.** A closed loop of 256 clients behind a per-round barrier:
//!   every sensor pays once per round, the next round starts when the last
//!   payment of this one is acknowledged, and `settle_all` closes the run.
//!   The seed is the CSMA medium seed (and picks each round's amount). An
//!   op is one acknowledged payment.
//! * **Set-up.** Build the fleet, open all 256 channels and run one warm-up
//!   round. Done five times, spread over the run; `setup_s` is the median.
//! * **Loads.** The only workload on the sim event loop and the contending
//!   medium (~149 slots per payment, ~81% of frames collide), on the serial
//!   gateway that sets virtual goodput, and on `verify_batch` at
//!   settlement. 256 sensors keep the backlog regime of the 1,024-sensor
//!   sweep while each round stays a host window of well under a second.
//! * **Bypasses.** Cold-code analysis (every channel runs one contract) and
//!   the two-party profile's reading exchange.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use tinyevm_channel::NodeAddr;
use tinyevm_device::{Device, PowerState};
use tinyevm_sim::{FleetConfig, FleetScheduler};
use tinyevm_types::Wei;

use crate::corpus;
use crate::measure::{
    median, millis, mix, peak_rss_mb, setup_schedule, tail, traced_window, Digest, Metrics,
    Options, Outcome, Source, Windows,
};
use crate::replay::{self, PerOp, Shape};

const SENSORS: usize = 256;
/// Nominal host rounds per second at 256 sensors; sizes the fixed work.
const NOMINAL_ROUNDS_PER_S: f64 = 2.0;
const STATES: [PowerState; 5] = [
    PowerState::CryptoEngine,
    PowerState::CpuActive,
    PowerState::Tx,
    PowerState::Rx,
    PowerState::Lpm2,
];

/// The amount every sensor pays in round `round`.
pub fn amount(seed: u64, round: u64) -> Wei {
    Wei::from(1 + mix(seed ^ 0xF1EE7, round) % 1_000)
}

fn fail(error: impl std::fmt::Display) -> String {
    format!("fleet session: {error}")
}

fn devices(scheduler: &FleetScheduler) -> impl Iterator<Item = &Device> {
    scheduler
        .sensors()
        .iter()
        .chain(std::iter::once(scheduler.gateway()))
        .map(|endpoint| endpoint.device())
}

/// Fleet-wide energy (mJ) and residency per power state.
fn energy(scheduler: &FleetScheduler) -> (f64, [Duration; 5]) {
    let mut total = 0.0;
    let mut times = [Duration::ZERO; 5];
    for device in devices(scheduler) {
        let report = device.energy_report();
        total += report.total_energy_mj();
        for (slot, state) in times.iter_mut().zip(STATES) {
            *slot += report.time_of(state);
        }
    }
    (total, times)
}

fn retained(scheduler: &FleetScheduler) -> usize {
    let endpoints = scheduler
        .sensors()
        .iter()
        .chain(std::iter::once(scheduler.gateway()));
    endpoints
        .map(|endpoint| {
            let device = endpoint.device();
            let peers: usize = endpoint
                .peers()
                .map(|peer| {
                    endpoint.side_chain(peer).map_or(0, |log| log.len())
                        + endpoint.peer_acks(peer).map_or(0, <[_]>::len)
                })
                .sum();
            device.activities().len() + device.timeline().len() + peers
        })
        .sum()
}

fn activity_marks(scheduler: &FleetScheduler) -> Vec<usize> {
    devices(scheduler).map(|d| d.activities().len()).collect()
}

fn activities_since(scheduler: &FleetScheduler, marks: &[usize], labels: &[&str]) -> usize {
    devices(scheduler)
        .zip(marks)
        .map(|(device, from)| {
            device.activities()[*from..]
                .iter()
                .filter(|a| labels.is_empty() || labels.contains(&a.label.as_str()))
                .count()
        })
        .sum()
}

fn retransmissions(scheduler: &FleetScheduler) -> u64 {
    scheduler
        .sensors()
        .iter()
        .filter_map(|sensor| scheduler.medium().stats(sensor.addr()).ok())
        .map(|stats| stats.retransmissions)
        .sum()
}

/// Host costs of the sim layer, measured on a fleet.
pub struct SimLayer {
    pub open_all_ms: f64,
    pub round_ms: f64,
    pub ns_per_slot: f64,
    pub settle_ms: f64,
}

impl SimLayer {
    pub fn push(&self, layers: &mut Metrics, source: Source) {
        layers.push("sim.round_ms", "ms", self.round_ms, source);
        layers.push("sim.host_ns_per_slot", "ns", self.ns_per_slot, source);
        layers.push("sim.open_all_ms", "ms", self.open_all_ms, source);
    }
}

/// The sim layer timed on a small CSMA fleet, for traced runs of the
/// workloads that bypass it.
pub fn reference(options: &Options) -> Result<SimLayer, String> {
    let sensors = if options.tiny { 4 } else { 16 };
    let mut scheduler = FleetScheduler::new(FleetConfig::csma(sensors, options.seed));
    let start = Instant::now();
    scheduler.open_all().map_err(fail)?;
    let open_all_ms = millis(start.elapsed());
    let slots = scheduler.medium().slots_elapsed();
    let start = Instant::now();
    scheduler.run(2, amount(options.seed, 0)).map_err(fail)?;
    let elapsed = start.elapsed();
    let slots = scheduler.medium().slots_elapsed() - slots;
    let start = Instant::now();
    scheduler.settle_all().map_err(fail)?;
    Ok(SimLayer {
        open_all_ms,
        round_ms: millis(elapsed) / 2.0,
        ns_per_slot: elapsed.as_nanos() as f64 / slots.max(1) as f64,
        settle_ms: millis(start.elapsed()),
    })
}

/// Builds the fleet, opens every channel and runs one warm-up round;
/// returns it with the host ms `open_all` took.
fn open(options: &Options, sensors: usize) -> Result<(FleetScheduler, f64), String> {
    let mut scheduler = FleetScheduler::new(FleetConfig::csma(sensors, options.seed));
    let start = Instant::now();
    scheduler.open_all().map_err(fail)?;
    let open_ms = millis(start.elapsed());
    scheduler.run(1, amount(options.seed, 0)).map_err(fail)?;
    Ok((scheduler, open_ms))
}

pub fn run(options: &Options) -> Result<Outcome, String> {
    let sensors = if options.tiny { 8 } else { SENSORS };
    let mut outcome = Outcome::default();
    let (before, after) = setup_schedule(options);
    let mut setup_times = Vec::new();
    let mut open_times = Vec::new();
    let mut fleet = None;
    for _ in 0..before {
        drop(fleet.take());
        let start = Instant::now();
        let (scheduler, open_ms) = open(options, sensors)?;
        setup_times.push(start.elapsed().as_secs_f64());
        open_times.push(open_ms);
        fleet = Some(scheduler);
    }
    let mut scheduler = fleet.expect("set-up ran at least once");
    let mut expected: BTreeMap<NodeAddr, Wei> = BTreeMap::new();
    for report in scheduler.rounds() {
        let paid = expected.entry(report.sensor).or_insert(Wei::ZERO);
        *paid = paid.saturating_add(amount(options.seed, 0));
    }

    let rounds = if options.tiny {
        2
    } else {
        ((options.seconds as f64 * NOMINAL_ROUNDS_PER_S).round() as usize).max(2)
    };
    let (energy_before, states_before) = energy(&scheduler);
    let report_before = scheduler.report();
    let marks = activity_marks(&scheduler);
    let retained_before = retained(&scheduler);
    let retransmissions_before = retransmissions(&scheduler);
    let wire_before = scheduler.medium().inner().total_wire_bytes();

    let mut latencies_ms = Vec::new();
    let mut throughput = Windows::default();
    let mut round_ms = Vec::new();
    let mut pay_us = Vec::new();
    let mut traced_ns = 0u128;
    let mut traced_slots = 0u64;
    let mut aborted = 0u64;
    for round in 0..rounds {
        let traced = traced_window(options, round);
        let value = amount(options.seed, round as u64 + 1);
        let before = scheduler.rounds().len();
        let slots_before = scheduler.medium().slots_elapsed();
        let aborted_before = scheduler.aborted_rounds();
        let start = Instant::now();
        scheduler.run(1, value).map_err(fail)?;
        let elapsed = start.elapsed();
        let completed = scheduler.rounds().len() - before;
        aborted += scheduler.aborted_rounds() - aborted_before;
        outcome.attempted += sensors as u64;
        outcome.failed += (sensors - completed.min(sensors)) as u64;
        for report in &scheduler.rounds()[before..] {
            let paid = expected.entry(report.sensor).or_insert(Wei::ZERO);
            *paid = paid.saturating_add(value);
            latencies_ms.push(millis(report.end_to_end_latency));
        }
        throughput.record(completed as u64, elapsed, traced);
        if traced {
            round_ms.push(millis(elapsed));
            pay_us.push(elapsed.as_secs_f64() * 1e6 / completed.max(1) as f64);
            traced_ns += elapsed.as_nanos();
            traced_slots += scheduler.medium().slots_elapsed() - slots_before;
        }
    }
    let ops = (outcome.attempted - outcome.failed).max(1) as f64;
    let (energy_after, states_after) = energy(&scheduler);
    let report_after = scheduler.report();
    let sign_per_op = activities_since(&scheduler, &marks, &["sign payload"]) as f64 / ops;
    let verify_per_op = activities_since(&scheduler, &marks, &["verify payload"]) as f64 / ops;
    let calls_per_op = activities_since(&scheduler, &marks, &["call local contract"]) as f64 / ops;
    let activities_per_op = activities_since(&scheduler, &marks, &[]) as f64 / ops;
    let retained_per_op = (retained(&scheduler) - retained_before) as f64 / ops;
    let retransmissions_per_op =
        (retransmissions(&scheduler) - retransmissions_before) as f64 / ops;
    let wire_per_op = (scheduler.medium().inner().total_wire_bytes() - wire_before) as f64 / ops;
    let (hits, misses) = devices(&scheduler)
        .map(|device| device.world().analysis_cache())
        .fold((0, 0), |(h, m), cache| {
            (h + cache.hits(), m + cache.misses())
        });
    let gateway_timeline = scheduler.gateway().device().timeline().len();
    let gateway_addr = scheduler.gateway().addr();
    let deployed = scheduler
        .sensors()
        .iter()
        .map(|sensor| {
            let registered = sensor
                .registration(gateway_addr)
                .is_some_and(|r| scheduler.chain().template(&r.template).is_some());
            usize::from(registered)
                + usize::from(sensor.contract(gateway_addr).is_some())
                + usize::from(scheduler.gateway().contract(sensor.addr()).is_some())
        })
        .sum::<usize>();

    let mut digest = Digest::default();
    digest.write(&scheduler.fingerprint());
    let settle_start = Instant::now();
    let settlement = scheduler.settle_all().map_err(fail)?;
    let settle_ms = millis(settle_start.elapsed());
    let mut settled_ok = settlement.settlements.len() == sensors;
    for (addr, settled) in &settlement.settlements {
        digest.write(&format!(
            "settlement {addr} {} {} {}",
            settled.to_receiver, settled.to_sender, settled.fraud_detected
        ));
        settled_ok &= expected.get(addr) == Some(&settled.to_receiver) && !settled.fraud_detected;
    }
    let expected_total = expected
        .values()
        .fold(Wei::ZERO, |sum, v| sum.saturating_add(*v));
    outcome.digest = digest.finish();
    outcome.check("every round acked by every sensor", outcome.failed == 0);
    outcome.check("no round aborted", aborted == 0);
    outcome.check(
        "every channel settled for exactly what it paid, no fraud flagged",
        settled_ok,
    );
    outcome.check(
        "gateway total equals the sum paid",
        settlement.total_to_gateway == expected_total,
    );
    if !settled_ok {
        outcome.failed = outcome.attempted;
    }
    let peak_rss = peak_rss_mb()?;
    drop(scheduler);
    for _ in 0..after {
        let start = Instant::now();
        let (scheduler, open_ms) = open(options, sensors)?;
        drop(scheduler);
        setup_times.push(start.elapsed().as_secs_f64());
        open_times.push(open_ms);
    }

    let p50 = median(&latencies_ms);
    let (p_tail, tail_pct) = tail(&latencies_ms);
    let sim_seconds = report_after
        .sim_duration
        .saturating_sub(report_before.sim_duration)
        .as_secs_f64();
    let busy = report_after
        .busy_airtime
        .saturating_sub(report_before.busy_airtime);
    let e2e = &mut outcome.end_to_end;
    e2e.push("setup_s", "s", median(&setup_times), Source::Host);
    e2e.push(
        "host_ops_per_s",
        "1/s",
        throughput.ops_per_s(),
        Source::Host,
    );
    e2e.push("peak_rss_mb", "MB", peak_rss, Source::Host);
    e2e.push("virtual_op_ms_p50", "ms", p50, Source::Virtual);
    e2e.push("virtual_op_ms_p99", "ms", p_tail, Source::Virtual);
    e2e.push(
        "energy_mj_per_op",
        "mJ",
        (energy_after - energy_before) / ops,
        Source::Virtual,
    );
    e2e.push(
        "goodput_ops_per_s",
        "1/s",
        ops / sim_seconds.max(1e-9),
        Source::Virtual,
    );
    e2e.push(
        "success_pct",
        "%",
        (outcome.attempted - outcome.failed) as f64 / outcome.attempted.max(1) as f64 * 100.0,
        Source::Count,
    );
    e2e.push(
        "deployable_pct",
        "%",
        deployed as f64 / (3 * sensors) as f64 * 100.0,
        Source::Count,
    );
    outcome.notes.push(format!(
        "samples virtual_op_ms: {} payments over {rounds} rounds of {sensors} sensors; \
         p50 and p{tail_pct:.2} (the highest percentile with >=10 samples beyond it)",
        latencies_ms.len()
    ));
    outcome.notes.push(format!(
        "windows host_ops_per_s: p90 rate of {} one-round windows; setup_s: median of {} set-ups spread over the run; window rates {}",
        throughput.count(),
        setup_times.len(),
        throughput.describe()
    ));
    outcome.notes.push(
        "paper (no paper reference: the paper evaluates two-party sessions only)".to_string(),
    );
    if !options.trace {
        return Ok(outcome);
    }

    // --- per-layer (traced run) ------------------------------------------
    let reps = if options.tiny { 8 } else { 256 };
    let mut capture = replay::capture(Shape::Fleet, if options.tiny { 2 } else { 32 }, |i| {
        amount(options.seed, i)
    })?;
    let r = capture.replay(reps)?;
    let meter_us =
        replay::meter_record_us(gateway_timeline, if options.tiny { 64 } else { 20_000 });
    let per_op = PerOp {
        sign: sign_per_op,
        verify: verify_per_op,
        contract_calls: calls_per_op,
        activities: activities_per_op,
    };
    let frames = report_after.frames_collided - report_before.frames_collided;
    let conveys = report_after.uplink_conveys - report_before.uplink_conveys;
    let layers = &mut outcome.per_layer;
    let accounting =
        replay::push_payment_layers(layers, &r, &per_op, &pay_us, meter_us, options.tiny)?;
    layers.push(
        "analysis.cache_hit_pct",
        "%",
        hits as f64 / (hits + misses).max(1) as f64 * 100.0,
        Source::Count,
    );
    layers.push(
        "device.retained_entries_per_op",
        "count",
        retained_per_op,
        Source::Count,
    );
    for (name, index) in [
        ("device.crypto_ms_per_op", 0),
        ("device.cpu_ms_per_op", 1),
        ("device.tx_ms_per_op", 2),
        ("device.rx_ms_per_op", 3),
        ("device.lpm2_ms_per_op", 4),
    ] {
        layers.push(
            name,
            "ms",
            millis(states_after[index].saturating_sub(states_before[index])) / ops,
            Source::Virtual,
        );
    }
    layers.push("wire.bytes_per_op", "B", wire_per_op, Source::Count);
    layers.push(
        "net.retransmissions_per_op",
        "count",
        retransmissions_per_op,
        Source::Count,
    );
    layers.push(
        "net.airtime_ms_per_op",
        "ms",
        millis(busy) / ops,
        Source::Virtual,
    );
    layers.push(
        "net.collision_pct",
        "%",
        frames as f64 / (frames + conveys).max(1) as f64 * 100.0,
        Source::Count,
    );
    layers.push(
        "net.queue_drops_per_op",
        "count",
        (report_after.frames_dropped_queue_full - report_before.frames_dropped_queue_full) as f64
            / ops,
        Source::Count,
    );
    layers.push(
        "net.airtime_utilization_pct",
        "%",
        busy.as_secs_f64() / sim_seconds.max(1e-9) * 100.0,
        Source::Virtual,
    );
    layers.push(
        "net.slots_per_op",
        "count",
        (report_after.slots - report_before.slots) as f64 / ops,
        Source::Count,
    );
    SimLayer {
        open_all_ms: median(&open_times),
        round_ms: median(&round_ms),
        ns_per_slot: traced_ns as f64 / traced_slots.max(1) as f64,
        settle_ms,
    }
    .push(layers, Source::Span);
    layers.push("chain.settle_ms", "ms", settle_ms, Source::Span);
    layers.push(
        "corpus.generate_s",
        "s",
        corpus::generate_reference_s(options),
        Source::Reference,
    );
    layers.push(
        "trace_overhead_pct",
        "%",
        throughput.trace_overhead_pct(),
        Source::Host,
    );
    outcome.notes.push(accounting);
    Ok(outcome)
}
