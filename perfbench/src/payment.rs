//! `payment` — a two-party smart-parking session
//! (`ProtocolDriver::smart_parking`, lossless TSCH link): the paper's
//! headline operation.
//!
//! * **Shape.** A closed loop with one client: the next payment waits for
//!   the previous acknowledgement. The seed makes the payment-amount
//!   sequence. An op is one acknowledged payment.
//! * **Set-up.** Build the driver, publish the template, open the channel
//!   and pay until both devices' meter timelines are past their 8,192-entry
//!   cap, so the timed phase is a long-lived channel's steady state.
//!   Done five times, spread over the run; `setup_s` is the median.
//! * **Loads.** About half the host time of a payment is four ECDSA calls
//!   (two `sign_payload`, two recover-style `verify_payload`). The rest is
//!   the endpoint state machines, the EVM `record_payment` call on both
//!   devices, wire encode and decode, the link and the energy meter. Its
//!   single contract keeps the analysis cache hot.
//! * **Bypasses.** The fleet scheduler and the contention medium (`sim`),
//!   `verify_batch` (until settlement) and cold-code analysis.
//! * **Session length.** Host cost per payment and peak RSS depend on how
//!   long the session has run. Once a meter timeline is full,
//!   `EnergyMeter::record` shifts the whole timeline on every new entry
//!   (`Vec::remove(0)`): at ~13 entries per payment that starts after ~630
//!   payments and costs ~18% more host time per payment. And every sign and
//!   verify pushes a `DeviceActivity` with a `String` label, next to the
//!   side-chain entries and acknowledgements, so memory grows ~2.7 KB per
//!   payment without bound. Hence the set-up past the cap and a fixed
//!   number of timed payments.

use std::time::Instant;

use tinyevm_channel::ProtocolDriver;
use tinyevm_device::energy::DEFAULT_TIMELINE_CAP;
use tinyevm_device::{Device, EnergyReport, PowerState};
use tinyevm_types::Wei;

use crate::measure::{
    mean, median, micros, millis, mix, peak_rss_mb, setup_schedule, tail, traced_window, Digest,
    Options, Outcome, Source, Windows,
};
use crate::replay::{self, PerOp, Shape};
use crate::{corpus, fleet};

/// Nominal host payments per second; sizes the fixed work of a run.
const NOMINAL_PAYMENTS_PER_S: f64 = 850.0;
/// Payments per throughput window.
const WINDOW: usize = 128;
/// Payments made after both timelines reached the cap, still in set-up.
const PAST_CAP: u64 = 32;
/// The paper's end-to-end payment latency and energy per round.
const PAPER_LATENCY_MS: f64 = 584.0;
const PAPER_ENERGY_MJ: f64 = 29.6;

/// The `index`-th payment amount of the seeded sequence: uniform below a
/// per-seed scale of 2^8 to 2^40 wei. The scale sets how many bytes the
/// cumulative amount takes on the wire, so the virtual latency and energy
/// move (by tens of µs) with the seed, as they would with real prices.
pub fn amount(seed: u64, index: u64) -> Wei {
    let scale = 8 + (mix(seed, u64::MAX) % 33) as u32;
    Wei::from(1 + mix(seed, index) % (1u64 << scale))
}

fn fail(error: impl std::fmt::Display) -> String {
    format!("payment session: {error}")
}

/// A session opened and paid past its meter cap.
struct Session {
    driver: ProtocolDriver,
    paid: u64,
    total: Wei,
}

fn at_cap(driver: &ProtocolDriver) -> bool {
    driver.sender_timeline().len() >= DEFAULT_TIMELINE_CAP
        && driver.receiver().device().timeline().len() >= DEFAULT_TIMELINE_CAP
}

fn open(options: &Options) -> Result<Session, String> {
    let mut driver = ProtocolDriver::smart_parking(Wei::from_eth(1));
    driver.publish_template().map_err(fail)?;
    driver.open_channel().map_err(fail)?;
    let mut session = Session {
        driver,
        paid: 0,
        total: Wei::ZERO,
    };
    let mut past_cap = 0;
    while past_cap < PAST_CAP {
        let value = amount(options.seed, session.paid);
        session.driver.pay(value).map_err(fail)?;
        session.paid += 1;
        session.total = session.total.saturating_add(value);
        if options.tiny || at_cap(&session.driver) {
            past_cap += if options.tiny { PAST_CAP / 4 } else { 1 };
        }
    }
    Ok(session)
}

/// Activities, timeline entries, side-chain entries and acknowledgements
/// both devices retain.
fn retained(driver: &ProtocolDriver) -> usize {
    [driver.sender(), driver.receiver()]
        .iter()
        .map(|node| {
            node.device().activities().len()
                + node.device().timeline().len()
                + node.side_chain().len()
                + node.peer_signatures().len()
        })
        .sum()
}

/// Activities with one of `labels` on `device` since index `from`.
fn activities(device: &Device, from: usize, labels: &[&str]) -> usize {
    device.activities()[from..]
        .iter()
        .filter(|activity| labels.contains(&activity.label.as_str()))
        .count()
}

fn state_ms(before: &EnergyReport, after: &EnergyReport, state: PowerState) -> f64 {
    millis(after.time_of(state).saturating_sub(before.time_of(state)))
}

pub fn run(options: &Options) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let (before, after) = setup_schedule(options);
    let mut setup_times = Vec::with_capacity(before + after);
    let mut session = None;
    for _ in 0..before {
        drop(session.take());
        let start = Instant::now();
        session = Some(open(options)?);
        setup_times.push(start.elapsed().as_secs_f64());
    }
    let Session {
        mut driver,
        mut paid,
        mut total,
    } = session.expect("set-up ran at least once");

    let (window, windows) = if options.tiny {
        (4, 2)
    } else {
        let planned = options.seconds as f64 * NOMINAL_PAYMENTS_PER_S / WINDOW as f64;
        (WINDOW, (planned.round() as usize).max(2))
    };
    let energy_before = driver.sender_energy();
    let clock_before = driver.sender().device().now();
    let sender_from = driver.sender().device().activities().len();
    let receiver_from = driver.receiver().device().activities().len();
    let retained_before = retained(&driver);
    let wire_before = driver.link().total_wire_bytes();

    let mut digest = Digest::default();
    let mut latencies_ms = Vec::with_capacity(window * windows);
    let mut spans_us = Vec::new();
    let mut throughput = Windows::default();
    let mut last_sequence = None;
    for index in 0..windows {
        let traced = traced_window(options, index);
        let start = Instant::now();
        for _ in 0..window {
            let value = amount(options.seed, paid);
            let span = traced.then(Instant::now);
            let result = driver.pay(value);
            if let Some(span) = span {
                spans_us.push(micros(span.elapsed()));
            }
            outcome.attempted += 1;
            paid += 1;
            total = total.saturating_add(value);
            match result {
                Ok(round)
                    if round.cumulative == total
                        && last_sequence.map_or(true, |last| round.sequence == last + 1) =>
                {
                    last_sequence = Some(round.sequence);
                    latencies_ms.push(millis(round.end_to_end_latency));
                    digest.write(&format!(
                        "round {} {} {} {}",
                        round.sequence,
                        round.cumulative,
                        round.end_to_end_latency.as_nanos(),
                        round.bytes_exchanged
                    ));
                }
                Ok(round) => {
                    outcome.failed += 1;
                    last_sequence = Some(round.sequence);
                }
                Err(error) => {
                    outcome.failed += 1;
                    outcome
                        .notes
                        .push(format!("payment {paid} failed: {error}"));
                }
            }
        }
        throughput.record(window as u64, start.elapsed(), traced);
    }
    let ops = (outcome.attempted - outcome.failed).max(1) as f64;

    let energy_after = driver.sender_energy();
    let clock_after = driver.sender().device().now();
    let sign_per_op = (activities(driver.sender().device(), sender_from, &["sign payload"])
        + activities(driver.receiver().device(), receiver_from, &["sign payload"]))
        as f64
        / ops;
    let verify_per_op = (activities(driver.sender().device(), sender_from, &["verify payload"])
        + activities(
            driver.receiver().device(),
            receiver_from,
            &["verify payload"],
        )) as f64
        / ops;
    let calls_per_op = (activities(
        driver.sender().device(),
        sender_from,
        &["call local contract"],
    ) + activities(
        driver.receiver().device(),
        receiver_from,
        &["call local contract"],
    )) as f64
        / ops;
    let activities_per_op = (driver.sender().device().activities().len() - sender_from
        + driver.receiver().device().activities().len()
        - receiver_from) as f64
        / ops;
    let retained_per_op = (retained(&driver) - retained_before) as f64 / ops;
    let wire_per_op = (driver.link().total_wire_bytes() - wire_before) as f64 / ops;
    let (hits, misses) = [driver.sender(), driver.receiver()]
        .iter()
        .map(|node| node.device().world().analysis_cache())
        .fold((0, 0), |(h, m), cache| {
            (h + cache.hits(), m + cache.misses())
        });
    let timeline_len = driver.sender_timeline().len();
    let deployed = [
        driver.template().is_some(),
        driver.sender().channel_contract().is_some(),
        driver.receiver().channel_contract().is_some(),
    ];
    for report in [&energy_after, &driver.receiver().device().energy_report()] {
        for state in &report.states {
            digest.write(&format!(
                "energy {:?} {}",
                state.state,
                state.time.as_nanos()
            ));
        }
    }
    digest.write(&format!(
        "link {} {}",
        driver.link().total_messages(),
        driver.link().total_wire_bytes()
    ));

    let settle_start = Instant::now();
    let settlement = driver.close_and_settle().map_err(fail)?;
    let settle_ms = millis(settle_start.elapsed());
    digest.write(&format!(
        "settlement {} {} {} {}",
        settlement.settlement.to_receiver,
        settlement.settlement.to_sender,
        settlement.settlement.fraud_detected,
        settlement.payments_exchanged
    ));
    outcome.digest = digest.finish();
    let settled = settlement.settlement.to_receiver == total;
    outcome.check("every timed payment acked in sequence", outcome.failed == 0);
    outcome.check("settled amount equals amount paid", settled);
    outcome.check("no fraud flagged", !settlement.settlement.fraud_detected);
    outcome.check(
        "every payment reached the settlement",
        settlement.payments_exchanged == paid,
    );
    if !settled || settlement.settlement.fraud_detected {
        outcome.failed = outcome.attempted;
    }
    let peak_rss = peak_rss_mb()?;
    drop(driver);
    for _ in 0..after {
        let start = Instant::now();
        drop(open(options)?);
        setup_times.push(start.elapsed().as_secs_f64());
    }

    let (p_tail, tail_pct) = tail(&latencies_ms);
    let p50 = median(&latencies_ms);
    let energy = (energy_after.total_energy_mj() - energy_before.total_energy_mj()) / ops;
    let elapsed_virtual = clock_after.saturating_sub(clock_before).as_secs_f64();
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
    e2e.push("energy_mj_per_op", "mJ", energy, Source::Virtual);
    e2e.push(
        "goodput_ops_per_s",
        "1/s",
        ops / elapsed_virtual.max(1e-9),
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
        deployed.iter().filter(|d| **d).count() as f64 / deployed.len() as f64 * 100.0,
        Source::Count,
    );
    outcome.notes.push(format!(
        "samples virtual_op_ms: {} payments after {} set-up payments; p50 and p{tail_pct:.2} \
         (the highest percentile with >=10 samples beyond it)",
        latencies_ms.len(),
        paid - outcome.attempted
    ));
    outcome.notes.push(format!(
        "windows host_ops_per_s: p90 rate of {} windows of {window} payments; setup_s: median of {} set-ups spread over the run; window rates {}",
        throughput.count(),
        setup_times.len(),
        throughput.describe()
    ));
    outcome.notes.push(format!(
        "paper virtual_op_ms_p50 ours {p50:.1} ms vs paper {PAPER_LATENCY_MS} ms, error {:+.1}%",
        (p50 / PAPER_LATENCY_MS - 1.0) * 100.0
    ));
    outcome.notes.push(format!(
        "paper energy_mj_per_op ours {energy:.2} mJ vs paper {PAPER_ENERGY_MJ} mJ, error {:+.1}%",
        (energy / PAPER_ENERGY_MJ - 1.0) * 100.0
    ));
    outcome.notes.push(
        "paper (the device model is not tuned to the paper's values; the errors are reported, not fitted)"
            .to_string(),
    );
    if !options.trace {
        return Ok(outcome);
    }

    // --- per-layer (traced run) ------------------------------------------
    let reps = if options.tiny { 8 } else { 256 };
    let mut capture = replay::capture(Shape::TwoParty, if options.tiny { 2 } else { 32 }, |i| {
        amount(options.seed, i)
    })?;
    let r = capture.replay(reps)?;
    let meter_us = replay::meter_record_us(timeline_len, if options.tiny { 64 } else { 20_000 });
    let per_op = PerOp {
        sign: sign_per_op,
        verify: verify_per_op,
        contract_calls: calls_per_op,
        activities: activities_per_op,
    };
    let sim = fleet::reference(options)?;
    let layers = &mut outcome.per_layer;
    let accounting =
        replay::push_payment_layers(layers, &r, &per_op, &spans_us, meter_us, options.tiny)?;
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
    for (name, state) in [
        ("device.crypto_ms_per_op", PowerState::CryptoEngine),
        ("device.cpu_ms_per_op", PowerState::CpuActive),
        ("device.tx_ms_per_op", PowerState::Tx),
        ("device.rx_ms_per_op", PowerState::Rx),
        ("device.lpm2_ms_per_op", PowerState::Lpm2),
    ] {
        layers.push(
            name,
            "ms",
            state_ms(&energy_before, &energy_after, state) / ops,
            Source::Virtual,
        );
    }
    layers.push("wire.bytes_per_op", "B", wire_per_op, Source::Count);
    layers.push(
        "net.retransmissions_per_op",
        "count",
        r.retransmissions_per_op,
        Source::Count,
    );
    layers.push(
        "net.airtime_ms_per_op",
        "ms",
        r.airtime_ms_per_op,
        Source::Virtual,
    );
    layers.push("net.collision_pct", "%", 0.0, Source::Count);
    layers.push("net.queue_drops_per_op", "count", 0.0, Source::Count);
    layers.push(
        "net.airtime_utilization_pct",
        "%",
        r.airtime_ms_per_op / mean(&latencies_ms).max(1e-9) * 100.0,
        Source::Virtual,
    );
    layers.push("net.slots_per_op", "count", 0.0, Source::Count);
    sim.push(layers, Source::Reference);
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
