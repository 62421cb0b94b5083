//! `corpus` — deploys the paper-scale synthetic corpus (7,000 seeded
//! contracts, the 8 KiB code limit `experiments` uses) one contract after
//! another.
//!
//! * **Shape.** No arrival process: throughput at that input size. The seed
//!   is the corpus generator seed. An op is one deployment attempt; the
//!   timed phase deploys the whole corpus at least once, in the stride
//!   order of [`STRIDE`].
//! * **Set-up.** Generate the corpus (`corpus.generate_s`) and deploy its
//!   first 100 contracts untimed. Done five times, spread over the run;
//!   `setup_s` is the median.
//! * **Loads.** The only workload where the interpreter and the analyzer
//!   see cold, diverse code: every deploy analyzes its init code afresh
//!   (no cache), and device deploy times spread from ~1 ms to tens of ms.
//! * **Bypasses.** Crypto, wire, radio, meter, chain, sim and channel: it
//!   is the bypass workload for every payment-path change.
//! * **Outcomes.** A deploy the device refuses for a resource limit (code
//!   size, memory, stack, instruction budget) is a correct outcome, and so
//!   is a failing constructor from the deliberately malformed class. Any
//!   other error fails the op.

use std::hint::black_box;
use std::time::Instant;

use tinyevm_analysis::analyze;
use tinyevm_corpus::{CorpusConfig, SyntheticContract, WorkloadClass};
use tinyevm_device::{EnergyMeter, Mcu, PowerState};
use tinyevm_evm::{deploy, DeployError, EvmConfig, GasMode};

use crate::fleet;
use crate::measure::{
    mean, median, micros, millis, peak_rss_mb, setup_schedule, tail, time_each_us, traced_window,
    Digest, Options, Outcome, Source, Windows,
};
use crate::replay::{self, Shape};

const CONTRACTS: usize = 7_000;
const CODE_LIMIT: usize = 8 * 1024;
/// Deploys per throughput window.
const WINDOW: usize = 250;
/// Deploy order: position `k` of a pass deploys contract `k * STRIDE mod
/// count`. The stride is prime and divides neither corpus size, so a pass
/// still deploys every contract once, and every window holds a
/// representative mix of cheap and heavy constructors instead of whatever
/// run of classes the generator produced.
const STRIDE: usize = 2_003;
/// Nominal host deploys per second; sizes the fixed work of a run.
const NOMINAL_DEPLOYS_PER_S: f64 = 650.0;
const WARMUP: usize = 100;
/// The paper's share of deployable contracts.
const PAPER_DEPLOYABLE_PCT: f64 = 93.0;

pub fn generate(seed: u64, count: usize) -> Vec<SyntheticContract> {
    CorpusConfig {
        count,
        seed,
        ..CorpusConfig::paper_scale()
    }
    .generate()
}

/// Host seconds to generate a tenth of the corpus, for traced runs of the
/// workloads that bypass the generator.
pub fn generate_reference_s(options: &Options) -> f64 {
    let count = if options.tiny { 50 } else { CONTRACTS / 10 };
    let start = Instant::now();
    black_box(generate(options.seed, count));
    start.elapsed().as_secs_f64()
}

/// What one deployment attempt came to.
enum Deployed {
    /// Deployed: device deploy time (ms), MCU cycles, max stack pointer.
    Ok(f64, u64, usize),
    /// Refused for a reason the workload expects.
    Refused(&'static str),
    /// An error the workload does not expect.
    Unexpected(DeployError),
}

fn attempt(config: &EvmConfig, mcu: &Mcu, contract: &SyntheticContract) -> Deployed {
    match deploy(config, &contract.init_code) {
        Ok(result) => Deployed::Ok(
            millis(mcu.deployment_time(&result.metrics)),
            result.metrics.mcu_cycles,
            result.metrics.max_stack_pointer,
        ),
        Err(error) if error.is_resource_limit() => Deployed::Refused("resource-limit"),
        Err(_) if contract.class == WorkloadClass::Malformed => Deployed::Refused("malformed"),
        Err(error) => Deployed::Unexpected(error),
    }
}

pub fn run(options: &Options) -> Result<Outcome, String> {
    let count = if options.tiny { 120 } else { CONTRACTS };
    let config = EvmConfig::cc2538().with_code_limit(CODE_LIMIT);
    let mcu = Mcu::cc2538();
    let mut outcome = Outcome::default();
    let (before, after) = setup_schedule(options);
    let mut setup_times = Vec::new();
    let mut generate_times = Vec::new();
    let mut set_up = || {
        let start = Instant::now();
        let corpus = generate(options.seed, count);
        generate_times.push(start.elapsed().as_secs_f64());
        for contract in corpus.iter().take(WARMUP) {
            black_box(deploy(&config, &contract.init_code).ok());
        }
        setup_times.push(start.elapsed().as_secs_f64());
        corpus
    };
    let mut corpus = Vec::new();
    for _ in 0..before {
        drop(std::mem::take(&mut corpus));
        corpus = set_up();
    }

    let window = if options.tiny { 40 } else { WINDOW };
    let planned = if options.tiny {
        0
    } else {
        (options.seconds as f64 * NOMINAL_DEPLOYS_PER_S / window as f64).round() as usize
    };
    let windows = planned.max(count.div_ceil(window)).max(2);
    let mut digest = Digest::default();
    let mut first_pass: Vec<Option<u64>> = Vec::with_capacity(count);
    let mut times_ms = Vec::with_capacity(count);
    let mut deployed = 0usize;
    let mut spans_us = Vec::new();
    let mut throughput = Windows::default();
    let mut index = 0usize;
    for w in 0..windows {
        let traced = traced_window(options, w);
        let start = Instant::now();
        for _ in 0..window {
            let id = (index % count) * STRIDE % count;
            let contract = &corpus[id];
            let span = traced.then(Instant::now);
            let result = attempt(&config, &mcu, contract);
            if let Some(span) = span {
                spans_us.push(micros(span.elapsed()));
            }
            outcome.attempted += 1;
            let cycles = match &result {
                Deployed::Ok(_, cycles, _) => Some(*cycles),
                _ => None,
            };
            if index < count {
                first_pass.push(cycles);
                match &result {
                    Deployed::Ok(ms, cycles, stack) => {
                        deployed += 1;
                        times_ms.push(*ms);
                        digest.write(&format!("{id} ok {cycles} {stack}"));
                    }
                    Deployed::Refused(reason) => digest.write(&format!("{id} {reason}")),
                    Deployed::Unexpected(error) => digest.write(&format!("{id} error {error}")),
                }
            } else if first_pass[index % count] != cycles {
                outcome.failed += 1;
                outcome.notes.push(format!(
                    "contract {id} deployed differently on a repeat pass"
                ));
            }
            if let Deployed::Unexpected(error) = result {
                outcome.failed += 1;
                if index < count {
                    outcome
                        .notes
                        .push(format!("contract {id} failed unexpectedly: {error}"));
                }
            }
            index += 1;
        }
        throughput.record(window as u64, start.elapsed(), traced);
    }
    outcome.digest = digest.finish();
    outcome.check(
        "no deploy failed with an unexpected error",
        outcome.failed == 0,
    );
    outcome.check(
        "repeat passes deploy every contract as the first pass did",
        !outcome.notes.iter().any(|n| n.contains("repeat pass")),
    );

    let peak_rss = peak_rss_mb()?;
    for _ in 0..after {
        drop(set_up());
    }
    let voltage = EnergyMeter::cc2538().voltage();
    let energy_mj: Vec<f64> = times_ms
        .iter()
        .map(|ms| PowerState::CpuActive.current_ma() * voltage * ms / 1e3)
        .collect();
    let p50 = median(&times_ms);
    let (p_tail, tail_pct) = tail(&times_ms);
    let deployable = deployed as f64 / count as f64 * 100.0;
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
    e2e.push("energy_mj_per_op", "mJ", mean(&energy_mj), Source::Virtual);
    e2e.push(
        "goodput_ops_per_s",
        "1/s",
        deployed as f64 / (times_ms.iter().sum::<f64>() / 1e3).max(1e-9),
        Source::Virtual,
    );
    e2e.push(
        "success_pct",
        "%",
        (outcome.attempted - outcome.failed) as f64 / outcome.attempted.max(1) as f64 * 100.0,
        Source::Count,
    );
    e2e.push("deployable_pct", "%", deployable, Source::Count);
    outcome.notes.push(format!(
        "samples virtual_op_ms: {} deployed of {count} contracts; p50 and p{tail_pct:.2} \
         (the highest percentile with >=10 samples beyond it); {} deploys timed in {} passes",
        times_ms.len(),
        outcome.attempted,
        (outcome.attempted as usize).div_ceil(count)
    ));
    outcome.notes.push(format!(
        "windows host_ops_per_s: p90 rate of {} windows of {window} deploys; setup_s: median of {} set-ups spread over the run; window rates {}",
        throughput.count(),
        setup_times.len(),
        throughput.describe()
    ));
    outcome.notes.push(format!(
        "paper deployable_pct ours {deployable:.2}% vs paper {PAPER_DEPLOYABLE_PCT}%, error {:+.1}% \
         (the corpus is synthetic and not tuned to the paper's values)",
        (deployable / PAPER_DEPLOYABLE_PCT - 1.0) * 100.0
    ));
    if !options.trace {
        return Ok(outcome);
    }

    // --- per-layer (traced run) ------------------------------------------
    // The corpus bypasses crypto, wire, net, channel, chain and sim: those
    // layers are timed on small reference sessions so every traced run
    // shows every layer, and their per-op counts are zero here.
    let reps = if options.tiny { 8 } else { 256 };
    let mut capture = replay::capture(Shape::TwoParty, if options.tiny { 2 } else { 16 }, |i| {
        crate::payment::amount(options.seed, i)
    })?;
    let r = capture.replay(reps)?;
    let sim = fleet::reference(options)?;
    let sample = &corpus[..count.min(if options.tiny { 40 } else { 1_000 })];
    let analyze_us = time_each_us(sample.len(), |i| {
        black_box(analyze(&sample[i].init_code));
    });
    let metered = config.clone().with_gas_mode(GasMode::Metered {
        limit: u64::MAX / 2,
    });
    let gas: Vec<f64> = sample
        .iter()
        .filter_map(|contract| deploy(&metered, &contract.init_code).ok())
        .map(|result| result.metrics.gas_used as f64)
        .collect();
    let reference_pay = mean(&capture.round_us);
    let reference_self = reference_pay
        - 2.0 * (r.sign_us + r.recover_us)
        - 2.0 * r.call_us
        - r.encode_us_per_op
        - r.decode_us_per_op
        - r.convey_us_per_op;
    let layers = &mut outcome.per_layer;
    layers.push("crypto.sign_us", "us", r.sign_us, Source::Reference);
    layers.push("crypto.recover_us", "us", r.recover_us, Source::Reference);
    layers.push(
        "crypto.batch_verify_us_per_sig",
        "us",
        r.batch_verify_us_per_sig,
        Source::Reference,
    );
    layers.push("crypto.calls_per_op", "count", 0.0, Source::Count);
    layers.push("crypto.share_pct", "%", 0.0, Source::Count);
    layers.push("evm.call_us", "us", r.call_us, Source::Reference);
    layers.push("evm.deploy_us_p50", "us", median(&spans_us), Source::Span);
    layers.push("evm.deploy_us_p99", "us", tail(&spans_us).0, Source::Span);
    layers.push("evm.gas_per_op", "gas", mean(&gas), Source::Replayed);
    layers.push(
        "analysis.analyze_us_p50",
        "us",
        median(&analyze_us),
        Source::Replayed,
    );
    layers.push("analysis.cache_hit_pct", "%", 0.0, Source::Count);
    layers.push(
        "device.meter_record_us",
        "us",
        replay::meter_record_us(0, if options.tiny { 64 } else { 20_000 }),
        Source::Reference,
    );
    layers.push(
        "device.retained_entries_per_op",
        "count",
        0.0,
        Source::Count,
    );
    layers.push("device.crypto_ms_per_op", "ms", 0.0, Source::Virtual);
    layers.push(
        "device.cpu_ms_per_op",
        "ms",
        times_ms.iter().sum::<f64>() / count as f64,
        Source::Virtual,
    );
    layers.push("device.tx_ms_per_op", "ms", 0.0, Source::Virtual);
    layers.push("device.rx_ms_per_op", "ms", 0.0, Source::Virtual);
    layers.push("device.lpm2_ms_per_op", "ms", 0.0, Source::Virtual);
    layers.push(
        "wire.encode_us",
        "us",
        r.encode_us_per_op,
        Source::Reference,
    );
    layers.push(
        "wire.decode_us",
        "us",
        r.decode_us_per_op,
        Source::Reference,
    );
    layers.push("wire.bytes_per_op", "B", 0.0, Source::Count);
    layers.push("net.convey_us", "us", r.convey_us_per_op, Source::Reference);
    for name in [
        "net.frames_per_op",
        "net.retransmissions_per_op",
        "net.queue_drops_per_op",
        "net.slots_per_op",
    ] {
        layers.push(name, "count", 0.0, Source::Count);
    }
    layers.push("net.airtime_ms_per_op", "ms", 0.0, Source::Virtual);
    layers.push("net.collision_pct", "%", 0.0, Source::Count);
    layers.push("net.airtime_utilization_pct", "%", 0.0, Source::Virtual);
    sim.push(layers, Source::Reference);
    layers.push(
        "chain.publish_template_us",
        "us",
        median(&replay::publish_template_us(if options.tiny {
            4
        } else {
            64
        })?),
        Source::Reference,
    );
    layers.push("chain.settle_ms", "ms", sim.settle_ms, Source::Reference);
    layers.push(
        "channel.pay_us_p50",
        "us",
        median(&capture.round_us),
        Source::Reference,
    );
    layers.push(
        "channel.pay_us_p99",
        "us",
        tail(&capture.round_us).0,
        Source::Reference,
    );
    layers.push("channel.self_us", "us", reference_self, Source::Reference);
    layers.push(
        "corpus.generate_s",
        "s",
        median(&generate_times),
        Source::Host,
    );
    layers.push(
        "trace_overhead_pct",
        "%",
        throughput.trace_overhead_pct(),
        Source::Host,
    );
    Ok(outcome)
}
