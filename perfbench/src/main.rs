//! The TinyEVM benchmark: end-to-end and per-layer metrics on two clocks.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <payment|fleet_csma|corpus> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Two clocks are reported and never mixed:
//!
//! * the **virtual device clock** is what the reproduced system costs on the
//!   modelled CC2538 (latency, energy, goodput). It is deterministic for a
//!   seed;
//! * the **host clock** is what the simulator costs on the machine running
//!   it (throughput, set-up time, memory).
//!
//! A run does a fixed amount of work sized from `--seconds`, so the virtual
//! metrics and the digest of every simulated statistic repeat exactly for a
//! seed, traced or not. Host throughput is the median over fixed-work
//! windows spread across the timed phase; set-up is repeated and its median
//! reported. Every run also times a std-only calibration kernel at its start
//! and end (`host.calib_us`), so a slow machine phase can be told apart from
//! a regression.
//!
//! Each workload runs in its own process on one thread. The untraced run
//! (`--trace 0`) reports the end-to-end metrics; the traced run
//! (`--trace 1`) reports the per-layer metrics and the tracing overhead.
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. A failed output check
//! makes the command exit with code 1 after printing it.
//!
//! Why each workload exists, which layers it loads and which it bypasses is
//! recorded at the top of `payment.rs`, `fleet.rs` and `corpus.rs`.

mod corpus;
mod fleet;
mod measure;
mod payment;
mod replay;

use std::process::ExitCode;

use measure::{calibrate, median, metric_line, Options, Outcome, Source};

/// The end-to-end metrics every untraced run reports, with their units.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("host_ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("virtual_op_ms_p50", "ms"),
    ("virtual_op_ms_p99", "ms"),
    ("energy_mj_per_op", "mJ"),
    ("goodput_ops_per_s", "1/s"),
    ("success_pct", "%"),
    ("deployable_pct", "%"),
];

/// The per-layer metrics every traced run reports, with their units.
const PER_LAYER: [(&str, &str); 40] = [
    ("crypto.sign_us", "us"),
    ("crypto.recover_us", "us"),
    ("crypto.batch_verify_us_per_sig", "us"),
    ("crypto.calls_per_op", "count"),
    ("crypto.share_pct", "%"),
    ("evm.call_us", "us"),
    ("evm.deploy_us_p50", "us"),
    ("evm.deploy_us_p99", "us"),
    ("evm.gas_per_op", "gas"),
    ("analysis.analyze_us_p50", "us"),
    ("analysis.cache_hit_pct", "%"),
    ("device.meter_record_us", "us"),
    ("device.retained_entries_per_op", "count"),
    ("device.crypto_ms_per_op", "ms"),
    ("device.cpu_ms_per_op", "ms"),
    ("device.tx_ms_per_op", "ms"),
    ("device.rx_ms_per_op", "ms"),
    ("device.lpm2_ms_per_op", "ms"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.bytes_per_op", "B"),
    ("net.convey_us", "us"),
    ("net.frames_per_op", "count"),
    ("net.retransmissions_per_op", "count"),
    ("net.airtime_ms_per_op", "ms"),
    ("net.collision_pct", "%"),
    ("net.queue_drops_per_op", "count"),
    ("net.airtime_utilization_pct", "%"),
    ("net.slots_per_op", "count"),
    ("sim.round_ms", "ms"),
    ("sim.host_ns_per_slot", "ns"),
    ("sim.open_all_ms", "ms"),
    ("chain.publish_template_us", "us"),
    ("chain.settle_ms", "ms"),
    ("channel.pay_us_p50", "us"),
    ("channel.pay_us_p99", "us"),
    ("channel.self_us", "us"),
    ("corpus.generate_s", "s"),
    ("host.calib_us", "us"),
    ("trace_overhead_pct", "%"),
];

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        workload: String::new(),
        seed: 0,
        seconds: 0,
        trace: false,
        tiny: false,
    };
    let mut seen = [false; 4];
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--tiny" {
            options.tiny = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|error| format!("{flag} {value}: {error}"))
        };
        match flag.as_str() {
            "--workload" => {
                options.workload = value.clone();
                seen[0] = true;
            }
            "--seed" => {
                options.seed = number()?;
                seen[1] = true;
            }
            "--seconds" => {
                options.seconds = number()?.max(1);
                seen[2] = true;
            }
            "--trace" => {
                options.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
                seen[3] = true;
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if seen.contains(&false) {
        return Err(
            "usage: --workload <payment|fleet_csma|corpus> --seed <n> --seconds <s> --trace <0|1> [--tiny]"
                .to_string(),
        );
    }
    Ok(options)
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let calib_start = calibrate();
    let result = match options.workload.as_str() {
        "payment" => payment::run(&options),
        "fleet_csma" => fleet::run(&options),
        "corpus" => corpus::run(&options),
        other => Err(format!("unknown workload {other}")),
    };
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("perfbench: {} failed: {message}", options.workload);
            return ExitCode::from(1);
        }
    };
    let calib_end = calibrate();
    let calib_us = median(&[calib_start.as_slice(), calib_end.as_slice()].concat());
    println!(
        "host.calib_us start {:.1} end {:.1} (median of 5 each; a std-only kernel, the drift control)",
        median(&calib_start),
        median(&calib_end)
    );
    outcome
        .per_layer
        .push("host.calib_us", "us", calib_us, Source::Host);
    report(&options, outcome)
}

/// Prints the human-readable lines and the JSON result; returns the exit
/// code.
fn report(options: &Options, mut outcome: Outcome) -> ExitCode {
    let (wanted, metrics) = if options.trace {
        (&PER_LAYER[..], &outcome.per_layer.0)
    } else {
        (&END_TO_END[..], &outcome.end_to_end.0)
    };
    let mut selected = Vec::with_capacity(wanted.len());
    let mut missing = Vec::new();
    for (name, unit) in wanted {
        match metrics.iter().find(|m| m.name == *name) {
            Some(metric) if metric.unit == *unit && metric.value.is_finite() => {
                selected.push(metric.clone())
            }
            _ => missing.push(*name),
        }
    }
    outcome.check(
        format!("every metric reported ({} missing)", missing.len()),
        missing.is_empty(),
    );
    println!(
        "workload {} seed {} seconds {} trace {}",
        options.workload,
        options.seed,
        options.seconds,
        u8::from(options.trace)
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    // The virtual metrics are printed in both modes so traced and untraced
    // runs can be compared line for line.
    for metric in &outcome.end_to_end.0 {
        if metric.source == Source::Virtual || metric.source == Source::Count {
            println!("virtual {} {} {}", metric.name, metric.value, metric.unit);
        }
    }
    for metric in &selected {
        println!("{}", metric_line(metric));
    }
    for name in &missing {
        println!("missing metric {name}");
    }
    println!("digest {:016x}", outcome.digest);
    let mut correct = true;
    for (name, ok) in &outcome.checks {
        println!("check {} {name}", if *ok { "ok  " } else { "FAIL" });
        correct &= *ok;
    }
    correct &= outcome.failed == 0 && outcome.attempted > 0;
    let body: Vec<String> = selected
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
