//! Regenerates every table and figure of the TinyEVM paper's evaluation.
//!
//! Usage:
//!
//! ```text
//! cargo run -p tinyevm-bench --release --bin experiments            # everything, 7,000 contracts
//! cargo run -p tinyevm-bench --release --bin experiments -- --quick # 700 contracts, faster
//! cargo run -p tinyevm-bench --release --bin experiments -- --count 2000
//! cargo run -p tinyevm-bench --release --bin experiments -- --jobs 4
//! ```
//!
//! Corpus deployment shards across `--jobs` worker threads (default: the
//! machine's available parallelism); `--jobs 1` reproduces the original
//! single-threaded output byte-for-byte, and every jobs value produces the
//! same statistics. An unknown flag or an unparseable value exits with
//! code 2. Results are printed to stdout and written to
//! `target/experiments/`, including the deterministic record
//! `experiments.json`: a full run's record is byte-identical to the copy
//! committed at the repository root, which CI diffs it against.

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use tinyevm_bench::{
    analysis_experiment, corpus_experiment_sharded, faults_experiment, fleet_sim_sweep,
    fleet_sim_text, multinode_sweep, multinode_text, offchain_experiment, table1_text, table3_text,
    trace_experiment, CorpusLane, ExperimentsRecord, MultiNodeLane, OffChainLane, SimPerfLane,
    TracePerfLane,
};
use tinyevm_channel::contracts;

const USAGE: &str = "usage: experiments [--quick] [--count N] [--jobs N]";

/// Off-chain payments in the measured two-party session.
const PAYMENTS: usize = 3;

/// Payment rounds per sensor in the multi-node and traced sweeps.
const ROUNDS: usize = 3;

/// A run's settings, as parsed from the command line.
#[derive(Debug, PartialEq, Eq)]
struct Options {
    /// Corpus contracts to deploy (and to run the differential on).
    count: usize,
    /// Trim the fleet-simulation sweep to [16, 64] sensors.
    quick: bool,
    /// Worker threads.
    jobs: usize,
}

/// Parses the arguments after the program name. `Ok(None)` asks for the
/// usage line; an unknown flag, a missing value, or a value that is not a
/// positive integer is an error.
fn parse_args(args: &[String], default_jobs: usize) -> Result<Option<Options>, String> {
    let mut count = None;
    let mut quick = false;
    let mut jobs = default_jobs;
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut positive = || {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            value
                .parse::<usize>()
                .ok()
                .filter(|&parsed| parsed >= 1)
                .ok_or_else(|| format!("{flag} takes a positive integer, not {value:?}"))
        };
        match flag.as_str() {
            "--quick" => quick = true,
            "--count" => count = Some(positive()?),
            "--jobs" => jobs = positive()?,
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Some(Options {
        count: count.unwrap_or(if quick { 700 } else { 7_000 }),
        quick,
        jobs,
    }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let default_jobs = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let Options { count, quick, jobs } = match parse_args(&args, default_jobs) {
        Ok(Some(options)) => options,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("experiments: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let output_dir = PathBuf::from("target/experiments");
    fs::create_dir_all(&output_dir).expect("create output directory");
    let emit = |name: &str, content: &str| {
        println!("{content}");
        println!("{}", "-".repeat(78));
        fs::write(output_dir.join(name), content).expect("write experiment output");
    };

    println!(
        "TinyEVM experiment harness — {count} corpus contracts, {PAYMENTS} off-chain payment(s)\n"
    );

    // Table I is static: the instruction-set census.
    emit("table1.txt", &table1_text());

    // Table III uses the actual size of the payment-channel template we ship.
    let template_bytes = contracts::payment_channel_init_code(0, 1).len();
    emit("table3.txt", &table3_text(template_bytes));

    // The corpus macro-benchmark: Table II, Figures 3a-3c and 4.
    if jobs > 1 {
        eprintln!("running the corpus macro-benchmark ({count} contracts, {jobs} workers)...");
    } else {
        eprintln!("running the corpus macro-benchmark ({count} contracts)...");
    }
    let corpus = corpus_experiment_sharded(count, 8 * 1024, jobs);
    emit("table2.txt", &corpus.table2_text());
    emit("fig3a.txt", &corpus.fig3a_text());
    emit("fig3b.txt", &corpus.fig3b_text());
    emit("fig3c.txt", &corpus.fig3c_text());
    emit("fig4.txt", &corpus.fig4_text());

    // The off-chain payment micro-benchmark: Tables IV, V and Figure 5.
    eprintln!("running the off-chain payment micro-benchmark...");
    let offchain = offchain_experiment(PAYMENTS);
    emit("table4.txt", &offchain.table4_text());
    emit("table5.txt", &offchain.table5_text());
    emit("fig5.txt", &offchain.fig5_text());
    emit("wire.txt", &offchain.wire_text());

    // The multi-node gateway sweep: several senders, one gateway, one
    // chain. Sweep points are independent seeded scenarios, sharded across
    // the worker threads like the corpus.
    let fleet_sizes = [2usize, 4, 8];
    eprintln!(
        "running the multi-node gateway sweep ({fleet_sizes:?} sensors × {ROUNDS} rounds, {jobs} workers)..."
    );
    let multinode = multinode_sweep(&fleet_sizes, ROUNDS, jobs);

    // The contending fleet simulation: the virtual-clock event scheduler
    // drives every sensor concurrently against one gateway over a CSMA/CA
    // medium. One payment round per sensor — the 1024-sensor point alone
    // is a thousand settled channels, so quick runs trim the sweep.
    let sim_sizes: &[usize] = if quick { &[16, 64] } else { &[64, 256, 1024] };
    eprintln!(
        "running the contending fleet simulation ({sim_sizes:?} sensors, CSMA/CA, {jobs} workers)..."
    );
    let sim = fleet_sim_sweep(sim_sizes, 1, jobs);
    emit(
        "multinode.txt",
        &format!("{}\n{}", multinode_text(&multinode), fleet_sim_text(&sim)),
    );

    // The traced fleet sweep: the same fleet sizes re-run with a recording
    // tracer attached, distilled into per-phase time shares, round-latency
    // quantiles and energy per settled wei.
    eprintln!("running the traced fleet sweep ({fleet_sizes:?} sensors × {ROUNDS} rounds)...");
    let trace = trace_experiment(&fleet_sizes, ROUNDS);
    emit("trace.txt", &trace.text());
    fs::write(output_dir.join("trace.jsonl"), &trace.jsonl).expect("write trace.jsonl");

    // The fault-injection robustness lane: seeded storms over both
    // deployment shapes, ending in clean settlements.
    eprintln!("running the fault-injection robustness lane...");
    emit("faults.txt", &faults_experiment().text());

    // The static-analysis sweep: verdicts always cover the full 7,000
    // contracts (the committed record pins them at any scale), while the
    // batched-vs-per-op differential runs on `count` of them.
    eprintln!(
        "running the static-analysis sweep (7000 verdicts, {count} differential, {jobs} workers)..."
    );
    let analysis = analysis_experiment(count, jobs);
    assert_eq!(
        analysis.census.differential_mismatches, 0,
        "batched execution diverged from per-opcode metering"
    );
    emit("analysis.txt", &analysis.text());

    emit("summary.txt", &offchain.summary_text(&corpus));

    let record = ExperimentsRecord {
        analysis: analysis.census,
        corpus: CorpusLane {
            contracts: corpus.total,
            deployed: corpus.deployed,
        },
        offchain: OffChainLane {
            payments: offchain.rounds.len(),
            payment_end_to_end_ms: offchain.mean_payment_ms(),
            energy_mj_per_payment: offchain.energy_mj_per_payment(),
            wire_bytes: offchain.driver.link().total_wire_bytes(),
        },
        multinode: multinode
            .iter()
            .map(MultiNodeLane::from_experiment)
            .collect(),
        trace: trace.lanes.iter().map(TracePerfLane::from_lane).collect(),
        sim_sweep: sim.iter().map(SimPerfLane::from_experiment).collect(),
    };
    fs::write(output_dir.join("experiments.json"), record.to_json())
        .expect("write experiments.json");
    eprintln!("wrote results to {}", output_dir.display());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Option<Options>, String> {
        let args: Vec<String> = args.iter().map(|arg| arg.to_string()).collect();
        parse_args(&args, 4)
    }

    #[test]
    fn accepts_every_flag_and_defaults_the_rest() {
        for (args, count, quick, jobs) in [
            (&[][..], 7_000, false, 4),
            (&["--quick"], 700, true, 4),
            (&["--count", "2000"], 2_000, false, 4),
            // An explicit count wins over --quick's default in either order.
            (&["--count", "90", "--quick", "--jobs", "1"], 90, true, 1),
            (&["--quick", "--count", "90"], 90, true, 4),
        ] {
            assert_eq!(parse(args), Ok(Some(Options { count, quick, jobs })));
        }
        assert_eq!(parse(&["--quick", "--help"]), Ok(None));
    }

    #[test]
    fn rejects_unknown_flags_and_bad_values() {
        for args in [
            &["--quik"][..],
            &["--payments", "3"],
            &["--rounds", "3"],
            &["--count", "junk"],
            &["--count", "0"],
            &["--count"],
            &["--jobs", "0"],
            &["--jobs", "-2"],
            &["7000"],
        ] {
            assert!(parse(args).is_err(), "{args:?} must be rejected");
        }
    }
}
