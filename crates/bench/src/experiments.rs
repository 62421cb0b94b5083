//! The experiment implementations.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use serde::Serialize;
use tinyevm_analysis::{analyze, GasCertificate, UnprovenReason, Verdict};
use tinyevm_channel::{GatewaySettlementReport, ProtocolDriver, SensorSummary};
use tinyevm_corpus::{histogram, summarize, CorpusConfig, DistributionSummary};
use tinyevm_device::{Footprint, Mcu, PowerState};
use tinyevm_evm::opcode::{evm_census, tinyevm_census};
use tinyevm_evm::{
    deploy, CallContext, Evm, EvmConfig, ExecError, ExecResult, NullHost, NullIotEnvironment,
    SideChainStorage,
};
use tinyevm_sim::{FleetConfig, FleetReport, FleetScheduler};
use tinyevm_types::Wei;

/// Results of the corpus macro-benchmark (Table II, Figures 3 and 4).
#[derive(Debug, Clone)]
pub struct CorpusExperiment {
    /// Number of contracts attempted.
    pub total: usize,
    /// Number deployed successfully.
    pub deployed: usize,
    /// Bytecode sizes of the successfully deployed contracts (bytes).
    pub sizes: Vec<f64>,
    /// Bytecode sizes of the contracts that failed to deploy (bytes).
    pub failed_sizes: Vec<f64>,
    /// Maximum stack pointer per deployed contract.
    pub stack_pointers: Vec<f64>,
    /// Stack bytes (32 × stack pointer) per deployed contract.
    pub stack_bytes: Vec<f64>,
    /// Device memory needed by the deployment (bytes).
    pub memory_usage: Vec<f64>,
    /// Modelled deployment times (milliseconds).
    pub times_ms: Vec<f64>,
    /// The code-size limit used (bytes).
    pub code_limit: usize,
}

impl CorpusExperiment {
    /// Fraction of contracts that deployed successfully.
    pub fn deployability(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.deployed as f64 / self.total as f64
    }

    /// Table II: max / min / mean / std of the measured columns.
    pub fn table2_text(&self) -> String {
        let columns: [(&str, DistributionSummary); 5] = [
            ("Contract Size (B)", summarize(&self.sizes)),
            ("Stack Pointer", summarize(&self.stack_pointers)),
            ("Stack (Bytes)", summarize(&self.stack_bytes)),
            ("Memory (Bytes)", summarize(&self.memory_usage)),
            ("Deployment Time (ms)", summarize(&self.times_ms)),
        ];
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Table II — overview of the {} successfully deployed contracts (paper: 5,953)",
            self.deployed
        );
        let _ = writeln!(
            out,
            "{:<24}{:>12}{:>12}{:>12}{:>12}",
            "Measurement", "Max", "Min", "Mean", "Std"
        );
        for (name, summary) in &columns {
            let _ = writeln!(
                out,
                "{:<24}{:>12.0}{:>12.0}{:>12.0}{:>12.0}",
                name, summary.max, summary.min, summary.mean, summary.std_dev
            );
        }
        let _ = writeln!(
            out,
            "(Paper: size 10,058/28/4,023/2,899 · SP 41/3/8/3 · time 9,159/5/215/277 ms)"
        );
        out
    }

    /// Figure 3a: the size distribution against the device capacity, plus
    /// the headline deployability percentage.
    pub fn fig3a_text(&self) -> String {
        let mut all_sizes = self.sizes.clone();
        all_sizes.extend_from_slice(&self.failed_sizes);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Figure 3a — contract size distribution vs the {} B deployment limit",
            self.code_limit
        );
        let _ = writeln!(
            out,
            "deployability: {:.1}% ({} of {}) — paper: 93% (5,953 of ~6,400 valid)",
            self.deployability() * 100.0,
            self.deployed,
            self.total
        );
        for (edge, count) in histogram(&all_sizes, 20) {
            let marker = if edge <= self.code_limit as f64 {
                ' '
            } else {
                '*'
            };
            let bar = "#".repeat((count as f64 / self.total as f64 * 200.0).round() as usize);
            let _ = writeln!(out, "  ≤{edge:>8.0} B{marker} {count:>5} {bar}");
        }
        let _ = writeln!(out, "  (* bins beyond the device deployment limit)");
        out
    }

    /// Figure 3b: device memory usage against contract size (sampled
    /// scatter), with the invariant that memory never exceeds the shipped
    /// size.
    pub fn fig3b_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Figure 3b — device memory usage vs contract size (first 40 deployed contracts)"
        );
        let _ = writeln!(out, "{:>14}{:>16}", "size (B)", "memory (B)");
        for (size, memory) in self.sizes.iter().zip(&self.memory_usage).take(40) {
            let _ = writeln!(out, "{size:>14.0}{memory:>16.0}");
        }
        let violations = self
            .sizes
            .iter()
            .zip(&self.memory_usage)
            .filter(|(size, memory)| memory > size)
            .count();
        let _ = writeln!(
            out,
            "memory ≤ shipped size for every deployment: {} violations (paper: none)",
            violations
        );
        out
    }

    /// Figure 3c: distribution of the maximum stack pointer.
    pub fn fig3c_text(&self) -> String {
        let summary = summarize(&self.stack_pointers);
        let mut out = String::new();
        let _ = writeln!(out, "Figure 3c — maximum stack pointer distribution");
        for (edge, count) in histogram(&self.stack_pointers, 14) {
            let bar =
                "#".repeat((count as f64 / self.deployed.max(1) as f64 * 120.0).round() as usize);
            let _ = writeln!(out, "  ≤{edge:>5.1} {count:>5} {bar}");
        }
        let _ = writeln!(
            out,
            "mean {:.1}, max {:.0} (paper: mean 8, max 41; Ethereum allows 1024)",
            summary.mean, summary.max
        );
        out
    }

    /// Figure 4: deployment time against bytecode size.
    pub fn fig4_text(&self) -> String {
        let time = summarize(&self.times_ms);
        let correlation = correlation(&self.sizes, &self.times_ms);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Figure 4 — deployment time vs bytecode size (first 40 deployed contracts)"
        );
        let _ = writeln!(out, "{:>14}{:>18}", "size (B)", "deploy time (ms)");
        for (size, ms) in self.sizes.iter().zip(&self.times_ms).take(40) {
            let _ = writeln!(out, "{size:>14.0}{ms:>18.1}");
        }
        let _ = writeln!(
            out,
            "mean {:.0} ms, std {:.0} ms, max {:.0} ms, size↔time correlation r = {:.2}",
            time.mean, time.std_dev, time.max, correlation
        );
        let _ = writeln!(
            out,
            "(paper: mean 215 ms, std 277 ms, max 9,159 ms, and no correlation with size)"
        );
        out
    }
}

fn correlation(xs: &[f64], ys: &[f64]) -> f64 {
    if xs.len() < 2 || xs.len() != ys.len() {
        return 0.0;
    }
    let n = xs.len() as f64;
    let mean_x = xs.iter().sum::<f64>() / n;
    let mean_y = ys.iter().sum::<f64>() / n;
    let mut covariance = 0.0;
    let mut var_x = 0.0;
    let mut var_y = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        covariance += (x - mean_x) * (y - mean_y);
        var_x += (x - mean_x).powi(2);
        var_y += (y - mean_y).powi(2);
    }
    if var_x == 0.0 || var_y == 0.0 {
        return 0.0;
    }
    covariance / (var_x.sqrt() * var_y.sqrt())
}

/// Runs the corpus macro-benchmark with `count` synthetic contracts and the
/// given runtime-code limit, single-threaded.
pub fn corpus_experiment(count: usize, code_limit: usize) -> CorpusExperiment {
    corpus_experiment_sharded(count, code_limit, 1)
}

/// Runs the corpus macro-benchmark sharded across `jobs` worker threads.
///
/// Contract deployment is embarrassingly parallel: the corpus is split into
/// `jobs` contiguous shards, each deployed on its own scoped thread against
/// a shared immutable `EvmConfig`, and the per-shard statistics are merged
/// back **in shard order**. Because the corpus itself is generated up front
/// from a fixed seed and the merge preserves contract order, the result is
/// bit-identical for every `jobs` value — `jobs = 1` (which skips thread
/// spawning entirely) reproduces the original single-threaded run
/// byte-for-byte.
pub fn corpus_experiment_sharded(count: usize, code_limit: usize, jobs: usize) -> CorpusExperiment {
    let corpus = CorpusConfig {
        count,
        ..CorpusConfig::paper_scale()
    }
    .generate();
    let config = EvmConfig::cc2538().with_code_limit(code_limit);
    let jobs = jobs.clamp(1, corpus.len().max(1));
    let mut experiment = empty_experiment(corpus.len(), code_limit);
    if jobs == 1 {
        deploy_shard(&config, &corpus, &mut experiment);
        return experiment;
    }
    let shard_len = corpus.len().div_ceil(jobs);
    let shards: Vec<CorpusExperiment> = std::thread::scope(|scope| {
        let handles: Vec<_> = corpus
            .chunks(shard_len)
            .map(|shard| {
                let config = &config;
                scope.spawn(move || {
                    let mut partial = empty_experiment(shard.len(), config.max_code_size);
                    deploy_shard(config, shard, &mut partial);
                    partial
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("corpus shard worker panicked"))
            .collect()
    });
    for shard in shards {
        experiment.deployed += shard.deployed;
        experiment.sizes.extend(shard.sizes);
        experiment.failed_sizes.extend(shard.failed_sizes);
        experiment.stack_pointers.extend(shard.stack_pointers);
        experiment.stack_bytes.extend(shard.stack_bytes);
        experiment.memory_usage.extend(shard.memory_usage);
        experiment.times_ms.extend(shard.times_ms);
    }
    experiment
}

fn empty_experiment(total: usize, code_limit: usize) -> CorpusExperiment {
    CorpusExperiment {
        total,
        deployed: 0,
        sizes: Vec::new(),
        failed_sizes: Vec::new(),
        stack_pointers: Vec::new(),
        stack_bytes: Vec::new(),
        memory_usage: Vec::new(),
        times_ms: Vec::new(),
        code_limit,
    }
}

/// Deploys one contiguous shard of the corpus, appending to `experiment`'s
/// columns in corpus order.
fn deploy_shard(
    config: &EvmConfig,
    contracts: &[tinyevm_corpus::SyntheticContract],
    experiment: &mut CorpusExperiment,
) {
    let mcu = Mcu::cc2538();
    for contract in contracts {
        match deploy(config, &contract.init_code) {
            Ok(result) => {
                experiment.deployed += 1;
                experiment.sizes.push(contract.size() as f64);
                experiment
                    .stack_pointers
                    .push(result.metrics.max_stack_pointer as f64);
                experiment
                    .stack_bytes
                    .push(result.metrics.stack_bytes() as f64);
                experiment
                    .memory_usage
                    .push(result.deployed_memory_bytes as f64);
                experiment
                    .times_ms
                    .push(mcu.deployment_time(&result.metrics).as_secs_f64() * 1000.0);
            }
            Err(_) => experiment.failed_sizes.push(contract.size() as f64),
        }
    }
}

/// Results of the static-analysis sweep: analyzer verdicts over the full
/// corpus, plus the batched-vs-per-opcode differential execution check.
#[derive(Debug, Clone, Default)]
pub struct AnalysisExperiment {
    /// The verdict, certificate and differential tallies.
    pub census: AnalysisCensus,
    /// Total init-code bytes decoded.
    pub bytes_analyzed: usize,
    /// Wall clock of the verdict sweep (milliseconds).
    pub analysis_wall_clock_ms: f64,
}

/// The analyzer's tallies over the corpus: the `analysis` section of the
/// harness's record.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct AnalysisCensus {
    /// Contracts analyzed (always the full paper-scale corpus).
    pub contracts: usize,
    /// Contracts the analyzer proved free of invalid jumps, undefined
    /// opcodes and stack underflow.
    pub accepted: usize,
    /// Contracts with a reachable dynamic jump the analyzer cannot resolve.
    pub unproven_dynamic_jump: usize,
    /// Contracts with a path-sensitive possible stack underflow.
    pub unproven_possible_underflow: usize,
    /// Contracts rejected outright with a typed [`tinyevm_analysis::AnalysisError`].
    pub rejected: usize,
    /// Dynamic jumps the symbolic pass resolved to constant destinations,
    /// summed over the corpus.
    pub resolved_jumps: usize,
    /// Contracts whose gas certificate is `Bounded` (acyclic resolved CFG:
    /// proven worst-case gas and MCU-cycle bounds).
    pub certificates_bounded: usize,
    /// Contracts whose gas certificate is `Unbounded` (reachable loop).
    pub certificates_unbounded: usize,
    /// Contracts whose gas certificate is `Uncertified` (unresolved jump or
    /// subcall defeats static costing).
    pub certificates_uncertified: usize,
    /// Contracts executed both with per-opcode metering and with the
    /// block-batched fast path, on lazily decoded and on shared analyzed
    /// blocks.
    pub differential_contracts: usize,
    /// Contracts where a batched lane disagreed with per-opcode metering on
    /// outcome, output, metrics or trap (must be zero).
    pub differential_mismatches: usize,
}

impl AnalysisExperiment {
    /// Renders the verdict table and the differential line.
    pub fn text(&self) -> String {
        let census = &self.census;
        let percent = |n: usize| n as f64 / census.contracts.max(1) as f64 * 100.0;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Static analysis — verdicts over the {}-contract corpus (init code)",
            census.contracts
        );
        let _ = writeln!(
            out,
            "  accepted (proved trap-free):        {:>6}  ({:.1}%)",
            census.accepted,
            percent(census.accepted)
        );
        let _ = writeln!(
            out,
            "  unproven: dynamic jump:             {:>6}  ({:.1}%)",
            census.unproven_dynamic_jump,
            percent(census.unproven_dynamic_jump)
        );
        let _ = writeln!(
            out,
            "  unproven: possible stack underflow: {:>6}  ({:.1}%)",
            census.unproven_possible_underflow,
            percent(census.unproven_possible_underflow)
        );
        let _ = writeln!(
            out,
            "  rejected (typed static error):      {:>6}  ({:.1}%)",
            census.rejected,
            percent(census.rejected)
        );
        let _ = writeln!(
            out,
            "  resolved dynamic jumps: {} (constant destinations proven by the symbolic pass)",
            census.resolved_jumps
        );
        let _ = writeln!(out, "Gas certificates — static worst-case cost census");
        let _ = writeln!(
            out,
            "  bounded (proven gas/cycle bound):   {:>6}  ({:.1}%)",
            census.certificates_bounded,
            percent(census.certificates_bounded)
        );
        let _ = writeln!(
            out,
            "  unbounded (reachable loop):         {:>6}  ({:.1}%)",
            census.certificates_unbounded,
            percent(census.certificates_unbounded)
        );
        let _ = writeln!(
            out,
            "  uncertified (jump/subcall defeats): {:>6}  ({:.1}%)",
            census.certificates_uncertified,
            percent(census.certificates_uncertified)
        );
        let throughput = if self.analysis_wall_clock_ms > 0.0 {
            self.bytes_analyzed as f64 / 1024.0 / 1024.0 / (self.analysis_wall_clock_ms / 1000.0)
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "  {} B analyzed in {:.1} ms ({:.1} MB/s)",
            self.bytes_analyzed, self.analysis_wall_clock_ms, throughput
        );
        let _ = writeln!(
            out,
            "Differential — block-batched accounting vs per-opcode metering"
        );
        let _ = writeln!(
            out,
            "  {} contracts executed both ways, {} mismatch(es) (must be 0)",
            census.differential_contracts, census.differential_mismatches
        );
        out
    }
}

/// Runs the static-analysis sweep. The verdict census always covers the
/// full paper-scale corpus (it is cheap and the committed baseline must not
/// depend on `--quick`), while the differential execution covers the first
/// `differential_count` contracts, sharded across `jobs` threads.
pub fn analysis_experiment(differential_count: usize, jobs: usize) -> AnalysisExperiment {
    analysis_experiment_on(&tinyevm_corpus::realistic_7000(), differential_count, jobs)
}

/// [`analysis_experiment`] over an explicit corpus (tests use a small one).
pub fn analysis_experiment_on(
    corpus: &[tinyevm_corpus::SyntheticContract],
    differential_count: usize,
    jobs: usize,
) -> AnalysisExperiment {
    let jobs = jobs.clamp(1, corpus.len().max(1));
    let mut experiment = AnalysisExperiment {
        census: AnalysisCensus {
            contracts: corpus.len(),
            ..AnalysisCensus::default()
        },
        ..AnalysisExperiment::default()
    };
    if corpus.is_empty() {
        return experiment;
    }

    #[derive(Default)]
    struct ShardTally {
        accepted: usize,
        dynamic: usize,
        underflow: usize,
        rejected: usize,
        bytes: usize,
        resolved_jumps: usize,
        bounded: usize,
        unbounded: usize,
        uncertified: usize,
    }

    let sweep_start = Instant::now();
    let shard_len = corpus.len().div_ceil(jobs);
    let tallies: Vec<ShardTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = corpus
            .chunks(shard_len)
            .map(|shard| {
                scope.spawn(move || {
                    let mut tally = ShardTally::default();
                    for contract in shard {
                        tally.bytes += contract.init_code.len();
                        let analysis = analyze(&contract.init_code);
                        match analysis.verdict() {
                            Verdict::Accepted => tally.accepted += 1,
                            Verdict::Unproven(UnprovenReason::DynamicJump { .. }) => {
                                tally.dynamic += 1
                            }
                            Verdict::Unproven(UnprovenReason::PossibleUnderflow { .. }) => {
                                tally.underflow += 1
                            }
                            Verdict::Rejected(_) => tally.rejected += 1,
                        }
                        tally.resolved_jumps += analysis.resolved_jumps().len();
                        match analysis.gas_certificate() {
                            GasCertificate::Bounded { .. } => tally.bounded += 1,
                            GasCertificate::Unbounded { .. } => tally.unbounded += 1,
                            GasCertificate::Uncertified { .. } => tally.uncertified += 1,
                        }
                    }
                    tally
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("analysis shard worker panicked"))
            .collect()
    });
    let census = &mut experiment.census;
    for tally in tallies {
        census.accepted += tally.accepted;
        census.unproven_dynamic_jump += tally.dynamic;
        census.unproven_possible_underflow += tally.underflow;
        census.rejected += tally.rejected;
        experiment.bytes_analyzed += tally.bytes;
        census.resolved_jumps += tally.resolved_jumps;
        census.certificates_bounded += tally.bounded;
        census.certificates_unbounded += tally.unbounded;
        census.certificates_uncertified += tally.uncertified;
    }
    experiment.analysis_wall_clock_ms = sweep_start.elapsed().as_secs_f64() * 1000.0;

    let differential = &corpus[..differential_count.min(corpus.len())];
    let shard_len = differential.len().div_ceil(jobs).max(1);
    let mismatch_counts: Vec<usize> = std::thread::scope(|scope| {
        let handles: Vec<_> = differential
            .chunks(shard_len)
            .map(|shard| {
                scope.spawn(move || {
                    shard
                        .iter()
                        .filter(|contract| !executions_agree(&contract.init_code))
                        .count()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("differential shard worker panicked"))
            .collect()
    });
    experiment.census.differential_contracts = differential.len();
    experiment.census.differential_mismatches = mismatch_counts.into_iter().sum();
    experiment
}

/// Executes `code` with per-opcode metering, then block-batched on lazily
/// decoded blocks (`execute`) and on a shared analysis
/// (`execute_analyzed`), and reports whether outcome, output, metrics and
/// trap (reason, pc, instruction count) all agree.
fn executions_agree(code: &[u8]) -> bool {
    let config = EvmConfig::cc2538();
    let per_op = Evm::new(config.clone().with_per_op_metering(true)).execute(code, &[]);
    let lazy = Evm::new(config.clone()).execute(code, &[]);
    let mut storage = SideChainStorage::new(config.max_storage_bytes);
    let depth = config.max_call_depth;
    let shared = Evm::new(config).execute_analyzed(
        code,
        &analyze(code),
        CallContext::default(),
        &mut storage,
        &mut NullHost::new(),
        &mut NullIotEnvironment,
        false,
        depth,
    );
    let same = |a: &Result<ExecResult, ExecError>, b: &Result<ExecResult, ExecError>| match (a, b) {
        (Ok(a), Ok(b)) => a.outcome == b.outcome && a.output == b.output && a.metrics == b.metrics,
        (Err(a), Err(b)) => a == b,
        _ => false,
    };
    same(&per_op, &lazy) && same(&per_op, &shared)
}

/// Table I: the opcode-category comparison between the original EVM and
/// TinyEVM's off-chain instruction set.
pub fn table1_text() -> String {
    let evm = evm_census();
    let tiny = tinyevm_census();
    let mut out = String::new();
    let _ = writeln!(out, "Table I — EVM vs TinyEVM specification");
    let _ = writeln!(
        out,
        "{:<28}{:>12}{:>12}{:>14}{:>12}",
        "Component", "EVM", "TinyEVM", "paper EVM", "paper Tiny"
    );
    let rows = [
        (
            "Stack memory",
            "256-bit".to_string(),
            "256-bit".to_string(),
            "256-bit",
            "256-bit",
        ),
        (
            "Random access memory",
            "8-bit".to_string(),
            "8-bit".to_string(),
            "8-bit",
            "8-bit",
        ),
        (
            "Storage space",
            "256-bit".to_string(),
            "8-bit".to_string(),
            "256-bit",
            "8-bit",
        ),
        (
            "Operation opcodes",
            evm.operation.to_string(),
            tiny.operation.to_string(),
            "27",
            "27",
        ),
        (
            "Smart contract opcodes",
            evm.smart_contract.to_string(),
            tiny.smart_contract.to_string(),
            "25",
            "21",
        ),
        (
            "Memory opcodes",
            evm.memory.to_string(),
            tiny.memory.to_string(),
            "13",
            "13",
        ),
        (
            "Blockchain opcodes",
            evm.blockchain.to_string(),
            tiny.blockchain.to_string(),
            "6",
            "-",
        ),
        (
            "IoT opcodes",
            evm.iot.to_string(),
            tiny.iot.to_string(),
            "-",
            "1",
        ),
    ];
    for (name, evm_value, tiny_value, paper_evm, paper_tiny) in rows {
        let _ = writeln!(
            out,
            "{:<28}{:>12}{:>12}{:>14}{:>12}",
            name, evm_value, tiny_value, paper_evm, paper_tiny
        );
    }
    out
}

/// Table III: the device memory footprint.
pub fn table3_text(template_bytes: usize) -> String {
    let footprint = Footprint::tinyevm_on_cc2538(template_bytes);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table III — memory footprint on the CC2538 (32 KB RAM / 512 KB ROM)"
    );
    let _ = writeln!(
        out,
        "{:<28}{:>10}{:>9}{:>10}{:>9}",
        "Component", "RAM (B)", "RAM %", "ROM (B)", "ROM %"
    );
    for component in &footprint.components {
        let _ = writeln!(
            out,
            "{:<28}{:>10}{:>8.0}%{:>10}{:>8.1}%",
            component.name,
            component.ram_bytes,
            footprint.ram_percent(component),
            component.rom_bytes,
            footprint.rom_percent(component)
        );
    }
    let _ = writeln!(
        out,
        "{:<28}{:>10}{:>8.0}%{:>10}{:>8.1}%",
        "Total footprint",
        footprint.ram_used(),
        footprint.ram_used() as f64 / footprint.ram_total as f64 * 100.0,
        footprint.rom_used(),
        footprint.rom_used() as f64 / footprint.rom_total as f64 * 100.0
    );
    let _ = writeln!(
        out,
        "{:<28}{:>10}{:>8.0}%{:>10}{:>8.1}%",
        "Available memory",
        footprint.ram_available(),
        footprint.ram_available() as f64 / footprint.ram_total as f64 * 100.0,
        footprint.rom_available(),
        footprint.rom_available() as f64 / footprint.rom_total as f64 * 100.0
    );
    let _ = writeln!(
        out,
        "(Paper: Contiki-NG 10,394 B / 33%, TinyEVM 13,286 B / 42%, template 2,035 B / 5%, total 80% RAM)"
    );
    out
}

/// Results of the off-chain payment micro-benchmark (Tables IV and V,
/// Figure 5, and the 584 ms / 215 ms headline numbers).
#[derive(Debug)]
pub struct OffChainExperiment {
    /// The driver after the measured session (holds the timeline / energy).
    pub driver: ProtocolDriver,
    /// Per-payment round reports.
    pub rounds: Vec<tinyevm_channel::RoundReport>,
    /// Time the channel-creation constructor took on the sender.
    pub channel_create_time: Duration,
}

/// Runs the off-chain session used by Tables IV / V and Figure 5.
pub fn offchain_experiment(payments: usize) -> OffChainExperiment {
    let mut driver = ProtocolDriver::smart_parking(Wei::from_eth_milli(100));
    driver.publish_template().expect("template publishes");
    let open = driver.open_channel().expect("channel opens");
    let mut rounds = Vec::with_capacity(payments);
    for _ in 0..payments {
        rounds.push(
            driver
                .pay(Wei::from_eth_milli(5))
                .expect("payment succeeds"),
        );
    }
    OffChainExperiment {
        driver,
        rounds,
        channel_create_time: open.sender_create_time,
    }
}

impl OffChainExperiment {
    /// Mean modelled end-to-end latency of the measured payments (ms).
    pub fn mean_payment_ms(&self) -> f64 {
        self.rounds
            .iter()
            .map(|round| round.end_to_end_latency.as_secs_f64() * 1000.0)
            .sum::<f64>()
            / self.rounds.len().max(1) as f64
    }

    /// The sender's modelled energy per measured payment (mJ).
    pub fn energy_mj_per_payment(&self) -> f64 {
        self.driver.sender_energy().total_energy_mj() / self.rounds.len().max(1) as f64
    }

    /// Table IV: the sender's per-state energy for the measured session.
    pub fn table4_text(&self) -> String {
        let report = self.driver.sender_energy();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Table IV — sender (smart car) energy over {} payment round(s) at {:.1} V",
            self.rounds.len(),
            report.voltage
        );
        let _ = writeln!(
            out,
            "{:<24}{:>12}{:>14}{:>13}",
            "State", "Time (ms)", "Current (mA)", "Energy (mJ)"
        );
        for state in &report.states {
            let _ = writeln!(
                out,
                "{:<24}{:>12.0}{:>14.1}{:>13.2}",
                state.state.label(),
                state.time.as_secs_f64() * 1000.0,
                state.current_ma,
                state.energy_mj
            );
        }
        let _ = writeln!(
            out,
            "{:<24}{:>12.0}{:>14}{:>13.2}",
            "Total",
            report.total_time().as_secs_f64() * 1000.0,
            "-",
            report.total_energy_mj()
        );
        let _ = writeln!(
            out,
            "crypto-engine share {:.0}% (paper: 19.1 mJ of 29.6 mJ ≈ 65% for one round)",
            report.share_of(PowerState::CryptoEngine) * 100.0
        );
        let per_round = report.total_energy_mj() / self.rounds.len().max(1) as f64;
        let _ = writeln!(
            out,
            "energy per payment ≈ {per_round:.1} mJ → ≈ {} payments per 10 kJ battery (paper: ~333,000)",
            (10_000_000.0 / per_round) as u64
        );
        out
    }

    /// Table V: cryptographic operation latencies of the device model,
    /// alongside the real software implementations' correctness.
    pub fn table5_text(&self) -> String {
        let latencies = tinyevm_device::CryptoEngine::cc2538().latencies();
        let mut out = String::new();
        let _ = writeln!(out, "Table V — cryptographic operation latency model");
        let _ = writeln!(out, "{:<34}{:>8}{:>12}", "Operation", "Mode", "Time");
        let _ = writeln!(
            out,
            "{:<34}{:>8}{:>9} ms",
            "ECDSA - Signature",
            "HW",
            latencies.ecdsa_sign.as_millis()
        );
        let _ = writeln!(
            out,
            "{:<34}{:>8}{:>9} ms",
            "SHA256 - Hash function",
            "HW",
            latencies.sha256.as_millis()
        );
        let _ = writeln!(
            out,
            "{:<34}{:>8}{:>9} ms",
            "Keccak256 - Hash function",
            "SW",
            latencies.keccak256.as_millis()
        );
        let total = latencies.ecdsa_sign + latencies.sha256 + latencies.keccak256;
        let _ = writeln!(
            out,
            "{:<34}{:>8}{:>9} ms",
            "Total time",
            "",
            total.as_millis()
        );
        let _ = writeln!(out, "(Paper: 350 ms, 1 ms, 5 ms, total 356 ms)");
        out
    }

    /// The wire-format column: encoded size, fragment count, on-air bytes
    /// and TSCH air time of every protocol message of the measured session.
    pub fn wire_text(&self) -> String {
        use tinyevm_net::{fragment, Link};
        use tinyevm_types::{H256, U256};
        use tinyevm_wire::{ChannelOpen, Message, PaymentAck, SensorReading, SignedPayment};

        let sender = self.driver.sender();
        let receiver = self.driver.receiver();
        let key = *sender.device().private_key();
        let config = sender
            .channel()
            .map(|channel| channel.config().clone())
            .expect("session opened a channel");
        let payment = SignedPayment::create(
            &key,
            config.template,
            config.channel_id,
            self.rounds.last().map(|r| r.sequence).unwrap_or(1),
            self.rounds
                .last()
                .map(|r| r.cumulative)
                .unwrap_or(Wei::from(1u64)),
            H256::from_low_u64(0xfeed),
        );
        let ack = Message::PaymentAck(PaymentAck {
            channel_id: config.channel_id,
            sequence: payment.sequence,
            signature: key.sign_prehashed(&payment.digest()),
        });
        let messages: Vec<Message> = vec![
            Message::SensorReading(SensorReading {
                peripheral: 2,
                value: U256::from(2150u64),
            }),
            Message::ChannelOpen(ChannelOpen {
                template: config.template,
                channel_id: config.channel_id,
                sender: sender.address(),
                receiver: receiver.address(),
                deposit_cap: config.deposit_cap,
            }),
            Message::Payment(payment),
            ack,
            Message::ChainSnapshot(tinyevm_wire::ChainSnapshot::capture(self.driver.chain())),
        ];
        let link_config = self.driver.link().config();
        // A pristine copy of the session's link so the air-time column
        // comes from the same model Link::transfer charges, not a
        // re-derived formula.
        let link = Link::new(link_config.clone());
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Wire format — encoded protocol messages over 802.15.4 ({} kbit/s, {} µs/frame overhead)",
            link_config.bitrate / 1000,
            link_config.frame_overhead.as_micros()
        );
        let _ = writeln!(
            out,
            "{:<20}{:>12}{:>9}{:>12}{:>14}",
            "Message", "Encoded (B)", "Frames", "On-air (B)", "Air time (ms)"
        );
        for message in &messages {
            let wire = message.to_wire();
            let frames = fragment(link.local(), link.peer(), 0, &wire)
                .expect("protocol messages fit the link layer");
            let on_air: usize = frames.iter().map(|frame| frame.wire_size()).sum();
            let air: Duration = frames
                .iter()
                .map(|frame| link.airtime(frame.wire_size()))
                .sum();
            let _ = writeln!(
                out,
                "{:<20}{:>12}{:>9}{:>12}{:>14.1}",
                message.label(),
                wire.len(),
                frames.len(),
                on_air,
                air.as_secs_f64() * 1000.0
            );
        }
        let _ = writeln!(
            out,
            "session totals: {} messages, {} wire bytes over the air",
            self.driver.link().total_messages(),
            self.driver.link().total_wire_bytes()
        );
        out
    }

    /// Figure 5: the sender's current-draw timeline.
    pub fn fig5_text(&self) -> String {
        let timeline = self.driver.sender_timeline();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Figure 5 — sender current draw over the off-chain round ({} timeline entries)",
            timeline.len()
        );
        let _ = writeln!(
            out,
            "{:>12}{:>12}{:>10}  state",
            "t start (s)", "dur (ms)", "mA"
        );
        for entry in timeline {
            let _ = writeln!(
                out,
                "{:>12.3}{:>12.1}{:>10.1}  {}",
                entry.start().as_secs_f64(),
                entry.duration().as_secs_f64() * 1000.0,
                entry.current_ma(),
                entry.state.label()
            );
        }
        out
    }

    /// The headline summary: deployment and payment latencies compared with
    /// the paper's numbers.
    pub fn summary_text(&self, corpus: &CorpusExperiment) -> String {
        let deploy_time = summarize(&corpus.times_ms);
        let active: Vec<f64> = self
            .rounds
            .iter()
            .map(|r| r.sender_active_time.as_secs_f64() * 1000.0)
            .collect();
        let active = summarize(&active);
        let mut out = String::new();
        let _ = writeln!(out, "Headline results vs paper");
        let _ = writeln!(
            out,
            "  deployability:           {:.1}%            (paper 93%)",
            corpus.deployability() * 100.0
        );
        let _ = writeln!(
            out,
            "  mean deployment time:    {:>7.0} ms        (paper 215 ms)",
            deploy_time.mean
        );
        let _ = writeln!(
            out,
            "  channel creation:        {:>7.0} ms        (paper ~200 ms)",
            self.channel_create_time.as_secs_f64() * 1000.0
        );
        let _ = writeln!(
            out,
            "  payment, sender-active:  {:>7.0} ms        (paper reports 584 ms end-to-end)",
            active.mean
        );
        let _ = writeln!(
            out,
            "  payment, end-to-end:     {:>7.0} ms        (includes waiting for the peer's crypto)",
            self.mean_payment_ms()
        );
        let _ = writeln!(
            out,
            "  energy per payment:      {:>7.1} mJ        (paper 29.6 mJ per round)",
            self.energy_mj_per_payment()
        );
        out
    }
}

/// Results of one multi-node gateway scenario: N sensors paying one
/// gateway over a shared medium, settled on one chain.
#[derive(Debug, Clone)]
pub struct MultiNodeExperiment {
    /// Sensors in the fleet.
    pub sensors: usize,
    /// Payment rounds each sensor ran.
    pub rounds: usize,
    /// Amount of each payment.
    pub amount: Wei,
    /// Per-sensor summary rows, in address order.
    pub summaries: Vec<SensorSummary>,
    /// The on-chain settlement of all channels.
    pub settlement: GatewaySettlementReport,
    /// Total bytes the medium carried (must equal the per-sensor sum).
    pub medium_wire_bytes: u64,
    /// Total time the medium was busy.
    pub medium_airtime: Duration,
}

/// Runs one multi-node gateway scenario on the single-slot (lockstep)
/// fleet: `sensors` devices each make `rounds` payments of a fixed amount
/// to one gateway, then every channel settles on the gateway's chain.
/// Fully deterministic: device keys derive
/// from names, loss processes from per-sensor seeds, so the same
/// parameters always produce byte-identical statistics.
pub fn multinode_experiment(sensors: usize, rounds: usize) -> MultiNodeExperiment {
    let amount = Wei::from(2_500u64);
    let mut fleet = FleetScheduler::new(FleetConfig::single_slot(sensors));
    fleet.open_all().expect("channels open");
    fleet.run(rounds, amount).expect("payments succeed");
    let summaries = fleet.sensor_summaries();
    let medium_wire_bytes = fleet.medium().inner().total_wire_bytes();
    let medium_airtime = fleet.medium().inner().total_airtime();
    let settlement = fleet.settle_all().expect("all channels settle");
    MultiNodeExperiment {
        sensors,
        rounds,
        amount,
        summaries,
        settlement,
        medium_wire_bytes,
        medium_airtime,
    }
}

/// Runs the multi-node sweep (one scenario per entry of `sensor_counts`)
/// sharded across `jobs` worker threads. Each sweep point is an
/// independent, fully seeded scenario, and results are collected **in
/// sweep order**, so every `jobs` value produces identical statistics —
/// `jobs = 1` runs them sequentially on the calling thread.
pub fn multinode_sweep(
    sensor_counts: &[usize],
    rounds: usize,
    jobs: usize,
) -> Vec<MultiNodeExperiment> {
    let jobs = jobs.clamp(1, sensor_counts.len().max(1));
    if jobs == 1 {
        return sensor_counts
            .iter()
            .map(|&sensors| multinode_experiment(sensors, rounds))
            .collect();
    }
    let shard_len = sensor_counts.len().div_ceil(jobs);
    std::thread::scope(|scope| {
        let handles: Vec<_> = sensor_counts
            .chunks(shard_len)
            .map(|shard| {
                scope.spawn(move || {
                    shard
                        .iter()
                        .map(|&sensors| multinode_experiment(sensors, rounds))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("multinode shard worker panicked"))
            .collect()
    })
}

impl MultiNodeExperiment {
    /// Renders the per-sensor table plus the aggregate / settlement lines.
    pub fn text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Multi-node gateway — {} sensors × {} rounds of {} wei over one shared medium",
            self.sensors,
            self.rounds,
            self.amount.amount()
        );
        let _ = writeln!(
            out,
            "{:<8}{:>10}{:>12}{:>14}{:>13}{:>10}{:>10}{:>14}{:>8}",
            "sensor",
            "payments",
            "paid (wei)",
            "latency (ms)",
            "energy (mJ)",
            "up (B)",
            "down (B)",
            "airtime (ms)",
            "rexmit"
        );
        for summary in &self.summaries {
            let _ = writeln!(
                out,
                "{:<8}{:>10}{:>12}{:>14.1}{:>13.1}{:>10}{:>10}{:>14.1}{:>8}",
                summary.addr.to_string(),
                summary.payments,
                summary.paid.amount().to_string(),
                summary.mean_latency.as_secs_f64() * 1000.0,
                summary.energy_mj,
                summary.wire.uplink_wire_bytes,
                summary.wire.downlink_wire_bytes,
                summary.wire.airtime.as_secs_f64() * 1000.0,
                summary.wire.retransmissions
            );
        }
        let per_sensor_sum: u64 = self.summaries.iter().map(|s| s.wire.wire_bytes()).sum();
        let _ = writeln!(
            out,
            "aggregate: {} payments, {} wire bytes on the medium (per-sensor sum {}), busy {:.1} ms",
            self.summaries.iter().map(|s| s.payments).sum::<u64>(),
            self.medium_wire_bytes,
            per_sensor_sum,
            self.medium_airtime.as_secs_f64() * 1000.0
        );
        let _ = writeln!(
            out,
            "settlement: {} channels on one chain, {} wei to the gateway, {} on-chain transactions, fraud: {}",
            self.settlement.settlements.len(),
            self.settlement.total_to_gateway.amount(),
            self.settlement.on_chain_transactions,
            self.settlement
                .settlements
                .iter()
                .filter(|(_, s)| s.fraud_detected)
                .count()
        );
        out
    }
}

/// One traced fleet session: the structured-event view of a multi-node
/// scenario, distilled into the numbers the paper's evaluation cares about.
#[derive(Debug, Clone)]
pub struct TraceLane {
    /// Sensors in the fleet.
    pub sensors: usize,
    /// Payment rounds each sensor ran.
    pub rounds: usize,
    /// Structured events the recorder kept.
    pub events: usize,
    /// Events evicted by the ring buffer (0 unless the session outgrows
    /// the recorder's capacity).
    pub dropped: u64,
    /// Total time spent in each sender-side round phase, as a share of
    /// the summed phase time, in (phase, share) pairs sorted by name.
    pub phase_share: Vec<(String, f64)>,
    /// The per-round end-to-end latency histogram (driver view).
    pub latency: tinyevm_trace::HistogramSummary,
    /// Fleet energy divided by the wei actually settled on-chain (µJ/wei).
    pub energy_per_wei_uj: f64,
    /// Frames the medium carried.
    pub frames_tx: u64,
    /// Frames that needed a retransmission attempt.
    pub retransmissions: u64,
    /// Frames lost outright.
    pub frames_lost: u64,
}

/// Results of the traced fleet sweep: one [`TraceLane`] per fleet size,
/// plus the smallest fleet's full event stream as JSONL for offline
/// inspection.
#[derive(Debug, Clone)]
pub struct TraceExperiment {
    /// One lane per fleet size, in sweep order.
    pub lanes: Vec<TraceLane>,
    /// The first lane's complete event stream, one JSON object per line.
    pub jsonl: String,
}

/// Runs the traced fleet sweep: each fleet size runs a full gateway
/// session with a [`tinyevm_trace::RecordingTracer`] attached, and the
/// recorded events and metrics are distilled into per-phase time shares,
/// round-latency quantiles and energy-per-settled-wei.
pub fn trace_experiment(fleet_sizes: &[usize], rounds: usize) -> TraceExperiment {
    let mut lanes = Vec::with_capacity(fleet_sizes.len());
    let mut jsonl = String::new();
    for (index, &sensors) in fleet_sizes.iter().enumerate() {
        let tracer = tinyevm_trace::TraceHandle::recording(65_536);
        let mut fleet = FleetScheduler::new(FleetConfig::single_slot(sensors));
        fleet.set_tracer(tracer.clone());
        fleet.open_all().expect("channels open");
        fleet
            .run(rounds, Wei::from(2_500u64))
            .expect("payments succeed");
        let fleet_energy_mj: f64 = fleet.sensor_summaries().iter().map(|s| s.energy_mj).sum();
        let settlement = fleet.settle_all().expect("all channels settle");
        let snapshot = tracer.snapshot().expect("recording tracer snapshots");
        if index == 0 {
            jsonl = snapshot.to_jsonl();
        }

        let mut phase_totals: std::collections::BTreeMap<String, u64> =
            std::collections::BTreeMap::new();
        for event in &snapshot.events {
            if let tinyevm_trace::TraceEvent::Phase {
                phase, duration_us, ..
            } = event
            {
                *phase_totals.entry(phase.clone()).or_default() += duration_us;
            }
        }
        let phase_sum: u64 = phase_totals.values().sum();
        let phase_share = phase_totals
            .into_iter()
            .map(|(phase, us)| (phase, us as f64 / phase_sum.max(1) as f64))
            .collect();

        let latency = snapshot
            .metrics
            .histogram("driver.round_latency_ms")
            .expect("driver histogram recorded")
            .summary();
        let settled_wei = settlement.total_to_gateway.amount().low_u64().max(1);
        lanes.push(TraceLane {
            sensors,
            rounds,
            events: snapshot.events.len(),
            dropped: snapshot.dropped,
            phase_share,
            latency,
            energy_per_wei_uj: fleet_energy_mj * 1_000.0 / settled_wei as f64,
            frames_tx: snapshot.metrics.counter("net.frames_tx"),
            retransmissions: snapshot.metrics.counter("net.retransmissions"),
            frames_lost: snapshot.metrics.counter("net.frames_lost"),
        });
    }
    TraceExperiment { lanes, jsonl }
}

impl TraceExperiment {
    /// Renders the sweep as the `trace.txt` experiments table.
    pub fn text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Structured tracing — per-round phases, latency quantiles and energy per settled wei"
        );
        let _ = writeln!(
            out,
            "{:<8}{:>8}{:>10}{:>9}{:>11}{:>11}{:>11}{:>11}{:>14}{:>9}",
            "fleet",
            "rounds",
            "events",
            "dropped",
            "p50 (ms)",
            "p90 (ms)",
            "p99 (ms)",
            "max (ms)",
            "µJ/wei",
            "frames"
        );
        for lane in &self.lanes {
            let _ = writeln!(
                out,
                "{:<8}{:>8}{:>10}{:>9}{:>11.1}{:>11.1}{:>11.1}{:>11.1}{:>14.3}{:>9}",
                lane.sensors,
                lane.rounds,
                lane.events,
                lane.dropped,
                lane.latency.p50,
                lane.latency.p90,
                lane.latency.p99,
                lane.latency.max,
                lane.energy_per_wei_uj,
                lane.frames_tx
            );
        }
        for lane in &self.lanes {
            let shares = lane
                .phase_share
                .iter()
                .map(|(phase, share)| format!("{phase} {:.1}%", share * 100.0))
                .collect::<Vec<_>>()
                .join(" · ");
            let _ = writeln!(
                out,
                "fleet {:>2}: phase time share — {shares} (retransmissions {}, lost {})",
                lane.sensors, lane.retransmissions, lane.frames_lost
            );
        }
        let _ = writeln!(
            out,
            "(round latency from the drivers' histograms; energy = fleet total / wei settled on-chain)"
        );
        out
    }
}

/// Renders the whole multi-node sweep as one report.
pub fn multinode_text(sweep: &[MultiNodeExperiment]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Multi-node scenario family — several senders sharing one gateway (paper's deployment shape)"
    );
    for experiment in sweep {
        let _ = writeln!(out);
        out.push_str(&experiment.text());
    }
    out
}

/// One fleet-simulation sweep point: `sensors` endpoints contending on a
/// CSMA/CA medium under the virtual-clock event scheduler, every round
/// completing and every channel settling on-chain.
#[derive(Debug, Clone)]
pub struct FleetSimExperiment {
    /// Sensors contending on the medium.
    pub sensors: usize,
    /// Payment rounds each sensor ran.
    pub rounds: usize,
    /// Amount of each payment.
    pub amount: Wei,
    /// Goodput / airtime / collision aggregates from the scheduler.
    pub report: FleetReport,
    /// Median end-to-end round latency (virtual time).
    pub p50_latency: Duration,
    /// 99th-percentile end-to-end round latency (virtual time).
    pub p99_latency: Duration,
    /// Sensors quarantined after repeated violations (0 on a clean run).
    pub quarantined: usize,
    /// Channels that settled on-chain.
    pub settlements: usize,
    /// Total the settlement paid the gateway.
    pub settled_total: Wei,
}

/// Runs one fleet-simulation scenario: `sensors` devices all opening
/// channels, contending for the medium with CSMA/CA, completing `rounds`
/// payments each under collisions and bounded RX queues, then settling.
/// Fully deterministic: the medium seed derives from the fleet size, so
/// the same parameters always produce byte-identical statistics at any
/// `jobs` value.
pub fn fleet_sim_experiment(sensors: usize, rounds: usize, jobs: usize) -> FleetSimExperiment {
    let amount = Wei::from(2_500u64);
    let mut config = FleetConfig::csma(sensors, 0xF1EE7 ^ sensors as u64);
    config.deposit = Wei::from(1_000_000u64);
    config.jobs = jobs.max(1);
    let mut fleet = FleetScheduler::new(config);
    fleet.open_all().expect("fleet channels open");
    fleet.run(rounds, amount).expect("fleet rounds run");

    let mut latencies: Vec<Duration> = fleet
        .rounds()
        .iter()
        .map(|round| round.end_to_end_latency)
        .collect();
    latencies.sort();
    let percentile = |p: f64| -> Duration {
        if latencies.is_empty() {
            return Duration::ZERO;
        }
        let rank = ((p / 100.0) * latencies.len() as f64).ceil().max(1.0) as usize;
        latencies[rank.min(latencies.len()) - 1]
    };
    let (p50_latency, p99_latency) = (percentile(50.0), percentile(99.0));

    let report = fleet.report();
    let quarantined = fleet.quarantined_count();
    let settlement = fleet.settle_all().expect("fleet settles");
    FleetSimExperiment {
        sensors,
        rounds,
        amount,
        report,
        p50_latency,
        p99_latency,
        quarantined,
        settlements: settlement.settlements.len(),
        settled_total: settlement.total_to_gateway,
    }
}

/// Runs the fleet-simulation sweep, one scenario per entry of
/// `sensor_counts`. Sweep points run sequentially (each already shards
/// its compute-bound phases across `jobs` worker threads internally), and
/// every point is independently seeded, so the sweep is byte-identical
/// across runs, machines and `jobs` values.
pub fn fleet_sim_sweep(
    sensor_counts: &[usize],
    rounds: usize,
    jobs: usize,
) -> Vec<FleetSimExperiment> {
    sensor_counts
        .iter()
        .map(|&sensors| fleet_sim_experiment(sensors, rounds, jobs))
        .collect()
}

/// Renders the fleet-simulation sweep as the goodput-vs-fleet-size table.
pub fn fleet_sim_text(sweep: &[FleetSimExperiment]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fleet simulation — CSMA/CA contention on one medium, virtual-clock event scheduler"
    );
    let _ = writeln!(
        out,
        "{:<9}{:>9}{:>14}{:>13}{:>12}{:>10}{:>10}{:>8}{:>9}{:>13}",
        "sensors",
        "payments",
        "goodput(r/s)",
        "airtime(%)",
        "collide(%)",
        "p50(ms)",
        "p99(ms)",
        "drops",
        "aborted",
        "settled(wei)"
    );
    for point in sweep {
        let _ = writeln!(
            out,
            "{:<9}{:>9}{:>14.3}{:>13.2}{:>12.2}{:>10.1}{:>10.1}{:>8}{:>9}{:>13}",
            point.sensors,
            point.report.completed_payments,
            point.report.goodput_rounds_per_s,
            point.report.airtime_utilization * 100.0,
            point.report.collision_rate * 100.0,
            point.p50_latency.as_secs_f64() * 1000.0,
            point.p99_latency.as_secs_f64() * 1000.0,
            point.report.frames_dropped_queue_full,
            point.report.aborted_rounds,
            point.settled_total.amount().to_string()
        );
    }
    let _ = writeln!(
        out,
        "(virtual time throughout; goodput = completed rounds / simulated span, \
         collide(%) = collided frames / transmission attempts)"
    );
    out
}

/// Results of the fault-injection robustness lane: one two-party session
/// and one sensor fleet, each run under a seeded fault storm, both ending
/// in clean on-chain settlements. Everything is virtual-clock and seeded,
/// so the lane is byte-identical across runs and machines.
#[derive(Debug, Clone)]
pub struct FaultsExperiment {
    /// Payments attempted on the two-party link while the storm was active.
    pub attempted: usize,
    /// Payments that completed despite the faults.
    pub succeeded: usize,
    /// Rounds that ended in a typed `RoundAborted` (never a panic).
    pub aborted: usize,
    /// Endpoint-level retransmissions the storm forced.
    pub retransmissions: u64,
    /// Duplicated or replayed messages the endpoints dropped idempotently.
    pub duplicates_dropped: u64,
    /// Frames the link corrupted in flight.
    pub frames_corrupted: u64,
    /// What the two-party settlement paid the receiver after the storm.
    pub two_party_settled: Wei,
    /// Sensors in the fleet lane.
    pub fleet_sensors: usize,
    /// Sensors quarantined after repeated violations.
    pub fleet_quarantined: usize,
    /// Channels the fleet settled (quarantined channels stay open).
    pub fleet_settlements: usize,
    /// Total the fleet settlement paid the gateway.
    pub fleet_total: Wei,
}

/// Runs the robustness lane behind `faults.txt`.
///
/// Two-party: a smart-parking session pays through a link that corrupts,
/// duplicates, reorders and replays frames; the endpoint retry/backoff and
/// dedup machinery must deliver every payment or abort it with a typed
/// error, and the final settlement must succeed once the storm clears.
///
/// Fleet: four sensors share one gateway; one is partitioned mid-storm
/// (degrades, then recovers), one repeatedly overdraws its deposit until it
/// is quarantined. The other channels keep paying and settle normally.
pub fn faults_experiment() -> FaultsExperiment {
    use tinyevm_channel::{EndpointError, ProtocolError};
    use tinyevm_net::{FaultConfig, MessageWindow};

    // --- Two-party lane -------------------------------------------------
    let tracer = tinyevm_trace::TraceHandle::recording(16_384);
    let mut driver = ProtocolDriver::smart_parking(Wei::from(1_000_000u64));
    driver.set_tracer(tracer.clone());
    driver.publish_template().expect("template publishes");
    driver.open_channel().expect("channel opens");
    driver
        .set_link_faults(FaultConfig {
            corrupt_rate: 0.05,
            duplicate_rate: 0.08,
            reorder_rate: 0.06,
            replay_rate: 0.04,
            ..FaultConfig::quiet(0xFA17)
        })
        .expect("fault rates are valid");
    let attempted = 6usize;
    let mut succeeded = 0usize;
    let mut aborted = 0usize;
    for _ in 0..attempted {
        match driver.pay(Wei::from(1_000u64)) {
            Ok(_) => succeeded += 1,
            Err(ProtocolError::Endpoint(EndpointError::RoundAborted { .. })) => aborted += 1,
            Err(error) => panic!("storm produced a non-abort failure: {error}"),
        }
    }
    driver.clear_link_faults();
    driver
        .pay(Wei::from(1_000u64))
        .expect("payment succeeds once the storm clears");
    let settlement = driver.close_and_settle().expect("channel settles");
    let snapshot = tracer.snapshot().expect("recording tracer has a snapshot");
    let counter = |name: &str| snapshot.metrics.counter(name);

    // --- Fleet lane -----------------------------------------------------
    let mut fleet = FleetScheduler::new(FleetConfig::single_slot(4));
    fleet.open_all().expect("fleet channels open");
    fleet
        .set_sensor_faults(
            0,
            FaultConfig {
                partition: Some(MessageWindow {
                    from_message: 0,
                    to_message: u64::MAX,
                }),
                ..FaultConfig::quiet(0xFA17)
            },
        )
        .expect("partition config is valid");
    // The partitioned sensor degrades and is skipped by error class; the
    // overdrawing sensor accumulates violations until it is quarantined.
    fleet
        .run(2, Wei::from(500u64))
        .expect("the fleet keeps paying around the partition");
    for _ in 0..tinyevm_channel::QUARANTINE_THRESHOLD {
        let result = fleet.pay(2, Wei::from(50_000_000u64));
        assert!(result.is_err(), "an overdraw must be refused");
    }
    fleet.clear_sensor_faults(0).expect("sensor exists");
    fleet
        .run(1, Wei::from(500u64))
        .expect("the recovered sensor rejoins the fleet");
    let fleet_settlement = fleet.settle_all().expect("the healthy fleet settles");

    FaultsExperiment {
        attempted,
        succeeded,
        aborted,
        retransmissions: counter("channel.endpoint_retransmissions"),
        duplicates_dropped: counter("channel.duplicate_messages"),
        frames_corrupted: counter("net.frames_corrupted"),
        two_party_settled: settlement.settlement.to_receiver,
        fleet_sensors: 4,
        fleet_quarantined: fleet.quarantined_count(),
        fleet_settlements: fleet_settlement.settlements.len(),
        fleet_total: fleet_settlement.total_to_gateway,
    }
}

impl FaultsExperiment {
    /// Renders the lane for `faults.txt`.
    pub fn text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Fault-injection robustness — seeded storms over both deployment shapes"
        );
        let _ = writeln!(
            out,
            "Two-party lane (corrupt 5% / duplicate 8% / reorder 6% / replay 4%):"
        );
        let _ = writeln!(
            out,
            "  {} payments attempted under the storm: {} succeeded, {} aborted (typed RoundAborted)",
            self.attempted, self.succeeded, self.aborted
        );
        let _ = writeln!(
            out,
            "  {} retransmissions, {} duplicate/replayed messages dropped, {} frames corrupted",
            self.retransmissions, self.duplicates_dropped, self.frames_corrupted
        );
        let _ = writeln!(
            out,
            "  settlement paid the receiver {} wei after the storm cleared",
            self.two_party_settled.amount()
        );
        let _ = writeln!(
            out,
            "Fleet lane ({} sensors: one partitioned, one overdrawing):",
            self.fleet_sensors
        );
        let _ = writeln!(
            out,
            "  {} sensor(s) quarantined after repeated violations; the fleet kept paying",
            self.fleet_quarantined
        );
        let _ = writeln!(
            out,
            "  {} channels settled for {} wei total (quarantined channels stay open)",
            self.fleet_settlements,
            self.fleet_total.amount()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_the_papers_structure() {
        let text = table1_text();
        assert!(text.contains("IoT opcodes"));
        assert!(text.contains("Blockchain opcodes"));
        // TinyEVM column shows zero blockchain opcodes and one IoT opcode.
        let tiny = tinyevm_census();
        assert_eq!(tiny.blockchain, 0);
        assert_eq!(tiny.iot, 1);
    }

    #[test]
    fn faults_experiment_is_deterministic_and_settles() {
        let a = faults_experiment();
        assert_eq!(a.succeeded + a.aborted, a.attempted);
        assert!(a.two_party_settled > Wei::from(0u64));
        assert_eq!(a.fleet_quarantined, 1);
        assert_eq!(a.fleet_settlements, 3);
        let b = faults_experiment();
        assert_eq!(a.text(), b.text(), "the lane must be seeded-deterministic");
    }

    #[test]
    fn table3_reports_the_footprint() {
        let text = table3_text(2_035);
        assert!(text.contains("Contiki-NG OS"));
        assert!(text.contains("TinyEVM"));
        assert!(text.contains("25715") || text.contains("25,715") || text.contains("25715"));
    }

    #[test]
    fn small_corpus_experiment_has_consistent_columns() {
        let experiment = corpus_experiment(120, 8 * 1024);
        assert_eq!(experiment.total, 120);
        assert_eq!(experiment.deployed, experiment.sizes.len());
        assert_eq!(experiment.deployed, experiment.times_ms.len());
        assert_eq!(experiment.deployed + experiment.failed_sizes.len(), 120);
        assert!(experiment.deployability() > 0.8);
        // All renderers produce non-empty text.
        assert!(!experiment.table2_text().is_empty());
        assert!(!experiment.fig3a_text().is_empty());
        assert!(!experiment.fig3b_text().is_empty());
        assert!(!experiment.fig3c_text().is_empty());
        assert!(!experiment.fig4_text().is_empty());
    }

    #[test]
    fn sharded_corpus_experiment_is_bit_identical_to_sequential() {
        let sequential = corpus_experiment(120, 8 * 1024);
        for jobs in [2, 3, 8] {
            let sharded = corpus_experiment_sharded(120, 8 * 1024, jobs);
            assert_eq!(sharded.total, sequential.total, "jobs {jobs}");
            assert_eq!(sharded.deployed, sequential.deployed, "jobs {jobs}");
            assert_eq!(sharded.sizes, sequential.sizes, "jobs {jobs}");
            assert_eq!(sharded.failed_sizes, sequential.failed_sizes, "jobs {jobs}");
            assert_eq!(
                sharded.stack_pointers, sequential.stack_pointers,
                "jobs {jobs}"
            );
            assert_eq!(sharded.stack_bytes, sequential.stack_bytes, "jobs {jobs}");
            assert_eq!(sharded.memory_usage, sequential.memory_usage, "jobs {jobs}");
            assert_eq!(sharded.times_ms, sequential.times_ms, "jobs {jobs}");
            // Same rendered tables, therefore same bytes on disk.
            assert_eq!(sharded.table2_text(), sequential.table2_text());
            assert_eq!(sharded.fig3a_text(), sequential.fig3a_text());
        }
        // More workers than contracts degrades gracefully.
        let oversharded = corpus_experiment_sharded(5, 8 * 1024, 64);
        assert_eq!(oversharded.total, 5);
    }

    #[test]
    fn analysis_experiment_tallies_every_contract_once() {
        let corpus = tinyevm_corpus::quick_corpus(120);
        let experiment = analysis_experiment_on(&corpus, 24, 4);
        let census = &experiment.census;
        assert_eq!(census.contracts, 120);
        assert_eq!(
            census.accepted
                + census.unproven_dynamic_jump
                + census.unproven_possible_underflow
                + census.rejected,
            120,
            "every contract lands in exactly one verdict bucket"
        );
        assert_eq!(
            experiment.bytes_analyzed,
            corpus.iter().map(|c| c.init_code.len()).sum::<usize>()
        );
        assert_eq!(
            census.certificates_bounded
                + census.certificates_unbounded
                + census.certificates_uncertified,
            120,
            "every contract lands in exactly one certificate bucket"
        );
        assert_eq!(census.differential_contracts, 24);
        assert_eq!(
            census.differential_mismatches, 0,
            "batched and per-op execution must agree on the corpus"
        );
        // Sharding never changes the census.
        let sequential = analysis_experiment_on(&corpus, 24, 1);
        assert_eq!(sequential.census, experiment.census);
        let text = experiment.text();
        assert!(text.contains("accepted"));
        assert!(text.contains("Gas certificates"));
        assert!(text.contains("0 mismatch(es)"));
    }

    #[test]
    fn multinode_experiment_settles_and_accounts_consistently() {
        let experiment = multinode_experiment(4, 2);
        assert_eq!(experiment.summaries.len(), 4);
        assert_eq!(
            experiment.settlement.total_to_gateway,
            Wei::from(4 * 2 * 2_500u64)
        );
        // Per-sensor wire accounting sums to the medium total.
        let per_sensor: u64 = experiment
            .summaries
            .iter()
            .map(|s| s.wire.wire_bytes())
            .sum();
        assert_eq!(per_sensor, experiment.medium_wire_bytes);
        let text = experiment.text();
        assert!(text.contains("0x0004"), "per-sensor rows are rendered");
        assert!(text.contains("settlement: 4 channels"));
    }

    #[test]
    fn multinode_sweep_is_statistics_identical_for_every_jobs_value() {
        let counts = [2usize, 3, 4];
        let sequential = multinode_sweep(&counts, 2, 1);
        for jobs in [2, 3, 8] {
            let sharded = multinode_sweep(&counts, 2, jobs);
            assert_eq!(sharded.len(), sequential.len(), "jobs {jobs}");
            for (a, b) in sharded.iter().zip(&sequential) {
                assert_eq!(a.summaries, b.summaries, "jobs {jobs}");
                assert_eq!(a.medium_wire_bytes, b.medium_wire_bytes, "jobs {jobs}");
                assert_eq!(a.medium_airtime, b.medium_airtime, "jobs {jobs}");
                assert_eq!(
                    a.settlement.total_to_gateway, b.settlement.total_to_gateway,
                    "jobs {jobs}"
                );
                assert_eq!(a.text(), b.text(), "same rendered table for jobs {jobs}");
            }
        }
        assert_eq!(
            multinode_text(&sequential),
            multinode_text(&multinode_sweep(&counts, 2, 2))
        );
    }

    #[test]
    fn offchain_experiment_produces_all_renditions() {
        let experiment = offchain_experiment(1);
        assert_eq!(experiment.rounds.len(), 1);
        assert!(experiment.table4_text().contains("Cryptographic Engine"));
        assert!(experiment.table5_text().contains("ECDSA"));
        assert!(experiment.fig5_text().contains("TX"));
        let wire = experiment.wire_text();
        assert!(wire.contains("payment"));
        assert!(wire.contains("chain-snapshot"));
        assert!(wire.contains("session totals"));
        let corpus = corpus_experiment(40, 8 * 1024);
        let summary = experiment.summary_text(&corpus);
        assert!(summary.contains("deployability"));
        assert!(summary.contains("payment"));
    }

    #[test]
    fn trace_experiment_distills_phases_latency_and_energy() {
        let experiment = trace_experiment(&[2], 1);
        assert_eq!(experiment.lanes.len(), 1);
        let lane = &experiment.lanes[0];
        assert_eq!(lane.sensors, 2);
        assert_eq!(lane.rounds, 1);
        assert!(lane.events > 0);
        assert_eq!(lane.dropped, 0, "65k ring must not drop a tiny sweep");
        // One round per sensor lands in the driver's latency histogram.
        assert_eq!(lane.latency.count, 2);
        assert!(lane.latency.p50 > 0.0);
        assert!(lane.energy_per_wei_uj > 0.0);
        assert!(lane.frames_tx > 0);
        let share_sum: f64 = lane.phase_share.iter().map(|(_, share)| share).sum();
        assert!(
            (share_sum - 1.0).abs() < 1e-9,
            "phase shares must normalize, got {share_sum}"
        );
        assert!(lane.phase_share.iter().any(|(phase, _)| phase == "payment"));
        assert!(experiment.jsonl.lines().count() >= lane.events);
        let text = experiment.text();
        assert!(text.contains("phase time share"));
        assert!(text.contains("µJ/wei"));
    }
}
