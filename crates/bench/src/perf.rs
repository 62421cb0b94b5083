//! Machine-readable perf trajectory.
//!
//! The experiments harness samples the hot cryptographic operations and the
//! corpus-deployment wall-clock, then serializes them as a small JSON
//! document (`target/experiments/bench.json`). A snapshot of a full run is
//! committed at the repository root as `BENCH_crypto.json`, so each PR can
//! diff its perf against the previous one the way polkadot-sdk's committed
//! regression-bench `data.js` files do. No external JSON crate is needed —
//! the document is flat enough to format by hand.

use std::fmt::Write as _;
use std::time::Instant;

use tinyevm_crypto::secp256k1::{point, verify_batch, BatchItem, PrivateKey, Scalar};
use tinyevm_crypto::{keccak256, sha256};
use tinyevm_evm::{asm, Evm, EvmConfig};
use tinyevm_types::U256;

/// Median nanoseconds per operation for the cryptographic hot paths.
#[derive(Debug, Clone)]
pub struct CryptoPerf {
    /// One ECDSA signature (fixed-base table multiply + scalar inverse).
    pub ecdsa_sign_ns: f64,
    /// One ECDSA verification (single Shamir/Straus pass).
    pub ecdsa_verify_ns: f64,
    /// One public-key recovery.
    pub ecdsa_recover_ns: f64,
    /// One variable-base scalar multiplication (wNAF, Jacobian).
    pub scalar_mul_ns: f64,
    /// One fixed-base scalar multiplication through the comb table.
    pub generator_mul_ns: f64,
    /// Per-signature cost inside a 16-signature batch verification.
    pub batch_verify_per_sig_ns: f64,
    /// Gateway settlement, pre-redesign shape: verifying 8 channels'
    /// closing-state signatures one recovery at a time (per signature).
    pub settle_serial_per_sig_ns: f64,
    /// Gateway settlement, endpoint shape: all 8 closing signatures in one
    /// batched Straus pass (per signature).
    pub settle_batch_per_sig_ns: f64,
    /// One Keccak-256 of a 64-byte input, for scale.
    pub keccak256_64b_ns: f64,
}

/// Builds the deterministic fleet-settlement workload the settle lanes
/// measure: `count` channels' dual-signable closing states, each signed by
/// its own sensor key — exactly what the gateway endpoint batch-verifies in
/// `finalize_closes`.
pub fn sample_close_batch(count: u32) -> Vec<BatchItem> {
    (0..count)
        .map(|index| {
            let key = PrivateKey::from_seed(format!("settle sensor {index}").as_bytes());
            let state = tinyevm_chain::ChannelState {
                template: tinyevm_types::Address::from_low_u64(0xA000 + u64::from(index)),
                channel_id: u64::from(index) + 1,
                sequence: 4,
                total_to_receiver: tinyevm_types::Wei::from(7_500u64),
                sensor_data_hash: tinyevm_types::H256::from_low_u64(u64::from(index)),
            };
            let digest = state.digest();
            BatchItem {
                digest,
                signature: key.sign_prehashed(&digest),
                public_key: key.public_key(),
            }
        })
        .collect()
}

/// Builds the deterministic `count`-signature batch both the criterion
/// bench and [`sample_crypto_perf`] measure, so the two numbers always
/// describe the same workload.
pub fn sample_batch(count: u32) -> Vec<BatchItem> {
    (0..count)
        .map(|index| {
            let key = PrivateKey::from_seed(&index.to_be_bytes());
            let digest = sha256(&index.to_le_bytes());
            BatchItem {
                digest,
                signature: key.sign_prehashed(&digest),
                public_key: key.public_key(),
            }
        })
        .collect()
}

/// Times `routine` over `iterations` calls, repeated across a few samples,
/// and returns the median nanoseconds per call.
fn median_ns<F: FnMut()>(iterations: u32, mut routine: F) -> f64 {
    const SAMPLES: usize = 5;
    let mut samples = [0.0f64; SAMPLES];
    for sample in &mut samples {
        let start = Instant::now();
        for _ in 0..iterations {
            routine();
        }
        *sample = start.elapsed().as_nanos() as f64 / f64::from(iterations);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[SAMPLES / 2]
}

/// Samples every tracked cryptographic operation. Takes well under a second
/// on the fast paths.
pub fn sample_crypto_perf() -> CryptoPerf {
    let key = PrivateKey::from_seed(b"bench key");
    let digest = keccak256(b"benchmark payment payload");
    let signature = key.sign_prehashed(&digest);
    let public_key = key.public_key();
    let pub_point = *public_key.point();
    let scalar = Scalar::new(U256::from_be_bytes(keccak256(b"bench scalar")));
    let short = [0xabu8; 64];

    let batch = sample_batch(16);
    let closes = sample_close_batch(8);

    CryptoPerf {
        ecdsa_sign_ns: median_ns(20, || {
            std::hint::black_box(key.sign_prehashed(&digest));
        }),
        ecdsa_verify_ns: median_ns(20, || {
            std::hint::black_box(public_key.verify_prehashed(&digest, &signature));
        }),
        ecdsa_recover_ns: median_ns(20, || {
            std::hint::black_box(signature.recover(&digest).expect("valid signature"));
        }),
        scalar_mul_ns: median_ns(20, || {
            std::hint::black_box(pub_point.scalar_mul(scalar));
        }),
        generator_mul_ns: median_ns(20, || {
            // Include the affine normalization so the number is what
            // signing actually pays (and comparable to scalar_mul_ns).
            std::hint::black_box(point::generator_mul(scalar).to_affine());
        }),
        batch_verify_per_sig_ns: median_ns(4, || {
            std::hint::black_box(verify_batch(&batch));
        }) / batch.len() as f64,
        settle_serial_per_sig_ns: median_ns(4, || {
            // The pre-redesign settlement path: one recovery-style check
            // per channel.
            for item in &closes {
                std::hint::black_box(
                    item.public_key
                        .verify_prehashed(&item.digest, &item.signature),
                );
            }
        }) / closes.len() as f64,
        settle_batch_per_sig_ns: median_ns(4, || {
            // The gateway endpoint's settlement path: one Straus pass.
            std::hint::black_box(verify_batch(&closes));
        }) / closes.len() as f64,
        keccak256_64b_ns: median_ns(2000, || {
            std::hint::black_box(keccak256(&short));
        }),
    }
}

/// Host-side interpreter cost of the same hot-loop contract under the two
/// accounting strategies (mirrors the `evm` criterion bench).
#[derive(Debug, Clone)]
pub struct EvmExecPerf {
    /// Per-opcode metering (`Evm::execute`; nanoseconds per run).
    pub hot_loop_per_op_ns: f64,
    /// Block-batched checks on lazily decoded blocks (`Evm::execute`;
    /// nanoseconds per run).
    pub hot_loop_batched_ns: f64,
}

impl EvmExecPerf {
    /// Speedup of the batched fast path over per-opcode accounting.
    pub fn speedup(&self) -> f64 {
        if self.hot_loop_batched_ns > 0.0 {
            self.hot_loop_per_op_ns / self.hot_loop_batched_ns
        } else {
            0.0
        }
    }
}

/// Samples the interpreter fast-path lanes on the hot-loop contract the
/// `evm` criterion bench uses (a 10,000-iteration counting loop).
pub fn sample_evm_exec_perf() -> EvmExecPerf {
    let code = asm::assemble(
        "PUSH3 0x002710 PUSH1 0x00
         @loop: JUMPDEST
         DUP1 DUP1 ADD POP
         PUSH1 0x01 ADD DUP2 DUP2 LT PUSHLABEL @loop JUMPI
         POP POP STOP",
    )
    .expect("hot loop assembles");
    EvmExecPerf {
        hot_loop_per_op_ns: median_ns(3, || {
            std::hint::black_box(
                Evm::new(EvmConfig::cc2538().with_per_op_metering(true))
                    .execute(&code, &[])
                    .expect("hot loop runs"),
            );
        }),
        hot_loop_batched_ns: median_ns(3, || {
            std::hint::black_box(
                Evm::new(EvmConfig::cc2538())
                    .execute(&code, &[])
                    .expect("hot loop runs"),
            );
        }),
    }
}

/// Analyzer cost of producing a full artifact — decode, symbolic jump
/// resolution, verdict and gas certificate — for two representative
/// contracts: one whose loop yields an `Unbounded` certificate, one whose
/// shuffled constant jump resolves to a `Bounded` one.
#[derive(Debug, Clone)]
pub struct GasCertPerf {
    /// Full analysis of the hot-loop contract (nanoseconds per run).
    pub hot_loop_analyze_ns: f64,
    /// Full analysis of a shuffled-constant-jump contract (nanoseconds).
    pub shuffled_jump_analyze_ns: f64,
}

/// Samples the certificate lanes (mirrors the `analysis` criterion bench).
pub fn sample_gas_certificate_perf() -> GasCertPerf {
    let hot_loop = asm::assemble(
        "PUSH3 0x002710 PUSH1 0x00
         @loop: JUMPDEST
         DUP1 DUP1 ADD POP
         PUSH1 0x01 ADD DUP2 DUP2 LT PUSHLABEL @loop JUMPI
         POP POP STOP",
    )
    .expect("hot loop assembles");
    // PUSH1 8, PUSH1 0xAA, SWAP1, DUP1, POP, JUMP, JUMPDEST(8), POP, STOP.
    let shuffled = vec![
        0x60, 0x08, 0x60, 0xaa, 0x90, 0x80, 0x50, 0x56, 0x5b, 0x50, 0x00,
    ];
    let perf = GasCertPerf {
        hot_loop_analyze_ns: median_ns(200, || {
            std::hint::black_box(tinyevm_analysis::analyze(&hot_loop));
        }),
        shuffled_jump_analyze_ns: median_ns(200, || {
            std::hint::black_box(tinyevm_analysis::analyze(&shuffled));
        }),
    };
    debug_assert!(tinyevm_analysis::analyze(&shuffled)
        .gas_certificate()
        .is_bounded());
    perf
}

/// One multi-node gateway lane of the perf record: the modelled cost of a
/// whole fleet session at one sweep point.
#[derive(Debug, Clone)]
pub struct MultiNodeLane {
    /// Sensors in the fleet.
    pub sensors: usize,
    /// Payment rounds each sensor ran.
    pub rounds: usize,
    /// Mean end-to-end payment latency across all sensors (ms).
    pub mean_latency_ms: f64,
    /// Total bytes the shared medium carried.
    pub wire_bytes: u64,
    /// Total time the medium was busy (ms).
    pub airtime_ms: f64,
    /// Aggregate energy the sensor fleet consumed (mJ).
    pub fleet_energy_mj: f64,
}

impl MultiNodeLane {
    /// Builds a lane from a finished multi-node experiment.
    pub fn from_experiment(experiment: &crate::experiments::MultiNodeExperiment) -> Self {
        let latencies_ms: Vec<f64> = experiment
            .summaries
            .iter()
            .map(|s| s.mean_latency.as_secs_f64() * 1000.0)
            .collect();
        let mean_latency_ms = if latencies_ms.is_empty() {
            0.0
        } else {
            latencies_ms.iter().sum::<f64>() / latencies_ms.len() as f64
        };
        MultiNodeLane {
            sensors: experiment.sensors,
            rounds: experiment.rounds,
            mean_latency_ms,
            wire_bytes: experiment.medium_wire_bytes,
            airtime_ms: experiment.medium_airtime.as_secs_f64() * 1000.0,
            fleet_energy_mj: experiment.summaries.iter().map(|s| s.energy_mj).sum(),
        }
    }
}

/// One trace lane of the perf record: the distilled observability numbers
/// of a traced fleet session at one sweep point.
#[derive(Debug, Clone)]
pub struct TracePerfLane {
    /// Sensors in the fleet.
    pub sensors: usize,
    /// Payment rounds each sensor ran.
    pub rounds: usize,
    /// Structured events the recorder kept.
    pub events: usize,
    /// Events evicted by the bounded ring buffer.
    pub dropped: u64,
    /// Median per-round end-to-end latency (ms).
    pub round_latency_p50_ms: f64,
    /// 99th-percentile per-round end-to-end latency (ms).
    pub round_latency_p99_ms: f64,
    /// Fleet energy divided by wei settled on-chain (µJ/wei).
    pub energy_per_wei_uj: f64,
}

impl TracePerfLane {
    /// Builds a lane from a finished traced fleet session.
    pub fn from_lane(lane: &crate::experiments::TraceLane) -> Self {
        TracePerfLane {
            sensors: lane.sensors,
            rounds: lane.rounds,
            events: lane.events,
            dropped: lane.dropped,
            round_latency_p50_ms: lane.latency.p50,
            round_latency_p99_ms: lane.latency.p99,
            energy_per_wei_uj: lane.energy_per_wei_uj,
        }
    }
}

/// One fleet-simulation lane of the perf record: goodput and contention
/// measurements at one sweep point. Everything here is virtual-time, so
/// the numbers are byte-identical across machines and `--jobs` values.
#[derive(Debug, Clone)]
pub struct SimPerfLane {
    /// Sensors contending on the medium.
    pub sensors: usize,
    /// Payment rounds each sensor ran.
    pub rounds: usize,
    /// Completed rounds per simulated second.
    pub goodput_rounds_per_s: f64,
    /// Share of the simulated span the medium was busy (percent).
    pub airtime_utilization_pct: f64,
    /// Collided frames over transmission attempts (percent).
    pub collision_rate_pct: f64,
    /// Median end-to-end round latency (ms, virtual time).
    pub p50_latency_ms: f64,
    /// 99th-percentile end-to-end round latency (ms, virtual time).
    pub p99_latency_ms: f64,
    /// Frames the bounded per-peer RX queues refused.
    pub frames_dropped_queue_full: u64,
    /// Rounds abandoned after their retry budget ran out.
    pub aborted_rounds: u64,
}

impl SimPerfLane {
    /// Builds a lane from a finished fleet-simulation sweep point.
    pub fn from_experiment(experiment: &crate::experiments::FleetSimExperiment) -> Self {
        SimPerfLane {
            sensors: experiment.sensors,
            rounds: experiment.rounds,
            goodput_rounds_per_s: experiment.report.goodput_rounds_per_s,
            airtime_utilization_pct: experiment.report.airtime_utilization * 100.0,
            collision_rate_pct: experiment.report.collision_rate * 100.0,
            p50_latency_ms: experiment.p50_latency.as_secs_f64() * 1000.0,
            p99_latency_ms: experiment.p99_latency.as_secs_f64() * 1000.0,
            frames_dropped_queue_full: experiment.report.frames_dropped_queue_full,
            aborted_rounds: experiment.report.aborted_rounds,
        }
    }
}

/// The full perf record the harness writes to `bench.json`.
#[derive(Debug, Clone)]
pub struct PerfRecord {
    /// Corpus contracts attempted.
    pub contracts: usize,
    /// Contracts that deployed successfully.
    pub deployed: usize,
    /// Worker threads used for the corpus shards.
    pub jobs: usize,
    /// Corpus deployment wall-clock in milliseconds.
    pub corpus_wall_clock_ms: f64,
    /// Off-chain payment rounds measured.
    pub payments: usize,
    /// Mean modelled end-to-end payment latency in milliseconds.
    pub payment_end_to_end_ms: f64,
    /// The multi-node gateway sweep, one lane per fleet size.
    pub multinode: Vec<MultiNodeLane>,
    /// The traced fleet sweep, one lane per fleet size.
    pub trace: Vec<TracePerfLane>,
    /// The contending fleet-simulation sweep, one lane per fleet size.
    pub sim: Vec<SimPerfLane>,
    /// The crypto micro-benchmarks.
    pub crypto: CryptoPerf,
    /// The interpreter fast-path lanes.
    pub evm_exec: EvmExecPerf,
    /// The analyzer/certificate lanes.
    pub gas_certificate: GasCertPerf,
    /// The static-analysis sweep over the corpus.
    pub analysis: crate::experiments::AnalysisExperiment,
}

impl PerfRecord {
    /// Serializes the record as pretty-printed JSON with a stable key
    /// order, so snapshots diff cleanly between PRs.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"schema\": 7,");
        let _ = writeln!(out, "  \"crypto_ns\": {{");
        let c = &self.crypto;
        let _ = writeln!(out, "    \"ecdsa_sign\": {:.1},", c.ecdsa_sign_ns);
        let _ = writeln!(out, "    \"ecdsa_verify\": {:.1},", c.ecdsa_verify_ns);
        let _ = writeln!(out, "    \"ecdsa_recover\": {:.1},", c.ecdsa_recover_ns);
        let _ = writeln!(out, "    \"scalar_mul\": {:.1},", c.scalar_mul_ns);
        let _ = writeln!(out, "    \"generator_mul\": {:.1},", c.generator_mul_ns);
        let _ = writeln!(
            out,
            "    \"batch_verify_per_sig_16\": {:.1},",
            c.batch_verify_per_sig_ns
        );
        let _ = writeln!(
            out,
            "    \"settle_serial_per_sig_8\": {:.1},",
            c.settle_serial_per_sig_ns
        );
        let _ = writeln!(
            out,
            "    \"settle_batch_per_sig_8\": {:.1},",
            c.settle_batch_per_sig_ns
        );
        let _ = writeln!(out, "    \"keccak256_64B\": {:.1}", c.keccak256_64b_ns);
        let _ = writeln!(out, "  }},");
        let _ = writeln!(out, "  \"evm_exec_ns\": {{");
        let _ = writeln!(
            out,
            "    \"hot_loop_per_op\": {:.1},",
            self.evm_exec.hot_loop_per_op_ns
        );
        let _ = writeln!(
            out,
            "    \"hot_loop_batched_cached\": {:.1},",
            self.evm_exec.hot_loop_batched_ns
        );
        let _ = writeln!(out, "    \"speedup\": {:.2}", self.evm_exec.speedup());
        let _ = writeln!(out, "  }},");
        let _ = writeln!(out, "  \"gas_certificate_ns\": {{");
        let _ = writeln!(
            out,
            "    \"hot_loop_analyze\": {:.1},",
            self.gas_certificate.hot_loop_analyze_ns
        );
        let _ = writeln!(
            out,
            "    \"shuffled_jump_analyze\": {:.1}",
            self.gas_certificate.shuffled_jump_analyze_ns
        );
        let _ = writeln!(out, "  }},");
        let _ = writeln!(out, "  \"analysis\": {{");
        let a = &self.analysis;
        let _ = writeln!(out, "    \"contracts\": {},", a.total);
        let _ = writeln!(out, "    \"accepted\": {},", a.accepted);
        let _ = writeln!(
            out,
            "    \"unproven_dynamic_jump\": {},",
            a.unproven_dynamic_jump
        );
        let _ = writeln!(
            out,
            "    \"unproven_possible_underflow\": {},",
            a.unproven_possible_underflow
        );
        let _ = writeln!(out, "    \"rejected\": {},", a.rejected);
        let _ = writeln!(out, "    \"resolved_jumps\": {},", a.resolved_jumps);
        let _ = writeln!(
            out,
            "    \"certificates_bounded\": {},",
            a.certificates_bounded
        );
        let _ = writeln!(
            out,
            "    \"certificates_unbounded\": {},",
            a.certificates_unbounded
        );
        let _ = writeln!(
            out,
            "    \"certificates_uncertified\": {},",
            a.certificates_uncertified
        );
        let _ = writeln!(
            out,
            "    \"wall_clock_ms\": {:.1},",
            a.analysis_wall_clock_ms
        );
        let _ = writeln!(
            out,
            "    \"differential_contracts\": {},",
            a.differential_contracts
        );
        let _ = writeln!(
            out,
            "    \"differential_mismatches\": {}",
            a.differential_mismatches
        );
        let _ = writeln!(out, "  }},");
        let _ = writeln!(out, "  \"corpus\": {{");
        let _ = writeln!(out, "    \"contracts\": {},", self.contracts);
        let _ = writeln!(out, "    \"deployed\": {},", self.deployed);
        let _ = writeln!(out, "    \"jobs\": {},", self.jobs);
        let _ = writeln!(
            out,
            "    \"wall_clock_ms\": {:.1}",
            self.corpus_wall_clock_ms
        );
        let _ = writeln!(out, "  }},");
        let _ = writeln!(out, "  \"offchain\": {{");
        let _ = writeln!(out, "    \"payments\": {},", self.payments);
        let _ = writeln!(
            out,
            "    \"payment_end_to_end_ms\": {:.1}",
            self.payment_end_to_end_ms
        );
        let _ = writeln!(out, "  }},");
        // Flat headline section so `bench_gate`'s line scanner can gate a
        // sim lane: the 64-sensor sweep point runs in both quick and full
        // configurations, and its numbers are pure virtual time, so the
        // gate compares byte-identical values across machines.
        let headline = self
            .sim
            .iter()
            .find(|lane| lane.sensors == 64)
            .or_else(|| self.sim.first());
        let _ = writeln!(out, "  \"sim\": {{");
        let _ = writeln!(
            out,
            "    \"headline_sensors\": {},",
            headline.map(|lane| lane.sensors).unwrap_or(0)
        );
        let _ = writeln!(
            out,
            "    \"goodput_rounds_per_s\": {:.4},",
            headline
                .map(|lane| lane.goodput_rounds_per_s)
                .unwrap_or(0.0)
        );
        let _ = writeln!(
            out,
            "    \"airtime_utilization_pct\": {:.3},",
            headline
                .map(|lane| lane.airtime_utilization_pct)
                .unwrap_or(0.0)
        );
        let _ = writeln!(
            out,
            "    \"collision_rate_pct\": {:.3},",
            headline.map(|lane| lane.collision_rate_pct).unwrap_or(0.0)
        );
        let _ = writeln!(
            out,
            "    \"p99_latency_ms\": {:.1}",
            headline.map(|lane| lane.p99_latency_ms).unwrap_or(0.0)
        );
        let _ = writeln!(out, "  }},");
        let _ = writeln!(out, "  \"multinode\": [");
        for (index, lane) in self.multinode.iter().enumerate() {
            let comma = if index + 1 < self.multinode.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "    {{\"sensors\": {}, \"rounds\": {}, \"mean_latency_ms\": {:.1}, \"wire_bytes\": {}, \"airtime_ms\": {:.1}, \"fleet_energy_mj\": {:.1}}}{comma}",
                lane.sensors,
                lane.rounds,
                lane.mean_latency_ms,
                lane.wire_bytes,
                lane.airtime_ms,
                lane.fleet_energy_mj
            );
        }
        let _ = writeln!(out, "  ],");
        let _ = writeln!(out, "  \"trace\": [");
        for (index, lane) in self.trace.iter().enumerate() {
            let comma = if index + 1 < self.trace.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "    {{\"sensors\": {}, \"rounds\": {}, \"events\": {}, \"dropped\": {}, \"round_latency_p50_ms\": {:.1}, \"round_latency_p99_ms\": {:.1}, \"energy_per_wei_uj\": {:.3}}}{comma}",
                lane.sensors,
                lane.rounds,
                lane.events,
                lane.dropped,
                lane.round_latency_p50_ms,
                lane.round_latency_p99_ms,
                lane.energy_per_wei_uj
            );
        }
        let _ = writeln!(out, "  ],");
        let _ = writeln!(out, "  \"sim_sweep\": [");
        for (index, lane) in self.sim.iter().enumerate() {
            let comma = if index + 1 < self.sim.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"sensors\": {}, \"rounds\": {}, \"goodput_rounds_per_s\": {:.4}, \"airtime_utilization_pct\": {:.3}, \"collision_rate_pct\": {:.3}, \"p50_latency_ms\": {:.1}, \"p99_latency_ms\": {:.1}, \"frames_dropped_queue_full\": {}, \"aborted_rounds\": {}}}{comma}",
                lane.sensors,
                lane.rounds,
                lane.goodput_rounds_per_s,
                lane.airtime_utilization_pct,
                lane.collision_rate_pct,
                lane.p50_latency_ms,
                lane.p99_latency_ms,
                lane.frames_dropped_queue_full,
                lane.aborted_rounds
            );
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn crypto_perf_samples_are_positive_and_ordered() {
        let perf = sample_crypto_perf();
        assert!(perf.ecdsa_sign_ns > 0.0);
        assert!(perf.ecdsa_verify_ns > 0.0);
        assert!(perf.ecdsa_recover_ns > 0.0);
        assert!(perf.scalar_mul_ns > 0.0);
        assert!(perf.generator_mul_ns > 0.0);
        assert!(perf.batch_verify_per_sig_ns > 0.0);
        assert!(perf.settle_serial_per_sig_ns > 0.0);
        assert!(perf.settle_batch_per_sig_ns > 0.0);
        // The fixed-base comb path must beat the variable-base path.
        assert!(perf.generator_mul_ns < perf.scalar_mul_ns);
        // One Straus pass over the fleet's closing signatures must beat
        // checking them one at a time.
        let (serial, batch) = settle_minimums(9);
        assert!(batch < serial, "batch {batch:?} vs serial {serial:?}");
    }

    /// The fastest of `runs` interleaved timings of the serial and the
    /// batched settlement paths over the same closing signatures. Taking
    /// turns exposes both paths to the same machine load, and each side's
    /// minimum is its least disturbed run, so a burst of load on another
    /// tenant cannot flip their order.
    fn settle_minimums(runs: usize) -> (Duration, Duration) {
        let closes = sample_close_batch(8);
        let (mut serial, mut batch) = (Duration::MAX, Duration::MAX);
        for _ in 0..runs {
            let start = Instant::now();
            for item in &closes {
                std::hint::black_box(
                    item.public_key
                        .verify_prehashed(&item.digest, &item.signature),
                );
            }
            serial = serial.min(start.elapsed());
            let start = Instant::now();
            std::hint::black_box(verify_batch(&closes));
            batch = batch.min(start.elapsed());
        }
        (serial, batch)
    }

    #[test]
    fn perf_record_serializes_every_key() {
        let record = PerfRecord {
            contracts: 700,
            deployed: 650,
            jobs: 2,
            corpus_wall_clock_ms: 1234.5,
            payments: 3,
            payment_end_to_end_ms: 583.8,
            multinode: vec![
                MultiNodeLane {
                    sensors: 4,
                    rounds: 3,
                    mean_latency_ms: 583.8,
                    wire_bytes: 12_345,
                    airtime_ms: 456.7,
                    fleet_energy_mj: 321.0,
                },
                MultiNodeLane {
                    sensors: 8,
                    rounds: 3,
                    mean_latency_ms: 584.1,
                    wire_bytes: 24_690,
                    airtime_ms: 913.4,
                    fleet_energy_mj: 642.0,
                },
            ],
            crypto: CryptoPerf {
                ecdsa_sign_ns: 1.0,
                ecdsa_verify_ns: 2.0,
                ecdsa_recover_ns: 3.0,
                scalar_mul_ns: 4.0,
                generator_mul_ns: 5.0,
                batch_verify_per_sig_ns: 6.0,
                settle_serial_per_sig_ns: 8.0,
                settle_batch_per_sig_ns: 6.5,
                keccak256_64b_ns: 7.0,
            },
            trace: vec![TracePerfLane {
                sensors: 4,
                rounds: 3,
                events: 1_234,
                dropped: 0,
                round_latency_p50_ms: 583.8,
                round_latency_p99_ms: 601.2,
                energy_per_wei_uj: 0.012,
            }],
            sim: vec![SimPerfLane {
                sensors: 64,
                rounds: 1,
                goodput_rounds_per_s: 1.87,
                airtime_utilization_pct: 12.3,
                collision_rate_pct: 34.5,
                p50_latency_ms: 612.0,
                p99_latency_ms: 2_480.0,
                frames_dropped_queue_full: 2,
                aborted_rounds: 0,
            }],
            evm_exec: EvmExecPerf {
                hot_loop_per_op_ns: 2_000_000.0,
                hot_loop_batched_ns: 900_000.0,
            },
            gas_certificate: GasCertPerf {
                hot_loop_analyze_ns: 4_000.0,
                shuffled_jump_analyze_ns: 1_500.0,
            },
            analysis: crate::experiments::AnalysisExperiment {
                total: 7_000,
                accepted: 5_000,
                unproven_dynamic_jump: 1_200,
                unproven_possible_underflow: 300,
                rejected: 500,
                resolved_jumps: 1_800,
                certificates_bounded: 6_000,
                certificates_unbounded: 700,
                certificates_uncertified: 300,
                bytes_analyzed: 1_000_000,
                analysis_wall_clock_ms: 2_000.0,
                differential_contracts: 700,
                differential_mismatches: 0,
            },
        };
        let json = record.to_json();
        for key in [
            "\"schema\"",
            "\"evm_exec_ns\"",
            "\"hot_loop_per_op\"",
            "\"hot_loop_batched_cached\"",
            "\"speedup\"",
            "\"gas_certificate_ns\"",
            "\"hot_loop_analyze\"",
            "\"shuffled_jump_analyze\"",
            "\"analysis\"",
            "\"accepted\"",
            "\"unproven_dynamic_jump\"",
            "\"unproven_possible_underflow\"",
            "\"rejected\"",
            "\"resolved_jumps\"",
            "\"certificates_bounded\"",
            "\"certificates_unbounded\"",
            "\"certificates_uncertified\"",
            "\"differential_mismatches\"",
            "\"crypto_ns\"",
            "\"ecdsa_sign\"",
            "\"ecdsa_verify\"",
            "\"ecdsa_recover\"",
            "\"scalar_mul\"",
            "\"generator_mul\"",
            "\"batch_verify_per_sig_16\"",
            "\"settle_serial_per_sig_8\"",
            "\"settle_batch_per_sig_8\"",
            "\"keccak256_64B\"",
            "\"corpus\"",
            "\"contracts\"",
            "\"deployed\"",
            "\"jobs\"",
            "\"wall_clock_ms\"",
            "\"offchain\"",
            "\"payments\"",
            "\"payment_end_to_end_ms\"",
            "\"multinode\"",
            "\"sensors\"",
            "\"wire_bytes\"",
            "\"airtime_ms\"",
            "\"fleet_energy_mj\"",
            "\"trace\"",
            "\"events\"",
            "\"dropped\"",
            "\"round_latency_p50_ms\"",
            "\"round_latency_p99_ms\"",
            "\"energy_per_wei_uj\"",
            "\"sim\"",
            "\"headline_sensors\"",
            "\"goodput_rounds_per_s\"",
            "\"airtime_utilization_pct\"",
            "\"collision_rate_pct\"",
            "\"p50_latency_ms\"",
            "\"p99_latency_ms\"",
            "\"frames_dropped_queue_full\"",
            "\"aborted_rounds\"",
            "\"sim_sweep\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(
            json.matches("\"sensors\"").count(),
            4,
            "both multinode lanes, the trace lane and the sim lane emitted"
        );
        // The flat `sim` headline must mirror the 64-sensor sweep lane so
        // `bench_gate`'s line scanner gates real numbers.
        assert!(json.contains("\"headline_sensors\": 64,"));
        assert!(json.contains("\"goodput_rounds_per_s\": 1.8700,"));
    }
}
