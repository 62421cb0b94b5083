//! The harness's deterministic record, `experiments.json`.
//!
//! Every number here is a count or lives on the virtual device clock: the
//! analyzer and corpus censuses, the modelled payment's latency, energy and
//! wire bytes, and the fleet lanes. Each float derives from integer
//! nanoseconds, byte counts and fixed-order energy sums, so the file is
//! byte-identical across runs, machines and `--jobs` values. A full run's
//! record is committed at the repository root as `experiments.json`, and
//! CI diffs a fresh one against it exactly. Host time is not recorded:
//! perfbench measures it and `bench_gate` gates it.

use serde::Serialize;
use tinyevm_trace::value_to_json;

use crate::experiments::{AnalysisCensus, FleetSimExperiment, MultiNodeExperiment, TraceLane};

/// The corpus section: how much of the corpus deployed.
#[derive(Debug, Clone, Default, Serialize)]
pub struct CorpusLane {
    /// Corpus contracts attempted.
    pub contracts: usize,
    /// Contracts that deployed successfully.
    pub deployed: usize,
}

/// The off-chain section: the modelled two-party payment session.
#[derive(Debug, Clone, Default, Serialize)]
pub struct OffChainLane {
    /// Payment rounds measured.
    pub payments: usize,
    /// Mean modelled end-to-end payment latency (ms).
    pub payment_end_to_end_ms: f64,
    /// The sender's modelled energy per payment (mJ).
    pub energy_mj_per_payment: f64,
    /// Bytes the session's link carried over the air.
    pub wire_bytes: u64,
}

/// One multi-node gateway lane: the modelled cost of a whole fleet session
/// at one sweep point.
#[derive(Debug, Clone, Serialize)]
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
    pub fn from_experiment(experiment: &MultiNodeExperiment) -> Self {
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

/// One trace lane: the distilled observability numbers of a traced fleet
/// session at one sweep point.
#[derive(Debug, Clone, Serialize)]
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
    pub fn from_lane(lane: &TraceLane) -> Self {
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

/// One fleet-simulation lane: goodput and contention at one sweep point,
/// all in virtual time.
#[derive(Debug, Clone, Serialize)]
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
    pub fn from_experiment(experiment: &FleetSimExperiment) -> Self {
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

/// The record the harness writes to `experiments.json`, one section per
/// experiment.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ExperimentsRecord {
    /// The analyzer's verdict and certificate census over the full corpus,
    /// plus the batched-vs-per-opcode differential tallies.
    pub analysis: AnalysisCensus,
    /// The corpus macro-benchmark.
    pub corpus: CorpusLane,
    /// The off-chain payment micro-benchmark.
    pub offchain: OffChainLane,
    /// The multi-node gateway sweep, one lane per fleet size.
    pub multinode: Vec<MultiNodeLane>,
    /// The traced fleet sweep, one lane per fleet size.
    pub trace: Vec<TracePerfLane>,
    /// The contending fleet-simulation sweep, one lane per fleet size.
    pub sim_sweep: Vec<SimPerfLane>,
}

impl ExperimentsRecord {
    /// Renders the record as JSON with one top-level section per line, so
    /// a diff of two records names the section that moved.
    pub fn to_json(&self) -> String {
        let serde::Value::Map(sections) = serde::to_value(self).expect("the record serializes")
        else {
            unreachable!("a struct serializes to a map");
        };
        let lines: Vec<String> = sections
            .iter()
            .map(|(name, section)| format!("  \"{name}\": {}", value_to_json(section)))
            .collect();
        format!("{{\n{}\n}}\n", lines.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_renders_one_section_per_line() {
        let json = ExperimentsRecord::default().to_json();
        let sections: Vec<&str> = json
            .lines()
            .filter_map(|line| line.strip_prefix("  \"")?.split('"').next())
            .collect();
        assert_eq!(
            sections,
            [
                "analysis",
                "corpus",
                "offchain",
                "multinode",
                "trace",
                "sim_sweep"
            ]
        );
        assert!(json.starts_with("{\n") && json.ends_with("\n  \"sim_sweep\": []\n}\n"));
        assert!(json.contains("\n  \"corpus\": {\"contracts\":0,\"deployed\":0},\n"));
    }
}
