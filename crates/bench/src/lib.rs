//! Experiment harness reproducing every table and figure of the TinyEVM
//! paper's evaluation (Section VI).
//!
//! Each `experiments::*` function runs one experiment end to end on the
//! simulated substrates and returns both the raw numbers and a formatted
//! text rendition that mirrors the paper's presentation. The
//! `experiments` binary (`cargo run -p tinyevm-bench --release --bin
//! experiments`) runs them all and writes the results under
//! `target/experiments/`, among them the deterministic record
//! `experiments.json` ([`record`]) that CI diffs exactly against the
//! committed copy. Host time is measured elsewhere: the `bench_gate`
//! binary gates perfbench's host throughput with paired runs of a base
//! revision against the working tree, and the Criterion benches in
//! `benches/` time the layers perfbench does not.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod record;

pub use experiments::{
    analysis_experiment, analysis_experiment_on, corpus_experiment, corpus_experiment_sharded,
    faults_experiment, fleet_sim_experiment, fleet_sim_sweep, fleet_sim_text, multinode_experiment,
    multinode_sweep, multinode_text, offchain_experiment, table1_text, table3_text,
    trace_experiment, AnalysisCensus, AnalysisExperiment, CorpusExperiment, FaultsExperiment,
    FleetSimExperiment, MultiNodeExperiment, OffChainExperiment, TraceExperiment, TraceLane,
};
pub use record::{
    CorpusLane, ExperimentsRecord, MultiNodeLane, OffChainLane, SimPerfLane, TracePerfLane,
};
