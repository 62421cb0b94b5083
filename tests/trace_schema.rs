//! Schema stability of the observability surface: golden JSON vectors for
//! every trace event variant and for `ExecMetrics`, plus a property test
//! pinning the histogram quantiles to a sorted-vector oracle.
//!
//! The JSONL trace export and the `experiments.json` trace lanes are
//! consumed by external tooling; any change to these vectors is a schema
//! break and must be made deliberately.

use proptest::prelude::*;
use tinyevm::evm::{EvmConfig, ExecMetrics};
use tinyevm::trace::{value_to_json, Histogram, TraceEvent};

fn golden_events() -> Vec<(TraceEvent, &'static str)> {
    vec![
        (
            TraceEvent::Power {
                node: "smart-car".into(),
                state: "TX".into(),
                start_us: 10,
                duration_us: 25,
                current_ma: 24.0,
            },
            r#"{"type":"Power","node":"smart-car","state":"TX","start_us":10,"duration_us":25,"current_ma":24}"#,
        ),
        (
            TraceEvent::FrameTx {
                from: "0x0001".into(),
                to: "0x00fe".into(),
                bytes: 127,
                airtime_us: 4064,
                retransmission: false,
            },
            r#"{"type":"FrameTx","from":"0x0001","to":"0x00fe","bytes":127,"airtime_us":4064,"retransmission":false}"#,
        ),
        (
            TraceEvent::FrameLost {
                from: "0x0001".into(),
                to: "0x00fe".into(),
                bytes: 127,
            },
            r#"{"type":"FrameLost","from":"0x0001","to":"0x00fe","bytes":127}"#,
        ),
        (
            TraceEvent::Phase {
                node: "smart-car".into(),
                peer: "0x0001".into(),
                phase: "payment".into(),
                sequence: 3,
                duration_us: 355_000,
            },
            r#"{"type":"Phase","node":"smart-car","peer":"0x0001","phase":"payment","sequence":3,"duration_us":355000}"#,
        ),
        (
            TraceEvent::Round {
                node: "smart-car".into(),
                peer: "0x0001".into(),
                sequence: 3,
                cumulative_wei: 30_000,
                latency_us: 1_435_600,
            },
            r#"{"type":"Round","node":"smart-car","peer":"0x0001","sequence":3,"cumulative_wei":30000,"latency_us":1435600}"#,
        ),
        (
            TraceEvent::ContractCall {
                outcome: "return".into(),
                instructions: 120,
                mcu_cycles: 600,
                operation_cycles: 200,
                smart_contract_cycles: 0,
                memory_cycles: 380,
                blockchain_cycles: 0,
                iot_cycles: 20,
                keccak_invocations: 1,
            },
            r#"{"type":"ContractCall","outcome":"return","instructions":120,"mcu_cycles":600,"operation_cycles":200,"smart_contract_cycles":0,"memory_cycles":380,"blockchain_cycles":0,"iot_cycles":20,"keccak_invocations":1}"#,
        ),
    ]
}

#[test]
fn trace_event_golden_vectors() {
    for (event, expected) in golden_events() {
        assert_eq!(
            event.to_json(),
            expected,
            "schema break in {} event JSON",
            event.kind()
        );
    }
}

#[test]
fn exec_metrics_golden_vector() {
    // A tiny deterministic program: the serialized metrics are pinned, so
    // any change to `ExecMetrics`' serde schema (field names, order, the
    // histogram encoding) fails here first.
    let program = tinyevm::evm::asm::assemble("PUSH1 0x02 PUSH1 0x03 ADD POP STOP")
        .expect("golden program assembles");
    let result = tinyevm::evm::Evm::new(EvmConfig::cc2538())
        .execute(&program, &[])
        .expect("golden program executes");
    let value = serde::to_value(&result.metrics).expect("metrics serialize");
    let json = value_to_json(&value);

    // The scalar prefix is the schema-sensitive part; pin it exactly.
    let prefix = json
        .split(",\"opcode_histogram\":")
        .next()
        .expect("histogram field present");
    assert_eq!(
        prefix,
        "{\"instructions\":5,\"mcu_cycles\":460,\"max_stack_pointer\":2,\
         \"memory_high_water\":0,\"storage_bytes\":0,\"gas_used\":0,\
         \"keccak_invocations\":0,\"keccak_bytes\":0,\"iot_invocations\":0",
        "schema break in ExecMetrics scalar fields"
    );
    // The histogram renders as a 256-entry array whose buckets match the
    // executed opcodes: 2×PUSH1 (0x60), 1×ADD (0x01), 1×POP (0x50), 1×STOP.
    let histogram: ExecMetrics = serde::from_value(value).expect("metrics deserialize");
    assert_eq!(histogram, result.metrics, "round trip changed the metrics");
    assert_eq!(result.metrics.opcode_histogram[0x60], 2);
    assert_eq!(result.metrics.opcode_histogram[0x01], 1);
    assert_eq!(result.metrics.opcode_histogram[0x50], 1);
    assert_eq!(result.metrics.opcode_histogram[0x00], 1);
    assert!(json.contains("\"opcode_histogram\":[1,1,0"));
}

/// Independent nearest-rank quantile: sort a copy, take element
/// `ceil(q * n)` (1-indexed, clamped).
fn oracle_quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = sorted.len();
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

proptest! {
    #[test]
    fn histogram_quantiles_match_the_sorted_vec_oracle(
        raw_samples in proptest::collection::vec(-1_000_000_000i64..1_000_000_000, 1..200),
        raw_q in 0u32..=1000,
    ) {
        // The vendored proptest has no float range strategies; integer
        // samples scaled to f64 cover the quantile arithmetic just as well.
        let samples: Vec<f64> = raw_samples.iter().map(|&v| v as f64 / 1000.0).collect();
        let q = f64::from(raw_q) / 1000.0;
        let mut histogram = Histogram::new();
        for &sample in &samples {
            histogram.observe(sample);
        }
        prop_assert_eq!(histogram.count(), samples.len() as u64);
        prop_assert_eq!(histogram.quantile(q), oracle_quantile(&samples, q));
        for fixed in [0.50, 0.90, 0.99] {
            prop_assert_eq!(histogram.quantile(fixed), oracle_quantile(&samples, fixed));
        }
        // max() is the largest sample; every quantile is a member of the set.
        let largest = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(histogram.max(), Some(largest));
        let quantile = histogram.quantile(q).unwrap();
        prop_assert!(samples.contains(&quantile), "quantile {quantile} not a sample");
    }
}
