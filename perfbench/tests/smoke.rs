//! Smoke test of the benchmark itself: every workload, at a tiny size,
//! emits every metric `BENCHMARK.json` names, with a finite value and its
//! unit, and tracing changes no simulated statistic.
//!
//! ```text
//! cargo test --manifest-path perfbench/Cargo.toml
//! ```

use std::process::Command;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} section"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("the section is a list")];
    body.split("{\"name\": \"")
        .skip(1)
        .map(|entry| {
            let name = entry[..entry.find('"').expect("name is a string")].to_string();
            let unit_at = entry.find("\"unit\": \"").expect("every metric has a unit") + 9;
            let unit = &entry[unit_at..];
            (
                name,
                unit[..unit.find('"').expect("unit is a string")].to_string(),
            )
        })
        .collect()
}

struct Run {
    stdout: String,
}

impl Run {
    fn new(workload: &str, trace: u8) -> Run {
        let output = Command::new(env!("CARGO_BIN_EXE_tinyevm-perfbench"))
            .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
            .args(["--trace", &trace.to_string(), "--tiny"])
            .output()
            .expect("the benchmark binary runs");
        let stdout = String::from_utf8(output.stdout).expect("stdout is UTF-8");
        assert!(
            output.status.success(),
            "{workload} --trace {trace} failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        Run { stdout }
    }

    fn result(&self) -> &str {
        self.stdout.lines().last().expect("a result line")
    }

    /// The lines that must not change when tracing is on.
    fn simulated(&self) -> Vec<&str> {
        self.stdout
            .lines()
            .filter(|line| line.starts_with("virtual ") || line.starts_with("digest "))
            .collect()
    }

    fn assert_reports(&self, metrics: &[(String, String)]) {
        let result = self.result();
        assert!(result.starts_with("{\"correct\": true, "), "{result}");
        for (name, unit) in metrics {
            let key = format!("\"{name}\": {{\"value\": ");
            let at = result
                .find(&key)
                .unwrap_or_else(|| panic!("{name} missing from {result}"))
                + key.len();
            let rest = &result[at..];
            let comma = rest.find(',').expect("the value is followed by its unit");
            let value: f64 = rest[..comma]
                .parse()
                .unwrap_or_else(|error| panic!("{name}: {error}"));
            assert!(value.is_finite(), "{name} = {value}");
            assert!(
                rest[comma..].starts_with(&format!(", \"unit\": \"{unit}\"}}")),
                "{name} is not reported in {unit}: {rest}"
            );
        }
    }
}

fn smoke(workload: &str) {
    let plain = Run::new(workload, 0);
    let traced = Run::new(workload, 1);
    plain.assert_reports(&declared("end_to_end"));
    traced.assert_reports(&declared("per_layer"));
    assert!(plain.simulated().iter().any(|l| l.starts_with("digest ")));
    assert_eq!(
        plain.simulated(),
        traced.simulated(),
        "tracing changed a simulated statistic of {workload}"
    );
}

#[test]
fn payment_reports_every_metric_and_tracing_changes_nothing_simulated() {
    smoke("payment");
}

#[test]
fn fleet_csma_reports_every_metric_and_tracing_changes_nothing_simulated() {
    smoke("fleet_csma");
}

#[test]
fn corpus_reports_every_metric_and_tracing_changes_nothing_simulated() {
    smoke("corpus");
}
