//! Paired host-time regression gate: perfbench's `host_ops_per_s` at a
//! base revision against the working tree, on one machine.
//!
//! ```text
//! cargo run -p tinyevm-bench --release --bin bench_gate -- <base-rev>
//! ```
//!
//! Both sides build at one path, in turn: the base revision is exported
//! (`git archive`) into `target/bench_gate/tree` and perfbench is built
//! there, then the tree is replaced by a copy of the working tree's tracked
//! and untracked files and built again. Code placement moves host time by
//! ~10% on its own, and two checkouts of one commit at different paths
//! already differ in `.text`, so each binary is kept
//! (`target/bench_gate/perfbench-base` and `perfbench-change`) and the
//! gate prints whether they are byte-identical: on a clean tree,
//! `bench_gate HEAD` must report that they are.
//!
//! Each benchmark workload then runs ten pairs of untraced 2-second runs
//! on seeds 1001–1010, the base first in even pairs and the change first
//! in odd ones. A workload regresses when the change loses at least 9 of
//! the 10 pairs (ties count for neither) **and** its median is below the
//! base's by more than the base's interquartile range (nearest-rank
//! quartiles): the benchmark's rule for claiming a gain, mirrored. A run
//! that exits non-zero fails the gate; a workload one side's
//! `BENCHMARK.json` does not name is skipped.
//!
//! What it catches, on a shared 2-vCPU VM: a build whose ECDSA signing
//! did five times the work (`payment` and `fleet_csma` at about 0.5×)
//! failed all three runs, on `fleet_csma` each time and on `payment` twice
//! (in the third, a bimodal base's IQR exceeded the gap). A build doing
//! twice the work (0.78× and 0.71×) passed. Smaller regressions are left
//! to the benchmark's 20-second protocol.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

const USAGE: &str = "usage: bench_gate <base-rev>";

/// The workloads `BENCHMARK.json` declares.
const WORKLOADS: [&str; 3] = ["payment", "fleet_csma", "corpus"];

/// Alternating base/change pairs per workload; pair `i` runs seed
/// `FIRST_SEED + i`.
const PAIRS: u64 = 10;
const FIRST_SEED: u64 = 1001;

/// perfbench's `--seconds` for every run.
const SECONDS: &str = "2";

/// Pairs the change must lose before a regression can be called.
const MIN_LOSSES: usize = 9;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let base_rev = match args.as_slice() {
        [flag] if flag == "--help" || flag == "-h" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        [rev] if !rev.starts_with('-') => rev,
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let start = Instant::now();
    let outcome = gate(base_rev);
    println!("bench_gate: {} s wall-clock", start.elapsed().as_secs());
    if let Err(message) = outcome {
        eprintln!("bench_gate: {message}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// One side of the comparison: its perfbench binary and its benchmark
/// declaration.
struct Side {
    binary: PathBuf,
    benchmark: String,
}

/// Builds the base revision and the working tree in turn at one path, then
/// compares them.
fn gate(base_rev: &str) -> Result<(), String> {
    let root = run(Command::new("git").args(["rev-parse", "--show-toplevel"]))?;
    let root = PathBuf::from(root.trim());
    let dir = root.join("target/bench_gate");
    let sides =
        build_side(&dir, "base", |tree| export_revision(&root, base_rev, tree)).and_then(|base| {
            let change = build_side(&dir, "change", |tree| copy_working_tree(&root, tree))?;
            Ok((base, change))
        });
    let _ = fs::remove_dir_all(dir.join("tree"));
    let (base, change) = sides?;
    let read = |side: &Side| {
        fs::read(&side.binary).map_err(|error| format!("cannot read {:?}: {error}", side.binary))
    };
    let (base_bytes, change_bytes) = (read(&base)?, read(&change)?);
    if base_bytes == change_bytes {
        println!("binaries: byte-identical ({} bytes)", base_bytes.len());
    } else {
        println!(
            "binaries: differ (base {} bytes, change {} bytes)",
            base_bytes.len(),
            change_bytes.len()
        );
    }
    compare(&base, &change)
}

/// Fills `dir/tree` afresh with `fill`, builds perfbench there, and keeps
/// the binary as `dir/perfbench-<name>`.
fn build_side(
    dir: &Path,
    name: &str,
    fill: impl FnOnce(&Path) -> Result<(), String>,
) -> Result<Side, String> {
    let tree = dir.join("tree");
    eprintln!("building perfbench for the {name} in {}...", tree.display());
    // A tree left behind by an interrupted run is replaced too.
    if tree.exists() {
        fs::remove_dir_all(&tree).map_err(|error| format!("cannot clear {tree:?}: {error}"))?;
    }
    fs::create_dir_all(&tree).map_err(|error| format!("cannot create {tree:?}: {error}"))?;
    fill(&tree)?;
    let built = build(&tree)?;
    let binary = dir.join(format!("perfbench-{name}"));
    fs::copy(&built, &binary).map_err(|error| format!("cannot keep {built:?}: {error}"))?;
    Ok(Side {
        binary,
        benchmark: fs::read_to_string(tree.join("BENCHMARK.json")).unwrap_or_default(),
    })
}

/// Writes the files of revision `rev` into the empty directory `tree`.
fn export_revision(root: &Path, rev: &str, tree: &Path) -> Result<(), String> {
    let mut archive = Command::new("git")
        .current_dir(root)
        .args(["archive", "--format=tar", rev])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|error| format!("cannot run git archive: {error}"))?;
    let stdout = archive.stdout.take().expect("stdout is piped");
    let extracted = run(Command::new("tar")
        .arg("-x")
        .arg("-C")
        .arg(tree)
        .stdin(stdout));
    let status = archive
        .wait()
        .map_err(|error| format!("git archive: {error}"))?;
    if !status.success() {
        return Err(format!("git archive {rev} exited with {status}"));
    }
    extracted.map(drop)
}

/// Copies the working tree's tracked and untracked, not ignored, files
/// into `tree`.
fn copy_working_tree(root: &Path, tree: &Path) -> Result<(), String> {
    let files = run(Command::new("git").current_dir(root).args([
        "ls-files",
        "-z",
        "--cached",
        "--others",
        "--exclude-standard",
    ]))?;
    for file in files.split('\0').filter(|file| !file.is_empty()) {
        let source = root.join(file);
        // A tracked file deleted in the working tree is not part of it.
        if !source.is_file() {
            continue;
        }
        let target = tree.join(file);
        if let Some(parent) = target.parent() {
            fs::create_dir_all(parent)
                .map_err(|error| format!("cannot create {parent:?}: {error}"))?;
        }
        fs::copy(&source, &target).map_err(|error| format!("cannot copy {file}: {error}"))?;
    }
    Ok(())
}

/// Runs every workload's pairs; an error names the workloads that
/// regressed.
fn compare(base: &Side, change: &Side) -> Result<(), String> {
    let binaries = [&base.binary, &change.binary];
    let mut regressions = Vec::new();
    for workload in WORKLOADS {
        if !declares(&base.benchmark, workload) || !declares(&change.benchmark, workload) {
            println!("{workload}: skipped, not declared on both sides");
            continue;
        }
        let mut pairs = Vec::new();
        for index in 0..PAIRS {
            let seed = FIRST_SEED + index;
            // Even pairs run the base first, odd pairs the change.
            let order = if index % 2 == 0 { [0, 1] } else { [1, 0] };
            let mut rates = [0.0; 2];
            for side in order {
                rates[side] = host_ops_per_s(binaries[side], workload, seed)?;
            }
            println!(
                "{workload} seed {seed}: base {:.1} change {:.1}",
                rates[0], rates[1]
            );
            pairs.push((rates[0], rates[1]));
        }
        let comparison = Comparison::new(&pairs);
        let regressed = comparison.regressed();
        if regressed {
            regressions.push(workload);
        }
        println!(
            "{workload}: base median {:.1} (IQR {:.1}), change median {:.1} ({:.2}×), \
             change loses {}/{} pairs: {}",
            comparison.base_median,
            comparison.base_iqr,
            comparison.change_median,
            comparison.change_median / comparison.base_median,
            comparison.losses,
            pairs.len(),
            if regressed { "REGRESSED" } else { "ok" }
        );
    }
    if regressions.is_empty() {
        Ok(())
    } else {
        Err(format!("host throughput regressed on {regressions:?}"))
    }
}

/// Whether a side's `BENCHMARK.json` declares `workload`.
fn declares(benchmark: &str, workload: &str) -> bool {
    benchmark.contains(&format!("\"{workload}\""))
}

/// Builds perfbench in release mode inside the tree at `side` and returns
/// the binary's path.
fn build(side: &Path) -> Result<PathBuf, String> {
    let target = side.join("perfbench/target");
    run(Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet"])
        .arg("--manifest-path")
        .arg(side.join("perfbench/Cargo.toml"))
        .arg("--target-dir")
        .arg(&target))?;
    Ok(target.join("release/tinyevm-perfbench"))
}

/// One untraced perfbench run's host throughput.
fn host_ops_per_s(binary: &Path, workload: &str, seed: u64) -> Result<f64, String> {
    let seed_arg = seed.to_string();
    let stdout = run(Command::new(binary)
        .args(["--workload", workload, "--seed", &seed_arg])
        .args(["--seconds", SECONDS, "--trace", "0"]))?;
    let metric = stdout
        .lines()
        .find_map(|line| line.strip_prefix("metric host_ops_per_s "));
    metric
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .ok_or_else(|| format!("{workload} seed {seed}: no host_ops_per_s metric printed"))
}

/// Runs `command` to completion and returns its standard output; a failure
/// to start or a non-zero exit is an error carrying the command's report.
fn run(command: &mut Command) -> Result<String, String> {
    let output = command
        .output()
        .map_err(|error| format!("cannot run {command:?}: {error}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    if !output.status.success() {
        // perfbench reports failed output checks on stdout.
        let checks: Vec<&str> = stdout.lines().filter(|l| l.contains("FAIL")).collect();
        let stderr = String::from_utf8_lossy(&output.stderr);
        return Err(format!(
            "{command:?} exited with {}\n{}\n{}",
            output.status,
            checks.join("\n"),
            stderr.trim_end()
        ));
    }
    Ok(stdout)
}

/// One workload's pairs, summarized for the decision rule.
#[derive(Debug)]
struct Comparison {
    base_median: f64,
    base_iqr: f64,
    change_median: f64,
    /// Pairs in which the change ran strictly slower than the base.
    losses: usize,
}

impl Comparison {
    /// Summarizes `(base, change)` host throughputs, one tuple per pair.
    fn new(pairs: &[(f64, f64)]) -> Self {
        let base: Vec<f64> = pairs.iter().map(|&(base, _)| base).collect();
        let change: Vec<f64> = pairs.iter().map(|&(_, change)| change).collect();
        Comparison {
            base_median: quantile(&base, 0.5),
            base_iqr: quantile(&base, 0.75) - quantile(&base, 0.25),
            change_median: quantile(&change, 0.5),
            losses: pairs.iter().filter(|(base, change)| change < base).count(),
        }
    }

    /// The change lost nearly every pair, by more than the base's own
    /// run-to-run spread.
    fn regressed(&self) -> bool {
        self.losses >= MIN_LOSSES && self.base_median - self.change_median > self.base_iqr
    }
}

/// Nearest-rank quantile `q` in `[0, 1]` of a non-empty `values`.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn judge(base: &[f64], change: &[f64]) -> Comparison {
        Comparison::new(
            &base
                .iter()
                .copied()
                .zip(change.iter().copied())
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn the_measured_series_are_judged_as_observed() {
        // Same build on both sides (A/A), and a build whose
        // `sign_prehashed` signed five times: the series measured on a
        // shared 2-vCPU VM, reproduced at their base median, base IQR and
        // losses. Only the slowed payment and fleet_csma may fail.
        let cases = [
            (
                "payment A/A",
                "3700 2900 4532 3300 4000 3800 2400 4700 4600 3000",
                "3600 3100 4300 3250 3900 3850 2300 4750 4500 3100",
                (3700., 1532., 6),
                false,
            ),
            (
                "fleet_csma A/A",
                "3927 3500 4548 3400 4100 3950 3600 4700 3300 4600",
                "3900 3450 4500 3300 4200 3900 3650 4600 3200 4700",
                (3927., 1048., 7),
                false,
            ),
            (
                "corpus A/A",
                "3191 3050 3455 3100 3300 3200 2900 3500 3000 3600",
                "3250 3150 3400 3200 3350 3300 3100 3450 3050 3650",
                (3191., 405., 2),
                false,
            ),
            (
                "payment 5x sign, 5,191 -> 2,417",
                "5191 5100 5241 5150 5200 5050 5260 5000 5300 5220",
                "2417 2380 2460 2400 2430 2350 2480 2300 2500 2450",
                (5191., 141., 10),
                true,
            ),
            (
                "fleet_csma 5x sign, 3,996 -> 2,006",
                "3996 3900 4171 3950 4000 3850 4200 3800 4250 4100",
                "2006 1980 2080 2000 2010 1950 2100 1900 2150 2050",
                (3996., 271., 10),
                true,
            ),
            (
                "corpus 5x sign, 3,296 -> 3,325",
                "3296 3260 3320 3280 3300 3250 3350 3200 3400 3310",
                "3325 3240 3360 3270 3330 3220 3380 3420 3340 3300",
                (3296., 60., 5),
                false,
            ),
        ];
        let rates = |text: &str| -> Vec<f64> {
            text.split(' ')
                .map(|rate| rate.parse().expect("a rate"))
                .collect()
        };
        for (series, base, change, expected, regressed) in cases {
            let comparison = judge(&rates(base), &rates(change));
            let summary = (
                comparison.base_median,
                comparison.base_iqr,
                comparison.losses,
            );
            assert_eq!(
                (summary, comparison.regressed()),
                (expected, regressed),
                "{series}"
            );
        }
    }

    #[test]
    fn a_regression_needs_nine_losses_and_a_gap_beyond_the_iqr() {
        // Nearest-rank quartiles of these: 95, 100 and 105.
        let base = [100., 90., 110., 95., 105., 100., 92., 108., 98., 102.];
        let slower = |by: f64, ties: usize| {
            let mut change = base.map(|rate| rate - by);
            change[..ties].copy_from_slice(&base[..ties]);
            judge(&base, &change)
        };
        // Nine losses (one tie), gap equal to the IQR of 10: noise.
        let at_iqr = slower(10., 1);
        let summary = (at_iqr.base_iqr, at_iqr.change_median, at_iqr.losses);
        assert_eq!(summary, (10., 90., 9));
        assert!(!at_iqr.regressed());
        // Nine losses, gap just beyond the IQR: a regression.
        assert!(slower(11., 1).regressed());
        // Eight losses (two ties count for neither) and a huge gap.
        let eight = slower(50., 2);
        assert_eq!(eight.losses, 8);
        assert!(!eight.regressed());
    }
}
