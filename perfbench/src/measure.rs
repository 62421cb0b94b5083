//! Host-clock helpers shared by the workloads: options, metric records,
//! order statistics, fixed-work windows, the drift-control kernel, peak RSS
//! and the digest of simulated statistics.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name (`payment`, `fleet_csma` or `corpus`).
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Nominal length of the timed phase; the fixed work of a run is sized
    /// from it.
    pub seconds: u64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Shrink every size so a debug build finishes in seconds (smoke test).
    pub tiny: bool,
}

/// Where a number comes from. Printed beside every metric so replayed and
/// reference numbers are never read as measurements of the workload itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Host clock, measured on the workload itself.
    Host,
    /// Virtual device clock; deterministic for a seed.
    Virtual,
    /// A count or ratio of simulated events; deterministic for a seed.
    Count,
    /// Host clock, timed around each call the workload makes.
    Span,
    /// Host clock, a layer's public function replayed on the inputs this
    /// workload fed it.
    Replayed,
    /// Host clock, a layer this workload bypasses, timed on a small
    /// reference session so every traced run shows every layer.
    Reference,
}

impl Source {
    fn label(self) -> &'static str {
        match self {
            Source::Host => "host",
            Source::Virtual => "virtual",
            Source::Count => "count",
            Source::Span => "span",
            Source::Replayed => "replayed",
            Source::Reference => "reference",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub source: Source,
}

/// A list of metrics under construction.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: &'static str, unit: &'static str, value: f64, source: Source) {
        self.0.push(Metric {
            name,
            unit,
            value,
            source,
        });
    }
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations whose outcome did not check out.
    pub failed: u64,
    /// Named output checks; any `false` fails the run.
    pub checks: Vec<(String, bool)>,
    /// FNV-1a digest of every simulated statistic of the run.
    pub digest: u64,
    /// End-to-end metrics (reported by untraced runs).
    pub end_to_end: Metrics,
    /// Per-layer metrics (reported by traced runs).
    pub per_layer: Metrics,
    /// Free-form lines printed before the result (sample counts, paper
    /// references, the per-op accounting).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }
}

/// Prints one metric as a human-readable line.
pub fn metric_line(metric: &Metric) -> String {
    format!(
        "metric {:<34} {:>16} {:<6} [{}]",
        metric.name,
        metric.value,
        metric.unit,
        metric.source.label()
    )
}

// --- order statistics ----------------------------------------------------

/// Nearest-rank quantile `q` in `[0, 1]` of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The highest percentile with at least ten samples beyond it: the value
/// and that percentile. With too few samples for that percentile to lie
/// above the median it is the maximum (and 100).
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return (0.0, 100.0);
    }
    if n < 22 {
        return (sorted[n - 1], 100.0);
    }
    let index = n - 11;
    (sorted[index], (index + 1) as f64 / n as f64 * 100.0)
}

pub fn micros(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e6
}

pub fn millis(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// Mean host time of one call of `f` over `reps` calls, in µs.
pub fn time_per_call_us(reps: usize, mut f: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    for index in 0..reps {
        f(index);
    }
    micros(start.elapsed()) / reps.max(1) as f64
}

/// Host time of each of `reps` calls of `f`, in µs.
pub fn time_each_us(reps: usize, mut f: impl FnMut(usize)) -> Vec<f64> {
    (0..reps)
        .map(|index| {
            let start = Instant::now();
            f(index);
            micros(start.elapsed())
        })
        .collect()
}

// --- fixed-work windows ----------------------------------------------------

/// The window statistic `host_ops_per_s` reports: the 90th percentile of
/// the window rates, i.e. the 10th percentile of the window times. On a
/// shared machine the slow windows are the ones other tenants interfered
/// with; across runs this quantile repeated about twice as closely as the
/// median (IQR/median 0.04 against 0.10 over five `fleet_csma` seeds).
const WINDOW_QUANTILE: f64 = 0.9;

/// Host throughput over fixed-work windows. A single window or a single
/// minimum is at the mercy of the machine's phase; a quantile over many
/// windows spread across the timed phase is not.
#[derive(Debug, Default)]
pub struct Windows {
    plain: Vec<f64>,
    traced: Vec<f64>,
}

impl Windows {
    /// Records a window of `ops` operations that took `elapsed`.
    pub fn record(&mut self, ops: u64, elapsed: Duration, traced: bool) {
        let rate = ops as f64 / elapsed.as_secs_f64().max(1e-9);
        if traced {
            self.traced.push(rate);
        } else {
            self.plain.push(rate);
        }
    }

    /// Ops per host second over the untraced windows.
    pub fn ops_per_s(&self) -> f64 {
        self.ops_per_s_at(WINDOW_QUANTILE)
    }

    /// Ops per host second at quantile `q` of the untraced windows' rates.
    pub fn ops_per_s_at(&self, q: f64) -> f64 {
        quantile(&self.plain, q)
    }

    /// How much slower the traced windows ran than the untraced ones, in %.
    pub fn trace_overhead_pct(&self) -> f64 {
        let traced = quantile(&self.traced, WINDOW_QUANTILE);
        (self.ops_per_s() / traced.max(1e-9) - 1.0) * 100.0
    }

    pub fn count(&self) -> usize {
        self.plain.len() + self.traced.len()
    }

    /// The untraced window rates at p10, p50 and p90, for the run's notes.
    pub fn describe(&self) -> String {
        format!(
            "p10 {:.1} p50 {:.1} p90 {:.1} /s",
            self.ops_per_s_at(0.1),
            self.ops_per_s_at(0.5),
            self.ops_per_s_at(0.9)
        )
    }
}

/// Set-ups before and after the timed phase. The last one before it builds
/// the session the run measures; the ones after it are built and dropped.
/// Set-up allocates heavily and follows the machine's phase more closely than
/// the timed phase does, so `setup_s` is the median of set-ups spread over
/// the run rather than of its first seconds.
pub fn setup_schedule(options: &Options) -> (usize, usize) {
    if options.tiny {
        (1, 0)
    } else {
        (2, 3)
    }
}

/// Whether window `index` of a run is traced: every other window of a traced
/// run, so its untraced windows give the overhead baseline in-process.
pub fn traced_window(options: &Options, index: usize) -> bool {
    options.trace && index % 2 == 0
}

// --- drift control ---------------------------------------------------------

/// A fixed std-only kernel: xorshift fill and sort of 16,384 words.
fn calibration_kernel() -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut words: Vec<u64> = (0..16_384)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    words.sort_unstable();
    words[words.len() / 2]
}

/// Five timed runs of the calibration kernel, in µs. It touches no code of
/// the repository, so it moves only when the machine does.
pub fn calibrate() -> Vec<f64> {
    time_each_us(5, |_| {
        black_box(calibration_kernel());
    })
}

// --- memory ------------------------------------------------------------------

/// The process's peak resident set (VmHWM), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|error| format!("cannot read /proc/self/status: {error}"))?;
    let line = status
        .lines()
        .find(|line| line.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|error| format!("bad VmHWM line {line:?}: {error}"))?;
    Ok(kib / 1024.0)
}

// --- inputs and digests ------------------------------------------------------

/// splitmix64 of `seed` and `index`: the source of every seeded input.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over the text of every simulated statistic a run produced.
#[derive(Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn write(&mut self, text: &str) {
        for byte in text.bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}
