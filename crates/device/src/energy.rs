//! Energest-style energy accounting.
//!
//! Contiki-NG's Energest module estimates energy by tracking how long the
//! node spends in each power state and multiplying by a per-state current
//! and the supply voltage. The paper's Table IV reports exactly that for one
//! off-chain payment round on the CC2538 at 2.1 V:
//!
//! | state            | current | time    | energy |
//! |------------------|---------|---------|--------|
//! | crypto engine    | 26 mA   | 350 ms  | 19.1 mJ |
//! | TX               | 24 mA   | 32 ms   | 1.6 mJ |
//! | RX               | 20 mA   | 52 ms   | 2.1 mJ |
//! | CPU @ 32 MHz     | 13 mA   | 150 ms  | 4.1 mJ |
//! | CPU @ LPM2       | 1.3 mA  | 982 ms  | 2.7 mJ |
//!
//! [`EnergyMeter`] reimplements that integrator and additionally records a
//! timeline of `(start, duration, state)` entries so the Figure 5 current
//! trace can be regenerated.

use std::time::Duration;

use serde::{Deserialize, Serialize};
use tinyevm_trace::{TraceEvent, TraceHandle};

/// A power state of the device, in the Energest sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PowerState {
    /// CPU active, executing the virtual machine or protocol code.
    CpuActive,
    /// CPU in low-power mode 2 (the paper configures LPM2 when idle).
    Lpm2,
    /// Radio transmitting.
    Tx,
    /// Radio receiving.
    Rx,
    /// Hardware cryptographic engine busy.
    CryptoEngine,
}

impl PowerState {
    /// All states in the order Table IV lists them.
    pub const ALL: [PowerState; 5] = [
        PowerState::CryptoEngine,
        PowerState::Tx,
        PowerState::Rx,
        PowerState::CpuActive,
        PowerState::Lpm2,
    ];

    /// Current draw in milliamps for the CC2538 (Table IV).
    pub fn current_ma(self) -> f64 {
        match self {
            PowerState::CryptoEngine => 26.0,
            PowerState::Tx => 24.0,
            PowerState::Rx => 20.0,
            PowerState::CpuActive => 13.0,
            PowerState::Lpm2 => 1.3,
        }
    }

    /// Index of the state inside [`PowerState::ALL`] (used for the
    /// per-state residency accumulators).
    fn index(self) -> usize {
        match self {
            PowerState::CryptoEngine => 0,
            PowerState::Tx => 1,
            PowerState::Rx => 2,
            PowerState::CpuActive => 3,
            PowerState::Lpm2 => 4,
        }
    }

    /// Human-readable label matching the paper's table rows.
    pub fn label(self) -> &'static str {
        match self {
            PowerState::CryptoEngine => "Cryptographic Engine",
            PowerState::Tx => "TX",
            PowerState::Rx => "RX",
            PowerState::CpuActive => "CPU @ 32 MHz",
            PowerState::Lpm2 => "CPU @ LPM2",
        }
    }
}

/// One contiguous interval spent in a power state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimelineEntry {
    /// Offset from the start of the measurement.
    pub start: Duration,
    /// How long the state was held.
    pub duration: Duration,
    /// The state.
    pub state: PowerState,
}

impl TimelineEntry {
    /// Current drawn during this entry, in mA.
    pub fn current_ma(&self) -> f64 {
        self.state.current_ma()
    }

    /// End of the interval.
    pub fn end(&self) -> Duration {
        self.start + self.duration
    }
}

/// Energy figures for one power state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StateEnergy {
    /// The state.
    pub state: PowerState,
    /// Accumulated residency.
    pub time: Duration,
    /// Current draw used for the computation, in mA.
    pub current_ma: f64,
    /// Energy in millijoules at the configured supply voltage.
    pub energy_mj: f64,
}

/// The full energy report (Table IV equivalent).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyReport {
    /// Supply voltage used.
    pub voltage: f64,
    /// Per-state rows, in Table IV order.
    pub states: Vec<StateEnergy>,
}

impl EnergyReport {
    /// Total time across all states.
    pub fn total_time(&self) -> Duration {
        self.states.iter().map(|s| s.time).sum()
    }

    /// Total energy in millijoules.
    pub fn total_energy_mj(&self) -> f64 {
        self.states.iter().map(|s| s.energy_mj).sum()
    }

    /// Energy of one state in millijoules.
    pub fn energy_of(&self, state: PowerState) -> f64 {
        self.states
            .iter()
            .find(|s| s.state == state)
            .map(|s| s.energy_mj)
            .unwrap_or(0.0)
    }

    /// Time spent in one state.
    pub fn time_of(&self, state: PowerState) -> Duration {
        self.states
            .iter()
            .find(|s| s.state == state)
            .map(|s| s.time)
            .unwrap_or(Duration::ZERO)
    }

    /// Fraction of total energy attributable to `state` (0.0 when nothing
    /// has been recorded).
    pub fn share_of(&self, state: PowerState) -> f64 {
        let total = self.total_energy_mj();
        if total == 0.0 {
            0.0
        } else {
            self.energy_of(state) / total
        }
    }

    /// Estimates how many repetitions of the measured activity a battery of
    /// `battery_joules` can sustain (the paper's 10 kJ AA-pair estimate that
    /// yields "roughly 333,000 payments").
    pub fn payments_per_battery(&self, battery_joules: f64) -> u64 {
        let energy_j = self.total_energy_mj() / 1000.0;
        if energy_j <= 0.0 {
            return 0;
        }
        (battery_joules / energy_j) as u64
    }

    /// Estimates battery lifetime given one measured activity every
    /// `interval`, using the paper's methodology: lifetime = (battery /
    /// per-activity energy) × interval. The paper explicitly leaves deep
    /// sleep and battery leakage out of this estimate; use
    /// [`EnergyReport::battery_lifetime_with_idle`] for the variant that
    /// charges LPM2 current between activities.
    pub fn battery_lifetime(&self, battery_joules: f64, interval: Duration) -> Duration {
        let payments = self.payments_per_battery(battery_joules);
        if payments == 0 {
            return Duration::MAX;
        }
        Duration::from_secs_f64(payments as f64 * interval.as_secs_f64())
    }

    /// Battery lifetime when the idle time between activities is charged at
    /// the LPM2 current — the more conservative estimate the paper alludes
    /// to when it notes that deep-sleep consumption "needs to be considered".
    pub fn battery_lifetime_with_idle(&self, battery_joules: f64, interval: Duration) -> Duration {
        let active_energy_j = self.total_energy_mj() / 1000.0;
        let active_time = self.total_time();
        let idle_time = interval.saturating_sub(active_time);
        let idle_energy_j =
            PowerState::Lpm2.current_ma() / 1000.0 * self.voltage * idle_time.as_secs_f64();
        let per_interval = active_energy_j + idle_energy_j;
        if per_interval <= 0.0 {
            return Duration::MAX;
        }
        let intervals = battery_joules / per_interval;
        Duration::from_secs_f64(intervals * interval.as_secs_f64())
    }
}

/// An Energest-style state-residency energy meter with a timeline.
///
/// Residency totals (and therefore every energy figure in
/// [`EnergyMeter::report`]) live in per-state accumulators, independent of
/// the timeline. The timeline itself is a *bounded* Figure 5 trace:
/// adjacent intervals in the same state are merged into one entry, and
/// once [`EnergyMeter::with_timeline_cap`]'s cap is reached the oldest
/// entries are evicted (counted in
/// [`EnergyMeter::timeline_truncated`]). Capping or compaction never
/// changes the energy report. Eviction costs O(1) amortized: the backing
/// buffer grows to twice the cap and then drops its oldest half in one
/// go, while [`EnergyMeter::timeline`] always shows the newest `cap`
/// entries.
///
/// # Example
///
/// ```
/// use tinyevm_device::{EnergyMeter, PowerState};
/// use std::time::Duration;
///
/// let mut meter = EnergyMeter::cc2538();
/// meter.record(PowerState::CryptoEngine, Duration::from_millis(350));
/// meter.record(PowerState::CpuActive, Duration::from_millis(150));
/// let report = meter.report();
/// assert!(report.energy_of(PowerState::CryptoEngine) > report.energy_of(PowerState::CpuActive));
/// ```
#[derive(Debug, Clone)]
pub struct EnergyMeter {
    voltage: f64,
    /// Backing buffer of the timeline: the retained window is its last
    /// `timeline_cap` entries; up to as many evicted ones precede it.
    timeline: Vec<TimelineEntry>,
    timeline_cap: usize,
    timeline_truncated: u64,
    totals: [Duration; PowerState::ALL.len()],
    clock: Duration,
    tracer: TraceHandle,
    trace_label: String,
}

/// Default bound on retained timeline entries. A payment round produces a
/// few dozen state transitions, so this keeps hundreds of rounds of
/// Figure 5 context while bounding a soak run's memory.
pub const DEFAULT_TIMELINE_CAP: usize = 8_192;

impl EnergyMeter {
    /// A meter for the CC2538 at the paper's 2.1 V supply.
    pub fn cc2538() -> Self {
        Self::with_voltage(2.1)
    }

    /// A meter with a custom supply voltage.
    pub fn with_voltage(voltage: f64) -> Self {
        EnergyMeter {
            voltage,
            timeline: Vec::new(),
            timeline_cap: DEFAULT_TIMELINE_CAP,
            timeline_truncated: 0,
            totals: [Duration::ZERO; PowerState::ALL.len()],
            clock: Duration::ZERO,
            tracer: TraceHandle::default(),
            trace_label: String::new(),
        }
    }

    /// Sets the maximum number of retained timeline entries (minimum 1).
    pub fn with_timeline_cap(mut self, cap: usize) -> Self {
        self.timeline_cap = cap.max(1);
        self
    }

    /// Attaches a tracer: every recorded interval is published as a
    /// [`TraceEvent::Power`] with `label` as the node name.
    pub fn set_tracer(&mut self, label: &str, tracer: TraceHandle) {
        self.trace_label = label.to_string();
        self.tracer = tracer;
    }

    /// The supply voltage.
    pub fn voltage(&self) -> f64 {
        self.voltage
    }

    /// The simulated wall-clock time elapsed so far.
    pub fn now(&self) -> Duration {
        self.clock
    }

    /// Records `duration` spent in `state`, advancing the simulated clock.
    pub fn record(&mut self, state: PowerState, duration: Duration) {
        if duration.is_zero() {
            return;
        }
        self.tracer.event(|| TraceEvent::Power {
            node: self.trace_label.clone(),
            state: state.label().to_string(),
            start_us: self.clock.as_micros() as u64,
            duration_us: duration.as_micros() as u64,
            current_ma: state.current_ma(),
        });
        self.totals[state.index()] += duration;
        // Contiguous same-state intervals compact into one timeline entry
        // (the Figure 5 trace only changes on state *transitions*).
        match self.timeline.last_mut() {
            Some(last) if last.state == state && last.end() == self.clock => {
                last.duration += duration;
            }
            _ => {
                if self.timeline.len() >= self.timeline_cap {
                    self.timeline_truncated += 1;
                    // Twice the cap (written so a cap of `usize::MAX`
                    // cannot overflow): drop the evicted half at once.
                    if self.timeline.len() - self.timeline_cap == self.timeline_cap {
                        self.timeline.drain(..self.timeline_cap);
                    }
                }
                self.timeline.push(TimelineEntry {
                    start: self.clock,
                    duration,
                    state,
                });
            }
        }
        self.clock += duration;
    }

    /// The recorded timeline (Figure 5 raw data): state-transition
    /// intervals, bounded by the timeline cap.
    pub fn timeline(&self) -> &[TimelineEntry] {
        let evicted = self.timeline.len().saturating_sub(self.timeline_cap);
        &self.timeline[evicted..]
    }

    /// Number of timeline entries evicted because the cap was reached.
    pub fn timeline_truncated(&self) -> u64 {
        self.timeline_truncated
    }

    /// Resets the meter and timeline.
    pub fn reset(&mut self) {
        self.timeline.clear();
        self.timeline_truncated = 0;
        self.totals = [Duration::ZERO; PowerState::ALL.len()];
        self.clock = Duration::ZERO;
    }

    /// Total residency of one state (exact even after timeline eviction).
    pub fn time_in(&self, state: PowerState) -> Duration {
        self.totals[state.index()]
    }

    /// Builds the Table IV style report.
    pub fn report(&self) -> EnergyReport {
        let states = PowerState::ALL
            .iter()
            .map(|&state| {
                let time = self.time_in(state);
                let current_ma = state.current_ma();
                // E [mJ] = I [mA] * V [V] * t [s]
                let energy_mj = current_ma * self.voltage * time.as_secs_f64();
                StateEnergy {
                    state,
                    time,
                    current_ma,
                    energy_mj,
                }
            })
            .collect();
        EnergyReport {
            voltage: self.voltage,
            states,
        }
    }

    /// Samples the current draw at a point in time (mA); zero when the
    /// device is between recorded activities (i.e. off in the model).
    pub fn current_at(&self, at: Duration) -> f64 {
        self.timeline()
            .iter()
            .find(|e| at >= e.start && at < e.end())
            .map(|e| e.current_ma())
            .unwrap_or(0.0)
    }
}

impl Default for EnergyMeter {
    fn default() -> Self {
        EnergyMeter::cc2538()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tolerance: f64) -> bool {
        (a - b).abs() <= tolerance
    }

    #[test]
    fn currents_match_table_four() {
        assert_eq!(PowerState::CryptoEngine.current_ma(), 26.0);
        assert_eq!(PowerState::Tx.current_ma(), 24.0);
        assert_eq!(PowerState::Rx.current_ma(), 20.0);
        assert_eq!(PowerState::CpuActive.current_ma(), 13.0);
        assert_eq!(PowerState::Lpm2.current_ma(), 1.3);
    }

    #[test]
    fn table_four_energy_reproduction() {
        // Feed the meter the exact residencies of Table IV and check the
        // energy column comes out right.
        let mut meter = EnergyMeter::cc2538();
        meter.record(PowerState::CryptoEngine, Duration::from_millis(350));
        meter.record(PowerState::Tx, Duration::from_millis(32));
        meter.record(PowerState::Rx, Duration::from_millis(52));
        meter.record(PowerState::CpuActive, Duration::from_millis(150));
        meter.record(PowerState::Lpm2, Duration::from_millis(982));
        let report = meter.report();
        assert!(close(report.energy_of(PowerState::CryptoEngine), 19.1, 0.2));
        assert!(close(report.energy_of(PowerState::Tx), 1.6, 0.1));
        assert!(close(report.energy_of(PowerState::Rx), 2.1, 0.1));
        assert!(close(report.energy_of(PowerState::CpuActive), 4.1, 0.1));
        assert!(close(report.energy_of(PowerState::Lpm2), 2.7, 0.1));
        assert!(close(report.total_energy_mj(), 29.6, 0.5));
        assert_eq!(report.total_time(), Duration::from_millis(1566));
    }

    #[test]
    fn crypto_engine_dominates_the_split() {
        let mut meter = EnergyMeter::cc2538();
        meter.record(PowerState::CryptoEngine, Duration::from_millis(350));
        meter.record(PowerState::Tx, Duration::from_millis(32));
        meter.record(PowerState::Rx, Duration::from_millis(52));
        meter.record(PowerState::CpuActive, Duration::from_millis(150));
        meter.record(PowerState::Lpm2, Duration::from_millis(982));
        let report = meter.report();
        // The paper reports ~65% of the energy going to the crypto engine.
        assert!(report.share_of(PowerState::CryptoEngine) > 0.55);
        assert!(report.share_of(PowerState::CryptoEngine) < 0.75);
        assert!(report.share_of(PowerState::Tx) < 0.2);
    }

    #[test]
    fn battery_estimates_match_paper_order_of_magnitude() {
        let mut meter = EnergyMeter::cc2538();
        meter.record(PowerState::CryptoEngine, Duration::from_millis(350));
        meter.record(PowerState::Tx, Duration::from_millis(32));
        meter.record(PowerState::Rx, Duration::from_millis(52));
        meter.record(PowerState::CpuActive, Duration::from_millis(150));
        meter.record(PowerState::Lpm2, Duration::from_millis(982));
        let report = meter.report();
        // ~10 kJ from a pair of AA cells -> roughly 333k payments.
        let payments = report.payments_per_battery(10_000.0);
        assert!(
            payments > 250_000 && payments < 450_000,
            "payments = {payments}"
        );
        // One payment every 10 minutes -> more than six years with the
        // paper's methodology (idle consumption excluded).
        let lifetime = report.battery_lifetime(10_000.0, Duration::from_secs(600));
        let years = lifetime.as_secs_f64() / (365.25 * 24.0 * 3600.0);
        assert!(years > 5.0, "lifetime = {years} years");
        assert!(years < 10.0, "lifetime = {years} years");
        // Charging LPM2 between payments shortens it drastically — the
        // caveat the paper itself raises.
        let conservative = report.battery_lifetime_with_idle(10_000.0, Duration::from_secs(600));
        assert!(conservative < lifetime);
    }

    #[test]
    fn timeline_entries_are_contiguous() {
        let mut meter = EnergyMeter::cc2538();
        meter.record(PowerState::CpuActive, Duration::from_millis(10));
        meter.record(PowerState::Tx, Duration::from_millis(5));
        meter.record(PowerState::Lpm2, Duration::ZERO); // ignored
        meter.record(PowerState::Rx, Duration::from_millis(7));
        let timeline = meter.timeline();
        assert_eq!(timeline.len(), 3);
        assert_eq!(timeline[0].start, Duration::ZERO);
        assert_eq!(timeline[1].start, Duration::from_millis(10));
        assert_eq!(timeline[2].start, Duration::from_millis(15));
        assert_eq!(meter.now(), Duration::from_millis(22));
    }

    #[test]
    fn current_sampling() {
        let mut meter = EnergyMeter::cc2538();
        meter.record(PowerState::CpuActive, Duration::from_millis(10));
        meter.record(PowerState::Tx, Duration::from_millis(10));
        assert_eq!(meter.current_at(Duration::from_millis(5)), 13.0);
        assert_eq!(meter.current_at(Duration::from_millis(15)), 24.0);
        assert_eq!(meter.current_at(Duration::from_millis(50)), 0.0);
    }

    #[test]
    fn reset_clears_state() {
        let mut meter = EnergyMeter::cc2538();
        meter.record(PowerState::CpuActive, Duration::from_millis(10));
        meter.reset();
        assert!(meter.timeline().is_empty());
        assert_eq!(meter.now(), Duration::ZERO);
        assert_eq!(meter.report().total_energy_mj(), 0.0);
        assert_eq!(meter.report().payments_per_battery(10_000.0), 0);
    }

    #[test]
    fn labels_are_present_for_all_states() {
        for state in PowerState::ALL {
            assert!(!state.label().is_empty());
        }
    }

    #[test]
    fn share_of_empty_report_is_zero() {
        let meter = EnergyMeter::cc2538();
        assert_eq!(meter.report().share_of(PowerState::Tx), 0.0);
    }

    #[test]
    fn adjacent_same_state_entries_compact() {
        let mut meter = EnergyMeter::cc2538();
        meter.record(PowerState::CpuActive, Duration::from_millis(10));
        meter.record(PowerState::CpuActive, Duration::from_millis(5));
        meter.record(PowerState::Tx, Duration::from_millis(2));
        meter.record(PowerState::CpuActive, Duration::from_millis(3));
        // Two CPU intervals merged; the one after TX starts a new entry.
        let timeline = meter.timeline();
        assert_eq!(timeline.len(), 3);
        assert_eq!(timeline[0].duration, Duration::from_millis(15));
        assert_eq!(timeline[0].state, PowerState::CpuActive);
        // Totals are unaffected by compaction.
        assert_eq!(
            meter.time_in(PowerState::CpuActive),
            Duration::from_millis(18)
        );
        assert_eq!(meter.now(), Duration::from_millis(20));
    }

    #[test]
    fn timeline_cap_keeps_the_report_exact() {
        // Regression for the unbounded-timeline memory growth: run far past
        // the cap and check that eviction is counted, the retained tail is
        // bounded, and the energy report still integrates *all* intervals.
        let mut capped = EnergyMeter::cc2538().with_timeline_cap(16);
        let mut single = EnergyMeter::cc2538().with_timeline_cap(1);
        let mut unbounded = EnergyMeter::cc2538().with_timeline_cap(usize::MAX);
        for i in 0..1000u32 {
            // Alternate states so compaction cannot absorb the entries.
            let state = if i % 2 == 0 {
                PowerState::CpuActive
            } else {
                PowerState::Rx
            };
            for meter in [&mut capped, &mut single, &mut unbounded] {
                if i % 50 == 0 {
                    // Two halves of one interval merge into one entry.
                    meter.record(state, Duration::from_millis(1));
                    meter.record(state, Duration::from_millis(2));
                } else {
                    meter.record(state, Duration::from_millis(3));
                }
            }
            // Eviction drains the backing buffer in batches; before and
            // after every drain the window is exactly the newest entries.
            let all = unbounded.timeline();
            assert_eq!(capped.timeline(), &all[all.len().saturating_sub(16)..]);
            assert_eq!(single.timeline(), &all[all.len() - 1..]);
        }
        assert_eq!(capped.timeline().len(), 16);
        assert_eq!(capped.timeline_truncated(), 1000 - 16);
        assert_eq!(unbounded.timeline_truncated(), 0);
        // Reports and clocks are identical despite the eviction.
        assert_eq!(capped.report(), unbounded.report());
        assert_eq!(capped.now(), unbounded.now());
        assert_eq!(
            capped.time_in(PowerState::CpuActive),
            Duration::from_millis(1500)
        );
        // The retained tail is the most recent transitions.
        let first_kept = capped.timeline()[0];
        assert_eq!(first_kept.start, Duration::from_millis(3 * (1000 - 16)));
        // Reading the window never exposes an evicted entry.
        assert_eq!(capped.current_at(Duration::from_millis(3)), 0.0);
        // Reset clears the eviction counter too.
        capped.reset();
        assert_eq!(capped.timeline_truncated(), 0);
        assert!(capped.timeline().is_empty());
    }

    #[test]
    fn recorded_intervals_publish_power_events() {
        use tinyevm_trace::TraceHandle;
        let tracer = TraceHandle::recording(64);
        let mut meter = EnergyMeter::cc2538();
        meter.set_tracer("sensor", tracer.clone());
        meter.record(PowerState::Tx, Duration::from_millis(4));
        meter.record(PowerState::Tx, Duration::from_millis(4));
        let snapshot = tracer.snapshot().unwrap();
        // One event per record() call, even though the timeline compacted
        // the two intervals into one entry.
        assert_eq!(snapshot.events.len(), 2);
        assert_eq!(meter.timeline().len(), 1);
        match &snapshot.events[1] {
            tinyevm_trace::TraceEvent::Power {
                node,
                state,
                start_us,
                duration_us,
                current_ma,
            } => {
                assert_eq!(node, "sensor");
                assert_eq!(state, "TX");
                assert_eq!(*start_us, 4_000);
                assert_eq!(*duration_us, 4_000);
                assert_eq!(*current_ma, 24.0);
            }
            other => panic!("expected a Power event, got {other:?}"),
        }
    }
}
