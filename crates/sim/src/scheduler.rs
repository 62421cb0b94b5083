//! The fleet scheduler: N sensor endpoints against one gateway, driven by
//! a virtual-clock event loop over a contending medium — the one engine
//! every fleet runs on.
//!
//! The sans-IO [`ChannelEndpoint`]s take wire messages in and put
//! envelopes out, with no transport assumptions. [`FleetScheduler`]
//! exploits that. Under contention every sensor starts its payment round
//! at once; their frames contend slot by slot on a [`ContendingMedium`];
//! deliveries are discrete events on an
//! [`EventQueue`](crate::event::EventQueue) keyed by `(time_ns, seq)`; the
//! gateway is a serial server whose per-peer RX queues are bounded
//! (overflow frames are shed and counted). Endpoint `wait()` pacing, retry
//! backoff deadlines and crypto/processing costs all advance the same
//! virtual clocks, so a run is reproducible byte for byte.
//!
//! Contention slots are not queued events. The loop keeps the next slot
//! boundary itself, ordered against same-instant deliveries by the queue
//! sequence number it was armed at, and before each event it jumps over
//! every slot in which nothing can happen: no delivery lands, the gateway
//! is still busy (or has nothing parked), no sensor has output to poll, no
//! sender holding a frame wakes, and no ready sender's back-off expires.
//! A skipped slot still counts in the medium's `slots_elapsed` and still
//! counts the ready senders' back-off down; it draws nothing, exactly as
//! an idle slot resolved on its own. In the backlog regime, where nearly
//! every sensor waits on the serial gateway, almost every slot is skipped.
//!
//! Two schedules share one implementation:
//!
//! * [`AccessScheme::SingleSlot`] — contention-free lockstep: sensors take
//!   turns in address order, each owning the whole medium for its round,
//!   which runs to completion through the same [`pump_contention_free`]
//!   code path as the two-party `ProtocolDriver`. The fleet goldens of the
//!   driver-equivalence tests pin this schedule.
//! * [`AccessScheme::CsmaCa`] — the event-driven interleaved schedule
//!   described above.
//!
//! Per-event bookkeeping never scans the whole fleet: bit sets track who
//! is active, who holds a frame and whose state changed since the last
//! event, and an event visits only the sensors in them.
//!
//! Intent phases that are pure per-sensor computation (signing a payment,
//! signing a close) are sharded across `jobs` worker threads between event
//! barriers; shards own disjoint sensors and results merge in address
//! order, so the `jobs` value never changes a single byte of the outcome.
//!
//! Uplink frames contend; gateway replies ride dedicated coordinator
//! downlink slots (as a TSCH schedule would provision), so acknowledgement
//! traffic cannot be starved by a large uplink backlog.

use std::path::Path;
use std::time::Duration;

use tinyevm_chain::{Blockchain, TemplateConfig};
use tinyevm_channel::gateway::{
    classify, FaultClass, GatewayRoundReport, GatewaySettlementReport, SensorHealth, SensorSummary,
    GATEWAY_ADDR,
};
use tinyevm_channel::session::{read_session, write_session};
use tinyevm_channel::{
    pump_contention_free, ChannelEndpoint, ChannelRegistration, Effect, EndpointError, Envelope,
    PaymentReceipt, ProtocolError, RetryPolicy, IDLE_GAP,
};
use tinyevm_device::SimTime;
use tinyevm_net::{
    AccessScheme, ContendingMedium, ContentionConfig, FaultConfig, LinkConfig, MediumError,
    NodeAddr, Radio, SlotOutcome, DEFAULT_RX_QUEUE_CAPACITY,
};
use tinyevm_trace::TraceHandle;
use tinyevm_types::{Wei, H256};

use crate::index_set::IndexSet;

/// Hard ceiling on contention slots per drive phase — a deterministic
/// backstop that turns a scheduling bug into a typed error instead of an
/// endless loop. At 5 ms slots this is ~2.8 virtual hours, far above any
/// legitimate sweep point. Skipped slots count toward it like any other.
const SLOT_BUDGET: u64 = 2_000_000;

/// Configuration of a simulated fleet session.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of sensors (addresses `1..=N`; the gateway at
    /// [`GATEWAY_ADDR`] for fleets that fit below it, `N + 1` beyond).
    pub sensors: usize,
    /// Base link configuration (bit rate, loss, retries; the medium derives
    /// each endpoint's loss and fault seeds from it and the endpoint's
    /// address).
    pub link: LinkConfig,
    /// Deposit locked per channel.
    pub deposit: Wei,
    /// Medium-access model arbitrating uplink slots.
    pub contention: ContentionConfig,
    /// Worker threads for the sharded intent phases. Never changes the
    /// simulation's outcome — only host wall-clock.
    pub jobs: usize,
    /// Bound on each per-peer RX queue at the gateway (at least 1).
    pub rx_queue_capacity: usize,
    /// Retransmission policy installed on every endpoint. `None` keeps
    /// the endpoint default for single-slot schedules (the policy the
    /// two-party driver runs) and installs a fleet-scaled policy for
    /// contended ones: the gateway is a serial server, so a sensor deep in
    /// an N-sensor backlog must keep retrying for roughly N
    /// payment-service times before giving up.
    pub retry: Option<RetryPolicy>,
}

impl FleetConfig {
    /// A CSMA/CA fleet with default link, deposit and queue bound.
    pub fn csma(sensors: usize, seed: u64) -> Self {
        FleetConfig {
            sensors,
            link: LinkConfig::default(),
            deposit: Wei::from(1_000_000u64),
            contention: ContentionConfig::csma(seed),
            jobs: 1,
            rx_queue_capacity: DEFAULT_RX_QUEUE_CAPACITY,
            retry: None,
        }
    }

    /// The retry policy a contended fleet of `sensors` runs unless one is
    /// configured explicitly: backoff capped near the fleet's serial
    /// service horizon (~25 ms of gateway work per queued sensor), enough
    /// attempts to ride out a full backlog rotation.
    pub fn fleet_retry_policy(sensors: usize) -> RetryPolicy {
        let cap_ms = (sensors as u64).saturating_mul(25).max(800);
        RetryPolicy {
            max_attempts: 64,
            base_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_millis(cap_ms),
        }
    }

    /// The contention-free single-slot (lockstep) schedule.
    pub fn single_slot(sensors: usize) -> Self {
        FleetConfig {
            contention: ContentionConfig::single_slot(),
            ..FleetConfig::csma(sensors, 0)
        }
    }
}

/// Aggregate measurements of a finished (or running) fleet session.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Sensors in the fleet.
    pub sensors: usize,
    /// Completed payment rounds.
    pub completed_payments: u64,
    /// Rounds abandoned after the retry budget ran out.
    pub aborted_rounds: u64,
    /// Virtual time the whole session spanned.
    pub sim_duration: Duration,
    /// Contention slots resolved.
    pub slots: u64,
    /// Slots in which frames overlapped.
    pub collision_events: u64,
    /// Frames destroyed in collisions.
    pub frames_collided: u64,
    /// Uplink transmission attempts that reached the air (collided frames
    /// excluded).
    pub uplink_conveys: u64,
    /// Airtime wasted by collisions.
    pub collision_airtime: Duration,
    /// Total medium busy time: per-endpoint airtime + collision waste.
    pub busy_airtime: Duration,
    /// Frames shed because a bounded per-peer RX queue was full.
    pub frames_dropped_queue_full: u64,
    /// Completed payments per virtual second.
    pub goodput_rounds_per_s: f64,
    /// Fraction of virtual time the medium was busy.
    pub airtime_utilization: f64,
    /// Fraction of transmitted frames destroyed by collisions.
    pub collision_rate: f64,
}

/// A frame finishing its flight and reaching `to`'s radio — the one kind
/// of queued event.
#[derive(Debug)]
struct Delivery {
    from: NodeAddr,
    to: NodeAddr,
    bytes: Vec<u8>,
    wire_bytes: usize,
}

/// The discrete-event fleet scheduler — see the module docs.
///
/// # Example
///
/// ```
/// use tinyevm_sim::{FleetConfig, FleetScheduler};
/// use tinyevm_types::Wei;
///
/// let mut fleet = FleetScheduler::new(FleetConfig::single_slot(4));
/// fleet.open_all().unwrap();
/// fleet.run(2, Wei::from(1_000u64)).unwrap();
/// let report = fleet.settle_all().unwrap();
/// assert_eq!(report.settlements.len(), 4);
/// assert_eq!(report.total_to_gateway, Wei::from(8_000u64));
/// ```
#[derive(Debug)]
pub struct FleetScheduler {
    config: FleetConfig,
    /// [`GATEWAY_ADDR`] for fleets that fit below it, `N + 1` beyond.
    gateway_addr: NodeAddr,
    chain: Blockchain,
    gateway: ChannelEndpoint,
    sensors: Vec<ChannelEndpoint>,
    medium: ContendingMedium,
    clock: SimTime,
    queue: crate::event::EventQueue<Delivery>,
    /// The next contention-slot boundary and the queue sequence number at
    /// the moment it was armed: it fires after deliveries queued before
    /// that moment for the same instant, before those queued after.
    next_slot: Option<(SimTime, u64)>,
    /// Sensors whose current phase is still running.
    active: IndexSet,
    /// Sensors holding an envelope in `pending_tx`.
    pending: IndexSet,
    /// Sensors whose state changed since the last event; after
    /// `prune_quiescent`, those with output to poll at the next slot.
    dirty: IndexSet,
    /// The senders ready at a slot boundary, in address order (reused).
    ready: Vec<NodeAddr>,
    /// Per sensor: a polled envelope awaiting a slot win.
    pending_tx: Vec<Option<Envelope>>,
    /// Per sensor: frames in the air involving it (either direction).
    inflight: Vec<u32>,
    /// Per sensor: wire bytes moved since its current round began.
    round_bytes: Vec<usize>,
    health: Vec<(SensorHealth, u32)>,
    rounds: Vec<GatewayRoundReport>,
    aborted_rounds: u64,
    uplink_conveys: u64,
    opened: bool,
    tracer: TraceHandle,
}

impl FleetScheduler {
    /// Builds the fleet: N sensor endpoints (addresses `1..=N`, named
    /// `sensor-01`, `sensor-02`, …), one gateway endpoint (at
    /// [`GATEWAY_ADDR`] when the fleet fits below it, at address `N + 1`
    /// for larger sweeps), a contending medium and a fresh chain funding
    /// each sensor's deposit plus 1 ETH.
    ///
    /// # Panics
    ///
    /// Panics when `sensors` is 0 or exceeds the 16-bit address space,
    /// when `rx_queue_capacity` is 0 (the gateway would shed every frame),
    /// or when the link configuration is invalid.
    pub fn new(config: FleetConfig) -> Self {
        assert!(config.sensors >= 1, "a gateway needs at least one sensor");
        assert!(
            config.sensors < usize::from(u16::MAX),
            "sensor addresses exceed the 16-bit address space"
        );
        assert!(
            config.rx_queue_capacity >= 1,
            "a gateway RX queue must hold at least one frame"
        );
        let gateway_addr = if config.sensors < usize::from(GATEWAY_ADDR.value()) {
            GATEWAY_ADDR
        } else {
            NodeAddr::new(config.sensors as u16 + 1)
        };
        let mut gateway = ChannelEndpoint::gateway("gateway", gateway_addr);
        let mut medium =
            match ContendingMedium::new(gateway_addr, config.link.clone(), config.contention) {
                Ok(medium) => medium,
                Err(error) => panic!("invalid medium configuration: {error}"),
            };
        medium
            .inner_mut()
            .set_rx_queue_capacity(config.rx_queue_capacity);
        let retry = match (&config.retry, &config.contention.scheme) {
            (Some(policy), _) => Some(*policy),
            (None, AccessScheme::SingleSlot) => None,
            (None, _) => Some(FleetConfig::fleet_retry_policy(config.sensors)),
        };
        if let Some(policy) = retry {
            gateway.set_retry_policy(policy);
        }
        let mut chain = Blockchain::new();
        let sensors: Vec<ChannelEndpoint> = (0..config.sensors)
            .map(|index| {
                let mut endpoint = ChannelEndpoint::fleet_sensor(
                    &format!("sensor-{:02}", index + 1),
                    NodeAddr::new(index as u16 + 1),
                );
                if let Some(policy) = retry {
                    endpoint.set_retry_policy(policy);
                }
                medium
                    .attach(endpoint.addr())
                    .expect("sensor addresses are unique");
                chain.fund(
                    endpoint.account(),
                    config.deposit.saturating_add(Wei::from_eth(1)),
                );
                endpoint
            })
            .collect();
        let count = config.sensors;
        FleetScheduler {
            config,
            gateway_addr,
            chain,
            gateway,
            sensors,
            medium,
            clock: SimTime::ZERO,
            queue: crate::event::EventQueue::new(),
            next_slot: None,
            active: IndexSet::new(count),
            pending: IndexSet::new(count),
            dirty: IndexSet::new(count),
            ready: Vec::new(),
            pending_tx: (0..count).map(|_| None).collect(),
            inflight: vec![0; count],
            round_bytes: vec![0; count],
            health: vec![(SensorHealth::Healthy, 0); count],
            rounds: Vec::new(),
            aborted_rounds: 0,
            uplink_conveys: 0,
            opened: false,
            tracer: TraceHandle::default(),
        }
    }

    /// Routes the whole fleet's trace output through `tracer`.
    pub fn set_tracer(&mut self, tracer: TraceHandle) {
        for sensor in &mut self.sensors {
            sensor.set_tracer(tracer.clone());
        }
        self.gateway.set_tracer(tracer.clone());
        self.medium.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    // --- accessors -------------------------------------------------------

    /// The chain settling all channels.
    pub fn chain(&self) -> &Blockchain {
        &self.chain
    }

    /// The gateway's endpoint.
    pub fn gateway(&self) -> &ChannelEndpoint {
        &self.gateway
    }

    /// The sensor endpoints, in address order.
    pub fn sensors(&self) -> &[ChannelEndpoint] {
        &self.sensors
    }

    /// The contending medium (collision and airtime accounting).
    pub fn medium(&self) -> &ContendingMedium {
        &self.medium
    }

    /// Reports of every completed payment, in completion order.
    pub fn rounds(&self) -> &[GatewayRoundReport] {
        &self.rounds
    }

    /// Health of sensor `index`.
    pub fn sensor_health(&self, index: usize) -> Option<SensorHealth> {
        self.health.get(index).map(|(health, _)| *health)
    }

    /// Number of currently quarantined sensors.
    pub fn quarantined_count(&self) -> usize {
        self.health
            .iter()
            .filter(|(health, _)| *health == SensorHealth::Quarantined)
            .count()
    }

    /// Per-sensor summary rows, in address order.
    pub fn sensor_summaries(&self) -> Vec<SensorSummary> {
        self.sensors
            .iter()
            .zip(&self.health)
            .map(|(sensor, &(health, violations))| {
                let latencies = sensor.latencies(self.gateway_addr).unwrap_or(&[]);
                let channel = sensor.channel(self.gateway_addr);
                let wire = self.medium.stats(sensor.addr()).cloned();
                SensorSummary {
                    addr: sensor.addr(),
                    account: sensor.account(),
                    payments: channel.map_or(0, |c| c.payments_seen()),
                    paid: channel.map_or(Wei::ZERO, |c| c.cumulative()),
                    mean_latency: latencies.iter().sum::<Duration>()
                        / latencies.len().max(1) as u32,
                    energy_mj: sensor.device().energy_report().total_energy_mj(),
                    wire: wire.unwrap_or_default(),
                    health,
                    violations,
                }
            })
            .collect()
    }

    /// Rounds abandoned after their retry budget ran out.
    pub fn aborted_rounds(&self) -> u64 {
        self.aborted_rounds
    }

    /// Virtual time the session has spanned so far: the scheduler clock or
    /// the furthest device clock, whichever is later.
    pub fn sim_duration(&self) -> Duration {
        let mut latest = self.clock.max(self.gateway.device().sim_now());
        for sensor in &self.sensors {
            latest = latest.max(sensor.device().sim_now());
        }
        latest.as_duration()
    }

    /// Aggregate goodput / airtime / collision measurements.
    pub fn report(&self) -> FleetReport {
        let sim_duration = self.sim_duration();
        let busy = self.medium.total_busy_airtime();
        let frames_collided = self.medium.frames_collided();
        let attempts = frames_collided + self.uplink_conveys;
        let seconds = sim_duration.as_secs_f64();
        FleetReport {
            sensors: self.sensors.len(),
            completed_payments: self.rounds.len() as u64,
            aborted_rounds: self.aborted_rounds,
            sim_duration,
            slots: self.medium.slots_elapsed(),
            collision_events: self.medium.collision_events(),
            frames_collided,
            uplink_conveys: self.uplink_conveys,
            collision_airtime: self.medium.collision_airtime(),
            busy_airtime: busy,
            frames_dropped_queue_full: self.medium.inner().frames_dropped_queue_full(),
            goodput_rounds_per_s: if seconds > 0.0 {
                self.rounds.len() as f64 / seconds
            } else {
                0.0
            },
            airtime_utilization: if seconds > 0.0 {
                busy.as_secs_f64() / seconds
            } else {
                0.0
            },
            collision_rate: if attempts > 0 {
                frames_collided as f64 / attempts as f64
            } else {
                0.0
            },
        }
    }

    /// A stable textual digest of everything observable about the session:
    /// per-sensor channel and clock state, completed rounds, medium and
    /// collision accounting. Two runs with the same seed must produce the
    /// same fingerprint at any `jobs` value — the determinism tests pin it.
    pub fn fingerprint(&self) -> String {
        let mut out = String::new();
        for (index, sensor) in self.sensors.iter().enumerate() {
            let (seq, cumulative) = sensor
                .channel(self.gateway_addr)
                .map(|c| (c.payments_seen(), c.cumulative()))
                .unwrap_or((0, Wei::ZERO));
            let stats = self
                .medium
                .stats(sensor.addr())
                .cloned()
                .unwrap_or_default();
            out.push_str(&format!(
                "sensor {} clock={}ns seq={} cum={} up={}B down={}B rexmit={} airtime={}ns \
                 collisions={} health={:?} violations={}\n",
                sensor.addr(),
                sensor.device().now().as_nanos(),
                seq,
                cumulative,
                stats.uplink_wire_bytes,
                stats.downlink_wire_bytes,
                stats.retransmissions,
                stats.airtime.as_nanos(),
                self.medium.sender_collisions(sensor.addr()),
                self.health[index].0,
                self.health[index].1,
            ));
        }
        out.push_str(&format!(
            "gateway clock={}ns\n",
            self.gateway.device().now().as_nanos()
        ));
        for round in &self.rounds {
            out.push_str(&format!(
                "round sensor={} seq={} cum={} e2e={}ns bytes={}\n",
                round.sensor,
                round.sequence,
                round.cumulative,
                round.end_to_end_latency.as_nanos(),
                round.bytes_exchanged,
            ));
        }
        let inner = self.medium.inner();
        out.push_str(&format!(
            "medium messages={} wire_bytes={} airtime={}ns slots={} collisions={} \
             frames_collided={} collision_airtime={}ns dropped={} aborted={}\n",
            inner.total_messages(),
            inner.total_wire_bytes(),
            inner.total_airtime().as_nanos(),
            self.medium.slots_elapsed(),
            self.medium.collision_events(),
            self.medium.frames_collided(),
            self.medium.collision_airtime().as_nanos(),
            inner.frames_dropped_queue_full(),
            self.aborted_rounds,
        ));
        out
    }

    // --- session phases --------------------------------------------------

    /// Opens every sensor's channel. Chain registration is serial (one
    /// chain); the open handshakes then run through the configured
    /// schedule — all sensors at once under contention, one at a time in
    /// single-slot mode.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::OutOfOrder`] when called twice, or the
    /// underlying chain / device / medium error.
    pub fn open_all(&mut self) -> Result<(), ProtocolError> {
        if self.opened {
            return Err(ProtocolError::OutOfOrder("channels are already open"));
        }
        let gateway_account = self.gateway.account();
        let single_slot = self.single_slot();
        for index in 0..self.sensors.len() {
            let sensor_account = self.sensors[index].account();
            let sensor_addr = self.sensors[index].addr();
            let template = self.chain.publish_template(TemplateConfig {
                sender: sensor_account,
                receiver: gateway_account,
                deposit: self.config.deposit,
                challenge_period_blocks: 10,
            })?;
            let channel_id = self
                .chain
                .create_payment_channel(sensor_account, template)?;
            let registration = ChannelRegistration {
                template,
                channel_id,
                sender: sensor_account,
                receiver: gateway_account,
                deposit_cap: self.config.deposit,
                anchor: self
                    .chain
                    .template(&template)
                    .map(|t| t.side_chain_root().hash)
                    .unwrap_or(H256::ZERO),
            };
            self.gateway
                .expect_channel(sensor_addr, registration.clone())?;
            self.sensors[index].open(self.gateway_addr, registration)?;
            if single_slot {
                self.pump_single(index)?;
            }
        }
        if !single_slot {
            let mut active = IndexSet::new(self.sensors.len());
            for index in 0..self.sensors.len() {
                active.insert(index);
            }
            self.drive(active)?;
        }
        self.pause_all();
        self.opened = true;
        Ok(())
    }

    /// Runs `rounds` fleet-wide payment rounds of `amount` each. Under
    /// contention every healthy sensor's round is in flight at once; in
    /// single-slot mode each healthy sensor pays in turn, in address order,
    /// through [`FleetScheduler::pay`]. Per-sensor faults degrade or
    /// quarantine the sensor and never block the rest of the fleet; a
    /// quarantined sensor is skipped.
    ///
    /// # Errors
    ///
    /// Propagates the first driver-level error (out-of-order use, chain
    /// trouble) — per-sensor faults are absorbed into the health state.
    pub fn run(&mut self, rounds: usize, amount: Wei) -> Result<(), ProtocolError> {
        for _ in 0..rounds {
            if !self.single_slot() {
                self.run_contended_round(amount)?;
                continue;
            }
            for index in 0..self.sensors.len() {
                if self.health[index].0 == SensorHealth::Quarantined {
                    continue;
                }
                if let Err(error) = self.pay(index, amount) {
                    if classify(&error) == FaultClass::Fatal {
                        return Err(error);
                    }
                }
            }
        }
        Ok(())
    }

    /// One payment round of sensor `index` on its own. Under a contended
    /// scheme the round still runs the event loop, with only this sensor
    /// active on the medium. A clean round lifts a degraded sensor back to
    /// healthy; a fault is booked against the sensor's health, so repeated
    /// violations (an overdrawing sensor, say) quarantine it.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::OutOfOrder`] for an index outside the fleet or
    /// before [`open_all`](FleetScheduler::open_all),
    /// [`ProtocolError::Quarantined`] for a quarantined sensor, else the
    /// per-sensor fault (already recorded) or a driver-level error.
    pub fn pay(&mut self, index: usize, amount: Wei) -> Result<(), ProtocolError> {
        let sensor = self.sensor_addr(index)?;
        if self.health[index].0 == SensorHealth::Quarantined {
            return Err(ProtocolError::Quarantined { sensor });
        }
        let result = if self.single_slot() {
            self.pay_single_slot(index, amount)
        } else {
            self.pay_contended_one(index, amount)
        };
        match &result {
            // A clean round clears a transport-degraded state; recorded
            // violations are not forgiven.
            Ok(()) => {
                if self.health[index].0 == SensorHealth::Degraded {
                    self.health[index].0 = SensorHealth::Healthy;
                }
            }
            Err(error) => self.record_fault(index, error),
        }
        result
    }

    fn pay_contended_one(&mut self, index: usize, amount: Wei) -> Result<(), ProtocolError> {
        let before = self.completed_per_sensor();
        self.sensors[index].pay(self.gateway_addr, amount)?;
        self.round_bytes[index] = 0;
        let mut active = IndexSet::new(self.sensors.len());
        active.insert(index);
        self.drive(active)?;
        let after = self.completed_per_sensor();
        if after[index] > before[index] {
            Ok(())
        } else {
            Err(ProtocolError::OutOfOrder("payment round did not complete"))
        }
    }

    /// Closes and settles every non-quarantined channel on the chain:
    /// each sensor signs its final state and sends it up the medium on the
    /// configured schedule, the gateway verifies **all closing signatures
    /// in one batched multi-scalar pass** and counter-signs, and the chain
    /// settles each template after one shared challenge period. A
    /// quarantined sensor's channel stays open (a later on-chain challenge
    /// can still settle it unilaterally).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::OutOfOrder`] before channels are open, or
    /// the chain's rejection.
    pub fn settle_all(&mut self) -> Result<GatewaySettlementReport, ProtocolError> {
        let gateway_account = self.gateway.account();
        if self.single_slot() {
            for index in 0..self.sensors.len() {
                if self.health[index].0 == SensorHealth::Quarantined {
                    continue;
                }
                self.sensors[index].close(self.gateway_addr)?;
                self.pump_single(index)?;
            }
        } else {
            let quarantined: Vec<bool> = self
                .health
                .iter()
                .map(|(health, _)| *health == SensorHealth::Quarantined)
                .collect();
            let gateway_addr = self.gateway_addr;
            let results = self.shard_intents(|sensor, index| {
                if quarantined[index] {
                    None
                } else {
                    Some(sensor.close(gateway_addr))
                }
            });
            let mut active = IndexSet::new(self.sensors.len());
            for (index, result) in results.into_iter().enumerate() {
                match result {
                    None => {}
                    Some(Ok(_)) => active.insert(index),
                    Some(Err(error)) => return Err(error.into()),
                }
            }
            self.drive(active)?;
        }
        let commits = self.gateway.finalize_closes()?;
        let mut templates = Vec::with_capacity(self.sensors.len());
        for effect in commits {
            let Effect::CommitReady { peer, envelope } = effect else {
                continue;
            };
            let template = envelope.state.template;
            self.chain
                .commit_channel_state(gateway_account, template, &envelope)?;
            self.chain.start_exit(gateway_account, template)?;
            templates.push((peer, template));
        }
        self.chain.advance_blocks(11);
        let mut settlements = Vec::with_capacity(templates.len());
        let mut total_to_gateway = Wei::ZERO;
        for (sensor_addr, template) in templates {
            let settlement = self.chain.finalize_template(gateway_account, template)?;
            total_to_gateway = total_to_gateway.saturating_add(settlement.to_receiver);
            settlements.push((sensor_addr, settlement));
        }
        Ok(GatewaySettlementReport {
            settlements,
            total_to_gateway,
            gateway_balance: self.chain.balance(&gateway_account),
            on_chain_transactions: self.chain.transactions().len(),
        })
    }

    // --- fault injection and persistence ----------------------------------

    /// Installs a fault plan on sensor `index`'s link; the rest of the
    /// fleet is untouched.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::OutOfOrder`] for an index outside the fleet and
    /// [`ProtocolError::Medium`] for an invalid configuration.
    pub fn set_sensor_faults(
        &mut self,
        index: usize,
        config: FaultConfig,
    ) -> Result<(), ProtocolError> {
        let addr = self.sensor_addr(index)?;
        self.medium.inner_mut().set_faults(addr, config)?;
        Ok(())
    }

    /// Removes any fault plan from sensor `index`'s link.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::OutOfOrder`] for an index outside the fleet.
    pub fn clear_sensor_faults(&mut self, index: usize) -> Result<(), ProtocolError> {
        let addr = self.sensor_addr(index)?;
        self.medium.inner_mut().clear_faults(addr)?;
        Ok(())
    }

    /// Writes the chain plus both endpoints of every channel to one
    /// session file ([`write_session`]).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::OutOfOrder`] before channels are open and
    /// [`ProtocolError::Wire`] on filesystem failure.
    pub fn save_session(&self, path: &Path) -> Result<(), ProtocolError> {
        let mut channels = Vec::with_capacity(self.sensors.len());
        for sensor in &self.sensors {
            let gateway_side = self.gateway.snapshot(sensor.addr());
            let pair = sensor.snapshot(self.gateway_addr).zip(gateway_side);
            channels.push(pair.ok_or(ProtocolError::OutOfOrder("open_all first"))?);
        }
        write_session(path, &self.chain, channels)
    }

    /// Restores a session saved by [`FleetScheduler::save_session`] into
    /// this fleet (same size and device identities), which then counts as
    /// opened. [`read_session`] validates the whole file before any state
    /// changes. Measurement history ([`FleetScheduler::rounds`], aborted
    /// rounds, latencies) and health belong to the gateway process lost in
    /// the power cycle and are cleared; device meters and medium statistics
    /// keep counting, contract re-creations included, as on real
    /// flash-restored hardware.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::Wire`] for unreadable, incomplete,
    /// tampered or foreign files and a device error when a channel
    /// contract cannot be re-created.
    pub fn restore_session(&mut self, path: &Path) -> Result<(), ProtocolError> {
        let gateway = self.gateway.account();
        let parties: Vec<_> = self
            .sensors
            .iter()
            .map(|s| (s.account(), gateway))
            .collect();
        let (chain, channels) = read_session(path, &parties)?;

        // Commit.
        self.chain = chain;
        self.rounds.clear();
        self.aborted_rounds = 0;
        self.health = vec![(SensorHealth::Healthy, 0); self.sensors.len()];
        self.opened = true;
        for peer in self.gateway.peers().collect::<Vec<_>>() {
            self.gateway.drop_session(peer);
        }
        let gateway_addr = self.gateway_addr;
        for (sensor, (sender, receiver)) in self.sensors.iter_mut().zip(&channels) {
            sensor.drop_session(gateway_addr);
            sensor.install_snapshot(gateway_addr, sender)?;
            sensor.ensure_contract(gateway_addr)?;
            self.gateway.install_snapshot(sensor.addr(), receiver)?;
            self.gateway.ensure_contract(sensor.addr())?;
        }
        Ok(())
    }

    // --- single-slot path -------------------------------------------------

    fn single_slot(&self) -> bool {
        matches!(self.config.contention.scheme, AccessScheme::SingleSlot)
    }

    /// One sensor's turn owning the whole medium.
    fn pump_single(&mut self, index: usize) -> Result<tinyevm_channel::PumpLog, ProtocolError> {
        pump_contention_free(
            self.medium.inner_mut(),
            &mut self.sensors[index],
            &mut self.gateway,
        )
    }

    fn pay_single_slot(&mut self, index: usize, amount: Wei) -> Result<(), ProtocolError> {
        self.sensors[index].pay(self.gateway_addr, amount)?;
        let log = self.pump_single(index)?;
        let receipt = log
            .effects
            .iter()
            .find_map(|(_, effect)| match effect {
                Effect::PaymentCompleted { receipt, .. } => Some(receipt),
                _ => None,
            })
            .ok_or(ProtocolError::OutOfOrder("payment round did not complete"))?;
        self.record_round(index, receipt, log.wire_bytes());
        Ok(())
    }

    /// Books sensor `index`'s completed round and its latency.
    fn record_round(&mut self, index: usize, receipt: &PaymentReceipt, bytes_exchanged: usize) {
        self.tracer.observe(
            "driver.round_latency_ms",
            receipt.end_to_end_latency.as_secs_f64() * 1_000.0,
        );
        self.rounds.push(GatewayRoundReport {
            sensor: self.sensors[index].addr(),
            sequence: receipt.sequence,
            cumulative: receipt.cumulative,
            end_to_end_latency: receipt.end_to_end_latency,
            bytes_exchanged,
        });
    }

    // --- contended (event-driven) path -----------------------------------

    fn run_contended_round(&mut self, amount: Wei) -> Result<(), ProtocolError> {
        let quarantined: Vec<bool> = self
            .health
            .iter()
            .map(|(health, _)| *health == SensorHealth::Quarantined)
            .collect();
        // Event barrier: every healthy sensor signs its payment intent, a
        // pure per-sensor computation sharded across the worker threads.
        let gateway_addr = self.gateway_addr;
        let results = self.shard_intents(|sensor, index| {
            if quarantined[index] {
                None
            } else {
                Some(sensor.pay(gateway_addr, amount))
            }
        });
        let mut active = IndexSet::new(self.sensors.len());
        let before = self.completed_per_sensor();
        for (index, result) in results.into_iter().enumerate() {
            match result {
                None => {}
                Some(Ok(_)) => {
                    self.round_bytes[index] = 0;
                    active.insert(index);
                }
                Some(Err(error)) => {
                    let error = ProtocolError::from(error);
                    self.record_fault(index, &error);
                    if matches!(classify(&error), FaultClass::Fatal) {
                        return Err(error);
                    }
                }
            }
        }
        self.drive(active)?;
        // A sensor that completed its round cleanly recovers from a
        // transport-degraded state, exactly as `pay` books it.
        let after = self.completed_per_sensor();
        for index in 0..self.sensors.len() {
            if after[index] > before[index] && self.health[index].0 == SensorHealth::Degraded {
                self.health[index].0 = SensorHealth::Healthy;
            }
        }
        Ok(())
    }

    fn completed_per_sensor(&self) -> Vec<u64> {
        let mut completed = vec![0u64; self.sensors.len()];
        for round in &self.rounds {
            if let Some(index) = self.index_of(round.sensor) {
                completed[index] += 1;
            }
        }
        completed
    }

    /// Applies one per-sensor intent across the fleet, sharded over
    /// `jobs` scoped threads. Shards are contiguous address ranges and
    /// results merge back in address order, so the thread count never
    /// affects the outcome.
    fn shard_intents<F>(&mut self, intent: F) -> Vec<Option<Result<Vec<Effect>, EndpointError>>>
    where
        F: Fn(&mut ChannelEndpoint, usize) -> Option<Result<Vec<Effect>, EndpointError>> + Sync,
    {
        let jobs = self.config.jobs.max(1).min(self.sensors.len());
        let shard_len = self.sensors.len().div_ceil(jobs);
        let intent = &intent;
        let mut results = Vec::with_capacity(self.sensors.len());
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (shard, chunk) in self.sensors.chunks_mut(shard_len).enumerate() {
                handles.push(scope.spawn(move || {
                    chunk
                        .iter_mut()
                        .enumerate()
                        .map(|(offset, sensor)| intent(sensor, shard * shard_len + offset))
                        .collect::<Vec<_>>()
                }));
            }
            for handle in handles {
                results.extend(handle.join().expect("intent shard panicked"));
            }
        });
        results
    }

    /// Runs the event loop until every sensor in `active` is quiescent
    /// (round complete or aborted) and the gateway has handled every frame
    /// parked in its RX queues.
    fn drive(&mut self, active: IndexSet) -> Result<(), ProtocolError> {
        let slot_limit = self.medium.slots_elapsed() + SLOT_BUDGET;
        for index in active.iter() {
            self.dirty.insert(index);
        }
        self.active = active;
        loop {
            self.prune_quiescent();
            // A frame parked at the gateway may need no reply (a channel
            // open or close request): its sender is already quiescent, but
            // the gateway must still handle it before the phase ends.
            if self.active.is_empty() && self.medium.inner().rx_queue_depth() == 0 {
                break;
            }
            let armed = self.next_slot.unwrap_or((
                self.clock + self.config.contention.slot,
                self.queue.next_seq(),
            ));
            let slot = self.skip_idle_slots(armed, slot_limit);
            self.next_slot = Some(slot);
            if self.medium.slots_elapsed() > slot_limit {
                return Err(ProtocolError::OutOfOrder(
                    "fleet schedule exceeded its slot budget",
                ));
            }
            if self.queue.peek_key().is_some_and(|key| key < slot) {
                let (time, delivery) = self.queue.pop().expect("a delivery was peeked");
                self.clock = self.clock.max(time);
                self.handle_deliver(delivery)?;
            } else {
                self.next_slot = None;
                self.clock = self.clock.max(slot.0);
                self.handle_slot()?;
            }
        }
        Ok(())
    }

    /// Resolves at once the run of slots from boundary `slot` on in which
    /// nothing can happen (see the module docs) and returns the boundary
    /// after the run: no slot of the run lies at or past the next queued
    /// delivery, the gateway cannot start on a parked frame in any, no
    /// sensor has output to poll, no sender holding a frame wakes, and the
    /// medium ends the run before any ready sender's back-off expires. The
    /// run ends one slot past `slot_limit` at the latest, so the budget
    /// trips at exactly the slot count stepping would reach.
    fn skip_idle_slots(&mut self, slot: (SimTime, u64), slot_limit: u64) -> (SimTime, u64) {
        if !self.dirty.is_empty() {
            return slot;
        }
        let start = slot.0;
        let length = self.config.contention.slot;
        let mut room = (slot_limit + 1).saturating_sub(self.medium.slots_elapsed());
        if let Some(delivery) = self.queue.peek_key() {
            if delivery < slot {
                return slot;
            }
            // Later boundaries are armed after this delivery was queued,
            // so one falling on its very instant comes second.
            room = room.min(boundaries_before(start, delivery.0, length).max(1));
        }
        if self.medium.inner().rx_queue_depth() > 0 {
            let busy_until = self.gateway.device().sim_now();
            room = room.min(boundaries_before(start, busy_until, length));
        }
        if room == 0 {
            return slot;
        }
        if let Some(wake) = self.collect_ready(start) {
            room = room.min(boundaries_before(start, wake, length));
        }
        let skipped = self.medium.skip_idle_slots(&self.ready, room);
        if skipped == 0 {
            return slot;
        }
        let last = start
            + length * u32::try_from(skipped - 1).expect("a run never passes the slot budget");
        self.clock = self.clock.max(last);
        (last + length, self.queue.next_seq())
    }

    /// Fills `ready` with the active senders holding a frame whose device
    /// clock has reached `at`, in address order, and returns the earliest
    /// device clock among the holders still ahead of it.
    fn collect_ready(&mut self, at: SimTime) -> Option<SimTime> {
        self.ready.clear();
        let mut wake: Option<SimTime> = None;
        for index in self.pending.iter() {
            if !self.active.contains(index) {
                continue;
            }
            let now = self.sensors[index].device().sim_now();
            if now <= at {
                self.ready.push(self.sensors[index].addr());
            } else {
                wake = Some(wake.map_or(now, |earliest| earliest.min(now)));
            }
        }
        wake
    }

    /// Looks again at every sensor whose state changed since the last
    /// event. One with nothing held, in flight or awaited polls its outbox
    /// once more — a queued follow-up keeps it active, held for the next
    /// slot — or leaves `active`. Only sensors with output for the next
    /// slot stay marked.
    fn prune_quiescent(&mut self) {
        let mut dirty = std::mem::take(&mut self.dirty);
        dirty.retain(|index| {
            if !self.active.contains(index) || self.pending_tx[index].is_some() {
                return false;
            }
            if self.inflight[index] > 0 || self.sensors[index].stalled_round().is_some() {
                return self.sensors[index].has_queued_output();
            }
            match self.sensors[index].poll_transmit() {
                Some(envelope) => self.hold(index, envelope),
                None => self.active.remove(index),
            }
            false
        });
        self.dirty = dirty;
    }

    /// Polls every sensor still marked with output (see
    /// [`FleetScheduler::prune_quiescent`]) into `pending_tx`.
    fn poll_sensors(&mut self) {
        let mut dirty = std::mem::take(&mut self.dirty);
        dirty.retain(|index| {
            if self.active.contains(index) && self.pending_tx[index].is_none() {
                if let Some(envelope) = self.sensors[index].poll_transmit() {
                    self.hold(index, envelope);
                }
            }
            false
        });
        self.dirty = dirty;
    }

    fn hold(&mut self, index: usize, envelope: Envelope) {
        self.pending_tx[index] = Some(envelope);
        self.pending.insert(index);
    }

    fn handle_slot(&mut self) -> Result<(), ProtocolError> {
        // Let a previously busy gateway catch up on parked frames first,
        // so its replies ride this slot's downlink phase.
        self.drain_gateway()?;
        self.poll_sensors();
        // `ready` arrives in address order — the arbitration is
        // order-independent anyway (per-sender RNG streams), but
        // determinism is easier to audit this way.
        self.collect_ready(self.clock);
        match self.medium.resolve_slot(&self.ready) {
            // A capture survivor's frame still rides the air; the losers
            // keep their envelope and the medium's backoff state delays
            // their next contention.
            SlotOutcome::Won(winner)
            | SlotOutcome::Collision {
                captured: Some(winner),
                ..
            } => self.transmit_uplink(winner),
            SlotOutcome::Idle | SlotOutcome::Collision { captured: None, .. } => Ok(()),
        }
    }

    fn transmit_uplink(&mut self, winner: NodeAddr) -> Result<(), ProtocolError> {
        let Some(index) = self.index_of(winner) else {
            return Err(ProtocolError::OutOfOrder("slot won by an unknown sensor"));
        };
        let Some(envelope) = self.pending_tx[index].take() else {
            return Ok(());
        };
        self.pending.remove(index);
        self.dirty.insert(index);
        if envelope.to != self.gateway_addr {
            return Err(ProtocolError::OutOfOrder(
                "envelope addressed to a peer this schedule does not serve",
            ));
        }
        // The sensor idled (LPM2) from the end of its own work to the slot
        // boundary — endpoint `wait()` pacing mapped onto virtual time.
        let now = self.sensors[index].device().sim_now();
        if now < self.clock {
            self.sensors[index].wait(self.clock - now);
        }
        let wire = envelope.message.to_wire();
        match self.medium.convey(winner, self.gateway_addr, &wire) {
            Ok((delivered, report)) => {
                self.uplink_conveys += 1;
                self.sensors[index].account_transmitted(report.wire_bytes);
                self.round_bytes[index] += report.wire_bytes;
                self.inflight[index] += 1;
                self.queue.schedule(
                    self.clock + report.tx_time,
                    Delivery {
                        from: winner,
                        to: self.gateway_addr,
                        bytes: delivered,
                        wire_bytes: report.wire_bytes,
                    },
                );
            }
            Err(MediumError::Link(_)) => match self.sensors[index].on_transport_error() {
                Ok(()) => {}
                Err(EndpointError::RoundAborted { .. }) => self.abort_round(index),
                Err(other) => return Err(other.into()),
            },
            Err(other) => return Err(other.into()),
        }
        Ok(())
    }

    fn handle_deliver(&mut self, delivery: Delivery) -> Result<(), ProtocolError> {
        let Delivery {
            from,
            to,
            bytes,
            wire_bytes,
        } = delivery;
        if to == self.gateway_addr {
            if let Some(index) = self.index_of(from) {
                self.inflight[index] = self.inflight[index].saturating_sub(1);
                self.dirty.insert(index);
            }
            // Park the frame in the gateway's bounded per-peer RX queue;
            // a full queue sheds it (counted).
            self.medium.inner_mut().enqueue_rx(from, bytes, wire_bytes);
            self.drain_gateway()
        } else {
            let Some(index) = self.index_of(to) else {
                return Err(ProtocolError::OutOfOrder("delivery to an unknown sensor"));
            };
            self.inflight[index] = self.inflight[index].saturating_sub(1);
            self.dirty.insert(index);
            self.deliver_to_sensor(index, from, &bytes, wire_bytes)
        }
    }

    /// Processes parked gateway frames while the gateway's serial clock
    /// has caught up to the scheduler clock; frames beyond that stay
    /// queued (real queueing delay) until a later event.
    fn drain_gateway(&mut self) -> Result<(), ProtocolError> {
        while self.gateway.device().sim_now() <= self.clock {
            let Some((src, frame, wire_bytes)) = self.medium.inner_mut().dequeue_rx() else {
                break;
            };
            // The gateway idled from its last work to this frame's arrival.
            let now = self.gateway.device().sim_now();
            if now < self.clock {
                self.gateway.wait(self.clock - now);
            }
            self.gateway.account_received(wire_bytes);
            match self.gateway.handle_wire(src, &frame) {
                Ok(effects) => {
                    for effect in effects {
                        if let Effect::PaymentAccepted { processing, .. } = &effect {
                            // The payer idles while the gateway verifies
                            // and signs — part of the round's end-to-end
                            // latency, exactly as in the shared pump.
                            if let Some(index) = self.index_of(src) {
                                self.sensors[index].wait(*processing);
                            }
                        }
                    }
                }
                Err(error) if error.is_droppable() => continue,
                Err(error) => {
                    let error = ProtocolError::from(error);
                    match classify(&error) {
                        FaultClass::Violation => {
                            if let Some(index) = self.index_of(src) {
                                self.record_fault(index, &error);
                            }
                            continue;
                        }
                        _ => return Err(error),
                    }
                }
            }
            self.transmit_downlink()?;
        }
        Ok(())
    }

    /// Drains the gateway's outbox onto dedicated coordinator downlink
    /// slots (no contention; a TSCH schedule provisions these).
    fn transmit_downlink(&mut self) -> Result<(), ProtocolError> {
        while let Some(envelope) = self.gateway.poll_transmit() {
            let wire = envelope.message.to_wire();
            match self.medium.convey(self.gateway_addr, envelope.to, &wire) {
                Ok((delivered, report)) => {
                    self.gateway.account_transmitted(report.wire_bytes);
                    let depart = self.clock.max(self.gateway.device().sim_now());
                    if let Some(index) = self.index_of(envelope.to) {
                        self.inflight[index] += 1;
                        self.round_bytes[index] += report.wire_bytes;
                    }
                    self.queue.schedule(
                        depart + report.tx_time,
                        Delivery {
                            from: self.gateway_addr,
                            to: envelope.to,
                            bytes: delivered,
                            wire_bytes: report.wire_bytes,
                        },
                    );
                }
                Err(MediumError::Link(_)) => match self.gateway.on_transport_error() {
                    Ok(()) => {}
                    Err(EndpointError::RoundAborted { peer, .. }) => {
                        if let Some(index) = self.index_of(peer) {
                            self.abort_round(index);
                        }
                    }
                    Err(other) => return Err(other.into()),
                },
                Err(other) => return Err(other.into()),
            }
        }
        Ok(())
    }

    /// Hands a downlink frame to its sensor, which wakes for its own
    /// downlink slot and handles the frame at once.
    fn deliver_to_sensor(
        &mut self,
        index: usize,
        from: NodeAddr,
        frame: &[u8],
        wire_bytes: usize,
    ) -> Result<(), ProtocolError> {
        let now = self.sensors[index].device().sim_now();
        if now < self.clock {
            self.sensors[index].wait(self.clock - now);
        }
        self.sensors[index].account_received(wire_bytes);
        match self.sensors[index].handle_wire(from, frame) {
            Ok(effects) => {
                for effect in effects {
                    if let Effect::PaymentCompleted { receipt, .. } = &effect {
                        self.record_round(index, receipt, self.round_bytes[index]);
                    }
                }
            }
            Err(error) if error.is_droppable() => {}
            Err(error) => {
                let error = ProtocolError::from(error);
                match classify(&error) {
                    FaultClass::Violation => self.record_fault(index, &error),
                    _ => return Err(error),
                }
            }
        }
        Ok(())
    }

    fn abort_round(&mut self, index: usize) {
        self.aborted_rounds += 1;
        self.pending_tx[index] = None;
        self.pending.remove(index);
        let error = ProtocolError::Endpoint(EndpointError::RoundAborted {
            peer: self.sensors[index].addr(),
            attempts: 0,
        });
        self.record_fault(index, &error);
        self.active.remove(index);
    }

    /// Books a fault against sensor `index` (see
    /// [`record_fault`](tinyevm_channel::gateway::record_fault)).
    fn record_fault(&mut self, index: usize, error: &ProtocolError) {
        tinyevm_channel::gateway::record_fault(
            &mut self.health[index],
            error,
            &self.tracer,
            self.gateway.device().name(),
            self.sensors[index].addr(),
        );
    }

    /// Inserts the protocol's idle gap on every device (LPM2) after the
    /// open phase.
    fn pause_all(&mut self) {
        for sensor in &mut self.sensors {
            sensor.wait(IDLE_GAP);
        }
        self.gateway.wait(IDLE_GAP);
    }

    fn sensor_addr(&self, index: usize) -> Result<NodeAddr, ProtocolError> {
        self.sensors
            .get(index)
            .map(ChannelEndpoint::addr)
            .ok_or(ProtocolError::OutOfOrder("no such sensor"))
    }

    fn index_of(&self, addr: NodeAddr) -> Option<usize> {
        let value = usize::from(addr.value());
        if value >= 1 && value <= self.sensors.len() {
            Some(value - 1)
        } else {
            None
        }
    }
}

/// Slot boundaries `start`, `start + slot`, … that fall strictly before
/// `at`.
fn boundaries_before(start: SimTime, at: SimTime, slot: Duration) -> u64 {
    let gap = at.as_nanos().saturating_sub(start.as_nanos());
    let step = u64::try_from(slot.as_nanos()).unwrap_or(u64::MAX).max(1);
    gap.div_ceil(step)
}
