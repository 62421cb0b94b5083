//! The multi-node gateway scenario: N sensor devices, one gateway.
//!
//! The paper's deployment is not one car and one parking sensor but a
//! *fleet* of low-power devices each paying a single gateway over its own
//! off-chain channel. [`GatewayDriver`] builds that topology as a thin pump
//! over sans-IO endpoints (see [`crate::endpoint`]):
//!
//! * N [`SensorNode`]s — each a sender-role [`ChannelEndpoint`] with its
//!   own OpenMote-B device, key, link-layer [`NodeAddr`] and payment
//!   channel;
//! * one [`Gateway`] — a **single receiver-role endpoint multiplexing all N
//!   sensor peers keyed by address**, with one device (one radio, one
//!   crypto engine), a per-sensor channel state machine, side-chain log and
//!   locally deployed channel contract;
//! * a [`SharedMedium`] carrying all traffic, with every wire byte and
//!   microsecond of airtime attributed to the sensor that caused it;
//! * one [`Blockchain`] that hosts all N templates and settles all N
//!   channels at the end of the session. At settlement the gateway
//!   endpoint verifies **all N closing signatures in one batched
//!   multi-scalar pass** (`tinyevm_crypto::secp256k1::verify_batch`).
//!
//! Every protocol step crosses the medium as an encoded
//! [`tinyevm_wire::Message`] and the far side acts only on the decoded
//! artifact, exactly like the two-party [`crate::ProtocolDriver`] — both
//! drivers share the same endpoint implementation and the same pump. The
//! whole multi-session state — chain plus 2 × N channel endpoints — can be
//! persisted as one wire-format file and restored after a power cycle.
//!
//! Everything is seeded (device keys from names, per-sensor loss processes
//! from the medium seed and the sensor address), so a scenario run is
//! deterministic: the same configuration produces byte-identical
//! statistics every time.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

use tinyevm_chain::{Blockchain, Settlement, TemplateConfig};
use tinyevm_crypto::secp256k1::Signature;
use tinyevm_device::Device;
use tinyevm_net::{EndpointStats, LinkConfig, NodeAddr, SharedMedium};
use tinyevm_trace::TraceHandle;
use tinyevm_types::{Address, Wei, H256};
use tinyevm_wire::{persist, ChainSnapshot, ChannelSnapshot, EndpointRole, Message, WireError};

use crate::channel::PaymentChannel;
use crate::endpoint::{ChannelEndpoint, ChannelRegistration, Effect, EndpointError};
use crate::protocol::{ProtocolError, PumpLog};
use crate::sidechain::SideChainLog;

/// Protocol violations (bad signatures, tampered proposals, channel-rule
/// breaches) a single sensor may commit before the gateway quarantines it.
pub const QUARANTINE_THRESHOLD: u32 = 3;

/// Health of one sensor as the gateway driver sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SensorHealth {
    /// Behaving normally.
    Healthy,
    /// The last round died on transport (retry budget exhausted, link
    /// refusal); the sensor recovers to [`SensorHealth::Healthy`] on its
    /// next clean round.
    Degraded,
    /// The sensor committed [`QUARANTINE_THRESHOLD`] protocol violations;
    /// the gateway refuses further rounds and excludes it from settlement.
    /// The rest of the fleet keeps paying and settles normally.
    Quarantined,
}

/// How a pump error reflects on the sensor that caused it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Invalid signature, tampered proposal or channel-rule breach —
    /// counts toward quarantine.
    Violation,
    /// Transport trouble (round aborted, link refusal) — degrades, never
    /// quarantines.
    Transport,
    /// Driver-level misuse or chain trouble — not the sensor's doing.
    Fatal,
}

/// Classifies a pump error — the one rule every driver that keeps
/// per-sensor health applies.
pub fn classify(error: &ProtocolError) -> FaultClass {
    match error {
        ProtocolError::BadSignature
        | ProtocolError::Channel(_)
        | ProtocolError::UnexpectedMessage { .. }
        | ProtocolError::Endpoint(EndpointError::ProposalMismatch(_)) => FaultClass::Violation,
        ProtocolError::Link(_)
        | ProtocolError::Medium(_)
        | ProtocolError::Endpoint(EndpointError::RoundAborted { .. }) => FaultClass::Transport,
        _ => FaultClass::Fatal,
    }
}

/// Books `error` against one sensor's `(health, violations)` record, as
/// [`classify`] rates it: a violation counts toward quarantine (the
/// [`QUARANTINE_THRESHOLD`]-th quarantines the sensor, traced as a
/// `quarantine` phase of node `gateway` against `peer`), transport trouble
/// degrades a healthy sensor, and a fatal error leaves the record alone.
pub fn record_fault(
    record: &mut (SensorHealth, u32),
    error: &ProtocolError,
    tracer: &TraceHandle,
    gateway: &str,
    peer: NodeAddr,
) {
    let (health, violations) = record;
    match classify(error) {
        FaultClass::Violation => {
            *violations += 1;
            tracer.count("gateway.violations", 1);
            if *violations >= QUARANTINE_THRESHOLD && *health != SensorHealth::Quarantined {
                *health = SensorHealth::Quarantined;
                tracer.count("gateway.sensors_quarantined", 1);
                tracer.event(|| tinyevm_trace::TraceEvent::Phase {
                    node: gateway.to_string(),
                    peer: peer.to_string(),
                    phase: "quarantine".to_string(),
                    sequence: 0,
                    duration_us: 0,
                });
            }
        }
        FaultClass::Transport => {
            if *health == SensorHealth::Healthy {
                *health = SensorHealth::Degraded;
            }
        }
        FaultClass::Fatal => {}
    }
}

/// Default link-layer address of the gateway.
pub const GATEWAY_ADDR: NodeAddr = NodeAddr::new(0xFE);

/// One paying sensor device of the fleet: a sender-role sans-IO endpoint
/// whose single peer is the gateway.
#[derive(Debug)]
pub struct SensorNode {
    endpoint: ChannelEndpoint,
    fallback_log: SideChainLog,
}

impl SensorNode {
    fn new(index: usize) -> Self {
        SensorNode {
            endpoint: ChannelEndpoint::fleet_sensor(
                &format!("sensor-{:02}", index + 1),
                NodeAddr::new(index as u16 + 1),
            ),
            fallback_log: SideChainLog::new(H256::ZERO),
        }
    }

    /// The sensor's protocol state machine.
    pub fn endpoint(&self) -> &ChannelEndpoint {
        &self.endpoint
    }

    /// The underlying simulated device.
    pub fn device(&self) -> &Device {
        self.endpoint.device()
    }

    /// The sensor's link-layer address.
    pub fn node_addr(&self) -> NodeAddr {
        self.endpoint.addr()
    }

    /// The sensor's payment identity.
    pub fn address(&self) -> Address {
        self.endpoint.account()
    }

    /// The sensor's channel state machine, once opened.
    pub fn channel(&self) -> Option<&PaymentChannel> {
        self.endpoint.channel(GATEWAY_ADDR)
    }

    /// The sensor's side-chain log.
    pub fn side_chain(&self) -> &SideChainLog {
        self.endpoint
            .side_chain(GATEWAY_ADDR)
            .unwrap_or(&self.fallback_log)
    }

    /// Gateway acknowledgement signatures this sensor has collected.
    pub fn ack_signatures(&self) -> &[Signature] {
        self.endpoint.peer_acks(GATEWAY_ADDR).unwrap_or(&[])
    }

    /// End-to-end latencies of this sensor's payments, in order.
    pub fn latencies(&self) -> &[Duration] {
        self.endpoint.latencies(GATEWAY_ADDR).unwrap_or(&[])
    }
}

/// The single receiver terminating all N channels: one receiver-role
/// endpoint multiplexing every sensor peer.
#[derive(Debug)]
pub struct Gateway {
    endpoint: ChannelEndpoint,
}

impl Gateway {
    fn new(addr: NodeAddr) -> Self {
        Gateway {
            endpoint: ChannelEndpoint::gateway("gateway", addr),
        }
    }

    /// The gateway's protocol state machine.
    pub fn endpoint(&self) -> &ChannelEndpoint {
        &self.endpoint
    }

    /// The gateway device (one radio, one crypto engine, N contracts).
    pub fn device(&self) -> &Device {
        self.endpoint.device()
    }

    /// The gateway's link-layer address.
    pub fn node_addr(&self) -> NodeAddr {
        self.endpoint.addr()
    }

    /// The gateway's payment identity.
    pub fn address(&self) -> Address {
        self.endpoint.account()
    }

    /// The gateway's channel state machine for one sensor.
    pub fn channel_for(&self, sensor: NodeAddr) -> Option<&PaymentChannel> {
        self.endpoint.channel(sensor)
    }

    /// The gateway's side-chain log for one sensor's channel.
    pub fn side_chain_for(&self, sensor: NodeAddr) -> Option<&SideChainLog> {
        self.endpoint.side_chain(sensor)
    }

    /// The on-chain template backing one sensor's channel.
    pub fn template_for(&self, sensor: NodeAddr) -> Option<Address> {
        self.endpoint
            .registration(sensor)
            .map(|registration| registration.template)
    }
}

/// Measurements of one multi-node payment round.
#[derive(Debug, Clone)]
pub struct GatewayRoundReport {
    /// The paying sensor.
    pub sensor: NodeAddr,
    /// Sequence number on that sensor's channel.
    pub sequence: u64,
    /// Cumulative amount that sensor now owes the gateway.
    pub cumulative: Wei,
    /// Wall-clock time from initiating the payment on the sensor until the
    /// gateway's acknowledgement arrived back.
    pub end_to_end_latency: Duration,
    /// Radio bytes exchanged for this payment (both directions).
    pub bytes_exchanged: usize,
}

/// Per-sensor summary of a finished (or running) session.
#[derive(Debug, Clone, PartialEq)]
pub struct SensorSummary {
    /// The sensor's link-layer address.
    pub addr: NodeAddr,
    /// The sensor's payment identity.
    pub account: Address,
    /// Payments the sensor made.
    pub payments: u64,
    /// Cumulative amount paid to the gateway.
    pub paid: Wei,
    /// Mean end-to-end payment latency.
    pub mean_latency: Duration,
    /// Energy the sensor's hardware consumed so far (mJ).
    pub energy_mj: f64,
    /// Wire-level accounting attributed to this sensor on the medium.
    pub wire: EndpointStats,
    /// Health of the sensor as the gateway sees it.
    pub health: SensorHealth,
    /// Protocol violations the sensor has committed.
    pub violations: u32,
}

/// Result of settling every channel on the gateway's chain.
#[derive(Debug, Clone)]
pub struct GatewaySettlementReport {
    /// Per-sensor settlements, in sensor-address order.
    pub settlements: Vec<(NodeAddr, Settlement)>,
    /// Sum paid to the gateway across all channels.
    pub total_to_gateway: Wei,
    /// The gateway's final on-chain balance.
    pub gateway_balance: Wei,
    /// On-chain transactions the whole multi-channel session needed.
    pub on_chain_transactions: usize,
}

/// The multi-node driver: N sensors, one gateway, one chain, one medium.
///
/// # Example
///
/// ```
/// use tinyevm_channel::gateway::GatewayDriver;
/// use tinyevm_net::LinkConfig;
/// use tinyevm_types::Wei;
///
/// let mut driver = GatewayDriver::new(4, LinkConfig::default(), Wei::from(1_000_000u64));
/// driver.open_all().unwrap();
/// driver.run(2, Wei::from(1_000u64)).unwrap();
/// let report = driver.settle_all().unwrap();
/// assert_eq!(report.settlements.len(), 4);
/// assert_eq!(report.total_to_gateway, Wei::from(8_000u64));
/// ```
#[derive(Debug)]
pub struct GatewayDriver {
    chain: Blockchain,
    gateway: Gateway,
    sensors: Vec<SensorNode>,
    medium: SharedMedium,
    deposit: Wei,
    idle_gap: Duration,
    rounds: Vec<GatewayRoundReport>,
    health: Vec<(SensorHealth, u32)>,
    tracer: TraceHandle,
}

impl GatewayDriver {
    /// Builds a fleet of `sensor_count` sensors around one gateway, all
    /// funded on a fresh chain. Sensor addresses are 1..=N; the gateway
    /// sits at [`GATEWAY_ADDR`].
    ///
    /// # Panics
    ///
    /// Panics when `sensor_count` is 0, collides with [`GATEWAY_ADDR`], or
    /// the link configuration is invalid.
    pub fn new(sensor_count: usize, link: LinkConfig, deposit: Wei) -> Self {
        assert!(sensor_count >= 1, "a gateway needs at least one sensor");
        assert!(
            sensor_count < usize::from(GATEWAY_ADDR.value()),
            "sensor addresses would collide with the gateway's"
        );
        let gateway = Gateway::new(GATEWAY_ADDR);
        let mut medium = SharedMedium::new(gateway.node_addr(), link);
        let mut chain = Blockchain::new();
        let sensors: Vec<SensorNode> = (0..sensor_count)
            .map(|index| {
                let sensor = SensorNode::new(index);
                medium
                    .attach(sensor.node_addr())
                    .expect("sensor addresses are unique");
                // Genesis allocation: each sensor locks its own deposit.
                chain.fund(sensor.address(), deposit.saturating_add(Wei::from_eth(1)));
                sensor
            })
            .collect();
        let health = vec![(SensorHealth::Healthy, 0u32); sensor_count];
        GatewayDriver {
            chain,
            gateway,
            sensors,
            medium,
            deposit,
            idle_gap: Duration::from_millis(120),
            rounds: Vec::new(),
            health,
            tracer: TraceHandle::default(),
        }
    }

    /// Routes the whole fleet's trace output through `tracer`: every
    /// sensor endpoint and the gateway endpoint (round phases, power
    /// states, contract calls), the shared medium (per-frame events,
    /// retransmission and loss counters), and the driver's own per-round
    /// latency histogram.
    pub fn set_tracer(&mut self, tracer: TraceHandle) {
        for sensor in &mut self.sensors {
            sensor.endpoint.set_tracer(tracer.clone());
        }
        self.gateway.endpoint.set_tracer(tracer.clone());
        self.medium.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// Builder form of [`GatewayDriver::set_tracer`].
    #[must_use]
    pub fn with_tracer(mut self, tracer: TraceHandle) -> Self {
        self.set_tracer(tracer);
        self
    }

    /// The chain settling all channels.
    pub fn chain(&self) -> &Blockchain {
        &self.chain
    }

    /// The gateway.
    pub fn gateway(&self) -> &Gateway {
        &self.gateway
    }

    /// The sensor fleet, in address order.
    pub fn sensors(&self) -> &[SensorNode] {
        &self.sensors
    }

    /// The shared medium (per-sensor wire accounting).
    pub fn medium(&self) -> &SharedMedium {
        &self.medium
    }

    /// Reports of every payment made so far, in execution order.
    pub fn rounds(&self) -> &[GatewayRoundReport] {
        &self.rounds
    }

    /// Adjusts the idle gap inserted between protocol steps.
    pub fn set_idle_gap(&mut self, gap: Duration) {
        self.idle_gap = gap;
        self.gateway.endpoint.set_idle_gap(gap);
        for sensor in &mut self.sensors {
            sensor.endpoint.set_idle_gap(gap);
        }
    }

    /// Opens every sensor's channel: publishes its template (locking the
    /// sensor's deposit), registers the payment channel on-chain, feeds the
    /// registration to both endpoints, and pumps the channel-open proposal
    /// over the medium (each side instantiates its channel contract
    /// locally).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::OutOfOrder`] when called twice, or the
    /// underlying chain / device / medium error.
    pub fn open_all(&mut self) -> Result<(), ProtocolError> {
        if self.sensors.iter().any(|sensor| sensor.channel().is_some()) {
            return Err(ProtocolError::OutOfOrder("channels are already open"));
        }
        let gateway_account = self.gateway.address();
        for index in 0..self.sensors.len() {
            let (sensor_account, sensor_addr) = {
                let sensor = &self.sensors[index];
                (sensor.address(), sensor.node_addr())
            };
            let template = self.chain.publish_template(TemplateConfig {
                sender: sensor_account,
                receiver: gateway_account,
                deposit: self.deposit,
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
                deposit_cap: self.deposit,
                anchor: self
                    .chain
                    .template(&template)
                    .map(|t| t.side_chain_root().hash)
                    .unwrap_or(H256::ZERO),
            };
            self.gateway
                .endpoint
                .expect_channel(sensor_addr, registration.clone())?;
            self.sensors[index]
                .endpoint
                .open(GATEWAY_ADDR, registration)?;
            self.pump(index)?;
        }
        self.pause_all();
        Ok(())
    }

    /// One off-chain payment from sensor `index` to the gateway: sensor
    /// reading uplink, signed payment uplink, verification and side-chain
    /// registration on the gateway, acknowledgement downlink, registration
    /// on the sensor.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::OutOfOrder`] before [`GatewayDriver::open_all`]
    /// or for an out-of-range index, and the underlying channel / medium /
    /// signature error otherwise.
    pub fn pay(&mut self, index: usize, amount: Wei) -> Result<GatewayRoundReport, ProtocolError> {
        if index >= self.sensors.len() {
            return Err(ProtocolError::OutOfOrder("no such sensor"));
        }
        let sensor_addr = self.sensors[index].node_addr();
        if self.health[index].0 == SensorHealth::Quarantined {
            return Err(ProtocolError::Quarantined {
                sensor: sensor_addr,
            });
        }
        let result = self.pay_inner(index, amount);
        match &result {
            Ok(_) => {
                // A clean round clears a transport-degraded state; recorded
                // violations are not forgiven.
                if self.health[index].0 == SensorHealth::Degraded {
                    self.health[index].0 = SensorHealth::Healthy;
                }
            }
            Err(error) => self.record_fault(index, error),
        }
        result
    }

    fn pay_inner(
        &mut self,
        index: usize,
        amount: Wei,
    ) -> Result<GatewayRoundReport, ProtocolError> {
        let sensor_addr = self.sensors[index].node_addr();
        self.sensors[index].endpoint.pay(GATEWAY_ADDR, amount)?;
        let log = self.pump(index)?;
        let receipt = log
            .effects
            .iter()
            .find_map(|(_, effect)| match effect {
                Effect::PaymentCompleted { receipt, .. } => Some(receipt.clone()),
                _ => None,
            })
            .ok_or(ProtocolError::OutOfOrder("payment round did not complete"))?;
        let report = GatewayRoundReport {
            sensor: sensor_addr,
            sequence: receipt.sequence,
            cumulative: receipt.cumulative,
            end_to_end_latency: receipt.end_to_end_latency,
            bytes_exchanged: log.wire_bytes(),
        };
        self.tracer.observe(
            "driver.round_latency_ms",
            receipt.end_to_end_latency.as_secs_f64() * 1_000.0,
        );
        self.rounds.push(report.clone());
        Ok(report)
    }

    /// Runs `rounds` full rounds: every sensor pays `amount` once per
    /// round, in address order. The fleet degrades gracefully: sensors
    /// whose rounds die on transport or who violate the protocol are
    /// recorded ([`GatewayDriver::sensor_health`]) and *skipped* —
    /// quarantining one sensor never blocks the rest of the fleet.
    ///
    /// # Errors
    ///
    /// Propagates the first driver-level error (out-of-order use, chain
    /// trouble) — per-sensor faults are absorbed into the health state.
    pub fn run(&mut self, rounds: usize, amount: Wei) -> Result<(), ProtocolError> {
        for _ in 0..rounds {
            for index in 0..self.sensors.len() {
                if self.health[index].0 == SensorHealth::Quarantined {
                    continue;
                }
                match self.pay(index, amount) {
                    Ok(_) => {}
                    Err(error) => match classify(&error) {
                        FaultClass::Violation | FaultClass::Transport => continue,
                        FaultClass::Fatal => return Err(error),
                    },
                }
            }
        }
        Ok(())
    }

    /// Closes and settles every channel on the gateway's chain: each
    /// sensor's endpoint signs its final state and sends it up the medium;
    /// the gateway endpoint validates each against its own channel view,
    /// verifies **all N closing signatures in one batched multi-scalar
    /// pass**, counter-signs, and the driver commits every envelope. After
    /// one shared challenge period every template is finalized.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::OutOfOrder`] before channels are open, or
    /// the chain's rejection.
    pub fn settle_all(&mut self) -> Result<GatewaySettlementReport, ProtocolError> {
        let gateway_account = self.gateway.address();
        for index in 0..self.sensors.len() {
            // Quarantined sensors are excluded: the gateway does not run
            // a close handshake with a peer it no longer trusts. Their
            // channels simply stay open (a later on-chain challenge can
            // still settle them unilaterally).
            if self.health[index].0 == SensorHealth::Quarantined {
                continue;
            }
            self.sensors[index].endpoint.close(GATEWAY_ADDR)?;
            self.pump(index)?;
        }
        // One Straus pass over all N closing signatures, then one
        // counter-signature per channel.
        let commits = self.gateway.endpoint.finalize_closes()?;
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

        // One shared challenge period covers every exit (all templates use
        // the same period), then each settles individually.
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

    /// Health of sensor `index`, or `None` for an out-of-range index.
    pub fn sensor_health(&self, index: usize) -> Option<SensorHealth> {
        self.health.get(index).map(|(health, _)| *health)
    }

    /// Protocol violations sensor `index` has committed.
    pub fn sensor_violations(&self, index: usize) -> u32 {
        self.health
            .get(index)
            .map(|(_, violations)| *violations)
            .unwrap_or(0)
    }

    /// Number of currently quarantined sensors.
    pub fn quarantined_count(&self) -> usize {
        self.health
            .iter()
            .filter(|(health, _)| *health == SensorHealth::Quarantined)
            .count()
    }

    /// Installs a fault plan on one sensor's uplink/downlink (see
    /// [`tinyevm_net::FaultConfig`]); the rest of the fleet is untouched.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::OutOfOrder`] for an out-of-range index and
    /// [`ProtocolError::Medium`] / [`ProtocolError::Link`] for an invalid
    /// configuration.
    pub fn set_sensor_faults(
        &mut self,
        index: usize,
        config: tinyevm_net::FaultConfig,
    ) -> Result<(), ProtocolError> {
        let addr = self
            .sensors
            .get(index)
            .map(SensorNode::node_addr)
            .ok_or(ProtocolError::OutOfOrder("no such sensor"))?;
        self.medium.set_faults(addr, config)?;
        Ok(())
    }

    /// Removes any fault plan from one sensor's endpoint on the medium.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::OutOfOrder`] for an out-of-range index.
    pub fn clear_sensor_faults(&mut self, index: usize) -> Result<(), ProtocolError> {
        let addr = self
            .sensors
            .get(index)
            .map(SensorNode::node_addr)
            .ok_or(ProtocolError::OutOfOrder("no such sensor"))?;
        self.medium.clear_faults(addr)?;
        Ok(())
    }

    /// Books a pump error against the sensor that caused it (see
    /// [`record_fault`]).
    fn record_fault(&mut self, index: usize, error: &ProtocolError) {
        record_fault(
            &mut self.health[index],
            error,
            &self.tracer,
            self.gateway.endpoint.device().name(),
            self.sensors[index].node_addr(),
        );
    }

    /// Per-sensor summary rows, in address order.
    pub fn sensor_summaries(&self) -> Vec<SensorSummary> {
        self.sensors
            .iter()
            .zip(&self.health)
            .map(|(sensor, (health, violations))| {
                let latencies = sensor.latencies();
                let mean_latency = if latencies.is_empty() {
                    Duration::ZERO
                } else {
                    latencies.iter().sum::<Duration>() / latencies.len() as u32
                };
                SensorSummary {
                    addr: sensor.node_addr(),
                    account: sensor.address(),
                    payments: sensor.channel().map(|c| c.payments_seen()).unwrap_or(0),
                    paid: sensor
                        .channel()
                        .map(|c| c.cumulative())
                        .unwrap_or(Wei::ZERO),
                    mean_latency,
                    energy_mj: sensor.device().energy_report().total_energy_mj(),
                    wire: self
                        .medium
                        .stats(sensor.node_addr())
                        .cloned()
                        .unwrap_or_default(),
                    health: *health,
                    violations: *violations,
                }
            })
            .collect()
    }

    // --- persistence -----------------------------------------------------

    /// Writes the whole multi-session state — the chain plus both
    /// endpoints of every channel — to one wire-format persistence file.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::OutOfOrder`] before channels are open and
    /// [`ProtocolError::Wire`] on filesystem failure.
    pub fn save_session(&self, path: &Path) -> Result<(), ProtocolError> {
        let mut messages = Vec::with_capacity(1 + 2 * self.sensors.len());
        messages.push(Message::ChainSnapshot(ChainSnapshot::capture(&self.chain)));
        for sensor in &self.sensors {
            let sensor_snapshot = sensor
                .endpoint
                .snapshot(GATEWAY_ADDR)
                .ok_or(ProtocolError::OutOfOrder("open_all first"))?;
            messages.push(Message::ChannelSnapshot(sensor_snapshot));
            let gateway_snapshot = self
                .gateway
                .endpoint
                .snapshot(sensor.node_addr())
                .ok_or(ProtocolError::OutOfOrder("open_all first"))?;
            messages.push(Message::ChannelSnapshot(gateway_snapshot));
        }
        persist::write_messages(path, &messages)?;
        Ok(())
    }

    /// Restores a session saved by [`GatewayDriver::save_session`] into
    /// this driver (which must have the same fleet size and device
    /// identities). The file is validated as a whole before any state
    /// changes: the chain snapshot must be present, every sensor must have
    /// a sender and a receiver snapshot agreeing on the channel, and all
    /// templates must exist on the restored chain. Measurement history
    /// ([`GatewayDriver::rounds`], per-sensor latencies) is cleared — it
    /// belongs to the process that was lost in the power cycle.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::Wire`] for unreadable, incomplete,
    /// tampered or foreign files and a device error when a channel
    /// contract cannot be re-created.
    pub fn restore_session(&mut self, path: &Path) -> Result<(), ProtocolError> {
        let mut chain = None;
        let mut senders: BTreeMap<Address, ChannelSnapshot> = BTreeMap::new();
        let mut receivers: BTreeMap<Address, ChannelSnapshot> = BTreeMap::new();
        for message in persist::read_messages(path)? {
            match message {
                Message::ChainSnapshot(snapshot) => chain = Some(snapshot.restore()?),
                Message::ChannelSnapshot(snapshot) => {
                    let by_party = match snapshot.role {
                        EndpointRole::Sender => &mut senders,
                        EndpointRole::Receiver => &mut receivers,
                    };
                    by_party.insert(snapshot.sender, snapshot);
                }
                other => {
                    return Err(ProtocolError::UnexpectedMessage {
                        expected: "snapshot",
                        got: other.label(),
                    })
                }
            }
        }
        let Some(chain) = chain else {
            return Err(ProtocolError::Wire(WireError::Truncated));
        };
        if senders.len() != self.sensors.len() || receivers.len() != self.sensors.len() {
            return Err(ProtocolError::Wire(WireError::Truncated));
        }
        // Validate and decode everything before committing any state.
        let gateway_account = self.gateway.address();
        for sensor in &self.sensors {
            let account = sensor.address();
            let (Some(sender_snapshot), Some(receiver_snapshot)) =
                (senders.get(&account), receivers.get(&account))
            else {
                return Err(ProtocolError::Wire(WireError::Value(
                    "snapshot is missing a fleet device's channel",
                )));
            };
            if sender_snapshot.template != receiver_snapshot.template
                || sender_snapshot.channel_id != receiver_snapshot.channel_id
                || sender_snapshot.receiver != receiver_snapshot.receiver
                || sender_snapshot.deposit_cap != receiver_snapshot.deposit_cap
            {
                return Err(ProtocolError::Wire(WireError::Value(
                    "endpoint snapshots describe different channels",
                )));
            }
            if sender_snapshot.receiver != gateway_account {
                return Err(ProtocolError::Wire(WireError::Value(
                    "snapshot belongs to a different gateway",
                )));
            }
            if chain.template(&sender_snapshot.template).is_none() {
                return Err(ProtocolError::Wire(WireError::Value(
                    "snapshot template is not on the restored chain",
                )));
            }
            PaymentChannel::restore(sender_snapshot)?;
            PaymentChannel::restore(receiver_snapshot)?;
        }

        // Commit. Measurement history (round reports and per-sensor
        // latencies) describes the life of *this* process, not the
        // restored session — a power cycle loses it, so it is cleared
        // rather than left to mix stale numbers with restored channels.
        // Device meters and medium statistics likewise keep counting from
        // boot; the contract re-creations below are part of that boot
        // cost, exactly as on real flash-restored hardware.
        self.chain = chain;
        self.rounds.clear();
        // Health is the gateway process's volatile protection state; a
        // power cycle starts every sensor back at Healthy.
        self.health = vec![(SensorHealth::Healthy, 0); self.sensors.len()];
        let stale_peers: Vec<NodeAddr> = self.gateway.endpoint.peers().collect();
        for peer in stale_peers {
            self.gateway.endpoint.drop_session(peer);
        }
        for sensor in &mut self.sensors {
            let account = sensor.address();
            let sensor_addr = sensor.node_addr();
            let sender_snapshot = &senders[&account];
            let receiver_snapshot = &receivers[&account];
            sensor.endpoint.drop_session(GATEWAY_ADDR);
            sensor
                .endpoint
                .install_snapshot(GATEWAY_ADDR, sender_snapshot)?;
            sensor.endpoint.ensure_contract(GATEWAY_ADDR)?;
            self.gateway
                .endpoint
                .install_snapshot(sensor_addr, receiver_snapshot)?;
            self.gateway.endpoint.ensure_contract(sensor_addr)?;
        }
        Ok(())
    }

    // --- internals -------------------------------------------------------

    /// Drains the outboxes of sensor `index` and the gateway through the
    /// shared medium — one sensor owning the whole medium for its turn.
    ///
    /// This is exactly the contention-free single-slot schedule: the same
    /// shared pump (`pump_contention_free`) that `tinyevm-sim`'s
    /// `FleetScheduler` runs per slot in its single-slot configuration, so
    /// the legacy lockstep driver and the event scheduler stay
    /// byte-identical (pinned by the driver-equivalence goldens).
    fn pump(&mut self, index: usize) -> Result<PumpLog, ProtocolError> {
        crate::protocol::pump_contention_free(
            &mut self.medium,
            &mut self.sensors[index].endpoint,
            &mut self.gateway.endpoint,
        )
    }

    /// Inserts the configured idle gap on every device (LPM2).
    fn pause_all(&mut self) {
        for sensor in &mut self.sensors {
            sensor.endpoint.wait(self.idle_gap);
        }
        self.gateway.endpoint.wait(self.idle_gap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn driver(sensors: usize) -> GatewayDriver {
        GatewayDriver::new(sensors, LinkConfig::default(), Wei::from(1_000_000u64))
    }

    #[test]
    fn fleet_has_distinct_identities_and_addresses() {
        let d = driver(4);
        let mut accounts: Vec<Address> = d.sensors().iter().map(|s| s.address()).collect();
        accounts.push(d.gateway().address());
        accounts.sort();
        accounts.dedup();
        assert_eq!(accounts.len(), 5, "all payment identities are distinct");
        let addrs: Vec<NodeAddr> = d.sensors().iter().map(|s| s.node_addr()).collect();
        assert_eq!(
            addrs,
            vec![
                NodeAddr::new(1),
                NodeAddr::new(2),
                NodeAddr::new(3),
                NodeAddr::new(4)
            ]
        );
        assert_eq!(d.gateway().node_addr(), GATEWAY_ADDR);
    }

    #[test]
    fn payments_must_wait_for_open_all() {
        let mut d = driver(2);
        assert!(matches!(
            d.pay(0, Wei::from(1u64)),
            Err(ProtocolError::OutOfOrder(_))
        ));
        d.open_all().unwrap();
        assert!(matches!(d.open_all(), Err(ProtocolError::OutOfOrder(_))));
        assert!(matches!(
            d.pay(9, Wei::from(1u64)),
            Err(ProtocolError::OutOfOrder(_))
        ));
    }

    #[test]
    fn four_sensors_pay_and_settle_on_one_chain() {
        let mut d = driver(4);
        d.open_all().unwrap();
        d.run(3, Wei::from(2_500u64)).unwrap();
        assert_eq!(d.rounds().len(), 12);

        // Every sensor's channel and both side-chain logs advanced.
        for sensor in d.sensors() {
            assert_eq!(sensor.channel().unwrap().payments_seen(), 3);
            assert_eq!(sensor.side_chain().len(), 3);
            assert!(sensor.side_chain().verify());
            assert_eq!(sensor.ack_signatures().len(), 3);
            let gateway_log = d.gateway().side_chain_for(sensor.node_addr()).unwrap();
            assert_eq!(gateway_log.len(), 3);
            assert!(gateway_log.verify());
        }

        let report = d.settle_all().unwrap();
        assert_eq!(report.settlements.len(), 4);
        assert_eq!(report.total_to_gateway, Wei::from(4 * 3 * 2_500u64));
        assert_eq!(report.gateway_balance, report.total_to_gateway);
        for (_, settlement) in &report.settlements {
            assert!(!settlement.fraud_detected);
            assert_eq!(settlement.to_receiver, Wei::from(7_500u64));
        }
        // Each sensor got its unspent deposit back.
        for sensor in d.sensors() {
            assert!(d.chain().balance(&sensor.address()) >= Wei::from(992_500u64));
        }
    }

    #[test]
    fn per_sensor_statistics_are_reported_and_sum_to_the_medium() {
        let mut d = driver(4);
        d.open_all().unwrap();
        d.run(2, Wei::from(1_000u64)).unwrap();
        let summaries = d.sensor_summaries();
        assert_eq!(summaries.len(), 4);
        let mut wire_total = 0u64;
        for summary in &summaries {
            assert_eq!(summary.payments, 2);
            assert_eq!(summary.paid, Wei::from(2_000u64));
            assert!(summary.mean_latency > Duration::from_millis(300));
            assert!(summary.energy_mj > 1.0);
            assert!(summary.wire.uplink_wire_bytes > 0);
            assert!(summary.wire.downlink_wire_bytes > 0);
            wire_total += summary.wire.wire_bytes();
        }
        assert_eq!(wire_total, d.medium().total_wire_bytes());
    }

    #[test]
    fn scenario_is_deterministic_per_seed() {
        let run = || {
            let mut d = driver(4);
            d.open_all().unwrap();
            d.run(2, Wei::from(1_000u64)).unwrap();
            d.sensor_summaries()
        };
        assert_eq!(run(), run(), "same configuration, byte-identical stats");
    }

    #[test]
    fn lossy_medium_still_settles_every_channel() {
        let mut link = LinkConfig::default().with_loss(0.15, 7);
        link.max_retries = 16;
        let mut d = GatewayDriver::new(5, link, Wei::from(100_000u64));
        d.open_all().unwrap();
        d.run(2, Wei::from(700u64)).unwrap();
        let report = d.settle_all().unwrap();
        assert_eq!(report.total_to_gateway, Wei::from(5 * 2 * 700u64));
        // Losses happened somewhere (retransmissions are per-sensor).
        let retransmissions: u64 = d
            .sensor_summaries()
            .iter()
            .map(|s| s.wire.retransmissions)
            .sum();
        assert!(retransmissions > 0);
    }

    #[test]
    fn multi_session_state_survives_a_power_cycle() {
        let mut path = std::env::temp_dir();
        path.push(format!("tinyevm-gateway-{}.snap", std::process::id()));
        let mut d = driver(3);
        d.open_all().unwrap();
        d.run(2, Wei::from(500u64)).unwrap();
        let chain_root = d.chain().state_root();
        d.save_session(&path).unwrap();

        let mut resumed = driver(3);
        resumed.restore_session(&path).unwrap();
        assert_eq!(resumed.chain().state_root(), chain_root);
        for (restored, original) in resumed.sensors().iter().zip(d.sensors()) {
            assert_eq!(
                restored.channel().unwrap().cumulative(),
                original.channel().unwrap().cumulative()
            );
            assert!(restored.side_chain().verify());
        }
        // Measurement history belongs to the lost process: the restored
        // driver starts its round log and latencies empty even though the
        // restored channels carry payments.
        assert!(resumed.rounds().is_empty());
        assert!(resumed.sensors().iter().all(|s| s.latencies().is_empty()));
        // The fleet keeps paying and settles for everything.
        resumed.pay(0, Wei::from(500u64)).unwrap();
        let report = resumed.settle_all().unwrap();
        assert_eq!(report.total_to_gateway, Wei::from(3 * 2 * 500 + 500u64));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn foreign_or_incomplete_session_files_are_rejected() {
        let mut path = std::env::temp_dir();
        path.push(format!("tinyevm-gateway-bad-{}.snap", std::process::id()));
        let mut d = driver(2);
        d.open_all().unwrap();
        d.pay(0, Wei::from(100u64)).unwrap();
        d.save_session(&path).unwrap();

        // A fleet of a different size must refuse the file.
        let mut wrong_size = driver(3);
        assert!(matches!(
            wrong_size.restore_session(&path),
            Err(ProtocolError::Wire(_))
        ));

        // A chain-snapshot-only file is incomplete.
        persist::write_messages(
            &path,
            &[Message::ChainSnapshot(ChainSnapshot::capture(d.chain()))],
        )
        .unwrap();
        let mut resumed = driver(2);
        assert!(matches!(
            resumed.restore_session(&path),
            Err(ProtocolError::Wire(WireError::Truncated))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn repeated_violations_quarantine_one_sensor_without_blocking_the_fleet() {
        let mut d = GatewayDriver::new(4, LinkConfig::default(), Wei::from(10_000u64));
        d.open_all().unwrap();
        d.run(1, Wei::from(2_000u64)).unwrap();
        // Sensor 1 repeatedly tries to overdraw its deposit — a channel
        // rule violation, refused every time with a typed error.
        for _ in 0..QUARANTINE_THRESHOLD {
            let error = d.pay(1, Wei::from(50_000u64)).unwrap_err();
            assert!(matches!(error, ProtocolError::Channel(_)));
        }
        assert_eq!(d.sensor_health(1), Some(SensorHealth::Quarantined));
        assert_eq!(d.sensor_violations(1), QUARANTINE_THRESHOLD);
        assert_eq!(d.quarantined_count(), 1);
        // Further rounds with the quarantined sensor are refused outright.
        assert!(matches!(
            d.pay(1, Wei::from(100u64)),
            Err(ProtocolError::Quarantined { sensor }) if sensor == NodeAddr::new(2)
        ));
        // The rest of the fleet keeps paying (run skips the quarantined
        // sensor) and settles normally.
        d.run(1, Wei::from(2_000u64)).unwrap();
        let report = d.settle_all().unwrap();
        assert_eq!(report.settlements.len(), 3, "quarantined sensor excluded");
        // Healthy sensors paid two rounds, the quarantined one only the
        // first — and its first-round payment is NOT settled (its channel
        // stays open for a later unilateral challenge).
        assert_eq!(report.total_to_gateway, Wei::from(3 * 2 * 2_000u64));
        let summaries = d.sensor_summaries();
        assert_eq!(summaries[1].health, SensorHealth::Quarantined);
        assert_eq!(summaries[1].violations, QUARANTINE_THRESHOLD);
        assert!(summaries
            .iter()
            .enumerate()
            .all(|(i, s)| i == 1 || s.health == SensorHealth::Healthy));
    }

    #[test]
    fn a_partitioned_sensor_degrades_and_recovers() {
        use tinyevm_net::{FaultConfig, MessageWindow};
        let mut d = driver(3);
        d.open_all().unwrap();
        d.run(1, Wei::from(500u64)).unwrap();
        // Partition sensor 0 permanently; its round aborts after the retry
        // budget and the health state records the degradation.
        d.set_sensor_faults(
            0,
            FaultConfig {
                partition: Some(MessageWindow {
                    from_message: 0,
                    to_message: u64::MAX,
                }),
                ..FaultConfig::quiet(5)
            },
        )
        .unwrap();
        d.run(1, Wei::from(500u64)).unwrap();
        assert_eq!(d.sensor_health(0), Some(SensorHealth::Degraded));
        assert_eq!(d.sensor_violations(0), 0, "transport trouble never counts");
        // The other sensors were unaffected.
        assert_eq!(d.sensor_health(1), Some(SensorHealth::Healthy));
        // The partition lifts; the next clean round restores the sensor.
        d.clear_sensor_faults(0).unwrap();
        d.run(1, Wei::from(500u64)).unwrap();
        assert_eq!(d.sensor_health(0), Some(SensorHealth::Healthy));
        let report = d.settle_all().unwrap();
        assert_eq!(report.settlements.len(), 3);
        // Nothing was lost: sensor 0 had already signed the partitioned
        // round's payment, so its cumulative value folded into the next
        // successful payment and the gateway settles for all 3 × 3 rounds.
        assert_eq!(report.total_to_gateway, Wei::from(3 * 3 * 500u64));
    }

    #[test]
    fn settlement_batch_verifies_every_close_signature_in_one_pass() {
        // The gateway device's activity log shows exactly one batched
        // verification covering all N channels, followed by N
        // counter-signatures.
        let mut d = driver(3);
        d.open_all().unwrap();
        d.run(1, Wei::from(400u64)).unwrap();
        d.settle_all().unwrap();
        let batch_verifies = d
            .gateway()
            .device()
            .activities()
            .iter()
            .filter(|a| a.label == "batch verify payloads")
            .count();
        assert_eq!(batch_verifies, 1, "one Straus pass for the whole fleet");
    }
}
