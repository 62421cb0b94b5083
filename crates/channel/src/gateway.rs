//! Per-sensor bookkeeping of the multi-node gateway scenario: the paper's
//! *fleet* of low-power devices, each paying one gateway over its own
//! off-chain channel. The fleet engine is `tinyevm-sim`'s `FleetScheduler`;
//! this module holds what it shares with its callers:
//!
//! * the gateway's default link-layer address, [`GATEWAY_ADDR`];
//! * per-sensor health: [`classify`] rates an error, [`record_fault`]
//!   books it, and [`QUARANTINE_THRESHOLD`] violations quarantine a
//!   sensor ([`SensorHealth`]);
//! * the report types: [`GatewayRoundReport`] per payment,
//!   [`SensorSummary`] per sensor and [`GatewaySettlementReport`] for the
//!   batched settlement of every channel.

use std::time::Duration;

use tinyevm_chain::Settlement;
use tinyevm_net::{EndpointStats, NodeAddr};
use tinyevm_trace::TraceHandle;
use tinyevm_types::{Address, Wei};

use crate::endpoint::EndpointError;
use crate::protocol::ProtocolError;

/// Protocol violations (bad signatures, tampered proposals, channel-rule
/// breaches) a single sensor may commit before the gateway quarantines it.
pub const QUARANTINE_THRESHOLD: u32 = 3;

/// Health of one sensor as the gateway sees it.
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
