//! A shared wireless medium: many addressed senders, one gateway.
//!
//! The paper's deployment is a fleet of low-power sensor devices paying a
//! single gateway over off-chain channels. [`SharedMedium`] models the
//! radio side of that topology: N attached endpoints contend for one
//! receiver, each endpoint runs its **own seeded loss process** (derived
//! deterministically from the medium seed and the endpoint address, so
//! adding a sensor never perturbs another sensor's losses), and every wire
//! byte and microsecond of airtime is attributed to exactly one endpoint.
//! The medium serializes transmissions the way a TSCH schedule does — one
//! talker at a time — so the medium-wide airtime is the sum of the
//! per-endpoint airtimes, an invariant the accounting tests pin.

use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

use crate::addr::NodeAddr;
use crate::link::{Link, LinkConfig, LinkError, TransferReport};

/// Default bound on each of the gateway's per-peer RX queues — frames
/// parked for it beyond this depth are dropped and counted, the way a real
/// radio driver sheds load when the MAC cannot drain its buffers.
pub const DEFAULT_RX_QUEUE_CAPACITY: usize = 64;

/// Errors produced by [`SharedMedium`] operations.
#[derive(Debug, Clone, PartialEq)]
pub enum MediumError {
    /// The address is not attached to the medium.
    UnknownEndpoint(NodeAddr),
    /// The address is already attached.
    DuplicateEndpoint(NodeAddr),
    /// An endpoint may not use the gateway's own address.
    AddressIsGateway(NodeAddr),
    /// The underlying point-to-point transfer failed.
    Link(LinkError),
}

impl core::fmt::Display for MediumError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MediumError::UnknownEndpoint(addr) => {
                write!(f, "endpoint {addr} is not attached to the medium")
            }
            MediumError::DuplicateEndpoint(addr) => {
                write!(f, "endpoint {addr} is already attached")
            }
            MediumError::AddressIsGateway(addr) => {
                write!(f, "{addr} is the gateway's own address")
            }
            MediumError::Link(error) => write!(f, "link error: {error}"),
        }
    }
}

impl std::error::Error for MediumError {}

impl From<LinkError> for MediumError {
    fn from(error: LinkError) -> Self {
        MediumError::Link(error)
    }
}

/// Wire-level statistics attributed to one attached endpoint.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EndpointStats {
    /// Messages the endpoint sent to the gateway.
    pub uplink_messages: u64,
    /// Messages the gateway sent to the endpoint.
    pub downlink_messages: u64,
    /// Bytes this endpoint put on the air towards the gateway (headers and
    /// retransmissions included).
    pub uplink_wire_bytes: u64,
    /// Bytes the gateway put on the air towards this endpoint.
    pub downlink_wire_bytes: u64,
    /// Application payload bytes moved in either direction.
    pub payload_bytes: u64,
    /// Retransmitted frames in either direction.
    pub retransmissions: u64,
    /// Time the medium was busy with this endpoint's traffic (both
    /// directions; the transmitting side's on-air time).
    pub airtime: Duration,
}

impl EndpointStats {
    /// Total bytes on the air attributable to this endpoint, both
    /// directions.
    pub fn wire_bytes(&self) -> u64 {
        self.uplink_wire_bytes + self.downlink_wire_bytes
    }

    /// Total messages attributable to this endpoint, both directions.
    pub fn messages(&self) -> u64 {
        self.uplink_messages + self.downlink_messages
    }

    fn absorb(&mut self, report: &TransferReport, uplink: bool) {
        if uplink {
            self.uplink_messages += 1;
            self.uplink_wire_bytes += report.wire_bytes as u64;
        } else {
            self.downlink_messages += 1;
            self.downlink_wire_bytes += report.wire_bytes as u64;
        }
        self.payload_bytes += report.payload_bytes as u64;
        self.retransmissions += u64::from(report.retransmissions);
        self.airtime += report.tx_time;
    }
}

#[derive(Debug)]
struct MediumEndpoint {
    link: Link,
    stats: EndpointStats,
}

/// Derives an endpoint's loss-process seed from the medium seed and its
/// address (a splitmix64 step), so every attached sender has an
/// independent, reproducible loss process.
pub(crate) fn endpoint_seed(medium_seed: u64, addr: NodeAddr) -> u64 {
    let mut z = medium_seed
        .wrapping_add(u64::from(addr.value()))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// N addressed senders sharing one receiver (the gateway).
///
/// # Example
///
/// ```
/// use tinyevm_net::{LinkConfig, NodeAddr, SharedMedium};
///
/// let gateway = NodeAddr::new(0xFE);
/// let mut medium = SharedMedium::new(gateway, LinkConfig::default());
/// let sensor = NodeAddr::new(0x01);
/// medium.attach(sensor).unwrap();
/// let (delivered, report) = medium.send_to_gateway(sensor, b"reading").unwrap();
/// assert_eq!(delivered, b"reading");
/// assert_eq!(medium.stats(sensor).unwrap().uplink_wire_bytes, report.wire_bytes as u64);
/// ```
#[derive(Debug)]
pub struct SharedMedium {
    gateway: NodeAddr,
    base: LinkConfig,
    endpoints: BTreeMap<NodeAddr, MediumEndpoint>,
    /// Frames parked for the gateway with their wire sizes, one bounded
    /// queue per sending peer (so a flooding sensor sheds its own frames,
    /// never a neighbour's). Only peers with a frame parked have a queue,
    /// so the lowest-addressed queue holds the next frame.
    gateway_rx: BTreeMap<NodeAddr, VecDeque<(Vec<u8>, usize)>>,
    /// Frames across all of `gateway_rx`, so asking for the gateway's
    /// backlog never walks every peer's queue.
    gateway_rx_frames: usize,
    rx_queue_capacity: usize,
    frames_dropped_queue_full: u64,
    total_wire_bytes: u64,
    total_messages: u64,
    total_airtime: Duration,
    tracer: tinyevm_trace::TraceHandle,
}

impl SharedMedium {
    /// Creates a medium with the given gateway address and base link
    /// configuration (bit rate, overhead, loss rate, retry budget; the
    /// seed is re-derived per endpoint).
    ///
    /// # Panics
    ///
    /// Panics when the configuration does not pass
    /// [`LinkConfig::validate`]; use [`SharedMedium::try_new`] to handle
    /// the error instead.
    pub fn new(gateway: NodeAddr, base: LinkConfig) -> Self {
        match SharedMedium::try_new(gateway, base) {
            Ok(medium) => medium,
            Err(error) => panic!("invalid medium configuration: {error}"),
        }
    }

    /// Creates a medium, validating the base configuration.
    ///
    /// # Errors
    ///
    /// Returns [`MediumError::Link`] when the base configuration does not
    /// pass [`LinkConfig::validate`].
    pub fn try_new(gateway: NodeAddr, base: LinkConfig) -> Result<Self, MediumError> {
        base.validate()?;
        Ok(SharedMedium {
            gateway,
            base,
            endpoints: BTreeMap::new(),
            gateway_rx: BTreeMap::new(),
            gateway_rx_frames: 0,
            rx_queue_capacity: DEFAULT_RX_QUEUE_CAPACITY,
            frames_dropped_queue_full: 0,
            total_wire_bytes: 0,
            total_messages: 0,
            total_airtime: Duration::ZERO,
            tracer: tinyevm_trace::TraceHandle::default(),
        })
    }

    /// Attaches a tracer, forwarded to every endpoint link (already
    /// attached and future ones): per-frame TX and loss events carry the
    /// endpoints' addresses as node labels.
    pub fn set_tracer(&mut self, tracer: tinyevm_trace::TraceHandle) {
        for endpoint in self.endpoints.values_mut() {
            endpoint.link.set_tracer(tracer.clone());
        }
        self.tracer = tracer;
    }

    /// The gateway's address.
    pub fn gateway(&self) -> NodeAddr {
        self.gateway
    }

    /// Attaches an endpoint with the base configuration and its own derived
    /// loss-process seed.
    ///
    /// # Errors
    ///
    /// Returns [`MediumError::DuplicateEndpoint`] for an address already
    /// attached and [`MediumError::AddressIsGateway`] for the gateway's own
    /// address.
    pub fn attach(&mut self, addr: NodeAddr) -> Result<(), MediumError> {
        let config = self.base.clone();
        self.attach_configured(addr, config)
    }

    /// Attaches an endpoint with an overridden loss rate (e.g. one sensor
    /// behind a wall), still under a derived per-endpoint seed.
    ///
    /// # Errors
    ///
    /// Returns the same errors as [`SharedMedium::attach`], plus
    /// [`MediumError::Link`] when the loss rate is invalid.
    pub fn attach_with_loss(&mut self, addr: NodeAddr, loss_rate: f64) -> Result<(), MediumError> {
        let mut config = self.base.clone();
        config.loss_rate = loss_rate;
        self.attach_configured(addr, config)
    }

    fn attach_configured(
        &mut self,
        addr: NodeAddr,
        mut config: LinkConfig,
    ) -> Result<(), MediumError> {
        if addr == self.gateway {
            return Err(MediumError::AddressIsGateway(addr));
        }
        if self.endpoints.contains_key(&addr) {
            return Err(MediumError::DuplicateEndpoint(addr));
        }
        config.seed = endpoint_seed(self.base.seed, addr);
        let mut link = Link::try_between(addr, self.gateway, config)?;
        link.set_tracer(self.tracer.clone());
        self.endpoints.insert(
            addr,
            MediumEndpoint {
                link,
                stats: EndpointStats::default(),
            },
        );
        Ok(())
    }

    /// Installs a fault plan on one attached endpoint's link. The plan's
    /// seed is re-derived from the given seed and the endpoint address
    /// (same splitmix derivation as the loss seeds), so per-peer schedules
    /// stay independent and adding a plan on one sensor never perturbs
    /// another's faults.
    ///
    /// # Errors
    ///
    /// Returns [`MediumError::UnknownEndpoint`] for a detached address and
    /// [`MediumError::Link`] for invalid fault rates.
    pub fn set_faults(
        &mut self,
        addr: NodeAddr,
        mut config: crate::fault::FaultConfig,
    ) -> Result<(), MediumError> {
        config.seed = endpoint_seed(config.seed, addr);
        let endpoint = self
            .endpoints
            .get_mut(&addr)
            .ok_or(MediumError::UnknownEndpoint(addr))?;
        endpoint.link.set_faults(config)?;
        Ok(())
    }

    /// Removes any fault plan from one attached endpoint's link.
    ///
    /// # Errors
    ///
    /// Returns [`MediumError::UnknownEndpoint`] for a detached address.
    pub fn clear_faults(&mut self, addr: NodeAddr) -> Result<(), MediumError> {
        let endpoint = self
            .endpoints
            .get_mut(&addr)
            .ok_or(MediumError::UnknownEndpoint(addr))?;
        endpoint.link.clear_faults();
        Ok(())
    }

    /// Addresses of all attached endpoints, in address order.
    pub fn endpoints(&self) -> impl Iterator<Item = NodeAddr> + '_ {
        self.endpoints.keys().copied()
    }

    /// Statistics attributed to one endpoint.
    pub fn stats(&self, addr: NodeAddr) -> Result<&EndpointStats, MediumError> {
        self.endpoints
            .get(&addr)
            .map(|endpoint| &endpoint.stats)
            .ok_or(MediumError::UnknownEndpoint(addr))
    }

    /// Total bytes that went on the air, all endpoints and both directions.
    pub fn total_wire_bytes(&self) -> u64 {
        self.total_wire_bytes
    }

    /// Total messages moved over the medium.
    pub fn total_messages(&self) -> u64 {
        self.total_messages
    }

    /// Total time the medium was busy. Transmissions are serialized (one
    /// talker at a time), so this equals the sum of the per-endpoint
    /// airtimes.
    pub fn total_airtime(&self) -> Duration {
        self.total_airtime
    }

    /// Caps each of the gateway's per-peer RX queues at `capacity` frames
    /// (existing excess frames are shed and counted). A capacity of zero
    /// refuses all queued delivery.
    pub fn set_rx_queue_capacity(&mut self, capacity: usize) {
        self.rx_queue_capacity = capacity;
        let mut shed = 0u64;
        self.gateway_rx.retain(|_, queue| {
            if queue.len() <= capacity {
                return true;
            }
            shed += (queue.len() - capacity) as u64;
            queue.truncate(capacity);
            capacity > 0
        });
        self.gateway_rx_frames -= shed as usize;
        if shed > 0 {
            self.frames_dropped_queue_full += shed;
            self.tracer.count("net.frames_dropped_queue_full", shed);
        }
    }

    /// The per-peer RX queue bound currently in force.
    pub fn rx_queue_capacity(&self) -> usize {
        self.rx_queue_capacity
    }

    /// Frames shed because one of the gateway's per-peer RX queues was
    /// full.
    pub fn frames_dropped_queue_full(&self) -> u64 {
        self.frames_dropped_queue_full
    }

    /// Parks a frame from `from` that took `wire_bytes` on the air in the
    /// gateway's RX queue for that peer until the gateway's state machine
    /// drains it. Returns `true` when the frame was queued and `false` when
    /// the bounded queue was full and the frame was shed (counted under
    /// `net.frames_dropped_queue_full`). One flooding sensor only ever
    /// sheds its own frames.
    pub fn enqueue_rx(&mut self, from: NodeAddr, frame: Vec<u8>, wire_bytes: usize) -> bool {
        // A refused frame must not leave an empty queue behind.
        let depth = self.gateway_rx.get(&from).map_or(0, VecDeque::len);
        if depth >= self.rx_queue_capacity {
            self.frames_dropped_queue_full += 1;
            self.tracer.count("net.frames_dropped_queue_full", 1);
            return false;
        }
        self.gateway_rx
            .entry(from)
            .or_default()
            .push_back((frame, wire_bytes));
        self.gateway_rx_frames += 1;
        true
    }

    /// Pops the next frame parked for the gateway, with its sender and its
    /// wire size. Per-peer queues drain in sender-address order
    /// (deterministic); a queue that empties is removed.
    pub fn dequeue_rx(&mut self) -> Option<(NodeAddr, Vec<u8>, usize)> {
        let mut queue = self.gateway_rx.first_entry()?;
        let from = *queue.key();
        let parked = queue.get_mut().pop_front();
        if queue.get().is_empty() {
            queue.remove();
        }
        let (frame, wire_bytes) = parked?;
        self.gateway_rx_frames -= 1;
        Some((from, frame, wire_bytes))
    }

    /// Frames currently parked for the gateway (all sending peers
    /// combined).
    pub fn rx_queue_depth(&self) -> usize {
        self.gateway_rx_frames
    }

    /// Sends a message from an attached endpoint up to the gateway,
    /// returning the delivered bytes and the transfer report. All wire
    /// bytes and airtime are attributed to `from`.
    ///
    /// # Errors
    ///
    /// Returns [`MediumError::UnknownEndpoint`] for a detached address and
    /// [`MediumError::Link`] for transfer failures.
    pub fn send_to_gateway(
        &mut self,
        from: NodeAddr,
        message: &[u8],
    ) -> Result<(Vec<u8>, TransferReport), MediumError> {
        self.send(from, message, true)
    }

    /// Sends a message from the gateway down to an attached endpoint. All
    /// wire bytes and airtime are attributed to `to` (the gateway has no
    /// meter of its own; its radio cost is part of serving that endpoint).
    ///
    /// # Errors
    ///
    /// Returns [`MediumError::UnknownEndpoint`] for a detached address and
    /// [`MediumError::Link`] for transfer failures.
    pub fn send_to_endpoint(
        &mut self,
        to: NodeAddr,
        message: &[u8],
    ) -> Result<(Vec<u8>, TransferReport), MediumError> {
        self.send(to, message, false)
    }

    fn send(
        &mut self,
        endpoint_addr: NodeAddr,
        message: &[u8],
        uplink: bool,
    ) -> Result<(Vec<u8>, TransferReport), MediumError> {
        let endpoint = self
            .endpoints
            .get_mut(&endpoint_addr)
            .ok_or(MediumError::UnknownEndpoint(endpoint_addr))?;
        let (delivered, report) = if uplink {
            endpoint.link.transfer(message)?
        } else {
            endpoint.link.transfer_reverse(message)?
        };
        endpoint.stats.absorb(&report, uplink);
        self.total_wire_bytes += report.wire_bytes as u64;
        self.total_messages += 1;
        self.total_airtime += report.tx_time;
        Ok((delivered, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkProfile;

    fn medium_with(sensors: u16) -> (SharedMedium, Vec<NodeAddr>) {
        let gateway = NodeAddr::new(0xFE);
        let mut medium = SharedMedium::new(gateway, LinkConfig::lossless(LinkProfile::Tsch));
        let addrs: Vec<NodeAddr> = (1..=sensors).map(NodeAddr::new).collect();
        for addr in &addrs {
            medium.attach(*addr).unwrap();
        }
        (medium, addrs)
    }

    #[test]
    fn attach_rejects_duplicates_and_the_gateway_address() {
        let (mut medium, addrs) = medium_with(2);
        assert_eq!(
            medium.attach(addrs[0]),
            Err(MediumError::DuplicateEndpoint(addrs[0]))
        );
        assert_eq!(
            medium.attach(medium.gateway()),
            Err(MediumError::AddressIsGateway(NodeAddr::new(0xFE)))
        );
        assert_eq!(medium.endpoints().count(), 2);
    }

    #[test]
    fn detached_endpoints_cannot_talk() {
        let (mut medium, _) = medium_with(1);
        let stranger = NodeAddr::new(0x77);
        assert!(matches!(
            medium.send_to_gateway(stranger, b"hi"),
            Err(MediumError::UnknownEndpoint(_))
        ));
        assert!(matches!(
            medium.send_to_endpoint(stranger, b"hi"),
            Err(MediumError::UnknownEndpoint(_))
        ));
        assert!(matches!(
            medium.stats(stranger),
            Err(MediumError::UnknownEndpoint(_))
        ));
    }

    #[test]
    fn per_endpoint_accounting_sums_to_the_medium_totals() {
        let (mut medium, addrs) = medium_with(4);
        for (round, addr) in addrs.iter().cycle().take(12).enumerate() {
            let message = vec![round as u8; 40 + round * 13];
            medium.send_to_gateway(*addr, &message).unwrap();
            medium.send_to_endpoint(*addr, b"ack").unwrap();
        }
        let mut wire = 0u64;
        let mut messages = 0u64;
        let mut airtime = Duration::ZERO;
        for addr in addrs {
            let stats = medium.stats(addr).unwrap();
            assert_eq!(stats.uplink_messages, 3);
            assert_eq!(stats.downlink_messages, 3);
            wire += stats.wire_bytes();
            messages += stats.messages();
            airtime += stats.airtime;
        }
        assert_eq!(wire, medium.total_wire_bytes());
        assert_eq!(messages, medium.total_messages());
        assert_eq!(airtime, medium.total_airtime());
    }

    #[test]
    fn per_endpoint_loss_processes_are_independent_and_reproducible() {
        let mut lossy = LinkConfig::lossless(LinkProfile::Tsch).with_loss(0.3, 99);
        // Generous retry budget so every transfer delivers even under 30%
        // loss; the test is about the loss *patterns*, not delivery failure.
        lossy.max_retries = 32;
        let gateway = NodeAddr::new(0xFE);
        let run = |sensors: &[u16]| -> Vec<u64> {
            let mut medium = SharedMedium::new(gateway, lossy.clone());
            for s in sensors {
                medium.attach(NodeAddr::new(*s)).unwrap();
            }
            sensors
                .iter()
                .map(|s| {
                    let addr = NodeAddr::new(*s);
                    medium.send_to_gateway(addr, &[7u8; 2000]).unwrap();
                    medium.stats(addr).unwrap().uplink_wire_bytes
                })
                .collect()
        };
        // Same topology twice: byte-identical loss outcomes.
        assert_eq!(run(&[1, 2, 3]), run(&[1, 2, 3]));
        // Adding a sensor does not perturb the existing sensors' processes.
        let small = run(&[1, 2]);
        let large = run(&[1, 2, 9]);
        assert_eq!(small[..2], large[..2]);
        // Different endpoints see different loss outcomes (seeds differ).
        let outcomes = run(&[1, 2, 3, 4, 5, 6]);
        assert!(
            outcomes.windows(2).any(|pair| pair[0] != pair[1]),
            "all six endpoints drew identical loss patterns: {outcomes:?}"
        );
    }

    #[test]
    fn attach_with_loss_overrides_one_endpoint() {
        let gateway = NodeAddr::new(0xFE);
        let mut base = LinkConfig::lossless(LinkProfile::Tsch);
        base.max_retries = 32;
        let mut medium = SharedMedium::new(gateway, base);
        let clear = NodeAddr::new(1);
        let walled = NodeAddr::new(2);
        medium.attach(clear).unwrap();
        // One sensor behind a wall: heavy loss just for it.
        medium.attach_with_loss(walled, 0.5).unwrap();
        for _ in 0..4 {
            medium.send_to_gateway(clear, &[1u8; 1500]).unwrap();
            medium.send_to_gateway(walled, &[2u8; 1500]).unwrap();
        }
        let clear_stats = medium.stats(clear).unwrap();
        let walled_stats = medium.stats(walled).unwrap();
        assert_eq!(clear_stats.retransmissions, 0, "base config is lossless");
        assert!(walled_stats.retransmissions > 0, "override applies");
        assert!(walled_stats.uplink_wire_bytes > clear_stats.uplink_wire_bytes);
        // An invalid override is rejected through the link validation.
        assert!(matches!(
            medium.attach_with_loss(NodeAddr::new(3), f64::NAN),
            Err(MediumError::Link(LinkError::InvalidLossRate { .. }))
        ));
        assert!(
            medium.stats(NodeAddr::new(3)).is_err(),
            "failed attach leaves no endpoint behind"
        );
    }

    #[test]
    fn downlink_uses_the_gateway_as_source() {
        // A downlink transfer must not disturb uplink accounting symmetry:
        // wire bytes go to the endpoint's downlink column.
        let (mut medium, addrs) = medium_with(1);
        let (delivered, report) = medium.send_to_endpoint(addrs[0], b"down").unwrap();
        assert_eq!(delivered, b"down");
        let stats = medium.stats(addrs[0]).unwrap();
        assert_eq!(stats.uplink_wire_bytes, 0);
        assert_eq!(stats.downlink_wire_bytes, report.wire_bytes as u64);
    }

    #[test]
    fn try_new_surfaces_invalid_configuration_as_a_typed_error() {
        let bad = LinkConfig {
            loss_rate: f64::NAN,
            ..LinkConfig::default()
        };
        assert!(matches!(
            SharedMedium::try_new(NodeAddr::new(0xFE), bad),
            Err(MediumError::Link(LinkError::InvalidLossRate { .. }))
        ));
    }

    #[test]
    fn per_endpoint_fault_plans_are_independent() {
        use crate::fault::{FaultConfig, MessageWindow};
        let (mut medium, addrs) = medium_with(2);
        medium
            .set_faults(
                addrs[0],
                FaultConfig {
                    partition: Some(MessageWindow {
                        from_message: 0,
                        to_message: u64::MAX,
                    }),
                    ..FaultConfig::quiet(4)
                },
            )
            .unwrap();
        assert!(matches!(
            medium.send_to_gateway(addrs[0], b"blocked"),
            Err(MediumError::Link(LinkError::Partitioned { .. }))
        ));
        // The partitioned sensor never blocks its neighbours.
        let (delivered, _) = medium.send_to_gateway(addrs[1], b"fine").unwrap();
        assert_eq!(delivered, b"fine");
        medium.clear_faults(addrs[0]).unwrap();
        let (delivered, _) = medium.send_to_gateway(addrs[0], b"healed").unwrap();
        assert_eq!(delivered, b"healed");
        assert!(matches!(
            medium.set_faults(NodeAddr::new(0x99), FaultConfig::quiet(1)),
            Err(MediumError::UnknownEndpoint(_))
        ));
        assert!(matches!(
            medium.clear_faults(NodeAddr::new(0x99)),
            Err(MediumError::UnknownEndpoint(_))
        ));
    }

    #[test]
    fn rx_queues_are_bounded_per_peer_and_count_drops() {
        let (mut medium, addrs) = medium_with(2);
        medium.set_rx_queue_capacity(2);
        // A flooding sensor fills only its own gateway-side queue.
        assert!(medium.enqueue_rx(addrs[0], vec![1], 11));
        assert!(medium.enqueue_rx(addrs[0], vec![2], 12));
        assert!(!medium.enqueue_rx(addrs[0], vec![3], 13));
        assert_eq!(medium.frames_dropped_queue_full(), 1);
        // The neighbour's per-peer queue is untouched by the flood.
        assert!(medium.enqueue_rx(addrs[1], vec![9], 19));
        assert_eq!(medium.rx_queue_depth(), 3);
        // Gateway drains per-peer queues in sender-address order, each
        // frame with its wire size.
        assert_eq!(medium.dequeue_rx(), Some((addrs[0], vec![1], 11)));
        assert_eq!(medium.dequeue_rx(), Some((addrs[0], vec![2], 12)));
        assert_eq!(medium.dequeue_rx(), Some((addrs[1], vec![9], 19)));
        assert_eq!(medium.dequeue_rx(), None);
        assert_eq!(medium.rx_queue_depth(), 0);
        // Tightening the cap sheds parked excess frames, counts them and
        // shrinks the gateway's backlog.
        assert!(medium.enqueue_rx(addrs[1], vec![8], 18));
        assert_eq!(medium.rx_queue_depth(), 1);
        medium.set_rx_queue_capacity(0);
        assert_eq!(medium.rx_queue_depth(), 0);
        assert_eq!(medium.dequeue_rx(), None);
        assert_eq!(medium.frames_dropped_queue_full(), 2);
    }

    /// Queues that empty and refill still drain in sender-address order,
    /// with an exact backlog count at every step.
    #[test]
    fn refilled_rx_queues_drain_in_address_order() {
        let (mut medium, addrs) = medium_with(4);
        let mut parked = 0;
        for round in 0..3u8 {
            // Higher addresses park first; the lowest drains first anyway.
            for addr in addrs.iter().rev().skip(usize::from(round)) {
                assert!(medium.enqueue_rx(*addr, vec![round], 10));
                parked += 1;
                assert_eq!(medium.rx_queue_depth(), parked);
            }
            let mut drained = Vec::new();
            while let Some((from, frame, _)) = medium.dequeue_rx() {
                assert_eq!(frame, vec![round]);
                drained.push(from);
                parked -= 1;
                assert_eq!(medium.rx_queue_depth(), parked);
            }
            assert_eq!(drained, addrs[..addrs.len() - usize::from(round)]);
        }
    }

    /// A frame refused at capacity 0, or shed by a tighter cap, leaves no
    /// empty queue behind at its sender's address to hide a later frame
    /// from a higher one.
    #[test]
    fn refused_or_shed_frames_never_hide_a_higher_peer() {
        let (mut medium, addrs) = medium_with(3);
        medium.set_rx_queue_capacity(0);
        assert!(!medium.enqueue_rx(addrs[0], vec![1], 11));
        medium.set_rx_queue_capacity(2);
        assert!(medium.enqueue_rx(addrs[2], vec![3], 13));
        assert_eq!(medium.dequeue_rx(), Some((addrs[2], vec![3], 13)));

        assert!(medium.enqueue_rx(addrs[0], vec![1], 11));
        medium.set_rx_queue_capacity(0);
        medium.set_rx_queue_capacity(2);
        assert!(medium.enqueue_rx(addrs[1], vec![2], 12));
        assert_eq!(medium.rx_queue_depth(), 1);
        assert_eq!(medium.dequeue_rx(), Some((addrs[1], vec![2], 12)));
        assert_eq!(medium.dequeue_rx(), None);
        assert_eq!(medium.frames_dropped_queue_full(), 2);
    }

    #[test]
    fn error_display() {
        let errors = [
            MediumError::UnknownEndpoint(NodeAddr::new(1)),
            MediumError::DuplicateEndpoint(NodeAddr::new(2)),
            MediumError::AddressIsGateway(NodeAddr::new(3)),
            MediumError::Link(LinkError::InvalidLossRate { loss_rate: 2.0 }),
        ];
        for error in errors {
            assert!(!format!("{error}").is_empty());
        }
    }
}
