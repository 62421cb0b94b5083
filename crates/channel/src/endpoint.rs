//! Sans-IO channel endpoints: one protocol state machine per node.
//!
//! A [`ChannelEndpoint`] is everything one node of the paper's deployment
//! knows: its own [`Device`] (keys, meter, sensors, local contract world),
//! its payment-channel state machines, its side-chain logs, and an outbox
//! of wire [`Message`]s it wants transmitted. It never touches a `Link`, a
//! `SharedMedium`, or a `Blockchain` — the host drives it through a small
//! poll-based surface:
//!
//! * **Local intents** — [`ChannelEndpoint::open`],
//!   [`ChannelEndpoint::pay`], [`ChannelEndpoint::close`].
//! * **Chain observations** — [`ChannelEndpoint::expect_channel`] tells a
//!   receiving endpoint what its chain watcher saw registered on-chain;
//!   proposals from the peer are validated against it.
//! * **Peer input** — [`ChannelEndpoint::handle_message`] (a decoded
//!   [`Message`]) or [`ChannelEndpoint::handle_wire`] (raw bytes, decode
//!   charged to the device). Both return typed [`Effect`]s describing what
//!   the host must act on; peer-controlled data is never trusted and never
//!   panics the endpoint.
//! * **Transmission** — [`ChannelEndpoint::poll_transmit`] pops the next
//!   [`Envelope`]; the transport reports the actual radio cost back through
//!   [`ChannelEndpoint::account_transmitted`] /
//!   [`ChannelEndpoint::account_received`], and idle waits through
//!   [`ChannelEndpoint::wait`].
//!
//! One endpoint can terminate many channels: the gateway of the multi-node
//! scenario is a single receiver-role endpoint multiplexing N sensor peers
//! keyed by [`NodeAddr`]. The sender-role endpoint is shared verbatim
//! between the two-party `ProtocolDriver` and the fleet engine
//! (`tinyevm-sim`'s `FleetScheduler`) — the duplicated sender logic the
//! old monolithic drivers carried lives here once.
//!
//! Endpoints communicate *only* through `Message` values, so two of them
//! can be driven with a plain in-memory queue and no radio at all:
//!
//! ```
//! use tinyevm_channel::endpoint::{ChannelEndpoint, ChannelRegistration};
//! use tinyevm_channel::NodeAddr;
//! use tinyevm_types::{Wei, H256, Address};
//!
//! /// Moves queued messages between the two endpoints until both idle.
//! fn pump(a: &mut ChannelEndpoint, b: &mut ChannelEndpoint) {
//!     loop {
//!         let (from, envelope) = if let Some(e) = a.poll_transmit() {
//!             (a.addr(), e)
//!         } else if let Some(e) = b.poll_transmit() {
//!             (b.addr(), e)
//!         } else {
//!             break;
//!         };
//!         let target = if envelope.to == a.addr() { &mut *a } else { &mut *b };
//!         target.handle_message(from, envelope.message).unwrap();
//!     }
//! }
//!
//! let (car, lot) = (NodeAddr::new(1), NodeAddr::new(2));
//! let mut sender = ChannelEndpoint::two_party_sender("car", car);
//! let mut receiver = ChannelEndpoint::two_party_receiver("lot", lot);
//! let registration = ChannelRegistration {
//!     template: Address::from_low_u64(0xAA),
//!     channel_id: 1,
//!     sender: sender.account(),
//!     receiver: receiver.account(),
//!     deposit_cap: Wei::from(1_000u64),
//!     anchor: H256::ZERO,
//! };
//! receiver.expect_channel(car, registration.clone()).unwrap();
//! sender.open(lot, registration).unwrap();
//! pump(&mut sender, &mut receiver);
//! sender.pay(lot, Wei::from(100u64)).unwrap();
//! pump(&mut sender, &mut receiver);
//! assert_eq!(receiver.channel(car).unwrap().cumulative(), Wei::from(100u64));
//! ```

use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

use tinyevm_analysis::{analyze, AnalysisError, GasCertificate, Verdict};
use tinyevm_chain::{ChannelState, CommitEnvelope};
use tinyevm_crypto::secp256k1::Signature;
use tinyevm_device::{Device, RadioDirection, SimTime};
use tinyevm_net::NodeAddr;
use tinyevm_trace::{TraceEvent, TraceHandle};
use tinyevm_types::{Address, Wei, H256, U256};
use tinyevm_wire::{
    ChannelOpen, ChannelSnapshot, CloseRequest, EndpointRole, Message, PaymentAck, PaymentError,
    SensorReading, SignedPayment, WireError,
};

use crate::channel::{ChannelConfig, ChannelError, ChannelRole, PaymentChannel};
use crate::contracts;
use crate::sidechain::SideChainLog;

/// Errors a [`ChannelEndpoint`] reports. Every rejection of peer input is
/// one of these — endpoints never panic on wire data.
#[derive(Debug)]
#[non_exhaustive]
pub enum EndpointError {
    /// A channel rule was violated (stale sequence, deposit cap, role...).
    Channel(ChannelError),
    /// Peer bytes failed to decode.
    Wire(WireError),
    /// The device could not run the channel contract.
    Device(String),
    /// A message arrived from an address with no channel or expectation.
    UnknownPeer(NodeAddr),
    /// A locally driven step happened out of order.
    OutOfOrder(&'static str),
    /// A signature did not verify against the configured counterparty.
    BadSignature,
    /// A structurally valid message arrived in a state that cannot use it.
    UnexpectedMessage {
        /// What the current protocol state could have used.
        expected: &'static str,
        /// What actually arrived.
        got: &'static str,
    },
    /// The peer's proposal contradicts what the chain registered.
    ProposalMismatch(&'static str),
    /// The static analyzer refused a contract template before the device
    /// spent any constructor cycles on it.
    ContractRejected(AnalysisError),
    /// The contract template's statically proven worst-case CPU energy
    /// exceeds this endpoint's deploy budget — or no bound could be proven
    /// at all (only on endpoints built with
    /// [`ChannelEndpoint::with_deploy_energy_budget_mj`]).
    EnergyBudgetExceeded {
        /// The proven worst-case CPU energy in millijoules, when the
        /// analyzer produced a bound; `None` when the cost is unbounded or
        /// uncertifiable.
        required_mj: Option<f64>,
        /// The endpoint's configured budget in millijoules.
        budget_mj: f64,
    },
    /// The retransmission budget for the in-flight protocol round ran out;
    /// the round was abandoned and the endpoint returned to idle. Committed
    /// channel state (accepted payments, the side-chain log, collected
    /// signatures) is untouched, and the next completed round folds the
    /// abandoned round's cumulative value back in.
    RoundAborted {
        /// Peer whose round was abandoned.
        peer: NodeAddr,
        /// Transmission attempts that were made (first send included).
        attempts: u32,
    },
}

impl core::fmt::Display for EndpointError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EndpointError::Channel(error) => write!(f, "channel error: {error}"),
            EndpointError::Wire(error) => write!(f, "wire format error: {error}"),
            EndpointError::Device(message) => write!(f, "device error: {message}"),
            EndpointError::UnknownPeer(addr) => write!(f, "no channel with peer {addr}"),
            EndpointError::OutOfOrder(step) => write!(f, "endpoint step out of order: {step}"),
            EndpointError::BadSignature => write!(f, "signature verification failed"),
            EndpointError::UnexpectedMessage { expected, got } => {
                write!(f, "expected a {expected} message, got {got}")
            }
            EndpointError::ProposalMismatch(what) => {
                write!(f, "peer proposal contradicts the chain: {what}")
            }
            EndpointError::ContractRejected(error) => {
                write!(f, "static analysis rejected the contract template: {error}")
            }
            EndpointError::EnergyBudgetExceeded {
                required_mj,
                budget_mj,
            } => match required_mj {
                Some(required) => write!(
                    f,
                    "contract needs up to {required:.3} mJ of CPU energy, budget is {budget_mj:.3} mJ"
                ),
                None => write!(
                    f,
                    "contract has no provable worst-case energy bound (budget is {budget_mj:.3} mJ)"
                ),
            },
            EndpointError::RoundAborted { peer, attempts } => {
                write!(
                    f,
                    "round with {peer} aborted after {attempts} transmission attempts"
                )
            }
        }
    }
}

impl std::error::Error for EndpointError {}

impl EndpointError {
    /// True for the errors a transport drops as line noise when it hands a
    /// peer's frame to [`ChannelEndpoint::handle_wire`]. Committed state is
    /// untouched, and the live round, if any, converges through the
    /// sender's stall-retransmit or aborts through its retry budget:
    ///
    /// * [`EndpointError::Wire`] — corruption that survived framing: the
    ///   bytes reassembled but do not decode.
    /// * a [`PaymentError::StaleSequence`] payment — a replayed (or
    ///   crash-recovery-retransmitted) payment the channel already holds;
    ///   committed state is monotone.
    /// * [`EndpointError::BadSignature`] — bit flips that survive framing
    ///   *and* RLP can only land in free-form byte strings (signatures and
    ///   public keys), so the message decodes but fails verification.
    ///   Deliberate tampering looks identical on the wire, is equally
    ///   refused, and still surfaces as `BadSignature` when the endpoint is
    ///   driven directly.
    /// * [`EndpointError::UnexpectedMessage`] and
    ///   [`EndpointError::OutOfOrder`] — an out-of-phase message: a peer
    ///   that power-cycled mid round (its RAM dedup state is gone) or an
    ///   aborted round's straggler retransmits something this endpoint is
    ///   not waiting for, such as a re-sent acknowledgement for a payment
    ///   the rebooted sender already holds in flash. `OutOfOrder` from a
    ///   local intent (paying while a round is in flight) is raised before
    ///   any frame is handled and still propagates.
    pub fn is_droppable(&self) -> bool {
        matches!(
            self,
            EndpointError::Wire(_)
                | EndpointError::Channel(ChannelError::Payment(PaymentError::StaleSequence { .. }))
                | EndpointError::BadSignature
                | EndpointError::UnexpectedMessage { .. }
                | EndpointError::OutOfOrder(_)
        )
    }
}

impl From<ChannelError> for EndpointError {
    fn from(error: ChannelError) -> Self {
        EndpointError::Channel(error)
    }
}

impl From<WireError> for EndpointError {
    fn from(error: WireError) -> Self {
        EndpointError::Wire(error)
    }
}

/// What a node's chain watcher observed registered on-chain for a channel —
/// the typed chain observation an endpoint consumes instead of reading a
/// `Blockchain` itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelRegistration {
    /// On-chain template address.
    pub template: Address,
    /// Channel id issued by the template's logical clock.
    pub channel_id: u64,
    /// The paying party's account.
    pub sender: Address,
    /// The receiving party's account.
    pub receiver: Address,
    /// Deposit cap bounding the channel's cumulative payments.
    pub deposit_cap: Wei,
    /// The template's side-chain root, anchoring both parties' logs.
    pub anchor: H256,
}

/// An outbound message and its destination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Link-layer address of the peer this message is for.
    pub to: NodeAddr,
    /// The message itself.
    pub message: Message,
}

/// A completed payment round, as measured on the paying endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PaymentReceipt {
    /// Sequence number of the acknowledged payment.
    pub sequence: u64,
    /// Cumulative amount owed to the receiver afterwards.
    pub cumulative: Wei,
    /// Wall-clock from the pay intent until the acknowledgement was
    /// verified and registered (device clock).
    pub end_to_end_latency: Duration,
    /// Time spent signing the payment.
    pub sign_time: Duration,
    /// Time spent registering the payment on the local side-chain.
    pub register_time: Duration,
    /// Time this endpoint's own hardware was active for the round (crypto +
    /// contract + its share of the radio), excluding waits for the peer.
    pub active_time: Duration,
}

/// Things the host must know about or act on, returned by every input.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum Effect {
    /// A channel with `peer` is open and ready for payments.
    ChannelOpened {
        /// The peer on the other end of the channel.
        peer: NodeAddr,
        /// The channel id.
        channel_id: u64,
        /// Time the local channel-contract constructor took.
        create_time: Duration,
    },
    /// (Receiver) A payment was verified, applied and acknowledged.
    PaymentAccepted {
        /// The paying peer.
        peer: NodeAddr,
        /// Sequence number of the accepted payment.
        sequence: u64,
        /// Cumulative amount now owed by that peer.
        cumulative: Wei,
        /// Local processing time (verify + register + sign the ack) — the
        /// interval the payer's radio had nothing to listen to.
        processing: Duration,
    },
    /// (Sender) The acknowledgement arrived and verified; the round is
    /// complete.
    PaymentCompleted {
        /// The receiving peer.
        peer: NodeAddr,
        /// The round's measurements.
        receipt: PaymentReceipt,
    },
    /// (Receiver) A close request was validated against the local channel
    /// view and staged for batch signature verification.
    CloseStaged {
        /// The closing peer.
        peer: NodeAddr,
        /// Close requests staged so far.
        staged: usize,
    },
    /// (Receiver) A dual-signed final state is ready to go on-chain; the
    /// host owns the chain interaction.
    CommitReady {
        /// The closing peer.
        peer: NodeAddr,
        /// The envelope to commit.
        envelope: CommitEnvelope,
    },
}

/// Idle gap inserted between protocol steps (TSCH slot waiting /
/// application pacing), spent in LPM2.
pub const IDLE_GAP: Duration = Duration::from_millis(120);

/// Which of the paper's two deployments an endpoint runs in. Either way a
/// sender reads the temperature sensor and a receiver the occupancy sensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndpointProfile {
    /// The two-party smart-parking session: the sender exchanges readings
    /// during the open handshake and waits for the peer's reading before
    /// each payment, folding it into the payment's sensor hash; the
    /// receiver answers every reading with one of its own and idles for
    /// [`IDLE_GAP`] after acknowledging a payment.
    TwoParty,
    /// The fleet (N sensors, one gateway): only the sensor's reading goes
    /// uplink, and pacing is left to the sensor.
    Fleet,
}

/// What kind of message the last [`ChannelEndpoint::poll_transmit`] handed
/// to the transport — some completions trigger pacing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OutKind {
    Reading,
    OpenReply,
    Proposal,
    Payment,
    Ack,
    CloseRequest,
}

#[derive(Debug, Clone)]
struct Outgoing {
    to: NodeAddr,
    message: Message,
    kind: OutKind,
}

/// Retransmission policy for in-flight protocol rounds: how often the last
/// transmitted message is re-sent (with capped exponential backoff on the
/// virtual clock) before the round is abandoned with
/// [`EndpointError::RoundAborted`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total transmission attempts per message, the first send included.
    pub max_attempts: u32,
    /// Backoff before the first retransmission; doubles per attempt.
    pub base_backoff: Duration,
    /// Ceiling for the doubled backoff.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_millis(800),
        }
    }
}

/// The last envelope handed to the transport, kept for retransmission.
#[derive(Debug)]
struct RetrySlot {
    outgoing: Outgoing,
    attempts: u32,
    /// Set while a retransmitted copy sits at the front of the outbox, so
    /// the next `poll_transmit` keeps the attempt count instead of starting
    /// a fresh slot.
    requeued: bool,
    /// Virtual-clock deadline of the current backoff window: the requeued
    /// copy must not be retransmitted before this point. `None` until the
    /// first transport error or stall arms a backoff.
    deadline: Option<SimTime>,
}

/// Sender-side position inside one channel's protocol round.
#[derive(Debug)]
enum Pending {
    Idle,
    /// Open handshake: own reading sent, peer's reading outstanding.
    OpenAwaitingReading,
    /// Payment round: peer's reading outstanding before signing.
    AwaitingPeerReading {
        amount: Wei,
        own_value: U256,
        started_at: Duration,
    },
    /// Payment signed and transmitted; acknowledgement outstanding.
    AwaitingAck {
        payment: SignedPayment,
        payment_wire_len: usize,
        sign_time: Duration,
        started_at: Duration,
        /// Device clock when the signed payment left for the outbox (the
        /// boundary between the round's payment and acknowledgement phases).
        signed_at: Duration,
    },
}

/// A close request validated against the local channel view, parked until
/// the host asks for the batched signature check.
#[derive(Debug)]
struct StagedClose {
    state: ChannelState,
    public_key: tinyevm_crypto::secp256k1::PublicKey,
    signature: Signature,
}

/// Everything this endpoint knows about one channel peer.
#[derive(Debug)]
struct PeerSession {
    registration: ChannelRegistration,
    channel: PaymentChannel,
    contract: Option<Address>,
    log: SideChainLog,
    peer_acks: Vec<Signature>,
    latencies: Vec<Duration>,
    pending: Pending,
    staged_close: Option<StagedClose>,
    /// The bytes of the last successfully handled wire message from this
    /// peer, in a buffer reused from message to message — duplicated or
    /// replayed copies are suppressed idempotently. Empty when there is
    /// none: no empty frame decodes.
    last_inbound: Vec<u8>,
    /// The messages queued while handling that last inbound message; a
    /// suppressed duplicate re-queues these verbatim (no re-signing).
    last_reply: Vec<Outgoing>,
}

/// One node's half of the off-chain protocol — see the module docs.
#[derive(Debug)]
pub struct ChannelEndpoint {
    device: Device,
    addr: NodeAddr,
    role: ChannelRole,
    profile: EndpointProfile,
    /// Boxed, so a one-peer endpoint's B-tree leaf holds eleven pointers
    /// rather than room for eleven ~1 KB sessions.
    sessions: BTreeMap<NodeAddr, Box<PeerSession>>,
    expected: BTreeMap<NodeAddr, ChannelRegistration>,
    outbox: VecDeque<Outgoing>,
    in_flight: Option<OutKind>,
    retry: RetryPolicy,
    last_sent: Option<RetrySlot>,
    tracer: TraceHandle,
    /// When set, contract templates must carry a static worst-case CPU
    /// energy proof within this many millijoules to be deployed.
    energy_budget_mj: Option<f64>,
}

impl ChannelEndpoint {
    /// Builds an endpoint from explicit parts.
    pub fn new(
        device: Device,
        addr: NodeAddr,
        role: ChannelRole,
        profile: EndpointProfile,
    ) -> Self {
        ChannelEndpoint {
            device,
            addr,
            role,
            profile,
            sessions: BTreeMap::new(),
            expected: BTreeMap::new(),
            outbox: VecDeque::new(),
            in_flight: None,
            retry: RetryPolicy::default(),
            last_sent: None,
            tracer: TraceHandle::default(),
            energy_budget_mj: None,
        }
    }

    /// Builder: refuse to deploy any contract template without a static
    /// worst-case CPU energy proof of at most `budget_mj` millijoules.
    ///
    /// The bound is derived from the analyzer's
    /// [`GasCertificate::Bounded`] MCU-cycle bound via the device's clock
    /// and active-CPU current at the meter's supply voltage — a battery
    /// admission gate: a sensor node can refuse code it cannot afford to
    /// run even once in the worst case.
    #[must_use]
    pub fn with_deploy_energy_budget_mj(mut self, budget_mj: f64) -> Self {
        self.energy_budget_mj = Some(budget_mj);
        self
    }

    /// Routes this endpoint's trace output — round phases, per-round
    /// latencies, per-peer balance gauges — plus the device's power and
    /// contract events through `tracer`.
    pub fn set_tracer(&mut self, tracer: TraceHandle) {
        self.device.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// Builder form of [`ChannelEndpoint::set_tracer`].
    #[must_use]
    pub fn with_tracer(mut self, tracer: TraceHandle) -> Self {
        self.set_tracer(tracer);
        self
    }

    /// An OpenMote-B class paying endpoint with the two-party profile.
    pub fn two_party_sender(name: &str, addr: NodeAddr) -> Self {
        Self::new(
            Device::openmote_b(name),
            addr,
            ChannelRole::Sender,
            EndpointProfile::TwoParty,
        )
    }

    /// An OpenMote-B class receiving endpoint with the two-party profile.
    pub fn two_party_receiver(name: &str, addr: NodeAddr) -> Self {
        Self::new(
            Device::openmote_b(name),
            addr,
            ChannelRole::Receiver,
            EndpointProfile::TwoParty,
        )
    }

    /// An OpenMote-B class fleet sensor (sender role, fleet profile).
    pub fn fleet_sensor(name: &str, addr: NodeAddr) -> Self {
        Self::new(
            Device::openmote_b(name),
            addr,
            ChannelRole::Sender,
            EndpointProfile::Fleet,
        )
    }

    /// An OpenMote-B class gateway (receiver role, fleet profile), ready to
    /// multiplex any number of sensor peers.
    pub fn gateway(name: &str, addr: NodeAddr) -> Self {
        Self::new(
            Device::openmote_b(name),
            addr,
            ChannelRole::Receiver,
            EndpointProfile::Fleet,
        )
    }

    // --- accessors -------------------------------------------------------

    /// The node's simulated device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Mutable access to the device (sensor registry, meter resets).
    pub fn device_mut(&mut self) -> &mut Device {
        &mut self.device
    }

    /// This node's link-layer address.
    pub fn addr(&self) -> NodeAddr {
        self.addr
    }

    /// This node's payment identity.
    pub fn account(&self) -> Address {
        self.device.address()
    }

    /// This endpoint's channel role.
    pub fn role(&self) -> ChannelRole {
        self.role
    }

    /// Adjusts the retransmission policy.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// Peers this endpoint has a channel with, in address order.
    pub fn peers(&self) -> impl Iterator<Item = NodeAddr> + '_ {
        self.sessions.keys().copied()
    }

    /// The channel state machine for one peer.
    pub fn channel(&self, peer: NodeAddr) -> Option<&PaymentChannel> {
        self.sessions.get(&peer).map(|s| &s.channel)
    }

    /// The side-chain log for one peer's channel.
    pub fn side_chain(&self, peer: NodeAddr) -> Option<&SideChainLog> {
        self.sessions.get(&peer).map(|s| &s.log)
    }

    /// Address of the locally deployed channel contract for one peer.
    pub fn contract(&self, peer: NodeAddr) -> Option<Address> {
        self.sessions.get(&peer).and_then(|s| s.contract)
    }

    /// Acknowledgement signatures collected from one peer.
    pub fn peer_acks(&self, peer: NodeAddr) -> Option<&[Signature]> {
        self.sessions.get(&peer).map(|s| s.peer_acks.as_slice())
    }

    /// End-to-end latencies of completed payment rounds with one peer.
    pub fn latencies(&self, peer: NodeAddr) -> Option<&[Duration]> {
        self.sessions.get(&peer).map(|s| s.latencies.as_slice())
    }

    /// The chain registration backing one peer's channel.
    pub fn registration(&self, peer: NodeAddr) -> Option<&ChannelRegistration> {
        self.sessions.get(&peer).map(|s| &s.registration)
    }

    // --- chain observations ----------------------------------------------

    /// (Receiver) Records that the chain registered a channel whose
    /// counterparty will propose from `peer`; the proposal is validated
    /// against this observation when it arrives.
    ///
    /// # Errors
    ///
    /// Returns [`EndpointError::OutOfOrder`] on a sender-role endpoint or
    /// when a channel with `peer` already exists.
    pub fn expect_channel(
        &mut self,
        peer: NodeAddr,
        registration: ChannelRegistration,
    ) -> Result<(), EndpointError> {
        if self.role != ChannelRole::Receiver {
            return Err(EndpointError::OutOfOrder(
                "only a receiver expects proposals",
            ));
        }
        if self.sessions.contains_key(&peer) {
            return Err(EndpointError::OutOfOrder("channel is already open"));
        }
        self.expected.insert(peer, registration);
        Ok(())
    }

    // --- local intents ---------------------------------------------------

    /// (Sender) Opens the channel the chain registered: instantiates the
    /// local state machine, runs the handshake-reading exchange when the
    /// profile asks for one, and proposes the channel to the peer.
    ///
    /// # Errors
    ///
    /// Returns [`EndpointError::OutOfOrder`] on a receiver-role endpoint or
    /// when a channel with `peer` already exists.
    pub fn open(
        &mut self,
        peer: NodeAddr,
        registration: ChannelRegistration,
    ) -> Result<Vec<Effect>, EndpointError> {
        if self.role != ChannelRole::Sender {
            return Err(EndpointError::OutOfOrder("only a sender opens channels"));
        }
        if self.sessions.contains_key(&peer) {
            return Err(EndpointError::OutOfOrder("channel is already open"));
        }
        let config = ChannelConfig {
            template: registration.template,
            channel_id: registration.channel_id,
            sender: registration.sender,
            receiver: registration.receiver,
            deposit_cap: registration.deposit_cap,
        };
        let log = SideChainLog::new(registration.anchor);
        self.sessions.insert(
            peer,
            Box::new(PeerSession {
                registration,
                channel: PaymentChannel::new(config, ChannelRole::Sender),
                contract: None,
                log,
                peer_acks: Vec::new(),
                latencies: Vec::new(),
                pending: Pending::Idle,
                staged_close: None,
                last_inbound: Vec::new(),
                last_reply: Vec::new(),
            }),
        );
        if self.two_party() {
            self.queue_own_reading(peer, OutKind::Reading);
            self.session_mut(peer)?.pending = Pending::OpenAwaitingReading;
            Ok(Vec::new())
        } else {
            self.finish_open(peer)
        }
    }

    /// (Sender) Starts one payment round of `amount` towards `peer`.
    ///
    /// # Errors
    ///
    /// Returns [`EndpointError::OutOfOrder`] before the channel is open or
    /// while another round is in flight, and channel errors for amounts the
    /// deposit cap cannot cover (fleet profile, which signs immediately).
    pub fn pay(&mut self, peer: NodeAddr, amount: Wei) -> Result<Vec<Effect>, EndpointError> {
        if self.role != ChannelRole::Sender {
            return Err(EndpointError::OutOfOrder("only a sender creates payments"));
        }
        if !self.sessions.contains_key(&peer) {
            return Err(EndpointError::OutOfOrder("open the channel first"));
        }
        if !matches!(self.session_mut(peer)?.pending, Pending::Idle) {
            return Err(EndpointError::OutOfOrder(
                "a protocol round is already in flight",
            ));
        }
        let started_at = self.device.now();
        let own_value = self.read_own_sensor();
        self.queue_reading_value(peer, own_value, OutKind::Reading);
        if self.two_party() {
            self.session_mut(peer)?.pending = Pending::AwaitingPeerReading {
                amount,
                own_value,
                started_at,
            };
            Ok(Vec::new())
        } else {
            let sensor_hash = tinyevm_crypto::keccak256_h256(&own_value.to_be_bytes());
            self.sign_and_queue_payment(peer, amount, sensor_hash, started_at)?;
            Ok(Vec::new())
        }
    }

    /// (Sender) Closes the channel with `peer`: produces the final state,
    /// signs it, and queues the close request for the peer to counter-sign.
    ///
    /// # Errors
    ///
    /// Returns [`EndpointError::OutOfOrder`] before the channel is open or
    /// mid-round.
    pub fn close(&mut self, peer: NodeAddr) -> Result<Vec<Effect>, EndpointError> {
        if self.role != ChannelRole::Sender {
            return Err(EndpointError::OutOfOrder(
                "the receiver counter-signs closes, it does not initiate them",
            ));
        }
        if !self.sessions.contains_key(&peer) {
            return Err(EndpointError::OutOfOrder("open the channel first"));
        }
        if !matches!(self.session_mut(peer)?.pending, Pending::Idle) {
            return Err(EndpointError::OutOfOrder(
                "a protocol round is still in flight",
            ));
        }
        let close_started = self.device.now();
        let state = self.session_mut(peer)?.channel.close();
        let (signature, _) = self.device.sign_payload(&state.encode());
        let close_time = self.device.now().saturating_sub(close_started);
        let node = self.device.name().to_string();
        self.tracer.event(|| TraceEvent::Phase {
            node,
            peer: peer.to_string(),
            phase: "close".to_string(),
            sequence: state.sequence,
            duration_us: close_time.as_micros() as u64,
        });
        let public_key = self.device.public_key();
        self.outbox.push_back(Outgoing {
            to: peer,
            message: Message::CloseRequest(CloseRequest {
                state,
                public_key,
                signature,
            }),
            kind: OutKind::CloseRequest,
        });
        Ok(Vec::new())
    }

    /// (Receiver) Verifies every staged close request's signature in one
    /// batched multi-scalar pass, closes each channel, and counter-signs
    /// each state, yielding one [`Effect::CommitReady`] per channel in
    /// peer-address order.
    ///
    /// Channels stay open until their close signature actually verifies
    /// here — staging is a cheap structural check, not an acceptance.
    ///
    /// # Errors
    ///
    /// Returns [`EndpointError::OutOfOrder`] when nothing is staged and
    /// [`EndpointError::BadSignature`] when any staged signature fails the
    /// batch check. In the failure case the forged requests are discarded
    /// (those senders must re-close) while every validly signed request
    /// stays staged, so a retry settles the honest channels — one forged
    /// signature cannot block the fleet.
    pub fn finalize_closes(&mut self) -> Result<Vec<Effect>, EndpointError> {
        let staged: Vec<(NodeAddr, StagedClose)> = self
            .sessions
            .iter_mut()
            .filter_map(|(addr, session)| session.staged_close.take().map(|s| (*addr, s)))
            .collect();
        if staged.is_empty() {
            return Err(EndpointError::OutOfOrder("no close requests are staged"));
        }
        let encodings: Vec<Vec<u8>> = staged.iter().map(|(_, s)| s.state.encode()).collect();
        let items: Vec<(&[u8], Signature, tinyevm_crypto::secp256k1::PublicKey)> = staged
            .iter()
            .zip(&encodings)
            .map(|((_, s), encoded)| (encoded.as_slice(), s.signature, s.public_key))
            .collect();
        if !self.device.verify_payload_batch(&items) {
            // Fall back per signature (the batch only says *some* item is
            // forged): keep the honest closes staged for a retry, drop the
            // forged ones. The per-item check is diagnostic; the device
            // already paid the per-signature verify time in the batch.
            for ((peer, close), encoded) in staged.into_iter().zip(encodings) {
                let digest = tinyevm_crypto::keccak256(&encoded);
                if close.public_key.verify_prehashed(&digest, &close.signature) {
                    if let Some(session) = self.sessions.get_mut(&peer) {
                        session.staged_close = Some(close);
                    }
                }
            }
            return Err(EndpointError::BadSignature);
        }
        let mut effects = Vec::with_capacity(staged.len());
        for ((peer, close), encoded) in staged.into_iter().zip(encodings) {
            self.session_mut(peer)?.channel.close();
            let (own_signature, _) = self.device.sign_payload(&encoded);
            effects.push(Effect::CommitReady {
                peer,
                envelope: PaymentChannel::envelope(close.state, close.signature, own_signature),
            });
        }
        Ok(effects)
    }

    // --- IO surface ------------------------------------------------------

    /// Pops the next outbound envelope, charging the encode cost to the
    /// device. The transport should report the transfer's radio cost back
    /// through [`ChannelEndpoint::account_transmitted`].
    pub fn poll_transmit(&mut self) -> Option<Envelope> {
        let outgoing = self.outbox.pop_front()?;
        self.device.account_codec(outgoing.message.wire_size());
        self.in_flight = Some(outgoing.kind);
        match self.last_sent.as_mut() {
            // A retransmitted copy keeps its attempt count.
            Some(slot) if slot.requeued => slot.requeued = false,
            _ => {
                self.last_sent = Some(RetrySlot {
                    outgoing: outgoing.clone(),
                    attempts: 1,
                    requeued: false,
                    deadline: None,
                });
            }
        }
        Some(Envelope {
            to: outgoing.to,
            message: outgoing.message,
        })
    }

    /// True while the outbox holds an envelope for
    /// [`ChannelEndpoint::poll_transmit`] to hand out. Reading it charges
    /// nothing.
    pub fn has_queued_output(&self) -> bool {
        !self.outbox.is_empty()
    }

    /// Reports that the transport failed to move the last polled envelope
    /// (retry budget exhausted, partition). The endpoint backs off on the
    /// virtual clock and re-queues the same bytes, or — once
    /// [`RetryPolicy::max_attempts`] is spent — abandons the round.
    ///
    /// # Errors
    ///
    /// Returns [`EndpointError::RoundAborted`] when the retry budget is
    /// exhausted (the round's state is rolled back to idle; committed
    /// channel state is untouched) and [`EndpointError::OutOfOrder`] when
    /// nothing was ever transmitted.
    pub fn on_transport_error(&mut self) -> Result<(), EndpointError> {
        self.retry_last()
    }

    /// Reports that the host's pump drained every outbox while this
    /// endpoint still has a protocol round in flight (a reply was lost or
    /// replaced in transit). Same backoff-and-retransmit behaviour as
    /// [`ChannelEndpoint::on_transport_error`].
    ///
    /// # Errors
    ///
    /// Same as [`ChannelEndpoint::on_transport_error`].
    pub fn on_round_stalled(&mut self) -> Result<(), EndpointError> {
        self.retry_last()
    }

    /// The peer of the first session with a protocol round still in
    /// flight, if any — what a pump checks after its queues drain to
    /// distinguish "done" from "stalled".
    pub fn stalled_round(&self) -> Option<NodeAddr> {
        self.sessions
            .iter()
            .find(|(_, session)| !matches!(session.pending, Pending::Idle))
            .map(|(addr, _)| *addr)
    }

    fn retry_last(&mut self) -> Result<(), EndpointError> {
        let Some(slot) = self.last_sent.as_mut() else {
            return Err(EndpointError::OutOfOrder("nothing to retransmit"));
        };
        let peer = slot.outgoing.to;
        if slot.attempts >= self.retry.max_attempts {
            let attempts = slot.attempts;
            self.last_sent = None;
            self.abort_round(peer);
            return Err(EndpointError::RoundAborted { peer, attempts });
        }
        slot.attempts += 1;
        // Capped exponential backoff: base, 2*base, 4*base, ... expressed
        // as an absolute virtual-clock deadline (now + backoff) so lockstep
        // pumps and event schedulers share one timeout semantics.
        let exponent = slot.attempts.saturating_sub(2).min(16);
        let backoff = self
            .retry
            .base_backoff
            .saturating_mul(1u32 << exponent)
            .min(self.retry.max_backoff);
        let deadline = self.device.sim_now() + backoff;
        slot.deadline = Some(deadline);
        slot.requeued = true;
        let outgoing = slot.outgoing.clone();
        self.outbox.push_front(outgoing);
        self.tracer.count("channel.endpoint_retransmissions", 1);
        // Spend the backoff window on the device clock (LPM2, like any
        // other protocol wait): the clock lands exactly on the deadline,
        // so `sim_now() >= retry_deadline()` holds the moment the
        // retransmitted copy becomes eligible.
        self.device
            .sleep(deadline.saturating_duration_since(self.device.sim_now()));
        Ok(())
    }

    /// The virtual-clock deadline of the in-flight backoff window, if a
    /// retransmission is armed: the requeued copy must not leave before
    /// this point. Event-driven schedulers use this to park the endpoint
    /// until the deadline instead of counting pump iterations; after
    /// [`ChannelEndpoint::on_transport_error`] /
    /// [`ChannelEndpoint::on_round_stalled`] return, the device clock has
    /// already been slept onto the deadline.
    pub fn retry_deadline(&self) -> Option<SimTime> {
        self.last_sent.as_ref().and_then(|slot| slot.deadline)
    }

    /// Abandons the in-flight round with `peer`: pending state returns to
    /// idle and queued messages for that peer are dropped. Committed
    /// channel state (accepted payments, logs, signatures) is untouched;
    /// the next completed round re-synchronises the channel, because
    /// cumulative payments fold an abandoned round's value into the next
    /// one.
    fn abort_round(&mut self, peer: NodeAddr) {
        if let Some(session) = self.sessions.get_mut(&peer) {
            session.pending = Pending::Idle;
        }
        self.outbox.retain(|outgoing| outgoing.to != peer);
        self.in_flight = None;
        let node = self.device.name().to_string();
        self.tracer.event(|| TraceEvent::Phase {
            node,
            peer: peer.to_string(),
            phase: "abort".to_string(),
            sequence: 0,
            duration_us: 0,
        });
        self.tracer.count("channel.rounds_aborted", 1);
    }

    /// Drops everything a real device keeps in RAM — the outbox, the
    /// retransmission slot, per-round pending state, duplicate-suppression
    /// digests and staged closes — modelling a power cycle. Committed
    /// channel state survives only through snapshots
    /// ([`ChannelEndpoint::snapshot`] /
    /// [`ChannelEndpoint::install_snapshot`], the "flash" of the device).
    pub fn clear_volatile(&mut self) {
        self.outbox.clear();
        self.in_flight = None;
        self.last_sent = None;
        for session in self.sessions.values_mut() {
            session.pending = Pending::Idle;
            session.last_inbound.clear();
            session.last_reply.clear();
            session.staged_close = None;
        }
    }

    /// Reports that the radio finished moving the last polled envelope
    /// (`wire_bytes` on the air, headers and retransmissions included):
    /// charges TX energy and applies any step pacing the profile calls for.
    pub fn account_transmitted(&mut self, wire_bytes: usize) {
        self.device
            .account_radio(RadioDirection::Transmit, wire_bytes);
        match self.in_flight.take() {
            Some(OutKind::OpenReply) => self.device.sleep(IDLE_GAP),
            Some(OutKind::Ack) if self.two_party() => self.device.sleep(IDLE_GAP),
            _ => {}
        }
    }

    /// Charges RX energy for an inbound transfer of `wire_bytes`.
    pub fn account_received(&mut self, wire_bytes: usize) {
        self.device
            .account_radio(RadioDirection::Receive, wire_bytes);
    }

    /// Spends `duration` idling in LPM2 (waiting for the peer's crypto, a
    /// TSCH slot, application pacing).
    pub fn wait(&mut self, duration: Duration) {
        self.device.sleep(duration);
    }

    /// Decodes raw peer bytes (decode CPU charged to the device) and
    /// handles the message.
    ///
    /// Byte-identical duplicates of the last successfully handled message
    /// from `from` (link-level replays, peer retransmissions after a lost
    /// reply) are handled idempotently: the stored reply is re-queued
    /// verbatim — no signature is created twice, no channel state moves —
    /// and no effects are returned.
    ///
    /// # Errors
    ///
    /// Returns [`EndpointError::Wire`] for undecodable bytes, then
    /// everything [`ChannelEndpoint::handle_message`] reports.
    pub fn handle_wire(
        &mut self,
        from: NodeAddr,
        bytes: &[u8],
    ) -> Result<Vec<Effect>, EndpointError> {
        self.device.account_codec(bytes.len());
        if let Some(session) = self.sessions.get_mut(&from) {
            if !bytes.is_empty() && session.last_inbound == bytes {
                self.outbox.extend(session.last_reply.iter().cloned());
                self.tracer.count("channel.duplicate_messages", 1);
                return Ok(Vec::new());
            }
        }
        let message = Message::from_wire(bytes)?;
        let queued_before = self.outbox.len();
        let effects = self.handle_message(from, message)?;
        if let Some(session) = self.sessions.get_mut(&from) {
            session.last_inbound.clear();
            session.last_inbound.extend_from_slice(bytes);
            // The replies stay queued for transmission; this copy is what a
            // duplicate of the frame re-queues.
            session.last_reply.clear();
            session
                .last_reply
                .extend(self.outbox.iter().skip(queued_before).cloned());
        }
        Ok(effects)
    }

    /// Feeds one decoded peer message into the state machine.
    ///
    /// Everything in `message` is treated as adversarial: signatures are
    /// verified against the channel's configured counterparty, protocol
    /// steps must arrive in order, and a rejected message leaves the
    /// endpoint's committed state (channel, log, collected signatures)
    /// untouched.
    ///
    /// # Errors
    ///
    /// A typed [`EndpointError`] naming the first check that failed.
    pub fn handle_message(
        &mut self,
        from: NodeAddr,
        message: Message,
    ) -> Result<Vec<Effect>, EndpointError> {
        // Only the ack handler needs the envelope's encoded size (for the
        // sender's airtime split); don't re-encode every other message.
        let wire_len = match &message {
            Message::PaymentAck(_) => message.wire_size(),
            _ => 0,
        };
        match message {
            Message::SensorReading(reading) => self.on_reading(from, reading),
            Message::ChannelOpen(proposal) => self.on_proposal(from, proposal),
            Message::Payment(payment) => self.on_payment(from, payment),
            Message::PaymentAck(ack) => self.on_ack(from, ack, wire_len),
            Message::CloseRequest(request) => self.on_close_request(from, request),
            other => Err(EndpointError::UnexpectedMessage {
                expected: "protocol message",
                got: other.label(),
            }),
        }
    }

    // --- message handlers ------------------------------------------------

    fn on_reading(
        &mut self,
        from: NodeAddr,
        reading: SensorReading,
    ) -> Result<Vec<Effect>, EndpointError> {
        match self.role {
            ChannelRole::Receiver => {
                if !self.sessions.contains_key(&from) && !self.expected.contains_key(&from) {
                    return Err(EndpointError::UnknownPeer(from));
                }
                if self.two_party() {
                    let value = self.read_own_sensor();
                    let kind = if self.sessions.contains_key(&from) {
                        OutKind::Reading
                    } else {
                        // Still opening: the reply's completion paces the
                        // handshake.
                        OutKind::OpenReply
                    };
                    self.queue_reading_value(from, value, kind);
                }
                Ok(Vec::new())
            }
            ChannelRole::Sender => {
                if !self.sessions.contains_key(&from) {
                    return Err(EndpointError::UnknownPeer(from));
                }
                let pending =
                    std::mem::replace(&mut self.session_mut(from)?.pending, Pending::Idle);
                match pending {
                    Pending::OpenAwaitingReading => {
                        self.device.sleep(IDLE_GAP);
                        self.finish_open(from)
                    }
                    Pending::AwaitingPeerReading {
                        amount,
                        own_value,
                        started_at,
                    } => {
                        let mut data = Vec::with_capacity(64);
                        data.extend_from_slice(&own_value.to_be_bytes());
                        data.extend_from_slice(&reading.value.to_be_bytes());
                        let sensor_hash = tinyevm_crypto::keccak256_h256(&data);
                        self.sign_and_queue_payment(from, amount, sensor_hash, started_at)?;
                        Ok(Vec::new())
                    }
                    other => {
                        self.session_mut(from)?.pending = other;
                        Err(EndpointError::UnexpectedMessage {
                            expected: "payment-ack",
                            got: "sensor-reading",
                        })
                    }
                }
            }
        }
    }

    fn on_proposal(
        &mut self,
        from: NodeAddr,
        proposal: ChannelOpen,
    ) -> Result<Vec<Effect>, EndpointError> {
        if self.role != ChannelRole::Receiver {
            return Err(EndpointError::UnexpectedMessage {
                expected: "payment-ack",
                got: "channel-open",
            });
        }
        if self.sessions.contains_key(&from) {
            return Err(EndpointError::OutOfOrder("channel is already open"));
        }
        let Some(registration) = self.expected.get(&from) else {
            return Err(EndpointError::UnknownPeer(from));
        };
        // The peer's proposal must agree with what the chain registered —
        // an adversarial peer cannot talk this endpoint into a channel the
        // chain never saw.
        if proposal.template != registration.template {
            return Err(EndpointError::ProposalMismatch("template address"));
        }
        if proposal.channel_id != registration.channel_id {
            return Err(EndpointError::ProposalMismatch("channel id"));
        }
        if proposal.sender != registration.sender {
            return Err(EndpointError::ProposalMismatch("sender account"));
        }
        if proposal.receiver != registration.receiver {
            return Err(EndpointError::ProposalMismatch("receiver account"));
        }
        if proposal.deposit_cap != registration.deposit_cap {
            return Err(EndpointError::ProposalMismatch("deposit cap"));
        }
        let registration = self.expected.remove(&from).expect("checked above");
        let init = contracts::payment_channel_init_code(
            tinyevm_device::sensors::peripheral_id::TEMPERATURE,
            registration.channel_id,
        );
        let (contract, create_time) = self.deploy_verified_contract(&init)?;
        let config = ChannelConfig {
            template: registration.template,
            channel_id: registration.channel_id,
            sender: registration.sender,
            receiver: registration.receiver,
            deposit_cap: registration.deposit_cap,
        };
        let channel_id = registration.channel_id;
        let log = SideChainLog::new(registration.anchor);
        self.sessions.insert(
            from,
            Box::new(PeerSession {
                registration,
                channel: PaymentChannel::new(config, ChannelRole::Receiver),
                contract: Some(contract),
                log,
                peer_acks: Vec::new(),
                latencies: Vec::new(),
                pending: Pending::Idle,
                staged_close: None,
                last_inbound: Vec::new(),
                last_reply: Vec::new(),
            }),
        );
        if self.two_party() {
            self.device.sleep(IDLE_GAP);
        }
        Ok(vec![Effect::ChannelOpened {
            peer: from,
            channel_id,
            create_time,
        }])
    }

    fn on_payment(
        &mut self,
        from: NodeAddr,
        payment: SignedPayment,
    ) -> Result<Vec<Effect>, EndpointError> {
        if self.role != ChannelRole::Receiver {
            return Err(EndpointError::UnexpectedMessage {
                expected: "payment-ack",
                got: "payment",
            });
        }
        let session = self
            .sessions
            .get_mut(&from)
            .ok_or(EndpointError::UnknownPeer(from))?;
        // A staged close pins the channel's final state; accepting further
        // payments would silently devalue the close about to be committed.
        if session.staged_close.is_some() {
            return Err(EndpointError::OutOfOrder("channel close already staged"));
        }
        let busy_from = self.device.now();
        let payload = payment.encode_payload();
        // The device bills one signature check, and the channel's own
        // payer check is the one it models: `accept_payment` checks the
        // signature before anything else, so any other rejection concerns
        // a payment the channel's sender really signed.
        let channel = &mut session.channel;
        let head = (
            channel.sequence(),
            channel.cumulative(),
            channel.config().channel_id,
        );
        let (accepted, digest) = self.device.verify_payload_with(&payload, |digest| {
            (channel.accept_payment_hashed(&payment, digest), *digest)
        });
        match accepted {
            Ok(()) => {}
            Err(ChannelError::Payment(PaymentError::BadSignature)) => {
                return Err(EndpointError::BadSignature)
            }
            // A verified retransmission of the payment already at the
            // channel head: the payer never saw the acknowledgement (it was
            // lost in flight, or this node power-cycled before the ack left
            // its outbox). Committing is idempotent, so acknowledging must
            // be too — re-sign and re-send the ack without touching channel
            // or log.
            Err(_)
                if payment.sequence == head.0
                    && payment.sequence > 0
                    && payment.cumulative == head.1
                    && payment.channel_id == head.2 =>
            {
                let (ack_signature, _) = self.device.sign_payload(&payload);
                self.tracer.count("channel.duplicate_messages", 1);
                self.outbox.push_back(Outgoing {
                    to: from,
                    message: Message::PaymentAck(PaymentAck {
                        channel_id: payment.channel_id,
                        sequence: payment.sequence,
                        signature: ack_signature,
                    }),
                    kind: OutKind::Ack,
                });
                return Ok(Vec::new());
            }
            Err(error) => return Err(error.into()),
        }
        self.register_on_side_chain(from, &payment, digest)?;
        let (ack_signature, _) = self.device.sign_payload(&payload);
        let processing = self.device.now().saturating_sub(busy_from);
        let node = self.device.name().to_string();
        self.tracer.event(|| TraceEvent::Phase {
            node,
            peer: from.to_string(),
            phase: "payment".to_string(),
            sequence: payment.sequence,
            duration_us: processing.as_micros() as u64,
        });
        self.tracer.gauge_labeled(
            || format!("channel.cumulative_wei.{from}"),
            payment.cumulative.amount().low_u64() as f64,
        );
        self.outbox.push_back(Outgoing {
            to: from,
            message: Message::PaymentAck(PaymentAck {
                channel_id: payment.channel_id,
                sequence: payment.sequence,
                signature: ack_signature,
            }),
            kind: OutKind::Ack,
        });
        Ok(vec![Effect::PaymentAccepted {
            peer: from,
            sequence: payment.sequence,
            cumulative: payment.cumulative,
            processing,
        }])
    }

    fn on_ack(
        &mut self,
        from: NodeAddr,
        ack: PaymentAck,
        ack_wire_len: usize,
    ) -> Result<Vec<Effect>, EndpointError> {
        if self.role != ChannelRole::Sender {
            return Err(EndpointError::UnexpectedMessage {
                expected: "payment",
                got: "payment-ack",
            });
        }
        // Validate against the pending round *without* consuming it: a
        // rejected acknowledgement (forged, or for a different payment)
        // must leave this endpoint waiting for the real one.
        let session = self
            .sessions
            .get_mut(&from)
            .ok_or(EndpointError::UnknownPeer(from))?;
        let Pending::AwaitingAck { payment, .. } = &session.pending else {
            return Err(EndpointError::OutOfOrder(
                "no payment awaits acknowledgement",
            ));
        };
        if ack.sequence != payment.sequence || ack.channel_id != payment.channel_id {
            return Err(EndpointError::OutOfOrder(
                "acknowledgement for a different payment",
            ));
        }
        let payload = payment.encode_payload();
        let channel = &mut session.channel;
        let digest = self
            .device
            .verify_payload_with(&payload, |digest| {
                channel
                    .verify_counterparty(digest, &ack.signature)
                    .map(|()| *digest)
            })
            .map_err(|_| EndpointError::BadSignature)?;
        let Pending::AwaitingAck {
            payment,
            payment_wire_len,
            sign_time,
            started_at,
            signed_at,
        } = std::mem::replace(&mut self.session_mut(from)?.pending, Pending::Idle)
        else {
            unreachable!("pending state checked above");
        };
        self.session_mut(from)?.peer_acks.push(ack.signature);
        let register_time = self.register_on_side_chain(from, &payment, digest)?;
        let end_to_end_latency = self.device.now().saturating_sub(started_at);
        self.session_mut(from)?.latencies.push(end_to_end_latency);
        let ack_time = self.device.now().saturating_sub(signed_at);
        let node = self.device.name().to_string();
        self.tracer.event(|| TraceEvent::Phase {
            node: node.clone(),
            peer: from.to_string(),
            phase: "ack".to_string(),
            sequence: payment.sequence,
            duration_us: ack_time.as_micros() as u64,
        });
        self.tracer.event(|| TraceEvent::Round {
            node: node.clone(),
            peer: from.to_string(),
            sequence: payment.sequence,
            cumulative_wei: payment.cumulative.amount().low_u64(),
            latency_us: end_to_end_latency.as_micros() as u64,
        });
        self.tracer.observe(
            "channel.round_latency_ms",
            end_to_end_latency.as_secs_f64() * 1_000.0,
        );
        self.tracer.gauge_labeled(
            || format!("channel.cumulative_wei.{from}"),
            payment.cumulative.amount().low_u64() as f64,
        );
        self.device.sleep(IDLE_GAP);
        let active_time = sign_time
            + register_time
            + self.device.airtime(payment_wire_len)
            + self.device.airtime(ack_wire_len);
        Ok(vec![Effect::PaymentCompleted {
            peer: from,
            receipt: PaymentReceipt {
                sequence: payment.sequence,
                cumulative: payment.cumulative,
                end_to_end_latency,
                sign_time,
                register_time,
                active_time,
            },
        }])
    }

    fn on_close_request(
        &mut self,
        from: NodeAddr,
        request: CloseRequest,
    ) -> Result<Vec<Effect>, EndpointError> {
        if self.role != ChannelRole::Receiver {
            return Err(EndpointError::UnexpectedMessage {
                expected: "payment-ack",
                got: "close-request",
            });
        }
        if !self.sessions.contains_key(&from) {
            return Err(EndpointError::UnknownPeer(from));
        }
        let expected_sender = self.session_mut(from)?.registration.sender;
        // The carried public key must hash to the channel's configured
        // sender before it may stand in for it in the batched check.
        if request.public_key.eth_address() != expected_sender {
            return Err(EndpointError::BadSignature);
        }
        // The proposed final state must equal this endpoint's own view of
        // the channel — a peer cannot close for more than it paid. The
        // check runs against a non-mutating preview: the channel only
        // closes in `finalize_closes`, once the signature actually
        // verifies, so a request that is later exposed as forged leaves no
        // trace on the channel.
        let session = self.session_mut(from)?;
        if request.state != session.channel.closing_state() {
            return Err(EndpointError::ProposalMismatch(
                "closing state does not match the channel",
            ));
        }
        session.staged_close = Some(StagedClose {
            state: request.state,
            public_key: request.public_key,
            signature: request.signature,
        });
        let staged = self
            .sessions
            .values()
            .filter(|s| s.staged_close.is_some())
            .count();
        Ok(vec![Effect::CloseStaged { peer: from, staged }])
    }

    // --- persistence -----------------------------------------------------

    /// Captures one peer's channel, side-chain log and collected peer
    /// acknowledgements as a wire-format snapshot.
    pub fn snapshot(&self, peer: NodeAddr) -> Option<ChannelSnapshot> {
        self.sessions
            .get(&peer)
            .map(|s| s.channel.snapshot(&s.log, &s.peer_acks))
    }

    /// Restores one peer's channel from a snapshot: the role must match
    /// this endpoint and the snapshot's side-chain log must verify. The
    /// local contract is kept only when the restored channel is the one it
    /// was deployed for; otherwise it is cleared (re-create it with
    /// [`ChannelEndpoint::ensure_contract`]). Round measurements
    /// (latencies) belong to the lost process and are cleared.
    ///
    /// # Errors
    ///
    /// Returns [`EndpointError::OutOfOrder`] for a role mismatch and
    /// [`EndpointError::Wire`] for a snapshot that does not verify.
    pub fn install_snapshot(
        &mut self,
        peer: NodeAddr,
        snapshot: &ChannelSnapshot,
    ) -> Result<(), EndpointError> {
        let expected = match self.role {
            ChannelRole::Sender => EndpointRole::Sender,
            ChannelRole::Receiver => EndpointRole::Receiver,
        };
        if snapshot.role != expected {
            return Err(EndpointError::OutOfOrder(
                "snapshot belongs to the other endpoint",
            ));
        }
        let (channel, log, peer_acks) = PaymentChannel::restore(snapshot)?;
        let contract = self
            .sessions
            .get(&peer)
            .filter(|s| s.channel.config().channel_id == snapshot.channel_id)
            .and_then(|s| s.contract);
        self.sessions.insert(
            peer,
            Box::new(PeerSession {
                registration: ChannelRegistration {
                    template: snapshot.template,
                    channel_id: snapshot.channel_id,
                    sender: snapshot.sender,
                    receiver: snapshot.receiver,
                    deposit_cap: snapshot.deposit_cap,
                    anchor: snapshot.anchor,
                },
                channel,
                contract,
                log,
                peer_acks,
                latencies: Vec::new(),
                pending: Pending::Idle,
                staged_close: None,
                last_inbound: Vec::new(),
                last_reply: Vec::new(),
            }),
        );
        Ok(())
    }

    /// Forgets the channel with `peer` (a restore target that must rebuild
    /// from scratch).
    pub fn drop_session(&mut self, peer: NodeAddr) {
        self.sessions.remove(&peer);
        self.expected.remove(&peer);
    }

    /// Re-instantiates the local channel contract for `peer` if the device
    /// lost it (e.g. in a power cycle), charging the deployment.
    ///
    /// # Errors
    ///
    /// Returns [`EndpointError::OutOfOrder`] without a channel and a device
    /// error when the constructor fails.
    pub fn ensure_contract(&mut self, peer: NodeAddr) -> Result<(), EndpointError> {
        let channel_id = match self.sessions.get(&peer) {
            None => return Err(EndpointError::OutOfOrder("open the channel first")),
            Some(session) if session.contract.is_some() => return Ok(()),
            Some(session) => session.channel.config().channel_id,
        };
        let init = contracts::payment_channel_init_code(
            tinyevm_device::sensors::peripheral_id::TEMPERATURE,
            channel_id,
        );
        let (contract, _) = self.deploy_verified_contract(&init)?;
        self.session_mut(peer)?.contract = Some(contract);
        Ok(())
    }

    /// Moves the channel keyed under `old` to `new` (a driver binding two
    /// standalone nodes together re-keys any pre-existing session).
    pub fn rekey_peer(&mut self, old: NodeAddr, new: NodeAddr) {
        if old == new {
            return;
        }
        if let Some(session) = self.sessions.remove(&old) {
            self.sessions.insert(new, session);
        }
        if let Some(expected) = self.expected.remove(&old) {
            self.expected.insert(new, expected);
        }
        for outgoing in &mut self.outbox {
            if outgoing.to == old {
                outgoing.to = new;
            }
        }
    }

    // --- internals -------------------------------------------------------

    fn session_mut(&mut self, peer: NodeAddr) -> Result<&mut PeerSession, EndpointError> {
        self.sessions
            .get_mut(&peer)
            .map(|session| &mut **session)
            .ok_or(EndpointError::UnknownPeer(peer))
    }

    /// Every local contract deployment funnels through here: the template's
    /// init code is statically verified before the device spends any
    /// constructor cycles on it.
    fn deploy_verified_contract(
        &mut self,
        init_code: &[u8],
    ) -> Result<(Address, Duration), EndpointError> {
        let analysis = analyze(init_code);
        if let Verdict::Rejected(error) = analysis.verdict() {
            return Err(EndpointError::ContractRejected(error.clone()));
        }
        if let Some(budget_mj) = self.energy_budget_mj {
            // Turn the static MCU-cycle bound into worst-case CPU energy at
            // this device's clock and supply voltage. No bound, no deploy.
            let mcu = self.device.config().mcu;
            let voltage = self.device.energy_report().voltage;
            let required_mj = match analysis.gas_certificate() {
                GasCertificate::Bounded { max_mcu_cycles, .. } => {
                    Some(mcu.cpu_energy_mj(*max_mcu_cycles, voltage))
                }
                GasCertificate::Unbounded { .. } | GasCertificate::Uncertified { .. } => None,
            };
            if required_mj.map_or(true, |required| required > budget_mj) {
                return Err(EndpointError::EnergyBudgetExceeded {
                    required_mj,
                    budget_mj,
                });
            }
        }
        self.device
            .create_local_contract(init_code)
            .map_err(|e| EndpointError::Device(e.to_string()))
    }

    /// True for an endpoint of the two-party session.
    fn two_party(&self) -> bool {
        self.profile == EndpointProfile::TwoParty
    }

    /// The peripheral this node reads and transmits, by role.
    fn reading_peripheral(&self) -> u64 {
        match self.role {
            ChannelRole::Sender => tinyevm_device::sensors::peripheral_id::TEMPERATURE,
            ChannelRole::Receiver => tinyevm_device::sensors::peripheral_id::OCCUPANCY,
        }
    }

    /// Reads this node's peripheral (500 µs of CPU).
    fn read_own_sensor(&mut self) -> U256 {
        self.device
            .read_sensor(self.reading_peripheral(), 0)
            .unwrap_or(U256::ZERO)
    }

    fn queue_own_reading(&mut self, peer: NodeAddr, kind: OutKind) {
        let value = self.read_own_sensor();
        self.queue_reading_value(peer, value, kind);
    }

    fn queue_reading_value(&mut self, peer: NodeAddr, value: U256, kind: OutKind) {
        self.outbox.push_back(Outgoing {
            to: peer,
            message: Message::SensorReading(SensorReading {
                peripheral: self.reading_peripheral(),
                value,
            }),
            kind,
        });
    }

    /// Completes the sender side of the open handshake: deploy the local
    /// channel contract and propose the channel to the peer.
    fn finish_open(&mut self, peer: NodeAddr) -> Result<Vec<Effect>, EndpointError> {
        let registration = self.session_mut(peer)?.registration.clone();
        let init = contracts::payment_channel_init_code(
            tinyevm_device::sensors::peripheral_id::TEMPERATURE,
            registration.channel_id,
        );
        let (contract, create_time) = self.deploy_verified_contract(&init)?;
        self.session_mut(peer)?.contract = Some(contract);
        self.outbox.push_back(Outgoing {
            to: peer,
            message: Message::ChannelOpen(ChannelOpen {
                template: registration.template,
                channel_id: registration.channel_id,
                sender: registration.sender,
                receiver: registration.receiver,
                deposit_cap: registration.deposit_cap,
            }),
            kind: OutKind::Proposal,
        });
        if self.two_party() {
            self.device.sleep(IDLE_GAP);
        }
        Ok(vec![Effect::ChannelOpened {
            peer,
            channel_id: registration.channel_id,
            create_time,
        }])
    }

    /// Creates and signs the next payment and queues it for transmission.
    fn sign_and_queue_payment(
        &mut self,
        peer: NodeAddr,
        amount: Wei,
        sensor_hash: H256,
        started_at: Duration,
    ) -> Result<(), EndpointError> {
        let session = self
            .sessions
            .get_mut(&peer)
            .ok_or(EndpointError::UnknownPeer(peer))?;
        let device = &mut self.device;
        // The device signs — and bills the crypto engine for — the payment
        // the channel builds.
        let mut sign_time = Duration::ZERO;
        let payment = session
            .channel
            .create_payment_with(amount, sensor_hash, |payload| {
                let (signature, time) = device.sign_payload(payload);
                sign_time = time;
                signature
            })?;
        let signed_at = self.device.now();
        let reading_time = signed_at
            .saturating_sub(started_at)
            .saturating_sub(sign_time);
        let node = self.device.name().to_string();
        let sequence = payment.sequence;
        self.tracer.event(|| TraceEvent::Phase {
            node: node.clone(),
            peer: peer.to_string(),
            phase: "reading".to_string(),
            sequence,
            duration_us: reading_time.as_micros() as u64,
        });
        self.tracer.event(|| TraceEvent::Phase {
            node: node.clone(),
            peer: peer.to_string(),
            phase: "payment".to_string(),
            sequence,
            duration_us: sign_time.as_micros() as u64,
        });
        let message = Message::Payment(payment.clone());
        let payment_wire_len = message.wire_size();
        self.session_mut(peer)?.pending = Pending::AwaitingAck {
            payment,
            payment_wire_len,
            sign_time,
            started_at,
            signed_at,
        };
        self.outbox.push_back(Outgoing {
            to: peer,
            message,
            kind: OutKind::Payment,
        });
        Ok(())
    }

    /// Executes the channel contract to register a payment on this node's
    /// side-chain, then appends to the hash-linked log. `digest` is the
    /// payment's [`SignedPayment::digest`], which the device hashed when it
    /// checked the signature. Returns the VM execution time.
    fn register_on_side_chain(
        &mut self,
        peer: NodeAddr,
        payment: &SignedPayment,
        digest: [u8; 32],
    ) -> Result<Duration, EndpointError> {
        let contract = self
            .session_mut(peer)?
            .contract
            .ok_or(EndpointError::OutOfOrder("open the channel first"))?;
        let calldata =
            contracts::record_payment_calldata(payment.sequence, payment.cumulative.amount());
        let (_, success, time) = self
            .device
            .call_local_contract(contract, U256::ZERO, &calldata);
        if !success {
            return Err(EndpointError::Device(
                "payment-channel contract rejected the payment".to_string(),
            ));
        }
        self.session_mut(peer)?.log.append(
            payment.channel_id,
            payment.sequence,
            payment.cumulative,
            H256::from_bytes(digest),
        );
        Ok(time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_templates_pass_the_static_gate() {
        let init = contracts::payment_channel_init_code(
            tinyevm_device::sensors::peripheral_id::TEMPERATURE,
            7,
        );
        assert!(!analyze(&init).verdict().is_rejected());
        assert!(!analyze(&contracts::payment_channel_runtime_code())
            .verdict()
            .is_rejected());
        let child = contracts::payment_channel_init_code(0, 1);
        assert!(!analyze(&contracts::template_init_code(&child))
            .verdict()
            .is_rejected());
        assert!(!analyze(&contracts::template_runtime_code(&child))
            .verdict()
            .is_rejected());
    }

    #[test]
    fn gate_refuses_malformed_template_before_deployment() {
        let mut endpoint = ChannelEndpoint::two_party_sender("sensor", NodeAddr(1));
        // PUSH1 0x03 JUMP STOP — the jump lands on the STOP byte, which is
        // not a JUMPDEST: statically invalid.
        let bad_init = vec![0x60, 0x03, 0x56, 0x00];
        match endpoint.deploy_verified_contract(&bad_init) {
            Err(EndpointError::ContractRejected(AnalysisError::InvalidJumpTarget {
                pc,
                target,
            })) => {
                assert_eq!(pc, 2);
                assert_eq!(target, 3);
            }
            other => panic!("expected ContractRejected, got {other:?}"),
        }
    }

    #[test]
    fn energy_budget_refuses_unprovable_and_over_budget_templates() {
        // The real payment-channel template contains a constructor loop, so
        // no finite energy bound exists: a budgeted endpoint refuses it
        // outright, whatever the budget.
        let template = contracts::payment_channel_init_code(
            tinyevm_device::sensors::peripheral_id::TEMPERATURE,
            7,
        );
        let mut endpoint = ChannelEndpoint::two_party_sender("sensor", NodeAddr(1))
            .with_deploy_energy_budget_mj(100.0);
        match endpoint.deploy_verified_contract(&template) {
            Err(EndpointError::EnergyBudgetExceeded {
                required_mj: None,
                budget_mj,
            }) => assert_eq!(budget_mj, 100.0),
            other => panic!("expected EnergyBudgetExceeded, got {other:?}"),
        }

        // A straight-line constructor carries a proof: PUSH1 0, PUSH1 0,
        // MSTORE8, PUSH1 1, PUSH1 0, RETURN — deploys a one-byte runtime.
        let straight = vec![0x60, 0x00, 0x60, 0x00, 0x53, 0x60, 0x01, 0x60, 0x00, 0xf3];
        let mut generous = ChannelEndpoint::two_party_sender("rich", NodeAddr(2))
            .with_deploy_energy_budget_mj(100.0);
        assert!(generous.deploy_verified_contract(&straight).is_ok());
        let mut stingy = ChannelEndpoint::two_party_sender("poor", NodeAddr(3))
            .with_deploy_energy_budget_mj(1e-12);
        match stingy.deploy_verified_contract(&straight) {
            Err(EndpointError::EnergyBudgetExceeded {
                required_mj: Some(required),
                budget_mj,
            }) => {
                assert!(required > budget_mj);
                // The proven bound is tiny in absolute terms: well under a
                // millijoule of CPU for six instructions.
                assert!(required < 1.0);
            }
            other => panic!("expected EnergyBudgetExceeded, got {other:?}"),
        }
        // An un-budgeted endpoint deploys the looping template unchanged.
        let mut open = ChannelEndpoint::two_party_sender("open", NodeAddr(4));
        assert!(open.deploy_verified_contract(&template).is_ok());
    }

    /// Drains both outboxes through a plain queue of encoded messages —
    /// the `sans_io` example's transport — until the conversation goes
    /// quiet.
    fn pump_wire(a: &mut ChannelEndpoint, b: &mut ChannelEndpoint) {
        let mut queue: Vec<(NodeAddr, NodeAddr, Vec<u8>)> = Vec::new();
        loop {
            for endpoint in [&mut *a, &mut *b] {
                if let Some(envelope) = endpoint.poll_transmit() {
                    queue.push((endpoint.addr(), envelope.to, envelope.message.to_wire()));
                }
            }
            let Some((from, to, wire)) = queue.pop() else {
                break;
            };
            let target = if to == a.addr() { &mut *a } else { &mut *b };
            target.handle_wire(from, &wire).unwrap();
        }
    }

    fn crypto_engine_time(endpoint: &ChannelEndpoint) -> Duration {
        endpoint
            .device()
            .energy_report()
            .time_of(tinyevm_device::PowerState::CryptoEngine)
    }

    /// `(label, start ns, duration ns)` of each device activity from index
    /// `from` on.
    fn activities_since(endpoint: &ChannelEndpoint, from: usize) -> Vec<(&str, u128, u128)> {
        endpoint.device().activities()[from..]
            .iter()
            .map(|a| {
                (
                    a.label.as_str(),
                    a.start().as_nanos(),
                    a.duration().as_nanos(),
                )
            })
            .collect()
    }

    /// A byte-identical copy of the last frame handled from a peer
    /// re-queues the stored reply verbatim and counts a duplicate; a frame
    /// one byte away from it is decoded and checked afresh.
    #[test]
    fn a_replayed_frame_requeues_its_reply_and_a_changed_one_is_handled_afresh() {
        let (car, lot) = (NodeAddr::new(1), NodeAddr::new(2));
        let tracer = TraceHandle::recording(16);
        let mut sender = ChannelEndpoint::two_party_sender("car", car);
        let mut receiver =
            ChannelEndpoint::two_party_receiver("lot", lot).with_tracer(tracer.clone());
        let registration = ChannelRegistration {
            template: Address::from_low_u64(0xAA),
            channel_id: 1,
            sender: sender.account(),
            receiver: receiver.account(),
            deposit_cap: Wei::from(1_000u64),
            anchor: H256::ZERO,
        };
        receiver.expect_channel(car, registration.clone()).unwrap();
        sender.open(lot, registration).unwrap();
        pump_wire(&mut sender, &mut receiver);
        sender.pay(lot, Wei::from(100u64)).unwrap();
        let (payment, signature, reply) = loop {
            if let Some(envelope) = sender.poll_transmit() {
                let wire = envelope.message.to_wire();
                receiver.handle_wire(car, &wire).unwrap();
                if let Message::Payment(payment) = envelope.message {
                    let reply = receiver
                        .poll_transmit()
                        .expect("the payment is acknowledged");
                    break (wire, payment.signature, reply.message.to_wire());
                }
            } else if let Some(envelope) = receiver.poll_transmit() {
                sender
                    .handle_wire(lot, &envelope.message.to_wire())
                    .unwrap();
            } else {
                panic!("the round stalled before the payment");
            }
        };
        let duplicates = || {
            let snapshot = tracer.snapshot().unwrap();
            snapshot.metrics.counter("channel.duplicate_messages")
        };
        let paid = receiver.channel(car).unwrap().cumulative();

        // Suppressed before any signature work: the engine stays idle.
        let engine = crypto_engine_time(&receiver);
        assert!(receiver.handle_wire(car, &payment).unwrap().is_empty());
        let replayed = receiver
            .poll_transmit()
            .expect("the stored reply is re-queued");
        assert_eq!(replayed.message.to_wire(), reply);
        assert_eq!(duplicates(), 1);
        assert_eq!(crypto_engine_time(&receiver), engine);

        // Flip one byte of the signature's `r`: the frame still decodes,
        // and only a fresh check can refuse it.
        let r = signature.r.to_be_bytes();
        let at = payment
            .windows(r.len())
            .position(|window| window == r)
            .expect("r is on the wire")
            + r.len() / 2;
        let mut changed = payment.clone();
        changed[at] ^= 1;
        assert!(matches!(
            receiver.handle_wire(car, &changed),
            Err(EndpointError::BadSignature)
        ));
        assert!(receiver.poll_transmit().is_none());
        assert_eq!(duplicates(), 1);
        assert_eq!(receiver.channel(car).unwrap().cumulative(), paid);
    }

    /// After the first acknowledged round the sender checks acks against
    /// the receiver's learned key. Another key's signature and a flipped
    /// recovery id are refused without consuming the pending round, which
    /// the genuine ack then completes.
    #[test]
    fn forged_acks_after_the_first_round_keep_the_round_pending() {
        let (car, lot) = (NodeAddr::new(1), NodeAddr::new(2));
        let mut sender = ChannelEndpoint::two_party_sender("car", car);
        let mut receiver = ChannelEndpoint::two_party_receiver("lot", lot);
        let registration = ChannelRegistration {
            template: Address::from_low_u64(0xAA),
            channel_id: 1,
            sender: sender.account(),
            receiver: receiver.account(),
            deposit_cap: Wei::from(1_000u64),
            anchor: H256::ZERO,
        };
        receiver.expect_channel(car, registration.clone()).unwrap();
        sender.open(lot, registration).unwrap();
        pump_wire(&mut sender, &mut receiver);
        sender.pay(lot, Wei::from(100u64)).unwrap();
        pump_wire(&mut sender, &mut receiver);

        // The second round, up to the acknowledgement.
        sender.pay(lot, Wei::from(100u64)).unwrap();
        let mut payload = Vec::new();
        let genuine = loop {
            if let Some(envelope) = sender.poll_transmit() {
                if let Message::Payment(payment) = &envelope.message {
                    payload = payment.encode_payload();
                }
                receiver.handle_message(car, envelope.message).unwrap();
            } else if let Some(envelope) = receiver.poll_transmit() {
                match envelope.message {
                    Message::PaymentAck(ack) => break ack,
                    other => {
                        sender.handle_message(lot, other).unwrap();
                    }
                }
            } else {
                panic!("the round stalled before its acknowledgement");
            }
        };
        let mallory = tinyevm_crypto::secp256k1::PrivateKey::from_seed(b"mallory");
        let other_key = PaymentAck {
            signature: mallory.sign_message(&payload),
            ..genuine.clone()
        };
        let mut flipped_v = genuine.clone();
        flipped_v.signature.recovery_id ^= 1;
        for forged in [other_key, flipped_v] {
            assert!(matches!(
                sender.handle_message(lot, Message::PaymentAck(forged)),
                Err(EndpointError::BadSignature)
            ));
        }
        let effects = sender
            .handle_message(lot, Message::PaymentAck(genuine))
            .unwrap();
        assert!(matches!(
            effects[..],
            [Effect::PaymentCompleted { ref receipt, .. }] if receipt.sequence == 2
        ));
    }

    /// What the device model charges for one acknowledged payment: the
    /// exact activities each side appends and its crypto-engine time.
    /// However the host computes the signatures, the virtual clock must
    /// see the same round.
    #[test]
    fn one_acknowledged_payment_charges_the_same_device_activities() {
        let (car, lot) = (NodeAddr::new(1), NodeAddr::new(2));
        let mut sender = ChannelEndpoint::two_party_sender("car", car);
        let mut receiver = ChannelEndpoint::two_party_receiver("lot", lot);
        let registration = ChannelRegistration {
            template: Address::from_low_u64(0xAA),
            channel_id: 1,
            sender: sender.account(),
            receiver: receiver.account(),
            deposit_cap: Wei::from(1_000u64),
            anchor: H256::ZERO,
        };
        receiver.expect_channel(car, registration.clone()).unwrap();
        sender.open(lot, registration).unwrap();
        pump_wire(&mut sender, &mut receiver);
        let sender_mark = sender.device().activities().len();
        let receiver_mark = receiver.device().activities().len();
        let sender_crypto = crypto_engine_time(&sender);
        let receiver_crypto = crypto_engine_time(&receiver);

        sender.pay(lot, Wei::from(100u64)).unwrap();
        pump_wire(&mut sender, &mut receiver);
        assert_eq!(
            receiver.channel(car).unwrap().cumulative(),
            Wei::from(100u64)
        );

        assert_eq!(
            activities_since(&sender, sender_mark),
            [
                ("read sensor", 254_719_312, 500_000),
                ("wire codec", 255_219_312, 16_000),
                ("wire codec", 255_235_312, 12_000),
                ("sign payload", 255_247_312, 355_000_000),
                ("wire codec", 610_247_312, 260_000),
                ("wire codec", 610_507_312, 150_000),
                ("verify payload", 610_657_312, 355_000_000),
                ("call local contract", 965_657_312, 186_875),
                ("sleep (LPM2)", 965_844_187, 120_000_000),
            ]
        );
        assert_eq!(
            activities_since(&receiver, receiver_mark),
            [
                ("wire codec", 134_719_312, 16_000),
                ("read sensor", 134_735_312, 500_000),
                ("wire codec", 135_235_312, 12_000),
                ("wire codec", 135_247_312, 260_000),
                ("verify payload", 135_507_312, 355_000_000),
                ("call local contract", 490_507_312, 186_875),
                ("sign payload", 490_694_187, 355_000_000),
                ("wire codec", 845_694_187, 150_000),
            ]
        );
        // One sign and one verify on each side, 350 ms each on the engine.
        let one_round = Duration::from_millis(700);
        assert_eq!(crypto_engine_time(&sender) - sender_crypto, one_round);
        assert_eq!(crypto_engine_time(&receiver) - receiver_crypto, one_round);
    }
}
