//! Off-chain payment channels for low-power IoT devices — the TinyEVM
//! protocol layer.
//!
//! This crate implements the three-phase flow of the paper's Figure 2 on top
//! of the other substrates:
//!
//! 1. **On-chain smart contract** — a [`TemplateContract`]
//!    (`tinyevm-chain`) is published with the sender's deposit.
//! 2. **Off-chain smart contract** — the two devices generate a payment
//!    channel locally from the template ([`contracts`] holds the actual EVM
//!    bytecode, including the IoT-opcode sensor read in the constructor),
//!    then exchange [`SignedPayment`]s ordered by a logical clock, each one
//!    a stand-alone artifact that could claim money on-chain. Every state
//!    transition is appended to the node's hash-linked [`SideChainLog`].
//! 3. **On-chain commit** — either party closes the channel, both sign the
//!    final [`ChannelState`](tinyevm_chain::ChannelState), and the commit /
//!    challenge / exit machinery of the chain settles it.
//!
//! The protocol itself lives in the sans-IO [`endpoint`] module: a
//! [`ChannelEndpoint`] per node owns that node's keys, channel state
//! machines, side-chain logs and device accounting, consumes decoded
//! [`tinyevm_wire::Message`]s and local intents, and emits messages and
//! typed effects — it never touches a link, a medium or a chain. Two
//! endpoints can be driven with nothing but an in-memory message queue.
//!
//! [`ProtocolDriver`] (one sender, one receiver, one `tinyevm_net::Link`)
//! is a thin *pump* around two endpoints: it owns the chain and the
//! transport, shuttles encoded messages, and collects the timing and
//! energy measurements behind the paper's Table IV / Figure 5 and the
//! headline "584 ms per off-chain payment". Fleets of N sensors paying one
//! gateway endpoint run on `tinyevm-sim`'s `FleetScheduler`, which shares
//! the same pump ([`pump_contention_free`]) and the per-sensor bookkeeping
//! in [`gateway`]. Both engines persist a session to disk and resume it
//! after a power cycle through one file format, written and validated in
//! [`session`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod contracts;
pub mod endpoint;
pub mod gateway;
pub mod payment;
pub mod protocol;
pub mod session;
pub mod sidechain;

pub use channel::{ChannelConfig, ChannelError, ChannelRole, ChannelStatus, PaymentChannel};
pub use endpoint::{
    ChannelEndpoint, ChannelRegistration, Effect, EndpointError, EndpointProfile, Envelope,
    PaymentReceipt, RetryPolicy, IDLE_GAP,
};
pub use gateway::{
    GatewayRoundReport, GatewaySettlementReport, SensorHealth, SensorSummary, QUARANTINE_THRESHOLD,
};
pub use payment::{PaymentError, SignedPayment};
pub use protocol::{
    pump_contention_free, CrashSchedule, OffChainNode, ProtocolDriver, ProtocolError, PumpLog,
    RoundReport, SettlementReport, Transfer,
};
pub use sidechain::{SideChainEntry, SideChainLog};

/// Link-layer node address, re-exported so transport-free endpoint code
/// needs no `tinyevm-net` import.
pub use tinyevm_net::NodeAddr;

pub use tinyevm_chain::TemplateContract;
