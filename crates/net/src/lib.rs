//! A frame-level simulator of the low-power wireless link between two
//! TinyEVM nodes.
//!
//! The paper's prototype exchanges sensor data, channel-open messages and
//! signed payments over TSCH (IEEE 802.15.4) using Contiki-NG's stack, and
//! notes that the design is agnostic to the specific short-range technology
//! (BLE would work too). This crate models what the evaluation actually
//! measures about that link:
//!
//! * 802.15.4-style **framing**: a 127-byte MTU with a protocol header, so
//!   larger payloads (a 65-byte signature plus channel metadata, or an 8 KB
//!   contract) are fragmented into several frames ([`fragment`] /
//!   [`reassemble`]).
//! * **Air time**: payload bits over a configurable bit rate plus a fixed
//!   per-frame overhead (slot alignment, preamble), which the device model
//!   turns into TX / RX energy (Table IV).
//! * **Loss and retransmission**: an optional independent-loss model with
//!   per-frame retries, used by the robustness experiments.
//! * **Deterministic fault injection**: a seeded [`FaultPlan`] composable
//!   onto a link or a medium endpoint that adds corruption, duplication,
//!   reordering, replay, delay windows and partitions on top of the loss
//!   process — see [`fault`].
//! * **Addressing and a shared medium**: every frame names its
//!   [`NodeAddr`] endpoints, and a [`SharedMedium`] lets N addressed
//!   senders contend for one gateway with per-endpoint loss processes,
//!   the gateway's bounded per-peer RX queues and wire-byte / airtime
//!   accounting — the radio topology of the paper's
//!   many-sensors-one-gateway deployment.
//! * **Contention**: a [`ContendingMedium`] layers CSMA/CA medium access
//!   (binary exponential backoff, capture threshold, per-slot collision
//!   loss) or a contention-free single-slot schedule over the shared
//!   medium for event-driven fleet simulation — see [`contention`].
//!
//! The crate deliberately moves *bytes*, not protocol objects — message
//! semantics live in `tinyevm-channel`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod contention;
pub mod fault;
pub mod frame;
pub mod link;
pub mod medium;
pub mod radio;

pub use addr::NodeAddr;
pub use contention::{AccessScheme, ContendingMedium, ContentionConfig, SlotOutcome};
pub use fault::{DelayWindow, FaultConfig, FaultPlan, MessageWindow};
pub use frame::{
    fragment, reassemble, Frame, FrameError, FRAME_HEADER_SIZE, MAX_FRAGMENTS, MAX_FRAME_PAYLOAD,
    MAX_FRAME_SIZE, MAX_MESSAGE_SIZE,
};
pub use link::{Link, LinkConfig, LinkError, LinkProfile, TransferReport};
pub use medium::{EndpointStats, MediumError, SharedMedium, DEFAULT_RX_QUEUE_CAPACITY};
pub use radio::Radio;
