//! tinyevm-sim — deterministic discrete-event fleet simulation.
//!
//! Everything below `tinyevm-channel` is sans-IO and clocked by per-device
//! virtual meters; this crate adds the missing piece for *fleet-scale*
//! experiments: a virtual-clock event scheduler ([`EventQueue`], events
//! keyed `(time_ns, seq)` for stable replay) driving N sensor endpoints
//! against one gateway over a contending radio medium
//! ([`tinyevm_net::ContendingMedium`] — slotted ALOHA or CSMA/CA with
//! capture). Frames from many sensors are in flight at once, the
//! gateway's per-peer RX queues are bounded (overflow counted), retry
//! backoff runs on virtual-clock deadlines, and the loop jumps over
//! contention slots in which nothing can happen.
//!
//! The invariant the whole design serves: **same seed ⇒ byte-identical
//! event order, statistics and settlements, at any `jobs` value**.
//! Sharded phases touch disjoint sensors and merge in address order;
//! everything that arbitrates shared state runs serially on the virtual
//! clock.
//!
//! The contention-free [`single-slot`](tinyevm_net::AccessScheme::SingleSlot)
//! configuration degenerates to the exact lockstep schedule of
//! [`tinyevm_channel::GatewayDriver`] — the equivalence tests pin the two
//! byte-identical — so one implementation serves both the paper's
//! two-party measurements and 1024-sensor contention sweeps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
mod index_set;
pub mod scheduler;

pub use event::EventQueue;
pub use scheduler::{FleetConfig, FleetReport, FleetScheduler};
pub use tinyevm_device::SimTime;
