//! A simulated low-power IoT device in the class the TinyEVM paper targets.
//!
//! The paper evaluates TinyEVM on an OpenMote B: a TI-CC2538 SoC with a
//! 32-bit ARM Cortex-M3 at 32 MHz, 32 KB of RAM, 512 KB of ROM, a hardware
//! cryptographic engine clocked at 250 MHz and an 802.15.4 radio, running
//! Contiki-NG with the Energest on-line energy estimator. None of that
//! hardware is available here, so this crate rebuilds the *measurable
//! surface* of that platform as a deterministic model:
//!
//! * [`Mcu`] — converts the interpreter's cycle counts into execution time
//!   at a configurable clock (Figure 4's deployment times).
//! * [`CryptoEngine`] — the Table V latencies (ECDSA 350 ms, SHA-256 1 ms in
//!   hardware; Keccak-256 5 ms in software) wrapped around the real
//!   `tinyevm-crypto` implementations, so results are functionally correct
//!   *and* carry device-realistic cost.
//! * [`EnergyMeter`] — an Energest-style state-residency integrator with the
//!   Table IV current draws, producing the per-state energy split and the
//!   Figure 5 current timeline.
//! * [`DeviceSensors`] — the sensor / actuator registry behind the EVM's IoT
//!   opcode.
//! * [`Footprint`] — the Table III RAM / ROM budget.
//! * [`Device`] — the composition: deploy and execute contracts, sign and
//!   verify payments, exchange radio frames, and account for every
//!   microjoule while doing so.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crypto_engine;
pub mod device;
pub mod energy;
pub mod footprint;
pub mod mcu;
pub mod sensors;
pub mod simtime;

pub use crypto_engine::CryptoEngine;
pub use device::{ActivityKind, Device, DeviceActivity, DeviceConfig, RadioDirection};
pub use energy::{EnergyMeter, EnergyReport, PowerState, TimelineEntry};
pub use footprint::{Footprint, FootprintComponent};
pub use mcu::Mcu;
pub use sensors::{DeviceSensors, Sensor, SensorReading};
pub use simtime::SimTime;
