//! Sensors and actuators exposed to smart contracts through the IoT opcode.
//!
//! The paper's motivating scenario has the parking sensor and the car
//! exchanging locally sensed context — temperature, occupancy, location —
//! and feeding it into the off-chain contract. [`DeviceSensors`] is the
//! registry the device hands to the EVM as its [`IotEnvironment`];
//! individual [`Sensor`] implementations produce deterministic readings so
//! experiments are reproducible.

use std::collections::BTreeMap;

use tinyevm_evm::{IotEnvironment, IotRequest};
use tinyevm_types::U256;

/// Well-known peripheral identifiers used by the examples and experiments.
pub mod peripheral_id {
    /// On-board temperature sensor (0.01 °C units).
    pub const TEMPERATURE: u64 = 0;
    /// Parking-spot occupancy sensor (0 = free, 1 = occupied).
    pub const OCCUPANCY: u64 = 1;
    /// Battery voltage sensor (millivolts).
    pub const BATTERY: u64 = 2;
    /// Barrier / indicator-LED actuator.
    pub const BARRIER: u64 = 16;
}

/// One reading returned by a sensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SensorReading {
    /// The raw value as pushed onto the EVM stack.
    pub value: U256,
}

/// A device peripheral that can be read (sensor) and optionally driven
/// (actuator).
pub trait Sensor: std::fmt::Debug {
    /// Reads the current value; `parameter` is peripheral-specific.
    fn read(&mut self, parameter: u64) -> SensorReading;

    /// Applies an actuation value; returns `false` if this peripheral cannot
    /// actuate.
    fn actuate(&mut self, _value: u64) -> bool {
        false
    }
}

/// A sensor that returns a fixed value — the simplest reproducible sensor.
#[derive(Debug, Clone)]
pub struct ConstantSensor {
    value: U256,
}

impl ConstantSensor {
    /// Creates a sensor that always reads `value`.
    pub fn new(value: U256) -> Self {
        ConstantSensor { value }
    }
}

impl Sensor for ConstantSensor {
    fn read(&mut self, _parameter: u64) -> SensorReading {
        SensorReading { value: self.value }
    }
}

/// A sensor that walks through a scripted sequence of readings and then
/// repeats the last one — useful for scenarios where conditions change over
/// the course of an experiment (e.g. a parking spot becoming occupied).
#[derive(Debug, Clone)]
pub struct SequenceSensor {
    values: Vec<U256>,
    index: usize,
}

impl SequenceSensor {
    /// Creates a sensor that yields `values` in order.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty — a sensor must always produce a reading.
    pub fn new(values: Vec<U256>) -> Self {
        assert!(
            !values.is_empty(),
            "a SequenceSensor needs at least one value"
        );
        SequenceSensor { values, index: 0 }
    }
}

impl Sensor for SequenceSensor {
    fn read(&mut self, _parameter: u64) -> SensorReading {
        let value = self.values[self.index.min(self.values.len() - 1)];
        if self.index + 1 < self.values.len() {
            self.index += 1;
        }
        SensorReading { value }
    }
}

/// An actuator that remembers the values applied to it.
#[derive(Debug, Clone, Default)]
pub struct RecordingActuator {
    applied: Vec<u64>,
}

impl RecordingActuator {
    /// Creates an idle actuator.
    pub fn new() -> Self {
        Self::default()
    }

    /// The values applied so far, oldest first.
    pub fn applied(&self) -> &[u64] {
        &self.applied
    }
}

impl Sensor for RecordingActuator {
    fn read(&mut self, _parameter: u64) -> SensorReading {
        SensorReading {
            value: U256::from(self.applied.last().copied().unwrap_or(0)),
        }
    }

    fn actuate(&mut self, value: u64) -> bool {
        self.applied.push(value);
        true
    }
}

/// The device's peripheral registry; implements the EVM's IoT environment.
///
/// # Example
///
/// ```
/// use tinyevm_device::{DeviceSensors, sensors::peripheral_id};
/// use tinyevm_evm::{IotEnvironment, IotRequest};
/// use tinyevm_types::U256;
///
/// let mut sensors = DeviceSensors::smart_parking_lot();
/// let reading = sensors.handle(IotRequest::ReadSensor {
///     id: peripheral_id::TEMPERATURE,
///     parameter: 0,
/// });
/// assert!(reading.is_some());
/// ```
#[derive(Debug, Default)]
pub struct DeviceSensors {
    peripherals: BTreeMap<u64, Box<dyn Sensor + Send>>,
    reads: u64,
    actuations: u64,
}

impl DeviceSensors {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The peripheral set used by the smart-parking examples: a temperature
    /// sensor (21.5 °C), an occupancy sensor that flips to occupied on the
    /// second read, a battery monitor and a barrier actuator.
    pub fn smart_parking_lot() -> Self {
        let mut sensors = Self::new();
        sensors.register(
            peripheral_id::TEMPERATURE,
            Box::new(ConstantSensor::new(U256::from(2150u64))),
        );
        sensors.register(
            peripheral_id::OCCUPANCY,
            Box::new(SequenceSensor::new(vec![U256::ZERO, U256::ONE, U256::ONE])),
        );
        sensors.register(
            peripheral_id::BATTERY,
            Box::new(ConstantSensor::new(U256::from(3000u64))),
        );
        sensors.register(peripheral_id::BARRIER, Box::new(RecordingActuator::new()));
        sensors
    }

    /// Registers (or replaces) a peripheral.
    pub fn register(&mut self, id: u64, sensor: Box<dyn Sensor + Send>) {
        self.peripherals.insert(id, sensor);
    }

    /// Number of registered peripherals.
    pub fn len(&self) -> usize {
        self.peripherals.len()
    }

    /// True when no peripherals are registered.
    pub fn is_empty(&self) -> bool {
        self.peripherals.is_empty()
    }

    /// Total sensor reads served.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Total actuations served.
    pub fn actuations(&self) -> u64 {
        self.actuations
    }

    /// Reads a peripheral directly (host-side, outside the EVM).
    pub fn read_direct(&mut self, id: u64, parameter: u64) -> Option<SensorReading> {
        let sensor = self.peripherals.get_mut(&id)?;
        self.reads += 1;
        Some(sensor.read(parameter))
    }
}

impl IotEnvironment for DeviceSensors {
    fn handle(&mut self, request: IotRequest) -> Option<U256> {
        match request {
            IotRequest::ReadSensor { id, parameter } => {
                let sensor = self.peripherals.get_mut(&id)?;
                self.reads += 1;
                Some(sensor.read(parameter).value)
            }
            IotRequest::Actuate { id, value } => {
                let sensor = self.peripherals.get_mut(&id)?;
                if sensor.actuate(value) {
                    self.actuations += 1;
                    Some(U256::ONE)
                } else {
                    None
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_sensor_is_constant() {
        let mut sensor = ConstantSensor::new(U256::from(42u64));
        assert_eq!(sensor.read(0).value, U256::from(42u64));
        assert_eq!(sensor.read(99).value, U256::from(42u64));
        assert!(!sensor.actuate(1));
    }

    #[test]
    fn sequence_sensor_walks_and_saturates() {
        let mut sensor =
            SequenceSensor::new(vec![U256::from(1u64), U256::from(2u64), U256::from(3u64)]);
        assert_eq!(sensor.read(0).value, U256::from(1u64));
        assert_eq!(sensor.read(0).value, U256::from(2u64));
        assert_eq!(sensor.read(0).value, U256::from(3u64));
        assert_eq!(sensor.read(0).value, U256::from(3u64));
    }

    #[test]
    #[should_panic(expected = "at least one value")]
    fn sequence_sensor_rejects_empty_script() {
        let _ = SequenceSensor::new(vec![]);
    }

    #[test]
    fn recording_actuator_remembers_and_reads_back() {
        let mut actuator = RecordingActuator::new();
        assert_eq!(actuator.read(0).value, U256::ZERO);
        assert!(actuator.actuate(90));
        assert!(actuator.actuate(0));
        assert_eq!(actuator.applied(), &[90, 0]);
        assert_eq!(actuator.read(0).value, U256::ZERO);
    }

    #[test]
    fn registry_routes_reads_and_actuations() {
        let mut sensors = DeviceSensors::smart_parking_lot();
        assert_eq!(sensors.len(), 4);
        assert!(!sensors.is_empty());

        let temp = sensors.handle(IotRequest::ReadSensor {
            id: peripheral_id::TEMPERATURE,
            parameter: 0,
        });
        assert_eq!(temp, Some(U256::from(2150u64)));

        let ack = sensors.handle(IotRequest::Actuate {
            id: peripheral_id::BARRIER,
            value: 1,
        });
        assert_eq!(ack, Some(U256::ONE));
        assert_eq!(sensors.reads(), 1);
        assert_eq!(sensors.actuations(), 1);
    }

    #[test]
    fn unknown_peripheral_returns_none() {
        let mut sensors = DeviceSensors::new();
        assert!(sensors
            .handle(IotRequest::ReadSensor {
                id: 99,
                parameter: 0
            })
            .is_none());
        assert!(sensors
            .handle(IotRequest::Actuate { id: 99, value: 0 })
            .is_none());
        assert!(sensors.read_direct(99, 0).is_none());
    }

    #[test]
    fn actuating_a_pure_sensor_fails() {
        let mut sensors = DeviceSensors::new();
        sensors.register(7, Box::new(ConstantSensor::new(U256::ONE)));
        assert!(sensors
            .handle(IotRequest::Actuate { id: 7, value: 1 })
            .is_none());
        assert_eq!(sensors.actuations(), 0);
    }

    #[test]
    fn occupancy_sensor_in_parking_preset_changes_over_time() {
        let mut sensors = DeviceSensors::smart_parking_lot();
        let first = sensors.read_direct(peripheral_id::OCCUPANCY, 0).unwrap();
        let second = sensors.read_direct(peripheral_id::OCCUPANCY, 0).unwrap();
        assert_eq!(first.value, U256::ZERO);
        assert_eq!(second.value, U256::ONE);
    }
}
