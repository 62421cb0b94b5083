//! Per-layer replays for the traced run.
//!
//! Most layers are called from inside a driver, where the benchmark cannot
//! time them without adding spans to the program. The traced run instead
//! captures the inputs the workload feeds a layer and replays the layer's
//! public function on them: the wire messages of each payment round, seen
//! at a pass-through [`Radio`] under [`pump_contention_free`] (the pump both
//! drivers use), the payments' digests and signatures, the
//! `record_payment` calldata and the meter's timeline length. Replayed
//! numbers are labelled as such wherever they are printed.

use std::hint::black_box;
use std::time::{Duration, Instant};

use tinyevm_analysis::analyze;
use tinyevm_chain::{Blockchain, TemplateConfig};
use tinyevm_channel::contracts::{
    payment_channel_init_code, payment_channel_runtime_code, record_payment_calldata,
};
use tinyevm_channel::gateway::GATEWAY_ADDR;
use tinyevm_channel::{pump_contention_free, ChannelEndpoint, ChannelRegistration};
use tinyevm_crypto::keccak256;
use tinyevm_crypto::secp256k1::{verify_batch, BatchItem};
use tinyevm_device::sensors::peripheral_id;
use tinyevm_device::{Device, EnergyMeter, PowerState};
use tinyevm_evm::{Evm, EvmConfig, GasMode};
use tinyevm_net::{Link, LinkConfig, MediumError, NodeAddr, Radio, TransferReport};
use tinyevm_types::{Address, Wei, H256, U256};
use tinyevm_wire::{Message, SignedPayment};

use crate::measure::{
    mean, median, micros, millis, tail, time_each_us, time_per_call_us, Metrics, Source,
};

/// One message a capture saw on the air.
pub struct Captured {
    pub from: NodeAddr,
    pub to: NodeAddr,
    pub wire: Vec<u8>,
    pub report: TransferReport,
}

/// A pass-through radio that records every message it conveys.
struct CaptureRadio {
    link: Link,
    log: Vec<Captured>,
}

impl Radio for CaptureRadio {
    fn convey(
        &mut self,
        from: NodeAddr,
        to: NodeAddr,
        message: &[u8],
    ) -> Result<(Vec<u8>, TransferReport), MediumError> {
        let (delivered, report) = self.link.convey(from, to, message)?;
        self.log.push(Captured {
            from,
            to,
            wire: message.to_vec(),
            report: report.clone(),
        });
        Ok((delivered, report))
    }
}

/// Which deployment a capture session reproduces.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// The smart-parking pair (two-party endpoint profile).
    TwoParty,
    /// One fleet sensor and the gateway (fleet endpoint profile).
    Fleet,
}

/// A two-endpoint session and the wire messages of each payment round.
pub struct Capture {
    pub sender: ChannelEndpoint,
    pub receiver: ChannelEndpoint,
    /// The messages of each payment round, in order.
    pub rounds: Vec<Vec<Captured>>,
    /// The decoded payment of each round.
    pub payments: Vec<SignedPayment>,
    /// Host µs of each round, capture included (the recording is a `Vec`
    /// push per message).
    pub round_us: Vec<f64>,
}

fn fail(error: impl std::fmt::Display) -> String {
    format!("capture session: {error}")
}

/// Opens a channel of the given shape over a lossless TSCH link and pays
/// `payments` rounds of `amount(i)`, recording every message.
pub fn capture(
    shape: Shape,
    payments: usize,
    amount: impl Fn(u64) -> Wei,
) -> Result<Capture, String> {
    let (mut sender, mut receiver) = match shape {
        Shape::TwoParty => (
            ChannelEndpoint::two_party_sender("smart-car", NodeAddr::new(1)),
            ChannelEndpoint::two_party_receiver("parking-sensor", NodeAddr::new(2)),
        ),
        Shape::Fleet => (
            ChannelEndpoint::fleet_sensor("sensor-01", NodeAddr::new(1)),
            ChannelEndpoint::gateway("gateway", GATEWAY_ADDR),
        ),
    };
    let deposit = Wei::from_eth(1);
    let mut chain = Blockchain::new();
    chain.fund(sender.account(), deposit.saturating_add(Wei::from_eth(1)));
    let template = chain
        .publish_template(TemplateConfig {
            sender: sender.account(),
            receiver: receiver.account(),
            deposit,
            challenge_period_blocks: 10,
        })
        .map_err(fail)?;
    let channel_id = chain
        .create_payment_channel(sender.account(), template)
        .map_err(fail)?;
    let registration = ChannelRegistration {
        template,
        channel_id,
        sender: sender.account(),
        receiver: receiver.account(),
        deposit_cap: deposit,
        anchor: chain
            .template(&template)
            .map(|t| t.side_chain_root().hash)
            .unwrap_or(H256::ZERO),
    };
    receiver
        .expect_channel(sender.addr(), registration.clone())
        .map_err(fail)?;
    sender.open(receiver.addr(), registration).map_err(fail)?;
    let mut radio = CaptureRadio {
        link: Link::between(sender.addr(), receiver.addr(), LinkConfig::default()),
        log: Vec::new(),
    };
    pump_contention_free(&mut radio, &mut sender, &mut receiver).map_err(fail)?;
    let mut rounds = Vec::with_capacity(payments);
    let mut round_us = Vec::with_capacity(payments);
    for index in 0..payments {
        radio.log.clear();
        let start = Instant::now();
        sender
            .pay(receiver.addr(), amount(index as u64))
            .map_err(fail)?;
        pump_contention_free(&mut radio, &mut sender, &mut receiver).map_err(fail)?;
        round_us.push(micros(start.elapsed()));
        rounds.push(std::mem::take(&mut radio.log));
    }
    let payments: Vec<SignedPayment> = rounds
        .iter()
        .flatten()
        .filter_map(|captured| match Message::from_wire(&captured.wire) {
            Ok(Message::Payment(payment)) => Some(payment),
            _ => None,
        })
        .collect();
    if payments.is_empty() {
        return Err("capture session carried no payment".to_string());
    }
    Ok(Capture {
        sender,
        receiver,
        rounds,
        payments,
        round_us,
    })
}

/// Host-clock replays of every layer a payment round crosses.
#[derive(Debug, Clone)]
pub struct Replayed {
    pub sign_us: f64,
    pub recover_us: f64,
    pub batch_verify_us_per_sig: f64,
    pub encode_us_per_op: f64,
    pub decode_us_per_op: f64,
    pub convey_us_per_op: f64,
    pub call_us: f64,
    pub call_gas: f64,
    pub frames_per_op: f64,
    pub retransmissions_per_op: f64,
    pub airtime_ms_per_op: f64,
}

impl Capture {
    fn digests(&self) -> Vec<[u8; 32]> {
        self.payments
            .iter()
            .map(|payment| keccak256(&payment.encode_payload()))
            .collect()
    }

    /// Mean over rounds of the sum of `f` over the round's transfers.
    fn per_round(&self, f: impl Fn(&TransferReport) -> f64) -> f64 {
        let sums: Vec<f64> = self
            .rounds
            .iter()
            .map(|round| round.iter().map(|c| f(&c.report)).sum())
            .collect();
        mean(&sums)
    }

    /// Replays crypto, wire, net and EVM calls on the captured inputs;
    /// `reps` sets how many calls each median or mean covers.
    pub fn replay(&mut self, reps: usize) -> Result<Replayed, String> {
        let digests = self.digests();
        let key = *self.sender.device().private_key();
        let public_key = self.sender.device().public_key();
        let n = digests.len();
        let sign_us = median(&time_each_us(reps, |i| {
            black_box(key.sign_prehashed(&digests[i % n]));
        }));
        let mut recovered = true;
        let recover_us = median(&time_each_us(reps, |i| {
            let payment = &self.payments[i % n];
            recovered &= payment.signature.recover(&digests[i % n]).is_ok();
        }));
        let items: Vec<BatchItem> = self
            .payments
            .iter()
            .zip(&digests)
            .map(|(payment, digest)| BatchItem {
                digest: *digest,
                signature: payment.signature,
                public_key,
            })
            .collect();
        let mut batch_ok = true;
        let batch_reps = (reps / n).max(3);
        let batch_us = median(&time_each_us(batch_reps, |_| {
            batch_ok &= verify_batch(&items);
        }));
        if !(recovered && batch_ok) {
            return Err("replayed signatures failed to verify".to_string());
        }

        let rounds = self.rounds.len();
        let messages: Vec<Vec<Message>> = self
            .rounds
            .iter()
            .map(|round| {
                round
                    .iter()
                    .map(|c| Message::from_wire(&c.wire).map_err(fail))
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<_, _>>()?;
        let encode_us_per_op = time_per_call_us(reps, |i| {
            for message in &messages[i % rounds] {
                black_box(message.to_wire());
            }
        });
        let decode_us_per_op = time_per_call_us(reps, |i| {
            for captured in &self.rounds[i % rounds] {
                black_box(Message::from_wire(&captured.wire).ok());
            }
        });
        let mut link = Link::between(
            self.sender.addr(),
            self.receiver.addr(),
            LinkConfig::default(),
        );
        let convey_us_per_op = time_per_call_us(reps, |i| {
            for captured in &self.rounds[i % rounds] {
                black_box(link.convey(captured.from, captured.to, &captured.wire).ok());
            }
        });

        let peer = self.receiver.addr();
        let contract = self
            .sender
            .contract(peer)
            .ok_or("capture session has no channel contract")?;
        let (sequence, cumulative) = self
            .sender
            .channel(peer)
            .map(|channel| (channel.sequence(), channel.cumulative()))
            .ok_or("capture session has no channel")?;
        let calldata: Vec<Vec<u8>> = (1..=reps as u64)
            .map(|k| {
                record_payment_calldata(
                    sequence + k,
                    cumulative.saturating_add(Wei::from(k)).amount(),
                )
            })
            .collect();
        let device = self.sender.device_mut();
        let mut accepted = true;
        let call_us = median(&time_each_us(reps, |i| {
            let (_, success, _) = device.call_local_contract(contract, U256::ZERO, &calldata[i]);
            accepted &= success;
        }));
        if !accepted {
            return Err("replayed record_payment calls were rejected".to_string());
        }
        let mut metered =
            Evm::new(EvmConfig::cc2538().with_gas_mode(GasMode::Metered { limit: 10_000_000 }));
        let call_gas = metered
            .execute(&payment_channel_runtime_code(), &calldata[0])
            .map(|result| result.metrics.gas_used as f64)
            .map_err(|error| format!("metered record_payment trapped: {error}"))?;

        Ok(Replayed {
            sign_us,
            recover_us,
            batch_verify_us_per_sig: batch_us / n as f64,
            encode_us_per_op,
            decode_us_per_op,
            convey_us_per_op,
            call_us,
            call_gas,
            frames_per_op: self.per_round(|r| r.frames as f64),
            retransmissions_per_op: self.per_round(|r| f64::from(r.retransmissions)),
            airtime_ms_per_op: self.per_round(|r| millis(r.tx_time)),
        })
    }
}

/// Host µs of each channel-contract deployment
/// (`Device::create_local_contract`), the deploy every channel open runs.
pub fn channel_deploy_us(reps: usize) -> Result<Vec<f64>, String> {
    let init = payment_channel_init_code(peripheral_id::TEMPERATURE, 1);
    let mut device = Device::openmote_b("replay");
    let mut deployed = true;
    let times = time_each_us(reps, |_| {
        deployed &= device.create_local_contract(&init).is_ok();
    });
    if deployed {
        Ok(times)
    } else {
        Err("replayed channel-contract deployment failed".to_string())
    }
}

/// Host µs of each `analyze` of the channel contract's init and runtime
/// code.
pub fn channel_analyze_us(reps: usize) -> Vec<f64> {
    let codes = [
        payment_channel_runtime_code(),
        payment_channel_init_code(peripheral_id::TEMPERATURE, 1),
    ];
    time_each_us(reps, |i| {
        black_box(analyze(&codes[i % codes.len()]));
    })
}

/// Host µs per `EnergyMeter::record` with `length` timeline entries
/// retained. States alternate so every record appends a new entry; at the
/// timeline cap each one also evicts the oldest.
pub fn meter_record_us(length: usize, reps: usize) -> f64 {
    let states = [PowerState::CpuActive, PowerState::Lpm2];
    let mut meter = EnergyMeter::cc2538();
    for i in 0..length {
        meter.record(states[i % 2], Duration::from_micros(1));
    }
    time_per_call_us(reps, |i| {
        meter.record(states[(length + i) % 2], Duration::from_micros(1));
    })
}

/// Host µs of each `Blockchain::publish_template` on a fresh chain.
pub fn publish_template_us(reps: usize) -> Result<Vec<f64>, String> {
    let mut chain = Blockchain::new();
    let receiver = Address::from_low_u64(0xBEEF);
    let senders: Vec<Address> = (0..reps as u64)
        .map(|i| Address::from_low_u64(0x1000 + i))
        .collect();
    for sender in &senders {
        chain.fund(*sender, Wei::from_eth(1));
    }
    let mut published = true;
    let times = time_each_us(reps, |i| {
        published &= chain
            .publish_template(TemplateConfig {
                sender: senders[i],
                receiver,
                deposit: Wei::from(1_000u64),
                challenge_period_blocks: 10,
            })
            .is_ok();
    });
    if published {
        Ok(times)
    } else {
        Err("replayed template publication failed".to_string())
    }
}

/// Calls one payment makes into each layer, counted from the devices'
/// activity labels over the timed phase.
pub struct PerOp {
    pub sign: f64,
    pub verify: f64,
    pub contract_calls: f64,
    pub activities: f64,
}

/// Pushes the metrics a payment workload's traced run takes from the
/// replays: crypto, EVM, analysis, meter record, wire, convey, template
/// publication, and the channel's inclusive and self time. `pay_us` are the
/// inclusive host µs of the traced payments; `meter_us` is the replayed
/// `EnergyMeter::record` at the workload's timeline length. Returns the
/// per-payment accounting line; the self time is what no replayed layer
/// accounts for (on `fleet_csma` it includes the scheduler and the medium).
pub fn push_payment_layers(
    layers: &mut Metrics,
    r: &Replayed,
    per_op: &PerOp,
    pay_us: &[f64],
    meter_us: f64,
    tiny: bool,
) -> Result<String, String> {
    let reps = if tiny { 8 } else { 256 };
    let deploys = channel_deploy_us(if tiny { 4 } else { 64 })?;
    let publish = publish_template_us(if tiny { 4 } else { 64 })?;
    let inclusive = mean(pay_us);
    let crypto_us = per_op.sign * r.sign_us + per_op.verify * r.recover_us;
    let evm_us = per_op.contract_calls * r.call_us;
    let wire_us = r.encode_us_per_op + r.decode_us_per_op;
    let meter_total = per_op.activities * meter_us;
    let self_us = inclusive - crypto_us - evm_us - wire_us - r.convey_us_per_op - meter_total;
    layers.push("crypto.sign_us", "us", r.sign_us, Source::Replayed);
    layers.push("crypto.recover_us", "us", r.recover_us, Source::Replayed);
    layers.push(
        "crypto.batch_verify_us_per_sig",
        "us",
        r.batch_verify_us_per_sig,
        Source::Replayed,
    );
    layers.push(
        "crypto.calls_per_op",
        "count",
        per_op.sign + per_op.verify,
        Source::Count,
    );
    layers.push(
        "crypto.share_pct",
        "%",
        crypto_us / inclusive.max(1e-9) * 100.0,
        Source::Replayed,
    );
    layers.push("evm.call_us", "us", r.call_us, Source::Replayed);
    layers.push(
        "evm.deploy_us_p50",
        "us",
        median(&deploys),
        Source::Replayed,
    );
    layers.push(
        "evm.deploy_us_p99",
        "us",
        tail(&deploys).0,
        Source::Replayed,
    );
    layers.push(
        "evm.gas_per_op",
        "gas",
        r.call_gas * per_op.contract_calls,
        Source::Count,
    );
    layers.push(
        "analysis.analyze_us_p50",
        "us",
        median(&channel_analyze_us(reps)),
        Source::Replayed,
    );
    layers.push("device.meter_record_us", "us", meter_us, Source::Replayed);
    layers.push("wire.encode_us", "us", r.encode_us_per_op, Source::Replayed);
    layers.push("wire.decode_us", "us", r.decode_us_per_op, Source::Replayed);
    layers.push("net.convey_us", "us", r.convey_us_per_op, Source::Replayed);
    layers.push("net.frames_per_op", "count", r.frames_per_op, Source::Count);
    layers.push(
        "chain.publish_template_us",
        "us",
        median(&publish),
        Source::Replayed,
    );
    layers.push("channel.pay_us_p50", "us", median(pay_us), Source::Span);
    layers.push("channel.pay_us_p99", "us", tail(pay_us).0, Source::Span);
    layers.push("channel.self_us", "us", self_us, Source::Span);
    Ok(format!(
        "accounting host us per payment: inclusive {inclusive:.1} = crypto {crypto_us:.1} \
         ({} sign x {:.1} + {} recover x {:.1}) + evm {evm_us:.1} ({} calls x {:.1}) \
         + wire {wire_us:.1} + net {:.1} + meter {meter_total:.1} (~{} records x {meter_us:.3}) \
         + channel self {self_us:.1}",
        per_op.sign,
        r.sign_us,
        per_op.verify,
        r.recover_us,
        per_op.contract_calls,
        r.call_us,
        r.convey_us_per_op,
        per_op.activities,
    ))
}
