//! The per-node payment-channel state machine.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Weak};

use tinyevm_crypto::secp256k1::{PrivateKey, PublicKey, Signature, VerifyingKey};
use tinyevm_types::{Address, Wei, H256};

use tinyevm_chain::{ChannelState, CommitEnvelope};
use tinyevm_wire::{ChannelSnapshot, EndpointRole, WireError};

use crate::payment::{PaymentError, SignedPayment};
use crate::sidechain::SideChainLog;

/// Which side of the channel this node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelRole {
    /// The paying party (the vehicle).
    Sender,
    /// The receiving party (the parking sensor).
    Receiver,
}

/// Channel lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelStatus {
    /// Payments may be exchanged.
    Open,
    /// A final state has been produced; no more payments.
    Closed,
}

/// Static parameters agreed when the channel is created from the template.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelConfig {
    /// On-chain template address.
    pub template: Address,
    /// Channel identifier (template logical-clock tick).
    pub channel_id: u64,
    /// The paying party's address.
    pub sender: Address,
    /// The receiving party's address.
    pub receiver: Address,
    /// Maximum cumulative amount the channel may pay (bounded by the
    /// template deposit).
    pub deposit_cap: Wei,
}

/// Errors from channel operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChannelError {
    /// A payment failed validation.
    Payment(PaymentError),
    /// The channel is not open.
    NotOpen,
    /// Only the given role may perform this operation.
    WrongRole(ChannelRole),
}

impl core::fmt::Display for ChannelError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ChannelError::Payment(error) => write!(f, "invalid payment: {error}"),
            ChannelError::NotOpen => write!(f, "channel is not open"),
            ChannelError::WrongRole(role) => write!(f, "operation requires the {role:?} role"),
        }
    }
}

impl std::error::Error for ChannelError {}

impl From<PaymentError> for ChannelError {
    fn from(error: PaymentError) -> Self {
        ChannelError::Payment(error)
    }
}

/// One endpoint's view of an off-chain payment channel.
///
/// Both parties run the same state machine; the [`ChannelRole`] decides who
/// may create payments and who accepts them. All validation — logical-clock
/// monotonicity, non-shrinking cumulative amounts, the deposit cap and the
/// payer's signature — happens here, which is exactly the validation the
/// paper's security analysis relies on for fraud detection. Signatures from
/// the peer, payments and acknowledgements alike, go through one check,
/// which recovers the peer's first signature and checks later ones
/// against the key it learned ([`VerifyingKey`]).
///
/// # Example
///
/// ```
/// use tinyevm_channel::{ChannelConfig, ChannelRole, PaymentChannel};
/// use tinyevm_crypto::secp256k1::PrivateKey;
/// use tinyevm_types::{Address, H256, Wei};
///
/// let car = PrivateKey::from_seed(b"car");
/// let lot = PrivateKey::from_seed(b"lot");
/// let config = ChannelConfig {
///     template: Address::from_low_u64(1),
///     channel_id: 1,
///     sender: car.eth_address(),
///     receiver: lot.eth_address(),
///     deposit_cap: Wei::from(1_000u64),
/// };
/// let mut sender_side = PaymentChannel::new(config.clone(), ChannelRole::Sender);
/// let mut receiver_side = PaymentChannel::new(config, ChannelRole::Receiver);
///
/// let payment = sender_side
///     .create_payment(&car, Wei::from(100u64), H256::ZERO)
///     .unwrap();
/// receiver_side.accept_payment(&payment).unwrap();
/// assert_eq!(receiver_side.cumulative(), Wei::from(100u64));
/// ```
#[derive(Debug, Clone)]
pub struct PaymentChannel {
    config: ChannelConfig,
    role: ChannelRole,
    status: ChannelStatus,
    sequence: u64,
    cumulative: Wei,
    last_sensor_hash: H256,
    payments_seen: u64,
    /// The counterparty's key, learned from its first signature that
    /// verified. Shared with clones and with other channels to that key.
    peer_key: Option<Arc<VerifyingKey>>,
}

thread_local! {
    /// The combs this thread's channels have learned. Channels whose
    /// counterparty holds the same key share one comb: every sensor of a
    /// simulated fleet learns its one gateway's key.
    static LEARNED_KEYS: RefCell<LearnedKeys> = const {
        RefCell::new(LearnedKeys {
            combs: BTreeMap::new(),
            sweep_at: 0,
        })
    };
}

/// Weak handles to learned combs by key, so a comb lives exactly as long
/// as some channel holds it.
struct LearnedKeys {
    combs: BTreeMap<[u8; 64], Weak<VerifyingKey>>,
    /// Size at which handles to dropped combs are next swept out: twice
    /// what the last sweep left, so sweeping costs O(1) per insert on
    /// average.
    sweep_at: usize,
}

impl LearnedKeys {
    /// A live channel's comb for `key`, or a new one.
    fn comb(&mut self, key: PublicKey) -> Arc<VerifyingKey> {
        let encoded = key.to_uncompressed();
        if let Some(shared) = self.combs.get(&encoded).and_then(Weak::upgrade) {
            return shared;
        }
        if self.combs.len() >= self.sweep_at {
            self.combs.retain(|_, comb| comb.strong_count() > 0);
            self.sweep_at = 2 * self.combs.len().max(16);
        }
        let comb = Arc::new(VerifyingKey::new(key));
        self.combs.insert(encoded, Arc::downgrade(&comb));
        comb
    }
}

impl PaymentChannel {
    /// Opens a channel endpoint.
    pub fn new(config: ChannelConfig, role: ChannelRole) -> Self {
        PaymentChannel {
            config,
            role,
            status: ChannelStatus::Open,
            sequence: 0,
            cumulative: Wei::ZERO,
            last_sensor_hash: H256::ZERO,
            payments_seen: 0,
            peer_key: None,
        }
    }

    /// The channel parameters.
    pub fn config(&self) -> &ChannelConfig {
        &self.config
    }

    /// This endpoint's role.
    pub fn role(&self) -> ChannelRole {
        self.role
    }

    /// Current lifecycle status.
    pub fn status(&self) -> ChannelStatus {
        self.status
    }

    /// Highest sequence number seen or produced.
    pub fn sequence(&self) -> u64 {
        self.sequence
    }

    /// Cumulative amount owed to the receiver.
    pub fn cumulative(&self) -> Wei {
        self.cumulative
    }

    /// Number of payments created or accepted.
    pub fn payments_seen(&self) -> u64 {
        self.payments_seen
    }

    /// Sensor-data hash of the latest payment (zero before the first).
    pub fn last_sensor_hash(&self) -> H256 {
        self.last_sensor_hash
    }

    /// Captures this endpoint plus its side-chain log and the peer
    /// acknowledgement signatures it has collected as a wire-format
    /// [`ChannelSnapshot`] — what a device writes to flash before a power
    /// cycle.
    pub fn snapshot(&self, log: &SideChainLog, peer_acks: &[Signature]) -> ChannelSnapshot {
        ChannelSnapshot {
            template: self.config.template,
            channel_id: self.config.channel_id,
            sender: self.config.sender,
            receiver: self.config.receiver,
            deposit_cap: self.config.deposit_cap,
            role: match self.role {
                ChannelRole::Sender => EndpointRole::Sender,
                ChannelRole::Receiver => EndpointRole::Receiver,
            },
            open: self.status == ChannelStatus::Open,
            sequence: self.sequence,
            cumulative: self.cumulative,
            last_sensor_hash: self.last_sensor_hash,
            payments_seen: self.payments_seen,
            anchor: log.anchor(),
            log: log.export_entries(),
            peer_acks: peer_acks.to_vec(),
        }
    }

    /// Rebuilds an endpoint, its side-chain log and the collected peer
    /// acknowledgements from a snapshot. The counterparty's key is not
    /// part of the snapshot: the restored channel learns it again from the
    /// next signature it verifies.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Value`] when the snapshot's side-chain log does
    /// not verify — a tampered or corrupted snapshot must not resurrect a
    /// channel.
    pub fn restore(
        snapshot: &ChannelSnapshot,
    ) -> Result<(Self, SideChainLog, Vec<Signature>), WireError> {
        let log = SideChainLog::from_parts(snapshot.anchor, &snapshot.log)
            .ok_or(WireError::Value("side-chain log does not verify"))?;
        let channel = PaymentChannel {
            config: ChannelConfig {
                template: snapshot.template,
                channel_id: snapshot.channel_id,
                sender: snapshot.sender,
                receiver: snapshot.receiver,
                deposit_cap: snapshot.deposit_cap,
            },
            role: match snapshot.role {
                EndpointRole::Sender => ChannelRole::Sender,
                EndpointRole::Receiver => ChannelRole::Receiver,
            },
            status: if snapshot.open {
                ChannelStatus::Open
            } else {
                ChannelStatus::Closed
            },
            sequence: snapshot.sequence,
            cumulative: snapshot.cumulative,
            last_sensor_hash: snapshot.last_sensor_hash,
            payments_seen: snapshot.payments_seen,
            peer_key: None,
        };
        Ok((channel, log, snapshot.peer_acks.clone()))
    }

    /// Remaining headroom under the deposit cap.
    pub fn remaining(&self) -> Wei {
        self.config.deposit_cap.saturating_sub(self.cumulative)
    }

    /// Creates the next payment, increasing the cumulative amount by
    /// `increment` (sender side only).
    ///
    /// # Errors
    ///
    /// Returns [`ChannelError::WrongRole`] on the receiver side,
    /// [`ChannelError::NotOpen`] after closing, and
    /// [`ChannelError::Payment`] when the increment would exceed the
    /// deposit cap.
    pub fn create_payment(
        &mut self,
        payer_key: &PrivateKey,
        increment: Wei,
        sensor_data_hash: H256,
    ) -> Result<SignedPayment, ChannelError> {
        self.create_payment_with(increment, sensor_data_hash, |payload| {
            payer_key.sign_message(payload)
        })
    }

    /// [`PaymentChannel::create_payment`] with the signature produced by
    /// `sign`, which receives the payload encoding and must sign its
    /// Keccak-256 digest with the payer's key ([`SignedPayment::create_with`]).
    /// `sign` runs once, and only after every check has passed.
    ///
    /// # Errors
    ///
    /// As [`PaymentChannel::create_payment`].
    pub fn create_payment_with(
        &mut self,
        increment: Wei,
        sensor_data_hash: H256,
        sign: impl FnOnce(&[u8]) -> Signature,
    ) -> Result<SignedPayment, ChannelError> {
        if self.role != ChannelRole::Sender {
            return Err(ChannelError::WrongRole(ChannelRole::Sender));
        }
        if self.status != ChannelStatus::Open {
            return Err(ChannelError::NotOpen);
        }
        let new_cumulative = self.cumulative.saturating_add(increment);
        if new_cumulative.amount() > self.config.deposit_cap.amount() {
            return Err(ChannelError::Payment(PaymentError::ExceedsDeposit {
                offered: new_cumulative,
                cap: self.config.deposit_cap,
            }));
        }
        let sequence = self.sequence + 1;
        let payment = SignedPayment::create_with(
            self.config.template,
            self.config.channel_id,
            sequence,
            new_cumulative,
            sensor_data_hash,
            sign,
        );
        self.sequence = sequence;
        self.cumulative = new_cumulative;
        self.last_sensor_hash = sensor_data_hash;
        self.payments_seen += 1;
        Ok(payment)
    }

    /// Validates and applies a payment received from the peer (receiver
    /// side only).
    ///
    /// The payer's signature is checked first, before any channel state is
    /// consulted, so every other error (closed channel, wrong channel,
    /// stale sequence, ...) vouches for a payment the channel's sender
    /// really signed.
    ///
    /// # Errors
    ///
    /// Returns [`ChannelError::Payment`] describing which check failed.
    pub fn accept_payment(&mut self, payment: &SignedPayment) -> Result<(), ChannelError> {
        if self.role != ChannelRole::Receiver {
            return Err(ChannelError::WrongRole(ChannelRole::Receiver));
        }
        self.verify_counterparty(&payment.digest(), &payment.signature)?;
        if self.status != ChannelStatus::Open {
            return Err(ChannelError::NotOpen);
        }
        if payment.template != self.config.template || payment.channel_id != self.config.channel_id
        {
            return Err(ChannelError::Payment(PaymentError::WrongChannel));
        }
        if payment.sequence <= self.sequence {
            return Err(ChannelError::Payment(PaymentError::StaleSequence {
                current: self.sequence,
                offered: payment.sequence,
            }));
        }
        if payment.cumulative < self.cumulative {
            return Err(ChannelError::Payment(PaymentError::ShrinkingAmount {
                current: self.cumulative,
                offered: payment.cumulative,
            }));
        }
        if payment.cumulative.amount() > self.config.deposit_cap.amount() {
            return Err(ChannelError::Payment(PaymentError::ExceedsDeposit {
                offered: payment.cumulative,
                cap: self.config.deposit_cap,
            }));
        }
        self.sequence = payment.sequence;
        self.cumulative = payment.cumulative;
        self.last_sensor_hash = payment.sensor_data_hash;
        self.payments_seen += 1;
        Ok(())
    }

    /// Checks that `signature` signs `digest` with the counterparty's key:
    /// the sender's on the receiver side (payments), the receiver's on the
    /// sender side (acknowledgements).
    ///
    /// Until a signature from the counterparty has verified, this recovers
    /// the signer and compares its address with the configured one; the
    /// first that matches installs the recovered key and its comb (a
    /// [`VerifyingKey`], shared with this thread's other channels to the
    /// same key), so a forgery never installs one. Every later
    /// signature is checked against that key with
    /// [`VerifyingKey::verify_recoverable`], which accepts exactly what
    /// recover-and-compare accepts for about half the host time.
    ///
    /// # Errors
    ///
    /// Returns [`PaymentError::BadSignature`] for any other signature.
    pub(crate) fn verify_counterparty(
        &mut self,
        digest: &[u8; 32],
        signature: &Signature,
    ) -> Result<(), PaymentError> {
        if let Some(key) = &self.peer_key {
            return if key.verify_recoverable(digest, signature) {
                Ok(())
            } else {
                Err(PaymentError::BadSignature)
            };
        }
        let counterparty = match self.role {
            ChannelRole::Sender => self.config.receiver,
            ChannelRole::Receiver => self.config.sender,
        };
        match signature.recover(digest) {
            Ok(key) if key.eth_address() == counterparty => {
                self.peer_key = Some(LEARNED_KEYS.with(|learned| learned.borrow_mut().comb(key)));
                Ok(())
            }
            _ => Err(PaymentError::BadSignature),
        }
    }

    /// The final state this endpoint would commit if the channel closed
    /// now, without changing the channel (used to validate a peer's close
    /// request before accepting it).
    pub fn closing_state(&self) -> ChannelState {
        ChannelState {
            template: self.config.template,
            channel_id: self.config.channel_id,
            sequence: self.sequence + 1,
            total_to_receiver: self.cumulative,
            sensor_data_hash: self.last_sensor_hash,
        }
    }

    /// Closes the channel and produces the final state both parties will
    /// sign for the on-chain commit.
    pub fn close(&mut self) -> ChannelState {
        self.status = ChannelStatus::Closed;
        self.closing_state()
    }

    /// Signs a final state with this endpoint's key; combining both
    /// parties' signatures yields the [`CommitEnvelope`] that goes on-chain.
    pub fn sign_state(
        key: &PrivateKey,
        state: &ChannelState,
    ) -> tinyevm_crypto::secp256k1::Signature {
        key.sign_prehashed(&state.digest())
    }

    /// Assembles the dual-signed commit envelope.
    pub fn envelope(
        state: ChannelState,
        sender_signature: tinyevm_crypto::secp256k1::Signature,
        receiver_signature: tinyevm_crypto::secp256k1::Signature,
    ) -> CommitEnvelope {
        CommitEnvelope {
            state,
            sender_signature,
            receiver_signature,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Pair {
        car: PrivateKey,
        lot: PrivateKey,
        sender: PaymentChannel,
        receiver: PaymentChannel,
    }

    fn pair(cap: u64) -> Pair {
        let car = PrivateKey::from_seed(b"car");
        let lot = PrivateKey::from_seed(b"lot");
        let config = ChannelConfig {
            template: Address::from_low_u64(0xAA),
            channel_id: 1,
            sender: car.eth_address(),
            receiver: lot.eth_address(),
            deposit_cap: Wei::from(cap),
        };
        Pair {
            sender: PaymentChannel::new(config.clone(), ChannelRole::Sender),
            receiver: PaymentChannel::new(config, ChannelRole::Receiver),
            car,
            lot,
        }
    }

    #[test]
    fn payments_flow_sender_to_receiver() {
        let mut p = pair(1000);
        for round in 1..=5u64 {
            let payment = p
                .sender
                .create_payment(&p.car, Wei::from(100u64), H256::from_low_u64(round))
                .unwrap();
            assert_eq!(payment.sequence, round);
            assert_eq!(payment.cumulative, Wei::from(100 * round));
            p.receiver.accept_payment(&payment).unwrap();
        }
        assert_eq!(p.receiver.cumulative(), Wei::from(500u64));
        assert_eq!(p.receiver.sequence(), 5);
        assert_eq!(p.receiver.payments_seen(), 5);
        assert_eq!(p.sender.remaining(), Wei::from(500u64));
    }

    #[test]
    fn roles_are_enforced() {
        let mut p = pair(1000);
        assert!(matches!(
            p.receiver
                .create_payment(&p.lot, Wei::from(1u64), H256::ZERO),
            Err(ChannelError::WrongRole(ChannelRole::Sender))
        ));
        let payment = p
            .sender
            .create_payment(&p.car, Wei::from(1u64), H256::ZERO)
            .unwrap();
        assert!(matches!(
            p.sender.accept_payment(&payment),
            Err(ChannelError::WrongRole(ChannelRole::Receiver))
        ));
    }

    #[test]
    fn deposit_cap_is_enforced_on_both_sides() {
        let mut p = pair(250);
        p.sender
            .create_payment(&p.car, Wei::from(200u64), H256::ZERO)
            .unwrap();
        // Sender-side check.
        assert!(matches!(
            p.sender
                .create_payment(&p.car, Wei::from(100u64), H256::ZERO),
            Err(ChannelError::Payment(PaymentError::ExceedsDeposit { .. }))
        ));
        // Receiver-side check against a hand-crafted over-cap payment.
        let over = SignedPayment::create(
            &p.car,
            Address::from_low_u64(0xAA),
            1,
            9,
            Wei::from(400u64),
            H256::ZERO,
        );
        assert!(matches!(
            p.receiver.accept_payment(&over),
            Err(ChannelError::Payment(PaymentError::ExceedsDeposit { .. }))
        ));
    }

    #[test]
    fn stale_and_shrinking_payments_are_rejected() {
        let mut p = pair(1000);
        let first = p
            .sender
            .create_payment(&p.car, Wei::from(100u64), H256::ZERO)
            .unwrap();
        let second = p
            .sender
            .create_payment(&p.car, Wei::from(100u64), H256::ZERO)
            .unwrap();
        p.receiver.accept_payment(&second).unwrap();
        // Replay of the earlier payment is stale (lower sequence).
        assert!(matches!(
            p.receiver.accept_payment(&first),
            Err(ChannelError::Payment(PaymentError::StaleSequence { .. }))
        ));
        // A forged payment with a higher sequence but lower amount shrinks.
        let shrinking = SignedPayment::create(
            &p.car,
            Address::from_low_u64(0xAA),
            1,
            10,
            Wei::from(50u64),
            H256::ZERO,
        );
        assert!(matches!(
            p.receiver.accept_payment(&shrinking),
            Err(ChannelError::Payment(PaymentError::ShrinkingAmount { .. }))
        ));
    }

    #[test]
    fn payments_from_the_wrong_key_or_channel_are_rejected() {
        let mut p = pair(1000);
        let mallory = PrivateKey::from_seed(b"mallory");
        let forged = SignedPayment::create(
            &mallory,
            Address::from_low_u64(0xAA),
            1,
            1,
            Wei::from(10u64),
            H256::ZERO,
        );
        assert!(matches!(
            p.receiver.accept_payment(&forged),
            Err(ChannelError::Payment(PaymentError::BadSignature))
        ));
        let wrong_channel = SignedPayment::create(
            &p.car,
            Address::from_low_u64(0xAA),
            2,
            1,
            Wei::from(10u64),
            H256::ZERO,
        );
        assert!(matches!(
            p.receiver.accept_payment(&wrong_channel),
            Err(ChannelError::Payment(PaymentError::WrongChannel))
        ));
    }

    #[test]
    fn a_restored_receiver_learns_the_payer_key_again() {
        let mut p = pair(1000);
        let first = p
            .sender
            .create_payment(&p.car, Wei::from(100u64), H256::ZERO)
            .unwrap();
        p.receiver.accept_payment(&first).unwrap();
        let snapshot = p.receiver.snapshot(&SideChainLog::new(H256::ZERO), &[]);
        let (mut restored, _, _) = PaymentChannel::restore(&snapshot).unwrap();

        // The restored channel starts without the key: a forged first
        // message is rejected by recovery and installs nothing.
        let mallory = PrivateKey::from_seed(b"mallory");
        let forged = SignedPayment::create(
            &mallory,
            Address::from_low_u64(0xAA),
            1,
            2,
            Wei::from(900u64),
            H256::ZERO,
        );
        assert!(matches!(
            restored.accept_payment(&forged),
            Err(ChannelError::Payment(PaymentError::BadSignature))
        ));
        let second = p
            .sender
            .create_payment(&p.car, Wei::from(100u64), H256::ZERO)
            .unwrap();
        restored.accept_payment(&second).unwrap();
        assert_eq!(restored.cumulative(), Wei::from(200u64));
        let third = p
            .sender
            .create_payment(&p.car, Wei::from(100u64), H256::ZERO)
            .unwrap();
        restored.accept_payment(&third).unwrap();
        assert!(matches!(
            restored.accept_payment(&forged),
            Err(ChannelError::Payment(PaymentError::BadSignature))
        ));
        assert_eq!(restored.cumulative(), Wei::from(300u64));
    }

    #[test]
    fn channels_to_the_same_peer_share_one_comb() {
        let mut p = pair(1000);
        let mut other = p.receiver.clone();
        let payment = p
            .sender
            .create_payment(&p.car, Wei::from(100u64), H256::ZERO)
            .unwrap();
        p.receiver.accept_payment(&payment).unwrap();
        other.accept_payment(&payment).unwrap();
        let comb = p.receiver.peer_key.clone().unwrap();
        assert!(Arc::ptr_eq(&comb, other.peer_key.as_ref().unwrap()));
        // The cache holds no comb alive by itself.
        let handle = Arc::downgrade(&comb);
        drop((comb, p.receiver, other));
        assert_eq!(handle.strong_count(), 0);
    }

    #[test]
    fn closing_produces_a_committable_envelope() {
        let mut p = pair(1000);
        let payment = p
            .sender
            .create_payment(&p.car, Wei::from(300u64), H256::from_low_u64(7))
            .unwrap();
        p.receiver.accept_payment(&payment).unwrap();

        let state = p.receiver.close();
        assert_eq!(state.total_to_receiver, Wei::from(300u64));
        assert_eq!(state.sequence, 2); // close advances the clock once more
        assert_eq!(p.receiver.status(), ChannelStatus::Closed);

        let envelope = PaymentChannel::envelope(
            state.clone(),
            PaymentChannel::sign_state(&p.car, &state),
            PaymentChannel::sign_state(&p.lot, &state),
        );
        assert!(envelope
            .verify_parties(&p.car.eth_address(), &p.lot.eth_address())
            .is_ok());

        // No further payments after closing.
        assert!(matches!(
            p.receiver.accept_payment(&payment),
            Err(ChannelError::NotOpen)
        ));
        let mut sender = p.sender;
        sender.close();
        assert!(matches!(
            sender.create_payment(&p.car, Wei::from(1u64), H256::ZERO),
            Err(ChannelError::NotOpen)
        ));
    }

    #[test]
    fn error_display() {
        let errors = vec![
            ChannelError::Payment(PaymentError::BadSignature),
            ChannelError::NotOpen,
            ChannelError::WrongRole(ChannelRole::Sender),
        ];
        for error in errors {
            assert!(!format!("{error}").is_empty());
        }
    }
}
