//! Signed off-chain payments.
//!
//! Each payment is a *stand-alone artifact* (paper Section IV-D): it names
//! the template, the channel and the payment's position in the channel's
//! logical clock, carries the cumulative amount owed to the receiver and a
//! hash of the sensor data that justified the price, and is signed by the
//! payer. Because the amount is cumulative, possession of the latest payment
//! is enough to claim everything owed — older payments are simply superseded
//! by higher sequence numbers, which is what makes the logical clock a
//! sufficient replacement for synchronized time.
//!
//! The payment has two byte forms:
//!
//! * [`SignedPayment::encode_payload`] — the RLP list of the five signed
//!   fields. Its Keccak-256 digest is what the payer signs; any
//!   Ethereum-style verifier can recompute it.
//! * [`SignedPayment::encode`] ([`Encodable`]) — the full six-field wire
//!   item, signature included, carried inside a
//!   [`Message`](crate::Message) envelope across the radio.

use tinyevm_crypto::keccak256;
use tinyevm_crypto::secp256k1::{PrivateKey, Signature};
use tinyevm_types::rlp::{Item, RlpStream};
use tinyevm_types::{Address, Wei, H256};

use crate::codec::{
    expect_list, field_address, field_h256, field_signature, field_u64, field_wei, Decodable,
    Encodable, WireError,
};

/// Errors returned when validating a payment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PaymentError {
    /// The signature does not recover to the expected payer.
    BadSignature,
    /// The payment's sequence number does not advance the channel's clock.
    StaleSequence {
        /// Highest sequence already accepted.
        current: u64,
        /// Sequence of the offered payment.
        offered: u64,
    },
    /// The cumulative amount decreased.
    ShrinkingAmount {
        /// Cumulative amount already accepted.
        current: Wei,
        /// Cumulative amount offered.
        offered: Wei,
    },
    /// The cumulative amount exceeds the channel's deposit cap.
    ExceedsDeposit {
        /// Offered cumulative amount.
        offered: Wei,
        /// The channel's cap.
        cap: Wei,
    },
    /// The payment belongs to a different channel or template.
    WrongChannel,
}

impl core::fmt::Display for PaymentError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PaymentError::BadSignature => write!(f, "payment signature invalid"),
            PaymentError::StaleSequence { current, offered } => {
                write!(f, "sequence {offered} does not advance {current}")
            }
            PaymentError::ShrinkingAmount { current, offered } => {
                write!(f, "cumulative amount {offered} is below {current}")
            }
            PaymentError::ExceedsDeposit { offered, cap } => {
                write!(
                    f,
                    "cumulative amount {offered} exceeds the deposit cap {cap}"
                )
            }
            PaymentError::WrongChannel => write!(f, "payment addresses a different channel"),
        }
    }
}

impl std::error::Error for PaymentError {}

/// One signed off-chain payment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignedPayment {
    /// On-chain template the channel hangs off.
    pub template: Address,
    /// Channel identifier (template logical-clock value at creation).
    pub channel_id: u64,
    /// Position of this payment in the channel (strictly increasing).
    pub sequence: u64,
    /// Cumulative amount owed to the receiver after this payment.
    pub cumulative: Wei,
    /// Hash of the sensor data that priced this payment.
    pub sensor_data_hash: H256,
    /// The payer's signature over the payload digest.
    pub signature: Signature,
}

impl SignedPayment {
    /// Builds and signs a payment.
    pub fn create(
        payer: &PrivateKey,
        template: Address,
        channel_id: u64,
        sequence: u64,
        cumulative: Wei,
        sensor_data_hash: H256,
    ) -> Self {
        Self::create_with(
            template,
            channel_id,
            sequence,
            cumulative,
            sensor_data_hash,
            |payload| payer.sign_message(payload),
        )
    }

    /// Builds a payment signed by `sign`, which receives the payload
    /// encoding ([`SignedPayment::encode_payload`]) and must sign its
    /// Keccak-256 digest — what a device that meters its own hashing and
    /// signing provides.
    pub fn create_with(
        template: Address,
        channel_id: u64,
        sequence: u64,
        cumulative: Wei,
        sensor_data_hash: H256,
        sign: impl FnOnce(&[u8]) -> Signature,
    ) -> Self {
        let signature = sign(&Self::payload_encoding(
            template,
            channel_id,
            sequence,
            cumulative,
            sensor_data_hash,
        ));
        SignedPayment {
            template,
            channel_id,
            sequence,
            cumulative,
            sensor_data_hash,
            signature,
        }
    }

    /// RLP encoding of the signed fields (without the signature).
    pub fn encode_payload(&self) -> Vec<u8> {
        Self::payload_encoding(
            self.template,
            self.channel_id,
            self.sequence,
            self.cumulative,
            self.sensor_data_hash,
        )
    }

    fn payload_encoding(
        template: Address,
        channel_id: u64,
        sequence: u64,
        cumulative: Wei,
        sensor_data_hash: H256,
    ) -> Vec<u8> {
        let mut stream = RlpStream::new_list(5);
        stream.append_address(&template);
        stream.append_u64(channel_id);
        stream.append_u64(sequence);
        stream.append_u256(&cumulative.amount());
        stream.append_h256(&sensor_data_hash);
        stream.finish()
    }

    /// This payment's digest: what the payer signs.
    pub fn digest(&self) -> [u8; 32] {
        keccak256(&self.encode_payload())
    }

    /// Recovers the payer address from the signature.
    ///
    /// # Errors
    ///
    /// Returns [`PaymentError::BadSignature`] when recovery fails.
    pub fn payer(&self) -> Result<Address, PaymentError> {
        self.signature
            .recover_address(&self.digest())
            .map_err(|_| PaymentError::BadSignature)
    }

    /// Verifies the payment was signed by `expected_payer`.
    ///
    /// # Errors
    ///
    /// Returns [`PaymentError::BadSignature`] when the signature does not
    /// recover to that address.
    pub fn verify_payer(&self, expected_payer: &Address) -> Result<(), PaymentError> {
        if self.payer()? != *expected_payer {
            return Err(PaymentError::BadSignature);
        }
        Ok(())
    }

    /// Size of the full wire item ([`Encodable::encode`]) in bytes — what
    /// air-time and energy accounting should use.
    pub fn wire_size(&self) -> usize {
        self.encode().len()
    }
}

impl Encodable for SignedPayment {
    fn encode(&self) -> Vec<u8> {
        let mut stream = RlpStream::new_list(6);
        stream.append_address(&self.template);
        stream.append_u64(self.channel_id);
        stream.append_u64(self.sequence);
        stream.append_u256(&self.cumulative.amount());
        stream.append_h256(&self.sensor_data_hash);
        stream.append_bytes(&self.signature.to_bytes());
        stream.finish()
    }
}

impl Decodable for SignedPayment {
    fn decode_item(item: &Item) -> Result<Self, WireError> {
        let fields = expect_list(item, 6)?;
        Ok(SignedPayment {
            template: field_address(&fields[0])?,
            channel_id: field_u64(&fields[1])?,
            sequence: field_u64(&fields[2])?,
            cumulative: field_wei(&fields[3])?,
            sensor_data_hash: field_h256(&fields[4])?,
            signature: field_signature(&fields[5])?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payer() -> PrivateKey {
        PrivateKey::from_seed(b"vehicle wallet")
    }

    fn payment(sequence: u64, amount: u64) -> SignedPayment {
        SignedPayment::create(
            &payer(),
            Address::from_low_u64(0xAA),
            3,
            sequence,
            Wei::from(amount),
            H256::from_low_u64(0xfeed),
        )
    }

    #[test]
    fn create_and_verify_round_trip() {
        let p = payment(1, 100);
        assert_eq!(p.payer().unwrap(), payer().eth_address());
        assert!(p.verify_payer(&payer().eth_address()).is_ok());
        let other = PrivateKey::from_seed(b"someone else");
        assert_eq!(
            p.verify_payer(&other.eth_address()),
            Err(PaymentError::BadSignature)
        );
    }

    #[test]
    fn digest_covers_every_field() {
        let base = payment(1, 100);
        let mut changed = base.clone();
        changed.sequence = 2;
        assert_ne!(base.digest(), changed.digest());
        let mut changed = base.clone();
        changed.cumulative = Wei::from(101u64);
        assert_ne!(base.digest(), changed.digest());
        let mut changed = base.clone();
        changed.channel_id = 4;
        assert_ne!(base.digest(), changed.digest());
        let mut changed = base.clone();
        changed.template = Address::from_low_u64(0xBB);
        assert_ne!(base.digest(), changed.digest());
        let mut changed = base.clone();
        changed.sensor_data_hash = H256::from_low_u64(0xbeef);
        assert_ne!(base.digest(), changed.digest());
    }

    #[test]
    fn tampering_breaks_verification() {
        let mut p = payment(1, 100);
        p.cumulative = Wei::from(1_000_000u64);
        // The signature no longer matches the payload.
        match p.payer() {
            Ok(address) => assert_ne!(address, payer().eth_address()),
            Err(error) => assert_eq!(error, PaymentError::BadSignature),
        }
    }

    #[test]
    fn wire_encoding_has_payload_and_signature() {
        let p = payment(5, 500);
        assert_eq!(p.encode().len(), p.wire_size());
        // Signed fields plus the 65-byte signature, with a little RLP
        // framing on top.
        assert!(p.wire_size() > p.encode_payload().len() + 65);
        assert!(p.wire_size() < 200, "payments stay radio-friendly");
    }

    #[test]
    fn rlp_round_trip_preserves_every_field_and_the_signature() {
        let p = payment(7, 4_321);
        let encoded = p.encode();
        let decoded = SignedPayment::decode(&encoded).unwrap();
        assert_eq!(decoded, p);
        // The decoded artifact still verifies on its own.
        assert!(decoded.verify_payer(&payer().eth_address()).is_ok());
        // Canonical: re-encoding reproduces the exact bytes.
        assert_eq!(decoded.encode(), encoded);
    }

    #[test]
    fn decode_rejects_malformed_payments() {
        let p = payment(1, 1);
        // Truncated field list.
        let mut stream = RlpStream::new_list(5);
        stream.append_address(&p.template);
        stream.append_u64(p.channel_id);
        stream.append_u64(p.sequence);
        stream.append_u256(&p.cumulative.amount());
        stream.append_h256(&p.sensor_data_hash);
        assert!(matches!(
            SignedPayment::decode(&stream.finish()),
            Err(WireError::Arity {
                expected: 6,
                got: 5
            })
        ));
        // A corrupt signature length.
        let mut stream = RlpStream::new_list(6);
        stream.append_address(&p.template);
        stream.append_u64(p.channel_id);
        stream.append_u64(p.sequence);
        stream.append_u256(&p.cumulative.amount());
        stream.append_h256(&p.sensor_data_hash);
        stream.append_bytes(&[0u8; 64]);
        assert!(matches!(
            SignedPayment::decode(&stream.finish()),
            Err(WireError::Signature(_))
        ));
        // Not a list at all.
        assert!(SignedPayment::decode(&[0x83, 1, 2, 3]).is_err());
    }

    #[test]
    fn error_display() {
        let errors = vec![
            PaymentError::BadSignature,
            PaymentError::StaleSequence {
                current: 5,
                offered: 4,
            },
            PaymentError::ShrinkingAmount {
                current: Wei::from(10u64),
                offered: Wei::from(9u64),
            },
            PaymentError::ExceedsDeposit {
                offered: Wei::from(100u64),
                cap: Wei::from(50u64),
            },
            PaymentError::WrongChannel,
        ];
        for error in errors {
            assert!(!format!("{error}").is_empty());
        }
    }
}
