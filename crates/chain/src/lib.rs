//! A minimal account-model main chain for anchoring TinyEVM's off-chain
//! protocol.
//!
//! The paper assumes Ethereum as the settlement layer but never measures it
//! — the chain's only roles are to hold the published template contract, the
//! locked deposit, the committed channel states and the challenge / exit
//! machinery. This crate provides exactly that substrate:
//!
//! * [`MerkleSumTree`] — the Plasma-style sum tree the on-chain contract
//!   keeps over committed channel states; the sum acts as an overspend
//!   audit, the hashes as inclusion proofs.
//! * [`ChannelState`] / [`CommitEnvelope`] — the dual-signed final state a
//!   node submits when it exits a channel.
//! * [`TemplateContract`] — the on-chain factory / bridge contract: deposit,
//!   logical-clock high-water mark, commit, challenge, exit and payout.
//! * [`Blockchain`] — accounts, balances, blocks and the transaction entry
//!   points the IoT nodes use (through their gateway) to talk to the chain.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chain;
pub mod merkle;
pub mod state;
pub mod template;

pub use chain::{Block, Blockchain, ChainError, Transaction, TransactionKind};
pub use merkle::{MerkleProof, MerkleSumTree, SumLeaf};
pub use state::{ChannelState, CommitEnvelope, StateError};
pub use template::{
    ChannelRecord, Settlement, TemplateConfig, TemplateContract, TemplateError, TemplatePhase,
};
