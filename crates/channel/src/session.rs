//! Session files — the chain snapshot, then a (sender, receiver)
//! [`ChannelSnapshot`] pair per channel — for both persisting engines.
//! [`read_session`] validates a whole file and changes nothing, so a
//! truncated or spliced file is rejected, never half-applied.

use std::collections::BTreeMap;
use std::path::Path;

use tinyevm_chain::Blockchain;
use tinyevm_types::Address;
use tinyevm_wire::{persist, ChainSnapshot, ChannelSnapshot, EndpointRole, Message, WireError};

use crate::channel::PaymentChannel;
use crate::protocol::ProtocolError;

/// Writes a session file: `chain`'s snapshot, then every channel's
/// sender and receiver snapshot.
///
/// # Errors
///
/// Returns [`ProtocolError::Wire`] on filesystem failure.
pub fn write_session(
    path: &Path,
    chain: &Blockchain,
    channels: impl IntoIterator<Item = (ChannelSnapshot, ChannelSnapshot)>,
) -> Result<(), ProtocolError> {
    let mut messages = vec![Message::ChainSnapshot(ChainSnapshot::capture(chain))];
    for (sender, receiver) in channels {
        messages.push(Message::ChannelSnapshot(sender));
        messages.push(Message::ChannelSnapshot(receiver));
    }
    persist::write_messages(path, &messages)?;
    Ok(())
}

/// Reads a session file written by [`write_session`] for the channels of
/// `parties`, (sender account, receiver account) pairs, and returns the
/// restored chain and their snapshot pairs in `parties` order.
///
/// # Errors
///
/// [`WireError::Truncated`] without a chain snapshot or for a channel
/// count other than `parties.len()`; [`WireError::Value`] for a pair the
/// file lacks (a foreign identity), snapshots of two different channels
/// or a template missing from the chain;
/// [`ProtocolError::UnexpectedMessage`] for a message that is not a
/// snapshot; any other [`ProtocolError::Wire`] for an unreadable or
/// tampered file, or a side-chain log that does not verify.
pub fn read_session(
    path: &Path,
    parties: &[(Address, Address)],
) -> Result<(Blockchain, Vec<(ChannelSnapshot, ChannelSnapshot)>), ProtocolError> {
    let mut chain = None;
    let mut senders = BTreeMap::new();
    let mut receivers = BTreeMap::new();
    for message in persist::read_messages(path)? {
        match message {
            Message::ChainSnapshot(snapshot) => chain = Some(snapshot.restore()?),
            Message::ChannelSnapshot(snapshot) => {
                let by_party = match snapshot.role {
                    EndpointRole::Sender => &mut senders,
                    EndpointRole::Receiver => &mut receivers,
                };
                by_party.insert((snapshot.sender, snapshot.receiver), snapshot);
            }
            other => {
                return Err(ProtocolError::UnexpectedMessage {
                    expected: "snapshot",
                    got: other.label(),
                })
            }
        }
    }
    let invalid = |why| ProtocolError::Wire(WireError::Value(why));
    let Some(chain) = chain else {
        return Err(ProtocolError::Wire(WireError::Truncated));
    };
    if senders.len() != parties.len() || receivers.len() != parties.len() {
        return Err(ProtocolError::Wire(WireError::Truncated));
    }
    let mut channels = Vec::with_capacity(parties.len());
    for party in parties {
        let (Some(sender), Some(receiver)) = (senders.remove(party), receivers.remove(party))
        else {
            return Err(invalid("snapshot belongs to different device identities"));
        };
        if sender.template != receiver.template
            || sender.channel_id != receiver.channel_id
            || sender.deposit_cap != receiver.deposit_cap
        {
            return Err(invalid("endpoint snapshots describe different channels"));
        }
        if chain.template(&sender.template).is_none() {
            return Err(invalid("snapshot template is not on the restored chain"));
        }
        PaymentChannel::restore(&sender)?;
        PaymentChannel::restore(&receiver)?;
        channels.push((sender, receiver));
    }
    Ok((chain, channels))
}
