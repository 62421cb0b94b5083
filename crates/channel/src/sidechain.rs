//! The node-local side-chain log.
//!
//! Every execution of the off-chain payment channel "extends the local
//! (side-chain) log of the node, which links each state with the previous"
//! (paper Section IV-D). The log is anchored at the root published in the
//! on-chain template, so a verifier can replay it and confirm that no
//! transaction was omitted and that the order of logical-clock values is
//! consistent. During a dispute, this log is the evidence a node submits.

use tinyevm_crypto::keccak256_h256;
use tinyevm_types::{Wei, H256};
use tinyevm_wire::SideChainEntryRecord;

/// One entry of the log: a committed off-chain state linked to its
/// predecessor.
///
/// An entry holds 112 bytes and owns no heap memory. Its position in
/// [`SideChainLog::entries`] is its index, and the previous entry's
/// [`entry_hash`](SideChainEntry::entry_hash) (the log's anchor for the
/// first entry) is the hash it links to. Both are hashed into
/// `entry_hash` and written out by [`SideChainLog::export_entries`], but
/// not stored twice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SideChainEntry {
    /// Channel the state belongs to.
    pub channel_id: u64,
    /// Sequence number of the state.
    pub sequence: u64,
    /// Cumulative amount owed to the receiver at this state.
    pub cumulative: Wei,
    /// Digest of the state (payment digest or closing-state digest).
    pub state_digest: H256,
    /// This entry's hash, over its index, its fields and the hash of the
    /// previous entry.
    pub entry_hash: H256,
}

impl SideChainEntry {
    fn compute_hash(
        index: u64,
        channel_id: u64,
        sequence: u64,
        cumulative: &Wei,
        state_digest: &H256,
        previous_hash: &H256,
    ) -> H256 {
        let mut data = [0u8; 8 * 3 + 32 * 3];
        data[..8].copy_from_slice(&index.to_be_bytes());
        data[8..16].copy_from_slice(&channel_id.to_be_bytes());
        data[16..24].copy_from_slice(&sequence.to_be_bytes());
        data[24..56].copy_from_slice(&cumulative.amount().to_be_bytes());
        data[56..88].copy_from_slice(state_digest.as_bytes());
        data[88..].copy_from_slice(previous_hash.as_bytes());
        keccak256_h256(&data)
    }
}

/// A hash-linked, append-only log of off-chain state transitions.
///
/// # Example
///
/// ```
/// use tinyevm_channel::SideChainLog;
/// use tinyevm_types::{H256, Wei};
///
/// let mut log = SideChainLog::new(H256::from_low_u64(0xabc));
/// log.append(1, 1, Wei::from(100u64), H256::from_low_u64(1));
/// log.append(1, 2, Wei::from(200u64), H256::from_low_u64(2));
/// assert!(log.verify());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SideChainLog {
    anchor: H256,
    entries: Vec<SideChainEntry>,
}

impl SideChainLog {
    /// Creates an empty log anchored at the on-chain root `anchor`.
    pub fn new(anchor: H256) -> Self {
        SideChainLog {
            anchor,
            entries: Vec::new(),
        }
    }

    /// The anchor this log hangs off.
    pub fn anchor(&self) -> H256 {
        self.anchor
    }

    /// Exports the entries as wire-format records (for a
    /// `tinyevm_wire::ChannelSnapshot`), each with its index and the hash
    /// it links to.
    pub fn export_entries(&self) -> Vec<SideChainEntryRecord> {
        let mut previous_hash = self.anchor;
        (0u64..)
            .zip(&self.entries)
            .map(|(index, entry)| {
                let record = SideChainEntryRecord {
                    index,
                    channel_id: entry.channel_id,
                    sequence: entry.sequence,
                    cumulative: entry.cumulative,
                    state_digest: entry.state_digest,
                    previous_hash,
                    entry_hash: entry.entry_hash,
                };
                previous_hash = entry.entry_hash;
                record
            })
            .collect()
    }

    /// Rebuilds a log from persisted records, returning `None` unless
    /// every record sits at its own index and links to its predecessor's
    /// hash (the anchor for the first), and the restored chain verifies
    /// end to end (recomputed entry hashes, strictly increasing
    /// per-channel sequences).
    pub fn from_parts(anchor: H256, records: &[SideChainEntryRecord]) -> Option<Self> {
        let mut previous_hash = anchor;
        let mut entries = Vec::with_capacity(records.len());
        for (index, record) in (0u64..).zip(records) {
            if record.index != index || record.previous_hash != previous_hash {
                return None;
            }
            previous_hash = record.entry_hash;
            entries.push(SideChainEntry {
                channel_id: record.channel_id,
                sequence: record.sequence,
                cumulative: record.cumulative,
                state_digest: record.state_digest,
                entry_hash: record.entry_hash,
            });
        }
        let log = SideChainLog { anchor, entries };
        log.verify().then_some(log)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries have been appended.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries, oldest first.
    pub fn entries(&self) -> &[SideChainEntry] {
        &self.entries
    }

    /// Hash of the latest entry (or the anchor when empty) — the value a
    /// node would publish when reporting its local log.
    pub fn head(&self) -> H256 {
        self.entries
            .last()
            .map(|e| e.entry_hash)
            .unwrap_or(self.anchor)
    }

    /// Appends a state transition and returns the new entry.
    pub fn append(
        &mut self,
        channel_id: u64,
        sequence: u64,
        cumulative: Wei,
        state_digest: H256,
    ) -> &SideChainEntry {
        let entry_hash = SideChainEntry::compute_hash(
            self.entries.len() as u64,
            channel_id,
            sequence,
            &cumulative,
            &state_digest,
            &self.head(),
        );
        self.entries.push(SideChainEntry {
            channel_id,
            sequence,
            cumulative,
            state_digest,
            entry_hash,
        });
        self.entries.last().expect("just pushed")
    }

    /// Verifies the whole chain from the anchor: every entry's hash is
    /// recomputed over its position and its predecessor's hash, and
    /// per-channel sequence numbers are strictly increasing (no omitted or
    /// reordered transitions).
    pub fn verify(&self) -> bool {
        let mut previous = self.anchor;
        let mut last_sequence_per_channel = std::collections::BTreeMap::new();
        for (index, entry) in (0u64..).zip(&self.entries) {
            let recomputed = SideChainEntry::compute_hash(
                index,
                entry.channel_id,
                entry.sequence,
                &entry.cumulative,
                &entry.state_digest,
                &previous,
            );
            if recomputed != entry.entry_hash {
                return false;
            }
            let last = last_sequence_per_channel
                .entry(entry.channel_id)
                .or_insert(0u64);
            if entry.sequence <= *last {
                return false;
            }
            *last = entry.sequence;
            previous = entry.entry_hash;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_with(entries: usize) -> SideChainLog {
        let mut log = SideChainLog::new(H256::from_low_u64(anchor_placeholder()));
        for i in 1..=entries as u64 {
            log.append(1, i, Wei::from(i * 10), H256::from_low_u64(i));
        }
        log
    }

    const fn anchor_placeholder() -> u64 {
        0xabcd
    }

    #[test]
    fn entries_are_112_bytes() {
        assert_eq!(std::mem::size_of::<SideChainEntry>(), 112);
    }

    #[test]
    fn empty_log_head_is_the_anchor() {
        let log = SideChainLog::new(H256::from_low_u64(7));
        assert!(log.is_empty());
        assert_eq!(log.len(), 0);
        assert_eq!(log.head(), H256::from_low_u64(7));
        assert_eq!(log.anchor(), H256::from_low_u64(7));
        assert!(log.verify());
        assert!(log.export_entries().is_empty());
    }

    #[test]
    fn entries_link_hashes() {
        let log = log_with(5);
        assert_eq!(log.len(), 5);
        assert!(log.verify());
        let records = log.export_entries();
        assert_eq!(records[0].previous_hash, log.anchor());
        for (index, record) in records.iter().enumerate() {
            assert_eq!(record.index, index as u64);
            assert_eq!(record.entry_hash, log.entries()[index].entry_hash);
        }
        for pair in records.windows(2) {
            assert_eq!(pair[1].previous_hash, pair[0].entry_hash);
        }
        let last = &log.entries()[4];
        assert_eq!(log.head(), last.entry_hash);
        assert_eq!((last.sequence, last.cumulative), (5, Wei::from(50u64)));
        assert_eq!(
            SideChainLog::from_parts(log.anchor(), &records),
            Some(log.clone())
        );
    }

    #[test]
    fn tampering_with_any_field_breaks_verification() {
        let base = log_with(4);
        assert!(base.verify());

        let mut tampered = base.clone();
        tampered.entries[2].cumulative = Wei::from(9_999u64);
        assert!(!tampered.verify());

        let mut tampered = base.clone();
        tampered.entries[1].sequence = 99;
        assert!(!tampered.verify());

        let mut reordered = base.clone();
        reordered.entries.swap(1, 2);
        assert!(!reordered.verify());

        let mut truncated_middle = base.clone();
        truncated_middle.entries.remove(1);
        assert!(!truncated_middle.verify());
    }

    #[test]
    fn restoring_rejects_a_wrong_index_a_broken_link_or_a_wrong_hash() {
        let base = log_with(4);
        let records = base.export_entries();
        assert!(SideChainLog::from_parts(base.anchor(), &records).is_some());

        let mut wrong_index = records.clone();
        wrong_index[2].index = 3;
        assert!(SideChainLog::from_parts(base.anchor(), &wrong_index).is_none());

        let mut broken_link = records.clone();
        broken_link[0].previous_hash = H256::from_low_u64(0xbad);
        assert!(SideChainLog::from_parts(base.anchor(), &broken_link).is_none());
        let mut broken_link = records.clone();
        broken_link[3].previous_hash = records[1].entry_hash;
        assert!(SideChainLog::from_parts(base.anchor(), &broken_link).is_none());

        let mut wrong_hash = records.clone();
        wrong_hash[3].entry_hash = H256::from_low_u64(0xbad);
        assert!(SideChainLog::from_parts(base.anchor(), &wrong_hash).is_none());

        // The same records hang off one anchor only.
        assert!(SideChainLog::from_parts(H256::from_low_u64(0xbad), &records).is_none());
    }

    #[test]
    fn sequence_must_increase_per_channel() {
        let mut log = SideChainLog::new(H256::ZERO);
        log.append(1, 1, Wei::from(10u64), H256::from_low_u64(1));
        log.append(2, 1, Wei::from(5u64), H256::from_low_u64(2)); // other channel, fine
        log.append(1, 2, Wei::from(20u64), H256::from_low_u64(3));
        assert!(log.verify());
        // Force a replayed sequence into the structure.
        let digest = H256::from_low_u64(4);
        log.append(1, 2, Wei::from(30u64), digest);
        assert!(!log.verify());
    }
}
