//! A fixed-capacity set of sensor indices, one bit per sensor.
//!
//! The event loop keeps its per-sensor bookkeeping (who is still active,
//! who holds a frame, who changed since the last event) in these sets, so
//! each event visits only the sensors it concerns, always in ascending
//! index order, and never allocates.

/// A set of indices below a fixed capacity, iterated in ascending order.
#[derive(Debug, Clone, Default)]
pub(crate) struct IndexSet {
    words: Vec<u64>,
    len: usize,
}

impl IndexSet {
    /// An empty set able to hold indices `0..capacity`.
    pub(crate) fn new(capacity: usize) -> Self {
        IndexSet {
            words: vec![0; capacity.div_ceil(64)],
            len: 0,
        }
    }

    /// Adds `index`.
    pub(crate) fn insert(&mut self, index: usize) {
        let (word, bit) = (index / 64, 1u64 << (index % 64));
        if self.words[word] & bit == 0 {
            self.words[word] |= bit;
            self.len += 1;
        }
    }

    /// Removes `index`.
    pub(crate) fn remove(&mut self, index: usize) {
        let (word, bit) = (index / 64, 1u64 << (index % 64));
        if self.words[word] & bit != 0 {
            self.words[word] &= !bit;
            self.len -= 1;
        }
    }

    /// True when `index` is in the set.
    pub(crate) fn contains(&self, index: usize) -> bool {
        self.words
            .get(index / 64)
            .is_some_and(|word| word & (1u64 << (index % 64)) != 0)
    }

    /// True when the set has no members.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The members, in ascending order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(word, &bits)| {
            let mut bits = bits;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let bit = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    word * 64 + bit
                })
            })
        })
    }

    /// Visits the members in ascending order, keeping those for which
    /// `keep` returns true.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        for word in 0..self.words.len() {
            let mut bits = self.words[word];
            while bits != 0 {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if !keep(word * 64 + bit) {
                    self.words[word] &= !(1u64 << bit);
                    self.len -= 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn members_iterate_in_ascending_order_across_words() {
        let mut set = IndexSet::new(200);
        for index in [130, 3, 64, 199, 0, 63, 3] {
            set.insert(index);
        }
        assert_eq!(set.iter().collect::<Vec<_>>(), [0, 3, 63, 64, 130, 199]);
        assert!(set.contains(64) && !set.contains(65) && !set.contains(1_000));
        set.remove(64);
        set.remove(64);
        assert_eq!(set.iter().count(), 5);
        assert!(!set.is_empty());
    }

    #[test]
    fn retain_visits_in_order_and_drops_the_rejected() {
        let mut set = IndexSet::new(130);
        for index in [1, 2, 70, 129] {
            set.insert(index);
        }
        let mut seen = Vec::new();
        set.retain(|index| {
            seen.push(index);
            index % 2 == 1
        });
        assert_eq!(seen, [1, 2, 70, 129]);
        assert_eq!(set.iter().collect::<Vec<_>>(), [1, 129]);
        set.retain(|_| false);
        assert!(set.is_empty());
    }
}
