//! Byte-addressed execution memory with a hard device budget.

use crate::error::TrapReason;
use tinyevm_types::U256;

/// The EVM's volatile, byte-addressed memory, bounded by the device's RAM
/// budget (8 KB in the CC2538 profile) and instrumented with the high-water
/// mark reported in the paper's Figure 3b.
///
/// Unlike mainnet EVMs, exceeding the budget is not a matter of quadratic
/// gas — it is a hard trap, because the physical RAM simply is not there.
///
/// # Example
///
/// ```
/// use tinyevm_evm::memory::Memory;
/// use tinyevm_types::U256;
///
/// let mut memory = Memory::new(1024);
/// memory.store_word(0, U256::from(7u64)).unwrap();
/// assert_eq!(memory.load_word(0).unwrap(), U256::from(7u64));
/// assert_eq!(memory.high_water_mark(), 32);
/// ```
#[derive(Debug, Clone)]
pub struct Memory {
    bytes: Vec<u8>,
    limit: usize,
    high_water_mark: usize,
}

impl Memory {
    /// Creates empty memory with the given byte budget.
    pub fn new(limit: usize) -> Self {
        Memory {
            bytes: Vec::new(),
            limit,
            high_water_mark: 0,
        }
    }

    /// Current size in bytes (what `MSIZE` reports), word-aligned.
    pub fn size(&self) -> usize {
        self.bytes.len()
    }

    /// Largest extent ever touched, in bytes.
    pub fn high_water_mark(&self) -> usize {
        self.high_water_mark
    }

    /// The configured budget in bytes.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Ensures `offset + len` bytes are addressable, growing (word-aligned)
    /// if needed.
    ///
    /// # Errors
    ///
    /// Returns [`TrapReason::MemoryLimitExceeded`] when the extent would
    /// exceed the budget.
    pub fn expand(&mut self, offset: usize, len: usize) -> Result<(), TrapReason> {
        if len == 0 {
            return Ok(());
        }
        let end = offset
            .checked_add(len)
            .ok_or(TrapReason::MemoryLimitExceeded {
                requested: usize::MAX,
                limit: self.limit,
            })?;
        if end > self.limit {
            return Err(TrapReason::MemoryLimitExceeded {
                requested: end,
                limit: self.limit,
            });
        }
        if end > self.bytes.len() {
            // Word-align growth like the EVM's 32-byte memory expansion.
            let aligned = end.div_ceil(32) * 32;
            self.bytes.resize(aligned.min(self.limit), 0);
        }
        self.high_water_mark = self.high_water_mark.max(end);
        Ok(())
    }

    /// Reads a 32-byte word at `offset`.
    ///
    /// # Errors
    ///
    /// Returns a memory-limit trap if the access is out of budget.
    pub fn load_word(&mut self, offset: usize) -> Result<U256, TrapReason> {
        self.expand(offset, 32)?;
        let mut buf = [0u8; 32];
        buf.copy_from_slice(&self.bytes[offset..offset + 32]);
        Ok(U256::from_be_bytes(buf))
    }

    /// Writes a 32-byte word at `offset`.
    ///
    /// # Errors
    ///
    /// Returns a memory-limit trap if the access is out of budget.
    pub fn store_word(&mut self, offset: usize, value: U256) -> Result<(), TrapReason> {
        self.expand(offset, 32)?;
        self.bytes[offset..offset + 32].copy_from_slice(&value.to_be_bytes());
        Ok(())
    }

    /// Writes a single byte at `offset` (`MSTORE8`).
    ///
    /// # Errors
    ///
    /// Returns a memory-limit trap if the access is out of budget.
    pub fn store_byte(&mut self, offset: usize, value: u8) -> Result<(), TrapReason> {
        self.expand(offset, 1)?;
        self.bytes[offset] = value;
        Ok(())
    }

    /// Copies `data` into memory at `offset`, zero-padding is not applied —
    /// use [`Memory::copy_padded`] for the `*COPY` opcodes.
    ///
    /// # Errors
    ///
    /// Returns a memory-limit trap if the destination is out of budget.
    pub fn store_slice(&mut self, offset: usize, data: &[u8]) -> Result<(), TrapReason> {
        if data.is_empty() {
            return Ok(());
        }
        self.expand(offset, data.len())?;
        self.bytes[offset..offset + data.len()].copy_from_slice(data);
        Ok(())
    }

    /// Implements the EVM copy semantics: copies `len` bytes of `source`
    /// starting at `source_offset` into memory at `dest_offset`, treating
    /// out-of-range source bytes as zero — including every byte of a
    /// source offset near `usize::MAX`, whose end would overflow.
    ///
    /// # Errors
    ///
    /// Returns a memory-limit trap if the destination is out of budget.
    pub fn copy_padded(
        &mut self,
        dest_offset: usize,
        source: &[u8],
        source_offset: usize,
        len: usize,
    ) -> Result<(), TrapReason> {
        if len == 0 {
            return Ok(());
        }
        self.expand(dest_offset, len)?;
        let dest = &mut self.bytes[dest_offset..dest_offset + len];
        let available = source.get(source_offset..).unwrap_or(&[]);
        let copied = available.len().min(len);
        dest[..copied].copy_from_slice(&available[..copied]);
        dest[copied..].fill(0);
        Ok(())
    }

    /// Borrows `len` bytes starting at `offset`, expanding memory to cover
    /// them. A zero-length range is empty wherever it starts.
    ///
    /// # Errors
    ///
    /// Returns a memory-limit trap if the extent is out of budget.
    pub fn slice(&mut self, offset: usize, len: usize) -> Result<&[u8], TrapReason> {
        if len == 0 {
            return Ok(&[]);
        }
        self.expand(offset, len)?;
        Ok(&self.bytes[offset..offset + len])
    }

    /// Reads `len` bytes starting at `offset` into a fresh vector.
    ///
    /// # Errors
    ///
    /// Returns a memory-limit trap if the extent is out of budget.
    pub fn load_slice(&mut self, offset: usize, len: usize) -> Result<Vec<u8>, TrapReason> {
        self.slice(offset, len).map(<[u8]>::to_vec)
    }

    /// Borrow of the raw backing bytes (for tests and tracing).
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_empty() {
        let memory = Memory::new(1024);
        assert_eq!(memory.size(), 0);
        assert_eq!(memory.high_water_mark(), 0);
        assert_eq!(memory.limit(), 1024);
    }

    #[test]
    fn word_round_trip_and_alignment() {
        let mut memory = Memory::new(1024);
        let value = U256::from(0xdead_beefu64);
        memory.store_word(10, value).unwrap();
        assert_eq!(memory.load_word(10).unwrap(), value);
        // Size is word-aligned: 10 + 32 = 42 -> 64.
        assert_eq!(memory.size(), 64);
        assert_eq!(memory.high_water_mark(), 42);
    }

    #[test]
    fn store_byte() {
        let mut memory = Memory::new(64);
        memory.store_byte(5, 0xab).unwrap();
        assert_eq!(memory.as_slice()[5], 0xab);
        let word = memory.load_word(0).unwrap();
        assert_eq!(word.byte_be(5), 0xab);
    }

    #[test]
    fn limit_is_a_hard_trap() {
        let mut memory = Memory::new(64);
        assert!(memory.store_word(32, U256::ONE).is_ok());
        let err = memory.store_word(40, U256::ONE).unwrap_err();
        assert_eq!(
            err,
            TrapReason::MemoryLimitExceeded {
                requested: 72,
                limit: 64
            }
        );
        // Reads past the limit trap too.
        assert!(memory.load_word(60).is_err());
    }

    #[test]
    fn zero_length_operations_do_not_expand() {
        let mut memory = Memory::new(32);
        memory.expand(1_000_000, 0).unwrap();
        memory.store_slice(1_000_000, &[]).unwrap();
        memory.copy_padded(1_000_000, &[1, 2, 3], 0, 0).unwrap();
        assert_eq!(memory.load_slice(500, 0).unwrap(), Vec::<u8>::new());
        assert_eq!(memory.slice(usize::MAX, 0).unwrap(), &[] as &[u8]);
        assert_eq!(memory.size(), 0);
    }

    #[test]
    fn copy_padded_zero_fills_out_of_range_source() {
        let mut memory = Memory::new(64);
        memory.copy_padded(0, &[1, 2, 3], 1, 5).unwrap();
        assert_eq!(&memory.as_slice()[..5], &[2, 3, 0, 0, 0]);
        // Source entirely out of range is all zeros.
        memory.copy_padded(8, &[1, 2, 3], 10, 4).unwrap();
        assert_eq!(&memory.as_slice()[8..12], &[0, 0, 0, 0]);
        // Zero-filling overwrites what the destination held before.
        memory.copy_padded(0, &[9], 0, 3).unwrap();
        assert_eq!(&memory.as_slice()[..5], &[9, 0, 0, 0, 0]);
    }

    #[test]
    fn copy_padded_source_offset_near_usize_max_reads_zeros() {
        // offset + i would wrap to 0 and copy source[0] instead of zero.
        let mut memory = Memory::new(64);
        memory.copy_padded(0, &[0xaa, 0xbb], usize::MAX, 2).unwrap();
        assert_eq!(&memory.as_slice()[..2], &[0, 0]);
        memory
            .copy_padded(4, &[0xaa, 0xbb], usize::MAX - 1, 4)
            .unwrap();
        assert_eq!(&memory.as_slice()[4..8], &[0, 0, 0, 0]);
    }

    #[test]
    fn slice_round_trip() {
        let mut memory = Memory::new(128);
        memory.store_slice(3, b"tinyevm").unwrap();
        assert_eq!(memory.load_slice(3, 7).unwrap(), b"tinyevm");
        assert_eq!(memory.slice(3, 7).unwrap(), b"tinyevm");
    }

    #[test]
    fn offset_overflow_is_caught() {
        let mut memory = Memory::new(64);
        let err = memory.expand(usize::MAX, 2).unwrap_err();
        assert!(matches!(err, TrapReason::MemoryLimitExceeded { .. }));
    }

    #[test]
    fn high_water_mark_is_monotonic() {
        let mut memory = Memory::new(1024);
        memory.store_word(100, U256::ONE).unwrap();
        memory.store_word(0, U256::ONE).unwrap();
        assert_eq!(memory.high_water_mark(), 132);
    }
}
