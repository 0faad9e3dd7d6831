//! The CSB as content-addressable key-value storage.

use cape_csb::{Csb, CsbGeometry, SUBARRAYS_PER_CHAIN};

use crate::match_program;

/// Number of key/value register pairs (32 registers / 2).
const SLOTS: usize = 16;

/// Errors returned by [`KvStore`] operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvError {
    /// Every slot of every lane is occupied.
    Full,
    /// The key is not present.
    NotFound,
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::Full => write!(f, "key-value store is full"),
            KvError::NotFound => write!(f, "key not found"),
        }
    }
}

impl std::error::Error for KvError {}

/// A CSB configured as 32-bit-key / 32-bit-value storage.
///
/// Keys live in even vector registers and values in the following odd
/// ones, so each lane holds 16 pairs: a chain stores 16 x 32 = 512 pairs
/// (Section VII's arithmetic). A lookup bulk-searches one key row across
/// *all* lanes of *all* chains simultaneously — one search microop plus
/// the bit-serial tag fold, per slot — with no index structure at all.
///
/// The control processor maintains the free list (as the paper
/// suggests), modeled here by a host-side occupancy map. Keys must be
/// unique; inserting an existing key overwrites its value.
#[derive(Debug, Clone)]
pub struct KvStore {
    csb: Csb,
    /// occupancy[slot][elem]
    occupied: Vec<Vec<bool>>,
    len: usize,
    /// Microop-accounted search cycles spent in lookups.
    lookup_cycles: u64,
}

impl KvStore {
    /// Configures a key-value store of the given geometry.
    pub fn new(geometry: CsbGeometry) -> Self {
        let lanes = geometry.max_vl();
        Self {
            csb: Csb::new(geometry),
            occupied: vec![vec![false; lanes]; SLOTS],
            len: 0,
            lookup_cycles: 0,
        }
    }

    /// Total pair capacity.
    pub fn capacity(&self) -> usize {
        SLOTS * self.csb.max_vl()
    }

    /// Stored pair count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Cycles spent searching so far (one per emitted microop).
    pub fn lookup_cycles(&self) -> u64 {
        self.lookup_cycles
    }

    /// Searches slot `slot` for `key`; returns the matching element, if
    /// any. Emits the real microop sequence (bit-parallel search + tag
    /// fold) and charges its cycles.
    fn search_slot(&mut self, slot: usize, key: u32) -> Option<usize> {
        let program = match_program(slot * 2, key);
        self.csb.execute_program(&program);
        self.lookup_cycles += program.len() as u64;
        // Priority-encode the final tags (CP-visible result).
        let geometry = self.csb.geometry();
        for chain in 0..geometry.num_chains() {
            let tags = self.csb.chain_tags(chain, SUBARRAYS_PER_CHAIN - 1);
            if tags != 0 {
                for col in 0..32 {
                    if tags >> col & 1 == 1 {
                        let elem = geometry.element_at(cape_csb::ElementLocation { chain, col });
                        if self.occupied[slot][elem] {
                            return Some(elem);
                        }
                    }
                }
            }
        }
        None
    }

    /// Looks `key` up across every slot.
    pub fn get(&mut self, key: u32) -> Option<u32> {
        for slot in 0..SLOTS {
            if let Some(elem) = self.search_slot(slot, key) {
                return Some(self.csb.read_element(slot * 2 + 1, elem));
            }
        }
        None
    }

    /// Inserts (or overwrites) a pair.
    ///
    /// # Errors
    ///
    /// Returns [`KvError::Full`] when no free slot remains.
    pub fn insert(&mut self, key: u32, value: u32) -> Result<(), KvError> {
        // Overwrite in place when the key already exists.
        for slot in 0..SLOTS {
            if let Some(elem) = self.search_slot(slot, key) {
                self.csb.write_element(slot * 2 + 1, elem, value);
                return Ok(());
            }
        }
        // CP free-list scan.
        for slot in 0..SLOTS {
            if let Some(elem) = self.occupied[slot].iter().position(|&o| !o) {
                self.csb.write_element(slot * 2, elem, key);
                self.csb.write_element(slot * 2 + 1, elem, value);
                self.occupied[slot][elem] = true;
                self.len += 1;
                return Ok(());
            }
        }
        Err(KvError::Full)
    }

    /// Removes a pair.
    ///
    /// # Errors
    ///
    /// Returns [`KvError::NotFound`] when the key is absent.
    pub fn remove(&mut self, key: u32) -> Result<u32, KvError> {
        for slot in 0..SLOTS {
            if let Some(elem) = self.search_slot(slot, key) {
                let value = self.csb.read_element(slot * 2 + 1, elem);
                self.occupied[slot][elem] = false;
                self.len -= 1;
                return Ok(value);
            }
        }
        Err(KvError::NotFound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> KvStore {
        KvStore::new(CsbGeometry::new(2))
    }

    #[test]
    fn capacity_matches_paper_arithmetic() {
        // "a chain can store 16 x 32 = 512 key-value pairs".
        assert_eq!(KvStore::new(CsbGeometry::new(1)).capacity(), 512);
        // "about half a million pairs in CAPE32k".
        assert_eq!(KvStore::new(CsbGeometry::cape32k()).capacity(), 524_288);
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut kv = store();
        kv.insert(0xDEAD, 111).unwrap();
        kv.insert(0xBEEF, 222).unwrap();
        assert_eq!(kv.get(0xDEAD), Some(111));
        assert_eq!(kv.get(0xBEEF), Some(222));
        assert_eq!(kv.get(0x1234), None);
        assert_eq!(kv.remove(0xDEAD), Ok(111));
        assert_eq!(kv.get(0xDEAD), None);
        assert_eq!(kv.len(), 1);
    }

    #[test]
    fn insert_overwrites_existing_key() {
        let mut kv = store();
        kv.insert(7, 1).unwrap();
        kv.insert(7, 2).unwrap();
        assert_eq!(kv.get(7), Some(2));
        assert_eq!(kv.len(), 1);
    }

    #[test]
    fn fills_to_capacity_then_errors() {
        let mut kv = KvStore::new(CsbGeometry::new(1));
        for k in 0..512u32 {
            kv.insert(k + 1, k).unwrap();
        }
        assert_eq!(kv.len(), 512);
        assert_eq!(kv.insert(9999, 0), Err(KvError::Full));
        // Every stored pair is still retrievable.
        for k in (0..512u32).step_by(37) {
            assert_eq!(kv.get(k + 1), Some(k));
        }
    }

    #[test]
    fn zero_key_and_value_work() {
        let mut kv = store();
        kv.insert(0, 0).unwrap();
        assert_eq!(kv.get(0), Some(0));
        assert_eq!(kv.remove(0), Ok(0));
    }

    #[test]
    fn lookups_charge_search_cycles() {
        let mut kv = store();
        kv.insert(42, 1).unwrap();
        let before = kv.lookup_cycles();
        kv.get(42);
        // At least one slot searched: 1 search + 31 tag folds.
        assert!(kv.lookup_cycles() >= before + 32);
    }

    #[test]
    fn removing_missing_key_errors() {
        let mut kv = store();
        assert_eq!(kv.remove(5), Err(KvError::NotFound));
    }
}
