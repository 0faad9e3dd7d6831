//! The CSB as a victim cache (Section VII's third mode).

use cape_csb::{Csb, CsbGeometry, SUBARRAYS_PER_CHAIN};
use std::collections::VecDeque;

use crate::match_program;

/// Words per cache line (64-byte lines).
const LINE_WORDS: usize = 16;
/// Register holding the address tags.
const TAG_REG: usize = 0;
/// First register holding line data (regs 1..=16).
const DATA_BASE: usize = 1;

/// A CSB tile emulating a fully-associative victim cache for 64-byte
/// lines.
///
/// Each lane holds one line: the block address in the tag register and
/// the 16 data words bit-sliced in the following registers. A probe is a
/// single bulk search of the tag row across every lane of every chain —
/// full associativity for free, which is exactly why the paper proposes
/// this mode. Insertion replaces the FIFO-oldest line (the CP keeps the
/// replacement queue).
#[derive(Debug, Clone)]
pub struct VictimCache {
    csb: Csb,
    /// FIFO of occupied lanes (front = oldest).
    fifo: VecDeque<usize>,
    free: Vec<usize>,
    hits: u64,
    misses: u64,
    probe_cycles: u64,
}

impl VictimCache {
    /// Configures a victim cache of the given geometry.
    pub fn new(geometry: CsbGeometry) -> Self {
        let lanes = geometry.max_vl();
        Self {
            csb: Csb::new(geometry),
            fifo: VecDeque::with_capacity(lanes),
            free: (0..lanes).rev().collect(),
            hits: 0,
            misses: 0,
            probe_cycles: 0,
        }
    }

    /// Line capacity (one line per lane).
    pub fn capacity_lines(&self) -> usize {
        self.csb.max_vl()
    }

    /// Hits observed.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses observed.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total probe cycles charged (search + tag fold per probe).
    pub fn probe_cycles(&self) -> u64 {
        self.probe_cycles
    }

    /// Searches for the lane holding `block_addr`.
    fn find(&mut self, block_addr: u32) -> Option<usize> {
        let program = match_program(TAG_REG, block_addr);
        self.csb.execute_program(&program);
        self.probe_cycles += program.len() as u64;
        let geometry = self.csb.geometry();
        for chain in 0..geometry.num_chains() {
            let tags = self.csb.chain_tags(chain, SUBARRAYS_PER_CHAIN - 1);
            for col in 0..32 {
                if tags >> col & 1 == 1 {
                    let elem = geometry.element_at(cape_csb::ElementLocation { chain, col });
                    if self.fifo.contains(&elem) {
                        return Some(elem);
                    }
                }
            }
        }
        None
    }

    /// Probes the cache for the 64-byte line of `block_addr` (the L2
    /// controller's message on a miss). Returns the line data on a hit.
    pub fn probe(&mut self, block_addr: u32) -> Option<[u32; LINE_WORDS]> {
        match self.find(block_addr) {
            Some(lane) => {
                self.hits += 1;
                let mut line = [0u32; LINE_WORDS];
                for (w, slot) in line.iter_mut().enumerate() {
                    *slot = self.csb.read_element(DATA_BASE + w, lane);
                }
                Some(line)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts a victim line (evicted from the cache above), replacing
    /// the oldest stored line when full. Re-inserting an address
    /// refreshes its data in place.
    pub fn insert(&mut self, block_addr: u32, line: &[u32; LINE_WORDS]) {
        let lane = if let Some(lane) = self.find(block_addr) {
            lane
        } else if let Some(lane) = self.free.pop() {
            self.fifo.push_back(lane);
            lane
        } else {
            let lane = self
                .fifo
                .pop_front()
                .expect("full cache has an oldest line");
            self.fifo.push_back(lane);
            lane
        };
        self.csb.write_element(TAG_REG, lane, block_addr);
        for (w, &word) in line.iter().enumerate() {
            self.csb.write_element(DATA_BASE + w, lane, word);
        }
    }

    /// Removes a line (e.g. on invalidation), returning whether it was
    /// present.
    pub fn invalidate(&mut self, block_addr: u32) -> bool {
        if let Some(lane) = self.find(block_addr) {
            self.fifo.retain(|&l| l != lane);
            self.free.push(lane);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(seed: u32) -> [u32; LINE_WORDS] {
        std::array::from_fn(|i| seed.wrapping_mul(31).wrapping_add(i as u32))
    }

    #[test]
    fn probe_hits_after_insert() {
        let mut vc = VictimCache::new(CsbGeometry::new(2));
        vc.insert(0x1234, &line(1));
        assert_eq!(vc.probe(0x1234), Some(line(1)));
        assert_eq!(vc.probe(0x9999), None);
        assert_eq!(vc.hits(), 1);
        assert_eq!(vc.misses(), 1);
    }

    #[test]
    fn fifo_replacement_evicts_oldest() {
        let mut vc = VictimCache::new(CsbGeometry::new(1)); // 32 lines
        for a in 0..33u32 {
            vc.insert(a, &line(a));
        }
        assert_eq!(vc.probe(0), None, "oldest line evicted");
        assert!(vc.probe(1).is_some());
        assert!(vc.probe(32).is_some());
    }

    #[test]
    fn reinsert_refreshes_in_place() {
        let mut vc = VictimCache::new(CsbGeometry::new(1));
        vc.insert(7, &line(1));
        vc.insert(7, &line(2));
        assert_eq!(vc.probe(7), Some(line(2)));
        // Only one slot consumed.
        for a in 100..131u32 {
            vc.insert(a, &line(a));
        }
        assert!(vc.probe(7).is_some(), "line 7 must still fit");
    }

    #[test]
    fn invalidation_frees_slots() {
        let mut vc = VictimCache::new(CsbGeometry::new(1));
        vc.insert(5, &line(5));
        assert!(vc.invalidate(5));
        assert!(!vc.invalidate(5));
        assert_eq!(vc.probe(5), None);
    }

    #[test]
    fn probes_charge_search_cycles() {
        let mut vc = VictimCache::new(CsbGeometry::new(2));
        vc.probe(1);
        assert!(vc.probe_cycles() >= 32);
    }
}
