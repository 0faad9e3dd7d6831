//! The full Compute-Storage Block: chains + reduction tree + accounting.

use std::sync::Arc;

use crate::block::BLOCK_LANES;
use crate::chain::{Chain, ChainState};
use crate::fault::{
    FaultConfig, FaultKind, FaultLayer, FaultStats, RemapOutcome, ScrubReport, StruckRow,
};
use crate::geometry::{CsbGeometry, ElementLocation, SUBARRAY_COLS};
use crate::microop::MicroOp;
use crate::pool::{Shard, WorkerPool};
use crate::program::MicroProgram;
use crate::reduction::ReductionTree;
use crate::stats::MicroOpStats;

/// A captured register-file image of a whole CSB: one [`ChainState`] per
/// chain, taken at a microprogram sync point.
///
/// The states are reference-counted, so cloning a snapshot (e.g. to keep
/// one resident image per tenant in a scheduler) is cheap, and restoring
/// does not copy the image into worker closures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsbSnapshot {
    chains: Arc<Vec<ChainState>>,
}

impl CsbSnapshot {
    /// The all-zero snapshot for `geometry` — what a freshly constructed
    /// CSB holds. Restoring it is a full register-file wipe, so a job
    /// started from it observes exactly the state of a fresh machine.
    pub fn zeroed(geometry: CsbGeometry) -> Self {
        Self {
            chains: Arc::new(vec![ChainState::zeroed(); geometry.num_chains()]),
        }
    }

    /// Number of per-chain states in the snapshot.
    pub fn num_chains(&self) -> usize {
        self.chains.len()
    }
}

/// Minimum number of *active* chains before a broadcast fans out over the
/// worker pool; below this, channel transfers cost more than the work.
const POOL_MIN_ACTIVE: usize = 512;

/// The Compute-Storage Block: an array of chains executing broadcast
/// [`MicroOp`]s in lockstep, plus the global reduction tree.
///
/// The CSB also owns the *active window* (`vstart..vl`) that implements
/// RISC-V vector-length-agnostic semantics: columns mapped to elements
/// outside the window are masked out of every search and update, and tail
/// elements keep their values as the RVV specification requires
/// (Section V-F).
///
/// Chains are partitioned once, at construction, into contiguous *shards*
/// — one per worker thread — and packed inside each shard into
/// structure-of-arrays blocks of [`BLOCK_LANES`] chains (see the `block`
/// module), so every microop runs as a vectorized sweep over a block. A
/// broadcast of a whole [`MicroProgram`] ([`Csb::execute_program`]) moves
/// each shard to a persistent worker, runs every microop chain-locally,
/// and joins exactly once to harvest per-shard reduction sums. It is the
/// only way microops reach the chains: a single microop is a one-op
/// program.
#[derive(Debug, Clone)]
pub struct Csb {
    geometry: CsbGeometry,
    shards: Vec<Shard>,
    /// Chains per shard (the last shard may be shorter). Always a
    /// multiple of [`BLOCK_LANES`] so a chain index maps to a
    /// (shard, block, lane) triple without crossing shard boundaries.
    shard_size: usize,
    /// Chains whose window mask is non-zero (fully-masked chains are
    /// power-gated and skipped, Section V-F).
    active_count: usize,
    tree: ReductionTree,
    vstart: usize,
    vl: usize,
    stats: MicroOpStats,
    /// Worker threads for the broadcast fan-out (queried once; it is a
    /// syscall).
    threads: usize,
    pool: WorkerPool,
    /// Seeded fault injection + parity/golden detection. `None` (the
    /// default) costs one branch per broadcast — the PR 4 kernels run at
    /// full speed with injection disabled.
    fault: Option<Box<FaultLayer>>,
}

impl Csb {
    /// Creates a zero-initialized CSB with the given geometry. The active
    /// window starts fully open (`vstart = 0`, `vl = MAX_VL`).
    pub fn new(geometry: CsbGeometry) -> Self {
        let n = geometry.num_chains();
        let threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(16);
        let shard_size = n
            .div_ceil(threads.min(n).max(1))
            .next_multiple_of(BLOCK_LANES);
        let shards = (0..n.div_ceil(shard_size))
            .map(|s| Shard::new(shard_size.min(n - s * shard_size)))
            .collect();
        let mut csb = Self {
            geometry,
            shards,
            shard_size,
            active_count: n,
            tree: ReductionTree::new(n),
            vstart: 0,
            vl: geometry.max_vl(),
            stats: MicroOpStats::new(),
            threads,
            pool: WorkerPool::new(),
            fault: None,
        };
        csb.recompute_windows();
        csb
    }

    /// The CSB geometry.
    pub fn geometry(&self) -> CsbGeometry {
        self.geometry
    }

    /// Maximum hardware vector length.
    pub fn max_vl(&self) -> usize {
        self.geometry.max_vl()
    }

    /// Current vector length.
    pub fn vl(&self) -> usize {
        self.vl
    }

    /// Current vector start index.
    pub fn vstart(&self) -> usize {
        self.vstart
    }

    /// The global reduction tree model.
    pub fn reduction_tree(&self) -> ReductionTree {
        self.tree
    }

    /// Reconfigures the active window. Chain controllers locally compute
    /// their column masks from the chain ID, `vstart` and `vl`
    /// (Section V-F); fully-masked chains would power-gate their
    /// peripherals.
    ///
    /// # Panics
    ///
    /// Panics if `vl > MAX_VL` or `vstart > vl`.
    pub fn set_active_window(&mut self, vstart: usize, vl: usize) {
        assert!(
            vl <= self.max_vl(),
            "vl {vl} exceeds MAX_VL {}",
            self.max_vl()
        );
        assert!(vstart <= vl, "vstart {vstart} exceeds vl {vl}");
        self.vstart = vstart;
        self.vl = vl;
        self.recompute_windows();
    }

    fn recompute_windows(&mut self) {
        self.active_count = 0;
        for (s, shard) in self.shards.iter_mut().enumerate() {
            for j in 0..shard.len() {
                let w = self
                    .geometry
                    .window_mask(s * self.shard_size + j, self.vstart, self.vl);
                shard.set_window(j, w);
                if w != 0 {
                    self.active_count += 1;
                }
            }
        }
    }

    /// Number of chains whose window is fully masked (candidates for
    /// power gating).
    pub fn idle_chains(&self) -> usize {
        self.geometry.num_chains() - self.active_count
    }

    /// True when broadcasts fan out over the worker pool: enough *active*
    /// chains to amortize the channel transfers, regardless of how many
    /// tail chains the window masks off.
    fn use_pool(&self) -> bool {
        self.threads > 1 && self.active_count >= POOL_MIN_ACTIVE
    }

    /// Executes a whole compiled [`MicroProgram`] as one broadcast unit —
    /// the CSB's only broadcast path. Every shard runs every microop
    /// locally (skipping its power-gated chains), and the single join
    /// harvests one summed popcount per [`MicroOp::ReduceTags`] sync
    /// point, returned in program order. Per-chain read data is
    /// accessible through [`Csb::chain_row`].
    ///
    /// Every microop is recorded in the statistics, and the result is
    /// bit-identical to sweeping the ops over scalar reference chains
    /// ([`reference_sweep`](crate::reference_sweep)).
    pub fn execute_program(&mut self, program: &MicroProgram) -> Vec<u64> {
        for op in program.ops() {
            self.record(op);
        }
        if program.is_empty() {
            return Vec::new();
        }
        if let Some(f) = self.fault.as_deref_mut() {
            f.pre_broadcast(&mut self.shards);
        }
        if self.use_pool() {
            let ops = program.plan_arc();
            self.pool.run(&mut self.shards, &ops);
        } else {
            for shard in &mut self.shards {
                shard.run(program.plan());
            }
        }
        let mut sums = vec![0u64; program.reduce_count()];
        for shard in &self.shards {
            for (k, &s) in shard.sums.iter().enumerate() {
                sums[k] += s;
            }
        }
        if let Some(f) = self.fault.as_deref_mut() {
            f.post_broadcast(&mut self.shards, program.ops());
        }
        sums
    }

    fn record(&mut self, op: &MicroOp) {
        let (kind, bp) = op.classify();
        self.stats.record(kind, bp);
    }

    /// Accumulated microop statistics.
    pub fn stats(&self) -> MicroOpStats {
        self.stats
    }

    /// Resets the microop statistics.
    pub fn reset_stats(&mut self) {
        self.stats = MicroOpStats::new();
    }

    /// Splits a global chain index into its owning shard and local index.
    #[inline]
    fn shard_of(&self, i: usize) -> (usize, usize) {
        (i / self.shard_size, i % self.shard_size)
    }

    /// Materializes chain `i` as a scalar [`Chain`] — the reference-model
    /// view of one lane of the block-SoA storage. This copies the chain
    /// state out of its block; use the targeted accessors
    /// ([`Csb::chain_tags`], [`Csb::chain_row`], …) in loops.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn chain(&self, i: usize) -> Chain {
        let (s, j) = self.shard_of(i);
        self.shards[s].chain(j)
    }

    /// Tag bits of subarray `sub` of chain `i` (cheap single-word read).
    pub fn chain_tags(&self, i: usize, sub: usize) -> u32 {
        let (s, j) = self.shard_of(i);
        self.shards[s].tags(j, sub)
    }

    /// Accumulator bits of subarray `sub` of chain `i`.
    pub fn chain_acc(&self, i: usize, sub: usize) -> u32 {
        let (s, j) = self.shard_of(i);
        self.shards[s].acc(j, sub)
    }

    /// Row `row` of subarray `sub` of chain `i` (cheap single-word read).
    pub fn chain_row(&self, i: usize, sub: usize, row: usize) -> u32 {
        let (s, j) = self.shard_of(i);
        self.shards[s].row(j, sub, row)
    }

    /// Overwrites the tag bits of subarray `sub` of chain `i`
    /// (bring-up/test hook; real programs set tags through searches).
    pub fn set_chain_tags(&mut self, i: usize, sub: usize, v: u32) {
        let (s, j) = self.shard_of(i);
        self.shards[s].set_tags(j, sub, v);
    }

    /// Overwrites the accumulator bits of subarray `sub` of chain `i`
    /// (bring-up/test hook).
    pub fn set_chain_acc(&mut self, i: usize, sub: usize, v: u32) {
        let (s, j) = self.shard_of(i);
        self.shards[s].set_acc(j, sub, v);
    }

    /// Masked write into row `row` of subarray `sub` of chain `i`
    /// (bring-up/test hook; broadcast programs write rows through
    /// [`MicroOp::Write`]/[`MicroOp::Update`]).
    pub fn write_chain_row(&mut self, i: usize, sub: usize, row: usize, data: u32, mask: u32) {
        let (s, j) = self.shard_of(i);
        self.shards[s].write_row(j, sub, row, data, mask);
    }

    /// Location of vector element `elem`.
    pub fn locate(&self, elem: usize) -> ElementLocation {
        self.geometry.locate(elem)
    }

    /// Deposits `value` into element `elem` of vector register `reg`
    /// (functional data-transfer path; the VMU accounts for its timing).
    pub fn write_element(&mut self, reg: usize, elem: usize, value: u32) {
        let loc = self.geometry.locate(elem);
        let (s, j) = self.shard_of(loc.chain);
        self.shards[s].write_element(j, reg, loc.col, value);
    }

    /// Reads element `elem` of vector register `reg`.
    pub fn read_element(&self, reg: usize, elem: usize) -> u32 {
        let loc = self.geometry.locate(elem);
        let (s, j) = self.shard_of(loc.chain);
        self.shards[s].read_element(j, reg, loc.col)
    }

    /// Reads the first `len` elements of register `reg` into a vector —
    /// convenient for tests and result extraction.
    pub fn read_vector(&self, reg: usize, len: usize) -> Vec<u32> {
        self.read_vector_at(reg, 0, len)
    }

    /// Reads `len` elements of register `reg` starting at element `start`,
    /// as one bulk transfer: each chain holding in-range elements is read
    /// with a single 32-row block transpose and the values are scattered
    /// into element order.
    ///
    /// # Panics
    ///
    /// Panics if `start + len > MAX_VL`.
    pub fn read_vector_at(&self, reg: usize, start: usize, len: usize) -> Vec<u32> {
        let end = start + len;
        assert!(
            end <= self.max_vl(),
            "element range {start}..{end} exceeds MAX_VL"
        );
        let n = self.geometry.num_chains();
        let mut out = vec![0u32; len];
        for c in 0..n {
            let (k_lo, k_hi) = Self::col_range(c, start, end, n);
            if k_lo >= k_hi {
                continue;
            }
            let (s, j) = self.shard_of(c);
            let vals = self.shards[s].read_column_block(j, reg);
            for (k, &v) in vals.iter().enumerate().take(k_hi).skip(k_lo) {
                out[k * n + c - start] = v;
            }
        }
        out
    }

    /// Writes `values` into register `reg`, starting at element 0.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() > MAX_VL`.
    pub fn write_vector(&mut self, reg: usize, values: &[u32]) {
        self.write_vector_at(reg, 0, values);
    }

    /// Writes `values` into register `reg` starting at element `start`, as
    /// one bulk transfer: values are gathered per chain, bit-sliced with a
    /// single 32×32 transpose and written as masked row words, leaving
    /// elements outside the range untouched.
    ///
    /// # Panics
    ///
    /// Panics if `start + values.len() > MAX_VL`.
    pub fn write_vector_at(&mut self, reg: usize, start: usize, values: &[u32]) {
        let end = start + values.len();
        assert!(
            end <= self.max_vl(),
            "element range {start}..{end} exceeds MAX_VL"
        );
        let n = self.geometry.num_chains();
        for c in 0..n {
            let (k_lo, k_hi) = Self::col_range(c, start, end, n);
            if k_lo >= k_hi {
                continue;
            }
            let mut vals = [0u32; SUBARRAY_COLS];
            for (k, v) in vals.iter_mut().enumerate().take(k_hi).skip(k_lo) {
                *v = values[k * n + c - start];
            }
            let col_mask = Self::col_mask(k_lo, k_hi);
            let (s, j) = self.shard_of(c);
            self.shards[s].write_column_block(j, reg, &vals, col_mask);
        }
    }

    /// Columns `k_lo..k_hi` of chain `c` hold the elements of `start..end`
    /// that live in `c` (element `e` sits at chain `e % n`, column
    /// `e / n`).
    fn col_range(c: usize, start: usize, end: usize, n: usize) -> (usize, usize) {
        let k_lo = if start > c {
            (start - c).div_ceil(n)
        } else {
            0
        };
        let k_hi = if end > c { (end - c).div_ceil(n) } else { 0 };
        (k_lo, k_hi)
    }

    /// Bit mask with bits `k_lo..k_hi` set (`k_hi <= 32`).
    fn col_mask(k_lo: usize, k_hi: usize) -> u32 {
        let below = |k: usize| if k >= 32 { u32::MAX } else { (1u32 << k) - 1 };
        below(k_hi) & !below(k_lo)
    }

    /// Per-chain window mask for chain `i`.
    pub fn window(&self, i: usize) -> u32 {
        let (s, j) = self.shard_of(i);
        self.shards[s].window(j)
    }

    /// True when context save/restore fans out over the worker pool. The
    /// active window is irrelevant here — a context switch moves *every*
    /// chain's registers, including those of power-gated chains.
    fn use_pool_for_context(&self) -> bool {
        self.threads > 1 && self.geometry.num_chains() >= POOL_MIN_ACTIVE
    }

    /// Captures the full register-file image of every chain — vector
    /// registers through the bulk transposed path, plus metadata rows and
    /// match registers (see [`ChainState`]), unpacked lane by lane from
    /// the SoA blocks. Large CSBs fan the capture out over the broadcast
    /// worker pool, one task per shard.
    pub fn save_registers(&mut self) -> CsbSnapshot {
        let n = self.geometry.num_chains();
        let mut chains: Vec<ChainState> = Vec::with_capacity(n);
        if self.use_pool_for_context() {
            let (tx, rx) = std::sync::mpsc::channel::<(usize, Vec<ChainState>)>();
            self.pool.apply(&mut self.shards, |s| {
                let tx = tx.clone();
                Box::new(move |shard: &mut Shard| {
                    let _ = tx.send((s, shard.save_states()));
                })
            });
            drop(tx);
            let mut per_shard: Vec<Vec<ChainState>> = vec![Vec::new(); self.shards.len()];
            for (s, states) in rx.iter() {
                per_shard[s] = states;
            }
            for states in per_shard {
                chains.extend(states);
            }
        } else {
            for shard in &self.shards {
                chains.extend(shard.save_states());
            }
        }
        CsbSnapshot {
            chains: Arc::new(chains),
        }
    }

    /// Restores every chain to a previously captured image — the inverse
    /// of [`Csb::save_registers`], packing each [`ChainState`] back into
    /// its block lane. Restoring [`CsbSnapshot::zeroed`] wipes the
    /// register file back to fresh-machine state.
    ///
    /// With the fault layer armed this costs *no* parity rescan: the
    /// unpack writes through the parity-maintaining paths, so per-row
    /// parity tracks the restored image exactly, and any strike that
    /// landed before the restore keeps its fold/parity mismatch through
    /// the overwrite (a write moves data and parity by the same delta).
    /// Multi-tenant slice switches therefore pay only the register copy.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot was taken on a CSB of a different geometry.
    pub fn restore_registers(&mut self, snapshot: &CsbSnapshot) {
        let n = self.geometry.num_chains();
        assert_eq!(
            snapshot.num_chains(),
            n,
            "snapshot geometry does not match this CSB"
        );
        if self.use_pool_for_context() {
            let shard_size = self.shard_size;
            let states = Arc::clone(&snapshot.chains);
            self.pool.apply(&mut self.shards, |s| {
                let states = Arc::clone(&states);
                Box::new(move |shard: &mut Shard| {
                    let base = s * shard_size;
                    shard.load_states(&states[base..base + shard.len()]);
                })
            });
        } else {
            for (s, shard) in self.shards.iter_mut().enumerate() {
                let base = s * self.shard_size;
                shard.load_states(&snapshot.chains[base..base + shard.len()]);
            }
        }
    }

    // ---- fault injection, detection and recovery ----------------------

    /// Arms deterministic fault injection: provisions
    /// `config.spare_blocks_per_shard` spare blocks per shard and arms
    /// incremental per-row parity over the current (assumed clean) state
    /// — the one full parity-rebuild pass, paid here and never on the
    /// broadcast path. See the `fault` module docs for the detection
    /// tiers and recovery invariants.
    pub fn enable_fault_injection(&mut self, config: FaultConfig) {
        for shard in &mut self.shards {
            shard.add_spares(config.spare_blocks_per_shard);
        }
        self.fault = Some(Box::new(FaultLayer::new(config, &mut self.shards)));
    }

    /// True when the fault layer is armed.
    pub fn fault_injection_enabled(&self) -> bool {
        self.fault.is_some()
    }

    /// Fault-layer counters (all zero while injection is disabled).
    pub fn fault_stats(&self) -> FaultStats {
        self.fault
            .as_deref()
            .map(FaultLayer::stats)
            .unwrap_or_default()
    }

    /// Blocks flagged by detection and not yet successfully remapped. A
    /// scheduler must not checkpoint or trust results while this is
    /// non-zero.
    pub fn pending_faults(&self) -> usize {
        self.fault.as_deref().map_or(0, FaultLayer::pending_blocks)
    }

    /// Runs one scrub pass: re-asserts persistent faults (the silicon
    /// does not wait for a broadcast) and parity-scans every unflagged
    /// block. Returns `None` while injection is disabled.
    pub fn scrub(&mut self) -> Option<ScrubReport> {
        let f = self.fault.as_deref_mut()?;
        Some(f.scrub(&mut self.shards))
    }

    /// Quarantines every flagged block and remaps its chains onto spare
    /// blocks. Register *contents* of a remapped block are a best-effort
    /// copy and may still be corrupt — restore a known-good
    /// [`CsbSnapshot`] afterwards to resume bit-exact execution.
    pub fn quarantine_and_remap(&mut self) -> RemapOutcome {
        match self.fault.as_deref_mut() {
            Some(f) => f.quarantine_and_remap(&mut self.shards),
            None => RemapOutcome::default(),
        }
    }

    /// Field service: provisions `per_shard` fresh spare blocks on every
    /// shard (modeling a hardware swap of the exhausted spare rack) and
    /// immediately retries quarantine-and-remap on every still-pending
    /// block. A machine that was degraded to "unremappable faults
    /// pending" comes back with `pending_faults() == 0` and a
    /// replenished inventory — the precondition a fleet's probation
    /// ladder checks before re-admitting it. No-op while the fault layer
    /// is disarmed.
    ///
    /// Like [`Csb::quarantine_and_remap`], remapped blocks inherit a
    /// best-effort (possibly corrupt) data copy: restore a known-good
    /// [`CsbSnapshot`] before trusting results again.
    pub fn service_spares(&mut self, per_shard: usize) -> RemapOutcome {
        if self.fault.is_none() {
            return RemapOutcome::default();
        }
        for shard in &mut self.shards {
            shard.add_spares(per_shard);
        }
        self.quarantine_and_remap()
    }

    /// Test hook: plants one specific fault on the block holding chain
    /// `i`. Injection must be enabled.
    ///
    /// # Panics
    ///
    /// Panics if the fault layer is not armed.
    pub fn inject_fault(&mut self, i: usize, kind: FaultKind) {
        let (s, j) = (i / self.shard_size, i % self.shard_size);
        let lb = j / BLOCK_LANES;
        let f = self
            .fault
            .as_deref_mut()
            .expect("enable_fault_injection first");
        f.inject_now(&mut self.shards, s, lb, kind);
    }

    /// Unused spare blocks remaining across all shards.
    pub fn spare_blocks_free(&self) -> usize {
        self.shards.iter().map(Shard::spares_free).sum()
    }

    /// Physical blocks quarantined so far across all shards.
    pub fn quarantined_blocks(&self) -> usize {
        self.shards.iter().map(Shard::quarantined_count).sum()
    }

    /// Row-granular localizations of every strike flagged so far: the
    /// exact `(shard, logical block, subarray, row)` coordinates whose
    /// parity mismatched at detection time. Empty while injection is
    /// disabled or nothing has been flagged.
    pub fn struck_rows(&self) -> Vec<StruckRow> {
        self.fault
            .as_deref()
            .map(|f| f.struck_rows().to_vec())
            .unwrap_or_default()
    }

    /// Test hook: true when every live (logical) block's incrementally
    /// maintained per-row parity equals a from-scratch recompute and all
    /// syndromes are zero. Vacuously true while the fault layer is off
    /// (the clean kernels do not maintain parity). Quarantined blocks
    /// keep their stale mismatch by design and are not consulted.
    pub fn parity_consistent(&self) -> bool {
        self.fault.is_none() || self.shards.iter().all(Shard::parity_consistent_logical)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::reference_sweep;
    use crate::microop::{ColSel, Probe, TagDest, TagMode, WriteSpec};

    fn small() -> Csb {
        Csb::new(CsbGeometry::new(4))
    }

    /// Broadcasts `ops` as one program, returning its reduction sums.
    fn run(csb: &mut Csb, ops: Vec<MicroOp>) -> Vec<u64> {
        csb.execute_program(&MicroProgram::new(ops))
    }

    fn search1(subarray: usize, row: usize, want: bool) -> MicroOp {
        MicroOp::Search {
            probes: vec![Probe::row(subarray, row, want)],
            gates: vec![],
            dest: TagDest::Tags,
            mode: TagMode::Set,
        }
    }

    #[test]
    fn vector_roundtrip_across_chains() {
        let mut csb = small();
        let data: Vec<u32> = (0..128).map(|i| i * 0x0101).collect();
        csb.write_vector(6, &data);
        assert_eq!(csb.read_vector(6, 128), data);
    }

    #[test]
    fn bulk_write_matches_per_element_path_at_offsets() {
        let mut bulk = small();
        let mut serial = small();
        let data: Vec<u32> = (0..50u32)
            .map(|i| i.wrapping_mul(0x9E37_79B9) ^ 0xA5A5)
            .collect();
        bulk.write_vector_at(7, 13, &data);
        for (e, &v) in data.iter().enumerate() {
            serial.write_element(7, 13 + e, v);
        }
        for e in 0..128 {
            assert_eq!(
                bulk.read_element(7, e),
                serial.read_element(7, e),
                "element {e}"
            );
        }
        assert_eq!(bulk.read_vector_at(7, 13, 50), data);
    }

    #[test]
    fn offset_write_preserves_neighbouring_elements() {
        let mut csb = small();
        csb.write_vector(9, &[0x5151_5151; 128]);
        csb.write_vector_at(9, 40, &[7; 20]);
        let out = csb.read_vector(9, 128);
        assert!(out[..40].iter().all(|&v| v == 0x5151_5151));
        assert!(out[40..60].iter().all(|&v| v == 7));
        assert!(out[60..].iter().all(|&v| v == 0x5151_5151));
    }

    #[test]
    fn broadcast_search_reaches_every_chain() {
        let mut csb = small();
        // Element e of v1 = e; search bit 0 == 1 finds the odd elements.
        let data: Vec<u32> = (0..16).map(|i| i as u32).collect();
        csb.write_vector(1, &data);
        csb.set_active_window(0, 16);
        let sums = run(
            &mut csb,
            vec![search1(0, 1, true), MicroOp::ReduceTags { subarray: 0 }],
        );
        assert_eq!(sums, vec![8]); // 8 odd values in 0..16
    }

    #[test]
    fn active_window_masks_tail_elements() {
        let mut csb = small();
        let data: Vec<u32> = vec![1; 16];
        csb.write_vector(2, &data);
        csb.set_active_window(0, 5);
        let sums = run(
            &mut csb,
            vec![search1(0, 2, true), MicroOp::ReduceTags { subarray: 0 }],
        );
        assert_eq!(sums, vec![5]);
    }

    #[test]
    fn tail_elements_unchanged_by_update() {
        let mut csb = small();
        csb.write_vector(3, &[7u32; 8]);
        csb.set_active_window(0, 4);
        // Bulk-clear bit 0 of v3 inside the window.
        run(
            &mut csb,
            vec![MicroOp::Update {
                writes: vec![WriteSpec {
                    subarray: 0,
                    row: 3,
                    value: false,
                    cols: ColSel::Window,
                }],
            }],
        );
        let out = csb.read_vector(3, 8);
        assert_eq!(&out[..4], &[6, 6, 6, 6]);
        assert_eq!(&out[4..], &[7, 7, 7, 7]); // tail untouched
    }

    #[test]
    fn idle_chains_counts_fully_masked_chains() {
        let mut csb = small();
        // vl = 2 with 4 chains: chains 2 and 3 hold no active element.
        csb.set_active_window(0, 2);
        assert_eq!(csb.idle_chains(), 2);
        csb.set_active_window(0, csb.max_vl());
        assert_eq!(csb.idle_chains(), 0);
    }

    #[test]
    fn window_rewrites_take_effect_between_broadcasts() {
        // Regression test for active-list staleness: masking chains to
        // zero *between* ops must be honored by the very next broadcast.
        let mut csb = small();
        csb.write_vector(1, &[1u32; 128]);
        csb.set_active_window(0, 128);
        run(&mut csb, vec![search1(0, 0, true)]);
        let before: Vec<Chain> = (0..4).map(|c| csb.chain(c)).collect();

        // Shrink the window so chains 2 and 3 are fully gated, then run
        // an op that would visibly mutate them (unconditional row set).
        csb.set_active_window(0, 2);
        run(
            &mut csb,
            vec![MicroOp::Write {
                subarray: 0,
                row: 9,
                data: u32::MAX,
                mask: u32::MAX,
            }],
        );
        for (c, want) in before.iter().enumerate().skip(2) {
            assert_eq!(&csb.chain(c), want, "gated chain {c} must not change");
        }
        assert_ne!(csb.chain_row(0, 0, 9), 0, "active chain must be written");
    }

    #[test]
    fn stats_classify_ops() {
        let mut csb = small();
        run(
            &mut csb,
            vec![
                search1(0, 0, true),
                MicroOp::Update {
                    writes: vec![WriteSpec {
                        subarray: 1,
                        row: 0,
                        value: true,
                        cols: ColSel::Tags(0),
                    }],
                },
                MicroOp::ReduceTags { subarray: 0 },
            ],
        );
        let s = csb.stats();
        assert_eq!(s.searches_bs, 1);
        assert_eq!(s.updates_prop, 1);
        assert_eq!(s.reduces, 1);
        assert_eq!(s.total(), 3);
        csb.reset_stats();
        assert_eq!(csb.stats().total(), 0);
    }

    #[test]
    fn execute_program_matches_chain_reference() {
        let ops = vec![
            search1(0, 1, true),
            MicroOp::ReduceTags { subarray: 0 },
            MicroOp::Update {
                writes: vec![WriteSpec {
                    subarray: 1,
                    row: 5,
                    value: true,
                    cols: ColSel::Tags(0),
                }],
            },
            MicroOp::TagCombine {
                src: 0,
                dst: 1,
                op: TagMode::Set,
            },
            MicroOp::ReduceTags { subarray: 1 },
        ];
        let data: Vec<u32> = (0..128).map(|i| i as u32).collect();
        let mut csb = small();
        csb.write_vector(1, &data);
        csb.set_active_window(3, 77);
        let mut reference: Vec<Chain> = (0..4).map(|c| csb.chain(c)).collect();
        let windows: Vec<u32> = (0..4).map(|c| csb.window(c)).collect();

        let program = MicroProgram::new(ops.clone());
        let sums = csb.execute_program(&program);

        assert_eq!(sums, reference_sweep(&mut reference, &windows, &ops));
        for (c, want) in reference.iter().enumerate() {
            assert_eq!(&csb.chain(c), want, "chain {c}");
        }
        assert_eq!(csb.stats(), program.stats());
    }

    #[test]
    fn empty_program_is_a_no_op() {
        let mut csb = small();
        assert_eq!(
            csb.execute_program(&MicroProgram::new(vec![])),
            Vec::<u64>::new()
        );
        assert_eq!(csb.stats().total(), 0);
    }

    #[test]
    fn large_partially_masked_csb_matches_functional_expectation() {
        // 1,024 chains with vl = 600: chains 600..1024 are fully masked,
        // leaving 600 active chains — above the pool threshold, so on
        // multi-core hosts this exercises the pooled partial-window path
        // (and the serial path elsewhere; results must be identical).
        let mut csb = Csb::new(CsbGeometry::new(1024));
        let data: Vec<u32> = (0..600).map(|e| e as u32).collect();
        csb.write_vector(1, &data);
        csb.set_active_window(0, 600);
        assert!(csb.idle_chains() > 0);
        let mut reference: Vec<Chain> = (0..1024).map(|c| csb.chain(c)).collect();
        let windows: Vec<u32> = (0..1024).map(|c| csb.window(c)).collect();

        let ops = vec![
            search1(0, 1, true),
            MicroOp::ReduceTags { subarray: 0 },
            search1(1, 1, true),
            MicroOp::ReduceTags { subarray: 1 },
        ];
        let sums = csb.execute_program(&MicroProgram::new(ops.clone()));
        // Odd values in 0..600, then values in 0..600 with bit 1 set.
        assert_eq!(sums, vec![300, 300]);

        // The scalar reference chains agree on sums and final state.
        assert_eq!(reference_sweep(&mut reference, &windows, &ops), sums);
        for (c, want) in reference.iter().enumerate() {
            assert_eq!(&csb.chain(c), want, "chain {c}");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_VL")]
    fn window_beyond_max_vl_panics() {
        small().set_active_window(0, 129);
    }

    #[test]
    fn snapshot_roundtrip_restores_registers_metadata_and_tags() {
        let mut csb = small();
        let data: Vec<u32> = (0..128u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        csb.write_vector(5, &data);
        csb.set_chain_tags(1, 3, 0xF0F0_0F0F);
        csb.set_chain_acc(2, 7, 0x1234_5678);
        csb.write_chain_row(0, 4, crate::subarray::ROW_CARRY, 0xAAAA_5555, u32::MAX);

        let snap = csb.save_registers();

        // Trash everything, then restore.
        csb.write_vector(5, &vec![0xDEAD_BEEF; 128]);
        csb.set_chain_tags(1, 3, 0);
        csb.set_chain_acc(2, 7, 0);
        csb.write_chain_row(0, 4, crate::subarray::ROW_CARRY, 0, u32::MAX);
        csb.restore_registers(&snap);

        assert_eq!(csb.read_vector(5, 128), data);
        assert_eq!(csb.chain_tags(1, 3), 0xF0F0_0F0F);
        assert_eq!(csb.chain_acc(2, 7), 0x1234_5678);
        assert_eq!(csb.chain_row(0, 4, crate::subarray::ROW_CARRY), 0xAAAA_5555);
    }

    #[test]
    fn zeroed_snapshot_wipes_back_to_fresh_state() {
        let mut csb = small();
        csb.write_vector(9, &[7; 128]);
        csb.set_chain_tags(0, 0, u32::MAX);
        csb.restore_registers(&CsbSnapshot::zeroed(csb.geometry()));
        let fresh = small();
        for c in 0..4 {
            assert_eq!(csb.chain(c), fresh.chain(c), "chain {c}");
        }
    }

    #[test]
    fn pooled_snapshot_matches_serial_snapshot() {
        // 1,024 chains crosses the pool threshold on multi-core hosts.
        let mut csb = Csb::new(CsbGeometry::new(1024));
        let data: Vec<u32> = (0..4096).map(|e| e as u32 ^ 0x5A5A).collect();
        csb.write_vector(2, &data);
        csb.set_chain_tags(777, 11, 0xCAFE_F00D);

        let snap = csb.save_registers();
        csb.write_vector(2, &vec![0; 4096]);
        csb.set_chain_tags(777, 11, 0);
        csb.restore_registers(&snap);

        assert_eq!(csb.read_vector(2, 4096), data);
        assert_eq!(csb.chain_tags(777, 11), 0xCAFE_F00D);
        // A second capture of the restored state is identical.
        assert_eq!(csb.save_registers(), snap);
    }

    #[test]
    #[should_panic(expected = "geometry does not match")]
    fn restore_rejects_mismatched_geometry() {
        let snap = CsbSnapshot::zeroed(CsbGeometry::new(8));
        small().restore_registers(&snap);
    }

    // ---- fault injection, detection and recovery ----------------------

    fn armed(chains: usize, spares: usize) -> Csb {
        let mut csb = Csb::new(CsbGeometry::new(chains));
        csb.enable_fault_injection(FaultConfig::quiescent(spares));
        csb
    }

    #[test]
    fn parity_scan_catches_transient_flip_before_next_broadcast() {
        let mut csb = armed(4, 1);
        csb.write_vector(1, &[3u32; 128]);
        assert_eq!(csb.pending_faults(), 0);
        csb.inject_fault(
            0,
            FaultKind::Transient {
                lane: 0,
                subarray: 2,
                row: 1,
                mask: 0x10,
                late: false,
            },
        );
        // The pre-broadcast scan of the next program latches the block.
        run(&mut csb, vec![search1(0, 1, true)]);
        assert_eq!(csb.pending_faults(), 1);
        let stats = csb.fault_stats();
        assert_eq!(stats.detected_parity, 1);
        assert!(stats.fully_accounted(), "{stats:?}");
    }

    #[test]
    fn scrub_detects_stuck_at_without_a_broadcast() {
        let mut csb = armed(4, 1);
        csb.write_vector(2, &[0u32; 128]); // rows all zero → stuck-at-1 flips
        csb.inject_fault(
            1,
            FaultKind::StuckAt {
                lane: 1,
                subarray: 5,
                row: 2,
                mask: 0xFF,
                value: true,
            },
        );
        let report = csb.scrub().unwrap();
        assert_eq!(report.newly_flagged, 1);
        assert_eq!(report.pending, 1);
        assert_eq!(csb.fault_stats().scrubs, 1);
    }

    #[test]
    fn save_inject_detect_remap_restore_is_bit_identical() {
        let mut csb = armed(4, 2);
        let data: Vec<u32> = (0..128u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        csb.write_vector(5, &data);
        csb.set_active_window(0, 128);
        let snap = csb.save_registers();
        let clean = csb.read_vector(5, 128);

        // Kill the whole block under chain 0, detect via scrub, remap
        // onto a spare, then restore the checkpoint.
        csb.inject_fault(0, FaultKind::DeadBlock);
        let report = csb.scrub().unwrap();
        assert_eq!(report.pending, 1);
        let outcome = csb.quarantine_and_remap();
        assert!(outcome.fully_recovered());
        assert_eq!(csb.quarantined_blocks(), 1);
        csb.restore_registers(&snap);

        assert_eq!(csb.read_vector(5, 128), clean);
        assert_eq!(csb.pending_faults(), 0);
        // And the machine still computes correctly on the spare.
        run(&mut csb, vec![search1(0, 0, true)]);
        let stats = csb.fault_stats();
        assert_eq!(stats.blocks_remapped, 1);
        assert!(stats.fully_accounted());
    }

    #[test]
    fn out_of_spares_keeps_block_flagged_forever() {
        let mut csb = armed(4, 0);
        csb.inject_fault(
            0,
            FaultKind::Transient {
                lane: 3,
                subarray: 0,
                row: 0,
                mask: 1,
                late: false,
            },
        );
        let _ = csb.scrub().unwrap();
        let outcome = csb.quarantine_and_remap();
        assert_eq!(outcome.failed, 1);
        assert!(!outcome.fully_recovered());
        // The corruption is never silently re-absorbed: the block stays
        // pending across scrubs and broadcasts.
        run(&mut csb, vec![search1(0, 0, true)]);
        assert_eq!(csb.pending_faults(), 1);
    }

    #[test]
    fn golden_spot_check_catches_late_strike() {
        let mut csb = Csb::new(CsbGeometry::new(4));
        let mut config = FaultConfig::quiescent(1);
        config.spot_check_interval = 1; // sample every program
        csb.enable_fault_injection(config);
        csb.write_vector(1, &[1u32; 128]);
        csb.set_active_window(0, 128);
        // Late transients land *after* the broadcast runs — only the
        // golden replay (or the next scan's dirty-event drain) can see
        // them. Strike every lane so whichever chain the seeded sampler
        // picked is guaranteed to be corrupted.
        for chain in 0..4 {
            csb.inject_fault(
                chain,
                FaultKind::Transient {
                    lane: chain as u8,
                    subarray: 1,
                    row: 1,
                    mask: 0xF0F0,
                    late: true,
                },
            );
        }
        run(&mut csb, vec![search1(0, 1, true)]);
        let stats = csb.fault_stats();
        assert_eq!(stats.detected_golden, 1, "{stats:?}");
        assert!(stats.fully_accounted(), "{stats:?}");
    }

    #[test]
    fn remap_preserves_power_gating_and_padding_invariants() {
        // 20 chains: shard of two blocks, the second partially padded.
        let mut csb = armed(20, 2);
        csb.set_active_window(0, 20 * 32);
        let gated_before = csb.window(19);
        csb.inject_fault(17, FaultKind::DeadBlock);
        let _ = csb.scrub().unwrap();
        let outcome = csb.quarantine_and_remap();
        assert!(outcome.fully_recovered());
        // Window masks survive the remap bit-for-bit (including padding
        // lanes staying gated), and broadcasts still work.
        assert_eq!(csb.window(19), gated_before);
        let snap = CsbSnapshot::zeroed(csb.geometry());
        csb.restore_registers(&snap);
        csb.write_vector(1, &(0..640).map(|i| i as u32).collect::<Vec<_>>());
        let sums = run(
            &mut csb,
            vec![search1(0, 1, true), MicroOp::ReduceTags { subarray: 0 }],
        );
        assert_eq!(sums, vec![320]); // odd values in 0..640
    }

    #[test]
    fn disabled_fault_layer_reports_zeroes() {
        let mut csb = small();
        assert!(!csb.fault_injection_enabled());
        assert_eq!(csb.fault_stats(), FaultStats::default());
        assert_eq!(csb.pending_faults(), 0);
        assert!(csb.scrub().is_none());
        let outcome = csb.quarantine_and_remap();
        assert_eq!(outcome, RemapOutcome::default());
    }
}
