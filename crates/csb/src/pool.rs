//! Persistent broadcast worker pool and block-SoA chain shards.
//!
//! The CSB's chains are partitioned once, at construction, into
//! [`Shard`]s — contiguous runs of chains that are *owned* (not borrowed)
//! by whoever is executing on them. Program broadcast moves each shard to
//! a long-lived worker thread through a channel, the worker runs the whole
//! microop program on its chains, and the shard (with its partial
//! reduction sums) moves back. Ownership transfer is what lets the pool
//! outlive any single call without scoped threads or `unsafe`: sending a
//! `Shard` is a pointer-width move, and the `Csb` gets its chains back at
//! the join.
//!
//! Within a shard, chains are packed [`BLOCK_LANES`] at a time into
//! [`ChainBlock`]s (structure-of-arrays, see the `block` module), so the
//! broadcast hot loop runs each lowered microop over a whole block of
//! chains with auto-vectorizable contiguous-slice kernels.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::block::{ChainBlock, Lanes, BLOCK_LANES};
use crate::chain::{Chain, ChainState};
use crate::geometry::SUBARRAY_COLS;
use crate::program::PlanOp;

/// A contiguous run of chains (packed into [`ChainBlock`]s) plus their
/// window masks, the block-level active list, and a reusable partial-sum
/// scratch buffer.
///
/// `windows[b][l]` is the active-column mask of lane `l` of block `b`;
/// padding lanes of a trailing partial block keep a permanent 0 mask.
/// `active_blocks` holds indices of blocks with at least one non-gated
/// lane; fully-masked blocks are power-gated and skipped (Section V-F),
/// and kernels blend per lane so gated lanes inside a live block are
/// never mutated either. The list is rebuilt lazily — any window rewrite
/// marks it dirty and [`Shard::run`] refreshes it before broadcasting —
/// so it can never go stale when masks change between programs.
///
/// `sums` accumulates one window-masked popcount partial sum per
/// [`PlanOp::ReduceTags`] in the program, in program order, and is
/// cleared and refilled in place on every run — no per-microop
/// allocation.
#[derive(Debug, Clone, Default)]
pub(crate) struct Shard {
    blocks: Vec<ChainBlock>,
    windows: Vec<Lanes>,
    active_blocks: Vec<u32>,
    active_dirty: bool,
    nchains: usize,
    /// Logical block → physical block. Identity at construction; the
    /// fault layer's quarantine-and-remap repoints whole logical blocks
    /// at spare physical blocks, so every per-chain accessor resolves
    /// through this one-word indirection.
    block_map: Vec<u32>,
    /// Physical indices of provisioned-but-unused spare blocks. Spares
    /// keep all-zero windows (power-gated, padding-lane invariant) until
    /// a remap brings them live.
    spare_free: Vec<u32>,
    /// Physical blocks retired by quarantine; their windows are forced
    /// to zero forever, so broadcasts never visit them again.
    quarantined: Vec<u32>,
    /// True once the fault layer armed this shard: broadcasts run the
    /// parity-fused kernel instantiation and injection sites queue
    /// dirty events. All plumbing below travels *with* the shard through
    /// worker ownership transfer — a worker thread maintains parity and
    /// events on the shard it owns with no shared state.
    parity_on: bool,
    /// Physical block indices with a pending parity event (an injector
    /// touched them since the last drain), deduplicated by
    /// `event_queued`. This is the O(touched) dirty set the detector
    /// scans instead of rehashing every block.
    parity_events: Vec<u32>,
    /// One dedup flag per physical block for `parity_events`.
    event_queued: Vec<bool>,
    /// Round-robin cursor for wear-leveled spare selection.
    spare_rr: usize,
    pub sums: Vec<u64>,
}

impl Shard {
    /// A zero-initialized shard of `len` chains with fully-open windows.
    /// The trailing block's padding lanes (when `len` is not a multiple of
    /// [`BLOCK_LANES`]) get a permanent zero window.
    pub fn new(len: usize) -> Self {
        let nblocks = len.div_ceil(BLOCK_LANES);
        let mut windows = vec![[0u32; BLOCK_LANES]; nblocks];
        for local in 0..len {
            windows[local / BLOCK_LANES][local % BLOCK_LANES] = u32::MAX;
        }
        Self {
            blocks: vec![ChainBlock::new(); nblocks],
            windows,
            active_blocks: (0..nblocks as u32).collect(),
            active_dirty: false,
            nchains: len,
            block_map: (0..nblocks as u32).collect(),
            spare_free: Vec::new(),
            quarantined: Vec::new(),
            parity_on: false,
            parity_events: Vec::new(),
            event_queued: vec![false; nblocks],
            spare_rr: 0,
            sums: Vec::new(),
        }
    }

    /// Resolves a local chain index into its (physical block, lane)
    /// coordinates through the remap table.
    #[inline]
    fn loc(&self, local: usize) -> (usize, usize) {
        (
            self.block_map[local / BLOCK_LANES] as usize,
            local % BLOCK_LANES,
        )
    }

    /// Number of chains in this shard (excluding block padding lanes).
    pub fn len(&self) -> usize {
        self.nchains
    }

    /// The window mask of local chain `local`.
    pub fn window(&self, local: usize) -> u32 {
        let (b, l) = self.loc(local);
        self.windows[b][l]
    }

    /// Rewrites the window mask of local chain `local`, marking the
    /// block-level active list for a rebuild before the next broadcast.
    pub fn set_window(&mut self, local: usize, mask: u32) {
        debug_assert!(local < self.nchains, "chain {local} out of shard");
        let (b, l) = self.loc(local);
        if self.windows[b][l] != mask {
            self.windows[b][l] = mask;
            self.active_dirty = true;
        }
    }

    /// Rebuilds `active_blocks` from the current window masks if any mask
    /// changed since the last rebuild.
    fn refresh_active(&mut self) {
        if !self.active_dirty {
            return;
        }
        self.active_blocks.clear();
        for (b, win) in self.windows.iter().enumerate() {
            if win.iter().any(|&w| w != 0) {
                self.active_blocks.push(b as u32);
            }
        }
        self.active_dirty = false;
    }

    /// Number of blocks the next broadcast will visit (test/bring-up
    /// observability for the lazy active-list rebuild).
    #[cfg(test)]
    pub fn active_block_count(&mut self) -> usize {
        self.refresh_active();
        self.active_blocks.len()
    }

    /// Runs a whole lowered microop program over this shard's active
    /// blocks, leaving one partial sum per `ReduceTags` op in `self.sums`.
    ///
    /// Every microop except `ReduceTags` is chain-local, so the only
    /// cross-chain synchronization a program needs is the harvest of
    /// `sums` after this returns — one join per program, not per microop.
    ///
    /// Iteration is block-outer, op-inner: each block runs the *whole*
    /// program while its state is cache-resident, and each op runs as one
    /// vectorized sweep over the block's [`BLOCK_LANES`] chains.
    /// Reduction order across chains changes, but the partial sums are
    /// plain additions, so the totals are identical.
    /// Branches once per program on the shard's parity mode so the hot
    /// loop runs a fully monomorphized kernel set: the clean path stays
    /// byte-for-byte the pre-parity kernels, the fault path fuses the
    /// per-row parity fold into every write.
    pub fn run(&mut self, ops: &[PlanOp]) {
        self.refresh_active();
        if self.parity_on {
            self.run_plan::<true>(ops);
        } else {
            self.run_plan::<false>(ops);
        }
    }

    fn run_plan<const PARITY: bool>(&mut self, ops: &[PlanOp]) {
        let Shard {
            blocks,
            windows,
            active_blocks,
            sums,
            ..
        } = self;
        sums.clear();
        sums.resize(
            ops.iter()
                .filter(|op| matches!(op, PlanOp::ReduceTags { .. }))
                .count(),
            0,
        );
        for &b in active_blocks.iter() {
            let block = &mut blocks[b as usize];
            let win = &windows[b as usize];
            let mut k = 0;
            for op in ops {
                if matches!(op, PlanOp::ReduceTags { .. }) {
                    if let Some(r) = block.execute_plan::<PARITY>(op, win) {
                        sums[k] += r;
                    }
                    k += 1;
                } else {
                    block.execute_plan::<PARITY>(op, win);
                }
            }
        }
    }

    // ---- per-chain access, delegating into the owning block's lane ----

    /// Materializes local chain `local` as a scalar [`Chain`]
    /// (reference-model view; test/bring-up hook, not a hot path).
    pub fn chain(&self, local: usize) -> Chain {
        let (b, l) = self.loc(local);
        self.blocks[b].to_chain(l)
    }

    /// Tag bits of subarray `s` of local chain `local`.
    pub fn tags(&self, local: usize, s: usize) -> u32 {
        let (b, l) = self.loc(local);
        self.blocks[b].tags(l, s)
    }

    /// Overwrites the tag bits of subarray `s` of local chain `local`.
    pub fn set_tags(&mut self, local: usize, s: usize, v: u32) {
        let (b, l) = self.loc(local);
        self.blocks[b].set_tags(l, s, v);
    }

    /// Accumulator bits of subarray `s` of local chain `local`.
    pub fn acc(&self, local: usize, s: usize) -> u32 {
        let (b, l) = self.loc(local);
        self.blocks[b].acc(l, s)
    }

    /// Overwrites the accumulator bits of subarray `s` of local chain
    /// `local`.
    pub fn set_acc(&mut self, local: usize, s: usize, v: u32) {
        let (b, l) = self.loc(local);
        self.blocks[b].set_acc(l, s, v);
    }

    /// Row `r` of subarray `s` of local chain `local`.
    pub fn row(&self, local: usize, s: usize, r: usize) -> u32 {
        let (b, l) = self.loc(local);
        self.blocks[b].row(l, s, r)
    }

    /// Masked write into row `r` of subarray `s` of local chain `local`.
    pub fn write_row(&mut self, local: usize, s: usize, r: usize, data: u32, mask: u32) {
        let (b, l) = self.loc(local);
        self.blocks[b].write_row(l, s, r, data, mask);
    }

    /// Deposits one element into register `reg`, column `col` of local
    /// chain `local`.
    pub fn write_element(&mut self, local: usize, reg: usize, col: usize, value: u32) {
        let (b, l) = self.loc(local);
        self.blocks[b].write_element(l, reg, col, value);
    }

    /// Reads one element of register `reg`, column `col` of local chain
    /// `local`.
    pub fn read_element(&self, local: usize, reg: usize, col: usize) -> u32 {
        let (b, l) = self.loc(local);
        self.blocks[b].read_element(l, reg, col)
    }

    /// Bulk-reads register `reg` of local chain `local` across all 32
    /// columns (one 32×32 transpose).
    pub fn read_column_block(&self, local: usize, reg: usize) -> [u32; SUBARRAY_COLS] {
        let (b, l) = self.loc(local);
        self.blocks[b].read_column_block(l, reg)
    }

    /// Bulk-writes register `reg` of local chain `local` at the columns
    /// selected by `col_mask` (one 32×32 transpose).
    pub fn write_column_block(
        &mut self,
        local: usize,
        reg: usize,
        values: &[u32; SUBARRAY_COLS],
        col_mask: u32,
    ) {
        let (b, l) = self.loc(local);
        self.blocks[b].write_column_block(l, reg, values, col_mask);
    }

    /// Packs every chain of the shard into [`ChainState`]s, in local chain
    /// order — the context-save fan-out unit.
    pub fn save_states(&self) -> Vec<ChainState> {
        (0..self.nchains)
            .map(|local| {
                let (b, l) = self.loc(local);
                self.blocks[b].save_state(l)
            })
            .collect()
    }

    /// Unpacks one [`ChainState`] per chain, in local chain order — the
    /// inverse of [`Shard::save_states`].
    ///
    /// # Panics
    ///
    /// Panics if `states` does not hold exactly one state per chain.
    pub fn load_states(&mut self, states: &[ChainState]) {
        assert_eq!(states.len(), self.nchains, "snapshot/shard length mismatch");
        for (local, state) in states.iter().enumerate() {
            let (b, l) = self.loc(local);
            self.blocks[b].load_state(l, state);
        }
    }

    // ---- fault layer: spares, quarantine and whole-block remap --------

    /// Number of *logical* blocks (the ones chains map onto; excludes
    /// spares and quarantined silicon).
    pub fn nblocks_logical(&self) -> usize {
        self.block_map.len()
    }

    /// Physical block currently backing logical block `lb`.
    pub fn physical_of(&self, lb: usize) -> usize {
        self.block_map[lb] as usize
    }

    /// Logical block mapped onto physical block `phys`, if any (`None`
    /// for quarantined or unused-spare silicon).
    pub fn logical_of(&self, phys: usize) -> Option<usize> {
        self.block_map.iter().position(|&p| p as usize == phys)
    }

    /// Arms incremental parity on this shard: every block's per-row
    /// parity words are rebuilt from current data (the one full pass,
    /// paid at arming time only), and from here on broadcasts run the
    /// parity-fused kernels and injectors queue dirty events.
    pub fn enable_parity(&mut self) {
        for b in self.blocks.iter_mut() {
            b.rebuild_parity();
        }
        self.event_queued = vec![false; self.blocks.len()];
        self.parity_events.clear();
        self.parity_on = true;
    }

    /// Records that an injector disturbed physical block `phys`, for the
    /// detector's next O(touched) dirty-set drain.
    fn queue_parity_event(&mut self, phys: usize) {
        if self.parity_on && !self.event_queued[phys] {
            self.event_queued[phys] = true;
            self.parity_events.push(phys as u32);
        }
    }

    /// Takes the pending dirty set — physical block indices injectors
    /// touched since the last drain. Empty (and allocation-free) in the
    /// steady fault-free state.
    pub fn drain_parity_events(&mut self) -> Vec<u32> {
        for &p in &self.parity_events {
            self.event_queued[p as usize] = false;
        }
        std::mem::take(&mut self.parity_events)
    }

    /// Syndrome word of physical block `phys` (0 = no parity mismatch).
    pub fn syndrome_phys(&self, phys: usize) -> u64 {
        self.blocks[phys].syndrome()
    }

    /// `(subarray, row)` mismatch coordinates of physical block `phys`.
    pub fn struck_rows_phys(&self, phys: usize) -> Vec<(u8, u8)> {
        self.blocks[phys].struck_rows()
    }

    /// Test hook: every *logical* block's parity is consistent with its
    /// data (quarantined blocks keep their stale mismatch by design).
    pub fn parity_consistent_logical(&self) -> bool {
        self.block_map
            .iter()
            .all(|&p| self.blocks[p as usize].parity_consistent())
    }

    /// Transient strike into logical block `lb`.
    pub fn flip_bits_logical(&mut self, lb: usize, lane: usize, s: usize, r: usize, mask: u32) {
        let phys = self.physical_of(lb);
        self.blocks[phys].flip_bits(lane, s, r, mask);
        self.queue_parity_event(phys);
    }

    /// Stuck-at assertion into logical block `lb`; true if state changed.
    pub fn force_bits_logical(
        &mut self,
        lb: usize,
        lane: usize,
        s: usize,
        r: usize,
        mask: u32,
        value: bool,
    ) -> bool {
        let phys = self.physical_of(lb);
        let changed = self.blocks[phys].force_bits(lane, s, r, mask, value);
        if changed {
            self.queue_parity_event(phys);
        }
        changed
    }

    /// Dead-block scramble of logical block `lb`.
    pub fn scramble_logical(&mut self, lb: usize, seed: u32) {
        let phys = self.physical_of(lb);
        self.blocks[phys].scramble(seed);
        self.queue_parity_event(phys);
    }

    /// Provisions `n` spare physical blocks. Spares start all-zero with
    /// all-zero windows, so they are power-gated padding until a remap
    /// brings them live — broadcasts never visit them.
    pub fn add_spares(&mut self, n: usize) {
        for _ in 0..n {
            let phys = self.blocks.len() as u32;
            self.blocks.push(ChainBlock::new());
            self.windows.push([0u32; BLOCK_LANES]);
            self.spare_free.push(phys);
            self.event_queued.push(false);
        }
    }

    /// Unused spares remaining.
    pub fn spares_free(&self) -> usize {
        self.spare_free.len()
    }

    /// Physical blocks retired so far.
    pub fn quarantined_count(&self) -> usize {
        self.quarantined.len()
    }

    /// Quarantines the physical block behind logical block `lb` and
    /// remaps `lb` onto a spare, or returns `None` when this shard is out
    /// of spares (the caller must treat the machine as degraded).
    ///
    /// Spare selection is wear-leveled: a round-robin cursor rotates
    /// through the free list instead of always consuming the lowest
    /// index, so repeated quarantine/re-provision cycles spread remap
    /// wear across the shard's spare silicon.
    ///
    /// The spare inherits a best-effort copy of the (possibly corrupted)
    /// data plus the lane windows — so power-gating state and padding
    /// lanes carry over — and the retired block's windows are forced to
    /// zero forever, excluding it from every future broadcast exactly
    /// like a fully-masked (power-gated) block. The spare's parity is
    /// rebuilt from the copied data (accepting it as ground truth — the
    /// caller restores a clean checkpoint through the write path next),
    /// so the inherited mismatch does not re-flag the remapped block.
    pub fn remap_logical(&mut self, lb: usize) -> Option<usize> {
        if self.spare_free.is_empty() {
            return None;
        }
        let idx = self.spare_rr % self.spare_free.len();
        let new = self.spare_free.remove(idx) as usize;
        self.spare_rr = self.spare_rr.wrapping_add(1);
        let old = self.physical_of(lb);
        self.blocks[new] = self.blocks[old].clone();
        if self.parity_on {
            self.blocks[new].rebuild_parity();
        }
        self.windows[new] = self.windows[old];
        self.windows[old] = [0u32; BLOCK_LANES];
        self.block_map[lb] = new as u32;
        self.quarantined.push(old as u32);
        self.active_dirty = true;
        Some(new)
    }
}

/// A closure run on one owned shard by a worker thread. Results travel
/// through whatever channel the closure captures; the shard itself moves
/// back through the pool.
pub(crate) type ShardFn = Box<dyn FnOnce(&mut Shard) + Send + 'static>;

/// What a worker does with the shard it receives: broadcast a lowered
/// microop program over it, or run an arbitrary owned closure (context
/// snapshot/restore uses the latter).
enum Task {
    Broadcast(Arc<Vec<PlanOp>>),
    Apply(ShardFn),
}

/// One unit of work: a shard to own and the task to run on it.
struct Job {
    shard: Shard,
    task: Task,
}

struct Worker {
    /// `None` once the pool starts shutting down.
    tx: Option<Sender<Job>>,
    rx: Receiver<Shard>,
    handle: Option<JoinHandle<()>>,
}

/// Long-lived worker threads for the broadcast fan-out.
///
/// Workers are spawned lazily on first use and live until the pool (and
/// with it the owning [`Csb`](crate::Csb)) is dropped, so the per-call
/// cost of a broadcast is two channel transfers per shard instead of a
/// thread spawn + join per microop.
pub(crate) struct WorkerPool {
    workers: Vec<Worker>,
}

impl WorkerPool {
    /// An empty pool; threads spawn on the first [`WorkerPool::run`].
    pub fn new() -> Self {
        Self {
            workers: Vec::new(),
        }
    }

    /// Number of worker threads spawned so far.
    pub fn spawned(&self) -> usize {
        self.workers.len()
    }

    fn ensure(&mut self, n: usize) {
        while self.workers.len() < n {
            let (job_tx, job_rx) = channel::<Job>();
            let (res_tx, res_rx) = channel::<Shard>();
            let handle = std::thread::Builder::new()
                .name(format!("csb-broadcast-{}", self.workers.len()))
                .spawn(move || {
                    while let Ok(mut job) = job_rx.recv() {
                        match job.task {
                            Task::Broadcast(ops) => job.shard.run(&ops),
                            Task::Apply(f) => f(&mut job.shard),
                        }
                        if res_tx.send(job.shard).is_err() {
                            break;
                        }
                    }
                })
                .expect("failed to spawn CSB broadcast worker");
            self.workers.push(Worker {
                tx: Some(job_tx),
                rx: res_rx,
                handle: Some(handle),
            });
        }
    }

    /// Fans the program out once over all shards and joins. Each shard is
    /// moved to its worker, run through every microop locally, and moved
    /// back with its partial sums filled in.
    pub fn run(&mut self, shards: &mut [Shard], ops: &Arc<Vec<PlanOp>>) {
        self.dispatch(shards, |_| Task::Broadcast(Arc::clone(ops)));
    }

    /// Runs one owned closure per shard concurrently — the context
    /// snapshot/restore fan-out. `make(i)` builds the closure for shard
    /// `i`; any results travel through channels the closures capture.
    pub fn apply(&mut self, shards: &mut [Shard], mut make: impl FnMut(usize) -> ShardFn) {
        self.dispatch(shards, |i| Task::Apply(make(i)));
    }

    fn dispatch(&mut self, shards: &mut [Shard], mut task: impl FnMut(usize) -> Task) {
        self.ensure(shards.len());
        for (i, (slot, worker)) in shards.iter_mut().zip(&self.workers).enumerate() {
            let job = Job {
                shard: std::mem::take(slot),
                task: task(i),
            };
            worker
                .tx
                .as_ref()
                .expect("worker pool is shut down")
                .send(job)
                .expect("CSB broadcast worker exited");
        }
        for (slot, worker) in shards.iter_mut().zip(&self.workers) {
            *slot = worker.rx.recv().expect("CSB broadcast worker panicked");
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("spawned", &self.spawned())
            .finish()
    }
}

/// Cloning a CSB must not share worker threads; the clone gets a fresh
/// pool that lazily spawns its own.
impl Clone for WorkerPool {
    fn clone(&self) -> Self {
        Self::new()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Dropping every sender ends each worker's recv loop...
        for w in &mut self.workers {
            w.tx.take();
        }
        // ...then the threads can be joined.
        for w in &mut self.workers {
            if let Some(h) = w.handle.take() {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::reference_sweep;
    use crate::microop::{MicroOp, Probe, TagDest, TagMode};
    use crate::program::lower;

    fn sample_shard(len: usize) -> Shard {
        let mut s = Shard::new(len);
        for c in 0..len {
            for col in 0..Chain::LANES {
                s.write_element(c, 1, col, (c * 37 + col) as u32);
            }
        }
        s
    }

    fn sample_ops() -> Vec<MicroOp> {
        vec![
            MicroOp::Search {
                probes: vec![Probe::row(0, 1, true)],
                gates: vec![],
                dest: TagDest::Tags,
                mode: TagMode::Set,
            },
            MicroOp::ReduceTags { subarray: 0 },
            MicroOp::TagCombine {
                src: 0,
                dst: 1,
                op: TagMode::Set,
            },
            MicroOp::ReduceTags { subarray: 1 },
        ]
    }

    fn sample_plan() -> Vec<PlanOp> {
        sample_ops().iter().map(lower).collect()
    }

    /// Runs the original microops over materialized scalar chains — the
    /// reference the block-backed shard must match bit for bit.
    fn reference_run(shard: &Shard, ops: &[MicroOp]) -> (Vec<Chain>, Vec<u64>) {
        let mut chains: Vec<Chain> = (0..shard.len()).map(|c| shard.chain(c)).collect();
        let windows: Vec<u32> = (0..shard.len()).map(|c| shard.window(c)).collect();
        let sums = reference_sweep(&mut chains, &windows, ops);
        (chains, sums)
    }

    #[test]
    fn shard_run_matches_direct_chain_execution() {
        // 19 chains: one full block plus a padded partial block.
        let mut shard = sample_shard(19);
        let (want_chains, want_sums) = reference_run(&shard, &sample_ops());

        shard.run(&sample_plan());

        assert_eq!(shard.sums, want_sums);
        for (c, want) in want_chains.iter().enumerate() {
            assert_eq!(&shard.chain(c), want, "chain {c}");
        }
    }

    #[test]
    fn shard_run_skips_inactive_chains() {
        let mut shard = sample_shard(4);
        shard.set_window(2, 0);
        let before = shard.chain(2);
        shard.run(&sample_plan());
        assert_eq!(shard.chain(2), before, "power-gated chain must not change");
    }

    #[test]
    fn window_rewrites_refresh_the_active_list_between_runs() {
        // Two full blocks; regression test for the stale-active-list bug:
        // masking chains to zero *after* setup must be honored by the next
        // broadcast, and re-opening them must bring their block back.
        let mut shard = sample_shard(2 * BLOCK_LANES);
        assert_eq!(shard.active_block_count(), 2);

        // Gate every chain of block 1.
        for c in BLOCK_LANES..2 * BLOCK_LANES {
            shard.set_window(c, 0);
        }
        let before: Vec<Chain> = (BLOCK_LANES..2 * BLOCK_LANES)
            .map(|c| shard.chain(c))
            .collect();
        shard.run(&sample_plan());
        assert_eq!(shard.active_block_count(), 1, "gated block must drop out");
        for (i, want) in before.iter().enumerate() {
            let c = BLOCK_LANES + i;
            assert_eq!(&shard.chain(c), want, "gated chain {c} must not change");
        }

        // Re-open one chain of block 1: the block rejoins the broadcast.
        shard.set_window(BLOCK_LANES, u32::MAX);
        assert_eq!(shard.active_block_count(), 2);
        let (want_chains, _) = reference_run(&shard, &sample_ops());
        shard.run(&sample_plan());
        assert_eq!(shard.chain(BLOCK_LANES), want_chains[BLOCK_LANES]);
    }

    #[test]
    fn save_states_round_trips_through_blocks() {
        let shard = sample_shard(BLOCK_LANES + 3);
        let states = shard.save_states();
        assert_eq!(states.len(), shard.len());
        let mut fresh = Shard::new(shard.len());
        fresh.load_states(&states);
        for c in 0..shard.len() {
            assert_eq!(fresh.chain(c), shard.chain(c), "chain {c}");
        }
        assert_eq!(fresh.save_states(), states);
    }

    #[test]
    fn pool_run_equals_serial_run_and_reuses_workers() {
        let ops = Arc::new(sample_plan());
        let mut pooled: Vec<Shard> = (0..4).map(|i| sample_shard(2 + i)).collect();
        let mut serial = pooled.clone();

        let mut pool = WorkerPool::new();
        pool.run(&mut pooled, &ops);
        pool.run(&mut pooled, &ops); // second dispatch reuses threads
        assert_eq!(pool.spawned(), 4);

        for s in serial.iter_mut() {
            s.run(&ops);
            s.run(&ops);
        }
        for (p, s) in pooled.iter().zip(&serial) {
            assert_eq!(p.sums, s.sums);
            for c in 0..p.len() {
                assert_eq!(p.chain(c), s.chain(c));
            }
        }
    }
}
