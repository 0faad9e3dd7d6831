//! The VCU's microcode program cache.
//!
//! Compiling a [`VectorOp`] to its [`CompiledOp`] broadcast form is a pure
//! function of the operation and the element width, so the VCU memoizes
//! it: loop bodies re-issue the same handful of static vector
//! instructions thousands of times, and every repeat skips compilation
//! and goes straight to the one-fan-out broadcast path. This models the
//! chain controllers' truth-table memory (TTM) staying warm across
//! iterations — only a *new* instruction shape pays the command-bus
//! distribution of a fresh truth table.
//!
//! # Fusion windows
//!
//! The cache also memoizes *fused windows*: several back-to-back vector
//! instructions compiled into one super-program
//! ([`fuse_window`](cape_ucode::fuse_window)) and keyed by an FNV-1a
//! fingerprint over the `(VectorOp, SEW)` sequence
//! ([`window_fingerprint`]). The
//! fingerprint is SEW-aware — every op hashes with its own width, so
//! mixed-SEW windows (a `vsetvli` that changes only the element width is
//! not a barrier) key distinct super-programs. Because 64 bits of hash
//! can collide, each window entry also stores its full key sequence and
//! a lookup verifies it on hit: a collision counts as a miss and re-runs
//! the fusion pass rather than ever serving the wrong super-program.
//! Loop bodies re-issue the same window every iteration, and
//! multi-tenant fingerprint batching in the engine replays the same
//! window across jobs, so the fusion pass runs once per window *shape*,
//! not once per execution.
//!
//! Host-side cost per N-instruction window, before vs after fusion:
//!
//! | per window of N ops       | per-op path | fused window |
//! |---------------------------|-------------|--------------|
//! | pool broadcasts (fan-out) | N           | 1            |
//! | joins (fan-in)            | N           | 1            |
//! | passes over `ChainBlock`s | N           | 1            |
//! | plan steps executed       | Σ plan_len  | ≤ Σ plan_len (cross-op peepholes) |
//! | cache lookups             | N           | N + 1 (per-op entries feed the window builder) |
//! | modeled CSB cycles/energy | Σ per-op    | Σ per-op (bit-identical ledger) |

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use cape_isa::Fnv1a;
use cape_ucode::{CompiledOp, SequencerError, VectorOp};

/// Cache key: the full decoded operation (register indices *and* scalar
/// operands — scalar bits specialize the emitted program) plus SEW.
type Key = (VectorOp, u32);

/// Fingerprint of a fusion window: FNV-1a over the `(VectorOp, SEW)`
/// sequence, in issue order — the key of the fused-program cache.
///
/// Two windows with the same fingerprint lower to the same fused program
/// (compilation is a pure function of op and width). Operation
/// *operands* — register numbers and scalar immediates — are part of the
/// hash, exactly as they are for the single-op cache key.
pub fn window_fingerprint(ops: &[(VectorOp, u32)]) -> u64 {
    let mut h = Fnv1a::default();
    ops.len().hash(&mut h);
    for (op, sew) in ops {
        op.hash(&mut h);
        sew.hash(&mut h);
    }
    h.finish()
}

#[derive(Debug, Clone)]
struct Entry {
    compiled: CompiledOp,
    /// Last-touch tick, for LRU eviction.
    stamp: u64,
    /// Tenant that paid the compilation — hits from other tenants count
    /// as cross-tenant amortization.
    owner: u32,
}

#[derive(Debug, Clone)]
struct WindowEntry {
    compiled: CompiledOp,
    /// The full `(VectorOp, SEW)` sequence the fingerprint summarizes,
    /// verified on every hit so a 64-bit collision can never serve the
    /// wrong super-program.
    key: Box<[Key]>,
    stamp: u64,
    owner: u32,
}

/// Per-tenant cache traffic, for multi-tenant accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantCacheStats {
    /// Lookups by this tenant served from the cache.
    pub hits: u64,
    /// Lookups by this tenant that had to compile.
    pub misses: u64,
    /// Fused-window lookups by this tenant served from the cache.
    pub fused_hits: u64,
    /// Fused-window lookups by this tenant that had to run the fusion
    /// pass.
    pub fused_misses: u64,
    /// Fused windows this tenant compiled that were displaced by LRU
    /// eviction (attributed to the tenant that paid the fusion, not the
    /// one whose insert displaced it).
    pub fused_evictions: u64,
}

/// An LRU cache of compiled microop programs keyed by `(VectorOp, SEW)`.
///
/// Kept outside [`Vcu`](crate::Vcu) (which stays a `Copy` timing model)
/// and threaded into [`Vcu::execute`](crate::Vcu::execute) by the owner
/// of the execution loop.
#[derive(Debug, Clone)]
pub struct ProgramCache {
    entries: HashMap<Key, Entry>,
    /// Fused windows keyed by the FNV fingerprint of their
    /// `(VectorOp, SEW)` sequence, LRU-bounded at the same capacity as
    /// the per-op map (windows are strictly rarer than ops).
    windows: HashMap<u64, WindowEntry>,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    window_hits: u64,
    window_misses: u64,
    window_evictions: u64,
    /// Fingerprint hits whose stored key differed from the probe key —
    /// 64-bit collisions caught by full-key verification.
    window_collisions: u64,
    /// Tenant attributed with subsequent lookups (0 in single-tenant use).
    current_tenant: u32,
    /// Hits served by an entry a *different* tenant compiled.
    cross_tenant_hits: u64,
    /// Window hits served by a fused program a *different* tenant built.
    cross_tenant_window_hits: u64,
    tenant_stats: HashMap<u32, TenantCacheStats>,
}

impl ProgramCache {
    /// Default entry count. Sized so scalar-specialized sweeps — e.g.
    /// histogram's 256-bucket `vmseq.vx` inner loop, one program per
    /// bucket value — still fit without LRU thrash; compiled programs are
    /// a few dozen microops, so this is cheap.
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// A cache holding at most `capacity` compiled programs.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "program cache needs at least one entry");
        Self {
            entries: HashMap::with_capacity(capacity),
            windows: HashMap::new(),
            capacity,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            window_hits: 0,
            window_misses: 0,
            window_evictions: 0,
            window_collisions: 0,
            current_tenant: 0,
            cross_tenant_hits: 0,
            cross_tenant_window_hits: 0,
            tenant_stats: HashMap::new(),
        }
    }

    /// Attributes subsequent lookups to `tenant`. Entries remember the
    /// tenant that compiled them, so hits by other tenants are counted as
    /// cross-tenant amortization. Single-tenant users never call this and
    /// everything lands on tenant 0.
    pub fn set_tenant(&mut self, tenant: u32) {
        self.current_tenant = tenant;
    }

    /// Tenant currently attributed with lookups.
    pub fn tenant(&self) -> u32 {
        self.current_tenant
    }

    /// Returns the cached program for `(op, sew_bits)`, compiling (and, at
    /// capacity, evicting the least recently used entry) on a miss.
    ///
    /// # Panics
    ///
    /// Panics if the operation cannot be compiled; use
    /// [`ProgramCache::try_get_or_compile`] for the non-panicking form.
    pub fn get_or_compile(&mut self, op: &VectorOp, sew_bits: u32) -> &CompiledOp {
        match self.try_get_or_compile(op, sew_bits) {
            Ok(compiled) => compiled,
            Err(e) => panic!("{e}"),
        }
    }

    /// Returns the cached program for `(op, sew_bits)`, compiling on a
    /// miss, and surfacing malformed operations as a typed error instead
    /// of panicking (a failed compile is not counted or cached).
    ///
    /// # Errors
    ///
    /// Propagates the [`SequencerError`] from
    /// [`CompiledOp::try_compile`].
    pub fn try_get_or_compile(
        &mut self,
        op: &VectorOp,
        sew_bits: u32,
    ) -> Result<&CompiledOp, SequencerError> {
        let key = (*op, sew_bits);
        if self.entries.contains_key(&key) {
            self.tick += 1;
            self.hits += 1;
            self.tenant_stats
                .entry(self.current_tenant)
                .or_default()
                .hits += 1;
            let entry = self.entries.get_mut(&key).expect("key just checked");
            entry.stamp = self.tick;
            if entry.owner != self.current_tenant {
                self.cross_tenant_hits += 1;
            }
            return Ok(&self.entries[&key].compiled);
        }
        // Compile before touching any counter: a malformed op must leave
        // the cache statistics exactly as it found them.
        let compiled = CompiledOp::try_compile(op, sew_bits as usize)?;
        self.tick += 1;
        self.misses += 1;
        self.tenant_stats
            .entry(self.current_tenant)
            .or_default()
            .misses += 1;
        if self.entries.len() >= self.capacity {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| *k)
                .expect("cache at capacity is non-empty");
            self.entries.remove(&victim);
            self.evictions += 1;
        }
        self.entries.insert(
            key,
            Entry {
                compiled,
                stamp: self.tick,
                owner: self.current_tenant,
            },
        );
        Ok(&self.entries[&key].compiled)
    }

    /// Returns the fused window cached under `fingerprint`, if any,
    /// counting a window hit or miss. The stored `(VectorOp, SEW)` key
    /// sequence is compared against `key` on a fingerprint match: a
    /// mismatch is a 64-bit collision and is served as a miss, never as
    /// the colliding entry's super-program. On a miss the caller runs
    /// the fusion pass and stores the result with
    /// [`ProgramCache::window_insert`].
    ///
    /// Returns an owned clone (cheap — the program's op list and plan
    /// are shared `Arc`s) so the caller can execute it while the cache
    /// stays borrowable.
    pub fn window_lookup(&mut self, fingerprint: u64, key: &[Key]) -> Option<CompiledOp> {
        self.tick += 1;
        let stats = self.tenant_stats.entry(self.current_tenant).or_default();
        match self.windows.get_mut(&fingerprint) {
            Some(entry) if entry.key.as_ref() == key => {
                self.window_hits += 1;
                stats.fused_hits += 1;
                entry.stamp = self.tick;
                if entry.owner != self.current_tenant {
                    self.cross_tenant_window_hits += 1;
                }
                Some(entry.compiled.clone())
            }
            found => {
                if found.is_some() {
                    self.window_collisions += 1;
                }
                self.window_misses += 1;
                stats.fused_misses += 1;
                None
            }
        }
    }

    /// Stores a freshly fused window under `fingerprint`, evicting the
    /// least recently used window at capacity. Evictions are attributed
    /// to the tenant that built the evicted window. An insert over a
    /// colliding fingerprint replaces the old entry (latest wins — the
    /// displaced window simply re-fuses if its shape recurs).
    pub fn window_insert(&mut self, fingerprint: u64, key: &[Key], compiled: CompiledOp) {
        self.tick += 1;
        if !self.windows.contains_key(&fingerprint) && self.windows.len() >= self.capacity {
            let victim = self
                .windows
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| *k)
                .expect("window cache at capacity is non-empty");
            let evicted = self.windows.remove(&victim).expect("victim just found");
            self.window_evictions += 1;
            self.tenant_stats
                .entry(evicted.owner)
                .or_default()
                .fused_evictions += 1;
        }
        self.windows.insert(
            fingerprint,
            WindowEntry {
                compiled,
                key: key.into(),
                stamp: self.tick,
                owner: self.current_tenant,
            },
        );
    }

    /// Lookups that found a compiled program.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to compile.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries displaced by LRU eviction.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Fused-window lookups served from the cache.
    pub fn window_hits(&self) -> u64 {
        self.window_hits
    }

    /// Fused-window lookups that had to run the fusion pass.
    pub fn window_misses(&self) -> u64 {
        self.window_misses
    }

    /// Fused windows displaced by LRU eviction.
    pub fn window_evictions(&self) -> u64 {
        self.window_evictions
    }

    /// Fingerprint matches rejected by full-key verification — 64-bit
    /// collisions that would have served the wrong super-program.
    pub fn window_collisions(&self) -> u64 {
        self.window_collisions
    }

    /// Window hits served by a fused program a different tenant built.
    pub fn cross_tenant_window_hits(&self) -> u64 {
        self.cross_tenant_window_hits
    }

    /// Number of fused windows currently cached.
    pub fn windows_len(&self) -> usize {
        self.windows.len()
    }

    /// Hits served by an entry compiled by a different tenant — the
    /// cross-tenant amortization a shared cache buys.
    pub fn cross_tenant_hits(&self) -> u64 {
        self.cross_tenant_hits
    }

    /// Fraction of hits that were served by another tenant's compilation
    /// (0 when there were no hits).
    pub fn cross_tenant_hit_rate(&self) -> f64 {
        if self.hits == 0 {
            0.0
        } else {
            self.cross_tenant_hits as f64 / self.hits as f64
        }
    }

    /// Cache traffic attributed to `tenant` (zeroes if never seen).
    pub fn tenant_stats(&self, tenant: u32) -> TenantCacheStats {
        self.tenant_stats.get(&tenant).copied().unwrap_or_default()
    }

    /// Fraction of lookups served from the cache (0 when never used).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Number of programs currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl Default for ProgramCache {
    fn default() -> Self {
        Self::new(Self::DEFAULT_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ADD: VectorOp = VectorOp::Add {
        vd: 3,
        vs1: 1,
        vs2: 2,
    };
    const SUB: VectorOp = VectorOp::Sub {
        vd: 4,
        vs1: 1,
        vs2: 2,
    };

    #[test]
    fn hits_and_misses_are_counted() {
        let mut cache = ProgramCache::new(8);
        cache.get_or_compile(&ADD, 32);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        cache.get_or_compile(&ADD, 32);
        cache.get_or_compile(&ADD, 32);
        assert_eq!((cache.hits(), cache.misses()), (2, 1));
        assert!((cache.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn keyed_by_sew() {
        let mut cache = ProgramCache::new(8);
        cache.get_or_compile(&ADD, 32);
        let narrow = cache.get_or_compile(&ADD, 8).clone();
        assert_eq!(cache.misses(), 2, "same op at a new SEW must recompile");
        assert_eq!(narrow.width(), 8);
        assert!(narrow.program().len() < cache.get_or_compile(&ADD, 32).program().len());
    }

    #[test]
    fn keyed_by_scalar_operand() {
        // Scalar bits specialize the program, so they are part of the key.
        let mut cache = ProgramCache::new(8);
        cache.get_or_compile(
            &VectorOp::AddScalar {
                vd: 3,
                vs1: 1,
                rs: 0,
            },
            32,
        );
        cache.get_or_compile(
            &VectorOp::AddScalar {
                vd: 3,
                vs1: 1,
                rs: 1,
            },
            32,
        );
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut cache = ProgramCache::new(2);
        cache.get_or_compile(&ADD, 32);
        cache.get_or_compile(&SUB, 32);
        cache.get_or_compile(&ADD, 32); // ADD is now the most recent
        cache.get_or_compile(&ADD, 8); // at capacity: SUB is the LRU victim
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.len(), 2);
        cache.get_or_compile(&ADD, 32);
        assert_eq!(cache.hits(), 2, "ADD@32 must have survived eviction");
        cache.get_or_compile(&SUB, 32);
        assert_eq!(cache.misses(), 4, "SUB was evicted and recompiles");
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_panics() {
        ProgramCache::new(0);
    }

    #[test]
    fn cross_tenant_hits_attribute_to_the_compiling_tenant() {
        let mut cache = ProgramCache::new(8);
        cache.set_tenant(1);
        cache.get_or_compile(&ADD, 32); // tenant 1 compiles
        cache.get_or_compile(&ADD, 32); // same-tenant hit
        cache.set_tenant(2);
        cache.get_or_compile(&ADD, 32); // cross-tenant hit
        cache.get_or_compile(&SUB, 32); // tenant 2 compiles
        cache.set_tenant(1);
        cache.get_or_compile(&SUB, 32); // cross-tenant hit

        assert_eq!(cache.cross_tenant_hits(), 2);
        assert_eq!(cache.hits(), 3);
        assert!((cache.cross_tenant_hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(
            cache.tenant_stats(1),
            TenantCacheStats {
                hits: 2,
                misses: 1,
                ..Default::default()
            }
        );
        assert_eq!(
            cache.tenant_stats(2),
            TenantCacheStats {
                hits: 1,
                misses: 1,
                ..Default::default()
            }
        );
        assert_eq!(cache.tenant_stats(99), TenantCacheStats::default());
    }

    #[test]
    fn window_cache_counts_hits_misses_and_tenants() {
        use cape_ucode::fuse_window;
        let mut cache = ProgramCache::new(8);
        let seq = [(ADD, 32u32), (SUB, 32u32)];
        let fp = window_fingerprint(&seq);

        cache.set_tenant(1);
        assert!(cache.window_lookup(fp, &seq).is_none(), "cold cache misses");
        let parts = [
            cache.get_or_compile(&ADD, 32).clone(),
            cache.get_or_compile(&SUB, 32).clone(),
        ];
        let fused = fuse_window(&parts.iter().collect::<Vec<_>>(), false);
        cache.window_insert(fp, &seq, fused.clone());
        assert_eq!(cache.window_lookup(fp, &seq).as_ref(), Some(&fused));
        assert_eq!((cache.window_hits(), cache.window_misses()), (1, 1));
        assert_eq!(cache.cross_tenant_window_hits(), 0);

        cache.set_tenant(2);
        assert!(cache.window_lookup(fp, &seq).is_some());
        assert_eq!(cache.cross_tenant_window_hits(), 1);
        assert_eq!(cache.tenant_stats(1).fused_hits, 1);
        assert_eq!(cache.tenant_stats(1).fused_misses, 1);
        assert_eq!(cache.tenant_stats(2).fused_hits, 1);
        assert_eq!(cache.windows_len(), 1);
    }

    #[test]
    fn window_evictions_attribute_to_the_building_tenant() {
        use cape_ucode::fuse_window;
        let mut cache = ProgramCache::new(1);
        let a = [(ADD, 32u32), (SUB, 32u32)];
        let b = [(SUB, 32u32), (ADD, 32u32)];
        let parts = [
            cache.get_or_compile(&ADD, 32).clone(),
            cache.get_or_compile(&SUB, 32).clone(),
        ];
        let fused = fuse_window(&parts.iter().collect::<Vec<_>>(), false);

        cache.set_tenant(1);
        cache.window_insert(window_fingerprint(&a), &a, fused.clone());
        cache.set_tenant(2);
        cache.window_insert(window_fingerprint(&b), &b, fused.clone());
        assert_eq!(cache.window_evictions(), 1);
        assert_eq!(cache.tenant_stats(1).fused_evictions, 1);
        assert_eq!(cache.tenant_stats(2).fused_evictions, 0);
        assert_eq!(cache.windows_len(), 1);
        // Re-inserting an existing fingerprint never evicts.
        cache.window_insert(window_fingerprint(&b), &b, fused);
        assert_eq!(cache.window_evictions(), 1);
    }

    #[test]
    fn fingerprint_collisions_never_serve_the_wrong_window() {
        use cape_ucode::fuse_window;
        let mut cache = ProgramCache::new(8);
        let parts = [
            cache.get_or_compile(&ADD, 32).clone(),
            cache.get_or_compile(&SUB, 32).clone(),
        ];
        let fused = fuse_window(&parts.iter().collect::<Vec<_>>(), false);

        // Force a collision: insert under some fingerprint with key `a`,
        // then probe the same fingerprint with a different key — as if
        // two distinct windows FNV-hashed to the same 64 bits.
        let a = [(ADD, 32u32), (SUB, 32u32)];
        let b = [(SUB, 32u32), (ADD, 32u32)];
        let fp = 0xdead_beef_u64;
        cache.window_insert(fp, &a, fused.clone());
        assert_eq!(cache.window_lookup(fp, &a).as_ref(), Some(&fused));
        assert!(
            cache.window_lookup(fp, &b).is_none(),
            "key verification must reject the colliding probe"
        );
        assert_eq!(cache.window_collisions(), 1);
        assert_eq!((cache.window_hits(), cache.window_misses()), (1, 1));
        // The colliding window re-fuses and replaces the entry.
        cache.window_insert(fp, &b, fused.clone());
        assert_eq!(cache.window_lookup(fp, &b).as_ref(), Some(&fused));
        assert!(cache.window_lookup(fp, &a).is_none(), "latest insert wins");
        assert_eq!(cache.window_collisions(), 2);
    }

    #[test]
    fn fingerprint_distinguishes_sequences() {
        let a = [
            (ADD, 32u32),
            (SUB, 32),
            (VectorOp::RedSum { vd: 5, vs: 4 }, 32),
        ];
        let mut b = a;
        b.swap(0, 1);
        let mut c = a;
        c[0].1 = 16;

        let fa = window_fingerprint(&a);
        assert_eq!(fa, window_fingerprint(&a), "fingerprint must be stable");
        assert_ne!(fa, window_fingerprint(&b), "order matters");
        assert_ne!(fa, window_fingerprint(&c), "SEW matters");
        assert_ne!(fa, window_fingerprint(&a[..2]), "length matters");
    }

    #[test]
    fn failed_compiles_leave_counters_untouched() {
        let mut cache = ProgramCache::new(8);
        assert!(cache.try_get_or_compile(&ADD, 24).is_err());
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        assert!(cache.is_empty());
        assert!(cache.try_get_or_compile(&ADD, 32).is_ok());
        assert_eq!(cache.misses(), 1);
    }
}
