//! Sharded schedule cache: the concurrency layer over [`ScheduleCache`].
//!
//! The serve daemon runs one `EngineCtx` per worker thread (routing
//! scratch is thread-local by construction) but wants routed results
//! shared across workers. A single mutex around one big cache would
//! serialize every hit, so the shared cache is split into `2^shard_bits`
//! independent [`ScheduleCache`] shards, each behind its own lock.
//!
//! A request's shard is chosen by the **high bits** of its [`Fp64`]
//! request fingerprint (`cst_engine::request_fingerprint`). The split is
//! deliberate: the per-shard `HashMap` consumes the fingerprint's *low*
//! bits for bucketing, so high-bit sharding and low-bit hashing draw from
//! disjoint bit ranges of one well-avalanched digest — shard choice and
//! in-shard placement stay independent and uniformly spread.
//!
//! Each shard entry holds the **fully-encoded response payload**
//! (`Arc<[u8]>`) under its full request key, and nothing else: a payload
//! is a pure function of its `(router, set, mask)` key, so no schedule,
//! power or degradation report is kept beside it. A hit is an `Arc`
//! clone plus a socket write, with no re-serialization and no
//! allocation; the worker that routed a miss keeps its outcome and
//! recycles it into its own engine context. Per-shard counters never
//! stop being ordinary `ScheduleCache` stats;
//! [`ShardedScheduleCache::stats`] is their sum (asserted equal in the
//! unit tests, and conserved end-to-end by `tests/serve_stress.rs`:
//! hits + misses == payload lookups).
//!
//! # The hit tier
//!
//! In front of every shard's locked LRU sits a [`HitTier`]: a fixed,
//! generation-checked open-addressing index from masked fingerprint to
//! the full request key and its `Arc<[u8]>` payload. A warm hit costs one
//! relaxed atomic load (generation 0 means "nothing ever published" and
//! skips everything), a shared `RwLock` read acquire, a bounded linear
//! probe with **full key equality**, and one `Arc` clone — no exclusive
//! lock and no allocation. All tier *writes* (publish on insert,
//! invalidate on eviction, purge on clear) happen only in methods that
//! already hold the owning shard's mutex, so the locked LRU remains the
//! single writer and bumps the generation on every mutation.
//!
//! Because a payload is a pure function of its full request key, a tier
//! hit can never serve stale or wrong bytes: equality is checked against
//! the stored key, and an entry for an evicted key is explicitly
//! invalidated (even un-invalidated it would still be byte-identical to a
//! recomputation). Tier hits bump the LRU entry's recency with a
//! best-effort `try_lock` — exact in sequential runs (which keeps the
//! seeded CI goldens deterministic), approximate under contention — and
//! are counted in a dedicated per-shard `tier_hits` counter that
//! [`ShardedScheduleCache::shard_stats`] folds into `hits`, preserving
//! the conservation invariant.
//!
//! [`Fp64`]: cst_core::Fp64

use crate::cache::{CacheStats, RequestKey, ScheduleCache};
use cst_comm::CommSet;
use cst_core::FaultMask;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// Linear-probe window of the hit tier: a lookup or publish examines at
/// most this many slots past the home slot. Small and fixed so the
/// read path is branch-predictable and deletion needs no tombstones (a
/// probe never early-exits on empty slots within the window).
const TIER_PROBE: usize = 4;

/// One published entry of the [`HitTier`]: the full request key plus the
/// encoded payload. The key is stored by value so the read path can
/// equality-check without touching the locked LRU.
#[derive(Debug)]
struct TierSlot {
    fp: u64,
    key: RequestKey,
    payload: Arc<[u8]>,
}

/// The read-optimized index in front of one shard (see the module docs).
/// Readers take the `RwLock` in shared mode only; every writer holds the
/// owning shard's mutex, making the LRU the single writer.
#[derive(Debug)]
struct HitTier {
    slots: RwLock<Vec<Option<TierSlot>>>,
    /// Index mask (`slots.len() - 1`; slot count is a power of two).
    index_mask: usize,
    /// Monotonic publication counter. 0 means nothing was ever published
    /// (the read path skips the lock entirely); every publish/invalidate/
    /// purge bumps it with release ordering.
    generation: AtomicU64,
    /// Lookups answered here instead of by the locked LRU.
    hits: AtomicU64,
}

impl HitTier {
    fn new(shard_capacity: usize) -> HitTier {
        // 2x the shard's entry budget keeps the load factor <= 0.5 so
        // window conflicts (which fall back to the locked LRU — correct,
        // just slower) stay rare. Capacity 0 disables the shard and the
        // tier with it.
        let wanted = if shard_capacity == 0 {
            0
        } else {
            shard_capacity
                .checked_mul(2)
                .and_then(usize::checked_next_power_of_two)
                .map_or(0, |n| n.max(8))
        };
        // A slot table whose size overflows, or that the allocator
        // refuses, leaves the tier out: the locked LRU alone still
        // answers every lookup, just without the lock-free fast path.
        let mut table = Vec::new();
        let slots = if table.try_reserve_exact(wanted).is_ok() { wanted } else { 0 };
        table.extend((0..slots).map(|_| None));
        HitTier {
            slots: RwLock::new(table),
            index_mask: slots.wrapping_sub(1),
            generation: AtomicU64::new(0),
            hits: AtomicU64::new(0),
        }
    }

    /// Read a slot table guard, recovering from poisoning: writers only
    /// mutate `Option` slots, so the table is valid after any panic.
    fn read(&self) -> std::sync::RwLockReadGuard<'_, Vec<Option<TierSlot>>> {
        match self.slots.read() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, Vec<Option<TierSlot>>> {
        match self.slots.write() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The lock-free(-of-exclusive-locks) hit path. `fp` must already be
    /// masked to the effective fingerprint width.
    fn lookup(
        &self,
        fp: u64,
        router: &str,
        set: &CommSet,
        mask: Option<&FaultMask>,
    ) -> Option<Arc<[u8]>> {
        if self.generation.load(Ordering::Acquire) == 0 {
            return None;
        }
        let found = {
            let slots = self.read();
            let mut found = None;
            for d in 0..TIER_PROBE {
                let j = (fp as usize).wrapping_add(d) & self.index_mask;
                if let Some(e) = &slots[j] {
                    if e.fp == fp && e.key.matches(router, set, mask) {
                        found = Some(Arc::clone(&e.payload));
                        break;
                    }
                }
            }
            found
        };
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Publish a key → payload mapping. Caller must hold the owning
    /// shard's mutex (single-writer discipline). Prefers the slot already
    /// holding this fingerprint (overwrite — also how a collision victim
    /// gets replaced), then the first free slot in the window, then the
    /// home slot (deterministic conflict victim).
    fn publish(
        &self,
        fp: u64,
        router: &'static str,
        set: &CommSet,
        mask: Option<&FaultMask>,
        payload: Arc<[u8]>,
    ) {
        if self.index_mask == usize::MAX {
            return; // disabled (0 slots)
        }
        let mut slots = self.write();
        let home = (fp as usize) & self.index_mask;
        let mut target = home;
        let mut free = None;
        for d in 0..TIER_PROBE {
            let j = (fp as usize).wrapping_add(d) & self.index_mask;
            match &slots[j] {
                Some(e) if e.fp == fp => {
                    target = j;
                    free = None;
                    break;
                }
                None if free.is_none() => free = Some(j),
                _ => {}
            }
        }
        if let Some(j) = free {
            target = j;
        }
        slots[target] = Some(TierSlot { fp, key: RequestKey::new(router, set, mask), payload });
        drop(slots);
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// Drop the entry for `fp` (an LRU eviction victim), if present.
    /// Caller must hold the owning shard's mutex.
    fn invalidate(&self, fp: u64) {
        if self.index_mask == usize::MAX {
            return;
        }
        let mut slots = self.write();
        let mut changed = false;
        for d in 0..TIER_PROBE {
            let j = (fp as usize).wrapping_add(d) & self.index_mask;
            if matches!(&slots[j], Some(e) if e.fp == fp) {
                slots[j] = None;
                changed = true;
            }
        }
        drop(slots);
        if changed {
            self.generation.fetch_add(1, Ordering::Release);
        }
    }

    /// Empty the tier and zero its counters (shard `clear`). Resetting the
    /// generation to 0 re-arms the "never published" fast path.
    fn purge(&self) {
        let mut slots = self.write();
        for s in slots.iter_mut() {
            *s = None;
        }
        drop(slots);
        self.generation.store(0, Ordering::Release);
        self.hits.store(0, Ordering::Release);
    }

    fn hit_count(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }
}

/// A fixed set of independently locked [`ScheduleCache`] shards addressed
/// by fingerprint high bits. All methods take `&self`; locking is
/// per-shard and never nested, so the structure is deadlock-free and
/// shareable across worker threads via `Arc`.
#[derive(Debug)]
pub struct ShardedScheduleCache {
    shards: Vec<Mutex<ScheduleCache<Arc<[u8]>>>>,
    /// One read-optimized hit tier per shard, indexed in lockstep with
    /// `shards`. All writes to `tiers[i]` happen while `shards[i]` is
    /// locked.
    tiers: Vec<HitTier>,
    shard_bits: u32,
    /// Capacity given to each shard (total capacity rounded up to a
    /// multiple of the shard count).
    shard_capacity: usize,
    /// Effective fingerprint width, mirrored into every shard. 64 in
    /// production; tests truncate it to force collisions.
    fp_bits: u32,
    /// AND-mask equivalent of `fp_bits`, applied before shard selection
    /// so the sharded view masks exactly like each shard does.
    fp_mask: u64,
}

impl ShardedScheduleCache {
    /// A cache of `2^shard_bits` shards holding `total_capacity` entries
    /// altogether (rounded up so every shard gets an equal share).
    /// `shard_bits` is clamped to 8 (256 shards) — beyond that the locks
    /// outnumber any plausible worker pool.
    pub fn new(total_capacity: usize, shard_bits: u32) -> ShardedScheduleCache {
        ShardedScheduleCache::with_fp_bits(total_capacity, shard_bits, 64)
    }

    /// [`Self::new`] with a truncated fingerprint width. Test knob: a
    /// narrow fingerprint makes collisions routine so the stress suite
    /// can prove collisions are counted and never served. Truncation
    /// zeroes the high bits, so every request lands in shard 0 — the
    /// degenerate layout is part of the point (one shard takes the whole
    /// collision war while the others stay provably idle).
    #[doc(hidden)]
    pub fn with_fp_bits(total_capacity: usize, shard_bits: u32, fp_bits: u32) -> ShardedScheduleCache {
        let shard_bits = shard_bits.min(8);
        let num_shards = 1usize << shard_bits;
        let shard_capacity = total_capacity.div_ceil(num_shards);
        let shards = (0..num_shards)
            .map(|_| {
                let mut shard = ScheduleCache::new(shard_capacity);
                shard.set_fp_bits(fp_bits);
                Mutex::new(shard)
            })
            .collect();
        let tiers = (0..num_shards).map(|_| HitTier::new(shard_capacity)).collect();
        let fp_mask = if fp_bits >= 64 { !0 } else { (1u64 << fp_bits) - 1 };
        ShardedScheduleCache { shards, tiers, shard_bits, shard_capacity, fp_bits, fp_mask }
    }

    /// Number of shards (`2^shard_bits`).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Capacity of each individual shard.
    pub fn shard_capacity(&self) -> usize {
        self.shard_capacity
    }

    /// Which shard a request fingerprint belongs to: its high
    /// `shard_bits` bits (after the test-only width mask).
    pub fn shard_of(&self, fp: u64) -> usize {
        if self.shard_bits == 0 {
            0
        } else {
            ((fp & self.fp_mask) >> (64 - self.shard_bits)) as usize
        }
    }

    /// Lock one shard, recovering from poisoning: the caches' invariants
    /// hold between method calls, so a worker that panicked elsewhere
    /// must not wedge every other worker's cache access.
    fn shard(&self, idx: usize) -> MutexGuard<'_, ScheduleCache<Arc<[u8]>>> {
        match self.shards[idx].lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Look up the encoded response payload for a request. A hit clones
    /// the `Arc` (no copy of the bytes) and bumps the entry's recency in
    /// its shard. Exactly one of hit/miss is counted per call, in the
    /// owning shard's stats (tier hits count in the shard's `tier_hits`,
    /// which [`Self::shard_stats`] folds into `hits`).
    ///
    /// The hit tier is probed first, without the shard lock; only a tier
    /// miss falls through to the locked LRU. A tier hit bumps the LRU
    /// entry's recency via `try_lock` — exact whenever the shard is
    /// uncontended (in particular in every sequential run), best-effort
    /// under contention.
    pub fn lookup_payload(
        &self,
        fp: u64,
        router: &str,
        set: &CommSet,
        mask: Option<&FaultMask>,
    ) -> Option<Arc<[u8]>> {
        if let Some(payload) = self.lookup_payload_tier(fp, router, set, mask) {
            return Some(payload);
        }
        self.shard(self.shard_of(fp)).lookup(fp, router, set, mask).cloned()
    }

    /// Probe only the lock-free hit tier — never the locked shard, and
    /// never counting a miss. A `None` here means "not answerable without
    /// the shard lock", not "absent": callers that get `None` should
    /// coalesce or fall through to [`Self::lookup_payload`], which keeps
    /// hit/miss accounting exact.
    pub fn lookup_payload_tier(
        &self,
        fp: u64,
        router: &str,
        set: &CommSet,
        mask: Option<&FaultMask>,
    ) -> Option<Arc<[u8]>> {
        let idx = self.shard_of(fp);
        let mfp = fp & self.fp_mask;
        let payload = self.tiers[idx].lookup(mfp, router, set, mask)?;
        if let Ok(mut shard) = self.shards[idx].try_lock() {
            shard.touch(fp, router, set, mask);
        }
        Some(payload)
    }

    /// Insert the encoded payload for a request into the owning shard,
    /// overwriting the least-recently-used entry when the shard is full.
    /// A no-op when the cache is disabled (capacity 0): nothing is
    /// resident, so nothing is published to the hit tier either.
    pub fn insert_with_payload(
        &self,
        fp: u64,
        router: &'static str,
        set: &CommSet,
        mask: Option<&FaultMask>,
        payload: Arc<[u8]>,
    ) {
        let idx = self.shard_of(fp);
        let mut shard = self.shard(idx);
        let Some(ins) = shard.insert(fp, router, set, mask) else { return };
        *ins.value = Arc::clone(&payload);
        // Mirror the LRU mutation into the hit tier *while still holding
        // the shard mutex*, so tier writes are serialized in LRU order
        // (the single-writer discipline the tier documents). Readers only
        // ever take the tier's read lock and a non-blocking `try_lock` on
        // the shard, so nesting shard-mutex → tier-write-lock cannot
        // deadlock. Invalidate the eviction victim first so its slot can
        // be reused by the new key.
        let tier = &self.tiers[idx];
        if let Some(victim_fp) = ins.evicted_fp {
            tier.invalidate(victim_fp);
        }
        tier.publish(fp & self.fp_mask, router, set, mask, payload);
    }

    /// Counters of one shard, with that shard's tier hits folded into
    /// `hits` (and reported separately as `tier_hits`): `hits + misses`
    /// still equals the payload lookups routed to the shard.
    pub fn shard_stats(&self, idx: usize) -> CacheStats {
        let mut s = self.shard(idx).stats();
        let tier = self.tiers[idx].hit_count();
        s.hits += tier;
        s.tier_hits = tier;
        s
    }

    /// Per-shard counters, in shard order.
    pub fn all_shard_stats(&self) -> Vec<CacheStats> {
        (0..self.shards.len()).map(|i| self.shard_stats(i)).collect()
    }

    /// Rolled-up counters: the field-wise sum over all shards (including
    /// `entries` and `capacity`, so the roll-up reads like one big cache).
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for idx in 0..self.shards.len() {
            let s = self.shard_stats(idx);
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
            total.collisions += s.collisions;
            total.entries += s.entries;
            total.capacity += s.capacity;
            total.tier_hits += s.tier_hits;
        }
        total
    }

    /// Drop every entry and zero every counter, shard by shard. The serve
    /// daemon's `Reset` frame uses this so seeded bench runs start from a
    /// byte-identical state.
    pub fn clear(&self) {
        for idx in 0..self.shards.len() {
            let mut fresh = ScheduleCache::new(self.shard_capacity);
            fresh.set_fp_bits(self.fp_bits);
            let mut shard = self.shard(idx);
            *shard = fresh;
            // Purge the tier under the shard mutex (single-writer
            // discipline), so no insert can interleave between the LRU
            // swap and the tier purge.
            self.tiers[idx].purge();
            drop(shard);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cst_core::Fp64;

    fn key(i: usize) -> (u64, CommSet) {
        let n = 64;
        let set = CommSet::from_pairs(n, &[(2 * (i % 31), 2 * (i % 31) + 1), (62, 63)]);
        let mut fp = Fp64::new("shard-test");
        fp.write_usize(i);
        fp.write_u64(set.fingerprint());
        (fp.finish(), set)
    }

    fn payload(i: usize) -> Arc<[u8]> {
        Arc::from(vec![i as u8; 4].into_boxed_slice())
    }

    #[test]
    fn shard_routing_is_stable_and_uses_high_bits() {
        let c = ShardedScheduleCache::new(16, 2);
        assert_eq!(c.num_shards(), 4);
        // Stable: same fingerprint, same shard, every time.
        for i in 0..64 {
            let (fp, _) = key(i);
            let first = c.shard_of(fp);
            for _ in 0..3 {
                assert_eq!(c.shard_of(fp), first);
            }
        }
        // High bits select the shard: low 62 bits are invisible to it.
        for s in 0..4u64 {
            let base = s << 62;
            assert_eq!(c.shard_of(base), s as usize);
            assert_eq!(c.shard_of(base | 0x3fff_ffff_ffff_ffff), s as usize);
        }
        // A well-avalanched digest stream reaches every shard.
        let mut seen = [false; 4];
        for i in 0..64 {
            let (fp, _) = key(i);
            seen[c.shard_of(fp)] = true;
        }
        assert_eq!(seen, [true; 4], "64 digests left a shard cold");
    }

    #[test]
    fn zero_shard_bits_is_a_single_shard() {
        let c = ShardedScheduleCache::new(8, 0);
        assert_eq!(c.num_shards(), 1);
        for i in 0..32 {
            let (fp, _) = key(i);
            assert_eq!(c.shard_of(fp), 0);
        }
    }

    /// Per-shard LRU behavior must be exactly `ScheduleCache`: replay one
    /// request sequence against the sharded cache and against independent
    /// unsharded oracles (one per shard, fed that shard's subsequence),
    /// and require identical hit/miss answers per operation and identical
    /// final counters per shard.
    #[test]
    fn sharded_matches_unsharded_oracle_per_shard() {
        let total_cap = 8;
        let bits = 2;
        let c = ShardedScheduleCache::new(total_cap, bits);
        let mut oracles: Vec<ScheduleCache<Arc<[u8]>>> =
            (0..c.num_shards()).map(|_| ScheduleCache::new(c.shard_capacity())).collect();

        // Seeded mixed workload over a working set larger than capacity,
        // serve-style: lookup, insert on miss.
        let mut state = 0x9e37_79b9u64;
        for step in 0..400 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let i = ((state >> 33) % 24) as usize;
            let (fp, set) = key(i);
            let shard = c.shard_of(fp);

            let got = c.lookup_payload(fp, "csa", &set, None);
            let want = oracles[shard].lookup(fp, "csa", &set, None).cloned();
            assert_eq!(
                got.as_deref(),
                want.as_deref(),
                "step {step}: sharded and oracle disagree on key {i}"
            );
            if got.is_none() {
                c.insert_with_payload(fp, "csa", &set, None, payload(i));
                if let Some(ins) = oracles[shard].insert(fp, "csa", &set, None) {
                    *ins.value = payload(i);
                }
            }
        }
        // The oracle has no hit tier, so its hits all count in `hits`
        // proper; the sharded cache splits them between the tier and the
        // locked LRU but folds them back together in `shard_stats`. With
        // the tier's recency touch the *sum* must match the oracle
        // exactly — field for field once `tier_hits` is zeroed out.
        let mut total_tier_hits = 0;
        for (idx, oracle) in oracles.iter().enumerate() {
            let mut got = c.shard_stats(idx);
            assert!(got.tier_hits <= got.hits);
            total_tier_hits += got.tier_hits;
            got.tier_hits = 0;
            assert_eq!(
                got,
                oracle.stats(),
                "shard {idx} counters diverge from the unsharded oracle"
            );
        }
        assert!(total_tier_hits > 0, "a 400-step repeat workload must hit the tier");
    }

    #[test]
    fn rollup_equals_sum_of_shard_counters() {
        let c = ShardedScheduleCache::new(8, 2);
        for round in 0..3 {
            for i in 0..20 {
                let (fp, set) = key(i);
                if c.lookup_payload(fp, "csa", &set, None).is_none() {
                    c.insert_with_payload(fp, "csa", &set, None, payload(i));
                }
                let _ = round;
            }
        }
        let per_shard = c.all_shard_stats();
        let rollup = c.stats();
        assert_eq!(rollup.hits, per_shard.iter().map(|s| s.hits).sum::<u64>());
        assert_eq!(rollup.misses, per_shard.iter().map(|s| s.misses).sum::<u64>());
        assert_eq!(rollup.evictions, per_shard.iter().map(|s| s.evictions).sum::<u64>());
        assert_eq!(rollup.collisions, per_shard.iter().map(|s| s.collisions).sum::<u64>());
        assert_eq!(rollup.entries, per_shard.iter().map(|s| s.entries).sum::<usize>());
        assert_eq!(rollup.capacity, per_shard.iter().map(|s| s.capacity).sum::<usize>());
        assert_eq!(rollup.tier_hits, per_shard.iter().map(|s| s.tier_hits).sum::<u64>());
        assert!(rollup.hits > 0 && rollup.misses > 0, "workload exercised both outcomes");
        assert!(rollup.tier_hits > 0, "repeat lookups of published keys must hit the tier");
        assert!(rollup.tier_hits <= rollup.hits, "tier hits are a subset of hits");
    }

    #[test]
    fn truncated_fingerprints_collide_within_shard_zero() {
        let c = ShardedScheduleCache::with_fp_bits(16, 2, 4);
        let mut served_other_key = 0;
        for i in 0..32 {
            let (fp, set) = key(i);
            assert_eq!(c.shard_of(fp), 0, "truncated fingerprints all shard to 0");
            if let Some(p) = c.lookup_payload(fp, "csa", &set, None) {
                // A hit must be *our* payload — collisions are misses.
                assert_eq!(&*p, &*payload(i), "collision served another key's payload");
                served_other_key += 1;
            } else {
                c.insert_with_payload(fp, "csa", &set, None, payload(i));
            }
        }
        let _ = served_other_key;
        let stats = c.stats();
        assert!(stats.collisions > 0, "4-bit fingerprints over 32 keys must collide");
        for idx in 1..c.num_shards() {
            let s = c.shard_stats(idx);
            assert_eq!((s.hits, s.misses, s.entries), (0, 0, 0), "shard {idx} should be idle");
        }
    }

    #[test]
    fn clear_resets_entries_and_counters() {
        let c = ShardedScheduleCache::new(8, 1);
        for i in 0..8 {
            let (fp, set) = key(i);
            c.insert_with_payload(fp, "csa", &set, None, payload(i));
        }
        assert!(c.stats().entries > 0);
        // Warm the tier so clear() provably purges it too.
        let (fp, set) = key(7);
        assert!(c.lookup_payload(fp, "csa", &set, None).is_some());
        assert!(c.stats().tier_hits > 0);
        c.clear();
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.evictions, s.tier_hits), (0, 0, 0, 0, 0));
        assert_eq!(s.capacity, c.num_shards() * c.shard_capacity());
        // And the purged tier must not serve anything stale.
        assert!(c.lookup_payload(fp, "csa", &set, None).is_none());
        assert_eq!(c.stats().misses, 1);
    }

    /// The first lookup after an insert is already a tier hit (publish
    /// rides the insert), and the served bytes are the published payload.
    #[test]
    fn tier_serves_published_payloads_without_the_shard_lock_path() {
        // Generous capacity so no shard evicts regardless of key skew.
        let c = ShardedScheduleCache::new(64, 2);
        for i in 0..8 {
            let (fp, set) = key(i);
            c.insert_with_payload(fp, "csa", &set, None, payload(i));
        }
        for i in 0..8 {
            let (fp, set) = key(i);
            let got = c.lookup_payload(fp, "csa", &set, None).expect("published key must hit");
            assert_eq!(&*got, &*payload(i));
            // Full-key equality gates the tier exactly like the LRU: a
            // different router under the same fingerprint is a miss.
            assert!(c.lookup_payload(fp, "greedy", &set, None).is_none());
        }
        let s = c.stats();
        assert_eq!(s.hits, 8);
        assert_eq!(s.tier_hits, 8, "warm lookups are all tier hits");
        assert_eq!(s.misses, 8);
    }

    /// Evicting a key from the LRU invalidates its tier entry: the next
    /// lookup is a counted miss on both layers, never a stale answer.
    #[test]
    fn eviction_invalidates_the_tier_entry() {
        let c = ShardedScheduleCache::new(1, 0); // one shard, one entry
        let (fp_a, set_a) = key(1);
        let (fp_b, set_b) = key(2);
        c.insert_with_payload(fp_a, "csa", &set_a, None, payload(1));
        assert!(c.lookup_payload(fp_a, "csa", &set_a, None).is_some());
        c.insert_with_payload(fp_b, "csa", &set_b, None, payload(2));
        assert_eq!(c.stats().evictions, 1);
        assert!(c.lookup_payload(fp_a, "csa", &set_a, None).is_none(), "evicted key must miss");
        assert_eq!(&*c.lookup_payload(fp_b, "csa", &set_b, None).unwrap(), &*payload(2));
        let s = c.stats();
        assert_eq!(s.hits + s.misses, 3, "every lookup counted exactly once");
    }

    /// A tier hit keeps LRU recency exact in sequential runs: hammering
    /// one key through the tier must still protect it from eviction.
    #[test]
    fn tier_hits_keep_lru_recency_exact_when_uncontended() {
        let c = ShardedScheduleCache::new(2, 0); // one shard, two entries
        let keys: Vec<_> = (1..=3).map(key).collect();
        for (i, (fp, set)) in keys.iter().take(2).enumerate() {
            c.insert_with_payload(*fp, "csa", set, None, payload(i + 1));
        }
        // Tier-hit key 0 so key 1 becomes the LRU victim.
        assert!(c.lookup_payload(keys[0].0, "csa", &keys[0].1, None).is_some());
        assert_eq!(c.stats().tier_hits, 1);
        c.insert_with_payload(keys[2].0, "csa", &keys[2].1, None, payload(3));
        assert!(c.lookup_payload(keys[0].0, "csa", &keys[0].1, None).is_some(), "touched key survives");
        assert!(c.lookup_payload(keys[1].0, "csa", &keys[1].1, None).is_none(), "untouched key evicted");
    }

    /// A disabled cache keeps nothing: the insert is dropped, nothing is
    /// published to the tier, and every lookup is a counted miss.
    #[test]
    fn zero_capacity_keeps_and_publishes_nothing() {
        let c = ShardedScheduleCache::new(0, 2);
        let (fp, set) = key(1);
        for _ in 0..3 {
            assert!(c.lookup_payload(fp, "csa", &set, None).is_none());
            c.insert_with_payload(fp, "csa", &set, None, payload(1));
            assert!(c.lookup_payload_tier(fp, "csa", &set, None).is_none());
        }
        let s = c.stats();
        assert_eq!((s.hits, s.tier_hits, s.misses, s.entries, s.capacity), (0, 0, 3, 0, 0));
    }

    /// A capacity whose tier cannot be sized still builds a working
    /// cache: the tier is left out and the locked LRU answers.
    #[test]
    fn unallocatable_tier_falls_back_to_the_locked_lru() {
        for bits in [0, 2] {
            let c = ShardedScheduleCache::new(usize::MAX, bits);
            let (fp, set) = key(3);
            c.insert_with_payload(fp, "csa", &set, None, payload(3));
            assert!(c.lookup_payload_tier(fp, "csa", &set, None).is_none());
            assert_eq!(&*c.lookup_payload(fp, "csa", &set, None).unwrap(), &*payload(3));
            let s = c.shard_stats(c.shard_of(fp));
            assert_eq!((s.hits, s.tier_hits), (1, 0));
        }
    }
}
