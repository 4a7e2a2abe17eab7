//! The keyed LRU behind every schedule cache in the workspace, and the
//! one definition of "two requests are the same".
//!
//! [`ScheduleCache<V>`] maps a routing request — its 64-bit request
//! fingerprint plus its full [`RequestKey`] (router, set, mask) — to a
//! value `V`. It is instantiated twice:
//!
//! * the engine's private cache ([`OutcomeCache`]) stores the routed
//!   outcome ([`Routed`]: schedule, power, degradation, and a
//!   lazily compiled replay program);
//! * each shard of the serve daemon's `ShardedScheduleCache` stores the
//!   encoded response payload (`Arc<[u8]>`) and nothing else — a payload
//!   is a pure function of its key, so nothing else is ever read back.
//!
//! Entries live in a fixed-capacity slab (`Vec<Entry<V>>`); recency is an
//! intrusive doubly-linked list threaded through the slab by index, and a
//! `HashMap<u64, u32>` maps a request fingerprint to its slot. A lookup
//! is: hash probe, then a **full equality check** of the stored key
//! ([`RequestKey::matches`], the same check the serve hit tier and the
//! single-flight table use) — a 64-bit fingerprint can collide, and the
//! equality fallback turns a collision into a counted miss instead of a
//! wrong answer (property-tested with deliberately truncated
//! fingerprints, see `tests/fingerprint_proptests.rs`).
//!
//! Eviction overwrites the least-recently-used slot **in place**: the
//! victim's key buffers are reused with `clone_from`, and its value is
//! handed to the caller to overwrite, so in steady state the cache
//! churns without growing. The engine's hit path never touches the
//! allocator — it clones the cached schedule out through pooled round
//! shells ([`cst_comm::SchedulePool::copy_schedule`]), which the
//! workspace allocation gate pins at 0 allocs / 0 bytes when warm.

use crate::outcome::RouteOutcome;
use crate::DegradationReport;
use cst_comm::{CommSet, Schedule};
use cst_core::{CstError, CstTopology, FaultMask, PowerReport};
use cst_sim::CompiledProgram;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Running counters of one [`ScheduleCache`]. Attached to cache-hit
/// outcomes (`RouteExtra::Cached`) and the stream tool's JSON report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the scheduler.
    pub misses: u64,
    /// Entries overwritten to make room.
    pub evictions: u64,
    /// Of the misses, how many hit an equal fingerprint with an unequal
    /// key — the equality fallback firing.
    pub collisions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Maximum resident entries.
    pub capacity: usize,
    /// Of the hits, how many were answered by the lock-free hit tier in
    /// front of the locked LRU (always 0 for a plain [`ScheduleCache`];
    /// populated by `ShardedScheduleCache`). Already included in `hits`,
    /// never in addition to it.
    pub tier_hits: u64,
}

/// Slab index sentinel: no neighbor / no entry.
const NIL: u32 = u32::MAX;

/// The full identity of one routing request. Fingerprints only ever
/// prefilter; two requests are the same iff their keys
/// [match](RequestKey::matches). The router name is `&'static str` in
/// the caches (it comes from a resolved [`crate::Router`]) and an owned
/// `String` in the single-flight table, which admits names the registry
/// has not validated yet.
#[derive(Debug)]
pub(crate) struct RequestKey<R = &'static str> {
    router: R,
    set: CommSet,
    mask: Option<FaultMask>,
}

impl<R: AsRef<str>> RequestKey<R> {
    pub(crate) fn new(router: R, set: &CommSet, mask: Option<&FaultMask>) -> RequestKey<R> {
        RequestKey { router, set: set.clone(), mask: mask.cloned() }
    }

    /// Full-key equality against a request, without cloning either side.
    pub(crate) fn matches(&self, router: &str, set: &CommSet, mask: Option<&FaultMask>) -> bool {
        self.router.as_ref() == router && self.set == *set && self.mask.as_ref() == mask
    }
}

impl RequestKey {
    /// Overwrite in place, reusing the set's and mask's buffers.
    fn assign(&mut self, router: &'static str, set: &CommSet, mask: Option<&FaultMask>) {
        self.router = router;
        self.set.clone_from(set);
        match (&mut self.mask, mask) {
            (Some(dst), Some(src)) => dst.clone_from(src),
            (dst, src) => *dst = src.cloned(),
        }
    }
}

/// For every item of a batch, the index of the first item equal to it
/// (its own index when none precedes it). `fps[i]` is item `i`'s
/// fingerprint, and `same(j, i)` decides full equality of items `j < i`;
/// equal items must have equal fingerprints. Items are bucketed by
/// fingerprint, and only a confirmed `same` merges two of them, so a
/// fingerprint collision never merges distinct requests. Expected
/// O(count); the answer equals the naive scan of every earlier item.
pub fn batch_representatives(fps: &[u64], same: impl Fn(usize, usize) -> bool) -> Vec<usize> {
    // `first[fp]` is the first representative with that fingerprint;
    // `next[j]` chains representative `j` to the next one sharing it.
    let mut first: HashMap<u64, usize> = HashMap::with_capacity(fps.len());
    let mut next = vec![usize::MAX; fps.len()];
    let mut reps = Vec::with_capacity(fps.len());
    for (i, &fp) in fps.iter().enumerate() {
        let rep = match first.get(&fp) {
            None => {
                first.insert(fp, i);
                i
            }
            Some(&head) => {
                let mut j = head;
                loop {
                    if same(j, i) {
                        break j;
                    }
                    if next[j] == usize::MAX {
                        next[j] = i;
                        break i;
                    }
                    j = next[j];
                }
            }
        };
        reps.push(rep);
    }
    reps
}

/// What a fingerprint probe found.
enum Probe {
    Hit(u32),
    Collision,
    Absent,
}

/// One cached value with its full request key.
#[derive(Debug)]
struct Entry<V> {
    /// Effective (possibly test-truncated) request fingerprint.
    fp: u64,
    key: RequestKey,
    value: V,
    /// Intrusive LRU links (slab indices).
    prev: u32,
    next: u32,
}

/// What [`ScheduleCache::insert`] wrote: the entry's value, for the
/// caller to overwrite in place (a fresh `V::default()`, or the
/// previous value of a reclaimed slot), and `evicted_fp`, the masked
/// fingerprint of a *different* key whose slot was reclaimed (`None`
/// for fills and same-fingerprint overwrites) — the sharded cache's hit
/// tier uses it to invalidate its copy of the victim.
pub(crate) struct Inserted<'a, V> {
    pub(crate) value: &'a mut V,
    pub(crate) evicted_fp: Option<u64>,
}

/// Fixed-capacity LRU keyed by request fingerprint with full-key
/// equality. See the module docs for the representation; see
/// the `EngineCtx` cache section (`ctx.rs`) for the keying rules (router name + set
/// fingerprint + fault-mask fingerprint).
#[derive(Debug)]
pub struct ScheduleCache<V> {
    slab: Vec<Entry<V>>,
    by_fp: HashMap<u64, u32>,
    /// Most-recently-used slot.
    head: u32,
    /// Least-recently-used slot (eviction victim).
    tail: u32,
    capacity: usize,
    /// AND-mask applied to every fingerprint before use. `!0` in
    /// production; tests truncate it to force collisions and exercise
    /// the equality fallback.
    fp_mask: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    collisions: u64,
}

impl<V> ScheduleCache<V> {
    /// An empty cache holding at most `capacity` entries (0 disables it:
    /// every lookup misses, every insert is dropped).
    pub fn new(capacity: usize) -> ScheduleCache<V> {
        ScheduleCache {
            slab: Vec::with_capacity(capacity.min(1024)),
            by_fp: HashMap::with_capacity(capacity.min(1024)),
            head: NIL,
            tail: NIL,
            capacity,
            fp_mask: !0,
            hits: 0,
            misses: 0,
            evictions: 0,
            collisions: 0,
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            collisions: self.collisions,
            entries: self.slab.len(),
            capacity: self.capacity,
            tier_hits: 0,
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.slab.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.slab.is_empty()
    }

    /// Truncate every fingerprint to its low bits before use. Test knob:
    /// forcing e.g. an 8-bit fingerprint space makes collisions routine,
    /// so the equality fallback is exercised instead of being a
    /// one-in-2^64 code path. Applies to future operations only.
    #[doc(hidden)]
    pub fn set_fp_bits(&mut self, bits: u32) {
        self.fp_mask = if bits >= 64 { !0 } else { (1u64 << bits) - 1 };
    }

    fn probe(&self, fp: u64, router: &str, set: &CommSet, mask: Option<&FaultMask>) -> Probe {
        match self.by_fp.get(&(fp & self.fp_mask)) {
            None => Probe::Absent,
            Some(&slot) if self.slab[slot as usize].key.matches(router, set, mask) => {
                Probe::Hit(slot)
            }
            Some(_) => Probe::Collision,
        }
    }

    /// Look up a request. A hit requires fingerprint match **and** full
    /// key equality; the entry is bumped to most-recently-used. A
    /// fingerprint match with an unequal key counts as a collision (and
    /// a miss) — never a wrong answer.
    pub(crate) fn lookup(
        &mut self,
        fp: u64,
        router: &str,
        set: &CommSet,
        mask: Option<&FaultMask>,
    ) -> Option<&V> {
        match self.probe(fp, router, set, mask) {
            Probe::Hit(slot) => {
                self.hits += 1;
                self.bump(slot);
                Some(&self.slab[slot as usize].value)
            }
            Probe::Collision => {
                self.collisions += 1;
                self.misses += 1;
                None
            }
            Probe::Absent => {
                self.misses += 1;
                None
            }
        }
    }

    /// Bump the entry at `fp` to most-recently-used **iff** the full
    /// request key matches — no counters move. The sharded cache calls
    /// this after a hit-tier hit so the locked LRU's recency order stays
    /// exactly what it would have been had the hit gone through
    /// [`Self::lookup`].
    pub(crate) fn touch(&mut self, fp: u64, router: &str, set: &CommSet, mask: Option<&FaultMask>) {
        if let Probe::Hit(slot) = self.probe(fp, router, set, mask) {
            self.bump(slot);
        }
    }

    /// The value resident for the full request key, if any — no
    /// counters move and recency is untouched.
    pub(crate) fn get_mut(
        &mut self,
        fp: u64,
        router: &str,
        set: &CommSet,
        mask: Option<&FaultMask>,
    ) -> Option<&mut V> {
        match self.probe(fp, router, set, mask) {
            Probe::Hit(slot) => Some(&mut self.slab[slot as usize].value),
            Probe::Collision | Probe::Absent => None,
        }
    }

    /// Claim the entry for a request key, most-recently-used: the slot
    /// already holding this fingerprint (a refresh of the same key, or a
    /// collision victim — one slot per fingerprint either way), else a
    /// fresh slot, else the least-recently-used one. `None` when the
    /// cache is disabled. See [`Inserted`] for what comes back.
    pub(crate) fn insert(
        &mut self,
        fp: u64,
        router: &'static str,
        set: &CommSet,
        mask: Option<&FaultMask>,
    ) -> Option<Inserted<'_, V>>
    where
        V: Default,
    {
        if self.capacity == 0 {
            return None;
        }
        let fp = fp & self.fp_mask;
        let mut evicted_fp = None;
        let slot = if let Some(&slot) = self.by_fp.get(&fp) {
            slot
        } else if self.slab.len() < self.capacity {
            let slot = self.slab.len() as u32;
            self.slab.push(Entry {
                fp,
                key: RequestKey { router, set: CommSet::empty(0), mask: None },
                value: V::default(),
                prev: NIL,
                next: NIL,
            });
            self.attach_front(slot);
            slot
        } else {
            let victim = self.tail;
            let victim_fp = self.slab[victim as usize].fp;
            self.evictions += 1;
            evicted_fp = Some(victim_fp);
            self.by_fp.remove(&victim_fp);
            victim
        };
        self.by_fp.insert(fp, slot);
        self.bump(slot);
        let e = &mut self.slab[slot as usize];
        e.fp = fp;
        e.key.assign(router, set, mask);
        Some(Inserted { value: &mut e.value, evicted_fp })
    }

    /// Move `slot` to the most-recently-used position.
    fn bump(&mut self, slot: u32) {
        if self.head == slot {
            return;
        }
        self.detach(slot);
        self.attach_front(slot);
    }

    fn detach(&mut self, slot: u32) {
        let (prev, next) = {
            let e = &self.slab[slot as usize];
            (e.prev, e.next)
        };
        if prev != NIL {
            self.slab[prev as usize].next = next;
        } else if self.head == slot {
            self.head = next;
        }
        if next != NIL {
            self.slab[next as usize].prev = prev;
        } else if self.tail == slot {
            self.tail = prev;
        }
        let e = &mut self.slab[slot as usize];
        e.prev = NIL;
        e.next = NIL;
    }

    fn attach_front(&mut self, slot: u32) {
        let old_head = self.head;
        {
            let e = &mut self.slab[slot as usize];
            e.prev = NIL;
            e.next = old_head;
        }
        if old_head != NIL {
            self.slab[old_head as usize].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }
}

/// One routed outcome as the engine's cache stores it.
#[derive(Debug, Default)]
pub(crate) struct Routed {
    pub(crate) schedule: Schedule,
    pub(crate) power: PowerReport,
    pub(crate) degradation: Option<DegradationReport>,
    /// Lazily-attached compiled replay program for this entry's schedule
    /// (see `EngineCtx::route_compiled`): compiled on the first compiled
    /// request, reused verbatim by every later hit. Overwriting the entry
    /// salvages the program's buffers into the cache's spare pool.
    compiled: Option<CompiledProgram>,
}

/// The engine's private cache: the keyed LRU over [`Routed`] values,
/// plus the compiled programs salvaged from overwritten entries.
#[derive(Debug)]
pub(crate) struct OutcomeCache {
    pub(crate) lru: ScheduleCache<Routed>,
    /// Compiled programs salvaged from overwritten entries, reused (via
    /// `recompile`) before allocating fresh ones — `SchedulePool` for
    /// straight-line programs.
    spare_programs: Vec<CompiledProgram>,
    /// Programs compiled and attached to entries (not served from one) —
    /// the "zero recompilation on a hit" counter.
    compile_count: u64,
}

impl OutcomeCache {
    pub(crate) fn new(capacity: usize) -> OutcomeCache {
        OutcomeCache {
            lru: ScheduleCache::new(capacity),
            spare_programs: Vec::new(),
            compile_count: 0,
        }
    }

    /// How many times a compiled program was built (first compiled request
    /// per resident entry). Hits on an already-attached program do not
    /// count — that is the point.
    pub(crate) fn compile_count(&self) -> u64 {
        self.compile_count
    }

    /// Store a freshly routed outcome under its request key.
    ///
    /// Takes the schedule **by value**: it moves into the entry instead
    /// of being cloned, which keeps the miss path within a few percent
    /// of an uncached route. Returns the resident schedule (for the
    /// caller's pooled copy, the same cheap path a hit takes) and the
    /// displaced one (for the caller's pool) — or gives `schedule` back
    /// when the cache is disabled.
    pub(crate) fn store(
        &mut self,
        fp: u64,
        set: &CommSet,
        mask: Option<&FaultMask>,
        out: &RouteOutcome,
        schedule: Schedule,
    ) -> Result<(&Schedule, Schedule), Schedule> {
        let Some(ins) = self.lru.insert(fp, out.router, set, mask) else {
            return Err(schedule);
        };
        let e = ins.value;
        // The slot's compiled program was lowered from the schedule being
        // overwritten: stale now, but its buffers are not — salvage it
        // for the next first-compile.
        if let Some(stale) = e.compiled.take() {
            self.spare_programs.push(stale);
        }
        let displaced = std::mem::replace(&mut e.schedule, schedule);
        e.power.clone_from(&out.power);
        match (&mut e.degradation, &out.degradation) {
            (Some(dst), Some(src)) => dst.clone_from(src),
            (dst, src) => *dst = src.clone(),
        }
        Ok((&e.schedule, displaced))
    }

    /// The compiled replay program of the entry for a request, lowering
    /// and attaching it on first use (reusing a salvaged spare program's
    /// buffers when one is available). Returns `None` when no entry
    /// matches the full request key — the cache is disabled, or the slot
    /// was lost to a fingerprint collision since the schedule was routed.
    pub(crate) fn compiled_program(
        &mut self,
        fp: u64,
        router: &str,
        set: &CommSet,
        mask: Option<&FaultMask>,
        topo: &CstTopology,
    ) -> Result<Option<&CompiledProgram>, CstError> {
        let Some(e) = self.lru.get_mut(fp, router, set, mask) else { return Ok(None) };
        if e.compiled.is_none() {
            let prog = match self.spare_programs.pop() {
                Some(mut p) => {
                    p.recompile(topo, set, &e.schedule)?;
                    p
                }
                None => CompiledProgram::compile(topo, set, &e.schedule)?,
            };
            e.compiled = Some(prog);
            self.compile_count += 1;
        }
        Ok(e.compiled.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry_key(i: usize) -> (u64, CommSet) {
        let set = CommSet::from_pairs(8, &[(0, i % 7 + 1)]);
        (set.fingerprint(), set)
    }

    fn insert(c: &mut ScheduleCache<u32>, fp: u64, set: &CommSet, value: u32) {
        if let Some(ins) = c.insert(fp, "csa", set, None) {
            *ins.value = value;
        }
    }

    #[test]
    fn hit_requires_full_key_equality() {
        let mut c = ScheduleCache::new(4);
        let (fp, set) = entry_key(1);
        assert!(c.lookup(fp, "csa", &set, None).is_none());
        insert(&mut c, fp, &set, 7);
        assert_eq!(c.lookup(fp, "csa", &set, None), Some(&7));
        // Same fingerprint, different router: the fallback rejects it.
        assert!(c.lookup(fp, "greedy", &set, None).is_none());
        // Same fingerprint and set, but a mask: a different request.
        let topo = CstTopology::with_leaves(8);
        assert!(c.lookup(fp, "csa", &set, Some(&FaultMask::empty(&topo))).is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.collisions), (1, 3, 2));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = ScheduleCache::new(2);
        let keys: Vec<_> = (1..=3).map(entry_key).collect();
        for (i, (fp, set)) in keys[..2].iter().enumerate() {
            insert(&mut c, *fp, set, i as u32);
        }
        // Touch key 0 so key 1 is the LRU victim.
        assert!(c.lookup(keys[0].0, "csa", &keys[0].1, None).is_some());
        let ins = c.insert(keys[2].0, "csa", &keys[2].1, None).unwrap();
        assert_eq!(*ins.value, 1, "the victim's value is handed back for in-place reuse");
        assert_eq!(ins.evicted_fp, Some(keys[1].0));
        *ins.value = 2;
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.len(), 2);
        assert_eq!(c.lookup(keys[0].0, "csa", &keys[0].1, None), Some(&0));
        assert!(c.lookup(keys[1].0, "csa", &keys[1].1, None).is_none());
        assert_eq!(c.lookup(keys[2].0, "csa", &keys[2].1, None), Some(&2));
    }

    #[test]
    fn touch_and_get_mut_move_no_counters() {
        let mut c = ScheduleCache::new(2);
        let keys: Vec<_> = (1..=3).map(entry_key).collect();
        for (i, (fp, set)) in keys[..2].iter().enumerate() {
            insert(&mut c, *fp, set, i as u32);
        }
        c.touch(keys[0].0, "csa", &keys[0].1, None);
        assert_eq!(c.get_mut(keys[1].0, "csa", &keys[1].1, None).copied(), Some(1));
        assert!(c.get_mut(keys[1].0, "greedy", &keys[1].1, None).is_none());
        assert_eq!(c.stats(), CacheStats { entries: 2, capacity: 2, ..CacheStats::default() });
        // The touch, not the get_mut, decides recency: key 1 is the victim.
        insert(&mut c, keys[2].0, &keys[2].1, 2);
        assert!(c.get_mut(keys[0].0, "csa", &keys[0].1, None).is_some());
        assert!(c.get_mut(keys[1].0, "csa", &keys[1].1, None).is_none());
    }

    #[test]
    fn truncated_fingerprints_collide_safely() {
        let mut c = ScheduleCache::new(8);
        c.set_fp_bits(0); // every fingerprint is 0: one slot, constant war
        let keys: Vec<_> = (1..=4).map(entry_key).collect();
        for (i, (fp, set)) in keys.iter().enumerate() {
            insert(&mut c, *fp, set, i as u32);
        }
        assert_eq!(c.len(), 1, "one slot per (masked) fingerprint");
        // Only the last insert survives; earlier keys collide and miss —
        // never return another key's value.
        assert_eq!(c.lookup(keys[3].0, "csa", &keys[3].1, None), Some(&3));
        for (fp, set) in &keys[..3] {
            assert!(c.lookup(*fp, "csa", set, None).is_none());
        }
        assert_eq!(c.stats().collisions, 3);
    }

    #[test]
    fn zero_capacity_disables() {
        let mut c = ScheduleCache::<u32>::new(0);
        let (fp, set) = entry_key(1);
        assert!(c.insert(fp, "csa", &set, None).is_none());
        assert!(c.lookup(fp, "csa", &set, None).is_none());
        assert_eq!(c.len(), 0);
    }

    /// The quadratic reference [`batch_representatives`] replaces.
    fn naive_representatives(fps: &[u64], same: impl Fn(usize, usize) -> bool) -> Vec<usize> {
        (0..fps.len())
            .map(|i| (0..i).find(|&j| fps[j] == fps[i] && same(j, i)).unwrap_or(i))
            .collect()
    }

    #[test]
    fn batch_representatives_agree_with_the_naive_scan() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..200 {
            let len = (next() % 64) as usize;
            let distinct = 1 + next() % 24;
            let items: Vec<u64> = (0..len).map(|_| next() % distinct).collect();
            // Full 64-bit fingerprints, then 4-bit ones (collisions by
            // pigeonhole), then 0-bit ones (one bucket for everything).
            for bits in [64u32, 4, 0] {
                let fp_mask = if bits >= 64 { !0 } else { (1u64 << bits) - 1 };
                let fps: Vec<u64> = items
                    .iter()
                    .map(|&x| x.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29) & fp_mask)
                    .collect();
                let same = |j: usize, i: usize| items[j] == items[i];
                assert_eq!(
                    batch_representatives(&fps, same),
                    naive_representatives(&fps, same),
                    "case {case}, {bits}-bit fingerprints"
                );
            }
        }
    }
}
