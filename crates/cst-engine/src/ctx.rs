//! The reusable engine context: every scratch buffer any router needs,
//! kept warm across requests so repeated scheduling through one
//! [`EngineCtx`] reaches a zero-allocation steady state (asserted by the
//! workspace's allocation-gate test for the serial CSA).

use crate::cache::{CacheStats, OutcomeCache};
use crate::outcome::{PhaseTimings, RouteExtra, RouteOutcome};
use crate::registry;
use crate::router::Router;
use cst_comm::{CommSet, Schedule, SchedulePool};
use cst_core::{CstError, CstTopology, FaultMask, Fp64, MergedRound, PowerReport};
use cst_padr::{CsaScratch, ParallelScratch};
use std::time::Instant;

/// A reasonable [`EngineCtx::enable_cache`] capacity for callers with no
/// sizing of their own (the `cst-tools` `stream` and `decomp` defaults).
/// A context never creates a cache by itself.
pub const DEFAULT_CACHE_CAPACITY: usize = 128;

/// Reusable scratch for repeated routing requests.
///
/// One context serves requests of any size, any router, in any order: each
/// scratch re-targets itself to the request's topology and grows its
/// buffers monotonically. After a warm-up call per (router, shape), the
/// serial CSA path allocates nothing; the other routers reuse the pooled
/// schedules/meters and the shared [`MergedRound`] but still allocate for
/// their own intermediate structures (decompositions, mirrored sets,
/// layerings).
///
/// # Examples
///
/// ```
/// use cst_core::CstTopology;
/// use cst_comm::CommSet;
/// use cst_engine::EngineCtx;
///
/// let topo = CstTopology::with_leaves(8);
/// let set = CommSet::from_pairs(8, &[(0, 7), (1, 6), (2, 5)]); // width 3
/// let mut ctx = EngineCtx::new();
/// let out = ctx.route_named("csa", &topo, &set).unwrap();
/// assert_eq!(out.rounds, 3); // Theorem 5
/// ctx.recycle(out); // return the schedule + meter to the pool
/// ```
#[derive(Default)]
pub struct EngineCtx {
    pub(crate) csa: CsaScratch,
    pub(crate) parallel: ParallelScratch,
    pub(crate) merged: MergedRound,
    pub(crate) pool: SchedulePool,
    /// Schedule cache; `None` (route fresh) until
    /// [`EngineCtx::enable_cache`] sets one up, after which every routing
    /// call consults it.
    pub(crate) cache: Option<OutcomeCache>,
    /// Replay buffers for the compiled-replay path; outcomes come back
    /// through [`EngineCtx::recycle_sim`].
    pub(crate) replay: cst_sim::ReplayScratch,
    /// Pooled compiled program for compiled requests the cache cannot hold
    /// (no cache, a capacity-0 cache, a collision-displaced entry).
    pub(crate) local_program: Option<cst_sim::CompiledProgram>,
    /// Last general request's decomposition, memoized so a repeated
    /// [`EngineCtx::route_general`] request skips the layering pass
    /// entirely (fingerprint prefilter + set equality, like the cache).
    pub(crate) general_memo: Option<crate::general::GeneralMemo>,
    /// Recycled per-layer accounting buffers for general outcomes
    /// (returned by [`EngineCtx::recycle_general`]).
    pub(crate) layer_rounds_scratch: Vec<usize>,
    pub(crate) layer_power_scratch: Vec<u64>,
}

impl EngineCtx {
    /// An empty context; buffers are sized lazily by the first requests.
    pub fn new() -> Self {
        EngineCtx::default()
    }

    /// Route `set` on `topo` with an explicit router — through the
    /// schedule cache when the context has one (a hit returns the cached
    /// outcome without touching the scheduler, zero allocations when
    /// warm), fresh otherwise.
    pub fn route(
        &mut self,
        router: &dyn Router,
        topo: &CstTopology,
        set: &CommSet,
    ) -> Result<RouteOutcome, CstError> {
        self.route_request(router, topo, set, None)
    }

    /// Route through the registry by stable name (see
    /// [`crate::registry::names`]).
    pub fn route_named(
        &mut self,
        name: &str,
        topo: &CstTopology,
        set: &CommSet,
    ) -> Result<RouteOutcome, CstError> {
        let router = registry::find(name)
            .ok_or_else(|| CstError::UnknownRouter { name: name.to_string() })?;
        self.route(router.as_ref(), topo, set)
    }

    /// Return an outcome's recyclable parts (schedule, meter) to the pool
    /// so the next request reuses their allocations.
    pub fn recycle(&mut self, outcome: RouteOutcome) {
        self.pool.put_schedule(outcome.schedule);
        if let RouteExtra::Csa { meter, .. } = outcome.extra {
            self.pool.put_meter(meter);
        }
    }

    /// Meter an arbitrary schedule under the PADR power model using pooled
    /// meter storage. Used by routers whose construction path does not
    /// already meter (baselines, composed schedulers).
    pub(crate) fn meter_schedule(
        &mut self,
        topo: &CstTopology,
        schedule: &Schedule,
    ) -> PowerReport {
        let mut meter = self.pool.take_meter(topo);
        for round in &schedule.rounds {
            meter.begin_round();
            for (node, conn) in round.requirements() {
                meter.require(node, conn);
            }
        }
        let report = meter.report(topo);
        self.pool.put_meter(meter);
        report
    }
}

/// The schedule cache: context state, not a per-call choice.
///
/// A context routes through its cache once [`EngineCtx::enable_cache`]
/// has given it one; every routing call ([`EngineCtx::route`],
/// [`EngineCtx::route_named`], [`EngineCtx::route_masked`],
/// [`EngineCtx::route_general`]'s layers, [`EngineCtx::route_compiled`])
/// then consults it, and without one they all route fresh.
///
/// Keying rules (see `docs/ENGINE.md` §"Caching & streaming"):
/// * the key fingerprints the **router name**, the **set**, and — for
///   masked requests — the **fault mask**, so no router ever serves
///   another router's schedule and a masked request never gets a
///   fault-free schedule under a live mask;
/// * an **empty** mask keys identically to a plain request (masked
///   routing with no faults is defined as byte-identical to plain
///   routing), with the clean `DegradationReport` re-attached on a hit;
/// * a hit also requires full key *equality* — fingerprints are 64-bit
///   and may collide; a collision is a counted miss, never a wrong
///   schedule.
impl EngineCtx {
    /// Give the context a schedule cache of `capacity` entries, replacing
    /// any existing one (resident entries are discarded). From here on
    /// every routing call goes through it. Capacity 0 keeps a cache that
    /// holds nothing: every request misses and routes fresh.
    pub fn enable_cache(&mut self, capacity: usize) {
        self.cache = Some(OutcomeCache::new(capacity));
    }

    /// Counters of the schedule cache, or `None` when the context has
    /// none.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.lru.stats())
    }

    /// How many compiled programs the cache has built so far. Pinned by
    /// tests: repeat compiled requests must not recompile.
    #[doc(hidden)]
    pub fn cache_compile_count(&self) -> u64 {
        self.cache.as_ref().map_or(0, |c| c.compile_count())
    }

    /// Test knob: truncate cache fingerprints to `bits` low bits to make
    /// collisions likely (exercises the equality fallback). Acts on the
    /// existing cache only: without [`EngineCtx::enable_cache`] first it
    /// does nothing, so it can never switch caching on.
    #[doc(hidden)]
    pub fn set_cache_fp_bits(&mut self, bits: u32) {
        if let Some(cache) = self.cache.as_mut() {
            cache.lru.set_fp_bits(bits);
        }
    }

    /// Route and execute the schedule on the compiled-replay simulator in
    /// one call, under an optional fault mask (routed as by
    /// [`EngineCtx::route_masked`]; half-duplex split rounds lower like
    /// any others — just more instructions).
    ///
    /// With a cache, the request's entry carries a lazily-attached
    /// [`cst_sim::CompiledProgram`], so the first compiled request per
    /// entry pays one lowering pass and every later hit replays the
    /// cached program with **zero recompilation** (program buffers are
    /// pooled and reused like `SchedulePool` schedules — eviction
    /// salvages them, first-compiles reuse them). An empty mask shares
    /// the plain request's entry and program.
    ///
    /// The returned [`cst_sim::SimOutcome`] is byte-for-byte identical to
    /// `cst_sim::simulate_schedule` on the routed schedule with default
    /// payloads; recycle it with [`EngineCtx::recycle_sim`].
    pub fn route_compiled(
        &mut self,
        router: &dyn Router,
        topo: &CstTopology,
        set: &CommSet,
        mask: Option<&FaultMask>,
    ) -> Result<(RouteOutcome, cst_sim::SimOutcome), CstError> {
        let out = match mask {
            Some(m) => self.route_masked(router, topo, set, m)?,
            None => self.route(router, topo, set)?,
        };
        let mask = mask.filter(|m| !m.is_empty());
        let fp = request_fingerprint(router.name(), set, mask);
        let payloads = cst_sim::default_payloads(set);
        // Warm path: the entry this request just hit (or inserted) holds
        // the compiled program; replay it through the context's scratch.
        if let Some(cache) = self.cache.as_mut() {
            if let Some(prog) = cache.compiled_program(fp, router.name(), set, mask, topo)? {
                let sim = prog.replay_with(&mut self.replay, &payloads)?;
                return Ok((out, sim));
            }
        }
        // No resident entry (no cache, or displaced): lower into the
        // context's own pooled program.
        let prog = match self.local_program.as_mut() {
            Some(p) => {
                p.recompile(topo, set, &out.schedule)?;
                p
            }
            None => self
                .local_program
                .insert(cst_sim::CompiledProgram::compile(topo, set, &out.schedule)?),
        };
        let sim = prog.replay_with(&mut self.replay, &payloads)?;
        Ok((out, sim))
    }

    /// Return a replayed outcome's buffers to the replay scratch so the
    /// next compiled request reuses them (the `recycle` of this path).
    pub fn recycle_sim(&mut self, sim: cst_sim::SimOutcome) {
        self.replay.recycle(sim);
    }

    /// One request through the cache when the context has one, fresh
    /// otherwise. `mask` is `None` or a live mask
    /// ([`EngineCtx::route_masked`] maps an empty mask to `None`).
    pub(crate) fn route_request(
        &mut self,
        router: &dyn Router,
        topo: &CstTopology,
        set: &CommSet,
        mask: Option<&FaultMask>,
    ) -> Result<RouteOutcome, CstError> {
        let Some(cache) = self.cache.as_mut() else {
            return self.route_fresh(router, topo, set, mask);
        };
        let t0 = Instant::now();
        let fp = request_fingerprint(router.name(), set, mask);
        // Hit path: cache and pool are disjoint fields, so the cached
        // schedule can be copied out through pooled round shells while
        // the entry is still borrowed.
        if let Some(entry) = cache.lru.lookup(fp, router.name(), set, mask) {
            let schedule = self.pool.copy_schedule(&entry.schedule);
            let rounds = entry.schedule.num_rounds();
            let power = entry.power.clone();
            let degradation = entry.degradation.clone();
            let stats = cache.lru.stats();
            return Ok(RouteOutcome {
                router: router.name(),
                schedule,
                rounds,
                power,
                timings: PhaseTimings::total_only(t0.elapsed().as_nanos() as u64),
                extra: RouteExtra::Cached { stats },
                degradation,
            });
        }

        let mut out = self.route_fresh(router, topo, set, mask)?;
        // The fresh schedule moves into the entry (no clone); the caller
        // gets a copy through pooled shells — the same cheap path a hit
        // takes — and the displaced victim schedule recirculates into the
        // pool. A capacity-0 cache gives the schedule straight back.
        if let Some(cache) = self.cache.as_mut() {
            let fresh = std::mem::take(&mut out.schedule);
            out.schedule = match cache.store(fp, set, mask, &out, fresh) {
                Ok((resident, displaced)) => {
                    let copy = self.pool.copy_schedule(resident);
                    self.pool.put_schedule(displaced);
                    copy
                }
                Err(fresh) => fresh,
            };
        }
        Ok(out)
    }
}

/// The canonical 64-bit cache key of one routing request: the router
/// name (length-prefixed), the communication-set fingerprint, and the
/// fault-mask fingerprint behind a presence tag — so "no mask" can never
/// alias any real mask. This is the *one* keying function for every
/// schedule cache in the workspace: `EngineCtx`'s private cache, the
/// batch dedupe, and the serve daemon's shared
/// [`ShardedScheduleCache`](crate::ShardedScheduleCache) all call it, so
/// a request fingerprinted on one side of a socket addresses the same
/// entry on the other.
pub fn request_fingerprint(router: &str, set: &CommSet, mask: Option<&FaultMask>) -> u64 {
    let mut fp = Fp64::new("cst/route-request");
    fp.write_str(router);
    fp.write_u64(set.fingerprint());
    match mask {
        None => fp.write_u64(0),
        Some(m) => {
            fp.write_u64(1);
            fp.write_u64(m.fingerprint());
        }
    }
    fp.finish()
}
