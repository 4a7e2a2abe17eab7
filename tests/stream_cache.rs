//! Integration tests of the streaming front-end: the schedule cache as
//! context state (every routing call consults it once `enable_cache` has
//! set one up, none does without), its keying, LRU eviction and stats,
//! asserting that a cached outcome is byte-identical (serde) to a freshly
//! scheduled one.

use cst::comm::CommSet;
use cst::core::{CstTopology, FaultMask, GeneralCommSet, NodeId};
use cst::engine::{Csa, EngineCtx, RouteExtra, RouteOutcome};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Serde bytes of a schedule — the strongest equality the workspace has.
fn bytes(s: &cst::comm::Schedule) -> String {
    serde_json::to_string(s).unwrap()
}

#[test]
fn cached_schedule_is_serde_identical_to_fresh() {
    let n = 256;
    let topo = CstTopology::with_leaves(n);
    let mut rng = StdRng::seed_from_u64(0x57EA);
    for trial in 0..10 {
        let set = cst::workloads::well_nested_with_density(&mut rng, n, 0.6);
        let mut cached_ctx = EngineCtx::new();
        cached_ctx.enable_cache(8);
        let miss = cached_ctx.route(&Csa, &topo, &set).unwrap();
        let hit = cached_ctx.route(&Csa, &topo, &set).unwrap();
        let mut fresh_ctx = EngineCtx::new();
        let fresh = fresh_ctx.route(&Csa, &topo, &set).unwrap();
        assert_eq!(bytes(&hit.schedule), bytes(&fresh.schedule), "trial {trial}");
        assert_eq!(bytes(&miss.schedule), bytes(&fresh.schedule), "trial {trial}");
        assert_eq!(hit.power, fresh.power, "trial {trial}");
        assert_eq!(hit.rounds, fresh.rounds, "trial {trial}");
        assert!(matches!(hit.extra, RouteExtra::Cached { .. }), "trial {trial}");
    }
}

#[test]
fn mask_flip_between_identical_requests_is_never_stale() {
    // Regression: the cached `route_masked` must key on the mask —
    // flipping a mask on and off between identical requests must flip the
    // served schedule with it.
    let topo = CstTopology::with_leaves(32);
    let set = CommSet::from_pairs(32, &[(0, 15), (1, 14), (2, 13), (16, 31)]);
    let mut mask = FaultMask::empty(&topo);
    assert!(mask.kill_switch(NodeId(8)));

    let mut ctx = EngineCtx::new();
    ctx.enable_cache(8);
    let plain = ctx.route(&Csa, &topo, &set).unwrap();
    for flip in 0..4 {
        let masked = ctx.route_masked(&Csa, &topo, &set, &mask).unwrap();
        let replain = ctx.route(&Csa, &topo, &set).unwrap();
        assert_ne!(
            bytes(&masked.schedule),
            bytes(&replain.schedule),
            "flip {flip}: masked and plain schedules must differ"
        );
        assert_eq!(bytes(&replain.schedule), bytes(&plain.schedule), "flip {flip}");
        assert!(
            masked.degradation.as_ref().unwrap().dropped > 0,
            "flip {flip}: the dead switch drops communications"
        );
        if flip > 0 {
            assert!(matches!(masked.extra, RouteExtra::Cached { .. }), "flip {flip}");
            assert!(matches!(replain.extra, RouteExtra::Cached { .. }), "flip {flip}");
        }
    }
    // Two distinct entries: one per (set, mask) key.
    let stats = ctx.cache_stats().unwrap();
    assert_eq!(stats.entries, 2);
    assert_eq!(stats.misses, 2);
    assert_eq!(stats.collisions, 0);
}

#[test]
fn different_masks_are_distinct_entries() {
    let topo = CstTopology::with_leaves(32);
    let set = CommSet::from_pairs(32, &[(0, 15), (1, 14), (16, 31)]);
    let mut m1 = FaultMask::empty(&topo);
    assert!(m1.kill_switch(NodeId(8)));
    let mut m2 = FaultMask::empty(&topo);
    assert!(m2.degrade_edge(NodeId(2)));

    let mut ctx = EngineCtx::new();
    ctx.enable_cache(8);
    let a1 = ctx.route_masked(&Csa, &topo, &set, &m1).unwrap();
    let a2 = ctx.route_masked(&Csa, &topo, &set, &m2).unwrap();
    let b1 = ctx.route_masked(&Csa, &topo, &set, &m1).unwrap();
    let b2 = ctx.route_masked(&Csa, &topo, &set, &m2).unwrap();
    assert_eq!(bytes(&a1.schedule), bytes(&b1.schedule));
    assert_eq!(bytes(&a2.schedule), bytes(&b2.schedule));
    assert_eq!(b1.degradation, a1.degradation);
    assert_eq!(b2.degradation, a2.degradation);
    assert_eq!(ctx.cache_stats().unwrap().entries, 2);
}

#[test]
fn eviction_stats_track_a_tiny_cache() {
    let n = 64;
    let topo = CstTopology::with_leaves(n);
    let mut rng = StdRng::seed_from_u64(0xE71C);
    let sets: Vec<CommSet> =
        (0..4).map(|_| cst::workloads::well_nested_with_density(&mut rng, n, 0.5)).collect();

    let mut ctx = EngineCtx::new();
    ctx.enable_cache(2);
    // Fill: A, B resident. C evicts A (LRU). A again evicts B.
    for s in [&sets[0], &sets[1], &sets[2], &sets[0]] {
        let out = ctx.route(&Csa, &topo, s).unwrap();
        ctx.recycle(out);
    }
    let stats = ctx.cache_stats().unwrap();
    assert_eq!(stats.misses, 4, "every request was a miss");
    assert_eq!(stats.evictions, 2, "capacity-2 cache evicted twice");
    assert_eq!(stats.entries, 2);
    assert_eq!(stats.capacity, 2);
    // C is still resident (A evicted B, not C): hits.
    let out = ctx.route(&Csa, &topo, &sets[2]).unwrap();
    assert!(matches!(out.extra, RouteExtra::Cached { .. }));
    ctx.recycle(out);
}

/// The requests every routing call of the table below is made with.
struct Fixture {
    topo: CstTopology,
    set: CommSet,
    gset: GeneralCommSet,
    live: FaultMask,
    empty: FaultMask,
}

/// One routing call: whether it was served from the cache, and the serde
/// bytes of its schedule.
type Call = fn(&mut EngineCtx, &Fixture) -> (bool, String);

fn served(out: &RouteOutcome) -> (bool, String) {
    (matches!(out.extra, RouteExtra::Cached { .. }), bytes(&out.schedule))
}

#[test]
fn the_cache_is_context_state_for_every_routing_call() {
    let topo = CstTopology::with_leaves(32);
    let mut live = FaultMask::empty(&topo);
    assert!(live.kill_switch(NodeId(8)));
    let fx = Fixture {
        set: CommSet::from_pairs(32, &[(0, 15), (1, 14), (2, 13), (16, 31)]),
        gset: GeneralCommSet::from_pairs(32, &[(0, 16), (8, 24), (4, 20), (2, 6)]),
        empty: FaultMask::empty(&topo),
        live,
        topo,
    };
    let calls: [(&str, Call); 6] = [
        ("route", |ctx, fx| served(&ctx.route(&Csa, &fx.topo, &fx.set).unwrap())),
        ("route_named", |ctx, fx| served(&ctx.route_named("csa", &fx.topo, &fx.set).unwrap())),
        ("route_masked (empty mask)", |ctx, fx| {
            served(&ctx.route_masked(&Csa, &fx.topo, &fx.set, &fx.empty).unwrap())
        }),
        ("route_masked (live mask)", |ctx, fx| {
            served(&ctx.route_masked(&Csa, &fx.topo, &fx.set, &fx.live).unwrap())
        }),
        ("route_general", |ctx, fx| {
            let out = ctx.route_general(&Csa, &fx.topo, &fx.gset).unwrap();
            assert!(out.num_layers > 1, "the general set needs several layers");
            (out.cached_layers == out.num_layers, bytes(&out.schedule))
        }),
        ("route_compiled", |ctx, fx| {
            let (out, sim) = ctx.route_compiled(&Csa, &fx.topo, &fx.set, Some(&fx.live)).unwrap();
            assert_eq!(sim.deliveries.len(), out.degradation.as_ref().unwrap().routed);
            served(&out)
        }),
    ];
    for (name, call) in calls {
        // No cache: every call routes fresh and there are no counters.
        let mut fresh = EngineCtx::new();
        let (hit_a, expected) = call(&mut fresh, &fx);
        let (hit_b, _) = call(&mut fresh, &fx);
        assert!(!hit_a && !hit_b, "{name}: a cache-less context must never hit");
        assert!(fresh.cache_stats().is_none(), "{name}: no cache was set up");

        // A cache: the second identical call hits, with the fresh bytes.
        let mut cached = EngineCtx::new();
        cached.enable_cache(8);
        let (first, _) = call(&mut cached, &fx);
        let (second, served_bytes) = call(&mut cached, &fx);
        assert!(!first, "{name}: the first call misses");
        assert!(second, "{name}: the second identical call must hit");
        assert_eq!(served_bytes, expected, "{name}: hit bytes differ from a fresh route");

        // A capacity-0 cache is present but keeps nothing.
        let mut zero = EngineCtx::new();
        zero.enable_cache(0);
        let (hit_a, bytes_a) = call(&mut zero, &fx);
        let (hit_b, _) = call(&mut zero, &fx);
        assert!(!hit_a && !hit_b, "{name}: a capacity-0 cache must never hit");
        assert_eq!(bytes_a, expected, "{name}");
        assert_eq!(zero.cache_stats().unwrap().entries, 0, "{name}");
    }
}
