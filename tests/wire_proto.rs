//! Frame-codec suite for the serve wire protocol (docs/SERVE.md).
//!
//! Round-trips every request/response/error variant, rejects truncated
//! and oversized frames with typed errors (never a panic), pins one
//! canonical Route frame byte-for-byte, and drives the server's
//! [`WorkerCore`] with hostile bytes to prove malformed input always
//! comes back as a typed error frame. Requests are decoded with
//! [`RequestDecoder`], the decoder `WorkerCore::handle_frame` runs.

use cst::comm::CommSet;
use cst::core::{CstTopology, DirectedLink, FaultMask, NodeId};
use cst::engine::CacheStats;
use cst::serve::wire::{
    decode_payload, decode_response, encode_batch_request, encode_batch_response,
    encode_error_response, encode_payload, encode_reset_request, encode_route_request,
    encode_route_response, encode_stats_request, encode_stats_response, read_frame,
    served_response_len, write_frame, DegradationSummary, FrameError, RequestDecoder,
    RequestView, ServedItem, DEFAULT_MAX_FRAME, MAX_LEAVES, REQ_BATCH, REQ_RESET, REQ_ROUTE,
    REQ_STATS, STATS_MINOR,
};
use cst::serve::{ErrorCode, ErrorFrame, Response, ServeConfig, ServeShared, ServeStats, WorkerCore};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn sample_set() -> CommSet {
    CommSet::from_pairs(8, &[(0, 7), (1, 6), (2, 5)])
}

/// A mask valid on the 8-leaf topology of [`sample_set`] — the decoder
/// rebuilds masks against the request set's own topology, so the ids
/// must be in range there.
fn sample_mask() -> FaultMask {
    let topo = CstTopology::with_leaves(8);
    let mut mask = FaultMask::empty(&topo);
    assert!(mask.kill_switch(NodeId(4)));
    assert!(mask.kill_link(DirectedLink { child: NodeId(3), up: true }));
    assert!(mask.degrade_edge(NodeId(2)));
    mask
}

fn sample_error() -> ErrorFrame {
    ErrorFrame { code: ErrorCode::InvalidRequest, message: "leaf 9 out of range".to_string() }
}

/// Assert that a decoded view carries exactly `kind`, `router` and
/// `items`, each item on the topology of its own leaf count.
fn assert_view(view: RequestView<'_>, kind: u8, router: &str, items: &[(CommSet, Option<FaultMask>)]) {
    assert_eq!(view.kind, kind);
    assert_eq!(view.router, router);
    assert_eq!(view.items.len(), items.len());
    for (got, (set, mask)) in view.items.iter().zip(items) {
        assert_eq!(&got.set, set);
        assert_eq!(got.topo.num_leaves(), set.num_leaves());
        assert_eq!(got.mask.as_ref(), mask.as_ref());
    }
}

#[test]
fn requests_round_trip() {
    // One decoder for every frame, as a worker holds one: each decode
    // must forget the previous frame's items and masks.
    let mut decoder = RequestDecoder::new();
    let mut buf = Vec::new();
    let masked = vec![(sample_set(), Some(sample_mask()))];
    let plain = vec![(sample_set(), None)];
    let batch = vec![(sample_set(), Some(sample_mask())), (CommSet::from_pairs(4, &[(0, 3)]), None)];

    encode_route_request(&mut buf, "csa", &sample_set(), None);
    assert_view(decoder.decode(&buf).expect("route decodes"), REQ_ROUTE, "csa", &plain);
    encode_route_request(&mut buf, "greedy", &sample_set(), Some(&sample_mask()));
    assert_view(decoder.decode(&buf).expect("masked route decodes"), REQ_ROUTE, "greedy", &masked);
    encode_batch_request(&mut buf, "general", &batch);
    assert_view(decoder.decode(&buf).expect("batch decodes"), REQ_BATCH, "general", &batch);
    encode_stats_request(&mut buf);
    assert_view(decoder.decode(&buf).expect("stats decodes"), REQ_STATS, "", &[]);
    encode_reset_request(&mut buf);
    assert_view(decoder.decode(&buf).expect("reset decodes"), REQ_RESET, "", &[]);
    encode_route_request(&mut buf, "csa", &sample_set(), None);
    assert_view(decoder.decode(&buf).expect("route decodes again"), REQ_ROUTE, "csa", &plain);
}

fn sample_stats() -> ServeStats {
    ServeStats {
        connections: 3,
        frames: 120,
        requests: 100,
        responses: 98,
        errors: 2,
        coalesced: 7,
        resets: 1,
        workers: 4,
        computations: 13,
        singleflight_leaders: 11,
        coalesced_waits: 9,
        cache: CacheStats {
            hits: 80,
            misses: 13,
            evictions: 5,
            collisions: 1,
            entries: 8,
            capacity: 64,
            tier_hits: 60,
        },
        shards: vec![
            CacheStats {
                hits: 50,
                misses: 7,
                evictions: 3,
                collisions: 1,
                entries: 5,
                capacity: 32,
                tier_hits: 40,
            },
            CacheStats {
                hits: 30,
                misses: 6,
                evictions: 2,
                collisions: 0,
                entries: 3,
                capacity: 32,
                tier_hits: 20,
            },
        ],
    }
}

/// Byte length of the minor-1 extension appended to a Stats body: the
/// minor tag, four u64 counters, and one u64 tier-hit count per shard.
fn stats_extension_len(stats: &ServeStats) -> usize {
    1 + 4 * 8 + stats.shards.len() * 8
}

#[test]
fn responses_round_trip() {
    let mut buf = Vec::new();
    let payload: Arc<[u8]> = Arc::from(&b"payload-bytes"[..]);

    encode_route_response(&mut buf, true, &payload);
    match decode_response(&buf).expect("route response decodes") {
        Response::Route(reply) => {
            assert!(reply.cached);
            assert_eq!(reply.payload, payload.as_ref());
        }
        other => panic!("expected Route, got {other:?}"),
    }

    let items = vec![Ok((false, Arc::clone(&payload))), Err(sample_error())];
    encode_batch_response(&mut buf, &items);
    match decode_response(&buf).expect("batch response decodes") {
        Response::Batch(decoded) => {
            assert_eq!(decoded.len(), 2);
            let first = decoded[0].as_ref().expect("first item ok");
            assert!(!first.cached);
            assert_eq!(first.payload, payload.as_ref());
            assert_eq!(decoded[1].as_ref().expect_err("second item err"), &sample_error());
        }
        other => panic!("expected Batch, got {other:?}"),
    }

    encode_stats_response(&mut buf, &sample_stats());
    match decode_response(&buf).expect("stats response decodes") {
        Response::Stats(stats) => assert_eq!(stats, sample_stats()),
        other => panic!("expected Stats, got {other:?}"),
    }

    crate_reset_round_trip(&mut buf);

    encode_error_response(&mut buf, &sample_error());
    match decode_response(&buf).expect("error response decodes") {
        Response::Error(e) => assert_eq!(e, sample_error()),
        other => panic!("expected Error, got {other:?}"),
    }
}

fn crate_reset_round_trip(buf: &mut Vec<u8>) {
    cst::serve::wire::encode_reset_response(buf);
    assert!(matches!(decode_response(buf), Ok(Response::Reset)));
}

#[test]
fn payloads_round_trip_with_and_without_degradation() {
    let mut buf = Vec::new();
    let schedule_json = br#"{"rounds":[{"comms":[0,1]}]}"#;
    encode_payload(&mut buf, "csa", 3, 42, 7, 9, None, schedule_json);
    let (summary, json) = decode_payload(&buf).expect("payload decodes");
    assert_eq!(summary.router, "csa");
    assert_eq!(summary.rounds, 3);
    assert_eq!(summary.power_total_units, 42);
    assert_eq!(summary.power_max_units, 7);
    assert_eq!(summary.max_port_transitions, 9);
    assert!(summary.degradation.is_none());
    assert_eq!(json, schedule_json);

    let degradation = DegradationSummary {
        total: 5,
        routed: 3,
        rerouted: 1,
        dropped: 2,
        extra_rounds: 1,
        dropped_ids: vec![1, 4],
    };
    encode_payload(&mut buf, "greedy", 4, 50, 8, 12, Some(&degradation), schedule_json);
    let (summary, json) = decode_payload(&buf).expect("degraded payload decodes");
    assert_eq!(summary.degradation, Some(degradation));
    assert_eq!(json, schedule_json);
}

#[test]
fn golden_route_request_bytes() {
    // Byte-pin of the canonical frame body: Route, router "csa",
    // CommSet{4 leaves, (0,3),(1,2)}, no mask. Little-endian throughout;
    // strings and pair lists carry u32 length prefixes (docs/SERVE.md).
    let mut buf = Vec::new();
    let set = CommSet::from_pairs(4, &[(0, 3), (1, 2)]);
    encode_route_request(&mut buf, "csa", &set, None);
    #[rustfmt::skip]
    let golden: Vec<u8> = vec![
        0x01,                                           // kind = Route
        0x03, 0x00, 0x00, 0x00, b'c', b's', b'a',       // router
        0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // num_leaves = 4
        0x02, 0x00, 0x00, 0x00,                         // 2 pairs
        0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, // (0, 3)
        0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, // (1, 2)
        0x00,                                           // no mask
    ];
    assert_eq!(buf, golden, "the wire format is a frozen contract; bump docs/SERVE.md to change it");
}

#[test]
fn golden_batch_request_bytes() {
    // Byte-pin of the canonical Batch frame body with per-item mask
    // tags: router "csa", item 0 = CommSet{4 leaves, (0,3)} unmasked,
    // item 1 = the same set under a mask killing switch 1.
    let mut buf = Vec::new();
    let set = CommSet::from_pairs(4, &[(0, 3)]);
    let topo = CstTopology::with_leaves(4);
    let mut mask = FaultMask::empty(&topo);
    assert!(mask.kill_switch(NodeId(1)));
    encode_batch_request(&mut buf, "csa", &[(set.clone(), None), (set, Some(mask))]);
    #[rustfmt::skip]
    let golden: Vec<u8> = vec![
        0x02,                                           // kind = Batch
        0x03, 0x00, 0x00, 0x00, b'c', b's', b'a',       // router
        0x02, 0x00, 0x00, 0x00,                         // 2 items
        // item 0: the set, unmasked
        0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // num_leaves = 4
        0x01, 0x00, 0x00, 0x00,                         // 1 pair
        0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, // (0, 3)
        0x00,                                           // mask tag = none
        // item 1: the same set, masked
        0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // num_leaves = 4
        0x01, 0x00, 0x00, 0x00,                         // 1 pair
        0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, // (0, 3)
        0x01,                                           // mask tag = present
        0x01, 0x00, 0x00, 0x00,                         // 1 dead switch
        0x01, 0x00, 0x00, 0x00,                         //   node 1
        0x00, 0x00, 0x00, 0x00,                         // 0 dead links
        0x00, 0x00, 0x00, 0x00,                         // 0 degraded edges
    ];
    assert_eq!(buf, golden, "the wire format is a frozen contract; bump docs/SERVE.md to change it");
}

#[test]
fn masked_batch_requests_round_trip() {
    let mut buf = Vec::new();
    let items =
        vec![(sample_set(), None), (sample_set(), Some(sample_mask())), (sample_set(), None)];
    encode_batch_request(&mut buf, "greedy", &items);
    let mut decoder = RequestDecoder::new();
    assert_view(decoder.decode(&buf).expect("masked batch decodes"), REQ_BATCH, "greedy", &items);
}

#[test]
fn hostile_batch_mask_tags_are_typed_errors() {
    // A mask tag outside {0, 1} on any item must be a typed decode
    // error, and the serving core must answer it with an error frame.
    let mut buf = Vec::new();
    encode_batch_request(&mut buf, "csa", &[(sample_set(), None)]);
    let tag_pos = buf.len() - 1;
    assert_eq!(buf[tag_pos], 0);
    buf[tag_pos] = 2;
    let err = RequestDecoder::new().decode(&buf).expect_err("mask tag 2 must not decode");
    assert_eq!(err.code, ErrorCode::BadFrame);

    let shared = Arc::new(ServeShared::new(ServeConfig::default()));
    let mut core = WorkerCore::new(shared);
    let mut out = Vec::new();
    core.handle_frame(&buf, &mut out);
    match decode_response(&out) {
        Ok(Response::Error(e)) => {
            assert_eq!(e.code, ErrorCode::BadFrame);
            assert!(!e.message.is_empty());
        }
        other => panic!("expected a typed error frame, got {other:?}"),
    }
}

#[test]
fn every_truncated_prefix_is_a_typed_error_never_a_panic() {
    let mut bodies: Vec<Vec<u8>> = Vec::new();
    let mut buf = Vec::new();
    encode_route_request(&mut buf, "csa", &sample_set(), Some(&sample_mask()));
    bodies.push(buf.clone());
    encode_batch_request(&mut buf, "csa", &[(sample_set(), None), (sample_set(), None)]);
    bodies.push(buf.clone());
    encode_batch_request(&mut buf, "csa", &[(sample_set(), Some(sample_mask()))]);
    bodies.push(buf.clone());
    encode_stats_request(&mut buf);
    bodies.push(buf.clone());
    let mut decoder = RequestDecoder::new();
    for body in &bodies {
        for cut in 0..body.len() {
            assert!(
                decoder.decode(&body[..cut]).is_err(),
                "strict prefix of length {cut} must fail to decode"
            );
        }
        assert!(decoder.decode(body).is_ok());
    }

    let payload: Arc<[u8]> = Arc::from(&b"xyz"[..]);
    let mut resp_bodies: Vec<Vec<u8>> = Vec::new();
    encode_route_response(&mut buf, false, &payload);
    resp_bodies.push(buf.clone());
    encode_batch_response(&mut buf, &[Ok((true, payload)), Err(sample_error())]);
    resp_bodies.push(buf.clone());
    encode_error_response(&mut buf, &sample_error());
    resp_bodies.push(buf.clone());
    for body in &resp_bodies {
        for cut in 0..body.len() {
            assert!(decode_response(&body[..cut]).is_err());
        }
        assert!(decode_response(body).is_ok());
    }

    // Stats is the one versioned frame: exactly one strict prefix — the
    // cut at the legacy (minor-0) boundary — is a *valid* frame by
    // design. Every other prefix must still fail.
    let stats = sample_stats();
    encode_stats_response(&mut buf, &stats);
    let legacy_len = buf.len() - stats_extension_len(&stats);
    for cut in 0..buf.len() {
        if cut == legacy_len {
            assert!(
                decode_response(&buf[..cut]).is_ok(),
                "the legacy-boundary prefix is a valid minor-0 frame"
            );
        } else {
            assert!(
                decode_response(&buf[..cut]).is_err(),
                "stats prefix of length {cut} must fail to decode"
            );
        }
    }
    assert!(decode_response(&buf).is_ok());
}

#[test]
fn legacy_minor0_stats_frames_decode_with_new_counters_zeroed() {
    // A minor-0 peer stops writing at the legacy boundary. Decoding its
    // frame must succeed and leave every extension field at zero.
    let stats = sample_stats();
    let mut buf = Vec::new();
    encode_stats_response(&mut buf, &stats);
    buf.truncate(buf.len() - stats_extension_len(&stats));
    match decode_response(&buf).expect("legacy stats frame decodes") {
        Response::Stats(decoded) => {
            let mut expected = stats.clone();
            expected.computations = 0;
            expected.singleflight_leaders = 0;
            expected.coalesced_waits = 0;
            expected.cache.tier_hits = 0;
            for s in &mut expected.shards {
                s.tier_hits = 0;
            }
            assert_eq!(decoded, expected);
        }
        other => panic!("expected Stats, got {other:?}"),
    }
}

#[test]
fn explicit_zero_stats_minor_tag_is_malformed() {
    // Minor 0 is expressed by *absence* (the legacy boundary); a frame
    // that writes a 0 tag byte is lying about its version.
    let stats = sample_stats();
    let mut buf = Vec::new();
    encode_stats_response(&mut buf, &stats);
    let legacy_len = buf.len() - stats_extension_len(&stats);
    assert_eq!(buf[legacy_len], STATS_MINOR);
    buf[legacy_len] = 0;
    assert!(decode_response(&buf).is_err());
}

#[test]
fn future_stats_minors_decode_their_known_prefix() {
    // A newer peer bumps the minor tag and appends fields we do not
    // know. The decoder must read the minor-1 fields it understands and
    // skip the rest.
    let stats = sample_stats();
    let mut buf = Vec::new();
    encode_stats_response(&mut buf, &stats);
    let legacy_len = buf.len() - stats_extension_len(&stats);
    buf[legacy_len] = STATS_MINOR + 1;
    buf.extend_from_slice(&0xdead_beef_u64.to_le_bytes()); // hypothetical minor-2 field
    match decode_response(&buf).expect("future-minor stats frame decodes") {
        Response::Stats(decoded) => assert_eq!(decoded, stats),
        other => panic!("expected Stats, got {other:?}"),
    }
}

#[test]
fn trailing_garbage_is_rejected() {
    let mut buf = Vec::new();
    encode_reset_request(&mut buf);
    buf.push(0xAB);
    let err = RequestDecoder::new().decode(&buf).expect_err("a valid body plus trailing bytes must not decode");
    assert_eq!(err.code, ErrorCode::BadFrame);
}

#[test]
fn oversized_and_truncated_frames_are_typed_io_errors() {
    // A header claiming more than the cap is refused before any
    // allocation — including the hostile u32::MAX length.
    for claimed in [1025u32, u32::MAX] {
        let mut wire = Vec::new();
        wire.extend_from_slice(&claimed.to_le_bytes());
        let mut body = Vec::new();
        match read_frame(&mut wire.as_slice(), &mut body, 1024) {
            Err(FrameError::Oversize { len, max }) => {
                assert_eq!(len, claimed as usize);
                assert_eq!(max, 1024);
            }
            other => panic!("expected Oversize, got {other:?}"),
        }
    }

    // A frame cut off mid-body surfaces as UnexpectedEof, not a hang or
    // a panic.
    let mut wire = Vec::new();
    write_frame(&mut wire, b"hello world").expect("write");
    wire.truncate(wire.len() - 3);
    let mut body = Vec::new();
    match read_frame(&mut wire.as_slice(), &mut body, DEFAULT_MAX_FRAME) {
        Err(FrameError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
        other => panic!("expected io error, got {other:?}"),
    }

    // Clean EOF at a frame boundary reads as `Ok(false)`.
    let mut empty: &[u8] = &[];
    assert!(!read_frame(&mut empty, &mut body, DEFAULT_MAX_FRAME).expect("clean eof"));

    // And an intact frame round-trips through the stream form.
    let mut wire = Vec::new();
    write_frame(&mut wire, b"hello world").expect("write");
    assert!(read_frame(&mut wire.as_slice(), &mut body, DEFAULT_MAX_FRAME).expect("read"));
    assert_eq!(body, b"hello world");
}

/// A hand-built Route (`batch == false`) or one-item Batch body for
/// router "csa": a set of `num_leaves` with `pairs`, then `tail` (the
/// mask tag and any mask bytes).
fn raw_request(batch: bool, num_leaves: u64, pairs: &[(u32, u32)], tail: &[u8]) -> Vec<u8> {
    let mut buf = vec![if batch { 0x02 } else { 0x01 }];
    buf.extend_from_slice(&3u32.to_le_bytes());
    buf.extend_from_slice(b"csa");
    if batch {
        buf.extend_from_slice(&1u32.to_le_bytes());
    }
    buf.extend_from_slice(&num_leaves.to_le_bytes());
    buf.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
    for &(s, d) in pairs {
        buf.extend_from_slice(&s.to_le_bytes());
        buf.extend_from_slice(&d.to_le_bytes());
    }
    buf.extend_from_slice(tail);
    buf
}

/// Mask bytes (tag 1) killing one switch `id` and nothing else.
fn dead_switch_mask(id: u32) -> Vec<u8> {
    let mut tail = vec![1];
    for word in [1, id, 0, 0] {
        tail.extend_from_slice(&word.to_le_bytes());
    }
    tail
}

/// Drive `body` through a fresh worker and return the error code of the
/// error frame it must answer with.
fn error_code_for(core: &mut WorkerCore, body: &[u8]) -> ErrorCode {
    let mut out = Vec::new();
    core.handle_frame(body, &mut out);
    match decode_response(&out) {
        Ok(Response::Error(e)) => {
            assert!(!e.message.is_empty(), "error frames carry a message");
            e.code
        }
        other => panic!("expected a typed error frame, got {other:?}"),
    }
}

#[test]
fn worker_core_answers_hostile_bytes_with_typed_error_frames() {
    // Structure (truncation, bad tag, trailing bytes) is `BadFrame`;
    // set, topology and mask validation is `InvalidRequest` — in a
    // Route frame and in a Batch frame alike.
    use ErrorCode::{BadFrame, InvalidRequest};
    let shared = Arc::new(ServeShared::new(ServeConfig::default()));
    let mut core = WorkerCore::new(Arc::clone(&shared));
    let self_comm: &[(u32, u32)] = &[(2, 2)];
    let ok_pair: &[(u32, u32)] = &[(0, 7)];
    let hostile: Vec<(&str, Vec<u8>, ErrorCode)> = vec![
        ("empty body", vec![], BadFrame),
        ("unknown request kind", vec![0x7F], BadFrame),
        ("router length = u32::MAX", vec![0x01, 0xFF, 0xFF, 0xFF, 0xFF], BadFrame),
        ("router bytes missing", vec![0x01, 0x03, 0x00, 0x00, 0x00], BadFrame),
        ("route, self-communication 2 -> 2", raw_request(false, 8, self_comm, &[0]), InvalidRequest),
        ("batch, self-communication 2 -> 2", raw_request(true, 8, self_comm, &[0]), InvalidRequest),
        ("route, leaf 9 of 8", raw_request(false, 8, &[(0, 9)], &[0]), InvalidRequest),
        ("route, 6 leaves", raw_request(false, 6, ok_pair, &[0]), InvalidRequest),
        ("batch, 0 leaves", raw_request(true, 0, &[], &[0]), InvalidRequest),
        ("route, dead-switch id 99", raw_request(false, 8, ok_pair, &dead_switch_mask(99)), InvalidRequest),
        ("batch, dead-switch id 99", raw_request(true, 8, ok_pair, &dead_switch_mask(99)), InvalidRequest),
        ("route, mask tag 2", raw_request(false, 8, ok_pair, &[2]), BadFrame),
        ("route, pairs truncated", raw_request(false, 8, ok_pair, &[])[..24].to_vec(), BadFrame),
        ("route, trailing byte", raw_request(false, 8, ok_pair, &[0, 0xAB]), BadFrame),
        ("stats, trailing byte", vec![0x03, 0x00], BadFrame),
    ];
    for (case, body, code) in &hostile {
        assert_eq!(error_code_for(&mut core, body), *code, "{case}");
        let decoded = RequestDecoder::new().decode(body).map(|_| ()).map_err(|e| e.code);
        assert_eq!(decoded, Err(*code), "{case}: the decoder classifies it the same way");
    }
    // Every refusal happened at decode: nothing was admitted or probed.
    let s = shared.stats();
    assert_eq!((s.frames, s.errors), (hostile.len() as u64, hostile.len() as u64));
    assert_eq!((s.requests, s.cache.hits + s.cache.misses), (0, 0));

    // The worker still serves a valid frame afterwards.
    let mut out = Vec::new();
    core.handle_frame(&raw_request(false, 8, ok_pair, &[0]), &mut out);
    assert!(matches!(decode_response(&out), Ok(Response::Route(_))));
}

#[test]
fn huge_leaf_counts_are_refused_before_allocating() {
    // A 21-byte Route frame declaring 2^40 leaves and no pairs: the
    // leaf count must be refused before anything is sized by it, in a
    // Route frame and as a Batch item, masked or not.
    let shared = Arc::new(ServeShared::new(ServeConfig::default()));
    let mut core = WorkerCore::new(Arc::clone(&shared));
    let route = raw_request(false, 1 << 40, &[], &[0]);
    assert_eq!(route.len(), 21);
    let bodies = [
        route,
        raw_request(true, 1 << 40, &[], &[0]),
        raw_request(false, 1 << 40, &[], &dead_switch_mask(1)),
        raw_request(true, 2 * MAX_LEAVES as u64, &[], &[0]),
        raw_request(false, u64::MAX, &[], &[0]),
    ];
    for body in &bodies {
        assert_eq!(error_code_for(&mut core, body), ErrorCode::InvalidRequest);
    }
    let s = shared.stats();
    assert_eq!((s.requests, s.errors), (0, bodies.len() as u64));

    // MAX_LEAVES itself is a valid size.
    let mut out = Vec::new();
    core.handle_frame(&raw_request(false, MAX_LEAVES as u64, &[(0, 1)], &[0]), &mut out);
    assert!(matches!(decode_response(&out), Ok(Response::Route(_))));
}

#[test]
fn masked_items_share_one_leaf_budget_per_frame() {
    // Each decoded mask is sized by its topology, so the masked items of
    // one frame may declare at most MAX_LEAVES leaves together.
    let n = MAX_LEAVES / 4;
    let mut topo_mask = FaultMask::empty(&CstTopology::with_leaves(n));
    assert!(topo_mask.kill_switch(NodeId(1)));
    let set = CommSet::from_pairs(n, &[(0, n - 1)]);
    let mut buf = Vec::new();
    let mut decoder = RequestDecoder::new();
    let at_budget = vec![(set.clone(), Some(topo_mask.clone())); 4];
    encode_batch_request(&mut buf, "csa", &at_budget);
    assert_eq!(decoder.decode(&buf).expect("4 x MAX_LEAVES/4 fits").items.len(), 4);
    let over_budget = vec![(set, Some(topo_mask)); 5];
    encode_batch_request(&mut buf, "csa", &over_budget);
    let err = decoder.decode(&buf).expect_err("5 x MAX_LEAVES/4 is over the budget");
    assert_eq!(err.code, ErrorCode::InvalidRequest);
}

#[test]
fn served_response_len_matches_the_encoders() {
    let payload: Arc<[u8]> = Arc::from(&b"payload-bytes"[..]);
    let mut buf = Vec::new();
    let ok: ServedItem = Ok((true, Arc::clone(&payload)));
    let err: ServedItem = Err(sample_error());
    encode_route_response(&mut buf, true, &payload);
    assert_eq!(served_response_len(true, std::slice::from_ref(&ok)), buf.len());
    encode_error_response(&mut buf, &sample_error());
    assert_eq!(served_response_len(true, std::slice::from_ref(&err)), buf.len());
    for items in [vec![], vec![ok.clone()], vec![ok.clone(), err.clone(), ok]] {
        encode_batch_response(&mut buf, &items);
        assert_eq!(served_response_len(false, &items), buf.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Seeded random well-nested sets round-trip through the Route
    /// request encoding at every size.
    #[test]
    fn random_route_requests_round_trip(seed in 0u64..1_000_000, n_exp in 2u32..=8) {
        let n = 1usize << n_exp;
        let mut rng = StdRng::seed_from_u64(seed);
        let set = cst::workloads::well_nested_with_density(&mut rng, n, 0.6);
        let mut buf = Vec::new();
        encode_route_request(&mut buf, "csa-parallel", &set, None);
        let mut decoder = RequestDecoder::new();
        let view = decoder.decode(&buf).expect("route decodes");
        prop_assert_eq!(view.kind, REQ_ROUTE);
        prop_assert_eq!(view.router, "csa-parallel");
        prop_assert_eq!(view.items.len(), 1);
        prop_assert_eq!(&view.items[0].set, &set);
        prop_assert!(view.items[0].mask.is_none());
    }

    /// Arbitrary byte soup never panics the request decoder; it decodes
    /// or it returns a typed error.
    #[test]
    fn decoders_never_panic_on_byte_soup(
        bytes in proptest::collection::vec(0u8..=255u8, 256),
        len in 0usize..=256,
    ) {
        let soup = &bytes[..len];
        let _ = RequestDecoder::new().decode(soup);
        let _ = decode_response(soup);
        let _ = decode_payload(soup);
    }

    /// The serving core answers every body — random soup, or a valid
    /// request with random bytes written over it — with exactly one
    /// response that decodes. Never a panic, never an undecodable frame.
    #[test]
    fn worker_core_answers_byte_soup_with_decodable_frames(
        kind in 0usize..4,
        seed in 0u64..1_000_000,
        soup in proptest::collection::vec(0u8..=255u8, 64),
    ) {
        let mut body = Vec::new();
        match kind {
            0 => encode_route_request(&mut body, "csa", &sample_set(), None),
            1 => encode_route_request(&mut body, "greedy", &sample_set(), Some(&sample_mask())),
            2 => encode_batch_request(
                &mut body,
                "csa",
                &[(sample_set(), Some(sample_mask())), (sample_set(), None)],
            ),
            _ => body.extend_from_slice(&soup),
        }
        // Overwrite up to 5 random bytes, then cut at a random length.
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..rng.gen_range(0..6usize) {
            let i = rng.gen_range(0..body.len());
            body[i] = rng.gen_range(0..=255u8);
        }
        body.truncate(rng.gen_range(0..=body.len()));
        let shared = Arc::new(ServeShared::new(ServeConfig::default()));
        let mut core = WorkerCore::new(shared);
        let mut out = Vec::new();
        core.handle_frame(&body, &mut out);
        prop_assert!(decode_response(&out).is_ok(), "undecodable answer to {:?}", body);
    }
}
