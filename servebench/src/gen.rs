//! The workloads and their seeded request streams.
//!
//! Every request is a pure function of `(workload, seed, key)`
//! ([`Workload::key_request`]), and every connection's sequence of keys
//! is a pure function of `(workload, seed, connection)` ([`Stream`]), so
//! one seed always yields byte-identical request frames. The daemon only
//! ever sees these frames.

use cst_comm::CommSet;
use cst_core::{CstTopology, FaultMask};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What a workload's key stream looks like.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Every request a fresh key: one computation each.
    Miss,
    /// Uniform repeats over a working set routed during set-up.
    Hit,
    /// One shared sequence replayed by every connection: fresh keys
    /// (some fault-masked) mixed with re-asks of recent keys.
    Herd,
}

/// One benchmark workload (see README.md for why each exists).
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Key-stream shape.
    pub kind: Kind,
    /// Registry name of the router every request asks for.
    pub router: &'static str,
    /// Leaves (PEs) of every request's tree.
    pub leaves: usize,
    /// Closed-loop client connections, before the core-count cap.
    conns: usize,
}

/// All workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "miss_csa_1024",
        kind: Kind::Miss,
        router: "csa",
        leaves: 1024,
        conns: 1,
    },
    Workload {
        name: "hit_csa_64",
        kind: Kind::Hit,
        router: "csa",
        leaves: 64,
        conns: 2,
    },
    Workload {
        name: "herd_universal_256",
        kind: Kind::Herd,
        router: "universal",
        leaves: 256,
        conns: 2,
    },
];

/// Communication density of the well-nested (`csa`) workloads.
pub const DENSITY: f64 = 0.5;
/// Keys in the hit workload's working set.
pub const HIT_WORKING_SET: u64 = 32;
/// Share of herd steps that ask for a fresh key.
pub const HERD_FRESH: f64 = 0.25;
/// Share of fresh herd keys that carry a fault mask.
pub const HERD_MASKED: f64 = 0.25;
/// Per-component fault rate of a masked herd key.
pub const HERD_FAULT_RATE: f64 = 0.01;
/// A herd re-ask picks one of this many most recent fresh keys. It is
/// the daemon's per-shard cache capacity (256 entries over 4 shards), so
/// a re-asked key is always still cached and every distinct key costs
/// exactly one computation.
pub const HERD_WINDOW: u64 = 64;
/// Miss keys routed during set-up: the daemon's cache capacity, so the
/// timed window starts with a full cache that evicts on every request.
pub const MISS_WARM_STEPS: u64 = 256;
/// Herd steps each connection replays during set-up: about 256 fresh
/// keys, which fills the cache, so eviction runs from the first timed
/// request.
pub const HERD_WARM_STEPS: u64 = 1024;

/// Cores on this host: the cap on client connections.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn mix(seed: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed.rotate_left(29) ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

impl Workload {
    /// The workload called `name`.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Connections the generator opens: the workload's own count, never
    /// more than the host's cores.
    pub fn connections(&self) -> usize {
        self.conns.min(nproc())
    }

    /// Steps of each connection's stream that set-up replays before the
    /// timed window (the hit workload warms its working set directly).
    pub fn warm_steps(&self) -> u64 {
        match self.kind {
            Kind::Miss => MISS_WARM_STEPS,
            Kind::Hit => 0,
            Kind::Herd => HERD_WARM_STEPS,
        }
    }

    /// The request behind `key`: a pure function of `(self, seed, key)`.
    pub fn key_request(&self, seed: u64, key: u64) -> (CommSet, Option<FaultMask>) {
        let mut rng = mix(seed, key.wrapping_add(0x100));
        match self.kind {
            Kind::Miss | Kind::Hit => (
                cst_workloads::well_nested_with_density(&mut rng, self.leaves, DENSITY),
                None,
            ),
            Kind::Herd => {
                let general = cst_workloads::arbitrary_permutation(&mut rng, self.leaves);
                let pairs = general.pairs().iter().map(|&(a, b)| (a.0, b.0));
                let mut set = CommSet::empty(0);
                set.rebuild_from_pairs(self.leaves, pairs, &mut Vec::new())
                    .expect("a perfect matching has unique endpoints");
                let mask = rng.gen_bool(HERD_MASKED).then(|| {
                    let topo = CstTopology::new(self.leaves).expect("power-of-two leaf count");
                    cst_faults::sample_mask(&mut rng, &topo, HERD_FAULT_RATE)
                });
                (set, mask)
            }
        }
    }
}

/// One step of a connection's stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Step {
    /// Which request to send ([`Workload::key_request`]).
    pub key: u64,
    /// True when no earlier step of the stream asked for this key.
    pub fresh: bool,
}

/// One connection's seeded sequence of keys.
#[derive(Debug)]
pub struct Stream {
    kind: Kind,
    rng: StdRng,
    /// Steps taken so far.
    step: u64,
    /// Fresh keys handed out so far (herd).
    fresh: u64,
}

impl Stream {
    /// The stream of connection `conn`. Herd connections share one
    /// sequence; hit connections each draw their own.
    pub fn new(w: &Workload, seed: u64, conn: usize) -> Stream {
        let salt = match w.kind {
            Kind::Hit => 1 + conn as u64,
            Kind::Miss | Kind::Herd => 0,
        };
        Stream {
            kind: w.kind,
            rng: mix(seed, salt),
            step: 0,
            fresh: 0,
        }
    }

    /// Distinct keys this stream has asked for so far.
    pub fn distinct_keys(&self) -> u64 {
        match self.kind {
            Kind::Miss => self.step,
            Kind::Hit => HIT_WORKING_SET,
            Kind::Herd => self.fresh,
        }
    }

    /// The next step.
    pub fn next_step(&mut self) -> Step {
        self.step += 1;
        match self.kind {
            Kind::Miss => Step {
                key: self.step - 1,
                fresh: true,
            },
            Kind::Hit => Step {
                key: self.rng.gen_range(0..HIT_WORKING_SET),
                fresh: false,
            },
            Kind::Herd => {
                if self.fresh == 0 || self.rng.gen_bool(HERD_FRESH) {
                    self.fresh += 1;
                    Step {
                        key: self.fresh - 1,
                        fresh: true,
                    }
                } else {
                    let back = self.rng.gen_range(0..self.fresh.min(HERD_WINDOW));
                    Step {
                        key: self.fresh - 1 - back,
                        fresh: false,
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(w: &Workload, seed: u64, conn: usize, n: usize) -> Vec<Vec<u8>> {
        let mut stream = Stream::new(w, seed, conn);
        (0..n)
            .map(|_| {
                let (set, mask) = w.key_request(seed, stream.next_step().key);
                let mut buf = Vec::new();
                cst_serve::wire::encode_route_request(&mut buf, w.router, &set, mask.as_ref());
                buf
            })
            .collect()
    }

    #[test]
    fn one_seed_yields_byte_identical_request_streams() {
        for w in &WORKLOADS {
            for conn in 0..w.connections() {
                let a = frames(w, 7, conn, 64);
                assert_eq!(a, frames(w, 7, conn, 64), "{} conn {conn}", w.name);
                assert_ne!(
                    a,
                    frames(w, 8, conn, 64),
                    "{} conn {conn}: seed ignored",
                    w.name
                );
            }
        }
    }

    #[test]
    fn herd_connections_replay_one_sequence() {
        let w = Workload::by_name("herd_universal_256").expect("herd workload");
        let mut a = Stream::new(&w, 3, 0);
        let mut b = Stream::new(&w, 3, 1);
        for _ in 0..1000 {
            assert_eq!(a.next_step(), b.next_step());
        }
    }

    #[test]
    fn herd_fresh_and_masked_shares_land_near_a_quarter() {
        let w = Workload::by_name("herd_universal_256").expect("herd workload");
        let mut stream = Stream::new(&w, 11, 0);
        let steps = 20_000;
        let (mut fresh, mut masked) = (0u32, 0u32);
        for _ in 0..steps {
            let step = stream.next_step();
            if step.fresh {
                fresh += 1;
                masked += u32::from(w.key_request(11, step.key).1.is_some());
            }
        }
        let fresh_share = f64::from(fresh) / f64::from(steps);
        let masked_share = f64::from(masked) / f64::from(fresh);
        assert!(
            (fresh_share - HERD_FRESH).abs() < 0.02,
            "fresh share {fresh_share}"
        );
        assert!(
            (masked_share - HERD_MASKED).abs() < 0.03,
            "masked share {masked_share}"
        );
    }

    #[test]
    fn herd_reasks_stay_inside_the_recent_window() {
        let w = Workload::by_name("herd_universal_256").expect("herd workload");
        let mut stream = Stream::new(&w, 5, 0);
        for _ in 0..5000 {
            let step = stream.next_step();
            assert!(step.key < stream.distinct_keys());
            assert!(stream.distinct_keys() - step.key <= HERD_WINDOW);
        }
    }
}
