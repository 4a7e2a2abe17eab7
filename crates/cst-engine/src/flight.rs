//! Cross-caller single-flight coalescing for cache misses.
//!
//! When several connections miss the schedule cache on the same request
//! fingerprint at once, routing the set once is enough: the first caller
//! to register becomes the **leader** and computes; everyone else parks
//! on a per-key `Condvar` and receives the leader's encoded payload
//! (`Arc<[u8]>`) directly. The table holds full request keys, not just
//! fingerprints, so a fingerprint collision never coalesces two
//! different requests — the collider is told to route solo.
//!
//! Failure is first-class: completing a flight consumes a
//! [`FlightLease`]; if the leader errors out (or panics — the lease's
//! `Drop` runs during unwind), the flight is marked failed, every waiter
//! is woken, and each falls back to the normal miss path. Waiters also
//! carry a deadline so a wedged leader can never strand them. In all
//! cases the flight is removed from the table when it resolves, so the
//! *next* miss for the key starts a fresh flight.
//!
//! Locking: the table mutex is held only for map operations; waiting
//! happens on the flight's own state mutex. Neither is ever held while
//! calling user code, so the primitive composes with any cache or
//! routing locks the caller holds before/after.

use crate::cache::RequestKey;
use cst_comm::CommSet;
use cst_core::FaultMask;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Resolution state of one in-flight computation.
#[derive(Debug, Clone)]
enum FlightState {
    Pending,
    Done(Arc<[u8]>),
    Failed,
}

/// One in-flight computation: resolution state plus the wake channel.
#[derive(Debug)]
struct Flight {
    state: Mutex<FlightState>,
    cv: Condvar,
}

/// Table entry: the flight plus the leader's full request key, so
/// joiners can refuse to coalesce across a fingerprint collision. The
/// router name is owned: flights admit names the registry has not
/// validated yet.
#[derive(Debug)]
struct FlightEntry {
    flight: Arc<Flight>,
    key: RequestKey<String>,
}

/// The cross-caller single-flight table. Cheap to share (`Arc` the whole
/// struct or embed it in an `Arc`'d aggregate); all methods take `&self`.
#[derive(Debug, Default)]
pub struct SingleFlight {
    table: Arc<Mutex<HashMap<u64, FlightEntry>>>,
}

/// What [`SingleFlight::join`] decided for this caller.
#[derive(Debug)]
pub enum Joined {
    /// No flight was registered for the key: the caller is now the
    /// leader and **must** resolve the lease — [`FlightLease::complete`]
    /// on success, or drop it on failure (including by panic) so waiters
    /// are released into their own miss path.
    Lead(FlightLease),
    /// A leader was already in flight for an equal key; this caller
    /// parked and received the leader's payload.
    Wait(Arc<[u8]>),
    /// A leader was in flight but failed (or the wait deadline passed):
    /// the caller should take the normal miss path itself.
    Failed,
    /// A flight exists under this fingerprint for a *different* full
    /// key (fingerprint collision): never coalesce — route solo,
    /// without touching the flight.
    Mismatch,
}

/// Leadership of one flight (see [`Joined::Lead`]). Completing publishes
/// the payload to every waiter and retires the flight; dropping without
/// completing marks it failed and still wakes everyone.
#[derive(Debug)]
pub struct FlightLease {
    table: Arc<Mutex<HashMap<u64, FlightEntry>>>,
    flight: Arc<Flight>,
    fp: u64,
    completed: bool,
}

impl SingleFlight {
    /// An empty table.
    pub fn new() -> SingleFlight {
        SingleFlight::default()
    }

    /// Number of flights currently pending (diagnostics).
    pub fn in_flight(&self) -> usize {
        match self.table.lock() {
            Ok(t) => t.len(),
            Err(p) => p.into_inner().len(),
        }
    }

    /// Join (or start) the flight for `fp`. The full key is recorded by
    /// the leader and equality-checked by joiners; `timeout` bounds how
    /// long a joiner will wait for the leader before giving up with
    /// [`Joined::Failed`].
    pub fn join(
        &self,
        fp: u64,
        router: &str,
        set: &CommSet,
        mask: Option<&FaultMask>,
        timeout: Duration,
    ) -> Joined {
        let flight = {
            let mut table = match self.table.lock() {
                Ok(t) => t,
                Err(p) => p.into_inner(),
            };
            match table.get(&fp) {
                None => {
                    let flight = Arc::new(Flight {
                        state: Mutex::new(FlightState::Pending),
                        cv: Condvar::new(),
                    });
                    table.insert(
                        fp,
                        FlightEntry {
                            flight: Arc::clone(&flight),
                            key: RequestKey::new(router.to_owned(), set, mask),
                        },
                    );
                    return Joined::Lead(FlightLease {
                        table: Arc::clone(&self.table),
                        flight,
                        fp,
                        completed: false,
                    });
                }
                Some(entry) => {
                    if !entry.key.matches(router, set, mask) {
                        return Joined::Mismatch;
                    }
                    Arc::clone(&entry.flight)
                }
            }
        };
        // Park outside the table lock so new keys keep flowing while we
        // wait. wait_timeout can wake spuriously; loop on the state.
        let deadline = std::time::Instant::now() + timeout;
        let mut state = match flight.state.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        loop {
            match &*state {
                FlightState::Done(payload) => return Joined::Wait(Arc::clone(payload)),
                FlightState::Failed => return Joined::Failed,
                FlightState::Pending => {}
            }
            let now = std::time::Instant::now();
            let Some(left) = deadline.checked_duration_since(now).filter(|d| !d.is_zero()) else {
                return Joined::Failed;
            };
            state = match flight.cv.wait_timeout(state, left) {
                Ok((g, _)) => g,
                Err(p) => p.into_inner().0,
            };
        }
    }
}

impl FlightLease {
    /// Publish the leader's payload to every waiter and retire the
    /// flight. Call this *after* inserting the payload into the cache:
    /// then a latecomer that finds the table empty is guaranteed a cache
    /// hit, which is what makes "exactly one computation per in-flight
    /// fingerprint" a hard property rather than a racy one.
    pub fn complete(mut self, payload: Arc<[u8]>) {
        self.resolve(FlightState::Done(payload));
        self.completed = true;
    }

    fn resolve(&self, state: FlightState) {
        {
            let mut s = match self.flight.state.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            *s = state;
        }
        self.flight.cv.notify_all();
        let mut table = match self.table.lock() {
            Ok(t) => t,
            Err(p) => p.into_inner(),
        };
        // Only remove our own flight: after a failure resolution a new
        // leader may already have registered a fresh one under this fp.
        if let Some(entry) = table.get(&self.fp) {
            if Arc::ptr_eq(&entry.flight, &self.flight) {
                table.remove(&self.fp);
            }
        }
    }
}

impl Drop for FlightLease {
    /// A lease dropped without completing — the leader returned an error
    /// or is unwinding from a panic — fails the flight so waiters fall
    /// back to their own miss path instead of hanging.
    fn drop(&mut self) {
        if !self.completed {
            self.resolve(FlightState::Failed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::thread;

    fn set() -> CommSet {
        CommSet::from_pairs(8, &[(0, 7)])
    }

    fn other_set() -> CommSet {
        CommSet::from_pairs(8, &[(1, 6)])
    }

    const WAIT: Duration = Duration::from_secs(10);

    #[test]
    fn first_joiner_leads_then_waiters_receive_the_payload() {
        let sf = Arc::new(SingleFlight::new());
        let s = set();
        let lease = match sf.join(42, "csa", &s, None, WAIT) {
            Joined::Lead(lease) => lease,
            other => panic!("expected Lead, got {other:?}"),
        };
        assert_eq!(sf.in_flight(), 1);
        let n = 4;
        let barrier = Arc::new(Barrier::new(n + 1));
        let waiters: Vec<_> = (0..n)
            .map(|_| {
                let sf = Arc::clone(&sf);
                let barrier = Arc::clone(&barrier);
                let s = set();
                thread::spawn(move || {
                    barrier.wait();
                    sf.join(42, "csa", &s, None, WAIT)
                })
            })
            .collect();
        barrier.wait();
        // Give the waiters a beat to park before resolving.
        thread::sleep(Duration::from_millis(100));
        lease.complete(Arc::from(&b"payload"[..]));
        let mut served = 0;
        for w in waiters {
            match w.join().unwrap() {
                // A waiter that parked before completion gets the bytes;
                // one that joined after retirement leads a fresh flight
                // (and would find the payload in the cache in real use).
                // A waiter of such a *late* flight can even time out if
                // this thread is still blocked joining earlier handles —
                // the daemon handles that by routing solo.
                Joined::Wait(p) => {
                    assert_eq!(&*p, b"payload");
                    served += 1;
                }
                Joined::Lead(lease) => lease.complete(Arc::from(&b"payload"[..])),
                Joined::Failed => {}
                Joined::Mismatch => panic!("equal keys must never mismatch"),
            }
        }
        assert!(served >= 1, "at least one waiter was served by the leader");
        assert_eq!(sf.in_flight(), 0, "completed flights are retired");
    }

    #[test]
    fn dropped_lease_fails_waiters_and_next_joiner_leads() {
        let sf = Arc::new(SingleFlight::new());
        let s = set();
        let lease = match sf.join(7, "csa", &s, None, WAIT) {
            Joined::Lead(l) => l,
            other => panic!("expected Lead, got {other:?}"),
        };
        let waiter = {
            let sf = Arc::clone(&sf);
            let s = set();
            thread::spawn(move || sf.join(7, "csa", &s, None, WAIT))
        };
        // Let the waiter park (best effort; Failed is correct either way).
        thread::sleep(Duration::from_millis(20));
        drop(lease); // leader "panicked"
        assert!(matches!(waiter.join().unwrap(), Joined::Failed | Joined::Lead(_)));
        assert_eq!(sf.in_flight(), 0);
        // The failure is not sticky: a fresh miss starts a fresh flight.
        match sf.join(7, "csa", &s, None, WAIT) {
            Joined::Lead(lease) => lease.complete(Arc::from(&b"ok"[..])),
            other => panic!("expected a fresh Lead, got {other:?}"),
        }
    }

    #[test]
    fn fingerprint_collisions_never_coalesce() {
        let sf = SingleFlight::new();
        let s = set();
        let lease = match sf.join(9, "csa", &s, None, WAIT) {
            Joined::Lead(l) => l,
            other => panic!("expected Lead, got {other:?}"),
        };
        // Same fp, different set / router / mask presence: all mismatches.
        assert!(matches!(sf.join(9, "csa", &other_set(), None, WAIT), Joined::Mismatch));
        assert!(matches!(sf.join(9, "greedy", &s, None, WAIT), Joined::Mismatch));
        let topo = cst_core::CstTopology::with_leaves(8);
        let mask = FaultMask::empty(&topo);
        assert!(matches!(sf.join(9, "csa", &s, Some(&mask), WAIT), Joined::Mismatch));
        lease.complete(Arc::from(&b"x"[..]));
    }

    #[test]
    fn waiters_time_out_instead_of_hanging() {
        let sf = SingleFlight::new();
        let s = set();
        let _lease = match sf.join(3, "csa", &s, None, WAIT) {
            Joined::Lead(l) => l,
            other => panic!("expected Lead, got {other:?}"),
        };
        // The leader never resolves within the joiner's budget.
        let t0 = std::time::Instant::now();
        assert!(matches!(
            sf.join(3, "csa", &s, None, Duration::from_millis(30)),
            Joined::Failed
        ));
        assert!(t0.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn concurrent_herd_has_exactly_one_leader() {
        let sf = Arc::new(SingleFlight::new());
        let n = 8;
        let barrier = Arc::new(Barrier::new(n));
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let sf = Arc::clone(&sf);
                let barrier = Arc::clone(&barrier);
                thread::spawn(move || {
                    let s = set();
                    barrier.wait();
                    match sf.join(100, "csa", &s, None, WAIT) {
                        Joined::Lead(lease) => {
                            // Simulate the route + cache insert. Generous
                            // so even a descheduled joiner on a loaded
                            // single-core box arrives while pending.
                            thread::sleep(Duration::from_millis(300));
                            lease.complete(Arc::from(&b"herd"[..]));
                            (1u32, 0u32)
                        }
                        Joined::Wait(p) => {
                            assert_eq!(&*p, b"herd");
                            (0, 1)
                        }
                        other => panic!("unexpected outcome {other:?}"),
                    }
                })
            })
            .collect();
        let (mut leads, mut waits) = (0, 0);
        for h in handles {
            let (l, w) = h.join().unwrap();
            leads += l;
            waits += w;
        }
        // Every thread joined while the flight table was observably in
        // one lifetime (the leader sleeps 10ms before completing), so
        // exactly one led. In the full daemon even a post-retirement
        // joiner is safe: the cache is populated before retirement.
        assert_eq!(leads, 1, "exactly one leader per flight lifetime");
        assert_eq!(waits as usize, n - 1);
    }
}
