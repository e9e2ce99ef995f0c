//! Single-flight coalescing: at most one computation per key in flight.
//!
//! When several threads want the result of the same expensive, pure
//! computation — in this repository, the simulation behind one cell cache
//! key — running it more than once is pure waste: the result is
//! deterministic and the cache will hold it the moment the first runner
//! stores it. [`SingleFlight`] makes the duplicates *wait* instead:
//!
//! * the first thread to [`join`](SingleFlight::join) a key becomes the
//!   **leader** and receives a [`LeaderGuard`]; it runs the computation
//!   and publishes the result (for cells: a [`CellCache`] store);
//! * every other thread joining the same key while the guard is alive is
//!   a **follower**: `join` blocks until the leader's guard drops, then
//!   returns [`Entry::Waited`] — the follower re-consults the shared
//!   store, which now holds the leader's result.
//!
//! The flight itself never carries the computed value; it only sequences
//! threads around an external store. That keeps it value-type-free and
//! means a leader that *fails* (panics, errors, cannot write the store)
//! simply releases its followers to compute for themselves — coalescing
//! can delay a result, never lose one.
//!
//! The guard releases on drop, so panics unwind cleanly: a leader that
//! dies wakes its followers rather than wedging them.
//!
//! [`CellCache`]: crate::cache::CellCache

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// led/coalesced counters of one [`SingleFlight`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlightCounters {
    /// Joins that became the leader (ran the computation).
    pub led: u64,
    /// Joins that waited on another thread's in-flight computation
    /// instead of starting their own.
    pub coalesced: u64,
}

/// What [`SingleFlight::join`] decided for this caller.
#[derive(Debug)]
pub enum Entry<'f> {
    /// This caller leads: run the computation, publish the result, then
    /// drop the guard to release any followers.
    Leader(LeaderGuard<'f>),
    /// Another caller led and has since finished (successfully or not);
    /// re-consult the shared store before computing.
    Waited,
}

impl Entry<'_> {
    /// Whether this entry waited on another caller's flight.
    pub fn waited(&self) -> bool {
        matches!(self, Entry::Waited)
    }
}

/// One in-flight key: `done` flips under the mutex when the leader's
/// guard drops, and the condvar wakes the followers.
#[derive(Debug)]
struct Flight {
    done: Mutex<bool>,
    finished: Condvar,
}

/// A per-key mutual-exclusion layer for concurrent computations of
/// shared, deterministic results. See the module docs for the protocol.
///
/// # Examples
///
/// ```
/// use dmdc_core::flight::{Entry, SingleFlight};
///
/// let flight = SingleFlight::new();
/// match flight.join(42) {
///     Entry::Leader(guard) => {
///         // compute and publish, then release followers
///         drop(guard);
///     }
///     Entry::Waited => {
///         // leader finished; re-read the shared store
///     }
/// }
/// assert_eq!(flight.counters().led, 1);
/// ```
#[derive(Debug, Default)]
pub struct SingleFlight {
    inflight: Mutex<HashMap<u64, Arc<Flight>>>,
    led: AtomicU64,
    coalesced: AtomicU64,
}

impl SingleFlight {
    /// An empty flight table.
    pub fn new() -> SingleFlight {
        SingleFlight::default()
    }

    /// Joins the flight for `key`. The first caller per key returns
    /// immediately as [`Entry::Leader`]; concurrent callers block until
    /// that leader's guard drops, then return [`Entry::Waited`].
    pub fn join(&self, key: u64) -> Entry<'_> {
        let flight = {
            let mut inflight = lock(&self.inflight);
            match inflight.get(&key) {
                Some(flight) => Arc::clone(flight),
                None => {
                    let flight = Arc::new(Flight {
                        done: Mutex::new(false),
                        finished: Condvar::new(),
                    });
                    inflight.insert(key, Arc::clone(&flight));
                    self.led.fetch_add(1, Ordering::Relaxed);
                    return Entry::Leader(LeaderGuard {
                        owner: self,
                        key,
                        flight,
                    });
                }
            }
        };
        self.coalesced.fetch_add(1, Ordering::Relaxed);
        let mut done = lock(&flight.done);
        while !*done {
            done = match flight.finished.wait(done) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
        Entry::Waited
    }

    /// Counters since this flight table was created.
    pub fn counters(&self) -> FlightCounters {
        FlightCounters {
            led: self.led.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
        }
    }

    /// Followers currently blocked across all keys — `coalesced` joins
    /// that have not yet been released. Pollable by tests and metrics to
    /// observe that a coalesce actually waited.
    pub fn waiting(&self) -> u64 {
        let inflight = lock(&self.inflight);
        inflight
            .values()
            .map(|f| Arc::strong_count(f).saturating_sub(2) as u64)
            .sum()
    }
}

/// Held by the leader while its computation runs; dropping it (normally
/// or by unwinding) removes the key from the flight table and wakes every
/// follower.
#[derive(Debug)]
pub struct LeaderGuard<'f> {
    owner: &'f SingleFlight,
    key: u64,
    flight: Arc<Flight>,
}

impl Drop for LeaderGuard<'_> {
    fn drop(&mut self) {
        lock(&self.owner.inflight).remove(&self.key);
        *lock(&self.flight.done) = true;
        self.flight.finished.notify_all();
    }
}

/// Locks, surviving poisoning: a panicking leader must still release its
/// followers.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn sole_caller_leads_and_releases() {
        let flight = SingleFlight::new();
        let entry = flight.join(1);
        assert!(matches!(entry, Entry::Leader(_)));
        drop(entry);
        // The key is gone: joining again leads again.
        assert!(matches!(flight.join(1), Entry::Leader(_)));
        assert_eq!(
            flight.counters(),
            FlightCounters {
                led: 2,
                coalesced: 0
            }
        );
    }

    #[test]
    fn distinct_keys_do_not_interfere() {
        let flight = SingleFlight::new();
        let a = flight.join(1);
        let b = flight.join(2);
        assert!(matches!(a, Entry::Leader(_)));
        assert!(matches!(b, Entry::Leader(_)));
    }

    #[test]
    fn follower_waits_until_leader_finishes() {
        let flight = Arc::new(SingleFlight::new());
        let Entry::Leader(guard) = flight.join(7) else {
            panic!("first join must lead");
        };
        let (tx, rx) = mpsc::channel();
        let f2 = Arc::clone(&flight);
        let follower = std::thread::spawn(move || {
            let entry = f2.join(7);
            tx.send(()).unwrap();
            entry.waited()
        });
        // The follower blocks while the guard is held.
        while flight.waiting() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            rx.recv_timeout(Duration::from_millis(50)).is_err(),
            "follower must not proceed while the leader runs"
        );
        drop(guard);
        rx.recv_timeout(Duration::from_secs(5))
            .expect("dropping the guard releases the follower");
        assert!(follower.join().unwrap(), "second join coalesces");
        assert_eq!(
            flight.counters(),
            FlightCounters {
                led: 1,
                coalesced: 1
            }
        );
    }

    #[test]
    fn panicking_leader_releases_followers() {
        let flight = Arc::new(SingleFlight::new());
        let f2 = Arc::clone(&flight);
        let (led, leading) = mpsc::channel();
        let leader = std::thread::spawn(move || {
            let _guard = match f2.join(9) {
                Entry::Leader(g) => g,
                Entry::Waited => panic!("must lead"),
            };
            led.send(()).unwrap();
            // Wait for the follower to be blocked, then die.
            while f2.waiting() == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            panic!("leader dies mid-computation");
        });
        // Join only once the leader holds the key, so this thread follows.
        leading
            .recv_timeout(Duration::from_secs(5))
            .expect("the spawned thread leads");
        let entry = flight.join(9);
        assert!(entry.waited(), "released by the unwinding leader");
        assert!(leader.join().is_err());
        // The key is free again.
        assert!(matches!(flight.join(9), Entry::Leader(_)));
    }
}
