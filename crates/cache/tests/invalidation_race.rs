//! Barrier-driven invalidation races: readers hammer the shared cache
//! while invalidation (`bump_stats_epoch`, `on_breaker_open`,
//! `note_health`) runs concurrently. The invariant under test is the
//! serving-layer staleness contract: a lookup may race an in-flight
//! invalidation either way, but once an invalidation call has
//! *returned*, no lookup started afterwards may serve a pre-invalidation
//! entry. Plans are tagged with their store round (in `cost`) so a stale
//! hit is detected exactly, not probabilistically.

use std::sync::{Arc, Barrier};
use std::thread;

use lqo_cache::{LqoCache, PlannedQuery};
use lqo_engine::{PhysNode, SubqueryKey};

const READERS: usize = 4;
const ROUNDS: usize = 50;
const Q: SubqueryKey = SubqueryKey(0x51);

fn plan_of_round(round: usize) -> PlannedQuery {
    PlannedQuery {
        plan: PhysNode::scan(0),
        cost: round as f64,
    }
}

/// Drive `ROUNDS` store → concurrent-lookup-vs-invalidate → post-check
/// cycles. `invalidate` runs on the writer thread while all readers
/// hammer `plan_lookup`; after it returns (second barrier), every
/// reader's next lookup must miss.
fn run_race(cache: Arc<LqoCache>, invalidate: impl Fn(&LqoCache, usize) + Send + 'static) {
    let barrier = Arc::new(Barrier::new(READERS + 1));
    let mut handles = Vec::new();
    for _ in 0..READERS {
        let cache = Arc::clone(&cache);
        let barrier = Arc::clone(&barrier);
        handles.push(thread::spawn(move || {
            for round in 0..ROUNDS {
                barrier.wait(); // entry of this round is stored
                for _ in 0..64 {
                    if let Some(p) = cache.plan_lookup(Q) {
                        // A hit racing the invalidation must be THIS
                        // round's plan — an older round's entry would
                        // have survived a completed invalidation.
                        assert_eq!(
                            p.cost, round as f64,
                            "stale plan from an earlier round served in round {round}"
                        );
                    }
                }
                barrier.wait(); // invalidation has returned
                assert!(
                    cache.plan_lookup(Q).is_none(),
                    "plan served after its invalidation completed (round {round})"
                );
                barrier.wait(); // round teardown
            }
        }));
    }
    for round in 0..ROUNDS {
        cache.plan_store(Q, plan_of_round(round), "mscn");
        barrier.wait();
        invalidate(&cache, round);
        barrier.wait();
        barrier.wait();
    }
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn epoch_bump_never_serves_stale_epoch_plan() {
    run_race(Arc::new(LqoCache::default()), |cache, _| {
        cache.bump_stats_epoch();
    });
}

#[test]
fn breaker_open_never_serves_flushed_plan() {
    run_race(Arc::new(LqoCache::default()), |cache, _| {
        cache.on_breaker_open("driver:bao");
    });
}

#[test]
fn drift_alarm_never_serves_flushed_plan() {
    // `note_health` only flushes on the *transition into* drift, so
    // alternate drifted/recovered across rounds — every odd round clears
    // the drift so the next round's alarm is a fresh transition.
    run_race(Arc::new(LqoCache::default()), |cache, round| {
        cache.note_health("card:mscn", true);
        let _ = round;
        cache.note_health("card:mscn", false);
    });
}

#[test]
fn concurrent_lookups_and_bumps_keep_counters_consistent() {
    // No barriers at all: pure contention. At the end, hits + misses
    // must equal the number of lookups issued, and the cache must still
    // answer — no lost updates, no deadlock, no poisoned lock.
    let cache = Arc::new(LqoCache::default());
    let mut handles = Vec::new();
    for t in 0..READERS {
        let cache = Arc::clone(&cache);
        handles.push(thread::spawn(move || {
            for i in 0..200 {
                if t == 0 && i % 10 == 0 {
                    cache.bump_stats_epoch();
                }
                let key = SubqueryKey(i % 7);
                cache.card_store(key, i as f64, "traditional");
                cache.card_lookup(key);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let s = cache.stats();
    assert_eq!(s.card_hits + s.card_misses, (READERS * 200) as u64);
    let last = SubqueryKey(u128::MAX);
    cache.card_store(last, 1.0, "traditional");
    assert_eq!(cache.card_lookup(last), Some(1.0));
}
