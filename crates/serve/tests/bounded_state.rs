//! A server holds what it has in flight, not what it has served: each
//! redeemed ticket frees its slot for a later submission, and the
//! per-tenant health series thins out at its cap. A process-wide
//! counting allocator tracks the live heap (the step workers allocate
//! on their own threads); after a warm-up, ten times as many requests
//! must leave it where it was. Before ticket slots were reclaimed, every
//! request left its task and outcome slots behind and the live heap grew
//! by megabytes here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Arc;

use lqo_engine::datagen::stats_like;
use lqo_engine::query::parse_query;
use lqo_pilot::EngineInteractor;
use lqo_serve::{LqoServer, ServeConfig, SessionRequest};

/// Bytes the process holds.
static LIVE: AtomicIsize = AtomicIsize::new(0);

/// The system allocator, tracking the process's live bytes.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counter is
// a static atomic, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn live_heap_stays_flat_over_ten_times_the_requests() {
    let catalog = Arc::new(stats_like(60, 7).unwrap());
    let mut cfg = ServeConfig::default();
    // A series cap the warm-up already reaches, so the series is in its
    // thinning regime before the heap is measured.
    cfg.watch.max_series = 256;
    let srv = LqoServer::new(Arc::new(EngineInteractor::new(catalog)), cfg);
    let queries = [
        "SELECT COUNT(*) FROM users u WHERE u.reputation > 50",
        "SELECT COUNT(*) FROM users u, posts p \
         WHERE u.id = p.owner_user_id AND u.reputation > 10",
        "SELECT COUNT(*) FROM posts p WHERE p.score > 2",
    ]
    .map(|sql| parse_query(sql).unwrap());
    // Waves of eight in flight, over three tenants.
    let serve = |n: usize| {
        for wave in 0..n / 8 {
            let tickets: Vec<_> = (0..8)
                .map(|i| {
                    let k = wave * 8 + i;
                    let req = SessionRequest::new(format!("t{}", k % 3), queries[k % 3].clone());
                    srv.submit(req).expect("admitted")
                })
                .collect();
            for ticket in tickets {
                assert!(srv.wait(ticket).result.is_ok());
            }
        }
    };
    serve(1_000);
    let warm = LIVE.load(Ordering::Relaxed);
    serve(10_000);
    let grown = LIVE.load(Ordering::Relaxed) - warm;
    assert!(
        grown <= 64 * 1024,
        "live heap grew by {grown} bytes over 10 000 requests"
    );
}
