//! Counting execution holds no more heap than the distinct tuples its
//! interior joins keep: a join that keeps the slots of one side collapses
//! onto it, storing each surviving tuple of that side once with a
//! weight, so an interior result of millions of matches over a few
//! thousand kept tuples costs kilobytes, not megabytes. A counting
//! global allocator tracks the live heap of the test thread (every
//! execution below runs in-thread). On this chain, before joins
//! collapsed, `execute` peaked at 28.4 MB storing one slot per match of
//! its 2.9 M-tuple interior result; collapsed, it peaks near 40 KB.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lqo_engine::datagen::imdb_like;
use lqo_engine::query::parse_query;
use lqo_engine::{Executor, JoinAlgo, PhysNode};

thread_local! {
    /// Bytes this thread holds.
    static LIVE: Cell<usize> = const { Cell::new(0) };
    /// The most `LIVE` reached since the last reset.
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn grow(n: usize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + n;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

fn shrink(n: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(n)));
}

/// The system allocator, tracking each thread's live and peak bytes.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// const-initialized thread-locals without destructor, which never
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrink(layout.size());
        grow(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Peak bytes this thread held above its starting point while running `f`.
fn peak_heap(f: impl FnOnce()) -> usize {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    f();
    PEAK.with(Cell::get) - base
}

#[test]
fn counting_a_duplicate_heavy_chain_holds_its_kept_tuples_not_its_matches() {
    let catalog = imdb_like(100, 7).unwrap();
    // Zipf-skewed movie ids: popular titles carry most cast, keyword and
    // company rows, so every interior join multiplies matches.
    let q = parse_query(
        "SELECT COUNT(*) FROM title t, cast_info ci, movie_keyword mk, \
         movie_companies mc, company co \
         WHERE ci.movie_id = t.id AND mk.movie_id = t.id \
         AND mc.movie_id = t.id AND mc.company_id = co.id",
    )
    .unwrap();
    let (t, ci, mk, mc, co) = (0, 1, 2, 3, 4);
    let hash = |l, r| PhysNode::join(JoinAlgo::Hash, l, r);
    // `t ⋈ ci` and `⋈ mk` keep only `t` (later joins read `t.id`), `⋈ mc`
    // keeps only `mc` (the root reads `mc.company_id`).
    let plan = hash(
        hash(
            hash(
                hash(PhysNode::scan(t), PhysNode::scan(ci)),
                PhysNode::scan(mk),
            ),
            PhysNode::scan(mc),
        ),
        PhysNode::scan(co),
    );
    let ex = Executor::with_defaults(&catalog);
    let mut result = None;
    let counted = peak_heap(|| result = Some(ex.execute(&q, &plan).unwrap()));
    let result = result.unwrap();
    // The largest interior result, in logical tuples: what storing one
    // kept slot per match takes, at 4 bytes a slot.
    let interior = result.intermediates[..result.intermediates.len() - 1]
        .iter()
        .map(|&(_, n)| n as usize)
        .max()
        .unwrap();
    let one_slot_per_match = 4 * interior;
    eprintln!("peak {counted} B; largest interior {interior} tuples");
    assert!(
        counted * 8 < one_slot_per_match,
        "execute peaked at {counted} B, an eighth of one slot per match is {} B",
        one_slot_per_match / 8
    );
}
