//! Inference allocates nothing once warm: `TreeConvNet::predict` (every
//! Bao candidate plan is scored through it) and `Mscn::predict` run in a
//! per-thread workspace that grows to the largest input seen and is then
//! reused. A counting global allocator checks it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lqo_ml::mscn::{Mscn, MscnConfig};
use lqo_ml::treeconv::{FeatTree, TreeConvConfig, TreeConvNet};

thread_local! {
    /// Allocations made by this thread.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting the allocations of each thread.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// const-initialized thread-local without destructor, which never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by this thread while running `f`.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// A left-deep plan-shaped tree over `leaves` scans with one-hot features.
fn plan_tree(leaves: usize) -> FeatTree {
    let mut t = FeatTree::new();
    let feat = |op: usize, table: usize| {
        let mut f = vec![0.0; 10];
        f[op] = 1.0;
        f[4 + table % 5] = 1.0;
        f[9] = 0.25 * (table + 1) as f64;
        f
    };
    let mut root = t.leaf(feat(0, 0));
    for i in 1..leaves {
        let scan = t.leaf(feat(0, i));
        root = t.internal(feat(1 + i % 3, i), root, scan);
    }
    t
}

#[test]
fn warm_predicts_allocate_nothing() {
    let mut net = TreeConvNet::new(TreeConvConfig {
        channels: vec![24, 12],
        head_hidden: vec![24],
        ..TreeConvConfig::new(10)
    });
    let trees: Vec<FeatTree> = (1..=6).map(plan_tree).collect();
    let refs: Vec<&FeatTree> = trees.iter().collect();
    net.train_batch(&refs, &[0.1, 0.2, 0.3, 0.4, 0.5, 0.6]);
    // Warm up on the largest tree, then score every tree repeatedly.
    let mut sum = net.predict(&trees[5]);
    let n = allocations(|| {
        for _ in 0..50 {
            for t in &trees {
                sum += net.predict(t);
            }
        }
    });
    assert!(sum.is_finite());
    assert_eq!(n, 0, "allocations in 300 warm TreeConvNet::predict calls");

    let mscn = Mscn::new(MscnConfig::new(vec![3, 2]));
    let sample = |items: usize| -> Vec<Vec<Vec<f64>>> {
        let set0 = (0..items).map(|i| vec![i as f64, 1.0, 0.5]).collect();
        let set1 = (0..items / 2).map(|i| vec![0.0, i as f64]).collect();
        vec![set0, set1]
    };
    let samples: Vec<_> = (0..5).map(sample).collect();
    let mut sum = mscn.predict(&samples[4]);
    let n = allocations(|| {
        for _ in 0..50 {
            for s in &samples {
                sum += mscn.predict(s);
            }
        }
    });
    assert!(sum.is_finite());
    assert_eq!(n, 0, "allocations in 250 warm Mscn::predict calls");
}
