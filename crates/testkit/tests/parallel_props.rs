//! Property tests for the parallel execution path: random SPJ queries,
//! random (often terrible) plan shapes, random morsel sizes and thread
//! counts — parallel must equal the reference evaluator byte for byte,
//! runs must be deterministic, and the merge steps must be
//! order-insensitive where the design says they are.

use std::sync::OnceLock;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use lqo_engine::datagen::stats_like;
use lqo_engine::{Catalog, ExecConfig, ExecMode, Executor, JoinAlgo, ParallelConfig, PhysNode};
use lqo_testkit::{diff_plan, random_plan, random_query, DiffConfig, RandomQueryConfig};

fn catalog() -> &'static Catalog {
    static CATALOG: OnceLock<Catalog> = OnceLock::new();
    CATALOG.get_or_init(|| stats_like(50, 11).unwrap())
}

fn parallel_exec(threads: usize, morsel_rows: usize) -> Executor<'static> {
    Executor::new(
        catalog(),
        ExecConfig {
            mode: ExecMode::Parallel { threads },
            parallel: ParallelConfig {
                morsel_rows,
                ..Default::default()
            },
            ..Default::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    /// The core property: for ANY query, ANY plan shape, ANY morsel size
    /// and thread count, parallel output is byte-identical to the
    /// reference — same rows in the same order, bit-identical work.
    #[test]
    fn parallel_equals_serial_for_random_plans(
        seed in 0u64..u64::MAX,
        morsel_rows in 1usize..4096,
        threads in 2usize..9,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let q = random_query(catalog(), &mut rng, &RandomQueryConfig::default());
        let plan = random_plan(&q, &mut rng);
        let cfg = DiffConfig {
            thread_counts: vec![threads],
            morsel_rows: vec![morsel_rows],
            batch_sizes: vec![], // batched legs live in batch_props.rs
            max_work: None,
        };
        diff_plan(catalog(), &q, &plan, &cfg)
            .unwrap_or_else(|msg| panic!("{msg} (plan {})", plan.fingerprint()));
    }

    /// Two parallel runs of the same plan — different wall-clock morsel
    /// schedules — must agree with each other, not just with the
    /// reference.
    #[test]
    fn parallel_runs_are_deterministic(
        seed in 0u64..u64::MAX,
        morsel_rows in 1usize..2048,
        threads in 2usize..9,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let q = random_query(catalog(), &mut rng, &RandomQueryConfig::default());
        let plan = random_plan(&q, &mut rng);
        let ex = parallel_exec(threads, morsel_rows);
        let (r1, rel1) = ex.execute_collect(&q, &plan).unwrap();
        let (r2, rel2) = ex.execute_collect(&q, &plan).unwrap();
        prop_assert_eq!(r1.count, r2.count);
        prop_assert_eq!(r1.work.to_bits(), r2.work.to_bits());
        prop_assert_eq!(rel1.digest(), rel2.digest());
    }

    /// COUNT(*) merge contract: per-morsel counts combine by `u64`
    /// addition, which must be insensitive to how the scheduler groups
    /// morsels into workers (associativity) and to merge order
    /// (commutativity). Modeled as: any random binary grouping of the
    /// per-morsel counts, over any permutation, sums to the same total.
    #[test]
    fn count_merge_is_associative_and_commutative(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let n = rng.gen_range(1..64);
        let counts: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1_000_000)).collect();
        let reference: u64 = counts.iter().sum();
        for _ in 0..4 {
            let mut permuted = counts.clone();
            for i in (1..permuted.len()).rev() {
                let j = rng.gen_range(0..=i);
                permuted.swap(i, j);
            }
            prop_assert_eq!(tree_sum(&permuted, &mut rng), reference);
        }
    }

    /// Hash-join build/probe symmetry: swapping which side builds the
    /// table changes row order (probe-major emission) but must preserve
    /// the result *set*. Compared via slot-normalized order-insensitive
    /// digests.
    #[test]
    fn hash_join_build_probe_symmetry(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let q = random_query(
            catalog(),
            &mut rng,
            &RandomQueryConfig { max_tables: 2, max_predicates: 3 },
        );
        let ab = PhysNode::join(JoinAlgo::Hash, PhysNode::scan(0), PhysNode::scan(1));
        let ba = PhysNode::join(JoinAlgo::Hash, PhysNode::scan(1), PhysNode::scan(0));
        let ex = parallel_exec(4, 512);
        let (r1, rel1) = ex.execute_collect(&q, &ab).unwrap();
        let (r2, rel2) = ex.execute_collect(&q, &ba).unwrap();
        prop_assert_eq!(r1.count, r2.count);
        prop_assert_eq!(
            rel1.normalize().canonical_digest(),
            rel2.normalize().canonical_digest(),
            "join sides produced different result sets for `{}`", q
        );
    }
}

/// Sum `vals` via a random binary grouping (models workers combining
/// partial counts in arbitrary tree shapes).
fn tree_sum(vals: &[u64], rng: &mut StdRng) -> u64 {
    use rand::Rng;
    match vals.len() {
        0 => 0,
        1 => vals[0],
        n => {
            let split = rng.gen_range(1..n);
            tree_sum(&vals[..split], rng) + tree_sum(&vals[split..], rng)
        }
    }
}
