//! Weighted intermediates, differenced. Over a duplicate-heavy catalog,
//! interior joins that keep one side collapse onto it, so weighted
//! relations feed every join kind — hash, nested loop, merge and the
//! cross product — on either side. Every plan runs through `diff_plan`
//! in every mode the harness sweeps (serial, the pool at each
//! `LQO_TEST_THREADS`, batched at each `LQO_TEST_BATCH_SIZES`):
//! `execute` ≡ `execute_collect` ≡ the reference evaluator on count,
//! work bits, intermediates and error, and each pruned intermediate's
//! slots, rows and weights are byte-identical across the cells.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::SeedableRng;

use lqo_engine::exec::{keep_for_child, reference};
use lqo_engine::table::TableBuilder;
use lqo_engine::{
    Catalog, ColRef, Executor, JoinAlgo, JoinCond, PhysNode, Relation, SpjQuery, TableRef,
    TableSet, WorkMeter,
};
use lqo_testkit::{diff_plan, random_plan, DiffConfig};

/// `a`, `c` and `f` are small dimension tables whose join keys repeat;
/// `b` and `d` join them on those keys; `e` joins nothing.
fn catalog() -> Catalog {
    let mut c = Catalog::new();
    let int = |n: i64, f: &dyn Fn(i64) -> i64| (0..n).map(f).collect::<Vec<i64>>();
    c.add_table(
        TableBuilder::new("a")
            .int("id", int(8, &|i| i))
            .int("g", vec![0, 0, 0, 1, 1, 2, 3, 3])
            .build()
            .unwrap(),
    );
    c.add_table(
        TableBuilder::new("b")
            .int("id", int(30, &|i| i))
            .int("g", int(30, &|i| i % 5))
            .int("f_id", int(30, &|i| (i * 7) % 6))
            .build()
            .unwrap(),
    );
    c.add_table(
        TableBuilder::new("c")
            .int("id", int(7, &|i| i))
            .int("g", vec![0, 1, 1, 2, 2, 2, 4])
            .build()
            .unwrap(),
    );
    c.add_table(
        TableBuilder::new("d")
            .int("id", int(24, &|i| i))
            .int("g", int(24, &|i| i % 4))
            .int("f_id", int(24, &|i| i % 6))
            .build()
            .unwrap(),
    );
    c.add_table(
        TableBuilder::new("e")
            .int("id", int(3, &|i| i))
            .build()
            .unwrap(),
    );
    c.add_table(
        TableBuilder::new("f")
            .int("id", int(6, &|i| i % 4))
            .build()
            .unwrap(),
    );
    c
}

fn cond(l: (&str, &str), r: (&str, &str)) -> JoinCond {
    JoinCond::new(ColRef::new(l.0, l.1), ColRef::new(r.0, r.1))
}

/// Two weighted components bridged by `f`; a component with an
/// isolated table (cross products with a weighted side); a composite
/// key between collapsed relations.
fn queries() -> Vec<SpjQuery> {
    let tables = |names: &[&str]| names.iter().map(|&t| TableRef::bare(t)).collect();
    vec![
        SpjQuery::new(
            tables(&["a", "b", "c", "d", "f"]),
            vec![
                cond(("a", "g"), ("b", "g")),
                cond(("c", "g"), ("d", "g")),
                cond(("b", "f_id"), ("f", "id")),
                cond(("d", "f_id"), ("f", "id")),
            ],
            vec![],
        ),
        SpjQuery::new(
            tables(&["a", "b", "e", "f"]),
            vec![
                cond(("a", "g"), ("b", "g")),
                cond(("b", "f_id"), ("f", "id")),
            ],
            vec![],
        ),
        SpjQuery::new(
            tables(&["a", "b", "c", "d"]),
            vec![
                cond(("a", "g"), ("b", "g")),
                cond(("c", "g"), ("d", "g")),
                cond(("b", "g"), ("d", "g")),
                cond(("b", "f_id"), ("d", "f_id")),
            ],
            vec![],
        ),
    ]
}

/// Step `node` as `execute` steps it, noting in `seen` each join kind
/// (`Cross` for a cross product) and side that read a weighted input.
fn feeds(
    ex: &Executor<'_>,
    q: &SpjQuery,
    node: &PhysNode,
    keep: TableSet,
    meter: &mut WorkMeter,
    seen: &mut BTreeSet<String>,
) -> Relation {
    match node {
        PhysNode::Scan { pos } => ex.exec_scan_step_keeping(q, *pos, keep, meter).unwrap(),
        PhysNode::Join { algo, left, right } => {
            let l = feeds(
                ex,
                q,
                left,
                keep_for_child(q, left.tables(), keep),
                meter,
                seen,
            );
            let r = feeds(
                ex,
                q,
                right,
                keep_for_child(q, right.tables(), keep),
                meter,
                seen,
            );
            let kind = match q.joins_between(l.tables(), r.tables()).is_empty() {
                true => "Cross",
                false => algo.label(),
            };
            for (rel, side) in [(&l, "left"), (&r, "right")] {
                if rel.is_weighted() {
                    seen.insert(format!("{kind} {side}"));
                }
            }
            ex.exec_join_step_keeping(q, *algo, l, r, keep, meter)
                .unwrap()
        }
    }
}

#[test]
fn weighted_inputs_feed_every_join_kind_identically_in_every_mode() {
    let catalog = catalog();
    let ex = Executor::with_defaults(&catalog);
    let mut seen = BTreeSet::new();
    for (k, q) in queries().iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(0x3E16_0000 + k as u64);
        for _ in 0..24 {
            let plan = random_plan(q, &mut rng);
            let mut meter = WorkMeter::new(None);
            feeds(&ex, q, &plan, TableSet::EMPTY, &mut meter, &mut seen);
            let full = ex.execute(q, &plan).unwrap().work;
            // Unbudgeted, then budgets tripping in the upfront charges and
            // in the weighted output.
            for max_work in [None, Some(full * 0.4), Some(full * 0.9)] {
                let cfg = DiffConfig {
                    max_work,
                    ..Default::default()
                };
                match diff_plan(&catalog, q, &plan, &cfg) {
                    Ok(out) => assert!(out.cells > 1),
                    Err(msg)
                        if max_work.is_some() && msg.contains("reference execution failed") => {}
                    Err(msg) => panic!("{msg}\nplan {plan:?}"),
                }
            }
        }
    }
    let want: BTreeSet<String> = ["HashJoin", "NestedLoopJoin", "MergeJoin", "Cross"]
        .iter()
        .flat_map(|kind| ["left", "right"].map(|side| format!("{kind} {side}")))
        .collect();
    assert!(
        want.is_subset(&seen),
        "weighted inputs reached only {seen:?}"
    );
}

#[test]
fn collapsed_counts_match_their_expansion() {
    // `a ⋈ b` keeping only `b`: each `b` row once, weighted by the `a`
    // rows sharing its `g` (3, 2, 1, 2 or 0 of them), and the counting
    // root reads those weights.
    let catalog = catalog();
    let q = &queries()[1];
    let ex = Executor::with_defaults(&catalog);
    let (a, b) = (0, 1);
    for algo in JoinAlgo::ALL {
        let mut meter = WorkMeter::new(None);
        let keep = keep_for_child(q, TableSet::from_iter([a, b]), TableSet::EMPTY);
        assert_eq!(keep, TableSet::singleton(b));
        let l = ex
            .exec_scan_step_keeping(q, a, TableSet::singleton(a), &mut meter)
            .unwrap();
        let r = ex
            .exec_scan_step_keeping(q, b, TableSet::singleton(b), &mut meter)
            .unwrap();
        let ab = ex
            .exec_join_step_keeping(q, algo, l, r, keep, &mut meter)
            .unwrap();
        // 30 b rows, g = i % 5: six each of g = 0..4; g = 4 has no a row.
        assert_eq!(ab.len(), 6 * (3 + 2 + 1 + 2), "{algo}");
        assert_eq!(ab.physical_len(), 24, "{algo}");
        assert!(ab.is_weighted(), "{algo}");
        assert_eq!(ab.weights().iter().sum::<u64>() as usize, ab.len());
        let plan = PhysNode::join(
            JoinAlgo::NestedLoop,
            PhysNode::join(
                JoinAlgo::Hash,
                PhysNode::join(algo, PhysNode::scan(a), PhysNode::scan(b)),
                PhysNode::scan(3),
            ),
            PhysNode::scan(2),
        );
        let counted = ex.execute(q, &plan).unwrap();
        let (want, _) = reference::execute(&ex, q, &plan).unwrap();
        assert_eq!(counted.intermediates[2], (TableSet::from_iter([a, b]), 48));
        assert_eq!(counted.intermediates, want.intermediates, "{algo}");
        assert_eq!(counted.count, want.count, "{algo}");
        assert_eq!(counted.work.to_bits(), want.work.to_bits(), "{algo}");
    }
}
