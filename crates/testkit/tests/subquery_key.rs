//! `SpjQuery::subquery_key` has the equivalence classes of
//! `SpjQuery::canonical_key`.
//!
//! Every cross-query cache keys on the 128-bit `subquery_key`; the
//! readable `canonical_key` is the reference it must agree with. Two
//! checks pin the agreement:
//!
//! 1. Random queries, permuted copies of them (tables shuffled, joins and
//!    predicates reordered, join sides swapped) and near-miss variants
//!    (a predicate dropped, repeated, or given another literal; a join
//!    repeated with its sides swapped): over the connected subsets of the
//!    whole family, two keys are equal exactly when the canonical keys
//!    are. The repeats are what an xor combination would cancel.
//! 2. Every connected subset of the E-experiment join workloads: no two
//!    different canonical keys share a `subquery_key`.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use lqo_bench_suite::workload::{generate_workload, WorkloadConfig};
use lqo_engine::datagen::{imdb_like, stats_like};
use lqo_engine::query::JoinGraph;
use lqo_engine::{Catalog, SpjQuery, SubqueryKey, Value};
use lqo_testkit::{random_query, RandomQueryConfig};

/// Both directions of the key ↔ canonical-key correspondence, filled from
/// every connected subset of the queries fed to it.
#[derive(Default)]
struct Classes {
    by_canonical: HashMap<String, SubqueryKey>,
    by_key: HashMap<SubqueryKey, String>,
}

impl Classes {
    /// Add every connected subset of `q`; panics on the first subset whose
    /// key disagrees with its canonical key's class.
    fn add(&mut self, q: &SpjQuery) {
        for set in JoinGraph::new(q).connected_subsets(q.num_tables()) {
            let canonical = q.canonical_key(set);
            let key = q.subquery_key(set);
            let known = *self.by_canonical.entry(canonical.clone()).or_insert(key);
            assert_eq!(
                known, key,
                "equal canonical keys, different subquery keys: {canonical}"
            );
            let other = self.by_key.entry(key).or_insert_with(|| canonical.clone());
            assert_eq!(
                *other, canonical,
                "subquery key {key:?} shared by different canonical keys"
            );
        }
    }
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// The same query written differently: tables, joins and predicates in
/// another order and some join sides swapped.
fn permuted(q: &SpjQuery, rng: &mut StdRng) -> SpjQuery {
    let mut p = q.clone();
    shuffle(&mut p.tables, rng);
    shuffle(&mut p.joins, rng);
    shuffle(&mut p.predicates, rng);
    for j in &mut p.joins {
        if rng.gen_bool(0.5) {
            std::mem::swap(&mut j.left, &mut j.right);
        }
    }
    p
}

/// Queries that differ from `q` in one element, or only in how many
/// times an element is repeated.
fn variants(q: &SpjQuery) -> Vec<SpjQuery> {
    let mut out = Vec::new();
    if let Some(first) = q.predicates.first() {
        let mut dropped = q.clone();
        dropped.predicates.remove(0);
        out.push(dropped);
        for copies in 1..=2 {
            let mut repeated = q.clone();
            repeated
                .predicates
                .extend(std::iter::repeat_n(first.clone(), copies));
            out.push(repeated);
        }
        let mut literal = q.clone();
        literal.predicates[0].value = match &first.value {
            Value::Int(v) => Value::Int(v + 1),
            Value::Float(v) => Value::Float(v + 1.0),
            Value::Text(s) => Value::Text(format!("{s}~")),
            Value::Null => Value::Int(0),
        };
        out.push(literal);
    }
    let mut swapped = q.joins[0].clone();
    std::mem::swap(&mut swapped.left, &mut swapped.right);
    for copies in 1..=2 {
        let mut repeated = q.clone();
        repeated
            .joins
            .extend(std::iter::repeat_n(swapped.clone(), copies));
        out.push(repeated);
    }
    out
}

#[test]
fn subquery_key_matches_canonical_key_on_permuted_and_near_miss_queries() {
    let catalogs = [stats_like(60, 7).unwrap(), imdb_like(40, 7).unwrap()];
    let cfg = RandomQueryConfig {
        max_tables: 6,
        max_predicates: 4,
    };
    let mut rng = StdRng::seed_from_u64(0x5B_0EE7);
    for catalog in &catalogs {
        for _ in 0..40 {
            let q = random_query(catalog, &mut rng, &cfg);
            // One class map per family: within it, variants and
            // permutations share sub-queries with the original.
            let mut classes = Classes::default();
            for member in std::iter::once(q.clone()).chain(variants(&q)) {
                classes.add(&member);
                for _ in 0..3 {
                    classes.add(&permuted(&member, &mut rng));
                }
            }
            // Every near-miss variant differs from `q` on the full set.
            let full = q.subquery_key(q.all_tables());
            for v in variants(&q) {
                assert_ne!(v.subquery_key(v.all_tables()), full, "variant of {q}");
            }
        }
    }
}

/// The join workloads of the E-experiments (catalog, shape and default
/// seed of each), at test scale.
fn experiment_workloads() -> Vec<(&'static str, Catalog, WorkloadConfig)> {
    let shape = |seed, min_tables, max_tables, max_predicates| WorkloadConfig {
        num_queries: 40,
        min_tables,
        max_tables,
        max_predicates,
        seed,
    };
    vec![
        (
            "e3",
            stats_like(60, 0xE3).unwrap(),
            shape(0xE3 ^ 0x30, 2, 4, 3),
        ),
        (
            "e4",
            imdb_like(60, 0xE4).unwrap(),
            shape(0xE4 ^ 0x50, 2, 5, 3),
        ),
        (
            "e5",
            imdb_like(60, 0xE5).unwrap(),
            shape(0xE5 ^ 0x61, 3, 6, 4),
        ),
        (
            "e6",
            imdb_like(60, 0xE6).unwrap(),
            shape(0xE6 ^ 0x70, 3, 7, 3),
        ),
        (
            "e7",
            imdb_like(60, 0xE7).unwrap(),
            shape(0xE7 ^ 0x80, 2, 5, 3),
        ),
        (
            "e8",
            stats_like(60, 0xE8).unwrap(),
            shape(0xE8 ^ 0x90, 2, 4, 3),
        ),
        (
            "e9",
            stats_like(60, 0xE9).unwrap(),
            shape(0xE9 ^ 0x22, 2, 4, 3),
        ),
        ("e12", stats_like(60, 0xE12).unwrap(), shape(0xE12, 2, 3, 3)),
        ("e13", stats_like(60, 0xE13).unwrap(), shape(0xE13, 2, 4, 3)),
        (
            "e14",
            stats_like(60, 0xE14).unwrap(),
            shape(0xE14 ^ 0x5EED, 2, 2, 2),
        ),
    ]
}

#[test]
fn experiment_workloads_have_no_key_collisions() {
    let mut classes = Classes::default();
    for (name, catalog, cfg) in experiment_workloads() {
        let queries = generate_workload(&catalog, &cfg);
        assert!(!queries.is_empty(), "{name} generated no queries");
        for q in &queries {
            classes.add(q);
        }
    }
    // Enough distinct sub-queries that a weak key would show collisions.
    assert!(
        classes.by_key.len() > 2_000,
        "{} distinct sub-queries",
        classes.by_key.len()
    );
}
