//! Golden snapshot of what the executor reports for a fixed set of plans:
//! seeded random queries of 2–8 tables over `stats_like` and `imdb_like`,
//! each run under a random join tree forced to every join algorithm, plus
//! one bushy plan and one cross product per catalog. Every plan runs
//! through both `execute` and `execute_collect`, unbudgeted and under
//! budgets of 0.3, 0.6 and 0.9 of its unbudgeted work. Each line records
//! the count, the work bits, the intermediates and (collecting) the
//! relation digest — or the error's `Display`.
//!
//! The golden holds for every execution mode: the test renders it under
//! each mode below and requires the same text from all of them.
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! BLESS=1 cargo test -p lqo-testkit --test exec_plans
//! ```

use std::fmt::Write as _;

use lqo_engine::datagen::{imdb_like, stats_like};
use lqo_engine::{
    Catalog, ExecConfig, ExecMode, ExecResult, Executor, JoinAlgo, ParallelConfig, PhysNode,
    SpjQuery,
};
use lqo_testkit::{check_golden, random_plan, random_query, RandomQueryConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Queries per catalog.
const QUERIES: usize = 14;

/// Budgets, as fractions of a plan's unbudgeted work.
const BUDGETS: [f64; 3] = [0.3, 0.6, 0.9];

/// Work cap a drawn plan must finish under to enter the sweep: random
/// trees over eight tables can hold cross products of millions of tuples.
const MAX_WORK: f64 = 2e6;

/// Whether `plan` finishes within [`MAX_WORK`].
fn bounded(catalog: &Catalog, query: &SpjQuery, plan: &PhysNode) -> bool {
    let config = ExecConfig {
        max_work: Some(MAX_WORK),
        ..Default::default()
    };
    Executor::new(catalog, config).execute(query, plan).is_ok()
}

/// Labelled plans of one catalog: `(label, query, plan)`.
type Plans = Vec<(String, SpjQuery, PhysNode)>;

/// `plan` with every join that has a condition forced to `algo` (cross
/// products stay nested loops, as the executor requires).
fn force(query: &SpjQuery, plan: &PhysNode, algo: JoinAlgo) -> PhysNode {
    match plan {
        PhysNode::Scan { pos } => PhysNode::scan(*pos),
        PhysNode::Join { left, right, .. } => {
            let (l, r) = (force(query, left, algo), force(query, right, algo));
            let conds = query.joins_between(l.tables(), r.tables());
            let algo = if conds.is_empty() {
                JoinAlgo::NestedLoop
            } else {
                algo
            };
            PhysNode::join(algo, l, r)
        }
    }
}

fn is_bushy(plan: &PhysNode) -> bool {
    match plan {
        PhysNode::Scan { .. } => false,
        PhysNode::Join { left, right, .. } => {
            matches!(
                (&**left, &**right),
                (PhysNode::Join { .. }, PhysNode::Join { .. })
            ) || is_bushy(left)
                || is_bushy(right)
        }
    }
}

fn has_cross(query: &SpjQuery, plan: &PhysNode) -> bool {
    match plan {
        PhysNode::Scan { .. } => false,
        PhysNode::Join { left, right, .. } => {
            query
                .joins_between(left.tables(), right.tables())
                .is_empty()
                || has_cross(query, left)
                || has_cross(query, right)
        }
    }
}

/// The labelled plans of one catalog.
fn plans(catalog: &Catalog, seed: u64) -> Plans {
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = RandomQueryConfig {
        max_tables: 8,
        max_predicates: 3,
    };
    let mut out = Vec::new();
    let mut widest = 0;
    let mut i = 0;
    while i < QUERIES {
        let q = random_query(catalog, &mut rng, &cfg);
        let shape = random_plan(&q, &mut rng);
        let forced = JoinAlgo::ALL.map(|algo| force(&q, &shape, algo));
        if !forced.iter().all(|plan| bounded(catalog, &q, plan)) {
            continue;
        }
        widest = widest.max(q.num_tables());
        for (algo, plan) in JoinAlgo::ALL.into_iter().zip(forced) {
            out.push((
                format!("q{i:02} t{} {algo}", q.num_tables()),
                q.clone(),
                plan,
            ));
        }
        i += 1;
    }
    assert!(
        widest >= 7,
        "the sweep must reach wide joins (widest {widest})"
    );
    // One bushy plan and one cross product, from the first queries whose
    // random trees have them.
    let mut bushy = None;
    let mut cross = None;
    for attempt in 0..10_000 {
        if bushy.is_some() && cross.is_some() {
            break;
        }
        let q = random_query(catalog, &mut rng, &cfg);
        let plan = random_plan(&q, &mut rng);
        if !bounded(catalog, &q, &plan) {
            continue;
        }
        if bushy.is_none() && is_bushy(&plan) && !has_cross(&q, &plan) {
            bushy = Some((format!("b{attempt:04} t{} bushy", q.num_tables()), q, plan));
        } else if cross.is_none() && has_cross(&q, &plan) {
            cross = Some((format!("x{attempt:04} t{} cross", q.num_tables()), q, plan));
        }
    }
    out.push(bushy.expect("a bushy plan"));
    out.push(cross.expect("a cross product"));
    out
}

fn record(out: &mut String, label: &str, r: &ExecResult, digest: Option<u64>) {
    write!(
        out,
        "{label}: count={} work={:#018x} inter=[",
        r.count,
        r.work.to_bits()
    )
    .unwrap();
    for (k, (set, card)) in r.intermediates.iter().enumerate() {
        let sep = if k == 0 { "" } else { " " };
        write!(out, "{sep}{:x}:{card}", set.0).unwrap();
    }
    out.push(']');
    if let Some(d) = digest {
        write!(out, " digest={d:#018x}").unwrap();
    }
    out.push('\n');
}

/// Render every line of the golden under `mode`. Budgets are fractions
/// of each plan's unbudgeted work, which every mode must agree on.
fn render(catalogs: &[(&str, Catalog, Plans)], mode: ExecMode, morsel_rows: usize) -> String {
    let mut out = String::new();
    for (name, catalog, plans) in catalogs {
        for (label, q, plan) in plans {
            let config = |max_work| ExecConfig {
                max_work,
                mode,
                parallel: ParallelConfig {
                    morsel_rows,
                    ..Default::default()
                },
                ..Default::default()
            };
            let full = Executor::new(catalog, config(None))
                .execute(q, plan)
                .unwrap_or_else(|e| panic!("{name} {label}: {e}"))
                .work;
            let budgets = std::iter::once(None).chain(BUDGETS.map(|f| Some(full * f)));
            for (b, budget) in budgets.enumerate() {
                let tag = match b {
                    0 => "none".to_string(),
                    _ => format!("{}", BUDGETS[b - 1]),
                };
                let ex = Executor::new(catalog, config(budget));
                let line = format!("{name} {label} {tag} execute");
                match ex.execute(q, plan) {
                    Ok(r) => record(&mut out, &line, &r, None),
                    Err(e) => writeln!(out, "{line}: err={e}").unwrap(),
                }
                let line = format!("{name} {label} {tag} collect");
                match ex.execute_collect(q, plan) {
                    Ok((r, rel)) => record(&mut out, &line, &r, Some(rel.digest())),
                    Err(e) => writeln!(out, "{line}: err={e}").unwrap(),
                }
            }
        }
    }
    out
}

#[test]
fn exec_plans_snapshot() {
    let stats = stats_like(60, 7).unwrap();
    let imdb = imdb_like(40, 7).unwrap();
    let stats_plans = plans(&stats, 0xE8EC_0001);
    let imdb_plans = plans(&imdb, 0xE8EC_0002);
    let catalogs = [("stats", stats, stats_plans), ("imdb", imdb, imdb_plans)];

    let header = "# golden: stats_like(60, 7) seed 0xE8EC0001, imdb_like(40, 7) seed 0xE8EC0002; \
                  14 random queries each under every join algorithm, plus one bushy plan and one \
                  cross product; unbudgeted and at 0.3 / 0.6 / 0.9 of the unbudgeted work\n\
                  # catalog query tables plan budget call: count work intermediates [digest] | err\n";
    let serial = format!("{header}{}", render(&catalogs, ExecMode::Serial, 32_768));
    check_golden("exec_plans.txt", &serial);
    // Every other mode reports the same text, line for line.
    for (mode, morsel_rows) in [
        (ExecMode::Batched { batch_size: 7 }, 32_768),
        (ExecMode::Batched { batch_size: 1024 }, 32_768),
        (ExecMode::Parallel { threads: 2 }, 7),
        (ExecMode::Parallel { threads: 3 }, 32_768),
    ] {
        let got = format!("{header}{}", render(&catalogs, mode, morsel_rows));
        if let Some((k, (want, have))) = serial
            .lines()
            .zip(got.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
        {
            panic!("{mode} morsel_rows={morsel_rows} diverges at line {}:\n  serial {want}\n  {mode} {have}", k + 1);
        }
        assert_eq!(serial.lines().count(), got.lines().count(), "{mode}");
    }
}
