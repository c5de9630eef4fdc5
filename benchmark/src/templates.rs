//! Query templates: random connected FK joins with data-derived
//! predicates, kept only when the native plan's work lands in a stated
//! band, each with its expected `COUNT(*)` from [`TrueCardOracle`].

use std::collections::HashSet;
use std::sync::Arc;

use lqo_engine::optimizer::CardSource;
use lqo_engine::{
    Catalog, CmpOp, ColRef, DataType, EngineError, ExecConfig, ExecMode, Executor, JoinCond,
    Optimizer, PhysNode, Predicate, SpjQuery, TableRef, TrueCardOracle,
};

use crate::rng::Rng;

/// What a workload asks of its templates.
#[derive(Debug, Clone)]
pub struct Shape {
    pub min_tables: usize,
    pub max_tables: usize,
    pub min_preds: usize,
    pub max_preds: usize,
    /// Loose predicates keep about four fifths of a table; tight ones
    /// compare against one sampled value.
    pub loose: bool,
    /// Accepted work of the native plan, in executor work units. The band
    /// bounds per-query time and keeps exploding joins (Zipf fan-outs
    /// multiply) out of the pool.
    pub min_work: f64,
    pub max_work: f64,
    /// Candidates whose native *estimated* cost exceeds this are skipped
    /// unexecuted. The estimate runs far below true work on skewed joins,
    /// so this only spares set-up the cost of executing hopeless
    /// candidates up to `max_work`.
    pub max_est_cost: f64,
}

#[derive(Debug, Clone)]
pub struct Template {
    pub query: SpjQuery,
    /// Plan of the native optimizer over native cardinalities.
    pub native_plan: PhysNode,
    /// Work units of `native_plan` (bit-exact per seed).
    pub native_work: f64,
    /// `COUNT(*)` by the oracle's own plan, independent of any plan or
    /// mode the timed run uses.
    pub expected: u64,
}

fn grow_tables(catalog: &Catalog, rng: &mut Rng, target: usize) -> (Vec<String>, Vec<JoinCond>) {
    let fks = catalog.foreign_keys();
    let tables = catalog.tables();
    if target == 1 {
        return (
            vec![tables[rng.below(tables.len())].name().to_string()],
            Vec::new(),
        );
    }
    let start = &fks[rng.below(fks.len())];
    let mut picked = vec![start.table.clone()];
    let mut joins = Vec::new();
    while picked.len() < target {
        // Edges with exactly one endpoint inside: each table joins once, so
        // the graph stays a tree and aliases are never needed.
        let frontier: Vec<_> = fks
            .iter()
            .filter(|fk| picked.contains(&fk.table) != picked.contains(&fk.ref_table))
            .collect();
        if frontier.is_empty() {
            break;
        }
        let fk = frontier[rng.below(frontier.len())];
        joins.push(JoinCond::new(
            ColRef::new(fk.table.clone(), fk.column.clone()),
            ColRef::new(fk.ref_table.clone(), fk.ref_column.clone()),
        ));
        let new = if picked.contains(&fk.table) {
            &fk.ref_table
        } else {
            &fk.table
        };
        picked.push(new.clone());
    }
    (picked, joins)
}

fn predicate(catalog: &Catalog, rng: &mut Rng, table: &str, loose: bool) -> Option<Predicate> {
    let t = catalog.table(table).ok()?;
    if t.nrows() == 0 {
        return None;
    }
    let ci = rng.below(t.schema.arity());
    let def = &t.schema.columns[ci];
    // Float literals do not survive the SQL round trip of the pilot
    // workload digit for digit, so predicates stay on Int and Text.
    if t.schema.primary_key == Some(ci) || def.dtype == DataType::Float {
        return None;
    }
    let col = ColRef::new(table.to_string(), def.name.clone());
    let sample = |rng: &mut Rng| t.column(ci).value(rng.below(t.nrows()));
    if def.dtype == DataType::Text {
        return Some(Predicate::new(col, CmpOp::Eq, sample(rng)));
    }
    let ints = t.column(ci).as_int()?;
    if loose {
        // The minimum of four sampled values under `>=` (or the maximum
        // under `<=`) keeps 4/5 of the rows on average.
        let picks: Vec<i64> = (0..4).map(|_| ints[rng.below(ints.len())]).collect();
        let (op, v) = if rng.below(2) == 0 {
            (CmpOp::Ge, *picks.iter().min()?)
        } else {
            (CmpOp::Le, *picks.iter().max()?)
        };
        return Some(Predicate::new(col, op, lqo_engine::Value::Int(v)));
    }
    let op = [CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge][rng.below(5)];
    Some(Predicate::new(col, op, sample(rng)))
}

fn candidate(catalog: &Catalog, rng: &mut Rng, shape: &Shape) -> Option<SpjQuery> {
    let target = rng.between(shape.min_tables, shape.max_tables);
    let (tables, joins) = grow_tables(catalog, rng, target);
    if tables.len() < shape.min_tables {
        return None;
    }
    let want = rng.between(shape.min_preds, shape.max_preds);
    let mut predicates: Vec<Predicate> = Vec::new();
    for _ in 0..want * 8 {
        if predicates.len() == want {
            break;
        }
        let table = &tables[rng.below(tables.len())];
        if let Some(p) = predicate(catalog, rng, table, shape.loose) {
            if !predicates.iter().any(|q| q.col == p.col) {
                predicates.push(p);
            }
        }
    }
    if predicates.len() < shape.min_preds {
        return None;
    }
    let query = SpjQuery::new(
        tables.into_iter().map(TableRef::bare).collect(),
        joins,
        predicates,
    );
    query.validate(catalog).ok()?;
    Some(query)
}

/// Generate `n` distinct templates of `shape`. Panics when the shape
/// cannot be met: a benchmark that quietly ran fewer templates than
/// pinned would compare unlike runs.
pub fn generate(
    catalog: &Arc<Catalog>,
    native_card: &dyn CardSource,
    oracle: &TrueCardOracle,
    rng: &mut Rng,
    shape: &Shape,
    n: usize,
) -> Vec<Template> {
    let optimizer = Optimizer::with_defaults(catalog);
    let executor = Executor::new(
        catalog,
        ExecConfig {
            max_work: Some(shape.max_work),
            mode: ExecMode::Batched {
                batch_size: lqo_engine::exec::batch::DEFAULT_BATCH_SIZE,
            },
            ..ExecConfig::default()
        },
    );
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(n);
    let mut attempts = 0usize;
    while out.len() < n {
        attempts += 1;
        assert!(
            attempts <= n * 400,
            "only {} of {n} templates fit {shape:?}",
            out.len()
        );
        let Some(query) = candidate(catalog, rng, shape) else {
            continue;
        };
        if !seen.insert(query.canonical_key(query.all_tables())) {
            continue;
        }
        let choice = optimizer
            .optimize_default(&query, native_card)
            .expect("native optimizer plans a connected FK join");
        if choice.cost > shape.max_est_cost {
            continue;
        }
        let result = match executor.execute(&query, &choice.plan) {
            Ok(r) => r,
            Err(EngineError::WorkLimitExceeded { .. }) => continue,
            Err(e) => panic!("template execution failed: {e}"),
        };
        if result.work < shape.min_work || result.count == 0 {
            continue;
        }
        let expected = oracle
            .true_card_full(&query)
            .expect("oracle executes a validated query");
        assert_eq!(
            expected, result.count,
            "native plan and oracle disagree on {query}"
        );
        out.push(Template {
            query,
            native_plan: choice.plan,
            native_work: result.work,
            expected,
        });
    }
    out
}
