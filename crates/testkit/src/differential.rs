//! The differential harness: the reference evaluator vs every execution
//! mode — serial, parallel and batched — everything compared.

use lqo_engine::exec::relation::Relation;
use lqo_engine::exec::{keep_for_child, reference};
use lqo_engine::{
    Catalog, EngineError, ExecConfig, ExecMode, ExecResult, Executor, ParallelConfig, PhysNode,
    SpjQuery, TableSet, WorkMeter,
};

/// What to sweep when differencing one (query, plan) pair.
#[derive(Debug, Clone)]
pub struct DiffConfig {
    /// Worker-pool sizes to compare against the reference. 1 exercises
    /// the in-thread shortcut; the rest the real pool.
    pub thread_counts: Vec<usize>,
    /// Morsel sizes to sweep (each combined with each thread count). A
    /// deliberately tiny size maximizes scheduling nondeterminism — the
    /// hardest case for byte identity.
    pub morsel_rows: Vec<usize>,
    /// Columnar batch sizes to sweep, each as an `ExecMode::Batched`
    /// cell. Empty disables the batched leg. (The serial cell and the
    /// parallel cells run at the default batch size.)
    pub batch_sizes: Vec<usize>,
    /// Work budget applied identically to every mode (`None` = unlimited).
    pub max_work: Option<f64>,
}

impl Default for DiffConfig {
    fn default() -> DiffConfig {
        DiffConfig {
            thread_counts: thread_counts_from_env(),
            morsel_rows: vec![7, 1024, 32_768],
            batch_sizes: batch_sizes_from_env(),
            max_work: None,
        }
    }
}

/// Thread counts from `LQO_TEST_THREADS` (comma-separated, e.g. `"2,8"`),
/// defaulting to `[1, 2, 4, 8]`. The harness is about *correctness under
/// schedule permutation*, not speed, so counts beyond the machine's core
/// count are valid and useful — they still permute morsel schedules.
pub fn thread_counts_from_env() -> Vec<usize> {
    match std::env::var("LQO_TEST_THREADS") {
        Ok(s) => {
            let parsed: Vec<usize> = s
                .split(',')
                .filter_map(|t| t.trim().parse().ok())
                .filter(|&t| t > 0)
                .collect();
            if parsed.is_empty() {
                vec![1, 2, 4, 8]
            } else {
                parsed
            }
        }
        Err(_) => vec![1, 2, 4, 8],
    }
}

/// Batch sizes from `LQO_TEST_BATCH_SIZES` (comma-separated, e.g.
/// `"1,64"`), defaulting to `[1, 7, 64, 1024]`: the degenerate
/// one-row batch, a size that never divides morsel or table sizes
/// (maximizing partial-batch boundaries), a small power of two, and the
/// production default.
pub fn batch_sizes_from_env() -> Vec<usize> {
    match std::env::var("LQO_TEST_BATCH_SIZES") {
        Ok(s) => {
            let parsed: Vec<usize> = s
                .split(',')
                .filter_map(|t| t.trim().parse().ok())
                .filter(|&b| b > 0)
                .collect();
            if parsed.is_empty() {
                vec![1, 7, 64, 1024]
            } else {
                parsed
            }
        }
        Err(_) => vec![1, 7, 64, 1024],
    }
}

/// Outcome of one differential check.
#[derive(Debug, Clone)]
pub struct DiffOutcome {
    /// The reference evaluator's result.
    pub reference: ExecResult,
    /// Order-sensitive digest of the reference output relation.
    pub digest: u64,
    /// Number of execution-mode cells compared (serial, parallel and
    /// batched).
    pub cells: usize,
}

fn result_fingerprint(r: &ExecResult) -> (u64, u64, Vec<(lqo_engine::TableSet, u64)>) {
    (r.count, r.work.to_bits(), r.intermediates.clone())
}

/// The cells a [`DiffConfig`] expands to: the serial cell, every
/// `(threads, morsel_rows)` parallel cell and every `batch` batched cell.
fn sweep_cells(cfg: &DiffConfig) -> Vec<(String, ExecConfig)> {
    let base = ExecConfig {
        max_work: cfg.max_work,
        ..Default::default()
    };
    let mut cells = vec![("serial".to_string(), base.clone())];
    for &threads in &cfg.thread_counts {
        for &morsel_rows in &cfg.morsel_rows {
            cells.push((
                format!("parallel threads={threads} morsel_rows={morsel_rows}"),
                ExecConfig {
                    mode: ExecMode::Parallel { threads },
                    parallel: ParallelConfig {
                        morsel_rows,
                        ..Default::default()
                    },
                    ..base.clone()
                },
            ));
        }
    }
    for &batch_size in &cfg.batch_sizes {
        cells.push((
            format!("batched batch={batch_size}"),
            ExecConfig {
                mode: ExecMode::Batched { batch_size },
                ..base.clone()
            },
        ));
    }
    cells
}

/// Evaluate `plan` with the reference evaluator
/// ([`lqo_engine::exec::reference`]) and execute it under the serial cell
/// and every parallel and batched cell of `cfg`, requiring byte-identical
/// output everywhere: equal counts, bit-identical work, equal
/// intermediates, identical output relations (slots and row order), and
/// — when the reference errors (e.g. a work budget trip) — the *same*
/// error from every cell. In every cell the counting
/// [`Executor::execute`] must also report exactly what that cell's
/// [`Executor::execute_collect`] does: count, work bits, intermediates,
/// or the same error; and so must the plan run one operator at a time
/// through the pruning step seam, as the serving layer runs it (count
/// and work bits, or the same error). Every pruned intermediate of that
/// stepped run — its slots, stored rows and weights — must be
/// byte-identical in every cell: the row-ordering contract of weighted
/// relations.
///
/// Returns a human-readable description of the first divergence, so
/// property tests can surface the failing cell.
pub fn diff_plan(
    catalog: &Catalog,
    query: &SpjQuery,
    plan: &PhysNode,
    cfg: &DiffConfig,
) -> Result<DiffOutcome, String> {
    let reference_exec = Executor::new(
        catalog,
        ExecConfig {
            max_work: cfg.max_work,
            ..Default::default()
        },
    );
    let want = reference::execute(&reference_exec, query, plan);
    let mut cells = 0;
    let mut pruned = None;
    for (cell, config) in sweep_cells(cfg) {
        cells += 1;
        let exec = Executor::new(catalog, config);
        let candidate = exec.execute_collect(query, plan);
        check_counting(&exec, &candidate, &cell, query, plan)?;
        let stepped = check_stepped(&exec, cfg.max_work, &candidate, &cell, query, plan)?;
        match &pruned {
            None => pruned = Some(stepped),
            Some(first) if *first == stepped => {}
            Some(first) => {
                let k = first.iter().zip(&stepped).position(|(a, b)| a != b);
                return Err(format!(
                    "pruned-intermediate divergence at {cell} for `{query}`: step {k:?} of {} \
                     vs {} (tables, slots, count, digest) {:?} vs {:?}",
                    first.len(),
                    stepped.len(),
                    k.map(|k| &first[k]),
                    k.map(|k| &stepped[k]),
                ));
            }
        }
        match (&want, &candidate) {
            (Ok((sr, srel)), Ok((pr, prel))) => {
                compare(sr, srel, pr, prel, &cell, query)?;
            }
            (Err(se), Err(pe)) => {
                if !same_error(se, pe) {
                    return Err(format!(
                        "error divergence at {cell} for `{query}`: reference {se}, candidate {pe}"
                    ));
                }
            }
            (Ok(_), Err(pe)) => {
                return Err(format!(
                    "candidate failed at {cell} for `{query}` where the reference succeeded: {pe}"
                ));
            }
            (Err(se), Ok(_)) => {
                return Err(format!(
                    "candidate succeeded at {cell} for `{query}` where the reference failed: {se}"
                ));
            }
        }
    }
    match want {
        Ok((result, rel)) => Ok(DiffOutcome {
            digest: rel.digest(),
            reference: result,
            cells,
        }),
        Err(e) => Err(format!("reference execution failed for `{query}`: {e}")),
    }
}

/// Require `exec.execute` to report what `collected` (the same executor's
/// `execute_collect`) did.
fn check_counting(
    exec: &Executor<'_>,
    collected: &Result<(ExecResult, Relation), EngineError>,
    cell: &str,
    query: &SpjQuery,
    plan: &PhysNode,
) -> Result<(), String> {
    match (collected, exec.execute(query, plan)) {
        (Ok((cr, _)), Ok(er)) if result_fingerprint(cr) == result_fingerprint(&er) => Ok(()),
        (Err(ce), Err(ee)) if same_error(ce, &ee) => Ok(()),
        (collected, counted) => Err(format!(
            "counting divergence at {cell} for `{query}`: execute_collect {:?} vs execute {:?}",
            collected.as_ref().map(|(r, _)| result_fingerprint(r)),
            counted.as_ref().map(result_fingerprint),
        )),
    }
}

/// One pruned intermediate of a stepped run: its tables, stored slots,
/// logical count and digest (rows and weights).
type StepTrace = (TableSet, Vec<usize>, usize, u64);

/// Run `plan` in serial post-order through
/// [`Executor::exec_scan_step_keeping`] / [`Executor::exec_join_step_keeping`],
/// each step keeping what [`Executor::execute`] keeps there (the root
/// nothing), and return the count, the work and every step's output.
fn execute_stepped(
    exec: &Executor<'_>,
    query: &SpjQuery,
    plan: &PhysNode,
    max_work: Option<f64>,
) -> Result<(u64, f64, Vec<StepTrace>), EngineError> {
    fn step(
        exec: &Executor<'_>,
        query: &SpjQuery,
        node: &PhysNode,
        keep: TableSet,
        meter: &mut WorkMeter,
        trace: &mut Vec<StepTrace>,
    ) -> Result<Relation, EngineError> {
        let rel = match node {
            PhysNode::Scan { pos } => exec.exec_scan_step_keeping(query, *pos, keep, meter)?,
            PhysNode::Join { algo, left, right } => {
                let lkeep = keep_for_child(query, left.tables(), keep);
                let l = step(exec, query, left, lkeep, meter, trace)?;
                let rkeep = keep_for_child(query, right.tables(), keep);
                let r = step(exec, query, right, rkeep, meter, trace)?;
                exec.exec_join_step_keeping(query, *algo, l, r, keep, meter)?
            }
        };
        trace.push((rel.tables(), rel.slots().to_vec(), rel.len(), rel.digest()));
        Ok(rel)
    }
    let mut meter = WorkMeter::new(max_work);
    let mut trace = Vec::new();
    let rel = step(exec, query, plan, TableSet::EMPTY, &mut meter, &mut trace)?;
    Ok((rel.len() as u64, meter.work(), trace))
}

/// Require the pruned step-wise run of `plan` to report the count and
/// work bits of `collected` (the same executor's `execute_collect`), or
/// the same error; returns its pruned intermediates (none on an error).
fn check_stepped(
    exec: &Executor<'_>,
    max_work: Option<f64>,
    collected: &Result<(ExecResult, Relation), EngineError>,
    cell: &str,
    query: &SpjQuery,
    plan: &PhysNode,
) -> Result<Vec<StepTrace>, String> {
    let fingerprint = |count: u64, work: f64| (count, work.to_bits());
    match (collected, execute_stepped(exec, query, plan, max_work)) {
        (Ok((cr, _)), Ok((count, work, trace)))
            if fingerprint(cr.count, cr.work) == fingerprint(count, work) =>
        {
            Ok(trace)
        }
        (Err(ce), Err(se)) if same_error(ce, &se) => Ok(Vec::new()),
        (collected, stepped) => Err(format!(
            "step-seam divergence at {cell} for `{query}`: \
             execute_collect {:?} vs stepped {:?}",
            collected
                .as_ref()
                .map(|(r, _)| fingerprint(r.count, r.work)),
            stepped.as_ref().map(|&(c, w, _)| fingerprint(c, w)),
        )),
    }
}

fn same_error(a: &EngineError, b: &EngineError) -> bool {
    // Budget trips must agree exactly; other errors are plan-validation
    // failures that do not depend on the mode.
    a == b
}

fn compare(
    sr: &ExecResult,
    srel: &Relation,
    pr: &ExecResult,
    prel: &Relation,
    cell: &str,
    query: &SpjQuery,
) -> Result<(), String> {
    if result_fingerprint(sr) != result_fingerprint(pr) {
        return Err(format!(
            "result divergence at {cell} for `{query}`: \
             reference (count={}, work={:x?}, {} intermediates) vs \
             candidate (count={}, work={:x?}, {} intermediates)",
            sr.count,
            sr.work.to_bits(),
            sr.intermediates.len(),
            pr.count,
            pr.work.to_bits(),
            pr.intermediates.len(),
        ));
    }
    if srel.slots() != prel.slots() {
        return Err(format!(
            "slot-layout divergence at {cell} for `{query}`: {:?} vs {:?}",
            srel.slots(),
            prel.slots()
        ));
    }
    if srel.weights() != prel.weights() {
        return Err(format!(
            "weight divergence at {cell} for `{query}`: {} vs {} stored weights",
            srel.weights().len(),
            prel.weights().len()
        ));
    }
    if srel.rows() != prel.rows() {
        let first = srel
            .rows()
            .iter()
            .zip(prel.rows())
            .position(|(a, b)| a != b)
            .map(|i| i.to_string())
            .unwrap_or_else(|| format!("length {} vs {}", srel.rows().len(), prel.rows().len()));
        return Err(format!(
            "row divergence at {cell} for `{query}`: first difference at flat index {first}"
        ));
    }
    Ok(())
}

/// Run [`diff_plan`] for every `(query, plan)` pair, panicking on the
/// first divergence with the offending query. Returns the number of
/// cells compared in total.
pub fn diff_workload(catalog: &Catalog, pairs: &[(SpjQuery, PhysNode)], cfg: &DiffConfig) -> usize {
    let mut cells = 0;
    for (query, plan) in pairs {
        match diff_plan(catalog, query, plan, cfg) {
            Ok(outcome) => cells += outcome.cells,
            Err(msg) => panic!("differential harness: {msg}"),
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use lqo_engine::datagen::stats_like;
    use lqo_engine::query::parse_query;
    use lqo_engine::JoinAlgo;

    #[test]
    fn diff_accepts_equivalent_modes() {
        let catalog = stats_like(60, 7).unwrap();
        let q = parse_query(
            "SELECT COUNT(*) FROM users u, posts p \
             WHERE u.id = p.owner_user_id AND u.reputation > 20",
        )
        .unwrap();
        let plan = PhysNode::join(JoinAlgo::Hash, PhysNode::scan(0), PhysNode::scan(1));
        let out = diff_plan(
            &catalog,
            &q,
            &plan,
            &DiffConfig {
                thread_counts: vec![1, 2, 3],
                morsel_rows: vec![5, 64],
                batch_sizes: vec![1, 16],
                max_work: None,
            },
        )
        .unwrap();
        // Serial + 3x2 parallel + 2 batched.
        assert_eq!(out.cells, 9);
        assert!(out.reference.work > 0.0);
    }

    #[test]
    fn diff_detects_budget_agreement() {
        let catalog = stats_like(60, 7).unwrap();
        let q = parse_query("SELECT COUNT(*) FROM users u, posts p WHERE u.id = p.owner_user_id")
            .unwrap();
        let plan = PhysNode::join(JoinAlgo::Hash, PhysNode::scan(0), PhysNode::scan(1));
        // Tiny budget: the reference and every mode must fail with the
        // same error.
        let err = diff_plan(
            &catalog,
            &q,
            &plan,
            &DiffConfig {
                thread_counts: vec![2],
                morsel_rows: vec![8],
                batch_sizes: vec![4],
                max_work: Some(3.0),
            },
        )
        .unwrap_err();
        assert!(err.contains("reference execution failed"), "{err}");
    }

    #[test]
    fn thread_counts_default() {
        // Not set in the test environment unless the CI job sets it; both
        // shapes are acceptable, but the list must never be empty.
        assert!(!thread_counts_from_env().is_empty());
    }
}
