//! The differential harness: serial vs parallel vs batched, everything
//! compared.

use lqo_engine::exec::relation::Relation;
use lqo_engine::{
    Catalog, EngineError, ExecConfig, ExecMode, ExecResult, Executor, ParallelConfig, PhysNode,
    SpjQuery,
};

/// What to sweep when differencing one (query, plan) pair.
#[derive(Debug, Clone)]
pub struct DiffConfig {
    /// Worker-pool sizes to compare against serial. 1 exercises the
    /// serial-dispatch shortcut; the rest the real pool.
    pub thread_counts: Vec<usize>,
    /// Morsel sizes to sweep (each combined with each thread count). A
    /// deliberately tiny size maximizes scheduling nondeterminism — the
    /// hardest case for byte identity.
    pub morsel_rows: Vec<usize>,
    /// Columnar batch sizes to sweep. Each runs as an
    /// `ExecMode::Batched` cell, and each `(threads, batch)` combination
    /// as an `ExecMode::BatchedParallel` cell (morsel sizes cycled across
    /// those cells to keep the sweep bounded). Empty disables the batched
    /// legs.
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
    /// The serial reference result.
    pub serial: ExecResult,
    /// Order-sensitive digest of the serial output relation.
    pub digest: u64,
    /// Number of non-serial cells compared (parallel, batched, and
    /// batched-parallel).
    pub cells: usize,
}

fn result_fingerprint(r: &ExecResult) -> (u64, u64, Vec<(lqo_engine::TableSet, u64)>) {
    (r.count, r.work.to_bits(), r.intermediates.clone())
}

/// The non-serial cells a [`DiffConfig`] expands to: every
/// `(threads, morsel_rows)` parallel cell, every `batch` batched cell,
/// and every `(threads, batch)` batched-parallel cell (with morsel sizes
/// cycled across those so all three knobs vary without a full cubic
/// product).
fn sweep_cells(cfg: &DiffConfig) -> Vec<(String, ExecConfig)> {
    let mut cells = Vec::new();
    let base = ExecConfig {
        max_work: cfg.max_work,
        ..Default::default()
    };
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
    if !cfg.morsel_rows.is_empty() {
        for (ti, &threads) in cfg.thread_counts.iter().enumerate() {
            for (bi, &batch_size) in cfg.batch_sizes.iter().enumerate() {
                let morsel_rows = cfg.morsel_rows[(ti + bi) % cfg.morsel_rows.len()];
                cells.push((
                    format!(
                        "batched-parallel threads={threads} morsel_rows={morsel_rows} \
                         batch={batch_size}"
                    ),
                    ExecConfig {
                        mode: ExecMode::BatchedParallel {
                            threads,
                            batch_size,
                        },
                        parallel: ParallelConfig {
                            morsel_rows,
                            ..Default::default()
                        },
                        ..base.clone()
                    },
                ));
            }
        }
    }
    cells
}

/// Execute `plan` serially and under every parallel, batched, and
/// batched-parallel cell of `cfg`, requiring byte-identical output
/// everywhere: equal counts, bit-identical work, equal intermediates,
/// identical output relations (slots and row order), and — when the
/// serial run errors (e.g. a work budget trip) — the *same* error from
/// every cell. In every cell, serial included, the counting
/// [`Executor::execute`] must also report exactly what that cell's
/// [`Executor::execute_collect`] does: count, work bits, intermediates,
/// or the same error.
///
/// Returns a human-readable description of the first divergence, so
/// property tests can surface the failing cell.
pub fn diff_plan(
    catalog: &Catalog,
    query: &SpjQuery,
    plan: &PhysNode,
    cfg: &DiffConfig,
) -> Result<DiffOutcome, String> {
    let serial_exec = Executor::new(
        catalog,
        ExecConfig {
            max_work: cfg.max_work,
            ..Default::default()
        },
    );
    let serial = serial_exec.execute_collect(query, plan);
    check_counting(&serial_exec, &serial, "serial", query, plan)?;
    let mut cells = 0;
    for (cell, config) in sweep_cells(cfg) {
        cells += 1;
        let exec = Executor::new(catalog, config);
        let candidate = exec.execute_collect(query, plan);
        check_counting(&exec, &candidate, &cell, query, plan)?;
        match (&serial, &candidate) {
            (Ok((sr, srel)), Ok((pr, prel))) => {
                compare(sr, srel, pr, prel, &cell, query)?;
            }
            (Err(se), Err(pe)) => {
                if !same_error(se, pe) {
                    return Err(format!(
                        "error divergence at {cell} for `{query}`: serial {se}, candidate {pe}"
                    ));
                }
            }
            (Ok(_), Err(pe)) => {
                return Err(format!(
                    "candidate failed at {cell} for `{query}` where serial succeeded: {pe}"
                ));
            }
            (Err(se), Ok(_)) => {
                return Err(format!(
                    "candidate succeeded at {cell} for `{query}` where serial failed: {se}"
                ));
            }
        }
    }
    match serial {
        Ok((result, rel)) => Ok(DiffOutcome {
            digest: rel.digest(),
            serial: result,
            cells,
        }),
        Err(e) => Err(format!("serial execution failed for `{query}`: {e}")),
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
             serial (count={}, work={:x?}, {} intermediates) vs \
             parallel (count={}, work={:x?}, {} intermediates)",
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
/// parallel cells compared in total.
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
        // 3x2 parallel + 2 batched + 3x2 batched-parallel.
        assert_eq!(out.cells, 14);
        assert!(out.serial.work > 0.0);
    }

    #[test]
    fn diff_detects_budget_agreement() {
        let catalog = stats_like(60, 7).unwrap();
        let q = parse_query("SELECT COUNT(*) FROM users u, posts p WHERE u.id = p.owner_user_id")
            .unwrap();
        let plan = PhysNode::join(JoinAlgo::Hash, PhysNode::scan(0), PhysNode::scan(1));
        // Tiny budget: both modes must fail with the same error.
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
        assert!(err.contains("serial execution failed"), "{err}");
    }

    #[test]
    fn thread_counts_default() {
        // Not set in the test environment unless the CI job sets it; both
        // shapes are acceptable, but the list must never be empty.
        assert!(!thread_counts_from_env().is_empty());
    }
}
