//! **E5 — performance-regression elimination** (Eraser, \[62\] in the
//! paper): a learned optimizer is trained on one workload and evaluated
//! on a *shifted* workload (unseen shapes), raw vs wrapped in Eraser vs
//! the variance-filtered HyperQO. Reported: retained speedup, tail
//! regression, regression count — the trade-off Eraser targets.

use std::sync::Arc;

use learned_qo::framework::{LearnedOptimizer, OptContext};
use learned_qo::harness::TrainingLoop;
use learned_qo::{bao, hyper_qo, GuardedOptimizer};
use lqo_engine::datagen::imdb_like;
use lqo_obs::ObsContext;

use crate::report::TextTable;
use crate::workload::{generate_workload, WorkloadConfig};

/// E5 configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// `imdb_like` scale.
    pub scale: usize,
    /// Training workload size.
    pub train_queries: usize,
    /// Shifted evaluation workload size.
    pub eval_queries: usize,
    /// Training epochs before the shift.
    pub epochs: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Config {
        let f = crate::report::scale_factor();
        Config {
            scale: (200.0 * f) as usize,
            train_queries: (24.0 * f) as usize,
            eval_queries: (20.0 * f) as usize,
            epochs: 3,
            seed: 0xE5,
        }
    }
}

/// Train on the training loop, then evaluate one epoch (no learning) on
/// the shifted loop.
fn train_then_evaluate(
    opt: &mut dyn LearnedOptimizer,
    train: &TrainingLoop,
    eval: &TrainingLoop,
    epochs: usize,
) -> learned_qo::harness::EpochStats {
    for _ in 0..epochs {
        train.run_epoch(opt, true);
    }
    eval.run_epoch(opt, false)
}

/// Run E5 and return just the table.
pub fn run(cfg: &Config) -> TextTable {
    run_traced(cfg).0
}

/// Run E5: returns the table plus the observability context the training
/// and evaluation loops traced into (all systems share it).
pub fn run_traced(cfg: &Config) -> (TextTable, ObsContext) {
    let obs = ObsContext::enabled();
    let catalog = Arc::new(imdb_like(cfg.scale.max(40), cfg.seed).unwrap());
    let ctx = OptContext::new(catalog.clone()).with_telemetry(obs.clone());
    let train_w = generate_workload(
        &catalog,
        &WorkloadConfig {
            num_queries: cfg.train_queries.max(4),
            min_tables: 2,
            max_tables: 4,
            seed: cfg.seed ^ 0x60,
            ..Default::default()
        },
    );
    // Shifted workload: different seed, wider joins, more predicates.
    let eval_w = generate_workload(
        &catalog,
        &WorkloadConfig {
            num_queries: cfg.eval_queries.max(4),
            min_tables: 3,
            max_tables: 6,
            max_predicates: 4,
            seed: cfg.seed ^ 0x61,
        },
    );
    let train = TrainingLoop::new(ctx.clone(), train_w)
        .unwrap()
        .with_telemetry(obs.clone());
    let eval = TrainingLoop::new(ctx.clone(), eval_w)
        .unwrap()
        .with_telemetry(obs.clone());
    let native_total = eval.native_total();

    let mut table = TextTable::new(
        "E5: regression elimination under workload shift",
        &[
            "System",
            "shifted total vs native",
            "regressions",
            "max slowdown",
            "timeouts",
        ],
    );
    let mut systems: Vec<Box<dyn LearnedOptimizer>> = vec![
        Box::new(bao(ctx.clone())),
        Box::new(GuardedOptimizer::new(bao(ctx.clone()))),
        Box::new(GuardedOptimizer::with_stages(bao(ctx.clone()), true, false)),
        Box::new(GuardedOptimizer::with_stages(bao(ctx.clone()), false, true)),
        Box::new(hyper_qo(ctx.clone())),
    ];
    let labels = [
        "Bao (raw)",
        "Bao + Eraser (both stages)",
        "Bao + Eraser (coarse only)",
        "Bao + Eraser (cluster only)",
        "HyperQO (variance filter)",
    ];
    for (sys, label) in systems.iter_mut().zip(labels) {
        let stats = train_then_evaluate(sys.as_mut(), &train, &eval, cfg.epochs);
        table.row(vec![
            label.to_string(),
            format!("{:.2}x", stats.total_work / native_total),
            stats.regressions.to_string(),
            format!("{:.1}x", stats.max_regression),
            stats.timeouts.to_string(),
        ]);
    }
    (table, obs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_e5_guard_bounds_regressions() {
        let cfg = Config {
            scale: 60,
            train_queries: 6,
            eval_queries: 5,
            epochs: 2,
            ..Default::default()
        };
        let table = run(&cfg);
        assert_eq!(table.rows.len(), 5);
        let raw_max: f64 = table.rows[0][3].trim_end_matches('x').parse().unwrap();
        let guarded_max: f64 = table.rows[1][3].trim_end_matches('x').parse().unwrap();
        // The guard must not make the tail dramatically worse.
        assert!(
            guarded_max <= raw_max * 2.0 + 1.0,
            "raw {raw_max} guarded {guarded_max}"
        );
    }
}
