//! Plain-text table rendering and JSON result dumping for the experiment
//! binaries.

use std::path::Path;

use serde::Serialize;

/// A padded monospace table.
#[derive(Debug, Clone, Serialize)]
pub struct TextTable {
    /// Table title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Start a table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> TextTable {
        TextTable {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render with padded columns.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let sep: String = widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("+");
        let fmt_row = |cells: &[String]| -> String {
            (0..ncols)
                .map(|i| format!(" {:<width$} ", cells[i], width = widths[i]))
                .collect::<Vec<_>>()
                .join("|")
        };
        let mut out = format!("== {} ==\n", self.title);
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Write any serializable result as JSON next to the experiment output
/// (`results/<name>.json`); creates the directory if needed. The write is
/// crash-safe (temp file + atomic rename, via
/// [`lqo_obs::export::atomic_write`]) so a killed run never leaves a
/// truncated artifact. Errors are reported but non-fatal — the printed
/// table is the primary artifact.
pub fn dump_json<T: Serialize>(name: &str, value: &T) {
    let path = Path::new("results").join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if let Err(e) = lqo_obs::export::atomic_write(&path, &json) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            }
        }
        Err(e) => eprintln!("warning: cannot serialize {name}: {e}"),
    }
}

/// Render records as JSONL (`results/<name>.jsonl`), one compact object
/// per line, framed like the telemetry exports
/// ([`lqo_obs::export::write_jsonl_with`]).
pub fn to_jsonl<T: Serialize>(records: &[T]) -> String {
    lqo_obs::export::write_jsonl_with(records, |r| {
        serde_json::to_value(r).expect("serialize record")
    })
}

/// Write a raw text artifact (e.g. a JSONL trace dump or a rendered
/// metrics table) to `results/<name>`; creates the directory if needed.
/// Crash-safe and non-fatal on error, like [`dump_json`].
pub fn dump_text(name: &str, contents: &str) {
    let path = Path::new("results").join(name);
    if let Err(e) = lqo_obs::export::atomic_write(&path, contents) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

/// Render an observability context as a report section: the metrics
/// snapshot table, then an EXPLAIN ANALYZE-style rendering of the last
/// finished query trace as a worked example. Empty when disabled.
pub fn obs_report(obs: &lqo_obs::ObsContext) -> String {
    let mut out = String::new();
    if let Some(metrics) = obs.metrics() {
        out.push_str("== observability: metrics ==\n");
        out.push_str(&lqo_obs::render::render_metrics(&metrics.snapshot()));
    }
    if let Some(trace) = obs.finished_traces().last() {
        out.push_str("== observability: last query trace ==\n");
        out.push_str(&lqo_obs::render::render_trace(trace));
    }
    out
}

/// Experiment scale taken from the `LQO_SCALE` environment variable
/// (`small`, `default`, `large`), controlling data size and query counts
/// so the same binaries serve smoke tests and full runs.
pub fn scale_factor() -> f64 {
    match std::env::var("LQO_SCALE").as_deref() {
        Ok("small") => 0.3,
        Ok("large") => 3.0,
        _ => 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_pads_columns() {
        let mut t = TextTable::new("demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("long-name"));
        // All data lines have equal width.
        let lines: Vec<&str> = s.lines().skip(1).collect();
        let w = lines[0].len();
        assert!(lines.iter().all(|l| l.len() == w));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_mismatch_panics() {
        let mut t = TextTable::new("x", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }
}
