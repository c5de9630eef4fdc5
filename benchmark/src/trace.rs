//! Outside-in tracing: one span around each call the benchmark makes into
//! a layer. Spans stay in memory until the run ends; the per-layer
//! numbers are computed from all of them, and a sample of whole queries
//! is written under `benchmark/out/`.

use std::io::Write;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

/// No parent / no query.
pub const NONE: u32 = u32::MAX;

/// Span files stay at or under this size; whole queries are sampled
/// 1-in-N to fit.
pub const MAX_SPAN_FILE_BYTES: usize = 5 * 1024 * 1024;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `engine.exec.execute`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NONE`].
    pub parent: u32,
    /// Request number shared by the spans of one request, or [`NONE`].
    pub query: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct State {
    spans: Vec<Span>,
    /// Open spans of the calling thread's current request, innermost last.
    stack: Vec<u32>,
}

/// Span recorder. With `on == false` every call returns at once, so the
/// untraced run pays one predictable branch per call site.
pub struct Tracer {
    on: bool,
    t0: Instant,
    state: Mutex<State>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            state: Mutex::new(State {
                spans: Vec::new(),
                stack: Vec::new(),
            }),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since this tracer was made: the clock every span uses.
    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("tracer lock poisoned by a panic")
    }

    /// Open a span under the innermost open one.
    pub fn begin(&self, name: &'static str, query: u32) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        let mut st = self.state();
        let parent = st.stack.last().copied().unwrap_or(NONE);
        let id = st.spans.len() as u32;
        st.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            query,
        });
        st.stack.push(id);
    }

    /// Close the innermost open span.
    pub fn end(&self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let mut st = self.state();
        if let Some(id) = st.stack.pop() {
            st.spans[id as usize].end_ns = end_ns;
        }
    }

    /// Time `f` inside a span.
    pub fn span<T>(&self, name: &'static str, query: u32, f: impl FnOnce() -> T) -> T {
        self.begin(name, query);
        let out = f();
        self.end();
        out
    }

    /// Record a span whose times were taken elsewhere (another thread's
    /// work reconstructed from its reported duration). Returns its index.
    pub fn record(
        &self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        query: u32,
    ) -> u32 {
        if !self.on {
            return NONE;
        }
        let mut st = self.state();
        st.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            query,
        });
        st.spans.len() as u32 - 1
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut self.state().spans)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NONE {
            let p = &spans[s.parent as usize];
            let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if hi > lo {
                children[s.parent as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per-name totals over the spans that start at or after `from_ns`.
pub struct Rollup<'a> {
    spans: &'a [Span],
    selfs: Vec<u64>,
    from_ns: u64,
}

impl<'a> Rollup<'a> {
    pub fn new(spans: &'a [Span]) -> Rollup<'a> {
        Rollup::since(spans, 0)
    }

    /// Only spans from `from_ns` on: the timed requests without set-up.
    pub fn since(spans: &'a [Span], from_ns: u64) -> Rollup<'a> {
        Rollup {
            selfs: self_times(spans),
            spans,
            from_ns,
        }
    }

    fn matching(&self, prefix: &'a str) -> impl Iterator<Item = (&'a Span, u64)> + '_ {
        self.spans
            .iter()
            .zip(self.selfs.iter().copied())
            .filter(move |(s, _)| s.start_ns >= self.from_ns && s.name.starts_with(prefix))
    }

    /// Durations (ns) of the spans whose name starts with `prefix`.
    pub fn durations(&self, prefix: &'a str) -> Vec<f64> {
        self.matching(prefix)
            .map(|(s, _)| s.dur_ns() as f64)
            .collect()
    }

    #[cfg(test)]
    pub fn count(&self, prefix: &'a str) -> usize {
        self.matching(prefix).count()
    }

    /// Sum of self times (ns) of the spans whose name starts with `prefix`.
    pub fn self_ns(&self, prefix: &'a str) -> f64 {
        self.matching(prefix).map(|(_, own)| own as f64).sum()
    }

    /// Sum of durations (ns) of the spans whose name starts with `prefix`.
    pub fn total_ns(&self, prefix: &'a str) -> f64 {
        self.matching(prefix).map(|(s, _)| s.dur_ns() as f64).sum()
    }
}

/// `benchmark/out/`, the only place the benchmark writes.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn span_line(s: &Span, id: usize) -> String {
    let opt = |v: u32| {
        if v == NONE {
            "null".to_string()
        } else {
            v.to_string()
        }
    };
    format!(
        "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"query\":{}}}\n",
        s.name,
        s.start_ns,
        s.end_ns,
        opt(s.parent),
        opt(s.query)
    )
}

/// Which queries to keep so the file fits: every `stride`-th one.
pub fn sample_stride(spans: &[Span], max_bytes: usize) -> u32 {
    let bytes: usize = spans
        .iter()
        .enumerate()
        .map(|(i, s)| span_line(s, i).len())
        .sum();
    bytes.div_ceil(max_bytes).max(1) as u32
}

/// Write a sample of whole queries (spans outside any query are kept) to
/// `benchmark/out/<workload>.spans.jsonl`; returns the path and stride.
pub fn write_spans(workload: &str, spans: &[Span]) -> std::io::Result<(PathBuf, u32)> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{workload}.spans.jsonl"));
    let stride = sample_stride(spans, MAX_SPAN_FILE_BYTES);
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for (i, s) in spans.iter().enumerate() {
        if s.query == NONE || s.query % stride == 0 {
            out.write_all(span_line(s, i).as_bytes())?;
        }
    }
    out.flush()?;
    Ok((path, stride))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            query: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_child_coverage() {
        let spans = vec![
            span("query", 0, 100, NONE),
            span("engine.optimizer.optimize", 10, 60, 0),
            span("card.estimate.mscn", 20, 30, 1),
            // Overlaps the previous child: the overlap counts once.
            span("card.estimate.mscn", 25, 40, 1),
            span("engine.exec.execute", 60, 90, 0),
            // A grandchild never reduces the grandparent directly.
            span("engine.exec.scan_step", 65, 70, 4),
        ];
        assert_eq!(self_times(&spans), vec![20, 30, 10, 15, 25, 5]);
        let roll = Rollup::new(&spans);
        assert_eq!(roll.self_ns("card."), 25.0);
        assert_eq!(roll.total_ns("engine.optimizer."), 50.0);
        assert_eq!(roll.count("engine.exec."), 2);
        assert_eq!(Rollup::since(&spans, 61).count("engine.exec."), 1);
    }

    #[test]
    fn tracer_nests_by_call_order_and_is_inert_when_off() {
        let t = Tracer::new(true);
        t.begin("query", 7);
        t.span("engine.optimizer.optimize", 7, || {
            t.span("card.estimate.mscn", 7, || ())
        });
        t.end();
        let spans = t.take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, NONE);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 1);
        assert!(spans.iter().all(|s| s.query == 7 && s.end_ns >= s.start_ns));

        let off = Tracer::new(false);
        off.span("query", 0, || ());
        assert!(off.take().is_empty());
    }

    #[test]
    fn sampling_keeps_whole_queries_under_the_cap() {
        let spans: Vec<Span> = (0..1000u32)
            .flat_map(|q| {
                (0..3).map(move |k| Span {
                    name: "engine.exec.execute",
                    start_ns: u64::from(q) * 10 + k,
                    end_ns: u64::from(q) * 10 + k + 1,
                    parent: NONE,
                    query: q,
                })
            })
            .collect();
        let stride = sample_stride(&spans, 40_000);
        assert!(stride > 1);
        let kept: usize = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.query % stride == 0)
            .map(|(i, s)| span_line(s, i).len())
            .sum();
        assert!(kept <= 40_000);
        assert_eq!(sample_stride(&spans, usize::MAX), 1);
    }
}
