//! Aggregated phase profiles and the folded-stack (flamegraph) format.
//!
//! A [`Profile`] is a map from a **phase path** — nested phase names
//! joined with `;`, e.g. `execute;hash_join;scan` — to a [`PhaseStat`]
//! holding call counts, sampled-timing totals, and work units. The path
//! separator is the same one the flamegraph folded format uses, so
//! export is a straight dump: one `path value` line per frame
//! ([`Profile::to_folded`]), consumable by `inferno` / `flamegraph.pl`
//! or re-parsed by [`parse_folded`].

use std::collections::BTreeMap;

/// Separator between nested phase names in a path.
pub const PATH_SEP: char = ';';

/// Aggregated statistics of one phase path.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseStat {
    /// Total phase entries attributed to this path. Under root sampling
    /// a root frame counts every entry, and a frame nested in a sampled
    /// root counts the stride per entry, so `calls` stays an
    /// (exact-in-expectation) estimate of the true entry count.
    pub calls: u64,
    /// Entries that were actually wall-clock timed (`<= calls`).
    pub sampled: u64,
    /// Wall clock spent in *sampled* entries, nanoseconds. The estimated
    /// total is [`PhaseStat::est_wall_ns`].
    pub wall_ns: u64,
    /// Deterministic work units charged to this phase (executor work
    /// meter, estimator call counts, ...). Never sampled: what is
    /// charged inside an unsampled root lands on the root frame, so the
    /// sum over a profile's frames is exact and machine-independent.
    pub units: f64,
}

impl PhaseStat {
    /// Estimated total wall time: sampled time scaled by `calls/sampled`.
    pub fn est_wall_ns(&self) -> u64 {
        if self.sampled == 0 {
            0
        } else {
            ((self.wall_ns as u128 * self.calls as u128) / self.sampled as u128) as u64
        }
    }

    fn merge(&mut self, other: &PhaseStat) {
        self.calls += other.calls;
        self.sampled += other.sampled;
        self.wall_ns += other.wall_ns;
        self.units += other.units;
    }
}

/// A tree of phase timings, flattened to path → stat.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    /// Phase statistics keyed by `;`-joined path.
    pub frames: BTreeMap<String, PhaseStat>,
}

impl Profile {
    /// An empty profile.
    pub fn new() -> Profile {
        Profile::default()
    }

    /// True when no frame has been recorded.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Add `(calls, sampled, wall_ns, units)` to the frame at `path`,
    /// creating it if absent. The path is only allocated on a frame's
    /// first appearance — steady-state recording is allocation-free.
    pub fn add(&mut self, path: &str, calls: u64, sampled: u64, wall_ns: u64, units: f64) {
        let stat = match self.frames.get_mut(path) {
            Some(stat) => stat,
            None => self.frames.entry(path.to_string()).or_default(),
        };
        stat.calls += calls;
        stat.sampled += sampled;
        stat.wall_ns += wall_ns;
        stat.units += units;
    }

    /// Add `units` to the frame at `path`, creating it if absent.
    pub fn charge(&mut self, path: &str, units: f64) {
        match self.frames.get_mut(path) {
            Some(stat) => stat.units += units,
            None => self.frames.entry(path.to_string()).or_default().units += units,
        }
    }

    /// Merge another profile into this one, frame by frame.
    pub fn merge(&mut self, other: &Profile) {
        for (path, stat) in &other.frames {
            self.frames.entry(path.clone()).or_default().merge(stat);
        }
    }

    /// Sum of estimated wall time over *root* frames (paths with no
    /// parent in the map), i.e. total profiled time without
    /// double-counting nested phases.
    pub fn root_wall_ns(&self) -> u64 {
        self.frames
            .iter()
            .filter(|(path, _)| !self.has_parent(path))
            .map(|(_, s)| s.est_wall_ns())
            .sum()
    }

    fn has_parent(&self, path: &str) -> bool {
        path.rfind(PATH_SEP)
            .is_some_and(|i| self.frames.contains_key(&path[..i]))
    }

    /// Render in the flamegraph **folded** format: one `path value` line
    /// per frame, value = estimated wall nanoseconds, sorted by path.
    /// Frames that were never wall-timed (count-only) are kept with
    /// value 0 so the call structure survives the round trip.
    pub fn to_folded(&self) -> String {
        let mut out = String::new();
        for (path, stat) in &self.frames {
            out.push_str(path);
            out.push(' ');
            out.push_str(&stat.est_wall_ns().to_string());
            out.push('\n');
        }
        out
    }
}

/// Parse folded-stack text back into `path → value`. Blank lines are
/// skipped; returns `None` if any line is not `path <u64>` or names an
/// empty frame (`;;`, leading/trailing `;`).
pub fn parse_folded(input: &str) -> Option<BTreeMap<String, u64>> {
    let mut out = BTreeMap::new();
    for line in input.lines() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        let (path, value) = line.rsplit_once(' ')?;
        if path.is_empty() || path.split(PATH_SEP).any(|seg| seg.is_empty()) {
            return None;
        }
        out.insert(path.to_string(), value.parse::<u64>().ok()?);
    }
    Some(out)
}

/// One query's worth of profiling: the phase tree plus event counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryProfile {
    /// The profiled query (SQL-ish text, as given to `begin_query_id`).
    pub query: String,
    /// Phase tree for this query alone.
    pub profile: Profile,
    /// Named event counters (`model_calls`, `cache_hits`,
    /// `guard_deadline`, `estimator_calls`, ...), recorded exactly.
    pub counters: BTreeMap<String, u64>,
    /// Phases still open when the query ended. Non-zero marks the
    /// profile as structurally incomplete (a guard leaked or the query
    /// unwound mid-phase); the profiler never panics on this.
    pub unclosed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folded_round_trips() {
        let mut p = Profile::new();
        p.add("plan", 1, 1, 1000, 0.0);
        p.add("plan;enumerate", 1, 1, 800, 0.0);
        p.add("plan;enumerate;estimate", 40, 10, 50, 40.0);
        p.add("execute", 1, 1, 5000, 123.5);
        let text = p.to_folded();
        let parsed = parse_folded(&text).expect("parse");
        assert_eq!(parsed.len(), 4);
        assert_eq!(parsed["plan;enumerate"], 800);
        // 50ns over 10 sampled of 40 calls -> estimated 200ns total.
        assert_eq!(parsed["plan;enumerate;estimate"], 200);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_folded("no-value\n").is_none());
        assert!(parse_folded("path not-a-number\n").is_none());
        assert!(parse_folded("a;;b 3\n").is_none());
        assert!(parse_folded(";a 3\n").is_none());
        assert_eq!(parse_folded("\n  \n").unwrap().len(), 0);
    }

    #[test]
    fn root_wall_skips_nested_frames() {
        let mut p = Profile::new();
        p.add("plan", 1, 1, 1000, 0.0);
        p.add("plan;enumerate", 1, 1, 800, 0.0);
        p.add("execute", 1, 1, 5000, 0.0);
        // `orphan;leaf` has no recorded parent, so it *is* a root.
        p.add("orphan;leaf", 1, 1, 70, 0.0);
        assert_eq!(p.root_wall_ns(), 1000 + 5000 + 70);
    }

    #[test]
    fn merge_adds_frame_wise() {
        let mut a = Profile::new();
        a.add("x", 1, 1, 10, 1.0);
        let mut b = Profile::new();
        b.add("x", 2, 1, 30, 0.5);
        b.add("y", 1, 0, 0, 0.0);
        a.merge(&b);
        assert_eq!(a.frames["x"].calls, 3);
        assert_eq!(a.frames["x"].wall_ns, 40);
        assert!((a.frames["x"].units - 1.5).abs() < 1e-12);
        assert!(a.frames.contains_key("y"));
    }
}
