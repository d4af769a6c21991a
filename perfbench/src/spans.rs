//! In-memory span log for traced runs.
//!
//! A span is one timed call into a layer: name, start, end, the enclosing
//! span, and the matrix point (or mix run) it belongs to. Spans are kept in
//! memory while the workload runs and written out once at the end. A
//! layer's self time is its spans' duration minus the time their direct
//! children cover; spans nest strictly (one thread opens and closes them),
//! so children never overlap.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
    point: Option<usize>,
}

/// Per-name totals over a log.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Run `f` inside a span named `name`; spans `f` opens nest under it.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        point: Option<usize>,
        f: impl FnOnce(&mut SpanLog) -> T,
    ) -> T {
        let id = self.spans.len();
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span { name, start, end: start, parent: self.open.last().copied(), point });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end = self.origin.elapsed().as_secs_f64();
        if let Some(s) = self.spans.get_mut(id) {
            s.end = end;
        }
        out
    }

    fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(slot) = s.parent.and_then(|p| own.get_mut(p)) {
                *slot -= s.end - s.start;
            }
        }
        own
    }

    /// Count, total and self time per span name, restricted to spans whose
    /// point satisfies `keep` (spans without a point pass only `keep(None)`).
    pub fn totals_where(
        &self,
        keep: impl Fn(Option<usize>) -> bool,
    ) -> BTreeMap<&'static str, Totals> {
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            if keep(s.point) {
                let t = out.entry(s.name).or_default();
                t.count += 1;
                t.total_s += s.end - s.start;
                t.self_s += own;
            }
        }
        out
    }

    /// Totals over every span.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        self.totals_where(|_| true)
    }

    /// Write the log as JSON, one record per line so two commits' files
    /// diff line by line: the `header` fields, the per-name self-time
    /// table (sorted by name), the `points` table that span point ids
    /// index, the per-layer `metrics`, then every span in start order.
    pub fn write(
        &self,
        path: &Path,
        header: &[(&str, String)],
        points: &[String],
        metrics: &[(String, f64, &str)],
    ) -> Result<(), String> {
        let mut out = String::from("{\n");
        for (k, v) in header {
            let _ = writeln!(out, "  \"{k}\": {v},");
        }
        let mut section = |name: &str, rows: Vec<String>, last: bool| {
            let end = if last { "" } else { "," };
            let _ = writeln!(out, "  \"{name}\": [\n{}\n  ]{end}", rows.join(",\n"));
        };
        let totals = self.totals();
        let rows = totals.iter().map(|(name, t)| {
            format!(
                "    {{\"name\": \"{name}\", \"count\": {}, \"self_s\": {:.6}, \"total_s\": {:.6}}}",
                t.count, t.self_s, t.total_s
            )
        });
        section("self_time", rows.collect(), false);
        let rows = points.iter().enumerate().map(|(i, p)| format!("    [{i}, \"{p}\"]"));
        section("points", rows.collect(), false);
        let rows = metrics.iter().map(|(name, value, unit)| {
            format!("    {{\"name\": \"{name}\", \"value\": {value}, \"unit\": \"{unit}\"}}")
        });
        section("metrics", rows.collect(), false);
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |x| x.to_string());
        let rows = self.spans.iter().enumerate().map(|(id, s)| {
            format!(
                "    {{\"id\": {id}, \"name\": \"{}\", \"start_s\": {:.6}, \"end_s\": {:.6}, \"parent\": {}, \"point\": {}}}",
                s.name,
                s.start,
                s.end,
                opt(s.parent),
                opt(s.point)
            )
        });
        section("spans", rows.collect(), true);
        out.push_str("}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        std::fs::write(path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// Run `f` under a root span when a log is given, plainly otherwise: the
/// set-up code untraced and traced runs share.
pub fn span<T>(log: Option<&mut SpanLog>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match log {
        Some(log) => log.time(name, None, |_| f()),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut log = SpanLog::new();
        log.time("outer", None, |log| {
            log.time("inner", Some(3), |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let t = log.totals();
        let (outer, inner) = (t["outer"], t["inner"]);
        assert_eq!((outer.count, inner.count), (1, 1));
        assert!(inner.self_s >= 0.02);
        assert!(outer.self_s >= 0.005 && outer.self_s < outer.total_s - 0.019);
        let only3 = log.totals_where(|p| p == Some(3));
        assert!(only3.contains_key("inner") && !only3.contains_key("outer"));
    }
}
