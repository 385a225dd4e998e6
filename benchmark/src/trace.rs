//! Span recording from outside the product crates.
//!
//! The harness opens a span around every call it makes into a layer.
//! Spans stay in memory until the run ends; [`Tracer::rollup`] then
//! turns them into per-name durations and self times, and
//! [`Tracer::write_json`] is what lands in `trace-<workload>.json`.
//!
//! A disabled tracer reads no clock and allocates nothing, so the
//! end-to-end runs pay one predictable branch per span site.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;
use crate::stats;

const NO_PARENT: u32 = u32::MAX;

/// Most spans `trace-<workload>.json` holds. `svc_short` records three
/// million; the file keeps the first ones and says how many there were,
/// the roll-up in `run-<workload>.json` covers them all.
const MAX_WRITTEN: usize = 200_000;

/// One recorded span. `op` ties the spans of one operation together.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u32,
}

/// Handle returned by [`Tracer::begin`]; pass it back to
/// [`Tracer::end`].
#[derive(Clone, Copy)]
pub struct SpanId(u32);

/// What the spans of one name add up to.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    /// Median span duration.
    pub median_ns: f64,
    /// Sum of durations minus the part child spans cover.
    pub self_ns: u64,
}

/// The spans of a run added up by name.
pub struct Rollup(pub BTreeMap<&'static str, NameTotals>);

impl Rollup {
    /// Median duration of the spans called `name`, 0 when there are
    /// none.
    pub fn median_ns(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |t| t.median_ns)
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { enabled: false, origin: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    /// Spans are recorded only while enabled; the harness switches per
    /// slice so traced and untraced slices alternate in one run.
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.stack.is_empty(), "tracing toggled inside a span");
        self.enabled = enabled;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, op: u32) -> SpanId {
        if !self.enabled {
            return SpanId(NO_PARENT);
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.stack.push(id);
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op });
        SpanId(id)
    }

    pub fn end(&mut self, id: SpanId) {
        if id.0 == NO_PARENT {
            return;
        }
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id.0), "spans must close innermost first");
        self.spans[id.0 as usize].end_ns = end_ns;
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Per-name totals. Self time is a span's duration minus the
    /// duration of its direct children (children never overlap: one
    /// thread records them, innermost first).
    pub fn rollup(&self) -> Rollup {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut durations: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut totals: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            durations.entry(s.name).or_default().push(dur as f64);
            let t = totals.entry(s.name).or_default();
            t.count += 1;
            t.self_ns += dur.saturating_sub(*children);
        }
        for (name, t) in &mut totals {
            t.median_ns = stats::median(&durations[name]);
        }
        Rollup(totals)
    }

    /// Summed duration of the spans that have no parent.
    pub fn top_level_ns(&self) -> u64 {
        self.spans.iter().filter(|s| s.parent == NO_PARENT).map(|s| s.end_ns - s.start_ns).sum()
    }

    /// Writes `{"recorded": n, "names": [...], "spans": [[name, start_ns,
    /// end_ns, parent, op], ...]}` with `parent` = null for a top-level
    /// span, at most [`MAX_WRITTEN`] rows.
    pub fn write_json(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        let written = &self.spans[..self.spans.len().min(MAX_WRITTEN)];
        let mut names: Vec<&'static str> = Vec::new();
        let mut rows = Vec::with_capacity(written.len());
        for s in written {
            let name = names.iter().position(|n| *n == s.name).unwrap_or_else(|| {
                names.push(s.name);
                names.len() - 1
            });
            rows.push(name);
        }
        write!(
            out,
            "{{\"recorded\": {}, \"names\": {}, \"spans\": [",
            self.spans.len(),
            Json::Arr(names.into_iter().map(Json::str).collect())
        )?;
        for (i, (s, name)) in written.iter().zip(rows).enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(out, "{sep}[{name}, {}, {}, ", s.start_ns, s.end_ns)?;
            match s.parent {
                NO_PARENT => write!(out, "null")?,
                parent => write!(out, "{parent}")?,
            }
            write!(out, ", {}]", s.op)?;
        }
        writeln!(out, "]}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer_with(spans: &[(&'static str, u64, u64, u32)]) -> Tracer {
        let mut t = Tracer::new();
        t.spans = spans
            .iter()
            .map(|&(name, start_ns, end_ns, parent)| Span { name, start_ns, end_ns, parent, op: 0 })
            .collect();
        t
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new();
        let id = t.begin("op", 0);
        t.end(id);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nesting_sets_parents() {
        let mut t = Tracer::new();
        t.set_enabled(true);
        let op = t.begin("op", 7);
        let call = t.begin("bi.q01", 7);
        t.end(call);
        t.end(op);
        let again = t.begin("op", 8);
        t.end(again);
        let s = t.spans();
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (NO_PARENT, 0, NO_PARENT));
        assert_eq!((s[0].op, s[1].op, s[2].op), (7, 7, 8));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let t = tracer_with(&[
            ("op", 0, 100, NO_PARENT),
            ("encode", 10, 30, 0),
            ("call", 30, 90, 0),
            ("op", 100, 150, NO_PARENT),
        ]);
        let rollup = t.rollup();
        let r = &rollup.0;
        assert_eq!(r["op"].count, 2);
        assert_eq!(r["op"].self_ns, 20 + 50);
        assert_eq!(r["op"].median_ns, 75.0);
        assert_eq!(r["encode"].self_ns, 20);
        assert_eq!(r["call"].self_ns, 60);
        assert_eq!(t.top_level_ns(), 150);
        assert_eq!(rollup.median_ns("call"), 60.0);
        assert_eq!(rollup.median_ns("absent"), 0.0);
    }

    #[test]
    fn json_has_a_name_table_and_one_row_per_span() {
        let t =
            tracer_with(&[("op", 0, 9, NO_PARENT), ("call", 1, 8, 0), ("op", 9, 12, NO_PARENT)]);
        let mut out = Vec::new();
        t.write_json(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(
            text,
            "{\"recorded\": 3, \"names\": [\"op\", \"call\"], \"spans\": \
             [[0, 0, 9, null, 0], [1, 1, 8, 0, 0], [0, 9, 12, null, 0]]}\n"
        );
        assert!(crate::json::parse(&text).is_ok());
    }
}
