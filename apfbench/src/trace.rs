//! Span analysis for the traced run.
//!
//! Every instant of a thread's timeline belongs to the innermost span open
//! on that thread at that instant; a span's self time is what it gets under
//! that rule (its duration minus what its same-thread children cover).
//! Work a span hands to other threads is not subtracted: the waiting shows
//! as the span's self time, and the other threads' spans are reported on
//! their own. Everything is computed from span timestamps, never from the
//! log-bucketed histograms.
//!
//! The self time of a span that has children is labelled `name (self)`:
//! it is the time the instrumentation leaves unexplained (work between the
//! children, or waiting on other threads), as opposed to a leaf span, whose
//! whole duration is one named operation.

use std::collections::{BTreeMap, HashMap, HashSet};

use apf_telemetry::TraceEvent;

/// Label of time on a measured path that no span covers.
pub const NO_SPAN: &str = "(no span)";

/// Suffix of the label of a parent span's self time.
pub const SELF_SUFFIX: &str = " (self)";

/// One closed span, in microseconds of the process trace clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name.
    pub name: &'static str,
    /// Start (µs).
    pub start: u64,
    /// End (µs).
    pub end: u64,
    /// Recording thread.
    pub tid: u64,
    /// Nesting depth on that thread.
    pub depth: usize,
    /// Trace id (0 = untraced).
    pub trace: u64,
}

impl Span {
    /// Duration (µs).
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

impl From<&TraceEvent> for Span {
    fn from(e: &TraceEvent) -> Self {
        Span {
            name: e.name,
            start: e.ts_us,
            end: e.ts_us + e.dur_us,
            tid: e.tid,
            depth: e.depth,
            trace: e.trace_id,
        }
    }
}

/// Spans indexed by thread, by name, and by (trace, name).
pub struct SpanIndex {
    spans: Vec<Span>,
    by_tid: HashMap<u64, Vec<usize>>,
    longest_on_tid: HashMap<u64, u64>,
    by_name: HashMap<&'static str, Vec<usize>>,
    by_trace: HashMap<(u64, &'static str), Vec<usize>>,
    parents: HashSet<&'static str>,
}

impl SpanIndex {
    /// Indexes recorded events.
    pub fn new(events: &[TraceEvent]) -> Self {
        // A parent is a span with a child that starts while it is open (a
        // trace handed to a later hop, like admission to its worker, does
        // not make the sender a parent).
        let by_id: HashMap<u64, &TraceEvent> = events.iter().map(|e| (e.span_id, e)).collect();
        let parents = events
            .iter()
            .filter_map(|c| {
                by_id
                    .get(&c.parent_span)
                    .filter(|p| c.ts_us <= p.ts_us + p.dur_us)
                    .map(|p| p.name)
            })
            .collect();
        let mut spans: Vec<Span> = events.iter().map(Span::from).collect();
        spans.sort_by_key(|s| (s.start, s.depth));
        let mut by_tid: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut longest_on_tid: HashMap<u64, u64> = HashMap::new();
        let mut by_name: HashMap<&'static str, Vec<usize>> = HashMap::new();
        let mut by_trace: HashMap<(u64, &'static str), Vec<usize>> = HashMap::new();
        for (i, s) in spans.iter().enumerate() {
            by_tid.entry(s.tid).or_default().push(i);
            let longest = longest_on_tid.entry(s.tid).or_default();
            *longest = (*longest).max(s.dur());
            by_name.entry(s.name).or_default().push(i);
            if s.trace != 0 {
                by_trace.entry((s.trace, s.name)).or_default().push(i);
            }
        }
        SpanIndex {
            spans,
            by_tid,
            longest_on_tid,
            by_name,
            by_trace,
            parents,
        }
    }

    /// Number of spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// All spans called `name`, by start time.
    pub fn named<'a>(&'a self, name: &str) -> impl Iterator<Item = &'a Span> + 'a {
        self.by_name
            .get(name)
            .into_iter()
            .flatten()
            .map(move |&i| &self.spans[i])
    }

    /// Spans called `name` that belong to `trace`, by start time.
    pub fn in_trace<'a>(
        &'a self,
        trace: u64,
        name: &'static str,
    ) -> impl Iterator<Item = &'a Span> + 'a {
        self.by_trace
            .get(&(trace, name))
            .into_iter()
            .flatten()
            .map(move |&i| &self.spans[i])
    }

    /// Spans on `tid` that overlap `[a, b]`.
    fn overlapping(&self, tid: u64, a: u64, b: u64) -> Vec<&Span> {
        let Some(list) = self.by_tid.get(&tid) else {
            return Vec::new();
        };
        let longest = self.longest_on_tid.get(&tid).copied().unwrap_or(0);
        let end = list.partition_point(|&i| self.spans[i].start <= b);
        let mut out = Vec::new();
        for &i in list[..end].iter().rev() {
            let s = &self.spans[i];
            if s.start.saturating_add(longest) < a {
                break;
            }
            if s.end >= a {
                out.push(s);
            }
        }
        out
    }

    /// The innermost span called `name` on `inner`'s thread that encloses
    /// `inner`.
    pub fn enclosing(&self, inner: &Span, name: &str) -> Option<&Span> {
        self.overlapping(inner.tid, inner.start, inner.end)
            .into_iter()
            .filter(|s| s.name == name && s.start <= inner.start && s.end >= inner.end)
            .max_by_key(|s| s.depth)
    }

    /// Spans on `inner`'s thread nested inside it (any depth).
    pub fn nested<'a>(&'a self, outer: &Span) -> Vec<&'a Span> {
        self.overlapping(outer.tid, outer.start, outer.end)
            .into_iter()
            .filter(|s| s.depth > outer.depth && s.start >= outer.start && s.end <= outer.end)
            .collect()
    }

    /// The ledger label of time owned by `span`: its name, with
    /// [`SELF_SUFFIX`] when spans of that name have children.
    pub fn label(&self, span: &Span) -> String {
        if self.parents.contains(span.name) {
            format!("{}{SELF_SUFFIX}", span.name)
        } else {
            span.name.to_string()
        }
    }

    /// Attributes every microsecond of `[a, b]` on thread `tid` to the
    /// innermost span covering it (or [`NO_SPAN`]) and adds it to `ledger`.
    pub fn attribute(&self, tid: u64, a: u64, b: u64, ledger: &mut Ledger) {
        if b <= a {
            return;
        }
        let spans = self.overlapping(tid, a, b);
        let mut cuts: Vec<u64> = vec![a, b];
        for s in &spans {
            cuts.extend([s.start.clamp(a, b), s.end.clamp(a, b)]);
        }
        cuts.sort_unstable();
        cuts.dedup();
        for w in cuts.windows(2) {
            let (x, y) = (w[0], w[1]);
            let owner = spans
                .iter()
                .filter(|s| s.start <= x && s.end >= y)
                .max_by_key(|s| (s.depth, s.start));
            match owner {
                Some(s) => ledger.add(&self.label(s), (y - x) as f64),
                None => ledger.add(NO_SPAN, (y - x) as f64),
            }
        }
    }

    /// Self time per span name over every thread, in µs.
    pub fn self_times(&self) -> Ledger {
        let mut ledger = Ledger::default();
        for (&tid, list) in &self.by_tid {
            // Attribute each outermost span's interval; gaps between them
            // are idle time, not work.
            let mut covered_to = 0u64;
            for &i in list {
                let s = &self.spans[i];
                if s.end <= covered_to {
                    continue;
                }
                let from = s.start.max(covered_to);
                self.attribute(tid, from, s.end, &mut ledger);
                covered_to = s.end;
            }
        }
        ledger.0.remove(NO_SPAN);
        ledger
    }
}

/// Time per stage label, in µs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger(pub BTreeMap<String, f64>);

impl Ledger {
    /// Adds `us` to `label`.
    pub fn add(&mut self, label: &str, us: f64) {
        *self.0.entry(label.to_string()).or_default() += us;
    }

    /// Sum over all labels (µs).
    pub fn total(&self) -> f64 {
        self.0.values().sum()
    }

    /// Time of one label (µs), 0 when absent.
    pub fn get(&self, label: &str) -> f64 {
        self.0.get(label).copied().unwrap_or(0.0)
    }

    /// Time the instrumentation does not name: no span, or a parent span's
    /// self time (µs).
    pub fn unexplained(&self) -> f64 {
        self.0
            .iter()
            .filter(|(l, _)| *l == NO_SPAN || l.ends_with(SELF_SUFFIX))
            .map(|(_, v)| v)
            .sum()
    }
}

/// The layer a span belongs to, by its name.
pub fn layer_of(label: &str) -> &'static str {
    let prefix = label.split(['.', ' ']).next().unwrap_or("");
    match prefix {
        "core" => "core",
        "serve" if label.starts_with("serve.wire") => "wire",
        "serve" => "serve",
        "wire" => "wire",
        "gigapixel" => "gigapixel",
        "distsim" => "distsim",
        "train" => "train",
        "bench" => "bench",
        _ => "-",
    }
}

/// One request's path through the stages, as consecutive intervals.
#[derive(Debug, Clone, Default)]
pub struct PathLedger {
    /// Time per stage (µs).
    pub stages: Ledger,
    /// End-to-end time of the path (µs).
    pub total: f64,
}

/// Mean stage times over the paths whose totals lie in the middle decile
/// band (p45..p55) of all totals: the stage table of a median request.
/// Returns the band's stage means (ms) and its mean total (ms).
pub fn median_band(paths: &[PathLedger]) -> (Vec<(String, f64)>, f64) {
    if paths.is_empty() {
        return (Vec::new(), 0.0);
    }
    let mut order: Vec<usize> = (0..paths.len()).collect();
    order.sort_by(|&a, &b| paths[a].total.total_cmp(&paths[b].total));
    let n = paths.len();
    let lo = (n * 45) / 100;
    let hi = ((n * 55).div_ceil(100)).max(lo + 1).min(n);
    let band = &order[lo..hi];
    let mut sum = Ledger::default();
    let mut total = 0.0;
    for &i in band {
        for (k, v) in &paths[i].stages.0 {
            sum.add(k, *v);
        }
        total += paths[i].total;
    }
    let k = band.len() as f64;
    let mut rows: Vec<(String, f64)> = sum.0.into_iter().map(|(l, v)| (l, v / k / 1e3)).collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    (rows, total / k / 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(
        name: &'static str,
        start: u64,
        end: u64,
        tid: u64,
        depth: usize,
        trace: u64,
    ) -> TraceEvent {
        TraceEvent {
            name,
            ts_us: start,
            dur_us: end - start,
            tid,
            depth,
            id: None,
            trace_id: trace,
            span_id: 0,
            parent_span: 0,
            truncated: false,
            note: None,
        }
    }

    /// Links `events[child].parent_span` to `events[parent]`.
    fn link(mut events: Vec<TraceEvent>, pairs: &[(usize, usize)]) -> Vec<TraceEvent> {
        for (i, e) in events.iter_mut().enumerate() {
            e.span_id = i as u64 + 1;
        }
        for &(child, parent) in pairs {
            events[child].parent_span = parent as u64 + 1;
        }
        events
    }

    #[test]
    fn self_time_subtracts_same_thread_children_only() {
        let events = link(
            vec![
                ev("outer", 0, 100, 1, 0, 7),
                ev("child", 10, 30, 1, 1, 7),
                ev("grandchild", 15, 20, 1, 2, 7),
                ev("child", 50, 60, 1, 1, 7),
                // Another thread's span inside the same interval.
                ev("remote", 0, 90, 2, 0, 7),
            ],
            &[(1, 0), (2, 1), (3, 0), (4, 0)],
        );
        let st = SpanIndex::new(&events).self_times();
        assert_eq!(
            st.get("outer (self)"),
            70.0,
            "waiting on the remote child stays self time"
        );
        assert_eq!(st.get("child (self)"), 25.0);
        assert_eq!(st.get("grandchild"), 5.0);
        assert_eq!(st.get("remote"), 90.0);
        assert_eq!(st.total(), 190.0);
        assert_eq!(st.unexplained(), 95.0);
    }

    #[test]
    fn attribution_covers_the_window_exactly() {
        let idx = SpanIndex::new(&link(
            vec![ev("a", 10, 40, 1, 0, 0), ev("b", 20, 30, 1, 1, 0)],
            &[(1, 0)],
        ));
        let mut l = Ledger::default();
        idx.attribute(1, 0, 50, &mut l);
        assert_eq!(l.get(NO_SPAN), 20.0);
        assert_eq!(l.get("a (self)"), 20.0);
        assert_eq!(l.unexplained(), 40.0);
        assert_eq!(l.get("b"), 10.0);
        assert_eq!(l.total(), 50.0);
        let inner = idx.named("b").next().unwrap().clone();
        assert_eq!(idx.enclosing(&inner, "a").map(|s| s.start), Some(10));
        assert_eq!(idx.nested(idx.named("a").next().unwrap()).len(), 1);
        assert_eq!(
            idx.in_trace(0, "a").count(),
            0,
            "untraced spans are not indexed by trace"
        );
    }

    #[test]
    fn median_band_averages_the_middle_paths() {
        let paths: Vec<PathLedger> = (1..=100)
            .map(|t| {
                let mut stages = Ledger::default();
                stages.add("x", t as f64 * 1e3);
                PathLedger {
                    stages,
                    total: t as f64 * 1e3,
                }
            })
            .collect();
        let (rows, total) = median_band(&paths);
        assert_eq!(rows.len(), 1);
        assert!((total - 50.5).abs() < 1e-9, "{total}");
        assert!((rows[0].1 - total).abs() < 1e-9);
        assert_eq!(layer_of("serve.wire.request"), "wire");
        assert_eq!(layer_of("serve.forward"), "serve");
        assert_eq!(layer_of("core.canny"), "core");
        assert_eq!(layer_of("serve.batch (self)"), "serve");
    }
}
