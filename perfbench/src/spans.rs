//! In-memory spans recorded by the benchmark around each call into a layer.
//!
//! `ipra_telemetry` spans carry neither a parent nor a request id, so the
//! benchmark keeps its own list and writes it out once, at the end of a
//! run, in the same Chrome trace-event format (`X` events whose `args`
//! hold the parent index, the request id and the module or cell name).

use crate::{num, render, Json};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer metric stem, e.g. `frontend.parse` or `core.webs`.
    pub name: &'static str,
    /// What the span worked on: a module, a cell, a client.
    pub what: String,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch (equal to `start_ns` while open).
    pub end_ns: u64,
    /// Index of the enclosing span in the run's list.
    pub parent: Option<usize>,
    /// Request (operation) id shared by every span of one operation.
    pub req: u64,
    /// Worker lane (0 = the thread that drives the run).
    pub lane: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Index base of spans recorded in a [`Spans::child`] until it is merged.
const CHILD_BASE: usize = usize::MAX / 2;

/// A run's span list. Worker threads record into a [`Spans::child`] that
/// shares the epoch and is [`merge`](Spans::merge)d back afterwards.
#[derive(Debug, Clone)]
pub struct Spans {
    epoch: Instant,
    lane: u64,
    /// 0 for a run's list; [`CHILD_BASE`] for a child, whose span ids are
    /// remapped on merge.
    base: usize,
    /// Recorded spans, in start order per lane.
    pub list: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Spans {
        Spans::new()
    }
}

impl Spans {
    /// An empty list whose epoch is now.
    pub fn new() -> Spans {
        Spans { epoch: Instant::now(), lane: 0, base: 0, list: Vec::new() }
    }

    /// An empty list for worker `lane`, sharing this list's epoch. Its
    /// spans may have parents in this list or in the child itself.
    pub fn child(&self, lane: u64) -> Spans {
        Spans { epoch: self.epoch, lane, base: CHILD_BASE, list: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id.
    pub fn begin(
        &mut self,
        name: &'static str,
        what: &str,
        parent: Option<usize>,
        req: u64,
    ) -> usize {
        let t = self.now_ns();
        self.list.push(Span {
            name,
            what: what.to_string(),
            start_ns: t,
            end_ns: t,
            parent,
            req,
            lane: self.lane,
        });
        self.base + self.list.len() - 1
    }

    /// Closes span `id` and returns its duration in seconds.
    pub fn end(&mut self, id: usize) -> f64 {
        let t = self.now_ns();
        let s = &mut self.list[id - self.base];
        s.end_ns = t;
        s.secs()
    }

    /// Runs `f` inside a leaf span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        what: &str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, what, parent, req);
        let r = f();
        self.end(id);
        r
    }

    /// Appends a child list's spans, remapping parents inside the child.
    pub fn merge(&mut self, child: Spans) {
        let offset = self.list.len();
        self.list.extend(child.list.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| if p >= CHILD_BASE { p - CHILD_BASE + offset } else { p });
            s
        }));
    }

    /// Number of spans recorded so far: a mark for
    /// [`totals_since`](Spans::totals_since).
    pub fn mark(&self) -> usize {
        self.list.len()
    }

    /// Summed duration per span name over the spans recorded since `from`:
    /// a layer's busy time during one operation.
    pub fn totals_since(&self, from: usize) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for s in &self.list[from..] {
            *out.entry(s.name).or_insert(0.0) += s.secs();
        }
        out
    }

    /// Chrome trace-event JSON (`{"traceEvents": [...]}`), loadable in
    /// Perfetto or `about://tracing`.
    pub fn chrome_json(&self) -> String {
        let events = self
            .list
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::Object(vec![
                    ("name".into(), Json::Str(s.name.to_string())),
                    ("cat".into(), Json::Str(s.name.split('.').next().unwrap_or("").to_string())),
                    ("ph".into(), Json::Str("X".into())),
                    ("ts".into(), num(s.start_ns as f64 / 1e3)),
                    ("dur".into(), num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid".into(), Json::UInt(1)),
                    ("tid".into(), Json::UInt(s.lane)),
                    (
                        "args".into(),
                        Json::Object(vec![
                            ("id".into(), Json::UInt(i as u64)),
                            (
                                "parent".into(),
                                s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                            ),
                            ("req".into(), Json::UInt(s.req)),
                            ("what".into(), Json::Str(s.what.clone())),
                        ]),
                    ),
                ])
            })
            .collect();
        render(&Json::Object(vec![
            ("traceEvents".into(), Json::Array(events)),
            ("displayTimeUnit".into(), Json::Str("ms".into())),
        ]))
    }
}
