//! Spans recorded from the benchmark's side, around calls into each
//! layer's public functions. They live in memory during the traced pass
//! and are written out when the run ends; nothing here is called on an
//! untraced pass.

use crate::json::Json;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.action`, e.g. `convert.to_format`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one; `None` for roots.
    pub parent: Option<usize>,
    /// Matrix or request the span belongs to; spans of one request share it.
    pub id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Single-threaded recorder with an explicit open-span stack.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder { epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one; returns its index
    /// for [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, id: u64) -> usize {
        let index = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent: self.open.last().copied(), id });
        self.open.push(index);
        index
    }

    /// Closes the innermost open span, which must be `index`.
    pub fn close(&mut self, index: usize) {
        assert_eq!(self.open.pop(), Some(index), "spans close innermost first");
        self.spans[index].end_ns = self.now();
    }

    /// Runs `f` inside a span that is a child of the innermost open one.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Recorder) -> R) -> R {
        let index = self.open(name, id);
        let out = f(self);
        self.close(index);
        out
    }

    /// A leaf span for a call whose duration was measured by the caller
    /// (the measured loops time their calls themselves, traced or not).
    pub fn leaf(&mut self, name: &'static str, id: u64, started: Instant, dur_ns: u64) {
        let start_ns = started.saturating_duration_since(self.epoch).as_nanos() as u64;
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns, end_ns: start_ns + dur_ns, parent, id });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another recorder's spans (a client thread's), keeping their
    /// parent links and rebasing their clocks onto this recorder's epoch.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        let shift = other.epoch.saturating_duration_since(self.epoch).as_nanos() as u64;
        let root = self.open.last().copied();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            start_ns: s.start_ns + shift,
            end_ns: s.end_ns + shift,
            parent: s.parent.map(|p| p + base).or(root),
            ..s
        }));
    }

    /// A span's self time: its duration minus the part its children cover.
    /// Children of one parent never overlap here (one thread, one stack),
    /// so the covered part is the sum of their durations.
    pub fn self_ns(&self, index: usize) -> u64 {
        let children: u64 = self.spans.iter().filter(|s| s.parent == Some(index)).map(|s| s.dur_ns()).sum();
        self.spans[index].dur_ns().saturating_sub(children)
    }

    /// Checks the tree invariant: a parent precedes its children and
    /// contains them, so every self time is non-negative.
    pub fn check(&self) -> Result<(), String> {
        for (i, s) in self.spans.iter().enumerate() {
            if s.end_ns < s.start_ns {
                return Err(format!("span {i} ({}) ends before it starts", s.name));
            }
            if let Some(p) = s.parent {
                let parent =
                    self.spans.get(p).filter(|_| p < i).ok_or(format!("span {i} has a bad parent {p}"))?;
                if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                    return Err(format!("span {i} ({}) leaves its parent {p} ({})", s.name, parent.name));
                }
            }
        }
        Ok(())
    }

    /// The trace file: at most `cap` spans (a serving pass records one per
    /// request) plus how many there were.
    pub fn to_json(&self, workload: &str, cap: usize) -> Json {
        let spans = self
            .spans
            .iter()
            .take(cap)
            .map(|s| {
                Json::obj(vec![
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                    ("id", Json::Num(s.id as f64)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("workload", Json::str(workload)),
            ("recorded", Json::Num(self.spans.len() as f64)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn children_stay_within_parents_and_self_time_is_non_negative() {
        let mut rec = Recorder::new();
        rec.span("serve.register", 7, |rec| {
            rec.span("analysis.build", 7, |_| spin(20_000));
            let t = Instant::now();
            spin(10_000);
            rec.leaf("convert.to_format", 7, t, t.elapsed().as_nanos() as u64);
            spin(5_000);
        });
        rec.check().unwrap();
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[1].parent, spans[2].parent), (Some(0), Some(0)));
        assert!(rec.self_ns(0) >= 5_000 && rec.self_ns(0) < spans[0].dur_ns());
        assert_eq!(rec.self_ns(1), spans[1].dur_ns());
    }

    #[test]
    fn check_rejects_a_child_outside_its_parent() {
        let mut rec = Recorder::new();
        rec.span("parent", 0, |rec| rec.span("child", 0, |_| ()));
        rec.spans[1].end_ns = rec.spans[0].end_ns + 1;
        assert!(rec.check().is_err());
    }

    #[test]
    fn absorbed_spans_keep_their_links_and_the_file_parses_back() {
        let mut main = Recorder::new();
        let mut client = Recorder::new();
        client.span("serve.spmv", 3, |rec| rec.span("kernel", 3, |_| spin(1_000)));
        main.span("pass", 0, |rec| {
            spin(1_000);
            rec.absorb(client);
            spin(1_000);
        });
        assert_eq!(main.spans()[1].parent, Some(0));
        assert_eq!(main.spans()[2].parent, Some(1));
        let file = crate::json::parse(&main.to_json("w", 2).render_pretty()).unwrap();
        assert_eq!(file.get("recorded").and_then(Json::as_f64), Some(3.0));
        assert_eq!(file.get("spans").map(|s| s.as_arr().len()), Some(2));
    }
}
