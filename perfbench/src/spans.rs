//! The harness's own span recorder.
//!
//! A span is `{id, parent, name, start_ns, end_ns}` pushed to an
//! in-memory `Vec` around a call into a public function of the product;
//! nothing is recorded inside the product crates. Spans nest as the
//! calls nest, a span's self time is its duration minus the part its
//! children cover, and the whole list is written to a file when the
//! traced run ends.
//!
//! Calls that take tens of nanoseconds are timed in batches: one span
//! covers `reps` back-to-back calls, and per-call figures divide by it.
//! Otherwise the two clock reads of the span would be the measurement.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Position in the recorder's list.
    pub id: u32,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// `<crate>.<module>.<what>` of the call the span wraps.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Calls the span covers (1 unless batched).
    pub reps: u32,
}

/// Handle returned by [`Recorder::enter`]; pass it to [`Recorder::exit`].
#[derive(Clone, Copy)]
pub struct Open(u32);

/// An append-only span list with a stack of open spans.
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    /// A recorder that records (`enabled`) or only hands out handles.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span covering `reps` calls.
    pub fn enter_batch(&mut self, name: &'static str, reps: u32) -> Open {
        if !self.enabled {
            return Open(u32::MAX);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns: 0,
            end_ns: 0,
            reps,
        });
        self.open.push(id);
        // Read the clock last, so the push is outside the span.
        self.spans[id as usize].start_ns = self.now_ns();
        Open(id)
    }

    /// Opens a span covering one call.
    pub fn enter(&mut self, name: &'static str) -> Open {
        self.enter_batch(name, 1)
    }

    /// Closes a span. Spans close innermost first.
    pub fn exit(&mut self, open: Open) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(open.0), "spans close innermost first");
        self.spans[open.0 as usize].end_ns = end;
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let open = self.enter(name);
        let out = f(self);
        self.exit(open);
        out
    }

    /// Runs `f` `reps` times inside one span.
    pub fn time_batch(&mut self, name: &'static str, reps: u32, mut f: impl FnMut()) {
        let open = self.enter_batch(name, reps);
        for _ in 0..reps {
            f();
        }
        self.exit(open);
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another recorder's spans (a second client thread's),
    /// re-numbering ids and parents.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len() as u32;
        // Both recorders count from their own epoch; shift the other's
        // times so the merged list shares this one's.
        let shift = other
            .epoch
            .checked_duration_since(self.epoch)
            .map_or(0, |d| d.as_nanos() as u64);
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += base;
            s.parent = s.parent.map(|p| p + base);
            s.start_ns += shift;
            s.end_ns += shift;
            s
        }));
    }

    /// Per-call durations (ns) of every span named `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) / u64::from(s.reps.max(1)))
            .collect()
    }

    /// Per-call self times (ns) of every span named `name`: duration
    /// minus the children's durations.
    pub fn self_times_ns(&self, name: &str) -> Vec<u64> {
        let mut child_total: BTreeMap<u32, u64> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *child_total.entry(p).or_default() += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let own = (s.end_ns - s.start_ns)
                    .saturating_sub(child_total.get(&s.id).copied().unwrap_or(0));
                own / u64::from(s.reps.max(1))
            })
            .collect()
    }

    /// Per span name, in first-seen order: how many spans, their median
    /// per-call duration and their median per-call self time, ns.
    pub fn summary(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut names: Vec<&'static str> = Vec::new();
        for s in &self.spans {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
        }
        names
            .into_iter()
            .map(|name| {
                let (mut total, mut own) = (self.durations_ns(name), self.self_times_ns(name));
                total.sort_unstable();
                own.sort_unstable();
                (
                    name,
                    total.len(),
                    crate::stats::median(&total),
                    crate::stats::median(&own),
                )
            })
            .collect()
    }

    /// The span list as a JSON array, for the spans file.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("id", Json::Num(f64::from(s.id))),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                        ),
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        ("reps", Json::Num(f64::from(s.reps))),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t = Instant::now();
        while (t.elapsed().as_micros() as u64) < us {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut rec = Recorder::new(true);
        rec.time("click", |rec| {
            spin(200);
            rec.time("handle", |_| spin(300));
            rec.time("encode", |_| spin(100));
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let summary = rec.summary();
        assert_eq!(
            summary.iter().map(|r| r.0).collect::<Vec<_>>(),
            ["click", "handle", "encode"]
        );
        assert!(
            summary[0].3 < summary[0].2,
            "click's self time excludes its children"
        );
        let total = rec.durations_ns("click")[0];
        let own = rec.self_times_ns("click")[0];
        let children = rec.durations_ns("handle")[0] + rec.durations_ns("encode")[0];
        assert_eq!(own, total - children);
        assert!(own >= 200_000 && children >= 400_000);
    }

    #[test]
    fn batches_report_per_call_time() {
        let mut rec = Recorder::new(true);
        rec.time_batch("tiny", 10, || spin(20));
        let per_call = rec.durations_ns("tiny")[0];
        assert!(
            (20_000..60_000).contains(&per_call),
            "per-call {per_call} ns"
        );
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        rec.time("x", |rec| rec.time("y", |_| ()));
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn absorb_renumbers_ids_and_parents() {
        let mut a = Recorder::new(true);
        a.time("a", |_| ());
        let mut b = Recorder::new(true);
        b.time("outer", |b| b.time("inner", |_| ()));
        a.absorb(b);
        let s = a.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[1].id, s[1].parent), (1, None));
        assert_eq!((s[2].id, s[2].parent), (2, Some(1)));
        assert!(crate::json::parse(&a.to_json().to_line()).is_ok());
    }
}
