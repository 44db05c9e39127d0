//! In-memory span recorder for the traced run.
//!
//! A span is one call into a simulator layer: its name, start and end
//! (seconds since the recorder started), its parent span and the timed
//! iteration it belongs to. Spans are kept per thread in memory and
//! taken out when the workload ends. With recording off, [`span`] is a
//! plain call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded layer call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub iteration: u32,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

struct Recorder {
    on: bool,
    iteration: u32,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        iteration: 0,
        origin: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Turns recording on (tagging new spans with `iteration`) or off.
pub fn record(on: bool, iteration: u32) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.on = on;
        r.iteration = iteration;
    });
}

/// Runs `f` as a span named `name` when recording is on.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return None;
        }
        let id = r.spans.len();
        let span = Span {
            name,
            start: r.origin.elapsed().as_secs_f64(),
            end: 0.0,
            parent: r.open.last().copied(),
            iteration: r.iteration,
        };
        r.spans.push(span);
        r.open.push(id);
        Some(id)
    });
    let out = f();
    if let Some(id) = id {
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            r.spans[id].end = r.origin.elapsed().as_secs_f64();
            r.open.pop();
        });
    }
    out
}

/// Takes every span recorded on this thread so far.
pub fn take() -> Vec<Span> {
    RECORDER.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Per-name totals over `spans`: `(duration, self time)` in seconds,
/// where self time is the duration minus the time covered by child
/// spans.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, (f64, f64)> {
    let mut child_time = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_time[p] += s.secs();
        }
    }
    let mut out: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
    for (s, child) in spans.iter().zip(child_time) {
        let e = out.entry(s.name).or_default();
        e.0 += s.secs();
        e.1 += s.secs() - child;
    }
    out
}

/// Renders spans as JSON lines, one object per span.
pub fn to_jsonl(spans: &[Span], workload: &str) -> String {
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{id},\"name\":\"{}\",\"start\":{:?},\"end\":{:?},\"parent\":{parent},\
             \"iteration\":{},\"workload\":\"{workload}\"}}\n",
            s.name, s.start, s.end, s.iteration
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        record(true, 1);
        span("outer", || {
            span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        record(false, 0);
        span("ignored", || ());
        let spans = take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let t = totals(&spans);
        let (outer_total, outer_self) = t["outer"];
        assert!(outer_total >= t["inner"].0);
        assert!(outer_self < outer_total);
        assert!(!t.contains_key("ignored"));
    }
}
