//! In-memory span recorder for the traced run, and the self-time
//! arithmetic the per-layer metrics are computed with.
//!
//! A span is a named wall-clock interval with an optional parent and the
//! step or request id it belongs to. The recorder is a process-wide list
//! that is switched on only for the traced run: while it is off,
//! [`Recorder::open`] returns `None` without reading the clock, so the
//! bench's wrappers cost a branch on the untraced path. A span opened
//! while another is open on the same thread becomes its child.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded interval, in nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `ntcp.execute`.
    pub name: &'static str,
    /// Start, ns since epoch.
    pub start_ns: u64,
    /// End, ns since epoch.
    pub end_ns: u64,
    /// Index of the parent span in the recorder, if any.
    pub parent: Option<usize>,
    /// Step number or request id the span belongs to.
    pub id: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The process-wide recorder.
pub struct Recorder {
    on: AtomicBool,
    epoch: Instant,
    current_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// Indices of the spans this thread has open, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

impl Recorder {
    /// The global recorder (created off).
    pub fn global() -> &'static Recorder {
        static REC: OnceLock<Recorder> = OnceLock::new();
        REC.get_or_init(|| Recorder {
            on: AtomicBool::new(false),
            epoch: Instant::now(),
            current_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Switch recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Nanoseconds since the recorder's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Set the step or request id that spans opened from now on carry.
    pub fn set_current_id(&self, id: u64) {
        self.current_id.store(id, Ordering::Relaxed);
    }

    /// Open a span under the innermost span this thread has open, or
    /// return `None` without reading the clock when recording is off.
    pub fn open(&self, name: &'static str) -> Option<usize> {
        if !self.enabled() {
            return None;
        }
        let parent = OPEN.with(|open| open.borrow().last().copied());
        let start_ns = self.now_ns();
        let index = self.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id: self.current_id.load(Ordering::Relaxed),
        });
        OPEN.with(|open| open.borrow_mut().push(index));
        Some(index)
    }

    /// Close a span returned by [`Recorder::open`]. Spans close in the
    /// reverse order they were opened on their thread.
    pub fn close(&self, span: Option<usize>) {
        let Some(index) = span else { return };
        let end_ns = self.now_ns();
        OPEN.with(|open| {
            let popped = open.borrow_mut().pop();
            debug_assert_eq!(popped, Some(index), "spans must close innermost first");
        });
        if let Some(s) = self
            .spans
            .lock()
            .expect("span list poisoned by a panic")
            .get_mut(index)
        {
            s.end_ns = end_ns;
        }
    }

    /// Append a finished span and return its index.
    pub fn push(&self, span: Span) -> usize {
        let mut spans = self.spans.lock().expect("span list poisoned by a panic");
        spans.push(span);
        spans.len() - 1
    }

    /// Take every span recorded so far, leaving the list empty. Call it
    /// only when no span is open.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span list poisoned by a panic"))
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `children`,
/// each clipped to that interval first.
pub fn covered_ns(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of a parent interval: its duration minus the part of it
/// that the union of its children covers.
pub fn self_ns(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    end.saturating_sub(start) - covered_ns(start, end, children)
}

/// Self time of every span, indexed like `spans`: each span's duration
/// minus the union of its direct children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, c)| self_ns(s.start_ns, s.end_ns, c))
        .collect()
}

/// Render spans as JSON lines (name, start, end, parent, id).
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"i\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}\n",
            s.name, s.start_ns, s.end_ns, s.id
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Parent [0, 100); children [10, 30) and [20, 50) overlap on
        // [20, 30), so together they cover [10, 50) = 40 ns, not 50.
        assert_eq!(self_ns(0, 100, &[(10, 30), (20, 50)]), 60);
        // A nested child adds nothing; a disjoint one adds its length.
        assert_eq!(self_ns(0, 100, &[(10, 50), (20, 30), (60, 70)]), 50);
        // Children are clipped to the parent interval.
        assert_eq!(self_ns(10, 20, &[(0, 15), (18, 40)]), 3);
        // Touching intervals merge without double counting.
        assert_eq!(covered_ns(0, 100, &[(0, 10), (10, 20)]), 20);
        assert_eq!(self_ns(5, 5, &[]), 0);
        assert_eq!(self_ns(0, 10, &[(20, 30)]), 10);
    }

    #[test]
    fn self_times_follow_parent_links() {
        let spans = vec![
            Span {
                name: "step",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                id: 0,
            },
            Span {
                name: "ntcp",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                id: 0,
            },
            Span {
                name: "plugin",
                start_ns: 20,
                end_ns: 30,
                parent: Some(1),
                id: 0,
            },
            Span {
                name: "ntcp",
                start_ns: 35,
                end_ns: 60,
                parent: Some(0),
                id: 0,
            },
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 10, 25]);
        let lines = to_jsonl(&spans);
        assert_eq!(lines.lines().count(), 4);
        assert!(lines.contains("\"parent\":null"));
    }
}
