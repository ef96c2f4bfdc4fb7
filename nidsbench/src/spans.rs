//! Benchmark-side tracing: spans recorded around calls into the program's
//! public functions, never inside the program.
//!
//! Each thread keeps its spans in a thread-local buffer. A thread hands
//! its buffer to a shared collection when it exits (pipeline workers) or
//! when it calls [`take_all`] (the benchmark's own thread), so recording a
//! span takes no lock.

use mpm_patterns::{MatchEvent, Matcher, MatcherStats, MemoryFootprint};
use mpm_stream::SharedMatcher;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// The layer a span was recorded at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// One `Matcher::find_into` call on a compiled engine.
    Engine,
    /// One `StreamScanner::push` / `GroupedFlowScanner::push` call.
    Push,
}

/// One recorded span: nanoseconds since the process's trace epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// The layer the span covers.
    pub layer: Layer,
    /// Index of the recording thread (spans nest only within a thread).
    pub thread: u32,
    /// Start, in nanoseconds since the epoch.
    pub start: u64,
    /// End, in nanoseconds since the epoch.
    pub end: u64,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn collected() -> &'static Mutex<Vec<Span>> {
    static COLLECTED: Mutex<Vec<Span>> = Mutex::new(Vec::new());
    &COLLECTED
}

struct ThreadSpans {
    thread: u32,
    spans: Vec<Span>,
}

impl Drop for ThreadSpans {
    fn drop(&mut self) {
        // A poisoned lock means another thread panicked while appending;
        // the spans it left are still whole, so keep collecting.
        let mut all = collected().lock().unwrap_or_else(|e| e.into_inner());
        all.append(&mut self.spans);
    }
}

thread_local! {
    static SPANS: RefCell<ThreadSpans> = RefCell::new(ThreadSpans {
        thread: {
            static NEXT: AtomicU64 = AtomicU64::new(0);
            NEXT.fetch_add(1, Ordering::Relaxed) as u32
        },
        spans: Vec::new(),
    });
}

/// Records a span that started at `start` and ends now.
pub fn record(layer: Layer, start: Instant) {
    let end = Instant::now();
    let base = epoch();
    let start = start.saturating_duration_since(base).as_nanos() as u64;
    let end = end.saturating_duration_since(base).as_nanos() as u64;
    SPANS.with(|s| {
        let mut s = s.borrow_mut();
        let thread = s.thread;
        s.spans.push(Span {
            layer,
            thread,
            start,
            end,
        });
    });
}

/// Takes every span recorded so far: the calling thread's and those of
/// threads that have exited.
pub fn take_all() -> Vec<Span> {
    let mut own = SPANS.with(|s| std::mem::take(&mut s.borrow_mut().spans));
    let mut all = collected().lock().unwrap_or_else(|e| e.into_inner());
    own.append(&mut all);
    own
}

/// Per-layer totals of a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Summed span durations, nanoseconds.
    pub total_ns: u64,
    /// Summed durations minus the time covered by nested child spans.
    pub self_ns: u64,
}

/// Totals for `layer`: a span's self time is its duration minus the part
/// of it its directly nested spans (same thread) cover.
pub fn totals(spans: &[Span], layer: Layer) -> LayerTotals {
    let mut sorted: Vec<Span> = spans.to_vec();
    // Parents before children: by thread, start, then longest first.
    sorted.sort_by_key(|s| (s.thread, s.start, std::cmp::Reverse(s.end)));
    let mut self_ns = vec![0u64; sorted.len()];
    let mut stack: Vec<usize> = Vec::new();
    for i in 0..sorted.len() {
        let s = sorted[i];
        self_ns[i] = s.end - s.start;
        while let Some(&top) = stack.last() {
            let p = sorted[top];
            if p.thread == s.thread && s.end <= p.end {
                break;
            }
            stack.pop();
        }
        if let Some(&parent) = stack.last() {
            self_ns[parent] = self_ns[parent].saturating_sub(s.end - s.start);
        }
        stack.push(i);
    }
    let mut out = LayerTotals::default();
    for (i, s) in sorted.iter().enumerate() {
        if s.layer == layer {
            out.total_ns += s.end - s.start;
            out.self_ns += self_ns[i];
        }
    }
    out
}

/// Engine call and byte counts, shared by every [`TracedEngine`] of one
/// compile product.
#[derive(Debug, Default)]
pub struct EngineCounts {
    calls: AtomicU64,
    bytes: AtomicU64,
}

impl EngineCounts {
    /// `(calls, bytes)` so far.
    pub fn get(&self) -> (u64, u64) {
        (
            self.calls.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
        )
    }
}

/// A `Matcher` that forwards to a compiled engine, counting each call and
/// the bytes handed to it and recording an [`Layer::Engine`] span.
pub struct TracedEngine {
    inner: SharedMatcher,
    counts: Arc<EngineCounts>,
}

impl TracedEngine {
    /// Wraps `inner`, adding its calls to `counts`.
    pub fn wrap(inner: SharedMatcher, counts: Arc<EngineCounts>) -> SharedMatcher {
        Arc::new(TracedEngine { inner, counts })
    }
}

impl Matcher for TracedEngine {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn max_pattern_len(&self) -> usize {
        self.inner.max_pattern_len()
    }

    fn find_into(&self, haystack: &[u8], out: &mut Vec<MatchEvent>) {
        let start = Instant::now();
        self.inner.find_into(haystack, out);
        record(Layer::Engine, start);
        // Statistics only: no other data is published through these.
        self.counts.calls.fetch_add(1, Ordering::Relaxed);
        self.counts
            .bytes
            .fetch_add(haystack.len() as u64, Ordering::Relaxed);
    }

    fn scan_with_stats(&self, haystack: &[u8]) -> MatcherStats {
        self.inner.scan_with_stats(haystack)
    }

    fn heap_bytes(&self) -> usize {
        self.inner.heap_bytes()
    }

    fn memory_footprint(&self) -> MemoryFootprint {
        self.inner.memory_footprint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, thread: u32, start: u64, end: u64) -> Span {
        Span {
            layer,
            thread,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_spans_of_the_same_thread_only() {
        let spans = [
            span(Layer::Push, 0, 0, 100),
            span(Layer::Engine, 0, 10, 30),
            span(Layer::Engine, 0, 40, 90),
            span(Layer::Push, 0, 100, 110),
            // Another thread's span overlapping in time is not a child.
            span(Layer::Engine, 1, 5, 50),
        ];
        let push = totals(&spans, Layer::Push);
        assert_eq!((push.total_ns, push.self_ns), (110, 30 + 10));
        let engine = totals(&spans, Layer::Engine);
        assert_eq!((engine.total_ns, engine.self_ns), (115, 115));
    }
}
