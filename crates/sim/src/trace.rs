//! Lightweight event tracing for simulated devices.
//!
//! Devices record coarse events (a seek, a label-check failure, a page
//! allocation retry) into a shared [`Trace`]. Tests use the trace to assert
//! on *mechanism*, not just outcome — e.g. that freeing a page cost exactly
//! one extra disk revolution, or that a hint miss fell back to a directory
//! lookup. Tracing is on by default and the buffer is bounded; wall-clock
//! benchmarks may gate it off with [`Trace::set_enabled`] so the hot paths
//! skip event formatting entirely (see [`Trace::record_with`]).

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use crate::clock::SimTime;

/// One traced event: a timestamp, a category tag, and a short description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time at which the event occurred.
    pub at: SimTime,
    /// Category tag, e.g. `"disk.seek"` or `"fs.hint_miss"`.
    pub tag: &'static str,
    /// Free-form detail for humans and tests.
    pub detail: String,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.at, self.tag, self.detail)
    }
}

const DEFAULT_CAPACITY: usize = 64 * 1024;

/// A shared, bounded event log.
///
/// Clones share the same buffer (and the same enabled gate). When the buffer
/// fills, the oldest events are dropped (tests that care run on fresh traces,
/// and counters are never dropped). Devices record from the one thread that
/// drives the simulation.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    shared: Arc<Shared>,
}

#[derive(Debug)]
struct Shared {
    inner: Mutex<Inner>,
    enabled: AtomicBool,
}

impl Default for Shared {
    fn default() -> Self {
        Shared {
            inner: Mutex::new(Inner::default()),
            enabled: AtomicBool::new(true),
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl Trace {
    /// Creates an empty trace (enabled).
    pub fn new() -> Self {
        Trace::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A poisoned trace buffer cannot corrupt simulation state (it holds
        // only diagnostics), so recording continues past a panicked peer.
        match self.shared.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// True when recording is on (the default).
    pub fn enabled(&self) -> bool {
        self.shared.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off for every clone of this trace.
    ///
    /// While off, [`Trace::record`] and [`Trace::record_with`] are no-ops
    /// that skip detail formatting — the wall-clock benchmark's ablation
    /// switch. Buffered events are kept.
    pub fn set_enabled(&self, on: bool) {
        self.shared.enabled.store(on, Ordering::Relaxed);
    }

    /// Records an event.
    pub fn record(&self, at: SimTime, tag: &'static str, detail: impl Into<String>) {
        if !self.enabled() {
            return;
        }
        self.push(at, tag, detail.into());
    }

    /// Records an event, building the detail string lazily.
    ///
    /// Hot paths use this so a disabled trace costs one relaxed atomic load
    /// — no `format!`, no allocation.
    pub fn record_with(&self, at: SimTime, tag: &'static str, detail: impl FnOnce() -> String) {
        if !self.enabled() {
            return;
        }
        self.push(at, tag, detail());
    }

    fn push(&self, at: SimTime, tag: &'static str, detail: String) {
        let mut inner = self.lock();
        if inner.events.len() >= DEFAULT_CAPACITY {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        inner.events.push_back(TraceEvent { at, tag, detail });
    }

    /// Number of recorded events with the given tag.
    pub fn count(&self, tag: &str) -> usize {
        self.lock().events.iter().filter(|e| e.tag == tag).count()
    }

    /// Total number of events currently buffered.
    pub fn len(&self) -> usize {
        self.lock().events.len()
    }

    /// True if no events have been recorded (and none dropped).
    pub fn is_empty(&self) -> bool {
        let inner = self.lock();
        inner.events.is_empty() && inner.dropped == 0
    }

    /// A snapshot of all buffered events (oldest first).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.lock().events.iter().cloned().collect()
    }

    /// Events matching `tag`, oldest first.
    pub fn events_tagged(&self, tag: &str) -> Vec<TraceEvent> {
        self.lock()
            .events
            .iter()
            .filter(|e| e.tag == tag)
            .cloned()
            .collect()
    }

    /// Discards all buffered events and resets the dropped counter.
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.events.clear();
        inner.dropped = 0;
    }

    /// Number of events lost to the capacity bound since the last clear.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_count() {
        let t = Trace::new();
        assert!(t.is_empty());
        t.record(SimTime::from_millis(1), "disk.seek", "cyl 0 -> 5");
        t.record(SimTime::from_millis(2), "disk.seek", "cyl 5 -> 6");
        t.record(SimTime::from_millis(3), "disk.read", "sector 12");
        assert_eq!(t.count("disk.seek"), 2);
        assert_eq!(t.count("disk.read"), 1);
        assert_eq!(t.count("nope"), 0);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn clones_share_the_buffer() {
        let t = Trace::new();
        let t2 = t.clone();
        t2.record(SimTime::ZERO, "x", "from clone");
        assert_eq!(t.count("x"), 1);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let t = Trace::new();
        assert!(t.enabled());
        t.set_enabled(false);
        let t2 = t.clone();
        assert!(!t2.enabled());
        t.record(SimTime::ZERO, "a", "eager");
        t2.record_with(SimTime::ZERO, "b", || panic!("must not format"));
        assert!(t.is_empty());
        t.set_enabled(true);
        t.record_with(SimTime::ZERO, "c", || "lazy".to_string());
        assert_eq!(t.count("c"), 1);
    }

    #[test]
    fn trace_handle_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Trace>();
    }

    #[test]
    fn events_tagged_filters_in_order() {
        let t = Trace::new();
        t.record(SimTime::from_micros(1), "a", "first");
        t.record(SimTime::from_micros(2), "b", "middle");
        t.record(SimTime::from_micros(3), "a", "last");
        let evs = t.events_tagged("a");
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].detail, "first");
        assert_eq!(evs[1].detail, "last");
    }

    #[test]
    fn clear_resets() {
        let t = Trace::new();
        t.record(SimTime::ZERO, "a", "x");
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn display_includes_tag_and_detail() {
        let e = TraceEvent {
            at: SimTime::from_millis(40),
            tag: "disk.rev",
            detail: "extra revolution".into(),
        };
        let s = e.to_string();
        assert!(s.contains("disk.rev"));
        assert!(s.contains("extra revolution"));
    }

    #[test]
    fn capacity_bound_drops_oldest() {
        let t = Trace::new();
        for i in 0..(super::DEFAULT_CAPACITY as u64 + 10) {
            t.record(SimTime::from_nanos(i), "x", i.to_string());
        }
        assert_eq!(t.len(), super::DEFAULT_CAPACITY);
        assert_eq!(t.dropped(), 10);
        assert!(!t.is_empty());
        // The oldest surviving event is number 10.
        assert_eq!(t.events()[0].detail, "10");
        t.clear();
        assert_eq!(t.dropped(), 0);
    }
}
