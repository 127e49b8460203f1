//! Causal spans: trace contexts, request trees and the slow-request log.
//!
//! The workspace's distributed tracing is built from three small pieces:
//!
//! * [`TraceContext`] — the identity carried *on the wire* with every
//!   sampled request (trace id, parent span, flags). It is deliberately
//!   tiny (17 bytes encoded) so an unsampled deployment pays one option
//!   tag per frame and nothing else.
//! * [`TraceConfig`] — the client-side sampling decision: a `sample_rate`
//!   in `[0, 1]` decides which operations carry a context, and a
//!   `slow_threshold` force-records any operation that turns out slow even
//!   when the sampler skipped it.
//! * [`SpanLog`] — the last N completed [`RequestTree`]s a peer served (or
//!   a client called), queried by the `SlowRequests` wire exchange to
//!   answer "where did the p99 go?" with a per-phase breakdown. It is a
//!   plain bounded queue: its one owner fills and reads it on one thread.
//!
//! Chrome-trace rendering stays in [`crate::TraceSink`]; spans recorded
//! there carry their trace id as an `args` entry so per-process sink files
//! can be merged by trace id.

use std::collections::VecDeque;
use std::time::Duration;

use crate::msync::{AtomicU64, Ordering};

/// The sampled-flag bit of [`TraceContext::flags`].
pub const FLAG_SAMPLED: u8 = 1;

/// The causal identity a sampled request carries across process boundaries.
///
/// `trace_id` names the whole end-to-end operation; `parent_span` is the
/// span id of the sender-side span the receiver's work is causally nested
/// under (0 = root); `flags` carries the sampling decision so every hop
/// agrees without re-rolling dice.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// Identity of the end-to-end operation, shared by every hop.
    pub trace_id: u64,
    /// Span id of the causal parent on the sending side (0 for the root).
    pub parent_span: u64,
    /// Bit flags; see [`FLAG_SAMPLED`].
    pub flags: u8,
}

impl TraceContext {
    /// A fresh sampled root context with the given trace id.
    pub fn sampled_root(trace_id: u64) -> Self {
        TraceContext {
            trace_id,
            parent_span: 0,
            flags: FLAG_SAMPLED,
        }
    }

    /// Whether the sampled bit is set — spans should be recorded.
    pub fn is_sampled(&self) -> bool {
        self.flags & FLAG_SAMPLED != 0
    }

    /// The context a child hop should carry: same trace and flags, nested
    /// under `parent_span`.
    pub fn child_of(&self, parent_span: u64) -> Self {
        TraceContext {
            trace_id: self.trace_id,
            parent_span,
            flags: self.flags,
        }
    }
}

/// Client-side sampling knobs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceConfig {
    /// Fraction of operations in `[0, 1]` that carry a [`TraceContext`].
    pub sample_rate: f64,
    /// Operations slower than this are span-recorded at the client even
    /// when the sampler skipped them, so an unlucky tail is never invisible.
    pub slow_threshold: Duration,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            sample_rate: 0.0,
            slow_threshold: Duration::from_millis(100),
        }
    }
}

impl TraceConfig {
    /// Sample every operation — what tests and the trace example use.
    pub fn always() -> Self {
        TraceConfig {
            sample_rate: 1.0,
            ..TraceConfig::default()
        }
    }
}

/// Process-global span-id allocator. Ids are unique within a process and
/// never 0 (0 means "no parent"); cross-process uniqueness is not needed
/// because spans are always interpreted next to their pid lane.
#[cfg(not(rdht_model))]
pub fn next_span_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    // relaxed: uniqueness comes from fetch_add atomicity alone; ids carry
    // no cross-location ordering (verified by the model build's
    // span_ids_stay_unique_across_threads).
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Model-build variant: model atomics are per-execution, so the allocator
/// lives in a per-execution [`rdht_check::lazy::Lazy`] instead of a plain
/// static.
#[cfg(rdht_model)]
pub fn next_span_id() -> u64 {
    static NEXT: rdht_check::lazy::Lazy<AtomicU64> =
        rdht_check::lazy::Lazy::new(|| AtomicU64::new(1));
    // relaxed: see the production variant above.
    NEXT.get().fetch_add(1, Ordering::Relaxed)
}

/// One completed request as its per-phase breakdown: the root span's name
/// and total duration plus every descendant phase, in causal order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestTree {
    /// The operation's trace id.
    pub trace_id: u64,
    /// Root span name (the request kind, by convention).
    pub name: String,
    /// Root span duration in microseconds — the request's wall time as
    /// observed by the recording process.
    pub total_us: u64,
    /// `(phase name, duration in µs)` of every phase, in causal order.
    pub phases: Vec<(String, u64)>,
}

impl RequestTree {
    /// Microseconds attributed to named phases — compare against
    /// [`RequestTree::total_us`] to see how much of the request's wall time
    /// the recorded phases explain. Nested phases double-count by design;
    /// callers wanting a partition should pick one level.
    pub fn attributed_us(&self) -> u64 {
        self.phases.iter().map(|(_, us)| *us).sum()
    }
}

/// A bounded log of the last N completed [`RequestTree`]s — the
/// slow-request log. Its one owner fills and reads it on one thread: a
/// peer pushes as it finishes a traced batch and reads when it serves a
/// `SlowRequests` scrape; a client pushes as it finishes a traced call.
#[derive(Debug)]
pub struct SpanLog {
    capacity: usize,
    trees: VecDeque<RequestTree>,
}

impl SpanLog {
    /// A log keeping the most recent `capacity` trees (at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        SpanLog {
            capacity,
            trees: VecDeque::with_capacity(capacity),
        }
    }

    /// Records one completed request tree, evicting the oldest at capacity.
    pub fn push(&mut self, tree: RequestTree) {
        if self.trees.len() == self.capacity {
            self.trees.pop_front();
        }
        self.trees.push_back(tree);
    }

    /// Number of retained trees.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    /// The `k` slowest retained trees, slowest first (ties broken by trace
    /// id for determinism).
    pub fn slowest(&self, k: usize) -> Vec<RequestTree> {
        let mut trees: Vec<RequestTree> = self.trees.iter().cloned().collect();
        trees.sort_by(|a, b| {
            b.total_us
                .cmp(&a.total_us)
                .then(a.trace_id.cmp(&b.trace_id))
        });
        trees.truncate(k);
        trees
    }
}

#[cfg(all(test, not(rdht_model)))]
mod tests {
    use super::*;

    #[test]
    fn context_flags_and_children() {
        let root = TraceContext::sampled_root(42);
        assert!(root.is_sampled());
        assert_eq!(root.parent_span, 0);
        let child = root.child_of(7);
        assert_eq!(child.trace_id, 42);
        assert_eq!(child.parent_span, 7);
        assert!(child.is_sampled());
    }

    #[test]
    fn span_ids_are_unique_and_nonzero() {
        let a = next_span_id();
        let b = next_span_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn span_log_keeps_the_last_n_and_ranks_by_duration() {
        let tree = |trace_id, total_us| RequestTree {
            trace_id,
            name: "req".into(),
            total_us,
            phases: vec![],
        };
        let mut log = SpanLog::new(3);
        for (id, total) in [(1u64, 10u64), (2, 50), (3, 20), (4, 40)] {
            log.push(tree(id, total));
        }
        // Capacity 3: tree 1 was evicted.
        assert_eq!(log.len(), 3);
        let slowest = log.slowest(2);
        assert_eq!(slowest[0].trace_id, 2);
        assert_eq!(slowest[1].trace_id, 4);
        assert_eq!(log.slowest(10).len(), 3);

        // Equal durations come back in trace-id order, whatever the push order.
        let mut ties = SpanLog::new(3);
        for id in [9u64, 5, 7] {
            ties.push(tree(id, 30));
        }
        let ids: Vec<u64> = ties.slowest(3).iter().map(|t| t.trace_id).collect();
        assert_eq!(ids, [5, 7, 9]);

        // Capacity 0 is raised to 1: the log keeps exactly the newest tree.
        let mut single = SpanLog::new(0);
        single.push(tree(1, 10));
        single.push(tree(2, 5));
        assert_eq!(single.len(), 1);
        assert_eq!(single.slowest(10)[0].trace_id, 2);
    }
}
