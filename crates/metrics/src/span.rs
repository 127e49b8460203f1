//! Causal spans: trace contexts, request trees and the per-peer
//! slow-request log.
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
//! * [`SpanLog`] — a bounded ring of the last N completed [`RequestTree`]s a
//!   peer served, queried by the `SlowRequests` wire exchange to answer
//!   "where did the p99 go?" with a per-phase breakdown.
//!
//! Chrome-trace rendering stays in [`crate::TraceSink`]; spans recorded
//! there carry their trace id as an `args` entry so per-process sink files
//! can be merged by trace id.

use std::time::Duration;

use crate::msync::{spin_yield, Arc, AtomicU64, Ordering, UnsafeCell};

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
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
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

/// One ring slot: a per-slot sequence lock over the payload.
///
/// `seq` is even when the slot is stable and odd while a writer (or a
/// scraping reader) holds it; it only ever grows. Mutual exclusion comes
/// from the CAS on `seq` being atomic; *visibility* of the payload comes
/// from the Acquire CAS / Release publication pair — that pair is exactly
/// what the model build's mutation test weakens to prove the checker can
/// catch a torn entry (see `SpanLog::push_weak_publication`).
struct Slot {
    seq: AtomicU64,
    data: UnsafeCell<Option<RequestTree>>,
}

struct Ring {
    slots: Vec<Slot>,
    /// Ticket counter; ticket `t` maps to slot `t % capacity`, so the ring
    /// overwrites oldest-first without any shared write cursor state
    /// beyond this one atomic.
    head: AtomicU64,
}

// SAFETY: the payload cells are only touched between a successful
// even->odd CAS on the owning slot's `seq` and the closing store — a
// critical section that excludes writers and scrapers alike. The model
// build proves the claim under every bounded interleaving
// (`model_tests::ring_never_yields_a_torn_entry`).
#[allow(unsafe_code)]
unsafe impl Send for Ring {}
#[allow(unsafe_code)]
unsafe impl Sync for Ring {}

#[allow(unsafe_code)]
impl Ring {
    /// Runs `f` on the slot's payload while holding its sequence lock.
    fn with_slot<R>(&self, index: usize, f: impl FnOnce(&mut Option<RequestTree>) -> R) -> R {
        let slot = &self.slots[index];
        let seq = loop {
            // relaxed: a stale (odd or already-bumped) value only costs a
            // retry; the CAS below re-validates against the live value.
            let seq = slot.seq.load(Ordering::Relaxed);
            if seq.is_multiple_of(2)
                && slot
                    .seq
                    // relaxed: failure ordering only — a lost race is just
                    // a retry.
                    .compare_exchange(seq, seq + 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                break seq;
            }
            spin_yield();
        };
        // SAFETY contract of `Ring`: `seq` is odd, so this thread is the
        // slot's only accessor until the closing store.
        let result = slot.data.with_mut(|p| f(unsafe { &mut *p }));
        slot.seq.store(seq + 2, Ordering::Release);
        result
    }
}

/// A bounded lock-free ring of the last N completed [`RequestTree`]s —
/// the peer-side slow-request log. Cloning shares the ring. Writers on
/// the request path never contend on a global lock: a push takes one
/// `fetch_add` ticket plus its target slot's sequence lock.
#[derive(Clone)]
pub struct SpanLog {
    ring: Arc<Ring>,
}

impl std::fmt::Debug for SpanLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanLog")
            .field("capacity", &self.ring.slots.len())
            .field("len", &self.len())
            .finish()
    }
}

impl SpanLog {
    /// A log keeping the most recent `capacity` trees (at least 1).
    pub fn new(capacity: usize) -> Self {
        let slots = (0..capacity.max(1))
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                data: UnsafeCell::new(None),
            })
            .collect();
        SpanLog {
            ring: Arc::new(Ring {
                slots,
                head: AtomicU64::new(0),
            }),
        }
    }

    /// Records one completed request tree, evicting the oldest at capacity.
    pub fn push(&self, tree: RequestTree) {
        // relaxed: the ticket needs only fetch_add atomicity for
        // uniqueness; payload visibility is carried by the slot's
        // Acquire/Release sequence lock, not by this counter.
        let ticket = self.ring.head.fetch_add(1, Ordering::Relaxed);
        let index = (ticket % self.ring.slots.len() as u64) as usize;
        self.ring.with_slot(index, |slot| *slot = Some(tree));
    }

    /// Number of retained trees.
    pub fn len(&self) -> usize {
        (0..self.ring.slots.len())
            .filter(|&i| self.ring.with_slot(i, |slot| slot.is_some()))
            .count()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `k` slowest retained trees, slowest first (ties broken by trace
    /// id for determinism).
    pub fn slowest(&self, k: usize) -> Vec<RequestTree> {
        let mut trees: Vec<RequestTree> = (0..self.ring.slots.len())
            .filter_map(|i| self.ring.with_slot(i, |slot| slot.clone()))
            .collect();
        trees.sort_by(|a, b| {
            b.total_us
                .cmp(&a.total_us)
                .then(a.trace_id.cmp(&b.trace_id))
        });
        trees.truncate(k);
        trees
    }
}

/// Mutation-test hooks, model build only: deliberately weakened push
/// variants that `model_tests::weak_publication_is_caught` proves the
/// checker rejects. Production builds do not compile these.
#[cfg(rdht_model)]
#[allow(unsafe_code)]
impl SpanLog {
    /// `push` with the closing slot store downgraded to `Relaxed`: the
    /// payload write is no longer released to the next slot holder, so a
    /// concurrent scraper may observe a torn entry. The model checker
    /// reports it as an `UnsafeCell` data race.
    pub fn push_weak_publication(&self, tree: RequestTree) {
        // relaxed: ticket draw, same as `push`.
        let ticket = self.ring.head.fetch_add(1, Ordering::Relaxed);
        let index = (ticket % self.ring.slots.len() as u64) as usize;
        let slot = &self.ring.slots[index];
        let seq = loop {
            // relaxed: stale reads only cost a retry, same as `with_slot`.
            let seq = slot.seq.load(Ordering::Relaxed);
            if seq.is_multiple_of(2)
                && slot
                    .seq
                    // relaxed: failure ordering only, same as `with_slot`.
                    .compare_exchange(seq, seq + 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                break seq;
            }
            spin_yield();
        };
        slot.data.with_mut(|p| unsafe { *p = Some(tree) });
        // relaxed: THE SEEDED BUG — the publication store must be Release;
        // this is the weakening the mutation test proves the checker
        // catches.
        slot.seq.store(seq + 2, Ordering::Relaxed);
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
        let log = SpanLog::new(3);
        for (id, total) in [(1u64, 10u64), (2, 50), (3, 20), (4, 40)] {
            log.push(RequestTree {
                trace_id: id,
                name: "req".into(),
                total_us: total,
                phases: vec![],
            });
        }
        // Capacity 3: tree 1 was evicted.
        assert_eq!(log.len(), 3);
        let slowest = log.slowest(2);
        assert_eq!(slowest[0].trace_id, 2);
        assert_eq!(slowest[1].trace_id, 4);
        assert_eq!(log.slowest(10).len(), 3);
    }
}
