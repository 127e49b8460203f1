//! Model tests: the crate's lock-free structures driven through every
//! bounded interleaving by `rdht-check`. Compiled only under
//! `RUSTFLAGS='--cfg rdht_model' cargo test -p rdht-metrics` (the CI
//! `analysis` job); in that build [`crate::msync`] swaps the std sync
//! types for instrumented ones, so these tests exercise the *same source*
//! the production build runs.
//!
//! Each test asserts a linearizability-style invariant:
//!
//! * counter/gauge/histogram updates are exact — no interleaving loses an
//!   increment or an observation;
//! * `next_span_id` never hands out a duplicate;
//! * the `SpanLog` ring never yields a torn entry, under racing pushers
//!   and under a push racing a scrape;
//! * and — the mutation test — with the ring's Release publication
//!   deliberately weakened to Relaxed, the checker *does* report the torn
//!   entry, proving the tool can fail.

use rdht_check::{model, model_expect_violation, model_with, thread, Config};

use crate::span::next_span_id;
use crate::{Counter, Gauge, Histogram, RequestTree, SpanLog};

fn tree(trace_id: u64, name: &str, total_us: u64) -> RequestTree {
    RequestTree {
        trace_id,
        name: name.to_string(),
        total_us,
        phases: vec![(format!("{name}.phase"), total_us / 2)],
    }
}

/// A tree is intact when its fields are the consistent triple it was
/// built from — any cross-contamination between concurrently pushed trees
/// is a torn entry.
fn assert_intact(t: &RequestTree) {
    assert_eq!(t.name, format!("req{}", t.trace_id), "torn entry: {t:?}");
    assert_eq!(t.total_us, t.trace_id * 100, "torn entry: {t:?}");
    assert_eq!(
        t.phases,
        vec![(format!("req{}.phase", t.trace_id), t.trace_id * 50)],
        "torn entry: {t:?}"
    );
}

fn intact_tree(trace_id: u64) -> RequestTree {
    tree(trace_id, &format!("req{trace_id}"), trace_id * 100)
}

#[test]
fn counter_increments_are_exact() {
    let report = model_with(Config::default(), || {
        let counter = Counter::new();
        let (c2, c3) = (counter.clone(), counter.clone());
        let t2 = thread::spawn(move || c2.inc());
        let t3 = thread::spawn(move || c3.add(3));
        counter.inc();
        t2.join().unwrap();
        t3.join().unwrap();
        assert_eq!(counter.get(), 5, "lost counter update");
    });
    assert!(report.schedules >= 3, "saw {} schedules", report.schedules);
}

#[test]
fn gauge_signed_updates_are_exact() {
    model(|| {
        let gauge = Gauge::new();
        let g2 = gauge.clone();
        let t = thread::spawn(move || g2.add(-4));
        gauge.add(7);
        t.join().unwrap();
        assert_eq!(gauge.get(), 3, "lost gauge update");
    });
}

#[test]
fn histogram_observations_are_exact() {
    model(|| {
        let hist = Histogram::with_buckets(vec![10]);
        let h2 = hist.clone();
        let t = thread::spawn(move || h2.observe(5));
        hist.observe(50);
        t.join().unwrap();
        let snap = hist.snapshot();
        assert_eq!(snap.count, 2, "lost observation");
        assert_eq!(snap.sum, 55, "lost sum update");
        assert_eq!(snap.counts, vec![1, 1], "observation in wrong bucket");
    });
}

#[test]
fn span_ids_stay_unique_across_threads() {
    model(|| {
        let t = thread::spawn(next_span_id);
        let mine = next_span_id();
        let theirs = t.join().unwrap();
        assert_ne!(mine, 0);
        assert_ne!(theirs, 0);
        assert_ne!(mine, theirs, "duplicate span id");
    });
}

#[test]
fn ring_never_yields_a_torn_entry() {
    let report = model_with(Config::default(), || {
        let log = SpanLog::new(2);
        let l2 = log.clone();
        let t = thread::spawn(move || l2.push(intact_tree(1)));
        log.push(intact_tree(2));
        t.join().unwrap();
        let trees = log.slowest(10);
        assert_eq!(trees.len(), 2);
        for t in &trees {
            assert_intact(t);
        }
    });
    assert!(report.schedules >= 3, "saw {} schedules", report.schedules);
}

#[test]
fn contended_slot_keeps_exactly_one_intact_entry() {
    // Capacity 1: both pushers fight over the same slot; whichever lands
    // last must still be intact, and the loser fully evicted.
    model(|| {
        let log = SpanLog::new(1);
        let l2 = log.clone();
        let t = thread::spawn(move || l2.push(intact_tree(1)));
        log.push(intact_tree(2));
        t.join().unwrap();
        let trees = log.slowest(10);
        assert_eq!(trees.len(), 1);
        assert_intact(&trees[0]);
    });
}

#[test]
fn scrape_racing_a_push_sees_whole_entries_only() {
    model(|| {
        let log = SpanLog::new(1);
        let l2 = log.clone();
        let t = thread::spawn(move || l2.push(intact_tree(1)));
        // Scrape while the push may be mid-flight.
        for tree in log.slowest(10) {
            assert_intact(&tree);
        }
        t.join().unwrap();
        let after = log.slowest(10);
        assert_eq!(after.len(), 1);
        assert_intact(&after[0]);
    });
}

/// The mutation test: `push_weak_publication` downgrades the slot's
/// Release publication store to Relaxed. The scheduler must find the torn
/// entry (surfacing as an `UnsafeCell` data race between the writer's
/// payload write and the next accessor) within the default preemption
/// bound — proving the checker can fail, and that the Release/Acquire
/// pair on `Slot::seq` is load-bearing.
#[test]
fn weak_publication_is_caught() {
    let failure = model_expect_violation(Config::default(), || {
        let log = SpanLog::new(1);
        let l2 = log.clone();
        let t = thread::spawn(move || l2.push_weak_publication(intact_tree(1)));
        log.push(intact_tree(2));
        t.join().unwrap();
    });
    assert!(failure.contains("data race"), "{failure}");
    assert!(failure.contains("span.rs"), "{failure}");
}
