//! Model tests: the crate's shared atomic instruments driven through
//! every bounded interleaving by `rdht-check`. Compiled only under
//! `RUSTFLAGS='--cfg rdht_model' cargo test -p rdht-metrics` (the CI
//! `analysis` job); in that build [`crate::msync`] swaps the std sync
//! types for instrumented ones, so these tests exercise the *same source*
//! the production build runs.
//!
//! Each test asserts a linearizability-style invariant:
//!
//! * counter/gauge/histogram updates are exact — no interleaving loses an
//!   increment or an observation;
//! * `next_span_id` never hands out a duplicate.
//!
//! That the checker can fail at all is shown by its own litmus suite
//! (`crates/check/tests/litmus.rs`).

use rdht_check::{model, model_with, thread, Config};

use crate::span::next_span_id;
use crate::{Counter, Gauge, Histogram};

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
