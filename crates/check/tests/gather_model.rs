//! Models the slot / fill / close protocol of `rdht_net::Gather`, the
//! countdown latch a scatter-gather client call blocks on: reply paths on
//! other threads *fill* numbered slots, the waiter *closes* the gather and
//! takes the slots — when the countdown reached zero, or when its deadline
//! passed, which the model renders as "at any point whatsoever".
//!
//! The properties the client relies on, checked over every interleaving:
//!
//! * a slot holds the **first** outcome offered to it (a transport error
//!   recorded before the rejected sink's own teardown fill, a duplicate
//!   delivery) and never changes afterwards;
//! * nothing lands after the close — a late reply is discarded, it cannot
//!   resurrect the taken slots or touch a later exchange;
//! * the countdown reaches zero exactly when every slot is filled, so
//!   exactly one fill wakes the waiter, and a waiter that closes after that
//!   wake-up sees every slot filled.
//!
//! The second half pins down *why* the closed flag is there: the same
//! protocol without it lets a late fill land after the waiter collected.

use rdht_check::sync::{Arc, Mutex};
use rdht_check::{model, model_expect_violation, thread, Config};

#[derive(Default)]
struct State {
    slots: Vec<Option<u64>>,
    remaining: usize,
    closed: bool,
    /// Fills that landed after the close (must stay 0).
    landed_late: usize,
}

struct Gather {
    state: Mutex<State>,
    /// Whether a fill honours `closed` — `false` is the broken variant.
    checks_closed: bool,
}

impl Gather {
    fn new(slots: usize, checks_closed: bool) -> Arc<Self> {
        Arc::new(Gather {
            state: Mutex::new(State {
                slots: vec![None; slots],
                remaining: slots,
                ..State::default()
            }),
            checks_closed,
        })
    }

    /// Offers `value` to slot `index`; returns whether this fill took the
    /// countdown to zero (the one that wakes the waiter).
    fn fill(&self, index: usize, value: u64) -> bool {
        let mut state = self.state.lock().unwrap();
        if self.checks_closed && state.closed {
            return false;
        }
        if state.closed {
            state.landed_late += 1;
            return false;
        }
        if state.slots[index].is_some() {
            return false;
        }
        state.slots[index] = Some(value);
        state.remaining -= 1;
        state.remaining == 0
    }

    /// The waiter gives up waiting (deadline or wake-up) and collects.
    fn close(&self) -> (Vec<Option<u64>>, usize) {
        let mut state = self.state.lock().unwrap();
        state.closed = true;
        (std::mem::take(&mut state.slots), state.remaining)
    }
}

/// Two reply paths race the waiter's close. Path A answers slot 0; path B
/// offers slot 1 twice (the transport-error fill followed by the rejected
/// sink's teardown fill).
fn exchange(checks_closed: bool) {
    let gather = Gather::new(2, checks_closed);
    let (a, b) = (Arc::clone(&gather), Arc::clone(&gather));
    let path_a = thread::spawn(move || a.fill(0, 10));
    let path_b = thread::spawn(move || {
        let first = b.fill(1, 21);
        let second = b.fill(1, 22);
        assert!(!second, "a repeated fill can never be the waking one");
        first
    });
    let (slots, remaining) = gather.close();
    let woke_a = path_a.join().unwrap();
    let woke_b = path_b.join().unwrap();

    assert!(
        matches!(slots[0], None | Some(10)),
        "slot 0 holds {:?}",
        slots[0]
    );
    assert!(
        matches!(slots[1], None | Some(21)),
        "slot 1 must keep the first outcome offered, holds {:?}",
        slots[1]
    );
    let empty = slots.iter().filter(|slot| slot.is_none()).count();
    assert_eq!(
        remaining, empty,
        "the countdown is the number of empty slots"
    );
    assert!(
        !(woke_a && woke_b),
        "the countdown reached zero twice: two wake-ups for one waiter"
    );
    if empty == 0 {
        assert!(
            woke_a || woke_b,
            "every slot filled but nobody woke the waiter"
        );
    } else {
        assert!(
            !woke_a && !woke_b,
            "a wake-up with {empty} slot(s) still empty"
        );
    }
    let state = gather.state.lock().unwrap();
    assert!(state.slots.is_empty(), "a fill resurrected the taken slots");
    assert_eq!(state.landed_late, 0, "a reply landed after the close");
}

#[test]
fn slots_take_first_outcome_and_nothing_lands_after_close() {
    model(|| exchange(true));
}

#[test]
fn without_the_closed_flag_a_late_reply_lands() {
    let failure = model_expect_violation(Config::default(), || exchange(false));
    assert!(
        failure.contains("landed after the close"),
        "expected the late-fill interleaving, got:\n{failure}"
    );
}
