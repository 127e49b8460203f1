//! Cost accounting records returned by overlay operations.
//!
//! The paper's evaluation reports two metrics: response time and number of
//! messages. The overlays do not know about wall-clock or simulated time —
//! they only return *counts* (hops, timeouts, maintenance messages) that the
//! environment (simulator or threaded deployment) prices with its own network
//! model.

use crate::id::NodeId;

/// Why a lookup could not complete.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LookupError {
    /// The node issuing the lookup is not a live member of the overlay.
    OriginNotAlive,
    /// The overlay has no live members at all.
    EmptyOverlay,
    /// Routing gave up after exhausting the configured retry budget; the
    /// overlay was too damaged (e.g. extreme failure rates) to make progress.
    RoutingExhausted {
        /// Messages spent before giving up.
        messages: u32,
        /// Timeouts observed before giving up.
        timeouts: u32,
    },
}

impl std::fmt::Display for LookupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LookupError::OriginNotAlive => write!(f, "lookup origin is not a live overlay member"),
            LookupError::EmptyOverlay => write!(f, "overlay has no live members"),
            LookupError::RoutingExhausted { messages, timeouts } => write!(
                f,
                "routing exhausted after {messages} messages and {timeouts} timeouts"
            ),
        }
    }
}

impl std::error::Error for LookupError {}

/// The result of routing a lookup for some target identifier.
///
/// Plain counters only — the record is `Copy` and the routing path is not
/// materialized, so issuing a lookup performs no allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LookupOutcome {
    /// The live peer currently responsible for the target identifier.
    pub responsible: NodeId,
    /// Number of routing hops (request messages) used, including the final
    /// hop to the responsible. A locally resolved lookup has zero hops.
    pub hops: u32,
    /// Number of timeouts suffered while probing peers that turned out to be
    /// dead (stale fingers or successors).
    pub timeouts: u32,
}

impl LookupOutcome {
    /// Total number of messages: one per hop plus one per timed-out probe.
    pub fn messages(&self) -> u32 {
        self.hops + self.timeouts
    }
}

/// The kind of membership change that produced a [`MembershipOutcome`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MembershipEventKind {
    /// A new peer joined the overlay.
    Join,
    /// A peer left gracefully (announced its departure and handed over state).
    Leave,
    /// A peer failed (fail-stop, no hand-over).
    Fail,
}

/// A transfer of responsibility for part of the identifier space from one
/// peer to another.
///
/// For a **join**, `from` is the previous responsible (still alive; this is
/// the "RLA" detection point of Section 4.3) and `to` is the new peer.
/// For a graceful **leave**, `from` is the departing peer and `to` the peer
/// that absorbs its identifiers; the environment uses this to run the
/// *direct* counter-transfer algorithm and to hand replicas over.
/// For a **fail**, `from` is the dead peer and `handover_possible` is false:
/// no state can be copied and KTS must later fall back to the *indirect*
/// algorithm.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResponsibilityChange {
    /// The peer that was responsible before the change.
    pub from: NodeId,
    /// The peer that is responsible after the change.
    pub to: NodeId,
    /// Ring interval `(range_start, range_end]` whose responsibility moved.
    pub range_start: u64,
    /// End (inclusive) of the moved interval.
    pub range_end: u64,
    /// Whether `from` was able to hand state over (true for join/leave,
    /// false for failures).
    pub handover_possible: bool,
    /// What caused the change.
    pub kind: MembershipEventKind,
}

impl ResponsibilityChange {
    /// Whether a key position falls inside the moved range.
    pub fn covers(&self, position: u64) -> bool {
        crate::id::in_open_closed_interval(self.range_start, self.range_end, position)
    }
}

/// The outcome of a join / leave / fail operation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MembershipOutcome {
    /// Responsibility transfers triggered by the change.
    pub changes: Vec<ResponsibilityChange>,
    /// Overlay maintenance messages spent performing the change (join
    /// lookups, notifications, zone-takeover coordination, ...).
    pub messages: u32,
}

impl MembershipOutcome {
    /// Merges another outcome into this one.
    pub fn merge(&mut self, other: MembershipOutcome) {
        self.changes.extend(other.changes);
        self.messages += other.messages;
    }
}

/// The outcome of one stabilization round.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StabilizeOutcome {
    /// Maintenance messages exchanged during the round.
    pub messages: u32,
    /// Number of dead entries purged from successor lists / neighbor sets.
    pub repaired_successors: u32,
    /// Number of finger-table entries refreshed.
    pub refreshed_fingers: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_messages_adds_timeouts() {
        let outcome = LookupOutcome {
            responsible: NodeId(1),
            hops: 5,
            timeouts: 2,
        };
        assert_eq!(outcome.messages(), 7);
    }

    #[test]
    fn responsibility_change_covers_wrapping_range() {
        let change = ResponsibilityChange {
            from: NodeId(1),
            to: NodeId(2),
            range_start: u64::MAX - 10,
            range_end: 10,
            handover_possible: true,
            kind: MembershipEventKind::Leave,
        };
        assert!(change.covers(5));
        assert!(change.covers(u64::MAX));
        assert!(!change.covers(500));
    }

    #[test]
    fn membership_outcome_merge_accumulates() {
        let mut a = MembershipOutcome {
            changes: vec![],
            messages: 3,
        };
        let b = MembershipOutcome {
            changes: vec![ResponsibilityChange {
                from: NodeId(1),
                to: NodeId(2),
                range_start: 0,
                range_end: 5,
                handover_possible: false,
                kind: MembershipEventKind::Fail,
            }],
            messages: 4,
        };
        a.merge(b);
        assert_eq!(a.messages, 7);
        assert_eq!(a.changes.len(), 1);
    }

    #[test]
    fn lookup_error_display_mentions_cause() {
        let e = LookupError::RoutingExhausted {
            messages: 12,
            timeouts: 7,
        };
        let text = e.to_string();
        assert!(text.contains("12"));
        assert!(text.contains("7"));
    }
}
