//! Node identifiers and ring-interval arithmetic.

use std::fmt;

/// A peer identifier in the m = 64-bit identifier space shared by keys and
/// peers.
///
/// Chord places these on a ring ordered modulo 2^64. Key positions produced by
/// [`rdht_hashing::HashFunction::eval`](rdht_hashing::HashFunction) live in
/// the same space, so "the peer responsible for `k` wrt `h`" is well defined.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u64);

impl NodeId {
    /// Returns the identifier `self + 2^exp (mod 2^64)`, the start of the
    /// `exp`-th Chord finger interval.
    #[inline]
    pub fn finger_start(self, exp: u32) -> u64 {
        self.0.wrapping_add(1u64.wrapping_shl(exp))
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NodeId({:#018x})", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for NodeId {
    fn from(v: u64) -> Self {
        NodeId(v)
    }
}

impl From<NodeId> for u64 {
    fn from(v: NodeId) -> Self {
        v.0
    }
}

/// Whether `x` lies in the half-open ring interval `(start, end]`, taking
/// wrap-around into account.
///
/// If `start == end` the interval denotes the *entire* ring (this is the
/// single-node case in Chord, where a node is its own successor and is
/// responsible for every key).
#[inline]
pub fn in_open_closed_interval(start: u64, end: u64, x: u64) -> bool {
    if start == end {
        true
    } else if start < end {
        start < x && x <= end
    } else {
        x > start || x <= end
    }
}

/// Whether `x` lies in the open ring interval `(start, end)`, taking
/// wrap-around into account. `start == end` again denotes the full ring
/// (minus the endpoint itself).
#[inline]
pub fn in_open_open_interval(start: u64, end: u64, x: u64) -> bool {
    if start == end {
        x != start
    } else if start < end {
        start < x && x < end
    } else {
        x > start || x < end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_closed_non_wrapping() {
        assert!(in_open_closed_interval(10, 20, 15));
        assert!(in_open_closed_interval(10, 20, 20));
        assert!(!in_open_closed_interval(10, 20, 10));
        assert!(!in_open_closed_interval(10, 20, 25));
        assert!(!in_open_closed_interval(10, 20, 5));
    }

    #[test]
    fn open_closed_wrapping() {
        assert!(in_open_closed_interval(u64::MAX - 5, 5, 2));
        assert!(in_open_closed_interval(u64::MAX - 5, 5, u64::MAX));
        assert!(in_open_closed_interval(u64::MAX - 5, 5, 5));
        assert!(!in_open_closed_interval(u64::MAX - 5, 5, u64::MAX - 5));
        assert!(!in_open_closed_interval(u64::MAX - 5, 5, 100));
    }

    #[test]
    fn open_closed_degenerate_full_ring() {
        assert!(in_open_closed_interval(7, 7, 7));
        assert!(in_open_closed_interval(7, 7, 0));
        assert!(in_open_closed_interval(7, 7, u64::MAX));
    }

    #[test]
    fn open_open_non_wrapping() {
        assert!(in_open_open_interval(10, 20, 15));
        assert!(!in_open_open_interval(10, 20, 20));
        assert!(!in_open_open_interval(10, 20, 10));
    }

    #[test]
    fn open_open_wrapping() {
        assert!(in_open_open_interval(u64::MAX - 5, 5, 0));
        assert!(!in_open_open_interval(u64::MAX - 5, 5, 5));
        assert!(!in_open_open_interval(u64::MAX - 5, 5, 1000));
    }

    #[test]
    fn open_open_degenerate_excludes_endpoint() {
        assert!(!in_open_open_interval(7, 7, 7));
        assert!(in_open_open_interval(7, 7, 8));
    }

    #[test]
    fn finger_start_wraps_around() {
        let n = NodeId(u64::MAX);
        assert_eq!(n.finger_start(0), 0);
        assert_eq!(NodeId(0).finger_start(3), 8);
        assert_eq!(NodeId(10).finger_start(63), 10u64.wrapping_add(1 << 63));
    }
}
