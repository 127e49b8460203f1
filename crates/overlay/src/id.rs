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

/// Clockwise distance from `from` to `to` on the 2^64 ring.
#[inline]
pub fn distance_clockwise(from: u64, to: u64) -> u64 {
    to.wrapping_sub(from)
}

/// Splits the half-open ring interval `(start, end]` at `mid`, yielding the
/// two adjacent intervals `(start, mid]` and `(mid, end]`.
///
/// This is what a **join** does to the successor's responsibility range: the
/// joiner (at `mid`) takes the counter-clockwise half, the successor keeps
/// the clockwise half. Returns `None` when `mid` does not lie strictly
/// inside the interval (splitting there would produce an empty or
/// ill-defined half). The degenerate full-ring interval `(x, x]` splits at
/// any `mid != x`.
#[inline]
pub fn split_range(start: u64, end: u64, mid: u64) -> Option<((u64, u64), (u64, u64))> {
    if !in_open_open_interval(start, end, mid) {
        return None;
    }
    Some(((start, mid), (mid, end)))
}

/// Merges the adjacent half-open ring intervals `(a.0, a.1]` and
/// `(b.0, b.1]` into `(a.0, b.1]` — the inverse of [`split_range`], and what
/// a **graceful leave** does to the successor's responsibility range: the
/// departing peer's interval `a` fuses with the successor's interval `b`.
///
/// Returns `None` unless `a` ends exactly where `b` starts, or when either
/// input is the degenerate full-ring interval (there is nothing left to
/// merge it with). Merging the two complementary halves of the whole ring
/// yields the degenerate full-ring interval `(x, x]`.
#[inline]
pub fn merge_ranges(a: (u64, u64), b: (u64, u64)) -> Option<(u64, u64)> {
    if a.0 == a.1 || b.0 == b.1 || a.1 != b.0 {
        return None;
    }
    // Rule out "merges" that would wrap past the start of `a` and cover
    // positions more than once: b must not reach beyond a's start.
    if in_open_open_interval(a.0, a.1, b.1) {
        return None;
    }
    Some((a.0, b.1))
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
    fn clockwise_distance_wraps() {
        assert_eq!(distance_clockwise(10, 20), 10);
        assert_eq!(distance_clockwise(20, 10), u64::MAX - 9);
        assert_eq!(distance_clockwise(5, 5), 0);
    }

    #[test]
    fn split_range_yields_adjacent_halves() {
        assert_eq!(split_range(10, 100, 40), Some(((10, 40), (40, 100))));
        // Wrapped interval split on either side of the origin.
        assert_eq!(
            split_range(u64::MAX - 5, 10, 3),
            Some(((u64::MAX - 5, 3), (3, 10)))
        );
        assert_eq!(
            split_range(u64::MAX - 5, 10, u64::MAX),
            Some(((u64::MAX - 5, u64::MAX), (u64::MAX, 10)))
        );
        // The split point must lie strictly inside.
        assert_eq!(split_range(10, 100, 10), None);
        assert_eq!(split_range(10, 100, 100), None);
        assert_eq!(split_range(10, 100, 200), None);
        // Degenerate full ring splits anywhere but its anchor.
        assert_eq!(split_range(7, 7, 100), Some(((7, 100), (100, 7))));
        assert_eq!(split_range(7, 7, 7), None);
    }

    #[test]
    fn merge_ranges_is_the_inverse_of_split() {
        assert_eq!(merge_ranges((10, 40), (40, 100)), Some((10, 100)));
        // Non-adjacent or degenerate inputs do not merge.
        assert_eq!(merge_ranges((10, 40), (50, 100)), None);
        assert_eq!(merge_ranges((7, 7), (7, 10)), None);
        assert_eq!(merge_ranges((10, 40), (40, 40)), None);
        // Complementary halves fuse into the full ring.
        assert_eq!(merge_ranges((10, 100), (100, 10)), Some((10, 10)));
        // A second interval wrapping back inside the first is rejected.
        assert_eq!(merge_ranges((10, 100), (100, 50)), None);
        // Round trip through a wrapped split.
        let (a, b) = split_range(u64::MAX - 5, 10, 3).unwrap();
        assert_eq!(merge_ranges(a, b), Some((u64::MAX - 5, 10)));
    }

    #[test]
    fn finger_start_wraps_around() {
        let n = NodeId(u64::MAX);
        assert_eq!(n.finger_start(0), 0);
        assert_eq!(NodeId(0).finger_start(3), 8);
        assert_eq!(NodeId(10).finger_start(63), 10u64.wrapping_add(1 << 63));
    }
}
