//! Versioned replica values.

use std::fmt;

/// A BRK version number. Versions are assigned by updating peers (read the
/// current maximum, add one), so unlike KTS timestamps they are **not**
/// guaranteed unique per update: concurrent updaters can mint the same
/// version.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Version(pub u64);

impl Version {
    /// The version of a never-updated key.
    pub const ZERO: Version = Version(0);

    /// The next version number.
    pub fn next(self) -> Version {
        Version(self.0 + 1)
    }
}

impl fmt::Debug for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A replica stored by BRK: the payload plus its version number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VersionedValue {
    /// Application payload.
    pub data: Vec<u8>,
    /// Version number assigned by the peer that performed the update.
    pub version: Version,
}

impl VersionedValue {
    /// Creates a versioned replica.
    pub fn new(data: Vec<u8>, version: Version) -> Self {
        VersionedValue { data, version }
    }

    /// The BRK holder rule: a replica holder that holds version `held`
    /// takes this write when its version is at least as large. With equal
    /// versions (concurrent updates) arrival order decides, which is exactly
    /// the inconsistency the paper points out.
    pub fn supersedes(&self, held: Version) -> bool {
        self.version >= held
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn versions_order_numerically() {
        assert!(Version(3) < Version(4));
        assert_eq!(Version::ZERO.next(), Version(1));
        assert_eq!(Version::default(), Version::ZERO);
    }

    #[test]
    fn display_shows_number() {
        assert_eq!(Version(7).to_string(), "7");
        assert_eq!(format!("{:?}", Version(7)), "v7");
    }

    #[test]
    fn versioned_value_holds_payload() {
        let v = VersionedValue::new(b"abc".to_vec(), Version(2));
        assert_eq!(v.data, b"abc");
        assert_eq!(v.version, Version(2));
    }
}
