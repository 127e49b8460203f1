//! The algorithms compared by the evaluation.

use std::fmt;

/// The three algorithms the paper's evaluation compares (Section 5.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// UMS with a KTS that initializes counters with the **direct** transfer
    /// whenever possible (graceful leaves and joins hand counters to the next
    /// responsible); the indirect algorithm is only needed after failures.
    UmsDirect,
    /// UMS with a KTS that never transfers counters: every responsibility
    /// change forces the **indirect** initialization on the next request.
    UmsIndirect,
    /// The BRK baseline (BRICKS-style version counters, fetch-all retrieve).
    Brk,
}

impl Algorithm {
    /// All algorithms, in the order the experiment tables report them.
    pub const ALL: [Algorithm; 3] = [Algorithm::Brk, Algorithm::UmsIndirect, Algorithm::UmsDirect];

    /// The label used in tables and experiment output, matching the paper's
    /// figure legends.
    pub fn label(self) -> &'static str {
        match self {
            Algorithm::UmsDirect => "UMS-Direct",
            Algorithm::UmsIndirect => "UMS-Indirect",
            Algorithm::Brk => "BRK",
        }
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(Algorithm::UmsDirect.label(), "UMS-Direct");
        assert_eq!(Algorithm::UmsIndirect.label(), "UMS-Indirect");
        assert_eq!(Algorithm::Brk.label(), "BRK");
        assert_eq!(Algorithm::Brk.to_string(), "BRK");
    }

    #[test]
    fn classification() {
        assert_eq!(
            Algorithm::ALL,
            [Algorithm::Brk, Algorithm::UmsIndirect, Algorithm::UmsDirect]
        );
    }
}
