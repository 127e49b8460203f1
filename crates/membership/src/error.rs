//! Errors surfaced by membership operations.

/// Why a membership operation (join, leave, crash, restart or a phase of the
/// underlying range transfer) could not proceed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MembershipError {
    /// The peer id is not a member of the ring at all.
    UnknownPeer(u64),
    /// A join was requested for an id that is already a member (alive or
    /// crashed — a crashed member's identity is reserved for restart).
    AlreadyMember(u64),
    /// A lifecycle operation targeted a peer that is already dead.
    AlreadyDead(u64),
    /// A graceful leave was requested for the only live peer; there is nobody
    /// to hand state over to.
    LastPeer,
    /// The ring has no live members to compute a plan against.
    EmptyRing,
    /// The hand-off itself failed mid-flight (a participant crashed or never
    /// answered); the message describes the phase reached.
    TransferFailed(String),
    /// The coordinator's bounded retry budget for a hand-off expired without
    /// a definitive answer: the peer driving the transfer stayed silent
    /// through every re-send. The transfer may still be rolled back or
    /// completed by the participants; the coordinator just stopped waiting.
    CoordinationTimeout {
        /// The peer the coordinator was waiting on.
        peer: u64,
        /// How many bounded waits were attempted before giving up.
        attempts: u32,
    },
}

impl std::fmt::Display for MembershipError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MembershipError::UnknownPeer(id) => {
                write!(f, "peer {id:#018x} is not a member of the ring")
            }
            MembershipError::AlreadyMember(id) => {
                write!(f, "peer {id:#018x} is already a member of the ring")
            }
            MembershipError::AlreadyDead(id) => {
                write!(f, "peer {id:#018x} is already dead")
            }
            MembershipError::LastPeer => {
                write!(f, "the last live peer cannot leave gracefully")
            }
            MembershipError::EmptyRing => write!(f, "the ring has no live members"),
            MembershipError::TransferFailed(reason) => {
                write!(f, "range transfer failed: {reason}")
            }
            MembershipError::CoordinationTimeout { peer, attempts } => {
                write!(
                    f,
                    "peer {peer:#018x} answered none of {attempts} bounded hand-off waits"
                )
            }
        }
    }
}

impl std::error::Error for MembershipError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_the_peer() {
        let text = MembershipError::UnknownPeer(0xabcd).to_string();
        assert!(text.contains("0x000000000000abcd"));
        assert!(MembershipError::LastPeer.to_string().contains("last live"));
    }
}
