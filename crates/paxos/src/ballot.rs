//! Proposal (ballot) numbers.

use std::fmt;

/// A proposal number: globally unique and totally ordered.
///
/// Uniqueness comes from embedding the proposing client's id; ordering is by
/// round first, then client id. Round 0 is reserved for the leader fast
/// path: an accept with a round-0 ballot may be accepted by a replica that
/// has not yet promised anything (skipping the prepare phase).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Ballot {
    /// Monotonically increasing round chosen by the proposer.
    pub round: u64,
    /// Node id of the proposing client (tie-breaker and uniqueness).
    pub proposer: u64,
}

impl Ballot {
    /// The fast-path ballot for a proposer: round 0.
    pub fn fast(proposer: u64) -> Self {
        Ballot { round: 0, proposer }
    }

    /// The first regular (non-fast-path) ballot for a proposer.
    pub fn initial(proposer: u64) -> Self {
        Ballot { round: 1, proposer }
    }

    /// A ballot strictly greater than both `self` and `other` (if any),
    /// keeping this proposer's identity. Implements `nextPropNumber`.
    pub fn advance_past(self, other: Option<Ballot>) -> Ballot {
        let floor = other.map(|b| b.round).unwrap_or(0).max(self.round);
        Ballot {
            round: floor + 1,
            proposer: self.proposer,
        }
    }

    /// True for the round-0 fast-path ballot.
    pub fn is_fast(self) -> bool {
        self.round == 0
    }
}

impl fmt::Display for Ballot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}.{}", self.round, self.proposer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_round_then_proposer() {
        assert!(
            Ballot {
                round: 2,
                proposer: 1
            } > Ballot {
                round: 1,
                proposer: 9
            }
        );
        assert!(
            Ballot {
                round: 1,
                proposer: 2
            } > Ballot {
                round: 1,
                proposer: 1
            }
        );
        assert!(Ballot::fast(3) < Ballot::initial(1));
    }

    #[test]
    fn advance_past_exceeds_both_inputs() {
        let mine = Ballot {
            round: 2,
            proposer: 7,
        };
        let seen = Ballot {
            round: 9,
            proposer: 1,
        };
        let next = mine.advance_past(Some(seen));
        assert!(next > mine && next > seen);
        assert_eq!(next.proposer, 7);
        let next2 = mine.advance_past(None);
        assert_eq!(next2.round, 3);
    }

    #[test]
    fn fast_path_detection() {
        assert!(Ballot::fast(1).is_fast());
        assert!(!Ballot::initial(1).is_fast());
    }
}
