//! Wire messages of the commit protocol (Figure 3 of the paper).
//!
//! Groups travel as `Copy` interned ids and decided values as shared
//! `Arc<LogEntry>`s: broadcasting an accept/apply to every replica clones a
//! pointer per recipient, never the transactions inside.

use crate::ballot::Ballot;
use std::sync::Arc;
use walog::{GroupId, LogEntry, LogPosition};

/// Index of a replica (datacenter) in `0..num_replicas`. The embedding layer
/// maps replica ids to concrete transport addresses.
pub type ReplicaId = usize;

/// Messages exchanged between a Transaction Client (proposer) and the
/// Transaction Services (acceptors) for a single log position's instance.
#[derive(Clone, Debug, PartialEq)]
pub enum PaxosMsg {
    /// Step 1: the client asks every replica to promise not to accept lower
    /// ballots for this position.
    Prepare {
        /// Transaction group whose log is being appended to.
        group: GroupId,
        /// Log position the instance decides.
        position: LogPosition,
        /// The client's proposal number.
        ballot: Ballot,
    },
    /// Step 2: a replica's answer to a prepare — its "last vote".
    PrepareReply {
        /// Transaction group.
        group: GroupId,
        /// Log position.
        position: LogPosition,
        /// Ballot this reply answers (echo of the prepare).
        ballot: Ballot,
        /// True when the promise was made; false when a higher ballot was
        /// already promised (the reply still reports that higher ballot so
        /// the client can pick a larger one next time).
        promised: bool,
        /// The highest ballot this replica has promised so far.
        next_bal: Option<Ballot>,
        /// The vote already cast for this position, if any: the ballot at
        /// which the replica accepted, and the accepted value.
        last_vote: Option<(Ballot, Arc<LogEntry>)>,
    },
    /// Step 3: the client asks replicas to accept a concrete value.
    Accept {
        /// Transaction group.
        group: GroupId,
        /// Log position.
        position: LogPosition,
        /// The client's proposal number (must match the replica's promise).
        ballot: Ballot,
        /// Proposed value: one transaction (basic Paxos) or an ordered list
        /// (Paxos-CP combination), or a no-op (recovery).
        value: Arc<LogEntry>,
        /// Set only when a pipelined batch proposes its own entry: the
        /// promotions its members went through, the same for every member.
        /// An acceptor that casts such a vote also copies it to the
        /// members' clients, which learn their fate from the copies; a
        /// direct client's accept, a recovery no-op, an adopted value and
        /// a combination with other proposers' members carry `None`.
        promotions: Option<u32>,
    },
    /// Step 4: a replica's answer to an accept.
    AcceptReply {
        /// Transaction group.
        group: GroupId,
        /// Log position.
        position: LogPosition,
        /// Ballot this reply answers.
        ballot: Ballot,
        /// Whether the vote was cast.
        accepted: bool,
    },
    /// Step 5: the decided value is pushed to every replica for installation
    /// in its write-ahead log.
    Apply {
        /// Transaction group.
        group: GroupId,
        /// Log position.
        position: LogPosition,
        /// Ballot under which the value was chosen.
        ballot: Ballot,
        /// The decided value.
        value: Arc<LogEntry>,
    },
    /// Leader fast path: ask the leader of this position whether this client
    /// is the first to start the commit protocol for it (§4.1).
    LeaderClaim {
        /// Transaction group.
        group: GroupId,
        /// Log position.
        position: LogPosition,
    },
    /// Leader fast path answer.
    LeaderClaimReply {
        /// Transaction group.
        group: GroupId,
        /// Log position.
        position: LogPosition,
        /// True when the asking client was first and may skip the prepare
        /// phase, proposing directly with the round-0 fast ballot.
        granted: bool,
    },
}

impl PaxosMsg {
    /// The log position this message concerns.
    pub fn position(&self) -> LogPosition {
        match self {
            PaxosMsg::Prepare { position, .. }
            | PaxosMsg::PrepareReply { position, .. }
            | PaxosMsg::Accept { position, .. }
            | PaxosMsg::AcceptReply { position, .. }
            | PaxosMsg::Apply { position, .. }
            | PaxosMsg::LeaderClaim { position, .. }
            | PaxosMsg::LeaderClaimReply { position, .. } => *position,
        }
    }

    /// The transaction group this message concerns.
    pub fn group(&self) -> GroupId {
        match self {
            PaxosMsg::Prepare { group, .. }
            | PaxosMsg::PrepareReply { group, .. }
            | PaxosMsg::Accept { group, .. }
            | PaxosMsg::AcceptReply { group, .. }
            | PaxosMsg::Apply { group, .. }
            | PaxosMsg::LeaderClaim { group, .. }
            | PaxosMsg::LeaderClaimReply { group, .. } => *group,
        }
    }

    /// Short tag for logging/statistics.
    pub fn kind(&self) -> &'static str {
        match self {
            PaxosMsg::Prepare { .. } => "prepare",
            PaxosMsg::PrepareReply { .. } => "prepare_reply",
            PaxosMsg::Accept { .. } => "accept",
            PaxosMsg::AcceptReply { .. } => "accept_reply",
            PaxosMsg::Apply { .. } => "apply",
            PaxosMsg::LeaderClaim { .. } => "leader_claim",
            PaxosMsg::LeaderClaimReply { .. } => "leader_claim_reply",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_cover_every_variant() {
        let g = GroupId(0);
        let msgs = vec![
            PaxosMsg::Prepare {
                group: g,
                position: LogPosition(3),
                ballot: Ballot::initial(1),
            },
            PaxosMsg::PrepareReply {
                group: g,
                position: LogPosition(3),
                ballot: Ballot::initial(1),
                promised: true,
                next_bal: None,
                last_vote: None,
            },
            PaxosMsg::Accept {
                group: g,
                position: LogPosition(3),
                ballot: Ballot::initial(1),
                value: Arc::new(LogEntry::noop()),
                promotions: None,
            },
            PaxosMsg::AcceptReply {
                group: g,
                position: LogPosition(3),
                ballot: Ballot::initial(1),
                accepted: true,
            },
            PaxosMsg::Apply {
                group: g,
                position: LogPosition(3),
                ballot: Ballot::initial(1),
                value: Arc::new(LogEntry::noop()),
            },
            PaxosMsg::LeaderClaim {
                group: g,
                position: LogPosition(3),
            },
            PaxosMsg::LeaderClaimReply {
                group: g,
                position: LogPosition(3),
                granted: false,
            },
        ];
        let kinds: Vec<_> = msgs.iter().map(|m| m.kind()).collect();
        assert_eq!(kinds.len(), 7);
        for m in &msgs {
            assert_eq!(m.position(), LogPosition(3));
            assert_eq!(m.group(), g);
        }
    }

    #[test]
    fn cloning_an_accept_shares_the_entry() {
        let value = Arc::new(LogEntry::noop());
        let msg = PaxosMsg::Accept {
            group: GroupId(0),
            position: LogPosition(1),
            ballot: Ballot::initial(1),
            value: Arc::clone(&value),
            promotions: None,
        };
        let copy = msg.clone();
        match (&msg, &copy) {
            (PaxosMsg::Accept { value: a, .. }, PaxosMsg::Accept { value: b, .. }) => {
                assert!(Arc::ptr_eq(a, b), "clone must share, not deep-copy");
            }
            _ => unreachable!(),
        }
    }
}
