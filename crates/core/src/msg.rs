//! The wire protocol between Transaction Clients and Transaction Services.
//!
//! Everything a client cannot do against its local datacenter's store goes
//! over the simulated network: the Paxos commit protocol, snapshot reads
//! served by any replica of a group, and the **submitted commit route**: a
//! session that commits with [`crate::session::CommitRoute::Submitted`]
//! ships its finished transaction to the group home's Transaction Service
//! as a [`Msg::CommitRequest`] and receives the decision as a
//! [`Msg::CommitReply`], letting the service-hosted group committer batch
//! and pipeline commits from every client of the group.
//!
//! Groups, keys and attributes travel as interned `Copy` ids; only read
//! *values* are owned strings.

use crate::datacenter::GroupState;
use paxos::{AbortReason, Ballot, PaxosMsg};
use std::sync::Arc;
use walog::{AttrId, GroupId, KeyId, LogPosition, Transaction, TxnId};

/// All messages exchanged in the system.
#[derive(Clone, Debug, PartialEq)]
pub enum Msg {
    /// A commit-protocol message (client → service or service → client).
    Paxos(PaxosMsg),
    /// Snapshot read: ask *any* replica of the group — not just the home —
    /// for the value of one item at or below a snapshot watermark. A
    /// snapshot read never waits behind a log gap and never triggers
    /// recovery: a replica that has not applied up to `at` answers
    /// `unavailable` immediately and the client retries elsewhere (or at the
    /// same replica later).
    SnapshotRead {
        /// Client-chosen correlation id.
        req_id: u64,
        /// Transaction group.
        group: GroupId,
        /// Row key.
        key: KeyId,
        /// Attribute id.
        attr: AttrId,
        /// Snapshot watermark: the applied-prefix position captured at
        /// `begin_read_only`; the read observes the newest version ≤ `at`.
        at: LogPosition,
    },
    /// Answer to [`Msg::SnapshotRead`].
    SnapshotReadReply {
        /// Echoed correlation id.
        req_id: u64,
        /// Transaction group.
        group: GroupId,
        /// Row key.
        key: KeyId,
        /// Attribute id.
        attr: AttrId,
        /// The value observed at the watermark, or `None` if the item has
        /// never been written at or below it.
        value: Option<String>,
        /// True when this replica has not applied up to the watermark; the
        /// reply carries no value and the client should try another replica.
        unavailable: bool,
    },
    /// Submitted commit route: ship a finished transaction to the group
    /// home's Transaction Service, whose hosted group committer batches it
    /// with other clients' commits into pipelined Paxos-CP instances.
    CommitRequest {
        /// Client-chosen correlation id.
        req_id: u64,
        /// The finished transaction (reads, writes, read position).
        txn: Transaction,
    },
    /// Answer to [`Msg::CommitRequest`]: the per-member fate of the
    /// transaction as decided by the service-hosted commit engine.
    CommitReply {
        /// Echoed correlation id.
        req_id: u64,
        /// Transaction group.
        group: GroupId,
        /// The transaction the fate is for.
        txn: TxnId,
        /// Whether the transaction committed.
        committed: bool,
        /// Paxos-CP promotions (lost positions) it went through.
        promotions: u32,
        /// Whether it committed inside a combined (multi-transaction) entry.
        combined: bool,
        /// Prepare/accept rounds executed across all positions.
        rounds: u32,
        /// Abort reason when not committed.
        abort_reason: Option<AbortReason>,
    },
    /// A copy of an acceptor's vote on a group committer slot's own entry,
    /// sent by the voting datacenter's service to the client of each of
    /// the entry's members outside the committer's datacenter, behind the
    /// same sync as the vote itself. Once copies from the ballot's quorum
    /// ([`paxos::quorum_for_ballot`]) name one entry at one position, the
    /// entry is decided there and the client answers its members without
    /// waiting for the [`Msg::CommitReply`] ([`crate::VoteTally`]).
    VoteCopy {
        /// Transaction group.
        group: GroupId,
        /// Log position voted on.
        position: LogPosition,
        /// Ballot of the vote.
        ballot: Ballot,
        /// The voted entry's transactions, in entry order: which value the
        /// vote is for, and the members it carries. More than one member
        /// means they commit combined.
        entry: Arc<[TxnId]>,
        /// Promotions every member of the entry went through.
        promotions: u32,
    },
    /// A datacenter's answer to a prepare or accept at a position it
    /// forgot — at or below the snapshot base its last restart restored —
    /// sent to the service of the requester's datacenter instead of a
    /// promise or a vote: its decided state of the group — the group's
    /// snapshot plus its retained log tail, built and adopted exactly as a
    /// snapshot file is saved and restored — for the lagging service to
    /// adopt.
    CatchUp(Arc<GroupState>),
    /// A new group home's committer asks each replica's service how far
    /// the group's log positions were touched, before it proposes
    /// anything: the previous home may still have slots in flight.
    TakeoverQuery {
        /// Transaction group.
        group: GroupId,
        /// The home epoch being taken over ([`crate::Directory::home_epoch`]).
        epoch: u64,
    },
    /// Answer to [`Msg::TakeoverQuery`].
    TakeoverReply {
        /// Transaction group.
        group: GroupId,
        /// Echoed home epoch.
        epoch: u64,
        /// The highest position of the group this datacenter's acceptor
        /// promised or voted at, or its log decided, whichever is higher.
        highest: LogPosition,
    },
}

impl Msg {
    /// Short tag for logging and statistics.
    pub fn kind(&self) -> &'static str {
        match self {
            Msg::Paxos(p) => p.kind(),
            Msg::SnapshotRead { .. } => "snapshot_read",
            Msg::SnapshotReadReply { .. } => "snapshot_read_reply",
            Msg::CommitRequest { .. } => "commit_request",
            Msg::CommitReply { .. } => "commit_reply",
            Msg::VoteCopy { .. } => "vote_copy",
            Msg::CatchUp(_) => "catch_up",
            Msg::TakeoverQuery { .. } => "takeover_query",
            Msg::TakeoverReply { .. } => "takeover_reply",
        }
    }
}

impl From<PaxosMsg> for Msg {
    fn from(msg: PaxosMsg) -> Self {
        Msg::Paxos(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_and_conversion() {
        let m: Msg = PaxosMsg::Prepare {
            group: GroupId(0),
            position: LogPosition(1),
            ballot: Ballot::initial(1),
        }
        .into();
        assert_eq!(m.kind(), "prepare");
        assert_eq!(
            Msg::SnapshotReadReply {
                req_id: 1,
                group: GroupId(0),
                key: KeyId(0),
                attr: AttrId(0),
                value: None,
                unavailable: false
            }
            .kind(),
            "snapshot_read_reply"
        );
    }
}
