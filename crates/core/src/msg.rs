//! The wire protocol between Transaction Clients and Transaction Services.
//!
//! Everything a client cannot do against its local datacenter's store goes
//! over the simulated network: the Paxos commit protocol, snapshot reads
//! served by any replica of a group, and the **submitted commit route**: a
//! session that commits with [`crate::session::CommitRoute::Submitted`]
//! ships its finished transaction to the group home's Transaction Service
//! as a [`Msg::CommitRequest`] and receives the decision as a
//! [`Msg::CommitReply`], letting the service-hosted
//! [`crate::GroupCommitter`] batch and pipeline commits from every client
//! of the group.
//!
//! Groups, keys and attributes travel as interned `Copy` ids; only read
//! *values* are owned strings.

use crate::datacenter::GroupState;
use paxos::{AbortReason, PaxosMsg};
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
    /// home's Transaction Service, whose hosted
    /// [`crate::GroupCommitter`] batches it with other clients' commits
    /// into pipelined Paxos-CP instances.
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
    /// A datacenter's answer to a prepare or accept at a position it
    /// forgot — at or below the snapshot base its last restart restored —
    /// sent to the service of the requester's datacenter instead of a
    /// promise or a vote: its decided state of the group, for the lagging
    /// service to adopt.
    CatchUp(Arc<GroupState>),
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
            Msg::CatchUp(_) => "catch_up",
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
    use paxos::Ballot;

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
