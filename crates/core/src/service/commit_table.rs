//! The exactly-once table: the submitted members in flight and who waits
//! for each reply, and the fates of the members already decided, so that a
//! retried submission is answered instead of proposed a second time.

use crate::metrics::RunMetrics;
use crate::msg::Msg;
use parking_lot::Mutex;
use paxos::AbortReason;
use simnet::NodeId;
use std::collections::BTreeMap;
use std::sync::Arc;
use walog::{GroupId, TxnId};

/// A member's outcome, as its group's committer settles it: everything its
/// [`Msg::CommitReply`] carries but the request it answers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Fate {
    /// The member's transaction group.
    pub group: GroupId,
    /// Whether the member committed.
    pub committed: bool,
    /// Positions the member lost before its fate was settled.
    pub promotions: u32,
    /// Whether it committed inside a combined log entry.
    pub combined: bool,
    /// Prepare/accept rounds of the instance that settled it (0 when no
    /// instance did).
    pub rounds: u32,
    /// Why it aborted, when it did.
    pub abort_reason: Option<AbortReason>,
}

impl Fate {
    /// The reply carrying this fate of `txn` to the request `req_id`.
    fn reply(&self, req_id: u64, txn: TxnId) -> Msg {
        Msg::CommitReply {
            req_id,
            group: self.group,
            txn,
            committed: self.committed,
            promotions: self.promotions,
            combined: self.combined,
            rounds: self.rounds,
            abort_reason: self.abort_reason,
        }
    }
}

/// What the service does with a commit request.
#[derive(Debug, PartialEq)]
pub enum Admission {
    /// Submit the member to its group's committer.
    Submit,
    /// Send this reply to the requester at once.
    Answer(Msg),
    /// Nothing: the member is in flight, and its reply now goes to the
    /// latest requester.
    Absorbed,
}

/// The exactly-once table of the submitted commit route.
#[derive(Default)]
pub struct CommitTable {
    /// In-flight submitted commits: the member's id → (requester,
    /// correlation id). Duplicate requests for an in-flight id are not
    /// resubmitted — the committer already carries the member and proposing
    /// it twice could commit it twice — but they do re-point the reply at
    /// the latest requester so a retried submission still gets answered.
    requests: BTreeMap<TxnId, (NodeId, u64)>,
    /// Fates of members this service has already decided, so a retry of a
    /// decided transaction (a reply lost to a crash or partition) is
    /// answered with the original outcome instead of being re-proposed.
    fates: BTreeMap<TxnId, Fate>,
    /// Optional sink counting the duplicate submissions absorbed or
    /// answered instead of re-proposed.
    metrics: Option<Arc<Mutex<RunMetrics>>>,
}

impl CommitTable {
    /// Count suppressed duplicates into a shared [`RunMetrics`] sink.
    pub fn with_metrics(metrics: Arc<Mutex<RunMetrics>>) -> Self {
        CommitTable {
            metrics: Some(metrics),
            ..CommitTable::default()
        }
    }

    /// Admit request `req_id` from `from` to commit `txn` of `group`;
    /// `in_log` says whether the group's replicated log already carries it.
    pub fn request(
        &mut self,
        from: NodeId,
        req_id: u64,
        txn: TxnId,
        group: GroupId,
        in_log: bool,
    ) -> Admission {
        let admission = if let Some(fate) = self.fates.get(&txn) {
            // A retry of an already-decided member is answered with the
            // original fate; re-proposing it could commit it twice.
            Admission::Answer(fate.reply(req_id, txn))
        } else if in_log {
            // A retry that lands here after a group-home migration: this
            // service never saw the original submission, but the replicated
            // log may already carry the member (the old home decided it
            // before failing over). Answer committed rather than
            // double-committing.
            let fate = Fate {
                group,
                committed: true,
                ..Fate::default()
            };
            Admission::Answer(fate.reply(req_id, txn))
        } else if self.requests.insert(txn, (from, req_id)).is_none() {
            return Admission::Submit;
        } else {
            // A duplicate of an in-flight member: the committer already
            // carries it, and the reply now goes to the latest requester.
            Admission::Absorbed
        };
        if let Some(sink) = &self.metrics {
            sink.lock().duplicate_suppressions += 1;
        }
        admission
    }

    /// A committer settled member `txn` with `fate`: remember the fate
    /// before answering, so a retry arriving after the reply was lost gets
    /// the same outcome, and return the reply to the member's latest
    /// requester, if one waits. `Unavailable` is not a fate — the member may
    /// still be undecided, and a retry must be allowed to re-drive it.
    pub fn finished(&mut self, txn: TxnId, fate: Fate) -> Option<(NodeId, Msg)> {
        let reply = self
            .requests
            .remove(&txn)
            .map(|(requester, req_id)| (requester, fate.reply(req_id, txn)));
        if fate.abort_reason != Some(AbortReason::Unavailable) {
            self.fates.insert(txn, fate);
        }
        reply
    }
}
