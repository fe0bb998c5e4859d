//! Learning a submitted commit's fate from the acceptors' votes.
//!
//! A group committer runs in its group's home service, so a client in
//! another datacenter that waits for the home's [`Msg::CommitReply`] pays
//! four one-way wide-area hops per commit: the request, the accept, the
//! vote and the reply. In the paper (§4) the client is the proposer and
//! learns its decision from the accept replies. Here an acceptor that votes
//! for a committer slot's own entry also copies the vote to the client of
//! each member outside the committer's datacenter ([`Msg::VoteCopy`]), and
//! a [`VoteTally`] counts the copies: once one entry has its ballot's
//! quorum of votes at one position ([`paxos::quorum_for_ballot`]), it is
//! decided there, and its members are answered one hop sooner.
//!
//! The `CommitReply` still answers everything the copies do not: aborts,
//! `Unavailable`, clients in the committer's datacenter (which get no
//! copies) and members whose copies were lost. One that arrives after an
//! early answer finds its transaction answered and does nothing.
//!
//! The tally is sans-IO. The embedding client (a [`crate::Session`], or a
//! load driver that sends raw `CommitRequest`s) says which transactions
//! wait for a fate and which were answered another way, feeds it the
//! copies, and is told whom they answer.
//!
//! [`Msg::CommitReply`]: crate::Msg::CommitReply
//! [`Msg::VoteCopy`]: crate::Msg::VoteCopy

use crate::session::TxnResult;
use paxos::{quorum_for_ballot, Ballot};
use simnet::SimDuration;
use std::collections::BTreeMap;
use std::sync::Arc;
use walog::{GroupId, LogPosition, TxnId};

/// One voted value, as a copy names it: the entry's transactions at a
/// (group, position, ballot). Two entries under one ballot are two values,
/// and their votes never add up.
type Value = (GroupId, LogPosition, Ballot, Arc<[TxnId]>);

/// The members a value that reached its quorum commits.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Learned<K> {
    /// The position the value is decided at.
    pub position: LogPosition,
    /// The ballot it is decided under.
    pub ballot: Ballot,
    /// Promotions every member went through (carried by the copies).
    pub promotions: u32,
    /// Whether the entry holds more than one transaction.
    pub combined: bool,
    /// The waiting members the entry commits, each with the key it was
    /// expected under, in entry order.
    pub members: Vec<(TxnId, K)>,
}

impl<K> Learned<K> {
    /// The fate the members learned: committed, with the promotions the
    /// copies carry, combined when the entry holds several transactions,
    /// and the deciding ballot's round as its rounds (0 on the fast path).
    /// The latencies and the id are the caller's to fill in.
    pub fn fate(&self) -> TxnResult {
        TxnResult {
            committed: true,
            read_only: false,
            promotions: self.promotions,
            combined: self.combined,
            rounds: u32::try_from(self.ballot.round).unwrap_or(u32::MAX),
            latency: SimDuration::ZERO,
            abort_reason: None,
            txn: None,
        }
    }
}

/// A client's count of vote copies, keyed by the value they vote for.
///
/// It keeps a count only while one of the value's members waits for a
/// fate, and nothing for a transaction once that transaction is answered,
/// by the copies or another way.
pub struct VoteTally<K> {
    /// Transactions waiting for a fate, with the embedding client's key.
    waiting: BTreeMap<TxnId, K>,
    /// The replicas whose copies were counted for each value, as a bit set.
    voters: BTreeMap<Value, u64>,
}

impl<K> Default for VoteTally<K> {
    fn default() -> Self {
        VoteTally {
            waiting: BTreeMap::new(),
            voters: BTreeMap::new(),
        }
    }
}

impl<K: Copy> VoteTally<K> {
    /// `txn` waits for a fate under the client's `key`. Expecting it again
    /// (a re-submission) keeps what was already counted.
    pub fn expect(&mut self, txn: TxnId, key: K) {
        self.waiting.insert(txn, key);
    }

    /// `txn` was answered another way (a `CommitReply`, or the client gave
    /// up): drop it, and every count no waiting member keeps alive.
    pub fn forget(&mut self, txn: TxnId) {
        if self.waiting.remove(&txn).is_some() {
            self.prune();
        }
    }

    /// Count a copy of replica `voter`'s vote, one of `replicas`, for
    /// `entry` at `position` in `group` under `ballot`. Returns the members
    /// it answers when the value reaches the ballot's quorum; a copy that
    /// names no waiting member is dropped uncounted.
    #[allow(clippy::too_many_arguments)]
    pub fn count(
        &mut self,
        voter: usize,
        replicas: usize,
        group: GroupId,
        position: LogPosition,
        ballot: Ballot,
        entry: &Arc<[TxnId]>,
        promotions: u32,
    ) -> Option<Learned<K>> {
        if voter >= u64::BITS as usize || !entry.iter().any(|id| self.waiting.contains_key(id)) {
            return None;
        }
        let value = (group, position, ballot, Arc::clone(entry));
        let voters = self.voters.entry(value).or_default();
        *voters |= 1 << voter;
        if (voters.count_ones() as usize) < quorum_for_ballot(ballot, replicas) {
            return None;
        }
        let members: Vec<(TxnId, K)> = entry
            .iter()
            .filter_map(|id| self.waiting.remove(id).map(|key| (*id, key)))
            .collect();
        self.prune();
        Some(Learned {
            position,
            ballot,
            promotions,
            combined: entry.len() > 1,
            members,
        })
    }

    /// Whether the tally keeps anything for `txn`: it waits, or a count is
    /// kept for a value that names it.
    pub fn holds(&self, txn: TxnId) -> bool {
        self.waiting.contains_key(&txn)
            || self.voters.keys().any(|(.., entry)| entry.contains(&txn))
    }

    /// Whether the tally keeps nothing at all.
    pub fn is_empty(&self) -> bool {
        self.waiting.is_empty() && self.voters.is_empty()
    }

    /// Drop the counts of values none of whose members waits any more.
    fn prune(&mut self) {
        let waiting = &self.waiting;
        self.voters
            .retain(|(.., entry), _| entry.iter().any(|id| waiting.contains_key(id)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(ids: &[u64]) -> Arc<[TxnId]> {
        ids.iter().map(|seq| TxnId::new(7, *seq)).collect()
    }

    #[test]
    fn a_fast_value_is_learned_from_every_replica_and_a_classic_one_from_a_majority() {
        let (g, p) = (GroupId(0), LogPosition(4));
        let mut tally = VoteTally::default();
        tally.expect(TxnId::new(7, 1), 'a');
        tally.expect(TxnId::new(7, 2), 'b');
        let fast = Ballot::fast(3);
        let one = entry(&[1]);
        assert_eq!(tally.count(0, 3, g, p, fast, &one, 0), None);
        assert_eq!(tally.count(0, 3, g, p, fast, &one, 0), None, "a duplicate");
        assert_eq!(tally.count(1, 3, g, p, fast, &one, 0), None);
        let learned = tally.count(2, 3, g, p, fast, &one, 0).expect("unanimous");
        assert_eq!(learned.members, vec![(TxnId::new(7, 1), 'a')]);
        assert!(!learned.combined);
        assert!(!tally.holds(TxnId::new(7, 1)));

        let classic = Ballot::initial(3);
        let two = entry(&[2, 9]);
        assert_eq!(tally.count(2, 3, g, p.next(), classic, &two, 1), None);
        let learned = tally.count(0, 3, g, p.next(), classic, &two, 1);
        let learned = learned.expect("a majority");
        assert_eq!(learned.members, vec![(TxnId::new(7, 2), 'b')]);
        assert_eq!((learned.promotions, learned.combined), (1, true));
        assert!(tally.is_empty());
    }

    #[test]
    fn two_values_under_one_ballot_never_add_up() {
        let (g, p, b) = (GroupId(0), LogPosition(4), Ballot::initial(3));
        let mut tally = VoteTally::default();
        tally.expect(TxnId::new(7, 1), ());
        assert_eq!(tally.count(0, 3, g, p, b, &entry(&[1]), 0), None);
        assert_eq!(tally.count(1, 3, g, p, b, &entry(&[1, 2]), 0), None);
        assert_eq!(
            tally.count(2, 3, g, p, b.advance_past(None), &entry(&[1]), 0),
            None
        );
        assert!(tally.count(1, 3, g, p, b, &entry(&[1]), 0).is_some());
    }

    #[test]
    fn an_answer_from_elsewhere_drops_the_counts() {
        let (g, p, b) = (GroupId(0), LogPosition(4), Ballot::fast(3));
        let mut tally = VoteTally::default();
        tally.expect(TxnId::new(7, 1), ());
        assert_eq!(tally.count(0, 3, g, p, b, &entry(&[1]), 0), None);
        assert!(tally.holds(TxnId::new(7, 1)));
        tally.forget(TxnId::new(7, 1));
        assert!(tally.is_empty());
        assert_eq!(tally.count(1, 3, g, p, b, &entry(&[1]), 0), None);
        assert!(tally.is_empty(), "a late copy is not counted");
    }
}
