//! The acceptor role of the Transaction Service (Algorithm 1).
//!
//! The service is stateless: all Paxos state for a log position —
//! `⟨nextBal, ballotNumber, value⟩` — lives in the datacenter's key-value
//! store, so any service process in the datacenter can handle any message.
//! It lives there as one typed table ([`MvKvStore::protocol`]), not as
//! encoded rows: a slot per `(group, position)` holds the promise and the
//! vote as values, and the lock guarding the table makes each handler's
//! read, test and write one atomic step — the guarantee the paper takes
//! from `checkAndWrite`. A vote holds the shared [`LogEntry`] it was cast
//! for; nothing on this path encodes, decodes or copies an entry.

use crate::ballot::Ballot;
use mvkv::MvKvStore;
use std::collections::btree_map::{BTreeMap, Entry};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use walog::{GroupId, LogEntry, LogPosition};

/// Outcome of handling a prepare message.
#[derive(Clone, Debug, PartialEq)]
pub struct PrepareOutcome {
    /// Whether the promise was made (the prepare's ballot exceeded the
    /// stored `nextBal`).
    pub promised: bool,
    /// The highest promised ballot after handling the message.
    pub next_bal: Option<Ballot>,
    /// The vote already cast for the position, if any.
    pub last_vote: Option<(Ballot, Arc<LogEntry>)>,
}

/// The acceptor state of one log position: Algorithm 1's `nextBal`, and its
/// `ballotNumber` and `value` as one vote. A slot exists only once a
/// promise or a vote was recorded.
#[derive(Default)]
struct Slot {
    next_bal: Option<Ballot>,
    vote: Option<(Ballot, Arc<LogEntry>)>,
}

/// Every acceptor slot of one datacenter: its store's protocol table.
#[derive(Default)]
struct Slots(Mutex<BTreeMap<(GroupId, LogPosition), Slot>>);

/// Stateless acceptor operating against a datacenter's key-value store.
///
/// Each `(group, position)` pair has its own slot in the store's protocol
/// table, apart from the application rows.
pub struct AcceptorStore<'a> {
    slots: &'a Slots,
}

impl<'a> AcceptorStore<'a> {
    /// Wrap a datacenter's store.
    pub fn new(store: &'a MvKvStore) -> Self {
        AcceptorStore {
            slots: store.protocol(),
        }
    }

    /// Lock the table. Every update below leaves each slot valid at every
    /// step, so a holder that panicked leaves nothing half-written.
    fn slots(&self) -> MutexGuard<'a, BTreeMap<(GroupId, LogPosition), Slot>> {
        self.slots.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Handle a `prepare` message (Algorithm 1, lines 3–15): promise not to
    /// accept ballots lower than `ballot` if it exceeds the current
    /// `nextBal`, and report the last vote either way.
    pub fn handle_prepare(
        &self,
        group: GroupId,
        position: LogPosition,
        ballot: Ballot,
    ) -> PrepareOutcome {
        let mut slots = self.slots();
        // A missing slot has no promise, so the prepare always creates one
        // it fills.
        let slot = slots.entry((group, position)).or_default();
        let promised = slot.next_bal.is_none_or(|current| ballot > current);
        if promised {
            slot.next_bal = Some(ballot);
        }
        PrepareOutcome {
            promised,
            next_bal: slot.next_bal,
            last_vote: slot.vote.clone(),
        }
    }

    /// Handle an `accept` message (Algorithm 1, lines 16–19): cast the vote
    /// iff `ballot` equals the most recent promise. A round-0 fast-path
    /// ballot is additionally allowed to be accepted when no promise has
    /// been made yet (the leader optimization skips the prepare phase).
    pub fn handle_accept(
        &self,
        group: GroupId,
        position: LogPosition,
        ballot: Ballot,
        value: &Arc<LogEntry>,
    ) -> bool {
        let mut slots = self.slots();
        let slot = match slots.entry((group, position)) {
            Entry::Occupied(slot) => slot.into_mut(),
            Entry::Vacant(_) if !ballot.is_fast() => return false,
            Entry::Vacant(slot) => slot.insert(Slot::default()),
        };
        // Only the promise decides an accept; the stored vote is about to be
        // overwritten and is never looked at.
        let accepted = match slot.next_bal {
            // Regular path: the accept's ballot must match the promise
            // recorded by the prepare phase.
            Some(current) => current == ballot,
            // Fast path: nothing promised yet and the proposer used the
            // reserved round-0 ballot granted by the position's leader.
            None => ballot.is_fast(),
        };
        if accepted {
            slot.next_bal = Some(ballot);
            slot.vote = Some((ballot, Arc::clone(value)));
        }
        accepted
    }

    /// Handle an `apply` message (Algorithm 1, lines 20–21): record the
    /// chosen value unconditionally. Returns the decided entry (shared, not
    /// copied) so the embedding service can install it in its write-ahead
    /// log.
    pub fn handle_apply(
        &self,
        group: GroupId,
        position: LogPosition,
        ballot: Ballot,
        value: &Arc<LogEntry>,
    ) -> Arc<LogEntry> {
        // Unconditional overwrite of the vote, as in the paper; the promise
        // stays.
        let vote = Some((ballot, Arc::clone(value)));
        self.slots().entry((group, position)).or_default().vote = vote;
        Arc::clone(value)
    }

    /// Restart path: re-record a promise replayed from the write-ahead
    /// log. Replay is in append order, so an unconditional overwrite
    /// reproduces exactly the state the live handlers built.
    pub fn restore_promise(&self, group: GroupId, position: LogPosition, ballot: Ballot) {
        self.slots().entry((group, position)).or_default().next_bal = Some(ballot);
    }

    /// Restart path: re-record a vote replayed from the write-ahead log.
    /// A vote also carries the implied promise (`nextBal = ballot`), just
    /// as [`AcceptorStore::handle_accept`] recorded it.
    pub fn restore_vote(
        &self,
        group: GroupId,
        position: LogPosition,
        ballot: Ballot,
        value: &Arc<LogEntry>,
    ) {
        let mut slots = self.slots();
        let slot = slots.entry((group, position)).or_default();
        slot.next_bal = Some(ballot);
        slot.vote = Some((ballot, Arc::clone(value)));
    }

    /// The vote currently recorded for `(group, position)`, if any — used by
    /// recovering services and by tests.
    pub fn current_vote(
        &self,
        group: GroupId,
        position: LogPosition,
    ) -> Option<(Ballot, Arc<LogEntry>)> {
        self.slots().get(&(group, position))?.vote.clone()
    }

    /// The highest promised ballot for `(group, position)`, if any.
    pub fn promised_ballot(&self, group: GroupId, position: LogPosition) -> Option<Ballot> {
        self.slots().get(&(group, position))?.next_bal
    }

    /// Whether any promise or vote was ever recorded for `(group,
    /// position)` — one lookup for the leader fast path's "no Paxos
    /// activity yet" test.
    pub fn touched(&self, group: GroupId, position: LogPosition) -> bool {
        self.slots()
            .get(&(group, position))
            .is_some_and(|slot| slot.next_bal.is_some() || slot.vote.is_some())
    }

    /// The highest position of `group` holding a promise or a vote
    /// ([`LogPosition::ZERO`] when none does): a new group home's bound on
    /// where the previous home's proposals may have reached.
    pub fn highest_touched(&self, group: GroupId) -> LogPosition {
        // Every slot holds a promise or a vote: none is created empty.
        let range = (group, LogPosition::ZERO)..=(group, LogPosition(u64::MAX));
        let highest = self.slots().range(range).next_back().map(|(key, _)| key.1);
        highest.unwrap_or(LogPosition::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use walog::ident::{AttrId, KeyId};
    use walog::{ItemRef, Transaction, TxnId};

    fn entry(seq: u64) -> Arc<LogEntry> {
        Arc::new(LogEntry::single(
            Transaction::builder(TxnId::new(1, seq), group(), LogPosition(0))
                .write(ItemRef::new(KeyId(0), AttrId(0)), seq.to_string())
                .build(),
        ))
    }

    fn group() -> GroupId {
        GroupId(0)
    }

    #[test]
    fn prepare_promises_increasing_ballots_only() {
        let store = MvKvStore::new();
        let acc = AcceptorStore::new(&store);
        let b1 = Ballot {
            round: 1,
            proposer: 1,
        };
        let b2 = Ballot {
            round: 2,
            proposer: 2,
        };

        let out = acc.handle_prepare(group(), LogPosition(1), b2);
        assert!(out.promised);
        assert_eq!(out.next_bal, Some(b2));
        assert!(out.last_vote.is_none());

        // A lower ballot is refused and told about the higher promise.
        let out = acc.handle_prepare(group(), LogPosition(1), b1);
        assert!(!out.promised);
        assert_eq!(out.next_bal, Some(b2));

        // Re-preparing with a higher ballot works.
        let b3 = Ballot {
            round: 3,
            proposer: 1,
        };
        assert!(acc.handle_prepare(group(), LogPosition(1), b3).promised);
        assert_eq!(acc.promised_ballot(group(), LogPosition(1)), Some(b3));
    }

    #[test]
    fn accept_requires_matching_promise() {
        let store = MvKvStore::new();
        let acc = AcceptorStore::new(&store);
        let b1 = Ballot {
            round: 1,
            proposer: 1,
        };
        let b2 = Ballot {
            round: 2,
            proposer: 2,
        };
        let value = entry(1);

        // No promise yet: regular ballot refused.
        assert!(!acc.handle_accept(group(), LogPosition(1), b1, &value));

        acc.handle_prepare(group(), LogPosition(1), b1);
        assert!(acc.handle_accept(group(), LogPosition(1), b1, &value));
        let vote = acc.current_vote(group(), LogPosition(1)).unwrap();
        assert_eq!(vote.0, b1);
        assert!(Arc::ptr_eq(&vote.1, &value), "the vote shares the entry");

        // A later promise invalidates the old ballot for accepts.
        acc.handle_prepare(group(), LogPosition(1), b2);
        assert!(!acc.handle_accept(group(), LogPosition(1), b1, &entry(9)));
        // But the vote for b1 is still reported as the last vote.
        let out = acc.handle_prepare(
            group(),
            LogPosition(1),
            Ballot {
                round: 3,
                proposer: 3,
            },
        );
        assert_eq!(*out.last_vote.unwrap().1, *value);
    }

    #[test]
    fn fast_path_accept_works_only_on_untouched_position() {
        let store = MvKvStore::new();
        let acc = AcceptorStore::new(&store);
        let fast = Ballot::fast(7);
        let value = entry(1);
        assert!(acc.handle_accept(group(), LogPosition(1), fast, &value));
        // A second fast accept for the same position (different proposer)
        // is refused: the position is no longer untouched.
        assert!(!acc.handle_accept(group(), LogPosition(1), Ballot::fast(8), &entry(2)));
        // Regular prepare with round >= 1 supersedes the fast vote but
        // reports it, so the new proposer adopts the old value.
        let out = acc.handle_prepare(group(), LogPosition(1), Ballot::initial(9));
        assert!(out.promised);
        assert_eq!(*out.last_vote.unwrap().1, *value);
    }

    /// An accept is decided by `nextBal` alone: whether the slot holds no
    /// vote or an applied one, the regular path, the fast path and a stale
    /// promise come out the same, and an applied accept overwrites it. A
    /// refused accept changes nothing, not even whether the slot exists.
    #[test]
    fn accept_is_decided_by_the_promise_alone() {
        let b1 = Ballot {
            round: 1,
            proposer: 1,
        };
        let b2 = Ballot {
            round: 2,
            proposer: 2,
        };
        let position = LogPosition(1);
        for applied_before in [false, true] {
            let fresh = || {
                let store = MvKvStore::new();
                if applied_before {
                    AcceptorStore::new(&store).handle_apply(
                        group(),
                        position,
                        Ballot::fast(9),
                        &entry(7),
                    );
                }
                store
            };
            let state = |acc: &AcceptorStore| {
                (
                    acc.touched(group(), position),
                    acc.promised_ballot(group(), position),
                    acc.current_vote(group(), position),
                )
            };
            let value = entry(1);

            // Regular path: the accept matches the recorded promise.
            let store = fresh();
            let acc = AcceptorStore::new(&store);
            assert!(acc.handle_prepare(group(), position, b1).promised);
            assert!(acc.handle_accept(group(), position, b1, &value));
            let (bal, voted) = acc.current_vote(group(), position).unwrap();
            assert_eq!((bal, &*voted), (b1, &*value), "applied {applied_before}");
            assert_eq!(acc.promised_ballot(group(), position), Some(b1));

            // Fast path: nothing promised yet, round-0 ballot.
            let store = fresh();
            let acc = AcceptorStore::new(&store);
            assert!(acc.handle_accept(group(), position, Ballot::fast(3), &value));
            let (bal, voted) = acc.current_vote(group(), position).unwrap();
            assert_eq!((bal, &*voted), (Ballot::fast(3), &*value));
            assert_eq!(
                acc.promised_ballot(group(), position),
                Some(Ballot::fast(3))
            );

            // ...but a regular ballot without a promise is refused and
            // writes nothing.
            let store = fresh();
            let acc = AcceptorStore::new(&store);
            let before = state(&acc);
            assert_eq!(before.0, applied_before);
            assert!(!acc.handle_accept(group(), position, b1, &value));
            assert_eq!(state(&acc), before);

            // Stale promise: a higher prepare got in first; nothing is written.
            let store = fresh();
            let acc = AcceptorStore::new(&store);
            acc.handle_prepare(group(), position, b1);
            acc.handle_prepare(group(), position, b2);
            let before = state(&acc);
            assert!(!acc.handle_accept(group(), position, b1, &value));
            assert!(!acc.handle_accept(group(), position, Ballot::fast(3), &value));
            assert_eq!(state(&acc), before, "applied {applied_before}");
        }
    }

    #[test]
    fn apply_records_value_and_returns_it() {
        let store = MvKvStore::new();
        let acc = AcceptorStore::new(&store);
        let b = Ballot {
            round: 4,
            proposer: 2,
        };
        let value = entry(3);
        let returned = acc.handle_apply(group(), LogPosition(2), b, &value);
        assert!(Arc::ptr_eq(&returned, &value));
        assert_eq!(
            *acc.current_vote(group(), LogPosition(2)).unwrap().1,
            *value
        );
        // An apply leaves the promise alone.
        assert_eq!(acc.promised_ballot(group(), LogPosition(2)), None);
        assert!(acc.touched(group(), LogPosition(2)));
    }

    #[test]
    fn restore_replay_reproduces_promise_and_vote_state() {
        // Build reference state through the live handlers...
        let live = MvKvStore::new();
        let acc = AcceptorStore::new(&live);
        let b1 = Ballot {
            round: 1,
            proposer: 1,
        };
        let b2 = Ballot {
            round: 2,
            proposer: 2,
        };
        let value = entry(5);
        acc.handle_prepare(group(), LogPosition(1), b1);
        acc.handle_accept(group(), LogPosition(1), b1, &value);
        acc.handle_prepare(group(), LogPosition(1), b2);
        // ...then replay the same durable events into a fresh store.
        let restored = MvKvStore::new();
        let racc = AcceptorStore::new(&restored);
        racc.restore_promise(group(), LogPosition(1), b1);
        racc.restore_vote(group(), LogPosition(1), b1, &value);
        racc.restore_promise(group(), LogPosition(1), b2);
        assert_eq!(
            racc.promised_ballot(group(), LogPosition(1)),
            acc.promised_ballot(group(), LogPosition(1))
        );
        let (vb, vv) = racc.current_vote(group(), LogPosition(1)).unwrap();
        assert_eq!(vb, b1);
        assert_eq!(*vv, *value);
        // The restored acceptor behaves identically: refuses b1 accepts,
        // reports the old vote to a higher prepare.
        assert!(!racc.handle_accept(group(), LogPosition(1), b1, &entry(9)));
        let out = racc.handle_prepare(
            group(),
            LogPosition(1),
            Ballot {
                round: 3,
                proposer: 1,
            },
        );
        assert!(out.promised);
        assert_eq!(*out.last_vote.unwrap().1, *value);
    }

    #[test]
    fn instances_for_different_positions_and_groups_are_independent() {
        let store = MvKvStore::new();
        let acc = AcceptorStore::new(&store);
        let b = Ballot {
            round: 1,
            proposer: 1,
        };
        acc.handle_prepare(group(), LogPosition(1), b);
        assert!(acc.touched(group(), LogPosition(1)));
        assert!(acc.promised_ballot(group(), LogPosition(2)).is_none());
        assert!(acc.promised_ballot(GroupId(9), LogPosition(1)).is_none());
        assert!(!acc.touched(group(), LogPosition(2)));
        // The highest touched position is per group: a vote at 4 of another
        // group does not count, a fast vote at 3 of this one does.
        acc.handle_accept(GroupId(9), LogPosition(4), Ballot::fast(2), &entry(4));
        assert_eq!(acc.highest_touched(group()), LogPosition(1));
        acc.handle_accept(group(), LogPosition(3), Ballot::fast(2), &entry(3));
        assert_eq!(acc.highest_touched(group()), LogPosition(3));
        assert_eq!(acc.highest_touched(GroupId(9)), LogPosition(4));
        assert_eq!(acc.highest_touched(GroupId(5)), LogPosition::ZERO);
        // Acceptor state is never an application row, and every view of one
        // store shares its slots.
        assert_eq!(store.key_count(), 0);
        assert_eq!(
            AcceptorStore::new(&store).promised_ballot(group(), LogPosition(1)),
            Some(b)
        );
    }
}
