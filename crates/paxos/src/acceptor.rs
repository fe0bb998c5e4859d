//! The acceptor role of the Transaction Service (Algorithm 1).
//!
//! The service is stateless: all Paxos state for a log position —
//! `⟨nextBal, ballotNumber, value⟩` — lives in the local key-value store and
//! is updated with `checkAndWrite`, so any service process in the
//! datacenter can handle any message. This module wraps an [`mvkv`] store
//! with exactly those reads and conditional writes.
//!
//! State rows live in a reserved region of the integer key space (top bit
//! set), so no interned application key can ever collide with protocol
//! metadata, and the row key for `(group, position)` is computed with two
//! shifts — no string formatting on the message-handling hot path. Vote
//! values are persisted with the compact [`LogEntry::encode`] codec.

use crate::ballot::Ballot;
use mvkv::{Attr, Key, MvKvStore, Row};
use std::sync::Arc;
use walog::{GroupId, LogEntry, LogPosition};

/// Reserved attribute ids for acceptor state rows (the paper's `nextBal`,
/// `ballotNumber` and `value` columns). These sit at the top of the
/// attribute space, above everything the interner will ever assign (see
/// `walog::ident::MAX_INTERNED`).
const ATTR_NEXT_BAL: Attr = Attr(u32::MAX);
const ATTR_VOTE_BAL: Attr = Attr(u32::MAX - 1);
const ATTR_VALUE: Attr = Attr(u32::MAX - 2);

/// Key-space layout for acceptor state rows: bit 63 flags protocol
/// metadata, bits 62..38 carry the group id, bits 37..0 the log position.
const PAXOS_KEY_FLAG: u64 = 1 << 63;
const GROUP_SHIFT: u32 = 38;
const MAX_STATE_GROUP: u64 = 1 << 25;
const MAX_STATE_POSITION: u64 = 1 << GROUP_SHIFT;

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

/// Stateless acceptor operating against a datacenter's key-value store.
///
/// Each `(group, position)` pair has its own state row; the row key embeds
/// both (in the reserved region of the key space) so Paxos metadata never
/// collides with application data.
pub struct AcceptorStore<'a> {
    store: &'a MvKvStore,
}

impl<'a> AcceptorStore<'a> {
    /// Wrap a datacenter's store.
    pub fn new(store: &'a MvKvStore) -> Self {
        AcceptorStore { store }
    }

    /// The row key holding the instance state for `(group, position)`.
    pub fn state_key(group: GroupId, position: LogPosition) -> Key {
        assert!(
            (group.0 as u64) < MAX_STATE_GROUP && position.0 < MAX_STATE_POSITION,
            "acceptor state key space exceeded: {group} at {position}"
        );
        Key(PAXOS_KEY_FLAG | ((group.0 as u64) << GROUP_SHIFT) | position.0)
    }

    fn read_state(
        &self,
        group: GroupId,
        position: LogPosition,
    ) -> (Option<Ballot>, Option<(Ballot, Arc<LogEntry>)>) {
        let key = Self::state_key(group, position);
        let Some(version) = self.store.read(key, None) else {
            return (None, None);
        };
        let next_bal = version.row.get(ATTR_NEXT_BAL).and_then(Ballot::decode);
        let vote = match (version.row.get(ATTR_VOTE_BAL), version.row.get(ATTR_VALUE)) {
            (Some(bal), Some(value)) => {
                Ballot::decode(bal).zip(LogEntry::decode(value).map(Arc::new))
            }
            _ => None,
        };
        (next_bal, vote)
    }

    /// Handle a `prepare` message (Algorithm 1, lines 3–15): promise not to
    /// accept ballots lower than `ballot` if it exceeds the current
    /// `nextBal`, and report the last vote either way.
    ///
    /// The compare-and-swap loop mirrors the pseudocode: the promise is only
    /// recorded if `nextBal` has not changed since it was read, otherwise
    /// the read is retried.
    pub fn handle_prepare(
        &self,
        group: GroupId,
        position: LogPosition,
        ballot: Ballot,
    ) -> PrepareOutcome {
        let key = Self::state_key(group, position);
        loop {
            let (next_bal, last_vote) = self.read_state(group, position);
            let exceeds = match next_bal {
                Some(current) => ballot > current,
                None => true,
            };
            if !exceeds {
                return PrepareOutcome {
                    promised: false,
                    next_bal,
                    last_vote,
                };
            }
            let applied = self
                .store
                .check_and_write(
                    key,
                    ATTR_NEXT_BAL,
                    next_bal.map(Ballot::encode).as_deref(),
                    Row::new().with(ATTR_NEXT_BAL, ballot.encode()),
                )
                .applied();
            if applied {
                return PrepareOutcome {
                    promised: true,
                    next_bal: Some(ballot),
                    last_vote,
                };
            }
            // nextBal changed under us (another service process of the same
            // datacenter raced); re-read and re-evaluate, exactly like the
            // `keepTrying` loop in the paper.
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
        value: &LogEntry,
    ) -> bool {
        let key = Self::state_key(group, position);
        // Only the promise decides an accept; the stored vote is about to be
        // overwritten and is never looked at.
        let expected = match self.promised_ballot(group, position) {
            // Regular path: the accept's ballot must match the promise
            // recorded by the prepare phase.
            Some(current) if current == ballot => Some(ballot.encode()),
            // Fast path: nothing promised yet and the proposer used the
            // reserved round-0 ballot granted by the position's leader.
            None if ballot.is_fast() => None,
            _ => return false,
        };
        let vote_row = Row::new()
            .with(ATTR_VOTE_BAL, ballot.encode())
            .with(ATTR_VALUE, value.encode())
            .with(ATTR_NEXT_BAL, ballot.encode());
        self.store
            .check_and_write(key, ATTR_NEXT_BAL, expected.as_deref(), vote_row)
            .applied()
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
        let key = Self::state_key(group, position);
        // Unconditional overwrite of the vote attributes, as in the paper.
        let _ = self.store.write(
            key,
            Row::new()
                .with(ATTR_VOTE_BAL, ballot.encode())
                .with(ATTR_VALUE, value.encode()),
            None,
        );
        Arc::clone(value)
    }

    /// Restart path: re-record a promise replayed from the write-ahead
    /// log. Replay is in append order, so an unconditional merge write
    /// reproduces exactly the state the compare-and-swap path built.
    pub fn restore_promise(&self, group: GroupId, position: LogPosition, ballot: Ballot) {
        let key = Self::state_key(group, position);
        let _ = self
            .store
            .write(key, Row::new().with(ATTR_NEXT_BAL, ballot.encode()), None);
    }

    /// Restart path: re-record a vote replayed from the write-ahead log.
    /// A vote also carries the implied promise (`nextBal = ballot`), just
    /// as [`AcceptorStore::handle_accept`] wrote it.
    pub fn restore_vote(
        &self,
        group: GroupId,
        position: LogPosition,
        ballot: Ballot,
        value: &LogEntry,
    ) {
        let key = Self::state_key(group, position);
        let _ = self.store.write(
            key,
            Row::new()
                .with(ATTR_VOTE_BAL, ballot.encode())
                .with(ATTR_VALUE, value.encode())
                .with(ATTR_NEXT_BAL, ballot.encode()),
            None,
        );
    }

    /// The vote currently recorded for `(group, position)`, if any — used by
    /// recovering services and by tests.
    pub fn current_vote(
        &self,
        group: GroupId,
        position: LogPosition,
    ) -> Option<(Ballot, Arc<LogEntry>)> {
        self.read_state(group, position).1
    }

    /// The highest promised ballot for `(group, position)`, if any.
    pub fn promised_ballot(&self, group: GroupId, position: LogPosition) -> Option<Ballot> {
        let key = Self::state_key(group, position);
        Ballot::decode(&self.store.read_attr(key, ATTR_NEXT_BAL, None)?)
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
    fn state_keys_are_disjoint_from_application_keys_and_each_other() {
        let k = AcceptorStore::state_key(GroupId(3), LogPosition(7));
        assert!(k.0 & PAXOS_KEY_FLAG != 0);
        assert_ne!(k, AcceptorStore::state_key(GroupId(3), LogPosition(8)));
        assert_ne!(k, AcceptorStore::state_key(GroupId(4), LogPosition(7)));
        // Application keys (interned ids zero-extended) never carry the flag.
        assert_eq!(KeyId(u32::MAX).store_key().0 & PAXOS_KEY_FLAG, 0);
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
        assert_eq!(*vote.1, *value);

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

    /// An accept is decided by `nextBal` alone: whatever sits in the vote
    /// attributes — nothing, an earlier vote, bytes that no longer decode —
    /// the regular path, the fast path and a stale promise come out the
    /// same, and an applied accept overwrites it.
    #[test]
    fn accept_never_looks_at_the_stored_vote() {
        let b1 = Ballot {
            round: 1,
            proposer: 1,
        };
        let b2 = Ballot {
            round: 2,
            proposer: 2,
        };
        let position = LogPosition(1);
        let key = AcceptorStore::state_key(group(), position);
        let earlier = entry(7).encode();
        let stored_votes = [None, Some(earlier.as_str()), Some("LE1 not an entry")];
        for stored in stored_votes {
            let with_stored_vote = || {
                let store = MvKvStore::new();
                if let Some(text) = stored {
                    let vote = Row::new()
                        .with(ATTR_VOTE_BAL, Ballot::fast(9).encode())
                        .with(ATTR_VALUE, text);
                    store.write(key, vote, None).unwrap();
                }
                store
            };
            let value = entry(1);

            // Regular path: the accept matches the recorded promise.
            let store = with_stored_vote();
            let acc = AcceptorStore::new(&store);
            assert!(acc.handle_prepare(group(), position, b1).promised);
            assert!(acc.handle_accept(group(), position, b1, &value));
            let (bal, voted) = acc.current_vote(group(), position).unwrap();
            assert_eq!((bal, &*voted), (b1, &*value), "stored vote {stored:?}");
            assert_eq!(acc.promised_ballot(group(), position), Some(b1));

            // Fast path: nothing promised yet, round-0 ballot.
            let store = with_stored_vote();
            let acc = AcceptorStore::new(&store);
            assert!(acc.handle_accept(group(), position, Ballot::fast(3), &value));
            let (bal, voted) = acc.current_vote(group(), position).unwrap();
            assert_eq!((bal, &*voted), (Ballot::fast(3), &*value));
            // ...but a regular ballot without a promise is refused.
            let store = with_stored_vote();
            let acc = AcceptorStore::new(&store);
            assert!(!acc.handle_accept(group(), position, b1, &value));

            // Stale promise: a higher prepare got in first; nothing is written.
            let store = with_stored_vote();
            let acc = AcceptorStore::new(&store);
            acc.handle_prepare(group(), position, b1);
            acc.handle_prepare(group(), position, b2);
            let before = store.read(key, None);
            assert!(!acc.handle_accept(group(), position, b1, &value));
            assert!(!acc.handle_accept(group(), position, Ballot::fast(3), &value));
            assert_eq!(store.read(key, None), before, "stored vote {stored:?}");
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
        assert!(acc.promised_ballot(group(), LogPosition(2)).is_none());
        assert!(acc.promised_ballot(GroupId(9), LogPosition(1)).is_none());
    }
}
