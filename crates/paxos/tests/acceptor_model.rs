//! The acceptor against a literal reading of the paper's Algorithm 1.
//!
//! Random sequences of prepare, accept (regular and round-0 fast), apply
//! and the two write-ahead-log restores run against an [`AcceptorStore`]
//! and against a model that keeps `⟨nextBal, ballotNumber, value⟩` per
//! position as three plain fields. Every reply must agree, and after every
//! step so must every position's promise, vote and "touched" state.

use paxos::{AcceptorStore, Ballot};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use walog::ident::{AttrId, KeyId};
use walog::{GroupId, ItemRef, LogEntry, LogPosition, Transaction, TxnId};

const GROUPS: u32 = 2;
const POSITIONS: u64 = 3;
const VALUES: u64 = 3;

#[derive(Clone, Copy, Debug)]
enum Op {
    Prepare,
    Accept,
    Apply,
    RestorePromise,
    RestoreVote,
}

const OPS: [Op; 5] = [
    Op::Prepare,
    Op::Accept,
    Op::Apply,
    Op::RestorePromise,
    Op::RestoreVote,
];

/// One step: an operation at `(group, position)` with a ballot and (where
/// it takes one) a value index.
type Step = (Op, u32, u64, Ballot, u64);

fn step() -> impl Strategy<Value = Step> {
    let op = (0..OPS.len()).prop_map(|i| OPS[i]);
    // Round 0 is the fast path; a small ballot space makes equal, stale
    // and superseding ballots all common.
    let ballot = (0u64..3, 1u64..3).prop_map(|(round, proposer)| Ballot { round, proposer });
    (op, 0..GROUPS, 1..POSITIONS + 1, ballot, 0..VALUES)
}

/// Algorithm 1's per-position acceptor state, field for field.
#[derive(Clone, Debug, Default)]
struct ModelSlot {
    next_bal: Option<Ballot>,
    ballot_number: Option<Ballot>,
    value: Option<u64>,
}

impl ModelSlot {
    /// Lines 3–15: promise iff the ballot exceeds `nextBal`.
    fn prepare(&mut self, ballot: Ballot) -> bool {
        let promise = match self.next_bal {
            None => true,
            Some(next_bal) => ballot > next_bal,
        };
        if promise {
            self.next_bal = Some(ballot);
        }
        promise
    }

    /// Lines 16–19, with the leader optimization: vote iff the ballot is
    /// the promised one, or nothing is promised and the ballot is round 0.
    fn accept(&mut self, ballot: Ballot, value: u64) -> bool {
        let vote = match self.next_bal {
            Some(next_bal) => next_bal == ballot,
            None => ballot.round == 0,
        };
        if vote {
            self.next_bal = Some(ballot);
            self.ballot_number = Some(ballot);
            self.value = Some(value);
        }
        vote
    }

    /// Lines 20–21: record the chosen value unconditionally.
    fn apply(&mut self, ballot: Ballot, value: u64) {
        self.ballot_number = Some(ballot);
        self.value = Some(value);
    }

    fn vote(&self) -> Option<(Ballot, u64)> {
        self.ballot_number.zip(self.value)
    }

    fn touched(&self) -> bool {
        self.next_bal.is_some() || self.vote().is_some()
    }
}

fn value(index: u64) -> Arc<LogEntry> {
    Arc::new(LogEntry::single(
        Transaction::builder(TxnId::new(1, index), GroupId(0), LogPosition(0))
            .write(ItemRef::new(KeyId(0), AttrId(0)), index.to_string())
            .build(),
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn acceptor_matches_the_algorithm_1_model(steps in proptest::collection::vec(step(), 1..60)) {
        let values: Vec<Arc<LogEntry>> = (0..VALUES).map(value).collect();
        let index_of = |entry: &Arc<LogEntry>| {
            values.iter().position(|v| Arc::ptr_eq(v, entry)).expect("a vote holds a cast value") as u64
        };
        let store = mvkv::MvKvStore::new();
        let acceptor = AcceptorStore::new(&store);
        let mut model: BTreeMap<(GroupId, LogPosition), ModelSlot> = BTreeMap::new();
        for (op, group, position, ballot, v) in steps {
            let (group, position) = (GroupId(group), LogPosition(position));
            let slot = model.entry((group, position)).or_default();
            match op {
                Op::Prepare => {
                    let before = slot.vote();
                    let out = acceptor.handle_prepare(group, position, ballot);
                    prop_assert_eq!(out.promised, slot.prepare(ballot), "{:?}", op);
                    prop_assert_eq!(out.next_bal, slot.next_bal);
                    prop_assert_eq!(out.last_vote.map(|(b, e)| (b, index_of(&e))), before);
                }
                Op::Accept => {
                    let accepted = acceptor.handle_accept(group, position, ballot, &values[v as usize]);
                    prop_assert_eq!(accepted, slot.accept(ballot, v), "{:?} {:?}", op, ballot);
                }
                Op::Apply => {
                    let decided = acceptor.handle_apply(group, position, ballot, &values[v as usize]);
                    prop_assert!(Arc::ptr_eq(&decided, &values[v as usize]));
                    slot.apply(ballot, v);
                }
                Op::RestorePromise => {
                    acceptor.restore_promise(group, position, ballot);
                    slot.next_bal = Some(ballot);
                }
                Op::RestoreVote => {
                    acceptor.restore_vote(group, position, ballot, &values[v as usize]);
                    slot.next_bal = Some(ballot);
                    slot.apply(ballot, v);
                }
            }
            for g in (0..GROUPS).map(GroupId) {
                for p in (1..POSITIONS + 1).map(LogPosition) {
                    let expected = model.get(&(g, p)).cloned().unwrap_or_default();
                    prop_assert_eq!(acceptor.promised_ballot(g, p), expected.next_bal);
                    let vote = acceptor.current_vote(g, p).map(|(b, e)| (b, index_of(&e)));
                    prop_assert_eq!(vote, expected.vote());
                    prop_assert_eq!(acceptor.touched(g, p), expected.touched(), "{:?} {:?}", g, p);
                }
            }
        }
        prop_assert_eq!(store.key_count(), 0, "acceptor state is never a row");
    }
}
