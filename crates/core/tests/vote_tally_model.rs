//! The client-side vote count against a literal model.
//!
//! Random streams of vote copies, submissions and answers that arrive
//! another way run against [`VoteTally`] and against a model that keeps
//! each voted value's voters as a plain list. The copy streams hold
//! duplicates, reorderings, two entries under one (position, ballot) and
//! several ballots, fast and classic. Checked after every step:
//! * a transaction is answered only once one value that carries it has
//!   copies from its ballot's quorum of distinct replicas, at one position
//!   and one ballot, and only while it waits;
//! * the answer carries that value's position, ballot, promotions and
//!   combination;
//! * the tally holds nothing for a transaction once it is answered, by the
//!   copies or another way, unless a member still waiting shares a voted
//!   value with it;
//! * once every transaction is answered, the tally holds nothing at all.

use mdstore::VoteTally;
use paxos::Ballot;
use proptest::prelude::*;
use std::sync::Arc;
use walog::{GroupId, LogPosition, TxnId};

const REPLICAS: usize = 3;
const GROUP: GroupId = GroupId(0);

/// The voted values copies may name: the client's transactions 1–4, alone
/// and combined (in both orders, which are two values), and with another
/// client's transaction 9.
const ENTRIES: [&[u64]; 6] = [&[1], &[2], &[1, 2], &[2, 1], &[3, 9], &[4]];

fn txn(seq: u64) -> TxnId {
    TxnId::new(if seq == 9 { 8 } else { 7 }, seq)
}

fn ballots() -> [Ballot; 3] {
    [Ballot::fast(5), Ballot::initial(5), Ballot::initial(6)]
}

#[derive(Clone, Debug)]
enum Op {
    /// The client submits transaction `seq` (again, for a re-submission).
    Expect(u64),
    /// Transaction `seq` is answered another way.
    Forget(u64),
    /// A copy of `voter`'s vote for entry `entry` at position `position`
    /// under ballot `ballot` arrives.
    Copy {
        voter: usize,
        position: u64,
        ballot: usize,
        entry: usize,
    },
}

fn copy() -> impl Strategy<Value = Op> {
    (0..REPLICAS, 1u64..3, 0usize..3, 0..ENTRIES.len()).prop_map(
        |(voter, position, ballot, entry)| Op::Copy {
            voter,
            position,
            ballot,
            entry,
        },
    )
}

/// Copies twice as often as either other step, so values reach quorums.
fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..5).prop_map(Op::Expect),
        (1u64..5).prop_map(Op::Forget),
        copy(),
        copy(),
    ]
}

/// The model: which transactions wait, and for each voted value still
/// counted, the replicas whose copies arrived.
#[derive(Default)]
struct Model {
    waiting: Vec<u64>,
    values: Vec<((u64, Ballot, usize), Vec<usize>)>,
}

impl Model {
    fn members(entry: usize) -> impl Iterator<Item = u64> {
        ENTRIES[entry].iter().copied()
    }

    /// Keep only the values a waiting transaction is a member of.
    fn prune(&mut self) {
        let waiting = &self.waiting;
        self.values
            .retain(|((_, _, entry), _)| Model::members(*entry).any(|m| waiting.contains(&m)));
    }

    fn forget(&mut self, seq: u64) {
        self.waiting.retain(|w| *w != seq);
        self.prune();
    }

    /// A copy arrives: the members it answers, if its value reached the
    /// ballot's quorum.
    fn copy(&mut self, voter: usize, position: u64, ballot: Ballot, entry: usize) -> Vec<u64> {
        if !Model::members(entry).any(|m| self.waiting.contains(&m)) {
            return Vec::new();
        }
        let key = (position, ballot, entry);
        let at = match self.values.iter().position(|(k, _)| *k == key) {
            Some(at) => at,
            None => {
                self.values.push((key, Vec::new()));
                self.values.len() - 1
            }
        };
        let voters = &mut self.values[at].1;
        if !voters.contains(&voter) {
            voters.push(voter);
        }
        let quorum = if ballot.is_fast() {
            REPLICAS
        } else {
            REPLICAS / 2 + 1
        };
        if voters.len() < quorum {
            return Vec::new();
        }
        let answered: Vec<u64> = Model::members(entry)
            .filter(|m| self.waiting.contains(m))
            .collect();
        self.waiting.retain(|w| !answered.contains(w));
        self.values.remove(at);
        self.prune();
        answered
    }

    /// Whether a counted value names `seq`.
    fn names(&self, seq: u64) -> bool {
        self.values
            .iter()
            .any(|((_, _, entry), _)| Model::members(*entry).any(|m| m == seq))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn vote_tally_matches_the_model(ops in proptest::collection::vec(op(), 1..120)) {
        let entries: Vec<Arc<[TxnId]>> = ENTRIES
            .iter()
            .map(|seqs| seqs.iter().map(|seq| txn(*seq)).collect())
            .collect();
        let mut tally: VoteTally<u64> = VoteTally::default();
        let mut model = Model::default();
        for op in ops {
            match op {
                Op::Expect(seq) => {
                    tally.expect(txn(seq), seq);
                    if !model.waiting.contains(&seq) {
                        model.waiting.push(seq);
                    }
                }
                Op::Forget(seq) => {
                    tally.forget(txn(seq));
                    model.forget(seq);
                }
                Op::Copy { voter, position, ballot, entry } => {
                    let ballot = ballots()[ballot];
                    let position = LogPosition(position);
                    let promotions = entry as u32;
                    let learned = tally.count(
                        voter, REPLICAS, GROUP, position, ballot, &entries[entry], promotions,
                    );
                    let expected = model.copy(voter, position.0, ballot, entry);
                    match learned {
                        None => prop_assert!(expected.is_empty(), "{:?} must answer {:?}", op, expected),
                        Some(learned) => {
                            let answered: Vec<u64> = learned.members.iter().map(|(_, key)| *key).collect();
                            prop_assert_eq!(&answered, &expected, "{:?}", op);
                            for (id, key) in &learned.members {
                                prop_assert_eq!(*id, txn(*key));
                            }
                            prop_assert_eq!(learned.position, position);
                            prop_assert_eq!(learned.ballot, ballot);
                            prop_assert_eq!(learned.promotions, promotions);
                            prop_assert_eq!(learned.combined, ENTRIES[entry].len() > 1);
                            let fate = learned.fate();
                            prop_assert!(fate.committed && fate.abort_reason.is_none());
                        }
                    }
                }
            }
            for seq in 1..=4 {
                let waiting = model.waiting.contains(&seq);
                prop_assert_eq!(tally.holds(txn(seq)), waiting || model.names(seq), "txn {}", seq);
            }
        }
        for seq in 1..=4 {
            tally.forget(txn(seq));
        }
        prop_assert!(tally.is_empty(), "answering everyone leaves nothing behind");
    }
}
