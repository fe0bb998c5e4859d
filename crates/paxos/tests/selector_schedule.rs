//! "Chosen" means one ballot's majority: a Paxos-CP proposer must not
//! promote past a value whose majority is assembled from different ballots.
//!
//! Three acceptors, one position:
//! 1. A0 votes v at b1, A1 votes w at b2 and A2 votes v at b3 (b3's
//!    proposer saw v at b1 and adopted it);
//! 2. a proposer for transaction T prepares b5 at A0 and A2 and sees v
//!    twice, under two ballots — v is not chosen, so T must not promote;
//! 3. a proposer at b6 prepares A0 and A1, adopts w (the higher-ballot
//!    vote) and can choose it there.
//!
//! Had T promoted past v, and had w invalidated T's reads while v did not,
//! T would have been promoted past a value that was never chosen.

use paxos::{
    enhanced_find_winning_val, find_winning_val, AcceptorStore, Ballot, ValueChoice, Vote,
};
use std::sync::Arc;
use walog::ident::{AttrId, KeyId};
use walog::{GroupId, ItemRef, LogEntry, LogPosition, Transaction, TxnId};

const GROUP: GroupId = GroupId(0);
const POSITION: LogPosition = LogPosition(1);

fn write(client: u32, attr: u32) -> Arc<LogEntry> {
    let txn = Transaction::builder(TxnId::new(client, 1), GROUP, LogPosition(0))
        .write(ItemRef::new(KeyId(0), AttrId(attr)), "x")
        .build();
    Arc::new(LogEntry::single(txn))
}

fn ballot(round: u64, proposer: u64) -> Ballot {
    Ballot { round, proposer }
}

/// Prepare `b` at each acceptor and collect the answers as selector votes.
fn prepare(acceptors: &[(usize, &AcceptorStore)], b: Ballot) -> Vec<Vote> {
    acceptors
        .iter()
        .map(|(from, acceptor)| {
            let outcome = acceptor.handle_prepare(GROUP, POSITION, b);
            Vote {
                from: *from,
                promised: outcome.promised,
                last_vote: outcome.last_vote,
            }
        })
        .collect()
}

#[test]
fn a_majority_across_ballots_is_not_chosen_and_does_not_promote() {
    let stores: Vec<mvkv::MvKvStore> = (0..3).map(|_| mvkv::MvKvStore::new()).collect();
    let a: Vec<AcceptorStore> = stores.iter().map(AcceptorStore::new).collect();
    let v = write(1, 2);
    let w = write(2, 1);

    // Each accept reaches one acceptor after its ballot's prepare.
    for (acceptor, b, value) in [
        (0, ballot(1, 1), &v),
        (1, ballot(2, 2), &w),
        (2, ballot(3, 3), &v),
    ] {
        assert!(prepare(&[(acceptor, &a[acceptor])], b)[0].promised);
        assert!(a[acceptor].handle_accept(GROUP, POSITION, b, value));
    }

    // T reads the item w writes, so only w would invalidate it.
    let t = Transaction::builder(TxnId::new(4, 1), GROUP, LogPosition(0))
        .read(ItemRef::new(KeyId(0), AttrId(1)), Some("old"))
        .write(ItemRef::new(KeyId(0), AttrId(3)), "t")
        .build();
    let t_entry = Arc::new(LogEntry::single(t.clone()));
    let votes = prepare(&[(0, &a[0]), (2, &a[2])], ballot(5, 4));
    match enhanced_find_winning_val(&votes, &t, &t_entry, 3, true) {
        ValueChoice::Propose(value) => {
            assert!(Arc::ptr_eq(&value, &v), "the basic rule adopts v at b3")
        }
        ValueChoice::Promote { .. } => {
            panic!("v holds a majority only across ballots b1 and b3: it is not chosen")
        }
    }

    // The next proposer can still choose w: A0 (v at b1) and A1 (w at b2)
    // are a majority, and w carries the higher ballot.
    let votes = prepare(&[(0, &a[0]), (1, &a[1])], ballot(6, 5));
    assert!(votes.iter().all(|vote| vote.promised));
    let adopted = find_winning_val(&votes, &write(5, 9));
    assert!(Arc::ptr_eq(&adopted, &w));
    for acceptor in [0, 1] {
        assert!(a[acceptor].handle_accept(GROUP, POSITION, ballot(6, 5), &adopted));
    }
}
