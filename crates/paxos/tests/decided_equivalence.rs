//! A position learned from the log resolves like a prepare round.
//!
//! For random batches and random winning entries, one proposer is told the
//! winner through [`ProposerEvent::Decided`] and a twin learns it the long
//! way: every replica promises and reports the winner as its vote. The two
//! must split the batch the same way — the members committed at the
//! position, the members aborted, and the survivors promoted to the next
//! one — and, once both finish through clean rounds, report the same
//! outcome.

use paxos::{
    Ballot, CommitOutcome, CommitProtocol, PaxosMsg, Proposer, ProposerAction, ProposerConfig,
    ProposerEvent,
};
use proptest::prelude::*;
use std::sync::Arc;
use walog::combine::can_append;
use walog::ident::{AttrId, KeyId};
use walog::{GroupId, ItemRef, LogEntry, LogPosition, Transaction, TxnId};

const REPLICAS: usize = 3;
/// Items 0..ITEMS, as read and write bit masks.
const ITEMS: u32 = 6;

/// Our proposer's client id; foreign transactions belong to client 9.
const CLIENT: u32 = 7;

fn txn(client: u32, seq: u64, reads: u8, writes: u8) -> Transaction {
    let mut b = Transaction::builder(TxnId::new(client, seq), GroupId(0), LogPosition(0));
    for a in (0..ITEMS).filter(|a| reads & (1 << a) != 0) {
        b = b.read(ItemRef::new(KeyId(0), AttrId(a)), Some("v"));
    }
    for a in (0..ITEMS).filter(|a| writes & (1 << a) != 0) {
        b = b.write(ItemRef::new(KeyId(0), AttrId(a)), "x");
    }
    b.build()
}

/// Read and write masks of one transaction (at least one write).
fn sets() -> impl Strategy<Value = (u8, u8)> {
    (0u8..1 << ITEMS, 1u8..1 << ITEMS)
}

/// A valid combination: each drawn transaction that fits behind the ones
/// kept so far.
fn batch(drawn: &[(u8, u8)]) -> Vec<Transaction> {
    let mut list: Vec<Transaction> = Vec::new();
    for (seq, (reads, writes)) in drawn.iter().enumerate() {
        let candidate = txn(CLIENT, seq as u64 + 1, *reads, *writes);
        if can_append(&list, &candidate) {
            list.push(candidate);
        }
    }
    list
}

/// The winning entry: foreign transactions plus the members of `batch`
/// picked by `ours`, ours first or last. Empty means the recovery no-op.
fn winner(batch: &[Transaction], foreign: &[(u8, u8)], ours: u8, ours_first: bool) -> LogEntry {
    let mine = batch
        .iter()
        .enumerate()
        .filter(|(i, _)| ours & (1 << i) != 0)
        .map(|(_, t)| t.clone());
    let theirs = foreign
        .iter()
        .enumerate()
        .map(|(seq, (r, w))| txn(9, seq as u64 + 1, *r, *w));
    let list: Vec<Transaction> = if ours_first {
        mine.chain(theirs).collect()
    } else {
        theirs.chain(mine).collect()
    };
    if list.is_empty() {
        LogEntry::noop()
    } else {
        LogEntry::combined(list)
    }
}

fn outcome(actions: &[ProposerAction]) -> Option<CommitOutcome> {
    actions.iter().find_map(|a| match a {
        ProposerAction::Finished(o) => Some(o.clone()),
        _ => None,
    })
}

/// Answer every prepare and accept in `actions` with a clean promise or
/// vote from every replica until the instance finishes.
fn run_clean(p: &mut Proposer, mut actions: Vec<ProposerAction>) -> CommitOutcome {
    loop {
        if let Some(done) = outcome(&actions) {
            return done;
        }
        let mut next = Vec::new();
        for action in &actions {
            let ProposerAction::Broadcast(msg) = action else {
                continue;
            };
            for from in 0..REPLICAS {
                let event = match *msg {
                    PaxosMsg::Prepare {
                        position, ballot, ..
                    } => ProposerEvent::PrepareReply {
                        from,
                        position,
                        ballot,
                        promised: true,
                        next_bal: None,
                        last_vote: None,
                    },
                    PaxosMsg::Accept {
                        position, ballot, ..
                    } => ProposerEvent::AcceptReply {
                        from,
                        position,
                        ballot,
                        accepted: true,
                    },
                    _ => continue,
                };
                next.extend(p.on_event(event));
            }
        }
        assert!(!next.is_empty(), "a clean round always makes progress");
        actions = next;
    }
}

/// The prepare ballot in `actions`.
fn prepare_ballot(actions: &[ProposerAction]) -> Ballot {
    actions
        .iter()
        .find_map(|a| match a {
            ProposerAction::Broadcast(PaxosMsg::Prepare { ballot, .. }) => Some(*ballot),
            _ => None,
        })
        .expect("the instance starts with a prepare")
}

/// Where a proposer stands once position 1 is resolved: its outcome if it
/// finished, else the members still in flight, its position and its
/// promotions so far.
fn standing(
    p: &Proposer,
    actions: &[ProposerAction],
) -> Result<CommitOutcome, (Vec<TxnId>, LogPosition, u32)> {
    outcome(actions).ok_or_else(|| {
        let ids = p.transactions().iter().map(|t| t.id).collect();
        (ids, p.current_position(), p.promotions())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn a_decided_entry_splits_the_batch_like_a_prepare_round_that_reports_it(
        drawn in proptest::collection::vec(sets(), 1..5),
        foreign in proptest::collection::vec(sets(), 0..3),
        ours in 0u8..16,
        ours_first in any::<bool>(),
        cp in any::<bool>(),
        capped in any::<bool>(),
    ) {
        let members = batch(&drawn);
        let won = Arc::new(winner(&members, &foreign, ours, ours_first));
        let (base, protocol) = if cp {
            (ProposerConfig::cp(REPLICAS), CommitProtocol::PaxosCp)
        } else {
            (ProposerConfig::basic(REPLICAS), CommitProtocol::BasicPaxos)
        };
        prop_assert_eq!(base.protocol, protocol);
        let cfg = base
            .with_fast_path(false)
            .with_max_promotions(if capped || !cp { Some(0) } else { None });
        let new = || Proposer::new(cfg.clone(), GroupId(0), u64::from(CLIENT), members.clone(), LogPosition(1), 0);

        // Told: the host found the winner installed at position 1.
        let mut told = new();
        told.start();
        let told_actions = told.on_event(ProposerEvent::Decided {
            position: LogPosition(1),
            entry: Arc::clone(&won),
        });

        // Learned: every replica promises and reports the winner as its vote.
        let mut learned = new();
        let ballot = prepare_ballot(&learned.start());
        let rival = Ballot { round: 1, proposer: 2 };
        let mut learned_actions = Vec::new();
        for from in 0..REPLICAS {
            learned_actions.extend(learned.on_event(ProposerEvent::PrepareReply {
                from,
                position: LogPosition(1),
                ballot,
                promised: true,
                next_bal: Some(rival),
                last_vote: Some((rival, Arc::clone(&won))),
            }));
        }
        // Where the rule adopts the winner, push it through the accept phase.
        let adopted = learned_actions.iter().any(|a| {
            matches!(a, ProposerAction::Broadcast(PaxosMsg::Accept { position, value, .. })
                if *position == LogPosition(1) && **value == *won)
        });
        if adopted {
            learned_actions.clear();
            for from in 0..REPLICAS {
                learned_actions.extend(learned.on_event(ProposerEvent::AcceptReply {
                    from,
                    position: LogPosition(1),
                    ballot,
                    accepted: true,
                }));
            }
        }

        prop_assert_eq!(
            standing(&told, &told_actions),
            standing(&learned, &learned_actions),
            "position 1 resolved differently"
        );
        let told_final = run_clean(&mut told, told_actions);
        let learned_final = run_clean(&mut learned, learned_actions);
        prop_assert_eq!(told_final, learned_final);
    }
}
