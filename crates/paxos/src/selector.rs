//! Value selection for the accept phase: `findWinningVal` (basic Paxos) and
//! `enhancedFindWinningVal` (Paxos-CP), Algorithm 2 lines 66–87.
//!
//! Votes carry `Arc<LogEntry>`s, so adopting a previously voted value —
//! the common contended case — is a pointer clone, and the conflict test
//! behind promotion is an integer-set lookup against the entry's cached
//! packed write set.

use crate::ballot::Ballot;
use crate::msg::ReplicaId;
use std::sync::Arc;
use walog::combine::{best_combination, can_append};
use walog::{LogEntry, Transaction};

/// One replica's answer collected during the prepare phase.
#[derive(Clone, Debug, PartialEq)]
pub struct Vote {
    /// The replica that answered.
    pub from: ReplicaId,
    /// Whether it promised this ballot.
    pub promised: bool,
    /// Its last cast vote for the position, if any.
    pub last_vote: Option<(Ballot, Arc<LogEntry>)>,
}

/// What the proposer should do next, as decided by the value-selection rule.
#[derive(Clone, Debug, PartialEq)]
pub enum ValueChoice {
    /// Send `accept` messages carrying this value.
    Propose(Arc<LogEntry>),
    /// Another value already has a majority of votes: stop competing for
    /// this position (do not send accepts) and consider promotion. The
    /// carried entry is the value observed to have won.
    Promote {
        /// The entry that has already gathered a majority of votes.
        decided: Arc<LogEntry>,
    },
}

/// `findWinningVal` (Algorithm 2, lines 66–75): the proposer must adopt the
/// vote with the highest proposal number; only when every response carries a
/// null vote may it propose its own value.
pub fn find_winning_val(votes: &[Vote], own: &Arc<LogEntry>) -> Arc<LogEntry> {
    votes
        .iter()
        .filter_map(|v| v.last_vote.as_ref())
        .max_by_key(|(ballot, _)| *ballot)
        .map(|(_, value)| Arc::clone(value))
        .unwrap_or_else(|| Arc::clone(own))
}

/// `enhancedFindWinningVal` (Algorithm 2, lines 76–87): decide between
/// *combination*, *promotion*, and the basic rule.
///
/// * If no value can possibly have gathered a majority of votes yet
///   (`maxVotes + (D − |responseSet|) < majority`), the proposer is free to
///   choose — it proposes the longest valid combination of its own
///   transaction with the transactions seen in other votes.
/// * If some value already has a majority of votes under one ballot and
///   the proposer's transaction is not part of it, the position is lost:
///   promote. Algorithm 2 counts a value's votes across ballots here; a
///   majority assembled from different ballots is not a chosen value (a
///   higher ballot can still choose another), so this rule counts votes
///   per ballot. The count across ballots still bounds the free-choice
///   test above, where it never under-counts a chosen value.
/// * Otherwise fall back to the basic rule.
///
/// `own_entry` is the proposer's cached single-transaction entry for
/// `own_txn` (kept by the caller so repeated rounds never rebuild it).
pub fn enhanced_find_winning_val(
    votes: &[Vote],
    own_txn: &Transaction,
    own_entry: &Arc<LogEntry>,
    num_replicas: usize,
    combination_enabled: bool,
) -> ValueChoice {
    enhanced_find_winning_val_batch(
        votes,
        std::slice::from_ref(own_txn),
        own_entry,
        num_replicas,
        combination_enabled,
        false,
    )
}

/// Batch-aware `enhancedFindWinningVal`: the proposer's value is an ordered
/// list of one *or more* mutually compatible transactions (a client-side
/// batch, see [`walog::combine::partition_compatible`]) cached in
/// `own_entry`.
///
/// The decision rules are the same as [`enhanced_find_winning_val`]; the
/// generalizations are:
///
/// * *combination* greedily appends vote-carried transactions to the whole
///   batch (each appended transaction must not read an item written by any
///   batch member or earlier appendee);
/// * *promotion* triggers when some value has a majority of votes and it
///   does not contain **every** batch member — the caller then drops the
///   members the winner invalidates and promotes the survivors.
///
/// `speculative` marks a proposal for a *pipelined* log position: one or
/// more earlier positions are still undecided when the proposer chooses its
/// value (see the `mdstore` commit pipeline). A transaction whose read set
/// is non-empty could be invalidated by whatever wins those earlier
/// positions, so a speculative proposer must not adopt responsibility for
/// committing it: combination is restricted to candidates with empty read
/// sets (blind writes, which no earlier entry can invalidate). Adopting a
/// previously voted value is unrestricted — that is mandated by the Paxos
/// safety rule and the value's serializability remains the obligation of
/// the proposer that first chose it for the position.
pub fn enhanced_find_winning_val_batch(
    votes: &[Vote],
    own_txns: &[Transaction],
    own_entry: &Arc<LogEntry>,
    num_replicas: usize,
    combination_enabled: bool,
    speculative: bool,
) -> ValueChoice {
    debug_assert!(!own_txns.is_empty());
    debug_assert!(own_txns.iter().all(|t| own_entry.contains(t.id)));
    let majority = num_replicas / 2 + 1;
    let responses = votes.len();

    // Count votes per distinct value (non-null votes only), across ballots
    // for the free-choice bound, and per ballot for the "chosen" test.
    let same = |a: &Arc<LogEntry>, b: &Arc<LogEntry>| Arc::ptr_eq(a, b) || **a == **b;
    let mut tallies: Vec<(&Arc<LogEntry>, usize)> = Vec::new();
    let mut per_ballot: Vec<(Ballot, &Arc<LogEntry>, usize)> = Vec::new();
    for (ballot, value) in votes.iter().filter_map(|v| v.last_vote.as_ref()) {
        match tallies.iter_mut().find(|(v, _)| same(v, value)) {
            Some((_, count)) => *count += 1,
            None => tallies.push((value, 1)),
        }
        match per_ballot
            .iter_mut()
            .find(|(b, v, _)| b == ballot && same(v, value))
        {
            Some((_, _, count)) => *count += 1,
            None => per_ballot.push((*ballot, value, 1)),
        }
    }
    let max_votes = tallies.iter().map(|(_, count)| *count).max().unwrap_or(0);

    let missing = num_replicas.saturating_sub(responses);

    if max_votes + missing < majority {
        // No value can have a majority: safe to choose freely, so combine.
        if !combination_enabled {
            return ValueChoice::Propose(find_winning_val(votes, own_entry));
        }
        let candidates: Vec<Transaction> = votes
            .iter()
            .filter_map(|v| v.last_vote.as_ref())
            .flat_map(|(_, entry)| entry.transactions().iter().cloned())
            .filter(|t| !speculative || t.reads().is_empty())
            .collect();
        if candidates.is_empty() {
            // Nothing to combine with: propose the cached own entry as-is.
            return ValueChoice::Propose(Arc::clone(own_entry));
        }
        let combined = if own_txns.len() == 1 {
            best_combination(&own_txns[0], &candidates)
        } else {
            // Batch: keep every member (they are already a valid ordered
            // combination) and greedily append each distinct candidate that
            // still fits.
            let mut list = own_txns.to_vec();
            for cand in candidates {
                if list.iter().all(|t| t.id != cand.id) && can_append(&list, &cand) {
                    list.push(cand);
                }
            }
            list
        };
        if combined.len() == own_txns.len() {
            return ValueChoice::Propose(Arc::clone(own_entry));
        }
        return ValueChoice::Propose(Arc::new(LogEntry::combined(combined)));
    }

    // A value is chosen only when a majority voted for it under one ballot.
    // Votes for one value under different ballots do not add up: a higher
    // ballot may still choose another value at the acceptors that voted
    // for it earlier.
    let chosen = per_ballot.iter().find(|(_, _, count)| *count >= majority);
    if let Some((_, decided, _)) = chosen {
        let decided = Arc::clone(decided);
        if !own_txns.iter().all(|t| decided.contains(t.id)) {
            return ValueChoice::Promote { decided };
        }
        // Our transaction is already part of the winning value: push it
        // through with the basic rule (which will select that same value).
        return ValueChoice::Propose(find_winning_val(votes, own_entry));
    }

    ValueChoice::Propose(find_winning_val(votes, own_entry))
}

#[cfg(test)]
mod tests {
    use super::*;
    use walog::ident::{AttrId, GroupId, KeyId};
    use walog::{ItemRef, LogPosition, TxnId};

    fn item(a: u32) -> ItemRef {
        ItemRef::new(KeyId(0), AttrId(a))
    }

    fn txn(client: u32, seq: u64, reads: &[u32], writes: &[u32]) -> Transaction {
        let mut b = Transaction::builder(TxnId::new(client, seq), GroupId(0), LogPosition(0));
        for r in reads {
            b = b.read(item(*r), Some("v"));
        }
        for w in writes {
            b = b.write(item(*w), "x");
        }
        b.build()
    }

    fn entry(txn: Transaction) -> Arc<LogEntry> {
        Arc::new(LogEntry::single(txn))
    }

    fn vote(from: ReplicaId, last: Option<(Ballot, Arc<LogEntry>)>) -> Vote {
        Vote {
            from,
            promised: true,
            last_vote: last,
        }
    }

    fn ballot(round: u64) -> Ballot {
        Ballot { round, proposer: 1 }
    }

    #[test]
    fn find_winning_val_prefers_highest_ballot_vote() {
        let own = entry(txn(0, 1, &[], &[10]));
        let low = entry(txn(1, 2, &[], &[11]));
        let high = entry(txn(2, 3, &[], &[12]));
        let votes = vec![
            vote(0, None),
            vote(1, Some((ballot(1), low))),
            vote(2, Some((ballot(5), Arc::clone(&high)))),
        ];
        assert!(Arc::ptr_eq(&find_winning_val(&votes, &own), &high));
        // All-null votes: own value.
        let votes = vec![vote(0, None), vote(1, None)];
        assert!(Arc::ptr_eq(&find_winning_val(&votes, &own), &own));
    }

    #[test]
    fn enhanced_combines_when_no_majority_possible() {
        // D = 3, majority = 2. Two responses, each with a different non-null
        // vote (1 vote each): maxVotes + missing = 1 + 1 = 2, NOT < 2, so the
        // combine window is closed. With all-null votes it is open.
        let own = txn(0, 1, &[0], &[0]);
        let own_entry = entry(own.clone());
        let other = entry(txn(1, 2, &[1], &[1]));
        let votes = vec![vote(0, None), vote(1, None), vote(2, None)];
        match enhanced_find_winning_val(&votes, &own, &own_entry, 3, true) {
            ValueChoice::Propose(e) => {
                assert_eq!(e.len(), 1);
                assert!(e.contains(own.id));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Full response set with one minority vote: 1 + 0 < 2 → combine own
        // with the other transaction.
        let votes = vec![
            vote(0, None),
            vote(1, None),
            vote(2, Some((ballot(1), other))),
        ];
        match enhanced_find_winning_val(&votes, &own, &own_entry, 3, true) {
            ValueChoice::Propose(e) => {
                assert_eq!(e.len(), 2, "combination should pack both transactions");
                assert!(e.contains(own.id));
                assert!(e.contains(TxnId::new(1, 2)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn enhanced_respects_combination_switch() {
        let own = txn(0, 1, &[0], &[0]);
        let own_entry = entry(own.clone());
        let other = entry(txn(1, 2, &[1], &[1]));
        let votes = vec![
            vote(0, None),
            vote(1, None),
            vote(2, Some((ballot(1), Arc::clone(&other)))),
        ];
        match enhanced_find_winning_val(&votes, &own, &own_entry, 3, false) {
            // With combination disabled the basic rule applies: adopt the
            // highest-ballot non-null vote.
            ValueChoice::Propose(e) => assert!(Arc::ptr_eq(&e, &other)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn enhanced_promotes_when_other_value_has_majority() {
        let own = txn(0, 1, &[0], &[0]);
        let own_entry = entry(own.clone());
        let winner = entry(txn(1, 2, &[], &[1]));
        let votes = vec![
            vote(0, Some((ballot(2), Arc::clone(&winner)))),
            vote(1, Some((ballot(2), Arc::clone(&winner)))),
            vote(2, None),
        ];
        match enhanced_find_winning_val(&votes, &own, &own_entry, 3, true) {
            ValueChoice::Promote { decided } => assert!(Arc::ptr_eq(&decided, &winner)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn majority_is_recognized_across_distinct_allocations() {
        // The same decided value may arrive in different Arc allocations
        // (e.g. decoded from two acceptors' stores): the tally must count
        // them as one value.
        let own = txn(0, 1, &[0], &[0]);
        let own_entry = entry(own.clone());
        let winner_a = entry(txn(1, 2, &[], &[1]));
        let winner_b = entry(txn(1, 2, &[], &[1]));
        assert!(!Arc::ptr_eq(&winner_a, &winner_b));
        let votes = vec![
            vote(0, Some((ballot(2), winner_a))),
            vote(1, Some((ballot(2), winner_b))),
            vote(2, None),
        ];
        assert!(matches!(
            enhanced_find_winning_val(&votes, &own, &own_entry, 3, true),
            ValueChoice::Promote { .. }
        ));
    }

    #[test]
    fn enhanced_does_not_promote_when_own_is_in_winning_value() {
        let own = txn(0, 1, &[0], &[0]);
        let own_entry = entry(own.clone());
        let winner = Arc::new(LogEntry::combined(vec![txn(1, 2, &[], &[1]), own.clone()]));
        let votes = vec![
            vote(0, Some((ballot(2), Arc::clone(&winner)))),
            vote(1, Some((ballot(2), Arc::clone(&winner)))),
        ];
        match enhanced_find_winning_val(&votes, &own, &own_entry, 3, true) {
            ValueChoice::Propose(e) => assert!(Arc::ptr_eq(&e, &winner)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn batch_combination_keeps_all_members_and_appends_candidates() {
        let members = vec![txn(0, 1, &[0], &[0]), txn(0, 2, &[1], &[1])];
        let own_entry = Arc::new(LogEntry::combined(members.clone()));
        // One minority vote carrying a disjoint transaction: the combine
        // window is open (1 + 0 < 2 with all three responses in).
        let other = entry(txn(1, 5, &[9], &[9]));
        let votes = vec![
            vote(0, None),
            vote(1, None),
            vote(2, Some((ballot(1), other))),
        ];
        match enhanced_find_winning_val_batch(&votes, &members, &own_entry, 3, true, false) {
            ValueChoice::Propose(e) => {
                assert_eq!(e.len(), 3);
                assert!(e.contains(TxnId::new(0, 1)));
                assert!(e.contains(TxnId::new(0, 2)));
                assert!(e.contains(TxnId::new(1, 5)));
            }
            other => panic!("unexpected {other:?}"),
        }
        // A candidate that reads a batch member's write cannot be appended.
        let conflicting = entry(txn(1, 6, &[0], &[9]));
        let votes = vec![
            vote(0, None),
            vote(1, None),
            vote(2, Some((ballot(1), conflicting))),
        ];
        match enhanced_find_winning_val_batch(&votes, &members, &own_entry, 3, true, false) {
            ValueChoice::Propose(e) => assert!(Arc::ptr_eq(&e, &own_entry)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn batch_promotes_unless_winner_contains_every_member() {
        let members = vec![txn(0, 1, &[0], &[0]), txn(0, 2, &[1], &[1])];
        let own_entry = Arc::new(LogEntry::combined(members.clone()));
        // Winner contains only the first member: promote (the second member
        // still needs a position).
        let partial = Arc::new(LogEntry::combined(vec![
            members[0].clone(),
            txn(1, 5, &[9], &[9]),
        ]));
        let votes = vec![
            vote(0, Some((ballot(2), Arc::clone(&partial)))),
            vote(1, Some((ballot(2), Arc::clone(&partial)))),
            vote(2, None),
        ];
        match enhanced_find_winning_val_batch(&votes, &members, &own_entry, 3, true, false) {
            ValueChoice::Promote { decided } => assert!(Arc::ptr_eq(&decided, &partial)),
            other => panic!("unexpected {other:?}"),
        }
        // Winner contains both members: push it through with the basic rule.
        let full = Arc::new(LogEntry::combined(members.clone()));
        let votes = vec![
            vote(0, Some((ballot(2), Arc::clone(&full)))),
            vote(1, Some((ballot(2), Arc::clone(&full)))),
        ];
        match enhanced_find_winning_val_batch(&votes, &members, &own_entry, 3, true, false) {
            ValueChoice::Propose(e) => assert!(Arc::ptr_eq(&e, &full)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn speculative_combination_only_accepts_blind_write_candidates() {
        // Two minority votes: one blind write, one reader. At a speculative
        // (pipelined) position only the blind write may be combined — the
        // reader's reads could be invalidated by a still-undecided earlier
        // position.
        let members = vec![txn(0, 1, &[], &[0])];
        let own_entry = Arc::new(LogEntry::combined(members.clone()));
        let blind = entry(txn(1, 5, &[], &[9]));
        let reader = entry(txn(2, 6, &[3], &[4]));
        let votes = vec![
            vote(0, None),
            vote(1, Some((ballot(1), blind))),
            vote(2, Some((ballot(1), reader))),
        ];
        match enhanced_find_winning_val_batch(&votes, &members, &own_entry, 3, true, true) {
            ValueChoice::Propose(e) => {
                assert_eq!(e.len(), 2);
                assert!(e.contains(TxnId::new(0, 1)));
                assert!(e.contains(TxnId::new(1, 5)), "blind write combines");
                assert!(!e.contains(TxnId::new(2, 6)), "reader must not ride");
            }
            other => panic!("unexpected {other:?}"),
        }
        // The same votes at a non-speculative position combine all three.
        match enhanced_find_winning_val_batch(&votes, &members, &own_entry, 3, true, false) {
            ValueChoice::Propose(e) => assert_eq!(e.len(), 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn enhanced_falls_back_to_basic_rule_in_the_uncertain_window() {
        // D = 5, majority = 3. Three responses, one vote for X: maxVotes +
        // missing = 1 + 2 = 3, not < 3 and not >= majority in responses, so
        // the basic rule applies and X (the only non-null vote) is adopted.
        let own = txn(0, 1, &[0], &[0]);
        let own_entry = entry(own.clone());
        let x = entry(txn(1, 2, &[], &[7]));
        let votes = vec![
            vote(0, None),
            vote(1, None),
            vote(2, Some((ballot(4), Arc::clone(&x)))),
        ];
        match enhanced_find_winning_val(&votes, &own, &own_entry, 5, true) {
            ValueChoice::Propose(e) => assert!(Arc::ptr_eq(&e, &x)),
            other => panic!("unexpected {other:?}"),
        }
    }
}
