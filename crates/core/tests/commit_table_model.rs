//! The exactly-once table against a literal model.
//!
//! Random sequences of commit requests (a member id, a requester, whether
//! the replicated log already carries the member) and committer fates
//! (committed, aborted, or `Unavailable`) run against a [`CommitTable`] and
//! against a model that keeps the in-flight requests and the remembered
//! fates as two plain maps. Checked after every step:
//! * each fate is answered once, to the latest requester;
//! * a retry after a remembered fate gets the identical fate and is never
//!   admitted again;
//! * `Unavailable` is never remembered;
//! * an id already in the log is never admitted;
//! * the suppression count equals absorbed + replayed + in-log answers.

use mdstore::service::{Admission, CommitTable, Fate};
use mdstore::{AbortReason, Msg, RunMetrics};
use parking_lot::Mutex;
use proptest::prelude::*;
use simnet::NodeId;
use std::collections::BTreeMap;
use std::sync::Arc;
use walog::{GroupId, TxnId};

const IDS: u64 = 4;
const REQUESTERS: u32 = 3;
const GROUP: GroupId = GroupId(7);

#[derive(Clone, Copy, Debug)]
enum Step {
    /// A commit request for member `id` from `requester`; `in_log` says
    /// whether the group's log already carries the member.
    Request {
        id: u64,
        requester: u32,
        in_log: bool,
    },
    /// The committer finished member `id` with `fate`.
    Fate { id: u64, fate: Fate },
}

fn fate() -> impl Strategy<Value = Fate> {
    let reasons = [
        None,
        Some(AbortReason::Conflict),
        Some(AbortReason::Unavailable),
    ];
    (0..reasons.len(), 0u32..3, any::<bool>(), 1u32..4).prop_map(
        move |(reason, promotions, combined, rounds)| {
            let abort_reason = reasons[reason];
            Fate {
                group: GROUP,
                committed: abort_reason.is_none(),
                promotions,
                combined: combined && abort_reason.is_none(),
                rounds,
                abort_reason,
            }
        },
    )
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..IDS, 0..REQUESTERS, any::<bool>()).prop_map(|(id, requester, in_log)| {
            Step::Request {
                id,
                requester,
                in_log,
            }
        }),
        (0..IDS, fate()).prop_map(|(id, fate)| Step::Fate { id, fate }),
    ]
}

fn txn(id: u64) -> TxnId {
    TxnId::new(1, id)
}

/// The reply a requester expects for `fate` of member `id`.
fn reply(req_id: u64, id: u64, fate: Fate) -> Msg {
    Msg::CommitReply {
        req_id,
        group: GROUP,
        txn: txn(id),
        committed: fate.committed,
        promotions: fate.promotions,
        combined: fate.combined,
        rounds: fate.rounds,
        abort_reason: fate.abort_reason,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn commit_table_matches_the_model(steps in proptest::collection::vec(step(), 1..80)) {
        let sink = Arc::new(Mutex::new(RunMetrics::default()));
        let mut table = CommitTable::with_metrics(Arc::clone(&sink));
        // The model: in-flight id → (requester, req_id), and remembered fates.
        let mut in_flight: BTreeMap<u64, (u32, u64)> = BTreeMap::new();
        let mut remembered: BTreeMap<u64, Fate> = BTreeMap::new();
        let mut suppressed = 0u64;
        let in_log_fate = Fate {
            group: GROUP,
            committed: true,
            promotions: 0,
            combined: false,
            rounds: 0,
            abort_reason: None,
        };
        for (req_id, step) in (1u64..).zip(steps) {
            match step {
                Step::Request { id, requester, in_log } => {
                    let admission = table.request(NodeId(requester), req_id, txn(id), GROUP, in_log);
                    let expected = if let Some(&fate) = remembered.get(&id) {
                        Admission::Answer(reply(req_id, id, fate))
                    } else if in_log {
                        Admission::Answer(reply(req_id, id, in_log_fate))
                    } else if in_flight.insert(id, (requester, req_id)).is_some() {
                        Admission::Absorbed
                    } else {
                        Admission::Submit
                    };
                    if expected != Admission::Submit {
                        suppressed += 1;
                    }
                    prop_assert!(!(in_log && admission == Admission::Submit), "an id in the log was admitted");
                    prop_assert_eq!(admission, expected, "{:?}", step);
                }
                Step::Fate { id, fate } => {
                    let answered = table.finished(txn(id), fate);
                    // Answered once, to the latest requester: the model
                    // forgets the request with the answer.
                    let expected = in_flight
                        .remove(&id)
                        .map(|(requester, req_id)| (NodeId(requester), reply(req_id, id, fate)));
                    prop_assert_eq!(answered, expected, "{:?}", step);
                    if fate.abort_reason != Some(AbortReason::Unavailable) {
                        remembered.insert(id, fate);
                    }
                }
            }
            prop_assert_eq!(sink.lock().duplicate_suppressions, suppressed);
        }
    }
}
