//! The held-acknowledgement scheduler against a literal model.
//!
//! Random sequences of holds, `Decided` deadlines, successful and failed
//! syncs, restarts from disk (a new datacenter incarnation the scheduler is
//! not told of) and crashes run against [`HeldAcks`] and against a model
//! that keeps the held replies as a plain list. The test plays the service:
//! it arms, cancels and fires the sync timer as the scheduler asks. Checked
//! after every step:
//! * a reply leaves only after a successful sync in its own incarnation;
//! * each reply leaves at most once, and in hold order;
//! * after every hold, the armed deadline is no later than the hold time
//!   plus `ACK_SYNC_LATENCY`;
//! * nothing held survives a crash.

use mdstore::service::{HeldAcks, ACK_SYNC_LATENCY, DECIDED_FLUSH_DEADLINE};
use mdstore::Msg;
use proptest::prelude::*;
use simnet::{NodeId, SimDuration, SimTime};
use walog::{AttrId, GroupId, KeyId};

#[derive(Clone, Copy, Debug)]
enum Op {
    Hold,
    Decided,
    SyncOk,
    SyncFailed,
    Restart,
    Crash,
}

const OPS: [Op; 6] = [
    Op::Hold,
    Op::Decided,
    Op::SyncOk,
    Op::SyncFailed,
    Op::Restart,
    Op::Crash,
];

/// One step: an operation after `gap` µs of simulated time. Gaps straddle
/// both deadlines, so a later deadline meets an earlier armed one and the
/// other way round.
fn step() -> impl Strategy<Value = (Op, u64)> {
    ((0..OPS.len()).prop_map(|i| OPS[i]), 0u64..1_500)
}

/// Reply number `id`, addressed to node `id` so the release order is
/// readable off the destinations.
fn reply(id: u64) -> (NodeId, Msg) {
    let msg = Msg::SnapshotReadReply {
        req_id: id,
        group: GroupId(0),
        key: KeyId(0),
        attr: AttrId(0),
        value: None,
        unavailable: false,
    };
    (NodeId(id as u32), msg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn held_acks_match_the_model(steps in proptest::collection::vec(step(), 1..80)) {
        let mut acks: HeldAcks<u32> = HeldAcks::default();
        // The service's view of its sync timer: deadline and handle.
        let mut armed: Option<(SimTime, u32)> = None;
        let mut next_timer = 0u32;
        // The model: held replies with the incarnation they were held in.
        let mut held: Vec<(u64, u64)> = Vec::new();
        let mut incarnation = 0u64;
        let mut next_id = 0u64;
        let mut last_released: Option<u64> = None;
        let mut now = SimTime::ZERO;
        for (op, gap) in steps {
            now += SimDuration::from_micros(gap);
            let rearm = match op {
                Op::Hold => {
                    let (to, msg) = reply(next_id);
                    held.push((next_id, incarnation));
                    next_id += 1;
                    Some((acks.hold(now, to, msg, incarnation), ACK_SYNC_LATENCY))
                }
                Op::Decided => Some((acks.sync_within(now, DECIDED_FLUSH_DEADLINE), DECIDED_FLUSH_DEADLINE)),
                Op::SyncOk | Op::SyncFailed => {
                    let synced = matches!(op, Op::SyncOk);
                    let released: Vec<u64> = acks
                        .release(synced, incarnation)
                        .map(|(to, msg)| {
                            let Msg::SnapshotReadReply { req_id, .. } = msg else {
                                panic!("a held reply comes back unchanged");
                            };
                            assert_eq!(u64::from(to.0), req_id);
                            req_id
                        })
                        .collect();
                    let expected: Vec<u64> = held
                        .drain(..)
                        .filter(|&(_, held_in)| synced && held_in == incarnation)
                        .map(|(id, _)| id)
                        .collect();
                    prop_assert_eq!(&released, &expected, "{:?}", op);
                    for id in released {
                        prop_assert!(last_released.is_none_or(|last| id > last), "{} left twice or out of order", id);
                        last_released = Some(id);
                    }
                    armed = None;
                    None
                }
                Op::Restart => {
                    incarnation += 1;
                    None
                }
                Op::Crash => {
                    acks.crash();
                    held.clear();
                    armed = None;
                    None
                }
            };
            let Some((rearm, within)) = rearm else {
                continue;
            };
            if let Some((due, cancel)) = rearm {
                prop_assert_eq!(due, now + within);
                prop_assert_eq!(cancel, armed.map(|(_, timer)| timer), "the replaced timer is the armed one");
                prop_assert!(armed.is_none_or(|(armed_due, _)| due < armed_due), "only a later deadline is replaced");
                next_timer += 1;
                acks.armed(due, next_timer);
                armed = Some((due, next_timer));
            }
            let due = armed.map(|(due, _)| due);
            prop_assert!(due.is_some_and(|due| due <= now + within), "{:?}: sync due {:?}", op, due);
        }
    }
}
