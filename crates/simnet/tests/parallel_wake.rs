//! The parallel runtime's wake-up path, timed on the wall clock.
//!
//! The test runs in a binary of its own: beside the crate's other
//! parallel-runtime tests it would share the host's cores with their worker
//! threads, and its bound measures the runtime, not that contention.

use simnet::{Actor, Context, NetworkConfig, NodeId, ParallelRuntime, SimDuration};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[derive(Clone, Debug)]
enum Msg {
    Ping(u32),
    Pong(u32),
}

struct Pinger {
    target: NodeId,
    rounds: u32,
    done: Arc<AtomicUsize>,
}

impl Actor<Msg> for Pinger {
    fn on_start(&mut self, ctx: &mut Context<Msg>) {
        ctx.send(self.target, Msg::Ping(0));
    }
    fn on_message(&mut self, ctx: &mut Context<Msg>, _from: NodeId, msg: Msg) {
        if let Msg::Pong(n) = msg {
            if n + 1 < self.rounds {
                ctx.send(self.target, Msg::Ping(n + 1));
            } else {
                self.done.fetch_add(1, Ordering::SeqCst);
            }
        }
    }
}

struct Ponger;

impl Actor<Msg> for Ponger {
    fn on_message(&mut self, ctx: &mut Context<Msg>, from: NodeId, msg: Msg) {
        if let Msg::Ping(n) = msg {
            ctx.send(from, Msg::Pong(n));
        }
    }
}

/// A worker with nothing of its own due sleeps for the 1 ms cap; a
/// delivery due before then must wake it. A lost wake-up costs up to
/// the cap per hop, a prompt hop about one minimum sleep.
#[test]
fn a_delivery_due_before_a_sleeping_workers_wake_reaches_it_promptly() {
    let config = NetworkConfig::uniform(SimDuration::from_micros(20));
    let mut rt: ParallelRuntime<Msg> = ParallelRuntime::new(config, 2, 5);
    let site = rt.add_site("only");
    let done = Arc::new(AtomicUsize::new(0));
    let ponger = rt.add_node(site, 0, Box::new(Ponger));
    rt.add_node(
        site,
        1,
        Box::new(Pinger {
            target: ponger,
            rounds: 200,
            done: done.clone(),
        }),
    );
    let flag = done.clone();
    let report = rt.run(Duration::from_secs(10), move || {
        flag.load(Ordering::SeqCst) == 1
    });
    assert_eq!(done.load(Ordering::SeqCst), 1);
    assert!(
        report.elapsed < Duration::from_micros(200 * 500),
        "200 round trips took {:?}",
        report.elapsed
    );
}
