//! The parallel runtime: the same actors and the same engine, sharded over
//! OS worker threads and stepped on the wall clock.
//!
//! The deterministic [`Simulation`] executes every actor on one thread under
//! virtual time — perfect for reproducibility, but "as fast as the hardware
//! allows" means one core. [`ParallelRuntime`] is the second execution
//! mode: actors are partitioned across worker threads (the caller picks the
//! worker when adding a node — e.g. shard by transaction-group home), and
//! each worker runs its own [`Simulation`] engine holding its own actors.
//! Every engine registers every node; another worker's nodes carry no
//! actor, so a delivery routed to one leaves the engine and travels to its
//! worker's inbox, stamped with its delivery instant.
//!
//! One engine means one network model: latency, jitter, loss and the chaos
//! policies are drawn by the same code, in the same order, under either
//! runtime. What differs is the clock. A worker steps its engine through
//! the events due by the wall clock, and each callback's `ctx.now()` is the
//! microseconds elapsed since the run started, so latencies from the
//! [`NetworkConfig`] become real delays. The protocol code sees the same
//! [`Actor`] surface; the only extra requirement is `Send` (an actor moves
//! to its worker's thread). There is no crash/partition injection and no
//! determinism here — the single-threaded simulation remains the canonical
//! test and repro mode.
//!
//! ## Waking a worker only for a delivery due before it wakes
//!
//! Each worker has one inbox: a mutex over the deliveries peers routed to
//! its nodes and, while it sleeps, the instant it will wake on its own
//! (its next event, 20 µs to 1 ms away). A sender appends its whole batch
//! under that lock and wakes the owner only if the batch holds a delivery
//! due before that instant; a later one is taken in by the wake-up already
//! scheduled. Stopping wakes every worker. Nothing spins, and no event
//! fires before its due instant. The inbox is unbounded, and safely so: it
//! holds only what actors sent, as the engine's own event queue does, and
//! no worker ever blocks on a peer (a sender holds a peer's lock only to
//! append), so no cycle of workers waiting on each other can form.

use crate::actor::Actor;
use crate::network::{NetworkConfig, SiteId};
use crate::sim::{NodeId, Remote, Simulation};
use crate::stats::NetStats;
use crate::time::SimTime;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
// lint:allow(determinism): the parallel runtime is the real-time execution
// mode — wall-clock time IS simulation time here; replayable runs use the
// single-threaded `Simulation` instead (see docs/ANALYSIS.md).
use std::time::{Duration, Instant};

/// Per-iteration cap on due events dispatched before rechecking the
/// inbox and the stop flag.
const DISPATCH_BATCH: usize = 4_096;

/// The engine a worker runs: its actors must move to its thread.
type Engine<M> = Simulation<M, dyn Actor<M> + Send>;

/// What peers routed to a worker's nodes since it last looked, and, while
/// it sleeps, the instant it will wake on its own.
struct Inbox<M> {
    deliveries: Vec<Remote<M>>,
    asleep_until: Option<SimTime>,
}

/// A worker's inbox and the condition its owner sleeps on.
struct Mailbox<M> {
    inbox: Mutex<Inbox<M>>,
    wake: Condvar,
}

impl<M> Mailbox<M> {
    fn lock(&self) -> MutexGuard<'_, Inbox<M>> {
        self.inbox.lock().expect("inbox lock poisoned")
    }

    /// Append `batch`, waking the owner if it sleeps past a delivery's due
    /// instant.
    fn post(&self, batch: &mut Vec<Remote<M>>) {
        let mut inbox = self.lock();
        let wake = inbox
            .asleep_until
            .is_some_and(|until| batch.iter().any(|delivery| delivery.at < until));
        if wake {
            inbox.asleep_until = None;
        }
        inbox.deliveries.append(batch);
        drop(inbox);
        if wake {
            self.wake.notify_one();
        }
    }
}

/// State shared by every worker thread (read-only after launch, except the
/// inboxes and the stop flag).
struct Shared<M> {
    /// Owning worker of each node, indexed by raw node id.
    node_worker: Vec<usize>,
    /// Inbox of each worker.
    mailboxes: Vec<Mailbox<M>>,
    /// Set once by the control thread; workers exit their loops on it.
    stop: AtomicBool,
}

/// The worker's loop: take the inbox in, run every event due by the wall
/// clock, ship what the engine routed to peers, one batch per peer, then
/// sleep until the next event is due or an earlier delivery arrives.
fn run_worker<M: Clone + Send + 'static>(
    mut engine: Engine<M>,
    index: usize,
    shared: &Shared<M>,
    // lint:allow(determinism): wall-mapped time is this runtime's contract
    start: Instant,
) -> NetStats {
    let clock = || SimTime::from_micros(start.elapsed().as_micros() as u64);
    let mailbox = &shared.mailboxes[index];
    let mut arrived = Vec::new();
    let mut outgoing: Vec<Vec<Remote<M>>> = shared.mailboxes.iter().map(|_| Vec::new()).collect();
    while !shared.stop.load(Ordering::Relaxed) {
        std::mem::swap(&mut mailbox.lock().deliveries, &mut arrived);
        let drained = arrived.len();
        for delivery in arrived.drain(..) {
            engine.deliver_at(delivery);
        }
        // The due limit is read once per iteration, so a burst of due
        // events cannot keep the worker from its inbox; each callback
        // still reads the clock afresh for its `now`.
        let due = clock();
        let mut fired = 0;
        while fired < DISPATCH_BATCH && engine.step_due(due, clock) {
            fired += 1;
        }
        for delivery in engine.take_remote() {
            outgoing[shared.node_worker[delivery.to.0 as usize]].push(delivery);
        }
        for (peer, batch) in shared.mailboxes.iter().zip(&mut outgoing) {
            if !batch.is_empty() {
                peer.post(batch);
            }
        }
        if drained == 0 && fired == 0 {
            let now = clock().as_micros();
            let wait_us = engine.next_due().map_or(1_000, |at| {
                at.as_micros().saturating_sub(now).clamp(20, 1_000)
            });
            // `run` sets `stop` before taking each inbox's lock to wake its
            // owner, so reading it under the lock cannot sleep through it.
            let mut inbox = mailbox.lock();
            if inbox.deliveries.is_empty() && !shared.stop.load(Ordering::Relaxed) {
                inbox.asleep_until = Some(SimTime::from_micros(now + wait_us));
                let (mut inbox, _) = mailbox
                    .wake
                    .wait_timeout(inbox, Duration::from_micros(wait_us))
                    .expect("inbox lock poisoned");
                inbox.asleep_until = None;
            }
        }
    }
    engine.stats().clone()
}

/// What a [`ParallelRuntime`] run measured.
#[derive(Clone, Debug)]
pub struct ParallelReport {
    /// Number of worker threads the run used.
    pub workers: usize,
    /// Wall-clock time from launch to the last worker joining.
    pub elapsed: Duration,
    /// Network counters merged over all workers.
    pub stats: NetStats,
    /// Always 0: a cross-worker delivery is appended to an unbounded inbox
    /// and never waits for room. Kept because the benchmark harness
    /// (`benchmark/src/sut.rs`) reads it.
    pub backpressure: u64,
    /// Messages still routed-but-undelivered when the run stopped.
    pub undelivered: u64,
}

/// A multi-threaded actor runtime: the caller assigns each node to a
/// worker thread at registration time, then [`ParallelRuntime::run`]
/// drives every worker's engine until a stop condition holds.
///
/// Node ids are assigned densely in registration order, exactly like
/// [`Simulation::add_node`], so directory wiring built for the simulation
/// works unchanged.
pub struct ParallelRuntime<M> {
    /// One engine per worker. Each registers every site and node, and holds
    /// only its own worker's actors.
    engines: Vec<Engine<M>>,
    /// Owning worker of each node, indexed by raw node id.
    node_worker: Vec<usize>,
}

impl<M: Clone + Send + 'static> ParallelRuntime<M> {
    /// Create a runtime with `workers` threads (clamped to at least 1).
    /// The seed derives each worker's RNG; scheduling is *not*
    /// deterministic (wall-clock interleavings differ run to run).
    pub fn new(config: NetworkConfig, workers: usize, seed: u64) -> Self {
        let engines = (0..workers.max(1) as u64)
            .map(|index| {
                let seed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (index + 1);
                Simulation::empty(config.clone(), seed)
            })
            .collect();
        ParallelRuntime {
            engines,
            node_worker: Vec::new(),
        }
    }

    /// Number of worker threads.
    pub fn num_workers(&self) -> usize {
        self.engines.len()
    }

    /// Register a site (a latency-matrix endpoint, e.g. one datacenter of
    /// one shard).
    pub fn add_site(&mut self, name: impl Into<String>) -> SiteId {
        let name = name.into();
        let mut site = SiteId(0);
        for engine in &mut self.engines {
            site = engine.add_site(name.as_str());
        }
        site
    }

    /// Register an actor at `site`, owned by worker `worker`. Returns the
    /// node's dense id. Panics if the worker is unknown.
    pub fn add_node(
        &mut self,
        site: SiteId,
        worker: usize,
        actor: Box<dyn Actor<M> + Send>,
    ) -> NodeId {
        assert!(worker < self.engines.len(), "unknown worker");
        let mut actor = Some(actor);
        let mut node = NodeId(0);
        for (index, engine) in self.engines.iter_mut().enumerate() {
            let owned = if index == worker { actor.take() } else { None };
            node = engine.place(site, owned);
        }
        self.node_worker.push(worker);
        node
    }

    /// Number of registered nodes.
    pub fn node_count(&self) -> usize {
        self.node_worker.len()
    }

    /// Launch the worker threads and run until `done()` returns true or
    /// `max_wall` elapses, whichever comes first. `done` is polled every
    /// millisecond on the control thread; share state with your actors
    /// (e.g. an `Arc<AtomicUsize>` of finished drivers) to signal it.
    pub fn run<F>(self, max_wall: Duration, mut done: F) -> ParallelReport
    where
        F: FnMut() -> bool,
    {
        let workers = self.num_workers();
        let shared = Shared {
            node_worker: self.node_worker,
            mailboxes: (0..workers)
                .map(|_| Mailbox {
                    inbox: Mutex::new(Inbox {
                        deliveries: Vec::new(),
                        asleep_until: None,
                    }),
                    wake: Condvar::new(),
                })
                .collect(),
            stop: AtomicBool::new(false),
        };
        let shared = &shared;

        // lint:allow(determinism): the run's epoch is real time by design
        let start = Instant::now();
        let mut stats = NetStats::default();
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .engines
                .into_iter()
                .enumerate()
                .map(|(index, engine)| {
                    scope.spawn(move || run_worker(engine, index, shared, start))
                })
                .collect();
            while start.elapsed() < max_wall && !done() {
                std::thread::sleep(Duration::from_millis(1));
            }
            shared.stop.store(true, Ordering::SeqCst);
            for mailbox in &shared.mailboxes {
                mailbox.lock().asleep_until = None;
                mailbox.wake.notify_one();
            }
            for handle in handles {
                stats.merge(&handle.join().expect("worker thread panicked"));
            }
        });
        let elapsed = start.elapsed();
        // Every routed copy (a duplicate is a second copy) is delivered,
        // dropped, or still in an inbox or a worker's queue.
        let undelivered =
            (stats.sent + stats.duplicated).saturating_sub(stats.delivered + stats.dropped());
        ParallelReport {
            workers,
            elapsed,
            stats,
            backpressure: 0,
            undelivered,
        }
    }

    /// Run for a fixed wall-clock span with no early-stop condition.
    pub fn run_for(self, wall: Duration) -> ParallelReport {
        self.run(wall, || false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::Context;
    use crate::time::SimDuration;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

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

    #[test]
    fn cross_worker_ping_pong_completes() {
        let config = NetworkConfig::uniform(SimDuration::from_micros(50));
        let mut rt: ParallelRuntime<Msg> = ParallelRuntime::new(config, 2, 7);
        let a = rt.add_site("a");
        let b = rt.add_site("b");
        let done = Arc::new(AtomicUsize::new(0));
        let ponger = rt.add_node(a, 0, Box::new(Ponger));
        rt.add_node(
            b,
            1,
            Box::new(Pinger {
                target: ponger,
                rounds: 25,
                done: done.clone(),
            }),
        );
        let flag = done.clone();
        let report = rt.run(Duration::from_secs(10), move || {
            flag.load(Ordering::SeqCst) == 1
        });
        assert_eq!(done.load(Ordering::SeqCst), 1);
        assert_eq!(report.workers, 2);
        assert!(report.stats.delivered >= 50, "all rounds delivered");
        assert_eq!(report.stats.dropped_loss, 0);
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

    struct TimerChain {
        left: u32,
        done: Arc<AtomicUsize>,
    }

    impl Actor<Msg> for TimerChain {
        fn on_start(&mut self, ctx: &mut Context<Msg>) {
            let keep = ctx.set_timer(SimDuration::from_micros(200), 1);
            let drop = ctx.set_timer(SimDuration::from_micros(100), 2);
            let _ = keep;
            ctx.cancel_timer(drop);
        }
        fn on_message(&mut self, _ctx: &mut Context<Msg>, _from: NodeId, _msg: Msg) {}
        fn on_timer(&mut self, ctx: &mut Context<Msg>, tag: u64) {
            assert_eq!(tag, 1, "cancelled timer must not fire");
            self.left -= 1;
            if self.left == 0 {
                self.done.fetch_add(1, Ordering::SeqCst);
            } else {
                let t = ctx.set_timer(SimDuration::from_micros(200), 1);
                let dead = ctx.set_timer(SimDuration::from_micros(100), 2);
                let _ = t;
                ctx.cancel_timer(dead);
            }
        }
    }

    #[test]
    fn timers_fire_and_cancel_per_worker() {
        let config = NetworkConfig::uniform(SimDuration::from_micros(50));
        let mut rt: ParallelRuntime<Msg> = ParallelRuntime::new(config, 1, 3);
        let site = rt.add_site("only");
        let done = Arc::new(AtomicUsize::new(0));
        rt.add_node(
            site,
            0,
            Box::new(TimerChain {
                left: 5,
                done: done.clone(),
            }),
        );
        let flag = done.clone();
        let report = rt.run(Duration::from_secs(10), move || {
            flag.load(Ordering::SeqCst) == 1
        });
        assert_eq!(done.load(Ordering::SeqCst), 1);
        assert_eq!(report.stats.timers_fired, 5);
        assert_eq!(report.stats.timers_cancelled, 5);
    }

    /// Both runtimes draw one network model, chaos policies included: with
    /// every message duplicated, each send arrives twice, across workers
    /// as well as within one.
    #[test]
    fn duplicating_chaos_delivers_every_message_twice() {
        let config = NetworkConfig::uniform(SimDuration::from_micros(50))
            .with_chaos(crate::network::ChaosConfig::default().with_duplicates(1.0));
        let mut rt: ParallelRuntime<Msg> = ParallelRuntime::new(config, 2, 11);
        let site = rt.add_site("only");
        let done = Arc::new(AtomicUsize::new(0));
        let ponger = rt.add_node(site, 0, Box::new(Ponger));
        rt.add_node(
            site,
            1,
            Box::new(Pinger {
                target: ponger,
                rounds: 3,
                done: done.clone(),
            }),
        );
        let local = rt.add_node(site, 1, Box::new(Ponger));
        rt.add_node(
            site,
            1,
            Box::new(Pinger {
                target: local,
                rounds: 3,
                done: done.clone(),
            }),
        );
        // Each copy gets its own echo, so a pinger's three rounds send
        // 1 + 2 + 4 + 8 + 16 + 32 = 63 messages and finish 64 times.
        let flag = done.clone();
        let report = rt.run(Duration::from_secs(10), move || {
            flag.load(Ordering::SeqCst) == 128
        });
        let stats = &report.stats;
        assert_eq!(done.load(Ordering::SeqCst), 128);
        assert_eq!(stats.sent, 126);
        assert_eq!(stats.duplicated, 126, "every send is duplicated");
        assert_eq!(stats.delivered, 252, "every send arrives twice");
        assert_eq!(report.undelivered, 0);
    }
}
