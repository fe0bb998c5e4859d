//! The simulation driver: event queue, actor registry and run loop.

use crate::actor::{Action, Actor, Context, TimerId};
use crate::network::{Delivery, DropReason, Network, NetworkConfig, SiteId};
use crate::stats::NetStats;
use crate::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::fmt;

/// Identifier of a node (an actor instance) in the simulation.
///
/// Node ids are dense and assigned in registration order, which makes them
/// usable as vector indices in protocol crates.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

#[derive(Debug)]
enum EventKind<M> {
    Deliver { from: NodeId, to: NodeId, msg: M },
    Timer { node: NodeId, id: TimerId, tag: u64 },
    Start { node: NodeId },
    Recover { node: NodeId },
}

/// The event queue: a min-heap of small `(time, seq, slot)` keys over a slot
/// vector holding the event bodies, so sifting moves 24-byte keys instead of
/// whole messages. Events run in `(time, seq)` order; `seq` is unique, so the
/// slot an event happens to occupy never breaks a tie.
struct EventQueue<M> {
    seq: u64,
    heap: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    slots: Vec<Option<EventKind<M>>>,
    /// Slots whose event has run, reused before the vector grows.
    free: Vec<usize>,
}

impl<M> EventQueue<M> {
    fn new() -> Self {
        EventQueue {
            seq: 0,
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    fn push(&mut self, time: SimTime, kind: EventKind<M>) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some(kind);
                slot
            }
            None => {
                self.slots.push(Some(kind));
                self.slots.len() - 1
            }
        };
        self.heap.push(Reverse((time, self.seq, slot)));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(SimTime, EventKind<M>)> {
        let Reverse((time, _, slot)) = self.heap.pop()?;
        let kind = self.slots[slot]
            .take()
            .expect("a queued slot holds its event");
        self.free.push(slot);
        Some((time, kind))
    }

    fn next_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((time, _, _))| *time)
    }

    fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// A deterministic discrete-event simulation over actors exchanging messages
/// of type `M`.
///
/// `A` is how actors are boxed: the simulation holds `dyn Actor<M>`; a
/// [`ParallelRuntime`](crate::ParallelRuntime) worker runs the same engine
/// over `dyn Actor<M> + Send` so its actors can move to the worker's thread.
pub struct Simulation<M, A: ?Sized = dyn Actor<M>> {
    now: SimTime,
    events: EventQueue<M>,
    /// The action buffer every callback fills, reused across events.
    actions: Vec<Action<M>>,
    /// One slot per registered node. A node registered without an actor is
    /// another worker's: deliveries to it are left in `remote`.
    actors: Vec<Option<Box<A>>>,
    network: Network,
    rng: StdRng,
    stats: NetStats,
    cancelled_timers: HashSet<TimerId>,
    next_timer_id: u64,
    sites: u32,
    started: bool,
    /// Deliveries routed to nodes this engine holds no actor for, in send
    /// order, until the parallel runtime takes them.
    remote: Vec<Remote<M>>,
}

/// A delivery for a node whose actor runs on another worker thread: deliver
/// `msg` from `from` to `to` at `at` (wall-mapped time on that worker).
pub(crate) struct Remote<M> {
    pub(crate) at: SimTime,
    pub(crate) from: NodeId,
    pub(crate) to: NodeId,
    pub(crate) msg: M,
}

impl<M: Clone + 'static> Simulation<M> {
    /// Create an empty simulation with the given network configuration and
    /// RNG seed. The same seed and the same sequence of calls produce the
    /// same execution, bit for bit.
    pub fn new(config: NetworkConfig, seed: u64) -> Self {
        Simulation::empty(config, seed)
    }
}

impl<M: Clone + 'static, A: ?Sized + Actor<M>> Simulation<M, A> {
    /// An engine with no sites and no nodes, for any actor box.
    pub(crate) fn empty(config: NetworkConfig, seed: u64) -> Self {
        Simulation {
            now: SimTime::ZERO,
            events: EventQueue::new(),
            actions: Vec::new(),
            actors: Vec::new(),
            network: Network::new(config),
            rng: StdRng::seed_from_u64(seed),
            stats: NetStats::default(),
            cancelled_timers: HashSet::new(),
            next_timer_id: 0,
            sites: 0,
            started: false,
            remote: Vec::new(),
        }
    }

    /// Register a site (datacenter) and return its id. Site ids are dense
    /// in registration order; the name is not kept.
    pub fn add_site(&mut self, _name: impl Into<String>) -> SiteId {
        self.sites += 1;
        SiteId(self.sites - 1)
    }

    /// Add an actor placed at `site`; returns its node id. If the simulation
    /// has already started running, the actor's `on_start` is scheduled for
    /// the current instant.
    pub fn add_node(&mut self, site: SiteId, actor: Box<A>) -> NodeId {
        self.place(site, Some(actor))
    }

    /// Register a node at `site`, with its actor or — for a node another
    /// parallel worker runs — without one.
    pub(crate) fn place(&mut self, site: SiteId, actor: Option<Box<A>>) -> NodeId {
        let id = NodeId(self.actors.len() as u32);
        self.actors.push(actor);
        self.network.register_node(id, site);
        if self.started {
            self.events.push(self.now, EventKind::Start { node: id });
        }
        id
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Read access to network statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Read access to the network model (placement, liveness, partitions).
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Mutable access to the network model for failure injection.
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.network
    }

    /// Number of registered nodes.
    pub fn node_count(&self) -> usize {
        self.actors.len()
    }

    /// Immutable access to a registered actor, downcast by the caller.
    ///
    /// Returns `None` while that actor is being invoked (never observable
    /// from outside the run loop).
    pub fn actor(&self, node: NodeId) -> Option<&A> {
        self.actors
            .get(node.0 as usize)
            .and_then(|slot| slot.as_deref())
    }

    /// Crash a node: undelivered messages to it and its pending timers are
    /// discarded when they come due; new messages to/from it are dropped.
    pub fn crash_node(&mut self, node: NodeId) {
        self.network.set_node_down(node);
    }

    /// Recover a crashed node; the actor's `on_recover` callback runs at the
    /// current virtual time.
    pub fn recover_node(&mut self, node: NodeId) {
        self.network.set_node_up(node);
        self.events.push(self.now, EventKind::Recover { node });
    }

    /// Take a whole site offline.
    pub fn crash_site(&mut self, site: SiteId) {
        self.network.set_site_down(site);
    }

    /// Bring a site back online; every node in the site gets `on_recover`.
    pub fn recover_site(&mut self, site: SiteId) {
        self.network.set_site_up(site);
        for idx in 0..self.actors.len() {
            let node = NodeId(idx as u32);
            if self.network.site_of(node) == site && self.network.is_node_up(node) {
                self.events.push(self.now, EventKind::Recover { node });
            }
        }
    }

    fn ensure_started(&mut self) {
        if !self.started {
            self.started = true;
            for idx in 0..self.actors.len() {
                self.events.push(
                    SimTime::ZERO,
                    EventKind::Start {
                        node: NodeId(idx as u32),
                    },
                );
            }
        }
    }

    /// Process a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        self.ensure_started();
        let Some((time, kind)) = self.events.pop() else {
            return false;
        };
        debug_assert!(time >= self.now, "time went backwards");
        self.run_event(kind, || time);
        true
    }

    /// Process the earliest event if it is due by `due`, running its
    /// callback at the instant `now` reads. The parallel runtime steps its
    /// workers' engines this way on the wall clock. Returns `false` when no
    /// event is due.
    pub(crate) fn step_due(&mut self, due: SimTime, now: impl FnOnce() -> SimTime) -> bool {
        self.ensure_started();
        if self.events.next_time().is_none_or(|time| time > due) {
            return false;
        }
        let (_, kind) = self.events.pop().expect("a due event was peeked");
        self.run_event(kind, now);
        true
    }

    /// When the earliest queued event is due.
    pub(crate) fn next_due(&self) -> Option<SimTime> {
        self.events.next_time()
    }

    /// Queue a delivery another worker's engine routed to one of this
    /// engine's actors.
    pub(crate) fn deliver_at(&mut self, delivery: Remote<M>) {
        let Remote { at, from, to, msg } = delivery;
        self.events.push(at, EventKind::Deliver { from, to, msg });
    }

    /// The deliveries routed to nodes without an actor here since the last
    /// call, in send order.
    pub(crate) fn take_remote(&mut self) -> std::vec::Drain<'_, Remote<M>> {
        self.remote.drain(..)
    }

    fn run_event(&mut self, kind: EventKind<M>, now: impl FnOnce() -> SimTime) {
        // Cancelled timers are purged lazily without advancing the visible
        // clock, so a cancelled retransmission timer far in the future does
        // not make an otherwise-finished simulation look longer than it was.
        if let EventKind::Timer { id, .. } = &kind {
            if self.cancelled_timers.remove(id) {
                self.stats.timers_cancelled += 1;
                return;
            }
        }
        self.now = now();
        match kind {
            EventKind::Deliver { from, to, msg } => {
                if !self.network.is_node_up(to) {
                    self.stats.dropped_down += 1;
                } else {
                    self.stats.delivered += 1;
                    self.invoke(to, |actor, ctx| actor.on_message(ctx, from, msg));
                }
            }
            EventKind::Timer { node, id: _, tag } => {
                if !self.network.is_node_up(node) {
                    self.stats.timers_suppressed += 1;
                } else {
                    self.stats.timers_fired += 1;
                    self.invoke(node, |actor, ctx| actor.on_timer(ctx, tag));
                }
            }
            EventKind::Start { node } => {
                self.invoke(node, |actor, ctx| actor.on_start(ctx));
            }
            EventKind::Recover { node } => {
                if self.network.is_node_up(node) {
                    self.invoke(node, |actor, ctx| actor.on_recover(ctx));
                }
            }
        }
    }

    fn invoke<F>(&mut self, node: NodeId, f: F)
    where
        F: FnOnce(&mut A, &mut Context<M>),
    {
        let mut actor = match self.actors[node.0 as usize].take() {
            Some(a) => a,
            None => return,
        };
        let mut actions = std::mem::take(&mut self.actions);
        {
            let mut ctx = Context {
                now: self.now,
                node,
                actions: &mut actions,
                rng: &mut self.rng,
                next_timer_id: &mut self.next_timer_id,
            };
            f(actor.as_mut(), &mut ctx);
        }
        self.actors[node.0 as usize] = Some(actor);
        for action in actions.drain(..) {
            self.apply(node, action);
        }
        self.actions = actions;
    }

    fn apply(&mut self, source: NodeId, action: Action<M>) {
        match action {
            Action::Send { to, msg } => {
                self.stats.sent += 1;
                match self.network.route(source, to, &mut self.rng) {
                    Delivery::Deliver(latency) => {
                        // Chaos policies perturb only messages the base
                        // model decided to deliver; with every probability
                        // at zero (the default) no extra randomness is
                        // drawn, so pre-chaos traces are reproduced
                        // bit for bit.
                        let chaos = self.network.config().chaos.clone();
                        let mut latency = latency;
                        if chaos.burst_probability > 0.0
                            && self.rng.gen::<f64>() < chaos.burst_probability
                        {
                            self.stats.delay_bursts += 1;
                            latency = latency.mul_f64(chaos.burst_factor.max(1.0));
                        }
                        if chaos.reorder_probability > 0.0
                            && self.rng.gen::<f64>() < chaos.reorder_probability
                        {
                            self.stats.reordered += 1;
                            latency += chaos.reorder_delay;
                        }
                        let at = self.now + latency;
                        if chaos.duplicate_probability > 0.0
                            && self.rng.gen::<f64>() < chaos.duplicate_probability
                        {
                            self.stats.duplicated += 1;
                            self.schedule_delivery(at, source, to, msg.clone());
                        }
                        self.schedule_delivery(at, source, to, msg);
                    }
                    Delivery::Drop(reason) => match reason {
                        DropReason::RandomLoss => self.stats.dropped_loss += 1,
                        DropReason::Partitioned => self.stats.dropped_partition += 1,
                        DropReason::SourceDown | DropReason::DestinationDown => {
                            self.stats.dropped_down += 1
                        }
                    },
                }
            }
            Action::SetTimer { id, delay, tag } => {
                self.events.push(
                    self.now + delay,
                    EventKind::Timer {
                        node: source,
                        id,
                        tag,
                    },
                );
            }
            Action::CancelTimer(id) => {
                self.cancelled_timers.insert(id);
            }
        }
    }

    /// Queue a delivery, or leave it for the parallel runtime when `to` has
    /// no actor in this engine. The check draws no randomness, so the
    /// simulation's trace does not depend on it.
    fn schedule_delivery(&mut self, at: SimTime, from: NodeId, to: NodeId, msg: M) {
        if self.actors[to.0 as usize].is_some() {
            self.events.push(at, EventKind::Deliver { from, to, msg });
        } else {
            self.remote.push(Remote { at, from, to, msg });
        }
    }

    /// Run until the event queue drains. Returns the number of events
    /// processed. Panics if more than `max_events` events are processed,
    /// which guards against protocol livelock in tests.
    pub fn run_until_idle(&mut self) -> u64 {
        self.run_until_idle_capped(u64::MAX)
    }

    /// Like [`Simulation::run_until_idle`] but with an explicit event cap.
    pub fn run_until_idle_capped(&mut self, max_events: u64) -> u64 {
        let mut processed = 0;
        while self.step() {
            processed += 1;
            assert!(
                processed <= max_events,
                "simulation exceeded {max_events} events; possible livelock"
            );
        }
        processed
    }

    /// Run until the virtual clock reaches `deadline` (or the queue drains).
    /// Events at exactly `deadline` are processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        self.ensure_started();
        let mut processed = 0;
        while let Some(time) = self.events.next_time() {
            if time > deadline {
                break;
            }
            self.step();
            processed += 1;
        }
        if self.now < deadline {
            self.now = deadline;
        }
        processed
    }

    /// Run for an additional `span` of virtual time.
    pub fn run_for(&mut self, span: SimDuration) -> u64 {
        let deadline = self.now + span;
        self.run_until(deadline)
    }

    /// True when no events remain.
    pub fn is_idle(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug)]
    enum Msg {
        Ping(u32),
        Pong(u32),
    }

    #[derive(Default)]
    struct Echo {
        seen: Vec<u32>,
    }

    impl Actor<Msg> for Echo {
        fn on_message(&mut self, ctx: &mut Context<Msg>, from: NodeId, msg: Msg) {
            if let Msg::Ping(v) = msg {
                self.seen.push(v);
                ctx.send(from, Msg::Pong(v));
            }
        }
    }

    struct Driver {
        target: NodeId,
        rounds: u32,
        done: u32,
        retry_timer: Option<TimerId>,
    }

    impl Actor<Msg> for Driver {
        fn on_start(&mut self, ctx: &mut Context<Msg>) {
            ctx.send(self.target, Msg::Ping(0));
            self.retry_timer = Some(ctx.set_timer(SimDuration::from_secs(2), 0));
        }
        fn on_message(&mut self, ctx: &mut Context<Msg>, _from: NodeId, msg: Msg) {
            if let Msg::Pong(v) = msg {
                self.done = v + 1;
                if let Some(t) = self.retry_timer.take() {
                    ctx.cancel_timer(t);
                }
                if self.done < self.rounds {
                    ctx.send(self.target, Msg::Ping(self.done));
                    self.retry_timer = Some(ctx.set_timer(SimDuration::from_secs(2), 0));
                }
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<Msg>, _tag: u64) {
            // Retransmit the outstanding ping.
            ctx.send(self.target, Msg::Ping(self.done));
            self.retry_timer = Some(ctx.set_timer(SimDuration::from_secs(2), 0));
        }
    }

    fn two_site_sim(loss: f64, seed: u64) -> (Simulation<Msg>, NodeId, NodeId) {
        let mut cfg = NetworkConfig::uniform(SimDuration::from_micros(250)).with_loss(loss);
        let mut sim = Simulation::new(cfg.clone(), seed);
        let v = sim.add_site("virginia");
        let o = sim.add_site("oregon");
        cfg.latency.set_rtt(v, o, SimDuration::from_millis(90));
        *sim.network_mut().config_mut() = cfg;
        let echo = sim.add_node(o, Box::new(Echo::default()));
        let driver = sim.add_node(
            v,
            Box::new(Driver {
                target: echo,
                rounds: 5,
                done: 0,
                retry_timer: None,
            }),
        );
        (sim, echo, driver)
    }

    #[test]
    fn request_reply_advances_virtual_time_by_rtt() {
        let (mut sim, _echo, _driver) = two_site_sim(0.0, 1);
        sim.run_until_idle();
        // 5 round trips at 90ms RTT each.
        assert_eq!(sim.now().as_micros(), 5 * 90_000);
        assert_eq!(sim.stats().delivered, 10);
        assert_eq!(sim.stats().timers_cancelled, 5);
    }

    #[test]
    fn lossy_network_retries_until_done() {
        let (mut sim, echo, _driver) = two_site_sim(0.3, 7);
        sim.run_until_idle_capped(100_000);
        let echo_actor = sim.actor(echo).unwrap();
        // We can't downcast without Any, but stats tell the story: everything
        // eventually delivered despite drops.
        let _ = echo_actor;
        assert!(sim.stats().dropped_loss > 0, "expected some losses");
        assert!(sim.stats().delivered >= 10);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let (mut a, _, _) = two_site_sim(0.25, 99);
        let (mut b, _, _) = two_site_sim(0.25, 99);
        a.run_until_idle_capped(100_000);
        b.run_until_idle_capped(100_000);
        assert_eq!(a.now(), b.now());
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn different_seeds_usually_differ() {
        let (mut a, _, _) = two_site_sim(0.25, 1);
        let (mut b, _, _) = two_site_sim(0.25, 3);
        a.run_until_idle_capped(100_000);
        b.run_until_idle_capped(100_000);
        assert_ne!(
            (a.stats().dropped_loss, a.now()),
            (b.stats().dropped_loss, b.now())
        );
    }

    #[test]
    fn crashed_destination_drops_messages_and_timers_suppressed() {
        let (mut sim, echo, _driver) = two_site_sim(0.0, 5);
        sim.crash_node(echo);
        sim.run_for(SimDuration::from_secs(10));
        assert_eq!(sim.stats().delivered, 0);
        assert!(sim.stats().dropped_down > 0);
        sim.recover_node(echo);
        sim.run_until_idle_capped(10_000);
        assert!(sim.stats().delivered >= 10);
    }

    #[test]
    fn run_until_respects_deadline() {
        let (mut sim, _echo, _driver) = two_site_sim(0.0, 5);
        sim.run_until(SimTime::from_micros(100_000));
        assert_eq!(sim.now(), SimTime::from_micros(100_000));
        assert!(!sim.is_idle());
        sim.run_until_idle();
        assert!(sim.is_idle());
    }

    #[test]
    fn site_crash_and_recovery() {
        let (mut sim, echo, _driver) = two_site_sim(0.0, 5);
        let oregon = sim.network().site_of(echo);
        sim.crash_site(oregon);
        sim.run_for(SimDuration::from_secs(4));
        assert_eq!(sim.stats().delivered, 0);
        sim.recover_site(oregon);
        sim.run_until_idle_capped(10_000);
        assert!(sim.stats().delivered >= 10);
    }

    #[test]
    fn chaos_duplication_delivers_extra_copies() {
        let (mut sim, _echo, _driver) = two_site_sim(0.0, 11);
        sim.network_mut().config_mut().chaos =
            crate::network::ChaosConfig::default().with_duplicates(1.0);
        sim.run_until_idle_capped(10_000);
        let stats = sim.stats();
        assert_eq!(stats.duplicated, stats.sent);
        // Every send arrives twice: the original plus the duplicate.
        assert_eq!(stats.delivered, 2 * stats.sent);
    }

    #[test]
    fn chaos_reorder_and_bursts_stretch_latency_and_count() {
        let (mut sim, _echo, _driver) = two_site_sim(0.0, 13);
        sim.network_mut().config_mut().chaos = crate::network::ChaosConfig::default()
            .with_reordering(1.0, SimDuration::from_millis(10))
            .with_bursts(1.0, 3.0);
        sim.run_until_idle_capped(100_000);
        let stats = sim.stats().clone();
        assert_eq!(stats.reordered, stats.sent);
        assert_eq!(stats.delay_bursts, stats.sent);
        // 5 round trips, each one-way hop 45ms * 3 (burst) + 10ms (reorder).
        assert_eq!(sim.now().as_micros(), 10 * (45_000 * 3 + 10_000));
    }

    #[test]
    fn chaos_runs_are_deterministic_per_seed() {
        let run = |seed| {
            let (mut sim, _, _) = two_site_sim(0.2, seed);
            sim.network_mut().config_mut().chaos = crate::network::ChaosConfig::default()
                .with_duplicates(0.3)
                .with_reordering(0.3, SimDuration::from_millis(5))
                .with_bursts(0.2, 2.0);
            sim.run_until_idle_capped(100_000);
            (sim.now(), sim.stats().clone())
        };
        assert_eq!(run(21), run(21));
        assert_ne!(run(21), run(22));
    }

    /// Freed slots are handed out last-in first-out, so equal-time events
    /// pushed after a few ran sit in slots that descend against push order —
    /// and still run in push order.
    #[test]
    fn equal_time_events_run_in_push_order_across_reused_slots() {
        let timer = |tag| EventKind::<Msg>::Timer {
            node: NodeId(0),
            id: TimerId(tag),
            tag,
        };
        let mut queue = EventQueue::new();
        for tag in 0..3 {
            queue.push(SimTime::from_micros(5), timer(tag));
        }
        for _ in 0..2 {
            queue.pop();
        }
        for tag in 10..14 {
            queue.push(SimTime::from_micros(1), timer(tag));
        }
        assert_eq!(queue.slots.len(), 5, "two of the four reuse freed slots");
        let mut order = Vec::new();
        while let Some((time, kind)) = queue.pop() {
            let EventKind::Timer { tag, .. } = kind else {
                unreachable!("only timers were queued")
            };
            order.push((time.as_micros(), tag));
        }
        assert_eq!(order, [(1, 10), (1, 11), (1, 12), (1, 13), (5, 2)]);
        assert!(queue.is_empty());
    }

    #[test]
    fn late_added_node_gets_started() {
        let mut sim: Simulation<Msg> = Simulation::new(NetworkConfig::default(), 3);
        let site = sim.add_site("dc");
        sim.run_for(SimDuration::from_secs(1));
        let echo = sim.add_node(site, Box::new(Echo::default()));
        let _driver = sim.add_node(
            site,
            Box::new(Driver {
                target: echo,
                rounds: 1,
                done: 0,
                retry_timer: None,
            }),
        );
        sim.run_until_idle();
        assert_eq!(sim.stats().delivered, 2);
    }
}
