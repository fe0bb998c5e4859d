//! Held acknowledgements: the acceptor replies a durable datacenter holds
//! until a sync makes their promise or vote durable, and when it is due.
//!
//! One sync per batch of held acknowledgements, at most
//! [`ACK_SYNC_LATENCY`] after the first of them was held, releases them
//! all. A decided entry applies once its `Decided` record rides a sync: the
//! one that releases the next batch of held acknowledgements, a read that
//! needs it, or at the latest [`DECIDED_FLUSH_DEADLINE`] later.

use crate::msg::Msg;
use simnet::{NodeId, SimDuration, SimTime};

/// The modelled latency of one WAL sync on the simulated clock: a held
/// acknowledgement leaves at most this long after the first reply its sync
/// covers was held, and every reply held meanwhile rides the same sync.
/// 500 µs is the sync latency of a cloud block device; the simulated
/// network runs on the paper's EC2 round trips, so the simulated disk is
/// modelled on the same platform.
pub const ACK_SYNC_LATENCY: SimDuration = SimDuration::from_micros(500);

/// The longest a decided entry's buffered `Decided` record waits for a sync
/// some held acknowledgement pays for before the service syncs it on its
/// own.
/// No acknowledgement depends on the record (the decision is replicated),
/// but the entry applies only once it is durable. A read that needs the
/// entry syncs at once, so the deadline bounds only how long the store
/// lags the log, and how much a crash makes the votes restore. Long
/// enough that, at low load, the record rides the next instance's vote
/// sync instead of costing a sync of its own.
pub const DECIDED_FLUSH_DEADLINE: SimDuration = SimDuration::from_millis(20);

/// A sync deadline to arm: cancel the later timer it replaces, if any, set
/// one for the deadline and hand it to [`HeldAcks::armed`].
pub type Rearm<T> = (SimTime, Option<T>);

/// Which held replies leave after a sync, and when the next sync is due.
/// `T` is the service's handle of the armed sync timer.
pub struct HeldAcks<T> {
    /// Acceptor replies held for the next sync, in arrival order, each with
    /// the datacenter incarnation its record was appended in.
    held: Vec<(NodeId, Msg, u64)>,
    /// The armed sync deadline and its timer: the earliest of the held
    /// replies' and the buffered `Decided` records' deadlines.
    sync_timer: Option<(SimTime, T)>,
}

impl<T> Default for HeldAcks<T> {
    fn default() -> Self {
        HeldAcks {
            held: Vec::new(),
            sync_timer: None,
        }
    }
}

impl<T: Copy> HeldAcks<T> {
    /// Hold `reply` to `to`, whose record was appended in `incarnation`,
    /// until the next sync, due [`ACK_SYNC_LATENCY`] from `now` at the
    /// latest.
    pub fn hold(
        &mut self,
        now: SimTime,
        to: NodeId,
        reply: Msg,
        incarnation: u64,
    ) -> Option<Rearm<T>> {
        self.held.push((to, reply, incarnation));
        self.sync_within(now, ACK_SYNC_LATENCY)
    }

    /// Make sure a sync happens within `within` of `now`: keep an armed
    /// deadline at or before it, or replace a later one.
    pub fn sync_within(&self, now: SimTime, within: SimDuration) -> Option<Rearm<T>> {
        let due = now + within;
        match self.sync_timer {
            Some((armed, _)) if armed <= due => None,
            armed => Some((due, armed.map(|(_, timer)| timer))),
        }
    }

    /// The service set `timer` for the deadline `due` of a [`Rearm`].
    pub fn armed(&mut self, due: SimTime, timer: T) {
        self.sync_timer = Some((due, timer));
    }

    /// The sync deadline fired and the service synced in `incarnation`.
    /// A successful sync releases the held replies in arrival order —
    /// except those appended before a restart from disk, whose records may
    /// have gone with a torn tail. A failed sync drops them all
    /// (crash-equivalent); their records stay buffered for the next sync,
    /// which sends nothing for them.
    pub fn release(
        &mut self,
        synced: bool,
        incarnation: u64,
    ) -> impl Iterator<Item = (NodeId, Msg)> + '_ {
        self.sync_timer = None;
        self.held
            .drain(..)
            .filter(move |held| synced && held.2 == incarnation)
            .map(|(to, reply, _)| (to, reply))
    }

    /// The datacenter crashed: the armed timer died with it, and so do the
    /// held replies — their records may have gone with a torn tail, and
    /// their proposers time out as for any lost reply.
    pub fn crash(&mut self) {
        self.held.clear();
        self.sync_timer = None;
    }
}
