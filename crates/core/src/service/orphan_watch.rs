//! The orphan watch: the groups whose first undecided position may be
//! orphaned — a dead proposer's majority-voted value that nobody pushes
//! through, which wedges read-carrying transactions into conflict-abort
//! loops — and when the janitor should re-propose it, adopting the voted
//! value (or filling a no-op).

use simnet::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};
use walog::{GroupId, LogPosition};

/// Janitor attempts per orphaned position before giving up (a position
/// that cannot decide — e.g. behind a long partition — must not keep the
/// simulation busy forever; new traffic re-hints the group).
const JANITOR_MAX_ATTEMPTS: u32 = 5;

/// The service's answers about a hinted group's first undecided position,
/// taken under one core lock.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FirstUndecided {
    /// The position: one past the applied prefix.
    pub(crate) position: LogPosition,
    /// Whether this datacenter has installed an entry there.
    pub(crate) installed: bool,
    /// Whether a decided entry sits above it.
    pub(crate) decided_above: bool,
    /// Whether this datacenter's acceptor holds a vote there.
    pub(crate) voted: bool,
    /// Whether a committer slot or a recovery instance proposes there.
    pub(crate) proposing: bool,
}

/// The orphaned-position janitor's watch over the hinted groups.
pub(crate) struct OrphanWatch {
    /// How long the first undecided position may stay orphaned before the
    /// janitor re-proposes it.
    patience: SimDuration,
    /// Whether a janitor tick timer is currently armed.
    armed: bool,
    /// Groups whose recent traffic (votes cast, out-of-order installs) may
    /// have left an orphaned position; the tick scans only these.
    hints: BTreeSet<GroupId>,
    /// Per-group watch state: the first undecided position last observed,
    /// when it was first seen there, and re-proposal attempts made for it.
    watch: BTreeMap<GroupId, (LogPosition, SimTime, u32)>,
}

impl OrphanWatch {
    /// A watch that re-proposes a position orphaned for `patience`.
    pub(crate) fn new(patience: SimDuration) -> Self {
        OrphanWatch {
            patience,
            armed: false,
            hints: BTreeSet::new(),
            watch: BTreeMap::new(),
        }
    }

    /// Note that `group` may have an orphaned position.
    pub(crate) fn hint(&mut self, group: GroupId) {
        self.hints.insert(group);
    }

    /// The delay of the janitor tick to arm, when hints wait and no tick
    /// is armed; the tick counts as armed from here on.
    pub(crate) fn arm(&mut self) -> Option<SimDuration> {
        if self.armed || self.hints.is_empty() {
            return None;
        }
        self.armed = true;
        Some(SimDuration::from_micros(
            (self.patience.as_micros() / 2).max(1),
        ))
    }

    /// The datacenter crashed, and its armed tick with it.
    pub(crate) fn crash(&mut self) {
        self.armed = false;
    }

    /// One janitor pass at `now`: `look` answers for every hinted group.
    /// A first undecided position is orphaned when nothing is installed
    /// there and decided entries sit above it or a vote lingers at it. One
    /// that has stayed put past the patience window, with nobody proposing
    /// there, is returned for re-proposal through a recovery instance
    /// (which adopts any voted value per the Paxos safety rule, or fills a
    /// no-op).
    pub(crate) fn tick(
        &mut self,
        now: SimTime,
        mut look: impl FnMut(GroupId) -> FirstUndecided,
    ) -> Vec<(GroupId, LogPosition)> {
        self.armed = false;
        let (watch, patience) = (&mut self.watch, self.patience);
        let mut to_recover = Vec::new();
        self.hints.retain(|&group| {
            let first = look(group);
            if first.installed || !(first.decided_above || first.voted) {
                watch.remove(&group);
                return false;
            }
            let seen = watch.entry(group).or_insert((first.position, now, 0));
            if seen.0 != first.position {
                *seen = (first.position, now, 0);
            }
            if seen.2 >= JANITOR_MAX_ATTEMPTS {
                // Stop burning ticks on a position that cannot decide
                // (e.g. behind a partition). Drop the watch along with the
                // hint: when new traffic re-hints the group (say, after the
                // partition heals), the position gets a fresh budget of
                // attempts instead of being abandoned forever.
                watch.remove(&group);
                return false;
            }
            if now.since(seen.1) >= patience && !first.proposing {
                seen.2 += 1;
                to_recover.push((group, first.position));
            }
            true
        });
        to_recover
    }
}
