//! Network-level statistics collected by the simulation kernel.

/// Counters describing everything the simulated network did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages handed to the network by actors.
    pub sent: u64,
    /// Messages delivered to a destination actor.
    pub delivered: u64,
    /// Messages dropped by random loss.
    pub dropped_loss: u64,
    /// Messages dropped because of a partition.
    pub dropped_partition: u64,
    /// Messages dropped because the source or destination was down.
    pub dropped_down: u64,
    /// Timers that fired.
    pub timers_fired: u64,
    /// Timers cancelled before firing.
    pub timers_cancelled: u64,
    /// Timers suppressed because their owner was down when they fired.
    pub timers_suppressed: u64,
    /// Extra deliveries injected by the chaos duplication policy (each one
    /// also counts in `delivered` when it arrives).
    pub duplicated: u64,
    /// Deliveries held back by the chaos reordering policy.
    pub reordered: u64,
    /// Deliveries stretched by the chaos delay-burst policy.
    pub delay_bursts: u64,
}

impl NetStats {
    /// Total messages dropped for any reason.
    pub fn dropped(&self) -> u64 {
        self.dropped_loss + self.dropped_partition + self.dropped_down
    }

    /// Add every counter of `other` into `self` (the parallel runtime
    /// merges its workers' counters this way).
    pub(crate) fn merge(&mut self, other: &NetStats) {
        let NetStats {
            sent,
            delivered,
            dropped_loss,
            dropped_partition,
            dropped_down,
            timers_fired,
            timers_cancelled,
            timers_suppressed,
            duplicated,
            reordered,
            delay_bursts,
        } = other;
        self.sent += sent;
        self.delivered += delivered;
        self.dropped_loss += dropped_loss;
        self.dropped_partition += dropped_partition;
        self.dropped_down += dropped_down;
        self.timers_fired += timers_fired;
        self.timers_cancelled += timers_cancelled;
        self.timers_suppressed += timers_suppressed;
        self.duplicated += duplicated;
        self.reordered += reordered;
        self.delay_bursts += delay_bursts;
    }

    /// Fraction of sent messages that were delivered (1.0 when nothing sent).
    pub fn delivery_ratio(&self) -> f64 {
        if self.sent == 0 {
            1.0
        } else {
            self.delivered as f64 / self.sent as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dropped_sums_all_drop_reasons() {
        let s = NetStats {
            dropped_loss: 2,
            dropped_partition: 3,
            dropped_down: 4,
            ..Default::default()
        };
        assert_eq!(s.dropped(), 9);
    }

    #[test]
    fn delivery_ratio_handles_zero_sent() {
        let s = NetStats::default();
        assert_eq!(s.delivery_ratio(), 1.0);
        let s = NetStats {
            sent: 10,
            delivered: 7,
            ..Default::default()
        };
        assert!((s.delivery_ratio() - 0.7).abs() < 1e-12);
    }
}
