//! Seed → inputs. Nothing in this file knows the system under test: the
//! benchmark owns its random stream, key distributions and arrival
//! schedules, so a change to the repository's own `rand` stand-in or
//! workload crate cannot silently change what the benchmark offers.

/// SplitMix64: the benchmark's own deterministic random stream.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, lane)`; lanes keep the load actors of one run
    /// independent of each other.
    pub fn new(seed: u64, lane: u64) -> Rng {
        let mut rng = Rng(
            seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ lane.wrapping_mul(0xd129_0d3d_a3ac_b56b)
        );
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        // The modulo bias is below 2^-40 for every `n` used here.
        self.next_u64() % n
    }

    /// Exponential with the given mean, floored at 1 so schedules advance.
    fn exponential(&mut self, mean: f64) -> u64 {
        (-(1.0 - self.unit()).ln() * mean).max(1.0) as u64
    }

    /// `base` scaled by a uniform factor in `[1 - spread, 1 + spread]`.
    fn jittered(&mut self, base: u64, spread: f64) -> u64 {
        (base as f64 * (1.0 + spread * (2.0 * self.unit() - 1.0))) as u64
    }
}

/// How keys are picked from `[0, n)`.
#[derive(Clone, Debug)]
pub enum Keys {
    Uniform {
        n: u64,
    },
    /// The YCSB zipfian generator; rank 0 is the hottest key.
    Zipfian {
        n: u64,
        theta: f64,
        alpha: f64,
        zetan: f64,
        eta: f64,
    },
}

impl Keys {
    pub fn uniform(n: u64) -> Keys {
        Keys::Uniform { n: n.max(1) }
    }

    /// O(n) to build: part of set-up, never of the measured phase.
    pub fn zipfian(n: u64, theta: f64) -> Keys {
        let n = n.max(2);
        let zeta = |m: u64| (1..=m).map(|i| (i as f64).powf(-theta)).sum::<f64>();
        let zetan = zeta(n);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan);
        Keys::Zipfian {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta,
        }
    }

    /// Size of the keyspace.
    pub fn n(&self) -> u64 {
        match *self {
            Keys::Uniform { n } | Keys::Zipfian { n, .. } => n,
        }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        match *self {
            Keys::Uniform { n } => rng.below(n),
            Keys::Zipfian {
                n,
                theta,
                alpha,
                zetan,
                eta,
            } => {
                let u = rng.unit();
                let uz = u * zetan;
                if uz < 1.0 {
                    0
                } else if uz < 1.0 + 0.5f64.powf(theta) {
                    1
                } else {
                    ((n as f64 * (eta * u - eta + 1.0).powf(alpha)) as u64).min(n - 1)
                }
            }
        }
    }
}

/// When a load actor starts its next transaction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Arrival {
    /// Closed loop: at most `max_open` transactions in flight per actor; the
    /// next one starts no sooner than a jittered `gap_us` after the previous
    /// one *started*. A slow system therefore receives less load.
    Closed {
        max_open: usize,
        gap_us: u64,
        gap_jitter: f64,
    },
    /// Open loop: Poisson arrivals at `per_actor_per_s`, scheduled on the
    /// actor's own clock whatever the completions do; latency is charged
    /// from the scheduled instant.
    Open { per_actor_per_s: f64 },
}

/// What one transaction does.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Mix {
    /// Share of transactions that are a single snapshot read (served by the
    /// read plane, never by Paxos); the rest are read/write transactions.
    pub snapshot_share: f64,
    /// Operations of a read/write transaction.
    pub ops_per_txn: usize,
    /// Share of those operations that are reads (the rest are writes; a
    /// transaction whose draw produced no write gets one, so every
    /// read/write transaction reaches the commit protocol).
    pub read_share: f64,
    /// Client-side execution time per operation (jittered ±50 %): what keeps
    /// a transaction open long enough to contend for its log position.
    pub op_delay_us: u64,
}

/// The offered load of one workload, independent of any runtime.
#[derive(Clone, Debug)]
pub struct LoadSpec {
    pub actors: usize,
    /// Actors all sit in the first datacenter (the paper's single YCSB
    /// instance) instead of being spread round-robin over the datacenters.
    pub all_at_first: bool,
    /// Actor `i` offers nothing before `i × stagger_us`, so actors do not
    /// start in phase.
    pub stagger_us: u64,
    pub txns_per_actor: usize,
    pub arrival: Arrival,
    pub mix: Mix,
    pub groups: usize,
    pub keys: Keys,
}

/// One operation of a planned transaction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OpPlan {
    pub write: bool,
    pub key: u64,
    /// Execution time charged before the operation runs.
    pub delay_us: u64,
}

/// One planned transaction.
#[derive(Clone, Debug, PartialEq)]
pub struct TxnPlan {
    /// Open loop: gap since the previous scheduled arrival. Closed loop:
    /// minimum gap since the previous start.
    pub gap_us: u64,
    pub group: usize,
    pub snapshot_read: bool,
    pub ops: Vec<OpPlan>,
}

/// The planned transactions of one load actor, drawn from the seed. The plan
/// is a function of `(spec, seed, actor)` alone: it never depends on how the
/// system responded to earlier transactions.
pub struct Plan {
    rng: Rng,
    spec: LoadSpec,
    remaining: usize,
}

impl Plan {
    pub fn new(spec: &LoadSpec, seed: u64, actor: usize) -> Plan {
        Plan {
            rng: Rng::new(seed, actor as u64 + 1),
            spec: spec.clone(),
            remaining: spec.txns_per_actor,
        }
    }
}

impl Iterator for Plan {
    type Item = TxnPlan;

    fn next(&mut self) -> Option<TxnPlan> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let rng = &mut self.rng;
        let gap_us = match self.spec.arrival {
            Arrival::Closed {
                gap_us, gap_jitter, ..
            } => rng.jittered(gap_us, gap_jitter),
            Arrival::Open { per_actor_per_s } => rng.exponential(1e6 / per_actor_per_s),
        };
        let group = rng.below(self.spec.groups as u64) as usize;
        let mix = self.spec.mix;
        let snapshot_read = rng.unit() < mix.snapshot_share;
        let ops = if snapshot_read {
            vec![OpPlan {
                write: false,
                key: self.spec.keys.sample(rng),
                delay_us: 0,
            }]
        } else {
            let mut ops: Vec<OpPlan> = (0..mix.ops_per_txn)
                .map(|_| OpPlan {
                    write: rng.unit() >= mix.read_share,
                    key: self.spec.keys.sample(rng),
                    delay_us: rng.jittered(mix.op_delay_us, 0.5),
                })
                .collect();
            if !ops.iter().any(|op| op.write) {
                ops.last_mut()
                    .expect("a transaction has at least one operation")
                    .write = true;
            }
            ops
        };
        Some(TxnPlan {
            gap_us,
            group,
            snapshot_read,
            ops,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> LoadSpec {
        LoadSpec {
            actors: 2,
            all_at_first: false,
            stagger_us: 0,
            txns_per_actor: 50,
            arrival: Arrival::Open {
                per_actor_per_s: 100.0,
            },
            mix: Mix {
                snapshot_share: 0.5,
                ops_per_txn: 4,
                read_share: 0.5,
                op_delay_us: 10,
            },
            groups: 3,
            keys: Keys::zipfian(1000, 0.99),
        }
    }

    #[test]
    fn same_seed_same_plan_and_other_seed_differs() {
        let a: Vec<TxnPlan> = Plan::new(&spec(), 7, 0).collect();
        let b: Vec<TxnPlan> = Plan::new(&spec(), 7, 0).collect();
        let c: Vec<TxnPlan> = Plan::new(&spec(), 8, 0).collect();
        let d: Vec<TxnPlan> = Plan::new(&spec(), 7, 1).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_eq!(a.len(), 50);
    }

    #[test]
    fn every_read_write_transaction_writes() {
        for txn in Plan::new(&spec(), 3, 0) {
            assert!(txn.group < 3);
            if txn.snapshot_read {
                assert_eq!(txn.ops.len(), 1);
                assert!(!txn.ops[0].write);
            } else {
                assert!(txn.ops.iter().any(|op| op.write));
            }
        }
    }

    #[test]
    fn zipfian_is_skewed_and_in_range() {
        let keys = Keys::zipfian(1000, 0.99);
        let mut rng = Rng::new(1, 1);
        let draws: Vec<u64> = (0..20_000).map(|_| keys.sample(&mut rng)).collect();
        assert!(draws.iter().all(|k| *k < 1000));
        let hottest = draws.iter().filter(|k| **k == 0).count();
        assert!(
            hottest > 1_000,
            "rank 0 should draw far above the uniform share: {hottest}"
        );
    }
}
