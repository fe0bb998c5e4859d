//! [`LoadSpec`]: one description for every load the harness can offer —
//! cluster shape × arrival process × operation mix × keyspace — and the
//! presets that reproduce the repository's experiments.

use crate::zipf::KeyDistribution;
use mdstore::{
    BatchConfig, ClientConfig, CommitProtocol, CommitRoute, LatencyStats, RunMetrics,
    StorageConfig, Topology,
};
use simnet::{ChaosSpec, NetStats, SimDuration, SiteId};
use walog::checker::CheckReport;

/// Which runtime executes the cluster, with the capabilities only that
/// runtime has: the parallel runtime has no storage or faults to ask for.
#[derive(Clone, Debug)]
pub enum ClusterShape {
    /// The deterministic simulation: one replica set (the one-shard
    /// cluster), virtual time. Load actors reach it through
    /// [`mdstore::Session`].
    Sim {
        /// Storage plane. When durable, crashes tear the victim's WAL tail
        /// and recoveries restart the datacenter from disk.
        storage: StorageConfig,
        /// Fault schedule injected while the load runs, generated from the
        /// spec's seed.
        chaos: Option<ChaosSpec>,
    },
    /// OS worker threads, one replica set (shard) each, groups spread
    /// round-robin over them. The same cluster body as the simulation's
    /// ([`mdstore::ShardedCluster`]) with more shards, so [`run_load`]
    /// builds, places and audits both shapes through one path and only
    /// drives them differently; a load actor's session, added on a worker
    /// by [`mdstore::ShardedCluster::add_session`], reaches each group
    /// through the directory of the shard owning it.
    ///
    /// [`run_load`]: crate::run_load
    Parallel {
        /// Worker threads (= shards).
        workers: usize,
        /// Scale applied to the topology's RTTs (1.0 = real time).
        rtt_scale: f64,
    },
}

/// When transactions arrive at one load actor.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Arrival {
    /// The paper's YCSB thread: a new transaction no sooner than
    /// `1 / target_tps` after the previous one started and never while
    /// `max_open` are in flight. Latency runs from commit call to decision.
    Closed {
        /// Transactions open (executing or committing) at once.
        max_open: usize,
        /// Per-actor target rate, transactions per second.
        target_tps: f64,
        /// Transactions each actor issues.
        txns_per_actor: usize,
        /// Gap between successive actors' first transactions.
        stagger: SimDuration,
    },
    /// Arrivals scheduled independently of completions; every outcome is
    /// charged from its *scheduled* arrival (no coordinated omission).
    Open {
        /// Aggregate offered load over all actors, transactions per second.
        offered_tps: f64,
        /// Poisson arrivals (true) or a fixed interarrival interval.
        poisson: bool,
        /// Span over which load is offered. Every arrival's commit ends
        /// when its session ends it: decided, or given up once its
        /// patience and re-submission budget run out.
        duration: SimDuration,
    },
}

impl Arrival {
    /// Mean gap between one actor's arrivals when `actors` share the load
    /// (zero for a closed loop with no target rate: back to back).
    pub fn mean_gap(&self, actors: usize) -> SimDuration {
        let per_actor_tps = match *self {
            Arrival::Closed { target_tps, .. } => target_tps,
            Arrival::Open { offered_tps, .. } => offered_tps.max(1e-6) / actors.max(1) as f64,
        };
        if per_actor_tps <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_micros((1_000_000.0 / per_actor_tps).round() as u64)
    }
}

/// What one arrival does.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OpMix {
    /// Operations per read/write transaction.
    pub ops_per_txn: usize,
    /// Fraction of a transaction's operations that are reads.
    pub read_fraction: f64,
    /// Fraction of arrivals that are single snapshot reads at a serving
    /// replica's applied-prefix watermark instead of transactions.
    pub snapshot_fraction: f64,
    /// Snapshot reads are served by the first N datacenters (clamped).
    pub serving_replicas: usize,
    /// Snapshot reads one actor keeps in flight, queueing the rest: what
    /// turns a remote serving replica's RTT into a throughput ceiling.
    pub max_open_snapshots: usize,
    /// Execution cost per operation (virtual or wall time): keeps a
    /// transaction open, which creates contention for its log position.
    pub op_delay: SimDuration,
}

/// The data the load touches: key `k` is attribute `k / rows` of row
/// `k % rows` (so millions of keys intern thousands of names); with several
/// groups a transaction runs on group `first key % groups`, so under skew
/// the hottest keys land in distinct groups but hot groups still emerge.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Keyspace {
    /// Transaction groups (`g0 .. g{n-1}`).
    pub groups: usize,
    /// Keys operations draw from.
    pub keys: u64,
    /// Row names the keys are factored over (the paper's group is one row).
    pub rows: u64,
    /// How operations pick keys.
    pub distribution: KeyDistribution,
}

/// Where load actors are placed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// Every actor runs in the given datacenter (Figures 4–7).
    AllAt(usize),
    /// Actors are spread round-robin over the datacenters (Figure 8).
    RoundRobin,
}

/// A complete run description. See the crate docs for the preset table.
#[derive(Clone, Debug)]
pub struct LoadSpec {
    /// Human-readable name (used in harness output).
    pub name: String,
    /// Datacenter layout.
    pub topology: Topology,
    /// Runtime and its storage/fault capabilities.
    pub shape: ClusterShape,
    /// Load actors; `None` = one per datacenter (per worker) at run time.
    pub actors: Option<usize>,
    /// Actor placement.
    pub placement: Placement,
    /// Arrival process of each actor.
    pub arrival: Arrival,
    /// Operation mix of each arrival.
    pub mix: OpMix,
    /// Keyspace and key distribution.
    pub keyspace: Keyspace,
    /// Protocol, commit route, promotion/combination/fast-path switches,
    /// patience and re-submission budget — the session's own configuration
    /// on both shapes (the message timeout is taken from the topology). The
    /// patience also bounds each snapshot read.
    pub client: ClientConfig,
    /// Window/pipeline settings of the service-hosted commit engines.
    pub batch: BatchConfig,
    /// Seed for the cluster, the actors and the fault schedule.
    pub seed: u64,
    /// When set, every full window of this width over the load phase must
    /// commit something, or the run panics.
    pub liveness_window: Option<SimDuration>,
}

impl Default for LoadSpec {
    /// [`LoadSpec::paper_default`] with Paxos-CP on three Virginia replicas.
    fn default() -> Self {
        Self::paper_default(Topology::vvv(), CommitProtocol::PaxosCp)
    }
}

impl LoadSpec {
    /// The paper's workload (§6): 500 transactions over 4 closed-loop
    /// clients in one datacenter, 10 operations each (50 % reads) on one
    /// 100-attribute row, 1 tx/s per client, direct commit route.
    pub fn paper_default(topology: Topology, protocol: CommitProtocol) -> Self {
        LoadSpec {
            name: format!("{}-{}", topology.name(), protocol.name()),
            topology,
            shape: ClusterShape::Sim {
                storage: StorageConfig::InMemory,
                chaos: None,
            },
            actors: Some(4),
            placement: Placement::AllAt(0),
            arrival: Arrival::Closed {
                max_open: 1,
                target_tps: 1.0,
                txns_per_actor: 125,
                stagger: SimDuration::from_millis(250),
            },
            mix: OpMix {
                ops_per_txn: 10,
                read_fraction: 0.5,
                snapshot_fraction: 0.0,
                serving_replicas: 1,
                max_open_snapshots: 4,
                op_delay: SimDuration::from_millis(18),
            },
            keyspace: Keyspace {
                groups: 1,
                keys: 100,
                rows: 1,
                distribution: KeyDistribution::Uniform,
            },
            client: ClientConfig::for_protocol(protocol),
            batch: BatchConfig::default(),
            seed: 42,
            liveness_window: None,
        }
    }

    /// An open-loop latency-vs-throughput point on the parallel runtime:
    /// `workers` shards of the VOC wide-area cluster with 8 groups and 2
    /// actors each, Poisson blind writes over a million zipfian keys at
    /// `offered_tps`, submitted route. Patience bounds each commit, with no
    /// re-submission.
    pub fn open_loop(workers: usize, offered_tps: f64) -> Self {
        let workers = workers.max(1);
        let paper = Self::paper_default(Topology::voc(), CommitProtocol::PaxosCp);
        let patience = SimDuration::from_millis(1_500);
        LoadSpec {
            name: format!("openloop-w{workers}-{offered_tps:.0}tps"),
            shape: ClusterShape::Parallel {
                workers,
                rtt_scale: 1.0,
            },
            actors: Some(2 * workers),
            placement: Placement::RoundRobin,
            arrival: Arrival::Open {
                offered_tps: offered_tps.max(1.0),
                poisson: true,
                duration: SimDuration::from_millis(1_200),
            },
            mix: OpMix {
                ops_per_txn: 1,
                read_fraction: 0.0,
                op_delay: SimDuration::ZERO,
                ..paper.mix
            },
            keyspace: Keyspace {
                groups: 8 * workers,
                keys: 1_000_000,
                rows: 1_024,
                distribution: KeyDistribution::Zipfian { theta: 0.99 },
            },
            client: ClientConfig::cp()
                .with_route(CommitRoute::Submitted)
                .with_submit_patience(patience)
                .with_max_resubmissions(0),
            ..paper
        }
    }

    /// The read-mostly mix for the snapshot read plane: [`Self::open_loop`]
    /// with 95 % of arrivals snapshot reads served by the first
    /// `serving_replicas` datacenters, 4 groups per worker, 100 k keys and
    /// one actor per (worker, datacenter) so every region reads.
    pub fn read_mostly(workers: usize, offered_tps: f64, serving_replicas: usize) -> Self {
        let mut spec = Self::open_loop(workers, offered_tps);
        spec.name = format!("readmostly-s{serving_replicas}");
        spec.actors = None;
        spec.mix.snapshot_fraction = 0.95;
        spec.mix.serving_replicas = serving_replicas.max(1);
        spec.keyspace.groups = 4 * workers.max(1);
        spec.keyspace.keys = 100_000;
        spec
    }

    /// The canonical rolling-failure scenario: a simulated VVV cluster under
    /// zipfian open-loop blind writes while a datacenter (actors included)
    /// crashes every ~2 s for 400 ms, the link between the two non-primary
    /// sites flaps and group homes churn. Every 1 s window must stay live.
    pub fn rolling_failure(duration: SimDuration) -> Self {
        let chaos = ChaosSpec::new(duration)
            .with_rolling_crashes(3, SimDuration::from_secs(2), SimDuration::from_millis(400))
            .with_flapping(
                SiteId(1),
                SiteId(2),
                SimDuration::from_secs(2),
                SimDuration::from_millis(300),
            )
            .with_home_churn(4, SimDuration::from_secs(3));
        let open = Self::open_loop(1, 200.0);
        LoadSpec {
            name: "rolling-failure".into(),
            topology: Topology::vvv(),
            shape: ClusterShape::Sim {
                storage: StorageConfig::InMemory,
                chaos: Some(chaos),
            },
            actors: Some(6),
            arrival: Arrival::Open {
                offered_tps: 200.0,
                poisson: true,
                duration,
            },
            keyspace: Keyspace {
                groups: 4,
                keys: 256,
                rows: 1,
                distribution: KeyDistribution::Zipfian { theta: 0.99 },
            },
            // Generous budget: a churned home can land on a crashed site, so
            // one transaction may ride out several consecutive fault windows
            // (patience + growing backoff per attempt) before it lands.
            client: open
                .client
                .clone()
                .with_max_resubmissions(32)
                .with_submit_patience(SimDuration::from_millis(400)),
            liveness_window: Some(SimDuration::from_secs(1)),
            ..open
        }
    }

    /// Builder-style name override.
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style topology override.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Builder-style placement override.
    pub fn with_placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// Builder-style commit-route override.
    pub fn with_route(mut self, route: CommitRoute) -> Self {
        self.client.route = route;
        self
    }

    /// Builder-style keyspace-size override (Figure 6's contention knob).
    pub fn with_keys(mut self, keys: u64) -> Self {
        self.keyspace.keys = keys.max(1);
        self
    }

    /// Builder-style group-count override.
    pub fn with_groups(mut self, groups: usize) -> Self {
        self.keyspace.groups = groups.max(1);
        self
    }

    /// Builder-style key-distribution override (skew knob).
    pub fn with_key_distribution(mut self, distribution: KeyDistribution) -> Self {
        self.keyspace.distribution = distribution;
        self
    }

    /// Builder-style closed-loop sizing: clients × transactions each.
    pub fn with_clients(mut self, actors: usize, txns_per_actor: usize) -> Self {
        self.actors = Some(actors);
        *self.closed_mut().2 = txns_per_actor;
        self
    }

    /// Builder-style per-actor target rate (Figure 7's throughput knob).
    pub fn with_target_tps(mut self, tps: f64) -> Self {
        *self.closed_mut().1 = tps;
        self
    }

    /// Builder-style override of the closed loop's open-transaction cap.
    pub fn with_max_open(mut self, max_open: usize) -> Self {
        *self.closed_mut().0 = max_open.max(1);
        self
    }

    /// Builder-style gap between successive actors' first transactions.
    pub fn with_stagger(mut self, gap: SimDuration) -> Self {
        *self.closed_mut().3 = gap;
        self
    }

    /// Builder-style override of the open loop's aggregate offered load.
    pub fn with_offered_tps(mut self, tps: f64) -> Self {
        match &mut self.arrival {
            Arrival::Open { offered_tps, .. } => *offered_tps = tps,
            Arrival::Closed { .. } => panic!("{}: offered load is an open-loop knob", self.name),
        }
        self
    }

    /// Builder-style offered span and per-request patience.
    pub fn with_windows(mut self, offered: SimDuration, patience: SimDuration) -> Self {
        match &mut self.arrival {
            Arrival::Open { duration, .. } => *duration = offered,
            Arrival::Closed { .. } => panic!("{}: windows are an open-loop knob", self.name),
        }
        self.client = self.client.with_submit_patience(patience);
        self
    }

    /// Builder-style fault-schedule override (simulation shape).
    pub fn with_chaos(mut self, spec: ChaosSpec) -> Self {
        match &mut self.shape {
            ClusterShape::Sim { chaos, .. } => *chaos = Some(spec),
            ClusterShape::Parallel { .. } => panic!("{}: faults need the simulation", self.name),
        }
        self
    }

    /// Builder-style storage-plane override (simulation shape).
    pub fn with_storage(mut self, config: StorageConfig) -> Self {
        match &mut self.shape {
            ClusterShape::Sim { storage, .. } => *storage = config,
            ClusterShape::Parallel { .. } => panic!("{}: storage needs the simulation", self.name),
        }
        self
    }

    /// Builder-style latency-scale override (parallel shape).
    pub fn with_rtt_scale(mut self, scale: f64) -> Self {
        match &mut self.shape {
            ClusterShape::Parallel { rtt_scale, .. } => *rtt_scale = scale,
            ClusterShape::Sim { .. } => panic!("{}: virtual time is not scaled", self.name),
        }
        self
    }

    fn closed_mut(&mut self) -> (&mut usize, &mut f64, &mut usize, &mut SimDuration) {
        match &mut self.arrival {
            Arrival::Closed {
                max_open,
                target_tps,
                txns_per_actor,
                stagger,
            } => (max_open, target_tps, txns_per_actor, stagger),
            Arrival::Open { .. } => panic!("{}: a closed-loop knob on open arrivals", self.name),
        }
    }

    /// Worker threads actors and groups are spread over (1 when simulated).
    pub fn workers(&self) -> usize {
        match self.shape {
            ClusterShape::Sim { .. } => 1,
            ClusterShape::Parallel { workers, .. } => workers.max(1),
        }
    }

    /// Load actors the run places.
    pub fn num_actors(&self) -> usize {
        self.actors
            .unwrap_or(self.workers() * self.topology.num_datacenters())
            .max(1)
    }

    /// Transactions a closed-loop run issues (open loops draw their count).
    pub fn total_transactions(&self) -> Option<usize> {
        match self.arrival {
            Arrival::Closed { txns_per_actor, .. } => Some(self.num_actors() * txns_per_actor),
            Arrival::Open { .. } => None,
        }
    }

    /// Offered tx/s: the open loop's rate or the closed loop's summed target.
    pub fn offered_tps(&self) -> f64 {
        match self.arrival {
            Arrival::Open { offered_tps, .. } => offered_tps,
            Arrival::Closed { target_tps, .. } => target_tps * self.num_actors() as f64,
        }
    }

    /// The datacenter a given actor is placed in.
    pub fn replica_for_actor(&self, index: usize) -> usize {
        let replicas = self.topology.num_datacenters();
        match self.placement {
            Placement::AllAt(replica) => replica.min(replicas - 1),
            Placement::RoundRobin => index % replicas,
        }
    }
}

/// Snapshot-read plane totals of one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReadTotals {
    /// Snapshot reads answered with a value at their watermark.
    pub completed: usize,
    /// Snapshot reads the serving replica could not answer (asserted zero:
    /// the watermark is captured from the serving replica itself).
    pub unavailable: usize,
    /// Read arrivals shed: queued or unanswered past patience, or still
    /// outstanding when the run ended.
    pub shed: usize,
    /// Latency of completed reads, from scheduled arrival.
    pub latency: LatencyStats,
    /// Worst staleness: home applied prefix minus serving watermark.
    pub max_staleness: u64,
    /// Reads proven against the decided log (equals `completed`).
    pub verified: usize,
}

/// Everything measured in one run (the run panics before producing a result
/// if an audit fails).
#[derive(Clone, Debug, Default)]
pub struct LoadResult {
    /// The spec the run executed.
    pub spec: LoadSpec,
    /// Transaction metrics over all actors plus the service-side counters
    /// (snapshot reads are in [`LoadResult::reads`]).
    pub totals: RunMetrics,
    /// Per-actor metrics, in actor order.
    pub per_actor: Vec<RunMetrics>,
    /// The datacenter each actor was placed in.
    pub actor_replicas: Vec<usize>,
    /// Serializability check report per transaction group, by group name.
    pub check: Vec<(String, CheckReport)>,
    /// Network statistics of the run.
    pub net: NetStats,
    /// Time the run took including the drain (virtual or wall-clock).
    pub duration: SimDuration,
    /// Outcomes surfaced as `Unavailable` once re-submission gave up.
    pub unavailable: u64,
    /// Commits per full [`LoadSpec::liveness_window`] of the load phase.
    pub window_commits: Vec<u64>,
    /// Snapshot-read plane totals.
    pub reads: ReadTotals,
    /// Home datacenter of each group when the run ended.
    pub group_homes: Vec<usize>,
    /// Datacenter restarts that rebuilt state from snapshot + WAL.
    pub durable_restarts: u64,
    /// Restarts whose WAL ended in a torn partial record.
    pub torn_wal_tails: u64,
    /// Times the actors' arrival clocks fired, summed.
    pub clock_firings: u64,
    /// Commits answered from copies of the acceptors' votes before the
    /// home's reply, each audited against the decided log.
    pub early_answers: usize,
}

impl LoadResult {
    /// Fraction of attempted transactions that committed.
    pub fn commit_ratio(&self) -> f64 {
        self.totals.committed as f64 / self.totals.attempted.max(1) as f64
    }

    /// Aggregate metrics of the actors placed in one datacenter.
    pub fn metrics_for_replica(&self, replica: usize) -> RunMetrics {
        let mut total = RunMetrics::default();
        for (metrics, r) in self.per_actor.iter().zip(&self.actor_replicas) {
            if *r == replica {
                total.merge(metrics);
            }
        }
        total
    }

    /// The quietest full liveness window's commit count.
    pub fn min_window_commits(&self) -> u64 {
        self.window_commits.iter().copied().min().unwrap_or(0)
    }

    /// Seconds load was offered for: the open loop's duration, or the
    /// closed loop's working span up to its last decision.
    pub fn offered_secs(&self) -> f64 {
        let span = match self.spec.arrival {
            Arrival::Open { duration, .. } => duration,
            Arrival::Closed { .. } => SimDuration::from_micros(self.totals.last_decision_us),
        };
        span.as_secs_f64().max(1e-9)
    }

    /// Committed transactions per second of the offered span.
    pub fn committed_tps(&self) -> f64 {
        self.totals.committed as f64 / self.offered_secs()
    }

    /// Completed snapshot reads per second of the offered span.
    pub fn read_tps(&self) -> f64 {
        self.reads.completed as f64 / self.offered_secs()
    }

    /// Write plane saturated: commits below 90 % of offered, or a commit
    /// given up as unavailable.
    pub fn saturated(&self) -> bool {
        let offered_writes = self.spec.offered_tps() * (1.0 - self.spec.mix.snapshot_fraction);
        self.committed_tps() < 0.90 * offered_writes || self.unavailable > 0
    }

    /// Read plane saturated: reads shed, or completions below 90 % of offered.
    pub fn read_saturated(&self) -> bool {
        let offered_reads = self.spec.offered_tps() * self.spec.mix.snapshot_fraction;
        self.reads.shed > 0 || self.read_tps() < 0.90 * offered_reads
    }
}
