//! The two execution modes, checked against each other.
//!
//! * **Determinism** — the simnet is the canonical test mode precisely
//!   because it is reproducible: the same seeded workload must decide the
//!   *byte-identical* logs on every replica across two independent runs.
//! * **Equivalence** — the multi-threaded [`mdstore::ParallelCluster`]
//!   runs the untouched protocol actors on OS worker threads with
//!   wall-clock timers; on a conflict-free blind-write workload it must
//!   commit everything the simnet commits, pass the same serializability
//!   checker, and converge to the identical final store state (writer
//!   values are keyed by writer index, not node id, so the states are
//!   comparable across runtimes).
//! * **One client** — load actors drive the same session on both
//!   runtimes, so the parallel runtime runs read-write transactions,
//!   operation delays and exactly-once re-submission too.

use mdstore::datacenter::SharedCore;
use mdstore::{
    Cluster, ClusterConfig, CommitProtocol, CommitRoute, Msg, ParallelCluster,
    ParallelClusterConfig, Topology,
};
use simnet::{Actor, Context, NodeId, SimDuration};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use walog::{GroupId, ItemRef, Transaction, TxnId};
use workload::{place, run_load, KeyDistribution, LoadSpec, Names};

/// Concatenate every decided log entry of every replica and group into one
/// printable fingerprint (group ids are dense and sorted, replicas are in
/// datacenter order, positions are BTreeMap-sorted — all deterministic).
fn decided_log_fingerprint(cluster: &Cluster) -> String {
    let mut out = String::new();
    for group in cluster.groups() {
        for (replica, log) in cluster.replica_logs(group).iter().enumerate() {
            for (position, entry) in log.iter() {
                out.push_str(&format!(
                    "{group:?}@{replica}[{position}] {}\n",
                    entry.encode()
                ));
            }
        }
    }
    out
}

/// Run the paper's contended read/write workload on the simnet and return
/// the decided-log fingerprint.
fn seeded_contended_run(seed: u64) -> String {
    let mut cluster = Cluster::build(
        ClusterConfig::new(Topology::vvv(), CommitProtocol::PaxosCp).with_seed(seed),
    );
    let mut spec = LoadSpec::paper_default(Topology::vvv(), CommitProtocol::PaxosCp)
        .with_clients(3, 8)
        .with_keys(8)
        .with_key_distribution(KeyDistribution::Zipfian { theta: 0.9 })
        .with_target_tps(50.0)
        .with_max_open(2)
        .with_stagger(SimDuration::from_millis(5))
        .with_seed(1000);
    spec.mix.ops_per_txn = 3;
    spec.mix.read_fraction = 0.4;
    spec.mix.op_delay = SimDuration::from_millis(1);
    let names = Arc::new(Names::intern(&cluster.symbols(), &spec.keyspace));
    place(&mut cluster, &spec, &names);
    cluster.run_to_completion();
    cluster
        .verify()
        .expect("seeded contended run must be serializable");
    decided_log_fingerprint(&cluster)
}

/// Same seed, two independent simulations: byte-identical decided logs.
#[test]
fn same_seed_decides_byte_identical_logs() {
    let first = seeded_contended_run(4242);
    let second = seeded_contended_run(4242);
    assert!(!first.is_empty(), "the workload must decide log entries");
    assert_eq!(
        first, second,
        "two runs of the same seed must decide byte-identical logs"
    );
}

/// One strictly serial blind writer: submit one transaction, wait for its
/// decision, submit the next — so per-item write order (and therefore the
/// final store state) is causally fixed and identical in any runtime.
struct SerialWriter {
    /// Writer index; values are `w{label}-s{seq}`, independent of node id.
    label: usize,
    group: GroupId,
    service: NodeId,
    /// The group home's datacenter core, for read positions.
    core: SharedCore,
    items: Vec<ItemRef>,
    quota: u64,
    seq: u64,
    committed: Arc<AtomicUsize>,
    done: Arc<AtomicUsize>,
}

impl SerialWriter {
    fn submit_next(&mut self, ctx: &mut Context<Msg>) {
        if self.seq >= self.quota {
            self.done.fetch_add(1, Ordering::SeqCst);
            return;
        }
        let read_position = self.core.lock().read_position(self.group);
        self.seq += 1;
        let item = self.items[(self.seq as usize - 1) % self.items.len()];
        let txn = Transaction::builder(
            TxnId::new(ctx.node().0, self.seq),
            self.group,
            read_position,
        )
        .write(item, format!("w{}-s{}", self.label, self.seq))
        .build();
        ctx.send(
            self.service,
            Msg::CommitRequest {
                req_id: self.seq,
                txn,
            },
        );
    }
}

impl Actor<Msg> for SerialWriter {
    fn on_start(&mut self, ctx: &mut Context<Msg>) {
        self.submit_next(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<Msg>, _from: NodeId, msg: Msg) {
        let Msg::CommitReply {
            req_id, committed, ..
        } = msg
        else {
            return;
        };
        assert_eq!(req_id, self.seq, "serial writer has one request in flight");
        if committed {
            self.committed.fetch_add(1, Ordering::SeqCst);
        }
        self.submit_next(ctx);
    }
}

const WRITERS: usize = 4;
const GROUPS: usize = 2;
const QUOTA: u64 = 5;
const ATTRS: usize = 3;

/// The items writer `w` owns (disjoint rows ⇒ conflict-free workload).
fn writer_item_names(w: usize) -> Vec<(String, String)> {
    (0..ATTRS)
        .map(|a| (format!("row{w}"), format!("a{a}")))
        .collect()
}

/// Expected final value of writer `w`'s item `i`: the last seq in
/// `1..=QUOTA` that cycled onto it (serial submission fixes the order).
fn expected_final(w: usize, item: usize) -> Option<String> {
    let mut last = None;
    for s in 1..=QUOTA {
        if (s as usize - 1) % ATTRS == item {
            last = Some(format!("w{w}-s{s}"));
        }
    }
    last
}

type FinalState = BTreeMap<(String, String), Option<String>>;

/// Run the conflict-free serial-writer workload on the simnet and return
/// (final state, committed count).
fn simnet_conflict_free_run() -> (FinalState, usize) {
    let mut cluster =
        Cluster::build(ClusterConfig::new(Topology::vvv(), CommitProtocol::PaxosCp).with_seed(7));
    let symbols = cluster.symbols();
    let groups: Vec<GroupId> = (0..GROUPS)
        .map(|g| symbols.group(&format!("g{g}")))
        .collect();
    let committed = Arc::new(AtomicUsize::new(0));
    let done = Arc::new(AtomicUsize::new(0));
    for w in 0..WRITERS {
        let group = groups[w % GROUPS];
        let home = cluster.directory().group_home(group);
        let items: Vec<ItemRef> = writer_item_names(w)
            .iter()
            .map(|(row, attr)| ItemRef::new(symbols.key(row), symbols.attr(attr)))
            .collect();
        let service = cluster.service_node(home);
        let core = cluster.core(home);
        let committed = Arc::clone(&committed);
        let done = Arc::clone(&done);
        cluster.add_client(home, move |_node| {
            Box::new(SerialWriter {
                label: w,
                group,
                service,
                core,
                items,
                quota: QUOTA,
                seq: 0,
                committed,
                done,
            })
        });
    }
    cluster.run_to_completion();
    assert_eq!(done.load(Ordering::SeqCst), WRITERS);
    cluster
        .verify()
        .expect("conflict-free simnet run must be serializable");

    let mut state = FinalState::new();
    for w in 0..WRITERS {
        let group = groups[w % GROUPS];
        let home = cluster.directory().group_home(group);
        let core = cluster.core(home);
        let mut core = core.lock();
        let position = core.read_position(group);
        for (row, attr) in writer_item_names(w) {
            let value = core
                .read(group, symbols.key(&row), symbols.attr(&attr), position)
                .unwrap();
            state.insert((row, attr), value);
        }
    }
    (state, committed.load(Ordering::SeqCst))
}

/// Run the identical workload on the 2-worker parallel runtime and return
/// (final state, committed count).
fn parallel_conflict_free_run() -> (FinalState, usize) {
    let mut cluster = ParallelCluster::build(
        ParallelClusterConfig::new(Topology::vvv(), CommitProtocol::PaxosCp)
            .with_workers(2)
            .with_seed(7),
    );
    let symbols = cluster.symbols();
    let groups: Vec<GroupId> = (0..GROUPS)
        .map(|g| cluster.register_group(&format!("g{g}")))
        .collect();
    let committed = Arc::new(AtomicUsize::new(0));
    let done = Arc::new(AtomicUsize::new(0));
    let replicas = cluster.num_datacenters();
    for w in 0..WRITERS {
        let group = groups[w % GROUPS];
        let items: Vec<ItemRef> = writer_item_names(w)
            .iter()
            .map(|(row, attr)| ItemRef::new(symbols.key(row), symbols.attr(attr)))
            .collect();
        let service = cluster.service_for_group(group);
        let core = cluster.home_core(group);
        let worker = cluster.shard_of_group(group);
        let committed = Arc::clone(&committed);
        let done = Arc::clone(&done);
        let writer = SerialWriter {
            label: w,
            group,
            service,
            core,
            items,
            quota: QUOTA,
            seq: 0,
            committed,
            done,
        };
        cluster.add_driver(worker, w % replicas, move |_node| Box::new(writer));
    }
    let done_flag = Arc::clone(&done);
    cluster.run(Duration::from_secs(30), move || {
        done_flag.load(Ordering::SeqCst) >= WRITERS
    });
    assert_eq!(
        done.load(Ordering::SeqCst),
        WRITERS,
        "every parallel writer must drain its quota before the wall-clock cap"
    );
    cluster
        .verify()
        .expect("conflict-free parallel run must be serializable");

    let mut state = FinalState::new();
    for w in 0..WRITERS {
        let group = groups[w % GROUPS];
        for (row, attr) in writer_item_names(w) {
            let value = cluster.read_committed(group, symbols.key(&row), symbols.attr(&attr));
            state.insert((row, attr), value);
        }
    }
    (state, committed.load(Ordering::SeqCst))
}

/// The same conflict-free workload through both runtimes: everything
/// commits, both pass the checker, and the final states match each other
/// and the causally-expected values.
#[test]
fn parallel_runtime_matches_simnet_on_conflict_free_workload() {
    let (sim_state, sim_committed) = simnet_conflict_free_run();
    let (par_state, par_committed) = parallel_conflict_free_run();

    let total = WRITERS * QUOTA as usize;
    assert_eq!(sim_committed, total, "conflict-free simnet run commits all");
    assert_eq!(
        par_committed, total,
        "conflict-free parallel run commits all"
    );
    assert_eq!(
        sim_state, par_state,
        "both runtimes must converge to the identical final store state"
    );
    for w in 0..WRITERS {
        for (i, (row, attr)) in writer_item_names(w).into_iter().enumerate() {
            assert_eq!(
                sim_state
                    .get(&(row.clone(), attr.clone()))
                    .cloned()
                    .flatten(),
                expected_final(w, i),
                "item ({row}, {attr}) must hold the last serial write"
            );
        }
    }
}

/// Read-write transactions through sessions on the parallel runtime, on
/// both commit routes: reads at the client's datacenter, an operation
/// delay holding each transaction open, and — on the submitted route — a
/// patience shorter than a commit, so sessions re-submit under the same
/// transaction id. `run_load` verifies every shard and audits that each
/// observed commit is decided exactly once; no commit may be given up.
fn sessions_commit_read_write_transactions(workers: usize) {
    let spec = |route: CommitRoute| {
        let mut spec = LoadSpec::open_loop(workers, 100.0 * workers as f64)
            .named(format!("sessions-w{workers}-{}", route.name()))
            .with_topology(Topology::vvv())
            .with_rtt_scale(0.5)
            .with_groups(2 * workers)
            .with_keys(4_000)
            .with_windows(SimDuration::from_millis(400), SimDuration::from_micros(500))
            .with_route(route)
            .with_seed(11 + workers as u64);
        spec.mix.ops_per_txn = 4;
        spec.mix.read_fraction = 0.5;
        spec.mix.op_delay = SimDuration::from_millis(1);
        spec.client = spec.client.with_max_resubmissions(16);
        spec
    };
    for route in [CommitRoute::Submitted, CommitRoute::Direct] {
        let result = run_load(&spec(route));
        let name = &result.spec.name;
        let totals = &result.totals;
        assert!(totals.committed > 0, "{name}: nothing committed");
        assert_eq!(
            totals.attempted,
            totals.committed + totals.aborted,
            "{name}"
        );
        assert!(
            totals.read_only < totals.attempted,
            "{name}: the mix must write"
        );
        assert_eq!(result.unavailable, 0, "{name}: a commit was given up");
        assert!(
            !result.check.is_empty(),
            "{name}: the checker must have run"
        );
        if route == CommitRoute::Submitted {
            assert!(totals.resubmissions > 0, "{name}: nothing re-submitted");
        }
    }
}

#[test]
fn sessions_commit_read_write_transactions_on_2_workers() {
    sessions_commit_read_write_transactions(2);
}

#[test]
fn sessions_commit_read_write_transactions_on_4_workers() {
    sessions_commit_read_write_transactions(4);
}
