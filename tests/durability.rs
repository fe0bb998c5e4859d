//! The durable storage plane, end to end: a crashed datacenter restarts
//! from its group snapshots plus the WAL tail and reproduces exactly the
//! state it acknowledged — under the same 60-second rolling-failure chaos
//! schedule the in-memory plane is held to, with every crash tearing the
//! final WAL frame first. The file also pins the plane's failure edges as
//! typed behaviours: replay stops at the first bad frame and never
//! resynchronises past it, a short read of the final record costs exactly
//! that record, and an injected fsync error withholds the ack without
//! poisoning the log. Acknowledgements the service holds for a sync, and
//! the vote copies held with them, never leave when that sync fails or a
//! crash comes first.

use mdstore::{
    apply_client_actions, BatchConfig, ClientAction, Cluster, ClusterConfig, CommitProtocol,
    DatacenterCore, DurableConfig, Msg, Session, StorageConfig, Topology,
};
use parking_lot::Mutex;
use paxos::{Ballot, PaxosMsg};
use simnet::{Actor, Context, NodeId, SimDuration};
use std::sync::Arc;
use storage::wal::{self, Wal, WalRecord};
use storage::{fault, DcStorage, StorageError};
use walog::{AttrId, GroupId, ItemRef, KeyId, LogEntry, LogPosition, Transaction, TxnId};
use workload::{run_load, LoadSpec};

const GROUP: GroupId = GroupId(0);
const ROW: KeyId = KeyId(0);
const A: AttrId = AttrId(0);

fn write_entry(client: u32, seq: u64, read_pos: u64, value: &str) -> std::sync::Arc<LogEntry> {
    std::sync::Arc::new(LogEntry::single(
        Transaction::builder(TxnId::new(client, seq), GROUP, LogPosition(read_pos))
            .write(ItemRef::new(ROW, A), value)
            .build(),
    ))
}

/// Install a decided entry and sync it, as the service's next sync
/// deadline would.
fn install_synced(core: &mut DatacenterCore, p: u64, value: &str) {
    core.install_entry(GROUP, LogPosition(p), write_entry(0, p, p - 1, value));
    assert!(core.flush());
}

/// A durable datacenter core over a scratch directory, snapshotting every
/// four positions and rotating WAL segments nearly every record so short
/// runs exercise truncation.
fn durable_core(label: &str) -> (DatacenterCore, DurableConfig) {
    let mut cfg = DurableConfig::new(storage::scratch_dir(label));
    cfg.snapshot_every = 4;
    cfg.segment_bytes = 128;
    core_on(cfg)
}

/// A fresh datacenter core over `cfg`'s storage.
fn core_on(cfg: DurableConfig) -> (DatacenterCore, DurableConfig) {
    let mut core = DatacenterCore::new("dc0", 0);
    core.set_gc_horizon(0);
    core.attach_storage(DcStorage::open(cfg.clone()).unwrap());
    (core, cfg)
}

/// The ISSUE's durable acceptance scenario: the full 60 s rolling-failure
/// schedule with durability enabled. Every crashed datacenter gets its WAL
/// tail torn before it recovers, every recovery goes through
/// restart-from-disk (which asserts the rebuilt state fingerprint matches
/// the pre-crash one), and the exactly-once audit still holds even though
/// snapshots have truncated the early log positions out from under it.
#[test]
fn sixty_seconds_of_durable_rolling_chaos_restarts_every_crashed_site_from_disk() {
    let dir = storage::scratch_dir("durable-chaos-60s");
    let spec = LoadSpec::rolling_failure(SimDuration::from_secs(60))
        .with_storage(StorageConfig::Durable(DurableConfig::new(&dir)));
    let result = run_load(&spec);
    storage::remove_scratch_dir(&dir);
    assert!(result.totals.committed > 0);
    assert_eq!(
        result.unavailable, 0,
        "re-submission must absorb fault windows with durability on"
    );
    assert!(
        result.durable_restarts >= 10,
        "rolling crashes every ~2 s must keep exercising restart-from-disk, saw {}",
        result.durable_restarts
    );
    assert!(
        result.torn_wal_tails >= 10,
        "every crash tears the WAL tail; recovery must tolerate each one, saw {}",
        result.torn_wal_tails
    );
    assert_eq!(result.window_commits.len(), 60);
    assert!(
        result.min_window_commits() > 0,
        "committed throughput flatlined: {:?}",
        result.window_commits
    );
}

/// Restart-from-disk must reproduce the acknowledged state bit for bit:
/// the fingerprint covers every group's log base, entries and committed
/// transaction ids plus the latest version of every row. A torn final WAL
/// frame (the crash-mid-append artifact) costs nothing that was acked, and
/// an entry whose `Decided` record was still buffered — installed, but
/// neither applied nor acknowledged here — is outside the fingerprint and
/// gone after the restart.
#[test]
fn restart_from_disk_reproduces_the_acknowledged_state_exactly() {
    let (mut core, cfg) = durable_core("restart-exact");
    let ballot = paxos::Ballot::initial(7);
    core.acceptor()
        .handle_prepare(GROUP, LogPosition(30), ballot);
    assert!(
        core.persist_promise(GROUP, LogPosition(30), ballot),
        "a durable promise's ack waits for a sync"
    );
    for p in 1..=12 {
        install_synced(&mut core, p, &format!("v{p}"));
    }
    core.install_entry(GROUP, LogPosition(13), write_entry(0, 13, 12, "v13"));
    assert!(core.has_unsynced());
    let stats = core.storage_stats().unwrap();
    assert!(stats.snapshots_written >= 1, "snapshot cadence must fire");
    assert!(stats.segments_truncated >= 1, "sealed segments must go");
    let fingerprint = core.state_fingerprint();
    core.inject_torn_wal_tail();
    let report = core.restart_from_disk(&cfg).unwrap();
    assert!(report.torn_tail, "the injected tear must be observed");
    assert!(report.snapshots_restored >= 1);
    assert!(report.wal_records_replayed >= 1);
    assert_eq!(
        core.state_fingerprint(),
        fingerprint,
        "recovered state must be byte-identical to the acknowledged state"
    );
    assert_eq!(
        core.read(GROUP, ROW, A, LogPosition(12)).unwrap(),
        Some("v12".to_string())
    );
    assert!(!core.has_entry(GROUP, LogPosition(13)));
    assert!(!core.is_committed(GROUP, TxnId::new(0, 13)));
    assert_eq!(
        core.acceptor().promised_ballot(GROUP, LogPosition(30)),
        Some(ballot),
        "undecided-position promises ride the WAL too"
    );
    storage::remove_scratch_dir(&cfg.dir);
}

/// With the default 256 KiB segments a group snapshots nothing until its
/// WAL seals a segment, so a restart before that rebuilds the group from
/// the WAL alone — the path most restarted groups now take.
#[test]
fn a_restart_before_any_snapshot_rebuilds_the_durable_state_from_the_wal_alone() {
    let (mut core, cfg) = core_on(DurableConfig::new(storage::scratch_dir("restart-wal-only")));
    for p in 1..=100 {
        install_synced(&mut core, p, &format!("v{p}"));
    }
    core.install_entry(GROUP, LogPosition(101), write_entry(0, 101, 100, "v101"));
    let stats = core.storage_stats().unwrap();
    assert_eq!(stats.snapshots_written, 0, "no sealed segment, no snapshot");
    assert_eq!(stats.segments_on_disk, 1);
    let fingerprint = core.state_fingerprint();
    core.inject_torn_wal_tail();
    let report = core.restart_from_disk(&cfg).unwrap();
    assert!(report.torn_tail);
    assert_eq!(report.snapshots_restored, 0);
    assert_eq!(report.wal_records_replayed, 100);
    assert_eq!(
        core.state_fingerprint(),
        fingerprint,
        "the WAL alone must rebuild exactly the durable state"
    );
    assert_eq!(core.log(GROUP).unwrap().base(), LogPosition::ZERO);
    assert_eq!(
        core.read(GROUP, ROW, A, LogPosition(100)).unwrap(),
        Some("v100".to_string())
    );
    assert!(!core.is_committed(GROUP, TxnId::new(0, 101)));
    storage::remove_scratch_dir(&cfg.dir);
}

/// Past a rotation of the default 256 KiB segments the group has
/// snapshotted, so the restart rebuilds it from that snapshot plus the WAL
/// tail above it.
#[test]
fn a_restart_after_a_rotation_rebuilds_the_durable_state_from_snapshot_and_wal_tail() {
    let cfg = DurableConfig::new(storage::scratch_dir("restart-after-rotation"));
    let (mut core, cfg) = core_on(cfg);
    let value = "x".repeat(1000);
    let mut p = 0;
    while core.storage_stats().unwrap().segments_on_disk == 1 {
        p += 1;
        install_synced(&mut core, p, &value);
    }
    assert_eq!(core.storage_stats().unwrap().snapshots_written, 1);
    for _ in 0..10 {
        p += 1;
        install_synced(&mut core, p, &format!("v{p}"));
    }
    let base = core.log(GROUP).unwrap().base();
    assert!(base > LogPosition::ZERO, "the snapshot raised the base");
    let fingerprint = core.state_fingerprint();
    core.inject_torn_wal_tail();
    let report = core.restart_from_disk(&cfg).unwrap();
    assert!(report.torn_tail);
    assert_eq!(report.snapshots_restored, 1);
    assert!(report.wal_records_replayed >= 10, "the tail replays");
    assert_eq!(
        core.state_fingerprint(),
        fingerprint,
        "snapshot plus WAL tail must rebuild exactly the durable state"
    );
    assert_eq!(core.log(GROUP).unwrap().base(), base);
    assert_eq!(
        core.read(GROUP, ROW, A, LogPosition(p)).unwrap(),
        Some(format!("v{p}"))
    );
    storage::remove_scratch_dir(&cfg.dir);
}

/// An open snapshot read lease pins both version GC and WAL truncation —
/// and keeps pinning them across a crash-restart, because leases belong to
/// clients in other processes and must survive a local recovery. Releasing
/// the lease lets the next snapshot cadence resume truncation.
#[test]
fn open_lease_pins_truncation_across_crash_restart_and_release_resumes_it() {
    let (mut core, cfg) = durable_core("lease-across-restart");
    core.begin_read_lease(GROUP, LogPosition(2));
    for p in 1..=8 {
        install_synced(&mut core, p, "v");
    }
    core.install_entry(GROUP, LogPosition(9), write_entry(0, 9, 8, "v"));
    assert!(core.storage_stats().unwrap().snapshots_written >= 1);
    assert!(
        core.log(GROUP).unwrap().base() < LogPosition(2),
        "truncation must hold below the leased position"
    );
    // Crash and restart: the lease is client-owned soft state and survives.
    // Position 9's `Decided` record was still buffered, so the restart
    // loses it and the replicas teach it again.
    core.inject_torn_wal_tail();
    core.restart_from_disk(&cfg).unwrap();
    assert_eq!(core.read_lease_count(), 1, "leases must survive recovery");
    assert!(!core.has_entry(GROUP, LogPosition(9)));
    for p in 9..=13 {
        install_synced(&mut core, p, "v");
    }
    assert!(
        core.log(GROUP).unwrap().base() < LogPosition(2),
        "the recovered lease must keep pinning truncation"
    );
    assert_eq!(
        core.read(GROUP, ROW, A, LogPosition(2)).unwrap(),
        Some("v".to_string()),
        "the leased snapshot must stay servable after recovery"
    );
    // Release: the next snapshot advances the floor past the old lease.
    core.end_read_lease(GROUP, LogPosition(2));
    for p in 14..=17 {
        install_synced(&mut core, p, "v");
    }
    assert!(
        core.log(GROUP).unwrap().base() >= LogPosition(2),
        "truncation must resume once the lease is released"
    );
    storage::remove_scratch_dir(&cfg.dir);
}

/// A decided entry is logged once per datacenter, however often it is
/// installed: the group home installs on learning the value and again when
/// its own `Apply` broadcast comes back, and the second install must not
/// cost a second record and fsync. Fault-free, so nothing but a duplicate
/// install can put a position into one datacenter's WAL twice.
#[test]
fn no_datacenter_logs_the_same_decided_entry_twice() {
    let dir = storage::scratch_dir("no-duplicate-decided");
    let duration = SimDuration::from_secs(3);
    let mut durable = DurableConfig::new(&dir);
    durable.snapshot_every = 0; // keep every segment for the audit below
    let spec = LoadSpec::rolling_failure(duration)
        .with_chaos(simnet::ChaosSpec::new(duration))
        .with_storage(StorageConfig::Durable(durable));
    let result = run_load(&spec);
    assert!(result.totals.committed > 100, "{}", result.totals.committed);
    for replica in 0..3 {
        let replay = wal::replay(&dir.join(format!("dc{replica}")).join("wal")).unwrap();
        assert!(!replay.torn_tail);
        let mut decided = std::collections::BTreeSet::new();
        for record in &replay.records {
            if let WalRecord::Decided { .. } = record {
                assert!(
                    decided.insert((record.group(), record.position())),
                    "dc{replica} logged {:?} {:?} twice",
                    record.group(),
                    record.position()
                );
            }
        }
        assert!(!decided.is_empty(), "dc{replica} logged no decided entry");
    }
    storage::remove_scratch_dir(&dir);
}

fn promise(position: u64, round: u64) -> WalRecord {
    WalRecord::Promise {
        group: GROUP,
        position: LogPosition(position),
        ballot: paxos::Ballot { round, proposer: 1 },
    }
}

/// Replay walks frames front to back and stops at the first bad one — it
/// never resynchronises, so a valid frame written after garbage (a torn
/// crash artifact followed by reused sectors) is not trusted.
#[test]
fn replay_stops_at_the_first_bad_frame_and_never_resyncs() {
    let dir = storage::scratch_dir("replay-first-bad");
    let mut w = Wal::open(&dir, 1 << 20).unwrap();
    for p in 1..=3 {
        w.append(&promise(p, 1));
    }
    w.sync().unwrap();
    w.inject_torn_tail().unwrap();
    let seg = dir.join(format!("wal-{:06}.seg", w.active_segment()));
    drop(w);
    // A structurally valid frame directly behind the tear must stay
    // untrusted. (Right behind it, not at the end of the file: the segment
    // is preallocated, and past its zero tail the frame would go unread
    // for the wrong reason.)
    let mut synced = Vec::new();
    for p in 1..=3 {
        storage::frame::append_frame(&mut synced, &promise(p, 1).encode());
    }
    let torn_bytes = storage::frame::FRAME_HEADER + 5;
    let mut valid = Vec::new();
    storage::frame::append_frame(&mut valid, &promise(9, 9).encode());
    use std::io::{Seek as _, SeekFrom, Write as _};
    let mut file = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
    file.seek(SeekFrom::Start((synced.len() + torn_bytes) as u64))
        .unwrap();
    file.write_all(&valid).unwrap();
    drop(file);
    let replay = wal::replay(&dir).unwrap();
    assert!(replay.torn_tail);
    assert_eq!(replay.records.len(), 3, "{:?}", replay.records);
    assert!(replay
        .records
        .iter()
        .all(|r| r.position() <= LogPosition(3)));
    storage::remove_scratch_dir(&dir);
}

/// A short read of the final record (a sector that never hit the platter)
/// costs exactly that record: everything before it replays intact.
#[test]
fn a_short_read_of_the_final_record_costs_exactly_that_record() {
    let dir = storage::scratch_dir("replay-short-read");
    let mut w = Wal::open(&dir, 1 << 20).unwrap();
    for p in 1..=3 {
        w.append(&promise(p, 1));
    }
    w.sync().unwrap();
    let seg = dir.join(format!("wal-{:06}.seg", w.active_segment()));
    drop(w);
    fault::shorten_tail(&seg, 3).unwrap();
    let replay = wal::replay(&dir).unwrap();
    assert!(replay.torn_tail);
    assert_eq!(replay.records.len(), 2);
    storage::remove_scratch_dir(&dir);
}

/// An fsync failure is a typed error — `StorageError::SyncFailed` with the
/// injection provenance — and the records it covered stay pending: they are
/// not acknowledged, a decided entry whose record rode the failed sync does
/// not apply, and a later successful sync may still land them all.
#[test]
fn fsync_failure_is_typed_and_withholds_the_ack_without_losing_the_records() {
    let dir = storage::scratch_dir("fsync-typed");
    let mut w = Wal::open(&dir, 1 << 20).unwrap();
    w.append(&promise(1, 1));
    w.fault_mut().fail_next_syncs(1);
    let err = w.sync().unwrap_err();
    assert!(
        matches!(err, StorageError::SyncFailed { injected: true, .. }),
        "{err}"
    );
    // The failed batch stays buffered; the next sync persists it.
    w.append(&promise(2, 1));
    assert_eq!(w.sync().unwrap(), 2);
    drop(w);
    let replay = wal::replay(&dir).unwrap();
    assert_eq!(replay.records.len(), 2);
    storage::remove_scratch_dir(&dir);

    // The same failure through the datacenter storage facade: `log`
    // (append one record and sync) reports false.
    let cfg = DurableConfig::new(storage::scratch_dir("fsync-facade"));
    let mut dc = DcStorage::open(cfg.clone()).unwrap();
    dc.fault_mut().fail_next_syncs(1);
    assert!(
        !dc.log(&promise(1, 1)),
        "a failed sync must withhold the ack"
    );
    assert_eq!(dc.stats().sync_failures, 1);
    assert!(dc.log(&promise(2, 1)), "a later sync may still persist");
    storage::remove_scratch_dir(&cfg.dir);

    // Through the datacenter core: a promise is appended and its ack held
    // for a sync; that sync fails, which withholds the ack and leaves the
    // buffered `Decided` record it would have carried undurable, so the
    // entry stays unapplied. The next sync lands both records.
    let (mut core, cfg) = durable_core("fsync-core");
    let applied = |core: &DatacenterCore| core.log(GROUP).unwrap().applied_through();
    core.install_entry(GROUP, LogPosition(1), write_entry(0, 1, 0, "v1"));
    let ballot = paxos::Ballot::initial(3);
    assert!(
        core.persist_promise(GROUP, LogPosition(2), ballot),
        "the ack waits for a sync"
    );
    core.storage_mut().unwrap().fault_mut().fail_next_syncs(1);
    assert!(!core.flush(), "a failed sync must withhold the ack");
    assert_eq!(applied(&core), LogPosition::ZERO);
    assert!(core.has_unsynced());
    assert!(core.flush());
    assert_eq!(applied(&core), LogPosition(1));
    let stats = core.storage_stats().unwrap();
    assert_eq!((stats.sync_failures, stats.records_synced), (1, 2));
    storage::remove_scratch_dir(&cfg.dir);
}

/// Commits `remaining` blind writes one after another through its own
/// session (direct route): transaction `i` writes `a{i} = v{i}` of `row` in
/// group `g`.
struct Writer {
    session: Session,
    remaining: u64,
    written: u64,
}

impl Writer {
    fn next(&mut self, ctx: &mut Context<Msg>) {
        if self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        self.written += 1;
        let i = self.written;
        let h = self.session.begin(ctx.now(), "g");
        self.session
            .write(h, "row", &format!("a{i}"), format!("v{i}"))
            .unwrap();
        let actions = self.session.commit(ctx.now(), h).unwrap();
        self.apply(ctx, actions);
    }

    fn apply(&mut self, ctx: &mut Context<Msg>, actions: Vec<ClientAction>) {
        for result in apply_client_actions(ctx, actions) {
            assert!(result.committed, "{result:?}");
            self.next(ctx);
        }
    }
}

impl Actor<Msg> for Writer {
    fn on_start(&mut self, ctx: &mut Context<Msg>) {
        self.next(ctx);
    }
    fn on_message(&mut self, ctx: &mut Context<Msg>, from: NodeId, msg: Msg) {
        let actions = self.session.on_message(ctx.now(), from, &msg);
        self.apply(ctx, actions);
    }
    fn on_timer(&mut self, ctx: &mut Context<Msg>, tag: u64) {
        let actions = self.session.on_timer(ctx.now(), tag);
        self.apply(ctx, actions);
    }
}

/// Sends its messages when it starts and records every reply.
struct Prober {
    to_send: Vec<(NodeId, Msg)>,
    received: Arc<Mutex<Vec<Msg>>>,
}

impl Actor<Msg> for Prober {
    fn on_start(&mut self, ctx: &mut Context<Msg>) {
        for (to, msg) in self.to_send.drain(..) {
            ctx.send(to, msg);
        }
    }
    fn on_message(&mut self, _ctx: &mut Context<Msg>, _from: NodeId, msg: Msg) {
        self.received.lock().push(msg);
    }
}

/// Three durable Virginia datacenters whose version GC keeps no history,
/// so a snapshot's truncation floor follows the prefix.
fn durable_cluster(dir: &std::path::Path, configure: impl FnOnce(&mut DurableConfig)) -> Cluster {
    let mut durable = DurableConfig::new(dir);
    configure(&mut durable);
    let config = ClusterConfig::new(Topology::vvv(), CommitProtocol::PaxosCp)
        .with_storage(StorageConfig::Durable(durable));
    let cluster = Cluster::build(config);
    for replica in 0..3 {
        cluster.core(replica).lock().set_gc_horizon(0);
    }
    cluster
}

fn add_writer(cluster: &mut Cluster, replica: usize, txns: u64) {
    let directory = cluster.directory();
    let config = cluster.client_config();
    cluster.add_client(replica, |node| {
        Box::new(Writer {
            session: Session::new(node, replica, directory, config),
            remaining: txns,
            written: 0,
        })
    });
}

/// Add a client in datacenter `at` that sends `msgs` to `to`'s service
/// once the simulation runs; returns what it will hear back.
fn add_prober(cluster: &mut Cluster, at: usize, to: usize, msgs: Vec<Msg>) -> Arc<Mutex<Vec<Msg>>> {
    let service = cluster.service_node(to);
    let received = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&received);
    cluster.add_client(at, |_| {
        Box::new(Prober {
            to_send: msgs.into_iter().map(|msg| (service, msg)).collect(),
            received: sink,
        })
    });
    received
}

/// Send `msgs` to `replica`'s service from a fresh client in its
/// datacenter and return what it hears back once the simulation is idle.
fn probe(cluster: &mut Cluster, replica: usize, msgs: Vec<Msg>) -> Vec<Msg> {
    let received = add_prober(cluster, replica, replica, msgs);
    cluster.run_to_completion();
    let got = received.lock().clone();
    got
}

fn read_reply_value(replies: &[Msg]) -> Option<String> {
    match replies {
        [Msg::SnapshotReadReply {
            value,
            unavailable: false,
            ..
        }] => value.clone(),
        other => panic!("expected one served read, got {other:?}"),
    }
}

/// The value of `row`.`attr` in group `g` at `position`, read straight from
/// `replica`'s store.
fn value_at(
    cluster: &Cluster,
    replica: usize,
    attr: &str,
    position: LogPosition,
) -> Option<String> {
    let symbols = cluster.symbols();
    let (g, row, attr) = (symbols.group("g"), symbols.key("row"), symbols.attr(attr));
    let core = cluster.core(replica);
    let value = core.lock().read(g, row, attr, position).unwrap();
    value
}

/// Run until datacenter 0 installed position 1 of `g` — the session's own
/// `Learned` — and crash it before that entry's `Decided` record is
/// synced, then restart it from disk (which asserts the rebuilt state
/// equals the durable pre-crash state) and bring it back. Returns the
/// transaction the lost entry carried.
fn crash_between_decided_append_and_sync(cluster: &mut Cluster) -> Transaction {
    let g = cluster.symbols().group("g");
    add_writer(cluster, 0, 1);
    while !cluster.core(0).lock().has_entry(g, LogPosition(1)) {
        assert!(cluster.sim_mut().step(), "position 1 never decided");
    }
    let txn = {
        let core = cluster.core(0);
        let core = core.lock();
        assert!(
            core.has_unsynced(),
            "the Decided record must still be buffered"
        );
        core.log(g)
            .unwrap()
            .get(LogPosition(1))
            .unwrap()
            .transactions()[0]
            .clone()
    };
    cluster.crash_datacenter(0);
    cluster.core(0).lock().inject_torn_wal_tail();
    cluster.restart_datacenter_from_disk(0).unwrap();
    cluster.recover_datacenter(0);
    let core = cluster.core(0);
    let core = core.lock();
    assert!(
        !core.has_entry(g, LogPosition(1)),
        "the unsynced entry is lost"
    );
    assert!(!core.is_committed(g, txn.id));
    txn
}

/// A crash between a `Decided` append and its sync loses exactly that
/// entry: the restart reproduces the durable state (asserted inside the
/// restart), and the entry comes back from the votes the replicas — this
/// datacenter's own among them — made durable before acknowledging. The
/// position is orphaned at datacenter 0 (its vote survived, its entry did
/// not), so the next Paxos round there adopts the voted entry.
#[test]
fn a_crash_before_the_decided_sync_loses_the_entry_until_its_votes_restore_it() {
    let dir = storage::scratch_dir("decided-crash");
    let mut cluster = durable_cluster(&dir, |_| {});
    let txn = crash_between_decided_append_and_sync(&mut cluster);
    cluster.run_to_completion();
    assert_eq!(
        value_at(&cluster, 0, "a1", LogPosition(1)).as_deref(),
        Some("v1")
    );
    assert!(cluster.core(0).lock().is_committed(txn.group, txn.id));
    cluster.verify().unwrap();
    storage::remove_scratch_dir(&dir);
}

/// A retry of a transaction whose entry a crash took back before its sync
/// reaches a home that has no memory of it: no `Decided` record, no
/// committed id, no remembered fate. Its committer proposes at the first
/// position it lacks, adopts the voted entry, and answers committed — the
/// transaction sits at exactly one position.
#[test]
fn a_retry_of_a_transaction_in_a_lost_decided_entry_is_answered_committed_once() {
    let dir = storage::scratch_dir("decided-retry");
    let mut cluster = durable_cluster(&dir, |_| {});
    let txn = crash_between_decided_append_and_sync(&mut cluster);
    let retry = Msg::CommitRequest {
        req_id: 7,
        txn: txn.clone(),
    };
    let replies = probe(&mut cluster, 0, vec![retry]);
    assert!(
        matches!(
            replies.as_slice(),
            [Msg::CommitReply {
                req_id: 7,
                committed: true,
                ..
            }]
        ),
        "{replies:?}"
    );
    cluster.verify().unwrap();
    for replica in 0..3 {
        let core = cluster.core(replica);
        let core = core.lock();
        let positions: Vec<LogPosition> = core
            .log(txn.group)
            .unwrap()
            .iter()
            .filter(|(_, entry)| entry.contains(txn.id))
            .map(|(position, _)| position)
            .collect();
        assert_eq!(positions, [LogPosition(1)], "replica {replica}");
    }
    storage::remove_scratch_dir(&dir);
}

/// Snapshot reads whose watermark covers an entry whose `Decided` record is
/// still buffered sync before they are served: they never observe state a
/// crash could take back.
#[test]
fn reads_covering_an_unsynced_entry_sync_before_they_are_served() {
    let dir = storage::scratch_dir("read-forces-sync");
    let mut cluster = durable_cluster(&dir, |_| {});
    let symbols = cluster.symbols();
    let g = symbols.group("g");
    let (row, attr) = (symbols.key("row"), symbols.attr("a"));
    let decided = |p: u64| {
        Arc::new(LogEntry::single(
            Transaction::builder(TxnId::new(9, p), g, LogPosition(p - 1))
                .write(ItemRef::new(row, attr), format!("v{p}"))
                .build(),
        ))
    };
    let syncs = |cluster: &Cluster| cluster.core(0).lock().storage_stats().unwrap().syncs;
    for (p, msg) in [
        (
            1,
            Msg::SnapshotRead {
                req_id: 1,
                group: g,
                key: row,
                attr,
                at: LogPosition(1),
            },
        ),
        (
            2,
            Msg::SnapshotRead {
                req_id: 2,
                group: g,
                key: row,
                attr,
                at: LogPosition(2),
            },
        ),
    ] {
        cluster
            .core(0)
            .lock()
            .install_entry(g, LogPosition(p), decided(p));
        assert!(cluster.core(0).lock().has_unsynced());
        let before = syncs(&cluster);
        let replies = probe(&mut cluster, 0, vec![msg]);
        assert_eq!(read_reply_value(&replies), Some(format!("v{p}")));
        assert_eq!(syncs(&cluster), before + 1, "the read paid for one sync");
        assert!(!cluster.core(0).lock().has_unsynced());
    }
    storage::remove_scratch_dir(&dir);
}

/// Datacenters 0 and 2 decide `txns` blind writes while datacenter 1 is
/// down, then both restart from disk with snapshot bases past those
/// positions: their promises and votes there went with the deleted WAL
/// segments. Datacenter 1 comes back knowing nothing of the group.
fn lagging_behind_forgetful_peers(dir: &std::path::Path, txns: u64) -> (Cluster, GroupId) {
    let mut cluster = durable_cluster(dir, |durable| {
        durable.snapshot_every = 4;
        durable.segment_bytes = 128;
    });
    let g = cluster.symbols().group("g");
    cluster.crash_datacenter(1);
    add_writer(&mut cluster, 0, txns);
    cluster.run_to_completion();
    assert_eq!(cluster.core(0).lock().read_position(g), LogPosition(txns));
    for replica in [0, 2] {
        cluster.crash_datacenter(replica);
        cluster.restart_datacenter_from_disk(replica).unwrap();
        cluster.recover_datacenter(replica);
        let core = cluster.core(replica);
        assert!(core.lock().forgot(g, LogPosition(1)), "replica {replica}");
    }
    cluster.recover_datacenter(1);
    assert_eq!(cluster.core(1).lock().read_position(g), LogPosition::ZERO);
    (cluster, g)
}

/// Regression (forgetful acceptors): the lagging datacenter must not
/// decide no-ops over the positions its restarted peers decided and forgot
/// (a promise without the forgotten vote used to allow exactly that,
/// silently losing acknowledged commits at one replica): the peers answer
/// with their group state, and it adopts it.
#[test]
fn a_lagging_replica_adopts_what_its_restarted_peers_forgot_instead_of_deciding_no_ops() {
    const TXNS: u64 = 12;
    let dir = storage::scratch_dir("forgetful-acceptors");
    let (mut cluster, g) = lagging_behind_forgetful_peers(&dir, TXNS);
    // One more commit decides above the lagging replica's gap, so its
    // janitor starts a no-op recovery instance for the first position it
    // lacks.
    add_writer(&mut cluster, 0, 1);
    cluster.run_to_completion();
    assert_eq!(
        value_at(&cluster, 1, "a12", LogPosition(TXNS + 1)).as_deref(),
        Some("v12")
    );
    let committed = cluster.core(0).lock().committed_through_prefix(g);
    assert_eq!(committed.len() as u64, TXNS + 1);
    let lagging = cluster.core(1);
    assert_eq!(lagging.lock().read_position(g), LogPosition(TXNS + 1));
    assert_eq!(lagging.lock().committed_through_prefix(g), committed);
    cluster.verify().unwrap();
    storage::remove_scratch_dir(&dir);
}

/// The lagging datacenter becomes the group's home and takes a commit: its
/// committer first takes the group over, settling positions its peers
/// forgot and will never promise; their group state arrives instead, and
/// it adopts it. The member then commits once, above the takeover's
/// target.
#[test]
fn a_lagging_home_commits_past_the_positions_its_peers_forgot() {
    const TXNS: u64 = 12;
    let dir = storage::scratch_dir("forgetful-acceptors-commit");
    let (mut cluster, g) = lagging_behind_forgetful_peers(&dir, TXNS);
    cluster.directory().set_group_home(g, 1);
    let item = cluster.symbols().item("row", "late");
    let txn = Transaction::builder(TxnId::new(77, 1), g, LogPosition::ZERO)
        .write(item, "x")
        .build();
    let commit = Msg::CommitRequest {
        req_id: 1,
        txn: txn.clone(),
    };
    let replies = probe(&mut cluster, 1, vec![commit]);
    assert!(
        matches!(
            replies.as_slice(),
            [Msg::CommitReply {
                committed: true,
                ..
            }]
        ),
        "{replies:?}"
    );
    // The home moved, so the committer took over first: its peers touched
    // the group through TXNS, so nothing opened at or below TXNS plus one
    // pipeline. The member sits at one position, the same everywhere.
    let target = TXNS + BatchConfig::default().pipeline_depth as u64;
    let positions: Vec<Vec<u64>> = (0..3)
        .map(|replica| {
            let core = cluster.core(replica);
            let core = core.lock();
            let log = core.log(g).expect("group log");
            let holding = log.iter().filter(|(_, entry)| entry.contains(txn.id));
            holding.map(|(position, _)| position.0).collect()
        })
        .collect();
    let [position] = positions[0][..] else {
        panic!("the member sits at one position: {positions:?}");
    };
    assert!(position > target, "{positions:?}, target {target}");
    assert!(positions.iter().all(|p| *p == [position]), "{positions:?}");
    cluster.verify().unwrap();
    storage::remove_scratch_dir(&dir);
}

fn prepare(g: GroupId, position: u64) -> Msg {
    Msg::Paxos(PaxosMsg::Prepare {
        group: g,
        position: LogPosition(position),
        ballot: Ballot {
            round: 1,
            proposer: 88,
        },
    })
}

/// The positions of the acceptor replies in `replies`.
fn acked_positions(replies: &Mutex<Vec<Msg>>) -> Vec<u64> {
    replies
        .lock()
        .iter()
        .map(|msg| match msg {
            Msg::Paxos(PaxosMsg::PrepareReply { position, .. })
            | Msg::Paxos(PaxosMsg::AcceptReply { position, .. }) => position.0,
            other => panic!("expected an acceptor reply, got {other:?}"),
        })
        .collect()
}

/// From a client in datacenter 1, have datacenter 0 cast a fast-round vote
/// at position 1 and promise position 2, and run until both replies are
/// held for a sync that has not happened yet.
fn hold_a_vote_and_a_promise(cluster: &mut Cluster, g: GroupId) -> Arc<Mutex<Vec<Msg>>> {
    let value = Arc::new(LogEntry::single(
        Transaction::builder(TxnId::new(88, 1), g, LogPosition::ZERO)
            .write(ItemRef::new(ROW, A), "held")
            .build(),
    ));
    let vote = Msg::Paxos(PaxosMsg::Accept {
        group: g,
        position: LogPosition(1),
        ballot: Ballot {
            round: 0,
            proposer: 88,
        },
        value,
        promotions: None,
    });
    let received = add_prober(cluster, 1, 0, vec![vote, prepare(g, 2)]);
    let core = cluster.core(0);
    while core
        .lock()
        .acceptor()
        .promised_ballot(g, LogPosition(2))
        .is_none()
    {
        assert!(cluster.sim_mut().step(), "the prepare never arrived");
    }
    let core = core.lock();
    assert!(core.acceptor().current_vote(g, LogPosition(1)).is_some());
    assert_eq!(core.storage_stats().unwrap().syncs, 0, "nothing synced yet");
    received
}

/// A datacenter appends a vote and a promise, holding both replies for the
/// next sync, and crashes before it with a torn tail. It restarts from disk
/// — which reproduces the durable state, as the restart asserts — and
/// recovers. Neither reply ever reaches the proposer: not after the
/// restart, not after `on_recover`, and not when a later sync releases a
/// fresh reply.
#[test]
fn held_acknowledgements_die_with_a_crash_before_their_sync() {
    let dir = storage::scratch_dir("held-acks-crash");
    let mut cluster = durable_cluster(&dir, |_| {});
    let g = cluster.symbols().group("g");
    let received = hold_a_vote_and_a_promise(&mut cluster, g);
    cluster.crash_datacenter(0);
    cluster.core(0).lock().inject_torn_wal_tail();
    cluster.restart_datacenter_from_disk(0).unwrap();
    {
        let core = cluster.core(0);
        let core = core.lock();
        assert!(core.acceptor().current_vote(g, LogPosition(1)).is_none());
        assert!(core.acceptor().promised_ballot(g, LogPosition(2)).is_none());
    }
    cluster.recover_datacenter(0);
    cluster.run_for(SimDuration::from_millis(50));
    // A fresh promise is held and released by the next sync; the dead
    // replies must not ride along.
    let fresh = add_prober(&mut cluster, 1, 0, vec![prepare(g, 3)]);
    cluster.run_for(SimDuration::from_millis(50));
    assert_eq!(acked_positions(&fresh), [3]);
    assert_eq!(acked_positions(&received), Vec::<u64>::new());
    storage::remove_scratch_dir(&dir);
}

/// A client in datacenter 1 that submits one blind write to the service of
/// datacenter `home` and records who sent it each vote copy.
struct CopyRecorder {
    home: NodeId,
    group: GroupId,
    voters: Arc<Mutex<Vec<NodeId>>>,
}

impl Actor<Msg> for CopyRecorder {
    fn on_start(&mut self, ctx: &mut Context<Msg>) {
        let txn = Transaction::builder(TxnId::new(ctx.node().0, 1), self.group, LogPosition::ZERO)
            .write(ItemRef::new(ROW, A), "copied")
            .build();
        ctx.send(self.home, Msg::CommitRequest { req_id: 1, txn });
    }
    fn on_message(&mut self, _ctx: &mut Context<Msg>, from: NodeId, msg: Msg) {
        if matches!(msg, Msg::VoteCopy { .. }) {
            self.voters.lock().push(from);
        }
    }
}

/// A vote's copy to a member's client waits for the same sync as the vote
/// reply, so it dies with it: datacenter 2 votes on the home's accept and
/// crashes with a torn tail before its sync. After the restart from disk
/// and the recovery, the client has copies from datacenters 0 and 1 only —
/// until the committer's re-send, 500 ms in, draws a fresh vote.
#[test]
fn a_held_vote_copy_dies_with_a_crash_before_its_sync() {
    let dir = storage::scratch_dir("held-copy-crash");
    let mut cluster = durable_cluster(&dir, |_| {});
    let g = cluster.symbols().group("g");
    cluster.directory().set_group_home(g, 0);
    let voters = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&voters);
    let home = cluster.service_node(0);
    cluster.add_client(1, |_| {
        Box::new(CopyRecorder {
            home,
            group: g,
            voters: sink,
        })
    });
    let core = cluster.core(2);
    while core
        .lock()
        .acceptor()
        .current_vote(g, LogPosition(1))
        .is_none()
    {
        assert!(cluster.sim_mut().step(), "the accept never arrived");
    }
    assert_eq!(
        core.lock().storage_stats().unwrap().syncs,
        0,
        "nothing synced yet"
    );
    cluster.crash_datacenter(2);
    core.lock().inject_torn_wal_tail();
    cluster.restart_datacenter_from_disk(2).unwrap();
    assert!(core
        .lock()
        .acceptor()
        .current_vote(g, LogPosition(1))
        .is_none());
    cluster.recover_datacenter(2);
    cluster.run_for(SimDuration::from_millis(50));
    let voters = voters.lock().clone();
    let from = |replica| voters.contains(&cluster.service_node(replica));
    assert!(
        from(0) && from(1),
        "the synced votes are copied: {voters:?}"
    );
    assert!(!from(2), "the held copy left after the crash: {voters:?}");
    storage::remove_scratch_dir(&dir);
}

/// A restart from disk invalidates held acknowledgements even when the
/// service never sees a crash: the sync deadline still fires, and the
/// replies appended in the earlier incarnation stay behind.
#[test]
fn a_restart_from_disk_alone_invalidates_held_acknowledgements() {
    let dir = storage::scratch_dir("held-acks-restart");
    let mut cluster = durable_cluster(&dir, |_| {});
    let g = cluster.symbols().group("g");
    let received = hold_a_vote_and_a_promise(&mut cluster, g);
    cluster.core(0).lock().inject_torn_wal_tail();
    cluster.restart_datacenter_from_disk(0).unwrap();
    cluster.run_for(SimDuration::from_millis(50));
    assert_eq!(acked_positions(&received), Vec::<u64>::new());
    storage::remove_scratch_dir(&dir);
}

/// A failed sync at the deadline drops the replies it held, but their
/// records stay buffered: the next sync makes them durable — a restart
/// replays the vote and the promise — and sends nothing for them.
#[test]
fn a_failed_sync_drops_the_held_acknowledgements_but_not_their_records() {
    let dir = storage::scratch_dir("held-acks-sync-failure");
    let mut cluster = durable_cluster(&dir, |_| {});
    let g = cluster.symbols().group("g");
    let received = hold_a_vote_and_a_promise(&mut cluster, g);
    let core = cluster.core(0);
    core.lock()
        .storage_mut()
        .unwrap()
        .fault_mut()
        .fail_next_syncs(1);
    cluster.run_for(SimDuration::from_millis(50));
    let stats = core.lock().storage_stats().unwrap();
    assert_eq!((stats.sync_failures, stats.records_synced), (1, 0));
    let fresh = add_prober(&mut cluster, 1, 0, vec![prepare(g, 3)]);
    cluster.run_for(SimDuration::from_millis(50));
    assert_eq!(acked_positions(&fresh), [3]);
    assert_eq!(acked_positions(&received), Vec::<u64>::new());
    let stats = core.lock().storage_stats().unwrap();
    assert_eq!((stats.syncs, stats.records_synced), (1, 3));
    cluster.restart_datacenter_from_disk(0).unwrap();
    let core = core.lock();
    assert!(core.acceptor().current_vote(g, LogPosition(1)).is_some());
    assert!(core.acceptor().promised_ballot(g, LogPosition(2)).is_some());
    storage::remove_scratch_dir(&dir);
}
