//! The durable storage plane, end to end: a crashed datacenter restarts
//! from its group snapshots plus the WAL tail and reproduces exactly the
//! state it acknowledged — under the same 60-second rolling-failure chaos
//! schedule the in-memory plane is held to, with every crash tearing the
//! final WAL frame first. The file also pins the plane's failure edges as
//! typed behaviours: replay stops at the first bad frame and never
//! resynchronises past it, a short read of the final record costs exactly
//! that record, and an injected fsync error withholds the ack without
//! poisoning the log.

use mdstore::{DatacenterCore, DurableConfig, StorageConfig};
use simnet::SimDuration;
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

/// A durable datacenter core over a scratch directory, snapshotting every
/// four positions and rotating WAL segments nearly every record so short
/// runs exercise truncation.
fn durable_core(label: &str) -> (DatacenterCore, DurableConfig) {
    let mut cfg = DurableConfig::new(storage::scratch_dir(label));
    cfg.snapshot_every = 4;
    cfg.segment_bytes = 128;
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
/// frame (the crash-mid-append artifact) costs nothing that was acked.
#[test]
fn restart_from_disk_reproduces_the_acknowledged_state_exactly() {
    let (mut core, cfg) = durable_core("restart-exact");
    let ballot = paxos::Ballot::initial(7);
    core.acceptor()
        .handle_prepare(GROUP, LogPosition(30), ballot);
    assert!(core.persist_promise(GROUP, LogPosition(30), ballot));
    for p in 1..=12 {
        core.install_entry(
            GROUP,
            LogPosition(p),
            write_entry(0, p, p - 1, &format!("v{p}")),
        );
    }
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
    assert_eq!(
        core.acceptor().promised_ballot(GROUP, LogPosition(30)),
        Some(ballot),
        "undecided-position promises ride the WAL too"
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
    for p in 1..=9 {
        core.install_entry(GROUP, LogPosition(p), write_entry(0, p, p - 1, "v"));
    }
    assert!(core.storage_stats().unwrap().snapshots_written >= 1);
    assert!(
        core.log(GROUP).unwrap().base() < LogPosition(2),
        "truncation must hold below the leased position"
    );
    // Crash and restart: the lease is client-owned soft state and survives.
    core.inject_torn_wal_tail();
    core.restart_from_disk(&cfg).unwrap();
    assert_eq!(core.read_lease_count(), 1, "leases must survive recovery");
    for p in 10..=13 {
        core.install_entry(GROUP, LogPosition(p), write_entry(0, p, p - 1, "v"));
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
        core.install_entry(GROUP, LogPosition(p), write_entry(0, p, p - 1, "v"));
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
/// not acknowledged, and a later successful sync may still land them.
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

    // The same failure through the datacenter storage facade: `log` (the
    // persist-before-ack primitive) reports false, so no reply is sent.
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
}
