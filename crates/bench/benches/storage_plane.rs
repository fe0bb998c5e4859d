//! Micro-benchmarks of the durable storage plane: WAL append plus
//! group-commit throughput, replay of a populated WAL directory (the
//! restart slow path), and group-snapshot save/load (the restart fast
//! path). Fixtures live in scratch directories that are removed when each
//! benchmark group finishes.

use criterion::{criterion_group, criterion_main, Criterion};
use storage::snapshot::{GroupSnapshot, SnapshotRow, SnapshotStore};
use storage::wal::{self, Wal, WalRecord};
use walog::{GroupId, LogPosition, TxnId};

fn promise(position: u64) -> WalRecord {
    WalRecord::Promise {
        group: GroupId(0),
        position: LogPosition(position),
        ballot: paxos::Ballot::initial(1),
    }
}

/// Append-and-sync throughput of the group-commit WAL: one iteration is a
/// 64-record batch followed by a single `sync`, the shape one loaded
/// datacenter timer tick produces.
fn bench_wal_append(c: &mut Criterion) {
    let dir = storage::scratch_dir("bench-wal-append");
    let mut group = c.benchmark_group("storage");
    group.sample_size(20);
    let mut w = Wal::open(&dir, 8 << 20).expect("open wal");
    let mut position = 0u64;
    group.bench_function("wal_append_throughput", |b| {
        b.iter(|| {
            for _ in 0..64 {
                position += 1;
                w.append(&promise(position));
            }
            w.sync().expect("sync")
        });
    });
    group.finish();
    drop(w);
    storage::remove_scratch_dir(&dir);
}

/// Replay of a 4096-record WAL spread over several segments — the restart
/// cost paid for the log tail above the last snapshot.
fn bench_recovery_replay(c: &mut Criterion) {
    let dir = storage::scratch_dir("bench-wal-replay");
    let mut w = Wal::open(&dir, 64 << 10).expect("open wal");
    for p in 1..=4096u64 {
        w.append(&promise(p));
    }
    w.sync().expect("sync");
    drop(w);
    let mut group = c.benchmark_group("storage");
    group.sample_size(20);
    group.bench_function("recovery_replay_ms", |b| {
        b.iter(|| {
            let replay = wal::replay(&dir).expect("replay");
            assert_eq!(replay.records.len(), 4096);
            replay
        });
    });
    group.finish();
    storage::remove_scratch_dir(&dir);
}

/// Save-then-load of a group snapshot holding 256 rows with four retained
/// versions each — the restart fast path that replaces replaying the
/// truncated log prefix.
fn bench_snapshot_install(c: &mut Criterion) {
    let dir = storage::scratch_dir("bench-snapshot");
    let store = SnapshotStore::open(&dir).expect("open snapshot store");
    let snap = GroupSnapshot {
        group: GroupId(0),
        position: LogPosition(1024),
        log_base: LogPosition(1000),
        committed: (0..1024).map(|s| TxnId::new(1, s)).collect(),
        rows: (0..256u64)
            .map(|key| SnapshotRow {
                key,
                versions: (1..=4)
                    .map(|ts| (1020 + ts, vec![(0, format!("value-{key}-{ts}"))]))
                    .collect(),
            })
            .collect(),
    };
    let mut group = c.benchmark_group("storage");
    group.sample_size(20);
    group.bench_function("snapshot_install_ms", |b| {
        b.iter(|| {
            store.save(&snap).expect("save snapshot");
            let (loaded, corrupt) = store.load_all().expect("load snapshots");
            assert_eq!(corrupt, 0);
            assert_eq!(loaded.len(), 1);
            loaded
        });
    });
    group.finish();
    storage::remove_scratch_dir(&dir);
}

criterion_group!(
    benches,
    bench_wal_append,
    bench_recovery_replay,
    bench_snapshot_install
);
criterion_main!(benches);
