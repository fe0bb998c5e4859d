//! Micro-benchmarks of the building blocks: the multi-version store, the
//! acceptor's state machine, the conflict check at the
//! heart of Paxos-CP (interned vs. the string-keyed representation it
//! replaced), the combination search, and a full uncontended commit through
//! the simulated VVV cluster.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mdstore::{Cluster, ClusterConfig, CommitProtocol, CommitRoute, Session, Topology};
use mvkv::{Attr, Key, MvKvStore, Row, Timestamp};
use paxos::{AcceptorStore, Ballot};
use simnet::SimTime;
use std::collections::BTreeSet;
use walog::combine::best_combination;
use walog::ident::{AttrId, GroupId, KeyId};
use walog::{ItemRef, LogEntry, LogPosition, Transaction, TxnId};

fn item(a: u32) -> ItemRef {
    ItemRef::new(KeyId(0), AttrId(a))
}

fn bench_mvkv(c: &mut Criterion) {
    let row_key = Key(0);
    let a = Attr(0);
    let mut group = c.benchmark_group("mvkv");
    group.bench_function("write_new_version", |b| {
        let store = MvKvStore::new();
        let mut ts = 0u64;
        b.iter(|| {
            ts += 1;
            store
                .write(
                    row_key,
                    Row::new().with(a, ts.to_string()),
                    Some(Timestamp(ts)),
                )
                .unwrap();
        });
    });
    group.bench_function("read_latest_of_1000_versions", |b| {
        let store = MvKvStore::new();
        for ts in 1..=1000 {
            store
                .write(
                    row_key,
                    Row::new().with(a, ts.to_string()),
                    Some(Timestamp(ts)),
                )
                .unwrap();
        }
        b.iter(|| store.read(row_key, Some(Timestamp(900))));
    });
    group.finish();
}

fn bench_acceptor(c: &mut Criterion) {
    let mut group = c.benchmark_group("acceptor");
    group.bench_function("prepare_accept_apply_cycle", |b| {
        let store = MvKvStore::new();
        let acceptor = AcceptorStore::new(&store);
        let entry = std::sync::Arc::new(LogEntry::single(
            Transaction::builder(TxnId::new(1, 1), GroupId(0), LogPosition(0))
                .write(item(0), "v")
                .build(),
        ));
        let mut position = 0u64;
        b.iter(|| {
            position += 1;
            let pos = LogPosition(position);
            let ballot = Ballot::initial(7);
            let g = GroupId(0);
            acceptor.handle_prepare(g, pos, ballot);
            acceptor.handle_accept(g, pos, ballot, &entry);
            acceptor.handle_apply(g, pos, ballot, &entry);
        });
    });
    group.finish();
}

// ---------------------------------------------------------------------------
// Conflict check: interned integer sets vs. the string-keyed representation
// this refactor replaced. The string variant reproduces the seed
// implementation faithfully: owned `String` key/attr pairs and a
// `BTreeSet<&(String, String)>` built per check.
// ---------------------------------------------------------------------------

struct StringTxn {
    reads: Vec<(String, String)>,
    writes: Vec<(String, String)>,
}

impl StringTxn {
    fn write_set(&self) -> BTreeSet<&(String, String)> {
        self.writes.iter().collect()
    }

    fn reads_item_written_by(&self, other: &StringTxn) -> bool {
        let writes = other.write_set();
        self.reads.iter().any(|r| writes.contains(r))
    }
}

/// Build the paper's workload shape both ways: 10-operation transactions
/// (5 reads, 5 writes) over a 100-attribute row, with the probe reading a
/// sliding window so both hit and miss paths are exercised.
fn conflict_fixture(n: usize) -> (Vec<StringTxn>, Vec<Transaction>) {
    let mut string_txns = Vec::with_capacity(n);
    let mut interned_txns = Vec::with_capacity(n);
    for i in 0..n {
        let reads: Vec<u32> = (0..5).map(|j| ((i * 7 + j * 13) % 100) as u32).collect();
        let writes: Vec<u32> = (0..5).map(|j| ((i * 11 + j * 17) % 100) as u32).collect();
        string_txns.push(StringTxn {
            reads: reads
                .iter()
                .map(|a| ("row0".to_string(), format!("a{a}")))
                .collect(),
            writes: writes
                .iter()
                .map(|a| ("row0".to_string(), format!("a{a}")))
                .collect(),
        });
        let mut b = Transaction::builder(TxnId::new(i as u32, 1), GroupId(0), LogPosition(0));
        for r in &reads {
            b = b.read(item(*r), Some("v"));
        }
        for w in &writes {
            b = b.write(item(*w), "x");
        }
        interned_txns.push(b.build());
    }
    (string_txns, interned_txns)
}

fn bench_conflict_check(c: &mut Criterion) {
    let (string_txns, interned_txns) = conflict_fixture(64);
    let interned_entries: Vec<LogEntry> = interned_txns
        .iter()
        .map(|t| LogEntry::single(t.clone()))
        .collect();
    let mut group = c.benchmark_group("conflict_check");
    // The promotion test: does a winning entry invalidate our reads?
    group.bench_function("string_keyed_baseline", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % string_txns.len();
            let j = (i * 31 + 7) % string_txns.len();
            string_txns[i].reads_item_written_by(&string_txns[j])
        });
    });
    group.bench_function("interned", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % interned_txns.len();
            let j = (i * 31 + 7) % interned_txns.len();
            interned_entries[j].invalidates_reads_of(&interned_txns[i])
        });
    });
    // Pairwise sweep, the shape the combination validity check runs.
    group.bench_function("string_keyed_pairwise_64", |b| {
        b.iter(|| {
            let mut conflicts = 0usize;
            for a in &string_txns {
                for other in &string_txns {
                    if a.reads_item_written_by(other) {
                        conflicts += 1;
                    }
                }
            }
            conflicts
        });
    });
    group.bench_function("interned_pairwise_64", |b| {
        b.iter(|| {
            let mut conflicts = 0usize;
            for a in &interned_txns {
                for other in &interned_txns {
                    if a.reads_item_written_by(other) {
                        conflicts += 1;
                    }
                }
            }
            conflicts
        });
    });
    group.finish();
}

fn bench_combination(c: &mut Criterion) {
    let mut group = c.benchmark_group("combination");
    for candidates in [2usize, 4, 8, 16] {
        group.bench_with_input(
            BenchmarkId::new("best_combination", candidates),
            &candidates,
            |b, &n| {
                let own = Transaction::builder(TxnId::new(0, 0), GroupId(0), LogPosition(0))
                    .read(item(0), Some("v"))
                    .write(item(0), "x")
                    .build();
                let pool: Vec<Transaction> = (1..=n)
                    .map(|i| {
                        Transaction::builder(
                            TxnId::new(i as u32, i as u64),
                            GroupId(0),
                            LogPosition(0),
                        )
                        .read(item((i % 5) as u32), Some("v"))
                        .write(item(((i + 1) % 5) as u32), "x")
                        .build()
                    })
                    .collect();
                b.iter(|| best_combination(&own, &pool));
            },
        );
    }
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("entry_codec");
    let entry = LogEntry::combined(
        (0..3)
            .map(|i| {
                let mut b = Transaction::builder(TxnId::new(i, 1), GroupId(0), LogPosition(0));
                for j in 0..5 {
                    b = b.read(item(i * 10 + j), Some("observed-value"));
                    b = b.write(item(i * 10 + j + 5), "written-value");
                }
                b.build()
            })
            .collect(),
    );
    let encoded = entry.encode();
    group.bench_function("encode_3txn_entry", |b| b.iter(|| entry.encode()));
    group.bench_function("decode_3txn_entry", |b| {
        b.iter(|| LogEntry::decode(&encoded).expect("valid"))
    });
    group.finish();
}

/// A single uncontended read/write transaction committed through the
/// simulated three-replica Virginia cluster, including all message rounds.
/// Drives the session's direct route (the paper's client-side proposer) or
/// the submitted route (service-hosted group committer).
fn one_shot_commit(protocol: CommitProtocol, route: CommitRoute) {
    use mdstore::{apply_client_actions, ClientAction, Msg};
    use simnet::{Actor, Context, NodeId};
    struct OneShot {
        session: Option<Session>,
    }
    impl OneShot {
        fn apply(&mut self, ctx: &mut Context<Msg>, actions: Vec<ClientAction>) {
            for result in apply_client_actions(ctx, actions) {
                assert!(result.committed);
            }
        }
    }
    impl Actor<Msg> for OneShot {
        fn on_start(&mut self, ctx: &mut Context<Msg>) {
            let session = self.session.as_mut().unwrap();
            let h = session.begin(ctx.now(), "g");
            session.write(h, "row", "a", "1").unwrap();
            let actions = session.commit(ctx.now(), h).unwrap();
            self.apply(ctx, actions);
        }
        fn on_message(&mut self, ctx: &mut Context<Msg>, from: NodeId, msg: Msg) {
            let session = self.session.as_mut().unwrap();
            let actions = session.on_message(ctx.now(), from, &msg);
            self.apply(ctx, actions);
        }
        fn on_timer(&mut self, ctx: &mut Context<Msg>, tag: u64) {
            let session = self.session.as_mut().unwrap();
            let actions = session.on_timer(ctx.now(), tag);
            self.apply(ctx, actions);
        }
    }
    let mut cluster = Cluster::build(ClusterConfig::new(Topology::vvv(), protocol).with_seed(1));
    let directory = cluster.directory();
    let client_config = cluster.client_config().with_route(route);
    cluster.add_client(0, |node| {
        Box::new(OneShot {
            session: Some(Session::new(node, 0, directory, client_config)),
        })
    });
    cluster.run_to_completion();
    assert_eq!(cluster.committed_in_log(0, "g"), 1);
}

fn bench_end_to_end_commit(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end_commit");
    group.sample_size(20);
    for protocol in [CommitProtocol::BasicPaxos, CommitProtocol::PaxosCp] {
        group.bench_function(protocol.name(), |b| {
            b.iter(|| {
                one_shot_commit(protocol, CommitRoute::Direct);
                SimTime::ZERO
            });
        });
    }
    // The submitted route on the same workload: one extra intra-site hop to
    // the group home's hosted committer, windowing deferred to the adaptive
    // controller.
    group.bench_function("paxos-cp-submitted", |b| {
        b.iter(|| {
            one_shot_commit(CommitProtocol::PaxosCp, CommitRoute::Submitted);
            SimTime::ZERO
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_mvkv,
    bench_acceptor,
    bench_conflict_check,
    bench_combination,
    bench_codec,
    bench_end_to_end_commit
);
criterion_main!(benches);
