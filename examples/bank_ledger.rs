//! A small "bank ledger" application on top of the transactional datastore:
//! concurrent clients in different datacenters transfer money between
//! accounts of one transaction group. One-copy serializability means no
//! transfer is ever half-applied and the total balance is conserved, even
//! though every client only sees its local datacenter.
//!
//! ```text
//! cargo run --release --example bank_ledger
//! ```

use parking_lot::Mutex;
use paxos_cp::mdstore::{
    apply_client_actions, ClientAction, Cluster, ClusterConfig, CommitProtocol, Msg, Session,
    Topology,
};
use paxos_cp::simnet::{Actor, Context, NodeId, SimDuration};
use std::sync::Arc;

const ACCOUNTS: usize = 8;
const INITIAL_BALANCE: i64 = 1_000;
const GROUP: &str = "ledger";
const ROW: &str = "accounts";

#[derive(Default)]
struct Stats {
    transfers_committed: usize,
    transfers_aborted: usize,
}

/// A teller in one datacenter: repeatedly transfers a random amount between
/// two random accounts (aborted transfers are simply dropped — conservation
/// of money never depends on retries, only on serializability).
struct Teller {
    session: Option<Session>,
    transfers_left: usize,
    rng_state: u64,
    stats: Arc<Mutex<Stats>>,
}

impl Teller {
    fn next_rand(&mut self) -> u64 {
        // A small deterministic LCG keeps the example self-contained.
        self.rng_state = self
            .rng_state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1);
        self.rng_state >> 16
    }

    fn apply(&mut self, ctx: &mut Context<Msg>, actions: Vec<ClientAction>) {
        for result in apply_client_actions(ctx, actions) {
            let mut stats = self.stats.lock();
            if result.committed {
                stats.transfers_committed += 1;
            } else {
                stats.transfers_aborted += 1;
            }
            drop(stats);
            // Pace tellers slightly apart so the example finishes in
            // a handful of simulated seconds.
            ctx.set_timer(SimDuration::from_millis(120), u64::MAX);
        }
    }

    fn start_transfer(&mut self, ctx: &mut Context<Msg>) {
        if self.transfers_left == 0 {
            return;
        }
        self.transfers_left -= 1;
        let from = (self.next_rand() as usize) % ACCOUNTS;
        let mut to = (self.next_rand() as usize) % ACCOUNTS;
        if to == from {
            to = (to + 1) % ACCOUNTS;
        }
        let amount = (self.next_rand() % 50) as i64 + 1;
        let session = self.session.as_mut().unwrap();
        let txn = session.begin(ctx.now(), GROUP);
        let balance = |v: Option<String>| {
            v.and_then(|s| s.parse::<i64>().ok())
                .unwrap_or(INITIAL_BALANCE)
        };
        let from_balance = balance(session.read(txn, ROW, &format!("acct{from}")).unwrap());
        let to_balance = balance(session.read(txn, ROW, &format!("acct{to}")).unwrap());
        session
            .write(
                txn,
                ROW,
                &format!("acct{from}"),
                (from_balance - amount).to_string(),
            )
            .unwrap();
        session
            .write(
                txn,
                ROW,
                &format!("acct{to}"),
                (to_balance + amount).to_string(),
            )
            .unwrap();
        let actions = session.commit(ctx.now(), txn).unwrap();
        self.apply(ctx, actions);
    }
}

impl Actor<Msg> for Teller {
    fn on_start(&mut self, ctx: &mut Context<Msg>) {
        self.start_transfer(ctx);
    }
    fn on_message(&mut self, ctx: &mut Context<Msg>, from: NodeId, msg: Msg) {
        let session = self.session.as_mut().unwrap();
        let actions = session.on_message(ctx.now(), from, &msg);
        self.apply(ctx, actions);
    }
    fn on_timer(&mut self, ctx: &mut Context<Msg>, tag: u64) {
        if tag == u64::MAX {
            self.start_transfer(ctx);
        } else {
            let session = self.session.as_mut().unwrap();
            let actions = session.on_timer(ctx.now(), tag);
            self.apply(ctx, actions);
        }
    }
}

fn main() {
    let mut cluster = Cluster::build(ClusterConfig::new(Topology::voc(), CommitProtocol::PaxosCp));
    let stats = Arc::new(Mutex::new(Stats::default()));
    // One teller per datacenter, each issuing 25 transfers.
    for replica in 0..cluster.num_datacenters() {
        let directory = cluster.directory();
        let client_config = cluster.client_config();
        let sink = stats.clone();
        cluster.add_client(replica, |node| {
            Box::new(Teller {
                session: Some(Session::new(node, replica, directory, client_config)),
                transfers_left: 25,
                rng_state: 0xA5A5_0000 + node.0 as u64,
                stats: sink,
            })
        });
    }
    cluster.run_to_completion();

    let stats = stats.lock();
    println!(
        "transfers committed: {}, aborted (conflicting): {}",
        stats.transfers_committed, stats.transfers_aborted
    );

    // Verify serializability, then audit the ledger at every datacenter.
    let reports = cluster
        .verify()
        .expect("ledger history must be serializable");
    println!(
        "serializability verified over {} log positions",
        reports[0].1.positions
    );

    // Resolve the interned ids once for the direct store audit below.
    let symbols = cluster.symbols();
    let group = symbols.group(GROUP);
    let row = symbols.key(ROW);
    for replica in 0..cluster.num_datacenters() {
        let core = cluster.core(replica);
        let mut core = core.lock();
        let position = core.read_position(group);
        let mut total = 0i64;
        for account in 0..ACCOUNTS {
            let attr = symbols.attr(&format!("acct{account}"));
            let value = core
                .read(group, row, attr, position)
                .unwrap()
                .and_then(|s| s.parse::<i64>().ok())
                .unwrap_or(INITIAL_BALANCE);
            total += value;
        }
        println!(
            "datacenter {replica}: total balance across {ACCOUNTS} accounts = {total} (expected {})",
            ACCOUNTS as i64 * INITIAL_BALANCE
        );
        assert_eq!(
            total,
            ACCOUNTS as i64 * INITIAL_BALANCE,
            "money must be conserved"
        );
    }
    println!("money conserved at every datacenter — transfers were serializable.");
}
