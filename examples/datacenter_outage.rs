//! Availability under a datacenter outage — the scenario that motivates the
//! paper (the 2011 EC2 and Dublin outages): with full replication and a
//! majority-based commit protocol, the loss of one datacenter must not stop
//! transaction processing, and the failed datacenter must converge to the
//! same log once it returns.
//!
//! ```text
//! cargo run --release --example datacenter_outage
//! ```

use parking_lot::Mutex;
use paxos_cp::mdstore::{
    apply_client_actions, ClientAction, Cluster, ClusterConfig, CommitProtocol, MetricsHub, Msg,
    RunMetrics, Session, Topology,
};
use paxos_cp::simnet::{Actor, Context, NodeId, SimDuration};
use std::sync::Arc;

/// A client that issues short read/write transactions back to back.
struct Writer {
    session: Option<Session>,
    remaining: usize,
    metrics: Arc<Mutex<RunMetrics>>,
    attr: String,
}

impl Writer {
    fn apply(&mut self, ctx: &mut Context<Msg>, actions: Vec<ClientAction>) {
        for result in apply_client_actions(ctx, actions) {
            self.metrics.lock().record(&result);
            self.start_next(ctx);
        }
    }

    fn start_next(&mut self, ctx: &mut Context<Msg>) {
        if self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        let session = self
            .session
            .as_mut()
            .expect("session is set at construction");
        let txn = session.begin(ctx.now(), "accounts");
        let current = session
            .read(txn, "balances", &self.attr)
            .expect("read in txn");
        let next = current.and_then(|v| v.parse::<u64>().ok()).unwrap_or(0) + 1;
        session
            .write(txn, "balances", &self.attr, next.to_string())
            .expect("write in txn");
        let actions = session.commit(ctx.now(), txn).expect("commit");
        self.apply(ctx, actions);
    }
}

impl Actor<Msg> for Writer {
    fn on_start(&mut self, ctx: &mut Context<Msg>) {
        self.start_next(ctx);
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

fn main() {
    let mut cluster = Cluster::build(ClusterConfig::new(Topology::voc(), CommitProtocol::PaxosCp));
    let metrics = MetricsHub::new().register();
    let directory = cluster.directory();
    let client_config = cluster.client_config();
    let sink = metrics.clone();
    cluster.add_client(0, |node| {
        Box::new(Writer {
            session: Some(Session::new(node, 0, directory, client_config)),
            remaining: 200,
            metrics: sink,
            attr: "alice".into(),
        })
    });

    // Let some transactions commit with all three datacenters up.
    cluster.run_for(SimDuration::from_secs(2));
    let before = metrics.lock().committed;
    println!("commits with all datacenters up: {before}");

    // Take California (replica 2) offline: a majority (Virginia + Oregon)
    // remains, so the workload keeps committing.
    println!("\n-- crashing datacenter 2 (california) --");
    cluster.crash_datacenter(2);
    cluster.run_for(SimDuration::from_secs(20));
    let during = metrics.lock().committed;
    println!("commits while california is down: {}", during - before);
    assert!(
        during > before,
        "a majority of datacenters must keep committing"
    );

    // Bring it back; the remaining workload plus read-triggered recovery
    // catches the replica up, and all logs must agree.
    println!("\n-- recovering datacenter 2 --");
    cluster.recover_datacenter(2);
    cluster.run_to_completion();
    let total = metrics.lock().committed;
    println!("total commits: {total} / 200 attempted");

    let symbols = cluster.symbols();
    let reports = cluster
        .verify()
        .expect("logs must agree and be serializable");
    for (group, report) in reports {
        let name = symbols
            .group_name(group)
            .unwrap_or_else(|| group.to_string());
        println!(
            "group {name}: {} log positions, {} committed transactions — replica agreement and one-copy serializability verified",
            report.positions, report.transactions
        );
    }
    let final_balance = {
        let group = symbols.group("accounts");
        let row = symbols.key("balances");
        let attr = symbols.attr("alice");
        let core = cluster.core(0);
        let mut core = core.lock();
        let position = core.read_position(group);
        core.read(group, row, attr, position).ok().flatten()
    };
    println!("final balance of 'alice' at datacenter 0: {final_balance:?}");
}
