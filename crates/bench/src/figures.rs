//! Experiment definitions, one set per paper figure.

use mdstore::{CommitProtocol, Topology};
use workload::{LoadSpec, Placement};

/// Scale a spec down for quick smoke runs (1/5 of the transactions).
fn scale(spec: LoadSpec, quick: bool) -> LoadSpec {
    match spec.total_transactions() {
        Some(total) if quick => {
            let clients = spec.num_actors();
            spec.with_clients(clients, (total / clients / 5).max(5))
        }
        _ => spec,
    }
}

fn both_protocols(make: impl Fn(CommitProtocol) -> LoadSpec) -> Vec<LoadSpec> {
    vec![
        make(CommitProtocol::BasicPaxos),
        make(CommitProtocol::PaxosCp),
    ]
}

/// Figure 4(a)/(b): vary the number of replicas (2–5 datacenters). The
/// paper's clusters grow from two Virginia AZs to all five sites.
pub fn fig4_specs(quick: bool) -> Vec<LoadSpec> {
    let clusters = ["VV", "VVV", "VVVO", "VVVOC"];
    let mut specs = Vec::new();
    for (i, cluster) in clusters.iter().enumerate() {
        let topology = Topology::from_name(cluster).expect("valid cluster name");
        for spec in both_protocols(|protocol| {
            LoadSpec::paper_default(topology.clone(), protocol)
                .with_seed(42 + i as u64)
                .named(format!("fig4-{cluster}-{}", protocol.name()))
        }) {
            specs.push(scale(spec, quick));
        }
    }
    specs
}

/// Figure 5(a)/(b): specific datacenter combinations (VV, OV, VVV, COV).
pub fn fig5_specs(quick: bool) -> Vec<LoadSpec> {
    let clusters = ["VV", "OV", "VVV", "COV"];
    let mut specs = Vec::new();
    for (i, cluster) in clusters.iter().enumerate() {
        let topology = Topology::from_name(cluster).expect("valid cluster name");
        for spec in both_protocols(|protocol| {
            LoadSpec::paper_default(topology.clone(), protocol)
                .with_seed(52 + i as u64)
                .named(format!("fig5-{cluster}-{}", protocol.name()))
        }) {
            specs.push(scale(spec, quick));
        }
    }
    specs
}

/// Figure 6: data contention sweep — total attribute count in the entity
/// group varies from 20 (high contention) to 500 (minimal contention) on
/// three Virginia replicas.
pub fn fig6_specs(quick: bool) -> Vec<LoadSpec> {
    let attribute_counts = [20usize, 50, 100, 250, 500];
    let mut specs = Vec::new();
    for (i, attrs) in attribute_counts.iter().enumerate() {
        for spec in both_protocols(|protocol| {
            LoadSpec::paper_default(Topology::vvv(), protocol)
                .with_keys(*attrs as u64)
                .with_seed(62 + i as u64)
                .named(format!("fig6-{attrs}attrs-{}", protocol.name()))
        }) {
            specs.push(scale(spec, quick));
        }
    }
    specs
}

/// Figure 7: increased concurrency — the offered per-client rate of the
/// single workload instance rises from 0.5 to 8 transactions per second on
/// the VVV cluster with 100 attributes.
pub fn fig7_specs(quick: bool) -> Vec<LoadSpec> {
    let rates = [0.5f64, 1.0, 2.0, 4.0, 8.0];
    let mut specs = Vec::new();
    for (i, tps) in rates.iter().enumerate() {
        for spec in both_protocols(|protocol| {
            LoadSpec::paper_default(Topology::vvv(), protocol)
                .with_target_tps(*tps)
                .with_seed(72 + i as u64)
                .named(format!("fig7-{tps}tps-{}", protocol.name()))
        }) {
            specs.push(scale(spec, quick));
        }
    }
    specs
}

/// Figure 8: per-datacenter concurrency — the geo-distributed VOC cluster
/// with one workload instance per datacenter, 500 transactions each.
pub fn fig8_specs(quick: bool) -> Vec<LoadSpec> {
    both_protocols(|protocol| {
        LoadSpec::paper_default(Topology::voc(), protocol)
            .with_placement(Placement::RoundRobin)
            .with_clients(3, 500)
            .named(format!("fig8-VOC-{}", protocol.name()))
    })
    .into_iter()
    .map(|s| scale(s, quick))
    .collect()
}

/// Ablation study (not in the paper, but motivated by its design
/// discussion): isolate the contribution of each Paxos-CP mechanism and of
/// the leader fast path on the default VVV workload.
pub fn ablation_specs(quick: bool) -> Vec<LoadSpec> {
    let base = |name: &str| {
        LoadSpec::paper_default(Topology::vvv(), CommitProtocol::PaxosCp)
            .named(format!("ablation-{name}"))
    };
    let mut cp_no_combine = base("no-combination");
    cp_no_combine.client.combination = false;
    let mut cp_one_promotion = base("promotions-capped-1");
    cp_one_promotion.client.max_promotions = Some(1);
    let mut cp_two_promotions = base("promotions-capped-2");
    cp_two_promotions.client.max_promotions = Some(2);
    let mut cp_no_fast_path = base("no-fast-path");
    cp_no_fast_path.client.fast_path = false;
    let basic = LoadSpec::paper_default(Topology::vvv(), CommitProtocol::BasicPaxos)
        .named("ablation-basic-paxos");
    let lossy = base("loss-5pct").with_topology(Topology::vvv().with_loss(0.05));
    vec![
        scale(base("full-paxos-cp"), quick),
        scale(cp_no_combine, quick),
        scale(cp_one_promotion, quick),
        scale(cp_two_promotions, quick),
        scale(cp_no_fast_path, quick),
        scale(basic, quick),
        scale(lossy, quick),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_specs_cover_both_protocols() {
        assert_eq!(fig4_specs(true).len(), 8);
        assert_eq!(fig5_specs(true).len(), 8);
        assert_eq!(fig6_specs(true).len(), 10);
        assert_eq!(fig7_specs(true).len(), 10);
        assert_eq!(fig8_specs(true).len(), 2);
        assert_eq!(ablation_specs(true).len(), 7);
    }

    #[test]
    fn quick_mode_scales_down_but_keeps_structure() {
        let full = fig4_specs(false);
        let quick = fig4_specs(true);
        assert_eq!(full.len(), quick.len());
        assert!(quick[0].total_transactions() < full[0].total_transactions());
        assert_eq!(full[0].num_actors(), quick[0].num_actors());
    }

    #[test]
    fn fig8_uses_round_robin_placement() {
        for spec in fig8_specs(false) {
            assert_eq!(spec.placement, Placement::RoundRobin);
            assert_eq!(spec.num_actors(), 3);
        }
    }
}
