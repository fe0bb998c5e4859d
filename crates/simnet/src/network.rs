//! The simulated wide-area network.
//!
//! Nodes live in *sites* (datacenters). Message latency between two nodes is
//! drawn from a per-site-pair latency matrix plus optional multiplicative
//! jitter; messages may be lost independently with a configurable
//! probability, dropped by a partition, or dropped because either endpoint
//! is down. This mirrors the paper's assumption that a message either
//! arrives before a known timeout or is lost (§2.2).

use crate::sim::NodeId;
use crate::time::SimDuration;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::{HashMap, HashSet};

/// Identifier for a site (datacenter).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SiteId(pub u32);

/// One-way latency configuration between sites.
#[derive(Clone, Debug, Default)]
pub struct LatencyMatrix {
    /// One-way latency per ordered site pair. Missing pairs fall back to the
    /// reverse pair, then to `default_remote`.
    one_way: HashMap<(SiteId, SiteId), SimDuration>,
    /// One-way latency between two nodes of the same site.
    intra_site: SimDuration,
    /// Fallback one-way latency for unknown site pairs.
    default_remote: SimDuration,
}

impl LatencyMatrix {
    /// Create a matrix with the given intra-site one-way latency and a
    /// default remote one-way latency for pairs not set explicitly.
    pub fn new(intra_site: SimDuration, default_remote: SimDuration) -> Self {
        LatencyMatrix {
            one_way: HashMap::new(),
            intra_site,
            default_remote,
        }
    }

    /// Set the **round-trip** latency between two sites; the stored one-way
    /// latency is half of it (symmetric links).
    pub fn set_rtt(&mut self, a: SiteId, b: SiteId, rtt: SimDuration) -> &mut Self {
        let one_way = SimDuration::from_micros(rtt.as_micros() / 2);
        self.one_way.insert((a, b), one_way);
        self.one_way.insert((b, a), one_way);
        self
    }

    /// The one-way latency from site `a` to site `b`.
    pub fn one_way(&self, a: SiteId, b: SiteId) -> SimDuration {
        if a == b {
            return self.intra_site;
        }
        self.one_way
            .get(&(a, b))
            .or_else(|| self.one_way.get(&(b, a)))
            .copied()
            .unwrap_or(self.default_remote)
    }

    /// The round-trip latency between two sites.
    pub fn rtt(&self, a: SiteId, b: SiteId) -> SimDuration {
        self.one_way(a, b) + self.one_way(b, a)
    }
}

/// Chaos policies applied to messages that the base model decided to
/// deliver: independent duplication, reordering (holding a message back so
/// later sends overtake it) and delay bursts. All probabilities default to
/// zero, in which case the model draws no extra randomness and behaves
/// bit-for-bit like the pre-chaos network.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Probability that a delivered message is delivered **twice** (the
    /// duplicate arrives with an independently perturbed delay).
    pub duplicate_probability: f64,
    /// Probability that a delivered message is held back by
    /// [`ChaosConfig::reorder_delay`], letting messages sent after it
    /// overtake it.
    pub reorder_probability: f64,
    /// Extra one-way delay applied to reordered messages.
    pub reorder_delay: SimDuration,
    /// Probability that a message hits a delay burst.
    pub burst_probability: f64,
    /// Latency multiplier applied during a delay burst (clamped to ≥ 1).
    pub burst_factor: f64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            duplicate_probability: 0.0,
            reorder_probability: 0.0,
            reorder_delay: SimDuration::ZERO,
            burst_probability: 0.0,
            burst_factor: 1.0,
        }
    }
}

impl ChaosConfig {
    /// Builder-style: set the duplicate-delivery probability.
    pub fn with_duplicates(mut self, p: f64) -> Self {
        self.duplicate_probability = p.clamp(0.0, 1.0);
        self
    }

    /// Builder-style: set the reordering probability and hold-back delay.
    pub fn with_reordering(mut self, p: f64, delay: SimDuration) -> Self {
        self.reorder_probability = p.clamp(0.0, 1.0);
        self.reorder_delay = delay;
        self
    }

    /// Builder-style: set the delay-burst probability and multiplier.
    pub fn with_bursts(mut self, p: f64, factor: f64) -> Self {
        self.burst_probability = p.clamp(0.0, 1.0);
        self.burst_factor = factor.max(1.0);
        self
    }
}

/// Static configuration of the network model.
#[derive(Clone, Debug)]
pub struct NetworkConfig {
    /// Latencies between sites.
    pub latency: LatencyMatrix,
    /// Independent probability that any message is silently dropped.
    pub loss_probability: f64,
    /// Multiplicative jitter: the delivery latency is scaled by a factor
    /// drawn uniformly from `[1 - jitter, 1 + jitter]`.
    pub jitter: f64,
    /// Duplication / reordering / delay-burst policies (inactive by
    /// default).
    pub chaos: ChaosConfig,
}

impl NetworkConfig {
    /// A loss-free, jitter-free network where every one-way hop (including
    /// intra-site) takes `one_way`.
    pub fn uniform(one_way: SimDuration) -> Self {
        NetworkConfig {
            latency: LatencyMatrix::new(one_way, one_way),
            loss_probability: 0.0,
            jitter: 0.0,
            chaos: ChaosConfig::default(),
        }
    }

    /// Builder-style: set the message loss probability.
    pub fn with_loss(mut self, p: f64) -> Self {
        self.loss_probability = p.clamp(0.0, 1.0);
        self
    }

    /// Builder-style: set the jitter fraction.
    pub fn with_jitter(mut self, jitter: f64) -> Self {
        self.jitter = jitter.max(0.0);
        self
    }

    /// Builder-style: set the chaos policies.
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = chaos;
        self
    }
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig::uniform(SimDuration::from_micros(250))
    }
}

/// The fate decided for an individual message by the network model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Delivery {
    /// Deliver after the given one-way delay.
    Deliver(SimDuration),
    /// Silently drop (random loss, partition or dead endpoint).
    Drop(DropReason),
}

/// Why a message was dropped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropReason {
    /// Random loss drawn against `loss_probability`.
    RandomLoss,
    /// The source and destination sites are partitioned from each other.
    Partitioned,
    /// The source node is down.
    SourceDown,
    /// The destination node is down.
    DestinationDown,
}

/// Runtime state of the network: node placement, liveness and partitions.
#[derive(Debug)]
pub struct Network {
    config: NetworkConfig,
    node_site: Vec<SiteId>,
    down_nodes: HashSet<NodeId>,
    down_sites: HashSet<SiteId>,
    /// Unordered site pairs that cannot exchange messages.
    partitions: HashSet<(SiteId, SiteId)>,
}

impl Network {
    /// Create a network with no nodes.
    pub fn new(config: NetworkConfig) -> Self {
        Network {
            config,
            node_site: Vec::new(),
            down_nodes: HashSet::new(),
            down_sites: HashSet::new(),
            partitions: HashSet::new(),
        }
    }

    /// Read access to the static configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// Mutable access to the static configuration (e.g. to change the loss
    /// rate mid-experiment).
    pub fn config_mut(&mut self) -> &mut NetworkConfig {
        &mut self.config
    }

    pub(crate) fn register_node(&mut self, node: NodeId, site: SiteId) {
        let idx = node.0 as usize;
        if self.node_site.len() <= idx {
            self.node_site.resize(idx + 1, site);
        }
        self.node_site[idx] = site;
    }

    /// The site a node belongs to.
    pub fn site_of(&self, node: NodeId) -> SiteId {
        self.node_site[node.0 as usize]
    }

    /// Mark a single node as crashed: all messages to/from it are dropped and
    /// its timers are suppressed until [`Network::set_node_up`].
    pub fn set_node_down(&mut self, node: NodeId) {
        self.down_nodes.insert(node);
    }

    /// Bring a single node back up.
    pub fn set_node_up(&mut self, node: NodeId) {
        self.down_nodes.remove(&node);
    }

    /// Take an entire site (datacenter) offline.
    pub fn set_site_down(&mut self, site: SiteId) {
        self.down_sites.insert(site);
    }

    /// Bring a site back online.
    pub fn set_site_up(&mut self, site: SiteId) {
        self.down_sites.remove(&site);
    }

    /// Whether a node is currently reachable (node and its site both up).
    pub fn is_node_up(&self, node: NodeId) -> bool {
        !self.down_nodes.contains(&node) && !self.down_sites.contains(&self.site_of(node))
    }

    /// Partition two sites from each other (messages both ways are dropped).
    pub fn partition(&mut self, a: SiteId, b: SiteId) {
        self.partitions.insert(Self::pair(a, b));
    }

    /// Heal a partition between two sites.
    pub fn heal(&mut self, a: SiteId, b: SiteId) {
        self.partitions.remove(&Self::pair(a, b));
    }

    /// Heal all partitions.
    pub fn heal_all(&mut self) {
        self.partitions.clear();
    }

    fn pair(a: SiteId, b: SiteId) -> (SiteId, SiteId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    fn partitioned(&self, a: SiteId, b: SiteId) -> bool {
        self.partitions.contains(&Self::pair(a, b))
    }

    /// Decide the fate of a message from `from` to `to` using the provided RNG.
    pub fn route(&self, from: NodeId, to: NodeId, rng: &mut StdRng) -> Delivery {
        if !self.is_node_up(from) {
            return Delivery::Drop(DropReason::SourceDown);
        }
        if !self.is_node_up(to) {
            return Delivery::Drop(DropReason::DestinationDown);
        }
        let (sa, sb) = (self.site_of(from), self.site_of(to));
        if self.partitioned(sa, sb) {
            return Delivery::Drop(DropReason::Partitioned);
        }
        if self.config.loss_probability > 0.0 && rng.gen::<f64>() < self.config.loss_probability {
            return Delivery::Drop(DropReason::RandomLoss);
        }
        let base = self.config.latency.one_way(sa, sb);
        let latency = if self.config.jitter > 0.0 {
            let factor = 1.0 + self.config.jitter * (rng.gen::<f64>() * 2.0 - 1.0);
            base.mul_f64(factor.max(0.0))
        } else {
            base
        };
        // A delivery must advance time to preserve causality even intra-site.
        Delivery::Deliver(SimDuration::from_micros(latency.as_micros().max(1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn sites() -> (SiteId, SiteId, SiteId) {
        (SiteId(0), SiteId(1), SiteId(2))
    }

    #[test]
    fn latency_matrix_lookup_and_fallback() {
        let (v, o, c) = sites();
        let mut m = LatencyMatrix::new(SimDuration::from_micros(250), SimDuration::from_millis(50));
        m.set_rtt(v, o, SimDuration::from_millis(90));
        assert_eq!(m.one_way(v, o), SimDuration::from_millis(45));
        assert_eq!(m.one_way(o, v), SimDuration::from_millis(45));
        assert_eq!(m.rtt(v, o), SimDuration::from_millis(90));
        // Unknown pair falls back to the default remote latency.
        assert_eq!(m.one_way(v, c), SimDuration::from_millis(50));
        // Same site uses the intra-site latency.
        assert_eq!(m.one_way(v, v), SimDuration::from_micros(250));
    }

    fn test_net(loss: f64) -> (Network, NodeId, NodeId) {
        let (v, o, _) = sites();
        let mut cfg = NetworkConfig::uniform(SimDuration::from_millis(1)).with_loss(loss);
        cfg.latency.set_rtt(v, o, SimDuration::from_millis(90));
        let mut net = Network::new(cfg);
        let a = NodeId(0);
        let b = NodeId(1);
        net.register_node(a, v);
        net.register_node(b, o);
        (net, a, b)
    }

    #[test]
    fn routing_uses_site_latency() {
        let (net, a, b) = test_net(0.0);
        let mut rng = StdRng::seed_from_u64(1);
        match net.route(a, b, &mut rng) {
            Delivery::Deliver(d) => assert_eq!(d, SimDuration::from_millis(45)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn down_nodes_and_partitions_drop_messages() {
        let (mut net, a, b) = test_net(0.0);
        let mut rng = StdRng::seed_from_u64(1);
        net.set_node_down(b);
        assert_eq!(
            net.route(a, b, &mut rng),
            Delivery::Drop(DropReason::DestinationDown)
        );
        net.set_node_up(b);
        net.set_site_down(net.site_of(a));
        assert_eq!(
            net.route(a, b, &mut rng),
            Delivery::Drop(DropReason::SourceDown)
        );
        net.set_site_up(net.site_of(a));
        net.partition(net.site_of(a), net.site_of(b));
        assert_eq!(
            net.route(a, b, &mut rng),
            Delivery::Drop(DropReason::Partitioned)
        );
        net.heal_all();
        assert!(matches!(net.route(a, b, &mut rng), Delivery::Deliver(_)));
    }

    #[test]
    fn total_loss_drops_everything_and_no_loss_drops_nothing() {
        let (net, a, b) = test_net(1.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            assert_eq!(
                net.route(a, b, &mut rng),
                Delivery::Drop(DropReason::RandomLoss)
            );
        }
        let (net, a, b) = test_net(0.0);
        for _ in 0..50 {
            assert!(matches!(net.route(a, b, &mut rng), Delivery::Deliver(_)));
        }
    }

    #[test]
    fn jitter_stays_within_bounds() {
        let (v, o, _) = sites();
        let mut cfg = NetworkConfig::uniform(SimDuration::from_millis(1)).with_jitter(0.2);
        cfg.latency.set_rtt(v, o, SimDuration::from_millis(100));
        let mut net = Network::new(cfg);
        let a = NodeId(0);
        let b = NodeId(1);
        net.register_node(a, v);
        net.register_node(b, o);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            if let Delivery::Deliver(d) = net.route(a, b, &mut rng) {
                let ms = d.as_millis_f64();
                assert!((40.0..=60.0).contains(&ms), "latency {ms}ms out of bounds");
            } else {
                panic!("should deliver");
            }
        }
    }
}
