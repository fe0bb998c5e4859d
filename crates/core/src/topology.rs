//! Datacenter topology: regions and the wide-area latencies measured in the
//! paper's evaluation (§6).
//!
//! The paper deploys replicas on EC2 `c1.medium` instances in three Virginia
//! availability zones, Oregon and Northern California, and reports:
//!
//! * Virginia ↔ Virginia (distinct AZs): ≈ 1.5 ms round trip,
//! * Virginia ↔ Oregon and Virginia ↔ California: ≈ 90 ms round trip,
//! * Oregon ↔ California: ≈ 20 ms round trip,
//! * message-loss detection timeout: 2 s.
//!
//! Clusters in the figures are named by the first letter of each replica's
//! region — `VV`, `OV`, `VVV`, `COV`, `VVVO`, `VVVOC` — and this module can
//! parse those names directly.

use simnet::{LatencyMatrix, NetworkConfig, SimDuration, SiteId};
use std::fmt;

/// Geographic region a datacenter lives in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Region {
    /// US-East (the paper uses three distinct availability zones here).
    Virginia,
    /// US-West-2.
    Oregon,
    /// US-West-1 (Northern California).
    California,
}

impl Region {
    /// The single-letter code used in the paper's cluster names.
    pub fn code(self) -> char {
        match self {
            Region::Virginia => 'V',
            Region::Oregon => 'O',
            Region::California => 'C',
        }
    }

    /// Parse a single-letter region code.
    pub fn from_code(c: char) -> Option<Region> {
        match c.to_ascii_uppercase() {
            'V' => Some(Region::Virginia),
            'O' => Some(Region::Oregon),
            'C' => Some(Region::California),
            _ => None,
        }
    }

    /// Round-trip latency between two regions, per the paper's measurements.
    /// Two datacenters in the same region are assumed to be distinct
    /// availability zones (the Virginia figure is used for all of them).
    pub fn rtt_to(self, other: Region) -> SimDuration {
        use Region::*;
        match (self, other) {
            (Virginia, Virginia) | (Oregon, Oregon) | (California, California) => {
                SimDuration::from_millis_f64(1.5)
            }
            (Oregon, California) | (California, Oregon) => SimDuration::from_millis(20),
            // Everything involving Virginia and the west coast.
            _ => SimDuration::from_millis(90),
        }
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Region::Virginia => "virginia",
            Region::Oregon => "oregon",
            Region::California => "california",
        };
        write!(f, "{name}")
    }
}

/// A cluster layout: one entry per datacenter (replica).
#[derive(Clone, Debug, PartialEq)]
pub struct Topology {
    datacenters: Vec<Region>,
    /// Probability that any individual message is lost.
    pub loss_probability: f64,
    /// Multiplicative latency jitter fraction.
    pub jitter: f64,
    /// The paper's message-loss detection timeout.
    pub message_timeout: SimDuration,
}

impl Topology {
    /// Build a topology from an ordered list of datacenter regions.
    pub fn new(datacenters: Vec<Region>) -> Self {
        assert!(
            !datacenters.is_empty(),
            "a cluster needs at least one datacenter"
        );
        Topology {
            datacenters,
            loss_probability: 0.0,
            jitter: 0.05,
            message_timeout: SimDuration::from_secs(2),
        }
    }

    /// Parse a paper-style cluster name such as `"VVV"` or `"COV"`.
    pub fn from_name(name: &str) -> Option<Self> {
        let regions: Option<Vec<Region>> = name.chars().map(Region::from_code).collect();
        regions.filter(|r| !r.is_empty()).map(Topology::new)
    }

    /// The paper's default three-replica cluster (three Virginia AZs).
    pub fn vvv() -> Self {
        Topology::new(vec![Region::Virginia; 3])
    }

    /// The geo-distributed three-replica cluster (California, Oregon,
    /// Virginia) used in Figure 8.
    pub fn voc() -> Self {
        Topology::new(vec![Region::Virginia, Region::Oregon, Region::California])
    }

    /// Builder-style: set the message loss probability.
    pub fn with_loss(mut self, p: f64) -> Self {
        self.loss_probability = p;
        self
    }

    /// Builder-style: set the latency jitter fraction.
    pub fn with_jitter(mut self, jitter: f64) -> Self {
        self.jitter = jitter;
        self
    }

    /// Number of datacenters (replicas).
    pub fn num_datacenters(&self) -> usize {
        self.datacenters.len()
    }

    /// The regions, in replica order.
    pub fn regions(&self) -> &[Region] {
        &self.datacenters
    }

    /// The paper-style name of the cluster (e.g. `"VVV"`).
    pub fn name(&self) -> String {
        self.datacenters.iter().map(|r| r.code()).collect()
    }

    /// The simulator's network of `shards` copies of this topology side by
    /// side: one site per (shard, datacenter) pair, numbered shard by
    /// shard, filled with per-pair one-way latencies (half the region RTT;
    /// intra-datacenter hops take 0.25 ms), every latency scaled by
    /// `rtt_scale` (at least 1 µs). One unscaled shard is the simulation's
    /// network. Latencies between shards follow the same region-to-region
    /// RTTs as within a shard — two shards' Virginia sites are two machines
    /// in the same region, not one machine.
    pub fn sharded_network_config(&self, shards: usize, rtt_scale: f64) -> NetworkConfig {
        let scale = |d: SimDuration| {
            SimDuration::from_micros(((d.as_micros() as f64 * rtt_scale) as u64).max(1))
        };
        let mut latency = LatencyMatrix::new(
            scale(SimDuration::from_micros(250)),
            scale(SimDuration::from_millis(45)),
        );
        let d = self.datacenters.len();
        let sites = shards * d;
        for i in 0..sites {
            for j in (i + 1)..sites {
                let rtt = self.datacenters[i % d].rtt_to(self.datacenters[j % d]);
                latency.set_rtt(SiteId(i as u32), SiteId(j as u32), scale(rtt));
            }
        }
        NetworkConfig {
            latency,
            loss_probability: self.loss_probability,
            jitter: self.jitter,
            chaos: simnet::ChaosConfig::default(),
        }
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_codes_round_trip() {
        for r in [Region::Virginia, Region::Oregon, Region::California] {
            assert_eq!(Region::from_code(r.code()), Some(r));
        }
        assert_eq!(Region::from_code('x'), None);
        assert_eq!(Region::from_code('v'), Some(Region::Virginia));
    }

    #[test]
    fn rtts_match_the_paper() {
        assert_eq!(
            Region::Virginia.rtt_to(Region::Virginia),
            SimDuration::from_millis_f64(1.5)
        );
        assert_eq!(
            Region::Virginia.rtt_to(Region::Oregon),
            SimDuration::from_millis(90)
        );
        assert_eq!(
            Region::California.rtt_to(Region::Virginia),
            SimDuration::from_millis(90)
        );
        assert_eq!(
            Region::Oregon.rtt_to(Region::California),
            SimDuration::from_millis(20)
        );
    }

    #[test]
    fn cluster_names_parse_and_print() {
        let t = Topology::from_name("COV").unwrap();
        assert_eq!(
            t.regions(),
            &[Region::California, Region::Oregon, Region::Virginia]
        );
        assert_eq!(t.name(), "COV");
        assert_eq!(Topology::vvv().name(), "VVV");
        assert_eq!(Topology::vvv().num_datacenters(), 3);
        assert!(Topology::from_name("").is_none());
        assert!(Topology::from_name("VXZ").is_none());
    }

    #[test]
    fn network_config_uses_region_rtts() {
        let t = Topology::from_name("VO").unwrap();
        let cfg = t.sharded_network_config(1, 1.0);
        assert_eq!(
            cfg.latency.one_way(simnet::SiteId(0), simnet::SiteId(1)),
            SimDuration::from_millis(45)
        );
        assert_eq!(
            cfg.latency.one_way(simnet::SiteId(0), simnet::SiteId(0)),
            SimDuration::from_micros(250)
        );
        let t = Topology::vvv().with_loss(0.1).with_jitter(0.2);
        let cfg = t.sharded_network_config(1, 1.0);
        assert!((cfg.loss_probability - 0.1).abs() < 1e-12);
        assert!((cfg.jitter - 0.2).abs() < 1e-12);
    }

    /// One shard at scale 1.0 is the unsharded topology: every site pair,
    /// and the fallback past the last site, reads the latency the
    /// pairwise region RTTs give.
    #[test]
    fn one_unscaled_shard_builds_the_plain_matrix() {
        for name in ["VVV", "VOC", "VVVOC", "OV"] {
            let topology = Topology::from_name(name).unwrap();
            let cfg = topology.sharded_network_config(1, 1.0);
            let sites = topology.num_datacenters() as u32;
            for a in 0..=sites {
                for b in 0..=sites {
                    let expected = match (a.min(b), a.max(b)) {
                        (a, b) if a == b => SimDuration::from_micros(250),
                        (_, b) if b == sites => SimDuration::from_millis(45),
                        (a, b) => SimDuration::from_micros(
                            topology.regions()[a as usize]
                                .rtt_to(topology.regions()[b as usize])
                                .as_micros()
                                / 2,
                        ),
                    };
                    assert_eq!(
                        cfg.latency.one_way(SiteId(a), SiteId(b)),
                        expected,
                        "{name}: sites {a} and {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn scaled_network_keeps_region_shape() {
        let net = Topology::from_name("VOC")
            .unwrap()
            .sharded_network_config(2, 0.1);
        // Within shard 0: Virginia (site 0) to Oregon (site 1) is a 90 ms
        // RTT scaled to 9 ms, i.e. 4.5 ms one way.
        assert_eq!(
            net.latency.one_way(SiteId(0), SiteId(1)),
            SimDuration::from_micros(4_500)
        );
        // Across shards, same region (Virginia of shard 0 and of shard 1):
        // the intra-region 1.5 ms RTT scaled to 150 us, 75 us one way.
        assert_eq!(
            net.latency.one_way(SiteId(0), SiteId(3)),
            SimDuration::from_micros(75)
        );
    }

    #[test]
    fn default_timeout_is_two_seconds() {
        assert_eq!(Topology::vvv().message_timeout, SimDuration::from_secs(2));
    }
}
