//! Proposer configuration: protocol variant and tuning knobs.

/// Which commit protocol the Transaction Client runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommitProtocol {
    /// The basic Paxos commit protocol of §4: one transaction per log
    /// position, losers abort.
    BasicPaxos,
    /// Paxos-CP (§5): combination and promotion enabled.
    PaxosCp,
}

impl CommitProtocol {
    /// Short name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            CommitProtocol::BasicPaxos => "paxos",
            CommitProtocol::PaxosCp => "paxos-cp",
        }
    }

    /// Whether this protocol may combine or promote.
    pub fn is_cp(self) -> bool {
        matches!(self, CommitProtocol::PaxosCp)
    }
}

/// A proposer gives up on the whole commit after this many prepare/accept
/// rounds for a single position without a decision (a safety valve against
/// pathological message loss, generous enough never to trigger in normal
/// runs).
pub const MAX_ROUNDS_PER_POSITION: u32 = 64;

/// Configuration of a single commit attempt (one proposer run).
#[derive(Clone, Debug, PartialEq)]
pub struct ProposerConfig {
    /// Protocol variant.
    pub protocol: CommitProtocol,
    /// Number of replicas (datacenters) participating in the instance.
    pub num_replicas: usize,
    /// Maximum number of promotion attempts before giving up; `None` means
    /// unlimited (the setting used in the paper's evaluation).
    pub max_promotions: Option<u32>,
    /// Whether the combination enhancement is enabled (Paxos-CP only); the
    /// ablation harness turns it off to isolate promotion's contribution.
    pub combination_enabled: bool,
    /// Whether the leader-per-position fast path is attempted.
    pub fast_path: bool,
    /// How many times an incomplete fast round re-sends its accept to the
    /// replicas that have not answered, one [`crate::TimerKind::Resend`]
    /// apart, before it waits out the reply timeout. A fast round needs
    /// every replica's vote, so one accept lost to a crash or a partition
    /// that has since healed would otherwise hold the position for the
    /// whole timeout. 0, the default, never re-sends.
    pub fast_resends: u32,
}

impl ProposerConfig {
    /// Configuration for basic Paxos over `num_replicas` datacenters.
    pub fn basic(num_replicas: usize) -> Self {
        ProposerConfig {
            protocol: CommitProtocol::BasicPaxos,
            num_replicas,
            max_promotions: Some(0),
            combination_enabled: false,
            fast_path: true,
            fast_resends: 0,
        }
    }

    /// Configuration for Paxos-CP over `num_replicas` datacenters with
    /// unlimited promotions (the paper's evaluation setting).
    pub fn cp(num_replicas: usize) -> Self {
        ProposerConfig {
            protocol: CommitProtocol::PaxosCp,
            num_replicas,
            max_promotions: None,
            combination_enabled: true,
            fast_path: true,
            fast_resends: 0,
        }
    }

    /// The majority quorum size `⌊D/2⌋ + 1`.
    pub fn majority(&self) -> usize {
        self.num_replicas / 2 + 1
    }

    /// Builder-style override of the promotion cap.
    pub fn with_max_promotions(mut self, cap: Option<u32>) -> Self {
        self.max_promotions = cap;
        self
    }

    /// Builder-style override of the combination switch.
    pub fn with_combination(mut self, enabled: bool) -> Self {
        self.combination_enabled = enabled;
        self
    }

    /// Builder-style override of the fast path switch.
    pub fn with_fast_path(mut self, enabled: bool) -> Self {
        self.fast_path = enabled;
        self
    }

    /// Builder-style override of the fast-accept re-send count.
    pub fn with_fast_resends(mut self, resends: u32) -> Self {
        self.fast_resends = resends;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn majority_matches_paper_formula() {
        assert_eq!(ProposerConfig::basic(2).majority(), 2);
        assert_eq!(ProposerConfig::basic(3).majority(), 2);
        assert_eq!(ProposerConfig::basic(4).majority(), 3);
        assert_eq!(ProposerConfig::basic(5).majority(), 3);
    }

    #[test]
    fn presets_reflect_protocol() {
        let b = ProposerConfig::basic(3);
        assert_eq!(b.protocol, CommitProtocol::BasicPaxos);
        assert_eq!(b.max_promotions, Some(0));
        assert!(!b.combination_enabled);
        let cp = ProposerConfig::cp(3);
        assert!(cp.protocol.is_cp());
        assert_eq!(cp.max_promotions, None);
        assert!(cp.combination_enabled);
        assert_eq!(CommitProtocol::BasicPaxos.name(), "paxos");
        assert_eq!(CommitProtocol::PaxosCp.name(), "paxos-cp");
    }

    #[test]
    fn builder_overrides() {
        let cfg = ProposerConfig::cp(5)
            .with_max_promotions(Some(2))
            .with_combination(false)
            .with_fast_path(false);
        assert_eq!(cfg.max_promotions, Some(2));
        assert!(!cfg.combination_enabled);
        assert!(!cfg.fast_path);
    }
}
