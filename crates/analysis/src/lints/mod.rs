//! The lint suite. Each lint is a pure function from [`Workspace`] to
//! findings; waiver handling and reporting live in [`crate::findings`].

use crate::findings::Finding;
use crate::source::Workspace;

pub mod ballot;
pub mod determinism;
pub mod exhaustiveness;
pub mod metrics;
pub mod persist;
pub mod timer_refire;

/// Lint name: hidden entropy in simnet-reachable crates.
pub const DETERMINISM: &str = "determinism";
/// Lint name: every constructed message variant must have a handler arm.
pub const MSG_EXHAUSTIVENESS: &str = "msg-exhaustiveness";
/// Lint name: every timer tag namespace must be re-armed on recovery.
pub const TIMER_REFIRE: &str = "timer-refire";
/// Lint name: every `RunMetrics` field must reach the JSON export and docs.
pub const METRICS_COMPLETENESS: &str = "metrics-completeness";
/// Lint name: ballot proposer comparisons must mask the recovery bit.
pub const BALLOT_DISCIPLINE: &str = "ballot-discipline";
/// Lint name: acceptor replies must be preceded by a persist call and wait
/// for the sync that covers it.
pub const PERSIST_BEFORE_ACK: &str = "persist-before-ack";

/// A registered lint: name, one-line description, and entry point.
pub struct Lint {
    /// Stable name used in findings and `lint:allow(...)` waivers.
    pub name: &'static str,
    /// One-line description for `--list`.
    pub describe: &'static str,
    /// The check itself.
    pub run: fn(&Workspace) -> Vec<Finding>,
}

/// Every lint in the suite, in execution order.
pub const LINTS: [Lint; 6] = [
    Lint {
        name: DETERMINISM,
        describe: "no wall-clock time, unseeded RNG, or hash-ordered iteration in simnet-reachable crates",
        run: determinism::run,
    },
    Lint {
        name: MSG_EXHAUSTIVENESS,
        describe: "every constructed Msg/PaxosMsg variant has a handler match arm outside its declaring file",
        run: exhaustiveness::run,
    },
    Lint {
        name: TIMER_REFIRE,
        describe: "every timer tag namespace an actor sets is re-armed by its recovery path",
        run: timer_refire::run,
    },
    Lint {
        name: METRICS_COMPLETENESS,
        describe: "every RunMetrics field reaches the JSON export and the documented schema",
        run: metrics::run,
    },
    Lint {
        name: BALLOT_DISCIPLINE,
        describe: "ballot proposer equality comparisons mask RECOVERY_BALLOT_BIT",
        run: ballot::run,
    },
    Lint {
        name: PERSIST_BEFORE_ACK,
        describe: "PaxosMsg::PrepareReply/AcceptReply need a prior persist*() call in the same handler and leave through the release path, not ctx.send",
        run: persist::run,
    },
];
