//! # paxos — the commit protocols of the paper
//!
//! One Synod (single-decree Paxos) instance decides the value of each
//! write-ahead-log position. This crate implements both sides of that
//! protocol exactly as given in the paper:
//!
//! * the **acceptor** role of the Transaction Service (Algorithm 1), whose
//!   entire state lives in the local key-value store — as one typed table
//!   whose lock makes each update atomic, the role `checkAndWrite` plays in
//!   the paper — keeping the service itself stateless;
//! * the **proposer** role of the Transaction Client (Algorithm 2), as a
//!   driver-agnostic state machine that consumes replies/timeouts and emits
//!   messages/timer requests;
//! * the value-selection rules: `findWinningVal` for basic Paxos and
//!   `enhancedFindWinningVal` for **Paxos-CP**, whose *combination* and
//!   *promotion* enhancements provide true concurrency control (§5);
//! * the leader-per-log-position fast path that skips the prepare phase for
//!   the first, uncontended proposer (§4.1, "Paxos Optimizations").
//!
//! The crate is deliberately independent of the simulator: the state
//! machines speak in terms of [`ReplicaId`]s, abstract messages and timer
//! requests, and the `mdstore` crate binds them to simulated datacenters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod acceptor;
mod ballot;
mod config;
mod msg;
mod proposer;
mod selector;

pub use acceptor::{AcceptorStore, PrepareOutcome};
pub use ballot::Ballot;
pub use config::{CommitProtocol, ProposerConfig, MAX_ROUNDS_PER_POSITION};
pub use msg::{PaxosMsg, ReplicaId};
pub use proposer::{
    quorum_for_ballot, AbortReason, CommitOutcome, Proposer, ProposerAction, ProposerEvent,
    TimerKind,
};
pub use selector::{enhanced_find_winning_val, find_winning_val, ValueChoice, Vote};
