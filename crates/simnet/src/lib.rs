//! # simnet — deterministic discrete-event simulation kernel
//!
//! The paper evaluates its protocols on Amazon EC2 nodes spread over three
//! regions (Virginia, Oregon, Northern California) communicating over UDP
//! with a two-second message timeout. This crate replaces that physical
//! testbed with a deterministic discrete-event simulator:
//!
//! * **Virtual time** ([`SimTime`], [`SimDuration`]) measured in
//!   microseconds. Experiments that take minutes of wall-clock time on EC2
//!   run in milliseconds here, with identical message orderings for a given
//!   seed.
//! * **Actors** ([`Actor`]) are protocol participants (transaction services,
//!   transaction clients, workload drivers). They react to delivered
//!   messages and timer expirations and emit new messages/timers through a
//!   [`Context`].
//! * **Network model** ([`Network`], [`LatencyMatrix`]) with per-site-pair
//!   round-trip latencies, jitter, independent message loss, partitions and
//!   site outages — exactly the failure model assumed in §2.2 of the paper
//!   ("either the message arrives before a known timeout or it is lost").
//!
//! The kernel is generic over the message type `M`, so protocol crates define
//! their own strongly-typed message enums.
//!
//! One event engine ([`Simulation`]) serves both runtimes. The
//! single-threaded simulation steps it on virtual time; the multi-threaded
//! [`ParallelRuntime`] gives each worker thread its own engine holding that
//! worker's actors and steps it on the wall clock, carrying deliveries for
//! other workers' nodes to per-worker inboxes. Either way every message is
//! routed by the same network model, chaos policies included.
//!
//! ## Example
//!
//! ```
//! use simnet::{Actor, Context, NodeId, SimDuration, Simulation, NetworkConfig};
//!
//! #[derive(Clone, Debug)]
//! enum Msg { Ping, Pong }
//!
//! struct Pinger { target: NodeId, pongs: u32 }
//! struct Ponger;
//!
//! impl Actor<Msg> for Pinger {
//!     fn on_start(&mut self, ctx: &mut Context<Msg>) {
//!         ctx.send(self.target, Msg::Ping);
//!     }
//!     fn on_message(&mut self, ctx: &mut Context<Msg>, _from: NodeId, msg: Msg) {
//!         if matches!(msg, Msg::Pong) {
//!             self.pongs += 1;
//!             if self.pongs < 3 {
//!                 ctx.send(self.target, Msg::Ping);
//!             }
//!         }
//!     }
//! }
//!
//! impl Actor<Msg> for Ponger {
//!     fn on_message(&mut self, ctx: &mut Context<Msg>, from: NodeId, msg: Msg) {
//!         if matches!(msg, Msg::Ping) {
//!             ctx.send(from, Msg::Pong);
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(NetworkConfig::uniform(SimDuration::from_millis(10)), 42);
//! let site = sim.add_site("dc1");
//! let ponger = sim.add_node(site, Box::new(Ponger));
//! let _pinger = sim.add_node(site, Box::new(Pinger { target: ponger, pongs: 0 }));
//! sim.run_until_idle();
//! assert!(sim.now() >= SimDuration::from_millis(60).after(simnet::SimTime::ZERO));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod actor;
mod chaos;
mod network;
mod parallel;
mod sim;
mod stats;
mod time;

pub use actor::{Action, Actor, Context, TimerId};
pub use chaos::{ChaosEvent, ChaosSchedule, ChaosSpec};
pub use network::{ChaosConfig, LatencyMatrix, Network, NetworkConfig, SiteId};
pub use parallel::{ParallelReport, ParallelRuntime};
pub use sim::{NodeId, Simulation};
pub use stats::NetStats;
pub use time::{SimDuration, SimTime};
