//! # peer-sampling
//!
//! A complete Rust implementation and experimental evaluation suite for the
//! **gossip-based peer sampling service**, reproducing
//!
//! > Márk Jelasity, Rachid Guerraoui, Anne-Marie Kermarrec, Maarten van
//! > Steen. *The Peer Sampling Service: Experimental Evaluation of
//! > Unstructured Gossip-Based Implementations.* Middleware 2004.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! * [`core`] ([`pss_core`]) — the protocol framework: partial views, the
//!   `(peer selection, view selection, view propagation)` policy space, the
//!   Figure-1 state machine, and the `init`/`get_peer` service API.
//! * [`sim`] ([`pss_sim`]) — cycle-driven (paper model) and event-driven
//!   simulators, both sharded across worker threads with a shared
//!   deterministic mailbox skeleton; bootstrap scenarios, failure
//!   injection, workload schedules.
//! * [`net`] ([`pss_net`]) — the network layer: the versioned wire codec
//!   ([`pss_core::wire`]), UDP and deterministic in-memory transports, the
//!   multi-node [`pss_net::NetRuntime`], and the loopback cluster harness.
//! * [`graph`] ([`pss_graph`]) — overlay graph analysis: components, path
//!   lengths, clustering, degree distributions, generators.
//! * [`stats`] ([`pss_stats`]) — summaries, autocorrelation, degree
//!   distributions, time series.
//! * [`protocols`] ([`pss_protocols`]) — epidemic broadcast and gossip
//!   averaging running on the sampling service.
//!
//! The most common types are re-exported at the crate root.
//!
//! # Quickstart
//!
//! Build a 1000-node Newscast overlay, converge it, and inspect it:
//!
//! ```
//! use peer_sampling::{scenario, PolicyTriple, ProtocolConfig};
//!
//! let config = ProtocolConfig::new(PolicyTriple::newscast(), 30)?;
//! let mut sim = scenario::random_overlay(&config, 1000, 42);
//! sim.run_cycles(30);
//!
//! let graph = sim.csr_snapshot().graph().undirected();
//! let components = peer_sampling::graph::components::connected_components(&graph);
//! assert!(components.is_connected());
//! assert!(graph.average_degree() >= 30.0);
//! # Ok::<(), peer_sampling::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pss_core as core;
pub use pss_graph as graph;
pub use pss_net as net;
pub use pss_protocols as protocols;
pub use pss_sim as sim;
pub use pss_stats as stats;

pub use pss_core::{
    ConfigError, GossipNode, NodeDescriptor, NodeId, OracleSampler, PeerSampler, PeerSamplingNode,
    PeerSelection, PolicyTriple, ProtocolConfig, View, ViewPropagation, ViewSelection,
};
pub use pss_sim::{scenario, EventConfig, ShardedEventSimulation, ShardedSimulation, Workload};
