//! Generic gossip-based peer sampling framework.
//!
//! This crate implements the protocol framework of *Jelasity, Guerraoui,
//! Kermarrec, van Steen: The Peer Sampling Service — Experimental Evaluation
//! of Unstructured Gossip-Based Implementations* (Middleware 2004).
//!
//! Every node maintains a **partial view**: a hop-count-ordered list of at
//! most `c` [`NodeDescriptor`]s. Periodically, a node selects a peer from its
//! view and they exchange (parts of) their views; each node merges what it
//! received, keeps the freshest descriptor per node, and truncates back to
//! `c` entries. The framework is parameterized along three dimensions, the
//! paper's [`PolicyTriple`]:
//!
//! * [`PeerSelection`] — which view entry to gossip with (`rand`/`head`/`tail`),
//! * [`ViewSelection`] — which entries survive truncation (`rand`/`head`/`tail`),
//! * [`ViewPropagation`] — symmetry of the exchange (`push`/`pull`/`pushpull`).
//!
//! Known protocols are instances: Lpbcast is `(rand,rand,push)` and Newscast
//! is `(rand,head,pushpull)`.
//!
//! The protocol skeleton (the paper's Figure 1) is exposed as a transport-
//! agnostic state machine, [`PeerSamplingNode`]: `initiate` produces a
//! request for a chosen peer, `handle_request` consumes a request and
//! optionally produces a reply, `handle_reply` consumes a reply. A driver —
//! the cycle simulator in `pss-sim`, an event-driven engine, or a real
//! network — moves the messages.
//!
//! The service API of the paper (Section 2: `init()` and `getPeer()`) is the
//! [`PeerSampler`] trait; [`OracleSampler`] is the ideal uniform-random
//! implementation used as the evaluation baseline.
//!
//! # Examples
//!
//! Two nodes bootstrapping off each other and gossiping one exchange. The
//! driver owns the staging [`Arena`] and lends it to every protocol call:
//!
//! ```
//! use pss_core::{
//!     Arena, GossipNode, NodeDescriptor, NodeId, PeerSamplingNode, PolicyTriple, ProtocolConfig,
//! };
//!
//! let config = ProtocolConfig::new(PolicyTriple::newscast(), 30)?;
//! let mut arena = Arena::new();
//! let mut a = PeerSamplingNode::with_seed(NodeId::new(0), config.clone(), 1);
//! let mut b = PeerSamplingNode::with_seed(NodeId::new(1), config, 2);
//! a.init([NodeDescriptor::fresh(b.id())]);
//! b.init([NodeDescriptor::fresh(a.id())]);
//!
//! let exchange = a.initiate(&mut arena).expect("non-empty view");
//! assert_eq!(exchange.peer, b.id());
//! let reply = b
//!     .handle_request(&mut arena, a.id(), exchange.request)
//!     .expect("pushpull replies");
//! a.handle_reply(&mut arena, b.id(), reply);
//! # Ok::<(), pss_core::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod descriptor;
mod id;
mod message;
mod node;
mod policy;
mod service;

pub mod adversary;
pub mod hs;
pub mod staging;
pub mod view;
pub mod wire;

pub use config::{ConfigError, ProtocolConfig};
pub use descriptor::NodeDescriptor;
pub use id::{IdHashBuilder, IdHasher, NodeId};
pub use message::{Exchange, Reply, Request};
pub use node::{GossipNode, PeerSamplingNode};
pub use policy::{
    Freshness, ParsePolicyError, PeerSelection, PolicyTriple, ViewPropagation, ViewSelection,
};
pub use service::{OracleSampler, PeerSampler};
pub use staging::Arena;
pub use view::{MergeScratch, View};
