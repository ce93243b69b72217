//! **Extension:** the network layer — the protocol stack on real sockets.
//!
//! The paper positions peer sampling as a deployed *service* that
//! applications call over a network; everything else in this workspace
//! drives the protocol in-process. This crate carries the same
//! [`pss_core::GossipNode`] state machines over real messages:
//!
//! * [`Transport`] — a minimal framed-datagram abstraction: send a frame to
//!   a [`NetAddr`], poll received frames, optionally advance
//!   transport-virtual time.
//! * [`UdpTransport`] — one UDP socket per runtime, many virtual nodes
//!   multiplexed by node id; the socket is non-blocking and read on the
//!   runtime's own thread at each tick's drain.
//! * [`MemTransport`] / [`MemNetwork`] — a deterministic, seeded in-memory
//!   mesh with per-message latency and loss mirroring the event engine's
//!   [`pss_sim::EventConfig`] semantics, so runtime behavior can be pinned
//!   statistically against the 1-shard [`pss_sim::ShardedEventSimulation`]
//!   (the differential tests do exactly that). Frame buffers circulate:
//!   swapped, not copied, and reused.
//! * [`NetRuntime`] — hosts many gossip nodes on one OS thread: a timer
//!   queue fires each node's active cycle with jitter, incoming frames are
//!   decoded straight into arena-recycled message buffers
//!   ([`pss_core::wire`]), an address book maps node ids to transport
//!   addresses (learned from bootstrap introducers and from every received
//!   descriptor; keyed cheap hashing, written only when an address
//!   changes), and one runtime-wide ledger ([`RuntimeStats`]) counts
//!   frames, decode failures, reply timeouts and backoffs.
//! * [`cluster`] — the cluster harness: N nodes across K runtimes on one
//!   thread, UDP or mem — loopback sockets on the wall clock
//!   ([`cluster::run`]) or the in-memory mesh in virtual time
//!   ([`cluster::run_mem`]) — driven as one more
//!   [`pss_sim::workload::WorkloadTarget`] by the simulators' workload
//!   driver: a bootstrap-only run or any [`pss_sim::workload`] schedule
//!   (churn, catastrophe, flash crowds, partition/heal, adversaries), so
//!   its per-period records come from the same streamed pass over view
//!   rows as every other stack's.
//!
//! # Quickstart
//!
//! Two runtimes talking UDP on loopback:
//!
//! ```no_run
//! use pss_core::{NodeId, PeerSamplingNode, PolicyTriple, ProtocolConfig};
//! use pss_net::{NetConfig, NetRuntime, UdpTransport};
//!
//! let protocol = ProtocolConfig::new(PolicyTriple::newscast(), 8)?;
//! let config = NetConfig { period: 100, jitter: 20 };
//! let a = UdpTransport::bind("127.0.0.1:0")?;
//! let b = UdpTransport::bind("127.0.0.1:0")?;
//! let (addr_a, addr_b) = (a.net_addr(), b.net_addr());
//!
//! let mut ra = NetRuntime::new(a, config, 1)?;
//! let mut rb = NetRuntime::new(b, config, 2)?;
//! let n0 = PeerSamplingNode::with_seed(NodeId::new(0), protocol.clone(), 10);
//! let n1 = PeerSamplingNode::with_seed(NodeId::new(1), protocol, 11);
//! ra.add_node(n0, &[(NodeId::new(1), addr_b)]);
//! rb.add_node(n1, &[(NodeId::new(0), addr_a)]);
//!
//! // Drive both runtimes for ~5 periods of wall time (1 tick = 1 ms).
//! let start = std::time::Instant::now();
//! while start.elapsed().as_millis() < 500 {
//!     let now = start.elapsed().as_millis() as u64;
//!     ra.run_until(now);
//!     rb.run_until(now);
//!     std::thread::sleep(std::time::Duration::from_millis(1));
//! }
//! assert!(ra.view_of(NodeId::new(0)).unwrap().contains(NodeId::new(1)));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod mem;
mod runtime;
mod transport;
mod udp;

pub mod cluster;

pub use mem::{MemNetwork, MemTransport};
pub use pss_core::wire::NetAddr;
pub use runtime::{NetConfig, NetRuntime, RuntimeStats};
pub use transport::Transport;
pub use udp::UdpTransport;
