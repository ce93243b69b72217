//! Simulators for gossip-based peer sampling protocols.
//!
//! Two engines over one sharded node population ([`ShardedSimulation`] and
//! [`ShardedEventSimulation`] are the same struct, [`Sharded`], under two
//! execution [`Mode`]s, so joins, kills, views and snapshots are one API
//! and a function generic over the mode drives either), with the **shard
//! count** as the one parameter that picks between sequential and parallel
//! execution:
//!
//! * [`ShardedSimulation`] — the **cycle-driven** model the paper's
//!   experiments use: in every cycle each live node initiates exactly one
//!   exchange with a live peer of its view, in a fresh random order, and
//!   no exchange is lost (dead links stay in views; the protocol heals
//!   only through view selection). With one shard every exchange completes
//!   inline and atomically — the paper's sequential model, which
//!   [`scenario::random_overlay`] and the figure experiments build. With
//!   more, nodes are partitioned across worker threads for large
//!   populations (N = 10⁶ and beyond), cross-shard exchanges flow through
//!   fixed-order mailboxes, and results are bit-identical for a given
//!   `(seed, shard_count)` regardless of the worker-thread count.
//! * [`ShardedEventSimulation`] — a **discrete-event** engine with per-node
//!   timer jitter, message latency and message loss. This goes beyond the
//!   paper's model and is used for the asynchrony-robustness extension
//!   experiments. With more than one shard the event queues run
//!   shard-parallel under a conservative lookahead window equal to the
//!   minimum latency, with the same determinism contract as the cycle
//!   engine.
//!
//! Scenario constructors ([`scenario`]) reproduce the paper's three
//! bootstrap regimes — growing overlay, ring lattice, uniform random. A
//! per-cycle figure runs [`Sharded::run_cycle`] in its own loop and reads
//! its value — a [`CsrSnapshot`] metric or [`Sharded::dead_link_count`] —
//! after each cycle. [`workload`] declares seed-deterministic
//! membership-dynamics schedules (churn, catastrophic failure, flash
//! crowds, partition/heal, Byzantine adversary placement) that compile to
//! concrete per-period operations and run identically on every engine and
//! on the deployed `pss-net` cluster — whatever implements
//! [`WorkloadTarget`], the one trait a driver sees; [`audit`] layers attack
//! observables (in-degree capture, victim isolation, chi-square
//! randomness) on attacked runs.
//!
//! # Examples
//!
//! Converging a 500-node Newscast overlay from a random start:
//!
//! ```
//! use pss_core::{PolicyTriple, ProtocolConfig};
//! use pss_sim::scenario;
//!
//! let config = ProtocolConfig::new(PolicyTriple::newscast(), 30)?;
//! let mut sim = scenario::random_overlay(&config, 500, 42);
//! sim.run_cycles(20);
//! let graph = sim.csr_snapshot().graph().undirected();
//! assert!(pss_graph::components::connected_components(&graph).is_connected());
//! # Ok::<(), pss_core::ConfigError>(())
//! ```

// `deny` (not `forbid`) so the two places that need `unsafe` can opt in
// locally with documented invariants: the persistent worker pool
// (`pool.rs`) and the cache-prefetch hint (`exec::prefetch`, re-exported as
// `pss_sim::prefetch` for `pss-net`'s runtime, which forbids `unsafe`). A
// CI step fails on an opt-in anywhere else.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod cycle;
mod event;
mod exec;
mod pool;
mod population;
mod queue;
mod shard;
mod snapshot;
mod telemetry;

pub mod audit;
pub mod scenario;
pub mod workload;

pub use cycle::{CycleReport, GrowthPlan, ShardedSimulation};
pub use event::{
    Delivery, EventConfig, EventConfigError, EventReport, LatencyModel, ShardedEventSimulation,
};
pub use exec::{mix, planned_range, prefetch};
pub use population::BoxedNode;
pub use queue::TickQueue;
pub use shard::{Mode, Sharded};
pub use snapshot::{CsrSnapshot, StreamingMetrics};
pub use workload::{Partition, RateAccumulator, Workload, WorkloadTarget};
