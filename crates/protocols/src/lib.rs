//! Gossip applications built on the peer sampling service.
//!
//! The paper motivates the peer sampling service with the protocols that
//! consume it: epidemic information dissemination, aggregation, topology
//! management. This crate implements the two canonical consumers —
//! [`broadcast`] (SIR-style rumor spreading) and [`aggregation`] (push-pull
//! averaging) — as *liveness-aware* clients of any sampler:
//!
//! - [`EngineSampleSource`] runs them on either engine ([`pss_sim::Sharded`]
//!   under the cycle or the event [`pss_sim::Mode`], at any shard count),
//!   sampling only live peers from each node's view.
//! - [`SimSampleSource`] hands out raw view entries of the cycle engine,
//!   dead links included, so the cost of stale views is visible as
//!   `wasted` deliveries.
//! - [`OracleSource`] is the ideal uniform sampler all epidemic theory
//!   assumes. *Caveat:* the oracle covers a fixed id range `0..n`; askers
//!   outside that range (late joiners) are served uniformly from the whole
//!   group — an earlier version silently clipped id `n-1` from their
//!   support, biasing every "ideal baseline" number measured under churn.
//!
//! Both protocols denominate their headline metrics by the **live**
//! population: coverage is informed-live over live, variance is taken over
//! live values only, deliveries to dead ids count as `wasted`, and joiners
//! enter uninformed (broadcast) or at a configured default value
//! (aggregation).
//!
//! # Running under a membership schedule
//!
//! [`workload::run_under_workload`] drives both protocols from a compiled
//! [`pss_sim::Workload`] schedule: the same churn/kill/flash/partition
//! trajectory that produces the overlay's `PeriodRecord`s also yields one
//! [`workload::AppPeriodRow`] per period (delivery ratio, redundancy,
//! wasted traffic, variance decay), bit-identical across worker counts on
//! the sharded engines. The same schedule string also drives the loopback
//! UDP cluster in `pss-net`, whose runtime disseminates the same rumor with
//! real app frames.
//!
//! # Metrics
//!
//! | metric | meaning |
//! |--------|---------|
//! | `coverage` / `delivery_ratio` | informed live nodes / live nodes |
//! | `rounds_to_reach(f)` / `rounds_to_99` | first round with coverage ≥ f |
//! | `redundant` | pushes landing on already-informed live nodes |
//! | `wasted` | pushes/exchanges addressed to dead ids |
//! | `variance_per_round` | value variance over live nodes |
//! | `decay_factor` | per-round variance decay, 0.0 on exact convergence |
//!
//! # Examples
//!
//! ```
//! use pss_core::{PolicyTriple, ProtocolConfig};
//! use pss_protocols::{broadcast, EngineSampleSource};
//! use pss_sim::scenario;
//!
//! let config = ProtocolConfig::new(PolicyTriple::newscast(), 15)?;
//! let mut sim = scenario::random_overlay(&config, 200, 9);
//! sim.run_cycles(10);
//! sim.kill_random(50);
//!
//! let origin = sim.alive_ids()[0];
//! let mut source = EngineSampleSource::new(&mut sim, 7);
//! let report = broadcast::run(
//!     &mut source,
//!     200,
//!     origin,
//!     &broadcast::BroadcastConfig::default(),
//! );
//! // Coverage is a fraction of the 150 live nodes, not the 200 ids.
//! assert!(report.coverage() > 0.95);
//! # Ok::<(), pss_core::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregation;
pub mod broadcast;
pub mod workload;

mod source;

pub use source::{EngineSampleSource, OracleSource, SampleSource, SimSampleSource};
pub use workload::{run_under_workload, AppConfig, AppPeriodRow, AppReport, Sampler};
