//! Gossip applications built on the peer sampling service.
//!
//! The paper motivates the peer sampling service with the protocols that
//! consume it: epidemic information dissemination, aggregation, topology
//! management. This crate implements the two canonical consumers — SI push
//! broadcast (informed nodes keep pushing for the rest of the run; nobody
//! is ever removed) and push-pull averaging — as one application layer,
//! [`run_under_workload`], that rides any stack implementing
//! [`pss_sim::WorkloadTarget`]. Two [`Sampler`]s supply the gossip
//! partners:
//!
//! - [`Sampler::Overlay`] draws raw entries of each node's partial view,
//!   dead links included, so the cost of stale views is visible as
//!   `wasted` deliveries.
//! - [`Sampler::Oracle`] draws uniformly from the true live set — the ideal
//!   sampler all epidemic theory assumes.
//!
//! Both protocols denominate their headline metrics by the **live**
//! population: coverage is informed-live over live, variance is taken over
//! live values only, deliveries to dead ids count as `wasted`, and joiners
//! enter uninformed (broadcast) or at a configured default value
//! (aggregation).
//!
//! # Running under a membership schedule
//!
//! [`run_under_workload`] drives both protocols from a compiled
//! [`pss_sim::Workload`] schedule: the same churn/kill/flash/partition
//! trajectory that produces the overlay's `PeriodRecord`s also yields one
//! [`AppPeriodRow`] per period (delivery ratio, redundancy, wasted
//! traffic, variance decay), bit-identical across worker counts on the
//! sharded engines. A static overlay is the `quiet:` schedule. The same
//! schedule string also drives the loopback UDP cluster in `pss-net`,
//! whose runtime disseminates the same rumor with real app frames.
//!
//! # Metrics
//!
//! | metric | meaning |
//! |--------|---------|
//! | `delivery_ratio` | informed live nodes / live nodes |
//! | `rounds_to_99` | first period with coverage ≥ 99 % |
//! | `redundancy` | share of pushes landing on already-informed live nodes |
//! | `wasted` | pushes addressed to dead ids |
//! | `AppPeriodRow::variance` / `mean` | value variance and mean over live nodes |
//! | `decay_factor` | per-period variance decay, 0.0 on exact convergence |
//!
//! # Examples
//!
//! ```
//! use pss_core::{PolicyTriple, ProtocolConfig};
//! use pss_protocols::{run_under_workload, AppConfig};
//! use pss_sim::{scenario, Workload};
//!
//! let config = ProtocolConfig::new(PolicyTriple::newscast(), 15)?;
//! let mut sim = scenario::random_overlay(&config, 200, 9);
//! sim.run_cycles(10);
//!
//! let quiet = Workload::parse("quiet:20", 7).unwrap().compile(200);
//! let (records, report) = run_under_workload(&mut sim, &quiet, 15, &AppConfig::default());
//! assert_eq!(records.len(), 20);
//! assert!(report.delivery_ratio() > 0.95);
//! // Averaging only moves value between pairs: the live mean stays at 50.
//! let last = report.rows().last().unwrap();
//! assert!((last.mean - 50.0).abs() < 1e-9);
//! assert!(last.variance < report.initial_variance());
//! # Ok::<(), pss_core::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod workload;

pub use workload::{run_under_workload, AppConfig, AppPeriodRow, AppReport, Sampler};
