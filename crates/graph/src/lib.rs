//! Graph analysis toolkit for gossip overlay topologies.
//!
//! The Middleware 2004 peer-sampling paper evaluates protocols exclusively
//! through the *communication graph* induced by the partial views: a directed
//! edge `(a, b)` exists when node `a` holds a descriptor of node `b`. All
//! published properties are measured on the **undirected** version of that
//! graph. This crate provides:
//!
//! * [`csr::Csr`] — the one graph type: the directed view graph a snapshot
//!   builds, and the undirected communication graph
//!   [`Csr::undirected`](csr::Csr::undirected) derives from it.
//! * [`components`] — connected components and partitioning reports
//!   (Table 1, Figure 6).
//! * [`paths`] — BFS distances, exact and sampled average path length
//!   (Figures 2c, 3a, 3b).
//! * [`clustering`] — exact and sampled clustering coefficient
//!   (Figures 2a, 3c, 3d).
//! * [`metrics`] — one-call snapshot of all observed properties.
//! * [`gen`] — the paper's uniform-view random baseline, the ring lattice
//!   (Section 5.2) and the star.
//!
//! # Examples
//!
//! ```
//! use pss_graph::gen;
//! use rand::SeedableRng;
//! use rand::rngs::SmallRng;
//!
//! let mut rng = SmallRng::seed_from_u64(42);
//! let directed = gen::uniform_view_digraph(1000, 30, &mut rng);
//! let g = directed.undirected();
//! // Every node holds 30 descriptors, so undirected degree is >= 30.
//! assert!(g.min_degree() >= 30);
//! let report = pss_graph::components::connected_components(&g);
//! assert_eq!(report.count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clustering;
pub mod components;
pub mod csr;
pub mod gen;
pub mod metrics;
pub mod paths;

mod error;

pub use error::GraphError;
pub use metrics::{GraphMetrics, MetricsConfig};
