//! Reproduction harness for every table and figure of the peer sampling
//! paper (Jelasity et al., Middleware 2004), plus extension experiments.
//!
//! Each experiment is a plain function, `run(&Options)`, from the CLI's
//! [`Options`] to a typed result; the paper's fixed parameters (protocol
//! lists, removal percentages, traced nodes, lags) are constants of each
//! module, or functions of the [`Scale`]. Every result implements
//! [`report::Report`]: the tables it prints, its health gate and its
//! summary line. The `experiments` binary runs them from one command table
//! (`experiments --help`). The mapping to the paper:
//!
//! | module       | paper artifact | content |
//! |--------------|----------------|---------|
//! | [`growing`]  | Table 1, Figure 2 | growing-overlay runs per protocol: partitioning of push protocols, and property dynamics of each protocol's first connected run |
//! | [`random`]   | Figures 3–7, Table 2 | one random-start run per protocol: convergence against a lattice-start control, degree distribution evolution (log-log), traced nodes' statistics, one node's autocorrelation, connectivity under massive node removal, dead-link healing after 50 % node failure; healer/swapper (H, S) corners beside the paper's eight |
//! | [`policies`] | Section 4.3    | why `(head,*,*)`, `(*,tail,*)`, `(*,*,pull)` are degenerate |
//! | [`asynchrony`] | extension    | cycle vs event engine per shard count: overlay quality and throughput |
//! | [`net`]      | extension      | live loopback UDP cluster: wire codec + runtimes end to end |
//! | [`workload`] | extension      | `matrix`: membership-dynamics schedules (churn, catastrophe, flash crowd, partition) on every [`stacks::Stack`], as the failure-family grid or one `--schedule` |
//! | [`adversary`] | extension     | Byzantine attack metrics per honest policy, on every stack |
//! | [`protocols`] | extension     | broadcast & aggregation under membership schedules from a tree start, and against the uniform oracle on a quiet schedule from a random start, on every stack |
//! | [`metrics`]  | extension      | telemetry registry exercised across every stack (phase/RTT histograms, flight recorder) |
//!
//! All experiments are deterministic given their seed and parallelize
//! across protocols/runs with `std::thread::scope`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod asynchrony;
pub mod dynamics;
pub mod growing;
pub mod metrics;
pub mod net;
pub mod policies;
pub mod protocols;
pub mod random;
pub mod report;
pub mod stacks;
pub mod workload;

mod parallel;
mod scale;

pub use scale::{Options, Scale};
