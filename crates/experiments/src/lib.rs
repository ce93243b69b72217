//! Reproduction harness for every table and figure of the peer sampling
//! paper (Jelasity et al., Middleware 2004), plus extension experiments.
//!
//! Each experiment is a plain function from a configuration to a typed
//! result, and every result implements [`report::Report`]: the tables it
//! prints, its health gate and its summary line. The `experiments` binary
//! runs them from one command table (`experiments --help`). The mapping to
//! the paper:
//!
//! | module       | paper artifact | content |
//! |--------------|----------------|---------|
//! | [`table1`]   | Table 1        | partitioning of push protocols in the growing scenario |
//! | [`fig2`]     | Figure 2       | property dynamics while the overlay grows |
//! | [`fig3`]     | Figure 3       | convergence from lattice and random starts |
//! | [`fig4`]     | Figure 4       | degree distribution evolution (log-log) |
//! | [`table2`]   | Table 2        | degree statistics of traced nodes |
//! | [`fig5`]     | Figure 5       | autocorrelation of a node's degree series |
//! | [`fig6`]     | Figure 6       | connectivity under massive node removal |
//! | [`fig7`]     | Figure 7       | dead-link healing after 50 % node failure |
//! | [`policies`] | Section 4.3    | why `(head,*,*)`, `(*,tail,*)`, `(*,*,pull)` are degenerate |
//! | [`asynchrony`] | extension    | conclusions under the event-driven engine |
//! | [`apps`]     | extension      | broadcast & aggregation vs sampling quality |
//! | [`hs_ablation`] | extension   | healer/swapper (H, S) corners: healing speed vs degree balance |
//! | [`scaling`]  | extension      | sharded-engine throughput and overlay quality vs shard count |
//! | [`net`]      | extension      | live loopback UDP cluster: wire codec + runtimes end to end |
//! | [`workload`] | extension      | membership-dynamics schedules (churn, catastrophe, flash crowd, partition) on every [`stacks::Stack`] |
//! | [`adversary`] | extension     | Byzantine attack metrics per honest policy, on every stack |
//! | [`protocols`] | extension     | broadcast & aggregation under membership schedules, on every stack |
//! | [`metrics`]  | extension      | telemetry registry exercised across every stack (phase/RTT histograms, flight recorder) |
//!
//! All experiments are deterministic given their seed and parallelize
//! across protocols/runs with `std::thread::scope`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod apps;
pub mod asynchrony;
pub mod dynamics;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod hs_ablation;
pub mod metrics;
pub mod net;
pub mod policies;
pub mod protocols;
pub mod report;
pub mod scaling;
pub mod stacks;
pub mod table1;
pub mod table2;
pub mod workload;

mod parallel;
mod scale;

pub use scale::Scale;
