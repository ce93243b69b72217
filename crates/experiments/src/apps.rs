//! **Extension X3** — sampling quality as seen by applications.
//!
//! The paper's motivation: gossip applications assume uniform sampling.
//! This experiment runs the two canonical consumers — epidemic broadcast
//! and push-pull averaging — through [`run_under_workload`] on a `quiet:`
//! schedule over a converged overlay, fed by (a) the ideal uniform oracle
//! and (b) the views of gossip overlays maintained by representative
//! protocols, and compares dissemination speed and aggregation
//! convergence. The `protocols` experiment runs the same application layer
//! under churn and partitions.

use pss_core::{PeerSelection as Ps, PolicyTriple, ViewPropagation as Vp, ViewSelection as Vs};
use pss_protocols::{run_under_workload, AppConfig, Sampler};
use pss_sim::workload::CompiledWorkload;
use pss_sim::{scenario, Workload};

use crate::parallel::parallel_map;
use crate::report::{fmt_f64, Report, Section, Table};
use crate::{Options, Scale};

/// Length of the `quiet:` schedule both applications run over.
const ROUNDS: u64 = 30;

/// The gossip protocols compared against the oracle.
const PROTOCOLS: [PolicyTriple; 3] = [
    PolicyTriple::newscast(),
    PolicyTriple::new(Ps::Rand, Vs::Rand, Vp::PushPull),
    PolicyTriple::lpbcast(),
];

/// Application-level quality metrics of one sampler.
#[derive(Debug, Clone)]
pub struct SamplerQuality {
    /// Sampler label (`uniform oracle` or the protocol triple).
    pub sampler: String,
    /// Broadcast coverage in `[0, 1]`.
    pub coverage: f64,
    /// Periods to inform 99 % of the population, if reached.
    pub rounds_to_99: Option<u64>,
    /// Aggregation variance decay factor per period (lower = faster;
    /// uniform sampling theory gives ≈ 0.303).
    pub aggregation_decay: f64,
}

/// Result of the applications experiment.
#[derive(Debug, Clone)]
pub struct AppsResult {
    /// One row per sampler; the oracle row comes first.
    pub rows: Vec<SamplerQuality>,
}

impl Report for AppsResult {
    /// The comparison table.
    fn sections(&self) -> Vec<Section> {
        let mut t = Table::new(vec![
            "sampler",
            "broadcast coverage",
            "rounds to 99%",
            "aggregation decay/round",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.sampler.clone(),
                fmt_f64(r.coverage, 4),
                r.rounds_to_99.map_or("-".into(), |x| x.to_string()),
                fmt_f64(r.aggregation_decay, 3),
            ]);
        }
        vec![Section::new("apps", t, None)]
    }
}

/// Runs the applications experiment (broadcast fanout: [`AppConfig`]'s
/// default, 2); `scale.cycles` is the overlay convergence budget before
/// the workload starts.
pub fn run(o: &Options) -> AppsResult {
    let scale = o.scale;
    let quiet = quiet(scale);
    // The oracle ignores the views it rides on, so any converged overlay
    // hosts it; newscast is the cheapest to converge.
    let mut jobs = vec![(PolicyTriple::newscast(), Sampler::Oracle)];
    jobs.extend(PROTOCOLS.map(|p| (p, Sampler::Overlay)));
    let rows = parallel_map(jobs, |(policy, sampler)| {
        quality(scale, &quiet, policy, sampler)
    });
    AppsResult { rows }
}

/// The `quiet:` schedule of [`ROUNDS`] periods, compiled for `scale`.
fn quiet(scale: Scale) -> CompiledWorkload {
    Workload::parse(&format!("quiet:{ROUNDS}"), scale.seed)
        .expect("a quiet schedule parses")
        .compile(scale.nodes)
}

/// Both applications on a converged `policy` overlay, fed by `sampler`.
fn quality(
    scale: Scale,
    quiet: &CompiledWorkload,
    policy: PolicyTriple,
    sampler: Sampler,
) -> SamplerQuality {
    let protocol = scale.protocol(policy);
    let mut sim = scenario::random_overlay(&protocol, scale.nodes, scale.seed ^ 0xa993);
    sim.run_cycles(scale.cycles);
    let app = AppConfig {
        seed: scale.seed ^ 0xa991,
        sampler,
        ..AppConfig::default()
    };
    let (_, report) = run_under_workload(&mut sim, quiet, scale.view_size, &app);
    SamplerQuality {
        sampler: match sampler {
            Sampler::Oracle => "uniform oracle".into(),
            Sampler::Overlay => policy.to_string(),
        },
        coverage: report.delivery_ratio(),
        rounds_to_99: report.rounds_to_99(),
        aggregation_decay: report.decay_factor(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gossip_samplers_approach_oracle_quality() {
        let scale = Scale {
            nodes: 300,
            cycles: 30,
            view_size: 15,
            seed: 81,
        };
        let quiet = quiet(scale);
        let newscast = PolicyTriple::newscast();
        let result = AppsResult {
            rows: vec![
                quality(scale, &quiet, newscast, Sampler::Oracle),
                quality(scale, &quiet, newscast, Sampler::Overlay),
            ],
        };
        let oracle = &result.rows[0];
        let newscast = &result.rows[1];
        assert_eq!(oracle.sampler, "uniform oracle");
        assert!(oracle.coverage > 0.999);
        assert!(newscast.coverage > 0.95, "coverage {}", newscast.coverage);
        // Both converge; the oracle is at least as fast.
        assert!(oracle.aggregation_decay < 0.5);
        assert!(newscast.aggregation_decay < 0.7);
        assert!(
            oracle.aggregation_decay <= newscast.aggregation_decay + 0.1,
            "oracle {} vs newscast {}",
            oracle.aggregation_decay,
            newscast.aggregation_decay
        );
        assert!(!result.sections()[0].summary.is_empty());
    }
}
