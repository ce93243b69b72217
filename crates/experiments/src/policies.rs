//! **Section 4.3** — why 19 of the 27 policy combinations are degenerate.
//!
//! The paper discards `(head,*,*)` (severe clustering), `(*,tail,*)`
//! (cannot absorb joining nodes) and `(*,*,pull)` (converges to a star
//! topology) after preliminary experiments. This experiment reruns those
//! preliminaries: every combination is run from a random start through
//! one schedule, `quiet:T,flash:J[contacts=1],quiet:Jc` — converge, then
//! a batch of fresh nodes joins, each knowing one live node the schedule's
//! compiler picks — and the overlay after the last period is classified.

use pss_core::{NodeId, PolicyTriple};
use pss_sim::workload::{run_workload_observed, Workload};
use pss_sim::{scenario, CsrSnapshot};

use crate::parallel::parallel_map;
use crate::report::{fmt_f64, Report, Section, Table};
use crate::Options;

/// Observed pathologies of one policy combination.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyDiagnosis {
    /// The policy.
    pub policy: PolicyTriple,
    /// Components in the converged overlay (1 = connected).
    pub components: usize,
    /// Clustering coefficient of the converged overlay.
    pub clustering: f64,
    /// Largest degree divided by (N − 1): 1.0 for a perfect star hub.
    pub max_degree_fraction: f64,
    /// Mean undirected degree of the joiner batch after the join cycles.
    pub joiner_degree: f64,
    /// Mean in-degree of the joiner batch (0 ⇒ nobody learned about them).
    pub joiner_in_degree: f64,
}

impl PolicyDiagnosis {
    /// Classifies the pathology, mirroring the paper's exclusion rules.
    pub fn classify(&self, baseline_clustering: f64) -> &'static str {
        if self.components > 1 {
            "PARTITIONED"
        } else if self.max_degree_fraction > 0.5 {
            "STAR"
        } else if self.joiner_in_degree < 1.0 {
            "JOIN-DEAF"
        } else if self.clustering > 10.0 * baseline_clustering.max(1e-6) {
            "CLUSTERED"
        } else {
            "ok"
        }
    }
}

/// Result of the policy sweep.
#[derive(Debug, Clone)]
pub struct PoliciesResult {
    /// One diagnosis per combination (paper order: ps, vs, vp).
    pub diagnoses: Vec<PolicyDiagnosis>,
    /// Clustering of the uniform random baseline at the same scale.
    pub baseline_clustering: f64,
}

impl Report for PoliciesResult {
    /// The classification table.
    fn sections(&self) -> Vec<Section> {
        let mut t = Table::new(vec![
            "policy",
            "components",
            "clustering",
            "maxdeg/N",
            "joiner deg",
            "joiner indeg",
            "verdict",
            "paper verdict",
        ]);
        for d in &self.diagnoses {
            t.row(vec![
                d.policy.to_string(),
                d.components.to_string(),
                fmt_f64(d.clustering, 4),
                fmt_f64(d.max_degree_fraction, 3),
                fmt_f64(d.joiner_degree, 2),
                fmt_f64(d.joiner_in_degree, 2),
                d.classify(self.baseline_clustering).into(),
                if d.policy.is_degenerate() {
                    "degenerate".into()
                } else {
                    "kept".into()
                },
            ]);
        }
        vec![Section::new("policies", t, None)]
    }
}

/// Runs the sweep over all 27 combinations (in parallel; the `policies`
/// command keeps the scale small).
pub fn run(o: &Options) -> PoliciesResult {
    let scale = o.scale;
    // Fresh nodes that join after convergence, and the cycles run after
    // they join.
    let joiners = (scale.nodes / 10).max(5);
    let join_cycles = (scale.cycles / 3).max(10);

    let schedule = format!(
        "quiet:{},flash:{joiners}[contacts=1],quiet:{join_cycles}",
        scale.cycles
    );
    let compiled = Workload::parse(&schedule, scale.seed)
        .expect("the join schedule parses")
        .compile(scale.nodes);

    let diagnoses = parallel_map(PolicyTriple::all(), |policy| {
        let protocol = scale.protocol(policy);
        let mut sim = scenario::random_overlay(&protocol, scale.nodes, scale.seed ^ 0x901);
        let mut snap = None;
        let last = compiled.periods();
        run_workload_observed(&mut sim, &compiled, scale.view_size, &mut |period, rows| {
            if period == last {
                snap = Some(CsrSnapshot::from_rows(compiled.id_space, rows));
            }
        });

        let snap = snap.expect("the schedule's last period is observed");
        let graph = snap.graph().undirected();
        let report = pss_graph::components::connected_components(&graph);
        let clustering = pss_graph::clustering::estimate_clustering(
            &graph,
            1000.min(graph.node_count()),
            &mut rand::rngs::SmallRng::seed_from_u64(scale.seed),
        );
        let n = graph.node_count().max(2);
        let in_degrees = snap.graph().in_degrees();
        // The flash's joiners take the ids after the initial population.
        let (mut deg_sum, mut indeg_sum, mut count) = (0.0, 0.0, 0usize);
        for i in scale.nodes..scale.nodes + joiners {
            if let Some(idx) = snap.index_of(NodeId::new(i as u64)) {
                deg_sum += graph.degree(idx) as f64;
                indeg_sum += in_degrees[idx as usize] as f64;
                count += 1;
            }
        }
        let count = count.max(1) as f64;
        PolicyDiagnosis {
            policy,
            components: report.count(),
            clustering,
            max_degree_fraction: graph.max_degree() as f64 / (n - 1) as f64,
            joiner_degree: deg_sum / count,
            joiner_in_degree: indeg_sum / count,
        }
    });

    PoliciesResult {
        diagnoses,
        baseline_clustering: crate::dynamics::random_baseline(scale).clustering_coefficient,
    }
}

use rand::SeedableRng;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    /// Passes at 16 of seeds 1..=16.
    #[test]
    fn sweep_reproduces_paper_exclusions() {
        // View size 15 keeps even this small overlay comfortably above the
        // connectivity threshold (c = 10 overlays of ~200 nodes can split).
        let scale = Scale {
            nodes: 200,
            cycles: 40,
            view_size: 15,
            seed: 61,
        };
        let result = run(&Options::at(scale));
        assert_eq!(result.diagnoses.len(), 27);
        let find = |s: &str| {
            let policy: PolicyTriple = s.parse().unwrap();
            result
                .diagnoses
                .iter()
                .find(|d| d.policy == policy)
                .unwrap()
        };

        // (*,*,pull) converges to a star-like topology.
        let pull = find("(rand,head,pull)");
        assert!(
            pull.max_degree_fraction > 0.3,
            "pull max degree fraction {}",
            pull.max_degree_fraction
        );

        // (*,tail,*) cannot absorb joining nodes: nobody stores them.
        let tail = find("(rand,tail,pushpull)");
        assert!(
            tail.joiner_in_degree < 1.0,
            "tail joiner in-degree {}",
            tail.joiner_in_degree
        );

        // (head,*,*) clusters severely relative to the kept protocols.
        let head_ps = find("(head,rand,pushpull)");
        let kept = find("(rand,rand,pushpull)");
        assert!(
            head_ps.clustering > kept.clustering,
            "head-ps clustering {} vs kept {}",
            head_ps.clustering,
            kept.clustering
        );

        // The kept protocols look healthy.
        let newscast = find("(rand,head,pushpull)");
        assert_eq!(newscast.components, 1);
        assert_eq!(newscast.classify(result.baseline_clustering), "ok");

        assert_eq!(result.sections()[0].summary.len(), 27);
    }
}
