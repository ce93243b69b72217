//! Overlay health auditing under Byzantine attack.
//!
//! [`run_workload`](crate::workload::run_workload) measures *benign* health
//! (convergence, dead links, components). When a schedule places
//! adversaries ([`pss_core::adversary`]), this module layers the attack
//! observables on top, through the same streaming pass over the view rows
//! that measures every period
//! ([`measure_rows`](crate::workload::measure_rows)):
//!
//! * **in-degree capture** — mean in-degree of attacker ids vs honest ids
//!   ([`AttackRecord::skew`]), plus the Gini coefficient of the whole
//!   live in-degree distribution (hub attacks concentrate mass);
//! * **attacker-edge fraction** — the share of honest view entries
//!   pointing at attacker ids (the poisoned fraction of the overlay);
//! * **victim isolation** — per eclipse victim, the first period its view
//!   is 100 % attacker-controlled ([`AttackAudit::isolation`]);
//! * **largest attacker-free component** — connectivity of the honest
//!   overlay after deleting every attacker node and edge;
//! * **sample-stream randomness** — a PeerSwap-style chi-square uniformity
//!   test ([`SampleAudit`]) over an observer's `getPeer()`-like stream:
//!   passes on clean runs, fails loudly under hub attack.
//!
//! Everything is computed from the `(id, view targets)` rows the workload
//! runner already snapshots, so the cycle engine, the event engine, and
//! the live cluster produce directly comparable [`AttackRecord`]s.

use std::collections::HashMap;

use pss_core::adversary::AdversaryRoles;
use pss_core::hs::{HsConfig, HsNode};
use pss_core::{NodeId, PeerSamplingNode, PolicyTriple, ProtocolConfig};
use pss_stats::{chi_square_uniform, ChiSquare};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::snapshot::RowPass;
use crate::workload::{run_workload_observed, CompiledWorkload, PeriodRecord, WorkloadTarget};
use crate::BoxedNode;

/// The honest node implementation of an attacked population — the policy
/// dimension the adversary experiments sweep.
#[derive(Debug, Clone)]
pub enum HonestPolicy {
    /// The 2004 skeleton under this protocol configuration.
    Sampling(ProtocolConfig),
    /// The TOCS 2007 healer/swapper generalization.
    Hs(HsConfig),
}

impl HonestPolicy {
    /// The view size `c` honest nodes (and attackers) run.
    pub fn view_size(&self) -> usize {
        match self {
            HonestPolicy::Sampling(config) => config.view_size(),
            HonestPolicy::Hs(config) => config.view_size(),
        }
    }

    /// The protocol configuration attack mimics run underneath: the honest
    /// one where available, else newscast at the same view size.
    fn attacker_config(&self) -> ProtocolConfig {
        match self {
            HonestPolicy::Sampling(config) => config.clone(),
            HonestPolicy::Hs(config) => {
                ProtocolConfig::new(PolicyTriple::newscast(), config.view_size())
                    .expect("H&S view sizes are valid skeleton view sizes")
            }
        }
    }

    /// Builds one honest node.
    pub fn build(&self, id: NodeId, seed: u64) -> BoxedNode {
        match self {
            HonestPolicy::Sampling(config) => {
                Box::new(PeerSamplingNode::with_seed(id, config.clone(), seed))
            }
            HonestPolicy::Hs(config) => Box::new(HsNode::with_seed(id, *config, seed)),
        }
    }
}

/// A node factory dispatching on the compiled role assignment: attacker
/// ids get their attack node, everyone else the honest policy. With no
/// roles the factory is purely honest — so clean and attacked runs share
/// one construction path on every engine
/// ([`crate::ShardedSimulation::with_factory`] and the event twin).
pub fn role_factory(
    policy: HonestPolicy,
    roles: Option<AdversaryRoles>,
) -> impl Fn(NodeId, u64) -> BoxedNode + Clone + Send + Sync + 'static {
    let attacker_config = policy.attacker_config();
    move |id, seed| match &roles {
        Some(r) if r.is_attacker(id) => r.build_attacker(id, &attacker_config, seed),
        _ => policy.build(id, seed),
    }
}

/// Attack observables of one period; see the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackRecord {
    /// 1-based period index.
    pub period: u64,
    /// Live nodes (honest + attackers).
    pub live: usize,
    /// Live honest nodes.
    pub honest_live: usize,
    /// Live attacker nodes.
    pub attackers_live: usize,
    /// Mean in-degree of live attacker ids in the live view graph.
    pub attacker_in_degree_mean: f64,
    /// Mean in-degree of live honest ids in the live view graph.
    pub honest_in_degree_mean: f64,
    /// Fraction of honest view entries pointing at attacker ids.
    pub attacker_edge_fraction: f64,
    /// Gini coefficient of the live in-degree distribution (0 = perfectly
    /// even, → 1 = fully concentrated).
    pub in_degree_gini: f64,
    /// Live eclipse victims whose non-empty view is 100 % attacker ids.
    pub eclipsed_victims: usize,
    /// Largest weakly-connected component of the overlay after deleting
    /// every attacker node and every edge touching one.
    pub largest_honest_component: usize,
}

impl AttackRecord {
    /// In-degree capture ratio: attacker mean over honest mean. 1.0 means
    /// attackers are indistinguishable from honest nodes; hub attacks on
    /// freshness-greedy policies push this far above 1.
    pub fn skew(&self) -> f64 {
        if self.honest_in_degree_mean <= 0.0 {
            if self.attacker_in_degree_mean > 0.0 {
                f64::INFINITY
            } else {
                1.0
            }
        } else {
            self.attacker_in_degree_mean / self.honest_in_degree_mean
        }
    }

    /// Largest attacker-free component as a fraction of live honest nodes.
    pub fn honest_component_fraction(&self) -> f64 {
        if self.honest_live == 0 {
            0.0
        } else {
            self.largest_honest_component as f64 / self.honest_live as f64
        }
    }
}

/// Gini coefficient of a non-negative sample; 0 for empty or all-zero
/// input.
fn gini(values: &mut [f64]) -> f64 {
    let n = values.len();
    let sum: f64 = values.iter().sum();
    if n == 0 || sum <= 0.0 {
        return 0.0;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("degrees are finite"));
    let weighted: f64 = values
        .iter()
        .enumerate()
        .map(|(i, &x)| (2.0 * (i as f64 + 1.0) - n as f64 - 1.0) * x)
        .sum();
    weighted / (n as f64 * sum)
}

/// Reduces one period's live view rows to an [`AttackRecord`]. `rows` is
/// exactly what [`WorkloadTarget::collect_rows`] produces: sorted by id,
/// ids below `id_space`.
pub fn audit_rows(
    roles: &AdversaryRoles,
    id_space: usize,
    rows: &[(NodeId, Vec<NodeId>)],
    period: u64,
) -> AttackRecord {
    let pass = RowPass::from_rows(id_space, rows, |_| true);

    let mut attacker_degrees = 0.0;
    let mut honest_degrees = 0.0;
    let mut attackers_live = 0usize;
    let mut all: Vec<f64> = Vec::with_capacity(rows.len());
    for ((id, _), d) in rows.iter().zip(pass.in_degrees()) {
        all.push(f64::from(d));
        if roles.is_attacker(*id) {
            attackers_live += 1;
            attacker_degrees += f64::from(d);
        } else {
            honest_degrees += f64::from(d);
        }
    }
    let honest_live = rows.len() - attackers_live;

    let mut honest_edges = 0usize;
    let mut poisoned_edges = 0usize;
    let mut eclipsed_victims = 0usize;
    for (id, targets) in rows {
        if roles.is_attacker(*id) {
            continue;
        }
        honest_edges += targets.len();
        let poisoned = targets.iter().filter(|&&t| roles.is_attacker(t)).count();
        poisoned_edges += poisoned;
        if roles.is_victim(*id) && !targets.is_empty() && poisoned == targets.len() {
            eclipsed_victims += 1;
        }
    }

    // The attacker-free overlay: only honest ids have rows, so edges to
    // attackers drop like dead links.
    let largest_honest_component =
        RowPass::from_rows(id_space, rows, |id| !roles.is_attacker(id)).largest_component();

    AttackRecord {
        period,
        live: rows.len(),
        honest_live,
        attackers_live,
        attacker_in_degree_mean: if attackers_live == 0 {
            0.0
        } else {
            attacker_degrees / attackers_live as f64
        },
        honest_in_degree_mean: if honest_live == 0 {
            0.0
        } else {
            honest_degrees / honest_live as f64
        },
        attacker_edge_fraction: if honest_edges == 0 {
            0.0
        } else {
            poisoned_edges as f64 / honest_edges as f64
        },
        in_degree_gini: gini(&mut all),
        eclipsed_victims,
        largest_honest_component,
    }
}

/// The attack-metric side of an audited workload run.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackAudit {
    /// One [`AttackRecord`] per period, aligned with the
    /// [`PeriodRecord`]s.
    pub records: Vec<AttackRecord>,
    /// Per eclipse victim: the first period its live view was 100 %
    /// attacker-controlled, or `None` if it never was. Empty unless the
    /// schedule declared an eclipse attack.
    pub isolation: Vec<(NodeId, Option<u64>)>,
}

impl AttackAudit {
    /// The last period's attack record, if any period ran.
    pub fn final_record(&self) -> Option<&AttackRecord> {
        self.records.last()
    }

    /// Number of victims that were fully eclipsed at least once.
    pub fn isolated_victims(&self) -> usize {
        self.isolation.iter().filter(|(_, at)| at.is_some()).count()
    }
}

/// Drives an attacked workload exactly like
/// [`run_workload`](crate::workload::run_workload) while auditing every
/// period. The schedule must have compiled an adversary placement.
///
/// # Panics
///
/// Panics if `compiled.adversary` is `None` — auditing a clean run is a
/// harness bug, not a measurement.
pub fn run_attacked<T: WorkloadTarget + ?Sized>(
    target: &mut T,
    compiled: &CompiledWorkload,
    view_size: usize,
) -> (Vec<PeriodRecord>, AttackAudit) {
    let roles = compiled
        .adversary
        .expect("run_attacked needs a schedule with an adv placement");
    let mut records = Vec::with_capacity(compiled.steps.len());
    let mut isolation: Vec<(NodeId, Option<u64>)> = roles.victim_ids().map(|v| (v, None)).collect();
    let period_records = run_workload_observed(target, compiled, view_size, &mut |period, rows| {
        let record = audit_rows(&roles, compiled.id_space, rows, period);
        if record.eclipsed_victims > 0 {
            for (victim, at) in isolation.iter_mut().filter(|(_, at)| at.is_none()) {
                let row = rows.binary_search_by_key(victim, |(id, _)| *id);
                if let Ok(i) = row {
                    let targets = &rows[i].1;
                    if !targets.is_empty() && targets.iter().all(|&t| roles.is_attacker(t)) {
                        *at = Some(period);
                    }
                }
            }
        }
        records.push(record);
    });
    (period_records, AttackAudit { records, isolation })
}

/// A PeerSwap-style randomness audit over one observer's sample stream.
///
/// Feed it the observer's view each period; it draws one uniform sample
/// per observation — the `getPeer()` stream a service consumer would see —
/// and tests the accumulated per-peer counts against the uniform
/// distribution over a caller-supplied universe. On a clean overlay the
/// stream is near-uniform and the test passes; under a hub attack the
/// attacker ids soak up the stream and the statistic explodes.
#[derive(Debug, Clone)]
pub struct SampleAudit {
    counts: HashMap<NodeId, u64>,
    samples: u64,
    rng: SmallRng,
}

impl SampleAudit {
    /// A fresh audit; `seed` drives the per-observation sample draw.
    pub fn new(seed: u64) -> Self {
        SampleAudit {
            counts: HashMap::new(),
            samples: 0,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Records one observation: draws a single uniform sample from the
    /// observer's current view targets (no-op on an empty view).
    pub fn observe(&mut self, view: &[NodeId]) {
        if view.is_empty() {
            return;
        }
        let pick = view[self.rng.random_range(0..view.len())];
        *self.counts.entry(pick).or_insert(0) += 1;
        self.samples += 1;
    }

    /// Total samples drawn so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Samples that landed on ids accepted by `filter` (e.g. attacker
    /// ids).
    pub fn samples_matching(&self, mut filter: impl FnMut(NodeId) -> bool) -> u64 {
        self.counts
            .iter()
            .filter(|(id, _)| filter(**id))
            .map(|(_, n)| *n)
            .sum()
    }

    /// Chi-square test of the sample counts against uniform over
    /// `universe` (every id a clean sampler could return — typically the
    /// population minus the observer itself). Returns `None` if the
    /// universe has fewer than two ids or nothing was sampled.
    pub fn chi_square(&self, universe: impl IntoIterator<Item = NodeId>) -> Option<ChiSquare> {
        let counts: Vec<u64> = universe
            .into_iter()
            .map(|id| self.counts.get(&id).copied().unwrap_or(0))
            .collect();
        chi_square_uniform(&counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pss_core::adversary::{AdversaryKind, AdversaryRoles, AdversarySpec};

    fn rows(spec: &[(u64, &[u64])]) -> Vec<(NodeId, Vec<NodeId>)> {
        spec.iter()
            .map(|(id, ts)| {
                (
                    NodeId::new(*id),
                    ts.iter().map(|&t| NodeId::new(t)).collect(),
                )
            })
            .collect()
    }

    #[test]
    fn gini_brackets() {
        assert_eq!(gini(&mut []), 0.0);
        assert_eq!(gini(&mut [3.0, 3.0, 3.0]), 0.0);
        let mut concentrated = [0.0, 0.0, 0.0, 12.0];
        assert!(gini(&mut concentrated) > 0.7);
        let mut mild = [2.0, 3.0, 4.0, 3.0];
        let g = gini(&mut mild);
        assert!(g > 0.0 && g < 0.2, "{g}");
    }

    #[test]
    fn audit_rows_splits_degrees_by_role() {
        // Population 4, 25% hub: attacker is one evenly-spread id.
        let roles = AdversaryRoles::new(AdversarySpec::new(AdversaryKind::Hub, 0.25).unwrap(), 4);
        let attacker = roles.attacker_ids().next().unwrap().as_u64();
        assert_eq!(roles.attacker_count(), 1);
        // Every honest node points at the attacker plus one honest peer.
        let honest: Vec<u64> = (0..4).filter(|&i| i != attacker).collect();
        let r = rows(&[
            (honest[0], &[attacker, honest[1]]),
            (honest[1], &[attacker, honest[2]]),
            (honest[2], &[attacker, honest[0]]),
            (attacker, &[honest[0]]),
        ]);
        let mut sorted = r.clone();
        sorted.sort_by_key(|(id, _)| *id);
        let record = audit_rows(&roles, 4, &sorted, 3);
        assert_eq!(record.period, 3);
        assert_eq!(record.live, 4);
        assert_eq!((record.honest_live, record.attackers_live), (3, 1));
        assert_eq!(record.attacker_in_degree_mean, 3.0);
        // Honest in-degrees: one from a peer each, plus one from the
        // attacker: total 4 over 3 nodes.
        assert!((record.honest_in_degree_mean - 4.0 / 3.0).abs() < 1e-9);
        assert!(record.skew() > 2.0);
        assert!((record.attacker_edge_fraction - 0.5).abs() < 1e-9);
        // Honest-only overlay: the 3 honest nodes still form a ring.
        assert_eq!(record.largest_honest_component, 3);
        assert!(record.in_degree_gini > 0.0);
    }

    #[test]
    fn eclipsed_victims_are_counted_and_isolated() {
        let roles = AdversaryRoles::new(AdversarySpec::eclipse(0.25, 1).unwrap(), 4);
        let attacker = roles.attacker_ids().next().unwrap().as_u64();
        let victim = roles.victim_ids().next().unwrap().as_u64();
        let others: Vec<u64> = (0..4).filter(|&i| i != attacker && i != victim).collect();
        let r = rows(&[
            (victim, &[attacker]), // fully attacker-controlled
            (others[0], &[victim, others[1]]),
            (others[1], &[others[0]]),
            (attacker, &[victim]),
        ]);
        let mut sorted = r;
        sorted.sort_by_key(|(id, _)| *id);
        let record = audit_rows(&roles, 4, &sorted, 1);
        assert_eq!(record.eclipsed_victims, 1);
    }

    #[test]
    fn sample_audit_flags_a_rigged_stream() {
        let universe: Vec<NodeId> = (0..40).map(NodeId::new).collect();
        // Clean stream: rotate through the universe evenly.
        let mut clean = SampleAudit::new(1);
        for round in 0..50 {
            for chunk in universe.chunks(8) {
                let _ = round;
                clean.observe(chunk);
            }
        }
        let verdict = clean.chi_square(universe.iter().copied()).unwrap();
        assert!(verdict.passes(1e-6), "{verdict:?}");

        // Rigged stream: one id dominates every view.
        let mut rigged = SampleAudit::new(2);
        let hot = vec![NodeId::new(7); 6];
        for _ in 0..250 {
            rigged.observe(&hot);
        }
        assert_eq!(rigged.samples(), 250);
        assert_eq!(rigged.samples_matching(|id| id == NodeId::new(7)), 250);
        let verdict = rigged.chi_square(universe.iter().copied()).unwrap();
        assert!(!verdict.passes(1e-6), "{verdict:?}");
    }
}
