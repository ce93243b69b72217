//! **Extension X7** — Byzantine robustness: attack metrics per honest
//! policy, cross-stack.
//!
//! Runs one adversarial [`Workload`] schedule (`adv:` verbs — hub, age
//! liar, reply forger, eclipse; see the `pss_sim::workload` grammar) over
//! a sweep of honest-policy corners, on **every** simulation stack
//! ([`Stack::ALL`]), and tabulates the final attack observables side by
//! side: in-degree capture (skew), attacker-edge fraction, in-degree
//! Gini, eclipsed victims, largest attacker-free component — plus a
//! PeerSwap-style randomness audit of the aggregate sample stream
//! (attacker sample share and a chi-square uniformity p-value).
//!
//! The policy corners are chosen to show *which* honest dimension defends:
//! newscast's freshness-greedy selection is exactly what age-forging
//! attackers exploit, the H&S *healer* shares that failure mode (removing
//! the oldest entries is a freshness preference), and the H&S *swapper*
//! bounds the capture. This is the CLI face of
//! `tests/adversary_conformance.rs`.

use pss_core::hs::{HsConfig, HsPeerSelection};
use pss_core::{NodeId, PolicyTriple, ProtocolConfig};
use pss_sim::audit::{audit_rows, AttackRecord, HonestPolicy, SampleAudit};
use pss_sim::workload::{run_workload_observed, Workload};

use crate::report::{fmt_f64, fmt_percent, Cell, Cmp, Report, Section, Table};
use crate::stacks::{on_every_stack, Stack};
use crate::Options;

/// The default schedule: the headline hub attack — 2 % colluders forging
/// fresh self-descriptors through 30 quiet periods.
pub const DEFAULT_SCHEDULE: &str = "adv:hub@0.02,quiet:30";

/// One policy × stack cell of the sweep.
#[derive(Debug)]
pub struct PolicyOutcome {
    /// Human-readable policy label.
    pub policy: String,
    /// The stack it ran on.
    pub stack: Stack,
    /// The last period's attack observables.
    pub final_record: AttackRecord,
    /// Share of the aggregate honest sample stream that landed on
    /// attacker ids (clean share ≈ the attacker fraction).
    pub attacker_sample_share: f64,
    /// Chi-square uniformity p-value of the aggregate sample stream, if
    /// computable.
    pub uniformity_p: Option<f64>,
}

/// Result of the sweep: one [`PolicyOutcome`] per policy per stack.
#[derive(Debug)]
pub struct AdversaryResult {
    /// The schedule string as configured.
    pub schedule: String,
    /// Shard count of every stack.
    pub shards: usize,
    /// Population the schedule was compiled for.
    pub nodes: usize,
    /// Outcomes, grouped by policy in sweep order, then by stack in
    /// [`Stack::ALL`] order.
    pub outcomes: Vec<PolicyOutcome>,
}

impl Report for AdversaryResult {
    /// Per-policy side-by-side table.
    fn sections(&self) -> Vec<Section> {
        let mut table = Table::new(vec![
            "policy",
            "engine",
            "skew",
            "atk edge",
            "gini",
            "honest comp",
            "eclipsed",
            "atk samples",
            "uniform p",
        ]);
        for o in &self.outcomes {
            let f = &o.final_record;
            table.row(vec![
                o.policy.clone(),
                o.stack.label().to_owned(),
                fmt_f64(f.skew(), 2),
                fmt_percent(f.attacker_edge_fraction),
                fmt_f64(f.in_degree_gini, 3),
                fmt_percent(f.honest_component_fraction()),
                f.eclipsed_victims.to_string(),
                fmt_percent(o.attacker_sample_share),
                o.uniformity_p.map_or("n/a".into(), |p| format!("{p:.1e}")),
            ]);
        }
        vec![Section::new("adversary", table, None)]
    }

    /// Per policy × stack, `{policy} × {stack}: honest component` ≥ 0.50:
    /// the honest overlay survived (captured policies shed real
    /// connectivity, that is the attack working). Per stack,
    /// `{stack}: hs swapper skew` ≤ max(newscast's skew, 2.0): the
    /// swapper's capture never exceeds newscast's — the defense ordering
    /// the CI smoke pins. The 2.0 floor keeps near-benign schedules
    /// (where both skews sit around 1) from flickering the gate.
    fn cells(&self) -> Vec<Cell> {
        let mut cells: Vec<Cell> = (self.outcomes.iter())
            .map(|o| {
                let key = format!("{} × {}: honest component", o.policy, o.stack.label());
                let survived = o.final_record.honest_component_fraction();
                Cell::new(key, survived, Cmp::AtLeast, 0.50)
            })
            .collect();
        for stack in Stack::ALL {
            let news = skew_of(&self.outcomes, stack, "newscast");
            if let (Some(news), Some(swap)) = (news, skew_of(&self.outcomes, stack, "hs swapper")) {
                let key = format!("{}: hs swapper skew", stack.label());
                cells.push(Cell::new(key, swap, Cmp::AtMost, news.max(2.0)));
            }
        }
        cells
    }

    fn summary(&self) -> Option<String> {
        Some(format!(
            "{} nodes, schedule `{}`, {} shards",
            self.nodes, self.schedule, self.shards
        ))
    }
}

/// The final in-degree skew of the first policy labelled `policy_prefix…`
/// on `stack`.
fn skew_of(outcomes: &[PolicyOutcome], stack: Stack, policy_prefix: &str) -> Option<f64> {
    outcomes
        .iter()
        .find(|o| o.stack == stack && o.policy.starts_with(policy_prefix))
        .map(|o| o.final_record.skew())
}

/// The policy corners of the sweep; see the [module docs](self).
///
/// # Errors
///
/// Returns an error when the view size cannot host an H&S configuration
/// (H + S must not exceed `c / 2`).
fn policy_corners(c: usize) -> Result<Vec<(String, HonestPolicy)>, String> {
    let sampling = |triple: PolicyTriple| {
        ProtocolConfig::new(triple, c)
            .map(HonestPolicy::Sampling)
            .map_err(|e| e.to_string())
    };
    let hs = |h: usize, s: usize| {
        HsConfig::new(c, h, s, HsPeerSelection::Rand)
            .map(HonestPolicy::Hs)
            .map_err(|e| e.to_string())
    };
    let half = c / 2;
    Ok(vec![
        (
            "newscast (rand,head,pushpull)".into(),
            sampling(PolicyTriple::newscast())?,
        ),
        (
            "blind (rand,rand,pushpull)".into(),
            sampling(
                "(rand,rand,pushpull)"
                    .parse::<PolicyTriple>()
                    .map_err(|e| e.to_string())?,
            )?,
        ),
        (format!("hs healer (H={half},S=0)"), hs(half, 0)?),
        (format!("hs swapper (H=0,S={half})"), hs(0, half)?),
    ])
}

/// Runs the sweep: every policy corner on every stack of `--shards`
/// shards (default 2), auditing every period and feeding every honest
/// node's per-period view into the sample audit. `--schedule` (default
/// [`DEFAULT_SCHEDULE`]) must place an adversary (`adv:` verb);
/// `scale.cycles` is ignored, the schedule fixes the period count.
///
/// # Errors
///
/// Returns the schedule-parse error verbatim, an error when the schedule
/// places no adversary, or an invalid-policy error for view sizes the H&S
/// corners cannot host.
pub fn run(o: &Options) -> Result<AdversaryResult, String> {
    let schedule = o.schedule.as_deref().unwrap_or(DEFAULT_SCHEDULE);
    let shards = o.shards_or(2);
    let workload = Workload::parse(schedule, o.scale.seed).map_err(|e| e.to_string())?;
    let corners = policy_corners(o.scale.view_size)?;
    let nodes = o.scale.nodes;
    let compiled = workload.compile(nodes);
    let no_adversary = || format!("schedule `{schedule}` places no adversary (adv: verb)");
    let roles = compiled.adversary.ok_or_else(no_adversary)?;
    let mut outcomes = Vec::with_capacity(corners.len() * Stack::ALL.len());
    for (label, policy) in &corners {
        let c = policy.view_size();
        let runs = on_every_stack(
            policy.clone(),
            Some(roles),
            &o.scale,
            shards,
            o.workers,
            |stack, target| -> Result<PolicyOutcome, String> {
                let mut final_record = None;
                let mut audit = SampleAudit::new(o.scale.seed ^ 0xa0d1);
                run_workload_observed(target, &compiled, c, &mut |period, rows| {
                    for (id, targets) in rows {
                        if !roles.is_attacker(*id) {
                            audit.observe(targets);
                        }
                    }
                    final_record = Some(audit_rows(&roles, compiled.id_space, rows, period));
                });

                let final_record = final_record.ok_or("schedule ran zero periods")?;
                let attacker_sample_share = if audit.samples() == 0 {
                    0.0
                } else {
                    audit.samples_matching(|id| roles.is_attacker(id)) as f64
                        / audit.samples() as f64
                };
                let uniformity_p = audit
                    .chi_square((0..nodes as u64).map(NodeId::new))
                    .map(|v| v.p_value);
                Ok(PolicyOutcome {
                    policy: label.clone(),
                    stack,
                    final_record,
                    attacker_sample_share,
                    uniformity_p,
                })
            },
        )?;
        outcomes.extend(runs.into_iter().collect::<Result<Vec<_>, _>>()?);
    }
    Ok(AdversaryResult {
        schedule: schedule.to_owned(),
        shards,
        nodes,
        outcomes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::assert_gate_holds;
    use crate::stacks::assert_same_membership;
    use crate::Scale;

    fn tiny(schedule: &str) -> Result<AdversaryResult, String> {
        let mut scale = Scale::tiny();
        scale.nodes = 150;
        scale.view_size = 12;
        run(&Options {
            schedule: Some(schedule.into()),
            ..Options::at(scale)
        })
    }

    #[test]
    fn tiny_sweep_runs_all_corners_on_every_stack() {
        let result = tiny("adv:hub@0.02,quiet:12").expect("valid schedule");
        let runs = 4 * Stack::ALL.len();
        assert_eq!(result.outcomes.len(), runs);
        assert_eq!(result.sections()[0].summary.len(), runs);
        assert_gate_holds(&result);
        for corner in result.outcomes.chunks(Stack::ALL.len()) {
            assert_same_membership(corner.iter().map(|o| {
                let f = &o.final_record;
                (o.stack, (f.live, f.honest_live, f.attackers_live))
            }));
        }
        // The headline ordering: newscast is captured, the swapper bounds
        // it — on every stack.
        for stack in Stack::ALL {
            let news = skew_of(&result.outcomes, stack, "newscast").unwrap();
            let swap = skew_of(&result.outcomes, stack, "hs swapper").unwrap();
            let stack = stack.label();
            assert!(news > 2.0, "{stack}: newscast not captured: {news}");
            assert!(
                swap < news,
                "{stack}: swapper did not bound: {swap} vs {news}"
            );
        }
        // The sample audit saw the attack: attacker share above the 2 %
        // clean share for the captured policy.
        let news_cycle = result
            .outcomes
            .iter()
            .find(|o| o.stack == Stack::Cycle && o.policy.starts_with("newscast"))
            .unwrap();
        assert!(news_cycle.attacker_sample_share > 0.05, "{news_cycle:?}");
        assert!(news_cycle.uniformity_p.is_some());
    }

    #[test]
    fn adversary_free_schedule_is_rejected() {
        let err = tiny("quiet:5").unwrap_err();
        assert!(err.contains("no adversary"), "{err}");
    }

    #[test]
    fn bad_schedule_is_reported() {
        assert!(tiny("adv:bogus@0.1,quiet:5").is_err());
    }
}
