//! **Extension X7** — Byzantine robustness: attack metrics per honest
//! policy, cross-engine.
//!
//! Runs one adversarial [`Workload`] schedule (`adv:` verbs — hub, age
//! liar, reply forger, eclipse; see the `pss_sim::workload` grammar) over
//! a sweep of honest-policy corners, on **both** simulation stacks, and
//! tabulates the final attack observables side by side: in-degree capture
//! (skew), attacker-edge fraction, in-degree Gini, eclipsed victims,
//! largest attacker-free component — plus a PeerSwap-style randomness
//! audit of the aggregate sample stream (attacker sample share and a
//! chi-square uniformity p-value).
//!
//! The policy corners are chosen to show *which* honest dimension defends:
//! newscast's freshness-greedy selection is exactly what age-forging
//! attackers exploit, the H&S *healer* shares that failure mode (removing
//! the oldest entries is a freshness preference), and the H&S *swapper*
//! bounds the capture. This is the CLI face of
//! `tests/adversary_conformance.rs`.

use pss_core::hs::{HsConfig, HsPeerSelection};
use pss_core::{NodeId, PolicyTriple, ProtocolConfig};
use pss_sim::audit::{audit_rows, role_factory, AttackRecord, HonestPolicy, SampleAudit};
use pss_sim::workload::{run_workload_observed, Workload};

use crate::engines::on_both_engines;
use crate::report::{fmt_f64, fmt_percent, Report, Section, Table};
use crate::Scale;

/// The default schedule: the headline hub attack — 2 % colluders forging
/// fresh self-descriptors through 30 quiet periods.
pub const DEFAULT_SCHEDULE: &str = "adv:hub@0.02,quiet:30";

/// Configuration of a cross-engine adversary sweep.
#[derive(Debug, Clone)]
pub struct AdversaryConfig {
    /// Population, view size and seed (`cycles` is ignored — the schedule
    /// fixes the period count).
    pub scale: Scale,
    /// The schedule string; must place an adversary (`adv:` verb).
    pub schedule: String,
    /// Shard count for both engines.
    pub shards: usize,
    /// Worker-thread override (results are worker-invariant).
    pub workers: Option<usize>,
}

impl AdversaryConfig {
    /// Defaults at the given scale: the headline hub schedule, 2 shards.
    pub fn at_scale(scale: Scale) -> Self {
        AdversaryConfig {
            scale,
            schedule: DEFAULT_SCHEDULE.to_owned(),
            shards: 2,
            workers: None,
        }
    }
}

/// One policy × engine cell of the sweep.
#[derive(Debug)]
pub struct PolicyOutcome {
    /// Human-readable policy label.
    pub policy: String,
    /// `"cycle"` or `"event"`.
    pub engine: &'static str,
    /// The last period's attack observables.
    pub final_record: AttackRecord,
    /// Share of the aggregate honest sample stream that landed on
    /// attacker ids (clean share ≈ the attacker fraction).
    pub attacker_sample_share: f64,
    /// Chi-square uniformity p-value of the aggregate sample stream, if
    /// computable.
    pub uniformity_p: Option<f64>,
}

/// Result of the sweep: one [`PolicyOutcome`] per policy per engine.
#[derive(Debug)]
pub struct AdversaryResult {
    /// The schedule string as configured.
    pub schedule: String,
    /// Shard count of both engines.
    pub shards: usize,
    /// Population the schedule was compiled for.
    pub nodes: usize,
    /// Outcomes, grouped by policy in sweep order, cycle before event.
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
                o.engine.to_owned(),
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

    /// Passes when the honest overlay survived everywhere (largest
    /// attacker-free component ≥ 50 % of live honest nodes — captured
    /// policies shed real connectivity, that is the attack working) and,
    /// per engine, the swapper's capture never exceeds newscast's — the
    /// defense ordering the CI smoke pins. The `max(2.0)` floor keeps
    /// near-benign schedules (where both skews sit around 1) from
    /// flickering the gate.
    fn verdict(&self) -> Result<(), String> {
        let survived = self
            .outcomes
            .iter()
            .all(|o| o.final_record.honest_component_fraction() >= 0.50);
        let ordered = ["cycle", "event"].iter().all(|engine| {
            match (
                skew_of(&self.outcomes, engine, "newscast"),
                skew_of(&self.outcomes, engine, "hs swapper"),
            ) {
                (Some(news), Some(swap)) => swap <= news.max(2.0),
                _ => true,
            }
        });
        if survived && ordered {
            Ok(())
        } else {
            Err("adversary sweep broke the honest overlay or the defense ordering".into())
        }
    }

    fn summary(&self) -> Option<String> {
        Some(format!(
            "{} nodes, schedule `{}`, {} shards: healthy = {}",
            self.nodes,
            self.schedule,
            self.shards,
            self.verdict().is_ok()
        ))
    }
}

/// The final in-degree skew of the first policy labelled `policy_prefix…`
/// on `engine`.
fn skew_of(outcomes: &[PolicyOutcome], engine: &str, policy_prefix: &str) -> Option<f64> {
    outcomes
        .iter()
        .find(|o| o.engine == engine && o.policy.starts_with(policy_prefix))
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

/// Runs the schedule for one policy on both engines, cycle first,
/// auditing every period and feeding every honest node's per-period view
/// into the sample audit.
fn run_pair(
    policy: &HonestPolicy,
    label: &str,
    workload: &Workload,
    config: &AdversaryConfig,
) -> Result<[PolicyOutcome; 2], String> {
    let nodes = config.scale.nodes;
    let compiled = workload.compile(nodes);
    let roles = compiled.adversary.ok_or_else(|| {
        format!(
            "schedule `{}` places no adversary (adv: verb)",
            config.schedule
        )
    })?;
    let c = policy.view_size();

    let [cycle, event] = on_both_engines(
        role_factory(policy.clone(), Some(roles)),
        nodes,
        config.scale.seed,
        config.shards,
        config.workers,
        |engine, target| -> Result<PolicyOutcome, String> {
            let mut final_record = None;
            let mut audit = SampleAudit::new(config.scale.seed ^ 0xa0d1);
            run_workload_observed(target, &compiled, c, &mut |period, rows, _is_live| {
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
                audit.samples_matching(|id| roles.is_attacker(id)) as f64 / audit.samples() as f64
            };
            let uniformity_p = audit
                .chi_square((0..nodes as u64).map(NodeId::new))
                .map(|v| v.p_value);
            Ok(PolicyOutcome {
                policy: label.to_owned(),
                engine,
                final_record,
                attacker_sample_share,
                uniformity_p,
            })
        },
    )?;
    Ok([cycle?, event?])
}

/// Runs the sweep: every policy corner on both engines.
///
/// # Errors
///
/// Returns the schedule-parse error verbatim, an error when the schedule
/// places no adversary, or an invalid-policy error for view sizes the H&S
/// corners cannot host.
pub fn run(config: &AdversaryConfig) -> Result<AdversaryResult, String> {
    let workload =
        Workload::parse(&config.schedule, config.scale.seed).map_err(|e| e.to_string())?;
    let corners = policy_corners(config.scale.view_size)?;
    let mut outcomes = Vec::with_capacity(corners.len() * 2);
    for (label, policy) in &corners {
        outcomes.extend(run_pair(policy, label, &workload, config)?);
    }
    Ok(AdversaryResult {
        schedule: config.schedule.clone(),
        shards: config.shards,
        nodes: config.scale.nodes,
        outcomes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> AdversaryConfig {
        let mut scale = Scale::tiny();
        scale.nodes = 150;
        scale.view_size = 12;
        let mut config = AdversaryConfig::at_scale(scale);
        config.schedule = "adv:hub@0.02,quiet:12".into();
        config
    }

    #[test]
    fn tiny_sweep_runs_all_corners_on_both_engines() {
        let config = tiny_config();
        let result = run(&config).expect("valid schedule");
        assert_eq!(result.outcomes.len(), 8);
        assert_eq!(result.sections()[0].summary.len(), 8);
        assert!(result.verdict().is_ok(), "{result:?}");
        // The headline ordering: newscast is captured, the swapper bounds
        // it — on both engines.
        for engine in ["cycle", "event"] {
            let news = skew_of(&result.outcomes, engine, "newscast").unwrap();
            let swap = skew_of(&result.outcomes, engine, "hs swapper").unwrap();
            assert!(news > 2.0, "{engine}: newscast not captured: {news}");
            assert!(
                swap < news,
                "{engine}: swapper did not bound: {swap} vs {news}"
            );
        }
        // The sample audit saw the attack: attacker share above the 2 %
        // clean share for the captured policy.
        let news_cycle = result
            .outcomes
            .iter()
            .find(|o| o.engine == "cycle" && o.policy.starts_with("newscast"))
            .unwrap();
        assert!(news_cycle.attacker_sample_share > 0.05, "{news_cycle:?}");
        assert!(news_cycle.uniformity_p.is_some());
    }

    #[test]
    fn adversary_free_schedule_is_rejected() {
        let mut config = tiny_config();
        config.schedule = "quiet:5".into();
        let err = run(&config).unwrap_err();
        assert!(err.contains("no adversary"), "{err}");
    }

    #[test]
    fn bad_schedule_is_reported() {
        let mut config = tiny_config();
        config.schedule = "adv:bogus@0.1,quiet:5".into();
        assert!(run(&config).is_err());
    }
}
