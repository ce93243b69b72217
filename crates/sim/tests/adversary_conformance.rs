//! Cross-engine adversary conformance: attacked runs must (a) stay
//! bit-deterministic per `(seed, shard_count)` at any worker count on both
//! sharded engines, (b) produce statistically agreeing attack metrics on
//! the cycle and event engines, and (c) reproduce the headline robustness
//! result — 2 % hub attackers capture in-degree under newscast while the
//! H&S swapper policy bounds the capture — plus the PeerSwap-style
//! chi-square randomness audit (passes clean, flags hub attacks) and
//! eclipse victim isolation.

mod common;

use common::{event_config, view_digest};
use pss_core::hs::{HsConfig, HsPeerSelection};
use pss_core::{NodeId, PolicyTriple, ProtocolConfig};
use pss_sim::audit::{role_factory, run_attacked, AttackAudit, HonestPolicy, SampleAudit};
use pss_sim::workload::{run_workload_observed, PeriodRecord, Workload};
use pss_sim::{scenario, BoxedNode, Mode, Sharded, ShardedEventSimulation, ShardedSimulation};

const N: usize = 200;
const C: usize = 15;

fn newscast() -> HonestPolicy {
    HonestPolicy::Sampling(ProtocolConfig::new(PolicyTriple::newscast(), C).expect("valid"))
}

fn swapper() -> HonestPolicy {
    HonestPolicy::Hs(HsConfig::new(C, 0, C / 2, HsPeerSelection::Rand).expect("valid"))
}

/// Tree-bootstrapped sharded cycle engine over a role-dispatched
/// population.
fn cycle_sim(
    policy: &HonestPolicy,
    workload: &Workload,
    seed: u64,
    shards: usize,
) -> ShardedSimulation<BoxedNode> {
    let roles = workload.compile(N).adversary;
    let mut sim =
        ShardedSimulation::with_factory(seed, shards, role_factory(policy.clone(), roles));
    scenario::seed_tree(&mut sim, N);
    sim
}

/// Tree-bootstrapped sharded event engine over a role-dispatched
/// population.
fn event_sim(
    policy: &HonestPolicy,
    workload: &Workload,
    seed: u64,
    shards: usize,
) -> ShardedEventSimulation<BoxedNode> {
    let roles = workload.compile(N).adversary;
    let mut sim = ShardedEventSimulation::with_factory(
        event_config(),
        seed,
        shards,
        role_factory(policy.clone(), roles),
    )
    .expect("valid event config");
    scenario::seed_tree(&mut sim, N);
    sim
}

fn attack_schedules() -> Vec<(&'static str, Workload)> {
    vec![
        (
            "hub",
            Workload::parse("adv:hub@0.02,quiet:8,churn:0.01x6", 51).unwrap(),
        ),
        (
            "liar",
            Workload::parse("adv:liar@0.05,quiet:8,churn:0.01x6", 52).unwrap(),
        ),
        (
            "forge",
            Workload::parse("adv:forge@0.05,quiet:8,churn:0.01x6", 53).unwrap(),
        ),
        (
            "eclipse",
            Workload::parse("adv:eclipse@0.1>victims:8,quiet:14", 54).unwrap(),
        ),
    ]
}

/// (a) Bit-determinism: for a fixed `(seed, shard_count)`, the benign
/// records, the attack records, and the final overlay are identical at any
/// worker count — for every attack kind, on both sharded engines.
#[test]
fn attacked_runs_are_bit_deterministic_across_worker_counts() {
    fn check<M: Mode>(build: impl Fn() -> Sharded<BoxedNode, M>, workload: &Workload, what: &str) {
        let compiled = workload.compile(N);
        let run = |workers: usize| {
            let mut sim = build();
            sim.set_workers(workers);
            let (records, audit) = run_attacked(&mut sim, &compiled, C);
            (records, audit, view_digest(&sim))
        };
        let (records1, audit1, digest1) = run(1);
        let (records2, audit2, digest2) = run(2);
        let engine = std::any::type_name::<M>();
        assert_eq!(records1, records2, "{engine} records diverged ({what})");
        assert_eq!(audit1, audit2, "{engine} attack audit diverged ({what})");
        assert_eq!(digest1, digest2, "{engine} overlay diverged ({what})");
    }
    for (name, workload) in attack_schedules() {
        check(|| cycle_sim(&newscast(), &workload, 7, 2), &workload, name);
        check(|| event_sim(&newscast(), &workload, 7, 2), &workload, name);
    }
}

/// (c) The headline robustness result, pinned on the event engine: 2 % hub
/// attackers capture in-degree far beyond their share under newscast
/// (freshness-greedy view selection swallows the forged age-0 flood),
/// while the H&S swapper policy — whose view selection gives fresh entries
/// no retention preference — bounds the capture. (The *healer* dimension
/// does not help here: removing the oldest entries is precisely the
/// freshness preference the age-forging hub exploits; see the calibration
/// sweep above.)
#[test]
fn hub_attack_skews_newscast_but_swapper_bounds_it() {
    let workload = Workload::parse("adv:hub@0.02,quiet:30", 61).unwrap();
    let compiled = workload.compile(N);

    let mut news = event_sim(&newscast(), &workload, 17, 2);
    let (_, news_audit) = run_attacked(&mut news, &compiled, C);
    let news_final = news_audit.final_record().unwrap();

    let mut swap = event_sim(&swapper(), &workload, 17, 2);
    let (_, swap_audit) = run_attacked(&mut swap, &compiled, C);
    let swap_final = swap_audit.final_record().unwrap();

    eprintln!(
        "newscast: skew {:.2} edge {:.3} gini {:.3} | swapper: skew {:.2} edge {:.3} gini {:.3}",
        news_final.skew(),
        news_final.attacker_edge_fraction,
        news_final.in_degree_gini,
        swap_final.skew(),
        swap_final.attacker_edge_fraction,
        swap_final.in_degree_gini,
    );

    // Clean share would be skew ≈ 1 and edge fraction ≈ 2 %.
    assert!(
        news_final.skew() >= 4.0,
        "hub attackers failed to capture newscast in-degree: {news_final:?}"
    );
    assert!(
        news_final.attacker_edge_fraction >= 0.10,
        "hub attackers failed to poison newscast views: {news_final:?}"
    );
    // Swapper bounds the capture: well below newscast on both axes.
    assert!(
        swap_final.skew() <= news_final.skew() / 2.0,
        "swapper did not bound skew: swapper {swap_final:?} vs newscast {news_final:?}"
    );
    assert!(
        swap_final.attacker_edge_fraction <= news_final.attacker_edge_fraction / 2.0,
        "swapper did not bound poisoning: swapper {swap_final:?} vs newscast {news_final:?}"
    );
    // The attack biases sampling, it does not partition the honest overlay.
    assert!(news_final.honest_component_fraction() >= 0.75);
    assert!(swap_final.honest_component_fraction() >= 0.95);
}

/// (b) Cross-engine statistical agreement: the cycle engine and the event
/// engine (jitter + latency + loss) see the same hub attack with agreeing
/// attack metrics, and execute the identical membership trajectory.
#[test]
fn cycle_and_event_agree_on_attack_metrics() {
    let workload = Workload::parse("adv:hub@0.02,quiet:20", 71).unwrap();
    let compiled = workload.compile(N);

    let mut cycle = cycle_sim(&newscast(), &workload, 19, 2);
    let (cycle_records, cycle_audit) = run_attacked(&mut cycle, &compiled, C);
    let mut event = event_sim(&newscast(), &workload, 19, 2);
    let (event_records, event_audit) = run_attacked(&mut event, &compiled, C);

    for (c_rec, e_rec) in cycle_records.iter().zip(event_records.iter()) {
        assert_eq!(
            (c_rec.live, c_rec.killed, c_rec.joined),
            (e_rec.live, e_rec.killed, e_rec.joined)
        );
    }

    let c_final = cycle_audit.final_record().unwrap();
    let e_final = event_audit.final_record().unwrap();
    eprintln!(
        "cycle: skew {:.2} edge {:.3} | event: skew {:.2} edge {:.3}",
        c_final.skew(),
        c_final.attacker_edge_fraction,
        e_final.skew(),
        e_final.attacker_edge_fraction,
    );
    // Both engines agree the attack succeeded, to comparable degree.
    assert!(c_final.skew() >= 4.0, "{c_final:?}");
    assert!(e_final.skew() >= 4.0, "{e_final:?}");
    assert!(
        (c_final.attacker_edge_fraction - e_final.attacker_edge_fraction).abs() <= 0.15,
        "attacker-edge fraction diverged: cycle {c_final:?} vs event {e_final:?}"
    );
}

/// The PeerSwap-style randomness audit: an observer's one-sample-per-period
/// stream is consistent with uniform on a clean run and wildly inconsistent
/// under a hub attack.
#[test]
fn chi_square_audit_passes_clean_and_flags_hub_attack() {
    const PERIODS: usize = 600;
    let clean = Workload::parse(&format!("quiet:{PERIODS}"), 81).unwrap();
    let attacked = Workload::parse(&format!("adv:hub@0.02,quiet:{PERIODS}"), 81).unwrap();

    let run = |workload: &Workload| {
        let compiled = workload.compile(N);
        let roles = compiled.adversary;
        // Observer: the largest honest initial id.
        let observer = (0..N as u64)
            .map(NodeId::new)
            .rfind(|&id| roles.is_none_or(|r| !r.is_attacker(id)))
            .unwrap();
        let mut sim = cycle_sim(&newscast(), workload, 29, 2);
        let mut audit = SampleAudit::new(97);
        run_workload_observed(&mut sim, &compiled, C, &mut |_, rows| {
            if let Ok(i) = rows.binary_search_by_key(&observer, |(id, _)| *id) {
                audit.observe(&rows[i].1);
            }
        });
        let universe = (0..N as u64).map(NodeId::new).filter(|&id| id != observer);
        (audit.chi_square(universe).unwrap(), audit, roles, observer)
    };

    let (clean_verdict, ..) = run(&clean);
    let (attacked_verdict, attacked_audit, roles, _) = run(&attacked);
    let roles = roles.unwrap();
    let attacker_share = attacked_audit.samples_matching(|id| roles.is_attacker(id)) as f64
        / attacked_audit.samples() as f64;
    eprintln!(
        "clean: stat {:.1} p {:.4} | attacked: stat {:.1} p {:.2e} attacker share {:.3}",
        clean_verdict.statistic,
        clean_verdict.p_value,
        attacked_verdict.statistic,
        attacked_verdict.p_value,
        attacker_share,
    );

    assert!(
        clean_verdict.passes(1e-3),
        "clean run failed the uniformity audit: {clean_verdict:?}"
    );
    assert!(
        !attacked_verdict.passes(1e-6),
        "hub attack slipped past the uniformity audit: {attacked_verdict:?}"
    );
    // The flagged non-uniformity is the attack: 2 % of ids soak up a
    // grossly disproportionate share of the observer's samples.
    assert!(
        attacker_share >= 0.10,
        "attacker ids should dominate the sample stream: {attacker_share}"
    );
}

/// Eclipse: a 10 % colluder set pounding 8 victims isolates them under
/// newscast — victims' views become 100 % attacker-controlled within the
/// run — while the rest of the honest overlay stays intact. (The colluder
/// set must exceed the view size, else deduplicated victim views can never
/// be fully attacker-controlled.)
#[test]
fn eclipse_attack_isolates_its_victims() {
    let workload = Workload::parse("adv:eclipse@0.1>victims:8,quiet:30", 91).unwrap();
    let compiled = workload.compile(N);
    let roles = compiled.adversary.unwrap();
    assert_eq!(roles.victim_count(), 8);

    let mut sim = cycle_sim(&newscast(), &workload, 37, 2);
    let (_, audit): (Vec<PeriodRecord>, AttackAudit) = run_attacked(&mut sim, &compiled, C);

    let isolated = audit.isolated_victims();
    let final_record = audit.final_record().unwrap();
    eprintln!(
        "isolated {}/8, final eclipsed {}, isolation {:?}",
        isolated, final_record.eclipsed_victims, audit.isolation
    );
    assert!(
        isolated >= 6,
        "eclipse failed to isolate victims: {:?}",
        audit.isolation
    );
    // Targeted attack: the wider honest overlay is not destroyed.
    assert!(
        final_record.honest_component_fraction() >= 0.90,
        "{final_record:?}"
    );
}
