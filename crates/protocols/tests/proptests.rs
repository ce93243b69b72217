//! Property-based tests for the application layer: broadcast and averaging
//! bookkeeping under quiet, kill and churn schedules, and the
//! oracle-vs-overlay decay ordering.

use proptest::prelude::*;
use pss_core::{PeerSamplingNode, PolicyTriple, ProtocolConfig};
use pss_protocols::{run_under_workload, AppConfig, AppReport, Sampler};
use pss_sim::workload::Workload;
use pss_sim::{scenario, ShardedSimulation};

fn converged_sim(n: usize, seed: u64) -> ShardedSimulation<PeerSamplingNode> {
    let config = ProtocolConfig::new(PolicyTriple::newscast(), 8).unwrap();
    let mut sim = scenario::random_overlay(&config, n, seed);
    sim.run_cycles(10);
    sim
}

/// Runs `schedule` over a converged `n`-node overlay with view size 8.
fn run(n: usize, seed: u64, schedule: &str, app: &AppConfig) -> AppReport {
    let compiled = Workload::parse(schedule, seed).unwrap().compile(n);
    let (records, report) = run_under_workload(&mut converged_sim(n, seed), &compiled, 8, app);
    assert_eq!(records.len(), report.rows().len());
    report
}

fn samplers() -> impl Strategy<Value = Sampler> {
    prop::sample::select(vec![Sampler::Overlay, Sampler::Oracle])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // On a static (`quiet:`) membership the informed count never shrinks,
    // never exceeds the population, and the delivery ledger balances
    // exactly: every delivered push either informed a node or was
    // redundant, and nobody was dead to waste one on.
    #[test]
    fn broadcast_history_is_monotone_and_ledger_balances_when_static(
        n in 10usize..200,
        fanout in 1usize..4,
        seed in 0u64..1_000,
        sampler in samplers(),
    ) {
        let app = AppConfig { fanout, sampler, seed };
        let report = run(n, seed, "quiet:15", &app);
        let rows = report.rows();
        prop_assert!(rows.windows(2).all(|w| w[0].informed <= w[1].informed));
        prop_assert!(rows.iter().all(|r| r.informed <= n));
        prop_assert_eq!(report.wasted(), 0);
        let delivered: u64 = rows.iter().map(|r| r.delivered).sum();
        let redundant: u64 = rows.iter().map(|r| r.redundant).sum();
        let newly = (rows.last().unwrap().informed - 1) as u64; // origin is free
        prop_assert_eq!(delivered, newly + redundant);
    }

    // Under churn the informed count is bounded by the live count every
    // period (deaths can shrink it — monotonicity is a quiet-schedule
    // property), so coverage never exceeds 1.
    #[test]
    fn broadcast_informed_is_bounded_by_live_under_churn(
        n in 30usize..60,
        seed in 0u64..500,
        rate in 1u32..8,
        periods in 6u32..14,
        sampler in samplers(),
    ) {
        let app = AppConfig { sampler, ..AppConfig::default() };
        let report = run(n, seed, &format!("churn:0.0{rate}x{periods}"), &app);
        for row in report.rows() {
            prop_assert!(row.informed <= row.live, "{row:?}");
        }
        prop_assert!(report.delivery_ratio() <= 1.0);
    }

    // Push-pull averaging moves value between pairs, never in or out of
    // the system: with nobody dying, the live mean is conserved and the
    // variance never grows.
    #[test]
    fn aggregation_conserves_mass_when_nobody_dies(
        n in 10usize..150,
        periods in 1u32..25,
        seed in 0u64..1_000,
        sampler in samplers(),
    ) {
        let app = AppConfig { sampler, seed, ..AppConfig::default() };
        let report = run(n, seed, &format!("quiet:{periods}"), &app);
        let initial_mean = (0..n).map(|i| ((i % 2) * 100) as f64).sum::<f64>() / n as f64;
        let mut variance = report.initial_variance();
        for row in report.rows() {
            prop_assert!((row.mean - initial_mean).abs() < 1e-9, "{row:?}");
            prop_assert!(row.variance <= variance + 1e-9, "{row:?}");
            variance = row.variance;
        }
    }

    // Raw view entries keep pointing at the departed: after a kill, the
    // overlay sampler's dead links surface as wasted exchanges, and since
    // those are skipped rather than averaged with a corpse's value, the
    // survivors' mean stays where the kill left it.
    #[test]
    fn aggregation_counts_wasted_exchanges_on_dead_links(
        n in 40usize..80,
        kill in 2u32..4,
        seed in 0u64..500,
    ) {
        let report = run(n, seed, &format!("quiet:3,kill:0.{kill},quiet:8"), &AppConfig::default());
        let after = &report.rows()[3..]; // period 4 applies the kill
        prop_assert!(after.iter().map(|r| r.agg_wasted).sum::<u64>() > 0, "no dead link was ever drawn");
        for row in after {
            prop_assert!((row.mean - after[0].mean).abs() < 1e-9, "{row:?}");
            prop_assert!(row.variance.is_finite());
        }
    }

    // At any fixed seed, the ideal uniform oracle never decays the
    // aggregate variance slower than the overlay sampler on the same
    // engine under the same churn schedule (small tolerance: both decay
    // estimates are finite-sample).
    #[test]
    fn oracle_decay_never_trails_overlay_under_churn(
        nodes in 100usize..180,
        seed in 0u64..50,
    ) {
        let schedule = "quiet:4,kill:0.2,churn:0.01x8";
        let compiled = Workload::parse(schedule, seed).unwrap().compile(nodes);
        let decay = |sampler: Sampler| {
            let app = AppConfig { fanout: 2, sampler, seed: seed ^ 0xa99 };
            let config = ProtocolConfig::new(PolicyTriple::newscast(), 12).unwrap();
            let mut sim = scenario::random_overlay(&config, nodes, seed);
            let (_, report) = run_under_workload(&mut sim, &compiled, 12, &app);
            report.decay_factor()
        };
        let oracle = decay(Sampler::Oracle);
        let overlay = decay(Sampler::Overlay);
        prop_assert!(
            oracle <= overlay + 0.05,
            "oracle decay {oracle:.3} > overlay decay {overlay:.3}"
        );
    }
}
