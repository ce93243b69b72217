//! Continuous churn processes over a running simulation.
//!
//! The paper studies a single catastrophic failure (Section 7); real
//! deployments see *continuous* arrival and departure. This module drives a
//! simulation through sustained churn — each cycle a configurable number of
//! random nodes crash and fresh nodes join via random live contacts — so
//! the steady-state quality of the overlay under turnover can be measured.

use pss_core::GossipNode;

use crate::{Mode, Sharded};

/// Deterministic fractional-rate rounding: converts a stream of expected
/// per-step counts into integers by carrying the fractional remainder
/// forward.
///
/// After any number of steps the emitted total differs from the exact sum
/// of expectations by strictly less than one (the outstanding carry), so
/// `k` steps at a constant expectation `r·N` emit `⌊r·N·k⌋` or `⌈r·N·k⌉`
/// events — never drifting, never random. [`ChurnProcess`] uses one
/// accumulator per direction, and workload schedules
/// ([`crate::workload`]) compile churn phases through the same arithmetic,
/// which is what makes the membership trajectory identical across engines
/// and the deployed runtime.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RateAccumulator {
    carry: f64,
}

impl RateAccumulator {
    /// A fresh accumulator with zero carry.
    pub fn new() -> Self {
        RateAccumulator::default()
    }

    /// Adds `expected` events to the accumulator and returns the integer
    /// count due now; the fractional remainder carries to the next step.
    ///
    /// # Panics
    ///
    /// Panics if `expected` is negative or not finite.
    pub fn step(&mut self, expected: f64) -> usize {
        assert!(
            expected >= 0.0 && expected.is_finite(),
            "expected count must be a non-negative finite number"
        );
        self.carry += expected;
        let due = self.carry.floor();
        self.carry -= due;
        due as usize
    }

    /// The outstanding fractional carry, always in `[0, 1)`.
    pub fn carry(&self) -> f64 {
        self.carry
    }
}

/// A sustained churn process: per-cycle departure and arrival rates.
///
/// Rates are expressed as fractions of the *current* live population, so a
/// `leave_rate` of 0.01 kills 1 % of live nodes each cycle. Fractional
/// expectations are rounded deterministically by a carry accumulator
/// ([`RateAccumulator`]): 0.5 expected kills become one kill every second
/// cycle. Which *specific* nodes die or serve as join contacts is drawn
/// from the driven engine's own control RNG, so the process itself holds
/// no randomness — churn event *counts* are a pure function of the rates
/// and the live-population trajectory.
///
/// # Examples
///
/// ```
/// use pss_core::{PolicyTriple, ProtocolConfig};
/// use pss_sim::{scenario, ChurnProcess};
///
/// let config = ProtocolConfig::new(PolicyTriple::newscast(), 20)?;
/// let mut sim = scenario::random_overlay(&config, 500, 3);
/// sim.run_cycles(20);
///
/// let mut churn = ChurnProcess::balanced(0.02, 2);
/// for _ in 0..30 {
///     churn.step(&mut sim);
///     sim.run_cycle();
/// }
/// // Population stays roughly stable under balanced churn.
/// assert!(sim.alive_count() > 400 && sim.alive_count() < 600);
/// # Ok::<(), pss_core::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ChurnProcess {
    leave_rate: f64,
    join_rate: f64,
    contacts_per_join: usize,
    leaves: RateAccumulator,
    joins: RateAccumulator,
}

impl ChurnProcess {
    /// Creates a churn process with independent leave and join rates.
    ///
    /// # Panics
    ///
    /// Panics if either rate is negative or not finite.
    pub fn new(leave_rate: f64, join_rate: f64, contacts_per_join: usize) -> Self {
        assert!(
            leave_rate >= 0.0 && leave_rate.is_finite(),
            "leave rate must be a non-negative finite number"
        );
        assert!(
            join_rate >= 0.0 && join_rate.is_finite(),
            "join rate must be a non-negative finite number"
        );
        ChurnProcess {
            leave_rate,
            join_rate,
            contacts_per_join,
            leaves: RateAccumulator::new(),
            joins: RateAccumulator::new(),
        }
    }

    /// Balanced churn: equal leave and join rates, keeping the expected
    /// population constant.
    pub fn balanced(rate: f64, contacts_per_join: usize) -> Self {
        ChurnProcess::new(rate, rate, contacts_per_join)
    }

    /// The per-cycle departure rate.
    pub fn leave_rate(&self) -> f64 {
        self.leave_rate
    }

    /// The per-cycle arrival rate.
    pub fn join_rate(&self) -> f64 {
        self.join_rate
    }

    /// Applies one churn step: kills and joins according to the rates.
    /// Returns `(killed, joined)` counts. Works on either engine — the
    /// cycle-driven or the event-driven one.
    ///
    /// Call once per cycle, before or after [`Sharded::run_cycle`].
    pub fn step<N: GossipNode + Send, M: Mode>(
        &mut self,
        sim: &mut Sharded<N, M>,
    ) -> (usize, usize) {
        let live = sim.alive_count() as f64;
        let kills = self.leaves.step(live * self.leave_rate);
        let joins = self.joins.step(live * self.join_rate);
        let killed = sim.kill_random(kills).len();
        let joined = sim
            .add_nodes_with_random_contacts(joins, self.contacts_per_join)
            .len();
        (killed, joined)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{scenario, ShardedSimulation};
    use pss_core::{PolicyTriple, ProtocolConfig};
    use pss_graph::components;

    fn sim(n: usize, c: usize, seed: u64) -> ShardedSimulation<pss_core::PeerSamplingNode> {
        let config = ProtocolConfig::new(PolicyTriple::newscast(), c).unwrap();
        let mut s = scenario::random_overlay(&config, n, seed);
        s.run_cycles(15);
        s
    }

    #[test]
    #[should_panic(expected = "leave rate")]
    fn negative_leave_rate_rejected() {
        let _ = ChurnProcess::new(-0.1, 0.0, 1);
    }

    #[test]
    #[should_panic(expected = "join rate")]
    fn nan_join_rate_rejected() {
        let _ = ChurnProcess::new(0.1, f64::NAN, 1);
    }

    #[test]
    fn zero_rates_do_nothing() {
        let mut s = sim(100, 10, 1);
        let mut churn = ChurnProcess::new(0.0, 0.0, 1);
        let (killed, joined) = churn.step(&mut s);
        assert_eq!((killed, joined), (0, 0));
        assert_eq!(s.alive_count(), 100);
    }

    #[test]
    fn balanced_churn_keeps_population_stable() {
        let mut s = sim(300, 15, 3);
        let mut churn = ChurnProcess::balanced(0.05, 2);
        for _ in 0..40 {
            churn.step(&mut s);
            s.run_cycle();
        }
        let live = s.alive_count();
        assert!((200..=400).contains(&live), "population drifted to {live}");
    }

    #[test]
    fn overlay_survives_sustained_churn() {
        let mut s = sim(400, 20, 5);
        let mut churn = ChurnProcess::balanced(0.02, 3);
        for _ in 0..50 {
            churn.step(&mut s);
            s.run_cycle();
        }
        let g = s.snapshot().undirected();
        let report = components::connected_components(&g);
        // Head view selection keeps the live overlay essentially whole.
        assert!(
            report.largest() * 100 >= g.node_count() * 98,
            "largest component {} of {}",
            report.largest(),
            g.node_count()
        );
    }

    #[test]
    fn pure_departures_shrink_population() {
        let mut s = sim(200, 10, 7);
        let mut churn = ChurnProcess::new(0.1, 0.0, 1);
        for _ in 0..10 {
            churn.step(&mut s);
            s.run_cycle();
        }
        assert!(s.alive_count() < 120, "still {} alive", s.alive_count());
    }

    #[test]
    fn accumulator_rounding_matches_expectation_exactly() {
        let mut acc = RateAccumulator::new();
        let total: usize = (0..2000).map(|_| acc.step(0.25)).sum();
        // 2000 × 0.25 = 500 exactly; the carry bound allows at most ±1.
        assert_eq!(total, 500);
        assert!(acc.carry() < 1.0);
    }

    #[test]
    fn accessors() {
        let churn = ChurnProcess::new(0.01, 0.02, 3);
        assert_eq!(churn.leave_rate(), 0.01);
        assert_eq!(churn.join_rate(), 0.02);
    }
}
