//! Peer sources: where applications get their gossip partners from.

use pss_core::{GossipNode, NodeId, PeerSamplingNode};
use pss_sim::{Mode, Sharded, ShardedSimulation};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A per-node peer supply, the application-side face of the peer sampling
/// service: "provide a participating node … with a subset of peers … to send
/// gossip messages to".
///
/// Sources that sit on a live membership layer also expose it: [`is_live`]
/// classifies ids and [`live_ids`] enumerates the current population, so
/// protocols can denominate coverage and variance by who is actually
/// participating instead of a static id range.
///
/// [`is_live`]: SampleSource::is_live
/// [`live_ids`]: SampleSource::live_ids
pub trait SampleSource {
    /// Draws a peer for `node`, or `None` if the service knows none.
    fn sample_for(&mut self, node: NodeId) -> Option<NodeId>;

    /// Advances the underlying membership layer by one round, if it has one.
    /// The default does nothing (static sources).
    fn advance_round(&mut self) {}

    /// True if the service currently believes `node` participates. Static
    /// sources have no membership layer and report every id live.
    fn is_live(&self, _node: NodeId) -> bool {
        true
    }

    /// The current live membership in increasing id order, or `None` for
    /// static sources whose population is the protocol's full id range.
    fn live_ids(&self) -> Option<Vec<NodeId>> {
        None
    }
}

/// The gossip-based service: peers come from each node's partial view in a
/// live [`ShardedSimulation`], and the overlay keeps evolving one cycle per
/// application round.
///
/// Unlike [`EngineSampleSource`] this draws raw view entries, dead links
/// included — the price of a crashed peer surfaces as a `wasted` delivery in
/// the consuming protocol.
pub struct SimSampleSource<'a> {
    sim: &'a mut ShardedSimulation<PeerSamplingNode>,
}

impl<'a> SimSampleSource<'a> {
    /// Wraps a simulation as a peer source.
    pub fn new(sim: &'a mut ShardedSimulation<PeerSamplingNode>) -> Self {
        SimSampleSource { sim }
    }
}

impl SampleSource for SimSampleSource<'_> {
    fn sample_for(&mut self, node: NodeId) -> Option<NodeId> {
        self.sim.get_peer(node)
    }

    fn advance_round(&mut self) {
        self.sim.run_cycle();
    }

    fn is_live(&self, node: NodeId) -> bool {
        self.sim.is_alive(node)
    }

    fn live_ids(&self) -> Option<Vec<NodeId>> {
        Some(self.sim.alive_ids())
    }
}

/// The peer sampling service over either engine — [`Sharded`] under the
/// cycle-driven or the event-driven [`Mode`], at any shard count.
///
/// Sampling filters each node's view down to currently-live peers (the
/// service-level contract: a sample is a node you can actually gossip with)
/// and draws uniformly from that subset with the source's own RNG, so
/// attaching an application never perturbs the engine's deterministic
/// digest. [`advance_round`](SampleSource::advance_round) runs one engine
/// cycle / period.
pub struct EngineSampleSource<'a, N: GossipNode + Send, M: Mode> {
    engine: &'a mut Sharded<N, M>,
    rng: SmallRng,
    scratch: Vec<NodeId>,
}

impl<'a, N: GossipNode + Send, M: Mode> EngineSampleSource<'a, N, M> {
    /// Wraps an engine; `seed` drives only the sampling choices, never the
    /// engine's own RNG streams.
    pub fn new(engine: &'a mut Sharded<N, M>, seed: u64) -> Self {
        EngineSampleSource {
            engine,
            rng: SmallRng::seed_from_u64(seed ^ 0x005a_17ab_1e0f_f00d),
            scratch: Vec::new(),
        }
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &Sharded<N, M> {
        self.engine
    }
}

impl<N: GossipNode + Send, M: Mode> SampleSource for EngineSampleSource<'_, N, M> {
    fn sample_for(&mut self, node: NodeId) -> Option<NodeId> {
        let view = self.engine.view_of(node)?;
        self.scratch.clear();
        for id in view.ids() {
            if self.engine.is_alive(id) {
                self.scratch.push(id);
            }
        }
        if self.scratch.is_empty() {
            return None;
        }
        let pick = self.rng.random_range(0..self.scratch.len());
        Some(self.scratch[pick])
    }

    fn advance_round(&mut self) {
        self.engine.run_cycle();
    }

    fn is_live(&self, node: NodeId) -> bool {
        self.engine.is_alive(node)
    }

    fn live_ids(&self) -> Option<Vec<NodeId>> {
        Some(self.engine.alive_ids())
    }
}

/// The ideal service: independent uniform samples over the full membership
/// `0..n`, excluding the asking node. The baseline all gossip theory
/// assumes.
#[derive(Debug, Clone)]
pub struct OracleSource {
    n: u64,
    rng: SmallRng,
}

impl OracleSource {
    /// Creates an oracle over nodes `0..n`.
    pub fn new(n: usize, seed: u64) -> Self {
        OracleSource {
            n: n as u64,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl SampleSource for OracleSource {
    fn sample_for(&mut self, node: NodeId) -> Option<NodeId> {
        if self.n == 0 {
            return None;
        }
        if node.as_u64() >= self.n {
            // The asker is outside the oracle's id space (a late joiner, on
            // schedules that grow past the initial population): there is no
            // self to exclude, so sample uniformly over the whole group.
            // The exclusion shift below would never fire and silently drop
            // id n-1 from the support.
            return Some(NodeId::new(self.rng.random_range(0..self.n)));
        }
        if self.n == 1 {
            return None;
        }
        // Uniform over the other n-1 nodes.
        let r = self.rng.random_range(0..self.n - 1);
        Some(NodeId::new(if r >= node.as_u64() { r + 1 } else { r }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pss_core::{PolicyTriple, ProtocolConfig};
    use pss_sim::{scenario, ShardedSimulation};

    #[test]
    fn oracle_excludes_self_and_covers_all() {
        let mut o = OracleSource::new(10, 3);
        let asker = NodeId::new(4);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..500 {
            let p = o.sample_for(asker).unwrap();
            assert_ne!(p, asker);
            assert!(p.as_u64() < 10);
            seen.insert(p);
        }
        assert_eq!(seen.len(), 9);
    }

    #[test]
    fn oracle_gives_full_support_to_out_of_range_askers() {
        // Regression: the exclusion shift used to clip id n-1 out of the
        // support whenever the asker sat outside 0..n — exactly the ids
        // churn and flash-crowd joiners carry.
        for asker in [10u64, 11, 1_000] {
            let mut o = OracleSource::new(10, 7);
            let asker = NodeId::new(asker);
            let mut seen = std::collections::HashSet::new();
            for _ in 0..500 {
                let p = o.sample_for(asker).unwrap();
                assert!(p.as_u64() < 10);
                seen.insert(p);
            }
            assert_eq!(seen.len(), 10, "support clipped for asker {asker}");
        }
        // A group of one has no other member for an insider, but an
        // outsider can still be pointed at the sole member.
        let mut o = OracleSource::new(1, 3);
        assert_eq!(o.sample_for(NodeId::new(5)), Some(NodeId::new(0)));
    }

    #[test]
    fn oracle_trivial_group() {
        let mut o = OracleSource::new(1, 3);
        assert!(o.sample_for(NodeId::new(0)).is_none());
        let mut o = OracleSource::new(0, 3);
        assert!(o.sample_for(NodeId::new(0)).is_none());
    }

    #[test]
    fn sim_source_draws_from_views_and_advances() {
        let config = ProtocolConfig::new(PolicyTriple::newscast(), 5).unwrap();
        let mut sim = scenario::random_overlay(&config, 30, 4);
        let before = sim.cycle();
        let mut src = SimSampleSource::new(&mut sim);
        let p = src.sample_for(NodeId::new(0)).unwrap();
        assert!(p.as_u64() < 30);
        assert!(src.is_live(NodeId::new(0)));
        assert_eq!(src.live_ids().unwrap().len(), 30);
        src.advance_round();
        assert_eq!(sim.cycle(), before + 1);
    }

    #[test]
    fn engine_source_samples_only_live_peers() {
        let config = ProtocolConfig::new(PolicyTriple::newscast(), 8).unwrap();
        let mut sim = scenario::random_overlay(&config, 40, 9);
        sim.run_cycles(5);
        // Kill a third of the population; raw views now hold dead links,
        // but the engine source must never hand one out.
        let killed = sim.kill_random(13);
        let dead: std::collections::HashSet<NodeId> = killed.into_iter().collect();
        let mut src = EngineSampleSource::new(&mut sim, 42);
        let live = src.live_ids().unwrap();
        assert_eq!(live.len(), 27);
        for &id in live.iter() {
            assert!(src.is_live(id));
            for _ in 0..20 {
                if let Some(p) = src.sample_for(id) {
                    assert!(!dead.contains(&p), "sampled dead peer {p}");
                }
            }
        }
        // Dead and unknown askers have no view to sample from.
        let dead_id = *dead.iter().next().unwrap();
        assert!(src.sample_for(dead_id).is_none());
        assert!(src.sample_for(NodeId::new(10_000)).is_none());
    }

    #[test]
    fn engine_source_runs_on_the_sharded_engine() {
        let config = ProtocolConfig::new(PolicyTriple::newscast(), 8).unwrap();
        let mut sim = ShardedSimulation::new(config, 11, 2);
        sim.add_node([]);
        sim.add_node([pss_core::NodeDescriptor::fresh(NodeId::new(0))]);
        sim.add_nodes_with_random_contacts(30, 3);
        let before = sim.cycle();
        let mut src = EngineSampleSource::new(&mut sim, 1);
        for _ in 0..5 {
            src.advance_round();
        }
        let live = src.live_ids().unwrap();
        assert_eq!(live.len(), 32);
        let p = live
            .iter()
            .find_map(|&id| src.sample_for(id))
            .expect("some converged node can sample");
        assert!(src.is_live(p));
        assert_eq!(src.engine().cycle(), before + 5);
    }
}
