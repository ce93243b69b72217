//! The paper's starting overlays, plus generic graph-seeded setup.
//!
//! Section 5 of the paper evaluates convergence from three initial
//! conditions. Two are starting overlays built here:
//!
//! * **ring lattice** ([`seed_from_digraph`] over [`gen::ring_lattice`]) —
//!   a structured, large-diameter start,
//! * **random** ([`random_overlay`]) — views are uniform random samples
//!   (the baseline topology itself).
//!
//! The third, the **growing overlay** — start from a single node; 100
//! nodes join per cycle knowing only the oldest node, until N = 10⁴
//! (reached at cycle 100) — is a schedule, not a start: one node, then the
//! workload phase `grow:9999/100` ([`crate::workload::PhaseSpec::Grow`]),
//! so it runs on every stack a workload drives.

use pss_core::{GossipNode, NodeDescriptor, NodeId, PeerSamplingNode, ProtocolConfig};
use pss_graph::csr::Csr;
use pss_graph::gen;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::shard::{Mode, Sharded};
use crate::{EventConfig, EventConfigError, ShardedEventSimulation, ShardedSimulation};

/// Seeds an empty engine so that node `i`'s view holds a fresh descriptor
/// per out-neighbor of `i` in the directed `graph` — one loop for both
/// engines and every node type.
///
/// Deliberately **serial** (`add_node`: node seeds, and on the event engine
/// timer phases, from the control RNG in join order — unlike the bulk path
/// of [`random_overlay_sharded`]): the 1-shard trajectories every figure
/// experiment rides on are pinned on exactly these draws.
///
/// # Panics
///
/// Panics if any out-degree exceeds `view_size`.
pub fn seed_from_digraph<N: GossipNode + Send, M: Mode>(
    sim: &mut Sharded<N, M>,
    view_size: usize,
    graph: &Csr,
) {
    sim.plan_capacity(graph.node_count());
    for v in 0..graph.node_count() as u32 {
        let out = graph.neighbors(v);
        assert!(
            out.len() <= view_size,
            "initial out-degree {} exceeds view size {}",
            out.len(),
            view_size
        );
        sim.add_node(
            out.iter()
                .map(|&t| NodeDescriptor::fresh(NodeId::new(t as u64))),
        );
    }
}

/// Seeds an empty engine with `n` nodes in a binary tree: node 0 knows
/// nobody, node `i` knows node `i / 2` — the minimal connected bootstrap
/// the workload, adversary and application runs converge from, on both
/// engines. Serial like [`seed_from_digraph`], for the same reason: the
/// trajectories pinned on those runs ride on `add_node`'s control-RNG
/// draws in id order.
pub fn seed_tree<N: GossipNode + Send, M: Mode>(sim: &mut Sharded<N, M>, n: usize) {
    for i in 0..n as u64 {
        sim.add_node((i > 0).then(|| NodeDescriptor::fresh(NodeId::new(i / 2))));
    }
}

/// Builds a sequential (1-shard) simulation whose initial views replicate a
/// directed graph: node `i`'s view holds a fresh descriptor per
/// out-neighbor of `i`.
///
/// # Panics
///
/// Panics if any out-degree exceeds the configured view size (the scenario
/// would silently truncate otherwise).
pub fn from_digraph(
    config: &ProtocolConfig,
    graph: &Csr,
    seed: u64,
) -> ShardedSimulation<PeerSamplingNode> {
    let mut sim = ShardedSimulation::new(config.clone(), seed, 1);
    seed_from_digraph(&mut sim, config.view_size(), graph);
    sim
}

/// The random scenario: views are independent uniform samples of the other
/// nodes — the paper's baseline topology as the starting point.
pub fn random_overlay(
    config: &ProtocolConfig,
    n: usize,
    seed: u64,
) -> ShardedSimulation<PeerSamplingNode> {
    from_digraph(config, &random_digraph(n, config.view_size(), seed), seed)
}

/// The random scenario's start as a directed graph: every node's
/// out-neighbors are `c` uniform picks of the other nodes
/// ([`gen::uniform_view_digraph`]). The topology stream is derived from the
/// run seed but kept distinct from the engine's, so an engine built at
/// `seed` and seeded from this graph is [`random_overlay`] at any node type.
pub fn random_digraph(n: usize, c: usize, seed: u64) -> Csr {
    let mut topo_rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    gen::uniform_view_digraph(n, c, &mut topo_rng)
}

/// The random scenario at sharded scale: every node's initial view is an
/// independent uniform sample of the other nodes, generated **per node**
/// from `(seed, id)` — no N-sized intermediate graph is materialized, so
/// this is the bootstrap path for N = 10⁶ runs.
///
/// The topology depends only on `(seed, n, view size)`: runs with different
/// shard counts start from the *identical* overlay (the cycle dynamics then
/// diverge per the sharding contract, like a seed change would).
///
/// Construction is **worker-parallel** via [`Sharded::add_nodes_bulk`]:
/// node RNG seeds are `(seed, id)`-pure, so the built population is
/// bit-identical at any worker count. (Bulk seeds differ from the
/// control-RNG seeds serial `add_node` draws — switching this constructor
/// over reseeded its trajectories once, see the pinned-digest test.)
pub fn random_overlay_sharded(
    config: &ProtocolConfig,
    n: usize,
    seed: u64,
    shards: usize,
) -> ShardedSimulation<PeerSamplingNode> {
    let mut sim = ShardedSimulation::new(config.clone(), seed, shards);
    let want = config.view_size().min(n.saturating_sub(1));
    sim.add_nodes_bulk(n, move |id| random_view_for(seed, n, want, id.as_index()));
    sim
}

/// The per-node `(seed, id)`-pure uniform view used by the sharded random
/// scenarios: `want` distinct, self-excluding picks among the `n` nodes.
/// Pure in `(seed, n, want, i)`, so shard-parallel bulk construction and
/// driver-serial joins produce the identical topology.
fn random_view_for(
    seed: u64,
    n: usize,
    want: usize,
    i: usize,
) -> impl Iterator<Item = NodeDescriptor> {
    use rand::seq::index::sample;

    // Distinct, self-excluding uniform picks: sample from n−1 slots and
    // shift picks at or above the node's own index up by one.
    let mut view_rng = SmallRng::seed_from_u64(crate::exec::mix(
        seed ^ 0xd1b5_4a32_d192_ed03 ^ (i as u64).wrapping_mul(0x2545_f491_4f6c_dd1d),
    ));
    let picks = sample(&mut view_rng, n - 1, want);
    picks.into_iter().map(move |p| {
        let target = if p >= i { p + 1 } else { p };
        NodeDescriptor::fresh(NodeId::new(target as u64))
    })
}

/// The random scenario on the **event engine**: the same `(seed, id)`-pure
/// per-node views as [`random_overlay_sharded`] (so event and cycle runs at
/// equal `(seed, n, c)` start from the identical overlay), built
/// **worker-parallel** via [`Sharded::add_nodes_bulk`] — node seeds and
/// timer phases are pure in `(seed, id)` too, making the constructed
/// simulation bit-identical at any worker count.
///
/// # Errors
///
/// Returns an [`EventConfigError`] if `event` violates an invariant (for
/// multiple shards that includes a zero minimum latency — the lookahead
/// window).
pub fn event_random_overlay_sharded(
    config: &ProtocolConfig,
    event: EventConfig,
    n: usize,
    seed: u64,
    shards: usize,
) -> Result<ShardedEventSimulation<PeerSamplingNode>, EventConfigError> {
    let mut sim = ShardedEventSimulation::new(config.clone(), event, seed, shards)?;
    let want = config.view_size().min(n.saturating_sub(1));
    sim.add_nodes_bulk(n, move |id| random_view_for(seed, n, want, id.as_index()));
    Ok(sim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{run_workload, PeriodRecord, Workload};
    use pss_core::hs::{HsConfig, HsNode, HsPeerSelection};
    use pss_core::PolicyTriple;
    use pss_graph::components::connected_components;
    use pss_graph::csr::CsrBuilder;

    fn config(c: usize) -> ProtocolConfig {
        ProtocolConfig::new(PolicyTriple::newscast(), c).unwrap()
    }

    fn digraph(views: &[&[u32]]) -> Csr {
        let mut b = CsrBuilder::new();
        for view in views {
            b.push_node(view.iter().copied());
        }
        b.finish().unwrap()
    }

    fn three_nodes() -> Csr {
        digraph(&[&[1, 2], &[2], &[]])
    }

    /// The views of [`three_nodes`], on either engine and any node type.
    fn assert_replicates<N: GossipNode + Send, M: Mode>(sim: &Sharded<N, M>) {
        assert_eq!(sim.node_count(), 3);
        let v0 = sim.view_of(NodeId::new(0)).unwrap();
        assert!(v0.contains(NodeId::new(1)));
        assert!(v0.contains(NodeId::new(2)));
        assert!(sim.view_of(NodeId::new(2)).unwrap().is_empty());
    }

    #[test]
    fn from_digraph_replicates_views() {
        let sim = from_digraph(&config(5), &three_nodes(), 1);
        assert_replicates(&sim);
    }

    #[test]
    #[should_panic(expected = "exceeds view size")]
    fn from_digraph_rejects_oversized_views() {
        let g = digraph(&[&[1, 2, 3], &[], &[], &[]]);
        let _ = from_digraph(&config(2), &g, 1);
    }

    /// One node, then `schedule` (the growing overlay's `grow:` phase)
    /// run at view size `c`: the engine and its period records.
    fn grown(
        c: usize,
        schedule: &str,
        seed: u64,
    ) -> (ShardedSimulation<PeerSamplingNode>, Vec<PeriodRecord>) {
        let mut sim = ShardedSimulation::new(config(c), seed, 1);
        sim.add_node([]);
        let compiled = Workload::parse(schedule, seed).unwrap().compile(1);
        let records = run_workload(&mut sim, &compiled, c);
        (sim, records)
    }

    #[test]
    fn growing_reaches_target() {
        let (sim, records) = grown(5, "grow:49/10,quiet:1", 2);
        let live: Vec<usize> = records.iter().map(|r| r.live).collect();
        assert_eq!(live, [11, 21, 31, 41, 50, 50]);
        assert_eq!(sim.node_count(), 50);
    }

    #[test]
    fn growing_overlay_becomes_connected() {
        // c = 15 keeps a 60-node overlay above the connectivity threshold.
        let (sim, records) = grown(15, "grow:59/20,quiet:22", 3);
        assert_eq!(records.len(), 25);
        let g = sim.csr_snapshot().graph().undirected();
        assert!(connected_components(&g).is_connected());
    }

    #[test]
    fn lattice_overlay_views_are_ring_neighbors() {
        let sim = from_digraph(&config(4), &gen::ring_lattice(10, 4), 4);
        let v0 = sim.view_of(NodeId::new(0)).unwrap();
        for id in [1u64, 2, 8, 9] {
            assert!(v0.contains(NodeId::new(id)), "missing {id} in {v0}");
        }
    }

    #[test]
    fn random_overlay_has_full_views() {
        let sim = random_overlay(&config(10), 50, 5);
        for id in sim.alive_ids() {
            assert_eq!(sim.view_of(id).unwrap().len(), 10);
        }
    }

    #[test]
    fn random_overlay_differs_per_seed_but_not_per_run() {
        let degree = |seed: u64| {
            let sim = random_overlay(&config(10), 50, seed);
            sim.csr_snapshot().graph().undirected().degree(0)
        };
        assert_eq!(degree(7), degree(7));
    }

    #[test]
    fn sharded_random_overlay_topology_is_shard_count_invariant() {
        let views = |shards: usize| {
            let sim = random_overlay_sharded(&config(6), 40, 11, shards);
            (0..40u64)
                .map(|i| {
                    sim.view_of(NodeId::new(i))
                        .unwrap()
                        .ids()
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(views(1), views(3));
        assert_eq!(views(2), views(5));
    }

    #[test]
    fn sharded_random_overlay_views_are_full_and_self_free() {
        let sim = random_overlay_sharded(&config(10), 50, 5, 4);
        assert_eq!(sim.alive_count(), 50);
        for id in sim.alive_ids() {
            let view = sim.view_of(id).unwrap();
            assert_eq!(view.len(), 10);
            assert!(!view.contains(id));
        }
    }

    #[test]
    fn sharded_from_digraph_replicates_views() {
        let mut sim = ShardedSimulation::new(config(5), 1, 2);
        seed_from_digraph(&mut sim, 5, &three_nodes());
        assert_replicates(&sim);

        let hs = HsConfig::new(5, 1, 1, HsPeerSelection::Rand).unwrap();
        let mut sim =
            ShardedSimulation::with_factory(1, 2, move |id, seed| HsNode::with_seed(id, hs, seed));
        seed_from_digraph(&mut sim, 5, &three_nodes());
        assert_replicates(&sim);
    }

    #[test]
    fn event_random_overlay_matches_cycle_overlay_topology() {
        // The event scenario starts from the identical overlay as the cycle
        // scenario at equal (seed, n, c) — and is invariant across both
        // shard and worker counts (bulk construction is (seed, id)-pure).
        let event = EventConfig::default();
        let views = |sim_views: Vec<Vec<NodeId>>| sim_views;
        let cycle_views: Vec<Vec<NodeId>> = {
            let sim = random_overlay_sharded(&config(6), 40, 11, 2);
            (0..40u64)
                .map(|i| sim.view_of(NodeId::new(i)).unwrap().ids().collect())
                .collect()
        };
        for shards in [1usize, 3] {
            let sim = event_random_overlay_sharded(&config(6), event, 40, 11, shards).unwrap();
            let got: Vec<Vec<NodeId>> = (0..40u64)
                .map(|i| sim.view_of(NodeId::new(i)).unwrap().ids().collect())
                .collect();
            assert_eq!(views(got), cycle_views, "shards = {shards}");
        }
    }

    #[test]
    fn event_from_digraph_replicates_views() {
        let mut sim = ShardedEventSimulation::new(config(5), EventConfig::default(), 1, 2).unwrap();
        seed_from_digraph(&mut sim, 5, &three_nodes());
        assert_replicates(&sim);
    }
}
