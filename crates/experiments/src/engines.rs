//! The engine pair every cross-engine command runs its schedule on.

use pss_core::{GossipNode, NodeId, PeerSamplingNode, ProtocolConfig};
use pss_sim::{
    scenario, EventConfig, LatencyModel, Mode, Sharded, ShardedEventSimulation, ShardedSimulation,
    WorkloadTarget,
};

/// The node factory of a population running the paper's generic protocol
/// under `protocol` — what `ShardedSimulation::new` builds.
pub(crate) fn sampling_nodes(
    protocol: ProtocolConfig,
) -> impl Fn(NodeId, u64) -> PeerSamplingNode + Clone + Send + Sync + 'static {
    move |id, seed| PeerSamplingNode::with_seed(id, protocol.clone(), seed)
}

/// Runs `drive` on the sharded cycle engine, then on the sharded event
/// engine (per period: 20 % timer jitter, 1–20 % latency, 1 % loss): each
/// built from `factory` at `(seed, shards)` and tree-bootstrapped to
/// `nodes` nodes ([`scenario::seed_tree`]). `drive` is told which engine it
/// holds (`"cycle"` or `"event"`); the two results come back in that order.
///
/// # Errors
///
/// Returns the event engine's configuration error text (a shard count its
/// lookahead window cannot serve).
pub(crate) fn on_both_engines<N: GossipNode + Send + 'static, R>(
    factory: impl Fn(NodeId, u64) -> N + Clone + Send + Sync + 'static,
    nodes: usize,
    seed: u64,
    shards: usize,
    workers: Option<usize>,
    mut drive: impl FnMut(&'static str, &mut dyn WorkloadTarget) -> R,
) -> Result<[R; 2], String> {
    fn bootstrap<N: GossipNode + Send, M: Mode>(
        mut sim: Sharded<N, M>,
        nodes: usize,
        workers: Option<usize>,
    ) -> Sharded<N, M> {
        scenario::seed_tree(&mut sim, nodes);
        if let Some(w) = workers {
            sim.set_workers(w);
        }
        sim
    }

    let cycle = ShardedSimulation::with_factory(seed, shards, factory.clone());
    let cycle = drive("cycle", &mut bootstrap(cycle, nodes, workers));

    let event_config = EventConfig {
        period: 1000,
        jitter: 200,
        latency: LatencyModel::Uniform { min: 10, max: 200 },
        loss_probability: 0.01,
    };
    let event = ShardedEventSimulation::with_factory(event_config, seed, shards, factory)
        .map_err(|e| e.to_string())?;
    let event = drive("event", &mut bootstrap(event, nodes, workers));
    Ok([cycle, event])
}
