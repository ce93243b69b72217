//! Driving the network runtime through `pss-sim` workload schedules.
//!
//! [`RuntimeWorkload`] wraps one [`NetRuntime`] (any transport) and
//! implements [`pss_sim::workload::WorkloadTarget`], so the exact same
//! [`CompiledWorkload`](pss_sim::workload::CompiledWorkload) that drives
//! the simulators — same kills, same joins, same contacts, same
//! partition windows — executes against the deployed stack: real wire
//! frames, the timer queue, the address book. Over the deterministic
//! in-memory mesh ([`crate::MemNetwork`]) the whole trajectory is
//! bit-reproducible per seed; the conformance tests pin it statistically
//! against the event engine. For the multi-runtime loopback UDP version
//! see [`crate::cluster`], the same trait over K runtime threads.

use pss_core::wire::NetAddr;
use pss_core::{GossipNode, NodeId, PeerSamplingNode, ProtocolConfig};
use pss_sim::workload::{Partition, WorkloadTarget};

use crate::runtime::NetRuntime;
use crate::transport::Transport;

/// SplitMix64 finalizer shared with the cluster harness for
/// `(seed, id)`-pure node seeds.
pub(crate) fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `(seed, id)`-pure node seed, shared by the cluster harness and
/// [`RuntimeWorkload`] so a node's RNG stream does not depend on which
/// harness hosts it.
pub(crate) fn node_seed(seed: u64, id: u64) -> u64 {
    mix(seed ^ 0x5eed ^ id.wrapping_mul(0x2545_f491_4f6c_dd1d))
}

/// A single [`NetRuntime`] hosting the whole population, driven as a
/// [`WorkloadTarget`]; see the [module docs](self).
///
/// The population is produced by a node builder `(id, node_seed) → N`, so
/// mixed honest/adversarial populations (e.g.
/// `pss_sim::audit::role_factory`) plug straight in via
/// [`RuntimeWorkload::with_builder`]; [`RuntimeWorkload::new`] is the
/// all-honest [`PeerSamplingNode`] special case.
pub struct RuntimeWorkload<T: Transport, N: GossipNode = PeerSamplingNode> {
    runtime: NetRuntime<T, N>,
    builder: Box<dyn Fn(NodeId, u64) -> N + Send>,
    seed: u64,
}

impl<T: Transport> RuntimeWorkload<T> {
    /// Wraps `runtime`, hosting `initial_nodes` honest
    /// [`PeerSamplingNode`]s with ids `0..initial_nodes` bootstrapped in
    /// the simulators' tree pattern (node `i` is introduced to node
    /// `i / 2`). Node RNG seeds are `(seed, id)`-pure.
    pub fn new(
        runtime: NetRuntime<T, PeerSamplingNode>,
        protocol: ProtocolConfig,
        seed: u64,
        initial_nodes: usize,
    ) -> Self {
        Self::with_builder(
            runtime,
            move |id, node_seed| PeerSamplingNode::with_seed(id, protocol.clone(), node_seed),
            seed,
            initial_nodes,
        )
    }
}

impl<T: Transport, N: GossipNode> RuntimeWorkload<T, N> {
    /// Wraps `runtime`, hosting `initial_nodes` nodes built by `builder`
    /// (tree-pattern bootstrap, `(seed, id)`-pure node seeds — identical
    /// to [`RuntimeWorkload::new`] apart from the node construction).
    pub fn with_builder(
        mut runtime: NetRuntime<T, N>,
        builder: impl Fn(NodeId, u64) -> N + Send + 'static,
        seed: u64,
        initial_nodes: usize,
    ) -> Self {
        let addr = runtime.local_addr();
        for i in 0..initial_nodes as u64 {
            let node = builder(NodeId::new(i), node_seed(seed, i));
            let introducers: Vec<(NodeId, NetAddr)> = if i == 0 {
                Vec::new()
            } else {
                vec![(NodeId::new(i / 2), addr)]
            };
            runtime.add_node(node, &introducers);
        }
        RuntimeWorkload {
            runtime,
            builder: Box::new(builder),
            seed,
        }
    }

    /// The wrapped runtime.
    pub fn runtime(&self) -> &NetRuntime<T, N> {
        &self.runtime
    }

    /// Mutable access to the wrapped runtime (e.g. to drive extra time or
    /// read counters mid-schedule).
    pub fn runtime_mut(&mut self) -> &mut NetRuntime<T, N> {
        &mut self.runtime
    }
}

impl<T: Transport, N: GossipNode> WorkloadTarget for RuntimeWorkload<T, N> {
    fn kill(&mut self, id: NodeId) -> bool {
        self.runtime.leave(id)
    }

    fn join(&mut self, id: NodeId, contacts: &[NodeId]) {
        let addr = self.runtime.local_addr();
        let node = (self.builder)(id, node_seed(self.seed, id.as_u64()));
        let introducers: Vec<(NodeId, NetAddr)> = contacts.iter().map(|&c| (c, addr)).collect();
        self.runtime.add_node(node, &introducers);
    }

    fn set_partition(&mut self, partition: Option<Partition>) {
        self.runtime.set_partition(partition);
    }

    fn run_period(&mut self) {
        let period = self.runtime.config().period;
        let now = self.runtime.now();
        self.runtime.run_until(now + period);
    }

    fn collect_rows(&self, rows: &mut Vec<(NodeId, Vec<NodeId>)>) {
        let start = rows.len();
        self.runtime.for_each_live_view(|id, view| {
            rows.push((id, view.ids().collect()));
        });
        // Hosted in add order = id order here, but keep the contract
        // explicit.
        rows[start..].sort_by_key(|(id, _)| *id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemNetwork;
    use crate::runtime::NetConfig;
    use pss_core::PolicyTriple;
    use pss_sim::workload::{run_workload, Workload};
    use pss_sim::LatencyModel;

    fn harness(n: usize, seed: u64) -> RuntimeWorkload<crate::MemTransport> {
        let net = MemNetwork::new(seed ^ 0x77, LatencyModel::Uniform { min: 1, max: 10 }, 0.0)
            .expect("valid");
        let protocol = ProtocolConfig::new(PolicyTriple::newscast(), 8).unwrap();
        let runtime = NetRuntime::new(
            net.endpoint(),
            NetConfig {
                period: 100,
                jitter: 20,
                reply_timeout: 100,
            },
            seed,
        )
        .expect("valid");
        RuntimeWorkload::new(runtime, protocol, seed, n)
    }

    #[test]
    fn workload_runs_on_the_mem_runtime() {
        let mut target = harness(60, 9);
        let compiled = Workload::parse("quiet:8,kill:0.5,churn:0.02x8", 5)
            .unwrap()
            .compile(60);
        let records = run_workload(&mut target, &compiled, 8);
        assert_eq!(records.len(), 16);
        // Converged before the kill, live population halved after it.
        assert!(records[7].full_fraction() >= 0.95, "{:?}", records[7]);
        assert!(records[8].live <= 32, "{:?}", records[8]);
        // Recovery: dead links decay, overlay stays whole, codec clean.
        let last = records.last().unwrap();
        assert!(last.dead_link_fraction() < 0.15, "{last:?}");
        assert!(last.component_fraction() > 0.9, "{last:?}");
        let stats = target.runtime().stats();
        assert_eq!(stats.decode_failures(), 0, "{stats:?}");
    }

    #[test]
    fn workload_trajectory_is_deterministic_per_seed() {
        let run = || {
            let mut target = harness(40, 3);
            let compiled = Workload::parse("quiet:4,part:2x3,quiet:3", 2)
                .unwrap()
                .compile(40);
            let records = run_workload(&mut target, &compiled, 8);
            let stats = target.runtime().stats();
            (records, stats)
        };
        let (a, sa) = run();
        let (b, sb) = run();
        assert_eq!(sa, sb);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.in_degree_mean.to_bits(), y.in_degree_mean.to_bits());
            assert_eq!(x.live, y.live);
            assert_eq!(x.dead_links, y.dead_links);
        }
        assert!(sa.partition_blocked > 0, "partition never blocked: {sa:?}");
    }
}
