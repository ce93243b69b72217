//! The cycle-engine abstraction shared by observers and churn drivers.

use pss_core::{GossipNode, NodeDescriptor, NodeId, View};

use crate::shard::{Mode, Sharded};
use crate::workload::Partition;
use crate::{CycleReport, Snapshot};

/// What both engines expose to generic drivers: the cycle-driven
/// [`crate::ShardedSimulation`] and the event-driven
/// [`crate::ShardedEventSimulation`] implement this, so observers
/// ([`crate::observe`]) and churn processes ([`crate::ChurnProcess`]) run
/// unchanged on either.
pub trait Engine {
    /// Runs one full cycle and reports what happened.
    fn run_cycle(&mut self) -> CycleReport;

    /// Number of cycles run so far.
    fn cycle(&self) -> u64;

    /// Total nodes ever added (dead slots included).
    fn node_count(&self) -> usize;

    /// Number of live nodes.
    fn alive_count(&self) -> usize;

    /// True if `id` exists and is alive.
    fn is_alive(&self, id: NodeId) -> bool;

    /// Ids of all live nodes, in increasing order.
    fn alive_ids(&self) -> Vec<NodeId>;

    /// The view of a live node.
    fn view_of(&self, id: NodeId) -> Option<&View>;

    /// Descriptors in live views that point to dead nodes.
    fn dead_link_count(&self) -> usize;

    /// Builds the communication-graph snapshot over live nodes.
    fn snapshot(&self) -> Snapshot;

    /// Kills one node (crash-stop). Returns false if already dead/unknown.
    fn kill(&mut self, id: NodeId) -> bool;

    /// Kills a uniform-random set of `count` live nodes and returns them.
    fn kill_random(&mut self, count: usize) -> Vec<NodeId>;

    /// Adds `count` nodes, each bootstrapped with `contacts` uniform-random
    /// live contacts. Returns the new ids.
    fn add_nodes_with_random_contacts(&mut self, count: usize, contacts: usize) -> Vec<NodeId>;

    /// Adds one node bootstrapped off exactly these contacts (fresh
    /// descriptors) and returns its id — the deterministic join primitive
    /// workload schedules use ([`crate::workload`]).
    fn add_seeded_node(&mut self, contacts: &[NodeId]) -> NodeId;

    /// Installs (`Some`) or lifts (`None`) a partition loss matrix:
    /// messages between different [`Partition`] groups are silently
    /// dropped (counted with the engine's dropped-message statistic).
    fn set_partition(&mut self, partition: Option<Partition>);
}

// One impl for both engines: the membership API is [`Sharded`]'s own, and
// `run_cycle` is the mode's — a cycle, or one gossip period projected onto
// the cycle report shape (see `EventReport::as_cycle_report`) — so
// observers and churn processes run unchanged on either.
impl<N: GossipNode + Send, M: Mode> Engine for Sharded<N, M> {
    fn run_cycle(&mut self) -> CycleReport {
        self.run_cycle()
    }
    fn cycle(&self) -> u64 {
        self.cycle()
    }
    fn node_count(&self) -> usize {
        self.node_count()
    }
    fn alive_count(&self) -> usize {
        self.alive_count()
    }
    fn is_alive(&self, id: NodeId) -> bool {
        self.is_alive(id)
    }
    fn alive_ids(&self) -> Vec<NodeId> {
        self.alive_ids()
    }
    fn view_of(&self, id: NodeId) -> Option<&View> {
        self.view_of(id)
    }
    fn dead_link_count(&self) -> usize {
        self.dead_link_count()
    }
    fn snapshot(&self) -> Snapshot {
        self.snapshot()
    }
    fn kill(&mut self, id: NodeId) -> bool {
        self.kill(id)
    }
    fn kill_random(&mut self, count: usize) -> Vec<NodeId> {
        self.kill_random(count)
    }
    fn add_nodes_with_random_contacts(&mut self, count: usize, contacts: usize) -> Vec<NodeId> {
        self.add_nodes_with_random_contacts(count, contacts)
    }
    fn add_seeded_node(&mut self, contacts: &[NodeId]) -> NodeId {
        self.add_node(contacts.iter().map(|&id| NodeDescriptor::fresh(id)))
    }
    fn set_partition(&mut self, partition: Option<Partition>) {
        self.set_partition(partition)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventConfig, ShardedEventSimulation, ShardedSimulation};
    use pss_core::{PolicyTriple, ProtocolConfig};

    fn config() -> ProtocolConfig {
        ProtocolConfig::new(PolicyTriple::newscast(), 5).unwrap()
    }

    /// A generic driver touching every trait method, instantiated with both
    /// engines. Returns the first cycle's report.
    fn exercise<E: Engine>(sim: &mut E) -> CycleReport {
        // Engine has no add_node; churn-join works once one node exists, so
        // the concrete constructors below pre-seed two nodes.
        sim.add_nodes_with_random_contacts(18, 2);
        let report = sim.run_cycle();
        assert_eq!(sim.cycle(), 1);
        assert!(sim.node_count() >= sim.alive_count());
        let ids = sim.alive_ids();
        assert!(sim.is_alive(ids[0]));
        assert!(sim.view_of(ids[0]).is_some());
        let _ = sim.snapshot();
        let killed = sim.kill_random(2);
        assert_eq!(killed.len(), 2);
        assert!(sim.kill(ids.iter().copied().find(|i| sim.is_alive(*i)).unwrap()));
        assert!(sim.dead_link_count() > 0);
        let joined = sim.add_nodes_with_random_contacts(3, 2);
        assert_eq!(joined.len(), 3);
        let live = sim.alive_ids()[0];
        let seeded = sim.add_seeded_node(&[live]);
        assert!(sim.is_alive(seeded));
        sim.set_partition(Some(Partition::new(2)));
        sim.run_cycle();
        sim.set_partition(None);
        sim.run_cycle();
        report
    }

    #[test]
    fn both_engines_drive_generically() {
        let mut cycle = ShardedSimulation::new(config(), 11, 3);
        cycle.add_node([]);
        cycle.add_node([NodeDescriptor::fresh(NodeId::new(0))]);
        // In the cycle model every live node initiates exactly once.
        assert_eq!(exercise(&mut cycle).initiated(), 20);

        let mut event =
            ShardedEventSimulation::new(config(), EventConfig::default(), 11, 3).expect("valid");
        event.add_node([]);
        event.add_node([NodeDescriptor::fresh(NodeId::new(0))]);
        // A period's exchanges may still be in flight when it ends.
        assert!(exercise(&mut event).completed > 0);
    }
}
