//! The sharded population both engines run on.
//!
//! [`Sharded`] is everything the cycle engine ([`crate::ShardedSimulation`])
//! and the event engine ([`crate::ShardedEventSimulation`]) have in common:
//! the id → `(shard, slot)` [`Directory`] with its liveness bitset, one
//! [`Population`] + staging [`Arena`] + RNG stream per shard, the node
//! factory, the driver's control RNG, the construction seed, the persistent
//! [`WorkerPool`] and the installed [`Partition`] — and, written once, the
//! membership and observation API over them (joins, kills, views,
//! snapshots). The two engines are this struct under two [`Mode`]s; a mode
//! adds what differs — how a period runs and the per-shard queues that
//! takes — and nothing wraps either engine. The shard count is the one
//! parameter that picks between the paper's sequential model (one shard:
//! every exchange inline, mailboxes never touched) and the parallel one.
//!
//! # Determinism contract
//!
//! All randomness derives from the construction seed: a *control* RNG on
//! the driver thread (node seeds, timer phases, churn, `get_peer`) plus one
//! RNG per shard (whatever the mode draws while running). Shards never
//! share mutable state within a phase — a mailbox lane is written by
//! exactly one shard and read by exactly one shard, on opposite sides of a
//! phase barrier — so for a fixed `(seed, shard_count)` results are
//! **bit-identical regardless of the worker-thread count**. Worker threads
//! are pure executors; [`Sharded::set_workers`] can never change any view,
//! report or snapshot, which the determinism regression tests pin. Changing
//! the *shard count* legitimately changes results (cross-shard messages
//! resolve in mailbox order), just as changing the seed does.

use pss_core::{Arena, GossipNode, NodeDescriptor, NodeId, View};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::exec::{self, Directory};
use crate::pool::WorkerPool;
use crate::population::{Entry, Population};
use crate::telemetry::EngineTele;
use crate::workload::Partition;
use crate::{CsrSnapshot, CycleReport, StreamingMetrics};

/// What tells the two engines apart: the driver-side state of one
/// execution model (`Self`), its per-shard state, and the two places where
/// the shared code has to ask.
pub trait Mode: Sized + Sync {
    /// What a shard holds beyond its nodes, arena and RNG: the cycle
    /// engine's mailboxes, the event engine's tick queues.
    type ShardState: Send;

    /// A node was placed in `slot` of the shard owning `state`. `phase`
    /// draws the node's first-timer phase within the given period — from
    /// the control RNG on a serial join, `(seed, id)`-pure on a bulk one;
    /// a mode without per-node timers never calls it.
    fn joined(&self, state: &mut Self::ShardState, slot: u32, phase: impl FnOnce(u64) -> u64);

    /// Runs one cycle (the event engine: one gossip period) of `sim`.
    fn run_cycle<N: GossipNode + Send>(sim: &mut Sharded<N, Self>) -> CycleReport;
}

/// One shard: a node partition plus everything its worker needs to run a
/// phase without touching any other shard.
pub(crate) struct Shard<N, S> {
    pub(crate) index: usize,
    pub(crate) pop: Population<N>,
    /// Shard-owned staging arena: every protocol call on this shard's
    /// nodes works out of it, so recycled buffers stay shard-local no
    /// matter which pool thread runs the phase.
    pub(crate) arena: Arena,
    /// Shard-local RNG stream, drawn only by the mode's phase functions.
    pub(crate) rng: SmallRng,
    pub(crate) state: S,
}

/// A population of `N` nodes partitioned into shards and driven under the
/// execution model `M` — see the `shard.rs` module docs. Used through its two
/// aliases, [`crate::ShardedSimulation`] and
/// [`crate::ShardedEventSimulation`].
pub struct Sharded<N: GossipNode + Send, M: Mode> {
    pub(crate) shards: Vec<Shard<N, M::ShardState>>,
    pub(crate) dir: Directory,
    factory: Box<dyn Fn(NodeId, u64) -> N + Send + Sync>,
    /// Driver-thread RNG: node seeds, timer phases, churn, `get_peer`.
    pub(crate) control_rng: SmallRng,
    /// Construction seed, kept for (seed, id)-pure bulk construction.
    seed: u64,
    /// Completed [`Sharded::run_cycle`] calls.
    pub(crate) cycles: u64,
    pub(crate) partition: Option<Partition>,
    /// Persistent phase executor: threads live as long as the simulation.
    pub(crate) pool: WorkerPool,
    /// Phase/imbalance telemetry; purely observational.
    pub(crate) tele: EngineTele,
    pub(crate) mode: M,
}

impl<N: GossipNode + Send, M: Mode> Sharded<N, M> {
    /// An empty population of `shards` shards, each with the arena and
    /// mode state `shard` returns. Worker count defaults to the available
    /// parallelism, capped at the shard count.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub(crate) fn empty(
        seed: u64,
        shards: usize,
        factory: impl Fn(NodeId, u64) -> N + Send + Sync + 'static,
        tele: EngineTele,
        mode: M,
        shard: impl Fn() -> (Arena, M::ShardState),
    ) -> Self {
        assert!(shards > 0, "need at least one shard");
        let default_workers = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(shards);
        let shards = (0..shards)
            .map(|index| {
                let (arena, state) = shard();
                Shard {
                    index,
                    pop: Population::new(),
                    arena,
                    rng: SmallRng::seed_from_u64(exec::shard_seed(seed, index)),
                    state,
                }
            })
            .collect();
        Sharded {
            shards,
            dir: Directory::new(),
            factory: Box::new(factory),
            control_rng: SmallRng::seed_from_u64(seed),
            seed,
            cycles: 0,
            partition: None,
            pool: WorkerPool::new(default_workers),
            tele,
            mode,
        }
    }

    /// Number of shards (fixed at construction; part of the result
    /// contract, unlike the worker count).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Worker threads used per phase.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Sets the worker-thread count (clamped to `1..=shard_count`),
    /// rebuilding the persistent pool (the old threads are joined, the new
    /// ones live until the next change or drop). Affects wall-clock time
    /// only; results are bit-identical for any value.
    pub fn set_workers(&mut self, workers: usize) {
        let workers = workers.clamp(1, self.shards.len());
        if workers != self.pool.workers() {
            self.pool = WorkerPool::new(workers);
        }
    }

    /// Declares that the next `n` node ids will be bulk-added, mapping them
    /// to **contiguous per-shard id ranges** (shard `k` owns ids
    /// `[k·n/S, (k+1)·n/S)`). Nodes added beyond the plan go to the least
    /// loaded shard. Call before the first [`Sharded::add_node`]; the
    /// scenario constructors do this for you.
    ///
    /// # Panics
    ///
    /// Panics if nodes were already added.
    pub fn plan_capacity(&mut self, n: usize) {
        self.dir.plan_capacity(n);
    }

    /// Installs (`Some`) or lifts (`None`) a partition loss matrix
    /// ([`Partition`]): a message whose sender and destination sit in
    /// different groups is dropped before it is sent (before any latency
    /// draw), counted with the engine's dropped messages. On the event
    /// engine messages already in flight still deliver — a partition cuts
    /// links, it does not reach into the network and destroy packets. The
    /// check is a pure function of the two ids, so the determinism contract
    /// is unaffected.
    pub fn set_partition(&mut self, partition: Option<Partition>) {
        self.partition = partition;
    }

    /// Adds one node bootstrapped from `seeds` and returns its id. On the
    /// event engine its first timer fires at a uniform-random phase within
    /// one period (nodes are not synchronized).
    ///
    /// Node seed and phase are drawn from the driver's control RNG, so
    /// joins are ordered events in the run's history (churn determinism).
    /// For the worker-parallel bootstrap path with (seed, id)-pure draws,
    /// see [`Sharded::add_nodes_bulk`].
    pub fn add_node(&mut self, seeds: impl IntoIterator<Item = NodeDescriptor>) -> NodeId {
        let node_seed = self.control_rng.random();
        let id = NodeId::new(self.dir.len() as u64);
        let loads = self.shards.iter().map(|sh| sh.pop.len());
        let shard = self.dir.shard_for_new(id.as_u64(), loads);
        let mut node = (self.factory)(id, node_seed);
        debug_assert_eq!(node.id(), id, "factory must honor the assigned id");
        node.init(&mut seeds.into_iter());
        let home = &mut self.shards[shard];
        let slot = home.pop.add_slot(node);
        let pushed = self.dir.push(shard as u32, slot);
        debug_assert_eq!(pushed, id);
        let control_rng = &mut self.control_rng;
        self.mode.joined(&mut home.state, slot, |period| {
            control_rng.random_range(0..period)
        });
        id
    }

    /// Bulk-adds `n` nodes with **worker-parallel per-shard construction**:
    /// node `i` gets the view returned by `seeds(i)`, and its RNG seed,
    /// shard placement and (on the event engine) initial timer phase are
    /// pure functions of `(construction seed, id)` — so the resulting
    /// population and schedule are bit-identical at any worker count, which
    /// the bootstrap regression tests pin. `seeds` must be pure for the
    /// same reason (the scenario constructors' per-node view generators
    /// are).
    ///
    /// This is the bootstrap path for N = 10⁶ runs, where driver-serial
    /// construction is a noticeable fraction of a short run.
    ///
    /// Node seeds differ from [`Sharded::add_node`]'s control-RNG draws:
    /// bulk-built populations are their own (equally deterministic)
    /// universe, exactly like a different construction seed.
    ///
    /// # Panics
    ///
    /// Panics if nodes were already added.
    pub fn add_nodes_bulk<I>(&mut self, n: usize, seeds: impl Fn(NodeId) -> I + Sync)
    where
        I: IntoIterator<Item = NodeDescriptor>,
    {
        self.dir.plan_capacity(n);
        let shard_count = self.shards.len();
        let (seed, factory, mode) = (self.seed, self.factory.as_ref(), &self.mode);
        // Routed through the pool with the same contiguous partition the
        // phases use, so each shard's nodes are first-touched (and thus, on
        // NUMA systems, placed) by the worker that will run them.
        exec::run_phase(&mut self.shards, &self.pool, |shard| {
            let (start, end) = exec::planned_range(n, shard_count, shard.index);
            for raw in start..end {
                let id = NodeId::new(raw as u64);
                let mut node = factory(id, exec::bulk_node_seed(seed, id.as_u64()));
                debug_assert_eq!(node.id(), id, "factory must honor the assigned id");
                node.init(&mut seeds(id).into_iter());
                let slot = shard.pop.add_slot(node);
                debug_assert_eq!(slot as usize, raw - start);
                mode.joined(&mut shard.state, slot, |period| {
                    exec::bulk_timer_phase(seed, id.as_u64(), period)
                });
            }
        });
        for raw in 0..n as u64 {
            // Same placement formula `shard_for_new` uses for planned ids.
            let shard = ((raw * shard_count as u64) / n as u64) as usize;
            let (start, _) = exec::planned_range(n, shard_count, shard);
            self.dir.push(shard as u32, (raw as usize - start) as u32);
        }
    }

    /// Adds `count` nodes, each bootstrapped with `contacts` uniform-random
    /// live contacts (join under churn). Contacts are drawn from the
    /// members that existed *before* this batch — fresh joiners never
    /// bootstrap off each other, which would risk isolated joiner islands.
    /// Returns the new ids.
    pub fn add_nodes_with_random_contacts(&mut self, count: usize, contacts: usize) -> Vec<NodeId> {
        let existing: Vec<NodeId> = self.alive_ids();
        let mut new_ids = Vec::with_capacity(count);
        for _ in 0..count {
            let seeds: Vec<NodeDescriptor> = if existing.is_empty() {
                Vec::new()
            } else {
                (0..contacts)
                    .map(|_| {
                        let pick = existing[self.control_rng.random_range(0..existing.len())];
                        NodeDescriptor::fresh(pick)
                    })
                    .collect()
            };
            new_ids.push(self.add_node(seeds));
        }
        new_ids
    }

    /// Runs one full cycle — on the event engine, one gossip period, its
    /// notion of a cycle for drivers generic over [`Mode`] — and reports
    /// what happened during it.
    pub fn run_cycle(&mut self) -> CycleReport {
        M::run_cycle(self)
    }

    /// Runs `n` cycles, discarding the per-cycle reports.
    pub fn run_cycles(&mut self, n: u64) {
        for _ in 0..n {
            self.run_cycle();
        }
    }

    /// Number of cycles ([`Sharded::run_cycle`] calls) run so far.
    pub fn cycle(&self) -> u64 {
        self.cycles
    }

    /// Total nodes ever added (dead slots included).
    pub fn node_count(&self) -> usize {
        self.dir.len()
    }

    /// Number of live nodes.
    pub fn alive_count(&self) -> usize {
        self.dir.alive_count()
    }

    /// True if `id` exists and is alive.
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.dir.is_alive(id)
    }

    /// Ids of all live nodes, in increasing order.
    pub fn alive_ids(&self) -> Vec<NodeId> {
        self.dir.alive_ids()
    }

    fn entry(&self, id: NodeId) -> Option<&Entry<N>> {
        let at = self.dir.slot_ref(id)?;
        Some(self.shards[at.shard as usize].pop.slot(at.slot))
    }

    /// The view of a live node.
    pub fn view_of(&self, id: NodeId) -> Option<&View> {
        if !self.is_alive(id) {
            return None;
        }
        self.entry(id).map(|e| e.node.view())
    }

    /// Kills one node (crash-stop). Returns false if already dead/unknown.
    /// On the event engine pending deliveries to it are dropped at delivery
    /// time, and its timer never re-arms.
    pub fn kill(&mut self, id: NodeId) -> bool {
        let Some(at) = self.dir.kill(id) else {
            return false;
        };
        let killed = self.shards[at.shard as usize].pop.kill_slot(at.slot);
        debug_assert!(killed);
        true
    }

    /// Kills a uniform-random set of `count` live nodes and returns them.
    pub fn kill_random(&mut self, count: usize) -> Vec<NodeId> {
        let mut alive: Vec<NodeId> = self.alive_ids();
        // Only `count` picks are needed, not a full-population shuffle.
        let count = count.min(alive.len());
        let (victims, _) = alive.partial_shuffle(&mut self.control_rng, count);
        let victims = victims.to_vec();
        for &v in &victims {
            self.kill(v);
        }
        victims
    }

    /// Kills `fraction` (0..=1) of the live population at random.
    pub fn kill_random_fraction(&mut self, fraction: f64) -> Vec<NodeId> {
        let fraction = fraction.clamp(0.0, 1.0);
        let count = (self.alive_count() as f64 * fraction).round() as usize;
        self.kill_random(count)
    }

    /// Descriptors in live views that point to dead nodes (Figure 7's
    /// y-axis).
    pub fn dead_link_count(&self) -> usize {
        self.shards
            .iter()
            .map(|sh| sh.pop.dead_link_count_with(|id| self.is_alive(id)))
            .sum()
    }

    /// Visits every live node's `(id, view)` in increasing id order.
    /// The allocation-free way to export overlay topology at large N (the
    /// CSR snapshot path builds on this).
    pub fn for_each_live_view(&self, mut f: impl FnMut(NodeId, &View)) {
        for id in (0..self.dir.len() as u64).map(NodeId::new) {
            if self.is_alive(id) {
                f(id, self.entry(id).expect("in directory").node.view());
            }
        }
    }

    /// Builds the communication-graph snapshot: the directed live-view
    /// graph as a flat CSR over live nodes in global id order, plus the id
    /// mapping — two edge arrays, no per-node allocations, no hash maps, so
    /// it survives N = 10⁶. Dead view targets are dropped.
    pub fn csr_snapshot(&self) -> CsrSnapshot {
        let mut index = vec![u32::MAX; self.dir.len()];
        let mut ids: Vec<NodeId> = Vec::with_capacity(self.dir.alive_count());
        let mut per_node = 0usize;
        self.for_each_live_view(|id, view| {
            index[id.as_index()] = ids.len() as u32;
            ids.push(id);
            // Estimate edge capacity from the first live view (views share c).
            if per_node == 0 {
                per_node = view.len();
            }
        });
        let mut builder =
            pss_graph::csr::CsrBuilder::with_capacity(ids.len(), ids.len() * per_node);
        self.for_each_live_view(|_, view| {
            builder.push_node(view.ids().filter_map(|target| {
                index
                    .get(target.as_index())
                    .copied()
                    .filter(|&compact| compact != u32::MAX)
            }));
        });
        let graph = builder.finish().expect("compact indices are in range");
        CsrSnapshot::new(graph, ids)
    }

    /// Estimates overlay health by streaming view rows — the O(id-space)
    /// alternative to materializing [`Sharded::csr_snapshot`]'s edge arrays
    /// at very large N (see [`StreamingMetrics`]).
    pub fn streaming_metrics(&self) -> StreamingMetrics {
        StreamingMetrics::from_views(self.dir.len(), |f| self.for_each_live_view(f))
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

    /// A driver generic over the mode touching the membership and
    /// observation API, instantiated with both engines. Returns the first
    /// cycle's report.
    fn exercise<N: GossipNode + Send, M: Mode>(sim: &mut Sharded<N, M>) -> CycleReport {
        sim.add_node([]);
        sim.add_node([NodeDescriptor::fresh(NodeId::new(0))]);
        sim.add_nodes_with_random_contacts(18, 2);
        let report = sim.run_cycle();
        assert_eq!(sim.cycle(), 1);
        assert!(sim.node_count() >= sim.alive_count());
        let ids = sim.alive_ids();
        assert!(sim.is_alive(ids[0]));
        assert!(sim.view_of(ids[0]).is_some());
        let _ = sim.csr_snapshot();
        let killed = sim.kill_random(2);
        assert_eq!(killed.len(), 2);
        assert!(sim.kill(ids.iter().copied().find(|i| sim.is_alive(*i)).unwrap()));
        assert!(sim.dead_link_count() > 0);
        let joined = sim.add_nodes_with_random_contacts(3, 2);
        assert_eq!(joined.len(), 3);
        let live = sim.alive_ids()[0];
        let seeded = sim.add_node([NodeDescriptor::fresh(live)]);
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
        // In the cycle model every live node initiates exactly once.
        assert_eq!(exercise(&mut cycle).initiated(), 20);

        let mut event =
            ShardedEventSimulation::new(config(), EventConfig::default(), 11, 3).expect("valid");
        // A period's exchanges may still be in flight when it ends.
        assert!(exercise(&mut event).completed > 0);
    }
}
