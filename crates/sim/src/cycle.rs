//! The cycle-driven engine (the paper's execution model), sharded.
//!
//! [`ShardedSimulation`] is the sharded population of [`crate::shard`] run
//! under the paper's cycle model — in every cycle each live node initiates
//! exactly one exchange — as a **two-phase** protocol per cycle:
//!
//! 1. **Initiate** — every shard walks its own live nodes in a fresh
//!    shard-local random order. An exchange whose peer lives in the *same*
//!    shard completes inline and atomically (initiate → handle_request →
//!    handle_reply). An exchange targeting a *remote* shard queues its
//!    request into a fixed-order cross-shard mailbox.
//! 2. **Exchange** — each shard drains its request mailbox in sender-shard
//!    order (FIFO within each sender), running the passive thread and
//!    queueing replies; replies are then drained the same way and absorbed
//!    by their initiators.
//!
//! Peer selection considers only live view entries — the paper's model:
//! "selectPeer() … returns the address of a live node as found in the
//! caller's current view", abstracting the timeout-and-retry a real
//! implementation performs within one period. Dead descriptors stay in
//! views as dead links; they are just never *selected*, so self-healing
//! comes exclusively from view selection. Exchanges are never lost, except
//! across a lossy [`Partition`].
//!
//! With **one shard** every peer is local: every exchange is inline and
//! atomic in initiation order and the mailboxes are never touched — the
//! sequential model of the paper's experiments, which is what
//! [`crate::scenario::random_overlay`] and the figure experiments build.
//! The determinism contract (bit-identical at any worker count for a fixed
//! `(seed, shard_count)`) is stated in [`crate::shard`]; the shard RNG
//! streams draw the initiation order and partition drops here.
//!
//! Phase 1 looks one initiation ahead: node *i + 1* runs its active thread
//! (peer selection and request construction) before exchange *i*
//! completes, so the loop can prefetch the entry of the peer that
//! exchange *i + 1* will touch inline, and that peer's view one exchange
//! later. This is exact, not approximate: `initiate` reads only its own
//! node and the cycle's frozen liveness bitset and draws nothing from the
//! shard RNG, and an exchange writes only its initiator and its peer. So
//! the early start is skipped exactly when node *i + 1* is exchange *i*'s
//! local peer, and the partition draws keep their order.

use pss_core::{
    Arena, Exchange, GossipNode, NodeDescriptor, NodeId, PeerSamplingNode, ProtocolConfig, Reply,
    Request,
};
use rand::seq::SliceRandom;
use rand::Rng;

use crate::exec::{self, Mailboxes, SlotRef};
use crate::population::Population;
use crate::shard::{Mode, Shard, Sharded};
use crate::telemetry::EngineTele;
use crate::workload::Partition;

/// Per-cycle accounting returned by [`ShardedSimulation::run_cycle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CycleReport {
    /// Exchanges that ran to completion.
    pub completed: u64,
    /// Cycle engine: live nodes whose view held only dead links, so no
    /// exchange started. Event engine: messages that reached a dead node.
    pub failed_dead_peer: u64,
    /// Nodes that could not initiate (empty view).
    pub empty_view: u64,
    /// Requests or replies dropped by a lossy partition (or, on the event
    /// engine, by its loss model).
    pub dropped_messages: u64,
}

impl CycleReport {
    /// Total initiation attempts in the cycle.
    pub fn initiated(&self) -> u64 {
        self.completed + self.failed_dead_peer + self.empty_view + self.dropped_messages
    }
}

impl core::ops::AddAssign for CycleReport {
    fn add_assign(&mut self, rhs: CycleReport) {
        self.completed += rhs.completed;
        self.failed_dead_peer += rhs.failed_dead_peer;
        self.empty_view += rhs.empty_view;
        self.dropped_messages += rhs.dropped_messages;
    }
}

/// Automatic population growth, reproducing the paper's *growing overlay*
/// scenario: at the beginning of each cycle, `nodes_per_cycle` fresh nodes
/// join (until `target` is reached), each knowing only the oldest node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrowthPlan {
    /// Nodes added per cycle.
    pub nodes_per_cycle: usize,
    /// Population size at which growth stops.
    pub target: usize,
}

/// A request crossing a shard boundary.
struct QueuedRequest {
    from: NodeId,
    to_slot: u32,
    request: Request,
}

/// A reply crossing back.
struct QueuedReply {
    from: NodeId,
    to_slot: u32,
    reply: Reply,
}

/// What a cycle-engine shard holds beyond its nodes.
pub struct CycleShard {
    /// Per-cycle initiation order (local slots), reused across cycles.
    order: Vec<u32>,
    /// Cross-shard request queues (filled in phase 1, drained in phase 2).
    requests: Mailboxes<QueuedRequest>,
    /// Cross-shard reply queues (filled in phase 2, drained in phase 3).
    replies: Mailboxes<QueuedReply>,
    /// This shard's share of the cycle report.
    report: CycleReport,
}

/// Driver-side state of the cycle model (the [`Mode`] of
/// [`ShardedSimulation`]).
pub struct CycleDriven {
    growth: Option<GrowthPlan>,
    /// Per-cycle liveness snapshot buffer, reused across cycles.
    alive_snapshot: Vec<u64>,
}

/// Read-only cycle context shared by all workers during a phase.
struct CycleCtx<'a> {
    directory: &'a [SlotRef],
    /// Cycle-start liveness snapshot, bit per *global* id.
    alive: &'a [u64],
    partition: Option<Partition>,
}

impl CycleCtx<'_> {
    #[inline]
    fn is_live(&self, id: NodeId) -> bool {
        let slot = id.as_index();
        self.alive
            .get(slot / 64)
            .is_some_and(|word| word & (1 << (slot % 64)) != 0)
    }
}

/// The sharded cycle-driven simulator. See the `cycle.rs` module docs for
/// the execution model; the membership and observation API (`add_node`,
/// `kill`, `view_of`, `snapshot`, …) is [`Sharded`]'s, shared with the
/// event engine.
///
/// # Node type parameter
///
/// [`ShardedSimulation::new`] builds a **monomorphized** population of
/// [`PeerSamplingNode`]s, whose inner loop is devirtualized and inlined.
/// [`ShardedSimulation::with_factory`] takes any [`GossipNode`], including
/// heterogeneous [`crate::BoxedNode`]s (virtual dispatch per protocol call).
pub type ShardedSimulation<N> = Sharded<N, CycleDriven>;

impl ShardedSimulation<PeerSamplingNode> {
    /// Creates an empty sharded simulation whose nodes run the generic
    /// protocol of the paper under `config`.
    pub fn new(config: ProtocolConfig, seed: u64, shards: usize) -> Self {
        ShardedSimulation::with_factory(seed, shards, move |id, node_seed| {
            PeerSamplingNode::with_seed(id, config.clone(), node_seed)
        })
    }
}

impl<N: GossipNode + Send> ShardedSimulation<N> {
    /// Creates an empty sharded simulation with a custom node factory (e.g.
    /// for [`pss_core::hs::HsNode`] or user protocols). The factory
    /// receives the assigned node id and a derived RNG seed; it must be
    /// `Fn + Sync` so per-shard populations can be built in parallel
    /// ([`Sharded::add_nodes_bulk`]).
    ///
    /// Worker count defaults to the available parallelism, capped at the
    /// shard count; it affects wall-clock time only, never results.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn with_factory(
        seed: u64,
        shards: usize,
        factory: impl Fn(NodeId, u64) -> N + Send + Sync + 'static,
    ) -> Self {
        Sharded::empty(
            seed,
            shards,
            factory,
            EngineTele::new("cycle", &["initiate", "respond", "absorb"], shards),
            CycleDriven {
                growth: None,
                alive_snapshot: Vec::new(),
            },
            || {
                let state = CycleShard {
                    order: Vec::new(),
                    requests: Mailboxes::new(shards),
                    replies: Mailboxes::new(shards),
                    report: CycleReport::default(),
                };
                (Arena::new(), state)
            },
        )
    }

    /// Installs a growth plan (see [`GrowthPlan`]). Growth happens at the
    /// beginning of each subsequent cycle.
    pub fn set_growth(&mut self, plan: GrowthPlan) {
        self.mode.growth = Some(plan);
    }

    fn apply_growth(&mut self) {
        let Some(plan) = self.mode.growth else { return };
        if self.node_count() >= plan.target {
            return;
        }
        let missing = plan.target - self.node_count();
        let joining = plan.nodes_per_cycle.min(missing);
        // "The view of these nodes is initialized with only a single node
        // descriptor, which belongs to the oldest, initial node."
        let oldest = NodeId::new(0);
        for _ in 0..joining {
            self.add_node([NodeDescriptor::fresh(oldest)]);
        }
    }

    /// Calls the peer sampling service (`getPeer()`) on a live node.
    pub fn get_peer(&mut self, id: NodeId) -> Option<NodeId> {
        // getPeer is a uniform sample of the view, per the paper's simplest
        // implementation; drive it with the control RNG for determinism.
        let len = self.view_of(id)?.len();
        if len == 0 {
            return None;
        }
        let idx = self.control_rng.random_range(0..len);
        Some(self.view_of(id)?.descriptors()[idx].id())
    }
}

impl Mode for CycleDriven {
    type ShardState = CycleShard;

    // Cycle nodes have no per-node schedule.
    fn joined(&self, _: &mut CycleShard, _: u32, _: impl FnOnce(u64) -> u64) {}

    fn run_cycle<N: GossipNode + Send>(sim: &mut Sharded<N, Self>) -> CycleReport {
        sim.apply_growth();
        sim.cycles += 1;

        let Sharded {
            shards,
            dir,
            pool,
            partition,
            tele,
            cycles,
            mode,
            ..
        } = sim;
        // Liveness cannot change mid-cycle, so snapshot it once; every
        // worker reads the same frozen bitset.
        mode.alive_snapshot.clear();
        mode.alive_snapshot.extend_from_slice(dir.alive_bits());
        let cycle = *cycles;
        let ctx = CycleCtx {
            directory: dir.slots(),
            alive: mode.alive_snapshot.as_slice(),
            partition: *partition,
        };

        // Phase indices match the names registered in `with_factory`.
        tele.run_phase(0, Some(cycle), shards, pool, |shard| {
            phase_initiate(shard, &ctx)
        });
        exec::transpose(shards, |shard| &mut shard.state.requests);
        tele.run_phase(1, Some(cycle), shards, pool, |shard| {
            phase_respond(shard, &ctx)
        });
        exec::transpose(shards, |shard| &mut shard.state.replies);
        tele.run_phase(2, Some(cycle), shards, pool, phase_absorb);
        tele.cycle_done();

        let mut report = CycleReport::default();
        for shard in shards.iter_mut() {
            report += core::mem::take(&mut shard.state.report);
        }
        report
    }
}

impl<N: GossipNode + Send> std::fmt::Debug for ShardedSimulation<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSimulation")
            .field("cycle", &self.cycles)
            .field("shards", &self.shards.len())
            .field("workers", &self.pool.workers())
            .field("nodes", &self.dir.len())
            .field("alive", &self.dir.alive_count())
            .field("growth", &self.mode.growth)
            .field("partition", &self.partition)
            .finish()
    }
}

/// One node's initiation in phase 1, taken before its exchange completes.
struct Initiated {
    slot: u32,
    initiator: NodeId,
    had_view: bool,
    exchange: Option<Exchange>,
}

impl Initiated {
    /// Runs the active thread of the node in `slot`. It reads only that
    /// node and the frozen liveness bitset, and draws nothing from the
    /// shard RNG.
    fn start<N: GossipNode + Send>(
        pop: &mut Population<N>,
        arena: &mut Arena,
        ctx: &CycleCtx<'_>,
        slot: u32,
    ) -> Self {
        let node = &mut pop.slot_mut(slot).node;
        let initiator = node.id();
        let had_view = !node.view().is_empty();
        let exchange = node.initiate_filtered(arena, &mut |peer| ctx.is_live(peer));
        Initiated {
            slot,
            initiator,
            had_view,
            exchange,
        }
    }

    /// The slot of the live peer in shard `index` that the exchange would
    /// change, if any.
    fn local_peer(&self, ctx: &CycleCtx<'_>, index: usize) -> Option<u32> {
        let peer = self.exchange.as_ref()?.peer;
        if !ctx.is_live(peer) {
            return None;
        }
        let dest = ctx.directory[peer.as_index()];
        (dest.shard as usize == index).then_some(dest.slot)
    }
}

/// Phase 1: every live node initiates; local exchanges complete inline,
/// remote requests are queued. Initiation runs one node ahead of
/// completion (see the module docs for why that is exact).
fn phase_initiate<N: GossipNode + Send>(shard: &mut Shard<N, CycleShard>, ctx: &CycleCtx<'_>) {
    let Shard {
        index,
        pop,
        arena,
        rng,
        state,
    } = shard;
    let CycleShard {
        order,
        requests,
        report,
        ..
    } = state;
    order.clear();
    order.extend(pop.alive_slots());
    order.shuffle(rng);
    let mut ahead: Option<Initiated> = None;
    for (i, &slot) in order.iter().enumerate() {
        let current = match ahead.take() {
            Some(started) => started,
            None => Initiated::start(pop, arena, ctx, slot),
        };
        let peer_slot = current.local_peer(ctx, *index);
        if let Some(peer_slot) = peer_slot {
            pop.prefetch_view(peer_slot);
        }
        if let Some(&next) = order.get(i + 1) {
            if peer_slot != Some(next) {
                pop.prefetch(order[i + 2..].iter().copied());
                let started = Initiated::start(pop, arena, ctx, next);
                if let Some(next_peer) = started.local_peer(ctx, *index) {
                    pop.prefetch_entry(next_peer);
                }
                ahead = Some(started);
            }
        }

        let Initiated {
            slot,
            initiator,
            had_view,
            exchange,
        } = current;
        let Some(exchange) = exchange else {
            if had_view {
                report.failed_dead_peer += 1; // view held only dead links
            } else {
                report.empty_view += 1;
            }
            continue;
        };
        let peer = exchange.peer;
        if !ctx.is_live(peer) {
            // Only a node type that ignores the liveness predicate gets here.
            report.failed_dead_peer += 1;
            continue;
        }
        // Partition loss matrix: a dropped request loses the whole
        // exchange. Replies cross back in the other direction, so under a
        // lossy/asymmetric matrix they get their own directional check —
        // only a total blackout makes the reply check unreachable.
        if ctx.partition.is_some_and(|p| p.drops(initiator, peer, rng)) {
            report.dropped_messages += 1;
            continue;
        }
        let dest = ctx.directory[peer.as_index()];
        if dest.shard as usize == *index {
            // Local peer: the exchange completes inline and atomically —
            // with one shard, every exchange does.
            let reply =
                pop.slot_mut(dest.slot)
                    .node
                    .handle_request(arena, initiator, exchange.request);
            if let Some(reply) = reply {
                if ctx.partition.is_some_and(|p| p.drops(peer, initiator, rng)) {
                    report.dropped_messages += 1;
                    continue;
                }
                pop.slot_mut(slot).node.handle_reply(arena, peer, reply);
            }
            report.completed += 1;
        } else {
            requests.out[dest.shard as usize].push(QueuedRequest {
                from: initiator,
                to_slot: dest.slot,
                request: exchange.request,
            });
        }
    }
}

/// Phase 2: drain the request mailbox in sender-shard order, queueing
/// replies.
fn phase_respond<N: GossipNode + Send>(shard: &mut Shard<N, CycleShard>, ctx: &CycleCtx<'_>) {
    let Shard {
        pop,
        arena,
        rng,
        state,
        ..
    } = shard;
    let CycleShard {
        requests,
        replies,
        report,
        ..
    } = state;
    // Inbox lane = sender shard: draining in lane order is sender-shard
    // order, the fixed ordering the determinism contract relies on.
    for inbox in requests.inbox.iter_mut() {
        let mut due = inbox.drain(..);
        while let Some(queued) = due.next() {
            pop.prefetch(due.as_slice().iter().map(|q| q.to_slot));
            let responder = pop.slot_mut(queued.to_slot);
            let responder_id = responder.node.id();
            let reply = responder
                .node
                .handle_request(arena, queued.from, queued.request);
            match reply {
                Some(reply) => {
                    // The reply crosses back: apply the matrix's reverse
                    // direction (relevant only for lossy partitions — a
                    // total one never lets the request through).
                    if ctx
                        .partition
                        .is_some_and(|p| p.drops(responder_id, queued.from, rng))
                    {
                        report.dropped_messages += 1;
                        continue;
                    }
                    let dest = ctx.directory[queued.from.as_index()];
                    replies.out[dest.shard as usize].push(QueuedReply {
                        from: responder_id,
                        to_slot: dest.slot,
                        reply,
                    });
                }
                // Push-only exchange: complete on request delivery.
                None => report.completed += 1,
            }
        }
    }
}

/// Phase 3: drain the reply mailbox in responder-shard order; initiators
/// absorb and the exchanges complete.
fn phase_absorb<N: GossipNode + Send>(shard: &mut Shard<N, CycleShard>) {
    let Shard {
        pop, arena, state, ..
    } = shard;
    let CycleShard {
        replies, report, ..
    } = state;
    for inbox in replies.inbox.iter_mut() {
        let mut due = inbox.drain(..);
        while let Some(queued) = due.next() {
            pop.prefetch(due.as_slice().iter().map(|q| q.to_slot));
            pop.slot_mut(queued.to_slot)
                .node
                .handle_reply(arena, queued.from, queued.reply);
            report.completed += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pss_core::PolicyTriple;

    fn config() -> ProtocolConfig {
        ProtocolConfig::new(PolicyTriple::newscast(), 5).unwrap()
    }

    fn two_node_sim() -> ShardedSimulation<PeerSamplingNode> {
        let mut sim = ShardedSimulation::new(config(), 7, 1);
        // Node 0 bootstraps knowing the (yet to join) node 1; node 1 joins
        // knowing node 0.
        let a = sim.add_node([NodeDescriptor::fresh(NodeId::new(1))]);
        let b = sim.add_node([NodeDescriptor::fresh(a)]);
        assert_eq!(b, NodeId::new(1));
        sim
    }

    #[test]
    fn add_node_assigns_sequential_ids() {
        let mut sim = ShardedSimulation::new(config(), 1, 1);
        assert_eq!(sim.add_node([]), NodeId::new(0));
        assert_eq!(sim.add_node([]), NodeId::new(1));
        assert_eq!(sim.node_count(), 2);
        assert_eq!(sim.alive_count(), 2);
    }

    #[test]
    fn seeds_initialize_views() {
        let mut sim = ShardedSimulation::new(config(), 1, 1);
        let a = sim.add_node([]);
        let b = sim.add_node([NodeDescriptor::fresh(a)]);
        assert!(sim.view_of(b).unwrap().contains(a));
        assert!(sim.view_of(a).unwrap().is_empty());
    }

    #[test]
    fn cycle_completes_exchanges() {
        let mut sim = two_node_sim();
        let report = sim.run_cycle();
        assert_eq!(sim.cycle(), 1);
        assert_eq!(report.completed, 2);
        assert_eq!(report.empty_view, 0);
        // After one pushpull cycle both know each other.
        assert!(sim
            .view_of(NodeId::new(0))
            .unwrap()
            .contains(NodeId::new(1)));
        assert!(sim
            .view_of(NodeId::new(1))
            .unwrap()
            .contains(NodeId::new(0)));
    }

    #[test]
    fn boxed_population_matches_monomorphized_exactly() {
        // A boxed population (virtual dispatch per protocol call) must be
        // observationally identical to the monomorphized one `new` builds:
        // same seeds, same exchanges, same views.
        fn run<N: GossipNode + Send>(mut sim: ShardedSimulation<N>) -> Vec<Vec<(u64, u32)>> {
            let first = sim.add_node([]);
            for _ in 0..14 {
                sim.add_node([NodeDescriptor::fresh(first)]);
            }
            sim.run_cycles(8);
            sim.alive_ids()
                .into_iter()
                .map(|id| {
                    sim.view_of(id)
                        .unwrap()
                        .iter()
                        .map(|d| (d.id().as_u64(), d.hop_count()))
                        .collect()
                })
                .collect()
        }
        let boxed = ShardedSimulation::with_factory(99, 1, |id, seed| {
            Box::new(PeerSamplingNode::with_seed(id, config(), seed)) as crate::BoxedNode
        });
        assert_eq!(run(boxed), run(ShardedSimulation::new(config(), 99, 1)));
    }

    #[test]
    fn empty_views_are_reported() {
        let mut sim = ShardedSimulation::new(config(), 1, 1);
        sim.add_node([]);
        let report = sim.run_cycle();
        assert_eq!(report.empty_view, 1);
        assert_eq!(report.completed, 0);
    }

    #[test]
    fn dead_peer_exchanges_fail_silently() {
        let mut sim = two_node_sim();
        sim.kill(NodeId::new(1));
        let report = sim.run_cycle();
        assert_eq!(report.failed_dead_peer, 1);
        assert_eq!(report.completed, 0);
        // Initiator's view content unchanged (the dead link stays; entries
        // only aged).
        let view = sim.view_of(NodeId::new(0)).unwrap();
        assert!(view.contains(NodeId::new(1)));
        assert_eq!(view.len(), 1);
    }

    #[test]
    fn skip_dead_mode_finds_live_alternatives() {
        // Node 0 knows a dead node and a live one; peer selection must pick
        // the live one every cycle.
        let mut sim = ShardedSimulation::new(config(), 13, 1);
        let a = sim.add_node([]); // will die
        let b = sim.add_node([]); // stays
        let c = sim.add_node([NodeDescriptor::fresh(a), NodeDescriptor::fresh(b)]);
        sim.kill(a);
        let report = sim.run_cycle();
        // c's exchange went to b (never the dead a); b may then have
        // initiated its own exchange in the same cycle.
        assert!(report.completed >= 1, "{report:?}");
        assert_eq!(report.failed_dead_peer, 0, "{report:?}");
        assert!(sim.view_of(b).unwrap().contains(c));
    }

    #[test]
    fn kill_bookkeeping() {
        let mut sim = two_node_sim();
        assert!(sim.is_alive(NodeId::new(1)));
        assert!(sim.kill(NodeId::new(1)));
        assert!(!sim.kill(NodeId::new(1)));
        assert!(!sim.is_alive(NodeId::new(1)));
        assert_eq!(sim.alive_count(), 1);
        assert_eq!(sim.node_count(), 2);
        assert_eq!(sim.alive_ids(), vec![NodeId::new(0)]);
    }

    #[test]
    fn kill_random_fraction_halves() {
        let mut sim = ShardedSimulation::new(config(), 3, 1);
        for _ in 0..100 {
            sim.add_node([]);
        }
        let victims = sim.kill_random_fraction(0.5);
        assert_eq!(victims.len(), 50);
        assert_eq!(sim.alive_count(), 50);
        // Victims are distinct.
        let mut v = victims.clone();
        v.sort();
        v.dedup();
        assert_eq!(v.len(), 50);
    }

    #[test]
    fn kill_random_caps_at_population() {
        let mut sim = two_node_sim();
        let victims = sim.kill_random(10);
        assert_eq!(victims.len(), 2);
        assert_eq!(sim.alive_count(), 0);
    }

    #[test]
    fn dead_links_counted() {
        let mut sim = two_node_sim();
        assert_eq!(sim.dead_link_count(), 0);
        sim.kill(NodeId::new(0));
        // b's view points at dead a.
        assert_eq!(sim.dead_link_count(), 1);
    }

    #[test]
    fn growth_plan_adds_nodes_each_cycle() {
        let mut sim = ShardedSimulation::new(config(), 5, 1);
        sim.add_node([]);
        sim.set_growth(GrowthPlan {
            nodes_per_cycle: 10,
            target: 25,
        });
        sim.run_cycle();
        assert_eq!(sim.node_count(), 11);
        sim.run_cycle();
        assert_eq!(sim.node_count(), 21);
        sim.run_cycle();
        assert_eq!(sim.node_count(), 25); // clamped at target
        sim.run_cycle();
        assert_eq!(sim.node_count(), 25);
    }

    #[test]
    fn growth_seeds_point_at_oldest() {
        let mut sim = ShardedSimulation::new(config(), 5, 1);
        sim.add_node([]);
        sim.set_growth(GrowthPlan {
            nodes_per_cycle: 3,
            target: 4,
        });
        sim.run_cycle();
        // New nodes joined knowing node 0 (they may have gossiped since,
        // but their views must be non-empty).
        for id in 1..4 {
            assert!(!sim.view_of(NodeId::new(id)).unwrap().is_empty());
        }
    }

    #[test]
    fn snapshot_excludes_dead() {
        let mut sim = two_node_sim();
        sim.run_cycle();
        sim.kill(NodeId::new(1));
        let snap = sim.csr_snapshot();
        assert_eq!(snap.node_count(), 1);
        assert_eq!(snap.graph().edge_count(), 0); // link to dead dropped
    }

    #[test]
    fn deterministic_runs_with_same_seed() {
        let run = |seed: u64| {
            let mut sim = ShardedSimulation::new(config(), seed, 1);
            let first = sim.add_node([]);
            for _ in 0..19 {
                sim.add_node([NodeDescriptor::fresh(first)]);
            }
            sim.run_cycles(10);
            // Full view fingerprint: every node's view contents in order.
            sim.alive_ids()
                .into_iter()
                .map(|id| {
                    sim.view_of(id)
                        .unwrap()
                        .iter()
                        .map(|d| (d.id().as_u64(), d.hop_count()))
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn get_peer_service() {
        let mut sim = two_node_sim();
        sim.run_cycle();
        let p = sim.get_peer(NodeId::new(0)).unwrap();
        assert_eq!(p, NodeId::new(1));
        sim.kill(NodeId::new(1));
        assert!(sim.get_peer(NodeId::new(1)).is_none());
    }

    #[test]
    fn add_nodes_with_random_contacts_yields_live_seeds() {
        let mut sim = ShardedSimulation::new(config(), 9, 1);
        sim.add_node([]);
        sim.add_node([NodeDescriptor::fresh(NodeId::new(0))]);
        let ids = sim.add_nodes_with_random_contacts(5, 2);
        assert_eq!(ids.len(), 5);
        for id in ids {
            let view = sim.view_of(id).unwrap();
            assert!(!view.is_empty());
            for d in view.iter() {
                assert!(d.id().as_u64() < id.as_u64());
            }
        }
    }

    #[test]
    fn debug_format_mentions_state() {
        let sim = two_node_sim();
        let text = format!("{sim:?}");
        assert!(text.contains("cycle"));
        assert!(text.contains("alive"));
    }

    #[test]
    fn report_initiated_totals() {
        let r = CycleReport {
            completed: 3,
            failed_dead_peer: 2,
            empty_view: 1,
            dropped_messages: 4,
        };
        assert_eq!(r.initiated(), 10);
    }
}
