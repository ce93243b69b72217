//! **Extension:** event-driven simulation with latency, jitter and loss —
//! sharded across worker threads with conservative lookahead.
//!
//! The paper's experiments use the idealized cycle model. This engine
//! relaxes it: every node runs its own periodic timer with bounded jitter,
//! messages take a random latency to arrive, and may be lost. Exchanges are
//! no longer atomic — a node may receive requests while its own exchange is
//! in flight. The extension experiments use this engine to check that the
//! cycle-model conclusions survive asynchrony.
//!
//! # Execution model
//!
//! [`ShardedEventSimulation`] is the sharded population of [`crate::shard`]
//! — `S` shards, each owning the pending events of its own nodes. Simulated
//! time advances in **buckets** of width `W` = the minimum network latency
//! (the *conservative lookahead window* of parallel discrete-event
//! simulation): within the bucket `[t, t + W)` every shard processes its
//! local queue independently, because any message sent at or after `t`
//! arrives at `t + latency ≥ t + W` — no event generated inside the bucket
//! can affect another shard within it. Cross-shard messages accumulate in
//! fixed-order per-`(src, dst)` mailboxes ([`crate::exec`], shared with the
//! cycle engine) and are exchanged at bucket boundaries: transposed on the
//! driver, then merged into each destination queue in sender-shard order.
//!
//! # The event queue
//!
//! A shard has the shape of the deployed runtime (`pss_net::NetRuntime`): a
//! timer queue of node slots plus a short-horizon message queue, both
//! [`TickQueue`]s — per-tick FIFO calendar rings, O(1) to push and to
//! drain. Every event carries the shard's monotone push counter `seq`, and
//! a shard processes its events in `(time, seq)` order. A per-tick FIFO
//! gives that order for free: `seq` only grows, so push order within a tick
//! *is* `(time, seq)` order — for timers, same-shard messages and
//! cross-shard arrivals alike. Timers (most of what is pending, 16 bytes
//! each, up to `period + jitter` ahead) and messages (fat, at most the
//! maximum latency ahead) sit in separate rings so that neither sizes the
//! other's slots; a tick's two batches are merged by `seq` when it is
//! drained.
//!
//! # Determinism contract
//!
//! The contract of [`crate::shard`], shared with the cycle engine: the
//! shard RNG streams draw timer jitter, message latency and loss here (by
//! the shard that owns the sending node). Shards share no mutable state
//! within a bucket, and the mailbox exchange is fixed-order, so for a fixed
//! `(seed, shard_count)` results are **bit-identical at any worker count**
//! — and invariant under how a run is chunked into
//! [`ShardedEventSimulation::run_until`] calls, because mailboxes are only
//! exchanged at absolute bucket boundaries. Changing the *shard count*
//! legitimately changes results (same-time deliveries tie-break in mailbox
//! order rather than global schedule order), exactly like changing the seed
//! does.
//!
//! With **one shard** every message is shard-local: the global
//! `(time, seq)` order is the schedule order, and the mailbox machinery is
//! never touched.

use pss_core::{
    Arena, GossipNode, NodeDescriptor, NodeId, PeerSamplingNode, ProtocolConfig, Reply, Request,
};
use rand::Rng;

use crate::exec::{self, lose, Mailboxes, SlotRef};
use crate::queue::TickQueue;
use crate::shard::{Mode, Shard, Sharded};
use crate::telemetry::EngineTele;
use crate::workload::Partition;
use crate::CycleReport;

/// Message latency model, in abstract time ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyModel {
    /// Instant delivery.
    Zero,
    /// Uniform latency in `[min, max]` ticks.
    Uniform {
        /// Minimum latency.
        min: u64,
        /// Maximum latency (inclusive).
        max: u64,
    },
}

impl LatencyModel {
    /// Draws one message latency. Public so transports outside this crate
    /// (the `pss-net` in-memory mesh) can mirror the engine's per-message
    /// model exactly.
    pub fn sample(self, rng: &mut impl Rng) -> u64 {
        match self {
            LatencyModel::Zero => 0,
            LatencyModel::Uniform { min, max } => {
                if min >= max {
                    min
                } else {
                    rng.random_range(min..=max)
                }
            }
        }
    }

    /// The smallest latency the model can produce — the conservative
    /// lookahead window of the sharded engine.
    pub fn minimum(self) -> u64 {
        match self {
            LatencyModel::Zero => 0,
            LatencyModel::Uniform { min, .. } => min,
        }
    }

    /// The largest latency the model can produce — how far ahead a message
    /// queue has to reach.
    pub fn maximum(self) -> u64 {
        match self {
            LatencyModel::Zero => 0,
            LatencyModel::Uniform { min, max } => max.max(min),
        }
    }
}

/// Parameters of the event-driven engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventConfig {
    /// Gossip period `T` in ticks (the paper's "wait(T time units)").
    pub period: u64,
    /// Uniform timer jitter in ticks, applied as `±jitter` around the
    /// period. Must be `< period`.
    pub jitter: u64,
    /// Message latency model.
    pub latency: LatencyModel,
    /// Probability that any message is lost in transit.
    pub loss_probability: f64,
}

impl Default for EventConfig {
    fn default() -> Self {
        EventConfig {
            period: 1000,
            jitter: 100,
            latency: LatencyModel::Uniform { min: 10, max: 50 },
            loss_probability: 0.0,
        }
    }
}

/// Why an [`EventConfig`] was rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventConfigError {
    /// The period must be positive (timers could never advance otherwise).
    ZeroPeriod,
    /// `jitter` must be strictly below `period`: the timer re-arms at
    /// `period - jitter + U[0, 2·jitter]`, which for `jitter >= period`
    /// could fire at or before the current tick and stall time.
    JitterNotBelowPeriod {
        /// The offending jitter.
        jitter: u64,
        /// The configured period.
        period: u64,
    },
    /// The loss probability must lie in `[0, 1]`.
    InvalidLossProbability(f64),
    /// Multi-shard runs need a minimum latency of at least one tick: the
    /// conservative lookahead window *is* the minimum latency, and a zero
    /// window would force shards into lock-step on every tick.
    NoLookahead {
        /// The requested shard count.
        shards: usize,
    },
}

impl std::fmt::Display for EventConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EventConfigError::ZeroPeriod => write!(f, "gossip period must be positive"),
            EventConfigError::JitterNotBelowPeriod { jitter, period } => write!(
                f,
                "timer jitter ({jitter}) must be strictly below the period ({period})"
            ),
            EventConfigError::InvalidLossProbability(p) => {
                write!(f, "loss probability {p} is outside [0, 1]")
            }
            EventConfigError::NoLookahead { shards } => write!(
                f,
                "{shards}-shard event simulation needs a minimum latency of at least 1 tick \
                 (the conservative lookahead window equals the minimum latency)"
            ),
        }
    }
}

impl std::error::Error for EventConfigError {}

impl EventConfig {
    /// Checks the configuration invariants; constructors run this for you.
    pub fn validate(&self) -> Result<(), EventConfigError> {
        if self.period == 0 {
            return Err(EventConfigError::ZeroPeriod);
        }
        if self.jitter >= self.period {
            return Err(EventConfigError::JitterNotBelowPeriod {
                jitter: self.jitter,
                period: self.period,
            });
        }
        if !(0.0..=1.0).contains(&self.loss_probability) {
            return Err(EventConfigError::InvalidLossProbability(
                self.loss_probability,
            ));
        }
        Ok(())
    }

    /// [`EventConfig::validate`] plus the sharded-engine requirement: with
    /// more than one shard the minimum latency (= lookahead window) must be
    /// at least one tick.
    pub fn validate_sharded(&self, shards: usize) -> Result<(), EventConfigError> {
        self.validate()?;
        if shards > 1 && self.latency.minimum() == 0 {
            return Err(EventConfigError::NoLookahead { shards });
        }
        Ok(())
    }
}

/// Cumulative accounting of a [`ShardedEventSimulation`] run — the
/// event-engine analogue of
/// [`CycleReport`], as totals since construction rather than per cycle
/// (an "exchange" spans multiple events here).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EventReport {
    /// Timer events fired by live nodes.
    pub timers_fired: u64,
    /// Timer fires that could not initiate (empty view).
    pub empty_view: u64,
    /// Requests delivered to live nodes.
    pub requests_delivered: u64,
    /// Replies delivered to live nodes.
    pub replies_delivered: u64,
    /// Exchanges completed: push-only requests delivered plus replies
    /// absorbed by their initiators.
    pub exchanges_completed: u64,
    /// Messages that arrived at a dead node and were dropped.
    pub dead_deliveries: u64,
    /// Messages dropped in transit by the loss model.
    pub dropped_messages: u64,
}

impl core::ops::AddAssign for EventReport {
    fn add_assign(&mut self, rhs: EventReport) {
        self.timers_fired += rhs.timers_fired;
        self.empty_view += rhs.empty_view;
        self.requests_delivered += rhs.requests_delivered;
        self.replies_delivered += rhs.replies_delivered;
        self.exchanges_completed += rhs.exchanges_completed;
        self.dead_deliveries += rhs.dead_deliveries;
        self.dropped_messages += rhs.dropped_messages;
    }
}

impl EventReport {
    /// Field-wise difference from an earlier snapshot of the same run.
    pub fn since(&self, earlier: &EventReport) -> EventReport {
        EventReport {
            timers_fired: self.timers_fired - earlier.timers_fired,
            empty_view: self.empty_view - earlier.empty_view,
            requests_delivered: self.requests_delivered - earlier.requests_delivered,
            replies_delivered: self.replies_delivered - earlier.replies_delivered,
            exchanges_completed: self.exchanges_completed - earlier.exchanges_completed,
            dead_deliveries: self.dead_deliveries - earlier.dead_deliveries,
            dropped_messages: self.dropped_messages - earlier.dropped_messages,
        }
    }

    /// Projects the totals onto the cycle engine's report shape, so drivers
    /// generic over [`Mode`] can aggregate either engine: completed
    /// exchanges, dead deliveries as failed peers, empty views, losses.
    pub fn as_cycle_report(&self) -> CycleReport {
        CycleReport {
            completed: self.exchanges_completed,
            failed_dead_peer: self.dead_deliveries,
            empty_view: self.empty_view,
            dropped_messages: self.dropped_messages,
        }
    }
}

/// One recorded message arrival, for the delivery-order test harness (see
/// [`ShardedEventSimulation::set_record_deliveries`]). Records are kept in
/// per-shard processing order; [`ShardedEventSimulation::take_deliveries`]
/// concatenates them in shard order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// When the message was sent.
    pub sent: u64,
    /// When it arrived (event time).
    pub delivered: u64,
    /// Sending node.
    pub from: NodeId,
    /// Destination node (dead targets are recorded too — the arrival
    /// happened, the payload was dropped).
    pub to: NodeId,
    /// Shard of the sender.
    pub src_shard: u32,
    /// Shard of the destination.
    pub dst_shard: u32,
    /// The sender shard's monotone event sequence at send time: within one
    /// `(src, dst)` pair, send order.
    pub sent_seq: u64,
    /// True for requests, false for replies.
    pub is_request: bool,
}

/// A message due at a node of this shard, waiting in the message queue.
struct Arrival {
    /// The shard's push counter when it was queued: its place among the
    /// timers of the same tick.
    seq: u64,
    src_shard: u32,
    wire: WireEvent,
}

/// A message in transit. One that crosses a shard boundary is parked in a
/// mailbox lane until the bucket ends: lane index gives the destination,
/// and the sender shard is the lane it sits in after transposition.
struct WireEvent {
    time: u64,
    sent: u64,
    sent_seq: u64,
    from: NodeId,
    to_slot: u32,
    msg: WireMsg,
}

enum WireMsg {
    Request(Request),
    Reply(Reply),
}

/// Upper bound on recycled payload buffers pooled per shard arena; beyond
/// this, spent buffers are dropped. Sized to cover the in-flight payload
/// demand of large-c, high-loss runs without letting a transient spike pin
/// memory.
const PAYLOAD_POOL_LIMIT: usize = 1024;

/// What an event-engine shard holds beyond its nodes: its two event
/// queues and its cross-shard mailboxes. Its arena is where absorbed
/// payload buffers are parked and reused for outgoing messages; sends and
/// receives balance per shard in steady state, so ownership replaces the
/// cross-shard capacity-return lanes earlier revisions needed when the pool
/// was tied to short-lived worker threads. Its RNG stream draws timer
/// jitter, message latency and message loss.
pub struct EventShard {
    /// Gossip timers as `(seq, local slot)`.
    timers: TickQueue<(u64, u32)>,
    messages: TickQueue<Arrival>,
    /// The two drain buffers, swapped against the slots of the tick being
    /// processed and handed back empty.
    timer_batch: Vec<(u64, u32)>,
    message_batch: Vec<Arrival>,
    /// Monotone event sequence; tie-breaks equal times, orders sends.
    seq: u64,
    mail: Mailboxes<WireEvent>,
    report: EventReport,
    /// Events processed by this shard (monotone).
    processed: u64,
    /// Arrival log, filled only when tracing is on.
    deliveries: Vec<Delivery>,
    trace: bool,
}

impl EventShard {
    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    fn schedule_timer(&mut self, time: u64, slot: u32) {
        let seq = self.next_seq();
        self.timers.push(time, (seq, slot));
    }

    /// Queues a message that arrives at `wire.time` from `src_shard`.
    fn schedule_arrival(&mut self, src_shard: u32, wire: WireEvent) {
        let seq = self.next_seq();
        let arrival = Arrival {
            seq,
            src_shard,
            wire,
        };
        self.messages.push(arrival.wire.time, arrival);
    }

    /// The earliest pending event time.
    fn next_time(&mut self) -> Option<u64> {
        let timer = self.timers.next_time();
        timer.into_iter().chain(self.messages.next_time()).min()
    }

    fn pending(&self) -> usize {
        self.timers.len() + self.messages.len()
    }
}

/// Read-only context shared by all workers during a bucket.
struct EventCtx<'a> {
    directory: &'a [SlotRef],
    config: EventConfig,
    partition: Option<Partition>,
}

/// Driver-side state of the event model (the [`Mode`] of
/// [`ShardedEventSimulation`]).
pub struct EventDriven {
    config: EventConfig,
    /// Conservative lookahead window = minimum latency (≥ 1 when sharded).
    window: u64,
    /// Current simulation time: the largest deadline reached so far.
    now: u64,
    /// Processing frontier: every event *strictly before* it has been
    /// processed. Advances bucket-by-bucket; the bucket grid is absolute
    /// (multiples of the window), which is what makes results invariant
    /// under how a run is chunked into `run_until` calls.
    frontier: u64,
    /// True while cross-shard messages are parked in out-lanes mid-bucket.
    pending_mail: bool,
    /// `pss_queue_overflow_total{engine="event"}`: events that were pushed
    /// beyond a shard ring's reach ([`TickQueue::overflowed`]), summed over
    /// shards and queues — a run that fell off the O(1) path shows here.
    queue_overflow: pss_telemetry::Counter,
    /// How much of that sum the counter has been given so far.
    overflow_exported: u64,
}

/// The sharded discrete-event simulator over the same node population
/// types as [`crate::ShardedSimulation`]. See the `event.rs` module docs
/// for the lookahead model; the membership and observation API (`add_node`,
/// `kill`, `view_of`, `snapshot`, …) is [`Sharded`]'s, shared with the
/// cycle engine.
///
/// # Examples
///
/// ```
/// use pss_core::{PolicyTriple, ProtocolConfig};
/// use pss_sim::{EventConfig, ShardedEventSimulation};
///
/// let protocol = ProtocolConfig::new(PolicyTriple::newscast(), 20)?;
/// let mut sim = ShardedEventSimulation::new(protocol, EventConfig::default(), 7, 2)?;
/// sim.add_connected_nodes(100);
/// sim.run_for(20_000); // ≈ 20 gossip periods
/// assert!(sim.csr_snapshot().graph().undirected().average_degree() > 20.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type ShardedEventSimulation<N> = Sharded<N, EventDriven>;

impl ShardedEventSimulation<PeerSamplingNode> {
    /// Creates an empty sharded event simulation of (monomorphized)
    /// [`PeerSamplingNode`]s running the paper's generic protocol.
    ///
    /// # Errors
    ///
    /// Returns an [`EventConfigError`] if `config` violates an invariant
    /// (zero period, `jitter >= period`, loss probability outside `[0, 1]`,
    /// or zero minimum latency with more than one shard).
    pub fn new(
        protocol: ProtocolConfig,
        config: EventConfig,
        seed: u64,
        shards: usize,
    ) -> Result<Self, EventConfigError> {
        Self::with_factory(config, seed, shards, move |id, node_seed| {
            PeerSamplingNode::with_seed(id, protocol.clone(), node_seed)
        })
    }
}

impl<N: GossipNode + Send> ShardedEventSimulation<N> {
    /// Creates an empty sharded event simulation with a custom node
    /// factory. The factory receives the assigned node id and a derived RNG
    /// seed; it must be `Fn + Sync` so per-shard populations can be built
    /// in parallel ([`Sharded::add_nodes_bulk`]).
    ///
    /// # Errors
    ///
    /// Returns an [`EventConfigError`] if `config` violates an invariant.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn with_factory(
        config: EventConfig,
        seed: u64,
        shards: usize,
        factory: impl Fn(NodeId, u64) -> N + Send + Sync + 'static,
    ) -> Result<Self, EventConfigError> {
        config.validate_sharded(shards)?;
        let mode = EventDriven {
            config,
            window: config.latency.minimum().max(1),
            now: 0,
            frontier: 0,
            pending_mail: false,
            queue_overflow: pss_telemetry::global().counter_with(
                "pss_queue_overflow_total",
                &[("engine", "event")],
                "Events scheduled beyond the calendar queue's ring, through its overflow map",
            ),
            overflow_exported: 0,
        };
        let tele = EngineTele::new("event", &["process", "merge"], shards);
        Ok(Sharded::empty(seed, shards, factory, tele, mode, || {
            let state = EventShard {
                // Timers re-arm at most `period + jitter` ahead, messages
                // land at most the maximum latency ahead.
                timers: TickQueue::new(config.period.saturating_add(config.jitter)),
                messages: TickQueue::new(config.latency.maximum()),
                timer_batch: Vec::new(),
                message_batch: Vec::new(),
                seq: 0,
                mail: Mailboxes::new(shards),
                report: EventReport::default(),
                processed: 0,
                deliveries: Vec::new(),
                trace: false,
            };
            (Arena::with_pool_limit(PAYLOAD_POOL_LIMIT), state)
        }))
    }

    /// The conservative lookahead window in ticks (= the minimum latency,
    /// at least 1).
    pub fn lookahead(&self) -> u64 {
        self.mode.window
    }

    /// The engine configuration.
    pub fn config(&self) -> EventConfig {
        self.mode.config
    }

    /// Current simulation time in ticks.
    pub fn now(&self) -> u64 {
        self.mode.now
    }

    /// Cumulative event statistics since construction.
    pub fn report(&self) -> EventReport {
        let mut total = EventReport::default();
        for shard in &self.shards {
            total += shard.state.report;
        }
        total
    }

    /// Total events processed since construction.
    pub fn events_processed(&self) -> u64 {
        self.shards.iter().map(|s| s.state.processed).sum()
    }

    /// Events that were scheduled beyond their queue's ring and waited in
    /// its overflow map ([`TickQueue::overflowed`]), over all shards. Zero
    /// whenever `period + jitter` and the maximum latency fit the ring
    /// (2¹⁶ ticks).
    fn queue_overflowed(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.state.timers.overflowed() + s.state.messages.overflowed())
            .sum()
    }

    /// Turns the per-arrival delivery log on or off (off by default; the
    /// log grows with every message arrival). The test harness uses it to
    /// check the lookahead and FIFO invariants from outside.
    pub fn set_record_deliveries(&mut self, on: bool) {
        for shard in &mut self.shards {
            shard.state.trace = on;
        }
    }

    /// Drains the delivery log: per-shard arrival order, concatenated in
    /// shard order.
    pub fn take_deliveries(&mut self) -> Vec<Delivery> {
        let mut all = Vec::new();
        for shard in &mut self.shards {
            all.append(&mut shard.state.deliveries);
        }
        all
    }

    /// Adds `n` nodes where node `i` bootstraps off node `i − 1` (a simple
    /// connected chain, convenient for tests and examples).
    pub fn add_connected_nodes(&mut self, n: usize) -> Vec<NodeId> {
        let mut ids = Vec::with_capacity(n);
        let mut prev: Option<NodeId> = None;
        for _ in 0..n {
            let seeds: Vec<NodeDescriptor> = prev.into_iter().map(NodeDescriptor::fresh).collect();
            let id = self.add_node(seeds);
            prev = Some(id);
            ids.push(id);
        }
        ids
    }

    /// Runs until simulation time reaches `deadline`: every event at or
    /// before it is processed. Returns the number of events processed.
    ///
    /// How a run is chunked into `run_until` calls never changes results:
    /// cross-shard messages are exchanged only at absolute bucket
    /// boundaries (multiples of the lookahead window), so a partial bucket
    /// parks them in their fixed-order lanes until the bucket completes.
    pub fn run_until(&mut self, deadline: u64) -> u64 {
        let before = self.events_processed();
        let Sharded {
            shards,
            dir,
            pool,
            partition,
            tele,
            mode,
            ..
        } = self;
        let ctx = EventCtx {
            directory: dir.slots(),
            config: mode.config,
            partition: *partition,
        };
        let EventDriven {
            window,
            now,
            frontier,
            pending_mail,
            ..
        } = mode;

        if shards.len() == 1 {
            // Sequential special case: every message is local, the global
            // (time, seq) order is the schedule order, buckets are moot.
            if *frontier <= deadline {
                tele.time_solo(0, || process_until(&mut shards[0], deadline, &ctx));
                *frontier = deadline.saturating_add(1);
            }
            *now = (*now).max(deadline);
            return self.events_processed() - before;
        }

        let window = *window;
        while *frontier <= deadline {
            // The next absolute bucket boundary past the frontier. Near
            // u64::MAX there is none (run-to-exhaustion calls saturate the
            // frontier); whatever remains is one final partial bucket.
            let bucket_end = (*frontier / window)
                .checked_add(1)
                .and_then(|k| k.checked_mul(window));
            let full = bucket_end.is_some_and(|end| end - 1 <= deadline);
            if !*pending_mail {
                // Fast-forward across empty stretches: with no parked mail,
                // every pending event sits in some shard's queue.
                match shards.iter_mut().filter_map(|s| s.state.next_time()).min() {
                    None => {
                        *frontier = deadline.saturating_add(1);
                        break;
                    }
                    Some(t) if t > deadline => {
                        *frontier = deadline.saturating_add(1);
                        break;
                    }
                    Some(t) if bucket_end.is_some_and(|end| t >= end) => {
                        *frontier = (t / window) * window;
                        continue;
                    }
                    _ => {}
                }
            }
            let limit = match bucket_end {
                Some(end) if full => end - 1,
                _ => deadline,
            };
            // Per-bucket phases go to the histograms only (`trail: None`):
            // buckets are far too frequent for the flight ring; the period
            // driver records the trail events instead.
            tele.run_phase(0, None, shards, pool, |shard| {
                process_until(shard, limit, &ctx);
            });
            if full {
                let end = bucket_end.expect("full implies a boundary");
                // Bucket boundary: exchange mailboxes and merge, in fixed
                // sender-shard order.
                exec::transpose(shards, |shard| &mut shard.state.mail);
                tele.run_phase(1, None, shards, pool, |shard| {
                    merge_inbox(&mut shard.state, end)
                });
                *pending_mail = false;
                *frontier = end;
            } else {
                // Mid-bucket stop: cross-shard messages stay parked in
                // their fixed-order lanes until the bucket completes, so
                // chunked and unchunked runs merge them identically.
                *pending_mail = !shards.iter().all(|s| s.state.mail.out_is_empty());
                *frontier = deadline.saturating_add(1);
                break;
            }
        }
        *now = (*now).max(deadline);
        self.events_processed() - before
    }

    /// Runs for `duration` ticks from the current time.
    pub fn run_for(&mut self, duration: u64) -> u64 {
        self.run_until(self.mode.now.saturating_add(duration))
    }
}

impl Mode for EventDriven {
    type ShardState = EventShard;

    fn joined(&self, state: &mut EventShard, slot: u32, phase: impl FnOnce(u64) -> u64) {
        // Never schedule below the processing frontier: a bucket that was
        // already exchanged is frozen, and a timer inside it could emit a
        // cross-shard message due before the next boundary (a lookahead
        // violation). Only a phase-0 draw right after a run can hit this.
        let at = (self.now + phase(self.config.period)).max(self.frontier);
        state.schedule_timer(at, slot);
    }

    /// One gossip period, projected onto the cycle engine's report shape.
    fn run_cycle<N: GossipNode + Send>(sim: &mut Sharded<N, Self>) -> CycleReport {
        let before = sim.report();
        let period = sim.mode.config.period;
        pss_telemetry::flight().record(
            pss_telemetry::EventKind::PhaseStart,
            "event/period",
            sim.cycles + 1,
            0,
        );
        let started = std::time::Instant::now();
        sim.run_for(period);
        pss_telemetry::flight().record(
            pss_telemetry::EventKind::PhaseEnd,
            "event/period",
            sim.cycles + 1,
            started.elapsed().as_nanos() as u64,
        );
        sim.cycles += 1;
        sim.tele.cycle_done();
        let overflowed = sim.queue_overflowed();
        sim.mode
            .queue_overflow
            .add(overflowed - sim.mode.overflow_exported);
        sim.mode.overflow_exported = overflowed;
        sim.report().since(&before).as_cycle_report()
    }
}

/// Merges a shard's freshly transposed inbox into its message queue, in
/// sender-shard lane order (FIFO within each lane): the deterministic
/// cross-shard arrival order of the engine's contract.
fn merge_inbox(shard: &mut EventShard, horizon: u64) {
    let mut inbox = core::mem::take(&mut shard.mail.inbox);
    for (src_shard, lane) in inbox.iter_mut().enumerate() {
        for wire in lane.drain(..) {
            debug_assert!(
                wire.time >= horizon,
                "lookahead violation: cross-shard message for t={} merged at horizon {}",
                wire.time,
                horizon
            );
            shard.schedule_arrival(src_shard as u32, wire);
        }
    }
    shard.mail.inbox = inbox;
}

/// Processes every event with `time <= limit` in this shard's queues, in
/// `(time, seq)` order: tick by tick, the tick's timers and messages merged
/// by `seq`. New local events (timers, same-shard messages) go back into
/// the queues — a zero-latency message onto the tick being drained, which
/// then comes round again; cross-shard messages park in the out-mailboxes.
/// Before each event the nodes of the next two are prefetched
/// ([`Population::prefetch`](crate::population::Population::prefetch)).
fn process_until<N: GossipNode + Send>(
    shard: &mut Shard<N, EventShard>,
    limit: u64,
    ctx: &EventCtx<'_>,
) {
    let mut timers = core::mem::take(&mut shard.state.timer_batch);
    let mut messages = core::mem::take(&mut shard.state.message_batch);
    while let Some(now) = shard.state.next_time().filter(|&t| t <= limit) {
        shard.state.timers.take_tick(now, &mut timers);
        shard.state.messages.take_tick(now, &mut messages);
        shard.state.processed += (timers.len() + messages.len()) as u64;
        let mut due_timers = timers.drain(..);
        let mut due_messages = messages.drain(..);
        loop {
            let (t, m) = (due_timers.as_slice(), due_messages.as_slice());
            let Some(timer_first) = timer_next(t, m) else {
                break;
            };
            if timer_first {
                shard.pop.prefetch(merged_slots(&t[1..], m));
                let (_, slot) = due_timers.next().expect("non-empty");
                fire_timer(shard, slot, now, ctx);
            } else {
                shard.pop.prefetch(merged_slots(t, &m[1..]));
                deliver(shard, due_messages.next().expect("non-empty"), now, ctx);
            }
        }
    }
    // Nothing is left through `limit`: move both cursors there, so that the
    // rings reach their full span ahead of the frontier.
    let closed = shard.state.timers.take_tick(limit, &mut timers);
    debug_assert!(closed.is_none());
    let closed = shard.state.messages.take_tick(limit, &mut messages);
    debug_assert!(closed.is_none());
    shard.state.timer_batch = timers;
    shard.state.message_batch = messages;
}

/// Which of a tick's two batches holds its next event in `seq` order:
/// `Some(true)` the timers, `Some(false)` the messages, `None` if both are
/// drained.
fn timer_next(timers: &[(u64, u32)], messages: &[Arrival]) -> Option<bool> {
    match (timers.first(), messages.first()) {
        (Some(&(seq, _)), Some(arrival)) => Some(seq < arrival.seq),
        (Some(_), None) => Some(true),
        (None, Some(_)) => Some(false),
        (None, None) => None,
    }
}

/// The destination slots of a tick's remaining events, in the `seq` order
/// [`process_until`] processes them.
fn merged_slots<'a>(
    mut timers: &'a [(u64, u32)],
    mut messages: &'a [Arrival],
) -> impl Iterator<Item = u32> + 'a {
    core::iter::from_fn(move || {
        if timer_next(timers, messages)? {
            let (&(_, slot), rest) = timers.split_first()?;
            timers = rest;
            Some(slot)
        } else {
            let (arrival, rest) = messages.split_first()?;
            messages = rest;
            Some(arrival.wire.to_slot)
        }
    })
}

/// The gossip timer of local slot `slot` fires at `now`.
fn fire_timer<N: GossipNode + Send>(
    shard: &mut Shard<N, EventShard>,
    slot: u32,
    now: u64,
    ctx: &EventCtx<'_>,
) {
    // Dead nodes stop participating: no exchange, no re-arm.
    if !shard.pop.slot(slot).alive {
        return;
    }
    shard.state.report.timers_fired += 1;
    let entry = shard.pop.slot_mut(slot);
    let initiator = entry.node.id();
    match entry.node.initiate(&mut shard.arena) {
        Some(exchange) => {
            if lose(&mut shard.rng, ctx.config.loss_probability) {
                shard.state.report.dropped_messages += 1;
            } else {
                let peer = exchange.peer;
                send(
                    shard,
                    ctx,
                    now,
                    initiator,
                    peer,
                    WireMsg::Request(exchange.request),
                );
            }
        }
        None => shard.state.report.empty_view += 1,
    }
    // Re-arm the timer with jitter regardless.
    let jitter = if ctx.config.jitter == 0 {
        0
    } else {
        shard.rng.random_range(0..=2 * ctx.config.jitter)
    };
    let next = now + ctx.config.period - ctx.config.jitter + jitter;
    shard.state.schedule_timer(next, slot);
}

/// A message arrives at its destination slot at `now`.
fn deliver<N: GossipNode + Send>(
    shard: &mut Shard<N, EventShard>,
    arrival: Arrival,
    now: u64,
    ctx: &EventCtx<'_>,
) {
    record_delivery(shard, &arrival, now);
    let WireEvent {
        from, to_slot, msg, ..
    } = arrival.wire;
    if !shard.pop.slot(to_slot).alive {
        shard.state.report.dead_deliveries += 1;
        return;
    }
    match msg {
        WireMsg::Request(request) => {
            shard.state.report.requests_delivered += 1;
            // The reply (if any) builds from the shard arena's pool; the
            // spent request buffer is recycled into the same pool by the
            // node's absorb, whichever shard it was allocated on.
            let responder = shard.pop.slot_mut(to_slot);
            let responder_id = responder.node.id();
            match responder
                .node
                .handle_request(&mut shard.arena, from, request)
            {
                Some(reply) => {
                    if lose(&mut shard.rng, ctx.config.loss_probability) {
                        shard.state.report.dropped_messages += 1;
                    } else {
                        send(shard, ctx, now, responder_id, from, WireMsg::Reply(reply));
                    }
                }
                // Push-only exchange: complete on request delivery.
                None => shard.state.report.exchanges_completed += 1,
            }
        }
        WireMsg::Reply(reply) => {
            shard
                .pop
                .slot_mut(to_slot)
                .node
                .handle_reply(&mut shard.arena, from, reply);
            shard.state.report.replies_delivered += 1;
            shard.state.report.exchanges_completed += 1;
        }
    }
}

/// Sends `msg` from `from` (on `shard`) to `to`, drawing the latency from
/// the sender shard's RNG: local destinations go straight into the message
/// queue, remote ones park in the out-mailbox lane until the bucket ends.
fn send<N: GossipNode + Send>(
    shard: &mut Shard<N, EventShard>,
    ctx: &EventCtx<'_>,
    now: u64,
    from: NodeId,
    to: NodeId,
    msg: WireMsg,
) {
    // Partition loss matrix: decided before the latency draw, so a
    // totally-partitioned run consumes no RNG for traffic that never
    // leaves (lossy matrices draw once per cross-group message, from the
    // sender shard's stream — still worker-count invariant). Requests and
    // replies both pass through here, so asymmetric matrices apply their
    // per-direction loss naturally.
    if ctx
        .partition
        .is_some_and(|p| p.drops(from, to, &mut shard.rng))
    {
        shard.state.report.dropped_messages += 1;
        return;
    }
    let latency = ctx.config.latency.sample(&mut shard.rng);
    let sent_seq = shard.state.next_seq();
    let dest = ctx.directory[to.as_index()];
    let wire = WireEvent {
        time: now + latency,
        sent: now,
        sent_seq,
        from,
        to_slot: dest.slot,
        msg,
    };
    if dest.shard as usize == shard.index {
        shard.state.schedule_arrival(shard.index as u32, wire);
    } else {
        shard.state.mail.out[dest.shard as usize].push(wire);
    }
}

fn record_delivery<N: GossipNode + Send>(
    shard: &mut Shard<N, EventShard>,
    arrival: &Arrival,
    delivered: u64,
) {
    if !shard.state.trace {
        return;
    }
    let wire = &arrival.wire;
    let to = shard.pop.slot(wire.to_slot).node.id();
    shard.state.deliveries.push(Delivery {
        sent: wire.sent,
        delivered,
        from: wire.from,
        to,
        src_shard: arrival.src_shard,
        dst_shard: shard.index as u32,
        sent_seq: wire.sent_seq,
        is_request: matches!(wire.msg, WireMsg::Request(_)),
    });
}

impl<N: GossipNode + Send> std::fmt::Debug for ShardedEventSimulation<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEventSimulation")
            .field("now", &self.mode.now)
            .field("shards", &self.shards.len())
            .field("workers", &self.pool.workers())
            .field("lookahead", &self.mode.window)
            .field("nodes", &self.dir.len())
            .field("alive", &self.dir.alive_count())
            .field(
                "pending_events",
                &self.shards.iter().map(|s| s.state.pending()).sum::<usize>(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pss_core::PolicyTriple;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn protocol() -> ProtocolConfig {
        ProtocolConfig::new(PolicyTriple::newscast(), 8).unwrap()
    }

    fn sim(config: EventConfig) -> ShardedEventSimulation<PeerSamplingNode> {
        ShardedEventSimulation::new(protocol(), config, 11, 1).expect("valid config")
    }

    #[test]
    fn latency_model_sampling() {
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(LatencyModel::Zero.sample(&mut rng), 0);
        for _ in 0..100 {
            let l = LatencyModel::Uniform { min: 5, max: 9 }.sample(&mut rng);
            assert!((5..=9).contains(&l));
        }
        // Degenerate range.
        assert_eq!(LatencyModel::Uniform { min: 7, max: 7 }.sample(&mut rng), 7);
        assert_eq!(LatencyModel::Zero.minimum(), 0);
        assert_eq!(LatencyModel::Uniform { min: 3, max: 9 }.minimum(), 3);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let build =
            |config: EventConfig| ShardedEventSimulation::new(protocol(), config, 11, 1).err();
        assert_eq!(
            build(EventConfig {
                period: 100,
                jitter: 100,
                latency: LatencyModel::Zero,
                loss_probability: 0.0,
            }),
            Some(EventConfigError::JitterNotBelowPeriod {
                jitter: 100,
                period: 100,
            })
        );
        assert_eq!(
            build(EventConfig {
                period: 0,
                jitter: 0,
                latency: LatencyModel::Zero,
                loss_probability: 0.0,
            }),
            Some(EventConfigError::ZeroPeriod)
        );
        assert_eq!(
            build(EventConfig {
                period: 100,
                jitter: 10,
                latency: LatencyModel::Zero,
                loss_probability: 1.5,
            }),
            Some(EventConfigError::InvalidLossProbability(1.5))
        );
        // Errors display a human-readable reason.
        let err = EventConfig {
            period: 50,
            jitter: 99,
            latency: LatencyModel::Zero,
            loss_probability: 0.0,
        }
        .validate()
        .unwrap_err();
        assert!(err.to_string().contains("99"));
        assert!(err.to_string().contains("50"));
    }

    #[test]
    fn multi_shard_requires_lookahead() {
        // Zero minimum latency is fine sequentially...
        let config = EventConfig {
            period: 100,
            jitter: 0,
            latency: LatencyModel::Zero,
            loss_probability: 0.0,
        };
        assert!(ShardedEventSimulation::new(protocol(), config, 1, 1).is_ok());
        // ...but has no lookahead window to run shards concurrently under.
        assert_eq!(
            ShardedEventSimulation::new(protocol(), config, 1, 2).err(),
            Some(EventConfigError::NoLookahead { shards: 2 })
        );
        let err = config.validate_sharded(4).unwrap_err();
        assert!(err.to_string().contains("lookahead"));
        // A positive minimum restores it.
        let ok = EventConfig {
            latency: LatencyModel::Uniform { min: 1, max: 4 },
            ..config
        };
        assert!(ShardedEventSimulation::new(protocol(), ok, 1, 2).is_ok());
    }

    #[test]
    fn timers_fire_and_rearm() {
        let mut s = sim(EventConfig {
            period: 100,
            jitter: 0,
            latency: LatencyModel::Zero,
            loss_probability: 0.0,
        });
        s.add_connected_nodes(2);
        let processed = s.run_for(1000);
        // ~10 periods × 2 nodes × (timer + request + reply) events.
        assert!(processed >= 40, "only {processed} events");
        // Both learned each other.
        assert!(s.view_of(NodeId::new(0)).unwrap().contains(NodeId::new(1)));
        assert!(s.view_of(NodeId::new(1)).unwrap().contains(NodeId::new(0)));
        let report = s.report();
        assert!(report.timers_fired >= 18);
        assert!(report.requests_delivered > 0);
        assert!(report.exchanges_completed > 0);
    }

    #[test]
    fn overlay_converges_under_jitter_and_latency() {
        // View size 16: comfortably above the small-overlay connectivity
        // threshold (tiny views can genuinely partition, see Section 4.3
        // experiments).
        let protocol = ProtocolConfig::new(PolicyTriple::newscast(), 16).unwrap();
        let mut s = ShardedEventSimulation::new(
            protocol,
            EventConfig {
                period: 1000,
                jitter: 300,
                latency: LatencyModel::Uniform { min: 10, max: 200 },
                loss_probability: 0.0,
            },
            11,
            1,
        )
        .expect("valid config");
        // Tree bootstrap (every joiner knows an introducer): a bare chain
        // can genuinely be cut into two self-reinforcing communities under
        // concurrent exchanges.
        crate::scenario::seed_tree(&mut s, 80);
        s.run_for(30_000);
        let g = s.csr_snapshot().graph().undirected();
        assert!(pss_graph::components::connected_components(&g).is_connected());
        assert!(g.average_degree() > 16.0);
    }

    #[test]
    fn dead_nodes_stop_participating() {
        let mut s = sim(EventConfig {
            period: 100,
            jitter: 0,
            latency: LatencyModel::Zero,
            loss_probability: 0.0,
        });
        s.add_connected_nodes(3);
        s.run_for(500);
        assert!(s.kill(NodeId::new(2)));
        assert_eq!(s.alive_count(), 2);
        s.run_for(500);
        assert!(s.dead_link_count() <= 16); // bounded by views, no panic
        assert_eq!(s.csr_snapshot().node_count(), 2);
    }

    #[test]
    fn total_loss_freezes_view_membership() {
        let mut s = sim(EventConfig {
            period: 100,
            jitter: 0,
            latency: LatencyModel::Zero,
            loss_probability: 1.0,
        });
        s.add_connected_nodes(4);
        let ids = |s: &ShardedEventSimulation<PeerSamplingNode>, i: u64| -> Vec<NodeId> {
            s.view_of(NodeId::new(i)).unwrap().ids().collect()
        };
        let before: Vec<_> = (0..4).map(|i| ids(&s, i)).collect();
        s.run_for(2000);
        // No message ever arrives, so nobody learns anything; views only
        // age in place.
        let after: Vec<_> = (0..4).map(|i| ids(&s, i)).collect();
        assert_eq!(before, after);
        assert_eq!(s.report().requests_delivered, 0);
        assert!(s.report().dropped_messages > 0);
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed: u64| {
            let mut s = ShardedEventSimulation::new(protocol(), EventConfig::default(), seed, 1)
                .expect("valid config");
            s.add_connected_nodes(30);
            s.run_for(20_000);
            let g = s.csr_snapshot().graph().undirected();
            (g.edge_count(), g.max_degree())
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut s = sim(EventConfig {
            period: 100,
            jitter: 0,
            latency: LatencyModel::Zero,
            loss_probability: 0.0,
        });
        s.add_connected_nodes(2);
        s.run_until(250);
        assert_eq!(s.now(), 250);
        // Events beyond the deadline remain queued.
        let more = s.run_until(1000);
        assert!(more > 0);
    }

    #[test]
    fn sharded_run_until_respects_deadline() {
        let config = EventConfig {
            period: 100,
            jitter: 0,
            latency: LatencyModel::Uniform { min: 7, max: 13 },
            loss_probability: 0.0,
        };
        let mut s = ShardedEventSimulation::new(protocol(), config, 11, 3).expect("valid config");
        s.add_connected_nodes(9);
        s.run_until(250);
        assert_eq!(s.now(), 250);
        let more = s.run_until(1000);
        assert!(more > 0);
        assert_eq!(s.now(), 1000);
    }

    #[test]
    fn a_period_beyond_the_ring_still_fires_every_timer() {
        // 200 000 ticks is past the queue's 2¹⁶-slot ring: every re-arm
        // waits in the overflow map and enters its slot when the cursor
        // uncovers it. Without jitter a node fires once per period exactly.
        const NODES: usize = 12;
        const PERIODS: u64 = 3;
        let config = EventConfig {
            period: 200_000,
            jitter: 0,
            latency: LatencyModel::Uniform { min: 5, max: 40 },
            loss_probability: 0.0,
        };
        for shards in [1, 2] {
            let mut s =
                ShardedEventSimulation::new(protocol(), config, 5, shards).expect("valid config");
            s.add_connected_nodes(NODES);
            s.run_until(PERIODS * config.period - 1);
            let report = s.report();
            assert_eq!(
                report.timers_fired,
                NODES as u64 * PERIODS,
                "{shards} shards"
            );
            assert!(report.exchanges_completed > 0);
            assert!(
                s.queue_overflowed() >= NODES as u64 * PERIODS,
                "every re-arm is beyond the ring"
            );
        }
        // The period driver exports what the shards counted (the series is
        // process-wide, so other simulations may have added to it).
        let mut s = ShardedEventSimulation::new(protocol(), config, 5, 2).expect("valid config");
        s.add_connected_nodes(NODES);
        s.run_cycle();
        assert!(s.queue_overflowed() >= NODES as u64);
        assert!(s.mode.queue_overflow.get() >= s.queue_overflowed());
        // The configurations the repo runs stay on the ring.
        let mut s = ShardedEventSimulation::new(protocol(), EventConfig::default(), 5, 2)
            .expect("valid config");
        s.add_connected_nodes(NODES);
        s.run_for(5_000);
        assert_eq!(s.queue_overflowed(), 0);
    }

    #[test]
    fn run_cycle_advances_one_period() {
        let mut s = ShardedEventSimulation::new(protocol(), EventConfig::default(), 3, 2)
            .expect("valid config");
        s.add_connected_nodes(20);
        let report = s.run_cycle();
        assert_eq!(s.cycle(), 1);
        assert_eq!(s.now(), 1000);
        assert!(report.initiated() > 0);
    }

    #[test]
    fn debug_format() {
        let s = sim(EventConfig::default());
        assert!(format!("{s:?}").contains("pending_events"));
        let sh = ShardedEventSimulation::new(protocol(), EventConfig::default(), 1, 2)
            .expect("valid config");
        let text = format!("{sh:?}");
        assert!(text.contains("lookahead"));
        assert!(text.contains("shards"));
    }
}
