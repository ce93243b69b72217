//! The node runtime: many gossip nodes on one OS thread, over any
//! [`Transport`].
//!
//! A [`NetRuntime`] owns a set of [`GossipNode`]s, a timer queue that fires
//! each node's active cycle once per period (± uniform jitter, mirroring
//! the event engine's timer model — and held in the event engine's queue,
//! [`pss_sim::TickQueue`]: a per-tick ring of bounded size, so no period,
//! however long, sizes memory), and one transport endpoint multiplexing
//! all of them. Time is abstract **ticks**: real-time drivers map wall
//! milliseconds to ticks and call [`NetRuntime::run_until`] in a loop (see
//! [`crate::cluster`]); deterministic tests drive virtual time directly.
//!
//! # The frame path is allocation-free in steady state
//!
//! Incoming frames are decoded ([`pss_core::wire`]) straight into message
//! buffers recycled through the runtime's own [`pss_core::Arena`]; the
//! node's absorb path merges the buffer in place — the view's one merge
//! core ages, deduplicates and selects in a single read of it, with no
//! copy — and recycles it back to the arena. A reused
//! per-tick batch of receive buffers (UDP copies each datagram into one,
//! the in-memory mesh swaps its spare stack against them), one reusable
//! encode buffer, one decode scratch table, one rumor-target list —
//! nothing per-frame, over either transport.
//!
//! # Each tick's frames are one batch
//!
//! A tick drains every pending frame into the batch before processing the
//! first, and drains again until the transport has nothing left (over UDP
//! more may land meanwhile; over the mesh only `advance_to` fills an
//! inbox, so a tick is one batch). Knowing the whole batch lets the frame
//! loop look ahead the way the engines' per-node loops do: a frame's
//! destination id sits at a fixed header offset ([`wire::peek_dst`]), so
//! while frame *i* is processed, frame *i + 2*'s bytes and hosted node
//! start loading, and frame *i + 1*'s view descriptors. The timer loop
//! does the same over each tick's fired nodes. The lookahead is a cache
//! hint ([`pss_sim::prefetch`]) and nothing more: routing still comes from
//! [`wire::decode`], and no order, RNG draw, counter or allocation depends
//! on it.
//!
//! # Addresses
//!
//! Nodes address each other by [`NodeId`]; the runtime's **address book**
//! maps ids to transport addresses. It is fed by bootstrap introducers
//! ([`NetRuntime::add_node`]) and by every received frame (sender address
//! and all descriptor addresses), so any id a view can contain is
//! resolvable by construction. An unresolvable id is counted, never fatal.
//!
//! The book is consulted once per descriptor of every frame, in both
//! directions, so its cost per probe is the runtime's cost per frame:
//!
//! * **Keyed cheap hashing.** The book and the hosted-node index are
//!   `HashMap<NodeId, _, IdHashBuilder>` ([`pss_core::IdHashBuilder`]): one
//!   xorshift–multiply mix per probe instead of SipHash. The two keys are
//!   derived from the construction seed, so runs stay bit-reproducible,
//!   while a remote peer — which chooses the ids it gossips but does not
//!   know the seed — cannot aim ids at one bucket. Neither map is ever
//!   iterated, so hash order reaches no view, counter or digest.
//! * **Learning writes on change only.** A descriptor-carried address is
//!   compared with the book's entry first and written only if it differs.
//!   The rules are unchanged — gossip content may *update* an established
//!   entry (how a genuine address change propagates), a frame header may
//!   only *introduce* one ([`RuntimeStats::addr_rebinds_rejected`]), and a
//!   reply is absorbed only from the peer the exchange is pending with
//!   ([`RuntimeStats::forged_replies_rejected`]) — but in steady state
//!   every id is already known at its address, and the table is only read.
//! * **The book grows with what frames teach it** and shrinks only on
//!   [`NetRuntime::leave`]. Honest traffic bounds it by the cluster's
//!   population; hostile frames (up to 1 024 fresh ids each) can grow it
//!   without bound. There is no cap and no eviction yet — the size is
//!   exported as [`RuntimeStats::book_entries`] and the
//!   `pss_net_book_entries` gauge so that growth past the population shows.

use std::collections::HashMap;

use pss_core::wire::{self, DecodeScratch, EncodeError, FrameKind, NetAddr};
use pss_core::{
    Arena, Exchange, GossipNode, IdHashBuilder, NodeDescriptor, NodeId, Reply, Request, View,
};
use pss_sim::{workload::Partition, EventConfig, EventConfigError, TickQueue};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::cluster::mix;
use crate::transport::Transport;

/// Timing parameters of a runtime, in abstract ticks (the loopback cluster
/// drives 1 tick = 1 ms).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// Gossip period `T`: every node initiates once per period, and a
    /// pushpull reply not absorbed within one period is a timeout
    /// ([`RuntimeStats::timeouts`]).
    pub period: u64,
    /// Uniform timer jitter, applied as ± `jitter` around the period; must
    /// be strictly below the period (the event engine's rule).
    pub jitter: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            period: 1000,
            jitter: 100,
        }
    }
}

impl NetConfig {
    /// Takes `period`/`jitter` from an event-engine configuration (latency
    /// and loss are transport-side, see [`crate::MemNetwork::from_event`]).
    pub fn from_event(config: &EventConfig) -> Self {
        NetConfig {
            period: config.period,
            jitter: config.jitter,
        }
    }

    /// Checks the timer invariants — the event engine's rules.
    ///
    /// # Errors
    ///
    /// [`EventConfigError::ZeroPeriod`] or
    /// [`EventConfigError::JitterNotBelowPeriod`].
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
        Ok(())
    }
}

/// Longest exchange backoff, in periods: after repeated consecutive
/// timeouts a node re-arms at most this many periods out (see
/// [`RuntimeStats::backoffs`]).
const MAX_BACKOFF_STRETCH: u64 = 8;

/// A runtime's counters, each counted once, where its event happens, over
/// every node the runtime hosts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Frames pulled off the transport.
    pub frames_in: u64,
    /// Frames handed to the transport.
    pub frames_out: u64,
    /// Frames rejected before the destination node was known (header-level
    /// decode errors) — attributable to no node.
    pub header_decode_failures: u64,
    /// Frames addressed to a hosted live node whose descriptor body was
    /// rejected.
    pub body_decode_failures: u64,
    /// Frames addressed to a node this runtime does not host.
    pub unknown_destination: u64,
    /// Frames addressed to a node that has left.
    pub dead_deliveries: u64,
    /// Sends the transport refused (unroutable address, socket error).
    pub send_failures: u64,
    /// Sends skipped because the address book had no entry.
    pub missing_address: u64,
    /// Frame source addresses that tried to rebind an established address
    /// book entry and were refused. A frame header may *introduce* an id's
    /// address, never change it — otherwise one forged-src frame could
    /// redirect an established peer's traffic to the forger.
    pub addr_rebinds_rejected: u64,
    /// Replies dropped because the sender did not match the destination of
    /// the receiving node's pending exchange (forged, unsolicited, or
    /// arriving after timeout/supersession).
    pub forged_replies_rejected: u64,
    /// Frames suppressed by an installed partition loss matrix
    /// ([`NetRuntime::set_partition`]).
    pub partition_blocked: u64,
    /// Timer events fired for live nodes.
    pub timers_fired: u64,
    /// Requests absorbed.
    pub requests_in: u64,
    /// Replies absorbed.
    pub replies_in: u64,
    /// Exchanges completed — the event engine's notion: push-only requests
    /// absorbed plus replies absorbed by their initiators.
    pub exchanges_completed: u64,
    /// Pushpull requests whose reply never arrived — expired after one
    /// period, or superseded by the node's next initiated exchange,
    /// whichever came first (a node has one outstanding exchange).
    pub timeouts: u64,
    /// Timer fires that could not initiate (empty view).
    pub empty_view: u64,
    /// Timer re-arms stretched by the bootstrap backoff: a joining node
    /// whose exchanges keep timing out before it has absorbed any protocol
    /// message initiates less often (up to 8× the period) instead of
    /// hammering its overloaded introducer in lockstep — the
    /// thundering-herd fix. The first absorbed protocol message ends the
    /// bootstrap phase and restores the full gossip rate.
    pub backoffs: u64,
    /// Always 0: no transport keeps a receive ring any more (the UDP
    /// transport reads its socket on the runtime thread). Kept only for
    /// the perf ledger's `udp.ring_empty_per_kframe` row, which a later
    /// change to the benchmark retires together with this field.
    pub recv_ring_empty: u64,
    /// App frames that informed a previously-uninformed live node
    /// ([`NetRuntime::enable_broadcast`]).
    pub app_delivered: u64,
    /// App frames absorbed by an already-informed live node.
    pub app_redundant: u64,
    /// App frames addressed to a departed node — deliveries wasted on the
    /// dead, the deployed twin of the protocol layer's `wasted` metric.
    pub app_wasted: u64,
    /// Address-book entries held right now — a level, not a count of
    /// events. The book shrinks only on [`NetRuntime::leave`], so growth
    /// past the cluster's population means frames are teaching it ids that
    /// do not exist (see the module docs). Merged by sum: each runtime
    /// holds its own book.
    pub book_entries: u64,
}

impl RuntimeStats {
    /// Total decode failures (header- plus body-level) — the "zero codec
    /// errors" acceptance number.
    pub fn decode_failures(&self) -> u64 {
        self.header_decode_failures + self.body_decode_failures
    }

    /// Field-wise sum, for aggregating across runtimes.
    ///
    /// `other` is destructured **without** a `..` rest pattern: adding a
    /// counter to [`RuntimeStats`] without deciding how it merges is a
    /// compile error here, not a silently dropped statistic.
    pub fn merge(&mut self, other: &RuntimeStats) {
        let RuntimeStats {
            frames_in,
            frames_out,
            header_decode_failures,
            body_decode_failures,
            unknown_destination,
            dead_deliveries,
            send_failures,
            missing_address,
            addr_rebinds_rejected,
            forged_replies_rejected,
            partition_blocked,
            timers_fired,
            requests_in,
            replies_in,
            exchanges_completed,
            timeouts,
            empty_view,
            backoffs,
            recv_ring_empty,
            app_delivered,
            app_redundant,
            app_wasted,
            book_entries,
        } = *other;
        self.frames_in += frames_in;
        self.frames_out += frames_out;
        self.header_decode_failures += header_decode_failures;
        self.body_decode_failures += body_decode_failures;
        self.unknown_destination += unknown_destination;
        self.dead_deliveries += dead_deliveries;
        self.send_failures += send_failures;
        self.missing_address += missing_address;
        self.addr_rebinds_rejected += addr_rebinds_rejected;
        self.forged_replies_rejected += forged_replies_rejected;
        self.partition_blocked += partition_blocked;
        self.timers_fired += timers_fired;
        self.requests_in += requests_in;
        self.replies_in += replies_in;
        self.exchanges_completed += exchanges_completed;
        self.timeouts += timeouts;
        self.empty_view += empty_view;
        self.backoffs += backoffs;
        self.recv_ring_empty += recv_ring_empty;
        self.app_delivered += app_delivered;
        self.app_redundant += app_redundant;
        self.app_wasted += app_wasted;
        self.book_entries += book_entries;
    }
}

/// Telemetry handles for the network runtime (`engine="net"` series in
/// the global registry). Every runtime in the process shares the same
/// cells — cluster-wide aggregates, exactly like a multi-threaded server
/// exporting one series per family.
struct NetTele {
    /// Request→reply round trips, in virtual ticks.
    rtt_ticks: pss_telemetry::Histogram,
    /// How far behind `t` the timer queue was when a batch fired.
    wheel_lag_ticks: pss_telemetry::Histogram,
    /// Wire decode latency (header + descriptors) per frame kind.
    decode_request_ns: pss_telemetry::Histogram,
    decode_reply_ns: pss_telemetry::Histogram,
    decode_app_ns: pss_telemetry::Histogram,
    /// Header- or body-level decode rejections.
    decode_errors: pss_telemetry::Counter,
    /// High-water mark of the address book's size (the largest book among
    /// the process's runtimes — the cells are shared).
    book_entries: pss_telemetry::Gauge,
    /// Frames drained per tick, over ticks that drained any: how far the
    /// frame loop can look ahead.
    tick_frames: pss_telemetry::Histogram,
}

impl NetTele {
    fn new() -> Self {
        let reg = pss_telemetry::global();
        let hist = |phase: &str, help: &str| {
            reg.histogram_with("pss_net_decode_ns", &[("kind", phase)], help)
        };
        Self {
            rtt_ticks: reg.histogram_with(
                "pss_net_rtt_ticks",
                &[],
                "Pushpull round-trip time (request sent to reply absorbed), virtual ticks",
            ),
            wheel_lag_ticks: reg.histogram_with(
                "pss_net_wheel_lag_ticks",
                &[],
                "Ticks the timer wheel lagged behind runtime time when a batch fired",
            ),
            decode_request_ns: hist("request", "Wire decode latency per frame, nanoseconds"),
            decode_reply_ns: hist("reply", "Wire decode latency per frame, nanoseconds"),
            decode_app_ns: hist("app", "Wire decode latency per frame, nanoseconds"),
            decode_errors: reg.counter(
                "pss_net_decode_errors_total",
                "Frames rejected at the header or descriptor level",
            ),
            book_entries: reg.gauge(
                "pss_net_book_entries",
                "Largest address book (id to transport address entries) held by a runtime",
            ),
            tick_frames: reg.histogram_with(
                "pss_net_tick_frames",
                &[],
                "Frames drained per tick, over ticks that drained any",
            ),
        }
    }

    fn decode_hist(&self, kind: FrameKind) -> &pss_telemetry::Histogram {
        match kind {
            FrameKind::Request => &self.decode_request_ns,
            FrameKind::Reply => &self.decode_reply_ns,
            FrameKind::App => &self.decode_app_ns,
        }
    }
}

struct Slot<N> {
    node: N,
    alive: bool,
    /// Has absorbed a protocol message (request or reply): the bootstrap
    /// phase is over and the node never backs off (see
    /// [`RuntimeStats::backoffs`]).
    contacted: bool,
    /// An outstanding pushpull exchange: `(peer, sent tick)`.
    pending_reply: Option<(NodeId, u64)>,
    /// Consecutive reply timeouts with no absorbed reply in between —
    /// drives the exchange backoff (see [`RuntimeStats::backoffs`]).
    consecutive_timeouts: u32,
    /// Holds the rumor when the broadcast app is enabled
    /// ([`NetRuntime::enable_broadcast`]).
    informed: bool,
}

/// Many gossip nodes on one OS thread, over any [`Transport`]; see the
/// `runtime.rs` module docs and the [crate example](crate).
pub struct NetRuntime<T: Transport, N: GossipNode = pss_core::PeerSamplingNode> {
    transport: T,
    config: NetConfig,
    nodes: Vec<Slot<N>>,
    /// Hosted node id → slot index.
    index: HashMap<NodeId, u32, IdHashBuilder>,
    /// Node id → transport address, cluster-wide (learned).
    book: HashMap<NodeId, NetAddr, IdHashBuilder>,
    /// Pending gossip timers, as node slots.
    timers: TickQueue<u32>,
    rng: SmallRng,
    now: u64,
    /// Installed partition loss matrix, if any (egress-side blocking).
    partition: Option<Partition>,
    /// Recycled message buffers for the decode → node → encode path.
    arena: Arena,
    // Reused buffers: the steady-state-allocation-free receive/send path.
    /// One drain of the transport, `(sender, frame)`; entries past the
    /// drained count keep their buffers as capacity.
    batch: Vec<(NetAddr, Vec<u8>)>,
    /// The hosted slot each drained frame's header names: lookahead hints.
    batch_slots: Vec<Option<u32>>,
    encode_buf: Vec<u8>,
    fired: Vec<u32>,
    rumor_targets: Vec<NodeId>,
    scratch: DecodeScratch,
    /// Every counter; `book_entries` stays zero here and is filled in by
    /// [`NetRuntime::stats`].
    stats: RuntimeStats,
    /// Broadcast app: push fanout per period, `None` = app disabled (the
    /// default — a disabled app draws nothing from the runtime RNG, so
    /// protocol-only runs stay bit-identical to earlier versions).
    app_fanout: Option<usize>,
    /// Shared telemetry handles; purely observational.
    tele: NetTele,
}

impl<T: Transport, N: GossipNode> NetRuntime<T, N> {
    /// Creates an empty runtime over `transport`. All stochastic choices
    /// (timer phases and jitter) derive from `seed`.
    ///
    /// # Errors
    ///
    /// [`EventConfigError`] if `config` violates a timer invariant.
    pub fn new(transport: T, config: NetConfig, seed: u64) -> Result<Self, EventConfigError> {
        config.validate()?;
        // Table keys derive from the construction seed (through the
        // splitmix finalizer, so they share nothing with the RNG stream):
        // reproducible per seed, unknown to remote peers.
        let hasher =
            IdHashBuilder::with_keys(mix(seed ^ 0x6b30_626f_6f6b), mix(seed ^ 0x6b31_626f_6f6b));
        Ok(NetRuntime {
            transport,
            config,
            nodes: Vec::new(),
            index: HashMap::with_hasher(hasher),
            book: HashMap::with_hasher(hasher),
            // The ring reaches the fully backed-off re-arm distance
            // (`MAX_BACKOFF_STRETCH` periods + jitter), not just one period
            // — as far as the queue's slot cap lets it; a longer period
            // re-arms through the overflow map.
            timers: TickQueue::new(
                config
                    .period
                    .saturating_mul(MAX_BACKOFF_STRETCH)
                    .saturating_add(config.jitter),
            ),
            rng: SmallRng::seed_from_u64(seed),
            now: 0,
            partition: None,
            arena: Arena::new(),
            batch: Vec::new(),
            batch_slots: Vec::new(),
            encode_buf: Vec::new(),
            fired: Vec::new(),
            rumor_targets: Vec::new(),
            scratch: DecodeScratch::new(),
            stats: RuntimeStats::default(),
            app_fanout: None,
            tele: NetTele::new(),
        })
    }

    /// The transport's address (what other runtimes' address books should
    /// hold for every node hosted here).
    pub fn local_addr(&self) -> NetAddr {
        self.transport.local_addr()
    }

    /// Current runtime time in ticks.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The timing configuration.
    pub fn config(&self) -> NetConfig {
        self.config
    }

    /// Nodes hosted (left ones included).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Nodes hosted and still participating.
    pub fn alive_count(&self) -> usize {
        self.nodes.iter().filter(|s| s.alive).count()
    }

    /// Adds a node, bootstrapping its view from the introducers'
    /// descriptors and priming the address book with their addresses. The
    /// node's first timer fires at a uniform-random phase within one period
    /// (nodes are not synchronized), from the runtime's RNG.
    ///
    /// # Panics
    ///
    /// Panics if a node with the same id is already hosted here.
    pub fn add_node(&mut self, mut node: N, introducers: &[(NodeId, NetAddr)]) -> NodeId {
        let id = node.id();
        assert!(!self.index.contains_key(&id), "node {id} already hosted");
        self.book.insert(id, self.transport.local_addr());
        for &(peer, addr) in introducers {
            self.book.insert(peer, addr);
        }
        node.init(
            &mut introducers
                .iter()
                .map(|&(peer, _)| NodeDescriptor::fresh(peer)),
        );
        let slot = self.nodes.len() as u32;
        self.nodes.push(Slot {
            node,
            alive: true,
            contacted: false,
            pending_reply: None,
            consecutive_timeouts: 0,
            informed: false,
        });
        self.index.insert(id, slot);
        let phase = self.rng.random_range(0..self.config.period);
        // Never into the fired past: once the runtime has run, tick `now`
        // has fired, and a phase of 0 waits for the next one.
        let first_unfired = if self.now == 0 { 0 } else { self.now + 1 };
        self.timers
            .push((self.now + phase).max(first_unfired), slot);
        id
    }

    /// Graceful leave: the node stops initiating, frames addressed to it
    /// are dropped (counted as dead deliveries), and its address-book
    /// entry is removed. The protocol has no unsubscribe message — the
    /// rest of the overlay forgets the node through view selection,
    /// exactly as the paper's model heals failures. (Peers still gossiping
    /// the departed id may transiently re-teach this book its address;
    /// that is harmless, the entry just points at a silent node.)
    /// Returns false if the node is unknown or already gone.
    pub fn leave(&mut self, id: NodeId) -> bool {
        match self.index.get(&id) {
            Some(&slot) if self.nodes[slot as usize].alive => {
                self.nodes[slot as usize].alive = false;
                self.book.remove(&id);
                true
            }
            _ => false,
        }
    }

    /// Installs (`Some`) or lifts (`None`) a partition loss matrix
    /// ([`Partition`]): frames whose source and destination node sit in
    /// different groups are suppressed before encoding, counted as
    /// [`RuntimeStats::partition_blocked`]. Blocking is egress-side — in a
    /// cluster every runtime installs the same matrix, so no blocked
    /// traffic crosses in either direction.
    pub fn set_partition(&mut self, partition: Option<Partition>) {
        self.partition = partition;
    }

    /// Enables the SI push-broadcast app: every period, each live hosted
    /// node holding the rumor pushes it to `fanout` peers drawn from its
    /// current view as [`FrameKind::App`] frames. The rumor is the frame
    /// itself — app frames carry no descriptors and never teach the
    /// address book. Nothing spreads until [`NetRuntime::seed_rumor`]
    /// plants the rumor somewhere in the cluster.
    pub fn enable_broadcast(&mut self, fanout: usize) {
        self.app_fanout = Some(fanout);
    }

    /// Plants the rumor at a hosted live node; false if it is unknown or
    /// departed.
    pub fn seed_rumor(&mut self, id: NodeId) -> bool {
        match self.index.get(&id) {
            Some(&slot) if self.nodes[slot as usize].alive => {
                self.nodes[slot as usize].informed = true;
                true
            }
            _ => false,
        }
    }

    /// True if a hosted live node holds the rumor.
    pub fn is_informed(&self, id: NodeId) -> bool {
        self.index.get(&id).is_some_and(|&slot| {
            self.nodes[slot as usize].alive && self.nodes[slot as usize].informed
        })
    }

    /// Visits every live hosted node holding the rumor, in add order.
    pub fn for_each_informed(&self, mut f: impl FnMut(NodeId)) {
        for slot in &self.nodes {
            if slot.alive && slot.informed {
                f(slot.node.id());
            }
        }
    }

    /// The view of a hosted, live node.
    pub fn view_of(&self, id: NodeId) -> Option<&View> {
        let &slot = self.index.get(&id)?;
        let slot = &self.nodes[slot as usize];
        slot.alive.then(|| slot.node.view())
    }

    /// The learned address for `id`, if any.
    pub fn address_of(&self, id: NodeId) -> Option<NetAddr> {
        self.book.get(&id).copied()
    }

    /// Visits every live hosted node's `(id, view)` in add order.
    pub fn for_each_live_view(&self, mut f: impl FnMut(NodeId, &View)) {
        for slot in &self.nodes {
            if slot.alive {
                f(slot.node.id(), slot.node.view());
            }
        }
    }

    /// The runtime's counters, with the address book's current size.
    pub fn stats(&self) -> RuntimeStats {
        RuntimeStats {
            book_entries: self.book.len() as u64,
            ..self.stats
        }
    }

    /// Advances runtime time to `deadline`, tick by tick: each tick first
    /// drains and processes every pending frame, in batches (see the
    /// `runtime.rs` module docs), then fires the timers due. Real-time drivers
    /// call this in a loop with the wall-derived tick; deterministic tests
    /// drive virtual time directly.
    pub fn run_until(&mut self, deadline: u64) {
        while self.now < deadline {
            let t = self.now + 1;
            self.transport.advance_to(t);
            let mut drained = 0;
            loop {
                let n = self.fill_batch();
                if n == 0 {
                    break;
                }
                drained += n;
                self.process_batch(n);
            }
            if drained > 0 {
                self.tele.tick_frames.record(drained as u64);
            }
            self.fire_timers(t);
            self.now = t;
        }
        self.tele.book_entries.set_max(self.book.len() as u64);
    }

    /// One full gossip period from the current time.
    pub fn run_period(&mut self) {
        self.run_until(self.now + self.config.period);
    }

    /// Moves every pending frame into `batch`, in arrival order; returns
    /// how many.
    fn fill_batch(&mut self) -> usize {
        let mut n = 0;
        loop {
            if n == self.batch.len() {
                self.batch.push((NetAddr::Virtual(0), Vec::new()));
            }
            let (from, bytes) = &mut self.batch[n];
            match self.transport.try_recv(bytes) {
                Some(sender) => *from = sender,
                None => return n,
            }
            n += 1;
        }
    }

    /// Processes the first `n` frames of `batch`, in order, each with the
    /// lookahead of the [module docs](self).
    fn process_batch(&mut self, n: usize) {
        let batch = core::mem::take(&mut self.batch);
        let frames = &batch[..n];
        let mut slots = core::mem::take(&mut self.batch_slots);
        slots.clear();
        slots.extend(
            frames.iter().map(|(_, bytes)| {
                wire::peek_dst(bytes).and_then(|dst| self.index.get(&dst).copied())
            }),
        );
        let hint = |k: usize| slots.get(k).copied().flatten();
        for (i, (from, bytes)) in frames.iter().enumerate() {
            if let Some((_, after)) = frames.get(i + 2) {
                pss_sim::prefetch(after);
            }
            self.prefetch_slots(hint(i + 1), hint(i + 2));
            self.process_frame(*from, bytes);
        }
        self.batch_slots = slots;
        self.batch = batch;
    }

    /// The lookahead of the frame and timer loops, as in the engines'
    /// `Population::prefetch`: `after`'s slot starts loading, and `next`'s
    /// view descriptors (its slot was requested one item earlier). Only a
    /// cache hint: no order, draw or result depends on it.
    #[inline(always)]
    fn prefetch_slots(&self, next: Option<u32>, after: Option<u32>) {
        if let Some(slot) = after.and_then(|s| self.nodes.get(s as usize)) {
            pss_sim::prefetch(core::slice::from_ref(slot));
        }
        if let Some(slot) = next.and_then(|s| self.nodes.get(s as usize)) {
            pss_sim::prefetch(slot.node.view().descriptors());
        }
    }

    fn process_frame(&mut self, _from: NetAddr, bytes: &[u8]) {
        self.stats.frames_in += 1;
        let decode_started = std::time::Instant::now();
        let frame = match wire::decode(bytes) {
            Ok(frame) => frame,
            Err(_) => {
                self.stats.header_decode_failures += 1;
                self.tele.decode_errors.inc();
                pss_telemetry::flight().record(
                    pss_telemetry::EventKind::DecodeError,
                    "header",
                    0,
                    bytes.len() as u64,
                );
                return;
            }
        };
        // Learn the sender's address — but a frame header may only
        // *introduce* an id, never rebind an established entry: a single
        // forged-src frame must not redirect a known peer's traffic.
        // Genuine address changes propagate through descriptor-carried
        // addresses (gossip content, learned below).
        match self.book.entry(frame.src) {
            std::collections::hash_map::Entry::Vacant(vacant) => {
                vacant.insert(frame.src_addr);
            }
            std::collections::hash_map::Entry::Occupied(existing) => {
                if *existing.get() != frame.src_addr {
                    self.stats.addr_rebinds_rejected += 1;
                }
            }
        }
        let Some(&slot_idx) = self.index.get(&frame.dst) else {
            self.stats.unknown_destination += 1;
            return;
        };
        let slot = &mut self.nodes[slot_idx as usize];
        if !slot.alive {
            self.stats.dead_deliveries += 1;
            if frame.kind == FrameKind::App {
                // The deployed twin of the protocol layer's `wasted`
                // metric: a rumor push spent on a departed node.
                self.stats.app_wasted += 1;
            }
            return;
        }
        let mut payload = self.arena.take_buffer();
        let book = &mut self.book;
        let decoded = if frame.kind == FrameKind::App {
            // App frames are opaque to the membership layer: whatever
            // descriptor region a peer put there must not teach the book.
            wire::read_descriptors(&frame, &mut payload, &mut self.scratch, |_, _| {})
        } else {
            // Descriptor-carried addresses may update an established entry
            // (the path genuine address changes take), but at steady state
            // every id is already known at this address: read first, and
            // write only on change, so the table's lines stay clean.
            wire::read_descriptors(&frame, &mut payload, &mut self.scratch, |id, addr| {
                if book.get(&id) != Some(&addr) {
                    book.insert(id, addr);
                }
            })
        };
        if decoded.is_err() {
            self.stats.body_decode_failures += 1;
            self.tele.decode_errors.inc();
            pss_telemetry::flight().record(
                pss_telemetry::EventKind::DecodeError,
                match frame.kind {
                    FrameKind::Request => "request",
                    FrameKind::Reply => "reply",
                    FrameKind::App => "app",
                },
                frame.src.as_u64(),
                bytes.len() as u64,
            );
            self.arena.put_buffer(payload);
            return;
        }
        self.tele
            .decode_hist(frame.kind)
            .record(decode_started.elapsed().as_nanos() as u64);
        match frame.kind {
            FrameKind::Request => {
                slot.contacted = true;
                self.stats.requests_in += 1;
                let request = Request {
                    descriptors: payload,
                    wants_reply: frame.wants_reply,
                };
                match slot
                    .node
                    .handle_request(&mut self.arena, frame.src, request)
                {
                    Some(reply) => self.send_reply(slot_idx, frame.src, frame.src_addr, reply),
                    // Push-only exchange: complete on request delivery.
                    None => self.stats.exchanges_completed += 1,
                }
            }
            FrameKind::Reply => {
                // Only the reply this node is actually waiting for is
                // absorbed: anything else — forged, unsolicited, or
                // arriving after timeout/supersession — is dropped, so an
                // attacker cannot inject view content by blind-firing
                // reply frames.
                if slot.pending_reply.is_none_or(|(peer, _)| peer != frame.src) {
                    self.stats.forged_replies_rejected += 1;
                    self.arena.put_buffer(payload);
                    return;
                }
                slot.contacted = true;
                self.stats.replies_in += 1;
                if let Some((_, sent)) = slot.pending_reply {
                    // Frames are processed while the runtime advances to
                    // `now + 1`, so that is the absorb tick.
                    self.tele
                        .rtt_ticks
                        .record((self.now + 1).saturating_sub(sent));
                }
                slot.pending_reply = None;
                slot.consecutive_timeouts = 0; // responsive again: no backoff
                slot.node.handle_reply(
                    &mut self.arena,
                    frame.src,
                    Reply {
                        descriptors: payload,
                    },
                );
                self.stats.exchanges_completed += 1;
            }
            FrameKind::App => {
                if slot.informed {
                    self.stats.app_redundant += 1;
                } else {
                    slot.informed = true;
                    self.stats.app_delivered += 1;
                }
                self.arena.put_buffer(payload);
            }
        }
    }

    fn fire_timers(&mut self, t: u64) {
        debug_assert!(self.fired.is_empty());
        let mut fired = core::mem::take(&mut self.fired);
        // Every timer due through tick `t`, tick by tick in schedule order
        // (a tick before `t` is only pending on the very first call;
        // afterwards there is at most the one batch).
        while let Some(tick) = self.timers.take_tick(t, &mut fired) {
            // Only batches that actually fired something: empty catch-up
            // ticks say nothing about scheduling lag.
            self.tele.wheel_lag_ticks.record(t - tick);
            for (i, &slot_idx) in fired.iter().enumerate() {
                self.prefetch_slots(fired.get(i + 1).copied(), fired.get(i + 2).copied());
                self.fire_timer(slot_idx, t);
            }
            fired.clear();
        }
        self.fired = fired;
    }

    /// One hosted node's active cycle at tick `t`, and its re-arm.
    fn fire_timer(&mut self, slot_idx: u32, t: u64) {
        let slot = &mut self.nodes[slot_idx as usize];
        if !slot.alive {
            return; // left: the timer dies here
        }
        self.stats.timers_fired += 1;
        // Expire a stale pushpull exchange.
        if let Some((_, sent)) = slot.pending_reply {
            if t.saturating_sub(sent) >= self.config.period {
                self.stats.timeouts += 1;
                slot.consecutive_timeouts += 1;
                slot.pending_reply = None;
            }
        }
        match slot.node.initiate(&mut self.arena) {
            Some(exchange) => self.send_request(slot_idx, exchange, t),
            None => self.stats.empty_view += 1,
        }
        // Re-arm with jitter, the event engine's formula — stretched
        // exponentially (capped at 8×) for a *bootstrapping* node whose
        // exchanges keep timing out. A flash herd of joiners all
        // introduced to one node would otherwise hammer it in lockstep
        // every period while it is too overloaded to answer any of them:
        // the first timeout retries at full rate, repeat offenders space
        // out, and the first absorbed protocol message snaps the node back
        // to the period. Every retry still happens and is counted — no
        // joiner is silently dropped. Integrated nodes (any protocol
        // message absorbed) never back off: post-catastrophe timeouts on
        // dead peers must not slow the self-healing gossip rate.
        let slot = &mut self.nodes[slot_idx as usize];
        let stretch = if !slot.contacted {
            1u64 << slot
                .consecutive_timeouts
                .saturating_sub(1)
                .min(MAX_BACKOFF_STRETCH.trailing_zeros())
        } else {
            1
        };
        if stretch > 1 {
            self.stats.backoffs += 1;
        }
        let jitter = if self.config.jitter == 0 {
            0
        } else {
            self.rng.random_range(0..=2 * self.config.jitter)
        };
        self.timers.push(
            t + stretch * self.config.period - self.config.jitter + jitter,
            slot_idx,
        );
        if let Some(fanout) = self.app_fanout {
            self.push_rumor(slot_idx, fanout);
        }
    }

    /// One period's rumor pushes from a hosted node, if it holds one:
    /// `fanout` peers drawn uniformly (with replacement) from the node's
    /// current view, each sent a descriptor-free [`FrameKind::App`] frame.
    fn push_rumor(&mut self, slot_idx: u32, fanout: usize) {
        let slot = &self.nodes[slot_idx as usize];
        if !slot.informed {
            return;
        }
        let src = slot.node.id();
        let view_len = slot.node.view().len();
        if view_len == 0 || fanout == 0 {
            return;
        }
        // All draws before any send, as ever: a lossy partition draws from
        // the same RNG per frame, so interleaving would reorder the stream.
        debug_assert!(self.rumor_targets.is_empty());
        let mut targets = core::mem::take(&mut self.rumor_targets);
        for _ in 0..fanout {
            let pick = self.rng.random_range(0..view_len);
            targets.push(self.nodes[slot_idx as usize].node.view().descriptors()[pick].id());
        }
        for dst in targets.drain(..) {
            let Some(to) = self.addr_of_or_local(dst) else {
                self.stats.missing_address += 1;
                continue;
            };
            self.send_frame(FrameKind::App, false, src, dst, to, &[]);
        }
        self.rumor_targets = targets;
    }

    /// Destination resolution: the book, with locally-hosted ids (live or
    /// departed) falling back to this runtime's own address — the same
    /// rule [`NetRuntime::send_frame`]'s descriptor resolver applies, so a
    /// graceful leave's dropped book entry yields a dead delivery (the
    /// simulators' semantics), never a missing address.
    fn addr_of_or_local(&self, id: NodeId) -> Option<NetAddr> {
        self.book.get(&id).copied().or_else(|| {
            self.index
                .contains_key(&id)
                .then(|| self.transport.local_addr())
        })
    }

    fn send_request(&mut self, slot_idx: u32, exchange: Exchange, now: u64) {
        let Exchange { peer, request } = exchange;
        let src = self.nodes[slot_idx as usize].node.id();
        let Some(to) = self.addr_of_or_local(peer) else {
            self.stats.missing_address += 1;
            self.arena.put_buffer(request.descriptors);
            return;
        };
        let sent = self.send_frame(
            FrameKind::Request,
            request.wants_reply,
            src,
            peer,
            to,
            &request.descriptors,
        );
        if sent && request.wants_reply {
            // A still-outstanding exchange being superseded is a timeout
            // too — its reply never arrived in a full period.
            let slot = &mut self.nodes[slot_idx as usize];
            if slot.pending_reply.replace((peer, now)).is_some() {
                self.stats.timeouts += 1;
            }
        }
        self.arena.put_buffer(request.descriptors);
    }

    fn send_reply(&mut self, slot_idx: u32, to_id: NodeId, to_addr: NetAddr, reply: Reply) {
        let src = self.nodes[slot_idx as usize].node.id();
        self.send_frame(
            FrameKind::Reply,
            false,
            src,
            to_id,
            to_addr,
            &reply.descriptors,
        );
        self.arena.put_buffer(reply.descriptors);
    }

    /// Encodes and sends one frame; false on any counted failure.
    fn send_frame(
        &mut self,
        kind: FrameKind,
        wants_reply: bool,
        src: NodeId,
        dst: NodeId,
        to: NetAddr,
        descriptors: &[NodeDescriptor],
    ) -> bool {
        // Group-pair loss matrix: total blackouts drop deterministically,
        // lossy/asymmetric matrices draw from the runtime's RNG per
        // cross-group frame (requests and replies both pass through here,
        // so each direction gets its own loss).
        if self
            .partition
            .is_some_and(|p| p.drops(src, dst, &mut self.rng))
        {
            self.stats.partition_blocked += 1;
            return false;
        }
        let book = &self.book;
        let index = &self.index;
        let local = self.transport.local_addr();
        // Any id hosted here — live or departed — resolves to this
        // runtime's own address without a book entry, so a graceful leave
        // can drop its book entry while views that still reference the
        // departed id stay encodable.
        let resolve = |id: NodeId| {
            book.get(&id)
                .copied()
                .or_else(|| index.contains_key(&id).then_some(local))
        };
        match wire::encode(
            &mut self.encode_buf,
            kind,
            wants_reply,
            src,
            dst,
            local,
            descriptors,
            resolve,
        ) {
            Ok(()) => {
                if self.transport.send(to, &self.encode_buf) {
                    self.stats.frames_out += 1;
                    true
                } else {
                    self.stats.send_failures += 1;
                    false
                }
            }
            Err(EncodeError::MissingAddress(_)) => {
                // Unreachable by construction (the book covers every view
                // entry); counted rather than asserted so a regression
                // shows up as a statistic, not a crash mid-cluster.
                self.stats.missing_address += 1;
                false
            }
            Err(EncodeError::TooManyDescriptors(_)) => {
                self.stats.send_failures += 1;
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemNetwork;
    use crate::MemTransport;
    use pss_core::{Freshness, PeerSamplingNode, PolicyTriple, ProtocolConfig};
    use pss_sim::LatencyModel;

    fn protocol(c: usize) -> ProtocolConfig {
        ProtocolConfig::new(PolicyTriple::newscast(), c).unwrap()
    }

    fn config() -> NetConfig {
        NetConfig {
            period: 100,
            jitter: 10,
        }
    }

    fn node(id: u64, c: usize) -> PeerSamplingNode {
        PeerSamplingNode::with_seed(NodeId::new(id), protocol(c), id * 31 + 5)
    }

    /// A mesh runtime hosting `n` chain-bootstrapped nodes.
    fn mesh_runtime(
        n: u64,
        latency: LatencyModel,
        loss: f64,
    ) -> (MemNetwork, NetRuntime<MemTransport>) {
        let net = MemNetwork::new(77, latency, loss).expect("valid");
        let transport = net.endpoint();
        let addr = transport.net_addr();
        let mut rt = NetRuntime::new(transport, config(), 5).expect("valid");
        for i in 0..n {
            let introducers: Vec<(NodeId, NetAddr)> = if i == 0 {
                Vec::new()
            } else {
                vec![(NodeId::new(i - 1), addr)]
            };
            rt.add_node(node(i, 8), &introducers);
        }
        (net, rt)
    }

    #[test]
    fn config_validation_mirrors_event_rules() {
        assert!(config().validate().is_ok());
        assert_eq!(
            NetConfig {
                period: 0,
                ..config()
            }
            .validate(),
            Err(EventConfigError::ZeroPeriod)
        );
        assert_eq!(
            NetConfig {
                period: 10,
                jitter: 10
            }
            .validate(),
            Err(EventConfigError::JitterNotBelowPeriod {
                jitter: 10,
                period: 10
            })
        );
        let from = NetConfig::from_event(&EventConfig::default());
        assert_eq!(from.period, 1000);
        assert_eq!(from.jitter, 100);
    }

    #[test]
    fn two_nodes_learn_each_other_over_the_mesh() {
        let (_net, mut rt) = mesh_runtime(2, LatencyModel::Uniform { min: 1, max: 5 }, 0.0);
        rt.run_until(1000); // 10 periods
        assert!(rt.view_of(NodeId::new(0)).unwrap().contains(NodeId::new(1)));
        assert!(rt.view_of(NodeId::new(1)).unwrap().contains(NodeId::new(0)));
        let stats = rt.stats();
        assert!(stats.timers_fired >= 18);
        assert!(stats.requests_in > 0);
        assert!(stats.replies_in > 0);
        // Newscast is pushpull: exchanges complete on reply absorption.
        assert_eq!(stats.exchanges_completed, stats.replies_in);
        assert_eq!(stats.decode_failures(), 0);
        assert_eq!(stats.missing_address, 0);
        assert!(stats.frames_out > 0);
    }

    #[test]
    fn overlay_converges_on_one_runtime() {
        let (_net, mut rt) = mesh_runtime(40, LatencyModel::Uniform { min: 1, max: 20 }, 0.0);
        rt.run_until(20 * 100);
        let full = {
            let mut full = 0;
            rt.for_each_live_view(|_, view| {
                if view.len() == 8 {
                    full += 1;
                }
            });
            full
        };
        assert!(full >= 39, "only {full}/40 views full");
        assert_eq!(rt.stats().decode_failures(), 0);
    }

    #[test]
    fn total_loss_counts_timeouts_and_freezes_views() {
        let (net, mut rt) = mesh_runtime(4, LatencyModel::Zero, 1.0);
        rt.run_until(1000);
        let stats = rt.stats();
        assert_eq!(stats.requests_in, 0);
        assert!(net.lost() > 0);
        // Every pushpull initiation eventually times out.
        assert!(stats.timeouts > 0, "no timeouts recorded");
    }

    #[test]
    fn leave_stops_participation() {
        let (_net, mut rt) = mesh_runtime(3, LatencyModel::Uniform { min: 1, max: 3 }, 0.0);
        rt.run_until(500);
        assert!(rt.leave(NodeId::new(2)));
        assert!(!rt.leave(NodeId::new(2)), "double leave");
        assert_eq!(rt.alive_count(), 2);
        assert!(rt.view_of(NodeId::new(2)).is_none());
        let timers_before = rt.stats().timers_fired;
        rt.run_until(1500);
        // Node 2's timer never re-arms; frames to it are dead deliveries.
        let stats = rt.stats();
        assert!(stats.timers_fired > timers_before);
        assert!(stats.dead_deliveries > 0, "peers still gossip at node 2");
        // The dropped book entry must not degrade dead deliveries into
        // missing addresses: hosted ids resolve to the local address.
        // (Peers still gossiping node 2's descriptor re-teach the book its
        // address — the documented transient; the immediate-after-leave
        // removal is pinned in tests/workload_net.rs.)
        assert_eq!(stats.missing_address, 0, "{stats:?}");
    }

    #[test]
    fn broadcast_app_floods_the_runtime_and_wastes_on_the_departed() {
        // (rand,rand,pushpull): random view selection mixes the overlay
        // fast and resists the clustering that head selection (newscast)
        // shows at this scale — the rumor should reach every live node.
        let net =
            MemNetwork::new(77, LatencyModel::Uniform { min: 1, max: 10 }, 0.0).expect("valid");
        let transport = net.endpoint();
        let addr = transport.net_addr();
        let mut rt = NetRuntime::new(transport, config(), 5).expect("valid");
        let policy: PolicyTriple = "(rand,rand,pushpull)".parse().unwrap();
        let proto = ProtocolConfig::new(policy, 8).unwrap();
        for i in 0..30u64 {
            let introducers: Vec<(NodeId, NetAddr)> = if i == 0 {
                Vec::new()
            } else {
                vec![(NodeId::new(i - 1), addr)]
            };
            let node = PeerSamplingNode::with_seed(NodeId::new(i), proto.clone(), i * 31 + 5);
            rt.add_node(node, &introducers);
        }
        rt.run_until(10 * 100); // let the overlay converge first
        rt.enable_broadcast(2);
        assert!(!rt.is_informed(NodeId::new(3)));
        assert!(rt.seed_rumor(NodeId::new(3)));
        assert!(rt.is_informed(NodeId::new(3)));
        assert!(rt.leave(NodeId::new(7)));
        rt.run_until(30 * 100);
        let mut informed = 0;
        rt.for_each_informed(|_| informed += 1);
        assert_eq!(informed, 29, "every live node holds the rumor");
        let stats = rt.stats();
        // 29 live nodes minus the seeded origin were informed by frames.
        assert_eq!(stats.app_delivered, 28);
        assert!(stats.app_redundant > 0, "{stats:?}");
        assert!(
            stats.app_wasted > 0,
            "pushes at the departed node never counted: {stats:?}"
        );
        assert_eq!(stats.decode_failures(), 0);
        // Departed and unknown nodes cannot be seeded.
        assert!(!rt.seed_rumor(NodeId::new(7)));
        assert!(!rt.seed_rumor(NodeId::new(999)));
        assert!(!rt.is_informed(NodeId::new(7)));
    }

    #[test]
    fn deterministic_for_fixed_seeds() {
        let digest = || {
            let (_net, mut rt) = mesh_runtime(20, LatencyModel::Uniform { min: 2, max: 30 }, 0.1);
            rt.run_until(2000);
            let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
            rt.for_each_live_view(|id, view| {
                for d in view.iter() {
                    acc ^= id.as_u64()
                        ^ d.id().as_u64().rotate_left(17)
                        ^ (d.hop_count() as u64).rotate_left(43);
                    acc = acc.wrapping_mul(0x1000_0000_01b3);
                }
            });
            let stats = rt.stats();
            (acc, stats.frames_in, stats.frames_out)
        };
        assert_eq!(digest(), digest());
    }

    /// Two runtimes on one zero-latency mesh, driven alternately one tick
    /// each: whatever the first sends during a tick lands in the second's
    /// inbox before the second drains that same tick. The digest pins the
    /// resulting frame order, views and counters.
    #[test]
    fn two_runtimes_on_a_zero_latency_mesh_match_the_recorded_digest() {
        let net = MemNetwork::new(41, LatencyModel::Zero, 0.05).expect("valid");
        let mut runtimes: Vec<NetRuntime<MemTransport>> = (0..2u64)
            .map(|k| NetRuntime::new(net.endpoint(), config(), 90 + k).expect("valid"))
            .collect();
        let addrs = [runtimes[0].local_addr(), runtimes[1].local_addr()];
        // Node i lives on runtime i % 2 and is introduced to node i - 1,
        // which lives on the other one.
        for i in 0..24u64 {
            let introducers: Vec<(NodeId, NetAddr)> = if i == 0 {
                Vec::new()
            } else {
                vec![(NodeId::new(i - 1), addrs[(i as usize - 1) % 2])]
            };
            runtimes[i as usize % 2].add_node(node(i, 8), &introducers);
        }
        for tick in 1..=20 * config().period {
            for rt in &mut runtimes {
                rt.run_until(tick);
            }
        }
        let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |x: u64| {
            acc ^= x;
            acc = acc.wrapping_mul(0x1000_0000_01b3);
        };
        for rt in &runtimes {
            rt.for_each_live_view(|id, view| {
                for d in view.iter() {
                    fold(id.as_u64() ^ d.id().as_u64().rotate_left(17));
                    fold(d.hop_count() as u64);
                }
            });
            let stats = rt.stats();
            fold(stats.frames_in);
            fold(stats.frames_out);
            fold(stats.exchanges_completed);
            fold(stats.timeouts);
        }
        let stats: Vec<RuntimeStats> = runtimes.iter().map(NetRuntime::stats).collect();
        assert!(stats.iter().all(|s| s.exchanges_completed > 0), "{stats:?}");
        assert_eq!(acc, 0xe616_0200_dad4_bbfe, "{stats:?}");
    }

    #[test]
    fn malformed_frames_are_counted_not_fatal() {
        let net = MemNetwork::new(3, LatencyModel::Zero, 0.0).expect("valid");
        let mut raw = net.endpoint();
        let transport = net.endpoint();
        let addr = transport.net_addr();
        let mut rt: NetRuntime<MemTransport> =
            NetRuntime::new(transport, config(), 8).expect("valid");
        rt.add_node(node(0, 8), &[]);
        // Garbage, a truncated header, and a frame for an unknown node.
        raw.send(addr, b"not a frame");
        raw.send(addr, &[0, 0, 0]);
        let mut buf = Vec::new();
        wire::encode(
            &mut buf,
            FrameKind::Request,
            false,
            NodeId::new(50),
            NodeId::new(49),
            NetAddr::Virtual(0),
            &[],
            |_| Some(NetAddr::Virtual(0)),
        )
        .unwrap();
        raw.send(addr, &buf);
        rt.run_until(5);
        let stats = rt.stats();
        assert_eq!(stats.frames_in, 3);
        assert_eq!(stats.header_decode_failures, 2);
        assert_eq!(stats.unknown_destination, 1);
        assert_eq!(stats.body_decode_failures, 0);
    }

    #[test]
    fn body_decode_failures_attribute_to_the_destination() {
        let net = MemNetwork::new(3, LatencyModel::Zero, 0.0).expect("valid");
        let mut raw = net.endpoint();
        let transport = net.endpoint();
        let addr = transport.net_addr();
        let mut rt: NetRuntime<MemTransport> =
            NetRuntime::new(transport, config(), 8).expect("valid");
        rt.add_node(node(0, 8), &[]);
        // Duplicate-id body addressed to node 0.
        let dup = [
            NodeDescriptor::new(NodeId::new(7), 1),
            NodeDescriptor::new(NodeId::new(7), 2),
        ];
        let mut buf = Vec::new();
        wire::encode(
            &mut buf,
            FrameKind::Request,
            false,
            NodeId::new(9),
            NodeId::new(0),
            NetAddr::Virtual(0),
            &dup,
            |_| Some(NetAddr::Virtual(0)),
        )
        .unwrap();
        raw.send(addr, &buf);
        rt.run_until(5);
        assert_eq!(rt.stats().body_decode_failures, 1);
        // The view stays untouched.
        assert!(rt.view_of(NodeId::new(0)).unwrap().is_empty());
    }

    /// Both arms of the change-only book write. (The header-side rule — a
    /// frame's source address may introduce, never rebind — is pinned in
    /// `tests/adversary_net.rs`.)
    #[test]
    fn descriptor_carried_address_change_updates_the_book() {
        let net = MemNetwork::new(3, LatencyModel::Zero, 0.0).expect("valid");
        let mut raw = net.endpoint();
        let transport = net.endpoint();
        let addr = transport.net_addr();
        let mut rt: NetRuntime<MemTransport> =
            NetRuntime::new(transport, config(), 8).expect("valid");
        rt.add_node(node(0, 8), &[]);
        let peer = NodeId::new(7);
        let mut tick = 0;
        let mut gossip = |rt: &mut NetRuntime<MemTransport>, peer_addr: NetAddr| {
            let mut buf = Vec::new();
            wire::encode(
                &mut buf,
                FrameKind::Request,
                false,
                NodeId::new(9),
                NodeId::new(0),
                raw.net_addr(),
                &[NodeDescriptor::new(peer, 1)],
                |_| Some(peer_addr),
            )
            .unwrap();
            raw.send(addr, &buf);
            tick += 5;
            rt.run_until(tick);
        };

        gossip(&mut rt, NetAddr::Virtual(5));
        assert_eq!(rt.address_of(peer), Some(NetAddr::Virtual(5)));
        let entries = rt.stats().book_entries;
        assert_eq!(entries, 3, "node 0, the sender and the gossiped peer");

        // Unchanged address: the entry, the book's size and the rebind
        // counter all stay as they were.
        gossip(&mut rt, NetAddr::Virtual(5));
        assert_eq!(rt.address_of(peer), Some(NetAddr::Virtual(5)));
        let stats = rt.stats();
        assert_eq!(stats.book_entries, entries);
        assert_eq!(stats.addr_rebinds_rejected, 0, "{stats:?}");

        // Changed address: gossip content replaces the established entry —
        // the path a genuine address change takes — and is no rebind.
        gossip(&mut rt, NetAddr::Virtual(6));
        assert_eq!(rt.address_of(peer), Some(NetAddr::Virtual(6)));
        let stats = rt.stats();
        assert_eq!(stats.book_entries, entries);
        assert_eq!(stats.addr_rebinds_rejected, 0, "{stats:?}");
        assert_eq!(stats.requests_in, 3, "{stats:?}");
    }

    #[test]
    #[should_panic(expected = "already hosted")]
    fn duplicate_node_ids_are_rejected() {
        let net = MemNetwork::new(3, LatencyModel::Zero, 0.0).expect("valid");
        let mut rt: NetRuntime<MemTransport> =
            NetRuntime::new(net.endpoint(), config(), 8).expect("valid");
        rt.add_node(node(0, 8), &[]);
        rt.add_node(node(0, 8), &[]);
    }

    #[test]
    fn timestamp_mode_rejects_version_1_protocol_frames() {
        // A v1 frame's age field could only be a hop count; the codec
        // refuses the version outright, so a runtime hosting nodes of
        // either freshness counts it as a header failure and absorbs only
        // the v2 twin.
        for freshness in [Freshness::HopCount, Freshness::Timestamp] {
            let net = MemNetwork::new(3, LatencyModel::Zero, 0.0).expect("valid");
            let mut raw = net.endpoint();
            let transport = net.endpoint();
            let addr = transport.net_addr();
            let mut rt: NetRuntime<MemTransport> =
                NetRuntime::new(transport, config(), 8).expect("valid");
            let protocol = protocol(8).with_freshness(freshness);
            rt.add_node(
                PeerSamplingNode::with_seed(NodeId::new(0), protocol, 5),
                &[],
            );
            let mut buf = Vec::new();
            wire::encode(
                &mut buf,
                FrameKind::Request,
                false,
                NodeId::new(9),
                NodeId::new(0),
                NetAddr::Virtual(0),
                &[NodeDescriptor::new(NodeId::new(9), 3)],
                |_| Some(NetAddr::Virtual(0)),
            )
            .unwrap();
            let mut v1 = buf.clone();
            v1[8] = 1;
            raw.send(addr, &v1);
            raw.send(addr, &buf);
            rt.run_until(5);
            let stats = rt.stats();
            assert_eq!(stats.header_decode_failures, 1, "{freshness:?}: {stats:?}");
            assert_eq!(
                stats.requests_in, 1,
                "{freshness:?}: the v2 twin is absorbed"
            );
            assert!(rt.view_of(NodeId::new(0)).unwrap().contains(NodeId::new(9)));
        }
    }

    #[test]
    fn starved_joiners_back_off_until_first_contact() {
        // One introducer that never answers (total loss models an
        // overloaded socket dropping everything): a joiner bootstrapped
        // off it must keep retrying — counted, backed off — instead of
        // hammering every period forever. Node 0 starts with an empty view
        // and never hears from the joiner, so it never sends: every frame
        // out, timeout and backoff below is the joiner's.
        let (_net, mut rt) = mesh_runtime(1, LatencyModel::Zero, 1.0);
        let addr = rt.local_addr();
        rt.add_node(node(1, 8), &[(NodeId::new(0), addr)]);
        rt.run_until(40 * 100); // 40 periods under total loss
        let stats = rt.stats();
        assert!(stats.timeouts > 0, "{stats:?}");
        assert!(stats.backoffs > 0, "{stats:?}");
        // Fully backed off, the joiner initiates every 8th period instead
        // of every period — plus the full-rate rampdown at the start.
        assert!(
            stats.frames_out < 15,
            "a starved joiner must not hammer at full rate: {stats:?}"
        );
        assert_eq!(stats.requests_in + stats.replies_in, 0);

        // Same topology without loss: bootstrap completes in the first
        // few exchanges, so the backoff never engages.
        let (_net, mut rt) = mesh_runtime(1, LatencyModel::Zero, 0.0);
        let addr = rt.local_addr();
        rt.add_node(node(1, 8), &[(NodeId::new(0), addr)]);
        rt.run_until(40 * 100);
        let stats = rt.stats();
        assert_eq!(stats.backoffs, 0, "{stats:?}");
        assert!(stats.frames_out >= 35, "{stats:?}");
    }

    #[test]
    fn join_after_a_run_clamps_the_timer_phase() {
        let (_net, mut rt) = mesh_runtime(2, LatencyModel::Uniform { min: 1, max: 3 }, 0.0);
        rt.run_until(1000);
        // Joining later must not schedule into the fired past.
        let addr = rt.local_addr();
        rt.add_node(node(2, 8), &[(NodeId::new(0), addr)]);
        rt.run_until(1200);
        assert!(rt.view_of(NodeId::new(2)).is_some());
    }

    /// Every counter survives a two-runtime merge. The struct literal
    /// below deliberately has no `..Default::default()` and the checks
    /// destructure without `..`: adding a field to [`RuntimeStats`]
    /// breaks this test at compile time until the merge (and this
    /// inventory) account for it.
    #[test]
    fn merge_preserves_every_counter() {
        let a = RuntimeStats {
            frames_in: 1,
            frames_out: 2,
            header_decode_failures: 3,
            body_decode_failures: 4,
            unknown_destination: 5,
            dead_deliveries: 6,
            send_failures: 7,
            missing_address: 8,
            addr_rebinds_rejected: 9,
            forged_replies_rejected: 10,
            partition_blocked: 11,
            timers_fired: 12,
            requests_in: 13,
            replies_in: 14,
            exchanges_completed: 15,
            timeouts: 16,
            empty_view: 17,
            backoffs: 22,
            recv_ring_empty: 18,
            app_delivered: 19,
            app_redundant: 20,
            app_wasted: 21,
            book_entries: 24,
        };
        let b = RuntimeStats {
            frames_in: 100,
            frames_out: 200,
            header_decode_failures: 300,
            body_decode_failures: 400,
            unknown_destination: 500,
            dead_deliveries: 600,
            send_failures: 700,
            missing_address: 800,
            addr_rebinds_rejected: 900,
            forged_replies_rejected: 1000,
            partition_blocked: 1100,
            timers_fired: 1200,
            requests_in: 1300,
            replies_in: 1400,
            exchanges_completed: 1500,
            timeouts: 1600,
            empty_view: 1700,
            backoffs: 2200,
            recv_ring_empty: 1800,
            app_delivered: 1900,
            app_redundant: 2000,
            app_wasted: 2100,
            book_entries: 2400,
        };
        let mut merged = a;
        merged.merge(&b);
        let RuntimeStats {
            frames_in,
            frames_out,
            header_decode_failures,
            body_decode_failures,
            unknown_destination,
            dead_deliveries,
            send_failures,
            missing_address,
            addr_rebinds_rejected,
            forged_replies_rejected,
            partition_blocked,
            timers_fired,
            requests_in,
            replies_in,
            exchanges_completed,
            timeouts,
            empty_view,
            backoffs,
            recv_ring_empty,
            app_delivered,
            app_redundant,
            app_wasted,
            book_entries,
        } = merged;
        assert_eq!(frames_in, 101);
        assert_eq!(frames_out, 202);
        assert_eq!(header_decode_failures, 303);
        assert_eq!(body_decode_failures, 404);
        assert_eq!(unknown_destination, 505);
        assert_eq!(dead_deliveries, 606);
        assert_eq!(send_failures, 707);
        assert_eq!(missing_address, 808);
        assert_eq!(addr_rebinds_rejected, 909);
        assert_eq!(forged_replies_rejected, 1010);
        assert_eq!(partition_blocked, 1111);
        assert_eq!(timers_fired, 1212);
        assert_eq!(requests_in, 1313);
        assert_eq!(replies_in, 1414);
        assert_eq!(exchanges_completed, 1515);
        assert_eq!(timeouts, 1616);
        assert_eq!(empty_view, 1717);
        assert_eq!(backoffs, 2222);
        assert_eq!(recv_ring_empty, 1818);
        assert_eq!(app_delivered, 1919);
        assert_eq!(app_redundant, 2020);
        assert_eq!(app_wasted, 2121);
        assert_eq!(book_entries, 2424);
    }
}
