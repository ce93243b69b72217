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
//! Nor does a frame read the clock. The decode latency histogram
//! (`pss_net_decode_ns`) samples one received frame in 64: the first, the
//! 65th, and so on by [`RuntimeStats::frames_in`], with no RNG draw, so
//! which frames are timed is as reproducible as the frames themselves. A
//! clock pair costs about 100 ns on a 2-vCPU VM, a large share of a
//! frame's decode, while a runtime absorbing 100 000 frames a second
//! still records over 1 500 samples a second.
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
//! does the same over each tick's fired nodes. The prefetches are cache
//! hints ([`pss_sim::prefetch`]) and nothing more: no order, RNG draw,
//! counter or allocation depends on them. The slot looked up for them is
//! the frame's routing slot too, once [`wire::decode`] accepts the frame:
//! both read the same header bytes, so a frame costs one destination
//! lookup.
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
//! directions, so its cost per probe is the runtime's cost per frame. It
//! shares one table with the hosted-node index: each id has one 8-byte
//! entry, its interned address and its hosted slot, so every id use on the
//! frame path — a descriptor learned or encoded, a header's source, a
//! frame's destination, a departed node's local fallback — is one probe.
//!
//! * **A dense part for dense ids.** The ids this workspace hands out are
//!   `0..N` or contiguous ranges of it, so an id below the dense part's
//!   length is a direct index. Learning a larger id grows the dense part
//!   to `(id + 1)` rounded up to a power of two, but only while that length
//!   stays within `max(1 024, 4 × entries)`: ids gossiped from far up the
//!   id space cannot make it sparse. Growth moves the overflow ids the new
//!   length covers into the dense part, so each id lives in one place.
//!   Growth is checked again each time the entry count reaches a power of
//!   two, over the largest overflow id the bound then allows: ids that
//!   arrived before the bound could cover them (learned from the top down,
//!   say) are not stranded in the overflow. The check scans the overflow,
//!   at most `entries` ids once per doubling: amortised O(1) per id.
//! * **A keyed hash overflow for every other id.** It is a
//!   `HashMap<NodeId, _, IdHashBuilder>` ([`pss_core::IdHashBuilder`]): one
//!   xorshift–multiply mix per probe instead of SipHash. The two keys are
//!   derived from the construction seed, so runs stay bit-reproducible,
//!   while a remote peer — which chooses the ids it gossips but does not
//!   know the seed — cannot aim ids at one bucket. It is iterated only to
//!   move entries into a grown dense part, so hash order reaches no view,
//!   counter or digest.
//! * **Interned addresses, in both forms.** An entry holds a `u32` index
//!   into a list of the addresses in use (one per runtime in an honest
//!   cluster); each is counted by the entries holding it and recycled when
//!   none does, so frames that keep teaching one id new addresses cannot
//!   grow the list. Each is kept as a [`NetAddr`], for the transport, and
//!   as its 19-byte [`WireAddr`], for frames: encoding a descriptor copies
//!   the wire form, and nothing is re-encoded per frame.
//! * **Learning writes on change only.** [`wire::read_descriptors`] hands
//!   over each descriptor's address in wire form, and only once the whole
//!   body has passed validation, so a rejected frame teaches nothing. The
//!   bytes are compared with the entry's interned wire form first; only on
//!   a mismatch are they parsed, compared as a [`NetAddr`] (a sender may
//!   pad differently) and, if that differs too, written.
//!   The rules are unchanged — gossip content may *update* an established
//!   entry (how a genuine address change propagates), a frame header may
//!   only *introduce* one ([`RuntimeStats::addr_rebinds_rejected`]), and a
//!   reply is absorbed only from the peer the exchange is pending with
//!   ([`RuntimeStats::forged_replies_rejected`]) — but in steady state
//!   every id is already known at its address, and the table is only read.
//! * **The book grows with what frames teach it** and shrinks only on
//!   [`NetRuntime::leave`], which drops the address and keeps the slot.
//!   Honest traffic bounds it by the cluster's population; hostile frames
//!   (up to 1 024 fresh ids each) can grow it without bound, through the
//!   overflow. There is no cap and no eviction yet — the size is
//!   exported as [`RuntimeStats::book_entries`] and the
//!   `pss_net_book_entries` gauge so that growth past the population shows.

use std::collections::HashMap;

use pss_core::wire::{self, DecodeScratch, EncodeError, FrameKind, NetAddr, WireAddr};
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

/// One received frame in this many has its decode timed into
/// `pss_net_decode_ns` (see [`NetRuntime`]'s frame path).
const DECODE_TIMING_STRIDE: u64 = 64;

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
    /// Ids the runtime's id table holds an address for right now — a
    /// level, not a count of events. Hosted nodes that left keep their
    /// entry but not its address, so they are not counted. The book
    /// shrinks only on [`NetRuntime::leave`], so growth past the cluster's
    /// population means frames are teaching it ids that do not exist (see
    /// the module docs). Merged by sum: each runtime holds its own book.
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
    /// Wire decode latency (header + descriptors) per frame kind, for one
    /// received frame in [`DECODE_TIMING_STRIDE`].
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
        let hist = |phase: &str| {
            reg.histogram_with(
                "pss_net_decode_ns",
                &[("kind", phase)],
                "Wire decode latency per frame, nanoseconds, sampled: one received frame in 64",
            )
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
            decode_request_ns: hist("request"),
            decode_reply_ns: hist("reply"),
            decode_app_ns: hist("app"),
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

/// "None" in either field of a [`Peer`].
const NONE: u32 = u32::MAX;

/// Dense length every id table may grow to whatever its population.
const DENSE_FLOOR: u64 = 1024;

/// One id's entry in the [`PeerTable`]: its interned address and its
/// hosted slot, each [`NONE`] when absent. An id with neither is absent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Peer {
    /// Index into [`PeerTable::addrs`].
    addr: u32,
    /// Index into [`NetRuntime::nodes`].
    slot: u32,
}

impl Peer {
    const EMPTY: Peer = Peer {
        addr: NONE,
        slot: NONE,
    };
}

/// The runtime's one id table: the address book and the hosted-slot index
/// in one entry per id, found with one probe (see the `runtime.rs` module
/// docs, "Addresses").
struct PeerTable {
    /// Entries of ids `0..dense.len()`, indexed by id.
    dense: Vec<Peer>,
    /// Entries of every id the dense part does not cover.
    overflow: HashMap<NodeId, Peer, IdHashBuilder>,
    /// Ids present (holding an address, a slot or both).
    entries: u64,
    /// Entries holding an address: the book's size.
    with_addr: u64,
    /// Interned addresses with the number of entries holding each; a count
    /// of 0 marks an index on the `free` list.
    addrs: Vec<(NetAddr, u32)>,
    /// The wire form of each of `addrs`, index for index: all the frame
    /// path reads of an address it knows.
    wires: Vec<WireAddr>,
    free: Vec<u32>,
    /// Address → its index in `addrs`, for the live ones.
    interned: HashMap<NetAddr, u32, IdHashBuilder>,
}

impl PeerTable {
    fn new(hasher: IdHashBuilder) -> Self {
        PeerTable {
            dense: Vec::new(),
            overflow: HashMap::with_hasher(hasher),
            entries: 0,
            with_addr: 0,
            addrs: Vec::new(),
            wires: Vec::new(),
            free: Vec::new(),
            interned: HashMap::with_hasher(hasher),
        }
    }

    /// `id`'s entry ([`Peer::EMPTY`] if absent): one probe.
    #[inline]
    fn get(&self, id: NodeId) -> Peer {
        match self.dense.get(dense_index(id)) {
            Some(&peer) => peer,
            None => self.overflow.get(&id).copied().unwrap_or(Peer::EMPTY),
        }
    }

    #[inline]
    fn addr(&self, peer: Peer) -> Option<NetAddr> {
        (peer.addr != NONE).then(|| self.addrs[peer.addr as usize].0)
    }

    #[inline]
    fn wire(&self, peer: Peer) -> Option<WireAddr> {
        (peer.addr != NONE).then(|| self.wires[peer.addr as usize])
    }

    fn address_of(&self, id: NodeId) -> Option<NetAddr> {
        self.addr(self.get(id))
    }

    fn slot_of(&self, id: NodeId) -> Option<u32> {
        let slot = self.get(id).slot;
        (slot != NONE).then_some(slot)
    }

    /// `id`'s learned address, else `local` if `id` is hosted here (live
    /// or departed), else `None`: one probe.
    #[inline]
    fn resolve(&self, id: NodeId, local: NetAddr) -> Option<NetAddr> {
        let peer = self.get(id);
        self.addr(peer)
            .or_else(|| (peer.slot != NONE).then_some(local))
    }

    /// [`PeerTable::resolve`] in wire form: what the encoder copies.
    #[inline]
    fn resolve_wire(&self, id: NodeId, local: WireAddr) -> Option<WireAddr> {
        let peer = self.get(id);
        self.wire(peer)
            .or_else(|| (peer.slot != NONE).then_some(local))
    }

    /// Binds `id` to the address `wire` names, reading first and writing
    /// only on change. The steady-state case — `id` known at these very
    /// bytes — is one probe and one 19-byte compare; the bytes are parsed
    /// only when they differ from the interned form.
    #[inline]
    fn learn(&mut self, id: NodeId, wire: WireAddr) {
        let peer = self.get(id);
        if peer.addr == NONE || self.wires[peer.addr as usize] != wire {
            self.relearn(id, peer, wire);
        }
    }

    /// [`PeerTable::learn`] on a byte mismatch. Other bytes may still name
    /// the known address (nonzero padding): compare parsed, and write only
    /// a real change.
    #[inline(never)]
    fn relearn(&mut self, id: NodeId, peer: Peer, wire: WireAddr) {
        let addr = NetAddr::from(wire);
        if self.addr(peer) != Some(addr) {
            self.bind(id, addr);
        }
    }

    /// Binds `id` to `addr` only if `id` has no address yet; false if it
    /// is bound to another one.
    fn introduce(&mut self, id: NodeId, addr: NetAddr) -> bool {
        match self.address_of(id) {
            None => {
                self.bind(id, addr);
                true
            }
            Some(bound) => bound == addr,
        }
    }

    /// Records `slot` as `id`'s hosted slot.
    fn host(&mut self, id: NodeId, slot: u32) {
        self.entry(id).slot = slot;
    }

    /// Drops hosted `id`'s address, keeping its slot.
    fn forget(&mut self, id: NodeId) {
        debug_assert!(self.slot_of(id).is_some(), "only hosted ids leave");
        let addr = core::mem::replace(&mut self.entry(id).addr, NONE);
        if addr != NONE {
            self.with_addr -= 1;
            self.release(addr);
        }
    }

    /// The write path: `id`'s address becomes `addr`, interned.
    fn bind(&mut self, id: NodeId, addr: NetAddr) {
        let index = self.intern(addr);
        let old = core::mem::replace(&mut self.entry(id).addr, index);
        if old == NONE {
            self.with_addr += 1;
        } else {
            self.release(old);
        }
    }

    /// `id`'s entry for writing, inserted empty (and counted) if absent:
    /// in the dense part if it covers `id` or may grow to, else in the
    /// overflow. The caller fills the entry in.
    fn entry(&mut self, id: NodeId) -> &mut Peer {
        let i = dense_index(id);
        let fresh = match self.dense.get(i) {
            Some(&peer) => peer == Peer::EMPTY,
            None => !self.overflow.contains_key(&id),
        };
        if fresh {
            self.entries += 1;
            if let Some(len) = self.grown_len(id).filter(|&len| len > self.dense.len()) {
                self.grow(len);
            }
            if self.entries.is_power_of_two() {
                self.regrow();
            }
        }
        if i < self.dense.len() {
            return &mut self.dense[i];
        }
        self.overflow.entry(id).or_insert(Peer::EMPTY)
    }

    /// Grows the dense part over the largest overflow id it may now cover.
    ///
    /// Growth on arrival alone strands ids: learned from the top down,
    /// `0..5 000` would leave `4 096..4 999` in the overflow once every
    /// later id fell below the dense length. Run each time `entries`
    /// reaches a power of two, the scan costs O(overflow) ≤ O(entries) per
    /// doubling — amortised O(1) per id.
    fn regrow(&mut self) {
        let len = self
            .overflow
            .keys()
            .filter_map(|&id| self.grown_len(id))
            .max();
        if let Some(len) = len.filter(|&len| len > self.dense.len()) {
            self.grow(len);
        }
    }

    /// The dense length that would cover `id`: `(id + 1)` rounded up to a
    /// power of two, if that stays within `max(DENSE_FLOOR, 4 × entries)`.
    fn grown_len(&self, id: NodeId) -> Option<usize> {
        let len = id.as_u64().checked_add(1)?.checked_next_power_of_two()?;
        if len > DENSE_FLOOR.max(self.entries.saturating_mul(4)) {
            return None;
        }
        usize::try_from(len).ok()
    }

    /// Grows the dense part to `len` and moves the overflow ids it now
    /// covers into it, so every id lives in exactly one part.
    fn grow(&mut self, len: usize) {
        self.dense.resize(len, Peer::EMPTY);
        let dense = &mut self.dense;
        self.overflow
            .retain(|&id, peer| match dense.get_mut(dense_index(id)) {
                Some(moved) => {
                    *moved = *peer;
                    false
                }
                None => true,
            });
    }

    /// `addr`'s index, interned if no entry holds it yet (with its
    /// canonical wire form), with one more reference counted.
    fn intern(&mut self, addr: NetAddr) -> u32 {
        if let Some(&index) = self.interned.get(&addr) {
            self.addrs[index as usize].1 += 1;
            return index;
        }
        let index = match self.free.pop() {
            Some(index) => {
                self.addrs[index as usize] = (addr, 1);
                self.wires[index as usize] = addr.into();
                index
            }
            None => {
                self.addrs.push((addr, 1));
                self.wires.push(addr.into());
                (self.addrs.len() - 1) as u32
            }
        };
        self.interned.insert(addr, index);
        index
    }

    /// Drops one reference to interned address `index`, recycling it when
    /// no entry holds it any more.
    fn release(&mut self, index: u32) {
        let (addr, count) = &mut self.addrs[index as usize];
        *count -= 1;
        if *count == 0 {
            self.interned.remove(addr);
            self.free.push(index);
        }
    }
}

/// `id`'s position in a dense part; ids past `usize` land out of range.
#[inline]
fn dense_index(id: NodeId) -> usize {
    usize::try_from(id.as_u64()).unwrap_or(usize::MAX)
}

/// Many gossip nodes on one OS thread, over any [`Transport`]; see the
/// `runtime.rs` module docs and the [crate example](crate).
pub struct NetRuntime<T: Transport, N: GossipNode = pss_core::PeerSamplingNode> {
    transport: T,
    /// The wire form of the transport's address.
    local_wire: WireAddr,
    config: NetConfig,
    nodes: Vec<Slot<N>>,
    /// Node id → learned transport address and hosted slot.
    peers: PeerTable,
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
    /// The hosted slot each drained frame's header names: the lookahead's
    /// hints and, once the frame decodes, its routing slot.
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
            local_wire: transport.local_addr().into(),
            transport,
            config,
            nodes: Vec::new(),
            peers: PeerTable::new(hasher),
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
        assert!(self.peers.slot_of(id).is_none(), "node {id} already hosted");
        self.peers.learn(id, self.local_wire);
        for &(peer, addr) in introducers {
            self.peers.learn(peer, addr.into());
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
        self.peers.host(id, slot);
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
        match self.peers.slot_of(id) {
            Some(slot) if self.nodes[slot as usize].alive => {
                self.nodes[slot as usize].alive = false;
                self.peers.forget(id);
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
        match self.peers.slot_of(id) {
            Some(slot) if self.nodes[slot as usize].alive => {
                self.nodes[slot as usize].informed = true;
                true
            }
            _ => false,
        }
    }

    /// True if a hosted live node holds the rumor.
    pub fn is_informed(&self, id: NodeId) -> bool {
        self.peers.slot_of(id).is_some_and(|slot| {
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
        let slot = self.peers.slot_of(id)?;
        let slot = &self.nodes[slot as usize];
        slot.alive.then(|| slot.node.view())
    }

    /// The learned address for `id`, if any.
    pub fn address_of(&self, id: NodeId) -> Option<NetAddr> {
        self.peers.address_of(id)
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
            book_entries: self.peers.with_addr,
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
        self.tele.book_entries.set_max(self.peers.with_addr);
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
            frames
                .iter()
                .map(|(_, bytes)| wire::peek_dst(bytes).and_then(|dst| self.peers.slot_of(dst))),
        );
        let hint = |k: usize| slots.get(k).copied().flatten();
        for (i, (from, bytes)) in frames.iter().enumerate() {
            if let Some((_, after)) = frames.get(i + 2) {
                pss_sim::prefetch(after);
            }
            self.prefetch_slots(hint(i + 1), hint(i + 2));
            self.process_frame(*from, bytes, slots[i]);
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

    /// Processes one frame; `slot` is the hosted slot its header's
    /// destination names, looked up once for the lookahead and reused for
    /// routing (both read the same header bytes).
    fn process_frame(&mut self, _from: NetAddr, bytes: &[u8], slot: Option<u32>) {
        // One frame in `DECODE_TIMING_STRIDE` is timed, by arrival count
        // (see the module docs on the frame path).
        let timed = self.stats.frames_in.is_multiple_of(DECODE_TIMING_STRIDE);
        let decode_started = timed.then(std::time::Instant::now);
        self.stats.frames_in += 1;
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
        if !self.peers.introduce(frame.src, frame.src_addr) {
            self.stats.addr_rebinds_rejected += 1;
        }
        debug_assert_eq!(slot, self.peers.slot_of(frame.dst));
        let Some(slot_idx) = slot else {
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
        let peers = &mut self.peers;
        let decoded = if frame.kind == FrameKind::App {
            // App frames are opaque to the membership layer: whatever
            // descriptor region a peer put there must not teach the book.
            wire::read_descriptors(&frame, &mut payload, &mut self.scratch, |_, _| {})
        } else {
            // Descriptor-carried addresses may update an established entry
            // (the path genuine address changes take), but at steady state
            // every id is already known at this address: compare the wire
            // bytes first, and parse and write only on change, so the
            // table's lines stay clean. Called only for a valid body.
            wire::read_descriptors(&frame, &mut payload, &mut self.scratch, |id, addr| {
                peers.learn(id, addr)
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
        if let Some(started) = decode_started {
            self.tele
                .decode_hist(frame.kind)
                .record(started.elapsed().as_nanos() as u64);
        }
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
        self.peers.resolve(id, self.transport.local_addr())
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
        let peers = &self.peers;
        let local = self.local_wire;
        // Any id hosted here — live or departed — resolves to this
        // runtime's own address without a book entry, so a graceful leave
        // can drop its book entry while views that still reference the
        // departed id stay encodable. The encoder copies the interned
        // wire form: no address is re-encoded per descriptor.
        let resolve = |id: NodeId| peers.resolve_wire(id, local);
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

    /// The table's structural invariants: each id lives in exactly one
    /// part, the dense length obeys the growth rule, the counts match the
    /// entries, and every interned address is held by exactly as many
    /// entries as its count says.
    fn check_table(table: &PeerTable) {
        let dense = table.dense.iter().filter(|&&p| p != Peer::EMPTY);
        let entries: Vec<Peer> = dense.chain(table.overflow.values()).copied().collect();
        assert!(table
            .overflow
            .iter()
            .all(|(&id, &p)| dense_index(id) >= table.dense.len() && p != Peer::EMPTY));
        assert_eq!(entries.len() as u64, table.entries);
        assert!(table.dense.len() as u64 <= DENSE_FLOOR.max(4 * table.entries));
        let mut held = vec![0u32; table.addrs.len()];
        for p in entries.iter().filter(|p| p.addr != NONE) {
            held[p.addr as usize] += 1;
        }
        assert_eq!(held.iter().map(|&h| h as u64).sum::<u64>(), table.with_addr);
        assert_eq!(table.wires.len(), table.addrs.len());
        for (index, &(addr, count)) in table.addrs.iter().enumerate() {
            assert_eq!(held[index], count, "{addr}");
            assert_eq!(
                table.interned.get(&addr) == Some(&(index as u32)),
                count > 0,
                "{addr}"
            );
            if count > 0 {
                assert_eq!(table.wires[index], addr.into(), "canonical wire form");
            }
        }
        assert_eq!(table.interned.len() + table.free.len(), table.addrs.len());
    }

    fn table() -> PeerTable {
        PeerTable::new(IdHashBuilder::with_keys(3, 5))
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// The table answers like a plain map of `(address, slot)` pairs,
        /// over dense, sparse and near-`u64::MAX` ids: hosting, learning,
        /// introducing, leaving and reading. Long runs reach past 256
        /// entries, so ids from `1 024..4 096` first land in the overflow
        /// and later move into a grown dense part.
        #[test]
        fn peer_table_matches_a_map_model(
            ops in proptest::prop::collection::vec(
                (0u8..5, 0u8..3, 0u64..4096, 0u64..u64::MAX, 0u64..64, 0u64..4),
                1..2000,
            ),
        ) {
            let mut table = table();
            let mut model: HashMap<_, (Option<NetAddr>, Option<u32>)> = HashMap::new();
            let mut slots = 0;
            for (op, kind, dense, sparse, top, addr) in ops {
                let id = NodeId::new(match kind {
                    0 => dense,
                    1 => sparse,
                    _ => u64::MAX - top,
                });
                let addr = NetAddr::Virtual(addr);
                let entry = model.entry(id).or_default();
                match op {
                    0 if entry.1.is_none() => {
                        table.host(id, slots);
                        entry.1 = Some(slots);
                        slots += 1;
                    }
                    1 => {
                        table.learn(id, addr.into());
                        entry.0 = Some(addr);
                    }
                    2 => {
                        let fresh = entry.0.is_none();
                        let kept = table.introduce(id, addr);
                        proptest::prop_assert_eq!(kept, fresh || entry.0 == Some(addr));
                        entry.0 = entry.0.or(Some(addr));
                    }
                    3 if entry.1.is_some() => {
                        table.forget(id);
                        entry.0 = None;
                    }
                    _ => {}
                }
                let expected = *entry;
                proptest::prop_assert_eq!((table.address_of(id), table.slot_of(id)), expected);
                if expected.1.is_some() {
                    let local = NetAddr::Virtual(99);
                    let resolved = table.resolve(id, local);
                    proptest::prop_assert_eq!(resolved, expected.0.or(Some(local)));
                    proptest::prop_assert_eq!(
                        table.resolve_wire(id, local.into()),
                        resolved.map(WireAddr::from)
                    );
                }
            }
            model.retain(|_, &mut entry| entry != (None, None));
            for (&id, &entry) in &model {
                proptest::prop_assert_eq!((table.address_of(id), table.slot_of(id)), entry);
            }
            let with_addr = model.values().filter(|e| e.0.is_some()).count() as u64;
            proptest::prop_assert_eq!(table.with_addr, with_addr);
            proptest::prop_assert_eq!(table.entries, model.len() as u64);
            check_table(&table);
        }
    }

    /// Ids `0..n` learned upwards never touch the overflow. Learned from
    /// the top down they start in it, and growth — on arrival, and again
    /// each time the entry count reaches a power of two — moves every one
    /// of them out of it again: no id is stranded on the hash path.
    #[test]
    fn growth_moves_covered_ids_out_of_the_overflow() {
        for ids in [(0..5000).collect::<Vec<u64>>(), (0..5000).rev().collect()] {
            let mut table = table();
            let mut peak = 0;
            for &i in &ids {
                table.learn(NodeId::new(i), NetAddr::Virtual(1).into());
                peak = peak.max(table.overflow.len());
            }
            assert_eq!(peak == 0, ids[0] == 0, "only top-down uses the overflow");
            assert_eq!((table.overflow.len(), table.dense.len()), (0, 8192));
            assert!(ids
                .iter()
                .all(|&i| table.address_of(NodeId::new(i)) == Some(NetAddr::Virtual(1))));
            assert_eq!(table.addrs.len(), 1, "one address, interned once");
            check_table(&table);
        }
    }

    /// A runtime hosting node 0 and a raw endpoint to forge frames from.
    fn forge_target() -> (MemTransport, NetAddr, NetRuntime<MemTransport>) {
        let net = MemNetwork::new(3, LatencyModel::Zero, 0.0).expect("valid");
        let raw = net.endpoint();
        let transport = net.endpoint();
        let addr = transport.net_addr();
        let mut rt = NetRuntime::new(transport, config(), 8).expect("valid");
        rt.add_node(node(0, 8), &[]);
        (raw, addr, rt)
    }

    /// Sends node 0 one push request carrying `descriptors`, each at the
    /// address `addr_of` gives it, and processes it.
    fn forge(
        raw: &mut MemTransport,
        to: NetAddr,
        rt: &mut NetRuntime<MemTransport>,
        descriptors: &[NodeDescriptor],
        addr_of: impl FnMut(NodeId) -> Option<NetAddr>,
    ) {
        let mut buf = Vec::new();
        wire::encode(
            &mut buf,
            FrameKind::Request,
            false,
            NodeId::new(9),
            NodeId::new(0),
            raw.net_addr(),
            descriptors,
            addr_of,
        )
        .unwrap();
        assert!(raw.send(to, &buf));
        rt.run_until(rt.now() + 1);
    }

    /// A body rejected for its second descriptor teaches the book nothing
    /// about its first.
    #[test]
    fn a_rejected_frame_teaches_the_book_nothing() {
        let (mut raw, addr, mut rt) = forge_target();
        let twice = [
            NodeDescriptor::new(NodeId::new(7), 1),
            NodeDescriptor::new(NodeId::new(7), 2),
        ];
        forge(&mut raw, addr, &mut rt, &twice, |_| {
            Some(NetAddr::Virtual(55))
        });
        assert_eq!(rt.stats().body_decode_failures, 1);
        assert_eq!(rt.address_of(NodeId::new(7)), None);
        assert!(rt.view_of(NodeId::new(0)).unwrap().is_empty());
    }

    /// App frames teach nothing, but their descriptors are still validated:
    /// a bad address tag is a body failure like any other.
    #[test]
    fn an_app_frame_with_a_bad_address_tag_is_a_body_failure() {
        let (mut raw, addr, mut rt) = forge_target();
        let mut buf = Vec::new();
        wire::encode(
            &mut buf,
            FrameKind::App,
            false,
            NodeId::new(9),
            NodeId::new(0),
            raw.net_addr(),
            &[NodeDescriptor::new(NodeId::new(7), 1)],
            |_| Some(NetAddr::Virtual(55)),
        )
        .unwrap();
        buf[wire::HEADER_LEN + 12] = 9;
        assert!(raw.send(addr, &buf));
        rt.run_until(rt.now() + 1);
        let stats = rt.stats();
        assert_eq!(stats.body_decode_failures, 1, "{stats:?}");
        assert_eq!(stats.app_delivered, 0, "{stats:?}");
        assert!(!rt.is_informed(NodeId::new(0)));
    }

    /// Wire bytes that differ from the interned form only in padding name
    /// the same address: the byte compare misses, the parsed compare
    /// matches, and the entry stays as it was.
    #[test]
    fn a_padded_wire_form_of_a_known_address_rebinds_nothing() {
        let (mut raw, addr, mut rt) = forge_target();
        let peer = [NodeDescriptor::new(NodeId::new(7), 1)];
        forge(&mut raw, addr, &mut rt, &peer, |_| {
            Some(NetAddr::Virtual(5))
        });
        let before = rt.peers.get(NodeId::new(7));
        let mut buf = Vec::new();
        wire::encode(
            &mut buf,
            FrameKind::Request,
            false,
            NodeId::new(9),
            NodeId::new(0),
            raw.net_addr(),
            &peer,
            |_| Some(NetAddr::Virtual(5)),
        )
        .unwrap();
        buf[wire::HEADER_LEN + 12 + 12] = 0xff; // a virtual address's padding
        assert!(raw.send(addr, &buf));
        rt.run_until(rt.now() + 1);
        assert_eq!(rt.stats().requests_in, 2);
        assert_eq!(rt.peers.get(NodeId::new(7)), before);
        assert_eq!(rt.address_of(NodeId::new(7)), Some(NetAddr::Virtual(5)));
        check_table(&rt.peers);
    }

    #[test]
    fn a_frame_of_fresh_high_ids_grows_only_the_overflow() {
        let (mut raw, addr, mut rt) = forge_target();
        forge(&mut raw, addr, &mut rt, &[], |_| None);
        let dense = rt.peers.dense.len();
        let entries = rt.stats().book_entries;
        let fresh: Vec<NodeDescriptor> = (0..wire::MAX_DESCRIPTORS as u64)
            .map(|i| NodeDescriptor::new(NodeId::new(mix(i) | 1 << 63), 0))
            .collect();
        forge(&mut raw, addr, &mut rt, &fresh, |_| {
            Some(NetAddr::Virtual(7))
        });
        assert_eq!(rt.stats().requests_in, 2);
        assert_eq!(rt.peers.dense.len(), dense);
        assert!(fresh.iter().all(|d| rt.peers.overflow.contains_key(&d.id())
            && rt.address_of(d.id()) == Some(NetAddr::Virtual(7))));
        assert_eq!(rt.stats().book_entries, entries + 1024);
        check_table(&rt.peers);
    }

    #[test]
    fn re_teaching_one_id_new_addresses_recycles_them() {
        let (mut raw, addr, mut rt) = forge_target();
        let peer = [NodeDescriptor::new(NodeId::new(7), 1)];
        for k in 0..1000 {
            forge(&mut raw, addr, &mut rt, &peer, |_| {
                Some(NetAddr::Virtual(1000 + k))
            });
        }
        assert_eq!(rt.stats().requests_in, 1000);
        assert_eq!(rt.address_of(peer[0].id()), Some(NetAddr::Virtual(1999)));
        // Node 0, the sender and node 7: three entries, three addresses.
        assert_eq!(rt.stats().book_entries, 3);
        assert_eq!(rt.peers.interned.len(), 3);
        assert!(rt.peers.addrs.len() <= 4, "{}", rt.peers.addrs.len());
        check_table(&rt.peers);
    }
}
