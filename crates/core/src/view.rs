//! Partial views: hop-count-ordered sets of node descriptors.

use core::fmt;

use rand::seq::index::{sample, sample_into};
use rand::Rng;

use crate::{NodeDescriptor, NodeId, ViewSelection};

/// A partial view: "a list with at most one descriptor per node and ordered
/// according to increasing hop count" (paper, Section 3).
///
/// Invariants maintained by every operation:
///
/// 1. at most one descriptor per node,
/// 2. entries sorted by increasing hop count,
/// 3. ties in hop count keep their insertion order (stable).
///
/// The tie rule matters more than it looks. The paper notes the first/last
/// `k` elements are "not always uniquely defined" under ties — incidental
/// list order, varying per node. A *globally consistent* tie-break (e.g. by
/// node id) instead injects systematic selection pressure: under `head`
/// view selection every node then prefers the same low-id descriptors,
/// views concentrate on a few hubs, and small overlays even partition. We
/// verified this experimentally; stable insertion order reproduces the
/// paper's balanced behavior while staying fully deterministic.
///
/// The view does **not** enforce a size bound itself: the protocol merges
/// freely and then truncates with [`View::select`], matching the
/// `merge`/`selectView` split of the paper's skeleton.
///
/// # Performance
///
/// The view is its hop-ordered entry list and nothing else. Lookups
/// ([`View::contains`], [`View::hop_count_of`]) scan the at most `c`
/// entries. Merging never searches and never sorts: every merge entry
/// point ([`View::merge_into`], [`View::merge_select_from`],
/// [`View::merge_select_from_slice`]) runs one core over a
/// [`MergeScratch`]. One pass over the received side ages each entry by
/// the transfer age as it reads it, checks hop order and enters its id
/// into an epoch-stamped hash table; one pass over the own view marks
/// duplicates and collects the received entries it lowers; one three-way
/// emit writes the merged (and, fused, the selected) entries straight
/// into the output. No steady-state allocation, no virtual calls. The
/// original quadratic algorithms are retained verbatim in [`mod@reference`]
/// and property tests assert byte-identical behavior.
///
/// # Examples
///
/// ```
/// use pss_core::{NodeDescriptor, NodeId, View};
///
/// let mut view = View::new();
/// view.insert(NodeDescriptor::new(NodeId::new(5), 2));
/// view.insert(NodeDescriptor::new(NodeId::new(9), 0));
/// // Ordered by hop count: n9@0 first.
/// assert_eq!(view.head().unwrap().id(), NodeId::new(9));
/// // Re-inserting the same node keeps the freshest descriptor.
/// view.insert(NodeDescriptor::new(NodeId::new(5), 1));
/// assert_eq!(view.hop_count_of(NodeId::new(5)), Some(1));
/// assert_eq!(view.len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct View {
    /// Sorted by hop count; ties keep insertion order.
    entries: Vec<NodeDescriptor>,
}

/// Reusable buffers for the view algebra: the merge core behind every
/// merge entry point (see [`View::merge_from`]), bulk construction
/// ([`View::assign_aged`]) and filtered sampling
/// ([`View::sample_filtered`]).
///
/// One scratch can be shared across any number of calls (a driver's
/// staging arena keeps one for its lifetime). The buffers grow to the
/// working-set size once and are reused afterwards.
#[derive(Debug, Clone, Default)]
pub struct MergeScratch {
    /// Open-addressed table of the tie-precedent (received) side's ids,
    /// one packed slot per id. A slot is valid only while its epoch equals
    /// `epoch`, so incrementing `epoch` clears the table in O(1).
    slots: Vec<Slot>,
    epoch: u32,
    /// Per-position "not emitted as is" flags: the received side's
    /// positions first (excluded or lowered), then the own side's
    /// (excluded or duplicate).
    dropped: Vec<bool>,
    /// Received entries whose hop count the own side lowers: the own
    /// side's descriptor with the received position, in `(hop, position)`
    /// order.
    lowered: Vec<(NodeDescriptor, u32)>,
    /// Random-selection index buffer for `rand` view selection.
    chosen: Vec<usize>,
    /// `(id, hop, arrival)` triples for bulk construction.
    keyed: Vec<(u64, u32, u32)>,
    /// Eligible ids collected by [`View::sample_filtered`].
    candidates: Vec<NodeId>,
    /// Staging view the merge result is assembled in.
    out: View,
}

/// One slot of the merge core's id table.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    id: u64,
    /// Position of the id in the received side.
    pos: u32,
    epoch: u32,
}

/// Multiplicative hash of a node id into `mask + 1` power-of-two slots.
#[inline]
fn id_slot(id: u64, mask: usize) -> usize {
    (id.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize & mask
}

std::thread_local! {
    /// Scratch backing the allocating [`View::merge`] wrapper.
    static MERGE_SCRATCH: core::cell::RefCell<MergeScratch> =
        core::cell::RefCell::new(MergeScratch::default());
}

impl View {
    /// Creates an empty view.
    pub fn new() -> Self {
        View::default()
    }

    /// Builds a view from arbitrary descriptors, deduplicating per node
    /// (keeping the lowest hop count) and sorting by hop count.
    ///
    /// Equivalent to inserting every descriptor in order with
    /// [`View::insert`], but `O(k log k)` instead of `O(k²)`.
    pub fn from_descriptors(descriptors: impl IntoIterator<Item = NodeDescriptor>) -> Self {
        let mut view = View::new();
        let mut keyed = Vec::new();
        view.rebuild(descriptors, 0, &mut keyed);
        view
    }

    /// Replaces this view's contents with `descriptors`, each aged by
    /// `extra_hops`, reusing both this view's storage and the scratch
    /// buffers: the bulk equivalent of `increaseHopCount` applied to a
    /// freshly constructed view, with no steady-state allocation.
    pub fn assign_aged(
        &mut self,
        descriptors: impl IntoIterator<Item = NodeDescriptor>,
        extra_hops: u32,
        scratch: &mut MergeScratch,
    ) {
        self.rebuild(descriptors, extra_hops, &mut scratch.keyed);
    }

    /// Shared bulk-construction core: dedup per id keeping the lowest hop
    /// count (earliest arrival on ties), order by `(hop, arrival)`.
    ///
    /// Fast path: protocol messages carry well-formed view content
    /// (hop-sorted, one descriptor per node), for which construction is a
    /// straight copy plus one id sort. Detected optimistically: hop order
    /// is checked on ingest, id uniqueness after the id sort; any violation
    /// falls back to the general dedup path.
    fn rebuild(
        &mut self,
        descriptors: impl IntoIterator<Item = NodeDescriptor>,
        extra_hops: u32,
        keyed: &mut Vec<(u64, u32, u32)>,
    ) {
        keyed.clear();
        let mut hop_sorted = true;
        let mut prev_hop = 0u32;
        keyed.extend(descriptors.into_iter().enumerate().map(|(i, d)| {
            let hop = d.hop_count();
            hop_sorted &= prev_hop <= hop;
            prev_hop = hop;
            (d.id().as_u64(), hop, i as u32)
        }));
        if hop_sorted {
            self.entries.clear();
            self.entries.extend(keyed.iter().map(|&(id, hop, _)| {
                NodeDescriptor::new(NodeId::new(id), hop.saturating_add(extra_hops))
            }));
            keyed.sort_unstable_by_key(|&(id, _, _)| id);
            if keyed.windows(2).all(|w| w[0].0 < w[1].0) {
                return;
            }
            // Duplicate ids: fall through to the general path, which
            // orders by arrival rank, not by the order `keyed` is in now.
        }
        // Winner per id = lowest hop count, earliest arrival among equals —
        // exactly what sequential insertion keeps. Dedup and order use the
        // *raw* hop counts; aging is applied at emission, matching
        // "construct, then increaseHopCount" even when aging saturates.
        keyed.sort_unstable();
        keyed.dedup_by_key(|&mut (id, _, _)| id);
        // Entry order: by hop count, ties by the winner's arrival rank (the
        // stable insertion order).
        keyed.sort_unstable_by_key(|&(_, hop, arrival)| (hop, arrival));
        self.entries.clear();
        self.entries.extend(keyed.iter().map(|&(id, hop, _)| {
            NodeDescriptor::new(NodeId::new(id), hop.saturating_add(extra_hops))
        }));
    }

    /// Number of descriptors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the view holds no descriptors.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The descriptors in hop-count order.
    pub fn descriptors(&self) -> &[NodeDescriptor] {
        &self.entries
    }

    /// Iterator over the descriptors in hop-count order.
    pub fn iter(&self) -> impl Iterator<Item = &NodeDescriptor> {
        self.entries.iter()
    }

    /// Iterator over the node ids in hop-count order.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.entries.iter().map(|d| d.id())
    }

    /// The freshest descriptor (lowest hop count), if any.
    pub fn head(&self) -> Option<&NodeDescriptor> {
        self.entries.first()
    }

    /// The stalest descriptor (highest hop count), if any.
    pub fn tail(&self) -> Option<&NodeDescriptor> {
        self.entries.last()
    }

    /// Position of the descriptor for `id`, if present: a scan over at
    /// most `c` entries.
    fn position(&self, id: NodeId) -> Option<usize> {
        self.entries.iter().position(|d| d.id() == id)
    }

    /// True if the view holds a descriptor for `id`.
    pub fn contains(&self, id: NodeId) -> bool {
        self.position(id).is_some()
    }

    /// Hop count of the descriptor for `id`, if present.
    pub fn hop_count_of(&self, id: NodeId) -> Option<u32> {
        self.position(id).map(|pos| self.entries[pos].hop_count())
    }

    /// Inserts `d`, keeping the lower hop count if a descriptor for the same
    /// node already exists. New entries go after existing ones with the
    /// same hop count (stable).
    pub fn insert(&mut self, d: NodeDescriptor) {
        if let Some(old) = self.position(d.id()) {
            if self.entries[old].hop_count() <= d.hop_count() {
                return;
            }
            self.entries.remove(old);
        }
        let at = self
            .entries
            .partition_point(|e| e.hop_count() <= d.hop_count());
        self.entries.insert(at, d);
    }

    /// Removes and returns the descriptor for `id`, if present.
    pub fn remove(&mut self, id: NodeId) -> Option<NodeDescriptor> {
        let pos = self.position(id)?;
        Some(self.entries.remove(pos))
    }

    /// Keeps only descriptors matching the predicate.
    pub fn retain(&mut self, f: impl FnMut(&NodeDescriptor) -> bool) {
        self.entries.retain(f);
    }

    /// Increments every descriptor's hop count (saturating), as
    /// `increaseHopCount(view)` does to a received view.
    pub fn increase_hop_counts(&mut self) {
        for d in &mut self.entries {
            *d = d.aged();
        }
    }

    /// The paper's `merge(view1, view2)`: the union of both views, with the
    /// lowest-hop-count descriptor kept when both contain the same node.
    /// `self`'s entries precede `other`'s on equal hop counts (the paper's
    /// active thread calls `merge(view_p, view)` — received entries first).
    ///
    /// Descriptors of `excluded` (the merging node itself) are dropped — a
    /// node never stores its own descriptor in its own view.
    ///
    /// Allocates the result (backed by a thread-local scratch); the
    /// simulation hot path uses [`View::merge_select_from_slice`] with an
    /// explicit [`MergeScratch`] instead.
    #[must_use]
    pub fn merge(&self, other: &View, excluded: Option<NodeId>) -> View {
        let mut out = View {
            entries: Vec::with_capacity(self.len() + other.len()),
        };
        MERGE_SCRATCH.with(|scratch| {
            self.merge_into(other, excluded, &mut out, &mut scratch.borrow_mut());
        });
        out
    }

    /// In-place variant of [`View::merge`]: `self ← merge(received, self)`,
    /// the exact absorption step of the protocol skeleton (`received`'s
    /// entries take tie precedence). Reuses `scratch`; allocation-free once
    /// the buffers are warm.
    pub fn merge_from(
        &mut self,
        received: &View,
        excluded: Option<NodeId>,
        scratch: &mut MergeScratch,
    ) {
        let mut out = core::mem::take(&mut scratch.out);
        received.merge_into(self, excluded, &mut out, scratch);
        core::mem::swap(self, &mut out);
        // The displaced old storage becomes the next call's staging view.
        scratch.out = out;
    }

    /// Fused `view ← selectView(merge(received, view))`: the absorption +
    /// truncation step of the protocol skeleton in one pass, bit-identical
    /// to [`View::merge_from`] followed by [`View::select`] (including the
    /// RNG draws of `rand` view selection) but cheaper: `head` selection
    /// stops merging as soon as `c` entries are emitted.
    pub fn merge_select_from(
        &mut self,
        received: &View,
        excluded: Option<NodeId>,
        policy: ViewSelection,
        c: usize,
        rng: &mut impl Rng,
        scratch: &mut MergeScratch,
    ) {
        let absorbed =
            self.merge_select_from_aged(&received.entries, 0, excluded, policy, c, rng, scratch);
        assert!(absorbed, "a valid view is well-formed view content");
    }

    /// Fused absorb for wire-format descriptor buffers: semantically
    /// `self ← selectView(merge(View::from(received), self))` with
    /// `received` taking tie precedence, but without constructing a `View`
    /// for the received side at all — the merge core reads the buffer in
    /// place, so the absorb sorts nothing.
    ///
    /// `received` must be *well-formed view content* — hop-count-sorted with
    /// at most one descriptor per node, which is what every protocol message
    /// built from a valid view carries. Returns `false` without touching
    /// `self` (or the RNG) if the buffer is malformed; callers then fall
    /// back to the general path ([`View::assign_aged`] +
    /// [`View::merge_select_from`]).
    #[allow(clippy::too_many_arguments)]
    pub fn merge_select_from_slice(
        &mut self,
        received: &[NodeDescriptor],
        excluded: Option<NodeId>,
        policy: ViewSelection,
        c: usize,
        rng: &mut impl Rng,
        scratch: &mut MergeScratch,
    ) -> bool {
        self.merge_select_from_aged(received, 0, excluded, policy, c, rng, scratch)
    }

    /// [`View::merge_select_from_slice`] with every received descriptor
    /// aged by `transfer` hops (saturating) as it is read: the receive
    /// side's `increaseHopCount` without a copy of the buffer.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn merge_select_from_aged(
        &mut self,
        received: &[NodeDescriptor],
        transfer: u32,
        excluded: Option<NodeId>,
        policy: ViewSelection,
        c: usize,
        rng: &mut impl Rng,
        scratch: &mut MergeScratch,
    ) -> bool {
        let Some(merged_len) = scratch.resolve(received, transfer, &self.entries, excluded) else {
            return false;
        };
        let (take, skip) = match policy {
            ViewSelection::Head => (c.min(merged_len), 0),
            ViewSelection::Tail => (merged_len, merged_len.saturating_sub(c)),
            ViewSelection::Rand => (merged_len, 0),
        };
        let mut out = core::mem::take(&mut scratch.out);
        scratch.emit(
            received,
            transfer,
            &self.entries,
            take,
            skip,
            &mut out.entries,
        );
        if policy == ViewSelection::Rand && out.entries.len() > c {
            // Identical index draws to `View::select`.
            let chosen = &mut scratch.chosen;
            sample_into(rng, out.entries.len(), c, chosen);
            chosen.sort_unstable();
            for (k, &i) in chosen.iter().enumerate() {
                out.entries[k] = out.entries[i];
            }
            out.entries.truncate(c);
        }
        core::mem::swap(self, &mut out);
        // The displaced old storage becomes the next call's staging view.
        scratch.out = out;
        true
    }

    /// Merges `self` (tie-precedent side) with `other` into `out`, reusing
    /// `scratch`. Semantics are identical to [`View::merge`]; cost is one
    /// hashing pass over each entry list plus one ordered emit.
    pub fn merge_into(
        &self,
        other: &View,
        excluded: Option<NodeId>,
        out: &mut View,
        scratch: &mut MergeScratch,
    ) {
        let merged_len = scratch
            .resolve(&self.entries, 0, &other.entries, excluded)
            .expect("a valid view is well-formed view content");
        scratch.emit(
            &self.entries,
            0,
            &other.entries,
            merged_len,
            0,
            &mut out.entries,
        );
    }

    /// The paper's `selectView`: truncates to at most `c` descriptors
    /// according to the view selection policy. The surviving descriptors
    /// remain in hop-count order.
    pub fn select(&mut self, policy: ViewSelection, c: usize, rng: &mut impl Rng) {
        if self.entries.len() <= c {
            return;
        }
        match policy {
            ViewSelection::Head => self.entries.truncate(c),
            ViewSelection::Tail => {
                self.entries.drain(..self.entries.len() - c);
            }
            ViewSelection::Rand => {
                let mut chosen = sample(rng, self.entries.len(), c).into_vec();
                chosen.sort_unstable();
                for (k, &i) in chosen.iter().enumerate() {
                    self.entries[k] = self.entries[i];
                }
                self.entries.truncate(c);
            }
        }
    }

    /// Uniform random entry among those for which `eligible` returns true,
    /// if any — the shared implementation of `rand` peer selection.
    ///
    /// Contract: `eligible` (a `FnMut` — callers may pass stateful
    /// filters) is consulted exactly once per entry, in hop-count order,
    /// and the RNG is drawn from exactly once when any candidate exists
    /// (one `0..count` draw, like indexing a collected candidate list).
    /// Allocation-free once warm: candidates collect into the scratch's
    /// reusable buffer.
    pub fn sample_filtered(
        &self,
        rng: &mut impl Rng,
        scratch: &mut MergeScratch,
        eligible: &mut dyn FnMut(NodeId) -> bool,
    ) -> Option<NodeId> {
        let candidates = &mut scratch.candidates;
        candidates.clear();
        candidates.extend(self.ids().filter(|&id| eligible(id)));
        if candidates.is_empty() {
            None
        } else {
            Some(candidates[rng.random_range(0..candidates.len())])
        }
    }

    /// Uniform random descriptor from the view, if any. This is the paper's
    /// "simplest possible implementation" of `getPeer()`.
    pub fn sample(&self, rng: &mut impl Rng) -> Option<&NodeDescriptor> {
        if self.entries.is_empty() {
            None
        } else {
            Some(&self.entries[rng.random_range(0..self.entries.len())])
        }
    }

    /// Checks the structural invariants; used by tests and debug assertions.
    pub fn invariants_hold(&self) -> bool {
        let sorted = self
            .entries
            .windows(2)
            .all(|w| w[0].hop_count() <= w[1].hop_count());
        // Pairwise uniqueness scan: quadratic in the view size (≤ c, tiny)
        // but allocation-free, so the debug_asserts in the absorb hot path
        // don't make debug builds allocate per message.
        let unique = self
            .entries
            .iter()
            .enumerate()
            .all(|(i, a)| self.entries[i + 1..].iter().all(|b| a.id() != b.id()));
        sorted && unique
    }
}

/// The merge core every merge entry point shares: `merge(received, own)`
/// with `received` aged by a transfer age and taking tie precedence.
///
/// Merged order is by `(hop, origin)`, where received entries precede own
/// entries and each side keeps its order. Three sequences therefore make
/// up the result, each already in that order: received entries the own
/// side leaves unchanged, received entries the own side lowers (their
/// hop becomes the own side's, their position stays the received one),
/// and own entries without a received duplicate.
impl MergeScratch {
    /// Passes 1 and 2 of the core. Pass 1 walks `received`: it checks hop
    /// order and enters every id but `excluded` into the slot table. Pass
    /// 2 walks `own`: it marks excluded and duplicate entries and collects
    /// the received entries they lower. Returns the merged length, or
    /// `None` — with nothing observable changed — if `received` is not
    /// well-formed view content (out of hop order or an id repeated).
    fn resolve(
        &mut self,
        received: &[NodeDescriptor],
        transfer: u32,
        own: &[NodeDescriptor],
        excluded: Option<NodeId>,
    ) -> Option<usize> {
        // A sparse table: at 1/16 load most probes hit an empty slot or
        // the id itself on the first try.
        let capacity = (received.len() * 16).next_power_of_two().max(64);
        if self.slots.len() < capacity {
            self.slots.resize(capacity, Slot::default());
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: stale slots could alias the fresh epoch; hard-clear.
            self.slots.fill(Slot::default());
            self.epoch = 1;
        }
        let epoch = self.epoch;
        let excluded = excluded.map(NodeId::as_u64);
        let MergeScratch {
            slots,
            dropped,
            lowered,
            ..
        } = self;
        let slots = slots.as_mut_slice();
        let mask = slots.len() - 1;
        dropped.clear();
        dropped.resize(received.len() + own.len(), false);
        let (rx_dropped, own_dropped) = dropped.split_at_mut(received.len());

        let mut merged_len = received.len();
        let mut prev_hop = 0;
        for (pos, d) in received.iter().enumerate() {
            if d.hop_count() < prev_hop {
                return None;
            }
            prev_hop = d.hop_count();
            let id = d.id().as_u64();
            if Some(id) == excluded {
                if merged_len < received.len() {
                    // The excluded id bypasses the table, so a repeat of
                    // it is caught here.
                    return None;
                }
                rx_dropped[pos] = true;
                merged_len -= 1;
                continue;
            }
            let mut s = id_slot(id, mask);
            loop {
                let slot = &mut slots[s];
                if slot.epoch != epoch {
                    *slot = Slot {
                        id,
                        pos: pos as u32,
                        epoch,
                    };
                    break;
                }
                if slot.id == id {
                    return None;
                }
                s = (s + 1) & mask;
            }
        }

        lowered.clear();
        for (q, d) in own.iter().enumerate() {
            let id = d.id().as_u64();
            let mut duplicate = Some(id) == excluded;
            let mut s = id_slot(id, mask);
            while !duplicate && slots[s].epoch == epoch {
                let slot = slots[s];
                if slot.id == id {
                    duplicate = true;
                    let pos = slot.pos as usize;
                    if d.hop_count() < received[pos].hop_count().saturating_add(transfer) {
                        rx_dropped[pos] = true;
                        // `own` is hop-sorted, so only equal hops can be
                        // out of position order.
                        let key = (d.hop_count(), slot.pos);
                        let at = lowered.iter().rposition(|&(l, p)| (l.hop_count(), p) < key);
                        lowered.insert(at.map_or(0, |at| at + 1), (*d, slot.pos));
                    }
                }
                s = (s + 1) & mask;
            }
            own_dropped[q] = duplicate;
            merged_len += usize::from(!duplicate);
        }
        Some(merged_len)
    }

    /// Pass 3 of the core: the three-way emit. Walks the merged sequence
    /// resolved by [`MergeScratch::resolve`] for `take` entries and writes
    /// all but the first `skip` of them into `out`.
    fn emit(
        &self,
        received: &[NodeDescriptor],
        transfer: u32,
        own: &[NodeDescriptor],
        take: usize,
        skip: usize,
        out: &mut Vec<NodeDescriptor>,
    ) {
        // Order keys: `hop << 32 | position` on the received side; an own
        // entry sorts after every received entry of its hop. An exhausted
        // sequence keys as `u64::MAX`, which never wins.
        let (rx_dropped, own_dropped) = self.dropped.split_at(received.len());
        let lowered = self.lowered.as_slice();
        let rx_key = |i: usize| {
            received.get(i).map_or(u64::MAX, |d| {
                u64::from(d.hop_count().saturating_add(transfer)) << 32 | i as u64
            })
        };
        let lowered_key = |l: usize| {
            lowered.get(l).map_or(u64::MAX, |&(d, pos)| {
                u64::from(d.hop_count()) << 32 | u64::from(pos)
            })
        };
        let own_key = |j: usize| {
            own.get(j).map_or(u64::MAX, |d| {
                u64::from(d.hop_count()) << 32 | u64::from(u32::MAX)
            })
        };
        let kept = |dropped: &[bool], mut i: usize| {
            while dropped.get(i) == Some(&true) {
                i += 1;
            }
            i
        };
        let (mut i, mut l, mut j) = (kept(rx_dropped, 0), 0, kept(own_dropped, 0));
        let (mut rx_next, mut lowered_next, mut own_next) = (rx_key(i), lowered_key(0), own_key(j));
        out.clear();
        out.reserve(take - skip);
        for k in 0..take {
            let d = if rx_next < lowered_next && rx_next < own_next {
                let d = received[i].aged_by(transfer);
                i = kept(rx_dropped, i + 1);
                rx_next = rx_key(i);
                d
            } else if lowered_next < own_next {
                l += 1;
                lowered_next = lowered_key(l);
                lowered[l - 1].0
            } else {
                let d = own[j];
                j = kept(own_dropped, j + 1);
                own_next = own_key(j);
                d
            };
            if k >= skip {
                out.push(d);
            }
        }
    }
}

impl fmt::Display for View {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl FromIterator<NodeDescriptor> for View {
    fn from_iter<I: IntoIterator<Item = NodeDescriptor>>(iter: I) -> Self {
        View::from_descriptors(iter)
    }
}

impl<'a> IntoIterator for &'a View {
    type Item = &'a NodeDescriptor;
    type IntoIter = std::slice::Iter<'a, NodeDescriptor>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

/// The original (pre-optimization) view algorithms, retained verbatim as
/// executable specifications: the differential property tests assert the
/// optimized implementations above produce byte-identical
/// results. Not part of the public API.
#[doc(hidden)]
pub mod reference {
    use super::{NodeDescriptor, NodeId};

    /// Sequential-insertion view construction by linear scan (the seed's
    /// `View::insert` loop). Returns the entry list in view order.
    pub fn from_descriptors(
        descriptors: impl IntoIterator<Item = NodeDescriptor>,
    ) -> Vec<NodeDescriptor> {
        let mut entries: Vec<NodeDescriptor> = Vec::new();
        for d in descriptors {
            if let Some(pos) = entries.iter().position(|e| e.id() == d.id()) {
                if entries[pos].hop_count() <= d.hop_count() {
                    continue;
                }
                entries.remove(pos);
            }
            let at = entries.partition_point(|e| e.hop_count() <= d.hop_count());
            entries.insert(at, d);
        }
        entries
    }

    /// The seed's quadratic merge: concatenate, dedup by first occurrence
    /// keeping the lower hop count, stable-sort by hop count.
    pub fn merge(
        a: &[NodeDescriptor],
        b: &[NodeDescriptor],
        excluded: Option<NodeId>,
    ) -> Vec<NodeDescriptor> {
        let mut merged: Vec<NodeDescriptor> = Vec::with_capacity(a.len() + b.len());
        for d in a
            .iter()
            .chain(b.iter())
            .filter(|d| Some(d.id()) != excluded)
        {
            match merged.iter().position(|e| e.id() == d.id()) {
                Some(pos) if merged[pos].hop_count() <= d.hop_count() => {}
                Some(pos) => merged[pos] = *d,
                None => merged.push(*d),
            }
        }
        merged.sort_by_key(|d| d.hop_count()); // stable
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn d(id: u64, hops: u32) -> NodeDescriptor {
        NodeDescriptor::new(NodeId::new(id), hops)
    }

    #[test]
    fn empty_view() {
        let v = View::new();
        assert!(v.is_empty());
        assert_eq!(v.len(), 0);
        assert_eq!(v.head(), None);
        assert_eq!(v.tail(), None);
        assert!(v.invariants_hold());
        assert_eq!(v.to_string(), "[]");
    }

    #[test]
    fn insert_keeps_hop_order() {
        let mut v = View::new();
        v.insert(d(1, 5));
        v.insert(d(2, 1));
        v.insert(d(3, 3));
        let hops: Vec<u32> = v.iter().map(|x| x.hop_count()).collect();
        assert_eq!(hops, vec![1, 3, 5]);
        assert!(v.invariants_hold());
    }

    #[test]
    fn insert_dedups_keeping_freshest() {
        let mut v = View::new();
        v.insert(d(1, 5));
        v.insert(d(1, 2));
        assert_eq!(v.len(), 1);
        assert_eq!(v.hop_count_of(NodeId::new(1)), Some(2));
        // Staler duplicate is ignored.
        v.insert(d(1, 9));
        assert_eq!(v.hop_count_of(NodeId::new(1)), Some(2));
        assert!(v.invariants_hold());
    }

    #[test]
    fn ties_preserve_insertion_order() {
        let mut v = View::new();
        v.insert(d(9, 3));
        v.insert(d(1, 3));
        v.insert(d(5, 3));
        let ids: Vec<u64> = v.ids().map(|i| i.as_u64()).collect();
        assert_eq!(ids, vec![9, 1, 5]);
    }

    #[test]
    fn tied_insert_goes_after_equal_hops_but_before_higher() {
        let mut v = View::new();
        v.insert(d(1, 2));
        v.insert(d(2, 4));
        v.insert(d(3, 2));
        let ids: Vec<u64> = v.ids().map(|i| i.as_u64()).collect();
        assert_eq!(ids, vec![1, 3, 2]);
        assert!(v.invariants_hold());
    }

    #[test]
    fn from_descriptors_matches_sequential_insertion() {
        let ds = [
            d(3, 2),
            d(1, 2),
            d(3, 1),
            d(7, 0),
            d(1, 2),
            d(9, 2),
            d(3, 5),
        ];
        let bulk = View::from_descriptors(ds);
        let mut seq = View::new();
        for x in ds {
            seq.insert(x);
        }
        assert_eq!(bulk, seq);
        assert_eq!(
            bulk.descriptors(),
            reference::from_descriptors(ds).as_slice()
        );
        assert!(bulk.invariants_hold());
        assert!(seq.invariants_hold());
    }

    #[test]
    fn assign_aged_replaces_and_ages() {
        let mut v: View = [d(1, 1)].into_iter().collect();
        let mut scratch = MergeScratch::default();
        v.assign_aged([d(5, 0), d(6, 3)], 1, &mut scratch);
        assert_eq!(v.len(), 2);
        assert_eq!(v.hop_count_of(NodeId::new(5)), Some(1));
        assert_eq!(v.hop_count_of(NodeId::new(6)), Some(4));
        assert!(!v.contains(NodeId::new(1)));
        assert!(v.invariants_hold());
    }

    #[test]
    fn merge_tie_order_puts_self_entries_first() {
        let a: View = [d(10, 3)].into_iter().collect();
        let b: View = [d(20, 3)].into_iter().collect();
        let m = a.merge(&b, None);
        let ids: Vec<u64> = m.ids().map(|i| i.as_u64()).collect();
        assert_eq!(ids, vec![10, 20]);
        let m2 = b.merge(&a, None);
        let ids2: Vec<u64> = m2.ids().map(|i| i.as_u64()).collect();
        assert_eq!(ids2, vec![20, 10]);
    }

    #[test]
    fn head_and_tail() {
        let v: View = [d(1, 7), d(2, 0), d(3, 4)].into_iter().collect();
        assert_eq!(v.head().unwrap().id(), NodeId::new(2));
        assert_eq!(v.tail().unwrap().id(), NodeId::new(1));
    }

    #[test]
    fn remove_and_contains() {
        let mut v: View = [d(1, 1), d(2, 2)].into_iter().collect();
        assert!(v.contains(NodeId::new(1)));
        let removed = v.remove(NodeId::new(1)).unwrap();
        assert_eq!(removed, d(1, 1));
        assert!(!v.contains(NodeId::new(1)));
        assert_eq!(v.remove(NodeId::new(1)), None);
        assert!(v.invariants_hold());
    }

    #[test]
    fn retain_filters() {
        let mut v: View = [d(1, 1), d(2, 2), d(3, 3)].into_iter().collect();
        v.retain(|x| x.hop_count() < 3);
        assert_eq!(v.len(), 2);
        assert!(!v.contains(NodeId::new(3)));
        assert!(v.invariants_hold());
    }

    #[test]
    fn increase_hop_counts_ages_everything() {
        let mut v: View = [d(1, 0), d(2, 7)].into_iter().collect();
        v.increase_hop_counts();
        assert_eq!(v.hop_count_of(NodeId::new(1)), Some(1));
        assert_eq!(v.hop_count_of(NodeId::new(2)), Some(8));
        assert!(v.invariants_hold());
    }

    #[test]
    fn merge_keeps_lowest_hop_count() {
        let a: View = [d(1, 5), d(2, 3)].into_iter().collect();
        let b: View = [d(1, 2), d(3, 4)].into_iter().collect();
        let m = a.merge(&b, None);
        assert_eq!(m.len(), 3);
        assert_eq!(m.hop_count_of(NodeId::new(1)), Some(2));
        assert_eq!(m.hop_count_of(NodeId::new(2)), Some(3));
        assert_eq!(m.hop_count_of(NodeId::new(3)), Some(4));
        assert!(m.invariants_hold());
    }

    #[test]
    fn merge_excludes_self() {
        let a: View = [d(1, 5)].into_iter().collect();
        let b: View = [d(7, 0), d(2, 1)].into_iter().collect();
        let m = a.merge(&b, Some(NodeId::new(7)));
        assert!(!m.contains(NodeId::new(7)));
        assert_eq!(m.len(), 2);
        assert!(m.invariants_hold());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let a: View = [d(1, 1), d(2, 2)].into_iter().collect();
        let m = a.merge(&View::new(), None);
        assert_eq!(m, a);
        let m2 = View::new().merge(&a, None);
        assert_eq!(m2, a);
        assert!(m.invariants_hold());
        assert!(m2.invariants_hold());
    }

    #[test]
    fn merge_from_matches_merge() {
        let received: View = [d(1, 2), d(4, 0), d(2, 9)].into_iter().collect();
        let view: View = [d(2, 3), d(3, 3), d(5, 1)].into_iter().collect();
        let expected = received.merge(&view, Some(NodeId::new(5)));
        let mut target = view.clone();
        let mut scratch = MergeScratch::default();
        target.merge_from(&received, Some(NodeId::new(5)), &mut scratch);
        assert_eq!(target, expected);
        assert!(target.invariants_hold());
    }

    #[test]
    fn slice_absorb_rejects_repeated_excluded_id() {
        // A hop-sorted buffer repeating the receiver's own id is malformed
        // and must be rejected so the general path can handle it — the own
        // descriptor must never survive into the view.
        let mut v: View = [d(9, 1)].into_iter().collect();
        let mut scratch = MergeScratch::default();
        let mut rng = SmallRng::seed_from_u64(0);
        let buf = [d(5, 0), d(5, 1), d(7, 2)];
        let accepted = v.merge_select_from_slice(
            &buf,
            Some(NodeId::new(5)),
            ViewSelection::Head,
            30,
            &mut rng,
            &mut scratch,
        );
        assert!(!accepted, "repeated excluded id must be rejected");
        // View untouched by the failed attempt.
        assert_eq!(v.descriptors(), [d(9, 1)].as_slice());
        // The general path handles the same content correctly.
        let rx = View::from_descriptors(buf);
        v.merge_select_from(
            &rx,
            Some(NodeId::new(5)),
            ViewSelection::Head,
            30,
            &mut rng,
            &mut scratch,
        );
        assert!(!v.contains(NodeId::new(5)));
        assert!(v.contains(NodeId::new(7)));
        assert!(v.contains(NodeId::new(9)));
    }

    /// A valid view of `pairs` without `owner`, as a node holds one.
    fn view_of(pairs: &[(u64, u32)], owner: u64) -> View {
        pairs
            .iter()
            .filter(|&&(id, _)| id != owner)
            .map(|&(id, hops)| d(id, hops))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // The buffer is built the way `PeerSamplingNode` builds one: the
        // sender's view with its fresh descriptor after the hop-0 entries.
        // Ids come from a small range, so duplicates between buffer and
        // view, and entries the view lowers, are common.
        #[test]
        fn slice_absorb_matches_reference_on_protocol_buffers(
            own in prop::collection::vec((0u64..24, 0u32..6), 0..24),
            sent in prop::collection::vec((0u64..24, 0u32..6), 0..24),
            ends in (0u64..24, 0u64..24),
            transfer in 0u32..2,
            policy in prop::sample::select(vec![
                ViewSelection::Head,
                ViewSelection::Tail,
                ViewSelection::Rand,
            ]),
            c in 1usize..16,
            at in 0usize..64,
            seed in 0u64..1000,
        ) {
            let (sender, receiver) = ends;
            let view = view_of(&own, receiver);
            let mut buffer = view_of(&sent, sender).entries;
            let zeros = buffer.partition_point(|e| e.hop_count() == 0);
            buffer.insert(zeros, d(sender, 0));
            let excluded = Some(NodeId::new(receiver));
            let mut scratch = MergeScratch::default();
            let mut absorb = |buffer: &[NodeDescriptor]| {
                let mut target = view.clone();
                let mut rng = SmallRng::seed_from_u64(seed);
                let taken = target.merge_select_from_aged(
                    buffer, transfer, excluded, policy, c, &mut rng, &mut scratch,
                );
                (taken, target, rng.random::<u64>())
            };

            let aged: Vec<NodeDescriptor> = buffer.iter().map(|e| e.aged_by(transfer)).collect();
            let mut expected = View {
                entries: reference::merge(&aged, view.descriptors(), excluded),
            };
            let mut rng = SmallRng::seed_from_u64(seed);
            expected.select(policy, c, &mut rng);
            prop_assert_eq!(absorb(&buffer), (true, expected, rng.random::<u64>()));

            // Malformed buffers: rejected, view and RNG untouched.
            let untouched = (false, view.clone(), SmallRng::seed_from_u64(seed).random::<u64>());
            let p = at % buffer.len();
            let hops = buffer[p].hop_count();
            let mut unsorted = buffer.clone();
            unsorted.insert(p, d(100, hops + 1));
            let mut duplicate = buffer.clone();
            duplicate.insert(p + 1, buffer[p]);
            let mut excluded_twice = buffer.clone();
            excluded_twice.splice(p..p, [d(receiver, hops); 2]);
            for malformed in [unsorted, duplicate, excluded_twice] {
                prop_assert_eq!(absorb(&malformed), untouched.clone());
            }
        }
    }

    #[test]
    fn merge_from_reuses_buffers_across_calls() {
        let mut scratch = MergeScratch::default();
        let mut v = View::new();
        for round in 0..10u64 {
            let received: View = (0..20).map(|i| d(i + round, (i % 5) as u32)).collect();
            v.merge_from(&received, Some(NodeId::new(3)), &mut scratch);
            assert!(v.invariants_hold());
            assert!(!v.contains(NodeId::new(3)));
        }
    }

    #[test]
    fn merge_matches_reference_on_lowered_hops() {
        // Hop lowering perturbs the self-side order; the optimized merge
        // must still match the quadratic reference exactly.
        let a: View = [d(1, 0), d(2, 4), d(3, 5), d(4, 6)].into_iter().collect();
        let b: View = [d(4, 0), d(3, 1), d(9, 2), d(2, 2)].into_iter().collect();
        assert_eq!(
            a.merge(&b, None).descriptors(),
            reference::merge(a.descriptors(), b.descriptors(), None).as_slice()
        );
        assert_eq!(
            b.merge(&a, Some(NodeId::new(2))).descriptors(),
            reference::merge(b.descriptors(), a.descriptors(), Some(NodeId::new(2))).as_slice()
        );
    }

    #[test]
    fn select_head_keeps_freshest() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut v: View = (0..10).map(|i| d(i, i as u32)).collect();
        v.select(ViewSelection::Head, 3, &mut rng);
        let hops: Vec<u32> = v.iter().map(|x| x.hop_count()).collect();
        assert_eq!(hops, vec![0, 1, 2]);
        assert!(v.invariants_hold());
    }

    #[test]
    fn select_tail_keeps_stalest() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut v: View = (0..10).map(|i| d(i, i as u32)).collect();
        v.select(ViewSelection::Tail, 3, &mut rng);
        let hops: Vec<u32> = v.iter().map(|x| x.hop_count()).collect();
        assert_eq!(hops, vec![7, 8, 9]);
        assert!(v.invariants_hold());
    }

    #[test]
    fn select_rand_keeps_subset_in_order() {
        let mut rng = SmallRng::seed_from_u64(42);
        let original: View = (0..20).map(|i| d(i, i as u32)).collect();
        let mut v = original.clone();
        v.select(ViewSelection::Rand, 8, &mut rng);
        assert_eq!(v.len(), 8);
        assert!(v.invariants_hold());
        for x in v.iter() {
            assert!(original.contains(x.id()));
        }
    }

    #[test]
    fn select_no_op_when_small_enough() {
        let mut rng = SmallRng::seed_from_u64(0);
        let original: View = (0..3).map(|i| d(i, i as u32)).collect();
        for policy in [
            ViewSelection::Head,
            ViewSelection::Tail,
            ViewSelection::Rand,
        ] {
            let mut v = original.clone();
            v.select(policy, 3, &mut rng);
            assert_eq!(v, original);
            let mut v = original.clone();
            v.select(policy, 10, &mut rng);
            assert_eq!(v, original);
        }
    }

    #[test]
    fn sample_is_some_iff_non_empty() {
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(View::new().sample(&mut rng).is_none());
        let v: View = [d(1, 0)].into_iter().collect();
        assert_eq!(v.sample(&mut rng).unwrap().id(), NodeId::new(1));
    }

    #[test]
    fn sample_covers_all_entries() {
        let mut rng = SmallRng::seed_from_u64(2);
        let v: View = (0..5).map(|i| d(i, 0)).collect();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(v.sample(&mut rng).unwrap().id());
        }
        assert_eq!(seen.len(), 5);
    }

    #[test]
    fn display_lists_descriptors() {
        let v: View = [d(1, 0), d(2, 3)].into_iter().collect();
        assert_eq!(v.to_string(), "[n1@0 n2@3]");
    }

    #[test]
    fn into_iterator_for_reference() {
        let v: View = [d(1, 0), d(2, 3)].into_iter().collect();
        let count = (&v).into_iter().count();
        assert_eq!(count, 2);
    }
}
