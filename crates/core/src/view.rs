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
/// entries. Merging never searches: duplicates are resolved in one linear
/// pass through an epoch-stamped hash table kept in [`MergeScratch`], and
/// the simulation hot path ([`View::merge_select_from_slice`]) absorbs a
/// received descriptor buffer with a single sort-free pass, no
/// steady-state allocation, and no virtual calls. The original quadratic
/// algorithms are retained verbatim in [`reference`] and property tests
/// assert byte-identical behavior.
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

/// Reusable buffers for the allocation-free merge path; see
/// [`View::merge_from`] and [`View::assign_aged`].
///
/// One scratch can be shared across any number of merges (protocol nodes
/// keep one for their lifetime). The buffers grow to the working-set size
/// once and are reused afterwards.
#[derive(Debug, Clone, Default)]
pub struct MergeScratch {
    /// Tie-precedent side entries whose hops were lowered by the other
    /// side, with their positions; re-sorted by `(hop, position)`.
    lowered: Vec<(NodeDescriptor, u32)>,
    /// The full tie-precedent sequence in `(hop, position)` order.
    resolved: Vec<(NodeDescriptor, u32)>,
    /// Per-position resolved hop counts of the tie-precedent side.
    hops: Vec<u32>,
    /// Per-position "is duplicate/excluded" flags of the other side.
    skip: Vec<bool>,
    /// Random-selection index buffer for `rand` view selection.
    chosen: Vec<usize>,
    /// `(id, hop, arrival)` triples for bulk construction.
    keyed: Vec<(u64, u32, u32)>,
    /// Staging view the merge result is assembled in.
    out: View,
    /// Open-addressed id table for duplicate resolution: keys, stored
    /// positions, and the epoch that validates a slot (incrementing
    /// `epoch` clears the table in O(1)).
    table_keys: Vec<u64>,
    table_pos: Vec<u32>,
    table_epoch: Vec<u32>,
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
    /// Candidate buffer backing [`View::sample_filtered`].
    static FILTER_CANDIDATES: core::cell::RefCell<Vec<NodeId>> =
        const { core::cell::RefCell::new(Vec::new()) };
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
        let mut out = core::mem::take(&mut scratch.out);
        received.merge_select_into(self, excluded, policy, c, rng, &mut out, scratch);
        core::mem::swap(self, &mut out);
        scratch.out = out;
    }

    /// Fused merge+select core: see [`View::merge_select_from`].
    #[allow(clippy::too_many_arguments)]
    fn merge_select_into(
        &self,
        other: &View,
        excluded: Option<NodeId>,
        policy: ViewSelection,
        c: usize,
        rng: &mut impl Rng,
        out: &mut View,
        scratch: &mut MergeScratch,
    ) {
        let excluded_raw = excluded.map(|id| id.as_u64());
        let (merged_len, excluded_self_pos) =
            resolve_with_table(&self.entries, &other.entries, excluded_raw, scratch)
                .expect("a valid view has no duplicate ids");
        {
            let MergeScratch {
                lowered,
                resolved,
                hops,
                ..
            } = scratch;
            build_resolved(&self.entries, hops, excluded_self_pos, lowered, resolved);
        }
        emit_selected(
            &scratch.resolved,
            other.entries.as_slice(),
            &scratch.skip,
            &mut scratch.chosen,
            merged_len,
            policy,
            c,
            rng,
            out,
        );
    }

    /// Fused absorb for wire-format descriptor buffers: semantically
    /// `self ← selectView(merge(View::from(received), self))` with
    /// `received` taking tie precedence, but without constructing a `View`
    /// for the received side at all — duplicate resolution runs through an
    /// O(1)-cleared hash table in `scratch`, so the absorb sorts nothing.
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
        if !received
            .windows(2)
            .all(|w| w[0].hop_count() <= w[1].hop_count())
        {
            return false;
        }
        let excluded_raw = excluded.map(|id| id.as_u64());
        let Some((merged_len, excluded_rx_pos)) =
            resolve_with_table(received, &self.entries, excluded_raw, scratch)
        else {
            return false; // duplicate id: malformed buffer
        };
        {
            let MergeScratch {
                lowered,
                resolved,
                hops,
                ..
            } = scratch;
            build_resolved(received, hops, excluded_rx_pos, lowered, resolved);
        }
        let mut out = core::mem::take(&mut scratch.out);
        emit_selected(
            &scratch.resolved,
            self.entries.as_slice(),
            &scratch.skip,
            &mut scratch.chosen,
            merged_len,
            policy,
            c,
            rng,
            &mut out,
        );
        core::mem::swap(self, &mut out);
        scratch.out = out;
        true
    }

    /// Merges `self` (tie-precedent side) with `other` into `out`, reusing
    /// `scratch`. Semantics are identical to [`View::merge`]; cost is one
    /// linear hash-resolution pass over both entry lists plus a two-way
    /// ordered merge.
    pub fn merge_into(
        &self,
        other: &View,
        excluded: Option<NodeId>,
        out: &mut View,
        scratch: &mut MergeScratch,
    ) {
        let excluded_raw = excluded.map(|id| id.as_u64());
        let (merged_len, excluded_self_pos) =
            resolve_with_table(&self.entries, &other.entries, excluded_raw, scratch)
                .expect("a valid view has no duplicate ids");
        {
            let MergeScratch {
                lowered,
                resolved,
                hops,
                ..
            } = scratch;
            build_resolved(&self.entries, hops, excluded_self_pos, lowered, resolved);
        }
        // A full (unselective) emit is head selection with no size bound.
        emit_merge(
            &scratch.resolved,
            other.entries.as_slice(),
            &scratch.skip,
            merged_len,
            0,
            out,
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
    /// Allocation-free: candidates collect into a reusable thread-local
    /// buffer.
    pub fn sample_filtered(
        &self,
        rng: &mut impl Rng,
        eligible: &mut dyn FnMut(NodeId) -> bool,
    ) -> Option<NodeId> {
        FILTER_CANDIDATES.with(|buffer| {
            let mut candidates = buffer.borrow_mut();
            candidates.clear();
            candidates.extend(self.ids().filter(|&id| eligible(id)));
            if candidates.is_empty() {
                None
            } else {
                Some(candidates[rng.random_range(0..candidates.len())])
            }
        })
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

/// Resolves duplicates between the tie-precedent entry sequence `a` and the
/// other side `b` through the scratch's epoch-stamped open-addressed id
/// table (O(1) clear, no per-entry searches, no id ordering required):
///
/// * `scratch.hops[p]` — resolved (minimum) hop count of `a[p]`,
/// * `scratch.skip[p]` — `b[p]` loses to a duplicate in `a` or is excluded.
///
/// Returns `(merged_len, excluded_a_pos)` — the number of entries the merge
/// will emit and the position of the excluded id within `a` — or `None` if
/// `a` holds the same id twice (malformed input; `b`, a valid view, cannot).
fn resolve_with_table(
    a: &[NodeDescriptor],
    b: &[NodeDescriptor],
    excluded_raw: Option<u64>,
    scratch: &mut MergeScratch,
) -> Option<(usize, Option<usize>)> {
    let MergeScratch {
        hops,
        skip,
        table_keys,
        table_pos,
        table_epoch,
        epoch,
        ..
    } = scratch;
    let capacity = (a.len() * 4).next_power_of_two().max(64);
    if table_keys.len() < capacity {
        table_keys.resize(capacity, 0);
        table_pos.resize(capacity, 0);
        table_epoch.resize(capacity, 0);
    }
    let mask = table_keys.len() - 1;
    *epoch = epoch.wrapping_add(1);
    if *epoch == 0 {
        // Wrapped: stale slots could alias the fresh epoch; hard-clear.
        table_epoch.fill(0);
        *epoch = 1;
    }
    let epoch = *epoch;

    let mut excluded_a_pos = None;
    let mut a_count = 0usize;
    for (pos, d) in a.iter().enumerate() {
        let id = d.id().as_u64();
        if Some(id) == excluded_raw {
            if excluded_a_pos.is_some() {
                // The excluded id bypasses the table, so repeats of it must
                // be caught here: a repeated id is a malformed buffer.
                return None;
            }
            excluded_a_pos = Some(pos);
            continue;
        }
        a_count += 1;
        let mut slot = id_slot(id, mask);
        loop {
            if table_epoch[slot] != epoch {
                table_keys[slot] = id;
                table_pos[slot] = pos as u32;
                table_epoch[slot] = epoch;
                break;
            }
            if table_keys[slot] == id {
                return None; // duplicate id within `a`
            }
            slot = (slot + 1) & mask;
        }
    }

    hops.clear();
    hops.extend(a.iter().map(|d| d.hop_count()));
    skip.clear();
    skip.resize(b.len(), false);
    let mut b_count = 0usize;
    for (pos, d) in b.iter().enumerate() {
        let id = d.id().as_u64();
        if Some(id) == excluded_raw {
            skip[pos] = true;
            continue;
        }
        let mut slot = id_slot(id, mask);
        loop {
            if table_epoch[slot] != epoch {
                b_count += 1;
                break;
            }
            if table_keys[slot] == id {
                let a_pos = table_pos[slot] as usize;
                skip[pos] = true;
                if d.hop_count() < hops[a_pos] {
                    hops[a_pos] = d.hop_count();
                }
                break;
            }
            slot = (slot + 1) & mask;
        }
    }
    Some((a_count + b_count, excluded_a_pos))
}

/// Two-way merge ordered by `(hop, anchor)` of the resolved tie-precedent
/// sequence (which wins ties) against the surviving `rest` entries, writing
/// at most `emit_limit` merged entries and dropping the first `skip_first`
/// of them into `out`.
fn emit_merge(
    resolved: &[(NodeDescriptor, u32)],
    rest: &[NodeDescriptor],
    skip: &[bool],
    emit_limit: usize,
    skip_first: usize,
    out: &mut View,
) {
    out.entries.clear();
    out.entries.reserve(emit_limit.saturating_sub(skip_first));
    let (mut i, mut j) = (0, 0);
    while j < rest.len() && skip[j] {
        j += 1;
    }
    let mut emitted = 0usize;
    while emitted < emit_limit {
        let take_own = match (resolved.get(i), rest.get(j)) {
            (Some(&(d, _)), Some(r)) => d.hop_count() <= r.hop_count(),
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        let d = if take_own {
            let (d, _) = resolved[i];
            i += 1;
            d
        } else {
            let d = rest[j];
            j += 1;
            while j < rest.len() && skip[j] {
                j += 1;
            }
            d
        };
        if emitted >= skip_first {
            out.entries.push(d);
        }
        emitted += 1;
    }
}

/// The fused emit + selectView step shared by [`View::merge_select_from`]
/// and [`View::merge_select_from_slice`]: [`emit_merge`] with the selection
/// policy folded in —
/// * `head` keeps the first `c` merged entries (stops early),
/// * `tail` keeps the last `c` (skips the first `merged_len − c`),
/// * `rand` keeps a sorted random index subset of the full merge (identical
///   RNG draws to [`View::select`]).
#[allow(clippy::too_many_arguments)]
fn emit_selected(
    resolved: &[(NodeDescriptor, u32)],
    rest: &[NodeDescriptor],
    skip: &[bool],
    chosen: &mut Vec<usize>,
    merged_len: usize,
    policy: ViewSelection,
    c: usize,
    rng: &mut impl Rng,
    out: &mut View,
) {
    let (emit_limit, skip_first) = match policy {
        ViewSelection::Head => (c.min(merged_len), 0),
        ViewSelection::Tail => (merged_len, merged_len.saturating_sub(c)),
        ViewSelection::Rand => (merged_len, 0),
    };
    emit_merge(resolved, rest, skip, emit_limit, skip_first, out);
    if policy == ViewSelection::Rand && out.entries.len() > c {
        // Identical index draws to `View::select`.
        sample_into(rng, out.entries.len(), c, chosen);
        chosen.sort_unstable();
        for (k, &i) in chosen.iter().enumerate() {
            out.entries[k] = out.entries[i];
        }
        out.entries.truncate(c);
    }
}

/// Emits the tie-precedent sequence in `(resolved hop, original position)`
/// order into `resolved`. Entries whose hops are unchanged form a
/// still-sorted subsequence of `own`; entries lowered by the other side are
/// collected into `lowered` (usually few), sorted explicitly, and merged
/// back in.
fn build_resolved(
    own: &[NodeDescriptor],
    hops: &[u32],
    excluded_pos: Option<usize>,
    lowered: &mut Vec<(NodeDescriptor, u32)>,
    resolved: &mut Vec<(NodeDescriptor, u32)>,
) {
    resolved.clear();
    resolved.reserve(own.len());
    lowered.clear();
    for (pos, d) in own.iter().enumerate() {
        if hops[pos] != d.hop_count() {
            lowered.push((NodeDescriptor::new(d.id(), hops[pos]), pos as u32));
        }
    }
    if lowered.is_empty() {
        // Common case: nothing lowered, the sequence is `own` minus the
        // excluded entry.
        resolved.extend(
            own.iter()
                .enumerate()
                .filter(|&(pos, _)| Some(pos) != excluded_pos)
                .map(|(pos, d)| (*d, pos as u32)),
        );
    } else {
        lowered.sort_unstable_by_key(|&(d, pos)| (d.hop_count(), pos));
        // Two-pointer merge of the unchanged subsequence (sorted by
        // construction) with the lowered list, by (hop, position).
        let mut l = 0;
        for (pos, d) in own.iter().enumerate() {
            if Some(pos) == excluded_pos || hops[pos] != d.hop_count() {
                continue;
            }
            while l < lowered.len() {
                let (ld, lpos) = lowered[l];
                if (ld.hop_count(), lpos) < (d.hop_count(), pos as u32) {
                    resolved.push((ld, lpos));
                    l += 1;
                } else {
                    break;
                }
            }
            resolved.push((*d, pos as u32));
        }
        resolved.extend_from_slice(&lowered[l..]);
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
