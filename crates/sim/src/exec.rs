//! Shared sharded-execution machinery.
//!
//! Both parallel engines — the cycle-driven [`crate::ShardedSimulation`]
//! and the event-driven [`crate::ShardedEventSimulation`] — run the same
//! execution skeleton: a population partitioned into shards, phases executed
//! by a persistent [`WorkerPool`] with a static contiguous shard→worker
//! assignment, and fixed-order per-`(src, dst)` mailboxes that are
//! pointer-swap transposed on the driver thread between phases. This module
//! holds that skeleton so the two engines share one implementation (and one
//! set of invariants):
//!
//! * [`run_phase`] — pool execution of a per-shard closure. Shards are
//!   data-isolated within a phase, so the shard→worker assignment is pure
//!   load balancing and can never affect results; it is *contiguous and
//!   static* (worker `w` always owns the same shard range) so each shard's
//!   memory stays affine to one worker across phases and cycles.
//! * [`Mailboxes`]/[`transpose`] — the fixed-order cross-shard queues. A
//!   mailbox lane is written by exactly one shard and read by exactly one
//!   shard, on opposite sides of a phase barrier; transposition swaps the
//!   vectors (no copies) and recycles the drained capacity back to the
//!   sender.
//! * [`SlotRef`]/[`Directory`] — the global id → `(shard, slot)` mapping
//!   with its liveness bitset, the single source of truth shared by every
//!   accessor on both engines.
//! * [`prefetch`] — the cache hint behind the per-node loops' lookahead
//!   ([`crate::population::Population::prefetch`]).

use std::sync::Mutex;

use pss_core::NodeId;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::pool::WorkerPool;

/// Where a global node id lives: `(shard, slot within the shard)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlotRef {
    pub(crate) shard: u32,
    pub(crate) slot: u32,
}

/// SplitMix64 finalizer, for deriving independent per-shard and per-node
/// seeds from one construction seed (and, outside this crate, the
/// runtimes' seeds and hash keys and the experiments' run seeds).
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives the RNG seed of shard `index` from the construction seed:
/// an independent per-shard stream, offset by a golden-ratio multiple so
/// shard 0 does not alias the control RNG.
pub(crate) fn shard_seed(seed: u64, index: usize) -> u64 {
    mix(seed ^ (index as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// The global id → `(shard, slot)` directory plus the liveness bitset.
///
/// Ids are assigned densely in join order and never reused. Ids below the
/// planned capacity map to contiguous per-shard ranges (so bulk
/// construction can proceed shard-parallel); later joins are placed by the
/// owning engine (least-loaded).
#[derive(Debug, Default)]
pub(crate) struct Directory {
    slots: Vec<SlotRef>,
    /// Bit per global id; the single source of truth for liveness.
    alive_bits: Vec<u64>,
    alive_count: usize,
    /// Ids below this were pre-planned and map to contiguous shard ranges.
    planned: u64,
}

impl Directory {
    pub(crate) fn new() -> Self {
        Directory::default()
    }

    /// Declares that the next `n` ids will be bulk-added into contiguous
    /// per-shard ranges (shard `k` of `s` owns ids `[k·n/s, (k+1)·n/s)`).
    ///
    /// # Panics
    ///
    /// Panics if nodes were already added.
    pub(crate) fn plan_capacity(&mut self, n: usize) {
        assert!(
            self.slots.is_empty(),
            "plan_capacity must precede the first add_node"
        );
        self.planned = n as u64;
    }

    /// The shard a fresh id belongs to: its planned range, or the
    /// least-loaded shard (lowest index on ties) given per-shard loads.
    pub(crate) fn shard_for_new(
        &self,
        id: u64,
        loads: impl ExactSizeIterator<Item = usize>,
    ) -> usize {
        let s = loads.len() as u64;
        debug_assert!(s > 0, "need at least one shard");
        if id < self.planned {
            ((id * s) / self.planned) as usize
        } else {
            loads
                .enumerate()
                .min_by_key(|(i, load)| (*load, *i))
                .map(|(i, _)| i)
                .expect("at least one shard")
        }
    }

    /// The full id → `(shard, slot)` table, indexable by `id.as_index()`.
    pub(crate) fn slots(&self) -> &[SlotRef] {
        &self.slots
    }

    /// Total ids ever assigned (dead ones included).
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Number of live ids.
    pub(crate) fn alive_count(&self) -> usize {
        self.alive_count
    }

    /// Registers the next id as living in `(shard, slot)` and marks it
    /// alive. Returns the id.
    pub(crate) fn push(&mut self, shard: u32, slot: u32) -> NodeId {
        let id = NodeId::new(self.slots.len() as u64);
        self.slots.push(SlotRef { shard, slot });
        let bit = id.as_index();
        if bit / 64 >= self.alive_bits.len() {
            self.alive_bits.push(0);
        }
        self.alive_bits[bit / 64] |= 1 << (bit % 64);
        self.alive_count += 1;
        id
    }

    /// True if `id` exists and is alive.
    pub(crate) fn is_alive(&self, id: NodeId) -> bool {
        let slot = id.as_index();
        self.alive_bits
            .get(slot / 64)
            .is_some_and(|word| word & (1 << (slot % 64)) != 0)
    }

    /// Clears the liveness bit of `id`. Returns its slot if it was alive.
    pub(crate) fn kill(&mut self, id: NodeId) -> Option<SlotRef> {
        if !self.is_alive(id) {
            return None;
        }
        let bit = id.as_index();
        self.alive_bits[bit / 64] &= !(1 << (bit % 64));
        self.alive_count -= 1;
        Some(self.slots[bit])
    }

    /// The `(shard, slot)` of `id`, dead or alive.
    pub(crate) fn slot_ref(&self, id: NodeId) -> Option<SlotRef> {
        self.slots.get(id.as_index()).copied()
    }

    /// The liveness bitset (bit per global id).
    pub(crate) fn alive_bits(&self) -> &[u64] {
        &self.alive_bits
    }

    /// Ids of all live nodes, in increasing order.
    pub(crate) fn alive_ids(&self) -> Vec<NodeId> {
        (0..self.slots.len() as u64)
            .map(NodeId::new)
            .filter(|&id| self.is_alive(id))
            .collect()
    }
}

/// Asks the CPU to start loading every cache line `items` occupies into
/// L1, so that a loop can fetch the node it reaches next while it still
/// works on the current one. At N = 50 000 the nodes do not fit the cache,
/// and each exchange would otherwise wait on memory for two random nodes.
///
/// Both engines' per-node loops use it (through `Population::prefetch`),
/// and so does `pss-net`'s `NetRuntime` over each tick's received frames
/// and fired timers: `pss-net` forbids `unsafe`, so it calls this (as
/// `pss_sim::prefetch`) instead of keeping a hint of its own.
///
/// A hint and nothing more: it reads no value the program sees, writes
/// nothing and cannot fault, so no result depends on it. A no-op on
/// targets other than x86_64.
#[inline(always)]
pub fn prefetch<T>(items: &[T]) {
    #[cfg(target_arch = "x86_64")]
    {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        const LINE: usize = 64;
        let bytes = core::mem::size_of_val(items);
        if bytes == 0 {
            return;
        }
        let start = items.as_ptr().cast::<i8>();
        let misalign = start as usize % LINE;
        let first_line = start.wrapping_sub(misalign);
        // Every line from the one holding the first byte to the one
        // holding the last.
        for offset in (0..misalign + bytes).step_by(LINE) {
            // SAFETY: `_mm_prefetch` needs SSE, which every x86_64 CPU has.
            // The pointer is only a hint, never dereferenced: a prefetch
            // does not fault, reads nothing into the program and writes
            // nothing, whatever the address. `wrapping_*` keeps the address
            // computation itself free of undefined behaviour.
            #[allow(unsafe_code)]
            unsafe {
                _mm_prefetch::<_MM_HINT_T0>(first_line.wrapping_add(offset));
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = items;
}

/// One message-loss draw against the shard-local RNG stream.
#[inline]
pub(crate) fn lose(rng: &mut SmallRng, loss: f64) -> bool {
    loss > 0.0 && rng.random::<f64>() < loss
}

/// The contiguous id range shard `index` of `shards` owns under a plan of
/// `n` ids: `[⌈index·n/shards⌉, ⌈(index+1)·n/shards⌉)` — exactly the ids
/// the engines' id directory maps to that shard, so bulk construction
/// and incremental joins agree on placement. The loopback cluster places
/// its initial nodes on runtimes by the same rule.
pub fn planned_range(n: usize, shards: usize, index: usize) -> (usize, usize) {
    let start = (index * n).div_ceil(shards);
    let end = ((index + 1) * n).div_ceil(shards);
    (start, end.min(n))
}

/// The (construction seed, id)-pure node seed used by bulk construction —
/// independent of the driver's control RNG, so per-shard workers can build
/// their partitions concurrently with bit-identical results at any worker
/// count.
pub(crate) fn bulk_node_seed(seed: u64, id: u64) -> u64 {
    mix(seed ^ 0x9159_015a_3070_dd17 ^ id.wrapping_mul(0x2545_f491_4f6c_dd1d))
}

/// The (construction seed, id)-pure initial timer phase used by the event
/// engine's bulk construction, uniform over `[0, period)`.
pub(crate) fn bulk_timer_phase(seed: u64, id: u64, period: u64) -> u64 {
    mix(seed ^ 0x7c15_9e37_79b9_7f4a ^ id.wrapping_mul(0x2545_f491_4f6c_dd1d)) % period
}

/// The outgoing/incoming cross-shard queues of one shard, one fixed-order
/// lane per peer shard. `out[dst]` is filled by this shard during a phase;
/// [`transpose`] then moves every `out[dst]` into the destination shard's
/// `inbox[src]`, where lane index = sender shard, so draining the inbox in
/// lane order is the deterministic sender-shard order the engines' contracts
/// rely on.
pub(crate) struct Mailboxes<T> {
    pub(crate) out: Vec<Vec<T>>,
    pub(crate) inbox: Vec<Vec<T>>,
}

impl<T> Mailboxes<T> {
    pub(crate) fn new(shards: usize) -> Self {
        Mailboxes {
            out: (0..shards).map(|_| Vec::new()).collect(),
            inbox: (0..shards).map(|_| Vec::new()).collect(),
        }
    }

    /// True if every outgoing lane is empty.
    pub(crate) fn out_is_empty(&self) -> bool {
        self.out.iter().all(Vec::is_empty)
    }
}

/// Two distinct mutable shards by index.
///
/// # Panics
///
/// Panics if `i == j` or either is out of range.
pub(crate) fn shard_pair<S>(shards: &mut [S], i: usize, j: usize) -> (&mut S, &mut S) {
    assert_ne!(i, j);
    if i < j {
        let (lo, hi) = shards.split_at_mut(j);
        (&mut lo[i], &mut hi[0])
    } else {
        let (lo, hi) = shards.split_at_mut(i);
        (&mut hi[0], &mut lo[j])
    }
}

/// Moves every shard's `out[dst]` lane into the destination's `inbox[src]`
/// lane: the mailbox transposition between phases. Vectors are swapped, not
/// copied, and the drained inbox capacity flows back to the sender —
/// O(S²) pointer swaps on the driver thread. `mail` projects the mailboxes
/// out of the engine-specific shard type.
pub(crate) fn transpose<S, T>(shards: &mut [S], mail: impl Fn(&mut S) -> &mut Mailboxes<T>) {
    for src in 0..shards.len() {
        for dst in 0..shards.len() {
            if src == dst {
                continue;
            }
            let (sender, receiver) = shard_pair(shards, src, dst);
            let out = core::mem::take(&mut mail(sender).out[dst]);
            let spent = core::mem::replace(&mut mail(receiver).inbox[src], out);
            debug_assert!(spent.is_empty(), "inbox must be drained before refill");
            mail(sender).out[dst] = spent; // recycle capacity
        }
    }
}

/// Runs `f` over every shard on the persistent [`WorkerPool`], with a
/// static *contiguous* shard→worker partition: worker `w` of `W` owns the
/// shard range [`planned_range`]`(shards, W, w)`. The assignment is pure
/// load balancing — shards are data-isolated within a phase, so which
/// worker runs which shard can never affect results — but keeping it
/// static and contiguous means a shard's memory is always touched by the
/// same pool thread, so caches (and, under first-touch placement, pages)
/// stay local to that worker.
pub(crate) fn run_phase<S, F>(shards: &mut [S], pool: &WorkerPool, f: F)
where
    S: Send,
    F: Fn(&mut S) + Sync,
{
    let workers = pool.workers().clamp(1, shards.len().max(1));
    if workers <= 1 {
        for shard in shards.iter_mut() {
            f(shard);
        }
        return;
    }
    // Hand each worker its contiguous chunk through a take-once slot; the
    // chunks are disjoint `&mut` slices, so there is no aliasing to police
    // beyond the one-time take.
    let total = shards.len();
    let mut chunks: Vec<Mutex<Option<&mut [S]>>> = Vec::with_capacity(workers);
    let mut rest = shards;
    for w in 0..workers {
        let (start, end) = planned_range(total, workers, w);
        let (chunk, tail) = rest.split_at_mut(end - start);
        rest = tail;
        chunks.push(Mutex::new(Some(chunk)));
    }
    pool.run(workers, &|w| {
        let chunk = chunks[w]
            .lock()
            .expect("chunk slot never poisoned: taken before f runs")
            .take()
            .expect("each chunk is taken exactly once");
        for shard in chunk.iter_mut() {
            f(shard);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directory_assigns_planned_then_least_loaded() {
        let mut dir = Directory::new();
        dir.plan_capacity(4);
        // Planned ids split evenly over 2 shards.
        assert_eq!(dir.shard_for_new(0, [0, 0].into_iter()), 0);
        assert_eq!(dir.shard_for_new(1, [0, 0].into_iter()), 0);
        assert_eq!(dir.shard_for_new(2, [0, 0].into_iter()), 1);
        assert_eq!(dir.shard_for_new(3, [0, 0].into_iter()), 1);
        // Beyond the plan: least loaded, lowest index on ties.
        assert_eq!(dir.shard_for_new(4, [3, 2].into_iter()), 1);
        assert_eq!(dir.shard_for_new(4, [2, 2].into_iter()), 0);
    }

    #[test]
    fn directory_tracks_liveness() {
        let mut dir = Directory::new();
        let a = dir.push(0, 0);
        let b = dir.push(1, 0);
        assert_eq!(dir.len(), 2);
        assert_eq!(dir.alive_count(), 2);
        assert!(dir.is_alive(a) && dir.is_alive(b));
        let slot = dir.kill(b).expect("was alive");
        assert_eq!(slot.shard, 1);
        assert!(dir.kill(b).is_none());
        assert_eq!(dir.alive_count(), 1);
        assert_eq!(dir.alive_ids(), vec![a]);
        assert_eq!(dir.alive_bits(), &[0b01]);
        assert!(dir.slot_ref(b).is_some(), "dead ids keep their slot");
    }

    #[test]
    fn transpose_moves_and_recycles() {
        struct S {
            mail: Mailboxes<u32>,
        }
        let mut shards: Vec<S> = (0..3)
            .map(|_| S {
                mail: Mailboxes::new(3),
            })
            .collect();
        shards[0].mail.out[1].extend([10, 11]);
        shards[0].mail.out[2].push(20);
        shards[2].mail.out[0].push(99);
        transpose(&mut shards, |s| &mut s.mail);
        assert_eq!(shards[1].mail.inbox[0], vec![10, 11]);
        assert_eq!(shards[2].mail.inbox[0], vec![20]);
        assert_eq!(shards[0].mail.inbox[2], vec![99]);
        assert!(shards.iter().all(|s| s.mail.out_is_empty()));
    }

    #[test]
    fn run_phase_covers_every_shard_at_any_worker_count() {
        for workers in [1, 2, 5, 8] {
            let pool = WorkerPool::new(workers);
            let mut shards: Vec<u64> = vec![0; 5];
            run_phase(&mut shards, &pool, |s| *s += 1);
            assert_eq!(shards, vec![1; 5], "workers = {workers}");
        }
    }

    #[test]
    fn run_phase_partition_is_contiguous_and_covers_exactly_once() {
        // Tag each shard with the worker that ran it; the static partition
        // must be contiguous ranges in shard order.
        let pool = WorkerPool::new(3);
        let mut shards: Vec<(usize, Mutex<usize>)> =
            (0..7).map(|i| (i, Mutex::new(usize::MAX))).collect();
        let worker_of = Mutex::new(std::collections::HashMap::new());
        run_phase(&mut shards, &pool, |(index, tag)| {
            let key = std::thread::current().id();
            let mut map = worker_of.lock().unwrap();
            let next = map.len();
            let worker = *map.entry(key).or_insert(next);
            *tag.get_mut().unwrap() = worker;
            let _ = index;
        });
        let tags: Vec<usize> = shards.iter().map(|(_, t)| *t.lock().unwrap()).collect();
        assert!(tags.iter().all(|&t| t != usize::MAX), "every shard ran");
        // Contiguity: equal tags form runs (no interleaving).
        let mut seen = Vec::new();
        for &t in &tags {
            if seen.last() != Some(&t) {
                assert!(!seen.contains(&t), "partition must be contiguous: {tags:?}");
                seen.push(t);
            }
        }
    }
}
