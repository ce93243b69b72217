//! Node storage shared by all simulation engines.
//!
//! A [`Population`] is a dense table of protocol nodes with a `u64`-bitset
//! liveness mirror, holding **one shard** of a sharded population: slots
//! are shard-local indices, the node's *global* id lives in the node
//! itself, and the mapping from global id to `(shard, slot)` is kept by
//! the owning engine's [`crate::exec::Directory`]. The cycle engine
//! ([`crate::ShardedSimulation`]) and the event engine
//! ([`crate::ShardedEventSimulation`]) store their partitions this way.

use pss_core::{GossipNode, NodeId};

use crate::exec;

/// A heap-allocated protocol node usable by the simulators.
///
/// Any [`GossipNode`] implementation works: the paper's
/// [`pss_core::PeerSamplingNode`], the H&S extension
/// [`pss_core::hs::HsNode`], or custom user protocols.
pub type BoxedNode = Box<dyn GossipNode + Send>;

pub(crate) struct Entry<N> {
    pub(crate) node: N,
    pub(crate) alive: bool,
}

/// Dense table of nodes; slots are assigned sequentially and never reused,
/// so a dead node's slot stays dead.
///
/// Generic over the node type: `Population<BoxedNode>` holds heterogeneous
/// boxed nodes behind virtual dispatch; a concrete `N` gives the
/// monomorphized fast path. Liveness is mirrored in a `u64` bitset so
/// per-cycle snapshots are word copies instead of per-node scans.
pub(crate) struct Population<N> {
    entries: Vec<Entry<N>>,
    alive_count: usize,
    /// Bit `i` set ⇔ slot `i` is alive.
    alive_bits: Vec<u64>,
}

impl<N> Default for Population<N> {
    fn default() -> Self {
        Population {
            entries: Vec::new(),
            alive_count: 0,
            alive_bits: Vec::new(),
        }
    }
}

impl<N: GossipNode> Population<N> {
    pub(crate) fn new() -> Self {
        Population::default()
    }

    /// Adds an already-built node (whose id need not match the slot) and
    /// returns its slot index.
    pub(crate) fn add_slot(&mut self, node: N) -> u32 {
        let slot = self.entries.len() as u32;
        self.push_alive(node);
        slot
    }

    fn push_alive(&mut self, node: N) {
        let slot = self.entries.len();
        self.entries.push(Entry { node, alive: true });
        self.alive_count += 1;
        if slot / 64 >= self.alive_bits.len() {
            self.alive_bits.push(0);
        }
        self.alive_bits[slot / 64] |= 1 << (slot % 64);
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn alive_count(&self) -> usize {
        self.alive_count
    }

    /// The liveness bitset (bit `i` ⇔ slot `i` alive).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn alive_bits(&self) -> &[u64] {
        &self.alive_bits
    }

    /// Slot-based kill. Returns false if already dead.
    pub(crate) fn kill_slot(&mut self, slot: u32) -> bool {
        match self.entries.get_mut(slot as usize) {
            Some(e) if e.alive => {
                e.alive = false;
                self.alive_count -= 1;
                let slot = slot as usize;
                self.alive_bits[slot / 64] &= !(1 << (slot % 64));
                true
            }
            _ => false,
        }
    }

    /// The entry in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub(crate) fn slot(&self, slot: u32) -> &Entry<N> {
        &self.entries[slot as usize]
    }

    /// Mutable entry in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub(crate) fn slot_mut(&mut self, slot: u32) -> &mut Entry<N> {
        &mut self.entries[slot as usize]
    }

    /// The lookahead of a per-node loop, called once per item with the
    /// slots the loop reaches after the current one. Of the first two, it
    /// starts loading the second one's entry and — the first one's entry
    /// having been requested one item earlier, so reading it now costs
    /// little — the first one's view descriptors. Every node's memory is
    /// thus on its way two items before the loop touches it. Only a cache
    /// hint ([`exec::prefetch`]): no order, draw or result depends on it.
    #[inline(always)]
    pub(crate) fn prefetch(&self, upcoming: impl IntoIterator<Item = u32>) {
        let mut upcoming = upcoming.into_iter();
        let next = upcoming.next();
        if let Some(after) = upcoming.next() {
            self.prefetch_entry(after);
        }
        if let Some(next) = next {
            self.prefetch_view(next);
        }
    }

    /// Starts loading the entry in `slot`, if there is one: the first half
    /// of [`Population::prefetch`].
    #[inline(always)]
    pub(crate) fn prefetch_entry(&self, slot: u32) {
        if let Some(entry) = self.entries.get(slot as usize) {
            exec::prefetch(core::slice::from_ref(entry));
        }
    }

    /// Starts loading the view descriptors of the node in `slot`, if there
    /// is one: the second half of [`Population::prefetch`]. It reads the
    /// entry, so that should be on its way already.
    #[inline(always)]
    pub(crate) fn prefetch_view(&self, slot: u32) {
        if let Some(entry) = self.entries.get(slot as usize) {
            exec::prefetch(entry.node.view().descriptors());
        }
    }

    /// Live slots in increasing slot order.
    pub(crate) fn alive_slots(&self) -> impl Iterator<Item = u32> + '_ {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.alive)
            .map(|(i, _)| i as u32)
    }

    /// Descriptors held by live nodes that point at nodes `is_live` rejects.
    pub(crate) fn dead_link_count_with(&self, is_live: impl Fn(NodeId) -> bool) -> usize {
        self.entries
            .iter()
            .filter(|e| e.alive)
            .map(|e| {
                e.node
                    .view()
                    .ids()
                    .filter(|&target| !is_live(target))
                    .count()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pss_core::{PeerSamplingNode, PolicyTriple, ProtocolConfig};

    fn node(id: u64) -> PeerSamplingNode {
        let config = ProtocolConfig::new(PolicyTriple::newscast(), 4).unwrap();
        PeerSamplingNode::with_seed(NodeId::new(id), config, id + 1)
    }

    #[test]
    fn slot_storage_keeps_global_ids() {
        let mut pop: Population<PeerSamplingNode> = Population::new();
        // Slots 0/1 hold globally-numbered nodes 10/12.
        assert_eq!(pop.add_slot(node(10)), 0);
        assert_eq!(pop.add_slot(node(12)), 1);
        assert_eq!(pop.len(), 2);
        assert_eq!(pop.slot(0).node.id(), NodeId::new(10));
        assert_eq!(pop.slot(1).node.id(), NodeId::new(12));
        assert!(pop.kill_slot(1));
        assert!(!pop.kill_slot(1));
        assert_eq!(pop.alive_count(), 1);
        assert_eq!(pop.alive_slots().collect::<Vec<_>>(), vec![0]);
        assert_eq!(pop.alive_bits(), &[0b01]);
    }
}
