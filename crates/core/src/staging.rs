//! Explicitly-owned staging arena shared by every protocol node
//! implementation.
//!
//! The receive side of an exchange needs a handful of scratch buffers: a
//! staging [`View`] for the general merge fallback, a [`MergeScratch`]
//! (which the fast path merges the wire buffer through in place), and a
//! pool of recycled message buffers.
//! These are deliberately **per driver** rather than per node: a simulation
//! drives many thousands of nodes from one arena, and per-node buffers would
//! add kilobytes of cold memory to every exchange (measurably slower at
//! N = 10⁴ than the allocations they save). One shared arena stays hot in
//! cache and keeps the steady state allocation-free.
//!
//! Ownership is explicit: the driver (a simulation shard, an event shard, a
//! network runtime) constructs an [`Arena`] and passes `&mut Arena` into
//! every [`crate::GossipNode`] call. Earlier revisions hid the arena in a
//! `thread_local!`, which coupled recycling to accidental thread identity;
//! with shard-owned arenas, recycled capacity stays with the shard that will
//! reuse it no matter which worker thread runs the shard, and the borrow
//! checker — not a `RefCell` — enforces exclusive access. Because buffer
//! *contents* never leak between exchanges (every use starts with
//! `clear()`), arena reuse can never affect protocol output; determinism
//! holds regardless of which arena processes which exchange.

use crate::view::MergeScratch;
use crate::{NodeDescriptor, View};

/// Default upper bound on pooled message buffers per arena; beyond this,
/// spent buffers are simply dropped. Cycle-driven exchanges hold at most two
/// buffers in flight per node being driven, so a small pool suffices; event
/// drivers with many in-flight messages raise the limit via
/// [`Arena::with_pool_limit`].
pub const POOL_LIMIT: usize = 8;

/// The staging buffers every protocol node call works out of (see the
/// module docs). One per driver; passed explicitly as `&mut Arena`.
pub struct Arena {
    /// Staging view for the (rare) general fallback merge path.
    pub(crate) rx_view: View,
    /// Merge scratch shared by all merge/select calls through this arena.
    pub(crate) scratch: MergeScratch,
    /// Recycled message buffers: absorbed request/reply vectors are parked
    /// here and reused when building outgoing messages, keeping message
    /// construction allocation-free in steady state.
    pool: Vec<Vec<NodeDescriptor>>,
    /// Upper bound on `pool.len()`.
    pool_limit: usize,
}

impl Default for Arena {
    fn default() -> Self {
        Arena::new()
    }
}

impl Arena {
    /// Creates an empty arena with the default message-buffer pool limit
    /// ([`POOL_LIMIT`]).
    pub fn new() -> Self {
        Arena::with_pool_limit(POOL_LIMIT)
    }

    /// Creates an empty arena that pools up to `pool_limit` message
    /// buffers. Event-driven shards park one payload per in-flight message,
    /// so they size the pool to their expected message backlog.
    pub fn with_pool_limit(pool_limit: usize) -> Self {
        Arena {
            rx_view: View::default(),
            scratch: MergeScratch::default(),
            pool: Vec::new(),
            pool_limit,
        }
    }

    /// The configured message-buffer pool limit.
    pub fn pool_limit(&self) -> usize {
        self.pool_limit
    }

    /// Number of message buffers currently pooled (diagnostic).
    pub fn pooled_buffers(&self) -> usize {
        self.pool.len()
    }

    /// Takes a recycled message buffer (empty, capacity retained), or a
    /// fresh one if the pool is dry. Drivers use this to build
    /// [`crate::Request`]/[`crate::Reply`] payloads outside a protocol
    /// node; node implementations use it for their outgoing buffers.
    pub fn take_buffer(&mut self) -> Vec<NodeDescriptor> {
        self.pool.pop().unwrap_or_default()
    }

    /// Parks a spent message buffer for reuse; drops it if the pool is
    /// full. The buffer is cleared here, so takers never see stale content.
    /// The inverse of [`Arena::take_buffer`].
    pub fn put_buffer(&mut self, mut buffer: Vec<NodeDescriptor>) {
        if self.pool.len() < self.pool_limit {
            buffer.clear();
            self.pool.push(buffer);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_recycles_up_to_limit() {
        let mut arena = Arena::new();
        assert_eq!(arena.pooled_buffers(), 0);
        for _ in 0..POOL_LIMIT + 3 {
            arena.put_buffer(Vec::with_capacity(4));
        }
        assert_eq!(arena.pooled_buffers(), POOL_LIMIT);
        let buf = arena.take_buffer();
        assert!(buf.is_empty());
        assert_eq!(buf.capacity(), 4);
        assert_eq!(arena.pooled_buffers(), POOL_LIMIT - 1);
    }

    #[test]
    fn pool_put_clears_content() {
        let mut arena = Arena::new();
        arena.put_buffer(vec![NodeDescriptor::fresh(crate::NodeId::new(7))]);
        let buf = arena.take_buffer();
        assert!(buf.is_empty(), "recycled buffers must never leak content");
    }

    #[test]
    fn take_on_a_dry_pool_allocates_fresh() {
        let mut arena = Arena::new();
        let buf = arena.take_buffer();
        assert!(buf.is_empty());
        assert_eq!(buf.capacity(), 0);
    }

    #[test]
    fn custom_pool_limit_is_honored() {
        let mut arena = Arena::with_pool_limit(2);
        assert_eq!(arena.pool_limit(), 2);
        for _ in 0..5 {
            arena.put_buffer(Vec::with_capacity(8));
        }
        assert_eq!(arena.pooled_buffers(), 2);
    }
}
