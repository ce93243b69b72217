//! Node descriptors: an address plus a freshness hop count.

use core::fmt;

use crate::NodeId;

/// An entry of a partial view: a node address plus a **hop count**.
///
/// The hop count (called *age* in later literature) starts at 0 when a node
/// inserts its own descriptor into an outgoing message and is incremented by
/// every node that receives it, so it roughly measures how many exchanges the
/// descriptor has traversed since its owner was last heard from directly.
/// Views are ordered by increasing hop count: the *head* of a view is its
/// freshest information, the *tail* its stalest.
///
/// In-process the [`NodeId`] doubles as the node's address. On a real
/// transport a descriptor additionally carries the node's network address —
/// the wire form is `(id, age, address)`, see [`crate::wire`] — which
/// runtimes strip into an id → address book on receipt, so the in-memory
/// view entry stays this compact two-word `Copy` type.
///
/// # Examples
///
/// ```
/// use pss_core::{NodeDescriptor, NodeId};
///
/// let d = NodeDescriptor::fresh(NodeId::new(3));
/// assert_eq!(d.hop_count(), 0);
/// let older = d.aged();
/// assert_eq!(older.hop_count(), 1);
/// assert_eq!(older.id(), d.id());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeDescriptor {
    id: NodeId,
    hop_count: u32,
}

impl NodeDescriptor {
    /// Creates a descriptor with an explicit hop count.
    pub const fn new(id: NodeId, hop_count: u32) -> Self {
        NodeDescriptor { id, hop_count }
    }

    /// Creates a fresh descriptor (hop count 0), as a node does for itself
    /// when sending: "myDescriptor ← (myAddress, 0)".
    pub const fn fresh(id: NodeId) -> Self {
        NodeDescriptor { id, hop_count: 0 }
    }

    /// The node this descriptor points to.
    pub const fn id(self) -> NodeId {
        self.id
    }

    /// The freshness hop count.
    pub const fn hop_count(self) -> u32 {
        self.hop_count
    }

    /// A copy with the hop count incremented (saturating), as applied by
    /// `increaseHopCount` to every received descriptor.
    #[must_use]
    pub const fn aged(self) -> Self {
        NodeDescriptor {
            id: self.id,
            hop_count: self.hop_count.saturating_add(1),
        }
    }

    /// A copy with the age increased by `hops` (saturating): the bulk form
    /// of [`NodeDescriptor::aged`]. `aged_by(0)` is the identity — used by
    /// the timestamp freshness mode, where transfers carry the age through
    /// unchanged ([`crate::Freshness::transfer_age`]).
    #[must_use]
    pub const fn aged_by(self, hops: u32) -> Self {
        NodeDescriptor {
            id: self.id,
            hop_count: self.hop_count.saturating_add(hops),
        }
    }

    /// True if this descriptor is fresher (strictly lower hop count) than
    /// `other`. Only meaningful for descriptors of the same node.
    pub const fn is_fresher_than(self, other: NodeDescriptor) -> bool {
        self.hop_count < other.hop_count
    }
}

impl fmt::Display for NodeDescriptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.id, self.hop_count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_has_zero_hops() {
        let d = NodeDescriptor::fresh(NodeId::new(1));
        assert_eq!(d.hop_count(), 0);
        assert_eq!(d.id(), NodeId::new(1));
    }

    #[test]
    fn aged_increments() {
        let d = NodeDescriptor::new(NodeId::new(2), 5);
        assert_eq!(d.aged().hop_count(), 6);
        assert_eq!(d.aged().id(), NodeId::new(2));
    }

    #[test]
    fn aged_saturates_at_max() {
        let d = NodeDescriptor::new(NodeId::new(2), u32::MAX);
        assert_eq!(d.aged().hop_count(), u32::MAX);
    }

    #[test]
    fn freshness_comparison() {
        let a = NodeDescriptor::new(NodeId::new(1), 2);
        let b = NodeDescriptor::new(NodeId::new(1), 3);
        assert!(a.is_fresher_than(b));
        assert!(!b.is_fresher_than(a));
        assert!(!a.is_fresher_than(a));
    }

    #[test]
    fn display_shows_id_and_hops() {
        let d = NodeDescriptor::new(NodeId::new(4), 7);
        assert_eq!(d.to_string(), "n4@7");
    }
}
