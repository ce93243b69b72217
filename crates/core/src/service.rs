//! The peer sampling service API (paper, Section 2).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::{GossipNode, NodeDescriptor, NodeId, PeerSamplingNode};

/// The peer sampling service: the paper's two-method API.
///
/// * `init` — "Initializes the service on a given node if this has not been
///   done before."
/// * `get_peer` — "Returns a peer address if the group contains more than
///   one node. The returned address is a sample drawn from the group."
///
/// Applications needing several peers call `get_peer` repeatedly. The
/// statistical quality of the sample is implementation-dependent — measuring
/// it for gossip-based implementations is the subject of the paper.
pub trait PeerSampler {
    /// Initializes the service with bootstrap contacts (idempotent use is
    /// the caller's choice; re-initialization resets the state).
    fn init(&mut self, seeds: &mut dyn Iterator<Item = NodeDescriptor>);

    /// Draws one peer from the group, or `None` if no peer is known.
    fn get_peer(&mut self) -> Option<NodeId>;
}

impl PeerSampler for PeerSamplingNode {
    fn init(&mut self, seeds: &mut dyn Iterator<Item = NodeDescriptor>) {
        GossipNode::init(self, seeds);
    }

    fn get_peer(&mut self) -> Option<NodeId> {
        self.sample_peer()
    }
}

/// The ideal peer sampling service: independent uniform random samples over
/// full group membership.
///
/// This is the baseline "which all the theoretical work implicitly assumes"
/// and against which the gossip implementations are compared. It requires
/// global knowledge (a full membership list), which is exactly what makes it
/// unscalable in practice — but in simulation it is the gold standard.
///
/// # Examples
///
/// ```
/// use pss_core::{NodeId, OracleSampler, PeerSampler};
///
/// let mut oracle = OracleSampler::new(NodeId::new(0), 42);
/// oracle.set_members((0..10).map(NodeId::new));
/// let peer = oracle.get_peer().expect("nine candidates");
/// assert_ne!(peer, NodeId::new(0));
/// ```
#[derive(Debug, Clone)]
pub struct OracleSampler {
    own_id: NodeId,
    members: Vec<NodeId>,
    rng: SmallRng,
}

impl OracleSampler {
    /// Creates an oracle for the node `own_id` with a deterministic seed.
    pub fn new(own_id: NodeId, seed: u64) -> Self {
        OracleSampler {
            own_id,
            members: Vec::new(),
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Replaces the full membership list. The owner may be included; it is
    /// never returned by [`PeerSampler::get_peer`].
    pub fn set_members(&mut self, members: impl IntoIterator<Item = NodeId>) {
        self.members = members.into_iter().filter(|&m| m != self.own_id).collect();
    }

    /// Number of known peers (excluding self).
    pub fn member_count(&self) -> usize {
        self.members.len()
    }
}

impl PeerSampler for OracleSampler {
    fn init(&mut self, seeds: &mut dyn Iterator<Item = NodeDescriptor>) {
        self.members = seeds
            .map(|d| d.id())
            .filter(|&m| m != self.own_id)
            .collect();
        self.members.sort_unstable();
        self.members.dedup();
    }

    fn get_peer(&mut self) -> Option<NodeId> {
        if self.members.is_empty() {
            None
        } else {
            Some(self.members[self.rng.random_range(0..self.members.len())])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PolicyTriple, ProtocolConfig};
    use std::collections::HashMap;

    #[test]
    fn oracle_never_returns_self() {
        let mut o = OracleSampler::new(NodeId::new(3), 1);
        o.set_members((0..5).map(NodeId::new));
        assert_eq!(o.member_count(), 4);
        for _ in 0..100 {
            assert_ne!(o.get_peer().unwrap(), NodeId::new(3));
        }
    }

    #[test]
    fn oracle_empty_returns_none() {
        let mut o = OracleSampler::new(NodeId::new(0), 1);
        assert!(o.get_peer().is_none());
        o.set_members([NodeId::new(0)]); // only self
        assert!(o.get_peer().is_none());
    }

    #[test]
    fn oracle_is_approximately_uniform() {
        let mut o = OracleSampler::new(NodeId::new(100), 7);
        o.set_members((0..10).map(NodeId::new));
        let mut counts: HashMap<NodeId, u32> = HashMap::new();
        let draws = 10_000;
        for _ in 0..draws {
            *counts.entry(o.get_peer().unwrap()).or_default() += 1;
        }
        assert_eq!(counts.len(), 10);
        let expected = draws as f64 / 10.0;
        for (&id, &count) in &counts {
            let dev = (count as f64 - expected).abs() / expected;
            assert!(dev < 0.15, "{id} drawn {count} times, expected ~{expected}");
        }
    }

    #[test]
    fn oracle_init_via_trait() {
        let mut o = OracleSampler::new(NodeId::new(0), 1);
        PeerSampler::init(
            &mut o,
            &mut [1u64, 2, 2, 0]
                .into_iter()
                .map(|i| NodeDescriptor::fresh(NodeId::new(i))),
        );
        assert_eq!(o.member_count(), 2);
    }

    #[test]
    fn gossip_node_implements_sampler() {
        let config = ProtocolConfig::paper(PolicyTriple::newscast());
        let mut n = PeerSamplingNode::with_seed(NodeId::new(0), config, 5);
        assert!(n.get_peer().is_none());
        PeerSampler::init(
            &mut n,
            &mut [1u64, 2]
                .into_iter()
                .map(|i| NodeDescriptor::fresh(NodeId::new(i))),
        );
        let p = n.get_peer().unwrap();
        assert!(p == NodeId::new(1) || p == NodeId::new(2));
    }

    #[test]
    fn samplers_are_object_safe() {
        let config = ProtocolConfig::paper(PolicyTriple::newscast());
        let mut samplers: Vec<Box<dyn PeerSampler>> = vec![
            Box::new(OracleSampler::new(NodeId::new(0), 1)),
            Box::new(PeerSamplingNode::with_seed(NodeId::new(0), config, 2)),
        ];
        for s in &mut samplers {
            s.init(&mut [NodeDescriptor::fresh(NodeId::new(9))].into_iter());
            assert_eq!(s.get_peer(), Some(NodeId::new(9)));
        }
    }
}
