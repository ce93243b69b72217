//! The protocol state machine: the paper's Figure 1 skeleton.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::staging::Arena;
use crate::{
    Exchange, NodeDescriptor, NodeId, PeerSelection, ProtocolConfig, Reply, Request, View,
};

/// A gossip membership protocol participant, as seen by a driver.
///
/// Drivers (cycle simulator, event simulator, or a real transport) move
/// messages between nodes:
///
/// 1. periodically call [`GossipNode::initiate`] on a node; deliver the
///    produced [`Exchange::request`] to [`Exchange::peer`],
/// 2. on delivery call [`GossipNode::handle_request`] on the peer; if it
///    returns a reply, deliver it back,
/// 3. on delivery of the reply call [`GossipNode::handle_reply`] on the
///    initiator.
///
/// If the peer is unreachable the driver simply drops the messages: the
/// protocol has no failure detector and heals only through view selection,
/// exactly as in the paper.
///
/// Every protocol call borrows the driver's staging [`Arena`]: scratch
/// space and the recycled message-buffer pool are owned by whoever drives
/// the node (a simulation shard, a network runtime), not hidden in
/// thread-local state. Arena reuse never affects protocol output — buffer
/// contents are cleared before every use — so any arena works with any
/// node; passing the same one per shard keeps the hot path allocation-free.
pub trait GossipNode {
    /// This node's address.
    fn id(&self) -> NodeId;

    /// Read access to the current view (for observers building the overlay
    /// graph).
    fn view(&self) -> &View;

    /// (Re)initializes the view from bootstrap descriptors, the `init()`
    /// method of the service API.
    fn init(&mut self, seeds: &mut dyn Iterator<Item = NodeDescriptor>);

    /// Runs one step of the active thread: selects a peer and produces the
    /// request to send, or `None` if the view is empty.
    ///
    /// Equivalent to [`GossipNode::initiate_filtered`] with every peer
    /// eligible.
    fn initiate(&mut self, arena: &mut Arena) -> Option<Exchange> {
        self.initiate_filtered(arena, &mut |_| true)
    }

    /// Runs one step of the active thread, selecting a peer only among view
    /// entries for which `eligible` returns true.
    ///
    /// The paper specifies that `selectPeer()` "returns the address of a
    /// **live** node as found in the caller's current view": cycle drivers
    /// pass a liveness predicate here, modeling the timeout-and-retry a real
    /// deployment performs within one period. Returns `None` when no
    /// eligible entry exists. Side effects that happen once per cycle (view
    /// aging) still apply even when `None` is returned.
    fn initiate_filtered(
        &mut self,
        arena: &mut Arena,
        eligible: &mut dyn FnMut(NodeId) -> bool,
    ) -> Option<Exchange>;

    /// Runs the passive thread on an incoming request, returning the reply
    /// to send back if the request wants one.
    fn handle_request(
        &mut self,
        arena: &mut Arena,
        from: NodeId,
        request: Request,
    ) -> Option<Reply>;

    /// Completes an exchange on the active side with the received reply.
    fn handle_reply(&mut self, arena: &mut Arena, from: NodeId, reply: Reply);
}

/// Boxed nodes forward to the inner implementation, so heterogeneous
/// populations (`Box<dyn GossipNode + Send>`) and monomorphized ones share
/// every driver.
impl<T: GossipNode + ?Sized> GossipNode for Box<T> {
    fn id(&self) -> NodeId {
        (**self).id()
    }

    fn view(&self) -> &View {
        (**self).view()
    }

    fn init(&mut self, seeds: &mut dyn Iterator<Item = NodeDescriptor>) {
        (**self).init(seeds)
    }

    fn initiate_filtered(
        &mut self,
        arena: &mut Arena,
        eligible: &mut dyn FnMut(NodeId) -> bool,
    ) -> Option<Exchange> {
        (**self).initiate_filtered(arena, eligible)
    }

    fn handle_request(
        &mut self,
        arena: &mut Arena,
        from: NodeId,
        request: Request,
    ) -> Option<Reply> {
        (**self).handle_request(arena, from, request)
    }

    fn handle_reply(&mut self, arena: &mut Arena, from: NodeId, reply: Reply) {
        (**self).handle_reply(arena, from, reply)
    }
}

/// The generic gossip-based peer sampling node of the paper (Figure 1),
/// parameterized by a [`ProtocolConfig`].
///
/// Hop-count bookkeeping follows the skeleton exactly:
///
/// * the sender merges its own fresh descriptor `(self, 0)` into outgoing
///   content,
/// * every receiver increments the hop counts of all received descriptors
///   before merging,
/// * `merge` keeps the lowest hop count per node and never stores the
///   node's own descriptor,
/// * `selectView` truncates to `c` entries by the view selection policy.
///
/// # Examples
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone)]
pub struct PeerSamplingNode {
    id: NodeId,
    config: ProtocolConfig,
    view: View,
    rng: SmallRng,
}

impl PeerSamplingNode {
    /// Creates a node with a deterministic RNG seed. All stochastic choices
    /// (rand peer/view selection, `getPeer` sampling) derive from this seed.
    pub fn with_seed(id: NodeId, config: ProtocolConfig, seed: u64) -> Self {
        PeerSamplingNode {
            id,
            config,
            view: View::new(),
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Convenience [`GossipNode::init`] accepting any descriptor collection.
    pub fn init(&mut self, seeds: impl IntoIterator<Item = NodeDescriptor>) {
        GossipNode::init(self, &mut seeds.into_iter());
    }

    /// The node's static configuration.
    pub fn config(&self) -> &ProtocolConfig {
        &self.config
    }

    /// Selects the exchange partner among eligible view entries per the
    /// peer selection policy. `None` if no eligible entry exists.
    fn select_exchange_peer(&mut self, eligible: &mut dyn FnMut(NodeId) -> bool) -> Option<NodeId> {
        match self.config.policy().peer_selection {
            PeerSelection::Head => self.view.ids().find(|&id| eligible(id)),
            PeerSelection::Tail => {
                let mut last = None;
                for id in self.view.ids() {
                    if eligible(id) {
                        last = Some(id);
                    }
                }
                last
            }
            PeerSelection::Rand => self.view.sample_filtered(&mut self.rng, eligible),
        }
    }

    /// The content pushed to a peer: `merge(view, {(self, 0)})`.
    ///
    /// Built directly into a recycled message buffer (which the request or
    /// reply then owns): the view cannot contain the node's own descriptor,
    /// so the merge reduces to splicing `(self, 0)` in after any existing
    /// hop-0 entries (the view's entries keep tie precedence, exactly as in
    /// `merge(view, {myDescriptor})`).
    fn outgoing_descriptors(&self, arena: &mut Arena) -> Vec<NodeDescriptor> {
        let entries = self.view.descriptors();
        let at = entries.partition_point(|d| d.hop_count() == 0);
        let mut buffer = arena.take_buffer();
        buffer.reserve(entries.len() + 1);
        buffer.extend_from_slice(&entries[..at]);
        buffer.push(NodeDescriptor::fresh(self.id));
        buffer.extend_from_slice(&entries[at..]);
        buffer
    }

    /// Runs the receive side of an exchange on `descriptors`:
    /// `view ← selectView(merge(increaseHopCount(view_p), view))`, using the
    /// arena's staging buffers (no steady-state allocation).
    ///
    /// Under [`crate::Freshness::Timestamp`] the `increaseHopCount` step
    /// degenerates to the identity: ages are clock readings stamped by the
    /// descriptor's owner, and transit does not advance the clock.
    fn absorb(&mut self, arena: &mut Arena, descriptors: Vec<NodeDescriptor>) {
        let policy = self.config.policy().view_selection;
        let c = self.config.view_size();
        let transfer = self.config.freshness().transfer_age();
        // Fast path: protocol messages carry well-formed view content
        // (hop-sorted, one descriptor per node), absorbed straight off
        // the wire buffer. Malformed content (possible only through
        // hand-crafted requests) is rejected untouched and goes through
        // the general dedup path.
        arena.rx_buf.clear();
        arena
            .rx_buf
            .extend(descriptors.iter().map(|d| d.aged_by(transfer)));
        let absorbed = self.view.merge_select_from_slice(
            &arena.rx_buf,
            Some(self.id),
            policy,
            c,
            &mut self.rng,
            &mut arena.scratch,
        );
        if !absorbed {
            arena
                .rx_view
                .assign_aged(descriptors.iter().copied(), transfer, &mut arena.scratch);
            self.view.merge_select_from(
                &arena.rx_view,
                Some(self.id),
                policy,
                c,
                &mut self.rng,
                &mut arena.scratch,
            );
        }
        // Recycle the spent message buffer for future outgoing messages.
        arena.put_buffer(descriptors);
        debug_assert!(self.view.invariants_hold());
    }

    /// Uniform random peer from the view — the `getPeer()` implementation
    /// (see also the [`crate::PeerSampler`] trait).
    pub fn sample_peer(&mut self) -> Option<NodeId> {
        self.view.sample(&mut self.rng).map(|d| d.id())
    }

    /// Exposes the RNG for drivers needing auxiliary deterministic choices.
    pub fn rng(&mut self) -> &mut impl Rng {
        &mut self.rng
    }
}

impl GossipNode for PeerSamplingNode {
    fn id(&self) -> NodeId {
        self.id
    }

    fn view(&self) -> &View {
        &self.view
    }

    fn init(&mut self, seeds: &mut dyn Iterator<Item = NodeDescriptor>) {
        self.view = View::from_descriptors(seeds.filter(|d| d.id() != self.id));
        let vs = self.config.policy().view_selection;
        let c = self.config.view_size();
        self.view.select(vs, c, &mut self.rng);
    }

    fn initiate_filtered(
        &mut self,
        arena: &mut Arena,
        eligible: &mut dyn FnMut(NodeId) -> bool,
    ) -> Option<Exchange> {
        // Age the stored view once per cycle. The paper's pseudocode only
        // shows hop counts incremented on receipt, but its published
        // dynamics (e.g. exponential dead-link removal under head view
        // selection, Figure 7) require stored descriptors to age as well —
        // taken literally, never-aging entries freeze the topology under
        // head selection. The authors' follow-up formalization (TOCS 2007)
        // makes this explicit as `view.increaseAge()` once per cycle; we do
        // the same here, at the start of the active thread.
        self.view.increase_hop_counts();
        let peer = self.select_exchange_peer(eligible)?;
        let propagation = self.config.policy().propagation;
        let descriptors = if propagation.is_push() {
            self.outgoing_descriptors(arena)
        } else {
            Vec::new() // "empty view to trigger response"
        };
        Some(Exchange {
            peer,
            request: Request {
                descriptors,
                wants_reply: propagation.is_pull(),
            },
        })
    }

    fn handle_request(
        &mut self,
        arena: &mut Arena,
        _from: NodeId,
        request: Request,
    ) -> Option<Reply> {
        // Build the reply from the *pre-merge* view, as in the skeleton.
        let reply = request.wants_reply.then(|| Reply {
            descriptors: self.outgoing_descriptors(arena),
        });
        self.absorb(arena, request.descriptors);
        reply
    }

    fn handle_reply(&mut self, arena: &mut Arena, _from: NodeId, reply: Reply) {
        self.absorb(arena, reply.descriptors);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PolicyTriple, ViewPropagation, ViewSelection};

    fn config(policy: &str, c: usize) -> ProtocolConfig {
        ProtocolConfig::new(policy.parse().unwrap(), c).unwrap()
    }

    fn node(id: u64, policy: &str, c: usize) -> PeerSamplingNode {
        PeerSamplingNode::with_seed(NodeId::new(id), config(policy, c), id.wrapping_mul(7) + 1)
    }

    fn seeded(id: u64, policy: &str, c: usize, seeds: &[(u64, u32)]) -> PeerSamplingNode {
        let mut n = node(id, policy, c);
        n.init(
            seeds
                .iter()
                .map(|&(i, h)| NodeDescriptor::new(NodeId::new(i), h)),
        );
        n
    }

    #[test]
    fn init_drops_self_and_truncates() {
        let n = seeded(
            0,
            "(rand,head,pushpull)",
            2,
            &[(0, 0), (1, 1), (2, 2), (3, 3)],
        );
        assert!(!n.view().contains(NodeId::new(0)));
        assert_eq!(n.view().len(), 2);
        // Head selection keeps the freshest two.
        assert!(n.view().contains(NodeId::new(1)));
        assert!(n.view().contains(NodeId::new(2)));
    }

    #[test]
    fn initiate_with_empty_view_is_none() {
        let mut arena = Arena::new();
        let mut n = node(0, "(rand,head,pushpull)", 30);
        assert!(n.initiate(&mut arena).is_none());
    }

    #[test]
    fn push_request_carries_view_plus_self() {
        let mut arena = Arena::new();
        let mut n = seeded(0, "(rand,head,push)", 30, &[(1, 4), (2, 2)]);
        let ex = n.initiate(&mut arena).unwrap();
        assert!(!ex.request.wants_reply);
        assert_eq!(ex.request.len(), 3);
        let own = ex
            .request
            .descriptors
            .iter()
            .find(|d| d.id() == NodeId::new(0))
            .expect("own descriptor included");
        assert_eq!(own.hop_count(), 0);
    }

    #[test]
    fn pull_request_is_empty_and_wants_reply() {
        let mut arena = Arena::new();
        let mut n = seeded(0, "(rand,head,pull)", 30, &[(1, 4)]);
        let ex = n.initiate(&mut arena).unwrap();
        assert!(ex.request.is_empty());
        assert!(ex.request.wants_reply);
    }

    #[test]
    fn pushpull_request_carries_view_and_wants_reply() {
        let mut arena = Arena::new();
        let mut n = seeded(0, "(rand,head,pushpull)", 30, &[(1, 4)]);
        let ex = n.initiate(&mut arena).unwrap();
        assert_eq!(ex.request.len(), 2);
        assert!(ex.request.wants_reply);
    }

    #[test]
    fn head_peer_selection_picks_freshest() {
        let mut arena = Arena::new();
        let mut n = seeded(0, "(head,head,pushpull)", 30, &[(1, 4), (2, 1), (3, 9)]);
        let ex = n.initiate(&mut arena).unwrap();
        assert_eq!(ex.peer, NodeId::new(2));
    }

    #[test]
    fn tail_peer_selection_picks_stalest() {
        let mut arena = Arena::new();
        let mut n = seeded(0, "(tail,head,pushpull)", 30, &[(1, 4), (2, 1), (3, 9)]);
        let ex = n.initiate(&mut arena).unwrap();
        assert_eq!(ex.peer, NodeId::new(3));
    }

    #[test]
    fn rand_peer_selection_consults_filter_once_per_entry() {
        // `eligible` is a FnMut; stateful filters rely on one call per view
        // entry per initiation.
        let mut arena = Arena::new();
        let mut n = seeded(0, "(rand,head,pushpull)", 30, &[(1, 1), (2, 2), (3, 3)]);
        let mut calls = 0usize;
        let ex = n.initiate_filtered(&mut arena, &mut |_| {
            calls += 1;
            true
        });
        assert!(ex.is_some());
        assert_eq!(calls, 3, "filter must be consulted exactly once per entry");
    }

    #[test]
    fn rand_peer_selection_stays_in_view() {
        let mut arena = Arena::new();
        let mut n = seeded(0, "(rand,head,pushpull)", 30, &[(1, 1), (2, 2), (3, 3)]);
        for _ in 0..50 {
            let ex = n.initiate(&mut arena).unwrap();
            assert!(n.view().contains(ex.peer));
        }
    }

    #[test]
    fn handle_request_increments_hop_counts() {
        let mut arena = Arena::new();
        let mut receiver = seeded(1, "(rand,head,pushpull)", 30, &[(2, 5)]);
        let request = Request {
            descriptors: vec![NodeDescriptor::fresh(NodeId::new(0))],
            wants_reply: false,
        };
        receiver.handle_request(&mut arena, NodeId::new(0), request);
        // Received at hop 0, stored at hop 1.
        assert_eq!(receiver.view().hop_count_of(NodeId::new(0)), Some(1));
    }

    #[test]
    fn handle_request_reply_is_pre_merge_view() {
        let mut arena = Arena::new();
        let mut receiver = seeded(1, "(rand,head,pushpull)", 30, &[(2, 5)]);
        let request = Request {
            descriptors: vec![NodeDescriptor::fresh(NodeId::new(0))],
            wants_reply: true,
        };
        let reply = receiver
            .handle_request(&mut arena, NodeId::new(0), request)
            .unwrap();
        // Reply contains the old view (n2) plus self (n1), but NOT the just
        // received n0.
        let ids: Vec<NodeId> = reply.descriptors.iter().map(|d| d.id()).collect();
        assert!(ids.contains(&NodeId::new(1)));
        assert!(ids.contains(&NodeId::new(2)));
        assert!(!ids.contains(&NodeId::new(0)));
    }

    #[test]
    fn push_request_gets_no_reply() {
        let mut arena = Arena::new();
        let mut receiver = seeded(1, "(rand,head,push)", 30, &[(2, 5)]);
        let request = Request {
            descriptors: vec![NodeDescriptor::fresh(NodeId::new(0))],
            wants_reply: false,
        };
        assert!(receiver
            .handle_request(&mut arena, NodeId::new(0), request)
            .is_none());
    }

    #[test]
    fn handle_reply_merges_and_ages() {
        let mut arena = Arena::new();
        let mut n = seeded(0, "(rand,head,pushpull)", 30, &[(1, 3)]);
        n.handle_reply(
            &mut arena,
            NodeId::new(1),
            Reply {
                descriptors: vec![
                    NodeDescriptor::fresh(NodeId::new(1)),
                    NodeDescriptor::new(NodeId::new(2), 7),
                ],
            },
        );
        // Fresh n1@0 arrives as n1@1, beating the stored n1@3.
        assert_eq!(n.view().hop_count_of(NodeId::new(1)), Some(1));
        assert_eq!(n.view().hop_count_of(NodeId::new(2)), Some(8));
    }

    #[test]
    fn own_descriptor_never_enters_own_view() {
        let mut arena = Arena::new();
        let mut n = seeded(0, "(rand,head,pushpull)", 30, &[(1, 3)]);
        n.handle_reply(
            &mut arena,
            NodeId::new(1),
            Reply {
                descriptors: vec![NodeDescriptor::new(NodeId::new(0), 2)],
            },
        );
        assert!(!n.view().contains(NodeId::new(0)));
    }

    #[test]
    fn view_never_exceeds_capacity() {
        let mut arena = Arena::new();
        let mut n = seeded(0, "(rand,rand,pushpull)", 3, &[(1, 1), (2, 2), (3, 3)]);
        let reply = Reply {
            descriptors: (10..30)
                .map(|i| NodeDescriptor::new(NodeId::new(i), i as u32))
                .collect(),
        };
        n.handle_reply(&mut arena, NodeId::new(1), reply);
        assert_eq!(n.view().len(), 3);
        assert!(n.view().invariants_hold());
    }

    #[test]
    fn full_pushpull_exchange_symmetric_learning() {
        let mut arena = Arena::new();
        let cfg = config("(rand,head,pushpull)", 30);
        let mut a = PeerSamplingNode::with_seed(NodeId::new(0), cfg.clone(), 1);
        let mut b = PeerSamplingNode::with_seed(NodeId::new(1), cfg, 2);
        a.init([NodeDescriptor::fresh(NodeId::new(1))]);
        b.init([NodeDescriptor::fresh(NodeId::new(2))]);

        let ex = a.initiate(&mut arena).unwrap();
        assert_eq!(ex.peer, NodeId::new(1));
        let reply = b
            .handle_request(&mut arena, NodeId::new(0), ex.request)
            .unwrap();
        a.handle_reply(&mut arena, NodeId::new(1), reply);

        // b learned about a; a learned about node 2 via b.
        assert!(b.view().contains(NodeId::new(0)));
        assert!(a.view().contains(NodeId::new(2)));
    }

    #[test]
    fn deterministic_under_same_seed() {
        let make = || {
            let mut arena = Arena::new();
            let mut n = seeded(
                0,
                "(rand,rand,pushpull)",
                5,
                &[(1, 1), (2, 2), (3, 3), (4, 4)],
            );
            let mut trace = Vec::new();
            for _ in 0..10 {
                let ex = n.initiate(&mut arena).unwrap();
                trace.push(ex.peer);
                n.handle_reply(
                    &mut arena,
                    ex.peer,
                    Reply {
                        descriptors: vec![NodeDescriptor::fresh(ex.peer)],
                    },
                );
            }
            trace
        };
        assert_eq!(make(), make());
    }

    #[test]
    fn any_arena_yields_identical_protocol_output() {
        // The arena is pure scratch: a fresh arena per call and one shared
        // arena must produce bit-identical exchanges and views.
        let run = |fresh_arena_per_call: bool| {
            let mut shared = Arena::new();
            let mut n = seeded(
                0,
                "(rand,rand,pushpull)",
                5,
                &[(1, 1), (2, 2), (3, 3), (4, 4)],
            );
            let mut trace = Vec::new();
            for i in 0..12 {
                let mut fresh = Arena::new();
                let arena = if fresh_arena_per_call {
                    &mut fresh
                } else {
                    &mut shared
                };
                let ex = n.initiate(arena).unwrap();
                trace.push((ex.peer, ex.request.descriptors.clone()));
                n.handle_reply(
                    arena,
                    ex.peer,
                    Reply {
                        descriptors: vec![NodeDescriptor::new(ex.peer, i as u32 % 3)],
                    },
                );
            }
            (trace, n.view().descriptors().to_vec())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn sample_peer_returns_view_member() {
        let mut n = seeded(0, "(rand,head,pushpull)", 30, &[(1, 1), (2, 2)]);
        for _ in 0..20 {
            let p = n.sample_peer().unwrap();
            assert!(n.view().contains(p));
        }
        let mut empty = node(5, "(rand,head,pushpull)", 30);
        assert!(empty.sample_peer().is_none());
    }

    /// The marooning fix is load-bearing: under [`Freshness::Timestamp`]
    /// the transit step (`increaseHopCount` on receive) is the identity, so
    /// a descriptor's age is its owner's clock reading no matter how many
    /// hops it travelled. Under [`Freshness::HopCount`] every receive adds
    /// one — circulating entries inflate, which is what evicts long-haul
    /// (cross-partition) entries early and maroons healed overlays.
    #[test]
    fn timestamp_transfer_does_not_add_age() {
        use crate::Freshness;
        let mut arena = Arena::new();
        for (freshness, expected) in [(Freshness::HopCount, 5), (Freshness::Timestamp, 4)] {
            let config = ProtocolConfig::new("(rand,head,pushpull)".parse().unwrap(), 8)
                .unwrap()
                .with_freshness(freshness);
            let mut n = PeerSamplingNode::with_seed(NodeId::new(0), config, 1);
            n.init([NodeDescriptor::new(NodeId::new(1), 0)]);
            let request = Request {
                descriptors: vec![NodeDescriptor::new(NodeId::new(9), 4)],
                wants_reply: false,
            };
            n.handle_request(&mut arena, NodeId::new(9), request);
            let received = n
                .view()
                .iter()
                .find(|d| d.id() == NodeId::new(9))
                .expect("absorbed");
            assert_eq!(
                received.hop_count(),
                expected,
                "{freshness:?}: transfer age must be {}",
                expected - 4
            );
        }
    }

    #[test]
    fn config_accessor() {
        let n = node(0, "(rand,head,push)", 7);
        assert_eq!(n.config().view_size(), 7);
        assert_eq!(n.config().policy().propagation, ViewPropagation::Push);
        assert_eq!(n.config().policy().view_selection, ViewSelection::Head);
        assert_eq!(
            n.config().policy(),
            PolicyTriple::new(
                crate::PeerSelection::Rand,
                ViewSelection::Head,
                ViewPropagation::Push,
            )
        );
    }
}
