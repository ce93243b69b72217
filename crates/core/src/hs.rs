//! **Extension:** the healer/swapper (H, S) protocol generalization.
//!
//! The Middleware 2004 paper concludes that "in many cases, combining
//! different settings will be necessary". The authors' follow-up work
//! (*Gossip-based Peer Sampling*, ACM TOCS 2007) did exactly that with two
//! integer parameters applied during view selection:
//!
//! * **H (healer)** — after merging, remove up to `H` of the *oldest*
//!   descriptors (but never shrink below `c`). Large `H` removes dead links
//!   aggressively, like `head` view selection.
//! * **S (swapper)** — then remove up to `S` of the descriptors that were
//!   *just sent* to the exchange partner (a swap: what you gave away you
//!   drop). Large `S` minimizes duplication of descriptors, like a shuffle
//!   (Cyclon-style).
//! * Any remaining surplus is removed at random.
//!
//! Unlike the 2004 skeleton, the exchanged buffer is not the whole view but
//! the node's own fresh descriptor plus a random half-view sample biased
//! away from the `H` oldest entries, and descriptor ages count *cycles*
//! (incremented once per own cycle) rather than network hops.
//!
//! [`HsNode`] implements [`GossipNode`], so it runs under the same simulator
//! drivers as the 2004 protocols. This module is an opt-in extension: none
//! of the paper-reproduction experiments route through it.

use core::fmt;

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::staging::Arena;
use crate::{Exchange, GossipNode, NodeDescriptor, NodeId, Reply, Request, View};

/// Peer selection for the H&S protocol: TOCS 2007 considers uniform random
/// and oldest-entry selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HsPeerSelection {
    /// Uniform random view entry.
    Rand,
    /// The entry with the highest age (the paper's `tail`).
    Oldest,
}

/// Error returned for invalid H&S parameter combinations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HsConfigError {
    /// `view_size` must be at least 2 (the exchange sends half a view).
    ViewSizeTooSmall,
    /// `healer + swapper` must not exceed `view_size / 2`.
    ParametersExceedHalfView,
}

impl fmt::Display for HsConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HsConfigError::ViewSizeTooSmall => write!(f, "view size must be at least 2"),
            HsConfigError::ParametersExceedHalfView => {
                write!(f, "healer + swapper must not exceed half the view size")
            }
        }
    }
}

impl std::error::Error for HsConfigError {}

/// Parameters of the H&S generalization.
///
/// # Examples
///
/// ```
/// use pss_core::hs::{HsConfig, HsPeerSelection};
///
/// // The TOCS'07 "healer" corner: H = c/2, S = 0.
/// let config = HsConfig::new(30, 15, 0, HsPeerSelection::Rand)?;
/// assert_eq!(config.healer(), 15);
/// # Ok::<(), pss_core::hs::HsConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HsConfig {
    view_size: usize,
    healer: usize,
    swapper: usize,
    peer_selection: HsPeerSelection,
}

impl HsConfig {
    /// Creates a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`HsConfigError::ViewSizeTooSmall`] if `view_size < 2`, and
    /// [`HsConfigError::ParametersExceedHalfView`] if
    /// `healer + swapper > view_size / 2` (the TOCS 2007 constraint).
    pub fn new(
        view_size: usize,
        healer: usize,
        swapper: usize,
        peer_selection: HsPeerSelection,
    ) -> Result<Self, HsConfigError> {
        if view_size < 2 {
            return Err(HsConfigError::ViewSizeTooSmall);
        }
        if healer + swapper > view_size / 2 {
            return Err(HsConfigError::ParametersExceedHalfView);
        }
        Ok(HsConfig {
            view_size,
            healer,
            swapper,
            peer_selection,
        })
    }

    /// The maximal view size `c`.
    pub fn view_size(&self) -> usize {
        self.view_size
    }

    /// The healer parameter `H`.
    pub fn healer(&self) -> usize {
        self.healer
    }

    /// The swapper parameter `S`.
    pub fn swapper(&self) -> usize {
        self.swapper
    }

    /// The peer selection policy.
    pub fn peer_selection(&self) -> HsPeerSelection {
        self.peer_selection
    }

    /// Number of view descriptors shipped per message: `c/2 − 1` plus the
    /// sender's own fresh descriptor.
    pub fn buffer_size(&self) -> usize {
        self.view_size / 2
    }
}

/// A node running the H&S-generalized push-pull membership protocol.
#[derive(Debug, Clone)]
pub struct HsNode {
    id: NodeId,
    config: HsConfig,
    view: View,
    /// Ids sent to the partner in the exchange currently in flight; the
    /// swapper removes up to `S` of them on merge.
    sent: Vec<NodeId>,
    rng: SmallRng,
}

impl HsNode {
    /// Creates a node with a deterministic RNG seed.
    pub fn with_seed(id: NodeId, config: HsConfig, seed: u64) -> Self {
        HsNode {
            id,
            config,
            view: View::new(),
            sent: Vec::new(),
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Convenience [`GossipNode::init`] accepting any descriptor collection.
    pub fn init(&mut self, seeds: impl IntoIterator<Item = NodeDescriptor>) {
        GossipNode::init(self, &mut seeds.into_iter());
    }

    /// The node's configuration.
    pub fn config(&self) -> &HsConfig {
        &self.config
    }

    /// Builds the outgoing buffer: own fresh descriptor plus up to
    /// `c/2 − 1` random view entries, preferring entries that are not among
    /// the `H` oldest. Records what was sent for the swapper step.
    fn build_buffer(&mut self, arena: &mut Arena) -> Vec<NodeDescriptor> {
        let want = self.config.buffer_size().saturating_sub(1);
        let len = self.view.len();
        // The H oldest entries sit at the tail of the age-ordered view.
        let old_start = len.saturating_sub(self.config.healer);
        let mut young: Vec<NodeDescriptor> = self.view.descriptors()[..old_start].to_vec();
        young.shuffle(&mut self.rng);
        let mut chosen: Vec<NodeDescriptor> = young.into_iter().take(want).collect();
        if chosen.len() < want {
            // Not enough young entries: fill from the old ones.
            let mut old: Vec<NodeDescriptor> = self.view.descriptors()[old_start..].to_vec();
            old.shuffle(&mut self.rng);
            chosen.extend(old.into_iter().take(want - chosen.len()));
        }
        self.sent = chosen.iter().map(|d| d.id()).collect();
        let mut buffer = arena.take_buffer();
        buffer.reserve(chosen.len() + 1);
        buffer.push(NodeDescriptor::fresh(self.id));
        buffer.extend(chosen);
        buffer
    }

    /// The TOCS 2007 `view.select(c, H, S, buffer)` step.
    fn select(&mut self, arena: &mut Arena, received: Vec<NodeDescriptor>) {
        arena
            .rx_view
            .assign_aged(received.iter().copied(), 1, &mut arena.scratch);
        self.view
            .merge_from(&arena.rx_view, Some(self.id), &mut arena.scratch);
        // Recycle the spent wire buffer for future outgoing messages.
        arena.put_buffer(received);
        let merged = &mut self.view;
        let c = self.config.view_size();

        // Healer: drop min(H, surplus) oldest entries.
        let surplus = merged.len().saturating_sub(c);
        let heal = self.config.healer.min(surplus);
        for _ in 0..heal {
            let oldest = merged
                .tail()
                .map(|d| d.id())
                .expect("nonempty under surplus");
            merged.remove(oldest);
        }

        // Swapper: drop min(S, surplus) of the items just sent.
        let surplus = merged.len().saturating_sub(c);
        let mut swaps = self.config.swapper.min(surplus);
        let sent = std::mem::take(&mut self.sent);
        for id in sent {
            if swaps == 0 {
                break;
            }
            if merged.remove(id).is_some() {
                swaps -= 1;
            }
        }

        // Random removals for any remaining surplus.
        while merged.len() > c {
            let idx = self.rng.random_range(0..merged.len());
            let id = merged.descriptors()[idx].id();
            merged.remove(id);
        }
        debug_assert!(self.view.invariants_hold());
    }
}

impl GossipNode for HsNode {
    fn id(&self) -> NodeId {
        self.id
    }

    fn view(&self) -> &View {
        &self.view
    }

    fn init(&mut self, seeds: &mut dyn Iterator<Item = NodeDescriptor>) {
        self.view = View::from_descriptors(seeds.filter(|d| d.id() != self.id));
        let c = self.config.view_size();
        while self.view.len() > c {
            let idx = self.rng.random_range(0..self.view.len());
            let id = self.view.descriptors()[idx].id();
            self.view.remove(id);
        }
    }

    fn initiate_filtered(
        &mut self,
        arena: &mut Arena,
        eligible: &mut dyn FnMut(NodeId) -> bool,
    ) -> Option<Exchange> {
        // Ages advance once per own cycle, whether or not the exchange
        // succeeds — they count cycles, not hops, in the H&S protocol.
        self.view.increase_hop_counts();
        let peer = match self.config.peer_selection {
            HsPeerSelection::Rand => self.view.sample_filtered(&mut self.rng, eligible),
            HsPeerSelection::Oldest => {
                let mut last = None;
                for id in self.view.ids() {
                    if eligible(id) {
                        last = Some(id);
                    }
                }
                last
            }
        }?;
        let descriptors = self.build_buffer(arena);
        Some(Exchange {
            peer,
            request: Request {
                descriptors,
                wants_reply: true,
            },
        })
    }

    fn handle_request(
        &mut self,
        arena: &mut Arena,
        _from: NodeId,
        request: Request,
    ) -> Option<Reply> {
        let reply = Reply {
            descriptors: self.build_buffer(arena),
        };
        self.select(arena, request.descriptors);
        Some(reply)
    }

    fn handle_reply(&mut self, arena: &mut Arena, _from: NodeId, reply: Reply) {
        self.select(arena, reply.descriptors);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(c: usize, h: usize, s: usize) -> HsConfig {
        HsConfig::new(c, h, s, HsPeerSelection::Rand).unwrap()
    }

    fn seeded(id: u64, cfg: HsConfig, peers: &[(u64, u32)]) -> HsNode {
        let mut n = HsNode::with_seed(NodeId::new(id), cfg, id * 31 + 5);
        n.init(
            peers
                .iter()
                .map(|&(i, h)| NodeDescriptor::new(NodeId::new(i), h)),
        );
        n
    }

    #[test]
    fn config_validation() {
        assert_eq!(
            HsConfig::new(1, 0, 0, HsPeerSelection::Rand),
            Err(HsConfigError::ViewSizeTooSmall)
        );
        assert_eq!(
            HsConfig::new(10, 4, 2, HsPeerSelection::Rand),
            Err(HsConfigError::ParametersExceedHalfView)
        );
        assert!(HsConfig::new(10, 3, 2, HsPeerSelection::Rand).is_ok());
        assert!(HsConfigError::ViewSizeTooSmall
            .to_string()
            .contains("at least 2"));
        assert!(HsConfigError::ParametersExceedHalfView
            .to_string()
            .contains("half"));
    }

    #[test]
    fn config_accessors() {
        let c = HsConfig::new(30, 8, 4, HsPeerSelection::Oldest).unwrap();
        assert_eq!(c.view_size(), 30);
        assert_eq!(c.healer(), 8);
        assert_eq!(c.swapper(), 4);
        assert_eq!(c.peer_selection(), HsPeerSelection::Oldest);
        assert_eq!(c.buffer_size(), 15);
    }

    #[test]
    fn buffer_has_own_fresh_descriptor_first() {
        let mut arena = Arena::new();
        let mut n = seeded(0, config(10, 1, 1), &[(1, 1), (2, 2), (3, 3)]);
        let ex = n.initiate(&mut arena).unwrap();
        assert_eq!(
            ex.request.descriptors[0],
            NodeDescriptor::fresh(NodeId::new(0))
        );
        assert!(ex.request.wants_reply);
        // c/2 = 5 total max: self + up to 4 entries, but view has only 3.
        assert!(ex.request.len() <= 5);
    }

    #[test]
    fn initiate_ages_view() {
        let mut arena = Arena::new();
        let mut n = seeded(0, config(10, 1, 1), &[(1, 1)]);
        let _ = n.initiate(&mut arena).unwrap();
        assert_eq!(n.view().hop_count_of(NodeId::new(1)), Some(2));
    }

    #[test]
    fn initiate_on_empty_view_is_none() {
        let mut arena = Arena::new();
        let mut n = HsNode::with_seed(NodeId::new(0), config(10, 1, 1), 3);
        assert!(n.initiate(&mut arena).is_none());
    }

    #[test]
    fn oldest_peer_selection() {
        let mut arena = Arena::new();
        let cfg = HsConfig::new(10, 1, 1, HsPeerSelection::Oldest).unwrap();
        let mut n = seeded(0, cfg, &[(1, 5), (2, 9), (3, 1)]);
        let ex = n.initiate(&mut arena).unwrap();
        assert_eq!(ex.peer, NodeId::new(2));
    }

    #[test]
    fn exchange_keeps_views_within_capacity() {
        let mut arena = Arena::new();
        let cfg = config(6, 1, 1);
        let mut a = seeded(0, cfg, &[(1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6)]);
        let mut b = seeded(1, cfg, &[(0, 1), (7, 2), (8, 3), (9, 4), (10, 5), (11, 6)]);
        let ex = a.initiate(&mut arena).unwrap();
        let reply = b.handle_request(&mut arena, a.id(), ex.request).unwrap();
        a.handle_reply(&mut arena, b.id(), reply);
        assert!(a.view().len() <= 6);
        assert!(b.view().len() <= 6);
        assert!(a.view().invariants_hold());
        assert!(b.view().invariants_hold());
    }

    #[test]
    fn healer_removes_oldest_on_surplus() {
        let mut arena = Arena::new();
        // View at capacity with one ancient entry; merging new content must
        // push the ancient entry out when H >= 1.
        let cfg = config(4, 2, 0);
        let mut n = seeded(0, cfg, &[(1, 100), (2, 1), (3, 1), (4, 1)]);
        n.handle_reply(
            &mut arena,
            NodeId::new(2),
            Reply {
                descriptors: vec![
                    NodeDescriptor::fresh(NodeId::new(5)),
                    NodeDescriptor::fresh(NodeId::new(6)),
                ],
            },
        );
        assert!(n.view().len() <= 4);
        assert!(
            !n.view().contains(NodeId::new(1)),
            "ancient entry should be healed away: {}",
            n.view()
        );
    }

    #[test]
    fn swapper_removes_sent_entries_on_surplus() {
        let mut arena = Arena::new();
        let cfg = config(4, 0, 2);
        let mut n = seeded(0, cfg, &[(1, 1), (2, 2), (3, 3), (4, 4)]);
        let ex = n.initiate(&mut arena).unwrap();
        let sent_ids: Vec<NodeId> = ex.request.descriptors[1..].iter().map(|d| d.id()).collect();
        n.handle_reply(
            &mut arena,
            ex.peer,
            Reply {
                descriptors: vec![
                    NodeDescriptor::fresh(NodeId::new(7)),
                    NodeDescriptor::fresh(NodeId::new(8)),
                ],
            },
        );
        assert!(n.view().len() <= 4);
        // At least one sent id must be gone (surplus was 2, S = 2).
        let still_there = sent_ids.iter().filter(|&&id| n.view().contains(id)).count();
        assert!(
            still_there < sent_ids.len(),
            "swapper should drop sent entries: sent={sent_ids:?} view={}",
            n.view()
        );
    }

    #[test]
    fn own_descriptor_never_stored() {
        let mut arena = Arena::new();
        let mut n = seeded(0, config(10, 1, 1), &[(1, 1)]);
        n.handle_reply(
            &mut arena,
            NodeId::new(1),
            Reply {
                descriptors: vec![NodeDescriptor::new(NodeId::new(0), 3)],
            },
        );
        assert!(!n.view().contains(NodeId::new(0)));
    }

    #[test]
    fn init_truncates_to_capacity() {
        let n = seeded(
            0,
            config(4, 1, 1),
            &[(1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6)],
        );
        assert_eq!(n.view().len(), 4);
    }

    #[test]
    fn request_reply_cycle_spreads_fresh_descriptors() {
        let mut arena = Arena::new();
        let cfg = config(10, 2, 2);
        let mut a = seeded(0, cfg, &[(1, 3)]);
        let mut b = seeded(1, cfg, &[(2, 3)]);
        let ex = a.initiate(&mut arena).unwrap();
        assert_eq!(ex.peer, NodeId::new(1));
        let reply = b.handle_request(&mut arena, a.id(), ex.request).unwrap();
        a.handle_reply(&mut arena, b.id(), reply);
        // b learned a (fresh), a learned b and/or node 2.
        assert!(b.view().contains(NodeId::new(0)));
        assert!(a.view().contains(NodeId::new(1)) || a.view().contains(NodeId::new(2)));
    }
}
