//! Property-based tests for view algebra and the protocol state machine.

use proptest::prelude::*;
use pss_core::{
    Arena, GossipNode, NodeDescriptor, NodeId, PeerSamplingNode, PolicyTriple, ProtocolConfig,
    Reply, View, ViewSelection,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn descriptor_strategy() -> impl Strategy<Value = NodeDescriptor> {
    (0u64..50, 0u32..100).prop_map(|(id, hops)| NodeDescriptor::new(NodeId::new(id), hops))
}

fn descriptors(max: usize) -> impl Strategy<Value = Vec<NodeDescriptor>> {
    prop::collection::vec(descriptor_strategy(), 0..max)
}

fn policies() -> impl Strategy<Value = PolicyTriple> {
    prop::sample::select(PolicyTriple::all())
}

proptest! {
    #[test]
    fn view_construction_holds_invariants(ds in descriptors(60)) {
        let v = View::from_descriptors(ds.clone());
        prop_assert!(v.invariants_hold());
        // Every distinct id appears exactly once with its minimal hop count.
        for d in &ds {
            let min = ds
                .iter()
                .filter(|x| x.id() == d.id())
                .map(|x| x.hop_count())
                .min()
                .unwrap();
            prop_assert_eq!(v.hop_count_of(d.id()), Some(min));
        }
    }

    #[test]
    fn merge_is_commutative_as_a_set(a in descriptors(40), b in descriptors(40)) {
        let va = View::from_descriptors(a);
        let vb = View::from_descriptors(b);
        let ab = va.merge(&vb, None);
        let ba = vb.merge(&va, None);
        // Tie order depends on argument order (stable list semantics), but
        // the *content* — (id, hop count) pairs — must be identical.
        let as_set = |v: &View| {
            let mut pairs: Vec<(u64, u32)> =
                v.iter().map(|d| (d.id().as_u64(), d.hop_count())).collect();
            pairs.sort_unstable();
            pairs
        };
        prop_assert_eq!(as_set(&ab), as_set(&ba));
    }

    #[test]
    fn merge_is_idempotent(a in descriptors(40)) {
        let v = View::from_descriptors(a);
        prop_assert_eq!(v.merge(&v, None), v.clone());
    }

    #[test]
    fn merge_keeps_minimum_hop_count(a in descriptors(40), b in descriptors(40)) {
        let va = View::from_descriptors(a.clone());
        let vb = View::from_descriptors(b.clone());
        let m = va.merge(&vb, None);
        prop_assert!(m.invariants_hold());
        for d in a.iter().chain(b.iter()) {
            let min = a
                .iter()
                .chain(b.iter())
                .filter(|x| x.id() == d.id())
                .map(|x| x.hop_count())
                .min()
                .unwrap();
            prop_assert_eq!(m.hop_count_of(d.id()), Some(min));
        }
    }

    #[test]
    fn merge_exclusion_removes_id(a in descriptors(40), b in descriptors(40), excluded in 0u64..50) {
        let va = View::from_descriptors(a);
        let vb = View::from_descriptors(b);
        let m = va.merge(&vb, Some(NodeId::new(excluded)));
        prop_assert!(!m.contains(NodeId::new(excluded)));
    }

    #[test]
    fn select_truncates_to_capacity(ds in descriptors(80), c in 1usize..40, seed in 0u64..100) {
        for policy in [ViewSelection::Head, ViewSelection::Tail, ViewSelection::Rand] {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut v = View::from_descriptors(ds.clone());
            let before = v.clone();
            v.select(policy, c, &mut rng);
            prop_assert!(v.len() <= c.max(before.len().min(c)));
            prop_assert!(v.len() == before.len().min(c));
            prop_assert!(v.invariants_hold());
            // Selection returns a subset.
            for d in v.iter() {
                prop_assert_eq!(before.hop_count_of(d.id()), Some(d.hop_count()));
            }
        }
    }

    #[test]
    fn select_head_keeps_minimal_hops(ds in descriptors(80), c in 1usize..20) {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut v = View::from_descriptors(ds);
        let before = v.clone();
        v.select(ViewSelection::Head, c, &mut rng);
        if let (Some(kept_max), true) = (v.tail().map(|d| d.hop_count()), v.len() < before.len()) {
            // Every dropped entry has hop count >= every kept entry.
            for d in before.iter() {
                if !v.contains(d.id()) {
                    prop_assert!(d.hop_count() >= kept_max);
                }
            }
        }
    }

    #[test]
    fn aging_preserves_order_and_ids(ds in descriptors(50)) {
        let mut v = View::from_descriptors(ds);
        let ids_before: Vec<NodeId> = v.ids().collect();
        let hops_before: Vec<u32> = v.iter().map(|d| d.hop_count()).collect();
        v.increase_hop_counts();
        prop_assert!(v.invariants_hold());
        let ids_after: Vec<NodeId> = v.ids().collect();
        prop_assert_eq!(ids_before, ids_after);
        for (before, after) in hops_before.iter().zip(v.iter()) {
            prop_assert_eq!(after.hop_count(), before.saturating_add(1));
        }
    }

    #[test]
    fn node_view_respects_capacity_after_any_reply(
        policy in policies(),
        c in 1usize..20,
        seeds in descriptors(30),
        incoming in descriptors(30),
        seed in 0u64..1000,
    ) {
        let config = ProtocolConfig::new(policy, c).unwrap();
        let mut node = PeerSamplingNode::with_seed(NodeId::new(999), config, seed);
        node.init(seeds);
        prop_assert!(node.view().len() <= c);
        node.handle_reply(&mut Arena::new(), NodeId::new(0), Reply { descriptors: incoming });
        prop_assert!(node.view().len() <= c);
        prop_assert!(node.view().invariants_hold());
        prop_assert!(!node.view().contains(NodeId::new(999)));
    }

    #[test]
    fn initiated_requests_match_policy(
        policy in policies(),
        seeds in descriptors(30),
        seed in 0u64..1000,
    ) {
        prop_assume!(!seeds.is_empty());
        let config = ProtocolConfig::new(policy, 10).unwrap();
        let mut node = PeerSamplingNode::with_seed(NodeId::new(999), config, seed);
        node.init(seeds);
        prop_assume!(!node.view().is_empty());
        let ex = node.initiate(&mut Arena::new()).unwrap();
        prop_assert!(node.view().contains(ex.peer));
        prop_assert_eq!(ex.request.wants_reply, policy.propagation.is_pull());
        if policy.propagation.is_push() {
            // Own fresh descriptor is always carried.
            prop_assert!(ex
                .request
                .descriptors
                .iter()
                .any(|d| d.id() == NodeId::new(999) && d.hop_count() == 0));
        } else {
            prop_assert!(ex.request.is_empty());
        }
    }

    #[test]
    fn exchanges_are_deterministic_per_seed(
        policy in policies(),
        seeds in descriptors(30),
        seed in 0u64..1000,
    ) {
        let run = || {
            let config = ProtocolConfig::new(policy, 10).unwrap();
            let mut a = PeerSamplingNode::with_seed(NodeId::new(0), config.clone(), seed);
            let mut b = PeerSamplingNode::with_seed(NodeId::new(1), config, seed + 1);
            a.init(seeds.clone().into_iter().chain([NodeDescriptor::fresh(NodeId::new(1))]));
            b.init(seeds.clone());
            let mut arena = Arena::new();
            for _ in 0..5 {
                if let Some(ex) = a.initiate(&mut arena) {
                    if ex.peer == b.id() {
                        if let Some(reply) = b.handle_request(&mut arena, a.id(), ex.request) {
                            a.handle_reply(&mut arena, b.id(), reply);
                        }
                    }
                }
            }
            (a.view().clone(), b.view().clone())
        };
        prop_assert_eq!(run(), run());
    }
}

// ---------------------------------------------------------------------------
// Differential properties: the optimized view algebra (hash-table
// duplicate resolution, fused merge+select, bulk construction)
// must be byte-identical to the retained naive reference implementation
// (`pss_core::view::reference`) — the seed's quadratic algorithms kept as an
// executable specification.
// ---------------------------------------------------------------------------

use pss_core::view::reference;
use pss_core::MergeScratch;

fn view_selections() -> impl Strategy<Value = ViewSelection> {
    prop::sample::select(vec![
        ViewSelection::Head,
        ViewSelection::Tail,
        ViewSelection::Rand,
    ])
}

proptest! {
    #[test]
    fn bulk_construction_matches_reference(ds in descriptors(60)) {
        let bulk = View::from_descriptors(ds.clone());
        prop_assert_eq!(
            bulk.descriptors(),
            reference::from_descriptors(ds.clone()).as_slice()
        );
        prop_assert!(bulk.invariants_hold());
        // And both match sequential insertion through the indexed View.
        let mut seq = View::new();
        for d in ds {
            seq.insert(d);
        }
        prop_assert_eq!(bulk.descriptors(), seq.descriptors());
        prop_assert!(seq.invariants_hold());
    }

    #[test]
    fn optimized_merge_matches_reference(
        a in descriptors(40),
        b in descriptors(40),
        excl in 0u64..50,
    ) {
        let va = View::from_descriptors(a);
        let vb = View::from_descriptors(b);
        for excluded in [None, Some(NodeId::new(excl))] {
            let merged = va.merge(&vb, excluded);
            prop_assert_eq!(
                merged.descriptors(),
                reference::merge(va.descriptors(), vb.descriptors(), excluded).as_slice()
            );
            prop_assert!(merged.invariants_hold());
        }
    }

    #[test]
    fn merge_from_matches_merge(
        received in descriptors(40),
        own in descriptors(40),
        excl in 0u64..50,
    ) {
        let rx = View::from_descriptors(received);
        let base = View::from_descriptors(own);
        let expected = rx.merge(&base, Some(NodeId::new(excl)));
        let mut scratch = MergeScratch::default();
        let mut target = base.clone();
        target.merge_from(&rx, Some(NodeId::new(excl)), &mut scratch);
        prop_assert_eq!(target.descriptors(), expected.descriptors());
        prop_assert!(target.invariants_hold());
    }

    #[test]
    fn fused_merge_select_matches_unfused(
        received in descriptors(40),
        own in descriptors(40),
        policy in view_selections(),
        c in 1usize..20,
        excl in 0u64..50,
        seed in 0u64..1000,
    ) {
        let rx = View::from_descriptors(received);
        let base = View::from_descriptors(own);
        let excluded = Some(NodeId::new(excl));
        let mut scratch = MergeScratch::default();

        let mut fused = base.clone();
        let mut rng_fused = SmallRng::seed_from_u64(seed);
        fused.merge_select_from(&rx, excluded, policy, c, &mut rng_fused, &mut scratch);

        let mut unfused = base.clone();
        let mut rng_unfused = SmallRng::seed_from_u64(seed);
        unfused.merge_from(&rx, excluded, &mut scratch);
        unfused.select(policy, c, &mut rng_unfused);

        prop_assert_eq!(fused.descriptors(), unfused.descriptors());
        prop_assert!(fused.invariants_hold());
    }

    #[test]
    fn fused_absorb_matches_reference_pipeline(
        own in descriptors(40),
        incoming in descriptors(40),
        policy in view_selections(),
        c in 1usize..20,
        excl in 0u64..50,
        seed in 0u64..1000,
    ) {
        // The optimized receive side, exactly as PeerSamplingNode runs it:
        // try the wire-buffer fast path, fall back to the general path on
        // malformed content (the RNG is untouched by a failed attempt).
        let excluded = Some(NodeId::new(excl));
        let base = View::from_descriptors(own);
        let mut optimized = base.clone();
        let mut scratch = MergeScratch::default();
        let mut rng_opt = SmallRng::seed_from_u64(seed);
        let buf: Vec<NodeDescriptor> = incoming.iter().map(|d| d.aged()).collect();
        let fast = optimized.merge_select_from_slice(
            &buf, excluded, policy, c, &mut rng_opt, &mut scratch,
        );
        if !fast {
            let mut rx = View::new();
            rx.assign_aged(incoming.iter().copied(), 1, &mut scratch);
            optimized.merge_select_from(&rx, excluded, policy, c, &mut rng_opt, &mut scratch);
        }

        // The seed pipeline: naive construction, aging, quadratic merge,
        // then selectView with an identically seeded RNG.
        let rx_ref: Vec<NodeDescriptor> = reference::from_descriptors(incoming.clone())
            .iter()
            .map(|d| d.aged())
            .collect();
        let merged = reference::merge(&rx_ref, base.descriptors(), excluded);
        let mut ref_view = View::from_descriptors(merged);
        let mut rng_ref = SmallRng::seed_from_u64(seed);
        ref_view.select(policy, c, &mut rng_ref);

        prop_assert_eq!(optimized.descriptors(), ref_view.descriptors());
        prop_assert!(optimized.invariants_hold());
    }

    #[test]
    fn lookups_match_a_linear_scan(
        own in descriptors(40),
        incoming in descriptors(40),
        probe in 0u64..60,
        inserted in descriptors(4),
    ) {
        // `contains` and `hop_count_of` agree with a scan of the entries,
        // on a merged view and again after `insert` changed it.
        let scan = |v: &View, id: NodeId| {
            v.iter().find(|d| d.id() == id).map(|d| d.hop_count())
        };
        let mut v = View::from_descriptors(own);
        let rx = View::from_descriptors(incoming);
        let mut scratch = MergeScratch::default();
        v.merge_from(&rx, Some(NodeId::new(0)), &mut scratch);
        let id = NodeId::new(probe);
        prop_assert_eq!(v.hop_count_of(id), scan(&v, id));
        prop_assert_eq!(v.contains(id), scan(&v, id).is_some());
        for d in inserted {
            v.insert(d);
        }
        prop_assert_eq!(v.hop_count_of(id), scan(&v, id));
        prop_assert_eq!(v.contains(id), scan(&v, id).is_some());
        prop_assert!(v.invariants_hold());
    }
}
