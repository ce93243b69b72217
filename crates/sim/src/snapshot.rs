//! Overlay snapshots: from live views to analyzable graphs.

use pss_core::{NodeId, View};
use pss_graph::csr::Csr;

/// The communication topology at one instant: the directed view graph over
/// the *live* nodes as one [`Csr`] (compact indices in increasing id order),
/// plus the compact-index ↔ id mapping, built without any per-node
/// allocation (see [`crate::ShardedSimulation::csr_snapshot`]). Edges to
/// dead nodes are excluded: they are *dead links*, counted separately by
/// [`crate::ShardedSimulation::dead_link_count`]. The paper's properties
/// are measured on [`Csr::undirected`] of [`CsrSnapshot::graph`].
#[derive(Debug, Clone)]
pub struct CsrSnapshot {
    graph: Csr,
    ids: Vec<NodeId>,
}

impl CsrSnapshot {
    pub(crate) fn new(graph: Csr, ids: Vec<NodeId>) -> Self {
        debug_assert_eq!(graph.node_count(), ids.len());
        CsrSnapshot { graph, ids }
    }

    /// Builds a CSR snapshot from raw `(id, view-target ids)` rows, as
    /// [`WorkloadTarget::collect_rows`](crate::WorkloadTarget::collect_rows)
    /// gathers them on any stack — the reference the streaming
    /// [`measure_rows`](crate::workload::measure_rows) is tested against.
    /// Rows must be in increasing id order with every id below `id_space`;
    /// targets without a row (dead or remote-unknown nodes) are dropped,
    /// exactly as in the engine-built snapshots.
    ///
    /// # Panics
    ///
    /// Panics if rows are out of order or an id is at or above `id_space`.
    pub fn from_rows(id_space: usize, rows: &[(NodeId, Vec<NodeId>)]) -> Self {
        let mut index = vec![u32::MAX; id_space];
        for (i, (id, _)) in rows.iter().enumerate() {
            assert!(
                i == 0 || rows[i - 1].0 < *id,
                "rows must be sorted by increasing id"
            );
            index[id.as_index()] = i as u32;
        }
        let per_node = rows.first().map_or(0, |(_, targets)| targets.len());
        let mut builder =
            pss_graph::csr::CsrBuilder::with_capacity(rows.len(), rows.len() * per_node);
        for (_, targets) in rows {
            builder.push_node(targets.iter().filter_map(|t| {
                index
                    .get(t.as_index())
                    .copied()
                    .filter(|&compact| compact != u32::MAX)
            }));
        }
        let graph = builder.finish().expect("compact indices are in range");
        CsrSnapshot::new(graph, rows.iter().map(|(id, _)| *id).collect())
    }

    /// The directed view graph over compact indices.
    pub fn graph(&self) -> &Csr {
        &self.graph
    }

    /// Number of live nodes in the snapshot.
    pub fn node_count(&self) -> usize {
        self.ids.len()
    }

    /// Maps a compact index back to the simulator [`NodeId`].
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn node_id(&self, index: u32) -> NodeId {
        self.ids[index as usize]
    }

    /// Maps a simulator [`NodeId`] to its compact index, if present.
    pub fn index_of(&self, id: NodeId) -> Option<u32> {
        // ids is sorted (built in increasing id order).
        self.ids.binary_search(&id).ok().map(|i| i as u32)
    }

    /// The live node ids, in increasing order.
    pub fn node_ids(&self) -> &[NodeId] {
        &self.ids
    }
}

/// The one streaming pass behind [`StreamingMetrics`],
/// [`crate::workload::measure_rows`] and [`crate::audit::audit_rows`]: one
/// 16-byte slot per raw id holds its in-degree counter and its union–find
/// parent and size, so no edge array and no compact index are built. Rows
/// are marked first, then streamed once. An edge counts iff its target has
/// a row, is not the source and is not a repeat within the row — exactly
/// the edges [`CsrSnapshot::from_rows`] keeps.
pub(crate) struct RowPass {
    slots: Vec<Slot>,
    largest_component: usize,
}

/// `stamp` is 0 for an id without a row, else 1 + the last row that
/// counted an edge into it (its own row stamps it first, so a self-loop
/// never counts). `size` is meaningful at union–find roots.
#[derive(Clone, Copy, Default)]
struct Slot {
    stamp: u32,
    in_degree: u32,
    parent: u32,
    size: u32,
}

impl RowPass {
    fn new(id_space: usize) -> Self {
        RowPass {
            slots: vec![Slot::default(); id_space],
            largest_component: 0,
        }
    }

    /// Streams the `(id, view targets)` rows whose id passes `keep`; targets
    /// outside the kept rows are dropped. Panics if `rows` is not sorted by
    /// strictly increasing id, or a row id is at or above `id_space`.
    pub(crate) fn from_rows(
        id_space: usize,
        rows: &[(NodeId, Vec<NodeId>)],
        keep: impl Fn(NodeId) -> bool,
    ) -> Self {
        let mut pass = RowPass::new(id_space);
        for (i, (id, _)) in rows.iter().enumerate() {
            assert!(
                i == 0 || rows[i - 1].0 < *id,
                "rows must be sorted by increasing id"
            );
            if keep(*id) {
                pass.mark(*id);
            }
        }
        for (id, targets) in rows.iter().filter(|(id, _)| keep(*id)) {
            pass.add_row(*id, targets.iter().copied());
        }
        pass
    }

    /// Declares that `id` has a row; panics if `id` is outside the id space.
    fn mark(&mut self, id: NodeId) {
        let v = id.as_index() as u32;
        self.slots[id.as_index()] = Slot {
            stamp: v + 1,
            in_degree: 0,
            parent: v,
            size: 1,
        };
        self.largest_component = self.largest_component.max(1);
    }

    /// Streams the row of a marked `id`; returns the edges it counted.
    fn add_row(&mut self, id: NodeId, targets: impl IntoIterator<Item = NodeId>) -> u64 {
        let stamp = id.as_index() as u32 + 1;
        self.slots[id.as_index()].stamp = stamp;
        let mut root = self.find(id.as_index() as u32);
        let mut edges = 0;
        for target in targets {
            let Some(slot) = self.slots.get_mut(target.as_index()) else {
                continue; // outside the id space: no row
            };
            if slot.stamp == 0 || slot.stamp == stamp {
                continue; // no row, self-loop or repeat
            }
            slot.stamp = stamp;
            slot.in_degree += 1;
            edges += 1;
            let mut other = self.find(target.as_index() as u32);
            if other != root {
                // Union by size: the bigger root stays.
                if self.slots[root as usize].size < self.slots[other as usize].size {
                    std::mem::swap(&mut root, &mut other);
                }
                self.slots[other as usize].parent = root;
                self.slots[root as usize].size += self.slots[other as usize].size;
                let size = self.slots[root as usize].size as usize;
                self.largest_component = self.largest_component.max(size);
            }
        }
        edges
    }

    /// In-degrees of the marked ids, in increasing id order.
    pub(crate) fn in_degrees(&self) -> impl Iterator<Item = u32> + '_ {
        self.slots
            .iter()
            .filter(|slot| slot.stamp != 0)
            .map(|slot| slot.in_degree)
    }

    /// Largest weakly-connected component over the marked ids.
    pub(crate) fn largest_component(&self) -> usize {
        self.largest_component
    }

    /// Path-halving find.
    fn find(&mut self, mut v: u32) -> u32 {
        while self.slots[v as usize].parent != v {
            let grandparent = self.slots[self.slots[v as usize].parent as usize].parent;
            self.slots[v as usize].parent = grandparent;
            v = grandparent;
        }
        v
    }
}

/// Overlay health estimated **by streaming** view rows — no edge array.
///
/// [`CsrSnapshot`] materializes every directed edge (~120 MB at N = 10⁶,
/// c = 30) before anything can be measured. For the health numbers the
/// large-scale drivers actually watch — is the overlay in one piece, how
/// skewed is the in-degree distribution — that is pure overhead: both are
/// computable in O(id-space) memory from a single-visit stream of
/// `(id, view)` rows. This is that stream, through the same pass that
/// measures every workload period
/// ([`measure_rows`](crate::workload::measure_rows)): weak connectivity
/// through a union–find keyed by raw node id, in-degrees through one
/// counter per id. Per-edge state is never stored, so memory is ~16 MB at
/// N = 10⁶ regardless of `c`.
///
/// Semantics match the materialized path bit for bit (pinned by tests
/// against [`CsrSnapshot`]): rows are live nodes, view targets without a
/// row are dead links and are dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamingMetrics {
    /// Live nodes (rows streamed).
    pub live_nodes: usize,
    /// Live → live directed view edges (dead links excluded).
    pub edge_count: u64,
    /// Largest weakly-connected component over live nodes — equals
    /// [`pss_graph::components::largest_weak_component`] of the CSR graph.
    pub largest_component: usize,
    /// `in_degree_histogram[d]` = number of live nodes with in-degree `d`
    /// in the directed view graph — equals the histogram of the CSR
    /// graph's `in_degrees()`.
    pub in_degree_histogram: Vec<u64>,
}

impl StreamingMetrics {
    /// Computes the metrics from a view-row stream: `for_each` must visit
    /// every live `(id, view)` exactly once per call with every id below
    /// `id_space`, and is called twice — once to learn which ids are live,
    /// once to walk edges (the same contract as the engines'
    /// `for_each_live_view`).
    pub fn from_views(id_space: usize, for_each: impl Fn(&mut dyn FnMut(NodeId, &View))) -> Self {
        let mut pass = RowPass::new(id_space);
        let mut live_nodes = 0usize;
        for_each(&mut |id, _| {
            pass.mark(id);
            live_nodes += 1;
        });
        let mut edge_count = 0u64;
        for_each(&mut |id, view| edge_count += pass.add_row(id, view.ids()));

        let mut in_degree_histogram = Vec::new();
        for d in pass.in_degrees() {
            let d = d as usize;
            if d >= in_degree_histogram.len() {
                in_degree_histogram.resize(d + 1, 0);
            }
            in_degree_histogram[d] += 1;
        }

        StreamingMetrics {
            live_nodes,
            edge_count,
            largest_component: pass.largest_component(),
            in_degree_histogram,
        }
    }

    /// True if every live node sits in one weak component.
    pub fn is_connected(&self) -> bool {
        self.largest_component == self.live_nodes
    }

    /// Mean in-degree over live nodes (= mean out-degree = mean view fill).
    pub fn mean_in_degree(&self) -> f64 {
        if self.live_nodes == 0 {
            0.0
        } else {
            self.edge_count as f64 / self.live_nodes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pss_core::NodeDescriptor;

    fn view(ids: &[u64]) -> View {
        ids.iter()
            .map(|&i| NodeDescriptor::new(NodeId::new(i), 0))
            .collect()
    }

    fn ids(raw: &[u64]) -> Vec<NodeId> {
        raw.iter().map(|&i| NodeId::new(i)).collect()
    }

    #[test]
    fn builds_compact_graph() {
        // Nodes 0, 2, 5 live; node 1 dead. Views reference both.
        let rows = vec![
            (NodeId::new(0), ids(&[2, 1])), // edge to dead 1 dropped
            (NodeId::new(2), ids(&[0, 5])),
            (NodeId::new(5), ids(&[2])),
        ];
        let snap = CsrSnapshot::from_rows(6, &rows);
        assert_eq!(snap.node_count(), 3);
        let g = snap.graph();
        assert_eq!(g.edge_count(), 4);
        // Compact indices follow id order: 0->0, 2->1, 5->2.
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(g.has_edge(1, 2));
        assert!(g.has_edge(2, 1));
        assert_eq!(snap.node_id(1), NodeId::new(2));
        assert_eq!(snap.index_of(NodeId::new(5)), Some(2));
        assert_eq!(snap.index_of(NodeId::new(1)), None);
    }

    #[test]
    fn undirected_projection() {
        let rows = vec![(NodeId::new(0), ids(&[1])), (NodeId::new(1), ids(&[]))];
        let u = CsrSnapshot::from_rows(2, &rows).graph().undirected();
        assert_eq!(u.edge_count(), 2); // one edge, stored in both rows
        assert!(u.has_edge(0, 1));
        assert!(u.has_edge(1, 0));
    }

    #[test]
    fn empty_snapshot() {
        let snap = CsrSnapshot::from_rows(4, &[]);
        assert_eq!(snap.node_count(), 0);
        assert_eq!(snap.graph().undirected().node_count(), 0);
        assert_eq!(snap.index_of(NodeId::new(0)), None);
    }

    #[test]
    fn csr_from_rows_matches_build_semantics() {
        // Nodes 0, 2, 5 live; node 1 has no row (dead): edges to it drop.
        let rows = vec![
            (NodeId::new(0), vec![NodeId::new(2), NodeId::new(1)]),
            (NodeId::new(2), vec![NodeId::new(0), NodeId::new(5)]),
            (NodeId::new(5), vec![NodeId::new(2)]),
        ];
        let snap = CsrSnapshot::from_rows(6, &rows);
        assert_eq!(snap.node_count(), 3);
        assert_eq!(snap.graph().edge_count(), 4);
        assert_eq!(snap.graph().neighbors(0), &[1]); // dead 1 dropped
        assert_eq!(snap.graph().in_degrees(), vec![1, 2, 1]);
        assert_eq!(snap.node_id(2), NodeId::new(5));
        assert_eq!(snap.index_of(NodeId::new(2)), Some(1));
        assert_eq!(snap.index_of(NodeId::new(1)), None);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn csr_from_rows_rejects_unsorted_rows() {
        let rows = vec![(NodeId::new(2), vec![]), (NodeId::new(0), vec![])];
        let _ = CsrSnapshot::from_rows(3, &rows);
    }

    #[test]
    fn streaming_metrics_match_hand_counts() {
        // Live 0, 2, 5 (two components: {0, 2} via mutual edges, {5}
        // isolated after its only target 1 turns out dead).
        let v0 = view(&[2, 1]);
        let v2 = view(&[0]);
        let v5 = view(&[1]);
        let rows = vec![
            (NodeId::new(0), v0),
            (NodeId::new(2), v2),
            (NodeId::new(5), v5),
        ];
        let m = StreamingMetrics::from_views(6, |f| {
            for (id, view) in &rows {
                f(*id, view);
            }
        });
        assert_eq!(m.live_nodes, 3);
        assert_eq!(m.edge_count, 2); // both edges to dead 1 dropped
        assert_eq!(m.largest_component, 2);
        assert!(!m.is_connected());
        // In-degrees: node 0 ← 2, node 2 ← 0, node 5 ← nothing.
        assert_eq!(m.in_degree_histogram, vec![1, 2]);
    }

    #[test]
    fn streaming_metrics_of_empty_overlay() {
        let m = StreamingMetrics::from_views(4, |_| {});
        assert_eq!(m.live_nodes, 0);
        assert_eq!(m.edge_count, 0);
        assert_eq!(m.largest_component, 0);
        assert!(m.is_connected());
        assert_eq!(m.mean_in_degree(), 0.0);
    }

    #[test]
    fn node_ids_are_sorted() {
        let rows: Vec<_> = ids(&[1, 3, 7]).into_iter().map(|id| (id, vec![])).collect();
        let snap = CsrSnapshot::from_rows(8, &rows);
        assert_eq!(snap.node_ids(), ids(&[1, 3, 7]).as_slice());
    }
}
