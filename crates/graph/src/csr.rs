//! Compressed sparse row (CSR) graphs: the one graph type of this crate.
//!
//! A [`Csr`] keeps a graph over nodes `0..n` in two flat arrays
//! (`offsets`, `targets`), built in a **single append pass** straight from
//! view slices: no hash maps, no per-node vectors, so the same type serves
//! the paper's N = 10⁴ and a 10⁶-node overlay.
//!
//! It holds both graphs the paper talks about. A snapshot builds the
//! *directed* view graph: node `a`'s row lists the nodes in `a`'s view.
//! [`Csr::undirected`] derives the *undirected* communication graph every
//! published property is measured on ("after initiating a connection the
//! passive party will learn about the active party as well"): each row is
//! the union of a node's out- and in-neighbors, so the rows are symmetric.
//! [`crate::paths`], [`crate::clustering`],
//! [`crate::components::connected_components`] and [`crate::metrics`] take
//! that undirected graph.

use pss_stats::CountDistribution;

use crate::GraphError;

/// A graph over nodes `0..n` in compressed sparse row form. Every row is
/// sorted ascending, holds no duplicate and never the node itself.
///
/// # Examples
///
/// ```
/// use pss_graph::csr::CsrBuilder;
///
/// let mut b = CsrBuilder::new();
/// b.push_node([1, 2]); // node 0 -> {1, 2}
/// b.push_node([2]);    // node 1 -> {2}
/// b.push_node([]);     // node 2 -> {}
/// let g = b.finish()?;
/// assert_eq!(g.node_count(), 3);
/// assert_eq!(g.neighbors(0), &[1, 2]);
/// assert_eq!(g.in_degrees(), vec![0, 1, 2]);
/// # Ok::<(), pss_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    /// `offsets[v]..offsets[v + 1]` indexes `targets` for node `v`.
    offsets: Vec<u32>,
    /// Neighbors, sorted ascending within each node's range.
    targets: Vec<u32>,
}

/// Single-pass [`Csr`] construction; see the [module docs](self).
///
/// # Examples
///
/// A view never holds its owner or the same node twice, so neither does a
/// row; a target no pushed node carries is an error.
///
/// ```
/// use pss_graph::csr::CsrBuilder;
/// use pss_graph::GraphError;
///
/// let mut b = CsrBuilder::new();
/// b.push_node([0, 1, 1]); // node 0: self-loop and duplicate dropped
/// b.push_node([]);
/// let g = b.finish()?;
/// assert_eq!(g.neighbors(0), &[1]);
///
/// let mut b = CsrBuilder::new();
/// b.push_node([2]);
/// b.push_node([]);
/// assert_eq!(
///     b.finish(),
///     Err(GraphError::NodeOutOfRange { node: 2, node_count: 2 })
/// );
/// # Ok::<(), pss_graph::GraphError>(())
/// ```
#[derive(Debug, Default)]
pub struct CsrBuilder {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl CsrBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        CsrBuilder {
            offsets: vec![0],
            targets: Vec::new(),
        }
    }

    /// Creates a builder with pre-reserved capacity (the bulk path at
    /// N = 10⁶ knows both counts up front).
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        let mut offsets = Vec::with_capacity(nodes + 1);
        offsets.push(0);
        CsrBuilder {
            offsets,
            targets: Vec::with_capacity(edges),
        }
    }

    /// Appends the next node's out-neighbors (its view targets). Nodes are
    /// implicitly numbered in call order. Self-loops are dropped and
    /// duplicates collapsed, mirroring the view invariant ("at most one
    /// descriptor per node, never self").
    pub fn push_node(&mut self, neighbors: impl IntoIterator<Item = u32>) {
        let node = (self.offsets.len() - 1) as u32;
        let start = *self.offsets.last().expect("non-empty by construction") as usize;
        self.targets
            .extend(neighbors.into_iter().filter(|&t| t != node));
        self.targets[start..].sort_unstable();
        let kept = dedup_sorted(&mut self.targets[start..]);
        self.targets.truncate(start + kept);
        let end = u32::try_from(self.targets.len()).expect("edge count fits u32");
        self.offsets.push(end);
    }

    /// Finalizes the graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if any edge targets a node
    /// `>=` the number of pushed nodes.
    pub fn finish(self) -> Result<Csr, GraphError> {
        let n = self.offsets.len() - 1;
        if let Some(&bad) = self.targets.iter().find(|&&t| t as usize >= n) {
            return Err(GraphError::NodeOutOfRange {
                node: bad,
                node_count: n,
            });
        }
        Ok(Csr {
            offsets: self.offsets,
            targets: self.targets,
        })
    }
}

/// Moves the distinct values of a sorted slice to its front and returns how
/// many there are.
fn dedup_sorted(row: &mut [u32]) -> usize {
    let mut kept = 0;
    for i in 0..row.len() {
        if kept == 0 || row[i] != row[kept - 1] {
            row[kept] = row[i];
            kept += 1;
        }
    }
    kept
}

impl Csr {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of stored edges: directed edges, or twice the number of
    /// undirected edges on an [undirected](Csr::undirected) graph, which
    /// stores each edge in both endpoints' rows.
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// The row of `v`, sorted ascending: its out-neighbors, or all its
    /// neighbors on an undirected graph.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let (a, b) = (self.offsets[v as usize], self.offsets[v as usize + 1]);
        &self.targets[a as usize..b as usize]
    }

    /// Length of the row of `v`: its out-degree, or its degree on an
    /// undirected graph.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: u32) -> usize {
        self.neighbors(v).len()
    }

    /// True if the row of `src` holds `dst`.
    pub fn has_edge(&self, src: u32, dst: u32) -> bool {
        self.neighbors(src).binary_search(&dst).is_ok()
    }

    /// In-degree of every node: one counting pass, no hashing.
    pub fn in_degrees(&self) -> Vec<u32> {
        let mut indeg = vec![0u32; self.node_count()];
        for &t in &self.targets {
            indeg[t as usize] += 1;
        }
        indeg
    }

    /// Mean row length (`2·E / N` on an undirected graph), or 0.0 for an
    /// empty graph.
    pub fn average_degree(&self) -> f64 {
        if self.node_count() == 0 {
            0.0
        } else {
            self.targets.len() as f64 / self.node_count() as f64
        }
    }

    /// Smallest row length (0 for an empty graph).
    pub fn min_degree(&self) -> usize {
        self.degrees().min().unwrap_or(0)
    }

    /// Largest row length (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        self.degrees().max().unwrap_or(0)
    }

    /// Exact degree → frequency distribution (the paper's Figure 4).
    pub fn degree_distribution(&self) -> CountDistribution {
        self.degrees().map(|d| d as u64).collect()
    }

    fn degrees(&self) -> impl Iterator<Item = usize> + '_ {
        self.offsets.windows(2).map(|w| (w[1] - w[0]) as usize)
    }

    /// The undirected communication graph: row `v` is the sorted,
    /// deduplicated union of `v`'s out- and in-neighbors, so `u` lists `v`
    /// exactly when `v` lists `u`, and a mutual pair is one edge.
    ///
    /// One counting pass sizes every row by out-degree plus in-degree, a
    /// second scatters each directed edge into both endpoints' rows, and a
    /// third sorts each row and squeezes out the mutual duplicates in place.
    /// Peak memory is one array of twice the directed edge count.
    ///
    /// # Examples
    ///
    /// ```
    /// use pss_graph::csr::CsrBuilder;
    ///
    /// // The directed triangle 0 -> 1 -> 2 -> 0 plus an isolated node 3.
    /// let mut b = CsrBuilder::new();
    /// for view in [[1], [2], [0]] {
    ///     b.push_node(view);
    /// }
    /// b.push_node([]);
    /// let u = b.finish()?.undirected();
    /// assert_eq!(u.degree(1), 2);
    /// assert_eq!(u.degree(3), 0);
    /// assert!(u.has_edge(2, 1));
    /// assert_eq!(u.edge_count(), 6); // three edges, each in both rows
    /// # Ok::<(), pss_graph::GraphError>(())
    /// ```
    pub fn undirected(&self) -> Csr {
        let n = self.node_count();
        let mut offsets = vec![0u32; n + 1];
        for (v, d) in self.degrees().enumerate() {
            offsets[v + 1] = d as u32;
        }
        for &t in &self.targets {
            offsets[t as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut targets = vec![0u32; 2 * self.targets.len()];
        for src in 0..n as u32 {
            for &dst in self.neighbors(src) {
                targets[cursor[src as usize] as usize] = dst;
                cursor[src as usize] += 1;
                targets[cursor[dst as usize] as usize] = src;
                cursor[dst as usize] += 1;
            }
        }
        let (mut start, mut end) = (0, 0);
        for v in 0..n {
            let stop = offsets[v + 1] as usize;
            targets[start..stop].sort_unstable();
            let kept = dedup_sorted(&mut targets[start..stop]);
            targets.copy_within(start..start + kept, end);
            end += kept;
            offsets[v + 1] = end as u32;
            start = stop;
        }
        targets.truncate(end);
        Csr { offsets, targets }
    }

    /// The subgraph induced by the nodes for which `keep` is true, kept
    /// nodes relabeled consecutively in increasing original order. Used
    /// for the paper's Figure 6: remove a random fraction of nodes and
    /// measure the connectivity of the rest.
    ///
    /// # Panics
    ///
    /// Panics if `keep.len() != self.node_count()`.
    pub fn induced_subgraph(&self, keep: &[bool]) -> Csr {
        assert_eq!(
            keep.len(),
            self.node_count(),
            "keep mask must cover every node"
        );
        let mut relabel = vec![u32::MAX; keep.len()];
        let mut kept = 0u32;
        for (v, _) in keep.iter().enumerate().filter(|(_, &k)| k) {
            relabel[v] = kept;
            kept += 1;
        }
        let mut offsets = Vec::with_capacity(kept as usize + 1);
        offsets.push(0);
        let mut targets = Vec::new();
        for v in (0..keep.len()).filter(|&v| keep[v]) {
            // Rows are sorted and the relabeling is monotone, so the new
            // rows stay sorted.
            targets.extend(
                self.neighbors(v as u32)
                    .iter()
                    .filter(|&&w| keep[w as usize])
                    .map(|&w| relabel[w as usize]),
            );
            offsets.push(targets.len() as u32);
        }
        Csr { offsets, targets }
    }
}

/// The undirected graph over `n` nodes with the given edges (either
/// orientation): the fixture the unit tests build by hand.
#[cfg(test)]
pub(crate) fn undirected_from_edges(n: usize, edges: &[(u32, u32)]) -> Csr {
    let mut rows = vec![Vec::new(); n];
    for &(u, v) in edges {
        rows[u as usize].push(v);
    }
    let mut b = CsrBuilder::new();
    for row in rows {
        b.push_node(row);
    }
    b.finish().expect("edges in range").undirected()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{clustering, gen, paths};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn csr_of(views: &[&[u32]]) -> Csr {
        let mut b = CsrBuilder::new();
        for view in views {
            b.push_node(view.iter().copied());
        }
        b.finish().unwrap()
    }

    #[test]
    fn builds_and_indexes() {
        let g = csr_of(&[&[2, 1], &[2], &[]]);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.neighbors(0), &[1, 2]); // sorted
        assert_eq!(g.degree(2), 0);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
        assert_eq!(g.in_degrees(), vec![0, 1, 2]);
    }

    #[test]
    fn drops_self_loops_and_duplicates() {
        let g = csr_of(&[&[0, 1, 1, 2, 2, 2], &[], &[]]);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn rejects_out_of_range_targets() {
        let mut b = CsrBuilder::new();
        b.push_node([5]);
        assert!(matches!(
            b.finish(),
            Err(GraphError::NodeOutOfRange { node: 5, .. })
        ));
    }

    #[test]
    fn empty_graph() {
        let g = CsrBuilder::new().finish().unwrap();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        let u = g.undirected();
        assert_eq!(u.node_count(), 0);
        assert_eq!(u.average_degree(), 0.0);
        assert_eq!(u.min_degree(), 0);
        assert_eq!(u.max_degree(), 0);
    }

    #[test]
    fn undirected_edges_union_both_directions() {
        // 0 -> 1, 2 -> 1, and the mutual pair 3 <-> 1 (one edge).
        let g = csr_of(&[&[1], &[3], &[1], &[1]]);
        let u = g.undirected();
        assert_eq!(u.neighbors(0), &[1]);
        assert_eq!(u.neighbors(1), &[0, 2, 3]);
        assert_eq!(u.neighbors(2), &[1]);
        assert_eq!(u.neighbors(3), &[1]);
        assert_eq!(u.edge_count(), 6); // three undirected edges, both rows
        assert!(!u.has_edge(0, 2));
    }

    #[test]
    fn average_degree_of_star() {
        let g = gen::star(5).undirected();
        assert_eq!(g.average_degree(), 2.0 * 4.0 / 5.0);
        assert_eq!(g.max_degree(), 4);
        assert_eq!(g.min_degree(), 1);
    }

    #[test]
    fn degree_distribution_counts() {
        let g = undirected_from_edges(4, &[(0, 1), (1, 2), (2, 0)]);
        let d = g.degree_distribution();
        assert_eq!(d.count_of(2), 3);
        assert_eq!(d.count_of(0), 1);
        assert_eq!(d.total(), 4);
    }

    #[test]
    fn induced_subgraph_relabels() {
        // Path 0-1-2-3; drop node 1 -> nodes {0,2,3} relabel to {0,1,2},
        // only edge 2-3 survives (as 1-2).
        let g = undirected_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let sub = g.induced_subgraph(&[true, false, true, true]);
        assert_eq!(sub.node_count(), 3);
        assert_eq!(sub.edge_count(), 2);
        assert!(sub.has_edge(1, 2));
        assert!(sub.has_edge(2, 1));
        assert!(!sub.has_edge(0, 1));
    }

    #[test]
    fn induced_subgraph_keep_all_is_identity() {
        let g = undirected_from_edges(3, &[(0, 1), (1, 2)]);
        assert_eq!(g.induced_subgraph(&[true, true, true]), g);
    }

    #[test]
    #[should_panic(expected = "keep mask")]
    fn induced_subgraph_wrong_mask_panics() {
        let g = undirected_from_edges(2, &[(0, 1)]);
        let _ = g.induced_subgraph(&[true]);
    }

    #[test]
    fn directed_empty_graph() {
        let g = csr_of(&[]);
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn directed_out_of_range_edge_is_rejected() {
        let mut b = CsrBuilder::new();
        b.push_node([2]);
        b.push_node([]);
        assert_eq!(
            b.finish().unwrap_err(),
            GraphError::NodeOutOfRange {
                node: 2,
                node_count: 2
            }
        );
    }

    #[test]
    fn directed_self_loops_are_dropped() {
        let g = csr_of(&[&[0, 1], &[1]]);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 0);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn directed_duplicates_are_collapsed() {
        let g = csr_of(&[&[1, 1, 2, 2, 2], &[], &[]]);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.neighbors(0), &[1, 2]);
    }

    #[test]
    fn directed_in_degrees_count_incoming() {
        let g = csr_of(&[&[1, 2], &[2], &[]]);
        assert_eq!(g.in_degrees(), vec![0, 1, 2]);
        let dist: CountDistribution = g.in_degrees().into_iter().map(u64::from).collect();
        assert_eq!(dist.count_of(0), 1);
        assert_eq!(dist.count_of(1), 1);
        assert_eq!(dist.count_of(2), 1);
    }

    #[test]
    fn directed_has_edge_is_directional() {
        let g = csr_of(&[&[1], &[]]);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
    }

    #[test]
    fn undirected_symmetrizes() {
        let g = csr_of(&[&[1], &[0, 2], &[]]);
        let u = g.undirected();
        // (0,1) appears in both directions but is one undirected edge.
        assert_eq!(u.edge_count(), 2 * 2);
        assert!(u.has_edge(1, 0));
        assert!(u.has_edge(2, 1));
    }

    #[test]
    fn undirected_empty_graph() {
        let u = undirected_from_edges(0, &[]);
        assert_eq!(u.node_count(), 0);
        assert_eq!(u.edge_count(), 0);
        assert_eq!(u.average_degree(), 0.0);
        assert_eq!(u.min_degree(), 0);
        assert_eq!(u.max_degree(), 0);
    }

    #[test]
    fn undirected_triangle() {
        let u = undirected_from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(u.edge_count(), 2 * 3);
        assert_eq!(u.average_degree(), 2.0);
        for v in 0..3 {
            assert_eq!(u.degree(v), 2);
        }
    }

    #[test]
    fn undirected_duplicate_edges_collapse() {
        let u = undirected_from_edges(2, &[(0, 1), (1, 0), (0, 1)]);
        assert_eq!(u.edge_count(), 2);
        assert_eq!(u.degree(0), 1);
    }

    #[test]
    fn undirected_self_loops_dropped() {
        let u = undirected_from_edges(2, &[(0, 0), (0, 1)]);
        assert_eq!(u.edge_count(), 2);
        assert_eq!(u.degree(0), 1);
        assert!(!u.has_edge(0, 0));
    }

    #[test]
    fn undirected_out_of_range_rejected() {
        // Rows are numbered by push order, so only a target can be out of
        // range; the check sees every row, not just the first.
        let mut b = CsrBuilder::new();
        b.push_node([2]);
        b.push_node([]);
        assert!(b.finish().is_err());
        let mut b = CsrBuilder::new();
        b.push_node([]);
        b.push_node([5]);
        assert!(b.finish().is_err());
    }

    #[test]
    fn undirected_neighbors_sorted() {
        let out = undirected_from_edges(4, &[(2, 0), (2, 3), (2, 1)]);
        assert_eq!(out.neighbors(2), &[0, 1, 3]);
        // The same row assembled from in-edges alone.
        let inn = undirected_from_edges(4, &[(3, 2), (0, 2), (1, 2)]);
        assert_eq!(inn.neighbors(2), &[0, 1, 3]);
    }

    /// The sampled estimators on a CSR-built random overlay against the
    /// exact values on the same graph.
    #[test]
    fn estimators_match_exact_metrics() {
        let mut rng = SmallRng::seed_from_u64(9);
        let g = gen::uniform_view_digraph(600, 15, &mut rng).undirected();

        let exact_paths = paths::average_path_length(&g);
        let est_paths = paths::estimate_average_path_length(&g, 80, &mut rng);
        assert!(
            (exact_paths.average - est_paths.average).abs() < 0.1,
            "paths: exact {} vs sampled {}",
            exact_paths.average,
            est_paths.average
        );
        assert_eq!(est_paths.unreachable_pairs, 0);

        let exact_cc = clustering::clustering_coefficient(&g);
        let est_cc = clustering::estimate_clustering(&g, 300, &mut rng);
        assert!(
            (exact_cc - est_cc).abs() < 0.02,
            "clustering: exact {exact_cc} vs sampled {est_cc}"
        );

        // Full-population sampling degenerates to the exact computation.
        let full = paths::estimate_average_path_length(&g, 600, &mut rng);
        assert_eq!(full, exact_paths);
    }

    #[test]
    fn disconnected_components_reported_unreachable() {
        let g = csr_of(&[&[1], &[], &[3], &[]]).undirected();
        let mut rng = SmallRng::seed_from_u64(1);
        let stats = paths::estimate_average_path_length(&g, 4, &mut rng);
        assert!(stats.unreachable_pairs > 0);
        assert!(!stats.fully_reachable());
    }

    #[test]
    fn clustering_of_directed_triangle_is_one() {
        // 0->1, 1->2, 2->0: undirected triangle.
        let g = csr_of(&[&[1], &[2], &[0]]).undirected();
        assert_eq!(clustering::clustering_coefficient(&g), 1.0);
    }
}
