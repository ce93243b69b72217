//! Undirected communication graphs.

use pss_stats::CountDistribution;

use crate::GraphError;

/// An undirected simple graph over nodes `0..n`, stored as sorted adjacency
/// lists.
///
/// This is the graph all the paper's measurements run on. Parallel edges and
/// self-loops are collapsed/dropped at construction.
///
/// # Examples
///
/// ```
/// use pss_graph::UGraph;
///
/// let g = UGraph::from_edges(4, [(0, 1), (1, 2), (2, 0)])?;
/// assert_eq!(g.degree(1), 2);
/// assert_eq!(g.degree(3), 0);
/// assert!(g.has_edge(2, 1));
/// # Ok::<(), pss_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UGraph {
    adj: Vec<Vec<u32>>,
    edge_count: usize,
}

impl UGraph {
    /// Builds an undirected graph from an edge list.
    ///
    /// Each `(u, v)` pair adds the undirected edge `{u, v}`; duplicates (in
    /// either orientation) are collapsed and self-loops are dropped.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if any endpoint is `>= n`.
    pub fn from_edges(
        n: usize,
        edges: impl IntoIterator<Item = (u32, u32)>,
    ) -> Result<Self, GraphError> {
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (u, v) in edges {
            if u as usize >= n {
                return Err(GraphError::NodeOutOfRange {
                    node: u,
                    node_count: n,
                });
            }
            if v as usize >= n {
                return Err(GraphError::NodeOutOfRange {
                    node: v,
                    node_count: n,
                });
            }
            if u == v {
                continue;
            }
            adj[u as usize].push(v);
            adj[v as usize].push(u);
        }
        let mut edge_count = 0;
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
            edge_count += list.len();
        }
        Ok(UGraph {
            adj,
            edge_count: edge_count / 2,
        })
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Neighbors of `v`, sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.adj[v as usize]
    }

    /// Degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: u32) -> usize {
        self.adj[v as usize].len()
    }

    /// True if the undirected edge `{u, v}` exists.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.adj[u as usize].binary_search(&v).is_ok()
    }

    /// Mean degree `2·E / N`, or 0.0 for an empty graph.
    pub fn average_degree(&self) -> f64 {
        if self.adj.is_empty() {
            0.0
        } else {
            2.0 * self.edge_count as f64 / self.adj.len() as f64
        }
    }

    /// Smallest degree in the graph (0 for an empty graph).
    pub fn min_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).min().unwrap_or(0)
    }

    /// Largest degree in the graph (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Exact degree → frequency distribution (the paper's Figure 4).
    pub fn degree_distribution(&self) -> CountDistribution {
        self.adj.iter().map(|l| l.len() as u64).collect()
    }

    /// Iterator over all undirected edges, each reported once as `(u, v)`
    /// with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.adj.iter().enumerate().flat_map(|(u, list)| {
            let u = u as u32;
            list.iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// The subgraph induced by the nodes for which `keep` is true.
    ///
    /// Kept nodes are relabeled consecutively in increasing original order.
    /// Used for the paper's Figure 6: remove a random fraction of nodes and
    /// measure connectivity of the rest.
    ///
    /// # Panics
    ///
    /// Panics if `keep.len() != self.node_count()`.
    pub fn induced_subgraph(&self, keep: &[bool]) -> UGraph {
        assert_eq!(
            keep.len(),
            self.adj.len(),
            "keep mask must cover every node"
        );
        let mut relabel = vec![u32::MAX; self.adj.len()];
        let mut next = 0u32;
        for (i, &k) in keep.iter().enumerate() {
            if k {
                relabel[i] = next;
                next += 1;
            }
        }
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); next as usize];
        let mut edge_count = 0;
        for (u, list) in self.adj.iter().enumerate() {
            if !keep[u] {
                continue;
            }
            let nu = relabel[u] as usize;
            for &v in list {
                if keep[v as usize] {
                    adj[nu].push(relabel[v as usize]);
                }
            }
            // Input lists are sorted and relabeling is monotone, so the
            // output lists stay sorted.
            edge_count += adj[nu].len();
        }
        UGraph {
            adj,
            edge_count: edge_count / 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = UGraph::from_edges(0, []).unwrap();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.average_degree(), 0.0);
        assert_eq!(g.min_degree(), 0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn triangle() {
        let g = UGraph::from_edges(3, [(0, 1), (1, 2), (2, 0)]).unwrap();
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.average_degree(), 2.0);
        for v in 0..3 {
            assert_eq!(g.degree(v), 2);
        }
    }

    #[test]
    fn duplicate_edges_collapse() {
        let g = UGraph::from_edges(2, [(0, 1), (1, 0), (0, 1)]).unwrap();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn self_loops_dropped() {
        let g = UGraph::from_edges(2, [(0, 0), (0, 1)]).unwrap();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn out_of_range_rejected() {
        assert!(UGraph::from_edges(2, [(0, 2)]).is_err());
        assert!(UGraph::from_edges(2, [(5, 0)]).is_err());
    }

    #[test]
    fn neighbors_sorted() {
        let g = UGraph::from_edges(4, [(2, 0), (2, 3), (2, 1)]).unwrap();
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
    }

    #[test]
    fn edges_reported_once() {
        let g = UGraph::from_edges(3, [(0, 1), (2, 1)]).unwrap();
        let e: Vec<_> = g.edges().collect();
        assert_eq!(e, vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn degree_distribution_counts() {
        let g = UGraph::from_edges(4, [(0, 1), (1, 2), (2, 0)]).unwrap();
        let d = g.degree_distribution();
        assert_eq!(d.count_of(2), 3);
        assert_eq!(d.count_of(0), 1);
        assert_eq!(d.total(), 4);
    }

    #[test]
    fn induced_subgraph_relabels() {
        // Path 0-1-2-3; drop node 1 -> nodes {0,2,3} relabel to {0,1,2},
        // only edge 2-3 survives (as 1-2).
        let g = UGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let sub = g.induced_subgraph(&[true, false, true, true]);
        assert_eq!(sub.node_count(), 3);
        assert_eq!(sub.edge_count(), 1);
        assert!(sub.has_edge(1, 2));
        assert!(!sub.has_edge(0, 1));
    }

    #[test]
    fn induced_subgraph_keep_all_is_identity() {
        let g = UGraph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let sub = g.induced_subgraph(&[true, true, true]);
        assert_eq!(sub, g);
    }

    #[test]
    #[should_panic(expected = "keep mask")]
    fn induced_subgraph_wrong_mask_panics() {
        let g = UGraph::from_edges(2, [(0, 1)]).unwrap();
        let _ = g.induced_subgraph(&[true]);
    }

    #[test]
    fn average_degree_of_star() {
        let g = UGraph::from_edges(5, (1..5).map(|v| (0u32, v))).unwrap();
        assert_eq!(g.average_degree(), 2.0 * 4.0 / 5.0);
        assert_eq!(g.max_degree(), 4);
        assert_eq!(g.min_degree(), 1);
    }
}
