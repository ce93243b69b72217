//! Directed view graphs.

use pss_stats::CountDistribution;

use crate::{GraphError, UGraph};

/// A directed graph over nodes `0..n`, stored as out-adjacency lists.
///
/// In the peer-sampling setting, node `a` has an out-edge to node `b` exactly
/// when `a`'s partial view contains a descriptor of `b`; the out-degree of
/// every node is therefore at most the view size `c`.
///
/// Self-loops are rejected at construction (a node never stores its own
/// descriptor) and duplicate out-edges are collapsed.
///
/// # Examples
///
/// ```
/// use pss_graph::DiGraph;
///
/// let g = DiGraph::from_views(3, vec![vec![1, 2], vec![2], vec![]])?;
/// assert_eq!(g.out_degree(0), 2);
/// assert_eq!(g.in_degrees(), vec![0, 1, 2]);
/// # Ok::<(), pss_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiGraph {
    out: Vec<Vec<u32>>,
    edge_count: usize,
}

impl DiGraph {
    /// Builds a directed graph from per-node out-neighbor lists ("views").
    ///
    /// `views.len()` may be less than `n` (missing nodes have no out-edges);
    /// duplicates within a view are collapsed and self-loops are dropped,
    /// mirroring the "at most one descriptor per node, never self" view
    /// invariant of the protocol.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if any referenced node is
    /// `>= n`.
    pub fn from_views(n: usize, views: Vec<Vec<u32>>) -> Result<Self, GraphError> {
        if views.len() > n {
            return Err(GraphError::NodeOutOfRange {
                node: n as u32,
                node_count: n,
            });
        }
        let mut out: Vec<Vec<u32>> = views;
        out.resize(n, Vec::new());
        let mut edge_count = 0;
        for (src, list) in out.iter_mut().enumerate() {
            for &dst in list.iter() {
                if dst as usize >= n {
                    return Err(GraphError::NodeOutOfRange {
                        node: dst,
                        node_count: n,
                    });
                }
            }
            list.retain(|&dst| dst as usize != src);
            list.sort_unstable();
            list.dedup();
            edge_count += list.len();
        }
        Ok(DiGraph { out, edge_count })
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.out.len()
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Out-neighbors of `v`, sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn out_neighbors(&self, v: u32) -> &[u32] {
        &self.out[v as usize]
    }

    /// Out-degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn out_degree(&self, v: u32) -> usize {
        self.out[v as usize].len()
    }

    /// In-degree of every node.
    pub fn in_degrees(&self) -> Vec<usize> {
        let mut indeg = vec![0usize; self.out.len()];
        for list in &self.out {
            for &dst in list {
                indeg[dst as usize] += 1;
            }
        }
        indeg
    }

    /// Distribution of in-degrees across all nodes.
    pub fn in_degree_distribution(&self) -> CountDistribution {
        self.in_degrees().into_iter().map(|d| d as u64).collect()
    }

    /// True if the directed edge `(src, dst)` exists.
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range.
    pub fn has_edge(&self, src: u32, dst: u32) -> bool {
        self.out[src as usize].binary_search(&dst).is_ok()
    }

    /// Drops orientation: the undirected communication graph the paper
    /// measures ("after initiating a connection the passive party will learn
    /// about the active party as well").
    pub fn to_undirected(&self) -> UGraph {
        let edges = self
            .out
            .iter()
            .enumerate()
            .flat_map(|(src, list)| list.iter().map(move |&dst| (src as u32, dst)));
        UGraph::from_edges(self.out.len(), edges).expect("edges validated at DiGraph construction")
    }

    /// Iterator over all directed edges `(src, dst)`.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.out
            .iter()
            .enumerate()
            .flat_map(|(src, list)| list.iter().map(move |&dst| (src as u32, dst)))
    }

    /// The per-node out-neighbor lists, usable as protocol view seeds.
    pub fn views(&self) -> &[Vec<u32>] {
        &self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = DiGraph::from_views(0, vec![]).unwrap();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn views_shorter_than_n_are_padded() {
        let g = DiGraph::from_views(5, vec![vec![1]]).unwrap();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.out_degree(4), 0);
    }

    #[test]
    fn out_of_range_edge_is_rejected() {
        let err = DiGraph::from_views(2, vec![vec![2]]).unwrap_err();
        assert_eq!(
            err,
            GraphError::NodeOutOfRange {
                node: 2,
                node_count: 2
            }
        );
    }

    #[test]
    fn too_many_views_rejected() {
        assert!(DiGraph::from_views(1, vec![vec![], vec![]]).is_err());
    }

    #[test]
    fn self_loops_are_dropped() {
        let g = DiGraph::from_views(2, vec![vec![0, 1], vec![1]]).unwrap();
        assert_eq!(g.out_degree(0), 1);
        assert_eq!(g.out_degree(1), 0);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn duplicates_are_collapsed() {
        let g = DiGraph::from_views(3, vec![vec![1, 1, 2, 2, 2]]).unwrap();
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_neighbors(0), &[1, 2]);
    }

    #[test]
    fn in_degrees_count_incoming() {
        let g = DiGraph::from_views(3, vec![vec![1, 2], vec![2], vec![]]).unwrap();
        assert_eq!(g.in_degrees(), vec![0, 1, 2]);
        let dist = g.in_degree_distribution();
        assert_eq!(dist.count_of(0), 1);
        assert_eq!(dist.count_of(1), 1);
        assert_eq!(dist.count_of(2), 1);
    }

    #[test]
    fn has_edge_is_directional() {
        let g = DiGraph::from_views(2, vec![vec![1]]).unwrap();
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
    }

    #[test]
    fn to_undirected_symmetrizes() {
        let g = DiGraph::from_views(3, vec![vec![1], vec![0, 2], vec![]]).unwrap();
        let u = g.to_undirected();
        // (0,1) appears in both directions but is one undirected edge.
        assert_eq!(u.edge_count(), 2);
        assert!(u.has_edge(1, 0));
        assert!(u.has_edge(2, 1));
    }

    #[test]
    fn edges_iterator_yields_all() {
        let g = DiGraph::from_views(3, vec![vec![1, 2], vec![2], vec![]]).unwrap();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2)]);
    }
}
