//! Connected components and partitioning analysis.
//!
//! Connectivity is "a crucial feature, a minimal requirement for all
//! applications" (paper, Section 5); Table 1 reports the number of clusters
//! and the largest cluster size for the protocols that partitioned, and
//! Figure 6 reports how many nodes fall outside the largest cluster after
//! massive node removal.

use std::collections::VecDeque;

use crate::csr::Csr;

/// The result of a connected-components analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentReport {
    sizes: Vec<usize>,
    assignment: Vec<u32>,
}

impl ComponentReport {
    /// Number of connected components (0 for the empty graph).
    pub fn count(&self) -> usize {
        self.sizes.len()
    }

    /// Component sizes in decreasing order.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Size of the largest component (0 for the empty graph).
    pub fn largest(&self) -> usize {
        self.sizes.first().copied().unwrap_or(0)
    }

    /// Number of nodes outside the largest component (Figure 6's y-axis).
    pub fn nodes_outside_largest(&self) -> usize {
        self.assignment.len() - self.largest()
    }

    /// True if the graph is connected (one component or empty).
    pub fn is_connected(&self) -> bool {
        self.sizes.len() <= 1
    }

    /// Component index (0-based, ordered by decreasing size) of each node.
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// True if nodes `u` and `v` lie in the same component.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn same_component(&self, u: u32, v: u32) -> bool {
        self.assignment[u as usize] == self.assignment[v as usize]
    }
}

/// Computes the connected components of the undirected graph `g`
/// ([`Csr::undirected`]) by repeated BFS.
///
/// Runs in `O(N + E)` time and `O(N)` space.
///
/// # Examples
///
/// ```
/// use pss_graph::{components::connected_components, csr::CsrBuilder};
///
/// let mut b = CsrBuilder::new();
/// for view in [vec![1], vec![], vec![3], vec![], vec![]] {
///     b.push_node(view);
/// }
/// let report = connected_components(&b.finish()?.undirected());
/// assert_eq!(report.count(), 3); // {0,1}, {2,3}, {4}
/// assert_eq!(report.largest(), 2);
/// assert_eq!(report.nodes_outside_largest(), 3);
/// # Ok::<(), pss_graph::GraphError>(())
/// ```
pub fn connected_components(g: &Csr) -> ComponentReport {
    let n = g.node_count();
    let mut raw_assignment = vec![u32::MAX; n];
    let mut raw_sizes: Vec<usize> = Vec::new();
    let mut queue = VecDeque::new();

    for start in 0..n as u32 {
        if raw_assignment[start as usize] != u32::MAX {
            continue;
        }
        let comp = raw_sizes.len() as u32;
        let mut size = 0usize;
        raw_assignment[start as usize] = comp;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            size += 1;
            for &w in g.neighbors(v) {
                if raw_assignment[w as usize] == u32::MAX {
                    raw_assignment[w as usize] = comp;
                    queue.push_back(w);
                }
            }
        }
        raw_sizes.push(size);
    }

    // Re-rank components by decreasing size so index 0 is the largest.
    let mut order: Vec<usize> = (0..raw_sizes.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(raw_sizes[i]));
    let mut rank = vec![0u32; raw_sizes.len()];
    for (new_idx, &old_idx) in order.iter().enumerate() {
        rank[old_idx] = new_idx as u32;
    }
    let assignment: Vec<u32> = raw_assignment
        .into_iter()
        .map(|c| rank[c as usize])
        .collect();
    let mut sizes: Vec<usize> = order.iter().map(|&i| raw_sizes[i]).collect();
    sizes.sort_unstable_by_key(|&s| std::cmp::Reverse(s));

    ComponentReport { sizes, assignment }
}

/// Size of the largest *weakly* connected component of a directed CSR
/// graph — directed edges treated as undirected, by union-find with path
/// halving straight over the edge array, with no undirected-adjacency
/// materialization. This is the snapshot-scale companion to
/// [`connected_components`]: at N = 10⁶ building [`Csr::undirected`] first
/// would double the work.
pub fn largest_weak_component(graph: &Csr) -> usize {
    let n = graph.node_count();
    if n == 0 {
        return 0;
    }
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], mut v: u32) -> u32 {
        while parent[v as usize] != v {
            parent[v as usize] = parent[parent[v as usize] as usize]; // path halving
            v = parent[v as usize];
        }
        v
    }
    for v in 0..n as u32 {
        for &w in graph.neighbors(v) {
            let (a, b) = (find(&mut parent, v), find(&mut parent, w));
            if a != b {
                parent[a as usize] = b;
            }
        }
    }
    let mut sizes = vec![0usize; n];
    let mut largest = 0;
    for v in 0..n as u32 {
        let root = find(&mut parent, v) as usize;
        sizes[root] += 1;
        largest = largest.max(sizes[root]);
    }
    largest
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::undirected_from_edges as graph;

    #[test]
    fn empty_graph_has_no_components() {
        let r = connected_components(&graph(0, &[]));
        assert_eq!(r.count(), 0);
        assert_eq!(r.largest(), 0);
        assert_eq!(r.nodes_outside_largest(), 0);
        assert!(r.is_connected());
    }

    #[test]
    fn singleton_is_connected() {
        let r = connected_components(&graph(1, &[]));
        assert_eq!(r.count(), 1);
        assert!(r.is_connected());
    }

    #[test]
    fn isolated_nodes_are_own_components() {
        let r = connected_components(&graph(4, &[]));
        assert_eq!(r.count(), 4);
        assert_eq!(r.largest(), 1);
        assert_eq!(r.nodes_outside_largest(), 3);
        assert!(!r.is_connected());
    }

    #[test]
    fn path_is_connected() {
        let g = graph(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let r = connected_components(&g);
        assert_eq!(r.count(), 1);
        assert_eq!(r.largest(), 5);
        assert!(r.is_connected());
    }

    #[test]
    fn two_triangles_and_an_isolate() {
        let g = graph(7, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        let r = connected_components(&g);
        assert_eq!(r.count(), 3);
        assert_eq!(r.sizes(), &[3, 3, 1]);
        assert_eq!(r.nodes_outside_largest(), 4);
        assert!(r.same_component(0, 2));
        assert!(!r.same_component(0, 3));
        assert!(!r.is_connected());
    }

    #[test]
    fn assignment_index_zero_is_largest() {
        // Big component second in discovery order; ranking must still put it
        // at index 0.
        let g = graph(5, &[(1, 2), (2, 3), (3, 4)]);
        let r = connected_components(&g);
        assert_eq!(r.sizes(), &[4, 1]);
        assert_eq!(r.assignment()[1], 0);
        assert_eq!(r.assignment()[0], 1);
    }

    #[test]
    fn sizes_sum_to_node_count() {
        let g = graph(9, &[(0, 1), (2, 3), (3, 4), (6, 7)]);
        let r = connected_components(&g);
        assert_eq!(r.sizes().iter().sum::<usize>(), 9);
    }

    fn csr(n: usize, views: &[&[u32]]) -> Csr {
        let mut builder = crate::csr::CsrBuilder::new();
        for v in 0..n {
            builder.push_node(views.get(v).copied().unwrap_or(&[]).iter().copied());
        }
        builder.finish().expect("valid indices")
    }

    #[test]
    fn largest_weak_component_matches_the_undirected_analysis() {
        // Directed edges count as undirected: 0→1, 2→1 is one weak
        // component of 3; nodes 3..5 are a chain; 6 is isolated.
        let g = csr(7, &[&[1], &[], &[1], &[4], &[5], &[]]);
        assert_eq!(largest_weak_component(&g), 3);
        assert_eq!(connected_components(&g.undirected()).largest(), 3);
        assert_eq!(largest_weak_component(&csr(0, &[])), 0);
        // Fully disconnected.
        assert_eq!(largest_weak_component(&csr(4, &[])), 1);
        // Duplicate and self edges are harmless.
        let dup = csr(3, &[&[1, 1, 0], &[2], &[]]);
        assert_eq!(largest_weak_component(&dup), 3);
    }
}
