//! The mutable, hash-based undirected simple graph used as the per-round
//! communication graph `G_r` and as the working representation inside the
//! adversaries.
//!
//! The node universe is fixed at construction (`0..n`); nodes are "active"
//! or "inactive" (asleep). This mirrors the paper's model where
//! `∅ = V_0 ⊆ V_1 ⊆ …` grows over time and a node leaving the network is
//! modeled by removing all of its incident edges while keeping it in the
//! universe (Section 2).

use crate::node::{Edge, NodeId};
use std::collections::BTreeSet;

/// An undirected simple graph on a fixed universe of `n` potential nodes.
///
/// Adjacency is stored as a sorted set per node (`BTreeSet`), which gives
/// deterministic iteration order — important for reproducible simulations —
/// at `O(log deg)` insertion/removal cost.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    n: usize,
    adj: Vec<BTreeSet<NodeId>>,
    active: Vec<bool>,
    num_edges: usize,
}

impl Graph {
    /// Creates an empty graph over `n` potential nodes; all nodes are active.
    pub fn new(n: usize) -> Self {
        Graph {
            n,
            adj: vec![BTreeSet::new(); n],
            active: vec![true; n],
            num_edges: 0,
        }
    }

    /// Creates an empty graph over `n` potential nodes with every node
    /// initially inactive (asleep), as in the asynchronous wake-up model
    /// where `V_0 = ∅`.
    pub fn new_all_asleep(n: usize) -> Self {
        Graph {
            n,
            adj: vec![BTreeSet::new(); n],
            active: vec![false; n],
            num_edges: 0,
        }
    }

    /// Builds a graph from an edge list over `n` nodes. All nodes are active.
    pub fn from_edges<I>(n: usize, edges: I) -> Self
    where
        I: IntoIterator<Item = Edge>,
    {
        let mut g = Graph::new(n);
        for e in edges {
            g.insert_edge(e.u, e.v);
        }
        g
    }

    /// Number of potential nodes `n` (the universe size known to all nodes).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of edges currently present.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Number of currently active (awake) nodes.
    pub fn num_active(&self) -> usize {
        self.active.iter().filter(|a| **a).count()
    }

    /// Returns `true` if node `v` is active (awake).
    #[inline]
    pub fn is_active(&self, v: NodeId) -> bool {
        self.active[v.index()]
    }

    /// Marks node `v` active (awake). Waking a node never removes edges.
    #[inline]
    pub fn activate(&mut self, v: NodeId) {
        self.active[v.index()] = true;
    }

    /// Marks node `v` inactive and removes all of its incident edges —
    /// the paper's model of a node leaving the network.
    pub fn deactivate(&mut self, v: NodeId) {
        let neighbors: Vec<NodeId> = self.adj[v.index()].iter().copied().collect();
        for u in neighbors {
            self.remove_edge(v, u);
        }
        self.active[v.index()] = false;
    }

    /// Iterator over all node ids in the universe, active or not.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.n).map(NodeId::new)
    }

    /// Iterator over the ids of active nodes.
    pub fn active_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.n).filter(|&i| self.active[i]).map(NodeId::new)
    }

    /// Returns `true` if the edge `{u, v}` is present.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.adj[u.index()].contains(&v)
    }

    /// Inserts the edge `{u, v}`. Returns `true` if the edge was newly added.
    /// Inserting an edge implicitly activates both endpoints.
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        assert!(u != v, "self-loops are not allowed");
        assert!(
            u.index() < self.n && v.index() < self.n,
            "node out of range"
        );
        let added = self.adj[u.index()].insert(v);
        if added {
            self.adj[v.index()].insert(u);
            self.num_edges += 1;
            self.active[u.index()] = true;
            self.active[v.index()] = true;
        }
        added
    }

    /// Removes the edge `{u, v}`. Returns `true` if the edge was present.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        let removed = self.adj[u.index()].remove(&v);
        if removed {
            self.adj[v.index()].remove(&u);
            self.num_edges -= 1;
        }
        removed
    }

    /// Toggles the edge `{u, v}`: removes it if present, inserts it otherwise.
    /// Returns `true` if the edge is present after the call.
    pub fn toggle_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if self.has_edge(u, v) {
            self.remove_edge(u, v);
            false
        } else {
            self.insert_edge(u, v);
            true
        }
    }

    /// Degree of `v` in this graph.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.adj[v.index()].len()
    }

    /// Maximum degree over all nodes.
    pub fn max_degree(&self) -> usize {
        (0..self.n).map(|i| self.adj[i].len()).max().unwrap_or(0)
    }

    /// Average degree over active nodes (0.0 if no active node).
    pub fn avg_degree(&self) -> f64 {
        let active = self.num_active();
        if active == 0 {
            0.0
        } else {
            2.0 * self.num_edges as f64 / active as f64
        }
    }

    /// Iterator over the neighbors of `v` in deterministic (ascending) order.
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.adj[v.index()].iter().copied()
    }

    /// Collects the neighbors of `v` into a vector.
    pub fn neighbors_vec(&self, v: NodeId) -> Vec<NodeId> {
        self.adj[v.index()].iter().copied().collect()
    }

    /// Iterator over all edges in canonical order (each edge reported once).
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        (0..self.n).flat_map(move |i| {
            let u = NodeId::new(i);
            self.adj[i]
                .iter()
                .copied()
                .filter(move |&w| w > u)
                .map(move |w| Edge::new(u, w))
        })
    }

    /// Collects all edges into a vector (canonical order).
    pub fn edge_vec(&self) -> Vec<Edge> {
        self.edges().collect()
    }

    /// Removes all edges but keeps node activity flags.
    pub fn clear_edges(&mut self) {
        for s in &mut self.adj {
            s.clear();
        }
        self.num_edges = 0;
    }

    /// Returns the subgraph induced by the node set `keep` (nodes outside the
    /// set lose all incident edges and become inactive). The node universe
    /// size is preserved so ids remain valid.
    pub fn induced_subgraph(&self, keep: &[NodeId]) -> Graph {
        let mut in_set = vec![false; self.n];
        for &v in keep {
            in_set[v.index()] = true;
        }
        let mut g = Graph::new_all_asleep(self.n);
        for &v in keep {
            if self.active[v.index()] {
                g.active[v.index()] = true;
            }
        }
        for e in self.edges() {
            if in_set[e.u.index()] && in_set[e.v.index()] {
                g.insert_edge(e.u, e.v);
            }
        }
        g
    }

    /// Edge-set intersection with `other` (same node universe required).
    pub fn intersection(&self, other: &Graph) -> Graph {
        assert_eq!(self.n, other.n, "graphs must share the node universe");
        let mut g = Graph::new_all_asleep(self.n);
        for i in 0..self.n {
            if self.active[i] && other.active[i] {
                g.active[i] = true;
            }
        }
        for e in self.edges() {
            if other.has_edge(e.u, e.v) {
                g.insert_edge(e.u, e.v);
            }
        }
        g
    }

    /// Edge-set union with `other` (same node universe required).
    ///
    /// Following Definition 2.1 the node set of the union graph is the
    /// *intersection* `V^∩T` of the node sets (nodes awake throughout), while
    /// the edge set is the union.
    pub fn union(&self, other: &Graph) -> Graph {
        assert_eq!(self.n, other.n, "graphs must share the node universe");
        let mut g = Graph::new_all_asleep(self.n);
        for i in 0..self.n {
            if self.active[i] && other.active[i] {
                g.active[i] = true;
            }
        }
        for e in self.edges().chain(other.edges()) {
            g.insert_edge(e.u, e.v);
        }
        g
    }

    /// Symmetric difference of the edge sets: edges present in exactly one of
    /// the two graphs. Useful for measuring how much an adversary changed.
    pub fn edge_symmetric_difference(&self, other: &Graph) -> Vec<Edge> {
        let mut out = Vec::new();
        for e in self.edges() {
            if !other.has_edge(e.u, e.v) {
                out.push(e);
            }
        }
        for e in other.edges() {
            if !self.has_edge(e.u, e.v) {
                out.push(e);
            }
        }
        out
    }

    /// Returns `true` if both graphs have exactly the same edge set
    /// restricted to the given nodes (used for "locally static" checks).
    pub fn same_edges_on(&self, other: &Graph, nodes: &[NodeId]) -> bool {
        for &v in nodes {
            if self.adj[v.index()] != other.adj[v.index()] {
                return false;
            }
        }
        true
    }
}

/// Read-only adjacency: what a radius-1 LCL check needs from a graph.
///
/// Implemented by [`Graph`] and by the window views
/// [`crate::IntersectionView`] and [`crate::UnionView`], so a per-node check
/// can run on `G^∩T_r` / `G^∪T_r` straight from a [`crate::GraphWindow`]'s
/// incidence lists without materializing either graph.
pub trait Adjacency {
    /// The neighbors of `v`.
    fn neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_;

    /// The number of neighbors of `v`.
    fn degree(&self, v: NodeId) -> usize;
}

impl Adjacency for Graph {
    fn neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        Graph::neighbors(self, v)
    }

    fn degree(&self, v: NodeId) -> usize {
        Graph::degree(self, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> Graph {
        Graph::from_edges(3, [Edge::of(0, 1), Edge::of(1, 2)])
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new(5);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.num_active(), 5);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.edge_vec(), vec![]);
    }

    #[test]
    fn insert_and_remove_edges() {
        let mut g = Graph::new(4);
        assert!(g.insert_edge(NodeId::new(0), NodeId::new(1)));
        assert!(
            !g.insert_edge(NodeId::new(1), NodeId::new(0)),
            "duplicate insert is a no-op"
        );
        assert_eq!(g.num_edges(), 1);
        assert!(g.has_edge(NodeId::new(0), NodeId::new(1)));
        assert!(g.has_edge(NodeId::new(1), NodeId::new(0)));
        assert!(g.remove_edge(NodeId::new(0), NodeId::new(1)));
        assert!(!g.remove_edge(NodeId::new(0), NodeId::new(1)));
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn toggle_edge_flips_presence() {
        let mut g = Graph::new(3);
        assert!(g.toggle_edge(NodeId::new(0), NodeId::new(2)));
        assert!(g.has_edge(NodeId::new(0), NodeId::new(2)));
        assert!(!g.toggle_edge(NodeId::new(0), NodeId::new(2)));
        assert!(!g.has_edge(NodeId::new(0), NodeId::new(2)));
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = path3();
        assert_eq!(g.degree(NodeId::new(1)), 2);
        assert_eq!(g.degree(NodeId::new(0)), 1);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(
            g.neighbors_vec(NodeId::new(1)),
            vec![NodeId::new(0), NodeId::new(2)]
        );
        assert!((g.avg_degree() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn edges_are_reported_once_in_canonical_order() {
        let g = path3();
        assert_eq!(g.edge_vec(), vec![Edge::of(0, 1), Edge::of(1, 2)]);
    }

    #[test]
    fn deactivate_removes_incident_edges() {
        let mut g = path3();
        g.deactivate(NodeId::new(1));
        assert_eq!(g.num_edges(), 0);
        assert!(!g.is_active(NodeId::new(1)));
        assert_eq!(g.num_active(), 2);
    }

    #[test]
    fn inserting_edge_activates_endpoints() {
        let mut g = Graph::new_all_asleep(3);
        assert_eq!(g.num_active(), 0);
        g.insert_edge(NodeId::new(0), NodeId::new(2));
        assert!(g.is_active(NodeId::new(0)));
        assert!(g.is_active(NodeId::new(2)));
        assert!(!g.is_active(NodeId::new(1)));
    }

    #[test]
    fn intersection_and_union() {
        let g1 = Graph::from_edges(4, [Edge::of(0, 1), Edge::of(1, 2)]);
        let g2 = Graph::from_edges(4, [Edge::of(1, 2), Edge::of(2, 3)]);
        let gi = g1.intersection(&g2);
        let gu = g1.union(&g2);
        assert_eq!(gi.edge_vec(), vec![Edge::of(1, 2)]);
        assert_eq!(
            gu.edge_vec(),
            vec![Edge::of(0, 1), Edge::of(1, 2), Edge::of(2, 3)]
        );
    }

    #[test]
    fn symmetric_difference() {
        let g1 = Graph::from_edges(4, [Edge::of(0, 1), Edge::of(1, 2)]);
        let g2 = Graph::from_edges(4, [Edge::of(1, 2), Edge::of(2, 3)]);
        let mut d = g1.edge_symmetric_difference(&g2);
        d.sort();
        assert_eq!(d, vec![Edge::of(0, 1), Edge::of(2, 3)]);
    }

    #[test]
    fn induced_subgraph_keeps_universe_size() {
        let g = Graph::from_edges(5, [Edge::of(0, 1), Edge::of(1, 2), Edge::of(3, 4)]);
        let sub = g.induced_subgraph(&[NodeId::new(0), NodeId::new(1), NodeId::new(2)]);
        assert_eq!(sub.num_nodes(), 5);
        assert_eq!(sub.edge_vec(), vec![Edge::of(0, 1), Edge::of(1, 2)]);
        assert!(!sub.is_active(NodeId::new(3)));
    }

    #[test]
    fn same_edges_on_detects_local_changes() {
        let g1 = Graph::from_edges(4, [Edge::of(0, 1), Edge::of(2, 3)]);
        let mut g2 = g1.clone();
        assert!(g1.same_edges_on(&g2, &[NodeId::new(0), NodeId::new(1)]));
        g2.insert_edge(NodeId::new(1), NodeId::new(2));
        assert!(!g1.same_edges_on(&g2, &[NodeId::new(1)]));
        assert!(g1.same_edges_on(&g2, &[NodeId::new(0)]));
    }

    #[test]
    fn clear_edges() {
        let mut g = path3();
        g.clear_edges();
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.num_active(), 3);
    }
}
