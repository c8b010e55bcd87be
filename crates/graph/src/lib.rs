//! # dynnet-graph
//!
//! Graph substrate for the `dynnet` reproduction of *"Local Distributed
//! Algorithms in Highly Dynamic Networks"* (Bamberger, Kuhn, Maus).
//!
//! The crate provides:
//!
//! * [`NodeId`] / [`Edge`] — dense node identifiers over a fixed universe of
//!   `n` potential nodes, canonical undirected edges (Section 2 of the paper).
//! * [`Graph`] — the mutable per-round communication graph `G_r`, with node
//!   activity flags modelling asynchronous wake-up, and [`Adjacency`] — the
//!   read-only neighbor/degree interface the solution checks run on.
//! * [`CsrGraph`] — compressed-sparse-row snapshots used by the simulator's
//!   parallel round execution, patchable in place from a [`GraphDelta`]
//!   (`O(|δ|)` per round on the sparse-churn path).
//! * [`GraphWindow`] — delta-native sliding window exposing the
//!   `T`-intersection graph `G^∩T_r` and `T`-union graph `G^∪T_r`
//!   (Definition 2.1) as in-place [`Adjacency`] views over one set of
//!   incidence lists, plus "locally static" neighborhood checks. Every push
//!   returns a [`WindowUpdate`] — the round's window-membership events
//!   (tight delta, edges aging out of the union, runs maturing into the
//!   intersection) that incremental consumers such as the `O(|δ| + churn)`
//!   T-dynamic verifier in `dynnet-core` patch their state from.
//! * [`GraphDelta`] / [`DynamicGraphTrace`] — the per-round change records
//!   that are the native currency of the round pipeline, and recorded
//!   dynamic graph sequences for replaying identical adversarial schedules
//!   across algorithms.
//! * [`codec`] — the compact varint wire format for deltas and the
//!   append-only delta log files behind the durable trace store.
//! * [`generators`] — deterministic and random graph families.
//! * [`algo`] — centralized algorithms and validity predicates used by the
//!   solution checkers and baselines.
//! * [`neighborhood`] — `N^α(v)` balls and local-view comparisons.
//! * [`export`] — DOT / edge-list / JSON output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algo;
pub mod codec;
pub mod csr;
pub mod dynamic;
pub mod export;
pub mod generators;
pub mod graph;
pub mod neighborhood;
pub mod node;
pub mod window;

pub use codec::{CodecError, DeltaLogReader, DeltaLogWriter, LogStats};
pub use csr::{CsrApplyOutcome, CsrGraph};
pub use dynamic::{DynamicGraphTrace, GraphDelta};
pub use graph::{Adjacency, Graph};
pub use node::{Edge, NodeId};
pub use window::{
    window_graphs_bruteforce, GraphWindow, IntersectionView, QueueDepths, UnionView, WindowUpdate,
};

#[cfg(test)]
mod randomized_tests {
    //! Seeded randomized property checks (previously proptest-based; rewritten
    //! over the workspace RNG so they run in the offline build environment).

    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    const CASES: usize = 64;

    /// A small random graph over 2..max_n nodes with up to 2n random edges.
    fn random_graph(max_n: usize, rng: &mut ChaCha8Rng) -> Graph {
        let n = rng.gen_range(2..max_n);
        let mut g = Graph::new(n);
        for _ in 0..rng.gen_range(0..2 * n) {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            if a != b {
                g.insert_edge(NodeId::new(a), NodeId::new(b));
            }
        }
        g
    }

    #[test]
    fn edge_count_consistent_with_iteration() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..CASES {
            let g = random_graph(20, &mut rng);
            assert_eq!(g.edges().count(), g.num_edges());
            let degree_sum: usize = g.nodes().map(|v| g.degree(v)).sum();
            assert_eq!(degree_sum, 2 * g.num_edges());
        }
    }

    #[test]
    fn csr_snapshot_equivalent() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for _ in 0..CASES {
            let g = random_graph(20, &mut rng);
            let c = CsrGraph::from_graph(&g);
            assert_eq!(c.num_edges(), g.num_edges());
            for v in g.nodes() {
                assert_eq!(c.degree(v), g.degree(v));
            }
            assert_eq!(c.to_graph(), g);
        }
    }

    #[test]
    fn greedy_coloring_proper_and_bounded() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..CASES {
            let g = random_graph(20, &mut rng);
            let colors = algo::greedy_coloring(&g);
            assert!(algo::is_proper_coloring(&g, &colors));
            for v in g.active_nodes() {
                assert!(colors[v.index()] >= 1);
                assert!(colors[v.index()] <= g.degree(v) + 1);
            }
        }
    }

    #[test]
    fn greedy_mis_maximal() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        for _ in 0..CASES {
            let g = random_graph(20, &mut rng);
            let mis = algo::greedy_mis(&g);
            assert!(algo::is_maximal_independent_set(&g, &mis));
        }
    }

    #[test]
    fn window_incremental_matches_bruteforce() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for _ in 0..CASES {
            let num_graphs = rng.gen_range(1..8);
            let window = rng.gen_range(1..5usize);
            let graphs: Vec<Graph> = (0..num_graphs)
                .map(|_| random_graph(10, &mut rng))
                .collect();
            // All graphs must share a universe; re-map them onto the max n.
            let n = graphs.iter().map(|g| g.num_nodes()).max().unwrap();
            let mut w = GraphWindow::new(n, window);
            let mut history: Vec<Graph> = Vec::new();
            for g in &graphs {
                let mut resized = Graph::new(n);
                for e in g.edges() {
                    resized.insert_edge(e.u, e.v);
                }
                w.push(&resized);
                history.push(resized);
                let last_t = &history[history.len().saturating_sub(window)..];
                let (inter, union) = window_graphs_bruteforce(last_t).unwrap();
                assert_eq!(w.intersection_graph().edge_vec(), inter.edge_vec());
                assert_eq!(w.union_graph().edge_vec(), union.edge_vec());
            }
        }
    }

    #[test]
    fn union_contains_intersection() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        for _ in 0..CASES {
            let num_graphs = rng.gen_range(1..6);
            let graphs: Vec<Graph> = (0..num_graphs)
                .map(|_| random_graph(10, &mut rng))
                .collect();
            let n = graphs.iter().map(|g| g.num_nodes()).max().unwrap();
            let mut w = GraphWindow::new(n, 4);
            for g in &graphs {
                let mut resized = Graph::new(n);
                for e in g.edges() {
                    resized.insert_edge(e.u, e.v);
                }
                w.push(&resized);
            }
            let inter = w.intersection_graph();
            let uni = w.union_graph();
            for e in inter.edges() {
                assert!(uni.has_edge(e.u, e.v), "G^∩T ⊆ G^∪T must hold");
            }
            // Current graph lies between them edge-wise.
            let cur = w.current_graph();
            for e in inter.edges() {
                assert!(cur.has_edge(e.u, e.v), "G^∩T ⊆ G_r");
            }
            for e in cur.edges() {
                assert!(uni.has_edge(e.u, e.v), "G_r ⊆ G^∪T");
            }
        }
    }

    #[test]
    fn delta_roundtrip() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for _ in 0..CASES {
            let g1 = random_graph(15, &mut rng);
            let g2 = random_graph(15, &mut rng);
            let n = g1.num_nodes().max(g2.num_nodes());
            let mut a = Graph::new(n);
            for e in g1.edges() {
                a.insert_edge(e.u, e.v);
            }
            let mut b = Graph::new(n);
            for e in g2.edges() {
                b.insert_edge(e.u, e.v);
            }
            let d = GraphDelta::between(&a, &b);
            let mut x = a.clone();
            d.apply(&mut x);
            assert_eq!(x.edge_vec(), b.edge_vec());
        }
    }

    #[test]
    fn greedy_extension_of_valid_partial_is_proper() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        for _ in 0..CASES {
            let g = random_graph(15, &mut rng);
            // Build a partial coloring from the greedy coloring restricted by
            // a random mask.
            let full = algo::greedy_coloring(&g);
            let partial: Vec<Option<usize>> = (0..g.num_nodes())
                .map(|i| {
                    if rng.gen_bool(0.5) {
                        Some(full[i]).filter(|&c| c != 0)
                    } else {
                        None
                    }
                })
                .collect();
            let ext = algo::greedy_extend_coloring(&g, &partial)
                .expect("restriction of a proper coloring is extendable");
            assert!(algo::is_proper_coloring(&g, &ext));
        }
    }
}
