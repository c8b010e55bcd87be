//! T-dynamic solution checking (Section 1.1 / Section 3).
//!
//! An output vector is a *T-dynamic solution* at round `r` if it satisfies
//! the packing property on the intersection graph `G^∩T_r` and the covering
//! property on the union graph `G^∪T_r`. The checks are restricted to the
//! node set `V^∩T_r` — nodes awake throughout the window — exactly as in
//! Definition 2.1. While fewer than `T` rounds have been pushed into the
//! window the guarantee is vacuous only when nodes genuinely have not been
//! awake for `T` rounds; for synchronous starts the caller should begin
//! asserting at round `T-1` (cf. the proof of Theorem 1.1).

use crate::output::HasBottom;
use crate::problem::{densify_outputs, DynamicProblem};
use dynnet_graph::{Adjacency, GraphWindow, NodeId};

/// Result of checking one round's output against the window.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TDynamicReport {
    /// Nodes in `V^∩T_r` that are still `⊥` (a full T-dynamic solution
    /// requires all of them to be decided).
    pub undecided: Vec<NodeId>,
    /// Nodes violating the packing property on `G^∩T_r`.
    pub packing_violations: Vec<NodeId>,
    /// Nodes violating the covering property on `G^∪T_r`.
    pub covering_violations: Vec<NodeId>,
    /// Number of nodes that were subject to the check (`|V^∩T_r|`).
    pub checked_nodes: usize,
}

impl TDynamicReport {
    /// Returns `true` if the output is a T-dynamic solution: every node of
    /// `V^∩T_r` is decided, packing holds on the intersection graph and
    /// covering holds on the union graph.
    pub fn is_solution(&self) -> bool {
        self.undecided.is_empty()
            && self.packing_violations.is_empty()
            && self.covering_violations.is_empty()
    }

    /// Returns `true` if the decided part is consistent (no packing/covering
    /// violations), ignoring undecided nodes — the "partial solution" notion
    /// on the window graphs.
    pub fn is_partial_solution(&self) -> bool {
        self.packing_violations.is_empty() && self.covering_violations.is_empty()
    }

    /// Total number of violations (excluding undecided nodes).
    pub fn num_violations(&self) -> usize {
        self.packing_violations.len() + self.covering_violations.len()
    }
}

/// The verdict of one node's T-dynamic check: the three facts the round
/// summary is built from. Produced by [`node_verdict`]; the batch
/// [`check_t_dynamic`] evaluates it for every node of `V^∩T_r`, the
/// incremental verifier (`dynnet_core::verify::ViolationLedger`) only for
/// the round's dirty nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeVerdict {
    /// The node's output is `⊥` (blocks a *full* T-dynamic solution).
    pub undecided: bool,
    /// The packing property holds at the node on `G^∩T_r`. Vacuously `true`
    /// for undecided nodes — the packing/covering predicates are only
    /// evaluated on decided outputs.
    pub packing_ok: bool,
    /// The covering property holds at the node on `G^∪T_r` (vacuously `true`
    /// for undecided nodes).
    pub covering_ok: bool,
}

impl NodeVerdict {
    /// The verdict of a node that is not subject to checking at all (outside
    /// `V^∩T_r`): decided-enough, violating nothing.
    pub const CLEAR: NodeVerdict = NodeVerdict {
        undecided: false,
        packing_ok: true,
        covering_ok: true,
    };

    /// Returns `true` if the node contributes nothing against a full
    /// T-dynamic solution (decided, packing and covering both hold).
    pub fn is_clean(&self) -> bool {
        !self.undecided && self.packing_ok && self.covering_ok
    }
}

/// Evaluates one node of `V^∩T_r` against the window graphs: the per-node
/// kernel shared by the batch checker and the incremental verifier.
///
/// `dense` must be the ⊥-densified output vector (see
/// [`crate::problem::densify_outputs`]); `intersection` / `union` must carry
/// the adjacency of `G^∩T_r` / `G^∪T_r` — materialized
/// [`dynnet_graph::Graph`]s in the batch checker, the window's in-place views
/// in the incremental verifier.
/// Cost: `O(deg_union(v))` for the radius-1 problems of the paper.
pub fn node_verdict<P: DynamicProblem>(
    problem: &P,
    intersection: &impl Adjacency,
    union: &impl Adjacency,
    v: NodeId,
    dense: &[P::Output],
) -> NodeVerdict {
    if dense[v.index()].is_bottom() {
        return NodeVerdict {
            undecided: true,
            packing_ok: true,
            covering_ok: true,
        };
    }
    NodeVerdict {
        undecided: false,
        packing_ok: problem.packing_solution_ok_at(intersection, v, dense),
        covering_ok: problem.covering_solution_ok_at(union, v, dense),
    }
}

/// Checks whether `outputs` (as published by the simulator, `None` = asleep)
/// is a T-dynamic solution with respect to the given window — the full
/// re-check: both window graphs are materialized as [`dynnet_graph::Graph`]s
/// and every node of `V^∩T_r` is re-evaluated (`O(n + |G^∪T|)` per call), so
/// it shares no adjacency code with the incremental path. The streaming
/// [`crate::TDynamicVerifier`] reaches the same verdicts in
/// `O(|δ| + output churn)` per round.
pub fn check_t_dynamic<P: DynamicProblem>(
    problem: &P,
    window: &GraphWindow,
    outputs: &[Option<P::Output>],
) -> TDynamicReport {
    let dense = densify_outputs(outputs);
    let nodes = window.intersection_nodes();
    let inter = window.intersection_graph();
    let union = window.union_graph();

    let mut undecided = Vec::new();
    let mut packing_violations = Vec::new();
    let mut covering_violations = Vec::new();
    for &v in &nodes {
        let verdict = node_verdict(problem, &inter, &union, v, &dense);
        if verdict.undecided {
            undecided.push(v);
            continue;
        }
        if !verdict.packing_ok {
            packing_violations.push(v);
        }
        if !verdict.covering_ok {
            covering_violations.push(v);
        }
    }
    TDynamicReport {
        undecided,
        packing_violations,
        covering_violations,
        checked_nodes: nodes.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coloring::ColoringProblem;
    use crate::mis::MisProblem;
    use crate::output::{ColorOutput, MisOutput};
    use dynnet_graph::{Edge, Graph, GraphWindow};

    fn window_from(n: usize, rounds: &[&[(usize, usize)]], t: usize) -> GraphWindow {
        let mut w = GraphWindow::new(n, t);
        for edges in rounds {
            let g = Graph::from_edges(n, edges.iter().map(|&(a, b)| Edge::of(a, b)));
            w.push(&g);
        }
        w
    }

    #[test]
    fn coloring_t_dynamic_packing_on_intersection_only() {
        // Edge {0,1} present only in the first of two rounds -> not in G^∩2,
        // so equal colors on 0 and 1 do NOT violate packing; but {1,2} is in
        // every round and must be properly colored.
        let w = window_from(3, &[&[(0, 1), (1, 2)], &[(1, 2)]], 2);
        let p = ColoringProblem;
        let out = vec![
            Some(ColorOutput::Colored(1)),
            Some(ColorOutput::Colored(1)),
            Some(ColorOutput::Colored(2)),
        ];
        let report = check_t_dynamic(&p, &w, &out);
        assert!(report.is_solution(), "{report:?}");

        let conflict = vec![
            Some(ColorOutput::Colored(1)),
            Some(ColorOutput::Colored(2)),
            Some(ColorOutput::Colored(2)),
        ];
        let report = check_t_dynamic(&p, &w, &conflict);
        assert!(!report.is_solution());
        assert_eq!(
            report.packing_violations,
            vec![NodeId::new(1), NodeId::new(2)]
        );
    }

    #[test]
    fn coloring_t_dynamic_covering_on_union_degree() {
        // Node 0 sees neighbor 1 in round 0 and neighbor 2 in round 1:
        // union degree 2, so color 3 is allowed even though the current
        // degree is 1.
        let w = window_from(3, &[&[(0, 1)], &[(0, 2)]], 2);
        let p = ColoringProblem;
        let out = vec![
            Some(ColorOutput::Colored(3)),
            Some(ColorOutput::Colored(1)),
            Some(ColorOutput::Colored(1)),
        ];
        assert!(check_t_dynamic(&p, &w, &out).is_solution());
        // Color 4 exceeds union degree + 1 = 3.
        let too_big = vec![
            Some(ColorOutput::Colored(4)),
            Some(ColorOutput::Colored(1)),
            Some(ColorOutput::Colored(1)),
        ];
        let report = check_t_dynamic(&p, &w, &too_big);
        assert_eq!(report.covering_violations, vec![NodeId::new(0)]);
        assert!(report.packing_violations.is_empty());
    }

    #[test]
    fn undecided_nodes_block_full_solution_but_not_partial() {
        let w = window_from(2, &[&[(0, 1)]], 1);
        let p = ColoringProblem;
        let out = vec![Some(ColorOutput::Colored(1)), Some(ColorOutput::Undecided)];
        let report = check_t_dynamic(&p, &w, &out);
        assert!(!report.is_solution());
        assert!(report.is_partial_solution());
        assert_eq!(report.undecided, vec![NodeId::new(1)]);
        assert_eq!(report.checked_nodes, 2);
    }

    #[test]
    fn mis_t_dynamic_domination_on_union() {
        // Node 2 is dominated by node 0 only via an edge that existed in
        // round 0 but not round 1: domination is checked on the union graph,
        // so this is still valid.
        let w = window_from(3, &[&[(0, 2), (0, 1)], &[(0, 1)]], 2);
        let p = MisProblem;
        let out = vec![
            Some(MisOutput::InMis),
            Some(MisOutput::Dominated),
            Some(MisOutput::Dominated),
        ];
        assert!(check_t_dynamic(&p, &w, &out).is_solution());
    }

    #[test]
    fn mis_t_dynamic_independence_on_intersection() {
        // Nodes 0 and 1 adjacent in every round: both in MIS is a packing
        // violation; if the edge is missing in one round it is not.
        let p = MisProblem;
        let out = vec![Some(MisOutput::InMis), Some(MisOutput::InMis)];
        let persistent = window_from(2, &[&[(0, 1)], &[(0, 1)]], 2);
        assert!(!check_t_dynamic(&p, &persistent, &out).is_solution());
        let transient = window_from(2, &[&[(0, 1)], &[]], 2);
        let report = check_t_dynamic(&p, &transient, &out);
        assert!(report.packing_violations.is_empty());
        // But both-in-MIS with no edges at all is a fine T-dynamic solution.
        assert!(report.is_solution());
    }

    #[test]
    fn sleeping_nodes_are_excluded_from_checks() {
        let mut w = GraphWindow::new(3, 2);
        let mut g0 = Graph::new_all_asleep(3);
        g0.insert_edge(NodeId::new(0), NodeId::new(1));
        w.push(&g0);
        w.push(&g0);
        let p = MisProblem;
        // Node 2 is asleep (None) and not in V^∩T: not required to be decided.
        let out = vec![Some(MisOutput::InMis), Some(MisOutput::Dominated), None];
        let report = check_t_dynamic(&p, &w, &out);
        assert_eq!(report.checked_nodes, 2);
        assert!(report.is_solution());
    }

    #[test]
    fn report_accessors() {
        let w = window_from(2, &[&[(0, 1)], &[(0, 1)]], 2);
        let p = ColoringProblem;
        let out = vec![Some(ColorOutput::Colored(1)), Some(ColorOutput::Colored(1))];
        let report = check_t_dynamic(&p, &w, &out);
        assert_eq!(report.num_violations(), 2);
        assert!(!report.is_partial_solution());
    }
}
