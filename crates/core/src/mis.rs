//! The MIS problem as a packing/covering pair (Section 5).
//!
//! * Packing part `MP`: independent set — removing edges keeps independence.
//! * Covering part `MC`: dominating set — adding edges keeps domination.
//!
//! Their intersection is the maximal independent set problem. The paper's
//! characterization of partial solutions (before the proof of Lemma 5.5):
//!
//! * a vector is **partial packing** iff no two adjacent nodes are in state
//!   `mis`;
//! * a vector is **partial covering** iff every node in state `dominated`
//!   has a neighbor in state `mis`.

use crate::output::MisOutput;
use crate::problem::DynamicProblem;
use dynnet_graph::{Adjacency, Graph, NodeId};

/// The MIS problem `(MP, MC)`.
#[derive(Clone, Copy, Debug, Default)]
pub struct MisProblem;

impl DynamicProblem for MisProblem {
    type Output = MisOutput;

    fn name(&self) -> &'static str {
        "maximal independent set"
    }

    fn partial_packing_ok_at(&self, g: &impl Adjacency, v: NodeId, out: &[MisOutput]) -> bool {
        if out[v.index()] != MisOutput::InMis {
            return true;
        }
        g.neighbors(v).all(|w| out[w.index()] != MisOutput::InMis)
    }

    fn partial_covering_ok_at(&self, g: &impl Adjacency, v: NodeId, out: &[MisOutput]) -> bool {
        if out[v.index()] != MisOutput::Dominated {
            return true;
        }
        g.neighbors(v).any(|w| out[w.index()] == MisOutput::InMis)
    }

    fn covering_solution_ok_at(&self, g: &impl Adjacency, v: NodeId, out: &[MisOutput]) -> bool {
        // In a full solution every node must be decided and every node must
        // be in the MIS or dominated *by an MIS neighbor in g* — i.e. the MIS
        // is a dominating set of g.
        match out[v.index()] {
            MisOutput::Undecided => false,
            MisOutput::InMis => true,
            MisOutput::Dominated => g.neighbors(v).any(|w| out[w.index()] == MisOutput::InMis),
        }
    }
}

/// Number of nodes currently in the MIS.
pub fn mis_size(out: &[MisOutput]) -> usize {
    out.iter().filter(|o| o.in_mis()).count()
}

/// Number of edges whose both endpoints are in the MIS — the packing
/// violations that Corollary 1.3 keeps transient.
pub fn independence_violations(g: &Graph, out: &[MisOutput]) -> usize {
    g.edges()
        .filter(|e| out[e.u.index()].in_mis() && out[e.v.index()].in_mis())
        .count()
}

/// Number of dominated nodes without an MIS neighbor in `g`.
pub fn domination_violations(g: &Graph, out: &[MisOutput]) -> usize {
    g.nodes()
        .filter(|&v| {
            out[v.index()] == MisOutput::Dominated
                && !g.neighbors(v).any(|w| out[w.index()].in_mis())
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynnet_graph::Edge;

    fn path4() -> Graph {
        Graph::from_edges(4, [Edge::of(0, 1), Edge::of(1, 2), Edge::of(2, 3)])
    }

    fn states(s: &str) -> Vec<MisOutput> {
        s.chars()
            .map(|c| match c {
                'M' => MisOutput::InMis,
                'D' => MisOutput::Dominated,
                _ => MisOutput::Undecided,
            })
            .collect()
    }

    #[test]
    fn partial_packing_rejects_adjacent_mis_nodes() {
        let g = path4();
        let p = MisProblem;
        assert!((0..4).all(|i| p.partial_packing_ok_at(&g, NodeId::new(i), &states("MDMD"))));
        let bad = states("MMDD");
        assert!(!p.partial_packing_ok_at(&g, NodeId::new(0), &bad));
        assert!(!p.partial_packing_ok_at(&g, NodeId::new(1), &bad));
        assert!(
            p.partial_packing_ok_at(&g, NodeId::new(2), &bad),
            "dominated node never violates packing"
        );
    }

    #[test]
    fn partial_covering_requires_mis_neighbor_for_dominated() {
        let g = path4();
        let p = MisProblem;
        let good = states("MD..");
        assert!(p.partial_covering_ok_at(&g, NodeId::new(1), &good));
        let bad = states(".D..");
        assert!(!p.partial_covering_ok_at(&g, NodeId::new(1), &bad));
        // Undecided and MIS nodes always satisfy partial covering.
        assert!(p.partial_covering_ok_at(&g, NodeId::new(2), &bad));
        assert!(p.partial_covering_ok_at(&g, NodeId::new(0), &states("M...")));
    }

    #[test]
    fn full_covering_requires_every_node_decided_and_dominated() {
        let g = path4();
        let p = MisProblem;
        let full = states("MDMD");
        assert!((0..4).all(|i| p.covering_solution_ok_at(&g, NodeId::new(i), &full)));
        assert!(!p.covering_solution_ok_at(&g, NodeId::new(3), &states("MDM.")));
        // A dominated node whose dominator left the graph violates covering.
        let orphan = states("DDMD");
        assert!(!p.covering_solution_ok_at(&g, NodeId::new(0), &orphan));
    }

    #[test]
    fn packing_solution_requires_decided() {
        let g = path4();
        let p = MisProblem;
        assert!(!p.packing_solution_ok_at(&g, NodeId::new(0), &states(".DMD")));
        assert!(p.packing_solution_ok_at(&g, NodeId::new(0), &states("MDMD")));
    }

    #[test]
    fn metrics() {
        let g = path4();
        assert_eq!(mis_size(&states("MDMD")), 2);
        assert_eq!(independence_violations(&g, &states("MMDD")), 1);
        assert_eq!(independence_violations(&g, &states("MDMD")), 0);
        assert_eq!(domination_violations(&g, &states("DDMD")), 1);
        assert_eq!(domination_violations(&g, &states("MDMD")), 0);
    }

    #[test]
    fn partial_solution_interface() {
        let g = path4();
        let p = MisProblem;
        let nodes: Vec<NodeId> = (0..4).map(NodeId::new).collect();
        assert!(
            !p.is_partial_solution(&g, &states("M.D."), &nodes),
            "dominated node 2 has no MIS neighbor"
        );
        assert!(p.is_partial_solution(&g, &states("MD.."), &nodes));
        assert_eq!(p.name(), "maximal independent set");
    }
}
