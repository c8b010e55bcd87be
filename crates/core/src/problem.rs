//! Packing/covering problem abstraction (Definitions 3.1 and 3.2).
//!
//! A distributed graph problem is *packing* if solutions survive edge
//! removals and *covering* if they survive edge additions. The framework
//! works with problems that decompose into a packing part `P` and a covering
//! part `C` and whose feasibility is locally checkable (LCL, radius 1 for
//! both MIS and coloring).
//!
//! A [`DynamicProblem`] bundles the checks the framework needs:
//!
//! * *partial packing / partial covering* (Definition 3.2) of a partial
//!   output vector on a graph — used for property B.1 of network-static
//!   algorithms;
//! * *full packing / covering solutions* on a graph — used for the T-dynamic
//!   solution checks on the intersection/union graphs.
//!
//! The trait exposes per-node violation queries so that the experiment
//! harness can count violations instead of only seeing a boolean. The
//! per-node queries take any [`Adjacency`] — a [`Graph`] or a window view
//! of `G^∩T_r` / `G^∪T_r` read in place from a `GraphWindow`.

use crate::output::HasBottom;
use dynnet_graph::{Adjacency, Graph, NodeId};

/// A graph problem decomposed into a packing part and a covering part, with
/// locally checkable validity.
pub trait DynamicProblem: Send + Sync {
    /// The per-node output type (must have a `⊥` value).
    type Output: HasBottom + Send + Sync;

    /// Human-readable problem name (used in reports).
    fn name(&self) -> &'static str;

    /// The LCL checking radius (1 for coloring and MIS).
    fn radius(&self) -> usize {
        1
    }

    /// Returns `true` if the *packing* LCL condition holds at `v` assuming
    /// the decided part of `out` around `v`. Per Definition 3.2 this is the
    /// check that must be satisfiable by *some* full extension; for the
    /// problems considered here the characterizations from the paper are
    /// used (e.g. "no two adjacent decided nodes share a color").
    fn partial_packing_ok_at(&self, g: &impl Adjacency, v: NodeId, out: &[Self::Output]) -> bool;

    /// Returns `true` if the *covering* LCL condition at `v` holds for *all*
    /// extensions of the decided part of `out` (Definition 3.2).
    fn partial_covering_ok_at(&self, g: &impl Adjacency, v: NodeId, out: &[Self::Output]) -> bool;

    /// Returns `true` if the packing condition holds at `v` for a *full*
    /// solution (additionally requiring `v` to be decided).
    fn packing_solution_ok_at(&self, g: &impl Adjacency, v: NodeId, out: &[Self::Output]) -> bool {
        out[v.index()].is_decided() && self.partial_packing_ok_at(g, v, out)
    }

    /// Returns `true` if the covering condition holds at `v` for a *full*
    /// solution (additionally requiring `v` to be decided).
    fn covering_solution_ok_at(&self, g: &impl Adjacency, v: NodeId, out: &[Self::Output]) -> bool;

    /// Nodes (among `restrict_to`) violating the partial-solution conditions.
    fn partial_violations(
        &self,
        g: &Graph,
        out: &[Self::Output],
        restrict_to: &[NodeId],
    ) -> Vec<NodeId> {
        restrict_to
            .iter()
            .copied()
            .filter(|&v| {
                out[v.index()].is_decided()
                    && !(self.partial_packing_ok_at(g, v, out)
                        && self.partial_covering_ok_at(g, v, out))
            })
            .collect()
    }

    /// Returns `true` if `out` restricted to `restrict_to` is a partial
    /// solution for (P, C) on `g` (Definition 3.2): every decided node
    /// satisfies partial packing and partial covering.
    fn is_partial_solution(&self, g: &Graph, out: &[Self::Output], restrict_to: &[NodeId]) -> bool {
        self.partial_violations(g, out, restrict_to).is_empty()
    }
}

/// Converts the simulator's "asleep = `None`" outputs into problem outputs
/// with `⊥` for sleeping nodes.
pub fn densify_outputs<O: HasBottom>(outputs: &[Option<O>]) -> Vec<O> {
    outputs
        .iter()
        .map(|o| o.clone().unwrap_or_else(O::bottom))
        .collect()
}

/// Counts decided (non-`⊥`) entries among the given nodes.
pub fn count_decided<O: HasBottom>(out: &[O], nodes: &[NodeId]) -> usize {
    nodes.iter().filter(|v| out[v.index()].is_decided()).count()
}

/// Counts output changes between two rounds, restricted to the given nodes —
/// the "output churn" metric used throughout the experiments.
pub fn count_changes<O: PartialEq>(prev: &[O], cur: &[O], nodes: &[NodeId]) -> usize {
    nodes
        .iter()
        .filter(|v| prev[v.index()] != cur[v.index()])
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::ColorOutput;

    #[test]
    fn densify_replaces_none_with_bottom() {
        let outs = vec![
            Some(ColorOutput::Colored(1)),
            None,
            Some(ColorOutput::Undecided),
        ];
        let dense = densify_outputs(&outs);
        assert_eq!(
            dense,
            vec![
                ColorOutput::Colored(1),
                ColorOutput::Undecided,
                ColorOutput::Undecided
            ]
        );
    }

    #[test]
    fn counting_helpers() {
        let prev = vec![
            ColorOutput::Undecided,
            ColorOutput::Colored(1),
            ColorOutput::Colored(2),
        ];
        let cur = vec![
            ColorOutput::Colored(3),
            ColorOutput::Colored(1),
            ColorOutput::Colored(1),
        ];
        let nodes: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        assert_eq!(count_decided(&prev, &nodes), 2);
        assert_eq!(count_decided(&cur, &nodes), 3);
        assert_eq!(count_changes(&prev, &cur, &nodes), 2);
        assert_eq!(count_changes(&prev, &cur, &nodes[1..2]), 0);
    }
}
