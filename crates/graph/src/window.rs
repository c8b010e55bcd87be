//! Sliding-window views over a dynamic graph: the `T`-intersection graph
//! `G^∩T_r` and the `T`-union graph `G^∪T_r` of Definition 2.1.
//!
//! `G^∩T_r` contains the edges present in *every* one of the last `T` rounds
//! (and the nodes awake throughout them); `G^∪T_r` contains the edges present
//! in *at least one* of the last `T` rounds, over the same node set `V^∩T_r`.
//!
//! [`GraphWindow`] is *delta-native*: it consumes per-round [`GraphDelta`]s
//! (via [`GraphWindow::push_delta`]; round 0 is a delta from the empty
//! window) and keeps one adjacency — per-node incidence lists over every
//! edge of `G^∪T_r` — in which each entry carries its edge's presence run:
//! the round at which the current presence/absence run started. A round
//! update therefore costs `O(|δ|)` (amortized, including garbage collection
//! of edges that left the union), not `O(|E_r|)`: membership in the
//! intersection and union follows from the run lengths alone, and nothing
//! is recounted when the window slides over an unchanged edge. The
//! [`IntersectionView`] and [`UnionView`] read the window graphs in place;
//! [`GraphWindow::intersection_graph`], [`GraphWindow::union_graph`] and
//! [`GraphWindow::current_graph`] materialize them for reference checkers,
//! and [`GraphWindow::push`] remains as the whole-graph compatibility path.

use crate::dynamic::GraphDelta;
use crate::graph::{Adjacency, Graph};
use crate::node::{Edge, NodeId};
use std::collections::{HashSet, VecDeque};

/// One node-activity run: `on` is the current state, `since` the round at
/// which this run started.
#[derive(Clone, Copy, Debug)]
struct Span {
    on: bool,
    since: u64,
}

/// One entry of a node's incidence list: the edge to `other` and that
/// edge's presence run (`on`, `since`; an absent edge with `since = s` was
/// last present in round `s - 1`). `twin` is the position of the mirror
/// entry in `other`'s list, which carries the same run. The twin index
/// makes garbage-collecting an expired edge `O(1)` — swap-remove on both
/// sides and patch the one mirror entry that moved — instead of a linear
/// scan of the endpoint's list, which would turn mass expiry at a
/// high-degree node quadratic.
#[derive(Clone, Copy, Debug)]
struct Incidence {
    other: NodeId,
    on: bool,
    since: u64,
    twin: usize,
}

/// The window-membership changes produced by pushing one round into a
/// [`GraphWindow`] — returned by [`GraphWindow::push`] and
/// [`GraphWindow::push_delta`].
///
/// Together the seven lists describe *every* way the window graphs of
/// Definition 2.1 can change between consecutive rounds, so a delta-aware
/// consumer (the incremental T-dynamic verifier in `dynnet-core`) can
/// re-evaluate exactly the affected nodes instead of re-checking everything:
///
/// * the tight per-round delta (`inserted`, `removed`, `woken`,
///   `deactivated`) — `inserted` edges join `G^∪T` and `removed` edges leave
///   `G^∩T` immediately; `deactivated` nodes leave `V^∩T` immediately (their
///   dropped edges are listed in `removed`);
/// * the *window-expiry* events that occur even on rounds with an empty
///   delta, purely because the window slid: `edges_left_union` (an absent
///   edge's last present round slid out of the window),
///   `edges_joined_intersection` and `nodes_joined_intersection` (a
///   presence/activity run now spans the whole window).
///
/// [`WindowUpdate::dirty_nodes`] flattens the lists into the round's *dirty
/// node set* — exactly the nodes whose incident window-graph structure
/// changed, hence (beyond output changes) the only nodes whose T-dynamic
/// verdict can change this round.
#[derive(Clone, Debug, Default)]
pub struct WindowUpdate {
    /// Edges inserted into the current graph this round (tight: every listed
    /// edge was really absent before). They are in `G^∪T` from this round on.
    pub inserted: Vec<Edge>,
    /// Edges removed from the current graph this round (tight; includes the
    /// edges dropped by node deactivations). They leave `G^∩T` immediately
    /// but remain in `G^∪T` until their last present round ages out.
    pub removed: Vec<Edge>,
    /// Nodes that became active this round.
    pub woken: Vec<NodeId>,
    /// Nodes deactivated this round — they leave `V^∩T` immediately.
    pub deactivated: Vec<NodeId>,
    /// Absent edges whose last present round slid out of the window this
    /// round: they leave `G^∪T` now, possibly with an empty delta.
    pub edges_left_union: Vec<Edge>,
    /// Edges whose presence run now spans the whole window: they join
    /// `G^∩T` this round (for `T = 1`, insertions mature immediately).
    pub edges_joined_intersection: Vec<Edge>,
    /// Nodes whose activity run now spans the whole window: they join
    /// `V^∩T` this round.
    pub nodes_joined_intersection: Vec<NodeId>,
}

impl WindowUpdate {
    /// Returns `true` if the round changed no window membership at all (the
    /// intersection graph, union graph, and `V^∩T` are all unchanged).
    pub fn is_empty(&self) -> bool {
        self.inserted.is_empty()
            && self.removed.is_empty()
            && self.woken.is_empty()
            && self.deactivated.is_empty()
            && self.edges_left_union.is_empty()
            && self.edges_joined_intersection.is_empty()
            && self.nodes_joined_intersection.is_empty()
    }

    /// The round's dirty node set: every node incident to a listed edge
    /// event plus every node with a listed activity/membership event, sorted
    /// and deduplicated. These are the only nodes whose window-graph
    /// neighborhood changed this round.
    pub fn dirty_nodes(&self) -> Vec<NodeId> {
        let mut dirty: Vec<NodeId> = Vec::new();
        for e in self
            .inserted
            .iter()
            .chain(&self.removed)
            .chain(&self.edges_left_union)
            .chain(&self.edges_joined_intersection)
        {
            dirty.push(e.u);
            dirty.push(e.v);
        }
        dirty.extend_from_slice(&self.woken);
        dirty.extend_from_slice(&self.deactivated);
        dirty.extend_from_slice(&self.nodes_joined_intersection);
        dirty.sort_unstable();
        dirty.dedup();
        dirty
    }
}

/// Incrementally maintained sliding window over the last `T` rounds of a
/// dynamic graph, exposing the intersection graph `G^∩T_r` and union graph
/// `G^∪T_r` of Definition 2.1.
#[derive(Clone, Debug)]
pub struct GraphWindow {
    n: usize,
    window: usize,
    /// Total rounds pushed so far; the current round index is
    /// `rounds_pushed - 1`.
    rounds_pushed: u64,
    /// Per-node incidence lists: `incidence[v]` holds an entry for every
    /// edge at `v` that is present now or was present within the window
    /// (absent entries are garbage-collected once their last present round
    /// slides out). This is the window's only adjacency: the current graph,
    /// `G^∩T` and `G^∪T` are all filters over it, so every degree or
    /// neighbor query touches `O(deg^∪T(v))` entries.
    incidence: Vec<Vec<Incidence>>,
    /// Activity run per node.
    node_state: Vec<Span>,
    /// `(round_removed, edge)` queue driving the lazy GC of absent edges
    /// that have slid out of the union.
    gc_queue: VecDeque<(u64, Edge)>,
    /// `(round_inserted, edge)` queue driving the intersection-maturity
    /// events: an edge inserted in round `q` joins `G^∩T` when the window
    /// start reaches `q` (round `q + T - 1`), if its presence run survived.
    edge_maturity_queue: VecDeque<(u64, Edge)>,
    /// `(round_woken, node)` queue driving the `V^∩T`-maturity events,
    /// symmetric to `edge_maturity_queue`.
    node_maturity_queue: VecDeque<(u64, NodeId)>,
}

impl GraphWindow {
    /// Creates an empty window of size `window` (the paper's parameter `T ≥ 1`)
    /// over a universe of `n` nodes.
    pub fn new(n: usize, window: usize) -> Self {
        assert!(window >= 1, "window size T must be at least 1");
        GraphWindow {
            n,
            window,
            rounds_pushed: 0,
            incidence: vec![Vec::new(); n],
            node_state: vec![
                Span {
                    on: false,
                    since: 0
                };
                n
            ],
            gc_queue: VecDeque::new(),
            edge_maturity_queue: VecDeque::new(),
            node_maturity_queue: VecDeque::new(),
        }
    }

    /// The window size `T`.
    #[inline]
    pub fn window_size(&self) -> usize {
        self.window
    }

    /// Number of rounds currently inside the window (`min(T, r+1)` after
    /// pushing round `r`, with rounds counted from the first push).
    #[inline]
    pub fn len(&self) -> usize {
        (self.rounds_pushed.min(self.window as u64)) as usize
    }

    /// Returns `true` if no round has been pushed yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rounds_pushed == 0
    }

    /// The last round number pushed, if any.
    #[inline]
    pub fn current_round(&self) -> Option<u64> {
        self.rounds_pushed.checked_sub(1)
    }

    /// First round inside the window (all runs starting at or before it span
    /// the whole window; `0` while the window is empty).
    #[inline]
    fn start(&self) -> u64 {
        self.rounds_pushed - self.len() as u64
    }

    /// Pushes the communication graph of the next round into the window and
    /// returns the round's [`WindowUpdate`].
    ///
    /// Compatibility path: materializes the current graph, diffs `g` against
    /// it (`O(n + |E|)`) and forwards to the delta path. Streaming callers
    /// that already hold the round's delta should use
    /// [`GraphWindow::push_delta`] instead.
    pub fn push(&mut self, g: &Graph) -> WindowUpdate {
        assert_eq!(g.num_nodes(), self.n, "graph universe mismatch");
        let delta = GraphDelta::between(&self.current_graph(), g);
        self.push_delta(&delta)
    }

    /// Pushes the next round as a delta relative to the current graph —
    /// the `O(|δ|)` streaming path — and returns the round's
    /// [`WindowUpdate`] (the tight delta plus the window-expiry events).
    /// Round 0 is a delta from the empty window (all nodes asleep, no
    /// edges). The delta may be loose (no-op changes are tolerated); it is
    /// tightened against the current graph while being applied, in
    /// [`GraphDelta::apply`] order: wake-ups, insertions, removals,
    /// deactivations.
    pub fn push_delta(&mut self, delta: &GraphDelta) -> WindowUpdate {
        let round = self.rounds_pushed;
        let mut update = WindowUpdate::default();

        for &v in &delta.woken {
            self.wake(v, round, &mut update);
        }
        // An edge inserted *and* removed by the same delta (insertions apply
        // first, then removals and deactivations) is never present in any
        // round's final graph: it must not start a run, so it is cancelled
        // before touching the lists. Only edges absent before the round can
        // cancel; a present one is simply removed below.
        let (doomed, leaving): (HashSet<Edge>, HashSet<NodeId>) = if delta.inserted.is_empty() {
            Default::default()
        } else {
            (
                delta.removed.iter().copied().collect(),
                delta.deactivated.iter().copied().collect(),
            )
        };
        for &e in &delta.inserted {
            let found = self.find(e);
            if found.is_some_and(|(_, _, x)| x.on) {
                continue;
            }
            self.wake(e.u, round, &mut update);
            self.wake(e.v, round, &mut update);
            if doomed.contains(&e) || leaving.contains(&e.u) || leaving.contains(&e.v) {
                continue;
            }
            match found {
                // Re-insertion of an edge still inside the union window: the
                // entry keeps its list positions and just starts a new run.
                Some((a, pos, _)) => self.set_run(a, pos, true, round),
                None => self.add_edge(e, round),
            }
            update.inserted.push(e);
            self.edge_maturity_queue.push_back((round, e));
        }
        for &e in &delta.removed {
            if let Some((a, pos, x)) = self.find(e) {
                if x.on {
                    self.remove_run(a, pos, e, round, &mut update);
                }
            }
        }
        for &v in &delta.deactivated {
            if !self.node_state[v.index()].on {
                continue;
            }
            for pos in 0..self.incidence[v.index()].len() {
                // INVARIANT: `pos` < the list's length; `remove_run` only
                // rewrites run fields, so the list is not resized here.
                let x = self.incidence[v.index()][pos];
                if x.on {
                    self.remove_run(v, pos, Edge::new(v, x.other), round, &mut update);
                }
            }
            self.node_state[v.index()] = Span {
                on: false,
                since: round,
            };
            update.deactivated.push(v);
        }

        self.rounds_pushed += 1;
        let start = self.start();

        // GC: absent edges whose removal round slid out of the window are no
        // longer in the union and can be forgotten.
        while let Some(&(r, e)) = self.gc_queue.front() {
            if r > start {
                break;
            }
            self.gc_queue.pop_front();
            if let Some((a, pos, x)) = self.find(e) {
                if !x.on && x.since == r {
                    self.drop_edge(a, pos);
                    update.edges_left_union.push(e);
                }
            }
        }
        // Maturity: a presence/activity run started in round `r` spans the
        // whole window once the window start reaches `r` (for `T = 1` that
        // is this very round). A run superseded by a later event has
        // `since != r` and is skipped — its own queue entry handles it.
        while let Some(&(r, e)) = self.edge_maturity_queue.front() {
            if r > start {
                break;
            }
            self.edge_maturity_queue.pop_front();
            if self.find(e).is_some_and(|(_, _, x)| x.on && x.since == r) {
                update.edges_joined_intersection.push(e);
            }
        }
        while let Some(&(r, v)) = self.node_maturity_queue.front() {
            if r > start {
                break;
            }
            self.node_maturity_queue.pop_front();
            let s = self.node_state[v.index()];
            if s.on && s.since == r {
                update.nodes_joined_intersection.push(v);
            }
        }
        update
    }

    /// Activates `v` in round `round` if it is asleep.
    fn wake(&mut self, v: NodeId, round: u64, update: &mut WindowUpdate) {
        let state = &mut self.node_state[v.index()];
        if !state.on {
            *state = Span {
                on: true,
                since: round,
            };
            update.woken.push(v);
            self.node_maturity_queue.push_back((round, v));
        }
    }

    /// Locates `e` by scanning the shorter endpoint list: the scanned
    /// endpoint, the entry's position in its list, and the entry itself.
    fn find(&self, e: Edge) -> Option<(NodeId, usize, Incidence)> {
        let (a, b) = if self.incidence[e.u.index()].len() <= self.incidence[e.v.index()].len() {
            (e.u, e.v)
        } else {
            (e.v, e.u)
        };
        self.incidence[a.index()]
            .iter()
            .enumerate()
            .find(|(_, x)| x.other == b)
            .map(|(pos, &x)| (a, pos, x))
    }

    /// Appends a fresh present edge to both endpoints' lists.
    fn add_edge(&mut self, e: Edge, since: u64) {
        let pos_u = self.incidence[e.u.index()].len();
        let pos_v = self.incidence[e.v.index()].len();
        self.incidence[e.u.index()].push(Incidence {
            other: e.v,
            on: true,
            since,
            twin: pos_v,
        });
        self.incidence[e.v.index()].push(Incidence {
            other: e.u,
            on: true,
            since,
            twin: pos_u,
        });
    }

    /// Starts a new run on the edge at `incidence[a][pos]` and its twin.
    fn set_run(&mut self, a: NodeId, pos: usize, on: bool, since: u64) {
        // INVARIANT: callers pass a position just returned by `find` or
        // bounded by the list's length, and the list was not resized since.
        let x = &mut self.incidence[a.index()][pos];
        x.on = on;
        x.since = since;
        let (b, twin) = (x.other, x.twin);
        // INVARIANT: `twin` indexes the mirror entry in `b`'s list — set by
        // `add_edge` and re-pointed by `swap_remove_entry` whenever it moves.
        let mirror = &mut self.incidence[b.index()][twin];
        mirror.on = on;
        mirror.since = since;
    }

    /// Removes the present edge `e`, found at `incidence[a][pos]`, from the
    /// current graph in round `round`: it stays in the union until that
    /// round's predecessor slides out of the window.
    fn remove_run(
        &mut self,
        a: NodeId,
        pos: usize,
        e: Edge,
        round: u64,
        update: &mut WindowUpdate,
    ) {
        self.set_run(a, pos, false, round);
        update.removed.push(e);
        self.gc_queue.push_back((round, e));
    }

    /// Forgets the edge at `incidence[a][pos]`: swap-removes it and its twin
    /// in `O(1)`.
    fn drop_edge(&mut self, a: NodeId, pos: usize) {
        // INVARIANT: `pos` was just returned by `find`.
        let Incidence { other: b, twin, .. } = self.incidence[a.index()][pos];
        // The entry moved into `pos` on `a`'s side has its mirror on a third
        // node (the lists hold one entry per edge), so `twin` stays valid.
        self.swap_remove_entry(a, pos);
        self.swap_remove_entry(b, twin);
    }

    /// Swap-removes `incidence[v][pos]` and re-points the mirror of the
    /// entry that moved into `pos`.
    fn swap_remove_entry(&mut self, v: NodeId, pos: usize) {
        let list = &mut self.incidence[v.index()];
        list.swap_remove(pos);
        if let Some(&moved) = list.get(pos) {
            // INVARIANT: `moved.twin` indexes `moved`'s mirror entry, which
            // lives in another node's list (no self-loops).
            self.incidence[moved.other.index()][moved.twin].twin = pos;
        }
    }

    /// Node set `V^∩T_r`: nodes that were awake in every round of the window.
    pub fn intersection_nodes(&self) -> Vec<NodeId> {
        (0..self.n)
            .map(NodeId::new)
            .filter(|&v| self.node_in_intersection(v))
            .collect()
    }

    /// Returns `true` if `v` has been awake for the whole window.
    pub fn node_in_intersection(&self, v: NodeId) -> bool {
        let s = self.node_state[v.index()];
        s.on && s.since <= self.start()
    }

    /// Returns `true` if the edge was present in every round of the window.
    pub fn edge_in_intersection(&self, e: Edge) -> bool {
        let start = self.start();
        self.find(e)
            .is_some_and(|(_, _, x)| in_intersection(&x, start))
    }

    /// Returns `true` if the edge was present in at least one window round.
    pub fn edge_in_union(&self, e: Edge) -> bool {
        let start = self.start();
        self.find(e).is_some_and(|(_, _, x)| in_union(&x, start))
    }

    /// The neighbors of `v` in the intersection graph `G^∩T_r`, read from
    /// the incidence list (`O(deg^∪T(v))`).
    pub fn intersection_neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let start = self.start();
        self.incidence[v.index()]
            .iter()
            .filter(move |x| in_intersection(x, start))
            .map(|x| x.other)
    }

    /// The neighbors of `v` in the union graph `G^∪T_r` (`O(deg^∪T(v))`).
    pub fn union_neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let start = self.start();
        self.incidence[v.index()]
            .iter()
            .filter(move |x| in_union(x, start))
            .map(|x| x.other)
    }

    /// Degree of `v` in the union graph: the number of *distinct* neighbors
    /// seen in the last `T` rounds — the paper's notion of "degree" for the
    /// (degree+1)-coloring covering constraint in dynamic networks.
    pub fn union_degree(&self, v: NodeId) -> usize {
        self.union_neighbors(v).count()
    }

    /// Degree of `v` in the intersection graph (`O(deg^∪T(v))`).
    pub fn intersection_degree(&self, v: NodeId) -> usize {
        self.intersection_neighbors(v).count()
    }

    /// `G^∩T_r` as an [`Adjacency`], read in place from the window.
    pub fn intersection_view(&self) -> IntersectionView<'_> {
        IntersectionView(self)
    }

    /// `G^∪T_r` as an [`Adjacency`], read in place from the window.
    pub fn union_view(&self) -> UnionView<'_> {
        UnionView(self)
    }

    /// Materializes the intersection graph `G^∩T_r`.
    ///
    /// Only nodes in `V^∩T_r` are active; only edges present in all window
    /// rounds are included.
    pub fn intersection_graph(&self) -> Graph {
        let start = self.start();
        self.materialize(|s| s.on && s.since <= start, |x| in_intersection(x, start))
    }

    /// Materializes the union graph `G^∪T_r` (node set `V^∩T_r`, edge union).
    pub fn union_graph(&self) -> Graph {
        let start = self.start();
        self.materialize(|s| s.on && s.since <= start, |x| in_union(x, start))
    }

    /// Materializes the most recent graph `G_r` (all nodes asleep and no
    /// edges before the first push).
    pub fn current_graph(&self) -> Graph {
        self.materialize(|s| s.on, |x| x.on)
    }

    /// Builds a [`Graph`] from the nodes and incidence entries the filters
    /// keep. Edges are inserted from their smaller endpoint in node order,
    /// and `Graph` keeps sorted adjacency, so the result depends only on the
    /// window's contents, never on the order entries were created in.
    fn materialize(
        &self,
        node: impl Fn(&Span) -> bool,
        edge: impl Fn(&Incidence) -> bool,
    ) -> Graph {
        let mut g = Graph::new_all_asleep(self.n);
        for (i, (state, list)) in self.node_state.iter().zip(&self.incidence).enumerate() {
            let u = NodeId::new(i);
            if node(state) {
                g.activate(u);
            }
            for x in list.iter().filter(|x| x.other > u && edge(x)) {
                g.insert_edge(u, x.other);
            }
        }
        g
    }

    /// Returns `true` if the α-neighborhood of `v` (measured in the *current*
    /// graph) has been static over the whole window: no edge incident to a
    /// node of `N^α(v) ∪ {v}` was inserted or removed within the window
    /// rounds, so every window graph induces the same adjacency on the ball.
    ///
    /// This is the premise of property B.2 (Definition 3.3) and of the
    /// "locally static" clauses of Corollaries 1.2 and 1.3.
    pub fn locally_static(&self, v: NodeId, alpha: usize) -> bool {
        if self.rounds_pushed == 0 {
            return false;
        }
        let start = self.start();
        // Breadth-first over the ball, checking every list entry of each
        // ball node. An entry whose run started inside the window is an edge
        // inserted within it (`on`) or removed within it (`!on`); both break
        // local staticness. Absent entries whose run predates the window
        // were garbage-collected when it slid, so once every entry of a node
        // passes, its entries are exactly its current edges and the search
        // follows the current graph.
        let mut seen = HashSet::from([v]);
        let mut frontier = vec![v];
        for depth in 0..=alpha {
            let mut next = Vec::new();
            for w in frontier {
                for x in &self.incidence[w.index()] {
                    if x.since > start {
                        return false;
                    }
                    if depth < alpha && seen.insert(x.other) {
                        next.push(x.other);
                    }
                }
            }
            frontier = next;
        }
        true
    }

    /// Depths of the window's internal maintenance queues (the lazy union
    /// GC and the edge/node intersection-maturity queues) — observability
    /// counters surfaced as the `window.*` metrics.
    pub fn queue_depths(&self) -> QueueDepths {
        QueueDepths {
            gc: self.gc_queue.len(),
            edge_maturity: self.edge_maturity_queue.len(),
            node_maturity: self.node_maturity_queue.len(),
        }
    }
}

/// Intersection membership from an edge's presence run: present since the
/// window start or earlier.
#[inline]
fn in_intersection(x: &Incidence, start: u64) -> bool {
    x.on && x.since <= start
}

/// Union membership from an edge's presence run: present now, or removed
/// recently enough that its last present round is inside the window.
#[inline]
fn in_union(x: &Incidence, start: u64) -> bool {
    x.on || x.since > start
}

/// `G^∩T_r` of a [`GraphWindow`] as an [`Adjacency`] (no materialization).
#[derive(Clone, Copy, Debug)]
pub struct IntersectionView<'a>(&'a GraphWindow);

impl Adjacency for IntersectionView<'_> {
    fn neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.0.intersection_neighbors(v)
    }

    fn degree(&self, v: NodeId) -> usize {
        self.0.intersection_degree(v)
    }
}

/// `G^∪T_r` of a [`GraphWindow`] as an [`Adjacency`] (no materialization).
#[derive(Clone, Copy, Debug)]
pub struct UnionView<'a>(&'a GraphWindow);

impl Adjacency for UnionView<'_> {
    fn neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.0.union_neighbors(v)
    }

    fn degree(&self, v: NodeId) -> usize {
        self.0.union_degree(v)
    }
}

/// Brute-force reference for the window graphs: folds caller-held graphs
/// (the last `T` rounds, oldest first) into `(G^∩T, G^∪T)` with
/// [`Graph::intersection`] and [`Graph::union`]. Shares no bookkeeping with
/// [`GraphWindow`], which is what makes it a reference. `None` for an empty
/// history.
pub fn window_graphs_bruteforce(last_t: &[Graph]) -> Option<(Graph, Graph)> {
    let (first, rest) = last_t.split_first()?;
    Some(
        rest.iter()
            .fold((first.clone(), first.clone()), |(i, u), g| {
                (i.intersection(g), u.union(g))
            }),
    )
}

/// Depths of a [`GraphWindow`]'s internal maintenance queues, reported by
/// [`GraphWindow::queue_depths`]. Steady-state depths are bounded by the
/// churn of the last `T` rounds; monotone growth indicates a maintenance
/// leak.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueDepths {
    /// Entries in the lazy GC queue of absent edges still inside the union.
    pub gc: usize,
    /// Entries in the edge intersection-maturity queue.
    pub edge_maturity: usize,
    /// Entries in the node intersection-maturity queue.
    pub node_maturity: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(n: usize, edges: &[(usize, usize)]) -> Graph {
        Graph::from_edges(n, edges.iter().map(|&(a, b)| Edge::of(a, b)))
    }

    #[test]
    fn window_of_one_round_is_current_graph() {
        let mut w = GraphWindow::new(4, 3);
        let g0 = g(4, &[(0, 1), (2, 3)]);
        w.push(&g0);
        assert_eq!(w.len(), 1);
        assert_eq!(w.intersection_graph().edge_vec(), g0.edge_vec());
        assert_eq!(w.union_graph().edge_vec(), g0.edge_vec());
    }

    #[test]
    fn intersection_and_union_over_three_rounds() {
        let mut w = GraphWindow::new(4, 3);
        w.push(&g(4, &[(0, 1), (1, 2)]));
        w.push(&g(4, &[(0, 1), (2, 3)]));
        w.push(&g(4, &[(0, 1), (1, 2), (2, 3)]));
        let inter = w.intersection_graph();
        let uni = w.union_graph();
        assert_eq!(inter.edge_vec(), vec![Edge::of(0, 1)]);
        assert_eq!(
            uni.edge_vec(),
            vec![Edge::of(0, 1), Edge::of(1, 2), Edge::of(2, 3)]
        );
    }

    #[test]
    fn eviction_forgets_old_edges() {
        let mut w = GraphWindow::new(3, 2);
        w.push(&g(3, &[(0, 1)]));
        w.push(&g(3, &[(1, 2)]));
        w.push(&g(3, &[(1, 2)]));
        // Window now holds rounds 1 and 2: {1,2} in both; {0,1} evicted.
        assert!(w.edge_in_intersection(Edge::of(1, 2)));
        assert!(!w.edge_in_union(Edge::of(0, 1)));
        assert_eq!(w.union_graph().edge_vec(), vec![Edge::of(1, 2)]);
    }

    #[test]
    fn push_delta_matches_whole_graph_push() {
        let seq = [
            g(5, &[(0, 1), (2, 3)]),
            g(5, &[(0, 1), (1, 2)]),
            g(5, &[(1, 2)]),
            g(5, &[(1, 2), (3, 4), (0, 4)]),
            g(5, &[(3, 4)]),
        ];
        let mut by_graph = GraphWindow::new(5, 3);
        let mut by_delta = GraphWindow::new(5, 3);
        // Round 0 is a delta from the empty window too.
        let mut prev = Graph::new_all_asleep(5);
        for gr in &seq {
            by_graph.push(gr);
            by_delta.push_delta(&GraphDelta::between(&prev, gr));
            prev = gr.clone();
            assert_eq!(by_graph.intersection_graph(), by_delta.intersection_graph());
            assert_eq!(by_graph.union_graph(), by_delta.union_graph());
            assert_eq!(by_graph.len(), by_delta.len());
        }
    }

    #[test]
    fn loose_deltas_are_tolerated() {
        let mut w = GraphWindow::new(3, 2);
        w.push(&g(3, &[(0, 1)]));
        let mut loose = GraphDelta::new();
        loose.insert(NodeId::new(0), NodeId::new(1)); // already present: no-op
        loose.remove(NodeId::new(0), NodeId::new(2)); // already absent: no-op
        loose.insert(NodeId::new(1), NodeId::new(2));
        // Inserted *and* removed in one delta: net no-op (never present).
        loose.insert(NodeId::new(0), NodeId::new(2));
        loose.remove(NodeId::new(0), NodeId::new(2));
        let u = w.push_delta(&loose);
        assert_eq!(
            w.current_graph().edge_vec(),
            vec![Edge::of(0, 1), Edge::of(1, 2)]
        );
        // The update is tight despite the loose input.
        assert_eq!(u.inserted, vec![Edge::of(1, 2)]);
        assert!(u.removed.is_empty());
        assert!(w.edge_in_intersection(Edge::of(0, 1)));
        assert!(!w.edge_in_intersection(Edge::of(1, 2)));
        assert!(w.edge_in_union(Edge::of(1, 2)));
        assert!(!w.edge_in_union(Edge::of(0, 2)));
    }

    #[test]
    fn union_degree_counts_distinct_neighbors() {
        let mut w = GraphWindow::new(5, 4);
        w.push(&g(5, &[(0, 1)]));
        w.push(&g(5, &[(0, 2)]));
        w.push(&g(5, &[(0, 3)]));
        assert_eq!(w.union_degree(NodeId::new(0)), 3);
        assert_eq!(w.intersection_degree(NodeId::new(0)), 0);
    }

    #[test]
    fn node_activity_intersection() {
        let mut w = GraphWindow::new(3, 2);
        let mut g0 = Graph::new_all_asleep(3);
        g0.activate(NodeId::new(0));
        let mut g1 = Graph::new_all_asleep(3);
        g1.activate(NodeId::new(0));
        g1.activate(NodeId::new(1));
        w.push(&g0);
        w.push(&g1);
        assert!(w.node_in_intersection(NodeId::new(0)));
        assert!(!w.node_in_intersection(NodeId::new(1)));
        assert_eq!(w.intersection_nodes(), vec![NodeId::new(0)]);
    }

    #[test]
    fn incremental_matches_bruteforce() {
        let mut w = GraphWindow::new(6, 3);
        let seq = [
            g(6, &[(0, 1), (2, 3), (4, 5)]),
            g(6, &[(0, 1), (1, 2), (4, 5)]),
            g(6, &[(0, 1), (3, 4)]),
            g(6, &[(1, 2), (3, 4), (0, 1)]),
            g(6, &[(1, 2)]),
        ];
        for (r, gr) in seq.iter().enumerate() {
            w.push(gr);
            let last_t = &seq[(r + 1).saturating_sub(3)..=r];
            let (inter, union) = window_graphs_bruteforce(last_t).unwrap();
            assert_eq!(w.intersection_graph().edge_vec(), inter.edge_vec());
            assert_eq!(w.union_graph().edge_vec(), union.edge_vec());
        }
    }

    #[test]
    fn locally_static_detection() {
        let mut w = GraphWindow::new(5, 3);
        // Node 0's 1-neighborhood {0,1} stays identical; node 3-4 edge churns.
        w.push(&g(5, &[(0, 1), (3, 4)]));
        w.push(&g(5, &[(0, 1)]));
        w.push(&g(5, &[(0, 1), (3, 4)]));
        assert!(w.locally_static(NodeId::new(0), 1));
        assert!(!w.locally_static(NodeId::new(3), 1));
        // 2-neighborhood of 0 is {0,1} (nothing else attached), still static.
        assert!(w.locally_static(NodeId::new(0), 2));
    }

    #[test]
    fn current_graph_materializes_activity() {
        let mut w = GraphWindow::new(4, 3);
        assert_eq!(w.current_graph(), Graph::new_all_asleep(4));
        let mut g0 = Graph::new_all_asleep(4);
        g0.insert_edge(NodeId::new(0), NodeId::new(1));
        w.push(&g0);
        assert_eq!(w.current_graph(), g0);
        let mut g1 = g0.clone();
        g1.activate(NodeId::new(2));
        g1.deactivate(NodeId::new(0));
        w.push(&g1);
        assert_eq!(w.current_graph(), g1);
        assert_eq!(w.current_round(), Some(1));
    }

    #[test]
    #[should_panic]
    fn zero_window_rejected() {
        let _ = GraphWindow::new(3, 0);
    }

    /// Applies a [`WindowUpdate`] to shadow copies of the window graphs: the
    /// update must carry every membership change a consumer needs.
    fn patch_shadow(
        u: &WindowUpdate,
        inter: &mut Graph,
        union: &mut Graph,
        vcap: &mut std::collections::BTreeSet<NodeId>,
    ) {
        for e in &u.inserted {
            union.insert_edge(e.u, e.v);
        }
        for e in &u.removed {
            inter.remove_edge(e.u, e.v);
        }
        for e in &u.edges_left_union {
            union.remove_edge(e.u, e.v);
        }
        for e in &u.edges_joined_intersection {
            inter.insert_edge(e.u, e.v);
        }
        for v in &u.deactivated {
            vcap.remove(v);
        }
        for v in &u.nodes_joined_intersection {
            vcap.insert(*v);
        }
    }

    #[test]
    fn window_updates_patch_shadow_graphs() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
        let n = 9;
        for t in 1..=5usize {
            let mut w = GraphWindow::new(n, t);
            let mut inter = Graph::new_all_asleep(n);
            let mut union = Graph::new_all_asleep(n);
            let mut vcap = std::collections::BTreeSet::new();
            let mut cur = Graph::new_all_asleep(n);
            for _ in 0..6 {
                if rng.gen_bool(0.8) {
                    cur.activate(NodeId::new(rng.gen_range(0..n)));
                }
            }
            for round in 0..40 {
                // Mutate the graph a little (edges only between active nodes
                // keeps the diff tight); occasionally change node activity.
                for _ in 0..rng.gen_range(0..4) {
                    let a = rng.gen_range(0..n);
                    let b = rng.gen_range(0..n);
                    if a != b && cur.is_active(NodeId::new(a)) && cur.is_active(NodeId::new(b)) {
                        cur.toggle_edge(NodeId::new(a), NodeId::new(b));
                    }
                }
                if rng.gen_bool(0.3) {
                    let v = NodeId::new(rng.gen_range(0..n));
                    if cur.is_active(v) {
                        for u in cur.neighbors_vec(v) {
                            cur.remove_edge(v, u);
                        }
                        cur.deactivate(v);
                    } else {
                        cur.activate(v);
                    }
                }
                // Round 0 patches the empty shadows like any other round.
                patch_shadow(&w.push(&cur), &mut inter, &mut union, &mut vcap);
                assert_eq!(
                    inter.edge_vec(),
                    w.intersection_graph().edge_vec(),
                    "T={t} round={round} intersection diverged"
                );
                assert_eq!(
                    union.edge_vec(),
                    w.union_graph().edge_vec(),
                    "T={t} round={round} union diverged"
                );
                let want: std::collections::BTreeSet<NodeId> =
                    w.intersection_nodes().into_iter().collect();
                assert_eq!(vcap, want, "T={t} round={round} V^∩T diverged");
            }
        }
    }

    /// Asserts that every incidence entry's `twin` points at its mirror
    /// entry and that both carry the same run.
    fn assert_twins_consistent(w: &GraphWindow) {
        for (i, list) in w.incidence.iter().enumerate() {
            for (pos, x) in list.iter().enumerate() {
                let m = w.incidence[x.other.index()][x.twin];
                assert_eq!(
                    (m.other, m.twin, m.on, m.since),
                    (NodeId::new(i), pos, x.on, x.since),
                    "twin of entry {pos} at node {i}"
                );
            }
        }
    }

    /// Compares every query of `w` against full scans of the last-T graphs.
    fn assert_matches_history(w: &GraphWindow, last_t: &[Graph], ctx: &str) {
        let (inter, union) = window_graphs_bruteforce(last_t).unwrap();
        let cur = last_t.last().unwrap();
        assert_eq!(&w.current_graph(), cur, "{ctx}: current graph");
        assert_eq!(w.intersection_graph().edge_vec(), inter.edge_vec(), "{ctx}");
        assert_eq!(w.union_graph().edge_vec(), union.edge_vec(), "{ctx}");
        let vcap: Vec<NodeId> = inter.active_nodes().collect();
        assert_eq!(w.intersection_nodes(), vcap, "{ctx}: V^∩T");
        let sorted = |it: &mut dyn Iterator<Item = NodeId>| {
            let mut v: Vec<NodeId> = it.collect();
            v.sort();
            v
        };
        for v in cur.nodes() {
            let (iv, uv) = (w.intersection_view(), w.union_view());
            assert_eq!(
                sorted(&mut Adjacency::neighbors(&iv, v)),
                inter.neighbors_vec(v),
                "{ctx}: intersection_neighbors({v})"
            );
            assert_eq!(
                sorted(&mut Adjacency::neighbors(&uv, v)),
                union.neighbors_vec(v),
                "{ctx}: union_neighbors({v})"
            );
            assert_eq!(w.intersection_degree(v), inter.degree(v), "{ctx}");
            assert_eq!(w.union_degree(v), union.degree(v), "{ctx}");
            assert_eq!(Adjacency::degree(&iv, v), inter.degree(v), "{ctx}");
            assert_eq!(Adjacency::degree(&uv, v), union.degree(v), "{ctx}");
            for alpha in [0usize, 1, 2] {
                // Locally static: every window round gives each ball node
                // (ball taken in the current graph) the same neighbors.
                let ball = crate::neighborhood::neighborhood(cur, v, alpha);
                let want = ball.iter().all(|&b| {
                    last_t
                        .iter()
                        .all(|g| g.neighbors_vec(b) == cur.neighbors_vec(b))
                });
                assert_eq!(
                    w.locally_static(v, alpha),
                    want,
                    "{ctx}: locally_static({v}, {alpha})"
                );
            }
        }
        assert_twins_consistent(w);
    }

    #[test]
    fn incidence_degree_queries_match_full_scans() {
        // Randomized delta runs across window sizes. After every push the
        // degree and neighbor queries, both views, `locally_static` and the
        // materialized graphs must agree with full scans of a test-held
        // history of the last T graphs. The deltas mix edge toggles
        // (including implicit wake-ups), an edge inserted and removed in one
        // delta, re-insertion of an edge removed the round before (still in
        // G^∪T for T ≥ 2), and node churn.
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let n = 10;
        for t in [1usize, 2, 3, 5] {
            let mut w = GraphWindow::new(n, t);
            let mut history: VecDeque<Graph> = VecDeque::new();
            let mut cur = Graph::new_all_asleep(n);
            let mut last_removed: Vec<Edge> = Vec::new();
            for round in 0..60 {
                let mut d = GraphDelta::new();
                for _ in 0..rng.gen_range(0..5) {
                    let a = NodeId::new(rng.gen_range(0..n));
                    let b = NodeId::new(rng.gen_range(0..n));
                    if a == b {
                        continue;
                    }
                    if rng.gen_bool(0.2) {
                        d.insert(a, b).remove(a, b);
                    } else if cur.has_edge(a, b) {
                        d.remove(a, b);
                    } else {
                        d.insert(a, b);
                    }
                }
                if let Some(&e) = last_removed.first() {
                    if rng.gen_bool(0.5) {
                        d.insert(e.u, e.v);
                    }
                }
                if rng.gen_bool(0.2) {
                    let v = NodeId::new(rng.gen_range(0..n));
                    if cur.is_active(v) {
                        d.deactivate(v);
                    } else {
                        d.wake(v);
                    }
                }
                d.apply(&mut cur);
                last_removed = w.push_delta(&d).removed;
                history.push_back(cur.clone());
                if history.len() > t {
                    history.pop_front();
                }
                assert_matches_history(
                    &w,
                    history.make_contiguous(),
                    &format!("T={t} round={round}"),
                );
            }
        }
    }

    #[test]
    fn hub_mass_expiry_keeps_twins_consistent() {
        // All 2000 spokes of a star leave in one round. The centre's union
        // degree stays 2000 for T - 1 rounds, then drops to 0 in the round
        // the removal slides out; the collection swap-removes the centre's
        // list entry by entry, re-pointing the moved entries' twins.
        let spokes = 2000;
        let t = 4;
        let centre = NodeId::new(0);
        let star = Graph::from_edges(spokes + 1, (1..=spokes).map(|i| Edge::of(0, i)));
        let mut w = GraphWindow::new(spokes + 1, t);
        w.push(&star);
        let mut cut = GraphDelta::new();
        for i in 1..=spokes {
            cut.remove(centre, NodeId::new(i));
        }
        assert_eq!(w.push_delta(&cut).removed.len(), spokes);
        for round in 1..t {
            if round > 1 {
                assert!(w.push_delta(&GraphDelta::new()).is_empty());
            }
            assert_eq!(w.union_degree(centre), spokes, "round {round}");
            assert_eq!(w.intersection_degree(centre), 0, "round {round}");
            assert_twins_consistent(&w);
        }
        let expiry = w.push_delta(&GraphDelta::new());
        assert_eq!(expiry.edges_left_union.len(), spokes);
        assert_eq!(w.union_degree(centre), 0);
        assert!(w.incidence.iter().all(Vec::is_empty));
        assert_twins_consistent(&w);
    }

    #[test]
    fn expiry_events_fire_on_empty_deltas() {
        // T = 3: the edge {0,1} is removed in round 1; it leaves the union
        // in round 3 (its last present round, 0, slides out) even though the
        // round-3 delta is empty. The edge {1,2}, inserted in round 1,
        // matures into the intersection in round 3 the same way.
        let mut w = GraphWindow::new(3, 3);
        w.push(&g(3, &[(0, 1)]));
        let mut d1 = GraphDelta::new();
        d1.remove(NodeId::new(0), NodeId::new(1));
        d1.insert(NodeId::new(1), NodeId::new(2));
        let u1 = w.push_delta(&d1);
        assert_eq!(u1.removed, vec![Edge::of(0, 1)]);
        assert_eq!(u1.inserted, vec![Edge::of(1, 2)]);
        assert!(u1.edges_left_union.is_empty());
        assert!(u1.edges_joined_intersection.is_empty());

        let u2 = w.push_delta(&GraphDelta::new());
        assert!(u2.is_empty(), "window not sliding yet: {u2:?}");

        let u3 = w.push_delta(&GraphDelta::new());
        assert_eq!(u3.edges_left_union, vec![Edge::of(0, 1)]);
        assert_eq!(u3.edges_joined_intersection, vec![Edge::of(1, 2)]);
        assert_eq!(
            u3.dirty_nodes(),
            vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)]
        );
        assert!(!w.edge_in_union(Edge::of(0, 1)));
        assert!(w.edge_in_intersection(Edge::of(1, 2)));
    }

    #[test]
    fn node_maturity_events_track_vcap() {
        // Node 2 wakes in round 1; with T = 2 it joins V^∩T in round 2.
        let mut w = GraphWindow::new(3, 2);
        let mut g0 = Graph::new_all_asleep(3);
        g0.activate(NodeId::new(0));
        let u0 = w.push(&g0);
        assert_eq!(u0.nodes_joined_intersection, vec![NodeId::new(0)]);
        let mut d1 = GraphDelta::new();
        d1.wake(NodeId::new(2));
        let u1 = w.push_delta(&d1);
        assert_eq!(u1.woken, vec![NodeId::new(2)]);
        assert!(u1.nodes_joined_intersection.is_empty());
        assert!(!w.node_in_intersection(NodeId::new(2)));
        let u2 = w.push_delta(&GraphDelta::new());
        assert_eq!(u2.nodes_joined_intersection, vec![NodeId::new(2)]);
        assert!(w.node_in_intersection(NodeId::new(2)));
    }

    #[test]
    fn single_round_window_updates_are_immediate() {
        // T = 1: insertions mature and removals age out in the same round.
        let mut w = GraphWindow::new(3, 1);
        w.push(&g(3, &[(0, 1)]));
        let mut d = GraphDelta::new();
        d.remove(NodeId::new(0), NodeId::new(1));
        d.insert(NodeId::new(1), NodeId::new(2));
        let u = w.push_delta(&d);
        assert_eq!(u.edges_left_union, vec![Edge::of(0, 1)]);
        assert_eq!(u.edges_joined_intersection, vec![Edge::of(1, 2)]);
    }

    #[test]
    fn materialized_graphs_are_history_independent() {
        // Two windows that end up holding the same last-T rounds must
        // materialize identical graphs, regardless of the order edges
        // entered the incidence lists (initial bulk load vs. one-at-a-time
        // in reverse) and of pre-window churn that has since slid out — the
        // lists' entry order depends on that history, the materialized
        // graphs must not.
        let final_rounds = [
            g(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]),
            g(6, &[(0, 1), (1, 2), (3, 4)]),
            g(6, &[(0, 1), (1, 2), (3, 4), (2, 3)]),
        ];

        // History A: the final rounds only, edges bulk-loaded in order.
        let mut a = GraphWindow::new(6, 3);
        for r in &final_rounds {
            a.push(r);
        }

        // History B: starts from churn (edges inserted one per round, in
        // reverse order, then removed) that fully slides out of the window
        // before the final rounds arrive.
        let mut b = GraphWindow::new(6, 3);
        b.push(&g(6, &[]));
        for &(u, v) in &[(4, 5), (2, 3), (0, 1)] {
            let mut d = GraphDelta::new();
            d.insert(NodeId::new(u), NodeId::new(v));
            b.push_delta(&d);
        }
        for r in &final_rounds {
            b.push(r);
        }

        assert_eq!(a.len(), b.len());
        assert_eq!(a.union_graph().edge_vec(), b.union_graph().edge_vec());
        assert_eq!(
            a.intersection_graph().edge_vec(),
            b.intersection_graph().edge_vec()
        );
        // And the materialized order is the canonical sorted one.
        let mut expected = vec![
            Edge::of(0, 1),
            Edge::of(1, 2),
            Edge::of(2, 3),
            Edge::of(3, 4),
            Edge::of(4, 5),
        ];
        expected.sort();
        assert_eq!(a.union_graph().edge_vec(), expected);
    }
}
