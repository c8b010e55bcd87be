//! Graph generators: deterministic families (paths, cycles, grids, stars,
//! complete and complete-bipartite graphs, balanced trees) and random
//! families (Erdős–Rényi, random geometric / unit-disk, preferential
//! attachment, random d-regular-ish) used as base topologies for the
//! experiments.

use crate::graph::Graph;
use crate::node::{Edge, NodeId};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// An empty graph on `n` active nodes.
pub fn empty(n: usize) -> Graph {
    Graph::new(n)
}

/// Path `0 – 1 – … – (n-1)`.
pub fn path(n: usize) -> Graph {
    Graph::from_edges(n, (1..n).map(|i| Edge::of(i - 1, i)))
}

/// Cycle on `n ≥ 3` nodes.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "a cycle needs at least 3 nodes");
    Graph::from_edges(n, (0..n).map(|i| Edge::of(i, (i + 1) % n)))
}

/// Star with center `0` and `n-1` leaves.
pub fn star(n: usize) -> Graph {
    assert!(n >= 2);
    Graph::from_edges(n, (1..n).map(|i| Edge::of(0, i)))
}

/// Complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            g.insert_edge(NodeId::new(i), NodeId::new(j));
        }
    }
    g
}

/// Complete bipartite graph `K_{a,b}` (nodes `0..a` on one side, `a..a+b` on
/// the other).
pub fn complete_bipartite(a: usize, b: usize) -> Graph {
    let mut g = Graph::new(a + b);
    for i in 0..a {
        for j in a..a + b {
            g.insert_edge(NodeId::new(i), NodeId::new(j));
        }
    }
    g
}

/// `rows × cols` grid graph.
pub fn grid(rows: usize, cols: usize) -> Graph {
    let n = rows * cols;
    let mut g = Graph::new(n);
    let id = |r: usize, c: usize| NodeId::new(r * cols + c);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                g.insert_edge(id(r, c), id(r, c + 1));
            }
            if r + 1 < rows {
                g.insert_edge(id(r, c), id(r + 1, c));
            }
        }
    }
    g
}

/// Complete `arity`-ary tree with `n` nodes (node `i`'s parent is
/// `(i-1)/arity`).
pub fn balanced_tree(n: usize, arity: usize) -> Graph {
    assert!(arity >= 1);
    let mut g = Graph::new(n);
    for i in 1..n {
        g.insert_edge(NodeId::new(i), NodeId::new((i - 1) / arity));
    }
    g
}

/// Erdős–Rényi graph `G(n, p)`: every potential edge is present independently
/// with probability `p`.
///
/// Sampled with geometric skips over the linearized upper triangle — one
/// `Geometric(p)` draw per *generated* edge instead of one Bernoulli draw per
/// *potential* edge — so generation is `O(n + m)` expected, not `O(n²)`. The
/// dense-sampling cost made million-node footprints unreachable (5·10¹¹ RNG
/// calls at n = 1M); skip-sampling builds them in under a second. Fully
/// deterministic per seed, though seeds yield different graphs than the old
/// dense sampler did.
pub fn erdos_renyi<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Graph {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    let mut g = Graph::new(n);
    if n < 2 || p <= 0.0 {
        return g;
    }
    if p >= 1.0 {
        for i in 0..n {
            for j in (i + 1)..n {
                g.insert_edge(NodeId::new(i), NodeId::new(j));
            }
        }
        return g;
    }
    // Walk the upper triangle (i < j) in row-major order; each Geometric(p)
    // variate is the gap to the next present edge. The cursor advance across
    // row ends amortizes to O(n) over the whole walk.
    let ln_q = (1.0 - p).ln();
    let (mut i, mut j) = (0usize, 0usize); // cursor sits just *before* (i, j+1)
    loop {
        // U ∈ (0, 1]: clamp away 0 so ln(U) is finite; skip ≥ 1 always.
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let skip_f = (u.ln() / ln_q).floor() + 1.0;
        if skip_f > (n as f64) * (n as f64) {
            return g; // next edge lies past the triangle; avoid cast overflow
        }
        let mut skip = skip_f as usize;
        while skip > 0 {
            let row_left = n - 1 - j;
            if skip <= row_left {
                j += skip;
                skip = 0;
            } else {
                skip -= row_left;
                i += 1;
                j = i;
                if i >= n - 1 {
                    return g;
                }
            }
        }
        g.insert_edge(NodeId::new(i), NodeId::new(j));
    }
}

/// Erdős–Rényi graph with a target *average degree* `d̄` (sets `p = d̄/(n-1)`).
pub fn erdos_renyi_avg_degree<R: Rng + ?Sized>(n: usize, avg_degree: f64, rng: &mut R) -> Graph {
    if n <= 1 {
        return Graph::new(n);
    }
    let p = (avg_degree / (n as f64 - 1.0)).clamp(0.0, 1.0);
    erdos_renyi(n, p, rng)
}

/// Positions of `n` points placed uniformly at random in the unit square.
pub fn random_positions<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<(f64, f64)> {
    (0..n)
        .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
        .collect()
}

/// Unit-disk graph over the given positions: nodes are adjacent iff their
/// Euclidean distance is at most `radius`. This is the standard model of a
/// wireless ad-hoc network — one of the paper's motivating settings.
pub fn unit_disk(positions: &[(f64, f64)], radius: f64) -> Graph {
    let n = positions.len();
    let mut g = Graph::new(n);
    let r2 = radius * radius;
    for i in 0..n {
        for j in (i + 1)..n {
            let dx = positions[i].0 - positions[j].0;
            let dy = positions[i].1 - positions[j].1;
            if dx * dx + dy * dy <= r2 {
                g.insert_edge(NodeId::new(i), NodeId::new(j));
            }
        }
    }
    g
}

/// Random geometric graph: `n` uniform points in the unit square, unit-disk
/// connectivity with the given radius.
pub fn random_geometric<R: Rng + ?Sized>(n: usize, radius: f64, rng: &mut R) -> Graph {
    let pos = random_positions(n, rng);
    unit_disk(&pos, radius)
}

/// Barabási–Albert-style preferential attachment: nodes arrive one by one and
/// connect to `m` existing nodes chosen with probability proportional to the
/// current degree (plus one, so isolated seeds can be chosen).
pub fn preferential_attachment<R: Rng + ?Sized>(n: usize, m: usize, rng: &mut R) -> Graph {
    assert!(m >= 1);
    let mut g = Graph::new(n);
    if n == 0 {
        return g;
    }
    // Repeated-endpoint list: node i appears degree(i)+1 times.
    let mut endpoints: Vec<usize> = vec![0];
    for i in 1..n {
        let mut targets = Vec::new();
        let mut tries = 0;
        while targets.len() < m.min(i) && tries < 50 * m {
            // `endpoints` always holds at least node 0; indexing draws the
            // same sequence as `SliceRandom::choose` without the `None` arm.
            let cand = endpoints[rng.gen_range(0..endpoints.len())];
            if cand != i && !targets.contains(&cand) {
                targets.push(cand);
            }
            tries += 1;
        }
        for &t in &targets {
            g.insert_edge(NodeId::new(i), NodeId::new(t));
            endpoints.push(t);
            endpoints.push(i);
        }
        endpoints.push(i);
    }
    g
}

/// Approximately d-regular random graph built from `d` random perfect
/// matchings on `n` nodes (duplicate edges are simply skipped, so degrees can
/// be slightly below `d`).
pub fn random_regular_ish<R: Rng + ?Sized>(n: usize, d: usize, rng: &mut R) -> Graph {
    let mut g = Graph::new(n);
    let mut perm: Vec<usize> = (0..n).collect();
    for _ in 0..d {
        perm.shuffle(rng);
        for pair in perm.chunks(2) {
            if let [a, b] = pair {
                if a != b {
                    g.insert_edge(NodeId::new(*a), NodeId::new(*b));
                }
            }
        }
    }
    g
}

/// Named graph families, used by the experiment configuration files.
#[derive(Clone, Debug, PartialEq)]
pub enum GraphFamily {
    /// Empty graph.
    Empty,
    /// Path graph.
    Path,
    /// Cycle graph.
    Cycle,
    /// Star graph.
    Star,
    /// Complete graph.
    Complete,
    /// Square-ish grid (`⌈√n⌉ × ⌈n/⌈√n⌉⌉`).
    Grid,
    /// Balanced binary tree.
    BinaryTree,
    /// Erdős–Rényi with the given expected average degree.
    ErdosRenyi {
        /// Target expected average degree `d̄` (edge probability `d̄/(n-1)`).
        avg_degree: f64,
    },
    /// Random geometric graph with the given connection radius.
    Geometric {
        /// Unit-disk connection radius.
        radius: f64,
    },
    /// Preferential attachment with `m` edges per arriving node.
    PreferentialAttachment {
        /// Number of edges each arriving node creates.
        m: usize,
    },
}

/// Entry cap of the process-wide footprint cache; reaching it clears the
/// cache (a full sweep grid re-uses far fewer distinct footprints than
/// this, so eviction only triggers across unrelated experiment suites).
const FOOTPRINT_CACHE_CAP: usize = 64;

type FootprintKey = (String, usize, u64, String);

/// Cached footprint plus whether it was built while a [`FootprintScope`]
/// was active (scoped entries are dropped when the last scope ends).
type FootprintEntry = (Arc<Graph>, bool);

fn footprint_cache() -> &'static Mutex<HashMap<FootprintKey, FootprintEntry>> {
    static CACHE: OnceLock<Mutex<HashMap<FootprintKey, FootprintEntry>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Number of currently live [`FootprintScope`] handles.
static ACTIVE_FOOTPRINT_SCOPES: AtomicUsize = AtomicUsize::new(0);

/// RAII handle scoping the footprint cache to a sweep group: footprints
/// built while at least one scope is live are evicted when the *last*
/// scope drops, so a finished experiment grid releases its (potentially
/// large) base graphs instead of pinning them for the process lifetime.
///
/// Entries built outside any scope keep the old process-wide behavior —
/// they stay until the cache-cap eviction. Scopes may nest
/// and overlap freely (e.g. concurrent sweep cells of one grid); only the
/// final drop clears.
#[derive(Debug)]
pub struct FootprintScope(());

impl FootprintScope {
    /// Opens a scope; footprints built before the matching drop are
    /// released with it.
    pub fn new() -> FootprintScope {
        ACTIVE_FOOTPRINT_SCOPES.fetch_add(1, Ordering::SeqCst);
        FootprintScope(())
    }
}

impl Default for FootprintScope {
    fn default() -> Self {
        FootprintScope::new()
    }
}

impl Drop for FootprintScope {
    fn drop(&mut self) {
        if ACTIVE_FOOTPRINT_SCOPES.fetch_sub(1, Ordering::SeqCst) == 1 {
            let mut cache = footprint_cache()
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            cache.retain(|_, (_, scoped)| !*scoped);
        }
    }
}

/// Number of cached footprints owned by live [`FootprintScope`]s.
pub fn footprint_cache_scoped_len() -> usize {
    footprint_cache()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .values()
        // DETERMINISM: order-independent count; hash order cannot leak.
        .filter(|(_, scoped)| *scoped)
        .count()
}

/// Process-wide `Arc`-cached footprint generator, keyed by
/// `(family, n, seed, label)`.
///
/// Dense sweep grids instantiate many cells over the *same* footprint graph
/// (same family, size, and experiment seed); regenerating it per cell made
/// footprint construction a dominant cost of grid experiments. This returns
/// the cached graph when the key was built before and otherwise runs
/// `build` — under the cache lock, so concurrent cells racing for the same
/// key build it exactly once and the rest wait for the `Arc`.
///
/// The caller's `build` closure must be a pure function of the key (the
/// usual shape: a generator call seeded from `(seed, label)`); the `label`
/// component exists precisely so call sites with different RNG streams but
/// identical family/n/seed stay distinct.
pub fn shared_footprint(
    family: &GraphFamily,
    n: usize,
    seed: u64,
    label: &str,
    build: impl FnOnce() -> Graph,
) -> Arc<Graph> {
    let key = (format!("{family:?}"), n, seed, label.to_string());
    let mut cache = footprint_cache()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some((g, _)) = cache.get(&key) {
        return Arc::clone(g);
    }
    if cache.len() >= FOOTPRINT_CACHE_CAP {
        cache.clear();
    }
    let g = Arc::new(build());
    let scoped = ACTIVE_FOOTPRINT_SCOPES.load(Ordering::SeqCst) > 0;
    cache.insert(key, (Arc::clone(&g), scoped));
    g
}

impl GraphFamily {
    /// Instantiates the family with `n` nodes using the provided RNG.
    pub fn generate<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Graph {
        match self {
            GraphFamily::Empty => empty(n),
            GraphFamily::Path => path(n),
            GraphFamily::Cycle => cycle(n.max(3)),
            GraphFamily::Star => star(n.max(2)),
            GraphFamily::Complete => complete(n),
            GraphFamily::Grid => {
                let cols = (n as f64).sqrt().ceil() as usize;
                let rows = n.div_ceil(cols.max(1));
                grid(rows, cols.max(1))
            }
            GraphFamily::BinaryTree => balanced_tree(n, 2),
            GraphFamily::ErdosRenyi { avg_degree } => erdos_renyi_avg_degree(n, *avg_degree, rng),
            GraphFamily::Geometric { radius } => random_geometric(n, *radius, rng),
            GraphFamily::PreferentialAttachment { m } => preferential_attachment(n, *m, rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(7)
    }

    #[test]
    fn deterministic_families_have_expected_edge_counts() {
        assert_eq!(path(5).num_edges(), 4);
        assert_eq!(cycle(5).num_edges(), 5);
        assert_eq!(star(5).num_edges(), 4);
        assert_eq!(complete(5).num_edges(), 10);
        assert_eq!(complete_bipartite(2, 3).num_edges(), 6);
        assert_eq!(grid(3, 4).num_edges(), 3 * 3 + 2 * 4);
        assert_eq!(balanced_tree(7, 2).num_edges(), 6);
    }

    #[test]
    fn grid_degrees() {
        let g = grid(3, 3);
        assert_eq!(g.degree(NodeId::new(4)), 4, "center of a 3x3 grid");
        assert_eq!(g.degree(NodeId::new(0)), 2, "corner");
    }

    #[test]
    fn erdos_renyi_extremes() {
        let mut r = rng();
        assert_eq!(erdos_renyi(10, 0.0, &mut r).num_edges(), 0);
        assert_eq!(erdos_renyi(10, 1.0, &mut r).num_edges(), 45);
    }

    #[test]
    fn erdos_renyi_avg_degree_close_to_target() {
        let mut r = rng();
        let g = erdos_renyi_avg_degree(400, 10.0, &mut r);
        let avg = g.avg_degree();
        assert!((avg - 10.0).abs() < 2.5, "avg degree {avg} too far from 10");
    }

    #[test]
    fn erdos_renyi_skip_sampling_is_deterministic_and_in_range() {
        let g1 = erdos_renyi(300, 0.02, &mut rng());
        let g2 = erdos_renyi(300, 0.02, &mut rng());
        assert_eq!(g1.edge_vec(), g2.edge_vec(), "same seed, same graph");
        let g3 = erdos_renyi(300, 0.02, &mut ChaCha8Rng::seed_from_u64(8));
        assert_ne!(g1.edge_vec(), g3.edge_vec(), "different seed, new graph");
        for e in g1.edges() {
            let (a, b) = (e.u.index(), e.v.index());
            assert!(a < 300 && b < 300 && a != b);
        }
    }

    #[test]
    fn erdos_renyi_skip_sampling_hits_bernoulli_density() {
        // 2000 nodes, p = 4/1999: ~4000 expected edges, σ ≈ 63. A ±15%
        // window is ~9σ — effectively deterministic for a pinned seed.
        let g = erdos_renyi_avg_degree(2000, 4.0, &mut rng());
        let m = g.num_edges() as f64;
        assert!((3400.0..=4600.0).contains(&m), "edge count {m} off target");
    }

    #[test]
    fn unit_disk_radius_extremes() {
        let pos = vec![(0.0, 0.0), (0.5, 0.0), (1.0, 1.0)];
        let g_small = unit_disk(&pos, 0.1);
        assert_eq!(g_small.num_edges(), 0);
        let g_big = unit_disk(&pos, 2.0);
        assert_eq!(g_big.num_edges(), 3);
        let g_mid = unit_disk(&pos, 0.6);
        assert!(g_mid.has_edge(NodeId::new(0), NodeId::new(1)));
        assert!(!g_mid.has_edge(NodeId::new(0), NodeId::new(2)));
    }

    #[test]
    fn geometric_graph_is_reproducible_per_seed() {
        let g1 = random_geometric(50, 0.2, &mut rng());
        let g2 = random_geometric(50, 0.2, &mut rng());
        assert_eq!(g1.edge_vec(), g2.edge_vec());
    }

    #[test]
    fn preferential_attachment_connected_and_sized() {
        let g = preferential_attachment(100, 2, &mut rng());
        assert!(g.num_edges() >= 100, "roughly m edges per node");
        assert_eq!(crate::algo::num_components(&g), 1);
    }

    #[test]
    fn random_regular_ish_degree_bound() {
        let g = random_regular_ish(40, 4, &mut rng());
        assert!(g.max_degree() <= 4);
        assert!(g.avg_degree() > 2.0);
    }

    #[test]
    fn family_enum_generates() {
        let mut r = rng();
        for fam in [
            GraphFamily::Empty,
            GraphFamily::Path,
            GraphFamily::Cycle,
            GraphFamily::Star,
            GraphFamily::Grid,
            GraphFamily::BinaryTree,
            GraphFamily::ErdosRenyi { avg_degree: 4.0 },
            GraphFamily::Geometric { radius: 0.2 },
            GraphFamily::PreferentialAttachment { m: 2 },
        ] {
            let g = fam.generate(20, &mut r);
            assert_eq!(g.num_nodes(), 20);
        }
        let k = GraphFamily::Complete.generate(6, &mut r);
        assert_eq!(k.num_edges(), 15);
    }

    #[test]
    fn shared_footprint_dedupes_by_key() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let fam = GraphFamily::ErdosRenyi { avg_degree: 4.0 };
        let builds = AtomicUsize::new(0);
        let build = |seed: u64| {
            builds.fetch_add(1, Ordering::SeqCst);
            erdos_renyi(64, 0.05, &mut ChaCha8Rng::seed_from_u64(seed))
        };
        let a = shared_footprint(&fam, 64, 900, "sf-test", || build(900));
        let b = shared_footprint(&fam, 64, 900, "sf-test", || build(900));
        assert!(Arc::ptr_eq(&a, &b), "same key shares one graph");
        assert_eq!(builds.load(Ordering::SeqCst), 1, "built exactly once");
        // A different label (distinct RNG stream) is a distinct key.
        let c = shared_footprint(&fam, 64, 900, "sf-test-2", || build(901));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(builds.load(Ordering::SeqCst), 2);
        // Different n and seed are distinct keys too.
        let d = shared_footprint(&fam, 65, 900, "sf-test", || build(902));
        let e = shared_footprint(&fam, 64, 901, "sf-test", || build(903));
        assert!(!Arc::ptr_eq(&a, &d) && !Arc::ptr_eq(&a, &e));
    }
}
