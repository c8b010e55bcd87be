//! Sequential/parallel equivalence of the round pipeline's output-churn
//! tracking.
//!
//! The simulator fuses output publication and churn detection into the
//! receive phase; on the parallel path each worker shard publishes its
//! nodes' outputs and emits a shard-local changed list, and the shard lists
//! are concatenated in node order. This suite pins the contract that makes
//! the incremental verifier sound on the parallel path: for every built-in
//! adversary × {MIS, coloring}, `StepSummary::changed_outputs` (observed
//! through `RoundView::changed_outputs`) and the final outputs are
//! *byte-identical* between sequential and rayon-parallel execution —
//! per-(seed, node, round) randomness makes the executions themselves
//! identical, and the shard merge must not reorder or drop churn entries.
//!
//! Beyond seq == par, every run's full output trajectory is folded into an
//! FNV-1a-64 digest and pinned against [`GOLDEN`], so a kernel rewrite that
//! changes outputs identically on both paths still fails here.

use dynnet::graph::DynamicGraphTrace;
use dynnet::prelude::*;
use dynnet::runtime::rng::experiment_rng;
use dynnet::runtime::AlgorithmFactory;
use std::sync::Mutex;

const N: usize = 24;
const WINDOW: usize = 4;

/// Work-stealing chunk granularities the parallel leg is replayed under:
/// 1×, 2×, and 4× (the default) chunks per claimed thread. Results must be
/// byte-identical at every granularity — shards are contiguous index ranges
/// concatenated in order, so chunking is scheduling-only.
const CHUNK_FACTORS: [usize; 3] = [1, 2, 4];

/// `rayon::set_chunk_factor` writes a process-wide knob; tests in this
/// binary run concurrently, so every factor-varying section serializes here
/// and restores the default before releasing the lock.
static CHUNK_KNOB: Mutex<()> = Mutex::new(());

fn footprint(seed: u64) -> Graph {
    generators::erdos_renyi_avg_degree(N, 4.0, &mut experiment_rng(seed, "par-eq"))
}

/// Golden output-trajectory digests, one per adversary × problem. Each is
/// the [`OutputDigest`] of a 24-round run, identical on the sequential and
/// every parallel leg. Captured before any round-kernel rewrite; a change
/// here means the algorithms' outputs changed.
const GOLDEN: [(&str, u64); 24] = [
    ("static/coloring", 0x8782_d24b_effc_e605),
    ("static/mis", 0x76b0_7448_e32e_159b),
    ("scripted/coloring", 0x0c39_cf08_2e23_a286),
    ("scripted/mis", 0x5122_599c_926b_7b36),
    ("phase/coloring", 0xe907_2fd6_ada0_aaca),
    ("phase/mis", 0x3058_cd13_8d93_acbd),
    ("markov/coloring", 0x497d_3dda_1596_eafc),
    ("markov/mis", 0xc775_ddf5_bf3e_84d4),
    ("flip/coloring", 0xed15_c6c9_aeff_1e18),
    ("flip/mis", 0x04ad_ab0a_ec7b_ef28),
    ("rate/coloring", 0xffa7_9b2f_610d_5b9d),
    ("rate/mis", 0x7543_7dca_7648_c1aa),
    ("burst/coloring", 0xd4b5_2f8c_e6ca_07ab),
    ("burst/mis", 0x18ad_2102_80a2_73ae),
    ("node-churn/coloring", 0x776e_e525_2c99_f5df),
    ("node-churn/mis", 0x5e51_abef_a665_026d),
    ("growth/coloring", 0xa8fb_f34d_6652_1c25),
    ("growth/mis", 0x63c1_688b_c2c9_bb7c),
    ("mobility/coloring", 0x1d10_3578_785b_c77f),
    ("mobility/mis", 0xe17c_f4ab_e713_960d),
    ("locally-static/coloring", 0xfe8f_f0d3_debb_ea2b),
    ("locally-static/mis", 0x0ac1_8bdd_5fd4_4fae),
    ("conflict-seeking/coloring", 0x7b13_c8b6_bac8_1ca2),
    ("conflict-seeking/mis", 0xb424_851c_b855_64a6),
];

/// The explicit byte encoding the digest folds, fixed by hand rather than
/// derived through `Hash`, so the digests survive toolchain changes.
trait DigestBytes {
    fn digest_bytes(&self, out: &mut Vec<u8>);
}

impl DigestBytes for MisOutput {
    fn digest_bytes(&self, out: &mut Vec<u8>) {
        out.push(match self {
            MisOutput::Undecided => 0,
            MisOutput::InMis => 1,
            MisOutput::Dominated => 2,
        });
    }
}

impl DigestBytes for ColorOutput {
    fn digest_bytes(&self, out: &mut Vec<u8>) {
        match self {
            ColorOutput::Undecided => out.push(0),
            ColorOutput::Colored(c) => {
                out.push(1);
                out.extend_from_slice(&(*c as u64).to_le_bytes());
            }
        }
    }
}

/// FNV-1a-64 over every round's full output vector: per node one tag byte
/// (`0` asleep, `1` awake) followed by the output's [`DigestBytes`].
struct OutputDigest {
    hash: u64,
    buf: Vec<u8>,
}

impl OutputDigest {
    fn new() -> Self {
        OutputDigest {
            hash: 0xcbf2_9ce4_8422_2325,
            buf: Vec::new(),
        }
    }

    fn fold<O: DigestBytes>(&mut self, outputs: &[Option<O>]) {
        self.buf.clear();
        for out in outputs {
            match out {
                None => self.buf.push(0),
                Some(o) => {
                    self.buf.push(1);
                    o.digest_bytes(&mut self.buf);
                }
            }
        }
        for &b in &self.buf {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn golden(name: &str) -> u64 {
    GOLDEN
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, d)| d)
        .unwrap_or_else(|| panic!("{name}: no golden digest"))
}

/// Collects every round's exact churn list as reported by the simulator,
/// and folds every round's outputs into the trajectory digest.
struct ChurnCollector {
    rounds: Vec<Vec<NodeId>>,
    digest: OutputDigest,
}

impl<O: DigestBytes> RoundObserver<O> for ChurnCollector {
    fn on_round(&mut self, view: &RoundView<'_, O>) {
        let changed = view
            .changed_outputs
            .expect("the simulator always tracks output churn");
        // The churn list is sorted ascending by construction on both paths.
        assert!(changed.windows(2).all(|w| w[0] < w[1]), "unsorted churn");
        self.rounds.push(changed.to_vec());
        self.digest.fold(view.outputs);
    }
}

/// Runs the same scenario sequentially and parallel (threshold 0, so the
/// parallel path is exercised regardless of `n`) and asserts identical
/// per-round churn lists and final outputs, and that every leg's output
/// trajectory digest equals the golden one. Factory and adversary are
/// handed in as builders because neither the combined-algorithm factories
/// nor every adversary is `Clone`; determinism comes from the builders
/// producing identical values.
fn assert_seq_par_identical<A, F, Adv>(
    name: &str,
    mk_factory: impl Fn() -> F,
    mk_adversary: impl Fn() -> Adv,
    rounds: usize,
) where
    A: NodeAlgorithm,
    A::Output: std::fmt::Debug + DigestBytes,
    F: AlgorithmFactory<A>,
    Adv: OutputAdversary<A::Output>,
{
    let run = |parallel: bool| {
        let mut churn = ChurnCollector {
            rounds: Vec::new(),
            digest: OutputDigest::new(),
        };
        let runner = Scenario::new(N)
            .algorithm(mk_factory())
            .adversary(mk_adversary())
            .seed(11)
            .parallel(parallel)
            .parallel_threshold(0)
            .rounds(rounds)
            .run(&mut [&mut churn]);
        assert_eq!(churn.rounds.len(), rounds, "{name}: observer missed rounds");
        (churn.rounds, runner.outputs().to_vec(), churn.digest.hash)
    };
    let golden = golden(name);
    let (seq_churn, seq_outputs, seq_digest) = run(false);
    assert_eq!(
        seq_digest, golden,
        "{name}: sequential output digest {seq_digest:#018x} differs from the golden one"
    );
    let _knob = CHUNK_KNOB
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for factor in CHUNK_FACTORS {
        rayon::set_chunk_factor(factor);
        let (par_churn, par_outputs, par_digest) = run(true);
        assert_eq!(
            par_digest, golden,
            "{name}: parallel output digest {par_digest:#018x} differs from the golden one at chunk factor {factor}"
        );
        assert_eq!(
            seq_churn, par_churn,
            "{name}: changed_outputs diverged at chunk factor {factor}"
        );
        assert_eq!(
            seq_outputs, par_outputs,
            "{name}: final outputs diverged at chunk factor {factor}"
        );
    }
    rayon::set_chunk_factor(rayon::DEFAULT_CHUNK_FACTOR);
}

/// Runs one adversary against the combined coloring and MIS algorithms.
/// The adversary argument is an *expression* re-evaluated per run, so it
/// need not be `Clone`.
macro_rules! check_both_problems {
    ($name:expr, $mk_coloring_adv:expr, $mk_mis_adv:expr) => {
        let rounds = 4 * WINDOW + 8;
        assert_seq_par_identical(
            concat!($name, "/coloring"),
            || dynamic_coloring(WINDOW),
            || $mk_coloring_adv,
            rounds,
        );
        assert_seq_par_identical(
            concat!($name, "/mis"),
            || dynamic_mis(N, WINDOW),
            || $mk_mis_adv,
            rounds,
        );
    };
    ($name:expr, $mk_adv:expr) => {
        check_both_problems!($name, $mk_adv, $mk_adv)
    };
}

#[test]
fn static_adversary() {
    check_both_problems!("static", StaticAdversary::new(footprint(1)));
}

#[test]
fn scripted_adversary() {
    let rounds = 4 * WINDOW + 8;
    let mut churn = FlipChurnAdversary::new(&footprint(2), 0.05, 3);
    let g0 = Adversary::initial_graph(&mut churn);
    let mut trace = DynamicGraphTrace::new(g0.clone());
    let mut g = g0;
    for r in 1..rounds as u64 {
        let d = Adversary::next_delta(&mut churn, r, &g);
        d.apply(&mut g);
        trace.push_delta(d);
    }
    check_both_problems!("scripted", ScriptedAdversary::new(trace.clone()));
}

#[test]
fn phase_adversary() {
    let mk = || {
        PhaseAdversary::new(vec![
            (
                0,
                Box::new(StaticAdversary::new(footprint(4))) as Box<dyn Adversary>,
            ),
            (6, Box::new(FlipChurnAdversary::new(&footprint(4), 0.08, 5))),
            (
                (2 * WINDOW + 4) as u64,
                Box::new(RateChurnAdversary::new(footprint(4), 2, 2, 6)),
            ),
        ])
    };
    check_both_problems!("phase", mk(), mk());
}

#[test]
fn markov_churn_adversary() {
    check_both_problems!(
        "markov",
        MarkovChurnAdversary::new(&footprint(7), 0.1, 0.1, true, 8)
    );
}

#[test]
fn flip_churn_adversary() {
    check_both_problems!("flip", FlipChurnAdversary::new(&footprint(9), 0.08, 10));
}

#[test]
fn rate_churn_adversary() {
    check_both_problems!("rate", RateChurnAdversary::new(footprint(11), 3, 3, 12));
}

#[test]
fn burst_adversary() {
    check_both_problems!(
        "burst",
        BurstAdversary::new(
            footprint(13),
            (WINDOW + 2) as u64,
            (WINDOW / 2 + 1) as u64,
            4,
            14
        )
    );
}

#[test]
fn node_churn_adversary() {
    check_both_problems!(
        "node-churn",
        NodeChurnAdversary::new(footprint(15), 0.05, 0.2, 16)
    );
}

#[test]
fn growth_adversary() {
    check_both_problems!("growth", GrowthAdversary::new(footprint(17), 6, 2));
}

#[test]
fn mobility_adversary() {
    check_both_problems!(
        "mobility",
        MobilityAdversary::new(
            MobilityConfig {
                n: N,
                radius: 0.3,
                ..Default::default()
            },
            18,
        )
    );
}

#[test]
fn locally_static_adversary() {
    check_both_problems!(
        "locally-static",
        LocallyStaticAdversary::new(footprint(19), vec![NodeId::new(0)], 2, 0.2, 20)
    );
}

#[test]
fn conflict_seeking_adversary() {
    check_both_problems!(
        "conflict-seeking",
        ConflictSeekingAdversary::new(
            footprint(21),
            |a: &ColorOutput, b: &ColorOutput| {
                matches!((a, b), (ColorOutput::Colored(x), ColorOutput::Colored(y)) if x == y)
            },
            3,
            0.05,
            (2 * WINDOW) as u64,
            22,
        ),
        ConflictSeekingAdversary::new(
            footprint(21),
            |a: &MisOutput, b: &MisOutput| matches!((a, b), (MisOutput::InMis, MisOutput::InMis)),
            3,
            0.05,
            (2 * WINDOW) as u64,
            22,
        )
    );
}

/// The incremental T-dynamic verifier consumes the parallel path's churn
/// lists unchanged: verifying a parallel execution must yield the same
/// summary as verifying the sequential one.
#[test]
fn verifier_summary_identical_across_paths() {
    let run = |parallel: bool| {
        let mut verifier = TDynamicVerifier::new(ColoringProblem, WINDOW);
        Scenario::new(N)
            .algorithm(dynamic_coloring(WINDOW))
            .adversary(FlipChurnAdversary::new(&footprint(23), 0.06, 24))
            .seed(11)
            .parallel(parallel)
            .parallel_threshold(0)
            .rounds(4 * WINDOW + 8)
            .run(&mut [&mut verifier]);
        verifier.into_summary()
    };
    assert_eq!(run(false), run(true));
}
