//! End-to-end sweep-engine guarantees:
//!
//! * **Determinism** — a (adversary × seed) grid of real scenarios produces
//!   byte-identical `Table::to_csv()` output with 1 worker thread and with 8
//!   worker threads (results are keyed by grid coordinates, and every cell
//!   derives its randomness from its own parameters).
//! * **Cancel-on-panic** — a panicking cell aborts the sweep and the engine
//!   reports the failing grid cell's index and label.

use dynnet_adversary::{
    FlipChurnAdversary, MarkovChurnAdversary, OutputAdversary, Scenario, StaticAdversary,
};
use dynnet_algorithms::coloring::DColor;
use dynnet_core::{ColorOutput, HasBottom};
use dynnet_graph::{generators, NodeId};
use dynnet_metrics::Table;
use dynnet_runtime::observer::ChurnStats;
use dynnet_sweep::{SweepEngine, SweepSpec};

/// The adversary axis of the determinism grid.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Adv {
    Static,
    Flip,
    Markov,
}

const ADVERSARIES: &[Adv] = &[Adv::Static, Adv::Flip, Adv::Markov];
const SEEDS: &[u64] = &[0, 1, 2, 3, 4];

fn spec() -> SweepSpec<(Adv, u64)> {
    SweepSpec::grid2("determinism", ADVERSARIES, SEEDS, |&a, &s| {
        (format!("{a:?} seed={s}"), (a, s))
    })
}

/// Runs the full grid on `threads` workers and renders the one result table.
/// With `parallel_rounds` every cell also runs its rounds on the parallel
/// executor (threshold 0), stacking sweep-level and round-level parallelism.
fn run_grid_with(threads: usize, parallel_rounds: bool) -> Table {
    let n = 48;
    let rounds = 40;
    let spec = spec();
    let run = SweepEngine::new(threads)
        .run(&spec, |cell| {
            let (adv, seed) = cell.params;
            let footprint = generators::erdos_renyi_avg_degree(
                n,
                6.0,
                &mut dynnet_runtime::rng::experiment_rng(seed, "sweep-det"),
            );
            let mut churn = ChurnStats::new();
            let adversary: Box<dyn OutputAdversary<ColorOutput>> = match adv {
                Adv::Static => Box::new(StaticAdversary::new(footprint)),
                Adv::Flip => Box::new(FlipChurnAdversary::new(&footprint, 0.05, 7 + seed)),
                Adv::Markov => Box::new(MarkovChurnAdversary::new(
                    &footprint,
                    0.1,
                    0.1,
                    false,
                    9 + seed,
                )),
            };
            let runner = Scenario::new(n)
                .algorithm(|v: NodeId| DColor::new(v, ColorOutput::Undecided))
                .adversary(adversary)
                .seed(seed)
                .parallel(parallel_rounds)
                .parallel_threshold(0)
                .rounds(rounds)
                .run(&mut [&mut churn]);
            let decided = runner
                .outputs()
                .iter()
                .filter(|o| o.map(|c| c.is_decided()).unwrap_or(false))
                .count();
            (decided, churn.total_from(0))
        })
        .expect("sweep must succeed");
    let mut table = Table::new("sweep determinism", &["cell", "decided", "output changes"]);
    for (cell, (decided, changes)) in spec.cells().iter().zip(run.results()) {
        table.push_row(vec![
            cell.label.clone(),
            decided.to_string(),
            changes.to_string(),
        ]);
    }
    table
}

fn run_grid(threads: usize) -> Table {
    run_grid_with(threads, false)
}

#[test]
fn one_thread_and_eight_threads_produce_byte_identical_csv() {
    let reference = run_grid(1);
    assert_eq!(
        reference.rows.len(),
        ADVERSARIES.len() * SEEDS.len(),
        "one row per grid cell"
    );
    // Scenarios actually did something (not all-zero columns).
    assert!(reference.rows.iter().any(|r| r[1] != "0"));
    let csv1 = reference.to_csv();
    for threads in [2, 8] {
        let csv_n = run_grid(threads).to_csv();
        assert_eq!(
            csv1, csv_n,
            "CSV output must be byte-identical with {threads} threads"
        );
    }
}

/// Work-stealing chunk granularity is scheduling-only: the same sweep, with
/// parallel rounds inside every cell, renders a byte-identical CSV whether
/// the round kernel splits work into 1, 2, or 4 chunks per claimed thread.
/// (On a 1-thread budget the parallel path degrades to sequential and the
/// factors are trivially identical; CI's `DYNNET_RAYON_THREADS=2` pass
/// exercises the real chunked plans.)
#[test]
fn chunk_granularity_produces_byte_identical_csv() {
    let reference = run_grid_with(2, true).to_csv();
    for factor in [1usize, 2, 4] {
        rayon::set_chunk_factor(factor);
        let csv = run_grid_with(2, true).to_csv();
        assert_eq!(
            reference, csv,
            "CSV output must be byte-identical at chunk factor {factor}"
        );
    }
    rayon::set_chunk_factor(rayon::DEFAULT_CHUNK_FACTOR);
}

#[test]
fn cancel_on_panic_surfaces_the_failing_grid_cell() {
    let err = match SweepEngine::new(8).run(&spec(), |cell| {
        let (adv, seed) = cell.params;
        if adv == Adv::Markov && seed == 2 {
            panic!("injected failure in markov/2");
        }
        seed
    }) {
        Err(e) => e,
        Ok(_) => panic!("the sweep must fail"),
    };
    // Grid is adversary-major: Markov is the third adversary block.
    assert_eq!(err.cell_index, 2 * SEEDS.len() + 2);
    assert_eq!(err.cell_label, "Markov seed=2");
    assert_eq!(err.sweep, "determinism");
    assert!(err.message.contains("injected failure"));
    assert!(err.to_string().contains("Markov seed=2"));
}
