//! End-to-end and per-layer benchmark of the paper's `Concat` algorithms.
//!
//! Three workloads drive the public `dynnet` API from outside, one call per
//! layer per round, and time each call:
//!
//! * `mis-concat` — `dynamic_mis` (Corollary 1.3) in steady state under
//!   sparse edge churn, verifier attached, one thread;
//! * `coloring-mobility` — `dynamic_coloring` (Corollary 1.2) under
//!   random-waypoint mobility, verifier attached, one thread;
//! * `dmis-sweep` — a checkpointed `SweepEngine` grid of bare `DMis` cells
//!   at n = 50k, reloaded from its checkpoint and compared bit for bit.
//!
//! See `README.md` next to this crate for the metrics and what each layer
//! metric is expected to move.

pub mod alloc;
pub mod stats;
pub mod timed;
mod workloads;

pub use workloads::run;

use std::collections::BTreeMap;
use std::path::PathBuf;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `dynamic_mis` on Erdős–Rényi under flip churn.
    MisConcat,
    /// `dynamic_coloring` under random-waypoint mobility.
    ColoringMobility,
    /// A checkpointed sweep grid of bare `DMis` cells.
    DmisSweep,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 3] = [
        Workload::MisConcat,
        Workload::ColoringMobility,
        Workload::DmisSweep,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MisConcat => "mis-concat",
            Workload::ColoringMobility => "coloring-mobility",
            Workload::DmisSweep => "dmis-sweep",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs on one thread (the `Concat` workloads) or
    /// on the whole thread budget (the sweep).
    pub fn single_threaded(self) -> bool {
        !matches!(self, Workload::DmisSweep)
    }
}

/// Sizes of one workload. [`Params::of`] gives the benchmark's; the
/// benchmark's tests shrink them.
///
/// A run does a fixed amount of work derived from `--seconds` (rounds for
/// the `Concat` workloads, grids for the sweep) instead of working until a
/// deadline: every run of a seed then measures the same rounds, whatever
/// the machine's speed. This matters on `mis-concat`, whose round cost
/// keeps falling for ~18 · T1 rounds while the `SAlg` output settles, so a
/// deadline would let the machine's speed pick the rounds measured.
#[derive(Clone, Debug)]
pub struct Params {
    /// Number of nodes.
    pub n: usize,
    /// Window `T1 = recommended_window(n)`: the `Concat` parameter and the
    /// verifier's window.
    pub window: usize,
    /// Rounds after round 0 before timing starts: at least `window`, so
    /// every `Concat` instance is live. `mis-concat` waits `3 · window`:
    /// its rounds cost ~40% more until the instances started before the
    /// `SAlg` output settled have aged out (around `2.4 · window`), and
    /// timing that short transient made `round_ms_p90` the noisiest figure.
    pub warmup: usize,
    /// Steady-state rounds measured per second of `--seconds`. On the
    /// machine the benchmark was tuned on, a run measures ~1.2 s
    /// (`mis-concat`) and ~1.4 s (`coloring-mobility`) per second asked:
    /// more rounds than the time asked, because its noise needs them.
    pub rounds_per_s: f64,
    /// Fewest steady-state rounds a run measures, so that `round_ms_p90`
    /// has at least ten samples beyond it.
    pub min_rounds: usize,
    /// Steady-state rounds of each sweep cell (`dmis-sweep` only).
    pub cell_rounds: usize,
    /// Seconds of `--seconds` per sweep grid (`dmis-sweep` only).
    pub grid_s: f64,
    /// Cells of the sweep grid (`dmis-sweep` only).
    pub cells: usize,
    /// Rounds the mobility model is advanced before the run starts
    /// (`coloring-mobility` only).
    pub burn_in: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

impl Params {
    /// The benchmark's parameters for `workload`.
    pub fn of(workload: Workload) -> Params {
        let n = match workload {
            Workload::MisConcat | Workload::ColoringMobility => 1000,
            Workload::DmisSweep => 50_000,
        };
        let window = dynnet::core::recommended_window(n);
        Params {
            n,
            window,
            warmup: match workload {
                Workload::MisConcat => 3 * window,
                _ => window,
            },
            rounds_per_s: match workload {
                Workload::MisConcat => 35.0,
                _ => 20.0,
            },
            min_rounds: 100,
            cell_rounds: 100,
            grid_s: 11.0,
            cells: 8,
            burn_in: 600,
            setups: match workload {
                Workload::DmisSweep => 7,
                _ => 61,
            },
        }
    }

    /// A tiny version of any workload, for smoke tests.
    pub fn tiny() -> Params {
        let n = 60;
        let window = dynnet::core::recommended_window(n);
        Params {
            n,
            window,
            warmup: window,
            rounds_per_s: 100.0,
            min_rounds: 12,
            cell_rounds: 12,
            grid_s: 1.0,
            cells: 3,
            burn_in: 20,
            setups: 2,
        }
    }

    /// Steady-state rounds a `Concat` run measures for `--seconds`.
    pub fn measured_rounds(&self, seconds: f64) -> usize {
        ((seconds * self.rounds_per_s).round() as usize).max(self.min_rounds)
    }

    /// Grids a `dmis-sweep` run measures for `--seconds`.
    pub fn grids(&self, seconds: f64) -> usize {
        ((seconds / self.grid_s).round() as usize).max(1)
    }
}

/// One benchmark run.
#[derive(Clone, Debug)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Its sizes.
    pub params: Params,
    /// Seed all inputs derive from.
    pub seed: u64,
    /// Measurement time asked for, in seconds; it sets the amount of work
    /// (see [`Params`]).
    pub seconds: f64,
    /// Traced run: spans on, the `Concat` timing wrapper, per-layer
    /// allocation tags.
    pub traced: bool,
    /// `round_ms_p50` of an untraced run of the same workload, for
    /// `obs.trace_overhead_frac`.
    pub untraced_round_ms: Option<f64>,
    /// Directory the sweep checkpoints into (created and removed by the
    /// run).
    pub scratch: PathBuf,
}

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one run measured and checked.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Every check passed.
    pub correct: bool,
    /// Operations attempted: steady-state rounds (`Concat` workloads) or
    /// sweep cells (`dmis-sweep`).
    pub attempted: u64,
    /// Operations that failed: rounds the verifier found invalid, or cells
    /// that errored or did not reload bit for bit.
    pub failed: u64,
    /// End-to-end metrics.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// End-to-end figures printed for reading but not gated: they are
    /// small integers or zero (`first_valid_round`, `failed_frac`) or
    /// proportional to a gated metric (`cells_per_s`).
    pub info: Vec<Metric>,
    /// Exact counters over the measured rounds; identical for identical
    /// seeds and `seconds`.
    pub exact: BTreeMap<&'static str, u64>,
    /// FNV-1a digest of the output trajectory over every round of the run.
    pub digest: u64,
    /// Steady-state round samples behind `round_ms_p50`/`p90`.
    pub samples: usize,
    /// Human-readable descriptions of failed checks.
    pub problems: Vec<String>,
}

impl Report {
    /// The metric called `name`, end-to-end or per-layer.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: one JSON object with the run's verdict and its
    /// end-to-end (untraced) or per-layer (traced) metrics.
    pub fn json(&self, traced: bool) -> String {
        let metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

/// Parses the command line and runs the benchmark; the binaries' `main`.
pub fn main_with(traced: bool) -> std::process::ExitCode {
    match parse_args(std::env::args().skip(1), traced) {
        Ok(config) => {
            if config.workload.single_threaded() {
                // The thread budget is read once, at the first parallel
                // call; pin it before any.
                std::env::set_var("DYNNET_RAYON_THREADS", "1");
            }
            let report = run(&config);
            print_report(&config, &report);
            std::process::ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("dynbench: {msg}");
            eprintln!(
                "usage: dynbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
                 [--untraced-round-ms <ms>] [--scratch <dir>]",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::ExitCode::from(2)
        }
    }
}

fn parse_args(args: impl Iterator<Item = String>, traced_binary: bool) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut untraced_round_ms = None;
    let mut scratch = PathBuf::from(".bench_build/dynbench-scratch");
    let mut args = args;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or_else(|| format!("no workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())?),
            "--untraced-round-ms" => {
                untraced_round_ms = Some(value.parse::<f64>().map_err(|_| bad())?)
            }
            "--scratch" => scratch = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let seconds = seconds.ok_or("--seconds is required")?;
    let traced = match trace.ok_or("--trace is required")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    if traced != traced_binary {
        return Err(format!(
            "--trace {} needs the {} binary",
            u8::from(traced),
            if traced {
                "dynbench-traced"
            } else {
                "dynbench"
            }
        ));
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], not {seconds}"));
    }
    Ok(Config {
        workload,
        params: Params::of(workload),
        seed,
        seconds,
        traced,
        untraced_round_ms,
        scratch,
    })
}

fn print_report(config: &Config, report: &Report) {
    let p = &config.params;
    println!(
        "workload={} seed={} n={} window={} traced={}",
        config.workload.name(),
        config.seed,
        p.n,
        p.window,
        config.traced
    );
    println!("round samples={}", report.samples);
    for m in report.end_to_end.iter().chain(&report.info) {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    println!("digest={:016x}", report.digest);
    for (name, value) in &report.exact {
        println!("exact {name}={value}");
    }
    for problem in &report.problems {
        println!("FAILED CHECK: {problem}");
    }
    println!("{}", report.json(config.traced));
}
