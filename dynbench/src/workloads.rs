//! The three workloads and the per-round loop they share.

use crate::alloc::{self, Layer};
use crate::stats::{median, quantile, self_times_ms, Fnv};
use crate::timed::{ConcatCounters, TimedFactory};
use crate::{Config, Metric, Params, Report, Workload};
use dynnet::adversary::{
    Adversary, FlipChurnAdversary, MobilityAdversary, MobilityConfig, OutputAdversary,
};
use dynnet::algorithms::coloring::dynamic_coloring;
use dynnet::algorithms::mis::{dynamic_mis, DMis};
use dynnet::core::{
    ColoringProblem, DynamicProblem, MisOutput, MisProblem, TDynamicVerifier, VerificationSummary,
};
use dynnet::graph::{generators, Graph, NodeId};
use dynnet::runtime::rng::experiment_rng;
use dynnet::runtime::{
    AlgorithmFactory, AllAtStart, NodeAlgorithm, RoundObserver, RoundView, SimConfig, Simulator,
};
use dynnet::sweep::{CheckpointStore, SweepEngine, SweepSpec};
use std::cell::OnceCell;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Average degree of the Erdős–Rényi footprints.
const AVG_DEGREE: f64 = 8.0;
/// Per-round flip probability of each footprint edge, `mis-concat`.
const MIS_FLIP_P: f64 = 0.001;
/// Per-round flip probability of each footprint edge, `dmis-sweep`.
const SWEEP_FLIP_P: f64 = 0.01;
/// Per-round node speeds of `coloring-mobility`, in unit-square lengths.
const MOBILITY_SPEED: (f64, f64) = (0.002, 0.01);

/// Runs one configured benchmark run.
pub fn run(config: &Config) -> Report {
    match config.workload {
        Workload::MisConcat => {
            let n = config.params.n;
            let window = config.params.window;
            let seed = config.seed;
            let adversary = move |generate_s: &mut f64| {
                let footprint = timed_generate(generate_s, || {
                    generators::erdos_renyi_avg_degree(
                        n,
                        AVG_DEGREE,
                        &mut experiment_rng(seed, "dynbench-footprint"),
                    )
                });
                let _tag = alloc::enter(Layer::Adversary);
                FlipChurnAdversary::new(&footprint, MIS_FLIP_P, mix(seed, 1))
            };
            if config.traced {
                let factory = || TimedFactory(dynamic_mis(n, window));
                concat_workload(config, factory, adversary, MisProblem)
            } else {
                let factory = || dynamic_mis(n, window);
                concat_workload(config, factory, adversary, MisProblem)
            }
        }
        Workload::ColoringMobility => {
            let n = config.params.n;
            let window = config.params.window;
            let seed = config.seed;
            // Input generation, outside the timed set-up: random-waypoint
            // nodes drift towards the centre of the square, so the degree
            // keeps growing for hundreds of rounds after a uniform start.
            // The run starts from positions burned in past that drift.
            let burned_in = burned_in_mobility(n, mix(seed, 2), config.params.burn_in);
            // The footprint is the adversary's first unit-disk graph.
            let adversary = move |_: &mut f64| {
                let _tag = alloc::enter(Layer::Adversary);
                burned_in.clone()
            };
            if config.traced {
                let factory = || TimedFactory(dynamic_coloring(window));
                concat_workload(config, factory, adversary, ColoringProblem)
            } else {
                let factory = || dynamic_coloring(window);
                concat_workload(config, factory, adversary, ColoringProblem)
            }
        }
        Workload::DmisSweep => sweep_workload(config),
    }
}

/// Unit-disk radius giving an expected degree of [`AVG_DEGREE`] for `n`
/// uniform points (ignoring the border of the unit square).
fn mobility_config(n: usize) -> MobilityConfig {
    MobilityConfig {
        n,
        radius: (AVG_DEGREE / (std::f64::consts::PI * n as f64)).sqrt(),
        min_speed: MOBILITY_SPEED.0,
        max_speed: MOBILITY_SPEED.1,
    }
}

/// A mobility adversary advanced by `rounds` rounds from its uniform start.
fn burned_in_mobility(n: usize, seed: u64, rounds: usize) -> MobilityAdversary {
    let mut adv = MobilityAdversary::new(mobility_config(n), seed);
    let mut graph = Adversary::initial_graph(&mut adv);
    for round in 1..=rounds as u64 {
        Adversary::next_delta(&mut adv, round, &graph).apply(&mut graph);
    }
    adv
}

/// SplitMix64 of `seed` and `stream`: independent seeds for the parts of
/// one workload.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn timed_generate(generate_s: &mut f64, build: impl FnOnce() -> Graph) -> Graph {
    let start = Instant::now();
    let _tag = alloc::enter(Layer::Graph);
    let g = build();
    *generate_s = start.elapsed().as_secs_f64();
    g
}

fn ms(start: Instant, end: Instant) -> f64 {
    end.duration_since(start).as_secs_f64() * 1e3
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One steady-state round as the benchmark saw it.
#[derive(Clone, Copy, Debug, Default)]
struct RoundSample {
    /// `next_delta` through the last observer.
    total_ms: f64,
    adversary_ms: f64,
    apply_ms: f64,
    step_ms: f64,
    verify_ms: f64,
    delta_edges: u64,
    output_churn: u64,
    msgs_delivered: u64,
    awake: u64,
    valid: bool,
}

/// One execution driven round by round through the public API: the
/// adversary's delta, its application to the persistent graph, the
/// simulator's delta step and the verifier as a `RoundObserver`.
struct Execution<A, F, Adv, P>
where
    A: NodeAlgorithm,
    F: AlgorithmFactory<A>,
    P: DynamicProblem<Output = A::Output>,
{
    sim: Simulator<A, F, AllAtStart>,
    adversary: Adv,
    graph: Graph,
    verifier: TDynamicVerifier<P>,
    digest: Fnv,
    /// Last round the verifier found invalid.
    last_invalid: Option<u64>,
    /// Seconds the adversary took to produce round 0's graph.
    initial_graph_s: f64,
}

impl<A, F, Adv, P> Execution<A, F, Adv, P>
where
    A: NodeAlgorithm,
    A::Output: Hash,
    F: AlgorithmFactory<A>,
    Adv: OutputAdversary<A::Output>,
    P: DynamicProblem<Output = A::Output>,
{
    /// Builds the simulator and verifier and runs round 0 (the full CSR
    /// build). Each call into a layer tags its allocations with the layer
    /// (counted only under the traced binary's allocator).
    fn start(
        n: usize,
        factory: F,
        mut adversary: Adv,
        problem: P,
        window: usize,
        seed: u64,
    ) -> Self {
        let mut sim = {
            let _t = alloc::enter(Layer::Runtime);
            Simulator::new(n, factory, AllAtStart, SimConfig::sequential(seed))
        };
        let mut verifier = {
            let _t = alloc::enter(Layer::Verify);
            TDynamicVerifier::new(problem, window).check_from(0)
        };
        let initial = Instant::now();
        let graph = {
            let _t = alloc::enter(Layer::Adversary);
            adversary.initial_graph()
        };
        let initial_graph_s = initial.elapsed().as_secs_f64();
        let summary = {
            let _t = alloc::enter(Layer::Runtime);
            sim.step_streaming(&graph)
        };
        let mut digest = Fnv::default();
        0u64.hash(&mut digest);
        sim.outputs().hash(&mut digest);
        let valid = {
            let _t = alloc::enter(Layer::Verify);
            let cell = OnceCell::new();
            verifier.on_round(&RoundView {
                round: summary.round,
                graph: &summary.graph,
                delta: summary.delta.as_ref(),
                outputs: sim.outputs(),
                changed_outputs: Some(&summary.changed_outputs),
                newly_awake: &summary.newly_awake,
                num_awake: summary.num_awake,
                graph_cell: &cell,
            });
            verifier.summary().rounds_valid == 1
        };
        Execution {
            sim,
            adversary,
            graph,
            verifier,
            digest,
            last_invalid: (!valid).then_some(0),
            initial_graph_s,
        }
    }

    /// Drives one round (closed loop: it returns after the last observer).
    fn round(&mut self) -> RoundSample {
        let round = self.sim.round();
        let t0 = Instant::now();
        let delta = {
            let _t = alloc::enter(Layer::Adversary);
            self.adversary
                .next_delta(round, &self.graph, self.sim.outputs())
        };
        let t1 = Instant::now();
        {
            let _t = alloc::enter(Layer::Graph);
            delta.apply(&mut self.graph);
        }
        let t2 = Instant::now();
        let summary = {
            let _t = alloc::enter(Layer::Runtime);
            self.sim.step_delta(&self.graph, &delta)
        };
        let t3 = Instant::now();
        let valid = {
            let _t = alloc::enter(Layer::Verify);
            let before = self.verifier.summary().rounds_valid;
            let cell = OnceCell::new();
            self.verifier.on_round(&RoundView {
                round: summary.round,
                graph: &summary.graph,
                delta: summary.delta.as_ref(),
                outputs: self.sim.outputs(),
                changed_outputs: Some(&summary.changed_outputs),
                newly_awake: &summary.newly_awake,
                num_awake: summary.num_awake,
                graph_cell: &cell,
            });
            self.verifier.summary().rounds_valid > before
        };
        let t4 = Instant::now();

        if !valid {
            self.last_invalid = Some(round);
        }
        let outputs = self.sim.outputs();
        round.hash(&mut self.digest);
        for &v in &summary.changed_outputs {
            v.0.hash(&mut self.digest);
            outputs[v.index()].hash(&mut self.digest);
        }
        RoundSample {
            total_ms: ms(t0, t4),
            adversary_ms: ms(t0, t1),
            apply_ms: ms(t1, t2),
            step_ms: ms(t2, t3),
            verify_ms: ms(t3, t4),
            delta_edges: delta.num_edge_changes() as u64,
            output_churn: summary.changed_outputs.len() as u64,
            msgs_delivered: 2 * summary.graph.num_edges() as u64,
            awake: summary.num_awake as u64,
            valid,
        }
    }

    fn full_csr_builds(&self) -> u64 {
        self.sim.delta_stats().full_csr_builds as u64
    }

    fn summary(&self) -> &VerificationSummary {
        self.verifier.summary()
    }
}

/// Sums of the exact per-round counters over a range of rounds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Totals {
    delta_edges: u64,
    output_churn: u64,
    msgs_delivered: u64,
    awake: u64,
}

impl Totals {
    fn add(&mut self, s: &RoundSample) {
        self.delta_edges += s.delta_edges;
        self.output_churn += s.output_churn;
        self.msgs_delivered += s.msgs_delivered;
        self.awake += s.awake;
    }
}

/// Allocation counters of the layers the round loop tags.
#[derive(Clone, Copy, Debug, Default)]
struct AllocSnapshot {
    runtime: alloc::Counts,
    verify: alloc::Counts,
}

impl AllocSnapshot {
    fn now() -> AllocSnapshot {
        AllocSnapshot {
            runtime: alloc::counts(Layer::Runtime),
            verify: alloc::counts(Layer::Verify),
        }
    }
}

/// Live bytes per layer, taken at the end of warm-up.
fn push_mem_metrics(out: &mut Vec<Metric>) {
    for (name, layer) in [
        ("mem.adversary_bytes", Layer::Adversary),
        ("mem.runtime_bytes", Layer::Runtime),
        ("mem.verify_bytes", Layer::Verify),
    ] {
        out.push(metric(name, alloc::counts(layer).live as f64, "bytes"));
    }
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The per-layer timings every workload reports, as medians over the
/// steady-state rounds.
fn push_round_layer_metrics(out: &mut Vec<Metric>, samples: &[RoundSample]) {
    let col = |f: fn(&RoundSample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    out.push(metric(
        "adversary.next_delta_ms",
        col(|s| s.adversary_ms),
        "ms",
    ));
    out.push(metric("graph.apply_ms", col(|s| s.apply_ms), "ms"));
    out.push(metric("runtime.step_ms", col(|s| s.step_ms), "ms"));
    out.push(metric("verify.on_round_ms", col(|s| s.verify_ms), "ms"));
}

/// Median self time per round of the simulator's and verifier's spans.
fn push_span_metrics(out: &mut Vec<Metric>, events: &[dynnet::obs::TraceEvent]) {
    let spans = self_times_ms(events);
    for (name, span) in [
        ("runtime.csr_patch_ms", "csr_patch"),
        ("runtime.send_ms", "send"),
        ("runtime.receive_ms", "receive"),
        ("verify.observe_delta_ms", "observe_delta"),
    ] {
        let value = spans.get(span).map_or(0.0, |v| median(v));
        out.push(metric(name, value, "ms"));
    }
}

fn per_round(total: u64, rounds: u64) -> f64 {
    total as f64 / rounds.max(1) as f64
}

/// Set-up, warm-up and steady state of one `Concat` execution.
fn concat_workload<A, F, Adv, P>(
    config: &Config,
    factory: impl Fn() -> F,
    adversary: impl Fn(&mut f64) -> Adv,
    problem: P,
) -> Report
where
    A: NodeAlgorithm,
    A::Output: Hash,
    F: AlgorithmFactory<A>,
    Adv: OutputAdversary<A::Output>,
    P: DynamicProblem<Output = A::Output> + Clone,
{
    let p = &config.params;
    let traced = config.traced;

    // Set-up: footprint, construction and round 0, several times over.
    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut exec = None;
    for _ in 0..p.setups.max(1) {
        drop(exec.take());
        let start = Instant::now();
        let mut gen = 0.0;
        let adv = adversary(&mut gen);
        let e = Execution::start(
            p.n,
            factory(),
            adv,
            problem.clone(),
            p.window,
            mix(config.seed, 3),
        );
        setup_s.push(start.elapsed().as_secs_f64());
        generate_s.push(gen + e.initial_graph_s);
        exec = Some(e);
    }
    let Some(mut exec) = exec else {
        unreachable!("at least one set-up ran")
    };

    // Warm-up (see `Params::warmup`).
    for _ in 0..p.warmup {
        exec.round();
    }
    let mut per_layer = Vec::new();
    if traced {
        push_mem_metrics(&mut per_layer);
        dynnet::obs::take_events();
        dynnet::obs::set_enabled(true);
    }

    // Steady state, closed loop: a fixed number of rounds derived from the
    // configured time, so every run of a seed measures the same rounds.
    let rounds = p.measured_rounds(config.seconds);
    let concat0 = ConcatCounters::now();
    let alloc0 = AllocSnapshot::now();
    let mut totals = Totals::default();
    let mut samples = Vec::with_capacity(rounds);
    let measure = Instant::now();
    for _ in 0..rounds {
        let s = exec.round();
        totals.add(&s);
        samples.push(s);
    }
    let measure_s = measure.elapsed().as_secs_f64();
    let concat = ConcatCounters::now().since(concat0);
    let alloc1 = AllocSnapshot::now();
    let events = if traced {
        dynnet::obs::set_enabled(false);
        dynnet::obs::take_events()
    } else {
        Vec::new()
    };

    let failed = samples.iter().filter(|s| !s.valid).count() as u64;
    let mut report = Report {
        attempted: rounds as u64,
        failed,
        digest: exec.digest.finish(),
        samples: rounds,
        ..Report::default()
    };
    let csr_builds = exec.full_csr_builds();
    if csr_builds != 1 {
        report.problems.push(format!(
            "{csr_builds} full CSR builds, expected 1 (round 0)"
        ));
    }
    if failed > 0 {
        report.problems.push(format!(
            "{failed} of {rounds} steady-state rounds invalid ({} rounds checked, {} valid)",
            exec.summary().rounds_checked,
            exec.summary().rounds_valid
        ));
    }
    let first_valid_round = exec.last_invalid.map_or(0, |r| r + 1);
    if first_valid_round > (p.window + 1) as u64 {
        report.problems.push(format!(
            "first valid round {first_valid_round} is past the warm-up"
        ));
    }
    report.correct = report.problems.is_empty();

    let round_ms: Vec<f64> = samples.iter().map(|s| s.total_ms).collect();
    let round_p50 = median(&round_ms);
    report.end_to_end = vec![
        metric("setup_s", median(&setup_s), "s"),
        metric(
            "node_rounds_per_s",
            totals.awake as f64 / measure_s,
            "node-rounds/s",
        ),
        metric("round_ms_p50", round_p50, "ms"),
        metric("round_ms_p90", quantile(&round_ms, 0.9), "ms"),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
    ];
    report.info = vec![
        metric("first_valid_round", first_valid_round as f64, "rounds"),
        metric("failed_frac", per_round(failed, rounds as u64), "ratio"),
    ];

    report.exact.insert("first_valid_round", first_valid_round);
    report
        .exact
        .insert("adversary.delta_edges", totals.delta_edges);
    report
        .exact
        .insert("runtime.msgs_delivered", totals.msgs_delivered);
    report
        .exact
        .insert("runtime.output_churn", totals.output_churn);
    report.exact.insert("runtime.full_csr_builds", csr_builds);
    report.exact.insert("rounds", rounds as u64);
    if traced {
        let (a0, a1) = (alloc0, alloc1);
        report
            .exact
            .insert("concat.payload_elems", concat.payload_elems);
        report
            .exact
            .insert("concat.live_instances", concat.live_instances);
        report
            .exact
            .insert("runtime.allocs", a1.runtime.allocs - a0.runtime.allocs);
        report
            .exact
            .insert("runtime.alloc_bytes", a1.runtime.bytes - a0.runtime.bytes);
        report
            .exact
            .insert("verify.allocs", a1.verify.allocs - a0.verify.allocs);

        let r = rounds as u64;
        push_round_layer_metrics(&mut per_layer, &samples);
        push_span_metrics(&mut per_layer, &events);
        per_layer.extend([
            metric("graph.generate_s", median(&generate_s), "s"),
            metric(
                "adversary.delta_edges",
                per_round(totals.delta_edges, r),
                "count",
            ),
            metric(
                "runtime.msgs_delivered",
                per_round(totals.msgs_delivered, r),
                "count",
            ),
            metric(
                "runtime.output_churn",
                per_round(totals.output_churn, r),
                "count",
            ),
            metric(
                "runtime.allocs",
                per_round(a1.runtime.allocs - a0.runtime.allocs, r),
                "count",
            ),
            metric(
                "runtime.alloc_bytes",
                per_round(a1.runtime.bytes - a0.runtime.bytes, r),
                "bytes",
            ),
            metric("runtime.full_csr_builds", csr_builds as f64, "count"),
            metric("concat.send_ms", per_round(concat.send_ns, r) / 1e6, "ms"),
            metric(
                "concat.receive_ms",
                per_round(concat.receive_ns, r) / 1e6,
                "ms",
            ),
            metric(
                "concat.live_instances",
                per_round(concat.live_instances, r),
                "count",
            ),
            metric(
                "concat.payload_elems",
                per_round(concat.payload_elems, r),
                "count",
            ),
            metric(
                "verify.allocs",
                per_round(a1.verify.allocs - a0.verify.allocs, r),
                "count",
            ),
            metric(
                "verify.first_valid_round",
                first_valid_round as f64,
                "rounds",
            ),
        ]);
        push_overhead_metric(&mut per_layer, config, round_p50);
        push_absent_sweep_metrics(&mut per_layer);
        per_layer.sort_by(|a, b| a.name.cmp(b.name));
        report.per_layer = per_layer;
    }
    report
}

fn push_overhead_metric(out: &mut Vec<Metric>, config: &Config, traced_round_ms: f64) {
    let value = config
        .untraced_round_ms
        .filter(|&u| u > 0.0)
        .map_or(0.0, |u| traced_round_ms / u - 1.0);
    out.push(metric("obs.trace_overhead_frac", value, "ratio"));
}

/// The `Concat` workloads run no sweep: its layer does no work there.
fn push_absent_sweep_metrics(out: &mut Vec<Metric>) {
    out.extend([
        metric("sweep.cell_s", 0.0, "s"),
        metric("sweep.busy_frac", 0.0, "ratio"),
        metric("sweep.reload_ms", 0.0, "ms"),
        metric("sweep.ckpt_bytes", 0.0, "bytes"),
        metric("sweep.cells_per_s", 0.0, "cells/s"),
    ]);
}

/// What one sweep cell computes: the output digest, the verifier's
/// summary, and the exact totals. Checkpointed and compared bit for bit
/// after reload.
type CellResult = (u64, VerificationSummary, (u64, u64, u64, u64, u64));

/// Timings of one cell, collected beside the checkpointed result.
struct CellTiming {
    index: usize,
    cell_s: f64,
    samples: Vec<RoundSample>,
}

type DmisExecution = Execution<DMis, fn(NodeId) -> DMis, FlipChurnAdversary, MisProblem>;

fn dmis_node(v: NodeId) -> DMis {
    DMis::new(v, MisOutput::Undecided)
}

/// Footprint, adversary, simulator and round 0 of one sweep cell, and the
/// seconds spent on the footprint and the adversary's first graph.
fn start_dmis_cell(p: &Params, cell_seed: u64) -> (DmisExecution, f64) {
    let mut generate_s = 0.0;
    let footprint = timed_generate(&mut generate_s, || {
        generators::erdos_renyi_avg_degree(
            p.n,
            AVG_DEGREE,
            &mut experiment_rng(cell_seed, "dynbench-footprint"),
        )
    });
    let adversary = {
        let _t = alloc::enter(Layer::Adversary);
        FlipChurnAdversary::new(&footprint, SWEEP_FLIP_P, mix(cell_seed, 1))
    };
    drop(footprint);
    let exec = Execution::start(
        p.n,
        dmis_node as fn(NodeId) -> DMis,
        adversary,
        MisProblem,
        p.window,
        mix(cell_seed, 3),
    );
    let generate_s = generate_s + exec.initial_graph_s;
    (exec, generate_s)
}

/// Rounds of one sweep cell after round 0: warm-up plus steady state.
fn cell_rounds(p: &Params) -> usize {
    p.window + p.cell_rounds
}

fn run_dmis_cell(p: &Params, cell_seed: u64) -> (CellResult, Vec<RoundSample>) {
    let (mut exec, _) = start_dmis_cell(p, cell_seed);
    let mut totals = Totals::default();
    let mut samples = Vec::with_capacity(p.cell_rounds);
    for r in 0..cell_rounds(p) {
        let s = exec.round();
        totals.add(&s);
        if r >= p.window {
            samples.push(s);
        }
    }
    let result = (
        exec.digest.finish(),
        exec.summary().clone(),
        (
            totals.delta_edges,
            totals.output_churn,
            totals.msgs_delivered,
            exec.full_csr_builds(),
            totals.awake,
        ),
    );
    (result, samples)
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}

/// One grid: run it checkpointed, reload it, compare.
struct GridOutcome {
    wall_s: f64,
    reload_ms: f64,
    ckpt_bytes: u64,
    results: Vec<CellResult>,
    timings: Vec<CellTiming>,
    failed: u64,
    problems: Vec<String>,
}

fn run_grid(
    config: &Config,
    engine: &SweepEngine,
    spec: &SweepSpec<u64>,
    dir: &Path,
) -> GridOutcome {
    let p = &config.params;
    let mut out = GridOutcome {
        wall_s: 0.0,
        reload_ms: 0.0,
        ckpt_bytes: 0,
        results: Vec::new(),
        timings: Vec::new(),
        failed: 0,
        problems: Vec::new(),
    };
    let store = match CheckpointStore::create(dir) {
        Ok(s) => s,
        Err(e) => {
            out.failed = spec.len() as u64;
            out.problems.push(format!("checkpoint store: {e}"));
            return out;
        }
    };
    let timings = Mutex::new(Vec::new());
    let start = Instant::now();
    let run = engine.run_checkpointed(spec, &store, |cell| {
        let cell_start = Instant::now();
        let (result, samples) = run_dmis_cell(p, cell.params);
        let timing = CellTiming {
            index: cell.index,
            cell_s: cell_start.elapsed().as_secs_f64(),
            samples,
        };
        timings
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(timing);
        result
    });
    out.wall_s = start.elapsed().as_secs_f64();
    out.timings = timings
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    out.timings.sort_by_key(|t| t.index);
    let computed = match run {
        Ok(run) => run.into_results(),
        Err(e) => {
            out.failed = spec.len() as u64;
            out.problems.push(format!("sweep: {e}"));
            return out;
        }
    };
    drop(store);
    out.ckpt_bytes = dir_bytes(dir);

    // Reload: every cell must come back from the checkpoint, bit for bit.
    let recomputed = AtomicU64::new(0);
    let start = Instant::now();
    let reloaded = CheckpointStore::resume(dir)
        .map_err(|e| e.to_string())
        .and_then(|store| {
            engine
                .run_checkpointed(spec, &store, |_| {
                    // ORDERING: a counter read after the engine joined.
                    recomputed.fetch_add(1, Ordering::Relaxed);
                    CellResult::default()
                })
                .map_err(|e| e.to_string())
        });
    out.reload_ms = start.elapsed().as_secs_f64() * 1e3;
    match reloaded {
        Ok(run) => {
            let reloaded = run.into_results();
            let mismatched = computed
                .iter()
                .zip(&reloaded)
                .filter(|(a, b)| a != b)
                .count()
                + computed.len().abs_diff(reloaded.len());
            if mismatched > 0 {
                out.failed += mismatched as u64;
                out.problems.push(format!(
                    "{mismatched} cells differ after reload ({} recomputed)",
                    recomputed.load(Ordering::Relaxed)
                ));
            }
        }
        Err(e) => {
            out.failed = spec.len() as u64;
            out.problems.push(format!("reload: {e}"));
        }
    }
    for (i, r) in computed.iter().enumerate() {
        let builds = r.2 .3;
        if builds != 1 {
            out.problems.push(format!(
                "cell {i}: {builds} full CSR builds, expected 1 (round 0)"
            ));
        }
    }
    out.results = computed;
    out
}

/// Set-up, then checkpointed grids of bare `DMis` cells for the configured
/// time, each reloaded from its checkpoint and compared.
fn sweep_workload(config: &Config) -> Report {
    let p = &config.params;
    let traced = config.traced;

    // Set-up of one cell, several times over, on this thread.
    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut exec = None;
    for _ in 0..p.setups.max(1) {
        drop(exec.take());
        let start = Instant::now();
        let (e, gen) = start_dmis_cell(p, mix(config.seed, 0));
        setup_s.push(start.elapsed().as_secs_f64());
        generate_s.push(gen);
        exec = Some(e);
    }
    let mut per_layer = Vec::new();
    if let (true, Some(exec)) = (traced, exec.as_mut()) {
        for _ in 0..p.window {
            exec.round();
        }
        push_mem_metrics(&mut per_layer);
    }
    drop(exec);

    let engine = SweepEngine::default();
    let seeds: Vec<u64> = (0..p.cells as u64)
        .map(|i| mix(config.seed, 100 + i))
        .collect();
    let spec = SweepSpec::grid1("dynbench-dmis-sweep", &seeds, |&s| {
        (format!("seed={s:016x}"), s)
    });
    // One directory per run, even for concurrent runs in one process.
    static RUNS: AtomicU64 = AtomicU64::new(0);
    // ORDERING: a unique-id counter; no other data rides on it.
    let run_id = RUNS.fetch_add(1, Ordering::Relaxed);
    let scratch = config
        .scratch
        .join(format!("dmis-sweep-{}-{run_id}", std::process::id()));

    if traced {
        dynnet::obs::take_events();
        dynnet::obs::set_enabled(true);
    }
    let alloc0 = AllocSnapshot::now();
    let mut grids: Vec<GridOutcome> = Vec::new();
    for _ in 0..p.grids(config.seconds) {
        let dir = scratch.join(format!("grid-{}", grids.len()));
        let grid = run_grid(config, &engine, &spec, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        let stop = grid.failed > 0;
        grids.push(grid);
        if stop {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
    let alloc1 = AllocSnapshot::now();
    let events = if traced {
        dynnet::obs::set_enabled(false);
        dynnet::obs::take_events()
    } else {
        Vec::new()
    };

    let mut report = Report {
        attempted: (grids.len() * spec.len()) as u64,
        failed: grids.iter().map(|g| g.failed).sum(),
        ..Report::default()
    };
    for g in &grids {
        report.problems.extend(g.problems.iter().cloned());
    }
    // Every grid recomputes the same cells, so their results must agree.
    let first = &grids[0];
    if grids.iter().any(|g| g.results != first.results) {
        report
            .problems
            .push("grids of the same seed computed different results".to_string());
    }
    report.correct = report.problems.is_empty() && report.failed == 0;

    let mut digest = Fnv::default();
    let mut exact = (0u64, 0u64, 0u64, 0u64);
    let mut first_valid = Vec::new();
    let mut never_valid = 0u64;
    for (d, summary, (edges, churn, msgs, _, _)) in &first.results {
        d.hash(&mut digest);
        exact.0 += edges;
        exact.1 += churn;
        exact.2 += msgs;
        exact.3 += summary.rounds_valid as u64;
        match summary.first_valid_round {
            Some(r) => first_valid.push(r as f64),
            None => never_valid += 1,
        }
    }
    report.digest = digest.finish();

    let samples: Vec<RoundSample> = grids
        .iter()
        .flat_map(|g| g.timings.iter().flat_map(|t| t.samples.iter().copied()))
        .collect();
    let round_ms: Vec<f64> = samples.iter().map(|s| s.total_ms).collect();
    report.samples = round_ms.len();
    let grid_awake: u64 = first.results.iter().map(|r| r.2 .4).sum();
    let throughput: Vec<f64> = grids.iter().map(|g| grid_awake as f64 / g.wall_s).collect();
    let cells_per_s: Vec<f64> = grids
        .iter()
        .map(|g| g.results.len() as f64 / g.wall_s)
        .collect();
    let round_p50 = median(&round_ms);
    report.end_to_end = vec![
        metric("setup_s", median(&setup_s), "s"),
        metric("node_rounds_per_s", median(&throughput), "node-rounds/s"),
        metric("round_ms_p50", round_p50, "ms"),
        metric("round_ms_p90", quantile(&round_ms, 0.9), "ms"),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
    ];

    // Rounds after round 0, over the grid's cells.
    let cell_rounds = (spec.len() * cell_rounds(p)) as u64;
    report.exact.insert("adversary.delta_edges", exact.0);
    report.exact.insert("runtime.output_churn", exact.1);
    report.exact.insert("runtime.msgs_delivered", exact.2);
    report.exact.insert("verify.rounds_valid", exact.3);
    report.exact.insert("rounds", cell_rounds);
    report.exact.insert("cells_never_valid", never_valid);
    let first_valid_round = first_valid.iter().sum::<f64>() / first_valid.len().max(1) as f64;
    report.info = vec![
        metric("first_valid_round", first_valid_round, "rounds"),
        metric(
            "failed_frac",
            per_round(report.failed, report.attempted),
            "ratio",
        ),
        metric("cells_per_s", median(&cells_per_s), "cells/s"),
    ];

    if traced {
        let grid_rounds = cell_rounds * grids.len() as u64;
        push_round_layer_metrics(&mut per_layer, &samples);
        push_span_metrics(&mut per_layer, &events);
        let cell_s: Vec<f64> = grids
            .iter()
            .flat_map(|g| g.timings.iter().map(|t| t.cell_s))
            .collect();
        let busy: Vec<f64> = grids
            .iter()
            .map(|g| {
                g.timings.iter().map(|t| t.cell_s).sum::<f64>()
                    / (engine.threads() as f64 * g.wall_s)
            })
            .collect();
        let col = |f: fn(&GridOutcome) -> f64| median(&grids.iter().map(f).collect::<Vec<_>>());
        let builds: u64 = first.results.iter().map(|r| r.2 .3).sum();
        per_layer.extend([
            metric("graph.generate_s", median(&generate_s), "s"),
            metric(
                "adversary.delta_edges",
                per_round(exact.0, cell_rounds),
                "count",
            ),
            metric(
                "runtime.msgs_delivered",
                per_round(exact.2, cell_rounds),
                "count",
            ),
            metric(
                "runtime.output_churn",
                per_round(exact.1, cell_rounds),
                "count",
            ),
            metric(
                "runtime.allocs",
                per_round(alloc1.runtime.allocs - alloc0.runtime.allocs, grid_rounds),
                "count",
            ),
            metric(
                "runtime.alloc_bytes",
                per_round(alloc1.runtime.bytes - alloc0.runtime.bytes, grid_rounds),
                "bytes",
            ),
            metric(
                "runtime.full_csr_builds",
                per_round(builds, spec.len() as u64),
                "count",
            ),
            // Bare DMis: the Concat layer does no work here.
            metric("concat.send_ms", 0.0, "ms"),
            metric("concat.receive_ms", 0.0, "ms"),
            metric("concat.live_instances", 0.0, "count"),
            metric("concat.payload_elems", 0.0, "count"),
            metric(
                "verify.allocs",
                per_round(alloc1.verify.allocs - alloc0.verify.allocs, grid_rounds),
                "count",
            ),
            metric("sweep.cell_s", median(&cell_s), "s"),
            metric("sweep.busy_frac", median(&busy), "ratio"),
            metric("sweep.reload_ms", col(|g| g.reload_ms), "ms"),
            metric("sweep.ckpt_bytes", col(|g| g.ckpt_bytes as f64), "bytes"),
            metric("sweep.cells_per_s", median(&cells_per_s), "cells/s"),
            metric("verify.first_valid_round", first_valid_round, "rounds"),
        ]);
        push_overhead_metric(&mut per_layer, config, round_p50);
        per_layer.sort_by(|a, b| a.name.cmp(b.name));
        report.per_layer = per_layer;
    }
    report
}
