//! # dynnet-runtime
//!
//! Synchronous round-based distributed simulation engine for the `dynnet`
//! reproduction of *"Local Distributed Algorithms in Highly Dynamic
//! Networks"*.
//!
//! The engine implements the paper's execution model (Section 2): in every
//! round the adversary supplies a communication graph, every awake node
//! broadcasts one message to its current neighbors, receives its neighbors'
//! messages, performs local computation, and produces an output. Nodes may
//! wake up asynchronously and never need a common round counter.
//!
//! * [`NodeAlgorithm`] — the per-node algorithm abstraction (send → receive →
//!   output per round).
//! * [`Simulator`] — drives one algorithm over a dynamic graph; sequential or
//!   rayon-parallel per-node phases with bit-identical results. The
//!   delta-native round primitive (`Simulator::step_delta`) patches a
//!   persistent effective CSR in `O(|δ|)` per round; round 0 (and any
//!   whole-graph round) goes through `Simulator::step_streaming`, which
//!   rebuilds it. Neither clones the outputs — read them in place with
//!   `Simulator::outputs`. Counters
//!   (`Simulator::delta_stats`) pin the zero-clone/zero-rebuild invariant.
//!   Each round's [`StepSummary`] also carries the exact *output churn*
//!   (`changed_outputs`), tracked at publication time, which downstream
//!   incremental consumers (the `O(|δ| + churn)` T-dynamic verifier in
//!   `dynnet-core`) rely on to skip full output scans.
//! * [`observer`] — streaming [`RoundObserver`]s fed a borrowed [`RoundView`]
//!   per round (trace recording, churn stats, convergence tracking), so no
//!   consumer pays for more of the execution than it keeps.
//! * [`rng`] — deterministic per-(seed, node, round) randomness.
//! * [`wakeup`] — asynchronous wake-up schedules.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithm;
pub mod node_state;
pub mod observer;
pub mod rng;
pub mod simulator;
pub mod wakeup;

pub use algorithm::{AlgorithmFactory, Incoming, NodeAlgorithm, NodeContext};
pub use observer::{
    ChurnStats, ConvergenceTracker, DeltaLogRecorder, MetricsObserver, RoundObserver, RoundView,
    TraceRecorder,
};
pub use simulator::{DeltaStats, SimConfig, Simulator, StepSummary};
pub use wakeup::{AllAtStart, RandomWakeup, ScriptedWakeup, Staggered, WakeupSchedule};
