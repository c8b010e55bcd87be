//! # dynnet-sweep
//!
//! Sharded multi-scenario sweep engine for the `dynnet` reproduction of
//! *"Local Distributed Algorithms in Highly Dynamic Networks"*.
//!
//! The paper's claims are validated by *sweeps* — seed ensembles, adversary
//! grids, window-size scans — and since the per-round hot path is `O(|δ|)`,
//! the remaining scaling axis is running many `Scenario`s at once. This
//! crate provides:
//!
//! * [`SweepSpec`] — a declarative cartesian grid of scenario parameters
//!   (seeds × adversaries × `n` × churn rates × window sizes × algorithms),
//!   materialized as deterministically ordered cells.
//! * [`SweepEngine`] — a work-stealing thread pool that shards the cells
//!   across workers, with per-shard progress/throughput reporting and
//!   cancel-on-error (a panicking cell aborts the sweep and names the
//!   failing grid coordinates). It has two entry points:
//!   [`SweepEngine::run`] keeps the results in memory, and
//!   [`SweepEngine::run_checkpointed`] also persists every finished cell to
//!   a [`CheckpointStore`], so a killed sweep resumes where it stopped
//!   (open the store with [`CheckpointStore::resume`]).
//!
//! Both return a [`SweepRun`] whose results are indexed by grid position.
//! Callers build their tables by walking [`SweepSpec::cells`] zipped with
//! [`SweepRun::results`], so sweep output is byte-identical from 1 thread
//! to N.
//!
//! Determinism: every cell derives its graphs and randomness from its own
//! parameters through the per-(seed, node, round) RNG, so scenarios are
//! reproducible in isolation — sharding them across threads changes only
//! wall-clock time, never results. The E1–E14 experiment harness in
//! `crates/bench` declares all of its multi-scenario experiments as specs on
//! this engine.
//!
//! ```
//! use dynnet_sweep::{SweepEngine, SweepSpec};
//!
//! // A 2-axis grid: churn rate (outer) × seed (inner).
//! let spec = SweepSpec::grid2(
//!     "demo",
//!     &[0.0f64, 0.05],
//!     &[0u64, 1, 2],
//!     |&p, &seed| (format!("p={p} seed={seed}"), (p, seed)),
//! );
//! let run = SweepEngine::new(8)
//!     .run(&spec, |cell| {
//!         let (p, seed) = cell.params; // run a Scenario from (p, seed)…
//!         (p * 100.0) as u64 + seed
//!     })
//!     .unwrap();
//! // Grid order, not completion order.
//! let rows: Vec<String> = spec
//!     .cells()
//!     .iter()
//!     .zip(run.results())
//!     .map(|(cell, r)| format!("{},{r}", cell.label))
//!     .collect();
//! assert_eq!(rows[0], "p=0 seed=0,0");
//! assert_eq!(rows[5], "p=0.05 seed=2,7");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod engine;
pub mod spec;

pub use checkpoint::{CellValue, CheckpointStore, KillSwitch, StoreError};
pub use engine::{ShardStats, SweepEngine, SweepError, SweepReport, SweepRun};
pub use spec::{Cell, SweepSpec};
