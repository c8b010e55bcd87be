//! The sharded work-stealing executor behind every sweep.
//!
//! A [`SweepEngine`] executes the cells of a [`SweepSpec`] on a fixed pool
//! of worker threads. The cells are split into one contiguous shard per
//! worker; a worker drains its own shard front-to-back and, when it runs
//! dry, steals the back half of the fullest remaining shard — so a shard of
//! slow cells (large `n`, long horizons) cannot serialize the sweep behind
//! one thread. Because every cell is a self-contained deterministic
//! computation (it builds its own adversary, RNG streams, and observers from
//! its parameters) and results are stored under the cell's grid index, the
//! sweep's output is byte-identical no matter how many threads execute it or
//! how the steals interleave.
//!
//! A panic in any cell cancels the sweep: the remaining queues are drained,
//! in-flight cells finish, and the engine reports *which grid cell* failed
//! ([`SweepError`] carries the cell index and label) instead of tearing down
//! the process.

use crate::spec::{Cell, SweepSpec};
use dynnet_obs::ProgressSink;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A sweep failed because a cell panicked (or a worker died).
#[derive(Clone, Debug)]
pub struct SweepError {
    /// Name of the sweep spec that failed.
    pub sweep: String,
    /// Grid index of the failing cell.
    pub cell_index: usize,
    /// Label of the failing cell.
    pub cell_label: String,
    /// The panic message (best-effort extraction from the panic payload).
    pub message: String,
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sweep '{}' failed at cell {} [{}]: {}",
            self.sweep, self.cell_index, self.cell_label, self.message
        )
    }
}

impl std::error::Error for SweepError {}

/// Per-shard execution counters, reported after every sweep.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardStats {
    /// Cells this worker executed (its own plus stolen ones).
    pub executed: usize,
    /// Cells this worker stole from other shards.
    pub stolen: usize,
}

/// Timing and load-balance report of one executed sweep.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// Total number of cells executed.
    pub cells: usize,
    /// Number of worker threads used.
    pub threads: usize,
    /// Wall-clock duration of the sweep.
    pub elapsed: Duration,
    /// Per-worker counters, indexed by shard id.
    pub shards: Vec<ShardStats>,
}

impl SweepReport {
    /// Scenario throughput in cells per second.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.cells as f64 / secs
        } else {
            f64::INFINITY
        }
    }
}

/// The result of a successful sweep: per-cell results in grid order plus the
/// execution report.
#[derive(Debug)]
pub struct SweepRun<R> {
    pub(crate) results: Vec<R>,
    report: SweepReport,
}

impl<R> SweepRun<R> {
    pub(crate) fn from_parts(results: Vec<R>, report: SweepReport) -> Self {
        SweepRun { results, report }
    }

    /// The per-cell results, indexed by grid (cell) index — independent of
    /// the order in which the cells actually completed.
    pub fn results(&self) -> &[R] {
        &self.results
    }

    /// Consumes the run into the grid-ordered result vector.
    pub fn into_results(self) -> Vec<R> {
        self.results
    }

    /// Timing and per-shard load-balance counters.
    pub fn report(&self) -> &SweepReport {
        &self.report
    }
}

/// Locks a sweep-internal mutex, recovering from poisoning.
///
/// A poisoned lock here means a sibling worker panicked while holding it.
/// Both guarded structures — the shard queues of cell indices and the
/// first-failure slot — are plain data whose invariants hold at every
/// release point, and cell panics are already routed through the cancel
/// path, so the correct behavior is to keep going and report the *original*
/// failure as a typed [`SweepError`] instead of aborting on the poison.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Assembles grid-ordered results from a slot vector. Every cell must have
/// produced a result; a hole means a worker exited without executing its
/// cell — reported as a typed sweep failure naming the cell, never as a
/// process-aborting panic.
pub(crate) fn collect_slots<P, R>(
    spec: &SweepSpec<P>,
    slots: Vec<Option<R>>,
) -> Result<Vec<R>, SweepError> {
    let mut results: Vec<R> = Vec::with_capacity(slots.len());
    for (i, slot) in slots.into_iter().enumerate() {
        match slot {
            Some(r) => results.push(r),
            None => {
                return Err(SweepError {
                    sweep: spec.name().to_string(),
                    cell_index: i,
                    cell_label: spec.cells()[i].label.clone(),
                    message: "cell produced no result (worker exited without executing it)"
                        .to_string(),
                })
            }
        }
    }
    Ok(results)
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Executes [`SweepSpec`]s on a sharded work-stealing thread pool.
///
/// The engine is a cheap value (two integers); construct one per harness
/// invocation and share it by reference. `threads == 1` degenerates to an
/// in-place sequential loop (no threads are spawned), which is the reference
/// execution every multi-threaded run must reproduce byte-for-byte.
///
/// The engine is *budget-aware*: a sharded run claims its worker count from
/// the process-wide thread budget ([`rayon::claim_threads`]), so cells that
/// enable per-round parallelism (`SimConfig::parallel`) automatically shrink
/// their fan-out to the budget's remaining share instead of multiplying
/// threads per cell.
#[derive(Clone)]
pub struct SweepEngine {
    threads: usize,
    progress: bool,
    /// Structured progress consumers ([`dynnet_obs::ProgressSink`]), fed at
    /// the same cadence as the stderr line (and per report-step on the
    /// serial path, which stays silent on stderr).
    sinks: Vec<Arc<dyn ProgressSink>>,
}

impl std::fmt::Debug for SweepEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepEngine")
            .field("threads", &self.threads)
            .field("progress", &self.progress)
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl Default for SweepEngine {
    /// One worker per thread of the shared budget ([`rayon::max_threads`]:
    /// `DYNNET_RAYON_THREADS` if set, otherwise the core count), progress
    /// reporting off.
    fn default() -> Self {
        SweepEngine::new(rayon::max_threads())
    }
}

impl SweepEngine {
    /// Creates an engine with the given number of worker threads (min 1).
    pub fn new(threads: usize) -> Self {
        SweepEngine {
            threads: threads.max(1),
            progress: false,
            sinks: Vec::new(),
        }
    }

    /// Enables or disables progress/throughput reporting on stderr.
    pub fn with_progress(mut self, on: bool) -> Self {
        self.progress = on;
        self
    }

    /// Registers a structured progress sink. Sinks receive roughly ten
    /// `progress` events per sweep plus one `finished` event carrying the
    /// throughput/load-balance summary — on every execution path, including
    /// the serial one (which never writes to stderr).
    pub fn add_sink(mut self, sink: Arc<dyn ProgressSink>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// A single-threaded twin of this engine (same progress setting and
    /// sinks). Used by timing-sensitive sweeps (e.g. throughput experiments)
    /// that must not share the machine with sibling cells.
    pub fn serial(&self) -> SweepEngine {
        SweepEngine {
            threads: 1,
            progress: self.progress,
            sinks: self.sinks.clone(),
        }
    }

    /// Mirrors one progress event into the `sweep.*` registry gauges and
    /// every registered sink. Called ~10 times per sweep, never per cell.
    fn emit_progress(&self, name: &str, done: usize, total: usize, threads: usize) {
        let reg = dynnet_obs::registry();
        reg.counter("sweep.cells_done").set(done as u64);
        reg.counter("sweep.cells_total").set(total as u64);
        reg.counter("sweep.threads").set(threads as u64);
        for sink in &self.sinks {
            sink.progress(name, done as u64, total as u64);
        }
    }

    /// Executes every cell of `spec` and returns the results in grid order.
    ///
    /// `run_cell` is invoked once per cell, possibly concurrently from many
    /// worker threads; it must derive everything it needs (graphs, RNGs,
    /// observers) from the cell's parameters. If any cell panics the sweep
    /// is cancelled and the failing cell is reported in the [`SweepError`].
    pub fn run<P, R, F>(&self, spec: &SweepSpec<P>, run_cell: F) -> Result<SweepRun<R>, SweepError>
    where
        P: Sync,
        R: Send,
        F: Fn(&Cell<P>) -> R + Sync,
    {
        let pending: Vec<usize> = (0..spec.len()).collect();
        let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..spec.len()).map(|_| None).collect());
        let report = self.drive(spec, &pending, 0, &run_cell, &|cell: &Cell<P>, r: R| {
            lock_recover(&slots)[cell.index] = Some(r);
            Ok(())
        })?;
        let results = collect_slots(
            spec,
            slots
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )?;
        Ok(SweepRun { results, report })
    }

    /// The shared execution core behind [`SweepEngine::run`] and
    /// [`SweepEngine::run_checkpointed`]: executes the `pending` cell indices
    /// of `spec` (work-stealing when this engine has more than one thread)
    /// and hands each finished cell's result to `consume` *on the worker
    /// that ran it*, in completion order.
    ///
    /// `done_offset` counts cells already completed before this run (resumed
    /// sweeps), so progress reporting reflects the whole grid. A panic in
    /// `run_cell` or `consume`, or an `Err` from `consume`, cancels the
    /// sweep and is reported as a typed [`SweepError`] naming the cell.
    pub(crate) fn drive<P, R, F, C>(
        &self,
        spec: &SweepSpec<P>,
        pending: &[usize],
        done_offset: usize,
        run_cell: &F,
        consume: &C,
    ) -> Result<SweepReport, SweepError>
    where
        P: Sync,
        R: Send,
        F: Fn(&Cell<P>) -> R + Sync,
        C: Fn(&Cell<P>, R) -> Result<(), String> + Sync,
    {
        let total = spec.len();
        let work = pending.len();
        // TIMING: wall-clock feeds only the run report (throughput line on
        // stderr), never the sweep results — output stays deterministic.
        let start = Instant::now();
        if work == 0 {
            return Ok(SweepReport {
                cells: 0,
                threads: 1,
                elapsed: start.elapsed(),
                shards: vec![ShardStats::default()],
            });
        }
        let threads = self.threads.min(work);
        if threads == 1 {
            return self.drive_serial(spec, pending, done_offset, run_cell, consume, start);
        }

        // Claim the engine's worker count from the shared thread budget for
        // the duration of the sharded run: while the claim is alive, every
        // per-round parallel call inside a cell (`SimConfig::parallel`) fans
        // out to at most `budget / threads` threads, so
        // `threads(engine) × threads(round) ≤ budget` and a sweep of
        // parallel-enabled cells cannot oversubscribe the machine. When the
        // engine uses the whole budget, inner parallelism degrades to
        // inline sequential execution (results are identical either way).
        let _budget_claim = rayon::claim_threads(threads);

        // One contiguous shard of pending cell indices per worker.
        let chunk = work.div_ceil(threads);
        let shards: Vec<Mutex<VecDeque<usize>>> = (0..threads)
            .map(|w| {
                Mutex::new(
                    pending[(w * chunk).min(work)..((w + 1) * chunk).min(work)]
                        .iter()
                        .copied()
                        .collect(),
                )
            })
            .collect();
        let cancel = AtomicBool::new(false);
        let failure: Mutex<Option<SweepError>> = Mutex::new(None);
        let completed = AtomicUsize::new(0);
        // Report roughly ten times per sweep (always on the final cell).
        let report_step = (total / 10).max(1);

        let mut worker_stats: Vec<ShardStats> = Vec::with_capacity(threads);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(threads);
            for w in 0..threads {
                let shards = &shards;
                let cancel = &cancel;
                let failure = &failure;
                let completed = &completed;
                handles.push(scope.spawn(move || {
                    let mut stats = ShardStats::default();
                    // ORDERING: cancellation is best-effort — a worker may
                    // finish one extra cell after the flag flips; the
                    // failure slot it reports through is a Mutex.
                    'work: while !cancel.load(Ordering::Relaxed) {
                        // Own shard first.
                        let mut next = lock_recover(&shards[w]).pop_front();
                        let mut stolen = false;
                        if next.is_none() {
                            // Steal the back half of the fullest shard. The
                            // length scan releases each lock before the
                            // steal, so the observed victim may be drained
                            // by the time we re-lock it — in that case retry
                            // the whole scan (another shard may still hold
                            // work) instead of exiting; only an all-empty
                            // scan ends the worker.
                            let (victim, observed_len) = (0..threads)
                                .filter(|&v| v != w)
                                .map(|v| (v, lock_recover(&shards[v]).len()))
                                .max_by_key(|&(_, len)| len)
                                .unwrap_or((w, 0));
                            if observed_len == 0 {
                                break 'work; // every shard is empty: sweep done
                            }
                            let mut q = lock_recover(&shards[victim]);
                            let keep = q.len() / 2;
                            let mut loot = q.split_off(keep);
                            drop(q);
                            next = loot.pop_front();
                            if next.is_none() {
                                continue 'work; // lost the race; rescan
                            }
                            stolen = true;
                            // All looted cells count as stolen, including
                            // the ones parked in our own shard for later.
                            stats.stolen += loot.len();
                            if !loot.is_empty() {
                                lock_recover(&shards[w]).extend(loot);
                            }
                        }
                        let Some(i) = next else {
                            break 'work; // own shard empty and nothing to steal
                        };
                        if stolen {
                            stats.stolen += 1;
                        }
                        let cell = &spec.cells()[i];
                        // `consume` (checkpoint persist, slot store, group
                        // fold) runs inside the same panic isolation as the
                        // cell itself, so a kill-switch panic or a store
                        // failure cancels the sweep exactly like a cell
                        // panic — attributed to this cell.
                        let outcome = {
                            let _span = dynnet_obs::labeled_span("sweep", "cell", &cell.label);
                            catch_unwind(AssertUnwindSafe(|| {
                                let r = run_cell(cell);
                                consume(cell, r)
                            }))
                        };
                        match outcome {
                            Ok(Ok(())) => {
                                stats.executed += 1;
                                // ORDERING: log-cadence counter only; results
                                // go via the slot Mutex and the join barrier.
                                let done =
                                    done_offset + completed.fetch_add(1, Ordering::Relaxed) + 1;
                                if done.is_multiple_of(report_step) || done == total {
                                    self.emit_progress(spec.name(), done, total, threads);
                                    if self.progress {
                                        let secs = start.elapsed().as_secs_f64();
                                        eprintln!(
                                            "  [sweep {}] {done}/{total} cells ({:.0}%) on {threads} threads, {:.1} cells/s",
                                            spec.name(),
                                            100.0 * done as f64 / total as f64,
                                            (done - done_offset) as f64 / secs.max(1e-9),
                                        );
                                    }
                                }
                            }
                            failed => {
                                let message = match failed {
                                    Ok(Err(message)) => message,
                                    Err(payload) => panic_message(payload.as_ref()),
                                    Ok(Ok(())) => String::new(), // unreachable: handled above
                                };
                                let mut slot = lock_recover(failure);
                                if slot.is_none() {
                                    *slot = Some(SweepError {
                                        sweep: spec.name().to_string(),
                                        cell_index: cell.index,
                                        cell_label: cell.label.clone(),
                                        message,
                                    });
                                }
                                // ORDERING: the failure payload is published
                                // via the `failure` Mutex above; this flag
                                // only hastens sibling shutdown.
                                cancel.store(true, Ordering::Relaxed);
                                break 'work;
                            }
                        }
                    }
                    stats
                }));
            }
            for h in handles {
                match h.join() {
                    Ok(stats) => worker_stats.push(stats),
                    Err(payload) => {
                        // A worker died outside catch_unwind (should not
                        // happen); surface it as a sweep-level failure.
                        let mut slot = lock_recover(&failure);
                        if slot.is_none() {
                            *slot = Some(SweepError {
                                sweep: spec.name().to_string(),
                                cell_index: usize::MAX,
                                cell_label: "<worker>".to_string(),
                                message: panic_message(payload.as_ref()),
                            });
                        }
                    }
                }
            }
        });

        if let Some(err) = failure
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
        {
            return Err(err);
        }
        let report = SweepReport {
            cells: work,
            threads,
            elapsed: start.elapsed(),
            shards: worker_stats,
        };
        self.log_report(spec.name(), &report);
        Ok(report)
    }

    /// The `threads == 1` reference path of [`SweepEngine::drive`]: a plain
    /// in-order loop on the calling thread (still panic-isolated per cell).
    fn drive_serial<P, R, F, C>(
        &self,
        spec: &SweepSpec<P>,
        pending: &[usize],
        done_offset: usize,
        run_cell: &F,
        consume: &C,
        start: Instant,
    ) -> Result<SweepReport, SweepError>
    where
        F: Fn(&Cell<P>) -> R,
        C: Fn(&Cell<P>, R) -> Result<(), String>,
    {
        let total = spec.len();
        let report_step = (total / 10).max(1);
        let mut executed = 0usize;
        for &i in pending {
            let cell = &spec.cells()[i];
            let outcome = {
                let _span = dynnet_obs::labeled_span("sweep", "cell", &cell.label);
                catch_unwind(AssertUnwindSafe(|| {
                    let r = run_cell(cell);
                    consume(cell, r)
                }))
            };
            let failed = match outcome {
                Ok(Ok(())) => None,
                Ok(Err(message)) => Some(message),
                Err(payload) => Some(panic_message(payload.as_ref())),
            };
            if let Some(message) = failed {
                return Err(SweepError {
                    sweep: spec.name().to_string(),
                    cell_index: cell.index,
                    cell_label: cell.label.clone(),
                    message,
                });
            }
            executed += 1;
            let done = done_offset + executed;
            if done.is_multiple_of(report_step) || done == total {
                self.emit_progress(spec.name(), done, total, 1);
            }
        }
        let report = SweepReport {
            cells: pending.len(),
            threads: 1,
            elapsed: start.elapsed(),
            shards: vec![ShardStats {
                executed: pending.len(),
                stolen: 0,
            }],
        };
        self.log_report(spec.name(), &report);
        Ok(report)
    }

    fn log_report(&self, name: &str, report: &SweepReport) {
        if !self.progress && self.sinks.is_empty() {
            return;
        }
        let shards: Vec<String> = report
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| format!("shard {i}: {} cells ({} stolen)", s.executed, s.stolen))
            .collect();
        let summary = format!(
            "{} cells on {} threads in {:.2}s ({:.1} cells/s; {})",
            report.cells,
            report.threads,
            report.elapsed.as_secs_f64(),
            report.throughput(),
            shards.join(", "),
        );
        for sink in &self.sinks {
            sink.finished(name, &summary);
        }
        if self.progress {
            eprintln!("  [sweep {name}] {summary}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_spec(n: usize) -> SweepSpec<usize> {
        let axis: Vec<usize> = (0..n).collect();
        SweepSpec::grid1("squares", &axis, |&i| (format!("i={i}"), i))
    }

    #[test]
    fn results_are_in_grid_order() {
        let spec = square_spec(97);
        for threads in [1, 3, 8] {
            let run = SweepEngine::new(threads)
                .run(&spec, |c| c.params * c.params)
                .unwrap();
            let expect: Vec<usize> = (0..97).map(|i| i * i).collect();
            assert_eq!(run.results(), &expect[..], "threads={threads}");
            assert_eq!(run.report().cells, 97);
            let executed: usize = run.report().shards.iter().map(|s| s.executed).sum();
            assert_eq!(executed, 97);
        }
    }

    #[test]
    fn uneven_cells_get_stolen() {
        // First shard holds all the slow cells; with 4 workers the others
        // must steal to finish. We can't assert steal counts (timing), but
        // the result must still be complete and ordered.
        let spec = square_spec(64);
        let run = SweepEngine::new(4)
            .run(&spec, |c| {
                if c.params < 16 {
                    std::thread::sleep(Duration::from_millis(2));
                }
                c.params
            })
            .unwrap();
        assert_eq!(run.results().len(), 64);
        assert!(run.results().iter().enumerate().all(|(i, &r)| i == r));
        assert_eq!(run.report().threads, 4);
        assert_eq!(run.report().shards.len(), 4);
    }

    #[test]
    fn empty_spec_is_ok() {
        let spec: SweepSpec<u8> = SweepSpec::new("empty");
        let run = SweepEngine::new(4).run(&spec, |_| 0u8).unwrap();
        assert!(run.results().is_empty());
        assert!(run.report().throughput().is_infinite() || run.report().cells == 0);
    }

    #[test]
    fn panic_reports_failing_cell() {
        let spec = square_spec(12);
        for threads in [1, 4] {
            let err = match SweepEngine::new(threads).run(&spec, |c| {
                if c.params == 7 {
                    panic!("bad cell seven");
                }
                c.params
            }) {
                Err(e) => e,
                Ok(_) => panic!("expected the sweep to fail"),
            };
            assert_eq!(err.cell_index, 7, "threads={threads}");
            assert_eq!(err.cell_label, "i=7");
            assert!(err.message.contains("bad cell seven"));
            assert!(err.to_string().contains("squares"));
        }
    }

    #[test]
    fn serial_twin_and_threads_accessor() {
        let engine = SweepEngine::new(8);
        assert_eq!(engine.threads(), 8);
        assert_eq!(engine.serial().threads(), 1);
        assert_eq!(SweepEngine::new(0).threads(), 1);
    }
}
