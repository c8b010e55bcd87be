//! Traced runs on tiny inputs, under the layer-tagged allocator: every
//! per-layer metric is reported, and the exact counters — allocation counts
//! included on the one-thread workloads — repeat for the same seed.
//!
//! One test function only: the allocator, span buffer and `Concat`
//! counters are process-wide, so traced runs must not overlap.

use dynbench::alloc::TaggedAlloc;
use dynbench::{run, Config, Params, Report, Workload};
use std::path::PathBuf;

#[global_allocator]
static ALLOC: TaggedAlloc = TaggedAlloc;

const PER_LAYER: [&str; 30] = [
    "adversary.next_delta_ms",
    "adversary.delta_edges",
    "graph.apply_ms",
    "graph.generate_s",
    "runtime.step_ms",
    "runtime.csr_patch_ms",
    "runtime.send_ms",
    "runtime.receive_ms",
    "runtime.msgs_delivered",
    "runtime.output_churn",
    "runtime.allocs",
    "runtime.alloc_bytes",
    "runtime.full_csr_builds",
    "concat.send_ms",
    "concat.receive_ms",
    "concat.live_instances",
    "concat.payload_elems",
    "verify.on_round_ms",
    "verify.observe_delta_ms",
    "verify.allocs",
    "verify.first_valid_round",
    "sweep.cell_s",
    "sweep.busy_frac",
    "sweep.reload_ms",
    "sweep.ckpt_bytes",
    "sweep.cells_per_s",
    "mem.adversary_bytes",
    "mem.runtime_bytes",
    "mem.verify_bytes",
    "obs.trace_overhead_frac",
];

fn traced(workload: Workload, seed: u64) -> Report {
    run(&Config {
        workload,
        params: Params::tiny(),
        seed,
        seconds: 0.05,
        traced: true,
        untraced_round_ms: Some(1.0),
        scratch: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("traced"),
    })
}

#[test]
fn traced_runs_report_every_layer_and_repeat_exactly() {
    for w in Workload::ALL {
        let a = traced(w, 5);
        assert!(a.correct, "{}: {:?}", w.name(), a.problems);
        let names: Vec<&str> = a.per_layer.iter().map(|m| m.name).collect();
        for name in PER_LAYER {
            assert!(names.contains(&name), "{}: no {name}", w.name());
        }
        assert_eq!(names.len(), PER_LAYER.len(), "{}: {names:?}", w.name());
        assert_eq!(
            a.metric("runtime.full_csr_builds"),
            Some(1.0),
            "{}",
            w.name()
        );
        assert!(
            a.metric("runtime.allocs").unwrap_or(0.0) > 0.0,
            "{}",
            w.name()
        );
        assert!(
            a.metric("mem.runtime_bytes").unwrap_or(0.0) > 0.0,
            "{}",
            w.name()
        );

        let b = traced(w, 5);
        assert_eq!(a.digest, b.digest, "{}", w.name());
        if w.single_threaded() {
            assert!(a.exact["concat.live_instances"] > 0, "{}", w.name());
            assert_eq!(a.exact, b.exact, "{}", w.name());
        } else {
            let (mut ea, mut eb) = (a.exact.clone(), b.exact.clone());
            ea.retain(|k, _| !k.ends_with("allocs") && !k.ends_with("alloc_bytes"));
            eb.retain(|k, _| !k.ends_with("allocs") && !k.ends_with("alloc_bytes"));
            assert_eq!(ea, eb, "{}", w.name());
        }
    }
}
