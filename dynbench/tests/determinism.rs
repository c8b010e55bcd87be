//! The benchmark's own checks on tiny inputs: identical seeds give
//! identical exact counters and output digests, different seeds give
//! different digests, and every workload runs clean end to end.

use dynbench::{run, Config, Params, Report, Workload};
use std::path::PathBuf;

const END_TO_END: [&str; 5] = [
    "setup_s",
    "node_rounds_per_s",
    "round_ms_p50",
    "round_ms_p90",
    "peak_rss_mb",
];

fn tiny(workload: Workload, seed: u64) -> Report {
    run(&Config {
        workload,
        params: Params::tiny(),
        seed,
        seconds: 0.05,
        traced: false,
        untraced_round_ms: None,
        scratch: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("determinism"),
    })
}

#[test]
fn same_seed_gives_identical_counters_and_digest() {
    for w in Workload::ALL {
        let a = tiny(w, 7);
        let b = tiny(w, 7);
        assert_eq!(a.exact, b.exact, "{}", w.name());
        assert_eq!(a.digest, b.digest, "{}", w.name());
    }
}

#[test]
fn different_seed_changes_the_digest() {
    for w in Workload::ALL {
        assert_ne!(tiny(w, 7).digest, tiny(w, 8).digest, "{}", w.name());
    }
}

#[test]
fn tiny_runs_are_correct_and_report_every_end_to_end_metric() {
    for w in Workload::ALL {
        let r = tiny(w, 3);
        assert!(r.correct, "{}: {:?}", w.name(), r.problems);
        assert!(r.attempted >= 1, "{}", w.name());
        assert_eq!(r.failed, 0, "{}", w.name());
        assert_eq!(
            r.exact.get("runtime.full_csr_builds").copied().unwrap_or(1),
            1
        );
        assert!(r.samples >= Params::tiny().min_rounds, "{}", w.name());
        for name in END_TO_END {
            let v = r
                .metric(name)
                .unwrap_or_else(|| panic!("{}: no {name}", w.name()));
            assert!(v > 0.0, "{}: {name} = {v}", w.name());
        }
        let json = r.json(false);
        assert!(
            json.starts_with("{\"correct\": true, \"attempted\": "),
            "{json}"
        );
        assert_eq!(json.matches("\"unit\"").count(), END_TO_END.len(), "{json}");
    }
}
