//! Adversarial-input suite for the checkpoint store: every truncation and
//! every single-bit flip of each cell file and of `manifest.tsv` of a small
//! persisted sweep. Resuming from the damaged directory
//! (`CheckpointStore::resume` + `SweepEngine::run_checkpointed`) must either
//! fail with a typed error or return exactly the results of a clean run,
//! with a damaged cell recomputed rather than trusted. It must never panic.

use dynnet_sweep::{Cell, CheckpointStore, SweepEngine, SweepSpec};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The cell result: several encodings (varint, f64 bits, length-prefixed
/// bytes) so damage can land in each decoder.
type Value = (u64, f64, String);

const CELLS: usize = 4;

fn spec() -> SweepSpec<usize> {
    let axis: Vec<usize> = (0..CELLS).collect();
    SweepSpec::grid1("checkpoint-prop", &axis, |&i| (format!("i={i}"), i))
}

fn value(cell: &Cell<usize>) -> Value {
    let i = cell.params;
    (
        1000 + 7 * i as u64,
        i as f64 * 0.5 - 1.0,
        format!("cell-{i}"),
    )
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dynnet-checkpoint-prop-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The files of a persisted checkpoint, relative to its directory.
fn files() -> Vec<PathBuf> {
    let mut files = vec![PathBuf::from("manifest.tsv")];
    files.extend((0..CELLS).map(|i| Path::new("cells").join(format!("{i}.cell"))));
    files
}

/// Resumes the sweep from `dir` and checks the outcome of one damaged case.
/// `damaged_cell` names the cell whose file was damaged, if any: it must
/// have been recomputed.
fn check_case(case: &str, dir: &Path, clean: &[Value], damaged_cell: Option<usize>) {
    let ran = Mutex::new(Vec::new());
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let store = CheckpointStore::resume(dir)?;
        SweepEngine::new(1)
            .run_checkpointed(&spec(), &store, |cell| {
                ran.lock().unwrap().push(cell.index);
                value(cell)
            })
            .map_err(|e| e.into())
    }));
    let outcome: Result<_, Box<dyn std::error::Error>> =
        outcome.unwrap_or_else(|_| panic!("{case}: resume panicked"));
    match outcome {
        // A typed failure (e.g. a header that no longer matches the spec).
        // A damaged cell file alone is never fatal: the cell is recomputed.
        Err(e) => assert!(
            damaged_cell.is_none(),
            "{case}: failed instead of recomputing: {e}"
        ),
        Ok(run) => {
            assert_eq!(run.results(), clean, "{case}: results differ");
            if let Some(index) = damaged_cell {
                assert!(
                    ran.lock().unwrap().contains(&index),
                    "{case}: damaged cell {index} was trusted, not recomputed"
                );
            }
        }
    }
}

/// Copies the template checkpoint into a fresh case directory, with `file`
/// replaced by `bytes`.
fn damaged_copy(template: &Path, file: &Path, bytes: &[u8]) -> PathBuf {
    let dir = tmp("case");
    std::fs::create_dir_all(dir.join("cells")).unwrap();
    for f in files() {
        std::fs::copy(template.join(&f), dir.join(&f)).unwrap();
    }
    std::fs::write(dir.join(file), bytes).unwrap();
    dir
}

#[test]
fn damaged_checkpoint_fails_typed_or_resumes_exactly() {
    let spec = spec();
    let clean: Vec<Value> = spec.cells().iter().map(value).collect();
    let template = tmp("template");
    let store = CheckpointStore::create(&template).unwrap();
    let run = SweepEngine::new(1)
        .run_checkpointed(&spec, &store, value)
        .unwrap();
    assert_eq!(run.results(), clean.as_slice());

    let mut cases = 0;
    for file in files() {
        let original = std::fs::read(template.join(&file)).unwrap();
        let damaged_cell = file
            .file_stem()
            .and_then(|s| s.to_str())
            .and_then(|s| s.parse::<usize>().ok());
        for cut in 0..original.len() {
            let case = format!("{} truncated to {cut} bytes", file.display());
            let dir = damaged_copy(&template, &file, &original[..cut]);
            check_case(&case, &dir, &clean, damaged_cell);
            cases += 1;
        }
        for bit in 0..8 * original.len() {
            let mut bytes = original.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            let case = format!("{} with bit {bit} flipped", file.display());
            let dir = damaged_copy(&template, &file, &bytes);
            check_case(&case, &dir, &clean, damaged_cell);
            cases += 1;
        }
    }
    assert!(cases > 1000, "only {cases} cases ran");
    let _ = std::fs::remove_dir_all(tmp("case"));
    std::fs::remove_dir_all(&template).unwrap();
}
