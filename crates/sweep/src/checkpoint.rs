//! Per-cell sweep checkpointing: the durable store that makes a killed
//! sweep resumable.
//!
//! A [`CheckpointStore`] persists every finished cell's result under its
//! grid index in a checkpoint directory:
//!
//! ```text
//! <dir>/manifest.tsv          — header + one `cell` line per finished cell
//! <dir>/cells/<index>.cell    — framed, checksummed result payload
//! ```
//!
//! The manifest header fingerprints the [`SweepSpec`] (name, cell count,
//! FNV-1a over the cell labels), so a checkpoint can never be resumed
//! against a different grid. Cell files are written to a temp name, fsynced
//! and renamed — a crash mid-write leaves no partial cell — and the
//! manifest line is appended only after the rename, so every listed cell
//! exists. A torn trailing manifest line (crash mid-append) is tolerated
//! and healed on resume.
//!
//! On [`CheckpointStore::resume`] each listed cell is re-verified: the
//! frame checksum, grid index, and manifest entry must all agree and the
//! payload must decode as the expected result type. A cell failing any
//! check is **discarded and recomputed** (counted by the
//! `store.cells_recomputed` metric) — corruption is never silently
//! trusted. Valid cells are loaded (`store.cells_skipped`) and their cells
//! are not re-run.
//!
//! Results must implement [`CellValue`], the compact binary encoding of
//! checkpointable result types. The encoding is exact (`f64` round-trips
//! bit-for-bit), so a resumed sweep's aggregated CSV is byte-identical to
//! an uninterrupted run's.

use crate::engine::{collect_slots, lock_recover, SweepEngine, SweepError, SweepRun};
use crate::spec::{Cell, SweepSpec};
use dynnet_graph::codec::{fnv1a64, read_varint, write_varint, CodecError};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Magic bytes opening every checkpoint cell file.
pub const CELL_MAGIC: [u8; 4] = *b"DNCL";
/// Current checkpoint format version (cell files and manifest header).
pub const CHECKPOINT_VERSION: u8 = 1;

/// A failure of the checkpoint store (distinct from a cell failure).
#[derive(Debug)]
pub enum StoreError {
    /// A filesystem operation failed.
    Io {
        /// The path the operation touched.
        path: PathBuf,
        /// The underlying error.
        error: std::io::Error,
    },
    /// A payload failed to encode or decode.
    Codec(CodecError),
    /// The checkpoint on disk belongs to a different sweep grid.
    SpecMismatch {
        /// The checkpoint directory.
        dir: PathBuf,
        /// What disagreed (name, cell count, or label fingerprint).
        detail: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, error } => {
                write!(f, "checkpoint io error at {}: {error}", path.display())
            }
            StoreError::Codec(e) => write!(f, "checkpoint codec error: {e}"),
            StoreError::SpecMismatch { dir, detail } => write!(
                f,
                "checkpoint at {} belongs to a different sweep: {detail}",
                dir.display()
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { error, .. } => Some(error),
            StoreError::Codec(e) => Some(e),
            StoreError::SpecMismatch { .. } => None,
        }
    }
}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        StoreError::Codec(e)
    }
}

fn io_err(path: &Path, error: std::io::Error) -> StoreError {
    StoreError::Io {
        path: path.to_path_buf(),
        error,
    }
}

// ---------------------------------------------------------------------------
// CellValue: the checkpointable result encoding
// ---------------------------------------------------------------------------

/// Binary encoding of checkpointable sweep-cell results.
///
/// Implementations must be exact round-trips (`decode(encode(x)) == x`
/// bit-for-bit — `f64` goes through [`f64::to_bits`]), because resumed
/// sweeps must aggregate to byte-identical output. Decoders must validate
/// and fail typed on corrupt input, never panic.
pub trait CellValue: Sized {
    /// Appends this value's encoding to `out`.
    fn encode_value(&self, out: &mut Vec<u8>);

    /// Decodes one value from the front of `input`, advancing it.
    fn decode_value(input: &mut &[u8]) -> Result<Self, CodecError>;
}

impl CellValue for u64 {
    fn encode_value(&self, out: &mut Vec<u8>) {
        write_varint(out, *self);
    }

    fn decode_value(input: &mut &[u8]) -> Result<Self, CodecError> {
        read_varint(input)
    }
}

impl CellValue for usize {
    fn encode_value(&self, out: &mut Vec<u8>) {
        write_varint(out, *self as u64);
    }

    fn decode_value(input: &mut &[u8]) -> Result<Self, CodecError> {
        usize::try_from(read_varint(input)?)
            .map_err(|_| CodecError::InvalidValue("usize overflow".to_string()))
    }
}

impl CellValue for u32 {
    fn encode_value(&self, out: &mut Vec<u8>) {
        write_varint(out, u64::from(*self));
    }

    fn decode_value(input: &mut &[u8]) -> Result<Self, CodecError> {
        u32::try_from(read_varint(input)?)
            .map_err(|_| CodecError::InvalidValue("u32 overflow".to_string()))
    }
}

impl CellValue for i64 {
    fn encode_value(&self, out: &mut Vec<u8>) {
        write_varint(out, dynnet_graph::codec::zigzag(*self));
    }

    fn decode_value(input: &mut &[u8]) -> Result<Self, CodecError> {
        read_varint(input).map(dynnet_graph::codec::unzigzag)
    }
}

impl CellValue for bool {
    fn encode_value(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn decode_value(input: &mut &[u8]) -> Result<Self, CodecError> {
        let (&b, rest) = input.split_first().ok_or(CodecError::UnexpectedEof)?;
        *input = rest;
        match b {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError::InvalidValue(format!("bad bool byte {other}"))),
        }
    }
}

impl CellValue for f64 {
    /// Bit-exact: the checkpointed value renders to the same decimal string
    /// as the freshly computed one, keeping resumed CSVs byte-identical.
    fn encode_value(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }

    fn decode_value(input: &mut &[u8]) -> Result<Self, CodecError> {
        let (bytes, rest) = input.split_at_checked(8).ok_or(CodecError::UnexpectedEof)?;
        *input = rest;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(bytes);
        Ok(f64::from_bits(u64::from_le_bytes(buf)))
    }
}

impl CellValue for String {
    fn encode_value(&self, out: &mut Vec<u8>) {
        write_varint(out, self.len() as u64);
        out.extend_from_slice(self.as_bytes());
    }

    fn decode_value(input: &mut &[u8]) -> Result<Self, CodecError> {
        let len = read_varint(input)?;
        if len > input.len() as u64 {
            return Err(CodecError::UnexpectedEof);
        }
        let (bytes, rest) = input.split_at(len as usize);
        *input = rest;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CodecError::InvalidValue("invalid utf-8 in string".to_string()))
    }
}

impl<T: CellValue> CellValue for Vec<T> {
    fn encode_value(&self, out: &mut Vec<u8>) {
        write_varint(out, self.len() as u64);
        for item in self {
            item.encode_value(out);
        }
    }

    fn decode_value(input: &mut &[u8]) -> Result<Self, CodecError> {
        let len = read_varint(input)?;
        // Every element costs at least one input byte, so a corrupt length
        // cannot allocate past the remaining input.
        if len > input.len() as u64 {
            return Err(CodecError::UnexpectedEof);
        }
        let mut items = Vec::with_capacity(len as usize);
        for _ in 0..len {
            items.push(T::decode_value(input)?);
        }
        Ok(items)
    }
}

impl<T: CellValue> CellValue for Option<T> {
    fn encode_value(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode_value(out);
            }
        }
    }

    fn decode_value(input: &mut &[u8]) -> Result<Self, CodecError> {
        match bool::decode_value(input)? {
            false => Ok(None),
            true => T::decode_value(input).map(Some),
        }
    }
}

macro_rules! tuple_cell_value {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: CellValue),+> CellValue for ($($name,)+) {
            fn encode_value(&self, out: &mut Vec<u8>) {
                $(self.$idx.encode_value(out);)+
            }

            fn decode_value(input: &mut &[u8]) -> Result<Self, CodecError> {
                Ok(($($name::decode_value(input)?,)+))
            }
        }
    };
}

tuple_cell_value!(A: 0, B: 1);
tuple_cell_value!(A: 0, B: 1, C: 2);
tuple_cell_value!(A: 0, B: 1, C: 2, D: 3);
tuple_cell_value!(A: 0, B: 1, C: 2, D: 3, E: 4);

/// Verification results are sweep-cell results for the guarantee
/// experiments (E12's window sweep), so they checkpoint too. The
/// `InvalidRounds` component is serialized as its parts (runs, total,
/// dropped) and revalidated on decode through
/// [`dynnet_core::verify::InvalidRounds::from_parts`] — a corrupt
/// checkpoint fails typed, it cannot smuggle in a summary that violates
/// the run-encoding invariants.
impl CellValue for dynnet_core::verify::VerificationSummary {
    fn encode_value(&self, out: &mut Vec<u8>) {
        self.rounds_checked.encode_value(out);
        self.rounds_valid.encode_value(out);
        self.rounds_partial_valid.encode_value(out);
        self.total_packing_violations.encode_value(out);
        self.total_covering_violations.encode_value(out);
        self.total_undecided.encode_value(out);
        self.first_valid_round.encode_value(out);
        self.invalid_rounds.runs().to_vec().encode_value(out);
        self.invalid_rounds.len().encode_value(out);
        self.invalid_rounds.truncated().encode_value(out);
    }

    fn decode_value(input: &mut &[u8]) -> Result<Self, CodecError> {
        let rounds_checked = usize::decode_value(input)?;
        let rounds_valid = usize::decode_value(input)?;
        let rounds_partial_valid = usize::decode_value(input)?;
        let total_packing_violations = usize::decode_value(input)?;
        let total_covering_violations = usize::decode_value(input)?;
        let total_undecided = usize::decode_value(input)?;
        let first_valid_round = Option::<usize>::decode_value(input)?;
        let runs = Vec::<(usize, usize)>::decode_value(input)?;
        let total = usize::decode_value(input)?;
        let dropped = usize::decode_value(input)?;
        let invalid_rounds =
            dynnet_core::verify::InvalidRounds::from_parts(runs, total, dropped)
                .map_err(|e| CodecError::InvalidValue(format!("invalid_rounds: {e}")))?;
        Ok(dynnet_core::verify::VerificationSummary {
            rounds_checked,
            rounds_valid,
            rounds_partial_valid,
            total_packing_violations,
            total_covering_violations,
            total_undecided,
            first_valid_round,
            invalid_rounds,
        })
    }
}

/// Encodes a value to a standalone payload.
pub fn encode_cell_value<R: CellValue>(value: &R) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode_value(&mut out);
    out
}

/// Decodes a standalone payload, requiring full consumption.
pub fn decode_cell_value<R: CellValue>(bytes: &[u8]) -> Result<R, CodecError> {
    let mut input = bytes;
    let value = R::decode_value(&mut input)?;
    if !input.is_empty() {
        return Err(CodecError::TrailingBytes(input.len()));
    }
    Ok(value)
}

// ---------------------------------------------------------------------------
// Kill switch (fault injection)
// ---------------------------------------------------------------------------

/// Name of the environment variable that arms the process-exit kill hook:
/// when set to `N`, a store calls `std::process::exit(42)` right after it
/// has persisted its `N`-th cell — a true crash for the CI resume-smoke
/// test (nothing unwinds, no destructor runs). The count is per store, so
/// in a multi-sweep run it fires inside the first sweep that persists `N`
/// cells.
pub const KILL_ENV: &str = "DYNNET_KILL_AFTER_CELLS";

/// Exit code of the environment kill hook.
pub const KILL_EXIT_CODE: i32 = 42;

/// Fault-injection behavior armed on a [`CheckpointStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum KillMode {
    /// No fault injection.
    None,
    /// Panic (unwinds into a [`SweepError`]) after `N` persisted cells —
    /// the in-process fault used by the integration tests.
    Panic(u64),
    /// `std::process::exit(42)` after `N` persisted cells — the true-crash
    /// fault used by the CI resume-smoke step, armed via [`KILL_ENV`].
    Exit(u64),
}

/// Programmatic kill switch: arms a [`CheckpointStore`] to panic after `N`
/// cells have been persisted, simulating a crash that strands a partially
/// complete checkpoint. The panic unwinds through the sweep engine's
/// per-cell isolation into a typed [`SweepError`], so tests observe an
/// ordinary error and then exercise resume.
#[derive(Clone, Copy, Debug)]
pub struct KillSwitch {
    /// Number of cells allowed to persist before the switch fires.
    pub after_cells: u64,
}

impl KillSwitch {
    /// A switch that fires after `after_cells` cells have persisted.
    pub fn after(after_cells: u64) -> KillSwitch {
        KillSwitch { after_cells }
    }
}

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

struct ManifestState {
    file: Option<File>,
    persisted: u64,
}

/// The durable per-cell result store behind crash-resumable sweeps. See
/// the [module docs](self) for the on-disk layout and guarantees.
pub struct CheckpointStore {
    dir: PathBuf,
    resume: bool,
    kill: KillMode,
    manifest: Mutex<ManifestState>,
}

impl fmt::Debug for CheckpointStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CheckpointStore")
            .field("dir", &self.dir)
            .field("resume", &self.resume)
            .field("kill", &self.kill)
            .finish()
    }
}

/// Fingerprint of a spec: name, cell count, and an FNV-1a over the labels,
/// so a checkpoint directory can never be applied to a different grid.
fn spec_fingerprint<P>(spec: &SweepSpec<P>) -> u64 {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(spec.name().as_bytes());
    for cell in spec.cells() {
        bytes.push(0);
        bytes.extend_from_slice(cell.label.as_bytes());
    }
    fnv1a64(&bytes)
}

impl CheckpointStore {
    /// Opens a *fresh* checkpoint at `dir`, discarding any existing state.
    pub fn create(dir: impl Into<PathBuf>) -> Result<CheckpointStore, StoreError> {
        CheckpointStore::open(dir, false)
    }

    /// Opens the checkpoint at `dir` for resumption: completed cells
    /// recorded there are verified, loaded, and skipped by the next
    /// checkpointed run.
    pub fn resume(dir: impl Into<PathBuf>) -> Result<CheckpointStore, StoreError> {
        CheckpointStore::open(dir, true)
    }

    /// Opens a checkpoint directory; `resume` selects between reusing and
    /// discarding existing state. The [`KILL_ENV`] environment hook is
    /// armed here when set.
    pub fn open(dir: impl Into<PathBuf>, resume: bool) -> Result<CheckpointStore, StoreError> {
        let dir = dir.into();
        std::fs::create_dir_all(dir.join("cells")).map_err(|e| io_err(&dir, e))?;
        let kill = match std::env::var(KILL_ENV) {
            Ok(v) => match v.parse::<u64>() {
                Ok(n) => KillMode::Exit(n),
                Err(_) => KillMode::None,
            },
            Err(_) => KillMode::None,
        };
        Ok(CheckpointStore {
            dir,
            resume,
            kill,
            manifest: Mutex::new(ManifestState {
                file: None,
                persisted: 0,
            }),
        })
    }

    /// Arms the programmatic [`KillSwitch`]: the store panics right after
    /// the given number of cells has been persisted by this process.
    pub fn with_kill_switch(mut self, switch: KillSwitch) -> CheckpointStore {
        self.kill = KillMode::Panic(switch.after_cells);
        self
    }

    /// The checkpoint directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of cells persisted by this process (not counting loaded ones).
    pub fn cells_persisted(&self) -> u64 {
        lock_recover(&self.manifest).persisted
    }

    /// Whether a durable cell file exists for `index` (fault-injection
    /// tests assert a killed cell left nothing behind).
    pub fn cell_file_exists(&self, index: usize) -> bool {
        self.cell_path(index).exists()
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join("manifest.tsv")
    }

    fn cell_path(&self, index: usize) -> PathBuf {
        self.dir.join("cells").join(format!("{index}.cell"))
    }

    fn header_line<P>(spec: &SweepSpec<P>) -> String {
        format!(
            "dynnet-checkpoint v{CHECKPOINT_VERSION}\t{:016x}\t{}\t{}\n",
            spec_fingerprint(spec),
            spec.len(),
            spec.name()
        )
    }

    /// Loads (and verifies) the completed cells recorded for `spec`,
    /// returning one slot per grid cell, and leaves the manifest open for
    /// appending the cells the engine is about to run. Called once per
    /// checkpointed run by the engine. Loaded cells count toward
    /// `store.cells_skipped`, discarded ones (bad checksum, bad index,
    /// undecodable payload) toward `store.cells_recomputed`.
    pub(crate) fn load<R: CellValue, P>(
        &self,
        spec: &SweepSpec<P>,
    ) -> Result<Vec<Option<R>>, StoreError> {
        let mut slots: Vec<Option<R>> = (0..spec.len()).map(|_| None).collect();
        let (mut loaded, mut recomputed) = (0u64, 0u64);
        let manifest_path = self.manifest_path();
        let mut valid_lines: Vec<String> = Vec::new();
        if self.resume {
            match std::fs::read_to_string(&manifest_path) {
                Ok(content) => {
                    let mut lines = content.lines();
                    if let Some(header) = lines.next() {
                        let expected = Self::header_line(spec);
                        if header != expected.trim_end() {
                            return Err(StoreError::SpecMismatch {
                                dir: self.dir.clone(),
                                detail: format!(
                                    "manifest header {header:?} != expected {:?}",
                                    expected.trim_end()
                                ),
                            });
                        }
                        for line in lines {
                            // A torn trailing line (crash mid-append) or any
                            // malformed entry ends the trusted prefix; cells
                            // after it are recomputed.
                            let Some((index, checksum)) = parse_cell_line(line) else {
                                break;
                            };
                            if index >= spec.len() || slots[index].is_some() {
                                break;
                            }
                            match self.load_cell::<R>(index, checksum) {
                                Some(value) => {
                                    slots[index] = Some(value);
                                    loaded += 1;
                                    valid_lines.push(line.to_string());
                                }
                                None => recomputed += 1,
                            }
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(io_err(&manifest_path, e)),
            }
        }
        // Rewrite the manifest to exactly the verified prefix (healing torn
        // lines and dropping corrupt cells), then keep it open for append.
        let tmp = self.dir.join("manifest.tsv.tmp");
        {
            let mut f = File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
            f.write_all(Self::header_line(spec).as_bytes())
                .map_err(|e| io_err(&tmp, e))?;
            for line in &valid_lines {
                f.write_all(line.as_bytes()).map_err(|e| io_err(&tmp, e))?;
                f.write_all(b"\n").map_err(|e| io_err(&tmp, e))?;
            }
            f.sync_data().map_err(|e| io_err(&tmp, e))?;
        }
        std::fs::rename(&tmp, &manifest_path).map_err(|e| io_err(&manifest_path, e))?;
        let file = OpenOptions::new()
            .append(true)
            .open(&manifest_path)
            .map_err(|e| io_err(&manifest_path, e))?;
        lock_recover(&self.manifest).file = Some(file);
        let reg = dynnet_obs::registry();
        reg.counter("store.cells_skipped").add(loaded);
        reg.counter("store.cells_recomputed").add(recomputed);
        Ok(slots)
    }

    /// Verifies and decodes one checkpointed cell; any mismatch (missing
    /// file, frame corruption, wrong index, checksum disagreement with the
    /// manifest or the payload, undecodable value) discards the cell.
    fn load_cell<R: CellValue>(&self, index: usize, manifest_checksum: u64) -> Option<R> {
        let path = self.cell_path(index);
        let bytes = std::fs::read(&path).ok()?;
        let (header, rest) = bytes.split_at_checked(5)?;
        if header[..4] != CELL_MAGIC || header[4] != CHECKPOINT_VERSION {
            return None;
        }
        let mut input = rest;
        let stored_index = read_varint(&mut input).ok()?;
        if stored_index != index as u64 {
            return None;
        }
        let len = read_varint(&mut input).ok()?;
        if len + 8 != input.len() as u64 {
            return None;
        }
        let (payload, checksum_bytes) = input.split_at(len as usize);
        let mut stored = [0u8; 8];
        stored.copy_from_slice(checksum_bytes);
        let stored = u64::from_le_bytes(stored);
        if stored != manifest_checksum || stored != fnv1a64(payload) {
            return None;
        }
        decode_cell_value::<R>(payload).ok()
    }

    /// Persists one finished cell: frames and checksums the encoded result,
    /// writes it to a temp file, fsyncs, renames it into place, and appends
    /// the manifest line. Fires the armed kill switch after the persist
    /// completes (so exactly `N` cells are durable when it fires).
    pub(crate) fn persist<R: CellValue, P>(
        &self,
        cell: &Cell<P>,
        value: &R,
    ) -> Result<(), StoreError> {
        let payload = encode_cell_value(value);
        let checksum = fnv1a64(&payload);
        let mut frame = Vec::with_capacity(payload.len() + 24);
        frame.extend_from_slice(&CELL_MAGIC);
        frame.push(CHECKPOINT_VERSION);
        write_varint(&mut frame, cell.index as u64);
        write_varint(&mut frame, payload.len() as u64);
        frame.extend_from_slice(&payload);
        frame.extend_from_slice(&checksum.to_le_bytes());

        let final_path = self.cell_path(cell.index);
        let tmp_path = self.dir.join("cells").join(format!(".tmp-{}", cell.index));
        {
            let mut f = File::create(&tmp_path).map_err(|e| io_err(&tmp_path, e))?;
            f.write_all(&frame).map_err(|e| io_err(&tmp_path, e))?;
            f.sync_data().map_err(|e| io_err(&tmp_path, e))?;
        }
        std::fs::rename(&tmp_path, &final_path).map_err(|e| io_err(&final_path, e))?;

        let line = format!("cell\t{}\t{checksum:016x}\n", cell.index);
        let persisted = {
            let mut state = lock_recover(&self.manifest);
            if let Some(f) = &mut state.file {
                f.write_all(line.as_bytes())
                    .map_err(|e| io_err(&self.manifest_path(), e))?;
            }
            state.persisted += 1;
            state.persisted
        };
        let reg = dynnet_obs::registry();
        reg.counter("store.cells_persisted").inc();
        reg.counter("store.bytes_written")
            .add((frame.len() + line.len()) as u64);
        reg.counter("store.fsync_count").inc();

        match self.kill {
            KillMode::Panic(n) if persisted >= n => {
                // INVARIANT: crash-injection harness — only reachable when
                // the kill-switch env variable is set by a resilience test.
                panic!("kill switch fired after {persisted} persisted cells")
            }
            KillMode::Exit(n) if persisted >= n => {
                eprintln!("[checkpoint] {KILL_ENV} fired after {persisted} cells; exiting");
                std::process::exit(KILL_EXIT_CODE);
            }
            _ => Ok(()),
        }
    }
}

/// Parses one `cell\t<index>\t<checksum-hex>` manifest line.
fn parse_cell_line(line: &str) -> Option<(usize, u64)> {
    let mut parts = line.split('\t');
    if parts.next() != Some("cell") {
        return None;
    }
    let index: usize = parts.next()?.parse().ok()?;
    let checksum = u64::from_str_radix(parts.next()?, 16).ok()?;
    if parts.next().is_some() {
        return None;
    }
    Some((index, checksum))
}

fn store_sweep_error<P>(spec: &SweepSpec<P>, e: StoreError) -> SweepError {
    SweepError {
        sweep: spec.name().to_string(),
        cell_index: usize::MAX,
        cell_label: "<store>".to_string(),
        message: e.to_string(),
    }
}

impl SweepEngine {
    /// Runs `spec` with per-cell checkpointing: cells already completed in
    /// `store` are verified and loaded instead of re-run, every newly
    /// finished cell is persisted before it counts as done, and the merged
    /// results come back in grid order — byte-identical to an
    /// uninterrupted [`SweepEngine::run`].
    pub fn run_checkpointed<P, R, F>(
        &self,
        spec: &SweepSpec<P>,
        store: &CheckpointStore,
        run_cell: F,
    ) -> Result<SweepRun<R>, SweepError>
    where
        P: Sync,
        R: Send + CellValue,
        F: Fn(&Cell<P>) -> R + Sync,
    {
        let loaded = store
            .load::<R, P>(spec)
            .map_err(|e| store_sweep_error(spec, e))?;
        let pending: Vec<usize> = loaded
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.is_none().then_some(i))
            .collect();
        let done_offset = spec.len() - pending.len();
        let slots = Mutex::new(loaded);
        let report = self.drive(
            spec,
            &pending,
            done_offset,
            &run_cell,
            &|cell: &Cell<P>, r: R| {
                store.persist(cell, &r).map_err(|e| e.to_string())?;
                // INVARIANT: cell.index < spec.len() by construction (it is
                // the cell's insertion position) and load() sized the slot
                // vector to spec.len().
                lock_recover(&slots)[cell.index] = Some(r);
                Ok(())
            },
        )?;
        let results = collect_slots(
            spec,
            slots
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )?;
        Ok(SweepRun::from_parts(results, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dynnet-checkpoint-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn square_spec(n: usize) -> SweepSpec<usize> {
        let axis: Vec<usize> = (0..n).collect();
        SweepSpec::grid1("squares", &axis, |&i| (format!("i={i}"), i))
    }

    #[test]
    fn cell_value_roundtrips() {
        let mut out = Vec::new();
        let v = (
            42u64,
            -7i64,
            1.5f64,
            "hello".to_string(),
            vec![1.0f64, f64::NAN.copysign(-1.0)],
        );
        v.encode_value(&mut out);
        let back: (u64, i64, f64, String, Vec<f64>) = decode_cell_value(&out).unwrap();
        assert_eq!(back.0, 42);
        assert_eq!(back.1, -7);
        assert_eq!(back.2.to_bits(), 1.5f64.to_bits());
        assert_eq!(back.3, "hello");
        // NaN round-trips bit-exactly — equality on bits, not value.
        assert_eq!(back.4[1].to_bits(), v.4[1].to_bits());
        assert!(decode_cell_value::<u64>(&[]).is_err());
    }

    #[test]
    fn verification_summary_roundtrips() {
        use dynnet_core::verify::VerificationSummary;
        let mut summary = VerificationSummary {
            rounds_checked: 100,
            rounds_valid: 90,
            rounds_partial_valid: 95,
            total_packing_violations: 3,
            total_covering_violations: 4,
            total_undecided: 17,
            first_valid_round: Some(6),
            invalid_rounds: Default::default(),
        };
        for r in [6usize, 7, 8, 20, 41, 42] {
            summary.invalid_rounds.push(r);
        }
        let back: VerificationSummary = decode_cell_value(&encode_cell_value(&summary)).unwrap();
        assert_eq!(back, summary);
        assert_eq!(back.invalid_rounds.runs(), &[(6, 3), (20, 1), (41, 2)]);
    }

    #[test]
    fn verification_summary_roundtrips_past_run_cap() {
        use dynnet_core::verify::{InvalidRounds, VerificationSummary};
        let mut summary = VerificationSummary::default();
        // Alternate valid/invalid so every invalid round is its own run;
        // push past the cap so indices get dropped but the count stays.
        for r in 0..2 * (InvalidRounds::MAX_RUNS + 50) {
            if r % 2 == 0 {
                summary.invalid_rounds.push(r);
            }
        }
        assert!(summary.invalid_rounds.truncated() > 0);
        let back: VerificationSummary = decode_cell_value(&encode_cell_value(&summary)).unwrap();
        assert_eq!(back, summary);
        assert_eq!(
            back.invalid_rounds.truncated(),
            summary.invalid_rounds.truncated()
        );
    }

    #[test]
    fn corrupt_verification_summary_fails_typed() {
        use dynnet_core::verify::VerificationSummary;
        let mut summary = VerificationSummary::default();
        summary.invalid_rounds.push(5);
        summary.invalid_rounds.push(9);
        let bytes = encode_cell_value(&summary);
        // Truncated payloads and length-extended payloads both fail.
        assert!(decode_cell_value::<VerificationSummary>(&bytes[..bytes.len() - 1]).is_err());
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(decode_cell_value::<VerificationSummary>(&extended).is_err());
        // A payload whose run list violates the ascending/non-adjacent
        // invariant is rejected by from_parts, not accepted silently.
        let bad = dynnet_core::verify::InvalidRounds::from_parts(vec![(9, 1), (5, 1)], 2, 0);
        assert!(bad.is_err());
    }

    #[test]
    fn checkpointed_run_equals_plain_run() {
        let spec = square_spec(23);
        let dir = tmp_dir("plain");
        let engine = SweepEngine::new(3);
        let plain = engine.run(&spec, |c| c.params as u64 * 3).unwrap();
        let store = CheckpointStore::create(&dir).unwrap();
        let ckpt = engine
            .run_checkpointed(&spec, &store, |c| c.params as u64 * 3)
            .unwrap();
        assert_eq!(plain.results(), ckpt.results());
        // Second run over the same store: everything loads, nothing runs.
        let store2 = CheckpointStore::resume(&dir).unwrap();
        let again = engine
            .run_checkpointed(&spec, &store2, |_c| -> u64 {
                panic!("no cell should re-run")
            })
            .unwrap();
        assert_eq!(plain.results(), again.results());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn kill_switch_strands_then_resume_completes() {
        let spec = square_spec(16);
        let dir = tmp_dir("kill");
        let engine = SweepEngine::new(1);
        let store = CheckpointStore::create(&dir)
            .unwrap()
            .with_kill_switch(KillSwitch::after(5));
        let err = engine
            .run_checkpointed(&spec, &store, |c| c.params as u64)
            .expect_err("kill switch must cancel the sweep");
        assert!(err.message.contains("kill switch"));
        assert_eq!(store.cells_persisted(), 5);

        let store = CheckpointStore::resume(&dir).unwrap();
        let resumed = engine
            .run_checkpointed(&spec, &store, |c| c.params as u64)
            .unwrap();
        assert_eq!(
            resumed.results(),
            (0..16).map(|i| i as u64).collect::<Vec<_>>().as_slice()
        );
        // Only the missing 11 cells ran.
        assert_eq!(resumed.report().cells, 11);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spec_mismatch_is_rejected() {
        let dir = tmp_dir("mismatch");
        let spec = square_spec(4);
        let engine = SweepEngine::new(1);
        let store = CheckpointStore::create(&dir).unwrap();
        engine
            .run_checkpointed(&spec, &store, |c| c.params as u64)
            .unwrap();
        let other = square_spec(5);
        let store = CheckpointStore::resume(&dir).unwrap();
        let err = engine
            .run_checkpointed(&other, &store, |c| c.params as u64)
            .expect_err("different grid must be rejected");
        assert!(err.message.contains("different sweep"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_manifest_line_is_healed() {
        let dir = tmp_dir("torn");
        let spec = square_spec(6);
        let engine = SweepEngine::new(1);
        let store = CheckpointStore::create(&dir).unwrap();
        engine
            .run_checkpointed(&spec, &store, |c| c.params as u64)
            .unwrap();
        // Simulate a crash mid-append: truncate the manifest mid-line.
        let path = dir.join("manifest.tsv");
        let content = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &content[..content.len() - 3]).unwrap();
        let store = CheckpointStore::resume(&dir).unwrap();
        let resumed = engine
            .run_checkpointed(&spec, &store, |c| c.params as u64)
            .unwrap();
        assert_eq!(resumed.results().len(), 6);
        // The torn last cell re-ran.
        assert_eq!(resumed.report().cells, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
