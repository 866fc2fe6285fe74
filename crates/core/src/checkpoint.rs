//! Checkpoint/resume for the refinement flow.
//!
//! After every completed MSB/LSB iteration the flow can snapshot its
//! complete decision state — signal annotations, phase cursor, decided
//! analyses, evaluation-cache contents and the full event journal — into
//! a self-contained JSON file. [`crate::RefinementFlow::resume_from`]
//! rebuilds a flow from that file and fast-forwards to the first
//! incomplete iteration; the resumed run's journal and final annotations
//! are bit-identical to the uninterrupted run, modulo the leading
//! `resumed_from_checkpoint` marker event.
//!
//! The format is one JSON document, declared as field lists over the
//! same [`fixref_obs::json`] traits the event journal uses; its version
//! member is checked explicitly before anything else is decoded. Signal
//! identity is stored **by name**: a checkpoint is valid for any design
//! built from the same description, and every name is re-resolved (and
//! every embedded `SignalId` rebound) against the resuming design. What
//! is *not* stored is the signal-flow graph — it is only consulted during
//! the first (recorded) MSB iteration, which by construction has already
//! completed in any checkpointed run — and the shard-level recorders of a
//! swept flow, whose re-merged events are deterministic replays of the
//! live sweep.

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use fixref_obs::json::{self, FromJson, Json, JsonCodec, JsonError, ToJson};
use fixref_obs::Event;
use fixref_sim::spec::{unbound_id, IntervalCodec, TokenCodec};
use fixref_sim::{OverflowEvent, SignalAnnotation, SignalStats};

use crate::lsb::{LsbAnalysis, LsbStatus};
use crate::msb::MsbAnalysis;

/// Current checkpoint format version.
const VERSION: u64 = 1;

fixref_obs::json_enum! {
    tag = "phase";

    /// The next work item of an interrupted flow.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Cursor {
        /// Resume the MSB phase at iteration `next`.
        "msb" => Msb {
            /// 1-based next MSB iteration.
            next: usize,
        },
        /// Resume the LSB phase at iteration `next` (the MSB phase is done).
        "lsb" => Lsb {
            /// 1-based next LSB iteration.
            next: usize,
        },
        /// Both phases are done: resume at type application + verification.
        "apply" => Apply,
    }
}

/// The checkpointed evaluation-cache state.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheState {
    /// Whether the driver's cache held a warm entry.
    pub warm: bool,
    /// Names of the signals pending invalidation (the design's dirty
    /// set), sorted.
    pub dirty: Vec<String>,
    /// The warm cache's monitor snapshot `(stats, overflow events,
    /// cycles)`, when the driver could serialize one (sequential caching
    /// driver only — the sweep driver re-warms by re-simulating).
    pub data: Option<(Vec<SignalStats>, Vec<OverflowEvent>, u64)>,
}

impl CacheState {
    /// State for a cache-less or cold driver.
    pub fn cold() -> Self {
        CacheState {
            warm: false,
            dirty: Vec::new(),
            data: None,
        }
    }
}

/// A complete flow snapshot, written after each completed iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The next work item.
    pub cursor: Cursor,
    /// Completed MSB iterations.
    pub msb_done: usize,
    /// Completed LSB iterations.
    pub lsb_done: usize,
    /// Sequence number the *next* checkpoint will carry.
    pub next_sequence: usize,
    /// Journal index where the MSB phase began.
    pub msb_journal_start: usize,
    /// Journal index where the LSB phase began, once entered.
    pub lsb_journal_start: Option<usize>,
    /// Per-signal annotations (types, pinned ranges, injected sigmas).
    pub annotations: Vec<SignalAnnotation>,
    /// Names of signals auto-pinned after a range explosion, sorted.
    pub pinned_explosion: Vec<String>,
    /// Names of knowledge-based saturation choices, sorted.
    pub force_saturate: Vec<String>,
    /// Names of signals excluded from refinement, sorted.
    pub excluded: Vec<String>,
    /// Names of the feedback signals detected in the first MSB iteration,
    /// sorted.
    pub feedback: Vec<String>,
    /// Names of signals currently flagged troubled in the cursor's phase,
    /// sorted.
    pub troubled: Vec<String>,
    /// Final MSB analyses (present once the MSB phase converged).
    pub msb_final: Option<Vec<MsbAnalysis>>,
    /// Final LSB analyses (present only at the `Apply` cursor).
    pub lsb_final: Option<Vec<LsbAnalysis>>,
    /// Evaluation-cache state.
    pub cache: CacheState,
    /// The complete event journal at capture time.
    pub journal: Vec<Event>,
}

/// Why a checkpoint could not be written, read or applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem failure reading the checkpoint file.
    Io(String),
    /// The file did not parse as a version-1 checkpoint.
    Parse(String),
    /// The checkpoint references a signal the resuming design does not
    /// declare — the design was not built from the same description.
    Mismatch(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(m) => write!(f, "checkpoint I/O error: {m}"),
            CheckpointError::Parse(m) => write!(f, "checkpoint parse error: {m}"),
            CheckpointError::Mismatch(m) => write!(f, "checkpoint/design mismatch: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<JsonError> for CheckpointError {
    fn from(e: JsonError) -> Self {
        CheckpointError::Parse(e.to_string())
    }
}

// ---------------------------------------------------------------------------
// File store
// ---------------------------------------------------------------------------

impl Checkpoint {
    /// Atomically persists the checkpoint at `path`: the document is
    /// written to a `*.tmp` sibling, fsynced, and renamed over the
    /// destination. A crash at any point leaves either the previous
    /// complete checkpoint or the new complete checkpoint — never a
    /// truncated one. (A stray `*.tmp` from a crashed write is inert:
    /// readers only ever open the destination path.)
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on any filesystem failure; the
    /// destination is untouched in that case.
    pub fn write_atomic(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        let path = path.as_ref();
        let io = |e: std::io::Error| CheckpointError::Io(format!("{}: {e}", path.display()));
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let mut file = fs::File::create(&tmp).map_err(io)?;
        file.write_all(self.to_json().as_bytes()).map_err(io)?;
        file.sync_all().map_err(io)?;
        drop(file);
        fs::rename(&tmp, path).map_err(io)?;
        // Best-effort directory sync so the rename itself is durable;
        // not all filesystems support opening a directory for sync.
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Ok(d) = fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    /// Reads and decodes the checkpoint at `path`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the file cannot be read,
    /// [`CheckpointError::Parse`] when it is not a complete version-1
    /// document (e.g. a torn write from a non-atomic writer).
    pub fn read(path: impl AsRef<Path>) -> Result<Checkpoint, CheckpointError> {
        let path = path.as_ref();
        let text = fs::read_to_string(path)
            .map_err(|e| CheckpointError::Io(format!("{}: {e}", path.display())))?;
        Checkpoint::from_json(&text)
    }
}

/// A directory of named checkpoints with atomic persistence — the store
/// the job server keeps one checkpoint per job in. Names are sanitized
/// to a flat `<name>.ckpt` file each; saves go through
/// [`Checkpoint::write_atomic`].
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Opens (creating if needed) the store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, CheckpointError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)
            .map_err(|e| CheckpointError::Io(format!("{}: {e}", dir.display())))?;
        Ok(CheckpointStore { dir })
    }

    /// The file path a named checkpoint lives at. Path separators and
    /// other non-filename characters in `name` are flattened to `_` so a
    /// job id can never escape the store directory.
    pub fn path_of(&self, name: &str) -> PathBuf {
        let safe: String = name
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '.' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        self.dir.join(format!("{safe}.ckpt"))
    }

    /// Atomically saves `cp` under `name`.
    ///
    /// # Errors
    ///
    /// Same as [`Checkpoint::write_atomic`].
    pub fn save(&self, name: &str, cp: &Checkpoint) -> Result<(), CheckpointError> {
        cp.write_atomic(self.path_of(name))
    }

    /// Loads the checkpoint saved under `name`.
    ///
    /// # Errors
    ///
    /// Same as [`Checkpoint::read`].
    pub fn load(&self, name: &str) -> Result<Checkpoint, CheckpointError> {
        Checkpoint::read(self.path_of(name))
    }

    /// Whether a checkpoint is saved under `name`.
    pub fn contains(&self, name: &str) -> bool {
        self.path_of(name).is_file()
    }

    /// Removes the checkpoint saved under `name` (no-op when absent).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on a filesystem failure other than the
    /// file not existing.
    pub fn remove(&self, name: &str) -> Result<(), CheckpointError> {
        let path = self.path_of(name);
        match fs::remove_file(&path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(CheckpointError::Io(format!("{}: {e}", path.display()))),
        }
    }
}

// ---------------------------------------------------------------------------
// Wire form
// ---------------------------------------------------------------------------

impl Checkpoint {
    /// Serializes the checkpoint to its JSON document.
    pub fn to_json(&self) -> String {
        json::encode(self)
    }

    /// Parses a checkpoint document produced by [`Checkpoint::to_json`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Parse`] on malformed documents or unsupported
    /// versions.
    pub fn from_json(text: &str) -> Result<Checkpoint, CheckpointError> {
        let v = Json::parse(text)?;
        let version: u64 = json::member(&v, "version")?;
        if version != VERSION {
            return Err(CheckpointError::Parse(format!(
                "unsupported checkpoint version {version}"
            )));
        }
        Ok(Checkpoint::from_json_value(&v)?)
    }
}

fixref_obs::json_struct! {
    Checkpoint {
        write "version" = |_| VERSION,
        cursor,
        msb_done,
        lsb_done,
        next_sequence,
        msb_journal_start,
        lsb_journal_start,
        annotations,
        pinned_explosion,
        force_saturate,
        excluded,
        feedback,
        troubled,
        msb_final,
        lsb_final,
        cache,
        journal,
    }
}

fixref_obs::json_struct! {
    CacheState { warm, dirty, data as CacheData }
}

/// The warm cache's monitor snapshot, written as
/// `{"stats","overflow","cycles"}`.
struct CacheData;

impl JsonCodec<(Vec<SignalStats>, Vec<OverflowEvent>, u64)> for CacheData {
    fn write(value: &(Vec<SignalStats>, Vec<OverflowEvent>, u64), out: &mut String) {
        let (stats, overflow, cycles) = value;
        json::write_object(
            out,
            &[("stats", stats), ("overflow", overflow), ("cycles", cycles)],
        );
    }

    fn read(v: &Json) -> Result<(Vec<SignalStats>, Vec<OverflowEvent>, u64), JsonError> {
        json::expect_object(v)?;
        Ok((
            json::member(v, "stats")?,
            json::member(v, "overflow")?,
            json::member(v, "cycles")?,
        ))
    }
}

fixref_obs::json_struct! {
    MsbAnalysis {
        skip id = unbound_id(),
        name,
        accesses,
        stat as IntervalCodec,
        stat_msb,
        prop as IntervalCodec,
        prop_msb,
        exploded,
        decision,
        mode as TokenCodec,
        signedness as TokenCodec,
    }
}

fixref_obs::json_struct! {
    LsbAnalysis {
        skip id = unbound_id(),
        name,
        assigns,
        max_abs,
        mean,
        std,
        lsb,
        status,
        precision_loss,
        floor_mean_shift,
        rounding as TokenCodec,
    }
}

impl ToJson for LsbStatus {
    fn write_json(&self, out: &mut String) {
        self.token().write_json(out);
    }
}

impl FromJson for LsbStatus {
    fn from_json_value(v: &Json) -> Result<Self, JsonError> {
        use LsbStatus::{Diverged, Exact, NoData, Resolved};
        json::read_token(v, &[Resolved, Exact, Diverged, NoData], LsbStatus::token)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixref_fixed::{
        DType, ErrorStats, Interval, OverflowMode, RangeStats, RoundingMode, Signedness,
    };
    use fixref_obs::Phase;

    use crate::msb::MsbDecision;

    fn sample() -> Checkpoint {
        Checkpoint {
            cursor: Cursor::Msb { next: 2 },
            msb_done: 1,
            lsb_done: 0,
            next_sequence: 1,
            msb_journal_start: 3,
            lsb_journal_start: None,
            annotations: vec![SignalAnnotation {
                name: "b".into(),
                dtype: Some(
                    DType::new(
                        "T_b",
                        8,
                        6,
                        Signedness::TwosComplement,
                        OverflowMode::Saturate,
                        RoundingMode::Round,
                    )
                    .expect("valid"),
                ),
                range: Some(Interval { lo: -0.2, hi: 0.2 }),
                error_sigma: Some(1.5e-3),
            }],
            pinned_explosion: vec!["b".into()],
            force_saturate: vec![],
            excluded: vec![],
            feedback: vec!["b".into()],
            troubled: vec!["b".into(), "w".into()],
            msb_final: Some(vec![MsbAnalysis {
                id: unbound_id(),
                name: "b".into(),
                accesses: 1200,
                stat: Some(Interval {
                    lo: -0.19,
                    hi: 0.18,
                }),
                stat_msb: Some(-2),
                prop: Some(Interval::EMPTY),
                prop_msb: None,
                exploded: false,
                decision: MsbDecision::Saturate {
                    msb: -1,
                    guard: Interval { lo: -0.4, hi: 0.4 },
                    forced: true,
                },
                mode: OverflowMode::Saturate,
                signedness: Signedness::TwosComplement,
            }]),
            lsb_final: None,
            cache: CacheState {
                warm: true,
                dirty: vec!["b".into()],
                data: Some((
                    vec![SignalStats {
                        name: "b".into(),
                        stat: RangeStats::from_raw(-0.19, 0.18, 1200),
                        prop: Interval::UNBOUNDED,
                        consumed: ErrorStats::from_raw(1200, 1e-4, 2e-6, 8e-4),
                        produced: ErrorStats::from_raw(1200, -2e-5, 3e-6, 9e-4),
                        overflows: 2,
                        reads: 2400,
                        writes: 1200,
                        granularity: Some(-9),
                        non_dyadic: false,
                    }],
                    vec![OverflowEvent {
                        signal: unbound_id(),
                        name: "b".into(),
                        value: 1.25,
                        cycle: 77,
                    }],
                    1200,
                )),
            },
            journal: vec![
                Event::IterationStarted {
                    phase: Phase::Msb,
                    iteration: 1,
                },
                Event::CheckpointWritten {
                    sequence: 0,
                    phase: Phase::Msb,
                    iteration: 1,
                },
            ],
        }
    }

    #[test]
    fn version_is_checked() {
        let doc = sample()
            .to_json()
            .replacen("\"version\":1", "\"version\":9", 1);
        assert!(matches!(
            Checkpoint::from_json(&doc),
            Err(CheckpointError::Parse(_))
        ));
    }

    #[test]
    fn store_saves_atomically_and_sanitizes_names() {
        let dir = std::env::temp_dir().join("fixref_ckpt_store_test");
        let _ = fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).expect("store opens");
        let cp = sample();

        // Path traversal and separators flatten to plain filenames.
        let path = store.path_of("../evil/job 1");
        assert_eq!(path.parent(), Some(dir.as_path()));
        assert_eq!(
            path.file_name().and_then(|n| n.to_str()),
            Some(".._evil_job_1.ckpt")
        );

        assert!(!store.contains("j-1"));
        store.save("j-1", &cp).expect("saves");
        assert!(store.contains("j-1"));
        assert_eq!(store.load("j-1").expect("loads"), cp);
        // Overwrites replace the whole file, leaving no tmp sibling.
        store.save("j-1", &cp).expect("overwrites");
        let mut tmp = store.path_of("j-1").into_os_string();
        tmp.push(".tmp");
        assert!(!Path::new(&tmp).exists());

        store.remove("j-1").expect("removes");
        assert!(!store.contains("j-1"));
        store.remove("j-1").expect("idempotent remove");
        assert!(matches!(store.load("j-1"), Err(CheckpointError::Io(_))));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_files_are_a_parse_error_not_a_panic() {
        let dir = std::env::temp_dir().join("fixref_ckpt_torn_test");
        let _ = fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).expect("store opens");
        store.save("torn", &sample()).expect("saves");
        let path = store.path_of("torn");
        let text = fs::read_to_string(&path).expect("reads back");
        fs::write(&path, &text[..text.len() / 3]).expect("tears");
        assert!(matches!(store.load("torn"), Err(CheckpointError::Parse(_))));
        let _ = fs::remove_dir_all(&dir);
    }
}
