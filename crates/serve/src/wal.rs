//! The write-ahead jobs log.
//!
//! Every job transition the server must survive a crash through is
//! appended here — one JSON object per line, fsynced before the
//! transition takes effect — so a `kill -9` at any instant loses
//! nothing: on restart the log replays into the exact set of accepted,
//! in-flight and finished jobs. A torn final line (the artifact of a
//! crash mid-append) is dropped silently, because the transition it
//! described never committed; a torn line *before* the end is
//! corruption and surfaces as a structured error.

use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use fixref_core::JobSpec;
use fixref_sim::SpecError;

fixref_obs::json_enum! {
    tag = "wal", error = SpecError;

    /// One committed job transition.
    #[derive(Debug, Clone, PartialEq)]
    pub enum WalRecord {
        /// The job passed admission and owns queue space from here on.
        "accepted" => Accepted {
            /// Monotonic acceptance sequence (job ids are minted from it).
            seq: u64,
            /// Job id (`"j-<seq>"`).
            job: String,
            /// The full submitted spec — recovery re-runs from this, never
            /// from in-memory state. Boxed: acceptance records dwarf the
            /// other transitions.
            spec: Box<JobSpec>,
        },
        /// A worker picked the job up (attempt is 0-based).
        "started" => Started {
            /// Job id.
            job: String,
            /// 0-based attempt number.
            attempt: usize,
        },
        /// The job reached a terminal state and its result is on disk.
        "completed" => Completed {
            /// Job id.
            job: String,
            /// `"complete"`, `"partial"` or `"failed"`.
            status: String,
        },
        /// The job was cancelled before a worker picked it up.
        "cancelled" => Cancelled {
            /// Job id.
            job: String,
        },
    }
}

/// Append-only, fsynced jobs log.
#[derive(Debug)]
pub struct JobLog {
    path: PathBuf,
    file: File,
}

impl JobLog {
    /// Opens (creating if absent) the log at `path`.
    ///
    /// # Errors
    ///
    /// I/O errors opening the file.
    pub fn open(path: impl Into<PathBuf>) -> std::io::Result<Self> {
        let path = path.into();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(JobLog { path, file })
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record and fsyncs before returning — the transition
    /// is durable once this call succeeds.
    ///
    /// # Errors
    ///
    /// I/O errors writing or syncing; on error the record must be
    /// treated as NOT committed.
    pub fn append(&mut self, record: &WalRecord) -> std::io::Result<()> {
        let mut line = record.to_json();
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.file.sync_data()
    }

    /// Replays the log at `path` into its committed records. A torn
    /// final line is dropped (its transition never committed); returns
    /// how many bytes of tail were dropped that way. A missing file
    /// replays to an empty log.
    ///
    /// # Errors
    ///
    /// [`SpecError`] for corruption anywhere but the final line.
    pub fn replay(path: impl AsRef<Path>) -> Result<(Vec<WalRecord>, usize), SpecError> {
        let path = path.as_ref();
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
            Err(e) => return Err(SpecError::new(format!("{}: {e}", path.display()))),
        };
        let mut records = Vec::new();
        let mut dropped = 0;
        let lines: Vec<&str> = text.split_inclusive('\n').collect();
        for (i, raw) in lines.iter().enumerate() {
            let is_last = i + 1 == lines.len();
            let line = raw.trim_end_matches('\n');
            if line.is_empty() {
                continue;
            }
            let parsed = WalRecord::from_json(line)
                .map_err(|e| SpecError::new(format!("wal line {}: {}", i + 1, e.message)));
            match parsed {
                Ok(r) => records.push(r),
                // A torn append: the crash hit mid-write, so the
                // transition never committed. Only the final line may
                // be torn.
                Err(_) if is_last && !raw.ends_with('\n') => {
                    dropped = raw.len();
                }
                Err(e) => return Err(e),
            }
        }
        Ok((records, dropped))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!("fixref_wal_{name}.jsonl"));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn reopening_appends_and_never_truncates() {
        let path = tmp("reopen");
        let mut log = JobLog::open(&path).expect("opens");
        log.append(&WalRecord::Cancelled { job: "j-1".into() })
            .expect("appends");
        log.append(&WalRecord::Started {
            job: "j-2".into(),
            attempt: 0,
        })
        .expect("appends");
        drop(log);
        let mut log = JobLog::open(&path).expect("re-opens");
        log.append(&WalRecord::Cancelled { job: "j-3".into() })
            .expect("appends");
        let (back, dropped) = JobLog::replay(&path).expect("replays");
        assert_eq!(dropped, 0);
        let jobs: Vec<&str> = back
            .iter()
            .map(|r| match r {
                WalRecord::Accepted { job, .. }
                | WalRecord::Started { job, .. }
                | WalRecord::Completed { job, .. }
                | WalRecord::Cancelled { job } => job.as_str(),
            })
            .collect();
        assert_eq!(jobs, ["j-1", "j-2", "j-3"]);
    }

    #[test]
    fn torn_final_line_is_dropped_but_torn_middle_is_corruption() {
        let path = tmp("torn");
        let mut log = JobLog::open(&path).expect("opens");
        log.append(&WalRecord::Cancelled { job: "j-1".into() })
            .expect("appends");
        drop(log);
        // Simulate a crash mid-append: a half-written record with no
        // trailing newline.
        let mut text = std::fs::read_to_string(&path).expect("read");
        text.push_str(r#"{"wal":"accepted","seq":2,"job":"j-2""#);
        std::fs::write(&path, &text).expect("write");
        let (records, dropped) = JobLog::replay(&path).expect("torn tail tolerated");
        assert_eq!(records.len(), 1);
        assert!(dropped > 0);

        // The same garbage mid-file (newline-terminated, records after
        // it) is corruption, not a torn append.
        let mut text = std::fs::read_to_string(&path).expect("read");
        text.push('\n');
        text.push_str(r#"{"wal":"cancelled","job":"j-3"}"#);
        text.push('\n');
        std::fs::write(&path, &text).expect("write");
        assert!(JobLog::replay(&path).is_err());
    }

    #[test]
    fn missing_log_replays_empty() {
        let (records, dropped) = JobLog::replay(tmp("missing")).expect("empty");
        assert!(records.is_empty());
        assert_eq!(dropped, 0);
    }
}
