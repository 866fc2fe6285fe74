//! Job lifecycle types: states, status snapshots and persisted results.

use fixref_obs::json::{self, FromJson, Json, JsonError, ToJson};
use fixref_obs::Event;
use fixref_sim::{SignalAnnotation, SpecError};

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted and waiting for a worker.
    Queued,
    /// A worker is running it.
    Running,
    /// Terminal: the flow finished (see the result's `status` for
    /// complete vs. partial vs. failed).
    Finished,
    /// Terminal: cancelled before a worker picked it up.
    Cancelled,
}

impl JobState {
    /// Lower-case wire name.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Finished => "finished",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Whether the job can never run again.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Finished | JobState::Cancelled)
    }
}

impl ToJson for JobState {
    fn write_json(&self, out: &mut String) {
        self.name().write_json(out);
    }
}

impl FromJson for JobState {
    fn from_json_value(v: &Json) -> Result<Self, JsonError> {
        use JobState::{Cancelled, Finished, Queued, Running};
        json::read_token(v, &[Queued, Running, Finished, Cancelled], |s| s.name())
    }
}

/// A point-in-time status snapshot for the status API.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatus {
    /// Job id.
    pub job: String,
    /// Owning tenant.
    pub tenant: String,
    /// Lifecycle state.
    pub state: JobState,
    /// Attempts started so far (0 while queued).
    pub attempts: usize,
    /// Terminal flow status (`"complete"` / `"partial"` / `"failed"`),
    /// once finished.
    pub status: Option<String>,
    /// Partial/failure reason, if any.
    pub reason: Option<String>,
}

fixref_obs::json_struct! {
    JobStatus: SpecError { job, tenant, state, attempts, status, reason }
}

/// Deterministic one-line rendering of a final signal annotation, used
/// for bit-identity comparison of served vs. direct runs.
pub fn render_annotation(a: &SignalAnnotation) -> String {
    let dtype = a
        .dtype
        .as_ref()
        .map_or("-".to_string(), std::string::ToString::to_string);
    let range = a.range.map_or("-".to_string(), |r| {
        format!("[{},{}]", json::encode(&r.lo), json::encode(&r.hi))
    });
    let sigma = a.error_sigma.map_or("-".to_string(), |s| json::encode(&s));
    format!("{} dtype={dtype} range={range} sigma={sigma}", a.name)
}

/// The persisted outcome of one finished job (`results/<job>.json`).
///
/// Carries everything the bit-identity contract is judged by: the
/// decided types, the design's final annotations and the flow's full
/// event journal — so a job finished before a crash is comparable
/// after restart without re-running.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Job id.
    pub job: String,
    /// Owning tenant.
    pub tenant: String,
    /// `"complete"`, `"partial"` or `"failed"`.
    pub status: String,
    /// Partial/failure reason, if any.
    pub reason: Option<String>,
    /// Attempts consumed (1 = first try succeeded).
    pub attempts: usize,
    /// MSB iterations of the final (successful) attempt.
    pub msb_iterations: usize,
    /// LSB iterations of the final attempt.
    pub lsb_iterations: usize,
    /// Sweep coverage summary, for swept jobs.
    pub coverage: Option<String>,
    /// Decided types by signal name, sorted by name.
    pub types: Vec<(String, String)>,
    /// Final design annotations, rendered via [`render_annotation`].
    pub annotations: Vec<String>,
    /// The flow's event journal.
    pub journal: Vec<Event>,
}

fixref_obs::json_struct! {
    JobResult: SpecError {
        job,
        tenant,
        status,
        reason,
        attempts,
        msb_iterations,
        lsb_iterations,
        coverage,
        types,
        annotations,
        journal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_names_and_terminality() {
        assert_eq!(JobState::Queued.name(), "queued");
        assert!(!JobState::Running.is_terminal());
        assert!(JobState::Finished.is_terminal());
        assert!(JobState::Cancelled.is_terminal());
    }
}
