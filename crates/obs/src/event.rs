//! The structured event taxonomy of the refinement flow.
//!
//! Every noteworthy occurrence during simulation and refinement — an
//! overflow, a range-propagation explosion, an automatic `range()` or
//! `error()` intervention, a signal resolving, a phase converging — is an
//! [`Event`]. Events are plain data: the journal they accumulate in can be
//! queried in-process (replacing ad-hoc bookkeeping vectors) and exported
//! as JSON Lines for external tooling.

use crate::json::{self, FromJson, Json, JsonError, ToJson};
use std::fmt;

/// Which refinement phase an event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Integer-wordlength (range) refinement, paper §5.1.
    Msb,
    /// Fractional-wordlength (precision) refinement, paper §5.2.
    Lsb,
}

impl Phase {
    /// The lowercase wire name (`"msb"` / `"lsb"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Msb => "msb",
            Phase::Lsb => "lsb",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl ToJson for Phase {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl FromJson for Phase {
    fn from_json_value(v: &Json) -> Result<Self, JsonError> {
        json::read_token(v, &[Phase::Msb, Phase::Lsb], |p| p.as_str())
    }
}

crate::json_enum! {
    tag = "event", error = JsonError;

    /// One structured occurrence in the instrumented flow.
    ///
    /// The taxonomy follows the refinement loop of paper Fig. 4: simulation
    /// monitors raise [`Event::OverflowDetected`]; per-iteration analysis
    /// raises [`Event::IntervalExploded`] and [`Event::SignalResolved`];
    /// automatic interventions raise [`Event::AutoRange`] /
    /// [`Event::AutoError`]; phase ends raise [`Event::PhaseConverged`] or
    /// [`Event::PhaseFailed`]; type application raises [`Event::TypeApplied`];
    /// the final check raises [`Event::VerifyCompleted`].
    #[derive(Debug, Clone, PartialEq)]
    pub enum Event {
        /// A value did not fit a signal's type during simulation.
        "overflow_detected" => OverflowDetected {
            /// The overflowing signal.
            signal: String,
            /// The unquantized value that did not fit.
            value: f64,
            /// The clock cycle at which it happened.
            cycle: u64,
        },
        /// One refinement iteration began (spans carry its timing; this event
        /// anchors the journal's ordering).
        "iteration_started" => IterationStarted {
            /// The phase iterating.
            phase: Phase,
            /// 1-based iteration number.
            iteration: usize,
        },
        /// A signal's propagated range exploded (unbounded or past the
        /// explosion threshold) in an MSB iteration.
        "interval_exploded" => IntervalExploded {
            /// The exploded signal.
            signal: String,
            /// 1-based iteration in which the explosion was observed.
            iteration: usize,
        },
        /// The flow pinned `range(lo, hi)` on a feedback signal — the
        /// automatic equivalent of the paper's manual `b.range(-0.2, 0.2)`.
        "auto_range" => AutoRange {
            /// The annotated signal.
            signal: String,
            /// Lower pinned bound.
            lo: f64,
            /// Upper pinned bound.
            hi: f64,
            /// 1-based MSB iteration that inserted it.
            iteration: usize,
        },
        /// The flow injected `error(σ)` on an LSB-divergent feedback signal.
        "auto_error" => AutoError {
            /// The annotated signal.
            signal: String,
            /// Injected error standard deviation.
            sigma: f64,
            /// 1-based LSB iteration that inserted it.
            iteration: usize,
        },
        /// A signal that was exploded (MSB) or divergent (LSB) in an earlier
        /// iteration is now resolved.
        "signal_resolved" => SignalResolved {
            /// The resolved signal.
            signal: String,
            /// The phase it resolved in.
            phase: Phase,
            /// 1-based iteration in which it resolved.
            iteration: usize,
        },
        /// A phase finished with every refinable signal resolved.
        "phase_converged" => PhaseConverged {
            /// The converged phase.
            phase: Phase,
            /// Iterations it took.
            iterations: usize,
        },
        /// A phase exhausted its iteration budget.
        "phase_failed" => PhaseFailed {
            /// The failed phase.
            phase: Phase,
            /// Iterations spent.
            iterations: usize,
            /// Comma-joined names of the signals still unresolved.
            unresolved: String,
        },
        /// A decided type was applied to a signal.
        "type_applied" => TypeApplied {
            /// The typed signal.
            signal: String,
            /// The decided type, in `<n,f,…>` display form.
            dtype: String,
        },
        /// The final verification run completed.
        "verify_completed" => VerifyCompleted {
            /// Overflows on wrap/error-mode types (failures).
            overflows: u64,
            /// Excursions absorbed by saturating types (informational).
            saturation_events: u64,
        },
        /// A scenario shard of a parallel sweep began merging into the master
        /// journal. Shard journals are concatenated in shard (scenario) order,
        /// bracketed by this event and [`Event::ShardMerged`].
        "shard_started" => ShardStarted {
            /// 0-based scenario index of the shard.
            shard: usize,
            /// Stimulus seed the shard simulated with.
            seed: u64,
            /// Stimulus SNR of the shard (dB).
            snr_db: f64,
            /// Samples the shard simulated.
            samples: usize,
        },
        /// A scenario shard's statistics finished merging into the master
        /// design.
        "shard_merged" => ShardMerged {
            /// 0-based scenario index of the shard.
            shard: usize,
            /// Simulation cycles the shard ran.
            cycles: u64,
            /// Signals whose monitors were merged.
            signals: usize,
        },
        /// An incremental evaluation cache was invalidated: annotation
        /// changes dirtied part (or all) of the design, so the next run
        /// cannot be replayed wholesale from cached monitors.
        "cache_invalidated" => CacheInvalidated {
            /// What invalidated the cache (e.g. `"annotations"`,
            /// `"error_sigma"`).
            reason: String,
            /// Number of signals marked dirty by the invalidation.
            dirty: usize,
        },
        /// A zero-spanning division's unbounded quotient was clamped to the
        /// dividend's declared type bound during analytical range
        /// propagation, instead of silently poisoning downstream ranges.
        "range_clamped" => RangeClamped {
            /// The signal whose defining division was clamped.
            signal: String,
            /// Lower clamped bound.
            lo: f64,
            /// Upper clamped bound.
            hi: f64,
        },
        /// A signal's analytical range was widened to unbounded after
        /// exceeding the growth-pass budget on a feedback path — the "MSB
        /// explosion" the paper warns about, journaled instead of silently
        /// railing to `Interval::UNBOUNDED`.
        "range_exploded" => RangeExploded {
            /// The signal whose range exploded.
            signal: String,
            /// Growing passes observed before the analysis gave up.
            passes: usize,
        },
        /// One static-lint finding (pre-flight diagnostics over the recorded
        /// signal-flow graph).
        "lint_diagnostic" => LintDiagnostic {
            /// The stable diagnostic code (`"FXL001"`, …).
            code: String,
            /// Severity wire form (`"info"` / `"warning"` / `"error"`).
            severity: String,
            /// The signal the finding is anchored to.
            signal: String,
            /// Human-readable explanation.
            message: String,
        },
        /// A lint run over the design finished.
        "lint_completed" => LintCompleted {
            /// Error-severity findings.
            errors: usize,
            /// Warning-severity findings.
            warnings: usize,
            /// Info-severity findings.
            infos: usize,
        },
        /// A lint-backed gate rejected something: the pre-flight flow gate
        /// hit a denied code.
        "lint_gate_failed" => LintGateFailed {
            /// Which gate failed (`"flow.preflight"`).
            context: String,
            /// The diagnostic code that triggered the failure.
            code: String,
            /// Number of findings with that code.
            findings: usize,
        },
        /// A formal verification run (bounded model check of one lint
        /// finding) started.
        "verify_started" => VerifyStarted {
            /// Diagnostic code under check (`"FXL002"`, …).
            code: String,
            /// Anchor signal of the property being checked.
            signal: String,
            /// Number of state-holding registers in the extracted model.
            registers: usize,
        },
        /// The checker proved the property: the reachable state space closed
        /// with no bad state, discharging the diagnostic.
        "verify_proved" => VerifyProved {
            /// Diagnostic code discharged.
            code: String,
            /// Anchor signal of the property.
            signal: String,
            /// Distinct states in the closed reachable set.
            states: usize,
            /// Exploration depth (ticks) at closure.
            depth: usize,
        },
        /// The checker found a concrete input sequence driving the design
        /// into the hazard the diagnostic warned about.
        "verify_counterexample" => VerifyCounterexample {
            /// Diagnostic code refuted.
            code: String,
            /// Anchor signal of the property.
            signal: String,
            /// Length of the witness stimulus in ticks.
            steps: usize,
        },
        /// The checker gave up without a verdict: state space or input
        /// alphabet exceeded its bounds, or the model was not finite-state.
        "verify_bound_exhausted" => VerifyBoundExhausted {
            /// Diagnostic code left undecided.
            code: String,
            /// Anchor signal of the property.
            signal: String,
            /// Why the check was inconclusive (`"state_too_large"`, …).
            reason: String,
            /// States explored before giving up.
            states: usize,
        },
        /// A scenario shard failed — panicked or lost its result — after
        /// every permitted attempt. Under a `Strict` fault policy the sweep
        /// aborts here; under `Degraded` the surviving shards are merged and
        /// coverage drops.
        "shard_failed" => ShardFailed {
            /// 0-based scenario index of the failed shard.
            shard: usize,
            /// The scenario label (`Scenario::label`).
            scenario: String,
            /// Attempts made before giving up.
            attempts: usize,
            /// The captured panic message or failure cause.
            cause: String,
        },
        /// A failed shard attempt was retried with the same scenario (same
        /// seed, so a retry that succeeds is bit-identical to a fault-free
        /// run).
        "shard_retried" => ShardRetried {
            /// 0-based scenario index of the retried shard.
            shard: usize,
            /// 0-based attempt number being started (1 = first retry).
            attempt: usize,
        },
        /// A scenario that exhausted its retry budget was quarantined: the
        /// sweep stops re-simulating it and reports reduced coverage instead.
        "shard_quarantined" => ShardQuarantined {
            /// 0-based scenario index of the quarantined shard.
            shard: usize,
            /// The scenario label (`Scenario::label`).
            scenario: String,
        },
        /// Flow state was checkpointed to the journal-backed checkpoint file.
        "checkpoint_written" => CheckpointWritten {
            /// 0-based checkpoint sequence number (monotonic per flow).
            sequence: usize,
            /// The phase whose iteration just completed.
            phase: Phase,
            /// The 1-based iteration just completed.
            iteration: usize,
        },
        /// A checkpoint write failed (I/O error or injected fault). The flow
        /// continues; the previous checkpoint on disk stays authoritative.
        "checkpoint_failed" => CheckpointFailed {
            /// Sequence number of the failed write.
            sequence: usize,
            /// The failure cause.
            cause: String,
        },
        /// A flow was reconstructed from a checkpoint file; the restored
        /// journal follows this event.
        "resumed_from_checkpoint" => ResumedFromCheckpoint {
            /// Sequence number of the checkpoint resumed from.
            sequence: usize,
            /// The phase the flow will resume in.
            phase: Phase,
            /// The 1-based iteration the flow will resume at.
            iteration: usize,
            /// Number of journal events restored from the checkpoint.
            events: usize,
        },
        /// A wall-clock or simulation-count budget ran out; the flow returns
        /// its best-so-far annotations marked `Partial` instead of erroring.
        "budget_exhausted" => BudgetExhausted {
            /// The phase that was running when the budget ran out.
            phase: Phase,
            /// Simulations completed so far across the run.
            simulations: u64,
            /// Which budget ran out and where (human-readable).
            reason: String,
        },
        /// A design's captured execution trace was lowered to a straight-line
        /// bytecode program, enabling compiled re-simulation.
        "backend_compiled" => BackendCompiled {
            /// The backend that compiled (`"compiled"`).
            backend: String,
            /// Deduplicated cycle kinds in the program.
            kinds: usize,
            /// Total bytecode instructions across all kinds.
            instructions: usize,
            /// Scheduled simulation cycles per replay.
            cycles: u64,
        },
        /// A compiled backend request fell back to the interpreted
        /// simulator — the static-schedule lint refused the design, lowering
        /// failed, or the run mode (armed fault plan, checkpoint resume) is
        /// only supported interpreted. The run proceeds with identical
        /// results, just without the speedup.
        "backend_fallback" => BackendFallback {
            /// The backend that was requested (`"compiled"`).
            backend: String,
            /// Why the fallback happened (e.g. `"FXL001"`).
            reason: String,
        },
        /// The job server admitted a submitted job into its bounded queue
        /// and journaled it to the write-ahead jobs log.
        "job_accepted" => JobAccepted {
            /// The server-assigned job id (stable across restarts).
            job: String,
            /// The submitting tenant.
            tenant: String,
            /// Queue depth *after* admission.
            queue_depth: usize,
        },
        /// Admission control refused a submitted job (full queue, oversized
        /// spec, unknown design kind). The job is never enqueued or journaled
        /// as accepted; the submitter gets the reason back.
        "job_rejected" => JobRejected {
            /// The submitting tenant.
            tenant: String,
            /// Why admission refused the job (`"queue full (cap 64)"`, …).
            reason: String,
        },
        /// A worker picked a queued job and began (or resumed) its flow.
        "job_started" => JobStarted {
            /// The job id.
            job: String,
            /// The submitting tenant.
            tenant: String,
            /// 1-based attempt number (1 = first execution).
            attempt: usize,
        },
        /// A failed job was rescheduled after its deterministic backoff.
        "job_retried" => JobRetried {
            /// The job id.
            job: String,
            /// 1-based attempt number being scheduled next.
            attempt: usize,
            /// The jittered backoff delay that preceded the retry, in ms.
            backoff_ms: u64,
        },
        /// A restarted server found the job accepted-but-unfinished in the
        /// write-ahead log and requeued it, resuming from its last
        /// checkpoint when one exists.
        "job_recovered" => JobRecovered {
            /// The job id.
            job: String,
            /// The submitting tenant.
            tenant: String,
            /// Whether a usable checkpoint file was found to resume from
            /// (`false` means the job restarts from scratch — still
            /// bit-identical, just without the saved progress).
            from_checkpoint: bool,
        },
        /// A job reached a terminal state: `"complete"`, `"partial"` (budget
        /// exhausted or cancelled) or `"failed"` (error after all retries).
        "job_completed" => JobCompleted {
            /// The job id.
            job: String,
            /// Terminal status wire tag.
            status: String,
            /// Total execution attempts consumed.
            attempts: usize,
        },
    }
}

impl fmt::Display for Event {
    /// Human-readable one-liner (the journal's text rendering).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::OverflowDetected {
                signal,
                value,
                cycle,
            } => write!(f, "overflow on {signal}: value {value} at cycle {cycle}"),
            Event::IterationStarted { phase, iteration } => {
                write!(f, "{phase} iteration {iteration} started")
            }
            Event::IntervalExploded { signal, iteration } => {
                write!(f, "iter {iteration}: interval of {signal} exploded")
            }
            Event::AutoRange {
                signal,
                lo,
                hi,
                iteration,
            } => write!(f, "iter {iteration}: {signal}.range({lo}, {hi})"),
            Event::AutoError {
                signal,
                sigma,
                iteration,
            } => write!(f, "iter {iteration}: {signal}.error(sigma={sigma:.3e})"),
            Event::SignalResolved {
                signal,
                phase,
                iteration,
            } => write!(f, "iter {iteration}: {signal} resolved ({phase})"),
            Event::PhaseConverged { phase, iterations } => {
                write!(f, "{phase} phase converged after {iterations} iteration(s)")
            }
            Event::PhaseFailed {
                phase,
                iterations,
                unresolved,
            } => write!(
                f,
                "{phase} phase failed after {iterations} iteration(s): {unresolved}"
            ),
            Event::TypeApplied { signal, dtype } => write!(f, "{signal} := {dtype}"),
            Event::VerifyCompleted {
                overflows,
                saturation_events,
            } => write!(
                f,
                "verification: {overflows} overflows, {saturation_events} saturation events"
            ),
            Event::ShardStarted {
                shard,
                seed,
                snr_db,
                samples,
            } => write!(
                f,
                "shard {shard}: seed {seed}, {snr_db} dB, {samples} samples"
            ),
            Event::ShardMerged {
                shard,
                cycles,
                signals,
            } => write!(
                f,
                "shard {shard}: merged {signals} signals, {cycles} cycles"
            ),
            Event::CacheInvalidated { reason, dirty } => {
                write!(
                    f,
                    "eval cache invalidated ({reason}): {dirty} signal(s) dirty"
                )
            }
            Event::RangeClamped { signal, lo, hi } => {
                write!(f, "division range of {signal} clamped to [{lo}, {hi}]")
            }
            Event::RangeExploded { signal, passes } => {
                write!(
                    f,
                    "analytical range of {signal} exploded after {passes} growing pass(es)"
                )
            }
            Event::LintDiagnostic {
                code,
                severity,
                signal,
                message,
            } => write!(f, "{code} {severity} {signal}: {message}"),
            Event::LintCompleted {
                errors,
                warnings,
                infos,
            } => write!(
                f,
                "lint: {errors} error(s), {warnings} warning(s), {infos} info(s)"
            ),
            Event::LintGateFailed {
                context,
                code,
                findings,
            } => write!(
                f,
                "lint gate {context} failed: {findings} {code} finding(s)"
            ),
            Event::VerifyStarted {
                code,
                signal,
                registers,
            } => write!(
                f,
                "verifying {code} at {signal}: {registers} register(s) of state"
            ),
            Event::VerifyProved {
                code,
                signal,
                states,
                depth,
            } => write!(
                f,
                "{code} at {signal} proved safe: {states} reachable state(s) closed at depth {depth}"
            ),
            Event::VerifyCounterexample {
                code,
                signal,
                steps,
            } => write!(
                f,
                "{code} at {signal} refuted: counterexample in {steps} tick(s)"
            ),
            Event::VerifyBoundExhausted {
                code,
                signal,
                reason,
                states,
            } => write!(
                f,
                "{code} at {signal} undecided ({reason}) after {states} state(s)"
            ),
            Event::ShardFailed {
                shard,
                scenario,
                attempts,
                cause,
            } => write!(
                f,
                "shard {shard} ({scenario}) failed after {attempts} attempt(s): {cause}"
            ),
            Event::ShardRetried { shard, attempt } => {
                write!(f, "shard {shard}: retry attempt {attempt}")
            }
            Event::ShardQuarantined { shard, scenario } => {
                write!(f, "shard {shard} ({scenario}) quarantined")
            }
            Event::CheckpointWritten {
                sequence,
                phase,
                iteration,
            } => write!(
                f,
                "checkpoint {sequence} written after {phase} iteration {iteration}"
            ),
            Event::CheckpointFailed { sequence, cause } => {
                write!(f, "checkpoint {sequence} write failed: {cause}")
            }
            Event::ResumedFromCheckpoint {
                sequence,
                phase,
                iteration,
                events,
            } => write!(
                f,
                "resumed from checkpoint {sequence} at {phase} iteration {iteration} ({events} events restored)"
            ),
            Event::BudgetExhausted {
                phase,
                simulations,
                reason,
            } => write!(
                f,
                "budget exhausted in {phase} phase after {simulations} simulation(s): {reason}"
            ),
            Event::BackendCompiled {
                backend,
                kinds,
                instructions,
                cycles,
            } => write!(
                f,
                "{backend} backend compiled: {kinds} cycle kind(s), {instructions} instruction(s), {cycles} cycles"
            ),
            Event::BackendFallback { backend, reason } => {
                write!(f, "{backend} backend fell back to interpreted: {reason}")
            }
            Event::JobAccepted {
                job,
                tenant,
                queue_depth,
            } => write!(
                f,
                "job {job} accepted from {tenant} (queue depth {queue_depth})"
            ),
            Event::JobRejected { tenant, reason } => {
                write!(f, "job from {tenant} rejected: {reason}")
            }
            Event::JobStarted {
                job,
                tenant,
                attempt,
            } => write!(f, "job {job} ({tenant}) started, attempt {attempt}"),
            Event::JobRetried {
                job,
                attempt,
                backoff_ms,
            } => write!(
                f,
                "job {job} retrying as attempt {attempt} after {backoff_ms} ms backoff"
            ),
            Event::JobRecovered {
                job,
                tenant,
                from_checkpoint,
            } => write!(
                f,
                "job {job} ({tenant}) recovered from the jobs log{}",
                if *from_checkpoint {
                    ", resuming from checkpoint"
                } else {
                    ", restarting from scratch"
                }
            ),
            Event::JobCompleted {
                job,
                status,
                attempts,
            } => write!(f, "job {job} completed {status} after {attempts} attempt(s)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_tags_and_missing_members_are_rejected() {
        assert!(Event::from_json(r#"{"event":"nope"}"#).is_err());
        assert!(Event::from_json(r#"{"event":"auto_range","signal":"b"}"#).is_err());
        assert!(Event::from_json("not json").is_err());
    }

    #[test]
    fn display_is_compact_and_named() {
        let e = Event::AutoRange {
            signal: "b".into(),
            lo: -0.2,
            hi: 0.2,
            iteration: 1,
        };
        assert_eq!(e.to_string(), "iter 1: b.range(-0.2, 0.2)");
    }
}
