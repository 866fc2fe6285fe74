//! Pinned wire format of every persisted or served JSON document.
//!
//! Each fixture under `tests/golden/wire/` holds the exact bytes the
//! encoders produce for one value: the journal (all 37 event variants as
//! JSON Lines), a flow checkpoint, the write-ahead jobs log, a job
//! result, a job status and a metrics report. Two properties are checked
//! per document:
//!
//! - `encode(value) == fixture`: the encoder still writes the pinned
//!   bytes, member order and number spelling included;
//! - `encode(decode(fixture)) == fixture`: the decoder reads every member
//!   back, so re-encoding is byte-stable.
//!
//! The job status has no decoder in the public API it was pinned
//! against, so only its encoding is checked.

use std::path::{Path, PathBuf};

use fixref::obs::SpanRecord;
use fixref::obs::{parse_journal, to_jsonl, Event, HistogramSummary, MetricsReport, Phase};
use fixref::refine::{Checkpoint, FlowSpec, JobSpec, RefinePolicy, RefinementFlow};
use fixref::serve::{JobLog, JobResult, JobState, JobStatus, WalRecord};
use fixref::sim::{Design, DesignSpec, Scenario, ScenarioSet};
use fixref_bench::{lms_paper_scenario, lms_shard_builder, paper_input_type};
use fixref_dsp::LmsConfig;

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/wire")
        .join(name)
}

fn fixture(name: &str) -> String {
    let path = fixture_path(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Asserts byte equality, reporting the first differing offset.
fn assert_bytes(what: &str, actual: &str, expected: &str) {
    if actual == expected {
        return;
    }
    let at = actual
        .bytes()
        .zip(expected.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(actual.len().min(expected.len()));
    let lo = at.saturating_sub(40);
    panic!(
        "{what}: bytes differ at offset {at} (lengths {} vs {})\n  actual:   {:?}\n  expected: {:?}",
        actual.len(),
        expected.len(),
        &actual[lo..(at + 40).min(actual.len())],
        &expected[lo..(at + 40).min(expected.len())],
    );
}

fn tmp(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("fixref_wire_{name}"));
    let _ = std::fs::remove_file(&path);
    path
}

const NASTY: &str = "q\"uote b\\ack\nnl\ttab\r\u{1}ctl µ§";

/// One instance of every event variant, with escapes and non-finite
/// payloads.
fn sample_journal() -> Vec<Event> {
    vec![
        Event::OverflowDetected {
            signal: NASTY.into(),
            value: f64::NEG_INFINITY,
            cycle: 17,
        },
        Event::IterationStarted {
            phase: Phase::Msb,
            iteration: 1,
        },
        Event::IntervalExploded {
            signal: "w".into(),
            iteration: 1,
        },
        Event::AutoRange {
            signal: "b".into(),
            lo: -0.355,
            hi: 0.189,
            iteration: 1,
        },
        Event::AutoError {
            signal: "nco".into(),
            sigma: 2.26e-4,
            iteration: 1,
        },
        Event::SignalResolved {
            signal: "w".into(),
            phase: Phase::Lsb,
            iteration: 2,
        },
        Event::PhaseConverged {
            phase: Phase::Lsb,
            iterations: 2,
        },
        Event::PhaseFailed {
            phase: Phase::Msb,
            iterations: 8,
            unresolved: "a, b".into(),
        },
        Event::TypeApplied {
            signal: "y\"q\\".into(),
            dtype: "<8,6,tc,st,rd>".into(),
        },
        Event::VerifyCompleted {
            overflows: 0,
            saturation_events: 12,
        },
        Event::ShardStarted {
            shard: 3,
            seed: 0xDA7E_1999,
            snr_db: f64::INFINITY,
            samples: 4000,
        },
        Event::ShardMerged {
            shard: 3,
            cycles: 4000,
            signals: 14,
        },
        Event::CacheInvalidated {
            reason: "error_sigma".into(),
            dirty: 14,
        },
        Event::RangeClamped {
            signal: "q".into(),
            lo: -8.0,
            hi: 7.9375,
        },
        Event::RangeExploded {
            signal: "acc".into(),
            passes: 64,
        },
        Event::LintDiagnostic {
            code: "FXL001".into(),
            severity: "error".into(),
            signal: "mu".into(),
            message: NASTY.into(),
        },
        Event::LintCompleted {
            errors: 1,
            warnings: 4,
            infos: 2,
        },
        Event::LintGateFailed {
            context: "flow.preflight".into(),
            code: "FXL001".into(),
            findings: 3,
        },
        Event::VerifyStarted {
            code: "FXL002".into(),
            signal: "b".into(),
            registers: 2,
        },
        Event::VerifyProved {
            code: "FXL002".into(),
            signal: "b".into(),
            states: 1024,
            depth: 9,
        },
        Event::VerifyCounterexample {
            code: "FXL004".into(),
            signal: "y1".into(),
            steps: 6,
        },
        Event::VerifyBoundExhausted {
            code: "FXL002".into(),
            signal: "phase".into(),
            reason: "state_too_large".into(),
            states: 0,
        },
        Event::ShardFailed {
            shard: 1,
            scenario: "s1 seed=8 snr=24dB n=1200".into(),
            attempts: 2,
            cause: "panicked: \"quoted\" cause\nsecond line".into(),
        },
        Event::ShardRetried {
            shard: 1,
            attempt: 1,
        },
        Event::ShardQuarantined {
            shard: 1,
            scenario: "s1 seed=8 snr=24dB n=1200".into(),
        },
        Event::CheckpointWritten {
            sequence: 0,
            phase: Phase::Msb,
            iteration: 1,
        },
        Event::CheckpointFailed {
            sequence: 1,
            cause: "injected checkpoint-write fault".into(),
        },
        Event::ResumedFromCheckpoint {
            sequence: 1,
            phase: Phase::Lsb,
            iteration: 1,
            events: 42,
        },
        Event::BudgetExhausted {
            phase: Phase::Msb,
            simulations: 2,
            reason: "simulation budget of 2 exhausted".into(),
        },
        Event::BackendCompiled {
            backend: "compiled".into(),
            kinds: 3,
            instructions: 412,
            cycles: 4000,
        },
        Event::BackendFallback {
            backend: "compiled".into(),
            reason: "FXL001".into(),
        },
        Event::JobAccepted {
            job: "j-0003".into(),
            tenant: "acme".into(),
            queue_depth: 5,
        },
        Event::JobRejected {
            tenant: "acme".into(),
            reason: "queue full (cap 8)".into(),
        },
        Event::JobStarted {
            job: "j-0003".into(),
            tenant: "acme".into(),
            attempt: 1,
        },
        Event::JobRetried {
            job: "j-0003".into(),
            attempt: 2,
            backoff_ms: 37,
        },
        Event::JobRecovered {
            job: "j-0003".into(),
            tenant: "acme".into(),
            from_checkpoint: true,
        },
        Event::JobCompleted {
            job: "j-0003".into(),
            status: "partial".into(),
            attempts: 2,
        },
    ]
}

#[test]
fn journal_jsonl_is_pinned() {
    let events = sample_journal();
    let kinds: std::collections::BTreeSet<&str> = events.iter().map(Event::kind).collect();
    assert_eq!(kinds.len(), 37, "one instance of every variant");
    let expected = fixture("journal.jsonl");
    assert_bytes("encode(journal)", &to_jsonl(&events), &expected);
    let back = parse_journal(&expected).expect("fixture parses");
    assert_eq!(back, events);
    assert_bytes("encode(decode(journal))", &to_jsonl(&back), &expected);
}

#[test]
fn final_lms_checkpoint_is_pinned() {
    let set = lms_paper_scenario(400);
    let shard = lms_shard_builder(LmsConfig {
        input_dtype: Some(paper_input_type()),
        ..LmsConfig::default()
    })(&set.as_slice()[0]);
    let mut stimulus = shard.stimulus;
    let mut flow = RefinementFlow::new(shard.design, RefinePolicy::default());
    flow.enable_cache();
    let path = tmp("checkpoint.json");
    flow.checkpoint_to(path.clone());
    flow.run(move |d: &Design, i: usize| stimulus(d, i))
        .expect("flow converges");

    let written = std::fs::read_to_string(&path).expect("final checkpoint on disk");
    let expected = fixture("checkpoint.json");
    assert_bytes("encode(checkpoint)", &written, &expected);
    let back = Checkpoint::from_json(&expected).expect("fixture parses");
    assert!(
        back.cache.data.is_some(),
        "the cache snapshot is pinned too"
    );
    assert_bytes("encode(decode(checkpoint))", &back.to_json(), &expected);
}

fn wal_records() -> Vec<WalRecord> {
    let scenarios = ScenarioSet::from_scenarios(vec![
        Scenario {
            index: 0,
            seed: 7,
            snr_db: 28.5,
            channel_taps: vec![0.9, -0.125, 1e-3],
            samples: 400,
            stimulus: Vec::new(),
        },
        Scenario {
            index: 1,
            seed: 11,
            snr_db: f64::INFINITY,
            channel_taps: Vec::new(),
            samples: 3,
            stimulus: vec![
                ("x".into(), vec![0.5, -1.0, 0.25]),
                ("g\"ain".into(), vec![2.0]),
            ],
        },
    ]);
    let spec = JobSpec::new(
        "acme \"labs\"",
        DesignSpec::new("lms")
            .with_input_dtype("<7,5,tc,st,rd>")
            .with_param("mu", 0.0625)
            .with_param("taps", 3.0),
        scenarios,
    )
    .with_flow(FlowSpec {
        backend: "compiled".into(),
        cache: true,
        shards: 2,
        max_simulations: Some(12),
        wall_ms: Some(60_000),
        max_attempts: 3,
        force_saturate: vec!["terr".into(), "lp".into()],
    });
    vec![
        WalRecord::Accepted {
            seq: 1,
            job: "j-1".into(),
            spec: Box::new(spec),
        },
        WalRecord::Started {
            job: "j-1".into(),
            attempt: 0,
        },
        WalRecord::Completed {
            job: "j-1".into(),
            status: "complete".into(),
        },
        WalRecord::Cancelled { job: "j-2".into() },
    ]
}

fn write_wal(name: &str, records: &[WalRecord]) -> String {
    let path = tmp(name);
    let mut log = JobLog::open(&path).expect("log opens");
    for r in records {
        log.append(r).expect("appends");
    }
    drop(log);
    std::fs::read_to_string(&path).expect("log on disk")
}

#[test]
fn wal_records_are_pinned() {
    let records = wal_records();
    let expected = fixture("wal.jsonl");
    assert_bytes("encode(wal)", &write_wal("wal.jsonl", &records), &expected);
    let (back, dropped) = JobLog::replay(fixture_path("wal.jsonl")).expect("fixture replays");
    assert_eq!(dropped, 0);
    assert_eq!(back, records);
    assert_bytes(
        "encode(decode(wal))",
        &write_wal("wal_again.jsonl", &back),
        &expected,
    );
}

#[test]
fn job_result_is_pinned() {
    let result = JobResult {
        job: "j-3".into(),
        tenant: "acme".into(),
        status: "partial".into(),
        reason: Some("cancelled after 1 simulation(s)".into()),
        attempts: 2,
        msb_iterations: 1,
        lsb_iterations: 0,
        coverage: None,
        types: vec![
            ("b".into(), "<8,6,tc,st,rd>".into()),
            ("x".into(), "<7,5,tc,st,rd>".into()),
        ],
        annotations: vec![
            "b dtype=<8,6,tc,st,rd> range=[-0.2,0.2] sigma=-".into(),
            "x dtype=<7,5,tc,st,rd> range=- sigma=0.0015".into(),
        ],
        journal: sample_journal()[..4].to_vec(),
    };
    let expected = fixture("job_result.json");
    assert_bytes("encode(result)", &result.to_json(), &expected);
    let back = JobResult::from_json(&expected).expect("fixture parses");
    assert_eq!(back, result);
    assert_bytes("encode(decode(result))", &back.to_json(), &expected);
}

#[test]
fn job_status_is_pinned() {
    let statuses = [
        JobStatus {
            job: "j-3".into(),
            tenant: "acme".into(),
            state: JobState::Finished,
            attempts: 2,
            status: Some("partial".into()),
            reason: Some("cancelled \"early\"".into()),
        },
        JobStatus {
            job: "j-4".into(),
            tenant: "acme".into(),
            state: JobState::Queued,
            attempts: 0,
            status: None,
            reason: None,
        },
    ];
    let encoded: String = statuses.iter().map(|s| s.to_json() + "\n").collect();
    assert_bytes("encode(status)", &encoded, &fixture("job_status.jsonl"));
}

#[test]
fn metrics_report_is_pinned() {
    let report = MetricsReport {
        name: "wire \"fixture\"".into(),
        counters: vec![
            ("serve.accepted".into(), 12),
            ("sim.cycles".into(), 128_000),
        ],
        histograms: vec![
            (
                "flow.iter_wall_ms".into(),
                HistogramSummary {
                    count: 4,
                    sum: 10.5,
                    min: -1.25,
                    max: 7.0,
                },
            ),
            (
                "serve.empty".into(),
                HistogramSummary {
                    count: 0,
                    sum: 0.0,
                    min: f64::INFINITY,
                    max: f64::NEG_INFINITY,
                },
            ),
        ],
        spans: vec![
            SpanRecord {
                name: "flow.msb.iter".into(),
                wall_ns: 1_500_000,
                cycles: 4000,
                seq: 0,
            },
            SpanRecord {
                name: "flow.lsb.iter".into(),
                wall_ns: 900_000,
                cycles: 0,
                seq: 1,
            },
        ],
        event_counts: vec![("phase_converged".into(), 2)],
    };
    let expected = fixture("metrics.json");
    assert_bytes("encode(metrics)", &report.render_json(), &expected);
    let back = MetricsReport::parse_json(&expected).expect("fixture parses");
    assert_eq!(back, report);
    assert_bytes("encode(decode(metrics))", &back.render_json(), &expected);
}
