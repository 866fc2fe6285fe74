//! One seeded round-trip property over every type with a JSON form.
//!
//! For random instances `x` of each persisted or served type — empty
//! vectors, `None`s, non-finite floats, control characters, quotes,
//! integers beyond 2^53 and `Interval::EMPTY` included — two properties
//! must hold:
//!
//! - `decode(encode(x)) == x`;
//! - `encode(decode(encode(x))) == encode(x)`: re-encoding is byte-stable.
//!
//! The exact wire bytes themselves are pinned by `tests/wire_format.rs`.

use std::fmt::Debug;

use fixref::obs::json::{decode, encode, FromJson, Json, ToJson};
use fixref::obs::{Event, HistogramSummary, MetricsReport, Phase, SpanRecord};
use fixref::refine::{
    CacheState, Checkpoint, Cursor, FlowSpec, JobSpec, LsbAnalysis, LsbStatus, MsbAnalysis,
    MsbDecision,
};
use fixref::serve::{JobResult, JobState, JobStatus, WalRecord};
use fixref::sim::spec::unbound_id;
use fixref::sim::{
    DesignSpec, OverflowEvent, Scenario, ScenarioSet, SignalAnnotation, SignalStats,
};
use fixref_fixed::{
    DType, ErrorStats, Interval, OverflowMode, RangeStats, Rng64, RoundingMode, Signedness,
};

const CASES: usize = 60;

/// Checks both round-trip properties for one value. Values are compared
/// through their `Debug` form, which tells NaN payloads apart from other
/// floats (NaN != NaN under `==`) and -0.0 from 0.0.
fn check<T: ToJson + FromJson + Debug>(what: &str, case: usize, x: &T) {
    let text = encode(x);
    let back: T = decode(&text).unwrap_or_else(|e| panic!("{what} case {case}: {e}\n{text}"));
    assert_eq!(
        encode(&back),
        text,
        "{what} case {case}: re-encoding drifted"
    );
    assert_eq!(
        format!("{back:?}"),
        format!("{x:?}"),
        "{what} case {case}: decode(encode(x)) != x"
    );
}

struct Gen(Rng64);

impl Gen {
    fn coin(&mut self) -> bool {
        self.0.below(2) == 0
    }

    fn pick<T: Clone>(&mut self, items: &[T]) -> T {
        items[self.0.below(items.len() as u64) as usize].clone()
    }

    fn string(&mut self) -> String {
        self.pick(&[
            "x",
            "acc",
            "",
            "y\"q\\",
            "μ-step §",
            "line\nbreak\ttab\r",
            "ctl\u{1}\u{1f}\u{7f}",
            "NaN",
        ])
        .to_string()
    }

    fn strings(&mut self) -> Vec<String> {
        (0..self.0.below(4)).map(|_| self.string()).collect()
    }

    fn f64(&mut self) -> f64 {
        match self.0.below(10) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -0.0,
            4 => self.pick(&[f64::MIN_POSITIVE, 5e-324, f64::MAX, 1e300, 2f64.powi(60)]),
            5 => self.0.below(1000) as f64,
            _ => self.0.uniform(-1e6, 1e6),
        }
    }

    fn u64(&mut self) -> u64 {
        match self.0.below(4) {
            0 => self.pick(&[0, (1 << 53) + 1, u64::MAX, u64::MAX - 1]),
            1 => self.0.next_u64(),
            _ => self.0.below(10_000),
        }
    }

    fn usize(&mut self) -> usize {
        self.u64() as usize
    }

    fn i32(&mut self) -> i32 {
        match self.0.below(3) {
            0 => self.pick(&[i32::MIN, i32::MAX, 0, -1]),
            _ => self.0.below(64) as i32 - 32,
        }
    }

    fn opt<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> Option<T> {
        if self.coin() {
            Some(f(self))
        } else {
            None
        }
    }

    fn vec<T>(&mut self, max: u64, mut f: impl FnMut(&mut Self) -> T) -> Vec<T> {
        (0..self.0.below(max + 1)).map(|_| f(self)).collect()
    }

    fn phase(&mut self) -> Phase {
        self.pick(&[Phase::Msb, Phase::Lsb])
    }

    fn interval(&mut self) -> Interval {
        match self.0.below(4) {
            0 => Interval::EMPTY,
            1 => Interval::UNBOUNDED,
            _ => Interval {
                lo: self.f64(),
                hi: self.f64(),
            },
        }
    }

    fn dtype(&mut self) -> DType {
        DType::new(
            self.string(),
            1 + self.0.below(63) as i32,
            self.0.below(513) as i32 - 256,
            self.pick(&[Signedness::TwosComplement, Signedness::Unsigned]),
            self.pick(&[
                OverflowMode::Wrap,
                OverflowMode::Saturate,
                OverflowMode::Error,
            ]),
            self.pick(&[RoundingMode::Round, RoundingMode::Floor]),
        )
        .expect("generated dtype is valid")
    }

    fn event(&mut self) -> Event {
        match self.0.below(37) {
            0 => Event::OverflowDetected {
                signal: self.string(),
                value: self.f64(),
                cycle: self.u64(),
            },
            1 => Event::IterationStarted {
                phase: self.phase(),
                iteration: self.usize(),
            },
            2 => Event::IntervalExploded {
                signal: self.string(),
                iteration: self.usize(),
            },
            3 => Event::AutoRange {
                signal: self.string(),
                lo: self.f64(),
                hi: self.f64(),
                iteration: self.usize(),
            },
            4 => Event::AutoError {
                signal: self.string(),
                sigma: self.f64(),
                iteration: self.usize(),
            },
            5 => Event::SignalResolved {
                signal: self.string(),
                phase: self.phase(),
                iteration: self.usize(),
            },
            6 => Event::PhaseConverged {
                phase: self.phase(),
                iterations: self.usize(),
            },
            7 => Event::PhaseFailed {
                phase: self.phase(),
                iterations: self.usize(),
                unresolved: self.string(),
            },
            8 => Event::TypeApplied {
                signal: self.string(),
                dtype: self.string(),
            },
            9 => Event::VerifyCompleted {
                overflows: self.u64(),
                saturation_events: self.u64(),
            },
            10 => Event::ShardStarted {
                shard: self.usize(),
                seed: self.u64(),
                snr_db: self.f64(),
                samples: self.usize(),
            },
            11 => Event::ShardMerged {
                shard: self.usize(),
                cycles: self.u64(),
                signals: self.usize(),
            },
            12 => Event::CacheInvalidated {
                reason: self.string(),
                dirty: self.usize(),
            },
            13 => Event::RangeClamped {
                signal: self.string(),
                lo: self.f64(),
                hi: self.f64(),
            },
            14 => Event::RangeExploded {
                signal: self.string(),
                passes: self.usize(),
            },
            15 => Event::LintDiagnostic {
                code: self.string(),
                severity: self.string(),
                signal: self.string(),
                message: self.string(),
            },
            16 => Event::LintCompleted {
                errors: self.usize(),
                warnings: self.usize(),
                infos: self.usize(),
            },
            17 => Event::LintGateFailed {
                context: self.string(),
                code: self.string(),
                findings: self.usize(),
            },
            18 => Event::VerifyStarted {
                code: self.string(),
                signal: self.string(),
                registers: self.usize(),
            },
            19 => Event::VerifyProved {
                code: self.string(),
                signal: self.string(),
                states: self.usize(),
                depth: self.usize(),
            },
            20 => Event::VerifyCounterexample {
                code: self.string(),
                signal: self.string(),
                steps: self.usize(),
            },
            21 => Event::VerifyBoundExhausted {
                code: self.string(),
                signal: self.string(),
                reason: self.string(),
                states: self.usize(),
            },
            22 => Event::ShardFailed {
                shard: self.usize(),
                scenario: self.string(),
                attempts: self.usize(),
                cause: self.string(),
            },
            23 => Event::ShardRetried {
                shard: self.usize(),
                attempt: self.usize(),
            },
            24 => Event::ShardQuarantined {
                shard: self.usize(),
                scenario: self.string(),
            },
            25 => Event::CheckpointWritten {
                sequence: self.usize(),
                phase: self.phase(),
                iteration: self.usize(),
            },
            26 => Event::CheckpointFailed {
                sequence: self.usize(),
                cause: self.string(),
            },
            27 => Event::ResumedFromCheckpoint {
                sequence: self.usize(),
                phase: self.phase(),
                iteration: self.usize(),
                events: self.usize(),
            },
            28 => Event::BudgetExhausted {
                phase: self.phase(),
                simulations: self.u64(),
                reason: self.string(),
            },
            29 => Event::BackendCompiled {
                backend: self.string(),
                kinds: self.usize(),
                instructions: self.usize(),
                cycles: self.u64(),
            },
            30 => Event::BackendFallback {
                backend: self.string(),
                reason: self.string(),
            },
            31 => Event::JobAccepted {
                job: self.string(),
                tenant: self.string(),
                queue_depth: self.usize(),
            },
            32 => Event::JobRejected {
                tenant: self.string(),
                reason: self.string(),
            },
            33 => Event::JobStarted {
                job: self.string(),
                tenant: self.string(),
                attempt: self.usize(),
            },
            34 => Event::JobRetried {
                job: self.string(),
                attempt: self.usize(),
                backoff_ms: self.u64(),
            },
            35 => Event::JobRecovered {
                job: self.string(),
                tenant: self.string(),
                from_checkpoint: self.coin(),
            },
            _ => Event::JobCompleted {
                job: self.string(),
                status: self.string(),
                attempts: self.usize(),
            },
        }
    }

    fn annotation(&mut self) -> SignalAnnotation {
        SignalAnnotation {
            name: self.string(),
            dtype: self.opt(Self::dtype),
            range: self.opt(Self::interval),
            error_sigma: self.opt(Self::f64),
        }
    }

    fn decision(&mut self) -> MsbDecision {
        match self.0.below(4) {
            0 => MsbDecision::Agree { msb: self.i32() },
            1 => MsbDecision::Saturate {
                msb: self.i32(),
                guard: self.interval(),
                forced: self.coin(),
            },
            2 => MsbDecision::Tradeoff {
                stat_msb: self.i32(),
                prop_msb: self.i32(),
                chosen: self.i32(),
                saturate: self.coin(),
            },
            _ => MsbDecision::Unresolved {
                reason: self.string(),
            },
        }
    }

    fn msb(&mut self) -> MsbAnalysis {
        MsbAnalysis {
            id: unbound_id(),
            name: self.string(),
            accesses: self.u64(),
            stat: self.opt(Self::interval),
            stat_msb: self.opt(Self::i32),
            prop: self.opt(Self::interval),
            prop_msb: self.opt(Self::i32),
            exploded: self.coin(),
            decision: self.decision(),
            mode: self.pick(&[
                OverflowMode::Wrap,
                OverflowMode::Saturate,
                OverflowMode::Error,
            ]),
            signedness: self.pick(&[Signedness::TwosComplement, Signedness::Unsigned]),
        }
    }

    fn lsb(&mut self) -> LsbAnalysis {
        LsbAnalysis {
            id: unbound_id(),
            name: self.string(),
            assigns: self.u64(),
            max_abs: self.f64(),
            mean: self.f64(),
            std: self.f64(),
            lsb: self.opt(Self::i32),
            status: self.pick(&[
                LsbStatus::Resolved,
                LsbStatus::Exact,
                LsbStatus::Diverged,
                LsbStatus::NoData,
            ]),
            precision_loss: self.coin(),
            floor_mean_shift: self.opt(Self::f64),
            rounding: self.pick(&[RoundingMode::Round, RoundingMode::Floor]),
        }
    }

    fn stats(&mut self) -> SignalStats {
        SignalStats {
            name: self.string(),
            stat: RangeStats::from_raw(self.f64(), self.f64(), self.u64()),
            prop: self.interval(),
            consumed: ErrorStats::from_raw(self.u64(), self.f64(), self.f64(), self.f64()),
            produced: ErrorStats::new(),
            overflows: self.u64(),
            reads: self.u64(),
            writes: self.u64(),
            granularity: self.opt(Self::i32),
            non_dyadic: self.coin(),
        }
    }

    fn overflow_event(&mut self) -> OverflowEvent {
        OverflowEvent {
            signal: unbound_id(),
            name: self.string(),
            value: self.f64(),
            cycle: self.u64(),
        }
    }

    fn checkpoint(&mut self) -> Checkpoint {
        Checkpoint {
            cursor: match self.0.below(3) {
                0 => Cursor::Msb { next: self.usize() },
                1 => Cursor::Lsb { next: self.usize() },
                _ => Cursor::Apply,
            },
            msb_done: self.usize(),
            lsb_done: self.usize(),
            next_sequence: self.usize(),
            msb_journal_start: self.usize(),
            lsb_journal_start: self.opt(Self::usize),
            annotations: self.vec(4, Self::annotation),
            pinned_explosion: self.strings(),
            force_saturate: self.strings(),
            excluded: self.strings(),
            feedback: self.strings(),
            troubled: self.strings(),
            msb_final: self.opt(|g| g.vec(3, Self::msb)),
            lsb_final: self.opt(|g| g.vec(3, Self::lsb)),
            cache: CacheState {
                warm: self.coin(),
                dirty: self.strings(),
                data: self.opt(|g| {
                    (
                        g.vec(3, Self::stats),
                        g.vec(3, Self::overflow_event),
                        g.u64(),
                    )
                }),
            },
            journal: self.vec(4, Self::event),
        }
    }

    fn scenario(&mut self) -> Scenario {
        Scenario {
            index: 0,
            seed: self.u64(),
            snr_db: self.f64(),
            channel_taps: self.vec(3, Self::f64),
            samples: self.usize(),
            stimulus: self.vec(2, |g| (g.string(), g.vec(3, Self::f64))),
        }
    }

    fn scenarios(&mut self) -> ScenarioSet {
        ScenarioSet::from_scenarios(self.vec(3, Self::scenario))
    }

    fn design(&mut self) -> DesignSpec {
        DesignSpec {
            kind: self.string(),
            input_dtype: self.opt(Self::string),
            params: self.vec(3, |g| (g.string(), g.f64())),
        }
    }

    /// A job spec that passes the decoder's validation: non-empty tenant
    /// and scenarios, a known backend, at least one attempt.
    fn job_spec(&mut self) -> JobSpec {
        let mut scenarios = self.scenarios();
        if scenarios.is_empty() {
            scenarios = ScenarioSet::single(self.u64(), self.f64(), self.usize());
        }
        JobSpec::new(format!("t{}", self.string()), self.design(), scenarios).with_flow(FlowSpec {
            backend: self.pick(&["interpreted", "compiled"]).to_string(),
            cache: self.coin(),
            shards: self.usize(),
            max_simulations: self.opt(Self::u64),
            wall_ms: self.opt(Self::u64),
            max_attempts: 1 + self.0.below(4) as usize,
            force_saturate: self.strings(),
        })
    }

    fn wal(&mut self) -> WalRecord {
        match self.0.below(4) {
            0 => WalRecord::Accepted {
                seq: self.u64(),
                job: self.string(),
                spec: Box::new(self.job_spec()),
            },
            1 => WalRecord::Started {
                job: self.string(),
                attempt: self.usize(),
            },
            2 => WalRecord::Completed {
                job: self.string(),
                status: self.string(),
            },
            _ => WalRecord::Cancelled { job: self.string() },
        }
    }

    fn job_status(&mut self) -> JobStatus {
        JobStatus {
            job: self.string(),
            tenant: self.string(),
            state: self.pick(&[
                JobState::Queued,
                JobState::Running,
                JobState::Finished,
                JobState::Cancelled,
            ]),
            attempts: self.usize(),
            status: self.opt(Self::string),
            reason: self.opt(Self::string),
        }
    }

    fn job_result(&mut self) -> JobResult {
        JobResult {
            job: self.string(),
            tenant: self.string(),
            status: self.string(),
            reason: self.opt(Self::string),
            attempts: self.usize(),
            msb_iterations: self.usize(),
            lsb_iterations: self.usize(),
            coverage: self.opt(Self::string),
            types: self.vec(3, |g| (g.string(), g.string())),
            annotations: self.strings(),
            journal: self.vec(4, Self::event),
        }
    }

    fn metrics(&mut self) -> MetricsReport {
        MetricsReport {
            name: self.string(),
            counters: self.vec(3, |g| (g.string(), g.u64())),
            histograms: self.vec(3, |g| {
                (
                    g.string(),
                    HistogramSummary {
                        count: g.u64(),
                        sum: g.f64(),
                        min: g.f64(),
                        max: g.f64(),
                    },
                )
            }),
            spans: self.vec(3, |g| SpanRecord {
                name: g.string(),
                wall_ns: g.u64(),
                cycles: g.u64(),
                seq: g.u64(),
            }),
            event_counts: self.vec(3, |g| (g.string(), g.u64())),
        }
    }
}

#[test]
fn every_json_type_round_trips_byte_stably() {
    let mut g = Gen(Rng64::seed_from_u64(0x5EED_1999));
    for case in 0..CASES {
        check("Event", case, &g.event());
        check("SignalAnnotation", case, &g.annotation());
        check("MsbDecision", case, &g.decision());
        check("MsbAnalysis", case, &g.msb());
        check("LsbAnalysis", case, &g.lsb());
        check("SignalStats", case, &g.stats());
        check("OverflowEvent", case, &g.overflow_event());
        check("Checkpoint", case, &g.checkpoint());
        check("DesignSpec", case, &g.design());
        check("ScenarioSet", case, &g.scenarios());
        check("JobSpec", case, &g.job_spec());
        check("WalRecord", case, &g.wal());
        check("JobStatus", case, &g.job_status());
        check("JobResult", case, &g.job_result());
        check("MetricsReport", case, &g.metrics());
    }
}

#[test]
fn every_event_variant_is_drawn() {
    let mut g = Gen(Rng64::seed_from_u64(0x5EED_1999));
    let kinds: std::collections::BTreeSet<&str> = (0..2000).map(|_| g.event().kind()).collect();
    assert_eq!(kinds.len(), 37);
}

#[test]
fn seeds_beyond_2_pow_53_round_trip_exactly() {
    let seed = (1u64 << 53) + 1;
    let set = ScenarioSet::single(seed, 28.0, 100);
    let back: ScenarioSet = decode(&encode(&set)).expect("scenario set parses");
    assert_eq!(back.as_slice()[0].seed, seed);

    let spec = JobSpec::new("t", DesignSpec::new("lms"), set);
    let back = JobSpec::from_json(&spec.to_json()).expect("job spec parses");
    assert_eq!(back.scenarios.as_slice()[0].seed, seed);

    let event = Event::ShardStarted {
        shard: 0,
        seed,
        snr_db: 28.0,
        samples: 100,
    };
    assert_eq!(Event::from_json(&event.to_json()), Ok(event));
}

#[test]
fn inexact_and_out_of_range_integers_are_rejected() {
    assert_eq!(Json::parse("1e20").expect("parses").as_u64(), None);
    let line = r#"{"event":"shard_started","shard":0,"seed":1e20,"snr_db":28,"samples":100}"#;
    let err = Event::from_json(line).expect_err("seed 1e20 does not fit u64");
    assert_eq!(err.path, "seed");
}
