//! The two closed-loop workloads: one client running whole refinement
//! flows back to back, each on a fresh stimulus generated from the
//! workload seed before the flow is timed.
//!
//! - `lms_refine`: sequential `RefinementFlow::run` with verification on
//!   the Fig. 1 LMS equalizer (input `<7,5,tc,st,rd>`), 32 000 samples.
//! - `timing_sweep`: `run_swept` with verification on the §6.1 timing
//!   loop with its five knowledge-based saturations; 4 scenarios of
//!   6 000 samples at 20 dB on a 2-worker `SweepDriver`.

use std::sync::Arc;
use std::time::Instant;

use fixref_bench::paper_input_type;
use fixref_core::{
    FlowError, FlowOutcome, FlowStatus, RefinePolicy, RefinementFlow, SequentialDriver,
    ShardBuilder, ShardSim, SweepDriver,
};
use fixref_dsp::lms::equalizer_stimulus;
use fixref_dsp::source::ShapedPamSource;
use fixref_dsp::{Awgn, LmsConfig, LmsEqualizer, TimingConfig, TimingRecovery};
use fixref_fixed::DType;
use fixref_sim::{Design, Scenario, ScenarioSet};
use fixref_verify::VerifyOptions;

use crate::report::Report;
use crate::stats::{median, tail, Rng};
use crate::trace::{LayerTally, TimedDriver, Tracer};
use crate::{gate, probe, Opts};

/// LMS stimulus length per refinement.
const LMS_SAMPLES: usize = 32_000;
/// LMS stimulus SNR, dB (the paper's operating point).
const LMS_SNR_DB: f64 = 28.0;
/// LMS design seed (the seed of the paper-table runs).
const LMS_DESIGN_SEED: u64 = 0xDA7E_1999;
/// Timing-loop scenarios per refinement.
const TIMING_SCENARIOS: usize = 4;
/// Timing-loop stimulus length per scenario.
const TIMING_SAMPLES: usize = 6_000;
/// Timing-loop stimulus SNR, dB.
const TIMING_SNR_DB: f64 = 20.0;
/// Timing-loop design seed (the seed of the §6.1 complex example).
const TIMING_DESIGN_SEED: u64 = 0x0DEC_7BA5;
/// Sweep pool width for the timing loop.
const TIMING_WORKERS: usize = 2;
/// The §6.1 knowledge-based saturation choices.
pub const KNOWLEDGE_SATURATIONS: [&str; 5] = ["terr", "lp", "lferr", "step", "mu"];
/// Stimulus length of the isolated simulation probe.
const PROBE_SAMPLES: usize = 4000;

/// Which closed-loop workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `lms_refine`.
    Lms,
    /// `timing_sweep`.
    Timing,
}

/// The equalizer configuration of Tables 1/2 with the quantized input.
fn lms_config() -> LmsConfig {
    LmsConfig {
        input_dtype: Some(paper_input_type()),
        ..LmsConfig::default()
    }
}

/// The timing-loop configuration of the §6.1 complex example.
fn timing_config() -> TimingConfig {
    TimingConfig {
        input_dtype: Some(DType::tc("T_in", 7, 5).expect("literal type is valid")),
        input_range: None,
        ..TimingConfig::default()
    }
}

/// A fresh LMS equalizer design.
pub fn lms_design() -> (Design, LmsEqualizer) {
    let d = Design::with_seed(LMS_DESIGN_SEED);
    let eq = LmsEqualizer::new(&d, &lms_config());
    (d, eq)
}

/// A fresh timing-loop design.
fn timing_design() -> (Design, TimingRecovery) {
    let d = Design::with_seed(TIMING_DESIGN_SEED);
    let tl = TimingRecovery::new(&d, &timing_config());
    (d, tl)
}

/// Timing-loop input: shaped PAM plus AWGN, as the §6.1 experiment draws
/// it, clamped to the front end's range.
fn timing_stimulus(seed: u64, samples: usize) -> Vec<f64> {
    let mut src = ShapedPamSource::new(seed as u32 | 1, 0.35, 2, 0.3, 100.0);
    let mut noise = Awgn::from_snr_db(seed.wrapping_add(2), TIMING_SNR_DB, 1.0);
    (0..samples)
        .map(|_| noise.add(src.next_sample()).clamp(-1.9, 1.9))
        .collect()
}

/// One refinement's design and inputs, prepared before it is timed.
enum Prepared {
    Lms {
        design: Design,
        eq: Box<LmsEqualizer>,
        x: Vec<f64>,
    },
    Timing {
        design: Design,
        stimuli: Arc<Vec<(u64, Vec<f64>)>>,
    },
}

/// Generates one refinement's stimulus from `rng` and builds its design.
/// Returns it with the seconds the stimulus generation took.
fn prepare(kind: Kind, rng: &mut Rng) -> (Prepared, f64) {
    let start = Instant::now();
    match kind {
        Kind::Lms => {
            let x = equalizer_stimulus(rng.next_u64() >> 32, LMS_SNR_DB, LMS_SAMPLES);
            let stimulus_s = start.elapsed().as_secs_f64();
            let (design, eq) = lms_design();
            let eq = Box::new(eq);
            (Prepared::Lms { design, eq, x }, stimulus_s)
        }
        Kind::Timing => {
            let mut seeds: Vec<u64> = Vec::new();
            while seeds.len() < TIMING_SCENARIOS {
                let s = rng.next_u64() >> 32;
                if !seeds.contains(&s) {
                    seeds.push(s);
                }
            }
            let stimuli = seeds
                .into_iter()
                .map(|s| (s, timing_stimulus(s, TIMING_SAMPLES)))
                .collect();
            let stimulus_s = start.elapsed().as_secs_f64();
            let (design, _tl) = timing_design();
            let stimuli = Arc::new(stimuli);
            (Prepared::Timing { design, stimuli }, stimulus_s)
        }
    }
}

/// Shard builder replaying pre-generated timing-loop stimuli, looked up
/// by scenario seed.
fn timing_builder(stimuli: Arc<Vec<(u64, Vec<f64>)>>) -> Box<ShardBuilder> {
    Box::new(move |scenario: &Scenario| {
        let (design, tl) = timing_design();
        let stimuli = stimuli.clone();
        let index = stimuli
            .iter()
            .position(|(s, _)| *s == scenario.seed)
            .expect("every scenario seed has a generated stimulus");
        ShardSim {
            design,
            stimulus: Box::new(move |_d: &Design, _iter: usize| {
                tl.init();
                for &x in &stimuli[index].1 {
                    tl.step(x);
                }
            }),
        }
    })
}

/// What one refinement produced.
struct FlowRun {
    wall_s: f64,
    ok: Result<(), String>,
    outcome_text: String,
    journal_events: u64,
    assignments: u64,
    ticks: u64,
    /// Traced refinements only: the layer figures.
    traced: Option<LayerTally>,
}

/// Runs `flow` over `driver`, traced through a [`TimedDriver`] when a
/// tracer is given.
fn drive<D>(
    flow: &mut RefinementFlow,
    mut driver: D,
    tracer: Option<&Tracer>,
    id: u64,
    workers: usize,
) -> (Result<FlowOutcome, FlowError>, f64, Option<LayerTally>)
where
    D: fixref_core::SimDriver + crate::trace::ShardView,
{
    match tracer {
        None => {
            let start = Instant::now();
            let r = flow.run_with(&mut driver);
            (r, start.elapsed().as_secs_f64(), None)
        }
        Some(t) => {
            let (r, wall, tally) = TimedDriver::new(driver, t, id, workers).refine(flow);
            (r, wall, Some(tally))
        }
    }
}

fn refine_once(prepared: Prepared, tracer: Option<&Tracer>, id: u64) -> FlowRun {
    let (design, flow, (result, wall_s, traced)) = match prepared {
        Prepared::Lms { design, eq, x } => {
            let mut flow = RefinementFlow::new(design.clone(), RefinePolicy::default());
            flow.enable_verification(VerifyOptions::default());
            let driver = SequentialDriver::new(move |_d: &Design, _iter: usize| {
                eq.init();
                for &v in &x {
                    eq.step(v);
                }
            });
            let ran = drive(&mut flow, driver, tracer, id, 1);
            (design, flow, ran)
        }
        Prepared::Timing { design, stimuli } => {
            let mut flow = RefinementFlow::new(design.clone(), RefinePolicy::default());
            for name in KNOWLEDGE_SATURATIONS {
                flow.force_saturate(design.find(name).expect("timing loop declares it"));
            }
            flow.enable_verification(VerifyOptions::default());
            let seeds: Vec<u64> = stimuli.iter().map(|(s, _)| *s).collect();
            let scenarios = ScenarioSet::grid(&seeds, &[TIMING_SNR_DB], &[], &[TIMING_SAMPLES]);
            let driver = SweepDriver::new(scenarios, TIMING_WORKERS, timing_builder(stimuli));
            let ran = drive(&mut flow, driver, tracer, id, TIMING_WORKERS);
            (design, flow, ran)
        }
    };
    let ticks = flow.recorder().counter("sim.ticks");
    let (ok, outcome_text) = match &result {
        Err(e) => (Err(format!("flow failed: {e}")), String::new()),
        Ok(outcome) => {
            let ok = if outcome.status != FlowStatus::Complete {
                Err(format!("flow did not complete: {:?}", outcome.status))
            } else if !outcome.verify.is_overflow_free() {
                Err(format!(
                    "verification run overflowed {} time(s)",
                    outcome.verify.total_overflows
                ))
            } else {
                Ok(())
            };
            (ok, gate::outcome_text(&design, outcome, ticks))
        }
    };
    FlowRun {
        wall_s,
        ok,
        outcome_text,
        journal_events: flow.journal().len() as u64,
        assignments: flow.recorder().counter("sim.assignments"),
        ticks,
        traced,
    }
}

fn run_probe(kind: Kind, report: &mut Report, rng: &mut Rng) {
    match kind {
        Kind::Lms => {
            let (design, eq) = lms_design();
            let x = equalizer_stimulus(rng.next_u64() >> 32, LMS_SNR_DB, PROBE_SAMPLES);
            probe::probe(report, &design, || {
                eq.init();
                for &v in &x {
                    eq.step(v);
                }
            });
        }
        Kind::Timing => {
            let (design, tl) = timing_design();
            let x = timing_stimulus(rng.next_u64() >> 32, PROBE_SAMPLES);
            probe::probe(report, &design, || {
                tl.init();
                for &v in &x {
                    tl.step(v);
                }
            });
        }
    }
}

/// Runs a closed-loop workload.
///
/// # Errors
///
/// Only for a benchmark that cannot run at all (a golden file missing);
/// failed refinements are counted, not returned.
pub fn run(kind: Kind, opts: &Opts, report: &mut Report) -> Result<(), String> {
    gate::paper_tables(report)?;
    match kind {
        Kind::Lms => report.line(format!(
            "inputs: LMS equalizer, {LMS_SAMPLES} samples per refinement, {LMS_SNR_DB} dB, \
             closed loop, one client"
        )),
        Kind::Timing => report.line(format!(
            "inputs: timing loop, {TIMING_SCENARIOS} scenarios x {TIMING_SAMPLES} samples per \
             refinement, {TIMING_SNR_DB} dB, {TIMING_WORKERS} sweep workers, closed loop, one client"
        )),
    }

    let tracer = Tracer::new();
    if opts.trace {
        run_probe(kind, report, &mut Rng::new(opts.seed, 2));
    }

    let mut rng = Rng::new(opts.seed, 3);
    let mut plain_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut stimulus_s = Vec::new();
    let mut setup = Vec::new();
    let mut tallies: Vec<LayerTally> = Vec::new();
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(opts.seconds);
    let mut i = 0u64;
    while Instant::now() < deadline || i < 1 + u64::from(opts.trace) {
        // Set-up of each refinement: its stimulus and its design.
        let start = Instant::now();
        let (prepared, stim_s) = prepare(kind, &mut rng);
        setup.push(start.elapsed().as_secs_f64());
        stimulus_s.push(stim_s);
        // The traced run alternates traced and plain refinements, so the
        // tracing overhead is measured on the same inputs and host state.
        let traced = opts.trace && i.is_multiple_of(2);
        let run = refine_once(prepared, traced.then_some(&tracer), i);
        if i == 0 {
            report.line(format!(
                "digest {} (types, interventions, iterations, cycles of refinement 0)",
                gate::digest(&run.outcome_text)
            ));
            for l in run.outcome_text.lines() {
                report.line(format!("  {l}"));
            }
            report.count("sim.cycles", run.ticks);
            report.count("sim.assignments", run.assignments);
            report.count("obs.journal_events", run.journal_events);
        }
        if let Err(e) = &run.ok {
            report.line(format!("refinement {i} failed: {e}"));
        }
        report.attempt(run.ok.is_ok());
        if let Some(t) = run.traced {
            traced_walls.push(run.wall_s);
            tallies.push(t);
        } else {
            plain_walls.push(run.wall_s);
        }
        i += 1;
    }

    let refine = tail(&plain_walls);
    let p50 = median(&plain_walls);
    report.line(format!(
        "refine_s.p50 = {p50:.4} s, refine_s.tail = {:.4} s ({})",
        refine.value,
        refine.label()
    ));
    report.e2e("latency_s.p50", p50);
    report.e2e("latency_s.tail", refine.value);
    report.e2e(
        "throughput_per_s",
        plain_walls.len() as f64 / plain_walls.iter().sum::<f64>(),
    );

    report.e2e("setup_s", median(&setup));
    report.layer("dsp.stimulus_s", median(&stimulus_s));
    if kind == Kind::Lms {
        // The served-versus-direct gate and, traced, the serve layers.
        let low_s = if opts.trace { opts.seconds * 0.2 } else { 0.0 };
        crate::serve::served_session(opts, report, &tracer, low_s)?;
    }
    if opts.trace {
        crate::trace::report_flow_layers(report, &tallies);
        let traced = median(&traced_walls);
        report.layer("bench.trace_overhead", traced / p50 - 1.0);
        report.line(format!(
            "traced refine_s.p50 = {traced:.4} s; sim.record_s is {:.0}% of it",
            100.0 * median(&tallies.iter().map(|t| t.record_s).collect::<Vec<_>>()) / traced
        ));
        crate::trace::write_spans(&tracer, opts, report)?;
    }
    Ok(())
}
