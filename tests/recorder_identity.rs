//! Pinned recorder contents of monitored simulations.
//!
//! The simulator's recorder-facing side effects (`sim.ticks`,
//! `sim.assignments`, `sim.saturations`, `sim.overflows`, the per-signal
//! `sim.quant_error.<name>` histograms and the `OverflowDetected` journal)
//! may be delivered to the recorder per assignment or buffered and
//! flushed later; either way the recorder must end up holding exactly
//! the same data. This suite snapshots a `DefaultRecorder` after several
//! runs — refinement flows on the interpreted, compiled and swept paths,
//! a sequential-driver simulation and a direct LMS run that both end
//! with assignments after their last tick, and a small
//! design with an `OverflowMode::Error` type whose recorder is detached
//! mid-run and replaced — and compares the snapshot byte for byte with
//! `tests/golden/recorder_identity.txt`. Histograms are written as f64
//! bit patterns, so the comparison is bitwise.
//!
//! On a mismatch the actual snapshot is written to
//! `recorder_identity.actual.txt` in the system temp directory; after an
//! intentional change, copy that file over the golden one.

use std::fmt::Write as _;
use std::sync::Arc;

use fixref::obs::{to_jsonl, DefaultRecorder};
use fixref::refine::{
    RefinePolicy, RefinementFlow, SequentialDriver, SimBackend, SimDriver, SweepDriver,
};
use fixref::sim::Design;
use fixref::verify::VerifyOptions;
use fixref_bench::{lms_seed_grid, lms_shard_builder, paper_input_type};
use fixref_dsp::lms::equalizer_stimulus;
use fixref_dsp::{LmsConfig, LmsEqualizer};

const SAMPLES: usize = 400;

/// Counters, histograms (as f64 bits) and the journal of one recorder.
fn snapshot(out: &mut String, label: &str, rec: &DefaultRecorder) {
    let _ = writeln!(out, "== {label}");
    for (name, value) in rec.counters() {
        let _ = writeln!(out, "counter {name} {value}");
    }
    for (name, h) in rec.histograms() {
        let _ = writeln!(
            out,
            "hist {name} count={} sum={:016x} min={:016x} max={:016x}",
            h.count,
            h.sum.to_bits(),
            h.min.to_bits(),
            h.max.to_bits()
        );
    }
    for line in to_jsonl(&rec.events()).lines() {
        let _ = writeln!(out, "event {line}");
    }
}

fn lms_config() -> LmsConfig {
    LmsConfig {
        input_dtype: Some(paper_input_type()),
        ..LmsConfig::default()
    }
}

fn lms_flow(out: &mut String, label: &str, backend: SimBackend) {
    let design = Design::with_seed(0xDA7E_1999);
    let eq = LmsEqualizer::new(&design, &lms_config());
    let mut flow = RefinementFlow::new(design, RefinePolicy::default());
    flow.set_backend(backend);
    flow.enable_verification(VerifyOptions::default());
    let x = equalizer_stimulus(7, 28.0, SAMPLES);
    flow.run(|_d: &Design, _iter: usize| {
        eq.init();
        for &v in &x {
            eq.step(v);
        }
    })
    .expect("the LMS flow converges");
    snapshot(out, label, flow.recorder());
}

fn lms_swept_flow(out: &mut String) {
    let design = Design::with_seed(0xDA7E_1999);
    let _eq = LmsEqualizer::new(&design, &lms_config());
    let mut flow = RefinementFlow::new(design, RefinePolicy::default());
    let mut driver = SweepDriver::new(
        lms_seed_grid(2, SAMPLES),
        2,
        lms_shard_builder(lms_config()),
    );
    flow.run_with(&mut driver)
        .expect("the swept LMS flow converges");
    snapshot(out, "lms flow, swept over 2 scenarios", flow.recorder());
}

/// A stimulus ending in assignments after its last tick, read as soon as
/// the driver returns (design alive, recorder still attached).
fn sequential_driver_with_trailing_assignments(out: &mut String) {
    let design = Design::with_seed(0xDA7E_1999);
    let eq = LmsEqualizer::new(&design, &lms_config());
    let rec = Arc::new(DefaultRecorder::new());
    design.attach_recorder(rec.clone());
    let x = equalizer_stimulus(5, 28.0, 50);
    let mut driver = SequentialDriver::new(|_d: &Design, _iter: usize| {
        eq.init();
        for &v in &x {
            eq.step(v);
        }
        eq.x().set(-1.75);
    });
    driver
        .simulate(&design, &rec, 1, false)
        .expect("a sequential simulation does not fail");
    snapshot(out, "sequential driver, trailing assignments", &rec);
}

/// Every LMS signal typed (some narrow enough to saturate), then
/// assignments after the last tick; the recorder is read after detaching.
fn lms_direct_with_trailing_assignments(out: &mut String) {
    let design = Design::with_seed(0xDA7E_1999);
    let eq = LmsEqualizer::new(&design, &lms_config());
    for (i, id) in eq.signal_ids().into_iter().enumerate() {
        if design.dtype_of(id).is_none() {
            let spec = if i % 3 == 0 {
                "<3,2,tc,st,rd>"
            } else {
                "<12,8,tc,st,rd>"
            };
            design.set_dtype(id, Some(spec.parse().expect("literal is valid")));
        }
    }
    let rec = Arc::new(DefaultRecorder::new());
    design.attach_recorder(rec.clone());
    eq.init();
    for &v in &equalizer_stimulus(11, 20.0, SAMPLES) {
        eq.step(v);
    }
    eq.init();
    eq.x().set(0.40625);
    eq.x().set(-2.0);
    design.detach_recorder();
    snapshot(out, "lms direct, trailing assignments, detached", &rec);
}

/// An accumulator on an `OverflowMode::Error` type journals
/// `OverflowDetected`; the first recorder is detached mid-run (with
/// assignments pending since the last tick), a second one is attached
/// later and sees the design dropped after trailing assignments.
fn error_overflow_with_detach(out: &mut String) {
    let first = Arc::new(DefaultRecorder::new());
    let second = Arc::new(DefaultRecorder::new());
    {
        let design = Design::with_seed(3);
        let acc = design.reg_typed("acc", "<6,2,tc,er,rd>".parse().expect("literal is valid"));
        let y = design.sig_typed("y", "<5,1,tc,st,fl>".parse().expect("literal is valid"));
        let free = design.sig("free");
        let step = |k: usize| {
            acc.set(acc.get() + 0.8125);
            y.set(acc.get() * 3.0 - k as f64 * 0.0625);
            free.set(y.get() + 1.0);
        };
        design.attach_recorder(first.clone());
        for k in 0..40 {
            step(k);
            design.tick();
        }
        step(40);
        design.detach_recorder();
        for k in 41..60 {
            step(k);
            design.tick();
        }
        design.attach_recorder(second.clone());
        for k in 60..90 {
            step(k);
            design.tick();
        }
        step(90);
        acc.set(-17.5);
    }
    snapshot(
        out,
        "error-overflow design, first recorder (detached mid-run)",
        &first,
    );
    snapshot(
        out,
        "error-overflow design, second recorder (design dropped)",
        &second,
    );
}

#[test]
fn recorder_contents_match_the_golden_snapshot() {
    let mut out = String::new();
    lms_flow(&mut out, "lms flow, interpreted", SimBackend::Interpreted);
    lms_flow(&mut out, "lms flow, compiled", SimBackend::Compiled);
    lms_swept_flow(&mut out);
    sequential_driver_with_trailing_assignments(&mut out);
    lms_direct_with_trailing_assignments(&mut out);
    error_overflow_with_detach(&mut out);

    let path = format!(
        "{}/tests/golden/recorder_identity.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    let expected = std::fs::read_to_string(&path).unwrap_or_default();
    if out != expected {
        let actual = std::env::temp_dir().join("recorder_identity.actual.txt");
        let _ = std::fs::write(&actual, &out);
        let line = out
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .map_or(out.lines().count().min(expected.lines().count()), |i| i);
        panic!(
            "recorder snapshot differs from {path} at line {} (actual written to {})",
            line + 1,
            actual.display()
        );
    }
}
