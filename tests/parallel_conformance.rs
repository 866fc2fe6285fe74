//! Differential conformance suite for the scenario-sweep engine.
//!
//! The contract under test: the merged refinement outcome depends only on
//! the scenario set, never on how many workers simulate it — and a
//! single-scenario sweep is bit-identical to the plain sequential flow,
//! because folding one shard through the merge is the identity.
//!
//! The worker count for the "parallel" side comes from the
//! `FIXREF_TEST_SHARDS` environment variable (the CI matrix sets 1, 2
//! and 8), defaulting to 2.

use std::collections::BTreeSet;

use fixref::obs::Event;
use fixref::refine::{RefinePolicy, RefinementFlow, SweepDriver};
use fixref::sim::{shard_count_from_env, Design, ScenarioSet, SignalStats};
use fixref_bench::{
    lms_paper_scenario, lms_seed_grid, lms_shard_builder, paper_input_type, timing_shard_builder,
    LMS_SNR_DB, TIMING_SNR_DB,
};
use fixref_dsp::{LmsConfig, TimingConfig};
use fixref_fixed::DType;

/// Everything the outcome of a refinement run is judged by.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    /// Decided types by signal name.
    types: Vec<(String, String)>,
    /// The `type_applied` journal events, as a set.
    type_applied: BTreeSet<(String, String)>,
    /// Iteration counts.
    msb_iterations: usize,
    lsb_iterations: usize,
    /// The master design's merged per-signal monitors after verification
    /// (bitwise: exact min/max, error moments, counters).
    stats: Vec<SignalStats>,
}

fn fingerprint(
    design: &Design,
    flow: &RefinementFlow,
    outcome: &fixref::refine::FlowOutcome,
) -> Fingerprint {
    let mut types: Vec<(String, String)> = outcome
        .types
        .iter()
        .map(|(id, t)| (design.name_of(*id), t.to_string()))
        .collect();
    types.sort();
    let type_applied = flow
        .recorder()
        .events()
        .into_iter()
        .filter_map(|e| match e {
            Event::TypeApplied { signal, dtype } => Some((signal, dtype)),
            _ => None,
        })
        .collect();
    Fingerprint {
        types,
        type_applied,
        msb_iterations: outcome.msb_iterations,
        lsb_iterations: outcome.lsb_iterations,
        stats: design.export_stats(),
    }
}

fn lms_config() -> LmsConfig {
    LmsConfig {
        input_dtype: Some(paper_input_type()),
        ..LmsConfig::default()
    }
}

fn timing_config() -> TimingConfig {
    TimingConfig {
        input_dtype: Some(DType::tc("T_in", 7, 5).expect("valid")),
        input_range: None,
        ..TimingConfig::default()
    }
}

/// Runs the full flow over `scenarios` with `workers` threads, using the
/// builder both for the shards and (on scenario 0) for the master design.
fn run_swept(
    builder: Box<fixref::refine::ShardBuilder>,
    force_saturate: &[&str],
    scenarios: &ScenarioSet,
    workers: usize,
) -> Fingerprint {
    let master = builder(&scenarios.as_slice()[0]).design;
    let mut flow = RefinementFlow::new(master.clone(), RefinePolicy::default());
    for name in force_saturate {
        flow.force_saturate(master.find(name).expect("declared"));
    }
    let mut sweep = SweepDriver::new(scenarios.clone(), workers, builder);
    let outcome = flow.run_with(&mut sweep).expect("swept flow converges");
    fingerprint(&master, &flow, &outcome)
}

/// Runs the plain sequential flow on the shard the builder makes for the
/// set's single scenario — the pre-sweep baseline.
fn run_sequential(
    builder: Box<fixref::refine::ShardBuilder>,
    force_saturate: &[&str],
    scenarios: &ScenarioSet,
) -> Fingerprint {
    assert_eq!(scenarios.len(), 1, "sequential baseline is one scenario");
    let shard = builder(&scenarios.as_slice()[0]);
    let design = shard.design;
    let mut stimulus = shard.stimulus;
    let mut flow = RefinementFlow::new(design.clone(), RefinePolicy::default());
    for name in force_saturate {
        flow.force_saturate(design.find(name).expect("declared"));
    }
    let outcome = flow
        .run(move |d: &Design, i: usize| stimulus(d, i))
        .expect("sequential flow converges");
    fingerprint(&design, &flow, &outcome)
}

const LMS_SAMPLES: usize = 1200;
const TIMING_SAMPLES: usize = 4000;

#[test]
fn lms_one_shard_sweep_is_bit_identical_to_sequential_flow() {
    let set = lms_paper_scenario(LMS_SAMPLES);
    let sequential = run_sequential(lms_shard_builder(lms_config()), &[], &set);
    let swept = run_swept(
        lms_shard_builder(lms_config()),
        &[],
        &set,
        shard_count_from_env(2),
    );
    assert_eq!(sequential, swept);
}

#[test]
fn lms_sweep_outcome_is_invariant_under_shard_count() {
    let set = lms_seed_grid(3, LMS_SAMPLES);
    let one = run_swept(lms_shard_builder(lms_config()), &[], &set, 1);
    let many = run_swept(
        lms_shard_builder(lms_config()),
        &[],
        &set,
        shard_count_from_env(2),
    );
    assert_eq!(one, many);
    assert!(!one.types.is_empty(), "refinement decided types");
}

#[test]
fn lms_multi_scenario_ranges_cover_every_scenario() {
    // The merged min/max can only widen as scenarios are added: every
    // single-scenario range must lie inside the grid's merged range.
    let grid = lms_seed_grid(3, LMS_SAMPLES);
    let merged = run_swept(lms_shard_builder(lms_config()), &[], &grid, 1);
    for scenario in &grid {
        let single = ScenarioSet::single(scenario.seed, LMS_SNR_DB, scenario.samples);
        let alone = run_swept(lms_shard_builder(lms_config()), &[], &single, 1);
        for s in &alone.stats {
            let m = merged
                .stats
                .iter()
                .find(|t| t.name == s.name)
                .expect("same signal set");
            if s.stat.count() > 0 {
                assert!(m.stat.min() <= s.stat.min(), "{}", s.name);
                assert!(m.stat.max() >= s.stat.max(), "{}", s.name);
            }
        }
    }
}

#[test]
fn timing_loop_one_shard_sweep_is_bit_identical_to_sequential_flow() {
    let saturate = ["terr", "lp", "lferr", "step", "mu"];
    let set = ScenarioSet::single(31, TIMING_SNR_DB, TIMING_SAMPLES);
    let sequential = run_sequential(timing_shard_builder(timing_config()), &saturate, &set);
    let swept = run_swept(
        timing_shard_builder(timing_config()),
        &saturate,
        &set,
        shard_count_from_env(2),
    );
    assert_eq!(sequential, swept);
}

#[test]
fn timing_loop_sweep_outcome_is_invariant_under_shard_count() {
    let saturate = ["terr", "lp", "lferr", "step", "mu"];
    let set = ScenarioSet::grid(&[31, 32], &[TIMING_SNR_DB], &[], &[TIMING_SAMPLES]);
    let one = run_swept(timing_shard_builder(timing_config()), &saturate, &set, 1);
    let many = run_swept(
        timing_shard_builder(timing_config()),
        &saturate,
        &set,
        shard_count_from_env(2),
    );
    assert_eq!(one, many);
    assert!(!one.types.is_empty(), "refinement decided types");
}
