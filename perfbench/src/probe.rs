//! Isolated simulation probe: the same stimulus on one design run bare,
//! with a recorder attached, and with graph recording on. Each setting
//! is timed from outside with `Design::detach_recorder`,
//! `attach_recorder` and `record_graph`.

use std::sync::Arc;
use std::time::Instant;

use fixref_obs::DefaultRecorder;
use fixref_sim::Design;

use crate::report::Report;
use crate::stats::median;

/// Runs of each setting; the median is reported.
const REPEATS: usize = 3;

/// Probes `design` driven by `step_all` (which runs the whole stimulus
/// once) and reports ns per cycle for each setting.
pub fn probe(report: &mut Report, design: &Design, mut step_all: impl FnMut()) {
    let mut bare = Vec::new();
    let mut recorder = Vec::new();
    let mut graph = Vec::new();
    for _ in 0..REPEATS {
        for (setting, out) in [(0, &mut bare), (1, &mut recorder), (2, &mut graph)] {
            if setting == 0 {
                design.detach_recorder();
            } else {
                design.attach_recorder(Arc::new(DefaultRecorder::new()));
            }
            design.reset_stats();
            design.reset_state();
            design.clear_graph();
            design.record_graph(setting == 2);
            let start_cycle = design.cycle();
            let start = Instant::now();
            step_all();
            let wall = start.elapsed().as_secs_f64();
            design.record_graph(false);
            let cycles = design.cycle().saturating_sub(start_cycle).max(1);
            out.push(wall * 1e9 / cycles as f64);
        }
    }
    design.detach_recorder();
    design.clear_graph();
    let (bare, recorder, graph) = (median(&bare), median(&recorder), median(&graph));
    report.line(format!(
        "probe ns/cycle: bare {bare:.0}, +recorder {recorder:.0}, +graph {graph:.0}"
    ));
    report.layer("sim.ns_per_cycle.bare", bare);
    report.layer("sim.ns_per_cycle.recorder", recorder);
    report.layer("sim.ns_per_cycle.graph", graph);
    report.layer("sim.recorder_overhead", recorder / bare - 1.0);
}
