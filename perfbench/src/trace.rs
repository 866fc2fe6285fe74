//! Spans recorded from the benchmark's own code around each call into a
//! layer, and the [`TimedDriver`] that times the simulation layer from
//! outside the refinement flow.
//!
//! Spans stay in memory and are written once, when the run ends. A
//! span's self time is its duration minus the part of it that its
//! children cover.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use fixref_core::{
    analyze_lsb, analyze_msb, FlowError, FlowOutcome, RefinePolicy, RefinementFlow,
    SequentialDriver, ShardSummary, SimDriver, SimFault, SweepCoverage, SweepDriver,
};
use fixref_lint::Linter;
use fixref_obs::{DefaultRecorder, Event, Phase};
use fixref_sim::{Design, OverflowEvent, SignalStats};
use fixref_verify::Verifier;

use crate::report::Report;
use crate::stats::median;
use crate::Opts;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Layer boundary name, e.g. `sim.record`.
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Refinement (flow or job) the span belongs to.
    pub flow: u64,
}

/// In-memory span store. Spans nest by call order on the thread that
/// records them; intervals observed from outside (a served job's queue
/// wait) are added with an explicit parent.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: RefCell<Vec<SpanRec>>,
    stack: RefCell<Vec<usize>>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    /// Nanoseconds since the tracer started.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&self, name: &'static str, flow: u64) -> usize {
        let parent = self.stack.borrow().last().copied();
        let now = self.ns(Instant::now());
        let mut spans = self.spans.borrow_mut();
        spans.push(SpanRec {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            flow,
        });
        let id = spans.len() - 1;
        self.stack.borrow_mut().push(id);
        id
    }

    /// Closes span `id` (and any span left open inside it).
    pub fn end(&self, id: usize) {
        let now = self.ns(Instant::now());
        self.spans.borrow_mut()[id].end_ns = now;
        let mut stack = self.stack.borrow_mut();
        while let Some(top) = stack.pop() {
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&self, name: &'static str, flow: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, flow);
        let out = f();
        self.end(id);
        out
    }

    /// Records an interval observed from outside the call stack.
    pub fn interval(
        &self,
        name: &'static str,
        flow: u64,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let mut spans = self.spans.borrow_mut();
        spans.push(SpanRec {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            flow,
        });
        spans.len() - 1
    }

    /// Self time of span `id`, seconds: its duration minus the union of
    /// its children's intervals (clipped to it).
    pub fn self_s(&self, id: usize) -> f64 {
        let spans = self.spans.borrow();
        let me = &spans[id];
        let mut kids: Vec<(u64, u64)> = spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut cursor = me.start_ns;
        for (a, b) in kids {
            let a = a.max(cursor);
            if b > a {
                covered += b - a;
                cursor = b;
            }
        }
        me.end_ns
            .saturating_sub(me.start_ns)
            .saturating_sub(covered) as f64
            * 1e-9
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"id":{i},"name":"{}","flow":{},"parent":{parent},"start_ns":{},"end_ns":{},"self_ns":{}}}"#,
                s.name,
                s.flow,
                s.start_ns,
                s.end_ns,
                (self.self_s(i) * 1e9).round() as u64
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Gives the timing wrapper a view of the shard timings of the driver it
/// wraps.
pub trait ShardView {
    /// Per-shard summaries of the most recent simulation, if the driver
    /// fans out over scenarios.
    fn shards(&self) -> &[ShardSummary] {
        &[]
    }
}

impl ShardView for SweepDriver {
    fn shards(&self) -> &[ShardSummary] {
        self.shard_summaries()
    }
}

impl<F: FnMut(&Design, usize)> ShardView for SequentialDriver<F> {}

/// Per-refinement figures gathered by [`TimedDriver`].
#[derive(Debug, Clone, Default)]
pub struct LayerTally {
    /// Simulations run (driver returns).
    pub calls: u64,
    /// Wall time of graph-recording simulations, seconds.
    pub record_s: f64,
    /// Wall time of the other simulations (verify run included), seconds.
    pub steady_s: f64,
    /// `Design::graph().len()` after the record iteration.
    pub graph_nodes: u64,
    /// `analyze_msb`/`analyze_lsb` over `Design::reports()`, seconds.
    pub decide_s: f64,
    /// `Linter::run` on the recorded, unrefined design, seconds.
    pub lint_s: f64,
    /// Diagnostics of that lint run.
    pub lint_diagnostics: u64,
    /// `Verifier::verify_design` on that report, seconds.
    pub verify_s: f64,
    /// States explored by that verification.
    pub verify_states: u64,
    /// `code signal verdict` of each lint finding, for the run's text.
    pub findings: Vec<String>,
    /// Self time of the refinement span: flow wall minus driver time.
    pub self_s: f64,
    /// Slowest shard of each swept simulation, seconds.
    pub shard_max_s: Vec<f64>,
    /// Slowest over mean shard time of each swept simulation.
    pub imbalance: Vec<f64>,
    /// Simulate wall minus the pool's critical path, per swept simulation.
    pub merge_s: Vec<f64>,
}

/// A [`SimDriver`] that times every simulation the flow asks for and, on
/// the record iteration, re-runs lint and verification on the recorded
/// design so those layers are timed from outside too. Everything else is
/// forwarded unchanged, so the flow's outcome is the same as with the
/// wrapped driver alone.
pub struct TimedDriver<'t, D> {
    inner: D,
    tracer: &'t Tracer,
    flow: u64,
    workers: usize,
    iterations_seen: usize,
    verify: bool,
    policy: RefinePolicy,
    tally: LayerTally,
}

impl<'t, D: SimDriver + ShardView> TimedDriver<'t, D> {
    /// Wraps `inner`; spans go to `tracer` under refinement id `flow`.
    /// `workers` is the pool width the shard critical path is judged by.
    pub fn new(inner: D, tracer: &'t Tracer, flow: u64, workers: usize) -> Self {
        TimedDriver {
            inner,
            tracer,
            flow,
            workers: workers.max(1),
            iterations_seen: 0,
            verify: true,
            policy: RefinePolicy::default(),
            tally: LayerTally::default(),
        }
    }

    /// Runs `flow` over this driver inside a `refine` span. Returns the
    /// outcome, the refinement's wall time and its layer figures.
    pub fn refine(
        mut self,
        flow: &mut RefinementFlow,
    ) -> (Result<FlowOutcome, FlowError>, f64, LayerTally) {
        let span = self.tracer.begin("refine", self.flow);
        let start = Instant::now();
        let result = flow.run_with(&mut self);
        let wall = start.elapsed().as_secs_f64();
        self.tracer.end(span);
        self.tally.self_s = self.tracer.self_s(span);
        (result, wall, self.tally)
    }

    /// Skips the verification re-run, for flows that do not verify.
    pub fn without_verify(mut self) -> Self {
        self.verify = false;
        self
    }

    fn note_shards(&mut self, wall_s: f64) {
        let shards = self.inner.shards();
        if shards.is_empty() {
            return;
        }
        let walls: Vec<f64> = shards.iter().map(|s| s.wall_ns as f64 * 1e-9).collect();
        let max = walls.iter().copied().fold(0.0, f64::max);
        let mean = crate::stats::mean(&walls);
        let critical = max.max(walls.iter().sum::<f64>() / self.workers as f64);
        self.tally.shard_max_s.push(max);
        if mean > 0.0 {
            self.tally.imbalance.push(max / mean);
        }
        self.tally.merge_s.push((wall_s - critical).max(0.0));
    }

    /// The phase of the iteration this simulation served, or `None` for
    /// the verification run (which starts no iteration).
    fn phase_of_call(&mut self, recorder: &DefaultRecorder) -> Option<Phase> {
        let started = recorder.query(|e| matches!(e, Event::IterationStarted { .. }));
        if started.len() == self.iterations_seen {
            return None;
        }
        self.iterations_seen = started.len();
        match started.last() {
            Some(Event::IterationStarted { phase, .. }) => Some(*phase),
            _ => None,
        }
    }

    fn gate_layers(&mut self, design: &Design) {
        let (t, flow) = (self.tracer, self.flow);
        self.tally.graph_nodes = design.graph().len() as u64;
        let start = Instant::now();
        let report = t.time("lint.run", flow, || Linter::new().run(design));
        self.tally.lint_s += start.elapsed().as_secs_f64();
        self.tally.lint_diagnostics += report.diagnostics.len() as u64;
        let report = if self.verify {
            let start = Instant::now();
            let verified = t.time("verify.run", flow, || {
                Verifier::new().verify_design(design, &report, None)
            });
            self.tally.verify_s += start.elapsed().as_secs_f64();
            self.tally.verify_states += verified
                .outcomes
                .iter()
                .map(|o| o.states as u64)
                .sum::<u64>();
            verified.report
        } else {
            report
        };
        self.tally.findings = report
            .diagnostics
            .iter()
            .map(|d| {
                let verdict = d
                    .verdict
                    .as_ref()
                    .map_or("unchecked".into(), |v| v.as_str());
                format!("{} {} {verdict}", d.code.as_str(), d.signal)
            })
            .collect();
    }
}

impl<D: SimDriver + ShardView> SimDriver for TimedDriver<'_, D> {
    fn simulate(
        &mut self,
        design: &Design,
        recorder: &Arc<DefaultRecorder>,
        iteration: usize,
        record_graph: bool,
    ) -> Result<u64, SimFault> {
        let name = if record_graph {
            "sim.record"
        } else {
            "sim.steady"
        };
        let start = Instant::now();
        let out = self.tracer.time(name, self.flow, || {
            self.inner
                .simulate(design, recorder, iteration, record_graph)
        });
        let wall = start.elapsed().as_secs_f64();
        self.tally.calls += 1;
        if record_graph {
            self.tally.record_s += wall;
        } else {
            self.tally.steady_s += wall;
        }
        self.note_shards(wall);
        if record_graph {
            self.gate_layers(design);
        }
        if let Some(phase) = self.phase_of_call(recorder) {
            let policy = &self.policy;
            let start = Instant::now();
            // The analyses are pure; black_box keeps them from being elided.
            self.tracer.time("core.decide", self.flow, || {
                for r in &design.reports() {
                    match phase {
                        Phase::Msb => drop(std::hint::black_box(analyze_msb(r, policy))),
                        Phase::Lsb => drop(std::hint::black_box(analyze_lsb(r, policy))),
                    }
                }
            });
            self.tally.decide_s += start.elapsed().as_secs_f64();
        }
        out
    }

    fn coverage(&self) -> Option<SweepCoverage> {
        self.inner.coverage()
    }

    fn cache_is_warm(&self) -> bool {
        self.inner.cache_is_warm()
    }

    fn cache_snapshot(&self) -> Option<(Vec<SignalStats>, Vec<OverflowEvent>, u64)> {
        self.inner.cache_snapshot()
    }

    fn resume_invalidation(&mut self, dirty: usize) {
        self.inner.resume_invalidation(dirty);
    }
}

/// Reports the flow-level layer metrics: medians per refinement over the
/// traced refinements, and the first one's exact counts.
pub fn report_flow_layers(report: &mut Report, tallies: &[LayerTally]) {
    let per_flow = |f: &dyn Fn(&LayerTally) -> f64| -> f64 {
        median(&tallies.iter().map(f).collect::<Vec<_>>())
    };
    let per_sim = |f: &dyn Fn(&LayerTally) -> &[f64]| -> f64 {
        median(
            &tallies
                .iter()
                .flat_map(|t| f(t).to_vec())
                .collect::<Vec<_>>(),
        )
    };
    report.layer("sim.record_s", per_flow(&|t| t.record_s));
    report.layer("sim.steady_s", per_flow(&|t| t.steady_s));
    report.layer("core.self_s", per_flow(&|t| t.self_s));
    report.layer("core.decide_s", per_flow(&|t| t.decide_s));
    report.layer("core.sweep.shard_s.max", per_sim(&|t| &t.shard_max_s));
    report.layer("core.sweep.imbalance", per_sim(&|t| &t.imbalance));
    report.layer(
        "core.sweep.merge_s",
        per_flow(&|t| t.merge_s.iter().fold(0.0, |a, b| a + b)),
    );
    report.layer("lint.run_s", per_flow(&|t| t.lint_s));
    report.layer("verify.run_s", per_flow(&|t| t.verify_s));
    if let Some(first) = tallies.first() {
        report.count("sim.calls", first.calls);
        report.count("sim.graph_nodes", first.graph_nodes);
        report.count("lint.diagnostics", first.lint_diagnostics);
        report.count("verify.states", first.verify_states);
        report.line(format!("lint findings: {}", first.findings.join("; ")));
    }
}

/// Writes the run's spans under the output directory.
pub fn write_spans(tracer: &Tracer, opts: &Opts, report: &Report) -> Result<(), String> {
    let path = opts
        .out_dir()
        .join(format!("spans-{}-seed{}.jsonl", opts.workload, opts.seed));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    report.line(format!(
        "spans: {} written to {}",
        tracer.len(),
        path.display()
    ));
    Ok(())
}
