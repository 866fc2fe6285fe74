//! The run's verdict and metrics, printed as human-readable lines and a
//! final JSON object.

use std::collections::BTreeMap;

use crate::Opts;

/// End-to-end metrics: every workload reports each of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_s.p50", "s"),
    ("latency_s.tail", "s"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run. A layer that does no work on a
/// workload reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("dsp.stimulus_s", "s"),
    ("sim.record_s", "s"),
    ("sim.steady_s", "s"),
    ("sim.calls", "count"),
    ("sim.cycles", "count"),
    ("sim.assignments", "count"),
    ("sim.graph_nodes", "count"),
    ("sim.ns_per_cycle.bare", "ns"),
    ("sim.ns_per_cycle.recorder", "ns"),
    ("sim.ns_per_cycle.graph", "ns"),
    ("sim.recorder_overhead", "ratio"),
    ("core.self_s", "s"),
    ("core.decide_s", "s"),
    ("core.sweep.shard_s.max", "s"),
    ("core.sweep.imbalance", "ratio"),
    ("core.sweep.merge_s", "s"),
    ("core.cache.hit_ratio", "ratio"),
    ("core.checkpoint.write_s", "s"),
    ("core.checkpoint.bytes", "bytes"),
    ("codegen.compiled_runs", "count"),
    ("codegen.fallbacks", "count"),
    ("lint.run_s", "s"),
    ("lint.diagnostics", "count"),
    ("verify.run_s", "s"),
    ("verify.states", "count"),
    ("obs.journal_events", "count"),
    ("serve.ack_s.p50", "s"),
    ("serve.queue_wait_s.p50", "s"),
    ("serve.service_s.p50", "s"),
    ("serve.overhead_ratio", "ratio"),
    ("serve.persisted_bytes", "bytes"),
    ("serve.rejected", "count"),
    ("bench.gen_lag_s.max", "s"),
    ("bench.trace_overhead", "ratio"),
];

fn unit_of(table: &[(&str, &'static str)], name: &str) -> &'static str {
    table
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

/// Accumulates the verdict and the metrics of one run.
#[derive(Debug, Default)]
pub struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    end_to_end: BTreeMap<&'static str, f64>,
    layers: BTreeMap<&'static str, f64>,
}

impl Report {
    /// An empty, so far correct, report.
    pub fn new(opts: &Opts) -> Self {
        println!(
            "perfbench workload={} seed={} seconds={} trace={} nproc={}",
            opts.workload,
            opts.seed,
            opts.seconds,
            u8::from(opts.trace),
            std::thread::available_parallelism().map_or(1, usize::from)
        );
        Report {
            correct: true,
            ..Report::default()
        }
    }

    /// Prints a human-readable line.
    pub fn line(&self, text: impl AsRef<str>) {
        println!("{}", text.as_ref());
    }

    /// A correctness gate: a failed check makes the run incorrect.
    pub fn check(&mut self, what: &str, ok: bool, detail: impl AsRef<str>) {
        let detail = detail.as_ref();
        if ok {
            println!("check ok   {what}");
        } else {
            self.correct = false;
            println!("check FAIL {what}: {detail}");
        }
    }

    /// Counts one attempted refinement or job; `ok == false` counts it as
    /// failed (a failed, rejected or incorrect result).
    pub fn attempt(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Sets an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        unit_of(END_TO_END, name);
        self.end_to_end.insert(name, value);
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        unit_of(PER_LAYER, name);
        self.layers.insert(name, value);
    }

    /// Prints an exact simulated count (identical across commits on the
    /// same seed unless simulated behaviour changed) and, in the traced
    /// run, records it as a per-layer metric.
    pub fn count(&mut self, name: &'static str, value: u64) {
        println!("count {name} = {value}");
        self.layer(name, value as f64);
    }

    /// Prints the summary and, as the last line, the JSON result.
    pub fn finish(mut self, opts: &Opts) {
        self.e2e("peak_rss_mb", peak_rss_mb());
        let fail_ratio = if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        if self.attempted == 0 {
            self.correct = false;
        }
        println!(
            "fail_ratio = {fail_ratio} ({} failed of {} attempted)",
            self.failed, self.attempted
        );
        let (table, values) = if opts.trace {
            (PER_LAYER, &self.layers)
        } else {
            (END_TO_END, &self.end_to_end)
        };
        let mut metrics = Vec::new();
        for (name, unit) in table {
            let value = match values.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(_) => 0.0,
                None if opts.trace => 0.0,
                None => {
                    println!("missing end-to-end metric {name}");
                    self.correct = false;
                    0.0
                }
            };
            println!("metric {name} = {value} {unit}");
            metrics.push(format!(
                r#""{name}":{{"value":{},"unit":"{unit}"}}"#,
                json_number(value)
            ));
        }
        println!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
            self.correct && self.failed == 0,
            self.attempted.max(1),
            if self.attempted == 0 { 1 } else { self.failed },
            metrics.join(",")
        );
    }
}

/// A JSON number with every digit Rust's shortest round-trip rendering
/// gives.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// Peak resident set size of this process (`VmHWM`), megabytes.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
