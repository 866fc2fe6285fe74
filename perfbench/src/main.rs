//! The fixref benchmark: wall time of whole refinement flows and of
//! served refinement jobs, split by layer in a traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload lms_refine --seed 1 --seconds 45 --trace 0
//! ```
//!
//! Workloads: `lms_refine`, `timing_sweep`, `serve_mixed` (see
//! `perfbench/README.md` for why each exists and which layers it loads).
//! Human-readable lines come first; the last line of standard output is
//! one JSON object `{"correct","attempted","failed","metrics"}` holding
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`).

mod closed;
mod gate;
mod probe;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Report;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Measurement window, seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

impl Opts {
    /// Where run artifacts (span files, the server's data directory) go.
    pub fn out_dir(&self) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

fn parse_args() -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Opts {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload lms_refine|timing_sweep|serve_mixed \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let mut report = Report::new(&opts);
    let run = match opts.workload.as_str() {
        "lms_refine" => closed::run(closed::Kind::Lms, &opts, &mut report),
        "timing_sweep" => closed::run(closed::Kind::Timing, &opts, &mut report),
        "serve_mixed" => serve::run(&opts, &mut report),
        other => Err(format!("unknown workload {other:?}")),
    };
    if let Err(e) = run {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    report.finish(&opts);
    ExitCode::SUCCESS
}
