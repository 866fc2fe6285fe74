//! The open-loop `serve_mixed` workload: one thread and one TCP
//! connection speak the line protocol to an in-process `fixref-serve`
//! with one worker, submitting a seeded job mix on a precomputed Poisson
//! schedule for three tenants.
//!
//! Job mix: 60% `lms` with `"cache":true` (the README's submit), 20%
//! `lms` with `"backend":"compiled"`, 20% `timing` with the five
//! knowledge-based `force_saturate` hints. Each job is timed from when it
//! was due, and completion is observed by polling `status`.
//!
//! [`served_session`] serves the same mix briefly inside `lms_refine`, so
//! the serve layers are measured on a workload steady enough for
//! `BENCHMARK.json`.

use std::io::{BufRead as _, BufReader, Write as _};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fixref_core::{Checkpoint, FlowSpec, JobSpec, RefinePolicy, RefinementFlow, SequentialDriver};
use fixref_obs::Json;
use fixref_serve::job::render_annotation;
use fixref_serve::protocol::serve_listener;
use fixref_serve::{DesignRegistry, JobLog, JobResult, Server, ServerConfig, WalRecord};
use fixref_sim::{Design, DesignSpec, ScenarioSet};

use crate::closed::{self, KNOWLEDGE_SATURATIONS};
use crate::report::Report;
use crate::stats::{mean, median, tail, Rng};
use crate::trace::{LayerTally, TimedDriver, Tracer};
use crate::{gate, probe, Opts};

/// Offered rate of the `low` phase, jobs/s. One worker's capacity for this
/// mix measured 85-95 jobs/s on the 2-vCPU host the benchmark was defined
/// on and 30-50 jobs/s while that host was contended; 8 jobs/s keeps the
/// load light (10-25%) in both, so this phase's latency tracks service
/// time rather than queueing.
const LOW_RATE: f64 = 8.0;
/// Offered rate of the `high` phase, jobs/s (about 80% of the uncontended
/// capacity).
const HIGH_RATE: f64 = 78.0;
/// Rung `k` of the fixed rate ladder offers `LADDER_BASE * LADDER_STEP^k`
/// jobs/s (rounded to 0.1). `sustained_jobs_per_s` is the highest rung
/// found to meet the limit, searched from the first rung at or above
/// `HIGH_RATE`.
const LADDER_BASE: f64 = 10.0;
/// Ratio between neighbouring rungs.
const LADDER_STEP: f64 = 1.04;
/// Number of rungs (the top one offers about 490 jobs/s).
const LADDER_RUNGS: usize = 100;
/// Tail-latency limit a ladder rung must meet, seconds.
const LATENCY_LIMIT_S: f64 = 0.2;
/// Status poll interval, seconds.
const POLL_S: f64 = 0.002;
/// Outstanding jobs polled per tick (oldest first).
const POLL_BATCH: usize = 8;
/// Server opens timed at set-up; `setup_s` is their median.
const SETUP_REPEATS: usize = 25;
/// Jobs already completed in the WAL the server replays at open.
const WAL_JOBS: usize = 200;
/// Tenants sharing the server.
const TENANTS: [&str; 3] = ["acme", "globex", "initech"];
/// Stimulus samples of `lms` and `timing` jobs.
const LMS_JOB_SAMPLES: usize = 250;
const TIMING_JOB_SAMPLES: usize = 500;
/// Direct (unserved) refinements of the mix in the traced run.
const DIRECT_RUNS: usize = 20;
/// Span refinement ids of direct runs and served jobs start here, clear
/// of the closed-loop flows' ids.
const DIRECT_SPAN_BASE: u64 = 1_000_000;
const JOB_SPAN_BASE: u64 = 2_000_000;

/// The three job kinds of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobKind {
    LmsCached,
    LmsCompiled,
    Timing,
}

fn job_spec(kind: JobKind, tenant: &str, seed: u64) -> JobSpec {
    match kind {
        JobKind::LmsCached | JobKind::LmsCompiled => {
            let flow = if kind == JobKind::LmsCached {
                FlowSpec {
                    cache: true,
                    ..FlowSpec::default()
                }
            } else {
                FlowSpec {
                    backend: "compiled".into(),
                    ..FlowSpec::default()
                }
            };
            JobSpec::new(
                tenant,
                DesignSpec::new("lms").with_param("mu", 0.0625),
                ScenarioSet::single(seed, 28.0, LMS_JOB_SAMPLES),
            )
            .with_flow(flow)
        }
        JobKind::Timing => JobSpec::new(
            tenant,
            DesignSpec::new("timing"),
            ScenarioSet::single(seed, 20.0, TIMING_JOB_SAMPLES),
        )
        .with_flow(FlowSpec {
            force_saturate: KNOWLEDGE_SATURATIONS
                .iter()
                .map(|s| s.to_string())
                .collect(),
            ..FlowSpec::default()
        }),
    }
}

fn submit_line(spec: &JobSpec) -> String {
    format!(r#"{{"cmd":"submit","spec":{}}}"#, spec.to_json())
}

/// One scheduled submission.
struct Arrival {
    at: Duration,
    line: String,
}

/// A schedule of `rate * seconds` arrivals at uniformly random times in
/// the window (a Poisson process conditioned on its count), with the
/// mix's kinds in exact 60/20/20 proportion in random order. Fixing the
/// count and the proportions keeps seed-to-seed differences down to
/// arrival timing.
fn schedule(rng: &mut Rng, rate: f64, seconds: f64) -> Vec<Arrival> {
    let n = (rate * seconds).round().max(1.0) as usize;
    let mut kinds: Vec<JobKind> = (0..n)
        .map(|i| match (i * 5) / n {
            0..=2 => JobKind::LmsCached,
            3 => JobKind::LmsCompiled,
            _ => JobKind::Timing,
        })
        .collect();
    for i in (1..n).rev() {
        kinds.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    let mut times: Vec<f64> = (0..n).map(|_| rng.unit() * seconds).collect();
    times.sort_by(f64::total_cmp);
    times
        .into_iter()
        .zip(kinds)
        .map(|(t, kind)| {
            let tenant = TENANTS[(rng.next_u64() % TENANTS.len() as u64) as usize];
            let spec = job_spec(kind, tenant, rng.next_u64() >> 33);
            Arrival {
                at: Duration::from_secs_f64(t),
                line: submit_line(&spec),
            }
        })
        .collect()
}

/// The single connection speaking the line protocol.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: String,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            buf: String::new(),
        })
    }

    /// One request/response round trip; returns the raw response line.
    fn call_raw(&mut self, line: &str) -> Result<&str, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        self.buf.clear();
        let n = self
            .reader
            .read_line(&mut self.buf)
            .map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        Ok(self.buf.trim_end())
    }

    fn call(&mut self, line: &str) -> Result<Json, String> {
        let raw = self.call_raw(line)?;
        Json::parse(raw).map_err(|e| format!("bad response {raw:?}: {e}"))
    }
}

/// What became of one submitted job.
#[derive(Debug, Clone)]
struct JobRec {
    due: Instant,
    submitted: Instant,
    acked: Instant,
    id: Option<String>,
    started: Option<Instant>,
    done: Option<Instant>,
    ok: bool,
}

impl JobRec {
    fn latency_s(&self) -> Option<f64> {
        self.done.map(|d| d.duration_since(self.due).as_secs_f64())
    }
}

/// Submits `arrivals` on schedule from `t0` and polls until every
/// accepted job finished (or `give_up` passes). Returns the records and
/// the backlog left when the last arrival was submitted.
fn run_schedule(
    client: &mut Client,
    arrivals: &[Arrival],
    give_up: Duration,
) -> Result<(Vec<JobRec>, usize), String> {
    let poll = Duration::from_secs_f64(POLL_S);
    let t0 = Instant::now();
    let mut recs: Vec<JobRec> = Vec::with_capacity(arrivals.len());
    let mut outstanding: Vec<usize> = Vec::new();
    let mut backlog_at_end = 0;
    let mut next = 0;
    let mut next_poll = t0;
    loop {
        let now = Instant::now();
        if next < arrivals.len() && t0 + arrivals[next].at <= now {
            let due = t0 + arrivals[next].at;
            let submitted = Instant::now();
            let resp = client.call(&arrivals[next].line)?;
            let acked = Instant::now();
            let id = resp.get("job").and_then(Json::as_str).map(str::to_string);
            let accepted = resp.get("ok").and_then(Json::as_bool) == Some(true) && id.is_some();
            recs.push(JobRec {
                due,
                submitted,
                acked,
                id,
                started: None,
                done: (!accepted).then_some(acked),
                ok: false,
            });
            if accepted {
                outstanding.push(recs.len() - 1);
            }
            next += 1;
            if next == arrivals.len() {
                backlog_at_end = outstanding.len();
            }
            continue;
        }
        if next == arrivals.len() && outstanding.is_empty() {
            break;
        }
        if now.duration_since(t0) > give_up {
            // Unfinished jobs stay without `done` and count as failed.
            break;
        }
        if !outstanding.is_empty() && now >= next_poll {
            let mut finished = Vec::new();
            for &i in outstanding.iter().take(POLL_BATCH) {
                let id = recs[i].id.clone().expect("accepted jobs have an id");
                let resp = client.call(&format!(r#"{{"cmd":"status","job":"{id}"}}"#))?;
                let seen = Instant::now();
                let status = resp.get("status");
                let state = status.and_then(|s| s.get("state")).and_then(Json::as_str);
                match state {
                    Some("running") if recs[i].started.is_none() => recs[i].started = Some(seen),
                    Some("finished") | Some("cancelled") => {
                        let outcome = status.and_then(|s| s.get("status")).and_then(Json::as_str);
                        recs[i].ok = state == Some("finished") && outcome == Some("complete");
                        recs[i].done = Some(seen);
                        finished.push(i);
                    }
                    _ => {}
                }
            }
            outstanding.retain(|i| !finished.contains(i));
            next_poll = Instant::now() + poll;
            continue;
        }
        // Sleep until the next arrival is due or, with jobs outstanding,
        // the next poll, whichever is first.
        let next_due = arrivals.get(next).map(|a| t0 + a.at);
        let wake = match (outstanding.is_empty(), next_due) {
            (true, Some(due)) => due,
            (_, due) => due.map_or(next_poll, |d| d.min(next_poll)),
        };
        let now = Instant::now();
        if wake > now {
            std::thread::sleep((wake - now).min(poll));
        }
    }
    Ok((recs, backlog_at_end))
}

fn ladder_rate(k: usize) -> f64 {
    (LADDER_BASE * LADDER_STEP.powi(k as i32) * 10.0).round() / 10.0
}

/// One ladder rung's records and whether it met the limit.
type Rung = (f64, Vec<JobRec>, bool);

/// Runs ladder rungs of `rung_s` seconds each (see [`LADDER_BASE`]).
fn ladder_search(
    client: &mut Client,
    seed: u64,
    rung_s: f64,
    report: &Report,
) -> Result<Vec<Rung>, String> {
    let first = (0..LADDER_RUNGS)
        .find(|&k| ladder_rate(k) >= HIGH_RATE)
        .unwrap_or(LADDER_RUNGS - 1);
    let mut rungs: Vec<Rung> = Vec::new();
    // Gallop away from the first rung until the limit is bracketed, then
    // bisect: a handful of rungs, however far capacity moved.
    let mut met: Option<usize> = None;
    let mut missed: Option<usize> = None;
    let mut stride = 1;
    let mut k = first;
    loop {
        let rate = ladder_rate(k);
        // Each rung draws its own arrivals, so a rung's inputs do not
        // depend on which rungs ran before it.
        let arrivals = schedule(&mut Rng::new(seed, 100 + k as u64), rate, rung_s);
        let (recs, backlog) =
            run_schedule(client, &arrivals, Duration::from_secs_f64(rung_s + 30.0))?;
        let st = phase_stats(&recs);
        // The backlog grows when the queue left at the last arrival holds
        // more jobs than can drain within the limit at the offered rate.
        let growing = backlog as f64 > (rate * LATENCY_LIMIT_S).max(5.0);
        let meets = st.failed == 0 && st.tail.value <= LATENCY_LIMIT_S && !growing;
        report.line(format!(
            "ladder {rate:>6.1}/s: {} jobs, p50 {:.4} s, tail {:.4} s ({}), backlog {backlog}{}",
            st.jobs,
            st.p50,
            st.tail.value,
            st.tail.label(),
            if meets { "" } else { "  <- misses the limit" }
        ));
        rungs.push((rate, recs, meets));
        if meets {
            met = Some(met.map_or(k, |m| m.max(k)));
        } else {
            missed = Some(missed.map_or(k, |m| m.min(k)));
        }
        let next = match (met, missed) {
            (Some(lo), Some(hi)) => (hi > lo + 1).then_some((lo + hi) / 2),
            (Some(lo), None) => {
                (lo + 1 < LADDER_RUNGS).then_some((lo + stride).min(LADDER_RUNGS - 1))
            }
            (None, Some(hi)) => (hi > 0).then_some(hi.saturating_sub(stride)),
            (None, None) => None,
        };
        stride *= 2;
        match next {
            Some(n) => k = n,
            None => break,
        }
    }
    Ok(rungs)
}

/// Latency figures of one phase.
struct PhaseStats {
    p50: f64,
    tail: crate::stats::Tail,
    failed: usize,
    jobs: usize,
}

fn phase_stats(recs: &[JobRec]) -> PhaseStats {
    // A failed, rejected or unfinished job misses every latency limit.
    let lat: Vec<f64> = recs
        .iter()
        .map(|r| match (r.ok, r.latency_s()) {
            (true, Some(l)) => l,
            _ => f64::INFINITY,
        })
        .collect();
    PhaseStats {
        p50: median(&lat),
        tail: tail(&lat),
        failed: recs.iter().filter(|r| !r.ok).count(),
        jobs: recs.len(),
    }
}

/// A data directory whose WAL holds `WAL_JOBS` completed jobs, so opening
/// the server replays a log.
fn wal_template(dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut log = JobLog::open(dir.join("jobs.wal")).map_err(|e| format!("wal: {e}"))?;
    for seq in 1..=WAL_JOBS as u64 {
        let job = format!("j-{seq}");
        let spec = job_spec(JobKind::LmsCached, TENANTS[seq as usize % 3], seq);
        for record in [
            WalRecord::Accepted {
                seq,
                job: job.clone(),
                spec: Box::new(spec),
            },
            WalRecord::Started {
                job: job.clone(),
                attempt: 0,
            },
            WalRecord::Completed {
                job,
                status: "complete".into(),
            },
        ] {
            log.append(&record).map_err(|e| format!("wal: {e}"))?;
        }
    }
    Ok(())
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| format!("mkdir {}: {e}", to.display()))?;
    for entry in std::fs::read_dir(from).map_err(|e| format!("read_dir: {e}"))? {
        let entry = entry.map_err(|e| format!("read_dir: {e}"))?;
        if entry.path().is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))
                .map_err(|e| format!("copy: {e}"))?;
        }
    }
    Ok(())
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| {
            let p = e.path();
            if p.is_dir() {
                dir_bytes(&p)
            } else {
                e.metadata().map_or(0, |m| m.len())
            }
        })
        .sum()
}

fn server_config(dir: &Path) -> ServerConfig {
    let mut config = ServerConfig::new(dir);
    // Overload must show as latency and backlog, never as rejections:
    // the queue is sized past anything the ladder can build up.
    config.queue_capacity = 1 << 16;
    config.tenant_queue_capacity = 1 << 16;
    config
}

/// What a direct run produced.
struct DirectRun {
    /// The result in the server's shape (empty job id and journal).
    result: JobResult,
    /// The finished flow, for its counters.
    flow: RefinementFlow,
    /// Registry build of the design and its stimulus, seconds.
    build_s: f64,
    /// The refinement's wall time, seconds.
    wall_s: f64,
    /// Traced runs: the layer figures.
    traced: Option<LayerTally>,
}

/// A direct (unserved) run of `spec` through the registry, configured the
/// way the server runs it. Returns the result in the server's shape plus
/// the flow for its counters.
fn direct_run(
    spec: &JobSpec,
    checkpoint: Option<&Path>,
    tracer: Option<(&Tracer, u64)>,
) -> Result<DirectRun, String> {
    let registry = DesignRegistry::builtin();
    let builder = registry.build(&spec.design).map_err(|e| e.to_string())?;
    let start = Instant::now();
    let shard = builder(&spec.scenarios.as_slice()[0]);
    let build_s = start.elapsed().as_secs_f64();
    let design: Design = shard.design;
    let mut stimulus = shard.stimulus;
    let mut flow = RefinementFlow::new(design.clone(), RefinePolicy::default());
    for name in &spec.flow.force_saturate {
        let id = design
            .find(name)
            .ok_or_else(|| format!("unknown signal {name}"))?;
        flow.force_saturate(id);
    }
    if let Some(path) = checkpoint {
        flow.checkpoint_to(path.to_path_buf());
    }
    spec.flow.configure(&mut flow).map_err(|e| e.to_string())?;
    let sim = move |d: &Design, i: usize| stimulus(d, i);
    let mut driver = if spec.flow.cache {
        SequentialDriver::with_cache(sim)
    } else {
        SequentialDriver::new(sim)
    };
    driver.set_backend(spec.flow.sim_backend().map_err(|e| e.to_string())?);
    let (outcome, wall, traced) = match tracer {
        None => {
            let start = Instant::now();
            let r = flow.run_with(&mut driver);
            (r, start.elapsed().as_secs_f64(), None)
        }
        Some((t, id)) => {
            // Served flows do not verify, so neither does the re-run.
            let (r, wall, tally) = TimedDriver::new(driver, t, id, 1)
                .without_verify()
                .refine(&mut flow);
            (r, wall, Some(tally))
        }
    };
    let outcome = outcome.map_err(|e| e.to_string())?;
    let mut types: Vec<(String, String)> = outcome
        .types
        .iter()
        .map(|(id, t)| (design.name_of(*id), t.to_string()))
        .collect();
    types.sort();
    let result = JobResult {
        job: String::new(),
        tenant: spec.tenant.clone(),
        status: if outcome.status.is_partial() {
            "partial".into()
        } else {
            "complete".into()
        },
        reason: None,
        attempts: 1,
        msb_iterations: outcome.msb_iterations,
        lsb_iterations: outcome.lsb_iterations,
        coverage: None,
        types,
        annotations: design.annotations().iter().map(render_annotation).collect(),
        journal: Vec::new(),
    };
    Ok(DirectRun {
        result,
        flow,
        build_s,
        wall_s: wall,
        traced,
    })
}

/// The registry's bit-comparability promise: a served job's decided types
/// and annotations equal a direct run of the same spec.
fn served_equals_direct(client: &mut Client, report: &mut Report) -> Result<u64, String> {
    let spec = job_spec(JobKind::LmsCached, "acme", 7);
    let resp = client.call(&submit_line(&spec))?;
    let job = resp
        .get("job")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("comparison job rejected: {resp:?}"))?
        .to_string();
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let resp = client.call(&format!(r#"{{"cmd":"status","job":"{job}"}}"#))?;
        let state = resp
            .get("status")
            .and_then(|s| s.get("state"))
            .and_then(Json::as_str);
        if state == Some("finished") || state == Some("cancelled") {
            break;
        }
        if Instant::now() > deadline {
            return Err("comparison job did not finish within 60 s".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let raw = client.call_raw(&format!(r#"{{"cmd":"result","job":"{job}"}}"#))?;
    let served = raw
        .strip_prefix(r#"{"ok":true,"result":"#)
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| format!("no result for {job}: {raw}"))
        .and_then(|s| JobResult::from_json(s).map_err(|e| e.to_string()))?;
    let direct = direct_run(&spec, None, None)?.result;
    let same = served.status == "complete"
        && served.types == direct.types
        && served.annotations == direct.annotations
        && served.msb_iterations == direct.msb_iterations
        && served.lsb_iterations == direct.lsb_iterations;
    report.check(
        "served lms job equals the direct run of its spec",
        same,
        format!(
            "served {} types / {} annotations vs direct {} / {}",
            served.types.len(),
            served.annotations.len(),
            direct.types.len(),
            direct.annotations.len()
        ),
    );
    let journal = client.call(&format!(r#"{{"cmd":"journal","job":"{job}"}}"#))?;
    Ok(journal
        .get("events")
        .and_then(Json::as_arr)
        .map_or(0, |e| e.len() as u64))
}

/// Runs the workload.
///
/// # Errors
///
/// Protocol or I/O failures that stop the benchmark itself.
pub fn run(opts: &Opts, report: &mut Report) -> Result<(), String> {
    gate::paper_tables(report)?;
    report.line(format!(
        "inputs: open loop, one connection, 1 worker, 3 tenants; mix 60% lms {LMS_JOB_SAMPLES} \
         samples cache / 20% lms compiled / 20% timing {TIMING_JOB_SAMPLES} samples; \
         rates low {LOW_RATE}/s, high {HIGH_RATE}/s; limit {LATENCY_LIMIT_S} s on the tail; \
         status polled every {POLL_S} s"
    ));
    let root = opts
        .out_dir()
        .join(format!("serve-{}-{}", opts.seed, std::process::id()));
    let result = run_in(opts, report, &root);
    let _ = std::fs::remove_dir_all(&root);
    result
}

fn run_in(opts: &Opts, report: &mut Report, root: &Path) -> Result<(), String> {
    let template = root.join("template");
    wal_template(&template)?;

    // Set-up: open the server (WAL replay included) on fresh copies of the
    // template; the last one opened is the server under test.
    let mut setup = Vec::new();
    let mut opened = None;
    for i in 0..SETUP_REPEATS {
        let dir = root.join(format!("data-{i}"));
        copy_dir(&template, &dir)?;
        let start = Instant::now();
        let server = Server::open(server_config(&dir)).map_err(|e| e.to_string())?;
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        setup.push(start.elapsed().as_secs_f64());
        opened = Some((server, listener, dir));
    }
    report.e2e("setup_s", median(&setup));
    let (server, listener, data_dir) = opened.expect("at least one set-up repetition");

    // Inputs: every schedule is drawn before anything is timed.
    // The gated `low` phase gets the larger share of the window.
    let (low_s, high_s) = (opts.seconds * 0.6, opts.seconds * 0.1);
    let rung_s = opts.seconds / 20.0;
    let mut rng = Rng::new(opts.seed, 10);
    let low = schedule(&mut rng, LOW_RATE, low_s);
    let high = schedule(&mut rng, HIGH_RATE, high_s);
    // The saturation burst: a backlog of jobs all due at once.
    let mut burst = schedule(&mut rng, HIGH_RATE, opts.seconds * 0.1);
    for a in &mut burst {
        a.at = Duration::ZERO;
    }

    let tracer = Tracer::new();
    let outcome = with_server(&server, &listener, |client| {
        let journal_events = served_equals_direct(client, report)?;
        let (low_recs, _) = run_schedule(client, &low, Duration::from_secs_f64(low_s + 30.0))?;
        let (high_recs, _) = run_schedule(client, &high, Duration::from_secs_f64(high_s + 30.0))?;
        let burst_start = Instant::now();
        let (burst_recs, _) = run_schedule(client, &burst, Duration::from_secs(60))?;
        let rungs = ladder_search(client, opts.seed, rung_s, report)?;
        Ok((
            journal_events,
            low_recs,
            high_recs,
            (burst_start, burst_recs),
            rungs,
        ))
    });
    let (journal_events, low_recs, high_recs, (burst_start, burst_recs), rungs) = outcome?;

    for recs in [&low_recs, &high_recs, &burst_recs] {
        for r in recs {
            report.attempt(r.ok);
        }
    }
    for (_, recs, _) in &rungs {
        for r in recs {
            report.attempt(r.ok);
        }
    }

    let low_stats = phase_stats(&low_recs);
    let high_stats = phase_stats(&high_recs);
    let sustained = rungs
        .iter()
        .filter(|(_, _, meets)| *meets)
        .map(|(rate, _, _)| *rate)
        .fold(0.0, f64::max);
    for (name, st) in [("low", &low_stats), ("high", &high_stats)] {
        report.line(format!(
            "job_latency_s.p50.{name} = {:.4} s, job_latency_s.tail.{name} = {:.4} s ({}), {} failed",
            st.p50,
            st.tail.value,
            st.tail.label(),
            st.failed
        ));
    }
    report.line(format!(
        "sustained_jobs_per_s = {sustained} (highest ladder rung with tail <= {LATENCY_LIMIT_S} s \
         and no growing backlog)"
    ));
    // Saturation throughput: the burst's completed jobs over the time the
    // worker took to clear it.
    let burst_done = burst_recs.iter().filter_map(|r| r.done).max();
    let saturation = burst_done.map_or(0.0, |end| {
        burst_recs.iter().filter(|r| r.ok).count() as f64
            / end.duration_since(burst_start).as_secs_f64()
    });
    report.line(format!(
        "saturation_jobs_per_s = {saturation:.2} ({} jobs submitted at once)",
        burst_recs.len()
    ));
    report.e2e("latency_s.p50", low_stats.p50);
    report.e2e("latency_s.tail", low_stats.tail.value);
    report.e2e("throughput_per_s", saturation);

    report.count("obs.journal_events", journal_events);
    let scheduled: Vec<&JobRec> = low_recs
        .iter()
        .chain(&high_recs)
        .chain(rungs.iter().flat_map(|(_, r, _)| r))
        .collect();
    let service = serve_layers(report, &scheduled, &burst_recs, &data_dir);
    if opts.trace {
        probe_lms(opts, report);
        for r in low_recs.iter().chain(&high_recs) {
            job_spans(&tracer, r);
        }
        direct_layers(opts, report, &tracer, root, &service, true)?;
        crate::trace::write_spans(&tracer, opts, report)?;
    }
    Ok(())
}

/// Runs `client_work` over one connection to `server`, with the server's
/// worker and protocol listener on their own threads; drains and stops
/// both before returning, whatever the client did.
fn with_server<T>(
    server: &Server,
    listener: &TcpListener,
    client_work: impl FnOnce(&mut Client) -> Result<T, String>,
) -> Result<T, String> {
    let addr = listener.local_addr().map_err(|e| format!("addr: {e}"))?;
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        let worker = s.spawn(|| server.worker_loop());
        let acceptor = s.spawn(|| serve_listener(server, listener, &stop));
        let result = Client::connect(addr).and_then(|mut client| {
            let out = client_work(&mut client);
            let _ = client.call(r#"{"cmd":"shutdown"}"#);
            out
        });
        stop.store(true, Ordering::SeqCst);
        server.drain();
        let _ = acceptor.join();
        let _ = worker.join();
        result
    })
}

/// Reports the serve-layer metrics of `scheduled` jobs (plus `extra` jobs
/// that were not on a schedule) and returns the service times a poll saw.
fn serve_layers(
    report: &mut Report,
    scheduled: &[&JobRec],
    extra: &[JobRec],
    data_dir: &Path,
) -> Vec<f64> {
    // Generator lateness of the scheduled jobs (the burst is due at once
    // by design).
    let lag = scheduled
        .iter()
        .map(|r| r.submitted.duration_since(r.due).as_secs_f64())
        .fold(0.0, f64::max);
    let all: Vec<&JobRec> = scheduled.iter().copied().chain(extra).collect();
    let rejected = all.iter().filter(|r| r.id.is_none()).count() as u64;
    report.count("serve.rejected", rejected);
    report.layer("bench.gen_lag_s.max", lag);
    report.layer(
        "serve.ack_s.p50",
        median(
            &all.iter()
                .map(|r| r.acked.duration_since(r.submitted).as_secs_f64())
                .collect::<Vec<_>>(),
        ),
    );
    // Queue wait and service of the jobs a poll saw running.
    let (queue_wait, service): (Vec<f64>, Vec<f64>) = scheduled
        .iter()
        .filter_map(|r| {
            let started = r.started?;
            let done = r.done?;
            Some((
                started.duration_since(r.acked).as_secs_f64(),
                done.duration_since(started).as_secs_f64(),
            ))
        })
        .unzip();
    report.layer("serve.queue_wait_s.p50", median(&queue_wait));
    report.layer("serve.service_s.p50", median(&service));
    report.layer("serve.persisted_bytes", dir_bytes(data_dir) as f64);
    service
}

/// Serves the job mix on a fresh server inside another workload's run:
/// always the served-versus-direct gate and, when `low_s > 0` (traced
/// runs), a `low`-rate phase of `low_s` seconds whose serve-layer
/// metrics are reported, with direct runs of the mix for the cache,
/// checkpoint and backend layers.
///
/// # Errors
///
/// Protocol or I/O failures that stop the benchmark itself.
pub fn served_session(
    opts: &Opts,
    report: &mut Report,
    tracer: &Tracer,
    low_s: f64,
) -> Result<(), String> {
    let root = opts
        .out_dir()
        .join(format!("session-{}-{}", opts.seed, std::process::id()));
    let result = session_in(opts, report, tracer, &root, low_s);
    let _ = std::fs::remove_dir_all(&root);
    result
}

fn session_in(
    opts: &Opts,
    report: &mut Report,
    tracer: &Tracer,
    root: &Path,
    low_s: f64,
) -> Result<(), String> {
    let data_dir = root.join("data");
    let server = Server::open(server_config(&data_dir)).map_err(|e| e.to_string())?;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let low = if low_s > 0.0 {
        schedule(&mut Rng::new(opts.seed, 10), LOW_RATE, low_s)
    } else {
        Vec::new()
    };
    let low_recs = with_server(&server, &listener, |client| {
        served_equals_direct(client, report)?;
        if low.is_empty() {
            return Ok(Vec::new());
        }
        run_schedule(client, &low, Duration::from_secs_f64(low_s + 30.0)).map(|(r, _)| r)
    })?;
    if low_recs.is_empty() {
        return Ok(());
    }
    for r in &low_recs {
        report.attempt(r.ok);
        job_spans(tracer, r);
    }
    let st = phase_stats(&low_recs);
    report.line(format!(
        "served session at {LOW_RATE} jobs/s: job_latency_s.p50.low = {:.4} s, \
         job_latency_s.tail.low = {:.4} s ({})",
        st.p50,
        st.tail.value,
        st.tail.label()
    ));
    let scheduled: Vec<&JobRec> = low_recs.iter().collect();
    let service = serve_layers(report, &scheduled, &[], &data_dir);
    direct_layers(opts, report, tracer, root, &service, false)
}

/// The isolated simulation probe on the LMS equalizer, the design most
/// served jobs run.
fn probe_lms(opts: &Opts, report: &mut Report) {
    let (design, eq) = closed::lms_design();
    let x = fixref_dsp::lms::equalizer_stimulus(opts.seed, 28.0, 4000);
    probe::probe(report, &design, || {
        eq.init();
        for &v in &x {
            eq.step(v);
        }
    });
}

/// Records a served job as spans: the job from due to done, with its
/// acknowledgement, queue wait and service as children. The span id is
/// the job's number.
fn job_spans(tracer: &Tracer, r: &JobRec) {
    let (Some(id), Some(done)) = (&r.id, r.done) else {
        return;
    };
    let flow = JOB_SPAN_BASE + id.trim_start_matches("j-").parse().unwrap_or(0);
    let job = tracer.interval("serve.job", flow, r.due, done, None);
    tracer.interval("serve.ack", flow, r.submitted, r.acked, Some(job));
    if let Some(started) = r.started {
        tracer.interval("serve.queue_wait", flow, r.acked, started, Some(job));
        tracer.interval("serve.service", flow, started, done, Some(job));
    }
}

/// The traced run's direct (unserved) refinements of the same mix: the
/// base of `serve.overhead_ratio` and the source of the cache, checkpoint
/// and backend figures, which the server does not export per job. With
/// `flow_layers` they also supply the flow-level layer figures.
fn direct_layers(
    opts: &Opts,
    report: &mut Report,
    tracer: &Tracer,
    root: &Path,
    served_service: &[f64],
    flow_layers: bool,
) -> Result<(), String> {
    let mut rng = Rng::new(opts.seed, 20);
    let checkpoint: PathBuf = root.join("direct-checkpoint.json");
    let mut walls = Vec::new();
    let mut by_kind: [Vec<f64>; 3] = Default::default();
    let mut build = Vec::new();
    let mut tallies = Vec::new();
    let (mut hits, mut misses, mut compiled, mut fallbacks) = (0u64, 0u64, 0u64, 0u64);
    let mut ckpt_write = Vec::new();
    let mut ckpt_bytes = Vec::new();
    for i in 0..DIRECT_RUNS {
        // The mix's 60/20/20 proportions, in a fixed order.
        let kind = [
            JobKind::LmsCached,
            JobKind::LmsCached,
            JobKind::LmsCached,
            JobKind::LmsCompiled,
            JobKind::Timing,
        ][i % 5];
        let spec = job_spec(kind, TENANTS[i % 3], rng.next_u64() >> 33);
        let _ = std::fs::remove_file(&checkpoint);
        let id = DIRECT_SPAN_BASE + i as u64;
        let run = direct_run(&spec, Some(&checkpoint), Some((tracer, id)))?;
        report.attempt(run.result.status == "complete");
        walls.push(run.wall_s);
        by_kind[kind as usize].push(run.wall_s);
        build.push(run.build_s);
        if i == 0 && flow_layers {
            let rec = run.flow.recorder();
            report.count("sim.cycles", rec.counter("sim.ticks"));
            report.count("sim.assignments", rec.counter("sim.assignments"));
        }
        if let Some(t) = run.traced {
            tallies.push(t);
        }
        let rec = run.flow.recorder();
        hits += rec.counter("cache.hits");
        misses += rec.counter("cache.misses");
        compiled += rec.counter("backend.compiled_runs");
        fallbacks += rec.counter("backend.fallbacks");
        if let Ok(cp) = Checkpoint::read(&checkpoint) {
            let copy = root.join("direct-checkpoint-copy.json");
            let t = Instant::now();
            cp.write_atomic(&copy).map_err(|e| e.to_string())?;
            ckpt_write.push(t.elapsed().as_secs_f64());
            ckpt_bytes.push(std::fs::metadata(&copy).map_or(0.0, |m| m.len() as f64));
        }
    }
    if flow_layers {
        report.layer("dsp.stimulus_s", median(&build));
        crate::trace::report_flow_layers(report, &tallies);
    }
    report.layer(
        "core.cache.hit_ratio",
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        },
    );
    report.count("codegen.compiled_runs", compiled);
    report.count("codegen.fallbacks", fallbacks);
    report.layer("core.checkpoint.write_s", median(&ckpt_write));
    report.layer("core.checkpoint.bytes", median(&ckpt_bytes));
    let direct_p50 = median(&walls);
    report.layer("serve.overhead_ratio", median(served_service) / direct_p50);
    report.line(format!(
        "direct refine_s.p50 by kind: lms cache {:.4} s, lms compiled {:.4} s, timing {:.4} s",
        median(&by_kind[0]),
        median(&by_kind[1]),
        median(&by_kind[2])
    ));
    report.line(format!(
        "direct refine_s.p50 of the mix = {direct_p50:.4} s over {} runs (mean {:.4} s)",
        walls.len(),
        mean(&walls)
    ));
    Ok(())
}
