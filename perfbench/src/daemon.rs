//! The `daemon-mix` workload: the `roughsimd` binary in a fresh state
//! directory (`ROUGHSIM_EXECUTOR=socket:1`, `ROUGHSIMD_JOBS=2`) driven by two
//! closed-loop `rough_service::Client` threads.
//!
//! Each client works in rounds. A round submits one fresh job with
//! `submit_watch`, fetches its report and checks it against the references,
//! then resubmits fingerprints it already fetched and fetches them again;
//! those must be report-cache hits whose text is byte-identical to the
//! first fetch.

use crate::refs::{self, Checker, Refs};
use crate::scenarios::{self, JobKind, DAEMON_VARIANTS};
use crate::stats::{median, quantile, samples_beyond, tail_percentile};
use crate::trace::{self, Tracer};
use crate::{peak_rss_mb, Outcome};
use rough_engine::{checkpoint, report_from_records, CampaignReport, Plan, Scenario};
use rough_service::{Client, ServiceEvent};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Closed-loop clients.
const CLIENTS: usize = 2;
/// Cache-hit requests each client makes after each fresh job.
const CACHED_PER_ROUND: usize = 10;
/// Cache-hit requests a run must make (a p90 with ten samples beyond it).
const MIN_CACHED: usize = 100;
/// Daemon start-ups per run; the last one serves the loop.
const SETUPS: usize = 3;
/// The environment the daemon runs under (everything else `ROUGHSIM*` is
/// cleared before the run).
pub const DAEMON_ENV: [(&str, &str); 2] =
    [("ROUGHSIM_EXECUTOR", "socket:1"), ("ROUGHSIMD_JOBS", "2")];

/// Per-layer metrics of the service layer (0 on in-process workloads).
pub const SERVICE_LAYER: [&str; 10] = [
    "service.submit_rtt_s",
    "service.fetch_report_s",
    "service.status_rtt_s",
    "service.time_to_first_unit_p50_s",
    "service.run_p50_s",
    "service.report_cache_hit_rate",
    "service.dedupe_attached",
    "service.state_bytes_written",
    "service.worker_lost",
    "service.degraded_solves",
];

/// A running daemon process.
struct Daemon {
    child: Child,
    addr: String,
    state: PathBuf,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    fn spawn(bin: &Path, state: &Path) -> Result<Self, String> {
        if state.exists() {
            std::fs::remove_dir_all(state)
                .map_err(|e| format!("cannot clear {}: {e}", state.display()))?;
        }
        let mut command = Command::new(bin);
        command
            .args(["--addr", "127.0.0.1:0", "--state-dir"])
            .arg(state)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        for (key, value) in DAEMON_ENV {
            command.env(key, value);
        }
        let mut child = command
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut lines = BufReader::new(child.stderr.take().expect("stderr is piped")).lines();
        let addr = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(rest) = line.strip_prefix("roughsimd listening on ") {
                        break rest
                            .split_whitespace()
                            .next()
                            .unwrap_or_default()
                            .to_owned();
                    }
                }
                _ => {
                    child.kill().ok();
                    child.wait().ok();
                    return Err("roughsimd exited before listening".into());
                }
            }
        };
        // Keep draining stderr so the daemon never blocks on a full pipe.
        let drain = std::thread::spawn(move || lines.map_while(Result::ok).for_each(drop));
        Ok(Self {
            child,
            addr,
            state: state.to_owned(),
            drain: Some(drain),
        })
    }

    /// Asks the daemon to shut down and waits for it (killing it after 20 s).
    fn stop(mut self) -> Result<(), String> {
        let asked = Client::new(&self.addr).shutdown();
        let deadline = Instant::now() + Duration::from_secs(20);
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => break None,
            }
        };
        if status.is_none() {
            self.child.kill().ok();
            self.child.wait().ok();
        }
        if let Some(drain) = self.drain.take() {
            drain.join().ok();
        }
        match (asked, status) {
            (Ok(()), Some(status)) if status.success() => Ok(()),
            (asked, status) => Err(format!(
                "roughsimd did not shut down cleanly (request: {asked:?}, exit: {status:?})"
            )),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            self.child.kill().ok();
            self.child.wait().ok();
        }
    }
}

/// Process ids of `pid` and all its descendants (Linux `/proc`).
fn process_tree(pid: u32) -> Vec<u32> {
    let mut parents: Vec<(u32, u32)> = Vec::new();
    if let Ok(entries) = std::fs::read_dir("/proc") {
        for entry in entries.flatten() {
            let Some(child) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
                continue;
            };
            let Ok(stat) = std::fs::read_to_string(entry.path().join("stat")) else {
                continue;
            };
            // Fields after the parenthesised command name: state, ppid, …
            let ppid = stat
                .rsplit_once(')')
                .and_then(|(_, rest)| rest.split_whitespace().nth(1))
                .and_then(|s| s.parse().ok());
            if let Some(ppid) = ppid {
                parents.push((child, ppid));
            }
        }
    }
    let mut tree = vec![pid];
    let mut i = 0;
    while i < tree.len() {
        let parent = tree[i];
        tree.extend(
            parents
                .iter()
                .filter(|(_, p)| *p == parent)
                .map(|(c, _)| *c),
        );
        i += 1;
    }
    tree
}

/// Total bytes of the regular files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Fetches a report as checkpoint text and rebuilds it the way
/// `Client::fetch_report` does.
fn fetch(client: &Client, fingerprint: u64) -> Result<(String, CampaignReport), String> {
    let text = client
        .fetch_checkpoint(fingerprint)
        .map_err(|e| e.to_string())?
        .ok_or_else(|| format!("no report cached under {fingerprint:016x}"))?;
    let parsed = checkpoint::parse(&text).map_err(|e| e.to_string())?;
    let scenario = parsed.header.scenario().map_err(|e| e.to_string())?;
    let plan = Plan::new(&scenario).map_err(|e| e.to_string())?;
    let mut records = parsed.records;
    records.sort_by_key(|r| r.unit);
    let report = report_from_records(&plan, records).map_err(|e| e.to_string())?;
    Ok((text, report))
}

/// Checks a fetched report against the references under `key`.
fn check_report(report: &CampaignReport, key: &str, refs: &Refs, checker: &mut Checker) {
    const REL: f64 = 1e-10;
    for record in &report.records {
        checker.check(
            refs,
            &format!("{key}/unit={}/value", record.unit),
            record.value,
            0.0,
            REL,
        );
    }
    for (c, case) in report.cases.iter().enumerate() {
        checker.check(refs, &format!("{key}/case={c}/mean"), case.mean, 0.0, REL);
        checker.check(refs, &format!("{key}/case={c}/std"), case.std_dev, 0.0, REL);
    }
}

fn job_key(kind: JobKind, variant: usize) -> String {
    format!("{}/{variant}", kind.label())
}

/// Submits, watches and fetches one job; returns its fingerprint, report
/// text and the job's timings.
fn fresh_job(
    client: &Client,
    scenario: &Scenario,
    key: &str,
    refs: &Refs,
    obs: &mut Observations,
    tracer: Option<&Tracer>,
) -> Result<(u64, String), String> {
    let start = Instant::now();
    let mut first_unit = None;
    let mut finished = None;
    let (mut units, mut degraded, mut lost) = (0, 0, 0);
    let (submission, outcome) = client
        .submit_watch(scenario, |event| match event {
            ServiceEvent::UnitStarted { .. } => {
                first_unit.get_or_insert_with(Instant::now);
            }
            ServiceEvent::UnitCompleted { degraded: d, .. } => {
                units += 1;
                degraded += usize::from(*d);
            }
            ServiceEvent::WorkerLost { .. } => lost += 1,
            ServiceEvent::Finished { .. } => finished = Some(Instant::now()),
            _ => {}
        })
        .map_err(|e| e.to_string())?;
    let watched = Instant::now();
    if let Err(e) = outcome {
        obs.checker.fail(format!("{key}: job failed: {e}"));
    }
    if submission.cached {
        obs.checker
            .fail(format!("{key}: a fresh job was answered from the cache"));
    }
    if obs.job_ids.contains(&submission.job) {
        obs.dedupe_attached += 1;
    }
    obs.job_ids.push(submission.job);
    let (text, report) = fetch(client, submission.fingerprint)?;
    let end = Instant::now();
    check_report(&report, key, refs, &mut obs.checker);
    if let (Some(first), Some(done)) = (first_unit, finished) {
        obs.first_unit
            .push(first.duration_since(start).as_secs_f64());
        obs.run.push(done.duration_since(first).as_secs_f64());
    }
    obs.fetch.push(end.duration_since(watched).as_secs_f64());
    obs.latency.push(end.duration_since(start).as_secs_f64());
    obs.units += units;
    obs.degraded += degraded;
    obs.worker_lost += lost;
    if let Some(t) = tracer {
        let root = t.record("service.job", None, submission.job, start, end);
        if let Some(first) = first_unit {
            t.record(
                "service.queue_wait",
                Some(root),
                submission.job,
                start,
                first,
            );
            t.record("service.run", Some(root), submission.job, first, watched);
        }
        t.record(
            "service.fetch_report",
            Some(root),
            submission.job,
            watched,
            end,
        );
    }
    Ok((submission.fingerprint, text))
}

/// What one client saw.
#[derive(Default)]
struct Observations {
    checker: Checker,
    latency: Vec<f64>,
    first_unit: Vec<f64>,
    run: Vec<f64>,
    fetch: Vec<f64>,
    cached: Vec<f64>,
    submit: Vec<f64>,
    status: Vec<f64>,
    rounds: Vec<f64>,
    traced_rounds: Vec<f64>,
    job_ids: Vec<u64>,
    keys: Vec<String>,
    fresh: usize,
    units: usize,
    degraded: usize,
    worker_lost: usize,
    dedupe_attached: usize,
    /// From loop start to this client's last fresh report.
    fresh_span_s: f64,
}

/// One client's closed loop. In traced runs the second half of the loop
/// records spans, the first half is the untraced baseline.
#[allow(clippy::too_many_arguments)]
fn client_loop(
    addr: &str,
    client_index: usize,
    seed: u64,
    loop_start: Instant,
    deadline: Instant,
    cached_total: &AtomicUsize,
    refs: &Refs,
    tracer: Option<&Tracer>,
) -> Result<Observations, String> {
    let client = Client::new(addr);
    let mut obs = Observations::default();
    let mut fetched: Vec<(Scenario, u64, String)> = Vec::new();
    let mut next = 0;
    let halfway = loop_start + (deadline - loop_start) / 2;
    while Instant::now() < deadline || cached_total.load(Ordering::SeqCst) < MIN_CACHED {
        let round_start = Instant::now();
        let tracing = tracer.filter(|_| round_start >= halfway);
        let next_job = scenarios::daemon_fresh_job(seed, client_index, obs.fresh);
        if let Some((kind, variant)) = next_job.filter(|_| Instant::now() < deadline) {
            let scenario = scenarios::daemon_job(kind, variant);
            let key = job_key(kind, variant);
            let (fingerprint, text) = fresh_job(&client, &scenario, &key, refs, &mut obs, tracing)?;
            let latency = obs.latency.last().copied().unwrap_or_default();
            obs.keys.push(format!("{key}:{latency:.2}s"));
            obs.fresh += 1;
            obs.fresh_span_s = loop_start.elapsed().as_secs_f64();
            fetched.push((scenario, fingerprint, text));
            let t = Instant::now();
            client.status().map_err(|e| e.to_string())?;
            obs.status.push(t.elapsed().as_secs_f64());
            if let Some(tr) = tracing {
                tr.record("service.status", None, 0, t, Instant::now());
            }
        }
        if fetched.is_empty() {
            break;
        }
        for _ in 0..CACHED_PER_ROUND {
            let (scenario, fingerprint, first_text) = &fetched[next % fetched.len()];
            next += 1;
            let start = Instant::now();
            let submission = client.submit(scenario).map_err(|e| e.to_string())?;
            let submitted = Instant::now();
            let fetched_text = client
                .fetch_checkpoint(*fingerprint)
                .map_err(|e| e.to_string())?;
            let end = Instant::now();
            if !submission.cached || submission.fingerprint != *fingerprint {
                obs.checker.fail(format!(
                    "resubmission of {fingerprint:016x} was not a cache hit"
                ));
            } else if fetched_text.as_deref() != Some(first_text.as_str()) {
                obs.checker.fail(format!(
                    "cached fetch of {fingerprint:016x} differs from its first fetch"
                ));
            } else {
                obs.checker.checked += 1;
            }
            obs.submit
                .push(submitted.duration_since(start).as_secs_f64());
            obs.cached.push(end.duration_since(start).as_secs_f64());
            cached_total.fetch_add(1, Ordering::SeqCst);
            if let Some(tr) = tracing {
                let root = tr.record("service.cached", None, submission.job, start, end);
                tr.record(
                    "service.submit",
                    Some(root),
                    submission.job,
                    start,
                    submitted,
                );
                tr.record(
                    "service.fetch_cached",
                    Some(root),
                    submission.job,
                    submitted,
                    end,
                );
            }
        }
        let round_s = round_start.elapsed().as_secs_f64();
        if tracing.is_some() {
            obs.traced_rounds.push(round_s);
        } else {
            obs.rounds.push(round_s);
        }
    }
    Ok(obs)
}

/// Runs `daemon-mix`.
///
/// # Errors
///
/// Describes a failure that stops the run (daemon or protocol errors).
pub fn run(
    seed: u64,
    seconds: f64,
    traced: bool,
    scratch: &Path,
    bench_dir: &Path,
    bin: &Path,
) -> Result<Outcome, String> {
    let refs = refs::load(bench_dir, "daemon-mix")?;
    let mut checker = Checker::default();
    let started = Instant::now();

    // Set-up, several times: spawn → first STATUS reply → one warm-up job
    // per runner (so both socket workers are up). The last daemon stays.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut daemon = None;
    for i in 0..SETUPS {
        let state = scratch.join(format!("state-{i}"));
        let t = Instant::now();
        let d = Daemon::spawn(bin, &state)?;
        let client = Client::new(&d.addr);
        let status = loop {
            match client.status() {
                Ok(status) => break status,
                Err(_) if t.elapsed() < Duration::from_secs(30) => {
                    std::thread::sleep(Duration::from_millis(1))
                }
                Err(e) => return Err(format!("daemon never answered STATUS: {e}")),
            }
        };
        if status.queued + status.running + status.done + status.failed != 0 {
            checker.fail("a fresh state directory reported jobs");
        }
        std::thread::scope(|scope| {
            let warm: Vec<_> = (0..2)
                .map(|w| {
                    let client = client.clone();
                    scope.spawn(move || -> Result<CampaignReport, String> {
                        let job = scenarios::warm_up_job(w);
                        let (sub, outcome) = client
                            .submit_watch(&job, |_| {})
                            .map_err(|e| e.to_string())?;
                        outcome?;
                        Ok(fetch(&client, sub.fingerprint)?.1)
                    })
                })
                .collect();
            for (w, handle) in warm.into_iter().enumerate() {
                match handle.join().expect("warm-up thread panicked") {
                    Ok(report) => {
                        check_report(&report, &format!("warm-up/{w}"), &refs, &mut checker)
                    }
                    Err(e) => checker.fail(format!("warm-up job {w}: {e}")),
                }
            }
        });
        setups.push(t.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            d.stop()?;
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.expect("the last set-up keeps its daemon");

    // The closed loop.
    let tracer = traced.then(Tracer::new);
    let loop_start = Instant::now();
    let remaining = (seconds - started.elapsed().as_secs_f64()).max(1.0);
    let deadline = loop_start + Duration::from_secs_f64(remaining);
    let cached_total = AtomicUsize::new(0);
    let results: Vec<Result<Observations, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (addr, refs, cached_total, tracer) =
                    (&daemon.addr, &refs, &cached_total, tracer.as_ref());
                scope.spawn(move || {
                    client_loop(
                        addr,
                        c,
                        seed,
                        loop_start,
                        deadline,
                        cached_total,
                        refs,
                        tracer,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });

    // Before shutdown: queue state, memory and state size.
    let client = Client::new(&daemon.addr);
    let t = Instant::now();
    let status = client.status().map_err(|e| e.to_string())?;
    let final_status_s = t.elapsed().as_secs_f64();
    if status.failed + status.quarantined + status.queued + status.running != 0 {
        checker.fail(format!("queue did not settle cleanly: {status:?}"));
    }
    let rss = peak_rss_mb(&process_tree(daemon.child.id()))?;
    let state_bytes = dir_bytes(&daemon.state);
    daemon.stop()?;

    let mut all = Observations::default();
    // Rates per client, over the time up to its last fresh report, summed.
    let (mut jobs_per_s, mut units_per_s) = (0.0, 0.0);
    for result in results {
        let obs = result?;
        if obs.fresh > 0 {
            jobs_per_s += obs.fresh as f64 / obs.fresh_span_s;
            units_per_s += obs.units as f64 / obs.fresh_span_s;
        }
        all.checker.checked += obs.checker.checked;
        all.checker.mismatches.extend(obs.checker.mismatches);
        for (into, from) in [
            (&mut all.latency, obs.latency),
            (&mut all.first_unit, obs.first_unit),
            (&mut all.run, obs.run),
            (&mut all.fetch, obs.fetch),
            (&mut all.cached, obs.cached),
            (&mut all.submit, obs.submit),
            (&mut all.status, obs.status),
            (&mut all.rounds, obs.rounds),
            (&mut all.traced_rounds, obs.traced_rounds),
        ] {
            into.extend(from);
        }
        println!("client fresh jobs: {}", obs.keys.join(" "));
        all.fresh += obs.fresh;
        all.units += obs.units;
        all.degraded += obs.degraded;
        all.worker_lost += obs.worker_lost;
        all.dedupe_attached += obs.dedupe_attached;
    }
    checker.checked += all.checker.checked;
    checker.mismatches.extend(all.checker.mismatches);
    if all.fresh == 0 || all.latency.is_empty() {
        return Err("no fresh job completed in the run".into());
    }
    if tail_percentile(all.cached.len()) < Some(90.0) {
        return Err(format!(
            "{} cached requests are too few for a p90",
            all.cached.len()
        ));
    }
    all.status.push(final_status_s);
    println!(
        "daemon env {} | fresh jobs {} | units {} | cached requests {} (p90 has {} samples beyond)",
        DAEMON_ENV.map(|(k, v)| format!("{k}={v}")).join(" "),
        all.fresh,
        all.units,
        all.cached.len(),
        samples_beyond(all.cached.len(), 900)
    );

    let mut out = Outcome::default();
    if let Some(tracer) = &tracer {
        let spans = tracer.spans();
        let roots: f64 = spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(trace::Span::duration)
            .sum();
        let traced_s: f64 = all.traced_rounds.iter().sum();
        let path = scratch.join("spans.jsonl");
        tracer
            .write(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        let overhead = if all.rounds.is_empty() || all.traced_rounds.is_empty() {
            0.0
        } else {
            median(&all.traced_rounds) - median(&all.rounds)
        };
        println!(
            "spans: {} written to {} | coverage {:.3}, tracing overhead {overhead:+.4} s per round",
            spans.len(),
            path.display(),
            crate::inproc::ratio(roots, traced_s)
        );
        for name in crate::IN_PROCESS_LAYERS {
            out.metric(name, 0.0);
        }
        out.metric("service.submit_rtt_s", median(&all.submit));
        out.metric("service.fetch_report_s", median(&all.fetch));
        out.metric("service.status_rtt_s", median(&all.status));
        out.metric(
            "service.time_to_first_unit_p50_s",
            if all.first_unit.is_empty() {
                0.0
            } else {
                median(&all.first_unit)
            },
        );
        out.metric(
            "service.run_p50_s",
            if all.run.is_empty() {
                0.0
            } else {
                median(&all.run)
            },
        );
        out.metric(
            "service.report_cache_hit_rate",
            all.cached.len() as f64 / (all.cached.len() + all.fresh) as f64,
        );
        out.metric("service.dedupe_attached", all.dedupe_attached as f64);
        out.metric("service.state_bytes_written", state_bytes as f64);
        out.metric("service.worker_lost", all.worker_lost as f64);
        out.metric("service.degraded_solves", all.degraded as f64);
        out.metric("trace.coverage", crate::inproc::ratio(roots, traced_s));
        out.metric("trace.overhead_s", overhead);
    } else {
        out.metric("wall_s", median(&all.rounds));
        out.metric("setup_s", median(&setups));
        out.metric("units_per_s", units_per_s);
        out.metric("job_latency_p50_s", median(&all.latency));
        out.metric("jobs_per_s", jobs_per_s);
        out.metric("cached_latency_p50_s", median(&all.cached));
        out.metric("cached_latency_p90_s", quantile(&all.cached, 0.9));
        out.metric("peak_rss_mb", rss);
    }
    if all.degraded > 0 || all.worker_lost > 0 {
        checker.fail(format!(
            "{} degraded solves and {} lost workers on a clean run",
            all.degraded, all.worker_lost
        ));
    }
    out.finish(checker, all.fresh + all.cached.len() + 2 * SETUPS);
    Ok(out)
}

/// Regenerates the `daemon-mix` references in process: every catalogue job
/// and the warm-up jobs. The engine guarantees bit-identical results for
/// any executor, so these also hold for the daemon's socket workers.
///
/// # Errors
///
/// Describes a solver failure.
pub fn regen() -> Result<Refs, String> {
    use rough_engine::{Run, RunConfig, ThreadPoolExecutor};
    let mut refs = Refs::default();
    let mut jobs: Vec<(String, Scenario)> = (0..2)
        .map(|w| (format!("warm-up/{w}"), scenarios::warm_up_job(w)))
        .collect();
    for kind in [JobKind::Fig5, JobKind::MonteCarlo] {
        for variant in 0..DAEMON_VARIANTS {
            jobs.push((job_key(kind, variant), scenarios::daemon_job(kind, variant)));
        }
    }
    for (key, scenario) in jobs {
        let config = RunConfig::new().executor(ThreadPoolExecutor::new(2));
        let report = Run::new(&scenario, config)
            .and_then(Run::execute)
            .map_err(|e| e.to_string())?;
        for record in &report.records {
            refs.insert(format!("{key}/unit={}/value", record.unit), record.value);
        }
        for (c, case) in report.cases.iter().enumerate() {
            refs.insert(format!("{key}/case={c}/mean"), case.mean);
            refs.insert(format!("{key}/case={c}/std"), case.std_dev);
        }
        eprintln!("reference {key}: done");
    }
    Ok(refs)
}
