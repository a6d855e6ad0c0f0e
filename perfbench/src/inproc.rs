//! The in-process workloads, `mf-fig5` and `sscm-dense`: campaigns through
//! `rough_engine::Run` on a 2-worker thread pool, each with a fresh
//! `KernelCache`, repeated in passes until the run's time is used.
//!
//! * A *job* is one campaign, from `Run::new` to its verified report.
//! * *Set-up* is `Run::new` to the first `UnitStarted` event: planning plus
//!   the context stage (Ewald kernels and the flat reference solve).
//! * A *cached* request reopens a finished campaign from its checkpoint with
//!   `Run::resume`, which answers without solving; its report must be
//!   bit-identical to the fresh one.
//!
//! Every timing is a median over the run: each campaign kind's latency and
//! set-up over the passes, each cached-latency percentile over the windows
//! of requests that follow the campaigns. A host stall that slows one
//! campaign or one window therefore moves no figure.

use crate::refs::{self, Checker, Refs};
use crate::replay::{self, Counters, ReplaySettings};
use crate::scenarios::{self, MF_CELLS, MF_GHZ, MF_SOLVER, SSCM_KL_MODES, SSCM_SURROGATE_SAMPLES};
use crate::stats::{median, quantile, samples_beyond};
use crate::trace::{self, Tracer};
use crate::{peak_rss_mb, Outcome, Workload};
use rough_core::SolverKind;
use rough_engine::{
    CampaignReport, KernelCache, Plan, Run, RunConfig, RunEvent, RunObserver, Scenario,
    ThreadPoolExecutor, UnitExecutor,
};
use rough_surface::RoughSurface;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Worker threads of every in-process campaign.
pub const WORKERS: usize = 2;
/// Cached requests per window: at least 100, so that every window yields a
/// p90 with ten samples beyond it.
const WINDOW: usize = 100;
/// `Run::resume` requests after each campaign, in windows of [`WINDOW`]:
/// more where a pass has fewer campaigns, so that a run holds at least a
/// dozen windows.
fn resumes_per_campaign(workload: Workload) -> usize {
    match workload {
        Workload::MfFig5 => 2 * WINDOW,
        _ => 3 * WINDOW,
    }
}

/// The `Scenario::builder` default KL energy fraction, which the replay
/// must mirror (a `Scenario` keeps it private).
const ENERGY_FRACTION: f64 = 0.95;

/// One campaign of a pass and how to check it.
struct Spec {
    scenario: Scenario,
    solver: SolverKind,
    surface: Option<RoughSurface>,
    /// Reference key prefix; case `c` is checked under `<prefix>/case=<c>/…`.
    key: String,
    /// Absolute and relative tolerance against the reference.
    tol: (f64, f64),
}

fn specs(workload: Workload, seed: u64) -> Vec<Spec> {
    match workload {
        // A deterministic campaign has no random input: the seed changes
        // nothing here.
        Workload::MfFig5 => MF_CELLS
            .iter()
            .map(|&cells| Spec {
                scenario: scenarios::fig5("mf-fig5", cells, MF_GHZ, true),
                solver: MF_SOLVER,
                surface: Some(scenarios::fig5_surface(cells)),
                key: format!("cells={cells}"),
                // The matrix-free oracle gate: within 1e-8 of dense LU.
                tol: (1e-8, 0.0),
            })
            .collect(),
        Workload::SscmDense => vec![Spec {
            scenario: scenarios::sscm(seed),
            solver: SolverKind::DirectLu,
            surface: None,
            key: "sscm".to_owned(),
            tol: (0.0, 1e-10),
        }],
        Workload::DaemonMix => unreachable!("daemon-mix runs out of process"),
    }
}

/// Engine events of one campaign, stamped on arrival.
#[derive(Default)]
struct Events {
    first_started: Option<Instant>,
    started: Vec<(usize, Instant)>,
    completed: Vec<(usize, Instant)>,
}

/// Records a campaign's events; the run owns one clone, the benchmark the
/// other.
#[derive(Clone, Default)]
struct Recorder(Arc<Mutex<Events>>);

impl RunObserver for Recorder {
    fn on_event(&self, event: &RunEvent) {
        let now = Instant::now();
        let mut events = self.0.lock().expect("event log poisoned");
        match event {
            RunEvent::UnitStarted { unit, .. } => {
                events.first_started.get_or_insert(now);
                events.started.push((*unit, now));
            }
            RunEvent::UnitCompleted { record, .. } => events.completed.push((record.unit, now)),
            _ => {}
        }
    }
}

/// A finished, verified campaign.
struct Campaign {
    start: Instant,
    planned: Instant,
    end: Instant,
    setup_s: f64,
    plan: Plan,
    report: CampaignReport,
    events: Events,
    resumes: Vec<f64>,
}

/// Runs one campaign, checks it against the references and reopens it
/// `resumes` times from its checkpoint.
fn campaign(
    spec: &Spec,
    resumes: usize,
    executor: &Arc<ThreadPoolExecutor>,
    checkpoint: &Path,
    refs: &Refs,
    checker: &mut Checker,
) -> Result<Campaign, String> {
    let recorder = Recorder::default();
    let start = Instant::now();
    let config = RunConfig::new()
        .executor_arc(Arc::clone(executor) as Arc<dyn UnitExecutor>)
        .cache(Arc::new(KernelCache::new()))
        .checkpoint(checkpoint)
        .observer(recorder.clone());
    let run = Run::new(&spec.scenario, config).map_err(|e| e.to_string())?;
    let planned = Instant::now();
    let plan = run.plan().clone();
    let report = run.execute().map_err(|e| e.to_string())?;
    for (c, case) in report.cases.iter().enumerate() {
        let key = format!("{}/case={c}", spec.key);
        checker.check(
            refs,
            &format!("{key}/mean"),
            case.mean,
            spec.tol.0,
            spec.tol.1,
        );
        if !matches!(
            plan.scenario().mode(),
            rough_engine::EnsembleMode::Deterministic
        ) {
            checker.check(
                refs,
                &format!("{key}/std"),
                case.std_dev,
                spec.tol.0,
                spec.tol.1,
            );
        }
    }
    for record in report.records.iter().filter(|r| r.degraded) {
        checker.fail(format!(
            "{}: unit {} needed a degraded solve",
            spec.key, record.unit
        ));
    }
    let end = Instant::now();
    let events = std::mem::take(&mut *recorder.0.lock().expect("event log poisoned"));
    let setup_s = events
        .first_started
        .ok_or("campaign started no unit")?
        .duration_since(start)
        .as_secs_f64();

    let count = resumes;
    let mut resumes = Vec::with_capacity(count);
    for _ in 0..count {
        let t = Instant::now();
        let config = RunConfig::new().executor_arc(Arc::clone(executor) as Arc<dyn UnitExecutor>);
        let cached = Run::resume(checkpoint, config)
            .and_then(Run::execute)
            .map_err(|e| e.to_string())?;
        resumes.push(t.elapsed().as_secs_f64());
        if !same_results(&cached, &report) {
            checker.fail(format!(
                "{}: resumed report differs from the fresh one",
                spec.key
            ));
        } else {
            checker.checked += 1;
        }
    }
    Ok(Campaign {
        start,
        planned,
        end,
        setup_s,
        plan,
        report,
        events,
        resumes,
    })
}

/// Bit-identity of the statistical content of two reports.
fn same_results(a: &CampaignReport, b: &CampaignReport) -> bool {
    a.records.len() == b.records.len()
        && a.records
            .iter()
            .zip(&b.records)
            .all(|(x, y)| x.unit == y.unit && x.value.to_bits() == y.value.to_bits())
        && a.cases.len() == b.cases.len()
        && a.cases.iter().zip(&b.cases).all(|(x, y)| {
            x.mean.to_bits() == y.mean.to_bits() && x.std_dev.to_bits() == y.std_dev.to_bits()
        })
}

/// One pass: every campaign of the workload, in order. Its wall time is
/// the sum of the campaign latencies (the cached requests are not part of
/// it).
struct Pass {
    wall_s: f64,
    campaigns: Vec<Campaign>,
}

fn pass(
    specs: &[Spec],
    resumes: usize,
    executor: &Arc<ThreadPoolExecutor>,
    scratch: &Path,
    refs: &Refs,
    checker: &mut Checker,
) -> Result<Pass, String> {
    let mut campaigns = Vec::with_capacity(specs.len());
    for (i, spec) in specs.iter().enumerate() {
        let checkpoint = scratch.join(format!("campaign-{i}.jsonl"));
        campaigns.push(campaign(
            spec,
            resumes,
            executor,
            &checkpoint,
            refs,
            checker,
        )?);
    }
    let wall_s = campaigns
        .iter()
        .map(|c| c.end.duration_since(c.start).as_secs_f64())
        .sum();
    Ok(Pass { wall_s, campaigns })
}

fn units_per_pass(pass: &Pass) -> usize {
    pass.campaigns.iter().map(|c| c.report.records.len()).sum()
}

/// Runs an in-process workload.
///
/// # Errors
///
/// Describes a failure that stops the run (solver or I/O errors).
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    scratch: &Path,
    bench_dir: &Path,
) -> Result<Outcome, String> {
    let refs = refs::load(bench_dir, workload.name())?;
    let specs = specs(workload, seed);
    let resumes = resumes_per_campaign(workload);
    println!(
        "inputs: {} (master seed {seed})",
        specs
            .iter()
            .map(|s| s.key.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let executor = Arc::new(ThreadPoolExecutor::new(WORKERS));
    let mut checker = Checker::default();
    let started = Instant::now();
    if traced {
        return run_traced(&specs, resumes, &executor, scratch, &refs, &mut checker);
    }
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        passes.push(pass(
            &specs,
            resumes,
            &executor,
            scratch,
            &refs,
            &mut checker,
        )?);
        // Stop when another pass would end more than half a pass late.
        let typical = median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>());
        if started.elapsed().as_secs_f64() + typical / 2.0 > seconds {
            break;
        }
    }
    // Each campaign kind's median over the passes; a typical pass runs
    // every kind at its median.
    let per_kind = |figure: fn(&Campaign) -> f64| -> Vec<f64> {
        (0..specs.len())
            .map(|k| {
                median(
                    &passes
                        .iter()
                        .map(|p| figure(&p.campaigns[k]))
                        .collect::<Vec<_>>(),
                )
            })
            .collect()
    };
    let latencies = per_kind(|c| c.end.duration_since(c.start).as_secs_f64());
    let setups = per_kind(|c| c.setup_s);
    let wall_s: f64 = latencies.iter().sum();
    let campaigns: Vec<&Campaign> = passes.iter().flat_map(|p| &p.campaigns).collect();
    let windows: Vec<&[f64]> = campaigns
        .iter()
        .flat_map(|c| c.resumes.chunks(WINDOW))
        .collect();
    let window_median =
        |q: f64| -> f64 { median(&windows.iter().map(|w| quantile(w, q)).collect::<Vec<_>>()) };
    let cached: usize = campaigns.iter().map(|c| c.resumes.len()).sum();
    let units: usize = passes.iter().map(units_per_pass).sum();
    println!(
        "passes {} | campaigns {} | units {units} | cached requests {cached} in {} windows (each window's p90 has {} samples beyond)",
        passes.len(),
        campaigns.len(),
        windows.len(),
        samples_beyond(WINDOW, 900)
    );

    let mut out = Outcome::default();
    out.metric("wall_s", wall_s);
    out.metric("setup_s", setups.iter().sum());
    out.metric("units_per_s", units_per_pass(&passes[0]) as f64 / wall_s);
    // The mean over campaign kinds of each kind's median latency.
    out.metric("job_latency_p50_s", wall_s / specs.len() as f64);
    out.metric("jobs_per_s", specs.len() as f64 / wall_s);
    out.metric("cached_latency_p50_s", window_median(0.5));
    out.metric("cached_latency_p90_s", window_median(0.9));
    out.metric("peak_rss_mb", peak_rss_mb(&[std::process::id()])?);
    out.finish(checker, units + cached);
    Ok(out)
}

/// The traced run: one untraced pass as the overhead baseline, one traced
/// pass, then a layer replay of every traced campaign.
fn run_traced(
    specs: &[Spec],
    resumes: usize,
    executor: &Arc<ThreadPoolExecutor>,
    scratch: &Path,
    refs: &Refs,
    checker: &mut Checker,
) -> Result<Outcome, String> {
    let baseline = pass(specs, resumes, executor, scratch, refs, checker)?;
    let tracer = Tracer::new();
    let traced = pass(specs, resumes, executor, scratch, refs, checker)?;
    let mut out = Outcome::default();

    let mut counters = Counters::default();
    let mut engine_unit_s = 0.0;
    let mut replay_unit_s = 0.0;
    let mut unit_walls = Vec::new();
    let (mut busy, mut capacity, mut plan_s) = (0.0, 0.0, 0.0);
    let (mut ctx, mut kl, mut tables) = ((0, 0), (0, 0), (0, 0));
    let mut trace_base = 1;
    let mut replayed_units = 0;
    for (campaign, spec) in traced.campaigns.iter().zip(specs) {
        // Engine spans from the recorded events.
        let root = tracer.record(
            "engine.campaign",
            None,
            trace_base,
            campaign.start,
            campaign.end,
        );
        tracer.record(
            "engine.plan",
            Some(root),
            trace_base,
            campaign.start,
            campaign.planned,
        );
        let first = campaign
            .events
            .first_started
            .expect("campaign started a unit");
        tracer.record(
            "engine.context_stage",
            Some(root),
            trace_base,
            campaign.planned,
            first,
        );
        let mut last = first;
        for &(unit, started) in &campaign.events.started {
            let done = campaign
                .events
                .completed
                .iter()
                .find(|(u, _)| *u == unit)
                .map(|&(_, t)| t)
                .ok_or("unit started but never completed")?;
            tracer.record("engine.unit", Some(root), trace_base, started, done);
            last = last.max(done);
        }
        plan_s += campaign
            .planned
            .duration_since(campaign.start)
            .as_secs_f64();
        let walls: Vec<f64> = campaign
            .report
            .unit_times
            .iter()
            .flatten()
            .map(|d| d.as_secs_f64())
            .collect();
        engine_unit_s += walls.iter().sum::<f64>();
        let ctx_stage = first.duration_since(campaign.planned).as_secs_f64();
        let window = last.duration_since(campaign.planned).as_secs_f64();
        busy += walls.iter().sum::<f64>()
            + ctx_stage * campaign.plan.distinct_contexts().min(WORKERS) as f64;
        capacity += WORKERS as f64 * window;
        unit_walls.extend(walls);
        let cache = campaign.report.cache;
        ctx = (ctx.0 + cache.hits, ctx.1 + cache.hits + cache.misses);
        kl = (kl.0 + cache.kl_hits, kl.1 + cache.kl_hits + cache.kl_misses);
        tables = (
            tables.0 + cache.table_hits,
            tables.1 + cache.table_hits + cache.table_misses,
        );

        // Layer replay, checked bit for bit against the engine.
        let settings = ReplaySettings {
            solver: spec.solver,
            surface: spec.surface.as_ref(),
            energy_fraction: ENERGY_FRACTION,
            max_kl_modes: SSCM_KL_MODES,
            surrogate_samples: SSCM_SURROGATE_SAMPLES,
            parallelism: executor.assembly_parallelism(),
            workers: WORKERS,
        };
        let replayed = replay::replay(&campaign.plan, &settings, &tracer, trace_base + 1)?;
        check_replay(&replayed, &campaign.report, &spec.key, checker);
        replayed_units += replayed.values.len();
        replay_unit_s += replayed.unit_layer_s;
        counters.merge(&replayed.counters);
        trace_base += 1 + (campaign.plan.cases().len() + campaign.plan.units().len()) as u64;
    }
    let ffts = replay::fft_cubes(&counters.cubes, &tracer);

    let spans = tracer.spans();
    let totals = trace::total_by_name(&spans);
    let own = trace::self_by_name(&spans);
    let total = |name: &str| totals.get(name).copied().unwrap_or(0.0);
    let cold = total("core.matrixfree.assemble_cold");
    let warm = total("core.matrixfree.assemble_warm");
    out.metric("core.matrixfree.setup_s", cold);
    out.metric("core.matrixfree.tables_s", (cold - warm).max(0.0));
    out.metric("core.matrixfree.near_s", warm);
    out.metric(
        "core.matrixfree.precond_build_s",
        total("core.matrixfree.precond_build"),
    );
    out.metric(
        "core.matrixfree.precond_apply_s",
        total("core.matrixfree.precond_apply"),
    );
    out.metric("core.matrixfree.matvec_s", total("core.matrixfree.matvec"));
    let matvecs = spans
        .iter()
        .filter(|s| s.name == "core.matrixfree.matvec")
        .count();
    out.metric("core.matrixfree.matvecs", matvecs as f64);
    out.metric("core.matrixfree.slab_levels", counters.slab_levels as f64);
    out.metric("core.matrixfree.fft_planes", counters.fft_planes as f64);
    out.metric(
        "core.matrixfree.near_corrections",
        counters.near_corrections as f64,
    );
    fft_metrics(&mut out, &ffts);
    out.metric("numerics.iterative.iterations", counters.iterations as f64);
    out.metric(
        "numerics.iterative.self_s",
        own.get("numerics.iterative.krylov").copied().unwrap_or(0.0),
    );
    let assemble = total("core.assembly3d.assemble");
    out.metric("core.assembly3d.assemble_s", assemble);
    out.metric(
        "core.assembly3d.entries_per_s",
        ratio(counters.dense_entries as f64, assemble),
    );
    out.metric("numerics.linalg.lu_s", total("numerics.linalg.lu"));
    out.metric("surface.kl_basis_s", total("surface.kl_basis"));
    out.metric("surface.synthesize_s", total("surface.synthesize"));
    out.metric("stochastic.collocation_s", total("stochastic.collocation"));
    let nf = counters.nearfield;
    out.metric(
        "core.nearfield.corrected_entries",
        nf.corrected_entries as f64,
    );
    out.metric("core.nearfield.adaptive_panels", nf.adaptive_panels as f64);
    out.metric("core.nearfield.depth_cap_hits", nf.depth_cap_hits as f64);
    out.metric(
        "core.nearfield.panels_per_entry",
        ratio(nf.adaptive_panels as f64, nf.corrected_entries as f64),
    );
    out.metric("em.ewald.build_s", total("em.ewald.build"));
    out.metric("engine.plan_s", plan_s);
    out.metric("engine.unit_wall_p50_s", median(&unit_walls));
    out.metric("engine.unit_wall_max_s", quantile(&unit_walls, 1.0));
    out.metric("engine.worker_idle_frac", 1.0 - ratio(busy, capacity));
    out.metric("engine.context_hit_rate", ratio(ctx.0 as f64, ctx.1 as f64));
    out.metric("engine.context_lookups", ctx.1 as f64);
    out.metric("engine.kl_hit_rate", ratio(kl.0 as f64, kl.1 as f64));
    out.metric("engine.kl_lookups", kl.1 as f64);
    out.metric(
        "engine.table_hit_rate",
        ratio(tables.0 as f64, tables.1 as f64),
    );
    out.metric("engine.table_lookups", tables.1 as f64);
    for name in crate::daemon::SERVICE_LAYER {
        out.metric(name, 0.0);
    }
    out.metric("trace.coverage", ratio(replay_unit_s, engine_unit_s));
    out.metric("trace.overhead_s", traced.wall_s - baseline.wall_s);

    let path = PathBuf::from(scratch).join("spans.jsonl");
    tracer
        .write(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "spans: {} written to {} | replayed {replayed_units} units, coverage {:.3}, tracing overhead {:+.3} s",
        spans.len(),
        path.display(),
        ratio(replay_unit_s, engine_unit_s),
        traced.wall_s - baseline.wall_s
    );
    let resumed: usize = [&baseline, &traced]
        .iter()
        .flat_map(|p| &p.campaigns)
        .map(|c| c.resumes.len())
        .sum();
    let attempted = units_per_pass(&baseline) + units_per_pass(&traced) + replayed_units + resumed;
    out.finish(std::mem::take(checker), attempted);
    Ok(out)
}

/// Replayed unit values and case statistics must equal the engine's bits.
fn check_replay(
    replayed: &replay::Replay,
    report: &CampaignReport,
    key: &str,
    checker: &mut Checker,
) {
    for (record, value) in report.records.iter().zip(&replayed.values) {
        if record.value.to_bits() == value.to_bits() {
            checker.checked += 1;
        } else {
            checker.fail(format!(
                "{key}: replayed unit {} gives {value:?}, engine {:?}",
                record.unit, record.value
            ));
        }
    }
    for (case, &(mean, std)) in report.cases.iter().zip(&replayed.cases) {
        if case.mean.to_bits() == mean.to_bits() && case.std_dev.to_bits() == std.to_bits() {
            checker.checked += 1;
        } else {
            checker.fail(format!(
                "{key}: replayed case statistics differ from the engine's"
            ));
        }
    }
}

/// `numerator / denominator`, or 0 when the denominator is 0.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// FFT layer metrics: the largest cube's per-call time and computed bytes,
/// and nanoseconds per element on the largest power-of-two and the largest
/// other cube side.
fn fft_metrics(out: &mut Outcome, ffts: &[(usize, usize, f64)]) {
    let elements = |&(planes, side, _): &(usize, usize, f64)| planes * side * side;
    let largest = ffts.iter().max_by_key(|c| elements(c));
    out.metric("numerics.fft.fft3_s", largest.map_or(0.0, |c| c.2));
    out.metric(
        "numerics.fft.cube_bytes",
        largest.map_or(0.0, |c| (elements(c) * 16) as f64),
    );
    for (name, pow2) in [
        ("numerics.fft.ns_per_element_pow2", true),
        ("numerics.fft.ns_per_element_other", false),
    ] {
        let cube = ffts
            .iter()
            .filter(|c| c.1.is_power_of_two() == pow2)
            .max_by_key(|c| elements(c));
        out.metric(name, cube.map_or(0.0, |c| c.2 * 1e9 / elements(c) as f64));
    }
}

/// Regenerates the references of an in-process workload: every catalogue
/// entry, solved by the oracle (dense `DirectLu` for `mf-fig5`).
///
/// # Errors
///
/// Describes a solver failure.
pub fn regen(workload: Workload) -> Result<Refs, String> {
    let mut refs = Refs::default();
    let mut record = |key: String, scenario: &Scenario, with_std: bool| -> Result<(), String> {
        let config = RunConfig::new().executor(ThreadPoolExecutor::new(WORKERS));
        let report = Run::new(scenario, config)
            .and_then(Run::execute)
            .map_err(|e| e.to_string())?;
        for (c, case) in report.cases.iter().enumerate() {
            refs.insert(format!("{key}/case={c}/mean"), case.mean);
            if with_std {
                refs.insert(format!("{key}/case={c}/std"), case.std_dev);
            }
        }
        eprintln!("reference {key}: done");
        Ok(())
    };
    match workload {
        Workload::MfFig5 => {
            for cells in MF_CELLS {
                let dense = scenarios::fig5("mf-fig5-dense-reference", cells, MF_GHZ, false);
                record(format!("cells={cells}"), &dense, false)?;
            }
        }
        Workload::SscmDense => record("sscm".to_owned(), &scenarios::sscm(0), true)?,
        Workload::DaemonMix => unreachable!("daemon-mix references come from daemon::regen"),
    }
    Ok(refs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rough_core::RoughnessSpec;
    use rough_em::material::{Conductor, Dielectric, Stackup};
    use rough_em::units::{GigaHertz, Micrometers};

    /// Runs `scenario` through the engine and the replay and requires every
    /// unit value and case statistic to agree bit for bit.
    fn assert_replay_matches(
        scenario: &Scenario,
        solver: SolverKind,
        surface: Option<&RoughSurface>,
    ) {
        let plan = Plan::new(scenario).unwrap();
        let executor = ThreadPoolExecutor::new(WORKERS);
        let settings = ReplaySettings {
            solver,
            surface,
            energy_fraction: ENERGY_FRACTION,
            max_kl_modes: 2,
            surrogate_samples: SSCM_SURROGATE_SAMPLES,
            parallelism: executor.assembly_parallelism(),
            workers: WORKERS,
        };
        let report = Run::with_plan(plan.clone(), RunConfig::new().executor(executor))
            .execute()
            .unwrap();
        let tracer = Tracer::new();
        let replayed = replay::replay(&plan, &settings, &tracer, 1).unwrap();
        let mut checker = Checker::default();
        check_replay(&replayed, &report, "cells-4", &mut checker);
        assert!(checker.mismatches.is_empty(), "{:?}", checker.mismatches);
        assert_eq!(checker.checked, report.records.len() + report.cases.len());
        assert!(!tracer.spans().is_empty());
    }

    #[test]
    fn every_cached_window_has_a_p90_with_ten_samples_beyond() {
        assert!(crate::stats::tail_percentile(WINDOW) >= Some(90.0));
        for workload in [Workload::MfFig5, Workload::SscmDense] {
            assert_eq!(resumes_per_campaign(workload) % WINDOW, 0);
        }
    }

    #[test]
    fn replay_is_bit_identical_to_the_engine_dense_sscm() {
        let scenario = Scenario::builder(Stackup::new(
            Conductor::copper_foil(),
            Dielectric::silicon_dioxide(),
        ))
        .roughness(RoughnessSpec::gaussian(
            Micrometers::new(1.0),
            Micrometers::new(1.0),
        ))
        .frequencies([GigaHertz::new(2.0).into(), GigaHertz::new(8.0).into()])
        .cells_per_side(4)
        .max_kl_modes(2)
        .sscm(1)
        .surrogate_samples(SSCM_SURROGATE_SAMPLES)
        .master_seed(7)
        .build()
        .unwrap();
        assert_replay_matches(&scenario, SolverKind::DirectLu, None);
    }

    #[test]
    fn replay_is_bit_identical_to_the_engine_matrix_free() {
        let scenario = scenarios::fig5("cells-4", 4, 16.0, true);
        let surface = scenarios::fig5_surface(4);
        assert_replay_matches(&scenario, MF_SOLVER, Some(&surface));
    }
}
