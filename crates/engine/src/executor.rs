//! Execution layer: pluggable [`UnitExecutor`]s over planned work units.
//!
//! Executors walk the plan's two-stage DAG: stage 0 builds every distinct
//! shared context (Ewald kernels + smooth-surface reference solve) and
//! publishes it through the [`KernelCache`]; stage 1 evaluates the
//! realization/collocation units against the cached contexts, in the plan
//! order the run hands them over. All randomness was fixed
//! at plan time and records are keyed by unit id, so a campaign's statistics
//! are bit-identical for a fixed master seed no matter which executor runs it
//! or how many workers it uses.
//!
//! Three executors ship with the engine:
//!
//! * [`SerialExecutor`] — one unit at a time on the calling thread; the
//!   reference implementation every parallel executor is checked against.
//! * [`ThreadPoolExecutor`] — a sized thread pool (the engine's default).
//! * [`crate::socket::SocketExecutor`] — persistent warm worker *processes*
//!   connected over sockets, for isolation and multi-process scale-out.

use crate::cache::{CaseContext, KernelCache};
use crate::error::EngineError;
use crate::plan::{Plan, PlannedCase, UnitTask, WorkUnit};
use crate::report::UnitRecord;
use crate::run::UnitSink;
use crate::socket::SocketExecutor;
use rayon::prelude::*;
use rough_core::AssemblyParallelism;
use rough_surface::RoughSurface;
use std::sync::Arc;

/// The machine's core budget: executors size `units × intra-solve assembly
/// threads` so their product never exceeds this.
pub fn core_budget() -> usize {
    rough_core::parallel::available_cores()
}

/// The intra-solve assembly parallelism of each solve when `workers` units
/// run concurrently on `budget` cores: the `ROUGHSIM_ASSEMBLY_THREADS`
/// override when set, otherwise `⌊budget / workers⌋` threads, at least 1 — so
/// `workers × threads ≤ budget` and a fully-sized pool keeps assembly serial
/// instead of oversubscribing. Every executor sizes its solves (in-process or
/// in spawned workers) through this one function.
pub fn assembly_share(budget: usize, workers: usize) -> AssemblyParallelism {
    AssemblyParallelism::from_env()
        .unwrap_or_else(|| AssemblyParallelism::workers((budget / workers.max(1)).max(1)))
}

/// Environment variable naming the executor every driver should use — see
/// [`executor_from_env`].
pub const EXECUTOR_ENV: &str = "ROUGHSIM_EXECUTOR";

/// Parses an executor spec string into a boxed [`UnitExecutor`] sized against
/// a core `budget` (pass [`core_budget`] for the whole machine; a daemon
/// running `J` jobs at once hands each runner `max(1, core_budget() / J)` so
/// `jobs × workers × assembly threads` never oversubscribes the machine):
///
/// * `""` or `threads` — a `budget`-thread pool; `threads:N` — an N-thread
///   pool; its solves each get the [`assembly_share`] of the budget;
/// * `serial` — one unit at a time with the *whole* budget inside the solve
///   (a single-worker pool, bit-identical to [`SerialExecutor`]);
/// * `socket` / `socket:N` — `budget` (or N) persistent socket workers over
///   loopback TCP whose children derive their assembly share from the budget
///   (the binary must call [`crate::maybe_serve_worker`] first thing in
///   `main`).
///
/// Results are bit-identical across all of them; only wall time and process
/// layout change.
///
/// # Errors
///
/// Returns [`EngineError::InvalidScenario`] on an unknown kind or a malformed
/// worker count.
pub fn parse_executor_spec(
    spec: &str,
    budget: usize,
) -> Result<Arc<dyn UnitExecutor>, EngineError> {
    let budget = budget.max(1);
    let bad = |reason: String| EngineError::InvalidScenario(reason);
    let (kind, workers) = match spec.split_once(':') {
        Some((kind, n)) => (
            kind,
            n.parse::<usize>()
                .map_err(|_| bad(format!("executor spec `{spec}`: bad worker count `{n}`")))?,
        ),
        None => (spec, 0),
    };
    let workers = if workers == 0 { budget } else { workers };
    Ok(match kind {
        "" | "threads" => Arc::new(ThreadPoolExecutor::with_assembly(
            workers,
            assembly_share(budget, workers),
        )),
        "serial" => Arc::new(ThreadPoolExecutor::with_assembly(
            1,
            assembly_share(budget, 1),
        )),
        "socket" => Arc::new(SocketExecutor::new(workers).with_core_budget(budget)),
        other => {
            return Err(bad(format!(
                "unknown executor `{other}`: expected `threads[:N]`, `serial` or `socket[:N]`"
            )))
        }
    })
}

/// Selects a [`UnitExecutor`] from the `ROUGHSIM_EXECUTOR` environment
/// variable (see [`parse_executor_spec`] for the accepted values and the
/// meaning of `budget`), so every driver can switch between in-process and
/// socket execution without code changes.
///
/// # Errors
///
/// Propagates [`parse_executor_spec`] failures.
pub fn executor_from_env(budget: usize) -> Result<Arc<dyn UnitExecutor>, EngineError> {
    parse_executor_spec(&std::env::var(EXECUTOR_ENV).unwrap_or_default(), budget)
}

/// Executes planned work units, committing each completed record through
/// the [`UnitSink`].
///
/// Contract:
///
/// * units must be taken from `order` (the plan's unit ids in plan order —
///   on resume, already-checkpointed units are absent);
/// * every completed unit must be committed via [`UnitSink::complete`];
/// * executors should stop picking up new units once
///   [`UnitSink::is_cancelled`] returns `true` and then return `Ok(())` —
///   the run layer turns the shortfall into [`EngineError::Interrupted`];
/// * determinism: a unit's record must depend only on the plan, never on
///   completion order, worker identity or timing.
pub trait UnitExecutor: Send + Sync + std::fmt::Debug {
    /// Short executor label (reports, logs, benchmarks).
    fn name(&self) -> &'static str;

    /// Worker parallelism (reported as [`crate::CampaignReport::threads`]).
    fn parallelism(&self) -> usize;

    /// Executes `order` against `plan`, committing records into `sink`.
    ///
    /// # Errors
    ///
    /// Propagates solver failures and sink (checkpoint I/O) failures.
    fn execute(
        &self,
        plan: &Plan,
        order: &[usize],
        cache: &KernelCache,
        sink: &UnitSink<'_>,
    ) -> Result<(), EngineError>;
}

/// Evaluates every unit on the calling thread, in plan order.
///
/// One unit at a time means the whole core budget is available *inside* each
/// solve: the serial executor gives every unit
/// [`assembly_share`]`(core_budget(), 1)` worth of intra-solve assembly
/// threads (still bit-identical to single-threaded assembly).
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialExecutor;

impl UnitExecutor for SerialExecutor {
    fn name(&self) -> &'static str {
        "serial"
    }

    fn parallelism(&self) -> usize {
        1
    }

    fn execute(
        &self,
        plan: &Plan,
        order: &[usize],
        cache: &KernelCache,
        sink: &UnitSink<'_>,
    ) -> Result<(), EngineError> {
        let assembly = assembly_share(core_budget(), 1);
        for &unit_id in order {
            if sink.is_cancelled() {
                return Ok(());
            }
            let unit = &plan.units()[unit_id];
            sink.unit_started(unit);
            let record = evaluate_unit(plan, unit, cache, assembly)?;
            sink.complete(record)?;
        }
        Ok(())
    }
}

/// Evaluates units on a sized thread pool, prebuilding the distinct shared
/// contexts in parallel first so concurrent units never race to build the
/// same context.
#[derive(Debug)]
pub struct ThreadPoolExecutor {
    pool: rayon::ThreadPool,
    threads: usize,
    assembly: AssemblyParallelism,
}

impl ThreadPoolExecutor {
    /// Creates a pool executor with `threads` workers (0 means one per
    /// hardware core). Each worker's solves get the executor's fair share of
    /// the core budget as intra-solve assembly threads
    /// ([`assembly_share`]), so `units × assembly threads` never
    /// oversubscribes the machine; `ROUGHSIM_ASSEMBLY_THREADS` overrides the
    /// share.
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 { core_budget() } else { threads };
        Self::with_assembly(threads, assembly_share(core_budget(), threads))
    }

    /// Creates a pool executor with an explicit intra-solve assembly
    /// parallelism (bypassing the core-budget split — for tests and for
    /// callers that manage their own budget).
    pub fn with_assembly(threads: usize, assembly: AssemblyParallelism) -> Self {
        let threads = if threads == 0 { core_budget() } else { threads };
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("thread pool construction cannot fail");
        Self {
            pool,
            threads,
            assembly,
        }
    }

    /// The intra-solve assembly parallelism each of this executor's solves
    /// runs with.
    pub fn assembly_parallelism(&self) -> AssemblyParallelism {
        self.assembly
    }
}

impl Default for ThreadPoolExecutor {
    /// One worker per hardware core.
    fn default() -> Self {
        Self::new(0)
    }
}

impl UnitExecutor for ThreadPoolExecutor {
    fn name(&self) -> &'static str {
        "thread-pool"
    }

    fn parallelism(&self) -> usize {
        self.threads
    }

    fn execute(
        &self,
        plan: &Plan,
        order: &[usize],
        cache: &KernelCache,
        sink: &UnitSink<'_>,
    ) -> Result<(), EngineError> {
        // Stage 0: build every distinct context the ordered units need and
        // that is not already cached, in parallel, then publish. Building
        // through a representative case keeps `get_or_build` the only cache
        // write path.
        let mut pending: Vec<&PlannedCase> = Vec::new();
        for &unit_id in order {
            let case = &plan.cases()[plan.units()[unit_id].case_index];
            if !cache.contains(case.context_key)
                && !pending.iter().any(|c| c.context_key == case.context_key)
            {
                pending.push(case);
            }
        }
        let built: Vec<Result<CaseContext, EngineError>> = self.pool.install(|| {
            pending
                .par_iter()
                .map(|case| build_context(plan, case, self.assembly, cache.mf_tables()))
                .collect()
        });
        for (case, result) in pending.iter().zip(built) {
            let context = result?;
            cache.get_or_build(case.context_key, || Ok(context))?;
        }

        // Stage 1: evaluate the ordered units in parallel. Records are
        // committed through the sink as they complete; the run layer
        // reassembles plan order by unit id.
        let results: Vec<Result<(), EngineError>> = self.pool.install(|| {
            order
                .par_iter()
                .map(|&unit_id| {
                    if sink.is_cancelled() {
                        return Ok(());
                    }
                    let unit = &plan.units()[unit_id];
                    sink.unit_started(unit);
                    let record = evaluate_unit(plan, unit, cache, self.assembly)?;
                    sink.complete(record)
                })
                .collect()
        });
        results.into_iter().collect()
    }
}

/// Evaluates one work unit against its (cached) shared context.
///
/// `assembly` is applied per call (cached contexts are shared between
/// executors with different budgets, so the stored problem's parallelism is
/// never trusted here); results are bit-identical at any worker count.
pub(crate) fn evaluate_unit(
    plan: &Plan,
    unit: &WorkUnit,
    cache: &KernelCache,
    assembly: AssemblyParallelism,
) -> Result<UnitRecord, EngineError> {
    let scenario = plan.scenario();
    let case = &plan.cases()[unit.case_index];
    let context = cache.get_or_build(case.context_key, || {
        build_context(plan, case, assembly, cache.mf_tables())
    })?;
    let surface = match unit.task {
        UnitTask::Realization { germ_index } => synthesize(case, &case.germs[germ_index]),
        UnitTask::CollocationNode { node_index } => synthesize(case, &case.germs[node_index]),
        UnitTask::ExplicitSurface => scenario
            .surface
            .clone()
            .expect("deterministic scenarios carry a surface"),
    };
    let problem = context.problem.with_assembly_parallelism(assembly);
    let loss =
        problem.solve_with_reference_using(&surface, context.flat_reference, &context.operator)?;
    Ok(UnitRecord {
        unit: unit.id,
        case_index: unit.case_index,
        value: loss.enhancement_factor(),
        relative_residual: loss.relative_residual(),
        degraded: loss.degraded(),
    })
}

/// Synthesizes the KL realization for one germ vector.
fn synthesize(case: &PlannedCase, germ: &[f64]) -> RoughSurface {
    let kl = case.kl.as_ref().expect("stochastic cases carry a KL basis");
    let mut surface = kl.synthesize(germ);
    surface.scale_heights(case.variance_restore);
    surface
}

/// Builds the shared context of one case: configured problem, Ewald kernels,
/// and the smooth-surface reference solve.
///
/// `assembly` governs only the flat-reference solve performed here; unit
/// evaluations re-apply their own executor's parallelism on every solve, so a
/// context cached by one executor never leaks its thread budget into another.
pub(crate) fn build_context(
    plan: &Plan,
    case: &PlannedCase,
    assembly: AssemblyParallelism,
    tables: &Arc<rough_core::MfTableCache>,
) -> Result<CaseContext, EngineError> {
    let scenario = plan.scenario();
    let spec = scenario.roughness_grid()[case.id.roughness].clone();
    let frequency = scenario.frequencies()[case.id.frequency];
    let problem = rough_core::SwmProblem::builder(*scenario.stack(), spec)
        .frequency(frequency)
        .cells_per_side(scenario.cells_per_side())
        .solver(scenario.solver)
        .assembly(scenario.assembly)
        .operator_repr(scenario.operator_repr)
        .assembly_parallelism(assembly)
        .build()?;
    // Installing the shared generator-table cache is a no-op for dense
    // operators and amortizes matrix-free table builds across the campaign.
    let operator = problem.operator().with_table_cache(Arc::clone(tables));
    let flat = RoughSurface::flat(scenario.cells_per_side(), problem.patch_length());
    let (flat_reference, _) = problem.absorbed_power_with(&flat, &operator)?;
    Ok(CaseContext {
        problem,
        operator,
        flat_reference,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{CampaignReport, CaseOutcome};
    use crate::run::{Run, RunConfig};
    use crate::scenario::Scenario;
    use rough_core::RoughnessSpec;
    use rough_em::material::Stackup;
    use rough_em::units::{GigaHertz, Micrometers};

    fn small_scenario(realizations: usize) -> Scenario {
        Scenario::builder(Stackup::paper_baseline())
            .name("executor-unit")
            .roughness(RoughnessSpec::gaussian(
                Micrometers::new(1.0),
                Micrometers::new(1.0),
            ))
            .frequencies([GigaHertz::new(5.0).into()])
            .cells_per_side(6)
            .max_kl_modes(3)
            .monte_carlo(realizations)
            .master_seed(11)
            .build()
            .unwrap()
    }

    fn run_pooled(scenario: &Scenario, threads: usize) -> CampaignReport {
        Run::new(
            scenario,
            RunConfig::new().executor(ThreadPoolExecutor::new(threads)),
        )
        .unwrap()
        .execute()
        .unwrap()
    }

    #[test]
    fn monte_carlo_campaign_produces_physical_statistics() {
        let report = run_pooled(&small_scenario(5), 2);
        assert_eq!(report.cases.len(), 1);
        assert_eq!(report.records.len(), 5);
        let case = &report.cases[0];
        assert_eq!(case.solves, 5);
        assert!(case.mean > 0.8 && case.mean < 3.0, "mean = {}", case.mean);
        assert!(case.std_dev >= 0.0);
        assert!(report.cache.misses >= 1);
        assert!(report.cache.hits >= 4, "hits = {}", report.cache.hits);
    }

    #[test]
    fn rerunning_hits_the_persistent_cache() {
        let executor: Arc<dyn UnitExecutor> = Arc::new(ThreadPoolExecutor::new(1));
        let cache = Arc::new(KernelCache::new());
        let scenario = small_scenario(3);
        let run = || {
            let config = RunConfig::new()
                .executor_arc(Arc::clone(&executor))
                .cache(Arc::clone(&cache));
            Run::new(&scenario, config).unwrap().execute().unwrap()
        };
        let first = run();
        let second = run();
        assert!(first.cache.misses >= 1);
        assert_eq!(second.cache.misses, 0, "second run must be fully cached");
        assert_eq!(first.cases[0].mean, second.cases[0].mean);
    }

    #[test]
    fn deterministic_sweep_solves_each_frequency_once() {
        let cells = 6;
        let spec = RoughnessSpec::deterministic(Micrometers::new(5.0));
        let l = spec.patch_length();
        let surface = RoughSurface::from_fn(cells, l, |x, y| {
            0.2e-6
                * ((2.0 * std::f64::consts::PI * x / l).cos()
                    + (2.0 * std::f64::consts::PI * y / l).sin())
        });
        let scenario = Scenario::builder(Stackup::paper_baseline())
            .roughness(spec)
            .frequencies([GigaHertz::new(2.0).into(), GigaHertz::new(8.0).into()])
            .cells_per_side(cells)
            .deterministic(surface)
            .build()
            .unwrap();
        let report = run_pooled(&scenario, 2);
        assert_eq!(report.cases.len(), 2);
        for case in &report.cases {
            assert_eq!(case.solves, 1);
            assert!(case.mean > 0.9, "enhancement {}", case.mean);
            assert!(matches!(case.outcome, CaseOutcome::Deterministic(_)));
        }
        // Loss grows with frequency for the same surface.
        assert!(report.cases[1].mean > report.cases[0].mean);
    }

    #[test]
    fn budget_split_never_oversubscribes() {
        // units × per-solve assembly threads must stay within the budget
        // whenever the worker count itself fits it; beyond that each solve
        // degrades to serial assembly. An exported ROUGHSIM_ASSEMBLY_THREADS
        // legitimately overrides the split, and then it must win everywhere.
        let pinned = AssemblyParallelism::from_env();
        for budget in [1usize, 2, 4, 7, core_budget()] {
            for workers in [1usize, 2, 3, 4, 8, 16, 64] {
                let share = assembly_share(budget, workers);
                if let Some(pinned) = pinned {
                    assert_eq!(share, pinned, "the override wins");
                    continue;
                }
                let assembly = share.worker_count();
                if workers <= budget {
                    assert!(
                        workers * assembly <= budget,
                        "{workers} workers x {assembly} assembly threads exceeds budget {budget}"
                    );
                } else {
                    assert_eq!(assembly, 1, "oversized pools must keep assembly serial");
                }
                // A solo unit gets the whole budget.
                if workers == 1 {
                    assert_eq!(assembly, budget);
                }
            }
        }
    }

    #[test]
    fn budgeted_specs_size_workers_and_assembly_within_the_slice() {
        // An unsized `threads` spec fills exactly its budget, one worker per
        // core; `serial` keeps one unit in flight.
        let pool = parse_executor_spec("threads", 3).unwrap();
        assert_eq!(pool.parallelism(), 3);
        let solo = parse_executor_spec("serial", 3).unwrap();
        assert_eq!(solo.parallelism(), 1);
        let explicit = parse_executor_spec("threads:2", 8).unwrap();
        assert_eq!(explicit.parallelism(), 2);
        assert_eq!(parse_executor_spec("", 2).unwrap().name(), "thread-pool");
        assert!(parse_executor_spec("warp-drive", 2).is_err());
        assert!(parse_executor_spec("threads:x", 2).is_err());
        // An unknown kind is refused with an error naming the accepted ones.
        match parse_executor_spec("subprocess:2", 2) {
            Err(EngineError::InvalidScenario(reason)) => {
                for kind in ["threads", "serial", "socket"] {
                    assert!(reason.contains(kind), "{reason}");
                }
            }
            other => panic!("expected InvalidScenario, got {other:?}"),
        }
    }

    #[test]
    fn budgeted_serial_spec_agrees_bitwise_with_the_serial_executor() {
        let scenario = small_scenario(3);
        let reference = Run::new(&scenario, RunConfig::new().executor(SerialExecutor))
            .unwrap()
            .execute()
            .unwrap();
        let budgeted = Run::new(
            &scenario,
            RunConfig::new().executor_arc(parse_executor_spec("serial", 2).unwrap()),
        )
        .unwrap()
        .execute()
        .unwrap();
        let a: Vec<u64> = reference
            .records
            .iter()
            .map(|r| r.value.to_bits())
            .collect();
        let b: Vec<u64> = budgeted.records.iter().map(|r| r.value.to_bits()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn intra_solve_parallelism_is_bit_identical_across_executors() {
        // A multi-unit campaign with intra-solve assembly threads enabled
        // must reproduce the fully serial run bit for bit — the combined
        // guarantee of deterministic row panels and plan-time seeding.
        let scenario = small_scenario(4);
        let serial = Run::new(
            &scenario,
            RunConfig::new().executor(ThreadPoolExecutor::with_assembly(
                1,
                rough_core::AssemblyParallelism::Serial,
            )),
        )
        .unwrap()
        .execute()
        .unwrap();
        let nested = Run::new(
            &scenario,
            RunConfig::new().executor(ThreadPoolExecutor::with_assembly(
                2,
                rough_core::AssemblyParallelism::Threads(4),
            )),
        )
        .unwrap()
        .execute()
        .unwrap();
        let serial_bits: Vec<u64> = serial.records.iter().map(|r| r.value.to_bits()).collect();
        let nested_bits: Vec<u64> = nested.records.iter().map(|r| r.value.to_bits()).collect();
        assert_eq!(serial_bits, nested_bits);
        assert_eq!(
            serial.cases[0].mean.to_bits(),
            nested.cases[0].mean.to_bits()
        );
    }

    #[test]
    fn unit_times_are_recorded_for_in_process_executors() {
        let report = run_pooled(&small_scenario(3), 2);
        assert_eq!(report.unit_times.len(), report.records.len());
        assert!(
            report.unit_times.iter().all(|t| t.is_some()),
            "every in-process unit must carry a measured wall time"
        );
        // The JSON summary's per-case mean is exposed directly.
        assert!(report.measured_mean_unit_seconds(0).unwrap() > 0.0);
        assert!(report.measured_mean_unit_seconds(99).is_none());
    }

    #[test]
    fn serial_and_thread_pool_executors_agree_bitwise() {
        let scenario = small_scenario(4);
        let serial = Run::new(&scenario, RunConfig::new().executor(SerialExecutor))
            .unwrap()
            .execute()
            .unwrap();
        let pooled = Run::new(
            &scenario,
            RunConfig::new().executor(ThreadPoolExecutor::new(3)),
        )
        .unwrap()
        .execute()
        .unwrap();
        assert_eq!(serial.threads, 1);
        assert_eq!(pooled.threads, 3);
        let serial_bits: Vec<u64> = serial.records.iter().map(|r| r.value.to_bits()).collect();
        let pooled_bits: Vec<u64> = pooled.records.iter().map(|r| r.value.to_bits()).collect();
        assert_eq!(serial_bits, pooled_bits);
        assert_eq!(
            serial.cases[0].mean.to_bits(),
            pooled.cases[0].mean.to_bits()
        );
    }
}
