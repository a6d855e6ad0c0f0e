//! Layer-by-layer replay of a campaign's solves.
//!
//! The engine reports one wall time per unit. To split that time into
//! layers, the traced run replays every context (flat reference) and unit
//! of a finished campaign through the same public calls that
//! `SwmProblem::absorbed_power_diagnosed` makes — Ewald operator, mesh,
//! dense assembly and LU, or matrix-free assembly, preconditioner and
//! Krylov solve with its degradation ladder — wrapping each call in a span.
//! The replayed values must be bit-identical to the engine's records, which
//! proves the replay measured the same work.

use crate::trace::Tracer;
use rough_core::assembly3d::assemble_system_with;
use rough_core::loss::LossResult;
use rough_core::mesh::PatchMesh;
use rough_core::power::absorbed_power_3d;
use rough_core::solver::{krylov_config, solve_operator_configured, solve_system};
use rough_core::{
    AssemblyParallelism, AssemblyScheme, AssemblyStats, MatrixFreeOperator, MfTableCache,
    OperatorRepr, SolverKind, SwmError, SwmOperator, SwmProblem,
};
use rough_engine::plan::UnitTask;
use rough_engine::rng::derive_stream;
use rough_engine::{EnsembleMode, Plan};
use rough_numerics::c64;
use rough_numerics::fft::{fft3_in_place, Direction};
use rough_numerics::iterative::LinearOperator;
use rough_stochastic::collocation::{run_sscm_on_grid, SscmConfig};
use rough_stochastic::monte_carlo::MonteCarloResult;
use rough_stochastic::sparse_grid::SparseGrid;
use rough_surface::generation::kl::KarhunenLoeve;
use rough_surface::RoughSurface;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Stream offset the engine adds to a case index to seed SSCM surrogate
/// sampling (mirrors `rough-engine`'s run layer; the bit-identity check
/// against the engine's case statistics would catch a drift).
const SURROGATE_STREAM_OFFSET: u64 = 1 << 32;

/// What the replay needs beyond the plan: the settings a `Scenario` keeps
/// private.
#[derive(Debug, Clone, Copy)]
pub struct ReplaySettings<'a> {
    /// The scenario's solver.
    pub solver: SolverKind,
    /// The deterministic surface, for `Deterministic` scenarios.
    pub surface: Option<&'a RoughSurface>,
    /// KL energy fraction and mode cap, for stochastic scenarios.
    pub energy_fraction: f64,
    /// KL mode cap.
    pub max_kl_modes: usize,
    /// SSCM surrogate sample count.
    pub surrogate_samples: usize,
    /// The executor's intra-solve assembly parallelism.
    pub parallelism: AssemblyParallelism,
    /// Replay threads (the executor's worker count).
    pub workers: usize,
}

/// Work counts gathered during a replay (times come from the spans).
#[derive(Debug, Default)]
pub struct Counters {
    /// Krylov iterations.
    pub iterations: usize,
    /// Slab interpolation levels, summed over matrix-free solves.
    pub slab_levels: usize,
    /// FFT planes, summed over matrix-free solves.
    pub fft_planes: usize,
    /// Stored near corrections, summed over matrix-free solves.
    pub near_corrections: usize,
    /// Dense matrix entries assembled.
    pub dense_entries: usize,
    /// Near-field integration statistics, merged over all solves.
    pub nearfield: AssemblyStats,
    /// Distinct `(planes, side)` FFT cubes of the matrix-free operators.
    pub cubes: BTreeSet<(usize, usize)>,
}

impl Counters {
    /// Adds another replay's counts.
    pub fn merge(&mut self, other: &Counters) {
        self.iterations += other.iterations;
        self.slab_levels += other.slab_levels;
        self.fft_planes += other.fft_planes;
        self.near_corrections += other.near_corrections;
        self.dense_entries += other.dense_entries;
        self.nearfield.merge(&other.nearfield);
        self.cubes.extend(other.cubes.iter().copied());
    }
}

/// Outcome of replaying one campaign.
#[derive(Debug)]
pub struct Replay {
    /// Replayed `Pr/Ps` per unit, in plan order.
    pub values: Vec<f64>,
    /// Replayed `(mean, std_dev)` per case.
    pub cases: Vec<(f64, f64)>,
    /// Work counts.
    pub counters: Counters,
    /// Summed duration of the replayed unit spans, minus the duplicate
    /// warm matrix-free assemblies the engine does not perform.
    pub unit_layer_s: f64,
}

/// Span-recording wrapper around a linear operator.
struct TracedOp<'a> {
    op: &'a dyn LinearOperator,
    tracer: &'a Tracer,
    name: &'static str,
    parent: u64,
    trace: u64,
}

impl LinearOperator for TracedOp<'_> {
    fn dim(&self) -> usize {
        self.op.dim()
    }

    fn apply(&self, x: &[c64]) -> Vec<c64> {
        let start = Instant::now();
        let y = self.op.apply(x);
        self.tracer.record(
            self.name,
            Some(self.parent),
            self.trace,
            start,
            Instant::now(),
        );
        y
    }
}

/// One replayed solve: `(absorbed power, relative residual, seconds spent
/// in the duplicate warm assembly)`.
type Solved = (f64, f64, f64);

struct Solver<'a> {
    tracer: &'a Tracer,
    parallelism: AssemblyParallelism,
}

impl Solver<'_> {
    /// Mirrors `SwmProblem::absorbed_power_diagnosed`.
    fn absorbed_power(
        &self,
        operator: &SwmOperator,
        solver: SolverKind,
        surface: &RoughSurface,
        parent: u64,
        trace: u64,
        counters: &mut Counters,
    ) -> Result<Solved, SwmError> {
        let mesh = PatchMesh::from_surface(surface);
        let (solution, residual, n, duplicate) = match operator.operator_repr() {
            OperatorRepr::Dense => {
                let (x, residual, n) =
                    self.dense(&mesh, operator, solver, parent, trace, counters)?;
                (x, residual, n, 0.0)
            }
            OperatorRepr::MatrixFree(mf_policy) => {
                let AssemblyScheme::LocallyCorrected(policy) = operator.assembly() else {
                    return Err(SwmError::InvalidConfiguration(
                        "the matrix-free operator requires the locally corrected assembly scheme"
                            .into(),
                    ));
                };
                let assemble = |cache: &MfTableCache| {
                    MatrixFreeOperator::assemble_with_cache(
                        &mesh,
                        operator.green_dielectric(),
                        operator.green_conductor(),
                        operator.beta(),
                        operator.k1(),
                        policy,
                        mf_policy,
                        operator.kernel_eval(),
                        self.parallelism,
                        Some(cache),
                    )
                };
                // Cold: tables + near precorrection; warm: the same call
                // with the tables cached, i.e. near precorrection alone.
                let tables = MfTableCache::new();
                let t = self.tracer;
                t.span("core.matrixfree.assemble_cold", Some(parent), trace, |_| {
                    assemble(&tables)
                });
                let warm_start = Instant::now();
                let mf = t.span("core.matrixfree.assemble_warm", Some(parent), trace, |_| {
                    assemble(&tables)
                });
                let duplicate = warm_start.elapsed().as_secs_f64();
                counters.slab_levels += mf.slab_levels();
                counters.fft_planes += mf.fft_planes();
                counters.near_corrections += mf.near_corrections();
                counters.nearfield.merge(mf.stats());
                counters
                    .cubes
                    .insert((mf.fft_planes(), surface.samples_per_side()));
                let precond = t.span("core.matrixfree.precond_build", Some(parent), trace, |_| {
                    mf.preconditioner()
                });
                let base = krylov_config(solver)?;
                let tight = base.tightened();
                let rungs = [
                    (solver, base),
                    (
                        SolverKind::Gmres {
                            tolerance: tight.tolerance,
                            restart: tight.restart,
                        },
                        tight,
                    ),
                ];
                let mut solved = None;
                for (kind, config) in &rungs {
                    let result = t.span("numerics.iterative.krylov", Some(parent), trace, |id| {
                        let op = TracedOp {
                            op: &mf,
                            tracer: t,
                            name: "core.matrixfree.matvec",
                            parent: id,
                            trace,
                        };
                        let pre = TracedOp {
                            op: &precond,
                            tracer: t,
                            name: "core.matrixfree.precond_apply",
                            parent: id,
                            trace,
                        };
                        solve_operator_configured(&op, mf.rhs(), *kind, Some(&pre), config)
                    });
                    if let Ok((x, stats)) = result {
                        counters.iterations += stats.iterations;
                        solved = Some((x, stats.relative_residual, mf.surface_unknowns()));
                        break;
                    }
                }
                let (x, residual, n) = match solved {
                    Some(solved) => solved,
                    None => self.dense(
                        &mesh,
                        operator,
                        SolverKind::DirectLu,
                        parent,
                        trace,
                        counters,
                    )?,
                };
                (x, residual, n, duplicate)
            }
        };
        let power = absorbed_power_3d(&mesh, &solution[..n], &solution[n..]);
        Ok((power, residual, duplicate))
    }

    /// Mirrors the dense solve path: assembly, then the linear solve.
    fn dense(
        &self,
        mesh: &PatchMesh,
        operator: &SwmOperator,
        solver: SolverKind,
        parent: u64,
        trace: u64,
        counters: &mut Counters,
    ) -> Result<(Vec<c64>, f64, usize), SwmError> {
        let t = self.tracer;
        let system = t.span("core.assembly3d.assemble", Some(parent), trace, |_| {
            assemble_system_with(
                mesh,
                operator.green_dielectric(),
                operator.green_conductor(),
                operator.beta(),
                operator.k1(),
                operator.assembly(),
                operator.kernel_eval(),
                self.parallelism,
            )
        });
        counters.dense_entries += system.matrix.rows() * system.matrix.cols();
        counters.nearfield.merge(&system.stats);
        let name = match solver {
            SolverKind::DirectLu => "numerics.linalg.lu",
            _ => "numerics.iterative.krylov",
        };
        let (x, stats) = t.span(name, Some(parent), trace, |_| {
            solve_system(&system.matrix, &system.rhs, solver)
        })?;
        counters.iterations += stats.iterations;
        Ok((x, stats.relative_residual, system.surface_unknowns))
    }
}

/// Runs `count` jobs on `workers` scoped threads, each thread folding its
/// results into its own [`Counters`].
fn parallel<T: Send>(
    workers: usize,
    count: usize,
    job: impl Fn(usize, &mut Counters) -> Result<T, String> + Sync,
) -> Result<(Vec<T>, Counters), String> {
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..count).map(|_| None).collect());
    let total = Mutex::new(Counters::default());
    let first_error: Mutex<Option<String>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..workers.max(1) {
            scope.spawn(|| {
                let mut local = Counters::default();
                loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= count {
                        break;
                    }
                    match job(i, &mut local) {
                        Ok(value) => slots.lock().expect("replay slots poisoned")[i] = Some(value),
                        Err(e) => {
                            first_error
                                .lock()
                                .expect("replay error slot poisoned")
                                .get_or_insert(e);
                            break;
                        }
                    }
                }
                total
                    .lock()
                    .expect("replay counters poisoned")
                    .merge(&local);
            });
        }
    });
    if let Some(e) = first_error
        .into_inner()
        .expect("replay error slot poisoned")
    {
        return Err(e);
    }
    let values = slots
        .into_inner()
        .expect("replay slots poisoned")
        .into_iter()
        .map(|v| v.expect("every replay job ran"))
        .collect();
    Ok((
        values,
        total.into_inner().expect("replay counters poisoned"),
    ))
}

/// Replays every context and unit of `plan`. Spans of case `c` carry trace
/// id `trace_base + c`; spans of unit `u` carry `trace_base + cases + u`.
///
/// # Errors
///
/// Describes a solver failure or a scenario the replay cannot mirror.
pub fn replay(
    plan: &Plan,
    settings: &ReplaySettings<'_>,
    tracer: &Tracer,
    trace_base: u64,
) -> Result<Replay, String> {
    let scenario = plan.scenario();
    let cells = scenario.cells_per_side();
    let solver = Solver {
        tracer,
        parallelism: settings.parallelism,
    };
    let cases = plan.cases();

    // KL bases, rebuilt the way the planner builds them.
    let mut kl: Vec<Option<KarhunenLoeve>> = Vec::new();
    for spec in scenario.roughness_grid() {
        kl.push(match spec.correlation() {
            Some(cf) if !matches!(scenario.mode(), EnsembleMode::Deterministic) => {
                Some(tracer.span("surface.kl_basis", None, trace_base, |_| {
                    let basis = KarhunenLoeve::new(
                        *cf,
                        cells,
                        spec.patch_length(),
                        settings.energy_fraction,
                    )
                    .map_err(|e| format!("KL basis: {e}"))?;
                    let capped = basis.modes().min(settings.max_kl_modes);
                    Ok::<_, String>(basis.with_modes(capped))
                })?)
            }
            _ => None,
        });
    }

    // Stage 0: one context per case (operator + flat reference).
    let (contexts, mut counters) = parallel(settings.workers, cases.len(), |c, counters| {
        let case = &cases[c];
        let trace = trace_base + c as u64;
        tracer.span("replay.context", None, trace, |id| {
            let spec = scenario.roughness_grid()[case.id.roughness].clone();
            let problem = SwmProblem::builder(*scenario.stack(), spec)
                .frequency(scenario.frequencies()[case.id.frequency])
                .cells_per_side(cells)
                .solver(settings.solver)
                .assembly(scenario.assembly())
                .operator_repr(scenario.operator_repr())
                .assembly_parallelism(settings.parallelism)
                .build()
                .map_err(|e| e.to_string())?;
            let operator = tracer.span("em.ewald.build", Some(id), trace, |_| problem.operator());
            let flat = RoughSurface::flat(cells, problem.patch_length());
            let (flat_power, _, _) = solver
                .absorbed_power(&operator, settings.solver, &flat, id, trace, counters)
                .map_err(|e| e.to_string())?;
            Ok((problem, operator, flat_power))
        })
    })?;

    // Stage 1: every unit against its case's context.
    let units = plan.units();
    let unit_trace_base = trace_base + cases.len() as u64;
    let (solved, unit_counters) = parallel(settings.workers, units.len(), |u, counters| {
        let unit = &units[u];
        let case = &cases[unit.case_index];
        let trace = unit_trace_base + u as u64;
        let (problem, operator, flat_power) = &contexts[unit.case_index];
        let (id, started) = tracer.open("replay.unit", None, trace);
        let surface = match unit.task {
            UnitTask::Realization { germ_index: i }
            | UnitTask::CollocationNode { node_index: i } => {
                tracer.span("surface.synthesize", Some(id), trace, |_| {
                    let basis = kl[case.id.roughness]
                        .as_ref()
                        .ok_or("stochastic unit without a KL basis")?;
                    let mut surface = basis.synthesize(&case.germs[i]);
                    surface.scale_heights(case.variance_restore);
                    Ok::<_, String>(surface)
                })?
            }
            UnitTask::ExplicitSurface => settings
                .surface
                .ok_or("deterministic unit without a surface")?
                .clone(),
        };
        let (power, residual, duplicate) = solver
            .absorbed_power(operator, settings.solver, &surface, id, trace, counters)
            .map_err(|e| e.to_string())?;
        let value = LossResult::new(
            problem.frequency(),
            power,
            *flat_power,
            problem.analytic_smooth_power(),
            residual,
            cells * cells,
        )
        .enhancement_factor();
        tracer.close(id);
        Ok((value, started.elapsed().as_secs_f64() - duplicate))
    })?;
    counters.merge(&unit_counters);
    let values: Vec<f64> = solved.iter().map(|&(v, _)| v).collect();
    let unit_layer_s = solved.iter().map(|&(_, s)| s).sum();

    // Case statistics.
    let mut case_stats = Vec::with_capacity(cases.len());
    for (c, case) in cases.iter().enumerate() {
        let node_values = &values[case.unit_range.clone()];
        case_stats.push(match scenario.mode() {
            EnsembleMode::Sscm { order } => tracer.span(
                "stochastic.collocation",
                None,
                trace_base + c as u64,
                |_| {
                    let grid = SparseGrid::new(case.kl_modes(), *order);
                    let config = SscmConfig {
                        order: *order,
                        surrogate_samples: settings.surrogate_samples,
                        seed: derive_stream(
                            scenario.master_seed(),
                            SURROGATE_STREAM_OFFSET + c as u64,
                        ),
                    };
                    let result = run_sscm_on_grid(&grid, &config, node_values);
                    (result.mean(), result.std_dev())
                },
            ),
            EnsembleMode::MonteCarlo { .. } => {
                let mc = MonteCarloResult::from_samples(node_values);
                (mc.mean(), mc.std_dev())
            }
            EnsembleMode::Deterministic => (node_values[0], 0.0),
        });
    }

    Ok(Replay {
        values,
        cases: case_stats,
        counters,
        unit_layer_s,
    })
}

/// Times one forward 3-D FFT on each `(planes, side)` cube (median of
/// several calls on a deterministic buffer), recording a span per call.
/// Returns `(planes, side, seconds per call)` per cube.
pub fn fft_cubes(cubes: &BTreeSet<(usize, usize)>, tracer: &Tracer) -> Vec<(usize, usize, f64)> {
    const REPS: usize = 7;
    cubes
        .iter()
        .map(|&(planes, side)| {
            let len = planes * side * side;
            let input: Vec<c64> = (0..len)
                .map(|i| c64::new((i % 7) as f64 - 3.0, (i % 5) as f64 * 0.5))
                .collect();
            let mut data = input.clone();
            let mut times = Vec::with_capacity(REPS);
            for _ in 0..REPS {
                data.copy_from_slice(&input);
                let start = Instant::now();
                fft3_in_place(&mut data, planes, side, side, Direction::Forward)
                    .expect("any-length FFT");
                let end = Instant::now();
                tracer.record("numerics.fft.fft3", None, 0, start, end);
                times.push((end - start).as_secs_f64());
                std::hint::black_box(&mut data);
            }
            (planes, side, crate::stats::median(&times))
        })
        .collect()
}
