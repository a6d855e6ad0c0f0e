//! The benchmark's inputs: each workload's scenario catalogue, and how a
//! seed picks from it. Every scenario goes to the program through the public
//! `rough-engine` builder; references (`refs/`) cover whole catalogues, so
//! any seed's inputs can be checked.

use crate::stats::permutation;
use rough_core::{MatrixFreePolicy, OperatorRepr, RoughnessSpec, SolverKind};
use rough_em::material::{Conductor, Dielectric, Stackup};
use rough_em::units::{GigaHertz, Micrometers};
use rough_engine::Scenario;
use rough_surface::RoughSurface;

/// Krylov settings of the matrix-free runs (those of the `fig5-reduced-mf`
/// service preset).
pub const MF_SOLVER: SolverKind = SolverKind::Gmres {
    tolerance: 1e-12,
    restart: 60,
};

/// `mf-fig5` grids: 4 takes the radix-2 FFT path, 5 the non-power-of-two
/// (Bluestein) path. Small grids keep a pass at a few seconds, so a run
/// holds enough passes for its medians.
pub const MF_CELLS: [usize; 2] = [4, 5];
/// `mf-fig5` frequency, the paper's Fig. 5 point.
pub const MF_GHZ: f64 = 16.0;

/// `sscm-dense` grid.
pub const SSCM_CELLS: usize = 5;
/// `sscm-dense` KL mode cap (2·4 + 1 = 9 first-order collocation nodes).
pub const SSCM_KL_MODES: usize = 4;
/// `sscm-dense` surrogate samples behind each case's CDF. A tenth of the
/// engine default keeps a `Run::resume` of the finished campaign at a few
/// milliseconds, so its latency tail is sampled over a short window.
pub const SSCM_SURROGATE_SAMPLES: usize = 2_000;

/// `daemon-mix` job grid.
pub const DAEMON_CELLS: usize = 6;
/// Size of each `daemon-mix` job catalogue (Fig. 5 and Monte-Carlo).
pub const DAEMON_VARIANTS: usize = 24;

fn paper_stack() -> Stackup {
    Stackup::new(Conductor::copper_foil(), Dielectric::silicon_dioxide())
}

/// The Fig. 5 half-spheroid: height 5.8 µm, base radius 4.7 µm, centred on
/// a 12 µm tile.
pub fn fig5_surface(cells: usize) -> RoughSurface {
    let tile = 12.0e-6;
    let (height, base_radius) = (5.8e-6, 4.7e-6);
    RoughSurface::from_fn(cells, tile, |x, y| {
        let dx = x - 0.5 * tile;
        let dy = y - 0.5 * tile;
        let r2 = (dx * dx + dy * dy) / (base_radius * base_radius);
        if r2 < 1.0 {
            height * (1.0 - r2).sqrt()
        } else {
            0.0
        }
    })
}

/// One deterministic Fig. 5 campaign. `matrix_free` selects the
/// matrix-free operator with [`MF_SOLVER`]; otherwise the dense operator with
/// `DirectLu` (the reference oracle).
pub fn fig5(name: &str, cells: usize, ghz: f64, matrix_free: bool) -> Scenario {
    let mut builder = Scenario::builder(paper_stack())
        .name(name)
        .roughness(RoughnessSpec::deterministic(Micrometers::new(12.0)))
        .frequencies([GigaHertz::new(ghz).into()])
        .cells_per_side(cells);
    if matrix_free {
        builder = builder
            .solver(MF_SOLVER)
            .operator_repr(OperatorRepr::MatrixFree(MatrixFreePolicy::default()));
    }
    builder
        .deterministic(fig5_surface(cells))
        .build()
        .expect("valid Fig. 5 scenario")
}

/// The first-order SSCM campaign of `sscm-dense`: Gaussian surface (rms
/// 1 µm, correlation length 1 µm), 4 KL modes (9 collocation nodes), one
/// frequency (8 GHz, so that a pass stays at a few seconds), dense
/// `DirectLu`. The master seed drives the
/// surrogate sampling behind each case's CDF; the collocation nodes, and so
/// the cost and the checked mean and standard deviation, do not depend on it.
pub fn sscm(master_seed: u64) -> Scenario {
    Scenario::builder(paper_stack())
        .name("sscm-dense")
        .roughness(RoughnessSpec::gaussian(
            Micrometers::new(1.0),
            Micrometers::new(1.0),
        ))
        .frequencies([GigaHertz::new(8.0).into()])
        .cells_per_side(SSCM_CELLS)
        .max_kl_modes(SSCM_KL_MODES)
        .sscm(1)
        .surrogate_samples(SSCM_SURROGATE_SAMPLES)
        .master_seed(master_seed)
        .build()
        .expect("valid SSCM scenario")
}

/// The two kinds of fresh `daemon-mix` job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobKind {
    /// Deterministic Fig. 5 half-spheroid, one frequency (2 solves).
    Fig5,
    /// Monte-Carlo ensemble of 2 realizations, one frequency (3 solves).
    MonteCarlo,
}

impl JobKind {
    /// Label used in reference keys.
    pub fn label(self) -> &'static str {
        match self {
            JobKind::Fig5 => "fig5",
            JobKind::MonteCarlo => "mc",
        }
    }
}

/// Frequency of catalogue variant `variant`: 8 GHz plus `variant` MHz, so
/// every variant is a distinct job of the same cost.
fn daemon_ghz(variant: usize) -> f64 {
    8.0 + 0.001 * variant as f64
}

/// Catalogue entry `variant` of `kind`.
pub fn daemon_job(kind: JobKind, variant: usize) -> Scenario {
    assert!(
        variant < DAEMON_VARIANTS,
        "catalogue has {DAEMON_VARIANTS} variants"
    );
    let ghz = daemon_ghz(variant);
    match kind {
        JobKind::Fig5 => Scenario::builder(paper_stack())
            .name("daemon-mix-fig5")
            .roughness(RoughnessSpec::deterministic(Micrometers::new(12.0)))
            .frequencies([GigaHertz::new(ghz).into()])
            .cells_per_side(DAEMON_CELLS)
            .deterministic(fig5_surface(DAEMON_CELLS))
            .build()
            .expect("valid daemon Fig. 5 job"),
        JobKind::MonteCarlo => Scenario::builder(paper_stack())
            .name("daemon-mix-mc")
            .roughness(RoughnessSpec::gaussian(
                Micrometers::new(1.0),
                Micrometers::new(1.0),
            ))
            .frequencies([GigaHertz::new(ghz).into()])
            .cells_per_side(DAEMON_CELLS)
            .max_kl_modes(4)
            .monte_carlo(2)
            .master_seed(1000 + variant as u64)
            .build()
            .expect("valid daemon Monte-Carlo job"),
    }
}

/// Tiny job `index` (0 or 1) of the two that bring a fresh daemon's
/// socket workers up, one per runner.
pub fn warm_up_job(index: usize) -> Scenario {
    Scenario::builder(paper_stack())
        .name("daemon-warm-up")
        .roughness(RoughnessSpec::deterministic(Micrometers::new(12.0)))
        .frequencies([GigaHertz::new(1.0 + index as f64).into()])
        .cells_per_side(4)
        .deterministic(fig5_surface(4))
        .build()
        .expect("valid warm-up job")
}

/// Kind of a client's `k`-th fresh job: two Fig. 5 jobs, then one
/// Monte-Carlo job, with the clients in different phase. The Fig. 5 jobs are
/// the majority, so the median fresh-job latency always falls on them.
fn daemon_kind(client: usize, k: usize) -> JobKind {
    if (k + client) % 3 == 2 {
        JobKind::MonteCarlo
    } else {
        JobKind::Fig5
    }
}

/// The `k`-th fresh job of client `client` (of 2) under `seed`. Each kind's
/// catalogue is walked in a seeded order, split between the clients, so no
/// fresh job repeats within a run until a client exhausts its half.
pub fn daemon_fresh_job(seed: u64, client: usize, k: usize) -> Option<(JobKind, usize)> {
    let kind = daemon_kind(client, k);
    let nth = (0..k).filter(|&j| daemon_kind(client, j) == kind).count();
    let slot = 2 * nth + client;
    (slot < DAEMON_VARIANTS).then(|| (kind, permutation(DAEMON_VARIANTS, seed ^ kind as u64)[slot]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_jobs_never_repeat() {
        let mut seen = std::collections::HashSet::new();
        for client in 0..2 {
            for k in 0.. {
                match daemon_fresh_job(42, client, k) {
                    Some(job) => assert!(seen.insert(job), "{job:?} repeats"),
                    None => break,
                }
            }
        }
        // The Fig. 5 half of the catalogue runs out first.
        assert!(seen.len() >= DAEMON_VARIANTS + DAEMON_VARIANTS / 2);
    }
}
