//! Glue between the deterministic SWM solver and the stochastic drivers: the
//! "mean loss-enhancement factor by SSCM" computation every frequency-sweep
//! figure of the paper uses — now a thin [`Scenario`] definition executed by
//! the `rough-engine` batch scheduler instead of a hand-rolled serial loop.

use rough_em::material::Stackup;
use rough_em::units::Frequency;
use rough_engine::{CaseOutcome, Run, RunConfig, Scenario};
use rough_stochastic::collocation::SscmResult;
use rough_surface::correlation::CorrelationFunction;

/// Configuration of one SSCM-over-SWM evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SscmSweepConfig {
    /// MOM cells per patch side.
    pub cells_per_side: usize,
    /// Cap on the number of KL modes (stochastic dimension).
    pub max_kl_modes: usize,
    /// KL energy fraction used before the cap is applied.
    pub energy_fraction: f64,
    /// Chaos order (1 or 2).
    pub order: usize,
}

impl Default for SscmSweepConfig {
    fn default() -> Self {
        Self {
            cells_per_side: 12,
            max_kl_modes: 8,
            energy_fraction: 0.95,
            order: 1,
        }
    }
}

impl SscmSweepConfig {
    /// Expresses this configuration as an engine [`Scenario`] over a roughness
    /// grid and a frequency sweep — the preferred entry point for the figure
    /// drivers, which batch a whole sweep into one campaign.
    pub fn scenario(
        &self,
        stack: Stackup,
        correlations: impl IntoIterator<Item = CorrelationFunction>,
        frequencies: impl IntoIterator<Item = Frequency>,
    ) -> Scenario {
        Scenario::builder(stack)
            .name("sscm-sweep")
            .roughness_grid(
                correlations
                    .into_iter()
                    .map(rough_core::RoughnessSpec::from_correlation),
            )
            .frequencies(frequencies)
            .cells_per_side(self.cells_per_side)
            .max_kl_modes(self.max_kl_modes)
            .energy_fraction(self.energy_fraction)
            .sscm(self.order)
            .build()
            .expect("valid SSCM sweep scenario")
    }
}

/// Outcome of one SSCM-over-SWM evaluation at a single frequency.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Mean loss-enhancement factor `E[Pr/Ps]`.
    pub mean_enhancement: f64,
    /// Standard deviation of the enhancement factor.
    pub std_dev: f64,
    /// Number of deterministic SWM solves used.
    pub solves: usize,
    /// Number of KL modes (stochastic dimension).
    pub kl_modes: usize,
    /// Full SSCM result (surrogate, CDF) for further inspection.
    pub sscm: SscmResult,
}

/// Computes the SSCM mean of the loss-enhancement factor for a stochastic
/// surface at one frequency.
///
/// Prefer a whole-sweep [`SscmSweepConfig::scenario`] when evaluating several
/// points: one campaign shares its kernel cache across every point.
///
/// # Panics
///
/// Panics if the configuration is invalid or a linear solve fails —
/// experiment drivers treat both as fatal.
pub fn sscm_mean_enhancement(
    stack: Stackup,
    cf: CorrelationFunction,
    frequency: Frequency,
    config: &SscmSweepConfig,
) -> SweepOutcome {
    let scenario = config.scenario(stack, [cf], [frequency]);
    let report = Run::new(&scenario, RunConfig::new())
        .and_then(Run::execute)
        .expect("SSCM campaign");
    let case = &report.cases[0];
    let sscm = match &case.outcome {
        CaseOutcome::Sscm(sscm) => sscm.clone(),
        other => unreachable!("SSCM scenario produced {other:?}"),
    };
    SweepOutcome {
        mean_enhancement: case.mean,
        std_dev: case.std_dev,
        solves: report.total_solves,
        kl_modes: case.kl_modes,
        sscm,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rough_em::units::GigaHertz;

    #[test]
    fn sscm_over_swm_produces_physical_enhancement() {
        // A deliberately small configuration: 8×8 cells, 4 KL modes, 1st order
        // (9 SWM solves + 1 flat reference).
        let config = SscmSweepConfig {
            cells_per_side: 8,
            max_kl_modes: 4,
            energy_fraction: 0.9,
            order: 1,
        };
        let outcome = sscm_mean_enhancement(
            Stackup::paper_baseline(),
            CorrelationFunction::gaussian(1.0e-6, 1.0e-6),
            GigaHertz::new(5.0).into(),
            &config,
        );
        assert_eq!(outcome.kl_modes, 4);
        assert_eq!(outcome.solves, 2 * 4 + 1 + 1);
        assert!(
            outcome.mean_enhancement > 1.0 && outcome.mean_enhancement < 3.0,
            "mean = {}",
            outcome.mean_enhancement
        );
        assert!(outcome.std_dev >= 0.0);
    }

    #[test]
    fn whole_sweep_scenarios_share_contexts_per_case() {
        let config = SscmSweepConfig {
            cells_per_side: 6,
            max_kl_modes: 2,
            energy_fraction: 0.9,
            order: 1,
        };
        let scenario = config.scenario(
            Stackup::paper_baseline(),
            [CorrelationFunction::gaussian(1.0e-6, 1.0e-6)],
            [GigaHertz::new(1.0).into(), GigaHertz::new(5.0).into()],
        );
        let plan = scenario.plan().expect("plan");
        assert_eq!(plan.cases().len(), 2);
        // Level-1 grid over 2 germs: 5 nodes per case.
        assert_eq!(plan.units().len(), 10);
        assert_eq!(plan.distinct_contexts(), 2);
    }
}
