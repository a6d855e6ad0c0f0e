//! Integration tests of the batch engine: thread-count invariance of the
//! statistics, kernel-cache effectiveness, and plan/solve budgets.

use rough_core::{AssemblyScheme, NearFieldPolicy, RoughnessSpec};
use rough_em::material::Stackup;
use rough_em::units::{GigaHertz, Micrometers};
use rough_engine::{
    CampaignReport, CaseOutcome, KernelCache, Run, RunConfig, Scenario, ThreadPoolExecutor,
    UnitExecutor,
};
use rough_stochastic::sparse_grid::SparseGrid;
use std::sync::Arc;

/// A thread pool plus a kernel cache that persists across the campaigns run
/// on it, so later campaigns hit the contexts earlier ones built.
fn shared(threads: usize) -> (Arc<dyn UnitExecutor>, Arc<KernelCache>) {
    (
        Arc::new(ThreadPoolExecutor::new(threads)),
        Arc::new(KernelCache::new()),
    )
}

fn run_on(
    (executor, cache): &(Arc<dyn UnitExecutor>, Arc<KernelCache>),
    scenario: &Scenario,
) -> CampaignReport {
    let config = RunConfig::new()
        .executor_arc(Arc::clone(executor))
        .cache(Arc::clone(cache));
    Run::new(scenario, config)
        .expect("plan")
        .execute()
        .expect("campaign")
}

fn monte_carlo_scenario(realizations: usize, master_seed: u64) -> Scenario {
    Scenario::builder(Stackup::paper_baseline())
        .name("determinism")
        .roughness(RoughnessSpec::gaussian(
            Micrometers::new(1.0),
            Micrometers::new(1.0),
        ))
        .frequencies([GigaHertz::new(5.0).into()])
        .cells_per_side(8)
        .max_kl_modes(4)
        .monte_carlo(realizations)
        .master_seed(master_seed)
        .build()
        .expect("valid scenario")
}

#[test]
fn statistics_are_bit_identical_across_thread_counts() {
    // The acceptance bar of the engine: for a fixed master seed the campaign
    // statistics must not depend on how many workers execute the plan.
    let scenario = monte_carlo_scenario(12, 0xD5EED);
    let mut outputs: Vec<(f64, f64, Vec<f64>)> = Vec::new();
    for threads in [1usize, 2, 8] {
        let report = run_on(&shared(threads), &scenario);
        assert_eq!(report.threads, threads);
        let values: Vec<f64> = report.records.iter().map(|r| r.value).collect();
        outputs.push((report.cases[0].mean, report.cases[0].std_dev, values));
    }
    let (mean1, std1, values1) = &outputs[0];
    for (mean, std, values) in &outputs[1..] {
        assert_eq!(mean1.to_bits(), mean.to_bits(), "mean drifted with threads");
        assert_eq!(std1.to_bits(), std.to_bits(), "std drifted with threads");
        assert_eq!(values1, values, "per-unit values drifted with threads");
    }
}

#[test]
fn master_seed_changes_the_ensemble() {
    let engine = shared(2);
    let a = run_on(&engine, &monte_carlo_scenario(6, 1));
    let b = run_on(&engine, &monte_carlo_scenario(6, 2));
    assert_ne!(a.cases[0].mean.to_bits(), b.cases[0].mean.to_bits());
}

#[test]
fn kernel_cache_hits_on_multi_realization_single_frequency_plans() {
    // One (grid, frequency, stackup) context, many realizations: every unit
    // after the prepared context must hit the cache.
    let realizations = 9;
    let scenario = monte_carlo_scenario(realizations, 7);
    let engine = shared(2);
    let report = run_on(&engine, &scenario);
    assert_eq!(report.distinct_contexts, 1);
    assert_eq!(report.cache.misses, 1, "exactly one context build");
    assert!(
        report.cache.hits >= realizations,
        "every realization shares the context: hits = {}",
        report.cache.hits
    );

    // A second run of the same scenario is served entirely from the cache.
    let again = run_on(&engine, &scenario);
    assert_eq!(again.cache.misses, 0);
    assert_eq!(
        again.cases[0].mean.to_bits(),
        report.cases[0].mean.to_bits(),
        "cached contexts must not change results"
    );
}

#[test]
fn different_stackups_never_share_cached_contexts() {
    // The engine's cache outlives a scenario; a campaign over a different
    // material stack (or solver) must rebuild its physics, not reuse the
    // previous stack's kernels and flat reference.
    use rough_em::material::{Conductor, Dielectric, Stackup};
    let scenario_for = |stack: Stackup| {
        Scenario::builder(stack)
            .roughness(RoughnessSpec::gaussian(
                Micrometers::new(1.0),
                Micrometers::new(1.0),
            ))
            .frequencies([GigaHertz::new(5.0).into()])
            .cells_per_side(6)
            .max_kl_modes(3)
            .monte_carlo(3)
            .master_seed(5)
            .build()
            .expect("valid scenario")
    };
    let engine = shared(1);
    let copper = run_on(&engine, &scenario_for(Stackup::paper_baseline()));
    let annealed = run_on(
        &engine,
        &scenario_for(Stackup::new(
            Conductor::annealed_copper(),
            Dielectric::silicon_dioxide(),
        )),
    );
    assert_eq!(
        annealed.cache.misses, 1,
        "a different stack must build its own context"
    );
    assert_ne!(
        copper.cases[0].mean.to_bits(),
        annealed.cases[0].mean.to_bits(),
        "different conductors must produce different physics"
    );
    // The KL basis is stack-independent and is reused across the campaigns.
    assert_eq!(annealed.cache.kl_misses, 0);
    assert!(annealed.cache.kl_hits >= 1);
}

#[test]
fn different_near_field_policies_never_share_cached_contexts() {
    // Same stack, grid and frequency, different near-field policy: the
    // cached flat-reference solve bakes the assembly in, so sharing a context
    // across policies would silently corrupt one of the campaigns.
    let scenario_for = |assembly: AssemblyScheme| {
        Scenario::builder(Stackup::paper_baseline())
            .roughness(RoughnessSpec::gaussian(
                Micrometers::new(1.0),
                Micrometers::new(1.0),
            ))
            .frequencies([GigaHertz::new(5.0).into()])
            .cells_per_side(6)
            .max_kl_modes(3)
            .assembly(assembly)
            .monte_carlo(3)
            .master_seed(5)
            .build()
            .expect("valid scenario")
    };
    let engine = shared(1);
    let default = run_on(&engine, &scenario_for(AssemblyScheme::default()));
    let wide = AssemblyScheme::LocallyCorrected(NearFieldPolicy::new(3.5, 4));
    let widened = run_on(&engine, &scenario_for(wide));
    assert_eq!(
        widened.cache.misses, 1,
        "a different near-field policy must build its own context"
    );
    assert_ne!(
        default.cases[0].mean.to_bits(),
        widened.cases[0].mean.to_bits(),
        "the two policies integrate near fields differently"
    );
    // The KL basis does not depend on the assembly and is reused.
    assert_eq!(widened.cache.kl_misses, 0);
    assert!(widened.cache.kl_hits >= 1);
    // Re-running either scenario hits its own cached context.
    let again = run_on(&engine, &scenario_for(AssemblyScheme::default()));
    assert_eq!(again.cache.misses, 0);
    assert_eq!(
        again.cases[0].mean.to_bits(),
        default.cases[0].mean.to_bits()
    );
}

#[test]
fn sscm_plans_match_sparse_grid_node_counts() {
    // Table-I budget check: the engine schedules exactly the Smolyak node
    // count of `sparse_grid.rs` for every case, plus one reference solve per
    // distinct context.
    for (max_modes, order) in [(3usize, 1usize), (4, 1), (3, 2), (5, 2)] {
        let scenario = Scenario::builder(Stackup::paper_baseline())
            .roughness(RoughnessSpec::gaussian(
                Micrometers::new(1.0),
                Micrometers::new(1.0),
            ))
            .frequencies([GigaHertz::new(2.0).into(), GigaHertz::new(6.0).into()])
            .cells_per_side(8)
            .max_kl_modes(max_modes)
            .sscm(order)
            .build()
            .expect("valid scenario");
        let plan = scenario.plan().expect("plan");
        let expected_nodes = SparseGrid::new(max_modes, order).len();
        assert_eq!(plan.cases().len(), 2);
        for case in plan.cases() {
            assert_eq!(case.kl_modes(), max_modes);
            assert_eq!(
                case.solves(),
                expected_nodes,
                "M = {max_modes}, order = {order}"
            );
        }
        assert_eq!(plan.units().len(), 2 * expected_nodes);
        assert_eq!(plan.total_solves(), 2 * expected_nodes + 2);
    }
}

#[test]
fn sscm_campaign_agrees_with_monte_carlo_on_the_mean() {
    // The paper's central claim in miniature, end to end through the engine:
    // SSCM reproduces the Monte-Carlo mean with far fewer solves.
    let base = |name: &str| {
        Scenario::builder(Stackup::paper_baseline())
            .name(name)
            .roughness(RoughnessSpec::gaussian(
                Micrometers::new(1.0),
                Micrometers::new(1.0),
            ))
            .frequencies([GigaHertz::new(5.0).into()])
            .cells_per_side(8)
            .max_kl_modes(4)
            .master_seed(99)
    };
    let engine = shared(2);
    let mc = run_on(&engine, &base("mc").monte_carlo(40).build().expect("valid"));
    let sscm = run_on(&engine, &base("sscm").sscm(2).build().expect("valid"));
    let (mc_case, sscm_case) = (&mc.cases[0], &sscm.cases[0]);
    assert!(
        (mc_case.mean - sscm_case.mean).abs() < 0.1,
        "MC {} vs SSCM {}",
        mc_case.mean,
        sscm_case.mean
    );
    assert!(sscm_case.mean > 1.0, "physical enhancement");
    match (&mc_case.outcome, &sscm_case.outcome) {
        (CaseOutcome::MonteCarlo(mc), CaseOutcome::Sscm(sscm)) => {
            assert!(mc.cdf().ks_distance(sscm.cdf()) < 0.35);
        }
        other => panic!("unexpected outcomes: {other:?}"),
    }
    // The second campaign reused the first campaign's context.
    assert_eq!(sscm.cache.misses, 0);
}
