//! Keyed kernel cache: the shared, expensive state of a campaign.
//!
//! Everything a work unit needs besides its own surface realization is a pure
//! function of the [`ContextKey`] (grid × patch length × frequency × stackup
//! × solver): the two Ewald-summed periodic Green's functions, the configured
//! [`SwmProblem`], and — dominating the redundant cost of the serial drivers
//! — the smooth-surface reference solve `Ps`, itself a full MOM assembly +
//! dense factorization. The cache builds each context once and shares it via
//! `Arc` across every realization, every ensemble, and every
//! [`crate::Run`] configured with the same cache. Context problems inherit
//! the default `rough_core::KernelEval::Batched` blocked row-panel assembly,
//! so both the cached flat-reference solve and every per-realization solve
//! executed against a context go through the batched Ewald kernel path. Karhunen–Loève bases — the
//! frequency-independent eigendecompositions of the surface covariance — are
//! cached alongside under their own keys, so re-planning a roughness case at
//! new frequencies (or new ensemble budgets) never repeats the eigen solve.

use crate::error::EngineError;
use crate::plan::ContextKey;
use rough_core::{MfTableCache, SwmOperator, SwmProblem};
use rough_surface::generation::kl::KarhunenLoeve;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// The shared solver state of one (grid, patch, frequency, stack, solver)
/// context.
#[derive(Debug, Clone)]
pub struct CaseContext {
    /// The configured problem (stackup, roughness patch, frequency, solver).
    pub problem: SwmProblem,
    /// Pre-built Ewald kernels and boundary contrast.
    pub operator: SwmOperator,
    /// Numerically solved smooth-surface reference power `Ps`.
    pub flat_reference: f64,
}

/// Cache hit/miss counters (monotonic over an engine's lifetime).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Context lookups served from the cache.
    pub hits: usize,
    /// Context lookups that had to build a fresh context.
    pub misses: usize,
    /// Contexts currently resident.
    pub entries: usize,
    /// KL-basis lookups served from the cache.
    pub kl_hits: usize,
    /// KL-basis lookups that had to run the eigendecomposition.
    pub kl_misses: usize,
    /// Matrix-free generator-table builds served from the cache (0 for
    /// dense campaigns).
    pub table_hits: usize,
    /// Matrix-free generator-table builds that had to evaluate the kernel.
    pub table_misses: usize,
}

/// Concurrent keyed cache of [`CaseContext`]s and KL bases.
#[derive(Debug, Default)]
pub struct KernelCache {
    map: Mutex<HashMap<ContextKey, Arc<CaseContext>>>,
    kl_map: Mutex<HashMap<String, Arc<KarhunenLoeve>>>,
    mf_tables: Arc<MfTableCache>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    kl_hits: AtomicUsize,
    kl_misses: AtomicUsize,
}

impl KernelCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the context for `key`, building it with `build` on a miss.
    ///
    /// Concurrent callers may race to build the same context; the first
    /// insert wins and later builders discard their copy (contexts are pure
    /// values, so this only costs duplicate work, never inconsistency — and
    /// the executor prepares stage-0 contexts up front precisely to avoid
    /// that duplication).
    ///
    /// # Errors
    ///
    /// Propagates `build` failures without caching them.
    pub fn get_or_build(
        &self,
        key: ContextKey,
        build: impl FnOnce() -> Result<CaseContext, EngineError>,
    ) -> Result<Arc<CaseContext>, EngineError> {
        if let Some(context) = self.map.lock().expect("cache lock poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(context));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let context = Arc::new(build()?);
        let mut map = self.map.lock().expect("cache lock poisoned");
        let entry = map.entry(key).or_insert_with(|| Arc::clone(&context));
        Ok(Arc::clone(entry))
    }

    /// Returns the KL basis for `key`, building it with `build` on a miss.
    /// The key must encode everything the truncated basis depends on
    /// (correlation function, grid, patch length, energy fraction, mode cap).
    ///
    /// # Errors
    ///
    /// Propagates `build` failures without caching them.
    pub fn kl_basis(
        &self,
        key: String,
        build: impl FnOnce() -> Result<Arc<KarhunenLoeve>, EngineError>,
    ) -> Result<Arc<KarhunenLoeve>, EngineError> {
        if let Some(kl) = self.kl_map.lock().expect("cache lock poisoned").get(&key) {
            self.kl_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(kl));
        }
        self.kl_misses.fetch_add(1, Ordering::Relaxed);
        let kl = build()?;
        let mut map = self.kl_map.lock().expect("cache lock poisoned");
        let entry = map.entry(key).or_insert_with(|| Arc::clone(&kl));
        Ok(Arc::clone(entry))
    }

    /// Credits context lookups that happened in an *external* cache — a
    /// socket worker's process-local `KernelCache` — into this cache's
    /// counters. Distributed executors call this so a run's
    /// [`CacheStats`] delta (and every hit-rate derived from it) reflects
    /// worker-side reuse, which is where the kernels actually live in a
    /// multi-process campaign. Only the counters move; no entries transfer.
    pub fn credit_external(&self, hits: usize, misses: usize) {
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
    }

    /// The shared matrix-free generator-table cache. Contexts built through
    /// this kernel cache install it on their operators
    /// ([`rough_core::SwmOperator::with_table_cache`]), so every matrix-free
    /// solve of a campaign — and every frequency point of a sweep — amortizes
    /// the kernel-evaluation cost of the tables. Results are bit-identical
    /// with or without the cache.
    pub fn mf_tables(&self) -> &Arc<MfTableCache> {
        &self.mf_tables
    }

    /// Returns `true` when `key` is resident (does not touch the counters).
    pub fn contains(&self, key: ContextKey) -> bool {
        self.map
            .lock()
            .expect("cache lock poisoned")
            .contains_key(&key)
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.map.lock().expect("cache lock poisoned").len(),
            kl_hits: self.kl_hits.load(Ordering::Relaxed),
            kl_misses: self.kl_misses.load(Ordering::Relaxed),
            table_hits: self.mf_tables.hits(),
            table_misses: self.mf_tables.misses(),
        }
    }

    /// Drops every cached context, KL basis and generator table (counters are
    /// preserved).
    pub fn clear(&self) {
        self.map.lock().expect("cache lock poisoned").clear();
        self.kl_map.lock().expect("cache lock poisoned").clear();
        self.mf_tables.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rough_core::RoughnessSpec;
    use rough_em::material::Stackup;
    use rough_em::units::{GigaHertz, Micrometers};

    fn test_context() -> CaseContext {
        let problem = SwmProblem::builder(
            Stackup::paper_baseline(),
            RoughnessSpec::gaussian(Micrometers::new(1.0), Micrometers::new(1.0)),
        )
        .frequency(GigaHertz::new(5.0).into())
        .cells_per_side(4)
        .build()
        .unwrap();
        let operator = problem.operator();
        CaseContext {
            problem,
            operator,
            flat_reference: 1.0,
        }
    }

    fn key(bits: u64) -> ContextKey {
        ContextKey {
            cells_per_side: 4,
            patch_length_bits: 0,
            frequency_bits: bits,
            stack_fingerprint: 0,
            solver_fingerprint: 0,
            assembly_fingerprint: 0,
            operator_fingerprint: 0,
        }
    }

    #[test]
    fn second_lookup_hits() {
        let cache = KernelCache::new();
        let mut builds = 0;
        for _ in 0..3 {
            cache
                .get_or_build(key(1), || {
                    builds += 1;
                    Ok(test_context())
                })
                .unwrap();
        }
        assert_eq!(builds, 1);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn distinct_keys_build_distinct_contexts() {
        let cache = KernelCache::new();
        cache.get_or_build(key(1), || Ok(test_context())).unwrap();
        cache.get_or_build(key(2), || Ok(test_context())).unwrap();
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn build_failures_are_not_cached() {
        let cache = KernelCache::new();
        let err = cache.get_or_build(key(3), || Err(EngineError::InvalidScenario("boom".into())));
        assert!(err.is_err());
        assert_eq!(cache.stats().entries, 0);
        // The next attempt builds again.
        cache.get_or_build(key(3), || Ok(test_context())).unwrap();
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn clear_preserves_counters() {
        let cache = KernelCache::new();
        cache.get_or_build(key(1), || Ok(test_context())).unwrap();
        cache.get_or_build(key(1), || Ok(test_context())).unwrap();
        cache.clear();
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        cache.get_or_build(key(1), || Ok(test_context())).unwrap();
        assert_eq!(cache.stats().misses, 2);
    }
}
