//! `perfbench` — the repository's benchmark.
//!
//! ```text
//! perfbench --workload <mf-fig5|sscm-dense|daemon-mix> --seed N --seconds S --trace 0|1
//!           [--bench-dir DIR] [--scratch DIR] [--daemon-bin PATH]
//! perfbench --workload W --regen-refs [--force] [--commit SHA]
//! ```
//!
//! Normally started through `perfbench/run.py`, which builds this binary and
//! `roughsimd`, pins the environment and adds units to the metrics. The last
//! line of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (name → value). With `--trace 0` the metrics are
//! the end-to-end ones, with `--trace 1` the per-layer ones. The exit code
//! is 1 on any correctness-reference mismatch, 2 on a usage or run error.

mod daemon;
mod inproc;
mod refs;
mod replay;
mod scenarios;
mod stats;
mod trace;

use refs::Checker;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 5 half-spheroid, matrix-free + GMRES, two grids.
    MfFig5,
    /// First-order SSCM over a Gaussian surface, dense LU.
    SscmDense,
    /// The campaign daemon under two closed-loop clients.
    DaemonMix,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::MfFig5, Workload::SscmDense, Workload::DaemonMix];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MfFig5 => "mf-fig5",
            Workload::SscmDense => "sscm-dense",
            Workload::DaemonMix => "daemon-mix",
        }
    }

    fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Per-layer metrics of the in-process layers (0 on `daemon-mix`, whose
/// spans come from the client side).
pub const IN_PROCESS_LAYERS: [&str; 37] = [
    "core.matrixfree.setup_s",
    "core.matrixfree.tables_s",
    "core.matrixfree.near_s",
    "core.matrixfree.precond_build_s",
    "core.matrixfree.precond_apply_s",
    "core.matrixfree.matvec_s",
    "core.matrixfree.matvecs",
    "core.matrixfree.slab_levels",
    "core.matrixfree.fft_planes",
    "core.matrixfree.near_corrections",
    "numerics.fft.fft3_s",
    "numerics.fft.cube_bytes",
    "numerics.fft.ns_per_element_pow2",
    "numerics.fft.ns_per_element_other",
    "numerics.iterative.iterations",
    "numerics.iterative.self_s",
    "core.assembly3d.assemble_s",
    "core.assembly3d.entries_per_s",
    "numerics.linalg.lu_s",
    "surface.kl_basis_s",
    "surface.synthesize_s",
    "stochastic.collocation_s",
    "core.nearfield.corrected_entries",
    "core.nearfield.adaptive_panels",
    "core.nearfield.depth_cap_hits",
    "core.nearfield.panels_per_entry",
    "em.ewald.build_s",
    "engine.plan_s",
    "engine.unit_wall_p50_s",
    "engine.unit_wall_max_s",
    "engine.worker_idle_frac",
    "engine.context_hit_rate",
    "engine.context_lookups",
    "engine.kl_hit_rate",
    "engine.kl_lookups",
    "engine.table_hit_rate",
    "engine.table_lookups",
];

/// Metrics and correctness of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    metrics: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
    checked: usize,
    mismatches: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    ///
    /// # Panics
    ///
    /// Panics on an invalid name, a repeated name or a non-finite value —
    /// all bugs in this benchmark.
    pub fn metric(&mut self, name: &str, value: f64) {
        assert!(
            stats::valid_metric_name(name),
            "invalid metric name `{name}`"
        );
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        let previous = self.metrics.insert(name.to_owned(), value);
        assert!(previous.is_none(), "metric `{name}` recorded twice");
    }

    /// Folds in the run's correctness checks and the number of operations
    /// attempted (units, campaigns, resumes, jobs, resubmissions, replayed
    /// units).
    pub fn finish(&mut self, checker: Checker, attempted: usize) {
        self.failed = checker.mismatches.len() as u64;
        self.attempted = (attempted as u64).max(self.failed).max(1);
        self.checked = checker.checked;
        self.mismatches = checker.mismatches;
    }

    fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| format!("\"{name}\": {value:?}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Sum of the peak resident set sizes (`VmHWM`) of `pids`, in MiB.
///
/// # Errors
///
/// Describes an unreadable `/proc/<pid>/status`.
pub fn peak_rss_mb(pids: &[u32]) -> Result<f64, String> {
    let mut kib = 0.0;
    for pid in pids {
        let path = format!("/proc/{pid}/status");
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        kib += status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .ok_or_else(|| format!("{path}: no VmHWM line"))?;
    }
    Ok(kib / 1024.0)
}

/// Machine-wide `(steal, total)` CPU ticks from `/proc/stat`: time a
/// virtual machine's CPUs were ready but not scheduled slows every timing of
/// a run, so each run reports its share.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// Clears every `ROUGHSIM*` variable (faults, retries, assembly threads,
/// executor, daemon knobs) so results never depend on the caller's shell.
/// Returns the names cleared.
fn pin_environment() -> Vec<String> {
    let cleared: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("ROUGHSIM"))
        .collect();
    for key in &cleared {
        std::env::remove_var(key);
    }
    cleared
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    bench_dir: PathBuf,
    scratch: PathBuf,
    daemon_bin: PathBuf,
    regen: bool,
    force: bool,
    commit: String,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Option<&str> {
        raw.iter()
            .position(|a| a == flag)
            .and_then(|i| raw.get(i + 1))
            .map(String::as_str)
    };
    let number = |flag: &str, default: &str| -> Result<f64, String> {
        value(flag)
            .unwrap_or(default)
            .parse::<f64>()
            .map_err(|_| format!("{flag} takes a number"))
    };
    let workload = value("--workload").ok_or("--workload is required")?;
    let workload = Workload::parse(workload).ok_or_else(|| {
        format!(
            "unknown workload `{workload}` (known: {})",
            Workload::ALL.map(Workload::name).join(", ")
        )
    })?;
    let seconds = number("--seconds", "30")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: value("--seed")
            .unwrap_or("1")
            .parse()
            .map_err(|_| "--seed takes a non-negative integer")?,
        seconds,
        trace: match value("--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            _ => return Err("--trace takes 0 or 1".into()),
        },
        bench_dir: PathBuf::from(value("--bench-dir").unwrap_or("perfbench")),
        scratch: PathBuf::from(value("--scratch").unwrap_or(".perfbench-run")),
        daemon_bin: PathBuf::from(
            value("--daemon-bin").unwrap_or(".bench_build/release/roughsimd"),
        ),
        regen: raw.iter().any(|a| a == "--regen-refs"),
        force: raw.iter().any(|a| a == "--force"),
        commit: value("--commit").unwrap_or("unknown").to_owned(),
    })
}

fn regen(args: &Args) -> Result<(), String> {
    let path = refs::path(&args.bench_dir, args.workload.name());
    if path.exists() && !args.force {
        return Err(format!(
            "{} exists; pass --force to overwrite it",
            path.display()
        ));
    }
    let refs = match args.workload {
        Workload::DaemonMix => daemon::regen()?,
        other => inproc::regen(other)?,
    };
    refs::store(&path, args.workload.name(), &refs, &args.commit)?;
    println!("wrote {} references to {}", refs.len(), path.display());
    Ok(())
}

fn run(args: &Args) -> Result<Outcome, String> {
    let scratch = args
        .scratch
        .join(format!("{}-seed{}", args.workload.name(), args.seed));
    if scratch.exists() {
        std::fs::remove_dir_all(&scratch)
            .map_err(|e| format!("cannot clear {}: {e}", scratch.display()))?;
    }
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;
    match args.workload {
        Workload::DaemonMix => daemon::run(
            args.seed,
            args.seconds,
            args.trace,
            &scratch,
            &args.bench_dir,
            &args.daemon_bin,
        ),
        other => inproc::run(
            other,
            args.seed,
            args.seconds,
            args.trace,
            &scratch,
            &args.bench_dir,
        ),
    }
}

fn main() {
    let cleared = pin_environment();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "environment: cleared [{}]; daemon-mix sets {}; available_cores {}",
        cleared.join(", "),
        daemon::DAEMON_ENV
            .map(|(k, v)| format!("{k}={v}"))
            .join(" "),
        rough_core::parallel::available_cores()
    );
    if args.regen {
        if let Err(e) = regen(&args) {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
        return;
    }
    if !refs::path(&args.bench_dir, args.workload.name()).exists() {
        eprintln!(
            "perfbench: no references under {}",
            args.bench_dir.display()
        );
        std::process::exit(2);
    }
    let ticks_before = cpu_ticks();
    let result = run(&args);
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks_before, cpu_ticks()) {
        let share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        println!(
            "machine: {:.1}% of CPU time stolen during the run",
            100.0 * share
        );
    }
    match result {
        Ok(outcome) => {
            for mismatch in &outcome.mismatches {
                eprintln!("MISMATCH {mismatch}");
            }
            println!(
                "checks: {} made, {} failed",
                outcome.checked,
                outcome.mismatches.len()
            );
            println!("{}", outcome.json());
            if !outcome.correct() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_layer_name_is_valid_and_unique() {
        let mut names: Vec<&str> = IN_PROCESS_LAYERS
            .iter()
            .chain(daemon::SERVICE_LAYER.iter())
            .copied()
            .collect();
        assert!(names.iter().all(|n| stats::valid_metric_name(n)));
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count);
    }

    #[test]
    fn outcome_json_shape() {
        let mut out = Outcome::default();
        out.metric("wall_s", 1.5);
        out.finish(Checker::default(), 3);
        assert_eq!(
            out.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"wall_s\": 1.5}}"
        );
    }
}
