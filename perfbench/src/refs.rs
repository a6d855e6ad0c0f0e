//! Correctness references stored with the benchmark (`refs/<workload>.txt`).
//!
//! A reference file is plain text: `#` comments, `commit <sha>`,
//! `available_cores <n>`, then one `value <key> <number>` line per checked
//! output, written with Rust's round-trip float formatting. Files are made
//! by the `--regen-refs` mode, which refuses to overwrite an existing file
//! unless `--force` is given (checked before any solving starts).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// The reference values of one workload, by key.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Refs {
    values: BTreeMap<String, f64>,
}

impl Refs {
    /// Adds (or replaces) one value.
    pub fn insert(&mut self, key: impl Into<String>, value: f64) {
        self.values.insert(key.into(), value);
    }

    /// Looks up a value.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.values.get(key).copied()
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Parses reference text.
    ///
    /// # Errors
    ///
    /// Describes the first malformed line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut refs = Refs::default();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut words = line.split_whitespace();
            match words.next() {
                Some("commit" | "available_cores") => {}
                Some("value") => {
                    let (Some(key), Some(value), None) = (words.next(), words.next(), words.next())
                    else {
                        return Err(format!("line {}: expected `value <key> <number>`", n + 1));
                    };
                    let value: f64 = value
                        .parse()
                        .map_err(|_| format!("line {}: bad number `{value}`", n + 1))?;
                    refs.insert(key, value);
                }
                _ => return Err(format!("line {}: unknown directive", n + 1)),
            }
        }
        Ok(refs)
    }

    /// Renders reference text with its provenance header.
    pub fn render(&self, workload: &str, commit: &str, cores: usize) -> String {
        let mut out = format!(
            "# perfbench correctness references for `{workload}`.\n\
             # Regenerate with `python3 perfbench/run.py --workload {workload} --regen-refs --force`.\n\
             commit {commit}\navailable_cores {cores}\n"
        );
        for (key, value) in &self.values {
            writeln!(out, "value {key} {value:?}").expect("writing to a String");
        }
        out
    }
}

/// Path of a workload's reference file under the benchmark directory.
pub fn path(bench_dir: &Path, workload: &str) -> PathBuf {
    bench_dir.join("refs").join(format!("{workload}.txt"))
}

/// Loads a workload's references.
///
/// # Errors
///
/// Describes a missing or malformed file.
pub fn load(bench_dir: &Path, workload: &str) -> Result<Refs, String> {
    let path = path(bench_dir, workload);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read references {}: {e}", path.display()))?;
    Refs::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Writes a workload's references to `path`.
///
/// # Errors
///
/// Describes an I/O failure.
pub fn store(path: &Path, workload: &str, refs: &Refs, commit: &str) -> Result<(), String> {
    let cores = rough_core::parallel::available_cores();
    std::fs::create_dir_all(path.parent().expect("refs path has a parent"))
        .and_then(|()| std::fs::write(path, refs.render(workload, commit, cores)))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Accumulates reference mismatches of one run.
#[derive(Debug, Default)]
pub struct Checker {
    /// Comparisons made.
    pub checked: usize,
    /// Human-readable description of each mismatch.
    pub mismatches: Vec<String>,
}

impl Checker {
    /// Compares `got` with the reference under `key`: `|got − ref| ≤ abs_tol
    /// + rel_tol·|ref|`. A missing key is a mismatch.
    pub fn check(&mut self, refs: &Refs, key: &str, got: f64, abs_tol: f64, rel_tol: f64) -> bool {
        self.checked += 1;
        let ok = match refs.get(key) {
            Some(want) => (got - want).abs() <= abs_tol + rel_tol * want.abs(),
            None => {
                self.mismatches.push(format!("{key}: no reference value"));
                return false;
            }
        };
        if !ok {
            self.mismatches.push(format!(
                "{key}: got {got:?}, reference {:?}",
                refs.get(key).expect("checked above")
            ));
        }
        ok
    }

    /// Records a failed check that is not a reference comparison.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.checked += 1;
        self.mismatches.push(what.into());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_round_trip_is_exact() {
        let mut refs = Refs::default();
        refs.insert("a/b", 1.254314700840109);
        refs.insert("c", 5.41564148619632e-6);
        let text = refs.render("w", "abc123", 2);
        assert_eq!(Refs::parse(&text).unwrap(), refs);
    }

    #[test]
    fn checker_counts_mismatches() {
        let mut refs = Refs::default();
        refs.insert("x", 1.0);
        let mut checker = Checker::default();
        assert!(checker.check(&refs, "x", 1.0 + 1e-12, 0.0, 1e-10));
        assert!(!checker.check(&refs, "x", 1.1, 0.0, 1e-10));
        assert!(!checker.check(&refs, "missing", 1.0, 0.0, 1e-10));
        assert_eq!(checker.checked, 3);
        assert_eq!(checker.mismatches.len(), 2);
    }
}
