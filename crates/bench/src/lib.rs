//! Shared experiment harness for the figure/table reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure from the
//! paper's evaluation (§7) or proof section (§8). Runs are scaled down by
//! default so the full suite finishes on a laptop; pass `--full` (or set
//! `RAPID_BENCH_FULL=1`) for paper-scale parameters. All runs are
//! deterministic in `--seed`.
//!
//! The multi-system deployment harness ([`World`], [`SystemKind`]) lives
//! in `rapid-scenario` since the scenario subsystem landed — the failure
//! figures are now thin wrappers over shipped `scenarios/*.toml` files —
//! and is re-exported here for the remaining bespoke binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;

pub use rapid_scenario::{aggregate_timeseries, SystemKind, World};

/// Command-line arguments shared by all experiment binaries.
#[derive(Clone, Debug)]
pub struct Args {
    /// Paper-scale parameters instead of laptop-scale defaults.
    pub full: bool,
    /// Master seed.
    pub seed: u64,
    /// Whether `--seed` was passed explicitly (a shipped scenario's own
    /// seed wins otherwise).
    pub seed_explicit: bool,
}

impl Args {
    /// Parses `--full` and `--seed N` from `std::env::args`, or
    /// `RAPID_BENCH_FULL=1` from the environment.
    pub fn parse() -> Args {
        let mut full = std::env::var("RAPID_BENCH_FULL").map(|v| v == "1").unwrap_or(false);
        let mut seed = 42;
        let mut seed_explicit = false;
        let argv: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < argv.len() {
            match argv[i].as_str() {
                "--full" => full = true,
                "--seed" => {
                    i += 1;
                    if let Some(v) = argv.get(i).and_then(|s| s.parse().ok()) {
                        seed = v;
                        seed_explicit = true;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        Args { full, seed, seed_explicit }
    }

    /// Applies this invocation to a loaded scenario: an explicit `--seed`
    /// overrides the shipped seed, `--full` applies the scenario's
    /// `[full]` overrides.
    pub fn configure(&self, scenario: &mut rapid_scenario::Scenario) {
        if self.seed_explicit {
            scenario.seed = self.seed;
        }
        if self.full {
            scenario.apply_full();
        }
    }
}

/// Loads a shipped scenario from the workspace `scenarios/` directory by
/// file stem (`"fig08_crashes"`), applying [`Args`] overrides.
pub fn load_scenario(stem: &str, args: &Args) -> rapid_scenario::Scenario {
    let path = format!("{}/../../scenarios/{stem}.toml", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read shipped scenario {path}: {e}"));
    let mut scenario = rapid_scenario::Scenario::from_toml(&text)
        .unwrap_or_else(|e| panic!("shipped scenario {path} is invalid: {e}"));
    args.configure(&mut scenario);
    scenario
}

/// Prints a CSV header + rows to stdout.
pub fn print_csv<R: Display>(header: &str, rows: impl IntoIterator<Item = R>) {
    println!("{header}");
    for r in rows {
        println!("{r}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_default() {
        let a = Args { full: false, seed: 1, seed_explicit: false };
        assert!(!a.full);
    }

    #[test]
    fn shipped_scenarios_load_and_apply_args() {
        let args = Args { full: true, seed: 7, seed_explicit: true };
        let s = load_scenario("fig08_crashes", &args);
        assert_eq!(s.seed, 7);
        assert_eq!(s.n, 1000, "--full must apply the [full] overrides");
        // Without an explicit --seed, the shipped seed wins.
        let args = Args { full: false, seed: 99, seed_explicit: false };
        let s = load_scenario("fig08_crashes", &args);
        assert_eq!(s.seed, 42, "shipped seed must survive a default invocation");
    }
}
