//! Runs a TOML scenario file on a chosen driver and prints the report.
//!
//! ```text
//! cargo run --release -p rapid-scenario --bin scenario -- \
//!     scenarios/smoke_crash.toml [--driver sim|real|both] \
//!     [--system rapid|rapid-c|memberlist|zookeeper|akka] \
//!     [--seed N] [--threads N] [--shards N] [--full] [--json] \
//!     [--trace FILE] [--metrics FILE]
//!
//! `--threads N` overrides the simulator's shard count (the
//! `[settings] threads` key) for every system, the baselines included;
//! reports are bit-identical at any count.
//! `--shards N` overrides the real driver's per-process KV shard count
//! (the `[settings] kv_shards` key): N worker threads per process, each
//! owning a rendezvous-assigned slice of the partitions. The sans-io
//! state machine is shard-count-oblivious, so reports are equivalent at
//! any count; the sim driver ignores the knob.
//! `--trace FILE` writes the merged flight-recorder trace as JSONL
//! (sim driver, rapid-family systems) — also bit-identical at any
//! thread count. When an expectation fails, the recorder's tail is
//! printed to stderr regardless of `--trace`.
//! `--metrics FILE` writes the merged per-node timeline as JSONL,
//! one line per (sample instant, node) in `(t, node)` order — also
//! bit-identical at any thread count on the sim driver. If the
//! scenario does not set `obs_sample_ms`, the flag turns sampling on
//! at a 1000ms cadence.
//! ```
//!
//! Exit status is non-zero if any evaluated expectation failed.

use rapid_scenario::{runner, Driver, RealDriver, Scenario, SimDriver, SystemKind};

struct Opts {
    path: String,
    driver: String,
    system: SystemKind,
    seed: Option<u64>,
    threads: Option<usize>,
    shards: Option<usize>,
    full: bool,
    json: bool,
    trace: Option<String>,
    metrics: Option<String>,
}

fn parse_args() -> Result<Opts, String> {
    let argv: Vec<String> = std::env::args().collect();
    let mut opts = Opts {
        path: String::new(),
        driver: "sim".into(),
        system: SystemKind::Rapid,
        seed: None,
        threads: None,
        shards: None,
        full: false,
        json: false,
        trace: None,
        metrics: None,
    };
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--driver" => {
                i += 1;
                opts.driver = argv.get(i).cloned().ok_or("--driver needs a value")?;
            }
            "--system" => {
                i += 1;
                let s = argv.get(i).ok_or("--system needs a value")?;
                opts.system =
                    SystemKind::parse(s).ok_or_else(|| format!("unknown system {s:?}"))?;
            }
            "--seed" => {
                i += 1;
                opts.seed = Some(
                    argv.get(i)
                        .and_then(|s| s.parse().ok())
                        .ok_or("--seed needs an integer")?,
                );
            }
            "--threads" => {
                i += 1;
                opts.threads = Some(
                    argv.get(i)
                        .and_then(|s| s.parse().ok())
                        .filter(|&t: &usize| t >= 1)
                        .ok_or("--threads needs a positive integer")?,
                );
            }
            "--shards" => {
                i += 1;
                opts.shards = Some(
                    argv.get(i)
                        .and_then(|s| s.parse().ok())
                        .filter(|&t: &usize| t >= 1)
                        .ok_or("--shards needs a positive integer")?,
                );
            }
            "--full" => opts.full = true,
            "--json" => opts.json = true,
            "--trace" => {
                i += 1;
                opts.trace = Some(argv.get(i).cloned().ok_or("--trace needs a file path")?);
            }
            "--metrics" => {
                i += 1;
                opts.metrics =
                    Some(argv.get(i).cloned().ok_or("--metrics needs a file path")?);
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag:?}")),
            path => {
                if !opts.path.is_empty() {
                    return Err("more than one scenario file given".into());
                }
                opts.path = path.to_string();
            }
        }
        i += 1;
    }
    if opts.path.is_empty() {
        return Err("usage: scenario <file.toml> [--driver sim|real|both] [--system S] [--seed N] [--threads N] [--shards N] [--full] [--json] [--trace FILE] [--metrics FILE]".into());
    }
    Ok(opts)
}

fn print_report(report: &rapid_scenario::Report, json: bool) {
    if json {
        println!("{}", report.to_json().to_pretty(2));
        return;
    }
    println!(
        "scenario {:?} on {} (n={}, seed={}): {}",
        report.scenario,
        report.driver,
        report.n,
        report.seed,
        if report.passed { "PASS" } else { "FAIL" }
    );
    for p in &report.phases {
        let dur = p.end_ms - p.start_ms;
        print!("  phase {:<16} {:>7}ms", p.name, dur);
        if let Some(t) = p.converged_at_ms {
            print!("  converged@{}ms", t - p.start_ms);
        }
        if let Some(v) = p.view_changes {
            print!("  views={v}");
        }
        if let Some(t) = p.traffic {
            print!("  tx={}B rx={}B", t.bytes_out, t.bytes_in);
        }
        if let Some(kv) = p.kv {
            print!(
                "  kv: {}/{} acked, {} rebalances, {}B moved",
                kv.acked, kv.puts, kv.rebalances, kv.bytes_moved
            );
            if kv.repairs > 0 {
                print!(", {} repairs ({}B)", kv.repairs, kv.repair_bytes);
            }
            if kv.partitions_lost > 0 {
                print!(", {} partitions LOST", kv.partitions_lost);
            }
        }
        if let Some(c) = &p.convergence {
            print!(
                "  fault->install p50={}ms p99={}ms max={}ms ({} procs)",
                c.p50,
                c.p99,
                c.max,
                c.samples.len()
            );
        }
        println!();
        for e in &p.expects {
            let verdict = match e.passed {
                Some(true) => "ok",
                Some(false) => "FAILED",
                None => "skipped (unsupported on this driver)",
            };
            println!("    expect {:<40} {verdict}", e.desc);
        }
    }
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let text = match std::fs::read_to_string(&opts.path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {}: {e}", opts.path);
            std::process::exit(2);
        }
    };
    let mut scenario = match Scenario::from_toml(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{}: {e}", opts.path);
            std::process::exit(2);
        }
    };
    if let Some(seed) = opts.seed {
        scenario.seed = seed;
    }
    if let Some(threads) = opts.threads {
        // Same effect as `[settings] threads = N` in the file; the sim
        // driver hands it to the engine, the real driver ignores it.
        scenario.settings.threads = Some(threads);
    }
    if let Some(shards) = opts.shards {
        // Same effect as `[settings] kv_shards = N` in the file; the
        // real driver spawns N data-plane workers per process, the sim
        // driver (single sans-io node per process) ignores it.
        scenario.settings.kv_shards = Some(shards);
    }
    if opts.full {
        scenario.apply_full();
    }
    if opts.metrics.is_some() && scenario.settings.obs_sample_ms.is_none() {
        // Asking for a metrics export implies sampling; default cadence 1s.
        scenario.settings.obs_sample_ms = Some(1000);
    }

    let mut all_passed = true;
    let drivers: Vec<&str> = match opts.driver.as_str() {
        "both" => vec!["sim", "real"],
        d => vec![d],
    };
    for d in drivers {
        let (report, trace, metrics, obs_dropped) = match d {
            "sim" => {
                let mut driver = match SimDriver::new(opts.system, &scenario) {
                    Ok(d) => d,
                    Err(e) => {
                        eprintln!("sim driver: {e}");
                        std::process::exit(2);
                    }
                };
                let r = runner::run(&scenario, &mut driver);
                (
                    r,
                    driver.flight_dump(),
                    driver.metrics_dump(),
                    driver.obs_dropped(),
                )
            }
            "real" => {
                if opts.system != SystemKind::Rapid {
                    eprintln!("the real driver hosts rapid only");
                    std::process::exit(2);
                }
                let mut driver = match RealDriver::new(&scenario) {
                    Ok(d) => d,
                    Err(e) => {
                        eprintln!("real driver: {e}");
                        std::process::exit(2);
                    }
                };
                let r = runner::run(&scenario, &mut driver);
                (
                    r,
                    driver.flight_dump(),
                    driver.metrics_dump(),
                    driver.obs_dropped(),
                )
            }
            other => {
                eprintln!("unknown driver {other:?} (sim, real, both)");
                std::process::exit(2);
            }
        };
        if let Some(path) = &opts.trace {
            let mut out = trace.join("\n");
            if !out.is_empty() {
                out.push('\n');
            }
            if let Err(e) = std::fs::write(path, out) {
                eprintln!("cannot write trace {path}: {e}");
                std::process::exit(2);
            }
        }
        if let Some(path) = &opts.metrics {
            let mut out = metrics.join("\n");
            if !out.is_empty() {
                out.push('\n');
            }
            if let Err(e) = std::fs::write(path, out) {
                eprintln!("cannot write metrics {path}: {e}");
                std::process::exit(2);
            }
        }
        if obs_dropped > 0 {
            eprintln!(
                "warning: observability rings dropped {obs_dropped} events \
                 (raise [settings] obs_ring or lower obs_sample_ms)"
            );
        }
        match report {
            Ok(r) => {
                print_report(&r, opts.json);
                // A failed expectation dumps the flight recorder's tail:
                // the causal history leading into the failure, not just
                // the verdict.
                for p in &r.phases {
                    if !p.failure_dump.is_empty() {
                        eprintln!(
                            "phase {:?} failed; last {} trace events:",
                            p.name,
                            p.failure_dump.len()
                        );
                        for line in &p.failure_dump {
                            eprintln!("{line}");
                        }
                    }
                }
                all_passed &= r.passed;
            }
            Err(e) => {
                eprintln!("scenario failed to run: {e}");
                std::process::exit(2);
            }
        }
    }
    std::process::exit(if all_passed { 0 } else { 1 });
}
