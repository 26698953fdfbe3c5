//! **Figure 5** — Bootstrap convergence: time for all processes to report
//! a cluster size of N, for ZooKeeper, Memberlist, Rapid-C and Rapid.
//!
//! Paper result (N=2000): Rapid bootstraps 2-2.32x faster than Memberlist
//! and 3.23-5.81x faster than ZooKeeper; ZooKeeper's latency grows ~4x
//! from N=1000 to N=2000 (watch herd).
//!
//! Default: N ∈ {200, 350, 500} × 2 repetitions. `--full`: N ∈ {1000,
//! 1500, 2000} × 5 repetitions (paper scale).

use bench::{print_csv, Args, SystemKind, World};

fn main() {
    let args = Args::parse();
    let (sizes, reps): (Vec<usize>, u64) = if args.full {
        (vec![1000, 1500, 2000], 5)
    } else {
        (vec![200, 350, 500], 2)
    };
    let mut rows = Vec::new();
    for kind in SystemKind::bootstrap_set() {
        for &n in &sizes {
            for rep in 0..reps {
                let seed = args.seed + rep * 1_000;
                let mut world = World::bootstrap(kind, n, seed);
                let max = if args.full { 1_200_000 } else { 600_000 };
                let t = world.converge(n, max);
                let latency_s = t.map(|ms| ms as f64 / 1_000.0);
                eprintln!(
                    "fig05: {} n={} rep={} -> {:?} s",
                    kind.label(),
                    n,
                    rep,
                    latency_s
                );
                rows.push(format!(
                    "{},{},{},{}",
                    kind.label(),
                    n,
                    rep,
                    latency_s.map(|v| v.to_string()).unwrap_or_else(|| "timeout".into())
                ));
            }
        }
    }
    print_csv("system,n,rep,bootstrap_latency_s", rows);
}
