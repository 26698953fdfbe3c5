//! Converts parsed TOML into a [`Scenario`] (schema in
//! `docs/SCENARIOS.md`).

use rapid_sim::LatencyDist;

use crate::model::{
    Expect, FaultSpec, FullOverrides, Group, Inject, KeyDist, KvSpec, Phase, Repeat, Scenario,
    SettingsPatch, SizeExpr, Target, Topology, Workload, WorkloadAction,
};
use crate::toml::Value;

fn req<'a>(v: &'a Value, key: &str, ctx: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("{ctx}: missing {key:?}"))
}

/// Required non-negative integer — negative values are an error, never a
/// silent unsigned wrap.
fn req_uint(v: &Value, key: &str, ctx: &str) -> Result<u64, String> {
    let i = req(v, key, ctx)?
        .as_int()
        .ok_or_else(|| format!("{ctx}: {key:?} must be an integer"))?;
    u64::try_from(i).map_err(|_| format!("{ctx}: {key:?} must be non-negative, got {i}"))
}

fn req_usize(v: &Value, key: &str, ctx: &str) -> Result<usize, String> {
    Ok(req_uint(v, key, ctx)? as usize)
}

fn req_f64(v: &Value, key: &str, ctx: &str) -> Result<f64, String> {
    req(v, key, ctx)?
        .as_f64()
        .ok_or_else(|| format!("{ctx}: {key:?} must be a number"))
}

fn req_str<'a>(v: &'a Value, key: &str, ctx: &str) -> Result<&'a str, String> {
    req(v, key, ctx)?
        .as_str()
        .ok_or_else(|| format!("{ctx}: {key:?} must be a string"))
}

fn opt_u64(v: &Value, key: &str, ctx: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None => Ok(None),
        Some(x) => {
            let i = x
                .as_int()
                .ok_or_else(|| format!("{ctx}: {key:?} must be an integer"))?;
            u64::try_from(i)
                .map(Some)
                .map_err(|_| format!("{ctx}: {key:?} must be non-negative, got {i}"))
        }
    }
}

/// Loads a scenario from a parsed TOML root table.
pub fn scenario_from_value(root: &Value) -> Result<Scenario, String> {
    let ctx = "scenario";
    let name = req_str(root, "name", ctx)?.to_string();
    let n = req_usize(root, "n", ctx)?;
    let seed = match root.get("seed") {
        None => 1,
        Some(v) => u64::try_from(v.as_int().ok_or("scenario: seed must be an integer")?)
            .map_err(|_| "scenario: seed must be non-negative".to_string())?,
    };
    let topology = match root.get("topology").and_then(|v| v.as_str()).unwrap_or("bootstrap") {
        "bootstrap" => Topology::Bootstrap,
        "static" => Topology::Static,
        other => return Err(format!("{ctx}: unknown topology {other:?}")),
    };

    let mut groups = Vec::new();
    if let Some(gtab) = root.get("groups") {
        let table = gtab
            .as_table()
            .ok_or_else(|| format!("{ctx}: groups must be a table"))?;
        for (gname, gval) in table {
            groups.push((gname.clone(), group_from_value(gval, gname)?));
        }
    }

    let mut phases = Vec::new();
    if let Some(parr) = root.get("phase") {
        let arr = parr
            .as_array()
            .ok_or_else(|| format!("{ctx}: phase must be an array of tables"))?;
        for (i, pval) in arr.iter().enumerate() {
            phases.push(phase_from_value(pval, i)?);
        }
    }
    if phases.is_empty() {
        return Err(format!("{ctx}: at least one [[phase]] is required"));
    }

    let full = match root.get("full") {
        None => FullOverrides::default(),
        Some(f) => FullOverrides {
            n: match f.get("n") {
                None => None,
                Some(_) => Some(req_usize(f, "n", "[full]")?),
            },
        },
    };

    let settings = match root.get("settings") {
        None => SettingsPatch::default(),
        Some(s) => settings_from_value(s)?,
    };

    let kv = match root.get("kv") {
        None => None,
        Some(k) => Some(kv_from_value(k)?),
    };

    Ok(Scenario {
        name,
        n,
        seed,
        topology,
        groups,
        phases,
        full,
        settings,
        kv,
    })
}

fn settings_from_value(v: &Value) -> Result<SettingsPatch, String> {
    let ctx = "[settings]";
    let table = v
        .as_table()
        .ok_or_else(|| format!("{ctx}: must be a table"))?;
    let mut patch = SettingsPatch::default();
    // Every key is matched explicitly so a typo'd override fails the
    // load instead of silently running with protocol defaults.
    for key in table.keys() {
        match key.as_str() {
            "k" => patch.k = Some(req_usize(v, "k", ctx)?),
            "h" => patch.h = Some(req_usize(v, "h", ctx)?),
            "l" => patch.l = Some(req_usize(v, "l", ctx)?),
            "tick_interval_ms" => patch.tick_interval_ms = Some(req_uint(v, key, ctx)?),
            "fd_probe_interval_ms" => patch.fd_probe_interval_ms = Some(req_uint(v, key, ctx)?),
            "fd_probe_timeout_ms" => patch.fd_probe_timeout_ms = Some(req_uint(v, key, ctx)?),
            "fd_window" => patch.fd_window = Some(req_usize(v, key, ctx)?),
            "fd_fail_fraction" => patch.fd_fail_fraction = Some(req_f64(v, key, ctx)?),
            "reinforce_timeout_ms" => patch.reinforce_timeout_ms = Some(req_uint(v, key, ctx)?),
            "consensus_fallback_base_ms" => {
                patch.consensus_fallback_base_ms = Some(req_uint(v, key, ctx)?)
            }
            "consensus_fallback_jitter_ms" => {
                patch.consensus_fallback_jitter_ms = Some(req_uint(v, key, ctx)?)
            }
            "classic_round_timeout_ms" => {
                patch.classic_round_timeout_ms = Some(req_uint(v, key, ctx)?)
            }
            "gossip_fanout" => patch.gossip_fanout = Some(req_usize(v, key, ctx)?),
            "gossip_interval_ms" => patch.gossip_interval_ms = Some(req_uint(v, key, ctx)?),
            "join_timeout_ms" => patch.join_timeout_ms = Some(req_uint(v, key, ctx)?),
            "bootstrap_batch" => patch.bootstrap_batch = Some(req_usize(v, key, ctx)?),
            "use_gossip_broadcast" => {
                patch.use_gossip_broadcast = Some(
                    v.get(key)
                        .and_then(Value::as_bool)
                        .ok_or_else(|| format!("{ctx}: {key:?} must be a boolean"))?,
                )
            }
            "threads" => patch.threads = Some(req_usize(v, key, ctx)?),
            "obs_ring" => patch.obs_ring = Some(req_usize(v, key, ctx)?),
            "obs_sample_ms" => patch.obs_sample_ms = Some(req_uint(v, key, ctx)?),
            "client_window" => patch.client_window = Some(req_usize(v, key, ctx)?),
            "kv_inbox" => patch.kv_inbox = Some(req_usize(v, key, ctx)?),
            "kv_shed_p99_ms" => patch.kv_shed_p99_ms = Some(req_uint(v, key, ctx)?),
            "peer_quota_frames" => patch.peer_quota_frames = Some(req_uint(v, key, ctx)?),
            "peer_quota_bytes" => patch.peer_quota_bytes = Some(req_uint(v, key, ctx)?),
            "peer_quota_interval_ms" => {
                patch.peer_quota_interval_ms = Some(req_uint(v, key, ctx)?)
            }
            other => return Err(format!("{ctx}: unknown settings key {other:?}")),
        }
    }
    // Validate against the paper defaults now, so an invalid combination
    // (H > K, a zero fan-out, an out-of-range fraction, ...) fails at
    // load time with `[settings]` context instead of surfacing later at
    // driver construction. Both drivers' baselines share every
    // validation-relevant default, so this check is representative.
    patch
        .apply(rapid_core::settings::Settings::default())
        .map(|_| ())?;
    Ok(patch)
}

fn kv_from_value(v: &Value) -> Result<KvSpec, String> {
    let ctx = "[kv]";
    let table = v
        .as_table()
        .ok_or_else(|| format!("{ctx}: must be a table"))?;
    let mut spec = KvSpec::default();
    for key in table.keys() {
        match key.as_str() {
            "partitions" => {
                spec.partitions = u32::try_from(req_uint(v, key, ctx)?)
                    .map_err(|_| format!("{ctx}: partitions too large"))?
            }
            "replication" => spec.replication = req_usize(v, key, ctx)?,
            "op_window_ms" => spec.op_window_ms = req_uint(v, key, ctx)?,
            "repair_interval_ms" => spec.repair_interval_ms = req_uint(v, key, ctx)?,
            "value_size" => spec.value_size = req_usize(v, key, ctx)?,
            "clients" => spec.clients = req_usize(v, key, ctx)?,
            other => return Err(format!("{ctx}: unknown kv key {other:?}")),
        }
    }
    if spec.partitions == 0 {
        return Err(format!("{ctx}: partitions must be at least 1"));
    }
    if spec.replication == 0 {
        return Err(format!("{ctx}: replication must be at least 1"));
    }
    if spec.clients == 0 {
        return Err(format!("{ctx}: clients must be at least 1"));
    }
    Ok(spec)
}

fn group_from_value(v: &Value, name: &str) -> Result<Group, String> {
    let ctx = format!("group {name:?}");
    if let Some(nodes) = v.get("nodes") {
        let arr = nodes
            .as_array()
            .ok_or_else(|| format!("{ctx}: nodes must be an array"))?;
        let mut out = Vec::new();
        for x in arr {
            let i = x
                .as_int()
                .ok_or_else(|| format!("{ctx}: nodes entries must be integers"))?;
            out.push(
                usize::try_from(i)
                    .map_err(|_| format!("{ctx}: node index must be non-negative, got {i}"))?,
            );
        }
        Ok(Group::Nodes(out))
    } else if let Some(r) = v.get("range") {
        Ok(Group::Range {
            first: req_usize(r, "first", &ctx)?,
            count: req_usize(r, "count", &ctx)?,
        })
    } else if let Some(r) = v.get("stride") {
        Ok(Group::Stride {
            first: req_usize(r, "first", &ctx)?,
            step: req_usize(r, "step", &ctx)?,
            count: req_usize(r, "count", &ctx)?,
        })
    } else if let Some(r) = v.get("spread") {
        Ok(Group::Spread {
            first: req_usize(r, "first", &ctx)?,
            count: req_usize(r, "count", &ctx)?,
        })
    } else if let Some(r) = v.get("percent") {
        Ok(Group::Percent {
            pct: req_f64(r, "pct", &ctx)?,
            min: req_usize(r, "min", &ctx)?,
        })
    } else {
        Err(format!(
            "{ctx}: expected one of nodes/range/stride/spread/percent"
        ))
    }
}

fn target_from_value(v: &Value, ctx: &str) -> Result<Target, String> {
    if let Some(g) = v.get("group") {
        Ok(Target::Group(
            g.as_str()
                .ok_or_else(|| format!("{ctx}: group must be a string"))?
                .to_string(),
        ))
    } else if let Some(nodes) = v.get("nodes") {
        let arr = nodes
            .as_array()
            .ok_or_else(|| format!("{ctx}: nodes must be an array"))?;
        let mut out = Vec::new();
        for x in arr {
            let i = x
                .as_int()
                .ok_or_else(|| format!("{ctx}: nodes entries must be integers"))?;
            out.push(
                usize::try_from(i)
                    .map_err(|_| format!("{ctx}: node index must be non-negative, got {i}"))?,
            );
        }
        Ok(Target::Nodes(out))
    } else {
        Err(format!("{ctx}: expected group = \"...\" or nodes = [...]"))
    }
}

fn latency_from_value(v: &Value, ctx: &str) -> Result<LatencyDist, String> {
    match req_str(v, "dist", ctx)? {
        "uniform" => Ok(LatencyDist::Uniform {
            base_ms: req_f64(v, "base_ms", ctx)?,
            jitter_ms: req_f64(v, "jitter_ms", ctx)?,
        }),
        "exponential" => Ok(LatencyDist::Exponential {
            base_ms: req_f64(v, "base_ms", ctx)?,
            mean_ms: req_f64(v, "mean_ms", ctx)?,
        }),
        "pareto" => Ok(LatencyDist::Pareto {
            base_ms: req_f64(v, "base_ms", ctx)?,
            scale_ms: req_f64(v, "scale_ms", ctx)?,
            alpha: req_f64(v, "alpha", ctx)?,
        }),
        other => Err(format!("{ctx}: unknown latency dist {other:?}")),
    }
}

const FAULT_KEYS: &[&str] = &[
    "crash",
    "ingress_drop",
    "egress_drop",
    "partition",
    "blackhole_pair",
    "clear_blackhole_pair",
    "link_loss",
    "slow_node",
    "duplicate",
    "reorder",
    "latency",
];

fn inject_from_value(v: &Value, phase: usize, idx: usize) -> Result<Inject, String> {
    let ctx = format!("phase {phase} inject {idx}");
    let at_ms = opt_u64(v, "at_ms", &ctx)?.unwrap_or(0);
    let repeat = match v.get("repeat") {
        None => None,
        Some(r) => Some(Repeat {
            period_ms: req_uint(r, "period_ms", &ctx)?,
            count: u32::try_from(req_uint(r, "count", &ctx)?)
                .map_err(|_| format!("{ctx}: repeat count too large"))?,
        }),
    };
    let mut found = None;
    for key in FAULT_KEYS {
        if let Some(fv) = v.get(key) {
            if found.is_some() {
                return Err(format!("{ctx}: more than one fault key"));
            }
            found = Some((*key, fv));
        }
    }
    let Some((key, fv)) = found else {
        return Err(format!("{ctx}: expected one fault key of {FAULT_KEYS:?}"));
    };
    let fault = match key {
        "crash" => FaultSpec::Crash(target_from_value(fv, &ctx)?),
        "ingress_drop" => {
            FaultSpec::IngressDrop(target_from_value(fv, &ctx)?, req_f64(fv, "p", &ctx)?)
        }
        "egress_drop" => {
            FaultSpec::EgressDrop(target_from_value(fv, &ctx)?, req_f64(fv, "p", &ctx)?)
        }
        "partition" => FaultSpec::Partition(target_from_value(fv, &ctx)?),
        "blackhole_pair" => FaultSpec::BlackholePair(
            req_usize(fv, "a", &ctx)?,
            req_usize(fv, "b", &ctx)?,
        ),
        "clear_blackhole_pair" => FaultSpec::ClearBlackholePair(
            req_usize(fv, "a", &ctx)?,
            req_usize(fv, "b", &ctx)?,
        ),
        "link_loss" => FaultSpec::LinkLoss(
            req_usize(fv, "src", &ctx)?,
            req_usize(fv, "dst", &ctx)?,
            req_f64(fv, "p", &ctx)?,
        ),
        "slow_node" => {
            FaultSpec::SlowNode(target_from_value(fv, &ctx)?, req_f64(fv, "factor", &ctx)?)
        }
        "duplicate" => FaultSpec::Duplicate(req_f64(fv, "p", &ctx)?),
        "reorder" => FaultSpec::Reorder(
            req_f64(fv, "p", &ctx)?,
            req_uint(fv, "extra_ms", &ctx)?,
        ),
        "latency" => FaultSpec::Latency(latency_from_value(fv, &ctx)?),
        _ => unreachable!("key list is exhaustive"),
    };
    Ok(Inject {
        at_ms,
        fault,
        repeat,
    })
}

fn workload_from_value(v: &Value, phase: usize, idx: usize) -> Result<Workload, String> {
    let ctx = format!("phase {phase} workload {idx}");
    let at_ms = opt_u64(v, "at_ms", &ctx)?.unwrap_or(0);
    let action = if let Some(j) = v.get("join") {
        WorkloadAction::Join {
            count: req_usize(j, "count", &ctx)?,
        }
    } else if let Some(l) = v.get("leave") {
        WorkloadAction::Leave(target_from_value(l, &ctx)?)
    } else if let Some(p) = v.get("put") {
        WorkloadAction::Put {
            count: req_usize(p, "count", &ctx)?,
            via: match p.get("via") {
                None => None,
                Some(_) => Some(req_usize(p, "via", &ctx)?),
            },
            value_size: match p.get("value_size") {
                None => None,
                Some(_) => Some(req_usize(p, "value_size", &ctx)?),
            },
            key_dist: match p.get("key_dist").and_then(|d| d.as_str()) {
                None | Some("sequential") => KeyDist::Sequential,
                Some("zipfian") => {
                    let s = match p.get("zipf_s") {
                        None => 1.1,
                        Some(v) => v
                            .as_f64()
                            .ok_or_else(|| format!("{ctx}: zipf_s must be a number"))?,
                    };
                    // NaN must fail too, hence not a plain `s <= 0.0`.
                    if s.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                        return Err(format!(
                            "{ctx}: zipf_s must be > 0 (got {s}); s near 0 is uniform, \
                             ~1.1 matches web-cache skew"
                        ));
                    }
                    KeyDist::Zipfian { s }
                }
                Some(other) => {
                    return Err(format!(
                        "{ctx}: key_dist must be \"sequential\" or \"zipfian\" (got {other:?})"
                    ))
                }
            },
        }
    } else {
        return Err(format!(
            "{ctx}: expected join = {{...}}, leave = {{...}}, or put = {{...}}"
        ));
    };
    Ok(Workload { at_ms, action })
}

fn expect_from_value(v: &Value, phase: usize, idx: usize) -> Result<Expect, String> {
    let ctx = format!("phase {phase} expect {idx}");
    if let Some(c) = v.get("converge") {
        let to = size_expr(c, "to", &ctx)?;
        Ok(Expect::Converge {
            to,
            within_ms: req_uint(c, "within_ms", &ctx)?,
            within_full_ms: opt_u64(c, "within_full_ms", &ctx)?,
        })
    } else if let Some(a) = v.get("all_report") {
        Ok(Expect::AllReport(size_expr(a, "size", &ctx)?))
    } else if let Some(m) = v.get("max_size") {
        Ok(Expect::MaxSize(size_expr(m, "at_most", &ctx)?))
    } else if v.get("consistent_histories").is_some() {
        Ok(Expect::ConsistentHistories)
    } else if let Some(c) = v.get("view_changes") {
        Ok(Expect::ViewChanges {
            at_most: req_uint(c, "at_most", &ctx)?,
        })
    } else if v.get("kv_available").is_some() {
        Ok(Expect::KvAvailable)
    } else if v.get("no_lost_acked_writes").is_some() {
        Ok(Expect::NoLostAckedWrites)
    } else if let Some(c) = v.get("kv_converged") {
        // `kv_converged = true` takes the default budget; a table form
        // sets it explicitly.
        Ok(Expect::KvConverged {
            within_ms: match c.get("within_ms") {
                None => 30_000,
                Some(_) => req_uint(c, "within_ms", &ctx)?,
            },
        })
    } else if let Some(s) = v.get("shed_observed") {
        // `shed_observed = true` demands at least one shed; the table
        // form raises the floor.
        Ok(Expect::ShedObserved {
            min: match s.get("min") {
                None => 1,
                Some(_) => req_uint(s, "min", &ctx)?,
            },
        })
    } else if let Some(r) = v.get("ops_recover") {
        Ok(Expect::OpsRecover {
            within_samples: match r.get("within_samples") {
                None => 10,
                Some(_) => req_usize(r, "within_samples", &ctx)?,
            },
            min_ops: match r.get("min_ops") {
                None => 1,
                Some(_) => req_uint(r, "min_ops", &ctx)?,
            },
        })
    } else {
        Err(format!(
            "{ctx}: expected converge/all_report/max_size/consistent_histories/\
             view_changes/kv_available/no_lost_acked_writes/kv_converged/shed_observed/\
             ops_recover"
        ))
    }
}

fn size_expr(v: &Value, key: &str, ctx: &str) -> Result<SizeExpr, String> {
    let raw = req(v, key, ctx)?;
    if let Some(i) = raw.as_int() {
        return Ok(SizeExpr::abs(i as usize));
    }
    let s = raw
        .as_str()
        .ok_or_else(|| format!("{ctx}: {key:?} must be an integer or a size expression"))?;
    SizeExpr::parse(s).map_err(|e| format!("{ctx}: {e}"))
}

fn phase_from_value(v: &Value, idx: usize) -> Result<Phase, String> {
    let ctx = format!("phase {idx}");
    let name = req_str(v, "name", &ctx)?.to_string();
    let run_ms = opt_u64(v, "run_ms", &ctx)?;
    let mut injects = Vec::new();
    if let Some(arr) = v.get("inject") {
        let arr = arr
            .as_array()
            .ok_or_else(|| format!("{ctx}: inject must be an array of tables"))?;
        for (i, iv) in arr.iter().enumerate() {
            injects.push(inject_from_value(iv, idx, i)?);
        }
    }
    let mut workloads = Vec::new();
    if let Some(arr) = v.get("workload") {
        let arr = arr
            .as_array()
            .ok_or_else(|| format!("{ctx}: workload must be an array of tables"))?;
        for (i, wv) in arr.iter().enumerate() {
            workloads.push(workload_from_value(wv, idx, i)?);
        }
    }
    let mut expects = Vec::new();
    if let Some(arr) = v.get("expect") {
        let arr = arr
            .as_array()
            .ok_or_else(|| format!("{ctx}: expect must be an array of tables"))?;
        for (i, ev) in arr.iter().enumerate() {
            expects.push(expect_from_value(ev, idx, i)?);
        }
    }
    Ok(Phase {
        name,
        injects,
        workloads,
        run_ms,
        expects,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"
name = "demo"
n = 50
seed = 7
topology = "static"

[full]
n = 500

[groups.victims]
stride = { first = 2, step = 5, count = 10 }

[groups.lossy]
percent = { pct = 1.0, min = 2 }

[[phase]]
name = "steady"
run_ms = 5000
  [[phase.expect]]
  all_report = { size = "n" }

[[phase]]
name = "chaos"
  [[phase.inject]]
  at_ms = 0
  crash = { group = "victims" }
  [[phase.inject]]
  at_ms = 1000
  ingress_drop = { group = "lossy", p = 1.0 }
  repeat = { period_ms = 40000, count = 3 }
  [[phase.inject]]
  latency = { dist = "pareto", base_ms = 1.0, scale_ms = 2.0, alpha = 1.5 }
  [[phase.workload]]
  at_ms = 2000
  leave = { nodes = [30] }
  [[phase.expect]]
  converge = { to = "n - victims", within_ms = 180000, within_full_ms = 360000 }
  [[phase.expect]]
  consistent_histories = true
"#;

    #[test]
    fn loads_the_full_schema() {
        let s = Scenario::from_toml(DOC).unwrap();
        assert_eq!(s.name, "demo");
        assert_eq!((s.n, s.seed), (50, 7));
        assert_eq!(s.topology, Topology::Static);
        assert_eq!(s.full.n, Some(500));
        assert_eq!(s.groups.len(), 2);
        assert_eq!(s.phases.len(), 2);
        assert_eq!(s.phases[0].run_ms, Some(5000));
        assert_eq!(s.phases[1].injects.len(), 3);
        assert_eq!(
            s.phases[1].injects[1].repeat,
            Some(Repeat { period_ms: 40_000, count: 3 })
        );
        assert!(matches!(
            s.phases[1].injects[2].fault,
            FaultSpec::Latency(LatencyDist::Pareto { .. })
        ));
        assert_eq!(s.phases[1].workloads.len(), 1);
        match &s.phases[1].expects[0] {
            Expect::Converge { to, within_ms, within_full_ms } => {
                assert_eq!(to.describe(), "n-victims");
                assert_eq!(*within_ms, 180_000);
                assert_eq!(*within_full_ms, Some(360_000));
            }
            other => panic!("wrong expect {other:?}"),
        }
        assert_eq!(s.phases[1].expects[1], Expect::ConsistentHistories);
    }

    #[test]
    fn loads_settings_and_kv_tables() {
        let doc = r#"
name = "kv-demo"
n = 8
topology = "static"

[settings]
k = 8
h = 7
l = 2
fd_probe_interval_ms = 500
client_window = 32
kv_inbox = 256
kv_shed_p99_ms = 40
peer_quota_frames = 1000

[kv]
partitions = 16
replication = 3
op_window_ms = 4000
repair_interval_ms = 750
value_size = 128

[[phase]]
name = "load"
  [[phase.workload]]
  at_ms = 1000
  put = { count = 50, via = 0 }
  [[phase.workload]]
  at_ms = 2000
  put = { count = 5, value_size = 512 }
  [[phase.expect]]
  kv_available = true
  [[phase.expect]]
  no_lost_acked_writes = true
  [[phase.expect]]
  kv_converged = true
  [[phase.expect]]
  kv_converged = { within_ms = 12000 }
  [[phase.expect]]
  shed_observed = { min = 3 }
  [[phase.expect]]
  ops_recover = { within_samples = 5, min_ops = 2 }
"#;
        let s = Scenario::from_toml(doc).unwrap();
        assert_eq!(s.settings.k, Some(8));
        assert_eq!(s.settings.fd_probe_interval_ms, Some(500));
        assert_eq!(s.settings.gossip_fanout, None);
        assert_eq!(s.settings.client_window, Some(32));
        assert_eq!(s.settings.kv_inbox, Some(256));
        assert_eq!(s.settings.kv_shed_p99_ms, Some(40));
        assert_eq!(s.settings.peer_quota_frames, Some(1000));
        let kv = s.kv.unwrap();
        assert_eq!((kv.partitions, kv.replication, kv.op_window_ms), (16, 3, 4000));
        assert_eq!((kv.repair_interval_ms, kv.value_size), (750, 128));
        assert_eq!(kv.clients, 1);
        assert_eq!(
            s.phases[0].workloads[0].action,
            WorkloadAction::Put { count: 50, via: Some(0), value_size: None, key_dist: KeyDist::Sequential }
        );
        assert_eq!(
            s.phases[0].workloads[1].action,
            WorkloadAction::Put { count: 5, via: None, value_size: Some(512), key_dist: KeyDist::Sequential }
        );
        assert_eq!(s.phases[0].expects[0], Expect::KvAvailable);
        assert_eq!(s.phases[0].expects[1], Expect::NoLostAckedWrites);
        assert_eq!(
            s.phases[0].expects[2],
            Expect::KvConverged { within_ms: 30_000 }
        );
        assert_eq!(
            s.phases[0].expects[3],
            Expect::KvConverged { within_ms: 12_000 }
        );
        assert_eq!(s.phases[0].expects[4], Expect::ShedObserved { min: 3 });
        assert_eq!(
            s.phases[0].expects[5],
            Expect::OpsRecover { within_samples: 5, min_ops: 2 }
        );
        // There is one submit path, so `[kv] submit` is not a key.
        let old_submit =
            "name=\"x\"\nn=5\n[kv]\nsubmit = \"client\"\n[[phase]]\nname=\"p\"\nrun_ms=1\n";
        assert!(Scenario::from_toml(old_submit)
            .unwrap_err()
            .contains("unknown kv key \"submit\""));
        let no_clients =
            "name=\"x\"\nn=5\n[kv]\nclients = 0\n[[phase]]\nname=\"p\"\nrun_ms=1\n";
        assert!(Scenario::from_toml(no_clients).unwrap_err().contains("client"));

        // Typo'd settings keys and invalid combinations fail the load.
        let typo = "name=\"x\"\nn=5\n[settings]\nfd_probe_intervalms = 1\n[[phase]]\nname=\"p\"\nrun_ms=1\n";
        assert!(Scenario::from_toml(typo).unwrap_err().contains("unknown settings key"));
        let bad = "name=\"x\"\nn=5\n[settings]\nk = 3\nh = 9\n[[phase]]\nname=\"p\"\nrun_ms=1\n";
        assert!(Scenario::from_toml(bad).unwrap_err().contains("invalid"));
        let bad_kv = "name=\"x\"\nn=5\n[kv]\nreplication = 0\n[[phase]]\nname=\"p\"\nrun_ms=1\n";
        assert!(Scenario::from_toml(bad_kv).unwrap_err().contains("replication"));
    }

    #[test]
    fn parses_zipfian_key_dist() {
        let doc = r#"
name = "zipf"
n = 5
[kv]
partitions = 8
[[phase]]
name = "load"
  [[phase.workload]]
  at_ms = 100
  put = { count = 10, key_dist = "zipfian", zipf_s = 1.3 }
  [[phase.workload]]
  at_ms = 200
  put = { count = 10, key_dist = "zipfian" }
  [[phase.workload]]
  at_ms = 300
  put = { count = 10, key_dist = "sequential" }
"#;
        let s = Scenario::from_toml(doc).unwrap();
        let dist_of = |i: usize| match s.phases[0].workloads[i].action {
            WorkloadAction::Put { key_dist, .. } => key_dist,
            ref other => panic!("wrong action {other:?}"),
        };
        assert_eq!(dist_of(0), KeyDist::Zipfian { s: 1.3 });
        assert_eq!(dist_of(1), KeyDist::Zipfian { s: 1.1 }); // default skew
        assert_eq!(dist_of(2), KeyDist::Sequential);

        let bad_s = "name=\"x\"\nn=5\n[[phase]]\nname=\"p\"\n[[phase.workload]]\nput = { count = 1, key_dist = \"zipfian\", zipf_s = 0.0 }\n";
        assert!(Scenario::from_toml(bad_s).unwrap_err().contains("zipf_s"));
        let bad_dist = "name=\"x\"\nn=5\n[[phase]]\nname=\"p\"\n[[phase.workload]]\nput = { count = 1, key_dist = \"gaussian\" }\n";
        assert!(Scenario::from_toml(bad_dist).unwrap_err().contains("key_dist"));
    }

    #[test]
    fn helpful_errors_on_bad_schema() {
        assert!(Scenario::from_toml("n = 5\n").unwrap_err().contains("name"));
        let no_phase = "name = \"x\"\nn = 5\n";
        assert!(Scenario::from_toml(no_phase).unwrap_err().contains("phase"));
        let bad_fault = "name=\"x\"\nn=5\n[[phase]]\nname=\"p\"\n[[phase.inject]]\nfoo = 1\n";
        assert!(Scenario::from_toml(bad_fault).unwrap_err().contains("fault key"));
        let two_faults = "name=\"x\"\nn=5\n[[phase]]\nname=\"p\"\n[[phase.inject]]\ncrash = { nodes = [0] }\nduplicate = { p = 0.5 }\n";
        assert!(Scenario::from_toml(two_faults).unwrap_err().contains("more than one"));
    }
}
