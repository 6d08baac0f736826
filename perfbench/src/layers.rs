//! The per-layer metric catalog and the program counters it reads.
//!
//! Every traced run prints every metric of [`per_layer_catalog`]; a metric whose
//! layer the workload never reaches reads 0 (the README lists which
//! workload moves which metric).

use crate::trace::SelfTimes;
use std::collections::BTreeMap;

/// The five policies, in the order `PolicyKind::all()` lists them.
pub const POLICIES: [&str; 5] = [
    "Precharacterized",
    "StaticCaps",
    "MinimizeWaste",
    "JobAdaptive",
    "MixedAdaptive",
];

/// Span names of one coordinator run per policy, [`POLICIES`] order.
pub const RUN_MIX_SPANS: [&str; 5] = [
    "core.try_run_mix.Precharacterized",
    "core.try_run_mix.StaticCaps",
    "core.try_run_mix.MinimizeWaste",
    "core.try_run_mix.JobAdaptive",
    "core.try_run_mix.MixedAdaptive",
];

/// Span names of one policy allocation per policy, [`POLICIES`] order.
pub const ALLOCATE_SPANS: [&str; 5] = [
    "core.allocate.Precharacterized",
    "core.allocate.StaticCaps",
    "core.allocate.MinimizeWaste",
    "core.allocate.JobAdaptive",
    "core.allocate.MixedAdaptive",
];

/// Position of `kind` in [`POLICIES`].
pub fn policy_index(kind: pmstack_core::PolicyKind) -> usize {
    pmstack_core::PolicyKind::all()
        .iter()
        .position(|&k| k == kind)
        .expect("one of the five policies")
}

/// Layers with spans of their own in the self-time table.
pub const SPAN_LAYERS: [&str; 7] = ["exec", "simhw", "runtime", "rm", "core", "obs", "pmstackd"];

/// `(name, unit)` of every per-layer metric, in print order.
pub fn per_layer_catalog() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("exec.tasks_executed", "count"),
        ("exec.steal_frac", "ratio"),
        ("exec.par_map_inline_frac", "ratio"),
        ("simhw.control_write_ns", "ns"),
        ("simhw.step_all_s", "s"),
        ("simhw.step_settled_frac", "ratio"),
        ("simhw.shard_replay_frac", "ratio"),
        ("runtime.iteration_ns_per_host.full_resolve", "ns"),
        ("runtime.iteration_ns_per_host.balance", "ns"),
        ("runtime.iteration_ns_per_host.steady", "ns"),
        ("runtime.iteration_ns_per_host.shard_churn", "ns"),
        ("runtime.agent_adjust_ns_per_host", "ns"),
        ("runtime.balancer_write_skip_frac", "ratio"),
        ("runtime.ffwd_engaged_frac", "ratio"),
        ("runtime.settled_hit_frac", "ratio"),
        ("rm.ledger_ns", "ns"),
        ("rm.pool_ns", "ns"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for p in POLICIES {
        v.push((format!("core.run_mix_s.{p}"), "s"));
    }
    v.push(("core.characterize_ns".into(), "ns"));
    v.push(("core.char_memo_hit_frac".into(), "ratio"));
    for p in POLICIES {
        v.push((format!("core.allocate_ns.{p}"), "ns"));
    }
    for (n, u) in [
        ("kernel.load_memo_hit_frac", "ratio"),
        ("pmstackd.parse_ns", "ns"),
        ("pmstackd.serialize_ns", "ns"),
        ("pmstackd.admit_ns", "ns"),
        ("pmstackd.tick_ns", "ns"),
        ("pmstackd.fleet_tick_ms", "ms"),
        ("pmstackd.cap_ops_per_tick", "count"),
        ("obs.render_ns", "ns"),
        ("loadgen.submit_p99_ms", "ms"),
        ("loadgen.late_p99_ms", "ms"),
        ("loadgen.scrape_p50_ms", "ms"),
    ] {
        v.push((n.into(), u));
    }
    for l in SPAN_LAYERS {
        v.push((format!("{l}.self_s"), "s"));
    }
    for n in [
        "trace.unattributed_s",
        "trace.traced_wall_s",
        "trace.untraced_wall_s",
        "trace.overhead_s",
    ] {
        v.push((n.into(), "s"));
    }
    v
}

/// Program counters and span histograms read through `pmstack_obs`.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    counts: BTreeMap<String, u64>,
    hist_sums: BTreeMap<String, f64>,
}

impl Counters {
    /// The current values.
    pub fn now() -> Self {
        let snap = pmstack_obs::snapshot();
        Self {
            counts: snap.counters.iter().cloned().collect(),
            hist_sums: snap
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.sum))
                .collect(),
        }
    }

    /// `self - earlier` for every counter and histogram sum.
    pub fn since(&self, earlier: &Self) -> Self {
        Self {
            counts: self
                .counts
                .iter()
                .map(|(k, v)| (k.clone(), v.saturating_sub(earlier.count(k))))
                .collect(),
            hist_sums: self
                .hist_sums
                .iter()
                .map(|(k, v)| (k.clone(), v - earlier.hist_sum(k)))
                .collect(),
        }
    }

    /// A counter (0 when never registered).
    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// A span histogram's sum of seconds (0 when never registered).
    pub fn hist_sum(&self, name: &str) -> f64 {
        self.hist_sums.get(name).copied().unwrap_or(0.0)
    }

    fn frac(&self, num: &str, den: &[&str]) -> f64 {
        ratio(
            self.count(num) as f64,
            den.iter().map(|d| self.count(d)).sum::<u64>() as f64,
        )
    }

    /// The counter-derived per-layer metrics every workload shares.
    pub fn layer_metrics(&self, out: &mut BTreeMap<String, f64>) {
        let executed = self.count("exec.tasks.executed");
        out.insert("exec.tasks_executed".into(), executed as f64);
        out.insert(
            "exec.steal_frac".into(),
            self.frac("exec.tasks.stolen", &["exec.tasks.executed"]),
        );
        out.insert(
            "exec.par_map_inline_frac".into(),
            self.frac(
                "exec.par_map.inline",
                &["exec.par_map.inline", "exec.par_map.calls"],
            ),
        );
        out.insert(
            "simhw.step_all_s".into(),
            self.hist_sum("simhw.step_all.secs"),
        );
        out.insert(
            "simhw.step_settled_frac".into(),
            self.frac("simhw.step_all.settled", &["simhw.step_all.calls"]),
        );
        // Every iteration either fast-forwards or counts a settled hit or
        // miss, so the three sum to the iterations run.
        out.insert(
            "runtime.ffwd_engaged_frac".into(),
            self.frac(
                "runtime.ffwd.engaged",
                &[
                    "runtime.ffwd.engaged",
                    "runtime.settled.hit",
                    "runtime.settled.miss",
                ],
            ),
        );
        out.insert(
            "runtime.settled_hit_frac".into(),
            self.frac(
                "runtime.settled.hit",
                &["runtime.settled.hit", "runtime.settled.miss"],
            ),
        );
        out.insert(
            "core.char_memo_hit_frac".into(),
            self.frac(
                "core.char.memo_hit",
                &["core.char.memo_hit", "core.char.memo_miss"],
            ),
        );
        out.insert(
            "kernel.load_memo_hit_frac".into(),
            self.frac(
                "kernel.load.memo_hit",
                &["kernel.load.memo_hit", "kernel.load.memo_miss"],
            ),
        );
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The self-time rows and trace walls as per-layer metrics.
pub fn self_time_metrics(t: &SelfTimes, untraced_wall: f64, out: &mut BTreeMap<String, f64>) {
    for l in SPAN_LAYERS {
        out.insert(format!("{l}.self_s"), t.of(l));
    }
    out.insert("trace.unattributed_s".into(), t.remainder);
    out.insert("trace.traced_wall_s".into(), t.wall);
    out.insert("trace.untraced_wall_s".into(), untraced_wall);
    out.insert("trace.overhead_s".into(), t.wall - untraced_wall);
}

/// The self-time table as printed lines: one row per layer, the
/// remainder, and their sum against the traced wall.
pub fn render_table(workload: &str, t: &SelfTimes, untraced_wall: f64) -> Vec<String> {
    let mut lines = vec![format!("per-layer self time, {workload} (traced run)")];
    let pct = |x: f64| {
        if t.wall > 0.0 {
            100.0 * x / t.wall
        } else {
            0.0
        }
    };
    for l in SPAN_LAYERS {
        let s = t.of(l);
        lines.push(format!("  {l:<12} {s:>12.6} s  {:>6.2} %", pct(s)));
    }
    for (l, s) in &t.layers {
        if !SPAN_LAYERS.contains(&l.as_str()) {
            lines.push(format!("  {l:<12} {s:>12.6} s  {:>6.2} %", pct(*s)));
        }
    }
    lines.push(format!(
        "  {:<12} {:>12.6} s  {:>6.2} %",
        "unattributed",
        t.remainder,
        pct(t.remainder)
    ));
    let sum: f64 = t.layers.iter().map(|(_, s)| s).sum::<f64>() + t.remainder;
    lines.push(format!(
        "  {:<12} {sum:>12.6} s  (traced wall {:.6} s)",
        "sum", t.wall
    ));
    lines.push(format!(
        "  tracing overhead: traced {:.6} s - untraced {:.6} s = {:+.6} s",
        t.wall,
        untraced_wall,
        t.wall - untraced_wall
    ));
    lines
}
