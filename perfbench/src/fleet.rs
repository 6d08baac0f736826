//! `megafleet`: one `JobPlatform` driven through the four `repro
//! megafleet` phases.
//!
//! 1. full_resolve: a uniform limit write before every iteration;
//! 2. balance: the `HierarchicalBalancerAgent` live, shards on segments;
//! 3. steady: whole-fleet replay, no writes (after an untimed settle);
//! 4. shard_churn: one host written per interval.
//!
//! [`HOSTS`] gives 16 bank segments. The default `repro megafleet` scale of
//! 100k hosts takes ~85 s per run on a 2-CPU host, most of it in balance;
//! at 16,384 hosts the per-phase ns/host repeat within ~10 %.
//!
//! The seed picks each episode's input variant (manufacturing-variation
//! pattern, limits, churned host) from [`VARIANTS`], each with a reference
//! recorded in `perfbench/reference/megafleet.txt`.

use crate::layers::{self, Counters};
use crate::reference::{self, Reference};
use crate::report::series;
use crate::report::{fnv1a, Outcome, SplitMix64, FNV_BASIS};
use crate::stats::{median, percentile};
use crate::steal;
use crate::trace;
use pmstack_kernel::KernelConfig;
use pmstack_runtime::{Agent, HierarchicalBalancerAgent, IterationBuffers, JobPlatform};
use pmstack_simhw::{quartz_spec, Node, NodeId, PowerModel, Watts};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Fleet size: 16 segments of the bank's default 1024 hosts.
pub const HOSTS: usize = 16_384;
const RESOLVE_ITERS: usize = 10;
const BALANCE_ITERS: usize = 40;
const SETTLE_MAX: usize = 600;
const STEADY_ITERS: usize = 250;
const CHURN_ITERS: usize = 200;
/// Untimed churn intervals with the recorder on that check the replay
/// fraction after the timed phases.
const CHURN_CHECK_ITERS: usize = 32;
const BUDGET_PER_HOST_W: f64 = 150.0;
/// Input variants the seed chooses from.
pub const VARIANTS: u64 = 16;

/// The phase names, run order.
pub const PHASES: [&str; 4] = ["full_resolve", "balance", "steady", "shard_churn"];
/// The span around each phase.
const PHASE_SPANS: [&str; 4] = [
    "bench.full_resolve",
    "bench.balance",
    "bench.steady",
    "bench.shard_churn",
];

/// One input variant: everything the program receives besides the fixed
/// fleet size and phase lengths.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Variant {
    /// Manufacturing variation of host `i`: `0.92 + 0.012 * ((i*mul + off) % 16)`.
    eps_mul: usize,
    eps_off: usize,
    /// full_resolve alternates `base_limit` and `base_limit + 1` W.
    base_limit: f64,
    /// shard_churn writes this host...
    churn_host: usize,
    /// ...alternating `churn_limit` and `churn_limit + 1` W.
    churn_limit: f64,
}

fn variant(v: u64) -> Variant {
    let mut r = SplitMix64::new(0x6d65_6761_666c_6565 ^ v);
    Variant {
        eps_mul: 2 * r.below(32) as usize + 1,
        eps_off: r.below(16) as usize,
        base_limit: 195.0 + r.below(11) as f64,
        churn_host: r.below(HOSTS as u64) as usize,
        churn_limit: 175.0 + r.below(11) as f64,
    }
}

struct Episode {
    setup_s: f64,
    /// Wall-clock of each timed interval (iteration plus its write or
    /// agent adjust), per phase.
    intervals: [Vec<f64>; 4],
    settled_under_agent: bool,
    total_energy_j: f64,
    energy_digest: u64,
    replay_frac: f64,
    segments: usize,
}

impl Episode {
    fn phase_ns_per_host(&self, p: usize) -> f64 {
        self.intervals[p].iter().sum::<f64>() * 1e9 / (self.intervals[p].len() * HOSTS) as f64
    }
}

fn timed(out: &mut Vec<f64>, iters: usize, phase: usize, mut body: impl FnMut()) {
    let _s = trace::span(PHASE_SPANS[phase]);
    for _ in 0..iters {
        let t = Instant::now();
        body();
        out.push(t.elapsed().as_secs_f64());
    }
}

/// Counter snapshots at phase boundaries (traced runs only).
type PhaseCounters = Vec<Counters>;

fn episode(var: Variant, marks: &mut PhaseCounters) -> Episode {
    let mark = |marks: &mut PhaseCounters| {
        if pmstack_obs::enabled() {
            marks.push(Counters::now());
        }
    };
    let watch = steal::Watch::start();
    let t0 = Instant::now();
    let model = PowerModel::new(quartz_spec()).expect("quartz spec is valid");
    let nodes: Vec<Node> = {
        let _s = trace::span("simhw.node_new");
        (0..HOSTS)
            .map(|i| {
                let eps = 0.92 + 0.012 * ((i * var.eps_mul + var.eps_off) % 16) as f64;
                Node::new(NodeId(i), &model, eps).expect("eps is in range")
            })
            .collect()
    };
    let mut platform = {
        let _s = trace::span("runtime.platform_new");
        JobPlatform::new(model, nodes, KernelConfig::balanced_ymm(16.0))
    };
    platform.set_fast_forward(true);
    let setup_s = t0.elapsed().as_secs_f64();
    let segments = platform.num_segments();
    let mut bufs = IterationBuffers::new();
    let mut intervals: [Vec<f64>; 4] = Default::default();

    mark(marks);
    let mut flip = 0u64;
    timed(&mut intervals[0], RESOLVE_ITERS, 0, || {
        flip += 1;
        {
            let _s = trace::span("simhw.control_write.uniform");
            platform
                .set_uniform_limit(Watts(var.base_limit + (flip % 2) as f64))
                .expect("limit is in the settable range");
        }
        let _s = trace::span("runtime.run_iteration_into");
        platform.run_iteration_into(&mut bufs);
    });

    mark(marks);
    let budget = Watts(BUDGET_PER_HOST_W * HOSTS as f64);
    let mut agent =
        HierarchicalBalancerAgent::new(budget).with_shard_hosts(platform.segment_hosts());
    {
        let _s = trace::span("runtime.agent_init");
        agent.init(&mut platform);
    }
    timed(&mut intervals[1], BALANCE_ITERS, 1, || {
        {
            let _s = trace::span("runtime.run_iteration_into");
            platform.run_iteration_into(&mut bufs);
        }
        let _s = trace::span("runtime.agent_adjust");
        agent.adjust(&mut platform, bufs.outcome());
    });
    let settled_under_agent = platform.steady_state_active();
    mark(marks);

    for _ in 0..SETTLE_MAX {
        if platform.steady_state_active() {
            break;
        }
        platform.run_iteration_into(&mut bufs);
    }

    mark(marks);
    timed(&mut intervals[2], STEADY_ITERS, 2, || {
        let _s = trace::span("runtime.run_iteration_into");
        platform.run_iteration_into(&mut bufs);
    });

    mark(marks);
    let mut flip = 0u64;
    let churn = |flip: &mut u64, platform: &mut JobPlatform, bufs: &mut IterationBuffers| {
        *flip += 1;
        {
            let _s = trace::span("simhw.control_write.host");
            platform
                .set_host_limit(var.churn_host, Watts(var.churn_limit + (*flip % 2) as f64))
                .expect("limit is in the settable range");
        }
        let _s = trace::span("runtime.run_iteration_into");
        platform.run_iteration_into(bufs);
    };
    timed(&mut intervals[3], CHURN_ITERS, 3, || {
        churn(&mut flip, &mut platform, &mut bufs)
    });
    mark(marks);
    let (_, share) = watch.stop();
    for iv in intervals.iter_mut().flatten() {
        *iv *= share;
    }

    let energy = platform.host_energy();
    let total_energy_j: f64 = energy.iter().map(|e| e.value()).sum();
    let energy_digest = energy.iter().fold(FNV_BASIS, |h, e| {
        fnv1a(e.value().to_bits().to_le_bytes(), h)
    });

    // The replay fraction needs the recorder; count it on extra churn
    // intervals so the timed phases above run with it off.
    let was_on = pmstack_obs::enabled();
    pmstack_obs::enable();
    let before = Counters::now();
    for _ in 0..CHURN_CHECK_ITERS {
        churn(&mut flip, &mut platform, &mut bufs);
    }
    let replayed = Counters::now()
        .since(&before)
        .count("simhw.bank.shard.replayed");
    if !was_on {
        pmstack_obs::disable();
    }
    Episode {
        setup_s: setup_s * share,
        intervals,
        settled_under_agent,
        total_energy_j,
        energy_digest,
        replay_frac: replayed as f64 / (CHURN_CHECK_ITERS * segments) as f64,
        segments,
    }
}

fn reference_values(ep: &Episode) -> [u64; 3] {
    [
        ep.total_energy_j.to_bits(),
        u64::from(ep.settled_under_agent),
        ep.energy_digest,
    ]
}

fn check(v: u64, ep: &Episode, reference: &Reference, out: &mut Outcome) {
    out.attempted += 1;
    let got = reference_values(ep);
    let want = reference.get(&format!("variant{v}"));
    out.check(want == Some(&got[..]), || {
        format!("megafleet variant {v}: total energy, settled_under_agent, energy digest {got:x?} differ from the reference {want:x?}")
    });
    let s = ep.segments as f64;
    out.check(ep.segments >= 8, || {
        format!("only {} bank segments", ep.segments)
    });
    out.check(ep.replay_frac >= (s - 1.0) / s, || {
        format!(
            "churn replay fraction {} below (S-1)/S = {}",
            ep.replay_frac,
            (s - 1.0) / s
        )
    });
}

/// Run the workload.
pub fn run(seed: u64, seconds: u64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let reference = match Reference::load("megafleet") {
        Ok(r) => r,
        Err(e) => {
            out.check(false, || e);
            return out;
        }
    };
    let mut rng = SplitMix64::new(seed);
    if traced {
        return run_traced(rng.below(VARIANTS), &reference, out);
    }
    let start = Instant::now();
    let budget = Duration::from_secs(seconds);
    let (mut setups, mut rates, mut ops, mut p50, mut p99, mut phase_rows) = (
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
    );
    loop {
        let t = Instant::now();
        let v = rng.below(VARIANTS);
        let ep = episode(variant(v), &mut Vec::new());
        check(v, &ep, &reference, &mut out);
        setups.push(ep.setup_s);
        // Throughput over the write-path phases (full_resolve and balance):
        // the churn phase's cost swings 3-4x with other tenants' load.
        let write_path = &ep.intervals[..2];
        let iters: usize = write_path.iter().map(Vec::len).sum();
        let wall: f64 = write_path.iter().flatten().sum();
        rates.push((iters * HOSTS) as f64 / wall);
        ops.push(iters as f64 / wall);
        let balance = &ep.intervals[1];
        p50.push(percentile(balance, 50.0).expect("balance intervals") * 1e3);
        p99.push(percentile(&ep.intervals.concat(), 99.0).expect("intervals") * 1e3);
        phase_rows.push(format!(
            "variant {v:>2}: {}",
            (0..4)
                .map(|p| format!("{} {:.1} ns/host", PHASES[p], ep.phase_ns_per_host(p)))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        if start.elapsed() + t.elapsed() > budget {
            break;
        }
    }
    out.notes.push(format!(
        "megafleet: {} episodes of {HOSTS} hosts; phase iterations {RESOLVE_ITERS}/{BALANCE_ITERS}/{STEADY_ITERS}/{CHURN_ITERS}",
        setups.len()
    ));
    out.notes.extend(phase_rows);
    out.metric("setup_s", "s", median(&setups).expect("one episode"));
    out.metric("peak_rss_mb", "MB", crate::report::peak_rss_mb());
    out.metric(
        "node_iters_per_s",
        "1/s",
        median(&rates).expect("one episode"),
    );
    out.metric("op_ms", "ms", median(&p50).expect("one episode"));
    out.metric("ops_per_s", "1/s", median(&ops).expect("one episode"));
    out.notes.push(series("setup_s", &setups));
    out.notes.push(series("node_iters_per_s", &rates));
    out.notes.push(series("op_ms (balance)", &p50));
    out.notes.push(series("op_p99_ms (all phases)", &p99));
    out
}

fn run_traced(v: u64, reference: &Reference, mut out: Outcome) -> Outcome {
    let t = Instant::now();
    let ep = episode(variant(v), &mut Vec::new());
    let untraced = t.elapsed().as_secs_f64();
    check(v, &ep, reference, &mut out);

    pmstack_obs::enable();
    trace::enable();
    let mut marks = Vec::new();
    let before = Counters::now();
    let ep = {
        let _root = trace::span("bench.megafleet");
        episode(variant(v), &mut marks)
    };
    trace::disable();
    let c = Counters::now().since(&before);
    pmstack_obs::disable();
    check(v, &ep, reference, &mut out);
    let spans = trace::take();

    // marks: before resolve, before balance, after balance, before steady,
    // before churn, after churn.
    let mut m = BTreeMap::new();
    c.layer_metrics(&mut m);
    let hosts = HOSTS as f64;
    let (uniform, n_uniform) = trace::total(&spans, "simhw.control_write.uniform");
    let (single, n_single) = trace::total(&spans, "simhw.control_write.host");
    m.insert(
        "simhw.control_write_ns".into(),
        (uniform + single) * 1e9 / (n_uniform as f64 * hosts + n_single as f64),
    );
    let churn = marks[5].since(&marks[4]);
    m.insert(
        "simhw.shard_replay_frac".into(),
        churn.count("simhw.bank.shard.replayed") as f64 / (CHURN_ITERS * ep.segments) as f64,
    );
    for (p, name) in PHASES.iter().enumerate() {
        let phase = spans
            .iter()
            .find(|s| s.name == PHASE_SPANS[p])
            .expect("phase span");
        let iter_s: f64 = spans
            .iter()
            .filter(|s| s.parent == phase.id && s.name == "runtime.run_iteration_into")
            .map(|s| s.end - s.start)
            .sum();
        m.insert(
            format!("runtime.iteration_ns_per_host.{name}"),
            iter_s * 1e9 / (ep.intervals[p].len() as f64 * hosts),
        );
    }
    let (adjust, _) = trace::total(&spans, "runtime.agent_adjust");
    m.insert(
        "runtime.agent_adjust_ns_per_host".into(),
        adjust * 1e9 / (BALANCE_ITERS as f64 * hosts),
    );
    let balance = marks[2].since(&marks[1]);
    m.insert(
        "runtime.balancer_write_skip_frac".into(),
        balance.count("runtime.balancer.writes_skipped") as f64 / (BALANCE_ITERS as f64 * hosts),
    );
    // The bank's own span times its stepping inside each iteration.
    let st = trace::self_times_nested(
        &spans,
        &[trace::Nested {
            within: "runtime.run_iteration_into",
            layer: "simhw",
            seconds: c.hist_sum("simhw.step_all.secs"),
        }],
    );
    layers::self_time_metrics(&st, untraced, &mut m);
    out.notes.push(format!(
        "megafleet variant {v}: phase ns/host (traced episode) {}",
        (0..4)
            .map(|p| format!("{} {:.1}", PHASES[p], ep.phase_ns_per_host(p)))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.notes
        .extend(layers::render_table("megafleet", &st, untraced));
    crate::finish_traced(out, m, &spans, "megafleet")
}

/// Reference lines for every input variant.
pub fn record() -> Vec<String> {
    (0..VARIANTS)
        .map(|v| {
            let ep = episode(variant(v), &mut Vec::new());
            reference::line(&format!("variant{v}"), &reference_values(&ep))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_stay_inside_the_settable_and_variation_ranges() {
        for v in 0..VARIANTS {
            let var = variant(v);
            assert_eq!(var.eps_mul % 2, 1);
            assert!(var.eps_off < 16);
            assert!((195.0..=205.0).contains(&var.base_limit));
            assert!((175.0..=185.0).contains(&var.churn_limit));
            assert!(var.churn_host < HOSTS);
        }
        assert_ne!(variant(0), variant(1));
    }
}
