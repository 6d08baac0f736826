//! `paper_sweep`: the paper's Fig. 8 method, the `repro sweep` shape.
//!
//! Each episode builds the 900-node cluster and the WastefulPower mix
//! (9 jobs × 100 nodes), then runs `Coordinator::try_run_mix` for the five
//! §III policies, each with one clean and [`REPLICATES`] jittered
//! replicates of 100 iterations, fanned out over the exec pool clean runs
//! first, exactly as `replicates::run_sweep` does.
//!
//! The seed picks each episode's jitter seeds from a fixed pool of
//! [`JITTER_POOL`], so that every run the benchmark can make has a
//! reference recorded in `perfbench/reference/paper_sweep.txt`.

use crate::layers::{self, Counters, POLICIES};
use crate::reference::{self, Reference};
use crate::report::series;
use crate::report::{fnv1a, Outcome, SplitMix64, FNV_BASIS};
use crate::stats::{median, percentile};
use crate::steal;
use crate::trace;
use pmstack_core::policies::by_kind;
use pmstack_core::{Coordinator, CoordinatorMode, MixRun, PolicyKind};
use pmstack_experiments::mixes::{build_scaled, MixKind, WorkloadMix};
use pmstack_simhw::{quartz_spec, Cluster, VariationProfile, Watts};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const NODES_PER_JOB: usize = 100;
const ITERATIONS: usize = 100;
/// Jittered replicates per policy per episode (`repro sweep --replicates 20`).
pub const REPLICATES: usize = 20;
const SIGMA: f64 = 0.01;
const BUDGET_PER_NODE_W: f64 = 185.0;
const CLUSTER_SEED: u64 = 42;
/// Jitter seeds the benchmark can hand the coordinator.
pub const JITTER_POOL: u64 = 256;
/// The percentile of coordinator-run wall times the timing metrics read.
/// On a 2-CPU Xeon host the two pool workers slow each other (and other
/// tenants slow both) by up to 1.7x: run times are bimodal, around 7.5 and
/// 12.5 ms, and the share in the slow mode moves from run to run: over
/// ten runs the median sweep spread 0.11-0.22 of its median. The fast mode
/// held at least 15 % of every run's coordinator runs, and its 5th
/// percentile spread 0.04-0.12.
const RUN_PERCENTILE: f64 = 5.0;

/// Pool entry `k`'s jitter seed: `repro sweep`'s `seed + 1 + r` rule.
fn jitter_seed(k: u64) -> u64 {
    CLUSTER_SEED + 1 + k
}

struct Setup {
    cluster: Cluster,
    mix: WorkloadMix,
    budget: Watts,
}

fn setup() -> Setup {
    let mix = build_scaled(MixKind::WastefulPower, NODES_PER_JOB);
    let cluster = {
        let _s = trace::span("simhw.cluster_build");
        Cluster::builder(quartz_spec())
            .nodes(mix.total_nodes())
            .variation(VariationProfile::quartz())
            .seed(CLUSTER_SEED)
            .build()
            .expect("sweep cluster builds")
    };
    let budget = Watts(BUDGET_PER_NODE_W * mix.total_nodes() as f64);
    Setup {
        cluster,
        mix,
        budget,
    }
}

/// One coordinator run: a policy, clean (`None`) or a jitter pool entry.
type RunKey = (PolicyKind, Option<u64>);

fn key_name((policy, k): RunKey) -> String {
    match k {
        None => format!("{policy}/clean"),
        Some(k) => format!("{policy}/{k}"),
    }
}

fn run_one(s: &Setup, (policy, k): RunKey) -> Result<MixRun, String> {
    let mut coord = Coordinator::new(&s.cluster);
    if let Some(k) = k {
        coord = coord.with_jitter(SIGMA, jitter_seed(k));
    }
    coord
        .try_run_mix(
            &s.mix.jobs,
            by_kind(policy).as_ref(),
            s.budget,
            ITERATIONS,
            CoordinatorMode::Emulated,
        )
        .map_err(|e| e.to_string())
}

/// Mean elapsed bits, total energy bits, and a digest of every job's
/// elapsed time and energy.
fn digest(run: &MixRun) -> [u64; 3] {
    let jobs = run.reports.iter().fold(FNV_BASIS, |h, r| {
        let h = fnv1a(r.elapsed.value().to_bits().to_le_bytes(), h);
        fnv1a(r.energy.value().to_bits().to_le_bytes(), h)
    });
    [
        run.mean_elapsed().to_bits(),
        run.total_energy().to_bits(),
        jobs,
    ]
}

struct Episode {
    setup_s: f64,
    run_wall_s: f64,
    /// Wall-clock of each coordinator run, seconds.
    run_s: Vec<f64>,
    node_iters: u64,
    results: Vec<(RunKey, Result<[u64; 3], String>)>,
    /// Per policy: clean elapsed, mean jittered elapsed, mean jittered
    /// energy, as `replicates::run_sweep` aggregates them.
    stats: Vec<[f64; 3]>,
}

fn episode(pool: &[u64]) -> Episode {
    let watch = steal::Watch::start();
    let t0 = Instant::now();
    let s = setup();
    let setup_s = t0.elapsed().as_secs_f64();

    let run_list: Vec<RunKey> = PolicyKind::all()
        .into_iter()
        .flat_map(|p| std::iter::once((p, None)).chain(pool.iter().map(move |&k| (p, Some(k)))))
        .collect();
    let mut order: Vec<usize> = (0..run_list.len()).collect();
    order.sort_by_key(|&i| run_list[i].1.is_some());

    let t1 = Instant::now();
    let outs: Vec<(Result<MixRun, String>, f64)> = {
        let fan = trace::span("exec.par_map_indexed_min_workers");
        let parent = fan.id();
        pmstack_exec::par_map_indexed_min_workers(&order, 2, |_, &i| {
            let key = run_list[i];
            let _s = trace::span_under(layers::RUN_MIX_SPANS[layers::policy_index(key.0)], parent);
            let t = Instant::now();
            let r = run_one(&s, key);
            (r, t.elapsed().as_secs_f64())
        })
    };
    let mut by_index: Vec<Option<Result<MixRun, String>>> = vec![None; run_list.len()];
    let mut run_s = Vec::with_capacity(outs.len());
    for (&i, (r, secs)) in order.iter().zip(outs) {
        by_index[i] = Some(r);
        run_s.push(secs);
    }
    let per_policy = pool.len() + 1;
    let mut stats = Vec::with_capacity(POLICIES.len());
    for p in 0..POLICIES.len() {
        let runs: Vec<&MixRun> = by_index[p * per_policy..(p + 1) * per_policy]
            .iter()
            .filter_map(|r| r.as_ref().and_then(|r| r.as_ref().ok()))
            .collect();
        let mean = |f: fn(&MixRun) -> f64| {
            let xs: Vec<f64> = runs.iter().skip(1).map(|r| f(r)).collect();
            xs.iter().sum::<f64>() / xs.len().max(1) as f64
        };
        stats.push([
            runs.first().map_or(f64::NAN, |r| r.mean_elapsed()),
            mean(MixRun::mean_elapsed),
            mean(MixRun::total_energy),
        ]);
    }
    let run_wall_s = t1.elapsed().as_secs_f64();

    let results = run_list
        .iter()
        .zip(by_index)
        .map(|(&k, r)| (k, r.expect("every run executed").map(|m| digest(&m))))
        .collect();
    let (_, share) = watch.stop();
    Episode {
        setup_s: setup_s * share,
        run_wall_s: run_wall_s * share,
        run_s: run_s.iter().map(|t| t * share).collect(),
        node_iters: (run_list.len() * s.mix.total_nodes() * ITERATIONS) as u64,
        results,
        stats,
    }
}

/// `REPLICATES` distinct pool entries drawn from the seed's stream.
fn draw_pool(rng: &mut SplitMix64) -> Vec<u64> {
    let mut all: Vec<u64> = (0..JITTER_POOL).collect();
    for i in 0..REPLICATES {
        let j = i + rng.below(JITTER_POOL - i as u64) as usize;
        all.swap(i, j);
    }
    all.truncate(REPLICATES);
    all
}

/// Compare an episode with the reference; returns its statistic digest.
fn check(ep: &Episode, reference: &Reference, out: &mut Outcome) -> u64 {
    for (key, res) in &ep.results {
        out.attempted += 1;
        match res {
            Err(e) => {
                out.failed += 1;
                out.check(false, || {
                    format!("{}: try_run_mix failed: {e}", key_name(*key))
                });
            }
            Ok(d) => {
                let want = reference.get(&key_name(*key));
                out.check(want == Some(&d[..]), || {
                    format!(
                        "{}: simulated statistics {d:x?} differ from the reference {want:x?}",
                        key_name(*key)
                    )
                });
            }
        }
    }
    ep.stats
        .iter()
        .flatten()
        .fold(FNV_BASIS, |h, x| fnv1a(x.to_bits().to_le_bytes(), h))
}

/// Run the workload.
pub fn run(seed: u64, seconds: u64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let reference = match Reference::load("paper_sweep") {
        Ok(r) => r,
        Err(e) => {
            out.check(false, || e);
            return out;
        }
    };
    let mut rng = SplitMix64::new(seed);
    if traced {
        return run_traced(&mut rng, &reference, out);
    }

    let start = Instant::now();
    let budget = Duration::from_secs(seconds);
    let (mut setups, mut rates, mut sweeps, mut digests) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut run_p50, mut run_p99, mut runs) = (Vec::new(), Vec::new(), Vec::new());
    let mut node_iters = 0u64;
    loop {
        let t = Instant::now();
        let ep = episode(&draw_pool(&mut rng));
        digests.push(check(&ep, &reference, &mut out));
        setups.push(ep.setup_s);
        rates.push(ep.node_iters as f64 / ep.run_wall_s);
        sweeps.push(ep.run_wall_s * 1e3);
        node_iters += ep.node_iters;
        runs.extend_from_slice(&ep.run_s);
        run_p50.push(percentile(&ep.run_s, 50.0).expect("runs") * 1e3);
        run_p99.push(percentile(&ep.run_s, 99.0).expect("runs") * 1e3);
        if start.elapsed() + t.elapsed() > budget {
            break;
        }
    }
    out.notes.push(format!(
        "paper_sweep: {} episodes of 5 policies x (1 clean + {REPLICATES} jittered) runs, \
         {} node-iterations each; statistic digests {:016x?}",
        rates.len(),
        5 * (REPLICATES + 1) * 9 * NODES_PER_JOB * ITERATIONS,
        digests
    ));
    out.metric("setup_s", "s", median(&setups).expect("one episode"));
    out.metric("peak_rss_mb", "MB", crate::report::peak_rss_mb());
    let run_s = percentile(&runs, RUN_PERCENTILE).expect("runs");
    let iters_per_run = node_iters as f64 / runs.len() as f64;
    out.metric("node_iters_per_s", "1/s", iters_per_run / run_s);
    out.metric("op_ms", "ms", run_s * 1e3);
    out.metric("ops_per_s", "1/s", 1.0 / run_s);
    out.notes.push(format!(
        "coordinator run ms, every 10th percentile of {} runs: {:.3?}",
        runs.len(),
        (0..=10)
            .map(|i| percentile(&runs, f64::from(i * 10)).expect("runs") * 1e3)
            .collect::<Vec<_>>()
    ));
    out.notes.push(series("setup_s", &setups));
    out.notes.push(series("sweep node_iters_per_s", &rates));
    out.notes.push(series("sweep ms", &sweeps));
    out.notes.push(series("run p50 ms", &run_p50));
    out.notes.push(series("run p99 ms", &run_p99));
    out
}

fn run_traced(rng: &mut SplitMix64, reference: &Reference, mut out: Outcome) -> Outcome {
    // Warm the process-wide memos, then time one episode untraced and one
    // traced on the same inputs.
    let pool = draw_pool(rng);
    check(&episode(&pool), reference, &mut out);
    let t = Instant::now();
    check(&episode(&pool), reference, &mut out);
    let untraced = t.elapsed().as_secs_f64();

    pmstack_obs::enable();
    trace::enable();
    let before = Counters::now();
    {
        let _root = trace::span("bench.paper_sweep");
        check(&episode(&pool), reference, &mut out);
    }
    trace::disable();
    let c = Counters::now().since(&before);
    pmstack_obs::disable();
    let spans = trace::take();

    let mut m = BTreeMap::new();
    c.layer_metrics(&mut m);
    // Every job platform here is one bank segment, so a replayed segment
    // is a replayed step_all call.
    m.insert(
        "simhw.shard_replay_frac".into(),
        layers::ratio(
            c.count("simhw.bank.shard.replayed") as f64,
            c.count("simhw.step_all.calls") as f64,
        ),
    );
    for (p, span) in POLICIES.iter().zip(layers::RUN_MIX_SPANS) {
        let (total, n) = trace::total(&spans, span);
        m.insert(
            format!("core.run_mix_s.{p}"),
            layers::ratio(total, n as f64),
        );
    }
    // Inside each coordinator run (one pool worker, nested maps inline),
    // the program's own spans time the job runtimes and, within them, the
    // bank's stepping.
    let step = c.hist_sum("simhw.step_all.secs");
    let st = trace::self_times_nested(
        &spans,
        &[
            trace::Nested {
                within: "core.try_run_mix",
                layer: "runtime",
                seconds: c.hist_sum("runtime.job.secs") - step,
            },
            trace::Nested {
                within: "core.try_run_mix",
                layer: "simhw",
                seconds: step,
            },
        ],
    );
    layers::self_time_metrics(&st, untraced, &mut m);
    out.notes
        .extend(layers::render_table("paper_sweep", &st, untraced));
    crate::finish_traced(out, m, &spans, "paper_sweep")
}

/// Reference lines for every run key the workload can produce.
pub fn record() -> Vec<String> {
    let s = setup();
    let keys: Vec<RunKey> = PolicyKind::all()
        .into_iter()
        .flat_map(|p| std::iter::once((p, None)).chain((0..JITTER_POOL).map(move |k| (p, Some(k)))))
        .collect();
    let digests = pmstack_exec::par_map(&keys, |&k| {
        run_one(&s, k)
            .map(|r| digest(&r))
            .expect("reference run succeeds")
    });
    keys.iter()
        .zip(digests)
        .map(|(&k, d)| reference::line(&key_name(k), &d))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_draws_are_distinct_and_seeded() {
        let a = draw_pool(&mut SplitMix64::new(1));
        let b = draw_pool(&mut SplitMix64::new(1));
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), REPLICATES);
        assert!(a.iter().all(|&k| k < JITTER_POOL));
        assert_ne!(a, draw_pool(&mut SplitMix64::new(2)));
    }
}
