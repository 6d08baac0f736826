//! `serve_submit`: an in-process `pmstackd::Daemon` with its live fleet
//! step loop, driven by one open-loop client process.
//!
//! The client (this binary, `perfbench client`) holds two connections on
//! two threads: one sends `POST /submit` on a fixed schedule at each rate
//! of [`RATES`] in turn, the other scrapes `GET /metrics` at [`SCRAPE_HZ`].
//! Every request is timed from its due time, so a stalled response counts
//! against every request queued behind it on the connection. Bodies are
//! drawn from the seed over app class x node count x policy.
//!
//! The traced run drives the same seeded stream in-process through the
//! public functions of pmstackd (parse, admit, serialize, tick), of rm and
//! core (pool, characterization, policy allocation, ledger), and of the
//! served fleet (cap writes, one iteration per tick).

use crate::layers::{self, Counters, POLICIES};
use crate::report::{json_number, series, Outcome, SplitMix64};
use crate::stats::{least, median, percentile, reportable_tail};
use crate::steal;
use crate::trace;
use pmstack_core::policies::by_kind;
use pmstack_core::{JobChar, PolicyCtx};
use pmstack_kernel::KernelConfig;
use pmstack_obs::Exporter;
use pmstack_rm::{JobId, NodePool, PowerLedger};
use pmstack_runtime::{IterationBuffers, JobPlatform};
use pmstack_simhw::{quartz_spec, Node, NodeId, PowerModel, Watts};
use pmstackd::admission::{parse_policy, AppClass, SubmitRequest};
use pmstackd::json::{self, Value};
use pmstackd::{Admission, Daemon, DaemonConfig};
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Served fleet size.
pub const HOSTS: usize = 16_384;
/// The fixed open-loop `/submit` rates, req/s, alternating in rounds.
/// Both stay well inside what one connection carries on a 2-CPU Xeon host
/// (7.5-11k req/s): past that, leases pile up faster than the step loop
/// expires them, and once the pool or the ledger runs dry the daemon
/// answers 503 at a rate that depends on the other tenants' load.
pub const RATES: [f64; 2] = [1000.0, 4000.0];
/// Index into [`RATES`] of the rate the latency metrics are read at.
pub const LATENCY_RATE: usize = 1;
/// The p99 limit a rate must meet to count as sustained, ms.
pub const P99_LIMIT_MS: f64 = 20.0;
/// `/metrics` scrapes per second on the second connection.
pub const SCRAPE_HZ: f64 = 10.0;
/// Daemon spawns per run; set-up time is their median.
const SPAWNS: usize = 5;
/// Largest node count a body asks for.
const MAX_NODES: u64 = 4;
/// Step-loop ticks a grant holds its reservation.
const TTL_TICKS: u64 = 10;
const WARMUP_S: f64 = 1.0;
/// Each rate runs for this long per round; rounds repeat the rates lowest
/// first.
const WINDOW_S: f64 = 1.5;
/// Pause after each window, so one rate's backlog cannot spill into the
/// next.
const GAP_S: f64 = 0.25;

fn daemon_config() -> DaemonConfig {
    DaemonConfig {
        hosts: HOSTS,
        job_ttl_ticks: TTL_TICKS,
        ..DaemonConfig::default()
    }
}

/// The seed's stream of request bodies.
fn body_stream(seed: u64) -> impl Iterator<Item = String> {
    let mut r = SplitMix64::new(seed ^ 0x7365_7276_655f_7375);
    std::iter::from_fn(move || {
        let app = AppClass::NAMES[r.below(AppClass::NAMES.len() as u64) as usize];
        let nodes = 1 + r.below(MAX_NODES);
        let policy = POLICIES[r.below(POLICIES.len() as u64) as usize];
        Some(format!(
            "{{\"app\":\"{app}\",\"nodes\":{nodes},\"policy\":\"{policy}\"}}"
        ))
    })
}

// ---------------------------------------------------------------- client

/// What one request saw, seconds from the level's start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// When it was due.
    pub due: f64,
    /// When it was sent.
    pub sent: f64,
    /// When its response arrived.
    pub done: f64,
    /// HTTP status (0 for a transport error).
    pub status: u16,
}

impl Sample {
    /// Due-time latency, ms.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }
}

/// One rate's results in one round.
#[derive(Debug, Clone, PartialEq)]
pub struct Level {
    /// The round it ran in.
    pub round: usize,
    /// Scheduled rate, req/s.
    pub rate: f64,
    /// Window length, s.
    pub window: f64,
    /// Every request sent, in order.
    pub samples: Vec<Sample>,
    /// Requests due inside the window that had not completed at its end.
    pub backlog: usize,
}

/// Send requests due every `1/rate` seconds for `window` seconds over one
/// sequential exchange. A request is sent at its due time, or as soon as
/// the previous response arrived when that is later. Requests still due
/// when the window closes are not sent: they are the backlog.
pub fn drive(
    round: usize,
    rate: f64,
    window: f64,
    mut exchange: impl FnMut(usize) -> u16,
) -> Level {
    let start = Instant::now();
    let n = (rate * window).floor() as usize;
    let mut samples = Vec::with_capacity(n);
    for i in 0..n {
        let due = i as f64 / rate;
        let now = start.elapsed().as_secs_f64();
        if now >= window {
            break;
        }
        if due > now {
            std::thread::sleep(Duration::from_secs_f64(due - now));
        }
        let sent = start.elapsed().as_secs_f64();
        let status = exchange(i);
        let done = start.elapsed().as_secs_f64();
        samples.push(Sample {
            due,
            sent,
            done,
            status,
        });
    }
    let backlog = n - samples.iter().filter(|s| s.done <= window).count();
    Level {
        round,
        rate,
        window,
        samples,
        backlog,
    }
}

impl Level {
    /// Due-time latencies, ms; a non-200 response counts as infinitely
    /// late (a miss against any limit).
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| {
                if s.status == 200 {
                    s.latency_ms()
                } else {
                    f64::INFINITY
                }
            })
            .collect()
    }

    /// How late the generator itself sent each request, ms: send time
    /// minus the later of its due time and the previous response.
    pub fn late_ms(&self) -> Vec<f64> {
        let mut prev_done = f64::NEG_INFINITY;
        self.samples
            .iter()
            .map(|s| {
                let ready = s.due.max(prev_done);
                prev_done = s.done;
                (s.sent - ready).max(0.0) * 1e3
            })
            .collect()
    }

    /// 200 responses per second, from the level's start to its last
    /// response.
    pub fn goodput(&self) -> f64 {
        let ok = self.samples.iter().filter(|s| s.status == 200).count();
        let end = self.samples.last().map_or(self.window, |s| s.done);
        ok as f64 / end
    }

    /// True when p99 stays within `limit_ms` (misses included) and the
    /// backlog at the window's end is no more than the requests due in
    /// the last `limit_ms`.
    pub fn sustained(&self, limit_ms: f64) -> bool {
        let p99 = percentile(&self.latencies_ms(), 99.0).unwrap_or(f64::INFINITY);
        p99 <= limit_ms && self.backlog as f64 <= (self.rate * limit_ms / 1e3).max(1.0)
    }
}

/// The highest-rate level that is sustained, if any.
pub fn max_sustained(levels: &[Level], limit_ms: f64) -> Option<&Level> {
    levels
        .iter()
        .filter(|l| l.sustained(limit_ms))
        .max_by(|a, b| a.rate.total_cmp(&b.rate))
}

/// The best window's goodput at the highest rate any window sustained (0
/// when none did).
pub fn max_rps(levels: &[Level], limit_ms: f64) -> f64 {
    let Some(top) = max_sustained(levels, limit_ms) else {
        return 0.0;
    };
    levels
        .iter()
        .filter(|l| l.rate == top.rate && l.sustained(limit_ms))
        .map(Level::goodput)
        .fold(0.0, f64::max)
}

/// p50 and p99 (ms) of every window at `rate`, in run order.
pub fn window_percentiles(levels: &[Level], rate: f64) -> Vec<(f64, f64)> {
    levels
        .iter()
        .filter(|l| l.rate == rate)
        .filter_map(|l| {
            let lat = l.latencies_ms();
            Some((percentile(&lat, 50.0)?, percentile(&lat, 99.0)?))
        })
        .collect()
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: &str) -> std::io::Result<Self> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Self {
            reader: BufReader::new(s.try_clone()?),
            writer: s,
        })
    }

    /// One request-response exchange: status and body.
    fn exchange(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        let req = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.writer.write_all(req.as_bytes())?;
        let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut len = 0usize;
        loop {
            line.clear();
            self.reader.read_line(&mut line)?;
            let l = line.trim_end();
            if l.is_empty() {
                break;
            }
            if let Some((k, v)) = l.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    len = v.trim().parse().map_err(|_| bad("bad content-length"))?;
                }
            }
        }
        let mut buf = vec![0u8; len];
        self.reader.read_exact(&mut buf)?;
        String::from_utf8(buf)
            .map(|b| (status, b))
            .map_err(|_| bad("body is not UTF-8"))
    }
}

/// One Prometheus sample from a `/metrics` body.
fn prom_value(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .find_map(|l| l.strip_prefix(name).and_then(|rest| rest.strip_prefix(' ')))
        .and_then(|v| v.trim().parse().ok())
}

/// Check one 200 grant: caps inside `[min, tdp]`, one per node, summing
/// to no more than the granted watts. The daemon prints watts to 0.1 W,
/// so each printed value may be off by 0.05 W.
fn check_grant(body: &str, min: f64, tdp: f64) -> Result<(), String> {
    let v = json::parse(body.as_bytes()).map_err(|e| format!("bad grant JSON: {e}"))?;
    let granted = v
        .get("granted_w")
        .and_then(Value::as_f64)
        .ok_or("no granted_w")?;
    let nums = |k: &str| -> Result<Vec<f64>, String> {
        match v.get(k) {
            Some(Value::Arr(xs)) => xs
                .iter()
                .map(|x| x.as_f64().ok_or(format!("non-numeric {k}")))
                .collect(),
            _ => Err(format!("no {k} array")),
        }
    };
    let caps = nums("caps_w")?;
    let nodes = nums("nodes")?;
    let slack = 0.05;
    if caps.len() != nodes.len() || caps.is_empty() {
        return Err(format!("{} caps for {} nodes", caps.len(), nodes.len()));
    }
    if let Some(c) = caps.iter().find(|&&c| c < min - slack || c > tdp + slack) {
        return Err(format!("cap {c} W outside [{min}, {tdp}]"));
    }
    let sum: f64 = caps.iter().sum();
    if sum > granted + slack * (caps.len() + 1) as f64 {
        return Err(format!("caps sum {sum} W exceeds the grant {granted} W"));
    }
    Ok(())
}

/// The client process: `perfbench client --addr A --seed S --seconds N
/// [--latency-rate-only]`. Prints one JSON line with every sample.
pub fn client_main(args: &[String]) -> ExitCode {
    let get = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let (Some(addr), Some(seed), Some(secs)) = (
        get("--addr"),
        get("--seed").and_then(|s| s.parse::<u64>().ok()),
        get("--seconds").and_then(|s| s.parse::<f64>().ok()),
    ) else {
        eprintln!("usage: perfbench client --addr A --seed S --seconds N [--latency-rate-only]");
        return ExitCode::from(2);
    };
    let rates: Vec<f64> = if args.iter().any(|a| a == "--latency-rate-only") {
        vec![RATES[LATENCY_RATE]]
    } else {
        RATES.to_vec()
    };
    match client(&addr, seed, secs, &rates) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench client: {e}");
            ExitCode::FAILURE
        }
    }
}

fn client(addr: &str, seed: u64, secs: f64, rates: &[f64]) -> std::io::Result<String> {
    let rounds = (((secs - WARMUP_S) / (rates.len() as f64 * (WINDOW_S + GAP_S))) as usize).max(1);
    let spec = PowerModel::new(quartz_spec())
        .expect("quartz spec is valid")
        .spec()
        .clone();
    let (min, tdp) = (
        spec.min_rapl_per_node().value(),
        spec.tdp_per_node().value(),
    );
    let admitted = "pmstack_pmstackd_submit_admitted_total";

    let mut scrape = Conn::open(addr)?;
    let (_, first) = scrape.exchange("GET", "/metrics", "")?;
    let admitted_before = prom_value(&first, admitted).unwrap_or(0.0);
    let stop = std::sync::atomic::AtomicBool::new(false);

    let (levels, mut problems, scrapes) = std::thread::scope(|sc| -> std::io::Result<_> {
        let scraper = sc.spawn(|| {
            // Due-time scrape latencies and the largest utilization seen.
            let mut lat = Vec::new();
            let mut util_max = 0.0f64;
            let start = Instant::now();
            let mut i = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Acquire) {
                let due = i as f64 / SCRAPE_HZ;
                let now = start.elapsed().as_secs_f64();
                if due > now {
                    std::thread::sleep(Duration::from_secs_f64((due - now).min(0.05)));
                    continue;
                }
                let Ok((status, body)) = scrape.exchange("GET", "/metrics", "") else {
                    return (lat, util_max, 1u64, scrape);
                };
                lat.push(if status == 200 {
                    (start.elapsed().as_secs_f64() - due) * 1e3
                } else {
                    f64::INFINITY
                });
                if let Some(u) = prom_value(&body, "pmstack_pmstackd_admission_utilization") {
                    util_max = util_max.max(u);
                }
                i += 1;
            }
            (lat, util_max, 0, scrape)
        });

        let mut conn = Conn::open(addr)?;
        let mut bodies = body_stream(seed);
        let mut problems: Vec<String> = Vec::new();
        let mut levels = Vec::new();
        let mut ok_total = 0usize;
        let plan: Vec<(usize, f64, f64, bool)> =
            std::iter::once((0, rates[rates.len() - 1], WARMUP_S, false))
                .chain((0..rounds).flat_map(|r| rates.iter().map(move |&x| (r, x, WINDOW_S, true))))
                .collect();
        for (round, rate, win, keep) in plan {
            let mut grants: Vec<String> = Vec::new();
            let level = drive(round, rate, win, |_| {
                let body = bodies.next().expect("endless stream");
                match conn.exchange("POST", "/submit", &body) {
                    Ok((200, resp)) => {
                        grants.push(resp);
                        200
                    }
                    Ok((status, _)) => status,
                    Err(_) => 0,
                }
            });
            ok_total += grants.len();
            for g in &grants {
                if let Err(e) = check_grant(g, min, tdp) {
                    problems.push(e);
                }
            }
            if keep {
                levels.push(level);
            }
            std::thread::sleep(Duration::from_secs_f64(GAP_S));
        }
        stop.store(true, std::sync::atomic::Ordering::Release);
        let (lat, util_max, scrape_errors, scrape) = scraper.join().expect("scrape thread");
        Ok((
            levels,
            problems,
            (lat, util_max, scrape_errors, scrape, ok_total),
        ))
    })?;
    let (scrape_lat, util_max, scrape_errors, mut scrape, ok_total) = scrapes;
    let (_, last) = scrape.exchange("GET", "/metrics", "")?;
    let admitted_delta = prom_value(&last, admitted).unwrap_or(0.0) - admitted_before;
    if admitted_delta != ok_total as f64 {
        problems.push(format!(
            "{ok_total} submits answered 200 but pmstackd.submit.admitted grew by {admitted_delta}"
        ));
    }
    if util_max > 1.0 {
        problems.push(format!("/metrics utilization {util_max} > 1"));
    }
    if scrape_errors > 0 {
        problems.push("a /metrics scrape failed".into());
    }

    let mut out = String::from("{\"levels\": [");
    for (k, l) in levels.iter().enumerate() {
        let list = |xs: Vec<f64>| {
            xs.iter()
                .map(|&x| json_number(x))
                .collect::<Vec<_>>()
                .join(",")
        };
        let col = |f: fn(&Sample) -> f64| list(l.samples.iter().map(f).collect());
        out.push_str(&format!(
            "{}{{\"round\": {}, \"rate\": {}, \"window\": {}, \"backlog\": {}, \"due\": [{}], \
             \"sent\": [{}], \"done\": [{}], \"status\": [{}]}}",
            if k == 0 { "" } else { ", " },
            l.round,
            json_number(l.rate),
            json_number(l.window),
            l.backlog,
            col(|s| s.due),
            col(|s| s.sent),
            col(|s| s.done),
            col(|s| f64::from(s.status)),
        ));
    }
    let problems: Vec<String> = problems
        .drain(..)
        .take(10)
        .map(|p| format!("\"{}\"", json::escape(&p)))
        .collect();
    out.push_str(&format!(
        "], \"scrape_ms\": [{}], \"admitted_delta\": {}, \"problems\": [{}]}}",
        scrape_lat
            .iter()
            .map(|&x| json_number(x))
            .collect::<Vec<_>>()
            .join(","),
        json_number(admitted_delta),
        problems.join(",")
    ));
    Ok(out)
}

/// The client's report, parsed back in the daemon's process.
struct ClientReport {
    levels: Vec<Level>,
    scrape_ms: Vec<f64>,
    admitted_delta: f64,
    problems: Vec<String>,
}

fn parse_report(line: &str) -> Result<ClientReport, String> {
    let v = json::parse(line.as_bytes())?;
    let arr = |v: &Value, k: &str| -> Result<Vec<f64>, String> {
        match v.get(k) {
            Some(Value::Arr(xs)) => xs
                .iter()
                .map(|x| x.as_f64().ok_or(format!("non-numeric {k}")))
                .collect(),
            _ => Err(format!("missing {k}")),
        }
    };
    let num = |v: &Value, k: &str| {
        v.get(k)
            .and_then(Value::as_f64)
            .ok_or(format!("missing {k}"))
    };
    let Some(Value::Arr(levels)) = v.get("levels") else {
        return Err("missing levels".into());
    };
    let levels = levels
        .iter()
        .map(|l| {
            let (due, sent, done, status) = (
                arr(l, "due")?,
                arr(l, "sent")?,
                arr(l, "done")?,
                arr(l, "status")?,
            );
            Ok(Level {
                round: num(l, "round")? as usize,
                rate: num(l, "rate")?,
                window: num(l, "window")?,
                backlog: num(l, "backlog")? as usize,
                samples: (0..due.len())
                    .map(|i| Sample {
                        due: due[i],
                        sent: sent[i],
                        done: done[i],
                        status: status[i] as u16,
                    })
                    .collect(),
            })
        })
        .collect::<Result<Vec<Level>, String>>()?;
    let problems = match v.get("problems") {
        Some(Value::Arr(ps)) => ps
            .iter()
            .filter_map(|p| p.as_str().map(str::to_string))
            .collect(),
        _ => Vec::new(),
    };
    Ok(ClientReport {
        levels,
        scrape_ms: arr(&v, "scrape_ms")?,
        admitted_delta: num(&v, "admitted_delta")?,
        problems,
    })
}

// ---------------------------------------------------------------- daemon

fn healthz(addr: &str) -> bool {
    Conn::open(addr)
        .and_then(|mut c| c.exchange("GET", "/healthz", ""))
        .is_ok_and(|(s, _)| s == 200)
}

/// Spawn a daemon and wait for its first `/healthz` 200; the seconds it
/// took, less the share the hypervisor stole.
fn spawn_daemon() -> Result<(Daemon, f64), String> {
    let watch = steal::Watch::start();
    let d = Daemon::spawn(daemon_config()).map_err(|e| format!("daemon spawn: {e}"))?;
    let addr = d.addr().to_string();
    loop {
        if healthz(&addr) {
            let (wall, share) = watch.stop();
            return Ok((d, wall * share));
        }
        if watch.stop().0 > 60.0 {
            return Err("daemon never answered /healthz".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Run the client process against `addr`; waits for it to exit.
fn run_client(
    addr: &str,
    seed: u64,
    secs: f64,
    latency_rate_only: bool,
) -> Result<ClientReport, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["client", "--addr", addr, "--seed", &seed.to_string()])
        .args(["--seconds", &secs.to_string()])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if latency_rate_only {
        cmd.arg("--latency-rate-only");
    }
    let out = cmd.output().map_err(|e| format!("client process: {e}"))?;
    if !out.status.success() {
        return Err(format!("client process exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    parse_report(text.lines().last().unwrap_or(""))
}

fn check_client(rep: &ClientReport, out: &mut Outcome) {
    for p in &rep.problems {
        out.check(false, || p.clone());
    }
    let sent: usize = rep.levels.iter().map(|l| l.samples.len()).sum();
    let ok: usize = rep
        .levels
        .iter()
        .map(|l| l.samples.iter().filter(|s| s.status == 200).count())
        .sum();
    out.attempted += sent as u64;
    out.failed += (sent - ok) as u64;
}

/// Run the workload.
pub fn run(seed: u64, seconds: u64, traced: bool) -> Outcome {
    if traced {
        return run_traced(seed, seconds);
    }
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut daemon = None;
    for _ in 0..SPAWNS {
        match spawn_daemon() {
            Ok((d, s)) => {
                setups.push(s);
                if let Some(old) = daemon.replace(d) {
                    Daemon::shutdown(old);
                }
            }
            Err(e) => {
                out.check(false, || e);
                return out;
            }
        }
    }
    let daemon = daemon.expect("spawned");
    let addr = daemon.addr().to_string();
    let ticks_before = Counters::now().count("pmstackd.fleet.ticks");
    let t = Instant::now();
    let rep = run_client(&addr, seed, seconds as f64, false);
    let wall = t.elapsed().as_secs_f64();
    let ticks = Counters::now().count("pmstackd.fleet.ticks") - ticks_before;
    {
        let adm = daemon.admission();
        let adm = adm.lock().expect("admission lock");
        let (reserved, budget) = (adm.ledger().reserved(), adm.ledger().system_budget());
        out.check(reserved <= budget + Watts(1e-6), || {
            format!("ledger reserved {reserved} of {budget}")
        });
    }
    daemon.shutdown();
    let rep = match rep {
        Ok(r) => r,
        Err(e) => {
            out.check(false, || e);
            return out;
        }
    };
    check_client(&rep, &mut out);
    report_levels(&rep, &mut out);

    let mid = window_percentiles(&rep.levels, RATES[LATENCY_RATE]);
    let p50: Vec<f64> = mid.iter().map(|w| w.0).collect();
    let p99: Vec<f64> = mid.iter().map(|w| w.1).collect();
    out.metric("setup_s", "s", median(&setups).expect("spawned"));
    out.metric("peak_rss_mb", "MB", crate::report::peak_rss_mb());
    out.metric(
        "node_iters_per_s",
        "1/s",
        (ticks as usize * HOSTS) as f64 / wall,
    );
    out.metric("op_ms", "ms", least(&p50).unwrap_or(f64::INFINITY));
    out.metric("ops_per_s", "1/s", max_rps(&rep.levels, P99_LIMIT_MS));
    out.notes.push(series("setup_s", &setups));
    out.notes.push(series("op_ms", &p50));
    out.notes.push(series("op_p99_ms", &p99));
    out.notes.push(format!(
        "scrape p50 {:.3} ms over {} scrapes",
        median(&rep.scrape_ms).unwrap_or(f64::NAN),
        rep.scrape_ms.len()
    ));
    out
}

fn report_levels(rep: &ClientReport, out: &mut Outcome) {
    out.notes.push(format!(
        "serve_submit: {HOSTS}-host fleet, open loop on one connection, p99 limit {P99_LIMIT_MS} ms, \
         latency from due time; /metrics admitted delta {}",
        rep.admitted_delta
    ));
    for l in &rep.levels {
        let lat = l.latencies_ms();
        let tail =
            reportable_tail(&lat).map_or("n/a".to_string(), |(p, v)| format!("p{p} {v:.3} ms"));
        out.notes.push(format!(
            "  round {} {:>6.0} req/s: {} sent, {} non-200, backlog {}, p50 {:.3} ms, p99 {:.3} ms, tail {tail}, \
             late p99 {:.3} ms, goodput {:.1}/s, sustained {}",
            l.round,
            l.rate,
            l.samples.len(),
            l.samples.iter().filter(|s| s.status != 200).count(),
            l.backlog,
            percentile(&lat, 50.0).unwrap_or(f64::NAN),
            percentile(&lat, 99.0).unwrap_or(f64::NAN),
            percentile(&l.late_ms(), 99.0).unwrap_or(f64::NAN),
            l.goodput(),
            l.sustained(P99_LIMIT_MS)
        ));
    }
}

// ---------------------------------------------------------------- traced

/// Requests in each in-process pass of the traced run.
const TRACED_REQUESTS: usize = 20_000;
/// Requests between step-loop ticks in-process: the latency rate times the
/// daemon's 20 ms tick.
const REQUESTS_PER_TICK: usize = 40;
/// Requests between `/metrics` renders: the latency rate over [`SCRAPE_HZ`].
const REQUESTS_PER_RENDER: usize = 200;

struct Expiring {
    job: JobId,
    nodes: Vec<NodeId>,
    expires: u64,
}

/// What one in-process pass decided: granted watts per request (as bits,
/// `u64::MAX` for a refusal) on the pmstackd path and through rm and core
/// directly, and the cap writes the ticks replayed.
struct Pass {
    granted_pmstackd: Vec<u64>,
    granted_direct: Vec<u64>,
    cap_ops: usize,
}

/// One in-process pass: the pmstackd path (parse, admit, serialize, tick
/// with the served fleet's writes and iteration, render) and the same
/// admissions decomposed into rm and core calls.
fn in_process(seed: u64) -> Pass {
    let cfg = daemon_config();
    let model = PowerModel::new(quartz_spec()).expect("quartz spec is valid");
    let eps: Vec<f64> = (0..HOSTS).map(pmstackd::fleet::eps_of).collect();
    let budget = Watts(cfg.budget_per_host_w * HOSTS as f64);
    let mut admission = Admission::new(
        model.clone(),
        eps.clone(),
        budget,
        cfg.job_ttl_ticks,
        cfg.max_nodes_per_job,
    );
    let mut platform = {
        let _s = trace::span("runtime.platform_new");
        let nodes: Vec<Node> = eps
            .iter()
            .enumerate()
            .map(|(i, &e)| Node::new(NodeId(i), &model, e).expect("eps is in range"))
            .collect();
        let mut p = JobPlatform::new(model.clone(), nodes, KernelConfig::balanced_ymm(8.0));
        p.set_fast_forward(true);
        p
    };
    let mut bufs = IterationBuffers::new();
    let bodies: Vec<String> = body_stream(seed).take(TRACED_REQUESTS).collect();
    let mut cap_ops = 0;

    // Pass A: the daemon's request path.
    let mut granted_a = Vec::with_capacity(bodies.len());
    for (i, body) in bodies.iter().enumerate() {
        let wire = format!(
            "POST /submit HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let req = {
            let _s = trace::span("pmstackd.parse");
            let r =
                pmstackd::http::read_request(&mut wire.as_bytes()).expect("well-formed request");
            let v = json::parse(&r.body).expect("well-formed body");
            SubmitRequest {
                app: AppClass::parse(v.get("app").and_then(Value::as_str).expect("app"))
                    .expect("class"),
                nodes: v.get("nodes").and_then(Value::as_f64).expect("nodes") as usize,
                policy: parse_policy(v.get("policy").and_then(Value::as_str).expect("policy"))
                    .expect("policy"),
                class: None,
            }
        };
        let grant = {
            let _s = trace::span("pmstackd.admit");
            admission.submit(&req)
        };
        {
            let _s = trace::span("pmstackd.serialize");
            let body = match &grant {
                Ok(g) => format!(
                    "{{\"job\":\"{}\",\"granted_w\":{:.1},\"caps_w\":[{}]}}\n",
                    g.job,
                    g.granted.value(),
                    g.caps
                        .iter()
                        .map(|c| format!("{:.1}", c.value()))
                        .collect::<Vec<_>>()
                        .join(",")
                ),
                Err(_) => "{\"error\":\"rejected\"}\n".to_string(),
            };
            let mut sink = Vec::with_capacity(256);
            pmstackd::http::Response::json(200, body)
                .write_to(&mut sink, false)
                .expect("write to memory");
        }
        granted_a.push(grant.map_or(u64::MAX, |g| g.granted.value().to_bits()));
        if (i + 1) % REQUESTS_PER_TICK == 0 {
            let _t = trace::span("pmstackd.fleet_tick");
            let ops = {
                let _s = trace::span("pmstackd.tick");
                admission.tick()
            };
            {
                let _s = trace::span("simhw.control_write.host");
                for (host, cap) in &ops {
                    let _ = platform.set_host_limit(*host, *cap);
                }
            }
            cap_ops += ops.len();
            let _s = trace::span("runtime.run_iteration_into");
            platform.run_iteration_into(&mut bufs);
        }
        if (i + 1) % REQUESTS_PER_RENDER == 0 {
            let _s = trace::span("obs.render");
            let snap = pmstack_obs::snapshot();
            std::hint::black_box(pmstack_obs::PrometheusExporter.render(&snap));
        }
    }

    // Pass B: the same admissions through rm and core directly.
    let spec = model.spec();
    let base = PolicyCtx {
        system_budget: budget,
        min_node: spec.min_rapl_per_node(),
        tdp_node: spec.tdp_per_node(),
    };
    let mut pool = NodePool::new(HOSTS);
    let mut ledger = PowerLedger::new(budget);
    let mut active: VecDeque<Expiring> = VecDeque::new();
    let mut tick = 0u64;
    let mut granted_b = Vec::with_capacity(bodies.len());
    for (i, body) in bodies.iter().enumerate() {
        let v = json::parse(body.as_bytes()).expect("well-formed body");
        let app =
            AppClass::parse(v.get("app").and_then(Value::as_str).expect("app")).expect("class");
        let n = v.get("nodes").and_then(Value::as_f64).expect("nodes") as usize;
        let policy =
            parse_policy(v.get("policy").and_then(Value::as_str).expect("policy")).expect("policy");
        let nodes = {
            let _s = trace::span("rm.pool_allocate");
            pool.allocate(n)
        };
        let granted = match nodes {
            None => u64::MAX,
            Some(nodes) => {
                let host_eps: Vec<f64> = nodes.iter().map(|n| eps[n.0]).collect();
                let chars = {
                    let _s = trace::span("core.characterize");
                    JobChar::analytic(app.kernel_config(), &model, &host_eps)
                };
                let ctx = PolicyCtx {
                    system_budget: ledger.available(),
                    ..base
                };
                let alloc = {
                    let _s = trace::span(layers::ALLOCATE_SPANS[layers::policy_index(policy)]);
                    by_kind(policy).allocate(&ctx, &[chars])
                };
                let want: Watts = alloc.jobs[0].iter().map(|&c| ctx.clamp(c)).sum();
                let job = JobId(i as u64 + 1);
                let res = {
                    let _s = trace::span("rm.ledger_reserve");
                    ledger.reserve_upto(job, want, ctx.min_node * n as f64)
                };
                match res {
                    Ok(g) => {
                        active.push_back(Expiring {
                            job,
                            nodes,
                            expires: tick + cfg.job_ttl_ticks,
                        });
                        g.value().to_bits()
                    }
                    Err(_) => {
                        let _s = trace::span("rm.pool_release");
                        pool.release(nodes);
                        u64::MAX
                    }
                }
            }
        };
        granted_b.push(granted);
        if (i + 1) % REQUESTS_PER_TICK == 0 {
            tick += 1;
            while active.front().is_some_and(|j| j.expires <= tick) {
                let j = active.pop_front().expect("front exists");
                {
                    let _s = trace::span("rm.ledger_release");
                    ledger.release(j.job);
                }
                let _s = trace::span("rm.pool_release");
                pool.release(j.nodes);
            }
        }
    }
    Pass {
        granted_pmstackd: granted_a,
        granted_direct: granted_b,
        cap_ops,
    }
}

fn run_traced(seed: u64, seconds: u64) -> Outcome {
    let mut out = Outcome::default();
    // The load generator's own lateness and the scrape latency, from a
    // client pass at the latency rate.
    let (mut submit_p99, mut late_p99, mut scrape_p50) = (0.0, 0.0, 0.0);
    let client = spawn_daemon().and_then(|(d, _)| {
        let rep = run_client(
            &d.addr().to_string(),
            seed,
            (seconds as f64 / 2.0).max(3.0),
            true,
        );
        d.shutdown();
        rep
    });
    match client {
        Ok(rep) => {
            check_client(&rep, &mut out);
            report_levels(&rep, &mut out);
            let lat: Vec<f64> = rep.levels.iter().flat_map(Level::latencies_ms).collect();
            submit_p99 = percentile(&lat, 99.0).unwrap_or(0.0);
            let late: Vec<f64> = rep.levels.iter().flat_map(Level::late_ms).collect();
            late_p99 = percentile(&late, 99.0).unwrap_or(0.0);
            scrape_p50 = median(&rep.scrape_ms).unwrap_or(0.0);
        }
        Err(e) => out.check(false, || e),
    }

    pmstack_obs::disable();
    let t = Instant::now();
    let plain = in_process(seed);
    let untraced = t.elapsed().as_secs_f64();
    out.check(plain.granted_pmstackd == plain.granted_direct, || {
        "rm/core decomposition grants differ from Admission::submit".into()
    });

    pmstack_obs::enable();
    trace::enable();
    let before = Counters::now();
    let traced = {
        let _root = trace::span("bench.serve_submit");
        in_process(seed)
    };
    trace::disable();
    let c = Counters::now().since(&before);
    pmstack_obs::disable();
    out.check(traced.granted_pmstackd == plain.granted_pmstackd, || {
        "the traced pass admitted differently".into()
    });
    for pass in [&plain, &traced] {
        out.attempted += pass.granted_pmstackd.len() as u64;
        out.failed += pass
            .granted_pmstackd
            .iter()
            .filter(|&&g| g == u64::MAX)
            .count() as u64;
    }
    let spans = trace::take();

    let mut m = BTreeMap::new();
    c.layer_metrics(&mut m);
    let mean_ns = |name: &str| {
        let (t, n) = trace::total(&spans, name);
        layers::ratio(t * 1e9, n as f64)
    };
    for (metric, span) in [
        ("pmstackd.parse_ns", "pmstackd.parse"),
        ("pmstackd.serialize_ns", "pmstackd.serialize"),
        ("pmstackd.admit_ns", "pmstackd.admit"),
        ("pmstackd.tick_ns", "pmstackd.tick"),
        ("core.characterize_ns", "core.characterize"),
        ("obs.render_ns", "obs.render"),
    ] {
        m.insert(metric.into(), mean_ns(span));
    }
    for (p, span) in POLICIES.iter().zip(layers::ALLOCATE_SPANS) {
        m.insert(format!("core.allocate_ns.{p}"), mean_ns(span));
    }
    let (reserve, n_reserve) = trace::total(&spans, "rm.ledger_reserve");
    let (release, _) = trace::total(&spans, "rm.ledger_release");
    m.insert(
        "rm.ledger_ns".into(),
        layers::ratio((reserve + release) * 1e9, n_reserve as f64),
    );
    let (alloc, n_alloc) = trace::total(&spans, "rm.pool_allocate");
    let (prel, _) = trace::total(&spans, "rm.pool_release");
    m.insert(
        "rm.pool_ns".into(),
        layers::ratio((alloc + prel) * 1e9, n_alloc as f64),
    );
    let (ticks, n_ticks) = trace::total(&spans, "pmstackd.fleet_tick");
    m.insert(
        "pmstackd.fleet_tick_ms".into(),
        layers::ratio(ticks * 1e3, n_ticks as f64),
    );
    let ops = traced.cap_ops;
    m.insert(
        "pmstackd.cap_ops_per_tick".into(),
        layers::ratio(ops as f64, n_ticks as f64),
    );
    let (writes, _) = trace::total(&spans, "simhw.control_write.host");
    m.insert(
        "simhw.control_write_ns".into(),
        layers::ratio(writes * 1e9, ops as f64),
    );
    m.insert("loadgen.submit_p99_ms".into(), submit_p99);
    m.insert("loadgen.late_p99_ms".into(), late_p99);
    m.insert("loadgen.scrape_p50_ms".into(), scrape_p50);
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
    out.notes
        .extend(layers::render_table("serve_submit", &st, untraced));
    crate::finish_traced(out, m, &spans, "serve_submit")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn level(rate: f64, lat_ms: &[f64], statuses: &[u16], backlog: usize) -> Level {
        Level {
            round: 0,
            rate,
            window: 1.0,
            backlog,
            samples: lat_ms
                .iter()
                .zip(statuses)
                .enumerate()
                .map(|(i, (&l, &status))| Sample {
                    due: i as f64 / rate,
                    sent: i as f64 / rate,
                    done: i as f64 / rate + l / 1e3,
                    status,
                })
                .collect(),
        }
    }

    #[test]
    fn a_stalled_response_delays_the_requests_behind_it() {
        // 1000 req/s; request 5 takes 30 ms. The requests due during the
        // stall are sent late and their due-time latency shows it.
        let lvl = drive(0, 1000.0, 0.06, |i| {
            if i == 5 {
                std::thread::sleep(Duration::from_millis(30));
            }
            200
        });
        let lat = lvl.latencies_ms();
        assert!(lat[5] >= 30.0, "stalled request {}", lat[5]);
        assert!(lat[6] >= 28.0, "request behind the stall {}", lat[6]);
        assert!(lat[20] >= 14.0, "request due mid-stall {}", lat[20]);
        // The generator itself was not late: every delayed send waited on
        // the previous response.
        let late = lvl.late_ms();
        assert!(late[6] < 5.0 && late[20] < 5.0, "{late:?}");
    }

    #[test]
    fn a_hopeless_rate_leaves_a_backlog() {
        let lvl = drive(0, 1000.0, 0.05, |_| {
            std::thread::sleep(Duration::from_millis(5));
            200
        });
        assert!(lvl.backlog > 30, "backlog {}", lvl.backlog);
        assert!(!lvl.sustained(10.0));
    }

    #[test]
    fn max_rps_is_the_highest_rate_meeting_the_limit() {
        let ok = vec![200; 100];
        let fast = vec![1.0; 100];
        let slow: Vec<f64> = (0..100).map(|i| if i < 95 { 1.0 } else { 50.0 }).collect();
        let levels = vec![
            level(500.0, &fast, &ok, 0),
            level(1000.0, &fast, &ok, 0),
            level(2000.0, &slow, &ok, 0),
        ];
        assert_eq!(max_sustained(&levels, 10.0).map(|l| l.rate), Some(1000.0));
        assert!((max_rps(&levels, 10.0) - 1000.0).abs() < 20.0);
        let w = window_percentiles(&levels, 2000.0);
        assert_eq!(w.len(), 1);
        assert!(
            (w[0].0 - 1.0).abs() < 1e-9 && (w[0].1 - 50.0).abs() < 1e-9,
            "{w:?}"
        );
        // A failed request is a miss: two 503s in 100 break p99.
        let mut failing = ok.clone();
        failing[3] = 503;
        failing[7] = 503;
        let levels = vec![
            level(500.0, &fast, &ok, 0),
            level(1000.0, &fast, &failing, 0),
        ];
        assert_eq!(max_sustained(&levels, 10.0).map(|l| l.rate), Some(500.0));
        // A growing backlog disqualifies a rate whose p99 looks fine.
        let levels = vec![level(500.0, &fast, &ok, 0), level(1000.0, &fast, &ok, 40)];
        assert_eq!(max_sustained(&levels, 10.0).map(|l| l.rate), Some(500.0));
        let levels = vec![level(500.0, &slow, &ok, 0)];
        assert!(max_sustained(&levels, 10.0).is_none());
        assert_eq!(max_rps(&levels, 10.0), 0.0);
    }

    #[test]
    fn grant_checks_catch_bad_caps() {
        let good = "{\"granted_w\":400.0,\"nodes\":[1,2],\"caps_w\":[200.0,200.0]}";
        assert!(check_grant(good, 100.0, 240.0).is_ok());
        let over = "{\"granted_w\":390.0,\"nodes\":[1,2],\"caps_w\":[200.0,200.0]}";
        assert!(check_grant(over, 100.0, 240.0).is_err());
        let high = "{\"granted_w\":500.0,\"nodes\":[1,2],\"caps_w\":[250.0,200.0]}";
        assert!(check_grant(high, 100.0, 240.0).is_err());
        let short = "{\"granted_w\":500.0,\"nodes\":[1,2],\"caps_w\":[200.0]}";
        assert!(check_grant(short, 100.0, 240.0).is_err());
    }

    #[test]
    fn body_stream_is_seeded_and_valid() {
        let a: Vec<String> = body_stream(3).take(50).collect();
        assert_eq!(a, body_stream(3).take(50).collect::<Vec<_>>());
        for b in &a {
            let v = json::parse(b.as_bytes()).unwrap();
            assert!(AppClass::parse(v.get("app").unwrap().as_str().unwrap()).is_some());
            assert!(parse_policy(v.get("policy").unwrap().as_str().unwrap()).is_some());
        }
    }
}
