//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <paper_sweep|megafleet|serve_submit> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench record <paper_sweep|megafleet>
//! ```
//!
//! Run from the root of a checkout. `--trace 0` prints every end-to-end
//! metric; `--trace 1` runs the workload's traced variant and prints every
//! per-layer metric and the per-layer self-time table. The last line of
//! standard output is the result object; the lines before it are the host
//! fingerprint and human-readable notes. `record` rewrites the reference
//! statistics the correctness checks compare against. See README.md.

mod fleet;
mod layers;
mod reference;
mod report;
mod serve;
mod stats;
mod steal;
mod sweep;
mod trace;

use report::Outcome;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// The workloads, as named in `BENCHMARK.json`.
const WORKLOADS: [&str; 3] = ["paper_sweep", "megafleet", "serve_submit"];

/// The end-to-end metrics every `--trace 0` run prints, in print order.
const E2E: [&str; 5] = [
    "setup_s",
    "peak_rss_mb",
    "node_iters_per_s",
    "op_ms",
    "ops_per_s",
];

/// Where traced runs write their spans, relative to the checkout.
const OUT_DIR: &str = ".bench_out";

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         perfbench record <paper_sweep|megafleet>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let num = |flag: &str, v: String| {
        v.parse::<u64>()
            .map_err(|_| format!("{flag} must be a whole number, got {v:?}"))
    };
    let seed = num("--seed", get("--seed")?)?;
    let seconds = num("--seconds", get("--seconds")?)?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be in 1..=600".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t:?}")),
    };
    if argv.len() != 8 {
        return Err("unexpected arguments".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Fill a traced run's metrics from the per-layer catalog (0 for a layer
/// the workload never reaches) and write its spans out.
fn finish_traced(
    mut out: Outcome,
    values: BTreeMap<String, f64>,
    spans: &[trace::Span],
    workload: &str,
) -> Outcome {
    for (name, unit) in layers::per_layer_catalog() {
        let v = values.get(&name).copied().unwrap_or(0.0);
        out.metric(name, unit, v);
    }
    let path = format!("{OUT_DIR}/spans-{workload}.json");
    match std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, trace::to_json(spans)))
    {
        Ok(()) => out
            .notes
            .push(format!("{} spans written to {path}", spans.len())),
        Err(e) => out.notes.push(format!("could not write {path}: {e}")),
    }
    out
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("record") => return record(argv.get(1).map(String::as_str)),
        Some("client") => return serve::client_main(&argv[1..]),
        _ => {}
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return usage();
        }
    };
    // The benchmark reads its references from the checkout it runs in.
    if !reference::path("paper_sweep").exists() {
        eprintln!("perfbench: run from the root of the repository checkout");
        return ExitCode::from(2);
    }
    let recorder = match (args.workload.as_str(), args.trace) {
        (_, true) => "on (traced run)",
        ("serve_submit", false) => "on (Daemon::spawn always enables it)",
        ("megafleet", false) => "off (on only for the untimed churn check)",
        (_, false) => "off",
    };
    println!(
        "fingerprint: {}",
        report::fingerprint(&args.workload, args.seed, args.trace, recorder)
    );
    let mut out = match args.workload.as_str() {
        "paper_sweep" => sweep::run(args.seed, args.seconds, args.trace),
        "megafleet" => fleet::run(args.seed, args.seconds, args.trace),
        _ => serve::run(args.seed, args.seconds, args.trace),
    };
    if !args.trace && out.violations.is_empty() {
        let names: Vec<String> = out.metrics.iter().map(|m| m.name.clone()).collect();
        out.check(names == E2E, || {
            format!("printed metrics {names:?}, expected {E2E:?}")
        });
    }
    for n in &out.notes {
        println!("{n}");
    }
    for v in out.violations.iter().take(20) {
        println!("CHECK FAILED: {v}");
    }
    // A failed check is reported through `"correct": false`; the exit code
    // says only that the benchmark itself ran to its result.
    println!("{}", out.result_line());
    ExitCode::SUCCESS
}

fn record(workload: Option<&str>) -> ExitCode {
    let (lines, header) = match workload {
        Some("paper_sweep") => (
            sweep::record(),
            format!(
                "paper_sweep reference: key = policy/clean or policy/<jitter pool index>;\n\
                 values = mean elapsed bits, total energy bits, per-job digest.\n\
                 {} pool entries.",
                sweep::JITTER_POOL
            ),
        ),
        Some("megafleet") => (
            fleet::record(),
            "megafleet reference: key = input variant;\n\
             values = total energy bits, settled_under_agent, host energy digest."
                .to_string(),
        ),
        _ => return usage(),
    };
    let w = workload.expect("matched above");
    match reference::write(w, &header, &lines) {
        Ok(()) => {
            println!(
                "wrote {} lines to {}",
                lines.len(),
                reference::path(w).display()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse(&argv(
            "--workload megafleet --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("megafleet", 7, 20, true)
        );
        assert!(parse(&argv("--workload nope --seed 7 --seconds 20 --trace 1")).is_err());
        assert!(parse(&argv(
            "--workload megafleet --seed x --seconds 20 --trace 1"
        ))
        .is_err());
        assert!(parse(&argv(
            "--workload megafleet --seed 7 --seconds 20 --trace 2"
        ))
        .is_err());
        assert!(parse(&argv("--workload megafleet --seed 7 --seconds 20")).is_err());
    }

    /// `BENCHMARK.json` names exactly the workloads and metrics this
    /// binary prints.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = pmstackd::json::parse(text.as_bytes()).expect("valid JSON");
        let names = |key: &str| -> Vec<String> {
            match doc.get(key) {
                Some(pmstackd::json::Value::Arr(items)) => items
                    .iter()
                    .map(|m| {
                        m.get("name")
                            .and_then(|n| n.as_str())
                            .expect("name")
                            .to_string()
                    })
                    .collect(),
                _ => panic!("{key} is not an array"),
            }
        };
        assert_eq!(names("workloads"), WORKLOADS);
        let catalog: Vec<String> = layers::per_layer_catalog()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(names("per_layer"), catalog);
        assert_eq!(names("end_to_end"), E2E);
    }
}
