//! The polygpu benchmark. See `README.md` in this directory.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <eval-paper|track-cyclic5|serve-open|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a readable report, then one JSON line as the last line of
//! standard output. Exits 0 when every correctness gate passes, 1 when
//! one fails (after printing the JSON, with `"correct": false`), and 2
//! on a usage error (without printing a result).

mod catalog;
mod cpu;
mod eval_paper;
mod layers;
mod report;
mod rng;
mod serve_open;
mod spans;
mod stats;
mod track;

use report::{json_line, Report};
use std::path::Path;
use std::process::ExitCode;

/// One run's settings, from the command line.
pub struct Config {
    pub seed: u64,
    /// Measurement budget: work continues while another unit of it
    /// fits; at least one unit always runs.
    pub seconds: f64,
    /// Traced run: per-layer metrics and span exports.
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = ["eval-paper", "track-cyclic5", "serve-open"];

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse(args: &[String]) -> Result<(String, Config), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok((
        workload,
        Config {
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
        },
    ))
}

fn run_one(workload: &str, cfg: &Config) -> Report {
    match workload {
        "eval-paper" => eval_paper::run(cfg),
        "track-cyclic5" => track::run(cfg),
        "serve-open" => serve_open::run(cfg),
        other => unreachable!("workload {other} was validated"),
    }
}

/// Write span exports and print the readable report; return the JSON
/// metrics of this workload (`suffix` is appended to each name).
fn emit(
    workload: &str,
    cfg: &Config,
    report: &mut Report,
    suffix: &str,
) -> Vec<(String, f64, &'static str)> {
    if cfg.trace {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        match report.write_traces(&dir, &format!("{workload}-seed{}", cfg.seed)) {
            Ok(files) => files.iter().for_each(|f| println!("trace written: {f}")),
            Err(e) => report.gate("trace-export", false, format!("writing traces failed: {e}")),
        }
    }
    let metrics: Vec<(String, f64, &'static str)> = report
        .json_metrics(cfg.trace)
        .into_iter()
        .map(|(d, v)| (format!("{}{suffix}", d.name), v, d.unit))
        .collect();
    for (name, v, _) in &metrics {
        if !v.is_finite() {
            report.gate("finite-metrics", false, format!("{name} = {v}"));
        }
    }
    print!("{}", report.render(workload, cfg.trace));
    metrics
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, cfg) = match parse(&args) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let selected: Vec<&str> = if workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![workload.as_str()]
    };
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics = Vec::new();
    for w in &selected {
        let mut report = run_one(w, &cfg);
        let suffix = if selected.len() > 1 {
            format!("@{w}")
        } else {
            String::new()
        };
        let m = emit(w, &cfg, &mut report, &suffix);
        correct &= report.correct();
        attempted += report.attempted;
        failed += report.failed;
        metrics.extend(m.into_iter().filter(|(_, v, _)| v.is_finite()));
    }
    println!("{}", json_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_documented_flags() {
        let (w, c) = parse(&args(
            "--workload serve-open --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (w.as_str(), c.seed, c.seconds, c.trace),
            ("serve-open", 3, 10.0, true)
        );
    }

    #[test]
    fn rejects_bad_usage() {
        assert!(parse(&args("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse(&args("--workload all --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse(&args("--workload all --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse(&args("--workload all --seed 1 --seconds 1")).is_err());
        assert!(parse(&args("--workload all --seed")).is_err());
    }
}
