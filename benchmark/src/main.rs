//! The chora benchmark: the paper suite analyzed cold in-process, and the
//! analysis daemon under an edit stream and on its hot path.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload suite-cold|serve-edit|serve-hot|all --seed N --seconds S --trace 0|1
//! ```
//!
//! One run measures one workload for `S` seconds in one fresh process and
//! prints a report, then, as its last line, one JSON object: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of a traced
//! run with `--trace 1`.  `--workload all` runs every workload both ways,
//! each in a child process of its own.  See `benchmark/README.md`.

mod cold;
mod fold;
mod latency;
mod layers;
mod oracle;
mod rng;
mod serve;
mod suite;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::Instant;

/// The end-to-end metrics, reported from untraced runs: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p99", "ms"),
    ("peak_rss_mb", "MiB"),
    ("paper_rows_matched", "count"),
];

/// The per-layer metrics, reported from traced runs: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("numeric.rational_small_ops", "count/op"),
    ("numeric.rational_heap_ops", "count/op"),
    ("numeric.bigint_heap_ops", "count/op"),
    ("numeric.promotions", "count/op"),
    ("logic.fm_rows_generated", "count/op"),
    ("logic.fm_rows_deduped", "count/op"),
    ("logic.fm_rows_dominated", "count/op"),
    ("logic.fm_imbert_skipped", "count/op"),
    ("logic.fm_early_unsat_exits", "count/op"),
    ("logic.fm_max_width", "count"),
    ("logic.fm_rows_kept_ratio", "ratio"),
    ("logic.fm_projections", "count/op"),
    ("logic.fm_self_ms", "ms/op"),
    ("recurrence.solves", "count/op"),
    ("recurrence.solve_self_ms", "ms/op"),
    ("core.summarize_ms", "ms/op"),
    ("core.solve_ms", "ms/op"),
    ("core.check_ms", "ms/op"),
    ("core.height_self_ms", "ms/op"),
    ("core.depth_self_ms", "ms/op"),
    ("core.check_self_ms", "ms/op"),
    ("core.summarize_self_ms", "ms/op"),
    ("core.height_self_share", "ratio"),
    ("core.components_analyzed", "count/op"),
    ("store.lookups", "count/op"),
    ("store.mem_hits", "count/op"),
    ("store.misses", "count/op"),
    ("store.writes", "count/op"),
    ("store.hit_ratio", "ratio"),
    ("store.lru_evictions", "count/op"),
    ("store.mem_bytes", "bytes"),
    ("store.load_self_ms", "ms/op"),
    ("store.store_self_ms", "ms/op"),
    ("ir.fingerprint_self_ms", "ms/op"),
    ("cli.parse_ms", "ms/op"),
    ("cli.parse_cache_hits", "count/op"),
    ("cli.parse_cache_misses", "count/op"),
    ("cli.response_cache_hits", "count/op"),
    ("cli.response_cache_misses", "count/op"),
    ("cli.response_cache_hit_ratio", "ratio"),
    ("server.requests", "count"),
    ("server.non_2xx", "count"),
    ("server.handler_ms", "ms/op"),
    ("server.wire_ms", "ms/op"),
    ("trace.overhead_ratio", "ratio"),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SuiteCold,
    ServeEdit,
    ServeHot,
}

const WORKLOADS: [(&str, Workload); 3] = [
    ("suite-cold", Workload::SuiteCold),
    ("serve-edit", Workload::ServeEdit),
    ("serve-hot", Workload::ServeHot),
];

#[derive(Clone, Debug)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// CPUs the process may use at start, before a workload pins it.
    pub nproc: usize,
}

impl Config {
    /// The seconds of the untraced window, and of the traced one (zero
    /// without `--trace 1`, which splits the run in halves).
    pub fn windows(&self) -> (f64, f64) {
        if self.trace {
            (self.seconds / 2.0, self.seconds / 2.0)
        } else {
            (self.seconds, 0.0)
        }
    }
}

const USAGE: &str = "usage: chora-benchmark --workload suite-cold|serve-edit|serve-hot|all \
                     [--seed N] [--seconds 1..60] [--trace 0|1]";

/// Parsed arguments; `workload` is `None` for `all`.
fn parse_args(args: &[String]) -> Result<(Option<Workload>, u64, u64, bool), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" if value == "all" => workload = Some(None),
            "--workload" => {
                let w = WORKLOADS
                    .iter()
                    .find(|(name, _)| *name == value)
                    .ok_or_else(|| format!("unknown workload `{value}`"))?;
                workload = Some(Some(w.1));
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or_else(|| format!("--seconds takes 1..60, got `{value}`"))?
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, seed, seconds, trace))
}

/// What one run found.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Check failures other than failed ops; any makes the run incorrect.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where and with what the numbers were measured.
fn provenance(cfg: &Config) -> String {
    let git = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        None
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "provenance: git={} nproc={} cpu=\"{cpu}\" rustc=\"{}\" seed={} run_seconds={} trace={}",
        git.as_deref().unwrap_or("unknown"),
        cfg.nproc,
        command_line("rustc", &["--version"])
            .as_deref()
            .unwrap_or("unknown"),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
    )
}

fn json_result(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn emit(cfg: &Config, name: &str, mut report: Report) {
    let table: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for (metric, unit) in table {
        match report.metrics.remove(metric) {
            Some(v) if v.is_finite() => metrics.push((metric.to_string(), v, *unit)),
            Some(v) => report.problems.push(format!("metric {metric} is {v}")),
            None => report
                .problems
                .push(format!("metric {metric} was not measured")),
        }
    }
    if let Some(extra) = report.metrics.keys().next() {
        report
            .problems
            .push(format!("metric {extra} is not in the metric table"));
    }
    let correct = report.problems.is_empty() && report.failed == 0;
    println!("== chora-benchmark {name}, trace {}", u8::from(cfg.trace));
    println!("{}", provenance(cfg));
    for line in &report.lines {
        println!("{line}");
    }
    println!(
        "ops: {} attempted, {} failed, failed_ops_ratio {}",
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    for problem in &report.problems {
        println!("CHECK FAILED: {problem}");
    }
    for (metric, value, unit) in &metrics {
        println!("{metric:<30} {value:>16.6} {unit}");
    }
    println!(
        "{}",
        json_result(correct, report.attempted, report.failed, &metrics)
    );
}

/// `--workload all`: every workload untraced then traced, each run in a
/// fresh child process (so `peak_rss_mb` is the run's own), then one
/// combined result whose metric names are prefixed by the workload.
fn run_all(seed: u64, seconds: u64) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate the benchmark executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    for (name, _) in WORKLOADS {
        for (trace, table) in [("0", &END_TO_END[..]), ("1", &PER_LAYER[..])] {
            let seed = seed.to_string();
            let seconds = seconds.to_string();
            let args = [
                "--workload",
                name,
                "--seed",
                &seed,
                "--seconds",
                &seconds,
                "--trace",
                trace,
            ];
            let out = match Command::new(&exe).args(args).output() {
                Ok(out) if out.status.success() => out,
                Ok(out) => {
                    eprintln!("error: {name} trace {trace} exited with {}", out.status);
                    eprint!("{}", String::from_utf8_lossy(&out.stderr));
                    return ExitCode::FAILURE;
                }
                Err(e) => {
                    eprintln!("error: cannot run {name}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let text = String::from_utf8_lossy(&out.stdout);
            let mut lines: Vec<&str> = text.lines().collect();
            let result = lines.pop().unwrap_or("");
            for line in lines {
                println!("{line}");
            }
            correct &= result.contains("\"correct\": true");
            let field = |key: &str| -> u64 {
                result
                    .split(&format!("\"{key}\": "))
                    .nth(1)
                    .and_then(|rest| rest.split([',', '}']).next())
                    .and_then(|v| v.trim().parse().ok())
                    .unwrap_or(0)
            };
            attempted += field("attempted");
            failed += field("failed");
            for (metric, unit) in table {
                let value = result
                    .split(&format!("\"{metric}\": {{\"value\": "))
                    .nth(1)
                    .and_then(|rest| rest.split(',').next())
                    .and_then(|v| v.parse().ok());
                match value {
                    Some(v) => metrics.push((format!("{name}.{metric}"), v, unit)),
                    None => correct = false,
                }
            }
        }
    }
    println!("{}", json_result(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, seed, seconds, trace) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = workload else {
        return run_all(seed, seconds);
    };
    let cfg = Config {
        workload,
        seed,
        seconds: seconds as f64,
        trace,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let name = WORKLOADS
        .iter()
        .find(|(_, w)| *w == workload)
        .map_or("?", |w| w.0);
    let report = match workload {
        Workload::SuiteCold => cold::run(&cfg, process_start),
        Workload::ServeEdit | Workload::ServeHot => serve::run(&cfg, process_start),
    };
    match report {
        Ok(report) => {
            emit(&cfg, name, report);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {name}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The median of a non-empty sample.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists exactly these metrics.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"unit\":").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists other metrics"
        );
        for (name, _) in WORKLOADS {
            assert!(
                json.contains(&format!("\"name\": \"{name}\"")),
                "workload {name}"
            );
        }
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        assert_eq!(
            parse_args(&args("--workload serve-hot --seed 9 --seconds 3 --trace 1")),
            Ok((Some(Workload::ServeHot), 9, 3, true))
        );
        assert_eq!(
            parse_args(&args("--workload all")),
            Ok((None, 1, 10, false))
        );
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload suite-cold --seconds 0")).is_err());
        assert!(parse_args(&args("--seed 1")).is_err());
        assert!(parse_args(&args("--workload suite-cold --trace 2")).is_err());
    }
}
