//! The `chora` binary: argument parsing and dispatch.

use chora_cli::{
    analyze, bench, complexity_cmd, print_cmd, request, serve_cmd, BenchOptions, FileOptions,
    RequestOptions, ServeOptions,
};
use std::process::ExitCode;

const USAGE: &str = "\
chora — CHORA resource-bound analyzer (PLDI 2020 reproduction)

USAGE:
    chora <SUBCOMMAND> [OPTIONS]

SUBCOMMANDS:
    analyze FILE      Analyze a .imp program: procedure summaries, bound
                      facts, depth bounds, and assertion verdicts
    complexity FILE   Extract a closed-form cost bound and asymptotic class
    bench [DIR]       Rerun the built-in paper benchmark suites (and time
                      every .imp program under DIR, when given)
    print FILE        Parse a .imp program and pretty-print it back
    serve             Long-running analysis daemon: POST .imp sources to
                      /v1/analyze and /v1/complexity over keep-alive HTTP
                      and get the exact --json documents back, served from
                      a resident tiered (memory + disk) summary store plus
                      parsed-program and rendered-response caches;
                      /v1/batch analyzes a JSON array of programs in one
                      round trip
    request ENDPOINT [FILE...]
                      One round-trip against a running `chora serve`:
                      analyze, complexity (send one FILE), batch (send any
                      number of FILEs in one request), healthz, stats,
                      shutdown (no FILE)

FILE may be `-` to read the program from stdin (analyze/complexity/print/
request).

OPTIONS (analyze / complexity / bench):
    --json            Emit machine-readable JSON
    --jobs N          Summarize independent call-graph components on N
                      worker threads (default 1; 0 = one per core).  The
                      output is identical for every N
    --cache-dir PATH  Persistent summary cache: procedure summaries are
                      stored content-addressed by a structural hash of the
                      procedure and its callee cone, so re-analyses of a
                      lightly-edited program only re-summarize the changed
                      cone.  Cache counters (hits/misses/evictions) print
                      on stderr; stdout is byte-identical with and without
                      the cache.  `bench` runs each program cold and warm
    --no-cache        Ignore --cache-dir (force a full analysis)
    --quiet           Suppress the stderr cache/timing chatter
    --proc NAME       Procedure to report on (default: all for analyze;
                      sole procedure or main for complexity)
    --trace-out FILE  Record a span trace of the run (parse, summarize,
                      solve, FM projection, cache, scheduler lanes) and
                      write Chrome trace-event JSON to FILE — open it in
                      chrome://tracing or Perfetto.  Stdout is unchanged

OPTIONS (complexity only):
    --cost VAR        Cost counter variable (default: global `cost`)
    --size PARAM      Size parameter (default: first parameter of the proc)

OPTIONS (bench):
    --filter SUBSTR   Only run benchmarks whose name contains SUBSTR
    --server          Replay DIR's programs through a live in-process
                      daemon over HTTP and report req/s cold vs warm

OPTIONS (serve):
    --addr HOST:PORT  Bind address (default 127.0.0.1:7557)
    --jobs N          Request worker threads (default 0 = one per core)
    --cache-dir PATH  Disk tier of the summary store (memory-only without)
    --cache-cap-bytes BYTES[K|M|G]
                      Store byte budget (default 64M; 0 = unbounded)
    --cache-max-age SECS[s|m|h]
                      Evict entries older than this (default: never)
    --quiet           Suppress per-request logging
    --log-format text|json
                      Per-request log line shape (default text)
    --slow-request-ms MS
                      Log requests at or past MS even under --quiet,
                      marked as slow

OPTIONS (request):
    --addr HOST:PORT  Daemon to contact (default 127.0.0.1:7557)
    --jobs/--proc/--cost/--size
                      Forwarded to the endpoint as query parameters
    --quiet           Accepted for scripting symmetry (request has no
                      stderr chatter of its own)

EXAMPLES:
    chora complexity examples/programs/hanoi.imp --json
    chora analyze examples/programs/merge-sort.imp --jobs 4
    chora analyze - < examples/programs/height.imp
    chora bench --json --cache-dir /tmp/chora-cache examples/programs
    chora serve --addr 127.0.0.1:7557 --jobs 8 --cache-dir /tmp/chora-cache
    chora request analyze examples/programs/hanoi.imp
    chora request batch examples/programs/*.imp
    chora bench --server --json examples/programs
";

fn take_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    if let Some(i) = args.iter().position(|a| a == flag) {
        if i + 1 >= args.len() {
            return Err(format!("{flag} requires a value"));
        }
        let value = args.remove(i + 1);
        args.remove(i);
        Ok(Some(value))
    } else {
        Ok(None)
    }
}

fn take_jobs(args: &mut Vec<String>) -> Result<usize, String> {
    match take_value(args, "--jobs")? {
        None => Ok(1),
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| format!("--jobs expects a non-negative integer, got `{v}`")),
    }
}

fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(i) = args.iter().position(|a| a == flag) {
        args.remove(i);
        true
    } else {
        false
    }
}

/// Fails on the first argument that looks like a flag: every flag the
/// subcommand knows has been taken out by now, so a leftover `--...` is
/// unknown, not a FILE.
fn reject_unknown_flags(args: &[String]) -> Result<(), String> {
    match args.iter().find(|a| a.starts_with("--")) {
        Some(flag) => Err(format!("unknown flag {flag}; run `chora --help`")),
        None => Ok(()),
    }
}

fn run() -> Result<(String, i32), String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" || args[0] == "help" {
        return Ok((USAGE.to_string(), 0));
    }
    let subcommand = args.remove(0);
    match subcommand.as_str() {
        "analyze" | "complexity" => {
            let json = take_flag(&mut args, "--json");
            let jobs = take_jobs(&mut args)?;
            let procedure = take_value(&mut args, "--proc")?;
            let cost_var = take_value(&mut args, "--cost")?;
            let size_param = take_value(&mut args, "--size")?;
            let cache_dir = take_value(&mut args, "--cache-dir")?;
            let no_cache = take_flag(&mut args, "--no-cache");
            let quiet = take_flag(&mut args, "--quiet");
            let trace_out = take_value(&mut args, "--trace-out")?;
            if subcommand == "analyze" && (cost_var.is_some() || size_param.is_some()) {
                return Err("--cost and --size only apply to `chora complexity`".to_string());
            }
            reject_unknown_flags(&args)?;
            let [path] = args.as_slice() else {
                return Err(format!(
                    "`chora {subcommand}` expects exactly one FILE argument; \
                     run `chora --help`"
                ));
            };
            let opts = FileOptions {
                path: path.clone(),
                json,
                procedure,
                cost_var,
                size_param,
                jobs,
                cache_dir,
                no_cache,
                quiet,
                trace_out,
            };
            let result = if subcommand == "analyze" {
                analyze(&opts)
            } else {
                complexity_cmd(&opts)
            };
            result.map_err(|e| e.to_string())
        }
        "bench" => {
            let json = take_flag(&mut args, "--json");
            let jobs = take_jobs(&mut args)?;
            let filter = take_value(&mut args, "--filter")?;
            let cache_dir = take_value(&mut args, "--cache-dir")?;
            let no_cache = take_flag(&mut args, "--no-cache");
            let server = take_flag(&mut args, "--server");
            let trace_out = take_value(&mut args, "--trace-out")?;
            reject_unknown_flags(&args)?;
            let programs_dir = match args.as_slice() {
                [] => None,
                [dir] => Some(dir.clone()),
                _ => return Err(format!("unexpected arguments: {}", args.join(" "))),
            };
            bench(&BenchOptions {
                json,
                filter,
                jobs,
                programs_dir,
                cache_dir,
                no_cache,
                server,
                trace_out,
            })
            .map_err(|e| e.to_string())
        }
        "print" => {
            reject_unknown_flags(&args)?;
            let [path] = args.as_slice() else {
                return Err("`chora print` expects exactly one FILE argument".to_string());
            };
            print_cmd(path).map_err(|e| e.to_string())
        }
        "serve" => {
            let addr =
                take_value(&mut args, "--addr")?.unwrap_or_else(|| "127.0.0.1:7557".to_string());
            let jobs = match take_value(&mut args, "--jobs")? {
                None => 0,
                Some(v) => v
                    .parse::<usize>()
                    .map_err(|_| format!("--jobs expects a non-negative integer, got `{v}`"))?,
            };
            let cache_dir = take_value(&mut args, "--cache-dir")?;
            let cache_cap_bytes = match take_value(&mut args, "--cache-cap-bytes")? {
                None => None,
                Some(v) => Some(chora_cli::serve::parse_cap_bytes(&v)?),
            };
            let cache_max_age = match take_value(&mut args, "--cache-max-age")? {
                None => None,
                Some(v) => Some(chora_cli::serve::parse_max_age(&v)?),
            };
            let quiet = take_flag(&mut args, "--quiet");
            let log_format = match take_value(&mut args, "--log-format")? {
                None => chora_server::LogFormat::Text,
                Some(v) => v.parse::<chora_server::LogFormat>()?,
            };
            let slow_request_ms = match take_value(&mut args, "--slow-request-ms")? {
                None => None,
                Some(v) => Some(v.parse::<f64>().map_err(|_| {
                    format!("--slow-request-ms expects a number of milliseconds, got `{v}`")
                })?),
            };
            reject_unknown_flags(&args)?;
            if !args.is_empty() {
                return Err(format!("unexpected arguments: {}", args.join(" ")));
            }
            serve_cmd(&ServeOptions {
                addr,
                jobs,
                cache_dir,
                cache_cap_bytes,
                cache_max_age,
                quiet,
                log_format,
                slow_request_ms,
            })
            .map_err(|e| e.to_string())
        }
        "request" => {
            let addr =
                take_value(&mut args, "--addr")?.unwrap_or_else(|| "127.0.0.1:7557".to_string());
            let jobs = match take_value(&mut args, "--jobs")? {
                None => None,
                Some(v) => Some(
                    v.parse::<usize>()
                        .map_err(|_| format!("--jobs expects a non-negative integer, got `{v}`"))?,
                ),
            };
            let procedure = take_value(&mut args, "--proc")?;
            let cost_var = take_value(&mut args, "--cost")?;
            let size_param = take_value(&mut args, "--size")?;
            // Accepted for scripting symmetry with the other subcommands;
            // `request` has no stderr chatter of its own to silence.
            let _ = take_flag(&mut args, "--quiet");
            reject_unknown_flags(&args)?;
            if args.is_empty() {
                return Err(
                    "`chora request` expects ENDPOINT [FILE...]; run `chora --help`".to_string(),
                );
            }
            let endpoint = args.remove(0);
            request(&RequestOptions {
                endpoint,
                files: args,
                addr,
                jobs,
                procedure,
                cost_var,
                size_param,
            })
            .map_err(|e| e.to_string())
        }
        other => Err(format!("unknown subcommand `{other}`; run `chora --help`")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok((output, code)) => {
            print!("{output}");
            ExitCode::from(code as u8)
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}
