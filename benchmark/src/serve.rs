//! `serve-edit` and `serve-hot`: an in-process `chora serve` with its
//! default memory-only store, driven by one client over one keep-alive
//! connection, closed loop.  An op is one `POST /v1/analyze` answered.

use crate::latency::{Latency, PassClock};
use crate::layers::{self, ServeCounters, TracedLayers, Work};
use crate::oracle;
use crate::suite::{self, Row, Stream};
use crate::{median, Config, Report, Workload};
use chora_cli::{spawn_server, AnalysisService, ServeOptions};
use chora_core::Analyzer;
use chora_server::client::Client;
use chora_server::ServerHandle;
use chora_telemetry::trace;
use std::borrow::Cow;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-up repetitions (each starts a daemon and warms it); `setup_s` is
/// their median.  The first runs from process start to the first timed
/// op; the others run after the timed windows, so their daemons do not
/// change what the windows measure (the process's memory above all).
const SETUP_REPS: usize = 5;

/// `serve-edit` responses per row checked against a reference report of
/// their own source; every other response of the row is checked against
/// the first of them (see [`Serve::check`]).
const LITERAL_PER_ROW: usize = 2;

/// Failed ops reported by name; the rest are only counted.
const SHOWN_FAILURES: usize = 5;

struct Daemon {
    handle: ServerHandle,
    service: Arc<AnalysisService>,
    client: Client,
}

impl Daemon {
    fn start() -> Result<Daemon, String> {
        let opts = ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            // One caller on one connection, and one CPU (see
            // [`pin_to_one_cpu`]): one request worker.
            jobs: 1,
            quiet: true,
            ..ServeOptions::default()
        };
        let (handle, service) = spawn_server(&opts).map_err(|e| e.to_string())?;
        let client = Client::new(handle.addr().to_string());
        Ok(Daemon {
            handle,
            service,
            client,
        })
    }

    fn shutdown(mut self) {
        self.client.close();
        self.handle.shutdown();
    }
}

const ANALYZE: &str = "/v1/analyze?file=";

fn analyze_path(name: &str) -> String {
    format!("{ANALYZE}{name}")
}

/// The display name and source of request `id` on `row` (`None`: the
/// warm-up request).
fn name_and_source<'a>(
    cfg: &Config,
    rows: &'a [Row],
    id: Option<u64>,
    row: usize,
) -> (String, Cow<'a, str>) {
    let row = &rows[row];
    match id {
        Some(id) if cfg.workload == Workload::ServeEdit => (
            suite::edit_name(row, id),
            Cow::Owned(suite::edit_source(row, cfg.seed, id)),
        ),
        _ => (suite::plain_name(row), Cow::Borrowed(row.source.as_str())),
    }
}

/// A response whose check needs a reference report.
struct Pending {
    /// Request id, or `None` for a warm-up request.
    id: Option<u64>,
    row: usize,
    hash: oracle::ReportHash,
}

struct Window {
    ops: u64,
    seconds: f64,
    passes: PassClock,
    /// Time spent in the benchmark's own `parse_program` calls.
    parse_seconds: f64,
    /// Time spent in `Client::post`.
    post_seconds: f64,
}

struct Serve<'a> {
    cfg: &'a Config,
    rows: &'a [Row],
    daemon: Daemon,
    stream: Stream,
    /// Warm-up response of each row: on `serve-hot` every timed response
    /// must equal it byte for byte.
    warm: Vec<String>,
    paths: Vec<String>,
    latency: Latency,
    /// `peak_rss_mb`, once [`layers::RSS_AFTER_OPS`] untraced ops ran.
    peak_rss: Option<f64>,
    pending: Vec<Pending>,
    ops_per_row: Vec<u64>,
    failed: u64,
    failures: Vec<String>,
    problems: Vec<String>,
}

impl Serve<'_> {
    fn window(&mut self, seconds: f64, traced: bool) -> Window {
        let (mut ops, mut parse_seconds, mut post_seconds) = (0u64, 0.0, 0.0);
        let mut passes = PassClock::new(self.rows.len());
        let started = Instant::now();
        let deadline = started + Duration::from_secs_f64(seconds);
        while Instant::now() < deadline {
            let request = self.stream.next().expect("the stream is endless");
            passes.op_starts(request.id);
            let (path, source) = match self.cfg.workload {
                Workload::ServeEdit => {
                    let (name, source) =
                        name_and_source(self.cfg, self.rows, Some(request.id), request.row);
                    (Cow::Owned(analyze_path(&name)), source)
                }
                _ => (
                    Cow::Borrowed(self.paths[request.row].as_str()),
                    Cow::Borrowed(self.rows[request.row].source.as_str()),
                ),
            };
            if traced {
                let parse_started = Instant::now();
                let parsed = {
                    let _span = trace::span("bench", "parse_program");
                    chora_cli::parse_program(&source)
                };
                parse_seconds += parse_started.elapsed().as_secs_f64();
                if parsed.is_err() && self.problems.len() < SHOWN_FAILURES {
                    self.problems
                        .push(format!("request {} does not parse", request.id));
                }
            }
            let op_started = Instant::now();
            let reply = {
                let _span = trace::span("bench", "client_post");
                self.daemon.client.post(&path, &source)
            };
            let elapsed = op_started.elapsed();
            post_seconds += elapsed.as_secs_f64();
            if !traced {
                self.latency.record(elapsed);
            }
            passes.op_ends(request.id);
            ops += 1;
            if !traced && ops == layers::RSS_AFTER_OPS {
                self.peak_rss = Some(layers::peak_rss_mb());
            }
            self.ops_per_row[request.row] += 1;
            let failure = match reply {
                Ok((200, body)) if body == self.warm[request.row] => None,
                Ok((200, body)) if !oracle::names_file(&body, &path[ANALYZE.len()..]) => {
                    Some(format!("{path}: the report names another file"))
                }
                Ok((200, body)) => {
                    self.pending.push(Pending {
                        id: Some(request.id),
                        row: request.row,
                        hash: oracle::report_hash(&body),
                    });
                    None
                }
                Ok((status, body)) => Some(format!("{path}: HTTP {status}: {}", body.trim())),
                Err(e) => Some(format!("{path}: {e}")),
            };
            if let Some(failure) = failure {
                self.failed += 1;
                if self.failures.len() < SHOWN_FAILURES {
                    self.failures.push(failure);
                }
            }
        }
        Window {
            ops,
            seconds: started.elapsed().as_secs_f64(),
            passes,
            parse_seconds,
            post_seconds,
        }
    }

    /// Checks every pending response against the report
    /// `chora analyze --json` renders for the same source with no store,
    /// timing aside.  Returns the timed ops that failed, and the problems.
    ///
    /// On `serve-edit` that reference is computed for the warm-up and for
    /// the first [`LITERAL_PER_ROW`] requests of each row; every other
    /// response of a row must equal the row's first reference apart from
    /// its `"file"` line, which must name the request's own display name
    /// (checked in the window).  No procedure calls the edit and the
    /// report of an uncalled non-recursive procedure holds none of its
    /// constants, so all edits of a row have one report up to the name —
    /// which the literal references re-check on every run.  A reference
    /// costs a cold analysis, about five times a request's own cost, so
    /// computing one per request would take most of the run.
    fn check(&self) -> (u64, Vec<String>) {
        let mut per_row = vec![0usize; self.rows.len()];
        let literal: Vec<bool> = self
            .pending
            .iter()
            .map(|item| {
                let first_edits = item.id.is_some() && per_row[item.row] < LITERAL_PER_ROW;
                per_row[item.row] += usize::from(first_edits);
                item.id.is_none() || first_edits || self.cfg.workload == Workload::ServeHot
            })
            .collect();
        let references: Vec<(usize, Result<oracle::ReportHash, String>)> = (0..literal.len())
            .filter(|&i| literal[i])
            .map(|i| {
                let item = &self.pending[i];
                let (name, source) = name_and_source(self.cfg, self.rows, item.id, item.row);
                (i, oracle::reference(&name, &source))
            })
            .collect();
        let mut timed_failures = 0u64;
        let mut problems = Vec::new();
        let mut fail = |item: &Pending, message: String, problems: &mut Vec<String>| {
            let (name, _) = name_and_source(self.cfg, self.rows, item.id, item.row);
            match item.id {
                Some(_) => {
                    timed_failures += 1;
                    if timed_failures <= SHOWN_FAILURES as u64 {
                        problems.push(format!("{name}: {message}"));
                    }
                }
                None => problems.push(format!("warm-up {name}: {message}")),
            }
        };
        // The body of each row's first literally checked edit response.
        let mut row_body: Vec<Option<u128>> = vec![None; self.rows.len()];
        for (i, reference) in &references {
            let item = &self.pending[*i];
            match reference {
                Ok(hash) if *hash == item.hash => {
                    if item.id.is_some() && row_body[item.row].is_none() {
                        row_body[item.row] = Some(hash.body);
                    }
                }
                Ok(_) => fail(
                    item,
                    "response differs from `chora analyze --json`".into(),
                    &mut problems,
                ),
                Err(e) => fail(
                    item,
                    format!("the CLI fails on the source: {e}"),
                    &mut problems,
                ),
            }
        }
        // Only `serve-edit` leaves responses without a literal reference.
        for (item, literal) in self.pending.iter().zip(literal) {
            if !literal && row_body[item.row] != Some(item.hash.body) {
                fail(
                    item,
                    "response differs from its row's reference report".into(),
                    &mut problems,
                );
            }
        }
        (timed_failures, problems)
    }
}

/// Restricts the calling thread, and every thread it spawns later, to the
/// last CPU it may run on, and returns that CPU.
///
/// The client and the daemon then share one core: a request hands the
/// core from the client thread to a request worker and back.  Spread over
/// two cores, every hand-off wakes an idle virtual CPU instead; on a
/// shared host that wake-up, not the daemon, set the latency, which
/// swung by a third between runs.  Closed loop with one caller, the daemon
/// never has two requests to run at once, so one core is all it can use.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() -> Result<usize, String> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: both calls read or write at most `size` bytes of `mask`;
    // pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..mask.len() * 64)
        .rev()
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .ok_or("the thread may run on no CPU")?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// The `(status, body)` of each row's warm-up request.
type WarmUp = Vec<(u16, String)>;

/// One set-up: the suite built and printed, a daemon started, and one
/// warm-up pass of the unedited programs.
fn set_up() -> Result<(Vec<Row>, Daemon, WarmUp), String> {
    let rows = suite::build();
    let mut daemon = Daemon::start()?;
    let mut warm = Vec::with_capacity(rows.len());
    for row in &rows {
        let reply = daemon
            .client
            .post(&analyze_path(&suite::plain_name(row)), &row.source)
            .map_err(|e| format!("warm-up request for {} failed: {e}", row.name))?;
        warm.push(reply);
    }
    Ok((rows, daemon, warm))
}

pub fn run(cfg: &Config, process_start: Instant) -> Result<Report, String> {
    // Before any thread starts, so the daemon's threads inherit the CPU.
    #[cfg(target_os = "linux")]
    let pinned = pin_to_one_cpu()?;
    let (rows, daemon, warm) = set_up()?;
    let mut setup = vec![process_start.elapsed().as_secs_f64()];
    let mut report = Report::default();
    #[cfg(target_os = "linux")]
    report.lines.push(format!(
        "client and daemon share CPU {pinned} (set-up, timed windows and checks)"
    ));
    let mut pending = Vec::new();
    for (row, (status, body)) in warm.iter().enumerate() {
        if *status == 200 {
            pending.push(Pending {
                id: None,
                row,
                hash: oracle::report_hash(body),
            });
        } else {
            report
                .problems
                .push(format!("warm-up of {}: HTTP {status}", rows[row].name));
        }
    }
    let mut serve = Serve {
        cfg,
        rows: &rows,
        daemon,
        stream: Stream::new(cfg.seed, rows.len()),
        warm: warm.into_iter().map(|(_, body)| body).collect(),
        paths: rows
            .iter()
            .map(|r| analyze_path(&suite::plain_name(r)))
            .collect(),
        latency: Latency::new(),
        peak_rss: None,
        pending,
        ops_per_row: vec![0; rows.len()],
        failed: 0,
        failures: Vec::new(),
        problems: Vec::new(),
    };

    let (plain_secs, traced_secs) = cfg.windows();
    let plain = serve.window(plain_secs, false);
    let peak_rss = serve.peak_rss.unwrap_or_else(layers::peak_rss_mb);
    let traced = cfg.trace.then(|| {
        let before = (ServeCounters::now(&serve.daemon.service), Work::now());
        let session = trace::start().expect("no other trace session in this process");
        let window = serve.window(traced_secs, true);
        let folded = layers::fold_trace(&session.finish());
        let after = (ServeCounters::now(&serve.daemon.service), Work::now());
        (window, folded, before, after)
    });
    let check_started = Instant::now();
    let (mismatched, problems) = serve.check();
    report.lines.push(format!(
        "checked {} responses against `chora analyze --json` in {:.1} s",
        serve.pending.len(),
        check_started.elapsed().as_secs_f64()
    ));
    let Serve {
        daemon,
        latency,
        ops_per_row,
        failed,
        failures,
        problems: window_problems,
        ..
    } = serve;
    daemon.shutdown();
    if !cfg.trace {
        for _ in 1..SETUP_REPS {
            let started = Instant::now();
            let (_, daemon, _) = set_up()?;
            setup.push(started.elapsed().as_secs_f64());
            daemon.shutdown();
        }
    }
    report.attempted = plain.ops + traced.as_ref().map_or(0, |t| t.0.ops);
    report.failed = failed + mismatched;
    report.problems.extend(problems);
    report.problems.extend(window_problems);
    report
        .lines
        .extend(failures.iter().map(|f| format!("FAILED OP: {f}")));

    // The oracle pass: verdicts and soundness of the analyzer the daemon
    // serves, untimed.
    let mut matched = 0u64;
    for (row, ops) in rows.iter().zip(&ops_per_row) {
        let outcome = oracle::outcome(row, Analyzer::new().analyze(&row.program));
        matched += u64::from(oracle::matches_paper(row, &outcome));
        if let Err(e) = oracle::soundness(row, &outcome, cfg.seed) {
            report.failed += ops;
            report.lines.push(format!("UNSOUND: {}: {e}", row.name));
        }
    }

    if let Some((window, folded, (before, work_before), (after, work_after))) = &traced {
        let ops = window.ops as f64;
        let per_op = |a: u64, b: u64| (a - b) as f64 / ops;
        let work = work_after.since(work_before);
        let (s, s0) = (&after.store, &before.store);
        let lookups =
            (s.mem_hits + s.disk_hits + s.misses) - (s0.mem_hits + s0.disk_hits + s0.misses);
        let handler_count = after.handler_count - before.handler_count;
        let handler_ms =
            (after.handler_sum_ms - before.handler_sum_ms) / handler_count.max(1) as f64;
        let t = TracedLayers { folded, ops };
        let m = &mut report.metrics;
        layers::insert_work(m, &work, ops);
        m.insert(
            "core.components_analyzed",
            t.count(&["task"]) - t.count(&["check"]),
        );
        m.insert("core.summarize_ms", t.total_ms(&["summarize"]));
        m.insert("core.solve_ms", t.total_ms(&["height", "depth"]));
        m.insert("core.check_ms", t.total_ms(&["check"]));
        t.insert_into(m);
        m.insert("store.lookups", lookups as f64 / ops);
        m.insert("store.mem_hits", per_op(s.mem_hits, s0.mem_hits));
        m.insert("store.misses", per_op(s.misses, s0.misses));
        m.insert("store.writes", per_op(s.stores, s0.stores));
        m.insert(
            "store.hit_ratio",
            layers::ratio(lookups - (s.misses - s0.misses), lookups),
        );
        m.insert(
            "store.lru_evictions",
            per_op(s.lru_evictions, s0.lru_evictions),
        );
        m.insert("store.mem_bytes", s.mem_bytes as f64);
        m.insert("cli.parse_ms", window.parse_seconds * 1e3 / ops);
        m.insert(
            "cli.parse_cache_hits",
            per_op(after.parse_hits, before.parse_hits),
        );
        m.insert(
            "cli.parse_cache_misses",
            per_op(after.parse_misses, before.parse_misses),
        );
        m.insert(
            "cli.response_cache_hits",
            per_op(after.response_hits, before.response_hits),
        );
        m.insert(
            "cli.response_cache_misses",
            per_op(after.response_misses, before.response_misses),
        );
        let response_hits = after.response_hits - before.response_hits;
        let response_misses = after.response_misses - before.response_misses;
        m.insert(
            "cli.response_cache_hit_ratio",
            layers::ratio(response_hits, response_hits + response_misses),
        );
        m.insert(
            "server.requests",
            (after.requests_2xx + after.requests_non_2xx
                - before.requests_2xx
                - before.requests_non_2xx) as f64,
        );
        m.insert(
            "server.non_2xx",
            (after.requests_non_2xx - before.requests_non_2xx) as f64,
        );
        m.insert("server.handler_ms", handler_ms);
        m.insert(
            "server.wire_ms",
            window.post_seconds * 1e3 / ops - handler_ms,
        );
        // The benchmark's own parse calls are not the program's overhead.
        let traced_rate = ops / (window.seconds - window.parse_seconds);
        m.insert(
            "trace.overhead_ratio",
            traced_rate / (plain.ops as f64 / plain.seconds),
        );
        report.lines.push(format!(
            "server handler: {handler_count} requests, {:.3} ms total (chora_http_request_duration_ms)",
            after.handler_sum_ms - before.handler_sum_ms
        ));
        report.lines.extend(t.describe());
    } else {
        report.lines.push(format!(
            "latency samples: {} ({} beyond p99)",
            latency.samples(),
            latency.beyond(0.99)
        ));
        let m = &mut report.metrics;
        m.insert("setup_s", median(&mut setup));
        m.insert(
            "ops_per_s",
            plain
                .passes
                .ops_per_s()
                .unwrap_or(plain.ops as f64 / plain.seconds),
        );
        m.insert("latency_ms_p50", latency.quantile_ms(0.5));
        m.insert("latency_ms_p99", latency.quantile_ms(0.99));
        m.insert("peak_rss_mb", peak_rss);
        m.insert("paper_rows_matched", matched as f64);
    }
    report.lines.push(format!(
        "paper rows matched: {matched}/{} (untimed oracle pass)",
        rows.len()
    ));
    Ok(report)
}
