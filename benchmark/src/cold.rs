//! `suite-cold`: the 27 paper programs analyzed in-process with no store,
//! each pass in a seeded order.  An op is one program analyzed (plus
//! `table1_row` on the Table 1 rows).

use crate::latency::{Latency, PassClock};
use crate::layers::{self, TracedLayers, Work};
use crate::oracle::{self, Outcome};
use crate::suite::{self, Row, RowKind, Stream};
use crate::{median, Config, Report};
use chora_core::{Analyzer, PhaseTimings};
use chora_telemetry::trace;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Set-up repetitions; `setup_s` is their median.  The first runs from
/// process start to the first timed op, the others after the timed
/// windows.  Building and printing the suite takes well under a
/// millisecond, so it is repeated often enough for the median to be steady.
const SETUP_REPS: usize = 51;

/// What the ops of one row produced: the first op's verdict and work
/// counts, which every later op of the row must repeat.
#[derive(Default)]
struct RowLog {
    first: Option<(Outcome, Work)>,
    ops: u64,
    /// Ops whose verdict differs from the first op's.
    wrong: u64,
    work_mismatch: Option<String>,
}

struct Window {
    ops: u64,
    seconds: f64,
    passes: PassClock,
    timings: PhaseTimings,
}

struct Cold<'a> {
    rows: &'a [Row],
    stream: Stream,
    log: Vec<RowLog>,
    latency: Latency,
    /// `peak_rss_mb`, once [`layers::RSS_AFTER_OPS`] untraced ops ran.
    peak_rss: Option<f64>,
}

impl Cold<'_> {
    /// Runs ops until `seconds` have passed; latency is recorded unless
    /// the window is traced.
    fn window(&mut self, seconds: f64, traced: bool) -> Window {
        let mut timings = PhaseTimings::default();
        let mut ops = 0u64;
        let mut passes = PassClock::new(self.rows.len());
        let started = Instant::now();
        let deadline = started + Duration::from_secs_f64(seconds);
        while Instant::now() < deadline {
            let request = self.stream.next().expect("the stream is endless");
            passes.op_starts(request.id);
            let row = &self.rows[request.row];
            let before = Work::now();
            let op_started = Instant::now();
            let result = {
                let _span = trace::span("bench", "analyze");
                Analyzer::new().analyze(black_box(&row.program))
            };
            let phases = result.timings;
            let outcome = match row.kind {
                RowKind::Table1 { .. } => {
                    let _span = trace::span("bench", "table1_row");
                    oracle::outcome(row, result)
                }
                RowKind::Assertion { .. } => oracle::outcome(row, result),
            };
            let elapsed = op_started.elapsed();
            let work = Work::now().since(&before);
            if !traced {
                self.latency.record(elapsed);
            }
            timings.summarize_ms += phases.summarize_ms;
            timings.solve_ms += phases.solve_ms;
            timings.check_ms += phases.check_ms;
            passes.op_ends(request.id);
            ops += 1;
            if !traced && ops == layers::RSS_AFTER_OPS {
                self.peak_rss = Some(layers::peak_rss_mb());
            }
            let log = &mut self.log[request.row];
            log.ops += 1;
            match &log.first {
                None => log.first = Some((outcome, work)),
                Some((first, first_work)) => {
                    if *first != outcome {
                        log.wrong += 1;
                    }
                    if *first_work != work && log.work_mismatch.is_none() {
                        log.work_mismatch = Some(format!(
                            "{}: work counts differ between ops of one row: first {} / now {}",
                            row.name,
                            first_work.describe(),
                            work.describe()
                        ));
                    }
                }
            }
        }
        Window {
            ops,
            seconds: started.elapsed().as_secs_f64(),
            passes,
            timings,
        }
    }
}

pub fn run(cfg: &Config, process_start: Instant) -> Result<Report, String> {
    let rows = suite::build();
    let mut setup = vec![process_start.elapsed().as_secs_f64()];
    let mut cold = Cold {
        rows: &rows,
        stream: Stream::new(cfg.seed, rows.len()),
        log: rows.iter().map(|_| RowLog::default()).collect(),
        latency: Latency::new(),
        peak_rss: None,
    };
    let (plain_secs, traced_secs) = cfg.windows();
    let plain = cold.window(plain_secs, false);
    let peak_rss = cold.peak_rss.unwrap_or_else(layers::peak_rss_mb);
    let traced = cfg.trace.then(|| {
        let session = trace::start().expect("no other trace session in this process");
        let window = cold.window(traced_secs, true);
        (window, layers::fold_trace(&session.finish()))
    });

    if !cfg.trace {
        for _ in 1..SETUP_REPS {
            let started = Instant::now();
            black_box(suite::build());
            setup.push(started.elapsed().as_secs_f64());
        }
    }
    let mut report = Report {
        attempted: plain.ops + traced.as_ref().map_or(0, |(w, _)| w.ops),
        ..Report::default()
    };
    // The oracle: rows the windows never reached are analyzed once, untimed.
    let mut matched = 0u64;
    let mut pass = Work::default();
    report.lines.push(format!(
        "{:<16} {:<8} {:<16} {:<24} {:<14} {:>6}  sound",
        "row", "suite", "verdict", "paper CHORA", "actual", "ops"
    ));
    for (row, log) in rows.iter().zip(&cold.log) {
        let (outcome, work) = match &log.first {
            Some((outcome, work)) => (outcome.clone(), *work),
            None => {
                let before = Work::now();
                let outcome = oracle::outcome(row, Analyzer::new().analyze(&row.program));
                (outcome, Work::now().since(&before))
            }
        };
        pass = pass.plus(&work);
        let paper_match = oracle::matches_paper(row, &outcome);
        matched += u64::from(paper_match);
        let sound = oracle::soundness(row, &outcome, cfg.seed);
        report.failed += match &sound {
            Ok(()) => log.wrong,
            Err(_) => log.ops,
        };
        if log.wrong > 0 {
            report.lines.push(format!(
                "WRONG RESULT: {}: {} ops differ from the row's first verdict",
                row.name, log.wrong
            ));
        }
        if let Some(mismatch) = &log.work_mismatch {
            report.problems.push(mismatch.clone());
        }
        let (suite, paper, actual) = match &row.kind {
            RowKind::Table1 { paper, actual, .. } => ("table1", paper.to_string(), *actual),
            RowKind::Assertion { suite, paper } => (
                *suite,
                if *paper { "proved" } else { "n.p." }.to_string(),
                "-",
            ),
        };
        report.lines.push(format!(
            "{:<16} {suite:<8} {:<16} {:<24} {actual:<14} {:>6}  {}",
            row.name,
            oracle::verdict(&outcome),
            format!("{paper}{}", if paper_match { "" } else { " (differs)" }),
            log.ops,
            match &sound {
                Ok(()) => "ok".to_string(),
                Err(e) => format!("UNSOUND: {e}"),
            }
        ));
    }
    let procedures: u64 = rows.iter().map(|r| r.program.procedures.len() as u64).sum();
    let components = pass.tasks - procedures;
    report.lines.push(format!(
        "paper rows matched: {matched}/{} (Table 1, Table 2 and Fig. 3 against the paper's CHORA column)",
        rows.len()
    ));
    report.lines.push(format!(
        "work per pass (must repeat exactly for a seed): {} components={components} fm_max_width={}",
        pass.describe(),
        layers::fm_max_width()
    ));

    if let Some((window, folded)) = &traced {
        let ops = window.ops as f64;
        let m = &mut report.metrics;
        // Per-pass totals over a pass's ops: exact, repeatable counts.
        let ops_per_pass = rows.len() as f64;
        layers::insert_work(m, &pass, ops_per_pass);
        m.insert("core.components_analyzed", components as f64 / ops_per_pass);
        m.insert("core.summarize_ms", window.timings.summarize_ms / ops);
        m.insert("core.solve_ms", window.timings.solve_ms / ops);
        m.insert("core.check_ms", window.timings.check_ms / ops);
        TracedLayers { folded, ops }.insert_into(m);
        m.insert(
            "trace.overhead_ratio",
            (ops / window.seconds) / (plain.ops as f64 / plain.seconds),
        );
        for key in [
            "store.lookups",
            "store.mem_hits",
            "store.misses",
            "store.writes",
            "store.hit_ratio",
            "store.lru_evictions",
            "store.mem_bytes",
            "cli.parse_ms",
            "cli.parse_cache_hits",
            "cli.parse_cache_misses",
            "cli.response_cache_hits",
            "cli.response_cache_misses",
            "cli.response_cache_hit_ratio",
            "server.requests",
            "server.non_2xx",
            "server.handler_ms",
            "server.wire_ms",
        ] {
            m.insert(key, 0.0);
        }
        report.lines.extend(TracedLayers { folded, ops }.describe());
    } else {
        let lat = &cold.latency;
        report.lines.push(format!(
            "latency samples: {} ({} beyond p99)",
            lat.samples(),
            lat.beyond(0.99)
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
        m.insert("latency_ms_p50", lat.quantile_ms(0.5));
        m.insert("latency_ms_p99", lat.quantile_ms(0.99));
        m.insert("peak_rss_mb", peak_rss);
        m.insert("paper_rows_matched", matched as f64);
    }
    Ok(report)
}
