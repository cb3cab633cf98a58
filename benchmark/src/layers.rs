//! Reading each layer's work counts through the program's public
//! snapshot accessors, and turning a folded trace into per-layer numbers.

use crate::fold::Folded;
use chora_cli::AnalysisService;
use chora_core::TierCounters;
use chora_telemetry::metrics::{registry, Counter, Histogram};
use std::collections::BTreeMap;

/// Counts of the numeric tower, the FM engine and the scheduler.  On the
/// suite these depend only on the programs analyzed, so they must repeat
/// exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Work {
    pub rational_small_ops: u64,
    pub rational_heap_ops: u64,
    pub bigint_heap_ops: u64,
    pub promotions: u64,
    pub fm_rows_generated: u64,
    pub fm_rows_deduped: u64,
    pub fm_rows_dominated: u64,
    pub fm_imbert_skipped: u64,
    pub fm_early_unsat_exits: u64,
    /// Scheduler tasks: one per component plus one assertion pass per
    /// procedure.
    pub tasks: u64,
}

fn tasks_counter() -> &'static Counter {
    registry().counter(
        "chora_scheduler_tasks_total",
        "Scheduler tasks executed (component summarizations and assertion passes).",
    )
}

impl Work {
    pub fn now() -> Work {
        let n = chora_numeric::stats::snapshot();
        let f = chora_logic::stats::snapshot();
        Work {
            rational_small_ops: n.rational_small_ops,
            rational_heap_ops: n.rational_heap_ops,
            bigint_heap_ops: n.heap_ops,
            promotions: n.promotions,
            fm_rows_generated: f.rows_generated,
            fm_rows_deduped: f.rows_deduped,
            fm_rows_dominated: f.rows_dominated,
            fm_imbert_skipped: f.imbert_skipped,
            fm_early_unsat_exits: f.early_unsat_exits,
            tasks: tasks_counter().get(),
        }
    }

    fn fields(&self) -> [u64; 10] {
        [
            self.rational_small_ops,
            self.rational_heap_ops,
            self.bigint_heap_ops,
            self.promotions,
            self.fm_rows_generated,
            self.fm_rows_deduped,
            self.fm_rows_dominated,
            self.fm_imbert_skipped,
            self.fm_early_unsat_exits,
            self.tasks,
        ]
    }

    fn from_fields(f: [u64; 10]) -> Work {
        Work {
            rational_small_ops: f[0],
            rational_heap_ops: f[1],
            bigint_heap_ops: f[2],
            promotions: f[3],
            fm_rows_generated: f[4],
            fm_rows_deduped: f[5],
            fm_rows_dominated: f[6],
            fm_imbert_skipped: f[7],
            fm_early_unsat_exits: f[8],
            tasks: f[9],
        }
    }

    pub fn since(&self, before: &Work) -> Work {
        let (a, b) = (self.fields(), before.fields());
        Work::from_fields(std::array::from_fn(|i| a[i] - b[i]))
    }

    pub fn plus(&self, other: &Work) -> Work {
        let (a, b) = (self.fields(), other.fields());
        Work::from_fields(std::array::from_fn(|i| a[i] + b[i]))
    }

    /// The counts as `name=value` pairs, for the report.
    pub fn describe(&self) -> String {
        const NAMES: [&str; 10] = [
            "rational_small_ops",
            "rational_heap_ops",
            "bigint_heap_ops",
            "promotions",
            "fm_rows_generated",
            "fm_rows_deduped",
            "fm_rows_dominated",
            "fm_imbert_skipped",
            "fm_early_unsat_exits",
            "scheduler_tasks",
        ];
        NAMES
            .iter()
            .zip(self.fields())
            .map(|(n, v)| format!("{n}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// The widest intermediate system any FM step produced, process-wide.
pub fn fm_max_width() -> u64 {
    chora_logic::stats::snapshot().max_width
}

fn http_requests(class: &str) -> &'static Counter {
    registry().counter_with(
        "chora_http_requests_total",
        "HTTP requests served, by endpoint and status class.",
        &[("endpoint", "/v1/analyze"), ("class", class)],
    )
}

fn http_duration() -> &'static Histogram {
    registry().histogram_with(
        "chora_http_request_duration_ms",
        "Wall-clock request handling time, by endpoint.",
        &[("endpoint", "/v1/analyze")],
    )
}

/// The daemon's counters: store tiers, request caches, HTTP.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeCounters {
    pub store: TierCounters,
    pub parse_hits: u64,
    pub parse_misses: u64,
    pub response_hits: u64,
    pub response_misses: u64,
    pub requests_2xx: u64,
    pub requests_non_2xx: u64,
    pub handler_sum_ms: f64,
    pub handler_count: u64,
}

impl ServeCounters {
    pub fn now(service: &AnalysisService) -> ServeCounters {
        ServeCounters {
            store: service.store().counters(),
            parse_hits: service.parse_cache().hits(),
            parse_misses: service.parse_cache().misses(),
            response_hits: service.response_cache().hits(),
            response_misses: service.response_cache().misses(),
            requests_2xx: http_requests("2xx").get(),
            requests_non_2xx: http_requests("4xx").get() + http_requests("5xx").get(),
            handler_sum_ms: http_duration().sum_ms(),
            handler_count: http_duration().count(),
        }
    }
}

/// Timed ops after which `peak_rss_mb` is read (or at the end of the
/// window, if it has fewer).  On `serve-edit` every request adds entries
/// to the daemon's caches, so a high-water mark read at the end of the
/// window would grow with the throughput it is measured beside.
pub const RSS_AFTER_OPS: u64 = 1000;

/// The process's memory high-water mark (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The numeric and FM counts of `work`, per op over `ops` ops.
pub fn insert_work(m: &mut BTreeMap<&'static str, f64>, work: &Work, ops: f64) {
    let per_op = |count: u64| count as f64 / ops;
    m.insert(
        "numeric.rational_small_ops",
        per_op(work.rational_small_ops),
    );
    m.insert("numeric.rational_heap_ops", per_op(work.rational_heap_ops));
    m.insert("numeric.bigint_heap_ops", per_op(work.bigint_heap_ops));
    m.insert("numeric.promotions", per_op(work.promotions));
    m.insert("logic.fm_rows_generated", per_op(work.fm_rows_generated));
    m.insert("logic.fm_rows_deduped", per_op(work.fm_rows_deduped));
    m.insert("logic.fm_rows_dominated", per_op(work.fm_rows_dominated));
    m.insert("logic.fm_imbert_skipped", per_op(work.fm_imbert_skipped));
    m.insert(
        "logic.fm_early_unsat_exits",
        per_op(work.fm_early_unsat_exits),
    );
    m.insert("logic.fm_max_width", fm_max_width() as f64);
    // Useful rows over attempted ones: rows kept after dedup and
    // domination, over rows generated plus combinations Kohler's test
    // skipped before generating them.
    let attempted = work.fm_rows_generated + work.fm_imbert_skipped;
    let kept = work
        .fm_rows_generated
        .saturating_sub(work.fm_rows_deduped + work.fm_rows_dominated);
    m.insert("logic.fm_rows_kept_ratio", ratio(kept, attempted));
}

/// `part / whole`, or 0 when nothing was counted.
pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Per-op self-time numbers of one traced window.
pub struct TracedLayers<'a> {
    pub folded: &'a BTreeMap<String, Folded>,
    pub ops: f64,
}

impl TracedLayers<'_> {
    fn get(&self, key: &str) -> Folded {
        self.folded.get(key).copied().unwrap_or_default()
    }

    /// Self time of the spans named `keys`, in ms per op.
    pub fn self_ms(&self, keys: &[&str]) -> f64 {
        keys.iter().map(|k| self.get(k).self_ns).sum::<u64>() as f64 / 1e6 / self.ops
    }

    /// Whole duration of the spans named `keys`, in ms per op.
    pub fn total_ms(&self, keys: &[&str]) -> f64 {
        keys.iter().map(|k| self.get(k).total_ns).sum::<u64>() as f64 / 1e6 / self.ops
    }

    /// Spans named `keys`, per op.
    pub fn count(&self, keys: &[&str]) -> f64 {
        keys.iter().map(|k| self.get(k).count).sum::<u64>() as f64 / self.ops
    }

    /// `key`'s self time as a share of all self time in the trace.
    pub fn self_share(&self, key: &str) -> f64 {
        ratio(
            self.get(key).self_ns,
            self.folded.values().map(|f| f.self_ns).sum(),
        )
    }

    /// The metrics read off the program's own spans.
    pub fn insert_into(&self, m: &mut BTreeMap<&'static str, f64>) {
        const FM: [&str; 2] = ["fm_project", "fm_eliminate"];
        m.insert("logic.fm_projections", self.count(&FM));
        m.insert("logic.fm_self_ms", self.self_ms(&FM));
        m.insert("recurrence.solves", self.count(&["recurrence_solve"]));
        m.insert(
            "recurrence.solve_self_ms",
            self.self_ms(&["recurrence_solve"]),
        );
        m.insert("core.height_self_ms", self.self_ms(&["height"]));
        m.insert("core.depth_self_ms", self.self_ms(&["depth"]));
        m.insert("core.check_self_ms", self.self_ms(&["check"]));
        m.insert("core.summarize_self_ms", self.self_ms(&["summarize"]));
        m.insert("core.height_self_share", self.self_share("height"));
        m.insert("store.load_self_ms", self.self_ms(&["cache_load"]));
        m.insert("store.store_self_ms", self.self_ms(&["cache_store"]));
        m.insert("ir.fingerprint_self_ms", self.self_ms(&["fingerprint"]));
    }

    /// The report lines: every folded key's self time, largest first.
    pub fn describe(&self) -> Vec<String> {
        let all: u64 = self.folded.values().map(|f| f.self_ns).sum::<u64>().max(1);
        let mut keys: Vec<(&String, &Folded)> = self.folded.iter().collect();
        keys.sort_by_key(|(_, f)| std::cmp::Reverse(f.self_ns));
        keys.into_iter()
            .map(|(k, f)| {
                format!(
                    "self time {k:<18} {:>6.2}%  {:>10.3} ms  {:>8} spans",
                    100.0 * f.self_ns as f64 / all as f64,
                    f.self_ns as f64 / 1e6,
                    f.count
                )
            })
            .collect()
    }
}

/// The span trace of a finished session, keyed for the fold: scheduler
/// task spans (named per component) fold under `task`.
pub fn fold_trace(trace: &chora_telemetry::trace::Trace) -> BTreeMap<String, Folded> {
    let spans: Vec<crate::fold::Span> = trace
        .events
        .iter()
        .map(|e| crate::fold::Span {
            lane: e.lane,
            start_ns: e.start_ns,
            dur_ns: e.dur_ns,
            key: if e.cat == "task" {
                "task".to_string()
            } else {
                e.name.to_string()
            },
        })
        .collect();
    crate::fold::fold(&spans)
}
