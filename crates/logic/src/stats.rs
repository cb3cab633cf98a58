//! Instrumentation for the Fourier–Motzkin projection engine.
//!
//! Always compiled (the former `stats` cargo feature is gone): the
//! projection pass in [`crate::Polyhedron`] counts every combined row it
//! produces and every row the redundancy-control layers discard —
//! hash-cons dedup, quasi-syntactic domination, Imbert's acceleration —
//! plus the early-unsat exits and the widest intermediate system any
//! elimination step produced.  The counters are process-wide relaxed
//! atomics, mirroring `chora_numeric::stats`, and [`register_metrics`]
//! publishes the same cells into the [`chora_telemetry::metrics`] registry
//! as `chora_fm_*` series for the `/v1/metrics` scrape.  The satisfiability
//! layer above it counts its emptiness queries, the ones the scoped memo
//! (see [`crate::SatMemo`]) answered, the simplex pivots that decided the
//! rest, and the budget fallbacks that make an elimination inexact; those
//! publish as `chora_logic_*_total`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Once;

/// A snapshot of the Fourier–Motzkin counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FmStats {
    /// Rows produced by pos×neg combination or equality substitution.
    pub rows_generated: u64,
    /// Produced rows dropped because an identical row was already kept.
    pub rows_deduped: u64,
    /// Rows dropped (or replaced) by a parallel row with a tighter constant.
    pub rows_dominated: u64,
    /// Combinations dropped by Kohler's ancestor/gone-set bound before the
    /// row was stored or bred from.
    pub imbert_skipped: u64,
    /// Projection passes abandoned early on a derived contradiction.
    pub early_unsat_exits: u64,
    /// The largest live constraint count any elimination step produced.
    pub max_width: u64,
    /// Emptiness queries put to the memoized entry points
    /// (`Polyhedron::is_empty_set` and each negated disjunct of
    /// `Polyhedron::implies_atom`), inside a memo scope or not.
    pub sat_queries: u64,
    /// Of those, the queries a [`crate::SatMemo`] answered without running
    /// the simplex.
    pub sat_memo_hits: u64,
    /// Elimination steps that exceeded the constraint budget and dropped
    /// the rows mentioning the dimension (a sound over-approximation); zero
    /// means every projection and join was exact.  Emptiness decisions
    /// never eliminate, so they never count here.
    pub budget_fallbacks: u64,
    /// Pivots the emptiness simplex performed; a query whose initial
    /// assignment already satisfies every bound takes none.
    pub simplex_pivots: u64,
}

pub(crate) static ROWS_GENERATED: AtomicU64 = AtomicU64::new(0);
pub(crate) static ROWS_DEDUPED: AtomicU64 = AtomicU64::new(0);
pub(crate) static ROWS_DOMINATED: AtomicU64 = AtomicU64::new(0);
pub(crate) static IMBERT_SKIPPED: AtomicU64 = AtomicU64::new(0);
pub(crate) static EARLY_UNSAT_EXITS: AtomicU64 = AtomicU64::new(0);
pub(crate) static MAX_WIDTH: AtomicU64 = AtomicU64::new(0);
pub(crate) static SAT_QUERIES: AtomicU64 = AtomicU64::new(0);
pub(crate) static SAT_MEMO_HITS: AtomicU64 = AtomicU64::new(0);
pub(crate) static BUDGET_FALLBACKS: AtomicU64 = AtomicU64::new(0);
pub(crate) static SIMPLEX_PIVOTS: AtomicU64 = AtomicU64::new(0);

/// Reads the current counter values.
pub fn snapshot() -> FmStats {
    FmStats {
        rows_generated: ROWS_GENERATED.load(Ordering::Relaxed),
        rows_deduped: ROWS_DEDUPED.load(Ordering::Relaxed),
        rows_dominated: ROWS_DOMINATED.load(Ordering::Relaxed),
        imbert_skipped: IMBERT_SKIPPED.load(Ordering::Relaxed),
        early_unsat_exits: EARLY_UNSAT_EXITS.load(Ordering::Relaxed),
        max_width: MAX_WIDTH.load(Ordering::Relaxed),
        sat_queries: SAT_QUERIES.load(Ordering::Relaxed),
        sat_memo_hits: SAT_MEMO_HITS.load(Ordering::Relaxed),
        budget_fallbacks: BUDGET_FALLBACKS.load(Ordering::Relaxed),
        simplex_pivots: SIMPLEX_PIVOTS.load(Ordering::Relaxed),
    }
}

/// Zeroes all counters.
pub fn reset() {
    ROWS_GENERATED.store(0, Ordering::Relaxed);
    ROWS_DEDUPED.store(0, Ordering::Relaxed);
    ROWS_DOMINATED.store(0, Ordering::Relaxed);
    IMBERT_SKIPPED.store(0, Ordering::Relaxed);
    EARLY_UNSAT_EXITS.store(0, Ordering::Relaxed);
    MAX_WIDTH.store(0, Ordering::Relaxed);
    SAT_QUERIES.store(0, Ordering::Relaxed);
    SAT_MEMO_HITS.store(0, Ordering::Relaxed);
    BUDGET_FALLBACKS.store(0, Ordering::Relaxed);
    SIMPLEX_PIVOTS.store(0, Ordering::Relaxed);
}

#[inline]
pub(crate) fn record_width(width: u64) {
    MAX_WIDTH.fetch_max(width, Ordering::Relaxed);
}

#[inline]
pub(crate) fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Publishes the counters into the process-wide metrics registry as
/// `chora_fm_*` and `chora_logic_*` series.  Idempotent.
pub fn register_metrics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let registry = chora_telemetry::metrics::registry();
        registry.register_counter_static(
            "chora_fm_rows_generated_total",
            "FM rows produced by pos/neg combination or equality substitution.",
            &ROWS_GENERATED,
        );
        registry.register_counter_static(
            "chora_fm_rows_deduped_total",
            "FM rows dropped because an identical row was already kept.",
            &ROWS_DEDUPED,
        );
        registry.register_counter_static(
            "chora_fm_rows_dominated_total",
            "FM rows dropped or replaced by a parallel row with a tighter constant.",
            &ROWS_DOMINATED,
        );
        registry.register_counter_static(
            "chora_fm_imbert_skipped_total",
            "FM combinations dropped by Kohler's ancestor/gone-set bound.",
            &IMBERT_SKIPPED,
        );
        registry.register_counter_static(
            "chora_fm_early_unsat_exits_total",
            "FM projection passes abandoned early on a derived contradiction.",
            &EARLY_UNSAT_EXITS,
        );
        registry.register_gauge_static(
            "chora_fm_max_width",
            "Largest live constraint count any FM elimination step produced.",
            &MAX_WIDTH,
        );
        registry.register_counter_static(
            "chora_logic_sat_queries_total",
            "Emptiness queries put to the memoized satisfiability entry points.",
            &SAT_QUERIES,
        );
        registry.register_counter_static(
            "chora_logic_sat_memo_hits_total",
            "Emptiness queries answered by the per-analysis satisfiability memo.",
            &SAT_MEMO_HITS,
        );
        registry.register_counter_static(
            "chora_logic_budget_fallbacks_total",
            "FM elimination steps that exceeded the constraint budget and dropped rows.",
            &BUDGET_FALLBACKS,
        );
        registry.register_counter_static(
            "chora_logic_simplex_pivots_total",
            "Pivots performed by the simplex that decides emptiness queries.",
            &SIMPLEX_PIVOTS,
        );
    });
}

macro_rules! fm_stat {
    ($counter:ident) => {
        $crate::stats::bump(&$crate::stats::$counter);
    };
}
pub(crate) use fm_stat;
