//! The satisfiability memo is scoped to one analysis: analyzing the same
//! program twice in one process does exactly the same work both times.
//!
//! This is the only test in its binary, because the logic and numeric work
//! counters are process-wide and a concurrently running test would add to
//! the deltas measured here.

use chora::bench_suite::complexity_suite;
use chora::core::Analyzer;
use chora::logic::{stats::FmStats, SatMemo};
use chora::numeric::stats::NumericStats;

/// Work done by `f`, as deltas of the logic and numeric counters.  The
/// `max_width` high-water gauge is not a count, so it is left out.
fn work_of(f: impl FnOnce()) -> (FmStats, NumericStats) {
    let (l0, n0) = (
        chora::logic::stats::snapshot(),
        chora::numeric::stats::snapshot(),
    );
    f();
    let (l1, n1) = (
        chora::logic::stats::snapshot(),
        chora::numeric::stats::snapshot(),
    );
    let logic = FmStats {
        rows_generated: l1.rows_generated - l0.rows_generated,
        rows_deduped: l1.rows_deduped - l0.rows_deduped,
        rows_dominated: l1.rows_dominated - l0.rows_dominated,
        imbert_skipped: l1.imbert_skipped - l0.imbert_skipped,
        early_unsat_exits: l1.early_unsat_exits - l0.early_unsat_exits,
        max_width: 0,
        sat_queries: l1.sat_queries - l0.sat_queries,
        sat_memo_hits: l1.sat_memo_hits - l0.sat_memo_hits,
        budget_fallbacks: l1.budget_fallbacks - l0.budget_fallbacks,
        simplex_pivots: l1.simplex_pivots - l0.simplex_pivots,
    };
    let numeric = NumericStats {
        small_ops: n1.small_ops - n0.small_ops,
        heap_ops: n1.heap_ops - n0.heap_ops,
        promotions: n1.promotions - n0.promotions,
        demotions: n1.demotions - n0.demotions,
        rational_small_ops: n1.rational_small_ops - n0.rational_small_ops,
        rational_heap_ops: n1.rational_heap_ops - n0.rational_heap_ops,
    };
    (logic, numeric)
}

#[test]
fn repeated_analyses_do_identical_work() {
    let bench = complexity_suite::strassen();
    let mut results = Vec::new();
    let first = work_of(|| results.push(Analyzer::new().analyze(&bench.program)));
    let second = work_of(|| results.push(Analyzer::new().analyze(&bench.program)));
    assert_eq!(
        first, second,
        "the second analysis reused the first one's memo"
    );
    // The memo did answer repeats within each analysis...
    let (logic, _) = first;
    assert!(logic.sat_memo_hits > 0 && logic.sat_memo_hits < logic.sat_queries);
    // ...and no scope outlives the batch on the calling thread.
    assert!(SatMemo::current().is_none());
    assert_eq!(results[0].summaries, results[1].summaries);
    assert_eq!(results[0].assertions, results[1].assertions);
}
