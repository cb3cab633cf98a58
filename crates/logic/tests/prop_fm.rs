//! Differential property tests for the algorithmic Fourier–Motzkin engine.
//!
//! The optimized projection pass (greedy elimination order, canonical-row
//! hash-consing, domination pruning, Imbert's acceleration, early-unsat
//! exit) is checked against the preserved fixed-order naive path
//! (`project_onto_naive` / `is_empty_set_naive` / `implies_atom_naive`) on
//! random small linear systems, where the constraint budget is rarely if
//! ever hit and the engines must therefore decide exactly the same linear
//! relaxation:
//!
//! * the two projections entail each other atom-for-atom (each engine's
//!   output is verified with the *other* engine, so a shared bug cannot
//!   vouch for itself),
//! * satisfiability verdicts agree, including on contradictory systems —
//!   both the simplex's (which decides `is_empty_set`; see
//!   `prop_simplex.rs` for systems sized to stay under the budget) and the
//!   pruned elimination's, read off a projection onto no symbols,
//! * single-atom and batched (`implies_all`) entailment agree with the
//!   naive oracle.
//!
//! A second differential check covers the scoped satisfiability memo:
//! inside a [`SatMemo`] scope, emptiness, entailment and join answer
//! exactly as they do without one, both when a query is first decided and
//! when it is answered from the memo.

use chora_expr::{Polynomial, Symbol};
use chora_logic::{Atom, Polyhedron, SatMemo};
use chora_numeric::rat;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

const VARS: [&str; 3] = ["x", "y", "z"];

fn sym(name: &str) -> Symbol {
    Symbol::new(name)
}

/// One random linear atom `a·x + b·y + c·z + d ◇ 0` with small integer
/// coefficients; equations are rare enough that systems stay mostly
/// full-dimensional but the equality-substitution path is still exercised.
fn atom_strategy() -> impl Strategy<Value = Atom> {
    // kind weights: 0..=3 → Le, 4 → Lt, 5 → Eq.
    (-3i64..=3, -3i64..=3, -3i64..=3, -8i64..=8, 0i64..6).prop_map(|(a, b, c, d, kind)| {
        let mut poly = Polynomial::constant(rat(d));
        for (coeff, name) in [(a, VARS[0]), (b, VARS[1]), (c, VARS[2])] {
            poly = &poly + &Polynomial::var(sym(name)).scale(&rat(coeff));
        }
        match kind {
            0..=3 => Atom::le_zero(poly),
            4 => Atom::lt_zero(poly),
            _ => Atom::eq_zero(poly),
        }
    })
}

fn polyhedron_strategy() -> impl Strategy<Value = Polyhedron> {
    prop::collection::vec(atom_strategy(), 1..8).prop_map(Polyhedron::from_atoms)
}

/// Everything the memoized entry points answer about `p`, `q` and `goals`.
fn memoizable_answers(
    p: &Polyhedron,
    q: &Polyhedron,
    goals: &[Atom],
) -> (bool, Vec<bool>, bool, Polyhedron) {
    (
        p.is_empty_set(),
        goals.iter().map(|g| p.implies_atom(g)).collect(),
        p.implies_all(goals),
        p.join(q),
    )
}

/// Regression: an unsatisfiable all-`Le` system on which a naive counting
/// version of Kohler's criterion (global eliminated count, or per-row
/// counts without the subset-or-poison certificate rules at slot
/// collisions) skips the lineage carrying the contradiction and answers
/// "satisfiable".  Found by `satisfiability_agrees_with_naive`.
#[test]
fn kohler_pruning_keeps_contradiction_lineage() {
    let rows: [[i64; 4]; 6] = [
        [1, 0, 2, 2],
        [1, -3, -2, 8],
        [-3, 3, -1, -2],
        [1, 1, -2, -6],
        [-3, 3, 1, 7],
        [-2, -2, 0, -1],
    ];
    let p = Polyhedron::from_atoms(
        rows.map(|[a, b, c, d]| {
            let mut poly = Polynomial::constant(rat(d));
            for (coeff, name) in [(a, VARS[0]), (b, VARS[1]), (c, VARS[2])] {
                poly = &poly + &Polynomial::var(sym(name)).scale(&rat(coeff));
            }
            Atom::le_zero(poly)
        })
        .to_vec(),
    );
    assert!(p.is_empty_set_naive(), "oracle: system is unsatisfiable");
    assert!(
        p.project_onto(&BTreeSet::new()).is_empty_set_naive(),
        "pruned engine must derive the contradiction on {}",
        &p
    );
    assert!(p.is_empty_set(), "the simplex must agree on {}", &p);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn satisfiability_agrees_with_naive(p in polyhedron_strategy()) {
        let oracle = p.is_empty_set_naive();
        prop_assert_eq!(p.is_empty_set(), oracle, "p = {}", &p);
        // The pruned elimination decides by projecting every dimension
        // away: a contradiction it derives must be the oracle's.
        prop_assert_eq!(
            p.project_onto(&BTreeSet::new()).is_empty_set_naive(),
            oracle,
            "pruned elimination disagrees on p = {}",
            &p
        );
    }

    #[test]
    fn projection_is_entailment_equivalent_to_naive(
        p in polyhedron_strategy(),
        keep_mask in 1u8..7,
    ) {
        let keep: BTreeSet<Symbol> = VARS
            .iter()
            .enumerate()
            .filter(|(i, _)| keep_mask & (1 << i) != 0)
            .map(|(_, name)| sym(name))
            .collect();
        let pruned = p.project_onto(&keep);
        let naive = p.project_onto_naive(&keep);
        prop_assert_eq!(
            pruned.is_empty_set(),
            naive.is_empty_set_naive(),
            "projections disagree on emptiness: pruned {} vs naive {}",
            &pruned,
            &naive
        );
        // Each engine's result is checked by the other engine: the pruned
        // projection must not be weaker than the naive one, nor stronger.
        for atom in pruned.atoms() {
            prop_assert!(
                naive.implies_atom_naive(atom),
                "pruned constraint {} not entailed by naive projection {}",
                atom,
                &naive
            );
        }
        for atom in naive.atoms() {
            prop_assert!(
                pruned.implies_atom(atom),
                "naive constraint {} not entailed by pruned projection {}",
                atom,
                &pruned
            );
        }
    }

    #[test]
    fn single_entailment_agrees_with_naive(
        p in polyhedron_strategy(),
        goal in atom_strategy(),
    ) {
        prop_assert_eq!(p.implies_atom(&goal), p.implies_atom_naive(&goal));
    }

    #[test]
    fn batched_entailment_agrees_with_naive_per_atom(
        p in polyhedron_strategy(),
        goals in prop::collection::vec(atom_strategy(), 1..5),
    ) {
        // `implies_all` checks each goal with the simplex; the naive oracle
        // runs one fixed-order elimination per goal.  On budget-free systems
        // they must agree, unsatisfiable `p` (which implies every goal)
        // included.
        let batched = p.implies_all(&goals);
        let oracle = goals.iter().all(|g| p.implies_atom_naive(g));
        prop_assert_eq!(batched, oracle, "p = {}", &p);
    }

    #[test]
    fn memoized_queries_agree_with_unscoped(
        p in polyhedron_strategy(),
        q in polyhedron_strategy(),
        goals in prop::collection::vec(atom_strategy(), 1..4),
    ) {
        let unscoped = memoizable_answers(&p, &q, &goals);
        let memo = Arc::new(SatMemo::default());
        let _scope = memo.enter();
        // The first pass decides and records; the second is answered from
        // the memo, which therefore learns nothing new.
        let decided = memoizable_answers(&p, &q, &goals);
        let recorded = memo.len();
        let answered = memoizable_answers(&p, &q, &goals);
        prop_assert_eq!(&decided, &unscoped, "p = {}, q = {}", &p, &q);
        prop_assert_eq!(&answered, &unscoped, "p = {}, q = {}", &p, &q);
        prop_assert!(recorded > 0);
        prop_assert_eq!(memo.len(), recorded);
    }
}
