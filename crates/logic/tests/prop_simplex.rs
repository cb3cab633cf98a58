//! Differential tests of the simplex that decides emptiness.
//!
//! [`Polyhedron::is_empty_set`] and [`Polyhedron::implies_atom`] decide by
//! the exact rational simplex; the `*_naive` oracles decide by fixed-order
//! Fourier–Motzkin elimination.  On systems small enough that the
//! elimination never reaches its constraint budget both are exact, so they
//! must agree on every verdict — over systems that mix `≤`, `<` and `=`
//! and mention non-linear monomials (which both engines see as extra
//! dimensions of the same linearized view).  Past the budget the
//! elimination drops constraints and may call an empty set non-empty; the
//! simplex has no budget, which the last test pins.
//!
//! Systems the size of the analyzer's (a median of 8 rows over 9
//! dimensions) run past the budget, so there the check is one-way: a
//! contradiction derived by elimination — the fixed-order oracle's, or
//! the pruned engine's projection onto no symbols — holds whether or not
//! the budget dropped rows, and the simplex must find it too.

use chora_expr::{Polynomial, Symbol};
use chora_logic::{Atom, Polyhedron};
use chora_numeric::rat;
use proptest::prelude::*;

fn var(name: &str) -> Polynomial {
    Polynomial::var(Symbol::new(name))
}

/// A random `a·x + b·y + e·x·y + f·y² + d` with small integer
/// coefficients; the non-linear terms are absent about half the time so
/// linear rows stay common.
fn poly_strategy() -> impl Strategy<Value = Polynomial> {
    ((-3i64..=3, -3i64..=3), (-2i64..=2, -2i64..=2), -8i64..=8).prop_map(|((a, b), (e, f), d)| {
        let xy = &var("x") * &var("y");
        let yy = &var("y") * &var("y");
        let mut poly = Polynomial::constant(rat(d));
        for (coeff, term) in [(a, var("x")), (b, var("y")), (e, xy), (f, yy)] {
            poly = &poly + &term.scale(&rat(coeff));
        }
        poly
    })
}

/// `poly ◇ 0`, with kind weights 0..=2 → `≤`, 3..=4 → `<`, 5 → `=`.
fn atom(poly: Polynomial, kind: u8) -> Atom {
    match kind {
        0..=2 => Atom::le_zero(poly),
        3..=4 => Atom::lt_zero(poly),
        _ => Atom::eq_zero(poly),
    }
}

/// One step of a random system: a fresh atom, or (one time in three) a
/// bound facing the previous row, `−p + o ◇ 0` against `p ◇ 0`, which
/// leaves a slab that is empty for `o > 0`, a plane or nothing for
/// `o = 0` depending on strictness, and otherwise whatever the other rows
/// leave.  Without these facing pairs random systems are almost never
/// empty.
type Step = (Polynomial, u8, u8, i64);

fn step_strategy() -> impl Strategy<Value = Step> {
    (poly_strategy(), 0u8..6, 0u8..3, -2i64..=2)
}

fn build(steps: Vec<Step>) -> Polyhedron {
    let mut atoms: Vec<Atom> = Vec::new();
    let mut prev: Option<Polynomial> = None;
    for (poly, kind, facing, offset) in steps {
        let poly = match prev {
            Some(p) if facing == 0 => &-&p + &Polynomial::constant(rat(offset)),
            _ => poly,
        };
        prev = Some(poly.clone());
        atoms.push(atom(poly, kind));
    }
    Polyhedron::from_atoms(atoms)
}

/// At most `max` atoms.  The systems have four dimensions (`x`, `y`,
/// `x·y`, `y²`), and one elimination step turns `n` rows into at most
/// `⌊n²/4⌋ + 1`, so five rows peak at 5 → 7 → 13 → 43 → 463, under the
/// budget of 600: the fixed-order elimination stays exact.
fn polyhedron_strategy(max: usize) -> impl Strategy<Value = Polyhedron> {
    prop::collection::vec(step_strategy(), 1..=max).prop_map(build)
}

/// The nine dimensions of the wide systems: five variables and four
/// products of them.
fn wide_terms() -> Vec<Polynomial> {
    let [x, y, z, w, v] = ["x", "y", "z", "w", "v"].map(var);
    let products = [&x * &y, &y * &y, &z * &w, &x * &v];
    [x, y, z, w, v].into_iter().chain(products).collect()
}

/// A random `Σ cᵢ·tᵢ + d` over [`wide_terms`] with small integer
/// coefficients.
fn wide_poly_strategy() -> impl Strategy<Value = Polynomial> {
    let terms = wide_terms();
    (prop::collection::vec(-3i64..=3, terms.len()), -8i64..=8).prop_map(move |(coeffs, d)| {
        coeffs
            .iter()
            .zip(&terms)
            .fold(Polynomial::constant(rat(d)), |acc, (c, t)| {
                &acc + &t.scale(&rat(*c))
            })
    })
}

fn wide_step_strategy() -> impl Strategy<Value = Step> {
    (wide_poly_strategy(), 0u8..6, 0u8..3, -2i64..=2)
}

/// At most `max` atoms over the nine [`wide_terms`], built like
/// [`polyhedron_strategy`]'s systems.
fn wide_polyhedron_strategy(max: usize) -> impl Strategy<Value = Polyhedron> {
    prop::collection::vec(wide_step_strategy(), 1..=max).prop_map(build)
}

/// Whether elimination derives a contradiction from `p`.  Either engine
/// only ever drops rows past its budget, so a contradiction it derives is
/// one `p` really has.
fn elimination_finds_empty(p: &Polyhedron) -> bool {
    p.is_empty_set_naive() || p.project_onto(&Default::default()).is_empty_set_naive()
}

/// A goal for `p`: one of its own rows shifted by `o` (implied for some
/// shifts, not for others), or a fresh atom when the index runs past them.
fn goal(p: &Polyhedron, (poly, kind, pick, offset): Step) -> Atom {
    match p.atoms().get(pick as usize) {
        Some(row) => atom(&row.poly + &Polynomial::constant(rat(offset)), kind),
        None => atom(poly, kind),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn emptiness_agrees_with_elimination(p in polyhedron_strategy(5)) {
        prop_assert_eq!(p.is_empty_set(), p.is_empty_set_naive(), "p = {}", &p);
    }

    #[test]
    fn entailment_agrees_with_elimination(
        // The negated goal is the fifth row.
        p in polyhedron_strategy(4),
        g in step_strategy(),
    ) {
        let goal = goal(&p, g);
        prop_assert_eq!(
            p.implies_atom(&goal),
            p.implies_atom_naive(&goal),
            "p = {}, goal = {}",
            &p,
            &goal
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn simplex_finds_every_contradiction_elimination_derives(
        p in wide_polyhedron_strategy(32),
    ) {
        if elimination_finds_empty(&p) {
            prop_assert!(p.is_empty_set(), "p = {}", &p);
        }
    }

    #[test]
    fn simplex_proves_every_entailment_elimination_proves(
        p in wide_polyhedron_strategy(32),
        g in wide_step_strategy(),
    ) {
        let goal = goal(&p, g);
        if p.implies_atom_naive(&goal) {
            prop_assert!(p.implies_atom(&goal), "p = {}, goal = {}", &p, &goal);
        }
    }
}

/// An empty system over two dimensions whose every elimination overruns
/// the constraint budget: the contradiction `x + y ≤ −1 ∧ x + y ≥ 0` is
/// padded with loose rows `±x ± k·y ≤ 1000` (k = 2..13), so each of `x`
/// and `y` has 25 rows bounding it from above and 25 from below.
/// Eliminating either one would combine 625 pairs, so Fourier–Motzkin —
/// fixed-order or greedy — drops every row that mentions it, the
/// contradiction with them, and calls the empty set non-empty.  The
/// simplex has no budget and answers "empty".
#[test]
fn simplex_is_exact_where_the_elimination_budget_gives_up() {
    let (x, y) = (var("x"), var("y"));
    let row = |a: i64, b: i64| &x.scale(&rat(a)) + &y.scale(&rat(b));
    let mut atoms = vec![
        Atom::le(row(1, 1), Polynomial::constant(rat(-1))),
        Atom::ge(row(1, 1), Polynomial::zero()),
    ];
    for k in 2..=13 {
        for (a, b) in [(1, k), (1, -k), (-1, k), (-1, -k)] {
            atoms.push(Atom::le(row(a, b), Polynomial::constant(rat(1000))));
        }
    }
    let p = Polyhedron::from_atoms(atoms);
    assert_eq!(p.len(), 50);
    assert!(
        !p.is_empty_set_naive(),
        "the budget fallback over-approximates"
    );
    assert!(
        p.project_onto(&Default::default()).is_empty(),
        "the greedy projection falls back as well"
    );
    assert!(p.is_empty_set(), "the simplex decides exactly");
    assert!(p.implies_atom(&Atom::le(Polynomial::one(), Polynomial::zero())));
}
