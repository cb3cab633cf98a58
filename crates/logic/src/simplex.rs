//! Exact emptiness of a linear constraint system by the general simplex of
//! Dutertre and de Moura ("A Fast Linear-Arithmetic Solver for DPLL(T)",
//! CAV 2006, §3, procedure `Check`).
//!
//! Every emptiness decision of the domain ([`crate::Polyhedron::is_empty_set`]
//! and the negated-disjunct checks of `implies_atom`) ends here, on the rows
//! of the linearized view.  Fourier–Motzkin stays the engine of projection
//! and join; for a yes/no question it is the wrong tool: a satisfiable
//! system (most queries are) forces it to eliminate every dimension, and
//! its constraint budget can make it answer "non-empty" for an empty set.
//! The simplex decides the same linear relaxation exactly, with no budget.
//!
//! **Encoding.**  A row `Σ aᵢ·xᵢ + c ◇ 0` over two or more dimensions gets
//! a slack variable `s = Σ aᵢ·xᵢ` bounded by `s ◇ −c`; a row over a single
//! dimension is a bound on that dimension, of which the tightest is kept
//! (crossed bounds answer "empty" before any pivot).  Strict bounds use
//! δ-rationals: `x < b` is `x ≤ b − δ` for a positive infinitesimal `δ`,
//! which is exact for deciding rational satisfiability.
//!
//! **Tableau.**  Each slack starts basic; the tableau is `rows × cols`
//! over the current *nonbasic* variables only (initially the dimensions),
//! so a pivot swaps a row's basic variable with a column's nonbasic one and
//! the matrix never widens.  Nonbasic variables always sit within their
//! bounds; `Check` repairs the basic ones.
//!
//! **Termination.**  Bland's rule — the smallest violating basic variable,
//! then the smallest eligible nonbasic one, by a fixed variable order —
//! rules out cycling, so there is no pivot cap.

use crate::atom::AtomKind;
use crate::stats::fm_stat;
use chora_expr::{LinearExpr, Symbol};
use chora_numeric::BigRational;

/// Whether the conjunction of `rows` (each `expr ◇ 0`) has no rational
/// solution.
pub(crate) fn is_unsat(rows: &[(LinearExpr, AtomKind)]) -> bool {
    match Tableau::new(rows) {
        None => true,
        Some(mut t) => !t.check(),
    }
}

/// A δ-rational `c + k·δ`; the derived order is lexicographic, which is
/// the order of the δ-rationals for an infinitesimal `δ > 0`.
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
struct DeltaRat {
    c: BigRational,
    k: BigRational,
}

impl DeltaRat {
    /// `self += t·a`.
    fn add_scaled(&mut self, t: &DeltaRat, a: &BigRational) {
        self.c += &(&t.c * a);
        if !t.k.is_zero() {
            self.k += &(&t.k * a);
        }
    }
}

/// The simplex state.  Variables are numbered dimensions first (in symbol
/// order), then one slack per multi-dimension row (in row order); Bland's
/// rule reads this numbering.
struct Tableau {
    cols: usize,
    /// Row-major `rows × cols`: entry `(r, c)` is the coefficient of column
    /// `c`'s nonbasic variable in the definition of row `r`'s basic one.
    coef: Vec<BigRational>,
    /// The basic variable of each row.
    basic: Vec<usize>,
    /// The nonbasic variable of each column.
    nonbasic: Vec<usize>,
    value: Vec<DeltaRat>,
    lower: Vec<Option<DeltaRat>>,
    upper: Vec<Option<DeltaRat>>,
}

impl Tableau {
    /// Encodes the rows; `None` when two bounds on one variable cross.
    fn new(rows: &[(LinearExpr, AtomKind)]) -> Option<Tableau> {
        let mut dims: Vec<Symbol> = rows
            .iter()
            .flat_map(|(e, _)| e.coefficients().map(|(s, _)| *s))
            .collect();
        dims.sort_unstable();
        dims.dedup();
        let cols = dims.len();
        let slacks = rows.iter().filter(|(e, _)| e.num_terms() > 1).count();
        let vars = cols + slacks;
        let mut t = Tableau {
            cols,
            coef: vec![BigRational::zero(); slacks * cols],
            basic: (cols..vars).collect(),
            nonbasic: (0..cols).collect(),
            value: vec![DeltaRat::default(); vars],
            lower: vec![None; vars],
            upper: vec![None; vars],
        };
        let col_of = |s: &Symbol| dims.binary_search(s).expect("dimension collected above");
        let mut slack_row = 0;
        for (expr, kind) in rows {
            // `L + c ◇ 0` is `L ◇ −c`; a single-dimension `a·x ◇ −c` is the
            // bound `x ◇ −c/a`, whose direction flips when `a < 0`.
            let rhs = -expr.constant_term().clone();
            let (var, bound, upper) = if expr.num_terms() == 1 {
                let (s, a) = expr.coefficients().next().expect("one term");
                (col_of(s), &rhs / a, a.is_positive())
            } else {
                let row = &mut t.coef[slack_row * cols..(slack_row + 1) * cols];
                for (s, a) in expr.coefficients() {
                    row[col_of(s)] = a.clone();
                }
                let var = cols + slack_row;
                slack_row += 1;
                (var, rhs, true)
            };
            let crossed = match kind {
                AtomKind::Eq => {
                    let b = DeltaRat {
                        c: bound,
                        k: BigRational::zero(),
                    };
                    t.tighten(var, b.clone(), true) || t.tighten(var, b, false)
                }
                AtomKind::Le | AtomKind::Lt => {
                    // `x < b` is `x ≤ b − δ`; `x > b` is `x ≥ b + δ`.
                    let k = match (kind, upper) {
                        (AtomKind::Le, _) => BigRational::zero(),
                        (_, true) => -BigRational::one(),
                        (_, false) => BigRational::one(),
                    };
                    t.tighten(var, DeltaRat { c: bound, k }, upper)
                }
            };
            if crossed {
                return None;
            }
        }
        // Nonbasic variables start at zero, or on the bound that excludes
        // zero; basic ones at the value their row defines.
        let zero = DeltaRat::default();
        for j in 0..cols {
            if let Some(l) = t.lower[j].as_ref().filter(|l| **l > zero) {
                t.value[j] = l.clone();
            } else if let Some(u) = t.upper[j].as_ref().filter(|u| **u < zero) {
                t.value[j] = u.clone();
            }
        }
        for r in 0..slacks {
            let mut v = DeltaRat::default();
            for c in 0..cols {
                let a = &t.coef[r * cols + c];
                if !a.is_zero() {
                    v.add_scaled(&t.value[c], a);
                }
            }
            t.value[cols + r] = v;
        }
        Some(t)
    }

    /// Tightens the upper (or lower) bound of `var` to `b` if `b` is
    /// tighter; returns whether the bounds of `var` now cross.
    fn tighten(&mut self, var: usize, b: DeltaRat, upper: bool) -> bool {
        let slot = if upper {
            &mut self.upper[var]
        } else {
            &mut self.lower[var]
        };
        if slot.as_ref().is_none_or(|old| (b < *old) == upper) {
            *slot = Some(b);
        }
        matches!((&self.lower[var], &self.upper[var]), (Some(l), Some(u)) if l > u)
    }

    fn below_lower(&self, v: usize) -> bool {
        self.lower[v].as_ref().is_some_and(|l| self.value[v] < *l)
    }

    fn above_upper(&self, v: usize) -> bool {
        self.upper[v].as_ref().is_some_and(|u| self.value[v] > *u)
    }

    fn can_increase(&self, v: usize) -> bool {
        self.upper[v].as_ref().is_none_or(|u| self.value[v] < *u)
    }

    fn can_decrease(&self, v: usize) -> bool {
        self.lower[v].as_ref().is_none_or(|l| self.value[v] > *l)
    }

    /// `Check`: repairs basic variables until every bound holds (`true`,
    /// satisfiable) or some violated row has no variable left to move
    /// (`false`, the row's bounds and its nonbasic bounds conflict).
    fn check(&mut self) -> bool {
        loop {
            // Bland: the smallest violating basic variable...
            let mut violated: Option<(usize, usize, bool)> = None;
            for (r, &v) in self.basic.iter().enumerate() {
                if violated.is_some_and(|(_, best, _)| best < v) {
                    continue;
                }
                if self.below_lower(v) {
                    violated = Some((r, v, true));
                } else if self.above_upper(v) {
                    violated = Some((r, v, false));
                }
            }
            let Some((r, v, increase)) = violated else {
                return true;
            };
            // ...and the smallest nonbasic variable that can move it.
            let row = &self.coef[r * self.cols..(r + 1) * self.cols];
            let mut entering: Option<(usize, usize)> = None;
            for (c, a) in row.iter().enumerate() {
                if a.is_zero() {
                    continue;
                }
                let j = self.nonbasic[c];
                if entering.is_some_and(|(_, best)| best < j) {
                    continue;
                }
                let up = a.is_positive() == increase;
                if (up && self.can_increase(j)) || (!up && self.can_decrease(j)) {
                    entering = Some((c, j));
                }
            }
            let Some((c, _)) = entering else {
                return false;
            };
            let target = if increase {
                self.lower[v].clone()
            } else {
                self.upper[v].clone()
            };
            self.pivot_and_update(r, c, target.expect("violated bound exists"));
        }
    }

    /// Moves row `r`'s basic variable to `target` by changing column `c`'s
    /// nonbasic variable, then swaps the two.
    fn pivot_and_update(&mut self, r: usize, c: usize, target: DeltaRat) {
        fm_stat!(SIMPLEX_PIVOTS);
        let cols = self.cols;
        let (xi, xj) = (self.basic[r], self.nonbasic[c]);
        let inv = self.coef[r * cols + c].recip();
        let theta = DeltaRat {
            c: &(&target.c - &self.value[xi].c) * &inv,
            k: &(&target.k - &self.value[xi].k) * &inv,
        };
        self.value[xi] = target;
        self.value[xj].c += &theta.c;
        self.value[xj].k += &theta.k;
        for (s, &xs) in self.basic.iter().enumerate() {
            let b = &self.coef[s * cols + c];
            if s != r && !b.is_zero() {
                self.value[xs].add_scaled(&theta, b);
            }
        }
        // Row r solved for xj: xj = inv·xi − Σ_{k≠c} (a_k·inv)·x_k.
        let mut pivot_row: Vec<(usize, BigRational)> = Vec::new();
        for (k, e) in self.coef[r * cols..(r + 1) * cols].iter_mut().enumerate() {
            if k == c {
                *e = inv.clone();
            } else if !e.is_zero() {
                *e = -(&*e * &inv);
            } else {
                continue;
            }
            pivot_row.push((k, e.clone()));
        }
        // Substitute it into every other row that mentions xj.
        for s in (0..self.basic.len()).filter(|&s| s != r) {
            let row = &mut self.coef[s * cols..(s + 1) * cols];
            if row[c].is_zero() {
                continue;
            }
            let b = std::mem::take(&mut row[c]);
            for (k, p) in &pivot_row {
                let term = &b * p;
                if *k == c {
                    row[c] = term;
                } else {
                    row[*k] += &term;
                }
            }
        }
        self.basic[r] = xj;
        self.nonbasic[c] = xi;
    }
}

#[cfg(test)]
mod tests {
    use crate::{Atom, Polyhedron};
    use chora_expr::{Polynomial, Symbol};
    use chora_numeric::{rat, BigRational};

    /// `Σ cᵢ·xᵢ + d` over the named variables.
    fn lin(terms: &[(&str, BigRational)], d: BigRational) -> Polynomial {
        terms.iter().fold(Polynomial::constant(d), |p, (name, c)| {
            &p + &Polynomial::var(Symbol::new(name)).scale(c)
        })
    }

    fn q(n: i64, d: i64) -> BigRational {
        &rat(n) / &rat(d)
    }

    fn x(name: &str) -> Polynomial {
        Polynomial::var(Symbol::new(name))
    }

    /// Both engines' verdicts; the fixed-order elimination is exact on
    /// systems this small.
    fn verdicts(atoms: Vec<Atom>) -> (bool, bool) {
        let p = Polyhedron::from_atoms(atoms);
        (p.is_empty_set(), p.is_empty_set_naive())
    }

    #[test]
    fn strict_bounds_use_delta_rationals() {
        let c = |v: i64| Polynomial::constant(rat(v));
        // 5 < x < 6 has rational points; x > 5 ∧ x < 5 has none.
        assert_eq!(
            verdicts(vec![Atom::gt(x("x"), c(5)), Atom::lt(x("x"), c(6))]),
            (false, false)
        );
        assert_eq!(
            verdicts(vec![Atom::gt(x("x"), c(5)), Atom::lt(x("x"), c(5))]),
            (true, true)
        );
        // The same through slack rows, which pivots must repair: a strict
        // cycle is empty, its non-strict twin is the line x = y = z.
        let cycle = |strict: bool| {
            let pairs = [("x", "y"), ("y", "z"), ("z", "x")];
            pairs
                .iter()
                .map(|(a, b)| {
                    if strict {
                        Atom::lt(x(a), x(b))
                    } else {
                        Atom::le(x(a), x(b))
                    }
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(verdicts(cycle(true)), (true, true));
        assert_eq!(verdicts(cycle(false)), (false, false));
        // 0 < x + y < 1 with x − y > 1/2: a strict open region.
        let sum = &x("x") + &x("y");
        let diff = &x("x") - &x("y");
        let half = Polynomial::constant(q(1, 2));
        assert_eq!(
            verdicts(vec![
                Atom::gt(sum.clone(), c(0)),
                Atom::lt(sum.clone(), c(1)),
                Atom::gt(diff.clone(), half.clone()),
            ]),
            (false, false)
        );
        // ... which closes to nothing once x − y must exceed 1 as well.
        assert_eq!(
            verdicts(vec![
                Atom::gt(sum.clone(), c(0)),
                Atom::lt(sum, c(1)),
                Atom::gt(diff.clone(), c(1)),
                Atom::lt(&x("y") - &x("x"), c(-1)),
                Atom::ge(x("y"), c(0)),
            ]),
            (true, true)
        );
    }

    /// Chvátal's cycling example (Linear Programming, 1983, §3), on which
    /// the textbook simplex with the largest-coefficient rule cycles: every
    /// constraint passes through the origin, so the first pivots are
    /// degenerate.  `Check` must end with the exact verdicts on it: the
    /// maximum of `10·x1 − 57·x2 − 9·x3 − 24·x4` is 1, at (1, 0, 1, 0).
    /// The test pins termination and verdicts on degenerate pivots; that
    /// `Check` terminates on every input is Bland's rule's argument.
    #[test]
    fn degenerate_cycling_system_terminates() {
        let vars = ["cy_x1", "cy_x2", "cy_x3", "cy_x4"];
        let row = |cs: [BigRational; 4]| {
            let terms: Vec<(&str, BigRational)> = vars.iter().copied().zip(cs).collect();
            lin(&terms, rat(0))
        };
        let mut base = vec![
            Atom::le_zero(row([q(1, 2), q(-11, 2), q(-5, 2), rat(9)])),
            Atom::le_zero(row([q(1, 2), q(-3, 2), q(-1, 2), rat(1)])),
            Atom::le(x(vars[0]), Polynomial::constant(rat(1))),
        ];
        base.extend(vars.iter().map(|v| Atom::ge(x(v), Polynomial::zero())));
        let objective = row([rat(10), rat(-57), rat(-9), rat(-24)]);
        for (goal, empty) in [
            (Atom::ge(objective.clone(), Polynomial::zero()), false),
            (Atom::ge(objective.clone(), Polynomial::one()), false),
            (Atom::gt(objective.clone(), Polynomial::one()), true),
            (
                Atom::eq(objective.clone(), Polynomial::constant(rat(2))),
                true,
            ),
        ] {
            let mut atoms = base.clone();
            atoms.push(goal.clone());
            assert_eq!(verdicts(atoms), (empty, empty), "objective goal {goal}");
        }
    }
}
