//! Multivariate polynomials over ℚ.
//!
//! A *relational expression* in the paper (§3) is a polynomial over the
//! program variables `Var ∪ Var'`; candidate bounded terms, recurrence
//! right-hand sides, and closed forms are all represented with
//! [`Polynomial`].
//!
//! Both [`Monomial`] and [`Polynomial`] store their entries as vectors kept
//! sorted by the interned-[`Symbol`] order: with integer symbol ids the
//! comparisons behind every merge and lookup are single integer compares, and
//! the flat layout keeps term traversal cache-friendly (the previous
//! `BTreeMap<Symbol, _>` representation paid a pointer chase and a string
//! compare per node).

use crate::linear::LinearExpr;
use crate::merge::merge_sorted;
use crate::symbol::Symbol;
use chora_numeric::{BigInt, BigRational, SmallVec};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// Power-product storage: monomials in real programs rarely involve more
/// than three variables, so they live inline (no heap allocation).
type Powers = SmallVec<(Symbol, u32), 3>;

/// A power product of symbols, e.g. `x^2·y` (the empty monomial is `1`).
///
/// Invariant: entries are sorted by symbol and exponents are positive.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Monomial(Powers);

impl Monomial {
    /// The unit monomial `1`.
    pub fn one() -> Monomial {
        Monomial(Powers::new())
    }

    /// The monomial consisting of a single variable.
    pub fn var(s: Symbol) -> Monomial {
        let mut powers = Powers::new();
        powers.push((s, 1));
        Monomial(powers)
    }

    /// Builds a monomial from `(symbol, exponent)` pairs; zero exponents are
    /// dropped.
    pub fn from_powers(powers: impl IntoIterator<Item = (Symbol, u32)>) -> Monomial {
        let mut entries: Powers = powers.into_iter().filter(|(_, e)| *e > 0).collect();
        entries.sort_by_key(|(s, _)| *s);
        let mut merged = Powers::new();
        for &(s, e) in entries.as_slice() {
            match merged.last_mut() {
                Some((prev, acc)) if *prev == s => *acc += e,
                _ => merged.push((s, e)),
            }
        }
        Monomial(merged)
    }

    /// Whether this is the unit monomial.
    pub fn is_one(&self) -> bool {
        self.0.is_empty()
    }

    /// Total degree.
    pub fn degree(&self) -> u32 {
        self.0.iter().map(|(_, e)| e).sum()
    }

    /// Exponent of `s` in this monomial.
    pub fn exponent(&self, s: &Symbol) -> u32 {
        match self.0.binary_search_by_key(s, |(sym, _)| *sym) {
            Ok(i) => self.0[i].1,
            Err(_) => 0,
        }
    }

    /// Iterator over `(symbol, exponent)` pairs.
    pub fn powers(&self) -> impl Iterator<Item = (&Symbol, u32)> {
        self.0.iter().map(|(s, e)| (s, *e))
    }

    /// The set of symbols occurring in the monomial.
    pub fn symbols(&self) -> BTreeSet<Symbol> {
        self.0.iter().map(|(s, _)| *s).collect()
    }

    /// Product of two monomials (a sorted merge; exponents add, and never
    /// cancel since both sides are positive).
    pub fn mul(&self, other: &Monomial) -> Monomial {
        Monomial(merge_sorted(&self.0, &other.0, |e| *e, |x, y| Some(x + y)))
    }

    /// Whether the monomial is linear (a single variable to the first power)
    /// or constant.
    pub fn is_linear(&self) -> bool {
        self.degree() <= 1
    }

    /// The powers with resolved names, in name order — the canonical key used
    /// wherever output must not depend on interner assignment order.
    fn named_powers(&self) -> Vec<(String, u32)> {
        let mut named: Vec<(String, u32)> =
            self.0.iter().map(|(s, e)| (s.to_string(), *e)).collect();
        named.sort();
        named
    }
}

impl fmt::Display for Monomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_one() {
            return write!(f, "1");
        }
        for (i, (name, e)) in self.named_powers().iter().enumerate() {
            if i > 0 {
                write!(f, "·")?;
            }
            if *e == 1 {
                write!(f, "{name}")?;
            } else {
                write!(f, "{name}^{e}")?;
            }
        }
        Ok(())
    }
}

impl fmt::Debug for Monomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// A multivariate polynomial with rational coefficients.
///
/// ```
/// use chora_expr::{Polynomial, Symbol};
/// use chora_numeric::rat;
/// let x = Polynomial::var(Symbol::new("x"));
/// let p = &(&x * &x) + &Polynomial::constant(rat(1)); // x^2 + 1
/// assert_eq!(p.to_string(), "x^2 + 1");
/// assert_eq!(p.degree(), 2);
/// ```
/// Term storage: the constraint polynomials the analysis juggles are mostly
/// one or two terms, which stay inline.
type Terms = SmallVec<(Monomial, BigRational), 2>;

#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Polynomial {
    /// Invariant: sorted by monomial, no zero coefficients stored.
    terms: Terms,
}

impl Polynomial {
    /// The zero polynomial.
    pub fn zero() -> Polynomial {
        Polynomial {
            terms: Terms::new(),
        }
    }

    /// The constant polynomial `1`.
    pub fn one() -> Polynomial {
        Polynomial::constant(BigRational::one())
    }

    /// A constant polynomial.
    pub fn constant(c: BigRational) -> Polynomial {
        let mut terms = Terms::new();
        if !c.is_zero() {
            terms.push((Monomial::one(), c));
        }
        Polynomial { terms }
    }

    /// The polynomial consisting of a single variable.
    pub fn var(s: Symbol) -> Polynomial {
        let mut terms = Terms::new();
        terms.push((Monomial::var(s), BigRational::one()));
        Polynomial { terms }
    }

    /// A single term `c·m`.
    pub fn term(c: BigRational, m: Monomial) -> Polynomial {
        let mut terms = Terms::new();
        if !c.is_zero() {
            terms.push((m, c));
        }
        Polynomial { terms }
    }

    /// Builds a polynomial from `(coefficient, monomial)` pairs in one
    /// sort-and-merge pass: repeated monomials add up, zero sums drop out.
    pub fn from_terms(iter: impl IntoIterator<Item = (BigRational, Monomial)>) -> Polynomial {
        let mut terms: Terms = iter.into_iter().map(|(c, m)| (m, c)).collect();
        terms.sort_by(|a, b| a.0.cmp(&b.0));
        let mut merged = Terms::with_capacity(terms.len());
        for (m, c) in terms {
            match merged.last_mut() {
                Some((prev, acc)) if *prev == m => *acc += &c,
                _ => merged.push((m, c)),
            }
        }
        merged.retain(|(_, c)| !c.is_zero());
        Polynomial { terms: merged }
    }

    /// Whether this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// Whether the polynomial is a constant (possibly zero).
    pub fn is_constant(&self) -> bool {
        self.terms.iter().all(|(m, _)| m.is_one())
    }

    /// Returns the constant value if the polynomial is constant.
    pub fn as_constant(&self) -> Option<BigRational> {
        if self.is_constant() {
            Some(self.constant_term())
        } else {
            None
        }
    }

    /// The coefficient of the unit monomial.
    pub fn constant_term(&self) -> BigRational {
        self.coefficient(&Monomial::one())
    }

    /// The coefficient of an arbitrary monomial.
    pub fn coefficient(&self, m: &Monomial) -> BigRational {
        match self.terms.binary_search_by(|(tm, _)| tm.cmp(m)) {
            Ok(i) => self.terms[i].1.clone(),
            Err(_) => BigRational::zero(),
        }
    }

    /// Iterator over `(monomial, coefficient)` pairs.
    pub fn terms(&self) -> impl Iterator<Item = (&Monomial, &BigRational)> {
        self.terms.iter().map(|(m, c)| (m, c))
    }

    /// Number of terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the polynomial has no terms (i.e. is zero).
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Total degree (0 for constants and for the zero polynomial).
    pub fn degree(&self) -> u32 {
        self.terms
            .iter()
            .map(|(m, _)| m.degree())
            .max()
            .unwrap_or(0)
    }

    /// Degree in a specific symbol.
    pub fn degree_in(&self, s: &Symbol) -> u32 {
        self.terms
            .iter()
            .map(|(m, _)| m.exponent(s))
            .max()
            .unwrap_or(0)
    }

    /// All symbols occurring in the polynomial.
    pub fn symbols(&self) -> BTreeSet<Symbol> {
        let mut set = BTreeSet::new();
        for (m, _) in &self.terms {
            set.extend(m.symbols());
        }
        set
    }

    /// Whether every monomial has degree ≤ 1.
    pub fn is_linear(&self) -> bool {
        self.terms.iter().all(|(m, _)| m.is_linear())
    }

    /// Converts to a linear expression if the polynomial is linear.
    pub fn as_linear(&self) -> Option<LinearExpr> {
        if !self.is_linear() {
            return None;
        }
        let mut lin = LinearExpr::constant(self.constant_term());
        for (m, c) in &self.terms {
            if m.is_one() {
                continue;
            }
            let (sym, _) = m.powers().next().expect("non-unit monomial has a symbol");
            lin.add_coefficient(*sym, c.clone());
        }
        Some(lin)
    }

    fn add_term(&mut self, c: &BigRational, m: &Monomial) {
        if c.is_zero() {
            return;
        }
        match self.terms.binary_search_by(|(tm, _)| tm.cmp(m)) {
            Ok(i) => {
                self.terms[i].1 += c;
                if self.terms[i].1.is_zero() {
                    self.terms.remove(i);
                }
            }
            Err(i) => self.terms.insert(i, (m.clone(), c.clone())),
        }
    }

    /// Multiplies the polynomial by a scalar.
    pub fn scale(&self, c: &BigRational) -> Polynomial {
        if c.is_zero() {
            return Polynomial::zero();
        }
        Polynomial {
            terms: self.terms.iter().map(|(m, k)| (m.clone(), k * c)).collect(),
        }
    }

    /// Raises the polynomial to a non-negative integer power.
    pub fn pow(&self, e: u32) -> Polynomial {
        let mut acc = Polynomial::one();
        for _ in 0..e {
            acc = &acc * self;
        }
        acc
    }

    /// Substitutes a polynomial for a symbol.
    pub fn substitute(&self, s: &Symbol, replacement: &Polynomial) -> Polynomial {
        let mut out = Polynomial::zero();
        for (m, c) in &self.terms {
            let e = m.exponent(s);
            if e == 0 {
                out.add_term(c, m);
                continue;
            }
            let rest = Monomial::from_powers(
                m.powers()
                    .filter(|(sym, _)| *sym != s)
                    .map(|(sym, k)| (*sym, k)),
            );
            let expanded = replacement.pow(e);
            for (m2, c2) in &expanded.terms {
                out.add_term(&(c * c2), &rest.mul(m2));
            }
        }
        out
    }

    /// Simultaneously renames symbols according to `f`.
    pub fn rename(&self, f: &mut impl FnMut(&Symbol) -> Symbol) -> Polynomial {
        let mut out = Polynomial::zero();
        for (m, c) in &self.terms {
            let renamed = Monomial::from_powers(m.powers().map(|(s, e)| (f(s), e)));
            out.add_term(c, &renamed);
        }
        out
    }

    /// Evaluates the polynomial with the given assignment.
    ///
    /// Returns `None` if some symbol is missing from the assignment.
    pub fn eval(&self, assignment: &BTreeMap<Symbol, BigRational>) -> Option<BigRational> {
        let mut acc = BigRational::zero();
        for (m, c) in &self.terms {
            let mut term = c.clone();
            for (s, e) in m.powers() {
                let v = assignment.get(s)?;
                term = &term * &v.pow(e as i32);
            }
            acc += &term;
        }
        Some(acc)
    }

    /// Evaluates a univariate polynomial at an integer point.
    ///
    /// # Panics
    ///
    /// Panics if the polynomial mentions a symbol other than `s`.
    pub fn eval_univariate(&self, s: &Symbol, x: &BigRational) -> BigRational {
        let mut assignment = BTreeMap::new();
        assignment.insert(*s, x.clone());
        for sym in self.symbols() {
            assert_eq!(&sym, s, "eval_univariate: unexpected symbol {sym}");
        }
        self.eval(&assignment)
            .expect("assignment covers the only symbol")
    }

    /// Clears denominators: returns `(k, p)` with `k > 0` integer such that
    /// `k·self = p` and `p` has integer coefficients.
    pub fn clear_denominators(&self) -> (BigInt, Polynomial) {
        let mut lcm = BigInt::one();
        for (_, c) in &self.terms {
            lcm = lcm.lcm(c.denom());
        }
        let k = BigRational::from_integer(lcm.clone());
        (lcm, self.scale(&k))
    }
}

/// Linear merge of two sorted term lists; `negate_right` turns the merge
/// into a subtraction.  (Inserting term-by-term through `add_term` would
/// cost a mid-`Vec` memmove per term.)
fn merge_terms(a: &Polynomial, b: &Polynomial, negate_right: bool) -> Polynomial {
    let signed = |c: &BigRational| if negate_right { -c.clone() } else { c.clone() };
    Polynomial {
        terms: merge_sorted(
            &a.terms,
            &b.terms,
            |c| signed(c),
            |x, y| {
                let sum = x + &signed(y);
                (!sum.is_zero()).then_some(sum)
            },
        ),
    }
}

impl Add for &Polynomial {
    type Output = Polynomial;
    fn add(self, other: &Polynomial) -> Polynomial {
        merge_terms(self, other, false)
    }
}

impl Add for Polynomial {
    type Output = Polynomial;
    fn add(self, other: Polynomial) -> Polynomial {
        &self + &other
    }
}

impl Sub for &Polynomial {
    type Output = Polynomial;
    fn sub(self, other: &Polynomial) -> Polynomial {
        merge_terms(self, other, true)
    }
}

impl Sub for Polynomial {
    type Output = Polynomial;
    fn sub(self, other: Polynomial) -> Polynomial {
        &self - &other
    }
}

impl Neg for &Polynomial {
    type Output = Polynomial;
    fn neg(self) -> Polynomial {
        self.scale(&-BigRational::one())
    }
}

impl Neg for Polynomial {
    type Output = Polynomial;
    fn neg(self) -> Polynomial {
        -&self
    }
}

impl Mul for &Polynomial {
    type Output = Polynomial;
    fn mul(self, other: &Polynomial) -> Polynomial {
        let mut out = Polynomial::zero();
        for (m1, c1) in &self.terms {
            for (m2, c2) in &other.terms {
                out.add_term(&(c1 * c2), &m1.mul(m2));
            }
        }
        out
    }
}

impl Mul for Polynomial {
    type Output = Polynomial;
    fn mul(self, other: Polynomial) -> Polynomial {
        &self * &other
    }
}

impl fmt::Display for Polynomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        // Display highest-degree terms first, then in name order — stable no
        // matter in which order the process happened to intern the symbols.
        let mut terms: Vec<(&Monomial, &BigRational)> = self.terms().collect();
        terms.sort_by_cached_key(|(m, _)| (std::cmp::Reverse(m.degree()), m.named_powers()));
        let mut first = true;
        for (m, c) in terms {
            let (sign, mag) = if c.is_negative() {
                ("-", c.abs())
            } else {
                ("+", c.clone())
            };
            if first {
                if sign == "-" {
                    write!(f, "-")?;
                }
                first = false;
            } else {
                write!(f, " {sign} ")?;
            }
            if m.is_one() {
                write!(f, "{mag}")?;
            } else if mag.is_one() {
                write!(f, "{m}")?;
            } else {
                write!(f, "{mag}·{m}")?;
            }
        }
        Ok(())
    }
}

impl fmt::Debug for Polynomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl From<LinearExpr> for Polynomial {
    fn from(lin: LinearExpr) -> Polynomial {
        let mut p = Polynomial::constant(lin.constant_term().clone());
        for (s, c) in lin.coefficients() {
            p.add_term(c, &Monomial::var(*s));
        }
        p
    }
}

impl From<&LinearExpr> for Polynomial {
    fn from(lin: &LinearExpr) -> Polynomial {
        Polynomial::from(lin.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chora_numeric::rat;

    fn x() -> Polynomial {
        Polynomial::var(Symbol::new("x"))
    }
    fn y() -> Polynomial {
        Polynomial::var(Symbol::new("y"))
    }

    #[test]
    fn arithmetic_and_display() {
        let p = &(&x() * &x()) + &(&y().scale(&rat(2)) + &Polynomial::constant(rat(-3)));
        assert_eq!(p.to_string(), "x^2 + 2·y - 3");
        assert_eq!(p.degree(), 2);
        assert_eq!(p.degree_in(&Symbol::new("x")), 2);
        assert_eq!(p.degree_in(&Symbol::new("y")), 1);
        let q = &p - &p;
        assert!(q.is_zero());
        assert_eq!(q.to_string(), "0");
    }

    #[test]
    fn cancellation_removes_terms() {
        let p = &x() + &(-&x());
        assert!(p.is_zero());
        assert_eq!(p.len(), 0);
    }

    #[test]
    fn multiplication_expands() {
        // (x + 1)(x - 1) = x^2 - 1
        let p = &(&x() + &Polynomial::one()) * &(&x() - &Polynomial::one());
        assert_eq!(p.to_string(), "x^2 - 1");
        assert_eq!(p.coefficient(&Monomial::var(Symbol::new("x"))), rat(0));
    }

    #[test]
    fn substitution() {
        // p = x^2 + y, substitute x := y + 1  ->  y^2 + 3y + 1... check
        let p = &(&x() * &x()) + &y();
        let subst = p.substitute(&Symbol::new("x"), &(&y() + &Polynomial::one()));
        // (y+1)^2 + y = y^2 + 3y + 1
        let expected = &(&(&y() * &y()) + &y().scale(&rat(3))) + &Polynomial::one();
        assert_eq!(subst, expected);
    }

    #[test]
    fn rename_symbols() {
        let p = &x() + &y();
        let renamed = p.rename(&mut |s| Symbol::new(&format!("{s}_r")));
        assert_eq!(renamed.to_string(), "x_r + y_r");
    }

    #[test]
    fn evaluation() {
        let p = &(&x() * &y()) + &Polynomial::constant(rat(5));
        let mut env = BTreeMap::new();
        env.insert(Symbol::new("x"), rat(3));
        env.insert(Symbol::new("y"), rat(-2));
        assert_eq!(p.eval(&env), Some(rat(-1)));
        env.remove(&Symbol::new("y"));
        assert_eq!(p.eval(&env), None);
    }

    #[test]
    fn eval_univariate() {
        let h = Symbol::new("h");
        let p = Polynomial::var(h).pow(2);
        assert_eq!(p.eval_univariate(&h, &rat(4)), rat(16));
    }

    #[test]
    fn linear_conversion() {
        let p = &x().scale(&rat(2)) + &Polynomial::constant(rat(7));
        let lin = p.as_linear().unwrap();
        assert_eq!(lin.coefficient(&Symbol::new("x")), rat(2));
        assert_eq!(lin.constant_term(), &rat(7));
        assert_eq!(Polynomial::from(lin), p);
        let nonlinear = &x() * &x();
        assert!(nonlinear.as_linear().is_none());
    }

    #[test]
    fn constants_and_degree() {
        assert!(Polynomial::zero().is_constant());
        assert_eq!(Polynomial::zero().degree(), 0);
        assert_eq!(Polynomial::constant(rat(4)).as_constant(), Some(rat(4)));
        assert_eq!(x().as_constant(), None);
    }

    #[test]
    fn clear_denominators() {
        let p = x().scale(&chora_numeric::ratio(2, 3))
            + Polynomial::constant(chora_numeric::ratio(1, 2));
        let (k, q) = p.clear_denominators();
        assert_eq!(k, chora_numeric::int(6));
        assert_eq!(q.to_string(), "4·x + 3");
    }

    #[test]
    fn pow() {
        let p = &x() + &Polynomial::one();
        assert_eq!(p.pow(0), Polynomial::one());
        assert_eq!(p.pow(2).to_string(), "x^2 + 2·x + 1");
    }

    #[test]
    fn monomial_merge_and_lookup() {
        let m = Monomial::from_powers([
            (Symbol::new("y"), 1),
            (Symbol::new("x"), 1),
            (Symbol::new("x"), 1),
            (Symbol::new("z"), 0),
        ]);
        assert_eq!(m.degree(), 3);
        assert_eq!(m.exponent(&Symbol::new("x")), 2);
        assert_eq!(m.exponent(&Symbol::new("z")), 0);
        assert_eq!(m.to_string(), "x^2·y");
        assert_eq!(
            m.mul(&Monomial::var(Symbol::new("y"))).to_string(),
            "x^2·y^2"
        );
    }
}
