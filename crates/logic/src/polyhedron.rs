//! Conjunctions of polynomial constraints, viewed as convex polyhedra over a
//! linearized dimension space.
//!
//! Following [25, Alg. 3] (and §3 of the CHORA paper), non-linear monomials
//! are treated as *additional dimensions*: the quadratic atom `x² − y ≤ 0`
//! becomes the linear atom `d_{x²} − y ≤ 0` over the dimension `d_{x²}`.
//! All domain operations — satisfiability, Fourier–Motzkin projection,
//! convex-hull join (Balas' extended formulation), entailment — are carried
//! out on the linearized view and mapped back to polynomial atoms.
//!
//! Two engines share that view.  Emptiness, the primitive every other
//! operation reaches — entailment ([`Polyhedron::implies_atom`],
//! [`Polyhedron::is_subset_of`]), joins, and the sequencing and subsumption
//! steps of transition formulas — is *decided* by the exact rational
//! simplex of `simplex.rs`, which has no budget and never over-approximates.
//! Fourier–Motzkin is the engine of *projection* ([`Polyhedron::project_onto`],
//! [`Polyhedron::eliminate`], the Balas hull of [`Polyhedron::join`]), where
//! the result is a constraint system rather than a verdict.
//! [`Polyhedron::is_empty_set`] and the per-disjunct checks of
//! `implies_atom` go through the scoped satisfiability memo
//! ([`crate::SatMemo`], which states the key and the exactness argument).
//! Outside a memo scope every query runs the simplex; the `*_naive` oracle
//! paths keep the fixed-order Fourier–Motzkin decision, budget fallback
//! included, as the differential baseline.

use crate::atom::{Atom, AtomKind};
use crate::stats::fm_stat;
use chora_expr::{LinearExpr, Monomial, Polynomial, Symbol};
use chora_numeric::{BigInt, BigRational};
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault};

/// Safety valve: when an intermediate Fourier–Motzkin system grows beyond
/// this many constraints the operation falls back to a sound but less precise
/// result (dropping constraints for projection, weak join for hulls).
const FM_CONSTRAINT_BUDGET: usize = 600;

/// A conjunction of polynomial constraint [`Atom`]s.
///
/// ```
/// use chora_logic::{Atom, Polyhedron};
/// use chora_expr::{Polynomial, Symbol};
/// use chora_numeric::rat;
/// let x = Polynomial::var(Symbol::new("x"));
/// let p = Polyhedron::from_atoms(vec![
///     Atom::ge(x.clone(), Polynomial::constant(rat(0))),
///     Atom::le(x.clone(), Polynomial::constant(rat(5))),
/// ]);
/// assert!(!p.is_empty_set());
/// assert!(p.implies_atom(&Atom::le(x, Polynomial::constant(rat(7)))));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Polyhedron {
    atoms: Vec<Atom>,
}

impl Polyhedron {
    /// The universal polyhedron (no constraints).
    pub fn universe() -> Polyhedron {
        Polyhedron { atoms: Vec::new() }
    }

    /// A polyhedron from a list of constraint atoms, each stored as
    /// [`Polyhedron::add_atom`] stores it, in order.
    pub fn from_atoms(atoms: Vec<Atom>) -> Polyhedron {
        let mut p = Polyhedron::universe();
        p.extend_atoms(atoms);
        p
    }

    /// Restores a polyhedron from a previously-observed `atoms()` list
    /// **verbatim** — no dedup or trivial-truth filtering, so the result is
    /// bit-identical to the polyhedron the list was read from (the
    /// summary-cache deserialization constructor; see
    /// [`crate::TransitionFormula::from_parts`]).
    pub fn from_parts(atoms: Vec<Atom>) -> Polyhedron {
        Polyhedron { atoms }
    }

    /// An explicitly unsatisfiable polyhedron.
    pub fn contradiction() -> Polyhedron {
        Polyhedron::from_atoms(vec![Atom::le_zero(Polynomial::one())])
    }

    /// Adds a constraint (drops trivially true constraints).  The atom is
    /// stored in its canonical scaling form ([`Atom::canonical`]), so two
    /// constraints that differ only by a positive scalar multiple dedup here
    /// instead of surviving as distinct atoms.
    pub fn add_atom(&mut self, atom: Atom) {
        if atom.trivial_truth() == Some(true) {
            return;
        }
        let atom = atom.canonical();
        if !self.atoms.contains(&atom) {
            self.atoms.push(atom);
        }
    }

    /// [`Polyhedron::add_atom`] for every atom, in order.  The duplicate
    /// check goes through a hash index of the stored atoms instead of
    /// `add_atom`'s scan, so a join's several hundred output atoms are not
    /// compared pairwise.
    fn extend_atoms(&mut self, atoms: Vec<Atom>) {
        let hash = |a: &Atom| BuildHasherDefault::<DefaultHasher>::default().hash_one(a);
        let mut first: HashMap<u64, usize> = HashMap::with_capacity(self.atoms.len() + atoms.len());
        for (i, a) in self.atoms.iter().enumerate() {
            first.entry(hash(a)).or_insert(i);
        }
        for atom in atoms {
            if atom.trivial_truth() == Some(true) {
                continue;
            }
            let atom = atom.canonical();
            match first.entry(hash(&atom)) {
                Entry::Vacant(v) => {
                    v.insert(self.atoms.len());
                    self.atoms.push(atom);
                }
                // The same atom, or (rarely) a hash collision, which the
                // scan settles.
                Entry::Occupied(o) => {
                    if self.atoms[*o.get()] != atom && !self.atoms.contains(&atom) {
                        self.atoms.push(atom);
                    }
                }
            }
        }
    }

    /// The constraint atoms.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// Number of constraints.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// Whether there are no constraints (the universal polyhedron).
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// All symbols mentioned.
    pub fn symbols(&self) -> BTreeSet<Symbol> {
        let mut out = BTreeSet::new();
        for a in &self.atoms {
            out.extend(a.symbols());
        }
        out
    }

    /// Conjunction of two polyhedra.
    pub fn conjoin(&self, other: &Polyhedron) -> Polyhedron {
        let mut out = self.clone();
        out.extend_atoms(other.atoms.clone());
        out
    }

    /// Renames symbols throughout.
    pub fn rename(&self, f: &mut impl FnMut(&Symbol) -> Symbol) -> Polyhedron {
        Polyhedron {
            atoms: self.atoms.iter().map(|a| a.rename(f)).collect(),
        }
    }

    /// Substitutes a polynomial for a symbol throughout.
    pub fn substitute(&self, s: &Symbol, replacement: &Polynomial) -> Polyhedron {
        Polyhedron::from_atoms(
            self.atoms
                .iter()
                .map(|a| a.substitute(s, replacement))
                .collect(),
        )
    }

    /// Whether the polyhedron is unsatisfiable over the rationals.
    ///
    /// Answered by the current thread's [`crate::SatMemo`] when a scope is
    /// installed and the same atom sequence was decided before.
    pub fn is_empty_set(&self) -> bool {
        crate::memo::emptiness(&self.atoms, None, || decide_empty(&self.atoms))
    }

    /// Whether every point of the polyhedron satisfies the atom.
    pub fn implies_atom(&self, atom: &Atom) -> bool {
        if atom.trivial_truth() == Some(true) {
            return true;
        }
        // P ⊨ a  iff  P ∧ ¬a is unsatisfiable, for every disjunct of ¬a.
        // The memo keys `P ∧ ¬a` by streaming, so `P` is copied only when
        // the query has to be decided.
        atom.negate().iter().all(|neg| {
            crate::memo::emptiness(&self.atoms, Some(neg), || {
                let mut with_neg = Vec::with_capacity(self.atoms.len() + 1);
                with_neg.extend_from_slice(&self.atoms);
                with_neg.push(neg.clone());
                decide_empty(&with_neg)
            })
        })
    }

    /// Whether this polyhedron is contained in `other`.
    pub fn is_subset_of(&self, other: &Polyhedron) -> bool {
        other.atoms.iter().all(|a| self.implies_atom(a))
    }

    /// Whether every point of the polyhedron satisfies *all* of the atoms:
    /// one [`Polyhedron::implies_atom`] check per goal, each decided
    /// exactly and answered from the memo when it repeats.
    pub fn implies_all(&self, goals: &[Atom]) -> bool {
        goals.iter().all(|g| self.implies_atom(g))
    }

    /// Projects onto the given symbols: the result mentions only symbols in
    /// `keep` (non-linear monomials are kept only if all their factors are
    /// kept) and over-approximates the original polyhedron.
    pub fn project_onto(&self, keep: &BTreeSet<Symbol>) -> Polyhedron {
        let _span = chora_telemetry::trace::span("fm", "fm_project");
        let pre = self.substitute_defined_symbols(|s| !keep.contains(s));
        match Linearized::new(&pre.atoms) {
            None => Polyhedron::contradiction(),
            Some(sys) => sys
                .project_keeping(|base_syms| base_syms.iter().all(|s| keep.contains(s)))
                .to_polyhedron(),
        }
    }

    /// Eliminates the given symbols (existential quantification), keeping
    /// everything else.
    pub fn eliminate(&self, drop: &BTreeSet<Symbol>) -> Polyhedron {
        let _span = chora_telemetry::trace::span("fm", "fm_eliminate");
        let pre = self.substitute_defined_symbols(|s| drop.contains(s));
        match Linearized::new(&pre.atoms) {
            None => Polyhedron::contradiction(),
            Some(sys) => sys
                .project_keeping(|base_syms| !base_syms.iter().any(|s| drop.contains(s)))
                .to_polyhedron(),
        }
    }

    /// Pre-pass used by projection: a symbol scheduled for elimination that
    /// is *defined* by a linear equality (`x = p`, `x` not in `p`) is
    /// substituted away at the polynomial level.  Unlike Fourier–Motzkin on
    /// the linearized view, substitution also reaches occurrences of the
    /// symbol inside non-linear monomials, so relations such as `i·b ≤ c`
    /// survive the elimination of `i` when `i` is fixed by an equality.
    fn substitute_defined_symbols(&self, should_eliminate: impl Fn(&Symbol) -> bool) -> Polyhedron {
        let mut atoms = self.atoms.clone();
        loop {
            let mut substitution: Option<(usize, Symbol, Polynomial)> = None;
            'search: for (i, a) in atoms.iter().enumerate() {
                if a.kind != AtomKind::Eq {
                    continue;
                }
                for s in a.symbols() {
                    if !should_eliminate(&s) {
                        continue;
                    }
                    // Needs a linear occurrence: coefficient of the monomial
                    // `s` with `s` absent from every other monomial non-linearly.
                    let m = chora_expr::Monomial::var(s);
                    let coeff = a.poly.coefficient(&m);
                    if coeff.is_zero() {
                        continue;
                    }
                    let rest = &a.poly - &Polynomial::term(coeff.clone(), m);
                    if rest.symbols().contains(&s) {
                        continue;
                    }
                    let replacement = rest.scale(&(-coeff).recip());
                    substitution = Some((i, s, replacement));
                    break 'search;
                }
            }
            match substitution {
                None => break,
                Some((i, s, replacement)) => {
                    atoms.remove(i);
                    atoms = atoms
                        .into_iter()
                        .map(|a| a.substitute(&s, &replacement))
                        .collect();
                }
            }
        }
        Polyhedron::from_atoms(atoms)
    }

    /// Convex-hull join (the ⊔ of Alg. 1).
    ///
    /// Uses Balas' extended formulation projected by Fourier–Motzkin; if the
    /// intermediate system exceeds the constraint budget, falls back to the
    /// sound *weak join* (mutually implied constraints).
    pub fn join(&self, other: &Polyhedron) -> Polyhedron {
        if self.is_empty_set() {
            return other.clone();
        }
        if other.is_empty_set() {
            return self.clone();
        }
        if let Some(hull) = self.try_exact_join(other) {
            return hull;
        }
        self.weak_join(other)
    }

    fn try_exact_join(&self, other: &Polyhedron) -> Option<Polyhedron> {
        // Both operands must agree on the dimension symbol of every shared
        // non-linear monomial, so a joint dimension table is built up front.
        let dim_table = Linearized::dim_table(self.atoms.iter().chain(other.atoms.iter()));
        let left = Linearized::new_with_dims(&self.atoms, dim_table.clone())?;
        let right = Linearized::new_with_dims(&other.atoms, dim_table)?;
        // Collect the union of dimensions.
        let mut dims: BTreeSet<Symbol> = BTreeSet::new();
        dims.extend(left.dims());
        dims.extend(right.dims());
        if dims.len() > 24 {
            return None;
        }
        // Operation-local scratch symbols: `λ` and one copy `z_d` per
        // dimension, all eliminated before this function returns.  Scratch
        // ids are assigned in dimension order, so the construction is fully
        // deterministic (the former implementation drew from the global
        // fresh-symbol counter).
        let lambda = Symbol::scratch(0);
        let mut z_names: BTreeMap<Symbol, Symbol> = BTreeMap::new();
        for (i, d) in dims.iter().enumerate() {
            z_names.insert(*d, Symbol::scratch(1 + i as u32));
        }
        let mut constraints: Vec<(LinearExpr, AtomKind)> = Vec::new();
        // P1 constraints on y = x - z, scaled by λ:  Σ aᵢ(xᵢ - zᵢ) + c·λ ◇ 0
        for (expr, kind) in left.constraints() {
            let mut e = LinearExpr::constant(BigRational::zero());
            for (s, c) in expr.coefficients() {
                e.add_coefficient(*s, c.clone());
                e.add_coefficient(z_names[s], -c.clone());
            }
            e.add_coefficient(lambda, expr.constant_term().clone());
            constraints.push((e, *kind));
        }
        // P2 constraints on z, scaled by (1-λ):  Σ bᵢ zᵢ + c·(1-λ) ◇ 0
        for (expr, kind) in right.constraints() {
            let mut e = LinearExpr::constant(expr.constant_term().clone());
            for (s, c) in expr.coefficients() {
                e.add_coefficient(z_names[s], c.clone());
            }
            e.add_coefficient(lambda, -expr.constant_term().clone());
            constraints.push((e, *kind));
        }
        // 0 ≤ λ ≤ 1
        constraints.push((
            LinearExpr::var(lambda).scale(&-BigRational::one()),
            AtomKind::Le,
        ));
        constraints.push((
            LinearExpr::var(lambda) + LinearExpr::constant(-BigRational::one()),
            AtomKind::Le,
        ));
        // Eliminate z's and λ; abort to the weak join if an intermediate
        // system overruns the budget.
        let mut to_drop: Vec<Symbol> = z_names.values().cloned().collect();
        to_drop.push(lambda);
        let mut sys = left.with_constraints(constraints, &right);
        if !sys.project(&to_drop, Some(FM_CONSTRAINT_BUDGET)) {
            return None;
        }
        Some(sys.to_polyhedron())
    }

    /// Weak join: constraints of either operand that are implied by the other.
    pub fn weak_join(&self, other: &Polyhedron) -> Polyhedron {
        let mut out = Polyhedron::universe();
        for a in &self.atoms {
            if other.implies_atom(a) {
                out.add_atom(a.clone());
            } else if a.kind == AtomKind::Eq {
                // An equality may weaken to a one-sided inequality.
                let le = Atom::le_zero(a.poly.clone());
                let ge = Atom::le_zero(-&a.poly);
                if other.implies_atom(&le) {
                    out.add_atom(le);
                }
                if other.implies_atom(&ge) {
                    out.add_atom(ge);
                }
            }
        }
        for a in &other.atoms {
            if self.implies_atom(a) {
                out.add_atom(a.clone());
            } else if a.kind == AtomKind::Eq {
                let le = Atom::le_zero(a.poly.clone());
                let ge = Atom::le_zero(-&a.poly);
                if self.implies_atom(&le) {
                    out.add_atom(le);
                }
                if self.implies_atom(&ge) {
                    out.add_atom(ge);
                }
            }
        }
        out
    }

    /// All upper bounds the polyhedron places on the symbol `s`
    /// (constraints of the form `s ≤ p` with `s` not occurring in `p`).
    pub fn upper_bounds_on(&self, s: &Symbol) -> Vec<Polynomial> {
        let mut out = Vec::new();
        for a in &self.atoms {
            match a.kind {
                AtomKind::Le | AtomKind::Lt => {
                    if let Some(b) = a.upper_bound_on(s) {
                        out.push(b);
                    }
                }
                AtomKind::Eq => {
                    if let Some(b) = Atom::le_zero(a.poly.clone()).upper_bound_on(s) {
                        out.push(b);
                    } else if let Some(b) = Atom::le_zero(-&a.poly).upper_bound_on(s) {
                        out.push(b);
                    }
                }
            }
        }
        out
    }

    /// Normalizes the constraint list: removes duplicates, trivially-true
    /// atoms, and inequalities subsumed by a tighter parallel inequality.
    pub fn simplify(&self) -> Polyhedron {
        match Linearized::new(&self.atoms) {
            None => Polyhedron::contradiction(),
            Some(sys) => sys.to_polyhedron(),
        }
    }

    /// The pre-optimization projection baseline: fixed elimination order, no
    /// canonical-row hashing, no domination pruning, no Imbert acceleration.
    /// Kept as the differential-testing oracle and the benchmark baseline;
    /// not part of the public API.
    #[doc(hidden)]
    pub fn project_onto_naive(&self, keep: &BTreeSet<Symbol>) -> Polyhedron {
        let pre = self.substitute_defined_symbols(|s| !keep.contains(s));
        match Linearized::new(&pre.atoms) {
            None => Polyhedron::contradiction(),
            Some(sys) => sys
                .naive_project(|base_syms| base_syms.iter().all(|s| keep.contains(s)))
                .to_polyhedron(),
        }
    }

    /// Baseline satisfiability via fixed-order elimination (see
    /// [`Polyhedron::project_onto_naive`]).
    #[doc(hidden)]
    pub fn is_empty_set_naive(&self) -> bool {
        match Linearized::new(&self.atoms) {
            None => true,
            Some(sys) => sys.naive_is_unsat(),
        }
    }

    /// Baseline entailment via [`Polyhedron::is_empty_set_naive`].
    #[doc(hidden)]
    pub fn implies_atom_naive(&self, atom: &Atom) -> bool {
        if atom.trivial_truth() == Some(true) {
            return true;
        }
        atom.negate().iter().all(|neg| {
            let mut with_neg = self.clone();
            with_neg.atoms.push(neg.clone());
            with_neg.is_empty_set_naive()
        })
    }
}

/// Emptiness of a verbatim atom sequence by linearization and the exact
/// simplex — the unmemoized decision procedure.
fn decide_empty(atoms: &[Atom]) -> bool {
    match linearize_atoms(atoms, &Linearized::dim_table(atoms.iter())) {
        None => true,
        Some(rows) => crate::simplex::is_unsat(&rows),
    }
}

/// The linear rows of `atoms` over the dimension table `dim_of`, trivially
/// true atoms skipped; `None` if a trivially false one is present.
fn linearize_atoms(
    atoms: &[Atom],
    dim_of: &BTreeMap<Monomial, Symbol>,
) -> Option<Vec<(LinearExpr, AtomKind)>> {
    let mut rows = Vec::with_capacity(atoms.len());
    for a in atoms {
        match a.trivial_truth() {
            Some(true) => continue,
            Some(false) => return None,
            None => rows.push((linearize_poly(&a.poly, dim_of), a.kind)),
        }
    }
    Some(rows)
}

/// The linear view of `p`: each non-linear monomial becomes its dimension
/// symbol from `dim_of`.
fn linearize_poly(p: &Polynomial, dim_of: &BTreeMap<Monomial, Symbol>) -> LinearExpr {
    let mut out = LinearExpr::constant(BigRational::zero());
    for (m, c) in p.terms() {
        if m.is_one() {
            out.add_constant(c);
        } else if m.degree() == 1 {
            let (s, _) = m.powers().next().expect("degree-1 monomial has a symbol");
            out.add_coefficient(*s, c.clone());
        } else {
            let dim = *dim_of
                .get(m)
                .expect("dimension table covers every non-linear monomial");
            out.add_coefficient(dim, c.clone());
        }
    }
    out
}

impl fmt::Display for Polyhedron {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.atoms.is_empty() {
            return write!(f, "true");
        }
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Polyhedron {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// A linearized constraint system: polynomial atoms become linear constraints
/// over base symbols plus one dimension symbol per non-linear monomial.
///
/// Dimension symbols are *operation-local*: every entry point collects the
/// non-linear monomials of its input atoms and assigns [`Symbol::dimension`]
/// ids in monomial order, so the mapping is a deterministic function of the
/// inputs (the former implementation interned a rendered `$dim[m]` name per
/// monomial, paying a string allocation and a global interner lookup per
/// non-linear term).
struct Linearized {
    /// dimension symbol -> the non-linear monomial it represents
    mono_dims: BTreeMap<Symbol, Monomial>,
    /// the non-linear monomial -> its dimension symbol
    dim_of: BTreeMap<Monomial, Symbol>,
    /// linear constraints `expr ◇ 0`
    constraints: Vec<(LinearExpr, AtomKind)>,
    /// marker set when a trivially-false constraint is encountered
    unsat: bool,
}

/// Reusable buffers for [`Linearized::naive_eliminate_dim`].
///
/// One scratch lives for a whole fixed-order elimination pass, so the
/// pos/neg partition and the output row list keep their allocations across
/// dimensions instead of being rebuilt per dimension.  The third tuple
/// field is the (positive) coefficient the combination step multiplies the
/// opposite row by; the rows themselves are stored with the eliminated
/// dimension already stripped.
#[derive(Default)]
struct FmScratch {
    pos: Vec<(LinearExpr, AtomKind, BigRational)>,
    neg: Vec<(LinearExpr, AtomKind, BigRational)>,
    out: Vec<(LinearExpr, AtomKind)>,
}

/// Imbert ancestor set of a derived row: which of the pass's input rows it
/// is a nonnegative combination of.  Exact for the first 128 input rows;
/// beyond that `overflow` makes [`Ancestors::at_least`] a lower bound, which
/// only ever *weakens* the pruning (a combination is skipped only when even
/// the known part of its history already exceeds Imbert's bound).
#[derive(Clone, Copy, Default)]
struct Ancestors {
    bits: u128,
    overflow: bool,
}

impl Ancestors {
    fn origin(i: usize) -> Ancestors {
        if i < 128 {
            Ancestors {
                bits: 1u128 << i,
                overflow: false,
            }
        } else {
            Ancestors {
                bits: 0,
                overflow: true,
            }
        }
    }

    fn union(a: Ancestors, b: Ancestors) -> Ancestors {
        Ancestors {
            bits: a.bits | b.bits,
            overflow: a.overflow || b.overflow,
        }
    }

    /// A lower bound on the cardinality of the ancestor set.
    fn at_least(self) -> usize {
        self.bits.count_ones() as usize + self.overflow as usize
    }
}

/// Certified `a ⊆ b`: both sets must be exact, because an overflowed side
/// hides members the bit view cannot compare.  This is the test the
/// slot-collision rules use — Kohler completeness composes through row
/// replacement only when the survivor's ancestor *set* is contained in the
/// dying row's (`|A ∪ C| ≤ |A' ∪ C|` needs `A ⊆ A'`; a mere cardinality
/// comparison does not survive the union with a sibling's history).
fn anc_subset(a: Ancestors, b: Ancestors) -> bool {
    !a.overflow && !b.overflow && a.bits & !b.bits == 0
}

/// The set of dimensions a derived row has lost along its derivation —
/// eliminated explicitly by the pass *or* cancelled accidentally by a
/// combination step.  Kohler's redundancy criterion compares the ancestor
/// count against `1 + |gone|` **per row**; the explicit elimination count
/// alone under-states `|gone|` whenever a cancellation happens, which is why
/// this is tracked exactly.  The direction of safety is the opposite of
/// [`Ancestors`]: `overflow` here means the count is *unknown*, so the
/// pruning test must be declined rather than approximated.
#[derive(Clone, Copy, Default)]
struct GoneDims {
    bits: u128,
    overflow: bool,
}

impl GoneDims {
    fn union(a: GoneDims, b: GoneDims) -> GoneDims {
        GoneDims {
            bits: a.bits | b.bits,
            overflow: a.overflow || b.overflow,
        }
    }

    /// Marks one dimension (by its pass-wide bit index) as gone; `None`
    /// (a dimension past the 128-bit window) poisons the set.
    fn insert(&mut self, bit: Option<usize>) {
        match bit {
            Some(i) if i < 128 => self.bits |= 1u128 << i,
            _ => self.overflow = true,
        }
    }

    /// The exact cardinality, or `None` when the set overflowed and only a
    /// lower bound is known (unusable for Kohler's test).
    fn exact(self) -> Option<usize> {
        (!self.overflow).then(|| self.bits.count_ones() as usize)
    }
}

/// One live constraint of a projection pass: a canonical row plus its
/// derivation certificate — the Imbert ancestor set and gone-dimension set.
///
/// **Certificate poisoning.**  Kohler's skip is only complete if, for every
/// facet of the projection, some surviving lineage keeps a within-bound
/// history: the textbook argument threads facets through extreme-ray
/// derivations whose histories stay under the bound at every step, and that
/// argument composes through row replacement only when the survivor's
/// ancestor set is a *subset* of the dying row's ([`anc_subset`]).
/// Constant-domination freely violates this — it keeps one row per
/// coefficient vector and drops looser parallel rows whose distinct
/// histories a later contradiction may need (pure Fourier–Motzkin keeps
/// both, which is why the counting criteria are usually stated without
/// domination).  So at every slot collision where the surviving
/// certificate is not certifiably contained in the dying one — or either
/// side is already tainted — the survivor's `gone` set is poisoned
/// (`overflow = true`): its descendants are exempt from the counting skip,
/// while every other pruning layer still applies.  Poison is sticky (it
/// propagates through [`GoneDims::union`] and is inherited across
/// replacements), which keeps the skip sound at the price of firing less
/// often on domination-heavy systems.
struct FmRow {
    expr: LinearExpr,
    kind: AtomKind,
    anc: Ancestors,
    gone: GoneDims,
}

/// Scales a row so its coefficient vector is the unique coprime-integer
/// representative of its ray (the constant term may stay rational).
/// Positive scalar multiples of the same constraint thereby become identical
/// rows, which is what lets [`RowStore`] dedup and dominate them by hashing.
/// Equations are deliberately *not* sign-flipped here — downstream bound
/// extraction reads their orientation — the sign convention lives in the
/// hash key instead (see [`RowStore::insert`]).  The caller guarantees the
/// row is not constant.
fn canonicalize_row(expr: &mut LinearExpr) {
    let mut lcm = BigInt::one();
    for (_, c) in expr.coefficients() {
        lcm = lcm.lcm(c.denom());
    }
    if !lcm.is_one() {
        *expr = expr.scale(&BigRational::from_integer(lcm));
    }
    let mut gcd = BigInt::zero();
    for (_, c) in expr.coefficients() {
        gcd = gcd.gcd(c.numer());
    }
    let k = BigRational::from_integer(gcd).recip();
    if !k.is_one() {
        *expr = expr.scale(&k);
    }
}

/// Whether an equation's stored orientation is flipped relative to its
/// canonical hash-key orientation (least symbol's coefficient positive).
/// `p = 0` and `-p = 0` are the same constraint, so both must land in the
/// same [`RowStore`] bucket; inequalities never flip.
fn eq_key_flipped(row: &FmRow) -> bool {
    row.kind == AtomKind::Eq
        && row
            .expr
            .coefficients()
            .next()
            .is_some_and(|(_, c)| c.is_negative())
}

/// The row's constant term read in key orientation (negated for flipped
/// equations), so parallel rows compare on a common orientation.
fn oriented_const(row: &FmRow) -> BigRational {
    if eq_key_flipped(row) {
        -row.expr.constant_term().clone()
    } else {
        row.expr.constant_term().clone()
    }
}

/// The redundancy-controlled constraint set of a projection pass.
///
/// Every inserted row is brought to canonical form first (see
/// [`canonicalize_row`]), so rows that are positive scalar multiples of one
/// another collide.  The store then keeps at most one row per linear part:
/// syntactic duplicates are dropped (hash-consing), parallel inequalities
/// keep only the tighter constant (quasi-syntactic domination), an equation
/// absorbs the parallel inequalities it implies, and contradictory parallel
/// rows flip the store to `unsat` — the early exit of a projection pass, and
/// the ground-contradiction check of [`Linearized::new`].
///
/// Kill-or-replace decisions go through the `index` HashMap, but the map is
/// never iterated: surviving rows are read back in insertion order, so every
/// result is deterministic.
#[derive(Default)]
struct RowStore {
    /// Rows in insertion order; `None` marks a dominated (killed) row.
    rows: Vec<Option<FmRow>>,
    /// Number of live rows.
    live: usize,
    /// Canonical linear part (constant zeroed) -> index of its live row.
    index: HashMap<LinearExpr, usize>,
    /// Set when two parallel rows contradict or a ground-false row arrives.
    unsat: bool,
}

impl RowStore {
    fn with_capacity(n: usize) -> RowStore {
        RowStore {
            rows: Vec::with_capacity(n),
            live: 0,
            index: HashMap::with_capacity(n),
            unsat: false,
        }
    }

    /// Whether `diff ◇ 0` holds, for the slack between parallel rows.
    fn slack_holds(diff: &BigRational, kind: AtomKind) -> bool {
        match kind {
            AtomKind::Le => !diff.is_positive(),
            AtomKind::Lt => diff.is_negative(),
            AtomKind::Eq => diff.is_zero(),
        }
    }

    /// Resolves a slot's certificate after an exact duplicate arrived: the
    /// same constraint now has two derivations and either certificate is
    /// valid for it, so keep whichever ancestor set is contained in the
    /// other.  Incomparable sets, or taint on either side, poison the slot
    /// (see the note on [`FmRow`]).
    fn dedup_cert(kept: &mut FmRow, dup: &FmRow) {
        let tainted = kept.gone.overflow || dup.gone.overflow;
        if anc_subset(dup.anc, kept.anc) {
            kept.anc = dup.anc;
            kept.gone = dup.gone;
        } else if !anc_subset(kept.anc, dup.anc) {
            kept.gone.overflow = true;
        }
        kept.gone.overflow |= tainted;
    }

    /// Poisons the surviving row of a domination kill unless its ancestor
    /// set is certifiably contained in the dying row's untainted one —
    /// the only case in which Kohler completeness survives the kill (see
    /// the note on [`FmRow`]).
    fn domination_cert(survivor: &mut FmRow, dying: &FmRow) {
        if !anc_subset(survivor.anc, dying.anc) || dying.gone.overflow {
            survivor.gone.overflow = true;
        }
    }

    /// Inserts a row, resolving it against the store's row with the same
    /// linear part (if any).  `canonical` says the expression is already in
    /// canonical form and need not be re-scaled.
    fn insert(&mut self, mut row: FmRow, canonical: bool) {
        if self.unsat {
            return;
        }
        if row.expr.is_constant() {
            if !Self::slack_holds(row.expr.constant_term(), row.kind) {
                self.unsat = true;
            }
            return;
        }
        if !canonical {
            canonicalize_row(&mut row.expr);
        }
        let mut key = if eq_key_flipped(&row) {
            row.expr.scale(&-BigRational::one())
        } else {
            row.expr.clone()
        };
        let neg_const = -key.constant_term().clone();
        key.add_constant(&neg_const);
        match self.index.entry(key) {
            Entry::Vacant(v) => {
                v.insert(self.rows.len());
                self.rows.push(Some(row));
                self.live += 1;
            }
            Entry::Occupied(mut o) => {
                let id = *o.get();
                let prev = self.rows[id].as_ref().expect("index points at live rows");
                match (prev.kind, row.kind) {
                    (AtomKind::Eq, AtomKind::Eq) => {
                        // `p = 0` and `-p = 0` share a bucket; compare the
                        // constants in key orientation.
                        if oriented_const(prev) == oriented_const(&row) {
                            Self::dedup_cert(self.rows[id].as_mut().expect("live"), &row);
                            fm_stat!(ROWS_DEDUPED);
                        } else {
                            self.unsat = true;
                        }
                    }
                    (AtomKind::Eq, _) => {
                        // prev: L + a = 0, new: L + b ◇ 0  ⇒  b − a ◇ 0
                        // (both read in key orientation).
                        let diff = row.expr.constant_term() - &oriented_const(prev);
                        if Self::slack_holds(&diff, row.kind) {
                            fm_stat!(ROWS_DOMINATED);
                            Self::domination_cert(self.rows[id].as_mut().expect("live"), &row);
                        } else {
                            self.unsat = true;
                        }
                    }
                    (_, AtomKind::Eq) => {
                        let diff = prev.expr.constant_term() - &oriented_const(&row);
                        let prev_kind = prev.kind;
                        if Self::slack_holds(&diff, prev_kind) {
                            fm_stat!(ROWS_DOMINATED);
                            Self::domination_cert(&mut row, prev);
                            self.rows[id] = None;
                            self.live -= 1;
                            o.insert(self.rows.len());
                            self.rows.push(Some(row));
                            self.live += 1;
                        } else {
                            self.unsat = true;
                        }
                    }
                    (pk, nk) => {
                        // Parallel inequalities: the larger constant is
                        // tighter; on ties a strict inequality beats a
                        // non-strict one (as the old `normalize` ruled).
                        let prev_c = prev.expr.constant_term();
                        let new_c = row.expr.constant_term();
                        let same_constant = prev_c == new_c;
                        let prev_at_least_as_tight = prev_c > new_c
                            || (same_constant && (pk == AtomKind::Lt || nk == AtomKind::Le));
                        if prev_at_least_as_tight {
                            if same_constant && pk == nk {
                                Self::dedup_cert(self.rows[id].as_mut().expect("live"), &row);
                                fm_stat!(ROWS_DEDUPED);
                            } else {
                                fm_stat!(ROWS_DOMINATED);
                                Self::domination_cert(self.rows[id].as_mut().expect("live"), &row);
                            }
                        } else {
                            fm_stat!(ROWS_DOMINATED);
                            Self::domination_cert(&mut row, prev);
                            self.rows[id] = None;
                            self.live -= 1;
                            o.insert(self.rows.len());
                            self.rows.push(Some(row));
                            self.live += 1;
                        }
                    }
                }
            }
        }
    }

    /// The live rows, in insertion order.
    fn take_rows(self) -> Vec<FmRow> {
        self.rows.into_iter().flatten().collect()
    }

    /// The live rows as constraint pairs, in insertion order.
    fn into_pairs(self) -> Vec<(LinearExpr, AtomKind)> {
        self.rows
            .into_iter()
            .flatten()
            .map(|r| (r.expr, r.kind))
            .collect()
    }
}

/// The greedy elimination choice: any dimension an equation mentions comes
/// first (substitution strictly shrinks the system), otherwise the minimizer
/// of Chvátal's growth estimate `pos·neg − (pos + neg)`; ties break toward
/// the smallest symbol, so the order is deterministic.
fn choose_dim(occ: &BTreeMap<Symbol, (i64, i64, bool)>) -> Option<Symbol> {
    let mut best: Option<(bool, i64, Symbol)> = None;
    for (s, (pos, neg, eq)) in occ {
        let cand = if *eq {
            (false, 0, *s)
        } else {
            (true, pos * neg - pos - neg, *s)
        };
        let better = match best {
            None => true,
            Some(b) => cand < b,
        };
        if better {
            best = Some(cand);
        }
    }
    best.map(|(_, _, s)| s)
}

/// Eliminates `d` from the store: by substitution through an equation when
/// one mentions `d`, otherwise by pos×neg Fourier–Motzkin combination.
/// `imbert` maps every dimension of the system to its bit in the per-row
/// [`GoneDims`] set (`None` once equality substitution has mixed Gaussian
/// steps into the ancestor accounting); a combined row is dropped when
/// Kohler's criterion — more than `1 + |gone|` ancestors — proves it
/// redundant.  Returns the new store and whether the step substituted.
fn eliminate_rows(
    store: RowStore,
    d: &Symbol,
    imbert: Option<&BTreeMap<Symbol, usize>>,
) -> (RowStore, bool) {
    let mut rows = store.take_rows();
    let mut next = RowStore::with_capacity(rows.len());
    if let Some(eq_idx) = rows
        .iter()
        .position(|r| r.kind == AtomKind::Eq && !r.expr.coefficient(d).is_zero())
    {
        let eq = rows.swap_remove(eq_idx);
        // swap_remove breaks insertion order; restore it so the surviving
        // row order (and hence every downstream result) stays deterministic.
        if eq_idx < rows.len() {
            let moved = rows.pop().expect("swap_remove left a moved row");
            rows.insert(eq_idx, moved);
        }
        let coeff = eq.expr.coefficient(d);
        let mut rest = eq.expr;
        rest.add_coefficient(*d, -coeff.clone());
        let replacement = rest.scale(&(-coeff.recip()));
        for r in rows {
            if r.expr.coefficient(d).is_zero() {
                next.insert(r, true);
            } else {
                fm_stat!(ROWS_GENERATED);
                let expr = r.expr.substitute(d, &replacement);
                next.insert(
                    FmRow {
                        expr,
                        kind: r.kind,
                        anc: Ancestors::union(r.anc, eq.anc),
                        // Substitution disables Imbert pruning for the rest
                        // of the pass, so the gone set is carried but unread.
                        gone: GoneDims::union(r.gone, eq.gone),
                    },
                    false,
                );
            }
            if next.unsat {
                break;
            }
        }
        return (next, true);
    }
    let mut pos: Vec<(LinearExpr, AtomKind, BigRational, Ancestors, GoneDims)> = Vec::new();
    let mut neg: Vec<(LinearExpr, AtomKind, BigRational, Ancestors, GoneDims)> = Vec::new();
    for r in rows {
        let c = r.expr.coefficient(d);
        if c.is_zero() {
            next.insert(r, true);
        } else {
            let mut e = r.expr;
            e.add_coefficient(*d, -c.clone());
            if c.is_positive() {
                pos.push((e, r.kind, c, r.anc, r.gone));
            } else {
                neg.push((e, r.kind, -c, r.anc, r.gone));
            }
        }
    }
    if pos.len() * neg.len() + next.live > FM_CONSTRAINT_BUDGET {
        // Over-approximate: drop every row involving d (the pre-existing
        // budget fallback).
        fm_stat!(BUDGET_FALLBACKS);
        return (next, false);
    }
    'combine: for (p_rest, pk, pc, pa, pg) in &pos {
        for (n_rest, nk, n_abs, na, ng) in &neg {
            let anc = Ancestors::union(*pa, *na);
            let combined = n_rest.scaled_sum(pc, p_rest, n_abs);
            // The combined row loses `d` plus any dimension the two parents
            // mention that cancelled accidentally in the sum; Kohler's
            // criterion needs both kinds counted, so the gone set is only
            // known after the row is materialized.
            let mut gone = GoneDims::union(*pg, *ng);
            if let Some(dims) = imbert {
                gone.insert(dims.get(d).copied());
                for (s, _) in p_rest.coefficients().chain(n_rest.coefficients()) {
                    if combined.coefficient(s).is_zero() {
                        gone.insert(dims.get(s).copied());
                    }
                }
                // Kohler: a row derived from more than `1 + |gone|` original
                // rows is a nonnegative combination of rows with smaller
                // histories, hence redundant.  The test is stated for
                // non-strict systems, so it only fires on an all-`Le`
                // derivation (`Lt` is sticky through combination), and an
                // overflowed gone set declines rather than guesses.
                if let Some(count) = gone.exact() {
                    if (*pk, *nk) == (AtomKind::Le, AtomKind::Le) && anc.at_least() > 1 + count {
                        fm_stat!(IMBERT_SKIPPED);
                        continue;
                    }
                }
            }
            fm_stat!(ROWS_GENERATED);
            let kind = match (pk, nk) {
                (AtomKind::Lt, _) | (_, AtomKind::Lt) => AtomKind::Lt,
                _ => AtomKind::Le,
            };
            next.insert(
                FmRow {
                    expr: combined,
                    kind,
                    anc,
                    gone,
                },
                false,
            );
            if next.unsat {
                break 'combine;
            }
        }
    }
    (next, false)
}

impl Linearized {
    /// Assigns a dimension symbol to every non-linear monomial occurring in
    /// the atoms, in monomial order.
    fn dim_table<'a>(atoms: impl Iterator<Item = &'a Atom>) -> BTreeMap<Monomial, Symbol> {
        let mut monomials: BTreeSet<Monomial> = BTreeSet::new();
        for a in atoms {
            for (m, _) in a.poly.terms() {
                if m.degree() > 1 {
                    monomials.insert(m.clone());
                }
            }
        }
        monomials
            .into_iter()
            .enumerate()
            .map(|(i, m)| (m, Symbol::dimension(i as u32)))
            .collect()
    }

    /// Builds the linearized view; returns `None` if a trivially false ground
    /// atom is present (caller should treat the system as unsatisfiable).
    fn new(atoms: &[Atom]) -> Option<Linearized> {
        Linearized::new_with_dims(atoms, Linearized::dim_table(atoms.iter()))
    }

    /// Builds the linearized view with a pre-assigned dimension table (used
    /// by joins, where both operands must share dimension symbols).
    fn new_with_dims(atoms: &[Atom], dim_of: BTreeMap<Monomial, Symbol>) -> Option<Linearized> {
        let constraints = linearize_atoms(atoms, &dim_of)?;
        let mut sys = Linearized {
            mono_dims: dim_of.iter().map(|(m, d)| (*d, m.clone())).collect(),
            dim_of,
            constraints,
            unsat: false,
        };
        sys.normalize();
        if sys.unsat {
            None
        } else {
            Some(sys)
        }
    }

    fn delinearize(&self, expr: &LinearExpr) -> Polynomial {
        let constant = (expr.constant_term().clone(), Monomial::one());
        let terms = expr.coefficients().map(|(s, c)| {
            let m = self.mono_dims.get(s).cloned();
            (c.clone(), m.unwrap_or_else(|| Monomial::var(*s)))
        });
        Polynomial::from_terms(std::iter::once(constant).chain(terms))
    }

    fn dims(&self) -> BTreeSet<Symbol> {
        let mut out = BTreeSet::new();
        for (e, _) in &self.constraints {
            out.extend(e.symbols());
        }
        out
    }

    fn constraints(&self) -> &[(LinearExpr, AtomKind)] {
        &self.constraints
    }

    /// Builds a new system sharing the monomial-dimension tables of `self`
    /// and `other`, with the given constraints.
    fn with_constraints(
        &self,
        constraints: Vec<(LinearExpr, AtomKind)>,
        other: &Linearized,
    ) -> Linearized {
        let mut mono_dims = self.mono_dims.clone();
        mono_dims.extend(other.mono_dims.clone());
        let mut dim_of = self.dim_of.clone();
        dim_of.extend(other.dim_of.clone());
        let mut sys = Linearized {
            mono_dims,
            dim_of,
            constraints,
            unsat: false,
        };
        sys.normalize();
        sys
    }

    /// The base (program-level) symbols a dimension depends on.
    fn base_symbols(&self, dim: &Symbol) -> Vec<Symbol> {
        match self.mono_dims.get(dim) {
            Some(m) => m.symbols().into_iter().collect(),
            None => vec![*dim],
        }
    }

    /// Canonicalizes every row and removes duplicates, trivial constraints,
    /// and parallel rows dominated by a tighter constant; detects ground and
    /// parallel contradictions (the early-unsat entry of the projection
    /// pipeline).
    fn normalize(&mut self) {
        if self.unsat {
            return;
        }
        let mut store = RowStore::with_capacity(self.constraints.len());
        for (i, (e, k)) in std::mem::take(&mut self.constraints)
            .into_iter()
            .enumerate()
        {
            store.insert(
                FmRow {
                    expr: e,
                    kind: k,
                    anc: Ancestors::origin(i),
                    gone: GoneDims::default(),
                },
                false,
            );
        }
        if store.unsat {
            self.unsat = true;
            return;
        }
        self.constraints = store.into_pairs();
    }

    /// The pre-optimization `normalize`: duplicate / trivial / parallel-
    /// subsumption filtering without canonical scaling, exactly as the fixed-
    /// order baseline ran it.  Used only by the `naive_*` oracle path.
    fn naive_normalize(&mut self) {
        // Keyed by the normalized coefficient vector (without constant).
        let mut kept: Vec<(LinearExpr, AtomKind)> = Vec::new();
        for (expr, kind) in std::mem::take(&mut self.constraints) {
            if expr.is_constant() {
                let c = expr.constant_term();
                let holds = match kind {
                    AtomKind::Le => !c.is_positive(),
                    AtomKind::Lt => c.is_negative(),
                    AtomKind::Eq => c.is_zero(),
                };
                if !holds {
                    self.unsat = true;
                    return;
                }
                continue;
            }
            kept.push((expr, kind));
        }
        // Subsumption between parallel inequalities with identical linear part.
        let mut result: Vec<(LinearExpr, AtomKind)> = Vec::new();
        'outer: for (expr, kind) in kept {
            let mut i = 0;
            while i < result.len() {
                let (prev_expr, prev_kind) = &result[i];
                if Self::same_linear_part(prev_expr, &expr) {
                    match (prev_kind, kind) {
                        (AtomKind::Eq, _) | (_, AtomKind::Eq) => {
                            // Keep both unless identical; equality handling is
                            // precision-sensitive so do not subsume.
                            if prev_expr == &expr && *prev_kind == kind {
                                continue 'outer;
                            }
                        }
                        _ => {
                            // expr + c ≤/< 0 : larger constant is tighter;
                            // on ties a strict inequality is tighter than a
                            // non-strict one.
                            let prev_c = prev_expr.constant_term();
                            let new_c = expr.constant_term();
                            let prev_at_least_as_tight = prev_c > new_c
                                || (prev_c == new_c
                                    && (*prev_kind == AtomKind::Lt || kind == AtomKind::Le));
                            if prev_at_least_as_tight {
                                continue 'outer;
                            }
                            result.remove(i);
                            continue;
                        }
                    }
                }
                i += 1;
            }
            result.push((expr, kind));
        }
        self.constraints = result;
    }

    fn same_linear_part(a: &LinearExpr, b: &LinearExpr) -> bool {
        let za = a - &LinearExpr::constant(a.constant_term().clone());
        let zb = b - &LinearExpr::constant(b.constant_term().clone());
        za == zb
    }

    /// Fixed-order Fourier–Motzkin elimination of a single dimension — the
    /// pre-optimization implementation, kept verbatim as the `naive_*`
    /// oracle.  The production path is [`Linearized::project`].
    ///
    /// When the intermediate system would exceed the constraint budget, the
    /// constraints involving the dimension are dropped instead (a sound
    /// over-approximation).
    ///
    /// `scratch` holds the pos/neg partition and output buffers; reusing one
    /// [`FmScratch`] across a whole elimination pass means the partition
    /// vectors are allocated once per pass instead of once per dimension,
    /// and each dimension's coefficient is stripped from its row exactly
    /// once (outside the pos×neg combination loop).
    fn naive_eliminate_dim(&mut self, d: &Symbol, scratch: &mut FmScratch) {
        if self.unsat {
            return;
        }
        // Prefer substitution through an equality involving d.
        if let Some(idx) = self
            .constraints
            .iter()
            .position(|(e, k)| *k == AtomKind::Eq && !e.coefficient(d).is_zero())
        {
            let (eq_expr, _) = self.constraints.remove(idx);
            let coeff = eq_expr.coefficient(d);
            // d = -(rest)/coeff
            let mut rest = eq_expr;
            rest.add_coefficient(*d, -coeff.clone());
            let replacement = rest.scale(&(-coeff.recip()));
            for (e, _) in self.constraints.iter_mut() {
                if !e.coefficient(d).is_zero() {
                    *e = e.substitute(d, &replacement);
                }
            }
            self.naive_normalize();
            return;
        }
        scratch.pos.clear();
        scratch.neg.clear();
        scratch.out.clear();
        for (mut e, k) in self.constraints.drain(..) {
            let c = e.coefficient(d);
            if c.is_zero() {
                scratch.out.push((e, k));
            } else if c.is_positive() {
                // Strip d here, once, so the stored row IS the p_rest of the
                // combination formula below.
                e.add_coefficient(*d, -c.clone());
                scratch.pos.push((e, k, c));
            } else {
                e.add_coefficient(*d, -c.clone());
                // Store |c| (= -c > 0), the factor the combination needs.
                scratch.neg.push((e, k, -c));
            }
        }
        if scratch.pos.len() * scratch.neg.len() + scratch.out.len() > FM_CONSTRAINT_BUDGET {
            // Over-approximate: drop every constraint involving d.
            std::mem::swap(&mut self.constraints, &mut scratch.out);
            self.naive_normalize();
            return;
        }
        for (p_rest, pk, pc) in &scratch.pos {
            for (n_rest, nk, n_abs) in &scratch.neg {
                // pos: pc·d + p_rest ◇ 0  (pc > 0)  =>  d ≤ -p_rest/pc (for ◇ = ≤)
                // neg: nc·d + n_rest ◇ 0  (nc < 0)  =>  d ≥ n_rest/(-nc)
                // combined:  n_rest/(-nc) ≤ -p_rest/pc
                //            pc·n_rest + (-nc)·p_rest ≤ 0
                let combined = n_rest.scaled_sum(pc, p_rest, n_abs);
                let kind = match (pk, nk) {
                    (AtomKind::Lt, _) | (_, AtomKind::Lt) => AtomKind::Lt,
                    _ => AtomKind::Le,
                };
                scratch.out.push((combined, kind));
            }
        }
        std::mem::swap(&mut self.constraints, &mut scratch.out);
        self.naive_normalize();
    }

    /// The single Fourier–Motzkin entry point: eliminates every symbol in
    /// `drop`, greedily picking at each step a dimension an equation fixes
    /// (substitution strictly shrinks the system) or, failing that, the one
    /// minimizing Chvátal's `pos·neg − pos − neg` growth estimate over the
    /// current rows.  Rows flow through a [`RowStore`] — canonical form,
    /// hash-cons dedup, domination pruning, Imbert's acceleration — and the
    /// pass stops as soon as a contradiction surfaces (`self.unsat`).
    ///
    /// With `abort_over` set, returns `false` as soon as an intermediate
    /// system exceeds that many rows (the exact-join fallback trigger);
    /// otherwise always returns `true`.
    fn project(&mut self, drop: &[Symbol], abort_over: Option<usize>) -> bool {
        if self.unsat || drop.is_empty() || self.constraints.is_empty() {
            return true;
        }
        let mut store = RowStore::with_capacity(self.constraints.len());
        for (i, (e, k)) in std::mem::take(&mut self.constraints)
            .into_iter()
            .enumerate()
        {
            // Rows are canonical here: every construction site runs
            // `normalize`, which canonicalizes through the same store.
            store.insert(
                FmRow {
                    expr: e,
                    kind: k,
                    anc: Ancestors::origin(i),
                    gone: GoneDims::default(),
                },
                true,
            );
        }
        // Every dimension of the system gets one bit in the per-row gone
        // sets; combinations only ever cancel dimensions, so the map never
        // needs to grow mid-pass.
        let mut dim_bits: BTreeMap<Symbol, usize> = BTreeMap::new();
        for row in store.rows.iter().flatten() {
            for (s, _) in row.expr.coefficients() {
                let bit = dim_bits.len();
                dim_bits.entry(*s).or_insert(bit);
            }
        }
        let mut remaining: BTreeSet<Symbol> = drop.iter().copied().collect();
        // Kohler's criterion is stated for pure pos×neg elimination; once a
        // step substitutes through an equation the ancestor accounting mixes
        // Gaussian steps in, so pruning is switched off for the rest of the
        // pass rather than argued about.
        let mut imbert_ok = true;
        while !store.unsat && !remaining.is_empty() {
            // One scan counting, per still-to-eliminate dimension, its
            // positive/negative inequality occurrences and whether an
            // equation mentions it.
            let mut occ: BTreeMap<Symbol, (i64, i64, bool)> = BTreeMap::new();
            for row in store.rows.iter().flatten() {
                for (s, c) in row.expr.coefficients() {
                    if !remaining.contains(s) {
                        continue;
                    }
                    let e = occ.entry(*s).or_insert((0, 0, false));
                    if row.kind == AtomKind::Eq {
                        e.2 = true;
                    } else if c.is_positive() {
                        e.0 += 1;
                    } else {
                        e.1 += 1;
                    }
                }
            }
            // Dimensions no row mentions are already (vacuously) eliminated.
            remaining.retain(|s| occ.contains_key(s));
            let Some(d) = choose_dim(&occ) else { break };
            remaining.remove(&d);
            let imbert = if imbert_ok { Some(&dim_bits) } else { None };
            let (next, substituted) = eliminate_rows(store, &d, imbert);
            store = next;
            if substituted {
                imbert_ok = false;
            }
            crate::stats::record_width(store.live as u64);
            if let Some(limit) = abort_over {
                if store.live > limit {
                    self.constraints = store.into_pairs();
                    return false;
                }
            }
        }
        if store.unsat {
            if !remaining.is_empty() {
                fm_stat!(EARLY_UNSAT_EXITS);
            }
            self.unsat = true;
            self.constraints.clear();
            return true;
        }
        self.constraints = store.into_pairs();
        true
    }

    /// Projects onto the dimensions whose base symbols all satisfy `keep`,
    /// routing through [`Linearized::project`].
    fn project_keeping(mut self, keep: impl Fn(&[Symbol]) -> bool) -> Linearized {
        let drop: Vec<Symbol> = self
            .dims()
            .into_iter()
            .filter(|d| !keep(&self.base_symbols(d)))
            .collect();
        self.project(&drop, None);
        self
    }

    /// Fixed-order projection — the pre-optimization oracle.
    fn naive_project(mut self, keep: impl Fn(&[Symbol]) -> bool) -> Linearized {
        let dims = self.dims();
        let mut scratch = FmScratch::default();
        for d in dims {
            let bases = self.base_symbols(&d);
            if keep(&bases) {
                continue;
            }
            self.naive_eliminate_dim(&d, &mut scratch);
            if self.unsat {
                break;
            }
        }
        self
    }

    /// Fixed-order satisfiability — the pre-optimization oracle.
    #[allow(clippy::wrong_self_convention)] // consumes self: elimination destroys the system
    fn naive_is_unsat(mut self) -> bool {
        let dims = self.dims();
        let mut scratch = FmScratch::default();
        for d in dims {
            self.naive_eliminate_dim(&d, &mut scratch);
            if self.unsat {
                return true;
            }
        }
        self.unsat
    }

    fn to_polyhedron(&self) -> Polyhedron {
        if self.unsat {
            return Polyhedron::contradiction();
        }
        // `from_atoms` brings every row to its canonical scaling.
        let atoms = self.constraints.iter().map(|(e, k)| Atom {
            poly: self.delinearize(e),
            kind: *k,
        });
        Polyhedron::from_atoms(atoms.collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chora_numeric::rat;

    fn var(name: &str) -> Polynomial {
        Polynomial::var(Symbol::new(name))
    }
    fn c(v: i64) -> Polynomial {
        Polynomial::constant(rat(v))
    }

    #[test]
    fn satisfiability_basic() {
        let p = Polyhedron::from_atoms(vec![Atom::ge(var("x"), c(0)), Atom::le(var("x"), c(5))]);
        assert!(!p.is_empty_set());
        let q = Polyhedron::from_atoms(vec![Atom::ge(var("x"), c(6)), Atom::le(var("x"), c(5))]);
        assert!(q.is_empty_set());
        assert!(Polyhedron::contradiction().is_empty_set());
        assert!(!Polyhedron::universe().is_empty_set());
    }

    #[test]
    fn satisfiability_strict() {
        let p = Polyhedron::from_atoms(vec![Atom::gt(var("x"), c(5)), Atom::lt(var("x"), c(6))]);
        // Rational satisfiable (5 < x < 6).
        assert!(!p.is_empty_set());
        let q = Polyhedron::from_atoms(vec![Atom::gt(var("x"), c(5)), Atom::lt(var("x"), c(5))]);
        assert!(q.is_empty_set());
        let r = Polyhedron::from_atoms(vec![Atom::ge(var("x"), c(5)), Atom::lt(var("x"), c(5))]);
        assert!(r.is_empty_set());
    }

    #[test]
    fn satisfiability_chained() {
        // x <= y, y <= z, z <= x - 1 is unsat
        let p = Polyhedron::from_atoms(vec![
            Atom::le(var("x"), var("y")),
            Atom::le(var("y"), var("z")),
            Atom::le(var("z"), &var("x") - &c(1)),
        ]);
        assert!(p.is_empty_set());
        // ... but z <= x + 1 is fine
        let q = Polyhedron::from_atoms(vec![
            Atom::le(var("x"), var("y")),
            Atom::le(var("y"), var("z")),
            Atom::le(var("z"), &var("x") + &c(1)),
        ]);
        assert!(!q.is_empty_set());
    }

    #[test]
    fn implication() {
        let p =
            Polyhedron::from_atoms(vec![Atom::ge(var("x"), c(1)), Atom::le(var("x"), var("y"))]);
        assert!(p.implies_atom(&Atom::ge(var("y"), c(1))));
        assert!(p.implies_atom(&Atom::ge(var("y"), var("x"))));
        assert!(!p.implies_atom(&Atom::ge(var("x"), c(2))));
        assert!(p.implies_atom(&Atom::gt(var("y"), c(0))));
    }

    #[test]
    fn implication_with_equalities() {
        let p = Polyhedron::from_atoms(vec![
            Atom::eq(var("x"), &var("y") + &c(1)),
            Atom::eq(var("y"), c(3)),
        ]);
        assert!(p.implies_atom(&Atom::eq(var("x"), c(4))));
        assert!(!p.implies_atom(&Atom::eq(var("x"), c(5))));
    }

    #[test]
    fn projection_transitive_bound() {
        // x <= y, y <= 5  projected onto {x}  =>  x <= 5
        let p =
            Polyhedron::from_atoms(vec![Atom::le(var("x"), var("y")), Atom::le(var("y"), c(5))]);
        let keep: BTreeSet<Symbol> = [Symbol::new("x")].into_iter().collect();
        let proj = p.project_onto(&keep);
        assert!(proj.implies_atom(&Atom::le(var("x"), c(5))));
        assert!(proj.symbols().iter().all(|s| s == &Symbol::new("x")));
    }

    #[test]
    fn projection_keeps_nonlinear_dims_over_kept_symbols() {
        // x^2 <= y, y <= 9 : the x^2 dimension survives projection because
        // its only base symbol is x.
        let x2 = &var("x") * &var("x");
        let p = Polyhedron::from_atoms(vec![
            Atom::le(x2.clone(), var("y")),
            Atom::le(var("y"), c(9)),
        ]);
        let keep_xy: BTreeSet<Symbol> = [Symbol::new("x"), Symbol::new("y")].into_iter().collect();
        let proj = p.project_onto(&keep_xy);
        assert!(proj.implies_atom(&Atom::le(x2.clone(), c(9))));
        let keep_x: BTreeSet<Symbol> = [Symbol::new("x")].into_iter().collect();
        let proj_x = p.project_onto(&keep_x);
        assert!(proj_x.implies_atom(&Atom::le(x2, c(9))));
    }

    #[test]
    fn eliminate_single_symbol() {
        let p = Polyhedron::from_atoms(vec![
            Atom::eq(var("mid"), &var("x") + &c(1)),
            Atom::eq(var("y"), &var("mid") + &c(1)),
        ]);
        let drop: BTreeSet<Symbol> = [Symbol::new("mid")].into_iter().collect();
        let out = p.eliminate(&drop);
        assert!(out.implies_atom(&Atom::eq(var("y"), &var("x") + &c(2))));
        assert!(!out.symbols().contains(&Symbol::new("mid")));
    }

    #[test]
    fn join_intervals() {
        // hull of [0,1] and [3,4] is [0,4]
        let a = Polyhedron::from_atoms(vec![Atom::ge(var("x"), c(0)), Atom::le(var("x"), c(1))]);
        let b = Polyhedron::from_atoms(vec![Atom::ge(var("x"), c(3)), Atom::le(var("x"), c(4))]);
        let hull = a.join(&b);
        assert!(hull.implies_atom(&Atom::ge(var("x"), c(0))));
        assert!(hull.implies_atom(&Atom::le(var("x"), c(4))));
        assert!(!hull.implies_atom(&Atom::le(var("x"), c(3))));
    }

    #[test]
    fn join_points_recovers_line() {
        // hull of {x=0, y=0} and {x=1, y=1} implies x = y
        let a = Polyhedron::from_atoms(vec![Atom::eq(var("x"), c(0)), Atom::eq(var("y"), c(0))]);
        let b = Polyhedron::from_atoms(vec![Atom::eq(var("x"), c(1)), Atom::eq(var("y"), c(1))]);
        let hull = a.join(&b);
        assert!(hull.implies_atom(&Atom::eq(var("x"), var("y"))));
        assert!(hull.implies_atom(&Atom::ge(var("x"), c(0))));
        assert!(hull.implies_atom(&Atom::le(var("x"), c(1))));
    }

    #[test]
    fn join_with_empty_operand() {
        let a = Polyhedron::from_atoms(vec![Atom::eq(var("x"), c(7))]);
        let empty = Polyhedron::contradiction();
        assert_eq!(a.join(&empty).atoms().len(), a.atoms().len());
        assert_eq!(empty.join(&a).atoms().len(), a.atoms().len());
    }

    #[test]
    fn join_unbounded() {
        // hull of {x >= 0} and {x >= 2, y = 0} should still imply x >= 0.
        let a = Polyhedron::from_atoms(vec![Atom::ge(var("x"), c(0))]);
        let b = Polyhedron::from_atoms(vec![Atom::ge(var("x"), c(2)), Atom::eq(var("y"), c(0))]);
        let hull = a.join(&b);
        assert!(hull.implies_atom(&Atom::ge(var("x"), c(0))));
        assert!(!hull.implies_atom(&Atom::ge(var("x"), c(2))));
    }

    #[test]
    fn weak_join_is_sound() {
        let a = Polyhedron::from_atoms(vec![Atom::eq(var("x"), c(0))]);
        let b = Polyhedron::from_atoms(vec![Atom::eq(var("x"), c(1))]);
        let wj = a.weak_join(&b);
        // 0 <= x <= 1 must be implied (equalities weaken to inequalities).
        assert!(wj.implies_atom(&Atom::ge(var("x"), c(0))));
        assert!(wj.implies_atom(&Atom::le(var("x"), c(1))));
    }

    #[test]
    fn subset_check() {
        let small =
            Polyhedron::from_atoms(vec![Atom::ge(var("x"), c(1)), Atom::le(var("x"), c(2))]);
        let big = Polyhedron::from_atoms(vec![Atom::ge(var("x"), c(0)), Atom::le(var("x"), c(5))]);
        assert!(small.is_subset_of(&big));
        assert!(!big.is_subset_of(&small));
    }

    #[test]
    fn upper_bounds() {
        let p = Polyhedron::from_atoms(vec![
            Atom::le(var("x"), &var("n") + &c(1)),
            Atom::le(var("x").scale(&rat(2)), c(10)),
            Atom::ge(var("x"), c(0)),
        ]);
        let ubs = p.upper_bounds_on(&Symbol::new("x"));
        assert_eq!(ubs.len(), 2);
        assert!(ubs.iter().any(|b| b.to_string() == "n + 1"));
        assert!(ubs.iter().any(|b| b.to_string() == "5"));
    }

    #[test]
    fn simplify_removes_redundant_parallel_constraints() {
        let p = Polyhedron::from_atoms(vec![
            Atom::le(var("x"), c(5)),
            Atom::le(var("x"), c(9)),
            Atom::le(c(0), c(1)),
        ]);
        let s = p.simplify();
        assert_eq!(s.len(), 1);
        assert!(s.implies_atom(&Atom::le(var("x"), c(5))));
    }

    #[test]
    fn implies_all_matches_per_atom_checks() {
        let x2 = &var("x") * &var("x");
        let p = Polyhedron::from_atoms(vec![
            Atom::ge(var("x"), c(1)),
            Atom::le(var("x"), var("y")),
            Atom::le(x2.clone(), c(9)),
            Atom::eq(var("z"), &var("y") + &c(1)),
        ]);
        let goal_sets: Vec<Vec<Atom>> = vec![
            vec![Atom::ge(var("y"), c(1)), Atom::gt(var("z"), var("y"))],
            vec![Atom::le(x2.clone(), c(10)), Atom::ge(var("x"), c(1))],
            vec![Atom::ge(var("y"), c(1)), Atom::ge(var("x"), c(2))], // second fails
            vec![Atom::le(c(0), c(1))],                               // trivially true
            vec![Atom::le(c(1), c(0))],                               // trivially false
            vec![Atom::eq(var("z"), &var("y") + &c(1))],
        ];
        for goals in &goal_sets {
            let expected = goals.iter().all(|a| p.implies_atom(a));
            assert_eq!(
                p.implies_all(goals),
                expected,
                "batched and per-atom entailment disagree on {goals:?}"
            );
        }
        // An unsatisfiable polyhedron implies everything, including false.
        let empty = Polyhedron::contradiction();
        assert!(empty.implies_all(&[Atom::le(c(1), c(0))]));
        assert!(empty.implies_all(&[Atom::ge(var("q"), c(5))]));
    }

    #[test]
    fn substitution_detects_contradiction() {
        let p = Polyhedron::from_atoms(vec![Atom::le(var("x"), c(3))]);
        let q = p.substitute(&Symbol::new("x"), &c(10));
        assert!(q.is_empty_set());
    }

    #[test]
    fn rename_polyhedron() {
        let p = Polyhedron::from_atoms(vec![Atom::le(var("x"), c(3))]);
        let r = p.rename(&mut |s| s.primed());
        assert!(r.symbols().contains(&Symbol::new("x'")));
    }
}
