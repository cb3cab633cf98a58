//! # chora-logic
//!
//! The symbolic-abstraction substrate of the CHORA analysis:
//!
//! * [`Atom`] — polynomial (in)equations `p ◇ 0`,
//! * [`Polyhedron`] — conjunctions of atoms with exact-rational domain
//!   operations (satisfiability and entailment decided by a general
//!   simplex, Fourier–Motzkin projection, convex-hull join), with
//!   non-linear monomials handled by linearization into extra dimensions
//!   as in [25, Alg. 3],
//! * [`TransitionFormula`] — bounded-DNF relations between pre-state and
//!   post-state, the representation on which procedure summaries, the
//!   hypothetical summaries of Alg. 2, and the depth-bounding model of
//!   Alg. 4 are all built,
//! * [`SatMemo`] — the scoped satisfiability memo: while a [`MemoScope`]
//!   is installed (the analyzer installs one per batch), each distinct
//!   emptiness query, keyed by a 128-bit fingerprint of its verbatim atom
//!   sequence, runs the simplex once and its repeats are answered from
//!   the memo.  The answers are exact because the simplex decides emptiness
//!   exactly; outside a scope every query is decided afresh.
//!
//! In the original CHORA implementation these roles are played by Z3 plus the
//! SRK/duet wedge domain; here they are built from scratch on exact rational
//! arithmetic (see DESIGN.md for the substitution argument).
//!
//! ```
//! use chora_logic::{Atom, TransitionFormula};
//! use chora_expr::{Polynomial, Symbol};
//! use chora_numeric::rat;
//!
//! // nTicks' = nTicks + 1  composed with  nTicks' = nTicks + 1
//! let n = Symbol::new("nTicks");
//! let vars = vec![n.clone()];
//! let tick = TransitionFormula::assign(
//!     &n,
//!     &(&Polynomial::var(n.clone()) + &Polynomial::constant(rat(1))),
//!     &vars,
//! );
//! let two_ticks = tick.sequence(&tick, &vars);
//! assert!(two_ticks.implies_atom(&Atom::eq(
//!     Polynomial::var(n.primed()),
//!     &Polynomial::var(n.clone()) + &Polynomial::constant(rat(2)),
//! )));
//! ```

mod atom;
mod memo;
mod polyhedron;
mod simplex;
pub mod stats;
mod transition;

pub use atom::{Atom, AtomKind};
pub use memo::{MemoScope, SatMemo};
pub use polyhedron::Polyhedron;
pub use transition::{TransitionFormula, DEFAULT_DISJUNCT_CAP};
