//! The scoped satisfiability memo; see [`SatMemo`].

use crate::atom::Atom;
use crate::stats::fm_stat;
use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;
use std::sync::{Arc, Mutex, PoisonError};

/// Emptiness verdicts keyed by atom-sequence fingerprint, shared by the
/// threads of one analysis batch.
///
/// Every domain operation of the analysis — sequencing, hull, subsumption,
/// entailment — ends in [`Polyhedron::is_empty_set`](crate::Polyhedron),
/// and within one analysis more than half of those queries repeat an
/// earlier one atom for atom.  A memo records each verdict once and
/// answers the repeats.
///
/// **Key.**  A 128-bit fingerprint of the polyhedron's *verbatim* atom
/// sequence — its length, then every atom's structural `Hash` — taken by
/// two differently seeded SipHash passes fed in one walk.  `Atom`'s hash
/// is length-prefixed at every level (terms, powers, limbs), so the byte
/// stream identifies the sequence; a collision is as unlikely as one among
/// the 128-bit content keys of the summary store.  Keys are not clones of
/// the atoms, so an entry has a fixed size however large the query.
///
/// **Exactness.**  Emptiness is decided by the exact rational simplex,
/// which never touches the Fourier–Motzkin constraint budget: its verdict
/// is the true emptiness of the atoms' linear relaxation, a function of the
/// atom *set* that no ordering, duplicate, or fallback can change.  A
/// memoized verdict is therefore exactly the verdict a recomputation would
/// produce.  (The key still spells out the verbatim sequence; a canonical
/// sorted key would be equally exact, and would only hit more often.)
///
/// **Scope.**  A memo is consulted only while a [`MemoScope`] guard for it
/// is alive on the querying thread.  The analyzer creates one memo per
/// batch, installs it at batch entry and in every worker thread, and drops
/// it when the batch returns, so nothing is shared across analyses (the
/// per-analysis work counts stay reproducible) and memory never grows past
/// one batch.  Outside any scope queries run exactly as without a memo.
///
/// ```
/// use chora_logic::{Atom, Polyhedron, SatMemo};
/// use chora_expr::{Polynomial, Symbol};
/// use chora_numeric::rat;
/// use std::sync::Arc;
///
/// let x = Polynomial::var(Symbol::new("x"));
/// let p = Polyhedron::from_atoms(vec![Atom::ge(x, Polynomial::constant(rat(0)))]);
/// let memo = Arc::new(SatMemo::default());
/// {
///     let _scope = memo.enter();
///     assert!(!p.is_empty_set()); // decided, then recorded
///     assert!(!p.is_empty_set()); // answered by the memo
/// }
/// assert_eq!(memo.len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct SatMemo {
    verdicts: Mutex<HashMap<u128, bool>>,
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<SatMemo>>> = const { RefCell::new(None) };
}

impl SatMemo {
    /// Installs this memo for the current thread until the returned guard
    /// drops (which reinstates whatever scope was active before).
    pub fn enter(self: &Arc<Self>) -> MemoScope {
        let prev = CURRENT.with(|c| c.borrow_mut().replace(Arc::clone(self)));
        MemoScope {
            prev,
            _thread_bound: PhantomData,
        }
    }

    /// The memo installed on the current thread, if any — what a thread
    /// fanning work out to helpers hands them to [`SatMemo::enter`].
    pub fn current() -> Option<Arc<SatMemo>> {
        CURRENT.with(|c| c.borrow().clone())
    }

    /// Number of recorded verdicts.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether no verdict has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<u128, bool>> {
        // The lock is never held across a decision, so a poisoned map can
        // only hold complete entries.
        self.verdicts.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// RAII guard of an installed [`SatMemo`]; see [`SatMemo::enter`].  Bound
/// to the thread it was created on, since it restores that thread's state.
#[must_use = "the memo is uninstalled when the scope guard drops"]
pub struct MemoScope {
    prev: Option<Arc<SatMemo>>,
    _thread_bound: PhantomData<*const ()>,
}

impl Drop for MemoScope {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

/// Answers the emptiness of the conjunction `atoms ∧ extra` through the
/// current thread's memo, running `decide` only on a miss (or outside any
/// scope).  `extra` lets an entailment check key `P ∧ ¬a` without building
/// it: the fingerprint streams `atoms` then `extra` exactly as it would
/// the concatenated sequence.
pub(crate) fn emptiness(
    atoms: &[Atom],
    extra: Option<&Atom>,
    decide: impl FnOnce() -> bool,
) -> bool {
    fm_stat!(SAT_QUERIES);
    let Some(memo) = SatMemo::current() else {
        return decide();
    };
    let key = fingerprint(atoms, extra);
    if let Some(&verdict) = memo.lock().get(&key) {
        fm_stat!(SAT_MEMO_HITS);
        return verdict;
    }
    let verdict = decide();
    memo.lock().insert(key, verdict);
    verdict
}

/// The 128-bit fingerprint of the sequence `atoms ++ extra`.
fn fingerprint(atoms: &[Atom], extra: Option<&Atom>) -> u128 {
    let mut h = PairHasher::default();
    (atoms.len() + extra.is_some() as usize).hash(&mut h);
    for a in atoms.iter().chain(extra) {
        a.hash(&mut h);
    }
    ((h.lo.finish() as u128) << 64) | h.hi.finish() as u128
}

/// Two SipHash states fed the same stream; the second is seeded by a
/// leading constant so the halves are independent hash functions.
struct PairHasher {
    lo: DefaultHasher,
    hi: DefaultHasher,
}

impl Default for PairHasher {
    fn default() -> Self {
        let mut hi = DefaultHasher::new();
        hi.write_u64(0x9e37_79b9_7f4a_7c15);
        PairHasher {
            lo: DefaultHasher::new(),
            hi,
        }
    }
}

impl Hasher for PairHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.lo.write(bytes);
        self.hi.write(bytes);
    }

    fn finish(&self) -> u64 {
        self.lo.finish() ^ self.hi.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chora_expr::{Polynomial, Symbol};
    use chora_numeric::rat;

    fn le(name: &str, c: i64) -> Atom {
        Atom::le(
            Polynomial::var(Symbol::new(name)),
            Polynomial::constant(rat(c)),
        )
    }

    #[test]
    fn streamed_extra_atom_keys_like_the_concatenation() {
        let atoms = vec![le("x", 1), le("y", 2)];
        let both = vec![le("x", 1), le("y", 2), le("z", 3)];
        assert_eq!(
            fingerprint(&atoms, Some(&le("z", 3))),
            fingerprint(&both, None)
        );
        assert_ne!(fingerprint(&atoms, None), fingerprint(&both, None));
        // Order is part of the key: the memo stores verbatim sequences.
        let swapped = vec![le("y", 2), le("x", 1)];
        assert_ne!(fingerprint(&atoms, None), fingerprint(&swapped, None));
    }

    #[test]
    fn scopes_nest_and_restore() {
        let outer = Arc::new(SatMemo::default());
        let inner = Arc::new(SatMemo::default());
        assert!(SatMemo::current().is_none());
        {
            let _o = outer.enter();
            {
                let _i = inner.enter();
                assert!(Arc::ptr_eq(&SatMemo::current().unwrap(), &inner));
                assert!(!emptiness(&[le("x", 1)], None, || false));
            }
            assert!(Arc::ptr_eq(&SatMemo::current().unwrap(), &outer));
        }
        assert!(SatMemo::current().is_none());
        assert_eq!((outer.len(), inner.len()), (0, 1));
    }

    #[test]
    fn a_recorded_verdict_answers_without_deciding() {
        let memo = Arc::new(SatMemo::default());
        let scope = memo.enter();
        let atoms = [le("x", 1)];
        assert!(emptiness(&atoms, None, || true));
        assert!(emptiness(&atoms, None, || unreachable!(
            "memo hit expected"
        )));
        // Outside the scope nothing is recorded or consulted.
        drop(scope);
        assert!(!emptiness(&atoms, None, || false));
        assert_eq!(memo.len(), 1);
    }
}
