//! `BinaryOp::COMMUTATIVE` checked against the bits.
//!
//! Every op that sets it must carry the `CommutativeOp` marker (the
//! bound of [`commutes_bitwise`]), set `ASSOCIATIVE` too (only
//! associative `⊕` lanes read it) and give `a ∘ b` and `b ∘ a` with
//! identical bits — `to_bits` for floats, structural equality for every
//! other carrier — on samples that include ties, zero and the carrier's
//! extremes (±∞ where the carrier has them). Finite carriers are checked
//! exhaustively. The float `Max`/`Min` that leave it unset get a `±0`
//! witness instead.

use aarray_algebra::ops::{
    And, Gcd, Intersect, Max, Min, Or, Plus, SymDiff, Times, TimesTop, Union, Xor,
};
use aarray_algebra::values::bstr::BStr;
use aarray_algebra::values::chain::Chain;
use aarray_algebra::values::nat::Nat;
use aarray_algebra::values::nn::{nn, NN};
use aarray_algebra::values::powerset::PowerSet;
use aarray_algebra::values::tropical::{trop, Tropical};
use aarray_algebra::values::unit::{unit, Unit};
use aarray_algebra::values::wordset::WordSet;
use aarray_algebra::values::zn::Zn;
use aarray_algebra::values::RandomValue;
use aarray_algebra::{BinaryOp, CommutativeOp, FiniteValueSet, Value};
use rand::SeedableRng;
use std::fmt::Debug;

/// Asserts that `O` sets `COMMUTATIVE` and `ASSOCIATIVE`, and that
/// `a ∘ b` and `b ∘ a` have equal `bits` for every ordered pair of
/// samples, each sample paired with itself too.
fn commutes_bitwise<V, O, B>(samples: &[V], bits: impl Fn(&V) -> B)
where
    V: Value,
    O: CommutativeOp<V>,
    B: PartialEq + Debug,
{
    let carrier = std::any::type_name::<V>();
    assert!(
        O::COMMUTATIVE && O::ASSOCIATIVE,
        "{} on {carrier} must set COMMUTATIVE and ASSOCIATIVE",
        O::NAME
    );
    let op = O::default();
    for a in samples {
        for b in samples {
            assert_eq!(
                bits(&op.apply(a, b)),
                bits(&op.apply(b, a)),
                "{} on {carrier}: {a:?}, {b:?}",
                O::NAME
            );
        }
    }
}

/// `extremes` followed by boundary-biased random draws (which repeat
/// values, so ties occur between distinct samples as well).
fn samples<V: RandomValue>(extremes: Vec<V>) -> Vec<V> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(29);
    let mut all = extremes;
    all.extend(V::sample_batch(&mut rng, 40));
    all
}

#[test]
fn float_ops_that_set_commutative_commute_bit_for_bit() {
    let nns = samples(vec![
        NN::ZERO,
        NN::new(-0.0).unwrap(),
        NN::INF,
        nn(1.0),
        nn(0.1),
        nn(f64::MIN_POSITIVE / 4.0),
        nn(1e300),
    ]);
    let bits = |v: &NN| v.get().to_bits();
    commutes_bitwise::<NN, Times, _>(&nns, bits);
    commutes_bitwise::<NN, TimesTop, _>(&nns, bits);
    commutes_bitwise::<NN, Max, _>(&nns, bits);
    commutes_bitwise::<NN, Min, _>(&nns, bits);
}

#[test]
fn exact_carriers_commute_bit_for_bit() {
    let nats = samples(vec![
        Nat(0),
        Nat(1),
        Nat(6),
        Nat(u64::MAX - 1),
        Nat(u64::MAX),
    ]);
    let same = |v: &Nat| *v;
    commutes_bitwise::<Nat, Plus, _>(&nats, same);
    commutes_bitwise::<Nat, Times, _>(&nats, same);
    commutes_bitwise::<Nat, TimesTop, _>(&nats, same);
    commutes_bitwise::<Nat, Max, _>(&nats, same);
    commutes_bitwise::<Nat, Min, _>(&nats, same);
    commutes_bitwise::<Nat, Gcd, _>(&nats, same);
    commutes_bitwise::<Nat, Xor, _>(&nats, same);

    let ints = samples(vec![0i64, 1, -1, i64::MIN, i64::MAX]);
    commutes_bitwise::<i64, Max, _>(&ints, |v| *v);
    commutes_bitwise::<i64, Min, _>(&ints, |v| *v);

    let strs = samples(vec![
        BStr::Bot,
        BStr::Top,
        BStr::word(""),
        BStr::word("pop"),
    ]);
    commutes_bitwise::<BStr, Max, _>(&strs, BStr::clone);
    commutes_bitwise::<BStr, Min, _>(&strs, BStr::clone);

    let words = samples(vec![
        WordSet::All,
        WordSet::empty(),
        WordSet::of(["a", "b"]),
        WordSet::of(["b"]),
    ]);
    commutes_bitwise::<WordSet, Union, _>(&words, WordSet::clone);
    commutes_bitwise::<WordSet, Intersect, _>(&words, WordSet::clone);
}

#[test]
fn finite_carriers_commute_bit_for_bit_exhaustively() {
    let bools = bool::enumerate_all();
    commutes_bitwise::<bool, Or, _>(&bools, |v| *v);
    commutes_bitwise::<bool, And, _>(&bools, |v| *v);
    commutes_bitwise::<bool, Xor, _>(&bools, |v| *v);

    let chain = Chain::<5>::enumerate_all();
    commutes_bitwise::<Chain<5>, Max, _>(&chain, |v| *v);
    commutes_bitwise::<Chain<5>, Min, _>(&chain, |v| *v);

    let zn = Zn::<7>::enumerate_all();
    commutes_bitwise::<Zn<7>, Plus, _>(&zn, |v| *v);
    commutes_bitwise::<Zn<7>, Times, _>(&zn, |v| *v);

    let sets = PowerSet::<3>::enumerate_all();
    commutes_bitwise::<PowerSet<3>, Union, _>(&sets, |v| *v);
    commutes_bitwise::<PowerSet<3>, Intersect, _>(&sets, |v| *v);
    commutes_bitwise::<PowerSet<3>, SymDiff, _>(&sets, |v| *v);
}

/// Tropical and Unit accept `-0.0`, and their `Max` returns `b` on a
/// tie (`Min` returns `a`), so the sign of a zero result follows the
/// argument order: commutative under `==`, not in the bits. NN folds
/// `-0.0` into `+0.0` at construction, so its `Max`/`Min` have no such
/// witness.
#[test]
fn float_max_min_with_signed_zeros_are_not_bitwise_commutative() {
    fn witness<V: Value + Copy, O: BinaryOp<V>>(neg: V, pos: V, bits: impl Fn(V) -> u64) {
        assert_eq!(neg, pos, "±0 are equal as values");
        assert_ne!(
            bits(O::default().apply(&neg, &pos)),
            bits(O::default().apply(&pos, &neg)),
            "{} on ±0",
            O::NAME
        );
        assert!(!O::COMMUTATIVE, "{} must not set COMMUTATIVE", O::NAME);
    }
    witness::<Tropical, Max>(trop(-0.0), trop(0.0), |v| v.get().to_bits());
    witness::<Unit, Max>(unit(-0.0), unit(0.0), |v| v.get().to_bits());
    witness::<Unit, Min>(unit(-0.0), unit(0.0), |v| v.get().to_bits());

    let neg = NN::new(-0.0).unwrap();
    assert_eq!(neg.get().to_bits(), NN::ZERO.get().to_bits());
}
