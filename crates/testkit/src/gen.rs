//! Composable generators over the choice tape.
//!
//! A [`Gen<T>`] is a pure function from a [`Source`] to a `T`. Combinators
//! (`map`, `flat_map`, [`vec_of`], [`zip2`]…) compose generators without any
//! type registry, and because every generator consumes only tape choices,
//! shrinking and corpus replay come for free for *every* composed type.
//!
//! All primitive generators map the zero choice to their simplest value —
//! `lo` for ranges, `false` for bools, the empty vec for [`vec_of`] — so
//! lexicographically smaller tapes decode to simpler values. The shrinker
//! relies on exactly that ordering.

use std::ops::RangeInclusive;
use std::rc::Rc;

use crate::source::Source;

/// A composable generator: a pure function from choice tape to value.
pub struct Gen<T> {
    run: Rc<dyn Fn(&mut Source) -> T>,
}

impl<T> Clone for Gen<T> {
    fn clone(&self) -> Self {
        Gen { run: Rc::clone(&self.run) }
    }
}

impl<T: 'static> Gen<T> {
    /// Wraps a raw generation function.
    pub fn from_fn(f: impl Fn(&mut Source) -> T + 'static) -> Self {
        Gen { run: Rc::new(f) }
    }

    /// Generates one value, drawing choices from `src`.
    pub fn generate(&self, src: &mut Source) -> T {
        (self.run)(src)
    }

    /// Applies `f` to every generated value.
    pub fn map<U: 'static>(&self, f: impl Fn(T) -> U + 'static) -> Gen<U> {
        let g = self.clone();
        Gen::from_fn(move |src| f(g.generate(src)))
    }

    /// Feeds each generated value into a dependent generator.
    pub fn flat_map<U: 'static>(&self, f: impl Fn(T) -> Gen<U> + 'static) -> Gen<U> {
        let g = self.clone();
        Gen::from_fn(move |src| f(g.generate(src)).generate(src))
    }
}

/// Any `u64`, uniformly.
pub fn u64_any() -> Gen<u64> {
    Gen::from_fn(Source::next_choice)
}

/// A `u64` in the inclusive range, with the zero choice mapping to `lo`.
///
/// # Panics
///
/// Panics if the range is empty.
pub fn u64_in(range: RangeInclusive<u64>) -> Gen<u64> {
    let (lo, hi) = (*range.start(), *range.end());
    assert!(lo <= hi, "empty range {lo}..={hi}");
    Gen::from_fn(move |src| {
        let choice = src.next_choice();
        match hi - lo {
            u64::MAX => choice,
            span => lo + choice % (span + 1),
        }
    })
}

/// A `usize` in the inclusive range.
///
/// # Panics
///
/// Panics if the range is empty.
pub fn usize_in(range: RangeInclusive<usize>) -> Gen<usize> {
    u64_in(*range.start() as u64..=*range.end() as u64).map(|v| v as usize)
}

/// A uniform `f64` in `[0, 1)` with 53-bit resolution. Monotone in the raw
/// choice, so lowering a choice lowers the value.
pub fn f64_unit() -> Gen<f64> {
    Gen::from_fn(|src| (src.next_choice() >> 11) as f64 / (1u64 << 53) as f64)
}

/// A uniform `f64` in `[lo, hi)` (degenerate ranges yield `lo`).
///
/// # Panics
///
/// Panics if the bounds are non-finite or inverted.
pub fn f64_in(lo: f64, hi: f64) -> Gen<f64> {
    assert!(lo.is_finite() && hi.is_finite() && lo <= hi, "bad float range {lo}..{hi}");
    f64_unit().map(move |u| lo + u * (hi - lo))
}

/// A uniform bool (zero choice maps to `false`).
pub fn bool_any() -> Gen<bool> {
    Gen::from_fn(|src| src.next_choice() & 1 == 1)
}

/// One of the given values, uniformly; earlier entries are simpler.
///
/// # Panics
///
/// Panics if `options` is empty.
pub fn one_of<T: Clone + 'static>(options: Vec<T>) -> Gen<T> {
    assert!(!options.is_empty(), "one_of requires at least one option");
    let index = usize_in(0..=options.len() - 1);
    Gen::from_fn(move |src| options[index.generate(src)].clone())
}

/// A vec of `item`s with a length drawn from `len`.
///
/// # Panics
///
/// Panics if the length range is empty.
pub fn vec_of<T: 'static>(item: &Gen<T>, len: RangeInclusive<usize>) -> Gen<Vec<T>> {
    let item = item.clone();
    let len_gen = usize_in(len);
    Gen::from_fn(move |src| {
        let n = len_gen.generate(src);
        (0..n).map(|_| item.generate(src)).collect()
    })
}

/// A uniform permutation of `0..len` (the all-zero tape yields identity).
pub fn permutation(len: usize) -> Gen<Vec<usize>> {
    Gen::from_fn(move |src| {
        let mut perm: Vec<usize> = (0..len).collect();
        for i in (1..len).rev() {
            // `i - (choice % (i+1))` keeps Fisher-Yates uniform while mapping
            // the zero choice to a no-op swap, so the zero tape is identity.
            let j = i - (src.next_choice() % (i as u64 + 1)) as usize;
            perm.swap(i, j);
        }
        perm
    })
}

/// Pairs up two generators.
pub fn zip2<A: 'static, B: 'static>(a: &Gen<A>, b: &Gen<B>) -> Gen<(A, B)> {
    let (a, b) = (a.clone(), b.clone());
    Gen::from_fn(move |src| (a.generate(src), b.generate(src)))
}

/// Triples up three generators.
pub fn zip3<A: 'static, B: 'static, C: 'static>(
    a: &Gen<A>,
    b: &Gen<B>,
    c: &Gen<C>,
) -> Gen<(A, B, C)> {
    let (a, b, c) = (a.clone(), b.clone(), c.clone());
    Gen::from_fn(move |src| (a.generate(src), b.generate(src), c.generate(src)))
}

/// Quadruples up four generators.
pub fn zip4<A: 'static, B: 'static, C: 'static, D: 'static>(
    a: &Gen<A>,
    b: &Gen<B>,
    c: &Gen<C>,
    d: &Gen<D>,
) -> Gen<(A, B, C, D)> {
    let (a, b, c, d) = (a.clone(), b.clone(), c.clone(), d.clone());
    Gen::from_fn(move |src| (a.generate(src), b.generate(src), c.generate(src), d.generate(src)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample<T: 'static>(gen: &Gen<T>, seed: u64, n: usize) -> Vec<T> {
        let mut src = Source::fresh(seed);
        (0..n).map(|_| gen.generate(&mut src)).collect()
    }

    #[test]
    fn ranges_stay_in_bounds_and_zero_is_minimal() {
        for v in sample(&u64_in(3..=17), 1, 500) {
            assert!((3..=17).contains(&v));
        }
        for v in sample(&f64_in(-2.5, 4.0), 2, 500) {
            assert!((-2.5..4.0).contains(&v));
        }
        let mut zeros = Source::replay(vec![]);
        assert_eq!(u64_in(3..=17).generate(&mut zeros), 3);
        assert_eq!(f64_in(-2.5, 4.0).generate(&mut zeros), -2.5);
        assert!(!bool_any().generate(&mut zeros));
        assert_eq!(vec_of(&u64_any(), 0..=5).generate(&mut zeros), Vec::<u64>::new());
        assert_eq!(permutation(4).generate(&mut zeros), vec![0, 1, 2, 3]);
    }

    #[test]
    fn full_u64_range_does_not_overflow() {
        let gen = u64_in(0..=u64::MAX);
        let mut src = Source::replay(vec![u64::MAX, 0]);
        assert_eq!(gen.generate(&mut src), u64::MAX);
        assert_eq!(gen.generate(&mut src), 0);
    }

    #[test]
    fn f64_unit_is_monotone_in_the_choice() {
        let at = |choice: u64| {
            let mut src = Source::replay(vec![choice]);
            f64_unit().generate(&mut src)
        };
        assert_eq!(at(0), 0.0);
        assert!(at(u64::MAX) < 1.0);
        assert!(at(1 << 40) < at(1 << 50));
        // The exact midpoint the meta-test's documented counterexample uses.
        assert_eq!(at(1 << 63), 0.5);
    }

    #[test]
    fn vec_lengths_respect_the_range() {
        for v in sample(&vec_of(&f64_unit(), 2..=6), 3, 200) {
            assert!((2..=6).contains(&v.len()));
        }
    }

    #[test]
    fn permutation_is_a_bijection() {
        for p in sample(&permutation(7), 4, 100) {
            let mut seen = [false; 7];
            for &i in &p {
                assert!(!seen[i], "duplicate index {i} in {p:?}");
                seen[i] = true;
            }
        }
    }

    #[test]
    fn map_and_zip_compose() {
        let gen = zip2(&u64_in(1..=9).map(|v| v * 10), &bool_any());
        for (v, _) in sample(&gen, 5, 100) {
            assert!(v % 10 == 0 && (10..=90).contains(&v));
        }
    }

    #[test]
    fn one_of_picks_only_given_options() {
        for v in sample(&one_of(vec!['a', 'b', 'c']), 6, 100) {
            assert!(['a', 'b', 'c'].contains(&v));
        }
    }
}
