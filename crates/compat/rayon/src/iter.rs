//! Indexed parallel iterators over the pool.
//!
//! rayon's full iterator machinery (plumbing with producers/consumers)
//! is replaced by a simpler model that covers every call site in this
//! workspace: an **indexed** iterator knows its length and can produce
//! the item at any index independently ([`ParallelIterator::fetch`]).
//! Every combinator preserves index addressing, which is the whole
//! determinism story: [`ParallelIterator::collect`] puts item `i` in
//! slot `i` whichever thread produced it, making every collect bitwise
//! identical to serial execution at any pool size.

use crate::pool::map_chunks;

/// An indexed parallel iterator: `len` items, item `i` computable
/// independently of every other item.
///
/// `fetch` takes `&self` and is called concurrently from pool workers;
/// implementations are pure reads over `Sync` data.
pub trait ParallelIterator: Sized + Send + Sync {
    /// The element type.
    type Item: Send;

    /// Number of items.
    fn par_len(&self) -> usize;

    /// Produce the item at `index` (`0 <= index < par_len()`).
    fn fetch(&self, index: usize) -> Self::Item;

    /// Map every item through `f`.
    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Send + Sync,
    {
        Map { base: self, f }
    }

    /// Pair items positionally with another iterator; the result has
    /// the shorter length.
    fn zip<B>(self, other: B) -> Zip<Self, B::Iter>
    where
        B: IntoParallelIterator,
    {
        Zip {
            a: self,
            b: other.into_par_iter(),
        }
    }

    /// Collect into `C` (a `Vec`, or anything built from one). Each
    /// pool chunk collects its index range into a `Vec`, and the chunks
    /// are concatenated in chunk order, so item `i` lands in slot `i`
    /// and the result is bitwise identical to the serial collect at any
    /// pool size. If producing an item panics, every item already
    /// produced is dropped once and the panic is re-raised.
    fn collect<C: From<Vec<Self::Item>>>(self) -> C {
        let len = self.par_len();
        let chunks = map_chunks(len, |range| {
            range.map(|i| self.fetch(i)).collect::<Vec<_>>()
        });
        let mut chunks = chunks.into_iter();
        let mut out = chunks.next().unwrap_or_default();
        out.reserve_exact(len - out.len());
        for chunk in chunks {
            out.extend(chunk);
        }
        C::from(out)
    }
}

/// Conversion into a [`ParallelIterator`] (rayon's entry-point trait).
pub trait IntoParallelIterator {
    /// The resulting iterator.
    type Iter: ParallelIterator;

    /// Convert.
    fn into_par_iter(self) -> Self::Iter;
}

impl<P: ParallelIterator> IntoParallelIterator for P {
    type Iter = P;

    fn into_par_iter(self) -> Self::Iter {
        self
    }
}

/// `par_iter` and `par_chunks` on slices, and on `Vec`s through deref.
pub trait ParallelSlice<T: Sync> {
    /// Iterate over the items by reference, in parallel.
    fn par_iter(&self) -> SliceIter<'_, T>;

    /// Split into contiguous chunks of (at most) `chunk_size` items,
    /// iterated in parallel. Chunk boundaries depend only on the slice
    /// length and `chunk_size` — never on the pool — so chunked
    /// reductions stay deterministic.
    fn par_chunks<'data>(
        &'data self,
        chunk_size: usize,
    ) -> impl ParallelIterator<Item = &'data [T]>
    where
        T: 'data;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> SliceIter<'_, T> {
        SliceIter { slice: self }
    }

    fn par_chunks<'data>(&'data self, chunk_size: usize) -> impl ParallelIterator<Item = &'data [T]>
    where
        T: 'data,
    {
        assert!(chunk_size > 0, "chunk size must be positive");
        let chunks = self.len().div_ceil(chunk_size);
        (0..chunks)
            .into_par_iter()
            .map(move |k| &self[k * chunk_size..self.len().min((k + 1) * chunk_size)])
    }
}

/// Parallel iterator over `&[T]`.
pub struct SliceIter<'data, T> {
    slice: &'data [T],
}

impl<'data, T: Sync + 'data> ParallelIterator for SliceIter<'data, T> {
    type Item = &'data T;

    fn par_len(&self) -> usize {
        self.slice.len()
    }

    fn fetch(&self, index: usize) -> Self::Item {
        &self.slice[index]
    }
}

impl<'data, T: Sync + 'data> IntoParallelIterator for &'data Vec<T> {
    type Iter = SliceIter<'data, T>;

    fn into_par_iter(self) -> Self::Iter {
        self.par_iter()
    }
}

/// Parallel iterator over an integer range.
pub struct RangeIter<T> {
    start: T,
    len: usize,
}

macro_rules! range_impl {
    ($($t:ty),*) => {$(
        impl IntoParallelIterator for std::ops::Range<$t> {
            type Iter = RangeIter<$t>;

            fn into_par_iter(self) -> Self::Iter {
                let len = self.end.saturating_sub(self.start) as usize;
                RangeIter { start: self.start, len }
            }
        }

        impl ParallelIterator for RangeIter<$t> {
            type Item = $t;

            fn par_len(&self) -> usize {
                self.len
            }

            fn fetch(&self, index: usize) -> Self::Item {
                self.start + index as $t
            }
        }
    )*};
}

range_impl!(usize, u64);

/// Map adapter; see [`ParallelIterator::map`].
pub struct Map<I, F> {
    base: I,
    f: F,
}

impl<I, R, F> ParallelIterator for Map<I, F>
where
    I: ParallelIterator,
    R: Send,
    F: Fn(I::Item) -> R + Send + Sync,
{
    type Item = R;

    fn par_len(&self) -> usize {
        self.base.par_len()
    }

    fn fetch(&self, index: usize) -> Self::Item {
        (self.f)(self.base.fetch(index))
    }
}

/// Zip adapter; see [`ParallelIterator::zip`].
pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A, B> ParallelIterator for Zip<A, B>
where
    A: ParallelIterator,
    B: ParallelIterator,
{
    type Item = (A::Item, B::Item);

    fn par_len(&self) -> usize {
        self.a.par_len().min(self.b.par_len())
    }

    fn fetch(&self, index: usize) -> Self::Item {
        (self.a.fetch(index), self.b.fetch(index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::tests::{pool, seeded, SEEDS};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    const POOL_SIZES: [usize; 3] = [1, 2, 7];

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every adaptor the workspace calls, against its serial twin, bit
    /// for bit, with every index produced exactly once — under each
    /// seed's perturbed schedule, at pools of 1, 2 and 7 workers.
    #[test]
    fn adaptors_match_their_serial_twins_under_seeds() {
        let a: Vec<f64> = (0..1013).map(|i| (i as f64).sqrt().sin()).collect();
        let b: Vec<f64> = (0..977).map(|i| 1.0 / (i as f64 + 0.5)).collect();
        let twin_map: Vec<f64> = (0..a.len()).map(|i| a[i] * 3.0 + 1e-3).collect();
        let twin_zip: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x / y).collect();
        let twin_chunks: Vec<f64> = a.chunks(37).map(|c| c.iter().sum()).collect();
        let twin_pairs: Vec<(u64, usize)> = (5..600u64).zip(0..580usize).collect();
        for seed in SEEDS {
            for workers in POOL_SIZES {
                let ctx = format!("seed {seed:#x}, {workers} workers");
                let hits: Vec<AtomicUsize> = (0..a.len()).map(|_| AtomicUsize::new(0)).collect();
                let p = seeded(seed, || pool(workers));
                let (mapped, zipped, chunked, pairs, refs) = seeded(seed, || {
                    p.install(|| {
                        let mapped: Vec<f64> = (0..a.len())
                            .into_par_iter()
                            .map(|i| {
                                hits[i].fetch_add(1, Ordering::Relaxed);
                                a[i] * 3.0 + 1e-3
                            })
                            .collect();
                        let zipped: Vec<f64> = a.par_iter().zip(&b).map(|(x, y)| x / y).collect();
                        let chunked: Vec<f64> = a.par_chunks(37).map(|c| c.iter().sum()).collect();
                        let pairs: Vec<(u64, usize)> =
                            (5..600u64).into_par_iter().zip(0..580usize).collect();
                        let refs: Vec<(&f64, &f64)> = b.par_iter().zip(a.par_iter()).collect();
                        (mapped, zipped, chunked, pairs, refs)
                    })
                });
                assert_eq!(bits(&mapped), bits(&twin_map), "map: {ctx}");
                assert_eq!(bits(&zipped), bits(&twin_zip), "zip: {ctx}");
                assert_eq!(bits(&chunked), bits(&twin_chunks), "par_chunks: {ctx}");
                assert_eq!(pairs, twin_pairs, "range zip: {ctx}");
                assert!(
                    refs.iter()
                        .zip(b.iter().zip(&a))
                        .all(|(r, s)| std::ptr::eq(r.0, s.0) && std::ptr::eq(r.1, s.1)),
                    "par_iter zip: {ctx}"
                );
                let not_once: Vec<usize> = (0..hits.len())
                    .filter(|&i| hits[i].load(Ordering::Relaxed) != 1)
                    .collect();
                assert!(
                    not_once.is_empty(),
                    "indices not produced once: {not_once:?}, {ctx}"
                );
            }
        }
    }

    /// Counts its own drops.
    struct Tracked<'a>(&'a AtomicUsize);

    impl Drop for Tracked<'_> {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn panic_mid_collect_drops_every_produced_item_once() {
        for seed in SEEDS {
            for workers in POOL_SIZES {
                let (made, dropped) = (AtomicUsize::new(0), AtomicUsize::new(0));
                let p = seeded(seed, || pool(workers));
                let caught = seeded(seed, || {
                    p.install(|| {
                        catch_unwind(AssertUnwindSafe(|| {
                            let _: Vec<Tracked> = (0..300usize)
                                .into_par_iter()
                                .map(|i| {
                                    if i == 157 {
                                        panic!("item 157");
                                    }
                                    made.fetch_add(1, Ordering::Relaxed);
                                    Tracked(&dropped)
                                })
                                .collect();
                        }))
                    })
                });
                let ctx = format!("seed {seed:#x}, {workers} workers");
                let payload = caught.expect_err(&ctx);
                assert_eq!(payload.downcast_ref::<&str>(), Some(&"item 157"), "{ctx}");
                assert!(made.load(Ordering::Relaxed) > 0, "{ctx}");
                assert_eq!(
                    dropped.load(Ordering::Relaxed),
                    made.load(Ordering::Relaxed),
                    "every produced item dropped exactly once: {ctx}"
                );
                // The pool keeps serving after the panic.
                let v: Vec<usize> = p.install(|| (0..10usize).into_par_iter().collect());
                assert_eq!(v, (0..10).collect::<Vec<_>>(), "{ctx}");
            }
        }
    }

    #[test]
    fn empty_and_short_inputs() {
        let p = pool(2);
        let v: Vec<usize> = p.install(|| (0..0usize).into_par_iter().collect());
        assert!(v.is_empty());
        let (start, end) = (5u64, 3u64);
        let v: Vec<u64> = p.install(|| (start..end).into_par_iter().collect());
        assert!(v.is_empty(), "reversed range is empty");
        let one: Vec<u32> = vec![9];
        let v: Vec<u32> = p.install(|| one.par_chunks(4).map(|c| c[0]).collect());
        assert_eq!(v, vec![9]);
    }
}
