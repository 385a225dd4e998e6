//! Append-shared columns: the buffer type behind every store column and
//! every adjacency array.
//!
//! A write batch clones the published [`Store`](crate::Store) and mostly
//! *appends*: new rows at the end of each column, new entries at the end
//! of an adjacency's offsets. With `Vec` columns behind a copy-on-write
//! box, the first append of a batch deep-copied the whole column, so an
//! insert batch cost O(store). [`AppendVec`] lets the published version
//! and the writer's next version share one buffer instead:
//!
//! * **Reads.** A handle holds its data pointer and `len` inline and
//!   derefs to `&[T]`, so `col[i]` costs what it costs on a `Vec`.
//! * **Clones.** A clone bumps the buffer's reference count and nothing
//!   else.
//! * **Appends.** Every buffer records how many of its slots some handle
//!   has claimed (`written`). A handle appends in place only when its own
//!   `len` equals `written` and capacity remains, and it claims the slots
//!   with a compare-and-swap before writing them. Otherwise it copies
//!   `[0, len)` into a fresh buffer twice as large. So every slot is
//!   written once, a prefix some handle can read never changes, and a
//!   second clone that forks from the same version — or from the slots a
//!   failed batch left behind — copies instead of overwriting.
//! * **In-place edits** (`DerefMut`, [`AppendVec::filter_in_place`]) copy
//!   first when the buffer is shared, as `Arc::make_mut` does.
//! * **A buffer nobody else holds** pushes like a `Vec`: one load of the
//!   reference count, no atomic read-modify-write and no store to the
//!   shared header.
//!
//! Elements are `Copy`, so a buffer never drops its elements, and slots
//! past a handle's `len` need no cleanup.

use std::alloc::{self, Layout};
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;
use std::sync::atomic::{fence, AtomicUsize, Ordering};

/// Smallest capacity a growing buffer allocates.
const MIN_CAP: usize = 4;

/// The front of every buffer; the elements follow it.
struct Header {
    /// Handles sharing the buffer.
    refs: AtomicUsize,
    /// Slots `[0, written)` are claimed. While the buffer is shared it
    /// only grows, and only the handle whose `len` equals it may claim
    /// more. A handle that holds the buffer alone does not keep it up to
    /// date; the clone that shares the buffer again raises it to that
    /// handle's `len`. It publishes no element data (a handle reads only
    /// slots below its own `len`, written before the handle reached its
    /// reader), so its loads and stores need no ordering of their own.
    written: AtomicUsize,
    /// Slots the buffer holds.
    cap: usize,
}

/// A growable array of `Copy` values whose clones share one buffer and
/// append into it in place (see the [module docs](self)).
pub struct AppendVec<T: Copy> {
    /// Start of the elements (dangling while there is no buffer).
    ptr: NonNull<T>,
    len: usize,
    /// `None` until the first allocation, and always for zero-sized `T`.
    buf: Option<NonNull<Header>>,
    _owns: PhantomData<T>,
}

// SAFETY: handles on different threads only ever read slots below their
// own `len`, which no handle writes again; a slot is written only by the
// one handle that claimed it (compare-and-swap on `written`, or sole
// ownership of the buffer). The counts are atomics. So sharing and
// sending handles is as safe as for `Arc<[T]>`.
unsafe impl<T: Copy + Send + Sync> Send for AppendVec<T> {}
unsafe impl<T: Copy + Send + Sync> Sync for AppendVec<T> {}

impl<T: Copy> AppendVec<T> {
    const ZST: bool = std::mem::size_of::<T>() == 0;

    /// An empty column; allocates nothing.
    pub const fn new() -> AppendVec<T> {
        AppendVec { ptr: NonNull::dangling(), len: 0, buf: None, _owns: PhantomData }
    }

    /// An empty column with room for `cap` elements.
    pub fn with_capacity(cap: usize) -> AppendVec<T> {
        let mut v = AppendVec::new();
        if cap > 0 && !Self::ZST {
            v.move_to(cap, 0);
        }
        v
    }

    /// `n` copies of `value`, like `vec![value; n]`.
    pub fn from_elem(value: T, n: usize) -> AppendVec<T> {
        let mut v: AppendVec<T> = AppendVec::with_capacity(n);
        v.claim(n);
        for i in 0..n {
            // SAFETY: `claim` made slots `[0, n)` this handle's own.
            unsafe { v.ptr.as_ptr().add(i).write(value) };
        }
        v.len = n;
        v
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when there are no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slots in the buffer, shared or not (0 without one).
    pub fn capacity(&self) -> usize {
        self.header().map_or(0, |h| h.cap)
    }

    /// Whether two handles share one buffer — the observable property
    /// the sharing tests assert on. Two empty handles without a buffer
    /// count as sharing.
    pub fn ptr_eq(a: &AppendVec<T>, b: &AppendVec<T>) -> bool {
        a.buf == b.buf
    }

    /// Appends one element.
    #[inline]
    pub fn push(&mut self, value: T) {
        if let Some(h) = self.header() {
            // The common case, as cheap as a `Vec` push short of the one
            // load of the reference count: room left in a buffer this
            // handle holds alone.
            if self.len < h.cap && h.refs.load(Ordering::Acquire) == 1 {
                // SAFETY: slot `len` is inside the buffer, and no other
                // handle can read or claim it.
                unsafe { self.ptr.as_ptr().add(self.len).write(value) };
                self.len += 1;
                return;
            }
        }
        self.claim(1);
        // SAFETY: `claim` made slot `len` this handle's own.
        unsafe { self.ptr.as_ptr().add(self.len).write(value) };
        self.len += 1;
    }

    /// Appends a slice.
    pub fn extend_from_slice(&mut self, values: &[T]) {
        self.claim(values.len());
        // SAFETY: `claim` made slots `[len, len + values.len())` this
        // handle's own; `values` lies below another handle's `len` or in
        // another buffer, so it cannot overlap them.
        unsafe {
            std::ptr::copy_nonoverlapping(
                values.as_ptr(),
                self.ptr.as_ptr().add(self.len),
                values.len(),
            );
        }
        self.len += values.len();
    }

    /// Removes and returns the last element. The slot stays claimed, so
    /// a later push on a shared buffer copies rather than reusing it.
    pub fn pop(&mut self) -> Option<T> {
        let last = *self.last()?;
        self.len -= 1;
        Some(last)
    }

    /// Keeps only the elements whose index passes `keep`, in order. A
    /// buffer nobody else holds is compacted in place; a shared one is
    /// left to its other holders and the survivors go to a fresh buffer.
    pub fn filter_in_place(&mut self, keep: impl Fn(usize) -> bool) {
        if self.is_unique() {
            let mut kept = 0;
            for i in 0..self.len {
                if keep(i) {
                    // SAFETY: the buffer is this handle's alone and
                    // `kept <= i < len`.
                    unsafe { self.ptr.as_ptr().add(kept).write(self.ptr.as_ptr().add(i).read()) };
                    kept += 1;
                }
            }
            self.len = kept;
        } else {
            let mut next = AppendVec::with_capacity(self.len);
            for (i, &v) in self.iter().enumerate() {
                if keep(i) {
                    next.push(v);
                }
            }
            *self = next;
        }
    }

    /// Releases capacity beyond `len` when the buffer is this handle's
    /// alone (a shared buffer is left as it is).
    pub fn shrink_to_fit(&mut self) {
        let Some(h) = self.header() else { return };
        if h.cap == self.len || !self.is_unique() {
            return;
        }
        if self.len == 0 {
            *self = AppendVec::new();
        } else {
            self.realloc(self.len);
        }
    }

    fn header(&self) -> Option<&Header> {
        // SAFETY: a handle keeps its buffer alive.
        self.buf.map(|h| unsafe { &*h.as_ptr() })
    }

    /// Whether no other handle holds this buffer (true without one). The
    /// acquire load pairs with the release decrement of the last other
    /// handle's drop, so its reads happen before this handle's writes.
    fn is_unique(&self) -> bool {
        self.header().is_none_or(|h| h.refs.load(Ordering::Acquire) == 1)
    }

    /// Makes slots `[len, len + additional)` this handle's to write: in
    /// place when the buffer is unshared or this handle is at its claimed
    /// end with room to spare, else in a fresh or grown buffer.
    #[inline]
    fn claim(&mut self, additional: usize) {
        if Self::ZST {
            return;
        }
        let need = self.len.checked_add(additional).expect("AppendVec length overflow");
        if let Some(h) = self.header() {
            if need <= h.cap {
                if h.refs.load(Ordering::Acquire) == 1 {
                    return;
                }
                if h.written.load(Ordering::Relaxed) == self.len
                    && h.written
                        .compare_exchange(self.len, need, Ordering::Relaxed, Ordering::Relaxed)
                        .is_ok()
                {
                    return;
                }
            }
        }
        self.grow(need);
    }

    #[cold]
    #[inline(never)]
    fn grow(&mut self, need: usize) {
        let old_cap = self.capacity();
        let cap = need.max(self.len.saturating_mul(2)).max(MIN_CAP);
        if self.buf.is_some() && self.is_unique() {
            self.realloc(cap.max(old_cap.saturating_mul(2)));
        } else {
            self.move_to(cap, need);
        }
    }

    /// The allocation layout of a `cap`-slot buffer and the offset of
    /// its first element.
    fn layout(cap: usize) -> (Layout, usize) {
        let elems = Layout::array::<T>(cap).expect("AppendVec capacity overflow");
        Layout::new::<Header>().extend(elems).expect("AppendVec capacity overflow")
    }

    /// Copies `[0, len)` into a fresh `cap`-slot buffer with `written`
    /// slots claimed, and lets go of the old one.
    fn move_to(&mut self, cap: usize, written: usize) {
        assert!(!Self::ZST && cap >= self.len, "AppendVec::move_to into a smaller buffer");
        let (layout, offset) = Self::layout(cap);
        // SAFETY: the layout holds at least the header, so it is not
        // zero-sized.
        let raw = unsafe { alloc::alloc(layout) };
        let Some(header) = NonNull::new(raw.cast::<Header>()) else {
            alloc::handle_alloc_error(layout)
        };
        // SAFETY: `raw` is a fresh allocation of `layout`, which starts
        // with a `Header` and has room for `cap` elements at `offset`;
        // the old elements are readable below `len`.
        let data = unsafe {
            header.as_ptr().write(Header {
                refs: AtomicUsize::new(1),
                written: AtomicUsize::new(written),
                cap,
            });
            let data = raw.add(offset).cast::<T>();
            std::ptr::copy_nonoverlapping(self.ptr.as_ptr(), data, self.len);
            NonNull::new_unchecked(data)
        };
        self.release();
        self.buf = Some(header);
        self.ptr = data;
    }

    /// Resizes a buffer this handle holds alone to `cap` slots.
    fn realloc(&mut self, cap: usize) {
        let h = self.buf.expect("buffer");
        let old = Self::layout(self.capacity()).0;
        let (layout, offset) = Self::layout(cap);
        // SAFETY: the buffer is this handle's alone and was allocated
        // with `old`; the new layout has the same alignment.
        let raw = unsafe { alloc::realloc(h.as_ptr().cast::<u8>(), old, layout.size()) };
        let Some(header) = NonNull::new(raw.cast::<Header>()) else {
            alloc::handle_alloc_error(layout)
        };
        // SAFETY: `realloc` kept the header and the elements in place
        // relative to the new start.
        unsafe {
            (*header.as_ptr()).cap = cap;
            self.ptr = NonNull::new_unchecked(raw.add(offset).cast::<T>());
        }
        self.buf = Some(header);
    }

    /// Drops this handle's reference to its buffer, freeing the buffer
    /// if it was the last.
    fn release(&mut self) {
        let Some(h) = self.buf.take() else { return };
        // SAFETY: the handle holds a reference, so the header is alive.
        let header = unsafe { &*h.as_ptr() };
        if header.refs.fetch_sub(1, Ordering::Release) == 1 {
            fence(Ordering::Acquire);
            let layout = Self::layout(header.cap).0;
            // SAFETY: no handle refers to the buffer any more; it was
            // allocated with `layout`.
            unsafe { alloc::dealloc(h.as_ptr().cast::<u8>(), layout) };
        }
        self.ptr = NonNull::dangling();
    }
}

impl<T: Copy> Drop for AppendVec<T> {
    fn drop(&mut self) {
        self.release();
    }
}

impl<T: Copy> Clone for AppendVec<T> {
    #[inline]
    fn clone(&self) -> AppendVec<T> {
        if let Some(h) = self.header() {
            let others = h.refs.fetch_add(1, Ordering::Relaxed);
            if others == 1 {
                // The buffer was this handle's alone, so `written` may lag
                // behind `len`. Raising it (never lowering it: a clone
                // made concurrently may already have claimed slots) makes
                // both handles copy rather than write below `len`.
                h.written.fetch_max(self.len, Ordering::Relaxed);
            } else if others > isize::MAX as usize {
                std::process::abort();
            }
        }
        AppendVec { ptr: self.ptr, len: self.len, buf: self.buf, _owns: PhantomData }
    }
}

impl<T: Copy> Deref for AppendVec<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        // SAFETY: slots `[0, len)` were written before this handle could
        // see them and are never written again while it is shared.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl<T: Copy> DerefMut for AppendVec<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        if !self.is_unique() {
            self.move_to(self.len, self.len);
        }
        // SAFETY: the buffer is now this handle's alone.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl<T: Copy> Default for AppendVec<T> {
    fn default() -> AppendVec<T> {
        AppendVec::new()
    }
}

impl<T: Copy + std::fmt::Debug> std::fmt::Debug for AppendVec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

impl<T: Copy + PartialEq> PartialEq for AppendVec<T> {
    fn eq(&self, other: &AppendVec<T>) -> bool {
        **self == **other
    }
}

impl<T: Copy + Eq> Eq for AppendVec<T> {}

impl<T: Copy> Extend<T> for AppendVec<T> {
    /// Claims as many slots as the iterator promises at a time, so an
    /// exact-size iterator costs one claim, not one per element.
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        let mut iter = iter.into_iter();
        while let Some(first) = iter.next() {
            let want = iter.size_hint().0.saturating_add(1);
            // `claim` panics unless `len + want` fits in a `usize`.
            self.claim(want);
            let end = self.len + want;
            // SAFETY: `claim` made slots `[len, end)` this handle's own.
            unsafe { self.ptr.as_ptr().add(self.len).write(first) };
            self.len += 1;
            while self.len < end {
                let Some(v) = iter.next() else {
                    // Hand back the claimed slots left unwritten, so this
                    // handle stays at the claimed end of a shared buffer.
                    if let Some(h) = self.header() {
                        let _ = h.written.compare_exchange(
                            end,
                            self.len,
                            Ordering::Relaxed,
                            Ordering::Relaxed,
                        );
                    }
                    return;
                };
                // SAFETY: `claim` made slots `[len, end)` this handle's own.
                unsafe { self.ptr.as_ptr().add(self.len).write(v) };
                self.len += 1;
            }
        }
    }
}

impl<T: Copy> FromIterator<T> for AppendVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> AppendVec<T> {
        let iter = iter.into_iter();
        let mut v = AppendVec::with_capacity(iter.size_hint().0);
        v.extend(iter);
        v
    }
}

impl<T: Copy> From<&[T]> for AppendVec<T> {
    fn from(values: &[T]) -> AppendVec<T> {
        let mut v = AppendVec::with_capacity(values.len());
        v.extend_from_slice(values);
        v
    }
}

impl<'a, T: Copy> IntoIterator for &'a AppendVec<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_append_in_place_until_they_fork() {
        let mut a: AppendVec<u32> = AppendVec::with_capacity(8);
        a.extend_from_slice(&[1, 2, 3]);
        let pinned = a.clone();
        // `a` is at the claimed end: it appends into the shared buffer.
        a.push(4);
        assert!(AppendVec::ptr_eq(&a, &pinned));
        assert_eq!((&a[..], &pinned[..]), (&[1, 2, 3, 4][..], &[1, 2, 3][..]));
        // Filling the buffer exactly still appends in place.
        let mut full = a.clone();
        full.extend([5, 6, 7, 8]);
        assert!(AppendVec::ptr_eq(&full, &pinned));
        drop(full);
        // A second clone of the pinned version is behind the claimed end:
        // its append copies instead of overwriting slot 3.
        let mut b = pinned.clone();
        b.push(9);
        assert!(!AppendVec::ptr_eq(&b, &pinned));
        assert_eq!(
            (&a[..], &b[..], &pinned[..]),
            (&[1, 2, 3, 4][..], &[1, 2, 3, 9][..], &[1, 2, 3][..])
        );
    }

    #[test]
    fn a_full_shared_buffer_copies_into_one_twice_as_large() {
        let mut a: AppendVec<u64> = (0..6).collect();
        a.shrink_to_fit();
        assert_eq!(a.capacity(), 6);
        let pinned = a.clone();
        a.push(6);
        assert!(!AppendVec::ptr_eq(&a, &pinned));
        assert_eq!(a.capacity(), 12);
        assert_eq!(&a[..], &[0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(pinned.len(), 6);
    }

    #[test]
    fn edits_copy_a_shared_buffer_and_not_an_unshared_one() {
        let mut a = AppendVec::from(&[1u32, 2, 3][..]);
        let before = a.as_ptr();
        a[0] = 10;
        assert_eq!(a.as_ptr(), before, "an unshared buffer edits in place");
        let pinned = a.clone();
        a[1] = 20;
        assert!(!AppendVec::ptr_eq(&a, &pinned));
        assert_eq!((&a[..], &pinned[..]), (&[10, 20, 3][..], &[10, 2, 3][..]));
        let mut b = pinned.clone();
        b.filter_in_place(|i| i != 0);
        assert_eq!((&b[..], &pinned[..]), (&[2, 3][..], &[10, 2, 3][..]));
        let mut c: AppendVec<u32> = (0..10).collect();
        c.filter_in_place(|i| i % 3 == 0);
        assert_eq!(&c[..], &[0, 3, 6, 9]);
    }

    #[test]
    fn dropping_the_other_holders_makes_a_buffer_unique_again() {
        let mut a: AppendVec<u8> = AppendVec::with_capacity(4);
        a.push(1);
        let mut failed = a.clone();
        failed.push(2); // claims slot 1, then the batch is abandoned
        drop(failed);
        // Nobody else holds the buffer: slot 1 is free to overwrite.
        let before = a.as_ptr();
        a.push(3);
        assert_eq!(a.as_ptr(), before);
        assert_eq!(&a[..], &[1, 3]);
    }

    #[test]
    fn pop_never_lets_a_shared_slot_be_rewritten() {
        let mut a: AppendVec<u32> = AppendVec::with_capacity(8);
        a.extend_from_slice(&[1, 2, 3]);
        let pinned = a.clone();
        assert_eq!(a.pop(), Some(3));
        a.push(7); // slot 2 is below `pinned.len()`: must copy
        assert_eq!((&a[..], &pinned[..]), (&[1, 2, 7][..], &[1, 2, 3][..]));
        let mut b = pinned.clone();
        b.pop();
        b.pop();
        b.extend_from_slice(&[5, 6]);
        assert_eq!((&b[..], &pinned[..]), (&[1, 5, 6][..], &[1, 2, 3][..]));
    }

    #[test]
    fn zero_sized_elements_count_without_a_buffer() {
        let mut a: AppendVec<()> = AppendVec::from_elem((), 3);
        let b = a.clone();
        a.push(());
        assert_eq!((a.len(), b.len()), (4, 3));
        assert_eq!(a.capacity(), 0);
        a.filter_in_place(|i| i < 2);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn handles_on_many_threads_read_their_own_prefix() {
        let mut a: AppendVec<u64> = AppendVec::with_capacity(1 << 12);
        let lens: Vec<usize> = std::thread::scope(|scope| {
            let mut readers = Vec::new();
            for round in 0..64u64 {
                for k in 0..50 {
                    a.push(round * 50 + k);
                }
                let snap = a.clone();
                readers.push(scope.spawn(move || {
                    for _ in 0..20 {
                        assert!(snap.iter().enumerate().all(|(i, &v)| v == i as u64));
                    }
                    snap.len()
                }));
            }
            readers.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(lens, (1..=64).map(|r| r * 50).collect::<Vec<_>>());
        assert!(a.capacity() == 1 << 12, "every round appended in place");
    }

    /// A seeded model test: random push / extend / pop / clone / drop /
    /// edit / filter / shrink on a pool of handles, each mirrored by a
    /// `Vec` that must match it after every step.
    #[test]
    fn model_test_against_vec() {
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |n: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % n
        };
        let mut pool: Vec<(AppendVec<u32>, Vec<u32>)> = vec![(AppendVec::new(), Vec::new())];
        for step in 0..20_000u32 {
            let i = next(pool.len() as u64) as usize;
            match next(9) {
                0..=2 => {
                    pool[i].0.push(step);
                    pool[i].1.push(step);
                }
                3 => {
                    let extra: Vec<u32> = (0..next(5) as u32).map(|k| step ^ k).collect();
                    match next(3) {
                        0 => pool[i].0.extend_from_slice(&extra),
                        1 => pool[i].0.extend(extra.iter().copied()),
                        // A size hint that promises nothing.
                        _ => pool[i].0.extend(extra.iter().copied().filter(|_| true)),
                    }
                    pool[i].1.extend_from_slice(&extra);
                }
                4 if pool.len() < 12 => {
                    let copy = (pool[i].0.clone(), pool[i].1.clone());
                    pool.push(copy);
                }
                5 if pool.len() > 1 => {
                    pool.swap_remove(i);
                    continue;
                }
                6 if !pool[i].1.is_empty() => {
                    let at = next(pool[i].1.len() as u64) as usize;
                    pool[i].0[at] = !step;
                    pool[i].1[at] = !step;
                }
                7 => {
                    assert_eq!(pool[i].0.pop(), pool[i].1.pop());
                }
                8 => {
                    let m = next(4) as usize + 2;
                    pool[i].0.filter_in_place(|k| k % m != 0);
                    let mut k = 0;
                    pool[i].1.retain(|_| {
                        k += 1;
                        (k - 1) % m != 0
                    });
                    if next(2) == 0 {
                        pool[i].0.shrink_to_fit();
                    }
                }
                _ => {}
            }
            for (col, model) in &pool {
                assert_eq!(&col[..], &model[..], "step {step}");
            }
        }
    }
}
