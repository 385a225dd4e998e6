//! Copy-on-write component boxes for cheap store versioning.
//!
//! The snapshot-publication scheme (see [`crate::snapshot`]) needs
//! `Store::clone` to be near-free: a published version and the writer's
//! next version share every component a write batch does *not* touch.
//! [`CowBox`] delivers that with zero churn in the mutation code: every
//! top-level `Store` component sits behind an `Arc`, reads deref
//! through shared references, and the first mutable access inside a
//! write batch triggers `Arc::make_mut` — cloning exactly the touched
//! component and nothing else. Components whose `Arc` is unique (the
//! common case while bulk-loading) mutate in place with no copy at all.
//!
//! Cloning a touched component is itself shallow: its columns and
//! adjacency arrays are [`AppendVec`](crate::append_vec::AppendVec)s
//! and its id maps [`IdMap`](crate::columns::IdMap)s, whose clones
//! share their buffers. So an insert batch pays one refcount bump per
//! buffer plus the rows it appends, not a copy of each component.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// A copy-on-write box: shared on clone, deep-copied on first mutable
/// access when shared. `Deref`/`DerefMut` make it transparent at every
/// field-access and method-call site, so wrapping a struct field in
/// `CowBox` does not change the code that reads or mutates it. Whole-value
/// replacement is the exception: `*b = v` goes through `DerefMut`, so on
/// a shared box it first deep-copies the value it is about to overwrite.
/// Anything that may run on a published version's clone must use
/// [`CowBox::set`]; `*b = v` is only free while building a new store.
pub struct CowBox<T>(Arc<T>);

impl<T> CowBox<T> {
    /// Wraps a value.
    pub fn new(value: T) -> CowBox<T> {
        CowBox(Arc::new(value))
    }

    /// Replaces the contents without cloning the old value first — the
    /// only right way to store a freshly built value (`*b = v` would
    /// `make_mut`, i.e. deep-copy, the value about to be discarded when
    /// the box is shared).
    pub fn set(&mut self, value: T) {
        self.0 = Arc::new(value);
    }

    /// Whether two boxes share the same underlying allocation — the
    /// observable COW property tests assert on.
    pub fn ptr_eq(a: &CowBox<T>, b: &CowBox<T>) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl<T> Deref for CowBox<T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: Clone> DerefMut for CowBox<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        Arc::make_mut(&mut self.0)
    }
}

impl<T> Clone for CowBox<T> {
    #[inline]
    fn clone(&self) -> CowBox<T> {
        CowBox(Arc::clone(&self.0))
    }
}

impl<T: Default> Default for CowBox<T> {
    fn default() -> CowBox<T> {
        CowBox::new(T::default())
    }
}

impl<T> From<T> for CowBox<T> {
    fn from(value: T) -> CowBox<T> {
        CowBox::new(value)
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for CowBox<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

impl<T: PartialEq> PartialEq for CowBox<T> {
    fn eq(&self, other: &CowBox<T>) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || *self.0 == *other.0
    }
}

impl<'a, T> IntoIterator for &'a CowBox<T>
where
    &'a T: IntoIterator,
{
    type Item = <&'a T as IntoIterator>::Item;
    type IntoIter = <&'a T as IntoIterator>::IntoIter;
    fn into_iter(self) -> Self::IntoIter {
        (&**self).into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_until_mutated() {
        let mut a: CowBox<Vec<u32>> = vec![1, 2, 3].into();
        let b = a.clone();
        assert!(CowBox::ptr_eq(&a, &b), "clone must share the allocation");
        a.push(4);
        assert!(!CowBox::ptr_eq(&a, &b), "mutation must unshare");
        assert_eq!(*a, vec![1, 2, 3, 4]);
        assert_eq!(*b, vec![1, 2, 3], "the shared copy must be untouched");
    }

    #[test]
    fn unique_box_mutates_in_place() {
        let mut a: CowBox<Vec<u32>> = vec![1].into();
        let before = a.as_ptr();
        a.push(2);
        assert_eq!(a.as_ptr(), before, "unique boxes must not copy");
    }

    #[test]
    fn set_replaces_without_copying_old() {
        let mut a: CowBox<Vec<u32>> = vec![1, 2].into();
        let b = a.clone();
        a.set(vec![9]);
        assert_eq!(*a, vec![9]);
        assert_eq!(*b, vec![1, 2]);
    }

    #[test]
    fn ref_iteration_delegates() {
        let a: CowBox<Vec<u32>> = vec![5, 6].into();
        let sum: u32 = (&a).into_iter().copied().sum();
        assert_eq!(sum, 11);
        let mut via_for = 0;
        for &x in &a {
            via_for += x;
        }
        assert_eq!(via_for, 11);
    }
}
