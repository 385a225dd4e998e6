//! Bounded top-k selection with spec tie-breaking.
//!
//! Every SNB query ends in `ORDER BY … LIMIT k`; evaluating it as
//! sort-everything-then-truncate is the naive plan. [`TopK`] keeps only
//! the best `k` rows in a max-heap of the currently-worst kept key, so
//! a stream of `n` candidates costs `O(n log k)` and — crucially for
//! choke point CP-1.3 (*top-k pushdown*) — exposes
//! [`TopK::would_accept`], which lets query code skip work for
//! candidates that already cannot enter the result.
//!
//! Keys are "smaller is better": encode descending orders with
//! [`std::cmp::Reverse`] inside the key tuple.
//!
//! Late projection (choke point CP-2.2): a query offers each group as
//! a compact value — dense indices and counts, with any string in the
//! sort key a `&str` borrowed from the store the query runs on — through
//! [`TopK::offer`], which prunes before anything is stored, and builds
//! its output rows (the `String`s) only for the ≤ `k` survivors in
//! [`TopK::into_rows`].

use std::cell::Cell;
use std::collections::BinaryHeap;

struct Entry<K: Ord, T> {
    key: K,
    seq: u64,
    value: T,
}

impl<K: Ord, T> PartialEq for Entry<K, T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.seq == other.seq
    }
}
impl<K: Ord, T> Eq for Entry<K, T> {}
impl<K: Ord, T> PartialOrd for Entry<K, T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<K: Ord, T> Ord for Entry<K, T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key).then(self.seq.cmp(&other.seq))
    }
}

/// Keeps the `k` smallest-keyed items seen.
///
/// The collector also counts its own operator work for the metrics
/// layer: candidates that reached [`TopK::push`] and candidates pruned
/// by [`TopK::would_accept`] (the CP-1.3 hook, which [`TopK::offer`]
/// applies to every candidate). Queries fold these into
/// their context with `ctx.metrics().note_topk(&tk)` once the final
/// collector is assembled; merging partial collectors carries their
/// counters along.
pub struct TopK<K: Ord, T> {
    k: usize,
    heap: BinaryHeap<Entry<K, T>>,
    seq: u64,
    offered: u64,
    /// `Cell` because `would_accept` observes through `&self`; the
    /// collector is single-owner per worker, never shared.
    pruned: Cell<u64>,
}

impl<K: Ord + Clone, T> TopK<K, T> {
    /// Creates a collector for the best `k` items.
    pub fn new(k: usize) -> Self {
        TopK { k, heap: BinaryHeap::with_capacity(k + 1), seq: 0, offered: 0, pruned: Cell::new(0) }
    }

    /// Number of items currently held.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing has been kept yet.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Whether a candidate with `key` would enter the current top-k —
    /// the CP-1.3 pruning hook: callers can skip building expensive row
    /// payloads when this is false.
    pub fn would_accept(&self, key: &K) -> bool {
        let accept = if self.k == 0 {
            false
        } else if self.heap.len() < self.k {
            true
        } else {
            key < &self.heap.peek().expect("heap non-empty").key
        };
        if !accept {
            self.pruned.set(self.pruned.get() + 1);
        }
        accept
    }

    /// The current k-th (worst kept) key, if the collector is full.
    pub fn threshold(&self) -> Option<&K> {
        if self.heap.len() < self.k {
            None
        } else {
            self.heap.peek().map(|e| &e.key)
        }
    }

    /// Offers a candidate through the pruning hook: a key that cannot
    /// enter the top-k is counted as pruned and dropped, anything else
    /// is pushed. Keeps exactly what an unconditional [`TopK::push`]
    /// would keep.
    pub fn offer(&mut self, key: K, value: T) {
        if self.would_accept(&key) {
            self.push(key, value);
        }
    }

    /// Offers an item; keeps it only if it beats the current top-k.
    pub fn push(&mut self, key: K, value: T) {
        self.offered += 1;
        self.push_unrecorded(key, value);
    }

    /// The push path without the offer counter — used when merging
    /// partial collectors, whose entries were already counted when the
    /// owning worker first offered them.
    fn push_unrecorded(&mut self, key: K, value: T) {
        if self.k == 0 {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push(Entry { key, seq: self.seq, value });
            self.seq += 1;
        } else if key < self.heap.peek().expect("heap non-empty").key {
            self.heap.pop();
            self.heap.push(Entry { key, seq: self.seq, value });
            self.seq += 1;
        }
    }

    /// Candidates offered via [`TopK::push`] (including through merged
    /// partial collectors).
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Candidates rejected by [`TopK::would_accept`] (including through
    /// merged partial collectors).
    pub fn pruned(&self) -> u64 {
        self.pruned.get()
    }

    /// Absorbs another collector: its kept entries compete for this
    /// collector's top-k, and its offer/prune counters are carried
    /// over. The deterministic merge step of `par_topk`.
    pub fn merge_from(&mut self, other: TopK<K, T>) {
        self.offered += other.offered;
        self.pruned.set(self.pruned.get() + other.pruned.get());
        for (key, value) in other.into_sorted_entries() {
            self.push_unrecorded(key, value);
        }
    }

    /// Consumes the collector, returning items ascending by key (the
    /// query's ORDER BY order).
    pub fn into_sorted(self) -> Vec<T> {
        let mut entries = self.heap.into_vec();
        entries.sort_by(|a, b| a.key.cmp(&b.key).then(a.seq.cmp(&b.seq)));
        entries.into_iter().map(|e| e.value).collect()
    }

    /// Consumes the collector, projecting each kept `(key, value)` to
    /// an output row in ORDER BY order — the only place a query that
    /// offers compact values builds its rows.
    pub fn into_rows<R>(self, mut project: impl FnMut(K, T) -> R) -> Vec<R> {
        self.into_sorted_entries().into_iter().map(|(key, value)| project(key, value)).collect()
    }

    /// Like [`TopK::into_sorted`] but returns `(key, value)` pairs.
    pub fn into_sorted_entries(self) -> Vec<(K, T)> {
        let mut entries = self.heap.into_vec();
        entries.sort_by(|a, b| a.key.cmp(&b.key).then(a.seq.cmp(&b.seq)));
        entries.into_iter().map(|e| (e.key, e.value)).collect()
    }
}

/// Reference implementation used by the naive engine and tests:
/// sort the whole candidate set and truncate.
pub fn sort_truncate<K: Ord, T>(mut items: Vec<(K, T)>, k: usize) -> Vec<T> {
    items.sort_by(|a, b| a.0.cmp(&b.0));
    items.truncate(k);
    items.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;

    #[test]
    fn keeps_k_smallest_in_order() {
        let mut tk = TopK::new(3);
        for v in [5, 1, 9, 3, 7, 2, 8] {
            tk.push(v, v * 10);
        }
        assert_eq!(tk.into_sorted(), vec![10, 20, 30]);
    }

    #[test]
    fn descending_via_reverse() {
        let mut tk = TopK::new(2);
        for (count, id) in [(5u32, 1u64), (9, 2), (9, 3), (1, 4)] {
            tk.push((Reverse(count), id), id);
        }
        // Highest count first; ties by ascending id.
        assert_eq!(tk.into_sorted(), vec![2, 3]);
    }

    #[test]
    fn would_accept_prunes_correctly() {
        let mut tk = TopK::new(2);
        tk.push(10, "a");
        assert!(tk.would_accept(&100), "not full yet: accept anything");
        tk.push(20, "b");
        assert!(!tk.would_accept(&20), "equal to worst: rejected");
        assert!(!tk.would_accept(&25));
        assert!(tk.would_accept(&15));
        assert_eq!(tk.threshold(), Some(&20));
        tk.push(15, "c");
        assert_eq!(tk.threshold(), Some(&15));
        assert_eq!(tk.into_sorted(), vec!["a", "c"]);
    }

    #[test]
    fn zero_k_accepts_nothing() {
        let mut tk: TopK<i32, ()> = TopK::new(0);
        assert!(!tk.would_accept(&1));
        tk.push(1, ());
        assert!(tk.is_empty());
        assert!(tk.into_sorted().is_empty());
    }

    #[test]
    fn fewer_items_than_k() {
        let mut tk = TopK::new(10);
        tk.push(2, "b");
        tk.push(1, "a");
        assert_eq!(tk.len(), 2);
        assert_eq!(tk.into_sorted(), vec!["a", "b"]);
    }

    #[test]
    fn operator_counters_track_offers_prunes_and_merges() {
        let mut tk = TopK::new(2);
        tk.push(10, "a");
        tk.push(20, "b");
        assert!(!tk.would_accept(&30)); // pruned
        assert!(tk.would_accept(&5)); // not pruned
        assert_eq!((tk.offered(), tk.pruned()), (2, 1));
        let mut other = TopK::new(1);
        other.push(1, "c");
        assert!(!other.would_accept(&50));
        tk.merge_from(other);
        // Merge carries counters but does not re-count the moved entry.
        assert_eq!((tk.offered(), tk.pruned()), (3, 2));
        assert_eq!(tk.into_sorted(), vec!["c", "a"]);
    }

    #[test]
    fn offer_keeps_what_push_keeps_and_projects_survivors_only() {
        // Late projection must be invisible: same survivors, same
        // order (first-seen wins a tie on the key), rows built only for
        // what is kept.
        let items = [(5u32, 'a'), (1, 'b'), (5, 'c'), (3, 'd'), (1, 'e'), (9, 'f'), (3, 'g')];
        for k in 0..=items.len() + 1 {
            let mut pushed = TopK::new(k);
            let mut offered = TopK::new(k);
            for &(key, v) in &items {
                pushed.push(key, v);
                offered.offer(key, v);
            }
            assert_eq!(offered.offered() + offered.pruned(), items.len() as u64, "k={k}");
            let mut built = 0;
            let rows = offered.into_rows(|key, v| {
                built += 1;
                format!("{key}{v}")
            });
            let expect: Vec<String> = pushed
                .into_sorted_entries()
                .into_iter()
                .map(|(key, v)| format!("{key}{v}"))
                .collect();
            assert_eq!(rows, expect, "k={k}");
            assert_eq!(built, k.min(items.len()), "k={k}");
        }
        let mut tk = TopK::new(3);
        for &(key, v) in &items {
            tk.offer(key, v);
        }
        assert_eq!(tk.into_rows(|_, v| v), vec!['b', 'e', 'd'], "ties keep arrival order");
    }

    #[test]
    fn zero_k_offer_prunes_everything() {
        let mut tk: TopK<i32, i32> = TopK::new(0);
        tk.offer(1, 10);
        tk.offer(2, 20);
        assert_eq!((tk.offered(), tk.pruned()), (0, 2));
        assert!(tk.into_rows(|_, v| v).is_empty());
    }

    #[test]
    fn merged_offer_collectors_keep_counter_sums() {
        let (left, right) = ([4, 8, 1, 9, 7], [3, 6, 2, 5]);
        let mut a = TopK::new(2);
        let mut b = TopK::new(2);
        left.iter().for_each(|&key| a.offer(key, key * 10));
        right.iter().for_each(|&key| b.offer(key, key * 10));
        let (offered, pruned) = (a.offered() + b.offered(), a.pruned() + b.pruned());
        assert_eq!(offered + pruned, (left.len() + right.len()) as u64);
        a.merge_from(b);
        assert_eq!((a.offered(), a.pruned()), (offered, pruned), "merge re-counts nothing");
        assert_eq!(a.into_rows(|key, v| (key, v)), vec![(1, 10), (2, 20)]);
    }

    #[test]
    fn agrees_with_sort_truncate() {
        use snb_core::rng::Rng;
        let mut rng = Rng::new(7);
        for trial in 0..50 {
            let n = rng.index(200) + 1;
            let k = rng.index(20) + 1;
            let items: Vec<(u64, u64)> = (0..n).map(|i| (rng.next_bounded(50), i as u64)).collect();
            let mut tk = TopK::new(k);
            for &(key, v) in &items {
                tk.push((key, v), v);
            }
            let expect = sort_truncate(items.iter().map(|&(key, v)| ((key, v), v)).collect(), k);
            assert_eq!(tk.into_sorted(), expect, "trial {trial} n={n} k={k}");
        }
    }
}
