//! Horizontal partitioning: hash-sharded entity ownership behind a
//! facade that preserves the monolithic [`Store`] API.
//!
//! The store stays **one** columnar block with **one** global dense-id
//! space — partitioning is an overlay, not a physical split. Each
//! person and message is *owned* by the shard its dense id hashes to
//! ([`partition_of`]); edge lists stay co-located with their source
//! vertex because CSR adjacency is keyed by the source's dense id, so
//! whichever shard owns the source owns its out-edges. The overlay
//! buys three things without disturbing a single query plan:
//!
//! * **shard-routed writes** — the server routes update batches to
//!   per-partition WAL segments by [`partition_of_raw`] over the raw
//!   id (raw ids are stable before the dense id is even assigned);
//! * **per-shard date indexes** — each shard keeps its own
//!   `(creation_date, ix)`-sorted message list; shard windows merge
//!   back to exactly the global window (see
//!   [`PartitionedStore::merged_window`]), which is what lets the BI
//!   date-window helpers compose per-shard ranges;
//! * **a proof obligation** — [`validate_partition_invariants`] checks
//!   that the shards are a disjoint cover and the per-shard date lists
//!   merge to the global permutation, for any partition count.
//!
//! Determinism: the id→shard map is a pure function of `(dense id,
//! partition count)`; every merge is ordered by the same `(date, ix)`
//! key the global index uses. Partition count therefore changes layout
//! and locality, never results.
//!
//! [`validate_partition_invariants`]: PartitionedStore::validate_partition_invariants

use snb_core::datetime::DateTime;
use snb_core::{SnbError, SnbResult};
use snb_datagen::dictionaries::StaticWorld;
use snb_datagen::stream::TimedEvent;

use crate::columns::Ix;
use crate::cow::CowBox;
use crate::delete::{DeleteOp, DeleteStats};
use crate::store::Store;

/// Fibonacci multiplier (2^64 / φ) — spreads consecutive dense ids
/// evenly across shards, so the time-clustered id ranges the datagen
/// produces don't pile onto one partition.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// The shard owning dense id `ix` under `parts` partitions. Pure
/// function of its inputs; `parts = 1` always yields shard 0.
#[inline]
pub fn partition_of(ix: Ix, parts: usize) -> usize {
    if parts <= 1 {
        return 0;
    }
    ((ix as u64).wrapping_mul(FIB) >> 32) as usize % parts
}

/// The shard a *raw* (external) id routes to — used on the write path,
/// where a batch must pick its WAL segment before the dense id exists.
/// Distinct from [`partition_of`]: raw-id routing balances the log,
/// dense-id ownership shards the store; both are deterministic.
#[inline]
pub fn partition_of_raw(id: u64, parts: usize) -> usize {
    if parts <= 1 {
        return 0;
    }
    (id.wrapping_mul(FIB) >> 32) as usize % parts
}

/// Splits `ixs` into per-shard lists by owner, keeping their order.
fn shard(ixs: impl Iterator<Item = Ix>, parts: usize) -> Vec<CowBox<Vec<Ix>>> {
    let mut shards = vec![Vec::new(); parts];
    for ix in ixs {
        shards[partition_of(ix, parts)].push(ix);
    }
    shards.into_iter().map(CowBox::new).collect()
}

/// The per-shard overlay: ownership lists plus per-shard date indexes.
///
/// Each shard's lists sit in their own [`CowBox`], so cloning a layout
/// for the next store version shares every shard a write batch doesn't
/// touch — copy-on-write is per *partition*, not per layout.
#[derive(Clone, Debug, Default)]
pub struct PartitionLayout {
    parts: usize,
    /// Dense person ids per owning shard, ascending.
    person_shards: Vec<CowBox<Vec<Ix>>>,
    /// Dense message ids per owning shard, ascending.
    message_shards: Vec<CowBox<Vec<Ix>>>,
    /// Per-shard message lists in ascending `(creation_date, ix)`
    /// order — the shard-local slice of the global date permutation.
    date_shards: Vec<CowBox<Vec<Ix>>>,
    /// Messages covered by `date_shards`; behind `messages.len()` means
    /// the per-shard date lists are stale (mirrors the global index).
    date_indexed: usize,
}

impl PartitionLayout {
    fn build(store: &Store, parts: usize) -> PartitionLayout {
        let parts = parts.max(1);
        let mut layout = PartitionLayout {
            parts,
            person_shards: shard(0..store.persons.len() as Ix, parts),
            message_shards: shard(0..store.messages.len() as Ix, parts),
            date_shards: Vec::new(),
            date_indexed: 0,
        };
        layout.rebuild_date_shards(store);
        layout
    }

    /// Re-derives the per-shard date lists by splitting the global
    /// permutation by owner; empty lists marked stale when the global
    /// index is stale (the shard lists then report stale too).
    fn rebuild_date_shards(&mut self, store: &Store) {
        if store.date_index_fresh() {
            self.date_shards = shard(store.message_by_date.iter().copied(), self.parts);
            self.date_indexed = store.messages.len();
        } else {
            self.date_shards = shard(std::iter::empty(), self.parts);
            self.date_indexed = 0;
        }
    }

    /// Number of shards.
    pub fn partitions(&self) -> usize {
        self.parts
    }

    /// Dense person ids owned by shard `p`, ascending.
    pub fn shard_persons(&self, p: usize) -> &[Ix] {
        &self.person_shards[p]
    }

    /// Dense message ids owned by shard `p`, ascending.
    pub fn shard_messages(&self, p: usize) -> &[Ix] {
        &self.message_shards[p]
    }
}

/// The partitioned facade: a monolithic [`Store`] plus the shard
/// overlay, kept consistent through the mutating wrappers.
///
/// `Deref<Target = Store>` exposes the complete read API unchanged —
/// every query plan compiles against a `PartitionedStore` exactly as it
/// did against `Store`. There is deliberately **no** `DerefMut`: all
/// mutation goes through [`apply_event`](PartitionedStore::apply_event)
/// / [`apply_deletes`](PartitionedStore::apply_deletes) so the overlay
/// can never silently go stale.
#[derive(Clone)]
pub struct PartitionedStore {
    store: Store,
    layout: PartitionLayout,
}

impl std::ops::Deref for PartitionedStore {
    type Target = Store;
    fn deref(&self) -> &Store {
        &self.store
    }
}

impl PartitionedStore {
    /// Wraps a store into `parts` shards (`0`/`1` = single shard).
    pub fn new(store: Store, parts: usize) -> PartitionedStore {
        let layout = PartitionLayout::build(&store, parts.max(1));
        PartitionedStore { store, layout }
    }

    /// Shard count.
    pub fn partitions(&self) -> usize {
        self.layout.parts
    }

    /// The shard overlay (ownership lists + per-shard date indexes).
    pub fn layout(&self) -> &PartitionLayout {
        &self.layout
    }

    /// Unwraps the facade.
    pub fn into_store(self) -> Store {
        self.store
    }

    /// Applies one update-stream event and incrementally extends the
    /// overlay: new dense ids append to their owning shard (ids grow
    /// monotonically, so shard lists stay ascending), and in-order
    /// message inserts extend the owning shard's date list exactly when
    /// they extend the global one.
    pub fn apply_event(&mut self, event: &TimedEvent, world: &StaticWorld) -> SnbResult<()> {
        let result = self.store.apply_event(event, world);
        self.sync_appended();
        result
    }

    /// Applies a delete batch. Removed persons or messages renumber the
    /// dense ids after them, so their ownership lists are re-split, and
    /// the date shards follow the global index whenever it changed; a
    /// batch that removes only edges leaves every shard shared.
    pub fn apply_deletes(&mut self, ops: &[DeleteOp]) -> SnbResult<DeleteStats> {
        let stats = self.store.apply_deletes(ops)?;
        let parts = self.layout.parts;
        if stats.persons > 0 {
            self.layout.person_shards = shard(0..self.store.persons.len() as Ix, parts);
        }
        if stats.messages > 0 {
            self.layout.message_shards = shard(0..self.store.messages.len() as Ix, parts);
        }
        if stats.messages > 0 || !self.shard_date_fresh() {
            self.layout.rebuild_date_shards(&self.store);
        }
        Ok(stats)
    }

    /// Rebuilds the global date permutation and the per-shard splits.
    pub fn rebuild_date_index(&mut self) {
        self.store.rebuild_date_index();
        self.layout.rebuild_date_shards(&self.store);
    }

    /// Folds the adjacency overflow back into CSR form and refreshes
    /// both date-index levels.
    pub fn compact(&mut self) {
        self.store.compact();
        self.layout.rebuild_date_shards(&self.store);
    }

    /// Whether the per-shard date lists cover every message.
    pub fn shard_date_fresh(&self) -> bool {
        self.layout.date_indexed == self.store.messages.len() && self.store.date_index_fresh()
    }

    /// Shard `p`'s messages in the half-open window `[lo, hi)`, in
    /// ascending `(creation_date, ix)` order. `None` when stale.
    pub fn shard_messages_in(&self, p: usize, lo: DateTime, hi: DateTime) -> Option<&[Ix]> {
        if !self.shard_date_fresh() {
            return None;
        }
        let shard = &self.layout.date_shards[p];
        if hi <= lo {
            return Some(&shard[0..0]);
        }
        let dates = &self.store.messages.creation_date;
        let a = shard.partition_point(|&m| dates[m as usize] < lo);
        let b = shard.partition_point(|&m| dates[m as usize] < hi);
        Some(&shard[a..b])
    }

    /// The global `[lo, hi)` window re-composed by k-way-merging the
    /// per-shard windows on `(creation_date, ix)` — byte-identical to
    /// [`Store::messages_created_in`] for any partition count. `None`
    /// when the shard indexes are stale.
    pub fn merged_window(&self, lo: DateTime, hi: DateTime) -> Option<Vec<Ix>> {
        let shards: Vec<&[Ix]> = (0..self.layout.parts)
            .map(|p| self.shard_messages_in(p, lo, hi))
            .collect::<Option<_>>()?;
        let dates = &self.store.messages.creation_date;
        let mut cursors = vec![0usize; shards.len()];
        let mut out = Vec::with_capacity(shards.iter().map(|s| s.len()).sum());
        loop {
            let mut best: Option<(DateTime, Ix, usize)> = None;
            for (p, shard) in shards.iter().enumerate() {
                if let Some(&m) = shard.get(cursors[p]) {
                    let key = (dates[m as usize], m);
                    if best.map(|(d, i, _)| key < (d, i)).unwrap_or(true) {
                        best = Some((key.0, key.1, p));
                    }
                }
            }
            match best {
                Some((_, m, p)) => {
                    out.push(m);
                    cursors[p] += 1;
                }
                None => break,
            }
        }
        Some(out)
    }

    /// Extends the overlay for ids appended since the last sync.
    fn sync_appended(&mut self) {
        let parts = self.layout.parts;
        let persons_known: usize = self.layout.person_shards.iter().map(|s| s.len()).sum();
        for p in persons_known as Ix..self.store.persons.len() as Ix {
            self.layout.person_shards[partition_of(p, parts)].push(p);
        }
        let messages_known: usize = self.layout.message_shards.iter().map(|s| s.len()).sum();
        for m in messages_known as Ix..self.store.messages.len() as Ix {
            self.layout.message_shards[partition_of(m, parts)].push(m);
            // The shard date list extends iff the global index did: the
            // stream's in-order inserts append ascending `(date, ix)`
            // keys, and any subsequence of an ascending sequence is
            // ascending, so a tail push is always safe here.
            if self.layout.date_indexed == m as usize
                && self.store.message_by_date.len() > m as usize
            {
                self.layout.date_shards[partition_of(m, parts)].push(m);
                self.layout.date_indexed = m as usize + 1;
            }
        }
    }

    /// Proof obligation for the overlay: shards are disjoint, cover
    /// every dense id, agree with the ownership hash, and the per-shard
    /// date lists merge back to exactly the global permutation.
    pub fn validate_partition_invariants(&self) -> SnbResult<()> {
        let check_cover = |shards: &[CowBox<Vec<Ix>>], n: usize, what: &str| -> SnbResult<()> {
            let mut seen = vec![false; n];
            for (p, shard) in shards.iter().enumerate() {
                for w in shard.windows(2) {
                    if w[0] >= w[1] {
                        return Err(SnbError::Config(format!("{what} shard {p} not ascending")));
                    }
                }
                for &ix in shard {
                    if partition_of(ix, self.layout.parts) != p {
                        return Err(SnbError::Config(format!(
                            "{what} {ix} misplaced in shard {p}"
                        )));
                    }
                    if seen[ix as usize] {
                        return Err(SnbError::Config(format!("{what} {ix} owned twice")));
                    }
                    seen[ix as usize] = true;
                }
            }
            if seen.iter().any(|&s| !s) {
                return Err(SnbError::Config(format!("{what} shards don't cover all ids")));
            }
            Ok(())
        };
        check_cover(&self.layout.person_shards, self.store.persons.len(), "person")?;
        check_cover(&self.layout.message_shards, self.store.messages.len(), "message")?;
        if self.shard_date_fresh() {
            let merged = self
                .merged_window(DateTime(i64::MIN), DateTime(i64::MAX))
                .ok_or_else(|| SnbError::Config("fresh shard index yielded no window".into()))?;
            // MAX is exclusive in the window; cover any message created
            // exactly at DateTime(i64::MAX) via the full-permutation check.
            let global = &self.store.message_by_date;
            if merged.len() == global.len() && merged[..] != global[..] {
                return Err(SnbError::Config("shard date merge != global permutation".into()));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snb_datagen::GeneratorConfig;

    fn small_config() -> GeneratorConfig {
        let mut c = GeneratorConfig::for_scale_name("0.001").unwrap();
        c.persons = 100;
        c
    }

    #[test]
    fn hash_is_pure_and_in_range() {
        for parts in [1usize, 2, 3, 4, 7] {
            for ix in 0..500u32 {
                let p = partition_of(ix, parts);
                assert!(p < parts);
                assert_eq!(p, partition_of(ix, parts));
            }
        }
        assert_eq!(partition_of(42, 1), 0);
        assert_eq!(partition_of_raw(u64::MAX, 1), 0);
        for parts in [2usize, 4] {
            assert!(partition_of_raw(123_456_789, parts) < parts);
        }
    }

    #[test]
    fn hash_spreads_dense_ids() {
        // Consecutive dense ids must not all land on one shard.
        for parts in [2usize, 4] {
            let mut counts = vec![0usize; parts];
            for ix in 0..4096u32 {
                counts[partition_of(ix, parts)] += 1;
            }
            let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
            assert!(*min > 0, "empty shard for parts={parts}: {counts:?}");
            assert!(*max < 4096, "all ids on one shard for parts={parts}");
        }
    }

    #[test]
    fn layout_invariants_hold_for_any_partition_count() {
        for parts in [1usize, 2, 3, 4] {
            let ps = PartitionedStore::new(crate::store_for_config(&small_config()), parts);
            assert_eq!(ps.partitions(), parts);
            assert!(ps.shard_date_fresh());
            ps.validate_partition_invariants().unwrap();
        }
    }

    #[test]
    fn merged_window_equals_global_window() {
        let ps = PartitionedStore::new(crate::store_for_config(&small_config()), 4);
        let dates = &ps.messages.creation_date;
        assert!(!dates.is_empty());
        let mut sorted = dates.clone();
        sorted.sort_unstable();
        let (lo, hi) = (sorted[sorted.len() / 4], sorted[3 * sorted.len() / 4]);
        let global = ps.messages_created_in(lo, hi).unwrap().to_vec();
        assert_eq!(ps.merged_window(lo, hi).unwrap(), global);
        // Degenerate windows.
        assert!(ps.merged_window(hi, lo).unwrap().is_empty());
        let all = ps.merged_window(DateTime(i64::MIN), DateTime(i64::MAX)).unwrap();
        assert_eq!(
            all.len(),
            ps.messages_created_in(DateTime(i64::MIN), DateTime(i64::MAX)).unwrap().len()
        );
    }

    #[test]
    fn streamed_inserts_keep_overlay_fresh() {
        let c = small_config();
        let (store, events) = crate::bulk_store_and_stream(&c);
        let world = StaticWorld::build(c.seed);
        let mut ps = PartitionedStore::new(store, 3);
        for e in &events {
            ps.apply_event(e, &world).unwrap();
        }
        assert!(ps.date_index_fresh(), "stream left the global index stale");
        assert!(ps.shard_date_fresh(), "stream left the shard indexes stale");
        ps.validate_partition_invariants().unwrap();
    }

    #[test]
    fn deletes_rebuild_overlay_with_remapped_ids() {
        let c = small_config();
        let mut ps = PartitionedStore::new(crate::store_for_config(&c), 2);
        let victim = ps.persons.id[0];
        let before = ps.persons.len();
        ps.apply_deletes(&[DeleteOp::Person(victim)]).unwrap();
        assert!(ps.persons.len() < before);
        assert!(ps.shard_date_fresh());
        ps.validate_invariants().unwrap();
        ps.validate_partition_invariants().unwrap();
    }

    #[test]
    fn like_only_delete_shares_everything_but_the_likes() {
        let c = small_config();
        let h = crate::StoreHandle::new(PartitionedStore::new(crate::store_for_config(&c), 2));
        let before = h.snapshot();
        let p = (0..before.persons.len() as Ix).find(|&p| before.person_likes.degree(p) > 0);
        let p = p.expect("a person with a like");
        let (m, _) = before.person_likes.neighbors(p).next().unwrap();
        let op = DeleteOp::Like(before.persons.id[p as usize], before.messages.id[m as usize]);
        h.publish_with(|next| next.apply_deletes(&[op])).unwrap();
        let after = h.snapshot();
        after.validate_invariants().unwrap();
        after.validate_partition_invariants().unwrap();
        let (a, b): (&Store, &Store) = (&before, &after);
        macro_rules! shared {
            ($($field:ident),*) => {$(
                assert!(CowBox::ptr_eq(&a.$field, &b.$field), "{} was copied", stringify!($field));
            )*};
        }
        shared!(persons, forums, messages, places, tags, tag_classes, organisations);
        shared!(person_ix, forum_ix, message_ix, place_ix, tag_ix, tag_class_ix, org_ix);
        shared!(knows, person_interest, interest_person, person_study, person_work);
        shared!(forum_member, member_forum, forum_tag, tag_forum, message_tag, tag_message);
        shared!(person_messages, forum_posts, message_replies, place_children, city_person);
        shared!(tagclass_children, tagclass_tags, person_moderates);
        shared!(message_by_date, place_by_name, tag_by_name, tag_class_by_name);
        assert!(!CowBox::ptr_eq(&a.person_likes, &b.person_likes));
        assert!(!CowBox::ptr_eq(&a.message_likes, &b.message_likes));
        assert_eq!(b.person_likes.edge_count(), a.person_likes.edge_count() - 1);
        let (la, lb) = (before.layout(), after.layout());
        for (x, y) in [
            (&la.person_shards, &lb.person_shards),
            (&la.message_shards, &lb.message_shards),
            (&la.date_shards, &lb.date_shards),
        ] {
            assert!(x.iter().zip(y).all(|(x, y)| CowBox::ptr_eq(x, y)), "a shard was copied");
        }
    }

    #[test]
    fn delete_batches_fold_all_insert_overflow() {
        let c = small_config();
        let (store, events) = crate::bulk_store_and_stream(&c);
        let world = StaticWorld::build(c.seed);
        let mut ps = PartitionedStore::new(store, 3);
        let (half, rest) = events.split_at(events.len() / 2);
        for e in half {
            ps.apply_event(e, &world).unwrap();
        }
        assert!(!ps.store.clone().fold_overflow().is_empty(), "inserts must overflow");
        // An edge-only batch, then (after more inserts) an entity batch.
        let p = (0..ps.persons.len() as Ix).find(|&p| ps.knows.degree(p) > 0).unwrap();
        let q = ps.knows.targets_of(p).next().unwrap();
        let op = DeleteOp::Knows(ps.persons.id[p as usize], ps.persons.id[q as usize]);
        ps.apply_deletes(&[op]).unwrap();
        assert_eq!(ps.store.clone().fold_overflow(), Vec::<&str>::new());
        ps.validate_invariants().unwrap();
        ps.validate_partition_invariants().unwrap();
        for e in rest {
            ps.apply_event(e, &world).unwrap();
        }
        let post = (0..ps.messages.len() as Ix).rev().find(|&m| ps.messages.is_post(m)).unwrap();
        ps.apply_deletes(&[DeleteOp::Message(ps.messages.id[post as usize])]).unwrap();
        assert_eq!(ps.store.clone().fold_overflow(), Vec::<&str>::new());
        assert!(ps.shard_date_fresh());
        ps.validate_invariants().unwrap();
        ps.validate_partition_invariants().unwrap();
    }

    #[test]
    fn facade_preserves_read_api() {
        let ps = PartitionedStore::new(crate::store_for_config(&small_config()), 2);
        // Deref surfaces the monolithic API unchanged.
        let first = ps.persons.id[0];
        assert_eq!(ps.person(first).unwrap(), 0);
        assert!(ps.stats().nodes > 0);
    }
}
