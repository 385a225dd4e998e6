//! Epoch/snapshot concurrency: immutable published store versions.
//!
//! The service tier used to funnel every request — including pure
//! reads — through one `RwLock<Store>`, the exact
//! anti-pattern the LDBC benchmarking literature flags as the reason
//! "parallel" engines show negative scaling under mixed load. This
//! module replaces the lock with version publication:
//!
//! * a **writer** clones the latest [`Store`] (near-free:
//!   every component is a [`CowBox`](crate::cow::CowBox), so the clone
//!   is one `Arc` bump per component), mutates the private clone, and
//!   publishes it as the next [`StoreVersion`] with an atomic swap. The
//!   first write to a component clones it, and that clone shares the
//!   component's buffers ([`AppendVec`](crate::append_vec::AppendVec),
//!   [`IdMap`](crate::columns::IdMap)): an insert appends into them in
//!   place past every published version's `len`, and only an in-place
//!   edit (a delete) copies a buffer;
//! * a **reader** grabs a [`StoreSnapshot`] pointer at admission —
//!   wait-free in the common case, never taking a lock — and runs its
//!   whole query against that immutable version, unaffected by any
//!   concurrent publish.
//!
//! The invalidation point is the publish itself: a version is visible
//! to new readers exactly from the moment [`SnapshotCell::publish`]
//! stores the new version counter, and a reader admitted before that
//! instant keeps its old version alive (and byte-identical) for as long
//! as it holds the snapshot. Mid-batch state is unpublishable by
//! construction: if the mutation closure fails or panics, the private
//! clone is discarded and the current version stays current.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use snb_core::SnbResult;

use crate::store::Store;

/// Slot-ring size of the [`SnapshotCell`]: the current version and the
/// one being published. A publish releases the slot it superseded, so
/// the ring itself keeps only the current version alive (readers keep
/// older ones alive through their snapshots).
const SLOTS: usize = 2;

/// Reader attempts before a retry loop is counted as *blocked* (the
/// safety valve `crates/server/tests/concurrent_stress.rs` asserts never
/// fires).
const BLOCKED_AFTER: u32 = 64;

struct Slot<T> {
    /// Readers currently dereferencing this slot's value.
    pins: AtomicU64,
    value: UnsafeCell<Option<Arc<T>>>,
}

/// A lock-free single-writer / multi-reader publication cell.
///
/// Readers never block: [`load`](SnapshotCell::load) is a pin → recheck
/// → clone → unpin sequence that retries only if a publish raced it
/// (bounded in practice by the publish rate, and counted honestly in
/// [`reader_retries`](SnapshotCell::reader_retries)). The writer waits
/// only for stragglers pinning the slot it is about to write or release
/// — a reader mid-clone, a window of a few instructions.
///
/// Publishes must be serialized by the caller ([`StoreHandle`] holds a
/// mutex); a concurrent publish is a programming error and panics.
pub struct SnapshotCell<T> {
    slots: Box<[Slot<T>]>,
    /// Monotone version counter of the latest published value; the
    /// value for version `v` lives in slot `v % SLOTS`.
    current: AtomicU64,
    publishing: AtomicBool,
    reader_retries: AtomicU64,
    reader_blocked: AtomicU64,
}

// Safety: the cell hands out `Arc<T>` clones across threads (needs
// `T: Send + Sync`) and guards every `UnsafeCell` access with the
// pin/recheck protocol proven in `load`/`publish`.
unsafe impl<T: Send + Sync> Send for SnapshotCell<T> {}
unsafe impl<T: Send + Sync> Sync for SnapshotCell<T> {}

impl<T> SnapshotCell<T> {
    /// A cell whose version 0 is `initial`.
    pub fn new(initial: Arc<T>) -> SnapshotCell<T> {
        let slots: Box<[Slot<T>]> = (0..SLOTS)
            .map(|i| Slot {
                pins: AtomicU64::new(0),
                value: UnsafeCell::new((i == 0).then_some(Arc::clone(&initial))),
            })
            .collect();
        SnapshotCell {
            slots,
            current: AtomicU64::new(0),
            publishing: AtomicBool::new(false),
            reader_retries: AtomicU64::new(0),
            reader_blocked: AtomicU64::new(0),
        }
    }

    /// The latest published version counter.
    pub fn version(&self) -> u64 {
        self.current.load(Ordering::SeqCst)
    }

    /// Loads the latest published value without ever taking a lock.
    pub fn load(&self) -> Arc<T> {
        let mut attempts = 0u32;
        loop {
            let cur = self.current.load(Ordering::SeqCst);
            let slot = &self.slots[(cur as usize) % SLOTS];
            slot.pins.fetch_add(1, Ordering::SeqCst);
            if self.current.load(Ordering::SeqCst) == cur {
                // SAFETY: the pin is visible (SeqCst RMW) and the
                // version did not move. The writer touches this slot
                // again only after advancing `current` past `cur` (to
                // release it, later to reuse it) and drains pins first
                // each time — so it will observe ours and wait. Reading
                // the cell here cannot race a write.
                let value =
                    unsafe { (*slot.value.get()).as_ref().expect("published slot").clone() };
                slot.pins.fetch_sub(1, Ordering::SeqCst);
                return value;
            }
            // A publish raced us between the version read and the pin;
            // the slot may be mid-overwrite. Back off and retry.
            slot.pins.fetch_sub(1, Ordering::SeqCst);
            self.reader_retries.fetch_add(1, Ordering::Relaxed);
            attempts += 1;
            if attempts >= BLOCKED_AFTER {
                // Safety valve: only reachable if a publish lands between
                // the version read and the recheck 64 times in a row.
                // Counted so `crates/server/tests/concurrent_stress.rs`
                // can assert it stays at zero.
                self.reader_blocked.fetch_add(1, Ordering::Relaxed);
                attempts = 0;
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Publishes `value` as the next version and returns its counter,
    /// then releases the version it superseded — a version outlives its
    /// publish only while some reader's clone holds it. Caller must
    /// serialize publishes.
    pub fn publish(&self, value: Arc<T>) -> u64 {
        assert!(
            !self.publishing.swap(true, Ordering::SeqCst),
            "concurrent SnapshotCell::publish — publishes must be serialized"
        );
        let prev = self.current.load(Ordering::SeqCst);
        let next = prev + 1;
        let slot = &self.slots[(next as usize) % SLOTS];
        self.drain(slot);
        // SAFETY: pins are zero, and any reader that pins from here on
        // rechecks `current`, which names `prev`, not a version stored
        // in this slot, so it unpins without touching the cell.
        unsafe { *slot.value.get() = Some(value) };
        self.current.store(next, Ordering::SeqCst);
        let old = &self.slots[(prev as usize) % SLOTS];
        self.drain(old);
        // SAFETY: the same argument one version later — a reader still
        // cloning `prev` pinned before `current` moved, so the drain
        // waited for it, and any later pin rechecks and sees `next`.
        let released = unsafe { (*old.value.get()).take() };
        self.publishing.store(false, Ordering::SeqCst);
        drop(released);
        next
    }

    /// Waits out readers pinning `slot`. Readers hold pins only across
    /// an `Arc` clone, so this wait is a few instructions long.
    fn drain(&self, slot: &Slot<T>) {
        let mut spins = 0u32;
        while slot.pins.load(Ordering::SeqCst) != 0 {
            spins += 1;
            if spins >= BLOCKED_AFTER {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Reader retry count (pin attempts that lost a race to a publish).
    pub fn reader_retries(&self) -> u64 {
        self.reader_retries.load(Ordering::Relaxed)
    }

    /// Reader safety-valve count — loops that exceeded `BLOCKED_AFTER`
    /// attempts and yielded. Zero under any sane
    /// publish rate; `crates/server/tests/concurrent_stress.rs` asserts
    /// exactly that.
    pub fn reader_blocked(&self) -> u64 {
        self.reader_blocked.load(Ordering::Relaxed)
    }
}

/// Live/peak gauge for published versions, shared by every
/// [`StoreVersion`] a handle creates.
#[derive(Default)]
struct LiveGauge {
    live: AtomicU64,
    peak: AtomicU64,
}

impl LiveGauge {
    fn inc(&self) {
        let now = self.live.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak.fetch_max(now, Ordering::SeqCst);
    }
    fn dec(&self) {
        self.live.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One immutable published version of the store.
///
/// Dereferences to [`Store`], so query code takes a version exactly
/// where it used to take a store reference.
pub struct StoreVersion {
    store: Store,
    version: u64,
    published_at: Instant,
    gauge: Arc<LiveGauge>,
}

impl StoreVersion {
    /// The version counter stamped at publish time (0 = bulk-load base).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Time since this version was published.
    pub fn age(&self) -> Duration {
        self.published_at.elapsed()
    }
}

impl std::ops::Deref for StoreVersion {
    type Target = Store;
    fn deref(&self) -> &Store {
        &self.store
    }
}

impl Drop for StoreVersion {
    fn drop(&mut self) {
        self.gauge.dec();
    }
}

/// A reader's pinned, immutable view of one published store version.
/// Cloning is an `Arc` bump; the underlying version (and every result
/// computed from it) stays byte-identical for the snapshot's lifetime,
/// no matter how many versions the writer publishes meanwhile.
#[derive(Clone)]
pub struct StoreSnapshot(Arc<StoreVersion>);

impl StoreSnapshot {
    /// The published version this snapshot pins.
    pub fn version(&self) -> u64 {
        self.0.version()
    }

    /// Time since this snapshot's version was published — the
    /// "snapshot age" the access log records per request.
    pub fn age(&self) -> Duration {
        self.0.age()
    }

    /// The pinned store version.
    pub fn store(&self) -> &Store {
        &self.0.store
    }
}

impl std::ops::Deref for StoreSnapshot {
    type Target = Store;
    fn deref(&self) -> &Store {
        &self.0.store
    }
}

impl std::fmt::Debug for StoreSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreSnapshot").field("version", &self.version()).finish()
    }
}

/// Counters describing a handle's publication history, recorded in
/// benchmark metadata so result-cache work can key off the publish
/// point.
#[derive(Clone, Copy, Debug, Default)]
pub struct SnapshotStats {
    /// Latest published version (equals versions published; 0 = base).
    pub version: u64,
    /// Store versions currently alive: the current one plus those
    /// reader snapshots still pin (and, mid-publish, the next one).
    pub live_versions: u64,
    /// High-water mark of `live_versions`.
    pub peak_live_versions: u64,
    /// Reader pin attempts that lost a race to a publish and retried.
    pub reader_retries: u64,
    /// Reader retry loops that hit the safety valve and yielded —
    /// the "reader blocked" events CI asserts are zero.
    pub reader_blocked: u64,
}

/// The publication handle: the *only* way to mutate a served store.
///
/// Readers call [`snapshot`](StoreHandle::snapshot) (lock-free);
/// writers call [`publish_with`](StoreHandle::publish_with), which
/// builds the next version privately and publishes it atomically on
/// success. There is no way to reach a `&mut` of the published store,
/// so callers cannot bypass the writer or expose mid-batch state.
pub struct StoreHandle {
    cell: SnapshotCell<StoreVersion>,
    /// Serializes writers; held only across clone + mutate + publish,
    /// never touched by readers.
    publish: Mutex<()>,
    gauge: Arc<LiveGauge>,
}

impl StoreHandle {
    /// Publishes `store` as version 0 and returns the handle.
    pub fn new(store: Store) -> StoreHandle {
        let gauge = Arc::new(LiveGauge::default());
        gauge.inc();
        let base = StoreVersion {
            store,
            version: 0,
            published_at: Instant::now(),
            gauge: Arc::clone(&gauge),
        };
        StoreHandle { cell: SnapshotCell::new(Arc::new(base)), publish: Mutex::new(()), gauge }
    }

    /// The latest published version — lock-free.
    pub fn snapshot(&self) -> StoreSnapshot {
        StoreSnapshot(self.cell.load())
    }

    /// The latest published version counter.
    pub fn version(&self) -> u64 {
        self.cell.version()
    }

    /// Builds and publishes the next version: clones the latest store
    /// (cheap, copy-on-write), applies `f` to the private clone, and
    /// publishes it only if `f` returns `Ok`. On `Err` — or if `f`
    /// panics — the clone is discarded and readers keep seeing the
    /// current version; a half-applied batch is unpublishable.
    pub fn publish_with<R>(&self, f: impl FnOnce(&mut Store) -> SnbResult<R>) -> SnbResult<R> {
        // A writer panic poisons the std mutex; the store itself cannot
        // be torn (the clone died with the panic), so later writers may
        // keep going — the service layer decides separately whether to
        // degrade.
        let _writer = self.publish.lock().unwrap_or_else(|e| e.into_inner());
        let mut next = self.cell.load().store.clone();
        let out = f(&mut next)?;
        self.gauge.inc();
        let version = StoreVersion {
            store: next,
            version: self.cell.version() + 1,
            published_at: Instant::now(),
            gauge: Arc::clone(&self.gauge),
        };
        self.cell.publish(Arc::new(version));
        Ok(out)
    }

    /// Publication counters for run metadata.
    pub fn stats(&self) -> SnapshotStats {
        SnapshotStats {
            version: self.cell.version(),
            live_versions: self.gauge.live.load(Ordering::SeqCst),
            peak_live_versions: self.gauge.peak.load(Ordering::SeqCst),
            reader_retries: self.cell.reader_retries(),
            reader_blocked: self.cell.reader_blocked(),
        }
    }
}

impl std::fmt::Debug for StoreHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreHandle").field("version", &self.version()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snb_core::SnbError;

    fn handle() -> StoreHandle {
        StoreHandle::new(Store::default())
    }

    #[test]
    fn publish_increments_version_and_snapshot_pins_old() {
        let h = handle();
        let pinned = h.snapshot();
        assert_eq!(pinned.version(), 0);
        for i in 1..=3u64 {
            h.publish_with(|_s| Ok(())).unwrap();
            assert_eq!(h.version(), i);
        }
        // The pinned snapshot still names version 0 while the handle
        // serves version 3 to new readers.
        assert_eq!(pinned.version(), 0);
        assert_eq!(h.snapshot().version(), 3);
    }

    #[test]
    fn failed_publish_leaves_version_unchanged() {
        let h = handle();
        let err = h.publish_with(|_s| -> SnbResult<()> { Err(SnbError::Config("boom".into())) });
        assert!(err.is_err());
        assert_eq!(h.version(), 0, "a failed batch must not publish");
        assert_eq!(h.snapshot().version(), 0);
    }

    #[test]
    fn panicking_publish_discards_the_clone() {
        let h = Arc::new(handle());
        let h2 = Arc::clone(&h);
        let r = std::thread::spawn(move || {
            h2.publish_with(|_s| -> SnbResult<()> { panic!("mid-batch") })
        })
        .join();
        assert!(r.is_err(), "the panic must propagate");
        assert_eq!(h.version(), 0);
        // The handle must still accept publishes afterwards.
        h.publish_with(|_s| Ok(())).unwrap();
        assert_eq!(h.version(), 1);
    }

    #[test]
    fn gauge_tracks_live_and_peak_versions() {
        let h = handle();
        let s = h.stats();
        assert_eq!(s.version, 0);
        assert_eq!(s.live_versions, 1);
        for i in 1..=20 {
            h.publish_with(|_s| Ok(())).unwrap();
            // Nobody pins a superseded version, so only the current one
            // is alive after each publish.
            assert_eq!(h.stats().live_versions, 1, "after publish {i}");
        }
        let s = h.stats();
        assert_eq!(s.version, 20);
        // Mid-publish the current and the next version coexist.
        assert_eq!(s.peak_live_versions, 2);
    }

    #[test]
    fn pinned_snapshot_outlives_publishes_and_is_released_on_drop() {
        let mut c = snb_datagen::GeneratorConfig::for_scale_name("0.001").unwrap();
        c.persons = 60;
        let h = StoreHandle::new(crate::store_for_config(&c));
        let pinned = h.snapshot();
        let image = crate::encode_store(&pinned);
        for i in 1..=12u64 {
            // Each publish deletes a person, rewriting columns, id maps
            // and adjacencies of the next version.
            h.publish_with(|next| {
                let victim = crate::delete::DeleteOp::Person(next.persons.id[0]);
                next.apply_deletes(&[victim]).map(|_| ())
            })
            .unwrap();
            assert_eq!(h.stats().live_versions, 2, "pinned + current after publish {i}");
        }
        assert_eq!(pinned.version(), 0);
        assert!(crate::encode_store(&pinned) == image, "a pinned version must stay byte-identical");
        pinned.validate_invariants().unwrap();
        drop(pinned);
        assert_eq!(h.stats().live_versions, 1, "dropping the last pin frees the version");
        assert_eq!(h.snapshot().persons.len(), 60 - 12);
    }

    #[test]
    fn concurrent_readers_never_observe_torn_versions() {
        // Hammer load() from several threads while the writer publishes
        // as fast as it can; every loaded version must be valid and
        // monotone non-decreasing per reader.
        let h = Arc::new(handle());
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let h = Arc::clone(&h);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut last = 0u64;
                    let mut loads = 0u64;
                    // Check `stop` *after* each load: on a 1-core host
                    // the writer can finish all 500 publishes before
                    // this thread is first scheduled, and every reader
                    // must still observe at least one version.
                    loop {
                        let v = h.snapshot().version();
                        assert!(v >= last, "version went backwards: {last} -> {v}");
                        last = v;
                        loads += 1;
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                    loads
                })
            })
            .collect();
        for _ in 0..500 {
            h.publish_with(|_s| Ok(())).unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        let total: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
        assert!(total > 0);
        assert_eq!(h.version(), 500);
        assert_eq!(h.stats().reader_blocked, 0, "readers must never block");
    }
}
