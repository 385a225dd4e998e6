//! Published store versions: immutable snapshots for readers, one
//! writer building the next version beside them.
//!
//! * A **writer** clones the latest [`Store`] (near-free: every
//!   component is a [`CowBox`](crate::cow::CowBox), so the clone is one
//!   `Arc` bump per component), mutates the private clone, and publishes
//!   it as the next [`StoreVersion`] by swapping one pointer. The first
//!   write to a component clones it, and that clone shares the
//!   component's buffers ([`AppendVec`](crate::append_vec::AppendVec),
//!   [`IdMap`](crate::columns::IdMap)): an insert appends into them in
//!   place past every published version's `len`, and only an in-place
//!   edit (a delete) copies a buffer.
//! * A **reader** takes a [`StoreSnapshot`] at admission and runs its
//!   whole query against that immutable version, unaffected by any
//!   concurrent publish. Taking it holds a read guard only across one
//!   `Arc` clone, so a reader never waits for a batch to be applied,
//!   only (at worst) for the pointer swap that publishes it.
//!
//! A version is visible to new readers exactly from the swap in
//! [`StoreHandle::publish_with`], and a reader admitted before it keeps
//! its old version alive (and byte-identical) for as long as it holds
//! the snapshot. Mid-batch state is unpublishable by construction: if
//! the mutation closure fails or panics, the private clone is discarded
//! and the current version stays current.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

use snb_core::SnbResult;

use crate::store::Store;

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

/// Counters describing a handle's publication history, recorded in run
/// metadata.
#[derive(Clone, Copy, Debug, Default)]
pub struct SnapshotStats {
    /// Latest published version (equals versions published; 0 = base).
    pub version: u64,
    /// Store versions currently alive: the current one plus those
    /// reader snapshots still pin (and, mid-publish, the next one).
    pub live_versions: u64,
    /// High-water mark of `live_versions`.
    pub peak_live_versions: u64,
}

/// The publication handle: the *only* way to mutate a served store.
///
/// Readers call [`snapshot`](StoreHandle::snapshot); writers call
/// [`publish_with`](StoreHandle::publish_with), which builds the next
/// version privately and publishes it on success. There is no way to
/// reach a `&mut` of the published store, so callers cannot bypass the
/// writer or expose mid-batch state.
pub struct StoreHandle {
    /// The current version. Readers hold the read guard only while they
    /// clone the `Arc`, the writer holds the write guard only while it
    /// swaps the pointer; nothing is ever built or freed under a guard.
    current: RwLock<Arc<StoreVersion>>,
    /// Serializes writers; held across clone + mutate + publish, never
    /// touched by readers.
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
        StoreHandle { current: RwLock::new(Arc::new(base)), publish: Mutex::new(()), gauge }
    }

    /// The latest published version.
    fn current(&self) -> Arc<StoreVersion> {
        // No code under either guard can panic, so the lock is never
        // poisoned; `into_inner` only keeps the read path panic-free.
        Arc::clone(&self.current.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Pins the latest published version.
    pub fn snapshot(&self) -> StoreSnapshot {
        StoreSnapshot(self.current())
    }

    /// The latest published version counter.
    pub fn version(&self) -> u64 {
        self.current.read().unwrap_or_else(PoisonError::into_inner).version
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
        let _writer = self.publish.lock().unwrap_or_else(PoisonError::into_inner);
        let (mut next, version) = {
            let current = self.current();
            (current.store.clone(), current.version + 1)
        };
        let out = f(&mut next)?;
        self.gauge.inc();
        let next = Arc::new(StoreVersion {
            store: next,
            version,
            published_at: Instant::now(),
            gauge: Arc::clone(&self.gauge),
        });
        let superseded = {
            let mut current = self.current.write().unwrap_or_else(PoisonError::into_inner);
            std::mem::replace(&mut *current, next)
        };
        // The write guard is gone: freeing the buffers a delete batch
        // copied (milliseconds at scale) happens here, outside it, and
        // only if no reader still pins the superseded version.
        drop(superseded);
        Ok(out)
    }

    /// Publication counters for run metadata.
    pub fn stats(&self) -> SnapshotStats {
        SnapshotStats {
            version: self.version(),
            live_versions: self.gauge.live.load(Ordering::SeqCst),
            peak_live_versions: self.gauge.peak.load(Ordering::SeqCst),
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
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc;

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
    fn a_reader_pins_while_a_batch_is_being_applied() {
        // The batch waits inside its closure until this thread has
        // pinned a version: a guard held across the closure would stall
        // the pin until the wait times out, and the pin would then see
        // the batch's version.
        let h = Arc::new(handle());
        let (started_tx, started_rx) = mpsc::channel();
        let (pinned_tx, pinned_rx) = mpsc::channel::<()>();
        let writer = {
            let h = Arc::clone(&h);
            std::thread::spawn(move || {
                h.publish_with(|_s| {
                    started_tx.send(()).unwrap();
                    Ok(pinned_rx.recv_timeout(Duration::from_secs(5)).is_ok())
                })
            })
        };
        started_rx.recv().unwrap();
        let pinned = h.snapshot();
        let version = h.version();
        pinned_tx.send(()).ok();
        assert_eq!((pinned.version(), version), (0, 0), "the batch is not published yet");
        assert!(writer.join().unwrap().unwrap(), "the pin waited for the batch");
        assert_eq!(h.version(), 1);
        assert_eq!(pinned.version(), 0);
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
        // Hammer snapshot() from several threads while the writer publishes
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
    }
}
