//! Concurrent mixed read/write execution (spec §6.4, *Serializability*).
//!
//! The spec's optional serializability check: updates may execute
//! atomically while reads run concurrently, and an auditor verifies
//! serializability. This module provides the concurrency harness,
//! built on the store's snapshot-publication scheme
//! ([`snb_store::StoreHandle`]) — there is no lock anywhere on the
//! read path:
//!
//! * the writer drains the update stream in small batches, each batch
//!   building the next immutable store version on a private
//!   copy-on-write clone and publishing it atomically (one publish per
//!   batch bounds the copy-on-write cost without weakening atomicity:
//!   a version either contains a whole batch or none of it);
//! * `n` reader threads pin the latest published version per read and
//!   execute complex reads against it — they never block on the writer
//!   and never observe a half-applied update *by construction*;
//! * serializability evidence: periodic invariant checks on freshly
//!   pinned snapshots must always pass, and the final published state
//!   must equal a serial replay of the same stream.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crossbeam::channel;

use snb_core::SnbResult;
use snb_datagen::dictionaries::StaticWorld;
use snb_datagen::stream::TimedEvent;
use snb_interactive::IcParams;
use snb_store::{Store, StoreHandle};

/// Events per published version on the writer side: big enough to
/// amortize the copy-on-write clone of the touched columns, small
/// enough that readers see fresh data within microseconds.
const WRITE_BATCH: usize = 32;

/// Outcome of a concurrent run.
#[derive(Debug)]
pub struct ConcurrentReport {
    /// Updates applied by the writer.
    pub updates_applied: usize,
    /// Complex reads executed across all readers.
    pub reads_executed: usize,
    /// Consistency checks performed while the writer was active.
    pub consistency_checks: usize,
    /// Store versions the writer published (≈ `updates_applied /
    /// WRITE_BATCH`).
    pub versions_published: u64,
    /// Reader retry loops that hit the snapshot cell's safety valve —
    /// zero in any healthy run (readers are lock-free).
    pub readers_blocked: u64,
    /// Wall time of the whole run.
    pub wall: Duration,
}

/// Runs `reader_threads` complex-read loops concurrently with a writer
/// that applies every event in `events` through snapshot publication.
/// Each reader cycles through `bindings` on a freshly pinned snapshot
/// per read; a checker thread repeatedly validates store invariants on
/// pinned snapshots (the serializability probe). Returns once the
/// stream is drained and all readers have stopped.
pub fn run_concurrent(
    store: Store,
    world: &StaticWorld,
    events: &[TimedEvent],
    bindings: &[IcParams],
    reader_threads: usize,
) -> SnbResult<(Store, ConcurrentReport)> {
    let handle = StoreHandle::new(store);
    let done = AtomicBool::new(false);
    let reads = AtomicUsize::new(0);
    let checks = AtomicUsize::new(0);
    let (tx, rx) = channel::bounded::<&TimedEvent>(256);
    let started = Instant::now();
    let mut writer_result: SnbResult<usize> = Ok(0);

    std::thread::scope(|scope| {
        // Readers: cycle bindings until the writer finishes.
        for r in 0..reader_threads.max(1) {
            let handle = &handle;
            let done = &done;
            let reads = &reads;
            scope.spawn(move || {
                // One execution context per reader stream; intra-query
                // parallelism stays off so the reader threads themselves
                // are the unit of concurrency.
                let ctx = snb_engine::QueryContext::single_threaded();
                let mut i = r; // offset so readers hit different bindings
                while !done.load(Ordering::Acquire) {
                    if bindings.is_empty() {
                        break;
                    }
                    // Pin the latest published version — lock-free —
                    // and run the whole read against it.
                    let bound = ctx.clone().with_snapshot(handle.snapshot());
                    let _ =
                        snb_interactive::run_complex_bound(&bound, &bindings[i % bindings.len()]);
                    reads.fetch_add(1, Ordering::Relaxed);
                    i += reader_threads;
                }
            });
        }
        // Consistency checker: snapshot-level serializability probe. A
        // pinned version must *always* validate — the writer publishes
        // only whole batches.
        {
            let handle = &handle;
            let done = &done;
            let checks = &checks;
            scope.spawn(move || {
                while !done.load(Ordering::Acquire) {
                    handle
                        .snapshot()
                        .validate_invariants()
                        .expect("reader observed a half-applied update");
                    checks.fetch_add(1, Ordering::Relaxed);
                    std::thread::yield_now();
                }
            });
        }
        // Feeder → writer: one published store version per event batch.
        let feeder = scope.spawn(move || {
            for e in events {
                if tx.send(e).is_err() {
                    break;
                }
            }
            // Sender dropped here closes the channel.
        });
        let writer = scope.spawn(|| {
            let mut applied = 0usize;
            let mut batch: Vec<&TimedEvent> = Vec::with_capacity(WRITE_BATCH);
            // Block for the first event of each batch, then greedily
            // drain up to a full batch without blocking again.
            while let Ok(first) = rx.recv() {
                batch.push(first);
                while batch.len() < WRITE_BATCH {
                    match rx.try_recv() {
                        Ok(e) => batch.push(e),
                        Err(_) => break,
                    }
                }
                handle.publish_with(|next| {
                    for e in &batch {
                        next.apply_event(e, world)?;
                    }
                    // Repair the date index before the version is
                    // published so no reader ever sees a stale index
                    // (and never falls back to the O(n) scan path).
                    if !next.date_index_fresh() {
                        next.rebuild_date_index();
                    }
                    Ok(())
                })?;
                applied += batch.len();
                batch.clear();
            }
            Ok::<usize, snb_core::SnbError>(applied)
        });
        let result = writer.join().expect("writer thread panicked");
        feeder.join().expect("feeder thread panicked");
        done.store(true, Ordering::Release);
        writer_result = result;
    });

    let applied = writer_result?;
    let stats = handle.stats();
    let report = ConcurrentReport {
        updates_applied: applied,
        reads_executed: reads.load(Ordering::Relaxed),
        consistency_checks: checks.load(Ordering::Relaxed),
        versions_published: stats.version,
        readers_blocked: stats.reader_blocked,
        wall: started.elapsed(),
    };
    // The final published version is the run's result; an owned store
    // comes out of a (cheap, copy-on-write) clone of it.
    let final_store = handle.snapshot().store().clone();
    Ok((final_store, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use snb_datagen::GeneratorConfig;
    use snb_params::ParamGen;
    use snb_store::bulk_store_and_stream;

    #[test]
    fn concurrent_run_matches_serial_replay() {
        let mut c = GeneratorConfig::for_scale_name("0.001").unwrap();
        c.persons = 90;
        let world = StaticWorld::build(c.seed);
        let (store, events) = bulk_store_and_stream(&c);
        let bindings: Vec<IcParams> = {
            let gen = ParamGen::new(&store, c.seed);
            (1..=14u8).flat_map(|q| gen.ic_params(q, 1)).collect()
        };
        let (concurrent, report) = run_concurrent(store, &world, &events, &bindings, 3).unwrap();
        assert_eq!(report.updates_applied, events.len());
        assert!(report.reads_executed > 0, "readers never ran");
        assert!(report.consistency_checks > 0, "checker never ran");
        assert!(report.versions_published > 0, "writer never published");
        assert_eq!(report.readers_blocked, 0, "lock-free readers must not block");

        // Serial replay oracle.
        let (mut serial, events2) = bulk_store_and_stream(&c);
        for e in &events2 {
            serial.apply_event(e, &world).unwrap();
        }
        assert_eq!(concurrent.persons.len(), serial.persons.len());
        assert_eq!(concurrent.messages.len(), serial.messages.len());
        assert_eq!(concurrent.knows.edge_count(), serial.knows.edge_count());
        assert_eq!(concurrent.person_likes.edge_count(), serial.person_likes.edge_count());
        concurrent.validate_invariants().unwrap();

        // Query-level equality of the final states.
        let gen = ParamGen::new(&serial, c.seed);
        for q in [2u8, 7, 12, 13] {
            for b in gen.ic_params(q, 2) {
                assert_eq!(
                    snb_interactive::run_complex(&concurrent, &b),
                    snb_interactive::run_complex(&serial, &b),
                    "IC {q} differs after concurrent replay"
                );
            }
        }
    }

    #[test]
    fn empty_stream_still_terminates() {
        let mut c = GeneratorConfig::for_scale_name("0.001").unwrap();
        c.persons = 30;
        let world = StaticWorld::build(c.seed);
        let (store, _) = bulk_store_and_stream(&c);
        let (final_store, report) = run_concurrent(store, &world, &[], &[], 2).unwrap();
        assert_eq!(report.updates_applied, 0);
        final_store.validate_invariants().unwrap();
    }
}
