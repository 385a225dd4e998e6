//! Snapshot isolation, end to end: a reader pinned to a published
//! store version must see *exactly* that version — byte-identical
//! results over all 25 BI queries and a byte-identical store image — no
//! matter how hard a concurrent writer churns inserts and deletes, and
//! no matter how many other readers race it. The property is the
//! contract the whole lock-free read path rests on: versions are
//! immutable once published, and pinning one keeps it alive unchanged.
//!
//! Two versions are pinned. The base version's columns are shrunk to
//! their length, so the first insert batch copies them. The version
//! published after that batch has room to spare, so every later insert
//! batch appends into the very buffers it reads: the pin that checks
//! in-place appends.

use std::sync::atomic::{AtomicBool, Ordering};

use proptest::prelude::*;

use ldbc_snb::bi::QuerySummary;
use ldbc_snb::datagen::dictionaries::StaticWorld;
use ldbc_snb::datagen::stream::UpdateEvent;
use ldbc_snb::datagen::GeneratorConfig;
use ldbc_snb::engine::QueryContext;
use ldbc_snb::params::ParamGen;
use ldbc_snb::store::{bulk_store_and_stream, encode_store, DeleteOp, Store, StoreHandle};

/// All 25 BI query summaries on a pinned snapshot (rows + result
/// fingerprint — the repo's byte-identity proxy for result sets).
fn run_all_25(
    snap: &ldbc_snb::store::StoreSnapshot,
    pool: &[ldbc_snb::bi::BiParams],
) -> Vec<QuerySummary> {
    let ctx = QueryContext::single_threaded();
    pool.iter().map(|p| ldbc_snb::bi::run_with(snap, &ctx, p)).collect()
}

proptest! {
    // Each case builds a store and replays a stream under concurrency;
    // keep the case count small and the dataset tiny.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn pinned_reader_is_isolated_from_churn(reader_threads in 1usize..4) {
        let mut config = GeneratorConfig::for_scale_name("0.001").unwrap();
        config.persons = 70;
        let world = StaticWorld::build(config.seed);
        let (store, stream) = bulk_store_and_stream(&config);
        let pool: Vec<ldbc_snb::bi::BiParams> = {
            let gen = ParamGen::new(&store, config.seed);
            (1..=25u8).flat_map(|q| gen.bi_params(q, 1)).collect()
        };
        prop_assert_eq!(pool.len(), 25);

        let handle = StoreHandle::new(store);
        let insert = |next: &mut Store, events: &[ldbc_snb::datagen::stream::TimedEvent]| {
            for event in events {
                next.apply_event(event, &world)?;
            }
            if !next.date_index_fresh() {
                next.rebuild_date_index();
            }
            Ok(())
        };

        // Pin the base version and fingerprint it before any write.
        let pinned = handle.snapshot();
        let pinned_version = pinned.version();
        let baseline = run_all_25(&pinned, &pool);
        let base_image = encode_store(&pinned);

        // Pin the version after the first insert batch too.
        let (first, stream) = stream.split_at(16);
        handle.publish_with(|next| insert(next, first)).expect("first insert batch");
        let appended = handle.snapshot();
        let appended_baseline = run_all_25(&appended, &pool);
        let appended_image = encode_store(&appended);

        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            // Unpinned readers racing the writer on fresh snapshots:
            // they assert nothing about values (their version moves),
            // they exist to exercise pin/unpin under churn.
            for _ in 0..reader_threads {
                let handle = &handle;
                let done = &done;
                let pool = &pool;
                scope.spawn(move || {
                    let ctx = QueryContext::single_threaded();
                    let mut i = 0usize;
                    while !done.load(Ordering::Acquire) {
                        let snap = handle.snapshot();
                        let _ = ldbc_snb::bi::run_with(&snap, &ctx, &pool[i % pool.len()]);
                        i += 1;
                    }
                });
            }
            // Writer: inserts in stream order plus a delete for every
            // other like — every publish supersedes the pinned version.
            let writer = scope.spawn(|| {
                let mut pending: Vec<DeleteOp> = Vec::new();
                for (i, chunk) in stream.chunks(16).enumerate() {
                    for (j, event) in chunk.iter().enumerate() {
                        if let UpdateEvent::AddLikePost(like) = &event.event {
                            if (i * 16 + j).is_multiple_of(2) {
                                pending.push(DeleteOp::Like(like.person.0, like.message.0));
                            }
                        }
                    }
                    handle.publish_with(|next| insert(next, chunk)).expect("churn insert batch");
                    if pending.len() >= 24 {
                        let ops = std::mem::take(&mut pending);
                        handle
                            .publish_with(|next| next.apply_deletes(&ops).map(|_| ()))
                            .expect("churn delete batch");
                    }
                }
            });
            // The probe: while the writer churns, each pinned snapshot
            // keeps answering with its own version's exact results.
            let mut probes = 0usize;
            while !writer.is_finished() || probes == 0 {
                for (snap, want) in [(&pinned, &baseline), (&appended, &appended_baseline)] {
                    let mid = run_all_25(snap, &pool);
                    for (q, (got, want)) in mid.iter().zip(want).enumerate() {
                        assert_eq!(
                            (got.rows, got.fingerprint),
                            (want.rows, want.fingerprint),
                            "reader pinned at version {} drifted on BI {} during churn",
                            snap.version(),
                            q + 1
                        );
                    }
                }
                probes += 1;
            }
            writer.join().expect("writer");
            done.store(true, Ordering::Release);
            prop_assert!(probes > 0);
            Ok(())
        })?;

        // The world did move on: churn published at least 20 insert and
        // delete versions past both pins, and neither pin moved.
        prop_assert!(
            handle.version() >= appended.version() + 20,
            "only {} versions published", handle.version()
        );
        prop_assert_eq!(pinned.version(), pinned_version);
        // One final full pass after the churn is over, and both pinned
        // versions are byte for byte the store they were.
        for (snap, want) in [(&pinned, &baseline), (&appended, &appended_baseline)] {
            let after = run_all_25(snap, &pool);
            for (q, (got, want)) in after.iter().zip(want).enumerate() {
                prop_assert_eq!(
                    (got.rows, got.fingerprint),
                    (want.rows, want.fingerprint),
                    "reader pinned at version {} drifted on BI {} after churn",
                    snap.version(),
                    q + 1
                );
            }
        }
        prop_assert!(encode_store(&pinned) == base_image, "the base version's image changed");
        prop_assert!(encode_store(&appended) == appended_image, "the appended version's image changed");
        // Lock-free means lock-free: nobody ever hit the safety valve.
        prop_assert_eq!(handle.stats().reader_blocked, 0);
    }
}
