//! Loom-free stress test of the service under concurrent writes: an
//! update-stream slice (inserts plus interleaved like-deletes) replays
//! through the server's write path while client threads hammer BI 2,
//! 12, and 18 — the date-window queries most sensitive to index
//! staleness. At every batch boundary the writes quiesce and each
//! query's service response must equal a direct single-threaded run
//! against the same (now quiescent) store: the service layer may add
//! queueing, but never nondeterminism. The read path stays lock-free
//! throughout: no reader ever hits the blocked safety valve, and a
//! version outlives its publish only while a reader pins it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use snb_bi::{BiParams, QuerySummary};
use snb_datagen::dictionaries::StaticWorld;
use snb_datagen::stream::UpdateEvent;
use snb_datagen::GeneratorConfig;
use snb_engine::QueryContext;
use snb_params::ParamGen;
use snb_server::{Server, ServerConfig, ServiceParams};
use snb_store::DeleteOp;

const BATCH: usize = 50;
/// Reader threads racing the writes.
const READERS: usize = 2;

#[test]
fn responses_match_quiesced_oracle_at_batch_boundaries() {
    let config = GeneratorConfig::for_scale_name("0.001").unwrap();
    let (store, stream) = snb_store::bulk_store_and_stream(&config);
    let world = StaticWorld::build(config.seed);

    // Fixed bindings for the three date-sensitive queries, derived from
    // the bulk store before the server takes ownership.
    let gen = ParamGen::new(&store, config.seed);
    let mut probes: Vec<BiParams> = Vec::new();
    for q in [2u8, 12, 18] {
        probes.extend(gen.bi_params(q, 1));
    }
    assert_eq!(probes.len(), 3);
    drop(gen);

    let server = Server::start(
        store,
        ServerConfig { workers: 2, queue_capacity: 128, ..ServerConfig::default() },
    );
    let writer = server.writer();

    // Chaos readers: hammer the probe queries through the service while
    // the writer mutates the store. Their results race with the writes,
    // so only well-formedness is asserted; the count proves overlap.
    let stop = Arc::new(AtomicBool::new(false));
    let chaos_ok = Arc::new(AtomicU64::new(0));
    let chaos: Vec<_> = (0..READERS)
        .map(|_| {
            let client = server.client();
            let stop = Arc::clone(&stop);
            let ok = Arc::clone(&chaos_ok);
            let probes = probes.clone();
            std::thread::spawn(move || {
                let mut i = 0usize;
                while !stop.load(Ordering::Acquire) {
                    let resp = client.call(ServiceParams::Bi(probes[i % 3].clone()), 0);
                    assert!(resp.body.is_ok(), "chaos read failed: {:?}", resp.body);
                    ok.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            })
        })
        .collect();

    let client = server.client();
    let oracle_ctx = QueryContext::single_threaded();
    let mut boundaries = 0usize;
    let mut pending_likes: Vec<DeleteOp> = Vec::new();
    for batch in stream.chunks(BATCH).take(8) {
        for (i, event) in batch.iter().enumerate() {
            if let UpdateEvent::AddLikePost(like) = &event.event {
                if i % 2 == 0 {
                    pending_likes.push(DeleteOp::Like(like.person.0, like.message.0));
                }
            }
            writer.apply_update(event, &world).expect("apply update");
        }
        if !pending_likes.is_empty() {
            writer.apply_deletes(&pending_likes).expect("apply deletes");
            pending_likes.clear();
        }
        writer.validate_invariants().expect("invariants at batch boundary");

        // Writes quiesced (the writer is this thread): the service must
        // now agree exactly with a direct run on the latest published
        // version — pinned lock-free, identical for every later read
        // until the next publish.
        let expected: Vec<QuerySummary> = {
            let snap = server.snapshot();
            probes.iter().map(|p| snb_bi::run_with(&snap, &oracle_ctx, p)).collect()
        };
        for (p, want) in probes.iter().zip(&expected) {
            let resp = client.call(ServiceParams::Bi(p.clone()), 0);
            let ok = resp.body.expect("boundary probe should succeed");
            assert_eq!(
                (ok.rows as usize, ok.fingerprint),
                (want.rows, want.fingerprint),
                "service diverged from quiesced oracle for {p:?} at boundary {boundaries}"
            );
        }
        boundaries += 1;
    }
    assert!(boundaries >= 4, "stream too short to exercise batching: {boundaries}");

    stop.store(true, Ordering::Release);
    for h in chaos {
        h.join().expect("chaos reader");
    }
    let report = server.shutdown();
    assert!(report.updates_applied >= (boundaries * BATCH / 2) as u64);
    assert!(chaos_ok.load(Ordering::Relaxed) > 0, "chaos readers never overlapped the writes");
    assert_eq!(report.internal_errors, 0);
    assert_eq!(report.bad_requests, 0);
    assert_eq!(report.reader_blocked, 0, "a snapshot reader hit the blocked safety valve");
    // At most one pinned version per reader, plus the current one and
    // the one being published.
    assert!(
        report.peak_live_snapshots <= READERS as u64 + 2,
        "{} live versions with {READERS} readers: the ring retains unpinned versions",
        report.peak_live_snapshots
    );
}
