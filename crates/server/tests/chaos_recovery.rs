//! Crash-recovery integration tests: the same three fault windows the
//! `service_load --chaos` harness SIGKILLs through, exercised in-process
//! with error-flavored faults (no child processes, so they run under
//! plain `cargo test`), plus the stalled-connection hardening.
//!
//! The invariant under test everywhere: an acknowledged batch survives
//! recovery exactly once, an unacknowledged batch is either absent
//! (never durable → resubmission applies it) or replayed (durable →
//! resubmission dedupes), and every failure is a typed error — no
//! hangs, no poisoned-lock panic cascades.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

use snb_bi::BiParams;
use snb_core::model::MessageId;
use snb_datagen::graph::{RawLike, RawMessage};
use snb_datagen::stream::{TimedEvent, UpdateEvent};
use snb_server::{
    image_info, recover, ErrorKind, OkBody, Server, ServerConfig, ServiceParams, WalOptions,
    WriteBatch, WriteOps,
};
use snb_store::DeleteOp;

mod common;
use common::{config, server_config, submit, tmp_dir, SCALE};

/// The fault registry is process-global; tests that arm it serialize.
fn fault_lock() -> MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    GUARD.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(PoisonError::into_inner)
}

fn start(dir: &std::path::Path) -> Server {
    common::start(dir, WalOptions::default())
}

/// Direct-apply oracle: `batches` applied straight to a bulk store.
fn oracle(batches: &[WriteOps]) -> snb_store::Store {
    let cfg = config();
    let world = snb_datagen::dictionaries::StaticWorld::build(cfg.seed);
    let mut store = snb_store::bulk_store(&cfg);
    for ops in batches {
        common::apply(&mut store, ops, &world);
    }
    store
}

fn probe_read(server: &Server) -> Result<OkBody, (ErrorKind, String)> {
    let params = BiParams::Q5(snb_bi::bi05::Params { country: "China".into() });
    let resp = server.client().call(ServiceParams::Bi(params), 0);
    resp.body.map_err(|e| (e.kind, e.detail))
}

#[test]
fn torn_append_is_refused_then_truncated_on_recovery() {
    let _g = fault_lock();
    snb_fault::disarm_all();
    let dir = tmp_dir("torn");
    let batches = common::batches(20, 4);

    let server = start(&dir);
    for seq in 1..=2u64 {
        let ok = submit(&server, seq, &batches[seq as usize - 1]).expect("pre-fault ack");
        assert!(ok.rows > 0);
        assert_eq!(ok.fingerprint, seq);
    }

    // The third append tears after 8 bytes: not durable, not applied.
    snb_fault::arm_from_spec("wal.append.short_write=short:8@h1", 7).unwrap();
    let (kind, detail) = submit(&server, 3, &batches[2]).expect_err("torn append must fail");
    assert_eq!(kind, ErrorKind::Internal, "typed internal error, got {detail:?}");

    // The torn tail makes the log unusable until restart: later batches
    // are refused instead of being appended after garbage.
    let (kind, _) = submit(&server, 3, &batches[2]).expect_err("broken WAL refuses appends");
    assert_eq!(kind, ErrorKind::Internal);
    snb_fault::disarm_all();
    server.shutdown();

    // Recovery truncates the torn record and keeps the two good ones;
    // the resubmission then applies for the first time.
    let report = recover(&dir, &config(), SCALE, WalOptions::default()).unwrap().report;
    assert_eq!(report.last_seq, 2, "torn seq 3 must not replay");
    assert!(report.truncated_bytes > 0, "the torn tail must be cut");

    let server = start(&dir);
    let ok = submit(&server, 3, &batches[2]).expect("resubmission applies");
    assert!(ok.rows > 0, "seq 3 was never durable: this is a first apply, not a dedupe");
    let ok = submit(&server, 4, &batches[3]).expect("stream continues");
    assert_eq!(ok.fingerprint, 4);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn durable_unacked_batch_replays_and_dedupes() {
    let _g = fault_lock();
    snb_fault::disarm_all();
    let dir = tmp_dir("durable_unacked");
    let batches = common::batches(20, 3);

    let server = start(&dir);
    submit(&server, 1, &batches[0]).expect("first ack");

    // Seq 2's record reaches the disk, but the ack window is torn: the
    // client sees an error for a batch that IS durable.
    snb_fault::arm_from_spec("wal.append.post_append=err@h1", 7).unwrap();
    let (kind, detail) = submit(&server, 2, &batches[1]).expect_err("ack must be lost");
    assert_eq!(kind, ErrorKind::Internal);
    assert!(detail.contains("durable"), "detail names the window: {detail}");
    // A still-running process must not append seq 2 twice.
    let (kind, _) = submit(&server, 2, &batches[1]).expect_err("ambiguous log refuses appends");
    assert_eq!(kind, ErrorKind::Internal);
    snb_fault::disarm_all();
    server.shutdown();

    // Recovery replays the durable batch; the client's retry dedupes.
    let report = recover(&dir, &config(), SCALE, WalOptions::default()).unwrap().report;
    assert_eq!(report.last_seq, 2, "durable seq 2 must replay");

    let server = start(&dir);
    let ok = submit(&server, 2, &batches[1]).expect("retry is re-acknowledged");
    assert_eq!((ok.rows, ok.fingerprint), (0, 2), "dedupe: zero rows, fingerprint = last seq");
    let ok = submit(&server, 3, &batches[2]).expect("stream continues");
    assert!(ok.rows > 0);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mid_apply_panic_poisons_store_until_recovery() {
    let _g = fault_lock();
    snb_fault::disarm_all();
    let dir = tmp_dir("poison");
    let batches = common::batches(20, 3);

    let server = start(&dir);
    submit(&server, 1, &batches[0]).expect("first ack");
    probe_read(&server).expect("healthy store answers reads");

    // Seq 2 panics after the WAL append, before the publish: the log
    // holds a batch the store does not, so everything is refused with a
    // typed error.
    snb_fault::arm_from_spec("writer.apply.panic=panic@h1", 7).unwrap();
    let (kind, _) = submit(&server, 2, &batches[1]).expect_err("apply panic must be caught");
    assert_eq!(kind, ErrorKind::StorePoisoned);
    snb_fault::disarm_all();

    let (kind, detail) = probe_read(&server).expect_err("degraded store refuses reads");
    assert_eq!(kind, ErrorKind::StorePoisoned, "typed refusal, got {detail:?}");
    let (kind, _) = submit(&server, 3, &batches[2]).expect_err("degraded store refuses writes");
    assert_eq!(kind, ErrorKind::StorePoisoned);
    let report = server.shutdown();
    assert!(report.poisoned_rejects >= 2, "refusals are counted");

    // The batch was durable before the panic; restart replays it (the
    // fault is gone — it modeled a transient crash, not bad data) and
    // the retry dedupes. The recovered store passes its invariants and
    // answers reads again.
    let report = recover(&dir, &config(), SCALE, WalOptions::default()).unwrap().report;
    assert_eq!(report.last_seq, 2, "WAL'd seq 2 replays cleanly");

    let server = start(&dir);
    let ok = submit(&server, 2, &batches[1]).expect("retry dedupes");
    assert_eq!((ok.rows, ok.fingerprint), (0, 2));
    let ok = submit(&server, 3, &batches[2]).expect("stream continues");
    assert!(ok.rows > 0);
    probe_read(&server).expect("recovered store answers reads");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The update events of `batches`, in order.
fn events(batches: &[WriteOps]) -> impl Iterator<Item = &TimedEvent> {
    batches.iter().flat_map(|ops| match ops {
        WriteOps::Updates(events) => events.as_slice(),
        WriteOps::Deletes(_) => &[],
    })
}

#[test]
fn a_batch_the_store_refuses_is_never_logged() {
    let _g = fault_lock();
    snb_fault::disarm_all();
    let dir = tmp_dir("refused");
    let batches = common::batches(20, 3);
    let like = events(&batches).find_map(|ev| match &ev.event {
        UpdateEvent::AddLikePost(l) | UpdateEvent::AddLikeComment(l) => Some((ev, *l)),
        _ => None,
    });
    let (like_event, like) = like.expect("the stream holds a like");
    let post = events(&batches).find_map(|ev| match &ev.event {
        UpdateEvent::AddPost(m) => Some((ev, m.clone())),
        _ => None,
    });
    let (post_event, post) = post.expect("the stream holds a post");
    let with = |ev: &TimedEvent, event| TimedEvent { event, ..ev.clone() };
    // Good events first, so the refusal comes part-way through a batch.
    let mut unknown_like = events(&batches[2..]).take(5).cloned().collect::<Vec<_>>();
    let like = RawLike { message: MessageId(u64::MAX), ..like };
    unknown_like.push(with(like_event, UpdateEvent::AddLikePost(like)));
    let hostile_post = RawMessage { browser: 250, ..post };
    let refused = [
        ("an insert batch liking an unknown message", WriteOps::Updates(unknown_like)),
        (
            "a delete batch naming an unknown person",
            WriteOps::Deletes(vec![DeleteOp::Person(u64::MAX)]),
        ),
        (
            "a post whose browser index is 250",
            WriteOps::Updates(vec![with(post_event, UpdateEvent::AddPost(hostile_post))]),
        ),
    ];

    let server = start(&dir);
    submit(&server, 1, &batches[0]).expect("first ack");
    for (what, ops) in &refused {
        let (kind, detail) = submit(&server, 2, ops).expect_err(what);
        assert_eq!(kind, ErrorKind::BadRequest, "{what}: {detail}");
        assert!(!server.is_degraded(), "{what} must not degrade the server");
        probe_read(&server).expect("reads still answer");
    }
    let ok = submit(&server, 2, &batches[1]).expect("a good batch takes the refused seq");
    assert_eq!((ok.rows, ok.fingerprint), (batches[1].len() as u64, 2));
    let report = server.shutdown();
    assert_eq!(report.bad_requests, refused.len() as u64);

    // The log holds exactly the two acknowledged batches.
    let rec = recover(&dir, &config(), SCALE, WalOptions::default()).unwrap();
    assert_eq!((rec.report.last_seq, rec.report.wal_entries), (2, 2));
    let oracle = oracle(&batches[..2]);
    assert!(snb_store::encode_store(&rec.store) == snb_store::encode_store(&oracle));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_image_write_keeps_the_log_and_the_next_compaction_succeeds() {
    let _g = fault_lock();
    snb_fault::disarm_all();
    let dir = tmp_dir("image_torn");
    let batches = common::batches(20, 5);
    let opts = WalOptions { snapshot_every: 2 };
    let seed = config().seed;
    let image_seq = || image_info(&dir, SCALE, seed).expect("readable header").map(|h| h.seq);

    // Seqs 1-2 reach the first compaction point: an image lands.
    let server = common::start(&dir, opts);
    for seq in 1..=2u64 {
        submit(&server, seq, &batches[seq as usize - 1]).expect("ack");
    }
    assert_eq!(image_seq(), Some(2));

    // The image write at the next compaction point tears: a partial
    // temp file, never renamed. The write is not fatal, so seq 4 is
    // still acknowledged.
    snb_fault::arm_from_spec("image.write.torn=short:100@h1", 7).unwrap();
    for seq in 3..=4u64 {
        submit(&server, seq, &batches[seq as usize - 1]).expect("ack despite the torn image");
    }
    snb_fault::disarm_all();
    let report = server.shutdown();
    assert_eq!(report.internal_errors, 1, "the failed compaction is counted");
    assert_eq!(image_seq(), Some(2), "the previous image is untouched");

    // Nothing was truncated behind the image that never landed.
    let rec = recover(&dir, &config(), SCALE, opts).unwrap();
    assert_eq!((rec.report.image_seq, rec.report.last_seq), (2, 4));
    assert_eq!(rec.report.wal_entries, 2, "seqs 3-4 are still in the log");
    assert_eq!(rec.report.tail_replayed, 2);
    drop(rec);

    // The log is past its compaction point, so the next append retries
    // and this time the image lands and the log is truncated.
    let server = common::start(&dir, opts);
    submit(&server, 5, &batches[4]).expect("ack");
    let report = server.shutdown();
    assert_eq!(report.internal_errors, 0);
    assert_eq!(image_seq(), Some(5));
    let rec = recover(&dir, &config(), SCALE, opts).unwrap();
    assert_eq!((rec.report.image_seq, rec.report.last_seq), (5, 5));
    assert_eq!(rec.report.wal_entries, 0, "the log was truncated behind the image");
    let (r, o) = (rec.store.stats(), oracle(&batches[..5]).stats());
    assert_eq!((r.nodes, r.edges), (o.nodes, o.edges), "recovered store equals the oracle");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_submitters_each_ack_after_their_own_fsync() {
    let _g = fault_lock();
    snb_fault::disarm_all();
    let dir = tmp_dir("concurrent_acks");
    let all = common::batches(20, 8);
    let n = all.len() as u64;
    let server = start(&dir);

    // Four submitters own interleaved sequence numbers and retry on the
    // gap rejection until their predecessor lands. Every ack follows
    // its own batch's fsync, so n acks cost exactly n fsyncs.
    let acked = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        for t in 0..4usize {
            let client = server.client();
            let all = &all;
            let acked = Arc::clone(&acked);
            s.spawn(move || {
                for (i, ops) in all.iter().enumerate() {
                    if i % 4 != t {
                        continue;
                    }
                    let seq = i as u64 + 1;
                    loop {
                        let resp = client
                            .call(ServiceParams::Write(WriteBatch { seq, ops: ops.clone() }), 0);
                        match resp.body {
                            Ok(ok) => {
                                assert_eq!(ok.applied_seq, seq, "an ack names its own batch");
                                acked.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                            Err(e) if e.detail.contains("sequence gap") => {
                                std::thread::yield_now();
                            }
                            Err(e) => panic!("unexpected write error: {e:?}"),
                        }
                    }
                }
            });
        }
    });
    assert_eq!(acked.load(Ordering::Relaxed), n, "every batch acknowledged");
    assert_eq!(server.wal_syncs(), n, "one fsync per acknowledged batch");
    let report = server.shutdown();
    assert_eq!(report.batches_applied, n);

    // Every acknowledged batch survives recovery exactly once.
    let rec = recover(&dir, &config(), SCALE, WalOptions::default()).unwrap();
    assert_eq!(rec.report.last_seq, n);
    assert_eq!(rec.report.wal_entries, n);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_dedupe_re_ack_issues_no_fsync() {
    let _g = fault_lock();
    snb_fault::disarm_all();
    let dir = tmp_dir("dedupe_no_fsync");
    let batches = common::batches(20, 2);
    let server = start(&dir);
    for (i, ops) in batches.iter().enumerate() {
        submit(&server, i as u64 + 1, ops).expect("first ack");
    }
    let last = batches.len() as u64;
    assert_eq!(server.wal_syncs(), last);

    // A lost ack's retry is answered from the applied state: no append,
    // no fsync, and the current applied sequence, not the retried one.
    let ok = submit(&server, 1, &batches[0]).expect("retry is re-acknowledged");
    assert_eq!((ok.rows, ok.applied_seq, ok.fingerprint), (0, last, last));
    assert_eq!(server.wal_syncs(), last, "a re-ack must not fsync");
    let report = server.shutdown();
    assert_eq!((report.batches_applied, report.batches_deduped), (last, 1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pipelined_writes_on_one_connection_apply_in_order() {
    use snb_server::proto::{self, Request};
    use std::io::Write;

    let _g = fault_lock();
    snb_fault::disarm_all();
    let dir = tmp_dir("pipelined_writes");
    let batches: Vec<WriteOps> = common::batches(10, 32).into_iter().take(32).collect();
    assert_eq!(batches.len(), 32);
    let mut server = start(&dir);
    let addr = server.listen("127.0.0.1:0").expect("bind loopback");

    // All 32 batches leave in one write, without waiting for an ack: the
    // write lane must apply them in arrival order, so none is refused
    // with a sequence gap.
    let mut wire = Vec::new();
    for (i, ops) in batches.iter().enumerate() {
        let seq = i as u64 + 1;
        let params = ServiceParams::Write(WriteBatch { seq, ops: ops.clone() });
        let req = Request { id: seq, deadline_us: 0, min_seq: 0, params };
        proto::write_frame(&mut wire, &proto::encode_request(&req)).unwrap();
    }
    let mut conn = std::net::TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    conn.write_all(&wire).expect("pipeline every batch");
    for _ in &batches {
        let resp = proto::decode_response(&proto::read_frame(&mut conn).expect("an answer"))
            .expect("every frame decodes");
        let ok = resp.body.unwrap_or_else(|e| panic!("batch {} refused: {e:?}", resp.id));
        assert_eq!(ok.applied_seq, resp.id, "batch {} acked at another seq", resp.id);
    }
    drop(conn);
    server.shutdown();

    let rec = recover(&dir, &config(), SCALE, WalOptions::default()).unwrap();
    assert_eq!(rec.report.last_seq, 32);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stalled_connection_is_closed_with_typed_outcome() {
    // No faults armed: this is plain timeout hardening (a slowloris
    // client holding a half-frame open must not pin a connection
    // thread forever).
    use std::io::{Read, Write};

    let store = snb_store::store_for_config(&config());
    let mut server = Server::start(
        store,
        ServerConfig { conn_read_timeout: Some(Duration::from_millis(150)), ..server_config() },
    );
    let addr = server.listen("127.0.0.1:0").expect("bind loopback");

    let mut conn = std::net::TcpStream::connect(addr).expect("connect");
    conn.write_all(&[7, 0]).expect("half a length prefix");
    conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut buf = [0u8; 16];
    let n = conn.read(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "the server must close the stalled connection, not answer it");

    let log = server.log_handle();
    let report = server.shutdown();
    assert_eq!(report.conn_stalled, 1, "the stall is counted");
    assert!(
        log.log().snapshot().iter().any(|r| r.outcome == "conn_stalled"),
        "the stall lands in the access log with a typed outcome"
    );
}
