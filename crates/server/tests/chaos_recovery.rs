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
use snb_datagen::stream::UpdateEvent;
use snb_datagen::GeneratorConfig;
use snb_server::{
    image_info, recover, ErrorKind, OkBody, Server, ServerConfig, ServiceParams, WalOptions,
    WriteBatch, WriteOps,
};
use snb_store::DeleteOp;

const SCALE: &str = "0.001";

/// The fault registry is process-global; tests that arm it serialize.
fn fault_lock() -> MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    GUARD.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(PoisonError::into_inner)
}

fn config() -> GeneratorConfig {
    GeneratorConfig::for_scale_name(SCALE).unwrap()
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("snb_chaosit_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Sequenced batches carved from the real update stream (inserts in
/// stream order plus interleaved like-deletes).
fn batches(n: usize) -> Vec<WriteOps> {
    let (_, stream) = snb_store::bulk_store_and_stream(&config());
    let mut out = Vec::new();
    let mut likes = Vec::new();
    for chunk in stream.chunks(20).take(n) {
        for ev in chunk {
            if let UpdateEvent::AddLikePost(l) = &ev.event {
                likes.push(DeleteOp::Like(l.person.0, l.message.0));
            }
        }
        out.push(WriteOps::Updates(chunk.to_vec()));
        if !likes.is_empty() {
            out.push(WriteOps::Deletes(std::mem::take(&mut likes)));
        }
    }
    out
}

fn server_config() -> ServerConfig {
    ServerConfig { workers: 2, threads_per_worker: 1, ..ServerConfig::default() }
}

fn start(dir: &std::path::Path) -> Server {
    start_with(dir, WalOptions::default())
}

fn start_with(dir: &std::path::Path, options: WalOptions) -> Server {
    let recovered = recover(dir, &config(), SCALE, options).expect("recovery succeeds");
    let (store, durability, _) = recovered.into_durability();
    Server::start_durable(store, server_config(), durability)
}

/// Direct-apply oracle: `batches` applied straight to a bulk store.
fn oracle(batches: &[WriteOps]) -> snb_store::Store {
    let cfg = config();
    let world = snb_datagen::dictionaries::StaticWorld::build(cfg.seed);
    let (mut store, _) = snb_store::bulk_store_and_stream(&cfg);
    for ops in batches {
        match ops {
            WriteOps::Updates(events) => {
                for ev in events {
                    store.apply_event(ev, &world).unwrap();
                }
            }
            WriteOps::Deletes(dels) => {
                store.apply_deletes(dels).unwrap();
            }
        }
    }
    if !store.date_index_fresh() {
        store.rebuild_date_index();
    }
    store
}

fn submit(server: &Server, seq: u64, ops: &WriteOps) -> Result<OkBody, (ErrorKind, String)> {
    let resp = server.client().call(ServiceParams::Write(WriteBatch { seq, ops: ops.clone() }), 0);
    match resp.body {
        Ok(ok) => Ok(ok),
        Err(e) => Err((e.kind, e.detail)),
    }
}

fn probe_read(server: &Server) -> Result<OkBody, (ErrorKind, String)> {
    let params = BiParams::Q5(snb_bi::bi05::Params { country: "China".into() });
    let resp = server.client().call(ServiceParams::Bi(params), 0);
    match resp.body {
        Ok(ok) => Ok(ok),
        Err(e) => Err((e.kind, e.detail)),
    }
}

#[test]
fn torn_append_is_refused_then_truncated_on_recovery() {
    let _g = fault_lock();
    snb_fault::disarm_all();
    let dir = tmp_dir("torn");
    let batches = batches(4);

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
    let batches = batches(3);

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
    let batches = batches(3);

    let server = start(&dir);
    submit(&server, 1, &batches[0]).expect("first ack");
    probe_read(&server).expect("healthy store answers reads");

    // Seq 2 panics mid-apply, after the WAL append: the store may hold
    // half a batch, so everything is refused with a typed error.
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

#[test]
fn multi_partition_wal_recovers_to_oracle_after_torn_append() {
    let _g = fault_lock();
    snb_fault::disarm_all();
    let dir = tmp_dir("multi_part");
    let batches = batches(8);
    let opts = WalOptions { partitions: 2, ..WalOptions::default() };
    let sc = ServerConfig { partitions: 2, ..server_config() };
    let start2 = |dir: &std::path::Path| -> Server {
        let recovered = recover(dir, &config(), SCALE, opts).expect("segmented recovery succeeds");
        let (store, durability, _) = recovered.into_durability();
        Server::start_durable(store, sc.clone(), durability)
    };

    let server = start2(&dir);
    for seq in 1..=6u64 {
        let ok = submit(&server, seq, &batches[seq as usize - 1]).expect("pre-fault ack");
        assert_eq!(ok.fingerprint, seq);
    }
    // Seq 7 tears mid-record in whichever segment owns it: not durable,
    // not applied, not acknowledged.
    snb_fault::arm_from_spec("wal.append.short_write=short:8@h1", 7).unwrap();
    let (kind, _) = submit(&server, 7, &batches[6]).expect_err("torn append must fail");
    assert_eq!(kind, ErrorKind::Internal);
    snb_fault::disarm_all();
    server.shutdown();

    // The log really spans two segments.
    assert!(dir.join("wal-0.log").exists(), "segment 0 exists");
    assert!(dir.join("wal-1.log").exists(), "segment 1 exists");

    // Recovery over the segmented log equals a direct-apply oracle of
    // exactly the acknowledged prefix: 0 lost acks, 0 duplicates.
    let rec = recover(&dir, &config(), SCALE, opts).unwrap();
    assert_eq!(rec.report.last_seq, 6, "exactly the acked prefix replays");
    assert!(rec.report.truncated_bytes > 0, "the torn record was cut");

    let oracle = oracle(&batches[..6]);
    let (r, o) = (rec.store.stats(), oracle.stats());
    assert_eq!((r.nodes, r.edges), (o.nodes, o.edges), "recovered store equals the oracle");

    // The lost batch resubmits as a first apply; the stream continues.
    let server = start2(&dir);
    let ok = submit(&server, 7, &batches[6]).expect("resubmission applies");
    assert!(ok.rows > 0, "seq 7 was never durable: first apply, not a dedupe");
    let ok = submit(&server, 8, &batches[7]).expect("stream continues");
    assert_eq!(ok.fingerprint, 8);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_image_write_keeps_the_log_and_the_next_compaction_succeeds() {
    let _g = fault_lock();
    snb_fault::disarm_all();
    let dir = tmp_dir("image_torn");
    let batches = batches(5);
    let opts = WalOptions { snapshot_every: 2, ..WalOptions::default() };
    let seed = config().seed;
    let image_seq = || image_info(&dir, SCALE, seed).expect("readable header").map(|h| h.seq);

    // Seqs 1-2 reach the first compaction point: an image lands.
    let server = start_with(&dir, opts);
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
    assert_eq!(rec.report.wal_entries, 2, "seqs 3-4 are still in the segments");
    assert_eq!(rec.report.tail_replayed, 2);
    drop(rec);

    // The log is past its compaction point, so the next append retries
    // and this time the image lands and the segments are truncated.
    let server = start_with(&dir, opts);
    submit(&server, 5, &batches[4]).expect("ack");
    let report = server.shutdown();
    assert_eq!(report.internal_errors, 0);
    assert_eq!(image_seq(), Some(5));
    let rec = recover(&dir, &config(), SCALE, opts).unwrap();
    assert_eq!((rec.report.image_seq, rec.report.last_seq), (5, 5));
    assert_eq!(rec.report.wal_entries, 0, "the segments were truncated behind the image");
    let (r, o) = (rec.store.stats(), oracle(&batches[..5]).stats());
    assert_eq!((r.nodes, r.edges), (o.nodes, o.edges), "recovered store equals the oracle");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn group_commit_concurrent_acks_are_durable() {
    let _g = fault_lock();
    snb_fault::disarm_all();
    let dir = tmp_dir("group_commit");
    let all = batches(8);
    let n = all.len() as u64;
    let opts =
        WalOptions { group_commit: true, fsync_every: 4, partitions: 2, ..WalOptions::default() };
    let recovered = recover(&dir, &config(), SCALE, opts).expect("fresh recovery");
    let (store, durability, _) = recovered.into_durability();
    let server =
        Server::start_durable(store, ServerConfig { partitions: 2, ..server_config() }, durability);

    // Four submitters own interleaved sequence numbers and retry on the
    // gap rejection until their predecessor lands — every ack they see
    // must be covered by a flush.
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
                            Ok(_) => {
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
    let syncs = server.wal_syncs();
    assert!(syncs > 0, "acks require at least one covering flush");
    let report = server.shutdown();
    assert_eq!(report.batches_applied, n);

    // Every acknowledged batch survives recovery exactly once.
    let rec = recover(&dir, &config(), SCALE, opts).unwrap();
    assert_eq!(rec.report.last_seq, n);
    assert_eq!(rec.report.wal_entries, n);
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
