//! Replication integration tests, in-process (no child processes, so
//! they run under plain `cargo test`; the subprocess SIGKILL failover
//! lives in `service_load --replication`).
//!
//! Invariants under test: a follower converges to the primary's exact
//! store through the real durable write path; responses carry
//! `applied_seq` and the `min_seq` floor refuses with `stale_read`
//! until shipping catches up; client writes on a follower answer
//! `not_primary`; promotion flips the node writable from its applied
//! high-water mark; and delivery is at-least-once while application is
//! exactly-once — a restarted or rewound subscription re-ships records
//! that the seq-dedupe gate absorbs without double-applying.

use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use snb_bi::BiParams;
use snb_datagen::GeneratorConfig;
use snb_server::proto::{decode_repl, encode_repl, read_frame, write_frame};
use snb_server::{
    recover, replication, ErrorKind, ReplFrame, ReplicationConfig, Server, ServerConfig,
    ServiceParams, WalOptions, WriteBatch, WriteOps,
};

const SCALE: &str = "0.001";

fn config() -> GeneratorConfig {
    GeneratorConfig::for_scale_name(SCALE).unwrap()
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("snb_replit_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Update-only sequenced batches carved from the real stream.
fn batches(n: usize) -> Vec<WriteOps> {
    let (_, stream) = snb_store::bulk_store_and_stream(&config());
    stream.chunks(10).take(n).map(|chunk| WriteOps::Updates(chunk.to_vec())).collect()
}

fn server_config(read_only: bool) -> ServerConfig {
    ServerConfig { workers: 2, threads_per_worker: 1, read_only, ..ServerConfig::default() }
}

fn start(dir: &std::path::Path, read_only: bool) -> Server {
    let recovered =
        recover(dir, &config(), SCALE, WalOptions::default()).expect("recovery succeeds");
    let (store, durability, _) = recovered.into_durability();
    Server::start_durable(store, server_config(read_only), durability)
}

fn repl_cfg(dir: &std::path::Path) -> ReplicationConfig {
    ReplicationConfig {
        wal_dir: dir.to_path_buf(),
        scale: SCALE.to_string(),
        seed: config().seed,
        partitions: 1,
    }
}

fn submit(server: &Server, seq: u64, ops: &WriteOps) -> u64 {
    let resp = server.client().call(ServiceParams::Write(WriteBatch { seq, ops: ops.clone() }), 0);
    resp.body.unwrap_or_else(|e| panic!("write seq {seq} refused: {e:?}")).fingerprint
}

fn q5(server: &Server) -> snb_server::OkBody {
    let params = BiParams::Q5(snb_bi::bi05::Params { country: "China".into() });
    server.client().call(ServiceParams::Bi(params), 0).body.expect("Q5 read")
}

fn wait_applied(server: &Server, seq: u64, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    while server.last_applied_seq() < seq {
        assert!(Instant::now() < deadline, "follower stuck at {}", server.last_applied_seq());
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn follower_converges_serves_bounded_staleness_and_promotes() {
    let p_dir = tmp_dir("prim");
    let f_dir = tmp_dir("foll");
    let all = batches(7);

    let primary = start(&p_dir, false);
    let repl_addr = primary.listen_replication("127.0.0.1:0", repl_cfg(&p_dir)).expect("repl bind");

    // Backlog: three batches land before the follower ever connects, so
    // catch-up (not live tail) must deliver them.
    for seq in 1..=3u64 {
        assert_eq!(submit(&primary, seq, &all[seq as usize - 1]), seq);
    }

    let follower = start(&f_dir, true);
    assert!(follower.is_read_only());
    let handle = follower.replicate_from(&repl_addr.to_string(), repl_cfg(&f_dir));
    assert!(handle.wait_caught_up(Duration::from_secs(10)), "catch-up: {:?}", handle.status());
    wait_applied(&follower, 3, Duration::from_secs(10));

    // Live tail: three more batches while subscribed.
    for seq in 4..=6u64 {
        assert_eq!(submit(&primary, seq, &all[seq as usize - 1]), seq);
    }
    wait_applied(&follower, 6, Duration::from_secs(10));
    let status = handle.status();
    assert_eq!(status.records_applied, 6, "all six applied first-hand: {status:?}");
    assert_eq!(status.apply_errors, 0);

    // Oracle equality plus the staleness stamp on both nodes.
    let (p, f) = (q5(&primary), q5(&follower));
    assert_eq!((p.rows, p.fingerprint), (f.rows, f.fingerprint), "follower equals primary");
    assert_eq!(p.applied_seq, 6);
    assert_eq!(f.applied_seq, 6);

    // `min_seq` above the applied frontier refuses typed + retryable.
    let params = BiParams::Q5(snb_bi::bi05::Params { country: "China".into() });
    let stale = follower.client().call_min_seq(ServiceParams::Bi(params), 0, 7);
    let err = stale.body.expect_err("min_seq 7 > applied 6 must refuse");
    assert_eq!(err.kind, ErrorKind::StaleRead);
    assert!(err.detail.contains("lag"), "detail names the lag: {}", err.detail);
    // At the frontier it serves.
    let params = BiParams::Q5(snb_bi::bi05::Params { country: "China".into() });
    let fresh = follower.client().call_min_seq(ServiceParams::Bi(params), 0, 6);
    assert!(fresh.body.is_ok());

    // Writes are refused with the redirect kind, not applied.
    let resp =
        follower.client().call(ServiceParams::Write(WriteBatch { seq: 7, ops: all[0].clone() }), 0);
    let err = resp.body.expect_err("follower must refuse client writes");
    assert_eq!(err.kind, ErrorKind::NotPrimary);
    let report = follower.report_now();
    assert_eq!(report.not_primary_rejects, 1);
    assert_eq!(report.stale_read_rejects, 1);

    // A Hello to a follower is denied (it is not a primary yet).
    let f_repl_addr =
        follower.listen_replication("127.0.0.1:0", repl_cfg(&f_dir)).expect("follower repl bind");
    let mut probe = TcpStream::connect(f_repl_addr).expect("connect follower repl");
    let hello = ReplFrame::Hello {
        scale: SCALE.into(),
        seed: config().seed,
        partitions: 1,
        from_seq: 0,
        epoch: 0,
    };
    write_frame(&mut probe, &encode_repl(&hello)).unwrap();
    match decode_repl(&read_frame(&mut probe).unwrap()).unwrap() {
        ReplFrame::Deny { detail, .. } => assert!(detail.contains("not a primary"), "{detail}"),
        other => panic!("expected Deny, got {other:?}"),
    }
    drop(probe);

    // Promotion over the wire: writable from seq 6, applier exits, and
    // the next write in sequence is accepted locally.
    let writable_from = replication::promote(&f_repl_addr.to_string()).expect("promote");
    assert_eq!(writable_from, 6);
    assert!(!follower.is_read_only());
    assert_eq!(submit(&follower, 7, &all[6]), 7);
    // Idempotent re-promotion.
    assert_eq!(replication::promote(&f_repl_addr.to_string()).expect("re-promote"), 7);

    handle.stop();
    primary.shutdown();
    follower.shutdown();
    let _ = std::fs::remove_dir_all(&p_dir);
    let _ = std::fs::remove_dir_all(&f_dir);
}

/// Accepts subscription attempts until one delivers a `Hello` (dead
/// sockets from a stopped applier's reconnect backoff are drained and
/// dropped), returning the live stream and the follower's cursor.
fn accept_subscriber(listener: &TcpListener) -> (TcpStream, u64) {
    loop {
        let (mut stream, _) = listener.accept().expect("accept");
        stream.set_read_timeout(Some(Duration::from_millis(500))).unwrap();
        let Ok(payload) = read_frame(&mut stream) else { continue };
        match decode_repl(&payload) {
            Ok(ReplFrame::Hello { from_seq, .. }) => return (stream, from_seq),
            _ => continue,
        }
    }
}

fn ship(stream: &mut TcpStream, seq: u64, ops: &WriteOps) {
    let frame = ReplFrame::Record { seq, partition: 0, ops: ops.clone(), epoch: 0 };
    write_frame(stream, &encode_repl(&frame)).expect("ship record");
}

#[test]
fn follower_restart_mid_catch_up_reapplies_idempotently() {
    let f_dir = tmp_dir("restart");
    let all = batches(6);

    // A scripted primary: the test owns the listener and speaks the
    // shipping protocol by hand, so the overlap window is exact.
    let listener = TcpListener::bind("127.0.0.1:0").expect("fake primary bind");
    let addr = listener.local_addr().unwrap().to_string();

    let follower = start(&f_dir, true);
    let handle = follower.replicate_from(&addr, repl_cfg(&f_dir));

    // Connection 1: fresh follower subscribes from 0; ship three
    // records, then die mid-catch-up (no CaughtUp marker).
    let (mut conn, from_seq) = accept_subscriber(&listener);
    assert_eq!(from_seq, 0, "fresh follower subscribes from zero");
    for seq in 1..=3u64 {
        ship(&mut conn, seq, &all[seq as usize - 1]);
    }
    wait_applied(&follower, 3, Duration::from_secs(10));
    drop(conn); // primary dies mid-ship

    // Follower restarts: its own WAL must hold exactly the applied
    // prefix, recovered through the real replay path.
    handle.stop();
    follower.shutdown();
    // The applier may have reconnected (and sent a valid `Hello`) between
    // seeing the drop and seeing the stop; that socket is dead now but
    // still queued on the listener — drop it so the restarted follower's
    // subscription is the one accepted next.
    listener.set_nonblocking(true).unwrap();
    while listener.accept().is_ok() {}
    listener.set_nonblocking(false).unwrap();
    let report = recover(&f_dir, &config(), SCALE, WalOptions::default()).unwrap().report;
    assert_eq!(report.last_seq, 3, "follower WAL persisted the shipped prefix");
    assert_eq!(report.tail_replayed, 3);

    let follower = start(&f_dir, true);
    assert_eq!(follower.last_applied_seq(), 3);
    let handle = follower.replicate_from(&addr, repl_cfg(&f_dir));

    // Connection 2: the restarted follower resumes from its recovered
    // cursor. Re-ship an overlapping window (2..=6) — at-least-once
    // delivery — and the dedupe gate must absorb 2 and 3 silently.
    let (mut conn, from_seq) = accept_subscriber(&listener);
    assert_eq!(from_seq, 3, "restart resumes from the recovered seq, not zero");
    for seq in 2..=6u64 {
        ship(&mut conn, seq, &all[seq as usize - 1]);
    }
    write_frame(&mut conn, &encode_repl(&ReplFrame::CaughtUp { through_seq: 6 })).unwrap();
    assert!(handle.wait_caught_up(Duration::from_secs(10)), "status: {:?}", handle.status());
    wait_applied(&follower, 6, Duration::from_secs(10));

    let status = handle.status();
    assert_eq!(status.records_applied, 3, "only 4..=6 apply first-hand: {status:?}");
    assert_eq!(status.records_deduped, 2, "the 2..=3 overlap re-acks, never re-applies");
    assert_eq!(status.apply_errors, 0);
    assert_eq!(status.primary_seq, 6);
    assert_eq!(status.lag(), 0);

    handle.stop();
    follower.shutdown();

    // Exactly-once application: the follower's durable state equals a
    // direct-apply oracle of batches 1..=6 (a double-apply would
    // diverge node/edge counts).
    let cfg = config();
    let world = snb_datagen::dictionaries::StaticWorld::build(cfg.seed);
    let (mut oracle, _) = snb_store::bulk_store_and_stream(&cfg);
    for ops in &all {
        let WriteOps::Updates(events) = ops else { unreachable!() };
        for ev in events {
            oracle.apply_event(ev, &world).unwrap();
        }
    }
    if !oracle.date_index_fresh() {
        oracle.rebuild_date_index();
    }
    let rec = recover(&f_dir, &cfg, SCALE, WalOptions::default()).unwrap();
    assert_eq!(rec.report.last_seq, 6);
    let (f, o) = (rec.store.stats(), oracle.stats());
    assert_eq!((f.nodes, f.edges), (o.nodes, o.edges), "follower equals the oracle");

    let _ = std::fs::remove_dir_all(&f_dir);
}

#[test]
fn promoted_epoch_survives_restart() {
    let dir = tmp_dir("epoch");
    let all = batches(3);

    // A follower with two applied records, promoted over the wire: the
    // bumped fencing epoch must be fsynced into the WAL headers before
    // the node goes writable, so a restart recovers it.
    let node = start(&dir, true);
    let repl_addr = node.listen_replication("127.0.0.1:0", repl_cfg(&dir)).expect("repl bind");
    assert_eq!(node.epoch(), 0, "fresh node starts at epoch zero");

    let listener = TcpListener::bind("127.0.0.1:0").expect("fake primary bind");
    let fake_primary = listener.local_addr().unwrap().to_string();
    let handle = node.replicate_from(&fake_primary, repl_cfg(&dir));
    let (mut conn, _) = accept_subscriber(&listener);
    for seq in 1..=2u64 {
        ship(&mut conn, seq, &all[seq as usize - 1]);
    }
    wait_applied(&node, 2, Duration::from_secs(10));

    let promotion = replication::promote_with(&repl_addr.to_string(), 7, "", "", &[])
        .expect("promote with an epoch floor");
    assert_eq!(promotion.writable_from, 2);
    assert_eq!(promotion.epoch, 7, "the floor wins when above own-term + 1");
    assert_eq!(node.epoch(), 7);
    // Writable in the new term: the next write in sequence lands.
    assert_eq!(submit(&node, 3, &all[2]), 3);

    handle.stop();
    node.shutdown();

    // Restart: recovery reports the bumped epoch from the WAL headers
    // and the server resumes in the same term.
    let rec = recover(&dir, &config(), SCALE, WalOptions::default()).expect("recovery");
    assert_eq!(rec.report.epoch, 7, "bumped epoch recovered from the headers");
    assert_eq!(rec.report.last_seq, 3);
    let (store, durability, _) = rec.into_durability();
    let node = Server::start_durable(store, server_config(false), durability);
    assert_eq!(node.epoch(), 7, "restarted node resumes its term");
    assert!(!node.is_fenced());
    node.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn promotion_announce_repoints_siblings_and_fences_the_old_primary() {
    let p_dir = tmp_dir("sb_p");
    let f1_dir = tmp_dir("sb_f1");
    let f2_dir = tmp_dir("sb_f2");
    let all = batches(5);

    let primary = start(&p_dir, false);
    let p_repl = primary.listen_replication("127.0.0.1:0", repl_cfg(&p_dir)).expect("p repl");
    let f1 = start(&f1_dir, true);
    let f1_repl = f1.listen_replication("127.0.0.1:0", repl_cfg(&f1_dir)).expect("f1 repl");
    let f2 = start(&f2_dir, true);
    // f2 needs its own listener to receive the Announce.
    let f2_repl = f2.listen_replication("127.0.0.1:0", repl_cfg(&f2_dir)).expect("f2 repl");

    let h1 = f1.replicate_from(&p_repl.to_string(), repl_cfg(&f1_dir));
    let h2 = f2.replicate_from(&p_repl.to_string(), repl_cfg(&f2_dir));
    for seq in 1..=3u64 {
        assert_eq!(submit(&primary, seq, &all[seq as usize - 1]), seq);
    }
    wait_applied(&f1, 3, Duration::from_secs(10));
    wait_applied(&f2, 3, Duration::from_secs(10));

    // Promote f1, telling it where it lives and who its siblings are —
    // including the still-running old primary, which must end up fenced.
    let siblings = vec![f2_repl.to_string(), p_repl.to_string()];
    let promotion = replication::promote_with(
        &f1_repl.to_string(),
        0,
        &f1_repl.to_string(),
        "127.0.0.1:7777",
        &siblings,
    )
    .expect("promote f1");
    assert_eq!(promotion.writable_from, 3);
    assert!(promotion.epoch >= 1);
    assert!(!f1.is_read_only());

    // The old primary learns of the newer term from the announce and
    // fences itself — no operator intervention.
    let deadline = Instant::now() + Duration::from_secs(10);
    while !primary.is_fenced() {
        assert!(Instant::now() < deadline, "old primary never fenced");
        std::thread::sleep(Duration::from_millis(5));
    }
    let resp =
        primary.client().call(ServiceParams::Write(WriteBatch { seq: 4, ops: all[3].clone() }), 0);
    let err = resp.body.expect_err("fenced ex-primary must refuse writes");
    assert_eq!(err.kind, ErrorKind::Fenced);
    assert!(
        err.detail.contains("(primary=127.0.0.1:7777)"),
        "fenced refusal carries the redirect hint: {}",
        err.detail
    );
    assert_eq!(primary.report_now().fenced_rejects, 1);

    // f2 re-subscribes to f1 automatically and applies f1's new writes.
    assert_eq!(submit(&f1, 4, &all[3]), 4);
    wait_applied(&f2, 4, Duration::from_secs(10));
    let status = h2.status();
    assert!(status.resubscribed >= 1, "f2 re-pointed itself: {status:?}");
    assert!(!status.denied);
    let (a, b) = (q5(&f1), q5(&f2));
    assert_eq!((a.rows, a.fingerprint), (b.rows, b.fingerprint), "f2 equals the new primary");

    h1.stop();
    h2.stop();
    primary.shutdown();
    f1.shutdown();
    f2.shutdown();
    let _ = std::fs::remove_dir_all(&p_dir);
    let _ = std::fs::remove_dir_all(&f1_dir);
    let _ = std::fs::remove_dir_all(&f2_dir);
}
