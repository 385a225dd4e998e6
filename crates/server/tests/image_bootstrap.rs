//! Store-image integration tests: recovery bounded by the image (not
//! the history), and follower bootstrap over the replication channel.
//!
//! Invariants under test: a primary writes `store.img` at every
//! compaction point and truncates the log behind it, so a
//! restart decodes the image and replays only the WAL tail; a follower
//! whose cursor is at or below the image's sequence — subscribing cold
//! from seq 0, or lapped by a compaction while subscribed — receives
//! the image as `ImageOffer`/`ImageChunk` frames, installs it
//! atomically, applies only the tail first-hand, and equals the primary
//! on queries — with its own durable state restartable from the
//! installed image.

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use snb_bi::BiParams;
use snb_datagen::GeneratorConfig;
use snb_server::{
    image_info, recover, ReplicationConfig, Server, ServerConfig, ServiceParams, WalOptions,
    WriteBatch, WriteOps,
};

const SCALE: &str = "0.001";

fn config() -> GeneratorConfig {
    GeneratorConfig::for_scale_name(SCALE).unwrap()
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("snb_imgit_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Update-only sequenced batches carved from the real stream.
fn batches(n: usize) -> Vec<WriteOps> {
    let (_, stream) = snb_store::bulk_store_and_stream(&config());
    stream.chunks(10).take(n).map(|chunk| WriteOps::Updates(chunk.to_vec())).collect()
}

/// WAL options for the primary: compact every four batches.
fn image_options() -> WalOptions {
    WalOptions { snapshot_every: 4 }
}

/// The injected network partition is process-global; the tests that
/// replicate serialize so one test's partition cannot lap another's
/// follower.
fn net_lock() -> MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    GUARD.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(PoisonError::into_inner)
}

fn server_config(read_only: bool) -> ServerConfig {
    ServerConfig { workers: 2, threads_per_worker: 1, read_only, ..ServerConfig::default() }
}

fn start(dir: &std::path::Path, read_only: bool, options: WalOptions) -> Server {
    let recovered = recover(dir, &config(), SCALE, options).expect("recovery succeeds");
    let (store, durability, _) = recovered.into_durability();
    Server::start_durable(store, server_config(read_only), durability)
}

fn repl_cfg(dir: &std::path::Path) -> ReplicationConfig {
    ReplicationConfig { wal_dir: dir.to_path_buf(), scale: SCALE.to_string(), seed: config().seed }
}

fn submit(server: &Server, seq: u64, ops: &WriteOps) {
    let resp = server.client().call(ServiceParams::Write(WriteBatch { seq, ops: ops.clone() }), 0);
    resp.body.unwrap_or_else(|e| panic!("write seq {seq} refused: {e:?}"));
}

fn q5(server: &Server) -> snb_server::OkBody {
    let params = BiParams::Q5(snb_bi::bi05::Params { country: "China".into() });
    server.client().call(ServiceParams::Bi(params), 0).body.expect("Q5 read")
}

fn wait_applied(server: &Server, seq: u64, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    while server.last_applied_seq() < seq {
        assert!(Instant::now() < deadline, "node stuck at {}", server.last_applied_seq());
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Direct-apply oracle: batches 1..=n applied straight to a bulk store.
fn oracle(all: &[WriteOps]) -> snb_store::Store {
    let cfg = config();
    let world = snb_datagen::dictionaries::StaticWorld::build(cfg.seed);
    let (mut store, _) = snb_store::bulk_store_and_stream(&cfg);
    for ops in all {
        let WriteOps::Updates(events) = ops else { unreachable!() };
        for ev in events {
            store.apply_event(ev, &world).unwrap();
        }
    }
    if !store.date_index_fresh() {
        store.rebuild_date_index();
    }
    store
}

#[test]
fn image_recovery_replays_only_the_tail_and_equals_the_oracle() {
    let dir = tmp_dir("recov");
    let all = batches(10);

    // Ten batches through the primary: compactions at 4 and 8, each
    // superseding the image and truncating the log behind it.
    let primary = start(&dir, false, image_options());
    for (i, ops) in all.iter().enumerate() {
        submit(&primary, i as u64 + 1, ops);
    }
    primary.shutdown();

    let header = image_info(&dir, SCALE, config().seed)
        .expect("image header readable")
        .expect("an image was written at the compaction point");
    assert_eq!(header.seq, 8, "latest image covers through the last compaction");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    files.sort();
    assert_eq!(files, ["store.img", "wal.log"], "the log and one image, nothing else");

    // The image anchors the rebuild and only 9..=10 replay.
    let rec = recover(&dir, &config(), SCALE, WalOptions::default()).expect("image recovery");
    assert_eq!(rec.report.image_seq, 8, "recovery started from the image");
    assert_eq!(rec.report.last_seq, 10);
    assert_eq!(rec.report.tail_replayed, 2, "only the post-image tail applies");
    assert_eq!(rec.report.wal_entries, 2, "the log was truncated behind the image");

    // Exact state: the image + tail equals a direct-apply oracle.
    let (r, o) = (rec.store.stats(), oracle(&all).stats());
    assert_eq!((r.nodes, r.edges), (o.nodes, o.edges), "image recovery equals the oracle");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn image_recovery_time_is_flat_in_history_length() {
    // Not a wall-clock assertion (CI boxes jitter); the structural
    // claim is that the replayed tail after recovery-from-image is
    // bounded by `snapshot_every`, no matter how long the history
    // grows — that is what makes recovery O(image + tail).
    let dir = tmp_dir("flat");
    let all = batches(12);
    for n in [5usize, 9, 12] {
        let primary = start(&dir, false, image_options());
        let from = primary.last_applied_seq() as usize;
        for (i, ops) in all.iter().enumerate().take(n).skip(from) {
            submit(&primary, i as u64 + 1, ops);
        }
        primary.shutdown();
        let rec = recover(&dir, &config(), SCALE, WalOptions::default()).expect("recovery");
        assert_eq!(rec.report.last_seq, n as u64);
        assert!(
            rec.report.tail_replayed <= 4,
            "history {n}: tail {} exceeds snapshot_every",
            rec.report.tail_replayed
        );
        assert_eq!(rec.report.image_seq, (n as u64 / 4) * 4, "history {n}: image tracks rotation");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cold_follower_bootstraps_from_the_image_offer() {
    let _net = net_lock();
    let p_dir = tmp_dir("boot_p");
    let f_dir = tmp_dir("boot_f");
    let all = batches(10);

    let primary = start(&p_dir, false, image_options());
    let repl_addr = primary.listen_replication("127.0.0.1:0", repl_cfg(&p_dir)).expect("repl bind");
    for (i, ops) in all.iter().enumerate() {
        submit(&primary, i as u64 + 1, ops);
    }
    assert_eq!(
        image_info(&p_dir, SCALE, config().seed).unwrap().map(|h| h.seq),
        Some(8),
        "primary wrote its image before the follower connects"
    );

    // A cold follower (fresh directory, from_seq 0): the ship loop
    // must offer the image — the log behind it was truncated, so
    // the log *couldn't* replay from zero.
    let follower = start(&f_dir, true, WalOptions::default());
    let handle = follower.replicate_from(&repl_addr.to_string(), repl_cfg(&f_dir));
    assert!(handle.wait_caught_up(Duration::from_secs(10)), "catch-up: {:?}", handle.status());
    wait_applied(&follower, 10, Duration::from_secs(10));

    let status = handle.status();
    assert_eq!(status.image_bootstraps, 1, "bootstrapped from the image: {status:?}");
    assert_eq!(status.records_applied, 2, "only the 9..=10 tail applies first-hand: {status:?}");
    assert_eq!(status.apply_errors, 0);

    // Oracle equality across the wire.
    let (p, f) = (q5(&primary), q5(&follower));
    assert_eq!((p.rows, p.fingerprint), (f.rows, f.fingerprint), "follower equals primary");
    assert_eq!(f.applied_seq, 10);

    // The installed image is durable on the follower: a restart
    // recovers from it (plus its own appended tail), not from scratch.
    handle.stop();
    follower.shutdown();
    primary.shutdown();
    let rec = recover(&f_dir, &config(), SCALE, WalOptions::default()).expect("follower recovery");
    assert_eq!(rec.report.image_seq, 8, "follower restarts from the installed image");
    assert_eq!(rec.report.last_seq, 10);
    let (r, o) = (rec.store.stats(), oracle(&all).stats());
    assert_eq!((r.nodes, r.edges), (o.nodes, o.edges), "restarted follower equals the oracle");

    let _ = std::fs::remove_dir_all(&p_dir);
    let _ = std::fs::remove_dir_all(&f_dir);
}

#[test]
fn warm_follower_is_not_offered_the_image() {
    let _net = net_lock();
    let p_dir = tmp_dir("warm_p");
    let f_dir = tmp_dir("warm_f");
    let all = batches(10);

    let primary = start(&p_dir, false, image_options());
    let repl_addr = primary.listen_replication("127.0.0.1:0", repl_cfg(&p_dir)).expect("repl bind");
    // The follower subscribes first and rides the live tail, so its
    // cursor is always at (or just behind) the primary's — when a
    // reconnect happens its from_seq is past the image and plain log
    // shipping must be used.
    let follower = start(&f_dir, true, WalOptions::default());
    let handle = follower.replicate_from(&repl_addr.to_string(), repl_cfg(&f_dir));
    for (i, ops) in all.iter().enumerate() {
        submit(&primary, i as u64 + 1, ops);
        wait_applied(&follower, i as u64 + 1, Duration::from_secs(10));
    }
    let status = handle.status();
    assert_eq!(status.image_bootstraps, 0, "live follower never needed the image: {status:?}");
    assert_eq!(status.records_applied, 10, "every record applied first-hand: {status:?}");

    let (p, f) = (q5(&primary), q5(&follower));
    assert_eq!((p.rows, p.fingerprint), (f.rows, f.fingerprint));

    handle.stop();
    follower.shutdown();
    primary.shutdown();
    let _ = std::fs::remove_dir_all(&p_dir);
    let _ = std::fs::remove_dir_all(&f_dir);
}

#[test]
fn lapped_live_follower_is_offered_the_image_then_the_tail() {
    let _net = net_lock();
    let p_dir = tmp_dir("lap_p");
    let f_dir = tmp_dir("lap_f");
    let all = batches(10);

    let primary = start(&p_dir, false, image_options());
    let repl_addr = primary.listen_replication("127.0.0.1:0", repl_cfg(&p_dir)).expect("repl bind");
    let follower = start(&f_dir, true, WalOptions::default());
    let handle = follower.replicate_from(&repl_addr.to_string(), repl_cfg(&f_dir));
    for (i, ops) in all.iter().enumerate().take(2) {
        submit(&primary, i as u64 + 1, ops);
    }
    wait_applied(&follower, 2, Duration::from_secs(10));

    // Park the subscription at seq 2: under the partition the ship loop
    // stays subscribed but ships nothing, while the primary compacts at
    // 4 and 8 and truncates seqs 3..=8 out of the log.
    snb_fault::start_partition(60_000);
    for (i, ops) in all.iter().enumerate().skip(2) {
        submit(&primary, i as u64 + 1, ops);
    }
    assert_eq!(image_info(&p_dir, SCALE, config().seed).unwrap().map(|h| h.seq), Some(8));
    snb_fault::heal_partition();

    // The parked cursor wants seq 3, which only the image still covers:
    // the follower must get the image, then 9..=10 as records.
    wait_applied(&follower, 10, Duration::from_secs(10));
    let status = handle.status();
    assert_eq!(status.image_bootstraps, 1, "lapped follower got the image: {status:?}");
    assert_eq!(status.records_applied, 4, "1..=2 before, 9..=10 after the image: {status:?}");
    assert_eq!(status.apply_errors, 0, "no record arrived across a gap: {status:?}");
    assert_eq!(
        status.heartbeat_timeouts, 0,
        "the subscription stayed up, so the offer came from the ship loop itself: {status:?}"
    );

    let (p, f) = (q5(&primary), q5(&follower));
    assert_eq!((p.rows, p.fingerprint), (f.rows, f.fingerprint), "follower equals primary");
    let (r, o) = (follower.snapshot().stats(), oracle(&all).stats());
    assert_eq!((r.nodes, r.edges), (o.nodes, o.edges), "follower equals the oracle");

    handle.stop();
    follower.shutdown();
    primary.shutdown();
    let _ = std::fs::remove_dir_all(&p_dir);
    let _ = std::fs::remove_dir_all(&f_dir);
}
