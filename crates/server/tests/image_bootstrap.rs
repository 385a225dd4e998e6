//! Store-image integration tests: recovery bounded by the image, not
//! by the history.
//!
//! Invariants under test: a server writes `store.img` at every
//! compaction point and truncates the log behind it, so a restart
//! decodes the image and replays only the WAL tail, and the recovered
//! store equals a direct-apply oracle.

use snb_datagen::GeneratorConfig;
use snb_server::{
    image_info, recover, Server, ServerConfig, ServiceParams, WalOptions, WriteBatch, WriteOps,
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

/// WAL options for the server: compact every four batches.
fn image_options() -> WalOptions {
    WalOptions { snapshot_every: 4 }
}

fn start(dir: &std::path::Path, options: WalOptions) -> Server {
    let recovered = recover(dir, &config(), SCALE, options).expect("recovery succeeds");
    let (store, durability, _) = recovered.into_durability();
    let config = ServerConfig { workers: 2, threads_per_worker: 1, ..ServerConfig::default() };
    Server::start_durable(store, config, durability)
}

fn submit(server: &Server, seq: u64, ops: &WriteOps) {
    let resp = server.client().call(ServiceParams::Write(WriteBatch { seq, ops: ops.clone() }), 0);
    resp.body.unwrap_or_else(|e| panic!("write seq {seq} refused: {e:?}"));
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
    store
}

#[test]
fn image_recovery_replays_only_the_tail_and_equals_the_oracle() {
    let dir = tmp_dir("recov");
    let all = batches(10);

    // Ten batches through the server: compactions at 4 and 8, each
    // superseding the image and truncating the log behind it.
    let server = start(&dir, image_options());
    for (i, ops) in all.iter().enumerate() {
        submit(&server, i as u64 + 1, ops);
    }
    server.shutdown();

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
        let server = start(&dir, image_options());
        let from = server.last_applied_seq() as usize;
        for (i, ops) in all.iter().enumerate().take(n).skip(from) {
            submit(&server, i as u64 + 1, ops);
        }
        server.shutdown();
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
