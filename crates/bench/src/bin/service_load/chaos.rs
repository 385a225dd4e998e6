//! `--chaos`: the crash-recovery experiment.
//!
//! Spawns a real `snb-server` process with a WAL, drives sequenced
//! write batches at it, and SIGKILLs it at four injected fault points:
//!
//! 1. `wal.append.short_write` — the append tears mid-record. Recovery
//!    must truncate the torn tail; the batch was never durable, so the
//!    resubmission applies it for the first time (`ok`).
//! 2. `wal.append.post_append` — the record is durable (synced) but the
//!    server dies before applying/acking. Recovery must replay it; the
//!    resubmission is acknowledged `deduped` with zero rows.
//! 3. `writer.apply.panic` — the write path panics after the append,
//!    before the publish. The server answers `store_poisoned` (typed,
//!    no hang), refuses further traffic, and after restart the WAL'd
//!    batch is replayed; the resubmission dedupes.
//! 4. `image.write.torn` — the store-image replacement at a compaction
//!    point tears mid-write (temp file abandoned, no rename, log left
//!    untruncated). The write is non-fatal, so the server keeps
//!    acking; the SIGKILL then proves recovery falls back to the
//!    *previous* intact image plus the WAL tail — never a torn or lost
//!    image.
//!
//! Every process runs with `--snapshot-every 5`: once the log holds
//! five records an append writes a store image and truncates the
//! log. The first three faults keep the log just short of that, so
//! the first image lands in the drain that follows them.
//!
//! After the last restart the harness quiesces and proves the recovered
//! store answers **all 25 BI queries** with the same row counts and
//! fingerprints as an in-process oracle that applied exactly the
//! acknowledged batches once each. Any lost ack (a batch the server
//! confirmed but the recovered store is missing) or duplicate
//! application (a dedupe that re-applied) shows up as a fingerprint
//! divergence or a non-zero `rows` on a dedupe ack — both are hard
//! failures.
//!
//! Every stall fault here is "sleep forever"; the harness detects the
//! missing ack with a read timeout and delivers the actual SIGKILL via
//! `Child::kill`, so the process dies exactly at the armed point with
//! no destructors run.

use std::net::TcpStream;

use snb_datagen::dictionaries::StaticWorld;
use snb_datagen::stream::UpdateEvent;
use snb_datagen::GeneratorConfig;
use snb_engine::QueryContext;
use snb_params::ParamGen;
use snb_server::{ErrorKind, ServiceParams, WriteOps};
use snb_store::{DeleteOp, Store};

use crate::node::{call, submit, Node, Refusal};
use crate::Args;

/// Sequenced batches carved from a real update stream: chunks of
/// inserts in stream order, with a like-delete batch interleaved after
/// any chunk that produced likes (both write families hit the WAL).
pub fn carve_stream(stream: &[snb_datagen::stream::TimedEvent], chunks: usize) -> Vec<WriteOps> {
    let mut out = Vec::new();
    let mut likes = Vec::new();
    for chunk in stream.chunks(20).take(chunks) {
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

/// [`carve_stream`] over a freshly generated stream for `config`.
pub fn carve_batches(config: &GeneratorConfig, chunks: usize) -> Vec<WriteOps> {
    let (_, stream) = snb_store::bulk_store_and_stream(config);
    carve_stream(&stream, chunks)
}

/// `base` with every batch applied exactly once, in order: what a node
/// that lost no acked write and applied none twice must hold.
pub fn every_batch_oracle(mut base: Store, batches: &[WriteOps], seed: u64) -> Store {
    let world = StaticWorld::build(seed);
    for ops in batches {
        match ops {
            WriteOps::Updates(events) => {
                for ev in events {
                    base.apply_event(ev, &world).expect("oracle apply");
                }
            }
            WriteOps::Deletes(dels) => {
                base.apply_deletes(dels).expect("oracle delete");
            }
        }
    }
    if !base.date_index_fresh() {
        base.rebuild_date_index();
    }
    base.validate_invariants().expect("oracle invariants");
    base
}

/// Reads two bindings of each of the 25 BI queries at `min_seq` from
/// every `(connection, node name)` and compares each answer's rows and
/// fingerprint with `oracle`. Returns (answers checked, mismatches);
/// every mismatch is printed.
pub fn verify_bi(
    oracle: &Store,
    seed: u64,
    min_seq: u64,
    nodes: &mut [(&mut TcpStream, &str)],
) -> (u64, u64) {
    let gen = ParamGen::new(oracle, seed);
    let ctx = QueryContext::single_threaded();
    let (mut verified, mut mismatches) = (0u64, 0u64);
    for q in 1..=25u8 {
        for params in gen.bi_params(q, 2) {
            let want = snb_bi::run_with(oracle, &ctx, &params);
            for (conn, who) in nodes.iter_mut() {
                let resp =
                    call(conn, 10_000_000 + verified, min_seq, ServiceParams::Bi(params.clone()))
                        .expect("verify read");
                verified += 1;
                match resp.body {
                    Ok(ok) if ok.rows == want.rows as u64 && ok.fingerprint == want.fingerprint => {
                    }
                    Ok(ok) => {
                        mismatches += 1;
                        eprintln!(
                            "VERIFY FAILURE: BI {q} on {who}: rows {} fp {:#x}, \
                             oracle rows {} fp {:#x}",
                            ok.rows, ok.fingerprint, want.rows, want.fingerprint
                        );
                    }
                    Err(e) => {
                        mismatches += 1;
                        eprintln!(
                            "VERIFY FAILURE: BI {q} on {who}: {}: {}",
                            e.kind.name(),
                            e.detail
                        );
                    }
                }
            }
        }
    }
    (verified, mismatches)
}

pub fn run(args: &Args) {
    let wal_dir = std::env::temp_dir().join(format!("snb_chaos_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let spawn = |faults: Option<&str>| Node::spawn(args, "server", &wal_dir, &[], faults);

    eprintln!("# chaos: carving write batches (scale {}, seed {})", args.scale, args.config.seed);
    let (base_store, stream) = snb_store::bulk_store_and_stream(&args.config);
    let batches = carve_stream(&stream, 12);
    // A read binding for probing the degraded server; generated against
    // the bulk image (only the error kind matters, not the result).
    let probe = ParamGen::new(&base_store, args.config.seed)
        .bi_params(1, 1)
        .pop()
        .expect("one BI 1 binding");
    let total = batches.len() as u64;
    // Phases 1-3 burn seqs 1-5; the image phases need >= 5 appends
    // before the first kill (so an image lands at a compaction point)
    // and >= 5 after (so the replacement attempt trips the torn write).
    assert!(total >= 16, "need at least 16 batches for the four phases, got {total}");
    // Everything after this seq exercises the store-image fault.
    let image_drain = total - 5;
    let mut acked = vec![false; batches.len()];
    let mut dedupes = 0u64;
    let mut faults = 0u64;
    let seq_ops = |seq: u64| &batches[(seq - 1) as usize];

    // ---- Phase 1: torn append. The 3rd WAL append writes 8 bytes and
    // stalls; seqs 1-2 are acked, seq 3 is neither durable nor applied.
    eprintln!("# chaos phase 1: SIGKILL at wal.append.short_write (seq 3)");
    let server = spawn(Some("wal.append.short_write=short:8,stall:600000@h3"));
    assert_eq!(server.recovery.seq, 0, "fresh directory recovers to the bulk image");
    let mut conn = server.connect();
    for seq in 1..=2u64 {
        let (flavor, _) = submit(&mut conn, seq, seq_ops(seq)).expect("pre-fault ack");
        assert_eq!(flavor, "ok");
        acked[seq as usize - 1] = true;
    }
    let stalled = submit(&mut conn, 3, seq_ops(3));
    assert!(stalled.is_err(), "seq 3 must stall at the torn append, got {stalled:?}");
    server.sigkill();

    // ---- Phase 2: restart, verify truncation, resubmit seq 3 (first
    // apply), then die after a durable append of seq 4 (pre-apply).
    eprintln!("# chaos phase 2: recover; SIGKILL at wal.append.post_append (seq 4)");
    let server = spawn(Some("wal.append.post_append=stall:600000@h2"));
    // (effects in one clause are comma-separated; `@h2` because the
    // resubmitted seq 3 consumes this fresh process's first append.)
    assert_eq!(server.recovery.seq, 2, "torn seq 3 must not be replayed");
    assert!(server.recovery.truncated_bytes > 0, "the torn tail must be truncated");
    let mut conn = server.connect();
    let (flavor, rows) = submit(&mut conn, 3, seq_ops(3)).expect("resubmit seq 3");
    assert_eq!((flavor, rows > 0), ("ok", true), "seq 3 was never durable: first apply");
    acked[2] = true;
    faults += 1;
    let stalled = submit(&mut conn, 4, seq_ops(4));
    assert!(stalled.is_err(), "seq 4 must stall after the durable append, got {stalled:?}");
    server.sigkill();

    // ---- Phase 3: restart, seq 4 must have been replayed from the
    // WAL; its resubmission dedupes. Then seq 5 panics mid-apply: the
    // server answers store_poisoned (typed, no hang) and refuses reads.
    eprintln!("# chaos phase 3: recover; SIGKILL after writer.apply.panic (seq 5)");
    let server = spawn(Some("writer.apply.panic=panic@h1"));
    assert_eq!(server.recovery.seq, 4, "durable seq 4 must be replayed, not lost");
    assert_eq!(server.recovery.truncated_bytes, 0, "seq 4's append was clean");
    let mut conn = server.connect();
    let (flavor, rows) = submit(&mut conn, 4, seq_ops(4)).expect("resubmit seq 4");
    assert_eq!((flavor, rows), ("deduped", 0), "durable+replayed seq 4 must dedupe");
    acked[3] = true;
    dedupes += 1;
    faults += 1;
    match submit(&mut conn, 5, seq_ops(5)) {
        Err(Refusal::Typed(ErrorKind::StorePoisoned, _)) => {}
        other => panic!("seq 5 must be refused store_poisoned, got {other:?}"),
    }
    // The degraded store refuses reads too — with a typed error, not a
    // hang or a poisoned-lock panic cascade.
    let read =
        call(&mut conn, 9_999, 0, ServiceParams::Bi(probe.clone())).expect("probe read answers");
    match read.body {
        Err(e) if e.kind == ErrorKind::StorePoisoned => {}
        other => panic!("degraded server must refuse reads store_poisoned, got {other:?}"),
    }
    server.sigkill();

    // ---- Phase 4: seq 5 was WAL-appended before the injected panic,
    // so replay (which sees no fault) applies it; the resubmission
    // dedupes. No append has succeeded with five records in the log
    // yet, so there is no image. Drain most of the schedule normally —
    // each compaction point writes a store image and truncates the
    // log, so by the kill an image anchors the WAL.
    eprintln!("# chaos phase 4: recover; drain across compaction points; SIGKILL");
    let server = spawn(None);
    assert_eq!(server.recovery.seq, 5, "seq 5 was durable before the panic: replayed");
    assert_eq!(server.recovery.image_seq, 0, "no image exists yet: full-history replay");
    assert_eq!(server.recovery.wal_entries, 5, "the log holds the whole history");
    let mut conn = server.connect();
    let (flavor, rows) = submit(&mut conn, 5, seq_ops(5)).expect("resubmit seq 5");
    assert_eq!((flavor, rows), ("deduped", 0), "replayed seq 5 must dedupe");
    acked[4] = true;
    dedupes += 1;
    faults += 1;
    for seq in 6..=image_drain {
        let (flavor, _) = submit(&mut conn, seq, seq_ops(seq)).expect("drain ack");
        assert_eq!(flavor, "ok");
        acked[seq as usize - 1] = true;
    }
    server.sigkill();

    // ---- Phase 5: image-anchored recovery, then a torn image write.
    // Recovery must start from the store image the previous process
    // wrote, replaying only the WAL tail past it — not full history.
    // Every image *replacement* in this process tears (`@p1` fires on
    // each hit): a partial temp file, never renamed over `store.img`,
    // and the log is left untruncated. The write is non-fatal, so
    // the acks keep flowing; the SIGKILL then leaves a directory whose
    // newest durable state lives only in the WAL tail past the old
    // image.
    eprintln!("# chaos phase 5: recover from image; SIGKILL after image.write.torn");
    let server = spawn(Some("image.write.torn=short:120@p1"));
    assert!(server.recovery.image_seq > 0, "recovery must anchor on the store image");
    assert_eq!(server.recovery.seq, image_drain, "every acked batch survives the kill");
    assert_eq!(
        server.recovery.tail_replayed,
        server.recovery.seq - server.recovery.image_seq,
        "tail replay is bounded by the image, not by history length"
    );
    let anchor = server.recovery.image_seq;
    let mut conn = server.connect();
    for seq in image_drain + 1..=total {
        let (flavor, _) = submit(&mut conn, seq, seq_ops(seq)).expect("post-image ack");
        assert_eq!(flavor, "ok");
        acked[seq as usize - 1] = true;
    }
    server.sigkill();
    // Five appends crossed a compaction point, so the server tried to
    // replace the image and tore every attempt. The on-disk image must
    // still be the intact anchor — a torn write never lands.
    let on_disk = snb_server::image_info(&wal_dir, &args.scale, args.config.seed)
        .expect("peek store.img")
        .expect("store.img present after the torn replacement");
    assert_eq!(on_disk.seq, anchor, "torn image write must not replace the previous image");

    // ---- Phase 6: final recovery. The replacement image never landed,
    // so recovery falls back to the previous image plus the WAL tail —
    // which now includes the post-image batches. The last batch was
    // durable before the kill, so its resubmission dedupes.
    eprintln!("# chaos phase 6: recover; verify fallback to previous image + WAL tail");
    let server = spawn(None);
    assert_eq!(server.recovery.image_seq, anchor, "fallback to the intact previous image");
    assert_eq!(server.recovery.seq, total, "WAL tail past the image replays in full");
    assert_eq!(server.recovery.tail_replayed, total - anchor, "tail = everything past the image");
    let mut conn = server.connect();
    let (flavor, rows) = submit(&mut conn, total, seq_ops(total)).expect("resubmit last batch");
    assert_eq!((flavor, rows), ("deduped", 0), "durable post-image batch must dedupe");
    dedupes += 1;
    faults += 1;
    let lost_acks = acked.iter().filter(|&&a| !a).count() as u64;
    assert_eq!(lost_acks, 0, "every batch must end acknowledged");

    // ---- Oracle: a quiesced in-process store that applied exactly the
    // acknowledged batches once each, compared over all 25 BI queries.
    eprintln!("# chaos: building acked-batches oracle and verifying 25 BI queries");
    let oracle = every_batch_oracle(base_store, &batches, args.config.seed);
    let (verified, mismatches) =
        verify_bi(&oracle, args.config.seed, 0, &mut [(&mut conn, "recovered server")]);
    drop(conn);
    server.terminate();
    let _ = std::fs::remove_dir_all(&wal_dir);
    assert_eq!(mismatches, 0, "recovered store diverges from the acked-batches oracle");

    snb_bench::print_table(
        "E13: chaos recovery",
        &["batches", "faults", "dedupes", "image anchor", "lost acks", "verified", "mismatches"],
        &[vec![
            total.to_string(),
            faults.to_string(),
            dedupes.to_string(),
            anchor.to_string(),
            lost_acks.to_string(),
            verified.to_string(),
            mismatches.to_string(),
        ]],
    );
    eprintln!(
        "# chaos: PASS ({total} batches, {faults} faults, 5 kills, {dedupes} dedupes, \
         {verified} queries)"
    );
}
