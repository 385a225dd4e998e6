//! Reads beside the durable writer. Sequenced batches carved from the
//! update stream (inserts plus like-deletes) are submitted through the
//! server's one write path — WAL append, then one published store
//! version per batch — while client threads send BI 1, 2, 12 and 18,
//! the date-window queries most sensitive to a half-applied batch or a
//! date index out of step with the messages.
//!
//! `every_read_beside_the_writer_equals_a_serial_prefix` is E11, the
//! spec's §6.4 serializability audit: every answer the server gives
//! must be the answer of some serial prefix of the batch sequence, at
//! or after the write sequence the response is stamped with.
//! `responses_match_quiesced_oracle_at_batch_boundaries` checks that at
//! every quiesced batch boundary the service agrees exactly with a
//! direct single-threaded run on the published store, and that a
//! version outlives its publish only while a reader pins it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use snb_bi::BiParams;
use snb_core::Date;
use snb_datagen::dictionaries::StaticWorld;
use snb_engine::QueryContext;
use snb_params::ParamGen;
use snb_server::{OkBody, Server, ServiceParams, WalOptions, WriteOps};
use snb_store::Store;

mod common;
use common::{apply, batches, config, start, submit, tmp_dir};

/// Reader threads racing the writes.
const READERS: usize = 2;

/// The update events and the delete operations `batches` hold: what
/// the server's `updates_applied` and `deletes_applied` must count.
fn op_counts(batches: &[WriteOps]) -> (u64, u64) {
    batches.iter().fold((0, 0), |(u, d), ops| match ops {
        WriteOps::Updates(events) => (u + events.len() as u64, d),
        WriteOps::Deletes(dels) => (u, d + dels.len() as u64),
    })
}

/// BI 1 with a date after the whole stream (every inserted message
/// counts), then one curated binding each of BI 2, 12 and 18.
fn probes(store: &Store) -> Vec<BiParams> {
    let gen = ParamGen::new(store, config().seed);
    let mut probes = vec![BiParams::Q1(snb_bi::bi01::Params { date: Date::from_ymd(2100, 1, 1) })];
    for q in [2u8, 12, 18] {
        probes.extend(gen.bi_params(q, 1));
    }
    assert_eq!(probes.len(), 4);
    probes
}

type Answer = (u64, u64);

fn answer(ok: &OkBody) -> Answer {
    (ok.rows, ok.fingerprint)
}

fn read(server: &Server, probe: &BiParams, min_seq: u64) -> OkBody {
    let resp = server.client().call_min_seq(ServiceParams::Bi(probe.clone()), 0, min_seq);
    resp.body.unwrap_or_else(|e| panic!("read refused: {e:?}"))
}

#[test]
fn every_read_beside_the_writer_equals_a_serial_prefix() {
    let dir = tmp_dir("e11");
    let server = start(&dir, WalOptions::default());
    // Forty insert batches, each with its like-deletes: enough publishes
    // that the readers pin a version mid-batch many times over, were a
    // batch ever published in parts.
    let batches = batches(20, 40);
    let n = batches.len();
    assert!(n >= 60, "too few batches to interleave: {n}");

    // The serial oracle: each probe's answer after every prefix of the
    // batch sequence, replayed on a private copy of the base version.
    let base = server.snapshot().store().clone();
    let probes = probes(&base);
    let world = StaticWorld::build(config().seed);
    let ctx = QueryContext::single_threaded();
    let mut serial = base;
    let answers_at = |store: &Store| -> Vec<Answer> {
        let run = |p| snb_bi::run_with(store, &ctx, p);
        probes.iter().map(run).map(|s| (s.rows as u64, s.fingerprint)).collect()
    };
    let mut oracle = vec![answers_at(&serial)];
    for ops in &batches {
        apply(&mut serial, ops, &world);
        oracle.push(answers_at(&serial));
    }

    let writing = AtomicBool::new(true);
    let (seen, checks) = std::thread::scope(|s| {
        // Readers cycle the probes for as long as the writer runs and
        // keep (probe, stamped applied_seq, answer) of every read.
        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                let (server, probes, writing) = (&server, &probes, &writing);
                s.spawn(move || {
                    let mut seen = Vec::new();
                    let mut i = r;
                    while writing.load(Ordering::Acquire) {
                        let p = i % probes.len();
                        let ok = read(server, &probes[p], 0);
                        seen.push((p, ok.applied_seq, answer(&ok)));
                        i += 1;
                    }
                    seen
                })
            })
            .collect();
        let checker = s.spawn(|| {
            let mut checks = 0u64;
            while writing.load(Ordering::Acquire) {
                let pinned = server.snapshot();
                if let Err(e) = pinned.validate_invariants() {
                    panic!("(d) version {} fails its invariants: {e:?}", pinned.version());
                }
                checks += 1;
            }
            checks
        });
        let writer = s.spawn(|| {
            for (k, ops) in batches.iter().enumerate() {
                let seq = k as u64 + 1;
                let ack = submit(&server, seq, ops).expect("batch acked");
                assert_eq!(ack.applied_seq, seq);
                for (p, probe) in probes.iter().enumerate() {
                    let got = answer(&read(&server, probe, seq));
                    assert_eq!(got, oracle[k + 1][p], "(c) probe {p} right after the ack of {seq}");
                }
            }
        });
        // Stop the readers even when the writer fails, so the scope ends.
        let wrote = writer.join();
        writing.store(false, Ordering::Release);
        let seen: Vec<_> = readers.into_iter().map(|r| r.join().expect("reader")).collect();
        wrote.expect("writer");
        (seen, checker.join().expect("checker"))
    });

    for (r, reads) in seen.iter().enumerate() {
        let stamps: Vec<u64> = reads.iter().map(|&(_, stamp, _)| stamp).collect();
        assert!(
            stamps.windows(2).all(|w| w[0] <= w[1]),
            "(b) reader {r} saw applied_seq go backwards: {stamps:?}"
        );
        for &(p, stamp, got) in reads {
            assert!(
                (stamp as usize..=n).any(|j| oracle[j][p] == got),
                "(a) reader {r}: probe {p} stamped {stamp} answered {got:?}, which no serial \
                 prefix at or after {stamp} gives"
            );
        }
    }
    let overlapped = seen.iter().flatten().filter(|&&(_, stamp, _)| stamp < n as u64).count();
    assert!(overlapped > 0, "no read overlapped the writer");
    assert!(checks > 0, "the invariant checker never ran");
    assert!(
        snb_store::encode_store(server.snapshot().store()) == snb_store::encode_store(&serial),
        "(e) the final version differs from the serial replay"
    );
    let report = server.shutdown();
    assert_eq!(report.batches_applied, n as u64);
    assert_eq!((report.updates_applied, report.deletes_applied), op_counts(&batches));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn responses_match_quiesced_oracle_at_batch_boundaries() {
    let dir = tmp_dir("quiesced");
    let server = start(&dir, WalOptions::default());
    let probes = probes(server.snapshot().store());
    let batches = batches(50, 8);

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
                    let resp = client.call(ServiceParams::Bi(probes[i % probes.len()].clone()), 0);
                    assert!(resp.body.is_ok(), "chaos read failed: {:?}", resp.body);
                    ok.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            })
        })
        .collect();

    let oracle_ctx = QueryContext::single_threaded();
    for (k, ops) in batches.iter().enumerate() {
        let seq = k as u64 + 1;
        submit(&server, seq, ops).expect("batch acked");
        // Writes quiesced (the writer is this thread): the service must
        // now agree exactly with a direct run on the latest published
        // version — pinned once, identical for every later read
        // until the next publish.
        let snap = server.snapshot();
        snap.validate_invariants().expect("invariants at batch boundary");
        for p in &probes {
            let want = snb_bi::run_with(&snap, &oracle_ctx, p);
            assert_eq!(
                answer(&read(&server, p, seq)),
                (want.rows as u64, want.fingerprint),
                "service diverged from quiesced oracle for {p:?} at batch {seq}"
            );
        }
    }

    stop.store(true, Ordering::Release);
    for h in chaos {
        h.join().expect("chaos reader");
    }
    let report = server.shutdown();
    assert_eq!(report.batches_applied, batches.len() as u64);
    let (updates, deletes) = op_counts(&batches);
    assert!(updates >= 50 * 8 && deletes > 0, "the batches insert and delete");
    assert_eq!(report.updates_applied, updates, "every inserted event is counted once");
    assert_eq!(report.deletes_applied, deletes, "every like-delete is counted once");
    assert!(chaos_ok.load(Ordering::Relaxed) > 0, "chaos readers never overlapped the writes");
    assert_eq!(report.internal_errors, 0);
    assert_eq!(report.bad_requests, 0);
    // At most one pinned version per reader, plus the current one and
    // the one being published.
    assert!(
        report.peak_live_snapshots <= READERS as u64 + 2,
        "{} live versions with {READERS} readers: an unpinned version outlived its publish",
        report.peak_live_snapshots
    );
    let _ = std::fs::remove_dir_all(&dir);
}
