//! `snb-server`: a concurrent query-service layer for the SNB workloads.
//!
//! The BI suite's power and throughput tests drive the engine from
//! inside one process; this crate puts the same 25 BI reads (plus the
//! 14 interactive complex reads) behind a service boundary, which is
//! where the paper's throughput batches actually live in a deployed
//! system. The pieces:
//!
//! - [`proto`] — a length-prefixed binary wire protocol (version byte,
//!   correlation ids, typed error taxonomy) with a hand-rolled codec
//!   for every BI and IC parameter binding;
//! - [`queue`] — bounded per-lane admission queues (short reads, heavy
//!   BI, writes) whose overload policy is *shed, don't buffer*, drained
//!   by a weighted scheduler that keeps short reads progressing under a
//!   BI flood;
//! - [`server`] — the service core: one lane-classified admission gate,
//!   deadline checks before and after execution, IS reads run on the
//!   thread that admitted them and a worker pool over
//!   [`snb_engine::QueryContext`] for the rest, the portable in-process
//!   transport, graceful drain-then-shutdown, and the durable write
//!   path (WAL append, then one published store version per batch);
//! - `transport` — the readiness-driven epoll reactor for TCP (Linux
//!   only), with one bounded outbox per connection
//!   ([`OUTBOX_LIMIT`]);
//! - [`log`] — the structured access log, a ring of the most recent
//!   [`LOG_CAPACITY`] requests (query id, queue/exec split, outcome,
//!   optional per-request [`snb_engine::QueryProfile`]); every request's
//!   outcome is also counted in the tally [`ServiceReport`] reads.
//!
//! Determinism note: the in-process transport runs requests through
//! the exact admission path TCP uses, so a test can assert that
//! service results equal an in-process power run bit-for-bit.

#![warn(missing_docs)]

pub mod events;
pub mod image;
pub mod log;
pub mod proto;
pub mod queue;
#[cfg(target_os = "linux")]
pub(crate) mod reactor;
pub mod server;
pub(crate) mod transport;
pub mod wal;

pub use image::{image_info, load_image, write_image, ImageHeader, IMAGE_FILE};
pub use log::{AccessLog, AccessRecord, LOG_CAPACITY};
pub use proto::{
    ErrorBody, ErrorKind, Lane, OkBody, Request, RequestHeader, Response, ServiceParams,
    WriteBatch, WriteOps,
};
pub use queue::{LaneQueues, PushError};
pub use server::{Durability, InProcClient, LogHandle, Server, ServerConfig, ServiceReport};
pub use transport::OUTBOX_LIMIT;
pub use wal::{recover, Recovered, RecoveryReport, SegmentedWal, WalEntry, WalOptions};

#[cfg(test)]
mod tests {
    use super::*;
    use snb_bi::BiParams;
    use snb_core::Date;
    use snb_datagen::GeneratorConfig;
    use snb_engine::QueryContext;
    use snb_store::store_for_config;
    use std::io::Write;
    use std::time::Duration;

    fn tiny_store() -> snb_store::Store {
        store_for_config(&GeneratorConfig::for_scale_name("0.001").unwrap())
    }

    fn sample_params() -> Vec<BiParams> {
        use snb_bi::{bi01, bi05, bi08, bi13, bi18};
        vec![
            BiParams::Q1(bi01::Params { date: Date::from_ymd(2011, 6, 1) }),
            BiParams::Q5(bi05::Params { country: "China".into() }),
            BiParams::Q8(bi08::Params { tag: "Augustine_of_Hippo".into() }),
            BiParams::Q13(bi13::Params { country: "India".into() }),
            BiParams::Q18(bi18::Params {
                date: Date::from_ymd(2011, 1, 1),
                length_threshold: 20,
                languages: vec!["uz".into()],
            }),
        ]
    }

    fn q13_india() -> BiParams {
        BiParams::Q13(snb_bi::bi13::Params { country: "India".into() })
    }

    fn q5_china() -> BiParams {
        BiParams::Q5(snb_bi::bi05::Params { country: "China".into() })
    }

    #[test]
    fn inproc_results_match_power_run() {
        let store = tiny_store();
        let ctx = QueryContext::single_threaded();
        let expected: Vec<_> =
            sample_params().iter().map(|p| snb_bi::run_with(&store, &ctx, p)).collect();

        let server = Server::start(
            store,
            ServerConfig { workers: 2, queue_capacity: 32, ..ServerConfig::default() },
        );
        let client = server.client();
        for (p, want) in sample_params().into_iter().zip(expected) {
            let resp = client.call(ServiceParams::Bi(p), 0);
            let ok = resp.body.expect("request should succeed");
            assert_eq!(ok.rows as usize, want.rows);
            assert_eq!(ok.fingerprint, want.fingerprint);
        }
        let report = server.shutdown();
        assert_eq!(report.served, 5);
        assert_eq!(report.shed, 0);
        assert_eq!(report.log_records, 5);
    }

    #[test]
    fn overload_sheds_deterministically() {
        // No workers: nothing drains the queue, so pushes past capacity
        // must shed — deterministically.
        let server = Server::start(
            tiny_store(),
            ServerConfig { workers: 0, queue_capacity: 3, ..ServerConfig::default() },
        );
        let (tx, rx) = std::sync::mpsc::channel();
        let mut pending = Vec::new();
        for i in 0..5u64 {
            let tx = tx.clone();
            let c = server.client();
            // Calls block until responded, so run each in a thread; the
            // two rejects answer immediately, the three admitted ones
            // answer at shutdown drain.
            pending.push(std::thread::spawn(move || {
                let resp = c.call(ServiceParams::Bi(q13_india()), 0);
                tx.send((i, resp)).unwrap();
            }));
            // Wait until this call was either queued or shed before
            // issuing the next one, so admission order is exactly the
            // issue order and the outcome split is deterministic.
            while server.queued() as u64 + server.report_now().shed < i + 1 {
                std::thread::yield_now();
            }
        }
        drop(tx);
        let report = server.shutdown();
        for h in pending {
            h.join().unwrap();
        }
        let mut ok = 0;
        let mut overloaded = 0;
        for (_, resp) in rx.iter() {
            match resp.body {
                Ok(_) => ok += 1,
                Err(e) => {
                    assert_eq!(e.kind, ErrorKind::Overloaded);
                    overloaded += 1;
                }
            }
        }
        assert_eq!((ok, overloaded), (3, 2));
        assert_eq!(report.served, 3);
        assert_eq!(report.shed, 2);
        assert_eq!(report.log_records, 5);
    }

    #[test]
    fn expired_deadline_is_typed_not_hung() {
        // No workers: the job sits queued past its 1ms deadline and is
        // answered DeadlineExceeded at the shutdown drain's dequeue.
        let server = Server::start(
            tiny_store(),
            ServerConfig { workers: 0, queue_capacity: 4, ..ServerConfig::default() },
        );
        let c = server.client();
        let h = std::thread::spawn(move || c.call(ServiceParams::Bi(q5_china()), 1_000));
        std::thread::sleep(Duration::from_millis(30));
        let report = server.shutdown();
        let resp = h.join().unwrap();
        let err = resp.body.expect_err("deadline should have expired");
        assert_eq!(err.kind, ErrorKind::DeadlineExceeded);
        assert!(err.queue_us >= 1_000, "queue wait {}us should exceed deadline", err.queue_us);
        assert_eq!(report.deadline_missed, 1);
        assert_eq!(report.served, 0);
    }

    #[test]
    fn shutdown_rejects_new_but_drains_admitted() {
        let server = Server::start(
            tiny_store(),
            ServerConfig { workers: 0, queue_capacity: 8, ..ServerConfig::default() },
        );
        let c = server.client();
        let h = std::thread::spawn(move || c.call(ServiceParams::Bi(q13_india()), 0));
        std::thread::sleep(Duration::from_millis(20));
        let late_client = server.client();
        let report = server.shutdown();
        // Admitted-before-shutdown work completed.
        let resp = h.join().unwrap();
        assert!(resp.body.is_ok());
        assert_eq!(report.served, 1);
        // A call after shutdown is a typed rejection, not a hang.
        let resp = late_client.call(ServiceParams::Bi(q13_india()), 0);
        assert_eq!(resp.body.expect_err("post-shutdown call").kind, ErrorKind::ShuttingDown);
    }

    #[test]
    fn profiling_attaches_per_request_profile() {
        let server = Server::start(
            tiny_store(),
            ServerConfig {
                workers: 1,
                queue_capacity: 8,
                profiling: true,
                ..ServerConfig::default()
            },
        );
        let client = server.client();
        let resp = client.call(
            ServiceParams::Bi(BiParams::Q2(snb_bi::bi02::Params {
                start_date: Date::from_ymd(2010, 1, 1),
                end_date: Date::from_ymd(2012, 12, 1),
                country1: "India".into(),
                country2: "China".into(),
                min_count: 1,
            })),
            0,
        );
        let ok = resp.body.expect("profiled request should succeed");
        let profile = ok.profile.expect("profiling on => profile present");
        assert!(profile.rows_scanned > 0, "BI 2 scans messages: {profile:?}");
        let log = server.access_log().snapshot();
        assert_eq!(log.len(), 1);
        assert!(log[0].profile.is_some());
        server.shutdown();
    }

    #[test]
    fn tcp_roundtrip_with_pipelining_and_bad_frame() {
        let store = tiny_store();
        let ctx = QueryContext::single_threaded();
        let expected: Vec<_> =
            sample_params().iter().map(|p| snb_bi::run_with(&store, &ctx, p)).collect();

        let mut server = Server::start(
            store,
            ServerConfig { workers: 2, queue_capacity: 32, ..ServerConfig::default() },
        );
        let addr = server.listen("127.0.0.1:0").expect("bind ephemeral port");
        let mut conn = std::net::TcpStream::connect(addr).expect("connect");

        // Pipeline every request before reading any response.
        for (i, p) in sample_params().into_iter().enumerate() {
            let req = Request {
                id: i as u64 + 1,
                deadline_us: 0,
                min_seq: 0,
                params: ServiceParams::Bi(p),
            };
            let payload = proto::encode_request(&req);
            proto::write_frame(&mut conn, &payload).expect("write frame");
        }
        let mut got = std::collections::HashMap::new();
        while got.len() < 5 {
            let payload = proto::read_frame(&mut conn).expect("read frame");
            let resp = proto::decode_response(&payload).expect("decode response");
            got.insert(resp.id, resp.body.expect("tcp request should succeed"));
        }
        for (i, want) in expected.iter().enumerate() {
            let ok = &got[&(i as u64 + 1)];
            assert_eq!(ok.rows as usize, want.rows, "query #{i} rows over TCP");
            assert_eq!(ok.fingerprint, want.fingerprint, "query #{i} fingerprint over TCP");
        }

        // An undecodable frame gets a typed BadRequest, and the
        // connection stays usable afterwards.
        proto::write_frame(&mut conn, &[0xFF, 0xFF, 0xFF]).expect("write garbage");
        let payload = proto::read_frame(&mut conn).expect("read error response");
        let resp = proto::decode_response(&payload).expect("decode error response");
        assert_eq!(resp.body.expect_err("garbage frame").kind, ErrorKind::BadRequest);

        drop(conn);
        let report = server.shutdown();
        assert_eq!(report.served, 5);
        assert_eq!(report.bad_requests, 1);
    }

    #[test]
    fn an_image_that_fails_its_invariants_is_refused_by_recovery() {
        let cfg = GeneratorConfig::for_scale_name("0.001").unwrap();
        let dir = std::env::temp_dir().join(format!("snb_lib_bad_image_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut bad = tiny_store();
        bad.persons.city[0] = bad.places.len() as snb_store::Ix;
        write_image(&dir, "0.001", cfg.seed, 0, 1, 1, &bad).unwrap();
        let written = std::fs::read(dir.join(IMAGE_FILE)).unwrap();

        // The image is well-formed, so only the invariant check can
        // refuse it, and it does so before a log is created beside it.
        let refused = recover(&dir, &cfg, "0.001", WalOptions::default()).err();
        assert!(matches!(refused, Some(snb_core::SnbError::Config(_))), "{refused:?}");
        let files: Vec<_> =
            std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(files, [IMAGE_FILE], "nothing may be created beside the refused image");
        assert_eq!(std::fs::read(dir.join(IMAGE_FILE)).unwrap(), written);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tcp_shutdown_drains_inflight_then_exits() {
        let mut server = Server::start(
            tiny_store(),
            ServerConfig { workers: 1, queue_capacity: 16, ..ServerConfig::default() },
        );
        let addr = server.listen("127.0.0.1:0").expect("bind");
        let mut conn = std::net::TcpStream::connect(addr).expect("connect");
        for i in 0..4u64 {
            let req = Request {
                id: i + 1,
                deadline_us: 0,
                min_seq: 0,
                params: ServiceParams::Bi(q13_india()),
            };
            proto::write_frame(&mut conn, &proto::encode_request(&req)).expect("write");
        }
        conn.flush().unwrap();
        // Give the reader a moment to admit, then shut down; all four
        // must still be answered before the socket closes.
        std::thread::sleep(Duration::from_millis(50));
        let handle = std::thread::spawn(move || server.shutdown());
        let mut answered = 0;
        while answered < 4 {
            let payload = proto::read_frame(&mut conn).expect("drain response");
            let resp = proto::decode_response(&payload).expect("decode");
            assert!(resp.body.is_ok());
            answered += 1;
        }
        let report = handle.join().unwrap();
        assert_eq!(report.served, 4);
    }
}
