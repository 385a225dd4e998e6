//! IS reads execute on the thread that admitted them — the reactor for
//! TCP, the caller for the in-process client — but pass the same
//! admission gate as queued work. For each refusal the gate can give, a
//! request over either transport gets the typed error and leaves exactly
//! one access-log record on the `short` lane; only `ok` answers count as
//! short-lane service. The access log keeps the most recent
//! `LOG_CAPACITY` records while the report counts every request, and
//! every outcome the report counts equals the records with that outcome.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use snb_interactive::IsParams;
use snb_server::proto::{self, Request};
use snb_server::{
    recover, AccessRecord, ErrorKind, Response, Server, ServerConfig, ServiceParams, WalOptions,
    WriteBatch, LOG_CAPACITY,
};
use snb_store::Ix;

mod common;
use common::{config, SCALE};

/// The person with the most messages: IS 2 on them does real work.
fn busiest_person(store: &snb_store::Store) -> u64 {
    let p = (0..store.persons.len() as Ix)
        .max_by_key(|&p| store.person_messages.degree(p))
        .expect("persons");
    store.persons.id[p as usize]
}

fn start(store: snb_store::Store, workers: usize) -> (Server, SocketAddr) {
    let mut server = Server::start(
        store,
        ServerConfig { workers, queue_capacity: 1024, ..ServerConfig::default() },
    );
    let addr = server.listen("127.0.0.1:0").expect("bind ephemeral port");
    (server, addr)
}

fn is2(person: u64) -> ServiceParams {
    ServiceParams::Is(IsParams::from_parts(2, person).expect("IS 2"))
}

fn tcp_call(conn: &mut TcpStream, req: &Request) -> Response {
    proto::write_frame(conn, &proto::encode_request(req)).unwrap();
    proto::decode_response(&proto::read_frame(conn).unwrap()).unwrap()
}

fn kind(resp: &Response) -> Option<ErrorKind> {
    resp.body.as_ref().err().map(|e| e.kind)
}

/// The IS records with `outcome`, all of which must be on the short lane.
fn is_records(log: &[AccessRecord], outcome: &str) -> usize {
    log.iter()
        .filter(|r| r.workload == "IS" && r.outcome == outcome)
        .inspect(|r| assert_eq!(r.lane, "short", "{r:?}"))
        .count()
}

#[test]
fn stale_reads_are_refused_inline() {
    let store = snb_store::store_for_config(&config());
    let person = busiest_person(&store);
    let (server, addr) = start(store, 1);
    let client = server.client();
    let mut conn = TcpStream::connect(addr).unwrap();

    let stale = client.call_min_seq(is2(person), 0, 5);
    assert_eq!(kind(&stale), Some(ErrorKind::StaleRead), "{stale:?}");
    let req = Request { id: 9, deadline_us: 0, min_seq: 5, params: is2(person) };
    let stale = tcp_call(&mut conn, &req);
    assert_eq!((stale.id, kind(&stale)), (9, Some(ErrorKind::StaleRead)), "{stale:?}");
    // Fresh enough reads pass the same gate and are served.
    assert!(client.call(is2(person), 0).body.is_ok());
    assert!(tcp_call(&mut conn, &Request { min_seq: 0, ..req }).body.is_ok());

    let log = server.access_log().snapshot();
    assert_eq!(log.len(), 4, "one record per request: {log:?}");
    assert_eq!(is_records(&log, "stale_read"), 2);
    assert_eq!(is_records(&log, "ok"), 2);
    let report = server.shutdown();
    assert_eq!(report.stale_read_rejects, 2);
    assert_eq!(report.served_by_lane, [2, 0, 0]);
}

#[test]
fn a_poisoned_store_refuses_inline_reads() {
    let dir = common::tmp_dir("inline_poison");
    let mut server = common::start(&dir, WalOptions::default());
    let person = busiest_person(server.snapshot().store());
    let batch = &common::batches(1, 1)[0];
    let addr = server.listen("127.0.0.1:0").expect("bind ephemeral port");
    let client = server.client();
    let mut conn = TcpStream::connect(addr).unwrap();

    // Only this test in the binary touches the (process-global) fault
    // registry, and it disarms before anything else can write.
    snb_fault::arm_from_spec("writer.apply.panic=panic@h1", 7).unwrap();
    let applied = common::submit(&server, 1, batch);
    snb_fault::disarm_all();
    assert!(matches!(applied, Err((ErrorKind::StorePoisoned, _))), "{applied:?}");
    assert!(server.is_degraded(), "the panic must poison the store");

    let poisoned = client.call(is2(person), 0);
    assert_eq!(kind(&poisoned), Some(ErrorKind::StorePoisoned), "{poisoned:?}");
    let req = Request { id: 3, deadline_us: 0, min_seq: 0, params: is2(person) };
    let poisoned = tcp_call(&mut conn, &req);
    assert_eq!((poisoned.id, kind(&poisoned)), (3, Some(ErrorKind::StorePoisoned)));

    // One record per request: the failed batch on the write lane, then
    // the two refused reads on the short lane.
    let log = server.access_log().snapshot();
    assert_eq!(log.len(), 3, "one record per request: {log:?}");
    assert_eq!((log[0].lane, log[0].outcome), ("write", "store_poisoned"));
    assert_eq!(is_records(&log, "store_poisoned"), 2);
    assert_eq!(server.shutdown().served_by_lane, [0, 0, 0]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_spent_budget_is_never_answered_ok() {
    let store = snb_store::store_for_config(&config());
    let person = busiest_person(&store);
    let (server, addr) = start(store, 1);
    let client = server.client();
    let mut conn = TcpStream::connect(addr).unwrap();
    let late = [ErrorKind::DeadlineExceeded, ErrorKind::DeadlineOverrun];

    let resp = client.call(is2(person), 1);
    assert!(kind(&resp).is_some_and(|k| late.contains(&k)), "{resp:?}");
    let resp =
        tcp_call(&mut conn, &Request { id: 4, deadline_us: 1, min_seq: 0, params: is2(person) });
    assert!(kind(&resp).is_some_and(|k| late.contains(&k)), "{resp:?}");

    let log = server.access_log().snapshot();
    assert_eq!(log.len(), 2, "one record per request: {log:?}");
    assert_eq!(is_records(&log, "deadline_exceeded") + is_records(&log, "deadline_overrun"), 2);
    let report = server.shutdown();
    assert_eq!(report.deadline_missed + report.deadline_overrun, 2);
    assert_eq!(report.served_by_lane, [0, 0, 0]);
}

#[test]
fn requests_while_shutdown_drains_are_refused_inline() {
    const BACKLOG: usize = 1000;
    let store = snb_store::store_for_config(&config());
    let person = busiest_person(&store);
    let heavy = snb_params::ParamGen::new(&store, 7).bi_params(2, 8);
    // No workers: the backlog waits in the heavy lane and `shutdown`
    // drains it inline, which keeps the drain window open while the
    // transport still answers.
    let (server, addr) = start(store, 0);
    let log = server.log_handle();
    let client = server.client();
    let mut probe = TcpStream::connect(addr).unwrap();
    let mut flood = TcpStream::connect(addr).unwrap();
    let mut backlog = Vec::new();
    for i in 0..BACKLOG {
        let params = ServiceParams::Bi(heavy[i % heavy.len()].clone());
        let req = Request { id: i as u64, deadline_us: 0, min_seq: 0, params };
        proto::write_frame(&mut backlog, &proto::encode_request(&req)).unwrap();
    }
    flood.write_all(&backlog).unwrap();
    while server.queued() < BACKLOG {
        std::thread::sleep(Duration::from_millis(1));
    }
    let drain = std::thread::spawn(move || server.shutdown());

    // Once the in-process client sees the refusal, shutdown has begun.
    let mut served_before = 0;
    loop {
        let resp = client.call(is2(person), 0);
        match kind(&resp) {
            None => served_before += 1,
            Some(ErrorKind::ShuttingDown) => break,
            Some(other) => panic!("unexpected {other:?}"),
        }
    }
    let req = Request { id: 5, deadline_us: 0, min_seq: 0, params: is2(person) };
    let resp = tcp_call(&mut probe, &req);
    assert_eq!((resp.id, kind(&resp)), (5, Some(ErrorKind::ShuttingDown)), "{resp:?}");

    let report = drain.join().unwrap();
    // After shutdown returns, the in-process path still answers typed.
    assert_eq!(kind(&client.call(is2(person), 0)), Some(ErrorKind::ShuttingDown));
    let records = log.log().snapshot();
    assert_eq!(is_records(&records, "shutting_down"), 3);
    assert_eq!(is_records(&records, "ok"), served_before);
    assert_eq!(report.served_by_lane[0], served_before as u64);
    assert_eq!(report.served_by_lane[1], BACKLOG as u64, "the admitted backlog drains");
}

#[test]
fn the_log_keeps_the_last_reads_and_the_report_counts_them_all() {
    let store = snb_store::store_for_config(&config());
    let person = busiest_person(&store);
    let server = Server::start(store, ServerConfig { workers: 1, ..ServerConfig::default() });
    let client = server.client();
    let is1 = ServiceParams::Is(IsParams::from_parts(1, person).expect("IS 1"));
    let sent = LOG_CAPACITY + 100;
    for _ in 0..sent {
        assert!(client.call(is1.clone(), 0).body.is_ok());
    }
    assert_eq!(server.access_log().len(), LOG_CAPACITY);
    assert_eq!(server.access_log().snapshot()[0].seq, 100, "the oldest records went first");
    let report = server.shutdown();
    assert_eq!(report.log_records, sent as u64);
    assert_eq!(report.served_by_lane[0], sent as u64);
}

#[test]
fn every_outcome_the_report_counts_matches_the_log() {
    let dir = common::tmp_dir("inline_every_outcome");
    let (store, durability, _) = recover(&dir, &config(), SCALE, WalOptions::default())
        .expect("recovery succeeds")
        .into_durability();
    let person = busiest_person(&store);
    let heavy = snb_params::ParamGen::new(&store, 7).bi_params(2, 1);
    // No workers and one slot per lane: queued work waits for the
    // shutdown drain, and a second heavy read finds its lane full.
    let config = ServerConfig { workers: 0, queue_capacity: 1, ..ServerConfig::default() };
    let mut server = Server::start_durable(store, config, durability);
    let addr = server.listen("127.0.0.1:0").expect("bind ephemeral port");
    let log = server.log_handle();
    let client = server.client();
    let mut conn = TcpStream::connect(addr).unwrap();
    let ops = common::batches(5, 1).remove(0);
    let write = |seq| ServiceParams::Write(WriteBatch { seq, ops: ops.clone() });
    let request = |id, deadline_us, params| Request { id, deadline_us, min_seq: 0, params };

    // A write applies once, then is re-acknowledged.
    assert_eq!(client.call(write(1), 0).body.expect("first apply").fingerprint, 1);
    assert_eq!(client.call(write(1), 0).body.expect("re-ack").rows, 0, "deduped");
    assert!(client.call(is2(person), 0).body.is_ok());
    assert_eq!(kind(&client.call_min_seq(is2(person), 0, 99)), Some(ErrorKind::StaleRead));
    proto::write_frame(&mut conn, &[0xFF, 0xFF, 0xFF]).unwrap();
    let garbage = proto::decode_response(&proto::read_frame(&mut conn).unwrap()).unwrap();
    assert_eq!(kind(&garbage), Some(ErrorKind::BadRequest));

    // Queued for the drain: a heavy read whose 1 µs deadline passes
    // while it waits, and a write batch the draining server refuses.
    // Between them, a second heavy read is shed.
    let mut frames = Vec::new();
    for req in [
        request(10, 1, ServiceParams::Bi(heavy[0].clone())),
        request(11, 0, ServiceParams::Bi(heavy[0].clone())),
        request(12, 0, write(2)),
    ] {
        proto::write_frame(&mut frames, &proto::encode_request(&req)).unwrap();
    }
    conn.write_all(&frames).unwrap();
    let shed = proto::decode_response(&proto::read_frame(&mut conn).unwrap()).unwrap();
    assert_eq!((shed.id, kind(&shed)), (11, Some(ErrorKind::Overloaded)), "{shed:?}");
    while server.queued() < 2 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let report = server.shutdown();

    let records = log.log().snapshot();
    let on = |lane: &str, outcome: &str| {
        records.iter().filter(|r| r.lane == lane && r.outcome == outcome).count() as u64
    };
    let count = |outcome: &str| records.iter().filter(|r| r.outcome == outcome).count() as u64;
    for (outcome, want) in [
        ("ok", 2),
        ("deduped", 1),
        ("stale_read", 1),
        ("bad_request", 1),
        ("overloaded", 1),
        ("deadline_exceeded", 1),
        ("shutting_down", 1),
    ] {
        assert_eq!(count(outcome), want, "{outcome}: {records:?}");
    }
    assert_eq!(report.served, on("short", "ok") + on("heavy", "ok"));
    assert_eq!(
        report.served_by_lane,
        [on("short", "ok"), on("heavy", "ok"), on("write", "ok") + on("write", "deduped")]
    );
    assert_eq!(report.shed, count("overloaded"));
    let shed_on = |lane| on(lane, "overloaded");
    assert_eq!(report.shed_by_lane, [shed_on("short"), shed_on("heavy"), shed_on("write")]);
    assert_eq!(report.deadline_missed, count("deadline_exceeded"));
    assert_eq!(report.deadline_overrun, count("deadline_overrun"));
    assert_eq!(report.rejected_shutdown, count("shutting_down"));
    assert_eq!(report.bad_requests, count("bad_request"));
    assert_eq!(report.internal_errors, count("internal"));
    assert_eq!(report.poisoned_rejects, count("store_poisoned"));
    assert_eq!(report.conn_stalled, count("conn_stalled"));
    assert_eq!(report.stale_read_rejects, count("stale_read"));
    assert_eq!(report.log_records, records.len() as u64);
    let _ = std::fs::remove_dir_all(&dir);
}
